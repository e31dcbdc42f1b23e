//! The verification layer end to end: state temporal properties over a
//! specification, get minimal replayable counterexamples, check a
//! recorded trace for conformance, and compare two formulations of the
//! same protocol for behavioural equivalence.
//!
//! Run with: `cargo run --example verification`

use moccml::ccsl::{Alternation, Exclusion, Precedence};
use moccml::engine::{ExploreOptions, Program};
use moccml::kernel::{Schedule, Specification, StepPred, Universe};
use moccml::verify::{
    check, check_equivalence, check_props, conformance, CheckOptions, EquivOptions,
    EquivalenceVerdict, Prop, PropStatus, Verdict,
};

fn main() {
    // a small request/grant/release protocol: at most two outstanding
    // requests, grants alternate with releases, never both at once
    let mut u = Universe::new();
    let req = u.event("req");
    let grant = u.event("grant");
    let release = u.event("release");
    let mut spec = Specification::new("protocol", u.clone());
    spec.add_constraint(Box::new(
        Precedence::strict("req<grant", req, grant).with_bound(2),
    ));
    spec.add_constraint(Box::new(Alternation::new("grant~release", grant, release)));
    spec.add_constraint(Box::new(Exclusion::new("one-at-a-time", [grant, release])));
    let program = Program::new(spec);

    // ---- on-the-fly property checking: these all hold, proven on the
    // fully explored (finite) space
    println!("== property checking (on the fly, deterministic early stop)\n");
    let props = [
        Prop::DeadlockFree,
        Prop::Never(StepPred::and(
            StepPred::fired(grant),
            StepPred::fired(release),
        )),
        Prop::EventuallyWithin(StepPred::fired(grant), 3),
    ];
    let report = check_props(&program, &props, &ExploreOptions::default());
    for (prop, status) in props.iter().zip(&report.statuses) {
        print_status(&u, prop, status);
    }
    println!(
        "(visited {} states, {} transitions)\n",
        report.states_visited, report.transitions_visited
    );

    // a violated safety property: the checker stops at the first
    // violating BFS level and hands back a minimal, replayable witness
    let violated = Prop::Always(StepPred::implies(grant, req));
    let report = check(
        &program,
        std::slice::from_ref(&violated),
        CheckOptions::new(),
    );
    print_status(&u, &violated, &report.statuses[0]);
    if let PropStatus::Violated(ce) = &report.statuses[0] {
        assert!(ce.replays_on(&program), "witnesses always replay");
    }
    println!("(decided after {} states)\n", report.decided_at[0]);

    // ---- conformance of recorded traces (plain-text round trip)
    println!("== conformance checking\n");
    let trace = Schedule::parse_lines("req\ngrant\nrelease\nreq\n", &u).expect("log parses");
    match conformance(&program, &trace) {
        Verdict::Conforms => println!("recorded trace conforms"),
        Verdict::Violation { step, violated } => {
            println!("recorded trace violates at step {step}: {violated:?}")
        }
    }
    let bad = Schedule::parse_lines("grant\n", &u).expect("parses");
    match conformance(&program, &bad) {
        Verdict::Violation { step, violated } => {
            println!("corrupted trace violates at step {step}: constraints {violated:?}\n")
        }
        Verdict::Conforms => unreachable!("grant before req is rejected"),
    }

    // ---- equivalence of two formulations
    println!("== equivalence checking\n");
    let mut relaxed = Specification::new("relaxed", u.clone());
    relaxed.add_constraint(Box::new(
        Precedence::strict("req<grant", req, grant).with_bound(2),
    ));
    relaxed.add_constraint(Box::new(Precedence::strict(
        "grant<release",
        grant,
        release,
    )));
    let relaxed = Program::new(relaxed);
    match check_equivalence(
        &program,
        &relaxed,
        &EquivOptions::default().with_max_states(5_000),
    )
    .expect("same universe")
    {
        EquivalenceVerdict::Equivalent { pairs_visited } => {
            println!("equivalent ({pairs_visited} state pairs)")
        }
        EquivalenceVerdict::Distinguished(d) => println!(
            "distinguished after {} common step(s): {} accepted by {:?} only",
            d.schedule.len(),
            d.step.display(&u),
            d.only_accepted_by
        ),
        EquivalenceVerdict::Unknown { pairs_visited } => {
            println!("unknown (bound hit after {pairs_visited} pairs)")
        }
    }
}

fn print_status(u: &Universe, prop: &Prop, status: &PropStatus) {
    match status {
        PropStatus::Holds => println!("{:<32} holds", prop.display(u)),
        PropStatus::Violated(ce) => println!(
            "{:<32} VIOLATED, witness ({} steps): {}",
            prop.display(u),
            ce.schedule.len(),
            ce.schedule
                .to_lines(u)
                .expect("plain names")
                .trim_end()
                .replace('\n', " ; "),
        ),
        PropStatus::Undetermined => println!("{:<32} undetermined", prop.display(u)),
    }
}
