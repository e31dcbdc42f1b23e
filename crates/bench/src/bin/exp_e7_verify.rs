//! E7 — the verification layer over the PAM study: on-the-fly property
//! checking with counterexample witnesses, schedule conformance, and
//! the standard-vs-multiport equivalence check.
//!
//! Prints one table of property verdicts on the quad-core PAM
//! deployment (with the early-stop state counts against the full
//! exploration), a conformance run on a recorded trace plus a
//! deliberately corrupted one, and the distinguishing schedule between
//! the two MoCC variants of the E4 producer/consumer graph.
//!
//! Flags:
//!
//! * `--workers N` — worker threads for the on-the-fly explorer
//!   (default: available parallelism; every verdict and counterexample
//!   is identical for every value);
//! * `--max-states N` — exploration bound (default 200 000).

use moccml_bench::experiments::{
    e4_graph, e7_conformance_trace, e7_violating_pam, parse_flag, table_header, table_row,
};
use moccml_engine::{ExploreOptions, Program};
use moccml_kernel::{Schedule, Step, StepPred};
use moccml_sdf::mocc::{build_specification_with, MoccVariant};
use moccml_verify::{
    check_equivalence, check_props, conformance, EquivOptions, EquivalenceVerdict, Prop,
    PropStatus, Verdict,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut options = ExploreOptions::default()
        .with_max_states(parse_flag(&args, "--max-states").unwrap_or(200_000));
    if let Some(workers) = parse_flag(&args, "--workers") {
        options = options.with_workers(workers);
    }

    println!("# E7 — verification: properties, conformance, equivalence");
    println!();
    println!(
        "(checking with {} worker(s), max {} states)",
        options.workers, options.max_states
    );
    println!();

    // ---- on-the-fly property checking on the quad-core deployment
    let (spec, seeded_prop) = e7_violating_pam();
    let universe = spec.universe().clone();
    let program = Program::compile(&spec);
    let lookup = |name: &str| universe.lookup(name).expect("PAM event");
    let props = [
        seeded_prop,
        Prop::DeadlockFree,
        Prop::Never(StepPred::and(
            StepPred::fired(lookup("hydroA.start")),
            StepPred::fired(lookup("hydroB.start")),
        )),
        Prop::Always(StepPred::implies(
            lookup("detect.start"),
            lookup("fusion.stop"),
        )),
        Prop::EventuallyWithin(StepPred::fired(lookup("detect.start")), 6),
    ];
    let full_states = program.explore(&options).state_count();
    println!("## quad-core PAM, full exploration: {full_states} states");
    println!();
    table_header(&["property", "status", "|counterexample|", "states visited"]);
    let mut seeded_witness = None;
    // one exploration decides every property; each row shows the
    // states its own verdict took
    let report = check_props(&program, &props, &options);
    let rows = report.statuses.iter().zip(&report.decided_at);
    for (i, (prop, (status, states))) in props.iter().zip(rows).enumerate() {
        let (status, ce_len) = match status {
            PropStatus::Holds => ("holds".to_owned(), "—".to_owned()),
            PropStatus::Violated(ce) => {
                if i == 0 {
                    seeded_witness = Some(ce.schedule.clone());
                }
                ("violated".to_owned(), ce.schedule.len().to_string())
            }
            PropStatus::Undetermined => ("undetermined".to_owned(), "—".to_owned()),
        };
        table_row(&[prop.display(&universe), status, ce_len, states.to_string()]);
    }
    println!();

    // the seeded violating property's witness (props[0], captured
    // above), as replayable text
    let witness = seeded_witness.expect("seeded violation");
    println!("## seeded counterexample (replayable, `Schedule::parse_lines` format)");
    println!();
    println!(
        "{}",
        witness.to_lines(&universe).expect("plain event names")
    );

    // ---- conformance: a recorded trace, then a corrupted one
    let (conf_spec, trace) = e7_conformance_trace(20);
    let conf_program = Program::compile(&conf_spec);
    println!("## conformance");
    println!();
    println!(
        "recorded 20-step trace: {:?}",
        conformance(&conf_program, &trace)
    );
    let mut corrupted = Schedule::new();
    // stopping the detector before it ever started violates its agent
    // constraint at step 0
    corrupted.push(Step::from_events([lookup("detect.stop")]));
    match conformance(&conf_program, &corrupted) {
        Verdict::Violation { step, violated } => {
            println!("corrupted trace: violation at step {step}, constraints {violated:?}");
        }
        Verdict::Conforms => println!("corrupted trace: unexpectedly conforms"),
    }
    println!();

    // ---- equivalence: standard vs multiport MoCC on E4
    let standard =
        Program::new(build_specification_with(&e4_graph(), MoccVariant::Standard).expect("builds"));
    let multiport = Program::new(
        build_specification_with(&e4_graph(), MoccVariant::Multiport).expect("builds"),
    );
    println!("## equivalence: E4 standard vs multiport place semantics");
    println!();
    match check_equivalence(
        &standard,
        &multiport,
        &EquivOptions::default().with_max_states(options.max_states),
    )
    .expect("same universe")
    {
        EquivalenceVerdict::Distinguished(d) => {
            println!(
                "distinguished after {} common step(s): step {} accepted by {:?} only",
                d.schedule.len(),
                d.step.display(standard.specification().universe()),
                d.only_accepted_by,
            );
        }
        other => println!("{other:?}"),
    }
}
