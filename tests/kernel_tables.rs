//! Differential suite for the table-driven constraint kernel: the
//! engine enumerates steps from per-constraint model tables (joined as
//! masks inside a component) and moves constraints by table lookup.
//! Both must agree with the formula kernel the tables are built from:
//!
//! * every state's steps equal the brute-force models of the
//!   specification's own formulas (`Specification::accepts` over every
//!   subset of the constrained events) and the naive solver's;
//! * every successor equals `Specification::fire`, which runs
//!   `Constraint::next` on the full step, where the table ran it once
//!   per footprint model;
//! * two threads sharing one fresh `Program` (and so racing to fill its
//!   tables) build identical state spaces;
//! * a component wider than 64 events, which has no masks, agrees too;
//! * so do components whose constraints, or whose mask join, hold more
//!   models than the tables keep masks for (a 30-way `union`): they are
//!   searched jointly, in time linear in their steps;
//! * the inline `Step` orders like the word vector it replaced.
//!
//! Specs come from `tests/common` (CCSL built-ins, with Fig. 3 library
//! automata) and from random recipes packed onto few events, so that
//! components hold several constraints.

mod common;

use moccml_ccsl::{Alternation, Exclusion, Precedence, SubClock, Union};
use moccml_engine::{Cursor, Engine, ExploreOptions, Program, SolverOptions};
use moccml_kernel::{EventId, Specification, StateKey, Step, Universe};
use moccml_testkit::{cases, prop_assert, prop_assert_eq, PropResult, TestRng};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

const CASES: usize = 64;

/// States expanded per case.
const MAX_STATES: usize = 120;

/// One expanded state: its key and its `(step, successor)` pairs.
type Expansion = (StateKey, Vec<(Step, StateKey)>);

/// A random program: a compiled random `.mcc` AST (automata included)
/// or 3–7 random recipes over the five common events, which puts
/// several constraints into one component.
fn random_program(rng: &mut TestRng) -> Arc<Program> {
    if rng.bool() {
        let ast = common::random_spec(rng);
        moccml::lang::compile(&ast)
            .expect("random specs compile")
            .program
    } else {
        let recipes = rng.vec_of(3..8, common::random_recipe);
        Program::new(common::build(&recipes))
    }
}

/// Breadth-first expansions from the template state on one cursor, up
/// to `limit` states.
fn expansions(program: &Program, limit: usize) -> Vec<Expansion> {
    let mut cursor = program.cursor();
    let root = program.template_key().clone();
    let mut seen = HashSet::from([root.clone()]);
    let mut queue = VecDeque::from([root]);
    let mut out = Vec::new();
    while let Some(key) = queue.pop_front() {
        if out.len() == limit {
            break;
        }
        let succs = cursor
            .expand(&key, &SolverOptions::default())
            .expect("reached keys expand");
        for (_, succ) in &succs {
            if seen.insert(succ.clone()) {
                queue.push_back(succ.clone());
            }
        }
        out.push((key, succs));
    }
    out
}

/// The non-empty steps over the constrained events that the
/// specification's formulas accept in global state `key`, sorted —
/// enumerated by brute force, no engine code involved.
fn formula_steps(spec: &Specification, key: &StateKey) -> Vec<Step> {
    let mut spec = spec.clone();
    spec.restore(key).expect("reached keys restore");
    let events: Vec<EventId> = spec.constrained_events().iter().collect();
    let mut steps: Vec<Step> = (1u32..1 << events.len())
        .map(|mask| {
            events
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect()
        })
        .filter(|step| spec.accepts(step))
        .collect();
    steps.sort();
    steps
}

/// The global state `Specification::fire` reaches from `key` by `step`.
fn fired(spec: &Specification, key: &StateKey, step: &Step) -> Result<StateKey, String> {
    let mut spec = spec.clone();
    spec.restore(key).map_err(|e| e.to_string())?;
    spec.fire(step).map_err(|e| e.to_string())?;
    Ok(spec.state_key())
}

/// Checks one expansion against the formula kernel, the naive solver
/// and `Cursor::fire`.
fn agrees_with_the_formulas(
    spec: &Specification,
    probe: &mut Cursor,
    (key, succs): &Expansion,
    oracle: impl Fn(&Specification, &StateKey) -> Vec<Step>,
) -> PropResult {
    let steps: Vec<Step> = succs.iter().map(|(step, _)| step.clone()).collect();
    prop_assert_eq!(&steps, &oracle(spec, key), "models at {key}");
    probe.restore(key).map_err(|e| e.to_string())?;
    prop_assert_eq!(&probe.acceptable_steps(&SolverOptions::default()), &steps);
    for (step, succ) in succs {
        prop_assert_eq!(succ, &fired(spec, key, step)?, "next of {step} at {key}");
        probe.restore(key).map_err(|e| e.to_string())?;
        probe.fire(step).map_err(|e| e.to_string())?;
        prop_assert_eq!(&probe.state_key(), succ, "fire {step} at {key}");
    }
    Ok(())
}

#[test]
fn tables_agree_with_the_formula_kernel() {
    cases(CASES).run("tables_agree_with_the_formula_kernel", |rng| {
        let program = random_program(rng);
        let spec = program.specification();
        let mut probe = program.cursor();
        for expansion in &expansions(&program, MAX_STATES) {
            agrees_with_the_formulas(spec, &mut probe, expansion, formula_steps)?;
            probe.restore(&expansion.0).map_err(|e| e.to_string())?;
            let naive = probe.acceptable_steps(&SolverOptions::naive());
            prop_assert_eq!(&probe.acceptable_steps(&SolverOptions::default()), &naive);
        }
        Ok(())
    });
}

#[test]
fn two_threads_sharing_one_program_agree() {
    cases(CASES / 2).run("two_threads_sharing_one_program_agree", |rng| {
        let program = random_program(rng);
        let serial = expansions(&Program::compile(program.specification()), MAX_STATES);
        // a fresh program: both threads fill its tables concurrently
        let shared = Program::compile(program.specification());
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| expansions(&shared, MAX_STATES));
            let b = s.spawn(|| expansions(&shared, MAX_STATES));
            (a.join().expect("thread a"), b.join().expect("thread b"))
        });
        prop_assert!(a == serial, "thread a diverged from the serial run");
        prop_assert!(b == serial, "thread b diverged from the serial run");
        Ok(())
    });
}

/// A 67-event component (a 67-way exclusion that an alternation and a
/// bounded precedence share events with) beside a 2-event one: the
/// wide component is searched on its formulas, the narrow one read
/// from its table, and both agree with the formula kernel. Every
/// acceptable step holds at most one exclusion event, so the oracle
/// only tries those.
#[test]
fn a_component_wider_than_64_events_agrees_too() {
    let mut u = Universe::new();
    let wide: Vec<EventId> = (0..67).map(|i| u.event(&format!("w{i}"))).collect();
    let (a, b) = (u.event("a"), u.event("b"));
    let mut spec = Specification::new("wide", u);
    spec.add_constraint(Box::new(Exclusion::new("one", wide.iter().copied())));
    spec.add_constraint(Box::new(Alternation::new("alt", wide[0], wide[66])));
    spec.add_constraint(Box::new(
        Precedence::strict("prec", wide[1], wide[65]).with_bound(2),
    ));
    spec.add_constraint(Box::new(SubClock::new("sub", a, b)));
    let program = Program::new(spec);
    let spec = program.specification();
    let oracle = |spec: &Specification, key: &StateKey| {
        let mut spec = spec.clone();
        spec.restore(key).expect("reached keys restore");
        let singles = std::iter::once(None).chain(wide.iter().map(Some));
        let mut steps: Vec<Step> = singles
            .flat_map(|w| {
                [vec![], vec![b], vec![a, b]]
                    .into_iter()
                    .map(move |pair| w.copied().into_iter().chain(pair).collect::<Step>())
            })
            .filter(|step| !step.is_empty() && spec.accepts(step))
            .collect();
        steps.sort();
        steps
    };
    let mut probe = program.cursor();
    let expanded = expansions(&program, MAX_STATES);
    // 2 alternation states × 3 precedence counts
    assert_eq!(expanded.len(), 6);
    for expansion in &expanded {
        if let Err(e) = agrees_with_the_formulas(spec, &mut probe, expansion, oracle) {
            panic!("{e}");
        }
    }
}

/// `union(u, e1..e30)` has 2^30 models over its footprint, but beside
/// `exclusion(e1..e30)` the component has 30 steps, `{u, ei}`: no table
/// may list the union's models. Enumeration, firing, exploration and
/// simulation all finish, and agree with the formula kernel.
#[test]
fn a_wide_union_beside_an_exclusion_is_searched_jointly() {
    let mut u = Universe::new();
    let union = u.event("u");
    let es: Vec<EventId> = (1..=30).map(|i| u.event(&format!("e{i}"))).collect();
    let mut spec = Specification::new("union30", u);
    spec.add_constraint(Box::new(Union::new("un", union, es.iter().copied())));
    spec.add_constraint(Box::new(Exclusion::new("ex", es.iter().copied())));
    spec.add_constraint(Box::new(
        Precedence::strict("prec", es[0], es[1]).with_bound(1),
    ));
    let program = Program::new(spec);
    let spec = program.specification();
    let oracle = |spec: &Specification, key: &StateKey| {
        let mut spec = spec.clone();
        spec.restore(key).expect("reached keys restore");
        let mut steps: Vec<Step> = es
            .iter()
            .map(|&e| Step::from_events([union, e]))
            .filter(|step| spec.accepts(step))
            .collect();
        steps.sort();
        steps
    };
    let mut probe = program.cursor();
    let expanded = expansions(&program, MAX_STATES);
    // the bounded precedence counts 0 or 1
    assert_eq!(expanded.len(), 2);
    for expansion in &expanded {
        if let Err(e) = agrees_with_the_formulas(spec, &mut probe, expansion, oracle) {
            panic!("{e}");
        }
    }
    let space = program.explore(&ExploreOptions::default());
    assert_eq!(space.state_count(), 2);
    let report = Engine::from_program(&program).build().run(20);
    assert_eq!(report.steps_taken, 20);
}

/// `union(u, e1..e12)` keeps its 4,096 models as masks, but joined with
/// `subclock(x, e1)` the component has 6,144 steps, more than a mask
/// join may hold: it is searched jointly, and agrees with the naive
/// solver.
#[test]
fn a_join_past_the_mask_limit_is_searched_jointly() {
    let mut u = Universe::new();
    let union = u.event("u");
    let es: Vec<EventId> = (1..=12).map(|i| u.event(&format!("e{i}"))).collect();
    let x = u.event("x");
    let mut spec = Specification::new("union12", u);
    spec.add_constraint(Box::new(Union::new("un", union, es.iter().copied())));
    spec.add_constraint(Box::new(SubClock::new("sub", x, es[0])));
    let cursor = Program::new(spec).cursor();
    let steps = cursor.acceptable_steps(&SolverOptions::default());
    assert_eq!(steps.len(), 6_144 - 1, "the empty step is excluded");
    assert_eq!(steps, cursor.acceptable_steps(&SolverOptions::naive()));
}

/// The word vector of the pre-inline `Step`: word `i` holds events
/// `64i..64i+63`, without trailing zero words.
fn words(step: &Step) -> Vec<u64> {
    let mut words = Vec::new();
    for e in step {
        let (w, b) = (e.index() / 64, e.index() % 64);
        if words.len() <= w {
            words.resize(w + 1, 0);
        }
        words[w] |= 1 << b;
    }
    words
}

#[test]
fn inline_steps_order_like_their_word_vectors() {
    cases(CASES).run("inline_steps_order_like_their_word_vectors", |rng| {
        let random_step = |rng: &mut TestRng| -> Step {
            let count = rng.usize_in(0..6);
            (0..count)
                .map(|_| EventId::from_index(rng.usize_in(0..200)))
                .collect()
        };
        let steps: Vec<Step> = (0..24).map(|_| random_step(rng)).collect();
        for a in &steps {
            for b in &steps {
                prop_assert_eq!(a.cmp(b), words(a).cmp(&words(b)), "{a} vs {b}");
                prop_assert_eq!(a == b, words(a) == words(b));
            }
            let mut emptied = a.clone();
            for e in a {
                emptied.remove(e);
            }
            prop_assert_eq!(emptied, Step::new(), "removal normalizes");
        }
        Ok(())
    });
}
