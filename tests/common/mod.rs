//! Shared test infrastructure: the random CCSL specification generator
//! used by the explorer-determinism, verify and analysis property
//! suites (`tests/explore_parallel.rs`, `tests/verify_properties.rs`,
//! `tests/analysis_witness.rs`), and the random `.mcc` AST generators
//! used by the frontend and analyzer suites (`tests/lang_roundtrip.rs`,
//! `tests/analyze_properties.rs`, `tests/slice_properties.rs`). One
//! copy, so a change to the constraint pool or the generator weights
//! reaches every suite.
//!
//! Not a test target itself — Cargo treats `tests/common/mod.rs` as a
//! plain module each suite pulls in with `mod common;`.
#![allow(dead_code)] // each suite uses a different subset

use moccml::lang::ast::{Arg, ConstraintDecl, Item, LibraryBlock, Name, PredAst, PropAst, SpecAst};
use moccml_ccsl::{Alternation, Coincidence, Exclusion, Precedence, SubClock, Union};
use moccml_kernel::{Constraint, EventId, Specification, Universe};
use moccml_testkit::TestRng;

/// Number of events every random specification ranges over.
pub const EVENTS: usize = 5;

/// A recipe for one random constraint over the [`EVENTS`]-event
/// universe. Bounded precedences and alternations are weighted up:
/// they are the stateful constraints that grow multi-level BFS
/// frontiers.
#[derive(Debug, Clone)]
pub enum Recipe {
    Sub(u8, u8),
    Excl(u8, u8, u8),
    Coinc(u8, u8),
    Prec(u8, u8, u8),
    Union(u8, u8, u8),
    Alt(u8, u8),
}

/// Draws one random recipe.
pub fn random_recipe(rng: &mut TestRng) -> Recipe {
    let e = |rng: &mut TestRng| rng.u8_in(0..EVENTS as u8);
    match rng.u8_in(0..8) {
        0 => Recipe::Sub(e(rng), e(rng)),
        1 => Recipe::Excl(e(rng), e(rng), e(rng)),
        2 => Recipe::Coinc(e(rng), e(rng)),
        3 | 4 => Recipe::Prec(e(rng), e(rng), rng.u8_in(1..EVENTS as u8)),
        5 => Recipe::Union(e(rng), e(rng), e(rng)),
        _ => Recipe::Alt(e(rng), e(rng)),
    }
}

/// Materialises recipes into a specification over events `e0`…`e4`
/// (all [`EVENTS`] of them registered, constrained or not).
pub fn build(recipes: &[Recipe]) -> Specification {
    let mut u = Universe::new();
    let events: Vec<EventId> = (0..EVENTS).map(|i| u.event(&format!("e{i}"))).collect();
    let mut spec = Specification::new("random", u);
    add_recipes(&mut spec, recipes, &events, "c");
    spec
}

/// Adds `recipes` to `spec` as constraints `<prefix>0`, `<prefix>1`, …,
/// recipe operand `i` standing for `events[i]` (at least [`EVENTS`] of
/// them). Degenerate draws (duplicate operands) are skipped.
pub fn add_recipes(spec: &mut Specification, recipes: &[Recipe], events: &[EventId], prefix: &str) {
    for (i, r) in recipes.iter().enumerate() {
        let name = format!("{prefix}{i}");
        let c: Option<Box<dyn Constraint>> = match *r {
            Recipe::Sub(a, b) if a != b => Some(Box::new(SubClock::new(
                &name,
                events[a as usize],
                events[b as usize],
            ))),
            Recipe::Excl(a, b, c2) if a != b && b != c2 && a != c2 => {
                Some(Box::new(Exclusion::new(
                    &name,
                    [events[a as usize], events[b as usize], events[c2 as usize]],
                )))
            }
            Recipe::Coinc(a, b) if a != b => Some(Box::new(Coincidence::new(
                &name,
                events[a as usize],
                events[b as usize],
            ))),
            Recipe::Prec(a, b, k) if a != b => Some(Box::new(
                Precedence::strict(&name, events[a as usize], events[b as usize])
                    .with_bound(u64::from(k)),
            )),
            Recipe::Union(a, b, c2) if a != b && a != c2 => Some(Box::new(Union::new(
                &name,
                events[a as usize],
                [events[b as usize], events[c2 as usize]],
            ))),
            Recipe::Alt(a, b) if a != b => Some(Box::new(Alternation::new(
                &name,
                events[a as usize],
                events[b as usize],
            ))),
            _ => None, // degenerate draws are skipped
        };
        if let Some(c) = c {
            spec.add_constraint(c);
        }
    }
}

// ---------------------------------------------------------------------
// `.mcc` AST generators (the lang / analyze / slice property suites)
// ---------------------------------------------------------------------

/// An AST [`Name`] with a dummy 1:1 span (spans don't participate in
/// AST equality).
pub fn name(text: &str) -> Name {
    Name::new(text, 1, 1)
}

/// A random event name from the default `e0`…`e4` universe.
pub fn event_name(rng: &mut TestRng) -> Name {
    name(&format!("e{}", rng.usize_in(0..EVENTS)))
}

fn pick_arg(rng: &mut TestRng, events: &[&str]) -> Arg {
    Arg::Event(name(events[rng.usize_in(0..events.len())]))
}

/// One random, always-compilable built-in constraint declaration named
/// `cname`, drawing its event arguments from `events`.
pub fn random_builtin_over(rng: &mut TestRng, cname: &str, events: &[&str]) -> ConstraintDecl {
    let (ctor, args): (&str, Vec<Arg>) = match rng.u8_in(0..12) {
        0 => (
            "subclock",
            vec![pick_arg(rng, events), pick_arg(rng, events)],
        ),
        1 => (
            "exclusion",
            (0..rng.usize_in(2..4))
                .map(|_| pick_arg(rng, events))
                .collect(),
        ),
        2 => (
            "coincidence",
            vec![pick_arg(rng, events), pick_arg(rng, events)],
        ),
        3 => (
            "precedes",
            vec![
                pick_arg(rng, events),
                pick_arg(rng, events),
                Arg::Int(rng.usize_in(1..4) as i64, 1, 1),
            ],
        ),
        4 => (
            "weak_precedes",
            vec![pick_arg(rng, events), pick_arg(rng, events)],
        ),
        5 => (
            "alternates",
            vec![pick_arg(rng, events), pick_arg(rng, events)],
        ),
        6 => (
            "union",
            (0..rng.usize_in(2..4))
                .map(|_| pick_arg(rng, events))
                .collect(),
        ),
        7 => (
            "intersection",
            (0..rng.usize_in(2..4))
                .map(|_| pick_arg(rng, events))
                .collect(),
        ),
        8 => (
            "delay",
            vec![
                pick_arg(rng, events),
                pick_arg(rng, events),
                Arg::Int(rng.usize_in(0..3) as i64, 1, 1),
            ],
        ),
        9 => (
            "periodic",
            vec![
                pick_arg(rng, events),
                pick_arg(rng, events),
                Arg::Int(rng.usize_in(0..3) as i64, 1, 1),
                Arg::Int(rng.usize_in(1..4) as i64, 1, 1),
            ],
        ),
        10 => (
            "sampled",
            vec![
                pick_arg(rng, events),
                pick_arg(rng, events),
                pick_arg(rng, events),
            ],
        ),
        _ => (
            "filtered",
            vec![
                pick_arg(rng, events),
                pick_arg(rng, events),
                Arg::Bits(
                    (0..rng.usize_in(0..3))
                        .map(|_| rng.u8_in(0..2) == 1)
                        .collect(),
                    1,
                    1,
                ),
                Arg::Bits(
                    (0..rng.usize_in(1..4))
                        .map(|_| rng.u8_in(0..2) == 1)
                        .collect(),
                    1,
                    1,
                ),
            ],
        ),
    };
    ConstraintDecl {
        name: name(cname),
        ctor: name(ctor),
        args,
    }
}

/// One random built-in constraint over the default `e0`…`e4` universe.
pub fn random_builtin(rng: &mut TestRng, index: usize) -> ConstraintDecl {
    random_builtin_over(rng, &format!("c{index}"), &["e0", "e1", "e2", "e3", "e4"])
}

pub fn random_pred_ast(rng: &mut TestRng, depth: usize) -> PredAst {
    if depth == 0 {
        return PredAst::Fired(event_name(rng));
    }
    match rng.u8_in(0..6) {
        0 => PredAst::Fired(event_name(rng)),
        1 => PredAst::Excludes(event_name(rng), event_name(rng)),
        2 => PredAst::Implies(event_name(rng), event_name(rng)),
        3 => PredAst::And(
            Box::new(random_pred_ast(rng, depth - 1)),
            Box::new(random_pred_ast(rng, depth - 1)),
        ),
        4 => PredAst::Or(
            Box::new(random_pred_ast(rng, depth - 1)),
            Box::new(random_pred_ast(rng, depth - 1)),
        ),
        _ => PredAst::Not(Box::new(random_pred_ast(rng, depth - 1))),
    }
}

pub fn random_prop_ast(rng: &mut TestRng) -> PropAst {
    match rng.u8_in(0..6) {
        0 => PropAst::Always(random_pred_ast(rng, 2)),
        1 => PropAst::Never(random_pred_ast(rng, 2)),
        2 => PropAst::EventuallyWithin(random_pred_ast(rng, 2), rng.usize_in(0..6)),
        3 => PropAst::UntilWithin(
            random_pred_ast(rng, 2),
            random_pred_ast(rng, 2),
            rng.usize_in(0..6),
        ),
        4 => PropAst::ReleaseWithin(
            random_pred_ast(rng, 2),
            random_pred_ast(rng, 2),
            rng.usize_in(0..6),
        ),
        _ => PropAst::DeadlockFree,
    }
}

/// The Fig. 3 place library as an embeddable block, plus a couple of
/// random instantiations of it.
pub fn random_library_items(rng: &mut TestRng, first_index: usize) -> Vec<Item> {
    let library = moccml::automata::parse_library(
        "library SDF {\n\
           constraint Place(write: event, read: event,\n\
                            pushRate: int, popRate: int,\n\
                            itsDelay: int, itsCapacity: int)\n\
           automaton PlaceDef implements Place {\n\
             var size: int = itsDelay;\n\
             initial state S0;\n\
             final state S0;\n\
             from S0 to S0 when {write} forbid {read}\n\
               guard [size <= itsCapacity - pushRate] do size += pushRate;\n\
             from S0 to S0 when {read} forbid {write}\n\
               guard [size >= popRate] do size -= popRate;\n\
           }\n\
         }",
    )
    .expect("embedded template parses");
    let mut items = vec![Item::Library(LibraryBlock {
        library,
        line: 1,
        column: 1,
    })];
    for i in 0..rng.usize_in(1..3) {
        items.push(Item::Constraint(ConstraintDecl {
            name: name(&format!("place{}_{}", first_index, i)),
            ctor: name("Place"),
            args: vec![
                Arg::Event(event_name(rng)),
                Arg::Event(event_name(rng)),
                Arg::Int(1, 1, 1),
                Arg::Int(1, 1, 1),
                Arg::Int(rng.usize_in(0..3) as i64, 1, 1),
                Arg::Int(rng.usize_in(1..4) as i64, 1, 1),
            ],
        }));
    }
    items
}

/// A random, always-compilable specification AST.
pub fn random_spec(rng: &mut TestRng) -> SpecAst {
    let mut items = vec![Item::Events(
        (0..EVENTS).map(|i| name(&format!("e{i}"))).collect(),
    )];
    let constraint_count = rng.usize_in(0..5);
    for i in 0..constraint_count {
        items.push(Item::Constraint(random_builtin(rng, i)));
    }
    if rng.u8_in(0..3) == 0 {
        items.extend(random_library_items(rng, constraint_count));
    }
    for _ in 0..rng.usize_in(0..4) {
        items.push(Item::Assert(random_prop_ast(rng)));
    }
    SpecAst {
        name: "random".to_owned(),
        items,
    }
}

/// A library block whose automaton has an unreachable state (`Lost`) —
/// the A001 seed of [`random_spec_with_defects`].
fn unreachable_state_items() -> Vec<Item> {
    let library = moccml::automata::parse_library(
        "library DefectLib {\n\
           constraint Spin(t: event)\n\
           automaton SpinDef implements Spin {\n\
             initial state S0;\n\
             final state S0;\n\
             state Lost;\n\
             from S0 to S0 when {t};\n\
             from Lost to S0 when {t};\n\
           }\n\
         }",
    )
    .expect("defect template parses");
    vec![
        Item::Library(LibraryBlock {
            library,
            line: 1,
            column: 1,
        }),
        Item::Constraint(ConstraintDecl {
            name: name("spin_defect"),
            ctor: name("Spin"),
            args: vec![Arg::Event(name("e0"))],
        }),
    ]
}

/// A random specification seeded with a random non-empty set of known
/// defects, returning the lint codes the seeds guarantee. The contract
/// for property tests is **reported ⊇ expected**: the base spec is
/// random, so the analyzer may flag incidental findings too, never
/// fewer.
///
/// Seeds on offer: an orphan event (A010), a duplicated constraint
/// (A011), an unreachable automaton state (A001), an `eventually<=0`
/// assert (A021) and an assert over an unconstrained event (A020).
pub fn random_spec_with_defects(rng: &mut TestRng) -> (SpecAst, Vec<&'static str>) {
    let mut event_names: Vec<Name> = (0..EVENTS).map(|i| name(&format!("e{i}"))).collect();
    let mut items: Vec<Item> = Vec::new();
    let mut tail_items: Vec<Item> = Vec::new();
    let mut expected = Vec::new();

    // a small constrained core so the base spec is never trivial
    for i in 0..rng.usize_in(1..4) {
        items.push(Item::Constraint(random_builtin(rng, i)));
    }

    if rng.u8_in(0..2) == 1 {
        // A010: a declared event nothing constrains or asserts about
        event_names.push(name("orphan_0"));
        expected.push("A010");
    }
    if rng.u8_in(0..2) == 1 {
        // A011: the same constructor and arguments declared twice —
        // identical footprint, state key and lowered formula
        let dup = random_builtin_over(rng, "dup_a", &["e0", "e1", "e2", "e3", "e4"]);
        let mut twin = dup.clone();
        twin.name = name("dup_b");
        items.push(Item::Constraint(dup));
        items.push(Item::Constraint(twin));
        expected.push("A011");
    }
    if rng.u8_in(0..2) == 1 {
        // A001: an automaton state no transition path reaches
        items.extend(unreachable_state_items());
        expected.push("A001");
    }
    if rng.u8_in(0..2) == 1 {
        // A021: unsatisfiable-by-construction bound
        tail_items.push(Item::Assert(PropAst::EventuallyWithin(
            random_pred_ast(rng, 1),
            0,
        )));
        expected.push("A021");
    }
    if expected.is_empty() || rng.u8_in(0..2) == 1 {
        // A020: an assert over an event no constraint touches
        event_names.push(name("ghost_0"));
        tail_items.push(Item::Assert(PropAst::Never(PredAst::Fired(name(
            "ghost_0",
        )))));
        expected.push("A020");
    }

    let mut all = vec![Item::Events(event_names)];
    all.append(&mut items);
    all.append(&mut tail_items);
    (
        SpecAst {
            name: "seeded".to_owned(),
            items: all,
        },
        expected,
    )
}
