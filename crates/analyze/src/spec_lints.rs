//! Pass 2 — spec lints over the compiled
//! [`Program`](moccml_engine::Program): unused events (A010), duplicate
//! constraints (A011), subsumed constraints (A012) and statically-dead
//! events (A013).
//!
//! A011/A012 compare the constraints' *lowered-formula footprints*: the
//! per-constraint [`StepFormula`](moccml_kernel::StepFormula)s and
//! event footprints the engine compiles, not the surface syntax — two
//! differently-written constraints with the same semantics are still
//! duplicates. A013 runs a per-constraint **may-fire abstraction**: a
//! bounded solo exploration of each constraint; an event its own
//! constraint never admits can never fire in the conjunction either.

use crate::diagnostic::{Diagnostic, Severity};
use moccml_engine::{ExploreOptions, Program};
use moccml_kernel::{EventId, Specification, Step, StepFormula};
use moccml_lang::ast::{Item, Name, SpecAst};
use moccml_lang::Compiled;

/// Exhaustive implication checks are bounded by footprint size: 2^12
/// evaluations of two tiny formulas is microseconds; beyond that we
/// stay silent rather than slow.
const MAX_FOOTPRINT_FOR_IMPLICATION: usize = 12;

/// The solo may-fire exploration is capped; a constraint whose own
/// state-space is larger (unbounded counters) is skipped
/// conservatively.
const MAY_FIRE_STATE_CAP: usize = 256;

/// Runs the spec lints. Returns the set of statically-dead events so
/// the property pass can avoid double-reporting their asserts.
pub(crate) fn lint_spec(ast: &SpecAst, compiled: &Compiled, out: &mut Vec<Diagnostic>) -> Step {
    let program = &compiled.program;
    let spec = program.specification();
    let universe = spec.universe();
    let footprints = program.footprints();
    let decls = ast.constraints();

    // events the asserted properties mention (DeadlockFree mentions none)
    let mut asserted = Step::new();
    for prop in &compiled.props {
        if let moccml_verify::Prop::Always(p)
        | moccml_verify::Prop::Never(p)
        | moccml_verify::Prop::EventuallyWithin(p, _) = prop
        {
            asserted = asserted.union(&p.events());
        }
    }

    // A010: declared events nothing constrains or asserts about
    let constrained = spec.constrained_events();
    for name in declared_event_names(ast) {
        let Some(id) = universe.lookup(&name.text) else {
            continue; // compile() already resolved every name
        };
        if !constrained.contains(id) && !asserted.contains(id) {
            out.push(Diagnostic::new(
                "A010",
                Severity::Warn,
                name.line,
                name.column,
                format!(
                    "event `{}` is neither constrained nor asserted about; it only \
                     doubles the acceptable-step count",
                    name.text
                ),
            ));
        }
    }

    // A011 / A012 need the lowered formulas and per-constraint state
    let formulas = spec.lowered_formulas();
    let keys = spec.locals();
    let n = spec.constraint_count();
    debug_assert_eq!(decls.len(), n, "compile() adds constraints in source order");

    // A011: same footprint, same local state, same lowered formula
    let mut duplicate_of: Vec<Option<usize>> = vec![None; n];
    for j in 1..n {
        for i in 0..j {
            if footprints[i] == footprints[j] && keys[i] == keys[j] && formulas[i] == formulas[j] {
                duplicate_of[j] = Some(i);
                break;
            }
        }
    }
    for (j, dup) in duplicate_of.iter().enumerate() {
        let Some(i) = dup else { continue };
        let name = &decls[j].name;
        out.push(Diagnostic::new(
            "A011",
            Severity::Warn,
            name.line,
            name.column,
            format!(
                "constraint `{}` duplicates `{}`: same events, same state, same \
                 lowered formula",
                name.text, decls[*i].name.text
            ),
        ));
    }

    // A012: a stateless constraint whose formula is implied by another
    // stateless constraint's formula is redundant. Stateless (empty
    // state key) means the formula never changes, so one exhaustive
    // implication check over the larger footprint decides it for every
    // instant.
    for j in 0..n {
        for i in 0..j {
            if duplicate_of[i].is_some() || duplicate_of[j].is_some() {
                continue;
            }
            if !keys[i].is_empty() || !keys[j].is_empty() {
                continue;
            }
            let (redundant, keeper) = match subsumption(
                (i, &footprints[i], &formulas[i]),
                (j, &footprints[j], &formulas[j]),
            ) {
                Some(pair) => pair,
                None => continue,
            };
            let name = &decls[redundant].name;
            out.push(Diagnostic::new(
                "A012",
                Severity::Warn,
                name.line,
                name.column,
                format!(
                    "constraint `{}` is subsumed by `{}`: every step `{}` accepts \
                     already satisfies `{}`",
                    name.text, decls[keeper].name.text, decls[keeper].name.text, name.text
                ),
            ));
        }
    }

    // A013: the may-fire abstraction
    let dead = statically_dead_events(spec);
    for name in declared_event_names(ast) {
        let Some(id) = universe.lookup(&name.text) else {
            continue;
        };
        if dead.contains(id) {
            out.push(Diagnostic::new(
                "A013",
                Severity::Warn,
                name.line,
                name.column,
                format!(
                    "event `{}` can never fire: one of its constraints admits it in \
                     no reachable state",
                    name.text
                ),
            ));
        }
    }
    dead
}

/// All `events …;` names with their source spans.
fn declared_event_names(ast: &SpecAst) -> Vec<&Name> {
    ast.items
        .iter()
        .filter_map(|i| match i {
            Item::Events(names) => Some(names.iter()),
            _ => None,
        })
        .flatten()
        .collect()
}

/// Decides subsumption between two stateless constraints, returning
/// `(redundant, keeper)` indices — or `None` if neither footprint
/// contains the other, the footprints are too large, or neither formula
/// implies the other.
fn subsumption(
    a: (usize, &Step, &StepFormula),
    b: (usize, &Step, &StepFormula),
) -> Option<(usize, usize)> {
    let (ai, afp, af) = a;
    let (bi, bfp, bf) = b;
    // the implication candidate must range over the larger footprint
    let (small, large) = if afp.is_subset_of(bfp) {
        ((ai, af), (bi, bf, bfp))
    } else if bfp.is_subset_of(afp) {
        ((bi, bf), (ai, af, afp))
    } else {
        return None;
    };
    let (li, lf, lfp) = large;
    let (si, sf) = small;
    if lfp.len() > MAX_FOOTPRINT_FOR_IMPLICATION {
        return None;
    }
    let events: Vec<EventId> = lfp.iter().collect();
    let mut large_implies_small = true;
    let mut small_implies_large = true;
    for mask in 0u32..(1 << events.len()) {
        let step = Step::from_events(
            events
                .iter()
                .enumerate()
                .filter(|(k, _)| mask & (1 << k) != 0)
                .map(|(_, e)| *e),
        );
        let lv = lf.eval(&step);
        let sv = sf.eval(&step);
        if lv && !sv {
            large_implies_small = false;
        }
        if sv && !lv {
            small_implies_large = false;
        }
        if !large_implies_small && !small_implies_large {
            return None;
        }
    }
    if large_implies_small && small_implies_large {
        // semantically equivalent (A011 missed only the syntax): the
        // later declaration is the redundant one
        Some((ai.max(bi), ai.min(bi)))
    } else if large_implies_small {
        Some((si, li))
    } else {
        None
    }
}

/// Events some constraint of `spec` never admits in any reachable state
/// of its **solo** exploration — a sound over-approximation-free core:
/// the conjunction only removes behaviour, so solo-dead implies dead.
fn statically_dead_events(spec: &Specification) -> Step {
    let mut dead = Step::new();
    for (i, c) in spec.constraints().iter().enumerate() {
        let footprint = Step::from_events(c.constrained_events());
        let mut solo = Specification::new(c.name(), spec.universe().clone());
        solo.share_constraint(spec, i);
        let program = Program::new(solo);
        let space = program.explore(&ExploreOptions::default().with_max_states(MAY_FIRE_STATE_CAP));
        if space.truncated() {
            continue; // too big to decide; stay silent
        }
        let may_fire = space
            .graph()
            .steps()
            .iter()
            .fold(Step::new(), |acc, step| acc.union(step));
        dead = dead.union(&footprint.difference(&may_fire));
    }
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use moccml_lang::compile_str;

    fn lint_source(src: &str) -> Vec<Diagnostic> {
        let compiled = compile_str(src).expect("compiles");
        let ast = moccml_lang::parse_spec(src).expect("parses");
        let mut out = Vec::new();
        lint_spec(&ast, &compiled, &mut out);
        out
    }

    #[test]
    fn flags_unused_duplicate_subsumed_and_dead() {
        let diags = lint_source(
            "spec s {\n\
               events a, b, d, m, orphan;\n\
               constraint e1 = exclusion(a, b);\n\
               constraint e2 = exclusion(a, b);\n\
               constraint e3 = exclusion(a, b, d);\n\
               library L {\n\
                 constraint Mute(x: event)\n\
                 automaton MuteDef implements Mute {\n\
                   initial state M0; final state M0;\n\
                   from M0 to M0 when {} forbid {x};\n\
                 }\n\
               }\n\
               constraint mute = Mute(m);\n\
             }",
        );
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"A010"), "orphan unused: {codes:?}");
        assert!(codes.contains(&"A011"), "e2 duplicates e1: {codes:?}");
        assert!(codes.contains(&"A012"), "e1 subsumed by e3: {codes:?}");
        assert!(codes.contains(&"A013"), "m can never fire: {codes:?}");
        // the duplicate anchors at e2's own declaration
        let dup = diags.iter().find(|d| d.code == "A011").expect("dup");
        assert!(dup.message.contains("`e2`") && dup.message.contains("`e1`"));
    }

    #[test]
    fn stateful_pairs_are_never_subsumption_checked() {
        // a capacity-1 place's *initial* formula implies the exclusion,
        // but later states do not: a sound linter must stay silent
        let diags = lint_source(
            "spec s {\n\
               events w, r;\n\
               library SDF {\n\
                 constraint Place(write: event, read: event)\n\
                 automaton PlaceDef implements Place {\n\
                   var size: int = 0;\n\
                   initial state S0; final state S0;\n\
                   from S0 to S0 when {write} forbid {read} guard [size < 1] do size += 1;\n\
                   from S0 to S0 when {read} forbid {write} guard [size >= 1] do size -= 1;\n\
                 }\n\
               }\n\
               constraint p = Place(w, r);\n\
               constraint core = exclusion(w, r);\n\
             }",
        );
        assert!(
            !diags.iter().any(|d| d.code == "A012" || d.code == "A011"),
            "{diags:?}"
        );
    }

    #[test]
    fn asserted_only_events_are_not_unused() {
        let diags = lint_source(
            "spec s {\n\
               events a, b, ghost;\n\
               constraint c = alternates(a, b);\n\
               assert never(ghost);\n\
             }",
        );
        // ghost is asserted about, so not A010 (the prop pass flags the
        // vacuity instead)
        assert!(!diags.iter().any(|d| d.code == "A010"), "{diags:?}");
    }

    #[test]
    fn unbounded_constraints_skip_the_may_fire_pass() {
        // strict precedence has an unbounded counter: solo exploration
        // truncates, so A013 stays silent instead of guessing
        let diags = lint_source(
            "spec s {\n\
               events a, b;\n\
               constraint p = weak_precedes(a, b);\n\
             }",
        );
        assert!(!diags.iter().any(|d| d.code == "A013"), "{diags:?}");
    }
}
