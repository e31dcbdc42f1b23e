//! Pass 3 — property lints (vacuous, unsatisfiable, tautological and
//! contradictory `assert`s) and the pass-4 cone-of-influence report.
//!
//! The AST properties (`ast.props()`) and the compiled
//! [`Prop`](moccml_verify::Prop)s are parallel vectors — `compile`
//! processes items in source order — so each lint can pick whichever
//! view is sharper: spans come from the AST, semantics from the
//! compiled predicate.

use crate::diagnostic::{Diagnostic, Severity};
use moccml_kernel::{EventId, Step, StepPred};
use moccml_lang::ast::{Name, PredAst, PropAst, SpecAst};
use moccml_lang::Compiled;
use moccml_verify::{sliceable_events, Prop};

/// Tautology/contradiction checks enumerate the predicate's own events
/// exhaustively; beyond this many distinct events we stay silent.
const MAX_PRED_EVENTS: usize = 12;

/// Runs the property lints. `dead_events` are the A013 findings of the
/// spec pass: asserts over them are *also* vacuous, but the root cause
/// is already reported, so only genuinely unconstrained events get
/// A020 here.
pub(crate) fn lint_props(
    ast: &SpecAst,
    compiled: &Compiled,
    dead_events: &Step,
    out: &mut Vec<Diagnostic>,
) {
    let program = &compiled.program;
    let spec = program.specification();
    let universe = spec.universe();
    let constrained = spec.constrained_events();
    let prop_asts = ast.props();
    debug_assert_eq!(prop_asts.len(), compiled.props.len());

    for (prop_ast, prop) in prop_asts.iter().zip(&compiled.props) {
        let anchor = prop_anchor(prop_ast);

        // A020: the predicate mentions events no constraint touches —
        // the explorer only ranges over constrained events, so those
        // atoms are constantly false
        for name in prop_names(prop_ast) {
            let Some(id) = universe.lookup(&name.text) else {
                continue;
            };
            if !constrained.contains(id) && !dead_events.contains(id) {
                out.push(Diagnostic::new(
                    "A020",
                    Severity::Warn,
                    name.line,
                    name.column,
                    format!(
                        "assert references `{}`, which no constraint touches: the \
                         event never fires during exploration, so `{}` is a constant \
                         atom",
                        name.text, name.text
                    ),
                ));
            }
        }

        // A021: a zero liveness bound is unsatisfiable by construction
        match prop_ast {
            PropAst::EventuallyWithin(_, 0) => out.push(Diagnostic::new(
                "A021",
                Severity::Error,
                anchor.0,
                anchor.1,
                "`eventually<=0(…)` is unsatisfiable by construction: no step can \
                 occur within a bound of 0"
                    .to_owned(),
            )),
            PropAst::UntilWithin(_, _, 0) => out.push(Diagnostic::new(
                "A021",
                Severity::Error,
                anchor.0,
                anchor.1,
                "`until<=0(…, …)` is unsatisfiable by construction: the fulfilling \
                 step cannot occur within a bound of 0"
                    .to_owned(),
            )),
            _ => {}
        }

        // A022 / A023: a predicate of the property is constant
        for pred in prop_preds(prop) {
            match constant_truth(pred) {
                Some(true) => out.push(Diagnostic::new(
                    "A022",
                    Severity::Warn,
                    anchor.0,
                    anchor.1,
                    format!(
                        "predicate `{}` is tautological: `always` holds trivially \
                         and `never` is violated by the very first step",
                        pred.display(universe)
                    ),
                )),
                Some(false) => out.push(Diagnostic::new(
                    "A023",
                    Severity::Warn,
                    anchor.0,
                    anchor.1,
                    format!(
                        "predicate `{}` is contradictory: `never` holds trivially \
                         and `always`/`eventually` can never be satisfied",
                        pred.display(universe)
                    ),
                )),
                None => {}
            }
        }

        // A030: the cone of influence is a proper constraint subset —
        // this assert is checkable on a smaller program
        if let Some(seeds) = sliceable_events(prop) {
            let cone = program.cone_of_influence(&seeds);
            let total = spec.constraint_count();
            if cone.len() < total {
                out.push(Diagnostic::new(
                    "A030",
                    Severity::Info,
                    anchor.0,
                    anchor.1,
                    format!(
                        "cone of influence: {} of {} constraints — \
                         `moccml_verify::check` with \
                         `CheckOptions::with_slice` verifies this assert on the \
                         slice alone",
                        cone.len(),
                        total
                    ),
                ));
            }
        }
    }
}

/// The compiled step predicates of a property (two for the bounded
/// binary temporal forms, none for `deadlock-free`).
fn prop_preds(prop: &Prop) -> Vec<&StepPred> {
    match prop {
        Prop::Always(p) | Prop::Never(p) | Prop::EventuallyWithin(p, _) => vec![p],
        Prop::UntilWithin(p, q, _) | Prop::ReleaseWithin(p, q, _) => vec![p, q],
        Prop::DeadlockFree => Vec::new(),
    }
}

/// `Some(truth)` when `pred` evaluates to the same truth value on every
/// possible step. A step predicate only inspects membership of its own
/// events, so enumerating their subsets is exhaustive.
fn constant_truth(pred: &StepPred) -> Option<bool> {
    let events: Vec<EventId> = pred.events().iter().collect();
    if events.len() > MAX_PRED_EVENTS {
        return None;
    }
    let first = pred.eval(&Step::new());
    for mask in 1u32..(1 << events.len()) {
        let step = Step::from_events(
            events
                .iter()
                .enumerate()
                .filter(|(k, _)| mask & (1 << k) != 0)
                .map(|(_, e)| *e),
        );
        if pred.eval(&step) != first {
            return None;
        }
    }
    Some(first)
}

/// The `(line, column)` anchor of a property: its first named event, or
/// `(1, 1)` for `deadlock-free` (which carries no span of its own).
fn prop_anchor(prop: &PropAst) -> (usize, usize) {
    prop_names(prop)
        .first()
        .map_or((1, 1), |n| (n.line, n.column))
}

/// Every event name the property mentions, in syntax order.
fn prop_names(prop: &PropAst) -> Vec<&Name> {
    let mut out = Vec::new();
    match prop {
        PropAst::Always(p) | PropAst::Never(p) | PropAst::EventuallyWithin(p, _) => {
            pred_names(p, &mut out);
        }
        PropAst::UntilWithin(p, q, _) | PropAst::ReleaseWithin(p, q, _) => {
            pred_names(p, &mut out);
            pred_names(q, &mut out);
        }
        PropAst::DeadlockFree => {}
    }
    out
}

fn pred_names<'a>(pred: &'a PredAst, out: &mut Vec<&'a Name>) {
    match pred {
        PredAst::Fired(n) => out.push(n),
        PredAst::Excludes(a, b) | PredAst::Implies(a, b) => {
            out.push(a);
            out.push(b);
        }
        PredAst::And(l, r) | PredAst::Or(l, r) => {
            pred_names(l, out);
            pred_names(r, out);
        }
        PredAst::Not(inner) => pred_names(inner, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moccml_lang::{compile_str, parse_spec};

    fn lint_source(src: &str) -> Vec<Diagnostic> {
        let compiled = compile_str(src).expect("compiles");
        let ast = parse_spec(src).expect("parses");
        let mut out = Vec::new();
        lint_props(&ast, &compiled, &Step::new(), &mut out);
        out
    }

    #[test]
    fn flags_vacuous_unsatisfiable_tautological_contradictory() {
        let diags = lint_source(
            "spec s {\n\
               events a, b, ghost;\n\
               constraint c = alternates(a, b);\n\
               assert never(ghost);\n\
               assert eventually<=0(a);\n\
               assert always((a || !a));\n\
               assert never((b && !b));\n\
             }",
        );
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"A020"), "ghost unconstrained: {codes:?}");
        assert!(codes.contains(&"A021"), "eventually<=0: {codes:?}");
        assert!(codes.contains(&"A022"), "a || !a: {codes:?}");
        assert!(codes.contains(&"A023"), "b && !b: {codes:?}");
        let unsat = diags.iter().find(|d| d.code == "A021").expect("A021");
        assert_eq!(unsat.severity, Severity::Error);
    }

    #[test]
    fn bounded_until_gets_the_same_scrutiny() {
        let diags = lint_source(
            "spec s {\n\
               events a, b, ghost;\n\
               constraint c = alternates(a, b);\n\
               assert until<=0(a, b);\n\
               assert until<=3((a || !a), b);\n\
               assert release<=3(a, ghost);\n\
             }",
        );
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"A021"), "until<=0: {codes:?}");
        assert!(codes.contains(&"A022"), "constant sustain pred: {codes:?}");
        assert!(
            codes.contains(&"A020"),
            "ghost in a release fulfil pred: {codes:?}"
        );
        // a healthy bounded until stays clean
        let clean = lint_source(
            "spec s {\n\
               events a, b;\n\
               constraint c = alternates(a, b);\n\
               assert until<=4(a, b);\n\
             }",
        );
        assert!(
            clean.iter().all(|d| d.code == "A030"),
            "only cone infos allowed: {clean:?}"
        );
    }

    #[test]
    fn cone_report_fires_only_on_proper_subsets() {
        let diags = lint_source(
            "spec s {\n\
               events a, b, x, y;\n\
               constraint ab = alternates(a, b);\n\
               constraint xy = alternates(x, y);\n\
               assert never((a && b));\n\
               assert never((a && x));\n\
               assert deadlock-free;\n\
             }",
        );
        let cones: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "A030").collect();
        // only the first assert has a proper cone (1 of 2 constraints);
        // the second touches both, deadlock-free is never sliceable
        assert_eq!(cones.len(), 1, "{diags:?}");
        assert!(cones[0].message.contains("1 of 2"));
        assert_eq!(cones[0].severity, Severity::Info);
    }

    #[test]
    fn healthy_asserts_stay_clean() {
        let diags = lint_source(
            "spec s {\n\
               events a, b;\n\
               constraint c = alternates(a, b);\n\
               assert never((a && b));\n\
               assert deadlock-free;\n\
             }",
        );
        assert!(
            diags.iter().all(|d| d.code == "A030"),
            "only cone infos allowed: {diags:?}"
        );
    }
}
