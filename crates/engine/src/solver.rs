//! The step solver: enumerating the acceptable steps of a configuration.
//!
//! Sec. II-C of the paper: with `n` events and no constraints there are
//! `2^n` possible steps; every constraint conjoins a boolean expression
//! that shrinks the set. The solver enumerates the models of the
//! conjunction over the *constrained* events (free events never appear
//! in any formula; each would merely double every answer, so they are
//! reported separately by
//! [`Specification::free_events`](moccml_kernel::Specification::free_events)).
//!
//! The conjunction is represented as a *slice of per-constraint
//! formulas* rather than one materialised `And` node, so each
//! constraint's formula is searched on its own. That search is the
//! source the [`Program`](crate::Program)'s tables are built from: it
//! runs once per reached local state of a constraint, over that
//! constraint's footprint, and a [`Cursor`](crate::Cursor) joins the
//! resulting model masks instead of searching again. The conjunctive
//! search itself remains for what has no masks: components wider than
//! 64 events or with more models than the tables keep masks for,
//! [`Cursor::acceptable_steps_over`](crate::Cursor::acceptable_steps_over)
//! and the naive ablation ([`SolverOptions::naive`]).

use moccml_kernel::{EventId, Step, StepFormula, Ternary};

/// Options controlling the step enumeration.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Include the empty (stuttering) step in the result. Defaults to
    /// `false`: simulation and exploration treat "nothing happens" as a
    /// non-step, and its acceptance is an invariant anyway.
    pub include_empty: bool,
    /// Prune the search with three-valued partial evaluation (default).
    /// `false` selects the naive `2^n` enumeration — kept only for the
    /// B3 ablation benchmark.
    pub prune: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            include_empty: false,
            prune: true,
        }
    }
}

impl SolverOptions {
    /// Options selecting the naive (unpruned) enumeration.
    #[must_use]
    pub fn naive() -> Self {
        SolverOptions {
            include_empty: false,
            prune: false,
        }
    }

    /// Builder-style toggle for including the empty step.
    #[must_use]
    pub fn with_empty(mut self, include: bool) -> Self {
        self.include_empty = include;
        self
    }
}

/// Enumerates the models of a conjunction of formulas over `events`.
///
/// The caller owns the lowering (once per reached constraint state, in
/// the [`Program`](crate::Program) memo) and the solver only searches.
/// The result is sorted by the `Ord` on [`Step`].
pub(crate) fn enumerate_steps(
    formulas: &[&StepFormula],
    events: &[EventId],
    options: &SolverOptions,
) -> Vec<Step> {
    let mut out = models(formulas, events, options.prune);
    if !options.include_empty && out.first().is_some_and(Step::is_empty) {
        out.remove(0);
    }
    out
}

/// Every model of the conjunction over `events`, the empty step
/// included when it is one, sorted by the `Ord` on [`Step`]. `prune`
/// selects the three-valued search over the naive `2^n` one.
pub(crate) fn models(formulas: &[&StepFormula], events: &[EventId], prune: bool) -> Vec<Step> {
    if !prune {
        let mut out = Vec::new();
        naive_search(formulas, events, &mut out);
        out.sort();
        return out;
    }
    models_within(formulas, events, usize::MAX).expect("an unbounded search finishes")
}

/// The pruned search of [`models`], given up as soon as it finds more
/// than `limit` models: `None` then.
pub(crate) fn models_within(
    formulas: &[&StepFormula],
    events: &[EventId],
    limit: usize,
) -> Option<Vec<Step>> {
    let mut out = Vec::new();
    let mut assigned = Step::new();
    let mut value = Step::new();
    prune_search(
        formulas,
        events,
        0,
        &mut assigned,
        &mut value,
        &mut out,
        limit,
    );
    if out.len() > limit {
        return None;
    }
    out.sort();
    Some(out)
}

/// Three-valued evaluation of the conjunction: `False` as soon as one
/// conjunct is refuted, `True` only when every conjunct is decided
/// true. Mirrors `StepFormula::eval_partial` on an `And` node without
/// requiring the conjuncts to live in one allocation.
fn eval_partial_all(formulas: &[&StepFormula], assigned: &Step, value: &Step) -> Ternary {
    let mut out = Ternary::True;
    for f in formulas {
        match f.eval_partial(assigned, value) {
            Ternary::False => return Ternary::False,
            Ternary::Unknown => out = Ternary::Unknown,
            Ternary::True => {}
        }
    }
    out
}

fn prune_search(
    formulas: &[&StepFormula],
    events: &[EventId],
    depth: usize,
    assigned: &mut Step,
    value: &mut Step,
    out: &mut Vec<Step>,
    limit: usize,
) {
    if out.len() > limit {
        return;
    }
    match eval_partial_all(formulas, assigned, value) {
        Ternary::False => return,
        Ternary::True => {
            // every extension over the remaining events is a model
            enumerate_extensions(events, depth, value.clone(), out, limit);
            return;
        }
        Ternary::Unknown => {}
    }
    if depth == events.len() {
        out.push(value.clone());
        return;
    }
    let e = events[depth];
    assigned.insert(e);
    // branch: event absent
    prune_search(formulas, events, depth + 1, assigned, value, out, limit);
    // branch: event present
    value.insert(e);
    prune_search(formulas, events, depth + 1, assigned, value, out, limit);
    value.remove(e);
    assigned.remove(e);
}

fn enumerate_extensions(
    events: &[EventId],
    depth: usize,
    base: Step,
    out: &mut Vec<Step>,
    limit: usize,
) {
    if out.len() > limit {
        return;
    }
    if depth == events.len() {
        out.push(base);
        return;
    }
    enumerate_extensions(events, depth + 1, base.clone(), out, limit);
    let mut with = base;
    with.insert(events[depth]);
    enumerate_extensions(events, depth + 1, with, out, limit);
}

fn naive_search(formulas: &[&StepFormula], events: &[EventId], out: &mut Vec<Step>) {
    let n = events.len();
    assert!(n < 26, "naive enumeration is capped at 2^26 candidates");
    for mask in 0u64..(1u64 << n) {
        let step: Step = events
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &e)| e)
            .collect();
        if formulas.iter().all(|f| f.eval(&step)) {
            out.push(step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use moccml_ccsl::{Coincidence, Exclusion, Precedence, SubClock};
    use moccml_kernel::{Specification, Universe};

    fn three_events() -> (Specification, EventId, EventId, EventId) {
        let mut u = Universe::new();
        let a = u.event("a");
        let b = u.event("b");
        let c = u.event("c");
        let spec = Specification::new("s", u);
        (spec, a, b, c)
    }

    fn steps(spec: &Specification, options: &SolverOptions) -> Vec<Step> {
        Program::compile(spec).cursor().acceptable_steps(options)
    }

    #[test]
    fn unconstrained_spec_has_no_constrained_events() {
        let (spec, _, _, _) = three_events();
        // no constraints ⇒ no constrained events ⇒ only the empty step,
        // which is excluded by default
        assert!(steps(&spec, &SolverOptions::default()).is_empty());
        let with_empty = steps(&spec, &SolverOptions::default().with_empty(true));
        assert_eq!(with_empty.len(), 1);
        assert!(with_empty[0].is_empty());
    }

    #[test]
    fn each_constraint_shrinks_the_step_set() {
        // E2: monotone restriction (Sec. II-C) — over a fixed event set.
        let (mut spec, a, b, _) = three_events();
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        let s1 = steps(&spec, &SolverOptions::default().with_empty(true));
        assert_eq!(s1.len(), 3); // {}, {b}, {a,b}
        spec.add_constraint(Box::new(Exclusion::new("a#b", [a, b])));
        let s2 = steps(&spec, &SolverOptions::default().with_empty(true));
        assert_eq!(s2.len(), 2); // {}, {b}
        for s in &s2 {
            assert!(s1.contains(s), "adding constraints only removes steps");
        }
    }

    #[test]
    fn subclock_steps_match_implication() {
        let (mut spec, a, b, _) = three_events();
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        let steps = steps(&spec, &SolverOptions::default());
        // over {a,b}: acceptable non-empty steps are {b}, {a,b}
        assert_eq!(steps.len(), 2);
        assert!(steps.contains(&Step::from_events([b])));
        assert!(steps.contains(&Step::from_events([a, b])));
    }

    #[test]
    fn pruned_and_naive_agree() {
        let (mut spec, a, b, c) = three_events();
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        spec.add_constraint(Box::new(Exclusion::new("a#c", [a, c])));
        spec.add_constraint(Box::new(Coincidence::new("b=c", b, c)));
        let pruned = steps(&spec, &SolverOptions::default());
        let naive = steps(&spec, &SolverOptions::naive());
        assert_eq!(pruned, naive);
    }

    #[test]
    fn stateful_constraint_changes_answers_after_fire() {
        let (mut spec, a, b, _) = three_events();
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let mut cursor = Program::new(spec).cursor();
        let before = cursor.acceptable_steps(&SolverOptions::default());
        assert_eq!(before, vec![Step::from_events([a])]);
        cursor.fire(&Step::from_events([a])).expect("fires");
        let after = cursor.acceptable_steps(&SolverOptions::default());
        // now b alone, a alone, or both are acceptable
        assert_eq!(after.len(), 3);
    }

    #[test]
    fn results_are_sorted_and_deduplicated_by_construction() {
        let (mut spec, a, b, c) = three_events();
        spec.add_constraint(Box::new(Exclusion::new("x", [a, b, c])));
        let steps = steps(&spec, &SolverOptions::default());
        let mut sorted = steps.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(steps, sorted);
        assert_eq!(steps.len(), 3); // {a}, {b}, {c}
    }

    #[test]
    fn enumeration_is_stable_across_fresh_compiles() {
        let (mut spec, a, b, c) = three_events();
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<c", b, c)));
        for options in [
            SolverOptions::default(),
            SolverOptions::naive(),
            SolverOptions::default().with_empty(true),
        ] {
            assert_eq!(
                steps(&spec, &options),
                steps(&spec, &options),
                "two compiles of one spec must enumerate identically"
            );
        }
    }
}
