//! [`StepFormula`]: boolean formulas over event occurrences.

use crate::event::EventId;
use crate::step::Step;
use std::fmt;

/// A boolean formula over event-occurrence variables.
///
/// Sec. II-C of the paper gives the semantics of a MoCCML specification
/// as a boolean expression over `E`, a set of boolean variables in
/// bijection with the events `E`: a variable is `true` iff its event
/// occurs in the current step. Each constraint contributes one formula;
/// the specification is their conjunction.
///
/// Besides full evaluation against a [`Step`], the formula supports
/// *partial evaluation* against a partial assignment
/// ([`StepFormula::eval_partial`]), which the step solver uses to prune
/// the `2^n` search over candidate steps.
///
/// # Example
///
/// ```
/// use moccml_kernel::{Step, StepFormula, Universe};
/// let mut u = Universe::new();
/// let w = u.event("write");
/// let r = u.event("read");
/// // Fig. 3, state S1 with both guards true:
/// // (write ∧ ¬read) ∨ (read ∧ ¬write)
/// let f = StepFormula::or(vec![
///     StepFormula::and(vec![StepFormula::event(w), StepFormula::not(StepFormula::event(r))]),
///     StepFormula::and(vec![StepFormula::event(r), StepFormula::not(StepFormula::event(w))]),
/// ]);
/// assert!(f.eval(&Step::from_events([w])));
/// assert!(!f.eval(&Step::from_events([w, r])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepFormula {
    /// Always satisfied.
    True,
    /// Never satisfied.
    False,
    /// Satisfied iff the event occurs in the step.
    Event(EventId),
    /// Negation.
    Not(Box<StepFormula>),
    /// N-ary conjunction (empty conjunction is `True`).
    And(Vec<StepFormula>),
    /// N-ary disjunction (empty disjunction is `False`).
    Or(Vec<StepFormula>),
}

/// Result of a three-valued partial evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ternary {
    /// Formula is satisfied whatever the unassigned events.
    True,
    /// Formula is violated whatever the unassigned events.
    False,
    /// Outcome still depends on unassigned events.
    Unknown,
}

impl StepFormula {
    /// The formula satisfied exactly when `event` occurs.
    #[must_use]
    pub fn event(event: EventId) -> Self {
        StepFormula::Event(event)
    }

    /// Negation of `f`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: StepFormula) -> Self {
        StepFormula::Not(Box::new(f))
    }

    /// Conjunction of `fs` (empty ⇒ `True`).
    #[must_use]
    pub fn and(fs: Vec<StepFormula>) -> Self {
        StepFormula::And(fs)
    }

    /// Disjunction of `fs` (empty ⇒ `False`).
    #[must_use]
    pub fn or(fs: Vec<StepFormula>) -> Self {
        StepFormula::Or(fs)
    }

    /// `a ⇒ b`, the sub-event relation of Sec. II-C.
    #[must_use]
    pub fn implies(a: StepFormula, b: StepFormula) -> Self {
        StepFormula::Or(vec![StepFormula::not(a), b])
    }

    /// `a ⇔ b` (coincidence).
    #[must_use]
    pub fn iff(a: StepFormula, b: StepFormula) -> Self {
        StepFormula::Or(vec![
            StepFormula::And(vec![a.clone(), b.clone()]),
            StepFormula::And(vec![StepFormula::not(a), StepFormula::not(b)]),
        ])
    }

    /// Conjunction requiring all of `events` to occur.
    #[must_use]
    pub fn all_of<I: IntoIterator<Item = EventId>>(events: I) -> Self {
        StepFormula::And(events.into_iter().map(StepFormula::Event).collect())
    }

    /// Conjunction forbidding every one of `events`.
    #[must_use]
    pub fn none_of<I: IntoIterator<Item = EventId>>(events: I) -> Self {
        StepFormula::And(
            events
                .into_iter()
                .map(|e| StepFormula::not(StepFormula::Event(e)))
                .collect(),
        )
    }

    /// Conjunction allowing at most one of `events`: one pairwise
    /// clause `¬(a ∧ b)` per pair, in `events` order.
    #[must_use]
    pub fn at_most_one(events: &[EventId]) -> Self {
        let mut clauses = Vec::new();
        for (i, &a) in events.iter().enumerate() {
            for &b in &events[i + 1..] {
                clauses.push(StepFormula::not(StepFormula::all_of([a, b])));
            }
        }
        StepFormula::And(clauses)
    }

    /// Fully evaluates the formula against a step.
    #[must_use]
    pub fn eval(&self, step: &Step) -> bool {
        match self {
            StepFormula::True => true,
            StepFormula::False => false,
            StepFormula::Event(e) => step.contains(*e),
            StepFormula::Not(f) => !f.eval(step),
            StepFormula::And(fs) => fs.iter().all(|f| f.eval(step)),
            StepFormula::Or(fs) => fs.iter().any(|f| f.eval(step)),
        }
    }

    /// Partially evaluates against `assigned` events with values given by
    /// `value`: an event not in `assigned` is *undecided*.
    ///
    /// The solver assigns events one by one; `Ternary::False` prunes the
    /// whole subtree of candidate steps.
    #[must_use]
    pub fn eval_partial(&self, assigned: &Step, value: &Step) -> Ternary {
        match self {
            StepFormula::True => Ternary::True,
            StepFormula::False => Ternary::False,
            StepFormula::Event(e) => {
                if assigned.contains(*e) {
                    if value.contains(*e) {
                        Ternary::True
                    } else {
                        Ternary::False
                    }
                } else {
                    Ternary::Unknown
                }
            }
            StepFormula::Not(f) => match f.eval_partial(assigned, value) {
                Ternary::True => Ternary::False,
                Ternary::False => Ternary::True,
                Ternary::Unknown => Ternary::Unknown,
            },
            StepFormula::And(fs) => {
                let mut out = Ternary::True;
                for f in fs {
                    match f.eval_partial(assigned, value) {
                        Ternary::False => return Ternary::False,
                        Ternary::Unknown => out = Ternary::Unknown,
                        Ternary::True => {}
                    }
                }
                out
            }
            StepFormula::Or(fs) => {
                let mut out = Ternary::False;
                for f in fs {
                    match f.eval_partial(assigned, value) {
                        Ternary::True => return Ternary::True,
                        Ternary::Unknown => out = Ternary::Unknown,
                        Ternary::False => {}
                    }
                }
                out
            }
        }
    }

    /// Collects every event mentioned by the formula into `out`.
    pub fn collect_events(&self, out: &mut Step) {
        match self {
            StepFormula::True | StepFormula::False => {}
            StepFormula::Event(e) => {
                out.insert(*e);
            }
            StepFormula::Not(f) => f.collect_events(out),
            StepFormula::And(fs) | StepFormula::Or(fs) => {
                for f in fs {
                    f.collect_events(out);
                }
            }
        }
    }

    /// The set of events mentioned by the formula.
    #[must_use]
    pub fn events(&self) -> Step {
        let mut s = Step::new();
        self.collect_events(&mut s);
        s
    }

    /// Structural simplification: constant folding, flattening of nested
    /// `And`/`Or`, double-negation elimination.
    ///
    /// Simplification preserves the satisfaction relation but not the
    /// syntax; the solver applies it once per configuration.
    #[must_use]
    pub fn simplify(self) -> StepFormula {
        match self {
            StepFormula::Not(f) => match f.simplify() {
                StepFormula::True => StepFormula::False,
                StepFormula::False => StepFormula::True,
                StepFormula::Not(inner) => *inner,
                g => StepFormula::Not(Box::new(g)),
            },
            StepFormula::And(fs) => {
                let mut out = Vec::with_capacity(fs.len());
                for f in fs {
                    match f.simplify() {
                        StepFormula::True => {}
                        StepFormula::False => return StepFormula::False,
                        StepFormula::And(inner) => out.extend(inner),
                        g => out.push(g),
                    }
                }
                match out.len() {
                    0 => StepFormula::True,
                    1 => out.pop().expect("len checked"),
                    _ => StepFormula::And(out),
                }
            }
            StepFormula::Or(fs) => {
                let mut out = Vec::with_capacity(fs.len());
                for f in fs {
                    match f.simplify() {
                        StepFormula::False => {}
                        StepFormula::True => return StepFormula::True,
                        StepFormula::Or(inner) => out.extend(inner),
                        g => out.push(g),
                    }
                }
                match out.len() {
                    0 => StepFormula::False,
                    1 => out.pop().expect("len checked"),
                    _ => StepFormula::Or(out),
                }
            }
            other => other,
        }
    }
}

impl fmt::Display for StepFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepFormula::True => write!(f, "⊤"),
            StepFormula::False => write!(f, "⊥"),
            StepFormula::Event(e) => write!(f, "{e}"),
            StepFormula::Not(g) => write!(f, "¬{g}"),
            StepFormula::And(fs) => {
                let parts: Vec<String> = fs.iter().map(|g| g.to_string()).collect();
                write!(f, "({})", parts.join(" ∧ "))
            }
            StepFormula::Or(fs) => {
                let parts: Vec<String> = fs.iter().map(|g| g.to_string()).collect();
                write!(f, "({})", parts.join(" ∨ "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    fn setup() -> (Universe, EventId, EventId) {
        let mut u = Universe::new();
        let a = u.event("a");
        let b = u.event("b");
        (u, a, b)
    }

    #[test]
    fn implication_matches_subevent_semantics() {
        let (_, a, b) = setup();
        let f = StepFormula::implies(StepFormula::event(a), StepFormula::event(b));
        assert!(f.eval(&Step::new()));
        assert!(f.eval(&Step::from_events([b])));
        assert!(f.eval(&Step::from_events([a, b])));
        assert!(!f.eval(&Step::from_events([a])));
    }

    #[test]
    fn iff_is_coincidence() {
        let (_, a, b) = setup();
        let f = StepFormula::iff(StepFormula::event(a), StepFormula::event(b));
        assert!(f.eval(&Step::new()));
        assert!(f.eval(&Step::from_events([a, b])));
        assert!(!f.eval(&Step::from_events([a])));
        assert!(!f.eval(&Step::from_events([b])));
    }

    #[test]
    fn at_most_one_lists_the_pairs_in_order() {
        let (mut u, a, b) = setup();
        let c = u.event("c");
        let f = StepFormula::at_most_one(&[a, b, c]);
        let pair = |x, y| StepFormula::not(StepFormula::all_of([x, y]));
        assert_eq!(
            f,
            StepFormula::And(vec![pair(a, b), pair(a, c), pair(b, c)])
        );
        assert!(f.eval(&Step::from_events([b])));
        assert!(!f.eval(&Step::from_events([a, c])));
    }

    #[test]
    fn partial_eval_three_values() {
        let (_, a, b) = setup();
        let f = StepFormula::and(vec![StepFormula::event(a), StepFormula::event(b)]);
        let mut assigned = Step::new();
        let mut value = Step::new();
        assert_eq!(f.eval_partial(&assigned, &value), Ternary::Unknown);
        assigned.insert(a);
        // a assigned false: conjunction already fails
        assert_eq!(f.eval_partial(&assigned, &value), Ternary::False);
        value.insert(a);
        assert_eq!(f.eval_partial(&assigned, &value), Ternary::Unknown);
        assigned.insert(b);
        value.insert(b);
        assert_eq!(f.eval_partial(&assigned, &value), Ternary::True);
    }

    #[test]
    fn simplify_folds_constants() {
        let (_, a, _) = setup();
        let f = StepFormula::and(vec![
            StepFormula::True,
            StepFormula::or(vec![StepFormula::False, StepFormula::event(a)]),
        ]);
        assert_eq!(f.simplify(), StepFormula::event(a));

        let g = StepFormula::and(vec![StepFormula::False, StepFormula::event(a)]);
        assert_eq!(g.simplify(), StepFormula::False);

        let h = StepFormula::not(StepFormula::not(StepFormula::event(a)));
        assert_eq!(h.simplify(), StepFormula::event(a));
    }

    #[test]
    fn simplify_flattens_nested() {
        let (_, a, b) = setup();
        let f = StepFormula::and(vec![
            StepFormula::and(vec![StepFormula::event(a)]),
            StepFormula::event(b),
        ]);
        assert_eq!(
            f.simplify(),
            StepFormula::and(vec![StepFormula::event(a), StepFormula::event(b)])
        );
    }

    #[test]
    fn events_collects_all_mentions() {
        let (_, a, b) = setup();
        let f = StepFormula::or(vec![
            StepFormula::not(StepFormula::event(a)),
            StepFormula::and(vec![StepFormula::event(b)]),
        ]);
        let evs = f.events();
        assert!(evs.contains(a) && evs.contains(b));
        assert_eq!(evs.len(), 2);
    }

    #[test]
    fn display_is_readable() {
        let (_, a, b) = setup();
        let f = StepFormula::and(vec![
            StepFormula::event(a),
            StepFormula::not(StepFormula::event(b)),
        ]);
        assert_eq!(f.to_string(), "(e0 ∧ ¬e1)");
    }

    #[test]
    fn empty_connectives() {
        assert!(StepFormula::and(vec![]).eval(&Step::new()));
        assert!(!StepFormula::or(vec![]).eval(&Step::new()));
    }
}
