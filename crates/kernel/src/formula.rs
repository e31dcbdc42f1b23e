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
    /// At most one of the events occurs: the pairwise exclusion of
    /// every two of them, in a node linear in their number.
    AtMostOne(Vec<EventId>),
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

    /// At most one of `events` occurs: satisfied exactly where the
    /// conjunction of the pairwise clauses `¬(a ∧ b)` is, but one
    /// [`AtMostOne`](StepFormula::AtMostOne) node instead of
    /// `n(n−1)/2` clauses.
    #[must_use]
    pub fn at_most_one(events: &[EventId]) -> Self {
        StepFormula::AtMostOne(events.to_vec())
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
            StepFormula::AtMostOne(es) => es.iter().filter(|&&e| step.contains(e)).nth(1).is_none(),
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
            StepFormula::AtMostOne(es) => {
                let (mut present, mut open) = (0, 0);
                for &e in es {
                    if !assigned.contains(e) {
                        open += 1;
                    } else if value.contains(e) {
                        present += 1;
                        if present == 2 {
                            return Ternary::False;
                        }
                    }
                }
                if present + open <= 1 {
                    Ternary::True
                } else {
                    Ternary::Unknown
                }
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
            StepFormula::AtMostOne(es) => out.extend(es.iter().copied()),
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
    /// `And`/`Or`, double-negation elimination, and `True` for an
    /// `AtMostOne` of fewer than two events.
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
            StepFormula::AtMostOne(es) if es.len() < 2 => StepFormula::True,
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
            StepFormula::AtMostOne(es) => {
                let parts: Vec<String> = es.iter().map(|e| e.to_string()).collect();
                write!(f, "≤1({})", parts.join(", "))
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

    /// `at_most_one` and the conjunction of its pairwise clauses agree
    /// on every full assignment of up to 6 events, and on every partial
    /// one (each event unassigned, absent or present).
    #[test]
    fn at_most_one_node_equals_the_pairwise_conjunction() {
        for n in 0..=6usize {
            let events: Vec<EventId> = (0..n).map(EventId::from_index).collect();
            let node = StepFormula::at_most_one(&events);
            let mut pairs = Vec::new();
            for (i, &a) in events.iter().enumerate() {
                for &b in &events[i + 1..] {
                    pairs.push(StepFormula::not(StepFormula::all_of([a, b])));
                }
            }
            let pairwise = StepFormula::And(pairs);
            for code in 0..3usize.pow(n as u32) {
                let (mut assigned, mut value) = (Step::new(), Step::new());
                let mut rest = code;
                for &e in &events {
                    match rest % 3 {
                        0 => {}
                        digit => {
                            assigned.insert(e);
                            if digit == 2 {
                                value.insert(e);
                            }
                        }
                    }
                    rest /= 3;
                }
                let partial = (
                    node.eval_partial(&assigned, &value),
                    pairwise.eval_partial(&assigned, &value),
                );
                assert_eq!(partial.0, partial.1, "{n} events, {assigned} / {value}");
                if assigned.len() == n {
                    assert_eq!(node.eval(&value), pairwise.eval(&value), "{value}");
                }
            }
            let simplified = node.clone().simplify();
            assert_eq!(simplified == StepFormula::True, n < 2);
            assert_eq!(node.events().len(), n);
        }
        let three = StepFormula::at_most_one(&[0, 1, 2].map(EventId::from_index));
        assert_eq!(three.to_string(), "≤1(e0, e1, e2)");
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
