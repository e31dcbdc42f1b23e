//! Bounded behavioural equivalence and refinement between two compiled
//! specifications over one universe.
//!
//! The FinTech constraint-equivalence workload: two different
//! formulations of "the same" timing rules should accept exactly the
//! same schedules. [`check_equivalence`] explores the *synchronized
//! product* of two [`Program`]s — compiled as one product program
//! (both constraint populations conjoined over the shared universe)
//! and run through the engine's **parallel explorer**, so
//! [`EquivOptions::workers`] threads expand each BFS level. At every
//! freshly discovered product state, both sides' cursors are
//! positioned and their acceptable-step sets enumerated over the union
//! of their constrained events; the first mismatch (in canonical absorption
//! order, identical for every worker count) stops the exploration at
//! its level boundary and comes back as a shortest distinguishing
//! schedule. [`check_refinement`] is the one-sided variant (every
//! schedule of the left program is a schedule of the right).

use moccml_engine::{
    Cursor, ExploreOptions, ExploreVisitor, Program, SolverOptions, StateGraph, VisitControl,
};
use moccml_kernel::{EventId, Schedule, Specification, StateKey, Step};
use std::error::Error;
use std::fmt;

/// Errors of the product construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The two programs are built over different universes (different
    /// event names or numbering), so their steps are not comparable.
    UniverseMismatch,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UniverseMismatch => {
                write!(f, "programs are built over different universes")
            }
        }
    }
}

impl Error for VerifyError {}

/// Which side of a comparison a distinguishing step belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The first (`left`) program.
    Left,
    /// The second (`right`) program.
    Right,
}

/// A behavioural difference: after the common `schedule`, exactly one
/// program accepts `step`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distinguisher {
    /// The common prefix, acceptable to both programs.
    pub schedule: Schedule,
    /// The step accepted by only one of them.
    pub step: Step,
    /// Which program accepts `step`.
    pub only_accepted_by: Side,
}

/// The outcome of a bounded product exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivalenceVerdict {
    /// Every reachable state pair (within the bound) agrees on its
    /// acceptable steps; the product space was exhausted.
    Equivalent {
        /// State pairs visited.
        pairs_visited: usize,
    },
    /// The programs differ; a shortest distinguishing schedule.
    Distinguished(Distinguisher),
    /// The bound was hit before a difference was found: unknown.
    Unknown {
        /// State pairs visited before the bound.
        pairs_visited: usize,
    },
}

impl EquivalenceVerdict {
    /// Whether the verdict is [`Equivalent`](EquivalenceVerdict::Equivalent)
    /// (for refinement checks: *refines*).
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, EquivalenceVerdict::Equivalent { .. })
    }
}

/// Options bounding the product exploration.
#[derive(Debug, Clone)]
pub struct EquivOptions {
    /// Stop after this many interned state pairs (verdict becomes
    /// [`Unknown`](EquivalenceVerdict::Unknown) if no difference was
    /// found first).
    pub max_states: usize,
    /// Solver configuration for the per-pair step enumeration
    /// (`include_empty` is ignored: the empty step is acceptable to
    /// every specification and distinguishes nothing).
    pub solver: SolverOptions,
    /// Worker threads expanding each BFS level of the product — the
    /// same knob as [`ExploreOptions::workers`]. Defaults to
    /// [`std::thread::available_parallelism`]; the verdict, including
    /// any [`Distinguisher`], is identical for every value.
    pub workers: usize,
}

impl Default for EquivOptions {
    fn default() -> Self {
        EquivOptions {
            max_states: 100_000,
            solver: SolverOptions::default(),
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl EquivOptions {
    /// Bounds the number of state pairs (builder style).
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Sets the worker-thread count (builder style); `1` runs the
    /// explorer's inline serial path. Any value yields the same
    /// verdict.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// Checks two programs for behavioural equivalence up to
/// `options.max_states` product states: at every reachable pair, both
/// must accept exactly the same non-empty steps over the union of
/// their constrained events (events only one side constrains are free
/// — always allowed — on the other).
///
/// The exploration is deterministic: pairs are visited breadth first
/// and steps in sorted order, so the returned [`Distinguisher`] is a
/// *shortest* distinguishing schedule with the `Ord`-smallest
/// distinguishing step.
///
/// # Errors
///
/// Returns [`VerifyError::UniverseMismatch`] if the programs were
/// compiled over different universes.
///
/// # Example
///
/// ```
/// use moccml_ccsl::{Alternation, Precedence};
/// use moccml_engine::Program;
/// use moccml_kernel::{Specification, Universe};
/// use moccml_verify::{check_equivalence, EquivOptions, Side};
///
/// let mut u = Universe::new();
/// let (a, b) = (u.event("a"), u.event("b"));
/// let mut strict = Specification::new("alt", u.clone());
/// strict.add_constraint(Box::new(Alternation::new("a~b", a, b)));
/// let mut loose = Specification::new("prec", u.clone());
/// loose.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
///
/// let verdict = check_equivalence(
///     &Program::new(strict),
///     &Program::new(loose),
///     &EquivOptions::default(),
/// ).expect("same universe");
/// // the precedence admits a second `a` before any `b`; the
/// // alternation does not
/// let d = match verdict {
///     moccml_verify::EquivalenceVerdict::Distinguished(d) => d,
///     other => panic!("must differ: {other:?}"),
/// };
/// assert_eq!(d.only_accepted_by, Side::Right);
/// ```
pub fn check_equivalence(
    left: &Program,
    right: &Program,
    options: &EquivOptions,
) -> Result<EquivalenceVerdict, VerifyError> {
    product_explore(left, right, options, Mode::Equivalence)
}

/// Checks that `left` *refines* `right`: along every schedule of
/// `left`, each step `left` accepts is also accepted by `right` (the
/// product follows `left`'s steps only). The returned distinguisher,
/// if any, always has
/// [`only_accepted_by`](Distinguisher::only_accepted_by) =
/// [`Side::Left`].
///
/// # Errors
///
/// Returns [`VerifyError::UniverseMismatch`] if the programs were
/// compiled over different universes.
pub fn check_refinement(
    left: &Program,
    right: &Program,
    options: &EquivOptions,
) -> Result<EquivalenceVerdict, VerifyError> {
    product_explore(left, right, options, Mode::Refinement)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Equivalence,
    Refinement,
}

/// The [`ExploreVisitor`] that rides the product exploration: it
/// mirrors the explorer's interning (one `(left key, right key)` pair
/// per product state, derived by firing the absorbed step on both
/// side cursors) and difference-checks every freshly discovered pair
/// in canonical absorption order. The first mismatch stops the BFS at
/// its level boundary — the same deterministic early-stop contract the
/// property checker uses, so the returned [`Distinguisher`] is
/// identical for every worker count. Its schedule is read off the
/// explored graph afterwards.
struct ProductVisitor<'a> {
    lcur: Cursor,
    rcur: Cursor,
    /// `(left key, right key)` per product state index, in interning
    /// order — parallel to the explorer's own state vector.
    pairs: Vec<(StateKey, StateKey)>,
    union: &'a [EventId],
    solver: SolverOptions,
    mode: Mode,
    /// The first difference: product state, step, accepting side.
    violation: Option<(usize, Step, Side)>,
}

impl ProductVisitor<'_> {
    /// Difference-checks product state `pair`, **assuming both side
    /// cursors are already positioned at it**: enumerate their
    /// acceptable steps over the event union, return the first
    /// disagreement. (Callers position the cursors as a side effect of
    /// deriving the pair, so no restore is needed here.)
    fn check_positioned(&mut self, pair: usize) -> Option<(usize, Step, Side)> {
        let ls = self.lcur.acceptable_steps_over(self.union, &self.solver);
        let rs = self.rcur.acceptable_steps_over(self.union, &self.solver);
        first_difference(&ls, &rs, self.mode).map(|(step, side)| (pair, step, side))
    }
}

impl ExploreVisitor for ProductVisitor<'_> {
    fn on_transition(&mut self, source: usize, step: &Step, target: usize, _depth: usize) {
        if target != self.pairs.len() {
            // a previously interned product state: nothing new to learn
            return;
        }
        // fresh state, announced in canonical order with index ==
        // pairs.len(): derive its pair by firing the step on both
        // sides (the product accepts it, so each side does too), which
        // leaves the cursors positioned exactly where the difference
        // check needs them
        let (lkey, rkey) = self.pairs[source].clone();
        self.lcur.restore(&lkey).expect("interned keys restore");
        self.rcur.restore(&rkey).expect("interned keys restore");
        self.lcur
            .fire(step)
            .expect("product steps fire on the left");
        self.rcur
            .fire(step)
            .expect("product steps fire on the right");
        self.pairs
            .push((self.lcur.state_key(), self.rcur.state_key()));
        if self.violation.is_none() {
            self.violation = self.check_positioned(target);
        }
    }

    fn on_level_end(&mut self, _depth: usize, _graph: &StateGraph) -> VisitControl {
        if self.violation.is_some() {
            VisitControl::Stop
        } else {
            VisitControl::Continue
        }
    }
}

fn product_explore(
    left: &Program,
    right: &Program,
    options: &EquivOptions,
    mode: Mode,
) -> Result<EquivalenceVerdict, VerifyError> {
    if left.specification().universe() != right.specification().universe() {
        return Err(VerifyError::UniverseMismatch);
    }
    // compare over the union of constrained events: an event only one
    // side constrains is free on the other, and `Step` collects the
    // union as a sorted, deduplicated bitset
    let union: Vec<EventId> = {
        let mut all: Step = left.constrained_events().iter().copied().collect();
        all.extend(right.constrained_events().iter().copied());
        all.iter().collect()
    };
    let solver = options.solver.clone().with_empty(false);

    // the synchronized product as one compiled program: both
    // constraint populations conjoined over the shared universe. Its
    // acceptable steps are exactly the steps *both* sides accept —
    // which, at every difference-free pair, are exactly the successor
    // steps the serial pair-BFS followed (equivalence: ls == rs;
    // refinement: ls ⊆ rs, so the intersection is ls). Exploring it
    // therefore visits the same pairs, now across worker threads.
    let mut product = Specification::new("product", left.specification().universe().clone());
    for side in [left.specification(), right.specification()] {
        for i in 0..side.constraint_count() {
            product.share_constraint(side, i);
        }
    }
    let product = Program::new(product);

    let mut visitor = ProductVisitor {
        lcur: left.cursor(),
        rcur: right.cursor(),
        pairs: vec![(left.template_key().clone(), right.template_key().clone())],
        union: &union,
        solver: solver.clone(),
        mode,
        violation: None,
    };
    let distinguished = |schedule, (_, step, side)| {
        EquivalenceVerdict::Distinguished(Distinguisher {
            schedule,
            step,
            only_accepted_by: side,
        })
    };
    // the root pair is discovered by construction, not by transition:
    // check it before exploring (the fresh cursors already sit at it)
    if let Some(root) = visitor.check_positioned(0) {
        return Ok(distinguished(Schedule::new(), root));
    }
    let explore_options = ExploreOptions::default()
        .with_max_states(options.max_states)
        .with_solver(solver)
        .with_workers(options.workers);
    let space = product.explore_with(&explore_options, &mut visitor);
    if let Some(found) = visitor.violation {
        return Ok(distinguished(space.graph().schedule_to(found.0), found));
    }
    let pairs_visited = space.state_count();
    Ok(if space.truncated() {
        EquivalenceVerdict::Unknown { pairs_visited }
    } else {
        EquivalenceVerdict::Equivalent { pairs_visited }
    })
}

/// First step on which the sorted step sets disagree, with the side
/// that accepts it. In refinement mode only `left`-only steps count.
fn first_difference(ls: &[Step], rs: &[Step], mode: Mode) -> Option<(Step, Side)> {
    let (mut i, mut j) = (0, 0);
    while i < ls.len() && j < rs.len() {
        match ls[i].cmp(&rs[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                return Some((ls[i].clone(), Side::Left));
            }
            std::cmp::Ordering::Greater => {
                if mode == Mode::Equivalence {
                    return Some((rs[j].clone(), Side::Right));
                }
                j += 1;
            }
        }
    }
    if i < ls.len() {
        return Some((ls[i].clone(), Side::Left));
    }
    if j < rs.len() && mode == Mode::Equivalence {
        return Some((rs[j].clone(), Side::Right));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use moccml_ccsl::{Alternation, Coincidence, Precedence, SubClock};
    use moccml_kernel::{Specification, Universe};
    use std::sync::Arc;

    fn program_with(u: &Universe, build: impl FnOnce(&mut Specification)) -> Arc<Program> {
        let mut spec = Specification::new("spec", u.clone());
        build(&mut spec);
        Program::new(spec)
    }

    #[test]
    fn identical_specs_are_equivalent() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let p1 = program_with(&u, |s| {
            s.add_constraint(Box::new(Alternation::new("x", a, b)));
        });
        let p2 = program_with(&u, |s| {
            s.add_constraint(Box::new(Alternation::new("y", a, b)));
        });
        let verdict = check_equivalence(&p1, &p2, &EquivOptions::default()).expect("same universe");
        assert!(verdict.holds());
    }

    #[test]
    fn syntactically_different_equivalent_formulations() {
        // a ⊆ b expressed as a sub-clock vs. as a coincidence of a with
        // a∩b — here simply: subclock(a,b) vs subclock(a,b) conjoined
        // with a tautological second subclock
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let p1 = program_with(&u, |s| {
            s.add_constraint(Box::new(SubClock::new("one", a, b)));
        });
        let p2 = program_with(&u, |s| {
            s.add_constraint(Box::new(SubClock::new("one", a, b)));
            s.add_constraint(Box::new(SubClock::new("again", a, b)));
        });
        let verdict = check_equivalence(&p1, &p2, &EquivOptions::default()).expect("same universe");
        assert!(verdict.holds());
    }

    #[test]
    fn distinguishing_schedule_is_shortest_and_replayable() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let alt = program_with(&u, |s| {
            s.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        });
        let prec = program_with(&u, |s| {
            s.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        });
        let verdict =
            check_equivalence(&alt, &prec, &EquivOptions::default()).expect("same universe");
        let EquivalenceVerdict::Distinguished(d) = verdict else {
            panic!("alternation ≠ precedence");
        };
        // after `a`, the precedence also allows another `a` (and {a,b});
        // the distinguishing prefix is the single step {a}
        assert_eq!(d.schedule.len(), 1);
        assert_eq!(d.only_accepted_by, Side::Right);
        // the prefix replays on both, prefix+step only on the right
        assert!(crate::conformance(&alt, &d.schedule).conforms());
        let mut extended = d.schedule.clone();
        extended.push(d.step.clone());
        assert!(!crate::conformance(&alt, &extended).conforms());
        assert!(crate::conformance(&prec, &extended).conforms());
    }

    #[test]
    fn refinement_is_one_sided() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let alt = program_with(&u, |s| {
            s.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        });
        let prec = program_with(&u, |s| {
            s.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        });
        // every alternating schedule respects the precedence…
        assert!(check_refinement(&alt, &prec, &EquivOptions::default())
            .expect("same universe")
            .holds());
        // …but not vice versa
        let verdict =
            check_refinement(&prec, &alt, &EquivOptions::default()).expect("same universe");
        let EquivalenceVerdict::Distinguished(d) = verdict else {
            panic!("precedence does not refine alternation");
        };
        assert_eq!(d.only_accepted_by, Side::Left);
    }

    #[test]
    fn events_constrained_on_one_side_only_distinguish() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let constrained = program_with(&u, |s| {
            s.add_constraint(Box::new(Coincidence::new("a=b", a, b)));
        });
        let free = program_with(&u, |_| {});
        let verdict = check_equivalence(&constrained, &free, &EquivOptions::default())
            .expect("same universe");
        let EquivalenceVerdict::Distinguished(d) = verdict else {
            panic!("free universe accepts {{a}} alone");
        };
        assert!(d.schedule.is_empty());
        assert_eq!(d.only_accepted_by, Side::Right);
    }

    #[test]
    fn unbounded_product_reports_unknown() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let p1 = program_with(&u, |s| {
            s.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        });
        let p2 = program_with(&u, |s| {
            s.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        });
        let verdict = check_equivalence(&p1, &p2, &EquivOptions::default().with_max_states(8))
            .expect("same universe");
        assert_eq!(verdict, EquivalenceVerdict::Unknown { pairs_visited: 8 });
    }

    #[test]
    fn verdicts_are_identical_for_every_worker_count() {
        // the product of the alternation and the bounded precedence is
        // distinguished a few levels deep; every worker count must
        // return the *same* shortest distinguisher — and the same
        // Equivalent/Unknown verdicts on the agreeing pairs
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let alt = program_with(&u, |s| {
            s.add_constraint(Box::new(Alternation::new("a~b", a, b)));
            s.add_constraint(Box::new(Precedence::strict("b<c", b, c).with_bound(3)));
        });
        let prec = program_with(&u, |s| {
            s.add_constraint(Box::new(Precedence::strict("a<b", a, b).with_bound(1)));
            s.add_constraint(Box::new(Precedence::strict("b<c", b, c).with_bound(3)));
        });
        let serial = check_equivalence(&alt, &prec, &EquivOptions::default().with_workers(1))
            .expect("same universe");
        assert!(
            matches!(serial, EquivalenceVerdict::Distinguished(_)),
            "{serial:?}"
        );
        for workers in [2, 8] {
            let parallel =
                check_equivalence(&alt, &prec, &EquivOptions::default().with_workers(workers))
                    .expect("same universe");
            assert_eq!(serial, parallel, "workers={workers}");
        }
        // refinement through the same parallel product
        let serial = check_refinement(&prec, &alt, &EquivOptions::default().with_workers(1))
            .expect("same universe");
        for workers in [2, 8] {
            let parallel =
                check_refinement(&prec, &alt, &EquivOptions::default().with_workers(workers))
                    .expect("same universe");
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn equivalent_verdicts_agree_across_workers_and_bounds() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let p1 = program_with(&u, |s| {
            s.add_constraint(Box::new(Precedence::strict("a<b", a, b).with_bound(2)));
        });
        let p2 = program_with(&u, |s| {
            s.add_constraint(Box::new(Precedence::strict("a<b2", a, b).with_bound(2)));
        });
        let serial = check_equivalence(&p1, &p2, &EquivOptions::default().with_workers(1))
            .expect("same universe");
        let EquivalenceVerdict::Equivalent { pairs_visited } = serial else {
            panic!("identical bounded precedences are equivalent");
        };
        assert_eq!(pairs_visited, 3); // δ-pairs (0,0), (1,1), (2,2)
        for workers in [2, 8] {
            assert_eq!(
                check_equivalence(&p1, &p2, &EquivOptions::default().with_workers(workers))
                    .expect("same universe"),
                serial,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn universe_mismatch_is_rejected() {
        let mut u1 = Universe::new();
        u1.event("a");
        let mut u2 = Universe::new();
        u2.event("different");
        let p1 = Program::new(Specification::new("one", u1));
        let p2 = Program::new(Specification::new("two", u2));
        assert_eq!(
            check_equivalence(&p1, &p2, &EquivOptions::default()),
            Err(VerifyError::UniverseMismatch)
        );
    }
}
