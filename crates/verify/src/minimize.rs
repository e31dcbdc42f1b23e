//! Greedy counterexample minimization: shrink a witness schedule step
//! by step — dropping whole steps and thinning events out of steps —
//! while re-validating every candidate through a fresh
//! [`Cursor`](moccml_engine::Cursor), until the witness is *locally
//! minimal*: no single step can be dropped and no single event removed
//! without the schedule ceasing to witness the violation.
//!
//! The checker's counterexamples are already *shortest* (BFS order),
//! but shortest is not minimal: a violating step found on a wide
//! frontier often carries unrelated simultaneous events, and hand-fed
//! witnesses (conformance logs, regression fixtures) may contain slack
//! in both dimensions. Minimization never changes the verdict — a
//! candidate only replaces the current witness if [`is_witness`] holds
//! for it.

use crate::check::Counterexample;
use crate::conformance::{conformance, Verdict};
use crate::prop::Prop;
use crate::temporal::{TraceEvaluator, TraceStatus};
use moccml_engine::{Program, SolverOptions};
use moccml_kernel::Schedule;

/// Whether `schedule` genuinely witnesses a violation of `prop` on
/// `program`: every step is non-empty (properties quantify over the
/// explorer's non-stuttering runs — an all-stuttering "run" would
/// vacuously refute any bounded liveness property), it replays
/// cleanly through a fresh cursor from the initial state, *and* it
/// exhibits the violation —
///
/// * [`Prop::Always`]\(p\): some step refutes `p`;
/// * [`Prop::Never`]\(p\): some step satisfies `p`;
/// * [`Prop::DeadlockFree`]: the reached state has no acceptable
///   non-empty step;
/// * the bounded-temporal properties ([`Prop::EventuallyWithin`],
///   [`Prop::UntilWithin`], [`Prop::ReleaseWithin`]) are decided by
///   the shared [`TraceEvaluator`] — the same per-step classification
///   the exhaustive checker and the statistical checker use. For
///   `eventually<=k(p)` that means: the first `k` steps are `p`-free
///   (steps past the bound are irrelevant — the run already missed
///   it), **or** the whole schedule is `p`-free, shorter than `k`,
///   and ends in a deadlock (the run can never satisfy `p`). For
///   `until<=k(p, q)` add the third witness shape: a step refuting
///   both `p` and `q` before any `q`-step. For `release<=k(p, q)` the
///   only witness shape is a step refuting `q` while the obligation
///   is open.
///
/// This is the re-validation predicate minimization shrinks against;
/// it is also useful on its own to vet externally supplied witnesses.
#[must_use]
pub fn is_witness(program: &Program, prop: &Prop, schedule: &Schedule) -> bool {
    if schedule.iter().any(moccml_kernel::Step::is_empty) {
        return false;
    }
    if conformance(program, schedule) != Verdict::Conforms {
        return false;
    }
    match prop {
        Prop::Always(p) => schedule.iter().any(|s| !p.eval(s)),
        Prop::Never(p) => schedule.iter().any(|s| p.eval(s)),
        Prop::DeadlockFree => reaches_deadlock(program, schedule),
        Prop::EventuallyWithin(..) | Prop::UntilWithin(..) | Prop::ReleaseWithin(..) => {
            let mut eval = TraceEvaluator::new(prop);
            for step in schedule {
                match eval.observe(step) {
                    TraceStatus::Violated => return true,
                    TraceStatus::Satisfied => return false,
                    TraceStatus::Undecided => {}
                }
            }
            // undecided by the steps alone: an open liveness
            // obligation is violated exactly when the run is wedged
            eval.conclude(reaches_deadlock(program, schedule))
        }
    }
}

/// Replays `schedule` (assumed conforming) and reports whether the
/// reached state is a deadlock.
fn reaches_deadlock(program: &Program, schedule: &Schedule) -> bool {
    let mut cursor = program.cursor();
    for step in schedule {
        if cursor.fire(step).is_err() {
            return false;
        }
    }
    cursor
        .acceptable_steps(&SolverOptions::default())
        .is_empty()
}

/// Greedily minimizes a witness schedule for `prop` on `program`:
/// repeatedly tries to drop each step and to remove each event from
/// each step, keeping a candidate only if it still
/// [`is_witness`]-validates, until a fixpoint. The result is *locally
/// minimal*: dropping any single step, or removing any single event
/// from any step, yields a non-witness.
///
/// If `schedule` does not witness the violation in the first place it
/// is returned unchanged — minimization never turns a non-witness
/// into a witness.
///
/// Deterministic: candidates are tried first-to-last, so equal inputs
/// minimize to equal outputs (the property suite checks this across
/// worker counts).
///
/// # Example
///
/// ```
/// use moccml_ccsl::Alternation;
/// use moccml_engine::Program;
/// use moccml_kernel::{Schedule, Specification, StepPred, Universe};
/// use moccml_verify::{is_witness, minimize_witness, Prop};
///
/// let mut u = Universe::new();
/// let (a, b) = (u.event("a"), u.event("b"));
/// let c = u.event("free"); // unconstrained noise event
/// let mut spec = Specification::new("alt", u.clone());
/// spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
/// let program = Program::new(spec);
///
/// // a sloppy witness that `b` eventually fires: noise event, slack
/// // round trip, then the violating step
/// let prop = Prop::Never(StepPred::fired(b));
/// let sloppy = Schedule::parse_lines("a free\nb\na\nb free\n", &u).expect("parses");
/// assert!(is_witness(&program, &prop, &sloppy));
/// let minimal = minimize_witness(&program, &prop, &sloppy);
/// assert_eq!(minimal, Schedule::parse_lines("a\nb\n", &u).expect("parses"));
/// ```
#[must_use]
pub fn minimize_witness(program: &Program, prop: &Prop, schedule: &Schedule) -> Schedule {
    if !is_witness(program, prop, schedule) {
        return schedule.clone();
    }
    let mut current: Vec<_> = schedule.steps().to_vec();
    loop {
        let mut shrunk = false;
        // pass 1: drop whole steps, first to last
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            let candidate_schedule: Schedule = candidate.iter().cloned().collect();
            if is_witness(program, prop, &candidate_schedule) {
                current = candidate;
                shrunk = true;
                // re-try the same index: it now holds the next step
            } else {
                i += 1;
            }
        }
        // pass 2: thin events out of steps, first step / lowest event
        // first
        for i in 0..current.len() {
            let events: Vec<_> = current[i].iter().collect();
            for event in events {
                let mut step = current[i].clone();
                step.remove(event);
                let mut candidate = current.clone();
                candidate[i] = step;
                let candidate_schedule: Schedule = candidate.iter().cloned().collect();
                if is_witness(program, prop, &candidate_schedule) {
                    current = candidate;
                    shrunk = true;
                }
            }
        }
        if !shrunk {
            return current.into_iter().collect();
        }
    }
}

impl Counterexample {
    /// The locally minimal form of this counterexample's schedule —
    /// [`minimize_witness`] applied to it.
    #[must_use]
    pub fn minimized(&self, program: &Program, prop: &Prop) -> Schedule {
        minimize_witness(program, prop, &self.schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_props, PropStatus};
    use moccml_ccsl::{Alternation, Precedence};
    use moccml_engine::ExploreOptions;
    use moccml_kernel::{Specification, Step, StepPred, Universe};

    /// An exhaustive check of `prop` alone.
    fn check(program: &Program, prop: &Prop) -> PropStatus {
        let props = std::slice::from_ref(prop);
        check_props(program, props, &ExploreOptions::default())
            .statuses
            .remove(0)
    }

    #[test]
    fn non_witnesses_are_returned_unchanged() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        let program = Program::new(spec);
        let prop = Prop::Never(StepPred::fired(b));
        // does not replay (b first) — returned as-is
        let bogus: Schedule = vec![Step::from_events([b])].into_iter().collect();
        assert!(!is_witness(&program, &prop, &bogus));
        assert_eq!(minimize_witness(&program, &prop, &bogus), bogus);
    }

    #[test]
    fn checker_counterexamples_are_already_locally_minimal() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        let program = Program::new(spec);
        let prop = Prop::Never(StepPred::fired(b));
        let PropStatus::Violated(ce) = check(&program, &prop) else {
            panic!("b fires at depth 2");
        };
        assert_eq!(ce.minimized(&program, &prop), ce.schedule);
    }

    #[test]
    fn deadlock_witnesses_keep_the_wedging_prefix() {
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("wedge", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b).with_bound(1)));
        spec.add_constraint(Box::new(Precedence::strict("c<b", c, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<c", b, c)));
        let program = Program::new(spec);
        let PropStatus::Violated(ce) = check(&program, &Prop::DeadlockFree) else {
            panic!("wedges after a");
        };
        let minimal = ce.minimized(&program, &Prop::DeadlockFree);
        assert!(is_witness(&program, &Prop::DeadlockFree, &minimal));
        assert_eq!(minimal.len(), 1, "the single `a` step is the wedge");
    }

    #[test]
    fn liveness_witnesses_with_slack_past_the_bound_truncate() {
        // a hand-fed trace that satisfies the predicate only *after*
        // the bound still witnesses the violation — the run already
        // missed it — and minimization truncates the irrelevant tail
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("lazy", u.clone());
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let program = Program::new(spec);
        let prop = Prop::EventuallyWithin(StepPred::fired(b), 1);
        let sloppy: Schedule = vec![Step::from_events([a]), Step::from_events([b])]
            .into_iter()
            .collect();
        assert!(
            is_witness(&program, &prop, &sloppy),
            "the b-free length-1 prefix misses the bound"
        );
        let minimal = minimize_witness(&program, &prop, &sloppy);
        assert_eq!(minimal.len(), 1);
        assert!(minimal.steps()[0].contains(a));
    }

    #[test]
    fn until_and_release_witnesses_minimize_and_revalidate() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        let program = Program::new(spec);
        // until: the b step refutes both the sustain (a) and a goal
        // that never fires
        let until = Prop::UntilWithin(
            StepPred::fired(a),
            StepPred::and(StepPred::fired(a), StepPred::fired(b)),
            5,
        );
        let PropStatus::Violated(ce) = check(&program, &until) else {
            panic!("a ; b breaks the sustain");
        };
        let minimal = ce.minimized(&program, &until);
        assert!(is_witness(&program, &until, &minimal));
        assert_eq!(minimal.len(), 2, "a ; b is already minimal");
        // release: same violating shape through the safety flavor
        let release = Prop::ReleaseWithin(StepPred::fired(b), StepPred::fired(a), 5);
        let PropStatus::Violated(ce) = check(&program, &release) else {
            panic!("the b step refutes the sustained a");
        };
        let minimal = ce.minimized(&program, &release);
        assert!(is_witness(&program, &release, &minimal));
        assert_eq!(minimal.len(), 2);
    }

    #[test]
    fn liveness_witnesses_never_shrink_below_the_bound() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("lazy", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let program = Program::new(spec);
        let prop = Prop::EventuallyWithin(StepPred::fired(b), 3);
        let PropStatus::Violated(ce) = check(&program, &prop) else {
            panic!("a a a avoids b");
        };
        let minimal = ce.minimized(&program, &prop);
        assert!(minimal.len() >= 3, "length-bound witnesses keep >= k steps");
        assert!(is_witness(&program, &prop, &minimal));
    }
}
