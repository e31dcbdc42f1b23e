//! The shared bounded-temporal core: one semantics for
//! `EventuallyWithin`, `UntilWithin` and `ReleaseWithin`, consumed by
//! both the exhaustive checker's level-synchronized monitor
//! (`check.rs`) and the per-trace [`TraceEvaluator`] the statistical
//! model checker samples with.
//!
//! Every bounded-temporal property reduces to one *obligation* that is
//! open at the initial state and is resolved by classifying each step
//! of a run ([`TemporalSpec::classify`]):
//!
//! * [`StepClass::Discharge`] — the step fulfils the obligation; the
//!   rest of the run is unconstrained.
//! * [`StepClass::Carry`] — the step is consistent with the obligation
//!   staying open; the next step is classified in turn.
//! * [`StepClass::Violate`] — the step refutes the property outright.
//!
//! What happens when a run exhausts the bound `k`, or deadlocks, with
//! the obligation still open depends on the flavor: the *liveness*
//! properties (`eventually<=k`, `until<=k`) are violated — the
//! obligated step can no longer arrive in time — while the *safety*
//! property (`release<=k`) is discharged. Having exactly one
//! classification function keeps the exhaustive verdict and the
//! per-trace verdict definitionally identical, which is what lets the
//! statistical checker's witnesses re-validate through
//! [`is_witness`](crate::is_witness) and the exhaustive minimizer.

use crate::prop::Prop;
use moccml_kernel::{Step, StepPred};

/// How one step of a run relates to an open bounded-temporal
/// obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepClass {
    /// The obligation is fulfilled by this step.
    Discharge,
    /// The obligation stays open past this step.
    Carry,
    /// The property is violated by this step.
    Violate,
}

/// The flavor of a bounded-temporal obligation: what expiry (bound
/// reached) and deadlock mean while it is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TemporalKind {
    /// `eventually<=k` / `until<=k`: liveness — expiry and deadlock
    /// with the obligation open are violations.
    Until,
    /// `release<=k`: safety — expiry and deadlock discharge the
    /// obligation.
    Release,
}

/// One compiled bounded-temporal obligation: the single semantic core
/// behind `EventuallyWithin`, `UntilWithin` and `ReleaseWithin`.
#[derive(Debug, Clone)]
pub(crate) struct TemporalSpec {
    kind: TemporalKind,
    /// Predicate every step must satisfy while the obligation is open:
    /// `p` for `until<=k(p, q)` (`None` = ⊤ for `eventually<=k`), `q`
    /// for `release<=k(p, q)`.
    sustain: Option<StepPred>,
    /// Predicate whose occurrence discharges the obligation: `q` for
    /// `until<=k(p, q)` / `eventually<=k(q)`, `p` for
    /// `release<=k(p, q)`.
    fulfil: StepPred,
    /// Step bound `k`.
    bound: usize,
}

impl TemporalSpec {
    /// Compiles a bounded-temporal [`Prop`] variant; `None` for the
    /// safety/deadlock variants, which have no obligation to track.
    pub(crate) fn from_prop(prop: &Prop) -> Option<TemporalSpec> {
        match prop {
            Prop::EventuallyWithin(q, k) => Some(TemporalSpec {
                kind: TemporalKind::Until,
                sustain: None,
                fulfil: q.clone(),
                bound: *k,
            }),
            Prop::UntilWithin(p, q, k) => Some(TemporalSpec {
                kind: TemporalKind::Until,
                sustain: Some(p.clone()),
                fulfil: q.clone(),
                bound: *k,
            }),
            Prop::ReleaseWithin(p, q, k) => Some(TemporalSpec {
                kind: TemporalKind::Release,
                sustain: Some(q.clone()),
                fulfil: p.clone(),
                bound: *k,
            }),
            Prop::Always(_) | Prop::Never(_) | Prop::DeadlockFree => None,
        }
    }

    /// The step bound `k`.
    pub(crate) fn bound(&self) -> usize {
        self.bound
    }

    /// Whether expiry/deadlock with the obligation open violates the
    /// property (the liveness flavors).
    pub(crate) fn liveness(&self) -> bool {
        self.kind == TemporalKind::Until
    }

    /// Classifies one step against the open obligation.
    ///
    /// `until` checks fulfilment first (the `q`-step itself need not
    /// satisfy `p` — "strictly before" semantics); `release` checks
    /// the sustained `q` first (the discharging `p`-step must still
    /// satisfy `q` — "until and including" semantics).
    pub(crate) fn classify(&self, step: &Step) -> StepClass {
        match self.kind {
            TemporalKind::Until => {
                if self.fulfil.eval(step) {
                    StepClass::Discharge
                } else if self.sustain.as_ref().is_none_or(|p| p.eval(step)) {
                    StepClass::Carry
                } else {
                    StepClass::Violate
                }
            }
            TemporalKind::Release => {
                let q = self.sustain.as_ref().expect("release sustains q");
                if !q.eval(step) {
                    StepClass::Violate
                } else if self.fulfil.eval(step) {
                    StepClass::Discharge
                } else {
                    StepClass::Carry
                }
            }
        }
    }
}

/// The running verdict of a [`TraceEvaluator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStatus {
    /// The bounded run seen so far neither violates nor definitively
    /// satisfies the property.
    Undecided,
    /// The property is violated on this run — the violation is a
    /// *prefix* property, so the schedule up to and including the
    /// deciding step is an [`is_witness`](crate::is_witness)-valid
    /// witness.
    Violated,
    /// The property can no longer be violated on any extension of this
    /// run.
    Satisfied,
}

/// Evaluates one [`Prop`] along one concrete run, step by step — the
/// per-trace half of the shared bounded-temporal monitor core, and the
/// verdict source of the statistical model checker.
///
/// Feed every fired step to [`observe`](TraceEvaluator::observe); when
/// the run ends (deadlock or truncation), call
/// [`conclude`](TraceEvaluator::conclude) for the final verdict. The
/// bounded-run semantics agree with the exhaustive checker: a run
/// violates the property iff its schedule (cut at the deciding step)
/// is accepted by [`is_witness`](crate::is_witness).
///
/// # Example
///
/// ```
/// use moccml_kernel::{Step, StepPred, Universe};
/// use moccml_verify::{Prop, TraceEvaluator, TraceStatus};
///
/// let mut u = Universe::new();
/// let (a, b) = (u.event("a"), u.event("b"));
/// let prop = Prop::UntilWithin(StepPred::fired(a), StepPred::fired(b), 3);
/// let mut eval = TraceEvaluator::new(&prop);
/// let step_a: Step = [a].into_iter().collect();
/// let step_b: Step = [b].into_iter().collect();
/// assert_eq!(eval.observe(&step_a), TraceStatus::Undecided);
/// assert_eq!(eval.observe(&step_b), TraceStatus::Satisfied);
/// assert!(!eval.conclude(false), "a ; b fulfils the until");
/// ```
#[derive(Debug, Clone)]
pub struct TraceEvaluator {
    kind: EvalKind,
    steps: usize,
    status: TraceStatus,
}

#[derive(Debug, Clone)]
enum EvalKind {
    /// `Always(pred)` (and `Never(p)` as `Always(¬p)`): violated by
    /// the first step refuting `pred`.
    Safety { pred: StepPred },
    /// Violated iff the run deadlocks.
    DeadlockFree,
    /// A bounded-temporal obligation.
    Temporal(TemporalSpec),
}

impl TraceEvaluator {
    /// Compiles `prop` into a fresh evaluator positioned at the start
    /// of a run.
    #[must_use]
    pub fn new(prop: &Prop) -> TraceEvaluator {
        let kind = match prop {
            Prop::Always(p) => EvalKind::Safety { pred: p.clone() },
            Prop::Never(p) => EvalKind::Safety {
                pred: StepPred::negate(p.clone()),
            },
            Prop::DeadlockFree => EvalKind::DeadlockFree,
            temporal => EvalKind::Temporal(
                TemporalSpec::from_prop(temporal).expect("remaining variants are temporal"),
            ),
        };
        let mut eval = TraceEvaluator {
            kind,
            steps: 0,
            status: TraceStatus::Undecided,
        };
        eval.reset();
        eval
    }

    /// Rewinds the evaluator to the start of a run, as
    /// [`new`](TraceEvaluator::new) left it: a statistical checker
    /// reuses one evaluator per property for every trace.
    pub fn reset(&mut self) {
        self.steps = 0;
        self.status = TraceStatus::Undecided;
        // a zero bound resolves before any step: unsatisfiable for the
        // liveness flavors, trivially satisfied for release
        if let EvalKind::Temporal(spec) = &self.kind {
            if spec.bound() == 0 {
                self.status = if spec.liveness() {
                    TraceStatus::Violated
                } else {
                    TraceStatus::Satisfied
                };
            }
        }
    }

    /// The verdict so far.
    #[must_use]
    pub fn status(&self) -> TraceStatus {
        self.status
    }

    /// Number of steps observed so far; once the status is decided,
    /// the steps up to this count form the deciding schedule prefix.
    #[must_use]
    pub fn steps_observed(&self) -> usize {
        self.steps
    }

    /// Feeds the next fired step of the run; returns the (possibly
    /// newly decided) status. Steps observed after a decision do not
    /// change it.
    pub fn observe(&mut self, step: &Step) -> TraceStatus {
        if self.status != TraceStatus::Undecided {
            return self.status;
        }
        self.steps += 1;
        match &self.kind {
            EvalKind::Safety { pred } => {
                if !pred.eval(step) {
                    self.status = TraceStatus::Violated;
                }
            }
            EvalKind::DeadlockFree => {}
            EvalKind::Temporal(spec) => {
                match spec.classify(step) {
                    StepClass::Discharge => self.status = TraceStatus::Satisfied,
                    StepClass::Violate => self.status = TraceStatus::Violated,
                    StepClass::Carry => {
                        // the obligation survived this step; expiry at
                        // the bound resolves it
                        if self.steps == spec.bound() {
                            self.status = if spec.liveness() {
                                TraceStatus::Violated
                            } else {
                                TraceStatus::Satisfied
                            };
                        }
                    }
                }
            }
        }
        self.status
    }

    /// Ends the run (`deadlocked` tells a maximal run from a truncated
    /// one) and returns whether the property is **violated** on it.
    ///
    /// An undecided safety/release run is not violated (the predicate
    /// held on every observed step); an undecided liveness obligation
    /// is violated only if the run deadlocked — a truncated run could
    /// still have fulfilled it, and counts as conforming under the
    /// bounded-run semantics.
    pub fn conclude(&mut self, deadlocked: bool) -> bool {
        if self.status == TraceStatus::Undecided {
            self.status = match &self.kind {
                EvalKind::DeadlockFree if deadlocked => TraceStatus::Violated,
                EvalKind::Temporal(spec) if spec.liveness() && deadlocked => TraceStatus::Violated,
                _ => TraceStatus::Satisfied,
            };
        }
        self.status == TraceStatus::Violated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moccml_kernel::Universe;

    fn step(events: &[moccml_kernel::EventId]) -> Step {
        events.iter().copied().collect()
    }

    #[test]
    fn until_discharges_carries_and_violates() {
        let mut u = Universe::new();
        let (p, q, x) = (u.event("p"), u.event("q"), u.event("x"));
        let spec = TemporalSpec::from_prop(&Prop::UntilWithin(
            StepPred::fired(p),
            StepPred::fired(q),
            5,
        ))
        .expect("temporal");
        assert_eq!(spec.classify(&step(&[q])), StepClass::Discharge);
        // the q-step need not satisfy p
        assert_eq!(spec.classify(&step(&[q, x])), StepClass::Discharge);
        assert_eq!(spec.classify(&step(&[p])), StepClass::Carry);
        assert_eq!(spec.classify(&step(&[x])), StepClass::Violate);
    }

    #[test]
    fn release_requires_q_on_the_discharging_step() {
        let mut u = Universe::new();
        let (p, q) = (u.event("p"), u.event("q"));
        let spec = TemporalSpec::from_prop(&Prop::ReleaseWithin(
            StepPred::fired(p),
            StepPred::fired(q),
            5,
        ))
        .expect("temporal");
        assert_eq!(spec.classify(&step(&[q])), StepClass::Carry);
        assert_eq!(spec.classify(&step(&[p, q])), StepClass::Discharge);
        // p without q is a violation, not a discharge
        assert_eq!(spec.classify(&step(&[p])), StepClass::Violate);
    }

    #[test]
    fn eventually_is_until_with_top() {
        let mut u = Universe::new();
        let (q, x) = (u.event("q"), u.event("x"));
        let spec = TemporalSpec::from_prop(&Prop::EventuallyWithin(StepPred::fired(q), 3))
            .expect("temporal");
        assert_eq!(spec.classify(&step(&[q])), StepClass::Discharge);
        assert_eq!(spec.classify(&step(&[x])), StepClass::Carry);
    }

    #[test]
    fn trace_evaluator_expires_liveness_at_the_bound() {
        let mut u = Universe::new();
        let (q, x) = (u.event("q"), u.event("x"));
        let prop = Prop::EventuallyWithin(StepPred::fired(q), 2);
        let mut eval = TraceEvaluator::new(&prop);
        assert_eq!(eval.observe(&step(&[x])), TraceStatus::Undecided);
        assert_eq!(eval.observe(&step(&[x])), TraceStatus::Violated);
        assert!(eval.conclude(false));
        assert_eq!(eval.steps_observed(), 2);
    }

    #[test]
    fn trace_evaluator_expires_release_satisfied() {
        let mut u = Universe::new();
        let (p, q) = (u.event("p"), u.event("q"));
        let prop = Prop::ReleaseWithin(StepPred::fired(p), StepPred::fired(q), 2);
        let mut eval = TraceEvaluator::new(&prop);
        assert_eq!(eval.observe(&step(&[q])), TraceStatus::Undecided);
        assert_eq!(eval.observe(&step(&[q])), TraceStatus::Satisfied);
        assert!(!eval.conclude(false));
    }

    #[test]
    fn deadlock_wedges_open_liveness_but_not_release() {
        let mut u = Universe::new();
        let (p, q) = (u.event("p"), u.event("q"));
        let until = Prop::UntilWithin(StepPred::fired(p), StepPred::fired(q), 9);
        let mut eval = TraceEvaluator::new(&until);
        eval.observe(&step(&[p]));
        assert!(eval.conclude(true), "deadlock while obligated");
        let release = Prop::ReleaseWithin(StepPred::fired(p), StepPred::fired(q), 9);
        let mut eval = TraceEvaluator::new(&release);
        eval.observe(&step(&[q]));
        assert!(!eval.conclude(true), "release is safety");
    }

    #[test]
    fn truncation_leaves_liveness_unviolated() {
        let mut u = Universe::new();
        let q = u.event("q");
        let x = u.event("x");
        let mut eval = TraceEvaluator::new(&Prop::EventuallyWithin(StepPred::fired(q), 10));
        eval.observe(&step(&[x]));
        assert!(!eval.conclude(false), "truncated runs count as conforming");
    }

    #[test]
    fn zero_bounds_resolve_immediately() {
        let mut u = Universe::new();
        let q = u.event("q");
        let ev = TraceEvaluator::new(&Prop::EventuallyWithin(StepPred::fired(q), 0));
        assert_eq!(ev.status(), TraceStatus::Violated);
        let rel = TraceEvaluator::new(&Prop::ReleaseWithin(
            StepPred::fired(q),
            StepPred::fired(q),
            0,
        ));
        assert_eq!(rel.status(), TraceStatus::Satisfied);
    }

    #[test]
    fn reset_rewinds_to_a_fresh_evaluator() {
        let mut u = Universe::new();
        let (p, q) = (u.event("p"), u.event("q"));
        let props = [
            Prop::UntilWithin(StepPred::fired(p), StepPred::fired(q), 2),
            Prop::EventuallyWithin(StepPred::fired(q), 0),
            Prop::Never(StepPred::fired(q)),
        ];
        for prop in &props {
            let mut reused = TraceEvaluator::new(prop);
            reused.observe(&step(&[q]));
            reused.observe(&step(&[p]));
            reused.conclude(true);
            reused.reset();
            let mut fresh = TraceEvaluator::new(prop);
            assert_eq!(reused.status(), fresh.status());
            assert_eq!(reused.steps_observed(), 0);
            for s in [step(&[p]), step(&[p]), step(&[q])] {
                assert_eq!(reused.observe(&s), fresh.observe(&s));
            }
        }
    }

    #[test]
    fn safety_and_deadlock_per_trace() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut never = TraceEvaluator::new(&Prop::Never(StepPred::fired(b)));
        assert_eq!(never.observe(&step(&[a])), TraceStatus::Undecided);
        assert_eq!(never.observe(&step(&[b])), TraceStatus::Violated);
        let mut df = TraceEvaluator::new(&Prop::DeadlockFree);
        df.observe(&step(&[a]));
        assert!(df.conclude(true));
        let mut df2 = TraceEvaluator::new(&Prop::DeadlockFree);
        df2.observe(&step(&[a]));
        assert!(!df2.conclude(false));
    }
}
