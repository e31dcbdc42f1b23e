//! The parallel trace engine: fork-seeded Monte-Carlo sampling with an
//! index-ordered aggregator.
//!
//! Determinism contract: trace `i` is driven by a `Random` policy seeded
//! from `fork(seed, i)` — a SplitMix64 stream split, independent of
//! which worker runs it — and the aggregator consumes verdicts in
//! strict trace-index order, discarding any overshoot past each
//! property's decision point. The resulting [`SmcReport`]s are
//! therefore identical for every `workers` count, which the property
//! suite pins at `{1, 2, 8}`.
//! One sampling pass serves every property: trace `i` is sampled once
//! and fed to each property's evaluator still undecided on it.

use crate::bounds::{okamoto_sample_size, wilson_interval, Sprt, SprtDecision};
use moccml_engine::{Engine, Program, Random, SplitMix64};
use moccml_kernel::{KernelError, Schedule};
use moccml_obs::Recorder;
use moccml_verify::{
    is_witness, minimize_witness, Counterexample, Prop, TraceEvaluator, TraceStatus,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Tuning knobs for [`check_statistical`]. All fields have
/// conservative defaults; the builder methods mirror the CLI flags.
#[derive(Debug, Clone)]
pub struct SmcOptions {
    /// Half-width of the estimation error (fixed-sample mode) and of
    /// the SPRT indifference region (sequential mode). Default `0.01`.
    pub epsilon: f64,
    /// Allowed error probability; every report carries a `1 - delta`
    /// confidence interval. Default `0.05`.
    pub delta: f64,
    /// `Some(θ)` switches to sequential (SPRT) mode, deciding whether
    /// the violation probability exceeds `θ`. Default `None`
    /// (fixed-sample estimation with the Okamoto budget).
    pub prob_threshold: Option<f64>,
    /// Traces longer than this are truncated and counted as
    /// non-violating unless already decided. Default `256`.
    pub max_trace_len: usize,
    /// Base seed; trace `i` forks its own SplitMix64 stream from it.
    /// Default `0xDA7E_2015`.
    pub seed: u64,
    /// Worker threads. The report is identical for every value.
    /// Default `1`.
    pub workers: usize,
}

impl Default for SmcOptions {
    fn default() -> Self {
        SmcOptions {
            epsilon: 0.01,
            delta: 0.05,
            prob_threshold: None,
            max_trace_len: 256,
            seed: 0xDA7E_2015,
            workers: 1,
        }
    }
}

impl SmcOptions {
    /// Sets the estimation half-width ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the error probability δ.
    #[must_use]
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Switches to sequential (SPRT) mode against `threshold`.
    #[must_use]
    pub fn with_prob_threshold(mut self, threshold: f64) -> Self {
        self.prob_threshold = Some(threshold);
        self
    }

    /// Sets the trace truncation length.
    #[must_use]
    pub fn with_max_trace_len(mut self, len: usize) -> Self {
        self.max_trace_len = len;
        self
    }

    /// Sets the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    fn validate(&self) {
        assert!(
            self.epsilon > 0.0 && self.epsilon < 1.0,
            "epsilon must be in (0, 1), got {}",
            self.epsilon
        );
        assert!(
            self.delta > 0.0 && self.delta < 1.0,
            "delta must be in (0, 1), got {}",
            self.delta
        );
        if let Some(t) = self.prob_threshold {
            assert!(
                t > 0.0 && t < 1.0,
                "prob-threshold must be in (0, 1), got {t}"
            );
        }
        assert!(self.max_trace_len > 0, "max-trace-len must be positive");
        assert!(self.workers > 0, "workers must be positive");
    }
}

/// Which statistical regime produced a report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SmcMode {
    /// Fixed-sample estimation with the Okamoto budget `samples`.
    FixedSample {
        /// The precomputed `⌈ln(2/δ)/(2ε²)⌉` sample count.
        samples: usize,
    },
    /// Sequential (SPRT) hypothesis testing against `threshold`.
    Sequential {
        /// The tested violation-probability threshold.
        threshold: f64,
    },
}

/// The conclusion of a statistical check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmcVerdict {
    /// Fixed-sample mode ran its full budget: `estimate` is within
    /// ε of the true violation probability with confidence `1 - δ`.
    Estimated,
    /// SPRT: the violation probability exceeds the threshold.
    AboveThreshold,
    /// SPRT: the violation probability is below the threshold.
    BelowThreshold,
    /// SPRT exhausted the Okamoto fallback budget without crossing a
    /// boundary (the true probability sits inside the indifference
    /// region); `estimate` still carries its Wilson interval.
    Undecided,
    /// The run was cancelled cooperatively; the report summarises the
    /// prefix sampled so far.
    Cancelled,
}

/// The result of a statistical check. Byte-identical for every
/// `workers` count given the same options (cancelled runs excepted —
/// cancellation is a wall-clock event).
#[derive(Debug, Clone, PartialEq)]
pub struct SmcReport {
    /// The regime that ran.
    pub mode: SmcMode,
    /// The conclusion.
    pub verdict: SmcVerdict,
    /// Traces consumed by the decision (overshoot from parallel
    /// workers is discarded, not counted).
    pub traces: usize,
    /// Violating traces among [`traces`](SmcReport::traces).
    pub violations: usize,
    /// The point estimate `violations / traces`.
    pub estimate: f64,
    /// `1 - delta`, the confidence of the interval below.
    pub confidence: f64,
    /// Lower end of the Wilson score interval.
    pub ci_low: f64,
    /// Upper end of the Wilson score interval.
    pub ci_high: f64,
    /// Index of the first violating trace, if any.
    pub witness_trace: Option<usize>,
    /// The first violating trace as an ordinary counterexample:
    /// re-validated through [`is_witness`] and minimized through the
    /// verify layer's greedy minimizer. Its `state` field is `0` — a
    /// statistical run has no explored state-space to index into.
    pub witness: Option<Counterexample>,
    /// Why sampling could not go on, if it could not: the first trace,
    /// in index order, that reached a state admitting more steps than a
    /// `usize` counts ([`KernelError::TooManySteps`]). The other
    /// fields then summarize the traces before it.
    pub error: Option<KernelError>,
}

/// Live progress of a running check, handed to the progress callback
/// every 256 consumed traces and once at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmcProgress {
    /// Traces consumed in index order so far.
    pub traces: usize,
    /// Violations among them, summed over the checked properties.
    pub violations: usize,
    /// The sampling budget (Okamoto size; SPRT usually stops earlier).
    pub planned: usize,
}

/// Observation and control hooks for
/// [`check_statistical_observed`]. The plain [`check_statistical`]
/// entry point runs with all of them off.
pub struct SmcRun<'a> {
    /// Counters (`smc_traces`, `smc_violations` per property and trace,
    /// `smc_worker<i>_traces`) and the `smc` span land here; pass
    /// [`Recorder::disabled`] for zero overhead.
    pub recorder: &'a Recorder,
    /// Called from the aggregator with monotone trace counts.
    pub progress: Option<&'a (dyn Fn(&SmcProgress) + Sync)>,
    /// Cooperative cancellation: workers re-check before every trace.
    pub cancel: Option<&'a AtomicBool>,
}

/// Consumed-trace interval between two [`SmcRun::progress`] calls.
const PROGRESS_EVERY: usize = 256;

impl<'a> SmcRun<'a> {
    /// Hooks with observability into `recorder` and nothing else.
    #[must_use]
    pub fn new(recorder: &'a Recorder) -> SmcRun<'a> {
        SmcRun {
            recorder,
            progress: None,
            cancel: None,
        }
    }
}

impl fmt::Debug for SmcRun<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmcRun")
            .field("recorder", self.recorder)
            .field("progress", &self.progress.is_some())
            .field("cancel", &self.cancel.is_some())
            .finish()
    }
}

/// SplitMix64 stream splitting, mirroring the testkit's
/// `TestRng::fork`: trace `i` draws from a stream that depends only on
/// `(base, i)`, never on which worker picked it up.
pub(crate) fn fork(base: u64, index: u64) -> u64 {
    SplitMix64::new(base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// One property's verdict on one sampled trace, as sent to the
/// aggregator: the violating prefix, cut where that property's
/// evaluator decided (witness material), or `None` when the trace
/// satisfies the property.
type Violation = Option<Schedule>;

/// Samples one trace for every property with an evaluator (`None`: no
/// longer needed): the session, reset under trace `index`'s forked
/// [`Random`] seed, steps through the acceptable non-empty steps until
/// every evaluator is decided, verdicts from the shared
/// bounded-temporal [`TraceEvaluator`] (deadlock concludes, truncation
/// at `max_trace_len` counts as non-violating). Evaluators ignore steps
/// after their own decision, so each sees exactly the prefix a run of
/// its property alone would sample.
///
/// # Errors
///
/// Returns [`KernelError::TooManySteps`] when the trace reaches a state
/// whose steps no policy can index.
pub(crate) fn run_trace(
    engine: &mut Engine,
    index: usize,
    mut evals: Vec<Option<TraceEvaluator>>,
    options: &SmcOptions,
) -> Result<Vec<Option<Violation>>, KernelError> {
    engine.reset_with(Random::new(fork(options.seed, index as u64)));
    let mut schedule = Schedule::new();
    let mut deadlocked = false;
    let undecided = |e: &TraceEvaluator| e.status() == TraceStatus::Undecided;
    while evals.iter().flatten().any(undecided) && schedule.len() < options.max_trace_len {
        // `Random` never declines: `None` is a deadlock
        let Some(step) = engine.try_step()? else {
            deadlocked = true;
            break;
        };
        for eval in evals.iter_mut().flatten() {
            eval.observe(&step);
        }
        schedule.push(step);
    }
    Ok(evals
        .iter_mut()
        .map(|eval| {
            let eval = eval.as_mut()?;
            let violated = eval.conclude(deadlocked);
            let prefix = &schedule.steps()[..eval.steps_observed()];
            Some(violated.then(|| prefix.iter().cloned().collect()))
        })
        .collect())
}

/// One sampled trace's verdicts, or the error that stopped it.
type Outcomes = Result<Vec<Option<Violation>>, KernelError>;

/// Statistically checks `prop` on `program` by Monte-Carlo trace
/// sampling — [`check_statistical_observed`] for one property, with
/// observation and cancellation off.
///
/// # Panics
///
/// Panics if `options` carry out-of-range parameters (see
/// [`SmcOptions`] field docs).
#[must_use]
pub fn check_statistical(program: &Program, prop: &Prop, options: &SmcOptions) -> SmcReport {
    let recorder = Recorder::disabled();
    let run = SmcRun::new(&recorder);
    check_statistical_observed(program, std::slice::from_ref(prop), options, &run).remove(0)
}

/// Statistically checks every property in `props` on `program` in one
/// sampling pass: samples random traces in parallel, feeds trace `i`
/// to every property's bounded-temporal evaluator still undecided on
/// it, and aggregates verdicts per property in trace-index order into
/// one [`SmcReport`] per property, in input order.
///
/// In fixed-sample mode (no threshold) every property runs the full
/// Okamoto budget and reports its estimate with its Wilson interval.
/// In sequential mode each property's verdict stream feeds its own
/// Wald SPRT and stops at the first boundary crossing, falling back to
/// [`SmcVerdict::Undecided`] if the Okamoto budget runs out first. Each
/// report is exactly the one a run of that property alone gives.
///
/// # Panics
///
/// Panics if `options` carry out-of-range parameters.
#[must_use]
pub fn check_statistical_observed(
    program: &Program,
    props: &[Prop],
    options: &SmcOptions,
    run: &SmcRun<'_>,
) -> Vec<SmcReport> {
    options.validate();
    if props.is_empty() {
        return Vec::new();
    }
    let _span = run.recorder.span("smc");
    let planned = okamoto_sample_size(options.epsilon, options.delta);
    let mode = match options.prob_threshold {
        Some(threshold) => SmcMode::Sequential { threshold },
        None => SmcMode::FixedSample { samples: planned },
    };

    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // per property, the index of the trace that decided it: workers
    // skip that property on every later trace
    let decided: Vec<AtomicUsize> = props.iter().map(|_| AtomicUsize::new(usize::MAX)).collect();
    let traces_counter = run.recorder.counter("smc_traces");
    let violations_counter = run.recorder.counter("smc_violations");
    let (tx, rx) = mpsc::channel::<(usize, Outcomes)>();

    let (aggs, cancelled, error) = thread::scope(|scope| {
        for w in 0..options.workers {
            let tx = tx.clone();
            let worker_counter = run.recorder.counter(&format!("smc_worker{w}_traces"));
            let traces_counter = traces_counter.clone();
            let violations_counter = violations_counter.clone();
            let (next, stop, decided) = (&next, &stop, &decided);
            let cancel = run.cancel;
            scope.spawn(move || {
                let mut engine = Engine::from_program(program).build();
                loop {
                    if stop.load(Ordering::Relaxed)
                        || cancel.is_some_and(|c| c.load(Ordering::Relaxed))
                    {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= planned {
                        break;
                    }
                    let evals = props
                        .iter()
                        .zip(decided)
                        .map(|(prop, at)| {
                            (i <= at.load(Ordering::Relaxed)).then(|| TraceEvaluator::new(prop))
                        })
                        .collect();
                    let outcomes = run_trace(&mut engine, i, evals, options);
                    traces_counter.incr();
                    worker_counter.incr();
                    let violations = outcomes.iter().flatten().flatten().flatten().count();
                    violations_counter.add(violations as u64);
                    if tx.send((i, outcomes)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        aggregate(&rx, &stop, &decided, options, run, planned)
    });

    props
        .iter()
        .zip(aggs)
        .map(|(prop, agg)| {
            let mut report = report(program, prop, agg, mode, options, cancelled);
            report.error.clone_from(&error);
            report
        })
        .collect()
}

/// One property's [`SmcReport`], its witness minimized.
fn report(
    program: &Program,
    prop: &Prop,
    agg: Aggregate,
    mode: SmcMode,
    options: &SmcOptions,
    cancelled: bool,
) -> SmcReport {
    let estimate = if agg.consumed == 0 {
        0.0
    } else {
        agg.violations as f64 / agg.consumed as f64
    };
    let (ci_low, ci_high) = wilson_interval(agg.violations, agg.consumed, options.delta);
    let verdict = match (mode, agg.decision) {
        // an unfinished prefix with no decision means the workers quit
        // on the cancel flag
        (_, None) if cancelled && !agg.done => SmcVerdict::Cancelled,
        (SmcMode::FixedSample { .. }, _) => SmcVerdict::Estimated,
        (SmcMode::Sequential { .. }, Some(SprtDecision::Above)) => SmcVerdict::AboveThreshold,
        (SmcMode::Sequential { .. }, Some(SprtDecision::Below)) => SmcVerdict::BelowThreshold,
        (SmcMode::Sequential { .. }, None) => SmcVerdict::Undecided,
    };
    let witness = agg.witness.as_ref().map(|(_, schedule)| {
        debug_assert!(
            is_witness(program, prop, schedule),
            "sampled witnesses replay"
        );
        let schedule = minimize_witness(program, prop, schedule);
        Counterexample { schedule, state: 0 }
    });
    SmcReport {
        mode,
        verdict,
        traces: agg.consumed,
        violations: agg.violations,
        estimate,
        confidence: 1.0 - options.delta,
        ci_low,
        ci_high,
        witness_trace: agg.witness.map(|(index, _)| index),
        witness,
        error: None,
    }
}

/// One property's index-ordered tally.
struct Aggregate {
    consumed: usize,
    violations: usize,
    witness: Option<(usize, Schedule)>,
    sprt: Option<Sprt>,
    decision: Option<SprtDecision>,
    /// Decided, or the budget is spent: later traces are overshoot.
    done: bool,
}

/// Consumes verdicts in strict trace-index order (out-of-order
/// arrivals park in `pending`), tallies each property not yet done,
/// publishes its decision index in `decided`, and raises `stop` once
/// every property is done. Everything the reports are built from flows
/// through here, which is what makes them independent of the worker
/// count. Also returns whether the cancel flag was raised, and the
/// error of the first trace in index order that failed, which ends the
/// run there.
fn aggregate(
    rx: &mpsc::Receiver<(usize, Outcomes)>,
    stop: &AtomicBool,
    decided: &[AtomicUsize],
    options: &SmcOptions,
    run: &SmcRun<'_>,
    planned: usize,
) -> (Vec<Aggregate>, bool, Option<KernelError>) {
    let mut pending: HashMap<usize, Outcomes> = HashMap::new();
    let mut error = None;
    let mut aggs: Vec<Aggregate> = decided
        .iter()
        .map(|_| Aggregate {
            consumed: 0,
            violations: 0,
            witness: None,
            sprt: options
                .prob_threshold
                .map(|threshold| Sprt::new(threshold, options.epsilon, options.delta)),
            decision: None,
            done: false,
        })
        .collect();
    let (mut index, mut violations) = (0, 0);
    let progress = |traces, violations| {
        if let Some(progress) = run.progress {
            progress(&SmcProgress {
                traces,
                violations,
                planned,
            });
        }
    };
    'recv: while let Ok((i, outcomes)) = rx.recv() {
        pending.insert(i, outcomes);
        while let Some(outcomes) = pending.remove(&index) {
            let outcomes = match outcomes {
                Ok(outcomes) => outcomes,
                Err(e) => {
                    error = Some(e);
                    break 'recv;
                }
            };
            for ((agg, outcome), at) in aggs.iter_mut().zip(outcomes).zip(decided) {
                if agg.done {
                    continue;
                }
                let violation = outcome.expect("undecided properties are sampled");
                let violated = violation.is_some();
                if let Some(schedule) = violation {
                    agg.violations += 1;
                    violations += 1;
                    agg.witness.get_or_insert((index, schedule));
                }
                agg.consumed += 1;
                if let Some(sprt) = &mut agg.sprt {
                    agg.decision = sprt.observe(violated);
                }
                if agg.decision.is_some() || agg.consumed == planned {
                    agg.done = true;
                    at.store(index, Ordering::Relaxed);
                }
            }
            index += 1;
            if index.is_multiple_of(PROGRESS_EVERY) {
                progress(index, violations);
            }
            if aggs.iter().all(|agg| agg.done) {
                break 'recv;
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    let cancelled = run.cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    progress(index, violations);
    (aggs, cancelled, error)
}
