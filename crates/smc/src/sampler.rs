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
//! Evaluators ignore steps after their own decision, so each sees
//! exactly the prefix a run of its property alone would sample.
//!
//! A trace yields one verdict bit per property, never a schedule: each
//! worker keeps one session and one evaluator per property, reseeds
//! and resets them per trace, and records no step. The report's witness
//! is the first violating trace of its property, *re-sampled* from its
//! index for that property alone, by the contract above — the only
//! trace that builds a schedule.
//!
//! At one worker the calling thread samples and aggregates in index
//! order itself, with no thread, channel or overshoot. More workers
//! claim chunks of [`CHUNK`] consecutive traces and send one message
//! per chunk, the chunk's verdict bits; they re-check the stop and
//! cancel flags, and which properties are still undecided, before every
//! trace.

use crate::bounds::{okamoto_sample_size, wilson_interval, Sprt, SprtDecision};
use moccml_engine::{Engine, Program, Random, SplitMix64};
use moccml_kernel::{KernelError, Schedule, Step};
use moccml_obs::{Counter, Recorder};
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
    /// Counters (`smc_traces`, `smc_steps` — the steps of those
    /// traces —, `smc_violations` per property and trace,
    /// `smc_worker<i>_traces`) and the `smc` span land here; pass
    /// [`Recorder::disabled`] for zero overhead.
    pub recorder: &'a Recorder,
    /// Called from the aggregator with monotone trace counts.
    pub progress: Option<&'a (dyn Fn(&SmcProgress) + Sync)>,
    /// Cooperative cancellation: every sampler re-checks it before
    /// every trace.
    pub cancel: Option<&'a AtomicBool>,
}

/// Consumed-trace interval between two [`SmcRun::progress`] calls.
const PROGRESS_EVERY: usize = 256;

/// Traces a worker claims at once when several sample, and reports in
/// one message.
const CHUNK: usize = 16;

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

/// One property's verdict on one sampled trace: the violating prefix,
/// cut where that property's evaluator decided (witness material), or
/// `None` when the trace satisfies the property.
type Violation = Option<Schedule>;

/// Samples a trace for every property with an evaluator (`None`: no
/// longer needed), which must be positioned at the start of a run: the
/// session, which the caller has reset under the [`Random`] policy of
/// the trace's forked seed, steps through the acceptable non-empty
/// steps until every evaluator is decided, verdicts from the shared bounded-temporal
/// [`TraceEvaluator`] (deadlock concludes, truncation at
/// `max_trace_len` counts as non-violating). `record` sees every step.
/// Returns the number of steps and whether the trace deadlocked; the
/// evaluators are left unconcluded.
///
/// # Errors
///
/// Returns [`KernelError::TooManySteps`] when the trace reaches a state
/// whose steps no policy can index.
fn walk(
    engine: &mut Engine,
    evals: &mut [Option<TraceEvaluator>],
    max_trace_len: usize,
    mut record: impl FnMut(Step),
) -> Result<(usize, bool), KernelError> {
    let undecided = |e: &TraceEvaluator| e.status() == TraceStatus::Undecided;
    let mut steps = 0;
    while evals.iter().flatten().any(undecided) && steps < max_trace_len {
        // `Random` never declines: `None` is a deadlock
        let Some(step) = engine.try_step()? else {
            return Ok((steps, true));
        };
        for eval in evals.iter_mut().flatten() {
            eval.observe(&step);
        }
        record(step);
        steps += 1;
    }
    Ok((steps, false))
}

/// Samples trace `index` as [`walk`] does, on `engine` under a fresh
/// [`Random`] policy with the trace's forked seed, recording it: per
/// property with an evaluator, its violating prefix, if violated. The
/// witness path: a report re-samples its first violating trace through
/// here, for its property alone.
///
/// # Errors
///
/// Returns [`KernelError::TooManySteps`] as [`walk`] does.
pub(crate) fn run_trace(
    engine: &mut Engine,
    index: usize,
    mut evals: Vec<Option<TraceEvaluator>>,
    options: &SmcOptions,
) -> Result<Vec<Option<Violation>>, KernelError> {
    engine.reset_with(Random::new(fork(options.seed, index as u64)));
    let mut schedule = Schedule::new();
    let (_, deadlocked) = walk(engine, &mut evals, options.max_trace_len, |step| {
        schedule.push(step);
    })?;
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

/// The session (under a [`Random`] policy) and one evaluator per
/// property that sample traces on one thread, and its counters.
struct Sampler<'a> {
    engine: Engine,
    props: &'a [Prop],
    evals: Vec<Option<TraceEvaluator>>,
    options: &'a SmcOptions,
    counters: [Counter; 4],
}

impl<'a> Sampler<'a> {
    fn new(
        program: &Program,
        props: &'a [Prop],
        options: &'a SmcOptions,
        recorder: &Recorder,
        worker: usize,
    ) -> Self {
        Sampler {
            engine: Engine::from_program(program)
                .policy(Random::new(options.seed))
                .build(),
            props,
            evals: props.iter().map(|_| None).collect(),
            options,
            counters: [
                recorder.counter("smc_traces"),
                recorder.counter(&format!("smc_worker{worker}_traces")),
                recorder.counter("smc_steps"),
                recorder.counter("smc_violations"),
            ],
        }
    }

    /// Samples trace `index` for every property not decided before it
    /// (`decided`: per property, the index of the trace that decided
    /// it) and sets bit `p` of `row` (bit `p % 64` of word `p / 64`)
    /// for each property `p` it violates.
    fn sample(
        &mut self,
        index: usize,
        decided: &[AtomicUsize],
        row: &mut [u64],
    ) -> Result<(), KernelError> {
        for ((eval, prop), at) in self.evals.iter_mut().zip(self.props).zip(decided) {
            match eval {
                _ if index > at.load(Ordering::Relaxed) => *eval = None,
                Some(eval) => eval.reset(),
                None => *eval = Some(TraceEvaluator::new(prop)),
            }
        }
        self.engine.reseed(fork(self.options.seed, index as u64));
        let (steps, deadlocked) = walk(
            &mut self.engine,
            &mut self.evals,
            self.options.max_trace_len,
            drop,
        )?;
        let mut violations = 0;
        for (p, eval) in self.evals.iter_mut().enumerate() {
            if eval.as_mut().is_some_and(|eval| eval.conclude(deadlocked)) {
                row[p / 64] |= 1 << (p % 64);
                violations += 1;
            }
        }
        let [traces, worker, steps_counter, violations_counter] = &self.counters;
        traces.incr();
        worker.incr();
        steps_counter.add(steps as u64);
        violations_counter.add(violations);
        Ok(())
    }
}

/// One claimed chunk of traces, as a worker sends it: the verdict rows
/// of traces `start..`, in order, and the error of the trace after
/// them, if one stopped the chunk. A chunk cut short by the stop or
/// cancel flag just has fewer rows.
struct Chunk {
    start: usize,
    rows: Vec<u64>,
    error: Option<KernelError>,
}

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
/// sampling pass: samples random traces (on the calling thread at one
/// worker, in parallel otherwise), feeds trace `i` to every property's
/// bounded-temporal evaluator still undecided on it, and aggregates
/// verdicts per property in trace-index order into one [`SmcReport`]
/// per property, in input order.
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
    // per property, the index of the trace that decided it: samplers
    // skip that property on every later trace
    let decided: Vec<AtomicUsize> = props.iter().map(|_| AtomicUsize::new(usize::MAX)).collect();
    let mut tally = Tally::new(&decided, options, run, planned);
    let error = if options.workers == 1 {
        sample_inline(program, props, options, run, &mut tally)
    } else {
        sample_parallel(program, props, options, run, &mut tally)
    };
    let cancelled = run.cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    tally.progress();

    let mut engine = Engine::from_program(program).build();
    props
        .iter()
        .zip(tally.aggs)
        .map(|(prop, agg)| {
            let mut report = report(&mut engine, prop, agg, mode, options, cancelled);
            report.error.clone_from(&error);
            report
        })
        .collect()
}

/// Samples and tallies trace after trace on the calling thread until
/// every property is done, the budget is spent, the run is cancelled
/// or a trace fails; returns that trace's error.
fn sample_inline(
    program: &Program,
    props: &[Prop],
    options: &SmcOptions,
    run: &SmcRun<'_>,
    tally: &mut Tally<'_>,
) -> Option<KernelError> {
    let mut sampler = Sampler::new(program, props, options, run.recorder, 0);
    let mut row = vec![0; props.len().div_ceil(64)];
    for index in 0..tally.planned {
        if run.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            break;
        }
        row.fill(0);
        if let Err(e) = sampler.sample(index, tally.decided, &mut row) {
            return Some(e);
        }
        if tally.consume(&row) {
            break;
        }
    }
    None
}

/// Samples on `options.workers` scoped threads that claim chunks of
/// [`CHUNK`] traces and send each chunk's rows in one message, and
/// tallies them on the calling thread in index order (out-of-order
/// chunks park until their turn) until every property is done or the
/// workers quit; returns the error of the first trace in index order
/// that failed, which ends the run there.
fn sample_parallel(
    program: &Program,
    props: &[Prop],
    options: &SmcOptions,
    run: &SmcRun<'_>,
    tally: &mut Tally<'_>,
) -> Option<KernelError> {
    let words = props.len().div_ceil(64);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let halted =
        || stop.load(Ordering::Relaxed) || run.cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    let (tx, rx) = mpsc::channel::<Chunk>();
    let planned = tally.planned;
    let decided = tally.decided;
    thread::scope(|scope| {
        for w in 0..options.workers {
            let tx = tx.clone();
            let (next, halted) = (&next, &halted);
            scope.spawn(move || {
                let mut sampler = Sampler::new(program, props, options, run.recorder, w);
                while !halted() {
                    let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                    if start >= planned {
                        break;
                    }
                    let end = (start + CHUNK).min(planned);
                    let mut chunk = Chunk {
                        start,
                        rows: Vec::with_capacity((end - start) * words),
                        error: None,
                    };
                    for index in start..end {
                        if halted() {
                            break;
                        }
                        let at = chunk.rows.len();
                        chunk.rows.resize(at + words, 0);
                        if let Err(e) = sampler.sample(index, decided, &mut chunk.rows[at..]) {
                            chunk.rows.truncate(at);
                            chunk.error = Some(e);
                            break;
                        }
                    }
                    let failed = chunk.error.is_some();
                    if tx.send(chunk).is_err() || failed {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut pending: HashMap<usize, Chunk> = HashMap::new();
        let mut error = None;
        'recv: while let Ok(chunk) = rx.recv() {
            pending.insert(chunk.start, chunk);
            while let Some(chunk) = pending.remove(&tally.index) {
                for row in chunk.rows.chunks(words) {
                    if tally.consume(row) {
                        break 'recv;
                    }
                }
                if chunk.error.is_some() {
                    error = chunk.error;
                    break 'recv;
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        error
    })
}

/// One property's [`SmcReport`], its witness re-sampled on `engine`
/// and minimized.
fn report(
    engine: &mut Engine,
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
        // an unfinished prefix with no decision means the samplers quit
        // on the cancel flag
        (_, None) if cancelled && !agg.done => SmcVerdict::Cancelled,
        (SmcMode::FixedSample { .. }, _) => SmcVerdict::Estimated,
        (SmcMode::Sequential { .. }, Some(SprtDecision::Above)) => SmcVerdict::AboveThreshold,
        (SmcMode::Sequential { .. }, Some(SprtDecision::Below)) => SmcVerdict::BelowThreshold,
        (SmcMode::Sequential { .. }, None) => SmcVerdict::Undecided,
    };
    let witness = agg.witness.map(|index| {
        let program = engine.program().clone();
        let evals = vec![Some(TraceEvaluator::new(prop))];
        let schedule = run_trace(engine, index, evals, options)
            .ok()
            .and_then(|mut verdicts| verdicts.pop().flatten().flatten())
            .expect("a violating trace re-samples to the same violation");
        debug_assert!(
            is_witness(&program, prop, &schedule),
            "sampled witnesses replay"
        );
        let schedule = minimize_witness(&program, prop, &schedule);
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
        witness_trace: agg.witness,
        witness,
        error: None,
    }
}

/// One property's index-ordered tally.
struct Aggregate {
    consumed: usize,
    violations: usize,
    /// The index of the first violating trace.
    witness: Option<usize>,
    sprt: Option<Sprt>,
    decision: Option<SprtDecision>,
    /// Decided, or the budget is spent: later traces are overshoot.
    done: bool,
}

/// The index-ordered tally of every property: everything the reports
/// are built from flows through [`consume`](Tally::consume), in trace
/// order, which is what makes them independent of the worker count.
struct Tally<'a> {
    aggs: Vec<Aggregate>,
    /// Per property, the index of the trace that decided it, published
    /// for the samplers.
    decided: &'a [AtomicUsize],
    run: &'a SmcRun<'a>,
    planned: usize,
    /// The next trace to consume.
    index: usize,
    /// Violations consumed, summed over the properties.
    violations: usize,
}

impl<'a> Tally<'a> {
    fn new(
        decided: &'a [AtomicUsize],
        options: &SmcOptions,
        run: &'a SmcRun<'a>,
        planned: usize,
    ) -> Self {
        let aggs = decided
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
        Tally {
            aggs,
            decided,
            run,
            planned,
            index: 0,
            violations: 0,
        }
    }

    /// Consumes the verdict row of the next trace: tallies each
    /// property not yet done, publishes its decision index in
    /// `decided`, and calls progress every [`PROGRESS_EVERY`] traces.
    /// Returns whether every property is done.
    fn consume(&mut self, row: &[u64]) -> bool {
        for (p, (agg, at)) in self.aggs.iter_mut().zip(self.decided).enumerate() {
            if agg.done {
                continue;
            }
            let violated = row[p / 64] >> (p % 64) & 1 == 1;
            if violated {
                agg.violations += 1;
                self.violations += 1;
                agg.witness.get_or_insert(self.index);
            }
            agg.consumed += 1;
            if let Some(sprt) = &mut agg.sprt {
                agg.decision = sprt.observe(violated);
            }
            if agg.decision.is_some() || agg.consumed == self.planned {
                agg.done = true;
                at.store(self.index, Ordering::Relaxed);
            }
        }
        self.index += 1;
        if self.index.is_multiple_of(PROGRESS_EVERY) {
            self.progress();
        }
        self.aggs.iter().all(|agg| agg.done)
    }

    /// Reports the consumed traces to the progress callback.
    fn progress(&self) {
        if let Some(progress) = self.run.progress {
            progress(&SmcProgress {
                traces: self.index,
                violations: self.violations,
                planned: self.planned,
            });
        }
    }
}
