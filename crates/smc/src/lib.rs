//! # moccml-smc
//!
//! Statistical model checking for the MoCCML reproduction: when the
//! scheduling state-space is too large to explore exhaustively,
//! estimate the probability that a random schedule violates a property
//! — with explicit statistical guarantees instead of exhaustiveness.
//!
//! The checker samples random traces of a compiled
//! [`Program`](moccml_engine::Program) through the engine's own
//! stepping path: each sampler keeps one
//! [`Engine`](moccml_engine::Engine) session under a
//! [`Random`](moccml_engine::Random) policy, which picks uniformly
//! among the acceptable steps, and reseeds it per trace
//! ([`Engine::reseed`](moccml_engine::Engine::reseed)) — so a sampled
//! trace is exactly what `simulate --policy random` runs from the same
//! seed. Each trace is evaluated against the same bounded-temporal
//! monitor core ([`TraceEvaluator`](moccml_verify::TraceEvaluator),
//! one per property, reset per trace) the exhaustive checker compiles
//! its observers from — one semantics, two search strategies. A trace
//! yields one verdict bit per property and records no schedule. At one
//! worker the calling thread samples and tallies in index order itself;
//! more workers claim chunks of traces and send one message of verdict
//! bits per chunk. Two statistical regimes share the sampler:
//!
//! * **Fixed-sample estimation** (the default): the
//!   Okamoto/Chernoff bound [`okamoto_sample_size`] turns `(ε, δ)`
//!   into a sample count `N = ⌈ln(2/δ)/(2ε²)⌉` such that the reported
//!   estimate is within `ε` of the true violation probability with
//!   confidence `1 − δ`.
//! * **Sequential testing** ([`SmcOptions::with_prob_threshold`]):
//!   Wald's [`Sprt`] decides "violation probability above/below θ"
//!   with indifference region `θ ± ε`, typically after a small
//!   fraction of the fixed budget.
//!
//! Every report carries a Wilson score interval
//! ([`wilson_interval`]), and the first violating trace comes back as
//! an ordinary [`Counterexample`](moccml_verify::Counterexample): the
//! report re-samples that trace from its index for its property alone
//! (the one schedule a run builds), then re-validates and minimizes it
//! through the verify layer, so a rare-event witness found
//! statistically replays exactly like one found exhaustively.
//!
//! Reports are **independent of the worker count**: trace `i` forks
//! its policy seed from the base seed by SplitMix64 stream
//! splitting, and the aggregator consumes verdicts in trace-index
//! order, discarding parallel overshoot past the decision point.
//!
//! ## Example
//!
//! ```
//! use moccml_ccsl::Alternation;
//! use moccml_engine::Program;
//! use moccml_kernel::{Specification, StepPred, Universe};
//! use moccml_smc::{check_statistical, SmcOptions, SmcVerdict};
//! use moccml_verify::Prop;
//!
//! let mut u = Universe::new();
//! let (a, b) = (u.event("a"), u.event("b"));
//! let mut spec = Specification::new("alt", u);
//! spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
//! let program = Program::new(spec);
//!
//! // "b never fires" is violated on every sampled trace: the
//! // estimate converges to 1 and a minimized witness comes back
//! let prop = Prop::Never(StepPred::fired(b));
//! let options = SmcOptions::default().with_epsilon(0.1).with_delta(0.05);
//! let report = check_statistical(&program, &prop, &options);
//! assert_eq!(report.verdict, SmcVerdict::Estimated);
//! assert!(report.estimate > 0.9);
//! let witness = report.witness.expect("every trace violates");
//! assert!(witness.replays_on(&program));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod sampler;

pub use bounds::{normal_quantile, okamoto_sample_size, wilson_interval, Sprt, SprtDecision};
pub use sampler::{
    check_statistical, check_statistical_observed, SmcMode, SmcOptions, SmcProgress, SmcReport,
    SmcRun, SmcVerdict,
};

#[cfg(test)]
mod tests {
    use super::*;
    use moccml_ccsl::{Alternation, Exclusion, Precedence, SubClock};
    use moccml_engine::{Engine, Program, Random};
    use moccml_kernel::{Specification, StepPred, Universe};
    use moccml_obs::Recorder;
    use moccml_testkit::{cases, prop_assert_eq, TestRng};
    use moccml_verify::{Prop, TraceEvaluator};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Two free-running events under exclusion: each step fires `a`
    /// or `b` (never both), so "eventually a within k" is violated
    /// exactly by the all-`b` prefixes — probability 2⁻ᵏ per trace
    /// under the uniform `Random` policy.
    fn coin_flip() -> (Arc<Program>, moccml_kernel::EventId, moccml_kernel::EventId) {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("coin", u);
        spec.add_constraint(Box::new(Exclusion::new("a#b", [a, b])));
        (Program::new(spec), a, b)
    }

    #[test]
    fn estimate_tracks_the_true_probability() {
        let (program, a, _) = coin_flip();
        // violated iff the first 2 steps both miss `a`: p = 1/4
        let prop = Prop::EventuallyWithin(StepPred::fired(a), 2);
        let options = SmcOptions::default().with_epsilon(0.05).with_delta(0.02);
        let report = check_statistical(&program, &prop, &options);
        assert_eq!(report.verdict, SmcVerdict::Estimated);
        assert!(
            (report.estimate - 0.25).abs() < 0.05,
            "estimate {} should be within ε of 0.25",
            report.estimate
        );
        assert!(report.ci_low <= report.estimate && report.estimate <= report.ci_high);
        assert_eq!(report.traces, okamoto_sample_size(0.05, 0.02));
    }

    #[test]
    fn reports_are_identical_for_every_worker_count() {
        let (program, a, _) = coin_flip();
        let prop = Prop::EventuallyWithin(StepPred::fired(a), 3);
        let options = SmcOptions::default().with_epsilon(0.08).with_seed(7);
        let baseline = check_statistical(&program, &prop, &options.clone().with_workers(1));
        for workers in [2, 8] {
            let parallel =
                check_statistical(&program, &prop, &options.clone().with_workers(workers));
            assert_eq!(baseline, parallel, "workers={workers}");
        }
    }

    #[test]
    fn witnesses_replay_and_are_minimal() {
        let (program, a, _) = coin_flip();
        let prop = Prop::EventuallyWithin(StepPred::fired(a), 2);
        let options = SmcOptions::default().with_epsilon(0.1);
        let report = check_statistical(&program, &prop, &options);
        let witness = report.witness.expect("p = 1/4 surfaces a witness");
        assert!(witness.replays_on(&program));
        assert!(moccml_verify::is_witness(
            &program,
            &prop,
            &witness.schedule
        ));
        // minimal witness for eventually<=2: two steps without `a`
        assert_eq!(witness.schedule.len(), 2);
        assert!(report.witness_trace.is_some());
    }

    #[test]
    fn sprt_decides_early_on_a_sure_violation() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        let program = Program::new(spec);
        // alternation forces a;b;a;… — "never b" is violated with p = 1
        let prop = Prop::Never(StepPred::fired(b));
        let options = SmcOptions::default().with_prob_threshold(0.5);
        let report = check_statistical(&program, &prop, &options);
        assert_eq!(report.verdict, SmcVerdict::AboveThreshold);
        assert!(
            report.traces < okamoto_sample_size(options.epsilon, options.delta) / 10,
            "SPRT should stop well before the fixed budget, used {}",
            report.traces
        );
        assert_eq!(report.violations, report.traces);
    }

    #[test]
    fn sprt_rejects_when_violations_are_impossible() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("sub", u);
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        let program = Program::new(spec);
        // a only fires with b, so `a && !b` never holds: p = 0
        let prop = Prop::Always(StepPred::implies(a, b));
        let options = SmcOptions::default().with_prob_threshold(0.3);
        let report = check_statistical(&program, &prop, &options);
        assert_eq!(report.verdict, SmcVerdict::BelowThreshold);
        assert_eq!(report.violations, 0);
        assert!(report.witness.is_none());
    }

    #[test]
    fn observed_run_records_counters_and_progress() {
        let (program, a, _) = coin_flip();
        let prop = Prop::EventuallyWithin(StepPred::fired(a), 2);
        let options = SmcOptions::default().with_epsilon(0.05).with_workers(2);
        let recorder = Recorder::new();
        let calls = AtomicUsize::new(0);
        let progress = |_: &SmcProgress| {
            calls.fetch_add(1, Ordering::Relaxed);
        };
        let run = SmcRun {
            recorder: &recorder,
            progress: Some(&progress),
            cancel: None,
        };
        let report =
            check_statistical_observed(&program, std::slice::from_ref(&prop), &options, &run)
                .remove(0);
        let snap = recorder.snapshot();
        // counters tally every executed trace (overshoot included),
        // so they are at least what the report consumed
        assert!(snap.counter("smc_traces").unwrap_or(0) >= report.traces as u64);
        assert_eq!(
            snap.counter_sum("smc_worker"),
            snap.counter("smc_traces").unwrap_or(0),
            "per-worker counters roll up to the total"
        );
        assert!(snap.counter("smc_violations").unwrap_or(0) >= report.violations as u64);
        assert!(
            calls.load(Ordering::Relaxed) >= 2,
            "throttled progress fired"
        );
        assert!(snap.spans.iter().any(|s| s.name == "smc"));

        // at one worker nothing overshoots: the step counter is the sum
        // of the consumed traces' lengths, each sampled until its
        // property decides (or the length cap)
        let recorder = Recorder::new();
        let run = SmcRun::new(&recorder);
        let options = options.with_workers(1);
        let report =
            check_statistical_observed(&program, std::slice::from_ref(&prop), &options, &run)
                .remove(0);
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("smc_traces"), Some(report.traces as u64));
        let lengths: usize = (0..report.traces)
            .map(|i| {
                let mut engine = Engine::from_program(&program)
                    .policy(Random::new(sampler::fork(options.seed, i as u64)))
                    .build();
                let mut eval = TraceEvaluator::new(&prop);
                let mut len = 0;
                while eval.status() == moccml_verify::TraceStatus::Undecided
                    && len < options.max_trace_len
                {
                    let Some(step) = engine.step() else { break };
                    eval.observe(&step);
                    len += 1;
                }
                len
            })
            .sum();
        assert_eq!(snap.counter("smc_steps"), Some(lengths as u64));
    }

    #[test]
    fn cancellation_stops_the_run_cooperatively() {
        let (program, a, _) = coin_flip();
        let prop = Prop::EventuallyWithin(StepPred::fired(a), 4);
        // a big budget that a cancelled run must not finish
        let options = SmcOptions::default().with_epsilon(0.005).with_delta(0.01);
        let recorder = Recorder::disabled();
        let cancel = AtomicBool::new(false);
        let progress = |p: &SmcProgress| {
            if p.traces >= 256 {
                cancel.store(true, Ordering::Relaxed);
            }
        };
        let run = SmcRun {
            recorder: &recorder,
            progress: Some(&progress),
            cancel: Some(&cancel),
        };
        let report =
            check_statistical_observed(&program, std::slice::from_ref(&prop), &options, &run)
                .remove(0);
        assert_eq!(report.verdict, SmcVerdict::Cancelled);
        assert!(report.traces < okamoto_sample_size(0.005, 0.01));
    }

    #[test]
    fn sampled_traces_are_random_policy_simulations() {
        // three drifting channels, as in examples/specs/drift.mcc
        let mut u = Universe::new();
        let events: Vec<_> = ["produce", "consume", "tick", "tock", "send", "recv"]
            .iter()
            .map(|name| u.event(name))
            .collect();
        let mut spec = Specification::new("drift", u);
        for pair in events.chunks(2) {
            let p = Precedence::strict("drift", pair[0], pair[1]).with_bound(1000);
            spec.add_constraint(Box::new(p));
        }
        let (coin, a, _) = coin_flip();
        let len = 12;
        let options = SmcOptions::default().with_seed(2015);
        for (program, x) in [(coin, a), (Program::new(spec), events[0])] {
            // never discharged: violated at the bound, so the violating
            // prefix run_trace returns is the whole sampled trace
            let never = StepPred::and(StepPred::fired(x), StepPred::negate(StepPred::fired(x)));
            let prop = Prop::EventuallyWithin(never, len);
            let mut session = Engine::from_program(&program).build();
            for i in 0..8 {
                let evals = vec![Some(TraceEvaluator::new(&prop))];
                let sampled = sampler::run_trace(&mut session, i, evals, &options)
                    .expect("steps are indexable")
                    .remove(0)
                    .flatten()
                    .expect("violated at the bound");
                let simulated = Engine::from_program(&program)
                    .policy(Random::new(sampler::fork(options.seed, i as u64)))
                    .build()
                    .run(len)
                    .schedule;
                assert_eq!(sampled, simulated, "trace {i}");
            }
        }
    }

    /// A random specification over five events: a few bounded
    /// precedences, sub-clocks, exclusions and alternations.
    fn random_program(rng: &mut TestRng) -> (Arc<Program>, Vec<moccml_kernel::EventId>) {
        let mut u = Universe::new();
        let events: Vec<_> = (0..5).map(|i| u.event(&format!("e{i}"))).collect();
        let mut spec = Specification::new("random", u);
        for k in 0..rng.usize_in(1..5) {
            let (a, b) = (*rng.choice(&events), *rng.choice(&events));
            let name = format!("c{k}");
            let constraint: Box<dyn moccml_kernel::Constraint> = match rng.u8_in(0..4) {
                0 => Box::new(SubClock::new(&name, a, b)),
                1 => Box::new(Exclusion::new(&name, [a, b])),
                2 => Box::new(Alternation::new(&name, a, b)),
                _ => Box::new(Precedence::strict(&name, a, b).with_bound(rng.u64_in(1..4))),
            };
            spec.add_constraint(constraint);
        }
        (Program::new(spec), events)
    }

    fn random_prop(rng: &mut TestRng, events: &[moccml_kernel::EventId]) -> Prop {
        let pred = |rng: &mut TestRng| match rng.u8_in(0..3) {
            0 => StepPred::fired(*rng.choice(events)),
            1 => StepPred::negate(StepPred::fired(*rng.choice(events))),
            _ => StepPred::or(
                StepPred::fired(*rng.choice(events)),
                StepPred::fired(*rng.choice(events)),
            ),
        };
        match rng.u8_in(0..5) {
            0 => Prop::Never(pred(rng)),
            1 => Prop::EventuallyWithin(pred(rng), rng.usize_in(1..5)),
            2 => Prop::UntilWithin(pred(rng), pred(rng), rng.usize_in(1..5)),
            3 => Prop::ReleaseWithin(pred(rng), pred(rng), rng.usize_in(1..5)),
            _ => Prop::DeadlockFree,
        }
    }

    #[test]
    fn resampled_witnesses_are_the_multi_property_prefixes() {
        cases(48).run(
            "resampled_witnesses_are_the_multi_property_prefixes",
            |rng| {
                let (program, events) = random_program(rng);
                let props: Vec<Prop> = (0..rng.usize_in(1..4))
                    .map(|_| random_prop(rng, &events))
                    .collect();
                let options = SmcOptions::default()
                    .with_seed(rng.any_u64())
                    .with_max_trace_len(6);
                let mut session = Engine::from_program(&program).build();
                for i in 0..12 {
                    let evals = props.iter().map(|p| Some(TraceEvaluator::new(p))).collect();
                    let together = sampler::run_trace(&mut session, i, evals, &options)
                        .map_err(|e| e.to_string())?;
                    for (p, prop) in props.iter().enumerate() {
                        let alone = sampler::run_trace(
                            &mut session,
                            i,
                            vec![Some(TraceEvaluator::new(prop))],
                            &options,
                        )
                        .map_err(|e| e.to_string())?;
                        prop_assert_eq!(&alone[0], &together[p], "trace {i}, property {p}");
                    }
                }
                // the reports of one pass over every property, witnesses
                // re-sampled, are those of a pass per property, and in
                // sequential mode, where parallel samplers overshoot the
                // decision, they do not depend on the worker count either
                for options in [
                    options.clone().with_epsilon(0.1),
                    options.with_epsilon(0.1).with_prob_threshold(0.3),
                ] {
                    let alone: Vec<SmcReport> = props
                        .iter()
                        .map(|prop| check_statistical(&program, prop, &options))
                        .collect();
                    for workers in [1, 2, 8] {
                        let recorder = Recorder::disabled();
                        let reports = check_statistical_observed(
                            &program,
                            &props,
                            &options.clone().with_workers(workers),
                            &SmcRun::new(&recorder),
                        );
                        prop_assert_eq!(&reports, &alone, "{workers} workers");
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn deadlocks_conclude_liveness_as_violated() {
        // two strict precedences in a cycle block both events forever:
        // every state is a deadlock, so DeadlockFree is violated with
        // probability 1 — by the zero-length schedule
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("dead", u);
        spec.add_constraint(Box::new(moccml_ccsl::Precedence::strict("a<b", a, b)));
        spec.add_constraint(Box::new(moccml_ccsl::Precedence::strict("b<a", b, a)));
        let program = Program::new(spec);
        let prop = Prop::DeadlockFree;
        let options = SmcOptions::default()
            .with_epsilon(0.1)
            .with_max_trace_len(8);
        let report = check_statistical(&program, &prop, &options);
        assert_eq!(report.verdict, SmcVerdict::Estimated);
        assert!((report.estimate - 1.0).abs() < f64::EPSILON);
        let witness = report.witness.expect("deadlock witness");
        assert!(witness.schedule.is_empty());
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn out_of_range_epsilon_is_rejected() {
        let (program, a, _) = coin_flip();
        let prop = Prop::EventuallyWithin(StepPred::fired(a), 2);
        let _ = check_statistical(&program, &prop, &SmcOptions::default().with_epsilon(0.0));
    }
}
