//! The one executor behind the CLI and the daemon: `execute` runs a
//! validated command and returns a typed outcome, which the text and
//! JSON renderers of `render.rs` print — so a JSON verdict and its text
//! twin agree field by field, and the daemon's `result` payloads cannot
//! drift from the CLI's `--format json` lines. The public `*_json`
//! functions are executor steps followed by the JSON renderer.

use crate::command::{boxed_policy, Command, Input, Op};
use crate::json::Json;
use moccml_analyze::{Diagnostic, Severity};
use moccml_engine::{
    Engine, ExploreOptions, ExploreVisitor, Policy, SimulationReport, StateGraph, StateSpaceStats,
    VisitControl,
};
use moccml_kernel::{KernelError, Schedule, Universe};
use moccml_lang::{Compiled, LangError};
use moccml_obs::{Recorder, Snapshot};
use moccml_smc::{check_statistical_observed, SmcOptions, SmcReport, SmcRun, SmcVerdict};
use moccml_verify::{minimize_witness, CheckOptions, PropStatus, Verdict};
use std::time::{Duration, Instant};

/// A progress observer: `(states, transitions, depth) -> control`.
/// Return [`VisitControl::Stop`] to abandon the operation (the service
/// does this on cancellation and deadline).
pub use moccml_verify::ProgressFn as Progress;

/// A progress observer that never stops — the CLI path.
pub fn no_progress() -> impl FnMut(usize, usize, usize) -> VisitControl {
    |_, _, _| VisitControl::Continue
}

/// What a command produced: the spec's name (for lint, the file path
/// diagnostics are reported against), the operation's report, and the
/// optional `--stats` reading.
pub(crate) struct Outcome {
    pub(crate) spec: String,
    pub(crate) report: Report,
    pub(crate) stats: Option<Stats>,
}

pub(crate) enum Report {
    /// One row per asserted property, in source order.
    Check(Vec<CheckedProp>),
    Explore {
        stats: StateSpaceStats,
        /// Schedule counts of lengths 1, 2, 4 and 8 (`None`: past
        /// `u128::MAX`).
        schedules: [Option<u128>; 4],
    },
    Simulate {
        policy: String,
        run: SimulationReport,
        universe: Universe,
    },
    Conformance {
        steps: usize,
        verdict: Verdict,
    },
    Statistical {
        options: SmcOptions,
        props: Vec<SampledProp>,
    },
    Lint {
        diagnostics: Vec<Diagnostic>,
        deny_warnings: bool,
    },
}

/// One exhaustively checked property, shown as `.mcc` syntax.
pub(crate) struct CheckedProp {
    pub(crate) prop: String,
    pub(crate) states: usize,
    pub(crate) status: CheckStatus,
}

pub(crate) enum CheckStatus {
    Holds,
    Violated {
        witness: Witness,
        minimized: Witness,
    },
    Undetermined,
}

/// One statistically checked property and its minimized witness.
pub(crate) struct SampledProp {
    pub(crate) prop: String,
    pub(crate) report: SmcReport,
    pub(crate) witness: Option<Witness>,
}

/// A schedule as both renderers print it: its length, and ` ; `-
/// separated steps of space-separated event names.
pub(crate) struct Witness {
    pub(crate) steps: usize,
    pub(crate) schedule: String,
}

impl Witness {
    fn new(schedule: &Schedule, universe: &Universe) -> Witness {
        let steps = schedule.len();
        let schedule = render_schedule(schedule, universe);
        Witness { steps, schedule }
    }
}

pub(crate) fn render_schedule(schedule: &Schedule, universe: &Universe) -> String {
    match schedule.to_lines(universe) {
        Ok(lines) => lines.trim_end().replace('\n', " ; "),
        // names with whitespace cannot round-trip as text: fall back
        // to the raw event-id rendering
        Err(_) => schedule.to_string(),
    }
}

/// The `--stats` reading: states visited (replayed steps, for
/// conformance) per second over the elapsed wall-clock time, plus the
/// explorer's frontier and interner figures for `explore`. Exploration
/// figures come from the explorer's gauges on the command's recorder.
pub(crate) struct Stats {
    pub(crate) states_per_sec: f64,
    pub(crate) elapsed_ms: f64,
    pub(crate) explore: Option<Frontier>,
}

/// The widest BFS level and the interner's fill, as the explorer last
/// published them.
pub(crate) struct Frontier {
    pub(crate) peak: usize,
    pub(crate) interned: usize,
    /// The load factor of the explorer's open-addressing tables:
    /// interned states per table position, at most `0.75` (a table
    /// doubles before it passes that).
    pub(crate) occupancy: f64,
}

impl Frontier {
    pub(crate) fn read(explorer: &Snapshot) -> Frontier {
        let interned = gauge(explorer, "explore_interner_keys");
        let buckets = gauge(explorer, "explore_interner_buckets");
        Frontier {
            peak: gauge(explorer, "explore_peak_frontier"),
            interned,
            occupancy: if buckets == 0 {
                0.0
            } else {
                interned as f64 / buckets as f64
            },
        }
    }
}

/// An explorer gauge from a recorder snapshot (0 until published).
pub(crate) fn gauge(explorer: &Snapshot, name: &str) -> usize {
    explorer.gauge(name).map_or(0, |v| v as usize)
}

/// How long the exploration that last published to `explorer` ran, up
/// to its terminal record.
pub(crate) fn explore_elapsed(explorer: &Snapshot) -> Duration {
    Duration::from_micros(explorer.gauge("explore_elapsed_us").unwrap_or(0))
}

/// `count` per second of `elapsed`; an instantaneous run reports 0
/// rather than dividing by zero.
pub(crate) fn per_sec(count: usize, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

impl Stats {
    fn new(states: usize, elapsed: Duration, explore: Option<Frontier>) -> Stats {
        Stats {
            states_per_sec: per_sec(states, elapsed),
            elapsed_ms: elapsed.as_secs_f64() * 1_000.0,
            explore,
        }
    }
}

impl Outcome {
    /// Whether the verdict went against the input: a violated property,
    /// a deadlocked simulation, a nonconforming trace, a failed lint.
    pub(crate) fn failed(&self) -> bool {
        match &self.report {
            Report::Check(props) => props
                .iter()
                .any(|p| matches!(p.status, CheckStatus::Violated { .. })),
            Report::Explore { .. } => false,
            Report::Simulate { run, .. } => run.deadlocked,
            Report::Conformance { verdict, .. } => !matches!(verdict, Verdict::Conforms),
            Report::Statistical { props, .. } => props
                .iter()
                .any(|p| p.witness.is_some() || p.report.verdict == SmcVerdict::AboveThreshold),
            Report::Lint {
                diagnostics,
                deny_warnings,
            } => {
                let (errors, warnings) = severities(diagnostics);
                errors > 0 || (*deny_warnings && warnings > 0)
            }
        }
    }

    /// The process exit code: `1` when [`failed`](Outcome::failed),
    /// else `0` (errors, exit `2`, produce no outcome).
    pub(crate) fn exit_code(&self) -> i32 {
        if self.failed() {
            crate::cli::EXIT_VIOLATED
        } else {
            crate::cli::EXIT_OK
        }
    }
}

/// Error and warning counts.
pub(crate) fn severities(diagnostics: &[Diagnostic]) -> (usize, usize) {
    let count = |severity| {
        diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    };
    (count(Severity::Error), count(Severity::Warn))
}

/// `path:line:col: message` — how every front end reports a spec that
/// does not parse or compile.
fn spec_error(label: &str, e: &LangError) -> String {
    let (line, column) = e.position();
    format!("{label}:{line}:{column}: {e}")
}

/// Reads the command's spec, compiles it with `compile` (the CLI
/// parses and compiles under recorder spans, the daemon goes through
/// its compiled-program cache), then runs the command. `run` carries
/// the recorder every phase span and explorer gauge goes to (`--stats`
/// reads it back), plus the sampler's progress hook and cancel flag.
pub(crate) fn execute(
    command: Command,
    compile: &mut dyn FnMut(&str) -> Result<Compiled, LangError>,
    run: &SmcRun<'_>,
    progress: &mut Progress,
) -> Result<Outcome, String> {
    let source = command.spec.read()?;
    let compiled = compile(&source).map_err(|e| spec_error(command.spec.label("spec"), &e))?;
    let observed = |options: ExploreOptions| options.with_recorder(run.recorder);
    let stats = command.stats;
    Ok(match command.op {
        Op::Check(options) => check(&compiled, &observed(options), stats, progress)?,
        Op::Explore(options) => explore(&compiled, &observed(options), stats, progress)?,
        Op::Simulate {
            steps,
            policy_name,
            policy,
        } => simulate(&compiled, steps, policy_name, policy, run.recorder)?,
        Op::Conformance(trace) => conformance(&compiled, &trace, stats, run.recorder)?,
        Op::Statistical(options) => statistical(&compiled, options, run)?,
        Op::Lint { deny_warnings } => {
            let path = command.spec.label(&compiled.name);
            lint(path, &source, deny_warnings, run.recorder)?
        }
    })
}

fn outcome(compiled: &Compiled, report: Report, stats: Option<Stats>) -> Outcome {
    let spec = compiled.name.clone();
    Outcome {
        spec,
        report,
        stats,
    }
}

/// `spec: message` — how a run that reached a state no policy or
/// explorer can index fails.
fn run_error(compiled: &Compiled, e: &KernelError) -> String {
    format!("{}: {e}", compiled.name)
}

fn check(
    compiled: &Compiled,
    options: &ExploreOptions,
    stats: bool,
    progress: &mut Progress,
) -> Result<Outcome, String> {
    let universe = compiled.universe();
    // one exploration decides every property; each row shows the
    // states its own decision took
    let check_options = CheckOptions::new()
        .with_explore(options.clone())
        .with_progress(progress);
    let report = moccml_verify::check(&compiled.program, &compiled.props, check_options);
    if let Some(e) = &report.error {
        return Err(run_error(compiled, e));
    }
    let props = compiled
        .props
        .iter()
        .zip(report.statuses)
        .zip(report.decided_at)
        .map(|((prop, status), states)| {
            let status = match status {
                PropStatus::Holds => CheckStatus::Holds,
                PropStatus::Violated(ce) => {
                    let minimized = {
                        let _span = options.recorder.span("minimize");
                        minimize_witness(&compiled.program, prop, &ce.schedule)
                    };
                    CheckStatus::Violated {
                        witness: Witness::new(&ce.schedule, universe),
                        minimized: Witness::new(&minimized, universe),
                    }
                }
                PropStatus::Undetermined => CheckStatus::Undetermined,
            };
            CheckedProp {
                prop: prop.display(universe),
                states,
                status,
            }
        })
        .collect();
    let stats = stats.then(|| {
        let elapsed = explore_elapsed(&options.recorder.snapshot());
        Stats::new(report.states_visited, elapsed, None)
    });
    Ok(outcome(compiled, Report::Check(props), stats))
}

/// Adapts a [`Progress`] closure to the explorer's visitor hook.
struct ProgressVisitor<'a, 'b> {
    progress: &'a mut Progress<'b>,
}

impl ExploreVisitor for ProgressVisitor<'_, '_> {
    fn on_progress(&mut self, states: usize, transitions: usize, depth: usize) -> VisitControl {
        (self.progress)(states, transitions, depth)
    }

    fn on_level_end(&mut self, depth: usize, graph: &StateGraph) -> VisitControl {
        // level boundaries are extra checkpoints: cheap, and they catch
        // deep-but-narrow spaces between interval ticks
        (self.progress)(graph.state_count(), graph.transition_count(), depth)
    }
}

fn explore(
    compiled: &Compiled,
    options: &ExploreOptions,
    stats: bool,
    progress: &mut Progress,
) -> Result<Outcome, String> {
    let mut visitor = ProgressVisitor { progress };
    let space = compiled.program.explore_with(options, &mut visitor);
    if let Some(e) = space.error() {
        return Err(run_error(compiled, e));
    }
    let report = Report::Explore {
        stats: space.stats(),
        schedules: {
            let counts = space.count_schedules_upto(8);
            [1, 2, 4, 8].map(|len| counts[len])
        },
    };
    let stats = stats.then(|| {
        let explorer = options.recorder.snapshot();
        let states = gauge(&explorer, "explore_states");
        let frontier = Frontier::read(&explorer);
        Stats::new(states, explore_elapsed(&explorer), Some(frontier))
    });
    Ok(outcome(compiled, report, stats))
}

fn simulate(
    compiled: &Compiled,
    steps: usize,
    policy: String,
    boxed: Box<dyn Policy>,
    recorder: &Recorder,
) -> Result<Outcome, String> {
    // reuse the already compiled program (and its local-state tables)
    // instead of recompiling the specification into a second one
    let mut engine = Engine::from_program(&compiled.program)
        .policy_boxed(boxed)
        .build();
    let run = {
        let _span = recorder.span("simulate");
        engine.try_run(steps)
    };
    let run = run.map_err(|e| run_error(compiled, &e))?;
    let universe = compiled.universe().clone();
    let report = Report::Simulate {
        policy,
        run,
        universe,
    };
    Ok(outcome(compiled, report, None))
}

fn conformance(
    compiled: &Compiled,
    trace: &Input,
    stats: bool,
    recorder: &Recorder,
) -> Result<Outcome, String> {
    let text = trace.read()?;
    let schedule = Schedule::parse_lines(&text, compiled.universe())
        .map_err(|e| format!("{}: {e}", trace.label("trace")))?;
    let started = Instant::now();
    let verdict = {
        let _span = recorder.span("conformance");
        moccml_verify::conformance(&compiled.program, &schedule)
    };
    let steps = schedule.len();
    let throughput = Stats::new(steps, started.elapsed(), None);
    let report = Report::Conformance { steps, verdict };
    Ok(outcome(compiled, report, stats.then_some(throughput)))
}

fn statistical(
    compiled: &Compiled,
    options: SmcOptions,
    run: &SmcRun<'_>,
) -> Result<Outcome, String> {
    let universe = compiled.universe();
    let reports = check_statistical_observed(&compiled.program, &compiled.props, &options, run);
    if let Some(e) = reports.iter().find_map(|r| r.error.as_ref()) {
        return Err(run_error(compiled, e));
    }
    let props = compiled
        .props
        .iter()
        .zip(reports)
        .map(|(prop, report)| SampledProp {
            prop: prop.display(universe),
            // the verify layer already replay-validated and minimized
            // the report's witness
            witness: report
                .witness
                .as_ref()
                .map(|ce| Witness::new(&ce.schedule, universe)),
            report,
        })
        .collect();
    Ok(outcome(
        compiled,
        Report::Statistical { options, props },
        None,
    ))
}

fn lint(path: &str, source: &str, deny: bool, recorder: &Recorder) -> Result<Outcome, String> {
    let diagnostics = {
        let _span = recorder.span("lint");
        moccml_analyze::analyze_str(source).map_err(|e| spec_error(path, &e))?
    };
    Ok(Outcome {
        spec: path.to_owned(),
        report: Report::Lint {
            diagnostics,
            deny_warnings: deny,
        },
        stats: None,
    })
}

/// `check`: verifies every `assert`ed property in one exploration,
/// streaming progress through `progress`. Each property's `states` is
/// the state count where its own verdict was decided.
///
/// Shape: `{"kind":"check","spec",…,"properties":[{"prop","status":
/// "holds"|"violated"|"undetermined","states",…,"witness"?,
/// "minimized"?}],"violated":bool}`.
///
/// # Errors
///
/// Returns a message when a reached state admits more steps than the
/// explorer can index.
pub fn check_json(
    compiled: &Compiled,
    options: &ExploreOptions,
    progress: &mut Progress,
) -> Result<Json, String> {
    check(compiled, options, false, progress).map(|o| o.to_json())
}

/// `explore`: builds the state-space and reports the PAM metrics plus
/// the schedule counts of lengths 1/2/4/8 (counts past `i64` range are
/// encoded as decimal strings).
///
/// # Errors
///
/// Returns a message when a reached state admits more steps than the
/// explorer can index.
pub fn explore_json(
    compiled: &Compiled,
    options: &ExploreOptions,
    progress: &mut Progress,
) -> Result<Json, String> {
    explore(compiled, options, false, progress).map(|o| o.to_json())
}

/// `simulate`: runs a policy-driven simulation for `steps` steps.
///
/// # Errors
///
/// Returns a message when `policy` is not a known policy name, or when
/// a reached state admits more steps than a policy can index.
pub fn simulate_json(
    compiled: &Compiled,
    steps: usize,
    policy: &str,
    seed: u64,
) -> Result<Json, String> {
    let boxed = boxed_policy(policy, seed)?;
    let name = policy.to_owned();
    simulate(compiled, steps, name, boxed, &Recorder::disabled()).map(|o| o.to_json())
}

/// `conformance`: replays a recorded trace (the plain-text
/// `Schedule::parse_lines` format) against the spec.
///
/// # Errors
///
/// Returns a message when the trace does not parse against the spec's
/// universe.
pub fn conformance_json(compiled: &Compiled, trace: &str) -> Result<Json, String> {
    let trace = Input::Inline(trace.to_owned());
    conformance(compiled, &trace, false, &Recorder::disabled()).map(|o| o.to_json())
}

/// `lint`: runs the static analyzer on `source`, naming the spec
/// `spec_name`; `failed` applies the CLI's exit-code rule (errors
/// always fail, warnings only under `deny_warnings`).
///
/// # Errors
///
/// Returns a `name:line:column` message when the spec does not parse
/// or compile.
pub fn lint_json(spec_name: &str, source: &str, deny_warnings: bool) -> Result<Json, String> {
    lint(spec_name, source, deny_warnings, &Recorder::disabled()).map(|o| o.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Method, RequestOptions};

    const ALT: &str = "spec alt {\n  events a, b;\n  constraint alt = alternates(a, b);\n  assert never((a && b));\n  assert never(b);\n}\n";

    fn compiled() -> Compiled {
        moccml_lang::compile_str(ALT).expect("compiles")
    }

    fn statistical(options: &RequestOptions) -> Result<Command, String> {
        Command::new(
            Method::Smc,
            Input::Inline(ALT.to_owned()),
            None,
            options,
            None,
        )
    }

    fn smc_json(options: &RequestOptions) -> Json {
        let command = statistical(options).expect("valid knobs");
        let recorder = Recorder::disabled();
        execute(
            command,
            &mut moccml_lang::compile_str,
            &SmcRun::new(&recorder),
            &mut no_progress(),
        )
        .expect("runs")
        .to_json()
    }

    #[test]
    fn check_json_matches_the_text_verdicts() {
        let c = compiled();
        let json = check_json(&c, &ExploreOptions::default(), &mut no_progress()).expect("checks");
        assert_eq!(json.get("kind").and_then(Json::as_str), Some("check"));
        assert_eq!(json.get("violated").and_then(Json::as_bool), Some(true));
        let props = json
            .get("properties")
            .and_then(Json::as_arr)
            .expect("array");
        assert_eq!(props.len(), 2);
        assert_eq!(props[0].get("status").and_then(Json::as_str), Some("holds"));
        let violated = &props[1];
        assert_eq!(
            violated.get("status").and_then(Json::as_str),
            Some("violated")
        );
        let witness = violated.get("witness").expect("witness");
        assert_eq!(witness.get("steps").and_then(Json::as_i64), Some(2));
        assert_eq!(
            witness.get("schedule").and_then(Json::as_str),
            Some("a ; b"),
            "schedule rendering matches the text CLI"
        );
        assert!(violated.get("minimized").is_some());
    }

    #[test]
    fn check_json_stopped_early_reports_undetermined() {
        let c = compiled();
        let mut stop = |_: usize, _: usize, _: usize| VisitControl::Stop;
        let json = check_json(&c, &ExploreOptions::default(), &mut stop).expect("checks");
        let props = json
            .get("properties")
            .and_then(Json::as_arr)
            .expect("array");
        for p in props {
            assert_eq!(
                p.get("status").and_then(Json::as_str),
                Some("undetermined"),
                "a stopped check never invents a verdict"
            );
        }
    }

    #[test]
    fn explore_json_reports_the_pam_metrics() {
        let c = compiled();
        let json =
            explore_json(&c, &ExploreOptions::default(), &mut no_progress()).expect("explores");
        assert_eq!(json.get("states").and_then(Json::as_i64), Some(2));
        assert_eq!(json.get("truncated").and_then(Json::as_bool), Some(false));
        let schedules = json.get("schedules").and_then(Json::as_arr).expect("array");
        assert_eq!(schedules.len(), 4);
        assert_eq!(schedules[0].get("count").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn simulate_and_conformance_round_trip() {
        let c = compiled();
        let sim = simulate_json(&c, 4, "lexicographic", 42).expect("simulates");
        assert_eq!(sim.get("steps_taken").and_then(Json::as_i64), Some(4));
        assert_eq!(
            sim.get("schedule").and_then(Json::as_str),
            Some("a ; b ; a ; b")
        );
        assert!(simulate_json(&c, 1, "bogus", 0).is_err());

        let good = conformance_json(&c, "a\nb\n").expect("parses");
        assert_eq!(good.get("verdict").and_then(Json::as_str), Some("conforms"));
        let bad = conformance_json(&c, "a\na\n").expect("parses");
        assert_eq!(bad.get("verdict").and_then(Json::as_str), Some("violation"));
        assert_eq!(bad.get("step").and_then(Json::as_i64), Some(1));
        assert!(conformance_json(&c, "a\nzzz\n").is_err());
    }

    #[test]
    fn smc_json_estimates_and_carries_minimized_witnesses() {
        let json = smc_json(&RequestOptions {
            epsilon: Some(0.1),
            delta: Some(0.05),
            seed: Some(7),
            workers: Some(2),
            ..RequestOptions::default()
        });
        assert_eq!(json.get("kind").and_then(Json::as_str), Some("smc"));
        assert_eq!(
            json.get("mode").and_then(Json::as_str),
            Some("fixed-sample")
        );
        assert_eq!(json.get("samples").and_then(Json::as_i64), Some(185));
        assert_eq!(json.get("violated").and_then(Json::as_bool), Some(true));
        let props = json
            .get("properties")
            .and_then(Json::as_arr)
            .expect("array");
        assert_eq!(props.len(), 2);
        // never((a && b)) holds on every sampled trace
        assert_eq!(
            props[0].get("verdict").and_then(Json::as_str),
            Some("estimated")
        );
        assert_eq!(props[0].get("violations").and_then(Json::as_i64), Some(0));
        assert!(props[0].get("witness").is_none());
        // never(b) is violated on every trace: estimate 1, witness `b`
        assert_eq!(props[1].get("estimate").and_then(Json::as_f64), Some(1.0));
        let witness = props[1].get("witness").expect("witness");
        assert_eq!(
            witness.get("schedule").and_then(Json::as_str),
            Some("a ; b"),
            "minimized witness in the shared schedule rendering"
        );

        // sequential mode names its threshold and decides
        let json = smc_json(&RequestOptions {
            epsilon: Some(0.1),
            delta: Some(0.05),
            prob_threshold: Some(0.5),
            seed: Some(7),
            ..RequestOptions::default()
        });
        assert_eq!(json.get("mode").and_then(Json::as_str), Some("sequential"));
        assert_eq!(json.get("threshold").and_then(Json::as_f64), Some(0.5));
        let props = json
            .get("properties")
            .and_then(Json::as_arr)
            .expect("array");
        assert_eq!(
            props[0].get("verdict").and_then(Json::as_str),
            Some("below-threshold")
        );
        assert_eq!(
            props[1].get("verdict").and_then(Json::as_str),
            Some("above-threshold")
        );
    }

    #[test]
    fn smc_options_reject_out_of_range_knobs() {
        let knobs = |o: RequestOptions| statistical(&o).map(|_| ());
        assert!(knobs(RequestOptions {
            epsilon: Some(0.0),
            ..RequestOptions::default()
        })
        .is_err());
        assert!(knobs(RequestOptions {
            delta: Some(1.0),
            ..RequestOptions::default()
        })
        .is_err());
        assert!(knobs(RequestOptions {
            prob_threshold: Some(-0.5),
            ..RequestOptions::default()
        })
        .is_err());
        assert!(knobs(RequestOptions {
            max_trace_len: Some(0),
            ..RequestOptions::default()
        })
        .is_err());
        // zero workers clamp up instead of erroring (mirrors serve)
        let clamped = statistical(&RequestOptions {
            workers: Some(0),
            ..RequestOptions::default()
        })
        .expect("clamps");
        let Op::Statistical(options) = clamped.op else {
            panic!("a statistical command");
        };
        assert_eq!(options.workers, 1);
    }

    #[test]
    fn lint_json_wraps_the_analyzer() {
        const WARNY: &str = "spec s {\n  events a, b, orphan;\n  constraint c = alternates(a, b);\n  assert never((a && b));\n}\n";
        let json = lint_json("s.mcc", WARNY, false).expect("analyzes");
        assert_eq!(json.get("warnings").and_then(Json::as_i64), Some(1));
        assert_eq!(json.get("failed").and_then(Json::as_bool), Some(false));
        let denied = lint_json("s.mcc", WARNY, true).expect("analyzes");
        assert_eq!(denied.get("failed").and_then(Json::as_bool), Some(true));
        let diags = json
            .get("diagnostics")
            .and_then(Json::as_arr)
            .expect("array");
        assert!(!diags.is_empty());
        assert!(lint_json("s.mcc", "spec broken {", false).is_err());
    }
}
