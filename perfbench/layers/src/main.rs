//! Per-layer timing harness of the MoCCML benchmark.
//!
//! Times the public calls of each layer — `lang`, `engine`,
//! `explorer`, `verify`, `smc`, `analyze`, `serve` — from outside the
//! program, on the inputs the benchmark runner generated, and prints
//! one JSON object on stdout: `metrics` (the per-layer metrics) and
//! `raw` (the timings the runner's layer table is computed from).
//! Every measured call runs inside a span of a [`Recorder`] owned by
//! this harness; the spans stay in memory and are written to `--spans`
//! at the end. Nothing is instrumented inside the program.
//!
//! ```text
//! layers --lang F --cube F --drift F --pam F --verif F --trace F \
//!        --mix F --seed N --smc-epsilon E --spans OUT
//! ```
//!
//! `--mix` is a file of serve request lines (one JSON object each).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::slice;
use std::time::Instant;

use moccml_engine::{ExploreOptions, SolverOptions};
use moccml_lang::Compiled;
use moccml_obs::Recorder;
use moccml_serve::{ops, Json, Service, ServiceConfig, SpecCache};
use moccml_smc::{check_statistical, SmcOptions};
use moccml_verify::{check_props, minimize_witness, PropStatus};

/// Exploration bound for the cube (47^3 = 103,823 states fit).
const CUBE_MAX_STATES: usize = 200_000;
/// Reachable cube states sampled for the engine timings.
const ENGINE_SAMPLE: usize = 2_000;
/// Statistical-check settings of the `drift_smc` workload (its ε is
/// passed in by the runner).
const SMC_DELTA: f64 = 0.05;
const SMC_TRACE_LEN: usize = 64;
/// Repetitions of the sub-millisecond calls (medians are reported).
const REPS: usize = 40;
/// Linux page size, for `/proc/self/statm`.
const PAGE_BYTES: f64 = 4096.0;

fn main() {
    let args = parse_args();
    let arg = |key: &str| -> &str {
        args.get(key)
            .unwrap_or_else(|| panic!("missing --{key}"))
            .as_str()
    };
    let read = |key: &str| -> String {
        let path = arg(key);
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
    };
    let seed: u64 = arg("seed").parse().expect("--seed is a u64");
    let epsilon: f64 = arg("smc-epsilon")
        .parse()
        .expect("--smc-epsilon is a number");
    let inputs = Inputs {
        lang: read("lang"),
        cube: read("cube"),
        drift: read("drift"),
        pam: read("pam"),
        verif: read("verif"),
        trace: read("trace"),
        mix: read("mix").lines().map(str::to_owned).collect(),
    };

    let rec = Recorder::new();
    let mut out = Out::default();
    {
        let _span = rec.span("lang");
        lang(&rec, &mut out, &inputs.lang);
    }
    {
        let _span = rec.span("cube");
        cube(&rec, &mut out, &inputs.cube, seed);
    }
    {
        let _span = rec.span("pam");
        pam(&rec, &mut out, &inputs.pam);
    }
    {
        let _span = rec.span("drift");
        drift(&rec, &mut out, &inputs.drift, seed, epsilon);
    }
    {
        let _span = rec.span("serve");
        serve(&rec, &mut out, &inputs);
    }
    write_spans(&rec, arg("spans"));
    println!("{}", out.to_json());
}

struct Inputs {
    lang: String,
    cube: String,
    drift: String,
    pam: String,
    verif: String,
    trace: String,
    mix: Vec<String>,
}

/// `--key value` pairs.
fn parse_args() -> BTreeMap<String, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    argv.chunks(2)
        .map(|pair| {
            let key = pair[0].strip_prefix("--").expect("flags look like --key");
            let value = pair
                .get(1)
                .unwrap_or_else(|| panic!("--{key} needs a value"));
            (key.to_owned(), value.clone())
        })
        .collect()
}

/// Named readings: `metrics` are the benchmark's per-layer metrics,
/// `raw` the inputs of the runner's layer table.
#[derive(Default)]
struct Out {
    metrics: Vec<(&'static str, f64)>,
    raw: Vec<(&'static str, f64)>,
}

impl Out {
    fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn raw(&mut self, name: &'static str, value: f64) {
        self.raw.push((name, value));
    }

    fn to_json(&self) -> String {
        let object = |pairs: &[(&str, f64)]| {
            let members: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", finite(*v)))
                .collect();
            format!("{{{}}}", members.join(","))
        };
        format!(
            "{{\"metrics\":{},\"raw\":{}}}",
            object(&self.metrics),
            object(&self.raw)
        )
    }
}

fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `f` once inside a span named `name`; returns its value and
/// wall seconds.
fn timed<T>(rec: &Recorder, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = rec.span(name);
    let start = Instant::now();
    let value = black_box(f());
    (value, start.elapsed().as_secs_f64())
}

/// Median wall seconds of `n` calls `f(0..n)`, each in its own span.
fn per_call<T>(rec: &Recorder, name: &str, n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    median((0..n).map(|i| timed(rec, name, || f(i)).1).collect())
}

fn compile(text: &str) -> Compiled {
    moccml_lang::compile_str(text).expect("benchmark inputs compile")
}

/// Resident set size of this process, in bytes.
fn rss_bytes() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("/proc/self/statm");
    let pages: f64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm resident field");
    pages * PAGE_BYTES
}

/// SplitMix64, for the seeded state sample and random walks.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next() % n as u64).expect("index fits usize")
    }
}

/// `lang`: parse and compile the workload's own spec text.
fn lang(rec: &Recorder, out: &mut Out, text: &str) {
    let parse = per_call(rec, "lang.parse", REPS * 5, |_| {
        moccml_lang::parse_spec(text).expect("parses")
    });
    let ast = moccml_lang::parse_spec(text).expect("parses");
    let compile = per_call(rec, "lang.compile", REPS * 5, |_| {
        moccml_lang::compile(&ast).expect("compiles")
    });
    out.metric("lang.parse_us", parse * 1e6);
    out.metric("lang.compile_us", compile * 1e6);
}

/// `engine`, `explorer` and the cube half of `verify`: every timing
/// that needs a cold program memo compiles the cube afresh, as each
/// `moccml check` invocation does.
fn cube(rec: &Recorder, out: &mut Out, text: &str, seed: u64) {
    let serial = ExploreOptions::default()
        .with_max_states(CUBE_MAX_STATES)
        .with_workers(1);
    let fresh = compile(text);
    let before = rss_bytes();
    let (space, explore_w1) = timed(rec, "explorer.explore_w1", || {
        fresh.program.explore(&serial)
    });
    let held = rss_bytes() - before;
    let states = space.stats().states;
    out.raw("cube_states", states as f64);

    // engine: restore / enumerate / fire / state_key over a seeded
    // sample of reachable states, on a cold program
    let mut rng = Rng(seed ^ 0xC0BE);
    let sample: Vec<_> = (0..ENGINE_SAMPLE)
        .map(|_| space.states()[rng.below(states)].clone())
        .collect();
    drop(space);
    let solver = SolverOptions::default();
    let cold = compile(text);
    let mut cursor = cold.program.cursor();
    let (mut restore, mut enumerate, mut fire, mut key) = (0.0, 0.0, 0.0, 0.0);
    let (mut fires, mut steps_total) = (0usize, 0usize);
    {
        let _span = rec.span("engine.sample");
        for state in &sample {
            let t = Instant::now();
            cursor.restore(state).expect("sampled key restores");
            restore += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let steps = black_box(cursor.acceptable_steps(&solver));
            enumerate += t.elapsed().as_secs_f64();
            steps_total += steps.len();
            for step in &steps {
                cursor.restore(state).expect("sampled key restores");
                let t = Instant::now();
                cursor.fire(step).expect("acceptable step fires");
                fire += t.elapsed().as_secs_f64();
                let t = Instant::now();
                black_box(cursor.state_key());
                key += t.elapsed().as_secs_f64();
                fires += 1;
            }
        }
    }
    let lookups = (cursor.memo_hits() + cursor.memo_misses()).max(1);
    let n = sample.len() as f64;
    out.metric("engine.restore_ns", restore / n * 1e9);
    out.metric("engine.enumerate_ns", enumerate / n * 1e9);
    out.metric("engine.fire_ns", fire / fires.max(1) as f64 * 1e9);
    out.metric("engine.state_key_ns", key / fires.max(1) as f64 * 1e9);
    out.metric("engine.steps_per_state", steps_total as f64 / n);
    out.metric(
        "engine.memo_miss_ratio",
        cursor.memo_misses() as f64 / lookups as f64,
    );
    let cold = compile(text);
    let mut cursor = cold.program.cursor();
    let (_, expand) = timed(rec, "engine.expand", || {
        for state in &sample {
            black_box(cursor.expand(state, &solver).expect("sampled key expands"));
        }
    });
    let expand_ns = expand / n * 1e9;
    out.metric("engine.expand_ns", expand_ns);

    // explorer at 2 workers: timed as the CLI runs it (no recorder),
    // cold then warm memo as for its two properties; the steal and
    // replay counters come from a third, recorded run
    let parallel = ExploreOptions::default()
        .with_max_states(CUBE_MAX_STATES)
        .with_workers(2);
    let fresh = compile(text);
    let (_, explore_cold) = timed(rec, "explorer.explore_w2", || {
        fresh.program.explore(&parallel)
    });
    let (_, explore_warm) = timed(rec, "explorer.explore_w2", || {
        fresh.program.explore(&parallel)
    });
    let obs = Recorder::new();
    let recorded = parallel.clone().with_recorder(&obs);
    let fresh = compile(text);
    timed(rec, "explorer.explore_w2_recorded", || {
        fresh.program.explore(&recorded)
    });
    let snap = obs.snapshot();
    let attempts = snap.counter_sum("explore_steal_attempts_w");
    out.metric("explorer.explore_w1_s", explore_w1);
    out.metric("explorer.explore_w2_s", explore_cold);
    out.metric("explorer.speedup_w2", explore_w1 / explore_cold);
    out.metric(
        "explorer.non_expand_share",
        1.0 - states as f64 * expand_ns / (explore_w1 * 1e9),
    );
    out.metric("explorer.bytes_per_state", held / states as f64);
    out.metric(
        "explorer.steal_hit_ratio",
        snap.counter_sum("explore_steal_hits_w") as f64 / attempts.max(1) as f64,
    );
    out.metric(
        "explorer.replay_cache_peak",
        snap.gauge("explore_replay_cache_peak").unwrap_or(0) as f64,
    );

    // verify: one check_props per property on one program (the CLI's
    // loop), against one exploration per property on another
    let checked = compile(text);
    let mut check = 0.0;
    for prop in &checked.props {
        let (report, secs) = timed(rec, "verify.check_props", || {
            check_props(&checked.program, slice::from_ref(prop), &parallel)
        });
        assert!(
            matches!(report.statuses[0], PropStatus::Holds),
            "cube properties hold"
        );
        check += secs;
    }
    let explores = explore_cold + explore_warm;
    out.metric("verify.monitor_overhead_s", check - explores);
    out.raw("cube_check_s", check);
    out.raw("cube_explore_s", explores);
}

/// PAM: engine expansion over its 32 states, the verify and analyze
/// calls of a `check`/`lint` request, and the explore operation.
fn pam(rec: &Recorder, out: &mut Out, text: &str) {
    let compiled = compile(text);
    let daemon = ExploreOptions::default().with_workers(1);
    let space = compiled.program.explore(&daemon);
    let solver = SolverOptions::default();
    let mut cursor = compiled.program.cursor();
    let expand = per_call(rec, "engine.pam_expand", REPS, |_| {
        for state in space.states() {
            black_box(cursor.expand(state, &solver).expect("pam state expands"));
        }
    });
    out.metric(
        "engine.pam_expand_ns",
        expand / space.states().len() as f64 * 1e9,
    );
    let explore = per_call(rec, "explorer.pam_explore", REPS, |_| {
        compiled.program.explore(&daemon)
    });
    out.raw("pam_explore_us", explore * 1e6);
    out.raw("pam_states", space.states().len() as f64);

    let mut checks = Vec::with_capacity(REPS);
    let mut minimizes = Vec::with_capacity(REPS);
    let mut visited = 0;
    for _ in 0..REPS {
        let (mut check, mut minimize) = (0.0, 0.0);
        visited = 0;
        for prop in &compiled.props {
            let (report, secs) = timed(rec, "verify.check_props", || {
                check_props(&compiled.program, slice::from_ref(prop), &daemon)
            });
            check += secs;
            visited += report.states_visited;
            if let PropStatus::Violated(ce) = &report.statuses[0] {
                minimize += timed(rec, "verify.minimize_witness", || {
                    minimize_witness(&compiled.program, prop, &ce.schedule)
                })
                .1;
            }
        }
        checks.push(check);
        minimizes.push(minimize);
    }
    out.metric("verify.check_us", median(checks) * 1e6);
    out.metric("verify.minimize_us", median(minimizes) * 1e6);
    out.metric("verify.states_visited", visited as f64);

    let lint = per_call(rec, "analyze.analyze_str", REPS, |_| {
        moccml_analyze::analyze_str(text).expect("pam lints")
    });
    out.metric("analyze.lint_us", lint * 1e6);
}

/// Drift: the engine's per-step cost on random walks, and the
/// statistical checker at 1 and 2 workers.
fn drift(rec: &Recorder, out: &mut Out, text: &str, seed: u64, epsilon: f64) {
    let compiled = compile(text);
    let solver = SolverOptions::default();
    let mut cursor = compiled.program.cursor();
    let mut rng = Rng(seed ^ 0xD81F);
    let walks = 200;
    let (_, walk) = timed(rec, "engine.drift_walk", || {
        for _ in 0..walks {
            cursor.reset();
            for _ in 0..SMC_TRACE_LEN {
                let steps = cursor.acceptable_steps(&solver);
                let step = &steps[rng.below(steps.len())];
                cursor.fire(step).expect("acceptable step fires");
            }
        }
    });
    out.metric(
        "engine.drift_step_ns",
        walk / (walks * SMC_TRACE_LEN) as f64 * 1e9,
    );

    let options = SmcOptions::default()
        .with_epsilon(epsilon)
        .with_delta(SMC_DELTA)
        .with_max_trace_len(SMC_TRACE_LEN)
        .with_seed(seed);
    // deadlock-free: drift never deadlocks, so every trace runs the
    // full SMC_TRACE_LEN steps
    let prop = &compiled.props[0];
    let (report, serial) = timed(rec, "smc.check_statistical_w1", || {
        check_statistical(&compiled.program, prop, &options.clone().with_workers(1))
    });
    let (_, parallel) = timed(rec, "smc.check_statistical_w2", || {
        check_statistical(&compiled.program, prop, &options.clone().with_workers(2))
    });
    let traces = report.traces as f64;
    out.metric("smc.trace_us", serial / traces * 1e6);
    out.metric("smc.steps_per_s", traces * SMC_TRACE_LEN as f64 / serial);
    out.metric("smc.speedup_w2", serial / parallel);
    out.raw("smc_deadlock_free_s", serial);
    out.raw("smc_deadlock_free_traces", traces);

    // every property, as one `moccml check --statistical` run does
    let fresh = compile(text);
    let (_, all) = timed(rec, "smc.check_statistical_all", || {
        for prop in &fresh.props {
            black_box(check_statistical(
                &fresh.program,
                prop,
                &options.clone().with_workers(1),
            ));
        }
    });
    out.raw("smc_all_s", all);
}

/// `serve`: the JSON codec, the spec cache, the `ops` encoders and
/// in-process `Service::call` over the workload's request lines.
fn serve(rec: &Recorder, out: &mut Out, inputs: &Inputs) {
    let lines = &inputs.mix;
    let json_parse = per_call(rec, "serve.json_parse", lines.len(), |i| {
        Json::parse(&lines[i]).expect("request lines are JSON")
    });
    out.metric("serve.json_parse_us", json_parse * 1e6);

    let variants: Vec<String> = {
        let mut seen = std::collections::BTreeSet::new();
        lines
            .iter()
            .filter_map(|l| {
                let v = Json::parse(l).ok()?;
                (v.get("method")?.as_str()? == "check")
                    .then(|| v.get("spec")?.as_str().map(str::to_owned))?
            })
            .filter(|spec| *spec != inputs.pam && seen.insert(spec.clone()))
            .collect()
    };
    assert!(!variants.is_empty(), "the mix holds cache-missing checks");
    let mut cache = SpecCache::new(32);
    cache.get_or_compile(&inputs.pam).expect("pam compiles");
    let hit = per_call(rec, "serve.cache_hit", REPS, |_| {
        let (compiled, hit) = cache.get_or_compile(&inputs.pam).expect("pam compiles");
        assert!(hit, "second lookup hits");
        compiled
    });
    let misses = variants.len().min(REPS);
    let miss = per_call(rec, "serve.cache_miss", misses, |i| {
        let (compiled, hit) = cache
            .get_or_compile(&variants[i])
            .expect("variant compiles");
        assert!(!hit, "distinct variants miss");
        compiled
    });
    out.metric("serve.cache_hit_us", hit * 1e6);
    out.metric("serve.cache_miss_us", miss * 1e6);

    // the daemon's per-job explore options
    let daemon = ExploreOptions::default().with_workers(1);
    let pam = compile(&inputs.pam);
    let check = per_call(rec, "serve.op_check", REPS, |_| {
        ops::check_json(&pam, &daemon, &mut ops::no_progress())
    });
    // a cache miss checks on a freshly compiled program: cold memo
    let cold = median(
        variants[..misses]
            .iter()
            .map(|variant| {
                let fresh = compile(variant);
                timed(rec, "serve.op_check_cold", || {
                    ops::check_json(&fresh, &daemon, &mut ops::no_progress())
                })
                .1
            })
            .collect(),
    );
    let explore = per_call(rec, "serve.op_explore", REPS, |_| {
        ops::explore_json(&pam, &daemon, &mut ops::no_progress())
    });
    let simulate = per_call(rec, "serve.op_simulate", REPS, |i| {
        ops::simulate_json(&pam, 200, "random", i as u64).expect("known policy")
    });
    let verif = compile(&inputs.verif);
    let conformance = per_call(rec, "serve.op_conformance", REPS, |_| {
        ops::conformance_json(&verif, &inputs.trace).expect("trace parses")
    });
    let lint = per_call(rec, "serve.op_lint", REPS, |_| {
        ops::lint_json(&pam.name, &inputs.pam, false).expect("pam lints")
    });
    out.metric("serve.op_check_us", check * 1e6);
    out.metric("serve.op_simulate_us", simulate * 1e6);
    out.metric("serve.op_conformance_us", conformance * 1e6);
    out.metric("serve.op_lint_us", lint * 1e6);
    out.raw("op_check_cold_us", cold * 1e6);
    out.raw("op_explore_us", explore * 1e6);

    // in-process service: the whole request path minus the transport
    let service = Service::new(ServiceConfig::default());
    let mut per_method: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut encode = Vec::with_capacity(lines.len());
    let mut total = 0.0;
    for line in lines {
        let method = Json::parse(line)
            .ok()
            .and_then(|v| v.get("method").and_then(Json::as_str).map(str::to_owned))
            .expect("request names a method");
        let (events, secs) = timed(rec, "serve.inproc_call", || service.call(line));
        total += secs;
        per_method.entry(method).or_default().push(secs);
        let terminal = events.last().expect("a terminal event");
        assert_eq!(
            terminal.get("event").and_then(Json::as_str),
            Some("result"),
            "in-process request succeeds: {}",
            terminal.to_line()
        );
        encode.push(timed(rec, "serve.json_encode", || terminal.to_line()).1);
    }
    out.metric("serve.json_encode_us", median(encode) * 1e6);
    out.metric("serve.inproc_call_us", total / lines.len() as f64 * 1e6);
    for (method, name) in [
        ("check", "serve.inproc_check_us"),
        ("simulate", "serve.inproc_simulate_us"),
        ("conformance", "serve.inproc_conformance_us"),
        ("lint", "serve.inproc_lint_us"),
        ("explore", "serve.inproc_explore_us"),
    ] {
        let samples = per_method.remove(method).unwrap_or_default();
        let value = if samples.is_empty() {
            f64::NAN
        } else {
            median(samples) * 1e6
        };
        out.metric(name, value);
    }
    let status = service.call(r#"{"id":"perfbench-status","method":"status"}"#);
    let cache = status
        .last()
        .and_then(|e| e.get("result"))
        .and_then(|r| r.get("cache"))
        .expect("status reports the cache");
    let count = |key: &str| cache.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    out.metric(
        "serve.cache_hit_ratio",
        count("hits") / (count("hits") + count("misses")).max(1.0),
    );
    service.shutdown();
}

/// Writes the recorder's spans as a JSON array of
/// `{name, start_us, dur_us, parent, tid}` objects.
fn write_spans(rec: &Recorder, path: &str) {
    let snap = rec.snapshot();
    let mut text = String::from("[");
    for (i, span) in snap.spans.iter().enumerate() {
        if i > 0 {
            text.push_str(",\n");
        }
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        write!(
            text,
            "{{\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"parent\":{},\"tid\":{}}}",
            span.name, span.start_us, span.dur_us, parent, span.tid
        )
        .expect("writing to a String");
    }
    text.push_str("]\n");
    std::fs::write(path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
}
