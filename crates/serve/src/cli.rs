//! The `moccml` command-line interface (see [`run`] and `moccml help`).
//! Verification subcommands take the same path as daemon jobs: the
//! argument list becomes a validated command, the shared executor runs
//! it, and the text or JSON renderer prints the outcome — so
//! `--format json` prints exactly a daemon `result` payload.
//!
//! Exit codes are uniform across every subcommand and both formats:
//! `0` success (all properties hold, trace conforms, clean lint,
//! client session all-green), `1` a verdict went against the input (a
//! violated property, nonconforming trace, deadlocked simulation,
//! denied lint, failed session), `2` usage, I/O, parse or compilation
//! errors. `crates/serve/tests/cli_exit_codes.rs` pins all three on
//! the installed binary.

use crate::command::{Argv, Command, Format};
use crate::ops;
use crate::server;
use crate::service::ServiceConfig;
use moccml_obs::Recorder;
use moccml_smc::SmcRun;
use std::fmt::Write as _;

/// Exit code: success (all properties hold / trace conforms).
pub const EXIT_OK: i32 = 0;
/// Exit code: a property, trace or simulation was violated.
pub const EXIT_VIOLATED: i32 = 1;
/// Exit code: usage, I/O, parse or compilation error.
pub const EXIT_ERROR: i32 = 2;

pub(crate) const USAGE: &str = "\
usage: moccml check|explore|simulate <spec.mcc> [options]
usage: moccml conformance <spec.mcc> <trace> [options]
usage: moccml lint <spec.mcc> [--deny warnings] [--format text|json]
usage: moccml serve [--listen ADDR] [--workers N] [--cache-capacity K] [--queue-depth Q]
usage: moccml client <ADDR> <script.jsonl>

commands:
  check        verify every `assert`ed property of the spec
  check --statistical
               Monte-Carlo trace sampling (Okamoto budget, or Wald's SPRT
               with --prob-threshold) instead of exhaustive exploration
  explore      build the scheduling state-space and print its metrics
  simulate     run a simulation and print the schedule
  conformance  replay a recorded schedule
  lint         static analysis
  serve        run the verification daemon (NDJSON over TCP)
  client       run a scripted session against a daemon

options (the subcommands they apply to):
  --workers N          check, explore, serve: worker threads (default: all
                       cores; results are identical for every value); an
                       exploration counts the calling thread among them
  --max-states N       check, explore: exploration bound (default 100000)
  --max-depth N        check, explore: BFS depth bound (default: unbounded)
  --stats              check, explore, conformance: append throughput
  --steps N            simulate: steps (default 20)
  --policy P           simulate: lexicographic | random | max-parallel |
                       min-serial | safe (default lexicographic)
  --seed N             simulate: random-policy seed (default 42);
                       check --statistical: sampler seed
  --epsilon E, --delta D, --prob-threshold P, --max-trace-len N
                       check --statistical: half-width, error bound, SPRT
                       threshold, per-trace length cap
  --deny warnings      lint: treat warnings as errors (exit 1)
  --format text|json   every verification subcommand (default text)
  --trace FILE         write phase spans and explorer counters as Chrome
                       trace-event JSON to FILE, raw events to FILE.jsonl
  --listen ADDR, --cache-capacity K, --queue-depth Q
                       serve: address, compiled-spec cache entries, queued
                       jobs before `queue full`
";

/// Runs the CLI on `args` (without the program name), writing all
/// output to `out`. Returns the process exit code.
///
/// The `serve` subcommand is the one exception to the pure-function
/// contract: the daemon streams its banner and runs until shutdown,
/// so it writes to the process stdout directly and `out` stays empty.
pub fn run(args: &[String], out: &mut String) -> i32 {
    let result = trace_flag(args).and_then(|(args, trace_path)| {
        // recording is opt-in: without --trace or --stats (which reads
        // the explorer's gauges) every layer sees a no-op recorder and
        // the disabled fast path
        let recorder = if trace_path.is_some() || args.iter().any(|a| a == "--stats") {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        let code = dispatch(&args, out, &recorder)?;
        match trace_path {
            Some(path) => write_trace(&path, &recorder).map(|()| code),
            None => Ok(code),
        }
    });
    result.unwrap_or_else(|message| {
        let _ = writeln!(out, "error: {message}");
        EXIT_ERROR
    })
}

fn dispatch(args: &[String], out: &mut String, recorder: &Recorder) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        None => Err(format!("missing command\n{USAGE}")),
        Some("--help" | "-h" | "help") => {
            out.push_str(USAGE);
            Ok(EXIT_OK)
        }
        Some("serve") => serve(&Argv::parse(args)?),
        Some("client") => {
            let [addr, script_path] = &args[1..] else {
                return Err("usage: moccml client <ADDR> <script.jsonl>".to_owned());
            };
            let script = std::fs::read_to_string(script_path)
                .map_err(|e| format!("cannot read `{script_path}`: {e}"))?;
            crate::client::run_script(addr, &script, out)
        }
        Some(_) => {
            let (command, format) = Command::from_args(args)?;
            let mut compile = |source: &str| {
                let ast = {
                    let _span = recorder.span("parse");
                    moccml_lang::parse_spec(source)?
                };
                let _span = recorder.span("compile");
                moccml_lang::compile(&ast)
            };
            let outcome = ops::execute(
                command,
                &mut compile,
                &SmcRun::new(recorder),
                &mut ops::no_progress(),
            )?;
            out.push_str(&match format {
                Format::Text => outcome.to_text(),
                Format::Json => outcome.json_line(),
            });
            Ok(outcome.exit_code())
        }
    }
}

/// Splits a `--trace <file>` flag off the argument list.
fn trace_flag(args: &[String]) -> Result<(Vec<String>, Option<String>), String> {
    let Some(i) = args.iter().position(|a| a == "--trace") else {
        return Ok((args.to_vec(), None));
    };
    let path = args
        .get(i + 1)
        .filter(|v| !v.starts_with("--"))
        .cloned()
        .ok_or("--trace needs an output file path")?;
    let mut stripped = args.to_vec();
    stripped.drain(i..=i + 1);
    Ok((stripped, Some(path)))
}

/// Writes the recorder's snapshot as Chrome trace-event (catapult)
/// JSON to `path` — loadable in `chrome://tracing` / Perfetto — plus
/// the raw JSONL event stream to `path.jsonl`.
fn write_trace(path: &str, recorder: &Recorder) -> Result<(), String> {
    let snapshot = recorder.snapshot();
    std::fs::write(path, moccml_obs::trace::catapult_json(&snapshot, "moccml"))
        .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
    let raw_path = format!("{path}.jsonl");
    std::fs::write(&raw_path, moccml_obs::trace::jsonl(&snapshot))
        .map_err(|e| format!("cannot write trace `{raw_path}`: {e}"))
}

fn serve(argv: &Argv) -> Result<i32, String> {
    argv.positional(&[])?;
    let defaults = ServiceConfig::default();
    let config = ServiceConfig {
        workers: argv
            .parsed("--workers")?
            .map_or(defaults.workers, |n: usize| n.max(1)),
        cache_capacity: argv
            .parsed("--cache-capacity")?
            .unwrap_or(defaults.cache_capacity),
        queue_depth: argv
            .parsed("--queue-depth")?
            .map_or(defaults.queue_depth, |n: usize| n.max(1)),
        ..defaults
    };
    let listen = argv.value("--listen").unwrap_or(server::DEFAULT_ADDR);
    server::serve(listen, config, &mut std::io::stdout())?;
    Ok(EXIT_OK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    const ALT: &str = "spec alt {\n  events a, b;\n  constraint alt = alternates(a, b);\n  assert never((a && b));\n  assert never(b);\n}\n";

    fn write_temp(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(format!("moccml-serve-cli-{name}"));
        std::fs::write(&path, content).expect("temp file writes");
        path.to_str().expect("utf8 path").to_owned()
    }

    fn run_args(args: &[&str]) -> (i32, String) {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        let mut out = String::new();
        let code = run(&args, &mut out);
        (code, out)
    }

    #[test]
    fn json_check_matches_the_text_verdict() {
        let path = write_temp("alt.mcc", ALT);
        let (text_code, text_out) = run_args(&["check", &path]);
        let (json_code, json_out) = run_args(&["check", &path, "--format", "json"]);
        assert_eq!(text_code, EXIT_VIOLATED);
        assert_eq!(json_code, EXIT_VIOLATED, "{json_out}");
        let payload = Json::parse(json_out.trim()).expect("one JSON line");
        assert_eq!(payload.get("violated").and_then(Json::as_bool), Some(true));
        // the witness schedule is byte-identical across formats
        let schedule = payload
            .get("properties")
            .and_then(Json::as_arr)
            .and_then(|ps| ps[1].get("witness"))
            .and_then(|w| w.get("schedule"))
            .and_then(Json::as_str)
            .expect("witness schedule");
        assert!(text_out.contains(schedule), "{text_out} vs {schedule}");
    }

    #[test]
    fn json_explore_simulate_conformance() {
        let path = write_temp("alt2.mcc", ALT);
        let (code, out) = run_args(&["explore", &path, "--format", "json"]);
        assert_eq!(code, EXIT_OK);
        let payload = Json::parse(out.trim()).expect("JSON");
        assert_eq!(payload.get("states").and_then(Json::as_i64), Some(2));

        let (code, out) = run_args(&["simulate", &path, "--steps", "4", "--format", "json"]);
        assert_eq!(code, EXIT_OK);
        let payload = Json::parse(out.trim()).expect("JSON");
        assert_eq!(
            payload.get("schedule").and_then(Json::as_str),
            Some("a ; b ; a ; b")
        );

        let trace = write_temp("bad.trace", "a\na\n");
        let (code, out) = run_args(&["conformance", &path, &trace, "--format", "json"]);
        assert_eq!(code, EXIT_VIOLATED, "{out}");
        let payload = Json::parse(out.trim()).expect("JSON");
        assert_eq!(
            payload.get("verdict").and_then(Json::as_str),
            Some("violation")
        );
    }

    #[test]
    fn json_explore_stats_appends_counters() {
        let path = write_temp("alt-stats.mcc", ALT);
        let (code, out) = run_args(&["explore", &path, "--stats", "--format", "json"]);
        assert_eq!(code, EXIT_OK);
        let payload = Json::parse(out.trim()).expect("JSON");
        let stats = payload.get("stats").expect("stats member");
        for key in [
            "states_per_sec",
            "elapsed_ms",
            "peak_frontier",
            "interned",
            "interner_occupancy",
        ] {
            assert!(stats.get(key).is_some(), "missing {key} in {out}");
        }
        // without --stats the schema is unchanged
        let (code, out) = run_args(&["explore", &path, "--format", "json"]);
        assert_eq!(code, EXIT_OK);
        let payload = Json::parse(out.trim()).expect("JSON");
        assert!(payload.get("stats").is_none());
    }

    #[test]
    fn json_check_and_conformance_stats_append_throughput() {
        let path = write_temp("alt-check-stats.mcc", ALT);
        let (code, out) = run_args(&["check", &path, "--stats", "--format", "json"]);
        assert_eq!(code, EXIT_VIOLATED);
        let payload = Json::parse(out.trim()).expect("JSON");
        let stats = payload.get("stats").expect("stats member");
        assert!(stats.get("states_per_sec").is_some(), "{out}");
        assert!(stats.get("elapsed_ms").is_some(), "{out}");
        // without --stats the schema is unchanged
        let (_, out) = run_args(&["check", &path, "--format", "json"]);
        assert!(Json::parse(out.trim())
            .expect("JSON")
            .get("stats")
            .is_none());

        let trace = write_temp("good-stats.trace", "a\nb\n");
        let (code, out) = run_args(&["conformance", &path, &trace, "--stats", "--format", "json"]);
        assert_eq!(code, EXIT_OK, "{out}");
        let payload = Json::parse(out.trim()).expect("JSON");
        let stats = payload.get("stats").expect("stats member");
        assert!(stats.get("states_per_sec").is_some(), "{out}");
        assert!(stats.get("elapsed_ms").is_some(), "{out}");
    }

    #[test]
    fn trace_flag_writes_catapult_json_and_the_raw_stream() {
        let spec = write_temp("alt-trace.mcc", ALT);
        let trace_out = std::env::temp_dir().join("moccml-serve-cli-trace.json");
        let trace_path = trace_out.to_str().expect("utf8 path").to_owned();
        let (code, out) = run_args(&["check", &spec, "--trace", &trace_path]);
        assert_eq!(code, EXIT_VIOLATED, "{out}");
        // verdict output is byte-identical with tracing on
        let (_, plain) = run_args(&["check", &spec]);
        assert_eq!(out, plain, "tracing never perturbs the output");
        // the catapult file parses with our own JSON parser and names
        // the CLI phases
        let catapult = std::fs::read_to_string(&trace_path).expect("trace written");
        let parsed = Json::parse(catapult.trim()).expect("valid trace-event JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        for phase in ["parse", "compile", "check", "explore"] {
            assert!(names.contains(&phase), "missing {phase} in {names:?}");
        }
        // the raw stream is one JSON object per line
        let raw = std::fs::read_to_string(format!("{trace_path}.jsonl")).expect("jsonl written");
        assert!(!raw.is_empty());
        for line in raw.lines() {
            let event = Json::parse(line).expect("every raw line parses");
            assert!(event.get("type").is_some(), "{line}");
        }
        // --trace without a file path is a usage error
        let (code, out) = run_args(&["check", &spec, "--trace"]);
        assert_eq!(code, EXIT_ERROR);
        assert!(out.contains("--trace needs"), "{out}");
    }

    #[test]
    fn statistical_check_runs_in_both_formats() {
        let path = write_temp("alt-smc.mcc", ALT);
        let base = [
            "check",
            path.as_str(),
            "--statistical",
            "--epsilon",
            "0.1",
            "--seed",
            "7",
        ];
        let (code, out) = run_args(&base);
        assert_eq!(code, EXIT_VIOLATED, "{out}");
        assert!(out.contains("statistical check"), "{out}");
        assert!(out.contains("estimated"), "{out}");
        assert!(out.contains("witness (minimized, 2 steps): a ; b"), "{out}");

        let mut json_args = base.to_vec();
        json_args.extend(["--format", "json"]);
        let (jcode, jout) = run_args(&json_args);
        assert_eq!(jcode, EXIT_VIOLATED, "{jout}");
        let payload = Json::parse(jout.trim()).expect("one JSON line");
        assert_eq!(payload.get("kind").and_then(Json::as_str), Some("smc"));
        assert_eq!(payload.get("violated").and_then(Json::as_bool), Some(true));
        // the report is byte-identical for any worker count
        let mut two = json_args.clone();
        two.extend(["--workers", "2"]);
        let (_, two_out) = run_args(&two);
        assert_eq!(jout, two_out, "worker-count invariance");

        // SPRT mode decides both ways on this spec
        let mut sprt = base.to_vec();
        sprt.extend(["--prob-threshold", "0.5"]);
        let (code, out) = run_args(&sprt);
        assert_eq!(code, EXIT_VIOLATED, "{out}");
        assert!(out.contains("SPRT"), "{out}");
        assert!(out.contains("ABOVE"), "{out}");
        assert!(out.contains("below"), "{out}");

        // out-of-range knobs are usage errors, not panics
        let (code, out) = run_args(&["check", &path, "--statistical", "--epsilon", "2"]);
        assert_eq!(code, EXIT_ERROR);
        assert!(out.contains("epsilon"), "{out}");
    }

    #[test]
    fn text_format_delegates_unchanged() {
        let path = write_temp("alt3.mcc", ALT);
        let (plain_code, plain_out) = run_args(&["check", &path]);
        let (text_code, text_out) = run_args(&["check", &path, "--format", "text"]);
        assert_eq!(plain_code, text_code);
        assert_eq!(plain_out, text_out, "--format text is the default output");
        let (code, out) = run_args(&["check", &path, "--format", "yaml"]);
        assert_eq!(code, EXIT_ERROR);
        assert!(out.contains("--format expects"), "{out}");
    }

    #[test]
    fn help_advertises_the_service_and_delegation_still_works() {
        let (code, out) = run_args(&["--help"]);
        assert_eq!(code, EXIT_OK);
        assert!(out.contains("serve"), "{out}");
        assert!(out.contains("client"), "{out}");
        assert!(out.contains("lint"), "{out}");
        let path = write_temp("lint.mcc", ALT);
        let (code, out) = run_args(&["lint", &path]);
        assert_eq!(code, EXIT_OK, "{out}");
    }

    #[test]
    fn usage_errors_exit_two() {
        let (code, _) = run_args(&["client"]);
        assert_eq!(code, EXIT_ERROR);
        let (code, out) = run_args(&["client", "127.0.0.1:1", "/nonexistent.jsonl"]);
        assert_eq!(code, EXIT_ERROR);
        assert!(out.contains("cannot read"), "{out}");
        let (code, _) = run_args(&["check", "/nonexistent.mcc", "--format", "json"]);
        assert_eq!(code, EXIT_ERROR);
        let (code, out) = run_args(&["serve", "--listen"]);
        assert_eq!(code, EXIT_ERROR);
        assert!(out.contains("--listen needs a value"), "{out}");
    }

    // frontend subcommands (formerly the moccml-lang CLI's own tests)

    #[test]
    fn check_reports_verdicts_and_exit_codes() {
        let path = write_temp("l-alt.mcc", ALT);
        let (code, out) = run_args(&["check", &path]);
        assert_eq!(code, EXIT_VIOLATED, "never(b) is violated:\n{out}");
        assert!(out.contains("never((a && b))"));
        assert!(out.contains("holds"));
        assert!(out.contains("VIOLATED"));
        assert!(out.contains("witness (2 steps): a ; b"), "{out}");
        assert!(out.contains("minimized (2 steps): a ; b"), "{out}");
    }

    #[test]
    fn explore_and_simulate_run() {
        let p = write_temp("l-alt2.mcc", ALT);
        let (code, out) = run_args(&["explore", &p, "--workers", "2"]);
        assert_eq!(code, EXIT_OK);
        assert!(out.contains("states=2"), "{out}");
        let (code, out) = run_args(&["simulate", &p, "--steps", "4"]);
        assert_eq!(code, EXIT_OK);
        assert!(out.contains("4 step(s)"), "{out}");
        assert!(out.contains("schedule: a ; b ; a ; b"), "{out}");
    }

    #[test]
    fn explore_stats_prints_throughput() {
        let p = write_temp("l-alt-stats.mcc", ALT);
        let (code, out) = run_args(&["explore", &p, "--stats"]);
        assert_eq!(code, EXIT_OK);
        assert!(out.contains("throughput:"), "{out}");
        assert!(out.contains("states/sec"), "{out}");
        assert!(out.contains("peak frontier"), "{out}");
        assert!(out.contains("occupancy"), "{out}");
        // without the flag the extra line stays out
        let (code, out) = run_args(&["explore", &p]);
        assert_eq!(code, EXIT_OK);
        assert!(!out.contains("throughput:"), "{out}");
    }

    #[test]
    fn check_stats_prints_the_same_throughput_line_as_explore() {
        let p = write_temp("l-alt-check-stats.mcc", ALT);
        let (code, out) = run_args(&["check", &p, "--stats"]);
        assert_eq!(code, EXIT_VIOLATED);
        assert!(out.contains("throughput:"), "{out}");
        assert!(out.contains("states/sec over"), "{out}");
        assert!(out.contains(" ms\n"), "{out}");
        // verdict lines are untouched by the flag
        assert!(out.contains("VIOLATED"), "{out}");
        let (code, out) = run_args(&["check", &p]);
        assert_eq!(code, EXIT_VIOLATED);
        assert!(!out.contains("throughput:"), "{out}");
    }

    #[test]
    fn conformance_stats_prints_throughput() {
        let spec = write_temp("l-alt-conf-stats.mcc", ALT);
        let good = write_temp("l-good-stats.trace", "a\nb\n");
        let (code, out) = run_args(&["conformance", &spec, &good, "--stats"]);
        assert_eq!(code, EXIT_OK);
        assert!(out.contains("trace conforms"), "{out}");
        assert!(out.contains("throughput:"), "{out}");
        assert!(out.contains("states/sec over"), "{out}");
    }

    #[test]
    fn recorder_spans_cover_the_cli_phases() {
        let p = write_temp("l-alt-spans.mcc", ALT);
        let trace = write_temp("l-alt-spans.json", "");
        let (code, out) = run_args(&["check", &p, "--trace", &trace]);
        assert_eq!(code, EXIT_VIOLATED);
        let raw = std::fs::read_to_string(format!("{trace}.jsonl")).expect("jsonl written");
        let names: Vec<String> = raw
            .lines()
            .filter_map(|line| {
                let event = Json::parse(line).ok()?;
                (event.get("type").and_then(Json::as_str) == Some("span"))
                    .then(|| event.get("name").and_then(Json::as_str).map(str::to_owned))
                    .flatten()
            })
            .collect();
        for expected in ["parse", "compile", "check", "explore", "minimize"] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing span `{expected}` in {names:?}"
            );
        }
        // the recorded run prints exactly what the unrecorded one does
        let (_, plain) = run_args(&["check", &p]);
        assert_eq!(out, plain);
    }

    #[test]
    fn conformance_verdicts() {
        let s = write_temp("l-alt3.mcc", ALT);
        let good = write_temp("l-good.trace", "a\nb\n");
        let bad = write_temp("l-bad.trace", "a\na\n");
        let (code, _) = run_args(&["conformance", &s, &good]);
        assert_eq!(code, EXIT_OK);
        let (code, out) = run_args(&["conformance", &s, &bad]);
        assert_eq!(code, EXIT_VIOLATED);
        assert!(out.contains("step 1"), "{out}");
    }

    #[test]
    fn errors_name_file_line_and_column() {
        let path = write_temp("l-broken.mcc", "spec x {\n  events a b;\n}");
        let (code, out) = run_args(&["check", &path]);
        assert_eq!(code, EXIT_ERROR);
        assert!(out.contains(":2:12:"), "{out}");
    }

    #[test]
    fn usage_errors() {
        let (code, _) = run_args(&[]);
        assert_eq!(code, EXIT_ERROR);
        let (code, out) = run_args(&["help"]);
        assert_eq!(code, EXIT_OK);
        assert!(out.contains("usage"));
        let (code, _) = run_args(&["frobnicate", "x.mcc"]);
        assert_eq!(code, EXIT_ERROR);
    }

    // `lint` (formerly the moccml-analyze CLI's own tests)

    const WARNY: &str = "spec s {\n  events a, b, orphan;\n  constraint c = alternates(a, b);\n  assert never((a && b));\n}\n";

    #[test]
    fn clean_specs_exit_zero_and_warnings_deny() {
        let path = write_temp("a-warny.mcc", WARNY);
        let (code, out) = run_args(&["lint", &path]);
        assert_eq!(code, EXIT_OK, "warnings alone pass: {out}");
        assert!(out.contains("warn[A010]"), "{out}");
        assert!(out.contains("1 warning(s)"), "{out}");
        let (code, _) = run_args(&["lint", &path, "--deny", "warnings"]);
        assert_eq!(code, EXIT_VIOLATED);
    }

    #[test]
    fn errors_always_fail() {
        let path = write_temp(
            "a-err.mcc",
            "spec s {\n  events a, b;\n  constraint c = alternates(a, b);\n  assert eventually<=0(a);\n}\n",
        );
        let (code, out) = run_args(&["lint", &path]);
        assert_eq!(code, EXIT_VIOLATED, "{out}");
        assert!(out.contains("error[A021]"), "{out}");
    }

    #[test]
    fn json_format_is_machine_readable_only() {
        let path = write_temp("a-json.mcc", WARNY);
        let (code, out) = run_args(&["lint", &path, "--format", "json"]);
        assert_eq!(code, EXIT_OK);
        assert!(out.starts_with('['), "{out}");
        assert!(out.ends_with("]\n"), "{out}");
        assert!(out.contains("\"code\": \"A010\""), "{out}");
        assert!(!out.contains("finding(s)"), "no summary in json: {out}");
    }

    #[test]
    fn non_lint_commands_delegate_to_the_frontend() {
        let path = write_temp(
            "a-delegate.mcc",
            "spec s {\n  events a, b;\n  constraint c = alternates(a, b);\n  assert deadlock-free;\n}\n",
        );
        let (code, out) = run_args(&["check", &path]);
        assert_eq!(code, EXIT_OK, "{out}");
        assert!(out.contains("holds"), "{out}");
        let (code, out) = run_args(&["--help"]);
        assert_eq!(code, EXIT_OK);
        assert!(out.contains("lint"), "usage advertises lint: {out}");
    }

    #[test]
    fn lint_usage_and_io_errors() {
        let (code, out) = run_args(&["lint"]);
        assert_eq!(code, EXIT_ERROR);
        assert!(out.contains("usage: moccml lint"), "{out}");
        let (code, _) = run_args(&["lint", "/nonexistent/x.mcc"]);
        assert_eq!(code, EXIT_ERROR);
        let (code, out) = run_args(&["lint", "x.mcc", "--format", "yaml"]);
        assert_eq!(code, EXIT_ERROR);
        assert!(out.contains("--format expects"), "{out}");
        let broken = write_temp("a-broken.mcc", "spec x {\n  events a b;\n}");
        let (code, out) = run_args(&["lint", &broken]);
        assert_eq!(code, EXIT_ERROR);
        assert!(out.contains(":2:12:"), "{out}");
    }
}
