//! The spawned `moccml` binary's contract: documented exit codes
//! (`0` pass, `1` property violation / nonconforming trace / denied
//! lint, `2` parse or usage error) on real processes, and byte-parity
//! between the binary and the in-process CLI — in both output formats.

use moccml_serve::cli;
use moccml_serve::json::Json;
use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_moccml")
}

fn example(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/specs")
        .join(name)
        .to_str()
        .expect("utf8 path")
        .to_owned()
}

fn defects() -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../analyze/tests/specs/defects.mcc")
        .to_str()
        .expect("utf8 path")
        .to_owned()
}

fn spawn(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(bin())
        .args(args)
        .output()
        .expect("moccml binary runs");
    // the binary routes its report to stdout on success and stderr on
    // usage/parse errors; exactly one stream is ever written, so the
    // concatenation equals the in-process CLI's output
    let mut text = String::from_utf8_lossy(&output.stdout).into_owned();
    text.push_str(&String::from_utf8_lossy(&output.stderr));
    (output.status.code(), text)
}

fn in_process(args: &[&str]) -> (i32, String) {
    let args: Vec<String> = args.iter().map(ToString::to_string).collect();
    let mut out = String::new();
    let code = cli::run(&args, &mut out);
    (code, out)
}

/// The binary and the in-process CLI print the same bytes and exit
/// with the same code, for every subcommand.
fn assert_parity(args: &[&str], expected_code: i32) -> String {
    let (bin_code, bin_out) = spawn(args);
    let (lib_code, lib_out) = in_process(args);
    assert_eq!(lib_code, expected_code, "{args:?}:\n{lib_out}");
    assert_eq!(bin_code, Some(expected_code), "{args:?}:\n{bin_out}");
    assert_eq!(bin_out, lib_out, "binary/in-process divergence on {args:?}");
    bin_out
}

#[test]
fn exit_zero_when_everything_passes() {
    let spec = example("verification.mcc");
    let trace = example("verification.trace");
    let out = assert_parity(&["check", &spec, "--workers", "2"], 0);
    assert_eq!(out.matches("holds").count(), 3, "{out}");
    assert_parity(&["explore", &spec], 0);
    assert_parity(&["conformance", &spec, &trace], 0);
    assert_parity(&["lint", &spec, "--deny", "warnings"], 0);
    assert_parity(&["--help"], 0);
    let json = assert_parity(&["check", &spec, "--format", "json"], 0);
    let payload = Json::parse(json.trim()).expect("one JSON object");
    assert_eq!(payload.get("violated").and_then(Json::as_bool), Some(false));
}

#[test]
fn exit_one_on_violated_verdicts() {
    let pam = example("pam.mcc");
    let out = assert_parity(&["check", &pam, "--workers", "2"], 1);
    assert_eq!(out.matches("VIOLATED").count(), 2, "{out}");
    assert_parity(&["lint", &defects()], 1);
    let json = assert_parity(&["check", &pam, "--format", "json"], 1);
    let payload = Json::parse(json.trim()).expect("one JSON object");
    assert_eq!(payload.get("violated").and_then(Json::as_bool), Some(true));
}

#[test]
fn exit_two_on_usage_parse_and_io_errors() {
    assert_parity(&[], 2);
    assert_parity(&["frobnicate", "x.mcc"], 2);
    assert_parity(&["check", "/nonexistent/x.mcc"], 2);
    assert_parity(&["check", "/nonexistent/x.mcc", "--format", "json"], 2);
    assert_parity(&["client"], 2);
    // unknown and inapplicable flags are rejected, naming the flag
    let spec = example("verification.mcc");
    for (flag, args) in [
        ("--wokers", vec!["check", &spec, "--wokers", "2"]),
        ("--statistical", vec!["simulate", &spec, "--statistical"]),
        ("--epsilon", vec!["explore", &spec, "--epsilon", "0.5"]),
        ("--stats", vec!["lint", &spec, "--stats"]),
    ] {
        let out = assert_parity(&args, 2);
        assert!(out.contains(&format!("unknown option `{flag}`")), "{out}");
    }
    let broken = std::env::temp_dir().join("moccml-exit-codes-broken.mcc");
    std::fs::write(&broken, "spec x {\n  events a b;\n}").expect("temp file writes");
    let broken = broken.to_str().expect("utf8").to_owned();
    let out = assert_parity(&["check", &broken], 2);
    assert!(out.contains(":2:12:"), "parse errors carry line:col: {out}");
    assert_parity(&["check", &broken, "--format", "json"], 2);
    // a predicate nested past the parser's cap is an ordinary parse
    // error, not a stack overflow
    let deep = std::env::temp_dir().join("moccml-exit-codes-deep.mcc");
    let spec = format!(
        "spec d {{\n  events a, b;\n  constraint c = alternates(a, b);\n  assert always({}a);\n}}\n",
        "!".repeat(200_000)
    );
    std::fs::write(&deep, spec).expect("temp file writes");
    let deep = deep.to_str().expect("utf8").to_owned();
    let out = assert_parity(&["check", &deep], 2);
    assert!(out.contains(":4:"), "parse errors carry line:col: {out}");
    assert!(out.contains("nested deeper"), "{out}");
}

/// Writes a spec whose one library guard is `guard` (on line 8, from
/// column 35) to a temp file named after `name`; returns its path.
fn guard_spec(name: &str, guard: &str) -> String {
    let path = std::env::temp_dir().join(format!("moccml-exit-codes-{name}.mcc"));
    let spec = format!(
        "spec deep {{\n  events a;\n  library L {{\n    constraint C(a: event)\n    \
         automaton D implements C {{\n      var v: int = 0;\n      initial final state S;\n      \
         from S to S when {{a}} guard [{guard}];\n    }}\n  }}\n}}\n"
    );
    std::fs::write(&path, spec).expect("temp file writes");
    path.to_str().expect("utf8").to_owned()
}

#[test]
fn exit_two_on_a_library_guard_nested_past_the_cap() {
    // the automata-expression parser caps nesting too: 100,000
    // parentheses in a library guard are a positioned parse error
    let n = 100_000;
    let deep = guard_spec(
        "deep-guard",
        &format!("{}v{} > 0", "(".repeat(n), ")".repeat(n)),
    );
    let out = assert_parity(&["lint", &deep], 2);
    assert!(
        out.contains(&format!("{deep}:8:100:")),
        "path:line:col: {out}"
    );
    assert!(
        out.contains("expression nested deeper than 64 levels"),
        "{out}"
    );
}

#[test]
fn exit_two_on_a_library_guard_chained_past_the_cap() {
    // a 1,000,000-operand `+` chain is a positioned parse error at the
    // operand after the 2,700th, not a stack overflow
    let long = guard_spec(
        "long-guard",
        &format!("{} > 0", vec!["v"; 1_000_000].join(" + ")),
    );
    let out = assert_parity(&["lint", &long], 2);
    assert!(
        out.contains(&format!("{long}:8:{}:", 35 + 4 * 2700)),
        "path:line:col: {out}"
    );
    assert!(
        out.contains("expression chains more than 2700 operands"),
        "{out}"
    );
}

/// Writes `n` independent `subclock` pairs (3^n steps per state) to a
/// temp file named after `test`, so concurrent tests never share one;
/// returns its path.
fn wide_spec(test: &str, n: usize) -> String {
    let path = std::env::temp_dir().join(format!("moccml-exit-codes-{test}-wide{n}.mcc"));
    let events: Vec<String> = (0..n).map(|i| format!("a{i}, b{i}")).collect();
    let constraints: String = (0..n)
        .map(|i| format!("  constraint s{i} = subclock(a{i}, b{i});\n"))
        .collect();
    let spec = format!(
        "spec wide{n} {{\n  events {};\n{constraints}  assert deadlock-free;\n}}\n",
        events.join(", ")
    );
    std::fs::write(&path, spec).expect("temp file writes");
    path.to_str().expect("utf8").to_owned()
}

#[test]
fn exit_two_when_a_step_set_outgrows_usize() {
    // 3^41 steps per state: no policy can index them, so simulate is
    // an error under every policy, never a panic (exit 101)
    let wide = wide_spec("simulate", 41);
    for policy in [
        "random",
        "lexicographic",
        "max-parallel",
        "min-serial",
        "safe",
    ] {
        let out = assert_parity(&["simulate", &wide, "--steps", "1", "--policy", policy], 2);
        assert!(
            out.contains("more acceptable steps than fit a usize"),
            "{policy}: {out}"
        );
    }
}

#[test]
fn exit_two_when_an_explored_or_sampled_step_set_outgrows_usize() {
    // the explorer and the statistical sampler meet the same 3^41-step
    // root: `explore`, `check` and `check --statistical` are errors,
    // never a panic (exit 101)
    let wide = wide_spec("explore", 41);
    for args in [
        &["explore", &wide, "--max-states", "10"][..],
        &["check", &wide, "--max-states", "10"],
        &["check", &wide, "--statistical", "--max-trace-len", "4"],
    ] {
        let out = assert_parity(args, 2);
        assert!(
            out.contains("more acceptable steps than fit a usize"),
            "{args:?}: {out}"
        );
    }
}

#[test]
fn json_witness_schedules_equal_the_text_rendering() {
    let pam = example("pam.mcc");
    let (_, text) = spawn(&["check", &pam]);
    let (_, json) = spawn(&["check", &pam, "--format", "json"]);
    let payload = Json::parse(json.trim()).expect("one JSON object");
    let props = payload
        .get("properties")
        .and_then(Json::as_arr)
        .expect("properties");
    let mut witnesses = 0;
    for prop in props {
        let Some(witness) = prop.get("witness") else {
            continue;
        };
        witnesses += 1;
        let steps = witness.get("steps").and_then(Json::as_i64).expect("steps");
        let schedule = witness
            .get("schedule")
            .and_then(Json::as_str)
            .expect("schedule");
        assert!(
            text.contains(&format!("witness ({steps} steps): {schedule}")),
            "JSON witness must appear verbatim in the text verdict:\n{text}"
        );
    }
    assert_eq!(witnesses, 2, "pam.mcc has two violated properties");
}
