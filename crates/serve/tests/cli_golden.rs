//! Golden end-to-end contract of the `moccml` CLI: the `check` verdict
//! on `examples/specs/pam.mcc` equals the programmatic `verify::check_props`
//! result on the same compiled spec — statuses, counterexample
//! schedules and event names, byte for byte — and is identical for
//! every `--workers` count; `lint` flags every seeded defect of the
//! golden `crates/analyze/tests/specs/defects.mcc` and reports `pam.mcc` clean under
//! `--deny warnings`. (`cli_exit_codes.rs` pins that the installed
//! binary byte-matches this in-process CLI.)

use moccml_engine::ExploreOptions;
use moccml_serve::cli;
use moccml_verify::{check_props, is_witness, minimize_witness, PropStatus};
use std::path::PathBuf;

fn spec_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/specs")
        .join(name)
}

fn defects_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../analyze/tests/specs/defects.mcc")
}

#[test]
fn pam_cli_verdict_matches_the_programmatic_check() {
    let path = spec_path("pam.mcc");
    let source = std::fs::read_to_string(&path).expect("pam.mcc is checked in");
    let compiled = moccml_lang::compile_str(&source).expect("pam.mcc compiles");
    let universe = compiled.universe().clone();
    assert_eq!(compiled.props.len(), 4, "pam.mcc asserts four properties");

    // the programmatic side: one joint check, 2 workers
    let options = ExploreOptions::default().with_workers(2);
    let statuses = check_props(&compiled.program, &compiled.props, &options).statuses;
    assert_eq!(statuses[0], PropStatus::Holds, "deadlock-free holds");
    assert_eq!(statuses[1], PropStatus::Holds, "core exclusion holds");
    let PropStatus::Violated(ce_fusion) = &statuses[2] else {
        panic!("eventually<=2(fusion) is violated");
    };
    let PropStatus::Violated(ce_detect) = &statuses[3] else {
        panic!("never(detect) is violated");
    };
    // the detect witness is the whole pipeline flowing
    assert_eq!(ce_detect.schedule.len(), 4);
    for (prop, ce) in [
        (&compiled.props[2], ce_fusion),
        (&compiled.props[3], ce_detect),
    ] {
        assert!(ce.replays_on(&compiled.program));
        assert!(is_witness(&compiled.program, prop, &ce.schedule));
        let minimized = minimize_witness(&compiled.program, prop, &ce.schedule);
        assert!(is_witness(&compiled.program, prop, &minimized));
    }

    // the CLI side, in-process: the violated rows must carry exactly
    // the programmatic schedules, rendered with event names
    let args: Vec<String> = ["check", path.to_str().expect("utf8"), "--workers", "2"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let mut cli_out = String::new();
    let code = cli::run(&args, &mut cli_out);
    assert_eq!(code, cli::EXIT_VIOLATED, "{cli_out}");
    for ce in [ce_fusion, ce_detect] {
        let rendered = ce
            .schedule
            .to_lines(&universe)
            .expect("plain names")
            .trim_end()
            .replace('\n', " ; ");
        let expected = format!("witness ({} steps): {}", ce.schedule.len(), rendered);
        assert!(
            cli_out.contains(&expected),
            "CLI output must carry the programmatic witness `{expected}`:\n{cli_out}"
        );
    }
    assert_eq!(cli_out.matches("holds").count(), 2, "{cli_out}");
    assert_eq!(cli_out.matches("VIOLATED").count(), 2, "{cli_out}");

    // and the whole report is identical for every worker count
    for workers in [1, 8] {
        let args: Vec<String> = [
            "check",
            path.to_str().expect("utf8"),
            "--workers",
            &workers.to_string(),
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let mut out = String::new();
        assert_eq!(cli::run(&args, &mut out), cli::EXIT_VIOLATED);
        assert_eq!(out, cli_out, "workers={workers}");
    }
}

#[test]
fn pam_spec_round_trips_through_the_pretty_printer() {
    let source = std::fs::read_to_string(spec_path("pam.mcc")).expect("checked in");
    let ast = moccml_lang::parse_spec(&source).expect("parses");
    let printed = ast.to_text();
    let reparsed = moccml_lang::parse_spec(&printed).expect("printed form parses");
    assert_eq!(ast, reparsed);
    // and the round-tripped spec compiles to the same program
    let a = moccml_lang::compile(&ast).expect("compiles");
    let b = moccml_lang::compile(&reparsed).expect("compiles");
    assert_eq!(a.program.template_key(), b.program.template_key());
    assert_eq!(a.props, b.props);
}

#[test]
fn verification_spec_holds_and_conformance_replays() {
    let path = spec_path("verification.mcc");
    let mut out = String::new();
    let code = cli::run(
        &[
            "check".into(),
            path.to_str().expect("utf8").into(),
            "--workers".into(),
            "2".into(),
        ],
        &mut out,
    );
    assert_eq!(code, cli::EXIT_OK, "{out}");
    assert_eq!(out.matches("holds").count(), 3, "{out}");

    let trace = spec_path("verification.trace");
    let mut out = String::new();
    let code = cli::run(
        &[
            "conformance".into(),
            path.to_str().expect("utf8").into(),
            trace.to_str().expect("utf8").into(),
        ],
        &mut out,
    );
    assert_eq!(code, cli::EXIT_OK, "{out}");
    assert!(out.contains("conforms"), "{out}");
}

/// Every lint code in the catalog, in order. The golden defect spec is
/// engineered to trigger all of them at once.
const ALL_CODES: [&str; 14] = [
    "A001", "A002", "A003", "A004", "A005", "A010", "A011", "A012", "A013", "A020", "A021", "A022",
    "A023", "A030",
];

#[test]
fn lint_flags_every_seeded_defect_in_the_golden_spec() {
    let path = defects_path();
    let args: Vec<String> = ["lint", path.to_str().expect("utf8")]
        .iter()
        .map(ToString::to_string)
        .collect();
    let mut out = String::new();
    let code = cli::run(&args, &mut out);
    assert_eq!(code, cli::EXIT_VIOLATED, "A021 is an error:\n{out}");
    for lint in ALL_CODES {
        assert!(out.contains(&format!("[{lint}]")), "missing {lint}:\n{out}");
    }
    assert!(out.contains("1 error(s)"), "{out}");

    // the JSON rendering carries the same codes and nothing else
    let json_args: Vec<String> = ["lint", path.to_str().expect("utf8"), "--format", "json"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let mut json = String::new();
    assert_eq!(cli::run(&json_args, &mut json), cli::EXIT_VIOLATED);
    assert!(json.starts_with('[') && json.ends_with("]\n"), "{json}");
    for lint in ALL_CODES {
        assert!(
            json.contains(&format!("\"code\": \"{lint}\"")),
            "missing {lint} in json:\n{json}"
        );
    }
    assert!(!json.contains("finding(s)"), "no summary line in json");
}

#[test]
fn lint_reports_the_example_specs_clean_under_deny_warnings() {
    for name in ["pam.mcc", "verification.mcc"] {
        let path = spec_path(name);
        let args: Vec<String> = ["lint", path.to_str().expect("utf8"), "--deny", "warnings"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let mut out = String::new();
        let code = cli::run(&args, &mut out);
        assert_eq!(code, cli::EXIT_OK, "{name} must lint clean:\n{out}");
        assert!(out.contains("0 error(s), 0 warning(s)"), "{name}:\n{out}");
    }
}
