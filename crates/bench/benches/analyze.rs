//! Analyze bench target — the static-analysis workloads: linting the
//! PAM case-study spec and the golden defect spec end to end
//! (parse + compile + every lint pass), and cone-of-influence slicing:
//! `verify::check` on the seeded local-property PAM workload,
//! sliced vs. unsliced.
//!
//! Runs on the in-repo `Instant`-based harness; emits
//! `BENCH_analyze.json` at the workspace root. Before timing, the
//! bench asserts the acceptance claims outright: `pam.mcc` lints with
//! zero errors and zero warnings, the golden defect spec lints dirty,
//! and the sliced check returns the same verdict as the unsliced one
//! while visiting *strictly fewer* states.

use moccml_analyze::{analyze_str, Severity};
use moccml_bench::experiments::e8_seeded_local_pam;
use moccml_bench::harness::BenchGroup;
use moccml_engine::Program;
use moccml_verify::{check, CheckOptions};
use std::hint::black_box;
use std::path::PathBuf;

fn workspace_file(relative: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn main() {
    let pam_source = workspace_file("examples/specs/pam.mcc");
    let defects_source = workspace_file("crates/analyze/tests/specs/defects.mcc");

    // claim 1: the PAM case study lints clean, the defect spec dirty
    let pam_diags = analyze_str(&pam_source).expect("pam.mcc compiles");
    assert!(
        pam_diags.iter().all(|d| d.severity == Severity::Info),
        "pam.mcc must lint with zero errors and zero warnings: {pam_diags:?}"
    );
    let defect_diags = analyze_str(&defects_source).expect("defects.mcc compiles");
    assert!(
        defect_diags.iter().any(|d| d.severity == Severity::Error),
        "the golden defect spec must carry at least one error"
    );

    // claim 2: slicing preserves the verdict and explores strictly
    // fewer states on the seeded local-property PAM workload
    let (spec, prop) = e8_seeded_local_pam();
    let program = Program::compile(&spec);
    let props = std::slice::from_ref(&prop);
    let unsliced = check(&program, props, CheckOptions::new());
    let sliced = check(&program, props, CheckOptions::new().with_slice(true));
    assert_eq!(
        std::mem::discriminant(&unsliced.statuses[0]),
        std::mem::discriminant(&sliced.statuses[0]),
        "slicing must preserve the verdict"
    );
    assert!(
        sliced.states_visited < unsliced.states_visited,
        "sliced check ({}) must visit strictly fewer states than the \
         unsliced one ({})",
        sliced.states_visited,
        unsliced.states_visited
    );

    let mut group = BenchGroup::new("analyze").with_iters(10);
    group.bench("lint/pam", || {
        analyze_str(black_box(&pam_source)).expect("compiles")
    });
    group.bench("lint/defects", || {
        analyze_str(black_box(&defects_source)).expect("compiles")
    });
    group.bench(
        &format!(
            "check_unsliced/pam_local_states_{}",
            unsliced.states_visited
        ),
        || check(black_box(&program), props, CheckOptions::new()),
    );
    group.bench(
        &format!("check_sliced/pam_local_states_{}", sliced.states_visited),
        || {
            check(
                black_box(&program),
                props,
                CheckOptions::new().with_slice(true),
            )
        },
    );
    group.finish();
}
