//! Byte-level golden contract of the `moccml` binary: every
//! deterministic exit-0/1 output — `check`, `explore`, `simulate`,
//! `conformance`, `check --statistical` and `lint`, in text and
//! `--format json` — must reproduce the checked-in stdout and exit code
//! exactly.
//!
//! `golden/cases.txt` lists one case per line (`<name> <exit> <args…>`,
//! paths relative to the workspace root, which is the working directory
//! of every spawned run) and `golden/<name>.out` holds its stdout.
//! Timing-dependent outputs (`--stats`, `--trace`) and exit-2 error
//! wording stay out; they are covered by substring tests.
//!
//! `golden/sampling.txt` lists the sampled outputs in the same format:
//! `check --statistical` on drift and on `golden/interleave.mcc` (whose
//! components interleave in the step order past event 64) at several
//! seeds, fixed-sample and SPRT, each run at 1, 2 and 8 workers, and
//! `simulate --policy random` on both specs.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

struct Case {
    name: String,
    exit: i32,
    args: Vec<String>,
}

fn cases(dir: &Path, manifest: &str) -> Vec<Case> {
    let manifest = std::fs::read_to_string(dir.join(manifest))
        .unwrap_or_else(|e| panic!("{manifest} is checked in: {e}"));
    manifest
        .lines()
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .map(|line| {
            let mut words = line.split_whitespace().map(str::to_owned);
            let name = words.next().expect("case name");
            let exit = words
                .next()
                .and_then(|w| w.parse().ok())
                .unwrap_or_else(|| panic!("case `{name}` needs an exit code"));
            Case {
                name,
                exit,
                args: words.collect(),
            }
        })
        .collect()
}

#[test]
fn binary_output_matches_the_golden_fixtures() {
    let dir = golden_dir();
    let cases = cases(&dir, "cases.txt");
    assert!(cases.len() >= 50, "manifest lists every case");
    let failures: Vec<String> = cases
        .iter()
        .filter_map(|case| mismatch(&dir, case, &[]))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn sampled_output_matches_the_golden_fixtures_at_every_worker_count() {
    let dir = golden_dir();
    let cases = cases(&dir, "sampling.txt");
    assert!(cases.len() >= 10, "manifest lists every sampled case");
    let mut failures = Vec::new();
    for case in &cases {
        if case.args.iter().any(|a| a == "--statistical") {
            for workers in ["1", "2", "8"] {
                failures.extend(mismatch(&dir, case, &["--workers", workers]));
            }
        } else {
            failures.extend(mismatch(&dir, case, &[]));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Runs `case` with `extra` arguments appended; describes how its exit
/// code or stdout differs from the fixture, if they do.
fn mismatch(dir: &Path, case: &Case, extra: &[&str]) -> Option<String> {
    let expected = std::fs::read(dir.join(format!("{}.out", case.name)))
        .unwrap_or_else(|e| panic!("fixture for `{}`: {e}", case.name));
    let output = Command::new(env!("CARGO_BIN_EXE_moccml"))
        .args(&case.args)
        .args(extra)
        .current_dir(workspace_root())
        .output()
        .expect("moccml binary runs");
    let name = format!("{} {}", case.name, extra.join(" "));
    if output.status.code() != Some(case.exit) {
        Some(format!(
            "{}: exit {:?}, expected {}\n{}",
            name.trim_end(),
            output.status.code(),
            case.exit,
            String::from_utf8_lossy(&output.stderr)
        ))
    } else if output.stdout != expected {
        Some(format!(
            "{}: stdout differs\n--- expected\n{}--- actual\n{}",
            name.trim_end(),
            String::from_utf8_lossy(&expected),
            String::from_utf8_lossy(&output.stdout)
        ))
    } else {
        None
    }
}
