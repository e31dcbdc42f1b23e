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

fn cases(dir: &Path) -> Vec<Case> {
    let manifest = std::fs::read_to_string(dir.join("cases.txt")).expect("cases.txt is checked in");
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
    let cases = cases(&dir);
    assert!(cases.len() >= 50, "manifest lists every case");
    let mut failures = Vec::new();
    for case in &cases {
        let expected = std::fs::read(dir.join(format!("{}.out", case.name)))
            .unwrap_or_else(|e| panic!("fixture for `{}`: {e}", case.name));
        let output = Command::new(env!("CARGO_BIN_EXE_moccml"))
            .args(&case.args)
            .current_dir(workspace_root())
            .output()
            .expect("moccml binary runs");
        if output.status.code() != Some(case.exit) {
            failures.push(format!(
                "{}: exit {:?}, expected {}\n{}",
                case.name,
                output.status.code(),
                case.exit,
                String::from_utf8_lossy(&output.stderr)
            ));
        } else if output.stdout != expected {
            failures.push(format!(
                "{}: stdout differs\n--- expected\n{}--- actual\n{}",
                case.name,
                String::from_utf8_lossy(&expected),
                String::from_utf8_lossy(&output.stdout)
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
