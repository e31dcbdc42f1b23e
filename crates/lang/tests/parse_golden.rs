//! Parse-outcome golden of the textual front end.
//!
//! Runs [`parse_spec`] over a fixed-seed corpus — every `.mcc` file in
//! the repository, the 48 random specifications of
//! `golden/random_specs.txt` (some embed the Fig. 3 library), and
//! single-defect mangles of both — and [`parse_library`] over the Fig. 3
//! library and its mangles. A mangle truncates the text, deletes one character
//! or splices one of [`SPLICES`] in, at a random character offset.
//!
//! Each input gives one line of `golden/parse_outcomes.txt`: its label,
//! then `ok` and the FNV-1a digest of the parsed value's `Debug` print
//! (which covers every name, span and library item), or `err`, the
//! error variant and its `line:column` (`-` for a library error that
//! carries no position). Error wording is not pinned here; the unit
//! tests of both parsers pin it.
//!
//! The fixture was recorded from the previous front end, which lexed
//! `.mcc` text and library text in two dialects and lexed each embedded
//! library block a second time before parsing it. [`MOVED`] lists the
//! entries whose position the one lexer moves, each with the reason.
//! The entries of the random specifications that embed the library were
//! recorded again when the printer stopped parenthesizing every binary
//! operation: their printed text, and with it every mangle's offset,
//! changed.
//!
//! The random specifications were printed once from the generator of
//! `tests/common` with the canonical printer and checked in, so this
//! fixture pins the parser alone: a printer change leaves it alone.

use moccml_automata::{parse_library, AutomataError};
use moccml_lang::{parse_spec, LangError};
use moccml_testkit::TestRng;
use std::fmt::Debug;
use std::path::PathBuf;

/// Every `.mcc` file in the repository, relative to the workspace root.
const SPEC_FILES: [&str; 9] = [
    "crates/analyze/tests/specs/defects.mcc",
    "crates/serve/tests/golden/deadlock.mcc",
    "crates/serve/tests/golden/noprops.mcc",
    "examples/specs/drift.mcc",
    "examples/specs/pam.mcc",
    "examples/specs/verification.mcc",
    "perfbench/specs/drift.mcc",
    "perfbench/specs/pam.mcc",
    "perfbench/specs/verification.mcc",
];

/// The text a splice mangle inserts.
const SPLICES: [&str; 8] = ["@", "#", "->", "=>", ".", "(", "!", "-"];

/// Fixture entries (by label) whose outcome the one front end changes,
/// and their outcome now. Every other entry must match the fixture.
const MOVED: [(&str, &str); 12] = [
    // Library text used to lex `=>` as `=` then `>`, so a failed
    // expectation at the `=` blamed the `>`, one column on. The one
    // lexer reads `=>` as one token in all MoCCML text, and library
    // text blames the token after it.
    (
        "crates/analyze/tests/specs/defects.mcc/splice@769:=>",
        "err Parse 21:25",
    ),
    (
        "crates/analyze/tests/specs/defects.mcc/splice@844:=>",
        "err Parse 23:23",
    ),
    ("perfbench/specs/pam.mcc/splice@1108:=>", "err Parse 30:37"),
    ("fig3/splice@97:=>", "err Parse 3:32"),
    ("fig3/splice@80:=>", "err Parse 2:48"),
    ("fig3/splice@320:=>", "err Parse 7:22"),
    ("fig3/splice@252:=>", "err Parse 5:45"),
    ("fig3/splice@502:=>", "err Parse 12:9"),
    ("fig3/splice@229:=>", "err Parse 5:21"),
    // `.mcc` text used to lex `->` as `-` then `>`, so an argument `->e0`
    // failed at the `>` after a valid `-`. The one lexer reads `->`, and
    // the argument fails at it, one column earlier.
    ("random15/splice@119:->", "err Parse 6:34"),
    ("random19/splice@77:->", "err Parse 4:34"),
    ("random25/splice@111:->", "err Parse 6:28"),
];

const FIG3: &str = "library SimpleSDFRelationLibrary {
  constraint PlaceConstraint(write: event, read: event,
                             pushRate: int, popRate: int,
                             itsDelay: int, itsCapacity: int)
  automaton PlaceConstraintDef implements PlaceConstraint {
    var size: int = itsDelay;
    initial state S0;
    final state S0;
    from S0 to S0 when {write} forbid {read}
      guard [size <= itsCapacity - pushRate] do size += pushRate;
    from S0 to S0 when {read} forbid {write}
      guard [size >= popRate] do size -= popRate;
  }
}
";

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn ok_line(value: &impl Debug) -> String {
    format!("ok {:016x}", fnv1a(&format!("{value:?}")))
}

fn automata_variant(e: &AutomataError) -> String {
    let debug = format!("{e:?}");
    let end = debug.find([' ', '(', '{']).unwrap_or(debug.len());
    debug[..end].to_owned()
}

fn spec_outcome(text: &str) -> String {
    match parse_spec(text) {
        Ok(ast) => ok_line(&ast),
        Err(e) => {
            let (line, column) = e.position();
            let variant = match &e {
                LangError::Parse { .. } => "Parse".to_owned(),
                LangError::Resolve { .. } => "Resolve".to_owned(),
                LangError::Library { source, .. } => {
                    format!("Library({})", automata_variant(source))
                }
                other => panic!("unknown error variant {other:?}"),
            };
            format!("err {variant} {line}:{column}")
        }
    }
}

fn library_outcome(text: &str) -> String {
    match parse_library(text) {
        Ok(lib) => ok_line(&lib),
        Err(AutomataError::Parse { line, column, .. }) => format!("err Parse {line}:{column}"),
        Err(e) => format!("err {} -", automata_variant(&e)),
    }
}

/// One single-defect mangle of `text` and a label naming it.
fn mangle(rng: &mut TestRng, text: &str) -> (String, String) {
    let mut chars: Vec<char> = text.chars().collect();
    match rng.u8_in(0..3) {
        0 => {
            let at = rng.usize_in(0..chars.len());
            chars.truncate(at);
            (format!("truncate@{at}"), chars.into_iter().collect())
        }
        1 => {
            let at = rng.usize_in(0..chars.len());
            chars.remove(at);
            (format!("delete@{at}"), chars.into_iter().collect())
        }
        _ => {
            let at = rng.usize_in(0..chars.len() + 1);
            let splice = *rng.choice(&SPLICES);
            chars.splice(at..at, splice.chars());
            (format!("splice@{at}:{splice}"), chars.into_iter().collect())
        }
    }
}

/// Outcome lines of `text` and `mangles` mangles of it.
fn outcomes_of(
    out: &mut Vec<String>,
    rng: &mut TestRng,
    label: &str,
    text: &str,
    mangles: usize,
    outcome: fn(&str) -> String,
) {
    out.push(format!("{label} {}", outcome(text)));
    for _ in 0..mangles {
        let (how, mangled) = mangle(rng, text);
        out.push(format!("{label}/{how} {}", outcome(&mangled)));
    }
}

/// The checked-in random specifications with their labels. Each is a
/// `%%% <label> <byte length>` header line, the text, and a newline.
fn random_specs() -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/random_specs.txt");
    let file = std::fs::read_to_string(&path).expect("random specs are checked in");
    let mut rest = file.as_str();
    let mut specs = Vec::new();
    while let Some(header) = rest.strip_prefix("%%% ") {
        let (header, body) = header.split_once('\n').expect("header line");
        let (label, len) = header.split_once(' ').expect("label and length");
        let len: usize = len.parse().expect("byte length");
        specs.push((label.to_owned(), body[..len].to_owned()));
        rest = body[len..]
            .strip_prefix('\n')
            .expect("newline after the text");
    }
    assert!(rest.is_empty(), "trailing bytes in {}", path.display());
    assert_eq!(specs.len(), 48, "random spec count");
    specs
}

fn corpus_outcomes() -> Vec<String> {
    let mut out = Vec::new();
    let mut rng = TestRng::new(0x6d6f_6363_6d6c);
    for path in SPEC_FILES {
        let text = std::fs::read_to_string(workspace_root().join(path))
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        outcomes_of(&mut out, &mut rng, path, &text, 48, spec_outcome);
    }
    for (label, text) in random_specs() {
        outcomes_of(&mut out, &mut rng, &label, &text, 12, spec_outcome);
    }
    outcomes_of(&mut out, &mut rng, "fig3", FIG3, 240, library_outcome);
    out
}

#[test]
fn parse_outcomes_match_the_golden_fixture() {
    let fixture_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/parse_outcomes.txt");
    let fixture = std::fs::read_to_string(&fixture_path).expect("fixture is checked in");
    let expected: Vec<&str> = fixture.lines().collect();
    let actual = corpus_outcomes();
    assert_eq!(actual.len(), expected.len(), "corpus size");
    let mut moved = 0;
    let mut mismatches = Vec::new();
    for (recorded, actual) in expected.iter().zip(&actual) {
        let label = recorded.split(' ').next().expect("labelled line");
        let wanted = match MOVED.iter().find(|(l, _)| *l == label) {
            Some((_, now)) => {
                moved += 1;
                let wanted = format!("{label} {now}");
                assert_ne!(
                    *recorded, wanted,
                    "{label} is listed as moved but did not move"
                );
                wanted
            }
            None => (*recorded).to_owned(),
        };
        if *actual != wanted {
            mismatches.push(format!("  expected {wanted}\n  actual   {actual}"));
        }
    }
    assert_eq!(moved, MOVED.len(), "every moved entry is in the corpus");
    assert!(
        mismatches.is_empty(),
        "{} of {} outcomes differ:\n{}",
        mismatches.len(),
        actual.len(),
        mismatches.join("\n")
    );
}
