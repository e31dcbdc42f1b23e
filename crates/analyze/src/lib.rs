//! # moccml-analyze
//!
//! Static analysis for `.mcc` MoCCML specifications: a multi-pass lint
//! engine over the parsed [`SpecAst`] *and*
//! the compiled [`Program`](moccml_engine::Program), producing
//! [`Diagnostic`]s with stable codes, severities and `line:column`
//! spans — plus the cone-of-influence machinery that lets
//! `moccml_verify::check` explore strictly fewer states for local
//! properties.
//!
//! The paper's workflow assumes specs are *meaningful* before they are
//! explored; this crate catches the meaningless ones at compile time:
//! an unreachable automaton state, an event that can statically never
//! fire, a vacuous `assert` — each would otherwise sail silently into
//! an expensive (possibly non-terminating) BFS.
//!
//! ## Lint catalog
//!
//! | Code | Severity | Finding |
//! |------|----------|---------|
//! | A001 | warn  | automaton state unreachable from the initial state |
//! | A002 | warn  | transition can never fire (`when`/`forbid` overlap, constant-false guard) |
//! | A003 | warn  | nondeterministic overlap: same triggers, at least one exit unguarded |
//! | A004 | warn  | reachable non-final sink state: entering it blocks its events forever |
//! | A005 | info  | empty `library { }` block |
//! | A010 | warn  | declared event neither constrained nor asserted about |
//! | A011 | warn  | duplicate constraint (same footprint, state and lowered formula) |
//! | A012 | warn  | constraint subsumed by another stateless constraint |
//! | A013 | warn  | event can never fire (per-constraint may-fire abstraction) |
//! | A020 | warn  | assert references an event no constraint touches |
//! | A021 | error | `eventually<=0(…)` is unsatisfiable by construction |
//! | A022 | warn  | assert predicate is tautological |
//! | A023 | warn  | assert predicate is contradictory |
//! | A030 | info  | assert's cone of influence is a proper constraint subset (`CheckOptions::with_slice` opportunity) |
//!
//! Codes are append-only and never change meaning. The same catalog,
//! with examples and fixes, lives in the repository README's "Static
//! analysis" section.
//!
//! ## Example
//!
//! ```
//! use moccml_analyze::{analyze_str, Severity};
//!
//! let diagnostics = analyze_str(
//!     "spec demo {
//!        events a, b, orphan;
//!        constraint alt = alternates(a, b);
//!        assert eventually<=0(a);
//!      }",
//! )?;
//! let codes: Vec<&str> = diagnostics.iter().map(|d| d.code).collect();
//! assert_eq!(codes, ["A010", "A021"]); // orphan unused; bound 0 unsatisfiable
//! assert_eq!(diagnostics[1].severity, Severity::Error);
//! # Ok::<(), moccml_lang::LangError>(())
//! ```
//!
//! The `moccml lint` subcommand (in `moccml-serve`, which owns the
//! `moccml` binary) renders these findings in compiler style or as
//! JSON and maps severities to exit codes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod automaton;
mod diagnostic;
mod prop_lints;
mod spec_lints;

pub use diagnostic::{render_json, render_text, Diagnostic, Severity};

use moccml_lang::ast::SpecAst;
use moccml_lang::{compile, parse_spec, Compiled, LangError};

/// Runs every lint pass over a parsed and compiled specification.
///
/// The two views must come from the same source (`compiled =
/// compile(ast)`): the AST contributes spans and declaration order, the
/// compiled program contributes footprints, lowered formulas and
/// properties. Diagnostics come back sorted by `(line, column, code)`.
#[must_use]
pub fn analyze(ast: &SpecAst, compiled: &Compiled) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    automaton::lint_automata(ast, &mut out);
    let dead = spec_lints::lint_spec(ast, compiled, &mut out);
    prop_lints::lint_props(ast, compiled, &dead, &mut out);
    out.sort_by_key(|d| (d.line, d.column, d.code));
    out
}

/// Parses, compiles and [`analyze`]s a `.mcc` source string.
///
/// # Errors
///
/// Returns the underlying [`LangError`] when the source does not parse
/// or compile — linting needs a well-formed spec; syntax errors are the
/// parser's job.
pub fn analyze_str(source: &str) -> Result<Vec<Diagnostic>, LangError> {
    let ast = parse_spec(source)?;
    let compiled = compile(&ast)?;
    Ok(analyze(&ast, &compiled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_are_sorted_by_position() {
        let diags = analyze_str(
            "spec s {\n\
               events a, b, orphan, ghost;\n\
               constraint c = alternates(a, b);\n\
               assert never(ghost);\n\
               assert eventually<=0(a);\n\
             }",
        )
        .expect("compiles");
        let positions: Vec<(usize, usize)> = diags.iter().map(|d| (d.line, d.column)).collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(positions, sorted);
        assert!(diags.len() >= 3); // orphan A010, ghost A020, bound A021
    }

    #[test]
    fn parse_errors_pass_through() {
        let err = analyze_str("spec s { events }").expect_err("bad syntax");
        let (line, column) = err.position();
        assert!(line >= 1 && column >= 1);
    }

    #[test]
    fn a_clean_spec_produces_no_diagnostics() {
        let diags = analyze_str(
            "spec clean {\n\
               events req, grant;\n\
               constraint handshake = alternates(req, grant);\n\
               assert never((req && grant));\n\
               assert deadlock-free;\n\
             }",
        )
        .expect("compiles");
        assert!(diags.is_empty(), "{diags:?}");
    }
}
