//! # moccml-lang
//!
//! The textual frontend of the MoCCML reproduction: a `.mcc`
//! specification format, a property syntax, and the compiler that
//! lowers both onto the existing ccsl/automata/engine/verify layers.
//!
//! The paper presents MoCCML as a *language* for describing models of
//! concurrency; until this crate, the reproduction was only drivable
//! through Rust builder APIs. A `.mcc` file declares events,
//! instantiates CCSL relations/expressions and constraint automata
//! (embedded in the `moccml-automata` concrete syntax, parsed in place
//! by that crate's library parser on the one
//! [`TokenCursor`](moccml_automata::TokenCursor) both grammars share),
//! and states properties to verify — and compiles, deterministically,
//! into the same [`Program`](moccml_engine::Program) + [`Prop`] values
//! the programmatic API produces, so verdicts and counterexample
//! schedules match byte for byte. The `moccml` CLI
//! binary of `moccml-serve` (`check` / `explore` / `simulate` /
//! `conformance`) drives it end to end.
//!
//! ## The `.mcc` grammar
//!
//! ```text
//! spec        := "spec" IDENT "{" item* "}"
//! item        := events | library | constraint | assert
//! events      := "events" IDENT ("," IDENT)* ";"
//! library     := "library" IDENT "{" … "}"      // moccml-automata syntax
//! constraint  := "constraint" IDENT "=" IDENT "(" [arg ("," arg)*] ")" ";"
//! arg         := IDENT | ["-"] INT | "[" [INT ("," INT)*] "]"
//! assert      := "assert" prop ";"
//! prop        := "always" "(" pred ")" | "never" "(" pred ")"
//!              | "eventually" "<=" INT "(" pred ")"
//!              | "until" "<=" INT "(" pred "," pred ")"
//!              | "release" "<=" INT "(" pred "," pred ")"
//!              | "deadlock" "-" "free"
//! pred        := andPred ("||" andPred)*
//! andPred     := notPred ("&&" notPred)*
//! notPred     := "!" notPred | "(" pred ")" | IDENT [("#" | "=>") IDENT]
//! ```
//!
//! Built-in constructors (positional arguments; `e` = declared event,
//! `n` = integer):
//!
//! | constructor | arguments | meaning |
//! |---|---|---|
//! | `subclock` | `(sub, sup)` | `sub ⊆ sup` |
//! | `exclusion` | `(e, e, …)` | at most one per step |
//! | `coincidence` | `(a, b)` | `a = b` |
//! | `precedes` | `(cause, effect[, bound])` | strict precedence |
//! | `weak_precedes` | `(cause, effect[, bound])` | causality |
//! | `alternates` | `(first, second)` | strict alternation |
//! | `union` | `(result, e, …)` | `result = e + …` |
//! | `intersection` | `(result, e, …)` | `result = e * …` |
//! | `delay` | `(result, base, n)` | `result = base $ n` |
//! | `periodic` | `(result, base, offset, period)` | periodic filter |
//! | `sampled` | `(result, trigger, base)` | sampling |
//! | `filtered` | `(result, base, [head], [cycle])` | `base filteredBy head·cycle^ω` |
//!
//! Any constraint declared in a preceding `library { … }` block is
//! also a constructor, its parameters bound positionally (`event`
//! parameters take event names, `int` parameters take integers).
//!
//! Property syntax is exactly what
//! [`Prop::display`](moccml_verify::Prop::display) prints, so rendered
//! properties parse back — the `prop → display → parse` round trip the
//! property suite pins (and the `.mcc` pretty-printer
//! [`SpecAst::to_text`] round-trips whole specifications the same
//! way).
//!
//! ## Example
//!
//! ```
//! use moccml_engine::ExploreOptions;
//! use moccml_verify::{check_props, PropStatus};
//!
//! let compiled = moccml_lang::compile_str(r#"
//! spec handshake {
//!   events req, ack;
//!   constraint order = precedes(req, ack, 1);
//!   constraint one_at_a_time = exclusion(req, ack);
//!   assert deadlock-free;
//!   assert never((req && ack));
//! }"#).expect("well-formed spec");
//!
//! let report = check_props(&compiled.program, &compiled.props,
//!                          &ExploreOptions::default());
//! assert_eq!(report.statuses[0], PropStatus::Holds);
//! assert_eq!(report.statuses[1], PropStatus::Holds);
//! ```
//!
//! Errors carry 1-based `line:column` spans everywhere — including
//! inside embedded library blocks, which are lexed and parsed as part
//! of the surrounding file:
//!
//! ```
//! let err = moccml_lang::parse_spec("spec x {\n  events a b;\n}")
//!     .expect_err("missing comma");
//! assert_eq!(err.position(), (2, 12));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod compile;
mod error;
mod parser;
mod printer;

pub use ast::SpecAst;
pub use compile::{compile, Compiled};
pub use error::LangError;

use moccml_kernel::{StepPred, Universe};
use moccml_verify::Prop;

/// Parses a `.mcc` specification into its AST.
///
/// # Errors
///
/// Returns [`LangError::Parse`] (with the offending token's
/// `line:column`) on syntax errors, including syntax errors inside
/// embedded `library { … }` blocks, and [`LangError::Library`] at a
/// block whose library fails validation.
pub fn parse_spec(input: &str) -> Result<SpecAst, LangError> {
    parser::parse(input, parser::Parser::spec)
}

/// Parses and compiles a `.mcc` specification in one call.
///
/// # Errors
///
/// Returns the first [`LangError`] of parsing or compilation.
pub fn compile_str(input: &str) -> Result<Compiled, LangError> {
    compile(&parse_spec(input)?)
}

/// Parses one property in the textual syntax (`always(…)`,
/// `never(…)`, `eventually<=k(…)`, `until<=k(…, …)`,
/// `release<=k(…, …)`, `deadlock-free`) and resolves its event names
/// against `universe` — the small textual property syntax feeding
/// [`Prop`].
///
/// The accepted syntax is exactly what [`Prop::display`] prints:
///
/// ```
/// use moccml_kernel::{StepPred, Universe};
/// use moccml_verify::Prop;
///
/// let mut u = Universe::new();
/// let (a, b) = (u.event("a"), u.event("b"));
/// let prop = Prop::Never(StepPred::and(StepPred::fired(a), StepPred::fired(b)));
/// let parsed = moccml_lang::parse_prop(&prop.display(&u), &u).expect("round-trips");
/// assert_eq!(parsed, prop);
/// ```
///
/// # Errors
///
/// Returns [`LangError::Parse`] on syntax errors and
/// [`LangError::Resolve`] on event names `universe` does not know.
pub fn parse_prop(input: &str, universe: &Universe) -> Result<Prop, LangError> {
    parse_prop_ast(input)?.resolve(universe)
}

/// Parses one property into its unresolved AST (event names kept as
/// text) — [`parse_prop`] without the universe.
///
/// # Errors
///
/// Returns [`LangError::Parse`] on syntax errors.
pub fn parse_prop_ast(input: &str) -> Result<ast::PropAst, LangError> {
    parser::parse(input, parser::Parser::prop)
}

/// Parses one step predicate (`fired` atoms are bare event names,
/// `a # b` excludes, `a => b` implies, `&&`/`||`/`!` combine) and
/// resolves it against `universe`. The accepted syntax is exactly what
/// [`StepPred::display`] prints.
///
/// # Errors
///
/// Returns [`LangError::Parse`] on syntax errors and
/// [`LangError::Resolve`] on unknown event names.
pub fn parse_pred(input: &str, universe: &Universe) -> Result<StepPred, LangError> {
    parser::parse(input, parser::Parser::pred)?.resolve(universe)
}
