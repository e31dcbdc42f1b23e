//! [`LangError`]: every way a `.mcc` specification can be rejected,
//! always with a 1-based `line:column` position.

use moccml_automata::AutomataError;
use std::error::Error;
use std::fmt;

/// Errors raised while lexing, parsing, resolving or compiling a
/// `.mcc` specification.
///
/// Every variant carries the 1-based line and column of the offending
/// token (embedded automata libraries are parsed in place, so their
/// positions are positions in the `.mcc` source), so a frontend can
/// always print `file:line:col`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LangError {
    /// The concrete syntax could not be parsed.
    Parse {
        /// 1-based line of the offending token.
        line: usize,
        /// 1-based column of the offending token on its line.
        column: usize,
        /// What was expected / found.
        message: String,
    },
    /// The syntax is well-formed but a name, arity or argument kind is
    /// wrong (unknown event, unknown constructor, bad bound, …).
    Resolve {
        /// 1-based line of the offending token.
        line: usize,
        /// 1-based column of the offending token on its line.
        column: usize,
        /// What was wrong.
        message: String,
    },
    /// An embedded `library { … }` block failed *semantic* validation
    /// in `moccml-automata` (duplicate names, missing initial state,
    /// …). Syntax errors inside a block are [`LangError::Parse`]
    /// instead; this variant points at the start of the block.
    Library {
        /// 1-based line of the `library` keyword.
        line: usize,
        /// 1-based column of the `library` keyword.
        column: usize,
        /// The underlying automata error.
        source: AutomataError,
    },
}

impl LangError {
    /// The `(line, column)` position of the error.
    #[must_use]
    pub fn position(&self) -> (usize, usize) {
        match self {
            LangError::Parse { line, column, .. }
            | LangError::Resolve { line, column, .. }
            | LangError::Library { line, column, .. } => (*line, *column),
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Parse {
                line,
                column,
                message,
            } => write!(f, "parse error at line {line}, column {column}: {message}"),
            LangError::Resolve {
                line,
                column,
                message,
            } => write!(f, "error at line {line}, column {column}: {message}"),
            LangError::Library {
                line,
                column,
                source,
            } => write!(
                f,
                "in library block at line {line}, column {column}: {source}"
            ),
        }
    }
}

impl Error for LangError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LangError::Library { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_positions() {
        let e = LangError::Parse {
            line: 4,
            column: 9,
            message: "expected `;`".into(),
        };
        assert_eq!(
            e.to_string(),
            "parse error at line 4, column 9: expected `;`"
        );
        assert_eq!(e.position(), (4, 9));
        let e = LangError::Resolve {
            line: 2,
            column: 1,
            message: "unknown event `x`".into(),
        };
        assert!(e.to_string().contains("line 2, column 1"));
        let e = LangError::Library {
            line: 7,
            column: 3,
            source: AutomataError::UnknownName {
                kind: "state",
                name: "S9".into(),
            },
        };
        assert!(e.to_string().contains("unknown state `S9`"));
        assert!(Error::source(&e).is_some());
    }
}
