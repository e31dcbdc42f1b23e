//! The one front end for MoCCML text: a lexer and the [`TokenCursor`]
//! that both grammars drive — the relation-library grammar of this
//! crate ([`parse_library`](crate::parse_library), Fig. 3) and the
//! `.mcc` specification grammar of `moccml-lang`, which parses its
//! embedded `library { … }` blocks in place on the same cursor
//! ([`TokenCursor::library_block`]).
//!
//! One symbol list serves both grammars, and identifiers may be dotted
//! (`hydroA.start`, the agent-event names of the sdf crate). Library
//! text has neither dotted names nor `#`: the library grammar rejects
//! them where it meets them, as the unexpected character they are
//! there. Keywords lex as plain identifiers; each grammar gives them
//! meaning by position, so they stay usable as names.

use crate::error::AutomataError;

/// Every operator and punctuation symbol of both grammars, two-character
/// ones first so that lexing takes the longest match.
const SYMBOLS: [&str; 27] = [
    "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "->", "=>", "{", "}", "(", ")", "[", "]", ",",
    ";", ":", "=", "<", ">", "+", "-", "*", "!", "#",
];

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    /// An identifier or keyword, possibly dotted.
    Ident(String),
    /// A non-negative integer literal.
    Int(i64),
    /// Punctuation or an operator, one of [`SYMBOLS`].
    Sym(&'static str),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
    column: usize,
}

fn parse_error(line: usize, column: usize, message: String) -> AutomataError {
    AutomataError::Parse {
        line,
        column,
        message,
    }
}

/// The index after the run of chars from `i` on that satisfy `pred`.
fn run_end(chars: &[char], i: usize, pred: impl Fn(char) -> bool) -> usize {
    chars[i..]
        .iter()
        .position(|&c| !pred(c))
        .map_or(chars.len(), |n| i + n)
}

fn lex(input: &str) -> Result<Vec<Token>, AutomataError> {
    let chars: Vec<char> = input.chars().collect();
    let mut tokens = Vec::new();
    let mut line = 1usize;
    // index of the first char of the current line, so a token's
    // 1-based column is `i - line_start + 1`
    let mut line_start = 0usize;
    let mut i = 0usize;
    while i < chars.len() {
        let (c, start, column) = (chars[i], i, i - line_start + 1);
        let tok = match c {
            c if c.is_whitespace() => {
                i += 1;
                if c == '\n' {
                    line += 1;
                    line_start = i;
                }
                continue;
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                i = run_end(&chars, i, |c| c != '\n');
                continue;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                i = run_end(&chars, i, |c| {
                    c.is_ascii_alphanumeric() || c == '_' || c == '.'
                });
                Tok::Ident(chars[start..i].iter().collect())
            }
            c if c.is_ascii_digit() => {
                i = run_end(&chars, i, |c| c.is_ascii_digit());
                let text: String = chars[start..i].iter().collect();
                let value = text.parse::<i64>().map_err(|_| {
                    parse_error(
                        line,
                        column,
                        format!("integer literal `{text}` out of range"),
                    )
                })?;
                Tok::Int(value)
            }
            _ => {
                let rest = chars[i..].iter().copied();
                let sym = SYMBOLS
                    .into_iter()
                    .find(|s| s.chars().eq(rest.clone().take(s.len())))
                    .ok_or_else(|| {
                        parse_error(line, column, format!("unexpected character `{c}`"))
                    })?;
                i += sym.len();
                Tok::Sym(sym)
            }
        };
        tokens.push(Token { tok, line, column });
    }
    Ok(tokens)
}

/// A lexed MoCCML text and a read position in it, with the helpers both
/// grammars parse through: peeking, eating and expecting tokens, the
/// position and `expected …, found …` wording of syntax errors, and the
/// nesting cap that bounds the recursion of expression parsers.
///
/// A failed expectation is reported at the offending token in `.mcc`
/// text, and at the token after it in library text, where the library
/// grammar has always reported it (but never past the `}` that closes
/// the library). Every error is an [`AutomataError::Parse`].
#[derive(Debug)]
pub struct TokenCursor {
    tokens: Vec<Token>,
    pub(crate) pos: usize,
    /// Operators (`!`, `(`, unary `-`) open around the expression being
    /// parsed.
    nesting: usize,
    /// Binary operators (`+`, `-`, `*`, `&&`, `||`) in the expression
    /// being parsed.
    pub(crate) operators: usize,
    /// Whether the text under the cursor is library text.
    pub(crate) library: bool,
    /// Whether the library parser stands between the items of a
    /// library body, where a `}` closes the library.
    pub(crate) between_items: bool,
}

impl TokenCursor {
    /// How deeply operators may nest in one expression or predicate.
    /// Parsers recurse once per nested `!`, `(` or unary `-`, and so do
    /// compiling, printing and evaluating the tree, so an unbounded
    /// depth would let one guard or property overflow the stack.
    pub const MAX_NESTING: usize = 64;

    /// How many operands one chain of binary operators (`+`, `-`, `*`,
    /// `&&`, `||`) may join. A chain parses into a left-deep tree that
    /// compiling, printing, evaluating and dropping recurse through, so
    /// the operators of one expression are counted together, chains
    /// nested in chains included, and at most `MAX_CHAIN - 1` of them
    /// are allowed. The cap is a quarter of the longest chain a daemon
    /// lints on its 2 MiB worker stack (10,860 `&&` operands).
    pub const MAX_CHAIN: usize = 2_700;

    /// Lexes `input` and puts the cursor on its first token.
    ///
    /// # Errors
    ///
    /// At a character no token starts with, or at an integer literal
    /// out of `i64` range.
    pub fn new(input: &str) -> Result<Self, AutomataError> {
        Ok(TokenCursor {
            tokens: lex(input)?,
            pos: 0,
            nesting: 0,
            operators: 0,
            library: false,
            between_items: false,
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    /// Whether every token has been consumed.
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Whether the current token is `text`, a symbol or keyword.
    #[must_use]
    pub fn at(&self, text: &str) -> bool {
        match self.peek() {
            Some(Tok::Sym(s)) => *s == text,
            Some(Tok::Ident(s)) => s == text,
            _ => false,
        }
    }

    /// The current token if it is an identifier of this text: dotted
    /// identifiers belong to `.mcc` text only.
    #[must_use]
    pub fn peek_ident(&self) -> Option<&str> {
        match self.peek() {
            Some(Tok::Ident(s)) if !(self.library && s.contains('.')) => Some(s),
            _ => None,
        }
    }

    /// The current token if it is an integer literal.
    #[must_use]
    pub fn peek_int(&self) -> Option<i64> {
        match self.peek() {
            Some(Tok::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// Consumes the current token if it is `text`.
    pub fn eat(&mut self, text: &str) -> bool {
        let at = self.at(text);
        self.pos += usize::from(at);
        at
    }

    /// Consumes `text`, a symbol or keyword.
    ///
    /// # Errors
    ///
    /// `expected `text`, found …` at another token.
    pub fn expect(&mut self, text: &str) -> Result<(), AutomataError> {
        if self.eat(text) {
            return Ok(());
        }
        Err(self.expected(&format!("`{text}`")))
    }

    /// Consumes an identifier.
    ///
    /// # Errors
    ///
    /// `expected <what>, found …` at another token.
    pub fn expect_ident(&mut self, what: &str) -> Result<String, AutomataError> {
        let ident = self.peek_ident().map(str::to_owned);
        let ident = ident.ok_or_else(|| self.expected(what))?;
        self.pos += 1;
        Ok(ident)
    }

    /// Consumes an integer literal.
    ///
    /// # Errors
    ///
    /// `expected <what>, found …` at another token.
    pub fn expect_int(&mut self, what: &str) -> Result<i64, AutomataError> {
        let value = self.peek_int().ok_or_else(|| self.expected(what))?;
        self.pos += 1;
        Ok(value)
    }

    /// `(line, column)` of the current token — or of the last token
    /// once the input is consumed, or `(1, 1)` for an empty text.
    #[must_use]
    pub fn position(&self) -> (usize, usize) {
        self.position_of(self.pos)
    }

    fn position_of(&self, index: usize) -> (usize, usize) {
        self.tokens
            .get(index.min(self.tokens.len().saturating_sub(1)))
            .map_or((1, 1), |t| (t.line, t.column))
    }

    /// The current token as error messages quote it.
    #[must_use]
    pub fn describe(&self) -> String {
        match self.peek() {
            None => "end of input".to_owned(),
            Some(Tok::Ident(s)) => format!("`{s}`"),
            Some(Tok::Int(v)) => format!("`{v}`"),
            Some(Tok::Sym(s)) => format!("`{s}`"),
        }
    }

    /// A syntax error at the current token.
    #[must_use]
    pub fn err(&self, message: String) -> AutomataError {
        self.error_at(self.pos, message)
    }

    /// `expected <what>, found <current token>`, reported where this
    /// text reports a failed expectation (see the type docs).
    #[must_use]
    pub fn expected(&self, what: &str) -> AutomataError {
        let closes_library = self.between_items && self.at("}");
        let blamed = self.pos + usize::from(self.library && !closes_library);
        self.error_at(
            blamed,
            format!("expected {what}, found {}", self.describe()),
        )
    }

    /// A syntax error at the token `index` — unless, in library text,
    /// the current token has a character the library grammar lacks: the
    /// `.` of a dotted identifier or a `#`, reported as unexpected.
    fn error_at(&self, index: usize, message: String) -> AutomataError {
        let foreign = match self.peek().filter(|_| self.library) {
            Some(Tok::Ident(s)) => s.find('.').map(|at| ('.', at)),
            Some(Tok::Sym("#")) => Some(('#', 0)),
            _ => None,
        };
        if let Some((c, offset)) = foreign {
            let (line, column) = self.position();
            return parse_error(line, column + offset, format!("unexpected character `{c}`"));
        }
        let (line, column) = self.position_of(index);
        parse_error(line, column, message)
    }

    /// The depth one level below `depth`.
    ///
    /// # Errors
    ///
    /// `<what> nested deeper than 64 levels` at the current token once
    /// `depth` is at [`MAX_NESTING`](Self::MAX_NESTING).
    pub fn deeper(&self, depth: usize, what: &str) -> Result<usize, AutomataError> {
        if depth < Self::MAX_NESTING {
            return Ok(depth + 1);
        }
        let cap = Self::MAX_NESTING;
        Err(self.err(format!("{what} nested deeper than {cap} levels")))
    }

    /// Opens one more nested operator around the expression being
    /// parsed; [`ascend`](Self::ascend) closes it.
    ///
    /// # Errors
    ///
    /// As [`deeper`](Self::deeper).
    pub fn descend(&mut self, what: &str) -> Result<(), AutomataError> {
        self.nesting = self.deeper(self.nesting, what)?;
        Ok(())
    }

    /// Closes the operator the last [`descend`](Self::descend) opened.
    pub fn ascend(&mut self) {
        self.nesting -= 1;
    }

    /// Counts one more binary operator in the expression being parsed.
    ///
    /// # Errors
    ///
    /// `expression chains more than 2700 operands` at the current token
    /// once the expression holds [`MAX_CHAIN`](Self::MAX_CHAIN)` - 1`
    /// operators.
    pub(crate) fn link(&mut self) -> Result<(), AutomataError> {
        if self.operators + 1 < Self::MAX_CHAIN {
            self.operators += 1;
            return Ok(());
        }
        let cap = Self::MAX_CHAIN;
        Err(self.err(format!("expression chains more than {cap} operands")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<Tok> {
        lex(input)
            .expect("lexes")
            .into_iter()
            .map(|t| t.tok)
            .collect()
    }

    #[test]
    fn tracks_lines_and_columns() {
        let toks = lex("spec X {\n  events a;\n}").expect("lexes");
        assert_eq!((toks[0].line, toks[0].column), (1, 1));
        let events = toks.iter().find(|t| t.tok == Tok::Ident("events".into()));
        let events = events.expect("events token");
        assert_eq!((events.line, events.column), (2, 3));
    }

    #[test]
    fn dotted_idents_and_two_char_symbols() {
        assert_eq!(
            kinds("a.start => b.stop <= 3 # x -> y += -1"),
            vec![
                Tok::Ident("a.start".into()),
                Tok::Sym("=>"),
                Tok::Ident("b.stop".into()),
                Tok::Sym("<="),
                Tok::Int(3),
                Tok::Sym("#"),
                Tok::Ident("x".into()),
                Tok::Sym("->"),
                Tok::Ident("y".into()),
                Tok::Sym("+="),
                Tok::Sym("-"),
                Tok::Int(1),
            ]
        );
    }

    #[test]
    fn every_symbol_lexes_as_itself() {
        for sym in SYMBOLS {
            assert_eq!(kinds(sym), vec![Tok::Sym(sym)], "{sym}");
        }
    }

    #[test]
    fn two_char_lookup_wins_over_one_char_prefixes() {
        // most two-character symbols start with a one-character one, so
        // the lexer must take the longest match
        assert_eq!(kinds("<=>"), vec![Tok::Sym("<="), Tok::Sym(">")]);
        assert_eq!(kinds("< ="), vec![Tok::Sym("<"), Tok::Sym("=")]);
        for two in SYMBOLS.into_iter().filter(|s| s.len() == 2) {
            assert_eq!(kinds(two), vec![Tok::Sym(two)], "{two}");
        }
    }

    #[test]
    fn keywords_lex_as_identifiers() {
        // both grammars give keywords their meaning by position
        for kw in [
            "spec",
            "events",
            "library",
            "constraint",
            "automaton",
            "state",
            "free",
        ] {
            assert_eq!(kinds(kw), vec![Tok::Ident(kw.to_owned())]);
        }
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("a // comment { } ;\nb").expect("lexes");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn rejects_hostile_characters_with_position() {
        let err = lex("spec X {\n  €\n}").expect_err("fails");
        assert!(
            matches!(
                err,
                AutomataError::Parse {
                    line: 2,
                    column: 3,
                    ..
                }
            ),
            "{err}"
        );
        let err = lex(&format!("n = {}9", "9".repeat(30))).expect_err("overflow");
        assert!(
            matches!(
                err,
                AutomataError::Parse {
                    line: 1,
                    column: 5,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn failed_expectations_blame_by_text_kind() {
        // `.mcc` text blames the offending token, library text the next
        let mut cursor = TokenCursor::new("a b c").expect("lexes");
        let err = cursor.expect(";").expect_err("no `;`");
        assert_eq!(
            err.to_string(),
            "parse error at line 1, column 1: expected `;`, found `a`"
        );
        cursor.library = true;
        let err = cursor.expect(";").expect_err("no `;`");
        assert!(
            matches!(err, AutomataError::Parse { column: 3, .. }),
            "{err}"
        );
    }

    #[test]
    fn library_text_rejects_dots_and_hashes_where_it_meets_them() {
        let mut cursor = TokenCursor::new("ab.cd #").expect("lexes");
        assert_eq!(cursor.peek_ident(), Some("ab.cd"));
        cursor.library = true;
        assert_eq!(cursor.peek_ident(), None);
        let err = cursor.expect_ident("identifier").expect_err("dotted");
        assert_eq!(
            err.to_string(),
            "parse error at line 1, column 3: unexpected character `.`"
        );
        cursor.pos = 1;
        let err = cursor.err("anything".into());
        assert_eq!(
            err.to_string(),
            "parse error at line 1, column 7: unexpected character `#`"
        );
    }

    #[test]
    fn nesting_stops_at_the_cap() {
        let mut cursor = TokenCursor::new("x").expect("lexes");
        for _ in 0..TokenCursor::MAX_NESTING {
            cursor.descend("expression").expect("within the cap");
        }
        let err = cursor.descend("expression").expect_err("past the cap");
        assert!(
            err.to_string()
                .contains("expression nested deeper than 64 levels"),
            "{err}"
        );
        cursor.ascend();
        cursor.descend("expression").expect("back within the cap");
    }
}
