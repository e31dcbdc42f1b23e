//! Recursive-descent parser for the `.mcc` concrete syntax.
//!
//! The grammar (line comments start with `//`):
//!
//! ```text
//! spec        := "spec" IDENT "{" item* "}"
//! item        := events | library | constraint | assert
//! events      := "events" IDENT ("," IDENT)* ";"
//! library     := "library" IDENT "{" … "}"      // moccml-automata
//!                                               // concrete syntax,
//!                                               // embedded verbatim
//! constraint  := "constraint" IDENT "=" IDENT "(" [arg ("," arg)*] ")" ";"
//! arg         := IDENT | ["-"] INT | "[" [INT ("," INT)*] "]"
//! assert      := "assert" prop ";"
//! prop        := "always" "(" pred ")"
//!              | "never" "(" pred ")"
//!              | "eventually" "<=" INT "(" pred ")"
//!              | "until" "<=" INT "(" pred "," pred ")"
//!              | "release" "<=" INT "(" pred "," pred ")"
//!              | "deadlock" "-" "free"
//! pred        := andPred ("||" andPred)*
//! andPred     := notPred ("&&" notPred)*
//! notPred     := "!" notPred | atom
//! atom        := "(" pred ")" | IDENT [("#" | "=>") IDENT]
//! ```
//!
//! `library` blocks are *not* re-parsed by this module: the parser
//! balances braces to find the end of the block, slices the raw source
//! and delegates to [`moccml_automata::parse_library`] — one grammar,
//! one implementation. Errors coming back from that parser are
//! remapped into the coordinates of the surrounding `.mcc` file.

use crate::ast::{Arg, ConstraintDecl, Item, LibraryBlock, Name, PredAst, PropAst, SpecAst};
use crate::error::LangError;
use crate::lexer::{lex, Tok, Token};
use moccml_automata::AutomataError;

/// How deeply a step predicate may nest. The parser recurses once per
/// `!` and `(`, and compiling, printing and evaluating a predicate
/// recurse once per tree level, so an unbounded depth would let one
/// assert overflow the stack.
const MAX_PRED_DEPTH: usize = 64;

pub(crate) struct Parser<'a> {
    input: &'a str,
    tokens: Vec<Token>,
    pos: usize,
    /// `!` and `(` open around the predicate being parsed.
    nesting: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(input: &'a str) -> Result<Self, LangError> {
        Ok(Parser {
            input,
            tokens: lex(input)?,
            pos: 0,
            nesting: 0,
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    /// `(line, column)` of the token the parser is looking at — or of
    /// the last token when the input ended early.
    fn position(&self) -> (usize, usize) {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or((1, 1), |t| (t.line, t.column))
    }

    fn err(&self, message: String) -> LangError {
        let (line, column) = self.position();
        LangError::Parse {
            line,
            column,
            message,
        }
    }

    fn describe(&self) -> String {
        match self.peek() {
            None => "end of input".to_owned(),
            Some(Tok::Ident(s)) => format!("`{s}`"),
            Some(Tok::Int(v)) => format!("`{v}`"),
            Some(Tok::Sym(s)) => format!("`{s}`"),
        }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn expect_sym(&mut self, sym: &'static str) -> Result<(), LangError> {
        if matches!(self.peek(), Some(Tok::Sym(s)) if *s == sym) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{sym}`, found {}", self.describe())))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), LangError> {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {}", self.describe())))
        }
    }

    fn expect_name(&mut self, what: &str) -> Result<Name, LangError> {
        let (line, column) = self.position();
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let name = Name::new(s, line, column);
                self.pos += 1;
                Ok(name)
            }
            _ => Err(self.err(format!("expected {what}, found {}", self.describe()))),
        }
    }

    fn expect_int(&mut self, what: &str) -> Result<i64, LangError> {
        match self.peek() {
            Some(Tok::Int(v)) => {
                let v = *v;
                self.pos += 1;
                Ok(v)
            }
            _ => Err(self.err(format!("expected {what}, found {}", self.describe()))),
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    // ---- specification --------------------------------------------

    pub(crate) fn spec(&mut self) -> Result<SpecAst, LangError> {
        self.expect_keyword("spec")?;
        let name = self.expect_name("a specification name")?;
        self.expect_sym("{")?;
        let mut items = Vec::new();
        loop {
            if self.eat_sym("}") {
                break;
            }
            if self.at_keyword("events") {
                items.push(self.events()?);
            } else if self.at_keyword("library") {
                items.push(self.library()?);
            } else if self.at_keyword("constraint") {
                items.push(self.constraint()?);
            } else if self.at_keyword("assert") {
                items.push(self.assert_item()?);
            } else {
                return Err(self.err(format!(
                    "expected `events`, `library`, `constraint`, `assert` or `}}`, found {}",
                    self.describe()
                )));
            }
        }
        if self.peek().is_some() {
            return Err(self.err(format!(
                "trailing input after specification: {}",
                self.describe()
            )));
        }
        Ok(SpecAst {
            name: name.text,
            items,
        })
    }

    fn events(&mut self) -> Result<Item, LangError> {
        self.expect_keyword("events")?;
        let mut names = vec![self.expect_name("an event name")?];
        while self.eat_sym(",") {
            names.push(self.expect_name("an event name")?);
        }
        self.expect_sym(";")?;
        Ok(Item::Events(names))
    }

    /// Captures an embedded `library <name> { … }` block by balancing
    /// braces over the token stream and hands the raw slice to the
    /// automata parser.
    fn library(&mut self) -> Result<Item, LangError> {
        let kw = &self.tokens[self.pos];
        let (kw_line, kw_column, kw_start) = (kw.line, kw.column, kw.start);
        self.expect_keyword("library")?;
        let _name = self.expect_name("a library name")?;
        self.expect_sym("{")?;
        let mut depth = 1usize;
        let end = loop {
            match self.bump() {
                Some(Tok::Sym("{")) => depth += 1,
                Some(Tok::Sym("}")) => {
                    depth -= 1;
                    if depth == 0 {
                        break self.tokens[self.pos - 1].end;
                    }
                }
                Some(_) => {}
                None => {
                    return Err(self.err(format!(
                        "unclosed library block opened at line {kw_line}, column {kw_column}"
                    )))
                }
            }
        };
        let source = &self.input[kw_start..end];
        let library = moccml_automata::parse_library(source)
            .map_err(|e| remap_library_error(e, kw_line, kw_column))?;
        Ok(Item::Library(LibraryBlock {
            library,
            line: kw_line,
            column: kw_column,
        }))
    }

    fn constraint(&mut self) -> Result<Item, LangError> {
        self.expect_keyword("constraint")?;
        let name = self.expect_name("a constraint name")?;
        self.expect_sym("=")?;
        let ctor = self.expect_name("a constructor name")?;
        self.expect_sym("(")?;
        let mut args = Vec::new();
        if !self.eat_sym(")") {
            loop {
                args.push(self.arg()?);
                if self.eat_sym(")") {
                    break;
                }
                self.expect_sym(",")?;
            }
        }
        self.expect_sym(";")?;
        Ok(Item::Constraint(ConstraintDecl { name, ctor, args }))
    }

    fn arg(&mut self) -> Result<Arg, LangError> {
        let (line, column) = self.position();
        match self.peek() {
            Some(Tok::Ident(_)) => Ok(Arg::Event(self.expect_name("an argument")?)),
            Some(Tok::Int(v)) => {
                let v = *v;
                self.pos += 1;
                Ok(Arg::Int(v, line, column))
            }
            Some(Tok::Sym("-")) => {
                self.pos += 1;
                let v = self.expect_int("an integer after `-`")?;
                Ok(Arg::Int(-v, line, column))
            }
            Some(Tok::Sym("[")) => {
                self.pos += 1;
                let mut bits = Vec::new();
                if !self.eat_sym("]") {
                    loop {
                        let (bl, bc) = self.position();
                        match self.expect_int("a bit (0 or 1)")? {
                            0 => bits.push(false),
                            1 => bits.push(true),
                            other => {
                                return Err(LangError::Parse {
                                    line: bl,
                                    column: bc,
                                    message: format!("expected a bit (0 or 1), found `{other}`"),
                                })
                            }
                        }
                        if self.eat_sym("]") {
                            break;
                        }
                        self.expect_sym(",")?;
                    }
                }
                Ok(Arg::Bits(bits, line, column))
            }
            _ => Err(self.err(format!(
                "expected an event name, an integer or a `[bits]` vector, found {}",
                self.describe()
            ))),
        }
    }

    // ---- properties -----------------------------------------------

    fn assert_item(&mut self) -> Result<Item, LangError> {
        self.expect_keyword("assert")?;
        let prop = self.prop()?;
        self.expect_sym(";")?;
        Ok(Item::Assert(prop))
    }

    /// One property, in exactly the syntax `Prop::display` emits.
    pub(crate) fn prop(&mut self) -> Result<PropAst, LangError> {
        if self.at_keyword("always") {
            self.pos += 1;
            self.expect_sym("(")?;
            let p = self.pred()?;
            self.expect_sym(")")?;
            return Ok(PropAst::Always(p));
        }
        if self.at_keyword("never") {
            self.pos += 1;
            self.expect_sym("(")?;
            let p = self.pred()?;
            self.expect_sym(")")?;
            return Ok(PropAst::Never(p));
        }
        if self.at_keyword("eventually") {
            self.pos += 1;
            self.expect_sym("<=")?;
            let (line, column) = self.position();
            let k = self.expect_int("a step bound")?;
            let k = usize::try_from(k).map_err(|_| LangError::Parse {
                line,
                column,
                message: format!("step bound `{k}` must be non-negative"),
            })?;
            self.expect_sym("(")?;
            let p = self.pred()?;
            self.expect_sym(")")?;
            return Ok(PropAst::EventuallyWithin(p, k));
        }
        if self.at_keyword("until") || self.at_keyword("release") {
            let release = self.at_keyword("release");
            self.pos += 1;
            self.expect_sym("<=")?;
            let (line, column) = self.position();
            let k = self.expect_int("a step bound")?;
            let k = usize::try_from(k).map_err(|_| LangError::Parse {
                line,
                column,
                message: format!("step bound `{k}` must be non-negative"),
            })?;
            self.expect_sym("(")?;
            let p = self.pred()?;
            self.expect_sym(",")?;
            let q = self.pred()?;
            self.expect_sym(")")?;
            return Ok(if release {
                PropAst::ReleaseWithin(p, q, k)
            } else {
                PropAst::UntilWithin(p, q, k)
            });
        }
        if self.at_keyword("deadlock") {
            self.pos += 1;
            self.expect_sym("-")?;
            self.expect_keyword("free")?;
            return Ok(PropAst::DeadlockFree);
        }
        Err(self.err(format!(
            "expected `always`, `never`, `eventually<=k`, `until<=k`, `release<=k` or \
             `deadlock-free`, found {}",
            self.describe()
        )))
    }

    /// One step predicate, in exactly the syntax `StepPred::display`
    /// emits, nested at most [`MAX_PRED_DEPTH`] levels deep.
    pub(crate) fn pred(&mut self) -> Result<PredAst, LangError> {
        Ok(self.or_pred()?.0)
    }

    /// A predicate and its height (an atom has height 1).
    fn or_pred(&mut self) -> Result<(PredAst, usize), LangError> {
        let (mut left, mut height) = self.and_pred()?;
        while self.eat_sym("||") {
            let (right, h) = self.and_pred()?;
            height = self.above(height.max(h))?;
            left = PredAst::Or(Box::new(left), Box::new(right));
        }
        Ok((left, height))
    }

    fn and_pred(&mut self) -> Result<(PredAst, usize), LangError> {
        let (mut left, mut height) = self.not_pred()?;
        while self.eat_sym("&&") {
            let (right, h) = self.not_pred()?;
            height = self.above(height.max(h))?;
            left = PredAst::And(Box::new(left), Box::new(right));
        }
        Ok((left, height))
    }

    fn not_pred(&mut self) -> Result<(PredAst, usize), LangError> {
        if self.eat_sym("!") {
            let (inner, h) = self.nested(Self::not_pred)?;
            return Ok((PredAst::Not(Box::new(inner)), self.above(h)?));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<(PredAst, usize), LangError> {
        if self.eat_sym("(") {
            let inner = self.nested(Self::or_pred)?;
            self.expect_sym(")")?;
            return Ok(inner);
        }
        let first = self.expect_name("an event name")?;
        if self.eat_sym("#") {
            let second = self.expect_name("an event name after `#`")?;
            return Ok((PredAst::Excludes(first, second), 1));
        }
        if self.eat_sym("=>") {
            let second = self.expect_name("an event name after `=>`")?;
            return Ok((PredAst::Implies(first, second), 1));
        }
        Ok((PredAst::Fired(first), 1))
    }

    /// Parses the operand of a `!` or `(` one nesting level deeper.
    fn nested<T>(&mut self, parse: fn(&mut Self) -> Result<T, LangError>) -> Result<T, LangError> {
        if self.nesting == MAX_PRED_DEPTH {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        let parsed = parse(self);
        self.nesting -= 1;
        parsed
    }

    /// The height of a node over a child of height `child`.
    fn above(&self, child: usize) -> Result<usize, LangError> {
        if child == MAX_PRED_DEPTH {
            return Err(self.too_deep());
        }
        Ok(child + 1)
    }

    fn too_deep(&self) -> LangError {
        self.err(format!(
            "predicate nested deeper than {MAX_PRED_DEPTH} levels"
        ))
    }

    /// Fails unless the whole input was consumed.
    pub(crate) fn expect_end(&mut self) -> Result<(), LangError> {
        if self.peek().is_some() {
            return Err(self.err(format!("trailing input: {}", self.describe())));
        }
        Ok(())
    }
}

/// Remaps an error from the embedded automata parser (whose positions
/// are relative to the sliced library block) into the coordinates of
/// the surrounding `.mcc` source. Syntax errors keep their precision;
/// semantic validation errors (no position of their own) point at the
/// start of the block.
fn remap_library_error(e: AutomataError, block_line: usize, block_column: usize) -> LangError {
    match e {
        AutomataError::Parse {
            line,
            column,
            message,
        } => LangError::Parse {
            // relative line 1 is the line of the `library` keyword
            // itself, so columns on it shift by the keyword's column
            line: block_line + line.saturating_sub(1),
            column: if line <= 1 {
                block_column + column.saturating_sub(1)
            } else {
                column
            },
            message,
        },
        other => LangError::Library {
            line: block_line,
            column: block_column,
            source: other,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_spec;

    const SDF_SPEC: &str = r#"
// a two-place pipeline with an embedded Fig. 3 library
spec pipeline {
  events w1, r1, w2, r2;

  library SDF {
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

  constraint p1 = PlaceConstraint(w1, r1, 1, 1, 0, 1);
  constraint p2 = PlaceConstraint(w2, r2, 1, 1, 0, 2);
  constraint chain = coincidence(r1, w2);

  assert deadlock-free;
  assert never((r1 && w1));
}
"#;

    #[test]
    fn parses_a_full_spec() {
        let ast = parse_spec(SDF_SPEC).expect("parses");
        assert_eq!(ast.name, "pipeline");
        assert_eq!(ast.event_names(), ["w1", "r1", "w2", "r2"]);
        assert_eq!(ast.constraints().len(), 3);
        assert_eq!(ast.props().len(), 2);
        let libs = ast.libraries();
        assert_eq!(libs.len(), 1);
        assert_eq!(libs[0].library.name(), "SDF");
        assert!(libs[0].library.declaration("PlaceConstraint").is_some());
        assert_eq!((libs[0].line, libs[0].column), (6, 3));
    }

    #[test]
    fn parses_every_builtin_ctor() {
        let ast = parse_spec(
            "spec all {\n  events a, b, c;\n\
             constraint s = subclock(a, b);\n\
             constraint x = exclusion(a, b, c);\n\
             constraint k = coincidence(a, b);\n\
             constraint p = precedes(a, b, 2);\n\
             constraint w = weak_precedes(a, b);\n\
             constraint l = alternates(a, b);\n\
             constraint u = union(c, a, b);\n\
             constraint i = intersection(c, a, b);\n\
             constraint d = delay(c, a, 1);\n\
             constraint e = periodic(c, a, 0, 2);\n\
             constraint m = sampled(c, a, b);\n\
             constraint f = filtered(c, a, [], [1, 0]);\n}",
        )
        .expect("parses");
        assert_eq!(ast.constraints().len(), 12);
    }

    #[test]
    fn deeply_nested_predicates_are_parse_errors() {
        // the cap itself still parses
        let at_cap = format!("always({}a)", "!".repeat(MAX_PRED_DEPTH - 1));
        assert!(crate::parse_prop_ast(&at_cap).is_ok());
        let n = 200_000;
        for text in [
            format!("always({}a)", "!".repeat(n)),
            format!("always({}a{})", "(".repeat(n), ")".repeat(n)),
            format!("always({})", vec!["a"; n].join(" && ")),
            format!("never({})", vec!["a"; n].join(" || ")),
        ] {
            let err = crate::parse_prop_ast(&text).expect_err("too deep");
            assert!(err.to_string().contains("nested deeper"), "{err}");
        }
    }

    #[test]
    fn pred_syntax_matches_steppred_display() {
        // the exact strings StepPred::display produces must parse
        for (text, expected_fragments) in [
            ("always(a)", 0usize),
            ("never((a && b))", 0),
            ("eventually<=4((a || !b))", 4),
            ("until<=3(a, b)", 0),
            ("until<=7((a && !b), (b || c))", 0),
            ("release<=2(a => b, c)", 0),
            ("release<=0(!a, b # c)", 0),
            ("always(a => b)", 0),
            ("never(!a # b)", 0),
            ("deadlock-free", 0),
        ] {
            let prop = crate::parse_prop_ast(text).expect(text);
            assert_eq!(prop.to_string(), text, "canonical form is stable");
            if let crate::ast::PropAst::EventuallyWithin(_, k) = &prop {
                assert_eq!(*k, expected_fragments);
            }
        }
    }

    #[test]
    fn not_binds_tighter_than_and_looser_than_atoms() {
        use crate::ast::PredAst;
        let prop = crate::parse_prop_ast("never(!a # b)").expect("parses");
        let crate::ast::PropAst::Never(p) = prop else {
            panic!("never");
        };
        assert!(matches!(p, PredAst::Not(inner) if matches!(*inner, PredAst::Excludes(..))));
    }

    #[test]
    fn syntax_errors_carry_line_and_column() {
        for (src, line, column) in [
            // missing `;` after events: error at `constraint`
            (
                "spec x {\n  events a\n  constraint c = subclock(a, a);\n}",
                3,
                3,
            ),
            // `=` missing
            (
                "spec x {\n  events a;\n  constraint c subclock(a, a);\n}",
                3,
                16,
            ),
            // a property typo
            ("spec x {\n  events a;\n  assert allways(a);\n}", 3, 10),
            // until with one predicate: error at the `)` where the
            // `,` was expected
            ("spec x {\n  events a;\n  assert until<=2(a);\n}", 3, 20),
            // release missing its bound: error at the `(`
            (
                "spec x {\n  events a, b;\n  assert release<=(a, b);\n}",
                3,
                19,
            ),
            // stray token at top level
            ("spec x { events a; } garbage", 1, 22),
            // a non-bit in a bit vector
            (
                "spec x {\n  events a, b;\n  constraint f = filtered(a, b, [2], [1]);\n}",
                3,
                34,
            ),
        ] {
            let err = parse_spec(src).expect_err(src);
            assert_eq!(err.position(), (line, column), "{src}\n{err}");
        }
    }

    #[test]
    fn embedded_library_syntax_errors_remap_into_spec_coordinates() {
        // the `@` sits on line 4 of the spec, column 7
        let src = "spec x {\n  events a;\n  library L {\n      @\n  }\n}";
        let err = parse_spec(src).expect_err("bad library");
        assert_eq!(err.position(), (4, 7), "{err}");
        assert!(matches!(err, LangError::Parse { .. }));

        // a block whose braces never balance is caught by the spec
        // parser with the block's own position
        let src = "spec x {\n  library L {\n    initial state S;\n";
        let err = parse_spec(src).expect_err("unclosed");
        assert!(err.to_string().contains("unclosed library block"), "{err}");
        assert!(err.to_string().contains("line 2, column 3"), "{err}");
    }

    #[test]
    fn embedded_library_semantic_errors_point_at_the_block() {
        // duplicate declaration: a *semantic* automata error with no
        // position of its own — reported at the block start
        let src = "spec x {\n  library L {\n    constraint C(a: event)\n    constraint C(a: event)\n  }\n}";
        let err = parse_spec(src).expect_err("duplicate");
        match err {
            LangError::Library { line, column, .. } => assert_eq!((line, column), (2, 3)),
            other => panic!("expected Library error, got {other}"),
        }
    }

    #[test]
    fn hostile_inputs_fail_cleanly() {
        for src in [
            "",
            "spec",
            "spec x",
            "spec x {",
            "spec x { events ; }",
            "spec x { events a, ; }",
            "spec x { constraint = subclock(a, b); }",
            "spec x { assert eventually<=(a); }",
            "spec x { assert eventually<=-1(a); }",
            "spec x { assert until<=2(a); }",
            "spec x { assert until<=(a, b); }",
            "spec x { assert until<=-1(a, b); }",
            "spec x { assert release<=2(a b); }",
            "spec x { assert release<=2(a, ); }",
            "spec x { assert until(a, b); }",
            "spec x { assert deadlock-locked; }",
            "spec x { library L }",
            "spec x { constraint c = subclock(a,); }",
            "spec { }",
            "spec x { events a; assert never(a; }",
            "spec x { events \u{1F980}; }",
        ] {
            let err = parse_spec(src).expect_err(src);
            let (line, column) = err.position();
            assert!(line >= 1 && column >= 1, "degenerate span for {src:?}");
        }
    }
}
