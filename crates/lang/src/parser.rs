//! Recursive-descent parser for the `.mcc` concrete syntax, whose
//! grammar the [crate docs](crate) list.
//!
//! The parser drives the [`TokenCursor`] of `moccml-automata`, the one
//! lexer and token cursor of MoCCML text, and a `library` item runs
//! that crate's library parser in place on the same cursor
//! ([`TokenCursor::library_block`]) — one grammar, one implementation,
//! every position already in this file's coordinates.

use crate::ast::{Arg, ConstraintDecl, Item, LibraryBlock, Name, PredAst, PropAst, SpecAst};
use crate::error::LangError;
use moccml_automata::{AutomataError, TokenCursor};

/// Parses all of `input` with `parse`, which drives a [`Parser`] on it.
pub(crate) fn parse<T>(
    input: &str,
    parse: fn(&mut Parser) -> Result<T, AutomataError>,
) -> Result<T, LangError> {
    let mut parser = Parser {
        cur: TokenCursor::new(input).map_err(|e| syntax_error(e, (1, 1)))?,
        block: (1, 1),
    };
    let parsed = parse(&mut parser).and_then(|parsed| {
        if !parser.cur.at_end() {
            return Err(parser
                .cur
                .err(format!("trailing input: {}", parser.cur.describe())));
        }
        Ok(parsed)
    });
    parsed.map_err(|e| syntax_error(e, parser.block))
}

/// A syntax error of the cursor as a [`LangError`]. Only a library
/// block raises errors without a position, its validation errors; they
/// point at `block`, the block being parsed.
fn syntax_error(e: AutomataError, block: (usize, usize)) -> LangError {
    match e {
        AutomataError::Parse {
            line,
            column,
            message,
        } => LangError::Parse {
            line,
            column,
            message,
        },
        source => LangError::Library {
            line: block.0,
            column: block.1,
            source,
        },
    }
}

pub(crate) struct Parser {
    cur: TokenCursor,
    /// Position of the last `library` keyword parsed.
    block: (usize, usize),
}

impl Parser {
    fn expect_name(&mut self, what: &str) -> Result<Name, AutomataError> {
        let (line, column) = self.cur.position();
        let text = self.cur.expect_ident(what)?;
        Ok(Name::new(&text, line, column))
    }

    // ---- specification --------------------------------------------

    pub(crate) fn spec(&mut self) -> Result<SpecAst, AutomataError> {
        self.cur.expect("spec")?;
        let name = self.expect_name("a specification name")?;
        self.cur.expect("{")?;
        let mut items = Vec::new();
        loop {
            if self.cur.eat("}") {
                break;
            }
            if self.cur.at("events") {
                items.push(self.events()?);
            } else if self.cur.at("library") {
                items.push(self.library()?);
            } else if self.cur.at("constraint") {
                items.push(self.constraint()?);
            } else if self.cur.at("assert") {
                items.push(self.assert_item()?);
            } else {
                return Err(self
                    .cur
                    .expected("`events`, `library`, `constraint`, `assert` or `}`"));
            }
        }
        if !self.cur.at_end() {
            return Err(self.cur.err(format!(
                "trailing input after specification: {}",
                self.cur.describe()
            )));
        }
        Ok(SpecAst {
            name: name.text,
            items,
        })
    }

    fn events(&mut self) -> Result<Item, AutomataError> {
        self.cur.expect("events")?;
        let mut names = vec![self.expect_name("an event name")?];
        while self.cur.eat(",") {
            names.push(self.expect_name("an event name")?);
        }
        self.cur.expect(";")?;
        Ok(Item::Events(names))
    }

    /// An embedded `library <name> { … }` block, parsed in place by the
    /// automata library parser. A block the input ends inside is
    /// reported as unclosed, at the last token.
    fn library(&mut self) -> Result<Item, AutomataError> {
        let (line, column) = self.cur.position();
        self.block = (line, column);
        let library = self.cur.library_block().map_err(|e| match e {
            AutomataError::Parse { .. } if self.cur.at_end() => self.cur.err(format!(
                "unclosed library block opened at line {line}, column {column}"
            )),
            e => e,
        })?;
        Ok(Item::Library(LibraryBlock {
            library,
            line,
            column,
        }))
    }

    fn constraint(&mut self) -> Result<Item, AutomataError> {
        self.cur.expect("constraint")?;
        let name = self.expect_name("a constraint name")?;
        self.cur.expect("=")?;
        let ctor = self.expect_name("a constructor name")?;
        self.cur.expect("(")?;
        let mut args = Vec::new();
        if !self.cur.eat(")") {
            loop {
                args.push(self.arg()?);
                if self.cur.eat(")") {
                    break;
                }
                self.cur.expect(",")?;
            }
        }
        self.cur.expect(";")?;
        Ok(Item::Constraint(ConstraintDecl { name, ctor, args }))
    }

    fn arg(&mut self) -> Result<Arg, AutomataError> {
        let (line, column) = self.cur.position();
        if self.cur.peek_ident().is_some() {
            return Ok(Arg::Event(self.expect_name("an argument")?));
        }
        if let Some(v) = self.cur.peek_int() {
            self.cur.expect_int("an integer")?;
            return Ok(Arg::Int(v, line, column));
        }
        if self.cur.eat("-") {
            let v = self.cur.expect_int("an integer after `-`")?;
            return Ok(Arg::Int(-v, line, column));
        }
        if self.cur.eat("[") {
            let mut bits = Vec::new();
            if !self.cur.eat("]") {
                loop {
                    match self.cur.peek_int() {
                        Some(0) => bits.push(false),
                        Some(1) => bits.push(true),
                        _ => return Err(self.cur.expected("a bit (0 or 1)")),
                    }
                    self.cur.expect_int("a bit")?;
                    if self.cur.eat("]") {
                        break;
                    }
                    self.cur.expect(",")?;
                }
            }
            return Ok(Arg::Bits(bits, line, column));
        }
        Err(self
            .cur
            .expected("an event name, an integer or a `[bits]` vector"))
    }

    // ---- properties -----------------------------------------------

    fn assert_item(&mut self) -> Result<Item, AutomataError> {
        self.cur.expect("assert")?;
        let prop = self.prop()?;
        self.cur.expect(";")?;
        Ok(Item::Assert(prop))
    }

    /// A step bound: `<=` and a non-negative integer.
    fn bound(&mut self) -> Result<usize, AutomataError> {
        self.cur.expect("<=")?;
        let (line, column) = self.cur.position();
        let k = self.cur.expect_int("a step bound")?;
        usize::try_from(k).map_err(|_| AutomataError::Parse {
            line,
            column,
            message: format!("step bound `{k}` must be non-negative"),
        })
    }

    /// One property, in exactly the syntax `Prop::display` emits.
    pub(crate) fn prop(&mut self) -> Result<PropAst, AutomataError> {
        if self.cur.eat("always") {
            return Ok(PropAst::Always(self.parenthesized_pred()?));
        }
        if self.cur.eat("never") {
            return Ok(PropAst::Never(self.parenthesized_pred()?));
        }
        if self.cur.eat("eventually") {
            let k = self.bound()?;
            return Ok(PropAst::EventuallyWithin(self.parenthesized_pred()?, k));
        }
        let release = self.cur.eat("release");
        if release || self.cur.eat("until") {
            let k = self.bound()?;
            self.cur.expect("(")?;
            let p = self.pred()?;
            self.cur.expect(",")?;
            let q = self.pred()?;
            self.cur.expect(")")?;
            return Ok(if release {
                PropAst::ReleaseWithin(p, q, k)
            } else {
                PropAst::UntilWithin(p, q, k)
            });
        }
        if self.cur.eat("deadlock") {
            self.cur.expect("-")?;
            self.cur.expect("free")?;
            return Ok(PropAst::DeadlockFree);
        }
        Err(self.cur.expected(
            "`always`, `never`, `eventually<=k`, `until<=k`, `release<=k` or `deadlock-free`",
        ))
    }

    fn parenthesized_pred(&mut self) -> Result<PredAst, AutomataError> {
        self.cur.expect("(")?;
        let p = self.pred()?;
        self.cur.expect(")")?;
        Ok(p)
    }

    /// One step predicate, in exactly the syntax `StepPred::display`
    /// emits, nested at most [`TokenCursor::MAX_NESTING`] levels deep.
    pub(crate) fn pred(&mut self) -> Result<PredAst, AutomataError> {
        Ok(self.or_pred()?.0)
    }

    /// A predicate and its height (an atom has height 1).
    fn or_pred(&mut self) -> Result<(PredAst, usize), AutomataError> {
        let (mut left, mut height) = self.and_pred()?;
        while self.cur.eat("||") {
            let (right, h) = self.and_pred()?;
            height = self.above(height.max(h))?;
            left = PredAst::Or(Box::new(left), Box::new(right));
        }
        Ok((left, height))
    }

    fn and_pred(&mut self) -> Result<(PredAst, usize), AutomataError> {
        let (mut left, mut height) = self.not_pred()?;
        while self.cur.eat("&&") {
            let (right, h) = self.not_pred()?;
            height = self.above(height.max(h))?;
            left = PredAst::And(Box::new(left), Box::new(right));
        }
        Ok((left, height))
    }

    fn not_pred(&mut self) -> Result<(PredAst, usize), AutomataError> {
        if self.cur.eat("!") {
            let (inner, h) = self.nested(Self::not_pred)?;
            return Ok((PredAst::Not(Box::new(inner)), self.above(h)?));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<(PredAst, usize), AutomataError> {
        if self.cur.eat("(") {
            let inner = self.nested(Self::or_pred)?;
            self.cur.expect(")")?;
            return Ok(inner);
        }
        let first = self.expect_name("an event name")?;
        if self.cur.eat("#") {
            let second = self.expect_name("an event name after `#`")?;
            return Ok((PredAst::Excludes(first, second), 1));
        }
        if self.cur.eat("=>") {
            let second = self.expect_name("an event name after `=>`")?;
            return Ok((PredAst::Implies(first, second), 1));
        }
        Ok((PredAst::Fired(first), 1))
    }

    /// Parses the operand of a `!` or `(` one nesting level deeper.
    fn nested<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<T, AutomataError>,
    ) -> Result<T, AutomataError> {
        self.cur.descend("predicate")?;
        let parsed = parse(self);
        self.cur.ascend();
        parsed
    }

    /// The height of a node over a child of height `child`.
    fn above(&self, child: usize) -> Result<usize, AutomataError> {
        self.cur.deeper(child, "predicate")
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
        let at_cap = format!("always({}a)", "!".repeat(TokenCursor::MAX_NESTING - 1));
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

        // a block the input ends inside is reported as unclosed, at the
        // last token, naming the block's own position
        let src = "spec x {\n  library L {\n    constraint C(a: event)\n";
        let err = parse_spec(src).expect_err("unclosed");
        assert!(err.to_string().contains("unclosed library block"), "{err}");
        assert!(err.to_string().contains("line 2, column 3"), "{err}");
        assert_eq!(err.position(), (3, 26), "{err}");

        // an unclosed block with an earlier defect is reported there
        let src = "spec x {\n  library L {\n    initial state S;\n";
        let err = parse_spec(src).expect_err("unclosed");
        assert_eq!(err.position(), (3, 5), "{err}");
        assert!(err.to_string().contains("found `initial`"), "{err}");
    }

    #[test]
    fn embedded_library_errors_keep_the_library_grammar_positions() {
        for (src, line, column, found) in [
            // library text blames the token after a failed expectation
            (
                "spec x {\n  library L {\n    constraint C(a event)\n  }\n}",
                3,
                25,
                "expected `:`, found `event`",
            ),
            // … but not past the `}` that closes the library
            (
                "spec x {\n  library L { constraint C( }\n  events a;\n}",
                2,
                29,
                "expected identifier, found `}`",
            ),
            // dotted names are `.mcc` syntax, not library syntax
            (
                "spec x {\n  library Lib.v2 { }\n}",
                2,
                14,
                "unexpected character `.`",
            ),
            (
                "spec x {\n  library L { constraint C(a.b: event) }\n}",
                2,
                29,
                "unexpected character `.`",
            ),
            // so is `#`
            (
                "spec x {\n  library L { constraint C(# ) }\n}",
                2,
                28,
                "unexpected character `#`",
            ),
        ] {
            let err = parse_spec(src).expect_err(src);
            assert_eq!(err.position(), (line, column), "{src}\n{err}");
            assert!(err.to_string().contains(found), "{src}\n{err}");
        }
    }

    #[test]
    fn deeply_nested_library_guards_are_parse_errors() {
        let spec = |guard: &str| {
            format!(
                "spec x {{\n  library L {{\n    constraint C(a: event)\n    \
                 automaton D implements C {{\n      var v: int = 0;\n      \
                 initial final state S;\n      from S to S when {{a}} guard [{guard}];\n    \
                 }}\n  }}\n}}"
            )
        };
        let cap = TokenCursor::MAX_NESTING;
        let at_cap = format!("{}v{} > 0", "(".repeat(cap), ")".repeat(cap));
        parse_spec(&spec(&at_cap)).expect("nesting at the cap parses");
        let n = 100_000;
        for guard in [
            format!("{}v{} > 0", "(".repeat(n), ")".repeat(n)),
            format!("{}true", "!".repeat(n)),
            format!("{}v > 0", "-".repeat(n)),
        ] {
            let err = parse_spec(&spec(&guard)).expect_err("too deep");
            assert!(matches!(err, LangError::Parse { line: 7, .. }), "{err}");
            assert!(
                err.to_string().contains("expression nested deeper"),
                "{err}"
            );
        }
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
