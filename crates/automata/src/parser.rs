//! Textual concrete syntax for MoCCML relation libraries.
//!
//! The paper combines graphical and textual notations; this module is
//! the textual half. The grammar mirrors Fig. 3:
//!
//! ```text
//! library        := "library" IDENT "{" (constraint | automaton)* "}"
//! constraint     := "constraint" IDENT "(" [param ("," param)*] ")"
//! param          := IDENT ":" ("event" | "int")
//! automaton      := "automaton" IDENT "implements" IDENT "{" item* "}"
//! item           := var | state | transition
//! var            := "var" IDENT ":" "int" "=" intExpr ";"
//! state          := ["initial"] ["final"] "state" IDENT ";"
//! transition     := "from" IDENT "to" IDENT
//!                   ["when" eventSet] ["forbid" eventSet]
//!                   ["guard" "[" boolExpr "]"]
//!                   ["do" action ("," action)*] ";"
//! eventSet       := "{" [IDENT ("," IDENT)*] "}"
//! action         := IDENT ("=" | "+=" | "-=") intExpr
//! boolExpr       := orExpr
//! orExpr         := andExpr ("||" andExpr)*
//! andExpr        := notExpr ("&&" notExpr)*
//! notExpr        := "!" notExpr | "(" boolExpr ")" | cmp | "true" | "false"
//! cmp            := intExpr ("<"|"<="|">"|">="|"=="|"!=") intExpr
//! intExpr        := term (("+"|"-") term)*
//! term           := factor ("*" factor)*
//! factor         := INT | IDENT | "-" factor | "(" intExpr ")"
//! ```
//!
//! Line comments start with `//`. `!`, `(` and unary `-` nest at most
//! [`TokenCursor::MAX_NESTING`] levels deep, and the binary operators of
//! one expression join at most [`TokenCursor::MAX_CHAIN`] operands.
//!
//! The parser runs on the shared [`TokenCursor`]: standalone through
//! [`parse_library`], and in place inside a `.mcc` specification
//! through [`TokenCursor::library_block`].

use crate::error::AutomataError;
use crate::expr::{Action, BoolExpr, CmpOp, IntExpr};
use crate::lexer::TokenCursor;
use crate::metamodel::{
    AutomatonDefinition, ConstraintDeclaration, ParamKind, RelationLibrary, Transition, VarDecl,
};

const COMPARISONS: [(&str, CmpOp); 6] = [
    ("<", CmpOp::Lt),
    ("<=", CmpOp::Le),
    (">", CmpOp::Gt),
    (">=", CmpOp::Ge),
    ("==", CmpOp::Eq),
    ("!=", CmpOp::Ne),
];

impl TokenCursor {
    /// Parses the `library NAME { … }` block at the cursor in place,
    /// inside a larger text: `moccml-lang` calls it for the `library`
    /// items of a `.mcc` specification. The header is reported as the
    /// host text reports errors; the body as library text.
    ///
    /// # Errors
    ///
    /// [`AutomataError::Parse`] on syntax errors (a dotted library name
    /// included) and the validation errors of [`parse_library`] on
    /// well-formed but inconsistent input.
    pub fn library_block(&mut self) -> Result<RelationLibrary, AutomataError> {
        self.expect("library")?;
        let (line, column) = self.position();
        let name = self.expect_ident("a library name")?;
        self.expect("{")?;
        if let Some(dot) = name.find('.') {
            return Err(AutomataError::Parse {
                line,
                column: column + dot,
                message: "unexpected character `.`".to_owned(),
            });
        }
        self.library = true;
        let library = self.library_body(&name);
        self.library = false;
        library
    }

    /// The items of a library body, through its closing `}`.
    fn library_body(&mut self, name: &str) -> Result<RelationLibrary, AutomataError> {
        let mut lib = RelationLibrary::new(name);
        loop {
            self.between_items = true;
            if self.eat("}") {
                self.between_items = false;
                return Ok(lib);
            }
            if self.eat("constraint") {
                lib.add_declaration(self.declaration()?)?;
            } else if self.eat("automaton") {
                let def = self.automaton(&lib)?;
                lib.add_definition(def)?;
            } else {
                return Err(self.err(format!(
                    "expected `constraint`, `automaton` or `}}`, found {}",
                    self.describe()
                )));
            }
        }
    }

    /// [`expect`](Self::expect) with the library grammar's wording.
    fn keyword(&mut self, kw: &str) -> Result<(), AutomataError> {
        if self.eat(kw) {
            return Ok(());
        }
        Err(self.expected(&format!("keyword `{kw}`")))
    }

    fn declaration(&mut self) -> Result<ConstraintDeclaration, AutomataError> {
        let name = self.expect_ident("identifier")?;
        self.expect("(")?;
        let mut params = Vec::new();
        if !self.eat(")") {
            loop {
                let pname = self.expect_ident("identifier")?;
                self.expect(":")?;
                let kind = if self.eat("event") {
                    ParamKind::Event
                } else if self.eat("int") {
                    ParamKind::Int
                } else {
                    return Err(self.expected("`event` or `int`"));
                };
                params.push((pname, kind));
                if self.eat(")") {
                    break;
                }
                self.expect(",")?;
            }
        }
        ConstraintDeclaration::new(&name, params)
    }

    fn automaton(&mut self, lib: &RelationLibrary) -> Result<AutomatonDefinition, AutomataError> {
        let name = self.expect_ident("identifier")?;
        self.keyword("implements")?;
        let decl_name = self.expect_ident("identifier")?;
        let decl = lib
            .declaration(&decl_name)
            .ok_or_else(|| AutomataError::UnknownName {
                kind: "constraint declaration",
                name: decl_name.clone(),
            })?
            .clone();
        self.expect("{")?;
        self.between_items = false;
        let mut states: Vec<String> = Vec::new();
        let mut initial: Option<usize> = None;
        let mut finals: Vec<usize> = Vec::new();
        let mut variables: Vec<VarDecl> = Vec::new();
        // transitions name states that may be declared after them: keep
        // the names, resolve them once all states are known
        let mut named_transitions: Vec<(String, String, Transition)> = Vec::new();
        loop {
            if self.eat("}") {
                break;
            }
            if self.eat("var") {
                let vname = self.expect_ident("identifier")?;
                self.expect(":")?;
                self.keyword("int")?;
                self.expect("=")?;
                let init = self.expression(Self::int_expr)?;
                self.expect(";")?;
                variables.push(VarDecl { name: vname, init });
            } else if ["initial", "final", "state"].iter().any(|kw| self.at(kw)) {
                let (mut is_initial, mut is_final) = (false, false);
                while self.at("initial") || self.at("final") {
                    is_initial |= self.eat("initial");
                    is_final |= self.eat("final");
                }
                self.keyword("state")?;
                let sname = self.expect_ident("identifier")?;
                self.expect(";")?;
                let idx = states.iter().position(|s| *s == sname).unwrap_or_else(|| {
                    states.push(sname);
                    states.len() - 1
                });
                if is_initial {
                    if initial.is_some() {
                        return Err(self.err("multiple initial states".to_owned()));
                    }
                    initial = Some(idx);
                }
                if is_final && !finals.contains(&idx) {
                    finals.push(idx);
                }
            } else if self.eat("from") {
                let source = self.expect_ident("identifier")?;
                self.keyword("to")?;
                let target = self.expect_ident("identifier")?;
                let mut transition = Transition::default();
                if self.eat("when") {
                    transition.true_triggers = self.event_set()?;
                }
                if self.eat("forbid") {
                    transition.false_triggers = self.event_set()?;
                }
                if self.eat("guard") {
                    self.expect("[")?;
                    transition.guard = Some(self.expression(Self::bool_expr)?);
                    self.expect("]")?;
                }
                if self.eat("do") {
                    loop {
                        transition.actions.push(self.action()?);
                        if !self.eat(",") {
                            break;
                        }
                    }
                }
                self.expect(";")?;
                named_transitions.push((source, target, transition));
            } else {
                return Err(self.err(format!(
                    "expected `var`, `state`, `from` or `}}`, found {}",
                    self.describe()
                )));
            }
        }
        let initial = initial.ok_or_else(|| AutomataError::InvalidDefinition {
            definition: name.clone(),
            reason: "no initial state declared".to_owned(),
        })?;
        let state_index = |name: String| {
            states
                .iter()
                .position(|s| *s == name)
                .ok_or(AutomataError::UnknownName {
                    kind: "state",
                    name,
                })
        };
        let mut transitions = Vec::new();
        for (source, target, mut transition) in named_transitions {
            transition.source = state_index(source)?;
            transition.target = state_index(target)?;
            transitions.push(transition);
        }
        AutomatonDefinition::new(&name, decl, states, initial, finals, variables, transitions)
    }

    fn event_set(&mut self) -> Result<Vec<String>, AutomataError> {
        self.expect("{")?;
        let mut out = Vec::new();
        if self.eat("}") {
            return Ok(out);
        }
        loop {
            out.push(self.expect_ident("identifier")?);
            if self.eat("}") {
                break;
            }
            self.expect(",")?;
        }
        Ok(out)
    }

    fn action(&mut self) -> Result<Action, AutomataError> {
        let var = self.expect_ident("identifier")?;
        let action: fn(&str, IntExpr) -> Action = if self.eat("=") {
            Action::assign
        } else if self.eat("+=") {
            Action::increment
        } else if self.eat("-=") {
            Action::decrement
        } else {
            return Err(self.expected("`=`, `+=` or `-=`"));
        };
        Ok(action(&var, self.expression(Self::int_expr)?))
    }

    /// Parses one whole expression with `parse`, counting its binary
    /// operators afresh.
    fn expression<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<T, AutomataError>,
    ) -> Result<T, AutomataError> {
        self.operators = 0;
        parse(self)
    }

    /// Parses `parse` one nesting level deeper.
    fn nested<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<T, AutomataError>,
    ) -> Result<T, AutomataError> {
        self.descend("expression")?;
        let parsed = parse(self);
        self.ascend();
        parsed
    }

    fn bool_expr(&mut self) -> Result<BoolExpr, AutomataError> {
        let mut left = self.and_expr()?;
        while self.eat("||") {
            self.link()?;
            let right = self.and_expr()?;
            left = BoolExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<BoolExpr, AutomataError> {
        let mut left = self.not_expr()?;
        while self.eat("&&") {
            self.link()?;
            let right = self.not_expr()?;
            left = BoolExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<BoolExpr, AutomataError> {
        if self.eat("!") {
            return Ok(BoolExpr::Not(Box::new(self.nested(Self::not_expr)?)));
        }
        if self.eat("true") {
            return Ok(BoolExpr::True);
        }
        if self.eat("false") {
            return Ok(BoolExpr::False);
        }
        // disambiguate "( boolExpr )" from "( intExpr ) < …": try bool first
        if self.at("(") {
            let save = (self.pos, self.operators);
            self.pos += 1;
            if let Ok(inner) = self.nested(Self::bool_expr) {
                if self.eat(")")
                    && !["<", "<=", ">", ">=", "==", "!=", "+", "-", "*"]
                        .iter()
                        .any(|op| self.at(op))
                {
                    return Ok(inner);
                }
            }
            (self.pos, self.operators) = save;
        }
        self.cmp()
    }

    fn cmp(&mut self) -> Result<BoolExpr, AutomataError> {
        let left = self.int_expr()?;
        let Some(&(_, op)) = COMPARISONS.iter().find(|(sym, _)| self.eat(sym)) else {
            return Err(self.expected("comparison operator"));
        };
        let right = self.int_expr()?;
        Ok(BoolExpr::Cmp(left, op, right))
    }

    fn int_expr(&mut self) -> Result<IntExpr, AutomataError> {
        let mut left = self.term()?;
        loop {
            if self.eat("+") {
                self.link()?;
                left = IntExpr::Add(Box::new(left), Box::new(self.term()?));
            } else if self.eat("-") {
                self.link()?;
                left = IntExpr::Sub(Box::new(left), Box::new(self.term()?));
            } else {
                return Ok(left);
            }
        }
    }

    fn term(&mut self) -> Result<IntExpr, AutomataError> {
        let mut left = self.factor()?;
        while self.eat("*") {
            self.link()?;
            left = IntExpr::Mul(Box::new(left), Box::new(self.factor()?));
        }
        Ok(left)
    }

    fn factor(&mut self) -> Result<IntExpr, AutomataError> {
        if let Some(v) = self.peek_int() {
            self.pos += 1;
            return Ok(IntExpr::Const(v));
        }
        if let Some(name) = self.peek_ident() {
            let name = name.to_owned();
            self.pos += 1;
            return Ok(IntExpr::Ref(name));
        }
        if self.eat("-") {
            return Ok(IntExpr::Neg(Box::new(self.nested(Self::factor)?)));
        }
        if self.eat("(") {
            let inner = self.nested(Self::int_expr)?;
            self.expect(")")?;
            return Ok(inner);
        }
        Err(self.expected("integer expression"))
    }
}

/// Parses the textual concrete syntax of a relation library.
///
/// See the grammar in this module's source documentation and the crate
/// documentation for a complete example.
///
/// # Errors
///
/// Returns [`AutomataError::Parse`] on syntax errors (with the line
/// and column) and the usual validation errors
/// ([`AutomataError::UnknownName`], [`AutomataError::DuplicateName`],
/// [`AutomataError::InvalidDefinition`]) on well-formed but inconsistent
/// input.
pub fn parse_library(input: &str) -> Result<RelationLibrary, AutomataError> {
    let mut cursor = TokenCursor::new(input)?;
    cursor.library = true;
    cursor.keyword("library")?;
    let name = cursor.expect_ident("identifier")?;
    cursor.expect("{")?;
    let library = cursor.library_body(&name)?;
    if !cursor.at_end() {
        return Err(cursor.err("trailing input after library".to_owned()));
    }
    Ok(library)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLACE: &str = r#"
    // Fig. 3 of the paper
    library SimpleSDFRelationLibrary {
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
    }"#;

    #[test]
    fn parses_fig3_library() {
        let lib = parse_library(PLACE).expect("parses");
        assert_eq!(lib.name(), "SimpleSDFRelationLibrary");
        assert_eq!(lib.declarations().len(), 1);
        let def = lib.definition_for("PlaceConstraint").expect("definition");
        assert_eq!(def.states(), ["S0"]);
        assert_eq!(def.transitions().len(), 2);
        assert_eq!(def.variables().len(), 1);
        assert_eq!(def.transitions()[0].true_triggers, vec!["write"]);
        assert_eq!(def.transitions()[0].false_triggers, vec!["read"]);
        assert!(def.transitions()[0].guard.is_some());
        assert_eq!(def.transitions()[0].actions.len(), 1);
    }

    #[test]
    fn parses_multiple_states_and_final_markers() {
        let lib = parse_library(
            r#"library L {
              constraint C(a: event, b: event)
              automaton D implements C {
                initial state Idle;
                final state Done;
                state Work;
                from Idle to Work when {a};
                from Work to Done when {b} forbid {a};
              }
            }"#,
        )
        .expect("parses");
        let def = lib.definition_for("C").expect("definition");
        assert_eq!(def.states().len(), 3);
        assert_eq!(def.initial(), def.state_index("Idle").expect("idle"));
        assert_eq!(def.finals(), &[def.state_index("Done").expect("done")]);
    }

    #[test]
    fn parses_complex_guards_and_actions() {
        let lib = parse_library(
            r#"library L {
              constraint C(a: event, n: int)
              automaton D implements C {
                var x: int = 2 * n + 1;
                var y: int = -n;
                initial state S; final state S;
                from S to S when {a}
                  guard [(x > 0 && x <= 10) || y == -1]
                  do x = x - 1, y += 2;
              }
            }"#,
        )
        .expect("parses");
        let def = lib.definition_for("C").expect("definition");
        assert_eq!(def.variables().len(), 2);
        assert_eq!(def.transitions()[0].actions.len(), 2);
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse_library("library L {\n  constraint C(\n").expect_err("fails");
        match err {
            AutomataError::Parse { line, .. } => assert!(line >= 2, "line = {line}"),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn reports_columns() {
        // the stray `@` sits at line 2, column 7
        let err = parse_library("library L {\n      @\n}").expect_err("fails");
        match err {
            AutomataError::Parse { line, column, .. } => {
                assert_eq!((line, column), (2, 7));
            }
            other => panic!("expected parse error, got {other}"),
        }
        // a syntax error points at the offending *token*'s column:
        // `state` (line 1, column 28) where a library item was expected
        let err = parse_library("library L { constraint C() state }").expect_err("fails");
        match err {
            AutomataError::Parse { line, column, .. } => {
                assert_eq!((line, column), (1, 28));
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn errors_quote_the_token_found() {
        let err = parse_library("library L { constraint C(a event) }").expect_err("fails");
        assert_eq!(
            err.to_string(),
            "parse error at line 1, column 33: expected `:`, found `event`"
        );
        let err = parse_library("library L { constraint C(a: event").expect_err("fails");
        assert!(err.to_string().ends_with("found end of input"), "{err}");
    }

    #[test]
    fn nesting_is_capped_in_guards_and_expressions() {
        let with_guard = |guard: &str| {
            format!(
                "library L {{ constraint C(a: event) automaton D implements C {{\n\
                 var v: int = 0; initial final state S;\n\
                 from S to S when {{a}} guard [{guard}]; }} }}"
            )
        };
        let cap = TokenCursor::MAX_NESTING;
        for guard in [
            format!("{}v{} > 0", "(".repeat(cap), ")".repeat(cap)),
            format!("{}(v > 0){}", "(".repeat(cap - 1), ")".repeat(cap - 1)),
            format!("{}true", "!".repeat(cap)),
            format!("{}v > 0", "-".repeat(cap)),
        ] {
            parse_library(&with_guard(&guard)).expect("nesting at the cap parses");
        }
        let n = 100_000;
        for guard in [
            format!("{}v{} > 0", "(".repeat(cap + 1), ")".repeat(cap + 1)),
            format!("{}true", "!".repeat(cap + 1)),
            format!("{}v{} > 0", "(".repeat(n), ")".repeat(n)),
            format!("{}true", "!".repeat(n)),
            format!("{}v > 0", "-".repeat(n)),
            format!("v > {}0", "-(".repeat(n)),
        ] {
            match parse_library(&with_guard(&guard)).expect_err("too deep") {
                AutomataError::Parse { line, message, .. } => {
                    assert_eq!(line, 3);
                    assert_eq!(message, "expression nested deeper than 64 levels");
                }
                other => panic!("expected parse error, got {other}"),
            }
        }
    }

    #[test]
    fn chains_are_capped_per_expression() {
        let with_guard = |guard: &str| {
            format!(
                "library L {{ constraint C(a: event) automaton D implements C {{\n\
                 var v: int = 0; initial final state S;\n\
                 from S to S when {{a}} guard [{guard}] do v = v; }} }}"
            )
        };
        let chain = |n: usize, op: &str| vec!["v"; n].join(op);
        let cmps = |n: usize, op: &str| vec!["v > 0"; n].join(op);
        let cap = TokenCursor::MAX_CHAIN;
        for guard in [
            format!("{} > 0", chain(cap, " + ")),
            format!("{} > 0", chain(cap, " - ")),
            format!("{} > 0", chain(cap, " * ")),
            cmps(cap, " && "),
            cmps(cap, " || "),
            // the bool-first attempt inside `(` is undone with its count
            format!("({}) > 0", chain(cap, " + ")),
            format!(
                "{} > {}",
                chain(cap / 2, " + "),
                chain(cap - cap / 2, " * ")
            ),
        ] {
            parse_library(&with_guard(&guard)).expect("a chain at the cap parses");
        }
        // 1349 + 1 + 1350 operators: chains in chains count together
        let nested = format!("({}) + {} > 0", chain(1350, " + "), chain(1351, " + "));
        for guard in [
            format!("{} > 0", chain(cap + 1, " + ")),
            format!("{} > 0", chain(cap + 1, " - ")),
            format!("{} > 0", chain(cap + 1, " * ")),
            cmps(cap + 1, " && "),
            cmps(cap + 1, " || "),
            nested,
            format!("{} > 0", chain(1_000_000, " + ")),
        ] {
            match parse_library(&with_guard(&guard)).expect_err("too long") {
                AutomataError::Parse { line, message, .. } => {
                    assert_eq!(line, 3);
                    assert_eq!(message, "expression chains more than 2700 operands");
                }
                other => panic!("expected parse error, got {other}"),
            }
        }
        // the count starts afresh at every expression
        let two = with_guard(&cmps(cap, " && "))
            .replace("do v = v", &format!("do v = {}", chain(cap, " + ")));
        parse_library(&two).expect("each expression has its own cap");
    }

    #[test]
    fn printing_then_parsing_is_a_fixed_point() {
        let v = || IntExpr::var("v");
        let bin =
            |op: fn(Box<IntExpr>, Box<IntExpr>) -> IntExpr, a, b| op(Box::new(a), Box::new(b));
        let (add, sub, mul) = (IntExpr::Add, IntExpr::Sub, IntExpr::Mul);
        let cmp = |e: IntExpr| BoolExpr::cmp(e, CmpOp::Gt, IntExpr::Const(0));
        let and = |a, b| BoolExpr::And(Box::new(a), Box::new(b));
        let or = |a, b| BoolExpr::Or(Box::new(a), Box::new(b));
        // the guard is `guard`, the action assigns `action`
        let round_trip = |guard: &BoolExpr, action: &IntExpr| {
            let text = format!(
                "library L {{ constraint C(a: event) automaton D implements C {{\n\
                 var v: int = 0; initial final state S;\n\
                 from S to S when {{a}} guard [{guard}] do v = {action}; }} }}"
            );
            let lib = parse_library(&text).expect("printed expressions parse");
            let t = &lib.definition_for("C").expect("definition").transitions()[0];
            assert_eq!(t.guard.as_ref(), Some(guard), "{text}");
            assert_eq!(&t.actions[0].expr, action, "{text}");
        };
        let left_deep = (0..8).fold(v(), |acc, _| bin(add, acc, v()));
        let right_nested = (0..8).fold(v(), |acc, _| bin(add, v(), acc));
        assert_eq!(left_deep.to_string(), ["v"; 9].join(" + "));
        assert_eq!(bin(sub, v(), bin(sub, v(), v())).to_string(), "v - (v - v)");
        assert_eq!(
            IntExpr::Neg(Box::new(bin(add, v(), v()))).to_string(),
            "-(v + v)"
        );
        let ints = [
            left_deep,
            right_nested,
            (0..8).fold(v(), |acc, _| bin(sub, v(), acc)),
            bin(mul, bin(add, v(), v()), bin(sub, v(), v())),
            bin(add, bin(mul, v(), v()), bin(mul, v(), bin(mul, v(), v()))),
            bin(
                sub,
                bin(add, v(), v()),
                IntExpr::Neg(Box::new(bin(mul, v(), v()))),
            ),
            IntExpr::Neg(Box::new(IntExpr::Neg(Box::new(bin(add, v(), v()))))),
        ];
        for e in &ints {
            round_trip(&cmp(e.clone()), e);
        }
        let atom = |i: usize| cmp(ints[i % ints.len()].clone());
        let bools = [
            (0..8).fold(atom(0), |acc, i| and(acc, atom(i))),
            (0..8).fold(atom(1), |acc, i| or(atom(i), acc)),
            or(and(atom(0), atom(1)), and(atom(2), or(atom(3), atom(4)))),
            and(
                or(atom(5), atom(6)),
                BoolExpr::Not(Box::new(or(atom(0), atom(1)))),
            ),
            BoolExpr::Not(Box::new(BoolExpr::Not(Box::new(and(
                BoolExpr::True,
                atom(2),
            ))))),
        ];
        for guard in &bools {
            round_trip(guard, &ints[0]);
        }
    }

    #[test]
    fn rejects_unknown_declaration() {
        let err = parse_library(
            "library L { automaton D implements Ghost { initial state S; final state S; } }",
        )
        .expect_err("fails");
        assert!(matches!(err, AutomataError::UnknownName { .. }));
    }

    #[test]
    fn rejects_missing_initial_state() {
        let err = parse_library(
            "library L { constraint C(a: event) automaton D implements C { state S; final state S; } }",
        )
        .expect_err("fails");
        assert!(matches!(err, AutomataError::InvalidDefinition { .. }));
    }

    #[test]
    fn rejects_unexpected_character() {
        let err = parse_library("library L { @ }").expect_err("fails");
        assert!(matches!(err, AutomataError::Parse { .. }));
    }

    #[test]
    fn rejects_trailing_input() {
        let err = parse_library("library L { } library M { }").expect_err("fails");
        assert!(matches!(err, AutomataError::Parse { .. }));
    }

    #[test]
    fn empty_event_set_is_allowed_syntactically() {
        // an automaton may have a transition with only falseTriggers
        let lib = parse_library(
            r#"library L {
              constraint C(a: event, b: event)
              automaton D implements C {
                initial state S; final state S;
                from S to S when {b} forbid {};
              }
            }"#,
        )
        .expect("parses");
        assert_eq!(
            lib.definition_for("C").expect("definition").transitions()[0]
                .false_triggers
                .len(),
            0
        );
    }

    #[test]
    fn parenthesised_bool_followed_by_connective() {
        let lib = parse_library(
            r#"library L {
              constraint C(a: event, n: int)
              automaton D implements C {
                var x: int = n;
                initial state S; final state S;
                from S to S when {a} guard [(x > 0) && (x < 5)];
              }
            }"#,
        )
        .expect("parses");
        assert!(lib.definition_for("C").expect("def").transitions()[0]
            .guard
            .is_some());
    }
}
