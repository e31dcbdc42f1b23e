//! Integer and boolean expressions of constraint automata: guards and
//! actions (Fig. 2: `Guard`, `BooleanExpression`, `Action`).

use crate::error::AutomataError;
use std::fmt;

/// Environment mapping names (parameters and local variables) to values.
pub(crate) trait Env {
    fn get(&self, name: &str) -> Option<i64>;
}

impl Env for std::collections::HashMap<String, i64> {
    fn get(&self, name: &str) -> Option<i64> {
        std::collections::HashMap::get(self, name).copied()
    }
}

/// An integer expression over parameters and local variables.
///
/// The paper restricts automata variables and parameters to `Event` and
/// `Integer` "to ease exhaustive simulations"; guards and actions are
/// integer arithmetic only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntExpr {
    /// Literal constant.
    Const(i64),
    /// Reference to a parameter or local variable.
    Ref(String),
    /// Sum.
    Add(Box<IntExpr>, Box<IntExpr>),
    /// Difference.
    Sub(Box<IntExpr>, Box<IntExpr>),
    /// Product.
    Mul(Box<IntExpr>, Box<IntExpr>),
    /// Arithmetic negation.
    Neg(Box<IntExpr>),
}

impl IntExpr {
    /// Shorthand for a name reference.
    #[must_use]
    pub fn var(name: &str) -> Self {
        IntExpr::Ref(name.to_owned())
    }

    /// Evaluates the expression.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::UnknownName`] on a dangling reference.
    pub(crate) fn eval(&self, env: &dyn Env) -> Result<i64, AutomataError> {
        Ok(match self {
            IntExpr::Const(v) => *v,
            IntExpr::Ref(name) => env.get(name).ok_or_else(|| AutomataError::UnknownName {
                kind: "variable or parameter",
                name: name.clone(),
            })?,
            IntExpr::Add(a, b) => a.eval(env)?.wrapping_add(b.eval(env)?),
            IntExpr::Sub(a, b) => a.eval(env)?.wrapping_sub(b.eval(env)?),
            IntExpr::Mul(a, b) => a.eval(env)?.wrapping_mul(b.eval(env)?),
            IntExpr::Neg(a) => a.eval(env)?.wrapping_neg(),
        })
    }

    /// Collects every referenced name into `out`.
    pub fn collect_refs(&self, out: &mut Vec<String>) {
        match self {
            IntExpr::Const(_) => {}
            IntExpr::Ref(name) => out.push(name.clone()),
            IntExpr::Add(a, b) | IntExpr::Sub(a, b) | IntExpr::Mul(a, b) => {
                a.collect_refs(out);
                b.collect_refs(out);
            }
            IntExpr::Neg(a) => a.collect_refs(out),
        }
    }
}

impl From<i64> for IntExpr {
    fn from(v: i64) -> Self {
        IntExpr::Const(v)
    }
}

/// Writes `e` after `prefix`, in parentheses when it binds looser than
/// `min` (the precedence its position needs).
fn write_at(f: &mut fmt::Formatter<'_>, prefix: &str, e: &dyn Precedence, min: u8) -> fmt::Result {
    if e.precedence() < min {
        write!(f, "{prefix}(")?;
        e.write(f)?;
        write!(f, ")")
    } else {
        write!(f, "{prefix}")?;
        e.write(f)
    }
}

/// An expression printed with the fewest parentheses the parser needs:
/// binary operators are left-associative, so only a right operand that
/// binds no tighter than its operator (`a - (b - c)`), or an operand
/// that binds looser (`(a + b) * c`, `-(a + b)`), is parenthesized.
trait Precedence {
    /// How tightly the root operator binds; atoms bind tightest.
    fn precedence(&self) -> u8;
    /// Writes the expression, its operands parenthesized as needed.
    fn write(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;
}

impl Precedence for IntExpr {
    fn precedence(&self) -> u8 {
        match self {
            IntExpr::Add(..) | IntExpr::Sub(..) => 1,
            IntExpr::Mul(..) => 2,
            IntExpr::Const(_) | IntExpr::Ref(_) | IntExpr::Neg(_) => 3,
        }
    }

    fn write(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (a, op, b) = match self {
            IntExpr::Const(v) => return write!(f, "{v}"),
            IntExpr::Ref(n) => return write!(f, "{n}"),
            IntExpr::Neg(a) => return write_at(f, "-", a.as_ref(), 3),
            IntExpr::Add(a, b) => (a, " + ", b),
            IntExpr::Sub(a, b) => (a, " - ", b),
            IntExpr::Mul(a, b) => (a, " * ", b),
        };
        let level = self.precedence();
        write_at(f, "", a.as_ref(), level)?;
        write_at(f, op, b.as_ref(), level + 1)
    }
}

impl fmt::Display for IntExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

/// Comparison operators of guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        };
        write!(f, "{s}")
    }
}

/// A boolean guard over the local variables and parameters (Fig. 2:
/// "a guard is a boolean expression over the local variables or the
/// parameters of the definition").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoolExpr {
    /// Constant truth.
    True,
    /// Constant falsity.
    False,
    /// Integer comparison.
    Cmp(IntExpr, CmpOp, IntExpr),
    /// Conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Negation.
    Not(Box<BoolExpr>),
}

impl BoolExpr {
    /// Shorthand for a comparison.
    #[must_use]
    pub fn cmp(a: IntExpr, op: CmpOp, b: IntExpr) -> Self {
        BoolExpr::Cmp(a, op, b)
    }

    /// Evaluates the guard.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::UnknownName`] on a dangling reference.
    pub(crate) fn eval(&self, env: &dyn Env) -> Result<bool, AutomataError> {
        Ok(match self {
            BoolExpr::True => true,
            BoolExpr::False => false,
            BoolExpr::Cmp(a, op, b) => op.apply(a.eval(env)?, b.eval(env)?),
            BoolExpr::And(a, b) => a.eval(env)? && b.eval(env)?,
            BoolExpr::Or(a, b) => a.eval(env)? || b.eval(env)?,
            BoolExpr::Not(a) => !a.eval(env)?,
        })
    }

    /// Collects every referenced name into `out`.
    pub fn collect_refs(&self, out: &mut Vec<String>) {
        match self {
            BoolExpr::True | BoolExpr::False => {}
            BoolExpr::Cmp(a, _, b) => {
                a.collect_refs(out);
                b.collect_refs(out);
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                a.collect_refs(out);
                b.collect_refs(out);
            }
            BoolExpr::Not(a) => a.collect_refs(out),
        }
    }
}

impl Precedence for BoolExpr {
    fn precedence(&self) -> u8 {
        match self {
            BoolExpr::Or(..) => 1,
            BoolExpr::And(..) => 2,
            BoolExpr::True | BoolExpr::False | BoolExpr::Cmp(..) | BoolExpr::Not(_) => 3,
        }
    }

    fn write(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (a, op, b) = match self {
            BoolExpr::True => return write!(f, "true"),
            BoolExpr::False => return write!(f, "false"),
            BoolExpr::Cmp(a, op, b) => return write!(f, "{a} {op} {b}"),
            BoolExpr::Not(a) => return write_at(f, "!", a.as_ref(), 3),
            BoolExpr::Or(a, b) => (a, " || ", b),
            BoolExpr::And(a, b) => (a, " && ", b),
        };
        let level = self.precedence();
        write_at(f, "", a.as_ref(), level)?;
        write_at(f, op, b.as_ref(), level + 1)
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

/// A transition action: an integer assignment to a local variable
/// (Fig. 2: "actions such as integer assignments (possibly with a value
/// resulting from an expression such as the increment of a counter)").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    /// Assigned local variable.
    pub var: String,
    /// Assigned value. `size += pushRate` desugars to
    /// `size = size + pushRate`.
    pub expr: IntExpr,
}

impl Action {
    /// Creates the assignment `var = expr`.
    #[must_use]
    pub fn assign(var: &str, expr: IntExpr) -> Self {
        Action {
            var: var.to_owned(),
            expr,
        }
    }

    /// Sugar for `var = var + expr`.
    #[must_use]
    pub fn increment(var: &str, expr: IntExpr) -> Self {
        Action {
            var: var.to_owned(),
            expr: IntExpr::Add(Box::new(IntExpr::var(var)), Box::new(expr)),
        }
    }

    /// Sugar for `var = var - expr`.
    #[must_use]
    pub fn decrement(var: &str, expr: IntExpr) -> Self {
        Action {
            var: var.to_owned(),
            expr: IntExpr::Sub(Box::new(IntExpr::var(var)), Box::new(expr)),
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.var, self.expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn env(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
        pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
    }

    #[test]
    fn int_expr_arithmetic() {
        let e = IntExpr::Sub(
            Box::new(IntExpr::var("cap")),
            Box::new(IntExpr::Mul(
                Box::new(IntExpr::Const(2)),
                Box::new(IntExpr::var("rate")),
            )),
        );
        let v = e
            .eval(&env(&[("cap", 10), ("rate", 3)]))
            .expect("evaluates");
        assert_eq!(v, 4);
        assert_eq!(e.to_string(), "cap - 2 * rate");
    }

    #[test]
    fn int_expr_unknown_ref_errors() {
        let e = IntExpr::var("missing");
        assert!(matches!(
            e.eval(&env(&[])),
            Err(AutomataError::UnknownName { .. })
        ));
    }

    #[test]
    fn neg_and_from() {
        let e = IntExpr::Neg(Box::new(IntExpr::from(5)));
        assert_eq!(e.eval(&env(&[])).expect("evaluates"), -5);
    }

    #[test]
    fn cmp_ops_all_work() {
        let cases = [
            (CmpOp::Lt, 1, 2, true),
            (CmpOp::Le, 2, 2, true),
            (CmpOp::Gt, 2, 2, false),
            (CmpOp::Ge, 3, 2, true),
            (CmpOp::Eq, 2, 2, true),
            (CmpOp::Ne, 2, 2, false),
        ];
        for (op, a, b, expect) in cases {
            assert_eq!(op.apply(a, b), expect, "{a} {op} {b}");
        }
    }

    #[test]
    fn bool_expr_connectives() {
        let g = BoolExpr::And(
            Box::new(BoolExpr::cmp(
                IntExpr::var("x"),
                CmpOp::Gt,
                IntExpr::Const(0),
            )),
            Box::new(BoolExpr::Not(Box::new(BoolExpr::cmp(
                IntExpr::var("x"),
                CmpOp::Gt,
                IntExpr::Const(10),
            )))),
        );
        assert!(g.eval(&env(&[("x", 5)])).expect("evaluates"));
        assert!(!g.eval(&env(&[("x", 11)])).expect("evaluates"));
        assert!(!g.eval(&env(&[("x", 0)])).expect("evaluates"));
    }

    #[test]
    fn refs_are_collected() {
        let g = BoolExpr::Or(
            Box::new(BoolExpr::cmp(
                IntExpr::var("a"),
                CmpOp::Eq,
                IntExpr::var("b"),
            )),
            Box::new(BoolExpr::True),
        );
        let mut refs = Vec::new();
        g.collect_refs(&mut refs);
        assert_eq!(refs, vec!["a", "b"]);
    }

    #[test]
    fn action_sugar_desugars() {
        let inc = Action::increment("size", IntExpr::var("pushRate"));
        let v = inc
            .expr
            .eval(&env(&[("size", 2), ("pushRate", 3)]))
            .expect("evaluates");
        assert_eq!(v, 5);
        let dec = Action::decrement("size", IntExpr::Const(1));
        assert_eq!(dec.expr.eval(&env(&[("size", 2)])).expect("evaluates"), 1);
        assert_eq!(inc.to_string(), "size = size + pushRate");
    }
}
