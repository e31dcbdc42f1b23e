//! The abstract syntax of a `.mcc` specification.
//!
//! Every node that names something carries its 1-based `line:column`
//! span so resolution errors point back into the source. Spans are
//! **excluded from equality**: `PartialEq` compares structure only,
//! which is what makes the parse → print → parse round-trip property
//! (`moccml_lang::parse_spec(&ast.to_text())? == ast`) meaningful —
//! printing obviously moves every token.

use moccml_automata::RelationLibrary;
use std::fmt;

/// A source-positioned name (an event reference, a constructor, …).
#[derive(Debug, Clone, Eq)]
pub struct Name {
    /// The identifier text.
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub column: usize,
}

impl Name {
    /// A name with a span.
    #[must_use]
    pub fn new(text: &str, line: usize, column: usize) -> Self {
        Name {
            text: text.to_owned(),
            line,
            column,
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// One argument of a constraint instantiation.
#[derive(Debug, Clone, Eq)]
pub enum Arg {
    /// An event reference.
    Event(Name),
    /// An integer constant (bounds, delays, rates, …).
    Int(i64, usize, usize),
    /// A `[1, 0, …]` bit vector — the head/cycle words of `filtered`.
    Bits(Vec<bool>, usize, usize),
}

impl Arg {
    /// The `(line, column)` span of the argument.
    #[must_use]
    pub fn position(&self) -> (usize, usize) {
        match self {
            Arg::Event(n) => (n.line, n.column),
            Arg::Int(_, l, c) | Arg::Bits(_, l, c) => (*l, *c),
        }
    }

    /// A short kind label for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Arg::Event(_) => "event",
            Arg::Int(..) => "int",
            Arg::Bits(..) => "bit vector",
        }
    }
}

// spans are not part of the value
impl PartialEq for Arg {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Arg::Event(a), Arg::Event(b)) => a == b,
            (Arg::Int(a, _, _), Arg::Int(b, _, _)) => a == b,
            (Arg::Bits(a, _, _), Arg::Bits(b, _, _)) => a == b,
            _ => false,
        }
    }
}

/// A named constraint instantiation:
/// `constraint <name> = <ctor>(<args>);`.
///
/// The constructor is either one of the built-in CCSL
/// relations/expressions (see the grammar in the
/// [crate docs](crate)) or a constraint declaration from an embedded
/// `library { … }` block, bound positionally.
#[derive(Debug, Clone, Eq)]
pub struct ConstraintDecl {
    /// Instance name (diagnostics name it on conformance violations).
    pub name: Name,
    /// Constructor name.
    pub ctor: Name,
    /// Positional arguments.
    pub args: Vec<Arg>,
}

impl PartialEq for ConstraintDecl {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.ctor == other.ctor && self.args == other.args
    }
}

/// A step predicate over named events — the textual mirror of
/// [`StepPred`](moccml_kernel::StepPred).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredAst {
    /// The event occurs in the step.
    Fired(Name),
    /// `a # b`: the two events never coincide within the step.
    Excludes(Name, Name),
    /// `a => b`: if `a` occurs in the step, so does `b`.
    Implies(Name, Name),
    /// `(l && r)`.
    And(Box<PredAst>, Box<PredAst>),
    /// `(l || r)`.
    Or(Box<PredAst>, Box<PredAst>),
    /// `!p`.
    Not(Box<PredAst>),
}

/// A temporal property over named events — the textual mirror of
/// [`Prop`](moccml_verify::Prop). The concrete syntax is exactly what
/// [`Prop::display`](moccml_verify::Prop::display) prints, so
/// displayed properties parse back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropAst {
    /// `always(p)`.
    Always(PredAst),
    /// `never(p)`.
    Never(PredAst),
    /// `eventually<=k(p)`.
    EventuallyWithin(PredAst, usize),
    /// `until<=k(p, q)`.
    UntilWithin(PredAst, PredAst, usize),
    /// `release<=k(p, q)`.
    ReleaseWithin(PredAst, PredAst, usize),
    /// `deadlock-free`.
    DeadlockFree,
}

/// An embedded constraint-automata library block, parsed in place by
/// the `moccml-automata` library parser
/// ([`TokenCursor::library_block`](moccml_automata::TokenCursor::library_block)).
#[derive(Debug, Clone)]
pub struct LibraryBlock {
    /// The parsed library.
    pub library: RelationLibrary,
    /// 1-based line of the `library` keyword.
    pub line: usize,
    /// 1-based column of the `library` keyword.
    pub column: usize,
}

impl PartialEq for LibraryBlock {
    fn eq(&self, other: &Self) -> bool {
        // RelationLibrary itself does not implement PartialEq (its
        // definitions sit behind Arcs); compare the structure
        self.library.name() == other.library.name()
            && self.library.declarations() == other.library.declarations()
            && self.library.definitions().len() == other.library.definitions().len()
            && self
                .library
                .definitions()
                .iter()
                .zip(other.library.definitions())
                .all(|(a, b)| a.as_ref() == b.as_ref())
    }
}

impl Eq for LibraryBlock {}

/// One top-level item of a specification, in source order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// `events a, b, c;` — declares events in universe order.
    Events(Vec<Name>),
    /// An embedded automata library.
    Library(LibraryBlock),
    /// A constraint instantiation.
    Constraint(ConstraintDecl),
    /// `assert <prop>;` — a property to verify.
    Assert(PropAst),
}

/// A parsed `.mcc` specification: `spec <name> { <items> }`.
///
/// Obtained from [`parse_spec`](crate::parse_spec); printed back with
/// [`to_text`](SpecAst::to_text) (canonical form, reparses to an equal
/// AST); compiled with [`compile`](crate::compile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecAst {
    /// The specification name.
    pub name: String,
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl SpecAst {
    /// All declared event names, in declaration (= universe) order.
    #[must_use]
    pub fn event_names(&self) -> Vec<&str> {
        self.items
            .iter()
            .filter_map(|i| match i {
                Item::Events(names) => Some(names.iter().map(|n| n.text.as_str())),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// The constraint declarations, in source order.
    #[must_use]
    pub fn constraints(&self) -> Vec<&ConstraintDecl> {
        self.items
            .iter()
            .filter_map(|i| match i {
                Item::Constraint(c) => Some(c),
                _ => None,
            })
            .collect()
    }

    /// The asserted properties, in source order.
    #[must_use]
    pub fn props(&self) -> Vec<&PropAst> {
        self.items
            .iter()
            .filter_map(|i| match i {
                Item::Assert(p) => Some(p),
                _ => None,
            })
            .collect()
    }

    /// The embedded library blocks, in source order.
    #[must_use]
    pub fn libraries(&self) -> Vec<&LibraryBlock> {
        self.items
            .iter()
            .filter_map(|i| match i {
                Item::Library(l) => Some(l),
                _ => None,
            })
            .collect()
    }
}
