//! The MoCCML metamodel excerpt of Fig. 2: libraries, declarations,
//! automata definitions, states and transitions.

use crate::error::AutomataError;
use crate::expr::{Action, BoolExpr, IntExpr};
use crate::instance::InstanceBuilder;
use std::collections::HashSet;
use std::sync::Arc;

/// Kind of a constraint parameter — the paper restricts parameters and
/// variables to events and integers "to ease exhaustive simulations".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// An event parameter, bound to a concrete
    /// [`EventId`](moccml_kernel::EventId) at instantiation.
    Event,
    /// An integer parameter, bound to a constant at instantiation.
    Int,
}

/// The prototype of a constraint (Fig. 2: `ConstraintDeclaration`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintDeclaration {
    name: String,
    params: Vec<(String, ParamKind)>,
}

impl ConstraintDeclaration {
    /// Creates a declaration with ordered, typed parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::DuplicateName`] if two parameters share a
    /// name.
    pub fn new(name: &str, params: Vec<(String, ParamKind)>) -> Result<Self, AutomataError> {
        let mut seen = HashSet::new();
        for (p, _) in &params {
            if !seen.insert(p.clone()) {
                return Err(AutomataError::DuplicateName {
                    kind: "parameter",
                    name: p.clone(),
                });
            }
        }
        Ok(ConstraintDeclaration {
            name: name.to_owned(),
            params,
        })
    }

    /// Declaration name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ordered `(name, kind)` parameter list.
    #[must_use]
    pub fn params(&self) -> &[(String, ParamKind)] {
        &self.params
    }

    /// Kind of parameter `name`, if declared.
    #[must_use]
    pub fn param_kind(&self, name: &str) -> Option<ParamKind> {
        self.params.iter().find(|(p, _)| p == name).map(|(_, k)| *k)
    }

    /// Names of the event parameters, in declaration order.
    #[must_use]
    pub fn event_params(&self) -> Vec<&str> {
        self.params
            .iter()
            .filter(|(_, k)| *k == ParamKind::Event)
            .map(|(p, _)| p.as_str())
            .collect()
    }

    /// Names of the integer parameters, in declaration order.
    #[must_use]
    pub fn int_params(&self) -> Vec<&str> {
        self.params
            .iter()
            .filter(|(_, k)| *k == ParamKind::Int)
            .map(|(p, _)| p.as_str())
            .collect()
    }
}

/// A local variable declaration with its initialisation expression
/// (Fig. 2: `DeclarationBlock` / `Variable`; Fig. 3 initialises
/// `size = itsDelay` on entering the initial state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    /// Variable name.
    pub name: String,
    /// Initial value, evaluated over the integer parameters.
    pub init: IntExpr,
}

/// A transition of a constraint automaton (Fig. 2: `Transition`,
/// `TransitionTrigger`, `Guard`, `Action`).
///
/// The transition fires on a step where every `trueTriggers` event is
/// present, every `falseTriggers` event absent, and the guard evaluates
/// to true over the local variables and parameters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Transition {
    /// Index of the source state.
    pub source: usize,
    /// Index of the target state.
    pub target: usize,
    /// Event parameters that must be present.
    pub true_triggers: Vec<String>,
    /// Event parameters that must be absent.
    pub false_triggers: Vec<String>,
    /// Optional guard over integer variables/parameters (absent = true).
    pub guard: Option<BoolExpr>,
    /// Assignments executed when the transition fires.
    pub actions: Vec<Action>,
}

/// A constraint automaton definition (Fig. 2:
/// `ConstraintAutomataDefinition`): states with one initial and one or
/// more final states, local variables, and transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutomatonDefinition {
    name: String,
    declaration: ConstraintDeclaration,
    states: Vec<String>,
    initial: usize,
    finals: Vec<usize>,
    variables: Vec<VarDecl>,
    transitions: Vec<Transition>,
}

impl AutomatonDefinition {
    /// Assembles and validates a definition.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::InvalidDefinition`] when the structure
    /// violates Fig. 2's multiplicities (no state, initial/final out of
    /// range, empty finals) and [`AutomataError::UnknownName`] /
    /// [`AutomataError::DuplicateName`] for dangling or colliding
    /// references (triggers must be event parameters, guard and action
    /// expressions may only mention integer parameters and variables,
    /// action targets must be variables).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        declaration: ConstraintDeclaration,
        states: Vec<String>,
        initial: usize,
        finals: Vec<usize>,
        variables: Vec<VarDecl>,
        transitions: Vec<Transition>,
    ) -> Result<Self, AutomataError> {
        let invalid = |reason: String| AutomataError::InvalidDefinition {
            definition: name.to_owned(),
            reason,
        };
        if states.is_empty() {
            return Err(invalid("an automaton needs at least one state".into()));
        }
        let mut seen = HashSet::new();
        for s in &states {
            if !seen.insert(s.clone()) {
                return Err(AutomataError::DuplicateName {
                    kind: "state",
                    name: s.clone(),
                });
            }
        }
        if initial >= states.len() {
            return Err(invalid(format!(
                "initial state index {initial} out of range"
            )));
        }
        if finals.is_empty() {
            return Err(invalid("at least one final state is required".into()));
        }
        for &f in &finals {
            if f >= states.len() {
                return Err(invalid(format!("final state index {f} out of range")));
            }
        }
        let mut var_names = HashSet::new();
        for v in &variables {
            if declaration.param_kind(&v.name).is_some() {
                return Err(AutomataError::DuplicateName {
                    kind: "variable (shadows parameter)",
                    name: v.name.clone(),
                });
            }
            if !var_names.insert(v.name.clone()) {
                return Err(AutomataError::DuplicateName {
                    kind: "variable",
                    name: v.name.clone(),
                });
            }
            // inits may only use integer parameters
            let mut refs = Vec::new();
            v.init.collect_refs(&mut refs);
            for r in refs {
                if declaration.param_kind(&r) != Some(ParamKind::Int) {
                    return Err(AutomataError::UnknownName {
                        kind: "integer parameter in variable initialiser",
                        name: r,
                    });
                }
            }
        }
        let int_ok =
            |n: &str| var_names.contains(n) || declaration.param_kind(n) == Some(ParamKind::Int);
        for (i, t) in transitions.iter().enumerate() {
            if t.source >= states.len() || t.target >= states.len() {
                return Err(invalid(format!(
                    "transition {i} references a missing state"
                )));
            }
            for trig in t.true_triggers.iter().chain(&t.false_triggers) {
                if declaration.param_kind(trig) != Some(ParamKind::Event) {
                    return Err(AutomataError::UnknownName {
                        kind: "event parameter in trigger",
                        name: trig.clone(),
                    });
                }
            }
            if let Some(g) = &t.guard {
                let mut refs = Vec::new();
                g.collect_refs(&mut refs);
                for r in refs {
                    if !int_ok(&r) {
                        return Err(AutomataError::UnknownName {
                            kind: "integer name in guard",
                            name: r,
                        });
                    }
                }
            }
            for a in &t.actions {
                if !var_names.contains(&a.var) {
                    return Err(AutomataError::UnknownName {
                        kind: "assigned variable",
                        name: a.var.clone(),
                    });
                }
                let mut refs = Vec::new();
                a.expr.collect_refs(&mut refs);
                for r in refs {
                    if !int_ok(&r) {
                        return Err(AutomataError::UnknownName {
                            kind: "integer name in action",
                            name: r,
                        });
                    }
                }
            }
        }
        Ok(AutomatonDefinition {
            name: name.to_owned(),
            declaration,
            states,
            initial,
            finals,
            variables,
            transitions,
        })
    }

    /// Definition name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The implemented declaration.
    #[must_use]
    pub fn declaration(&self) -> &ConstraintDeclaration {
        &self.declaration
    }

    /// State names.
    #[must_use]
    pub fn states(&self) -> &[String] {
        &self.states
    }

    /// Index of the initial state.
    #[must_use]
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// Indices of the final states.
    #[must_use]
    pub fn finals(&self) -> &[usize] {
        &self.finals
    }

    /// Local variables.
    #[must_use]
    pub fn variables(&self) -> &[VarDecl] {
        &self.variables
    }

    /// Transitions.
    #[must_use]
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Index of state `name`, if declared.
    #[must_use]
    pub fn state_index(&self, name: &str) -> Option<usize> {
        self.states.iter().position(|s| s == name)
    }

    /// Conservative non-determinism check: pairs of transitions leaving
    /// the same state whose trigger sets are identical and whose guards
    /// could both hold (syntactically: either guard absent or both
    /// non-constant). Returns human-readable warnings; an empty result
    /// does not prove determinism, but a non-empty one flags genuinely
    /// ambiguous specifications.
    #[must_use]
    pub fn determinism_warnings(&self) -> Vec<String> {
        let mut warnings = Vec::new();
        for (i, a) in self.transitions.iter().enumerate() {
            for (j, b) in self.transitions.iter().enumerate().skip(i + 1) {
                if a.source != b.source {
                    continue;
                }
                let same_true = {
                    let mut x = a.true_triggers.clone();
                    let mut y = b.true_triggers.clone();
                    x.sort();
                    y.sort();
                    x == y
                };
                if same_true && (a.guard.is_none() || b.guard.is_none()) {
                    warnings.push(format!(
                        "transitions {i} and {j} from state `{}` share trueTriggers and at \
                         least one has no guard",
                        self.states[a.source]
                    ));
                }
            }
        }
        warnings
    }
}

/// A library of constraint declarations and automata definitions
/// (Fig. 2: `RelationLibrary`; Fig. 3: `SimpleSDFRelationLibrary`).
#[derive(Debug, Clone, Default)]
pub struct RelationLibrary {
    name: String,
    declarations: Vec<ConstraintDeclaration>,
    definitions: Vec<Arc<AutomatonDefinition>>,
}

impl RelationLibrary {
    /// Creates an empty library.
    #[must_use]
    pub fn new(name: &str) -> Self {
        RelationLibrary {
            name: name.to_owned(),
            declarations: Vec::new(),
            definitions: Vec::new(),
        }
    }

    /// Library name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a declaration.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::DuplicateName`] if the name is taken.
    pub fn add_declaration(
        &mut self,
        declaration: ConstraintDeclaration,
    ) -> Result<(), AutomataError> {
        if self.declaration(declaration.name()).is_some() {
            return Err(AutomataError::DuplicateName {
                kind: "constraint declaration",
                name: declaration.name().to_owned(),
            });
        }
        self.declarations.push(declaration);
        Ok(())
    }

    /// Adds a definition; its declaration must already be present with a
    /// matching prototype.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::UnknownName`] if the implemented
    /// declaration is missing, [`AutomataError::InvalidDefinition`] if
    /// its parameters disagree, [`AutomataError::DuplicateName`] if a
    /// definition for the declaration already exists.
    pub fn add_definition(&mut self, definition: AutomatonDefinition) -> Result<(), AutomataError> {
        let decl_name = definition.declaration().name().to_owned();
        let Some(existing) = self.declaration(&decl_name) else {
            return Err(AutomataError::UnknownName {
                kind: "constraint declaration",
                name: decl_name,
            });
        };
        if existing.params() != definition.declaration().params() {
            return Err(AutomataError::InvalidDefinition {
                definition: definition.name().to_owned(),
                reason: format!("parameters disagree with declaration `{decl_name}`"),
            });
        }
        if self.definition_for(&decl_name).is_some() {
            return Err(AutomataError::DuplicateName {
                kind: "definition for declaration",
                name: decl_name,
            });
        }
        self.definitions.push(Arc::new(definition));
        Ok(())
    }

    /// Looks up a declaration by name.
    #[must_use]
    pub fn declaration(&self, name: &str) -> Option<&ConstraintDeclaration> {
        self.declarations.iter().find(|d| d.name() == name)
    }

    /// All declarations.
    #[must_use]
    pub fn declarations(&self) -> &[ConstraintDeclaration] {
        &self.declarations
    }

    /// The definition implementing declaration `decl_name`, if any.
    #[must_use]
    pub fn definition_for(&self, decl_name: &str) -> Option<&Arc<AutomatonDefinition>> {
        self.definitions
            .iter()
            .find(|d| d.declaration().name() == decl_name)
    }

    /// All definitions.
    #[must_use]
    pub fn definitions(&self) -> &[Arc<AutomatonDefinition>] {
        &self.definitions
    }

    /// Starts instantiating the constraint declared as `decl_name` — the
    /// paper's instantiation process ("which are set during the
    /// instantiation process").
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::UnknownName`] if no definition
    /// implements `decl_name`.
    pub fn instantiate(
        &self,
        decl_name: &str,
        instance_name: &str,
    ) -> Result<InstanceBuilder, AutomataError> {
        let def = self
            .definition_for(decl_name)
            .ok_or_else(|| AutomataError::UnknownName {
                kind: "definition for declaration",
                name: decl_name.to_owned(),
            })?;
        Ok(InstanceBuilder::new(Arc::clone(def), instance_name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    fn simple_decl() -> ConstraintDeclaration {
        ConstraintDeclaration::new(
            "C",
            vec![
                ("e".to_owned(), ParamKind::Event),
                ("n".to_owned(), ParamKind::Int),
            ],
        )
        .expect("valid declaration")
    }

    fn simple_def() -> AutomatonDefinition {
        AutomatonDefinition::new(
            "CDef",
            simple_decl(),
            vec!["S0".into()],
            0,
            vec![0],
            vec![VarDecl {
                name: "x".into(),
                init: IntExpr::var("n"),
            }],
            vec![Transition {
                source: 0,
                target: 0,
                true_triggers: vec!["e".into()],
                false_triggers: vec![],
                guard: Some(BoolExpr::cmp(
                    IntExpr::var("x"),
                    CmpOp::Gt,
                    IntExpr::Const(0),
                )),
                actions: vec![Action::decrement("x", IntExpr::Const(1))],
            }],
        )
        .expect("valid definition")
    }

    #[test]
    fn declaration_rejects_duplicate_params() {
        let r = ConstraintDeclaration::new(
            "C",
            vec![
                ("e".to_owned(), ParamKind::Event),
                ("e".to_owned(), ParamKind::Int),
            ],
        );
        assert!(matches!(r, Err(AutomataError::DuplicateName { .. })));
    }

    #[test]
    fn declaration_param_queries() {
        let d = simple_decl();
        assert_eq!(d.param_kind("e"), Some(ParamKind::Event));
        assert_eq!(d.param_kind("n"), Some(ParamKind::Int));
        assert_eq!(d.param_kind("z"), None);
        assert_eq!(d.event_params(), vec!["e"]);
        assert_eq!(d.int_params(), vec!["n"]);
    }

    #[test]
    fn definition_validates_structure() {
        // no states
        let r = AutomatonDefinition::new("D", simple_decl(), vec![], 0, vec![], vec![], vec![]);
        assert!(r.is_err());
        // initial out of range
        let r = AutomatonDefinition::new(
            "D",
            simple_decl(),
            vec!["S0".into()],
            1,
            vec![0],
            vec![],
            vec![],
        );
        assert!(r.is_err());
        // finals empty
        let r = AutomatonDefinition::new(
            "D",
            simple_decl(),
            vec!["S0".into()],
            0,
            vec![],
            vec![],
            vec![],
        );
        assert!(r.is_err());
    }

    #[test]
    fn definition_validates_references() {
        // unknown trigger
        let r = AutomatonDefinition::new(
            "D",
            simple_decl(),
            vec!["S0".into()],
            0,
            vec![0],
            vec![],
            vec![Transition {
                source: 0,
                target: 0,
                true_triggers: vec!["ghost".into()],
                false_triggers: vec![],
                guard: None,
                actions: vec![],
            }],
        );
        assert!(matches!(r, Err(AutomataError::UnknownName { .. })));
        // int param used as trigger
        let r = AutomatonDefinition::new(
            "D",
            simple_decl(),
            vec!["S0".into()],
            0,
            vec![0],
            vec![],
            vec![Transition {
                source: 0,
                target: 0,
                true_triggers: vec!["n".into()],
                false_triggers: vec![],
                guard: None,
                actions: vec![],
            }],
        );
        assert!(r.is_err());
        // action assigns an undeclared variable
        let r = AutomatonDefinition::new(
            "D",
            simple_decl(),
            vec!["S0".into()],
            0,
            vec![0],
            vec![],
            vec![Transition {
                source: 0,
                target: 0,
                true_triggers: vec!["e".into()],
                false_triggers: vec![],
                guard: None,
                actions: vec![Action::assign("ghost", IntExpr::Const(0))],
            }],
        );
        assert!(r.is_err());
    }

    #[test]
    fn variable_shadowing_parameter_is_rejected() {
        let r = AutomatonDefinition::new(
            "D",
            simple_decl(),
            vec!["S0".into()],
            0,
            vec![0],
            vec![VarDecl {
                name: "n".into(),
                init: IntExpr::Const(0),
            }],
            vec![],
        );
        assert!(matches!(r, Err(AutomataError::DuplicateName { .. })));
    }

    #[test]
    fn library_wiring() {
        let mut lib = RelationLibrary::new("L");
        lib.add_declaration(simple_decl()).expect("adds");
        assert!(lib.add_declaration(simple_decl()).is_err());
        lib.add_definition(simple_def()).expect("adds definition");
        assert!(lib.add_definition(simple_def()).is_err()); // duplicate
        assert!(lib.definition_for("C").is_some());
        assert!(lib.definition_for("missing").is_none());
        assert!(lib.instantiate("C", "c1").is_ok());
        assert!(lib.instantiate("missing", "x").is_err());
    }

    #[test]
    fn definition_requires_known_declaration() {
        let mut lib = RelationLibrary::new("L");
        let r = lib.add_definition(simple_def());
        assert!(matches!(r, Err(AutomataError::UnknownName { .. })));
    }

    #[test]
    fn determinism_warning_detects_ambiguity() {
        let def = AutomatonDefinition::new(
            "D",
            simple_decl(),
            vec!["S0".into(), "S1".into()],
            0,
            vec![0],
            vec![],
            vec![
                Transition {
                    source: 0,
                    target: 0,
                    true_triggers: vec!["e".into()],
                    false_triggers: vec![],
                    guard: None,
                    actions: vec![],
                },
                Transition {
                    source: 0,
                    target: 1,
                    true_triggers: vec!["e".into()],
                    false_triggers: vec![],
                    guard: None,
                    actions: vec![],
                },
            ],
        )
        .expect("structurally valid");
        assert_eq!(def.determinism_warnings().len(), 1);
        assert!(simple_def().determinism_warnings().is_empty());
    }

    #[test]
    fn state_index_lookup() {
        let def = simple_def();
        assert_eq!(def.state_index("S0"), Some(0));
        assert_eq!(def.state_index("S9"), None);
    }
}
