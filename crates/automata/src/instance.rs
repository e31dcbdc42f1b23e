//! Instantiation and execution of constraint automata.

use crate::error::AutomataError;
use crate::expr::Env;
use crate::metamodel::{AutomatonDefinition, ParamKind, Transition};
use moccml_kernel::{Constraint, EventId, StateKey, Step, StepFormula};
use std::collections::HashMap;
use std::sync::Arc;

/// Builder binding actual events/integers to the parameters of a
/// definition — the paper's *instantiation process* ("4 constants:
/// itsCapacity, itsDelay, pushRate, popRate, which are set during the
/// instantiation process").
///
/// Obtained from [`RelationLibrary::instantiate`]; call
/// [`bind_event`](InstanceBuilder::bind_event) /
/// [`bind_int`](InstanceBuilder::bind_int) for every parameter, then
/// [`finish`](InstanceBuilder::finish).
///
/// [`RelationLibrary::instantiate`]: crate::RelationLibrary::instantiate
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    def: Arc<AutomatonDefinition>,
    name: String,
    events: HashMap<String, EventId>,
    ints: HashMap<String, i64>,
}

impl InstanceBuilder {
    pub(crate) fn new(def: Arc<AutomatonDefinition>, name: &str) -> Self {
        InstanceBuilder {
            def,
            name: name.to_owned(),
            events: HashMap::new(),
            ints: HashMap::new(),
        }
    }

    /// Binds event parameter `param` to `event`.
    #[must_use]
    pub fn bind_event(mut self, param: &str, event: EventId) -> Self {
        self.events.insert(param.to_owned(), event);
        self
    }

    /// Binds integer parameter `param` to `value`.
    #[must_use]
    pub fn bind_int(mut self, param: &str, value: i64) -> Self {
        self.ints.insert(param.to_owned(), value);
        self
    }

    /// Checks completeness and typing of the bindings and produces the
    /// runnable instance.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::InvalidBinding`] if a parameter is
    /// unbound, a binding names no parameter, or kinds disagree.
    pub fn finish(self) -> Result<AutomatonInstance, AutomataError> {
        let bad = |reason: String| AutomataError::InvalidBinding {
            instance: self.name.clone(),
            reason,
        };
        let decl = self.def.declaration();
        for (name, _) in self.events.iter() {
            if decl.param_kind(name) != Some(ParamKind::Event) {
                return Err(bad(format!("`{name}` is not an event parameter")));
            }
        }
        for (name, _) in self.ints.iter() {
            if decl.param_kind(name) != Some(ParamKind::Int) {
                return Err(bad(format!("`{name}` is not an integer parameter")));
            }
        }
        let mut event_bindings = Vec::new();
        let mut int_env: HashMap<String, i64> = HashMap::new();
        for (p, kind) in decl.params() {
            match kind {
                ParamKind::Event => {
                    let id = self
                        .events
                        .get(p)
                        .copied()
                        .ok_or_else(|| bad(format!("event parameter `{p}` is unbound")))?;
                    event_bindings.push((p.clone(), id));
                }
                ParamKind::Int => {
                    let v = self
                        .ints
                        .get(p)
                        .copied()
                        .ok_or_else(|| bad(format!("integer parameter `{p}` is unbound")))?;
                    int_env.insert(p.clone(), v);
                }
            }
        }
        // evaluate variable initialisers over the integer parameters
        let mut initial = StateKey::from_values([state_value(self.def.initial())]);
        for v in self.def.variables() {
            initial.push(v.init.eval(&int_env).map_err(|e| bad(e.to_string()))?);
        }
        Ok(AutomatonInstance {
            def: self.def,
            name: self.name,
            event_bindings,
            int_env,
            initial,
        })
    }
}

/// The key value of state index `state`.
fn state_value(state: usize) -> i64 {
    i64::try_from(state).expect("state index fits i64")
}

/// A runnable constraint automaton: a definition whose parameters are
/// bound, executing the Sec. II-C semantics.
///
/// Its local state is the key `[state index, variable values…]`, the
/// variables in declaration order.
///
/// See the [crate documentation](crate) for a full example built from
/// the paper's Fig. 3.
#[derive(Debug, Clone)]
pub struct AutomatonInstance {
    def: Arc<AutomatonDefinition>,
    name: String,
    /// Event parameter name → bound event, in declaration order.
    event_bindings: Vec<(String, EventId)>,
    int_env: HashMap<String, i64>,
    /// The initial state and the initialised variables.
    initial: StateKey,
}

/// The names an instance's guards and actions read in one local state:
/// its variables (from the local key) shadowing its integer parameters.
struct InstanceEnv<'a> {
    def: &'a AutomatonDefinition,
    ints: &'a HashMap<String, i64>,
    vars: &'a [i64],
}

impl Env for InstanceEnv<'_> {
    fn get(&self, name: &str) -> Option<i64> {
        self.def
            .variables()
            .iter()
            .position(|v| v.name == name)
            .and_then(|i| self.vars.get(i).copied())
            .or_else(|| self.ints.get(name).copied())
    }
}

impl AutomatonInstance {
    /// The underlying definition.
    #[must_use]
    pub fn definition(&self) -> &AutomatonDefinition {
        &self.def
    }

    /// The state index of local state `local`.
    fn state(local: &StateKey) -> Option<usize> {
        local
            .values()
            .first()
            .and_then(|&s| usize::try_from(s).ok())
    }

    /// Name of the automaton state in local state `local`, if `local`
    /// names one.
    #[must_use]
    pub fn current_state(&self, local: &StateKey) -> Option<&str> {
        let state = Self::state(local)?;
        self.def.states().get(state).map(String::as_str)
    }

    /// Whether local state `local` sits in a final state — the
    /// acceptance criterion used by reachability analyses.
    #[must_use]
    pub fn is_in_final_state(&self, local: &StateKey) -> bool {
        Self::state(local).is_some_and(|s| self.def.finals().contains(&s))
    }

    /// Value of local variable `name` in local state `local`, if
    /// declared.
    #[must_use]
    pub fn variable(&self, local: &StateKey, name: &str) -> Option<i64> {
        let i = self.def.variables().iter().position(|v| v.name == name)?;
        local.values().get(1 + i).copied()
    }

    /// The event bound to event parameter `param`, if any.
    #[must_use]
    pub fn bound_event(&self, param: &str) -> Option<EventId> {
        self.event_bindings
            .iter()
            .find(|(n, _)| n == param)
            .map(|(_, e)| *e)
    }

    fn event_of(&self, param: &str) -> EventId {
        self.bound_event(param)
            .expect("validated at construction: trigger names an event parameter")
    }

    /// The names guards and actions read in the local state `values`.
    fn env<'a>(&'a self, values: &'a [i64]) -> InstanceEnv<'a> {
        InstanceEnv {
            def: &self.def,
            ints: &self.int_env,
            vars: values.get(1..).unwrap_or_default(),
        }
    }

    fn guard_holds(&self, t: &Transition, local: &StateKey) -> bool {
        match &t.guard {
            None => true,
            Some(g) => g.eval(&self.env(local.values())).unwrap_or(false),
        }
    }

    fn transition_matches(&self, t: &Transition, local: &StateKey, step: &Step) -> bool {
        self.guard_holds(t, local)
            && t.true_triggers.iter().all(|p| step.contains(self.event_of(p)))
            && t.false_triggers.iter().all(|p| !step.contains(self.event_of(p)))
            // a transition with no trueTriggers would otherwise "fire" on
            // stuttering steps; require at least one constrained event.
            && (!t.true_triggers.is_empty()
                || self
                    .event_bindings
                    .iter()
                    .any(|(_, e)| step.contains(*e)))
    }

    /// Transitions leaving the automaton state of `local`.
    fn outgoing<'a>(&'a self, local: &StateKey) -> impl Iterator<Item = &'a Transition> {
        let state = Self::state(local);
        self.def
            .transitions()
            .iter()
            .filter(move |t| Some(t.source) == state)
    }
}

impl Constraint for AutomatonInstance {
    fn name(&self) -> &str {
        &self.name
    }

    fn constrained_events(&self) -> Vec<EventId> {
        self.event_bindings.iter().map(|(_, e)| *e).collect()
    }

    fn initial(&self) -> StateKey {
        self.initial.clone()
    }

    /// Sec. II-C: "the semantics of a constraint automata is defined as
    /// a logical disjunction of the boolean expressions associated to
    /// the output transitions of the current state", each being the
    /// conjunction of its `trueTriggers` and of the negation of its
    /// `falseTriggers`, provided the guard holds — plus the stuttering
    /// disjunct (no constrained event occurs).
    fn formula(&self, local: &StateKey) -> StepFormula {
        let mut disjuncts = Vec::new();
        for t in self.outgoing(local) {
            if !self.guard_holds(t, local) {
                continue;
            }
            let mut conj: Vec<StepFormula> = t
                .true_triggers
                .iter()
                .map(|p| StepFormula::event(self.event_of(p)))
                .collect();
            conj.extend(
                t.false_triggers
                    .iter()
                    .map(|p| StepFormula::not(StepFormula::event(self.event_of(p)))),
            );
            disjuncts.push(StepFormula::and(conj));
        }
        // stuttering: a step ignoring this automaton's events is allowed
        disjuncts.push(StepFormula::none_of(
            self.event_bindings.iter().map(|(_, e)| *e),
        ));
        StepFormula::or(disjuncts).simplify()
    }

    /// Takes the first outgoing transition the step matches, running
    /// its actions in order (each sees the writes before it). A step
    /// that matches none — a stuttering step — leaves the state as is.
    fn next(&self, local: &StateKey, step: &Step) -> StateKey {
        let Some(t) = self
            .outgoing(local)
            .find(|t| self.transition_matches(t, local, step))
        else {
            return local.clone();
        };
        let mut values = local.values().to_vec();
        for a in &t.actions {
            let value = a
                .expr
                .eval(&self.env(&values))
                .expect("validated at construction: actions read bound integers");
            let slot = self
                .def
                .variables()
                .iter()
                .position(|v| v.name == a.var)
                .expect("validated at construction: action assigns a variable");
            values[1 + slot] = value;
        }
        values[0] = state_value(t.target);
        StateKey::from_values(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Action, BoolExpr, CmpOp, IntExpr};
    use crate::metamodel::{ConstraintDeclaration, RelationLibrary, VarDecl};
    use moccml_kernel::{Specification, Universe};

    /// Builds the Fig. 3 PlaceConstraint library programmatically.
    fn place_library() -> RelationLibrary {
        let decl = ConstraintDeclaration::new(
            "PlaceConstraint",
            vec![
                ("write".to_owned(), ParamKind::Event),
                ("read".to_owned(), ParamKind::Event),
                ("pushRate".to_owned(), ParamKind::Int),
                ("popRate".to_owned(), ParamKind::Int),
                ("itsDelay".to_owned(), ParamKind::Int),
                ("itsCapacity".to_owned(), ParamKind::Int),
            ],
        )
        .expect("declaration");
        let def = AutomatonDefinition::new(
            "PlaceConstraintDef",
            decl.clone(),
            vec!["S0".into()],
            0,
            vec![0],
            vec![VarDecl {
                name: "size".into(),
                init: IntExpr::var("itsDelay"),
            }],
            vec![
                Transition {
                    source: 0,
                    target: 0,
                    true_triggers: vec!["write".into()],
                    false_triggers: vec!["read".into()],
                    guard: Some(BoolExpr::cmp(
                        IntExpr::var("size"),
                        CmpOp::Le,
                        IntExpr::Sub(
                            Box::new(IntExpr::var("itsCapacity")),
                            Box::new(IntExpr::var("pushRate")),
                        ),
                    )),
                    actions: vec![Action::increment("size", IntExpr::var("pushRate"))],
                },
                Transition {
                    source: 0,
                    target: 0,
                    true_triggers: vec!["read".into()],
                    false_triggers: vec!["write".into()],
                    guard: Some(BoolExpr::cmp(
                        IntExpr::var("size"),
                        CmpOp::Ge,
                        IntExpr::var("popRate"),
                    )),
                    actions: vec![Action::decrement("size", IntExpr::var("popRate"))],
                },
            ],
        )
        .expect("definition");
        let mut lib = RelationLibrary::new("SimpleSDFRelationLibrary");
        lib.add_declaration(decl).expect("decl");
        lib.add_definition(def).expect("def");
        lib
    }

    fn place_instance(
        u: &mut Universe,
        delay: i64,
        capacity: i64,
    ) -> (AutomatonInstance, EventId, EventId) {
        let w = u.event("w");
        let r = u.event("r");
        let inst = place_library()
            .instantiate("PlaceConstraint", "place")
            .expect("instantiate")
            .bind_event("write", w)
            .bind_event("read", r)
            .bind_int("pushRate", 1)
            .bind_int("popRate", 1)
            .bind_int("itsDelay", delay)
            .bind_int("itsCapacity", capacity)
            .finish()
            .expect("finish");
        (inst, w, r)
    }

    /// A specification over `u` holding `p` alone.
    fn alone(u: &Universe, p: AutomatonInstance) -> Specification {
        let mut spec = Specification::new("s", u.clone());
        spec.add_constraint(Box::new(p));
        spec
    }

    #[test]
    fn empty_place_blocks_read() {
        let mut u = Universe::new();
        let (p, w, r) = place_instance(&mut u, 0, 2);
        let f = p.formula(&p.initial());
        assert!(f.eval(&Step::from_events([w])));
        assert!(!f.eval(&Step::from_events([r])));
        assert!(!f.eval(&Step::from_events([w, r]))); // Fig. 3 has no joint transition
        assert!(f.eval(&Step::new())); // stuttering
    }

    #[test]
    fn full_place_blocks_write() {
        let mut u = Universe::new();
        let (p, w, r) = place_instance(&mut u, 0, 2);
        let mut l = p.initial();
        l = p.next(&l, &Step::from_events([w]));
        l = p.next(&l, &Step::from_events([w]));
        assert_eq!(p.variable(&l, "size"), Some(2));
        assert!(!p.formula(&l).eval(&Step::from_events([w])));
        l = p.next(&l, &Step::from_events([r]));
        assert_eq!(p.variable(&l, "size"), Some(1));
    }

    #[test]
    fn initial_delay_preloads_tokens() {
        let mut u = Universe::new();
        let (p, _, r) = place_instance(&mut u, 1, 2);
        // one initial token: read possible immediately (Fig. 3 init size=itsDelay)
        assert!(p.formula(&p.initial()).eval(&Step::from_events([r])));
    }

    #[test]
    fn stuttering_keeps_state_and_foreign_events_pass() {
        let mut u = Universe::new();
        let (p, _, _) = place_instance(&mut u, 0, 2);
        let other = u.event("other");
        let key = p.initial();
        assert_eq!(p.next(&key, &Step::from_events([other])), key);
    }

    #[test]
    fn violating_step_is_rejected_by_fire() {
        let mut u = Universe::new();
        let (p, _, r) = place_instance(&mut u, 0, 2);
        assert!(alone(&u, p).fire(&Step::from_events([r])).is_err());
    }

    #[test]
    fn state_key_round_trip() {
        let mut u = Universe::new();
        let (p, w, _) = place_instance(&mut u, 0, 3);
        let mut spec = alone(&u, p.clone());
        spec.fire(&Step::from_events([w])).expect("w");
        let key = spec.state_key();
        assert_eq!(spec.locals()[0].values(), &[0, 1]); // state S0, size 1
        spec.reset();
        assert_eq!(p.variable(&spec.locals()[0], "size"), Some(0));
        spec.restore(&key).expect("restore");
        assert_eq!(p.variable(&spec.locals()[0], "size"), Some(1));
        assert!(spec.restore(&StateKey::from_values([1, 0])).is_err());
        assert!(spec.restore(&StateKey::from_values([3, 9, 1, 0])).is_err());
    }

    #[test]
    fn builder_rejects_incomplete_or_ill_typed_bindings() {
        let mut u = Universe::new();
        let w = u.event("w");
        let lib = place_library();
        // unbound parameters
        let r = lib
            .instantiate("PlaceConstraint", "p")
            .expect("builder")
            .bind_event("write", w)
            .finish();
        assert!(r.is_err());
        // event bound as int
        let r = lib
            .instantiate("PlaceConstraint", "p")
            .expect("builder")
            .bind_int("write", 3)
            .finish();
        assert!(r.is_err());
        // binding an undeclared parameter
        let r = lib
            .instantiate("PlaceConstraint", "p")
            .expect("builder")
            .bind_event("ghost", w)
            .finish();
        assert!(r.is_err());
    }

    #[test]
    fn final_state_and_introspection() {
        let mut u = Universe::new();
        let (p, w, _) = place_instance(&mut u, 0, 2);
        assert!(p.is_in_final_state(&p.initial()));
        assert_eq!(p.current_state(&p.initial()), Some("S0"));
        assert_eq!(p.bound_event("write"), Some(w));
        assert_eq!(p.bound_event("ghost"), None);
        assert_eq!(p.definition().name(), "PlaceConstraintDef");
    }
}
