//! [`Engine`]: a compiled execution session over one specification.
//!
//! This is the paper's "generic execution engine" (Fig. 1) as a single
//! configured object: the specification is compiled once into an
//! immutable [`Program`], the session drives its own [`Cursor`] over
//! it, a pluggable [`Policy`] picks among acceptable steps,
//! [`Observer`]s stream every fired step, and simulation, exploration
//! and the analysis queries all run on the same compiled program — no
//! re-lowering anywhere in the hot loop.

use crate::cursor::Cursor;
use crate::explorer::{ExploreOptions, StateSpace};
use crate::observer::Observer;
use crate::policy::{Lexicographic, Policy, PolicyContext};
use crate::program::Program;
use crate::solver::SolverOptions;
use moccml_kernel::{KernelError, Schedule, Specification, Step};
use std::fmt;
use std::sync::Arc;

/// Outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// The schedule prefix that was executed.
    pub schedule: Schedule,
    /// `true` if the run stopped because no non-empty step was
    /// acceptable.
    pub deadlocked: bool,
    /// Number of steps executed (equals `schedule.len()`).
    pub steps_taken: usize,
}

/// Why [`Engine::fire_chosen`] fired no step.
enum Halt {
    /// No step is acceptable.
    Deadlock,
    /// The policy chose none.
    Declined,
    /// The step set cannot be indexed.
    Failed(KernelError),
}

/// A configured execution session: a cursor over a compiled program +
/// policy + solver options + observers.
///
/// Built with [`Engine::builder`]:
///
/// ```
/// use moccml_ccsl::Alternation;
/// use moccml_engine::{Engine, Random, SolverOptions, VcdObserver};
/// use moccml_kernel::{Specification, Universe};
///
/// let mut u = Universe::new();
/// let (a, b) = (u.event("a"), u.event("b"));
/// let mut spec = Specification::new("alt", u);
/// spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
///
/// let vcd = VcdObserver::new("alt");
/// let mut engine = Engine::builder(spec)
///     .policy(Random::new(2015))
///     .solver(SolverOptions::default())
///     .observer(vcd.clone())
///     .build();
/// let report = engine.run(10);
/// assert_eq!(report.steps_taken, 10);
/// assert_eq!(report.schedule.occurrences(a), 5);
/// assert!(vcd.render().ends_with("#20\n"));
/// ```
pub struct Engine {
    cursor: Cursor,
    /// A second cursor for policy lookahead, cloned from `cursor` on
    /// first use: the choice reads the current step set from `cursor`.
    lookahead: Option<Cursor>,
    policy: Box<dyn Policy>,
    solver: SolverOptions,
    observers: Vec<Box<dyn Observer>>,
    steps_taken: usize,
}

impl Engine {
    /// Starts configuring a session over `spec` (compiles it).
    #[must_use]
    pub fn builder(spec: Specification) -> EngineBuilder {
        Self::from_program(&Program::new(spec))
    }

    /// Starts configuring a session over an already compiled program.
    /// Sessions created this way share the program's local-state
    /// tables with every other cursor of that program.
    #[must_use]
    pub fn from_program(program: &Program) -> EngineBuilder {
        EngineBuilder {
            cursor: program.cursor(),
            policy: None,
            solver: SolverOptions::default(),
            observers: Vec::new(),
        }
    }

    /// Read access to the driven specification: its universe and
    /// constraints. The session's position is its
    /// [`cursor`](Engine::cursor)'s.
    #[must_use]
    pub fn specification(&self) -> &Specification {
        self.cursor.specification()
    }

    /// The compiled program this session executes.
    #[must_use]
    pub fn program(&self) -> &Arc<Program> {
        self.cursor.program()
    }

    /// The session's cursor (its current execution position).
    #[must_use]
    pub fn cursor(&self) -> &Cursor {
        &self.cursor
    }

    /// The session's solver options.
    #[must_use]
    pub fn solver(&self) -> &SolverOptions {
        &self.solver
    }

    /// Steps fired since the session started (or was last reset).
    #[must_use]
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// The acceptable steps of the current configuration, on the
    /// compiled path.
    #[must_use]
    pub fn acceptable_steps(&self) -> Vec<Step> {
        self.cursor.acceptable_steps(&self.solver)
    }

    /// Picks and fires one step. Returns the step, or `None` when no
    /// step is acceptable (a deadlock) or the policy declines.
    ///
    /// # Panics
    ///
    /// Panics if the current state admits more steps than a `usize`
    /// counts; [`try_step`](Engine::try_step) reports that as an error.
    pub fn step(&mut self) -> Option<Step> {
        self.try_step().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`step`](Engine::step), for states whose step sets may be too
    /// large to index.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::TooManySteps`] when the current state
    /// admits more steps than a `usize` counts; nothing fires then.
    #[inline]
    pub fn try_step(&mut self) -> Result<Option<Step>, KernelError> {
        match self.fire_chosen() {
            Ok(step) => Ok(Some(step)),
            Err(Halt::Failed(e)) => Err(e),
            Err(_) => Ok(None),
        }
    }

    /// Picks and fires one step, telling why none fired. The policy
    /// chooses on the factored [`StepSet`](crate::StepSet); only the
    /// chosen step is built, and it fires without a second check, as
    /// the solver produced it.
    fn fire_chosen(&mut self) -> Result<Step, Halt> {
        let steps = self.cursor.steps(&self.solver).map_err(Halt::Failed)?;
        if steps.is_empty() {
            return Err(Halt::Deadlock);
        }
        let chosen = {
            let mut ctx =
                PolicyContext::new(&steps, &self.cursor, &mut self.lookahead, &self.solver);
            self.policy.choose(&mut ctx).ok_or(Halt::Declined)?
        };
        assert!(
            chosen < steps.len(),
            "policy `{}` chose candidate {chosen} of {}",
            self.policy.name(),
            steps.len()
        );
        let step = steps.nth(chosen);
        self.cursor.advance(&step);
        for o in &mut self.observers {
            o.on_step(self.steps_taken, &step);
        }
        self.steps_taken += 1;
        Ok(step)
    }

    /// Runs up to `max_steps` steps, stopping early on deadlock or
    /// when the policy declines to choose. Only a genuine deadlock (no
    /// acceptable step) sets
    /// [`deadlocked`](SimulationReport::deadlocked); a policy returning
    /// `None` merely ends the run.
    ///
    /// # Panics
    ///
    /// Panics where [`try_run`](Engine::try_run) returns an error.
    pub fn run(&mut self, max_steps: usize) -> SimulationReport {
        self.try_run(max_steps).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run`](Engine::run), for states whose step sets may be too large
    /// to index.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::TooManySteps`] when a reached state admits
    /// more steps than a `usize` counts (so no policy can index them);
    /// the steps fired before it stay fired.
    pub fn try_run(&mut self, max_steps: usize) -> Result<SimulationReport, KernelError> {
        let mut schedule = Schedule::new();
        let mut deadlocked = false;
        for _ in 0..max_steps {
            match self.fire_chosen() {
                Ok(step) => schedule.push(step),
                Err(Halt::Failed(e)) => return Err(e),
                Err(halt) => {
                    deadlocked = matches!(halt, Halt::Deadlock);
                    break;
                }
            }
        }
        let steps_taken = schedule.len();
        Ok(SimulationReport {
            schedule,
            deadlocked,
            steps_taken,
        })
    }

    /// Explores the reachable scheduling state-space from the current
    /// configuration. The session itself is untouched — exploration
    /// runs on its own worker cursors over the shared program. The
    /// solver configuration comes from `options`
    /// ([`ExploreOptions::solver`]), not from the session's simulation
    /// options.
    #[must_use]
    pub fn explore(&self, options: &ExploreOptions) -> StateSpace {
        self.cursor.explore(options)
    }

    /// Resets the cursor to the state the program was compiled in, the
    /// policy (PRNG seeds) and the step counter, and restarts the
    /// observers.
    pub fn reset(&mut self) {
        self.cursor.reset();
        self.policy.reset();
        self.steps_taken = 0;
        for o in &mut self.observers {
            o.on_session_start(self.cursor.specification());
        }
    }

    /// Reseeds the policy ([`Policy::reseed`]), then
    /// [`reset`](Engine::reset)s the session: a [`Random`](crate::Random)
    /// session runs as a fresh one with that seed would, without a new
    /// policy.
    pub fn reseed(&mut self, seed: u64) {
        self.policy.reseed(seed);
        self.reset();
    }

    /// Swaps in `policy`, then [`reset`](Engine::reset)s the session:
    /// many independent runs, each under its own policy, reuse one
    /// session without re-cloning the specification.
    pub fn reset_with(&mut self, policy: impl Policy + 'static) {
        self.policy = Box::new(policy);
        self.reset();
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("spec", &self.cursor.specification().name())
            .field("policy", &self.policy.name())
            .field("solver", &self.solver)
            .field("observers", &self.observers.len())
            .field("steps_taken", &self.steps_taken)
            .finish()
    }
}

/// Builder for an [`Engine`] session. Defaults: [`Lexicographic`]
/// policy, [`SolverOptions::default`], no observers.
pub struct EngineBuilder {
    cursor: Cursor,
    policy: Option<Box<dyn Policy>>,
    solver: SolverOptions,
    observers: Vec<Box<dyn Observer>>,
}

impl EngineBuilder {
    /// Sets the step-choice policy.
    #[must_use]
    pub fn policy(mut self, policy: impl Policy + 'static) -> Self {
        self.policy = Some(Box::new(policy));
        self
    }

    /// Sets an already boxed policy (for heterogeneous policy lists).
    #[must_use]
    pub fn policy_boxed(mut self, policy: Box<dyn Policy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the solver options used for simulation stepping.
    #[must_use]
    pub fn solver(mut self, solver: SolverOptions) -> Self {
        self.solver = solver;
        self
    }

    /// Registers an observer (may be called repeatedly).
    #[must_use]
    pub fn observer(mut self, observer: impl Observer + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Finishes the session; notifies every observer of the start.
    #[must_use]
    pub fn build(self) -> Engine {
        let mut engine = Engine {
            cursor: self.cursor,
            lookahead: None,
            policy: self.policy.unwrap_or_else(|| Box::new(Lexicographic)),
            solver: self.solver,
            observers: self.observers,
            steps_taken: 0,
        };
        for o in &mut engine.observers {
            o.on_session_start(engine.cursor.specification());
        }
        engine
    }
}

impl fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("spec", &self.cursor.specification().name())
            .field("observers", &self.observers.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{MaxParallel, Random};
    use moccml_ccsl::{Alternation, Precedence, SubClock};
    use moccml_kernel::Universe;

    fn alternating() -> (Specification, moccml_kernel::EventId) {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        (spec, a)
    }

    #[test]
    fn default_policy_is_lexicographic() {
        let (spec, a) = alternating();
        let mut engine = Engine::builder(spec).build();
        let step = engine.step().expect("step");
        assert!(step.contains(a));
        assert_eq!(engine.steps_taken(), 1);
    }

    #[test]
    fn run_detects_deadlock() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("dead", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<a", b, a)));
        let report = Engine::builder(spec).build().run(10);
        assert!(report.deadlocked);
        assert_eq!(report.steps_taken, 0);
    }

    #[test]
    fn lexicographic_alternation_is_strict() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        let report = Engine::builder(spec).build().run(10);
        assert!(!report.deadlocked);
        assert_eq!(report.steps_taken, 10);
        for (i, step) in report.schedule.iter().enumerate() {
            let expected = if i % 2 == 0 { a } else { b };
            assert!(step.contains(expected), "step {i}");
            assert_eq!(step.len(), 1);
        }
    }

    #[test]
    fn run_stops_where_stepping_deadlocks() {
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("bounded", u);
        // b and c block each other forever, so a may lead b by two
        // occurrences and then wedges: a deadlock after two steps
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b).with_bound(2)));
        spec.add_constraint(Box::new(Precedence::strict("b<c", b, c)));
        spec.add_constraint(Box::new(Precedence::strict("c<b", c, b)));
        let mut stepped = Engine::builder(spec.clone()).build();
        let steps: Vec<Step> = std::iter::from_fn(|| stepped.step()).take(100).collect();
        let report = Engine::builder(spec).build().run(100);
        assert!(report.deadlocked);
        assert_eq!(report.steps_taken, 2);
        assert_eq!(steps, report.schedule.steps().to_vec());
    }

    #[test]
    fn explore_leaves_the_session_state_alone() {
        let (spec, _) = alternating();
        let mut engine = Engine::builder(spec).policy(MaxParallel).build();
        let before = engine.acceptable_steps();
        let space = engine.explore(&ExploreOptions::default());
        assert_eq!(space.state_count(), 2);
        assert_eq!(engine.acceptable_steps(), before);
        // mid-run exploration is rooted at the session's current state
        engine.step().expect("step");
        let rooted = engine.explore(&ExploreOptions::default());
        assert_eq!(
            rooted.states()[rooted.initial()],
            engine.cursor().state_key()
        );
    }

    #[test]
    fn sessions_over_one_program_share_the_memo() {
        let (spec, _) = alternating();
        let program = Program::new(spec);
        let mut first = Engine::from_program(&program).build();
        first.run(6);
        let grown = program.cached_formula_count();
        let mut second = Engine::from_program(&program).build();
        second.run(6);
        assert_eq!(program.cached_formula_count(), grown);
    }

    #[test]
    fn reset_restarts_policy_and_counter() {
        let (spec, _) = alternating();
        let mut engine = Engine::builder(spec).policy(Random::new(5)).build();
        let first = engine.run(6).schedule;
        assert_eq!(engine.steps_taken(), 6);
        engine.reset();
        assert_eq!(engine.steps_taken(), 0);
        assert_eq!(engine.run(6).schedule, first);
    }

    #[test]
    fn policy_decline_is_not_a_deadlock() {
        /// Halts after two choices.
        #[derive(Debug)]
        struct Budgeted(usize);
        impl crate::Policy for Budgeted {
            fn name(&self) -> &str {
                "budgeted"
            }
            fn choose(&mut self, _ctx: &mut crate::PolicyContext<'_>) -> Option<usize> {
                if self.0 == 0 {
                    return None;
                }
                self.0 -= 1;
                Some(0)
            }
        }
        let (spec, _) = alternating();
        let report = Engine::builder(spec).policy(Budgeted(2)).build().run(10);
        assert_eq!(report.steps_taken, 2);
        assert!(
            !report.deadlocked,
            "a declining policy must not be reported as a deadlock"
        );
    }

    #[test]
    fn solver_options_apply_to_stepping() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("sub", u);
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        // with the empty step included, lexicographic picks {} forever
        let mut engine = Engine::builder(spec)
            .solver(SolverOptions::default().with_empty(true))
            .build();
        assert!(engine.step().expect("empty step is a candidate").is_empty());
    }

    #[test]
    fn debug_formats_name_and_policy() {
        let (spec, _) = alternating();
        let engine = Engine::builder(spec).policy(MaxParallel).build();
        let text = format!("{engine:?}");
        assert!(text.contains("alt") && text.contains("max-parallel"));
    }

    /// `n` independent `subclock` pairs: 3^n steps in every state.
    fn subclock_pairs(n: usize) -> Specification {
        let mut u = Universe::new();
        let pairs: Vec<_> = (0..n)
            .map(|i| (u.event(&format!("a{i}")), u.event(&format!("b{i}"))))
            .collect();
        let mut spec = Specification::new("pairs", u);
        for (i, (a, b)) in pairs.into_iter().enumerate() {
            spec.add_constraint(Box::new(SubClock::new(&format!("s{i}"), a, b)));
        }
        spec
    }

    /// 3^41 steps are more than a `usize` counts: every policy's run is
    /// an error, not a panic, and fires nothing. 3^40 still fit.
    #[test]
    fn oversized_step_sets_are_errors() {
        let program = Program::new(subclock_pairs(41));
        let policies: [Box<dyn Policy>; 5] = [
            Box::new(Random::new(1)),
            Box::new(Lexicographic),
            Box::new(MaxParallel),
            Box::new(crate::policy::MinSerial),
            Box::new(crate::policy::SafeMaxParallel),
        ];
        for policy in policies {
            let name = policy.name().to_owned();
            let mut engine = Engine::from_program(&program).policy_boxed(policy).build();
            let err = engine.try_run(1).expect_err(&name);
            assert_eq!(err, KernelError::TooManySteps { components: 41 }, "{name}");
            assert_eq!(engine.steps_taken(), 0, "{name}");
        }
        let mut engine = Engine::builder(subclock_pairs(40))
            .policy(MaxParallel)
            .build();
        let report = engine.try_run(2).expect("3^40 steps are indexable");
        assert_eq!(report.schedule.steps()[0].len(), 80);
    }
}
