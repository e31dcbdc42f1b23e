//! [`Policy`]: the open strategy interface for picking one acceptable
//! step among many.
//!
//! The paper leaves the choice to the engine ("for each step, one or
//! several event(s) can occur"). The seed shipped a closed enum; this
//! module opens it: any `Policy` implementation can be plugged into an
//! [`Engine`](crate::Engine) session, and the five historical variants
//! ship as provided implementations — [`Random`], [`MaxParallel`],
//! [`MinSerial`], [`Lexicographic`] and [`SafeMaxParallel`].

use crate::cursor::Cursor;
use crate::rng::SplitMix64;
use crate::solver::SolverOptions;
use crate::step_set::StepSet;
use moccml_kernel::{Specification, Step};
use std::cell::OnceCell;
use std::fmt;

/// What a policy sees when asked to choose: the acceptable steps as a
/// factored [`StepSet`], the same steps as a sorted list on demand, and
/// a bounded lookahead into successor configurations.
///
/// The provided [`Random`], [`Lexicographic`], [`MaxParallel`] and
/// [`MinSerial`] policies choose on the factored set and never build
/// the list; [`SafeMaxParallel`], and any policy that calls
/// [`candidates`](PolicyContext::candidates), materializes it once.
pub struct PolicyContext<'a> {
    steps: &'a StepSet<'a>,
    candidates: OnceCell<Vec<Step>>,
    cursor: &'a Cursor,
    lookahead: &'a mut Option<Cursor>,
    solver: &'a SolverOptions,
}

impl<'a> PolicyContext<'a> {
    pub(crate) fn new(
        steps: &'a StepSet<'a>,
        cursor: &'a Cursor,
        lookahead: &'a mut Option<Cursor>,
        solver: &'a SolverOptions,
    ) -> Self {
        PolicyContext {
            steps,
            candidates: OnceCell::new(),
            cursor,
            lookahead,
            solver,
        }
    }

    /// The acceptable steps of the current configuration, factored.
    /// Never empty: the engine reports a deadlock itself instead of
    /// consulting the policy.
    #[must_use]
    pub fn steps(&self) -> &StepSet<'a> {
        self.steps
    }

    /// The acceptable steps of the current configuration, in the
    /// solver's deterministic sorted order — [`steps`](Self::steps)
    /// materialized on the first call. Never empty.
    #[must_use]
    pub fn candidates(&self) -> &[Step] {
        self.candidates.get_or_init(|| self.steps.to_vec())
    }

    /// The solver options of the running session (lookahead uses the
    /// same options as the main enumeration).
    #[must_use]
    pub fn solver(&self) -> &SolverOptions {
        self.solver
    }

    /// Read access to the driven specification (event names, universe).
    #[must_use]
    pub fn specification(&self) -> &Specification {
        self.cursor.specification()
    }

    /// One-step lookahead: would firing `candidate` leave a
    /// configuration that still admits an acceptable **non-empty**
    /// step? (The stuttering step is acceptable in every state, so
    /// counting it would make the lookahead vacuous — it is excluded
    /// regardless of the session's `include_empty` setting.)
    ///
    /// Runs on a lookahead cursor the session keeps beside its own:
    /// restore to the current state → advance → query. Thanks to the
    /// program's local-state tables the round trip does no formula
    /// lowering after the first visit of a state. Returns `false` for a
    /// step the current state rejects.
    pub fn successor_admits_step(&mut self, candidate: &Step) -> bool {
        if !self.cursor.accepts(candidate) {
            return false;
        }
        let lookahead = self.solver.clone().with_empty(false);
        let probe = self.lookahead.get_or_insert_with(|| self.cursor.clone());
        probe
            .restore(&self.cursor.state_key())
            .expect("own snapshot restores");
        probe.advance(candidate);
        // a set too large to count is not empty
        probe.steps(&lookahead).map_or(true, |s| !s.is_empty())
    }
}

impl fmt::Debug for PolicyContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyContext")
            .field("steps", &self.steps.len())
            .finish_non_exhaustive()
    }
}

/// Strategy for picking one step among the acceptable ones.
///
/// Implementations return the *index* of the chosen step in the sorted
/// order — [`StepSet::nth`] of [`PolicyContext::steps`], the same index
/// as in [`PolicyContext::candidates`]; returning `None` halts the run (the
/// provided policies never do — the engine only consults a policy when
/// at least one candidate exists).
pub trait Policy: fmt::Debug + Send {
    /// Short human-readable name, used in traces and diagnostics.
    fn name(&self) -> &str;

    /// Picks the index of one candidate step.
    fn choose(&mut self, ctx: &mut PolicyContext<'_>) -> Option<usize>;

    /// Rewinds any internal state (e.g. a PRNG) to its initial value;
    /// called by [`Engine::reset`](crate::Engine::reset).
    fn reset(&mut self) {}

    /// Replaces the policy's seed, for a policy that has one (the
    /// provided [`Random`] does; the others ignore it); called by
    /// [`Engine::reseed`](crate::Engine::reseed) before it resets.
    fn reseed(&mut self, _seed: u64) {}
}

/// Uniformly random among the acceptable steps, deterministic for a
/// given seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Random {
    seed: u64,
    rng: SplitMix64,
}

impl Random {
    /// A random policy with the given PRNG seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Random {
            seed,
            rng: SplitMix64::new(seed),
        }
    }
}

impl Policy for Random {
    fn name(&self) -> &str {
        "random"
    }
    fn choose(&mut self, ctx: &mut PolicyContext<'_>) -> Option<usize> {
        Some(self.rng.next_below(ctx.steps().len()))
    }
    fn reset(&mut self) {
        self.rng = SplitMix64::new(self.seed);
    }
    fn reseed(&mut self, seed: u64) {
        *self = Random::new(seed);
    }
}

/// The acceptable step with the most events (ASAP / maximal
/// parallelism; among equally large steps, the last in step order).
///
/// Chosen per component: the largest steps of the product are those
/// made of every component's largest local steps, and the last of them
/// is made of each component's last.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxParallel;

impl Policy for MaxParallel {
    fn name(&self) -> &str {
        "max-parallel"
    }
    fn choose(&mut self, ctx: &mut PolicyContext<'_>) -> Option<usize> {
        let steps = ctx.steps();
        let picks = steps.components().map(|list| {
            let largest = list.iter().enumerate().max_by_key(|(_, s)| s.len());
            largest
                .expect("a component of a non-empty set has a step")
                .0
        });
        steps.rank(&steps.compose(picks))
    }
}

/// The acceptable non-empty step with the fewest events (interleaving
/// semantics; among equally small steps, the first in step order).
///
/// Chosen per component. When some component has no empty local step,
/// every step moves it, and the smallest steps are made of each
/// component's smallest local steps, the first of them of each
/// component's first. Otherwise the smallest non-empty steps move one
/// component alone, by one of its smallest non-empty local steps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinSerial;

impl Policy for MinSerial {
    fn name(&self) -> &str {
        "min-serial"
    }
    fn choose(&mut self, ctx: &mut PolicyContext<'_>) -> Option<usize> {
        let steps = ctx.steps();
        // local lists are sorted, so an empty local step comes first
        let step = if steps.components().any(|list| !list[0].is_empty()) {
            steps.compose(steps.components().map(|list| {
                let smallest = list.iter().enumerate().min_by_key(|(_, s)| s.len());
                smallest
                    .expect("a component of a non-empty set has a step")
                    .0
            }))
        } else {
            // skip the stuttering step (a session with `include_empty`
            // may offer it): this policy picks the smallest step that
            // makes progress, falling back to {} only when it is the
            // sole option
            let moving = steps
                .components()
                .filter_map(|list| list[1..].iter().min_by_key(|s| s.len()));
            match moving.min_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b))) {
                Some(step) => step.clone(),
                None => return Some(0),
            }
        };
        steps.rank(&step)
    }
}

/// The first acceptable step in the solver's deterministic order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lexicographic;

impl Policy for Lexicographic {
    fn name(&self) -> &str {
        "lexicographic"
    }
    fn choose(&mut self, _ctx: &mut PolicyContext<'_>) -> Option<usize> {
        Some(0)
    }
}

/// Like [`MaxParallel`], but with one-step deadlock avoidance: prefers
/// the largest step whose successor configuration still admits a step.
/// Falls back to plain max-parallel when every choice wedges.
///
/// The seed implementation cloned the entire specification per
/// candidate per step; this one uses the compiled
/// `state_key()`/`restore()` lookahead of
/// [`PolicyContext::successor_admits_step`] — same chosen schedule,
/// no cloning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SafeMaxParallel;

impl Policy for SafeMaxParallel {
    fn name(&self) -> &str {
        "safe-max-parallel"
    }
    fn choose(&mut self, ctx: &mut PolicyContext<'_>) -> Option<usize> {
        let mut by_size: Vec<usize> = (0..ctx.candidates().len()).collect();
        // stable sort: candidates of equal size keep the solver's order,
        // matching the seed's tie-breaking exactly
        by_size.sort_by_key(|&i| std::cmp::Reverse(ctx.candidates()[i].len()));
        for &i in &by_size {
            let candidate = ctx.candidates()[i].clone();
            if ctx.successor_admits_step(&candidate) {
                return Some(i);
            }
        }
        by_size.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use moccml_ccsl::{Alternation, SubClock};
    use moccml_kernel::Universe;

    fn subclock_spec() -> Specification {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("sub", u);
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        spec
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(MaxParallel.name(), "max-parallel");
        assert_eq!(MinSerial.name(), "min-serial");
        assert_eq!(Lexicographic.name(), "lexicographic");
        assert_eq!(SafeMaxParallel.name(), "safe-max-parallel");
        assert_eq!(Random::new(9).name(), "random");
    }

    #[test]
    fn max_parallel_picks_biggest_min_serial_smallest() {
        let mut max = Engine::builder(subclock_spec()).policy(MaxParallel).build();
        assert_eq!(max.step().expect("step").len(), 2); // {a,b}
        let mut min = Engine::builder(subclock_spec()).policy(MinSerial).build();
        assert_eq!(min.step().expect("step").len(), 1); // {b}
    }

    #[test]
    fn min_serial_skips_the_empty_step() {
        use crate::solver::SolverOptions;
        let mut engine = Engine::builder(subclock_spec())
            .policy(MinSerial)
            .solver(SolverOptions::default().with_empty(true))
            .build();
        // candidates are [{}, {b}, {a,b}]: the documented choice is the
        // smallest *non-empty* step
        assert_eq!(engine.step().expect("step").len(), 1);
    }

    #[test]
    fn random_resets_with_its_seed() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        let mut engine = Engine::builder(spec).policy(Random::new(3)).build();
        let first = engine.run(8).schedule;
        engine.reset();
        assert_eq!(engine.run(8).schedule, first);
    }

    #[test]
    fn reseeded_random_runs_as_a_fresh_one() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("free", u);
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        let mut engine = Engine::builder(spec.clone()).policy(Random::new(1)).build();
        let _ = engine.run(5);
        for seed in [2, 3] {
            engine.reseed(seed);
            let fresh = Engine::builder(spec.clone())
                .policy(Random::new(seed))
                .build()
                .run(16);
            assert_eq!(engine.run(16).schedule, fresh.schedule);
            assert_eq!(engine.steps_taken(), 16);
        }
    }

    #[test]
    fn custom_policies_plug_in() {
        /// Picks the last candidate — not expressible with the old enum.
        #[derive(Debug)]
        struct Last;
        impl Policy for Last {
            fn name(&self) -> &str {
                "last"
            }
            fn choose(&mut self, ctx: &mut PolicyContext<'_>) -> Option<usize> {
                Some(ctx.candidates().len() - 1)
            }
        }
        let mut engine = Engine::builder(subclock_spec()).policy(Last).build();
        // sorted candidates of a⊆b are [{b}, {a,b}]: last is {a,b}
        assert_eq!(engine.step().expect("step").len(), 2);
    }
}
