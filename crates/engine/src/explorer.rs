//! Exhaustive exploration of the scheduling state-space — breadth
//! first, optionally across threads, always deterministic.
//!
//! The paper's PAM study obtains "by exploration quantitative results on
//! the scheduling state-space". This module implements that analysis: a
//! breadth-first construction of the graph whose nodes are global
//! constraint states and whose edges are acceptable non-empty steps.
//!
//! # Architecture: id tuples, level-synchronous windows, one replay
//!
//! Every constraint's local state already has a program-wide `u32` id
//! in the [`Program`]'s tables, so a global state is a fixed-width
//! tuple of those ids, one per constraint. The explorer works on the
//! tuples alone and composes no
//! [`StateKey`](moccml_kernel::StateKey) while it runs:
//!
//! * The **arena** keeps the tuples end to end in one `Vec<u32>`
//!   (stride: the constraint count), state `i` in slot `i`, and finds
//!   them through one open-addressing table of slots probed by the
//!   tuple's fingerprint. The table starts small and doubles; nothing
//!   is sized from [`max_states`](ExploreOptions::max_states).
//! * **Expanding** a state positions a [`Cursor`](crate::Cursor) on its
//!   ids and walks the acceptable steps in [`Step`] order without
//!   listing them. Each successor's tuple is the parent's with only the
//!   slots whose footprint the step meets rewritten, by table lookup.
//! * The **graph** keeps each edge as a `(step id, target)` pair of
//!   `u32`s. Steps are interned per exploration, in first-absorption
//!   order, as edges are pushed.
//!
//! States are numbered in BFS discovery order, so a level's frontier is
//! the contiguous range of states discovered while the level before it
//! was absorbed, and no queue holds it. Each level is walked in
//! windows of at most a fixed number of states, cut into chunks. Each
//! chunk is expanded into its own buffer of records — every `(step,
//! successor tuple, fingerprint)` of its states, in step order — and
//! then absorbed:
//!
//! * **Expand.** A window of one chunk, or any window when
//!   [`workers`](ExploreOptions::workers) is 1, is expanded by the
//!   calling thread alone, chunk by chunk, reading the tuples from the
//!   arena. At the first window of several chunks the calling thread
//!   spawns `workers − 1` helpers (as many as a window has chunks
//!   besides the caller's, at most), once for the whole exploration;
//!   between windows they park on a condition variable. For each such
//!   window it posts a job holding a copy of the window's tuples (the
//!   arena grows while the helpers read), an atomic chunk index and one
//!   result slot per chunk, and every thread claims chunks through the
//!   index.
//! * **Absorb.** The calling thread runs the **canonical replay** over
//!   the window's chunks in order, taking each as soon as it is
//!   stored; while the next one is still being expanded it expands an
//!   unclaimed chunk itself, so a window's absorb overlaps the
//!   expansion of its later chunks. The replay interns every successor
//!   into the arena: a fresh tuple takes the next slot, which is its
//!   canonical index. It applies the
//!   [`max_states`](ExploreOptions::max_states) bound (a fresh
//!   successor past it is looked up but never inserted), grows the
//!   [`StateGraph`], and calls every [`ExploreVisitor`] hook in that
//!   order.
//!
//! Only the replay decides anything, and it reads the records in
//! canonical order whichever thread wrote them. Each record is a pure
//! function of its state, so the resulting [`StateSpace`] and the
//! visitor call sequence are **byte-identical for every worker
//! count**, including under truncation and mid-run
//! [`VisitControl::Stop`]. Local-state ids depend on thread timing, but
//! they are only join keys; step ids follow the absorption order.
//!
//! Early stop (a visitor returning [`VisitControl::Stop`], a bound, or
//! a state whose step set cannot be indexed) is decided at a
//! deterministic checkpoint in the replay. The window's unclaimed
//! chunks are then left unexpanded and no later window is posted, so a
//! stop waits for at most one window's expansion (helpers finish the
//! chunks they have claimed); `moccml-verify` and `moccml serve`
//! cancellation ride on this. A panic on any thread ends the run: a
//! helper's panic poisons the job, so the calling thread stops waiting
//! for its chunk, and the calling thread's own panic dismisses the
//! parked helpers on its way out; either way the scope joins every
//! helper and re-raises the panic on the calling thread.
//!
//! At the end the arena's tuples move into the [`StateSpace`], which
//! builds its state keys from the per-constraint tables only when
//! [`StateSpace::states`] is first called. All of this uses only `std`:
//! one thread scope per exploration, a mutex and condition variable per
//! job, and atomic chunk indices.

use crate::cursor::Cursor;
use crate::program::Program;
use crate::solver::SolverOptions;
use moccml_kernel::{KernelError, Schedule, Specification, StateKey, Step};
use moccml_obs::{Counter, Gauge, Recorder};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Options bounding and configuring the exploration.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Stop after interning this many states (the graph is then marked
    /// [`truncated`](StateSpace::truncated)). Counters in constraints
    /// such as unbounded precedences make the space infinite; the bound
    /// keeps exploration total. Nothing is allocated in proportion to
    /// it, so `usize::MAX` is safe.
    pub max_states: usize,
    /// Ignore states deeper than this BFS depth (`usize::MAX` = no
    /// bound).
    pub max_depth: usize,
    /// Solver configuration used to enumerate each state's outgoing
    /// steps, so the pruned/naive ablation covers exploration too.
    /// `include_empty` is ignored: stuttering self-loops exist at every
    /// state and would only add noise.
    pub solver: SolverOptions,
    /// Number of threads expanding states, the calling thread
    /// included. The `workers − 1` helper threads (at most 15: a
    /// window holds at most 16 chunks) are spawned once per
    /// exploration, at the first window of a BFS level that holds more
    /// than one chunk, and expand such windows with the caller; `1`, or
    /// a space whose windows are each one chunk, spawns none. A helper
    /// that cannot be spawned is done without. Interning, the bounds
    /// and every visitor hook stay on the calling thread. Defaults to
    /// [`std::thread::available_parallelism`]. The resulting
    /// [`StateSpace`] is byte-identical for every value.
    pub workers: usize,
    /// Opt-in observability recorder (disabled by default). When
    /// enabled, the explorer opens an `explore` span, counts each
    /// expanding thread's expansions (`explore_expansions_w{N}`, `w0`
    /// being the calling thread), the cursor memo hit rate
    /// (`cursor_memo_*`) and the join memo's (`cursor_join_*`, a miss
    /// being a class tuple joined), sets `program_join_classes` to the
    /// program's memoized class tuples and `explore_helpers` to the
    /// helper threads it spawned at the end, and publishes its
    /// live readings as gauges that another thread may poll while the
    /// exploration runs:
    ///
    /// * `explore_states`, `explore_transitions` and `explore_depth`:
    ///   the canonical totals absorbed so far;
    /// * `explore_pending`: states accepted but not absorbed yet (0
    ///   once the run has ended);
    /// * `explore_peak_frontier`: the widest BFS level so far;
    /// * `explore_interner_keys`: the tuples in the arena, which are
    ///   exactly the canonical states;
    /// * `explore_interner_buckets`: the positions of the arena's
    ///   open-addressing table, so `explore_interner_keys /
    ///   explore_interner_buckets` is its load factor (at most 3/4: the
    ///   table doubles before it passes that);
    /// * `explore_elapsed_us`: wall time since the exploration began.
    ///
    /// The replay sets those gauges only at its checkpoints (see
    /// [`PROGRESS_INTERVAL`]), always before calling
    /// the visitor, and `explore_elapsed_us` stops at the terminal
    /// record, so a finished run's throughput excludes the final moves.
    /// Every handle is lock-free and registered on the cold path. The
    /// recorder is observationally inert: nothing it collects feeds
    /// back into the exploration, so the [`StateSpace`], every visitor
    /// callback and the truncation behaviour are byte-identical with
    /// recording on or off (pinned by the `obs_properties` suite).
    pub recorder: Recorder,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 100_000,
            max_depth: usize::MAX,
            solver: SolverOptions::default(),
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            recorder: Recorder::disabled(),
        }
    }
}

impl ExploreOptions {
    /// Bounds the number of states (builder style).
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Bounds the BFS depth (builder style).
    #[must_use]
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Sets the solver configuration (builder style).
    #[must_use]
    pub fn with_solver(mut self, solver: SolverOptions) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the number of expanding threads, the caller included
    /// (builder style). `1` spawns no helper; any value yields the same
    /// [`StateSpace`], byte for byte.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Attaches an observability recorder (builder style). Pass an
    /// enabled [`Recorder`] to collect spans and counters; the default
    /// disabled recorder makes every instrumentation point a no-op.
    #[must_use]
    pub fn with_recorder(mut self, recorder: &Recorder) -> Self {
        self.recorder = recorder.clone();
        self
    }
}

/// Flow control returned by [`ExploreVisitor::on_level_end`]: keep
/// exploring, or stop at this level boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitControl {
    /// Continue with the next BFS level.
    Continue,
    /// Stop the exploration at this level boundary. The returned
    /// [`StateSpace`] contains everything absorbed so far and is marked
    /// [`truncated`](StateSpace::truncated) iff unexplored frontier
    /// states remain.
    Stop,
}

/// Streaming hook into the explorer's canonical replay — the
/// on-the-fly half of `explore`.
///
/// Callbacks fire *inside the replay*, in the canonical absorption
/// order (source frontier order, then step rank), which is identical
/// for every [`ExploreOptions::workers`] count. A visitor therefore
/// observes the exact same call sequence — and can stop at the exact
/// same point — whether the expansion ran on one thread or eight. This
/// is what lets `moccml-verify` evaluate property monitors during BFS
/// and terminate deterministically once every monitor is decided
/// instead of materialising the full space. Monitors keep no copy of
/// the graph: [`on_level_end`](ExploreVisitor::on_level_end) lends
/// them the replay's own [`StateGraph`].
///
/// All methods have no-op defaults; `()` implements the trait as the
/// always-continue visitor.
pub trait ExploreVisitor {
    /// A transition `(source, step, target)` was just recorded while
    /// absorbing level `depth`. Target states of fresh keys are
    /// announced here with their newly interned index.
    fn on_transition(&mut self, source: usize, step: &Step, target: usize, depth: usize) {
        let _ = (source, step, target, depth);
    }

    /// The [`max_states`](ExploreOptions::max_states) bound just
    /// dropped a freshly discovered successor (and its transition)
    /// while absorbing level `depth`. From this point on the visitor
    /// sees an *incomplete* transition relation: "nothing reachable"
    /// conclusions drawn from the absorbed graph are no longer sound,
    /// while every positively observed path remains real.
    fn on_states_dropped(&mut self, depth: usize) {
        let _ = depth;
    }

    /// Level `depth` was fully absorbed; `graph` is everything absorbed
    /// so far — a prefix of the final [`StateSpace`]'s graph, with the
    /// outgoing edges of every state at depth ≤ `depth` complete.
    /// Returning [`VisitControl::Stop`] ends the exploration at this
    /// boundary — deterministically, because the replay's level
    /// sequence is worker-count-independent. No state of the next
    /// level has been expanded yet.
    fn on_level_end(&mut self, depth: usize, graph: &StateGraph) -> VisitControl {
        let _ = (depth, graph);
        VisitControl::Continue
    }

    /// Periodic mid-absorption checkpoint: called once every
    /// [`PROGRESS_INTERVAL`] absorbed transitions with the running
    /// totals (`states` interned, `transitions` absorbed, current BFS
    /// `depth`). Large levels can absorb hundreds of thousands of
    /// transitions between two boundaries; this hook is what lets a
    /// long-running exploration report progress — and be cancelled —
    /// *inside* a level instead of only at its end.
    ///
    /// Returning [`VisitControl::Stop`] aborts the exploration
    /// immediately; the returned [`StateSpace`] contains everything
    /// absorbed so far and is always marked
    /// [`truncated`](StateSpace::truncated) (a mid-level stop leaves
    /// the transition relation incomplete). Call points are a pure
    /// function of the absorbed-transition count, so — like every
    /// other callback — the hook sequence is identical for every
    /// [`ExploreOptions::workers`] count. This checkpoint is the
    /// cancellation epoch: it runs on the calling thread, and after a
    /// stop the current window's unclaimed chunks and every later
    /// window are never expanded. Helpers may still finish the chunks
    /// they have claimed, so a stop waits for at most one window's
    /// expansion.
    fn on_progress(&mut self, states: usize, transitions: usize, depth: usize) -> VisitControl {
        let _ = (states, transitions, depth);
        VisitControl::Continue
    }
}

/// Number of absorbed transitions between two
/// [`ExploreVisitor::on_progress`] checkpoints.
pub const PROGRESS_INTERVAL: usize = 1024;

/// The always-continue visitor: plain exploration.
impl ExploreVisitor for () {}

/// Mixes one 64-bit lane into a running fingerprint (splitmix64
/// finalizer — fast, dependency-free, and much cheaper than `SipHash`
/// for the short integer tuples states are made of).
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fingerprint of a state's id tuple, two ids per lane: the high half
/// of a 64-bit mix, where a probe starts and what it compares before
/// the tuple.
#[inline]
fn fingerprint(tuple: &[u32]) -> u32 {
    let mut h = mix64(0x9E37_79B9_7F4A_7C15 ^ tuple.len() as u64);
    for pair in tuple.chunks(2) {
        let lane = pair
            .iter()
            .rev()
            .fold(0u64, |lane, &id| (lane << 32) | u64::from(id));
        h = mix64(h ^ lane)
            .rotate_left(23)
            .wrapping_add(0xA24B_AED4_963E_E407);
    }
    (mix64(h) >> 32) as u32
}

/// A [`Hasher`] folding each written word through [`mix64`]: steps
/// over the first 64 events hash as one word, without `SipHash`. For
/// keys the program makes itself (steps, class tuples), never for
/// input.
#[derive(Default)]
pub(crate) struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = mix64(self.0 ^ word);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// The replay's step table: step → its index in [`StateGraph::steps`].
type StepIds = HashMap<Step, u32, BuildHasherDefault<MixHasher>>;

/// Positions the arena's table gets on its first tuple.
const FIRST_TABLE: usize = 16;

/// The canonical states and their interner: slot `i` holds state `i`'s
/// tuple.
///
/// Only the replay writes it, so nothing guards it: a fresh tuple is
/// appended as the next slot, which makes every slot a canonical
/// index. Only the calling thread reads it; helpers expand from a
/// [`Job`]'s copy of their window's tuples.
struct Arena {
    /// Ids per tuple: the constraint count.
    width: usize,
    /// `width` ids per slot, in slot order.
    tuples: Vec<u32>,
    /// Slots filled.
    len: u32,
    /// Per position: 0 when empty, else the slot + 1 in the low 32
    /// bits and the tuple's fingerprint in the high 32 bits. Probes
    /// start from the fingerprint and compare it before the tuple, and
    /// a doubling re-places entries without rehashing.
    table: Vec<u64>,
}

impl Arena {
    /// An empty arena of `width`-id tuples. Its table is created on
    /// first use and grows with it.
    fn new(width: usize) -> Self {
        Arena {
            width,
            tuples: Vec::new(),
            len: 0,
            table: Vec::new(),
        }
    }

    /// The tuple in `slot`.
    fn tuple(&self, slot: usize) -> &[u32] {
        &self.tuples[slot * self.width..(slot + 1) * self.width]
    }

    /// Slots filled: the canonical states so far.
    fn len(&self) -> usize {
        self.len as usize
    }

    /// The slot of `tuple`, whose fingerprint is `hash`, or else the
    /// table position [`insert`](Arena::insert) takes it at. The table
    /// first doubles if one more tuple would load it past 3/4, so the
    /// position stays valid until the next call.
    fn find(&mut self, hash: u32, tuple: &[u32]) -> Result<u32, usize> {
        debug_assert_eq!(tuple.len(), self.width);
        if (self.len() + 1) * 4 > self.table.len() * 3 {
            self.grow();
        }
        let mask = self.table.len() - 1;
        let mut at = hash as usize & mask;
        while self.table[at] != 0 {
            let entry = self.table[at];
            if (entry >> 32) as u32 == hash {
                let slot = entry as u32 - 1;
                if self.tuple(slot as usize) == tuple {
                    return Ok(slot);
                }
            }
            at = (at + 1) & mask;
        }
        Err(at)
    }

    /// Appends `tuple` as the next slot, at the position
    /// [`find`](Arena::find) returned for it, and returns the slot.
    fn insert(&mut self, at: usize, hash: u32, tuple: &[u32]) -> u32 {
        let slot = self.len;
        assert!(slot < u32::MAX - 1, "the state arena exceeds u32 ids");
        self.tuples.extend_from_slice(tuple);
        self.len += 1;
        self.table[at] = (u64::from(hash) << 32) | u64::from(slot + 1);
        slot
    }

    /// Doubles the table (or creates it), re-placing every entry from
    /// its stored fingerprint.
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.table);
        self.table = vec![0; (old.len() * 2).max(FIRST_TABLE)];
        let mask = self.table.len() - 1;
        for entry in old.into_iter().filter(|&e| e != 0) {
            let mut at = (entry >> 32) as usize & mask;
            while self.table[at] != 0 {
                at = (at + 1) & mask;
            }
            self.table[at] = entry;
        }
    }
}

/// The explored scheduling graph: the one copy every consumer reads.
///
/// States are the indices `0..state_count()` in BFS discovery order,
/// with the initial state at 0. The explorer's canonical replay grows
/// the graph in place, so a visitor's
/// [`on_level_end`](ExploreVisitor::on_level_end) sees a prefix of the
/// final [`StateSpace::graph`]:
///
/// * [`transitions`](StateGraph::transitions) are grouped by ascending
///   source, each source's edges in step order, so
///   [`outgoing`](StateGraph::outgoing) is a contiguous range and
///   [`transition`](StateGraph::transition) reads any one edge;
/// * every state but the root keeps its discovering edge — its first
///   incoming transition, which in BFS order lies on a shortest path —
///   and [`schedule_to`](StateGraph::schedule_to) walks those edges;
/// * [`deadlocks`](StateGraph::deadlocks) is strictly ascending.
///
/// Each edge is stored as two `u32`s: the index of its step in the
/// [`steps`](StateGraph::steps) table and its target. The table lists
/// each distinct step once, in the order the replay first absorbed an
/// edge with it, so it holds exactly the steps on edges and does not
/// depend on the worker count. An edge's source is read off the
/// per-state offsets of the out-edge ranges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateGraph {
    /// The distinct steps on edges, in first-absorption order.
    steps: Vec<Step>,
    /// Per transition, in absorption order: its step's index into
    /// `steps`, and its target.
    edges: Vec<(u32, u32)>,
    /// First out-edge of each expanded state, pushed as the replay
    /// fetches it.
    offsets: Vec<u32>,
    /// Per state, the index of its discovering transition (unused at
    /// the root).
    discovered_by: Vec<u32>,
    deadlocks: Vec<usize>,
}

impl StateGraph {
    /// The root-only graph the replay starts from.
    fn root() -> Self {
        StateGraph {
            discovered_by: vec![u32::MAX],
            ..StateGraph::default()
        }
    }

    /// The next transition's index, as stored in the `u32` tables.
    fn next_edge(&self) -> u32 {
        u32::try_from(self.edges.len()).expect("transition count exceeds u32 edge ids")
    }

    /// Number of states discovered so far.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.discovered_by.len()
    }

    /// Number of transitions absorbed so far.
    #[must_use]
    pub fn transition_count(&self) -> usize {
        self.edges.len()
    }

    /// The distinct steps on the transitions, each once, in the order
    /// the replay first absorbed them.
    #[must_use]
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The index into [`steps`](StateGraph::steps) of transition
    /// `edge`'s step — one lookup per distinct step lets a caller
    /// evaluate a step predicate once per step, not once per edge.
    ///
    /// # Panics
    ///
    /// Panics if `edge >= transition_count()`.
    #[must_use]
    pub fn step_of(&self, edge: usize) -> usize {
        self.edges[edge].0 as usize
    }

    /// All `(source, step, target)` transitions, in absorption order.
    #[must_use]
    pub fn transitions(&self) -> Transitions<'_> {
        Transitions {
            graph: self,
            source: 0,
            edges: 0..self.edges.len(),
        }
    }

    /// Transition `edge` as `(source, step, target)`: item `edge` of
    /// [`transitions`](StateGraph::transitions), found by a binary
    /// search over the out-edge offsets.
    ///
    /// # Panics
    ///
    /// Panics if `edge >= transition_count()`.
    #[must_use]
    pub fn transition(&self, edge: usize) -> (usize, &Step, usize) {
        let (step, target) = self.edges[edge];
        let source = self.offsets.partition_point(|&o| o as usize <= edge) - 1;
        (source, &self.steps[step as usize], target as usize)
    }

    /// Outgoing transitions of `state`, in step order — empty for a
    /// state not expanded yet.
    #[must_use]
    pub fn outgoing(&self, state: usize) -> Transitions<'_> {
        let end = self.edges.len();
        let at = |s: usize| self.offsets.get(s).map_or(end, |&o| o as usize);
        Transitions {
            graph: self,
            source: state,
            edges: at(state)..at(state + 1),
        }
    }

    /// Deadlock states (no outgoing non-empty step), ascending.
    #[must_use]
    pub fn deadlocks(&self) -> &[usize] {
        &self.deadlocks
    }

    /// Whether `state` is a known deadlock (O(log deadlocks)).
    #[must_use]
    pub fn is_deadlock(&self, state: usize) -> bool {
        self.deadlocks.binary_search(&state).is_ok()
    }

    /// A shortest schedule from the initial state to `state`, read off
    /// the discovering edges.
    #[must_use]
    pub fn schedule_to(&self, state: usize) -> Schedule {
        let mut steps = Vec::new();
        let mut s = state;
        while s != 0 {
            let (source, step, _) = self.transition(self.discovered_by[s] as usize);
            steps.push(step.clone());
            s = source;
        }
        steps.into_iter().rev().collect()
    }
}

/// An iterator over a contiguous range of a [`StateGraph`]'s
/// transitions, as `(source, step, target)`: all of them from
/// [`StateGraph::transitions`], one state's from
/// [`StateGraph::outgoing`].
#[derive(Debug, Clone)]
pub struct Transitions<'a> {
    graph: &'a StateGraph,
    /// The source of the next edge, or a state before it.
    source: usize,
    edges: std::ops::Range<usize>,
}

impl Transitions<'_> {
    /// Whether no transition is left.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

impl<'a> Iterator for Transitions<'a> {
    type Item = (usize, &'a Step, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let edge = self.edges.next()?;
        let offsets = &self.graph.offsets;
        // skip the sources whose out-edges end at or before `edge`
        while offsets
            .get(self.source + 1)
            .is_some_and(|&o| o as usize <= edge)
        {
            self.source += 1;
        }
        let (step, target) = self.graph.edges[edge];
        Some((
            self.source,
            &self.graph.steps[step as usize],
            target as usize,
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.edges.size_hint()
    }
}

impl ExactSizeIterator for Transitions<'_> {}

/// The reachable scheduling state-space of a specification: its states
/// plus their [`StateGraph`].
///
/// The space keeps each state as its canonical tuple of local-state
/// ids, with every constraint's local state keys beside them, and
/// builds the [`StateKey`]s only when [`states`](StateSpace::states)
/// is first called. Ids depend on thread timing, so none is ever
/// exposed: equality compares the state keys, the graph, the
/// truncation flag and the error — which is exactly the explorer's
/// determinism contract: `explore` with any
/// [`workers`](ExploreOptions::workers) count yields `==` spaces.
#[derive(Clone)]
pub struct StateSpace {
    /// Per state in canonical order, one local-state id per constraint.
    tuples: Vec<u32>,
    /// Per constraint, its local state keys by id.
    locals: Vec<Vec<StateKey>>,
    /// The state keys, built on first request.
    states: OnceLock<Vec<StateKey>>,
    graph: StateGraph,
    truncated: bool,
    error: Option<KernelError>,
}

impl StateSpace {
    /// Number of distinct reachable states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.graph.state_count()
    }

    /// Number of transitions (edges labelled by steps).
    #[must_use]
    pub fn transition_count(&self) -> usize {
        self.graph.transition_count()
    }

    /// Index of the initial state (always 0: indices follow BFS
    /// discovery order).
    #[must_use]
    pub fn initial(&self) -> usize {
        0
    }

    /// The state keys, indexable by state index — composed from the
    /// constraints' local states on the first call, then kept.
    #[must_use]
    pub fn states(&self) -> &[StateKey] {
        self.states.get_or_init(|| {
            let width = self.locals.len();
            (0..self.state_count())
                .map(|s| {
                    let ids = &self.tuples[s * width..(s + 1) * width];
                    let locals = ids.iter().zip(&self.locals);
                    Specification::compose_key(locals.map(|(&id, keys)| &keys[id as usize]))
                })
                .collect()
        })
    }

    /// The explored graph.
    #[must_use]
    pub fn graph(&self) -> &StateGraph {
        &self.graph
    }

    /// All `(source, step, target)` transitions.
    #[must_use]
    pub fn transitions(&self) -> Transitions<'_> {
        self.graph.transitions()
    }

    /// Indices of deadlock states (no outgoing non-empty step),
    /// ascending.
    #[must_use]
    pub fn deadlocks(&self) -> &[usize] {
        self.graph.deadlocks()
    }

    /// Whether the exploration ended before exhausting the space: a
    /// bound, a visitor stop, or an [`error`](StateSpace::error).
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Why the exploration could not go on, if it could not: a reached
    /// state admits more steps than a `usize` counts
    /// ([`KernelError::TooManySteps`]). The space then holds what was
    /// absorbed before that state's expansion and is
    /// [`truncated`](StateSpace::truncated).
    #[must_use]
    pub fn error(&self) -> Option<&KernelError> {
        self.error.as_ref()
    }

    /// Outgoing transitions of state `state`, in absorption order.
    #[must_use]
    pub fn outgoing(&self, state: usize) -> Transitions<'_> {
        self.graph.outgoing(state)
    }

    /// Counts the schedules (paths from the initial state) of exactly
    /// `len` steps; `None` when the count exceeds `u128::MAX`.
    ///
    /// This is the "number of acceptable schedules" metric of Sec. II-C
    /// restricted to non-stuttering steps; without constraints it would
    /// be `(2^n − 1)^len`.
    #[must_use]
    pub fn count_schedules(&self, len: usize) -> Option<u128> {
        self.count_schedules_upto(len)[len]
    }

    /// The [`count_schedules`](StateSpace::count_schedules) of every
    /// length from 0 to `max_len`, indexed by length, from one sweep of
    /// `max_len` rounds over the edges.
    #[must_use]
    pub fn count_schedules_upto(&self, max_len: usize) -> Vec<Option<u128>> {
        let graph = &self.graph;
        let end = graph.edges.len();
        let out = |s: usize| graph.offsets.get(s).map_or(end, |&o| o as usize);
        // overflow is tracked per state, not returned early: paths into
        // a deadlock state drop out of every longer count
        let mut counts = vec![Some(0u128); self.state_count()];
        counts[self.initial()] = Some(1);
        let mut next = counts.clone();
        let total =
            |counts: &[Option<u128>]| counts.iter().try_fold(0u128, |acc, &c| acc.checked_add(c?));
        let mut totals = vec![total(&counts)];
        for _ in 0..max_len {
            next.fill(Some(0));
            for (s, &count) in counts.iter().enumerate().take(graph.offsets.len()) {
                if count == Some(0) {
                    continue;
                }
                for &(_, target) in &graph.edges[out(s)..out(s + 1)] {
                    let t = target as usize;
                    next[t] = next[t].zip(count).and_then(|(n, c)| n.checked_add(c));
                }
            }
            std::mem::swap(&mut counts, &mut next);
            totals.push(total(&counts));
        }
        totals
    }

    /// Aggregate metrics — the rows of the PAM experiment table.
    #[must_use]
    pub fn stats(&self) -> StateSpaceStats {
        let max_step_parallelism = self.graph.steps().iter().map(Step::len).max().unwrap_or(0);
        let mean_branching = if self.state_count() == 0 {
            0.0
        } else {
            self.transition_count() as f64 / self.state_count() as f64
        };
        StateSpaceStats {
            states: self.state_count(),
            transitions: self.transition_count(),
            deadlocks: self.deadlocks().len(),
            max_step_parallelism,
            mean_branching,
            truncated: self.truncated,
        }
    }
}

impl PartialEq for StateSpace {
    fn eq(&self, other: &Self) -> bool {
        self.truncated == other.truncated
            && self.error == other.error
            && self.graph == other.graph
            && self.states() == other.states()
    }
}

impl Eq for StateSpace {}

impl fmt::Debug for StateSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateSpace")
            .field("states", &self.states())
            .field("graph", &self.graph)
            .field("truncated", &self.truncated)
            .field("error", &self.error)
            .finish()
    }
}

/// Aggregate state-space metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSpaceStats {
    /// Reachable states.
    pub states: usize,
    /// Transitions.
    pub transitions: usize,
    /// Deadlock states.
    pub deadlocks: usize,
    /// Largest step cardinality on any transition — the attainable
    /// parallelism of the configuration.
    pub max_step_parallelism: usize,
    /// Mean outgoing transitions per state.
    pub mean_branching: f64,
    /// Whether bounds truncated the exploration.
    pub truncated: bool,
}

impl fmt::Display for StateSpaceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "states={} transitions={} deadlocks={} max_parallelism={} mean_branching={:.2}{}",
            self.states,
            self.transitions,
            self.deadlocks,
            self.max_step_parallelism,
            self.mean_branching,
            if self.truncated { " (truncated)" } else { "" }
        )
    }
}

/// Explores the reachable scheduling state-space of `program` from its
/// template (compile-time) state.
///
/// Convenience free function over [`Program::explore`] /
/// [`Cursor::explore`](crate::Cursor::explore) for one-shot analyses:
///
/// ```
/// use moccml_ccsl::Alternation;
/// use moccml_engine::{explore, ExploreOptions, Program};
/// use moccml_kernel::{Specification, Universe};
/// let mut u = Universe::new();
/// let (a, b) = (u.event("a"), u.event("b"));
/// let mut spec = Specification::new("alt", u);
/// spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
/// let space = explore(&Program::new(spec), &ExploreOptions::default());
/// // the alternation automaton has exactly two states
/// assert_eq!(space.state_count(), 2);
/// assert_eq!(space.transition_count(), 2);
/// assert!(space.deadlocks().is_empty());
/// ```
#[must_use]
pub fn explore(program: &Program, options: &ExploreOptions) -> StateSpace {
    program.explore(options)
}

/// States per chunk: the unit an expanding thread claims.
const CHUNK: usize = 64;

/// States per window: a level is expanded and absorbed this many
/// states at a time, so the records waiting for the replay are bounded
/// by the window, not by the level, and a stop waits for at most one
/// window's expansion.
const WINDOW: usize = 16 * CHUNK;

/// The records of a run of consecutive states: each state's acceptable
/// steps in [`Step`] order, with their successors. A pure function of
/// the states, which is what makes the replay deterministic.
struct Chunk {
    /// The first state.
    first: usize,
    /// Per expanded state, the end of its records; a state without
    /// records is a deadlock.
    ends: Vec<usize>,
    /// Why the state after the last expanded one could not be
    /// expanded; the chunk ends there.
    error: Option<KernelError>,
    /// Per record, its step.
    steps: Vec<Step>,
    /// Per record, its successor's [`fingerprint`].
    hashes: Vec<u32>,
    /// Per record, its successor's tuple.
    successors: Vec<u32>,
}

/// One expanding thread's cursor and counters. Thread `me` counts its
/// expansions in `explore_expansions_w{me}` (`w0` is the calling
/// thread) and adds its cursor's memo tallies and its join memo tallies
/// to the shared `cursor_memo_*` and `cursor_join_*` counters when
/// dropped. Every handle is a no-op when the recorder is disabled.
struct Expander<'a> {
    cursor: Cursor,
    /// Ids per tuple: the constraint count.
    width: usize,
    /// Scratch for the successor tuples.
    successor: Vec<u32>,
    solver: &'a SolverOptions,
    expansions: Counter,
    memo_hits: Counter,
    memo_misses: Counter,
    join_hits: Counter,
    join_misses: Counter,
}

impl<'a> Expander<'a> {
    fn new(
        program: &Program,
        width: usize,
        solver: &'a SolverOptions,
        recorder: &Recorder,
        me: usize,
    ) -> Self {
        Expander {
            cursor: program.cursor(),
            width,
            successor: Vec::new(),
            solver,
            expansions: recorder.counter(&format!("explore_expansions_w{me}")),
            memo_hits: recorder.counter("cursor_memo_hits"),
            memo_misses: recorder.counter("cursor_memo_misses"),
            join_hits: recorder.counter("cursor_join_hits"),
            join_misses: recorder.counter("cursor_join_misses"),
        }
    }

    /// Expands `states`, whose tuples `tuples` holds end to end,
    /// stopping at the first that cannot be.
    fn expand(&mut self, states: Range<usize>, tuples: &[u32]) -> Chunk {
        debug_assert_eq!(tuples.len(), states.len() * self.width);
        let mut chunk = Chunk {
            first: states.start,
            ends: Vec::with_capacity(states.len()),
            error: None,
            steps: Vec::new(),
            hashes: Vec::new(),
            successors: Vec::new(),
        };
        for i in 0..states.len() {
            self.expansions.incr();
            self.cursor
                .position(&tuples[i * self.width..(i + 1) * self.width]);
            let walked = self.cursor.for_each_successor(
                self.solver,
                &mut self.successor,
                |step, successor| {
                    chunk.steps.push(step.clone());
                    chunk.hashes.push(fingerprint(successor));
                    chunk.successors.extend_from_slice(successor);
                },
            );
            if let Err(e) = walked {
                chunk.error = Some(e);
                break;
            }
            chunk.ends.push(chunk.steps.len());
        }
        chunk
    }
}

impl Drop for Expander<'_> {
    fn drop(&mut self) {
        self.memo_hits.add(self.cursor.memo_hits());
        self.memo_misses.add(self.cursor.memo_misses());
        self.join_hits.add(self.cursor.join_hits());
        self.join_misses.add(self.cursor.join_misses());
    }
}

/// Locks `mutex`, whether or not a panicking thread poisoned it: every
/// critical section here only moves values in and out, so the data
/// stays consistent, and the panic itself ends the run.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A window of several chunks, shared by the calling thread and the
/// helpers: any thread claims and expands its chunks, and the calling
/// thread absorbs them in order.
struct Job {
    /// The window's states.
    window: Range<usize>,
    /// The window's tuples, copied out of the arena, which the replay
    /// grows while the helpers read them.
    tuples: Vec<u32>,
    /// Claims made so far: the next unclaimed chunk while below the
    /// chunk count.
    claimed: AtomicUsize,
    /// The expanded chunks waiting for the replay.
    done: Mutex<Done>,
    /// Signalled, while the calling thread waits, when a helper stores
    /// a chunk or panics.
    stored: Condvar,
}

/// The shared half of a [`Job`].
struct Done {
    /// Per chunk, its records once expanded and until absorbed.
    chunks: Vec<Option<Chunk>>,
    /// Whether the calling thread waits on [`Job::stored`].
    waiting: bool,
    /// Whether a helper panicked while expanding a chunk of the job.
    poisoned: bool,
}

impl Job {
    fn new(window: Range<usize>, arena: &Arena) -> Self {
        let width = arena.width;
        Job {
            tuples: arena.tuples[window.start * width..window.end * width].to_vec(),
            done: Mutex::new(Done {
                chunks: (0..window.len().div_ceil(CHUNK)).map(|_| None).collect(),
                waiting: false,
                poisoned: false,
            }),
            window,
            claimed: AtomicUsize::new(0),
            stored: Condvar::new(),
        }
    }

    fn chunk_count(&self) -> usize {
        self.window.len().div_ceil(CHUNK)
    }

    /// Claims the next unclaimed chunk, if one is left. Claims are
    /// made in chunk order.
    fn claim(&self) -> Option<usize> {
        // relaxed: the index publishes nothing, the chunks reach the
        // replay through `done`
        let k = self.claimed.fetch_add(1, Ordering::Relaxed);
        (k < self.chunk_count()).then_some(k)
    }

    /// Leaves the unclaimed chunks unexpanded: the run has ended.
    fn abandon(&self) {
        self.claimed.store(self.chunk_count(), Ordering::Relaxed);
    }

    /// Expands chunk `k` on `expander`.
    fn expand(&self, k: usize, expander: &mut Expander<'_>) -> Chunk {
        let start = self.window.start + k * CHUNK;
        let states = start..(start + CHUNK).min(self.window.end);
        let from = k * CHUNK * expander.width;
        let tuples = &self.tuples[from..from + states.len() * expander.width];
        expander.expand(states, tuples)
    }

    /// A helper's share: claims and expands chunks until none is left.
    /// A panic poisons the job, so the calling thread stops waiting.
    fn help(&self, expander: &mut Expander<'_>) {
        let _poison = Poison(self);
        while let Some(k) = self.claim() {
            let chunk = self.expand(k, expander);
            let mut done = lock(&self.done);
            done.chunks[k] = Some(chunk);
            if done.waiting {
                self.stored.notify_one();
            }
        }
    }

    /// Chunk `k`'s records, for the calling thread, which has taken
    /// every chunk before it. While another thread still expands chunk
    /// `k`, it expands the next unclaimed chunk itself, and waits only
    /// when none is left. `None` when a helper panicked.
    fn take(&self, k: usize, expander: &mut Expander<'_>) -> Option<Chunk> {
        loop {
            let mut done = lock(&self.done);
            if let Some(chunk) = done.chunks[k].take() {
                return Some(chunk);
            }
            if done.poisoned {
                return None;
            }
            drop(done);
            // chunks are claimed in order and those before `k` are
            // taken, so a claim is `k` itself or a later one
            if let Some(j) = self.claim() {
                let chunk = self.expand(j, expander);
                if j == k {
                    return Some(chunk);
                }
                lock(&self.done).chunks[j] = Some(chunk);
                continue;
            }
            let mut done = lock(&self.done);
            done.waiting = true;
            while done.chunks[k].is_none() && !done.poisoned {
                done = self
                    .stored
                    .wait(done)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            done.waiting = false;
            return done.chunks[k].take();
        }
    }
}

/// Poisons its [`Job`] if dropped by a panicking helper.
struct Poison<'a>(&'a Job);

impl Drop for Poison<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(&self.0.done).poisoned = true;
            self.0.stored.notify_all();
        }
    }
}

/// What the calling thread tells the parked helpers.
#[derive(Default)]
struct Board {
    /// The window to work on.
    job: Option<Arc<Job>>,
    /// Jobs posted so far.
    posted: u64,
    /// Set when the exploration ends, normally or by a panic.
    stop: bool,
}

/// The [`Board`] and the condition the helpers park on between jobs.
#[derive(Default)]
struct Notice {
    board: Mutex<Board>,
    posted: Condvar,
}

impl Notice {
    /// Posts `job` and wakes the helpers.
    fn post(&self, job: &Arc<Job>) {
        let mut board = lock(&self.board);
        board.job = Some(Arc::clone(job));
        board.posted += 1;
        drop(board);
        self.posted.notify_all();
    }

    /// A helper's wait for the job after the `seen`-th, or `None` once
    /// the exploration has ended. A job posted before the end is still
    /// handed out, so a window's chunks are expanded even when the
    /// calling thread stops claiming them by panicking.
    fn next(&self, seen: &mut u64) -> Option<Arc<Job>> {
        let mut board = lock(&self.board);
        loop {
            if board.posted != *seen {
                *seen = board.posted;
                return board.job.clone();
            }
            if board.stop {
                return None;
            }
            board = self
                .posted
                .wait(board)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Ends the exploration for the helpers when dropped, also while the
/// calling thread unwinds, so the scope's join never waits on a parked
/// helper.
struct Dismiss<'a>(&'a Notice);

impl Drop for Dismiss<'_> {
    fn drop(&mut self) {
        lock(&self.0.board).stop = true;
        self.0.posted.notify_all();
    }
}

/// The calling thread's expander and the helpers it spawns, once per
/// exploration and only when a window holds more than one chunk.
struct Crew<'scope, 'env> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    notice: &'env Notice,
    program: &'env Program,
    solver: &'env SolverOptions,
    recorder: &'env Recorder,
    /// The calling thread's expander.
    caller: Expander<'env>,
    /// Expanding threads wanted, the caller included.
    workers: usize,
    /// Whether the helpers were spawned (or tried to be).
    hired: bool,
    /// Helpers running.
    helpers: usize,
}

impl Crew<'_, '_> {
    /// Whether a helper runs, spawning them at the first call: one per
    /// worker past the caller, but no more than a window has chunks to
    /// claim besides the caller's. A helper that cannot be spawned is
    /// done without: every count yields the same output.
    fn hire(&mut self) -> bool {
        if !self.hired {
            self.hired = true;
            for me in 1..self.workers.min(WINDOW / CHUNK) {
                let width = self.caller.width;
                let mut expander =
                    Expander::new(self.program, width, self.solver, self.recorder, me);
                let notice = self.notice;
                let spawned = std::thread::Builder::new().spawn_scoped(self.scope, move || {
                    let mut seen = 0;
                    while let Some(job) = notice.next(&mut seen) {
                        job.help(&mut expander);
                    }
                });
                if spawned.is_err() {
                    break;
                }
                self.helpers += 1;
            }
        }
        self.helpers > 0
    }
}

/// The explorer's live readings: gauges on the options' recorder
/// (see [`ExploreOptions::recorder`]), written only at replay
/// checkpoints.
struct Readings {
    /// Exploration start; `None` when the recorder is disabled, so the
    /// disabled path neither reads the clock nor touches a gauge.
    started: Option<Instant>,
    states: Gauge,
    transitions: Gauge,
    depth: Gauge,
    pending: Gauge,
    peak_frontier: Gauge,
    interner_keys: Gauge,
    interner_buckets: Gauge,
    elapsed_us: Gauge,
}

impl Readings {
    fn new(recorder: &Recorder) -> Readings {
        Readings {
            started: recorder.is_enabled().then(Instant::now),
            states: recorder.gauge("explore_states"),
            transitions: recorder.gauge("explore_transitions"),
            depth: recorder.gauge("explore_depth"),
            pending: recorder.gauge("explore_pending"),
            peak_frontier: recorder.gauge("explore_peak_frontier"),
            interner_keys: recorder.gauge("explore_interner_keys"),
            interner_buckets: recorder.gauge("explore_interner_buckets"),
            elapsed_us: recorder.gauge("explore_elapsed_us"),
        }
    }
}

/// The canonical BFS replay — the single definition of the explorer's
/// observable behaviour.
///
/// Absorbs the chunks of each level in canonical order: it interns
/// every successor into the arena, where a fresh tuple's slot is its
/// BFS discovery index, applies the `max_states` bound, and grows the
/// one [`StateGraph`] in place — step table, edges, out offsets,
/// discovering edges and deadlocks — calling every visitor hook in that
/// order. A chunk that carries an error ends the replay there,
/// truncated.
///
/// The live [`Readings`] are published at the start, at every
/// [`PROGRESS_INTERVAL`] checkpoint, at every level boundary and at
/// the terminal record; nothing is written per transition.
struct Replay<'a> {
    options: &'a ExploreOptions,
    visitor: &'a mut dyn ExploreVisitor,
    readings: Readings,
    arena: Arena,
    graph: StateGraph,
    step_ids: StepIds,
    depth: usize,
    peak_frontier: usize,
    truncated: bool,
    error: Option<KernelError>,
}

impl Replay<'_> {
    /// Walks the levels from the root, each in windows that `crew`
    /// expands, until the space, a bound or a stop ends it.
    fn run(&mut self, crew: &mut Crew<'_, '_>) {
        let mut level = 0..1;
        self.publish(self.pending());
        'levels: while !level.is_empty() {
            if self.depth >= self.options.max_depth {
                self.truncated = true;
                break;
            }
            self.peak_frontier = self.peak_frontier.max(level.len());
            for first in level.clone().step_by(WINDOW) {
                let window = first..(first + WINDOW).min(level.end);
                let go_on = if window.len() > CHUNK && crew.hire() {
                    self.share(window, crew)
                } else {
                    self.alone(window, &mut crew.caller)
                };
                if !go_on {
                    break 'levels;
                }
            }
            self.publish(self.pending());
            let control = self.visitor.on_level_end(self.depth, &self.graph);
            level = level.end..self.arena.len();
            self.depth += 1;
            if control == VisitControl::Stop {
                if !level.is_empty() {
                    self.truncated = true;
                }
                break;
            }
        }
        debug_assert!(self.graph.deadlocks.windows(2).all(|w| w[0] < w[1]));
        // the terminal record: the last write, so the elapsed clock
        // stops here and states/sec never divides by the final moves;
        // states left unabsorbed by a bound or a stop are not pending
        self.publish(0);
    }

    /// Expands and absorbs `window` chunk by chunk on the calling
    /// thread alone. Returns `false` once the run ends.
    fn alone(&mut self, window: Range<usize>, caller: &mut Expander<'_>) -> bool {
        let width = self.arena.width;
        for first in window.clone().step_by(CHUNK) {
            let states = first..(first + CHUNK).min(window.end);
            let tuples = &self.arena.tuples[first * width..states.end * width];
            let chunk = caller.expand(states, tuples);
            if !self.absorb(chunk) {
                return false;
            }
        }
        true
    }

    /// Posts `window` to the helpers and absorbs its chunks in order as
    /// they become ready, expanding unclaimed ones on the calling thread
    /// meanwhile. Returns `false` once the run ends, a helper's panic
    /// included (the scope then re-raises it).
    fn share(&mut self, window: Range<usize>, crew: &mut Crew<'_, '_>) -> bool {
        let job = Arc::new(Job::new(window, &self.arena));
        crew.notice.post(&job);
        for k in 0..job.chunk_count() {
            let absorbed = job
                .take(k, &mut crew.caller)
                .is_some_and(|chunk| self.absorb(chunk));
            if !absorbed {
                job.abandon();
                return false;
            }
        }
        true
    }

    /// Absorbs one chunk. Returns `false` once the run ends: at a
    /// visitor stop, or at a state that could not be expanded.
    fn absorb(&mut self, chunk: Chunk) -> bool {
        let width = self.arena.width;
        let mut record = 0;
        for (source, &end) in (chunk.first..).zip(&chunk.ends) {
            // states arrive in ascending index order, so the offsets
            // stay parallel to the state indices
            self.graph.offsets.push(self.graph.next_edge());
            if record == end {
                self.graph.deadlocks.push(source);
            }
            for r in record..end {
                let (hash, successor) = (
                    chunk.hashes[r],
                    &chunk.successors[r * width..(r + 1) * width],
                );
                let target = match self.arena.find(hash, successor) {
                    Ok(target) => target,
                    Err(_) if self.arena.len() >= self.options.max_states => {
                        self.truncated = true;
                        self.visitor.on_states_dropped(self.depth);
                        continue;
                    }
                    Err(at) => {
                        self.graph.discovered_by.push(self.graph.next_edge());
                        self.arena.insert(at, hash, successor)
                    }
                };
                let step = &chunk.steps[r];
                let step_id = match self.step_ids.get(step) {
                    Some(&id) => id,
                    None => {
                        let id = u32::try_from(self.graph.steps.len()).expect("steps fit u32 ids");
                        self.graph.steps.push(step.clone());
                        self.step_ids.insert(step.clone(), id);
                        id
                    }
                };
                let step = &self.graph.steps[step_id as usize];
                self.visitor
                    .on_transition(source, step, target as usize, self.depth);
                self.graph.edges.push((step_id, target));
                // mid-level checkpoint: call points depend only on the
                // absorbed-transition count, never on who expanded what
                let absorbed = self.graph.transition_count();
                if absorbed.is_multiple_of(PROGRESS_INTERVAL) {
                    self.publish(self.pending());
                    let states = self.arena.len();
                    if self.visitor.on_progress(states, absorbed, self.depth) == VisitControl::Stop
                    {
                        self.truncated = true;
                        return false;
                    }
                }
            }
            record = end;
        }
        match chunk.error {
            Some(e) => {
                self.truncated = true;
                self.error = Some(e);
                false
            }
            None => true,
        }
    }

    /// States accepted but not absorbed yet.
    fn pending(&self) -> usize {
        self.arena.len() - self.graph.offsets.len()
    }

    /// Publishes one checkpoint. The replay calls this before the
    /// visitor hook of the same checkpoint, so a hook that reads the
    /// gauges sees the canonical totals.
    fn publish(&self, pending: usize) {
        let readings = &self.readings;
        let Some(started) = readings.started else {
            return;
        };
        readings.states.set(self.arena.len() as u64);
        readings
            .transitions
            .set(self.graph.transition_count() as u64);
        readings.depth.set(self.depth as u64);
        readings.pending.set(pending as u64);
        readings.peak_frontier.set(self.peak_frontier as u64);
        readings.interner_keys.set(self.arena.len() as u64);
        readings.interner_buckets.set(self.arena.table.len() as u64);
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        readings.elapsed_us.set(elapsed_us);
    }
}

/// BFS over `program` from the state whose local-state ids are `root`,
/// on `options.workers` expanding threads — the caller plus up to
/// `workers − 1` helpers, spawned at the first window of several
/// chunks — reporting every absorption to `visitor`.
pub(crate) fn explore_program(
    program: &Program,
    root: &[u32],
    options: &ExploreOptions,
    visitor: &mut dyn ExploreVisitor,
) -> StateSpace {
    // the empty step is a self-loop at every state: never enumerate it
    let solver = options.solver.clone().with_empty(false);
    let workers = options.workers.max(1);
    let recorder = &options.recorder;
    let explore_span = recorder.span("explore");
    let mut arena = Arena::new(root.len());
    let hash = fingerprint(root);
    let at = arena.find(hash, root).expect_err("the arena starts empty");
    arena.insert(at, hash, root);
    let mut replay = Replay {
        options,
        visitor,
        readings: Readings::new(recorder),
        arena,
        graph: StateGraph::root(),
        step_ids: StepIds::default(),
        depth: 0,
        peak_frontier: 0,
        truncated: false,
        error: None,
    };
    let notice = Notice::default();
    let helpers = std::thread::scope(|scope| {
        let _dismiss = Dismiss(&notice);
        let mut crew = Crew {
            scope,
            notice: &notice,
            program,
            solver: &solver,
            recorder,
            caller: Expander::new(program, root.len(), &solver, recorder, 0),
            workers,
            hired: false,
            helpers: 0,
        };
        replay.run(&mut crew);
        crew.helpers
    });
    recorder.gauge("explore_workers").set(workers as u64);
    recorder.gauge("explore_helpers").set(helpers as u64);
    recorder
        .gauge("program_join_classes")
        .set(program.join_class_count() as u64);
    drop(explore_span);
    StateSpace {
        tuples: replay.arena.tuples,
        locals: program.local_keys(),
        states: OnceLock::new(),
        graph: replay.graph,
        truncated: replay.truncated,
        error: replay.error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moccml_ccsl::{Alternation, Exclusion, Precedence, SubClock};
    use moccml_kernel::{Specification, Universe};

    fn explore(spec: &Specification, options: &ExploreOptions) -> StateSpace {
        Program::compile(spec).explore(options)
    }

    #[test]
    fn alternation_space_is_two_cycle() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        let space = explore(&spec, &ExploreOptions::default());
        assert_eq!(space.state_count(), 2);
        assert_eq!(space.transition_count(), 2);
        assert!(!space.truncated());
        assert_eq!(space.stats().max_step_parallelism, 1);
        // exactly one schedule of each length
        assert_eq!(space.count_schedules(5), Some(1));
    }

    #[test]
    fn stateless_constraints_yield_single_state() {
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("excl", u);
        spec.add_constraint(Box::new(Exclusion::new("x", [a, b, c])));
        let space = explore(&spec, &ExploreOptions::default());
        assert_eq!(space.state_count(), 1);
        assert_eq!(space.transition_count(), 3); // {a},{b},{c} self-loops
        assert_eq!(space.count_schedules(2), Some(9));
    }

    #[test]
    fn schedule_counts_past_u128_are_none() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("coin", u);
        spec.add_constraint(Box::new(Exclusion::new("a#b", [a, b])));
        let space = explore(&spec, &ExploreOptions::default());
        assert_eq!(space.state_count(), 1);
        assert_eq!(space.count_schedules(127), Some(1 << 127));
        assert_eq!(space.count_schedules(128), None);
    }

    #[test]
    fn deadlocked_spec_reports_deadlock() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("dead", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<a", b, a)));
        let space = explore(&spec, &ExploreOptions::default());
        assert_eq!(space.state_count(), 1);
        assert_eq!(space.deadlocks(), &[0]);
        assert_eq!(space.count_schedules(1), Some(0));
    }

    #[test]
    fn unbounded_precedence_truncates_at_max_states() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("unbounded", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let space = explore(&spec, &ExploreOptions::default().with_max_states(10));
        assert!(space.truncated());
        assert_eq!(space.state_count(), 10);
    }

    #[test]
    fn bounded_precedence_space_is_finite() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("bounded", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b).with_bound(3)));
        let space = explore(&spec, &ExploreOptions::default());
        assert!(!space.truncated());
        assert_eq!(space.state_count(), 4); // δ ∈ {0,1,2,3}
    }

    #[test]
    fn depth_bound_truncates() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("unbounded", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let space = explore(&spec, &ExploreOptions::default().with_max_depth(3));
        assert!(space.truncated());
        assert!(space.state_count() <= 4);
    }

    #[test]
    fn outgoing_and_lookup() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        let space = explore(&spec, &ExploreOptions::default());
        assert_eq!(space.outgoing(space.initial()).len(), 1);
    }

    #[test]
    fn subclock_space_counts_match_formula() {
        // E2 cross-check: a ⊆ b over two events has 2 acceptable
        // non-empty steps at every instant ⇒ 2^k schedules of length k.
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("sub", u);
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        let space = explore(&spec, &ExploreOptions::default());
        assert_eq!(space.state_count(), 1);
        assert_eq!(space.count_schedules(3), Some(8));
    }

    #[test]
    fn naive_solver_explores_the_same_space() {
        // the B3 ablation now covers exploration: pruned and naive
        // enumeration must build identical graphs
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("mix", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<c", b, c).with_bound(2)));
        let pruned = explore(&spec, &ExploreOptions::default());
        let naive = explore(
            &spec,
            &ExploreOptions::default().with_solver(SolverOptions::naive()),
        );
        assert_eq!(pruned, naive);
    }

    #[test]
    fn include_empty_is_ignored_by_exploration() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        let space = explore(
            &spec,
            &ExploreOptions::default().with_solver(SolverOptions::default().with_empty(true)),
        );
        assert_eq!(space.transition_count(), 2, "no stuttering self-loops");
        assert!(space.deadlocks().is_empty());
    }

    #[test]
    fn worker_counts_build_equal_spaces() {
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("mix", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<c", b, c).with_bound(3)));
        let serial = explore(&spec, &ExploreOptions::default().with_workers(1));
        for workers in [2, 3, 8] {
            let parallel = explore(&spec, &ExploreOptions::default().with_workers(workers));
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn threaded_path_agrees_on_wide_frontiers() {
        // three independent bounded precedences: a 5×5×5 product space
        // (125 states) with BFS levels wide enough that multi-worker
        // runs genuinely pipeline expansions across threads
        let mut u = Universe::new();
        let pairs: Vec<_> = (0..3)
            .map(|i| (u.event(&format!("a{i}")), u.event(&format!("b{i}"))))
            .collect();
        let mut spec = Specification::new("grid", u);
        for (i, (a, b)) in pairs.into_iter().enumerate() {
            spec.add_constraint(Box::new(
                Precedence::strict(&format!("p{i}"), a, b).with_bound(4),
            ));
        }
        let serial = explore(&spec, &ExploreOptions::default().with_workers(1));
        assert_eq!(serial.state_count(), 125);
        for workers in [2, 4] {
            let parallel = explore(&spec, &ExploreOptions::default().with_workers(workers));
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn deep_narrow_chain_agrees_across_workers() {
        // a single unbounded precedence discovers exactly one fresh
        // state per level: the worst case for the async pipeline
        // (pure dispatch → expand → fetch ping-pong, no work to share)
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("chain", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let options = ExploreOptions::default().with_max_states(500);
        let serial = explore(&spec, &options.clone().with_workers(1));
        assert_eq!(serial.state_count(), 500);
        for workers in [2, 4] {
            let parallel = explore(&spec, &options.clone().with_workers(workers));
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn worker_counts_agree_under_truncation() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("unbounded", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let options = ExploreOptions::default().with_max_states(7);
        let serial = explore(&spec, &options.clone().with_workers(1));
        assert!(serial.truncated());
        for workers in [2, 5] {
            let parallel = explore(&spec, &options.clone().with_workers(workers));
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn recorder_collects_counters_without_perturbing_the_space() {
        let mut u = Universe::new();
        let pairs: Vec<_> = (0..3)
            .map(|i| (u.event(&format!("a{i}")), u.event(&format!("b{i}"))))
            .collect();
        let mut spec = Specification::new("grid", u);
        for (i, (a, b)) in pairs.into_iter().enumerate() {
            spec.add_constraint(Box::new(
                Precedence::strict(&format!("p{i}"), a, b).with_bound(4),
            ));
        }
        let plain = explore(&spec, &ExploreOptions::default().with_workers(4));
        let rec = moccml_obs::Recorder::new();
        let recorded = explore(
            &spec,
            &ExploreOptions::default()
                .with_workers(4)
                .with_recorder(&rec),
        );
        assert_eq!(plain, recorded, "recording is observationally inert");
        let snap = rec.snapshot();
        // every canonically accepted state is expanded exactly once
        assert_eq!(
            snap.counter_sum("explore_expansions_w"),
            recorded.state_count() as u64
        );
        assert_eq!(snap.gauge("explore_states"), Some(125));
        assert_eq!(snap.gauge("explore_workers"), Some(4));
        assert!(
            snap.counter_sum("cursor_memo_hits") + snap.counter_sum("cursor_memo_misses") > 0,
            "stateful constraints exercise the memo"
        );
        let spans = snap.spans;
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "explore");
        assert!(spans[0].dur_us > 0 || spans[0].start_us == 0);
    }

    #[test]
    fn serial_recorder_counts_inline_expansions() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        let rec = moccml_obs::Recorder::new();
        let space = explore(
            &spec,
            &ExploreOptions::default()
                .with_workers(1)
                .with_recorder(&rec),
        );
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter("explore_expansions_w0"),
            Some(space.state_count() as u64)
        );
        assert!(snap.counter("cursor_memo_hits").is_some());
    }

    #[test]
    fn elapsed_gauge_freezes_at_the_terminal_record() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("unbounded", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let rec = moccml_obs::Recorder::new();
        let options = ExploreOptions::default()
            .with_max_states(50)
            .with_workers(2)
            .with_recorder(&rec);
        let _ = explore(&spec, &options);
        let first = rec.snapshot();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let second = rec.snapshot();
        assert_eq!(
            first.gauge("explore_elapsed_us"),
            second.gauge("explore_elapsed_us"),
            "finished elapsed is frozen, not live"
        );
        assert_eq!(first.gauge("explore_states"), Some(50));
    }

    #[test]
    fn explore_starts_from_the_cursor_state() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        let program = Program::new(spec);
        let mut cursor = program.cursor();
        cursor
            .fire(&moccml_kernel::Step::from_events([a]))
            .expect("fires");
        let space = cursor.explore(&ExploreOptions::default());
        // same two-cycle, but rooted at the post-`a` state
        assert_eq!(space.state_count(), 2);
        assert_eq!(space.states()[space.initial()], cursor.state_key());
        // the next step from the root fires b
        let (_, step, _) = space.outgoing(space.initial()).next().expect("one edge");
        assert!(step.contains(b));
    }

    /// One recorded `on_transition` callback: source, step, target,
    /// depth.
    type SeenTransition = (usize, Step, usize, usize);

    /// Records every callback, and the graph's deadlocks at each level
    /// end; stops after absorbing `stop_after` levels.
    struct Recorder {
        transitions: Vec<SeenTransition>,
        deadlocks: Vec<(usize, Vec<usize>)>,
        levels: Vec<(usize, usize)>,
        stop_after: usize,
    }

    impl Recorder {
        fn new(stop_after: usize) -> Self {
            Recorder {
                transitions: Vec::new(),
                deadlocks: Vec::new(),
                levels: Vec::new(),
                stop_after,
            }
        }
    }

    impl ExploreVisitor for Recorder {
        fn on_transition(&mut self, source: usize, step: &Step, target: usize, depth: usize) {
            self.transitions.push((source, step.clone(), target, depth));
        }
        fn on_level_end(&mut self, depth: usize, graph: &StateGraph) -> VisitControl {
            self.levels.push((depth, graph.state_count()));
            self.deadlocks.push((depth, graph.deadlocks().to_vec()));
            if self.levels.len() >= self.stop_after {
                VisitControl::Stop
            } else {
                VisitControl::Continue
            }
        }
    }

    #[test]
    fn visitor_sees_the_whole_space_in_recorded_order() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        let program = Program::new(spec);
        let mut recorder = Recorder::new(usize::MAX);
        let space = program.explore_with(&ExploreOptions::default(), &mut recorder);
        let seen: Vec<(usize, Step, usize)> = recorder
            .transitions
            .iter()
            .map(|(s, st, t, _)| (*s, st.clone(), *t))
            .collect();
        let absorbed: Vec<(usize, Step, usize)> = space
            .transitions()
            .map(|(s, st, t)| (s, st.clone(), t))
            .collect();
        assert_eq!(seen, absorbed);
        assert!(recorder.deadlocks.iter().all(|(_, d)| d.is_empty()));
        // level boundaries: depths strictly increasing, counts monotone
        assert!(recorder.levels.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        assert_eq!(recorder.levels.last().unwrap().1, space.state_count());
    }

    #[test]
    fn visitor_stop_truncates_deterministically() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("unbounded", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let program = Program::new(spec);
        let mut first: Option<(StateSpace, Vec<SeenTransition>)> = None;
        for workers in [1, 2, 8] {
            let mut recorder = Recorder::new(3);
            let space = program.explore_with(
                &ExploreOptions::default().with_workers(workers),
                &mut recorder,
            );
            assert!(space.truncated(), "stopped with frontier remaining");
            assert_eq!(recorder.levels.len(), 3);
            match &first {
                None => first = Some((space, recorder.transitions)),
                Some((s0, t0)) => {
                    assert_eq!(s0, &space, "workers={workers}");
                    assert_eq!(t0, &recorder.transitions, "workers={workers}");
                }
            }
        }
    }

    /// Counts `on_progress` checkpoints; stops after `stop_after`.
    struct ProgressProbe {
        calls: Vec<(usize, usize, usize)>,
        stop_after: usize,
    }

    impl ExploreVisitor for ProgressProbe {
        fn on_progress(&mut self, states: usize, transitions: usize, depth: usize) -> VisitControl {
            self.calls.push((states, transitions, depth));
            if self.calls.len() >= self.stop_after {
                VisitControl::Stop
            } else {
                VisitControl::Continue
            }
        }
    }

    /// A spec whose level widths grow without bound: three unbounded
    /// precedences produce a 3-D grid with ever-wider BFS levels.
    fn wide_grid() -> std::sync::Arc<Program> {
        let mut u = Universe::new();
        let pairs: Vec<_> = (0..3)
            .map(|i| (u.event(&format!("a{i}")), u.event(&format!("b{i}"))))
            .collect();
        let mut spec = Specification::new("wide", u);
        for (i, (a, b)) in pairs.into_iter().enumerate() {
            spec.add_constraint(Box::new(Precedence::strict(&format!("p{i}"), a, b)));
        }
        Program::new(spec)
    }

    #[test]
    fn progress_fires_every_interval_and_stop_aborts_mid_level() {
        let program = wide_grid();
        let mut probe = ProgressProbe {
            calls: Vec::new(),
            stop_after: 2,
        };
        let options = ExploreOptions::default().with_max_states(50_000);
        let space = program.explore_with(&options, &mut probe);
        assert_eq!(probe.calls.len(), 2, "stopped at the second checkpoint");
        for (i, (states, transitions, _)) in probe.calls.iter().enumerate() {
            assert_eq!(*transitions, (i + 1) * PROGRESS_INTERVAL);
            assert!(*states > 0);
        }
        assert!(space.truncated(), "a mid-level stop truncates");
        assert_eq!(space.transition_count(), 2 * PROGRESS_INTERVAL);
    }

    #[test]
    fn progress_checkpoints_are_worker_count_independent() {
        let program = wide_grid();
        type Checkpoints = Vec<(usize, usize, usize)>;
        let options = ExploreOptions::default().with_max_states(3_000);
        let mut first: Option<(Checkpoints, StateSpace)> = None;
        for workers in [1, 2, 8] {
            let mut probe = ProgressProbe {
                calls: Vec::new(),
                stop_after: 3,
            };
            let space = program.explore_with(&options.clone().with_workers(workers), &mut probe);
            match &first {
                None => first = Some((probe.calls, space)),
                Some((calls, s0)) => {
                    assert_eq!(calls, &probe.calls, "workers={workers}");
                    assert_eq!(s0, &space, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn default_progress_hook_is_a_noop() {
        // the alternation space is tiny: no checkpoint ever fires, and
        // the default visitor keeps exploring to completion
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        let space = explore(&spec, &ExploreOptions::default());
        assert!(!space.truncated());
    }

    #[test]
    fn visitor_reports_deadlocks() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("dead", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<a", b, a)));
        let mut recorder = Recorder::new(usize::MAX);
        let _ = Program::new(spec).explore_with(&ExploreOptions::default(), &mut recorder);
        assert_eq!(recorder.deadlocks, vec![(0, vec![0])]);
    }

    #[test]
    fn stats_display_is_informative() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        let stats = explore(&spec, &ExploreOptions::default()).stats();
        let text = stats.to_string();
        assert!(text.contains("states=2"));
        assert!(text.contains("transitions=2"));
    }

    #[test]
    fn an_unindexable_state_ends_the_exploration_with_an_error() {
        // 41 independent subclock pairs admit 3^41 steps at the root,
        // more than a usize counts: no worker panics, and every worker
        // count returns the same errored, truncated root-only space
        let mut u = Universe::new();
        let pairs: Vec<_> = (0..41)
            .map(|i| (u.event(&format!("a{i}")), u.event(&format!("b{i}"))))
            .collect();
        let mut spec = Specification::new("wide41", u);
        for (i, (a, b)) in pairs.into_iter().enumerate() {
            spec.add_constraint(Box::new(SubClock::new(&format!("s{i}"), a, b)));
        }
        let program = Program::new(spec);
        let expected = KernelError::TooManySteps { components: 41 };
        let options = ExploreOptions::default().with_max_states(10);
        let serial = program.explore(&options.clone().with_workers(1));
        assert_eq!(serial.error(), Some(&expected));
        assert!(serial.truncated());
        assert_eq!((serial.state_count(), serial.transition_count()), (1, 0));
        assert!(serial.deadlocks().is_empty(), "the root is not a deadlock");
        for workers in [2, 8] {
            let parallel = program.explore(&options.clone().with_workers(workers));
            assert_eq!(serial, parallel, "workers={workers}");
        }
        // the key-based reference path reports the same error
        let mut cursor = program.cursor();
        let root = cursor.state_key();
        let solver = SolverOptions::default();
        assert_eq!(cursor.expand(&root, &solver), Err(expected));
    }

    /// Interns `tuple` as [`Replay::absorb`] does: its slot, and
    /// whether it was fresh.
    fn intern(arena: &mut Arena, tuple: &[u32]) -> (u32, bool) {
        let hash = fingerprint(tuple);
        match arena.find(hash, tuple) {
            Ok(slot) => (slot, false),
            Err(at) => (arena.insert(at, hash, tuple), true),
        }
    }

    #[test]
    fn arena_dedups_and_numbers_slots_in_insertion_order() {
        let mut arena = Arena::new(3);
        let tuples: Vec<[u32; 3]> = (0..200).map(|i| [i, i * 31 + 7, 200 - i]).collect();
        for (slot, tuple) in tuples.iter().enumerate() {
            assert_eq!(intern(&mut arena, tuple), (slot as u32, true), "fresh");
        }
        for (slot, tuple) in tuples.iter().enumerate() {
            assert_eq!(intern(&mut arena, tuple), (slot as u32, false), "a hit");
            assert_eq!(arena.tuple(slot), tuple, "the arena round-trips it");
        }
        assert_eq!(arena.len(), tuples.len());
        assert_eq!(
            arena.tuples.len(),
            tuples.len() * 3,
            "no tuple stored twice"
        );
        // the table doubled as it filled, and stayed at most 3/4 full
        assert!(arena.len() * 4 <= arena.table.len() * 3);
        // a spec without constraints has one state: the empty tuple
        let mut empty = Arena::new(0);
        assert_eq!(intern(&mut empty, &[]), (0, true));
        assert_eq!(intern(&mut empty, &[]), (0, false));
        assert_eq!(empty.len(), 1);
    }

    #[test]
    fn fingerprint_is_stable_and_value_sensitive() {
        let a = [1, 2, 3];
        let b = [1, 2, 3];
        let c = [3, 2, 1];
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_ne!(fingerprint(&[0]), fingerprint(&[0, 0]));
        assert_ne!(fingerprint(&[1, 0]), fingerprint(&[0, 1]));
    }

    #[test]
    fn outgoing_adjacency_matches_transition_scan() {
        let program = wide_grid();
        let space = program.explore(&ExploreOptions::default().with_max_states(500));
        for state in 0..space.state_count() {
            let via_slice: Vec<_> = space.outgoing(state).collect();
            let via_scan: Vec<_> = space
                .transitions()
                .filter(|(s, _, _)| *s == state)
                .collect();
            assert_eq!(via_slice, via_scan, "state {state}");
        }
    }

    #[test]
    fn gauges_report_the_final_space_and_re_arm() {
        let program = wide_grid();
        for workers in [1, 2] {
            let rec = moccml_obs::Recorder::new();
            let options = ExploreOptions::default()
                .with_max_states(2_000)
                .with_workers(workers)
                .with_recorder(&rec);
            let space = program.explore(&options);
            let snap = rec.snapshot();
            let gauge = |name| snap.gauge(name).expect("published") as usize;
            let ctx = format!("workers={workers}");
            assert_eq!(gauge("explore_states"), space.state_count(), "{ctx}");
            assert_eq!(
                gauge("explore_transitions"),
                space.transition_count(),
                "{ctx}"
            );
            assert_eq!(gauge("explore_pending"), 0, "nothing left pending: {ctx}");
            assert!(gauge("explore_peak_frontier") > 10, "{ctx}");
            assert_eq!(
                gauge("explore_interner_keys"),
                space.state_count(),
                "the arena holds exactly the states: {ctx}"
            );
            // the buckets are table positions: the load stays at most 3/4
            let buckets = gauge("explore_interner_buckets");
            assert!(gauge("explore_interner_keys") * 4 <= buckets * 3, "{ctx}");
            assert!(gauge("explore_elapsed_us") > 0, "{ctx}");
            // a second, smaller run on the same recorder re-arms the
            // gauges instead of keeping the first run's peaks
            let small = program.explore(&options.clone().with_max_states(10));
            let snap = rec.snapshot();
            let gauge = |name| snap.gauge(name).expect("published") as usize;
            assert_eq!(gauge("explore_states"), small.state_count(), "{ctx}");
            assert_eq!(gauge("explore_transitions"), small.transition_count());
            assert!(gauge("explore_peak_frontier") <= 10, "{ctx}");
        }
    }
}
