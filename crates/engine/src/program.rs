//! [`Program`]: the immutable half of a compiled specification.
//!
//! A [`Program`] is `Send + Sync` and never changes after compilation:
//!
//! * the constrained-event list is interned once;
//! * every constraint's event footprint is precomputed once;
//! * the constraints are grouped once into the connected components of
//!   the footprint graph, which [`StepSet`](crate::StepSet) factors the
//!   step set by, and each component of at most 64 events numbers its
//!   events with mask bits (the event first in the `Ord` on [`Step`]
//!   gets the most significant bit, so numeric mask order is step
//!   order) and reads a step's mask off its bitset words with a few
//!   shifts, one per stretch of consecutive event ids;
//! * the constrained events, in the bit priority of the `Ord` on
//!   [`Step`], are cut once into [`Run`]s: maximal stretches of one
//!   component in one bitset word, which [`StepSet`](crate::StepSet)
//!   unranks by;
//! * every constraint has a [`Table`] of the local states reached so
//!   far, interned to dense `u32` ids program-wide. An id's [`Entry`]
//!   holds the lowered formula of that local state and, from the first
//!   enumeration on, its models over the constraint's footprint as
//!   masks over the component's bits, with per model the id of the
//!   next local state, filled on first use. All cursors of a program —
//!   across threads — share every entry: a formula is lowered and
//!   searched at most once per reached local state, and `next` runs
//!   once per (local state, model);
//! * in a component of several constraints, each constraint's mask
//!   lists are interned to *class* ids, one per distinct list
//!   ([`Models::class`]). A component's local steps are the join of its
//!   constraints' masks, which reads nothing else, so such a component
//!   has a join memo ([`Joins`]) keyed by the tuple of its constraints'
//!   classes. A tuple's list is joined on its program-wide first
//!   meeting and, once met again, joined once more and memoized, so a
//!   tuple met once (every state of a spec whose classes never repeat)
//!   keeps nothing; cursors borrow memoized lists, and each cursor
//!   mirrors the tuples' memo indices it has met, so a lookup locks
//!   the memo only on a cursor's first meeting with a tuple. The memo
//!   holds at most one list per reached class tuple (and no list is
//!   longer than [`MASK_LIMIT`]): 27 for the benchmark's 103,823-state
//!   drift cube.
//!
//! A constraint whose footprint search finds more than [`MASK_LIMIT`]
//! models in a state (a wide `union`, say) keeps no masks there, and a
//! mask join that outgrows the limit is given up (the memo keeps that
//! verdict): such a component is searched jointly on its formulas,
//! which prunes on all of them at once.
//!
//! Ids are internal: which local state gets which id depends on the
//! order threads reach them, so no id ever reaches output. The explorer
//! handles a global state as its tuple of ids, one per constraint, and
//! composes a [`StateKey`] from the entries' local keys only when a
//! caller asks for one.
//!
//! The mutable side is [`Cursor`](crate::Cursor): cheap per-worker run
//! state created by [`Program::cursor`]. One program can drive any
//! number of concurrent cursors, which is what makes the parallel
//! state-space explorer ([`explore`](crate::explore)) possible.

use crate::cursor::Cursor;
use crate::explorer::{explore_program, ExploreOptions, StateSpace};
use crate::solver::{models, models_within};
use moccml_kernel::{EventId, Specification, StateKey, Step, StepFormula};
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard, Weak};

/// Widest component whose local steps fit one `u64` mask.
const MASK_BITS: usize = 64;

/// Most models a constraint's masks, or a component's mask join, may
/// hold; past it the component is searched jointly on its formulas.
pub(crate) const MASK_LIMIT: usize = 1 << 12;

/// A `next` slot not filled yet.
const UNFILLED: u32 = u32::MAX;

/// One interned local state of one constraint.
#[derive(Debug)]
pub(crate) struct Entry {
    /// The local state.
    pub(crate) key: StateKey,
    /// The constraint's formula in this state, simplified.
    pub(crate) formula: StepFormula,
    /// The formula's models as masks, searched on first enumeration;
    /// `None` when the component is wider than [`MASK_BITS`] or the
    /// formula has more than [`MASK_LIMIT`] models.
    models: OnceLock<Option<Models>>,
    /// For a constraint that forms a component alone: that component's
    /// local step list, sorted (the empty step included when accepted).
    steps: OnceLock<Vec<Step>>,
}

/// A formula's models over its constraint's footprint.
#[derive(Debug)]
pub(crate) struct Models {
    /// The models as masks over the component's bits, ascending.
    pub(crate) masks: Vec<u64>,
    /// The constraint's id for this mask list, equal for two local
    /// states exactly when their masks are; 0 for a constraint alone in
    /// its component, which never joins.
    pub(crate) class: u32,
    /// Per model, the id of the next local state, or [`UNFILLED`].
    next: Box<[AtomicU32]>,
}

/// An interned entry as its table's key: hashed and compared as its
/// local state's values, so the table stores each key once.
#[derive(Debug)]
struct Local(Arc<Entry>);

impl Borrow<[i64]> for Local {
    fn borrow(&self) -> &[i64] {
        self.0.key.values()
    }
}

impl Hash for Local {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.key.values().hash(state);
    }
}

impl PartialEq for Local {
    fn eq(&self, other: &Self) -> bool {
        self.0.key == other.0.key
    }
}

impl Eq for Local {}

/// The interned local states of one constraint, shared by every cursor
/// of the program: key → id, and id → entry.
#[derive(Debug, Default)]
struct Table {
    ids: HashMap<Local, u32>,
    /// The id of the empty key — a stateless constraint's only local
    /// state — which `ids` does not hold: its lookups would compare two
    /// empty slices, a `bcmp` on dangling pointers (see
    /// [`slices_equal`](moccml_kernel::slices_equal)).
    empty: Option<u32>,
    entries: Vec<Arc<Entry>>,
}

impl Table {
    /// The id of local state `key`, if interned.
    fn find(&self, key: &[i64]) -> Option<u32> {
        match key {
            [] => self.empty,
            _ => self.ids.get(key).copied(),
        }
    }
}

/// A growable array of write-once slots that reads without a lock:
/// slot `i` lives in bucket `ilog2(i | 1)`, which holds slots `2^b ..
/// 2^(b+1)` (bucket 0 holds 0 and 1). The bucket table and each bucket
/// are allocated on first use, so no slot ever moves and an unused
/// array costs one pointer.
#[derive(Debug)]
struct Slots<T> {
    buckets: OnceLock<Box<[Bucket<T>; 32]>>,
}

/// One bucket of [`Slots`], allocated on first use.
type Bucket<T> = OnceLock<Box<[OnceLock<T>]>>;

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            buckets: OnceLock::new(),
        }
    }
}

impl<T> Slots<T> {
    /// Slot `i`.
    fn slot(&self, i: u32) -> &OnceLock<T> {
        let bucket = (i | 1).ilog2();
        let (start, len) = match bucket {
            0 => (0, 2),
            b => (1 << b, 1 << b),
        };
        let buckets = self
            .buckets
            .get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())));
        let slots =
            buckets[bucket as usize].get_or_init(|| (0..len).map(|_| OnceLock::new()).collect());
        &slots[(i - start) as usize]
    }
}

/// One component's join memo: per class tuple met (the classes of its
/// constraints in join order, [`Models::class`]), an index, assigned
/// under the lock on the program-wide first meeting, and at that index,
/// from the second meeting on, the joined local steps, or `None` when
/// the join outgrew [`MASK_LIMIT`]. The lists sit in write-once slots
/// that read without a lock, so a cursor that mirrors a tuple's index
/// reads its list with no lock and no shared write.
#[derive(Debug, Default)]
pub(crate) struct Joins {
    ids: Mutex<HashMap<Box<[u32]>, u32>>,
    lists: Slots<Option<Box<[Step]>>>,
}

impl Joins {
    /// The index of class tuple `classes`, and whether this call
    /// assigned it: the program-wide first meeting.
    pub(crate) fn index(&self, classes: &[u32]) -> (u32, bool) {
        let mut ids = self.ids.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = ids.get(classes) {
            return (id, false);
        }
        let id = u32::try_from(ids.len()).expect("class tuples fit u32");
        ids.insert(classes.into(), id);
        (id, true)
    }

    /// The local steps memoized at index `id`, computed by `join` on the
    /// first lookup (`None` when the join outgrew [`MASK_LIMIT`]), and
    /// whether this call computed them.
    pub(crate) fn list(
        &self,
        id: u32,
        join: impl FnOnce() -> Option<Vec<Step>>,
    ) -> (Option<&[Step]>, bool) {
        let mut joined = false;
        let steps = self.lists.slot(id).get_or_init(|| {
            joined = true;
            join().map(Vec::into_boxed_slice)
        });
        (steps.as_deref(), joined)
    }

    /// Class tuples met.
    fn len(&self) -> usize {
        self.ids
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// A maximal stretch of consecutive entries of the bit priority of the
/// `Ord` on [`Step`] (word 0 first, high bits first) that lie in one
/// component and one bitset word. The local steps of that component
/// that agree on its higher-priority bits are sorted by their bits in
/// the run, [`key`](Run::key).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    /// The component.
    pub(crate) comp: usize,
    /// The bitset word.
    word: usize,
    /// The run's events, as bits of that word.
    mask: u64,
    /// Whether no later run is the component's: its bits then tell
    /// every local step apart from the others that agree on its
    /// higher-priority bits.
    pub(crate) last: bool,
}

impl Run {
    /// `step`'s bits in the run.
    pub(crate) fn key(&self, step: &Step) -> u64 {
        step.word(self.word) & self.mask
    }
}

/// A stretch of a component's events with consecutive ids in one
/// bitset word, and so consecutive mask bits: `len` events from bit
/// `shift` of word `word`, at mask bits `base..`.
#[derive(Debug, Clone, Copy)]
struct Stretch {
    word: usize,
    shift: u32,
    field: u64,
    base: u32,
}

/// A connected component of the footprint graph: constraints that share
/// events, directly or through one another, and the events they range
/// over in increasing id order.
#[derive(Debug)]
pub(crate) struct Component {
    pub(crate) constraints: Vec<usize>,
    pub(crate) events: Vec<EventId>,
    /// Mask bit `b` stands for `bits[b]`; empty when the component is
    /// wider than [`MASK_BITS`].
    bits: Vec<EventId>,
    /// The stretches of `bits` with consecutive ids, which
    /// [`mask`](Component::mask) reads a step's mask through.
    stretches: Vec<Stretch>,
    /// The order the mask join visits the constraints in: widest
    /// footprint first, then most overlap with those already joined.
    pub(crate) join: Vec<usize>,
    /// The join memo (unused for a component of one constraint).
    pub(crate) joins: Joins,
}

impl Component {
    /// Whether the component's local steps are masks.
    pub(crate) fn masked(&self) -> bool {
        self.events.len() <= MASK_BITS
    }

    /// The mask of `step`'s events in the component (0 when it is too
    /// wide for masks): a shift per stretch of consecutive ids, not a
    /// walk over the step's events.
    pub(crate) fn mask(&self, step: &Step) -> u64 {
        self.stretches.iter().fold(0, |mask, s| {
            mask | ((step.word(s.word) >> s.shift) & s.field) << s.base
        })
    }

    /// Cuts `bits` into stretches of consecutive ids in one word.
    fn stretch(&mut self) {
        let mut base = 0;
        while base < self.bits.len() {
            let first = self.bits[base].index();
            let len = self.bits[base..]
                .iter()
                .enumerate()
                .take_while(|&(k, e)| e.index() == first + k && e.index() / 64 == first / 64)
                .count();
            self.stretches.push(Stretch {
                word: first / 64,
                shift: (first % 64) as u32,
                field: u64::MAX >> (64 - len),
                base: base as u32,
            });
            base += len;
        }
    }

    /// The step of mask `mask`.
    pub(crate) fn step(&self, mut mask: u64) -> Step {
        let mut step = Step::new();
        while mask != 0 {
            step.insert(self.bits[mask.trailing_zeros() as usize]);
            mask &= mask - 1;
        }
        step
    }
}

/// A [`Specification`] compiled into an immutable, shareable program.
///
/// Constructed once with [`new`](Program::new) (owned) or
/// [`compile`](Program::compile) (borrowed; clones the local states and
/// shares the constraints); both return `Arc<Program>` because a
/// program's whole point is to be shared — every
/// [`Cursor`](crate::Cursor) keeps a handle to its program. The
/// constraint population is frozen at compile time: that is what makes
/// the interned event list, the per-constraint footprints and the
/// local-state tables sound. Constraints are pure functions of their
/// local state, so the program's one copy of them serves every cursor.
///
/// A program carries **no run state**. Queries that need one go through
/// a cursor ([`Program::cursor`]); [`Program::explore`] spawns its own
/// worker cursors internally.
///
/// # Example
///
/// ```
/// use moccml_ccsl::Alternation;
/// use moccml_engine::{Program, SolverOptions};
/// use moccml_kernel::{Specification, Universe};
///
/// let mut u = Universe::new();
/// let (a, b) = (u.event("a"), u.event("b"));
/// let mut spec = Specification::new("alt", u);
/// spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
///
/// let program = Program::new(spec);
/// let mut cursor = program.cursor();
/// let options = SolverOptions::default();
/// let first = cursor.acceptable_steps(&options);
/// assert_eq!(first.len(), 1); // only {a}
/// cursor.fire(&first[0]).expect("acceptable");
/// assert!(cursor.acceptable_steps(&options)[0].contains(b));
/// ```
#[derive(Debug)]
pub struct Program {
    /// The template specification, frozen in the state it had at
    /// compile time. Cursors read its constraints; nothing ever
    /// mutates it.
    spec: Specification,
    /// Snapshot of the template's global state — the root every cursor
    /// starts from.
    template_key: StateKey,
    /// The interned list of constrained events the solver ranges over.
    events: Vec<EventId>,
    /// Per-constraint event footprints, used by cursors to skip
    /// constraints a step cannot touch.
    footprints: Vec<Step>,
    /// Per constraint: its component and its footprint as a mask over
    /// that component's bits (0 in a component too wide for masks).
    homes: Vec<(usize, u64)>,
    /// The connected components of the footprint graph, ordered by
    /// their first constraint.
    components: Vec<Component>,
    /// The constrained events in the bit priority of the `Ord` on
    /// [`Step`] (word 0 first, high bits first), cut into runs.
    runs: Vec<Run>,
    /// Per-constraint local-state tables.
    tables: Vec<RwLock<Table>>,
    /// Per constraint of a component of several: its classes, by mask
    /// list.
    classes: Vec<Mutex<HashMap<Vec<u64>, u32>>>,
    /// Per-constraint id of the template's local state.
    initial: Vec<u32>,
    /// Back-reference to the owning `Arc`, so `cursor(&self)` can hand
    /// out handles without the caller threading the `Arc` around.
    self_ref: Weak<Program>,
}

impl Program {
    /// Compiles an owned specification.
    #[must_use]
    pub fn new(spec: Specification) -> Arc<Self> {
        let events: Vec<EventId> = spec.constrained_events().iter().collect();
        let template_key = spec.state_key();
        let footprints = spec.constraint_footprints();
        let mut components = components(&footprints);
        let mut priority: Vec<(usize, EventId)> = components
            .iter()
            .enumerate()
            .flat_map(|(c, comp)| comp.events.iter().map(move |&e| (c, e)))
            .collect();
        priority.sort_by_key(|&(_, e)| (e.index() / 64, Reverse(e.index() % 64)));
        for &(c, e) in priority.iter().rev() {
            let comp = &mut components[c];
            if comp.masked() {
                comp.bits.push(e);
            }
        }
        let mut homes = vec![(0, 0); footprints.len()];
        for (c, comp) in components.iter_mut().enumerate() {
            comp.stretch();
            comp.join = join_order(&comp.constraints, &footprints);
            for &i in &comp.constraints {
                homes[i] = (c, comp.mask(&footprints[i]));
            }
        }
        let runs = runs(&priority);
        let tables = footprints.iter().map(|_| RwLock::default()).collect();
        let classes = footprints.iter().map(|_| Mutex::default()).collect();
        Arc::new_cyclic(|self_ref| {
            let mut program = Program {
                template_key,
                events,
                footprints,
                homes,
                components,
                runs,
                tables,
                classes,
                initial: Vec::new(),
                spec,
                self_ref: self_ref.clone(),
            };
            program.initial = (0..program.spec.constraint_count())
                .map(|i| program.intern(i, program.spec.locals()[i].values()))
                .collect();
            program
        })
    }

    /// Compiles a borrowed specification (clones its local states; the
    /// constraints are shared).
    #[must_use]
    pub fn compile(spec: &Specification) -> Arc<Self> {
        Self::new(spec.clone())
    }

    /// Read access to the template specification (in its compile-time
    /// state).
    #[must_use]
    pub fn specification(&self) -> &Specification {
        &self.spec
    }

    /// The global state key of the template — the state fresh cursors
    /// start in.
    #[must_use]
    pub fn template_key(&self) -> &StateKey {
        &self.template_key
    }

    /// The interned list of constrained events the solver ranges over.
    #[must_use]
    pub fn constrained_events(&self) -> &[EventId] {
        &self.events
    }

    /// Total number of `(constraint, local state)` pairs interned
    /// program-wide, each with its lowered formula — a cache-size
    /// observability hook for tests and tuning. Grows as cursors reach
    /// fresh local states; never shrinks.
    #[must_use]
    pub fn cached_formula_count(&self) -> usize {
        (0..self.tables.len())
            .map(|i| self.table(i).entries.len())
            .sum()
    }

    /// Class tuples met program-wide: the reached combinations of the
    /// constraints' model classes in each component of several
    /// constraints, each with at most one memoized join. Grows as
    /// cursors meet new combinations; never shrinks.
    #[must_use]
    pub fn join_class_count(&self) -> usize {
        self.components.iter().map(|comp| comp.joins.len()).sum()
    }

    /// A fresh cursor positioned at the template state. Cursors are
    /// cheap (one local-state id and entry mirror per constraint; the
    /// constraints and the tables stay in the program) and independent:
    /// one program can drive any number of them, from any number of
    /// threads.
    #[must_use]
    pub fn cursor(&self) -> Cursor {
        let program = self
            .self_ref
            .upgrade()
            .expect("a Program is only reachable through its Arc");
        Cursor::new(program)
    }

    /// Explores the reachable scheduling state-space from the template
    /// state. See the [`explorer`](crate::StateSpace) docs for the
    /// graph's semantics and the determinism guarantee;
    /// [`ExploreOptions::workers`] sets how many threads expand a wide
    /// BFS level.
    #[must_use]
    pub fn explore(&self, options: &ExploreOptions) -> StateSpace {
        explore_program(self, &self.initial, options, &mut ())
    }

    /// Explores like [`explore`](Program::explore) while streaming every
    /// absorbed transition, deadlock and level boundary to `visitor` —
    /// the on-the-fly hook `moccml-verify` checks properties through.
    /// The visitor runs in the canonical absorption order and can stop
    /// the BFS at a level boundary; both the callback sequence and the
    /// resulting (possibly early-stopped) [`StateSpace`] are identical
    /// for every [`ExploreOptions::workers`] count.
    #[must_use]
    pub fn explore_with(
        &self,
        options: &ExploreOptions,
        visitor: &mut dyn crate::ExploreVisitor,
    ) -> StateSpace {
        explore_program(self, &self.initial, options, visitor)
    }

    /// The per-constraint event footprints, parallel to
    /// `specification().constraints()`: constraint `i` reacts to a step
    /// iff the step intersects `footprints()[i]`.
    #[must_use]
    pub fn footprints(&self) -> &[Step] {
        &self.footprints
    }

    /// Indices of the constraints in the cone of influence of `seeds`:
    /// the least fixpoint of "a constraint whose footprint intersects
    /// the seed events (or the footprint of a constraint already in the
    /// cone) is in the cone". Sorted ascending.
    ///
    /// Because every constraint stutters through steps disjoint from
    /// its footprint (the kernel-wide contract documented on
    /// [`Constraint`](moccml_kernel::Constraint)), constraints outside
    /// the cone can neither block nor be blocked by anything the seeded
    /// events do — they are independent of the seeds' behaviour.
    #[must_use]
    pub fn cone_of_influence(&self, seeds: &[EventId]) -> Vec<usize> {
        let mut events = Step::from_events(seeds.iter().copied());
        let mut in_cone = vec![false; self.footprints.len()];
        loop {
            let mut changed = false;
            for (i, fp) in self.footprints.iter().enumerate() {
                if !in_cone[i] && !fp.is_disjoint_from(&events) && !fp.is_empty() {
                    in_cone[i] = true;
                    events = events.union(fp);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        in_cone
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect()
    }

    /// Compiles the cone-of-influence slice of this program for
    /// `seeds`: a program over the **same universe** containing only
    /// the constraints returned by
    /// [`cone_of_influence`](Program::cone_of_influence), each shared
    /// with this program and in its compile-time state.
    ///
    /// When the cone covers every constraint the program itself is
    /// returned (no recompilation). Schedules and steps transfer
    /// between the slice and the full program unchanged, because event
    /// ids are shared. Whether a *verdict* transfers is the caller's
    /// proof obligation — `moccml-verify` applies the slice only to
    /// stutter-invariant safety properties (see
    /// `CheckOptions::with_slice` there).
    #[must_use]
    pub fn slice(&self, seeds: &[EventId]) -> Arc<Program> {
        let cone = self.cone_of_influence(seeds);
        if cone.len() == self.spec.constraint_count() {
            return self
                .self_ref
                .upgrade()
                .expect("a Program is only reachable through its Arc");
        }
        let mut sliced = Specification::new(self.spec.name(), self.spec.universe().clone());
        for i in cone {
            sliced.share_constraint(&self.spec, i);
        }
        Program::new(sliced)
    }

    /// The per-constraint ids of the template's local states.
    pub(crate) fn initial(&self) -> &[u32] {
        &self.initial
    }

    /// Per constraint, the local state keys interned so far, by id —
    /// what an explored space composes its state keys from.
    pub(crate) fn local_keys(&self) -> Vec<Vec<StateKey>> {
        (0..self.tables.len())
            .map(|i| {
                let table = self.table(i);
                table
                    .entries
                    .iter()
                    .map(|entry| entry.key.clone())
                    .collect()
            })
            .collect()
    }

    /// The connected components of the footprint graph.
    pub(crate) fn components(&self) -> &[Component] {
        &self.components
    }

    /// The constrained events in the bit priority of the `Ord` on
    /// [`Step`], cut into runs.
    pub(crate) fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Constraint `i`'s component and footprint mask.
    pub(crate) fn home(&self, i: usize) -> (usize, u64) {
        self.homes[i]
    }

    /// The id of constraint `i`'s local state `key`, interned — and its
    /// formula lowered — on the program-wide first visit.
    pub(crate) fn intern(&self, i: usize, key: &[i64]) -> u32 {
        if let Some(id) = self.table(i).find(key) {
            return id;
        }
        let mut table = self.tables[i]
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(id) = table.find(key) {
            return id;
        }
        let id = u32::try_from(table.entries.len()).expect("local state ids fit u32");
        let key = StateKey::from_values(key.iter().copied());
        let entry = Arc::new(Entry {
            formula: self.spec.constraints()[i].formula(&key).simplify(),
            key,
            models: OnceLock::new(),
            steps: OnceLock::new(),
        });
        table.entries.push(Arc::clone(&entry));
        if entry.key.is_empty() {
            table.empty = Some(id);
        } else {
            table.ids.insert(Local(entry), id);
        }
        id
    }

    /// The entry of constraint `i`'s local state `id`.
    pub(crate) fn entry(&self, i: usize, id: u32) -> Arc<Entry> {
        Arc::clone(&self.table(i).entries[id as usize])
    }

    /// Constraint `i`'s table, read-locked.
    fn table(&self, i: usize) -> RwLockReadGuard<'_, Table> {
        self.tables[i]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// `step`'s events in constraint `i`'s footprint, as a mask over its
    /// component's bits (0 in a component too wide for masks), or
    /// `None` when the step does not meet the footprint.
    pub(crate) fn model(&self, i: usize, step: &Step) -> Option<u64> {
        if self.footprints[i].is_disjoint_from(step) {
            return None;
        }
        let (c, footprint) = self.homes[i];
        Some(self.components[c].mask(step) & footprint)
    }

    /// The id of constraint `i`'s local state after `step` in `entry`,
    /// where `step` meets the constraint's footprint in `model` (see
    /// [`model`](Program::model)) and satisfies its formula. Once the
    /// entry's models are searched this reads the next-id slot of the
    /// step's model, which runs
    /// [`next`](moccml_kernel::Constraint::next) on the first lookup
    /// only.
    pub(crate) fn next(&self, i: usize, entry: &Entry, step: &Step, model: u64) -> u32 {
        let constraint = &self.spec.constraints()[i];
        if let Some(Some(models)) = entry.models.get() {
            if let Ok(k) = models.masks.binary_search(&model) {
                // Relaxed: the slot publishes only the id; its entry is
                // read through the table's lock
                let id = models.next[k].load(Ordering::Relaxed);
                if id != UNFILLED {
                    return id;
                }
                let model = self.components[self.homes[i].0].step(model);
                let id = self.intern(i, constraint.next(&entry.key, &model).values());
                models.next[k].store(id, Ordering::Relaxed);
                return id;
            }
        }
        self.intern(i, constraint.next(&entry.key, step).values())
    }

    /// The models of constraint `i`'s formula in `entry` over its
    /// footprint, searched on first use: `None` when its component is
    /// too wide for masks or the formula has more than [`MASK_LIMIT`]
    /// models.
    pub(crate) fn models<'e>(&self, i: usize, entry: &'e Entry) -> Option<&'e Models> {
        let init = || {
            let (c, _) = self.homes[i];
            if !self.components[c].masked() {
                return None;
            }
            let footprint: Vec<EventId> = self.footprints[i].iter().collect();
            let found = models_within(&[&entry.formula], &footprint, MASK_LIMIT)?;
            let masks: Vec<u64> = found.iter().map(|s| self.components[c].mask(s)).collect();
            let class = match self.components[c].constraints.len() {
                1 => 0,
                _ => {
                    let mut classes = self.classes[i]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    let fresh = u32::try_from(classes.len()).expect("classes fit u32");
                    *classes.entry(masks.clone()).or_insert(fresh)
                }
            };
            let next = masks.iter().map(|_| AtomicU32::new(UNFILLED)).collect();
            Some(Models { masks, class, next })
        };
        entry.models.get_or_init(init).as_ref()
    }

    /// The sorted local step list of constraint `i`, alone in its
    /// component, in `entry`: its masks as steps, or — when it has none
    /// — the formula's models searched over the component.
    pub(crate) fn steps<'e>(&self, i: usize, entry: &'e Entry) -> &'e [Step] {
        entry.steps.get_or_init(|| {
            let comp = &self.components[self.homes[i].0];
            match self.models(i, entry) {
                Some(found) => found.masks.iter().map(|&m| comp.step(m)).collect(),
                None => models(&[&entry.formula], &comp.events, true),
            }
        })
    }
}

/// The order a component's mask join visits `constraints` in: the
/// widest footprint first, then repeatedly the one sharing the most
/// events with those already joined (ties: wider, then earlier), so
/// every join after the first filters on shared events as early as
/// possible.
fn join_order(constraints: &[usize], footprints: &[Step]) -> Vec<usize> {
    let mut left = constraints.to_vec();
    let mut order = Vec::with_capacity(left.len());
    let mut joined = Step::new();
    while !left.is_empty() {
        let best = (0..left.len())
            .max_by_key(|&k| {
                let fp = &footprints[left[k]];
                (fp.intersection(&joined).len(), fp.len(), Reverse(left[k]))
            })
            .expect("constraints left");
        let i = left.remove(best);
        joined = joined.union(&footprints[i]);
        order.push(i);
    }
    order
}

/// Cuts `priority`, the constrained events with their components in
/// the bit priority of the `Ord` on [`Step`], into runs.
fn runs(priority: &[(usize, EventId)]) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    for &(comp, e) in priority {
        let (word, bit) = (e.index() / 64, 1 << (e.index() % 64));
        match runs.last_mut() {
            Some(run) if run.comp == comp && run.word == word => run.mask |= bit,
            _ => runs.push(Run {
                comp,
                word,
                mask: bit,
                last: false,
            }),
        }
    }
    let mut seen = HashSet::new();
    for run in runs.iter_mut().rev() {
        run.last = seen.insert(run.comp);
    }
    runs
}

/// Groups constraints into the connected components of the footprint
/// graph (constraints are linked when their footprints meet), ordered
/// by first constraint. A constraint with an empty footprint is a
/// component of its own.
fn components(footprints: &[Step]) -> Vec<Component> {
    let mut groups: Vec<(Vec<usize>, Step)> = Vec::new();
    for (i, fp) in footprints.iter().enumerate() {
        let mut merged = (vec![i], fp.clone());
        groups.retain(|(constraints, events)| {
            if events.is_disjoint_from(fp) {
                return true;
            }
            merged.0.extend(constraints);
            merged.1 = merged.1.union(events);
            false
        });
        groups.push(merged);
    }
    let mut components: Vec<Component> = groups
        .into_iter()
        .map(|(mut constraints, events)| {
            constraints.sort_unstable();
            Component {
                constraints,
                events: events.iter().collect(),
                bits: Vec::new(),
                stretches: Vec::new(),
                join: Vec::new(),
                joins: Joins::default(),
            }
        })
        .collect();
    components.sort_by_key(|c| c.constraints[0]);
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverOptions;
    use moccml_ccsl::Alternation;
    use moccml_kernel::Universe;

    fn alternating() -> (Specification, EventId, EventId) {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        (spec, a, b)
    }

    #[test]
    fn program_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Program>();
    }

    #[test]
    fn cursors_share_one_memo() {
        let (spec, a, b) = alternating();
        let program = Program::new(spec);
        assert_eq!(program.cached_formula_count(), 1);
        let mut c1 = program.cursor();
        c1.fire(&Step::from_events([a])).expect("fires");
        // c1 reached the alternation's second state: one new entry
        assert_eq!(program.cached_formula_count(), 2);
        // a second cursor re-visiting both states adds nothing
        let mut c2 = program.cursor();
        c2.fire(&Step::from_events([a])).expect("fires");
        c2.fire(&Step::from_events([b])).expect("fires");
        assert_eq!(program.cached_formula_count(), 2);
    }

    #[test]
    fn cursors_are_independent() {
        let (spec, a, _) = alternating();
        let program = Program::new(spec);
        let options = SolverOptions::default();
        let mut c1 = program.cursor();
        let c2 = program.cursor();
        let initial = c2.acceptable_steps(&options);
        c1.fire(&Step::from_events([a])).expect("fires");
        assert_ne!(c1.acceptable_steps(&options), initial);
        assert_eq!(c2.acceptable_steps(&options), initial);
    }

    #[test]
    fn template_key_is_the_compile_time_state() {
        let (mut spec, a, _) = alternating();
        spec.fire(&Step::from_events([a])).expect("fires");
        let program = Program::compile(&spec);
        assert_eq!(program.template_key(), &spec.state_key());
        // fresh cursors start there, not at the reset state
        assert_eq!(program.cursor().state_key(), spec.state_key());
    }

    #[test]
    fn memo_is_shared_across_threads() {
        let (spec, a, b) = alternating();
        let program = Program::new(spec);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let program = &program;
                s.spawn(move || {
                    let mut c = program.cursor();
                    for _ in 0..3 {
                        c.fire(&Step::from_events([a])).expect("fires");
                        c.fire(&Step::from_events([b])).expect("fires");
                    }
                });
            }
        });
        // two automaton states, no matter how many workers visited them
        assert_eq!(program.cached_formula_count(), 2);
    }

    /// Two independent alternations over disjoint event pairs, so the
    /// cone of either pair excludes the other constraint.
    fn decoupled() -> (Specification, [EventId; 4]) {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let (x, y) = (u.event("x"), u.event("y"));
        let mut spec = Specification::new("decoupled", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        spec.add_constraint(Box::new(Alternation::new("x~y", x, y)));
        (spec, [a, b, x, y])
    }

    #[test]
    fn cone_of_influence_closes_over_shared_footprints() {
        let (spec, [a, b, x, _]) = decoupled();
        let program = Program::new(spec);
        assert_eq!(program.cone_of_influence(&[a]), vec![0]);
        assert_eq!(program.cone_of_influence(&[b]), vec![0]);
        assert_eq!(program.cone_of_influence(&[x]), vec![1]);
        assert_eq!(program.cone_of_influence(&[a, x]), vec![0, 1]);
        assert_eq!(program.cone_of_influence(&[]), Vec::<usize>::new());
    }

    #[test]
    fn cone_of_influence_chains_through_overlaps() {
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("chain", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        spec.add_constraint(Box::new(Alternation::new("b~c", b, c)));
        let program = Program::new(spec);
        // a pulls in a~b, whose footprint contains b, which pulls b~c
        assert_eq!(program.cone_of_influence(&[a]), vec![0, 1]);
    }

    #[test]
    fn slice_shares_the_program_when_the_cone_is_total() {
        let (spec, [a, _, x, _]) = decoupled();
        let program = Program::new(spec);
        let total = program.slice(&[a, x]);
        assert!(Arc::ptr_eq(&program, &total));
    }

    #[test]
    fn slice_keeps_the_universe_and_drops_foreign_constraints() {
        let (spec, [a, b, x, _]) = decoupled();
        let program = Program::new(spec);
        let sliced = program.slice(&[a]);
        assert_eq!(sliced.specification().constraint_count(), 1);
        assert_eq!(sliced.specification().constraints()[0].name(), "a~b");
        assert_eq!(
            sliced.specification().universe(),
            program.specification().universe()
        );
        // steps transfer unchanged: the sliced program accepts the
        // same a/b behaviour and ignores x entirely
        let mut cursor = sliced.cursor();
        cursor.fire(&Step::from_events([a])).expect("fires");
        cursor.fire(&Step::from_events([b])).expect("fires");
        assert!(!sliced.constrained_events().contains(&x));
    }

    #[test]
    fn slice_snapshots_the_compile_time_constraint_state() {
        let (mut spec, a, _) = alternating();
        spec.fire(&Step::from_events([a])).expect("fires");
        let program = Program::compile(&spec);
        let sliced = program.slice(&[a]);
        // cone is total here, but via a fresh compile the state is kept
        assert_eq!(sliced.template_key(), program.template_key());
    }
}
