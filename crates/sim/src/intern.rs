//! Hash-consed configurations: interned state arenas and id-word configs.
//!
//! Exhaustive exploration stores millions of configurations whose individual
//! object and process states are drawn from a *small* set — a p8 run with
//! thousands of configs typically has a few hundred distinct [`ProcState`]s.
//! A [`StateInterner`] hash-conses those states into append-only arenas (one
//! for object [`Value`]s, one for [`ProcState`]s) and hands out dense `u32`
//! ids, so a whole configuration shrinks to a [`CompactConfig`]: one flat
//! array of id words (object ids first, then proc ids).
//!
//! The payoff is that every hot operation moves to id space:
//!
//! * **equality** is a word-for-word `u32` compare — no deep traversal, so
//!   the model checker's fingerprint-collision verification is a `memcmp`;
//! * **hashing** hashes the id slice;
//! * **stepping** copies the id array and replaces the one or two slots that
//!   changed, looking the new states up in the arena first ([`PendingConfig`]
//!   carries the (rare) genuinely fresh states to the single-threaded merge,
//!   which interns them — the arenas never need locks);
//! * **within-group canonicalization** permutes id words.
//!
//! Soundness of id equality rests on the interning invariant: the arena
//! never holds two equal states, so `id(a) == id(b) ⇔ a == b` for states,
//! and therefore word-wise id equality of two [`CompactConfig`]s over the
//! *same* interner is exactly deep [`Config`] equality.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::system::{Config, ProcState, ProcStatus};
use crate::value::Value;

/// The id word reserved for "not yet interned" slots of a [`PendingConfig`].
const PLACEHOLDER: u32 = u32::MAX;

fn hash_one<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// One hash-consing arena: equal values get equal ids, forever.
///
/// Lookups are readable under a shared reference (the parallel expansion
/// workers race only on the relaxed hit/miss counters); inserts require
/// `&mut` and happen on the merge thread only.
#[derive(Debug)]
struct Pool<T> {
    /// Append-only: `arena[id]` is the state with id `id`, forever.
    arena: Vec<Arc<T>>,
    /// Hash → candidate ids, verified by full equality (hash collisions are
    /// survivable, just slow).
    index: HashMap<u64, Vec<u32>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Deep bytes of the interned states, maintained incrementally at
    /// insert time so budget estimates and [`StateInterner::stats`] are
    /// O(1).
    state_bytes: usize,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool {
            arena: Vec::new(),
            index: HashMap::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            state_bytes: 0,
        }
    }
}

impl<T> Clone for Pool<T> {
    fn clone(&self) -> Self {
        Pool {
            arena: self.arena.clone(),
            index: self.index.clone(),
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
            state_bytes: self.state_bytes,
        }
    }
}

impl<T: Eq + Hash> Pool<T> {
    /// Finds the id of `value` if it is already interned.
    fn lookup_hashed(&self, hash: u64, value: &T) -> Option<u32> {
        let found = self.index.get(&hash).and_then(|ids| {
            ids.iter()
                .copied()
                .find(|&id| *self.arena[id as usize] == *value)
        });
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Interns `value` (supplied as a closure so callers holding an `Arc`
    /// can share it instead of re-allocating), returning its id.
    fn intern_hashed(&mut self, hash: u64, value: &T, make: impl FnOnce() -> Arc<T>) -> u32 {
        if let Some(id) = self.lookup_hashed(hash, value) {
            return id;
        }
        let id = u32::try_from(self.arena.len()).expect("interner arena exceeds u32 ids");
        self.arena.push(make());
        self.index.entry(hash).or_default().push(id);
        id
    }

    fn stats(&self) -> (usize, u64, u64) {
        (
            self.arena.len(),
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Approximate heap footprint of the arena + hash index themselves
    /// (excluding the deep size of the stored states).
    fn table_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<Arc<T>>()
            + self.index.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u32>>())
            + self.arena.len() * std::mem::size_of::<u32>()
    }
}

/// An exploration-scoped hash-consing arena for object and process states.
///
/// Build one per exploration (or per system), intern the initial
/// configuration with [`StateInterner::intern_config`], and step in id
/// space via
/// [`SystemSpec::compact_successors`](crate::SystemSpec::compact_successors).
/// Ids are only meaningful relative to the interner that issued them.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use subconsensus_sim::{
///     Action, ProcCtx, Protocol, ProtocolError, StateInterner, SystemBuilder, Value,
/// };
///
/// #[derive(Debug)]
/// struct DecideInput;
/// impl Protocol for DecideInput {
///     fn start(&self, _ctx: &ProcCtx) -> Value { Value::Nil }
///     fn step(&self, ctx: &ProcCtx, _l: &Value, _r: Option<&Value>)
///         -> Result<Action, ProtocolError> {
///         Ok(Action::Decide(ctx.input.clone()))
///     }
/// }
///
/// let mut b = SystemBuilder::new();
/// b.add_process(Arc::new(DecideInput), Value::Int(3));
/// let spec = b.build();
/// let mut interner = StateInterner::new();
/// let compact = interner.intern_config(&spec.initial_config());
/// assert_eq!(
///     interner.materialize_words(compact.nobjects(), compact.words()),
///     spec.initial_config()
/// );
/// // Re-interning an equal configuration yields identical id words.
/// assert_eq!(interner.intern_config(&spec.initial_config()), compact);
/// ```
#[derive(Clone, Debug, Default)]
pub struct StateInterner {
    objs: Pool<Value>,
    procs: Pool<ProcState>,
    /// `proc_enabled[id]` caches `procs.arena[id].status.is_enabled()` so
    /// computing a configuration's enabled bitset never touches the states.
    proc_enabled: Vec<bool>,
}

impl StateInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the interned object state with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this interner.
    pub fn object(&self, id: u32) -> &Value {
        &self.objs.arena[id as usize]
    }

    /// Returns the interned process state with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this interner.
    pub fn proc(&self, id: u32) -> &ProcState {
        &self.procs.arena[id as usize]
    }

    pub(crate) fn object_arc(&self, id: u32) -> Arc<Value> {
        Arc::clone(&self.objs.arena[id as usize])
    }

    pub(crate) fn proc_arc(&self, id: u32) -> Arc<ProcState> {
        Arc::clone(&self.procs.arena[id as usize])
    }

    pub(crate) fn lookup_object_hashed(&self, hash: u64, state: &Value) -> Option<u32> {
        self.objs.lookup_hashed(hash, state)
    }

    pub(crate) fn lookup_proc_hashed(&self, hash: u64, state: &ProcState) -> Option<u32> {
        self.procs.lookup_hashed(hash, state)
    }

    fn intern_object_arc(&mut self, state: &Arc<Value>) -> u32 {
        self.intern_obj_counted(hash_one(&**state), state)
    }

    fn intern_proc_arc(&mut self, state: &Arc<ProcState>) -> u32 {
        self.intern_proc_counted(hash_one(&**state), state)
    }

    /// The single object-intern entry point: interns through the pool and
    /// keeps the incremental state-byte counter in step with genuinely
    /// new states.
    fn intern_obj_counted(&mut self, hash: u64, state: &Arc<Value>) -> u32 {
        let before = self.objs.arena.len();
        let id = self.objs.intern_hashed(hash, state, || Arc::clone(state));
        if self.objs.arena.len() > before {
            self.objs.state_bytes += value_bytes(state);
        }
        id
    }

    /// The single proc-intern entry point (see
    /// [`intern_obj_counted`](Self::intern_obj_counted)); also maintains
    /// the enabled-bit cache.
    fn intern_proc_counted(&mut self, hash: u64, state: &Arc<ProcState>) -> u32 {
        let before = self.procs.arena.len();
        let id = self.procs.intern_hashed(hash, state, || Arc::clone(state));
        if self.procs.arena.len() > before {
            self.procs.state_bytes += proc_bytes(state);
        }
        self.note_proc(id);
        id
    }

    /// Keeps the enabled-bit cache in sync with the proc arena.
    fn note_proc(&mut self, id: u32) {
        let id = id as usize;
        if id == self.proc_enabled.len() {
            self.proc_enabled
                .push(self.procs.arena[id].status.is_enabled());
        }
    }

    /// Interns every object and process state of `config` (sharing its
    /// `Arc`s — no state is deep-copied) and returns the id-word form.
    ///
    /// Equal configurations always produce identical words; see the type
    /// docs for why.
    pub fn intern_config(&mut self, config: &Config) -> CompactConfig {
        let (objects, procs) = config.parts();
        let mut words = Vec::with_capacity(objects.len() + procs.len());
        for obj in objects {
            words.push(self.intern_object_arc(obj));
        }
        for proc in procs {
            words.push(self.intern_proc_arc(proc));
        }
        CompactConfig {
            nobjects: u32::try_from(objects.len()).expect("object count exceeds u32"),
            words: words.into_boxed_slice(),
        }
    }

    /// Rebuilds the deep [`Config`] for a row of id words (`nobjects`
    /// object ids followed by proc ids) — `Arc` clones out of the arenas,
    /// no state is deep-copied.
    ///
    /// # Panics
    ///
    /// Panics if any word was not issued by this interner.
    pub fn materialize_words(&self, nobjects: usize, words: &[u32]) -> Config {
        let objects = words[..nobjects]
            .iter()
            .map(|&id| self.object_arc(id))
            .collect();
        let procs = words[nobjects..]
            .iter()
            .map(|&id| self.proc_arc(id))
            .collect();
        Config::from_parts(objects, procs)
    }

    /// Computes the enabled-process bitset of a row of id words without
    /// touching any state: bit `i` ⇔ process `i` may still step.
    ///
    /// # Panics
    ///
    /// Panics if the row has more than 64 processes or holds foreign ids.
    pub fn enabled_bits(&self, nobjects: usize, words: &[u32]) -> u64 {
        let procs = &words[nobjects..];
        assert!(
            procs.len() <= 64,
            "the explorer supports at most 64 processes"
        );
        let mut bits = 0u64;
        for (i, &id) in procs.iter().enumerate() {
            if self.proc_enabled[id as usize] {
                bits |= 1 << i;
            }
        }
        bits
    }

    /// Interns the fresh states of `pending` (produced by
    /// [`SystemSpec::compact_successors`](crate::SystemSpec::compact_successors))
    /// and returns the fully resolved id words.
    ///
    /// Call this on the single merge thread; worker threads only ever hold
    /// `&StateInterner`.
    pub fn finalize(&mut self, pending: PendingConfig) -> CompactConfig {
        let PendingConfig {
            nobjects,
            mut words,
            fresh,
        } = pending;
        for slot in fresh {
            let id = match slot.state {
                FreshState::Obj(v) => {
                    let arc = Arc::new(v);
                    self.intern_obj_counted(slot.hash, &arc)
                }
                FreshState::Proc(p) => {
                    let arc = Arc::new(p);
                    self.intern_proc_counted(slot.hash, &arc)
                }
            };
            words[slot.slot as usize] = id;
        }
        debug_assert!(!words.contains(&PLACEHOLDER));
        CompactConfig { nobjects, words }
    }

    /// Arena sizes, hit rates and footprint, for post-exploration reports.
    /// O(1): the state bytes are maintained incrementally at intern time,
    /// so budget-driven stores can call this per level without rescanning
    /// the arenas.
    pub fn stats(&self) -> InternerStats {
        let (object_states, ohits, omisses) = self.objs.stats();
        let (proc_states, phits, pmisses) = self.procs.stats();
        InternerStats {
            object_states,
            proc_states,
            hits: ohits + phits,
            requests: ohits + phits + omisses + pmisses,
            table_bytes: self.table_bytes(),
            state_bytes: self.state_bytes(),
        }
    }

    /// Approximate bytes of the arena tables and hash indexes themselves
    /// (O(1)).
    pub fn table_bytes(&self) -> usize {
        self.objs.table_bytes() + self.procs.table_bytes() + self.proc_enabled.len()
    }

    /// Deep bytes of the interned states (O(1)).
    pub fn state_bytes(&self) -> usize {
        self.objs.state_bytes + self.procs.state_bytes
    }
}

/// Approximate deep heap size of one [`Value`].
fn value_bytes(v: &Value) -> usize {
    std::mem::size_of::<Value>()
        + match v {
            Value::Tup(items) => items.iter().map(value_bytes).sum(),
            _ => 0,
        }
}

/// Approximate deep heap size of one [`ProcState`].
fn proc_bytes(p: &ProcState) -> usize {
    let mut n = value_bytes(&p.local);
    n += std::mem::size_of::<Option<Value>>();
    if let Some(r) = &p.resp {
        n += match r {
            Value::Tup(items) => items.iter().map(value_bytes).sum(),
            _ => 0,
        };
    }
    n += std::mem::size_of::<ProcStatus>();
    if let ProcStatus::Decided(Value::Tup(items)) = &p.status {
        n += items.iter().map(value_bytes).sum::<usize>();
    }
    n
}

/// A fully interned configuration: `nobjects` object-state ids followed by
/// one process-state id per process, relative to some [`StateInterner`].
///
/// Equality and hashing are over the id words — constant-time per word, and
/// (by the interning invariant) equivalent to deep [`Config`]
/// equality/hashing when both sides come from the same interner.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CompactConfig {
    nobjects: u32,
    words: Box<[u32]>,
}

impl CompactConfig {
    /// The id words: object ids first, then proc ids.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// The number of object slots.
    pub fn nobjects(&self) -> usize {
        self.nobjects as usize
    }

    /// The number of process slots.
    pub fn nprocs(&self) -> usize {
        self.words.len() - self.nobjects()
    }
}

/// A stepped-but-not-yet-interned configuration.
///
/// Produced by
/// [`SystemSpec::compact_successors`](crate::SystemSpec::compact_successors)
/// on (possibly parallel) worker threads, which may only *read* the
/// interner: slots whose new state is already interned carry its id, and
/// the rare genuinely fresh states ride along in full until
/// [`StateInterner::finalize`] interns them on the merge thread.
///
/// Equality compares resolved words plus the fresh states, which (over one
/// interner snapshot) coincides with deep equality of the configurations
/// they denote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingConfig {
    nobjects: u32,
    words: Box<[u32]>,
    fresh: Vec<FreshSlot>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct FreshSlot {
    slot: u32,
    hash: u64,
    state: FreshState,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum FreshState {
    Obj(Value),
    Proc(ProcState),
}

impl PendingConfig {
    pub(crate) fn copy_of(nobjects: usize, words: &[u32]) -> Self {
        PendingConfig {
            nobjects: u32::try_from(nobjects).expect("object count exceeds u32"),
            words: words.into(),
            fresh: Vec::new(),
        }
    }

    /// The number of object slots.
    pub fn nobjects(&self) -> usize {
        self.nobjects as usize
    }

    /// The number of process slots.
    pub fn nprocs(&self) -> usize {
        self.words.len() - self.nobjects()
    }

    /// `true` when every slot already carries an interned id — the id
    /// words then fully identify the configuration, and
    /// [`PendingConfig::resolved_words`] returns them.
    pub fn is_resolved(&self) -> bool {
        self.fresh.is_empty()
    }

    /// The id words, if every slot is resolved (see
    /// [`PendingConfig::is_resolved`]).
    pub fn resolved_words(&self) -> Option<&[u32]> {
        self.is_resolved().then_some(&*self.words)
    }

    /// Points slot `slot` at `state`: an arena id if the interner already
    /// holds it, else a fresh ride-along.
    fn set_slot(
        &mut self,
        slot: usize,
        hash: u64,
        id: Option<u32>,
        state: impl FnOnce() -> FreshState,
    ) {
        self.fresh.retain(|f| f.slot as usize != slot);
        match id {
            Some(id) => self.words[slot] = id,
            None => {
                self.words[slot] = PLACEHOLDER;
                self.fresh.push(FreshSlot {
                    slot: u32::try_from(slot).expect("slot exceeds u32"),
                    hash,
                    state: state(),
                });
            }
        }
    }

    pub(crate) fn set_object_state(
        &mut self,
        interner: &StateInterner,
        index: usize,
        state: Value,
    ) {
        let hash = hash_one(&state);
        let id = interner.lookup_object_hashed(hash, &state);
        self.set_slot(index, hash, id, || FreshState::Obj(state));
    }

    pub(crate) fn set_proc_state(
        &mut self,
        interner: &StateInterner,
        index: usize,
        state: ProcState,
    ) {
        let slot = self.nobjects() + index;
        let hash = hash_one(&state);
        let id = interner.lookup_proc_hashed(hash, &state);
        self.set_slot(slot, hash, id, || FreshState::Proc(state));
    }

    /// The object state at `index`, resolving through the interner or the
    /// fresh ride-alongs.
    pub(crate) fn object_ref<'a>(&'a self, interner: &'a StateInterner, index: usize) -> &'a Value {
        match self.fresh_at(index) {
            Some(FreshState::Obj(v)) => v,
            _ => interner.object(self.words[index]),
        }
    }

    /// The process state at `index`, resolving through the interner or the
    /// fresh ride-alongs.
    pub(crate) fn proc_ref<'a>(
        &'a self,
        interner: &'a StateInterner,
        index: usize,
    ) -> &'a ProcState {
        let slot = self.nobjects() + index;
        match self.fresh_at(slot) {
            Some(FreshState::Proc(p)) => p,
            _ => interner.proc(self.words[slot]),
        }
    }

    /// `true` when processes `a` and `b` carry the same *resolved* id —
    /// by the interning invariant, a proof their states are equal. `false`
    /// says nothing (one side may be an unresolved fresh slot).
    pub(crate) fn procs_equal_ids(&self, a: usize, b: usize) -> bool {
        let (wa, wb) = (
            self.words[self.nobjects() + a],
            self.words[self.nobjects() + b],
        );
        wa != PLACEHOLDER && wa == wb
    }

    fn fresh_at(&self, slot: usize) -> Option<&FreshState> {
        self.fresh
            .iter()
            .find(|f| f.slot as usize == slot)
            .map(|f| &f.state)
    }

    /// Rearranges the process slots by `perm` (`perm[old] = new`), exactly
    /// like [`Config::permuted`], rewriting fresh-slot positions too.
    pub(crate) fn permute_procs(&mut self, perm: &[usize]) {
        let nobjects = self.nobjects();
        debug_assert_eq!(perm.len(), self.nprocs(), "permutation length mismatch");
        let old = self.words.clone();
        for (old_i, &new_i) in perm.iter().enumerate() {
            self.words[nobjects + new_i] = old[nobjects + old_i];
        }
        for f in &mut self.fresh {
            let slot = f.slot as usize;
            if slot >= nobjects {
                f.slot = u32::try_from(nobjects + perm[slot - nobjects]).expect("slot exceeds u32");
            }
        }
    }
}

/// Arena sizes, hit rates and memory footprint of a [`StateInterner`],
/// reported after exploration (see the e9 bench's `INTERNER_STATS`
/// summary).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InternerStats {
    /// Distinct object states interned.
    pub object_states: usize,
    /// Distinct process states interned.
    pub proc_states: usize,
    /// Total lookup/intern requests served.
    pub requests: u64,
    /// Requests answered with an already-interned id.
    pub hits: u64,
    /// Approximate bytes of the arenas and hash indexes themselves.
    pub table_bytes: usize,
    /// Approximate deep bytes of the unique states stored once each.
    pub state_bytes: usize,
}

impl InternerStats {
    /// Fraction of requests answered from the arena (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Estimated bytes *not* allocated thanks to sharing: every hit would
    /// otherwise have materialized its own copy of an average-sized state.
    pub fn bytes_saved(&self) -> u64 {
        let unique = (self.object_states + self.proc_states) as u64;
        if unique == 0 {
            return 0;
        }
        self.hits * (self.state_bytes as u64 / unique)
    }

    /// The stats as one flat JSON object (the `interner` field of the e9
    /// bench rows).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"object_states\": {}, \"proc_states\": {}, \
             \"hit_rate\": {}, \"table_bytes\": {}, \"state_bytes\": {}, \
             \"bytes_saved\": {}}}",
            self.object_states,
            self.proc_states,
            crate::json::json_f64(self.hit_rate()),
            self.table_bytes,
            self.state_bytes,
            self.bytes_saved()
        )
    }
}

impl fmt::Display for InternerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interner: {} object states, {} proc states, {}/{} hits ({:.1}%), \
             ~{} table bytes, ~{} state bytes, ~{} bytes saved",
            self.object_states,
            self.proc_states,
            self.hits,
            self.requests,
            self.hit_rate() * 100.0,
            self.table_bytes,
            self.state_bytes,
            self.bytes_saved(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_interning_is_idempotent() {
        let mut pool: Pool<Value> = Pool::default();
        let a = Arc::new(Value::Int(1));
        let b = Arc::new(Value::Int(2));
        let ia = pool.intern_hashed(hash_one(&*a), &a, || Arc::clone(&a));
        let ib = pool.intern_hashed(hash_one(&*b), &b, || Arc::clone(&b));
        assert_ne!(ia, ib);
        let ia2 = pool.intern_hashed(hash_one(&*a), &a, || Arc::clone(&a));
        assert_eq!(ia, ia2);
        assert_eq!(pool.arena.len(), 2);
        assert_eq!(pool.lookup_hashed(hash_one(&*b), &b), Some(ib));
        assert_eq!(
            pool.lookup_hashed(hash_one(&Value::Int(3)), &Value::Int(3)),
            None
        );
    }

    #[test]
    fn stats_track_hits_and_sizes() {
        let mut interner = StateInterner::new();
        let v = Arc::new(Value::tup([Value::Int(1), Value::Nil]));
        interner.intern_object_arc(&v);
        interner.intern_object_arc(&v);
        let stats = interner.stats();
        assert_eq!(stats.object_states, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.requests, 2);
        assert!(stats.state_bytes > 0);
        assert!(stats.hit_rate() > 0.4 && stats.hit_rate() < 0.6);
        assert!(stats.bytes_saved() > 0);
        let shown = stats.to_string();
        assert!(shown.contains("object states"), "{shown}");
    }

    #[test]
    fn enabled_bits_follow_proc_status() {
        let mut interner = StateInterner::new();
        let running = Arc::new(ProcState {
            local: Value::Nil,
            resp: None,
            status: ProcStatus::Running,
        });
        let decided = Arc::new(ProcState {
            local: Value::Nil,
            resp: None,
            status: ProcStatus::Decided(Value::Int(0)),
        });
        let r = interner.intern_proc_arc(&running);
        let d = interner.intern_proc_arc(&decided);
        assert_eq!(interner.enabled_bits(0, &[r, d, r]), 0b101);
    }

    #[test]
    fn pending_permute_moves_fresh_slots() {
        let mut interner = StateInterner::new();
        let base = Arc::new(ProcState {
            local: Value::Nil,
            resp: None,
            status: ProcStatus::Fresh,
        });
        let id = interner.intern_proc_arc(&base);
        let mut pending = PendingConfig::copy_of(0, &[id, id]);
        pending.set_proc_state(
            &interner,
            0,
            ProcState {
                local: Value::Int(7),
                resp: None,
                status: ProcStatus::Running,
            },
        );
        assert!(!pending.is_resolved());
        // Swap the two procs: the fresh state must follow slot 0 → 1.
        pending.permute_procs(&[1, 0]);
        assert_eq!(pending.proc_ref(&interner, 0).local, Value::Nil);
        assert_eq!(pending.proc_ref(&interner, 1).local, Value::Int(7));
        let compact = interner.finalize(pending);
        assert_eq!(compact.words()[0], id);
        assert_eq!(interner.proc(compact.words()[1]).local, Value::Int(7));
    }
}
