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

/// Ids per evictable arena segment. Segments are the unit of disk spill:
/// the id space `[seg * ARENA_SEGMENT, (seg + 1) * ARENA_SEGMENT)` is
/// encoded, evicted and restored as a whole. Only *complete* segments are
/// evictable — the tail the interner is still appending into stays
/// resident, so interning new states never needs a fault.
pub const ARENA_SEGMENT: usize = 64;

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
    /// `None` marks a state whose segment was evicted to disk: its id,
    /// content hash and index entry all stay valid (the arena is
    /// append-only in id space), only the value itself is cold.
    /// `Option<Arc<T>>` is pointer-sized, so eviction costs no table space.
    arena: Vec<Option<Arc<T>>>,
    /// `hashes[id]` is the content hash of `arena[id]` — the same value the
    /// state was interned under; debug builds check restored segments
    /// against it. Never evicted.
    hashes: Vec<u64>,
    /// Hash → candidate ids, verified by full equality (hash collisions are
    /// survivable, just slow).
    index: HashMap<u64, Vec<u32>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Deep bytes of the states currently resident, maintained
    /// incrementally (insert adds, evict subtracts, restore re-adds) so
    /// budget estimates and [`StateInterner::stats`] are O(1).
    resident_bytes: usize,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool {
            arena: Vec::new(),
            hashes: Vec::new(),
            index: HashMap::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            resident_bytes: 0,
        }
    }
}

impl<T> Clone for Pool<T> {
    fn clone(&self) -> Self {
        Pool {
            arena: self.arena.clone(),
            hashes: self.hashes.clone(),
            index: self.index.clone(),
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
            resident_bytes: self.resident_bytes,
        }
    }
}

impl<T: Eq + Hash> Pool<T> {
    /// Finds the id of `value` if it is already interned **and resident**.
    ///
    /// A candidate whose segment was evicted is skipped — a *false miss*.
    /// That is safe on the worker path: a missed state rides along by value
    /// in the [`PendingConfig`] and the authoritative merge-side intern
    /// dedups it (after restoring the cold segment; see
    /// [`StateInterner::cold_segments_for_pending`]).
    fn lookup_hashed(&self, hash: u64, value: &T) -> Option<u32> {
        let found = self.index.get(&hash).and_then(|ids| {
            ids.iter()
                .copied()
                .find(|&id| self.arena[id as usize].as_deref() == Some(value))
        });
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Interns `value` (supplied as a closure so callers holding an `Arc`
    /// can share it instead of re-allocating), returning its id.
    ///
    /// # Panics
    ///
    /// Panics if a hash-colliding candidate is evicted: appending without
    /// comparing against it could create a duplicate id for an equal state
    /// and silently break the `id(a) == id(b) ⇔ a == b` invariant. Callers
    /// on the merge path must restore the segments named by
    /// [`StateInterner::cold_segments_for_pending`] first.
    fn intern_hashed(&mut self, hash: u64, value: &T, make: impl FnOnce() -> Arc<T>) -> u32 {
        if let Some(id) = self.lookup_hashed(hash, value) {
            return id;
        }
        if let Some(ids) = self.index.get(&hash) {
            assert!(
                ids.iter().all(|&id| self.arena[id as usize].is_some()),
                "interning against an evicted candidate — restore its segment first"
            );
        }
        let id = u32::try_from(self.arena.len()).expect("interner arena exceeds u32 ids");
        self.arena.push(Some(make()));
        self.hashes.push(hash);
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
        self.arena.len() * std::mem::size_of::<Option<Arc<T>>>()
            + self.hashes.len() * std::mem::size_of::<u64>()
            + self.index.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u32>>())
            + self.arena.len() * std::mem::size_of::<u32>()
    }

    /// Number of *complete* (hence evictable) segments.
    fn complete_segments(&self) -> usize {
        self.arena.len() / ARENA_SEGMENT
    }

    fn segment_range(&self, seg: usize) -> std::ops::Range<usize> {
        let lo = seg * ARENA_SEGMENT;
        let hi = lo + ARENA_SEGMENT;
        assert!(hi <= self.arena.len(), "segment {seg} is not complete");
        lo..hi
    }

    /// Whether segment `seg` is resident (segments evict and restore as a
    /// whole, so the first slot speaks for all of them).
    fn segment_resident(&self, seg: usize) -> bool {
        self.arena[self.segment_range(seg).start].is_some()
    }

    /// Drops the values of segment `seg`, returning the deep bytes freed
    /// (`size` measures one value; must match the insert-time accounting).
    fn evict_segment(&mut self, seg: usize, size: impl Fn(&T) -> usize) -> usize {
        let mut freed = 0;
        for slot in self.segment_range(seg) {
            let v = self.arena[slot]
                .take()
                .expect("evicting a segment that is not resident");
            freed += size(&v);
        }
        self.resident_bytes -= freed;
        freed
    }

    /// Segments holding *evicted* dedup candidates for `hash` — what the
    /// merge path must restore before it may intern a state with this hash.
    fn cold_candidate_segments(&self, hash: u64) -> Vec<usize> {
        let mut segs = Vec::new();
        if let Some(ids) = self.index.get(&hash) {
            for &id in ids {
                if self.arena[id as usize].is_none() {
                    let seg = id as usize / ARENA_SEGMENT;
                    if !segs.contains(&seg) {
                        segs.push(seg);
                    }
                }
            }
        }
        segs
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
/// assert_eq!(compact.materialize(&interner), spec.initial_config());
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
    /// Panics if `id` was not issued by this interner, or if its segment is
    /// evicted (restore it first; see
    /// [`restore_object_segment`](Self::restore_object_segment)).
    pub fn object(&self, id: u32) -> &Value {
        self.objs.arena[id as usize]
            .as_deref()
            .expect("object state evicted — restore its segment before dereferencing")
    }

    /// Returns the interned process state with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this interner, or if its segment is
    /// evicted (restore it first; see
    /// [`restore_proc_segment`](Self::restore_proc_segment)).
    pub fn proc(&self, id: u32) -> &ProcState {
        self.procs.arena[id as usize]
            .as_deref()
            .expect("proc state evicted — restore its segment before dereferencing")
    }

    pub(crate) fn object_arc(&self, id: u32) -> Arc<Value> {
        Arc::clone(
            self.objs.arena[id as usize]
                .as_ref()
                .expect("object state evicted — restore its segment before dereferencing"),
        )
    }

    pub(crate) fn proc_arc(&self, id: u32) -> Arc<ProcState> {
        Arc::clone(
            self.procs.arena[id as usize]
                .as_ref()
                .expect("proc state evicted — restore its segment before dereferencing"),
        )
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
    /// keeps the incremental resident-byte counter in step with genuinely
    /// new states.
    fn intern_obj_counted(&mut self, hash: u64, state: &Arc<Value>) -> u32 {
        let before = self.objs.arena.len();
        let id = self.objs.intern_hashed(hash, state, || Arc::clone(state));
        if self.objs.arena.len() > before {
            self.objs.resident_bytes += value_bytes(state);
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
            self.procs.resident_bytes += proc_bytes(state);
        }
        self.note_proc(id);
        id
    }

    /// Keeps the enabled-bit cache in sync with the proc arena.
    fn note_proc(&mut self, id: u32) {
        let id = id as usize;
        if id == self.proc_enabled.len() {
            let state = self.procs.arena[id]
                .as_ref()
                .expect("freshly interned proc state is always resident");
            self.proc_enabled.push(state.status.is_enabled());
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
            "EnabledSet supports at most 64 processes"
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
    /// O(1): the state bytes are maintained incrementally at intern /
    /// evict / restore time, so budget-driven stores can call this per
    /// level without rescanning the arenas.
    pub fn stats(&self) -> InternerStats {
        let (object_states, ohits, omisses) = self.objs.stats();
        let (proc_states, phits, pmisses) = self.procs.stats();
        InternerStats {
            object_states,
            proc_states,
            hits: ohits + phits,
            requests: ohits + phits + omisses + pmisses,
            table_bytes: self.table_bytes(),
            state_bytes: self.resident_state_bytes(),
        }
    }

    /// Approximate bytes of the arena tables and hash indexes themselves
    /// (never evicted; O(1)).
    pub fn table_bytes(&self) -> usize {
        self.objs.table_bytes() + self.procs.table_bytes() + self.proc_enabled.len()
    }

    /// Deep bytes of the states currently resident in the arenas (O(1);
    /// equals the full state footprint when nothing is evicted).
    pub fn resident_state_bytes(&self) -> usize {
        self.objs.resident_bytes + self.procs.resident_bytes
    }

    /// Number of complete — hence evictable — object-arena segments.
    pub fn object_segments(&self) -> usize {
        self.objs.complete_segments()
    }

    /// Number of complete — hence evictable — proc-arena segments.
    pub fn proc_segments(&self) -> usize {
        self.procs.complete_segments()
    }

    /// Whether object segment `seg` is resident.
    pub fn object_segment_resident(&self, seg: usize) -> bool {
        self.objs.segment_resident(seg)
    }

    /// Whether proc segment `seg` is resident.
    pub fn proc_segment_resident(&self, seg: usize) -> bool {
        self.procs.segment_resident(seg)
    }

    /// Serializes object segment `seg` (resident, complete) into the
    /// std-only binary form [`restore_object_segment`](Self::restore_object_segment)
    /// reads back. Encoding is a pure function of the segment's values, so
    /// re-encoding a restored segment is byte-identical.
    pub fn encode_object_segment(&self, seg: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for slot in self.objs.segment_range(seg) {
            let v = self.objs.arena[slot]
                .as_deref()
                .expect("encoding an evicted object segment");
            encode_value(v, &mut out);
        }
        out
    }

    /// Serializes proc segment `seg` (see
    /// [`encode_object_segment`](Self::encode_object_segment)).
    pub fn encode_proc_segment(&self, seg: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for slot in self.procs.segment_range(seg) {
            let p = self.procs.arena[slot]
                .as_deref()
                .expect("encoding an evicted proc segment");
            encode_proc_state(p, &mut out);
        }
        out
    }

    /// Drops the values of object segment `seg`, returning the deep bytes
    /// freed. Ids, content hashes, the dedup index and the enabled-bit
    /// cache all stay — only dereferencing the values needs a restore.
    pub fn evict_object_segment(&mut self, seg: usize) -> usize {
        self.objs.evict_segment(seg, value_bytes)
    }

    /// Drops the values of proc segment `seg` (see
    /// [`evict_object_segment`](Self::evict_object_segment)).
    pub fn evict_proc_segment(&mut self, seg: usize) -> usize {
        self.procs.evict_segment(seg, proc_bytes)
    }

    /// Restores object segment `seg` from
    /// [`encode_object_segment`](Self::encode_object_segment) bytes,
    /// returning the deep bytes now resident again. Decoded values hash
    /// and compare identically to the originals, so every id keeps
    /// denoting the same state.
    ///
    /// # Panics
    ///
    /// Panics on malformed bytes or if the segment is already resident.
    pub fn restore_object_segment(&mut self, seg: usize, bytes: &[u8]) -> usize {
        let range = self.objs.segment_range(seg);
        let mut pos = 0;
        let mut restored = 0;
        for slot in range {
            assert!(
                self.objs.arena[slot].is_none(),
                "restoring an already-resident object segment"
            );
            let v = decode_value(bytes, &mut pos);
            debug_assert_eq!(
                hash_one(&v),
                self.objs.hashes[slot],
                "restored object state hashes differently than at intern time"
            );
            restored += value_bytes(&v);
            self.objs.arena[slot] = Some(Arc::new(v));
        }
        assert_eq!(pos, bytes.len(), "trailing bytes in object segment");
        self.objs.resident_bytes += restored;
        restored
    }

    /// Restores proc segment `seg` (see
    /// [`restore_object_segment`](Self::restore_object_segment)).
    pub fn restore_proc_segment(&mut self, seg: usize, bytes: &[u8]) -> usize {
        let range = self.procs.segment_range(seg);
        let mut pos = 0;
        let mut restored = 0;
        for slot in range {
            assert!(
                self.procs.arena[slot].is_none(),
                "restoring an already-resident proc segment"
            );
            let p = decode_proc_state(bytes, &mut pos);
            debug_assert_eq!(
                hash_one(&p),
                self.procs.hashes[slot],
                "restored proc state hashes differently than at intern time"
            );
            restored += proc_bytes(&p);
            self.procs.arena[slot] = Some(Arc::new(p));
        }
        assert_eq!(pos, bytes.len(), "trailing bytes in proc segment");
        self.procs.resident_bytes += restored;
        restored
    }

    /// The evicted segments that must be restored before
    /// [`finalize`](Self::finalize) may intern `pending`'s fresh states:
    /// every hash-colliding dedup candidate has to be resident for the
    /// merge-side compare (a cold candidate would otherwise either panic
    /// or, worse, let an equal state intern twice). Returns
    /// `(is_proc, segment)` pairs, deduplicated.
    pub fn cold_segments_for_pending(&self, pending: &PendingConfig, out: &mut Vec<(bool, usize)>) {
        for f in &pending.fresh {
            let (is_proc, pool_cold) = match f.state {
                FreshState::Obj(_) => (false, self.objs.cold_candidate_segments(f.hash)),
                FreshState::Proc(_) => (true, self.procs.cold_candidate_segments(f.hash)),
            };
            for seg in pool_cold {
                if !out.contains(&(is_proc, seg)) {
                    out.push((is_proc, seg));
                }
            }
        }
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

// --- arena segment codec -------------------------------------------------
//
// A std-only, self-delimiting binary form for the two arena state types,
// used by the disk store to spill cold segments. The encoding is a pure
// function of the value (no ids, no interner history), so encode →
// decode → encode is byte-stable, and decoded values are `Eq`/`Hash`
// identical to the originals — which is exactly what keeps interner ids
// meaningful across an evict/restore cycle.

const TAG_NIL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_SYM: u8 = 3;
const TAG_TUP: u8 = 4;

fn put_u32(n: u32, out: &mut Vec<u8>) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> u32 {
    let n = u32::from_le_bytes(
        bytes[*pos..*pos + 4]
            .try_into()
            .expect("truncated u32 in segment"),
    );
    *pos += 4;
    n
}

fn take_u8(bytes: &[u8], pos: &mut usize) -> u8 {
    let b = bytes[*pos];
    *pos += 1;
    b
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Nil => out.push(TAG_NIL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Sym(s) => {
            out.push(TAG_SYM);
            put_u32(
                u32::try_from(s.len()).expect("symbol length exceeds u32"),
                out,
            );
            out.extend_from_slice(s.as_bytes());
        }
        Value::Tup(items) => {
            out.push(TAG_TUP);
            put_u32(
                u32::try_from(items.len()).expect("tuple length exceeds u32"),
                out,
            );
            for item in items {
                encode_value(item, out);
            }
        }
    }
}

fn decode_value(bytes: &[u8], pos: &mut usize) -> Value {
    match take_u8(bytes, pos) {
        TAG_NIL => Value::Nil,
        TAG_BOOL => Value::Bool(take_u8(bytes, pos) != 0),
        TAG_INT => {
            let i = i64::from_le_bytes(
                bytes[*pos..*pos + 8]
                    .try_into()
                    .expect("truncated i64 in segment"),
            );
            *pos += 8;
            Value::Int(i)
        }
        TAG_SYM => {
            let len = take_u32(bytes, pos) as usize;
            let s =
                std::str::from_utf8(&bytes[*pos..*pos + len]).expect("non-UTF-8 symbol in segment");
            *pos += len;
            Value::Sym(leak_symbol(s))
        }
        TAG_TUP => {
            let len = take_u32(bytes, pos) as usize;
            Value::Tup((0..len).map(|_| decode_value(bytes, pos)).collect())
        }
        tag => panic!("unknown value tag {tag} in segment"),
    }
}

const STATUS_FRESH: u8 = 0;
const STATUS_RUNNING: u8 = 1;
const STATUS_DECIDED: u8 = 2;
const STATUS_HUNG: u8 = 3;

fn encode_proc_state(p: &ProcState, out: &mut Vec<u8>) {
    encode_value(&p.local, out);
    match &p.resp {
        None => out.push(0),
        Some(r) => {
            out.push(1);
            encode_value(r, out);
        }
    }
    match &p.status {
        ProcStatus::Fresh => out.push(STATUS_FRESH),
        ProcStatus::Running => out.push(STATUS_RUNNING),
        ProcStatus::Decided(v) => {
            out.push(STATUS_DECIDED);
            encode_value(v, out);
        }
        ProcStatus::Hung => out.push(STATUS_HUNG),
    }
}

fn decode_proc_state(bytes: &[u8], pos: &mut usize) -> ProcState {
    let local = decode_value(bytes, pos);
    let resp = match take_u8(bytes, pos) {
        0 => None,
        1 => Some(decode_value(bytes, pos)),
        tag => panic!("unknown resp tag {tag} in segment"),
    };
    let status = match take_u8(bytes, pos) {
        STATUS_FRESH => ProcStatus::Fresh,
        STATUS_RUNNING => ProcStatus::Running,
        STATUS_DECIDED => ProcStatus::Decided(decode_value(bytes, pos)),
        STATUS_HUNG => ProcStatus::Hung,
        tag => panic!("unknown status tag {tag} in segment"),
    };
    ProcState {
        local,
        resp,
        status,
    }
}

/// Interns a decoded symbol string into a process-global `&'static str`
/// table. `Value::Sym` carries `&'static str` (normally string literals);
/// decode has to mint an equal one. `Value`'s `Eq`/`Hash` go through str
/// *content*, so a leaked copy is indistinguishable from the literal — and
/// the table bounds the leak at one allocation per distinct symbol per
/// process, no matter how many segments are restored.
fn leak_symbol(s: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::sync::OnceLock;
    static SYMBOLS: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut table = SYMBOLS
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .expect("symbol table lock");
    match table.get(s) {
        Some(interned) => interned,
        None => {
            let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
            table.insert(leaked);
            leaked
        }
    }
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

    /// Rebuilds the deep [`Config`] (see
    /// [`StateInterner::materialize_words`]).
    pub fn materialize(&self, interner: &StateInterner) -> Config {
        interner.materialize_words(self.nobjects(), &self.words)
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
#[derive(Clone, Debug)]
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
    fn value_codec_round_trips_all_variants() {
        let v = Value::tup([
            Value::Nil,
            Value::Bool(true),
            Value::Int(-42),
            Value::Sym("opened"),
            Value::tup([Value::Int(7), Value::Sym("x")]),
        ]);
        let mut bytes = Vec::new();
        encode_value(&v, &mut bytes);
        let mut pos = 0;
        let back = decode_value(&bytes, &mut pos);
        assert_eq!(pos, bytes.len());
        assert_eq!(back, v);
        assert_eq!(
            hash_one(&back),
            hash_one(&v),
            "decoded value must rehash equal"
        );
        // Re-encoding the decoded value is byte-identical.
        let mut again = Vec::new();
        encode_value(&back, &mut again);
        assert_eq!(again, bytes);
        // Proc states, through every status.
        for status in [
            ProcStatus::Fresh,
            ProcStatus::Running,
            ProcStatus::Decided(Value::Sym("yes")),
            ProcStatus::Hung,
        ] {
            let p = ProcState {
                local: v.clone(),
                resp: Some(Value::Int(1)),
                status,
            };
            let mut b = Vec::new();
            encode_proc_state(&p, &mut b);
            let mut pos = 0;
            let back = decode_proc_state(&b, &mut pos);
            assert_eq!(pos, b.len());
            assert_eq!(back, p);
            assert_eq!(hash_one(&back), hash_one(&p));
        }
    }

    #[test]
    fn segment_evict_restore_preserves_ids_and_bytes() {
        let mut interner = StateInterner::new();
        // Fill two complete object segments plus a partial tail.
        let total = 2 * ARENA_SEGMENT + 3;
        for i in 0..total {
            interner.intern_object_arc(&Arc::new(Value::Int(i as i64)));
        }
        assert_eq!(interner.object_segments(), 2);
        let full_bytes = interner.resident_state_bytes();
        let encoded = interner.encode_object_segment(0);
        let freed = interner.evict_object_segment(0);
        assert!(freed > 0);
        assert!(!interner.object_segment_resident(0));
        assert!(interner.object_segment_resident(1));
        assert_eq!(interner.resident_state_bytes(), full_bytes - freed);
        // Evicted candidates become worker-side false misses, never wrong
        // ids.
        let v = Value::Int(0);
        assert_eq!(interner.lookup_object_hashed(hash_one(&v), &v), None);
        // Restore: same ids denote the same states, bytes return exactly.
        let restored = interner.restore_object_segment(0, &encoded);
        assert_eq!(restored, freed);
        assert_eq!(interner.resident_state_bytes(), full_bytes);
        assert_eq!(interner.object(0), &Value::Int(0));
        assert_eq!(
            interner.lookup_object_hashed(hash_one(&v), &v),
            Some(0),
            "restored candidate deduplicates onto its original id"
        );
        // Re-encoding the restored segment is byte-identical.
        assert_eq!(interner.encode_object_segment(0), encoded);
    }

    #[test]
    fn cold_segments_name_exactly_the_evicted_candidates() {
        let mut interner = StateInterner::new();
        for i in 0..ARENA_SEGMENT + 1 {
            interner.intern_proc_arc(&Arc::new(ProcState {
                local: Value::Int(i as i64),
                resp: None,
                status: ProcStatus::Running,
            }));
        }
        let encoded = interner.encode_proc_segment(0);
        interner.evict_proc_segment(0);
        // A pending config whose fresh proc equals an evicted state must
        // name segment 0; one equal to the resident tail state must not.
        let mk_pending = |interner: &StateInterner, i: i64| {
            let mut pending = PendingConfig::copy_of(0, &[PLACEHOLDER]);
            pending.set_proc_state(
                interner,
                0,
                ProcState {
                    local: Value::Int(i),
                    resp: None,
                    status: ProcStatus::Running,
                },
            );
            pending
        };
        let cold_hit = mk_pending(&interner, 0);
        let mut cold = Vec::new();
        interner.cold_segments_for_pending(&cold_hit, &mut cold);
        assert_eq!(cold, vec![(true, 0)]);
        let warm = mk_pending(&interner, ARENA_SEGMENT as i64);
        assert!(
            warm.is_resolved(),
            "tail state is resident, worker lookup resolves it"
        );
        // After restoring, finalize dedups the cold-hit onto its old id.
        interner.restore_proc_segment(0, &encoded);
        let compact = interner.finalize(cold_hit);
        assert_eq!(compact.words(), &[0]);
    }

    #[test]
    #[should_panic(expected = "interning against an evicted candidate")]
    fn interning_against_cold_candidate_panics_instead_of_duplicating() {
        let mut interner = StateInterner::new();
        for i in 0..ARENA_SEGMENT {
            interner.intern_object_arc(&Arc::new(Value::Int(i as i64)));
        }
        interner.evict_object_segment(0);
        // Equal to an evicted state: blind interning would mint a second id
        // for it and break the id ⇔ value bijection. The pool refuses.
        interner.intern_object_arc(&Arc::new(Value::Int(5)));
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
