//! The transition memo.
//!
//! In the oblivious object model one step is a pure function of the
//! stepping process, its process state and the state of the object it
//! targets: [`Protocol::step`](crate::Protocol::step) sees only the
//! protocol instance, the process's own context (pid, process count,
//! input), local state and last response, and
//! [`ObjectSpec::apply`](crate::ObjectSpec::apply) only the object state and
//! the operation (both contracts are stated on the traits). Over one
//! [`StateInterner`], whose ids stand for states one-to-one, a step is
//! therefore a function of ids, and a [`TransitionMemo`] stores it under
//! two keys:
//!
//! * `(process key, proc id)` → the process's next action, reduced to its
//!   [`StepFootprint`] plus one interned process state that carries the
//!   action's in-flight local state (for a decide: the decided successor
//!   itself). The same entry answers the partial-order reduction's
//!   footprint query, so a footprint and a step share one protocol step.
//! * `(process key, proc id, targeted object-state id)` → the step's
//!   distinct outcomes as `(object-state id, proc id)` pairs, in the
//!   object's outcome order, in one flat array. Hangs and multiple
//!   outcomes (a set-consensus object's outcome list) are kept exactly.
//!
//! A *process key* names a process identity — protocol `Arc`, pid,
//! process count and input — and is scoped to the memo, not to one
//! system: [`TransitionMemo::bind`] resolves the keys of a system's
//! processes once, and systems built over the same object `Arc` (see
//! [`SystemSpec::with_processes`]) share every step their equal
//! identities take. So one memo and one interner can serve many
//! explorations; bound to a single system, the keys are just `0..n` in
//! pid order.
//!
//! [`SystemSpec::memo_successors`] answers a known transition with id
//! copies — no protocol step, no `apply`, no hashing of state values. On a
//! miss it steps (with the memoized action, if any) and resolves each
//! outcome state against the interner: an id if it is already interned,
//! else the fresh state with its hash. Either way the outcomes land in one
//! buffer, and [`MemoSuccessors::successor`] writes each successor from it
//! into one reused row. [`SystemSpec::memo_footprint`] answers the
//! footprint query the same way, and
//! [`SystemSpec::canonicalize_in_place`](crate::SystemSpec::canonicalize_in_place)
//! sorts the row in id space; these three are the id-space entry points.
//! The deep [`SystemSpec::successors`](crate::SystemSpec::successors) and
//! [`SystemSpec::canonicalize_config_perm`](crate::SystemSpec::canonicalize_config_perm)
//! stay as the references the tests check them against.
//!
//! Readers never write: a miss whose outcome states were all already
//! interned is recorded in the caller's [`MemoLog`], and a single writer
//! [`absorb`](TransitionMemo::absorb)s the logs in a fixed order. A miss
//! with a fresh state is not recorded (its ids do not exist yet); it is
//! recorded the next time it recurs. What the memo holds is therefore a
//! function of the interner's contents, never of how the work was split.
//! Errors are never recorded: a step that fails returns before anything is
//! logged.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::size_of;
use std::sync::Arc;

use crate::error::SimError;
use crate::ids::{ObjId, Pid};
use crate::intern::{PendingConfig, SlotState, StateInterner};
use crate::object::ObjectSpec;
use crate::op::Op;
use crate::protocol::{Action, Protocol};
use crate::system::{ProcState, StepFootprint, SystemSpec};
use crate::value::Value;

/// The object-state word of an outcome that touches no object (a decide).
const NO_OBJECT: u32 = u32::MAX;

/// A multiplicative hasher for small keys of interner ids: the keys are
/// dense integers produced by this process, so a DoS-resistant hash buys
/// nothing here and costs a large share of a memo hit.
#[derive(Clone, Copy, Debug, Default)]
struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A fully mixed 64-bit hash of a row of interner ids: the memo's
/// multiply–rotate step per word, then the `splitmix64` finalizer, so
/// every bit of the result depends on every word and a table can take
/// its index straight from the low bits. Like the memo's keys, the rows
/// are ids this process issued, so a DoS-resistant hash would buy
/// nothing; the model checker's fingerprint index is keyed by it.
pub fn hash_id_words(words: &[u32]) -> u64 {
    let mut h = IdHasher::default();
    for &word in words {
        h.add(u64::from(word));
    }
    let mut x = h.0;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `(process key, proc id)`.
type ActionKey = (u32, u32);

/// `(process key, proc id, targeted object-state id)`.
type TransitionKey = (u32, u32, u32);

/// What one process's steps are a function of besides its own state: its
/// protocol instance (the `Arc`'s data pointer) and its [`ProcCtx`](crate::ProcCtx)
/// — pid, process count and input.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct ProcessIdentity {
    protocol: usize,
    pid: Pid,
    nprocs: usize,
    input: Value,
}

/// A memoized action of one `(process key, proc id)`.
#[derive(Clone, Debug)]
struct MemoAction {
    footprint: StepFootprint,
    /// For a decide ([`StepFootprint::Local`]), the decided successor's
    /// proc id. For an invocation, the proc id of one of its outcomes,
    /// whose `local` is the action's in-flight local state.
    proc: u32,
}

/// Approximate resident bytes per map entry beyond the key and value: the
/// control byte plus the table's slack at its maximum load factor.
const MAP_ENTRY_OVERHEAD: usize = 8;

/// A memo of the transitions taken by the explorations run over one
/// [`StateInterner`], keyed by interner ids and process keys — see the
/// module docs. Ids are only meaningful relative to the interner the memo
/// was filled against, and the memo must be [`bind`](Self::bind)ed to a
/// system before it is stepped through.
#[derive(Debug, Default)]
pub struct TransitionMemo {
    actions: IdMap<ActionKey, MemoAction>,
    transitions: IdMap<TransitionKey, (u32, u32)>,
    /// The outcomes of every transition, `(object-state id, proc id)`;
    /// `transitions` values are `(start, len)` ranges into it.
    outcomes: Vec<[u32; 2]>,
    /// Approximate heap bytes of the memoized operations' arguments.
    op_bytes: usize,
    /// The object specs every memoized outcome was computed by.
    objects: Option<Arc<Vec<Box<dyn ObjectSpec>>>>,
    /// The process key of every process identity seen since the objects
    /// were adopted.
    process_keys: HashMap<ProcessIdentity, u32>,
    /// A clone of every keyed protocol, so no keyed address can be reused
    /// by another protocol while the memo lives.
    protocols: Vec<Arc<dyn Protocol>>,
    /// `keys[pid]`: the process key of `pid` in the bound system.
    keys: Vec<u32>,
}

impl TransitionMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds the memo to `spec` for the steps that follow: each process is
    /// keyed by its identity — protocol instance (`Arc` pointer), pid,
    /// process count and input — so equal identities in different systems
    /// share memoized steps, and the first identities seen take keys
    /// `0, 1, …` in pid order. A system whose objects are not the `Arc`
    /// the memo was filled over (see [`SystemSpec::with_processes`])
    /// first clears the memo, since its outcomes came from other object
    /// specs; the interner is unaffected, its ids do not depend on the
    /// system.
    pub fn bind(&mut self, spec: &SystemSpec) {
        let objects = spec.objects_arc();
        if !self
            .objects
            .as_ref()
            .is_some_and(|o| Arc::ptr_eq(o, objects))
        {
            *self = TransitionMemo {
                objects: Some(Arc::clone(objects)),
                ..TransitionMemo::default()
            };
        }
        self.keys.clear();
        for pid in (0..spec.nprocs()).map(Pid::new) {
            let (protocol, input) = spec.process(pid);
            let identity = ProcessIdentity {
                protocol: Arc::as_ptr(protocol) as *const u8 as usize,
                pid,
                nprocs: spec.nprocs(),
                input: input.clone(),
            };
            let next = u32::try_from(self.process_keys.len()).expect("process keys exceed u32");
            let key = *self.process_keys.entry(identity).or_insert_with(|| {
                self.protocols.push(Arc::clone(protocol));
                next
            });
            self.keys.push(key);
        }
    }

    /// The number of keys stored: memoized actions plus memoized
    /// transitions.
    pub fn entries(&self) -> usize {
        self.actions.len() + self.transitions.len()
    }

    /// Approximate resident bytes of the memo, from its entry counts (so
    /// the figure does not depend on how its fills were batched).
    pub fn bytes(&self) -> usize {
        self.actions.len() * (size_of::<(ActionKey, MemoAction)>() + MAP_ENTRY_OVERHEAD)
            + self.transitions.len()
                * (size_of::<(TransitionKey, (u32, u32))>() + MAP_ENTRY_OVERHEAD)
            + self.outcomes.len() * size_of::<[u32; 2]>()
            + self.op_bytes
    }

    /// Files every fill recorded in `log`, keeping the first entry of a
    /// key logged twice (equal, by purity), and empties `log` — its
    /// counters included — for reuse.
    pub fn absorb(&mut self, log: &mut MemoLog) {
        for (key, action) in log.actions.drain(..) {
            if let Entry::Vacant(slot) = self.actions.entry(key) {
                if let StepFootprint::Object { op, .. } = &action.footprint {
                    self.op_bytes += op.args.len() * size_of::<Value>();
                }
                slot.insert(action);
            }
        }
        for (key, start, len) in log.transitions.drain(..) {
            if let Entry::Vacant(slot) = self.transitions.entry(key) {
                let at = u32::try_from(self.outcomes.len()).expect("memo exceeds u32 outcomes");
                self.outcomes
                    .extend_from_slice(&log.outcomes[start as usize..(start + len) as usize]);
                slot.insert((at, len));
            }
        }
        log.outcomes.clear();
        log.lookups = 0;
        log.hits = 0;
    }

    /// The process key of `pid` in the bound system.
    fn key(&self, pid: Pid) -> u32 {
        self.keys[pid.index()]
    }

    fn action(&self, pid: Pid, proc_id: u32) -> Option<&MemoAction> {
        self.actions.get(&(self.key(pid), proc_id))
    }
}

/// A reader's record of the transitions it stepped without the memo's
/// help and could have used it for, plus its lookup and hit counts, until
/// [`TransitionMemo::absorb`] files them.
#[derive(Debug, Default)]
pub struct MemoLog {
    actions: Vec<(ActionKey, MemoAction)>,
    /// Keys with `(start, len)` ranges into `outcomes`.
    transitions: Vec<(TransitionKey, u32, u32)>,
    outcomes: Vec<[u32; 2]>,
    lookups: u64,
    hits: u64,
}

impl MemoLog {
    /// Steps looked up in the memo since the last absorb.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups answered entirely from the memo since the last absorb.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Drops every recorded fill and both counters without filing them,
    /// keeping the buffers — for a log left over from a step that failed.
    pub fn clear(&mut self) {
        self.actions.clear();
        self.transitions.clear();
        self.outcomes.clear();
        self.lookups = 0;
        self.hits = 0;
    }
}

/// One outcome of a step: the targeted object's next state
/// (`Id(NO_OBJECT)` for a decide) and the stepped process's next state.
#[derive(Debug)]
struct StepOutcome {
    obj: SlotState,
    proc: SlotState,
}

impl StepOutcome {
    fn ids([obj, proc]: [u32; 2]) -> Self {
        StepOutcome {
            obj: SlotState::Id(obj),
            proc: SlotState::Id(proc),
        }
    }
}

/// The successors of one step produced by
/// [`SystemSpec::memo_successors`], reused from step to step: the step's
/// outcomes (copied from the memo on a hit, resolved against the interner
/// on a miss) and one row buffer each successor is written into on demand.
#[derive(Debug, Default)]
pub struct MemoSuccessors {
    /// The stepped configuration's id words.
    base: Vec<u32>,
    nobjects: usize,
    /// The stepped process's slot.
    proc_slot: usize,
    /// The targeted object's slot (`None` for a decide).
    obj_slot: Option<usize>,
    outcomes: Vec<StepOutcome>,
    /// The row buffer every successor is written into.
    row: PendingConfig,
}

impl MemoSuccessors {
    fn reset(&mut self, nobjects: usize, words: &[u32], proc_slot: usize) {
        self.base.clear();
        self.base.extend_from_slice(words);
        self.nobjects = nobjects;
        self.proc_slot = proc_slot;
        self.obj_slot = None;
        self.outcomes.clear();
    }

    /// The number of successors (distinct outcomes).
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Returns `true` if the step had no successor (never, after a
    /// successful [`SystemSpec::memo_successors`]).
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Successor `k`, in the object's outcome order, written into the
    /// reused row buffer: the stepped configuration with the outcome's
    /// object and process states. The row may be rewritten in place
    /// (canonicalized), and a caller keeps it with `std::mem::take`. A
    /// fresh state moves into the row rather than being cloned, so each
    /// `k` is taken at most once per step.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    pub fn successor(&mut self, k: usize) -> &mut PendingConfig {
        let outcome = &mut self.outcomes[k];
        self.row.reset_to(self.nobjects, &self.base);
        if let Some(slot) = self.obj_slot {
            self.row.set(slot, outcome.obj.take());
        }
        self.row.set(self.proc_slot, outcome.proc.take());
        &mut self.row
    }
}

/// The `write` half of the id-space step: each outcome of a step is
/// resolved against `interner` and pushed onto `out`.
fn outcome_writer<'w>(
    interner: &'w StateInterner,
    out: &'w mut Vec<StepOutcome>,
) -> impl FnMut(Option<(ObjId, &Op, Value)>, ProcState) + 'w {
    move |touched, stepped| {
        let obj = touched.map_or(SlotState::Id(NO_OBJECT), |(_, _, state)| {
            interner.resolve_object(state)
        });
        let proc = interner.resolve_proc(stepped);
        out.push(StepOutcome { obj, proc });
    }
}

impl SystemSpec {
    /// The footprint of `pid`'s next step in the interned configuration
    /// `words`: borrowed from `memo` when `pid`'s action there is
    /// memoized, else computed by one protocol step.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProcessNotEnabled`] if `pid` cannot take a step,
    /// and propagates protocol errors.
    ///
    /// # Panics
    ///
    /// Panics if `memo` is not [bound](TransitionMemo::bind) to this
    /// system.
    pub fn memo_footprint<'m>(
        &self,
        interner: &StateInterner,
        memo: &'m TransitionMemo,
        words: &[u32],
        pid: Pid,
    ) -> Result<Cow<'m, StepFootprint>, SimError> {
        let proc_id = *words
            .get(self.nobjects() + pid.index())
            .ok_or(SimError::ProcessNotEnabled(pid))?;
        if let Some(action) = memo.action(pid, proc_id) {
            return Ok(Cow::Borrowed(&action.footprint));
        }
        Ok(Cow::Owned(
            match self.action_of(pid, interner.proc(proc_id))? {
                Action::Decide(_) => StepFootprint::Local,
                Action::Invoke { obj, op, .. } => StepFootprint::Object { obj, op },
            },
        ))
    }

    /// The successors of scheduling `pid` in the interned configuration
    /// `words`, through `memo`, left in `out`: exactly those of the deep
    /// [`SystemSpec::successors`], in the same order. A memoized transition
    /// is replayed as id copies; otherwise the step runs (with the
    /// memoized action, if any) and, when every outcome state is already
    /// interned, the transition is recorded in `log`.
    ///
    /// # Errors
    ///
    /// Exactly those of [`SystemSpec::successors`]; nothing is recorded
    /// for a failing step.
    ///
    /// # Panics
    ///
    /// Panics if `memo` is not [bound](TransitionMemo::bind) to this
    /// system.
    pub fn memo_successors(
        &self,
        interner: &StateInterner,
        memo: &TransitionMemo,
        words: &[u32],
        pid: Pid,
        out: &mut MemoSuccessors,
        log: &mut MemoLog,
    ) -> Result<(), SimError> {
        let nobjects = self.nobjects();
        let proc_slot = nobjects + pid.index();
        out.reset(nobjects, words, proc_slot);
        let proc_id = *words
            .get(proc_slot)
            .ok_or(SimError::ProcessNotEnabled(pid))?;
        log.lookups += 1;
        let object = |o: ObjId| interner.object(words[o.index()]);
        let new_action = match memo.action(pid, proc_id) {
            Some(MemoAction {
                footprint: StepFootprint::Local,
                proc,
            }) => {
                log.hits += 1;
                out.outcomes.push(StepOutcome::ids([NO_OBJECT, *proc]));
                return Ok(());
            }
            Some(MemoAction {
                footprint: StepFootprint::Object { obj, op },
                proc,
            }) => {
                out.obj_slot = Some(obj.index());
                let key = (memo.key(pid), proc_id, words[obj.index()]);
                if let Some(&(start, len)) = memo.transitions.get(&key) {
                    log.hits += 1;
                    let known = &memo.outcomes[start as usize..(start + len) as usize];
                    out.outcomes
                        .extend(known.iter().copied().map(StepOutcome::ids));
                    return Ok(());
                }
                let local = interner.proc(*proc).local.clone();
                let write = outcome_writer(interner, &mut out.outcomes);
                self.invoke_outcomes(pid, *obj, op, local, object, write)?;
                None
            }
            None => {
                let proc = Some(interner.proc(proc_id));
                let write = outcome_writer(interner, &mut out.outcomes);
                let action = self.step_outcomes(pid, proc, object, write)?;
                out.obj_slot = action.as_ref().map(|(obj, _)| obj.index());
                Some(action)
            }
        };
        // Record the transition only if every outcome state is interned.
        let start = log.outcomes.len();
        for outcome in &out.outcomes {
            match (&outcome.obj, &outcome.proc) {
                (SlotState::Id(obj), SlotState::Id(proc)) => log.outcomes.push([*obj, *proc]),
                _ => {
                    log.outcomes.truncate(start);
                    return Ok(());
                }
            }
        }
        let key = (memo.key(pid), proc_id);
        if let Some(action) = new_action {
            let footprint = match action {
                None => StepFootprint::Local,
                Some((obj, op)) => StepFootprint::Object { obj, op },
            };
            let proc = log.outcomes[start][1];
            log.actions.push((key, MemoAction { footprint, proc }));
        }
        match out.obj_slot {
            Some(obj) => {
                let at = u32::try_from(start).expect("memo log exceeds u32 outcomes");
                let len = u32::try_from(out.outcomes.len()).expect("outcome count exceeds u32");
                log.transitions.push(((key.0, key.1, words[obj]), at, len));
            }
            // A decide's successor is the action entry itself.
            None => log.outcomes.truncate(start),
        }
        Ok(())
    }
}
