//! Systems and configurations.
//!
//! A [`SystemSpec`] is the immutable description of a finite asynchronous
//! system: the shared base objects and the protocol + input of every process.
//! A [`Config`] is one point of the execution: the state of every object and
//! of every process. Configurations are plain hashable values; taking a step
//! is a *pure* function from a configuration to its successor
//! configuration(s), which serves both the runners and the model checker.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::error::SimError;
use crate::ids::{ObjId, Pid};
use crate::intern::{PendingConfig, StateInterner};
use crate::object::ObjectSpec;
use crate::op::Op;
use crate::protocol::{Action, ProcCtx, Protocol};
use crate::value::Value;

/// The execution status of a process inside a [`Config`].
///
/// The derived total order ([`Ord`]) has no semantic meaning; it exists so
/// process states can be sorted into a canonical arrangement by
/// [`SystemSpec::canonicalize_config`].
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProcStatus {
    /// The process has not yet taken its first step.
    Fresh,
    /// The process has taken at least one step and may take more.
    Running,
    /// The process decided the given value and halted.
    Decided(Value),
    /// The process is stuck forever inside an operation that hung.
    Hung,
}

impl ProcStatus {
    /// Returns `true` if the process may still take steps.
    pub fn is_enabled(&self) -> bool {
        matches!(self, ProcStatus::Fresh | ProcStatus::Running)
    }

    /// Returns the decided value, if any.
    pub fn decision(&self) -> Option<&Value> {
        match self {
            ProcStatus::Decided(v) => Some(v),
            _ => None,
        }
    }
}

/// The state of one process inside a [`Config`].
///
/// The derived total order ([`Ord`]) is an arbitrary but fixed tie-breaker
/// used by [`SystemSpec::canonicalize_config`] to pick one representative
/// per symmetry orbit; it carries no semantic meaning.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcState {
    /// The protocol-local state.
    pub local: Value,
    /// The response to the most recent invocation, if any.
    pub resp: Option<Value>,
    /// The execution status.
    pub status: ProcStatus,
}

/// The process symmetry groups of a system: disjoint sets of pids that are
/// pairwise interchangeable.
///
/// Two processes are interchangeable when swapping their entire states in
/// any configuration yields a configuration with identical future behavior
/// (up to the same swap). In the oblivious object model this holds whenever
/// the processes run the same protocol with equal inputs and the protocol's
/// behavior is independent of `ctx.pid`
/// ([`Protocol::pid_symmetric`](crate::Protocol::pid_symmetric)): objects
/// never learn the caller's identity, so such processes cannot be told
/// apart by anything in the system.
///
/// [`SystemBuilder::build`] computes the groups automatically under exactly
/// that rule; [`SystemBuilder::set_symmetry_groups`] overrides them for
/// systems whose symmetry the automatic rule cannot see (e.g. per-block
/// symmetry of a partitioned system where the protocol reads `ctx.pid`
/// only to select a block-local object).
///
/// Only groups of two or more processes are stored — singletons are
/// trivially symmetric with themselves.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SymmetryGroups {
    groups: Vec<Vec<Pid>>,
}

impl SymmetryGroups {
    /// The trivial symmetry (no interchangeable processes).
    pub fn trivial() -> Self {
        Self::default()
    }

    /// Builds symmetry groups from explicit pid sets.
    ///
    /// Each group is sorted; groups with fewer than two pids are dropped.
    ///
    /// # Panics
    ///
    /// Panics if any pid occurs in more than one group.
    pub fn new<I, G>(groups: I) -> Self
    where
        I: IntoIterator<Item = G>,
        G: IntoIterator<Item = Pid>,
    {
        let mut seen = std::collections::HashSet::new();
        let mut out: Vec<Vec<Pid>> = Vec::new();
        for group in groups {
            let mut g: Vec<Pid> = group.into_iter().collect();
            g.sort_unstable();
            for &p in &g {
                assert!(
                    seen.insert(p),
                    "symmetry groups must be disjoint: {p} repeats"
                );
            }
            if g.len() >= 2 {
                out.push(g);
            }
        }
        SymmetryGroups { groups: out }
    }

    /// Returns `true` if there is no nontrivial group.
    pub fn is_trivial(&self) -> bool {
        self.groups.is_empty()
    }

    /// The nontrivial groups, each sorted ascending.
    pub fn groups(&self) -> &[Vec<Pid>] {
        &self.groups
    }

    /// The number of orbit members one canonical representative stands for:
    /// the product over groups of `|group|!`. This is the best-case
    /// state-space reduction factor of an orbit-quotient exploration.
    pub fn orbit_size_bound(&self) -> usize {
        self.groups
            .iter()
            .map(|g| (1..=g.len()).product::<usize>())
            .fold(1usize, usize::saturating_mul)
    }
}

/// A configuration: the state of every shared object and every process.
///
/// Configurations are cheap to clone, hash and compare, which the model
/// checker exploits for visited-set deduplication. Object *and process*
/// states are held behind [`Arc`]s so cloning a configuration is shallow —
/// a step replaces one object `Arc` and one process `Arc` and shares the
/// rest, which keeps cloning O(objects + procs) pointer bumps regardless
/// of how large the individual states grow (e.g. the Algorithm-3 tables
/// of the `wrn` extension).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Config {
    objects: Vec<Arc<Value>>,
    procs: Vec<Arc<ProcState>>,
}

impl Config {
    /// Returns the state of object `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range for the system this configuration
    /// belongs to.
    pub fn object_state(&self, obj: ObjId) -> &Value {
        &self.objects[obj.index()]
    }

    /// Returns the state of process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn proc_state(&self, pid: Pid) -> &ProcState {
        &self.procs[pid.index()]
    }

    /// Returns the pids that may still take a step, in ascending order.
    pub fn enabled(&self) -> Vec<Pid> {
        let mut pids = Vec::new();
        self.enabled_into(&mut pids);
        pids
    }

    /// Overwrites `pids` with [`Config::enabled`], reusing its allocation.
    pub(crate) fn enabled_into(&self, pids: &mut Vec<Pid>) {
        pids.clear();
        pids.extend(
            self.procs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.status.is_enabled())
                .map(|(i, _)| Pid::new(i)),
        );
    }

    /// Returns `true` if no process can take a step (everyone decided or
    /// hung).
    pub fn is_final(&self) -> bool {
        self.procs.iter().all(|p| !p.status.is_enabled())
    }

    /// Returns each process's decision (`None` for undecided processes).
    pub fn decisions(&self) -> Vec<Option<Value>> {
        self.procs
            .iter()
            .map(|p| p.status.decision().cloned())
            .collect()
    }

    /// Returns the sorted, deduplicated set of values decided so far.
    pub fn decided_values(&self) -> Vec<Value> {
        let mut vals: Vec<Value> = self
            .procs
            .iter()
            .filter_map(|p| p.status.decision().cloned())
            .collect();
        vals.sort();
        vals.dedup();
        vals
    }

    /// Returns the number of processes.
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// Returns the number of shared objects.
    pub fn nobjects(&self) -> usize {
        self.objects.len()
    }

    /// Computes the pid permutation (`perm[old] = new`) that canonicalizes
    /// this configuration, or `None` if it is already canonical.
    pub(crate) fn canonical_perm(&self, groups: &SymmetryGroups) -> Option<Vec<usize>> {
        let mut perm: Option<Vec<usize>> = None;
        for group in groups.groups() {
            let sorted = group
                .windows(2)
                .all(|w| self.procs[w[0].index()] <= self.procs[w[1].index()]);
            if sorted {
                continue;
            }
            let perm = perm.get_or_insert_with(|| (0..self.procs.len()).collect());
            // Stable sort of the group's old indices by state; ties keep
            // ascending pid order, so the permutation is deterministic.
            let mut order: Vec<usize> = group.iter().map(|p| p.index()).collect();
            order.sort_by(|&a, &b| self.procs[a].cmp(&self.procs[b]));
            for (slot, &old) in group.iter().zip(&order) {
                perm[old] = slot.index();
            }
        }
        perm
    }

    /// Returns this configuration with process states rearranged by `perm`
    /// (`perm[old_pid] = new_pid`): the state of process `old` becomes the
    /// state of process `new`. Object states are shared untouched.
    ///
    /// Exposed so tests can exercise orbit membership directly; the model
    /// checker only applies permutations produced by canonicalization.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..nprocs()`.
    pub fn permuted(&self, perm: &[usize]) -> Config {
        assert_eq!(perm.len(), self.procs.len(), "permutation length mismatch");
        let mut procs = self.procs.clone();
        let mut hit = vec![false; perm.len()];
        for (old, &new) in perm.iter().enumerate() {
            assert!(!hit[new], "not a permutation: target {new} repeats");
            hit[new] = true;
            procs[new] = Arc::clone(&self.procs[old]);
        }
        Config {
            objects: self.objects.clone(),
            procs,
        }
    }

    /// The raw object/process state slices, for the interner
    /// (`crate::intern`), which hash-conses them without deep copies.
    pub(crate) fn parts(&self) -> (&[Arc<Value>], &[Arc<ProcState>]) {
        (&self.objects, &self.procs)
    }

    /// Reassembles a configuration from shared state `Arc`s — the
    /// materialization path out of an interner's arenas.
    pub(crate) fn from_parts(objects: Vec<Arc<Value>>, procs: Vec<Arc<ProcState>>) -> Config {
        Config { objects, procs }
    }
}

/// A human-readable summary of what one step did, for traces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepInfo {
    /// The process applied `op` to `obj` and received `resp` (`None` = the
    /// operation hung).
    Invoked {
        /// The target object.
        obj: ObjId,
        /// The applied operation.
        op: Op,
        /// The response, or `None` if the operation hung.
        resp: Option<Value>,
    },
    /// The process decided.
    Decided(Value),
}

impl StepInfo {
    /// The summary of a step that invoked `action` (`None` for a decide)
    /// and left the stepped process in state `stepped`.
    pub(crate) fn of(action: Option<(ObjId, Op)>, stepped: &ProcState) -> StepInfo {
        match action {
            Some((obj, op)) => StepInfo::Invoked {
                obj,
                op,
                resp: stepped.resp.clone(),
            },
            None => StepInfo::Decided(
                stepped
                    .status
                    .decision()
                    .expect("a step that touches no object decides")
                    .clone(),
            ),
        }
    }
}

/// What one enabled step touches, for commutativity reasoning.
///
/// Computed by
/// [`SystemSpec::memo_footprint`](crate::SystemSpec::memo_footprint)
/// without mutating anything:
/// it runs the protocol's (pure) transition function to see what the
/// process *would* do next. Two steps with "disjoint" footprints commute —
/// see [`SystemSpec::compact_footprints_independent`] for the exact
/// relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepFootprint {
    /// The step only touches the process's own state (a `Decide`): it is
    /// independent of every step by every other process.
    Local,
    /// The step applies `op` to shared object `obj`.
    Object {
        /// The target object.
        obj: ObjId,
        /// The operation that would be applied.
        op: Op,
    },
}

/// The immutable description of a system: objects, protocols and inputs.
#[derive(Clone)]
pub struct SystemSpec {
    objects: Arc<Vec<Box<dyn ObjectSpec>>>,
    protocols: Vec<Arc<dyn Protocol>>,
    inputs: Vec<Value>,
    symmetry: Arc<SymmetryGroups>,
    /// `static_indep[p]` has bit `q` set iff processes `p` and `q` declared
    /// disjoint whole-execution object footprints (see
    /// [`Protocol::obj_footprint`]); empty masks when `nprocs > 64`.
    static_indep: Arc<Vec<u64>>,
}

impl std::fmt::Debug for SystemSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemSpec")
            .field(
                "objects",
                &self
                    .objects
                    .iter()
                    .map(|o| o.type_name())
                    .collect::<Vec<_>>(),
            )
            .field("nprocs", &self.protocols.len())
            .field("inputs", &self.inputs)
            .field("symmetry", &self.symmetry)
            .finish()
    }
}

impl SystemSpec {
    /// Returns the number of processes.
    pub fn nprocs(&self) -> usize {
        self.protocols.len()
    }

    /// Returns the number of shared objects.
    pub fn nobjects(&self) -> usize {
        self.objects.len()
    }

    /// Returns the object spec registered under `obj`, if any.
    pub fn object(&self, obj: ObjId) -> Option<&dyn ObjectSpec> {
        self.objects
            .get(obj.index())
            .map(|b| b.as_ref() as &dyn ObjectSpec)
    }

    /// Returns the per-process context of `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn ctx(&self, pid: Pid) -> ProcCtx {
        ProcCtx::new(pid, self.nprocs(), self.inputs[pid.index()].clone())
    }

    /// A system over this one's objects — the same shared
    /// [`ObjectSpec`] instances, not copies — running one process per
    /// `(protocol, input)` pair, in order. Symmetry groups and static
    /// independence are derived exactly as [`SystemBuilder::build`]
    /// derives them (automatically; there is no override).
    ///
    /// Systems that share objects this way can share one transition memo:
    /// see [`TransitionMemo::bind`](crate::TransitionMemo::bind).
    pub fn with_processes<I>(&self, processes: I) -> SystemSpec
    where
        I: IntoIterator<Item = (Arc<dyn Protocol>, Value)>,
    {
        let (protocols, inputs) = processes.into_iter().unzip();
        SystemBuilder::finish(Arc::clone(&self.objects), protocols, inputs, None)
    }

    /// The shared object specs, as one `Arc` (its identity is what
    /// [`SystemSpec::with_processes`] preserves).
    pub(crate) fn objects_arc(&self) -> &Arc<Vec<Box<dyn ObjectSpec>>> {
        &self.objects
    }

    /// The protocol `Arc` and task input of process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub(crate) fn process(&self, pid: Pid) -> (&Arc<dyn Protocol>, &Value) {
        (&self.protocols[pid.index()], &self.inputs[pid.index()])
    }

    /// Returns the process symmetry groups of this system.
    ///
    /// Computed by [`SystemBuilder::build`] (automatically, or from an
    /// explicit [`SystemBuilder::set_symmetry_groups`] override).
    pub fn symmetry_groups(&self) -> &SymmetryGroups {
        &self.symmetry
    }

    /// Canonical content fingerprint of this system, stable across
    /// processes and runs of the same binary: the run-ledger key under
    /// which a future checking-as-a-service queue can cache verdicts
    /// (`std`'s `DefaultHasher` uses fixed SipHash keys, so equal specs
    /// hash equally everywhere).
    ///
    /// Covers the system's observable surface — process and object
    /// counts, object type names, per-process inputs, symmetry groups and
    /// the initial configuration (which embeds every initial object and
    /// process state). Protocol *code* is not hashable through `dyn
    /// Protocol`, so two systems differing only in unexecuted protocol
    /// logic collide; for cache keying, pair the hash with the binary's
    /// git revision (the run ledger records both).
    pub fn spec_fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.nprocs().hash(&mut h);
        self.nobjects().hash(&mut h);
        for obj in self.objects.iter() {
            obj.type_name().hash(&mut h);
        }
        for input in &self.inputs {
            input.hash(&mut h);
        }
        for group in self.symmetry.groups() {
            group.hash(&mut h);
        }
        self.initial_config().hash(&mut h);
        h.finish()
    }

    /// Returns the canonical representative of `config`'s orbit under this
    /// system's symmetry groups: each group's process states are sorted
    /// into ascending [`ProcState`] order (ties keep ascending pid order),
    /// and pids embedded in object states are relabeled through
    /// [`ObjectSpec::relabel_pids`] when the applied permutation is
    /// nontrivial.
    ///
    /// Two configurations related by a within-group permutation
    /// canonicalize to the *same* configuration, and canonicalization is
    /// idempotent. Process states live behind [`Arc`]s, so the permutation
    /// moves pointers and deep-copies no process state. For the automatic
    /// (pid-independent) groups the relabeling is a no-op — oblivious
    /// objects only learn pids through operation arguments, which
    /// pid-independent protocols never pass.
    ///
    /// This deep sort is deliberately separate from
    /// [`SystemSpec::canonicalize_in_place`]: tests use it as the
    /// independent reference the id-space sort is checked against. Takes
    /// `config` by value so the already-canonical fast path costs nothing.
    pub fn canonicalize_config(&self, config: Config) -> Config {
        self.canonicalize_config_perm(config).0
    }

    /// Like [`SystemSpec::canonicalize_config`], but also returns the pid
    /// permutation that was applied (`perm[old] = new`), or `None` when the
    /// configuration was already canonical.
    ///
    /// The partial-order-reduced model checker needs the permutation to
    /// relabel its per-edge pid masks (sleep sets) into the canonical
    /// successor's naming.
    pub fn canonicalize_config_perm(&self, config: Config) -> (Config, Option<Vec<usize>>) {
        let Some(perm) = config.canonical_perm(&self.symmetry) else {
            return (config, None);
        };
        let mut next = config.permuted(&perm);
        for (i, obj) in self.objects.iter().enumerate() {
            if let Some(state) = obj.relabel_pids(&next.objects[i], &perm) {
                next.objects[i] = Arc::new(state);
            }
        }
        (next, Some(perm))
    }

    /// Runs `pid`'s pure protocol transition on `proc` without mutating
    /// anything — the single source of truth for "what would this process
    /// do next", shared by the step relation and the POR footprint so the
    /// two can never disagree.
    pub(crate) fn action_of(&self, pid: Pid, proc: &ProcState) -> Result<Action, SimError> {
        if !proc.status.is_enabled() {
            return Err(SimError::ProcessNotEnabled(pid));
        }
        let ctx = self.ctx(pid);
        self.protocols[pid.index()]
            .step(&ctx, &proc.local, proc.resp.as_ref())
            .map_err(|source| SimError::Protocol { pid, source })
    }

    /// Returns the mask of processes statically independent of `pid`: bit
    /// `q` is set iff `pid` and `q` declared disjoint whole-execution object
    /// footprints via [`Protocol::obj_footprint`], so no step of one can
    /// ever conflict with a step of the other.
    ///
    /// All-zero (no static independence) when a protocol declines to
    /// declare a footprint, when `pid` is out of range, or when the system
    /// has more than 64 processes.
    pub fn static_independent(&self, pid: Pid) -> u64 {
        self.static_indep.get(pid.index()).copied().unwrap_or(0)
    }

    /// Builds the initial configuration.
    pub fn initial_config(&self) -> Config {
        let objects = self
            .objects
            .iter()
            .map(|o| Arc::new(o.initial_state()))
            .collect();
        let procs = (0..self.nprocs())
            .map(|i| {
                let pid = Pid::new(i);
                Arc::new(ProcState {
                    local: self.protocols[i].start(&self.ctx(pid)),
                    resp: None,
                    status: ProcStatus::Fresh,
                })
            })
            .collect();
        Config { objects, procs }
    }

    /// The step relation: hands each distinct outcome of scheduling `pid`,
    /// whose state is `proc` (`None` when `pid` is out of range), to
    /// `write` — the touched object with the applied operation and its
    /// next state (`None` for a decide), and the stepped process's next
    /// state. `object` resolves the state of the object the step targets.
    /// Returns the invoked object and operation (`None` for a decide), so
    /// the transition memo can keep them without a second protocol step.
    ///
    /// Every step rule lives here and in [`SystemSpec::invoke_outcomes`] —
    /// decide vs invoke, hang vs response, the errors (all raised before
    /// the first `write`), and the collapse of equal outcomes to their
    /// first occurrence, in the object's outcome order — so
    /// [`SystemSpec::successors`], the runner's
    /// [`SystemSpec::step_in_place`] and
    /// [`SystemSpec::memo_successors`](crate::SystemSpec::memo_successors)
    /// only write the outcomes into a [`Config`] or an id-space outcome
    /// buffer.
    pub(crate) fn step_outcomes<'a>(
        &self,
        pid: Pid,
        proc: Option<&ProcState>,
        object: impl FnOnce(ObjId) -> &'a Value,
        mut write: impl FnMut(Option<(ObjId, &Op, Value)>, ProcState),
    ) -> Result<Option<(ObjId, Op)>, SimError> {
        let proc = proc.ok_or(SimError::ProcessNotEnabled(pid))?;
        match self.action_of(pid, proc)? {
            Action::Decide(value) => {
                let decided = ProcState {
                    local: proc.local.clone(),
                    resp: None,
                    status: ProcStatus::Decided(value),
                };
                write(None, decided);
                Ok(None)
            }
            Action::Invoke { local, obj, op } => {
                self.invoke_outcomes(pid, obj, &op, local, object, write)?;
                Ok(Some((obj, op)))
            }
        }
    }

    /// The invoke half of [`SystemSpec::step_outcomes`]: applies `op` to
    /// object `obj` on behalf of `pid`, whose in-flight local state is
    /// `local`, and writes each distinct outcome. The transition memo
    /// calls it directly when it already knows `pid`'s action but not its
    /// outcomes in this object state.
    pub(crate) fn invoke_outcomes<'a>(
        &self,
        pid: Pid,
        obj: ObjId,
        op: &Op,
        mut local: Value,
        object: impl FnOnce(ObjId) -> &'a Value,
        mut write: impl FnMut(Option<(ObjId, &Op, Value)>, ProcState),
    ) -> Result<(), SimError> {
        let spec = self
            .objects
            .get(obj.index())
            .ok_or(SimError::UnknownObject { pid, obj })?;
        let mut outcomes = spec
            .apply(object(obj), op)
            .map_err(|source| SimError::Object { obj, pid, source })?;
        if outcomes.is_empty() {
            return Err(SimError::NoOutcomes { obj, pid });
        }
        // Equal outcomes denote equal successors (the stepped process's
        // state is a function of the response); outcome lists are short.
        let mut k = 1;
        while k < outcomes.len() {
            if outcomes[..k].contains(&outcomes[k]) {
                outcomes.remove(k);
            } else {
                k += 1;
            }
        }
        let last = outcomes.len() - 1;
        for (k, out) in outcomes.into_iter().enumerate() {
            // The last outcome takes `local` itself, not a copy.
            let local = if k == last {
                std::mem::take(&mut local)
            } else {
                local.clone()
            };
            let status = match out.response {
                Some(_) => ProcStatus::Running,
                None => ProcStatus::Hung,
            };
            let next = ProcState {
                local,
                resp: out.response,
                status,
            };
            write(Some((obj, op, out.state)), next);
        }
        Ok(())
    }

    /// Computes every successor configuration of scheduling `pid` in
    /// `config`, together with a trace summary of the step.
    ///
    /// Deterministic systems produce exactly one successor; a step whose
    /// operation targets a nondeterministic object produces one successor
    /// per *distinct* outcome, in the object's outcome order — outcomes
    /// yielding identical configurations are deduplicated, so the model
    /// checker never records parallel edges to the same state.
    ///
    /// Cloning copies only `Arc` pointers; the stepped process (and the
    /// touched object, for invocations) get fresh `Arc`s, everything else
    /// is shared with `config`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProcessNotEnabled`] if `pid` cannot take a step,
    /// [`SimError::UnknownObject`] if it invokes an unregistered object,
    /// [`SimError::NoOutcomes`] if the object returns no outcome, and
    /// propagates protocol and object errors.
    pub fn successors(
        &self,
        config: &Config,
        pid: Pid,
    ) -> Result<Vec<(Config, StepInfo)>, SimError> {
        let i = pid.index();
        let proc = config.procs.get(i).map(|p| &**p);
        let mut succs = Vec::new();
        self.step_outcomes(
            pid,
            proc,
            |obj| &config.objects[obj.index()],
            |touched, stepped| {
                let mut next = config.clone();
                let action = touched.as_ref().map(|&(obj, op, _)| (obj, op.clone()));
                let info = StepInfo::of(action, &stepped);
                if let Some((obj, _, state)) = touched {
                    next.objects[obj.index()] = Arc::new(state);
                }
                next.procs[i] = Arc::new(stepped);
                succs.push((next, info));
            },
        )?;
        Ok(succs)
    }

    /// Takes one step of `pid` in `config` itself — the run loop's step.
    /// The step relation ([`SystemSpec::step_outcomes`]) writes every
    /// distinct outcome into `outcomes`, a reused buffer left empty; only
    /// the chosen one is written into `config`, replacing the stepped
    /// process's `Arc` and, for an invocation, the touched object's.
    ///
    /// `choose` is asked for an outcome index exactly when there are at
    /// least two distinct outcomes (the count is its argument, an index
    /// past the end picks the last one), so a run draws the same choices
    /// as one that picks among [`SystemSpec::successors`]. Returns the
    /// invoked object and operation (`None` for a decide).
    ///
    /// # Errors
    ///
    /// Exactly those of [`SystemSpec::successors`]; `config` is unchanged
    /// on error.
    pub(crate) fn step_in_place(
        &self,
        config: &mut Config,
        pid: Pid,
        outcomes: &mut Vec<(Option<(ObjId, Value)>, ProcState)>,
        choose: impl FnOnce(usize) -> usize,
    ) -> Result<Option<(ObjId, Op)>, SimError> {
        let i = pid.index();
        outcomes.clear();
        let action = self.step_outcomes(
            pid,
            config.procs.get(i).map(|p| &**p),
            |obj| &config.objects[obj.index()],
            |touched, stepped| {
                outcomes.push((touched.map(|(obj, _, state)| (obj, state)), stepped));
            },
        )?;
        let k = match outcomes.len() {
            1 => 0,
            n => choose(n).min(n - 1),
        };
        let (touched, stepped) = outcomes.swap_remove(k);
        outcomes.clear();
        if let Some((obj, state)) = touched {
            config.objects[obj.index()] = Arc::new(state);
        }
        config.procs[i] = Arc::new(stepped);
        Ok(action)
    }

    /// Returns `true` if two steps with these footprints are *independent*
    /// in the interned configuration `words`: executing them in either
    /// order reaches the same configuration with the same responses.
    ///
    /// A [`StepFootprint::Local`] step (a decide) only touches its own
    /// process state, so it is independent of everything. Steps on
    /// different objects are always independent (each rewrites a disjoint
    /// part of the configuration). Steps on the *same* object are
    /// independent exactly when the object declares the two operations
    /// commuting in its current state ([`ObjectSpec::commutes`], default:
    /// never; `false` for an unknown object), which is the only state
    /// resolved through the interner.
    pub fn compact_footprints_independent(
        &self,
        interner: &StateInterner,
        words: &[u32],
        a: &StepFootprint,
        b: &StepFootprint,
    ) -> bool {
        match (a, b) {
            (StepFootprint::Local, _) | (_, StepFootprint::Local) => true,
            (
                StepFootprint::Object { obj: oa, op: pa },
                StepFootprint::Object { obj: ob, op: pb },
            ) => {
                oa != ob
                    || self.objects.get(oa.index()).is_some_and(|spec| {
                        spec.commutes(interner.object(words[oa.index()]), pa, pb)
                    })
            }
        }
    }

    /// The id-space canonicalization: rewrites `pending` into its orbit's
    /// canonical representative and returns the applied pid permutation
    /// (`perm[old] = new`, borrowed from `scratch`), or `None` when the
    /// configuration was already canonical. Every buffer it needs lives in
    /// `scratch`, so a reused scratch makes it allocation-free unless an
    /// object state has to be relabeled.
    ///
    /// Group members are ordered by their underlying [`ProcState`]s with an
    /// id shortcut (equal resolved ids ⇒ equal states, by the interning
    /// invariant), so the chosen permutation — and hence the canonical
    /// representative — is identical to the deep path's.
    pub fn canonicalize_in_place<'s>(
        &self,
        interner: &StateInterner,
        pending: &mut PendingConfig,
        scratch: &'s mut CanonScratch,
    ) -> Option<&'s [usize]> {
        let CanonScratch { perm, order, procs } = scratch;
        let mut permuted = false;
        {
            let cmp = |a: usize, b: usize| -> Ordering {
                if pending.procs_equal_ids(a, b) {
                    return Ordering::Equal;
                }
                pending
                    .proc_ref(interner, a)
                    .cmp(pending.proc_ref(interner, b))
            };
            for group in self.symmetry.groups() {
                let sorted = group
                    .windows(2)
                    .all(|w| cmp(w[0].index(), w[1].index()) != Ordering::Greater);
                if sorted {
                    continue;
                }
                if !permuted {
                    perm.clear();
                    perm.extend(0..pending.nprocs());
                    permuted = true;
                }
                // Stable sort of the group's old indices by state; ties keep
                // ascending pid order, matching `Config::canonical_perm`.
                order.clear();
                order.extend(group.iter().map(|p| p.index()));
                order.sort_by(|&a, &b| cmp(a, b));
                for (slot, &old) in group.iter().zip(order.iter()) {
                    perm[old] = slot.index();
                }
            }
        }
        if !permuted {
            return None;
        }
        pending.permute_procs(perm, procs);
        for idx in 0..self.objects.len() {
            if let Some(state) =
                self.objects[idx].relabel_pids(pending.object_ref(interner, idx), perm)
            {
                pending.set(idx, interner.resolve_object(state));
            }
        }
        let perm: &'s Vec<usize> = perm;
        Some(perm)
    }
}

/// Reusable buffers of [`SystemSpec::canonicalize_in_place`]: the
/// permutation it returns, the sort order of one symmetry group and a copy
/// of the process slots being permuted.
#[derive(Clone, Debug, Default)]
pub struct CanonScratch {
    perm: Vec<usize>,
    order: Vec<usize>,
    procs: Vec<u32>,
}

/// Incremental builder for [`SystemSpec`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use subconsensus_sim::{Action, ProcCtx, Protocol, ProtocolError, SystemBuilder, Value};
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
/// assert_eq!(spec.nprocs(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SystemBuilder {
    objects: Vec<Box<dyn ObjectSpec>>,
    protocols: Vec<Arc<dyn Protocol>>,
    inputs: Vec<Value>,
    symmetry_override: Option<SymmetryGroups>,
}

impl SystemBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a shared object and returns its id.
    pub fn add_object(&mut self, spec: impl ObjectSpec + 'static) -> ObjId {
        self.add_boxed_object(Box::new(spec))
    }

    /// Registers an already-boxed shared object and returns its id.
    pub fn add_boxed_object(&mut self, spec: Box<dyn ObjectSpec>) -> ObjId {
        let id = ObjId::new(self.objects.len());
        self.objects.push(spec);
        id
    }

    /// Registers `n` copies of an object produced by `make` and returns the
    /// id of the first; the copies occupy a contiguous id range.
    pub fn add_object_array<F>(&mut self, n: usize, mut make: F) -> ObjId
    where
        F: FnMut(usize) -> Box<dyn ObjectSpec>,
    {
        let base = ObjId::new(self.objects.len());
        for i in 0..n {
            self.objects.push(make(i));
        }
        base
    }

    /// Adds a process running `protocol` with task input `input`; returns its
    /// pid.
    pub fn add_process(&mut self, protocol: Arc<dyn Protocol>, input: Value) -> Pid {
        let pid = Pid::new(self.protocols.len());
        self.protocols.push(protocol);
        self.inputs.push(input);
        pid
    }

    /// Adds one process per input, all running the same `protocol`.
    pub fn add_processes<I>(&mut self, protocol: Arc<dyn Protocol>, inputs: I)
    where
        I: IntoIterator<Item = Value>,
    {
        for input in inputs {
            self.add_process(Arc::clone(&protocol), input);
        }
    }

    /// Overrides the automatically computed process symmetry groups.
    ///
    /// Use this when the automatic rule (same protocol pointer + equal
    /// input + [`Protocol::pid_symmetric`]) is too conservative — e.g. a
    /// partitioned system whose protocol reads `ctx.pid` only to pick a
    /// block-local object is still symmetric *within* each equal-input
    /// block — or to disable symmetry entirely with
    /// [`SymmetryGroups::trivial`]. The caller asserts the declared
    /// processes really are interchangeable (and that objects whose states
    /// embed pids implement
    /// [`ObjectSpec::relabel_pids`](crate::ObjectSpec::relabel_pids));
    /// an unsound override makes orbit-quotient exploration merge
    /// configurations that are not equivalent.
    ///
    /// # Panics
    ///
    /// [`SystemBuilder::build`] panics if a group mentions a pid that was
    /// never added.
    pub fn set_symmetry_groups(&mut self, groups: SymmetryGroups) {
        self.symmetry_override = Some(groups);
    }

    /// Computes the automatic symmetry groups: maximal sets of processes
    /// sharing one protocol instance (pointer-equal `Arc`) and equal
    /// inputs, where the protocol declares pid-independence.
    // `j` indexes three parallel arrays (`grouped`, `protocols`, `inputs`);
    // an enumerate over one of them would hide that.
    #[allow(clippy::needless_range_loop)]
    fn auto_symmetry(protocols: &[Arc<dyn Protocol>], inputs: &[Value]) -> SymmetryGroups {
        let n = protocols.len();
        let mut grouped = vec![false; n];
        let mut groups: Vec<Vec<Pid>> = Vec::new();
        for i in 0..n {
            if grouped[i] || !protocols[i].pid_symmetric() {
                continue;
            }
            let mut g = vec![Pid::new(i)];
            for j in (i + 1)..n {
                if grouped[j] {
                    continue;
                }
                let same_protocol = std::ptr::eq(
                    Arc::as_ptr(&protocols[i]) as *const u8,
                    Arc::as_ptr(&protocols[j]) as *const u8,
                );
                if same_protocol && inputs[i] == inputs[j] {
                    grouped[j] = true;
                    g.push(Pid::new(j));
                }
            }
            if g.len() >= 2 {
                groups.push(g);
            }
        }
        SymmetryGroups { groups }
    }

    /// Finishes the build.
    ///
    /// Process symmetry groups are computed here: automatically (processes
    /// added with one [`SystemBuilder::add_processes`] call sharing a
    /// protocol instance and input, when the protocol is
    /// [`pid_symmetric`](Protocol::pid_symmetric)), or from the
    /// [`SystemBuilder::set_symmetry_groups`] override.
    ///
    /// # Panics
    ///
    /// Panics if an override group mentions a pid that was never added.
    pub fn build(self) -> SystemSpec {
        Self::finish(
            Arc::new(self.objects),
            self.protocols,
            self.inputs,
            self.symmetry_override,
        )
    }

    /// Assembles a spec over `objects`, computing its symmetry groups (or
    /// validating the override) and its static independence masks — the
    /// one place both [`SystemBuilder::build`] and
    /// [`SystemSpec::with_processes`] derive them.
    fn finish(
        objects: Arc<Vec<Box<dyn ObjectSpec>>>,
        protocols: Vec<Arc<dyn Protocol>>,
        inputs: Vec<Value>,
        symmetry_override: Option<SymmetryGroups>,
    ) -> SystemSpec {
        let symmetry = match symmetry_override {
            Some(groups) => {
                for g in groups.groups() {
                    for p in g {
                        assert!(
                            p.index() < protocols.len(),
                            "symmetry group mentions unknown process {p}"
                        );
                    }
                }
                groups
            }
            None => Self::auto_symmetry(&protocols, &inputs),
        };
        let static_indep = Self::static_independence(&protocols, &inputs);
        SystemSpec {
            objects,
            protocols,
            inputs,
            symmetry: Arc::new(symmetry),
            static_indep: Arc::new(static_indep),
        }
    }

    /// Pairwise static independence from declared whole-execution object
    /// footprints ([`Protocol::obj_footprint`]): `masks[p]` bit `q` ⇔ the
    /// declared footprints of `p` and `q` are disjoint. A process without a
    /// declaration is conservatively dependent on everyone.
    fn static_independence(protocols: &[Arc<dyn Protocol>], inputs: &[Value]) -> Vec<u64> {
        let n = protocols.len();
        let mut masks = vec![0u64; n];
        if n > 64 {
            return masks;
        }
        let fps: Vec<Option<Vec<ObjId>>> = (0..n)
            .map(|i| {
                let ctx = ProcCtx::new(Pid::new(i), n, inputs[i].clone());
                protocols[i].obj_footprint(&ctx).map(|mut objs| {
                    objs.sort_unstable();
                    objs.dedup();
                    objs
                })
            })
            .collect();
        for p in 0..n {
            for q in (p + 1)..n {
                if let (Some(a), Some(b)) = (&fps[p], &fps[q]) {
                    if a.iter().all(|o| !b.contains(o)) {
                        masks[p] |= 1 << q;
                        masks[q] |= 1 << p;
                    }
                }
            }
        }
        masks
    }
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;

    use super::*;
    use crate::error::{ObjectError, ProtocolError};
    use crate::memo::{MemoLog, MemoSuccessors, TransitionMemo};
    use crate::object::Outcome;

    /// A register supporting `read()` / `write(v)`.
    #[derive(Debug)]
    struct Reg;

    impl ObjectSpec for Reg {
        fn type_name(&self) -> &'static str {
            "reg"
        }

        fn initial_state(&self) -> Value {
            Value::Nil
        }

        fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
            match op.name {
                "read" => Ok(vec![Outcome::ret(state.clone(), state.clone())]),
                "write" => {
                    let v = op.arg(0).cloned().unwrap_or(Value::Nil);
                    Ok(vec![Outcome::ret(v, Value::Nil)])
                }
                _ => Err(ObjectError::UnknownOp {
                    object: "reg",
                    op: op.clone(),
                }),
            }
        }
    }

    /// An object whose only operation hangs.
    #[derive(Debug)]
    struct Tarpit;

    impl ObjectSpec for Tarpit {
        fn type_name(&self) -> &'static str {
            "tarpit"
        }

        fn initial_state(&self) -> Value {
            Value::Nil
        }

        fn apply(&self, state: &Value, _op: &Op) -> Result<Vec<Outcome>, ObjectError> {
            Ok(vec![Outcome::hang(state.clone())])
        }
    }

    /// Writes input, reads, decides what it read.
    #[derive(Debug)]
    struct WriteReadDecide {
        reg: ObjId,
    }

    impl Protocol for WriteReadDecide {
        fn start(&self, _ctx: &ProcCtx) -> Value {
            Value::Int(0)
        }

        fn step(
            &self,
            ctx: &ProcCtx,
            local: &Value,
            resp: Option<&Value>,
        ) -> Result<Action, ProtocolError> {
            match local.as_int() {
                Some(0) => Ok(Action::invoke(
                    Value::Int(1),
                    self.reg,
                    Op::unary("write", ctx.input.clone()),
                )),
                Some(1) => Ok(Action::invoke(Value::Int(2), self.reg, Op::new("read"))),
                Some(2) => {
                    let read = resp
                        .cloned()
                        .ok_or_else(|| ProtocolError::new("missing resp"))?;
                    Ok(Action::Decide(read))
                }
                _ => Err(ProtocolError::new("corrupt pc")),
            }
        }
    }

    #[derive(Debug)]
    struct Toucher {
        obj: ObjId,
    }

    impl Protocol for Toucher {
        fn start(&self, _ctx: &ProcCtx) -> Value {
            Value::Nil
        }

        fn step(
            &self,
            _ctx: &ProcCtx,
            _local: &Value,
            _resp: Option<&Value>,
        ) -> Result<Action, ProtocolError> {
            Ok(Action::invoke(Value::Nil, self.obj, Op::new("touch")))
        }
    }

    fn solo_system() -> SystemSpec {
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        b.add_process(Arc::new(WriteReadDecide { reg }), Value::Int(42));
        b.build()
    }

    /// The successor configurations of `pid` at `config`.
    fn deep_succs(spec: &SystemSpec, config: &Config, pid: Pid) -> Result<Vec<Config>, SimError> {
        Ok(spec
            .successors(config, pid)?
            .into_iter()
            .map(|(next, _)| next)
            .collect())
    }

    /// The successors of `pid` at `config` through the id-space path:
    /// `memo_successors` with an empty memo on the interned row, each
    /// finalized and materialized back into a `Config`.
    fn compact_succs(
        spec: &SystemSpec,
        config: &Config,
        pid: Pid,
    ) -> Result<Vec<Config>, SimError> {
        let mut interner = StateInterner::new();
        let row = interner.intern_config(config);
        let mut out = MemoSuccessors::default();
        let (mut memo, mut log) = (TransitionMemo::new(), MemoLog::default());
        memo.bind(spec);
        spec.memo_successors(&interner, &memo, row.words(), pid, &mut out, &mut log)?;
        Ok((0..out.len())
            .map(|k| {
                let next = interner.finalize(std::mem::take(out.successor(k)));
                interner.materialize_words(next.nobjects(), next.words())
            })
            .collect())
    }

    /// The footprint of `pid` at the interned `row`, with an empty memo.
    fn footprint_at(
        spec: &SystemSpec,
        interner: &StateInterner,
        row: &[u32],
        pid: Pid,
    ) -> StepFootprint {
        let mut memo = TransitionMemo::new();
        memo.bind(spec);
        spec.memo_footprint(interner, &memo, row, pid)
            .unwrap()
            .into_owned()
    }

    /// Whether the next steps of `p` and `q` at `config` are independent,
    /// decided in id space as the explorer's POR decides it.
    fn independent(spec: &SystemSpec, config: &Config, p: Pid, q: Pid) -> bool {
        let mut interner = StateInterner::new();
        let row = interner.intern_config(config);
        let fp = |pid| footprint_at(spec, &interner, row.words(), pid);
        spec.compact_footprints_independent(&interner, row.words(), &fp(p), &fp(q))
    }

    #[test]
    fn solo_run_by_hand() {
        let spec = solo_system();
        let c0 = spec.initial_config();
        assert_eq!(c0.enabled(), vec![Pid::new(0)]);
        assert!(!c0.is_final());

        let (c1, info) = spec.successors(&c0, Pid::new(0)).unwrap().pop().unwrap();
        match info {
            StepInfo::Invoked { op, resp, .. } => {
                assert_eq!(op.name, "write");
                assert_eq!(resp, Some(Value::Nil));
            }
            StepInfo::Decided(_) => panic!("expected invoke"),
        }
        assert_eq!(c1.object_state(ObjId::new(0)), &Value::Int(42));

        let (c2, _) = spec.successors(&c1, Pid::new(0)).unwrap().pop().unwrap();
        let (c3, info) = spec.successors(&c2, Pid::new(0)).unwrap().pop().unwrap();
        assert_eq!(info, StepInfo::Decided(Value::Int(42)));
        assert!(c3.is_final());
        assert_eq!(c3.decided_values(), vec![Value::Int(42)]);
        assert_eq!(c3.decisions(), vec![Some(Value::Int(42))]);
    }

    #[test]
    fn stepping_a_decided_process_is_an_error() {
        let spec = solo_system();
        let mut c = spec.initial_config();
        for _ in 0..3 {
            c = spec.successors(&c, Pid::new(0)).unwrap().pop().unwrap().0;
        }
        let err = spec.successors(&c, Pid::new(0)).unwrap_err();
        assert_eq!(err, SimError::ProcessNotEnabled(Pid::new(0)));
        assert_eq!(compact_succs(&spec, &c, Pid::new(0)), Err(err));
        // A pid outside the system is not enabled either.
        assert_eq!(
            compact_succs(&spec, &c, Pid::new(3)),
            Err(SimError::ProcessNotEnabled(Pid::new(3)))
        );
        assert_eq!(
            deep_succs(&spec, &c, Pid::new(3)),
            Err(SimError::ProcessNotEnabled(Pid::new(3)))
        );
    }

    #[test]
    fn hanging_outcome_hangs_the_process() {
        let mut b = SystemBuilder::new();
        let pit = b.add_object(Tarpit);
        b.add_process(Arc::new(Toucher { obj: pit }), Value::Nil);
        let spec = b.build();
        let c0 = spec.initial_config();
        let (c1, info) = spec.successors(&c0, Pid::new(0)).unwrap().pop().unwrap();
        assert_eq!(
            info,
            StepInfo::Invoked {
                obj: pit,
                op: Op::new("touch"),
                resp: None
            }
        );
        assert_eq!(c1.proc_state(Pid::new(0)).status, ProcStatus::Hung);
        assert!(c1.is_final());
        assert!(c1.decided_values().is_empty());
        assert_eq!(compact_succs(&spec, &c0, Pid::new(0)), Ok(vec![c1]));
    }

    #[test]
    fn unknown_object_is_reported() {
        let mut b = SystemBuilder::new();
        b.add_process(Arc::new(Toucher { obj: ObjId::new(9) }), Value::Nil);
        let spec = b.build();
        let c0 = spec.initial_config();
        let err = spec.successors(&c0, Pid::new(0)).unwrap_err();
        assert_eq!(
            err,
            SimError::UnknownObject {
                pid: Pid::new(0),
                obj: ObjId::new(9)
            }
        );
        assert_eq!(compact_succs(&spec, &c0, Pid::new(0)), Err(err));
    }

    #[test]
    fn object_array_allocates_contiguous_ids() {
        let mut b = SystemBuilder::new();
        let base = b.add_object_array(3, |_| Box::new(Reg));
        assert_eq!(base, ObjId::new(0));
        let next = b.add_object(Reg);
        assert_eq!(next, ObjId::new(3));
        let spec = b.build();
        assert_eq!(spec.nobjects(), 4);
        assert_eq!(spec.object(ObjId::new(2)).unwrap().type_name(), "reg");
        assert!(spec.object(ObjId::new(4)).is_none());
    }

    /// A register whose only operation nondeterministically flips to one of
    /// the given states — with deliberate duplicates among the outcomes.
    #[derive(Debug)]
    struct Flaky {
        states: Vec<Value>,
    }

    impl ObjectSpec for Flaky {
        fn type_name(&self) -> &'static str {
            "flaky"
        }

        fn initial_state(&self) -> Value {
            Value::Nil
        }

        fn apply(&self, _state: &Value, _op: &Op) -> Result<Vec<Outcome>, ObjectError> {
            Ok(self
                .states
                .iter()
                .map(|s| Outcome::ret(s.clone(), Value::Nil))
                .collect())
        }
    }

    #[test]
    fn cloning_shares_unstepped_state() {
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        let p: Arc<dyn Protocol> = Arc::new(WriteReadDecide { reg });
        b.add_process(Arc::clone(&p), Value::Int(1));
        b.add_process(p, Value::Int(2));
        let spec = b.build();
        let c0 = spec.initial_config();
        let (c1, _) = spec.successors(&c0, Pid::new(0)).unwrap().pop().unwrap();
        // P0's state was rebuilt; P1's is pointer-shared with c0.
        assert!(!Arc::ptr_eq(&c0.procs[0], &c1.procs[0]));
        assert!(Arc::ptr_eq(&c0.procs[1], &c1.procs[1]));
    }

    #[test]
    fn duplicate_outcomes_yield_one_successor() {
        let mut b = SystemBuilder::new();
        let obj = b.add_object(Flaky {
            states: vec![Value::Int(1), Value::Int(2), Value::Int(1)],
        });
        b.add_process(Arc::new(Toucher { obj }), Value::Nil);
        let spec = b.build();
        let c0 = spec.initial_config();
        let succs = deep_succs(&spec, &c0, Pid::new(0)).unwrap();
        assert_eq!(succs.len(), 2, "the duplicated outcome must collapse");
        assert_ne!(succs[0], succs[1]);
        // First occurrences, in the object's outcome order.
        assert_eq!(succs[0].object_state(obj), &Value::Int(1));
        assert_eq!(succs[1].object_state(obj), &Value::Int(2));
        assert_eq!(compact_succs(&spec, &c0, Pid::new(0)), Ok(succs));
    }

    #[test]
    fn configs_hash_and_compare() {
        use std::collections::HashSet;
        let spec = solo_system();
        let c0 = spec.initial_config();
        let c0b = spec.initial_config();
        assert_eq!(c0, c0b);
        let mut set = HashSet::new();
        set.insert(c0.clone());
        assert!(set.contains(&c0b));
        let (c1, _) = spec.successors(&c0, Pid::new(0)).unwrap().pop().unwrap();
        assert!(!set.contains(&c1));
    }

    /// Pid-independent version of [`WriteReadDecide`]: same steps, but
    /// declares symmetry so the builder may group equal-input processes.
    #[derive(Debug)]
    struct SymWriteReadDecide {
        reg: ObjId,
    }

    impl Protocol for SymWriteReadDecide {
        fn start(&self, _ctx: &ProcCtx) -> Value {
            Value::Int(0)
        }

        fn step(
            &self,
            ctx: &ProcCtx,
            local: &Value,
            resp: Option<&Value>,
        ) -> Result<Action, ProtocolError> {
            WriteReadDecide { reg: self.reg }.step(ctx, local, resp)
        }

        fn pid_symmetric(&self) -> bool {
            true
        }
    }

    fn sym_system(inputs: &[i64]) -> SystemSpec {
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        let p: Arc<dyn Protocol> = Arc::new(SymWriteReadDecide { reg });
        b.add_processes(p, inputs.iter().map(|&i| Value::Int(i)));
        b.build()
    }

    #[test]
    fn symmetry_groups_sort_dedup_and_bound() {
        let g = SymmetryGroups::new([vec![Pid::new(2), Pid::new(0)], vec![Pid::new(1)]]);
        assert_eq!(g.groups(), &[vec![Pid::new(0), Pid::new(2)]]);
        assert!(!g.is_trivial());
        assert_eq!(g.orbit_size_bound(), 2);
        assert!(SymmetryGroups::trivial().is_trivial());
        assert_eq!(SymmetryGroups::trivial().orbit_size_bound(), 1);
        let g3 = SymmetryGroups::new([
            vec![Pid::new(0), Pid::new(1), Pid::new(2)],
            vec![Pid::new(3), Pid::new(4)],
        ]);
        assert_eq!(g3.orbit_size_bound(), 12);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_symmetry_groups_panic() {
        let _ = SymmetryGroups::new([
            vec![Pid::new(0), Pid::new(1)],
            vec![Pid::new(1), Pid::new(2)],
        ]);
    }

    #[test]
    fn builder_groups_equal_input_symmetric_processes() {
        // All-equal inputs through one declared-symmetric protocol: one group.
        let spec = sym_system(&[7, 7, 7]);
        assert_eq!(
            spec.symmetry_groups().groups(),
            &[vec![Pid::new(0), Pid::new(1), Pid::new(2)]]
        );
        // Inputs split the processes into per-input groups.
        let spec = sym_system(&[1, 2, 1, 2]);
        assert_eq!(
            spec.symmetry_groups().groups(),
            &[
                vec![Pid::new(0), Pid::new(2)],
                vec![Pid::new(1), Pid::new(3)]
            ]
        );
        // All-distinct inputs: trivial.
        assert!(sym_system(&[1, 2, 3]).symmetry_groups().is_trivial());
    }

    #[test]
    fn builder_requires_symmetry_declaration_and_shared_instance() {
        // Same shape, same inputs, but the protocol does not declare
        // pid-independence: no grouping.
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        let p: Arc<dyn Protocol> = Arc::new(WriteReadDecide { reg });
        b.add_processes(p, [Value::Int(7), Value::Int(7)]);
        assert!(b.build().symmetry_groups().is_trivial());

        // Two separate (if identical-looking) protocol instances: no grouping
        // — pointer equality is the conservative identity test.
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        b.add_process(Arc::new(SymWriteReadDecide { reg }), Value::Int(7));
        b.add_process(Arc::new(SymWriteReadDecide { reg }), Value::Int(7));
        assert!(b.build().symmetry_groups().is_trivial());
    }

    #[test]
    fn builder_override_replaces_auto_groups() {
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        let p: Arc<dyn Protocol> = Arc::new(SymWriteReadDecide { reg });
        b.add_processes(p, [Value::Int(7), Value::Int(7)]);
        b.set_symmetry_groups(SymmetryGroups::trivial());
        assert!(b.build().symmetry_groups().is_trivial());
    }

    #[test]
    #[should_panic(expected = "unknown process")]
    fn builder_override_validates_pids() {
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        b.add_process(Arc::new(SymWriteReadDecide { reg }), Value::Int(7));
        b.add_process(Arc::new(SymWriteReadDecide { reg }), Value::Int(7));
        b.set_symmetry_groups(SymmetryGroups::new([vec![Pid::new(0), Pid::new(5)]]));
        let _ = b.build();
    }

    #[test]
    fn canonicalize_merges_orbit_and_is_idempotent() {
        let spec = sym_system(&[7, 7, 7]);
        let c0 = spec.initial_config();
        // Step p0 once vs. step p2 once: same orbit, different configs.
        let (a, _) = spec.successors(&c0, Pid::new(0)).unwrap().pop().unwrap();
        let (b, _) = spec.successors(&c0, Pid::new(2)).unwrap().pop().unwrap();
        assert_ne!(a, b);
        let ca = spec.canonicalize_config(a.clone());
        let cb = spec.canonicalize_config(b);
        assert_eq!(ca, cb, "orbit members must share one representative");
        assert_eq!(
            spec.canonicalize_config(ca.clone()),
            ca,
            "canonicalize is idempotent"
        );
        // The canonical form is untouched object-wise.
        assert_eq!(
            ca.object_state(ObjId::new(0)),
            a.object_state(ObjId::new(0))
        );
        // The initial config is symmetric, hence already canonical.
        assert_eq!(spec.canonicalize_config(c0.clone()), c0);
    }

    #[test]
    fn canonicalize_shares_proc_state_arcs() {
        let spec = sym_system(&[7, 7]);
        let c0 = spec.initial_config();
        let (c1, _) = spec.successors(&c0, Pid::new(1)).unwrap().pop().unwrap();
        let canon = spec.canonicalize_config(c1.clone());
        // Pointer swaps only: every proc Arc in `canon` is one of c1's.
        for p in &canon.procs {
            assert!(c1.procs.iter().any(|q| Arc::ptr_eq(p, q)));
        }
    }

    #[test]
    fn permuted_rearranges_and_validates() {
        let spec = sym_system(&[1, 2, 3]);
        let c0 = spec.initial_config();
        let (c1, _) = spec.successors(&c0, Pid::new(0)).unwrap().pop().unwrap();
        let rotated = c1.permuted(&[1, 2, 0]);
        assert_eq!(rotated.proc_state(Pid::new(1)), c1.proc_state(Pid::new(0)));
        assert_eq!(rotated.proc_state(Pid::new(2)), c1.proc_state(Pid::new(1)));
        assert_eq!(rotated.proc_state(Pid::new(0)), c1.proc_state(Pid::new(2)));
        // Identity round-trip.
        assert_eq!(rotated.permuted(&[2, 0, 1]), c1);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permuted_rejects_non_permutations() {
        let spec = sym_system(&[1, 2]);
        let _ = spec.initial_config().permuted(&[0, 0]);
    }

    /// A register that stores the pid passed to its `claim(p)` op — used to
    /// check that [`SystemSpec::canonicalize_config`] relabels object state.
    #[derive(Debug)]
    struct PidCell;

    impl ObjectSpec for PidCell {
        fn type_name(&self) -> &'static str {
            "pid-cell"
        }

        fn initial_state(&self) -> Value {
            Value::Nil
        }

        fn apply(&self, _state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
            let v = op.arg(0).cloned().unwrap_or(Value::Nil);
            // The response must stay pid-free: responses live in process
            // state, which `relabel_pids` does not rewrite.
            Ok(vec![Outcome::ret(v, Value::Nil)])
        }

        fn relabel_pids(&self, state: &Value, perm: &[usize]) -> Option<Value> {
            let old = state.as_index()?;
            Some(Value::Int(perm[old] as i64))
        }
    }

    /// Claims the cell with its own pid, then decides.
    #[derive(Debug)]
    struct ClaimOwnPid {
        cell: ObjId,
    }

    impl Protocol for ClaimOwnPid {
        fn start(&self, _ctx: &ProcCtx) -> Value {
            Value::Int(0)
        }

        fn step(
            &self,
            ctx: &ProcCtx,
            local: &Value,
            _resp: Option<&Value>,
        ) -> Result<Action, ProtocolError> {
            match local.as_int() {
                Some(0) => Ok(Action::invoke(
                    Value::Int(1),
                    self.cell,
                    Op::unary("claim", Value::Int(ctx.pid.index() as i64)),
                )),
                _ => Ok(Action::Decide(Value::Nil)),
            }
        }
    }

    #[test]
    fn canonicalize_config_relabels_object_pids() {
        // The protocol reads ctx.pid, so automatic grouping refuses it; an
        // explicit override plus `relabel_pids` restores the symmetry: after
        // one `claim`, "p0 claimed 0" and "p1 claimed 1" are the same orbit.
        let mut b = SystemBuilder::new();
        let cell = b.add_object(PidCell);
        let p: Arc<dyn Protocol> = Arc::new(ClaimOwnPid { cell });
        b.add_processes(p, [Value::Nil, Value::Nil]);
        assert!(b.symmetry_override.is_none());
        b.set_symmetry_groups(SymmetryGroups::new([vec![Pid::new(0), Pid::new(1)]]));
        let spec = b.build();

        let c0 = spec.initial_config();
        let (a, _) = spec.successors(&c0, Pid::new(0)).unwrap().pop().unwrap();
        let (b_, _) = spec.successors(&c0, Pid::new(1)).unwrap().pop().unwrap();
        assert_eq!(a.object_state(cell), &Value::Int(0));
        assert_eq!(b_.object_state(cell), &Value::Int(1));
        let ca = spec.canonicalize_config(a);
        let cb = spec.canonicalize_config(b_);
        assert_eq!(ca, cb, "relabeling must merge the claim orbit");
        // Without relabeling the configs would differ in the cell state.
        assert_eq!(ca.object_state(cell), cb.object_state(cell));
    }

    /// A protocol that pokes one fixed object forever and declares it.
    #[derive(Debug)]
    struct DeclaredToucher {
        obj: ObjId,
    }

    impl Protocol for DeclaredToucher {
        fn start(&self, _ctx: &ProcCtx) -> Value {
            Value::Nil
        }

        fn step(
            &self,
            _ctx: &ProcCtx,
            _local: &Value,
            _resp: Option<&Value>,
        ) -> Result<Action, ProtocolError> {
            Ok(Action::invoke(Value::Nil, self.obj, Op::new("read")))
        }

        fn obj_footprint(&self, _ctx: &ProcCtx) -> Option<Vec<ObjId>> {
            Some(vec![self.obj])
        }
    }

    #[test]
    fn footprint_sees_the_next_action() {
        let spec = solo_system();
        let mut memo = TransitionMemo::new();
        memo.bind(&spec);
        let footprint = |c: &Config| {
            let mut interner = StateInterner::new();
            let row = interner.intern_config(c);
            spec.memo_footprint(&interner, &memo, row.words(), Pid::new(0))
                .map(Cow::into_owned)
        };
        let mut c = spec.initial_config();
        // pc 0 / pc 1: register ops.
        for expect_op in ["write", "read"] {
            match footprint(&c).unwrap() {
                StepFootprint::Object { obj, op } => {
                    assert_eq!(obj, ObjId::new(0));
                    assert_eq!(op.name, expect_op);
                }
                StepFootprint::Local => panic!("expected an object step"),
            }
            c = spec.successors(&c, Pid::new(0)).unwrap().pop().unwrap().0;
        }
        // pc 2: decide — a local footprint.
        assert_eq!(footprint(&c).unwrap(), StepFootprint::Local);
        c = spec.successors(&c, Pid::new(0)).unwrap().pop().unwrap().0;
        assert_eq!(footprint(&c), Err(SimError::ProcessNotEnabled(Pid::new(0))));
    }

    #[test]
    fn independence_distinguishes_objects_and_defers_to_commutes() {
        // Two registers, two writers on different objects: independent.
        let mut b = SystemBuilder::new();
        let r0 = b.add_object(Reg);
        let r1 = b.add_object(Reg);
        b.add_process(Arc::new(WriteReadDecide { reg: r0 }), Value::Int(1));
        b.add_process(Arc::new(WriteReadDecide { reg: r1 }), Value::Int(2));
        let spec = b.build();
        let c0 = spec.initial_config();
        assert!(independent(&spec, &c0, Pid::new(0), Pid::new(1)));

        // Same object, and the test `Reg` has no `commutes` override: two
        // writes are conservatively dependent.
        let mut b = SystemBuilder::new();
        let r = b.add_object(Reg);
        b.add_process(Arc::new(WriteReadDecide { reg: r }), Value::Int(1));
        b.add_process(Arc::new(WriteReadDecide { reg: r }), Value::Int(2));
        let spec = b.build();
        let c0 = spec.initial_config();
        assert!(!independent(&spec, &c0, Pid::new(0), Pid::new(1)));

        // A decide is independent of anything.
        let c = spec.successors(&c0, Pid::new(0)).unwrap().pop().unwrap().0;
        let c = spec.successors(&c, Pid::new(0)).unwrap().pop().unwrap().0;
        assert!(independent(&spec, &c, Pid::new(0), Pid::new(1)));
        assert!(independent(&spec, &c, Pid::new(1), Pid::new(0)));
    }

    #[test]
    fn static_independence_requires_declared_disjoint_footprints() {
        // Declared, disjoint: statically independent.
        let mut b = SystemBuilder::new();
        let r0 = b.add_object(Reg);
        let r1 = b.add_object(Reg);
        b.add_process(Arc::new(DeclaredToucher { obj: r0 }), Value::Nil);
        b.add_process(Arc::new(DeclaredToucher { obj: r1 }), Value::Nil);
        let spec = b.build();
        assert_eq!(spec.static_independent(Pid::new(0)), 0b10);
        assert_eq!(spec.static_independent(Pid::new(1)), 0b01);

        // Declared, overlapping: dependent.
        let mut b = SystemBuilder::new();
        let r = b.add_object(Reg);
        b.add_process(Arc::new(DeclaredToucher { obj: r }), Value::Nil);
        b.add_process(Arc::new(DeclaredToucher { obj: r }), Value::Nil);
        let spec = b.build();
        assert_eq!(spec.static_independent(Pid::new(0)), 0);

        // Undeclared (default `obj_footprint` = None): dependent on everyone
        // even if the dynamic steps never share an object.
        let mut b = SystemBuilder::new();
        let r0 = b.add_object(Reg);
        let r1 = b.add_object(Reg);
        b.add_process(Arc::new(WriteReadDecide { reg: r0 }), Value::Int(1));
        b.add_process(Arc::new(WriteReadDecide { reg: r1 }), Value::Int(2));
        let spec = b.build();
        assert_eq!(spec.static_independent(Pid::new(0)), 0);
        // Out of range: no mask.
        assert_eq!(spec.static_independent(Pid::new(7)), 0);
    }

    #[test]
    fn canonicalize_config_perm_reports_the_applied_permutation() {
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        let p: Arc<dyn Protocol> = Arc::new(WriteReadDecide { reg });
        b.add_processes(p, [Value::Int(1), Value::Int(1)]);
        b.set_symmetry_groups(SymmetryGroups::new([vec![Pid::new(0), Pid::new(1)]]));
        let spec = b.build();
        let c0 = spec.initial_config();
        // Already canonical: no permutation.
        let (_, perm) = spec.canonicalize_config_perm(c0.clone());
        assert_eq!(perm, None);
        // Step p0 only: p0's local (1) now sorts after p1's (0), so
        // canonicalization swaps them and must say so.
        let (c, _) = spec.successors(&c0, Pid::new(0)).unwrap().pop().unwrap();
        let (canon, perm) = spec.canonicalize_config_perm(c.clone());
        assert_eq!(perm, Some(vec![1, 0]));
        assert_eq!(canon, c.permuted(&[1, 0]));
    }
}
