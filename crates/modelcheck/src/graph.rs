//! Exhaustive construction of the reachable configuration graph.
//!
//! Exploration is a level-synchronized BFS: each depth level of the graph
//! is expanded *read-only* (optionally across threads), then the results
//! are merged sequentially in ascending node order. Because the merge
//! order is independent of how the level was split, the graph — node
//! indices, edges, terminals — is identical for every thread count.
//!
//! The visited set is a fingerprint index (`u64` hash → candidate node
//! indices) rather than a `HashMap<Config, usize>`: configurations are
//! stored once in the node arena, and every fingerprint hit is verified
//! by full equality before deduplicating, so hash collisions can never
//! merge distinct configurations.
//!
//! By default ([`ExploreOptions::interned`]) the node arena is
//! **hash-consed**: every distinct object and process state is interned
//! once into a [`StateInterner`] and a node is one flat row of `u32` id
//! words, so fingerprint verification is a word compare, stepping copies
//! id rows instead of `Arc` vectors, and per-node memory drops
//! severalfold. Because interning maps equal states to equal ids (and only
//! those), the id-space explorer is node-for-node identical to the deep
//! one — `explore` is generic over the store, and the e6/e10/e11
//! equivalence suites check the two representations against each other.
//!
//! # Partial-order reduction
//!
//! With [`ExploreOptions::por`], exploration prunes redundant interleavings
//! of *independent* steps (steps that commute — see
//! [`SystemSpec::footprints_independent`]) instead of generating them and
//! letting the dedup index merge their endpoints:
//!
//! * **Ample (persistent) sets** shrink the state count: at each new
//!   configuration only a persistent subset of the enabled processes is
//!   fired (a deciding process alone, or the smallest statically-closed
//!   conflict component — see `choose_ample`).
//! * **Sleep sets** shrink the edge count: each edge carries the set of
//!   processes whose steps were already explored in a commuting order, so
//!   permutations of one Mazurkiewicz trace are not re-fired.
//! * The **cycle proviso** prevents the ignoring problem: any node found to
//!   close a cycle (an edge to an equal-or-shallower BFS level) is escalated
//!   to full expansion, so no enabled process is deferred forever.
//!
//! The reduced graph preserves the terminal configurations exactly, and with
//! them every verdict in `properties.rs` plus the root valence; it does
//! *not* preserve interior valences, so `find_critical` rejects POR graphs.
//!
//! The frozen graph stores its adjacency in compressed-sparse-row form
//! (`u32` node ids, one flat edge array) — per-node memory is two `u32`
//! offsets instead of a `Vec` header plus allocation slack.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use subconsensus_sim::{
    git_revision, shard_of_fingerprint, unix_time_ms, warn_once, Config, ExploreMetrics,
    InternerStats, PendingConfig, Pid, ProcStatus, Recorder, RunRecord, SimError, StateInterner,
    StepFootprint, SystemSpec, TruncationCause, Value, WireConfig, ARENA_SEGMENT,
};

use crate::spill::{Spill, DEFAULT_DISK_BUDGET};
use crate::verdict::{ExploreGoal, StreamingVerdict, TerminalFacts, VerdictEngine};

/// Options bounding an exploration.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Stop after visiting this many distinct configurations.
    pub max_configs: usize,
    /// Worker threads for level expansion (`0` and `1` both mean
    /// sequential). The produced graph is identical for every value.
    pub threads: usize,
    /// Explore the orbit-quotient graph: every successor is canonicalized
    /// under the system's [process symmetry
    /// groups](subconsensus_sim::SystemSpec::symmetry_groups) before dedup,
    /// so only one representative per permutation orbit is visited. A no-op
    /// for systems with trivial symmetry. See
    /// [`StateGraph::explore`] for what the quotient preserves.
    pub symmetry: bool,
    /// Partial-order reduction: prune redundant interleavings of commuting
    /// steps with ample sets + sleep sets + the cycle proviso (see the
    /// module docs). The reduced graph preserves terminal decision sets,
    /// wait-freedom, non-blocking and the root valence; it is rejected by
    /// `find_critical`, which needs full expansion. Composes with
    /// `symmetry` and `threads`.
    pub por: bool,
    /// Store configurations hash-consed (the default): object and process
    /// states are interned into per-exploration arenas and every node is a
    /// flat row of `u32` id words, so dedup verification is a word compare
    /// instead of a deep-state traversal and per-node memory shrinks
    /// severalfold. The produced graph is node-for-node identical to the
    /// deep representation; turn this off only to cross-check the two
    /// paths (the e6/e10/e11 equivalence suites do).
    pub interned: bool,
    /// Turn the phase timers of the exploration telemetry on, so the
    /// graph's [`metrics`](StateGraph::metrics) carry a wall-time
    /// breakdown (expand / canonicalize / POR / dedup / merge / freeze).
    /// Counters and per-level records are collected either way; the
    /// explored graph is node-for-node identical with or without this
    /// flag (the recorder is write-only from the explorer's view). The
    /// `MC_PROGRESS` / `MC_TRACE` env vars also force timing on.
    pub metrics: bool,
    /// Shard the exploration Stern–Dill style: the visited set, interner
    /// arena and frontier are partitioned into this many shards by the
    /// *content* fingerprint of each (canonicalized) configuration, so
    /// dedup and merge run per-shard instead of through one sequential
    /// merge. `0` (the default) reads the `MC_SHARDS` env var, falling
    /// back to `1`; `1` is the classic single-store explorer. The
    /// produced graph is node-for-node identical for every value (see
    /// the sharded-exploration section of the module source). With
    /// `shards > 1` the per-level parallelism is one worker per shard;
    /// `threads` only shapes the unsharded explorer.
    pub shards: usize,
    /// What this exploration is for. The default,
    /// [`ExploreGoal::FullGraph`], builds and freezes the whole reachable
    /// graph. [`ExploreGoal::Verdict`] instead accumulates the queried
    /// properties *during* exploration, stops at the end of the first BFS
    /// level where the query is refuted, and skips the freeze +
    /// reverse-CSR phases entirely — the graph then carries a
    /// [`StreamingVerdict`] (see [`StateGraph::verdict`]) but no CSR.
    /// Early exit is at level granularity and the verdict fold is
    /// commutative, so verdicts and explored-config counts stay
    /// deterministic across threads × shards × symmetry × POR × store.
    pub goal: ExploreGoal,
    /// Where the visited set lives: in RAM (the default) or disk-backed
    /// with a bounded hot tier ([`StoreBackend::Disk`]), which spills
    /// cold node rows, interner arena segments and fingerprint-index
    /// entries to a per-run directory once the resident estimate crosses
    /// [`store_budget_bytes`](Self::store_budget_bytes). The produced
    /// graph is node-for-node identical for every backend.
    /// [`StoreBackend::Auto`] defers to the `MC_STORE` env var.
    pub store: StoreBackend,
    /// Hot-tier byte budget. Under [`StoreBackend::Disk`] the store
    /// evicts cold state to disk against this bound; under the in-memory
    /// backend an exploration whose resident estimate crosses it stops
    /// adding configurations and truncates cleanly
    /// ([`TruncationCause::MemoryBudget`]) instead of growing without
    /// bound. `None` defers to the `MC_STORE_BUDGET` env var (bytes),
    /// then — for the disk store only — a 256 MiB default; the in-memory
    /// store is unbounded without an explicit budget.
    pub store_budget_bytes: Option<usize>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_configs: 1_000_000,
            threads: 1,
            symmetry: false,
            por: false,
            interned: true,
            metrics: false,
            shards: 0,
            goal: ExploreGoal::FullGraph,
            store: StoreBackend::Auto,
            store_budget_bytes: None,
        }
    }
}

impl ExploreOptions {
    /// Options with the given configuration bound.
    pub fn with_max_configs(max_configs: usize) -> Self {
        ExploreOptions {
            max_configs,
            ..Self::default()
        }
    }

    /// Returns these options with the given worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns these options with orbit-quotient exploration on or off.
    pub fn with_symmetry(mut self, symmetry: bool) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Returns these options with partial-order reduction on or off.
    pub fn with_por(mut self, por: bool) -> Self {
        self.por = por;
        self
    }

    /// Returns these options with the hash-consed node representation on
    /// or off.
    pub fn with_interned(mut self, interned: bool) -> Self {
        self.interned = interned;
        self
    }

    /// Returns these options with the telemetry phase timers on or off.
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    /// Returns these options with the given shard count (`0` = read
    /// `MC_SHARDS`, `1` = unsharded).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns these options with the given [`ExploreGoal`].
    pub fn with_goal(mut self, goal: ExploreGoal) -> Self {
        self.goal = goal;
        self
    }

    /// Returns these options with the given [`StoreBackend`].
    pub fn with_store(mut self, store: StoreBackend) -> Self {
        self.store = store;
        self
    }

    /// Returns these options with the given hot-tier byte budget.
    pub fn with_store_budget(mut self, bytes: usize) -> Self {
        self.store_budget_bytes = Some(bytes);
        self
    }

    /// The shard count this exploration will actually run with: an
    /// explicit [`shards`](Self::shards) wins, `0` defers to the
    /// `MC_SHARDS` env var (default `1`), and the result is clamped to
    /// `1..=MAX_SHARDS`.
    fn effective_shards(&self) -> usize {
        let n = if self.shards == 0 {
            env_value("MC_SHARDS", parse_usize).unwrap_or(1)
        } else {
            self.shards
        };
        n.clamp(1, MAX_SHARDS)
    }

    /// The store backend this exploration will actually run with: an
    /// explicit [`store`](Self::store) wins, [`StoreBackend::Auto`]
    /// defers to the `MC_STORE` env var (`disk` or `memory`; unset falls
    /// back to the in-memory store, and so does any other value, with a
    /// warning).
    fn effective_store(&self) -> StoreBackend {
        match self.store {
            StoreBackend::Auto => {
                env_value("MC_STORE", parse_store).unwrap_or(StoreBackend::Memory)
            }
            explicit => explicit,
        }
    }

    /// The explicit hot-tier budget, if any: a set
    /// [`store_budget_bytes`](Self::store_budget_bytes) wins, `None`
    /// defers to the `MC_STORE_BUDGET` env var.
    fn effective_store_budget(&self) -> Option<usize> {
        self.store_budget_bytes
            .or_else(|| env_value("MC_STORE_BUDGET", parse_usize))
    }

    /// The options as one JSON object with every env-deferred field
    /// *resolved* (`shards`, `store`, `store_budget_bytes` record what the
    /// exploration actually ran with, not the `0`/`Auto`/`None`
    /// placeholders) — the `options` payload of a run-ledger line.
    pub fn to_json(&self) -> String {
        let goal = match self.goal {
            ExploreGoal::FullGraph => "full_graph",
            ExploreGoal::Verdict(_) => "verdict",
        };
        let store = match self.effective_store() {
            StoreBackend::Disk => "disk",
            StoreBackend::Memory | StoreBackend::Auto => "memory",
        };
        let budget = self
            .effective_store_budget()
            .map_or_else(|| "null".to_string(), |b| b.to_string());
        format!(
            "{{\"max_configs\": {}, \"threads\": {}, \"symmetry\": {}, \
             \"por\": {}, \"interned\": {}, \"metrics\": {}, \"shards\": {}, \
             \"goal\": \"{goal}\", \"store\": \"{store}\", \
             \"store_budget_bytes\": {budget}}}",
            self.max_configs,
            self.threads,
            self.symmetry,
            self.por,
            self.interned,
            self.metrics,
            self.effective_shards()
        )
    }
}

/// Parses a numeric `MC_*` value (`None` = malformed).
fn parse_usize(v: &str) -> Option<usize> {
    v.parse().ok()
}

/// Parses an `MC_STORE` value: `disk` or `memory`, any case.
fn parse_store(v: &str) -> Option<StoreBackend> {
    if v.eq_ignore_ascii_case("disk") {
        Some(StoreBackend::Disk)
    } else if v.eq_ignore_ascii_case("memory") {
        Some(StoreBackend::Memory)
    } else {
        None
    }
}

/// Parses the raw value of env var `var`: `Ok(None)` when it is empty
/// (treated as unset), `Err(warning)` naming the variable and the value
/// when `parse` rejects it.
fn parse_env<T>(
    var: &str,
    raw: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let v = raw.trim();
    if v.is_empty() {
        return Ok(None);
    }
    parse(v).map(Some).ok_or_else(|| {
        format!("modelcheck: WARNING: ignoring malformed {var}={raw:?}; using the default")
    })
}

/// The parsed value of env var `var`, or `None` (the caller's default)
/// when it is unset, empty or malformed — a malformed value warns once.
fn env_value<T>(var: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let raw = std::env::var(var).ok()?;
    parse_env(var, &raw, parse).unwrap_or_else(|warning| {
        warn_once(&format!("malformed {var}={raw}"), &warning);
        None
    })
}

/// Which backend an exploration keeps its visited set in — see
/// [`ExploreOptions::store`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreBackend {
    /// Defer to the `MC_STORE` env var (`"disk"` selects
    /// [`Disk`](Self::Disk)), falling back to [`Memory`](Self::Memory).
    #[default]
    Auto,
    /// Everything resident: node rows, interner arenas and the
    /// fingerprint index all live in RAM.
    Memory,
    /// Bounded hot tier: cold node rows, complete interner arena
    /// segments and drained fingerprint-index entries spill to
    /// append-only files under a per-exploration run directory (removed
    /// when the exploration drops), keeping resident bytes near
    /// [`ExploreOptions::store_budget_bytes`]. The produced graph is
    /// node-for-node identical to the in-memory one. Requires the
    /// interned representation; a deep-representation exploration falls
    /// back to memory with a one-shot stderr note.
    Disk,
}

/// Upper bound on the shard count: beyond this, per-shard tables are so
/// sparse that routing overhead dominates, and the per-shard telemetry
/// vectors stop being readable.
const MAX_SHARDS: usize = 64;

/// Content hash of a configuration, used as the dedup index key.
fn fingerprint(config: &Config) -> u64 {
    let mut h = DefaultHasher::new();
    config.hash(&mut h);
    h.finish()
}

/// Finds `config` among the fingerprint bucket's candidates, verifying by
/// full equality (never trusting the hash alone).
fn lookup(
    index: &HashMap<u64, Vec<usize>>,
    configs: &[Config],
    fp: u64,
    config: &Config,
) -> Option<usize> {
    index
        .get(&fp)?
        .iter()
        .copied()
        .find(|&j| configs[j] == *config)
}

/// Content hash of a row of interner id words (the compact dedup key).
fn fingerprint_words(words: &[u32]) -> u64 {
    let mut h = DefaultHasher::new();
    words.hash(&mut h);
    h.finish()
}

/// Maps a pid bit mask through a pid permutation (`perm[old] = new`).
fn permute_mask(mask: u64, perm: &[usize]) -> u64 {
    let mut out = 0u64;
    let mut it = mask;
    while it != 0 {
        let q = it.trailing_zeros() as usize;
        it &= it - 1;
        out |= 1 << perm[q];
    }
    out
}

/// How the sequential merge placed a worker-produced successor.
enum MergeSlot {
    /// Already in the store (possibly inserted earlier in this level).
    Known(usize),
    /// Newly inserted under this node index.
    Added(usize),
    /// Rejected: the store is at the configuration bound.
    Capped,
}

/// The configuration storage and stepping backend of one exploration.
///
/// The explorer itself (`explore_core`) is generic over this trait, so the
/// BFS/POR/symmetry logic is written once and proven equal across the two
/// representations by the equivalence suites:
///
/// * [`DeepStore`] keeps each node as a full [`Config`] and verifies dedup
///   hits by deep equality — the pre-interning representation.
/// * [`CompactStore`] hash-conses states into a [`StateInterner`] and keeps
///   each node as one flat row of `u32` id words; dedup verification is a
///   word compare.
///
/// Workers hold `&self` (both stores are `Sync`; the interner's hit/miss
/// counters are relaxed atomics) and resolve successors against that
/// snapshot; only the sequential merge calls [`ConfigStore::insert`].
trait ConfigStore: Sync {
    /// A successor produced by a worker, not yet (necessarily) stored.
    type Carrier: Send;

    fn spec(&self) -> &SystemSpec;

    /// The telemetry sink of this exploration (shared with the merge
    /// thread; write-only from the explorer's point of view).
    fn recorder(&self) -> &Recorder;

    /// Enabled-process bitset of node `i`.
    fn enabled_bits(&self, i: usize) -> u64;

    /// Footprint of `pid`'s next step at node `i`.
    fn footprint(&self, i: usize, pid: Pid) -> Result<StepFootprint, SimError>;

    /// Whether two steps with these footprints commute at node `i`.
    fn independent(&self, i: usize, a: &StepFootprint, b: &StepFootprint) -> bool;

    /// All successors of stepping `pid` at node `i`, canonicalized when
    /// `symmetry`, each with the pid permutation that canonicalization
    /// applied (`None` when already canonical).
    fn successors(
        &self,
        i: usize,
        pid: Pid,
        symmetry: bool,
    ) -> Result<Successors<Self::Carrier>, SimError>;

    /// Worker-side: finds `c` in this snapshot of the store, if present.
    fn lookup(&self, c: &Self::Carrier) -> Option<usize>;

    /// Merge-side find-or-insert, bounded by `cap` configurations.
    fn insert(&mut self, c: Self::Carrier, cap: usize) -> MergeSlot;

    /// Streaming-verdict facts of terminal node `i` (decided values, hung /
    /// undecided classification) read off the stored representation — no
    /// deep `Config` is materialized.
    fn terminal_facts(&self, i: usize) -> TerminalFacts;

    /// Sequential level-boundary hook, called before each level's
    /// expansion with the node ids about to be expanded (workers are
    /// joined, so a disk-backed store may evict here: everything a worker
    /// can touch this level — the frontier's rows and the arena segments
    /// they reference — is pinned resident until the next call).
    fn begin_level(&mut self, _frontier: &[usize]) {}

    /// Estimated resident bytes of the store's hot tier (rows + arenas +
    /// fingerprint index + reload buffers), driving both the disk store's
    /// eviction and the in-memory budget truncation.
    fn resident_estimate(&self) -> usize {
        0
    }

    /// Whether this store spills cold state to disk (if so, the memory
    /// budget bounds residency by eviction instead of truncation).
    fn spilling(&self) -> bool {
        false
    }
}

/// Rough resident bytes of a fingerprint index: `HashMap` control word +
/// key + `Vec` header per entry, plus one `usize` per filed node id.
fn index_bytes(entries: usize, ids: usize) -> usize {
    entries * 48 + ids * 8
}

/// Folds per-process statuses into the streaming engine's terminal facts —
/// the id-native twin of `Config::decided_values` plus the hung/undecided
/// classification `properties.rs` derives per terminal.
fn facts_from_statuses<'s>(statuses: impl Iterator<Item = &'s ProcStatus>) -> TerminalFacts {
    let mut decided: Vec<Value> = Vec::new();
    let mut any_hung = false;
    let mut all_decided = true;
    for status in statuses {
        match status {
            ProcStatus::Decided(v) => decided.push(v.clone()),
            ProcStatus::Hung => {
                any_hung = true;
                all_decided = false;
            }
            ProcStatus::Fresh | ProcStatus::Running => all_decided = false,
        }
    }
    decided.sort();
    decided.dedup();
    TerminalFacts {
        decided,
        any_hung,
        all_decided,
    }
}

/// Worker-produced successors of one step: each carrier paired with the pid
/// permutation canonicalization applied (`None` when already canonical).
type Successors<C> = Vec<(C, Option<Vec<usize>>)>;

/// Deep-configuration backend: one [`Config`] per node, fingerprint index
/// verified by deep equality.
struct DeepStore<'a> {
    spec: &'a SystemSpec,
    rec: &'a Recorder,
    configs: Vec<Config>,
    index: HashMap<u64, Vec<usize>>,
}

impl<'a> DeepStore<'a> {
    fn new(spec: &'a SystemSpec, rec: &'a Recorder, init: Config) -> Self {
        let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
        index.entry(fingerprint(&init)).or_default().push(0);
        DeepStore {
            spec,
            rec,
            configs: vec![init],
            index,
        }
    }
}

impl ConfigStore for DeepStore<'_> {
    type Carrier = (Config, u64);

    fn spec(&self) -> &SystemSpec {
        self.spec
    }

    fn recorder(&self) -> &Recorder {
        self.rec
    }

    fn enabled_bits(&self, i: usize) -> u64 {
        self.configs[i].enabled_set().bits()
    }

    fn footprint(&self, i: usize, pid: Pid) -> Result<StepFootprint, SimError> {
        self.spec.step_footprint(&self.configs[i], pid)
    }

    fn independent(&self, i: usize, a: &StepFootprint, b: &StepFootprint) -> bool {
        self.spec.footprints_independent(&self.configs[i], a, b)
    }

    fn successors(
        &self,
        i: usize,
        pid: Pid,
        symmetry: bool,
    ) -> Result<Successors<Self::Carrier>, SimError> {
        let mut out = Vec::new();
        let succs = {
            let _t = self.rec.time_expand();
            self.spec.successors(&self.configs[i], pid)?
        };
        for (next, _info) in succs {
            let (next, perm) = if symmetry {
                let _t = self.rec.time_canonicalize();
                self.spec.canonicalize_config_perm(next)
            } else {
                (next, None)
            };
            let fp = {
                let _t = self.rec.time_dedup();
                fingerprint(&next)
            };
            out.push(((next, fp), perm));
        }
        Ok(out)
    }

    fn lookup(&self, (config, fp): &Self::Carrier) -> Option<usize> {
        lookup(&self.index, &self.configs, *fp, config)
    }

    fn insert(&mut self, (config, fp): Self::Carrier, cap: usize) -> MergeSlot {
        // A worker's miss can be this level's earlier insert; re-check.
        if let Some(j) = lookup(&self.index, &self.configs, fp, &config) {
            return MergeSlot::Known(j);
        }
        if self.configs.len() >= cap {
            return MergeSlot::Capped;
        }
        let j = self.configs.len();
        self.configs.push(config);
        self.index.entry(fp).or_default().push(j);
        MergeSlot::Added(j)
    }

    fn terminal_facts(&self, i: usize) -> TerminalFacts {
        let c = &self.configs[i];
        facts_from_statuses((0..c.nprocs()).map(|p| &c.proc_state(Pid::new(p)).status))
    }

    fn resident_estimate(&self) -> usize {
        let per_config = std::mem::size_of::<Config>()
            + self.configs.first().map_or(0, |c| {
                (c.nobjects() + c.nprocs()) * std::mem::size_of::<usize>()
            });
        self.configs.len() * per_config + index_bytes(self.index.len(), self.configs.len())
    }
}

/// A worker-stepped successor in id space: the [`PendingConfig`] plus the
/// fingerprint of its id words when every slot resolved against the
/// worker's interner snapshot (a successor carrying a genuinely fresh
/// state cannot be in the snapshot's visited set, so it needs no
/// fingerprint until the merge interns it).
struct CompactCarrier {
    pending: PendingConfig,
    fp: Option<u64>,
}

/// Hash-consed backend: states live once in a [`StateInterner`], nodes are
/// rows of `u32` id words in one flat array, and dedup verification is a
/// word-for-word compare (sound because interning makes id equality
/// equivalent to state equality).
struct CompactStore<'a> {
    spec: &'a SystemSpec,
    rec: &'a Recorder,
    interner: StateInterner,
    nobjects: usize,
    /// Words per node row (`nobjects + nprocs`).
    stride: usize,
    /// Row-major id words of the *hot* nodes: with no spill, node `i` is
    /// `words[i * stride .. (i + 1) * stride]`; with one, the vec holds
    /// only nodes `[hot_base, len)` (the on-disk prefix is faulted
    /// through the spill's reloaded tier).
    words: Vec<u32>,
    len: usize,
    index: HashMap<u64, Vec<usize>>,
    /// Node ids currently filed in `index` (drains reset it) — keeps
    /// [`resident_estimate`](ConfigStore::resident_estimate) O(1).
    index_ids: usize,
    /// Disk spill state ([`StoreBackend::Disk`] only); `None` preserves
    /// the fully-resident behavior bit for bit.
    spill: Option<Spill>,
}

impl<'a> CompactStore<'a> {
    fn new(spec: &'a SystemSpec, rec: &'a Recorder, init: &Config) -> Self {
        let mut interner = StateInterner::new();
        let compact = interner.intern_config(init);
        let words: Vec<u32> = compact.words().to_vec();
        let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
        index.entry(fingerprint_words(&words)).or_default().push(0);
        CompactStore {
            spec,
            rec,
            interner,
            nobjects: compact.nobjects(),
            stride: words.len(),
            words,
            len: 1,
            index,
            index_ids: 1,
            spill: None,
        }
    }

    /// Turns this store disk-backed with the given hot-tier budget.
    fn enable_spill(&mut self, budget: usize) {
        debug_assert!(self.spill.is_none());
        self.spill = Some(Spill::new(self.stride, budget));
    }

    fn row(&self, i: usize) -> &[u32] {
        self.row_resident(i)
            .expect("spilled row accessed outside the pinned frontier")
    }

    /// Node `i`'s row if it is resident (hot suffix or reloaded this
    /// level) — worker-safe: a `None` is a safe dedup false miss, since
    /// the merge re-checks with faulting.
    fn row_resident(&self, i: usize) -> Option<&[u32]> {
        let hot_base = self.spill.as_ref().map_or(0, Spill::hot_base);
        if i >= hot_base {
            let k = i - hot_base;
            Some(&self.words[k * self.stride..(k + 1) * self.stride])
        } else {
            self.spill.as_ref().and_then(|s| s.reloaded_row(i))
        }
    }

    /// Restores (if evicted) and level-pins one complete arena segment;
    /// tail segments are always resident and never evictable.
    fn restore_and_pin(&mut self, procs: bool, seg: usize) {
        restore_and_pin(&mut self.interner, &mut self.spill, self.rec, procs, seg);
    }

    /// Makes every frontier row and every arena segment those rows
    /// reference resident, pinned for the whole level.
    fn pin_frontier(&mut self, frontier: &[usize]) {
        let rec = self.rec;
        let hot_base = self.spill.as_ref().map_or(0, Spill::hot_base);
        for &i in frontier {
            if i < hot_base {
                self.spill
                    .as_mut()
                    .expect("hot_base > 0 implies a spill")
                    .fault_row(i, rec);
            }
        }
        let mut segs: Vec<(bool, usize)> = Vec::new();
        for &i in frontier {
            let row = self.row(i);
            for (slot, &id) in row.iter().enumerate() {
                segs.push((slot >= self.nobjects, id as usize / ARENA_SEGMENT));
            }
        }
        segs.sort_unstable();
        segs.dedup();
        for (procs, seg) in segs {
            self.restore_and_pin(procs, seg);
        }
    }

    /// Evicts cold state until the resident estimate fits the budget:
    /// complete, unpinned arena segments oldest-pin-first, then (still
    /// over) the in-memory fingerprint index drains to the sorted spilled
    /// index.
    fn evict_to_budget(&mut self) {
        let rec = self.rec;
        let Some(spill) = self.spill.as_ref() else {
            return;
        };
        let budget = spill.budget;
        let level = spill.level;
        if self.resident_estimate() <= budget {
            return;
        }
        let cands = evictable_segments(&self.interner, self.spill.as_ref().unwrap(), level);
        for (_, procs, seg) in cands {
            if self.resident_estimate() <= budget {
                break;
            }
            evict_segment(
                &mut self.interner,
                self.spill.as_mut().unwrap(),
                rec,
                procs,
                seg,
            );
        }
        if self.resident_estimate() > budget {
            let mut index = std::mem::take(&mut self.index);
            self.spill.as_mut().unwrap().drain_index(&mut index, rec);
            self.index = index;
            self.index_ids = 0;
        }
    }

    /// Restores the arena segments holding cold hash-colliding candidates
    /// of `pending`'s fresh states — `finalize` below requires every such
    /// candidate resident (the interner panics otherwise, because
    /// skipping one would break the id ⇔ value bijection).
    fn restore_cold(&mut self, pending: &PendingConfig) {
        if self.spill.is_none() {
            return;
        }
        let mut cold: Vec<(bool, usize)> = Vec::new();
        self.interner.cold_segments_for_pending(pending, &mut cold);
        for (procs, seg) in cold {
            self.restore_and_pin(procs, seg);
        }
    }

    /// Reconstitutes the fully-resident representation (freeze time):
    /// every evicted segment restored, the on-disk row prefix prepended
    /// back onto the hot vec, the spill (and its run directory) dropped.
    fn unspill(&mut self) {
        unspill(
            &mut self.interner,
            &mut self.spill,
            &mut self.words,
            self.rec,
        );
    }
}

/// Restores (if evicted) and level-pins one complete arena segment —
/// shared by [`CompactStore`] and [`CompactShard`]. A tail (incomplete)
/// segment is always resident and never written, so it is skipped.
fn restore_and_pin(
    interner: &mut StateInterner,
    spill: &mut Option<Spill>,
    rec: &Recorder,
    procs: bool,
    seg: usize,
) {
    let complete = if procs {
        interner.proc_segments()
    } else {
        interner.object_segments()
    };
    if seg >= complete {
        return;
    }
    let resident = if procs {
        interner.proc_segment_resident(seg)
    } else {
        interner.object_segment_resident(seg)
    };
    let spill = spill
        .as_mut()
        .expect("segment pinning implies an active spill");
    if !resident {
        let bytes = spill.read_segment(procs, seg, rec);
        if procs {
            interner.restore_proc_segment(seg, &bytes);
        } else {
            interner.restore_object_segment(seg, &bytes);
        }
    }
    spill.pin_segment(procs, seg);
}

/// Complete, resident arena segments not pinned this level, oldest pin
/// first — the order eviction walks until the budget is met.
fn evictable_segments(
    interner: &StateInterner,
    spill: &Spill,
    level: u64,
) -> Vec<(u64, bool, usize)> {
    let mut cands = Vec::new();
    for seg in 0..interner.object_segments() {
        if interner.object_segment_resident(seg) {
            let pin = spill.obj_pin.get(seg).copied().unwrap_or(0);
            if pin < level {
                cands.push((pin, false, seg));
            }
        }
    }
    for seg in 0..interner.proc_segments() {
        if interner.proc_segment_resident(seg) {
            let pin = spill.proc_pin.get(seg).copied().unwrap_or(0);
            if pin < level {
                cands.push((pin, true, seg));
            }
        }
    }
    cands.sort_unstable();
    cands
}

/// Writes (first eviction only — arena segments are immutable once
/// complete) and evicts one segment, dropping its `Arc`ed states.
fn evict_segment(
    interner: &mut StateInterner,
    spill: &mut Spill,
    rec: &Recorder,
    procs: bool,
    seg: usize,
) {
    if !spill.has_segment(procs, seg) {
        let bytes = if procs {
            interner.encode_proc_segment(seg)
        } else {
            interner.encode_object_segment(seg)
        };
        spill.write_segment(procs, seg, &bytes, rec);
    }
    if procs {
        interner.evict_proc_segment(seg);
    } else {
        interner.evict_object_segment(seg);
    }
}

/// Freeze-time reconstitution shared by both compact stores: every
/// evicted segment restored (bit-exact — the codec round-trips and ids
/// never move), the on-disk row prefix streamed back in front of the hot
/// suffix, and the spill dropped (removing its run directory). The
/// result is indistinguishable from a fully in-memory exploration's.
fn unspill(
    interner: &mut StateInterner,
    spill: &mut Option<Spill>,
    words: &mut Vec<u32>,
    rec: &Recorder,
) {
    let Some(spill) = spill.take() else {
        return;
    };
    for seg in 0..interner.object_segments() {
        if !interner.object_segment_resident(seg) {
            let bytes = spill.read_segment(false, seg, rec);
            interner.restore_object_segment(seg, &bytes);
        }
    }
    for seg in 0..interner.proc_segments() {
        if !interner.proc_segment_resident(seg) {
            let bytes = spill.read_segment(true, seg, rec);
            interner.restore_proc_segment(seg, &bytes);
        }
    }
    if spill.hot_base() > 0 {
        let mut all = spill.read_all_rows(rec);
        all.append(words);
        *words = all;
    }
}

/// The merge-side (authoritative) dedup shared by both compact stores:
/// the id of the stored row equal to `words`, if any. `hot` holds the rows
/// `[hot_base, ..)` and `mem` the in-memory index's candidates for `fp`;
/// cold candidates are faulted from disk. The spilled index is probed only
/// when every in-memory candidate misses — at most one row can equal
/// `words`, so a hit ends the search.
fn merge_dedup(
    hot: &[u32],
    stride: usize,
    spill: &mut Option<Spill>,
    mem: &[usize],
    fp: u64,
    words: &[u32],
    rec: &Recorder,
) -> Option<usize> {
    let hot_base = spill.as_ref().map_or(0, Spill::hot_base);
    let spilling = spill.is_some();
    let matches = |j: usize, spill: &mut Option<Spill>| {
        if j >= hot_base {
            if spilling {
                rec.count_store_hot_hits(1);
            }
            let k = j - hot_base;
            return &hot[k * stride..(k + 1) * stride] == words;
        }
        let spill = spill.as_mut().expect("non-resident row implies a spill");
        if let Some(row) = spill.reloaded_row(j) {
            rec.count_store_hot_hits(1);
            return row == words;
        }
        rec.count_store_hot_misses(1);
        spill.fault_row(j, rec) == words
    };
    if let Some(j) = mem.iter().copied().find(|&j| matches(j, spill)) {
        return Some(j);
    }
    let mut cold = Vec::new();
    spill.as_ref()?.spilled_candidates(fp, &mut cold, rec);
    cold.into_iter().find(|&j| matches(j, spill))
}

impl ConfigStore for CompactStore<'_> {
    type Carrier = CompactCarrier;

    fn spec(&self) -> &SystemSpec {
        self.spec
    }

    fn recorder(&self) -> &Recorder {
        self.rec
    }

    fn enabled_bits(&self, i: usize) -> u64 {
        self.interner.enabled_bits(self.nobjects, self.row(i))
    }

    fn footprint(&self, i: usize, pid: Pid) -> Result<StepFootprint, SimError> {
        self.spec
            .compact_footprint(&self.interner, self.row(i), pid)
    }

    fn independent(&self, i: usize, a: &StepFootprint, b: &StepFootprint) -> bool {
        match (a, b) {
            (StepFootprint::Local, _) | (_, StepFootprint::Local) => true,
            (
                StepFootprint::Object { obj: oa, op: pa },
                StepFootprint::Object { obj: ob, op: pb },
            ) => {
                oa != ob
                    || self.spec.ops_commute(
                        *oa,
                        self.interner.object(self.row(i)[oa.index()]),
                        pa,
                        pb,
                    )
            }
        }
    }

    fn successors(
        &self,
        i: usize,
        pid: Pid,
        symmetry: bool,
    ) -> Result<Successors<Self::Carrier>, SimError> {
        let row = self.row(i);
        let mut out = Vec::new();
        let succs = {
            let _t = self.rec.time_expand();
            self.spec.compact_successors(&self.interner, row, pid)?
        };
        for mut pending in succs {
            let perm = if symmetry {
                let _t = self.rec.time_canonicalize();
                self.spec.compact_canonicalize(&self.interner, &mut pending)
            } else {
                None
            };
            let fp = {
                let _t = self.rec.time_dedup();
                pending.resolved_words().map(fingerprint_words)
            };
            out.push((CompactCarrier { pending, fp }, perm));
        }
        Ok(out)
    }

    fn lookup(&self, c: &Self::Carrier) -> Option<usize> {
        let words = c.pending.resolved_words()?;
        let fp = c.fp?;
        // Worker-side: probe only the in-memory index and only resident
        // rows — a spilled candidate is a safe false miss (fresh state
        // rides by value; the merge's `insert` re-checks with faulting).
        let spilling = self.spill.is_some();
        self.index
            .get(&fp)?
            .iter()
            .copied()
            .find(|&j| match self.row_resident(j) {
                Some(row) => {
                    if spilling {
                        self.rec.count_store_hot_hits(1);
                    }
                    row == words
                }
                None => {
                    self.rec.count_store_hot_misses(1);
                    false
                }
            })
    }

    fn insert(&mut self, c: Self::Carrier, cap: usize) -> MergeSlot {
        // Intern the carrier's fresh states (if any), then dedup by id
        // words — the compact twin of the deep path's re-lookup. With a
        // spill, every cold hash-colliding candidate of the fresh states
        // is restored first: the merge is the authoritative dedup, so
        // unlike the worker's `lookup` it may not skip evicted state.
        self.restore_cold(&c.pending);
        let compact = self.interner.finalize(c.pending);
        let words = compact.words();
        let fp = fingerprint_words(words);
        let mem = self.index.get(&fp).map_or(&[][..], Vec::as_slice);
        if let Some(j) = merge_dedup(
            &self.words,
            self.stride,
            &mut self.spill,
            mem,
            fp,
            words,
            self.rec,
        ) {
            return MergeSlot::Known(j);
        }
        if self.len >= cap {
            return MergeSlot::Capped;
        }
        let j = self.len;
        self.words.extend_from_slice(words);
        self.index.entry(fp).or_default().push(j);
        self.index_ids += 1;
        self.len += 1;
        MergeSlot::Added(j)
    }

    fn terminal_facts(&self, i: usize) -> TerminalFacts {
        let row = self.row(i);
        facts_from_statuses(
            row[self.nobjects..]
                .iter()
                .map(|&id| &self.interner.proc(id).status),
        )
    }

    fn begin_level(&mut self, frontier: &[usize]) {
        if self.spill.is_none() {
            return;
        }
        let rec = self.rec;
        {
            let spill = self.spill.as_mut().unwrap();
            spill.level += 1;
            spill.clear_reloaded();
        }
        let budget = self.spill.as_ref().unwrap().budget;
        if self.resident_estimate() > budget {
            // Rows first: the append-only node rows are the dominant
            // linear cost, and spilling them is one sequential write.
            let rows = std::mem::take(&mut self.words);
            self.spill.as_mut().unwrap().spill_rows(&rows, rec);
        }
        self.pin_frontier(frontier);
        self.evict_to_budget();
    }

    fn resident_estimate(&self) -> usize {
        self.interner.table_bytes()
            + self.interner.resident_state_bytes()
            + self.words.len() * std::mem::size_of::<u32>()
            + index_bytes(self.index.len(), self.index_ids)
            + self
                .spill
                .as_ref()
                .map_or(0, |s| s.reloaded_bytes() + s.fence_bytes())
    }

    fn spilling(&self) -> bool {
        self.spill.is_some()
    }
}

/// A successor resolved by a level-expansion worker.
enum StepResult<C> {
    /// The successor already had a node index before this level's merge.
    Existing(usize),
    /// A carrier unseen at expansion time; the merge re-checks it against
    /// nodes added earlier in the level before inserting.
    Fresh(C),
}

/// The expansion of one work item: successors in stable (pid, outcome)
/// order, each with the sleep set to install at the successor (all-zero
/// without POR).
struct NodeExpansion<C> {
    steps: Vec<(Pid, StepResult<C>, u64)>,
    /// The pids this item actually fired.
    fired: u64,
    /// Ample candidates suppressed by the sleep set (first visits only).
    slept: u64,
    terminal: bool,
}

/// One unit of frontier work.
///
/// A `fresh` item is a node's first expansion: the worker picks the ample
/// set itself and reads the node's entry sleep set from `first_sleep`. A
/// non-fresh item re-expands an already-visited node with an explicit
/// `fire` mask (sleep-set wake-ups and cycle-proviso escalations).
#[derive(Clone, Copy)]
struct WorkItem {
    node: usize,
    fire: u64,
    sleep: u64,
    fresh: bool,
}

/// Picks a persistent ("ample") subset of the enabled pids of one
/// configuration; only that subset is fired at the node's first visit.
///
/// Soundness requires *persistence*: no step outside the set, nor any
/// future step reachable without the set, may conflict with a step in the
/// set. Two criteria, tried in order:
///
/// 1. **Decide singleton** — an enabled process whose next action is a
///    decision ([`StepFootprint::Local`]) touches only its own (absorbing)
///    process state, so it alone is a persistent set.
/// 2. **Smallest static conflict component** — from the declared
///    whole-execution object footprints
///    ([`SystemSpec::static_independent`]): the enabled pids are split into
///    components closed under "may ever conflict", and the smallest
///    component (ties: the one containing the lowest pid) is taken. A
///    process without a declared footprint conflicts with everyone, which
///    collapses the components into one.
///
/// Falls back to the full enabled set (no reduction). The result is
/// deterministic: it depends only on the configuration and the spec.
fn choose_ample(spec: &SystemSpec, enabled: u64, fps: &[Option<StepFootprint>]) -> u64 {
    let mut it = enabled;
    while it != 0 {
        let i = it.trailing_zeros() as usize;
        it &= it - 1;
        if matches!(fps[i], Some(StepFootprint::Local)) {
            return 1 << i;
        }
    }
    let mut best = enabled;
    let mut remaining = enabled;
    while remaining != 0 {
        let seed = remaining & remaining.wrapping_neg();
        let mut comp = seed;
        loop {
            let mut grown = comp;
            let mut others = enabled & !comp;
            while others != 0 {
                let q = others.trailing_zeros() as usize;
                others &= others - 1;
                if comp & !spec.static_independent(Pid::new(q)) != 0 {
                    grown |= 1 << q;
                }
            }
            if grown == comp {
                break;
            }
            comp = grown;
        }
        if comp.count_ones() < best.count_ones() {
            best = comp;
        }
        remaining &= !comp;
    }
    best
}

/// The level-shaped facts a heartbeat reports, frozen at level start so
/// expansion workers can tick the progress sink without touching merge
/// state. Heartbeats fire off the *expansion counter* (every `N`
/// expansions), so ticking inside the expansion loop keeps them coming
/// on a single enormous level — checking only at level boundaries left
/// minutes of silence (the `Recorder`'s CAS claim makes concurrent
/// worker ticks fire once per interval).
#[derive(Clone, Copy)]
struct LevelCtx {
    level: u32,
    nodes: usize,
    frontier: usize,
    remaining: usize,
}

/// Expands one work item against a read-only snapshot of the graph.
fn expand_item<S: ConfigStore>(
    store: &S,
    first_sleep: &[u64],
    item: WorkItem,
    opts: &ExploreOptions,
    ctx: LevelCtx,
) -> Result<NodeExpansion<S::Carrier>, SimError> {
    let rec = store.recorder();
    rec.count_expansions(1);
    rec.heartbeat(ctx.level, ctx.nodes, ctx.frontier, ctx.remaining);
    let node = item.node;
    let enabled = store.enabled_bits(node);
    if enabled == 0 {
        return Ok(NodeExpansion {
            steps: Vec::new(),
            fired: 0,
            slept: 0,
            terminal: true,
        });
    }

    // Per-pid step footprints: ample selection and successor sleep masks
    // both need them (POR only).
    let mut fps: Vec<Option<StepFootprint>> = Vec::new();
    if opts.por {
        let _t = rec.time_por();
        fps = vec![None; store.spec().nprocs()];
        let mut it = enabled;
        while it != 0 {
            let i = it.trailing_zeros() as usize;
            it &= it - 1;
            fps[i] = Some(store.footprint(node, Pid::new(i))?);
        }
    }

    let (fire, sleep, slept) = if !opts.por {
        (enabled, 0, 0)
    } else if item.fresh {
        let _t = rec.time_por();
        let sleep = first_sleep[node] & enabled;
        let ample = choose_ample(store.spec(), enabled, &fps);
        let mut fire = ample & !sleep;
        let mut slept = ample & sleep;
        if fire == 0 {
            // Never strand a node with enabled processes: un-sleep the
            // lowest ample candidate, so every non-terminal node keeps at
            // least one outgoing edge (`check_nonblocking` depends on it).
            let low = ample & ample.wrapping_neg();
            fire = low;
            slept &= !low;
        }
        (fire, sleep, slept)
    } else {
        (item.fire, item.sleep, 0)
    };

    let mut steps = Vec::new();
    let mut done = 0u64; // earlier siblings fired by this item
    let mut it = fire;
    while it != 0 {
        let i = it.trailing_zeros() as usize;
        it &= it - 1;
        let pid = Pid::new(i);
        // Sleep basis at the successor: the incoming sleep plus this item's
        // earlier siblings, minus the stepping pid — filtered below to the
        // pids whose next step is independent of this one.
        let base = if opts.por {
            (sleep | done) & enabled & !(1 << i)
        } else {
            0
        };
        for (next, perm) in store.successors(node, pid, opts.symmetry)? {
            if perm.is_some() {
                rec.count_symmetry_hits(1);
            }
            let mut succ_sleep = 0u64;
            if base != 0 {
                let _t = rec.time_por();
                let me = fps[i].as_ref().expect("enabled pid has a footprint");
                let mut qs = base;
                while qs != 0 {
                    let q = qs.trailing_zeros() as usize;
                    qs &= qs - 1;
                    let other = fps[q].as_ref().expect("enabled pid has a footprint");
                    if store.independent(node, me, other) {
                        succ_sleep |= 1 << q;
                    }
                }
                if let Some(perm) = &perm {
                    // The canonical successor renames pids; rename the
                    // sleep mask with it.
                    succ_sleep = permute_mask(succ_sleep, perm);
                }
            }
            let step = {
                let _t = rec.time_dedup();
                match store.lookup(&next) {
                    Some(j) => StepResult::Existing(j),
                    None => StepResult::Fresh(next),
                }
            };
            steps.push((pid, step, succ_sleep));
        }
        done |= 1 << i;
    }
    rec.count_generated(steps.len() as u64);
    Ok(NodeExpansion {
        steps,
        fired: fire,
        slept,
        terminal: false,
    })
}

/// Expands `items` against a read-only snapshot of the graph.
fn expand_chunk<S: ConfigStore>(
    store: &S,
    first_sleep: &[u64],
    items: &[WorkItem],
    opts: &ExploreOptions,
    ctx: LevelCtx,
) -> Result<Vec<NodeExpansion<S::Carrier>>, SimError> {
    let mut out = Vec::with_capacity(items.len());
    for &item in items {
        out.push(expand_item(store, first_sleep, item, opts, ctx)?);
    }
    Ok(out)
}

/// Below this frontier size a level is always expanded sequentially:
/// spawning scoped threads costs more than stepping a handful of nodes,
/// and the merge produces the same graph either way.
const PARALLEL_THRESHOLD: usize = 32;

/// Hardware threads the host can actually run concurrently (cached; 1 on
/// query failure). Sharded exploration processes shards in-line on a
/// single-core host: the graph is identical either way, spawning only
/// costs, and a shard worker's wall-clock phase timers would otherwise
/// absorb the time it spent descheduled behind its sibling workers.
fn host_parallelism() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Expands one BFS level, splitting it across `opts.threads` workers.
/// Results are returned in the same order as `level` regardless of the
/// split.
fn expand_level<S: ConfigStore>(
    store: &S,
    first_sleep: &[u64],
    level: &[WorkItem],
    opts: &ExploreOptions,
    ctx: LevelCtx,
) -> Result<Vec<NodeExpansion<S::Carrier>>, SimError> {
    let threads = opts.threads.clamp(1, level.len().max(1));
    if threads <= 1 || level.len() < PARALLEL_THRESHOLD {
        return expand_chunk(store, first_sleep, level, opts, ctx);
    }
    let chunk_size = level.len().div_ceil(threads);
    type ChunkResult<S> = Result<Vec<NodeExpansion<<S as ConfigStore>::Carrier>>, SimError>;
    let results: Vec<ChunkResult<S>> = std::thread::scope(|s| {
        let handles: Vec<_> = level
            .chunks(chunk_size)
            .map(|chunk| s.spawn(move || expand_chunk(store, first_sleep, chunk, opts, ctx)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("exploration worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(level.len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// One outgoing edge of the configuration graph.
///
/// Node indices are `u32`: the CSR representation caps a graph at
/// `u32::MAX` nodes, far beyond what any exhaustive exploration holds in
/// memory, and halves the edge array's footprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// The process whose step produced this edge.
    pub pid: Pid,
    /// Index of the successor configuration.
    pub to: u32,
}

impl Edge {
    /// The successor node index widened for direct indexing.
    pub fn target(&self) -> usize {
        self.to as usize
    }
}

/// Summary statistics of a [`StateGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of distinct reachable configurations.
    pub configs: usize,
    /// Total number of edges (steps).
    pub edges: usize,
    /// Number of final configurations.
    pub terminals: usize,
    /// Maximum branching factor of any configuration.
    pub max_out_degree: usize,
    /// Longest shortest-path distance from the initial configuration.
    pub max_depth: usize,
    /// Whether the exploration was truncated.
    pub truncated: bool,
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} configs, {} edges, {} terminals, out-degree ≤ {}, depth {}{}",
            self.configs,
            self.edges,
            self.terminals,
            self.max_out_degree,
            self.max_depth,
            if self.truncated { " (TRUNCATED)" } else { "" }
        )
    }
}

/// A borrowed view of one graph node with **id-native** accessors:
/// process statuses, enabled sets and decision sets are read straight
/// from the store's representation (interned `u32` id rows resolve one
/// id through the interner; deep nodes borrow from the `Config`), so
/// property predicates probing thousands of nodes never re-materialize a
/// deep [`Config`] per probe. Use [`NodeView::config`] only when the
/// whole configuration is genuinely needed.
#[derive(Clone, Copy, Debug)]
pub struct NodeView<'g> {
    graph: &'g StateGraph,
    index: usize,
}

impl<'g> NodeView<'g> {
    /// This node's index in the graph.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of processes in the system.
    pub fn nprocs(&self) -> usize {
        match &self.graph.store {
            NodeStore::Deep(configs) => configs[self.index].nprocs(),
            NodeStore::Interned(nodes) => nodes.stride - nodes.nobjects,
            NodeStore::Virtual { .. } => unreachable!("NodeView over a Virtual store"),
        }
    }

    /// Status of process `pid`, borrowed from the store.
    pub fn status(&self, pid: Pid) -> &'g ProcStatus {
        match &self.graph.store {
            NodeStore::Deep(configs) => &configs[self.index].proc_state(pid).status,
            NodeStore::Interned(nodes) => {
                let row = self.index * nodes.stride;
                let id = nodes.words[row + nodes.nobjects + pid.index()];
                &nodes.interner.proc(id).status
            }
            NodeStore::Virtual { .. } => unreachable!("NodeView over a Virtual store"),
        }
    }

    /// Bitset of the enabled processes.
    pub fn enabled_bits(&self) -> u64 {
        match &self.graph.store {
            NodeStore::Deep(configs) => configs[self.index].enabled_set().bits(),
            _ => {
                let mut bits = 0u64;
                for p in 0..self.nprocs() {
                    if self.status(Pid::new(p)).is_enabled() {
                        bits |= 1 << p;
                    }
                }
                bits
            }
        }
    }

    /// `true` iff no process is enabled (a terminal configuration).
    pub fn is_final(&self) -> bool {
        self.enabled_bits() == 0
    }

    /// Per-process decisions, `None` for undecided processes.
    pub fn decisions(&self) -> Vec<Option<Value>> {
        (0..self.nprocs())
            .map(|p| self.status(Pid::new(p)).decision().cloned())
            .collect()
    }

    /// The sorted, deduplicated set of values decided at this node.
    pub fn decided_values(&self) -> Vec<Value> {
        let mut vals: Vec<Value> = (0..self.nprocs())
            .filter_map(|p| self.status(Pid::new(p)).decision().cloned())
            .collect();
        vals.sort();
        vals.dedup();
        vals
    }

    /// The full configuration, materialized on demand — per-probe cost
    /// the id-native accessors above avoid; prefer them in predicates.
    pub fn config(&self) -> Config {
        self.graph.config(self.index)
    }
}

/// The reachable configuration graph of a system, with every scheduler choice
/// and every nondeterministic object outcome expanded (unless reduced — see
/// [`StateGraph::is_por_reduced`]).
///
/// Node `0` is the initial configuration. Adjacency is stored in
/// compressed-sparse-row form: `row_ptr[i]..row_ptr[i + 1]` indexes node
/// `i`'s slice of one flat edge array.
#[derive(Clone, Debug)]
pub struct StateGraph {
    store: NodeStore,
    row_ptr: Vec<u32>,
    edge_arr: Vec<Edge>,
    terminals: Vec<usize>,
    truncated: bool,
    por: bool,
    metrics: ExploreMetrics,
    /// The streaming verdict of a [`ExploreGoal::Verdict`] exploration
    /// (`None` under [`ExploreGoal::FullGraph`]). When present, the CSR
    /// adjacency was never frozen — see [`StateGraph::is_verdict_only`].
    verdict: Option<StreamingVerdict>,
}

/// The frozen node arena of a [`StateGraph`], in whichever representation
/// the exploration used ([`ExploreOptions::interned`]).
#[derive(Clone, Debug)]
enum NodeStore {
    /// One deep [`Config`] per node.
    Deep(Vec<Config>),
    /// Hash-consed nodes (boxed: the arena bundle dwarfs the `Vec` variant).
    Interned(Box<InternedNodes>),
    /// No node contents at all — a sharded verdict-goal exploration skips
    /// the arena stitch/gather (its freeze phase) because verdict-only
    /// callers never look at configurations again. Only the node count
    /// survives.
    Virtual {
        /// Number of explored configurations.
        len: usize,
    },
}

/// Hash-consed node arena: `stride` id words per node in one flat row-major
/// array, resolved through the interner. `len` is explicit because a
/// zero-process zero-object system has `stride == 0`.
#[derive(Clone, Debug)]
struct InternedNodes {
    interner: StateInterner,
    nobjects: usize,
    stride: usize,
    words: Vec<u32>,
    len: usize,
}

impl NodeStore {
    fn len(&self) -> usize {
        match self {
            NodeStore::Deep(configs) => configs.len(),
            NodeStore::Interned(nodes) => nodes.len,
            NodeStore::Virtual { len } => *len,
        }
    }
}

/// The explorer's output before node storage is attached: CSR adjacency,
/// terminals and the truncation flag. Under a verdict goal the CSR vectors
/// are empty (the freeze is skipped) and `edges` keeps the true recorded
/// edge count for the metrics; otherwise `edges == edge_arr.len()`.
struct GraphCore {
    row_ptr: Vec<u32>,
    edge_arr: Vec<Edge>,
    terminals: Vec<usize>,
    truncated: bool,
    edges: usize,
    verdict: Option<StreamingVerdict>,
}

/// One-line stderr warning when an exploration hits its `max_configs`
/// bound: callers routinely ignore the `truncated` flag, and a silently
/// partial graph invalidates every analysis run on it. Emitted once per
/// process (a benchmark timing loop may truncate thousands of times); the
/// cause is always recorded per graph in [`ExploreMetrics`].
fn warn_truncated(cap: usize, configs: usize) {
    warn_once(
        "truncated",
        &format!(
            "modelcheck: WARNING: exploration truncated at max_configs = {cap} \
             ({configs} configs kept); analyses on this graph are partial \
             (further truncation warnings suppressed for this process)"
        ),
    );
}

/// One-line stderr hint when an in-memory exploration truncates on its
/// hot-tier byte budget: the disk store lifts exactly this bound.
fn warn_budget_truncated(budget: usize, configs: usize) {
    warn_once(
        "budget_truncated",
        &format!(
            "modelcheck: WARNING: exploration truncated at store_budget_bytes = \
             {budget} ({configs} configs kept); analyses on this graph are \
             partial. Set MC_STORE=disk (or \
             ExploreOptions::with_store(StoreBackend::Disk)) to spill cold \
             state to disk instead of truncating (further budget-truncation \
             warnings suppressed for this process)"
        ),
    );
}

/// One-line stderr note when the disk store is requested for a
/// deep-representation exploration, which cannot spill (there is no
/// interner arena to evict); the run proceeds fully in memory.
fn warn_disk_needs_interned() {
    warn_once(
        "disk_needs_interned",
        "modelcheck: NOTE: the disk store spills interner arenas, so it \
         requires the hash-consed representation \
         (ExploreOptions::interned); this deep-representation exploration \
         falls back to the in-memory store",
    );
}

/// Runs the level-synchronized BFS against `store` (already seeded with
/// node 0) and freezes the resulting adjacency into CSR form. All
/// reduction logic (symmetry, POR, the cycle proviso) lives here, once,
/// for both node representations.
fn explore_core<S: ConfigStore>(
    store: &mut S,
    opts: &ExploreOptions,
    rec: &Recorder,
) -> Result<GraphCore, SimError> {
    // Flat (from, edge) buffer, frozen into CSR at the end.
    let mut edge_buf: Vec<(u32, Edge)> = Vec::new();
    let mut terminals = Vec::new();
    let mut truncated = false;
    // Streaming-verdict accumulator (verdict goal only). Fed inside the
    // merge loop; consulted once per level, after the revisits, so the
    // exit point — and with it the explored-config count — is identical
    // for every thread count, shard count and store representation.
    let mut engine = match &opts.goal {
        ExploreGoal::FullGraph => None,
        ExploreGoal::Verdict(query) => Some(VerdictEngine::new(query.clone())),
    };
    let mut early_exit = false;

    // Per-node exploration bookkeeping. `depth` (first-discovery BFS
    // level) doubles as the cycle proviso's back-edge detector; the
    // rest is sleep-set state, all-zero without POR.
    let mut depth: Vec<u32> = vec![0];
    let mut first_sleep: Vec<u64> = vec![0];
    let mut explored: Vec<u64> = vec![0]; // pids fired or enqueued-and-merged
    let mut slept: Vec<u64> = vec![0]; // pids suppressed by sleep sets
    let mut pending: Vec<u64> = vec![0]; // pids enqueued, not yet merged
    let mut expanded: Vec<bool> = vec![false];
    let mut full: Vec<bool> = vec![false]; // escalated by the proviso

    let mut level = vec![WorkItem {
        node: 0,
        fire: 0,
        sleep: 0,
        fresh: true,
    }];
    let mut cur_depth: u32 = 0;
    let mut scratch: Vec<Edge> = Vec::new();
    // Memory-budget truncation: with an explicit hot-tier budget but no
    // spill to honor it by eviction, the level loop stops *adding* nodes
    // once the resident estimate crosses the budget — a clean, recorded
    // truncation instead of unbounded growth.
    let mem_budget = if store.spilling() {
        None
    } else {
        opts.effective_store_budget()
    };
    let mut frontier_ids: Vec<usize> = Vec::new();
    while !level.is_empty() {
        // Level wall time feeds the per-level trace records; read the
        // clock only when timing is on so the untimed path stays
        // syscall-free.
        let t_level = rec.is_timing().then(Instant::now);
        let nodes_before = depth.len();
        frontier_ids.clear();
        frontier_ids.extend(level.iter().map(|it| it.node));
        store.begin_level(&frontier_ids);
        let over_budget = mem_budget.is_some_and(|b| store.resident_estimate() > b);
        let level_cap = if over_budget { 0 } else { opts.max_configs };
        let ctx = LevelCtx {
            level: cur_depth,
            nodes: nodes_before,
            frontier: level.len(),
            remaining: opts.max_configs.saturating_sub(nodes_before),
        };
        let expansions = expand_level(&*store, &first_sleep, &level, opts, ctx)?;
        let merge_t = rec.time_merge();
        let mut next_level: Vec<WorkItem> = Vec::new();
        // POR: edges into already-known nodes; processed only after the
        // whole level has merged, because the target's own expansion may
        // merge later in this same level.
        let mut revisits: Vec<(usize, u64)> = Vec::new();
        for (item, exp) in level.iter().zip(expansions) {
            let i = item.node;
            if exp.terminal {
                terminals.push(i);
                expanded[i] = true;
                if let Some(eng) = engine.as_mut() {
                    eng.on_terminal(store.terminal_facts(i));
                }
                continue;
            }
            let mut escalate = false;
            scratch.clear();
            rec.count_sleep_pruned(u64::from(exp.slept.count_ones()));
            for (pid, step, succ_sleep) in exp.steps {
                let (j, known) = match step {
                    StepResult::Existing(j) => {
                        rec.count_dedup_hits(1);
                        (j, true)
                    }
                    // A worker's miss can be an earlier merge of this same
                    // level; `insert` re-checks before adding.
                    StepResult::Fresh(next) => {
                        let slot = {
                            let _t = rec.time_intern();
                            store.insert(next, level_cap)
                        };
                        match slot {
                            MergeSlot::Known(j) => {
                                rec.count_dedup_hits(1);
                                (j, true)
                            }
                            MergeSlot::Capped => {
                                rec.count_capped(1);
                                match mem_budget {
                                    Some(b) if over_budget => rec.set_budget_truncated(b),
                                    _ => rec.set_truncated(opts.max_configs),
                                }
                                truncated = true;
                                continue;
                            }
                            MergeSlot::Added(j) => {
                                rec.count_added(1);
                                assert!(j < u32::MAX as usize, "state graph exceeds u32 node ids");
                                depth.push(cur_depth + 1);
                                first_sleep.push(succ_sleep);
                                explored.push(0);
                                slept.push(0);
                                pending.push(0);
                                expanded.push(false);
                                full.push(false);
                                next_level.push(WorkItem {
                                    node: j,
                                    fire: 0,
                                    sleep: 0,
                                    fresh: true,
                                });
                                (j, false)
                            }
                        }
                    }
                };
                if known && depth[j] <= depth[i] {
                    // Retreating edge — the only kind that can close a
                    // cycle (depth deltas are <= +1 per edge and sum to 0
                    // around a cycle). Triggers the POR cycle proviso and
                    // registers a streaming cycle-check candidate.
                    if opts.por {
                        escalate = true;
                    }
                    if let Some(eng) = engine.as_mut() {
                        eng.on_retreating_edge();
                    }
                }
                if opts.por && known {
                    revisits.push((j, succ_sleep));
                }
                scratch.push(Edge { pid, to: j as u32 });
            }
            // Canonicalization can map distinct successors of one node
            // onto the same representative; drop the parallel
            // duplicates (the full graph never produces them). One
            // sort+dedup per expansion replaces the old O(deg²)
            // `contains` scan, and per-expansion dedup is per-node
            // dedup: a pid never fires twice for one node, so
            // duplicates cannot span expansions.
            if opts.symmetry {
                scratch.sort_unstable_by_key(|e| (e.pid.index(), e.to));
                scratch.dedup();
            }
            edge_buf.extend(scratch.drain(..).map(|e| (i as u32, e)));
            expanded[i] = true;
            explored[i] |= exp.fired;
            pending[i] &= !exp.fired;
            slept[i] = (slept[i] | exp.slept) & !explored[i];
            if opts.por && escalate && !full[i] {
                // Cycle proviso: fully expand one node per cycle so no
                // enabled process is ignored around it. Everything not
                // yet fired or in flight is fired next level, sleep
                // ignored.
                full[i] = true;
                let enabled = store.enabled_bits(i);
                let rest = enabled & !explored[i] & !pending[i];
                slept[i] = 0;
                if rest != 0 {
                    pending[i] |= rest;
                    next_level.push(WorkItem {
                        node: i,
                        fire: rest,
                        sleep: 0,
                        fresh: false,
                    });
                }
            }
            // Mid-merge heartbeat: the whole level's expansions are
            // already in the counter, so a long merge after a huge
            // expansion still reports within one interval of it.
            rec.heartbeat(
                cur_depth,
                depth.len(),
                level.len(),
                opts.max_configs.saturating_sub(depth.len()),
            );
        }
        // Sleep-set revisit rule: reaching a known node along a new
        // path whose sleep set no longer covers a previously-suppressed
        // pid re-fires exactly that pid. Processed after the level's
        // merges so `expanded`/`slept` are final for the level.
        for (j, new_sleep) in revisits {
            if !expanded[j] {
                // First expansion still queued: shrink the sleep set it
                // will start from instead.
                first_sleep[j] &= new_sleep;
                continue;
            }
            let wake = slept[j] & !new_sleep;
            if wake != 0 {
                slept[j] &= !wake;
                pending[j] |= wake;
                next_level.push(WorkItem {
                    node: j,
                    fire: wake,
                    sleep: new_sleep,
                    fresh: false,
                });
            }
        }
        drop(merge_t);
        rec.record_peak_bytes(store.resident_estimate());
        // Level-granular verdict evaluation: at most one (untimed) cycle
        // check per level, then exit if any queried conjunct is refuted.
        if let Some(eng) = engine.as_mut() {
            if eng.wants_cycle_check() {
                eng.record_cycle_check(edge_buf_has_cycle(depth.len(), &edge_buf));
            }
            early_exit = eng.refutation().is_some();
        }
        rec.record_level(
            level.len(),
            depth.len() - nodes_before,
            depth.len(),
            edge_buf.len(),
            t_level.map_or(Duration::ZERO, |t| t.elapsed()),
        );
        rec.heartbeat(
            cur_depth,
            depth.len(),
            next_level.len(),
            opts.max_configs.saturating_sub(depth.len()),
        );
        if early_exit {
            break;
        }
        level = next_level;
        cur_depth += 1;
    }
    terminals.sort_unstable();
    terminals.dedup();
    let verdict = engine.map(|mut eng| {
        if !truncated && !early_exit && eng.needs_final_cycle_check() {
            // A cycle through an old retreating candidate may only have
            // closed after that candidate's level was checked; completion
            // therefore re-checks once over the final edge buffer.
            eng.record_cycle_check(edge_buf_has_cycle(depth.len(), &edge_buf));
        }
        eng.finish(
            truncated.then_some(opts.max_configs),
            early_exit,
            depth.len(),
        )
    });
    let edges = edge_buf.len();
    let (row_ptr, edge_arr) = if verdict.is_some() {
        // Verdict goal: nobody reads the CSR — skip the freeze entirely.
        (Vec::new(), Vec::new())
    } else {
        freeze_csr(depth.len(), edge_buf, rec)
    };
    Ok(GraphCore {
        row_ptr,
        edge_arr,
        terminals,
        truncated,
        edges,
        verdict,
    })
}

/// Cycle check over the in-flight edge buffer: builds a throwaway CSR and
/// runs the same three-color DFS as [`StateGraph::has_cycle`]. Deliberately
/// *untimed* — under a verdict goal the freeze/reverse-CSR slots must read
/// zero calls, and this linear scan is part of the streaming merge work.
fn edge_buf_has_cycle(n: usize, edge_buf: &[(u32, Edge)]) -> bool {
    let mut row_ptr = vec![0u32; n + 1];
    for &(from, _) in edge_buf {
        row_ptr[from as usize + 1] += 1;
    }
    for k in 0..n {
        row_ptr[k + 1] += row_ptr[k];
    }
    let mut cursor: Vec<u32> = row_ptr[..n].to_vec();
    let mut to = vec![0u32; edge_buf.len()];
    for &(from, e) in edge_buf {
        let c = &mut cursor[from as usize];
        to[*c as usize] = e.to;
        *c += 1;
    }
    // Three-color DFS (0 = white, 1 = on stack, 2 = done), iterative.
    let mut color = vec![0u8; n];
    let mut stack: Vec<(u32, u32)> = Vec::new();
    for root in 0..n as u32 {
        if color[root as usize] != 0 {
            continue;
        }
        color[root as usize] = 1;
        stack.push((root, row_ptr[root as usize]));
        while let Some(&mut (v, ref mut e)) = stack.last_mut() {
            if *e == row_ptr[v as usize + 1] {
                color[v as usize] = 2;
                stack.pop();
                continue;
            }
            let w = to[*e as usize];
            *e += 1;
            match color[w as usize] {
                0 => {
                    color[w as usize] = 1;
                    stack.push((w, row_ptr[w as usize]));
                }
                1 => return true, // back edge: cycle
                _ => {}
            }
        }
    }
    false
}

/// Freezes a flat `(from, edge)` buffer into CSR adjacency: a stable
/// counting sort by source node (edges of one node keep their merge
/// order).
fn freeze_csr(n: usize, edge_buf: Vec<(u32, Edge)>, rec: &Recorder) -> (Vec<u32>, Vec<Edge>) {
    let _t = rec.time_freeze();
    assert!(
        edge_buf.len() < u32::MAX as usize,
        "state graph exceeds u32 edge ids"
    );
    let mut row_ptr = vec![0u32; n + 1];
    for &(from, _) in &edge_buf {
        row_ptr[from as usize + 1] += 1;
    }
    for k in 0..n {
        row_ptr[k + 1] += row_ptr[k];
    }
    let mut cursor: Vec<u32> = row_ptr[..n].to_vec();
    let mut edge_arr = vec![
        Edge {
            pid: Pid::new(0),
            to: 0
        };
        edge_buf.len()
    ];
    for (from, e) in edge_buf {
        let c = &mut cursor[from as usize];
        edge_arr[*c as usize] = e;
        *c += 1;
    }
    (row_ptr, edge_arr)
}

// ---------------------------------------------------------------------------
// Sharded exploration (Stern–Dill fingerprint partitioning)
// ---------------------------------------------------------------------------
//
// With [`ExploreOptions::shards`] > 1 the visited set, interner arena and
// frontier are partitioned by the *content* fingerprint of each
// (canonicalized) configuration — a fingerprint computed from the states
// themselves, never from interner ids, so every occurrence of one
// configuration routes to the same owning shard no matter which shard
// produced it. Each BFS level then runs in five phases:
//
// 1. **Expand** (parallel, one worker per shard): each shard steps its own
//    frontier items, canonicalizes the successors, and routes each into
//    the owning shard's inbox tagged with a globally ordered production
//    tag `(frontier item sequence, step index)`.
// 2. **Merge** (parallel): each shard sorts its inbox by tag and
//    find-or-inserts every carrier into its own dedup table — because all
//    occurrences of a configuration share one owner, the shard alone
//    decides which occurrence is globally first.
// 3. **Assign** (sequential): the per-shard new-node tag lists are merged
//    by tag; the first `max_configs − total` get dense global node ids in
//    tag order — exactly the order the single-store merge would have
//    inserted them — and the over-budget suffix of each shard's arena is
//    popped back out.
// 4. **Feedback** (sequential): the per-tag responses are replayed in tag
//    order against the global bookkeeping — edges, sleep sets, cycle
//    proviso escalations, revisit wake-ups — reproducing the single-store
//    merge loop decision-for-decision.
// 5. The next frontier is sequenced in the same order the single-store
//    explorer would have enqueued it, and each item stays with its owning
//    shard.
//
// Because symmetry canonicalization runs *before* fingerprinting and the
// canonical form is content-addressed, an orbit never splits across
// shards; POR decisions all happen in the sequential feedback phase
// against global state. The produced graph — node numbering, edges,
// terminals, truncation — is therefore identical for every shard count,
// which `scripts/bench_guard.sh` gates by diffing `MC_SHARDS=1` vs
// `MC_SHARDS=4` GUARD lines on every CI run.

/// Globally unique, totally ordered production tag of one routed
/// successor: `(frontier item sequence << 32) | step index`. Ordering by
/// tag reproduces the exact insertion order of the single-store merge.
type Tag = u64;

fn tag(seq: u32, step: u32) -> Tag {
    (u64::from(seq) << 32) | u64::from(step)
}

/// One routed successor: production tag, content fingerprint, carrier.
type Routed<W> = (Tag, u64, W);

/// Routed successors are staged in small per-worker buffers and flushed
/// into the owner's shared sink in chunks of at most this many entries,
/// so per-worker staging memory stays bounded no matter how hot one
/// shard runs (private per-worker outbox `Vec`s used to hold a whole
/// level's traffic per worker before the gather).
const OUTBOX_CHUNK: usize = 1024;

/// One bounded-queue sink per owning shard, shared by every expansion
/// worker. Workers append whole chunks under the lock (at most one
/// acquisition per [`OUTBOX_CHUNK`] successors), and the merge phase
/// sorts each inbox by production tag — so arrival order, and with it
/// lock contention, cannot affect the produced graph.
type OutboxSinks<W> = Vec<Mutex<Vec<Routed<W>>>>;

/// Queue-pressure counters of one shard's expansion pass.
#[derive(Clone, Copy, Default)]
struct OutboxStats {
    /// Successors this shard routed to owners (its own included).
    sent: u64,
    /// Chunk flushes into the shared sinks.
    flushes: u64,
}

/// What one shard's expansion pass returns: `(seq, expansion)` per item
/// plus queue-pressure stats (the successors themselves were already
/// flushed into the shared [`OutboxSinks`]).
type ExpandOut = Result<(Vec<(u32, ShardExpansion)>, OutboxStats), SimError>;

/// What one shard's merge pass returns: `(tag, local index, inserted?)`
/// per routed successor, plus the tags that inserted new nodes (in local
/// index order).
type MergeOut = (Vec<(Tag, u32, bool)>, Vec<Tag>);

/// One successor leaving a shard: `(wire form, content fingerprint,
/// canonicalization permutation)`.
type WireSucc<W> = (W, u64, Option<Vec<usize>>);

/// The storage backend of one shard: a dedup table plus node arena that
/// owns every configuration whose content fingerprint maps to it.
///
/// Mirrors [`ConfigStore`] with two differences: node indices are
/// *shard-local* (the orchestrator maps them to global ids), and
/// successors are returned in an interner-independent wire form so they
/// can cross into another shard's arena.
trait ShardStore: Send + Sync {
    /// Carrier a successor travels in between producing and owning shard.
    type Wire: Send;

    fn spec(&self) -> &SystemSpec;

    /// Enabled-process bitset of local node `local`.
    fn enabled_bits(&self, local: usize) -> u64;

    /// Footprint of `pid`'s next step at local node `local`.
    fn footprint(&self, local: usize, pid: Pid) -> Result<StepFootprint, SimError>;

    /// Whether two steps with these footprints commute at local node
    /// `local`.
    fn independent(&self, local: usize, a: &StepFootprint, b: &StepFootprint) -> bool;

    /// All successors of stepping `pid` at local node `local`:
    /// `(wire, content fingerprint, canonicalization permutation)`.
    /// The fingerprint is computed *after* canonicalization, so a whole
    /// symmetry orbit maps to one owning shard.
    fn successors(
        &self,
        local: usize,
        pid: Pid,
        symmetry: bool,
        timers: &Recorder,
    ) -> Result<Vec<WireSucc<Self::Wire>>, SimError>;

    /// Owner-side find-or-insert, *unbounded*: the global configuration
    /// budget is settled afterwards by the assign phase, which pops the
    /// over-budget suffix back out with [`pop_last`](Self::pop_last).
    fn insert(&mut self, wire: Self::Wire, fp: u64, timers: &Recorder) -> (usize, bool);

    /// Undoes the most recent `n` inserts (the over-budget suffix).
    fn pop_last(&mut self, n: usize);

    /// Streaming-verdict facts of terminal local node `local` — the
    /// sharded twin of [`ConfigStore::terminal_facts`].
    fn terminal_facts(&self, local: usize) -> TerminalFacts;

    /// Sequential level-boundary hook (the sharded twin of
    /// [`ConfigStore::begin_level`]): called with this shard's slice of
    /// the frontier, in *local* node ids, before the level's parallel
    /// expansion. Spill counters land on `rec` (the main recorder).
    fn begin_level(&mut self, _frontier: &[usize], _rec: &Recorder) {}

    /// Estimated resident bytes of this shard's hot tier.
    fn resident_estimate(&self) -> usize {
        0
    }

    /// Whether this shard spills cold state to disk.
    fn spilling(&self) -> bool {
        false
    }
}

/// Deep-configuration shard: one [`Config`] per local node, dedup
/// verified by deep equality. The wire form is the `Config` itself.
struct DeepShard<'a> {
    spec: &'a SystemSpec,
    configs: Vec<Config>,
    /// Content fingerprint per local node (for index removal on pop).
    fps: Vec<u64>,
    index: HashMap<u64, Vec<usize>>,
}

impl<'a> DeepShard<'a> {
    fn new(spec: &'a SystemSpec) -> Self {
        DeepShard {
            spec,
            configs: Vec::new(),
            fps: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Installs the initial configuration as local node 0 (owner only).
    fn seed(&mut self, init: Config, fp: u64) {
        debug_assert!(self.configs.is_empty());
        self.configs.push(init);
        self.fps.push(fp);
        self.index.entry(fp).or_default().push(0);
    }
}

impl ShardStore for DeepShard<'_> {
    type Wire = Config;

    fn spec(&self) -> &SystemSpec {
        self.spec
    }

    fn enabled_bits(&self, local: usize) -> u64 {
        self.configs[local].enabled_set().bits()
    }

    fn footprint(&self, local: usize, pid: Pid) -> Result<StepFootprint, SimError> {
        self.spec.step_footprint(&self.configs[local], pid)
    }

    fn independent(&self, local: usize, a: &StepFootprint, b: &StepFootprint) -> bool {
        self.spec.footprints_independent(&self.configs[local], a, b)
    }

    fn successors(
        &self,
        local: usize,
        pid: Pid,
        symmetry: bool,
        timers: &Recorder,
    ) -> Result<Vec<WireSucc<Self::Wire>>, SimError> {
        let mut out = Vec::new();
        let succs = {
            let _t = timers.time_expand();
            self.spec.successors(&self.configs[local], pid)?
        };
        for (next, _info) in succs {
            let (next, perm) = if symmetry {
                let _t = timers.time_canonicalize();
                self.spec.canonicalize_config_perm(next)
            } else {
                (next, None)
            };
            let fp = {
                let _t = timers.time_dedup();
                fingerprint(&next)
            };
            out.push((next, fp, perm));
        }
        Ok(out)
    }

    fn insert(&mut self, wire: Config, fp: u64, timers: &Recorder) -> (usize, bool) {
        let _t = timers.time_intern();
        let known = self
            .index
            .get(&fp)
            .and_then(|ids| ids.iter().copied().find(|&j| self.configs[j] == wire));
        if let Some(j) = known {
            return (j, false);
        }
        let j = self.configs.len();
        self.configs.push(wire);
        self.fps.push(fp);
        self.index.entry(fp).or_default().push(j);
        (j, true)
    }

    fn pop_last(&mut self, n: usize) {
        for _ in 0..n {
            let l = self.configs.len() - 1;
            let fp = self.fps.pop().expect("pop beyond arena");
            let bucket = self.index.get_mut(&fp).expect("indexed fingerprint");
            // Locals enter a bucket in increasing order, so the popped
            // node is its bucket's last entry.
            let popped = bucket.pop();
            debug_assert_eq!(popped, Some(l));
            if bucket.is_empty() {
                self.index.remove(&fp);
            }
            self.configs.pop();
        }
    }

    fn terminal_facts(&self, local: usize) -> TerminalFacts {
        let c = &self.configs[local];
        facts_from_statuses((0..c.nprocs()).map(|p| &c.proc_state(Pid::new(p)).status))
    }

    fn resident_estimate(&self) -> usize {
        let per_config = std::mem::size_of::<Config>()
            + self.configs.first().map_or(0, |c| {
                (c.nobjects() + c.nprocs()) * std::mem::size_of::<usize>()
            });
        self.configs.len() * per_config
            + self.fps.len() * std::mem::size_of::<u64>()
            + index_bytes(self.index.len(), self.configs.len())
    }
}

/// Hash-consed shard: its own [`StateInterner`] arena plus flat id-word
/// rows, deduplicated by *content* fingerprint (verified by a word
/// compare after adoption — sound because within one interner id
/// equality is state equality). Successors cross shards as
/// [`WireConfig`]s.
struct CompactShard<'a> {
    spec: &'a SystemSpec,
    interner: StateInterner,
    nobjects: usize,
    stride: usize,
    /// Hot id-word rows: locals `[hot_base, len)` when spilling (the
    /// on-disk prefix is faulted through the spill), all locals otherwise.
    words: Vec<u32>,
    len: usize,
    /// Content fingerprint per local node (dedup key + pop removal).
    fps: Vec<u64>,
    index: HashMap<u64, Vec<usize>>,
    /// Locals currently filed in `index` (drains reset it).
    index_ids: usize,
    /// Disk spill state ([`StoreBackend::Disk`] only).
    spill: Option<Spill>,
}

impl<'a> CompactShard<'a> {
    fn new(spec: &'a SystemSpec, nobjects: usize, stride: usize) -> Self {
        CompactShard {
            spec,
            interner: StateInterner::new(),
            nobjects,
            stride,
            words: Vec::new(),
            len: 0,
            fps: Vec::new(),
            index: HashMap::new(),
            index_ids: 0,
            spill: None,
        }
    }

    /// Turns this shard disk-backed with the given hot-tier budget.
    fn enable_spill(&mut self, budget: usize) {
        debug_assert!(self.spill.is_none());
        self.spill = Some(Spill::new(self.stride, budget));
    }

    /// Installs the initial configuration as local node 0 (owner only).
    fn seed(&mut self, init: &Config, fp: u64) {
        debug_assert_eq!(self.len, 0);
        let compact = self.interner.intern_config(init);
        self.words.extend_from_slice(compact.words());
        self.fps.push(fp);
        self.index.entry(fp).or_default().push(0);
        self.index_ids = 1;
        self.len = 1;
    }

    fn row(&self, i: usize) -> &[u32] {
        self.row_resident(i)
            .expect("spilled row accessed outside the pinned frontier")
    }

    /// Local `i`'s row if resident — the sharded twin of
    /// [`CompactStore::row_resident`].
    fn row_resident(&self, i: usize) -> Option<&[u32]> {
        let hot_base = self.spill.as_ref().map_or(0, Spill::hot_base);
        if i >= hot_base {
            let k = i - hot_base;
            Some(&self.words[k * self.stride..(k + 1) * self.stride])
        } else {
            self.spill.as_ref().and_then(|s| s.reloaded_row(i))
        }
    }

    /// Makes this shard's frontier rows and their referenced arena
    /// segments resident, pinned for the whole level.
    fn pin_frontier(&mut self, frontier: &[usize], rec: &Recorder) {
        let hot_base = self.spill.as_ref().map_or(0, Spill::hot_base);
        for &i in frontier {
            if i < hot_base {
                self.spill
                    .as_mut()
                    .expect("hot_base > 0 implies a spill")
                    .fault_row(i, rec);
            }
        }
        let mut segs: Vec<(bool, usize)> = Vec::new();
        for &i in frontier {
            let row = self.row(i);
            for (slot, &id) in row.iter().enumerate() {
                segs.push((slot >= self.nobjects, id as usize / ARENA_SEGMENT));
            }
        }
        segs.sort_unstable();
        segs.dedup();
        for (procs, seg) in segs {
            restore_and_pin(&mut self.interner, &mut self.spill, rec, procs, seg);
        }
    }

    /// The sharded twin of [`CompactStore::evict_to_budget`].
    fn evict_to_budget(&mut self, rec: &Recorder) {
        let Some(spill) = self.spill.as_ref() else {
            return;
        };
        let budget = spill.budget;
        let level = spill.level;
        if self.resident_estimate() <= budget {
            return;
        }
        let cands = evictable_segments(&self.interner, self.spill.as_ref().unwrap(), level);
        for (_, procs, seg) in cands {
            if self.resident_estimate() <= budget {
                break;
            }
            evict_segment(
                &mut self.interner,
                self.spill.as_mut().unwrap(),
                rec,
                procs,
                seg,
            );
        }
        if self.resident_estimate() > budget {
            let mut index = std::mem::take(&mut self.index);
            self.spill.as_mut().unwrap().drain_index(&mut index, rec);
            self.index = index;
            self.index_ids = 0;
        }
    }

    /// Freeze-time reconstitution — see the free [`unspill`]. Sharded
    /// explorations unspill each shard before the arena stitch.
    fn unspill(&mut self, rec: &Recorder) {
        unspill(&mut self.interner, &mut self.spill, &mut self.words, rec);
    }
}

impl ShardStore for CompactShard<'_> {
    type Wire = WireConfig;

    fn spec(&self) -> &SystemSpec {
        self.spec
    }

    fn enabled_bits(&self, local: usize) -> u64 {
        self.interner.enabled_bits(self.nobjects, self.row(local))
    }

    fn footprint(&self, local: usize, pid: Pid) -> Result<StepFootprint, SimError> {
        self.spec
            .compact_footprint(&self.interner, self.row(local), pid)
    }

    fn independent(&self, local: usize, a: &StepFootprint, b: &StepFootprint) -> bool {
        match (a, b) {
            (StepFootprint::Local, _) | (_, StepFootprint::Local) => true,
            (
                StepFootprint::Object { obj: oa, op: pa },
                StepFootprint::Object { obj: ob, op: pb },
            ) => {
                oa != ob
                    || self.spec.ops_commute(
                        *oa,
                        self.interner.object(self.row(local)[oa.index()]),
                        pa,
                        pb,
                    )
            }
        }
    }

    fn successors(
        &self,
        local: usize,
        pid: Pid,
        symmetry: bool,
        timers: &Recorder,
    ) -> Result<Vec<WireSucc<Self::Wire>>, SimError> {
        let row = self.row(local);
        let mut out = Vec::new();
        let succs = {
            let _t = timers.time_expand();
            self.spec.compact_successors(&self.interner, row, pid)?
        };
        for mut pending in succs {
            let perm = if symmetry {
                let _t = timers.time_canonicalize();
                self.spec.compact_canonicalize(&self.interner, &mut pending)
            } else {
                None
            };
            let fp = {
                let _t = timers.time_dedup();
                pending.content_fingerprint(&self.interner)
            };
            out.push((pending.export(&self.interner), fp, perm));
        }
        Ok(out)
    }

    fn insert(&mut self, wire: WireConfig, fp: u64, timers: &Recorder) -> (usize, bool) {
        let _t = timers.time_intern();
        // Owner-side adoption is the authoritative dedup: restore every
        // cold hash-colliding candidate of the wire's states first (the
        // interner panics rather than skip one — see `CompactStore::insert`).
        if self.spill.is_some() {
            let mut cold: Vec<(bool, usize)> = Vec::new();
            self.interner.cold_segments_for_wire(&wire, &mut cold);
            for (procs, seg) in cold {
                restore_and_pin(&mut self.interner, &mut self.spill, timers, procs, seg);
            }
        }
        let compact = self.interner.adopt(wire);
        let words = compact.words();
        let mem = self.index.get(&fp).map_or(&[][..], Vec::as_slice);
        if let Some(j) = merge_dedup(
            &self.words,
            self.stride,
            &mut self.spill,
            mem,
            fp,
            words,
            timers,
        ) {
            return (j, false);
        }
        let j = self.len;
        self.words.extend_from_slice(words);
        self.fps.push(fp);
        self.index.entry(fp).or_default().push(j);
        self.index_ids += 1;
        self.len += 1;
        (j, true)
    }

    fn pop_last(&mut self, n: usize) {
        // Popped locals are always this level's inserts, which postdate
        // the last `begin_level`: their rows are hot and their index
        // entries are still in the in-memory map (never drained).
        let hot_base = self.spill.as_ref().map_or(0, Spill::hot_base);
        for _ in 0..n {
            let l = self.len - 1;
            debug_assert!(l >= hot_base, "popping a spilled local");
            let fp = self.fps.pop().expect("pop beyond arena");
            let bucket = self.index.get_mut(&fp).expect("indexed fingerprint");
            let popped = bucket.pop();
            debug_assert_eq!(popped, Some(l));
            if bucket.is_empty() {
                self.index.remove(&fp);
            }
            self.index_ids -= 1;
            self.len = l;
            self.words.truncate((self.len - hot_base) * self.stride);
            // Adopted states stay in the interner arena: re-popping them
            // would invalidate ids already handed out, and an over-budget
            // configuration's states are usually shared with kept ones.
        }
    }

    fn terminal_facts(&self, local: usize) -> TerminalFacts {
        let row = self.row(local);
        facts_from_statuses(
            row[self.nobjects..]
                .iter()
                .map(|&id| &self.interner.proc(id).status),
        )
    }

    fn begin_level(&mut self, frontier: &[usize], rec: &Recorder) {
        if self.spill.is_none() {
            return;
        }
        {
            let spill = self.spill.as_mut().unwrap();
            spill.level += 1;
            spill.clear_reloaded();
        }
        let budget = self.spill.as_ref().unwrap().budget;
        if self.resident_estimate() > budget {
            let rows = std::mem::take(&mut self.words);
            self.spill.as_mut().unwrap().spill_rows(&rows, rec);
        }
        self.pin_frontier(frontier, rec);
        self.evict_to_budget(rec);
    }

    fn resident_estimate(&self) -> usize {
        self.interner.table_bytes()
            + self.interner.resident_state_bytes()
            + self.words.len() * std::mem::size_of::<u32>()
            + self.fps.len() * std::mem::size_of::<u64>()
            + index_bytes(self.index.len(), self.index_ids)
            + self
                .spill
                .as_ref()
                .map_or(0, |s| s.reloaded_bytes() + s.fence_bytes())
    }

    fn spilling(&self) -> bool {
        self.spill.is_some()
    }
}

/// One globally-sequenced frontier entry of the sharded explorer: a
/// [`WorkItem`] keyed by global node id (the owning shard and local index
/// come from the home directory when the level is partitioned).
#[derive(Clone, Copy)]
struct FrontItem {
    node: u32,
    fire: u64,
    sleep: u64,
    fresh: bool,
}

/// A frontier entry as handed to its owning shard: `seq` is the item's
/// position in the globally ordered frontier (the high half of every
/// production tag it emits).
#[derive(Clone, Copy)]
struct ShardItem {
    seq: u32,
    global: u32,
    local: u32,
    fire: u64,
    sleep: u64,
    fresh: bool,
}

/// The expansion of one shard item, minus the successors themselves
/// (those were routed to their owners): per-step metadata in tag order.
struct ShardExpansion {
    /// `(stepping pid, successor sleep mask)` per routed successor.
    steps: Vec<(Pid, u64)>,
    fired: u64,
    slept: u64,
    terminal: bool,
}

/// Read-only per-level context shared by every shard's expansion pass.
#[derive(Clone, Copy)]
struct ExpandCtx<'a> {
    first_sleep: &'a [u64],
    opts: &'a ExploreOptions,
    nshards: usize,
    /// Shared counters + heartbeat sink (the exploration's recorder; the
    /// per-shard child recorders only collect phase timers).
    main: &'a Recorder,
    lvl: LevelCtx,
}

/// Expands one shard's slice of the frontier: the sharded twin of
/// [`expand_item`], with successors routed into the owners' shared
/// bounded-queue sinks instead of looked up against a shared store.
fn expand_shard<S: ShardStore>(
    store: &S,
    items: &[ShardItem],
    sinks: &OutboxSinks<S::Wire>,
    timers: &Recorder,
    e: ExpandCtx<'_>,
) -> ExpandOut {
    let opts = e.opts;
    let mut exps = Vec::with_capacity(items.len());
    let mut staged: Vec<Vec<Routed<S::Wire>>> = (0..e.nshards).map(|_| Vec::new()).collect();
    let mut stats = OutboxStats::default();
    for item in items {
        e.main.count_expansions(1);
        e.main
            .heartbeat(e.lvl.level, e.lvl.nodes, e.lvl.frontier, e.lvl.remaining);
        let local = item.local as usize;
        let enabled = store.enabled_bits(local);
        if enabled == 0 {
            exps.push((
                item.seq,
                ShardExpansion {
                    steps: Vec::new(),
                    fired: 0,
                    slept: 0,
                    terminal: true,
                },
            ));
            continue;
        }
        let mut fps: Vec<Option<StepFootprint>> = Vec::new();
        if opts.por {
            let _t = timers.time_por();
            fps = vec![None; store.spec().nprocs()];
            let mut it = enabled;
            while it != 0 {
                let i = it.trailing_zeros() as usize;
                it &= it - 1;
                fps[i] = Some(store.footprint(local, Pid::new(i))?);
            }
        }
        let (fire, sleep, slept) = if !opts.por {
            (enabled, 0, 0)
        } else if item.fresh {
            let _t = timers.time_por();
            let sleep = e.first_sleep[item.global as usize] & enabled;
            let ample = choose_ample(store.spec(), enabled, &fps);
            let mut fire = ample & !sleep;
            let mut slept = ample & sleep;
            if fire == 0 {
                let low = ample & ample.wrapping_neg();
                fire = low;
                slept &= !low;
            }
            (fire, sleep, slept)
        } else {
            (item.fire, item.sleep, 0)
        };
        let mut steps = Vec::new();
        let mut step_idx = 0u32;
        let mut done = 0u64;
        let mut it = fire;
        while it != 0 {
            let i = it.trailing_zeros() as usize;
            it &= it - 1;
            let pid = Pid::new(i);
            let base = if opts.por {
                (sleep | done) & enabled & !(1 << i)
            } else {
                0
            };
            for (wire, cfp, perm) in store.successors(local, pid, opts.symmetry, timers)? {
                if perm.is_some() {
                    e.main.count_symmetry_hits(1);
                }
                let mut succ_sleep = 0u64;
                if base != 0 {
                    let _t = timers.time_por();
                    let me = fps[i].as_ref().expect("enabled pid has a footprint");
                    let mut qs = base;
                    while qs != 0 {
                        let q = qs.trailing_zeros() as usize;
                        qs &= qs - 1;
                        let other = fps[q].as_ref().expect("enabled pid has a footprint");
                        if store.independent(local, me, other) {
                            succ_sleep |= 1 << q;
                        }
                    }
                    if let Some(perm) = &perm {
                        succ_sleep = permute_mask(succ_sleep, perm);
                    }
                }
                let owner = shard_of_fingerprint(cfp, e.nshards);
                let buf = &mut staged[owner];
                buf.push((tag(item.seq, step_idx), cfp, wire));
                stats.sent += 1;
                if buf.len() >= OUTBOX_CHUNK {
                    stats.flushes += 1;
                    sinks[owner]
                        .lock()
                        .expect("outbox sink poisoned")
                        .append(buf);
                }
                steps.push((pid, succ_sleep));
                step_idx += 1;
            }
            done |= 1 << i;
        }
        e.main.count_generated(steps.len() as u64);
        exps.push((
            item.seq,
            ShardExpansion {
                steps,
                fired: fire,
                slept,
                terminal: false,
            },
        ));
    }
    for (owner, buf) in staged.iter_mut().enumerate() {
        if !buf.is_empty() {
            stats.flushes += 1;
            sinks[owner]
                .lock()
                .expect("outbox sink poisoned")
                .append(buf);
        }
    }
    Ok((exps, stats))
}

/// Merges one shard's inbox: sort by production tag (the global
/// single-store insertion order), then find-or-insert each carrier into
/// the shard's own table. Because every occurrence of a configuration
/// routes here, the first inserted occurrence is the *globally* first.
fn merge_shard<S: ShardStore>(
    store: &mut S,
    mut inbox: Vec<Routed<S::Wire>>,
    timers: &Recorder,
) -> MergeOut {
    let _m = timers.time_merge();
    inbox.sort_unstable_by_key(|r| r.0);
    let mut responses = Vec::with_capacity(inbox.len());
    let mut new_tags = Vec::new();
    for (t, cfp, wire) in inbox {
        let (local, is_new) = store.insert(wire, cfp, timers);
        responses.push((t, local as u32, is_new));
        if is_new {
            new_tags.push(t);
        }
    }
    (responses, new_tags)
}

/// Runs the sharded level-synchronized BFS (see the section comment
/// above) and freezes the adjacency. Returns the graph core plus the
/// home directory mapping every global node id to `(shard, local)`.
///
/// `shards` must already hold the initial configuration as local node 0
/// of `init_owner`.
fn explore_sharded<S: ShardStore>(
    shards: &mut [S],
    init_owner: usize,
    opts: &ExploreOptions,
    rec: &Recorder,
) -> Result<(GraphCore, Vec<(u32, u32)>), SimError> {
    let nshards = shards.len();
    let children: Vec<Recorder> = (0..nshards).map(|_| rec.shard_child()).collect();
    let mut edge_buf: Vec<(u32, Edge)> = Vec::new();
    let mut terminals = Vec::new();
    let mut truncated = false;
    // Streaming-verdict engine: fed in the sequential tag-ordered phase-4
    // replay, so the accumulated facts are identical to `explore_core`'s
    // for every shard count.
    let mut engine = match &opts.goal {
        ExploreGoal::FullGraph => None,
        ExploreGoal::Verdict(query) => Some(VerdictEngine::new(query.clone())),
    };
    let mut early_exit = false;

    // Global per-node bookkeeping, exactly as in `explore_core`.
    let mut depth: Vec<u32> = vec![0];
    let mut first_sleep: Vec<u64> = vec![0];
    let mut explored: Vec<u64> = vec![0];
    let mut slept: Vec<u64> = vec![0];
    let mut pending: Vec<u64> = vec![0];
    let mut expanded: Vec<bool> = vec![false];
    let mut full: Vec<bool> = vec![false];
    // Global node id → (owning shard, local index), and the inverse.
    let mut home: Vec<(u32, u32)> = vec![(init_owner as u32, 0)];
    let mut l2g: Vec<Vec<u32>> = vec![Vec::new(); nshards];
    l2g[init_owner].push(0);

    // Per-shard telemetry (graph shape + traffic).
    let mut shard_edges = vec![0usize; nshards];
    let mut traffic_sent = vec![0u64; nshards];
    let mut traffic_recv = vec![0u64; nshards];
    let mut max_outbox = vec![0usize; nshards];
    let mut outbox_flushes = vec![0u64; nshards];

    let mut frontier = vec![FrontItem {
        node: 0,
        fire: 0,
        sleep: 0,
        fresh: true,
    }];
    let mut cur_depth: u32 = 0;
    let mut scratch: Vec<Edge> = Vec::new();
    // Memory-budget truncation, as in `explore_core`: only when no shard
    // can honor the budget by spilling. (With per-shard estimates summed
    // each level, the decision depends on shard count, so budget-truncated
    // in-memory runs do not claim cross-shard graph identity; disk runs
    // do — eviction never changes the graph.)
    let mem_budget = if shards.iter().any(|s| s.spilling()) {
        None
    } else {
        opts.effective_store_budget()
    };
    let mut local_ids: Vec<usize> = Vec::new();
    while !frontier.is_empty() {
        let t_level = rec.is_timing().then(Instant::now);
        let nodes_before = depth.len();
        // Partition the globally ordered frontier into per-shard queues.
        let mut frontiers: Vec<Vec<ShardItem>> = vec![Vec::new(); nshards];
        for (seq, it) in frontier.iter().enumerate() {
            let (s, l) = home[it.node as usize];
            frontiers[s as usize].push(ShardItem {
                seq: seq as u32,
                global: it.node,
                local: l,
                fire: it.fire,
                sleep: it.sleep,
                fresh: it.fresh,
            });
        }
        // Sequential level-boundary hook per shard (workers not yet
        // spawned): a disk-backed shard spills/evicts here, pinning its
        // slice of the frontier resident for the level.
        for (k, store) in shards.iter_mut().enumerate() {
            local_ids.clear();
            local_ids.extend(frontiers[k].iter().map(|it| it.local as usize));
            store.begin_level(&local_ids, rec);
        }
        let over_budget = mem_budget
            .is_some_and(|b| shards.iter().map(|s| s.resident_estimate()).sum::<usize>() > b);
        let ectx = ExpandCtx {
            first_sleep: &first_sleep,
            opts,
            nshards,
            main: rec,
            lvl: LevelCtx {
                level: cur_depth,
                nodes: nodes_before,
                frontier: frontier.len(),
                remaining: opts.max_configs.saturating_sub(nodes_before),
            },
        };
        let run_parallel =
            nshards > 1 && frontier.len() >= PARALLEL_THRESHOLD && host_parallelism() > 1;

        // Phase 1: expand, one worker per shard. Successors flow through
        // shared per-owner bounded-queue sinks in fixed-size chunks, so
        // no worker ever holds more than `nshards * OUTBOX_CHUNK` staged
        // entries regardless of how hot a shard runs.
        let sinks: OutboxSinks<S::Wire> = (0..nshards).map(|_| Mutex::new(Vec::new())).collect();
        let mut expand_out: Vec<Option<ExpandOut>> = (0..nshards).map(|_| None).collect();
        {
            let sinks = &sinks;
            let jobs = shards
                .iter()
                .zip(&frontiers)
                .zip(&children)
                .zip(expand_out.iter_mut());
            if run_parallel {
                std::thread::scope(|sc| {
                    for (((store, items), child), out) in jobs {
                        sc.spawn(move || {
                            *out = Some(expand_shard(store, items, sinks, child, ectx));
                        });
                    }
                });
            } else {
                for (((store, items), child), out) in jobs {
                    *out = Some(expand_shard(store, items, sinks, child, ectx));
                }
            }
        }
        let mut item_exps: Vec<Option<ShardExpansion>> = frontier.iter().map(|_| None).collect();
        for (k, slot) in expand_out.into_iter().enumerate() {
            let (exps, stats) = slot.expect("every shard expanded")?;
            for (seq, e) in exps {
                item_exps[seq as usize] = Some(e);
            }
            traffic_sent[k] += stats.sent;
            outbox_flushes[k] += stats.flushes;
        }
        let inboxes: Vec<Vec<Routed<S::Wire>>> = sinks
            .into_iter()
            .map(|m| m.into_inner().expect("outbox sink poisoned"))
            .collect();
        for (k, inbox) in inboxes.iter().enumerate() {
            traffic_recv[k] += inbox.len() as u64;
            max_outbox[k] = max_outbox[k].max(inbox.len());
        }

        // Phase 2: merge, one worker per shard, each against its own table.
        let mut merge_out: Vec<Option<MergeOut>> = (0..nshards).map(|_| None).collect();
        {
            let jobs = shards
                .iter_mut()
                .zip(inboxes)
                .zip(&children)
                .zip(merge_out.iter_mut());
            if run_parallel {
                std::thread::scope(|sc| {
                    for (((store, inbox), child), out) in jobs {
                        sc.spawn(move || *out = Some(merge_shard(store, inbox, child)));
                    }
                });
            } else {
                for (((store, inbox), child), out) in jobs {
                    *out = Some(merge_shard(store, inbox, child));
                }
            }
        }
        let mut responses: Vec<(Tag, u32, u32, bool)> = Vec::new();
        let mut new_all: Vec<(Tag, u32)> = Vec::new();
        let mut new_counts = vec![0usize; nshards];
        for (k, slot) in merge_out.into_iter().enumerate() {
            let (resp, new_tags) = slot.expect("every shard merged");
            new_counts[k] = new_tags.len();
            responses.extend(resp.into_iter().map(|(t, l, n)| (t, k as u32, l, n)));
            new_all.extend(new_tags.into_iter().map(|t| (t, k as u32)));
        }
        responses.sort_unstable_by_key(|r| r.0);
        new_all.sort_unstable();

        // Phase 3: assign global ids to the budgeted prefix of the new
        // nodes (in tag order — the single-store insertion order) and pop
        // the over-budget suffix out of each shard. An over-memory-budget
        // level keeps nothing: the clean-truncation twin of `level_cap = 0`
        // in `explore_core`.
        let budget = if over_budget {
            0
        } else {
            opts.max_configs.saturating_sub(depth.len())
        };
        let kept = budget.min(new_all.len());
        // keep_limit[k]: locals of shard k below this index survive.
        let mut keep_limit: Vec<usize> = l2g.iter().map(Vec::len).collect();
        for &(_, k) in &new_all[..kept] {
            keep_limit[k as usize] += 1;
        }
        for (k, store) in shards.iter_mut().enumerate() {
            let dropped = new_counts[k] - (keep_limit[k] - l2g[k].len());
            if dropped > 0 {
                store.pop_last(dropped);
            }
        }

        // Phase 4: replay the responses in tag order against the global
        // bookkeeping — identical decision order to `explore_core`'s
        // sequential merge loop.
        let merge_t = rec.time_merge();
        let mut next: Vec<FrontItem> = Vec::new();
        let mut revisits: Vec<(usize, u64)> = Vec::new();
        let mut cursor = 0usize;
        for (seq, item) in frontier.iter().enumerate() {
            let exp = item_exps[seq].take().expect("every item expanded");
            let i = item.node as usize;
            if exp.terminal {
                terminals.push(i);
                expanded[i] = true;
                if let Some(eng) = engine.as_mut() {
                    let (hs, hl) = home[i];
                    eng.on_terminal(shards[hs as usize].terminal_facts(hl as usize));
                }
                continue;
            }
            let mut escalate = false;
            scratch.clear();
            rec.count_sleep_pruned(u64::from(exp.slept.count_ones()));
            for (si, (pid, succ_sleep)) in exp.steps.into_iter().enumerate() {
                let (t, sk, sl, is_new) = responses[cursor];
                cursor += 1;
                debug_assert_eq!(t, tag(seq as u32, si as u32));
                let (sk, sl) = (sk as usize, sl as usize);
                let (j, known) = if sl >= keep_limit[sk] {
                    // The owner resolved this occurrence to a node that
                    // fell beyond the configuration (or memory) budget.
                    rec.count_capped(1);
                    match mem_budget {
                        Some(b) if over_budget => rec.set_budget_truncated(b),
                        _ => rec.set_truncated(opts.max_configs),
                    }
                    truncated = true;
                    continue;
                } else if is_new {
                    rec.count_added(1);
                    let j = depth.len();
                    assert!(j < u32::MAX as usize, "state graph exceeds u32 node ids");
                    depth.push(cur_depth + 1);
                    first_sleep.push(succ_sleep);
                    explored.push(0);
                    slept.push(0);
                    pending.push(0);
                    expanded.push(false);
                    full.push(false);
                    debug_assert_eq!(l2g[sk].len(), sl);
                    l2g[sk].push(j as u32);
                    home.push((sk as u32, sl as u32));
                    next.push(FrontItem {
                        node: j as u32,
                        fire: 0,
                        sleep: 0,
                        fresh: true,
                    });
                    (j, false)
                } else {
                    rec.count_dedup_hits(1);
                    (l2g[sk][sl] as usize, true)
                };
                if known && depth[j] <= depth[i] {
                    if opts.por {
                        escalate = true;
                    }
                    if let Some(eng) = engine.as_mut() {
                        eng.on_retreating_edge();
                    }
                }
                if opts.por && known {
                    revisits.push((j, succ_sleep));
                }
                scratch.push(Edge { pid, to: j as u32 });
            }
            if opts.symmetry {
                scratch.sort_unstable_by_key(|e| (e.pid.index(), e.to));
                scratch.dedup();
            }
            shard_edges[home[i].0 as usize] += scratch.len();
            edge_buf.extend(scratch.drain(..).map(|e| (i as u32, e)));
            expanded[i] = true;
            explored[i] |= exp.fired;
            pending[i] &= !exp.fired;
            slept[i] = (slept[i] | exp.slept) & !explored[i];
            if opts.por && escalate && !full[i] {
                full[i] = true;
                let (hs, hl) = home[i];
                let enabled = shards[hs as usize].enabled_bits(hl as usize);
                let rest = enabled & !explored[i] & !pending[i];
                slept[i] = 0;
                if rest != 0 {
                    pending[i] |= rest;
                    next.push(FrontItem {
                        node: i as u32,
                        fire: rest,
                        sleep: 0,
                        fresh: false,
                    });
                }
            }
            rec.heartbeat(
                cur_depth,
                depth.len(),
                frontier.len(),
                opts.max_configs.saturating_sub(depth.len()),
            );
        }
        debug_assert_eq!(cursor, responses.len());
        for (j, new_sleep) in revisits {
            if !expanded[j] {
                first_sleep[j] &= new_sleep;
                continue;
            }
            let wake = slept[j] & !new_sleep;
            if wake != 0 {
                slept[j] &= !wake;
                pending[j] |= wake;
                next.push(FrontItem {
                    node: j as u32,
                    fire: wake,
                    sleep: new_sleep,
                    fresh: false,
                });
            }
        }
        drop(merge_t);
        rec.record_peak_bytes(shards.iter().map(|s| s.resident_estimate()).sum());
        // Level-granular verdict evaluation, mirroring `explore_core`:
        // the exit point — and the explored-config count — is identical
        // for every shard count.
        if let Some(eng) = engine.as_mut() {
            if eng.wants_cycle_check() {
                eng.record_cycle_check(edge_buf_has_cycle(depth.len(), &edge_buf));
            }
            early_exit = eng.refutation().is_some();
        }
        rec.record_level(
            frontier.len(),
            depth.len() - nodes_before,
            depth.len(),
            edge_buf.len(),
            t_level.map_or(Duration::ZERO, |t| t.elapsed()),
        );
        rec.heartbeat(
            cur_depth,
            depth.len(),
            next.len(),
            opts.max_configs.saturating_sub(depth.len()),
        );
        if early_exit {
            break;
        }
        frontier = next;
        cur_depth += 1;
    }
    terminals.sort_unstable();
    terminals.dedup();

    // Fold the per-shard phase timers into the main recorder as the
    // parallel critical path, and publish the per-shard breakdowns.
    rec.absorb_parallel(&children);
    let shard_metrics = children
        .iter()
        .enumerate()
        .map(|(k, child)| {
            let mut sm = child.shard_phases(k);
            sm.nodes = l2g[k].len();
            sm.edges = shard_edges[k];
            sm.sent = traffic_sent[k];
            sm.received = traffic_recv[k];
            sm.max_outbox = max_outbox[k];
            sm.outbox_flushes = outbox_flushes[k];
            sm
        })
        .collect();
    rec.set_shards(shard_metrics);

    let verdict = engine.map(|mut eng| {
        if !truncated && !early_exit && eng.needs_final_cycle_check() {
            // Same completion re-check as `explore_core`: a cycle through
            // an old retreating candidate may only have closed after that
            // candidate's level was checked.
            eng.record_cycle_check(edge_buf_has_cycle(depth.len(), &edge_buf));
        }
        eng.finish(
            truncated.then_some(opts.max_configs),
            early_exit,
            depth.len(),
        )
    });
    let edges = edge_buf.len();
    let (row_ptr, edge_arr) = if verdict.is_some() {
        // Verdict goal: nobody reads the CSR — skip the freeze entirely.
        (Vec::new(), Vec::new())
    } else {
        freeze_csr(depth.len(), edge_buf, rec)
    };
    Ok((
        GraphCore {
            row_ptr,
            edge_arr,
            terminals,
            truncated,
            edges,
            verdict,
        },
        home,
    ))
}

/// Sharded exploration with hash-consed nodes: seeds one [`CompactShard`]
/// per shard, runs the sharded BFS, then stitches the per-shard arenas
/// back into one interner (deduplicating shared states) and rewrites
/// every node's id row into a single global words array — the frozen
/// representation is identical in shape (and in
/// [`approx_bytes`](StateGraph::approx_bytes)) to a single-store
/// exploration's.
fn explore_sharded_compact(
    spec: &SystemSpec,
    init: &Config,
    nshards: usize,
    opts: &ExploreOptions,
    rec: &Recorder,
) -> Result<(NodeStore, GraphCore), SimError> {
    let nobjects = init.nobjects();
    let stride = nobjects + init.nprocs();
    // The root's owner is decided by its content fingerprint, which needs
    // an interner; use a throwaway arena.
    let fp = {
        let mut scratch = StateInterner::new();
        let cc = scratch.intern_config(init);
        scratch.content_fingerprint_words(nobjects, cc.words())
    };
    let owner = shard_of_fingerprint(fp, nshards);
    let mut shards: Vec<CompactShard> = (0..nshards)
        .map(|_| CompactShard::new(spec, nobjects, stride))
        .collect();
    if opts.effective_store() == StoreBackend::Disk {
        // The hot-tier budget bounds the whole exploration, so each shard
        // gets an equal slice of it.
        let budget = opts
            .effective_store_budget()
            .unwrap_or(DEFAULT_DISK_BUDGET)
            .div_euclid(nshards)
            .max(1);
        for shard in &mut shards {
            shard.enable_spill(budget);
        }
        rec.mark_store_active();
    }
    shards[owner].seed(init, fp);
    let (core, home) = explore_sharded(&mut shards, owner, opts, rec)?;
    if core.verdict.is_some() {
        // Verdict goal: node contents are never read again, so the arena
        // stitch — this path's freeze phase — is skipped entirely (the
        // spills drop with the shards, removing their run directories).
        return Ok((NodeStore::Virtual { len: home.len() }, core));
    }
    let _t = rec.time_freeze();
    // Reconstitute each shard fully in memory before the stitch: arenas
    // are append-only and ids never move, so the unspilled shard is
    // bit-identical to an in-memory exploration's.
    for shard in &mut shards {
        shard.unspill(rec);
    }
    let mut interner = StateInterner::new();
    let remaps: Vec<(Vec<u32>, Vec<u32>)> = shards
        .iter()
        .map(|s| interner.absorb_arenas(&s.interner))
        .collect();
    let mut words = Vec::with_capacity(home.len() * stride);
    for &(s, l) in &home {
        let (omap, pmap) = &remaps[s as usize];
        let row = shards[s as usize].row(l as usize);
        words.extend(row.iter().enumerate().map(|(slot, &w)| {
            if slot < nobjects {
                omap[w as usize]
            } else {
                pmap[w as usize]
            }
        }));
    }
    Ok((
        NodeStore::Interned(Box::new(InternedNodes {
            interner,
            nobjects,
            stride,
            words,
            len: home.len(),
        })),
        core,
    ))
}

/// Sharded exploration with deep nodes: the per-shard `Config` arenas are
/// gathered into one global-id-ordered vector at freeze time (moves, no
/// deep copies).
fn explore_sharded_deep(
    spec: &SystemSpec,
    init: Config,
    nshards: usize,
    opts: &ExploreOptions,
    rec: &Recorder,
) -> Result<(NodeStore, GraphCore), SimError> {
    let fp = fingerprint(&init);
    let owner = shard_of_fingerprint(fp, nshards);
    let mut shards: Vec<DeepShard> = (0..nshards).map(|_| DeepShard::new(spec)).collect();
    shards[owner].seed(init, fp);
    let (core, home) = explore_sharded(&mut shards, owner, opts, rec)?;
    if core.verdict.is_some() {
        // Verdict goal: skip the arena gather, as in the compact path.
        return Ok((NodeStore::Virtual { len: home.len() }, core));
    }
    let _t = rec.time_freeze();
    let mut arenas: Vec<Vec<Option<Config>>> = shards
        .into_iter()
        .map(|s| s.configs.into_iter().map(Some).collect())
        .collect();
    let configs = home
        .iter()
        .map(|&(s, l)| {
            arenas[s as usize][l as usize]
                .take()
                .expect("every node has one home")
        })
        .collect();
    Ok((NodeStore::Deep(configs), core))
}

impl StateGraph {
    /// Exhaustively explores `spec` from its initial configuration,
    /// breadth-first. With `opts.threads > 1` each depth level is expanded
    /// in parallel; the merge order makes the resulting graph identical
    /// node-for-node to the sequential one.
    ///
    /// With `opts.symmetry`, the result is the **orbit-quotient** graph:
    /// every configuration is replaced by the canonical representative of
    /// its orbit under the system's [symmetry
    /// groups](subconsensus_sim::SystemSpec::symmetry_groups) before dedup,
    /// so whole orbits collapse to single nodes. Because within-group
    /// permutations are automorphisms of the full graph, the quotient
    /// preserves reachability of any permutation-closed property —
    /// decided-value sets, bivalence, termination, cycles — which is what
    /// the valency and wait-freedom analyses consume. Edges carry the pid
    /// that stepped *from the representative*, so a
    /// [`witness_schedule`](Self::witness_schedule) drawn from a quotient
    /// graph reaches the predicate only up to a within-group renaming of
    /// processes when replayed against the concrete system.
    ///
    /// With `opts.por`, the result is a **partial-order-reduced** subgraph
    /// (see the module docs): it reaches exactly the same terminal
    /// configurations, preserving the `properties.rs` verdicts and the
    /// root valence, through fewer interior configurations and strictly
    /// fewer redundant interleavings. Interior valences are *not*
    /// preserved, so `find_critical` rejects such graphs. POR composes
    /// with `symmetry` (pruning happens first, canonicalization second)
    /// and with `threads` (all reduction decisions are made in the
    /// sequential merge, so the graph stays thread-count independent).
    ///
    /// If the bound in `opts` is hit, the returned graph is marked
    /// [`truncated`](Self::is_truncated) and all analyses on it are partial.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised while stepping.
    pub fn explore(spec: &SystemSpec, opts: &ExploreOptions) -> Result<Self, SimError> {
        Self::explore_with(spec, opts, &Recorder::from_env(opts.metrics))
    }

    /// [`explore`](Self::explore) with an explicit telemetry [`Recorder`]
    /// (progress callbacks, trace sinks, forced timing — see the
    /// `Recorder` builders). The recorder is write-only from the
    /// explorer's point of view, so the produced graph is node-for-node
    /// identical to an uninstrumented exploration; the final snapshot is
    /// available as [`metrics`](Self::metrics) (and through
    /// [`Recorder::snapshot`] on `rec` itself).
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised while stepping.
    pub fn explore_with(
        spec: &SystemSpec,
        opts: &ExploreOptions,
        rec: &Recorder,
    ) -> Result<Self, SimError> {
        // Wall-clock start for the run ledger (the recorder's own clock is
        // monotonic); read only when a ledger is installed.
        let started_unix_ms = if rec.run_log().is_some() {
            unix_time_ms()
        } else {
            0
        };
        let mut opts = opts.clone();
        // Fast path: a system whose symmetry groups are all singletons has
        // an identity canonicalization, so requesting symmetry would only
        // burn time re-checking sortedness and re-sorting edges. Normalize
        // the flag once; everything downstream branches on the effective
        // value.
        opts.symmetry = opts.symmetry && !spec.symmetry_groups().is_trivial();
        let init = if opts.symmetry {
            spec.canonicalize_config(spec.initial_config())
        } else {
            spec.initial_config()
        };
        let nshards = opts.effective_shards();
        if opts.effective_store() == StoreBackend::Disk && !opts.interned {
            warn_disk_needs_interned();
        }
        let (store, core) = if nshards > 1 {
            if opts.interned {
                explore_sharded_compact(spec, &init, nshards, &opts, rec)?
            } else {
                explore_sharded_deep(spec, init, nshards, &opts, rec)?
            }
        } else if opts.interned {
            let mut store = CompactStore::new(spec, rec, &init);
            if opts.effective_store() == StoreBackend::Disk {
                store.enable_spill(opts.effective_store_budget().unwrap_or(DEFAULT_DISK_BUDGET));
                rec.mark_store_active();
            }
            let core = explore_core(&mut store, &opts, rec)?;
            // Reconstitute before freezing (bit-identical to an in-memory
            // run — arenas are append-only and ids never move); the spill
            // drops here, removing its run directory.
            store.unspill();
            let CompactStore {
                interner,
                nobjects,
                stride,
                words,
                len,
                ..
            } = store;
            (
                NodeStore::Interned(Box::new(InternedNodes {
                    interner,
                    nobjects,
                    stride,
                    words,
                    len,
                })),
                core,
            )
        } else {
            let mut store = DeepStore::new(spec, rec, init);
            let core = explore_core(&mut store, &opts, rec)?;
            (NodeStore::Deep(store.configs), core)
        };
        let mut graph = StateGraph {
            store,
            row_ptr: core.row_ptr,
            edge_arr: core.edge_arr,
            terminals: core.terminals,
            truncated: core.truncated,
            por: opts.por,
            metrics: ExploreMetrics::default(),
            verdict: core.verdict,
        };
        let mut metrics = rec.snapshot();
        metrics.configs = graph.len();
        // Under a verdict goal the CSR is never frozen; `core.edges`
        // keeps the true recorded edge count either way.
        metrics.edges = core.edges;
        // Peak residency: the larger of the per-level store estimates
        // recorded during exploration and the frozen graph's footprint
        // (the estimates cover rows + arenas + index, which the frozen
        // footprint alone understated before).
        metrics.peak_bytes = metrics.peak_bytes.max(graph.approx_bytes());
        graph.metrics = metrics;
        if graph.truncated {
            if let TruncationCause::MemoryBudget { budget } = graph.metrics.truncation {
                warn_budget_truncated(budget, graph.len());
            } else {
                warn_truncated(opts.max_configs, graph.len());
            }
        }
        // Persistent observability, strictly after the graph is complete so
        // instrumented and uninstrumented runs stay node-for-node identical:
        // the terminal status snapshot, then one ledger line.
        rec.finalize_status(graph.len());
        if rec.run_log().is_some() {
            let outcome = match &graph.verdict {
                Some(v) => format!("{{\"kind\": \"verdict\", \"verdict\": {}}}", v.to_json()),
                None => format!(
                    "{{\"kind\": \"graph\", \"configs\": {}, \"edges\": {}, \
                     \"terminals\": {}, \"truncated\": {}}}",
                    graph.len(),
                    graph.metrics.edges,
                    graph.terminals.len(),
                    graph.truncated
                ),
            };
            rec.append_run_record(&RunRecord {
                spec_hash: spec.spec_fingerprint(),
                started_unix_ms,
                ended_unix_ms: unix_time_ms(),
                git_revision: git_revision().to_string(),
                options_json: opts.to_json(),
                outcome_json: outcome,
                metrics_json: graph.metrics.to_json(),
            });
        }
        Ok(graph)
    }

    /// The telemetry snapshot of the exploration that built this graph:
    /// counters and per-level records always, phase wall times when the
    /// exploration was instrumented ([`ExploreOptions::metrics`], an
    /// explicit [`Recorder`], or `MC_PROGRESS`/`MC_TRACE`).
    pub fn metrics(&self) -> &ExploreMetrics {
        &self.metrics
    }

    /// Returns the number of distinct reachable configurations.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Returns `true` if the graph has no configurations (never happens for a
    /// successfully explored system, which always has the initial one).
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// Returns `true` if the exploration hit its bound.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Returns `true` if this graph was explored with partial-order
    /// reduction ([`ExploreOptions::por`]): a sound *subgraph* of the full
    /// graph that preserves terminals, the `properties.rs` verdicts and the
    /// root valence, but not interior valences (so `find_critical` rejects
    /// it).
    pub fn is_por_reduced(&self) -> bool {
        self.por
    }

    /// The streaming verdict accumulated during an
    /// [`ExploreGoal::Verdict`] exploration; `None` for a
    /// [`ExploreGoal::FullGraph`] one.
    pub fn verdict(&self) -> Option<&StreamingVerdict> {
        self.verdict.as_ref()
    }

    /// Returns `true` if this graph was explored under
    /// [`ExploreGoal::Verdict`]: the streaming verdict is available via
    /// [`verdict`](Self::verdict), but the CSR adjacency was never frozen
    /// (and the exploration may have stopped at the first refutation), so
    /// every graph-structure analysis — [`edges`](Self::edges),
    /// [`reverse_csr`](Self::reverse_csr), [`has_cycle`](Self::has_cycle),
    /// [`witness_schedule`](Self::witness_schedule), [`stats`](Self::stats),
    /// DOT export, `find_critical` — panics with a clear message instead
    /// of indexing empty CSR arrays.
    pub fn is_verdict_only(&self) -> bool {
        self.verdict.is_some()
    }

    /// Panics with an actionable message when a CSR-consuming analysis is
    /// called on a verdict-only graph.
    fn require_csr(&self, what: &str) {
        assert!(
            !self.is_verdict_only(),
            "StateGraph::{what} needs the frozen CSR adjacency, but this \
             graph was explored under ExploreGoal::Verdict, which skips the \
             freeze and reverse-CSR phases (and may stop exploring at the \
             first refutation); re-explore with ExploreGoal::FullGraph to \
             run graph-structure analyses",
        );
    }

    /// An id-native [`NodeView`] of node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, or on a *sharded* verdict-only
    /// graph (whose node contents were never gathered).
    pub fn node(&self, index: usize) -> NodeView<'_> {
        assert!(index < self.store.len(), "node index out of range");
        assert!(
            !matches!(self.store, NodeStore::Virtual { .. }),
            "node contents of a sharded ExploreGoal::Verdict exploration \
             are never gathered; re-explore with ExploreGoal::FullGraph to \
             inspect configurations",
        );
        NodeView { graph: self, index }
    }

    /// Returns the configuration at `index`.
    ///
    /// Owned because the interned representation materializes it from id
    /// words on demand; either way the cost is per-slot `Arc` clones, no
    /// state is deep-copied.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn config(&self, index: usize) -> Config {
        match &self.store {
            NodeStore::Deep(configs) => configs[index].clone(),
            NodeStore::Interned(nodes) => {
                assert!(index < nodes.len, "node index out of range");
                nodes.interner.materialize_words(
                    nodes.nobjects,
                    &nodes.words[index * nodes.stride..(index + 1) * nodes.stride],
                )
            }
            NodeStore::Virtual { .. } => panic!(
                "node contents of a sharded ExploreGoal::Verdict exploration \
                 are never gathered; re-explore with ExploreGoal::FullGraph \
                 to inspect configurations",
            ),
        }
    }

    /// Interner statistics of a hash-consed exploration
    /// ([`ExploreOptions::interned`]): arena sizes, hit rates and footprint.
    /// `None` for a deep-representation graph.
    pub fn interner_stats(&self) -> Option<InternerStats> {
        match &self.store {
            NodeStore::Deep(_) => None,
            NodeStore::Interned(nodes) => Some(nodes.interner.stats()),
            NodeStore::Virtual { .. } => None,
        }
    }

    /// Returns the outgoing edges of node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn edges(&self, index: usize) -> &[Edge] {
        self.require_csr("edges");
        let lo = self.row_ptr[index] as usize;
        let hi = self.row_ptr[index + 1] as usize;
        &self.edge_arr[lo..hi]
    }

    /// Returns the indices of the final configurations (no process enabled).
    pub fn terminals(&self) -> &[usize] {
        &self.terminals
    }

    /// Approximate resident bytes of the frozen graph: the node arena (per
    /// node, a `Config` struct plus its pointer arrays for the deep
    /// representation, or `stride` id words plus the interner's hash
    /// tables and unique states for the interned one — shared deep states
    /// are excluded for the deep representation, being `Arc`-shared
    /// across nodes), the CSR arrays and the terminal list.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let nodes = match &self.store {
            NodeStore::Deep(configs) => {
                let per_config = size_of::<Config>()
                    + configs
                        .first()
                        .map_or(0, |c| (c.nobjects() + c.nprocs()) * size_of::<usize>());
                configs.len() * per_config
            }
            NodeStore::Interned(nodes) => {
                // The interner IS this representation's state storage, so
                // its tables and unique states are part of the honest
                // footprint (they drive the disk store's eviction too).
                let s = nodes.interner.stats();
                nodes.words.len() * size_of::<u32>() + s.table_bytes + s.state_bytes
            }
            NodeStore::Virtual { .. } => 0,
        };
        nodes
            + self.row_ptr.len() * size_of::<u32>()
            + self.edge_arr.len() * size_of::<Edge>()
            + self.terminals.len() * size_of::<usize>()
    }

    /// Builds the reverse (predecessor) adjacency of the graph in CSR form:
    /// `row_ptr[j]..row_ptr[j + 1]` indexes node `j`'s slice of a flat
    /// predecessor-node array. Parallel edges are kept, so the predecessor
    /// multiset mirrors the forward edge multiset exactly.
    ///
    /// One O(nodes + edges) counting sort; backward passes (valency
    /// propagation, non-blocking pruning) consume this instead of
    /// rescanning the forward adjacency per iteration.
    pub fn reverse_csr(&self) -> (Vec<u32>, Vec<u32>) {
        self.require_csr("reverse_csr");
        let n = self.len();
        let mut row_ptr = vec![0u32; n + 1];
        for e in &self.edge_arr {
            row_ptr[e.target() + 1] += 1;
        }
        for k in 0..n {
            row_ptr[k + 1] += row_ptr[k];
        }
        let mut cursor: Vec<u32> = row_ptr[..n].to_vec();
        let mut preds = vec![0u32; self.edge_arr.len()];
        for i in 0..n {
            for e in self.edges(i) {
                let c = &mut cursor[e.target()];
                preds[*c as usize] = i as u32;
                *c += 1;
            }
        }
        (row_ptr, preds)
    }

    /// Computes summary statistics of the graph.
    pub fn stats(&self) -> GraphStats {
        self.require_csr("stats");
        use std::collections::VecDeque;
        let n = self.store.len();
        let max_out_degree = (0..n)
            .map(|i| (self.row_ptr[i + 1] - self.row_ptr[i]) as usize)
            .max()
            .unwrap_or(0);
        // BFS depth from the initial configuration.
        let mut depth = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        depth[0] = 0;
        queue.push_back(0usize);
        let mut max_depth = 0;
        while let Some(i) = queue.pop_front() {
            for e in self.edges(i) {
                if depth[e.target()] == usize::MAX {
                    depth[e.target()] = depth[i] + 1;
                    max_depth = max_depth.max(depth[e.target()]);
                    queue.push_back(e.target());
                }
            }
        }
        GraphStats {
            configs: n,
            edges: self.edge_arr.len(),
            terminals: self.terminals.len(),
            max_out_degree,
            max_depth,
            truncated: self.truncated,
        }
    }

    /// Returns a schedule (sequence of stepping pids) leading from the
    /// initial configuration to the first (BFS-closest) node satisfying
    /// `pred`, or `None` if no reachable configuration satisfies it.
    ///
    /// The returned schedule can be replayed with
    /// [`ReplayScheduler`](subconsensus_sim::ReplayScheduler) to reproduce
    /// the configuration in a normal run — this is how counterexamples
    /// (e.g. a disagreeing consensus schedule) are surfaced to users.
    ///
    /// The predicate receives an id-native [`NodeView`], so probing every
    /// node costs id lookups, not a deep `Config` materialization per
    /// probe ([`NodeView::config`] is still there when the whole
    /// configuration is needed).
    pub fn witness_schedule<F>(&self, pred: F) -> Option<Vec<Pid>>
    where
        F: Fn(&NodeView<'_>) -> bool,
    {
        self.require_csr("witness_schedule");
        use std::collections::VecDeque;
        // parent[i] = (predecessor node, pid that stepped), for BFS tree.
        let mut parent: Vec<Option<(usize, Pid)>> = vec![None; self.store.len()];
        let mut seen = vec![false; self.store.len()];
        let mut queue = VecDeque::new();
        seen[0] = true;
        queue.push_back(0usize);
        while let Some(i) = queue.pop_front() {
            if pred(&self.node(i)) {
                // Reconstruct the schedule back to the root.
                let mut schedule = Vec::new();
                let mut cur = i;
                while let Some((prev, pid)) = parent[cur] {
                    schedule.push(pid);
                    cur = prev;
                }
                schedule.reverse();
                return Some(schedule);
            }
            for e in self.edges(i) {
                if !seen[e.target()] {
                    seen[e.target()] = true;
                    parent[e.target()] = Some((i, e.pid));
                    queue.push_back(e.target());
                }
            }
        }
        None
    }

    /// Returns `true` if the configuration graph contains a directed cycle.
    ///
    /// No cycle means every execution of the system is finite; since a
    /// process that keeps taking steps in a finite acyclic execution space
    /// must reach a decision, acyclicity witnesses wait-freedom for
    /// bounded protocols.
    pub fn has_cycle(&self) -> bool {
        self.require_csr("has_cycle");
        // Iterative three-color DFS.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.store.len();
        let mut color = vec![WHITE; n];
        for root in 0..n {
            if color[root] != WHITE {
                continue;
            }
            // Stack of (node, next-edge-index).
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            color[root] = GRAY;
            while let Some(&mut (node, ref mut ei)) = stack.last_mut() {
                let edges = self.edges(node);
                if *ei < edges.len() {
                    let to = edges[*ei].target();
                    *ei += 1;
                    match color[to] {
                        WHITE => {
                            color[to] = GRAY;
                            stack.push((to, 0));
                        }
                        GRAY => return true,
                        _ => {}
                    }
                } else {
                    color[node] = BLACK;
                    stack.pop();
                }
            }
        }
        false
    }

    /// Renders the graph in Graphviz DOT form: one node line per
    /// configuration (the root bold, terminals double-circled) and one
    /// edge line per CSR edge, labeled with the stepping pid. Meant for
    /// small (reduced) graphs — the first human-readable view of an
    /// explored quotient.
    pub fn to_dot(&self) -> String {
        self.require_csr("to_dot");
        self.render_dot(&[])
    }

    /// [`to_dot`](Self::to_dot) with the edges along `schedule` (a witness
    /// schedule, walked from the root by firing each pid's first matching
    /// edge) highlighted in red.
    pub fn to_dot_with_schedule(&self, schedule: &[Pid]) -> String {
        self.require_csr("to_dot_with_schedule");
        let mut highlight = vec![false; self.edge_arr.len()];
        let mut cur = 0usize;
        for &pid in schedule {
            let lo = self.row_ptr[cur] as usize;
            let hi = self.row_ptr[cur + 1] as usize;
            let Some(k) = (lo..hi).find(|&k| self.edge_arr[k].pid == pid) else {
                break;
            };
            highlight[k] = true;
            cur = self.edge_arr[k].target();
        }
        self.render_dot(&highlight)
    }

    fn render_dot(&self, highlight: &[bool]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("digraph stategraph {\n  rankdir=LR;\n  node [shape=circle];\n");
        let mut is_terminal = vec![false; self.len()];
        for &t in &self.terminals {
            is_terminal[t] = true;
        }
        for (i, &term) in is_terminal.iter().enumerate() {
            let shape = if term { " shape=doublecircle" } else { "" };
            let style = if i == 0 { " style=bold" } else { "" };
            let _ = writeln!(out, "  n{i} [label=\"{i}\"{shape}{style}];");
        }
        for i in 0..self.len() {
            for k in self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize {
                let e = self.edge_arr[k];
                let extra = if highlight.get(k).copied().unwrap_or(false) {
                    " color=red penwidth=2"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "  n{i} -> n{} [label=\"p{}\"{extra}];",
                    e.target(),
                    e.pid.index()
                );
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use subconsensus_sim::{
        Action, ObjId, ObjectError, ObjectSpec, Op, Outcome, ProcCtx, Protocol, ProtocolError,
        SystemBuilder, Value,
    };

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
                "write" => Ok(vec![Outcome::ret(
                    op.arg(0).cloned().unwrap_or(Value::Nil),
                    Value::Nil,
                )]),
                _ => Err(ObjectError::UnknownOp {
                    object: "reg",
                    op: op.clone(),
                }),
            }
        }
    }

    /// Write your input, read, decide what you read.
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
                _ => Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil))),
            }
        }
    }

    /// Loop forever re-reading.
    #[derive(Debug)]
    struct Spinner {
        reg: ObjId,
    }

    impl Protocol for Spinner {
        fn start(&self, _ctx: &ProcCtx) -> Value {
            Value::Nil
        }

        fn step(
            &self,
            _ctx: &ProcCtx,
            _local: &Value,
            _resp: Option<&Value>,
        ) -> Result<Action, ProtocolError> {
            Ok(Action::invoke(Value::Nil, self.reg, Op::new("read")))
        }
    }

    fn race_spec(nprocs: usize) -> subconsensus_sim::SystemSpec {
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        let p = Arc::new(WriteReadDecide { reg });
        for i in 0..nprocs {
            b.add_process(p.clone(), Value::Int(i as i64 + 1));
        }
        b.build()
    }

    /// Two register-backed WriteReadDecide processes per block, each block
    /// on its own register, with declared footprints — the shape POR's
    /// static conflict components reduce.
    fn blocked_spec(blocks: usize) -> subconsensus_sim::SystemSpec {
        #[derive(Debug)]
        struct BlockedWrd {
            reg: ObjId,
        }

        impl Protocol for BlockedWrd {
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
                    _ => Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil))),
                }
            }

            fn obj_footprint(&self, _ctx: &ProcCtx) -> Option<Vec<ObjId>> {
                Some(vec![self.reg])
            }
        }

        let mut b = SystemBuilder::new();
        for blk in 0..blocks {
            let reg = b.add_object(Reg);
            let p = Arc::new(BlockedWrd { reg });
            for i in 0..2 {
                b.add_process(p.clone(), Value::Int((2 * blk + i) as i64 + 1));
            }
        }
        b.build()
    }

    #[test]
    fn solo_graph_is_a_path() {
        let g = StateGraph::explore(&race_spec(1), &ExploreOptions::default()).unwrap();
        assert_eq!(g.len(), 4, "init, wrote, read, decided");
        assert_eq!(g.terminals().len(), 1);
        assert!(!g.has_cycle());
        assert!(!g.is_truncated());
        assert!(!g.is_empty());
        assert!(!g.is_por_reduced());
    }

    #[test]
    fn two_process_race_has_multiple_terminals() {
        let g = StateGraph::explore(&race_spec(2), &ExploreOptions::default()).unwrap();
        assert!(
            g.terminals().len() > 1,
            "different interleavings end differently"
        );
        assert!(!g.has_cycle());
        // Every terminal has both processes decided on some written value.
        for &t in g.terminals() {
            let decided = g.config(t).decided_values();
            assert!(!decided.is_empty());
            for v in decided {
                assert!(v == Value::Int(1) || v == Value::Int(2));
            }
        }
    }

    #[test]
    fn spinner_produces_a_cycle() {
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        b.add_process(Arc::new(Spinner { reg }), Value::Nil);
        let spec = b.build();
        let g = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
        assert!(g.has_cycle());
        assert!(g.terminals().is_empty());
    }

    #[test]
    fn truncation_is_reported() {
        let g = StateGraph::explore(&race_spec(3), &ExploreOptions::with_max_configs(5)).unwrap();
        assert!(g.is_truncated());
        assert!(g.len() <= 5);
    }

    #[test]
    fn stats_summarize_the_graph() {
        let g = StateGraph::explore(&race_spec(1), &ExploreOptions::default()).unwrap();
        let s = g.stats();
        assert_eq!(s.configs, 4);
        assert_eq!(s.edges, 3, "a solo path");
        assert_eq!(s.terminals, 1);
        assert_eq!(s.max_out_degree, 1);
        assert_eq!(s.max_depth, 3);
        assert!(!s.truncated);
        assert!(s.to_string().contains("4 configs"));

        let g2 = StateGraph::explore(&race_spec(2), &ExploreOptions::default()).unwrap();
        let s2 = g2.stats();
        assert!(s2.max_out_degree >= 2, "two processes can both step");
        assert_eq!(s2.max_depth, 6, "every full execution takes 6 steps");
    }

    #[test]
    fn approx_bytes_scales_with_the_graph() {
        let small = StateGraph::explore(&race_spec(1), &ExploreOptions::default()).unwrap();
        let large = StateGraph::explore(&race_spec(3), &ExploreOptions::default()).unwrap();
        assert!(small.approx_bytes() > 0);
        assert!(large.approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn witness_schedule_reaches_and_replays() {
        use subconsensus_sim::{run, FirstOutcome, ReplayScheduler, RunOptions, Value as V};
        let spec = race_spec(2);
        let g = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
        // Find a terminal where P0 decided 2 (it read P1's later write).
        let schedule = g
            .witness_schedule(|c| c.is_final() && c.decisions()[0] == Some(V::Int(2)))
            .expect("such a schedule exists");
        // Replay it in a normal run and observe the same outcome.
        let mut sched = ReplayScheduler::new(schedule);
        let out = run(&spec, &mut sched, &mut FirstOutcome, &RunOptions::default()).unwrap();
        assert_eq!(out.decisions()[0], Some(V::Int(2)));
    }

    #[test]
    fn witness_schedule_for_initial_config_is_empty() {
        let g = StateGraph::explore(&race_spec(1), &ExploreOptions::default()).unwrap();
        assert_eq!(g.witness_schedule(|_| true), Some(vec![]));
        assert_eq!(g.witness_schedule(|_| false), None);
    }

    #[test]
    fn edges_record_stepping_pid() {
        let g = StateGraph::explore(&race_spec(2), &ExploreOptions::default()).unwrap();
        let pids: std::collections::HashSet<_> = g.edges(0).iter().map(|e| e.pid).collect();
        assert_eq!(pids.len(), 2, "both processes can step initially");
    }

    #[test]
    fn parallel_exploration_is_node_for_node_identical() {
        let spec = race_spec(3);
        let base = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
        assert!(base.len() > 100, "a nontrivial graph");
        for threads in [2usize, 3, 4, 8] {
            let opts = ExploreOptions::default().with_threads(threads);
            let g = StateGraph::explore(&spec, &opts).unwrap();
            assert_eq!(g.len(), base.len(), "{threads} threads");
            for i in 0..base.len() {
                assert_eq!(g.config(i), base.config(i), "node {i} at {threads} threads");
                assert_eq!(
                    g.edges(i),
                    base.edges(i),
                    "edges of {i} at {threads} threads"
                );
            }
            assert_eq!(g.terminals(), base.terminals(), "{threads} threads");
            assert_eq!(g.is_truncated(), base.is_truncated());
        }
    }

    #[test]
    fn truncated_parallel_exploration_matches_sequential() {
        let spec = race_spec(3);
        let seq = ExploreOptions::with_max_configs(40);
        let par = ExploreOptions::with_max_configs(40).with_threads(4);
        let a = StateGraph::explore(&spec, &seq).unwrap();
        let b = StateGraph::explore(&spec, &par).unwrap();
        assert!(a.is_truncated() && b.is_truncated());
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.config(i), b.config(i));
            assert_eq!(a.edges(i), b.edges(i));
        }
        assert_eq!(a.terminals(), b.terminals());
    }

    /// Sorted terminal configurations, for comparing graphs whose node
    /// numbering differs (full vs POR-reduced).
    fn terminal_configs(g: &StateGraph) -> Vec<Config> {
        let mut t: Vec<Config> = g.terminals().iter().map(|&i| g.config(i)).collect();
        t.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        t
    }

    #[test]
    fn por_preserves_terminals_exactly() {
        for spec in [race_spec(2), race_spec(3), blocked_spec(2)] {
            let full = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
            let red =
                StateGraph::explore(&spec, &ExploreOptions::default().with_por(true)).unwrap();
            assert!(red.is_por_reduced());
            assert!(!red.is_truncated());
            assert!(red.len() <= full.len());
            assert!(red.stats().edges <= full.stats().edges);
            assert_eq!(terminal_configs(&red), terminal_configs(&full));
        }
    }

    #[test]
    fn por_reduces_statically_independent_blocks() {
        // Two 2-process blocks on disjoint registers with declared
        // footprints: the blocks interleave freely in the full graph, but
        // POR serializes them.
        let spec = blocked_spec(2);
        let full = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
        let red = StateGraph::explore(&spec, &ExploreOptions::default().with_por(true)).unwrap();
        assert!(
            2 * red.len() <= full.len(),
            "reduced {} vs full {}: expected ≤ 1/2",
            red.len(),
            full.len()
        );
        assert!(red.stats().edges < full.stats().edges);
    }

    #[test]
    fn por_exploration_is_thread_count_independent() {
        let spec = blocked_spec(2);
        let base = StateGraph::explore(&spec, &ExploreOptions::default().with_por(true)).unwrap();
        for threads in [2usize, 4, 8] {
            let opts = ExploreOptions::default()
                .with_por(true)
                .with_threads(threads);
            let g = StateGraph::explore(&spec, &opts).unwrap();
            assert_eq!(g.len(), base.len(), "{threads} threads");
            for i in 0..base.len() {
                assert_eq!(g.config(i), base.config(i), "node {i} at {threads} threads");
                assert_eq!(g.edges(i), base.edges(i), "edges {i} at {threads} threads");
            }
            assert_eq!(g.terminals(), base.terminals());
        }
    }

    #[test]
    fn por_keeps_cycles_detectable() {
        // A spinner (cyclic) plus a decider: the proviso must keep the
        // spin cycle in the reduced graph.
        #[derive(Debug)]
        struct DecideNow;
        impl Protocol for DecideNow {
            fn start(&self, _ctx: &ProcCtx) -> Value {
                Value::Nil
            }
            fn step(
                &self,
                ctx: &ProcCtx,
                _local: &Value,
                _resp: Option<&Value>,
            ) -> Result<Action, ProtocolError> {
                Ok(Action::Decide(ctx.input.clone()))
            }
        }
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        b.add_process(Arc::new(Spinner { reg }), Value::Nil);
        b.add_process(Arc::new(DecideNow), Value::Int(1));
        let spec = b.build();
        let full = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
        let red = StateGraph::explore(&spec, &ExploreOptions::default().with_por(true)).unwrap();
        assert!(full.has_cycle());
        assert!(red.has_cycle(), "the proviso must not lose the cycle");
        assert_eq!(terminal_configs(&red), terminal_configs(&full));
    }

    /// Every (symmetry, por) combination: the interned explorer must be
    /// node-for-node, edge-for-edge identical to the deep one.
    #[test]
    fn interned_exploration_matches_deep_representation() {
        for spec in [race_spec(2), race_spec(3), blocked_spec(2)] {
            for symmetry in [false, true] {
                for por in [false, true] {
                    let base = ExploreOptions::default()
                        .with_symmetry(symmetry)
                        .with_por(por);
                    let deep =
                        StateGraph::explore(&spec, &base.clone().with_interned(false)).unwrap();
                    let compact = StateGraph::explore(&spec, &base.with_interned(true)).unwrap();
                    assert!(compact.interner_stats().is_some());
                    assert!(deep.interner_stats().is_none());
                    assert_eq!(compact.len(), deep.len(), "sym={symmetry} por={por}");
                    for i in 0..deep.len() {
                        assert_eq!(
                            compact.config(i),
                            deep.config(i),
                            "node {i} sym={symmetry} por={por}"
                        );
                        assert_eq!(
                            compact.edges(i),
                            deep.edges(i),
                            "edges {i} sym={symmetry} por={por}"
                        );
                    }
                    assert_eq!(compact.terminals(), deep.terminals());
                    assert_eq!(compact.is_truncated(), deep.is_truncated());
                    // The id rows must be strictly smaller than the deep
                    // pointer arrays (same CSR on both sides).
                    assert!(compact.approx_bytes() < deep.approx_bytes());
                }
            }
        }
    }

    #[test]
    fn truncated_interned_exploration_matches_deep() {
        let spec = race_spec(3);
        let deep = StateGraph::explore(
            &spec,
            &ExploreOptions::with_max_configs(40).with_interned(false),
        )
        .unwrap();
        let compact = StateGraph::explore(
            &spec,
            &ExploreOptions::with_max_configs(40).with_interned(true),
        )
        .unwrap();
        assert!(deep.is_truncated() && compact.is_truncated());
        assert_eq!(deep.len(), compact.len());
        for i in 0..deep.len() {
            assert_eq!(deep.config(i), compact.config(i));
            assert_eq!(deep.edges(i), compact.edges(i));
        }
    }

    #[test]
    fn interner_stats_reflect_sharing() {
        let g = StateGraph::explore(&race_spec(3), &ExploreOptions::default()).unwrap();
        let stats = g.interner_stats().expect("interned by default");
        assert!(stats.proc_states > 0);
        assert!(stats.object_states > 0);
        // Far fewer distinct states than config slots: that's the point.
        assert!(stats.proc_states + stats.object_states < g.len());
        assert!(stats.hit_rate() > 0.5, "hit rate {}", stats.hit_rate());
    }

    #[test]
    fn reverse_csr_inverts_the_forward_adjacency() {
        let g = StateGraph::explore(&race_spec(3), &ExploreOptions::default()).unwrap();
        let (ptr, preds) = g.reverse_csr();
        assert_eq!(ptr.len(), g.len() + 1);
        assert_eq!(preds.len(), g.stats().edges);
        // Each forward edge appears exactly once as a reverse entry.
        let mut expected: Vec<(usize, usize)> = Vec::new();
        for i in 0..g.len() {
            for e in g.edges(i) {
                expected.push((e.target(), i));
            }
        }
        expected.sort_unstable();
        let mut actual: Vec<(usize, usize)> = Vec::new();
        for j in 0..g.len() {
            for &p in &preds[ptr[j] as usize..ptr[j + 1] as usize] {
                actual.push((j, p as usize));
            }
        }
        actual.sort_unstable();
        assert_eq!(actual, expected);
    }

    /// A system whose symmetry groups are all singletons takes the
    /// fast path: requesting symmetry must yield the identical graph to
    /// not requesting it (canonicalization is the identity).
    #[test]
    fn trivial_symmetry_is_a_no_op_fast_path() {
        // race_spec gives every process a distinct input → singleton groups.
        let spec = race_spec(3);
        assert!(spec.symmetry_groups().is_trivial());
        let plain = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
        let sym =
            StateGraph::explore(&spec, &ExploreOptions::default().with_symmetry(true)).unwrap();
        assert_eq!(plain.len(), sym.len());
        for i in 0..plain.len() {
            assert_eq!(plain.config(i), sym.config(i));
            assert_eq!(plain.edges(i), sym.edges(i));
        }
        assert_eq!(plain.terminals(), sym.terminals());
    }

    #[test]
    fn colliding_fingerprints_never_merge_distinct_configs() {
        // Cram every distinct configuration of a real graph into a single
        // fingerprint bucket (the worst possible hash) and verify lookup
        // still resolves each to exactly itself — dedup relies on full
        // equality, never the fingerprint alone.
        let g = StateGraph::explore(&race_spec(2), &ExploreOptions::default()).unwrap();
        let configs: Vec<Config> = (0..g.len()).map(|i| g.config(i)).collect();
        let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
        index.insert(0, (0..configs.len()).collect());
        for (i, c) in configs.iter().enumerate() {
            assert_eq!(lookup(&index, &configs, 0, c), Some(i));
        }
        // A configuration outside the arena is never claimed found, even
        // when the bucket lists every node.
        let foreign = race_spec(3).initial_config();
        assert_eq!(lookup(&index, &configs, 0, &foreign), None);
    }

    /// Two indistinguishable processes racing on one register: the one
    /// in-repo shape whose symmetry groups are nontrivial, so the
    /// canonicalize-then-fingerprint shard routing actually exercises
    /// orbit collapsing.
    fn symmetric_spec(nprocs: usize) -> subconsensus_sim::SystemSpec {
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        let p = Arc::new(WriteReadDecide { reg });
        for _ in 0..nprocs {
            b.add_process(p.clone(), Value::Int(7));
        }
        b.build()
    }

    fn assert_graphs_identical(g: &StateGraph, base: &StateGraph, label: &str) {
        assert_eq!(g.len(), base.len(), "{label}");
        for i in 0..base.len() {
            assert_eq!(g.config(i), base.config(i), "node {i} {label}");
            assert_eq!(g.edges(i), base.edges(i), "edges of {i} {label}");
        }
        assert_eq!(g.terminals(), base.terminals(), "{label}");
        assert_eq!(g.is_truncated(), base.is_truncated(), "{label}");
    }

    #[test]
    fn sharded_exploration_is_shard_count_independent() {
        let spec = race_spec(3);
        for interned in [false, true] {
            let base = StateGraph::explore(
                &spec,
                &ExploreOptions::default()
                    .with_interned(interned)
                    .with_shards(1),
            )
            .unwrap();
            assert!(base.len() > 100, "a nontrivial graph");
            for shards in [2usize, 3, 4] {
                let opts = ExploreOptions::default()
                    .with_interned(interned)
                    .with_shards(shards);
                let g = StateGraph::explore(&spec, &opts).unwrap();
                assert_graphs_identical(&g, &base, &format!("{shards} shards interned={interned}"));
                // The freeze-time arena stitch must reproduce the exact
                // single-store representation, bytes included — the CI
                // bench guard diffs this across MC_SHARDS values.
                assert_eq!(
                    g.approx_bytes(),
                    base.approx_bytes(),
                    "{shards} shards interned={interned}"
                );
                assert_eq!(g.interner_stats().is_some(), interned);
            }
        }
    }

    #[test]
    fn sharded_por_symmetry_matrix_matches_unsharded() {
        for (name, spec) in [
            ("race3", race_spec(3)),
            ("blocked2", blocked_spec(2)),
            ("symmetric3", symmetric_spec(3)),
        ] {
            for symmetry in [false, true] {
                for por in [false, true] {
                    let base_opts = ExploreOptions::default()
                        .with_symmetry(symmetry)
                        .with_por(por);
                    let base = StateGraph::explore(&spec, &base_opts).unwrap();
                    for shards in [2usize, 4] {
                        let g = StateGraph::explore(&spec, &base_opts.clone().with_shards(shards))
                            .unwrap();
                        assert_graphs_identical(
                            &g,
                            &base,
                            &format!("{name} sym={symmetry} por={por} shards={shards}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn truncated_sharded_exploration_matches_unsharded() {
        let spec = race_spec(3);
        for interned in [false, true] {
            let base_opts = ExploreOptions::with_max_configs(40).with_interned(interned);
            let base = StateGraph::explore(&spec, &base_opts).unwrap();
            assert!(base.is_truncated());
            for shards in [2usize, 4] {
                let g = StateGraph::explore(&spec, &base_opts.clone().with_shards(shards)).unwrap();
                assert_graphs_identical(
                    &g,
                    &base,
                    &format!("cap=40 interned={interned} shards={shards}"),
                );
            }
        }
    }

    #[test]
    fn sharded_metrics_report_per_shard_breakdowns() {
        let spec = race_spec(3);
        let opts = ExploreOptions::default().with_shards(4).with_metrics(true);
        let g = StateGraph::explore(&spec, &opts).unwrap();
        let shards = &g.metrics().shards;
        assert_eq!(shards.len(), 4);
        assert_eq!(
            shards.iter().map(|s| s.nodes).sum::<usize>(),
            g.len(),
            "every node has exactly one owning shard"
        );
        assert_eq!(
            shards.iter().map(|s| s.edges).sum::<usize>(),
            g.stats().edges,
            "every edge is attributed to its source's owner"
        );
        assert_eq!(
            shards.iter().map(|s| s.sent).sum::<u64>(),
            shards.iter().map(|s| s.received).sum::<u64>(),
            "routed successors all arrive somewhere"
        );
        assert!(shards.iter().filter(|s| s.nodes > 0).count() > 1);
        // Unsharded runs publish no per-shard rows.
        let g1 = StateGraph::explore(&spec, &ExploreOptions::default().with_metrics(true)).unwrap();
        assert!(g1.metrics().shards.is_empty());
    }

    #[test]
    fn malformed_env_values_are_reported_not_parsed() {
        assert_eq!(parse_env("MC_SHARDS", " 4 ", parse_usize), Ok(Some(4)));
        assert_eq!(parse_env("MC_SHARDS", "", parse_usize), Ok(None));
        assert_eq!(parse_env("MC_SHARDS", "  ", parse_usize), Ok(None));
        let err = parse_env("MC_STORE_BUDGET", "4MiB", parse_usize).unwrap_err();
        assert!(
            err.contains("MC_STORE_BUDGET") && err.contains("4MiB"),
            "{err}"
        );
        assert_eq!(
            parse_env("MC_STORE", "DISK", parse_store),
            Ok(Some(StoreBackend::Disk))
        );
        assert_eq!(
            parse_env("MC_STORE", "memory", parse_store),
            Ok(Some(StoreBackend::Memory))
        );
        let err = parse_env("MC_STORE", "ssd", parse_store).unwrap_err();
        assert!(err.contains("MC_STORE") && err.contains("ssd"), "{err}");
    }

    #[test]
    fn shard_option_is_clamped() {
        assert_eq!(
            ExploreOptions::default()
                .with_shards(9999)
                .effective_shards(),
            MAX_SHARDS
        );
        assert_eq!(
            ExploreOptions::default().with_shards(3).effective_shards(),
            3
        );
    }
}
