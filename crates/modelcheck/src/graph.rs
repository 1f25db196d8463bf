//! Exhaustive construction of the reachable configuration graph.
//!
//! Exploration is a level-synchronized BFS: each depth level of the graph
//! is expanded *read-only* (optionally across threads), then the results
//! are merged sequentially in ascending node order. Because the merge
//! order is independent of how the level was split, the graph — node
//! indices, edges, terminals — is identical for every thread count.
//!
//! The node arena is **hash-consed**: every distinct object and process
//! state is interned once into a [`StateInterner`] and a node is one flat
//! row of `u32` id words. The visited set is a fingerprint index (`u64`
//! hash → candidate node ids) whose hits are verified by comparing id
//! words, so hash collisions can never merge distinct configurations:
//! interning maps equal states to equal ids, and only those. Stepping,
//! canonicalization and the POR footprints all work on id rows; a deep
//! [`Config`] is materialized only when a caller asks for one.
//!
//! There is one driver, `explore_core`: [`ExploreOptions::threads`]
//! workers split a level's expansion, deduplicating against a read-only
//! snapshot of the store, and one sequential merge decides every node id.
//! An independent `HashMap<Config, usize>` reference explorer under
//! `tests/` checks the graphs it produces node for node.
//!
//! # Partial-order reduction
//!
//! With [`ExploreOptions::por`], exploration prunes redundant interleavings
//! of *independent* steps (steps that commute — see
//! [`SystemSpec::compact_footprints_independent`]) instead of generating
//! them and letting the dedup index merge their endpoints:
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
use std::time::{Duration, Instant};

use subconsensus_sim::{
    git_revision, unix_time_ms, warn_once, Config, ExploreMetrics, InternerStats, PendingConfig,
    Pid, ProcStatus, Recorder, RunRecord, SimError, StateInterner, StepFootprint, SystemSpec,
    TruncationCause, Value,
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
    /// Turn the phase timers of the exploration telemetry on, so the
    /// graph's [`metrics`](StateGraph::metrics) carry a wall-time
    /// breakdown (expand / canonicalize / POR / dedup / merge / freeze).
    /// Counters and per-level records are collected either way; the
    /// explored graph is node-for-node identical with or without this
    /// flag (the recorder is write-only from the explorer's view). The
    /// `MC_PROGRESS`, `MC_TRACE`, `MC_STATUS_FILE` and `MC_RUN_LOG` env
    /// vars also force timing on, and so does `MC_STORE_DIR` alone, which
    /// turns on the run ledger.
    pub metrics: bool,
    /// What this exploration is for. The default,
    /// [`ExploreGoal::FullGraph`], builds and freezes the whole reachable
    /// graph. [`ExploreGoal::Verdict`] instead accumulates the queried
    /// properties *during* exploration, stops at the end of the first BFS
    /// level where the query is refuted, and skips the freeze +
    /// reverse-CSR phases entirely — the graph then carries a
    /// [`StreamingVerdict`] (see [`StateGraph::verdict`]) but no CSR.
    /// Early exit is at level granularity and the verdict fold is
    /// commutative, so verdicts and explored-config counts stay
    /// deterministic across threads × symmetry × POR × store.
    pub goal: ExploreGoal,
    /// Where the visited set lives: in RAM (the default) or disk-backed
    /// with a bounded hot tier ([`StoreBackend::Disk`]), which spills
    /// cold node rows and fingerprint-index entries to a per-run
    /// directory once the resident estimate crosses
    /// [`store_budget_bytes`](Self::store_budget_bytes); the interned
    /// object and process states always stay resident. The produced
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
            metrics: false,
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

    /// Returns these options with the telemetry phase timers on or off.
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
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
    /// *resolved* (`store` and `store_budget_bytes` record what the
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
             \"por\": {}, \"metrics\": {}, \
             \"goal\": \"{goal}\", \"store\": \"{store}\", \
             \"store_budget_bytes\": {budget}}}",
            self.max_configs, self.threads, self.symmetry, self.por, self.metrics
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
    /// Bounded hot tier: cold node rows and drained fingerprint-index
    /// entries spill to files under a per-exploration run directory
    /// (removed when the exploration drops), keeping resident bytes near
    /// [`ExploreOptions::store_budget_bytes`]. The interner arenas stay
    /// resident: they grow with the distinct object and process states,
    /// not with the configurations, so a budget below them just keeps
    /// spilling rows and index every level. The produced graph is
    /// node-for-node identical to the in-memory one.
    Disk,
}

/// Content hash of a row of interner id words (the dedup key).
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

/// The hot-tier budget of the node store when this exploration spills to
/// disk (`None`: everything stays in memory).
fn spill_budget(opts: &ExploreOptions) -> Option<usize> {
    (opts.effective_store() == StoreBackend::Disk).then(|| {
        opts.effective_store_budget()
            .unwrap_or(DEFAULT_DISK_BUDGET)
            .max(1)
    })
}

/// Stepped successors of one node, each with the pid permutation
/// canonicalization applied (`None` when already canonical).
type Successors = Vec<(PendingConfig, Option<Vec<usize>>)>;

/// The node arena of an exploration: states live once in a
/// [`StateInterner`], nodes are rows of `u32` id words in one flat array,
/// and a fingerprint index — keyed by [`fingerprint_words`] of the row —
/// finds a row by a word compare (sound because interning makes id
/// equality equivalent to state equality, so fingerprint collisions never
/// merge distinct configurations). Under [`StoreBackend::Disk`] a
/// [`Spill`] keeps the hot tier within budget.
struct RowStore {
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
    /// [`resident_estimate`](Self::resident_estimate) O(1).
    index_ids: usize,
    /// Disk spill state ([`StoreBackend::Disk`] only); `None` keeps
    /// everything resident.
    spill: Option<Spill>,
}

impl RowStore {
    /// An empty store for `init`'s shape, disk-backed with the given
    /// hot-tier budget if any.
    fn new(init: &Config, spill_budget: Option<usize>) -> Self {
        let stride = init.nobjects() + init.nprocs();
        RowStore {
            interner: StateInterner::new(),
            nobjects: init.nobjects(),
            stride,
            words: Vec::new(),
            len: 0,
            index: HashMap::new(),
            index_ids: 0,
            spill: spill_budget.map(|budget| Spill::new(stride, budget)),
        }
    }

    /// Interns `init` as node 0.
    fn seed(&mut self, init: &Config) {
        debug_assert_eq!(self.len, 0);
        let compact = self.interner.intern_config(init);
        self.push(compact.words(), fingerprint_words(compact.words()));
    }

    /// Appends a row filed under `fp`.
    fn push(&mut self, words: &[u32], fp: u64) {
        self.words.extend_from_slice(words);
        self.index.entry(fp).or_default().push(self.len);
        self.index_ids += 1;
        self.len += 1;
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

    /// Enabled-process bitset of node `i`.
    fn enabled_bits(&self, i: usize) -> u64 {
        self.interner.enabled_bits(self.nobjects, self.row(i))
    }

    /// Streaming-verdict facts of terminal node `i`, read off its id row.
    fn terminal_facts(&self, i: usize) -> TerminalFacts {
        TerminalFacts::of_procs(&self.interner, &self.row(i)[self.nobjects..])
    }

    /// All successors of stepping `pid` at node `i`, canonicalized when
    /// `symmetry`, each with the pid permutation canonicalization applied
    /// (`None` when already canonical).
    fn successors(
        &self,
        spec: &SystemSpec,
        i: usize,
        pid: Pid,
        symmetry: bool,
        timers: &Recorder,
    ) -> Result<Successors, SimError> {
        let succs = {
            let _t = timers.time_expand();
            spec.compact_successors(&self.interner, self.row(i), pid)?
        };
        Ok(succs
            .into_iter()
            .map(|mut pending| {
                let perm = if symmetry {
                    let _t = timers.time_canonicalize();
                    spec.compact_canonicalize(&self.interner, &mut pending)
                } else {
                    None
                };
                (pending, perm)
            })
            .collect())
    }

    /// Worker-side dedup: the resident node filed under `fp` whose row is
    /// `words`. Probes only the in-memory index and only resident rows — a
    /// spilled candidate is a safe false miss (the merge re-checks with
    /// faulting).
    fn find_resident(&self, fp: u64, words: &[u32], rec: &Recorder) -> Option<usize> {
        let spilling = self.spill.is_some();
        self.index
            .get(&fp)?
            .iter()
            .copied()
            .find(|&j| match self.row_resident(j) {
                Some(row) => {
                    if spilling {
                        rec.count_store_hot_hits(1);
                    }
                    row == words
                }
                None => {
                    rec.count_store_hot_misses(1);
                    false
                }
            })
    }

    /// Merge-side (authoritative) dedup: the node filed under `fp` whose
    /// row is `words`, faulting cold candidates from disk. The spilled
    /// index is probed only when every in-memory candidate misses — at
    /// most one row can equal `words`, so a hit ends the search.
    fn find(&mut self, fp: u64, words: &[u32], rec: &Recorder) -> Option<usize> {
        let RowStore {
            words: hot,
            stride,
            index,
            spill,
            ..
        } = self;
        let stride = *stride;
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
        let mem = index.get(&fp).map_or(&[][..], Vec::as_slice);
        if let Some(j) = mem.iter().copied().find(|&j| matches(j, spill)) {
            return Some(j);
        }
        let mut cold = Vec::new();
        spill.as_ref()?.spilled_candidates(fp, &mut cold, rec);
        cold.into_iter().find(|&j| matches(j, spill))
    }

    /// Merge-side find-or-add of a worker-stepped successor, bounded by
    /// `cap` nodes. The successor's fresh states are interned first.
    fn insert(&mut self, pending: PendingConfig, cap: usize, rec: &Recorder) -> MergeSlot {
        let compact = self.interner.finalize(pending);
        let words = compact.words();
        let fp = fingerprint_words(words);
        if let Some(j) = self.find(fp, words, rec) {
            return MergeSlot::Known(j);
        }
        if self.len >= cap {
            return MergeSlot::Capped;
        }
        self.push(words, fp);
        MergeSlot::Added
    }

    /// Sequential level-boundary hook, called with the node ids about to be
    /// expanded (workers are joined, so a disk-backed store may evict here:
    /// every row a worker can touch this level — the frontier's — is
    /// pinned resident until the next call; the interner arenas always
    /// are).
    fn begin_level(&mut self, frontier: &[usize], rec: &Recorder) {
        let Some(spill) = self.spill.as_mut() else {
            return;
        };
        spill.clear_reloaded();
        let budget = spill.budget;
        if self.resident_estimate() > budget {
            // Rows first: the append-only node rows are the dominant
            // linear cost, and spilling them is one sequential write.
            let rows = std::mem::take(&mut self.words);
            self.spill
                .as_mut()
                .expect("checked at entry")
                .spill_rows(&rows, rec);
        }
        let spill = self.spill.as_mut().expect("checked at entry");
        for &i in frontier {
            if i < spill.hot_base() {
                spill.fault_row(i, rec);
            }
        }
        if self.resident_estimate() > budget {
            // Still over: the in-memory fingerprint index drains to the
            // sorted spilled index.
            let mut index = std::mem::take(&mut self.index);
            self.spill
                .as_mut()
                .expect("checked at entry")
                .drain_index(&mut index, rec);
            self.index = index;
            self.index_ids = 0;
        }
    }

    /// Estimated resident bytes of the hot tier — interner tables and
    /// unique states, hot rows, the fingerprint index (`HashMap` control
    /// word + key + `Vec` header per entry, one `usize` per filed id) and
    /// the spill's reload buffers and fences — driving both the disk
    /// store's eviction and the in-memory budget truncation.
    fn resident_estimate(&self) -> usize {
        self.interner.table_bytes()
            + self.interner.state_bytes()
            + self.words.len() * std::mem::size_of::<u32>()
            + self.index.len() * 48
            + self.index_ids * 8
            + self
                .spill
                .as_ref()
                .map_or(0, |s| s.reloaded_bytes() + s.fence_bytes())
    }

    /// Reconstitutes the fully resident representation (freeze time): the
    /// on-disk row prefix streamed back in front of the hot suffix, and the
    /// spill dropped (removing its run directory). The result is
    /// indistinguishable from an in-memory exploration's.
    fn unspill(&mut self, rec: &Recorder) {
        let Some(spill) = self.spill.take() else {
            return;
        };
        if spill.hot_base() > 0 {
            let mut all = spill.read_all_rows(rec);
            all.append(&mut self.words);
            self.words = all;
        }
    }

    /// The frozen node arena.
    fn into_nodes(mut self, rec: &Recorder) -> InternedNodes {
        self.unspill(rec);
        InternedNodes {
            interner: self.interner,
            nobjects: self.nobjects,
            stride: self.stride,
            words: self.words,
        }
    }
}

/// How the merge placed one successor.
enum MergeSlot {
    /// Already a node (possibly added earlier in this level).
    Known(usize),
    /// Newly added as the next node id.
    Added,
    /// Rejected: the exploration is at its configuration (or memory)
    /// bound.
    Capped,
}

/// One unit of frontier work.
///
/// A `fresh` item is a node's first expansion: the planner picks the ample
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

impl WorkItem {
    fn fresh(node: usize) -> Self {
        WorkItem {
            node,
            fire: 0,
            sleep: 0,
            fresh: true,
        }
    }
}

/// A successor resolved by a level-expansion worker.
enum StepResult {
    /// The successor already had a node index before this level's merge.
    Existing(usize),
    /// A successor unseen at expansion time; the merge re-checks it
    /// against nodes added earlier in the level before adding it.
    Fresh(PendingConfig),
}

/// One expanded successor: stepping pid, dedup result, sleep mask.
type Step = (Pid, StepResult, u64);

/// The expansion of one work item: one [`Step`] per successor in stable
/// (pid, outcome) order.
struct Expansion {
    steps: Vec<Step>,
    /// The pids this item actually fired.
    fired: u64,
    /// Ample candidates suppressed by the sleep set (first visits only).
    slept: u64,
    terminal: bool,
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

/// The partial-order-reduction plan of one work item: which enabled pids
/// it fires, the sleep set it starts from, the ample candidates that sleep
/// set suppressed, and the per-pid step footprints every successor's sleep
/// mask is computed from. Without POR it fires every enabled pid and all
/// sleep masks are zero.
struct PorPlan<'a> {
    spec: &'a SystemSpec,
    interner: &'a StateInterner,
    /// The expanded node's id row.
    words: &'a [u32],
    por: bool,
    enabled: u64,
    fire: u64,
    sleep: u64,
    slept: u64,
    fps: Vec<Option<StepFootprint>>,
}

impl<'a> PorPlan<'a> {
    /// Plans `item`, whose node has enabled set `enabled` in `store`.
    fn new(
        store: &'a RowStore,
        enabled: u64,
        item: &WorkItem,
        x: ExpandCtx<'a>,
    ) -> Result<Self, SimError> {
        let mut plan = PorPlan {
            spec: x.spec,
            interner: &store.interner,
            words: store.row(item.node),
            por: x.opts.por,
            enabled,
            fire: enabled,
            sleep: 0,
            slept: 0,
            fps: Vec::new(),
        };
        if !plan.por {
            return Ok(plan);
        }
        let _t = x.rec.time_por();
        plan.fps = vec![None; plan.spec.nprocs()];
        let mut it = enabled;
        while it != 0 {
            let i = it.trailing_zeros() as usize;
            it &= it - 1;
            let fp = plan
                .spec
                .compact_footprint(plan.interner, plan.words, Pid::new(i))?;
            plan.fps[i] = Some(fp);
        }
        if item.fresh {
            plan.sleep = x.first_sleep[item.node] & enabled;
            let ample = choose_ample(plan.spec, enabled, &plan.fps);
            plan.fire = ample & !plan.sleep;
            plan.slept = ample & plan.sleep;
            if plan.fire == 0 {
                // Never strand a node with enabled processes: un-sleep the
                // lowest ample candidate, so every non-terminal node keeps
                // at least one outgoing edge (`check_nonblocking` depends
                // on it).
                let low = ample & ample.wrapping_neg();
                plan.fire = low;
                plan.slept &= !low;
            }
        } else {
            plan.fire = item.fire;
            plan.sleep = item.sleep;
        }
        Ok(plan)
    }

    /// The sleep set to install at a successor of firing pid `i` (reached
    /// through canonicalization permutation `perm`), given the pids `done`
    /// this item fired before `i`: the incoming sleep plus those earlier
    /// siblings, minus `i`, filtered to the pids whose next step is
    /// independent of `i`'s.
    fn successor_sleep(
        &self,
        i: usize,
        done: u64,
        perm: Option<&[usize]>,
        timers: &Recorder,
    ) -> u64 {
        let base = (self.sleep | done) & self.enabled & !(1 << i);
        if !self.por || base == 0 {
            return 0;
        }
        let _t = timers.time_por();
        let me = self.fps[i].as_ref().expect("enabled pid has a footprint");
        let mut sleep = 0u64;
        let mut qs = base;
        while qs != 0 {
            let q = qs.trailing_zeros() as usize;
            qs &= qs - 1;
            let other = self.fps[q].as_ref().expect("enabled pid has a footprint");
            if self
                .spec
                .compact_footprints_independent(self.interner, self.words, me, other)
            {
                sleep |= 1 << q;
            }
        }
        // The canonical successor renames pids; rename the mask with it.
        perm.map_or(sleep, |perm| permute_mask(sleep, perm))
    }
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

/// Read-only per-level context shared by every expansion worker.
#[derive(Clone, Copy)]
struct ExpandCtx<'a> {
    spec: &'a SystemSpec,
    first_sleep: &'a [u64],
    opts: &'a ExploreOptions,
    /// Shared counters, phase timers and heartbeat sink.
    rec: &'a Recorder,
    lvl: LevelCtx,
}

/// Expands one work item against a read-only snapshot of `store`: plans
/// the fired pids, steps each one, and resolves every successor against
/// the snapshot.
fn expand_node(store: &RowStore, item: &WorkItem, x: ExpandCtx<'_>) -> Result<Expansion, SimError> {
    let rec = x.rec;
    rec.count_expansions(1);
    rec.heartbeat(x.lvl.level, x.lvl.nodes, x.lvl.frontier, x.lvl.remaining);
    let enabled = store.enabled_bits(item.node);
    if enabled == 0 {
        return Ok(Expansion {
            steps: Vec::new(),
            fired: 0,
            slept: 0,
            terminal: true,
        });
    }
    let plan = PorPlan::new(store, enabled, item, x)?;
    let mut steps = Vec::new();
    let mut done = 0u64; // earlier siblings fired by this item
    let mut it = plan.fire;
    while it != 0 {
        let i = it.trailing_zeros() as usize;
        it &= it - 1;
        let pid = Pid::new(i);
        for (next, perm) in store.successors(x.spec, item.node, pid, x.opts.symmetry, rec)? {
            if perm.is_some() {
                rec.count_symmetry_hits(1);
            }
            let sleep = plan.successor_sleep(i, done, perm.as_deref(), rec);
            let step = {
                let _t = rec.time_dedup();
                // A successor carrying a genuinely fresh state cannot be in
                // the snapshot, so it needs no lookup until the merge
                // interns it.
                let known = next
                    .resolved_words()
                    .and_then(|words| store.find_resident(fingerprint_words(words), words, rec));
                match known {
                    Some(j) => StepResult::Existing(j),
                    None => StepResult::Fresh(next),
                }
            };
            steps.push((pid, step, sleep));
        }
        done |= 1 << i;
    }
    rec.count_generated(steps.len() as u64);
    Ok(Expansion {
        steps,
        fired: plan.fire,
        slept: plan.slept,
        terminal: false,
    })
}

/// Below this many work items a level is always expanded in-line:
/// spawning scoped threads costs more than stepping a handful of nodes,
/// and the merge produces the same graph either way.
const PARALLEL_THRESHOLD: usize = 32;

/// Hardware threads the host can actually run concurrently (cached; 1 on
/// query failure).
fn host_parallelism() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Whether a level of `items` work items is split across `workers`
/// threads. A single-core host runs everything in-line: the graph is
/// identical either way, spawning only costs, and a worker's wall-clock
/// phase timers would otherwise absorb the time it spent descheduled
/// behind its siblings.
fn spawn_workers(workers: usize, items: usize) -> bool {
    workers > 1 && items >= PARALLEL_THRESHOLD && host_parallelism() > 1
}

/// Global per-node BFS bookkeeping: the merge replays a level's expansions
/// into it in (frontier, step) order, so every decision — node numbering,
/// edges, sleep sets, cycle proviso, revisit wake-ups, streaming verdict —
/// is made once, here, independent of how the level was split.
struct Bfs<'a> {
    opts: &'a ExploreOptions,
    rec: &'a Recorder,
    /// First-discovery BFS level per node; doubles as the cycle proviso's
    /// back-edge detector. The sleep-set state below is all-zero without
    /// POR.
    depth: Vec<u32>,
    first_sleep: Vec<u64>,
    /// Pids fired or enqueued-and-merged, per node.
    explored: Vec<u64>,
    /// Pids suppressed by sleep sets, per node.
    slept: Vec<u64>,
    /// Pids enqueued, not yet merged, per node.
    pending: Vec<u64>,
    expanded: Vec<bool>,
    /// Escalated to full expansion by the cycle proviso, per node.
    full: Vec<bool>,
    /// Flat (from, edge) buffer, frozen into CSR at the end.
    edge_buf: Vec<(u32, Edge)>,
    terminals: Vec<usize>,
    truncated: bool,
    /// Streaming-verdict accumulator (verdict goal only). Fed in merge
    /// order; consulted once per level, after the revisits, so the exit
    /// point — and with it the explored-config count — is identical for
    /// every thread count and store backend.
    engine: Option<VerdictEngine>,
    early_exit: bool,
    /// In-memory hot-tier budget: with an explicit budget but no spill to
    /// honor it by eviction, a level that starts over it adds no nodes — a
    /// clean, recorded truncation instead of unbounded growth.
    mem_budget: Option<usize>,
    // Per-level state.
    cur_depth: u32,
    level_len: usize,
    nodes_before: usize,
    t_level: Option<Instant>,
    /// `Some(budget)` when this level started over the memory budget.
    budget_cap: Option<usize>,
    next: Vec<WorkItem>,
    /// POR: edges into already-known nodes, applied only after the whole
    /// level has merged (the target's own expansion may merge later in
    /// the same level).
    revisits: Vec<(usize, u64)>,
    // Per-node state.
    scratch: Vec<Edge>,
    escalate: bool,
}

impl<'a> Bfs<'a> {
    /// Bookkeeping holding the root, node 0.
    fn new(opts: &'a ExploreOptions, rec: &'a Recorder) -> Self {
        Bfs {
            opts,
            rec,
            depth: vec![0],
            first_sleep: vec![0],
            explored: vec![0],
            slept: vec![0],
            pending: vec![0],
            expanded: vec![false],
            full: vec![false],
            edge_buf: Vec::new(),
            terminals: Vec::new(),
            truncated: false,
            engine: match &opts.goal {
                ExploreGoal::FullGraph => None,
                ExploreGoal::Verdict(query) => Some(VerdictEngine::new(query.clone())),
            },
            early_exit: false,
            mem_budget: if opts.effective_store() == StoreBackend::Disk {
                None
            } else {
                opts.effective_store_budget()
            },
            cur_depth: 0,
            level_len: 0,
            nodes_before: 0,
            t_level: None,
            budget_cap: None,
            next: Vec::new(),
            revisits: Vec::new(),
            scratch: Vec::new(),
            escalate: false,
        }
    }

    fn len(&self) -> usize {
        self.depth.len()
    }

    fn remaining(&self) -> usize {
        self.opts.max_configs.saturating_sub(self.len())
    }

    /// Opens a level of `level_len` work items.
    fn begin_level(&mut self, level_len: usize) -> LevelCtx {
        // Level wall time feeds the per-level trace records; read the
        // clock only when timing is on so the untimed path stays
        // syscall-free.
        self.t_level = self.rec.is_timing().then(Instant::now);
        self.nodes_before = self.len();
        self.level_len = level_len;
        LevelCtx {
            level: self.cur_depth,
            nodes: self.nodes_before,
            frontier: level_len,
            remaining: self.remaining(),
        }
    }

    /// Whether this level starts over the in-memory budget (then it may
    /// add no node); `resident` is evaluated only under such a budget.
    fn over_budget(&mut self, resident: impl FnOnce() -> usize) -> bool {
        self.budget_cap = self.mem_budget.filter(|&b| resident() > b);
        self.budget_cap.is_some()
    }

    /// Records node `i` as terminal.
    fn terminal(&mut self, i: usize, facts: impl FnOnce() -> TerminalFacts) {
        self.terminals.push(i);
        self.expanded[i] = true;
        if let Some(eng) = self.engine.as_mut() {
            eng.on_terminal(facts());
        }
    }

    /// Opens the merge of a non-terminal node's expansion.
    fn begin_node(&mut self, slept: u64) {
        self.escalate = false;
        self.scratch.clear();
        self.rec.count_sleep_pruned(u64::from(slept.count_ones()));
    }

    /// Merges one successor of node `i`, fired by `pid` and carrying sleep
    /// mask `sleep`, placed at `slot`. Returns the new node's id if it was
    /// added.
    fn step(&mut self, i: usize, pid: Pid, slot: MergeSlot, sleep: u64) -> Option<usize> {
        let rec = self.rec;
        let (j, known) = match slot {
            MergeSlot::Known(j) => {
                rec.count_dedup_hits(1);
                (j, true)
            }
            MergeSlot::Capped => {
                rec.count_capped(1);
                match self.budget_cap {
                    Some(b) => rec.set_budget_truncated(b),
                    None => rec.set_truncated(self.opts.max_configs),
                }
                self.truncated = true;
                return None;
            }
            MergeSlot::Added => {
                rec.count_added(1);
                let j = self.len();
                assert!(j < u32::MAX as usize, "state graph exceeds u32 node ids");
                self.depth.push(self.cur_depth + 1);
                self.first_sleep.push(sleep);
                self.explored.push(0);
                self.slept.push(0);
                self.pending.push(0);
                self.expanded.push(false);
                self.full.push(false);
                self.next.push(WorkItem::fresh(j));
                (j, false)
            }
        };
        if known && self.depth[j] <= self.depth[i] {
            // Retreating edge — the only kind that can close a cycle
            // (depth deltas are <= +1 per edge and sum to 0 around a
            // cycle). Triggers the POR cycle proviso and registers a
            // streaming cycle-check candidate.
            if self.opts.por {
                self.escalate = true;
            }
            if let Some(eng) = self.engine.as_mut() {
                eng.on_retreating_edge();
            }
        }
        if self.opts.por && known {
            self.revisits.push((j, sleep));
        }
        self.scratch.push(Edge { pid, to: j as u32 });
        (!known).then_some(j)
    }

    /// Closes the merge of node `i`'s expansion, which fired `fired` and
    /// slept `slept`; `enabled` yields the node's enabled set (read only
    /// when the cycle proviso escalates). Returns the node's edge count.
    fn finish_node(
        &mut self,
        i: usize,
        fired: u64,
        slept: u64,
        enabled: impl FnOnce() -> u64,
    ) -> usize {
        // Canonicalization can map distinct successors of one node onto
        // the same representative; drop the parallel duplicates (the full
        // graph never produces them). Per-expansion dedup is per-node
        // dedup: a pid never fires twice for one node, so duplicates
        // cannot span expansions.
        if self.opts.symmetry {
            self.scratch.sort_unstable_by_key(|e| (e.pid.index(), e.to));
            self.scratch.dedup();
        }
        let edges = self.scratch.len();
        self.edge_buf
            .extend(self.scratch.drain(..).map(|e| (i as u32, e)));
        self.expanded[i] = true;
        self.explored[i] |= fired;
        self.pending[i] &= !fired;
        self.slept[i] = (self.slept[i] | slept) & !self.explored[i];
        if self.opts.por && self.escalate && !self.full[i] {
            // Cycle proviso: fully expand one node per cycle so no enabled
            // process is ignored around it. Everything not yet fired or in
            // flight is fired next level, sleep ignored.
            self.full[i] = true;
            let rest = enabled() & !self.explored[i] & !self.pending[i];
            self.slept[i] = 0;
            if rest != 0 {
                self.pending[i] |= rest;
                self.next.push(WorkItem {
                    node: i,
                    fire: rest,
                    sleep: 0,
                    fresh: false,
                });
            }
        }
        // Mid-merge heartbeat: the whole level's expansions are already in
        // the counter, so a long merge after a huge expansion still
        // reports within one interval of it.
        self.rec
            .heartbeat(self.cur_depth, self.len(), self.level_len, self.remaining());
        edges
    }

    /// Sleep-set revisit rule: reaching a known node along a new path
    /// whose sleep set no longer covers a previously suppressed pid
    /// re-fires exactly that pid. Applied after the level's merges so
    /// `expanded`/`slept` are final for the level.
    fn wake_revisits(&mut self) {
        for (j, new_sleep) in std::mem::take(&mut self.revisits) {
            if !self.expanded[j] {
                // First expansion still queued: shrink the sleep set it
                // will start from instead.
                self.first_sleep[j] &= new_sleep;
                continue;
            }
            let wake = self.slept[j] & !new_sleep;
            if wake != 0 {
                self.slept[j] &= !wake;
                self.pending[j] |= wake;
                self.next.push(WorkItem {
                    node: j,
                    fire: wake,
                    sleep: new_sleep,
                    fresh: false,
                });
            }
        }
    }

    /// Closes the level with the store's `resident` bytes and returns the
    /// next one (empty once the streaming verdict is refuted).
    fn end_level(&mut self, resident: usize) -> Vec<WorkItem> {
        self.rec.record_peak_bytes(resident);
        // Level-granular verdict evaluation: at most one (untimed) cycle
        // check per level, then exit if any queried conjunct is refuted.
        if let Some(eng) = self.engine.as_mut() {
            if eng.wants_cycle_check() {
                eng.record_cycle_check(edge_buf_has_cycle(self.depth.len(), &self.edge_buf));
            }
            self.early_exit = eng.refutation().is_some();
        }
        self.rec.record_level(
            self.level_len,
            self.len() - self.nodes_before,
            self.len(),
            self.edge_buf.len(),
            self.t_level.map_or(Duration::ZERO, |t| t.elapsed()),
        );
        self.rec.heartbeat(
            self.cur_depth,
            self.len(),
            self.next.len(),
            self.remaining(),
        );
        self.cur_depth += 1;
        let next = std::mem::take(&mut self.next);
        if self.early_exit {
            Vec::new()
        } else {
            next
        }
    }

    /// Finishes the exploration: the streaming verdict, or (full-graph
    /// goal) the adjacency frozen into CSR form.
    fn finish(mut self) -> GraphCore {
        self.terminals.sort_unstable();
        self.terminals.dedup();
        let n = self.depth.len();
        let (truncated, early_exit) = (self.truncated, self.early_exit);
        let verdict = self.engine.take().map(|mut eng| {
            if !truncated && !early_exit && eng.needs_final_cycle_check() {
                // A cycle through an old retreating candidate may only have
                // closed after that candidate's level was checked;
                // completion therefore re-checks once over the final edge
                // buffer.
                eng.record_cycle_check(edge_buf_has_cycle(n, &self.edge_buf));
            }
            eng.finish(truncated.then_some(self.opts.max_configs), early_exit, n)
        });
        let edges = self.edge_buf.len();
        let (row_ptr, edge_arr) = if verdict.is_some() {
            // Verdict goal: nobody reads the CSR — skip the freeze entirely.
            (Vec::new(), Vec::new())
        } else {
            freeze_csr(n, self.edge_buf, self.rec)
        };
        GraphCore {
            len: n,
            row_ptr,
            edge_arr,
            terminals: self.terminals,
            truncated,
            edges,
            verdict,
        }
    }
}

/// Expands one BFS level, splitting it across `opts.threads` workers.
/// Results are returned in the same order as `level` regardless of the
/// split.
fn expand_level(
    store: &RowStore,
    level: &[WorkItem],
    x: ExpandCtx<'_>,
) -> Result<Vec<Expansion>, SimError> {
    let expand_chunk = |items: &[WorkItem]| -> Result<Vec<_>, SimError> {
        items
            .iter()
            .map(|item| expand_node(store, item, x))
            .collect()
    };
    let threads = x.opts.threads.clamp(1, level.len().max(1));
    if !spawn_workers(threads, level.len()) {
        return expand_chunk(level);
    }
    let chunk_size = level.len().div_ceil(threads);
    let results: Vec<Result<Vec<_>, SimError>> = std::thread::scope(|s| {
        let handles: Vec<_> = level
            .chunks(chunk_size)
            .map(|chunk| s.spawn(move || expand_chunk(chunk)))
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

/// Runs the level-synchronized BFS from `init`: each level is expanded
/// read-only (optionally across threads), then merged sequentially in
/// frontier order. Returns the graph core and the store.
fn explore_core(
    spec: &SystemSpec,
    init: &Config,
    opts: &ExploreOptions,
    rec: &Recorder,
) -> Result<(GraphCore, RowStore), SimError> {
    let mut store = RowStore::new(init, spill_budget(opts));
    if store.spill.is_some() {
        rec.mark_store_active();
    }
    store.seed(init);
    let mut bfs = Bfs::new(opts, rec);
    let mut level = vec![WorkItem::fresh(0)];
    let mut frontier_ids: Vec<usize> = Vec::new();
    while !level.is_empty() {
        let lvl = bfs.begin_level(level.len());
        frontier_ids.clear();
        frontier_ids.extend(level.iter().map(|it| it.node));
        store.begin_level(&frontier_ids, rec);
        let level_cap = if bfs.over_budget(|| store.resident_estimate()) {
            0
        } else {
            opts.max_configs
        };
        let x = ExpandCtx {
            spec,
            first_sleep: &bfs.first_sleep,
            opts,
            rec,
            lvl,
        };
        let expansions = expand_level(&store, &level, x)?;
        let merge_t = rec.time_merge();
        for (item, exp) in level.iter().zip(expansions) {
            let i = item.node;
            if exp.terminal {
                bfs.terminal(i, || store.terminal_facts(i));
                continue;
            }
            bfs.begin_node(exp.slept);
            for (pid, step, sleep) in exp.steps {
                let slot = match step {
                    StepResult::Existing(j) => MergeSlot::Known(j),
                    StepResult::Fresh(next) => {
                        let _t = rec.time_intern();
                        store.insert(next, level_cap, rec)
                    }
                };
                bfs.step(i, pid, slot, sleep);
            }
            bfs.finish_node(i, exp.fired, exp.slept, || store.enabled_bits(i));
        }
        bfs.wake_revisits();
        drop(merge_t);
        level = bfs.end_level(store.resident_estimate());
    }
    Ok((bfs.finish(), store))
}

/// Cycle check over the in-flight edge buffer: builds a throwaway CSR and
/// runs the same DFS as [`StateGraph::has_cycle`]. Deliberately *untimed*
/// — under a verdict goal the freeze/reverse-CSR slots must read zero
/// calls, and this linear scan is part of the streaming merge work.
fn edge_buf_has_cycle(n: usize, edge_buf: &[(u32, Edge)]) -> bool {
    let (row_ptr, edge_arr) = build_csr(n, edge_buf);
    csr_has_cycle(&row_ptr, &edge_arr)
}

/// Freezes a flat `(from, edge)` buffer into CSR adjacency, timed as the
/// freeze phase.
fn freeze_csr(n: usize, edge_buf: Vec<(u32, Edge)>, rec: &Recorder) -> (Vec<u32>, Vec<Edge>) {
    let _t = rec.time_freeze();
    build_csr(n, &edge_buf)
}

/// CSR adjacency of a flat `(from, edge)` buffer over `n` nodes: a stable
/// counting sort by source node (edges of one node keep their merge
/// order).
fn build_csr(n: usize, edge_buf: &[(u32, Edge)]) -> (Vec<u32>, Vec<Edge>) {
    assert!(
        edge_buf.len() < u32::MAX as usize,
        "state graph exceeds u32 edge ids"
    );
    let mut row_ptr = vec![0u32; n + 1];
    for &(from, _) in edge_buf {
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
    for &(from, e) in edge_buf {
        let c = &mut cursor[from as usize];
        edge_arr[*c as usize] = e;
        *c += 1;
    }
    (row_ptr, edge_arr)
}

/// Whether the CSR graph `(row_ptr, edge_arr)` has a directed cycle: an
/// iterative three-colour DFS that stops at the first back edge.
fn csr_has_cycle(row_ptr: &[u32], edge_arr: &[Edge]) -> bool {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let n = row_ptr.len() - 1;
    let mut color = vec![WHITE; n];
    // Stack of (node, next edge index).
    let mut stack: Vec<(usize, u32)> = Vec::new();
    for root in 0..n {
        if color[root] != WHITE {
            continue;
        }
        color[root] = GRAY;
        stack.push((root, row_ptr[root]));
        while let Some(&mut (v, ref mut e)) = stack.last_mut() {
            if *e == row_ptr[v + 1] {
                color[v] = BLACK;
                stack.pop();
                continue;
            }
            let w = edge_arr[*e as usize].target();
            *e += 1;
            match color[w] {
                WHITE => {
                    color[w] = GRAY;
                    stack.push((w, row_ptr[w]));
                }
                GRAY => return true,
                _ => {}
            }
        }
    }
    false
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
/// from the node's `u32` id row (one interner lookup per id), so property
/// predicates probing thousands of nodes never materialize a deep
/// [`Config`] per probe. Use [`NodeView::config`] only when the whole
/// configuration is genuinely needed.
#[derive(Clone, Copy, Debug)]
pub struct NodeView<'g> {
    nodes: &'g InternedNodes,
    index: usize,
}

impl<'g> NodeView<'g> {
    /// This node's index in the graph.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of processes in the system.
    pub fn nprocs(&self) -> usize {
        self.nodes.stride - self.nodes.nobjects
    }

    /// Status of process `pid`, borrowed from the interner.
    pub fn status(&self, pid: Pid) -> &'g ProcStatus {
        let id = self.nodes.row(self.index)[self.nodes.nobjects + pid.index()];
        &self.nodes.interner.proc(id).status
    }

    /// Bitset of the enabled processes.
    pub fn enabled_bits(&self) -> u64 {
        self.nodes
            .interner
            .enabled_bits(self.nodes.nobjects, self.nodes.row(self.index))
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

    /// The decided values and the hung / undecided classification of
    /// this node, as the streaming verdict engine sees a terminal.
    pub(crate) fn terminal_facts(&self) -> TerminalFacts {
        let row = self.nodes.row(self.index);
        TerminalFacts::of_procs(&self.nodes.interner, &row[self.nodes.nobjects..])
    }

    /// The full configuration, materialized on demand — per-probe cost
    /// the id-native accessors above avoid; prefer them in predicates.
    pub fn config(&self) -> Config {
        self.nodes
            .interner
            .materialize_words(self.nodes.nobjects, self.nodes.row(self.index))
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
    /// The frozen node arena; `None` for an [`ExploreGoal::Verdict`]
    /// exploration, which skips it (its callers never look at
    /// configurations again) and keeps only the node count.
    nodes: Option<InternedNodes>,
    len: usize,
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

/// The frozen node arena of a [`StateGraph`]: `stride` id words per node in
/// one flat row-major array, resolved through the interner.
#[derive(Clone, Debug)]
struct InternedNodes {
    interner: StateInterner,
    nobjects: usize,
    stride: usize,
    words: Vec<u32>,
}

impl InternedNodes {
    fn row(&self, i: usize) -> &[u32] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }
}

/// The explorer's output before node storage is attached: node count, CSR
/// adjacency, terminals and the truncation flag. Under a verdict goal the
/// CSR vectors are empty (the freeze is skipped) and `edges` keeps the true
/// recorded edge count for the metrics; otherwise `edges == edge_arr.len()`.
struct GraphCore {
    len: usize,
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

impl StateGraph {
    /// Exhaustively explores `spec` from its initial configuration,
    /// breadth-first. `opts.threads` is the one parallelism knob: with
    /// `threads > 1` each large depth level's expansion is split across
    /// that many workers (in-line on a single-core host), and one
    /// sequential merge in frontier order numbers the nodes, so the
    /// resulting graph is identical node-for-node to the sequential one.
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
        let (core, store) = explore_core(spec, &init, &opts, rec)?;
        // A verdict goal keeps no node contents: its callers never look at
        // configurations again, so the store — and any spill, with its run
        // directory — drops here without being reconstituted.
        let nodes = matches!(opts.goal, ExploreGoal::FullGraph).then(|| store.into_nodes(rec));
        let mut graph = StateGraph {
            nodes,
            len: core.len,
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
        self.len
    }

    /// Returns `true` if the graph has no configurations (never happens for a
    /// successfully explored system, which always has the initial one).
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
    /// Panics if `index` is out of range, or on a verdict-only graph
    /// (whose node contents were never gathered).
    pub fn node(&self, index: usize) -> NodeView<'_> {
        assert!(index < self.len, "node index out of range");
        let nodes = self.nodes.as_ref().expect(
            "node contents of an ExploreGoal::Verdict exploration are never \
             gathered; re-explore with ExploreGoal::FullGraph to inspect \
             configurations",
        );
        NodeView { nodes, index }
    }

    /// Returns the configuration at `index`, materialized from its id row
    /// (per-slot `Arc` clones; no state is deep-copied).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, or on a verdict-only graph.
    pub fn config(&self, index: usize) -> Config {
        self.node(index).config()
    }

    /// Interner statistics of the node arena: arena sizes, hit rates and
    /// footprint. `None` for a verdict-only graph, which keeps no arena.
    pub fn interner_stats(&self) -> Option<InternerStats> {
        self.nodes.as_ref().map(|nodes| nodes.interner.stats())
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

    /// Approximate resident bytes of the frozen graph: the node arena
    /// (`stride` id words per node plus the interner's hash tables and
    /// unique states — the interner *is* the state storage, and its bytes
    /// drive the disk store's eviction too), the CSR arrays and the
    /// terminal list.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let nodes = self.nodes.as_ref().map_or(0, |nodes| {
            let s = nodes.interner.stats();
            nodes.words.len() * size_of::<u32>() + s.table_bytes + s.state_bytes
        });
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
        let n = self.len;
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
        let mut parent: Vec<Option<(usize, Pid)>> = vec![None; self.len];
        let mut seen = vec![false; self.len];
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
        csr_has_cycle(&self.row_ptr, &self.edge_arr)
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
        // File every distinct configuration of a real graph under a single
        // fingerprint (the worst possible hash) and verify both dedup
        // probes still resolve each to exactly itself — dedup relies on
        // the id-word compare, never the fingerprint alone.
        let g = StateGraph::explore(&race_spec(2), &ExploreOptions::default()).unwrap();
        let rec = Recorder::new();
        let init = g.config(0);
        let mut store = RowStore::new(&init, None);
        let mut rows = Vec::new();
        for i in 0..g.len() {
            let row = store.interner.intern_config(&g.config(i)).words().to_vec();
            store.push(&row, 0);
            rows.push(row);
        }
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(store.find_resident(0, row, &rec), Some(i));
            assert_eq!(store.find(0, row, &rec), Some(i));
        }
        // A row outside the store is never claimed found, even when the
        // bucket lists every node.
        let mut foreign = rows[0].clone();
        foreign[0] = u32::MAX;
        assert_eq!(store.find_resident(0, &foreign, &rec), None);
        assert_eq!(store.find(0, &foreign, &rec), None);
    }

    #[test]
    fn malformed_env_values_are_reported_not_parsed() {
        assert_eq!(
            parse_env("MC_STORE_BUDGET", " 4 ", parse_usize),
            Ok(Some(4))
        );
        assert_eq!(parse_env("MC_STORE_BUDGET", "", parse_usize), Ok(None));
        assert_eq!(parse_env("MC_STORE_BUDGET", "  ", parse_usize), Ok(None));
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
}
