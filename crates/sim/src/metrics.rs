//! Exploration telemetry: phase timers, counters, heartbeats, trace export.
//!
//! The model checker composes four optimizations (parallel BFS, symmetry
//! quotient, POR sleep sets, hash-consed stores) and without telemetry is a
//! black box while it runs. This module is the std-only observability layer
//! threaded through `explore_core` (and the valency / non-blocking passes):
//!
//! * a [`Recorder`] handle of relaxed atomic counters and opt-in phase
//!   timers, shared by reference between the merge thread and the level
//!   workers;
//! * an [`ExploreMetrics`] snapshot attached to every explored graph —
//!   per-phase wall time, generated/deduped/pruned counters, per-level
//!   frontier sizes and the truncation cause, with
//!   [`to_json`](ExploreMetrics::to_json) for machine consumers;
//! * a progress **heartbeat**: an optional callback (or the `MC_PROGRESS`
//!   env default, printing to stderr) fired every N expansions so long
//!   runs are not silent, carrying recent-rate and ETA estimates;
//! * a `MC_TRACE=<path>` JSONL span log, one record per BFS level;
//! * a `MC_STATUS_FILE=<path>` live status snapshot: one JSON object,
//!   atomically rewritten (write-temp-then-rename) on every heartbeat, so
//!   external pollers can watch a multi-hour run without its stderr;
//! * a `MC_RUN_LOG=<path>` **run ledger**: one [`RunRecord`] JSONL line
//!   appended at the end of every exploration — spec hash, options, env,
//!   git revision, wall times, outcome and the full metrics snapshot.
//!
//! # Zero-cost-when-off
//!
//! Telemetry must never change the explored graph, and the uninstrumented
//! path must stay as fast as before it existed. Two mechanisms:
//!
//! * **Counters are always on** but are single relaxed atomic adds on
//!   values the explorer computes anyway — the same instructions run
//!   whether anyone reads them or not, so "on" and "off" runs execute
//!   identical exploration logic and build node-for-node identical graphs.
//! * **Timers are opt-in**: every `time_*` method returns `None` (no
//!   `Instant::now()` call, no syscall) unless timing was requested via
//!   [`Recorder::with_timing`] or the `MC_PROGRESS`/`MC_TRACE` env vars.
//!
//! The recorder has no methods that *return* state to the explorer, so by
//! construction it cannot branch exploration decisions.

use std::collections::HashSet;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

use crate::json::json_escape;

/// Unified truthiness test for diagnostic environment variables
/// (`MC_PROGRESS`, `MC_TRACE` presence checks, `INTERNER_STATS`,
/// `BENCH_SMOKE`): set, non-empty, and not `"0"`.
pub fn env_flag(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| !v.is_empty() && v != "0")
}

/// Default heartbeat interval (expansions between progress reports) when
/// `MC_PROGRESS` is set without a numeric interval.
pub const DEFAULT_PROGRESS_EVERY: u64 = 100_000;

/// Emits `message` to stderr the first time `key` is seen in this process
/// and suppresses every later call with the same key. All one-shot
/// diagnostics (truncation hints, the `MC_STORE=disk` suggestion, sink
/// open failures) route through here so "at most once per process" is one
/// mechanism, not N scattered `Once` statics. Returns whether the message
/// was actually emitted — callers never branch on it, but tests assert the
/// at-most-once contract without capturing stderr.
pub fn warn_once(key: &str, message: &str) -> bool {
    static SEEN: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    let seen = SEEN.get_or_init(|| Mutex::new(HashSet::new()));
    let fresh = seen.lock().expect("warn_once lock").insert(key.to_string());
    if fresh {
        eprintln!("{message}");
    }
    fresh
}

/// Milliseconds since the Unix epoch (0 if the system clock is before
/// it). Wall-clock stamps for the run ledger and status file; exploration
/// logic itself only ever uses monotonic [`Instant`]s.
pub fn unix_time_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The working tree's short git revision, resolved once per process (the
/// first ledger append pays the subprocess; everything after reads the
/// cache). `"unknown"` outside a git checkout or without a `git` binary.
pub fn git_revision() -> &'static str {
    static REV: OnceLock<String> = OnceLock::new();
    REV.get_or_init(|| {
        std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

/// Snapshot of every `MC_*` environment variable currently set, as one
/// JSON object with sorted keys. Captured into each [`RunRecord`] so a
/// ledger line is interpretable without knowing what the shell looked
/// like: `MC_STORE`, `MC_STORE_BUDGET` and friends all shape
/// the run but live outside [`ExploreMetrics`].
pub fn mc_env_json() -> String {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MC_"))
        .collect();
    vars.sort();
    let members: Vec<String> = vars
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// One durable record of a finished exploration — the unit of the
/// `MC_RUN_LOG` ledger ([`Recorder::append_run_record`] writes one JSONL
/// line per run). The explorer builds it *after* the graph is complete,
/// so ledger-enabled and ledger-free runs explore identical graphs; the
/// spec hash is the cache key the ROADMAP's checking-as-a-service queue
/// will dedup verdict requests on.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Canonical content fingerprint of the explored system
    /// ([`SystemSpec::spec_fingerprint`](crate::SystemSpec::spec_fingerprint)).
    pub spec_hash: u64,
    /// Wall-clock start of the exploration, Unix milliseconds (passed in
    /// by the caller — the recorder only knows monotonic time).
    pub started_unix_ms: u64,
    /// Wall-clock end of the exploration, Unix milliseconds.
    pub ended_unix_ms: u64,
    /// Short git revision of the binary's working tree ([`git_revision`]).
    pub git_revision: String,
    /// The effective `ExploreOptions` as one JSON object (env-resolved
    /// store/budget included), pre-rendered by the caller.
    pub options_json: String,
    /// What the run produced, as one JSON object: graph facts
    /// (`{"kind": "graph", ...}`) or a streaming verdict
    /// (`{"kind": "verdict", ...}`).
    pub outcome_json: String,
    /// The complete [`ExploreMetrics::to_json`] payload (phases, levels,
    /// store, truncation).
    pub metrics_json: String,
}

impl RunRecord {
    /// The record as one JSON object (one ledger line, no trailing
    /// newline). The spec hash is a fixed-width hex *string*: JSON numbers
    /// are f64 and would corrupt 64-bit fingerprints.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"spec_hash\": \"{:016x}\", \"started_unix_ms\": {}, \
             \"ended_unix_ms\": {}, \"git_revision\": \"{}\", \
             \"env\": {}, \"options\": {}, \"outcome\": {}, \"metrics\": {}}}",
            self.spec_hash,
            self.started_unix_ms,
            self.ended_unix_ms,
            json_escape(&self.git_revision),
            mc_env_json(),
            self.options_json,
            self.outcome_json,
            self.metrics_json
        )
    }
}

/// Phase slots of the [`Recorder`]'s timer array. Kept private: the public
/// view is the named fields of [`ExploreMetrics`].
const SLOT_EXPAND: usize = 0;
const SLOT_CANON: usize = 1;
const SLOT_POR: usize = 2;
const SLOT_WORKER_DEDUP: usize = 3;
const SLOT_MERGE_INSERT: usize = 4;
const SLOT_MERGE_BLOCK: usize = 5;
const SLOT_FREEZE: usize = 6;
const SLOT_REVERSE_CSR: usize = 7;
const NSLOTS: usize = 8;

/// Why an exploration stopped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TruncationCause {
    /// The reachable graph was exhausted: every analysis is total.
    #[default]
    Complete,
    /// The exploration hit `max_configs` and dropped successors: every
    /// analysis on the graph is partial.
    MaxConfigs {
        /// The bound that was hit.
        cap: usize,
    },
    /// The in-memory store's resident estimate exceeded
    /// `store_budget_bytes` and the exploration stopped adding nodes.
    /// `MC_STORE=disk` lifts this bound by spilling cold state instead.
    MemoryBudget {
        /// The configured budget, in bytes.
        budget: usize,
    },
}

impl TruncationCause {
    /// `true` unless the exploration completed.
    pub fn is_truncated(&self) -> bool {
        !matches!(self, TruncationCause::Complete)
    }
}

/// Disk-store telemetry of one exploration (`None` in [`ExploreMetrics`]
/// unless the run used `MC_STORE=disk` /
/// `ExploreOptions::store_budget_bytes` with the disk backend). Counters
/// are always on; the `*_ns` fields follow the recorder's timing flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Bytes written to spill files (rows, arena segments, and every
    /// rewrite of the sorted fingerprint index).
    pub spilled_bytes: u64,
    /// Cold reads back into the hot tier (row faults + segment restores).
    pub reload_count: u64,
    /// Positional reads of the spilled fingerprint index (one per dedup
    /// probe whose fingerprint falls inside the spilled range).
    pub index_reads: u64,
    /// Row/segment accesses served from the hot tier.
    pub hot_hits: u64,
    /// Row/segment accesses that had to fault from disk.
    pub hot_misses: u64,
    /// Wall time writing spill files (timed runs only).
    pub spill_write_ns: u64,
    /// Wall time reading spill files back (timed runs only).
    pub spill_read_ns: u64,
}

impl StoreMetrics {
    /// Fraction of cold-capable accesses served without touching disk
    /// (1.0 when nothing was ever faulted).
    pub fn hot_hit_rate(&self) -> f64 {
        let total = self.hot_hits + self.hot_misses;
        if total == 0 {
            1.0
        } else {
            self.hot_hits as f64 / total as f64
        }
    }

    /// The spill stats as one flat JSON object (the `spill` field of the
    /// e9 disk rows).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"spilled_bytes\": {}, \"reload_count\": {}, \"index_reads\": {}, \
             \"hot_hits\": {}, \"hot_misses\": {}, \"hot_hit_rate\": {:.4}, \
             \"spill_write_ns\": {}, \"spill_read_ns\": {}}}",
            self.spilled_bytes,
            self.reload_count,
            self.index_reads,
            self.hot_hits,
            self.hot_misses,
            self.hot_hit_rate(),
            self.spill_write_ns,
            self.spill_read_ns
        )
    }
}

/// Per-BFS-level frontier metrics, one record per level (also the schema of
/// the `MC_TRACE` JSONL lines).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelMetrics {
    /// BFS depth of this level (0 = the root's expansion).
    pub level: u32,
    /// Work items expanded at this level (first visits plus POR wake-ups
    /// and proviso escalations).
    pub items: usize,
    /// Nodes first discovered by this level's merge.
    pub new_nodes: usize,
    /// Total nodes in the store after this level.
    pub nodes_total: usize,
    /// Total edges recorded after this level.
    pub edges_total: usize,
    /// Wall time of the level (expansion + merge), in nanoseconds.
    pub elapsed_ns: u64,
}

impl LevelMetrics {
    /// The level record as one flat JSON object (the `MC_TRACE` line
    /// schema and the members of [`ExploreMetrics::to_json`]'s `levels`).
    pub fn to_json(self) -> String {
        format!(
            "{{\"level\": {}, \"items\": {}, \"new_nodes\": {}, \"nodes\": {}, \
             \"edges\": {}, \"elapsed_ns\": {}}}",
            self.level,
            self.items,
            self.new_nodes,
            self.nodes_total,
            self.edges_total,
            self.elapsed_ns
        )
    }
}

/// One progress-heartbeat report (see [`Recorder::with_progress`]).
#[derive(Clone, Copy, Debug)]
pub struct ProgressReport {
    /// Current BFS depth.
    pub level: u32,
    /// Distinct configurations discovered so far.
    pub explored: usize,
    /// Work items queued for the next level.
    pub frontier: usize,
    /// Successor configurations generated so far (pre-dedup).
    pub generated: u64,
    /// Generated successors that deduplicated onto known nodes.
    pub dedup_hits: u64,
    /// Node expansions performed so far.
    pub expansions: u64,
    /// Wall time since the exploration started.
    pub elapsed: Duration,
    /// Discovery throughput: `explored / elapsed`.
    pub configs_per_sec: f64,
    /// Discovery throughput over the most recent heartbeat interval
    /// (falls back to the overall rate on the first beat). More honest
    /// than the lifetime average once the frontier shape changes.
    pub recent_configs_per_sec: f64,
    /// Configurations left under the `max_configs` bound.
    pub bound_remaining: usize,
    /// Heuristic estimate of the configurations still undiscovered, from
    /// the frontier's growth ratio between heartbeats: a frontier decaying
    /// by factor `r < 1` per beat extrapolates geometrically to
    /// `frontier * r / (1 - r)` more discoveries, capped at
    /// [`bound_remaining`](Self::bound_remaining). `None` while the
    /// frontier is still growing (no convergent estimate).
    pub est_remaining: Option<u64>,
    /// Heuristic seconds to completion: the remaining estimate (or, for a
    /// still-growing frontier, the distance to the `max_configs` bound —
    /// then an upper bound on the run) over the recent rate. `None` when
    /// the rate is unknown (first beat at zero elapsed time).
    pub eta_secs: Option<f64>,
    /// Bytes spilled to disk so far (0 unless the run uses the disk store).
    pub spilled_bytes: u64,
}

impl fmt::Display for ProgressReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "level {}: {} explored, {} frontier, {} generated ({} dedup), \
             {:.0} configs/sec, bound remaining {}",
            self.level,
            self.explored,
            self.frontier,
            self.generated,
            self.dedup_hits,
            self.configs_per_sec,
            self.bound_remaining
        )?;
        if self.recent_configs_per_sec > 0.0
            && (self.recent_configs_per_sec - self.configs_per_sec).abs() >= 0.5
        {
            write!(f, " ({:.0}/sec recent)", self.recent_configs_per_sec)?;
        }
        if let Some(eta) = self.eta_secs {
            match self.est_remaining {
                Some(rem) => write!(f, ", ~{rem} configs / ~{eta:.0}s left")?,
                None => write!(f, ", ≤{eta:.0}s to bound")?,
            }
        }
        if self.spilled_bytes > 0 {
            write!(f, ", {} B spilled", self.spilled_bytes)?;
        }
        Ok(())
    }
}

/// The metrics snapshot attached to every explored
/// [`StateGraph`](../subconsensus_modelcheck/struct.StateGraph.html).
///
/// Counter fields are always populated; the `*_ns` phase times are zero
/// unless the exploration ran with timing on (`timed`) — via
/// [`ExploreOptions::metrics`](../subconsensus_modelcheck/struct.ExploreOptions.html),
/// an explicit instrumented [`Recorder`], or the `MC_PROGRESS`/`MC_TRACE`
/// env vars.
#[derive(Clone, Debug, Default)]
pub struct ExploreMetrics {
    /// Wall time stepping successors (worker side).
    pub expand_ns: u64,
    /// Wall time canonicalizing successors under symmetry.
    pub canonicalize_ns: u64,
    /// Wall time computing footprints, ample sets and sleep filters.
    pub por_ns: u64,
    /// Wall time fingerprinting and deduplicating (worker lookups plus
    /// merge-side intern/find-or-insert).
    pub dedup_ns: u64,
    /// Wall time in the sequential merge outside of insertion (edge
    /// bookkeeping, revisits, proviso escalation).
    pub merge_ns: u64,
    /// Wall time freezing the edge buffer into CSR form.
    pub freeze_ns: u64,
    /// Wall time building the reverse CSR (valency / non-blocking passes;
    /// zero unless one ran with this graph's recorder).
    pub reverse_csr_ns: u64,
    /// Times the CSR freeze ran. Distinguishes "skipped under a verdict
    /// goal" (0 calls) from "ran but too fast to time" (calls > 0, 0 ns)
    /// on small fixtures. Counted only when the timers are on.
    pub freeze_calls: u64,
    /// Times the reverse-CSR build ran (same skipped-vs-fast distinction
    /// as [`freeze_calls`](Self::freeze_calls)).
    pub reverse_csr_calls: u64,
    /// Wall time of the whole exploration.
    pub total_ns: u64,
    /// Whether phase timers were on (`false` ⇒ every `*_ns` field above,
    /// `total_ns` included, is 0).
    pub timed: bool,
    /// Distinct configurations in the final graph.
    pub configs: usize,
    /// Edges in the final graph.
    pub edges: usize,
    /// Successor configurations generated (pre-dedup).
    pub generated: u64,
    /// Generated successors deduplicated onto already-known nodes.
    pub dedup_hits: u64,
    /// Generated successors inserted as new nodes.
    pub added: u64,
    /// Generated successors dropped at the `max_configs` bound.
    pub capped: u64,
    /// Successors whose canonicalization applied a nontrivial pid
    /// permutation (symmetry-quotient hits).
    pub symmetry_hits: u64,
    /// Ample-set candidates suppressed by sleep sets (POR edge pruning).
    pub sleep_pruned: u64,
    /// Node expansions (work items) performed.
    pub expansions: u64,
    /// One record per BFS level.
    pub levels: Vec<LevelMetrics>,
    /// Peak resident-byte estimate of the exploration: the high-water mark
    /// of the store's per-level estimate (rows + arenas + fingerprint
    /// index), floored at the frozen graph's footprint.
    pub peak_bytes: usize,
    /// Disk-store spill telemetry (`None` for in-memory runs).
    pub store: Option<StoreMetrics>,
    /// Why the exploration stopped.
    pub truncation: TruncationCause,
}

impl ExploreMetrics {
    /// Sum of the per-phase times (excluding `total_ns`).
    pub fn phase_sum(&self) -> u64 {
        self.expand_ns
            + self.canonicalize_ns
            + self.por_ns
            + self.dedup_ns
            + self.merge_ns
            + self.freeze_ns
            + self.reverse_csr_ns
    }

    /// Wall time not attributed to any phase (scheduling, level
    /// bookkeeping, thread spawn); `total_ns - phase_sum()`, saturating.
    pub fn other_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.phase_sum())
    }

    /// The phase breakdown alone as one JSON object (the `phases` field of
    /// the e9 bench rows). Components plus `other_ns` sum to `total_ns`.
    pub fn phases_json(&self) -> String {
        format!(
            "{{\"expand_ns\": {}, \"canonicalize_ns\": {}, \"por_ns\": {}, \
             \"dedup_ns\": {}, \"merge_ns\": {}, \"freeze_ns\": {}, \
             \"freeze_calls\": {}, \"reverse_csr_ns\": {}, \
             \"reverse_csr_calls\": {}, \"other_ns\": {}, \"total_ns\": {}}}",
            self.expand_ns,
            self.canonicalize_ns,
            self.por_ns,
            self.dedup_ns,
            self.merge_ns,
            self.freeze_ns,
            self.freeze_calls,
            self.reverse_csr_ns,
            self.reverse_csr_calls,
            self.other_ns(),
            self.total_ns
        )
    }

    /// The whole snapshot as one JSON object (no external deps — hand
    /// formatted like the bench writer).
    pub fn to_json(&self) -> String {
        let truncation = match self.truncation {
            TruncationCause::Complete => "null".to_string(),
            TruncationCause::MaxConfigs { cap } => {
                format!("{{\"cause\": \"max_configs\", \"cap\": {cap}}}")
            }
            TruncationCause::MemoryBudget { budget } => {
                format!("{{\"cause\": \"memory_budget\", \"budget\": {budget}}}")
            }
        };
        let store = match &self.store {
            None => "null".to_string(),
            Some(s) => s.to_json(),
        };
        let levels: Vec<String> = self.levels.iter().map(|l| l.to_json()).collect();
        format!(
            "{{\"configs\": {}, \"edges\": {}, \"generated\": {}, \
             \"dedup_hits\": {}, \"added\": {}, \"capped\": {}, \
             \"symmetry_hits\": {}, \"sleep_pruned\": {}, \"expansions\": {}, \
             \"peak_bytes\": {}, \"truncation\": {truncation}, \
             \"store\": {store}, \
             \"timed\": {}, \"phases\": {}, \"levels\": [{}]}}",
            self.configs,
            self.edges,
            self.generated,
            self.dedup_hits,
            self.added,
            self.capped,
            self.symmetry_hits,
            self.sleep_pruned,
            self.expansions,
            self.peak_bytes,
            self.timed,
            self.phases_json(),
            levels.join(", ")
        )
    }
}

impl fmt::Display for ExploreMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} configs, {} edges in {} levels ({} expansions){}",
            self.configs,
            self.edges,
            self.levels.len(),
            self.expansions,
            match self.truncation {
                TruncationCause::Complete => String::new(),
                TruncationCause::MaxConfigs { cap } => format!(" [TRUNCATED at {cap}]"),
                TruncationCause::MemoryBudget { budget } => {
                    format!(" [TRUNCATED by {budget} B memory budget]")
                }
            }
        )?;
        writeln!(
            f,
            "generated {} ({} dedup hits, {} added, {} capped); \
             {} symmetry hits, {} sleep-pruned",
            self.generated,
            self.dedup_hits,
            self.added,
            self.capped,
            self.symmetry_hits,
            self.sleep_pruned
        )?;
        if self.timed {
            let ms = |ns: u64| ns as f64 / 1e6;
            writeln!(
                f,
                "phases: expand {:.2}ms, canonicalize {:.2}ms, por {:.2}ms, \
                 dedup {:.2}ms, merge {:.2}ms, freeze {:.2}ms, reverse-csr {:.2}ms, \
                 other {:.2}ms (total {:.2}ms)",
                ms(self.expand_ns),
                ms(self.canonicalize_ns),
                ms(self.por_ns),
                ms(self.dedup_ns),
                ms(self.merge_ns),
                ms(self.freeze_ns),
                ms(self.reverse_csr_ns),
                ms(self.other_ns()),
                ms(self.total_ns)
            )?;
        } else {
            writeln!(
                f,
                "phases: untimed (enable ExploreOptions::metrics or MC_PROGRESS)"
            )?;
        }
        write!(f, "peak memory ≈ {} bytes", self.peak_bytes)?;
        if let Some(s) = &self.store {
            write!(
                f,
                "\nspill: {} B out, {} reloads, {} index reads, hot hit rate {:.2}",
                s.spilled_bytes,
                s.reload_count,
                s.index_reads,
                s.hot_hit_rate()
            )?;
        }
        Ok(())
    }
}

/// A running phase timer: accumulates its elapsed nanoseconds into the
/// recorder's slot on drop. Obtained from the `Recorder::time_*` methods
/// (`None` when timing is off — no clock is read).
#[must_use]
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    slot: &'a AtomicU64,
    t0: Instant,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.slot
            .fetch_add(self.t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// The heartbeat callback type (see [`Recorder::with_progress`]).
type ProgressCallback = Box<dyn Fn(&ProgressReport) + Send + Sync>;

/// The shared heartbeat machinery: one expansion-count gate drives every
/// per-interval consumer (the progress callback and the status file), so
/// they observe the same [`ProgressReport`]s and the same rate state.
struct Heartbeat {
    every: u64,
    /// Expansion count at the last fired heartbeat.
    last: AtomicU64,
    /// Explored count at the last heartbeat (recent-rate numerator).
    last_explored: AtomicU64,
    /// Frontier size at the last heartbeat (growth-ratio estimate).
    last_frontier: AtomicU64,
    /// Elapsed nanos at the last heartbeat (recent-rate denominator).
    last_elapsed_ns: AtomicU64,
    callback: Option<ProgressCallback>,
    status: Option<StatusSink>,
}

impl Heartbeat {
    fn new() -> Self {
        Heartbeat {
            every: DEFAULT_PROGRESS_EVERY,
            last: AtomicU64::new(0),
            last_explored: AtomicU64::new(0),
            last_frontier: AtomicU64::new(0),
            last_elapsed_ns: AtomicU64::new(0),
            callback: None,
            status: None,
        }
    }
}

/// The `MC_STATUS_FILE` sink: one JSON object, atomically rewritten per
/// heartbeat (write a sibling temp file, then rename over the target, so
/// a poller never reads a torn write).
struct StatusSink {
    path: PathBuf,
    started_unix_ms: u64,
}

impl StatusSink {
    fn write(&self, report: &ProgressReport, state: &str) {
        let json = status_json(report, state, self.started_unix_ms);
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        let res = std::fs::write(&tmp, json).and_then(|()| std::fs::rename(&tmp, &self.path));
        if let Err(e) = res {
            warn_once(
                "status_file",
                &format!(
                    "modelcheck: WARNING: MC_STATUS_FILE: cannot write {}: {e} \
                     (status updates disabled messages suppressed for this process)",
                    self.path.display()
                ),
            );
        }
    }
}

/// The status-file schema: the full [`ProgressReport`] plus run identity
/// (`state` is `"running"` per heartbeat, `"done"` once at the end).
fn status_json(r: &ProgressReport, state: &str, started_unix_ms: u64) -> String {
    let opt_u64 = |v: Option<u64>| v.map_or("null".to_string(), |n| n.to_string());
    let opt_f64 = |v: Option<f64>| v.map_or("null".to_string(), crate::json::json_f64);
    format!(
        "{{\"state\": \"{}\", \"pid\": {}, \"started_unix_ms\": {}, \
         \"updated_unix_ms\": {}, \"level\": {}, \"explored\": {}, \
         \"frontier\": {}, \"generated\": {}, \"dedup_hits\": {}, \
         \"expansions\": {}, \"elapsed_ns\": {}, \"configs_per_sec\": {}, \
         \"recent_configs_per_sec\": {}, \"bound_remaining\": {}, \
         \"est_remaining\": {}, \"eta_secs\": {}, \"spilled_bytes\": {}}}",
        json_escape(state),
        std::process::id(),
        started_unix_ms,
        unix_time_ms(),
        r.level,
        r.explored,
        r.frontier,
        r.generated,
        r.dedup_hits,
        r.expansions,
        r.elapsed.as_nanos() as u64,
        crate::json::json_f64(r.configs_per_sec),
        crate::json::json_f64(r.recent_configs_per_sec),
        r.bound_remaining,
        opt_u64(r.est_remaining),
        opt_f64(r.eta_secs),
        r.spilled_bytes
    )
}

/// Telemetry configuration resolved from the environment, once per process
/// (env vars are process-level configuration; per-explore toggling uses the
/// explicit [`Recorder`] builders instead).
struct EnvTelemetry {
    timing: bool,
    progress_every: Option<u64>,
    trace_path: Option<PathBuf>,
    status_path: Option<PathBuf>,
    run_log_path: Option<PathBuf>,
}

fn env_telemetry() -> &'static EnvTelemetry {
    static ENV: OnceLock<EnvTelemetry> = OnceLock::new();
    ENV.get_or_init(|| {
        let progress_every = if env_flag("MC_PROGRESS") {
            // A numeric value > 1 is the heartbeat interval; any other
            // truthy value means "on, default interval".
            let every = std::env::var("MC_PROGRESS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&n| n > 1)
                .unwrap_or(DEFAULT_PROGRESS_EVERY);
            Some(every)
        } else {
            None
        };
        let env_path = |name: &str| {
            std::env::var_os(name)
                .filter(|v| !v.is_empty() && v != "0")
                .map(PathBuf::from)
        };
        let trace_path = env_path("MC_TRACE");
        let status_path = env_path("MC_STATUS_FILE");
        // The ledger path: MC_RUN_LOG wins; with only MC_STORE_DIR set the
        // ledger lands next to the spill directories as `runs.jsonl`.
        let run_log_path = env_path("MC_RUN_LOG")
            .or_else(|| env_path("MC_STORE_DIR").map(|d| d.join("runs.jsonl")));
        EnvTelemetry {
            timing: progress_every.is_some()
                || trace_path.is_some()
                || status_path.is_some()
                || run_log_path.is_some(),
            progress_every,
            trace_path,
            status_path,
            run_log_path,
        }
    })
}

/// The telemetry sink one exploration writes into.
///
/// Counters are relaxed atomics and always recorded; phase timers only run
/// when constructed with timing on (otherwise `time_*` returns `None` and
/// no clock is read). The recorder exposes nothing the explorer reads back,
/// so instrumented and uninstrumented runs build identical graphs.
pub struct Recorder {
    timing: bool,
    slots: [AtomicU64; NSLOTS],
    /// Guard constructions per slot (how many times each phase *ran*),
    /// counted only while timing — the zero-overhead-when-off contract.
    slot_calls: [AtomicU64; NSLOTS],
    generated: AtomicU64,
    dedup_hits: AtomicU64,
    added: AtomicU64,
    capped: AtomicU64,
    symmetry_hits: AtomicU64,
    sleep_pruned: AtomicU64,
    expansions: AtomicU64,
    /// `u64::MAX` = complete; anything else is the `max_configs` cap hit.
    truncation_cap: AtomicU64,
    /// `u64::MAX` = no budget truncation; anything else is the byte budget
    /// whose estimate was exceeded (takes precedence over `truncation_cap`
    /// in the snapshot — the budget is what actually stopped growth).
    budget_limit: AtomicU64,
    /// High-water mark of the store's per-level resident estimate.
    peak_bytes: AtomicU64,
    /// Disk-store counters (surfaced in the snapshot only once
    /// [`mark_store_active`](Self::mark_store_active) ran).
    store_active: AtomicU64,
    spilled_bytes: AtomicU64,
    store_reloads: AtomicU64,
    store_index_reads: AtomicU64,
    store_hot_hits: AtomicU64,
    store_hot_misses: AtomicU64,
    spill_write_ns: AtomicU64,
    spill_read_ns: AtomicU64,
    levels: Mutex<Vec<LevelMetrics>>,
    heartbeat: Option<Heartbeat>,
    trace: Option<Mutex<BufWriter<File>>>,
    /// Ledger path: one [`RunRecord`] JSONL line appended per exploration
    /// (the explorer calls [`append_run_record`](Self::append_run_record)
    /// after the graph is built, never during it).
    run_log: Option<PathBuf>,
    start: Instant,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("timing", &self.timing)
            .field("progress", &self.heartbeat.as_ref().map(|p| p.every))
            .field(
                "status",
                &self.heartbeat.as_ref().is_some_and(|h| h.status.is_some()),
            )
            .field("trace", &self.trace.is_some())
            .field("run_log", &self.run_log)
            .finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A counters-only recorder: phase timers off, no heartbeat, no trace.
    /// This is the default sink of an un-instrumented exploration.
    pub fn new() -> Self {
        Recorder {
            timing: false,
            slots: Default::default(),
            slot_calls: Default::default(),
            generated: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            added: AtomicU64::new(0),
            capped: AtomicU64::new(0),
            symmetry_hits: AtomicU64::new(0),
            sleep_pruned: AtomicU64::new(0),
            expansions: AtomicU64::new(0),
            truncation_cap: AtomicU64::new(u64::MAX),
            budget_limit: AtomicU64::new(u64::MAX),
            peak_bytes: AtomicU64::new(0),
            store_active: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
            store_reloads: AtomicU64::new(0),
            store_index_reads: AtomicU64::new(0),
            store_hot_hits: AtomicU64::new(0),
            store_hot_misses: AtomicU64::new(0),
            spill_write_ns: AtomicU64::new(0),
            spill_read_ns: AtomicU64::new(0),
            levels: Mutex::new(Vec::new()),
            heartbeat: None,
            trace: None,
            run_log: None,
            start: Instant::now(),
        }
    }

    /// A recorder honoring the `MC_PROGRESS` / `MC_TRACE` /
    /// `MC_STATUS_FILE` / `MC_RUN_LOG` environment (read once per
    /// process): heartbeat to stderr, JSONL trace to the given path
    /// (truncated per exploration), atomically-rewritten status snapshot,
    /// and the run ledger (`MC_RUN_LOG`, or `runs.jsonl` under
    /// `MC_STORE_DIR` when only that is set). `timing` additionally forces
    /// the phase timers on (e.g. from
    /// [`ExploreOptions::metrics`](../subconsensus_modelcheck/struct.ExploreOptions.html)).
    pub fn from_env(timing: bool) -> Self {
        let env = env_telemetry();
        let mut rec = Recorder::new();
        rec.timing = timing || env.timing;
        if let Some(every) = env.progress_every {
            rec = rec.with_stderr_progress(every);
        }
        if let Some(path) = &env.trace_path {
            // A bad trace path degrades to a warning, not a failed explore.
            match File::create(path) {
                Ok(f) => rec.trace = Some(Mutex::new(BufWriter::new(f))),
                Err(e) => {
                    warn_once(
                        "trace_open",
                        &format!(
                            "modelcheck: WARNING: MC_TRACE: cannot open {}: {e} \
                             (trace disabled; further open failures suppressed \
                             for this process)",
                            path.display()
                        ),
                    );
                }
            }
        }
        if let Some(path) = &env.status_path {
            rec = rec.with_status_file(path);
        }
        if let Some(path) = &env.run_log_path {
            rec = rec.with_run_log(path);
        }
        rec
    }

    /// Turns the phase timers on.
    pub fn with_timing(mut self) -> Self {
        self.timing = true;
        self
    }

    /// Installs a heartbeat callback fired every `every` node expansions
    /// (checked at level boundaries and inside the merge loops, so even a
    /// single huge level reports every interval). Implies timing.
    pub fn with_progress<F>(mut self, every: u64, callback: F) -> Self
    where
        F: Fn(&ProgressReport) + Send + Sync + 'static,
    {
        self.timing = true;
        let hb = self.heartbeat.get_or_insert_with(Heartbeat::new);
        hb.every = every.max(1);
        hb.callback = Some(Box::new(callback));
        self
    }

    /// Installs the default stderr heartbeat (`MC_PROGRESS`'s sink).
    pub fn with_stderr_progress(self, every: u64) -> Self {
        self.with_progress(every, |r| eprintln!("modelcheck: {r}"))
    }

    /// Installs the `MC_STATUS_FILE` sink: on every heartbeat interval the
    /// full [`ProgressReport`] is rewritten to `path` as one JSON object,
    /// via a sibling temp file and an atomic rename (a poller never sees a
    /// torn write). Shares the interval gate with
    /// [`with_progress`](Self::with_progress) (default
    /// [`DEFAULT_PROGRESS_EVERY`] when no progress callback set one).
    /// Implies timing. Write failures degrade to a one-shot warning.
    pub fn with_status_file<P: AsRef<Path>>(mut self, path: P) -> Self {
        self.timing = true;
        let hb = self.heartbeat.get_or_insert_with(Heartbeat::new);
        hb.status = Some(StatusSink {
            path: path.as_ref().to_path_buf(),
            started_unix_ms: unix_time_ms(),
        });
        self
    }

    /// Installs the run-ledger path: the explorer appends one
    /// [`RunRecord`] JSONL line per finished exploration (see
    /// [`append_run_record`](Self::append_run_record)). Append-only and
    /// written only after the graph is complete, so the explored graph is
    /// identical with or without a ledger. Does not imply timing by
    /// itself ([`from_env`](Self::from_env) turns timing on for
    /// `MC_RUN_LOG` so ledger lines carry phase times).
    pub fn with_run_log<P: AsRef<Path>>(mut self, path: P) -> Self {
        self.run_log = Some(path.as_ref().to_path_buf());
        self
    }

    /// The installed run-ledger path, if any (the explorer checks this to
    /// skip building a [`RunRecord`] entirely on ledger-free runs).
    pub fn run_log(&self) -> Option<&Path> {
        self.run_log.as_deref()
    }

    /// Appends one ledger line to the run log (no-op without
    /// [`with_run_log`](Self::with_run_log)). The file is opened in
    /// append mode per record: concurrent processes interleave whole
    /// lines, never partial ones, for line-sized writes on POSIX
    /// filesystems. Failures degrade to a one-shot warning — a broken
    /// ledger never fails an exploration.
    pub fn append_run_record(&self, record: &RunRecord) {
        let Some(path) = &self.run_log else { return };
        let res = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", record.to_json()));
        if let Err(e) = res {
            warn_once(
                "run_log",
                &format!(
                    "modelcheck: WARNING: MC_RUN_LOG: cannot append to {}: {e} \
                     (run ledger disabled; further append failures suppressed \
                     for this process)",
                    path.display()
                ),
            );
        }
    }

    /// Streams one JSONL record per BFS level to `path` (truncating any
    /// previous file). Implies timing.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn with_trace<P: AsRef<Path>>(mut self, path: P) -> std::io::Result<Self> {
        self.timing = true;
        self.trace = Some(Mutex::new(BufWriter::new(File::create(path)?)));
        Ok(self)
    }

    /// Whether the phase timers are on.
    pub fn is_timing(&self) -> bool {
        self.timing
    }

    fn guard(&self, slot: usize) -> Option<PhaseGuard<'_>> {
        if self.timing {
            self.slot_calls[slot].fetch_add(1, Ordering::Relaxed);
            Some(PhaseGuard {
                slot: &self.slots[slot],
                t0: Instant::now(),
            })
        } else {
            None
        }
    }

    /// Times successor stepping (worker side).
    pub fn time_expand(&self) -> Option<PhaseGuard<'_>> {
        self.guard(SLOT_EXPAND)
    }

    /// Times canonicalization under symmetry.
    pub fn time_canonicalize(&self) -> Option<PhaseGuard<'_>> {
        self.guard(SLOT_CANON)
    }

    /// Times POR footprint / ample-set / sleep-filter work.
    pub fn time_por(&self) -> Option<PhaseGuard<'_>> {
        self.guard(SLOT_POR)
    }

    /// Times fingerprinting and worker-side dedup lookups.
    pub fn time_dedup(&self) -> Option<PhaseGuard<'_>> {
        self.guard(SLOT_WORKER_DEDUP)
    }

    /// Times merge-side intern + find-or-insert.
    pub fn time_intern(&self) -> Option<PhaseGuard<'_>> {
        self.guard(SLOT_MERGE_INSERT)
    }

    /// Times the whole sequential merge block (insertion time is measured
    /// separately by [`time_intern`](Self::time_intern) and subtracted in
    /// the snapshot).
    pub fn time_merge(&self) -> Option<PhaseGuard<'_>> {
        self.guard(SLOT_MERGE_BLOCK)
    }

    /// Times the CSR freeze.
    pub fn time_freeze(&self) -> Option<PhaseGuard<'_>> {
        self.guard(SLOT_FREEZE)
    }

    /// Times the reverse-CSR build (valency / non-blocking passes).
    pub fn time_reverse_csr(&self) -> Option<PhaseGuard<'_>> {
        self.guard(SLOT_REVERSE_CSR)
    }

    /// Counts successor configurations generated (pre-dedup).
    pub fn count_generated(&self, n: u64) {
        self.generated.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts successors that deduplicated onto known nodes.
    pub fn count_dedup_hits(&self, n: u64) {
        self.dedup_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts successors inserted as new nodes.
    pub fn count_added(&self, n: u64) {
        self.added.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts successors dropped at the configuration bound.
    pub fn count_capped(&self, n: u64) {
        self.capped.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts successors whose canonicalization applied a nontrivial pid
    /// permutation.
    pub fn count_symmetry_hits(&self, n: u64) {
        self.symmetry_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts ample candidates suppressed by sleep sets.
    pub fn count_sleep_pruned(&self, n: u64) {
        self.sleep_pruned.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts node expansions (work items).
    pub fn count_expansions(&self, n: u64) {
        self.expansions.fetch_add(n, Ordering::Relaxed);
    }

    /// Records that the exploration hit the `cap` configuration bound.
    pub fn set_truncated(&self, cap: usize) {
        self.truncation_cap.store(cap as u64, Ordering::Relaxed);
    }

    /// Records that the exploration stopped because the in-memory store's
    /// resident estimate exceeded `budget` bytes. Wins over
    /// [`set_truncated`](Self::set_truncated) in the snapshot.
    pub fn set_budget_truncated(&self, budget: usize) {
        self.budget_limit.store(budget as u64, Ordering::Relaxed);
    }

    /// Raises the resident-byte high-water mark (stores report their
    /// per-level estimate here; the explorer floors the final value at the
    /// frozen graph's footprint).
    pub fn record_peak_bytes(&self, bytes: usize) {
        self.peak_bytes.fetch_max(bytes as u64, Ordering::Relaxed);
    }

    /// Marks this run as disk-store backed so the snapshot carries a
    /// [`StoreMetrics`] object (even if nothing spilled under the budget).
    pub fn mark_store_active(&self) {
        self.store_active.store(1, Ordering::Relaxed);
    }

    /// Counts bytes written to spill files.
    pub fn count_spilled_bytes(&self, n: u64) {
        self.spilled_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts cold reads back into the hot tier (row faults + segment
    /// restores).
    pub fn count_store_reloads(&self, n: u64) {
        self.store_reloads.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts positional reads of the spilled fingerprint index.
    pub fn count_index_reads(&self, n: u64) {
        self.store_index_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts cold-capable accesses served from the hot tier.
    pub fn count_store_hot_hits(&self, n: u64) {
        self.store_hot_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts cold-capable accesses that had to fault from disk.
    pub fn count_store_hot_misses(&self, n: u64) {
        self.store_hot_misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Accumulates spill-write wall time (callers only measure while
    /// [`is_timing`](Self::is_timing), keeping the off path clock-free).
    pub fn add_spill_write_ns(&self, ns: u64) {
        self.spill_write_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Accumulates spill-read wall time (same timing contract as
    /// [`add_spill_write_ns`](Self::add_spill_write_ns)).
    pub fn add_spill_read_ns(&self, ns: u64) {
        self.spill_read_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one finished BFS level (always on — once per level) and
    /// streams its trace record if a trace sink is installed.
    pub fn record_level(
        &self,
        items: usize,
        new_nodes: usize,
        nodes_total: usize,
        edges_total: usize,
        elapsed: Duration,
    ) {
        let mut levels = self.levels.lock().expect("levels lock");
        let rec = LevelMetrics {
            level: levels.len() as u32,
            items,
            new_nodes,
            nodes_total,
            edges_total,
            elapsed_ns: elapsed.as_nanos() as u64,
        };
        levels.push(rec);
        drop(levels);
        if let Some(trace) = &self.trace {
            let mut w = trace.lock().expect("trace lock");
            // Flush per line so a killed run still leaves parseable spans.
            let _ = writeln!(w, "{}", rec.to_json());
            let _ = w.flush();
        }
    }

    /// Fires the heartbeat if at least `every` expansions have elapsed
    /// since the last one. Called at level boundaries *and* from inside the
    /// per-item merge loops, so a single long level still reports every
    /// interval; mid-level calls pass the current level's size as
    /// `frontier`. The claim on `last` is a compare-exchange: concurrent
    /// ticks from parallel expansion workers race to one winner per
    /// interval instead of multiplying reports.
    pub fn heartbeat(&self, level: u32, explored: usize, frontier: usize, bound_remaining: usize) {
        let Some(hb) = &self.heartbeat else { return };
        let expansions = self.expansions.load(Ordering::Relaxed);
        let last = hb.last.load(Ordering::Relaxed);
        if expansions < last.saturating_add(hb.every) {
            return;
        }
        if hb
            .last
            .compare_exchange(last, expansions, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return; // another worker claimed this interval
        }
        let report = self.build_report(hb, level, explored, frontier, bound_remaining, expansions);
        if let Some(callback) = &hb.callback {
            callback(&report);
        }
        if let Some(status) = &hb.status {
            status.write(&report, "running");
        }
    }

    /// Assembles one [`ProgressReport`], advancing the heartbeat's rate
    /// state (previous explored / frontier / elapsed) in the process. The
    /// recent rate and the geometric frontier-decay estimate are
    /// *heuristics* for human pacing — nothing in the explorer reads them
    /// back.
    fn build_report(
        &self,
        hb: &Heartbeat,
        level: u32,
        explored: usize,
        frontier: usize,
        bound_remaining: usize,
        expansions: u64,
    ) -> ProgressReport {
        let elapsed = self.start.elapsed();
        let secs = elapsed.as_secs_f64();
        let now_ns = elapsed.as_nanos() as u64;
        let prev_explored = hb.last_explored.swap(explored as u64, Ordering::Relaxed);
        let prev_frontier = hb.last_frontier.swap(frontier as u64, Ordering::Relaxed);
        let prev_ns = hb.last_elapsed_ns.swap(now_ns, Ordering::Relaxed);
        let overall = if secs > 0.0 {
            explored as f64 / secs
        } else {
            0.0
        };
        let recent = if now_ns > prev_ns && explored as u64 > prev_explored {
            (explored as u64 - prev_explored) as f64 / ((now_ns - prev_ns) as f64 / 1e9)
        } else {
            overall
        };
        // A frontier decaying by ratio r per beat extrapolates to
        // frontier * (r + r² + …) = frontier * r / (1 - r) further
        // discoveries; a growing frontier has no convergent estimate and
        // the max_configs bound is the only cap.
        let est_remaining = if frontier > 0 && (frontier as u64) < prev_frontier {
            let r = frontier as f64 / prev_frontier as f64;
            let geo = frontier as f64 * r / (1.0 - r);
            Some(geo.min(bound_remaining as f64).round() as u64)
        } else {
            None
        };
        let eta_secs = if recent > 0.0 {
            Some(est_remaining.map_or(bound_remaining as f64, |r| r as f64) / recent)
        } else {
            None
        };
        ProgressReport {
            level,
            explored,
            frontier,
            generated: self.generated.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            expansions,
            elapsed,
            configs_per_sec: overall,
            recent_configs_per_sec: recent,
            bound_remaining,
            est_remaining,
            eta_secs,
            spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
        }
    }

    /// Writes the terminal `"done"` snapshot to the status file (no-op
    /// without a [`with_status_file`](Self::with_status_file) sink). The
    /// explorer calls this once per exploration after the graph is
    /// complete, so a poller always observes a final state even when the
    /// run ended between heartbeat intervals.
    pub fn finalize_status(&self, explored: usize) {
        let Some(hb) = &self.heartbeat else { return };
        let Some(status) = &hb.status else { return };
        let elapsed = self.start.elapsed();
        let secs = elapsed.as_secs_f64();
        let report = ProgressReport {
            level: self.levels.lock().expect("levels lock").len() as u32,
            explored,
            frontier: 0,
            generated: self.generated.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            expansions: self.expansions.load(Ordering::Relaxed),
            elapsed,
            configs_per_sec: if secs > 0.0 {
                explored as f64 / secs
            } else {
                0.0
            },
            recent_configs_per_sec: 0.0,
            bound_remaining: 0,
            est_remaining: Some(0),
            eta_secs: Some(0.0),
            spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
        };
        status.write(&report, "done");
    }

    /// Snapshots the recorder into an [`ExploreMetrics`]. The graph-shape
    /// fields (`configs`, `edges`, `peak_bytes`) are zero here; the
    /// explorer overwrites them from the frozen graph.
    pub fn snapshot(&self) -> ExploreMetrics {
        let slot = |i: usize| self.slots[i].load(Ordering::Relaxed);
        let worker_dedup = slot(SLOT_WORKER_DEDUP);
        let merge_insert = slot(SLOT_MERGE_INSERT);
        let cap = self.truncation_cap.load(Ordering::Relaxed);
        let budget = self.budget_limit.load(Ordering::Relaxed);
        let store = if self.store_active.load(Ordering::Relaxed) != 0 {
            Some(StoreMetrics {
                spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
                reload_count: self.store_reloads.load(Ordering::Relaxed),
                index_reads: self.store_index_reads.load(Ordering::Relaxed),
                hot_hits: self.store_hot_hits.load(Ordering::Relaxed),
                hot_misses: self.store_hot_misses.load(Ordering::Relaxed),
                spill_write_ns: self.spill_write_ns.load(Ordering::Relaxed),
                spill_read_ns: self.spill_read_ns.load(Ordering::Relaxed),
            })
        } else {
            None
        };
        ExploreMetrics {
            expand_ns: slot(SLOT_EXPAND),
            canonicalize_ns: slot(SLOT_CANON),
            por_ns: slot(SLOT_POR),
            dedup_ns: worker_dedup + merge_insert,
            merge_ns: slot(SLOT_MERGE_BLOCK).saturating_sub(merge_insert),
            freeze_ns: slot(SLOT_FREEZE),
            reverse_csr_ns: slot(SLOT_REVERSE_CSR),
            freeze_calls: self.slot_calls[SLOT_FREEZE].load(Ordering::Relaxed),
            reverse_csr_calls: self.slot_calls[SLOT_REVERSE_CSR].load(Ordering::Relaxed),
            total_ns: if self.timing {
                self.start.elapsed().as_nanos() as u64
            } else {
                0
            },
            timed: self.timing,
            configs: 0,
            edges: 0,
            generated: self.generated.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            added: self.added.load(Ordering::Relaxed),
            capped: self.capped.load(Ordering::Relaxed),
            symmetry_hits: self.symmetry_hits.load(Ordering::Relaxed),
            sleep_pruned: self.sleep_pruned.load(Ordering::Relaxed),
            expansions: self.expansions.load(Ordering::Relaxed),
            levels: self.levels.lock().expect("levels lock").clone(),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed) as usize,
            store,
            truncation: if budget != u64::MAX {
                TruncationCause::MemoryBudget {
                    budget: budget as usize,
                }
            } else if cap == u64::MAX {
                TruncationCause::Complete
            } else {
                TruncationCause::MaxConfigs { cap: cap as usize }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_flag_semantics() {
        // Unique var names: tests in one binary share the process env.
        std::env::remove_var("SUBC_METRICS_T0");
        assert!(!env_flag("SUBC_METRICS_T0"));
        std::env::set_var("SUBC_METRICS_T1", "");
        assert!(!env_flag("SUBC_METRICS_T1"));
        std::env::set_var("SUBC_METRICS_T2", "0");
        assert!(!env_flag("SUBC_METRICS_T2"));
        std::env::set_var("SUBC_METRICS_T3", "1");
        assert!(env_flag("SUBC_METRICS_T3"));
        std::env::set_var("SUBC_METRICS_T4", "yes");
        assert!(env_flag("SUBC_METRICS_T4"));
    }

    #[test]
    fn untimed_recorder_reads_no_clock_slots() {
        let rec = Recorder::new();
        assert!(rec.time_expand().is_none());
        assert!(rec.time_merge().is_none());
        rec.count_generated(3);
        rec.count_dedup_hits(1);
        rec.count_added(2);
        let m = rec.snapshot();
        assert!(!m.timed);
        assert_eq!(m.generated, 3);
        assert_eq!(m.dedup_hits + m.added, 3);
        assert_eq!(m.phase_sum(), 0);
        assert_eq!(m.total_ns, 0);
    }

    #[test]
    fn timed_guard_accumulates() {
        let rec = Recorder::new().with_timing();
        {
            let _t = rec.time_expand();
            std::hint::black_box(0u64);
        }
        let m = rec.snapshot();
        assert!(m.timed);
        // The guard measured *something* (possibly sub-microsecond, but the
        // drop always adds the elapsed nanos — zero only if the clock did
        // not tick at all, which `>=` tolerates).
        assert!(m.expand_ns <= m.phase_sum());
        assert!(m.total_ns >= m.expand_ns);
    }

    #[test]
    fn merge_insert_subtracted_not_double_counted() {
        let rec = Recorder::new().with_timing();
        {
            let _outer = rec.time_merge();
            let _inner = rec.time_intern();
            std::thread::sleep(Duration::from_millis(2));
        }
        let m = rec.snapshot();
        // dedup picks up the insert time; merge keeps only the remainder.
        assert!(
            m.dedup_ns >= 1_000_000,
            "insert time recorded: {}",
            m.dedup_ns
        );
        assert!(
            m.merge_ns < m.dedup_ns,
            "insert not double-counted (merge {} vs dedup {})",
            m.merge_ns,
            m.dedup_ns
        );
    }

    #[test]
    fn truncation_cause_roundtrip() {
        let rec = Recorder::new();
        assert_eq!(rec.snapshot().truncation, TruncationCause::Complete);
        assert!(!rec.snapshot().truncation.is_truncated());
        rec.set_truncated(500);
        let t = rec.snapshot().truncation;
        assert_eq!(t, TruncationCause::MaxConfigs { cap: 500 });
        assert!(t.is_truncated());
    }

    #[test]
    fn progress_fires_on_interval() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        let rec = Recorder::new().with_progress(2, move |r| {
            assert!(r.expansions >= 2);
            hits2.fetch_add(1, Ordering::SeqCst);
        });
        rec.heartbeat(0, 1, 1, 100); // 0 expansions: below interval
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        rec.count_expansions(2);
        rec.heartbeat(1, 3, 2, 97);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        rec.heartbeat(1, 3, 2, 97); // no new expansions: suppressed
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn level_records_and_json() {
        let rec = Recorder::new();
        rec.record_level(1, 2, 3, 4, Duration::from_nanos(5));
        rec.record_level(2, 0, 3, 6, Duration::from_nanos(7));
        let m = rec.snapshot();
        assert_eq!(m.levels.len(), 2);
        assert_eq!(m.levels[0].level, 0);
        assert_eq!(m.levels[1].level, 1);
        assert_eq!(
            m.levels[0].to_json(),
            "{\"level\": 0, \"items\": 1, \"new_nodes\": 2, \"nodes\": 3, \
             \"edges\": 4, \"elapsed_ns\": 5}"
        );
        let json = m.to_json();
        assert!(json.contains("\"levels\": [{"));
        assert!(json.contains("\"truncation\": null"));
        // Balanced braces: a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON: {json}"
        );
    }

    #[test]
    fn concurrent_heartbeat_claims_once_per_interval() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        let rec = Recorder::new().with_progress(2, move |_| {
            hits2.fetch_add(1, Ordering::SeqCst);
        });
        rec.count_expansions(2);
        // Two workers observe the same interval; only one may fire.
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| rec.heartbeat(0, 1, 1, 10));
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn phase_calls_distinguish_skipped_from_fast() {
        // Timed but never invoked: 0 calls, 0 ns — a genuinely skipped phase.
        let rec = Recorder::new().with_timing();
        let m = rec.snapshot();
        assert_eq!(m.freeze_calls, 0);
        assert_eq!(m.reverse_csr_calls, 0);
        // Invoked but (possibly) too fast to time: calls > 0 regardless.
        {
            let _t = rec.time_freeze();
        }
        {
            let _t = rec.time_reverse_csr();
        }
        let m = rec.snapshot();
        assert_eq!(m.freeze_calls, 1);
        assert_eq!(m.reverse_csr_calls, 1);
        let json = m.phases_json();
        assert!(json.contains("\"freeze_calls\": 1"), "{json}");
        assert!(json.contains("\"reverse_csr_calls\": 1"), "{json}");
        // Untimed recorders keep the zero-overhead contract: no counts.
        let off = Recorder::new();
        {
            let _t = off.time_freeze();
        }
        assert_eq!(off.snapshot().freeze_calls, 0);
    }

    #[test]
    fn phases_json_components_sum_to_total() {
        let m = ExploreMetrics {
            expand_ns: 10,
            canonicalize_ns: 20,
            por_ns: 5,
            dedup_ns: 15,
            merge_ns: 25,
            freeze_ns: 5,
            reverse_csr_ns: 0,
            total_ns: 100,
            timed: true,
            ..Default::default()
        };
        assert_eq!(m.phase_sum(), 80);
        assert_eq!(m.other_ns(), 20);
        let json = m.phases_json();
        assert!(json.contains("\"other_ns\": 20"));
        assert!(json.contains("\"total_ns\": 100"));
    }
}
