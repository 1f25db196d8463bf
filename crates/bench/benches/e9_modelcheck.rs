//! Experiment E9: model-checker exploration throughput.
//!
//! Times `StateGraph::explore` on the E1 (grouped family) and E4
//! (partitioned agreement) fixtures across thread counts with symmetry
//! reduction and partial-order reduction on/off, and writes a
//! machine-readable `BENCH_modelcheck.json` at the repo root with
//! configs/sec, peak configuration counts, per-config memory, the
//! reduction ratios and a per-phase wall-time breakdown (`phases`, from an
//! instrumented post-warm-up exploration run per row with that row's exact
//! thread count — see [`subconsensus_sim::ExploreMetrics`]), so perf
//! regressions are diffable across commits *and* attributable to a
//! phase. A `meta` block records the hardware thread count, git revision
//! (plus a `dirty` flag when the worktree differs from it) and harness
//! iteration budgets that produced the numbers.
//!
//! Every (fixture, symmetry, por) combination also prints one `GUARD` line
//! with its deterministic facts (`peak_configs`, `edges`, `truncated`,
//! `approx_bytes_per_config`); `scripts/bench_guard.sh` compares those
//! against the committed JSON so a regression that *grows* the explored
//! graph — or its per-config memory — fails CI even in smoke mode. Each
//! full-graph and verdict-goal combination also prints one `MEMO` line with
//! its transition-memo lookups, hits and entries, asserted equal across
//! thread counts (and between the disk and memory stores) like the graph
//! facts. With `INTERNER_STATS=1` each row additionally prints its
//! hash-consing arena summary on stderr.
//!
//! `BENCH_SMOKE=1` runs every kernel twice with no warm-up (see
//! `harness::smoke_mode`) so `scripts/check.sh` can catch bench bit-rot.

use std::path::Path;

use subconsensus_bench::harness::{
    smoke_mode, BenchmarkId, Criterion, SAMPLE_BUDGET, WARMUP_BUDGET,
};
use subconsensus_bench::{
    grouped_gate_sym, grouped_system, grouped_system_sym, partition_gate_sym, partition_system,
    partition_system_sym,
};
use subconsensus_modelcheck::{
    check_wait_freedom, ExploreGoal, ExploreOptions, StateGraph, StoreBackend, VerdictCause,
    VerdictQuery,
};
use subconsensus_sim::{ExploreMetrics, InternerStats, StoreMetrics, SystemSpec};

const THREADS: [usize; 3] = [1, 2, 4];
/// Thread counts of the verdict-goal and disk-store rows: the first
/// anchors the `VERDICT`/`SPILL` lines, the second is checked against it.
const ANCHOR_THREADS: [usize; 2] = [1, 4];
const SAMPLE_SIZE: usize = 10;
/// `max_configs` bound of the verdict-goal gate fixtures: big enough that
/// the sym-off full graphs are meaningful (the p10/p12 gates truncate at
/// it), small enough to keep the full-graph baseline rows benchable.
const VERDICT_CAP: usize = 50_000;

/// One benched fixture: a system plus the `max_configs` bound its rows run
/// under (`usize::MAX`-ish default for the small fixtures; a deliberate cap
/// for the large ones, where only the reduced explorations complete).
struct Fixture {
    name: &'static str,
    spec: SystemSpec,
    max_configs: usize,
}

/// Static facts of one (fixture, symmetry, por) graph, computed once
/// outside the timing loop.
#[derive(Clone)]
struct GraphFacts {
    peak_configs: usize,
    edges: usize,
    truncated: bool,
    approx_bytes: usize,
    /// Hash-consing arena stats (`None` on the deep store).
    interner: Option<InternerStats>,
    /// Per-phase wall-time breakdown (JSON object) of one instrumented
    /// post-warm-up exploration; its `total_ns` approximates the timed
    /// rows' `median_ns`.
    phases: String,
    /// Spill counters of the instrumented run (`None` on memory-backed
    /// rows).
    store: Option<StoreMetrics>,
    memo: MemoFacts,
}

/// Transition-memo counters of one exploration: `(lookups, hits,
/// entries)`. The memo is filled only by the sequential merge, so they are
/// as deterministic as the graph itself.
type MemoFacts = (u64, u64, u64);

fn memo_facts(m: &ExploreMetrics) -> MemoFacts {
    (m.memo_lookups, m.memo_hits, m.memo_entries)
}

/// One `MEMO` line (`scripts/bench_guard.sh` gate 3 diffs them between the
/// in-memory and the `MC_STORE=disk` run).
fn print_memo(row: &str, symmetry: bool, por: bool, (lookups, hits, entries): MemoFacts) {
    println!("MEMO {row} {symmetry} {por} {lookups} {hits} {entries}");
}

impl GraphFacts {
    /// Per-config memory of the frozen node store, floor-divided.
    fn bytes_per_config(&self) -> usize {
        self.approx_bytes
            .checked_div(self.peak_configs)
            .unwrap_or(0)
    }
}

fn facts(spec: &SystemSpec, opts: &ExploreOptions) -> GraphFacts {
    // One warm-up run, then a few instrumented ones keeping the fastest:
    // the phase clocks are on only for the instrumented runs, and at
    // microsecond graph sizes a single run's clock reads and cold caches
    // would inflate `total_ns` well past the timing loop's `median_ns`.
    // Min-of-5 keeps the captured breakdown close to the timed kernels
    // (the instrumented graph is node-for-node identical to the timed
    // ones — telemetry is write-only). Smoke runs publish no numbers, so
    // one instrumented pass suffices there — this runs once per row now,
    // and the guard script runs the whole bench twice.
    StateGraph::explore(spec, opts).expect("explore");
    let reps = if smoke_mode() { 1 } else { 5 };
    let g = (0..reps)
        .map(|_| StateGraph::explore(spec, &opts.clone().with_metrics(true)).expect("explore"))
        .min_by_key(|g| g.metrics().total_ns)
        .expect("at least one instrumented run");
    assert_phases_tile(g.metrics(), opts);
    let s = g.stats();
    GraphFacts {
        peak_configs: s.configs,
        edges: s.edges,
        truncated: s.truncated,
        approx_bytes: g.approx_bytes(),
        interner: g.interner_stats(),
        phases: g.metrics().phases_json(),
        store: g.metrics().store,
        memo: memo_facts(g.metrics()),
    }
}

/// Asserts that a timed exploration's phases tile its wall clock: at most
/// max(5% of `total_ns`, 50 µs) lies outside every phase.
fn assert_phases_tile(m: &ExploreMetrics, opts: &ExploreOptions) {
    assert!(m.timed, "instrumented run is timed");
    let bound = (m.total_ns / 20).max(50_000);
    assert!(
        m.other_ns() <= bound,
        "phases leave {} of {} ns unattributed (bound {bound}) for {}",
        m.other_ns(),
        m.total_ns,
        opts.to_json()
    );
}

/// Deterministic facts of one verdict-goal exploration: the streaming
/// verdict plus the phase telemetry proving the freeze phase never
/// ran.
#[derive(Clone, Debug, PartialEq, Eq)]
struct VerdictFacts {
    configs: usize,
    edges: usize,
    truncated: bool,
    holds: Option<bool>,
    /// Compact cause tag, e.g. `early-exit: wait-freedom refuted: …`.
    cause: String,
    phases: String,
    memo: MemoFacts,
}

fn verdict_facts(spec: &SystemSpec, opts: &ExploreOptions) -> VerdictFacts {
    // Same warm-up + min-of-reps discipline as `facts`, but the verdict
    // graph has no CSR: facts come from the verdict and the metrics, and
    // the zero freeze time and laps are asserted right here — the lap
    // count distinguishes "skipped" from "too fast to time" — next to the
    // tiling bound.
    StateGraph::explore(spec, opts).expect("explore");
    let reps = if smoke_mode() { 1 } else { 5 };
    let g = (0..reps)
        .map(|_| StateGraph::explore(spec, &opts.clone().with_metrics(true)).expect("explore"))
        .min_by_key(|g| g.metrics().total_ns)
        .expect("at least one instrumented run");
    let m = g.metrics();
    assert_eq!(
        (m.freeze_ns, m.freeze_calls),
        (0, 0),
        "verdict-goal exploration ran a freeze phase"
    );
    assert_phases_tile(m, opts);
    let v = g
        .verdict()
        .expect("verdict-goal exploration yields a verdict");
    VerdictFacts {
        configs: v.configs,
        edges: m.edges,
        truncated: matches!(v.cause, VerdictCause::Truncated { .. }),
        holds: v.holds(),
        cause: match &v.cause {
            VerdictCause::Exhausted => "exhausted".to_string(),
            VerdictCause::EarlyExit { reason } => format!("early-exit: {reason}"),
            VerdictCause::Truncated { cap } => format!("truncated at {cap}"),
        },
        phases: m.phases_json(),
        memo: memo_facts(m),
    }
}

/// `INTERNER_STATS=1` prints one arena summary per (fixture, symmetry, por)
/// row on stderr — `scripts/check.sh` runs the smoke bench with it once so
/// the diagnostic path stays exercised.
fn interner_stats_enabled() -> bool {
    subconsensus_sim::env_flag("INTERNER_STATS")
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `true` when the worktree (tracked files) differs from the recorded
/// revision — the JSON then says so instead of attributing the numbers to a
/// clean commit.
fn git_dirty() -> bool {
    std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty())
        .unwrap_or(false)
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

fn main() {
    println!(
        "\nE9 — state-graph exploration throughput (symmetry quotient × partial-order \
         reduction per fixture)\n"
    );

    let fixtures = [
        // The headline symmetric fixture: 3 equal-input proposers, one
        // 6-element orbit group; the quotient must visit ≤ 1/2 of the full
        // graph (acceptance criterion — the measured ratio lands ≈ 0.37).
        Fixture {
            name: "e1_grouped_n2_k1_p3",
            spec: grouped_system_sym(2, 1, 3),
            max_configs: ExploreOptions::default().max_configs,
        },
        // The PR-1 fixture (distinct inputs): trivial symmetry, kept for
        // perf continuity across PRs; its symmetry on/off rows coincide.
        Fixture {
            name: "e1_grouped_n2_k1_p3_distinct",
            spec: grouped_system(2, 1, 3),
            max_configs: ExploreOptions::default().max_configs,
        },
        // Pid-dependent protocol, distinct inputs: the automatic-grouping
        // guard keeps symmetry trivial; POR still reduces via the blocks'
        // declared disjoint footprints.
        Fixture {
            name: "e4_partition_p3_m2_j1",
            spec: partition_system(3, 2, 1),
            max_configs: ExploreOptions::default().max_configs,
        },
        // Explicit per-block override: 2 blocks × 2 equal-input processes.
        Fixture {
            name: "e4_partition_p4_m2_j1_sym",
            spec: partition_system_sym(4, 2, 1),
            max_configs: ExploreOptions::default().max_configs,
        },
        // The larger fixture that is only tractable with symmetry on: the
        // full graph has 6561 configs and truncates at this cap, while the
        // quotient (8! orbits collapse) completes at 45.
        Fixture {
            name: "e1_grouped_n2_k3_p8_sym",
            spec: grouped_system_sym(2, 3, 8),
            max_configs: 2_000,
        },
        // The interleaving-heavy fixture that is only tractable with POR
        // on: 4 disjoint consensus blocks of 2 distinct-input processes
        // each. The block interleavings blow the full graph past this cap,
        // while POR serializes the statically-independent blocks and
        // completes (symmetry can't help: the inputs are distinct).
        Fixture {
            name: "e4_partition_p8_m2_j1",
            spec: partition_system(8, 2, 1),
            max_configs: 2_000,
        },
        // The verdict-goal gate fixtures (writer raises a flag, spinners
        // poll it): these rows are the *full-graph* baselines; the
        // streaming-verdict rows for the same fixtures live in the
        // e9_verdict section below and must explore strictly fewer
        // configurations.
        Fixture {
            name: "e9_gate_grouped_p10_sym",
            spec: grouped_gate_sym(2, 1, 10),
            max_configs: VERDICT_CAP,
        },
        Fixture {
            name: "e9_gate_partition_p12_sym",
            spec: partition_gate_sym(2, 6, 2),
            max_configs: VERDICT_CAP,
        },
    ];

    let mut c = Criterion::new();
    // Row metadata in the same order the harness records measurements:
    // (fixture, threads, symmetry, por, facts, full_configs if
    // untruncated).
    #[allow(clippy::type_complexity)]
    let mut rows: Vec<(&str, usize, bool, bool, GraphFacts, Option<usize>)> = Vec::new();
    for fixture in &fixtures {
        let base = ExploreOptions::with_max_configs(fixture.max_configs);
        let full = facts(&fixture.spec, &base.clone());
        let full_configs = (!full.truncated).then_some(full.peak_configs);
        let mut g = c.benchmark_group("e9_explore");
        g.sample_size(SAMPLE_SIZE);
        for symmetry in [false, true] {
            for por in [false, true] {
                let opts_row = base.clone().with_symmetry(symmetry).with_por(por);
                // threads = 1 leads so its facts anchor the GUARD line.
                let mut guard_facts: Option<GraphFacts> = None;
                for threads in THREADS {
                    let opts = opts_row.clone().with_threads(threads);
                    // Per-row instrumented pass: phase breakdowns reflect
                    // this row's exact thread count, not a shared run's
                    // (threads=1/2/4 used to publish byte-identical
                    // `phases` objects).
                    let row_facts = facts(&fixture.spec, &opts);
                    match &guard_facts {
                        None => {
                            println!(
                                "GUARD {} {} {} {} {} {} {}",
                                fixture.name,
                                symmetry,
                                por,
                                row_facts.peak_configs,
                                row_facts.edges,
                                row_facts.truncated,
                                row_facts.bytes_per_config()
                            );
                            print_memo(fixture.name, symmetry, por, row_facts.memo);
                            if interner_stats_enabled() {
                                if let Some(stats) = &row_facts.interner {
                                    eprintln!(
                                        "INTERNER {} sym={symmetry} por={por} {stats}",
                                        fixture.name
                                    );
                                }
                            }
                            guard_facts = Some(row_facts.clone());
                        }
                        Some(first) => {
                            // Thread-count independence checked right
                            // here: every row of one (fixture, symmetry,
                            // por) cell must produce the same graph with
                            // the same footprint and memo counters.
                            assert_eq!(
                                (
                                    first.peak_configs,
                                    first.edges,
                                    first.truncated,
                                    first.approx_bytes,
                                    first.memo
                                ),
                                (
                                    row_facts.peak_configs,
                                    row_facts.edges,
                                    row_facts.truncated,
                                    row_facts.approx_bytes,
                                    row_facts.memo
                                ),
                                "{} sym={symmetry} por={por} t{threads}: \
                                 graph diverged from the t1 row",
                                fixture.name
                            );
                        }
                    }
                    let label = format!(
                        "{}{}{}",
                        fixture.name,
                        if symmetry { "/sym" } else { "" },
                        if por { "/por" } else { "" },
                    );
                    g.bench_with_input(BenchmarkId::new(label, threads), &opts, |b, opts| {
                        b.iter(|| StateGraph::explore(&fixture.spec, opts).expect("explore"))
                    });
                    rows.push((
                        fixture.name,
                        threads,
                        symmetry,
                        por,
                        row_facts,
                        full_configs,
                    ));
                }
            }
        }
        g.finish();
    }

    // ------------------------------------------------------------------
    // Verdict-goal rows: the gate fixtures under a streaming wait-freedom
    // check (`ExploreGoal::Verdict`). The spin cycle refutes the query a
    // few levels in, so the exploration must stop strictly before the
    // full graph is done, skip the freeze phase entirely (asserted
    // inside `verdict_facts`), and agree with the
    // full-graph answer — all asserted here, and re-checked across thread
    // counts. One `VERDICT` line per (fixture, symmetry, por) carries
    // the deterministic facts for `scripts/bench_guard.sh` gate 2.
    // ------------------------------------------------------------------
    let verdict_fixtures = [
        ("e9_gate_grouped_p10_sym", grouped_gate_sym(2, 1, 10)),
        ("e9_gate_partition_p12_sym", partition_gate_sym(2, 6, 2)),
    ];
    #[allow(clippy::type_complexity)]
    let mut vrows: Vec<(&str, usize, bool, bool, VerdictFacts, usize)> = Vec::new();
    {
        let mut g = c.benchmark_group("e9_verdict");
        g.sample_size(SAMPLE_SIZE);
        for (name, spec) in &verdict_fixtures {
            for symmetry in [false, true] {
                for por in [false, true] {
                    let base = ExploreOptions::with_max_configs(VERDICT_CAP)
                        .with_symmetry(symmetry)
                        .with_por(por);
                    // Full-graph baseline at threads = 1: the
                    // refutation must be visible in the expanded graph
                    // too (on the truncated sym-off rows the spin cycle
                    // still sits in the explored prefix, so the check is
                    // sound there as well).
                    let full = StateGraph::explore(spec, &base).expect("explore");
                    let full_peak = full.len();
                    assert!(
                        !check_wait_freedom(&full).is_wait_free(),
                        "{name} sym={symmetry} por={por}: full graph misses the refutation"
                    );
                    let mut anchor: Option<VerdictFacts> = None;
                    for threads in ANCHOR_THREADS {
                        let opts =
                            base.clone()
                                .with_threads(threads)
                                .with_goal(ExploreGoal::Verdict(
                                    VerdictQuery::new().require_wait_freedom(),
                                ));
                        let vf = verdict_facts(spec, &opts);
                        assert_eq!(
                            vf.holds,
                            Some(false),
                            "{name} sym={symmetry} por={por} t{threads}: \
                             verdict disagrees with the full-graph refutation"
                        );
                        assert!(
                            vf.configs < full_peak,
                            "{name} sym={symmetry} por={por} t{threads}: verdict explored \
                             {} configs, full graph {full_peak} — no early exit",
                            vf.configs
                        );
                        match &anchor {
                            None => {
                                println!(
                                    "VERDICT {name} {symmetry} {por} {} {full_peak} {} {}",
                                    vf.configs,
                                    match vf.holds {
                                        Some(true) => "holds",
                                        Some(false) => "refuted",
                                        None => "undecided",
                                    },
                                    vf.cause
                                );
                                print_memo(&format!("{name}/verdict"), symmetry, por, vf.memo);
                                anchor = Some(vf.clone());
                            }
                            Some(first) => assert_eq!(
                                // `phases` carries wall-clock numbers; every
                                // other field must be thread-count invariant.
                                (
                                    first.configs,
                                    first.edges,
                                    first.truncated,
                                    first.holds,
                                    &first.cause,
                                    first.memo
                                ),
                                (
                                    vf.configs,
                                    vf.edges,
                                    vf.truncated,
                                    vf.holds,
                                    &vf.cause,
                                    vf.memo
                                ),
                                "{name} sym={symmetry} por={por}: verdict facts \
                                 diverged between thread counts"
                            ),
                        }
                        let label = format!(
                            "{name}{}{}/verdict",
                            if symmetry { "/sym" } else { "" },
                            if por { "/por" } else { "" },
                        );
                        g.bench_with_input(BenchmarkId::new(label, threads), &opts, |b, opts| {
                            b.iter(|| StateGraph::explore(spec, opts).expect("explore"))
                        });
                        vrows.push((name, threads, symmetry, por, vf, full_peak));
                    }
                }
            }
        }
        g.finish();
    }

    // ------------------------------------------------------------------
    // Disk-store rows: the reduced fixtures re-run under `MC_STORE=disk`
    // semantics with a hot-tier budget far below their footprint, so
    // every row actually spills (asserted). The graph facts — including
    // `approx_bytes`, after the freeze-time unspill — must be identical
    // to an explicit in-memory run; one `SPILL` line per fixture feeds
    // `scripts/bench_guard.sh` gate 3.
    // ------------------------------------------------------------------
    let disk_budget: usize = 2 << 10;
    let disk_fixtures = [
        (
            "e1_grouped_n2_k3_p8_sym",
            grouped_system_sym(2, 3, 8),
            true,
            false,
            2_000usize,
        ),
        (
            "e4_partition_p8_m2_j1",
            partition_system(8, 2, 1),
            false,
            true,
            2_000usize,
        ),
    ];
    #[allow(clippy::type_complexity)]
    let mut drows: Vec<(&str, usize, bool, bool, GraphFacts, StoreMetrics)> = Vec::new();
    {
        let mut g = c.benchmark_group("e9_disk");
        g.sample_size(SAMPLE_SIZE);
        for (name, spec, symmetry, por, cap) in &disk_fixtures {
            let base = ExploreOptions::with_max_configs(*cap)
                .with_symmetry(*symmetry)
                .with_por(*por);
            // Explicitly memory-backed baseline: gate 3 re-runs this bench
            // with MC_STORE=disk in the environment, and the comparison
            // must stay disk-vs-memory there too.
            let mem = facts(spec, &base.clone().with_store(StoreBackend::Memory));
            for threads in ANCHOR_THREADS {
                let opts = base
                    .clone()
                    .with_threads(threads)
                    .with_store(StoreBackend::Disk)
                    .with_store_budget(disk_budget);
                let row_facts = facts(spec, &opts);
                assert_eq!(
                    (
                        mem.peak_configs,
                        mem.edges,
                        mem.truncated,
                        mem.approx_bytes,
                        mem.memo
                    ),
                    (
                        row_facts.peak_configs,
                        row_facts.edges,
                        row_facts.truncated,
                        row_facts.approx_bytes,
                        row_facts.memo
                    ),
                    "{name} sym={symmetry} por={por} t{threads}: \
                     disk-store graph diverged from the in-memory one"
                );
                let sm = row_facts.store.expect("disk rows report store metrics");
                assert!(
                    sm.spilled_bytes > 0,
                    "{name} t{threads}: a {disk_budget} B hot tier must force spill"
                );
                if threads == 1 {
                    println!(
                        "SPILL {name} {symmetry} {por} {} {} {}",
                        sm.spilled_bytes, sm.reload_count, sm.index_reads
                    );
                }
                let label = format!(
                    "{name}{}{}/disk",
                    if *symmetry { "/sym" } else { "" },
                    if *por { "/por" } else { "" },
                );
                g.bench_with_input(BenchmarkId::new(label, threads), &opts, |b, opts| {
                    b.iter(|| StateGraph::explore(spec, opts).expect("explore"))
                });
                drows.push((name, threads, *symmetry, *por, row_facts, sm));
            }
        }
        g.finish();
    }

    // Hand-formatted JSON (no serde in the offline build).
    let meas = c.measurements();
    assert_eq!(meas.len(), rows.len() + vrows.len() + drows.len());
    let (full_meas, rest_meas) = meas.split_at(rows.len());
    let (verdict_meas, disk_meas) = rest_meas.split_at(vrows.len());
    let mut kernels = String::new();
    for (m, (name, threads, symmetry, por, facts_row, full_configs)) in full_meas.iter().zip(&rows)
    {
        let secs = m.median_ns / 1e9;
        let configs_per_sec = if secs > 0.0 {
            facts_row.peak_configs as f64 / secs
        } else {
            0.0
        };
        // Reduction ratio: reduced size over the unreduced (symmetry off,
        // POR off) size. Baseline rows emit 1.0 by construction; `null`
        // means only that the unreduced baseline truncated, so no ratio
        // can be stated.
        let ratio = match full_configs {
            Some(fc) => json_f64(facts_row.peak_configs as f64 / *fc as f64),
            None => "null".to_string(),
        };
        let bytes_per_config = facts_row.bytes_per_config();
        // Interner-table stats of the hash-consed (default) store; `null`s
        // would mean the row ran on the deep store.
        let interner = match &facts_row.interner {
            Some(s) => s.to_json(),
            None => "null".to_string(),
        };
        if !kernels.is_empty() {
            kernels.push_str(",\n");
        }
        let phases = &facts_row.phases;
        kernels.push_str(&format!(
            "    {{\"fixture\": \"{name}\", \"threads\": {threads}, \
             \"symmetry\": {symmetry}, \"por\": {por}, \"peak_configs\": {}, \
             \"edges\": {}, \"truncated\": {}, \"approx_bytes_per_config\": \
             {bytes_per_config}, \"interner\": {interner}, \
             \"phases\": {phases}, \
             \"reduction_ratio\": {ratio}, \
             \"median_ns\": {:.0}, \"configs_per_sec\": {:.0}, \
             \"iters_per_sample\": {}, \"samples\": {}}}",
            facts_row.peak_configs,
            facts_row.edges,
            facts_row.truncated,
            m.median_ns,
            configs_per_sec,
            m.iters_per_sample,
            m.samples,
        ));
    }
    // Verdict-goal rows. `"goal"` sits right after `"fixture"` so the
    // per-fixture greps in scripts/bench_guard.sh (which anchor on
    // `"fixture": ..., "threads":`) can never match a verdict row.
    for (m, (name, threads, symmetry, por, vf, full_peak)) in verdict_meas.iter().zip(&vrows) {
        let secs = m.median_ns / 1e9;
        let configs_per_sec = if secs > 0.0 {
            vf.configs as f64 / secs
        } else {
            0.0
        };
        let holds = match vf.holds {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        };
        kernels.push_str(",\n");
        kernels.push_str(&format!(
            "    {{\"fixture\": \"{name}\", \"goal\": \"verdict\", \
             \"threads\": {threads}, \
             \"symmetry\": {symmetry}, \"por\": {por}, \"peak_configs\": {}, \
             \"edges\": {}, \"truncated\": {}, \"holds\": {holds}, \
             \"cause\": \"{}\", \"full_peak_configs\": {full_peak}, \
             \"phases\": {}, \
             \"median_ns\": {:.0}, \"configs_per_sec\": {:.0}, \
             \"iters_per_sample\": {}, \"samples\": {}}}",
            vf.configs,
            vf.edges,
            vf.truncated,
            vf.cause,
            vf.phases,
            m.median_ns,
            configs_per_sec,
            m.iters_per_sample,
            m.samples,
        ));
    }
    // Disk-store rows. `"store"` sits right after `"fixture"` for the same
    // reason `"goal"` does on the verdict rows: the per-fixture greps in
    // scripts/bench_guard.sh must never match one.
    for (m, (name, threads, symmetry, por, facts_row, sm)) in disk_meas.iter().zip(&drows) {
        let secs = m.median_ns / 1e9;
        let configs_per_sec = if secs > 0.0 {
            facts_row.peak_configs as f64 / secs
        } else {
            0.0
        };
        kernels.push_str(",\n");
        kernels.push_str(&format!(
            "    {{\"fixture\": \"{name}\", \"store\": \"disk\", \
             \"store_budget\": {disk_budget}, \"threads\": {threads}, \
             \"symmetry\": {symmetry}, \"por\": {por}, \"peak_configs\": {}, \
             \"edges\": {}, \"truncated\": {}, \"approx_bytes_per_config\": {}, \
             \"spill\": {}, \"phases\": {}, \
             \"median_ns\": {:.0}, \"configs_per_sec\": {:.0}, \
             \"iters_per_sample\": {}, \"samples\": {}}}",
            facts_row.peak_configs,
            facts_row.edges,
            facts_row.truncated,
            facts_row.bytes_per_config(),
            sm.to_json(),
            facts_row.phases,
            m.median_ns,
            configs_per_sec,
            m.iters_per_sample,
            m.samples,
        ));
    }
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let meta = format!(
        "  \"meta\": {{\n    \"hardware_threads\": {hardware_threads},\n    \
         \"git_revision\": \"{}\",\n    \"dirty\": {},\n    \
         \"sample_size\": {SAMPLE_SIZE},\n    \
         \"sample_budget_ms\": {},\n    \"warmup_budget_ms\": {},\n    \
         \"smoke\": {}\n  }}",
        git_revision(),
        git_dirty(),
        SAMPLE_BUDGET.as_millis(),
        WARMUP_BUDGET.as_millis(),
        smoke_mode(),
    );
    let json = format!(
        "{{\n  \"bench\": \"modelcheck_explore\",\n{meta},\n  \"kernels\": [\n{kernels}\n  ]\n}}\n"
    );
    if smoke_mode() {
        // Smoke runs exist to exercise the code (and feed the GUARD lines
        // above to scripts/bench_guard.sh), not to publish numbers.
        println!("\nBENCH_SMOKE=1: skipping BENCH_modelcheck.json write");
        return;
    }
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_modelcheck.json");
    std::fs::write(&out, &json).expect("write BENCH_modelcheck.json");
    println!("\nwrote {}", out.display());
}
