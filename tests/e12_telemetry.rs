//! E12 (exploration telemetry): instrumentation must be invisible to the
//! explorer — graphs are node-for-node identical with telemetry on vs off
//! across every store/reduction/thread combination — while the collected
//! metrics are internally consistent (counters sum to node totals, phase
//! times sum under the total), the trace/heartbeat sinks fire, and the DOT
//! export is well-formed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use subconsensus_core::GroupedObject;
use subconsensus_modelcheck::{
    ExploreOptions, Recorder, StateGraph, StoreBackend, TruncationCause, Valency,
};
use subconsensus_objects::Consensus;
use subconsensus_protocols::ProposeDecide;
use subconsensus_sim::json::JsonValue;
use subconsensus_sim::{Pid, Protocol, SystemBuilder, SystemSpec, Value};

/// The E1 fixture: `procs` processes proposing through one
/// `GroupedObject::for_level(n, k)`. Equal inputs give nontrivial
/// symmetry groups; distinct inputs keep them trivial.
fn grouped_system(n: usize, k: usize, procs: usize, equal_inputs: bool) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(GroupedObject::for_level(n, k));
    let p: Arc<dyn Protocol> = Arc::new(ProposeDecide::new(obj));
    b.add_processes(
        p,
        (0..procs).map(|i| Value::Int(if equal_inputs { 1 } else { i as i64 + 1 })),
    );
    b.build()
}

fn assert_identical(a: &StateGraph, b: &StateGraph, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: node count");
    for i in 0..a.len() {
        assert_eq!(a.config(i), b.config(i), "{label}: node {i}");
        assert_eq!(a.edges(i), b.edges(i), "{label}: edges of node {i}");
    }
    assert_eq!(a.terminals(), b.terminals(), "{label}: terminals");
    assert_eq!(a.is_truncated(), b.is_truncated(), "{label}: truncation");
}

#[test]
fn instrumented_graphs_identical_across_matrix() {
    // Telemetry on (timers + per-level heartbeat) vs off, × symmetry × POR
    // × threads: the recorder is write-only from the explorer's view, so
    // every combination must reproduce the plain graph node-for-node.
    let spec = grouped_system(2, 1, 3, true);
    for symmetry in [false, true] {
        for por in [false, true] {
            let base_opts = ExploreOptions::default()
                .with_symmetry(symmetry)
                .with_por(por);
            let plain = StateGraph::explore(&spec, &base_opts).unwrap();
            for threads in [1usize, 4] {
                let opts = base_opts.clone().with_threads(threads).with_metrics(true);
                let rec = Recorder::new().with_timing().with_progress(1, |_| {});
                let instrumented = StateGraph::explore_with(&spec, &opts, &rec).unwrap();
                assert_identical(
                    &plain,
                    &instrumented,
                    &format!("sym={symmetry} por={por} threads={threads}"),
                );
                assert!(instrumented.metrics().timed);
            }
        }
    }
}

#[test]
fn persistent_sinks_invisible_across_matrix() {
    // The persistent observability sinks — run ledger, status file, level
    // trace — must be as invisible as the in-memory recorder: with all
    // three installed at once, every symmetry × POR × threads × store
    // combination reproduces the plain graph node-for-node, and every
    // artifact the run leaves behind parses with the in-tree JSON parser.
    let dir = std::env::temp_dir().join(format!("e12_sinks_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = dir.join("runs.jsonl");
    let status = dir.join("status.json");
    let spec = grouped_system(2, 1, 3, true);
    let mut runs = 0usize;
    for symmetry in [false, true] {
        for por in [false, true] {
            for (threads, store) in [
                (1usize, StoreBackend::Memory),
                (4, StoreBackend::Memory),
                (1, StoreBackend::Disk),
                (4, StoreBackend::Disk),
            ] {
                let label = format!("sym={symmetry} por={por} threads={threads} store={store:?}");
                let base_opts = ExploreOptions::default()
                    .with_symmetry(symmetry)
                    .with_por(por);
                let plain = StateGraph::explore(&spec, &base_opts).unwrap();
                let mut opts = base_opts.with_threads(threads).with_metrics(true);
                if store == StoreBackend::Disk {
                    opts = opts
                        .with_store(StoreBackend::Disk)
                        .with_store_budget(4 << 10);
                }
                let trace = dir.join(format!("trace_{runs}.jsonl"));
                let rec = Recorder::new()
                    .with_trace(&trace)
                    .expect("create trace file")
                    .with_run_log(&ledger)
                    .with_status_file(&status);
                let g = StateGraph::explore_with(&spec, &opts, &rec).unwrap();
                assert_identical(&plain, &g, &label);
                runs += 1;

                // The status snapshot left behind is the final "done"
                // state of *this* run.
                let sv = JsonValue::parse(&std::fs::read_to_string(&status).unwrap())
                    .unwrap_or_else(|e| panic!("{label}: status: {e}"));
                assert_eq!(sv.get("state").and_then(JsonValue::as_str), Some("done"));
                assert_eq!(
                    sv.get("explored").and_then(JsonValue::as_u64),
                    Some(g.len() as u64),
                    "{label}: status explored"
                );

                // Every trace line parses.
                for line in std::fs::read_to_string(&trace).unwrap().lines() {
                    JsonValue::parse(line).unwrap_or_else(|e| panic!("{label}: trace: {e}"));
                }
            }
        }
    }

    // One ledger line per run, all parseable, all hashing the same spec,
    // each faithfully recording its options and graph facts.
    let text = std::fs::read_to_string(&ledger).unwrap();
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), runs, "one ledger record per exploration");
    let mut hashes = std::collections::HashSet::new();
    for line in &lines {
        let v = JsonValue::parse(line).unwrap_or_else(|e| panic!("ledger: {e}\n{line}"));
        hashes.insert(
            v.get("spec_hash")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string(),
        );
        let outcome = v.get("outcome").expect("outcome");
        let configs = outcome.get("configs").and_then(JsonValue::as_u64).unwrap();
        let metrics = v.get("metrics").expect("metrics");
        assert_eq!(
            metrics.get("configs").and_then(JsonValue::as_u64),
            Some(configs),
            "outcome and metrics agree on the graph size"
        );
        let opts = v.get("options").expect("options");
        assert!(opts.get("threads").and_then(JsonValue::as_u64).is_some());
        assert!(opts.get("store").and_then(JsonValue::as_str).is_some());
    }
    assert_eq!(hashes.len(), 1, "same spec, same fingerprint: {hashes:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_record_written_only_when_log_installed() {
    // No ledger installed → `explore_with` must not try to append (and the
    // bare `Recorder::new()` path must report no run-log path at all).
    let rec = Recorder::new();
    assert!(rec.run_log().is_none());
    // With one installed, a verdict-goal run records a verdict outcome.
    let dir = std::env::temp_dir().join(format!("e12_ledger_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = dir.join("runs.jsonl");
    let spec = grouped_system(2, 1, 3, true);
    let rec = Recorder::new().with_run_log(&ledger);
    let opts = ExploreOptions::default().with_goal(subconsensus_modelcheck::ExploreGoal::Verdict(
        subconsensus_modelcheck::VerdictQuery::new().require_wait_freedom(),
    ));
    StateGraph::explore_with(&spec, &opts, &rec).unwrap();
    let text = std::fs::read_to_string(&ledger).unwrap();
    let v = JsonValue::parse(text.lines().next().unwrap()).unwrap();
    let outcome = v.get("outcome").unwrap();
    assert_eq!(
        outcome.get("kind").and_then(JsonValue::as_str),
        Some("verdict")
    );
    let verdict = outcome.get("verdict").expect("verdict payload");
    assert!(verdict.get("holds").is_some());
    assert_eq!(
        v.get("options")
            .unwrap()
            .get("goal")
            .and_then(JsonValue::as_str),
        Some("verdict")
    );
    // The record's hash matches a direct fingerprint of the spec.
    assert_eq!(
        v.get("spec_hash").and_then(JsonValue::as_str),
        Some(format!("{:016x}", spec.spec_fingerprint()).as_str())
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn counters_sum_to_node_totals() {
    for (symmetry, por) in [(false, false), (true, false), (false, true), (true, true)] {
        let spec = grouped_system(2, 1, 3, true);
        let opts = ExploreOptions::default()
            .with_symmetry(symmetry)
            .with_por(por)
            .with_metrics(true);
        let g = StateGraph::explore(&spec, &opts).unwrap();
        let m = g.metrics();
        let label = format!("sym={symmetry} por={por}");

        // Every generated successor lands in exactly one merge bucket.
        assert_eq!(
            m.generated,
            m.dedup_hits + m.added + m.capped,
            "{label}: generated = dedup + added + capped"
        );
        // The store holds the root plus every added successor.
        assert_eq!(
            m.added + 1,
            m.configs as u64,
            "{label}: added + root = configs"
        );
        assert_eq!(m.capped, 0, "{label}: unbounded run never caps");
        assert_eq!(m.configs, g.len(), "{label}: metrics configs = graph len");
        assert_eq!(
            m.edges,
            g.stats().edges,
            "{label}: metrics edges = graph edges"
        );
        assert!(m.peak_bytes > 0, "{label}: peak bytes estimated");
        assert_eq!(m.truncation, TruncationCause::Complete, "{label}");

        // Per-level records tile the exploration exactly.
        let new_nodes: usize = m.levels.iter().map(|l| l.new_nodes).sum();
        let items: u64 = m.levels.iter().map(|l| l.items as u64).sum();
        assert_eq!(
            new_nodes as u64 + 1,
            m.configs as u64,
            "{label}: level new_nodes"
        );
        assert_eq!(items, m.expansions, "{label}: level items = expansions");
        let last = m.levels.last().expect("at least one level");
        assert_eq!(last.nodes_total, m.configs, "{label}: final nodes_total");
        assert_eq!(last.edges_total, m.edges, "{label}: final edges_total");

        // Sequential run: phases are disjoint slices of the wall clock.
        assert!(m.timed, "{label}");
        assert!(
            m.phase_sum() <= m.total_ns,
            "{label}: phase sum {} exceeds total {}",
            m.phase_sum(),
            m.total_ns
        );
        if symmetry {
            assert!(m.symmetry_hits > 0, "{label}: canonicalization hit");
        }
    }
}

#[test]
fn sleep_sets_prune_commuting_proposals() {
    // `GroupedObject` declares no commuting ops, so sleep sets never fire
    // on the E1 fixture; equal-value proposals to a consensus object DO
    // commute, and the pruning must show up in the counter.
    let mut b = SystemBuilder::new();
    let obj = b.add_object(Consensus::unbounded());
    let p: Arc<dyn Protocol> = Arc::new(ProposeDecide::new(obj));
    b.add_processes(p, (0..3).map(|_| Value::Int(7)));
    let spec = b.build();
    let opts = ExploreOptions::default().with_por(true).with_metrics(true);
    let g = StateGraph::explore(&spec, &opts).unwrap();
    let m = g.metrics();
    assert!(m.sleep_pruned > 0, "sleep sets pruned nothing: {m:?}");
    assert_eq!(m.generated, m.dedup_hits + m.added + m.capped);
    // Pruning is sound: the reduced graph still reaches a terminal.
    assert!(!g.terminals().is_empty());
}

#[test]
fn truncation_cause_recorded_and_counted() {
    let spec = grouped_system(2, 1, 3, false);
    let g = StateGraph::explore(
        &spec,
        &ExploreOptions::with_max_configs(5).with_metrics(true),
    )
    .unwrap();
    assert!(g.is_truncated());
    let m = g.metrics();
    assert_eq!(m.truncation, TruncationCause::MaxConfigs { cap: 5 });
    assert!(m.truncation.is_truncated());
    assert!(m.capped > 0, "dropped successors counted");
    assert_eq!(m.configs, 5);
    assert_eq!(m.generated, m.dedup_hits + m.added + m.capped);
    let json = m.to_json();
    assert!(
        json.contains("\"cause\": \"max_configs\", \"cap\": 5"),
        "{json}"
    );
}

#[test]
fn disk_store_metrics_reported_and_consistent() {
    // A disk run squeezed under a 4 KiB hot tier must stay invisible to
    // the explorer (same graph), report a `StoreMetrics` block whose
    // counters are internally consistent, and serialize it into the
    // metrics JSON; memory runs must keep the field null.
    let spec = grouped_system(2, 1, 3, false);
    let plain = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
    assert!(
        plain.metrics().store.is_none(),
        "memory runs report no store metrics"
    );
    assert!(plain.metrics().to_json().contains("\"store\": null"));
    for threads in [1usize, 4] {
        let opts = ExploreOptions::default()
            .with_threads(threads)
            .with_store(StoreBackend::Disk)
            .with_store_budget(4 << 10)
            .with_metrics(true);
        let rec = Recorder::new().with_timing();
        let g = StateGraph::explore_with(&spec, &opts, &rec).unwrap();
        let label = format!("disk x{threads} threads");
        assert_identical(&plain, &g, &label);
        let m = g.metrics();
        // Eviction changes where rows live, never how many successors each
        // merge bucket absorbs.
        assert_eq!(
            m.generated,
            m.dedup_hits + m.added + m.capped,
            "{label}: generated = dedup + added + capped"
        );
        assert_eq!(m.capped, 0, "{label}: disk runs do not truncate");
        assert_eq!(m.truncation, TruncationCause::Complete, "{label}");
        let s = m.store.expect("disk runs report store metrics");
        assert!(s.spilled_bytes > 0, "{label}: 4 KiB budget forces spill");
        assert!(s.reload_count > 0, "{label}: pinned frontiers fault back");
        assert!(
            (0.0..=1.0).contains(&s.hot_hit_rate()),
            "{label}: hit rate {} in [0, 1]",
            s.hot_hit_rate()
        );
        assert!(
            s.spill_write_ns > 0,
            "{label}: timed run clocks spill writes"
        );
        let json = m.to_json();
        assert!(
            json.contains("\"store\": {\"spilled_bytes\": "),
            "{label}: {json}"
        );
        assert!(json.contains("\"hot_hit_rate\": "), "{label}: {json}");
    }
}

#[test]
fn memory_budget_truncation_recorded_and_counted() {
    // An in-memory run whose resident estimate crosses the budget must
    // truncate cleanly: dedup still resolves, new nodes are rejected, and
    // the cause names the budget (distinct from a max-configs cap).
    let spec = grouped_system(2, 1, 3, false);
    let g = StateGraph::explore(
        &spec,
        &ExploreOptions::default()
            .with_store(StoreBackend::Memory)
            .with_store_budget(2 << 10)
            .with_metrics(true),
    )
    .unwrap();
    assert!(g.is_truncated());
    let m = g.metrics();
    assert_eq!(m.truncation, TruncationCause::MemoryBudget { budget: 2048 });
    assert!(m.truncation.is_truncated());
    assert!(m.capped > 0, "rejected successors counted");
    assert_eq!(m.generated, m.dedup_hits + m.added + m.capped);
    assert!(m.store.is_none(), "no spill happened");
    let json = m.to_json();
    assert!(
        json.contains("\"cause\": \"memory_budget\", \"budget\": 2048"),
        "{json}"
    );

    // The same budget under the disk backend completes: spilling keeps the
    // resident estimate bounded instead of rejecting nodes.
    let full = StateGraph::explore(
        &spec,
        &ExploreOptions::default()
            .with_store(StoreBackend::Disk)
            .with_store_budget(2 << 10)
            .with_metrics(true),
    )
    .unwrap();
    assert!(!full.is_truncated(), "disk backend lifts the budget bound");
    assert!(full.len() > g.len(), "budget-truncated run is a prefix");
}

#[test]
fn progress_callback_fires_per_interval() {
    let spec = grouped_system(2, 1, 3, false);
    let hits = Arc::new(AtomicUsize::new(0));
    let hits2 = hits.clone();
    let rec = Recorder::new().with_progress(1, move |r| {
        assert!(r.explored > 0);
        assert!(r.expansions > 0);
        hits2.fetch_add(1, Ordering::SeqCst);
    });
    let g = StateGraph::explore_with(&spec, &ExploreOptions::default(), &rec).unwrap();
    let fired = hits.load(Ordering::SeqCst);
    assert!(fired > 0, "every-expansion heartbeat fired");
    // Heartbeats tick inside expansion and merge, not just at level
    // boundaries — a single long level must still report every interval.
    assert!(
        fired > g.metrics().levels.len(),
        "{fired} fires for {} levels: mid-level heartbeats missing",
        g.metrics().levels.len()
    );
    assert!(
        fired as u64 <= g.metrics().expansions,
        "{fired} fires > {} expansions: at most one fire per counted expansion",
        g.metrics().expansions
    );
}

#[test]
fn threaded_telemetry_invisible_and_consistent() {
    // Instrumentation must stay invisible when expansion workers share the
    // recorder, and the counters they bump concurrently must still tile
    // the graph: every generated successor lands in one merge bucket and
    // the per-level records add up to the node and edge totals.
    let spec = grouped_system(2, 1, 3, true);
    for por in [false, true] {
        let base_opts = ExploreOptions::default().with_por(por);
        let plain = StateGraph::explore(&spec, &base_opts).unwrap();
        let opts = base_opts.with_threads(4).with_metrics(true);
        let rec = Recorder::new().with_timing().with_progress(1, |_| {});
        let g = StateGraph::explore_with(&spec, &opts, &rec).unwrap();
        let label = format!("threads=4 por={por}");
        assert_identical(&plain, &g, &label);
        let m = g.metrics();
        assert!(m.timed, "{label}");
        assert_eq!(m.generated, m.dedup_hits + m.added + m.capped, "{label}");
        assert_eq!(m.added + 1, g.len() as u64, "{label}: added + root");
        let new_nodes: usize = m.levels.iter().map(|l| l.new_nodes).sum();
        assert_eq!(new_nodes + 1, g.len(), "{label}: level new_nodes");
        let items: u64 = m.levels.iter().map(|l| l.items as u64).sum();
        assert_eq!(items, m.expansions, "{label}: level items = expansions");
        let last = m.levels.last().expect("at least one level");
        assert_eq!(last.edges_total, g.stats().edges, "{label}: edges_total");
    }
}

#[test]
fn trace_jsonl_one_record_per_level() {
    let path = std::env::temp_dir().join(format!("e12_trace_{}.jsonl", std::process::id()));
    let spec = grouped_system(2, 1, 3, false);
    let rec = Recorder::new()
        .with_trace(&path)
        .expect("create trace file");
    let g = StateGraph::explore_with(&spec, &ExploreOptions::default(), &rec).unwrap();
    let text = std::fs::read_to_string(&path).expect("read trace");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(
        lines.len(),
        g.metrics().levels.len(),
        "one record per level"
    );
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "span {i}: {line}"
        );
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "span {i} braces: {line}"
        );
        assert!(
            line.contains(&format!("\"level\": {i},")),
            "span {i} level monotone: {line}"
        );
    }
}

#[test]
fn dot_export_well_formed_on_e1_p3() {
    let spec = grouped_system(2, 1, 3, false);
    let g = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
    let dot = g.to_dot();
    assert!(dot.starts_with("digraph stategraph {\n"));
    assert!(dot.ends_with("}\n"));
    assert_eq!(
        dot.matches('{').count(),
        dot.matches('}').count(),
        "balanced braces"
    );
    let edge_lines = dot.lines().filter(|l| l.contains(" -> ")).count();
    assert_eq!(edge_lines, g.stats().edges, "one edge line per CSR edge");
    let node_lines = dot
        .lines()
        .filter(|l| {
            // `n<id> [...]` declarations only — not `node [shape=...]`
            // defaults, not edges.
            let t = l.trim_start();
            t.starts_with('n')
                && t[1..].starts_with(|c: char| c.is_ascii_digit())
                && !t.contains(" -> ")
        })
        .count();
    assert_eq!(node_lines, g.len(), "one node line per configuration");
    assert_eq!(
        dot.matches("doublecircle").count(),
        g.terminals().len(),
        "terminals double-circled"
    );

    // A witness schedule to any terminal highlights its path in red.
    let schedule: Vec<Pid> = g
        .witness_schedule(|c| c.is_final())
        .expect("some terminal is reachable");
    let hi = g.to_dot_with_schedule(&schedule);
    assert_eq!(
        hi.matches("color=red").count(),
        schedule.len(),
        "one highlighted edge per schedule step"
    );
    assert_eq!(
        hi.lines().filter(|l| l.contains(" -> ")).count(),
        g.stats().edges,
        "highlighting adds no edges"
    );
}

#[test]
fn valency_pass_feeds_reverse_csr_phase() {
    let spec = grouped_system(2, 1, 3, false);
    let g = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
    let rec = Recorder::new().with_timing();
    let v = Valency::compute_with(&g, &rec);
    assert!(v.is_bivalent(0) || v.is_univalent(0));
    let m = rec.snapshot();
    assert!(
        m.reverse_csr_ns > 0,
        "reverse-CSR build time recorded: {}",
        m.reverse_csr_ns
    );
}
