//! Round-trip tests for every hand-built JSON emitter in the crate.
//!
//! The workspace has no serde: `ExploreMetrics`, its component snapshots,
//! the run-ledger `RunRecord`, and the `MC_STATUS_FILE` snapshot are all
//! formatted by hand. Each emitter here is fed through the in-tree
//! [`subconsensus_sim::json`] parser — the same one `mc-report` uses — so
//! a malformed escape, a missing comma, or a field rename that would break
//! downstream tooling fails in-tree first.

use subconsensus_sim::json::JsonValue;
use subconsensus_sim::{
    warn_once, ExploreMetrics, InternerStats, LevelMetrics, Recorder, RunRecord, StoreMetrics,
    TruncationCause,
};

fn parse(json: &str) -> JsonValue {
    JsonValue::parse(json).unwrap_or_else(|e| panic!("emitter produced invalid JSON: {e}\n{json}"))
}

fn u(v: &JsonValue, key: &str) -> u64 {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("missing integer key {key:?}"))
}

#[test]
fn level_metrics_round_trip() {
    let level = LevelMetrics {
        level: 3,
        items: 10,
        new_nodes: 7,
        nodes_total: 42,
        edges_total: 99,
        elapsed_ns: 123_456,
    };
    let v = parse(&level.to_json());
    assert_eq!(u(&v, "level"), 3);
    assert_eq!(u(&v, "items"), 10);
    assert_eq!(u(&v, "new_nodes"), 7);
    assert_eq!(u(&v, "nodes"), 42);
    assert_eq!(u(&v, "edges"), 99);
    assert_eq!(u(&v, "elapsed_ns"), 123_456);
}

#[test]
fn store_metrics_round_trip() {
    let store = StoreMetrics {
        spilled_bytes: 65_536,
        reload_count: 12,
        index_reads: 34,
        hot_hits: 30,
        hot_misses: 10,
        spill_write_ns: 100,
        spill_read_ns: 200,
    };
    let v = parse(&store.to_json());
    assert_eq!(u(&v, "spilled_bytes"), 65_536);
    assert_eq!(u(&v, "reload_count"), 12);
    assert_eq!(u(&v, "index_reads"), 34);
    assert_eq!(u(&v, "hot_hits"), 30);
    assert_eq!(u(&v, "hot_misses"), 10);
    let rate = v.get("hot_hit_rate").and_then(JsonValue::as_f64).unwrap();
    assert!((rate - 0.75).abs() < 1e-9, "hot_hit_rate {rate}");
}

#[test]
fn interner_stats_round_trip() {
    let stats = InternerStats {
        object_states: 100,
        proc_states: 50,
        requests: 1000,
        hits: 900,
        table_bytes: 4096,
        state_bytes: 1024,
    };
    let v = parse(&stats.to_json());
    assert_eq!(u(&v, "object_states"), 100);
    assert_eq!(u(&v, "proc_states"), 50);
    assert_eq!(u(&v, "table_bytes"), 4096);
    assert_eq!(u(&v, "state_bytes"), 1024);
    assert_eq!(u(&v, "bytes_saved"), stats.bytes_saved());
    let rate = v.get("hit_rate").and_then(JsonValue::as_f64).unwrap();
    assert!((rate - 0.9).abs() < 1e-4, "hit_rate {rate}");
}

/// A fully-populated snapshot: every optional branch (levels, store,
/// truncation) on at once.
fn busy_metrics() -> ExploreMetrics {
    ExploreMetrics {
        expand_ns: 11,
        canonicalize_ns: 12,
        por_ns: 13,
        dedup_ns: 14,
        merge_ns: 15,
        freeze_ns: 16,
        freeze_calls: 1,
        total_ns: 200,
        timed: true,
        configs: 1000,
        edges: 2500,
        generated: 3000,
        dedup_hits: 2000,
        added: 1000,
        capped: 0,
        symmetry_hits: 5,
        sleep_pruned: 6,
        expansions: 999,
        memo_lookups: 700,
        memo_hits: 650,
        memo_entries: 42,
        levels: vec![
            LevelMetrics {
                level: 0,
                items: 1,
                new_nodes: 3,
                nodes_total: 4,
                edges_total: 3,
                elapsed_ns: 10,
            },
            LevelMetrics {
                level: 1,
                items: 3,
                new_nodes: 996,
                nodes_total: 1000,
                edges_total: 2500,
                elapsed_ns: 20,
            },
        ],
        peak_bytes: 123_456,
        store: Some(StoreMetrics {
            spilled_bytes: 777,
            ..Default::default()
        }),
        truncation: TruncationCause::MaxConfigs { cap: 1000 },
    }
}

#[test]
fn explore_metrics_round_trip() {
    let v = parse(&busy_metrics().to_json());
    assert_eq!(u(&v, "configs"), 1000);
    assert_eq!(u(&v, "edges"), 2500);
    assert_eq!(u(&v, "peak_bytes"), 123_456);
    assert_eq!(u(&v, "memo_lookups"), 700);
    assert_eq!(u(&v, "memo_hits"), 650);
    assert_eq!(u(&v, "memo_entries"), 42);
    assert_eq!(v.get("timed").and_then(JsonValue::as_bool), Some(true));
    let phases = v.get("phases").expect("phases object");
    assert_eq!(u(phases, "total_ns"), 200);
    assert_eq!(u(phases, "other_ns"), 200 - (11 + 12 + 13 + 14 + 15 + 16));
    assert_eq!(u(phases, "freeze_calls"), 1);
    assert!(phases.get("reverse_csr_ns").is_none());
    let levels = v.get("levels").and_then(JsonValue::as_array).unwrap();
    assert_eq!(levels.len(), 2);
    assert_eq!(u(&levels[1], "nodes"), 1000);
    let trunc = v.get("truncation").expect("truncation object");
    assert_eq!(
        trunc.get("cause").and_then(JsonValue::as_str),
        Some("max_configs")
    );
    assert_eq!(u(trunc, "cap"), 1000);
    assert_eq!(u(v.get("store").unwrap(), "spilled_bytes"), 777);
}

#[test]
fn explore_metrics_null_branches() {
    let metrics = ExploreMetrics::default();
    let v = parse(&metrics.to_json());
    assert!(v.get("truncation").unwrap().is_null(), "Complete => null");
    assert!(v.get("store").unwrap().is_null(), "memory store => null");
    assert!(v
        .get("levels")
        .and_then(JsonValue::as_array)
        .unwrap()
        .is_empty());
    let budget = ExploreMetrics {
        truncation: TruncationCause::MemoryBudget { budget: 4096 },
        ..Default::default()
    };
    let v = parse(&budget.to_json());
    let trunc = v.get("truncation").unwrap();
    assert_eq!(
        trunc.get("cause").and_then(JsonValue::as_str),
        Some("memory_budget")
    );
    assert_eq!(u(trunc, "budget"), 4096);
}

#[test]
fn run_record_round_trip() {
    let record = RunRecord {
        spec_hash: 0x0123_4567_89ab_cdef,
        started_unix_ms: 1_700_000_000_000,
        ended_unix_ms: 1_700_000_001_500,
        git_revision: "abc123def456".to_string(),
        options_json: "{\"max_configs\": 200000, \"threads\": 4}".to_string(),
        outcome_json: "{\"kind\": \"graph\", \"configs\": 42, \"edges\": 99, \
                       \"terminals\": 3, \"truncated\": false}"
            .to_string(),
        metrics_json: busy_metrics().to_json(),
    };
    let v = parse(&record.to_json());
    assert_eq!(
        v.get("spec_hash").and_then(JsonValue::as_str),
        Some("0123456789abcdef"),
        "spec hash must be the 16-hex-digit string form (u64s overflow JSON numbers)"
    );
    assert_eq!(u(&v, "started_unix_ms"), 1_700_000_000_000);
    assert_eq!(u(&v, "ended_unix_ms"), 1_700_000_001_500);
    assert_eq!(
        v.get("git_revision").and_then(JsonValue::as_str),
        Some("abc123def456")
    );
    assert!(v.get("env").and_then(JsonValue::as_object).is_some());
    assert_eq!(u(v.get("options").unwrap(), "threads"), 4);
    assert_eq!(
        v.get("outcome")
            .unwrap()
            .get("kind")
            .and_then(JsonValue::as_str),
        Some("graph")
    );
    assert_eq!(u(v.get("metrics").unwrap(), "configs"), 1000);
}

#[test]
fn run_log_appends_parseable_lines() {
    let dir = std::env::temp_dir().join(format!("mc_rt_runlog_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("runs.jsonl");
    let rec = Recorder::new().with_run_log(&path);
    let record = RunRecord {
        spec_hash: 7,
        started_unix_ms: 1,
        ended_unix_ms: 2,
        git_revision: "r".to_string(),
        options_json: "{}".to_string(),
        outcome_json: "{\"kind\": \"graph\"}".to_string(),
        metrics_json: ExploreMetrics::default().to_json(),
    };
    rec.append_run_record(&record);
    rec.append_run_record(&record);
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one JSONL line per record");
    for line in lines {
        let v = parse(line);
        assert_eq!(
            v.get("spec_hash").and_then(JsonValue::as_str),
            Some("0000000000000007")
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn status_file_round_trip() {
    let dir = std::env::temp_dir().join(format!("mc_rt_status_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("status.json");
    let rec = Recorder::new().with_status_file(&path);
    rec.finalize_status(1234);
    let text = std::fs::read_to_string(&path).unwrap();
    let v = parse(&text);
    assert_eq!(v.get("state").and_then(JsonValue::as_str), Some("done"));
    assert_eq!(u(&v, "explored"), 1234);
    assert_eq!(u(&v, "frontier"), 0);
    assert_eq!(u(&v, "bound_remaining"), 0);
    assert_eq!(u(&v, "pid"), u64::from(std::process::id()));
    assert!(v.get("eta_secs").and_then(JsonValue::as_f64).is_some());
    // The atomic-rename protocol must leave no temp file behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warn_once_fires_at_most_once_per_key() {
    assert!(warn_once("rt_test_key", "first"), "first call emits");
    assert!(!warn_once("rt_test_key", "second"), "second call is silent");
    assert!(!warn_once("rt_test_key", "third"), "and stays silent");
    assert!(
        warn_once("rt_test_other_key", "other"),
        "distinct keys are independent"
    );
}
