//! E6 (parallel exploration): the level-synchronized parallel BFS must
//! produce a graph node-for-node identical to the sequential one, on the
//! real E1 fixtures (grouped-family systems), for every thread count —
//! and both must match the naive reference explorer in `tests/reference`.

use std::sync::Arc;

use subconsensus_core::GroupedObject;
use subconsensus_modelcheck::{
    check_wait_freedom, ExploreOptions, StateGraph, StoreBackend, Valency,
};
use subconsensus_protocols::ProposeDecide;
use subconsensus_sim::{Protocol, SystemBuilder, SystemSpec, Value};

mod reference;

/// `procs` processes proposing distinct values through one
/// `GroupedObject::for_level(n, k)` — the E1 benchmark fixture.
fn grouped_system(n: usize, k: usize, procs: usize) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(GroupedObject::for_level(n, k));
    let p: Arc<dyn Protocol> = Arc::new(ProposeDecide::new(obj));
    b.add_processes(p, (0..procs).map(|i| Value::Int(i as i64 + 1)));
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
fn parallel_graph_identical_on_grouped_fixtures() {
    for (n, k, procs) in [(2, 0, 2), (2, 1, 3), (3, 0, 3)] {
        let spec = grouped_system(n, k, procs);
        let base = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
        assert!(!base.is_truncated());
        for threads in [2usize, 4, 7] {
            let opts = ExploreOptions::default().with_threads(threads);
            let g = StateGraph::explore(&spec, &opts).unwrap();
            assert_identical(&base, &g, &format!("({n},{k},{procs}) x{threads} threads"));
        }
    }
}

#[test]
fn graph_matches_reference_explorer_across_threads() {
    // The explorer must reproduce the naive `HashMap<Config, usize>`
    // reference BFS node for node — configurations, edges, terminals,
    // truncation — for every thread count, with symmetry requested or
    // not, and under a truncating configuration bound.
    for (n, k, procs) in [(2, 0, 2), (2, 1, 3), (3, 0, 3)] {
        let spec = grouped_system(n, k, procs);
        let full = reference::explore(&spec, false, usize::MAX).configs.len();
        for max_configs in [usize::MAX, full / 2] {
            for symmetry in [false, true] {
                let r = reference::explore(&spec, symmetry, max_configs);
                assert_eq!(r.truncated, max_configs < full);
                for threads in [1usize, 4] {
                    let opts = ExploreOptions::with_max_configs(max_configs)
                        .with_symmetry(symmetry)
                        .with_threads(threads);
                    let g = StateGraph::explore(&spec, &opts).expect("explore");
                    let label = format!(
                        "({n},{k},{procs}) cap={max_configs} sym={symmetry} x{threads} threads"
                    );
                    reference::assert_matches(&g, &r, &label);
                    let stats = g.interner_stats().expect("full graphs keep their arena");
                    assert!(stats.object_states <= g.len(), "{label}");
                }
            }
        }
    }
}

#[test]
fn disk_store_graph_identical_and_reconstituted() {
    // The disk-backed store, forced to spill by a hot-tier budget far
    // below the fixture's footprint, must reproduce the in-memory graph
    // node-for-node — with the level expansion split across threads or
    // not — and the freeze-time reconstitution must land on the exact
    // in-memory representation (same `approx_bytes`, same interner
    // arenas), because arenas are append-only and ids never move under
    // eviction.
    let spec = grouped_system(2, 1, 4);
    let base = StateGraph::explore(
        &spec,
        &ExploreOptions::default().with_store(StoreBackend::Memory),
    )
    .unwrap();
    assert!(base.len() > 500, "fixture must dwarf the tiny budget");
    for threads in [1usize, 4] {
        let opts = ExploreOptions::default()
            .with_threads(threads)
            .with_store(StoreBackend::Disk)
            .with_store_budget(16 << 10);
        let g = StateGraph::explore(&spec, &opts).unwrap();
        assert_identical(&base, &g, &format!("disk x{threads} threads"));
        assert_eq!(
            g.approx_bytes(),
            base.approx_bytes(),
            "{threads} threads: reconstituted store must cost what memory costs"
        );
        let stats = g.interner_stats().expect("disk store is interned");
        let base_stats = base.interner_stats().unwrap();
        assert_eq!(stats.object_states, base_stats.object_states);
        assert_eq!(stats.proc_states, base_stats.proc_states);
        let sm = g.metrics().store.expect("disk runs report store metrics");
        assert!(
            sm.spilled_bytes > 0,
            "{threads} threads: a 16 KiB budget must force spill"
        );
    }
}

#[test]
fn analyses_agree_across_thread_counts() {
    let spec = grouped_system(2, 1, 3);
    let seq = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
    let par = StateGraph::explore(&spec, &ExploreOptions::default().with_threads(4)).unwrap();
    // Downstream analyses see the same graph, so their verdicts match
    // exactly (not just up to isomorphism).
    assert_eq!(
        check_wait_freedom(&seq).is_wait_free(),
        check_wait_freedom(&par).is_wait_free()
    );
    let vseq = Valency::compute(&seq);
    let vpar = Valency::compute(&par);
    for i in 0..seq.len() {
        assert_eq!(vseq.valence(i), vpar.valence(i), "valency of node {i}");
    }
}
