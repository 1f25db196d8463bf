//! E11 (partial-order reduction): the reduced graph produced by
//! `ExploreOptions::with_por(true)` must agree with the full graph on every
//! terminal-derived verdict — wait-freedom, non-blocking, agreement bounds,
//! terminal decision sets and the initial valence — while visiting at most
//! half the configurations and strictly fewer edges on the
//! interleaving-heavy fixtures, both alone and composed with the symmetry
//! quotient. Interior valences are *not* preserved, so `find_critical`
//! rejects reduced graphs with a hard error.

use std::sync::Arc;

use subconsensus_core::GroupedObject;
use subconsensus_modelcheck::{
    check_nonblocking, check_wait_freedom, find_critical, max_distinct_decisions, ExploreOptions,
    StateGraph, StoreBackend, TerminalReport, Valency,
};
use subconsensus_objects::{Consensus, SetConsensus};
use subconsensus_protocols::{PartitionPropose, ProposeDecide};
use subconsensus_sim::{
    ObjectSpec, Pid, Protocol, SymmetryGroups, SystemBuilder, SystemSpec, Value,
};

mod reference;

// Local copies of the bench fixtures (the root package does not depend on
// the bench crate), mirroring `subconsensus_bench::{grouped_system,
// grouped_system_sym, partition_system, partition_system_sym}`.

fn grouped_system(n: usize, k: usize, procs: usize) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(GroupedObject::for_level(n, k));
    let p: Arc<dyn Protocol> = Arc::new(ProposeDecide::new(obj));
    b.add_processes(p, (0..procs).map(|i| Value::Int(i as i64 + 1)));
    b.build()
}

fn grouped_system_sym(n: usize, k: usize, procs: usize) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(GroupedObject::for_level(n, k));
    let p: Arc<dyn Protocol> = Arc::new(ProposeDecide::new(obj));
    b.add_processes(p, (0..procs).map(|_| Value::Int(1)));
    b.build()
}

fn partition_system(procs: usize, m: usize, j: usize) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let blocks = procs.div_ceil(m);
    let base = b.add_object_array(blocks, |_| {
        if j == 1 {
            Box::new(Consensus::bounded(m)) as Box<dyn ObjectSpec>
        } else {
            Box::new(SetConsensus::new(m, j).expect("0 < j < m")) as Box<dyn ObjectSpec>
        }
    });
    let p: Arc<dyn Protocol> = Arc::new(PartitionPropose::new(base, m));
    b.add_processes(p, (0..procs).map(|i| Value::Int(i as i64 + 1)));
    b.build()
}

fn partition_system_sym(procs: usize, m: usize, j: usize) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let blocks = procs.div_ceil(m);
    let base = b.add_object_array(blocks, |_| {
        if j == 1 {
            Box::new(Consensus::bounded(m)) as Box<dyn ObjectSpec>
        } else {
            Box::new(SetConsensus::new(m, j).expect("0 < j < m")) as Box<dyn ObjectSpec>
        }
    });
    let p: Arc<dyn Protocol> = Arc::new(PartitionPropose::new(base, m));
    b.add_processes(p, (0..procs).map(|i| Value::Int((i / m) as i64 + 1)));
    b.set_symmetry_groups(SymmetryGroups::new((0..blocks).map(|blk| {
        (0..procs)
            .filter(move |i| i / m == blk)
            .map(Pid::new)
            .collect::<Vec<_>>()
    })));
    b.build()
}

fn explore_pair(spec: &SystemSpec, symmetry: bool) -> (StateGraph, StateGraph) {
    let base = ExploreOptions::default().with_symmetry(symmetry);
    let full = StateGraph::explore(spec, &base).expect("full explore");
    let red = StateGraph::explore(spec, &base.with_por(true)).expect("reduced explore");
    assert!(!full.is_truncated());
    assert!(!red.is_truncated());
    assert!(!full.is_por_reduced());
    assert!(red.is_por_reduced());
    (full, red)
}

/// Every terminal-derived verdict must be identical on the full graph and
/// its partial-order reduction: the reduction only prunes interleavings of
/// commuting steps, so every Mazurkiewicz trace — and with it every
/// terminal configuration — survives, and the cycle proviso keeps every
/// cycle reachable in the reduced graph.
fn assert_verdicts_agree(full: &StateGraph, red: &StateGraph, label: &str) {
    // Wait-freedom (acyclicity + all terminals decide) — the full verdict,
    // not just the boolean: Diverges/Hangs/Stuck must round-trip too.
    assert_eq!(
        check_wait_freedom(full),
        check_wait_freedom(red),
        "{label}: wait-freedom"
    );
    // Non-blocking: backward terminal reachability. The never-strand rule
    // guarantees reduced non-terminal nodes keep outgoing edges.
    assert_eq!(
        check_nonblocking(full),
        check_nonblocking(red),
        "{label}: non-blocking"
    );
    // Agreement bound: worst-case number of distinct decisions.
    assert_eq!(
        max_distinct_decisions(full),
        max_distinct_decisions(red),
        "{label}: max distinct decisions"
    );
    // Terminal structure, exactly: POR must reach the same terminal set.
    let rf = TerminalReport::of(full);
    let rr = TerminalReport::of(red);
    assert_eq!(rf.decision_sets, rr.decision_sets, "{label}: decision sets");
    assert_eq!(rf.terminals, rr.terminals, "{label}: terminal count");
    assert_eq!(
        rf.all_processes_decide, rr.all_processes_decide,
        "{label}: all decide"
    );
    assert_eq!(rf.any_hung, rr.any_hung, "{label}: hung terminals");
    assert_eq!(
        (rf.min_distinct_decisions, rf.max_distinct_decisions),
        (rr.min_distinct_decisions, rr.max_distinct_decisions),
        "{label}: decision counts"
    );
    // Root valence (node 0 in both graphs): every terminal survives, so
    // the decided-value spectrum of the whole system is unchanged.
    let vf = Valency::compute(full);
    let vr = Valency::compute(red);
    assert_eq!(vf.valence(0), vr.valence(0), "{label}: initial valence");
    assert_eq!(
        vf.is_bivalent(0),
        vr.is_bivalent(0),
        "{label}: initial bivalence"
    );
}

#[test]
fn por_matches_full_verdicts_on_e1_fixtures() {
    for (label, spec) in [
        ("e1 sym p3", grouped_system_sym(2, 1, 3)),
        ("e1 distinct p3", grouped_system(2, 1, 3)),
        ("e1 sym n3 p3", grouped_system_sym(3, 0, 3)),
    ] {
        let (full, red) = explore_pair(&spec, false);
        assert_verdicts_agree(&full, &red, label);
    }
}

#[test]
fn por_matches_full_verdicts_on_e4_fixtures() {
    for (label, spec) in [
        ("e4 partition p3", partition_system(3, 2, 1)),
        ("e4 partition sym p4", partition_system_sym(4, 2, 1)),
        ("e4 partition p6 j2", partition_system(6, 3, 2)),
    ] {
        let (full, red) = explore_pair(&spec, false);
        assert_verdicts_agree(&full, &red, label);
    }
}

#[test]
fn por_composes_with_the_symmetry_quotient() {
    // POR on top of the orbit quotient: prune first, canonicalize second.
    // Verdicts must survive the composition too.
    for (label, spec) in [
        ("e1 sym p3 + sym", grouped_system_sym(2, 1, 3)),
        ("e4 partition sym p4 + sym", partition_system_sym(4, 2, 1)),
    ] {
        let (quot, red) = explore_pair(&spec, true);
        assert_verdicts_agree(&quot, &red, label);
        assert!(red.len() <= quot.len(), "{label}: POR must not grow");
    }
}

#[test]
fn reduction_terminals_match_reference_explorer() {
    // The ample-set choice, sleep-set bookkeeping and wake-up revisits all
    // run in id space on the engine's own rows; whatever they prune, the
    // reduced graph must reach exactly the terminal configurations of the
    // naive reference BFS over the full graph (its quotient, with
    // symmetry), for every thread and shard count.
    for (label, spec) in [
        ("e1 sym p3", grouped_system_sym(2, 1, 3)),
        ("e1 sym n3 p3", grouped_system_sym(3, 0, 3)),
        ("e4 partition p3", partition_system(3, 2, 1)),
        ("e4 partition sym p4", partition_system_sym(4, 2, 1)),
        ("e4 partition p6 j2", partition_system(6, 3, 2)),
    ] {
        for symmetry in [false, true] {
            let r = reference::explore(&spec, symmetry, usize::MAX);
            for threads in [1usize, 4] {
                for shards in [1usize, 2, 4] {
                    let opts = ExploreOptions::default()
                        .with_por(true)
                        .with_symmetry(symmetry)
                        .with_threads(threads)
                        .with_shards(shards);
                    let g = StateGraph::explore(&spec, &opts).expect("explore");
                    let label = format!(
                        "{label} (por, symmetry={symmetry} x{threads} threads x{shards} shards)"
                    );
                    assert!(g.is_por_reduced(), "{label}: reduction flag");
                    assert!(g.len() <= r.configs.len(), "{label}: POR must not grow");
                    reference::assert_same_terminals(&g, &r, &label);
                }
            }
        }
    }
}

#[test]
fn sharded_reduction_identical_across_shard_counts() {
    // All POR decisions — ample choice, sleep-set propagation, revisit
    // wake-ups, cycle-proviso escalations — replay in the sharded
    // explorer's sequential feedback phase in global tag order, so the
    // reduced graph is node-for-node identical for every shard count,
    // alone and composed with the symmetry quotient.
    for (label, spec) in [
        ("e1 sym p3", grouped_system_sym(2, 1, 3)),
        ("e4 partition p3", partition_system(3, 2, 1)),
        ("e4 partition sym p4", partition_system_sym(4, 2, 1)),
    ] {
        for symmetry in [false, true] {
            let opts = ExploreOptions::default()
                .with_por(true)
                .with_symmetry(symmetry);
            let base = StateGraph::explore(&spec, &opts).expect("unsharded explore");
            for shards in [2usize, 4] {
                let g = StateGraph::explore(&spec, &opts.clone().with_shards(shards))
                    .expect("sharded explore");
                let label = format!("{label} (por, symmetry={symmetry} x{shards})");
                assert_eq!(base.len(), g.len(), "{label}: node count");
                for i in 0..base.len() {
                    assert_eq!(base.config(i), g.config(i), "{label}: node {i}");
                    assert_eq!(base.edges(i), g.edges(i), "{label}: edges of {i}");
                }
                assert_eq!(base.terminals(), g.terminals(), "{label}: terminals");
                assert_eq!(
                    base.is_por_reduced(),
                    g.is_por_reduced(),
                    "{label}: reduction flag"
                );
                assert_verdicts_agree(&base, &g, &label);
            }
        }
    }
}

#[test]
fn disk_store_reduction_identical() {
    // POR's sleep sets, ample choices and wake-up revisits all key on node
    // ids, which spill-and-reload never renumbers — so a 4 KiB hot tier
    // reproduces the reduced graph exactly, alone and composed with the
    // symmetry quotient, across shard counts.
    for (label, spec) in [
        ("e1 sym p3", grouped_system_sym(2, 1, 3)),
        ("e4 partition sym p4", partition_system_sym(4, 2, 1)),
    ] {
        for symmetry in [false, true] {
            let opts = ExploreOptions::default()
                .with_por(true)
                .with_symmetry(symmetry);
            let base = StateGraph::explore(&spec, &opts.clone().with_store(StoreBackend::Memory))
                .expect("memory explore");
            for shards in [1usize, 2] {
                let g = StateGraph::explore(
                    &spec,
                    &opts
                        .clone()
                        .with_shards(shards)
                        .with_store(StoreBackend::Disk)
                        .with_store_budget(4 << 10),
                )
                .expect("disk explore");
                let label = format!("{label} (por, symmetry={symmetry} disk x{shards})");
                assert_eq!(base.len(), g.len(), "{label}: node count");
                for i in 0..base.len() {
                    assert_eq!(base.config(i), g.config(i), "{label}: node {i}");
                    assert_eq!(base.edges(i), g.edges(i), "{label}: edges of {i}");
                }
                assert_eq!(base.terminals(), g.terminals(), "{label}: terminals");
                assert_eq!(
                    base.is_por_reduced(),
                    g.is_por_reduced(),
                    "{label}: reduction flag"
                );
                assert_verdicts_agree(&base, &g, &label);
            }
        }
    }
}

#[test]
fn por_halves_the_interleaving_heavy_fixtures() {
    // Acceptance criterion: on the partition fixtures POR explores at most
    // half the configurations and strictly fewer edges, with identical
    // verdicts (checked above).
    for (label, spec) in [
        ("e4 partition p3", partition_system(3, 2, 1)),
        ("e4 partition sym p4", partition_system_sym(4, 2, 1)),
    ] {
        let (full, red) = explore_pair(&spec, false);
        assert!(
            2 * red.len() <= full.len(),
            "{label}: reduced {} vs full {}: expected ≤ 1/2",
            red.len(),
            full.len()
        );
        assert!(
            red.stats().edges < full.stats().edges,
            "{label}: edges must strictly shrink"
        );
    }
}

#[test]
fn interleaving_heavy_fixture_tractable_only_with_por() {
    // 4 disjoint consensus blocks of 2 distinct-input processes: the block
    // interleavings blow the full graph past the cap, while POR serializes
    // the statically-independent blocks and completes. Symmetry cannot
    // help here — the inputs are distinct, so the groups are trivial.
    let spec = partition_system(8, 2, 1);
    assert!(spec.symmetry_groups().is_trivial());
    let opts = ExploreOptions::with_max_configs(2_000);
    let full = StateGraph::explore(&spec, &opts).expect("full explore");
    assert!(full.is_truncated(), "full graph should exceed the cap");
    let red = StateGraph::explore(&spec, &opts.with_por(true)).expect("reduced explore");
    assert!(!red.is_truncated(), "POR should complete under the cap");
    assert!(red.len() <= 200, "reduced graph stays small: {}", red.len());
    // The truncated full graph yields no verdicts; the reduction does.
    assert!(check_wait_freedom(&red).is_wait_free());
    assert_eq!(max_distinct_decisions(&red), 4, "one value per block");

    // And against the uncapped full graph, the verdicts agree exactly.
    let (full, red) = explore_pair(&spec, false);
    assert_verdicts_agree(&full, &red, "e4 partition p8");
}

#[test]
#[should_panic(expected = "partial-order reduction")]
fn find_critical_rejects_reduced_graphs() {
    let spec = grouped_system(2, 1, 3);
    let red = StateGraph::explore(&spec, &ExploreOptions::default().with_por(true))
        .expect("reduced explore");
    let v = Valency::compute(&red);
    let _ = find_critical(&red, &v);
}
