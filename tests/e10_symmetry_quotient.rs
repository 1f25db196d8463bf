//! E10 (symmetry reduction): the orbit-quotient graph produced by
//! `ExploreOptions::with_symmetry(true)` must agree with the full graph on
//! every analysis verdict — initial valence, bivalence, wait-freedom,
//! agreement bounds, terminal decision sets and critical-configuration
//! existence — while visiting strictly fewer configurations on the
//! symmetric fixtures.

use std::sync::Arc;

use subconsensus_core::GroupedObject;
use subconsensus_modelcheck::{
    check_wait_freedom, find_critical, max_distinct_decisions, ExploreOptions, StateGraph,
    StoreBackend, TerminalReport, Valency,
};
use subconsensus_objects::{Consensus, SetConsensus};
use subconsensus_protocols::{PartitionPropose, ProposeDecide};
use subconsensus_sim::{
    Action, ObjId, ObjectSpec, Op, Pid, ProcCtx, Protocol, ProtocolError, StateInterner,
    SymmetryGroups, SystemBuilder, SystemSpec, Value,
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

/// Proposes its input, which its start state carries, then decides the
/// answer: processes with different inputs start in different states.
#[derive(Debug)]
struct ProposeOwnInput {
    obj: ObjId,
}

impl Protocol for ProposeOwnInput {
    fn start(&self, ctx: &ProcCtx) -> Value {
        Value::tup([Value::Int(0), ctx.input.clone()])
    }

    fn step(
        &self,
        _ctx: &ProcCtx,
        local: &Value,
        resp: Option<&Value>,
    ) -> Result<Action, ProtocolError> {
        let Value::Tup(parts) = local else {
            return Err(ProtocolError::new("corrupt local state"));
        };
        match parts[0].as_int() {
            Some(0) => Ok(Action::invoke(
                Value::tup([Value::Int(1), parts[1].clone()]),
                self.obj,
                Op::unary("propose", parts[1].clone()),
            )),
            _ => Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil))),
        }
    }
}

/// Inputs 3, 2, 1 in one explicit symmetry group: the initial process
/// states descend, so the root itself is not canonical.
fn descending_inputs_sym() -> SystemSpec {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(Consensus::bounded(3));
    let p: Arc<dyn Protocol> = Arc::new(ProposeOwnInput { obj });
    b.add_processes(p, [3, 2, 1].into_iter().map(Value::Int));
    b.set_symmetry_groups(SymmetryGroups::new([(0..3).map(Pid::new)]));
    b.build()
}

fn explore_pair(spec: &SystemSpec) -> (StateGraph, StateGraph) {
    let full = StateGraph::explore(spec, &ExploreOptions::default()).expect("full explore");
    let quot = StateGraph::explore(spec, &ExploreOptions::default().with_symmetry(true))
        .expect("quotient explore");
    assert!(!full.is_truncated());
    assert!(!quot.is_truncated());
    (full, quot)
}

/// Every graph-level verdict the repo's analyses produce must be identical
/// on the full graph and its orbit quotient: the quotiented permutations are
/// automorphisms, and each checked property is permutation-invariant.
fn assert_verdicts_agree(full: &StateGraph, quot: &StateGraph, label: &str) {
    // Wait-freedom (acyclicity + all terminals decide).
    assert_eq!(
        check_wait_freedom(full).is_wait_free(),
        check_wait_freedom(quot).is_wait_free(),
        "{label}: wait-freedom"
    );
    // Agreement bound: worst-case number of distinct decisions.
    assert_eq!(
        max_distinct_decisions(full),
        max_distinct_decisions(quot),
        "{label}: max distinct decisions"
    );
    // Terminal structure. Decision *sets* are pid-free, so the quotient
    // must reproduce them exactly (not just up to renaming).
    let rf = TerminalReport::of(full);
    let rq = TerminalReport::of(quot);
    assert_eq!(rf.decision_sets, rq.decision_sets, "{label}: decision sets");
    assert_eq!(
        rf.all_processes_decide, rq.all_processes_decide,
        "{label}: all decide"
    );
    assert_eq!(rf.any_hung, rq.any_hung, "{label}: hung terminals");
    assert_eq!(
        (rf.min_distinct_decisions, rf.max_distinct_decisions),
        (rq.min_distinct_decisions, rq.max_distinct_decisions),
        "{label}: decision counts"
    );
    // Valency of the initial configuration (node 0 in both graphs): the
    // reachable decided-value sets coincide, hence so does bivalence.
    let vf = Valency::compute(full);
    let vq = Valency::compute(quot);
    assert_eq!(vf.valence(0), vq.valence(0), "{label}: initial valence");
    assert_eq!(
        vf.is_bivalent(0),
        vq.is_bivalent(0),
        "{label}: initial bivalence"
    );
    // Critical-configuration existence is preserved by the quotient.
    assert_eq!(
        find_critical(full, &vf).is_some(),
        find_critical(quot, &vq).is_some(),
        "{label}: critical config existence"
    );
}

#[test]
fn quotient_matches_full_verdicts_on_e1_fixtures() {
    for (label, spec) in [
        ("e1 sym p3", grouped_system_sym(2, 1, 3)),
        ("e1 distinct p3", grouped_system(2, 1, 3)),
        ("e1 sym n3 p3", grouped_system_sym(3, 0, 3)),
    ] {
        let (full, quot) = explore_pair(&spec);
        assert_verdicts_agree(&full, &quot, label);
    }
}

#[test]
fn quotient_matches_full_verdicts_on_e4_fixtures() {
    for (label, spec) in [
        ("e4 partition p3", partition_system(3, 2, 1)),
        ("e4 partition sym p4", partition_system_sym(4, 2, 1)),
    ] {
        let (full, quot) = explore_pair(&spec);
        assert_verdicts_agree(&full, &quot, label);
    }
}

#[test]
fn quotient_shrinks_symmetric_graphs_and_preserves_trivial_ones() {
    // Acceptance criterion: on the headline symmetric fixture the quotient
    // visits at most half the configurations of the full graph.
    let spec = grouped_system_sym(2, 1, 3);
    let (full, quot) = explore_pair(&spec);
    assert!(
        2 * quot.len() <= full.len(),
        "quotient {} vs full {}: expected ≤ 1/2",
        quot.len(),
        full.len()
    );

    // Distinct inputs ⇒ trivial symmetry ⇒ the quotient IS the full graph.
    let spec = grouped_system(2, 1, 3);
    let (full, quot) = explore_pair(&spec);
    assert_eq!(quot.len(), full.len());

    // Pid-dependent protocol without an override: the automatic-grouping
    // guard must keep symmetry trivial rather than unsoundly reducing.
    let spec = partition_system(3, 2, 1);
    assert!(spec.symmetry_groups().is_trivial());
    let (full, quot) = explore_pair(&spec);
    assert_eq!(quot.len(), full.len());
}

#[test]
fn quotient_matches_reference_explorer() {
    // The id-space canonicalization must pick the same orbit
    // representatives, in the same order, as the naive reference BFS that
    // canonicalizes deep `Config`s — node for node, for every thread
    // count and under a truncating configuration bound — so every
    // verdict derived from the quotient is the reference's, not merely an
    // isomorphic one.
    for (label, spec) in [
        ("e1 sym p3", grouped_system_sym(2, 1, 3)),
        ("e1 distinct p3", grouped_system(2, 1, 3)),
        ("e4 partition sym p4", partition_system_sym(4, 2, 1)),
        ("non-canonical root p3", descending_inputs_sym()),
    ] {
        for symmetry in [false, true] {
            let full = reference::explore(&spec, symmetry, usize::MAX);
            for max_configs in [usize::MAX, full.configs.len() / 2] {
                let r = reference::explore(&spec, symmetry, max_configs);
                for threads in [1usize, 4] {
                    let opts = ExploreOptions::with_max_configs(max_configs)
                        .with_symmetry(symmetry)
                        .with_threads(threads);
                    let g = StateGraph::explore(&spec, &opts).expect("explore");
                    reference::assert_matches(
                        &g,
                        &r,
                        &format!(
                            "{label} (symmetry={symmetry} cap={max_configs} x{threads} threads)"
                        ),
                    );
                }
            }
        }
    }
}

#[test]
fn disk_store_quotient_identical() {
    // The disk-backed store must commute with the symmetry quotient: orbit
    // canonicalization runs in id space, and eviction never moves ids, so a
    // 4 KiB hot tier produces the same quotient graph as unbounded memory —
    // with the level expansion split across threads or not.
    for (label, spec) in [
        ("e1 sym p3", grouped_system_sym(2, 1, 3)),
        ("e4 partition sym p4", partition_system_sym(4, 2, 1)),
        ("non-canonical root p3", descending_inputs_sym()),
    ] {
        for symmetry in [false, true] {
            let opts = ExploreOptions::default().with_symmetry(symmetry);
            let base = StateGraph::explore(&spec, &opts.clone().with_store(StoreBackend::Memory))
                .expect("memory explore");
            for threads in [1usize, 4] {
                let g = StateGraph::explore(
                    &spec,
                    &opts
                        .clone()
                        .with_threads(threads)
                        .with_store(StoreBackend::Disk)
                        .with_store_budget(4 << 10),
                )
                .expect("disk explore");
                let label = format!("{label} (symmetry={symmetry} disk x{threads} threads)");
                assert_eq!(base.len(), g.len(), "{label}: node count");
                for i in 0..base.len() {
                    assert_eq!(base.config(i), g.config(i), "{label}: node {i}");
                    assert_eq!(base.edges(i), g.edges(i), "{label}: edges of {i}");
                }
                assert_eq!(base.terminals(), g.terminals(), "{label}: terminals");
                assert_verdicts_agree(&base, &g, &label);
            }
        }
    }
}

#[test]
fn large_symmetric_fixture_tractable_only_with_symmetry() {
    // 8 equal-input proposers: the full graph (6561 configs) blows through
    // the cap, while the quotient completes comfortably under it.
    let spec = grouped_system_sym(2, 3, 8);
    let opts = ExploreOptions::with_max_configs(2_000);
    let full = StateGraph::explore(&spec, &opts).expect("full explore");
    assert!(full.is_truncated(), "full graph should exceed the cap");
    let quot = StateGraph::explore(&spec, &opts.with_symmetry(true)).expect("quotient explore");
    assert!(
        !quot.is_truncated(),
        "quotient should complete under the cap"
    );
    assert!(quot.len() <= 100, "quotient stays tiny: {}", quot.len());
    // The truncated full graph yields no verdicts; the quotient does.
    assert!(check_wait_freedom(&quot).is_wait_free());
    assert_eq!(max_distinct_decisions(&quot), 1);
}

#[test]
fn non_canonical_root_is_canonicalized() {
    // The explorer interns the root and sorts it in id space; node 0 must
    // be the deep sort's representative. (The reference and disk-store
    // tests above cover the rest of this fixture's graph.)
    let spec = descending_inputs_sym();
    let init = spec.initial_config();
    let canon = spec.canonicalize_config(init.clone());
    assert_ne!(canon, init, "the fixture's root must not be canonical");
    let g = StateGraph::explore(&spec, &ExploreOptions::default().with_symmetry(true))
        .expect("explore");
    let mut interner = StateInterner::new();
    assert_eq!(
        interner.intern_config(&g.config(0)),
        interner.intern_config(&canon),
        "node 0"
    );
}
