//! Valency analysis: which values can still be decided from a configuration.
//!
//! This mechanizes the FLP/Herlihy critical-configuration method on concrete
//! protocols: the *valence* of a configuration is the set of values decided
//! in some reachable final configuration; a configuration is **bivalent** if
//! its valence has at least two values, **univalent** if exactly one, and
//! **critical** if it is bivalent while all of its one-step successors are
//! univalent.

use std::collections::BTreeSet;

use subconsensus_sim::{Pid, Value};

use crate::graph::StateGraph;

/// The valence of every reachable configuration of a [`StateGraph`].
#[derive(Clone, Debug)]
pub struct Valency {
    sets: Vec<BTreeSet<Value>>,
}

impl Valency {
    /// Computes the valence of every node of `graph` by backward fixpoint
    /// propagation from the final configurations (cycles are handled by the
    /// fixpoint, monotonically).
    ///
    /// On an orbit-quotient graph (explored with
    /// [`ExploreOptions::symmetry`](crate::ExploreOptions)) this computes the
    /// valence of each orbit representative, which equals the valence of
    /// every member of the orbit: within-group permutations fix the
    /// decided-value *sets* (processes are renamed, the multiset of decisions
    /// is not), so valence is constant on orbits.
    ///
    /// On a partial-order-reduced graph (explored with
    /// [`ExploreOptions::por`](crate::ExploreOptions)) only the *root*
    /// valence is trustworthy: POR reaches every terminal, so node 0 sees
    /// the full decided-value spectrum, but an interior node may be missing
    /// pruned successors and its computed valence can be a strict subset of
    /// its true valence. [`find_critical`] therefore rejects reduced graphs.
    pub fn compute(graph: &StateGraph) -> Self {
        let n = graph.len();
        let mut sets: Vec<BTreeSet<Value>> = vec![BTreeSet::new(); n];
        for &t in graph.terminals() {
            sets[t] = graph.node(t).decided_values().into_iter().collect();
        }
        // Reverse adjacency for worklist propagation: one flat CSR pass
        // instead of per-node `Vec`s (see [`StateGraph::reverse_csr`]).
        let (pred_ptr, preds) = graph.reverse_csr();
        // Dirty-bit worklist: a node is queued at most once per time its set
        // grows, and the popped set is moved out (not cloned) while its
        // predecessors are updated.
        let mut queued = vec![false; n];
        let mut work: Vec<usize> = graph.terminals().to_vec();
        for &t in &work {
            queued[t] = true;
        }
        while let Some(j) = work.pop() {
            queued[j] = false;
            let vals = std::mem::take(&mut sets[j]);
            for &p in &preds[pred_ptr[j] as usize..pred_ptr[j + 1] as usize] {
                let p = p as usize;
                if p == j {
                    continue; // self-loop: nothing new to propagate
                }
                let before = sets[p].len();
                sets[p].extend(vals.iter().cloned());
                if sets[p].len() > before && !queued[p] {
                    queued[p] = true;
                    work.push(p);
                }
            }
            sets[j] = vals;
        }
        Valency { sets }
    }

    /// Returns the valence of node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn valence(&self, index: usize) -> &BTreeSet<Value> {
        &self.sets[index]
    }

    /// Returns `true` if node `index` has at least two decidable values.
    pub fn is_bivalent(&self, index: usize) -> bool {
        self.sets[index].len() >= 2
    }

    /// Returns `true` if node `index` has exactly one decidable value.
    pub fn is_univalent(&self, index: usize) -> bool {
        self.sets[index].len() == 1
    }
}

/// A critical configuration found by [`find_critical`].
#[derive(Clone, Debug)]
pub struct CriticalConfig {
    /// Node index of the critical configuration.
    pub index: usize,
    /// For every outgoing edge: the stepping process and the (unique) value
    /// its successor is committed to.
    pub branches: Vec<(Pid, Value)>,
}

/// Finds a critical configuration: bivalent, with every one-step successor
/// univalent.
///
/// For a correct wait-free consensus protocol over objects of limited power,
/// the paper's Section-6-style argument derives a contradiction *at* such a
/// configuration; this function exhibits the configurations on which those
/// hand arguments operate. Returns `None` if the graph has no critical
/// configuration (e.g. the protocol is not a consensus protocol, or some
/// successor is itself bivalent everywhere).
///
/// On an orbit-quotient graph, a returned configuration witnesses a whole
/// orbit of critical configurations of the full graph (valence is constant
/// on orbits and permutations map successors to successors), and `None`
/// means the full graph has none either.
///
/// # Panics
///
/// Panics if `graph` was explored under
/// [`ExploreGoal::Verdict`](crate::ExploreGoal) (no CSR, possibly
/// early-exited — re-explore with `ExploreGoal::FullGraph`), or with
/// partial-order reduction
/// ([`ExploreOptions::por`](crate::ExploreOptions)). POR preserves the
/// terminals (hence the root valence), but an interior node of the reduced
/// graph is missing the successors the reduction pruned — its computed
/// valence can shrink and the "every successor univalent" test is
/// meaningless against a partial successor list. Criticality is a property
/// of the *full* graph; re-explore with `ExploreOptions::with_por(false)`.
pub fn find_critical(graph: &StateGraph, valency: &Valency) -> Option<CriticalConfig> {
    assert!(
        !graph.is_verdict_only(),
        "find_critical requires a fully expanded graph: this graph was explored under \
         ExploreGoal::Verdict, which skips the CSR freeze and may stop exploring at the \
         first refutation, so interior valences and successor lists do not exist. \
         Re-explore with ExploreGoal::FullGraph."
    );
    assert!(
        !graph.is_por_reduced(),
        "find_critical requires a fully expanded graph: partial-order reduction preserves \
         root valence and terminal verdicts but not interior valences or successor lists, \
         so critical configurations cannot be identified on a reduced graph. \
         Re-explore with ExploreOptions::with_por(false)."
    );
    'node: for i in 0..graph.len() {
        if !valency.is_bivalent(i) {
            continue;
        }
        let edges = graph.edges(i);
        if edges.is_empty() {
            continue;
        }
        let mut branches = Vec::with_capacity(edges.len());
        for e in edges {
            if !valency.is_univalent(e.target()) {
                continue 'node;
            }
            let v = valency
                .valence(e.target())
                .iter()
                .next()
                .expect("univalent set has one element")
                .clone();
            branches.push((e.pid, v));
        }
        return Some(CriticalConfig { index: i, branches });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ExploreOptions;
    use std::sync::Arc;
    use subconsensus_sim::{
        Action, ObjId, ObjectError, ObjectSpec, Op, Outcome, ProcCtx, Protocol, ProtocolError,
        SystemBuilder, SystemSpec, Value,
    };

    /// A consensus (sticky) object.
    #[derive(Debug)]
    struct Sticky;

    impl ObjectSpec for Sticky {
        fn type_name(&self) -> &'static str {
            "sticky"
        }

        fn initial_state(&self) -> Value {
            Value::Nil
        }

        fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
            let v = op.arg(0).cloned().unwrap_or(Value::Nil);
            let winner = if state.is_nil() { v } else { state.clone() };
            Ok(vec![Outcome::ret(winner.clone(), winner)])
        }
    }

    /// Propose to the sticky object, decide the answer.
    #[derive(Debug)]
    struct ProposeDecide {
        obj: ObjId,
    }

    impl Protocol for ProposeDecide {
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
                    self.obj,
                    Op::unary("propose", ctx.input.clone()),
                )),
                _ => Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil))),
            }
        }
    }

    fn sticky_consensus(nprocs: usize) -> SystemSpec {
        let mut b = SystemBuilder::new();
        let obj = b.add_object(Sticky);
        let p = Arc::new(ProposeDecide { obj });
        for i in 0..nprocs {
            b.add_process(p.clone(), Value::Int(i as i64));
        }
        b.build()
    }

    #[test]
    fn initial_config_of_consensus_race_is_bivalent() {
        let spec = sticky_consensus(2);
        let g = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
        let v = Valency::compute(&g);
        assert!(v.is_bivalent(0), "either input can win from the start");
        // All terminals: exactly one value decided (agreement).
        for &t in g.terminals() {
            assert_eq!(g.config(t).decided_values().len(), 1);
            assert!(v.is_univalent(t));
        }
    }

    #[test]
    fn critical_config_exists_for_consensus_race() {
        let spec = sticky_consensus(2);
        let g = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
        let v = Valency::compute(&g);
        let crit = find_critical(&g, &v).expect("a sticky race has a critical configuration");
        // The initial configuration is critical here: both processes' next
        // step is the propose that commits the value.
        assert!(v.is_bivalent(crit.index));
        let vals: BTreeSet<Value> = crit.branches.iter().map(|(_, v)| v.clone()).collect();
        assert_eq!(vals.len(), 2, "different branches commit different values");
    }

    #[test]
    fn solo_runs_are_univalent_everywhere() {
        let spec = sticky_consensus(1);
        let g = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
        let v = Valency::compute(&g);
        for i in 0..g.len() {
            assert!(v.is_univalent(i));
        }
        assert!(find_critical(&g, &v).is_none());
    }
}
