//! Whole-graph properties: wait-freedom, agreement bounds, terminal reports.
//!
//! Every check in this module is graph-generic and permutation-invariant, so
//! it can be run unchanged on an orbit-quotient graph (explored with
//! [`ExploreOptions::symmetry`](crate::ExploreOptions)) and returns the same
//! verdict as on the full graph: terminals quotient onto terminals with the
//! same decided-value sets, any cycle of the full graph projects onto a
//! cycle of the quotient (and lifts back), and backward reachability is
//! preserved because within-group permutations are graph automorphisms.

use std::collections::BTreeSet;

use subconsensus_sim::Value;

use crate::graph::StateGraph;

/// Summary of the final configurations of an exhaustively explored system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TerminalReport {
    /// Number of distinct final configurations.
    pub terminals: usize,
    /// `true` if in every final configuration every process decided.
    pub all_processes_decide: bool,
    /// `true` if some final configuration contains a hung process.
    pub any_hung: bool,
    /// The distinct decision *sets* (one sorted set per terminal).
    pub decision_sets: BTreeSet<Vec<Value>>,
    /// The maximum number of distinct decided values over all terminals.
    pub max_distinct_decisions: usize,
    /// The minimum number of distinct decided values over all terminals.
    pub min_distinct_decisions: usize,
}

impl TerminalReport {
    /// Computes the report from an explored graph.
    ///
    /// Terminal probes are id-native: each terminal is classified straight
    /// from its id row, by the same function the streaming verdict engine
    /// uses, with no per-terminal `Config` materialization.
    pub fn of(graph: &StateGraph) -> Self {
        let terminals = graph.terminals();
        let mut all_processes_decide = !terminals.is_empty();
        let mut any_hung = false;
        let mut decision_sets = BTreeSet::new();
        for &t in terminals {
            let facts = graph.node(t).terminal_facts();
            all_processes_decide &= facts.all_decided;
            any_hung |= facts.any_hung;
            decision_sets.insert(facts.decided);
        }
        let sizes = || decision_sets.iter().map(Vec::len);
        TerminalReport {
            terminals: terminals.len(),
            all_processes_decide,
            any_hung,
            max_distinct_decisions: sizes().max().unwrap_or(0),
            min_distinct_decisions: sizes().min().unwrap_or(0),
            decision_sets,
        }
    }
}

/// The verdict of a wait-freedom check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaitFreedom {
    /// Every execution is finite and every process decides in every final
    /// configuration.
    WaitFree,
    /// The configuration graph has a cycle: some adversary schedule lets a
    /// process take infinitely many steps without deciding.
    Diverges,
    /// Some execution leaves a process hung inside an object.
    Hangs,
    /// Some final configuration has an undecided (but not hung) process —
    /// should not happen for well-formed protocols.
    Stuck,
}

impl WaitFreedom {
    /// Returns `true` for the [`WaitFreedom::WaitFree`] verdict.
    pub fn is_wait_free(&self) -> bool {
        matches!(self, WaitFreedom::WaitFree)
    }

    /// The refuting verdict, in precedence order Diverges → Hangs → Stuck,
    /// or `None` when nothing refutes wait-freedom. Shared by
    /// [`check_wait_freedom`] and the streaming verdict engine.
    pub(crate) fn refuted(cycle: bool, any_hung: bool, any_stuck: bool) -> Option<Self> {
        if cycle {
            Some(WaitFreedom::Diverges)
        } else if any_hung {
            Some(WaitFreedom::Hangs)
        } else if any_stuck {
            Some(WaitFreedom::Stuck)
        } else {
            None
        }
    }
}

/// Checks wait-freedom of an exhaustively explored (non-truncated) system:
/// acyclic configuration graph + every process decides in every terminal.
///
/// For bounded (one-shot task) protocols this is exactly wait-freedom, and —
/// per the paper's observation that for tasks non-blocking and wait-free
/// solvability coincide — also non-blocking solvability.
pub fn check_wait_freedom(graph: &StateGraph) -> WaitFreedom {
    let cycle = graph.has_cycle();
    let (any_hung, any_stuck) = if cycle {
        (false, false)
    } else {
        // A graph with no terminal has `all_processes_decide` false too,
        // so it answers Stuck.
        let report = TerminalReport::of(graph);
        (report.any_hung, !report.all_processes_decide)
    };
    WaitFreedom::refuted(cycle, any_hung, any_stuck).unwrap_or(WaitFreedom::WaitFree)
}

/// Returns the maximum number of distinct decided values over every possible
/// execution — the quantity bounded by `k`-agreement.
pub fn max_distinct_decisions(graph: &StateGraph) -> usize {
    TerminalReport::of(graph).max_distinct_decisions
}

/// Checks the **non-blocking** (lock-free) property the paper's comparisons
/// are phrased in: from every reachable configuration, *some* continuation
/// reaches a final configuration — i.e. the system as a whole can always
/// make progress, even if individual processes can be starved.
///
/// Wait-free ⇒ non-blocking; the converse fails (e.g. safe agreement and
/// other spin-until protocols are non-blocking but not wait-free, which is
/// exactly the distinction the paper's task-solvability equivalence
/// exploits).
pub fn check_nonblocking(graph: &StateGraph) -> bool {
    // Backward reachability from the terminals, over the one-shot reverse
    // CSR (see [`StateGraph::reverse_csr`]).
    let n = graph.len();
    let mut can_finish = vec![false; n];
    let (pred_ptr, preds) = graph.reverse_csr();
    let mut work: Vec<usize> = graph.terminals().to_vec();
    for &t in graph.terminals() {
        can_finish[t] = true;
    }
    while let Some(i) = work.pop() {
        for &p in &preds[pred_ptr[i] as usize..pred_ptr[i + 1] as usize] {
            let p = p as usize;
            if !can_finish[p] {
                can_finish[p] = true;
                work.push(p);
            }
        }
    }
    can_finish.iter().all(|&b| b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ExploreOptions;
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
                "sink" => Ok(vec![Outcome::hang(state.clone())]),
                _ => Err(ObjectError::UnknownOp {
                    object: "reg",
                    op: op.clone(),
                }),
            }
        }
    }

    /// Decide own input immediately.
    #[derive(Debug)]
    struct DecideSelf;

    impl Protocol for DecideSelf {
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

    /// Touch the sink (hangs), never decides.
    #[derive(Debug)]
    struct Sinker {
        reg: ObjId,
    }

    impl Protocol for Sinker {
        fn start(&self, _ctx: &ProcCtx) -> Value {
            Value::Nil
        }

        fn step(
            &self,
            _ctx: &ProcCtx,
            _local: &Value,
            _resp: Option<&Value>,
        ) -> Result<Action, ProtocolError> {
            Ok(Action::invoke(Value::Nil, self.reg, Op::new("sink")))
        }
    }

    /// Spin forever.
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

    #[test]
    fn decide_self_is_wait_free_with_n_distinct_values() {
        let mut b = SystemBuilder::new();
        b.add_processes(
            Arc::new(DecideSelf),
            [Value::Int(1), Value::Int(2), Value::Int(3)],
        );
        let g = StateGraph::explore(&b.build(), &ExploreOptions::default()).unwrap();
        assert_eq!(check_wait_freedom(&g), WaitFreedom::WaitFree);
        assert!(check_wait_freedom(&g).is_wait_free());
        let r = TerminalReport::of(&g);
        assert_eq!(r.max_distinct_decisions, 3);
        assert_eq!(r.min_distinct_decisions, 3);
        assert_eq!(max_distinct_decisions(&g), 3);
        assert!(!r.any_hung);
    }

    #[test]
    fn hanging_protocol_reported() {
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        b.add_process(Arc::new(Sinker { reg }), Value::Nil);
        let g = StateGraph::explore(&b.build(), &ExploreOptions::default()).unwrap();
        assert_eq!(check_wait_freedom(&g), WaitFreedom::Hangs);
        let r = TerminalReport::of(&g);
        assert!(r.any_hung);
        assert_eq!(r.max_distinct_decisions, 0);
    }

    #[test]
    fn divergence_reported() {
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        b.add_process(Arc::new(Spinner { reg }), Value::Nil);
        let g = StateGraph::explore(&b.build(), &ExploreOptions::default()).unwrap();
        assert_eq!(check_wait_freedom(&g), WaitFreedom::Diverges);
    }

    #[test]
    fn nonblocking_distinguishes_livelock_from_starvation() {
        // A wait-free system is trivially non-blocking.
        let mut b = SystemBuilder::new();
        b.add_processes(Arc::new(DecideSelf), [Value::Int(1)]);
        let g = StateGraph::explore(&b.build(), &ExploreOptions::default()).unwrap();
        assert!(check_nonblocking(&g));

        // A pure spinner never reaches any terminal: blocking.
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        b.add_process(Arc::new(Spinner { reg }), Value::Nil);
        let g = StateGraph::explore(&b.build(), &ExploreOptions::default()).unwrap();
        assert!(!check_nonblocking(&g));
        assert_eq!(check_wait_freedom(&g), WaitFreedom::Diverges);

        // A process that hangs in an object still yields a terminal
        // configuration: non-blocking in the graph sense (the system
        // "finishes"), though not wait-free.
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        b.add_process(Arc::new(Sinker { reg }), Value::Nil);
        let g = StateGraph::explore(&b.build(), &ExploreOptions::default()).unwrap();
        assert!(check_nonblocking(&g));
        assert_eq!(check_wait_freedom(&g), WaitFreedom::Hangs);
    }

    #[test]
    fn decision_sets_enumerated() {
        let mut b = SystemBuilder::new();
        b.add_processes(Arc::new(DecideSelf), [Value::Int(1), Value::Int(2)]);
        let g = StateGraph::explore(&b.build(), &ExploreOptions::default()).unwrap();
        let r = TerminalReport::of(&g);
        assert_eq!(
            r.decision_sets.iter().next().unwrap(),
            &vec![Value::Int(1), Value::Int(2)]
        );
    }
}
