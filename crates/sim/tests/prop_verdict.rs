//! Seeded property suite for the streaming-verdict engine
//! ([`ExploreGoal::Verdict`]): against ground truth computed from a full
//! (`ExploreGoal::FullGraph`) exploration of the same spec under the same
//! reductions, the streaming answer must
//!
//! 1. *agree* — `holds()` decides exactly the full-graph answer on every
//!    untruncated run, across thread counts × POR × symmetry;
//! 2. stay *one-sided sound* when truncated — never `Some(true)`, any
//!    `Some(false)` backed by the full graph, and every bound
//!    (`max_distinct.lower`, `root_valence`) a valid lower approximation;
//! 3. leave the graph *verdict-only* — CSR-consuming analyses
//!    (`edges`, `find_critical`, `node`) panic with an actionable
//!    message instead of reading adjacency that was never frozen.
//!
//! Written over the in-tree seeded [`SmallRng`] (repo style: seeded loops,
//! no external property-testing dependency).

use std::collections::BTreeSet;
use std::sync::Arc;

use subconsensus_modelcheck::{
    check_wait_freedom, find_critical, max_distinct_decisions, ExploreGoal, ExploreOptions,
    StateGraph, TerminalReport, Valency, VerdictCause, VerdictQuery, WaitFreedom,
};
use subconsensus_sim::{
    Action, ObjId, ObjectError, ObjectSpec, Op, Outcome, Pid, ProcCtx, Protocol, ProtocolError,
    SmallRng, SymmetryGroups, SystemBuilder, SystemSpec, Value,
};

// ---------------------------------------------------------------------------
// Fixture zoo: one wait-free agreeing family, one wait-free disagreeing
// family, one diverging (spin) family, one hanging family — so every
// refutation path of the engine (cycle, hung terminal, distinct-count,
// validity) has a spec that triggers it and a spec that does not.
// ---------------------------------------------------------------------------

/// A sticky agreement cell: the first proposal wins, later proposals read it.
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

/// A one-shot sticky cell: the first proposal wins and returns, every later
/// proposal hangs inside the object — the capped-capacity shape that refutes
/// wait-freedom through a hung terminal rather than a cycle.
#[derive(Debug)]
struct OneShotSticky;

impl ObjectSpec for OneShotSticky {
    fn type_name(&self) -> &'static str {
        "one-shot-sticky"
    }

    fn initial_state(&self) -> Value {
        Value::Nil
    }

    fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
        if state.is_nil() {
            let v = op.arg(0).cloned().unwrap_or(Value::Nil);
            Ok(vec![Outcome::ret(v.clone(), v)])
        } else {
            Ok(vec![Outcome::hang(state.clone())])
        }
    }
}

/// A nondeterministic coin: `flip` lands 0 or 1.
#[derive(Debug)]
struct Coin;

impl ObjectSpec for Coin {
    fn type_name(&self) -> &'static str {
        "coin"
    }

    fn initial_state(&self) -> Value {
        Value::Int(0)
    }

    fn apply(&self, _state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
        match op.name {
            "flip" => Ok(vec![
                Outcome::ret(Value::Int(0), Value::Int(0)),
                Outcome::ret(Value::Int(1), Value::Int(1)),
            ]),
            _ => Err(ObjectError::UnknownOp {
                object: "coin",
                op: op.clone(),
            }),
        }
    }
}

/// A one-cell flag: `read` returns the state, `set` raises it to 1.
#[derive(Debug)]
struct Flag;

impl ObjectSpec for Flag {
    fn type_name(&self) -> &'static str {
        "flag"
    }

    fn initial_state(&self) -> Value {
        Value::Int(0)
    }

    fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
        match op.name {
            "read" => Ok(vec![Outcome::ret(state.clone(), state.clone())]),
            "set" => Ok(vec![Outcome::ret(Value::Int(1), Value::Int(1))]),
            _ => Err(ObjectError::UnknownOp {
                object: "flag",
                op: op.clone(),
            }),
        }
    }
}

/// Flip the coin, propose the input, decide the sticky answer. Never reads
/// `ctx.pid`, so equal-input processes are symmetric.
#[derive(Debug)]
struct FlipPropose {
    coin: ObjId,
    sticky: ObjId,
}

impl Protocol for FlipPropose {
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
            Some(0) => Ok(Action::invoke(Value::Int(1), self.coin, Op::new("flip"))),
            Some(1) => Ok(Action::invoke(
                Value::Int(2),
                self.sticky,
                Op::unary("propose", ctx.input.clone()),
            )),
            _ => Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil))),
        }
    }

    fn pid_symmetric(&self) -> bool {
        true
    }
}

/// Flip the coin and decide the flip: wait-free, but terminals where the
/// coins disagree carry two distinct decisions — the fixture whose
/// `max_distinct(1)` and `valid_values([1])` queries are refuted while
/// wait-freedom holds.
#[derive(Debug)]
struct FlipDecide {
    coin: ObjId,
}

impl Protocol for FlipDecide {
    fn start(&self, _ctx: &ProcCtx) -> Value {
        Value::Int(0)
    }

    fn step(
        &self,
        _ctx: &ProcCtx,
        local: &Value,
        resp: Option<&Value>,
    ) -> Result<Action, ProtocolError> {
        match local.as_int() {
            Some(0) => Ok(Action::invoke(Value::Int(1), self.coin, Op::new("flip"))),
            _ => Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil))),
        }
    }

    fn pid_symmetric(&self) -> bool {
        true
    }
}

/// The sim-crate stand-in for the bench gate fixtures: pid 0 proposes to
/// the sticky cell and raises the flag; everyone else spin-reads the flag
/// and decides once it is up. Non-blocking but not wait-free — the spin is
/// a self-loop configuration, the cycle a streaming wait-freedom check
/// refutes a few levels in.
#[derive(Debug)]
struct MiniGate {
    sticky: ObjId,
    flag: ObjId,
}

impl Protocol for MiniGate {
    fn start(&self, _ctx: &ProcCtx) -> Value {
        Value::Int(0)
    }

    fn step(
        &self,
        ctx: &ProcCtx,
        local: &Value,
        resp: Option<&Value>,
    ) -> Result<Action, ProtocolError> {
        let pc = local.as_int().unwrap_or(-1);
        if ctx.pid.index() == 0 {
            match pc {
                0 => Ok(Action::invoke(
                    Value::Int(1),
                    self.sticky,
                    Op::unary("propose", ctx.input.clone()),
                )),
                1 => Ok(Action::invoke(Value::Int(2), self.flag, Op::new("set"))),
                _ => Ok(Action::Decide(ctx.input.clone())),
            }
        } else if pc == 0 || !resp.is_some_and(|r| r.as_int() == Some(1)) {
            // Flag still down (or first step): poll. Re-invoking from the
            // same local state makes the successor configuration equal to
            // this one — the spin cycle.
            Ok(Action::invoke(Value::Int(1), self.flag, Op::new("read")))
        } else {
            Ok(Action::Decide(ctx.input.clone()))
        }
    }

    // Writer and spinners share the flag, so POR cannot serialize the spin
    // cycle out of the reduced graph.
    fn obj_footprint(&self, ctx: &ProcCtx) -> Option<Vec<ObjId>> {
        if ctx.pid.index() == 0 {
            Some(vec![self.sticky, self.flag])
        } else {
            Some(vec![self.flag])
        }
    }
}

/// Propose the input to the one-shot cell, decide the answer. With ≥ 2
/// processes every schedule hangs all but the first proposer.
#[derive(Debug)]
struct OneShotPropose {
    cell: ObjId,
}

impl Protocol for OneShotPropose {
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
                self.cell,
                Op::unary("propose", ctx.input.clone()),
            )),
            _ => Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil))),
        }
    }

    fn pid_symmetric(&self) -> bool {
        true
    }
}

/// `procs` flip-proposers; `equal` of them share input 1 (one nontrivial
/// symmetry group), the rest get distinct inputs.
fn flip_system(procs: usize, equal: usize) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let coin = b.add_object(Coin);
    let sticky = b.add_object(Sticky);
    let p: Arc<dyn Protocol> = Arc::new(FlipPropose { coin, sticky });
    b.add_processes(
        p,
        (0..procs).map(|i| Value::Int(if i < equal { 1 } else { i as i64 + 1 })),
    );
    b.build()
}

fn flip_decide_system(procs: usize) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let coin = b.add_object(Coin);
    let p: Arc<dyn Protocol> = Arc::new(FlipDecide { coin });
    b.add_processes(p, (0..procs).map(|_| Value::Int(1)));
    b.build()
}

fn gate_system(procs: usize) -> SystemSpec {
    assert!(procs >= 2);
    let mut b = SystemBuilder::new();
    let sticky = b.add_object(Sticky);
    let flag = b.add_object(Flag);
    let p: Arc<dyn Protocol> = Arc::new(MiniGate { sticky, flag });
    b.add_processes(p, (0..procs).map(|_| Value::Int(1)));
    // The protocol reads `ctx.pid` to pick its role, so declare the
    // spinner group explicitly.
    b.set_symmetry_groups(SymmetryGroups::new([(1..procs)
        .map(Pid::new)
        .collect::<Vec<_>>()]));
    b.build()
}

fn one_shot_system(procs: usize) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let cell = b.add_object(OneShotSticky);
    let p: Arc<dyn Protocol> = Arc::new(OneShotPropose { cell });
    b.add_processes(p, (0..procs).map(|_| Value::Int(1)));
    b.build()
}

// ---------------------------------------------------------------------------
// Ground truth from the full graph.
// ---------------------------------------------------------------------------

/// Full-graph facts under the same reductions the verdict run will use.
struct GroundTruth {
    graph_len: usize,
    wait_free: bool,
    max_distinct: usize,
    /// Union of decided values over all terminals (the exact root valence).
    valence: BTreeSet<Value>,
}

fn ground_truth(spec: &SystemSpec, opts: &ExploreOptions) -> GroundTruth {
    let full = StateGraph::explore(spec, opts).expect("full explore");
    assert!(!full.is_truncated(), "ground-truth graph must complete");
    let report = TerminalReport::of(&full);
    GroundTruth {
        graph_len: full.len(),
        wait_free: check_wait_freedom(&full).is_wait_free(),
        max_distinct: max_distinct_decisions(&full),
        valence: report
            .decision_sets
            .iter()
            .flat_map(|s| s.iter().cloned())
            .collect(),
    }
}

/// What `holds()` must decide for `query` given the full-graph facts.
fn expected_answer(query: &VerdictQuery, truth: &GroundTruth) -> bool {
    let mut ok = true;
    if query.wait_freedom {
        ok &= truth.wait_free;
    }
    if let Some(k) = query.max_distinct {
        ok &= truth.max_distinct <= k;
    }
    if let Some(valid) = &query.valid_values {
        ok &= truth.valence.iter().all(|v| valid.contains(v));
    }
    if query.univalent {
        ok &= truth.valence.len() <= 1;
    }
    ok
}

/// Seeded random query with at least one conjunct.
fn random_query(rng: &mut SmallRng) -> VerdictQuery {
    loop {
        let mut q = VerdictQuery::new();
        if rng.gen_index(2) == 0 {
            q = q.require_wait_freedom();
        }
        if rng.gen_index(2) == 0 {
            q = q.require_max_distinct(1 + rng.gen_index(2));
        }
        if rng.gen_index(2) == 0 {
            // {1} refutes validity on the distinct-input and coin-deciding
            // fixtures; {0, 1, …, 4} covers every decided value.
            q = q.require_valid_values(if rng.gen_index(2) == 0 {
                vec![Value::Int(1)]
            } else {
                (0..5).map(Value::Int).collect()
            });
        }
        if rng.gen_index(2) == 0 {
            q = q.require_univalent();
        }
        if q.wait_freedom || q.max_distinct.is_some() || q.valid_values.is_some() || q.univalent {
            return q;
        }
    }
}

fn fixtures() -> Vec<(&'static str, SystemSpec)> {
    vec![
        ("flip-propose sym p3", flip_system(3, 3)),
        ("flip-propose distinct p3", flip_system(3, 0)),
        ("flip-decide p3", flip_decide_system(3)),
        ("gate p3", gate_system(3)),
        ("one-shot p3", one_shot_system(3)),
    ]
}

/// Bound soundness shared by every verdict, partial or complete.
fn assert_bounds_sound(
    vd: &subconsensus_modelcheck::StreamingVerdict,
    truth: &GroundTruth,
    label: &str,
) {
    assert!(
        vd.max_distinct.lower <= truth.max_distinct,
        "{label}: lower bound {} exceeds true max distinct {}",
        vd.max_distinct.lower,
        truth.max_distinct
    );
    assert!(
        vd.root_valence.is_subset(&truth.valence),
        "{label}: observed valence {:?} not within true valence {:?}",
        vd.root_valence,
        truth.valence
    );
    if let Some(wf) = &vd.wait_freedom {
        assert_eq!(
            wf.is_wait_free(),
            truth.wait_free,
            "{label}: decided wait-freedom {wf:?} contradicts the full graph"
        );
    }
    if !vd.complete() {
        assert_eq!(
            vd.max_distinct.upper, None,
            "{label}: partial run claims an exact distinct count"
        );
    }
    assert!(
        vd.configs <= truth.graph_len,
        "{label}: verdict explored {} configs, full graph has {}",
        vd.configs,
        truth.graph_len
    );
}

// ---------------------------------------------------------------------------
// 1. Agreement on untruncated runs, across threads × POR × symmetry.
// ---------------------------------------------------------------------------

#[test]
fn streaming_verdicts_agree_with_full_graph_across_reductions() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    for (name, spec) in fixtures() {
        for symmetry in [false, true] {
            for por in [false, true] {
                let base = ExploreOptions::default()
                    .with_symmetry(symmetry)
                    .with_por(por);
                let truth = ground_truth(&spec, &base);
                for _ in 0..4 {
                    let query = random_query(&mut rng);
                    let expected = expected_answer(&query, &truth);
                    for threads in [1usize, 4] {
                        let label =
                            format!("{name} sym={symmetry} por={por} t{threads} query={query:?}");
                        let g = StateGraph::explore(
                            &spec,
                            &base
                                .clone()
                                .with_threads(threads)
                                .with_goal(ExploreGoal::Verdict(query.clone())),
                        )
                        .expect("verdict explore");
                        assert!(g.is_verdict_only(), "{label}: graph not verdict-only");
                        let vd = g.verdict().expect("verdict present");
                        assert!(
                            !matches!(vd.cause, VerdictCause::Truncated { .. }),
                            "{label}: unexpectedly truncated"
                        );
                        assert_eq!(
                            vd.holds(),
                            Some(expected),
                            "{label}: streaming answer diverges from the full graph \
                             (cause {:?})",
                            vd.cause
                        );
                        assert_bounds_sound(vd, &truth, &label);
                        if vd.complete() {
                            assert_eq!(
                                vd.max_distinct.exact(),
                                Some(truth.max_distinct),
                                "{label}: complete run's exact distinct count"
                            );
                            assert_eq!(
                                vd.root_valence, truth.valence,
                                "{label}: complete run's root valence"
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Truncated runs stay one-sided sound.
// ---------------------------------------------------------------------------

#[test]
fn truncated_verdicts_are_sound_partials() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ 0x7121C);
    for (name, spec) in fixtures() {
        let base = ExploreOptions::default();
        let truth = ground_truth(&spec, &base);
        for _ in 0..6 {
            let query = random_query(&mut rng);
            let expected = expected_answer(&query, &truth);
            // Caps strictly below the full size force either an early exit
            // (the answer was decided first) or a truncation.
            let cap = 1 + rng.gen_index(truth.graph_len - 1);
            let g = StateGraph::explore(
                &spec,
                &ExploreOptions::with_max_configs(cap)
                    .with_goal(ExploreGoal::Verdict(query.clone())),
            )
            .expect("verdict explore");
            let vd = g.verdict().expect("verdict present");
            let label = format!("{name} cap={cap} query={query:?} cause={:?}", vd.cause);
            assert_bounds_sound(vd, &truth, &label);
            match vd.cause {
                VerdictCause::Exhausted => {
                    // The level-granular cap can still finish the graph
                    // exactly; then the answer must be decided and right.
                    assert_eq!(vd.holds(), Some(expected), "{label}");
                }
                VerdictCause::EarlyExit { .. } => {
                    // Early exit only happens on a decided refutation.
                    assert_eq!(vd.holds(), Some(false), "{label}");
                    assert!(!expected, "{label}: refuted a property that holds");
                }
                VerdictCause::Truncated { cap: c } => {
                    assert_eq!(c, cap, "{label}: cause records the wrong cap");
                    assert!(!vd.complete(), "{label}");
                    assert_ne!(
                        vd.holds(),
                        Some(true),
                        "{label}: positive claim from a truncated run"
                    );
                    if vd.holds() == Some(false) {
                        assert!(!expected, "{label}: refuted a property that holds");
                    }
                }
            }
        }
    }
}

/// A hung-terminal refutation is decided mid-graph even when the cap would
/// have truncated the run later: the one-shot fixture hangs every schedule.
#[test]
fn hung_terminals_refute_before_truncation_matters() {
    let spec = one_shot_system(3);
    let g = StateGraph::explore(
        &spec,
        &ExploreOptions::default().with_goal(ExploreGoal::Verdict(
            VerdictQuery::new().require_wait_freedom(),
        )),
    )
    .expect("verdict explore");
    let vd = g.verdict().expect("verdict present");
    assert_eq!(vd.holds(), Some(false));
    assert_eq!(vd.wait_freedom, Some(WaitFreedom::Hangs));
}

// ---------------------------------------------------------------------------
// 3. Verdict-only graphs refuse CSR-consuming analyses with clear panics.
// ---------------------------------------------------------------------------

fn verdict_only_graph() -> StateGraph {
    StateGraph::explore(
        &gate_system(3),
        &ExploreOptions::default().with_goal(ExploreGoal::Verdict(
            VerdictQuery::new().require_wait_freedom(),
        )),
    )
    .expect("verdict explore")
}

#[test]
#[should_panic(expected = "ExploreGoal::FullGraph")]
fn find_critical_panics_on_verdict_only_graph() {
    // A valency computed on the *full* graph is irrelevant here: the
    // verdict-only guard must fire before any index is touched.
    let full =
        StateGraph::explore(&flip_system(2, 0), &ExploreOptions::default()).expect("full explore");
    let valency = Valency::compute(&full);
    let g = verdict_only_graph();
    let _ = find_critical(&g, &valency);
}

#[test]
#[should_panic(expected = "frozen CSR adjacency")]
fn edges_panic_on_verdict_only_graph() {
    let g = verdict_only_graph();
    let _ = g.edges(0);
}

#[test]
fn node_contents_panic_on_verdict_only_graph() {
    // A verdict-only graph keeps no node contents at any thread count, so
    // every node accessor fails the same way at `threads` 1 and 4.
    for threads in [1usize, 4] {
        let g = StateGraph::explore(
            &gate_system(3),
            &ExploreOptions::default()
                .with_threads(threads)
                .with_goal(ExploreGoal::Verdict(
                    VerdictQuery::new().require_wait_freedom(),
                )),
        )
        .expect("verdict explore");
        assert!(g.interner_stats().is_none(), "threads={threads}");
        let probes: [&dyn Fn(); 2] = [
            &|| {
                let _ = g.node(0);
            },
            &|| {
                let _ = g.config(0);
            },
        ];
        for probe in probes {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(probe))
                .expect_err("node contents of a verdict-only graph");
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains("never gathered"), "threads={threads}: {msg}");
        }
    }
}
