//! Differential tests of [`ExploreSession`]: every exploration run in a
//! session that already holds other explorations' interned states and
//! memoized transitions must answer exactly what a fresh exploration of
//! the same system answers.
//!
//! The fixtures are built so that a memo keyed too coarsely, or kept
//! across a change of objects, replays a wrong step: every protocol starts
//! in the same local state and reaches equal process states, yet the
//! protocols write different values, and the two object specs store a
//! write differently from equal initial states. Each sequence explores a
//! system twice before the system under test, so the session has both
//! interned the earlier steps' states and memoized the steps themselves.

use std::sync::Arc;

use subconsensus_modelcheck::{
    ExploreGoal, ExploreOptions, ExploreSession, Recorder, StateGraph, VerdictQuery,
};
use subconsensus_sim::{
    Action, ObjId, ObjectError, ObjectSpec, Op, Outcome, ProcCtx, Protocol, ProtocolError,
    SimError, SystemBuilder, SystemSpec, Value,
};

/// A register whose `write(v)` stores `v + offset` and whose `read()`
/// returns the stored value. Every offset starts from the same state.
#[derive(Debug)]
struct OffsetRegister {
    offset: i64,
}

impl ObjectSpec for OffsetRegister {
    fn type_name(&self) -> &'static str {
        "offset-register"
    }

    fn initial_state(&self) -> Value {
        Value::Int(0)
    }

    fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
        match (op.name, op.arg(0).and_then(Value::as_int)) {
            ("write", Some(v)) => Ok(vec![Outcome::ret(Value::Int(v + self.offset), Value::Nil)]),
            ("read", None) => Ok(vec![Outcome::ret(state.clone(), state.clone())]),
            _ => Err(ObjectError::IllegalOp {
                object: "offset-register",
                detail: format!("{op:?}"),
            }),
        }
    }
}

/// Writes `value` to register `obj`, reads it back and decides what it
/// read — or fails with a protocol error when it reads `fail_on`. The
/// local state is a bare program counter, so every instance passes
/// through the same process states.
#[derive(Debug)]
struct WriteRead {
    obj: ObjId,
    value: i64,
    fail_on: Option<i64>,
}

impl Protocol for WriteRead {
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
            Some(0) => Ok(Action::invoke(
                Value::Int(1),
                self.obj,
                Op::unary("write", Value::Int(self.value)),
            )),
            Some(1) => Ok(Action::invoke(Value::Int(2), self.obj, Op::new("read"))),
            Some(2) => {
                let read = resp.and_then(Value::as_int);
                if read.is_some() && read == self.fail_on {
                    return Err(ProtocolError::new("read the poisoned value"));
                }
                Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil)))
            }
            _ => Err(ProtocolError::new("corrupt pc")),
        }
    }
}

/// A system holding one register with the given offset and no process.
fn register(offset: i64) -> (SystemSpec, ObjId) {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(OffsetRegister { offset });
    (b.build(), obj)
}

fn write_read(obj: ObjId, value: i64, fail_on: Option<i64>) -> Arc<dyn Protocol> {
    Arc::new(WriteRead {
        obj,
        value,
        fail_on,
    })
}

/// `n` processes of `objects`' register, one per protocol, all with input
/// `Nil`.
fn system(objects: &SystemSpec, protocols: &[&Arc<dyn Protocol>]) -> SystemSpec {
    objects.with_processes(protocols.iter().map(|&p| (Arc::clone(p), Value::Nil)))
}

/// Verdict-goal options: wait-freedom plus agreement, so every terminal
/// is visited (no early exit) and the decided values are all reported.
fn verdict_opts() -> ExploreOptions {
    ExploreOptions::default().with_goal(ExploreGoal::Verdict(
        VerdictQuery::new()
            .require_wait_freedom()
            .require_max_distinct(8),
    ))
}

/// The facts of an exploration outcome the session must not change: the
/// verdict (all of it, decided values included) and the graph's size, or
/// the error.
fn outcome(result: Result<StateGraph, SimError>) -> Result<String, SimError> {
    result.map(|g| {
        format!(
            "{:?} configs={} edges={}",
            g.verdict(),
            g.len(),
            g.metrics().edges
        )
    })
}

/// Explores `spec` in `session` and fresh, asserts the outcomes are equal
/// and returns the session exploration's memo hits.
fn check_against_fresh(
    session: &mut ExploreSession,
    spec: &SystemSpec,
    opts: &ExploreOptions,
    what: &str,
) -> u64 {
    let shared = session.explore_with(spec, opts, &Recorder::new());
    let hits = shared.as_ref().map_or(0, |g| g.metrics().memo_hits);
    let fresh = StateGraph::explore_with(spec, opts, &Recorder::new());
    assert_eq!(outcome(shared), outcome(fresh), "{what}");
    hits
}

#[test]
fn protocols_with_equal_states_but_different_actions_stay_apart() {
    let (objects, obj) = register(0);
    let (one, two) = (write_read(obj, 1, None), write_read(obj, 2, None));
    let writes_one = system(&objects, &[&one, &one]);
    let writes_two = system(&objects, &[&two, &two]);
    let opts = verdict_opts();
    let mut session = ExploreSession::default();
    check_against_fresh(&mut session, &writes_one, &opts, "first run");
    let hits = check_against_fresh(&mut session, &writes_one, &opts, "repeat run");
    assert!(
        hits > 0,
        "the repeated system replays nothing from the session"
    );
    // Same pids, same inputs, equal process states: only the protocol
    // instance tells the two systems' steps apart.
    check_against_fresh(&mut session, &writes_two, &opts, "other protocol");
    check_against_fresh(
        &mut session,
        &system(&objects, &[&one, &two]),
        &opts,
        "mixed protocols",
    );
}

#[test]
fn a_different_object_spec_clears_the_memo() {
    let (objects, obj) = register(0);
    let (shifted, shifted_obj) = register(10);
    assert_eq!(obj, shifted_obj);
    let one = write_read(obj, 1, None);
    let opts = verdict_opts();
    let mut session = ExploreSession::default();
    let plain = system(&objects, &[&one, &one]);
    check_against_fresh(&mut session, &plain, &opts, "first run");
    check_against_fresh(&mut session, &plain, &opts, "repeat run");
    // The same protocol instance at the same pids over a register that
    // stores 11 where the first stored 1, from the same initial state.
    check_against_fresh(
        &mut session,
        &system(&shifted, &[&one, &one]),
        &opts,
        "other objects",
    );
    // And back: the memo was rebuilt for the shifted register.
    check_against_fresh(&mut session, &plain, &opts, "original objects again");
}

#[test]
fn a_failed_exploration_leaves_the_session_usable() {
    let (objects, obj) = register(0);
    let one = write_read(obj, 1, None);
    let two = write_read(obj, 2, None);
    let poisoned = write_read(obj, 1, Some(1));
    let opts = verdict_opts();
    let mut session = ExploreSession::default();
    let plain = system(&objects, &[&one, &two]);
    check_against_fresh(&mut session, &plain, &opts, "before the failure");
    // Fails at its third step, after two levels' memo fills were filed.
    let failing = system(&objects, &[&poisoned, &two]);
    let err = session
        .explore_with(&failing, &opts, &Recorder::new())
        .expect_err("reading 1 fails");
    assert!(matches!(err, SimError::Protocol { .. }), "{err:?}");
    check_against_fresh(&mut session, &plain, &opts, "after the failure");
    check_against_fresh(&mut session, &failing, &opts, "the failing system again");
    check_against_fresh(
        &mut session,
        &system(&objects, &[&two, &one]),
        &opts,
        "a new system after the failure",
    );
}

#[test]
fn sessions_are_thread_count_independent() {
    let (objects, obj) = register(0);
    let protocols: Vec<_> = (1..=4).map(|v| write_read(obj, v, None)).collect();
    let p: Vec<&Arc<dyn Protocol>> = protocols.iter().collect();
    let sequence = [
        system(&objects, &[p[0], p[1], p[2], p[3]]),
        system(&objects, &[p[3], p[2], p[1], p[0]]),
        system(&objects, &[p[0], p[1], p[2], p[3]]),
        system(&objects, &[p[0], p[0], p[1], p[1]]),
    ];
    let run = |threads: usize| {
        let opts = verdict_opts().with_threads(threads);
        let mut session = ExploreSession::default();
        sequence
            .iter()
            .map(|spec| {
                let g = session
                    .explore_with(spec, &opts, &Recorder::new())
                    .expect("explores");
                let m = g.metrics();
                let widest = m.levels.iter().map(|l| l.items).max().unwrap_or(0);
                assert!(widest >= 32, "a level wide enough to split: {widest}");
                (
                    format!("{:?}", g.verdict()),
                    m.memo_lookups,
                    m.memo_hits,
                    m.memo_entries,
                )
            })
            .collect::<Vec<_>>()
    };
    let one = run(1);
    assert!(one[2].2 > 0, "the repeated system replays nothing");
    assert_eq!(one, run(2));
}

#[test]
fn a_full_graph_exploration_matches_fresh_and_empties_the_session() {
    let (objects, obj) = register(0);
    let (one, two) = (write_read(obj, 1, None), write_read(obj, 2, None));
    let spec = system(&objects, &[&one, &two]);
    let mut session = ExploreSession::default();
    check_against_fresh(&mut session, &spec, &verdict_opts(), "verdict before");
    let full = ExploreOptions::default();
    let g = session
        .explore_with(&spec, &full, &Recorder::new())
        .expect("explores");
    let fresh = StateGraph::explore_with(&spec, &full, &Recorder::new()).expect("explores");
    assert_eq!(g.len(), fresh.len());
    for i in 0..g.len() {
        assert_eq!(g.config(i), fresh.config(i), "node {i}");
        assert_eq!(g.edges(i), fresh.edges(i), "edges of node {i}");
    }
    assert_eq!(g.terminals(), fresh.terminals());
    // The graph took the session's interner: a second full graph starts
    // from an empty one, so its interner statistics are a fresh run's.
    let again = session
        .explore_with(&spec, &full, &Recorder::new())
        .expect("explores");
    assert_eq!(again.interner_stats(), fresh.interner_stats());
    assert_eq!(again.metrics().memo_hits, fresh.metrics().memo_hits);
    check_against_fresh(
        &mut session,
        &system(&objects, &[&two, &two]),
        &verdict_opts(),
        "verdict after",
    );
}

/// A register whose states carry `tag`: `write(v)` stores `(tag, v)` and
/// `read()` returns the stored pair. Systems over different tags share no
/// object state.
#[derive(Debug)]
struct TaggedRegister {
    tag: i64,
}

impl ObjectSpec for TaggedRegister {
    fn type_name(&self) -> &'static str {
        "tagged-register"
    }

    fn initial_state(&self) -> Value {
        Value::tup([Value::Int(self.tag), Value::Int(0)])
    }

    fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
        match (op.name, op.arg(0)) {
            ("write", Some(v)) => Ok(vec![Outcome::ret(
                Value::tup([Value::Int(self.tag), v.clone()]),
                Value::Nil,
            )]),
            ("read", None) => Ok(vec![Outcome::ret(state.clone(), state.clone())]),
            _ => Err(ObjectError::IllegalOp {
                object: "tagged-register",
                detail: format!("{op:?}"),
            }),
        }
    }
}

/// `rounds` times: writes `value + round` to register `obj`, then reads
/// it back; finally decides the last read, or fails with a protocol error
/// when it reads `fail_on`. Its local state `(tag, pc)` carries the tag,
/// so processes of systems over different tags share no state either.
#[derive(Debug)]
struct TaggedWriter {
    obj: ObjId,
    tag: i64,
    value: i64,
    rounds: i64,
    fail_on: Option<i64>,
}

impl Protocol for TaggedWriter {
    fn start(&self, _ctx: &ProcCtx) -> Value {
        Value::tup([Value::Int(self.tag), Value::Int(0)])
    }

    fn step(
        &self,
        _ctx: &ProcCtx,
        local: &Value,
        resp: Option<&Value>,
    ) -> Result<Action, ProtocolError> {
        let pc = local
            .as_tup()
            .and_then(|t| t.get(1))
            .and_then(Value::as_int)
            .ok_or_else(|| ProtocolError::new("corrupt pc"))?;
        let next = Value::tup([Value::Int(self.tag), Value::Int(pc + 1)]);
        if pc == 2 * self.rounds {
            let read = resp.and_then(Value::as_tup).and_then(|t| t.get(1));
            if read.and_then(Value::as_int).is_some()
                && read.and_then(Value::as_int) == self.fail_on
            {
                return Err(ProtocolError::new("read the poisoned value"));
            }
            return Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil)));
        }
        let op = if pc % 2 == 0 {
            Op::unary("write", Value::Int(self.value + pc / 2))
        } else {
            Op::new("read")
        };
        Ok(Action::invoke(next, self.obj, op))
    }
}

/// `values.len()` tagged writers over one fresh tagged register.
fn tagged_system(tag: i64, values: &[i64], rounds: i64, fail_on: Option<i64>) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(TaggedRegister { tag });
    for &value in values {
        let p: Arc<dyn Protocol> = Arc::new(TaggedWriter {
            obj,
            tag,
            value,
            rounds,
            fail_on,
        });
        b.add_process(p, Value::Nil);
    }
    b.build()
}

/// Everything an exploration answers that must not depend on what the
/// session ran before: the verdict, the graph (every node's
/// configuration and edges when it was frozen), and the memo counters.
fn exact_facts(g: &StateGraph) -> String {
    let m = g.metrics();
    let mut facts = format!(
        "{:?} configs={} edges={} terminals={:?} memo={}/{}/{}",
        g.verdict(),
        g.len(),
        m.edges,
        g.terminals(),
        m.memo_lookups,
        m.memo_hits,
        m.memo_entries
    );
    if !g.is_verdict_only() {
        for i in 0..g.len() {
            facts.push_str(&format!("\n{i}: {:?} -> {:?}", g.config(i), g.edges(i)));
        }
    }
    facts
}

/// Explores `spec` in `session` and in a fresh session under `opts`, and
/// asserts the two agree in every [`exact_facts`].
fn assert_matches_fresh(session: &mut ExploreSession, spec: &SystemSpec, opts: &ExploreOptions) {
    let shared = session
        .explore_with(spec, opts, &Recorder::new())
        .expect("explores");
    let fresh = ExploreSession::default()
        .explore_with(spec, opts, &Recorder::new())
        .expect("explores");
    assert_eq!(exact_facts(&shared), exact_facts(&fresh), "{opts:?}");
}

/// A small system the next two tests explore after something else: two
/// writers, one round. Each follow-up exploration takes a new `tag`, so
/// it is the first in its session to see its states, as in a fresh one.
fn small_system(tag: i64) -> SystemSpec {
    tagged_system(tag, &[1, 2], 1, None)
}

#[test]
fn a_small_exploration_after_a_large_one_matches_a_fresh_session() {
    for threads in [1, 4] {
        let large = tagged_system(1, &[1, 2, 3, 4], 2, None);
        let opts = verdict_opts().with_threads(threads);
        let full = ExploreOptions::default().with_threads(threads);
        let por = verdict_opts().with_threads(threads).with_por(true);
        let mut session = ExploreSession::default();
        let g = session
            .explore_with(&large, &opts, &Recorder::new())
            .expect("explores");
        let widest = g.metrics().levels.iter().map(|l| l.items).max();
        assert!(g.len() > 1000, "a large exploration: {} configs", g.len());
        assert!(widest >= Some(32), "a level wide enough to split");
        // The session's buffers are at the large exploration's size; the
        // small systems share no state with it and run over other objects.
        assert_matches_fresh(&mut session, &small_system(10), &opts);
        assert_matches_fresh(&mut session, &small_system(11), &por);
        assert_matches_fresh(&mut session, &small_system(12), &full);
        // And after a large full graph, which leaves the session's interner
        // and memo empty but its buffers large.
        session
            .explore_with(&large, &full, &Recorder::new())
            .expect("explores");
        assert_matches_fresh(&mut session, &small_system(13), &opts);
        assert_matches_fresh(&mut session, &small_system(14), &full);
    }
}

#[test]
fn an_exploration_after_one_that_failed_mid_level_matches_a_fresh_session() {
    for threads in [1, 4] {
        // Fails when a process reads 3, which the third writer writes in
        // its first round: at a level where other items have already been
        // expanded and have logged memo fills.
        let failing = tagged_system(3, &[1, 2, 3, 4], 2, Some(3));
        for goal in [verdict_opts(), ExploreOptions::default()] {
            let opts = goal.with_threads(threads);
            let mut session = ExploreSession::default();
            let err = session
                .explore_with(&failing, &opts, &Recorder::new())
                .expect_err("reading 3 fails");
            assert!(matches!(err, SimError::Protocol { .. }), "{err:?}");
            assert_matches_fresh(&mut session, &small_system(20), &verdict_opts());
            assert_matches_fresh(&mut session, &small_system(21), &ExploreOptions::default());
        }
    }
}
