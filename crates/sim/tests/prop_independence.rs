//! Randomized tests for step independence as partial-order reduction
//! decides it: [`SystemSpec::compact_footprints_independent`] over the
//! footprints ([`SystemSpec::memo_footprint`], with an empty memo) of a
//! random reachable configuration's interned row. Whenever two enabled steps are declared
//! independent, firing them in either order (through the deep
//! [`SystemSpec::successors`]) must land in the *same* configuration — the
//! Mazurkiewicz-trace fact partial-order reduction rests on.
//!
//! Written over the in-tree seeded [`SmallRng`] (repo style: seeded loops,
//! no external property-testing dependency).

use std::borrow::Cow;
use std::sync::Arc;

use subconsensus_sim::{
    Action, Config, ObjId, ObjectError, ObjectSpec, Op, Outcome, Pid, ProcCtx, Protocol,
    ProtocolError, SmallRng, StateInterner, SystemBuilder, SystemSpec, TransitionMemo, Value,
};

/// A register whose `commutes` declares read/read and equal-value
/// write/write pairs independent — the kernel of the real `Register`'s
/// rule, kept local because `sim` cannot depend on the objects crate —
/// plus a read and a write of the value the cell already holds, which
/// depends on the state the id-space check resolves.
#[derive(Debug)]
struct Cell;

impl ObjectSpec for Cell {
    fn type_name(&self) -> &'static str {
        "cell"
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
            _ => Err(ObjectError::UnknownOp {
                object: "cell",
                op: op.clone(),
            }),
        }
    }

    fn commutes(&self, state: &Value, a: &Op, b: &Op) -> bool {
        let written = |w: &Op| w.arg(0).unwrap_or(&Value::Nil) == state;
        match (a.name, b.name) {
            ("read", "read") => true,
            ("write", "write") => a.arg(0) == b.arg(0),
            ("read", "write") => written(b),
            ("write", "read") => written(a),
            _ => false,
        }
    }
}

/// Write the input to one cell, read the other, decide the read.
#[derive(Debug)]
struct WriteAcrossRead {
    mine: ObjId,
    other: ObjId,
}

impl Protocol for WriteAcrossRead {
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
                self.mine,
                Op::unary("write", ctx.input.clone()),
            )),
            Some(1) => Ok(Action::invoke(Value::Int(2), self.other, Op::new("read"))),
            _ => Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil))),
        }
    }
}

/// Four processes over two cells, inputs (1, 1, 1, 2): every independence
/// source occurs along random walks — different objects, same-object
/// read/read, same-object equal writes (p0/p2 both write 1 to cell 0), and
/// local decide steps — alongside genuinely dependent pairs (p1/p3 race
/// writes 1 vs 2 on cell 1; read-vs-write on a shared cell).
fn two_cell_system() -> SystemSpec {
    let mut b = SystemBuilder::new();
    let c0 = b.add_object(Cell);
    let c1 = b.add_object(Cell);
    let even: Arc<dyn Protocol> = Arc::new(WriteAcrossRead {
        mine: c0,
        other: c1,
    });
    let odd: Arc<dyn Protocol> = Arc::new(WriteAcrossRead {
        mine: c1,
        other: c0,
    });
    b.add_process(even.clone(), Value::Int(1));
    b.add_process(odd.clone(), Value::Int(1));
    b.add_process(even, Value::Int(1));
    b.add_process(odd, Value::Int(2));
    b.build()
}

/// Steps `pid`, asserting the step is deterministic (all objects here are).
fn step(spec: &SystemSpec, config: &Config, pid: Pid) -> Config {
    let mut succs = spec.successors(config, pid).expect("legal step");
    assert_eq!(succs.len(), 1, "deterministic objects: one successor");
    succs.swap_remove(0).0
}

/// Walks a uniformly random schedule for at most `steps` steps.
fn random_reachable_config(spec: &SystemSpec, rng: &mut SmallRng, steps: usize) -> Config {
    let mut config = spec.initial_config();
    for _ in 0..steps {
        let enabled = config.enabled();
        if enabled.is_empty() {
            break;
        }
        let pid = enabled[rng.gen_index(enabled.len())];
        config = step(spec, &config, pid);
    }
    config
}

/// The independence relation of `config` as the explorer's POR computes
/// it: `independent(p, q)` for enabled `p` and `q`, from their footprints
/// over the configuration's interned row.
fn id_space_independence(spec: &SystemSpec, config: &Config) -> impl Fn(Pid, Pid) -> bool {
    let mut interner = StateInterner::new();
    let words = interner.intern_config(config).words().to_vec();
    let mut memo = TransitionMemo::new();
    memo.bind(spec);
    let fps: Vec<_> = (0..spec.nprocs())
        .map(|p| {
            spec.memo_footprint(&interner, &memo, &words, Pid::new(p))
                .ok()
                .map(Cow::into_owned)
        })
        .collect();
    let spec = spec.clone();
    move |p, q| {
        let fp = |pid: Pid| fps[pid.index()].as_ref().expect("enabled pid");
        spec.compact_footprints_independent(&interner, &words, fp(p), fp(q))
    }
}

#[test]
fn independent_steps_commute_to_the_same_config() {
    let spec = two_cell_system();
    let (mut independent, mut dependent) = (0usize, 0usize);
    for seed in 0..300u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let steps = rng.gen_index(9);
        let config = random_reachable_config(&spec, &mut rng, steps);
        let is_independent = id_space_independence(&spec, &config);
        let enabled = config.enabled();
        for (a, &p) in enabled.iter().enumerate() {
            for &q in &enabled[a + 1..] {
                if !is_independent(p, q) {
                    dependent += 1;
                    continue;
                }
                independent += 1;
                let pq = step(&spec, &step(&spec, &config, p), q);
                let qp = step(&spec, &step(&spec, &config, q), p);
                assert_eq!(
                    pq, qp,
                    "seed {seed}: independent steps {p:?}, {q:?} must commute"
                );
            }
        }
    }
    // The fixture must actually exercise both sides of the declaration.
    assert!(independent > 200, "only {independent} independent pairs");
    assert!(dependent > 200, "only {dependent} dependent pairs");
}

#[test]
fn footprint_independence_is_symmetric() {
    let spec = two_cell_system();
    for seed in 0..100u64 {
        let mut rng = SmallRng::seed_from_u64(5_000 + seed);
        let steps = rng.gen_index(9);
        let config = random_reachable_config(&spec, &mut rng, steps);
        let is_independent = id_space_independence(&spec, &config);
        let enabled = config.enabled();
        for &p in &enabled {
            for &q in &enabled {
                if p == q {
                    continue;
                }
                assert_eq!(
                    is_independent(p, q),
                    is_independent(q, p),
                    "seed {seed}: independence must be symmetric ({p:?}, {q:?})"
                );
            }
        }
    }
}
