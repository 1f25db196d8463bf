//! Randomized tests for hash-consed configurations: interning round-trips,
//! id equality coincides with deep equality, and the compact stepping /
//! canonicalization path stays in lockstep with the deep one under random
//! schedules — the invariants the id-native model checker rests on.
//!
//! Written over the in-tree seeded [`SmallRng`] (repo style: seeded loops,
//! no external property-testing dependency).

use std::sync::Arc;

use subconsensus_sim::{
    Action, CanonScratch, CompactConfig, Config, MemoLog, MemoSuccessors, ObjId, ObjectError,
    ObjectSpec, Op, Outcome, ProcCtx, Protocol, ProtocolError, SmallRng, StateInterner,
    SystemBuilder, SystemSpec, TransitionMemo, Value,
};

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

/// A nondeterministic coin: `flip` lands 0 or 1. The outcome list repeats
/// the 0-branch so successor deduplication is exercised on both paths.
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
                // Duplicate of the first outcome: both stepping paths must
                // collapse it.
                Outcome::ret(Value::Int(0), Value::Int(0)),
            ]),
            _ => Err(ObjectError::UnknownOp {
                object: "coin",
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

/// Three flip-proposers with inputs (1, 1, 2): one nontrivial symmetry
/// group, a nondeterministic object and a sticky one.
fn mixed_system() -> SystemSpec {
    let mut b = SystemBuilder::new();
    let coin = b.add_object(Coin);
    let sticky = b.add_object(Sticky);
    let p: Arc<dyn Protocol> = Arc::new(FlipPropose { coin, sticky });
    b.add_processes(p, [1i64, 1, 2].into_iter().map(Value::Int));
    let spec = b.build();
    assert!(!spec.symmetry_groups().is_trivial());
    spec
}

/// The deep configuration a row of interned id words stands for.
fn materialize(interner: &StateInterner, compact: &CompactConfig) -> Config {
    interner.materialize_words(compact.nobjects(), compact.words())
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
        let mut succs = spec.successors(&config, pid).expect("legal step");
        let pick = rng.gen_index(succs.len());
        config = succs.swap_remove(pick).0;
    }
    config
}

#[test]
fn interning_round_trips_and_is_idempotent() {
    let spec = mixed_system();
    let mut interner = StateInterner::new();
    for seed in 0..150u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let steps = rng.gen_index(13);
        let config = random_reachable_config(&spec, &mut rng, steps);
        let compact = interner.intern_config(&config);
        // Materializing and re-interning yields byte-identical id words.
        let materialized = materialize(&interner, &compact);
        assert_eq!(materialized, config, "seed {seed}: round trip");
        let again = interner.intern_config(&materialized);
        assert_eq!(compact, again, "seed {seed}: identical ids");
        // The enabled bitset computed from ids matches the deep one.
        let deep_bits = config
            .enabled()
            .iter()
            .fold(0u64, |bits, p| bits | 1 << p.index());
        assert_eq!(
            interner.enabled_bits(compact.nobjects(), compact.words()),
            deep_bits,
            "seed {seed}: enabled bits"
        );
    }
}

#[test]
fn id_equality_coincides_with_deep_equality() {
    let spec = mixed_system();
    let mut interner = StateInterner::new();
    let mut pairs: Vec<(Config, CompactConfig)> = Vec::new();
    for seed in 0..80u64 {
        let mut rng = SmallRng::seed_from_u64(10_000 + seed);
        let steps = rng.gen_index(9);
        let config = random_reachable_config(&spec, &mut rng, steps);
        let compact = interner.intern_config(&config);
        pairs.push((config, compact));
    }
    for (i, (ca, xa)) in pairs.iter().enumerate() {
        for (cb, xb) in pairs.iter().skip(i) {
            assert_eq!(
                ca == cb,
                xa == xb,
                "id equality must coincide with deep equality"
            );
        }
    }
}

/// Random lockstep walk: the compact stepping path (successor sets,
/// canonicalization) must agree with the deep path at every step.
#[test]
fn compact_stepping_stays_in_lockstep_with_deep() {
    let spec = mixed_system();
    for seed in 0..100u64 {
        let mut rng = SmallRng::seed_from_u64(20_000 + seed);
        let mut interner = StateInterner::new();
        let mut deep = spec.initial_config();
        let mut words: Vec<u32> = interner
            .intern_config(&spec.initial_config())
            .words()
            .to_vec();
        let nobjects = spec.nobjects();
        let mut succs = MemoSuccessors::default();
        let mut scratch = CanonScratch::default();
        for _ in 0..12 {
            assert_eq!(
                interner.materialize_words(nobjects, &words),
                deep,
                "seed {seed}: representations diverged"
            );
            let enabled = deep.enabled();
            if enabled.is_empty() {
                break;
            }
            let pid = enabled[rng.gen_index(enabled.len())];
            // Successor sets agree element-for-element, including the
            // dedup of the coin's duplicate outcome.
            let deep_succs = spec.successors(&deep, pid).unwrap();
            // An empty memo: every step is a miss, stepped in id space.
            let (mut memo, mut log) = (TransitionMemo::new(), MemoLog::default());
            memo.bind(&spec);
            spec.memo_successors(&interner, &memo, &words, pid, &mut succs, &mut log)
                .unwrap();
            assert_eq!(deep_succs.len(), succs.len(), "seed {seed}: fanout");
            let mut finalized = Vec::new();
            for (k, (d, _info)) in deep_succs.iter().enumerate() {
                let p = std::mem::take(succs.successor(k));
                // Canonicalization chooses the same permutation on a
                // cloned copy of both.
                let mut canon_pending = p.clone();
                let perm_c = spec
                    .canonicalize_in_place(&interner, &mut canon_pending, &mut scratch)
                    .map(<[usize]>::to_vec);
                let (canon_deep, perm_d) = spec.canonicalize_config_perm(d.clone());
                assert_eq!(perm_c, perm_d, "seed {seed}: canonical perm");
                let canon_compact = interner.finalize(canon_pending);
                assert_eq!(
                    materialize(&interner, &canon_compact),
                    canon_deep,
                    "seed {seed}: canonical representative"
                );
                // The plain (uncanonicalized) successor round-trips too.
                let compact = interner.finalize(p);
                assert_eq!(
                    materialize(&interner, &compact),
                    *d,
                    "seed {seed}: successor"
                );
                finalized.push(compact);
            }
            // Take the same branch on both sides.
            let pick = rng.gen_index(deep_succs.len());
            deep = deep_succs.into_iter().nth(pick).unwrap().0;
            words = finalized.swap_remove(pick).words().to_vec();
        }
    }
}
