//! Randomized tests for configuration canonicalization: on random reachable
//! configurations of a symmetric system, `SystemSpec::canonicalize_config`
//! is idempotent and invariant under random within-group pid permutations —
//! the two algebraic facts orbit-quotient exploration rests on.
//!
//! Written over the in-tree seeded [`SmallRng`] (repo style: seeded loops,
//! no external property-testing dependency).

use std::sync::Arc;

use subconsensus_sim::{
    Action, Config, ObjId, ObjectError, ObjectSpec, Op, Outcome, Pid, ProcCtx, Protocol,
    ProtocolError, SmallRng, SymmetryGroups, SystemBuilder, SystemSpec, Value,
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

/// Propose the input, decide the answer. Never reads `ctx.pid`.
#[derive(Debug)]
struct SymPropose {
    obj: ObjId,
}

impl Protocol for SymPropose {
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

    fn pid_symmetric(&self) -> bool {
        true
    }
}

/// Five proposers with inputs (1, 1, 1, 2, 2): two nontrivial symmetry
/// groups of different sizes, detected automatically by the builder.
fn two_group_system() -> SystemSpec {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(Sticky);
    let p: Arc<dyn Protocol> = Arc::new(SymPropose { obj });
    b.add_processes(p, [1i64, 1, 1, 2, 2].into_iter().map(Value::Int));
    let spec = b.build();
    assert_eq!(
        spec.symmetry_groups().groups(),
        &[
            vec![Pid::new(0), Pid::new(1), Pid::new(2)],
            vec![Pid::new(3), Pid::new(4)]
        ]
    );
    spec
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

/// A uniformly random permutation moving pids only within their groups
/// (identity outside), as `perm[old] = new`.
fn random_within_group_perm(
    groups: &SymmetryGroups,
    nprocs: usize,
    rng: &mut SmallRng,
) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..nprocs).collect();
    for group in groups.groups() {
        // Fisher–Yates over the group's slots.
        let mut slots: Vec<usize> = group.iter().map(|p| p.index()).collect();
        for i in (1..slots.len()).rev() {
            let j = rng.gen_index(i + 1);
            slots.swap(i, j);
        }
        for (member, slot) in group.iter().zip(slots) {
            perm[member.index()] = slot;
        }
    }
    perm
}

#[test]
fn canonicalize_is_idempotent_on_random_configs() {
    let spec = two_group_system();
    for seed in 0..200u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let steps = rng.gen_index(11);
        let config = random_reachable_config(&spec, &mut rng, steps);
        let once = spec.canonicalize_config(config);
        let twice = spec.canonicalize_config(once.clone());
        assert_eq!(once, twice, "seed {seed}: canonicalize must be idempotent");
    }
}

#[test]
fn canonicalize_is_invariant_under_within_group_permutations() {
    let spec = two_group_system();
    let groups = spec.symmetry_groups().clone();
    for seed in 0..200u64 {
        let mut rng = SmallRng::seed_from_u64(1_000 + seed);
        let steps = rng.gen_index(11);
        let config = random_reachable_config(&spec, &mut rng, steps);
        let perm = random_within_group_perm(&groups, spec.nprocs(), &mut rng);
        let shuffled = config.permuted(&perm);
        assert_eq!(
            spec.canonicalize_config(config),
            spec.canonicalize_config(shuffled),
            "seed {seed}: orbit members must share a representative (perm {perm:?})"
        );
    }
}

#[test]
fn canonical_representative_is_within_group_sorted() {
    // The representative's defining property, checked directly: inside each
    // group the process states ascend.
    let spec = two_group_system();
    let groups = spec.symmetry_groups().clone();
    for seed in 0..100u64 {
        let mut rng = SmallRng::seed_from_u64(2_000 + seed);
        let config = random_reachable_config(&spec, &mut rng, 10);
        let canon = spec.canonicalize_config(config);
        for group in groups.groups() {
            for w in group.windows(2) {
                assert!(
                    canon.proc_state(w[0]) <= canon.proc_state(w[1]),
                    "seed {seed}: group states must be sorted"
                );
            }
        }
    }
}
