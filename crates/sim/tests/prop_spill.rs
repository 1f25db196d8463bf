//! Randomized tests for arena spill primitives: encode → evict → restore
//! cycles must be bit-exact, conserve the resident-byte accounting, and
//! leave every id denoting the same state — the invariants the disk-backed
//! exploration store (`MC_STORE=disk`) rests on.
//!
//! Written over the in-tree seeded [`SmallRng`] (repo style: seeded loops,
//! no external property-testing dependency).

use std::sync::Arc;

use subconsensus_sim::{
    Action, CompactConfig, Config, ObjId, ObjectError, ObjectSpec, Op, Outcome, Pid, ProcCtx,
    Protocol, ProtocolError, SmallRng, StateInterner, SystemBuilder, SystemSpec, Value,
    ARENA_SEGMENT,
};

/// A counter: every `inc` makes a brand-new state, so long walks populate
/// whole arena segments with distinct values (the segment tests need more
/// than [`ARENA_SEGMENT`] distinct states per pool).
#[derive(Debug)]
struct Counter;

impl ObjectSpec for Counter {
    fn type_name(&self) -> &'static str {
        "counter"
    }

    fn initial_state(&self) -> Value {
        Value::Int(0)
    }

    fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
        match op.name {
            "inc" => {
                let n = state.as_int().unwrap_or(0) + 1;
                Ok(vec![Outcome::ret(Value::Int(n), Value::Int(n))])
            }
            _ => Err(ObjectError::UnknownOp {
                object: "counter",
                op: op.clone(),
            }),
        }
    }
}

/// Increment `rounds` times, then decide the last response.
#[derive(Debug)]
struct IncMany {
    counter: ObjId,
    rounds: i64,
}

impl Protocol for IncMany {
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
            Some(i) if i < self.rounds => Ok(Action::invoke(
                Value::Int(i + 1),
                self.counter,
                Op::new("inc"),
            )),
            _ => Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil))),
        }
    }
}

/// Two 80-round incrementers: walks reach up to 160 distinct counter
/// states and a comparable spread of proc states — several complete
/// [`ARENA_SEGMENT`]-sized segments in each pool.
fn counter_system() -> SystemSpec {
    let mut b = SystemBuilder::new();
    let counter = b.add_object(Counter);
    let p: Arc<dyn Protocol> = Arc::new(IncMany {
        counter,
        rounds: 80,
    });
    b.add_processes(p, [1i64, 2].into_iter().map(Value::Int));
    b.build()
}

/// Walks a uniformly random schedule for at most `steps` steps.
fn random_reachable_config(spec: &SystemSpec, rng: &mut SmallRng, steps: usize) -> Config {
    let mut config = spec.initial_config();
    for _ in 0..steps {
        let enabled: Vec<Pid> = config.enabled_iter().collect();
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

/// Interns configs from seeded random walks (plus one exhaustive run to
/// the end) until both pools hold at least `min_segments` complete
/// segments; returns the (deep, compact) pairs seen.
fn populate(
    spec: &SystemSpec,
    interner: &mut StateInterner,
    base_seed: u64,
    min_segments: usize,
) -> Vec<(Config, CompactConfig)> {
    let mut pairs = Vec::new();
    // One full-length walk guarantees the counter sweeps 0..=160.
    let mut config = spec.initial_config();
    let mut rng = SmallRng::seed_from_u64(base_seed);
    loop {
        pairs.push((config.clone(), interner.intern_config(&config)));
        let enabled: Vec<Pid> = config.enabled_iter().collect();
        if enabled.is_empty() {
            break;
        }
        let pid = enabled[rng.gen_index(enabled.len())];
        let mut succs = spec.successors(&config, pid).expect("legal step");
        let pick = rng.gen_index(succs.len());
        config = succs.swap_remove(pick).0;
    }
    // Short random walks diversify proc-state interleavings.
    for seed in 0..40u64 {
        let mut rng = SmallRng::seed_from_u64(base_seed + 1000 + seed);
        let steps = rng.gen_index(60);
        let config = random_reachable_config(spec, &mut rng, steps);
        let compact = interner.intern_config(&config);
        pairs.push((config, compact));
    }
    assert!(
        interner.object_segments() >= min_segments,
        "fixture too small: {} complete object segments (need {min_segments}, \
         segment = {ARENA_SEGMENT} ids)",
        interner.object_segments()
    );
    assert!(
        interner.proc_segments() >= min_segments,
        "fixture too small: {} complete proc segments",
        interner.proc_segments()
    );
    pairs
}

#[test]
fn segment_encode_evict_restore_round_trips_bit_exact() {
    let spec = counter_system();
    for seed in 0..8u64 {
        let mut interner = StateInterner::new();
        let pairs = populate(&spec, &mut interner, seed * 7919, 2);
        let before_bytes = interner.resident_state_bytes();
        // Every complete segment in both pools: encode → evict → restore
        // must conserve the byte accounting and re-encode identically.
        for seg in 0..interner.object_segments() {
            let bytes = interner.encode_object_segment(seg);
            let freed = interner.evict_object_segment(seg);
            assert!(freed > 0, "seed {seed}: object segment {seg} freed bytes");
            assert!(!interner.object_segment_resident(seg));
            let restored = interner.restore_object_segment(seg, &bytes);
            assert_eq!(freed, restored, "seed {seed}: object bytes conserved");
            assert!(interner.object_segment_resident(seg));
            assert_eq!(
                bytes,
                interner.encode_object_segment(seg),
                "seed {seed}: object segment {seg} re-encodes bit-exact"
            );
        }
        for seg in 0..interner.proc_segments() {
            let bytes = interner.encode_proc_segment(seg);
            let freed = interner.evict_proc_segment(seg);
            assert!(freed > 0, "seed {seed}: proc segment {seg} freed bytes");
            assert!(!interner.proc_segment_resident(seg));
            let restored = interner.restore_proc_segment(seg, &bytes);
            assert_eq!(freed, restored, "seed {seed}: proc bytes conserved");
            assert_eq!(
                bytes,
                interner.encode_proc_segment(seg),
                "seed {seed}: proc segment {seg} re-encodes bit-exact"
            );
        }
        assert_eq!(
            before_bytes,
            interner.resident_state_bytes(),
            "seed {seed}: resident accounting round-trips"
        );
        // After the full cycle every compact config still materializes to
        // its original deep form and re-interns to the same ids.
        for (i, (config, compact)) in pairs.iter().enumerate() {
            assert_eq!(
                compact.materialize(&interner),
                *config,
                "seed {seed}: pair {i} materializes"
            );
            assert_eq!(
                &interner.intern_config(config),
                compact,
                "seed {seed}: pair {i} keeps its ids"
            );
        }
    }
}

#[test]
fn id_equality_survives_reload() {
    let spec = counter_system();
    for seed in 0..4u64 {
        let mut interner = StateInterner::new();
        let pairs = populate(&spec, &mut interner, 50_000 + seed * 104_729, 2);
        // Evict every complete segment in both pools at once — the worst
        // case the disk store's eviction pass can produce.
        let mut obj_bytes = Vec::new();
        for seg in 0..interner.object_segments() {
            obj_bytes.push(interner.encode_object_segment(seg));
            interner.evict_object_segment(seg);
        }
        let mut proc_bytes = Vec::new();
        for seg in 0..interner.proc_segments() {
            proc_bytes.push(interner.encode_proc_segment(seg));
            interner.evict_proc_segment(seg);
        }
        for (seg, bytes) in obj_bytes.iter().enumerate() {
            interner.restore_object_segment(seg, bytes);
        }
        for (seg, bytes) in proc_bytes.iter().enumerate() {
            interner.restore_proc_segment(seg, bytes);
        }
        // Id equality still coincides with deep equality after the reload:
        // re-interning takes the dedup path through restored values.
        for (i, (config, compact)) in pairs.iter().enumerate() {
            assert_eq!(
                &interner.intern_config(config),
                compact,
                "seed {seed}: pair {i} dedups onto its restored states"
            );
        }
        for (i, (ca, xa)) in pairs.iter().enumerate() {
            for (cb, xb) in pairs.iter().skip(i) {
                assert_eq!(
                    ca == cb,
                    xa == xb,
                    "seed {seed}: id equality must coincide with deep equality"
                );
            }
        }
    }
}
