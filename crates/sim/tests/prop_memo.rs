//! Randomized differential test of the transition memo: at every
//! configuration of random reachable walks, the successors
//! [`SystemSpec::memo_successors`] produces must equal those of the deep
//! [`SystemSpec::successors`] once both are interned — stepped on a miss
//! (an empty memo) and replayed on a hit (a memo filled by earlier walks)
//! — and a failing step must fail identically and leave nothing in the
//! memo. Each successor is also canonicalized in id space and checked
//! against the deep [`SystemSpec::canonicalize_config_perm`], both the
//! representative and the permutation.
//!
//! The system is built so that a memo keyed too coarsely fails: every
//! process runs one protocol instance, starts in the same state and
//! shares one proc id, but proposes a value computed from `ctx.pid` and
//! `ctx.input`, and two processes have equal inputs — so a process key
//! that dropped the pid would replay one process's step for the other.
//! The agreement object answers with several outcomes and hangs past its
//! access bound.
//!
//! Written over the in-tree seeded [`SmallRng`] (repo style: seeded loops,
//! no external property-testing dependency).

use std::borrow::Cow;
use std::sync::Arc;

use subconsensus_sim::{
    Action, CanonScratch, Config, MemoLog, MemoSuccessors, ObjId, ObjectError, ObjectSpec, Op,
    Outcome, Pid, ProcCtx, ProcStatus, Protocol, ProtocolError, SimError, SmallRng, StateInterner,
    SymmetryGroups, SystemBuilder, SystemSpec, TransitionMemo, Value,
};

/// The proposal the agreement object rejects with an error.
const POISON: i64 = 99;

/// A `k`-set agreement object with an access bound: each `propose(v)`
/// joins `v` to the first `k` distinct proposals and may return any of
/// them (one outcome per candidate); the access after the `limit`-th
/// hangs. State: `(proposals, accesses)`.
#[derive(Debug)]
struct SetAgree {
    k: usize,
    limit: i64,
}

impl ObjectSpec for SetAgree {
    fn type_name(&self) -> &'static str {
        "set-agree"
    }

    fn initial_state(&self) -> Value {
        Value::tup([Value::tup([]), Value::Int(0)])
    }

    fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
        let v = op.arg(0).cloned().unwrap_or(Value::Nil);
        if v == Value::Int(POISON) {
            return Err(ObjectError::IllegalOp {
                object: "set-agree",
                detail: "poisoned proposal".into(),
            });
        }
        let Value::Tup(parts) = state else {
            unreachable!("set-agree state is a pair")
        };
        let (Value::Tup(proposals), Some(accesses)) = (&parts[0], parts[1].as_int()) else {
            unreachable!("set-agree state is (proposals, accesses)")
        };
        let mut proposals = proposals.clone();
        if proposals.len() < self.k && !proposals.contains(&v) {
            proposals.push(v);
        }
        let next = Value::tup([Value::Tup(proposals.clone()), Value::Int(accesses + 1)]);
        if accesses >= self.limit {
            return Ok(vec![Outcome::hang(next)]);
        }
        Ok(proposals
            .into_iter()
            .map(|answer| Outcome::ret(next.clone(), answer))
            .collect())
    }
}

/// Proposes `input + pid` twice, then decides the last answer. The local
/// state is a bare program counter, so every process starts in the same
/// state while their steps differ by `ctx.pid` and `ctx.input`.
#[derive(Debug)]
struct ProposeMine {
    obj: ObjId,
}

impl Protocol for ProposeMine {
    fn start(&self, _ctx: &ProcCtx) -> Value {
        Value::Int(0)
    }

    fn step(
        &self,
        ctx: &ProcCtx,
        local: &Value,
        resp: Option<&Value>,
    ) -> Result<Action, ProtocolError> {
        let mine = Value::Int(ctx.input.as_int().unwrap_or(0) + ctx.pid.index() as i64);
        match local.as_int() {
            Some(pc @ (0 | 1)) => Ok(Action::invoke(
                Value::Int(pc + 1),
                self.obj,
                Op::unary("propose", mine),
            )),
            Some(2) => Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil))),
            _ => Err(ProtocolError::new("corrupt pc")),
        }
    }
}

/// Four processes on one 2-set agreement object bounded at five accesses;
/// process 3 proposes [`POISON`], so every step it tries fails. Processes
/// 0–2 form an explicit symmetry group, so the canonicalization check
/// sees nontrivial permutations (the group is not a sound symmetry of
/// this protocol; canonicalization is checked as a function of the
/// configuration only).
fn system() -> SystemSpec {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(SetAgree { k: 2, limit: 5 });
    let p: Arc<dyn Protocol> = Arc::new(ProposeMine { obj });
    b.add_processes(p, [1, 2, 1, POISON - 3].into_iter().map(Value::Int));
    b.set_symmetry_groups(SymmetryGroups::new([(0..3).map(Pid::new)]));
    b.build()
}

/// What the memo walk exercised, so the test can insist on coverage.
#[derive(Debug, Default)]
struct Coverage {
    hits: u64,
    multi_outcome_hits: u64,
    hang_hits: u64,
    errors: u64,
    permuted: u64,
}

/// Checks every pid (one out of range included) at `config`, first
/// through an empty memo (a miss), then through `memo`, whose fills it
/// absorbs: the successors equal the deep ones once interned, their
/// id-space canonical forms and permutations equal the deep sort's, and
/// errors agree and are not recorded.
fn check_config(
    spec: &SystemSpec,
    interner: &mut StateInterner,
    memo: &mut TransitionMemo,
    config: &Config,
    cov: &mut Coverage,
) {
    let words = interner.intern_config(config).words().to_vec();
    let mut out = MemoSuccessors::default();
    let mut scratch = CanonScratch::default();
    let mut empty = TransitionMemo::new();
    empty.bind(spec);
    for p in 0..=spec.nprocs() {
        let pid = Pid::new(p);
        let expected = spec.successors(config, pid);
        for shared in [false, true] {
            let used = if shared { &*memo } else { &empty };
            let mut log = MemoLog::default();
            let got = spec.memo_successors(interner, used, &words, pid, &mut out, &mut log);
            let hit = log.hits() == 1;
            assert!(shared || !hit, "pid {p}: an empty memo hit");
            match (&expected, got) {
                (Err(e), Err(g)) => {
                    assert_eq!(*e, g, "pid {p}: errors differ");
                    if !shared {
                        continue;
                    }
                    cov.errors += 1;
                    let before = memo.entries();
                    memo.absorb(&mut log);
                    assert_eq!(memo.entries(), before, "pid {p}: an error was memoized");
                    if matches!(e, SimError::Object { .. }) {
                        // The protocol step succeeded, yet its action must
                        // not have been learned from a failing transition.
                        let fp = spec.memo_footprint(interner, memo, &words, pid).unwrap();
                        assert!(matches!(fp, Cow::Owned(_)), "pid {p}: action memoized");
                    }
                }
                (Ok(expected), Ok(())) => {
                    assert_eq!(expected.len(), out.len(), "pid {p}: fanout");
                    let mut hung = false;
                    for (k, (next, _)) in expected.iter().enumerate() {
                        let pending = std::mem::take(out.successor(k));
                        let mut canon = pending.clone();
                        let perm = spec
                            .canonicalize_in_place(interner, &mut canon, &mut scratch)
                            .map(<[usize]>::to_vec);
                        let (canon_deep, perm_deep) = spec.canonicalize_config_perm(next.clone());
                        assert_eq!(perm, perm_deep, "pid {p}: canonical permutation");
                        cov.permuted += u64::from(perm.is_some());
                        let got = interner.finalize(pending);
                        assert_eq!(got, interner.intern_config(next), "pid {p}: successor {k}");
                        let got_canon = interner.finalize(canon);
                        assert_eq!(
                            got_canon,
                            interner.intern_config(&canon_deep),
                            "pid {p}: canonical successor {k}"
                        );
                        let stepped = got.words()[got.nobjects() + p];
                        hung |= interner.proc(stepped).status == ProcStatus::Hung;
                    }
                    if hit {
                        cov.hits += 1;
                        cov.multi_outcome_hits += u64::from(expected.len() > 1);
                        cov.hang_hits += u64::from(hung);
                    }
                    if shared {
                        memo.absorb(&mut log);
                    }
                }
                (e, g) => panic!("pid {p}: deep {e:?} but memoized {g:?}"),
            }
        }
    }
}

/// Walks a uniformly random schedule of legal steps for at most `steps`
/// steps, returning every configuration it visits.
fn random_walk(spec: &SystemSpec, rng: &mut SmallRng, steps: usize) -> Vec<Config> {
    let mut config = spec.initial_config();
    let mut visited = vec![config.clone()];
    for _ in 0..steps {
        let mut options: Vec<Config> = config
            .enabled()
            .into_iter()
            .filter_map(|pid| spec.successors(&config, pid).ok())
            .flatten()
            .map(|(next, _)| next)
            .collect();
        if options.is_empty() {
            break;
        }
        config = options.swap_remove(rng.gen_index(options.len()));
        visited.push(config.clone());
    }
    visited
}

#[test]
fn memoized_successors_equal_deep_ones() {
    let spec = system();
    let init = spec.initial_config();
    let mut interner = StateInterner::new();
    let init_words = interner.intern_config(&init);
    let procs = &init_words.words()[spec.nobjects()..];
    assert!(
        procs.iter().all(|&id| id == procs[0]),
        "every process starts with the same proc id, so the memo key needs the process key"
    );
    assert_eq!(
        spec.ctx(Pid::new(0)).input,
        spec.ctx(Pid::new(2)).input,
        "pids 0 and 2 share protocol and input, so their process keys differ only by the pid"
    );
    // One interner and one memo across all walks, so later walks replay
    // what earlier ones recorded.
    let mut memo = TransitionMemo::new();
    memo.bind(&spec);
    let mut cov = Coverage::default();
    for seed in 0..120u64 {
        let mut rng = SmallRng::seed_from_u64(30_000 + seed);
        let steps = rng.gen_index(12);
        for config in random_walk(&spec, &mut rng, steps) {
            // Twice: the second pass replays what the first recorded.
            for _ in 0..2 {
                check_config(&spec, &mut interner, &mut memo, &config, &mut cov);
            }
        }
    }
    assert!(cov.hits > 0, "{cov:?}");
    assert!(cov.multi_outcome_hits > 0, "no multi-outcome hit: {cov:?}");
    assert!(cov.hang_hits > 0, "no hang replayed: {cov:?}");
    assert!(cov.errors > 0, "no failing step checked: {cov:?}");
    assert!(cov.permuted > 0, "no successor was permuted: {cov:?}");
    assert!(memo.entries() > 0 && memo.bytes() > 0);
}
