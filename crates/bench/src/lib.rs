//! Shared fixtures for the experiment benchmarks (`benches/e1 … e9`).
//!
//! Each bench regenerates one table of `EXPERIMENTS.md` (printed once at
//! startup) and then measures the kernels behind it with the in-tree
//! [`harness`] (a std-only stand-in for the criterion API).

pub mod harness;

use std::sync::Arc;

use subconsensus_core::GroupedObject;
use subconsensus_objects::{Consensus, Queue, RegisterArray, SetConsensus};
use subconsensus_protocols::{
    tournament_nodes, GridRenaming, PartitionPropose, ProposeDecide, Tournament,
    UniversalConstruction,
};
use subconsensus_sim::{
    Action, BaseObjects, Implementation, ObjId, ObjectSpec, Op, Pid, ProcCtx, Protocol,
    ProtocolError, SymmetryGroups, SystemBuilder, SystemSpec, Value,
};

/// `procs` processes proposing distinct values through one
/// `GroupedObject::for_level(n, k)`.
///
/// Distinct inputs mean the automatic symmetry groups are trivial; use
/// [`grouped_system_sym`] for the orbit-quotient fixtures.
pub fn grouped_system(n: usize, k: usize, procs: usize) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(GroupedObject::for_level(n, k));
    let p: Arc<dyn Protocol> = Arc::new(ProposeDecide::new(obj));
    b.add_processes(p, (0..procs).map(|i| Value::Int(i as i64 + 1)));
    b.build()
}

/// `procs` processes proposing one shared value through one
/// `GroupedObject::for_level(n, k)` — the symmetric sibling of
/// [`grouped_system`]: every process runs the same `ProposeDecide` instance
/// with the same input, so `SystemBuilder::build` groups all of them into a
/// single symmetry class and symmetry-enabled exploration visits one config
/// per orbit.
pub fn grouped_system_sym(n: usize, k: usize, procs: usize) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(GroupedObject::for_level(n, k));
    let p: Arc<dyn Protocol> = Arc::new(ProposeDecide::new(obj));
    b.add_processes(p, (0..procs).map(|_| Value::Int(1)));
    b.build()
}

/// `procs` processes over `⌈procs/m⌉` copies of an `(m, j)` agreement
/// object ((m,1) = bounded consensus).
///
/// `PartitionPropose` reads `ctx.pid`, so the automatic symmetry groups are
/// trivial here; [`partition_system_sym`] declares the per-block symmetry
/// explicitly.
pub fn partition_system(procs: usize, m: usize, j: usize) -> SystemSpec {
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

/// The symmetric sibling of [`partition_system`]: every process of a block
/// gets the block index as input, and the per-block symmetry — invisible to
/// the automatic rule because `PartitionPropose` reads `ctx.pid` to pick
/// its block object — is declared with an explicit
/// `SystemBuilder::set_symmetry_groups` override. Processes of one block
/// are interchangeable: they propose the same value to the same object, and
/// no object state embeds a pid.
pub fn partition_system_sym(procs: usize, m: usize, j: usize) -> SystemSpec {
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

/// An *over-capacity* partitioned fixture: `blocks` blocks of `group`
/// equal-input processes, each block sharing one `Consensus::bounded(m)`
/// with `m < group`, so every schedule hangs `group - m` processes per
/// block.
///
/// This exercises the *hung-terminal* refutation of a streaming
/// wait-freedom check ([`ExploreGoal::Verdict`]): every terminal contains
/// hung processes, so the verdict is refuted at the first terminal level.
/// Note the exit saves no configurations here — exactly `m` processes
/// decide (2 steps each) and `group - m` hang (1 step each) in *every*
/// schedule, so all terminals sit on the same BFS level and the early exit
/// lands on the last level anyway. The gate fixtures
/// ([`grouped_gate_sym`], [`partition_gate_sym`]) are the ones whose
/// refutation is confirmed early; this one pins down the hang path and the
/// level-granular exit's determinism. Per-block symmetry is declared
/// explicitly, as in [`partition_system_sym`].
///
/// [`ExploreGoal::Verdict`]: subconsensus_modelcheck::ExploreGoal
///
/// # Panics
///
/// Panics if `m == 0` or `m >= group`.
pub fn partition_overflow_sym(blocks: usize, group: usize, m: usize) -> SystemSpec {
    assert!(m > 0, "object capacity must be positive");
    assert!(
        m < group,
        "overflow fixture needs more proposers than capacity"
    );
    let mut b = SystemBuilder::new();
    let procs = blocks * group;
    let base = b.add_object_array(blocks, |_| {
        Box::new(Consensus::bounded(m)) as Box<dyn ObjectSpec>
    });
    let p: Arc<dyn Protocol> = Arc::new(PartitionPropose::new(base, group));
    b.add_processes(p, (0..procs).map(|i| Value::Int((i / group) as i64 + 1)));
    b.set_symmetry_groups(SymmetryGroups::new((0..blocks).map(|blk| {
        (0..procs)
            .filter(move |i| i / group == blk)
            .map(Pid::new)
            .collect::<Vec<_>>()
    })));
    b.build()
}

/// The writer-and-spinners "gate" protocol behind [`grouped_gate_sym`] and
/// [`partition_gate_sym`]: the first process of each `group`-sized block
/// proposes to the block's agreement object and then raises the block's
/// flag register; every other process of the block spin-reads the flag and
/// decides once it is up.
///
/// The spin makes the protocol non-blocking but *not* wait-free — a
/// schedule that never runs the writer loops forever — and the spin cycle
/// closes within the first few BFS levels, so a streaming wait-freedom
/// check ([`ExploreGoal::Verdict`]) refutes and exits while the full
/// interleaving graph is still growing. The refutation survives every
/// reduction: spinners and writer share the flag's footprint, so
/// partial-order reduction cannot serialize the spin away, and the
/// symmetry quotient keeps one representative of the looping orbit.
///
/// [`ExploreGoal::Verdict`]: subconsensus_modelcheck::ExploreGoal
#[derive(Clone, Copy, Debug)]
struct GateSpin {
    /// First block's agreement object (block `b` uses `objs + b`).
    objs: ObjId,
    /// First block's one-cell flag register (block `b` uses `flags + b`).
    flags: ObjId,
    /// Processes per block; pid `b * group` is block `b`'s writer.
    group: usize,
}

impl GateSpin {
    fn block(&self, pid: Pid) -> usize {
        pid.index() / self.group
    }

    fn is_writer(&self, pid: Pid) -> bool {
        pid.index() % self.group == 0
    }
}

impl Protocol for GateSpin {
    fn start(&self, _ctx: &ProcCtx) -> Value {
        Value::Int(0)
    }

    fn step(
        &self,
        ctx: &ProcCtx,
        local: &Value,
        resp: Option<&Value>,
    ) -> Result<Action, ProtocolError> {
        let blk = self.block(ctx.pid);
        let pc = local.as_int().unwrap_or(-1);
        if self.is_writer(ctx.pid) {
            match pc {
                0 => Ok(Action::invoke(
                    Value::Int(1),
                    self.objs.offset(blk),
                    Op::unary("propose", ctx.input.clone()),
                )),
                1 => Ok(Action::invoke(
                    Value::Int(2),
                    self.flags.offset(blk),
                    Op::binary("write", Value::Int(0), Value::Int(1)),
                )),
                2 => Ok(Action::Decide(ctx.input.clone())),
                pc => Err(ProtocolError::new(format!("gate-spin writer: bad pc {pc}"))),
            }
        } else {
            match pc {
                0 => Ok(Action::invoke(
                    Value::Int(1),
                    self.flags.offset(blk),
                    Op::unary("read", Value::Int(0)),
                )),
                1 => {
                    if resp.is_some_and(|r| r.as_int() == Some(1)) {
                        Ok(Action::Decide(ctx.input.clone()))
                    } else {
                        // Flag still down: poll again from the same local
                        // state — the successor configuration equals this
                        // one, which is the spin cycle the verdict engine
                        // refutes.
                        Ok(Action::invoke(
                            Value::Int(1),
                            self.flags.offset(blk),
                            Op::unary("read", Value::Int(0)),
                        ))
                    }
                }
                pc => Err(ProtocolError::new(format!(
                    "gate-spin spinner: bad pc {pc}"
                ))),
            }
        }
    }

    // Every process only ever touches its own block's objects, so disjoint
    // blocks stay statically independent (POR serializes across blocks);
    // within a block the writer and the spinners share the flag, which is
    // what keeps the spin cycle in the reduced graph.
    fn obj_footprint(&self, ctx: &ProcCtx) -> Option<Vec<ObjId>> {
        let blk = self.block(ctx.pid);
        if self.is_writer(ctx.pid) {
            Some(vec![self.objs.offset(blk), self.flags.offset(blk)])
        } else {
            Some(vec![self.flags.offset(blk)])
        }
    }
}

/// A one-block `GateSpin` gate over a `GroupedObject::for_level(n, k)`:
/// pid 0 proposes and raises the flag, the `procs - 1` equal-input
/// spinners poll it. The spinners form one explicit symmetry group (the
/// protocol reads `ctx.pid` to pick its role, so the automatic rule sees
/// nothing).
///
/// This is the p10 verdict-goal bench fixture (`grouped_gate_sym(2, 1,
/// 10)`): the full graph enumerates every writer/spinner interleaving
/// while a streaming wait-freedom verdict exits at the first confirmed
/// spin cycle, a few levels in.
///
/// # Panics
///
/// Panics if `procs < 2` (a gate needs a writer and at least one spinner).
pub fn grouped_gate_sym(n: usize, k: usize, procs: usize) -> SystemSpec {
    assert!(procs >= 2, "a gate needs a writer and at least one spinner");
    let mut b = SystemBuilder::new();
    let objs = b.add_object(GroupedObject::for_level(n, k));
    let flags = b.add_object(RegisterArray::new(1));
    let p: Arc<dyn Protocol> = Arc::new(GateSpin {
        objs,
        flags,
        group: procs,
    });
    b.add_processes(p, (0..procs).map(|_| Value::Int(1)));
    b.set_symmetry_groups(SymmetryGroups::new([(1..procs)
        .map(Pid::new)
        .collect::<Vec<_>>()]));
    b.build()
}

/// The partitioned sibling of [`grouped_gate_sym`]: `blocks` blocks of
/// `group` processes, each block with its own `Consensus::bounded(m)` and
/// its own flag register, writer and spinners as in `GateSpin`. The
/// per-block spinner symmetry is declared explicitly, as in
/// [`partition_system_sym`].
///
/// This is the p12 verdict-goal bench fixture (`partition_gate_sym(2, 6,
/// 2)`).
///
/// # Panics
///
/// Panics if `m == 0` or `group < 2`.
pub fn partition_gate_sym(blocks: usize, group: usize, m: usize) -> SystemSpec {
    assert!(m > 0, "object capacity must be positive");
    assert!(group >= 2, "a gate needs a writer and at least one spinner");
    let mut b = SystemBuilder::new();
    let procs = blocks * group;
    let objs = b.add_object_array(blocks, |_| {
        Box::new(Consensus::bounded(m)) as Box<dyn ObjectSpec>
    });
    let flags = b.add_object_array(blocks, |_| {
        Box::new(RegisterArray::new(1)) as Box<dyn ObjectSpec>
    });
    let p: Arc<dyn Protocol> = Arc::new(GateSpin { objs, flags, group });
    b.add_processes(p, (0..procs).map(|i| Value::Int((i / group) as i64 + 1)));
    b.set_symmetry_groups(SymmetryGroups::new((0..blocks).map(|blk| {
        (blk * group + 1..(blk + 1) * group)
            .map(Pid::new)
            .collect::<Vec<_>>()
    })));
    b.build()
}

/// A tournament test-and-set system for `n` processes.
pub fn tournament_system(n: usize) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let base = b.add_object_array(tournament_nodes(n), |_| {
        Box::new(Consensus::bounded(2)) as Box<dyn ObjectSpec>
    });
    let p: Arc<dyn Protocol> = Arc::new(Tournament::new(base, n));
    b.add_processes(p, (0..n).map(Value::from));
    b.build()
}

/// A grid-renaming system for `k` participants with large original names.
pub fn renaming_system(k: usize) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let regs = b.add_object(RegisterArray::new(GridRenaming::registers_needed(k)));
    let p: Arc<dyn Protocol> = Arc::new(GridRenaming::new(regs, k));
    b.add_processes(p, (0..k).map(|i| Value::Int(1_000 + 37 * i as i64)));
    b.build()
}

/// A universal-construction queue over `nprocs`-bounded consensus slots,
/// plus a simple enq/deq workload per process.
pub fn universal_queue(
    nprocs: usize,
    nslots: usize,
    ops_per_proc: usize,
) -> (BaseObjects, Arc<dyn Implementation>, Vec<Vec<Op>>) {
    let mut bank = BaseObjects::new();
    let announce = bank.add(RegisterArray::new(nprocs));
    let slots = bank.add_array(nslots, |_| {
        Box::new(Consensus::bounded(nprocs)) as Box<dyn ObjectSpec>
    });
    let inner: Arc<dyn ObjectSpec> = Arc::new(Queue::new());
    let im: Arc<dyn Implementation> = Arc::new(UniversalConstruction::new(
        inner, announce, slots, nslots, nprocs,
    ));
    let workload = (0..nprocs)
        .map(|p| {
            (0..ops_per_proc)
                .map(|i| {
                    if i % 2 == 0 {
                        Op::unary("enq", Value::Int((p * 100 + i) as i64))
                    } else {
                        Op::new("deq")
                    }
                })
                .collect()
        })
        .collect();
    (bank, im, workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subconsensus_sim::{run, FirstOutcome, RoundRobin, RunOptions};

    #[test]
    fn fixtures_build_and_run() {
        for spec in [
            grouped_system(2, 1, 4),
            grouped_system_sym(2, 1, 4),
            partition_system(6, 3, 2),
            partition_system_sym(6, 3, 2),
            tournament_system(4),
            renaming_system(3),
        ] {
            let out = run(
                &spec,
                &mut RoundRobin::new(),
                &mut subconsensus_sim::RandomScheduler::seeded(1),
                &RunOptions::default(),
            )
            .unwrap();
            assert!(out.reached_final);
        }
        // The symmetric fixtures carry the symmetry groups they promise.
        assert_eq!(
            grouped_system_sym(2, 1, 3).symmetry_groups().groups(),
            &[vec![Pid::new(0), Pid::new(1), Pid::new(2)]]
        );
        assert_eq!(
            partition_system_sym(4, 2, 1).symmetry_groups().groups(),
            &[
                vec![Pid::new(0), Pid::new(1)],
                vec![Pid::new(2), Pid::new(3)]
            ]
        );
        assert!(grouped_system(2, 1, 3).symmetry_groups().is_trivial());
        assert!(partition_system(4, 2, 1).symmetry_groups().is_trivial());

        let (bank, im, workload) = universal_queue(2, 16, 4);
        let out = subconsensus_sim::run_concurrent(
            &bank,
            &im,
            workload,
            &mut RoundRobin::new(),
            &mut FirstOutcome,
            1_000_000,
        )
        .unwrap();
        assert!(out.reached_final);
    }
}

#[cfg(test)]
mod gate_tests {
    use super::*;
    use subconsensus_modelcheck::{
        check_wait_freedom, ExploreGoal, ExploreOptions, StateGraph, VerdictQuery,
    };

    /// The gate fixtures are the verdict-goal bench workload: their spin
    /// cycle must refute wait-freedom within the first few levels, strictly
    /// before the full graph is done, under every reduction combination.
    #[test]
    fn gate_fixtures_refute_wait_freedom_early() {
        for spec in [grouped_gate_sym(2, 1, 4), partition_gate_sym(2, 3, 2)] {
            for symmetry in [false, true] {
                for por in [false, true] {
                    let base = ExploreOptions::default()
                        .with_symmetry(symmetry)
                        .with_por(por);
                    let full = StateGraph::explore(&spec, &base).unwrap();
                    assert!(!full.is_truncated());
                    assert!(!check_wait_freedom(&full).is_wait_free());
                    let goal = ExploreGoal::Verdict(VerdictQuery::new().require_wait_freedom());
                    let v = StateGraph::explore(&spec, &base.clone().with_goal(goal)).unwrap();
                    let vd = v.verdict().expect("verdict goal yields a verdict");
                    assert_eq!(vd.holds(), Some(false), "sym={symmetry} por={por}");
                    assert!(
                        vd.configs < full.len(),
                        "sym={symmetry} por={por}: verdict explored {} of {}",
                        vd.configs,
                        full.len()
                    );
                }
            }
        }
    }

    /// The overflow fixture refutes through hung terminals instead; all its
    /// terminals share one BFS level, so the refutation is exact but saves
    /// no configurations (see the builder docs).
    #[test]
    fn overflow_fixture_refutes_through_hangs() {
        let spec = partition_overflow_sym(2, 3, 2);
        let goal = ExploreGoal::Verdict(VerdictQuery::new().require_wait_freedom());
        let g = StateGraph::explore(&spec, &ExploreOptions::default().with_goal(goal)).unwrap();
        let vd = g.verdict().unwrap();
        assert_eq!(vd.holds(), Some(false));
        assert!(vd.terminals > 0, "refuted at a terminal, not a cycle");
    }
}
