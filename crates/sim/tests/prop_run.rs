//! Differential tests of the runner: [`run`] and [`run_from`] step their
//! configuration in place, and must produce exactly the run of the plain
//! loop kept below as the reference — take the enabled pids, let the
//! scheduler pick one, compute every successor with
//! [`SystemSpec::successors`], ask the chooser only when there are several,
//! keep the chosen one. Same outcome (configuration, step count, final
//! flag, trace) or the same error, and the scheduler and chooser left in
//! the same state, so a caller's next draws match too.

use std::sync::Arc;

use subconsensus_bench::grouped_system;
use subconsensus_objects::{Consensus, SetConsensus};
use subconsensus_protocols::ProposeDecide;
use subconsensus_sim::{
    run, run_from, Action, Config, ObjId, Op, OutcomeChooser, Pid, ProcCtx, Protocol,
    ProtocolError, RandomScheduler, RunOptions, RunOutcome, Scheduler, SimError, SystemBuilder,
    SystemSpec, Trace, Value,
};

/// The runner as a plain loop over the deep step relation.
fn reference_run(
    spec: &SystemSpec,
    mut config: Config,
    scheduler: &mut dyn Scheduler,
    chooser: &mut dyn OutcomeChooser,
    opts: &RunOptions,
) -> Result<RunOutcome, SimError> {
    let mut trace = Trace::new();
    let mut steps = 0;
    while steps < opts.max_steps {
        let enabled = config.enabled();
        if enabled.is_empty() {
            return Ok(RunOutcome {
                config,
                steps,
                reached_final: true,
                trace,
            });
        }
        let Some(pid) = scheduler.next_pid(&enabled) else {
            return Ok(RunOutcome {
                config,
                steps,
                reached_final: false,
                trace,
            });
        };
        let mut succs = spec.successors(&config, pid)?;
        let idx = if succs.len() == 1 {
            0
        } else {
            chooser.choose(succs.len())
        };
        let (next, info) = succs.swap_remove(idx.min(succs.len() - 1));
        if opts.record_trace {
            trace.push(pid, info);
        }
        config = next;
        steps += 1;
    }
    let reached_final = config.is_final();
    Ok(RunOutcome {
        config,
        steps,
        reached_final,
        trace,
    })
}

/// The comparable facts of a run: everything in the outcome, or the error.
fn facts(result: Result<RunOutcome, SimError>) -> Result<(Config, usize, bool, Trace), SimError> {
    result.map(|out| (out.config, out.steps, out.reached_final, out.trace))
}

/// The next few draws of a scheduler and a chooser, which tell whether two
/// of them were left in the same state.
fn next_draws(sched: &mut RandomScheduler, chooser: &mut RandomScheduler) -> Vec<usize> {
    let pids: Vec<Pid> = (0..7).map(Pid::new).collect();
    (0..8)
        .flat_map(|_| {
            let pid = sched.next_pid(&pids).map_or(usize::MAX, Pid::index);
            [pid, chooser.choose(1000)]
        })
        .collect()
}

/// Runs `spec` from `start` (the initial configuration when `None`) under
/// `seed`'s scheduler and chooser, once with the runner and once with the
/// reference, with and without a trace and under a tight and a loose step
/// bound, and asserts the two agree. Returns how many runs erred.
fn assert_runs_agree(spec: &SystemSpec, start: Option<&Config>, seed: u64, what: &str) -> usize {
    let mut errors = 0;
    for max_steps in [1 + seed as usize % 5, 100_000] {
        for record_trace in [false, true] {
            let opts = RunOptions {
                max_steps,
                record_trace,
            };
            let mut sched = RandomScheduler::seeded(seed);
            let mut chooser = RandomScheduler::seeded(seed.wrapping_add(7));
            let (mut ref_sched, mut ref_chooser) = (sched.clone(), chooser.clone());
            let got = match start {
                Some(config) => run_from(spec, config.clone(), &mut sched, &mut chooser, &opts),
                None => run(spec, &mut sched, &mut chooser, &opts),
            };
            let start = start.cloned().unwrap_or_else(|| spec.initial_config());
            let want = reference_run(spec, start, &mut ref_sched, &mut ref_chooser, &opts);
            errors += usize::from(want.is_err());
            let case = format!("{what}, seed {seed}, {opts:?}");
            assert_eq!(facts(got), facts(want), "{case}");
            assert_eq!(
                next_draws(&mut sched, &mut chooser),
                next_draws(&mut ref_sched, &mut ref_chooser),
                "{case}: scheduler or chooser left in another state"
            );
        }
    }
    errors
}

/// `procs` processes proposing distinct values to one object.
fn propose_system(object: impl subconsensus_sim::ObjectSpec + 'static, procs: usize) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(object);
    let p: Arc<dyn Protocol> = Arc::new(ProposeDecide::new(obj));
    b.add_processes(p, (0..procs).map(|i| Value::Int(i as i64 + 1)));
    b.build()
}

/// Proposes its input to a consensus object and decides it, failing with a
/// protocol error when another process's value won.
#[derive(Debug)]
struct FailsWhenBeaten {
    obj: ObjId,
}

impl Protocol for FailsWhenBeaten {
    fn start(&self, _ctx: &ProcCtx) -> Value {
        Value::Int(0)
    }

    fn step(
        &self,
        ctx: &ProcCtx,
        local: &Value,
        resp: Option<&Value>,
    ) -> Result<Action, ProtocolError> {
        match (local.as_int(), resp) {
            (Some(0), _) => Ok(Action::invoke(
                Value::Int(1),
                self.obj,
                Op::unary("propose", ctx.input.clone()),
            )),
            (Some(1), Some(won)) if *won == ctx.input => Ok(Action::Decide(won.clone())),
            (Some(1), Some(_)) => Err(ProtocolError::new("beaten")),
            _ => Err(ProtocolError::new("corrupt state")),
        }
    }
}

#[test]
fn grouped_object_runs_match_the_reference() {
    let spec = grouped_system(4, 3, 16);
    for seed in 0..40 {
        assert_runs_agree(&spec, None, seed, "grouped_system(4, 3, 16)");
    }
}

#[test]
fn set_consensus_runs_consult_the_chooser_as_the_reference_does() {
    let spec = propose_system(SetConsensus::new(3, 2).expect("0 < 2 < 3"), 3);
    // The chooser is consulted at all: some step has several outcomes.
    let init = spec.initial_config();
    let first = spec.successors(&init, Pid::new(0)).expect("steps");
    let second = spec.successors(&first[0].0, Pid::new(1)).expect("steps");
    assert!(second.len() > 1, "a later proposal has several outcomes");
    for seed in 0..200 {
        assert_runs_agree(&spec, None, seed, "(3,2)-set consensus");
    }
}

#[test]
fn runs_with_hanging_operations_match_the_reference() {
    // Two proposals fit; the other processes' proposals hang.
    let spec = propose_system(Consensus::bounded(2), 4);
    for seed in 0..60 {
        assert_runs_agree(&spec, None, seed, "bounded consensus");
    }
    let out = run(
        &spec,
        &mut RandomScheduler::seeded(1),
        &mut RandomScheduler::seeded(2),
        &RunOptions::default(),
    )
    .expect("runs");
    assert!(out.reached_final);
    assert_eq!(out.decisions().iter().filter(|d| d.is_none()).count(), 2);
}

#[test]
fn runs_that_fail_mid_run_fail_like_the_reference() {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(Consensus::unbounded());
    let p: Arc<dyn Protocol> = Arc::new(FailsWhenBeaten { obj });
    b.add_processes(p, (1..=3).map(Value::Int));
    let spec = b.build();
    let errors: usize = (0..60)
        .map(|seed| assert_runs_agree(&spec, None, seed, "fails when beaten"))
        .sum();
    assert!(errors > 0, "no run failed");
}

#[test]
fn runs_from_a_midway_configuration_match_the_reference() {
    let spec = propose_system(SetConsensus::new(3, 2).expect("0 < 2 < 3"), 3);
    for seed in 0..60 {
        let midway = reference_run(
            &spec,
            spec.initial_config(),
            &mut RandomScheduler::seeded(seed),
            &mut RandomScheduler::seeded(seed + 1),
            &RunOptions::with_max_steps(2),
        )
        .expect("runs")
        .config;
        assert_runs_agree(&spec, Some(&midway), seed, "from midway");
    }
}
