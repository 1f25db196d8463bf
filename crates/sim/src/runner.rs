//! Executing a system under a scheduler.

use crate::error::SimError;
use crate::sched::{OutcomeChooser, Scheduler};
use crate::system::{Config, StepInfo, SystemSpec};
use crate::trace::Trace;
use crate::value::Value;

/// Options controlling a single run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Stop after this many steps even if processes are still enabled.
    pub max_steps: usize,
    /// Record a [`Trace`] of the execution.
    pub record_trace: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_steps: 100_000,
            record_trace: false,
        }
    }
}

impl RunOptions {
    /// Default options with the given step bound.
    pub fn with_max_steps(max_steps: usize) -> Self {
        RunOptions {
            max_steps,
            ..Self::default()
        }
    }

    /// Enables trace recording.
    pub fn traced(mut self) -> Self {
        self.record_trace = true;
        self
    }
}

/// The result of a completed (or truncated) run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The final configuration.
    pub config: Config,
    /// The number of steps taken.
    pub steps: usize,
    /// Whether the run reached a final configuration (nobody enabled), as
    /// opposed to hitting the step bound or the scheduler stopping early.
    pub reached_final: bool,
    /// The recorded trace (empty unless requested).
    pub trace: Trace,
}

impl RunOutcome {
    /// Returns each process's decision (`None` for undecided).
    pub fn decisions(&self) -> Vec<Option<Value>> {
        self.config.decisions()
    }

    /// Returns the sorted set of distinct decided values.
    pub fn decided_values(&self) -> Vec<Value> {
        self.config.decided_values()
    }
}

/// Runs `spec` from its initial configuration under `scheduler`, resolving
/// nondeterministic object outcomes with `chooser`.
///
/// The run stops when no process is enabled, when the scheduler returns
/// `None` (remaining processes fail-stop), or after `opts.max_steps` steps.
///
/// # Errors
///
/// Propagates any [`SimError`] raised while stepping (protocol bugs, illegal
/// operations).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use subconsensus_sim::{
///     run, Action, FirstOutcome, ProcCtx, Protocol, ProtocolError, RoundRobin, RunOptions,
///     SystemBuilder, Value,
/// };
///
/// #[derive(Debug)]
/// struct DecideInput;
/// impl Protocol for DecideInput {
///     fn start(&self, _ctx: &ProcCtx) -> Value { Value::Nil }
///     fn step(&self, ctx: &ProcCtx, _l: &Value, _r: Option<&Value>)
///         -> Result<Action, ProtocolError> {
///         Ok(Action::Decide(ctx.input.clone()))
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SystemBuilder::new();
/// b.add_processes(Arc::new(DecideInput), [Value::Int(1), Value::Int(2)]);
/// let spec = b.build();
/// let out = run(&spec, &mut RoundRobin::new(), &mut FirstOutcome, &RunOptions::default())?;
/// assert!(out.reached_final);
/// assert_eq!(out.decided_values(), vec![Value::Int(1), Value::Int(2)]);
/// # Ok(())
/// # }
/// ```
pub fn run(
    spec: &SystemSpec,
    scheduler: &mut dyn Scheduler,
    chooser: &mut dyn OutcomeChooser,
    opts: &RunOptions,
) -> Result<RunOutcome, SimError> {
    run_from(spec, spec.initial_config(), scheduler, chooser, opts)
}

/// Like [`run`], but starting from an arbitrary configuration.
///
/// The run steps `config` in place: each step writes only the chosen
/// outcome into it (one process `Arc` and, for an invocation, one object
/// `Arc`), the enabled pids are collected into one reused buffer, and a
/// step's [`StepInfo`] is built only when `opts.record_trace` asks for a
/// trace. The chooser is consulted exactly when a step has at least two
/// distinct outcomes, with their count, so the run is step-for-step the
/// one [`SystemSpec::successors`] describes.
///
/// # Errors
///
/// Propagates any [`SimError`] raised while stepping.
pub fn run_from(
    spec: &SystemSpec,
    mut config: Config,
    scheduler: &mut dyn Scheduler,
    chooser: &mut dyn OutcomeChooser,
    opts: &RunOptions,
) -> Result<RunOutcome, SimError> {
    let mut trace = Trace::new();
    let mut enabled = Vec::new();
    let mut outcomes = Vec::new();
    let mut steps = 0;
    while steps < opts.max_steps {
        config.enabled_into(&mut enabled);
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
        let action = spec.step_in_place(&mut config, pid, &mut outcomes, |n| chooser.choose(n))?;
        if opts.record_trace {
            trace.push(pid, StepInfo::of(action, config.proc_state(pid)));
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{ObjectError, ProtocolError};
    use crate::ids::ObjId;
    use crate::object::{ObjectSpec, Outcome};
    use crate::op::Op;
    use crate::protocol::{Action, ProcCtx, Protocol};
    use crate::sched::{FirstOutcome, RandomScheduler, ReplayChooser, RoundRobin};
    use crate::system::SystemBuilder;
    use std::sync::Arc;

    /// A register supporting read/write.
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
                _ => Err(ObjectError::UnknownOp {
                    object: "reg",
                    op: op.clone(),
                }),
            }
        }
    }

    /// A nondeterministic coin: flip() returns 0 or 1.
    #[derive(Debug)]
    struct Coin;

    impl ObjectSpec for Coin {
        fn type_name(&self) -> &'static str {
            "coin"
        }

        fn initial_state(&self) -> Value {
            Value::Nil
        }

        fn apply(&self, state: &Value, _op: &Op) -> Result<Vec<Outcome>, ObjectError> {
            Ok(vec![
                Outcome::ret(state.clone(), Value::Int(0)),
                Outcome::ret(state.clone(), Value::Int(1)),
            ])
        }

        fn is_deterministic(&self) -> bool {
            false
        }
    }

    /// Flip the coin once and decide the result.
    #[derive(Debug)]
    struct FlipOnce {
        coin: ObjId,
    }

    impl Protocol for FlipOnce {
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
                Some(1) => Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil))),
                _ => Err(ProtocolError::new("bad pc")),
            }
        }
    }

    /// Spin on reads forever.
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
    fn chooser_resolves_nondeterminism() {
        let mut b = SystemBuilder::new();
        let coin = b.add_object(Coin);
        b.add_process(Arc::new(FlipOnce { coin }), Value::Nil);
        let spec = b.build();

        let mut heads = ReplayChooser::new(vec![1]);
        let out = run(
            &spec,
            &mut RoundRobin::new(),
            &mut heads,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(out.decided_values(), vec![Value::Int(1)]);

        let mut tails = ReplayChooser::new(vec![0]);
        let out = run(
            &spec,
            &mut RoundRobin::new(),
            &mut tails,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(out.decided_values(), vec![Value::Int(0)]);
    }

    #[test]
    fn step_bound_truncates_nonterminating_runs() {
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        b.add_process(Arc::new(Spinner { reg }), Value::Nil);
        let spec = b.build();
        let out = run(
            &spec,
            &mut RoundRobin::new(),
            &mut FirstOutcome,
            &RunOptions::with_max_steps(17),
        )
        .unwrap();
        assert_eq!(out.steps, 17);
        assert!(!out.reached_final);
    }

    #[test]
    fn trace_is_recorded_when_requested() {
        let mut b = SystemBuilder::new();
        let coin = b.add_object(Coin);
        b.add_process(Arc::new(FlipOnce { coin }), Value::Nil);
        let spec = b.build();
        let out = run(
            &spec,
            &mut RoundRobin::new(),
            &mut FirstOutcome,
            &RunOptions::default().traced(),
        )
        .unwrap();
        assert_eq!(out.trace.len(), 2);
        assert_eq!(
            out.trace.schedule(),
            vec![crate::Pid::new(0), crate::Pid::new(0)]
        );
    }

    #[test]
    fn random_runs_complete_and_agree_with_replay() {
        let mut b = SystemBuilder::new();
        let coin = b.add_object(Coin);
        let p = Arc::new(FlipOnce { coin });
        b.add_processes(p, [Value::Nil, Value::Nil, Value::Nil]);
        let spec = b.build();

        let mut sched = RandomScheduler::seeded(11);
        let mut chooser = RandomScheduler::seeded(12);
        let out = run(
            &spec,
            &mut sched,
            &mut chooser,
            &RunOptions::default().traced(),
        )
        .unwrap();
        assert!(out.reached_final);
        assert_eq!(out.decisions().iter().filter(|d| d.is_some()).count(), 3);
    }
}
