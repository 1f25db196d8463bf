//! Discrete asynchronous shared-memory simulator.
//!
//! This crate is the substrate of the `subconsensus` workspace — an
//! executable form of the standard asynchronous shared-memory model with
//! *oblivious* objects used by *Deterministic Objects: Life Beyond Consensus*
//! (Afek, Ellen, Gafni — PODC 2016):
//!
//! * processes communicate only by applying atomic operations (**steps**) to
//!   shared objects;
//! * each object is a sequential specification ([`ObjectSpec`]) mapping a
//!   (state, operation) pair to one outcome (deterministic objects) or
//!   several (nondeterministic ones); outcomes may **hang** the caller
//!   undetectably;
//! * per-process algorithms are pure state machines ([`Protocol`] for
//!   one-shot tasks, [`Implementation`] for long-lived objects);
//! * a **configuration** ([`Config`]) is the state of every process and
//!   object; taking a step is a pure function from configurations to
//!   successor configurations, so executions can be replayed, randomized and
//!   exhaustively model-checked;
//! * the **adversary** is a [`Scheduler`]; fail-stop crashes are schedulers
//!   that stop scheduling a process;
//! * implemented objects are validated with a linearizability checker
//!   ([`check_linearizable`]).
//!
//! # Quick example
//!
//! Two processes race to write a register; the decided values are whatever
//! each process read afterwards:
//!
//! ```
//! use std::sync::Arc;
//! use subconsensus_sim::{
//!     run, Action, FirstOutcome, ObjId, ObjectError, ObjectSpec, Op, Outcome, ProcCtx,
//!     Protocol, ProtocolError, RoundRobin, RunOptions, SystemBuilder, Value,
//! };
//!
//! #[derive(Debug)]
//! struct Reg;
//! impl ObjectSpec for Reg {
//!     fn type_name(&self) -> &'static str { "reg" }
//!     fn initial_state(&self) -> Value { Value::Nil }
//!     fn apply(&self, s: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
//!         Ok(match op.name {
//!             "read" => vec![Outcome::ret(s.clone(), s.clone())],
//!             _ => vec![Outcome::ret(op.arg(0).cloned().unwrap(), Value::Nil)],
//!         })
//!     }
//! }
//!
//! #[derive(Debug)]
//! struct WriteThenRead { reg: ObjId }
//! impl Protocol for WriteThenRead {
//!     fn start(&self, _ctx: &ProcCtx) -> Value { Value::Int(0) }
//!     fn step(&self, ctx: &ProcCtx, local: &Value, resp: Option<&Value>)
//!         -> Result<Action, ProtocolError> {
//!         match local.as_int() {
//!             Some(0) => Ok(Action::invoke(Value::Int(1), self.reg,
//!                 Op::unary("write", ctx.input.clone()))),
//!             Some(1) => Ok(Action::invoke(Value::Int(2), self.reg, Op::new("read"))),
//!             _ => Ok(Action::Decide(resp.cloned().unwrap())),
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SystemBuilder::new();
//! let reg = b.add_object(Reg);
//! b.add_processes(Arc::new(WriteThenRead { reg }), [Value::Int(1), Value::Int(2)]);
//! let spec = b.build();
//! let out = run(&spec, &mut RoundRobin::new(), &mut FirstOutcome, &RunOptions::default())?;
//! assert!(out.reached_final);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod concurrent;
mod error;
mod history;
mod ids;
mod implementation;
mod intern;
pub mod json;
mod linearize;
mod metrics;
mod object;
mod op;
mod protocol;
mod rng;
mod runner;
mod sched;
mod system;
mod trace;
mod value;

pub use concurrent::{run_concurrent, BaseObjects, ConcurrentOutcome};
pub use error::{ObjectError, ProtocolError, SimError};
pub use history::{History, HistoryError, HistoryEvent, OpId, OpRecord};
pub use ids::{ObjId, Pid};
pub use implementation::{ImplStep, Implementation};
pub use intern::{CompactConfig, InternerStats, PendingConfig, StateInterner};
pub use linearize::{check_linearizable, is_linearizable, LinearizeError, MAX_OPS};
pub use metrics::{
    env_flag, git_revision, mc_env_json, unix_time_ms, warn_once, ExploreMetrics, LevelMetrics,
    PhaseGuard, ProgressReport, Recorder, RunRecord, StoreMetrics, TruncationCause,
    DEFAULT_PROGRESS_EVERY,
};
pub use object::{audit_determinism, DeterminismViolation, ObjectSpec, Outcome};
pub use op::Op;
pub use protocol::{Action, ProcCtx, Protocol};
pub use rng::SmallRng;
pub use runner::{run, run_from, RunOptions, RunOutcome};
pub use sched::{
    CrashScheduler, FirstOutcome, OutcomeChooser, PriorityScheduler, RandomScheduler,
    ReplayChooser, ReplayScheduler, RoundRobin, Scheduler,
};
pub use system::{
    Config, ProcState, ProcStatus, StepFootprint, StepInfo, SymmetryGroups, SystemBuilder,
    SystemSpec,
};
pub use trace::{Trace, TraceEvent};
pub use value::Value;
