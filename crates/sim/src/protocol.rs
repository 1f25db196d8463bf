//! Per-process algorithms as explicit state machines.

use std::fmt;

use crate::error::ProtocolError;
use crate::ids::{ObjId, Pid};
use crate::op::Op;
use crate::value::Value;

/// The immutable per-process context handed to every protocol step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcCtx {
    /// The identity of the process running the protocol.
    pub pid: Pid,
    /// The number of processes in the system.
    pub nprocs: usize,
    /// The task input of this process ([`Value::Nil`] if the protocol takes
    /// no input).
    pub input: Value,
}

impl ProcCtx {
    /// Creates a context.
    pub fn new(pid: Pid, nprocs: usize, input: Value) -> Self {
        ProcCtx { pid, nprocs, input }
    }
}

/// The action a protocol takes on one step.
///
/// In the standard shared-memory model a *step* is exactly one atomic
/// operation on one shared object (local computation is folded into the
/// step), or the final, irrevocable decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Perform one atomic operation on a shared object and update the local
    /// state.
    Invoke {
        /// The local state to hold while the operation is in flight.
        local: Value,
        /// The target object.
        obj: ObjId,
        /// The operation to apply.
        op: Op,
    },
    /// Decide the given output value and halt.
    Decide(Value),
}

impl Action {
    /// Convenience constructor for [`Action::Invoke`].
    pub fn invoke(local: Value, obj: ObjId, op: Op) -> Self {
        Action::Invoke { local, obj, op }
    }
}

/// A deterministic per-process algorithm for a one-shot task.
///
/// A protocol is a pure transition function over an explicit, hashable local
/// state (a [`Value`]). The simulator calls [`Protocol::start`] once to
/// obtain the initial local state, then repeatedly calls [`Protocol::step`]:
/// each step receives the local state and the response to the previous
/// invocation (`None` on the very first step) and either invokes one atomic
/// operation or decides.
///
/// Keeping the local state an explicit `Value` (rather than hiding it in
/// `&mut self`) is what lets the model checker clone, hash and deduplicate
/// whole system configurations.
///
/// # Examples
///
/// A one-step protocol that writes its input to a register and decides it:
///
/// ```
/// use subconsensus_sim::{Action, ObjId, Op, ProcCtx, Protocol, ProtocolError, Value};
///
/// #[derive(Debug)]
/// struct WriteAndDecide { reg: ObjId }
///
/// impl Protocol for WriteAndDecide {
///     fn start(&self, _ctx: &ProcCtx) -> Value { Value::Sym("init") }
///
///     fn step(
///         &self,
///         ctx: &ProcCtx,
///         local: &Value,
///         _resp: Option<&Value>,
///     ) -> Result<Action, ProtocolError> {
///         match local.as_sym() {
///             Some("init") => Ok(Action::invoke(
///                 Value::Sym("wrote"),
///                 self.reg,
///                 Op::unary("write", ctx.input.clone()),
///             )),
///             Some("wrote") => Ok(Action::Decide(ctx.input.clone())),
///             _ => Err(ProtocolError::new("corrupt local state")),
///         }
///     }
/// }
/// ```
pub trait Protocol: fmt::Debug + Send + Sync {
    /// Returns the initial local state for the process described by `ctx`.
    fn start(&self, ctx: &ProcCtx) -> Value;

    /// Takes one step: given the local state and the response to the previous
    /// invocation (`None` on the first step), returns the next [`Action`].
    ///
    /// Like [`ObjectSpec::apply`](crate::ObjectSpec::apply), `step` must be
    /// a pure function of its arguments: the model checker's transition
    /// memo runs it once per (process, process state) and reuses the action.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] if the local state or response has an
    /// unexpected shape — this indicates a bug in the protocol, not a
    /// property violation of the algorithm under study.
    fn step(
        &self,
        ctx: &ProcCtx,
        local: &Value,
        resp: Option<&Value>,
    ) -> Result<Action, ProtocolError>;

    /// Whether this protocol's behavior is independent of `ctx.pid`.
    ///
    /// A pid-symmetric protocol may read `ctx.input` and `ctx.nprocs` but
    /// must produce the same start state and the same step function for every
    /// process identity — so two processes running it with equal inputs are
    /// interchangeable, and the model checker may explore one representative
    /// per permutation orbit (see `SystemBuilder::build`). This is a
    /// *declaration*: the default is the conservative `false`, and an
    /// implementation that reads `ctx.pid` (even just to index an object
    /// array) must not override it.
    fn pid_symmetric(&self) -> bool {
        false
    }

    /// The set of objects this process may invoke at *any* point of *any*
    /// execution, or `None` if unknown.
    ///
    /// Partial-order reduction uses this static footprint to find groups of
    /// processes that can never interact: two processes with disjoint
    /// declared footprints are independent forever, so the checker may defer
    /// one group while exhausting another. The declaration must cover every
    /// object the process could ever touch — an under-declared footprint
    /// makes POR unsound (verdicts may silently change). The default `None`
    /// is always sound: an undeclared process is assumed to conflict with
    /// everyone.
    fn obj_footprint(&self, ctx: &ProcCtx) -> Option<Vec<ObjId>> {
        let _ = ctx;
        None
    }
}

impl Protocol for std::sync::Arc<dyn Protocol> {
    fn start(&self, ctx: &ProcCtx) -> Value {
        self.as_ref().start(ctx)
    }

    fn step(
        &self,
        ctx: &ProcCtx,
        local: &Value,
        resp: Option<&Value>,
    ) -> Result<Action, ProtocolError> {
        self.as_ref().step(ctx, local, resp)
    }

    fn pid_symmetric(&self) -> bool {
        self.as_ref().pid_symmetric()
    }

    fn obj_footprint(&self, ctx: &ProcCtx) -> Option<Vec<ObjId>> {
        self.as_ref().obj_footprint(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct DecideInput;

    impl Protocol for DecideInput {
        fn start(&self, _ctx: &ProcCtx) -> Value {
            Value::Nil
        }

        fn step(
            &self,
            ctx: &ProcCtx,
            _local: &Value,
            _resp: Option<&Value>,
        ) -> Result<Action, ProtocolError> {
            Ok(Action::Decide(ctx.input.clone()))
        }
    }

    #[test]
    fn ctx_carries_identity_and_input() {
        let ctx = ProcCtx::new(Pid::new(1), 3, Value::Int(7));
        assert_eq!(ctx.pid, Pid::new(1));
        assert_eq!(ctx.nprocs, 3);
        let p = DecideInput;
        assert_eq!(
            p.step(&ctx, &Value::Nil, None).unwrap(),
            Action::Decide(Value::Int(7))
        );
    }

    #[test]
    fn arc_protocol_delegates() {
        let p: std::sync::Arc<dyn Protocol> = std::sync::Arc::new(DecideInput);
        let ctx = ProcCtx::new(Pid::new(0), 1, Value::Int(1));
        assert_eq!(p.start(&ctx), Value::Nil);
        assert_eq!(
            p.step(&ctx, &Value::Nil, None).unwrap(),
            Action::Decide(Value::Int(1))
        );
    }

    #[test]
    fn action_invoke_helper() {
        let a = Action::invoke(Value::Nil, ObjId::new(2), Op::new("read"));
        match a {
            Action::Invoke { obj, op, .. } => {
                assert_eq!(obj, ObjId::new(2));
                assert_eq!(op.name, "read");
            }
            Action::Decide(_) => panic!("expected invoke"),
        }
    }
}
