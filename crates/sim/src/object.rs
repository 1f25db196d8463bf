//! Sequential specifications of shared objects.

use std::fmt;

use crate::error::ObjectError;
use crate::op::Op;
use crate::value::Value;

/// One possible result of applying an operation to an object.
///
/// An outcome is a successor state plus either a response value or a *hang*:
/// the paper's objects (e.g. set-consensus objects past their access bound)
/// may "hang the system in a manner that cannot be detected by the
/// processes". A hanging outcome updates the object state but never delivers
/// a response, so the invoking process takes no further steps.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Outcome {
    /// The successor state of the object.
    pub state: Value,
    /// The response delivered to the caller, or `None` if the operation
    /// hangs.
    pub response: Option<Value>,
}

impl Outcome {
    /// An outcome that returns `response` and moves the object to `state`.
    pub fn ret(state: Value, response: Value) -> Self {
        Outcome {
            state,
            response: Some(response),
        }
    }

    /// An outcome that hangs the caller forever and moves the object to
    /// `state`.
    pub fn hang(state: Value) -> Self {
        Outcome {
            state,
            response: None,
        }
    }

    /// Returns `true` if this outcome hangs the caller.
    pub fn is_hang(&self) -> bool {
        self.response.is_none()
    }
}

/// The sequential specification of a shared object in the *oblivious* object
/// model.
///
/// An object is a state (a [`Value`]) plus, for every operation, a set of
/// possible outcomes. A **deterministic** object — the subject of the paper —
/// has exactly one outcome for every (state, operation) pair; a
/// nondeterministic object (such as the `(n, k)`-set-consensus object used as
/// a comparison point) may have several, and the simulator or model checker
/// branches over them.
///
/// Obliviousness is enforced structurally: `apply` is not told which process
/// is performing the operation, so no implementation of this trait can
/// discriminate between callers (there are no "ports").
///
/// # Examples
///
/// Implementing a sticky bit:
///
/// ```
/// use subconsensus_sim::{ObjectError, ObjectSpec, Op, Outcome, Value};
///
/// #[derive(Debug)]
/// struct StickyBit;
///
/// impl ObjectSpec for StickyBit {
///     fn type_name(&self) -> &'static str { "sticky-bit" }
///     fn initial_state(&self) -> Value { Value::Nil }
///     fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
///         match op.name {
///             "set" => {
///                 let new = if state.is_nil() {
///                     op.arg(0).cloned().unwrap_or(Value::Nil)
///                 } else {
///                     state.clone()
///                 };
///                 Ok(vec![Outcome::ret(new.clone(), new)])
///             }
///             _ => Err(ObjectError::UnknownOp { object: self.type_name(), op: op.clone() }),
///         }
///     }
/// }
///
/// let bit = StickyBit;
/// let outs = bit.apply(&Value::Nil, &Op::unary("set", Value::Int(1))).unwrap();
/// assert_eq!(outs[0].response, Some(Value::Int(1)));
/// ```
pub trait ObjectSpec: fmt::Debug + Send + Sync {
    /// A short name for the object type, used in error messages and traces.
    fn type_name(&self) -> &'static str;

    /// The initial state of a fresh instance.
    fn initial_state(&self) -> Value;

    /// All possible outcomes of applying `op` in `state`.
    ///
    /// Deterministic objects return exactly one outcome. The returned vector
    /// must be non-empty for a legal operation.
    ///
    /// **Purity contract.** `apply` must be a pure function of `state` and
    /// `op`: the same arguments always yield the same outcomes (or the same
    /// error), in the same order, with no dependence on interior
    /// mutability, randomness or call history. The model checker relies on
    /// it: its transition memo ([`TransitionMemo`](crate::TransitionMemo))
    /// applies each (operation, object state) pair once per exploration
    /// and replays the recorded outcomes from then on, so an impure `apply`
    /// would be explored as if it always answered as it did the first time.
    ///
    /// # Errors
    ///
    /// Returns an [`ObjectError`] if the operation cannot be interpreted
    /// (unknown name, bad arity, ill-typed argument or state).
    fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError>;

    /// Whether every (state, operation) pair has exactly one outcome.
    ///
    /// This is a *declaration* used by determinism audits; the default is
    /// `true`. [`audit_determinism`] cross-checks the declaration on sampled
    /// applications.
    fn is_deterministic(&self) -> bool {
        true
    }

    /// Whether two operations *commute* in `state`: applying `a` then `b`
    /// reaches the same object state and delivers the same responses (for a
    /// nondeterministic object, the same set of joint outcomes) as applying
    /// `b` then `a`.
    ///
    /// Partial-order reduction uses this to declare two steps on the *same*
    /// object independent — e.g. two reads of a register commute, a read and
    /// a write do not. The default is the conservative `false` (never
    /// commute), which is always sound; an override that answers `true` for a
    /// non-commuting pair makes POR unsound, so only answer `true` when the
    /// diamond property above genuinely holds.
    fn commutes(&self, state: &Value, a: &Op, b: &Op) -> bool {
        let _ = (state, a, b);
        false
    }

    /// Rewrites process identities embedded in an object state under a
    /// process permutation, for symmetry-reduced exploration.
    ///
    /// `perm[old]` is the new index of process `old`. Returns `Some(state)`
    /// with every embedded pid rewritten, or `None` if the state embeds no
    /// pids (the default, and the common case: `apply` never learns the
    /// caller's identity, so pids can only enter object state through
    /// operation *arguments* chosen by a protocol — which a pid-symmetric
    /// protocol never does). An object used under an explicit
    /// `SystemBuilder::set_symmetry_groups` override whose protocols pass
    /// pids as arguments must implement this, or the quotient is unsound.
    fn relabel_pids(&self, state: &Value, perm: &[usize]) -> Option<Value> {
        let _ = (state, perm);
        None
    }
}

impl ObjectSpec for Box<dyn ObjectSpec> {
    fn type_name(&self) -> &'static str {
        self.as_ref().type_name()
    }

    fn initial_state(&self) -> Value {
        self.as_ref().initial_state()
    }

    fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
        self.as_ref().apply(state, op)
    }

    fn is_deterministic(&self) -> bool {
        self.as_ref().is_deterministic()
    }

    fn commutes(&self, state: &Value, a: &Op, b: &Op) -> bool {
        self.as_ref().commutes(state, a, b)
    }

    fn relabel_pids(&self, state: &Value, perm: &[usize]) -> Option<Value> {
        self.as_ref().relabel_pids(state, perm)
    }
}

/// A violation found by [`audit_determinism`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeterminismViolation {
    /// The state in which the violation was observed.
    pub state: Value,
    /// The operation whose application was not deterministic.
    pub op: Op,
    /// The number of distinct outcomes observed.
    pub outcomes: usize,
}

impl fmt::Display for DeterminismViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "operation {} in state {} produced {} outcomes (expected exactly 1)",
            self.op, self.state, self.outcomes
        )
    }
}

/// Audits that an object that declares itself deterministic really produces
/// exactly one outcome on every reachable (state, operation) pair, by closing
/// the given seed operations under application up to `depth` steps.
///
/// Returns the first violation found, or `None` if the explored fragment is
/// deterministic.
///
/// # Errors
///
/// Propagates any [`ObjectError`] raised while exploring.
pub fn audit_determinism(
    spec: &dyn ObjectSpec,
    ops: &[Op],
    depth: usize,
) -> Result<Option<DeterminismViolation>, ObjectError> {
    use std::collections::HashSet;

    let mut frontier = vec![spec.initial_state()];
    let mut seen: HashSet<Value> = frontier.iter().cloned().collect();
    for _ in 0..depth {
        let mut next = Vec::new();
        for state in &frontier {
            for op in ops {
                let outcomes = spec.apply(state, op)?;
                if spec.is_deterministic() && outcomes.len() != 1 {
                    return Ok(Some(DeterminismViolation {
                        state: state.clone(),
                        op: op.clone(),
                        outcomes: outcomes.len(),
                    }));
                }
                for out in outcomes {
                    if seen.insert(out.state.clone()) {
                        next.push(out.state);
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately nondeterministic coin for testing the audit.
    #[derive(Debug)]
    struct BrokenCoin;

    impl ObjectSpec for BrokenCoin {
        fn type_name(&self) -> &'static str {
            "broken-coin"
        }

        fn initial_state(&self) -> Value {
            Value::Nil
        }

        fn apply(&self, _state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
            match op.name {
                "flip" => Ok(vec![
                    Outcome::ret(Value::Int(0), Value::Int(0)),
                    Outcome::ret(Value::Int(1), Value::Int(1)),
                ]),
                _ => Err(ObjectError::UnknownOp {
                    object: "broken-coin",
                    op: op.clone(),
                }),
            }
        }
    }

    #[derive(Debug)]
    struct Latch;

    impl ObjectSpec for Latch {
        fn type_name(&self) -> &'static str {
            "latch"
        }

        fn initial_state(&self) -> Value {
            Value::Bool(false)
        }

        fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
            match op.name {
                "latch" => Ok(vec![Outcome::ret(Value::Bool(true), state.clone())]),
                _ => Err(ObjectError::UnknownOp {
                    object: "latch",
                    op: op.clone(),
                }),
            }
        }
    }

    #[test]
    fn outcome_constructors() {
        let o = Outcome::ret(Value::Int(1), Value::Nil);
        assert!(!o.is_hang());
        let h = Outcome::hang(Value::Int(1));
        assert!(h.is_hang());
        assert_eq!(h.state, Value::Int(1));
    }

    #[test]
    fn audit_flags_hidden_nondeterminism() {
        let violation = audit_determinism(&BrokenCoin, &[Op::new("flip")], 3).unwrap();
        let v = violation.expect("audit must flag the broken coin");
        assert_eq!(v.outcomes, 2);
        assert!(v.to_string().contains("flip"));
    }

    #[test]
    fn audit_passes_deterministic_object() {
        let violation = audit_determinism(&Latch, &[Op::new("latch")], 5).unwrap();
        assert_eq!(violation, None);
    }

    #[test]
    fn audit_propagates_object_errors() {
        let err = audit_determinism(&Latch, &[Op::new("bogus")], 2).unwrap_err();
        assert!(matches!(err, ObjectError::UnknownOp { .. }));
    }

    #[test]
    fn boxed_spec_delegates() {
        let boxed: Box<dyn ObjectSpec> = Box::new(Latch);
        assert_eq!(boxed.type_name(), "latch");
        assert_eq!(boxed.initial_state(), Value::Bool(false));
        assert!(boxed.is_deterministic());
        let outs = boxed.apply(&Value::Bool(false), &Op::new("latch")).unwrap();
        assert_eq!(outs.len(), 1);
    }
}
