//! Known-answer checking that counts failures instead of panicking.
//!
//! Every checked operation runs through [`Checker::op`]: an `Err`, a wrong
//! answer or a panic inside the program counts as one failed operation, so
//! a broken program still yields a complete result record.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// How many failure messages are kept for the report.
const KEEP_MESSAGES: usize = 16;

/// Tally of checked operations.
#[derive(Debug, Default)]
pub struct Checker {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

/// The result of one checked operation: `Err` carries what went wrong.
pub type Outcome = Result<(), String>;

/// `Ok(())` if `cond` holds, otherwise `Err` with the message.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Outcome {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// `Ok(())` if `got == want`, otherwise an `Err` naming both.
pub fn ensure_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Outcome {
    ensure(got == want, || {
        format!("{what}: got {got:?}, want {want:?}")
    })
}

impl Checker {
    /// Runs one checked operation labelled `label`.
    pub fn op(&mut self, label: &str, f: impl FnOnce() -> Outcome) {
        self.attempted += 1;
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(())) => return,
            Ok(Err(msg)) => msg,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".to_string());
                format!("panicked: {msg}")
            }
        };
        self.failed += 1;
        if self.messages.len() < KEEP_MESSAGES {
            self.messages.push(format!("{label}: {err}"));
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first few failure messages.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_errors_mismatches_and_panics() {
        let mut c = Checker::default();
        c.op("ok", || Ok(()));
        c.op("mismatch", || ensure_eq("configs", 3, 4));
        c.op("panic", || panic!("boom"));
        assert_eq!((c.attempted(), c.failed()), (3, 2));
        assert!(c.messages()[1].contains("boom"));
    }
}
