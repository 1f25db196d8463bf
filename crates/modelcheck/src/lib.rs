//! Exhaustive model checking for subconsensus systems.
//!
//! Because the simulator's step relation is a pure function on hashable
//! configurations, whole (small) systems can be explored exhaustively —
//! every scheduler choice and every nondeterministic object outcome. On top
//! of the resulting [`StateGraph`] this crate provides:
//!
//! * **wait-freedom / termination** — [`check_wait_freedom`]: acyclicity of
//!   the configuration graph plus all-terminals-decide;
//! * **agreement bounds** — [`max_distinct_decisions`] and
//!   [`TerminalReport`]: the exact worst-case number of distinct decided
//!   values over *all* adversary schedules, i.e. the `k` for which a
//!   protocol solves `k`-set consensus;
//! * **valency analysis** — [`Valency`], [`find_critical`]: bivalent /
//!   univalent classification and critical-configuration search, the
//!   mechanized form of the paper's Section-6-style impossibility arguments;
//! * **streaming verdicts** — [`ExploreGoal::Verdict`] / [`VerdictQuery`]:
//!   the answers above accumulated *during* exploration, with early exit at
//!   the first refutation, sound partial verdicts on truncated runs, and
//!   the freeze + reverse-CSR phases skipped entirely.
//!
//! Exploration scales past naive enumeration with three composable
//! reductions (see [`ExploreOptions`]): parallel level expansion
//! (`threads`), the orbit quotient under process symmetry (`symmetry`),
//! and commutativity-based partial-order reduction (`por`) — the last
//! preserving every terminal-derived verdict above while pruning redundant
//! interleavings ([`find_critical`] alone requires a full graph and
//! rejects reduced ones).
//!
//! This is the evaluation engine of the reproduction: the paper proves its
//! theorems by hand; we check each concrete instance exhaustively for small
//! parameters.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod graph;
mod index;
mod properties;
mod spill;
mod valency;
mod verdict;

pub use graph::{
    Edge, ExploreOptions, ExploreSession, GraphStats, NodeView, StateGraph, StoreBackend,
};
pub use properties::{
    check_nonblocking, check_wait_freedom, max_distinct_decisions, TerminalReport, WaitFreedom,
};
// Telemetry types live in `sim` (the shared substrate crate) but are part
// of this crate's exploration API surface; re-export them so model-checking
// callers need only one import path.
pub use subconsensus_sim::{
    ExploreMetrics, LevelMetrics, ProgressReport, Recorder, StoreMetrics, TruncationCause,
};
pub use valency::{find_critical, CriticalConfig, Valency};
pub use verdict::{ExploreGoal, StreamingVerdict, VerdictBound, VerdictCause, VerdictQuery};
