//! Streaming verdicts: answer property questions *during* exploration.
//!
//! The classic pipeline explores the full reachable graph, freezes it into
//! CSR form, builds a reverse CSR, and only then asks the questions
//! (wait-freedom, agreement bounds, validity, root valency). For
//! verdict-only callers — `search_binary_consensus`, the hierarchy tables —
//! that is wasted work twice over: the freeze and reverse-CSR phases build
//! structures the caller never looks at, and exploration keeps running long
//! after the answer is decided (the first hung terminal, the first
//! disagreeing decision set, the first lasso).
//!
//! [`VerdictQuery`] names the conjunction of properties a caller wants;
//! [`ExploreGoal::Verdict`] makes the explorer accumulate the answer
//! *streamingly* as nodes merge and stop at the end of the first BFS level
//! where any queried conjunct is refuted. The result is a
//! [`StreamingVerdict`]: exact on complete runs, and a *sound partial*
//! answer (one-sided bounds plus a cause) on truncated or early-exited
//! runs.
//!
//! # Why early exit is sound
//!
//! Every refutation the engine acts on is witnessed by structure that is
//! *real* in any prefix of the exploration:
//!
//! - **Terminals are real.** A node is terminal iff it has no enabled
//!   process, a property of the configuration itself — so a hung process,
//!   an undecided process, a decision outside the valid set, or a
//!   disagreeing decision set observed at *any* merged terminal refutes
//!   the corresponding property of the full graph too.
//! - **Cycles are real.** Edges recorded so far are edges of the full
//!   graph; a cycle in a prefix is a cycle in the whole, so wait-freedom
//!   is refuted the moment one is confirmed.
//! - **Positive answers need completeness.** "Wait-free", "at most k
//!   distinct decisions", "all decisions valid" quantify over *all*
//!   executions, so the engine only confirms them when exploration ran to
//!   exhaustion. On truncated runs they stay undecided and the verdict
//!   reports bounds instead ([`VerdictBound`], [`VerdictCause`]).
//!
//! Symmetry and POR quotients preserve exactly the facts the engine
//! streams (terminal decision sets, hangs, cycles-or-not, root valence) —
//! see DESIGN.md — so a verdict goal composes with both reductions, and
//! with parallel expansion: facts are folded in the sequential merge, in
//! the same order the graph itself is built in.

use std::collections::BTreeSet;

use subconsensus_sim::{ProcStatus, StateInterner, Value};

use crate::properties::WaitFreedom;

/// What an exploration is *for*: the full frozen graph, or just a verdict.
///
/// Under [`ExploreGoal::Verdict`] the explorer accumulates the queried
/// properties on the fly, stops at the end of the first level where the
/// query is refuted, and skips the freeze + reverse-CSR phases entirely —
/// the resulting `StateGraph` carries a [`StreamingVerdict`] but no CSR
/// (CSR-dependent methods panic with a pointed message; re-explore with
/// `FullGraph` to get one).
#[derive(Clone, Debug, Default, PartialEq)]
pub enum ExploreGoal {
    /// Build the full graph: freeze the CSR, keep every node addressable.
    #[default]
    FullGraph,
    /// Answer the query, as early as possible; skip the CSR machinery.
    Verdict(VerdictQuery),
}

/// A conjunction of property questions to decide during exploration.
///
/// Components left unqueried are still *tracked* (the verdict reports
/// them) but never trigger an early exit. An empty query never exits
/// early and is vacuously confirmed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VerdictQuery {
    /// Require wait-freedom: refuted by a hung process at a terminal, an
    /// undecided process at a terminal, or a confirmed cycle (lasso).
    pub wait_freedom: bool,
    /// Require at most this many distinct decided values per terminal
    /// (`Some(1)` = consensus agreement; `Some(k)` = k-set agreement).
    pub max_distinct: Option<usize>,
    /// Require every decided value to come from this set (validity).
    pub valid_values: Option<Vec<Value>>,
    /// Require a univalent root: refuted the moment two distinct decided
    /// values are observed across terminals — the first bivalent critical
    /// configuration of the valency argument.
    pub univalent: bool,
}

impl VerdictQuery {
    /// An empty query: nothing required, nothing exits early.
    pub fn new() -> Self {
        Self::default()
    }

    /// Require wait-freedom.
    pub fn require_wait_freedom(mut self) -> Self {
        self.wait_freedom = true;
        self
    }

    /// Require at most `k` distinct decided values per terminal.
    pub fn require_max_distinct(mut self, k: usize) -> Self {
        self.max_distinct = Some(k);
        self
    }

    /// Require every decided value to be one of `values`.
    pub fn require_valid_values(mut self, values: Vec<Value>) -> Self {
        self.valid_values = Some(values);
        self
    }

    /// Require a univalent root (refuted by the first bivalence witness).
    pub fn require_univalent(mut self) -> Self {
        self.univalent = true;
        self
    }
}

/// Why a verdict run stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerdictCause {
    /// The reachable graph was explored to exhaustion: every component of
    /// the verdict is exact.
    Exhausted,
    /// Some queried conjunct was refuted and exploration stopped at the
    /// end of that BFS level. Refutations are exact; unrefuted components
    /// stay undecided.
    EarlyExit {
        /// The first refuted conjunct, human-readable.
        reason: &'static str,
    },
    /// The `max_configs` bound dropped states: only refutations and lower
    /// bounds are decided — a sound *partial* verdict.
    Truncated {
        /// The configuration cap that was hit.
        cap: usize,
    },
}

/// A one-sided-safe bound on a counted quantity (distinct decisions).
///
/// `lower` is always sound: that many were *observed*. `upper` is `Some`
/// exactly when exploration completed, in which case both bounds coincide
/// with the true value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerdictBound {
    /// Largest value observed so far (sound lower bound).
    pub lower: usize,
    /// Exact value when the run completed; `None` on partial runs.
    pub upper: Option<usize>,
}

impl VerdictBound {
    /// The exact value, when the run decided it.
    pub fn exact(&self) -> Option<usize> {
        self.upper.filter(|&u| u == self.lower)
    }
}

/// The answer a verdict-goal exploration returns.
///
/// Every component uses three-valued logic: `Some(x)` is decided (sound
/// regardless of how the run ended), `None` is undecided (the run ended
/// before the property could be confirmed). [`holds`](Self::holds) folds
/// the *queried* components into one answer.
#[derive(Clone, Debug)]
pub struct StreamingVerdict {
    /// Why the run stopped.
    pub cause: VerdictCause,
    /// Configurations explored before stopping.
    pub configs: usize,
    /// Terminal configurations observed before stopping.
    pub terminals: usize,
    /// Wait-freedom: `Some(WaitFree)` only on complete runs; any refuting
    /// variant is sound the moment it is reported.
    pub wait_freedom: Option<WaitFreedom>,
    /// Bound on the per-terminal distinct-decision count (the k-agreement
    /// quantity); exact on complete runs.
    pub max_distinct: VerdictBound,
    /// Validity against the queried set: `Some(false)` on the first
    /// out-of-set decision, `Some(true)` only on completion, `None` when
    /// no valid set was queried or the run was cut short.
    pub validity: Option<bool>,
    /// Decided values observed across all terminals so far — a sound
    /// lower bound on the root valence, exact on complete runs.
    pub root_valence: BTreeSet<Value>,
    /// Root bivalence: `Some(true)` as soon as two distinct decided values
    /// exist, `Some(false)` only on completion.
    pub root_bivalent: Option<bool>,
    query: VerdictQuery,
}

impl StreamingVerdict {
    /// Whether the run explored the whole reachable graph.
    pub fn complete(&self) -> bool {
        self.cause == VerdictCause::Exhausted
    }

    /// Folds the queried conjuncts into one three-valued answer:
    /// `Some(false)` the moment any queried conjunct is refuted (sound on
    /// partial runs), `Some(true)` when all queried conjuncts are
    /// confirmed (requires completion), `None` otherwise.
    pub fn holds(&self) -> Option<bool> {
        let mut confirmed = true;
        if self.query.wait_freedom {
            match &self.wait_freedom {
                Some(WaitFreedom::WaitFree) => {}
                Some(_) => return Some(false),
                None => confirmed = false,
            }
        }
        if let Some(k) = self.query.max_distinct {
            if self.max_distinct.lower > k {
                return Some(false);
            }
            match self.max_distinct.upper {
                Some(u) if u <= k => {}
                _ => confirmed = false,
            }
        }
        if self.query.valid_values.is_some() {
            match self.validity {
                Some(false) => return Some(false),
                Some(true) => {}
                None => confirmed = false,
            }
        }
        if self.query.univalent {
            match self.root_bivalent {
                Some(true) => return Some(false),
                Some(false) => {}
                None => confirmed = false,
            }
        }
        if confirmed {
            Some(true)
        } else {
            None
        }
    }

    /// The query this verdict answers.
    pub fn query(&self) -> &VerdictQuery {
        &self.query
    }

    /// The verdict as one JSON object — the `outcome` payload of a
    /// run-ledger line (hand-formatted like every emitter here; the root
    /// valence set is elided, its cardinality is what analyses consume).
    pub fn to_json(&self) -> String {
        use subconsensus_sim::json::json_escape;
        let cause = match &self.cause {
            VerdictCause::Exhausted => "{\"kind\": \"exhausted\"}".to_string(),
            VerdictCause::EarlyExit { reason } => format!(
                "{{\"kind\": \"early_exit\", \"reason\": \"{}\"}}",
                json_escape(reason)
            ),
            VerdictCause::Truncated { cap } => {
                format!("{{\"kind\": \"truncated\", \"cap\": {cap}}}")
            }
        };
        let opt_bool = |b: Option<bool>| b.map_or_else(|| "null".to_string(), |b| b.to_string());
        let wait_freedom = match &self.wait_freedom {
            None => "null".to_string(),
            Some(WaitFreedom::WaitFree) => "\"wait_free\"".to_string(),
            Some(WaitFreedom::Diverges) => "\"diverges\"".to_string(),
            Some(WaitFreedom::Hangs) => "\"hangs\"".to_string(),
            Some(WaitFreedom::Stuck) => "\"stuck\"".to_string(),
        };
        let upper = self
            .max_distinct
            .upper
            .map_or_else(|| "null".to_string(), |u| u.to_string());
        format!(
            "{{\"cause\": {cause}, \"configs\": {}, \"terminals\": {}, \
             \"complete\": {}, \"holds\": {}, \"wait_freedom\": {wait_freedom}, \
             \"max_distinct\": {{\"lower\": {}, \"upper\": {upper}}}, \
             \"validity\": {}, \"root_valence_size\": {}, \"root_bivalent\": {}}}",
            self.configs,
            self.terminals,
            self.complete(),
            opt_bool(self.holds()),
            self.max_distinct.lower,
            opt_bool(self.validity),
            self.root_valence.len(),
            opt_bool(self.root_bivalent)
        )
    }
}

/// Per-terminal facts a store reports without materializing a `Config`:
/// the distinct decided values plus the hung / undecided classification —
/// everything the streaming engine consumes.
#[derive(Clone, Debug, Default)]
pub(crate) struct TerminalFacts {
    /// Sorted, deduplicated decided values at this terminal.
    pub decided: Vec<Value>,
    /// Some process is hung here.
    pub any_hung: bool,
    /// Every process decided here.
    pub all_decided: bool,
}

impl TerminalFacts {
    /// Classifies the interned process states `procs` (the process part of
    /// a node's id row) without materializing a `Config` — the one
    /// terminal classification behind both the streaming verdict and
    /// [`TerminalReport`](crate::TerminalReport).
    pub(crate) fn of_procs(interner: &StateInterner, procs: &[u32]) -> Self {
        let mut decided: Vec<Value> = Vec::new();
        let mut any_hung = false;
        let mut all_decided = true;
        for &id in procs {
            match &interner.proc(id).status {
                ProcStatus::Decided(v) => decided.push(v.clone()),
                ProcStatus::Hung => {
                    any_hung = true;
                    all_decided = false;
                }
                ProcStatus::Fresh | ProcStatus::Running => all_decided = false,
            }
        }
        decided.sort();
        decided.dedup();
        TerminalFacts {
            decided,
            any_hung,
            all_decided,
        }
    }
}

/// The in-flight accumulator `explore_core` feeds.
///
/// All state transitions are commutative (max, union, monotone bools), so
/// the fold is insensitive to merge order within a level; combined with
/// level-granular early exit this keeps verdicts — and explored-config
/// counts — deterministic across threads × symmetry × POR × store.
#[derive(Debug)]
pub(crate) struct VerdictEngine {
    query: VerdictQuery,
    terminals: usize,
    max_distinct_seen: usize,
    root_valence: BTreeSet<Value>,
    any_hung: bool,
    any_stuck: bool,
    invalid: bool,
    cycle_confirmed: bool,
    /// A known-target edge with `depth[to] <= depth[from]` merged since the
    /// last cycle check. Every cycle contains such an edge (depth deltas
    /// are `<= +1` per edge and sum to 0 around a cycle), so zero
    /// candidates over a whole run proves acyclicity without any DFS.
    pending_candidates: bool,
    /// Some retreating candidate was ever seen: completion must run one
    /// final cycle check (the cycle through an old candidate may only have
    /// closed after that candidate's level was checked).
    ever_candidate: bool,
}

impl VerdictEngine {
    pub(crate) fn new(query: VerdictQuery) -> Self {
        VerdictEngine {
            query,
            terminals: 0,
            max_distinct_seen: 0,
            root_valence: BTreeSet::new(),
            any_hung: false,
            any_stuck: false,
            invalid: false,
            cycle_confirmed: false,
            pending_candidates: false,
            ever_candidate: false,
        }
    }

    /// Folds one merged terminal's facts in.
    pub(crate) fn on_terminal(&mut self, facts: TerminalFacts) {
        self.terminals += 1;
        self.max_distinct_seen = self.max_distinct_seen.max(facts.decided.len());
        self.any_hung |= facts.any_hung;
        self.any_stuck |= !facts.all_decided && !facts.any_hung;
        if let Some(valid) = &self.query.valid_values {
            if facts.decided.iter().any(|v| !valid.contains(v)) {
                self.invalid = true;
            }
        }
        self.root_valence.extend(facts.decided);
    }

    /// Registers a retreating edge candidate (known target no deeper than
    /// its source) — the only edges that can close a cycle.
    pub(crate) fn on_retreating_edge(&mut self) {
        self.pending_candidates = true;
        self.ever_candidate = true;
    }

    /// Whether the caller should run a cycle check over the edges recorded
    /// so far (wait-freedom queried, not yet refuted by a cycle, and fresh
    /// candidates arrived). At most one check per level.
    pub(crate) fn wants_cycle_check(&self) -> bool {
        self.query.wait_freedom && !self.cycle_confirmed && self.pending_candidates
    }

    /// Whether completion must run one last cycle check: candidates were
    /// seen at some point, but no per-level check has confirmed a cycle —
    /// a cycle through an *old* candidate may have closed since.
    pub(crate) fn needs_final_cycle_check(&self) -> bool {
        self.query.wait_freedom && !self.cycle_confirmed && self.ever_candidate
    }

    /// Records the outcome of a cycle check.
    pub(crate) fn record_cycle_check(&mut self, found: bool) {
        self.pending_candidates = false;
        self.cycle_confirmed |= found;
    }

    /// The first refuted queried conjunct, if any — `Some` means the
    /// caller can stop exploring at the end of this level.
    pub(crate) fn refutation(&self) -> Option<&'static str> {
        if self.query.wait_freedom {
            if self.cycle_confirmed {
                return Some("wait-freedom refuted: cycle (divergent schedule)");
            }
            if self.any_hung {
                return Some("wait-freedom refuted: hung process at a terminal");
            }
            if self.any_stuck {
                return Some("wait-freedom refuted: undecided process at a terminal");
            }
        }
        if let Some(k) = self.query.max_distinct {
            if self.max_distinct_seen > k {
                return Some("agreement bound exceeded at a terminal");
            }
        }
        if self.query.valid_values.is_some() && self.invalid {
            return Some("validity refuted: decision outside the valid set");
        }
        if self.query.univalent && self.root_valence.len() >= 2 {
            return Some("root is bivalent: two decided values observed");
        }
        None
    }

    /// Seals the engine into the verdict. `configs` is the number of
    /// explored configurations; `truncated_cap` is `Some` when the
    /// `max_configs` bound dropped states; `early` when the run stopped on
    /// a refutation. A run is *complete* iff neither happened.
    pub(crate) fn finish(
        self,
        truncated_cap: Option<usize>,
        early: bool,
        configs: usize,
    ) -> StreamingVerdict {
        let complete = truncated_cap.is_none() && !early;
        // Without a refutation, wait-freedom holds only once acyclicity is
        // actually concluded: either no retreating candidate ever appeared
        // (the depth argument then proves acyclicity with no DFS at all),
        // or wait-freedom was queried and the explorer ran the final cycle
        // check before calling `finish`. With candidates but no query, no
        // check ever ran — stay undecided rather than guess.
        let acyclic = complete && (self.query.wait_freedom || !self.ever_candidate);
        let wait_freedom =
            WaitFreedom::refuted(self.cycle_confirmed, self.any_hung, self.any_stuck)
                .or(acyclic.then_some(WaitFreedom::WaitFree));
        let cause = if early {
            VerdictCause::EarlyExit {
                reason: self.refutation().unwrap_or("query refuted"),
            }
        } else if let Some(cap) = truncated_cap {
            VerdictCause::Truncated { cap }
        } else {
            VerdictCause::Exhausted
        };
        StreamingVerdict {
            cause,
            configs,
            terminals: self.terminals,
            wait_freedom,
            max_distinct: VerdictBound {
                lower: self.max_distinct_seen,
                upper: complete.then_some(self.max_distinct_seen),
            },
            validity: if self.invalid {
                Some(false)
            } else if complete && self.query.valid_values.is_some() {
                Some(true)
            } else {
                None
            },
            root_bivalent: if self.root_valence.len() >= 2 {
                Some(true)
            } else if complete {
                Some(false)
            } else {
                None
            },
            root_valence: self.root_valence,
            query: self.query,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(decided: &[i64], any_hung: bool, all_decided: bool) -> TerminalFacts {
        TerminalFacts {
            decided: decided.iter().map(|&v| Value::Int(v)).collect(),
            any_hung,
            all_decided,
        }
    }

    #[test]
    fn empty_query_is_vacuously_confirmed_on_completion() {
        let eng = VerdictEngine::new(VerdictQuery::new());
        let v = eng.finish(None, false, 10);
        assert_eq!(v.cause, VerdictCause::Exhausted);
        assert_eq!(v.holds(), Some(true));
        assert_eq!(v.max_distinct.exact(), Some(0));
    }

    #[test]
    fn agreement_refutation_is_sound_without_completion() {
        let mut eng = VerdictEngine::new(VerdictQuery::new().require_max_distinct(1));
        eng.on_terminal(facts(&[0, 1], false, true));
        assert!(eng.refutation().is_some());
        let v = eng.finish(None, true, 5);
        assert_eq!(v.holds(), Some(false));
        assert!(matches!(v.cause, VerdictCause::EarlyExit { .. }));
        assert_eq!(v.max_distinct.lower, 2);
        assert_eq!(v.max_distinct.upper, None);
        assert_eq!(v.root_bivalent, Some(true));
    }

    #[test]
    fn positive_answers_require_completion() {
        let mut eng = VerdictEngine::new(
            VerdictQuery::new()
                .require_wait_freedom()
                .require_max_distinct(1)
                .require_valid_values(vec![Value::Int(7)]),
        );
        eng.on_terminal(facts(&[7], false, true));
        assert!(eng.refutation().is_none());
        // Truncated: everything positive stays undecided.
        let v = eng.finish(Some(100), false, 100);
        assert_eq!(v.holds(), None);
        assert_eq!(v.cause, VerdictCause::Truncated { cap: 100 });
        assert_eq!(v.wait_freedom, None);
        assert_eq!(v.validity, None);
        assert_eq!(v.max_distinct.lower, 1);
        assert_eq!(v.max_distinct.upper, None);
    }

    #[test]
    fn complete_run_confirms_the_conjunction() {
        let mut eng = VerdictEngine::new(
            VerdictQuery::new()
                .require_wait_freedom()
                .require_max_distinct(1)
                .require_valid_values(vec![Value::Int(7)]),
        );
        eng.on_terminal(facts(&[7], false, true));
        let v = eng.finish(None, false, 12);
        assert_eq!(v.holds(), Some(true));
        assert_eq!(v.wait_freedom, Some(WaitFreedom::WaitFree));
        assert_eq!(v.validity, Some(true));
        assert_eq!(v.max_distinct.exact(), Some(1));
        assert_eq!(v.root_bivalent, Some(false));
    }

    #[test]
    fn hang_and_stuck_refute_wait_freedom_even_truncated() {
        let mut eng = VerdictEngine::new(VerdictQuery::new().require_wait_freedom());
        eng.on_terminal(facts(&[1], true, false));
        let v = eng.finish(Some(50), false, 50);
        assert_eq!(v.wait_freedom, Some(WaitFreedom::Hangs));
        assert_eq!(v.holds(), Some(false));

        let mut eng = VerdictEngine::new(VerdictQuery::new().require_wait_freedom());
        eng.on_terminal(facts(&[], false, false));
        assert_eq!(
            eng.refutation().unwrap(),
            "wait-freedom refuted: undecided process at a terminal"
        );
        let v = eng.finish(None, true, 3);
        assert_eq!(v.wait_freedom, Some(WaitFreedom::Stuck));
    }

    #[test]
    fn cycle_candidates_drive_checks_and_divergence() {
        let mut eng = VerdictEngine::new(VerdictQuery::new().require_wait_freedom());
        assert!(!eng.wants_cycle_check());
        assert!(!eng.needs_final_cycle_check());
        eng.on_retreating_edge();
        assert!(eng.wants_cycle_check());
        eng.record_cycle_check(false);
        assert!(!eng.wants_cycle_check());
        // An old candidate's cycle may close later: completion re-checks.
        assert!(eng.needs_final_cycle_check());
        eng.record_cycle_check(true);
        assert!(!eng.needs_final_cycle_check());
        assert_eq!(
            eng.refutation().unwrap(),
            "wait-freedom refuted: cycle (divergent schedule)"
        );
        let v = eng.finish(None, true, 9);
        assert_eq!(v.wait_freedom, Some(WaitFreedom::Diverges));
        assert_eq!(v.holds(), Some(false));
    }

    #[test]
    fn unqueried_components_never_refute() {
        let mut eng = VerdictEngine::new(VerdictQuery::new().require_max_distinct(2));
        // Hung terminal with 2 distinct values: wait-freedom not queried,
        // bound not exceeded — no early exit.
        eng.on_terminal(facts(&[0, 1], true, false));
        assert!(eng.refutation().is_none());
        let v = eng.finish(None, false, 4);
        // Tracked anyway: the verdict still reports the hang.
        assert_eq!(v.wait_freedom, Some(WaitFreedom::Hangs));
        assert_eq!(v.holds(), Some(true));
    }

    #[test]
    fn univalence_refuted_across_terminals() {
        let mut eng = VerdictEngine::new(VerdictQuery::new().require_univalent());
        eng.on_terminal(facts(&[0], false, true));
        assert!(eng.refutation().is_none());
        eng.on_terminal(facts(&[1], false, true));
        assert_eq!(
            eng.refutation().unwrap(),
            "root is bivalent: two decided values observed"
        );
        let v = eng.finish(None, true, 6);
        assert_eq!(v.root_bivalent, Some(true));
        assert_eq!(v.holds(), Some(false));
        assert_eq!(v.root_valence.len(), 2);
    }
}
