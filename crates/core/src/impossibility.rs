//! Bounded-exhaustive impossibility: enumerate *every* protocol in a
//! bounded class and model-check each one.
//!
//! The paper's negative results quantify over all algorithms, which no
//! finite exploration of a *single* protocol can establish. This module
//! closes a slice of that gap mechanically: for two processes with binary
//! inputs, it enumerates **all** decision-tree protocols of bounded depth
//! over a given object class, and exhaustively model-checks every protocol
//! assignment against binary consensus. A `None` witness is a theorem:
//!
//! > no 2-process protocol in which each process performs at most `d`
//! > operations from the given op menu on one shared object solves binary
//! > consensus.
//!
//! Applied to the `(3, 2)`-set-consensus object and to `WRN₃`, this is the
//! machine-checked kernel of "set consensus / WRN cannot reach
//! 2-consensus" (Theorem 41's negative direction, the follow-up's Lemma
//! 38) for the smallest protocol classes.
//!
//! Protocols using additional registers or deeper trees remain covered
//! only by the hand proofs — stated here to keep the reproduction honest.

use std::collections::HashMap;
use std::sync::Arc;

use subconsensus_modelcheck::{
    ExploreGoal, ExploreOptions, ExploreSession, Recorder, VerdictQuery,
};
use subconsensus_sim::{
    Action, ObjId, ObjectSpec, Op, ProcCtx, Protocol, ProtocolError, SimError, SystemBuilder,
    SystemSpec, Value,
};

/// The protocol class: a menu of operations, the possible response values
/// (classes) of those operations, and a depth bound.
#[derive(Clone, Debug)]
pub struct ProtocolClass {
    /// The operations a protocol may invoke (all on the single shared
    /// object).
    pub ops: Vec<Op>,
    /// The exhaustive list of response values operations may produce.
    pub responses: Vec<Value>,
    /// Maximum number of operations before a protocol must decide.
    pub max_depth: usize,
}

/// A decision-tree protocol: decide a binary value, or invoke op `op` and
/// branch on the response class.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Tree {
    Decide(bool),
    Invoke { op: usize, children: Vec<Tree> },
}

fn enumerate_trees(class: &ProtocolClass, depth: usize) -> Vec<Tree> {
    let mut trees = vec![Tree::Decide(false), Tree::Decide(true)];
    if depth == 0 {
        return trees;
    }
    let subtrees = enumerate_trees(class, depth - 1);
    let r = class.responses.len();
    for (op_idx, _op) in class.ops.iter().enumerate() {
        // All combinations of children: |subtrees|^r, odometer-style.
        let mut indices = vec![0usize; r];
        'combos: loop {
            trees.push(Tree::Invoke {
                op: op_idx,
                children: indices.iter().map(|&i| subtrees[i].clone()).collect(),
            });
            let mut pos = 0;
            loop {
                if pos == r {
                    break 'combos;
                }
                indices[pos] += 1;
                if indices[pos] < subtrees.len() {
                    break;
                }
                indices[pos] = 0;
                pos += 1;
            }
        }
    }
    trees
}

/// Number of trees of depth ≤ `depth` in `class` (sanity/reporting).
pub fn tree_count(class: &ProtocolClass, depth: usize) -> usize {
    if depth == 0 {
        return 2;
    }
    let sub = tree_count(class, depth - 1);
    2 + class.ops.len() * sub.pow(class.responses.len() as u32)
}

/// One enumerated tree, runnable as a simulator protocol.
#[derive(Debug)]
struct TreeProtocol {
    obj: ObjId,
    class: Arc<ProtocolClass>,
    tree: Tree,
}

impl Protocol for TreeProtocol {
    fn start(&self, _ctx: &ProcCtx) -> Value {
        Value::tup([]) // the list of response-class indices taken so far
    }

    fn step(
        &self,
        _ctx: &ProcCtx,
        local: &Value,
        resp: Option<&Value>,
    ) -> Result<Action, ProtocolError> {
        // Re-walk the tree along the recorded path, extended by the fresh
        // response.
        let mut path: Vec<usize> = local
            .as_tup()
            .ok_or_else(|| ProtocolError::new("tree: bad local"))?
            .iter()
            .map(|v| {
                v.as_index()
                    .ok_or_else(|| ProtocolError::new("tree: bad path"))
            })
            .collect::<Result<_, _>>()?;
        if let Some(r) = resp {
            let class_idx = self
                .class
                .responses
                .iter()
                .position(|c| c == r)
                .ok_or_else(|| ProtocolError::new(format!("tree: unclassified response {r}")))?;
            path.push(class_idx);
        }
        let mut node = &self.tree;
        for &branch in &path {
            match node {
                Tree::Invoke { children, .. } => {
                    node = children
                        .get(branch)
                        .ok_or_else(|| ProtocolError::new("tree: branch out of range"))?;
                }
                Tree::Decide(_) => return Err(ProtocolError::new("tree: walked past a decision")),
            }
        }
        match node {
            Tree::Decide(b) => Ok(Action::Decide(Value::Int(i64::from(*b)))),
            Tree::Invoke { op, .. } => Ok(Action::Invoke {
                local: Value::tup(path.into_iter().map(Value::from)),
                obj: self.obj,
                op: self.class.ops[*op].clone(),
            }),
        }
    }

    // A decision tree never consults `ctx` at all, so two processes running
    // the same tree with the same input are interchangeable.
    fn pid_symmetric(&self) -> bool {
        true
    }

    // Every invocation of every tree targets the single shared object.
    fn obj_footprint(&self, _ctx: &ProcCtx) -> Option<Vec<ObjId>> {
        Some(vec![self.obj])
    }
}

/// A witness that binary consensus *is* solvable in the class: the four
/// tree indices `(p0_input0, p0_input1, p1_input0, p1_input1)`.
pub type SolvabilityWitness = (usize, usize, usize, usize);

/// The outcome of the bounded-exhaustive search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// A solving protocol, if one exists in the class.
    pub witness: Option<SolvabilityWitness>,
    /// Number of trees per (process, input) role.
    pub trees: usize,
    /// Number of (tree pair, input assignment) model-checks performed.
    pub checks: usize,
    /// Transition-memo lookups over all checks (one per step a check
    /// took; a check that failed with an error is not counted).
    pub memo_lookups: u64,
    /// Lookups among them answered by the search's one shared memo.
    pub memo_hits: u64,
}

/// Exhaustively decides whether *any* protocol in `class` solves binary
/// consensus for two processes over one object produced by `make_object`.
///
/// A protocol assigns each (process, input) role a decision tree; the
/// search exploits the symmetry `correct(x, y, a, b) = correct(y, x, b, a)`
/// and checks every required input assignment (0,0), (0,1), (1,0), (1,1)
/// by exhaustive model checking (including all object nondeterminism).
///
/// # Errors
///
/// A tree whose step fails — a protocol error, or an object rejecting its
/// operation — does not solve consensus, and its check answers `false`.
/// Every other [`SimError`] means the explorer itself misbehaved (for
/// example [`SimError::ProcessNotEnabled`]) and is returned.
pub fn search_binary_consensus<F>(
    make_object: F,
    class: &ProtocolClass,
) -> Result<SearchOutcome, SimError>
where
    F: Fn() -> Box<dyn ObjectSpec>,
{
    search_binary_consensus_with(make_object, class, &default_options())
}

/// The options of [`search_binary_consensus`]. Partial-order reduction is
/// on: every per-pair check only consumes terminal verdicts (wait-freedom
/// and decision sets), which POR preserves, and deciding processes
/// collapse to singleton ample sets.
fn default_options() -> ExploreOptions {
    ExploreOptions::with_max_configs(200_000).with_por(true)
}

/// Like [`search_binary_consensus`], but with explicit exploration
/// options — notably `threads`, which parallelizes each per-pair model
/// check, and `symmetry`, which quotients the interleavings of the two
/// processes whenever a check runs the same tree on both with equal
/// inputs (the diagonal of every `x == y` matrix).
///
/// The object is built once, each tree becomes one protocol instance, and
/// every check is one exploration in a single [`ExploreSession`], so the
/// checks share one interner and one transition memo: a step one check
/// took is replayed, not re-run, by every later check that reaches it.
///
/// # Errors
///
/// As for [`search_binary_consensus`].
pub fn search_binary_consensus_with<F>(
    make_object: F,
    class: &ProtocolClass,
    opts: &ExploreOptions,
) -> Result<SearchOutcome, SimError>
where
    F: Fn() -> Box<dyn ObjectSpec>,
{
    let mut search = Search::new(make_object(), class);
    let t = search.protocols.len();
    let mut checks = 0usize;

    // correct[x][y] : t×t bitmatrix — tree `a` as P0 with input x, tree
    // `b` as P1 with input y solves consensus on that assignment.
    let mut cache: HashMap<(bool, bool), Vec<bool>> = HashMap::new();
    for (x, y) in [(false, false), (false, true), (true, true)] {
        let opts = consensus_goal(opts, x, y);
        let mut mat = vec![false; t * t];
        for a in 0..t {
            for b in 0..t {
                // Symmetry within an assignment x == y: correct(a,b) =
                // correct(b,a); compute the lower triangle only.
                if x == y && b < a {
                    mat[a * t + b] = mat[b * t + a];
                    continue;
                }
                checks += 1;
                mat[a * t + b] = search.pair_correct((a, x), (b, y), &opts)?;
            }
        }
        cache.insert((x, y), mat);
    }
    let outcome = |witness| SearchOutcome {
        witness,
        trees: t,
        checks,
        memo_lookups: search.memo_lookups,
        memo_hits: search.memo_hits,
    };
    let s00 = &cache[&(false, false)];
    let s01 = &cache[&(false, true)];
    let s11 = &cache[&(true, true)];
    // S10[b][c] = correct(P0: tree b, input 1; P1: tree c, input 0)
    //           = correct(P0: tree c, input 0; P1: tree b, input 1) = s01[c][b].
    for a in 0..t {
        for c in 0..t {
            if !s00[a * t + c] {
                continue;
            }
            for d in 0..t {
                if !s01[a * t + d] {
                    continue;
                }
                for b in 0..t {
                    if s01[c * t + b] && s11[b * t + d] {
                        return Ok(outcome(Some((a, b, c, d))));
                    }
                }
            }
        }
    }
    Ok(outcome(None))
}

/// `opts` with the streaming verdict of binary consensus on inputs
/// `(x, y)`: wait-freedom + agreement (at most one distinct decision) +
/// validity are accumulated *during* exploration, so a check exits at the
/// first refuted terminal or cycle and never freezes the CSR.
/// `holds() == Some(true)` is exactly the post-hoc acceptance: completion
/// under wait-freedom means every process decides at every terminal (so
/// "≤ 1 distinct" is "exactly 1"), and a truncated run can never answer
/// `Some(true)`.
fn consensus_goal(opts: &ExploreOptions, x: bool, y: bool) -> ExploreOptions {
    let valid: Vec<Value> = if x == y {
        vec![Value::Int(i64::from(x))]
    } else {
        vec![Value::Int(0), Value::Int(1)]
    };
    opts.clone().with_goal(ExploreGoal::Verdict(
        VerdictQuery::new()
            .require_wait_freedom()
            .require_max_distinct(1)
            .require_valid_values(valid),
    ))
}

/// What one search builds once and carries across its checks: the
/// exploration session, the system holding the one shared object, one
/// protocol instance per tree, and the summed memo counters.
struct Search {
    session: ExploreSession,
    /// The shared object, in a system with no process yet.
    objects: SystemSpec,
    protocols: Vec<Arc<dyn Protocol>>,
    memo_lookups: u64,
    memo_hits: u64,
}

impl Search {
    /// A search of `class` over `object`, with no check run yet.
    fn new(object: Box<dyn ObjectSpec>, class: &ProtocolClass) -> Self {
        let class = Arc::new(class.clone());
        let mut b = SystemBuilder::new();
        let obj = b.add_boxed_object(object);
        let protocols = enumerate_trees(&class, class.max_depth)
            .into_iter()
            .map(|tree| {
                Arc::new(TreeProtocol {
                    obj,
                    class: Arc::clone(&class),
                    tree,
                }) as Arc<dyn Protocol>
            })
            .collect();
        Search {
            session: ExploreSession::default(),
            objects: b.build(),
            protocols,
            memo_lookups: 0,
            memo_hits: 0,
        }
    }

    /// The system running tree `a` on input `x` as P0 and tree `b` on
    /// input `y` as P1. A tree checked against itself runs one protocol
    /// instance twice, so the builder's automatic symmetry detection
    /// (pointer + input equality) groups the two processes on the
    /// diagonal checks and a symmetry-enabled exploration quotients their
    /// interleavings.
    fn system(&self, (a, x): (usize, bool), (b, y): (usize, bool)) -> SystemSpec {
        self.objects
            .with_processes([(a, x), (b, y)].map(|(tree, input)| {
                (
                    Arc::clone(&self.protocols[tree]),
                    Value::Int(i64::from(input)),
                )
            }))
    }

    /// Whether tree `a` on input `x` as P0 and tree `b` on input `y` as P1
    /// solve binary consensus, checked under `opts` (a
    /// [`consensus_goal`]).
    fn pair_correct(
        &mut self,
        p0: (usize, bool),
        p1: (usize, bool),
        opts: &ExploreOptions,
    ) -> Result<bool, SimError> {
        let spec = self.system(p0, p1);
        let rec = Recorder::from_env(opts.metrics);
        match self.session.explore_with(&spec, opts, &rec) {
            Ok(graph) => {
                self.memo_lookups += graph.metrics().memo_lookups;
                self.memo_hits += graph.metrics().memo_hits;
                let verdict = graph
                    .verdict()
                    .expect("verdict-goal exploration yields a verdict");
                Ok(verdict.holds() == Some(true))
            }
            // A tree may misuse the object, or walk its own tree wrongly
            // (e.g. past a decision on an unclassified response); such a
            // protocol simply does not solve consensus.
            Err(SimError::Protocol { .. } | SimError::Object { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// The one-step protocol class over a `(3, 2)`-set-consensus object with
/// binary proposals.
pub fn set_consensus_32_class(max_depth: usize) -> ProtocolClass {
    ProtocolClass {
        ops: vec![
            Op::unary("propose", Value::Int(0)),
            Op::unary("propose", Value::Int(1)),
        ],
        responses: vec![Value::Int(0), Value::Int(1)],
        max_depth,
    }
}

/// The protocol class over a `WRN_k` object with binary values: all `wrn`
/// index/value combinations; responses `⊥`, 0 or 1.
pub fn wrn_class(k: usize, max_depth: usize) -> ProtocolClass {
    let mut ops = Vec::new();
    for i in 0..k {
        for v in 0..2i64 {
            ops.push(Op::binary("wrn", Value::from(i), Value::Int(v)));
        }
    }
    ProtocolClass {
        ops,
        responses: vec![Value::Nil, Value::Int(0), Value::Int(1)],
        max_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subconsensus_modelcheck::StateGraph;
    use subconsensus_objects::{Consensus, SetConsensus};
    use subconsensus_sim::SmallRng;

    /// Checks every `(a, b)` tree pair of `pairs` on every input
    /// assignment the search checks, once through `search`'s shared
    /// session and once in a fresh exploration: the verdicts (or errors)
    /// must be equal. Returns the shared session's memo hits.
    fn shared_session_matches_fresh(mut search: Search, pairs: &[(usize, usize)]) -> u64 {
        let mut hits = 0;
        for (x, y) in [(false, false), (false, true), (true, true)] {
            let opts = consensus_goal(&default_options(), x, y);
            for &(a, b) in pairs {
                let spec = search.system((a, x), (b, y));
                let shared = search
                    .session
                    .explore_with(&spec, &opts, &Recorder::new())
                    .map(|g| {
                        hits += g.metrics().memo_hits;
                        format!("{:?}", g.verdict())
                    });
                let fresh = StateGraph::explore_with(&spec, &opts, &Recorder::new())
                    .map(|g| format!("{:?}", g.verdict()));
                assert_eq!(shared, fresh, "trees ({a}, {b}) on inputs ({x}, {y})");
            }
        }
        hits
    }

    fn all_pairs(t: usize) -> Vec<(usize, usize)> {
        (0..t).flat_map(|a| (0..t).map(move |b| (a, b))).collect()
    }

    #[test]
    fn one_session_answers_every_check_as_a_fresh_exploration_does() {
        let classes: [(Box<dyn ObjectSpec>, ProtocolClass); 3] = [
            (
                Box::new(SetConsensus::new(3, 2).unwrap()),
                set_consensus_32_class(1),
            ),
            (Box::new(subconsensus_wrn_shim::wrn3()), wrn_class(3, 1)),
            (Box::new(Consensus::unbounded()), set_consensus_32_class(1)),
        ];
        for (object, class) in classes {
            let search = Search::new(object, &class);
            let pairs = all_pairs(search.protocols.len());
            assert!(shared_session_matches_fresh(search, &pairs) > 0);
        }
        // A seeded sample of the depth-2 (3,2)-SC pairs.
        let search = Search::new(
            Box::new(SetConsensus::new(3, 2).unwrap()),
            &set_consensus_32_class(2),
        );
        let t = search.protocols.len();
        let mut rng = SmallRng::seed_from_u64(2_202);
        let pairs: Vec<_> = (0..400)
            .map(|_| (rng.gen_index(t), rng.gen_index(t)))
            .collect();
        assert!(shared_session_matches_fresh(search, &pairs) > 0);
    }

    #[test]
    fn tree_counts_match_the_formula() {
        let c = set_consensus_32_class(1);
        assert_eq!(tree_count(&c, 0), 2);
        assert_eq!(tree_count(&c, 1), 2 + 2 * 4);
        assert_eq!(enumerate_trees(&c, 1).len(), tree_count(&c, 1));
        let w = wrn_class(3, 1);
        assert_eq!(tree_count(&w, 1), 2 + 6 * 8);
        assert_eq!(enumerate_trees(&w, 1).len(), tree_count(&w, 1));
    }

    #[test]
    fn consensus_object_class_has_a_witness() {
        // Sanity: over a *consensus* object the search must FIND a protocol
        // (propose your input, decide the answer).
        let class = ProtocolClass {
            ops: vec![
                Op::unary("propose", Value::Int(0)),
                Op::unary("propose", Value::Int(1)),
            ],
            responses: vec![Value::Int(0), Value::Int(1)],
            max_depth: 1,
        };
        let out = search_binary_consensus(|| Box::new(Consensus::unbounded()), &class).unwrap();
        assert!(
            out.witness.is_some(),
            "consensus object must admit a protocol"
        );
        assert_eq!(out.trees, 10);
    }

    #[test]
    fn no_one_step_protocol_over_3_2_set_consensus() {
        // Machine-checked: NO protocol in which each process performs at
        // most one propose on one (3,2)-SC object solves binary consensus.
        let out = search_binary_consensus(
            || Box::new(SetConsensus::new(3, 2).unwrap()),
            &set_consensus_32_class(1),
        )
        .unwrap();
        assert_eq!(out.witness, None, "impossibility at depth 1");
        assert!(out.checks > 100);
    }

    #[test]
    fn no_one_step_protocol_over_wrn3() {
        // Machine-checked Lemma-38 kernel: NO one-step WRN₃ protocol solves
        // binary consensus (all 50 trees per role, all index/value ops).
        let out =
            search_binary_consensus(|| Box::new(subconsensus_wrn_shim::wrn3()), &wrn_class(3, 1))
                .unwrap();
        assert_eq!(out.witness, None);
        assert_eq!(out.trees, 50);
    }

    /// A local WRN₃ (avoids a dependency cycle with the extension crate).
    mod subconsensus_wrn_shim {
        use subconsensus_sim::{ObjectError, ObjectSpec, Op, Outcome, Value};

        #[derive(Debug)]
        pub struct Wrn3;

        pub fn wrn3() -> Wrn3 {
            Wrn3
        }

        impl ObjectSpec for Wrn3 {
            fn type_name(&self) -> &'static str {
                "wrn3"
            }

            fn initial_state(&self) -> Value {
                Value::nil_tup(3)
            }

            fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
                let i = op.args[0].as_index().ok_or(ObjectError::TypeMismatch {
                    object: "wrn3",
                    detail: "bad index".into(),
                })?;
                let v = op.args[1].clone();
                let next = state.with_index(i, v).ok_or(ObjectError::TypeMismatch {
                    object: "wrn3",
                    detail: "bad state".into(),
                })?;
                let read = next.index((i + 1) % 3).cloned().expect("in range");
                Ok(vec![Outcome::ret(next, read)])
            }
        }
    }
}
