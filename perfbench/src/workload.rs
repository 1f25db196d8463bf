//! The three workloads: their fixtures, their known answers and one pass.
//!
//! Setup ([`Plan::build`]) builds every fixture spec and expands the seed
//! into a fixture order and schedule seeds. A pass ([`Plan::run_pass`])
//! calls the program's public functions on each fixture, inside a span per
//! call, and checks each result against its known answer.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use subconsensus_bench::{grouped_system, partition_gate_sym, partition_system};
use subconsensus_core::{
    grouped_consensus_check, implementable, partition_bound, sc_chain, search_binary_consensus,
    set_consensus_32_class, strictly_stronger, wrn_class, ProtocolClass, ScPower,
};
use subconsensus_modelcheck::{
    check_nonblocking, check_wait_freedom, find_critical, max_distinct_decisions, ExploreOptions,
    GraphStats, Recorder, StateGraph, StoreBackend, Valency,
};
use subconsensus_objects::{Consensus, Register, SetConsensus, Snapshot};
use subconsensus_sim::{
    check_linearizable, run, run_concurrent, BaseObjects, FirstOutcome, Implementation,
    InternerStats, ObjectSpec, Op, Protocol, RandomScheduler, RunOptions, RunOutcome, SimError,
    SystemBuilder, SystemSpec, Value,
};
use subconsensus_wrn::{OneShotWrn, StrongSetElection, Wrn, WrnFromSse, WrnPropose};

use crate::check::{ensure, ensure_eq, Checker};
use crate::trace::Tracer;

/// Which fixture set a pass runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Regenerates E1–E4, E8 and the E9 search: many tiny verdict-goal
    /// explorations plus simulator runs.
    Tables,
    /// Full graphs, in memory and through the disk store with a hot tier
    /// below the working set, and the CSR analyses on them.
    Statespace,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Tables, Workload::Statespace];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tables => "tables",
            Workload::Statespace => "statespace",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Fixture sizes: the benchmark's own, or a small subset that finishes in
/// seconds (for testing the benchmark itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes recorded in `WORKLOADS.md`.
    Full,
    /// A few small fixtures per workload.
    Tiny,
}

/// Per-pass sums of the counts and in-program timers the layers report.
#[derive(Clone, Debug, Default)]
pub(crate) struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// The sum recorded under `name` (0 if none).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What a pass needs besides the plan.
pub(crate) struct PassCtx<'a> {
    /// Span recorder (disabled on untraced passes).
    pub tracer: &'a Tracer,
    /// Known-answer tally.
    pub check: &'a mut Checker,
    /// This pass's counters.
    pub counters: Counters,
    /// Where the disk store puts its run directories.
    pub spill_dir: &'a Path,
    /// Graph facts of each disk-store fixture explored in this pass.
    pub disk_stats: Vec<(&'static str, GraphStats)>,
}

/// Facts of a fully explored graph that every correct program reproduces
/// exactly. Sizes of symmetry- or POR-reduced graphs are not answers (a
/// better reduction is not an error), so they are `None` there.
#[derive(Clone, Copy, Debug)]
struct Known {
    configs: Option<usize>,
    edges: Option<usize>,
    wait_freedom: &'static str,
    nonblocking: bool,
    max_distinct: usize,
    root_valence: &'static str,
    /// `Some(has a critical config)` on unreduced graphs, where
    /// `find_critical` runs.
    critical: Option<bool>,
}

struct GraphFixture {
    name: &'static str,
    spec: SystemSpec,
    symmetry: bool,
    por: bool,
    /// Hot-tier budget of the disk store; `None` keeps the graph in memory.
    disk_budget: Option<usize>,
    known: Known,
}

/// One E9 `search_binary_consensus` run and its known answer.
struct Search {
    label: &'static str,
    object: fn() -> Box<dyn ObjectSpec>,
    class: ProtocolClass,
    /// Whether some protocol in the class solves binary consensus.
    witness: bool,
    /// Exact number of model checks, where it is a known answer.
    checks: Option<usize>,
}

fn set_consensus_32() -> Box<dyn ObjectSpec> {
    Box::new(SetConsensus::new(3, 2).expect("0 < 2 < 3"))
}

enum Fixture {
    E1 {
        n: usize,
        k: usize,
        procs: usize,
    },
    E2 {
        k: usize,
        spec: SystemSpec,
        seeds: Vec<u64>,
    },
    Arith,
    Alg2 {
        k: usize,
        spec: SystemSpec,
        seeds: Vec<u64>,
    },
    Alg5 {
        bank: BaseObjects,
        im: Arc<dyn Implementation>,
        workload: Vec<Vec<Op>>,
        reference: OneShotWrn,
        seeds: Vec<u64>,
    },
    E9(Search),
    Graph(GraphFixture),
}

impl Fixture {
    /// Names the fixture in trace output.
    fn label(&self) -> String {
        match self {
            Fixture::E1 { n, k, procs } => format!("e1 n={n} k={k} procs={procs}"),
            Fixture::E2 { k, spec, .. } => format!("e2 k={k} procs={}", spec.nprocs()),
            Fixture::Arith => "e3/e4 arithmetic".into(),
            Fixture::Alg2 { k, .. } => format!("e8 algorithm 2 k={k}"),
            Fixture::Alg5 { workload, .. } => format!("e8 algorithm 5 k={}", workload.len()),
            Fixture::E9(s) => format!("e9 {}", s.label),
            Fixture::Graph(g) => g.name.into(),
        }
    }
}

/// A workload's fixtures in the order the seed chose.
pub(crate) struct Plan {
    fixtures: Vec<Fixture>,
}

/// SplitMix64: the seed expander for fixture order and schedule seeds.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn seeds(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// E2 schedules per (n, k) cell and E8 schedules, at full scale. Sized so
/// simulator runs take at least a fifth of a `tables` pass.
const E2_SCHEDULES: usize = 15_000;
const ALG2_SCHEDULES: usize = 15_000;
const ALG5_SCHEDULES: usize = 200;

fn algorithm2_system(k: usize) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(Wrn::new(k));
    let p: Arc<dyn Protocol> = Arc::new(WrnPropose::new(obj));
    b.add_processes(p, (0..k).map(|i| Value::Int(100 + i as i64)));
    b.build()
}

fn algorithm5_fixture(k: usize, seeds: Vec<u64>) -> Fixture {
    let mut bank = BaseObjects::new();
    let r = bank.add(Snapshot::new(k));
    let o = bank.add(Snapshot::new(k));
    let doorway = bank.add(Register::with_initial(Value::Sym("opened")));
    let sse = bank.add(StrongSetElection::new(k));
    let im: Arc<dyn Implementation> = Arc::new(WrnFromSse::new(r, o, doorway, sse, k));
    let workload = (0..k)
        .map(|i| vec![Op::binary("wrn", Value::from(i), Value::Int(50 + i as i64))])
        .collect();
    Fixture::Alg5 {
        bank,
        im,
        workload,
        reference: OneShotWrn::new(k),
        seeds,
    }
}

/// `partition_gate_sym(3, _, 2)`: one decided value per block.
const GATE_THREE_BLOCKS: Known = Known {
    configs: None,
    edges: None,
    wait_freedom: "Diverges",
    nonblocking: true,
    max_distinct: 3,
    root_valence: "{1, 2, 3}",
    critical: None,
};
/// `partition_gate_sym(2, _, 2)`: one decided value per block.
const GATE_TWO_BLOCKS: Known = Known {
    configs: None,
    edges: None,
    wait_freedom: "Diverges",
    nonblocking: true,
    max_distinct: 2,
    root_valence: "{1, 2}",
    critical: None,
};

fn graph_fixtures(scale: Scale) -> Vec<GraphFixture> {
    let g = |name, spec, symmetry, por, disk_budget, known| GraphFixture {
        name,
        spec,
        symmetry,
        por,
        disk_budget,
        known,
    };
    const MIB: usize = 1 << 20;
    match scale {
        Scale::Full => vec![
            g(
                "gate_3x4x2_sym",
                partition_gate_sym(3, 4, 2),
                true,
                false,
                None,
                GATE_THREE_BLOCKS,
            ),
            g(
                "gate_2x7x2_sym",
                partition_gate_sym(2, 7, 2),
                true,
                false,
                None,
                GATE_TWO_BLOCKS,
            ),
            g(
                "gate_2x7x2_sym_por",
                partition_gate_sym(2, 7, 2),
                true,
                true,
                None,
                GATE_TWO_BLOCKS,
            ),
            g(
                "partition_8_2_1",
                partition_system(8, 2, 1),
                false,
                false,
                None,
                Known {
                    configs: Some(28_561),
                    edges: Some(140_608),
                    wait_freedom: "WaitFree",
                    nonblocking: true,
                    max_distinct: 4,
                    root_valence: "{1, 2, 3, 4, 5, 6, 7, 8}",
                    critical: Some(false),
                },
            ),
            g(
                "grouped_2_1_6",
                grouped_system(2, 1, 6),
                false,
                false,
                None,
                Known {
                    configs: Some(24_133),
                    edges: Some(74_112),
                    wait_freedom: "Hangs",
                    nonblocking: true,
                    max_distinct: 2,
                    root_valence: "{1, 2, 3, 4, 5, 6}",
                    critical: Some(false),
                },
            ),
            g(
                "gate_3x4x2_sym_disk4m",
                partition_gate_sym(3, 4, 2),
                true,
                false,
                Some(4 * MIB),
                GATE_THREE_BLOCKS,
            ),
            g(
                "gate_2x7x2_sym_disk2m",
                partition_gate_sym(2, 7, 2),
                true,
                false,
                Some(2 * MIB),
                GATE_TWO_BLOCKS,
            ),
        ],
        Scale::Tiny => vec![
            g(
                "gate_2x3x2_sym",
                partition_gate_sym(2, 3, 2),
                true,
                false,
                None,
                GATE_TWO_BLOCKS,
            ),
            g(
                "gate_2x3x2_sym_por",
                partition_gate_sym(2, 3, 2),
                true,
                true,
                None,
                GATE_TWO_BLOCKS,
            ),
            g(
                "partition_4_2_1",
                partition_system(4, 2, 1),
                false,
                false,
                None,
                Known {
                    configs: Some(169),
                    edges: Some(416),
                    wait_freedom: "WaitFree",
                    nonblocking: true,
                    max_distinct: 2,
                    root_valence: "{1, 2, 3, 4}",
                    critical: Some(false),
                },
            ),
            g(
                "gate_2x3x2_sym_disk16k",
                partition_gate_sym(2, 3, 2),
                true,
                false,
                Some(16 << 10),
                GATE_TWO_BLOCKS,
            ),
        ],
    }
}

fn table_fixtures(scale: Scale, rng: &mut SplitMix) -> Vec<Fixture> {
    let tiny = scale == Scale::Tiny;
    let mut out = Vec::new();
    for n in 1..=if tiny { 2 } else { 3 } {
        for k in 0..=1 {
            for procs in [n, n + 1] {
                out.push(Fixture::E1 { n, k, procs });
            }
        }
    }
    let e2_runs = if tiny { 50 } else { E2_SCHEDULES };
    for n in 2..=if tiny { 2 } else { 4 } {
        for k in 0..=if tiny { 1 } else { 3 } {
            out.push(Fixture::E2 {
                k,
                spec: grouped_system(n, k, n * (k + 1)),
                seeds: rng.seeds(e2_runs),
            });
        }
    }
    out.push(Fixture::Arith);
    out.push(Fixture::Alg2 {
        k: 5,
        spec: algorithm2_system(5),
        seeds: rng.seeds(if tiny { 50 } else { ALG2_SCHEDULES }),
    });
    out.push(algorithm5_fixture(
        3,
        rng.seeds(if tiny { 5 } else { ALG5_SCHEDULES }),
    ));
    let search = |label, object, class, witness, checks| {
        Fixture::E9(Search {
            label,
            object,
            class,
            witness,
            checks,
        })
    };
    if tiny {
        out.push(search(
            "(3,2)-SC depth 1",
            set_consensus_32,
            set_consensus_32_class(1),
            false,
            Some(210),
        ));
    } else {
        out.push(search(
            "(3,2)-SC depth 2",
            set_consensus_32,
            set_consensus_32_class(2),
            false,
            Some(81_810),
        ));
        out.push(search(
            "WRN3 depth 1",
            || Box::new(Wrn::new(3)),
            wrn_class(3, 1),
            false,
            Some(5_050),
        ));
    }
    out.push(search(
        "consensus sanity",
        || Box::new(Consensus::unbounded()),
        set_consensus_32_class(1),
        true,
        None,
    ));
    out
}

impl Plan {
    /// Builds every fixture of `workload` and orders them by `seed`.
    pub fn build(workload: Workload, scale: Scale, seed: u64) -> Plan {
        let mut rng = SplitMix(seed);
        let mut fixtures = Vec::new();
        let mut graphs = Vec::new();
        match workload {
            Workload::Tables => fixtures = table_fixtures(scale, &mut rng),
            Workload::Statespace => graphs = graph_fixtures(scale),
        }
        fixtures.extend(graphs.into_iter().map(Fixture::Graph));
        // Fisher–Yates with the seed's stream.
        for i in (1..fixtures.len()).rev() {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            fixtures.swap(i, j);
        }
        Plan { fixtures }
    }

    /// Runs every fixture once.
    pub fn run_pass(&self, ctx: &mut PassCtx<'_>) {
        let t = ctx.tracer;
        t.span("bench.pass", || {
            for f in &self.fixtures {
                t.span_labeled("bench.fixture", || Some(f.label()), || run_fixture(f, ctx));
            }
        });
    }

    /// Re-explores each disk-store fixture in memory and checks that its
    /// graph facts equal those the disk store produced (`disk_stats`, from
    /// a pass). Untimed.
    pub fn verify_disk_against_memory(
        &self,
        disk_stats: &[(&'static str, GraphStats)],
        check: &mut Checker,
    ) {
        for f in &self.fixtures {
            let Fixture::Graph(g) = f else { continue };
            if g.disk_budget.is_none() {
                continue;
            }
            check.op(g.name, || {
                let opts = explore_options(g.symmetry, g.por, None, false);
                let mem = StateGraph::explore_with(&g.spec, &opts, &Recorder::new())
                    .map_err(|e| format!("memory explore: {e}"))?;
                let disk = disk_stats
                    .iter()
                    .find(|(n, _)| *n == g.name)
                    .map(|(_, s)| *s);
                ensure_eq("disk-store graph facts", disk, Some(mem.stats()))
            });
        }
    }
}

fn explore_options(symmetry: bool, por: bool, disk: Option<usize>, timed: bool) -> ExploreOptions {
    let opts = ExploreOptions::with_max_configs(1_000_000)
        .with_symmetry(symmetry)
        .with_por(por)
        .with_metrics(timed);
    match disk {
        Some(budget) => opts
            .with_store(StoreBackend::Disk)
            .with_store_budget(budget),
        None => opts.with_store(StoreBackend::Memory),
    }
}

fn run_fixture(f: &Fixture, ctx: &mut PassCtx<'_>) {
    let t = ctx.tracer;
    match f {
        Fixture::E1 { n, k, procs } => {
            let (n, k, procs) = (*n, *k, *procs);
            ctx.check.op("e1", || {
                let r = t
                    .span("core.grouped_check", || {
                        grouped_consensus_check(n, k, procs)
                    })
                    .map_err(|e| e.to_string())?;
                ensure_eq(
                    &format!("E1 n={n} k={k} procs={procs} solves consensus"),
                    r.solves_consensus,
                    procs <= n,
                )
            });
        }
        Fixture::E2 { k, spec, seeds } => {
            for &s in seeds {
                sim_run_op(ctx, "e2", k + 1, || {
                    let mut sched = RandomScheduler::seeded(s);
                    let mut chooser = RandomScheduler::seeded(s.wrapping_add(7));
                    run(spec, &mut sched, &mut chooser, &RunOptions::default())
                });
            }
        }
        Fixture::Arith => ctx.check.op("e3/e4 arithmetic", || arithmetic(t)),
        Fixture::Alg2 { k, spec, seeds } => {
            for &s in seeds {
                sim_run_op(ctx, "e8 algorithm 2", k - 1, || {
                    let mut sched = RandomScheduler::seeded(s);
                    run(spec, &mut sched, &mut FirstOutcome, &RunOptions::default())
                });
            }
        }
        Fixture::Alg5 {
            bank,
            im,
            workload,
            reference,
            seeds,
        } => {
            for &s in seeds {
                let mut steps = 0;
                ctx.check.op("e8 algorithm 5", || {
                    let mut sched = RandomScheduler::seeded(s);
                    let mut chooser = RandomScheduler::seeded(s.wrapping_add(5));
                    let out = t
                        .span("sim.run", || {
                            run_concurrent(
                                bank,
                                im,
                                workload.clone(),
                                &mut sched,
                                &mut chooser,
                                500_000,
                            )
                        })
                        .map_err(|e| e.to_string())?;
                    steps = out.steps;
                    ensure(out.reached_final, || "run did not finish".into())?;
                    let lin = t
                        .span("sim.linearize", || {
                            check_linearizable(&out.history, reference)
                        })
                        .map_err(|e| e.to_string())?;
                    ensure(lin.is_some(), || "history is not linearizable".into())
                });
                ctx.counters.add("sim.runs", 1.0);
                ctx.counters.add("sim.steps", steps as f64);
            }
        }
        Fixture::E9(search) => search_fixture(search, ctx),
        Fixture::Graph(g) => graph_fixture(g, ctx),
    }
}

/// One simulator run, timed as `sim.run`, checked to finish with every
/// process decided and at most `bound` distinct decisions.
fn sim_run_op(
    ctx: &mut PassCtx<'_>,
    label: &str,
    bound: usize,
    f: impl FnOnce() -> Result<RunOutcome, SimError>,
) {
    let t = ctx.tracer;
    let mut steps = 0;
    ctx.check.op(label, || {
        let out = t.span("sim.run", f).map_err(|e| e.to_string())?;
        steps = out.steps;
        ensure(out.reached_final, || "run did not finish".into())?;
        let distinct = out.decided_values().len();
        ensure(distinct <= bound, || {
            format!("{distinct} distinct decisions, bound {bound}")
        })
    });
    ctx.counters.add("sim.runs", 1.0);
    ctx.counters.add("sim.steps", steps as f64);
}

/// E3 partition-bound rows `(procs, m, j, bound)` and the E4 chain.
const E3_ROWS: [(usize, usize, usize, usize); 6] = [
    (4, 2, 1, 2),
    (6, 2, 1, 3),
    (6, 3, 2, 4),
    (8, 3, 2, 6),
    (9, 4, 3, 7),
    (12, 3, 2, 8),
];
const CHAIN_K: usize = 1000;

fn arithmetic(t: &Tracer) -> Result<(), String> {
    for (procs, m, j, want) in E3_ROWS {
        let (bound, yes, no) = t.span("core.arith", || {
            let bound = partition_bound(procs, m, j);
            let source = ScPower::new(m, j);
            let yes = implementable(ScPower::new(procs, bound), source);
            let no = bound > 1 && implementable(ScPower::new(procs, bound - 1), source);
            (bound, yes, no)
        });
        ensure_eq(&format!("partition_bound({procs}, {m}, {j})"), bound, want)?;
        ensure(yes && !no, || {
            format!("implementable is not tight at ({procs}, {bound})")
        })?;
    }
    let chain = t.span("core.arith", || sc_chain(CHAIN_K));
    ensure_eq("sc_chain length", chain.len(), CHAIN_K - 2)?;
    let strict = t.span("core.arith", || {
        chain.iter().all(|l| {
            strictly_stronger(l.stronger, l.weaker)
                && !strictly_stronger(l.weaker, l.stronger)
                && l.refuting_bound > l.stronger.k
        })
    });
    ensure(strict, || "a chain link is not strict".into())
}

fn search_fixture(search: &Search, ctx: &mut PassCtx<'_>) {
    let t = ctx.tracer;
    let label = search.label;
    let mut checks = 0;
    ctx.check.op("e9", || {
        let out = t
            .span("core.search", || {
                search_binary_consensus(search.object, &search.class)
            })
            .map_err(|e| format!("{label}: {e}"))?;
        checks = out.checks;
        ensure_eq(
            &format!("{label} finds a witness"),
            out.witness.is_some(),
            search.witness,
        )?;
        match search.checks {
            Some(want) => ensure_eq(&format!("{label} checks"), out.checks, want),
            None => Ok(()),
        }
    });
    ctx.counters.add("core.search_checks", checks as f64);
}

fn graph_fixture(g: &GraphFixture, ctx: &mut PassCtx<'_>) {
    let t = ctx.tracer;
    let timed = t.enabled();
    let counters = &mut ctx.counters;
    let disk_stats = &mut ctx.disk_stats;
    ctx.check.op(g.name, || {
        let opts = explore_options(g.symmetry, g.por, g.disk_budget, timed);
        let rec = if timed {
            Recorder::new().with_timing()
        } else {
            Recorder::new()
        };
        let graph = t
            .span("modelcheck.explore", || {
                StateGraph::explore_with(&g.spec, &opts, &rec)
            })
            .map_err(|e| format!("explore: {e}"))?;
        let (stats, bytes, interner) = t.span("modelcheck.explore.stats", || {
            (graph.stats(), graph.approx_bytes(), graph.interner_stats())
        });
        record_graph(counters, &graph, bytes, interner, g.disk_budget.is_some());
        if g.disk_budget.is_some() {
            disk_stats.push((g.name, stats));
        }
        ensure(!stats.truncated, || "graph is truncated".into())?;
        let (row_ptr, preds) = t.span("modelcheck.reverse_csr", || graph.reverse_csr());
        ensure_eq(
            "reverse CSR size",
            (row_ptr.len(), preds.len()),
            (stats.configs + 1, stats.edges),
        )?;
        let valency = t.span("modelcheck.valency", || Valency::compute(&graph));
        let wf = t.span("modelcheck.properties", || check_wait_freedom(&graph));
        let nb = t.span("modelcheck.properties", || check_nonblocking(&graph));
        let md = t.span("modelcheck.properties", || max_distinct_decisions(&graph));
        let k = &g.known;
        if let Some(c) = k.configs {
            ensure_eq("configs", stats.configs, c)?;
        }
        if let Some(e) = k.edges {
            ensure_eq("edges", stats.edges, e)?;
        }
        ensure_eq("wait-freedom", format!("{wf:?}").as_str(), k.wait_freedom)?;
        ensure_eq("non-blocking", nb, k.nonblocking)?;
        ensure_eq("max distinct decisions", md, k.max_distinct)?;
        let root = format!("{:?}", valency.valence(0));
        ensure_eq("root valence", root.as_str(), k.root_valence)?;
        if let Some(want) = k.critical {
            let crit = t.span("modelcheck.critical", || find_critical(&graph, &valency));
            ensure_eq("has a critical config", crit.is_some(), want)?;
        }
        Ok(())
    });
    if g.disk_budget.is_some() {
        ctx.check.op("spill directory removed", || {
            let leaked = leaked_spill_dirs(ctx.spill_dir);
            ensure(leaked.is_empty(), || format!("leaked {leaked:?}"))
        });
    }
}

fn record_graph(
    c: &mut Counters,
    graph: &StateGraph,
    bytes: usize,
    interner: Option<InternerStats>,
    disk: bool,
) {
    let m = graph.metrics();
    c.add("modelcheck.explores", 1.0);
    c.add("modelcheck.configs", m.configs as f64);
    c.add("modelcheck.edges", m.edges as f64);
    c.add("modelcheck.generated", m.generated as f64);
    c.add("modelcheck.dedup_hits", m.dedup_hits as f64);
    c.add("modelcheck.added", m.added as f64);
    c.add("modelcheck.symmetry_hits", m.symmetry_hits as f64);
    c.add("modelcheck.sleep_pruned", m.sleep_pruned as f64);
    c.add("modelcheck.approx_bytes", bytes as f64);
    if let Some(s) = interner {
        c.add("sim.intern_requests", s.requests as f64);
        c.add("sim.intern_hits", s.hits as f64);
    }
    if m.timed {
        let s = |ns: u64| ns as f64 * 1e-9;
        c.add("modelcheck.phase.expand_s", s(m.expand_ns));
        c.add("modelcheck.phase.canonicalize_s", s(m.canonicalize_ns));
        c.add("modelcheck.phase.por_s", s(m.por_ns));
        c.add("modelcheck.phase.dedup_s", s(m.dedup_ns));
        c.add("modelcheck.phase.merge_s", s(m.merge_ns));
        c.add("modelcheck.phase.freeze_s", s(m.freeze_ns));
        c.add("modelcheck.phase.unattributed_s", s(m.other_ns()));
    }
    if disk {
        c.add("modelcheck.spill.configs", m.configs as f64);
    }
    if let Some(st) = &m.store {
        c.add("modelcheck.spill.spilled_bytes", st.spilled_bytes as f64);
        c.add("modelcheck.spill.reloads", st.reload_count as f64);
        c.add("modelcheck.spill.write_s", st.spill_write_ns as f64 * 1e-9);
        c.add("modelcheck.spill.read_s", st.spill_read_ns as f64 * 1e-9);
    }
}

/// Spill run directories of this process still present under `dir`.
pub fn leaked_spill_dirs(dir: &Path) -> Vec<String> {
    let prefix = format!("mc-spill-{}-", std::process::id());
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with(&prefix))
                .collect()
        })
        .unwrap_or_default()
}
