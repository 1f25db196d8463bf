//! End-to-end and per-layer benchmark of the subconsensus reproduction.
//!
//! One process runs one workload (`tables` or `statespace`, see
//! `WORKLOADS.md`): it sets up the fixtures from the seed, runs one cold
//! pass, then warm passes until its time is up, checks every result against
//! a known answer, and reports one JSON record. An untraced run reports the
//! end-to-end metrics; a traced run (`--trace 1`) records a span around
//! every call into the program, turns the explorer's phase timers on, and
//! reports the per-layer metrics plus the tracing overhead.
//!
//! The benchmark calls only stable public entry points of the program
//! (fixture builders, `ExploreOptions` builders, `StateGraph` accessors, the
//! analyses, the E1–E9 functions and `sim::{run, run_concurrent,
//! check_linearizable}`), so refactors of the explorer's internals do not
//! need to edit it.

pub mod check;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use check::Checker;
use subconsensus_modelcheck::GraphStats;
use trace::Tracer;
use workload::{Counters, PassCtx, Plan, Scale, Workload};

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("first_pass_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("core.search_s", "s"),
    ("core.search_checks", "count"),
    ("core.us_per_check", "us"),
    ("core.grouped_check_s", "s"),
    ("core.arith_s", "s"),
    ("sim.run_s", "s"),
    ("sim.runs", "count"),
    ("sim.steps", "count"),
    ("sim.steps_per_s", "1/s"),
    ("sim.linearize_s", "s"),
    ("sim.intern_hit_rate", "ratio"),
    ("modelcheck.explore_s", "s"),
    ("modelcheck.configs", "count"),
    ("modelcheck.edges", "count"),
    ("modelcheck.configs_per_s", "1/s"),
    ("modelcheck.generated", "count"),
    ("modelcheck.dedup_hits", "count"),
    ("modelcheck.added_ratio", "ratio"),
    ("modelcheck.symmetry_hits", "count"),
    ("modelcheck.sleep_pruned", "count"),
    ("modelcheck.bytes_per_config", "B/config"),
    ("modelcheck.reverse_csr_s", "s"),
    ("modelcheck.valency_s", "s"),
    ("modelcheck.critical_s", "s"),
    ("modelcheck.properties_s", "s"),
    ("modelcheck.spill.spilled_bytes", "B"),
    ("modelcheck.spill.reloads", "count"),
    ("modelcheck.spill.reloads_per_config", "ratio"),
    ("modelcheck.spill.write_s", "s"),
    ("modelcheck.spill.read_s", "s"),
    ("modelcheck.phase.expand_s", "s"),
    ("modelcheck.phase.canonicalize_s", "s"),
    ("modelcheck.phase.por_s", "s"),
    ("modelcheck.phase.dedup_s", "s"),
    ("modelcheck.phase.merge_s", "s"),
    ("modelcheck.phase.freeze_s", "s"),
    ("modelcheck.phase.unattributed_s", "s"),
    ("layer.bench.self_s", "s"),
    ("layer.core.self_s", "s"),
    ("layer.sim.self_s", "s"),
    ("layer.modelcheck.explore.self_s", "s"),
    ("layer.modelcheck.analysis.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.passes", "count"),
];

/// Environment variables that change what the program does; removed from
/// the benchmark's own process before the first call. `MC_STORE_DIR` is
/// among them because setting it alone turns on the run ledger.
pub const CLEARED_ENV: [&str; 10] = [
    "MC_SHARDS",
    "MC_STORE",
    "MC_STORE_BUDGET",
    "MC_PROGRESS",
    "MC_TRACE",
    "MC_RUN_LOG",
    "MC_STATUS_FILE",
    "MC_STORE_DIR",
    "BENCH_SMOKE",
    "INTERNER_STATS",
];

/// Set-ups per batch. A run times one batch before its first pass and one
/// after each warm pass; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 31;

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload to run.
    pub workload: Workload,
    /// Expands into the fixture order and schedule seeds.
    pub seed: u64,
    /// Warm passes run until this many seconds have passed since the
    /// first warm pass began.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Fixture sizes.
    pub scale: Scale,
    /// Directory for trace output and the disk store's run directories.
    pub out_dir: PathBuf,
    /// Fewest warm passes (traced runs: fewest traced/untraced pairs).
    pub min_passes: usize,
}

/// What a run measured and checked.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that returned `Err`, a wrong answer or panicked.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
    /// `(name, value, unit)` in `END_TO_END` or `PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Run facts recorded next to the metrics.
    pub meta: Vec<(&'static str, String)>,
}

impl RunReport {
    /// The record's last line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run facts (and error rate) as one JSON object.
    pub fn meta_line(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"meta\": {{{}}}}}", fields.join(", "))
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// A finite JSON number (non-finite values would make invalid JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn list(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|&x| num(x)).collect();
    format!("[{}]", v.join(", "))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Clears [`CLEARED_ENV`] and points the disk store's temp directory into
/// `out_dir`, so the run writes nothing outside it. Returns that directory.
///
/// # Errors
///
/// Fails if the directory cannot be created.
pub fn prepare_process(out_dir: &Path) -> io::Result<PathBuf> {
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    let tmp = out_dir.join("tmp");
    fs::create_dir_all(&tmp)?;
    let tmp = tmp.canonicalize()?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(tmp)
}

struct PassResult {
    secs: f64,
    counters: Counters,
    disk_stats: Vec<(&'static str, GraphStats)>,
}

fn run_pass(
    plan: &Plan,
    tracer: &Tracer,
    check: &mut Checker,
    spill_dir: &Path,
    traced: bool,
) -> PassResult {
    tracer.set_enabled(traced);
    let mut ctx = PassCtx {
        tracer,
        check,
        counters: Counters::default(),
        spill_dir,
        disk_stats: Vec::new(),
    };
    let start = Instant::now();
    plan.run_pass(&mut ctx);
    let secs = start.elapsed().as_secs_f64();
    tracer.set_enabled(false);
    PassResult {
        secs,
        counters: ctx.counters,
        disk_stats: ctx.disk_stats,
    }
}

/// The per-layer metrics of one traced pass (all but the `trace.*` ones).
fn layer_values(tracer: &Tracer, pass: u32, c: &Counters) -> BTreeMap<&'static str, f64> {
    let totals = tracer.totals_by_name(pass);
    let selfs = tracer.self_time_by_layer(pass);
    let tot = |n: &str| totals.get(n).copied().unwrap_or(0.0);
    let mut out = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let v = match name {
            "core.search_s" => tot("core.search"),
            "core.us_per_check" => ratio(tot("core.search") * 1e6, c.get("core.search_checks")),
            "core.grouped_check_s" => tot("core.grouped_check"),
            "core.arith_s" => tot("core.arith"),
            "sim.run_s" => tot("sim.run"),
            "sim.steps_per_s" => ratio(c.get("sim.steps"), tot("sim.run")),
            "sim.linearize_s" => tot("sim.linearize"),
            "sim.intern_hit_rate" => ratio(c.get("sim.intern_hits"), c.get("sim.intern_requests")),
            "modelcheck.explore_s" => tot("modelcheck.explore"),
            "modelcheck.configs_per_s" => {
                ratio(c.get("modelcheck.configs"), tot("modelcheck.explore"))
            }
            "modelcheck.added_ratio" => {
                ratio(c.get("modelcheck.added"), c.get("modelcheck.generated"))
            }
            "modelcheck.bytes_per_config" => ratio(
                c.get("modelcheck.approx_bytes"),
                c.get("modelcheck.configs"),
            ),
            "modelcheck.reverse_csr_s" => tot("modelcheck.reverse_csr"),
            "modelcheck.valency_s" => tot("modelcheck.valency"),
            "modelcheck.critical_s" => tot("modelcheck.critical"),
            "modelcheck.properties_s" => tot("modelcheck.properties"),
            "modelcheck.spill.reloads_per_config" => ratio(
                c.get("modelcheck.spill.reloads"),
                c.get("modelcheck.spill.configs"),
            ),
            n if n.starts_with("layer.") => {
                let layer = &n["layer.".len()..n.len() - ".self_s".len()];
                selfs.get(layer).copied().unwrap_or(0.0)
            }
            n if n.starts_with("trace.") => continue,
            n => c.get(n),
        };
        out.insert(name, v);
    }
    out
}

fn vm_hwm_mib() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Sets up [`SETUP_REPS`] times, appending each duration to `secs`, and
/// returns the last set-up's spill directory and plan.
fn time_setup(cfg: &RunConfig, secs: &mut Vec<f64>) -> io::Result<(PathBuf, Plan)> {
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let spill_dir = prepare_process(&cfg.out_dir)?;
        let plan = Plan::build(cfg.workload, cfg.scale, cfg.seed);
        secs.push(start.elapsed().as_secs_f64());
        setup = Some((spill_dir, plan));
    }
    Ok(setup.expect("SETUP_REPS > 0"))
}

/// Runs one workload and returns what it measured and checked.
///
/// # Errors
///
/// Fails only on I/O: the output directory or `/proc/self/status`.
pub fn run(cfg: &RunConfig) -> io::Result<RunReport> {
    let mut setup_secs = Vec::new();
    let (spill_dir, plan) = time_setup(cfg, &mut setup_secs)?;

    let tracer = Tracer::new();
    let mut check = Checker::default();
    let first = run_pass(&plan, &tracer, &mut check, &spill_dir, false);
    let mut disk_stats = first.disk_stats;

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let warm_start = Instant::now();
    let mut pass_id = 0u32;
    while untraced.len() < cfg.min_passes || warm_start.elapsed().as_secs_f64() < cfg.seconds {
        let p = run_pass(&plan, &tracer, &mut check, &spill_dir, false);
        untraced.push(p.secs);
        disk_stats = p.disk_stats;
        // Set-up time is re-measured after every warm pass, so its median
        // spans the same stretch of the run as the passes do.
        time_setup(cfg, &mut setup_secs)?;
        if cfg.trace {
            pass_id += 1;
            tracer.set_pass(pass_id);
            let p = run_pass(&plan, &tracer, &mut check, &spill_dir, true);
            traced.push(p.secs);
            per_pass.push(layer_values(&tracer, pass_id, &p.counters));
        }
    }
    let peak_rss = vm_hwm_mib()?;
    plan.verify_disk_against_memory(&disk_stats, &mut check);
    check.op("no spill directory left", || {
        let leaked = workload::leaked_spill_dirs(&spill_dir);
        check::ensure(leaked.is_empty(), || format!("leaked {leaked:?}"))
    });

    let metrics = if cfg.trace {
        let mut metrics = Vec::new();
        let (wall, base) = (median(&traced), median(&untraced));
        for (name, unit) in PER_LAYER {
            let v = match name {
                "trace.wall_s" => wall,
                "trace.untraced_wall_s" => base,
                "trace.overhead_s" => wall - base,
                "trace.overhead_ratio" => ratio(wall - base, base),
                "trace.spans" => ratio(tracer.len() as f64, traced.len() as f64),
                "trace.passes" => traced.len() as f64,
                n => median(&per_pass.iter().map(|m| m[n]).collect::<Vec<_>>()),
            };
            metrics.push((name, v, unit));
        }
        metrics
    } else {
        vec![
            ("setup_s", median(&setup_secs), "s"),
            ("first_pass_s", first.secs, "s"),
            ("wall_s", median(&untraced), "s"),
            ("peak_rss_mib", peak_rss, "MiB"),
        ]
    };

    let rev = git(&["rev-parse", "--short=12", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| (!s.is_empty()).to_string());
    let quoted = |s: &str| format!("\"{s}\"");
    let mut report = RunReport {
        attempted: check.attempted(),
        failed: check.failed(),
        messages: check.messages().to_vec(),
        metrics,
        meta: vec![
            ("workload", quoted(cfg.workload.name())),
            ("seed", cfg.seed.to_string()),
            ("trace", cfg.trace.to_string()),
            ("scale", quoted(&format!("{:?}", cfg.scale).to_lowercase())),
            (
                "nproc",
                std::thread::available_parallelism()
                    .map_or(0, |n| n.get())
                    .to_string(),
            ),
            ("git_revision", rev.as_deref().map_or("null".into(), quoted)),
            ("git_dirty", dirty.unwrap_or_else(|| "null".into())),
            (
                "profile",
                quoted(if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }),
            ),
            ("warm_pass_s", list(&untraced)),
        ],
    };
    let error_rate = num(report.error_rate());
    report.meta.push(("error_rate", error_rate));
    if cfg.trace {
        write_trace(cfg, &tracer, &report)?;
    }
    Ok(report)
}

/// Writes the spans and the per-layer summary of a traced run under
/// `out_dir` as `trace-<workload>-<seed>.jsonl` and `…-summary.jsonl`.
fn write_trace(cfg: &RunConfig, tracer: &Tracer, report: &RunReport) -> io::Result<()> {
    let stem = cfg
        .out_dir
        .join(format!("trace-{}-{}", cfg.workload.name(), cfg.seed));
    let mut spans = BufWriter::new(fs::File::create(stem.with_extension("jsonl"))?);
    tracer.write_jsonl(&mut spans)?;
    spans.flush()?;
    let summary = format!("{}\n{}\n", report.meta_line(), report.result_line());
    fs::write(
        PathBuf::from(format!("{}-summary.jsonl", stem.display())),
        summary,
    )
}
