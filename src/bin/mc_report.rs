//! `mc-report` — inspect the model checker's telemetry artifacts.
//!
//! Std-only companion CLI to the exploration engine's persistent
//! observability layer. Four subcommands, one per artifact:
//!
//! * `ledger <runs.jsonl>` — pretty-print an `MC_RUN_LOG` run ledger:
//!   per-run identity (spec hash, git revision, wall time), options,
//!   outcome, a per-phase wall-time breakdown and spill stats.
//! * `tail <status.json>` — render an `MC_STATUS_FILE` snapshot (pass
//!   `--follow` to poll until the run reports `done`).
//! * `validate <trace.jsonl>` — check an `MC_TRACE` level log: every line
//!   parses, carries the level-span schema, and levels count up from 0.
//! * `diff <a> <b>` — compare two `BENCH_modelcheck.json` files (or two
//!   run-ledger JSONL files) row by row and report per-fixture regression
//!   deltas; exits non-zero iff a deterministic graph fact regressed.
//!
//! Everything is parsed with the in-tree `subconsensus_sim::json` parser —
//! the same one the round-trip unit suite runs every hand-built emitter
//! through.

use std::fmt::Write as _;
use std::process::ExitCode;

use subconsensus_sim::json::JsonValue;

fn usage() -> ExitCode {
    eprintln!(
        "usage: mc-report <command> [args]\n\
         \n\
         commands:\n\
           ledger <runs.jsonl> [--last N]   pretty-print an MC_RUN_LOG run ledger\n\
           tail <status.json> [--follow]    render an MC_STATUS_FILE snapshot\n\
           validate <trace.jsonl>           validate an MC_TRACE level log\n\
           diff <a> <b>                     diff two BENCH_modelcheck.json files\n\
                                            (or two run-ledger JSONL files)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => return usage(),
    };
    let result = match (cmd, rest) {
        ("ledger", [path]) => ledger(path, usize::MAX),
        ("ledger", [path, flag, n]) if flag == "--last" => match n.parse() {
            Ok(n) => ledger(path, n),
            Err(_) => return usage(),
        },
        ("tail", [path]) => tail(path, false),
        ("tail", [path, flag]) if flag == "--follow" => tail(path, true),
        ("validate", [path]) => validate(path),
        ("diff", [a, b]) => diff(a, b),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("mc-report: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn int(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn ms(ns: f64) -> String {
    format!("{:.2}ms", ns / 1e6)
}

// ---------------------------------------------------------------- ledger

fn ledger(path: &str, last: usize) -> Result<ExitCode, String> {
    let text = read(path)?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Err(format!("{path}: empty ledger"));
    }
    let skip = lines.len().saturating_sub(last);
    for (i, line) in lines.iter().enumerate().skip(skip) {
        let rec = JsonValue::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        print!("{}", render_run(&rec, i + 1));
    }
    println!(
        "{} run{} in {path}",
        lines.len(),
        if lines.len() == 1 { "" } else { "s" }
    );
    Ok(ExitCode::SUCCESS)
}

fn render_run(rec: &JsonValue, n: usize) -> String {
    let mut out = String::new();
    let spec = rec
        .get("spec_hash")
        .and_then(JsonValue::as_str)
        .unwrap_or("?");
    let rev = rec
        .get("git_revision")
        .and_then(JsonValue::as_str)
        .unwrap_or("?");
    let started = int(rec, "started_unix_ms");
    let wall = int(rec, "ended_unix_ms").saturating_sub(started);
    let _ = writeln!(
        out,
        "run {n}: spec {spec}  rev {rev}  started {}.{:03} (unix)  wall {wall}ms",
        started / 1000,
        started % 1000
    );
    if let Some(opts) = rec.get("options") {
        let budget = match opts.get("store_budget_bytes") {
            Some(JsonValue::Number(b)) => format!(", budget {b} B"),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "  options: goal {}, max_configs {}, threads {}, \
             symmetry {}, por {}, store {}{budget}",
            opts.get("goal").and_then(JsonValue::as_str).unwrap_or("?"),
            int(opts, "max_configs"),
            int(opts, "threads"),
            opts.get("symmetry")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            opts.get("por")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            opts.get("store").and_then(JsonValue::as_str).unwrap_or("?"),
        );
    }
    if let Some(outcome) = rec.get("outcome") {
        match outcome.get("kind").and_then(JsonValue::as_str) {
            Some("verdict") => {
                if let Some(v) = outcome.get("verdict") {
                    let holds =
                        v.get("holds")
                            .map_or("undecided".to_string(), |h| match h.as_bool() {
                                Some(b) => b.to_string(),
                                None => "undecided".to_string(),
                            });
                    let cause = v
                        .get("cause")
                        .and_then(|c| c.get("kind"))
                        .and_then(JsonValue::as_str)
                        .unwrap_or("?");
                    let _ = writeln!(
                        out,
                        "  outcome: verdict holds={holds} ({cause}), {} configs, \
                         {} terminals",
                        int(v, "configs"),
                        int(v, "terminals")
                    );
                }
            }
            _ => {
                let _ = writeln!(
                    out,
                    "  outcome: graph {} configs, {} edges, {} terminals{}",
                    int(outcome, "configs"),
                    int(outcome, "edges"),
                    int(outcome, "terminals"),
                    if outcome.get("truncated").and_then(JsonValue::as_bool) == Some(true) {
                        " [TRUNCATED]"
                    } else {
                        ""
                    }
                );
            }
        }
    }
    if let Some(metrics) = rec.get("metrics") {
        out.push_str(&render_metrics(metrics));
    }
    out
}

fn render_metrics(metrics: &JsonValue) -> String {
    let mut out = String::new();
    match metrics.get("truncation") {
        Some(JsonValue::Object(_)) => {
            let t = metrics.get("truncation").unwrap();
            let _ = writeln!(
                out,
                "  truncation: {} ({})",
                t.get("cause").and_then(JsonValue::as_str).unwrap_or("?"),
                t.get("cap")
                    .or_else(|| t.get("budget"))
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0)
            );
        }
        _ => {
            let _ = writeln!(out, "  truncation: none (complete)");
        }
    }
    if let Some(phases) = metrics.get("phases") {
        let total = num(phases, "total_ns");
        if total > 0.0 {
            let _ = writeln!(out, "  phase breakdown (total {}):", ms(total));
            for name in [
                "expand_ns",
                "canonicalize_ns",
                "por_ns",
                "dedup_ns",
                "merge_ns",
                "freeze_ns",
                "reverse_csr_ns",
                "other_ns",
            ] {
                let v = num(phases, name);
                let _ = writeln!(
                    out,
                    "    {:<16} {:>12}  {:5.1}%",
                    name.trim_end_matches("_ns"),
                    ms(v),
                    100.0 * v / total
                );
            }
        } else {
            let _ = writeln!(out, "  phase breakdown: untimed");
        }
    }
    if let Some(store) = metrics.get("store") {
        if !store.is_null() {
            let _ = writeln!(
                out,
                "  spill: {} B out, {} reloads, {} index reads, hot hit rate {:.2}",
                int(store, "spilled_bytes"),
                int(store, "reload_count"),
                int(store, "index_reads"),
                num(store, "hot_hit_rate")
            );
        }
    }
    let _ = writeln!(
        out,
        "  counters: {} configs, {} edges, {} generated ({} dedup), \
         {} expansions, {} levels, peak ≈ {} B",
        int(metrics, "configs"),
        int(metrics, "edges"),
        int(metrics, "generated"),
        int(metrics, "dedup_hits"),
        int(metrics, "expansions"),
        metrics
            .get("levels")
            .and_then(JsonValue::as_array)
            .map_or(0, <[JsonValue]>::len),
        int(metrics, "peak_bytes")
    );
    out
}

// ------------------------------------------------------------------ tail

fn tail(path: &str, follow: bool) -> Result<ExitCode, String> {
    loop {
        let text = read(path)?;
        let v = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let state = v.get("state").and_then(JsonValue::as_str).unwrap_or("?");
        let eta = match v.get("eta_secs").and_then(JsonValue::as_f64) {
            Some(eta) => format!(", eta ~{eta:.0}s"),
            None => String::new(),
        };
        let spilled = int(&v, "spilled_bytes");
        let spill = if spilled > 0 {
            format!(", {spilled} B spilled")
        } else {
            String::new()
        };
        println!(
            "[{state}] pid {}: level {}, {} explored, {} frontier, \
             {:.0} configs/sec ({:.0} recent), bound remaining {}{eta}{spill}",
            int(&v, "pid"),
            int(&v, "level"),
            int(&v, "explored"),
            int(&v, "frontier"),
            num(&v, "configs_per_sec"),
            num(&v, "recent_configs_per_sec"),
            int(&v, "bound_remaining")
        );
        if !follow || state == "done" {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(std::time::Duration::from_millis(500));
    }
}

// -------------------------------------------------------------- validate

fn validate(path: &str) -> Result<ExitCode, String> {
    let text = read(path)?;
    let mut levels = 0u64;
    let mut last_nodes = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = JsonValue::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        for key in [
            "level",
            "items",
            "new_nodes",
            "nodes",
            "edges",
            "elapsed_ns",
        ] {
            if rec.get(key).and_then(JsonValue::as_u64).is_none() {
                return Err(format!(
                    "{path}:{}: missing or non-integer key \"{key}\"",
                    i + 1
                ));
            }
        }
        let level = int(&rec, "level");
        if level != levels {
            return Err(format!(
                "{path}:{}: level {level}, expected {levels} (levels must count up from 0)",
                i + 1
            ));
        }
        let nodes = int(&rec, "nodes");
        if nodes < last_nodes {
            return Err(format!(
                "{path}:{}: nodes shrank {last_nodes} -> {nodes}",
                i + 1
            ));
        }
        last_nodes = nodes;
        levels += 1;
    }
    if levels == 0 {
        return Err(format!("{path}: no level records"));
    }
    println!("ok: {levels} level records, {last_nodes} nodes final");
    Ok(ExitCode::SUCCESS)
}

// ------------------------------------------------------------------ diff

/// A row identity within a bench file: every deterministic dimension of
/// the run (timing fields deliberately excluded).
fn row_key(row: &JsonValue) -> String {
    format!(
        "{} goal={} store={} threads={} sym={} por={}",
        row.get("fixture")
            .and_then(JsonValue::as_str)
            .unwrap_or("?"),
        row.get("goal")
            .and_then(JsonValue::as_str)
            .unwrap_or("full"),
        row.get("store")
            .and_then(JsonValue::as_str)
            .unwrap_or("mem"),
        int(row, "threads"),
        row.get("symmetry")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false),
        row.get("por").and_then(JsonValue::as_bool).unwrap_or(false),
    )
}

fn diff(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let text_a = read(path_a)?;
    let text_b = read(path_b)?;
    let bench_a = JsonValue::parse(&text_a)
        .ok()
        .filter(|v| v.get("kernels").is_some());
    let bench_b = JsonValue::parse(&text_b)
        .ok()
        .filter(|v| v.get("kernels").is_some());
    match (bench_a, bench_b) {
        (Some(a), Some(b)) => diff_bench(&a, &b),
        _ => diff_ledger(path_a, &text_a, path_b, &text_b),
    }
}

fn diff_bench(a: &JsonValue, b: &JsonValue) -> Result<ExitCode, String> {
    let rows = |v: &JsonValue| -> Vec<JsonValue> {
        v.get("kernels")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::to_vec)
            .unwrap_or_default()
    };
    let rows_a = rows(a);
    let rows_b = rows(b);
    let mut regressions = 0usize;
    let mut improvements = 0usize;
    let mut unchanged = 0usize;
    for row_a in &rows_a {
        let key = row_key(row_a);
        let Some(row_b) = rows_b.iter().find(|r| row_key(r) == key) else {
            println!("MISSING  {key}: row absent from the second file");
            regressions += 1;
            continue;
        };
        let mut row_regressed = false;
        let mut row_changed = false;
        // Grown graph facts are regressions; shrunken ones improvements.
        for fact in ["peak_configs", "edges", "approx_bytes_per_config"] {
            let (va, vb) = (int(row_a, fact), int(row_b, fact));
            if va != vb {
                row_changed = true;
                let dir = if vb > va { "REGRESS" } else { "improve" };
                println!("{dir:7}  {key}: {fact} {va} -> {vb}");
                row_regressed |= vb > va;
            }
        }
        let trunc = |r: &JsonValue| r.get("truncated").and_then(JsonValue::as_bool);
        if trunc(row_a) != trunc(row_b) {
            row_changed = true;
            let worse = trunc(row_b) == Some(true);
            println!(
                "{}  {key}: truncated {:?} -> {:?}",
                if worse { "REGRESS" } else { "improve" },
                trunc(row_a),
                trunc(row_b)
            );
            row_regressed |= worse;
        }
        // A flipped verdict is always a regression: the answer is supposed
        // to be deterministic.
        let holds = |r: &JsonValue| r.get("holds").map(JsonValue::as_bool);
        if holds(row_a) != holds(row_b) {
            row_changed = true;
            row_regressed = true;
            println!(
                "REGRESS  {key}: holds {:?} -> {:?}",
                holds(row_a).flatten(),
                holds(row_b).flatten()
            );
        }
        // Timing: informational only (machine-dependent, never a gate).
        let (ta, tb) = (num(row_a, "median_ns"), num(row_b, "median_ns"));
        if ta > 0.0 && tb > 0.0 && (tb / ta > 1.25 || ta / tb > 1.25) {
            println!(
                "  note   {key}: median {} -> {} ({:+.0}%)",
                ms(ta),
                ms(tb),
                100.0 * (tb - ta) / ta
            );
        }
        if row_regressed {
            regressions += 1;
        } else if row_changed {
            improvements += 1;
        } else {
            unchanged += 1;
        }
    }
    for row_b in &rows_b {
        if !rows_a.iter().any(|r| row_key(r) == row_key(row_b)) {
            println!("  new    {}: row only in the second file", row_key(row_b));
        }
    }
    println!(
        "diff: {} rows compared, {unchanged} unchanged, {improvements} improved, \
         {regressions} regressed",
        rows_a.len()
    );
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Ledger mode: compare the *last* record of each file (typically two runs
/// of the same spec) on the deterministic graph facts.
fn diff_ledger(path_a: &str, text_a: &str, path_b: &str, text_b: &str) -> Result<ExitCode, String> {
    let last = |path: &str, text: &str| -> Result<JsonValue, String> {
        let line = text
            .lines()
            .rfind(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("{path}: empty ledger"))?;
        JsonValue::parse(line).map_err(|e| format!("{path}: {e}"))
    };
    let a = last(path_a, text_a)?;
    let b = last(path_b, text_b)?;
    let hash = |v: &JsonValue| {
        v.get("spec_hash")
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string()
    };
    if hash(&a) != hash(&b) {
        println!(
            "note: different specs ({} vs {}) — facts are not comparable as a regression",
            hash(&a),
            hash(&b)
        );
    }
    let facts = |v: &JsonValue, key: &str| v.get("metrics").map_or(0, |m| int(m, key));
    let mut regressions = 0usize;
    for fact in ["configs", "edges", "peak_bytes"] {
        let (va, vb) = (facts(&a, fact), facts(&b, fact));
        if va != vb {
            let dir = if vb > va { "REGRESS" } else { "improve" };
            println!("{dir:7}  {fact}: {va} -> {vb}");
            regressions += usize::from(vb > va && hash(&a) == hash(&b));
        } else {
            println!("   same  {fact}: {va}");
        }
    }
    let truncated = |v: &JsonValue| {
        v.get("metrics")
            .and_then(|m| m.get("truncation"))
            .is_some_and(|t| !t.is_null())
    };
    if !truncated(&a) && truncated(&b) {
        println!("REGRESS  run now truncates");
        regressions += 1;
    }
    println!("diff: {regressions} regressions");
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
