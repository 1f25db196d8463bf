//! Machine-checked impossibility: enumerate EVERY bounded protocol.
//!
//! For two processes with binary inputs, enumerate all decision-tree
//! protocols of bounded depth over one shared object and exhaustively
//! model-check each against binary consensus. When the search returns no
//! witness, that is a *theorem* for the class:
//!
//! * depth 1 over a `(3,2)`-set-consensus object — impossible (10 trees);
//! * depth 1 over `WRN₃` — impossible (50 trees): the kernel of "WRN is
//!   sub-consensus";
//! * depth 2 over `(3,2)`-SC — impossible (202 trees, 81,810 model checks;
//!   pass `--deep` and use `--release`, takes ~3 s);
//! * sanity: over a consensus object a witness IS found.
//!
//! Each search runs all its checks in one exploration session, sharing
//! one interner and one transition memo, and prints its cost per check
//! and the memo's hit rate.
//!
//! The run closes with a telemetry demo: one instrumented exploration with
//! a per-level progress heartbeat and the final [`ExploreMetrics`] phase
//! breakdown — the same counters `MC_PROGRESS=1` / `MC_TRACE=<path>` turn
//! on for every exploration (including all of the searches above).
//!
//! Run with: `cargo run --release --example impossibility_search [--deep]`

use std::sync::Arc;
use std::time::Instant;

use subconsensus::core::{
    search_binary_consensus, set_consensus_32_class, wrn_class, GroupedObject, ProtocolClass,
    SearchOutcome,
};
use subconsensus::modelcheck::{ExploreOptions, Recorder, StateGraph};
use subconsensus::objects::{Consensus, SetConsensus};
use subconsensus::protocols::ProposeDecide;
use subconsensus::sim::{ObjectSpec, Protocol, SimError, SystemBuilder, Value};
use subconsensus::wrn::Wrn;

/// Runs one search, timed, and prints its answer plus the per-check cost
/// and the hit rate of the transition memo its checks share.
fn search<F>(label: &str, make_object: F, class: &ProtocolClass) -> Result<SearchOutcome, SimError>
where
    F: Fn() -> Box<dyn ObjectSpec>,
{
    let t0 = Instant::now();
    let out = search_binary_consensus(make_object, class)?;
    let elapsed = t0.elapsed();
    report(label, &out);
    println!(
        "      {:.1} µs/check, memo hit rate {:.1}% ({}/{} lookups)",
        elapsed.as_secs_f64() * 1e6 / out.checks as f64,
        100.0 * out.memo_hits as f64 / out.memo_lookups.max(1) as f64,
        out.memo_hits,
        out.memo_lookups
    );
    Ok(out)
}

fn report(label: &str, out: &SearchOutcome) {
    match out.witness {
        Some(w) => println!(
            "   {label}: SOLVABLE (witness trees {w:?}; {} trees/role, {} checks)",
            out.trees, out.checks
        ),
        None => println!(
            "   {label}: IMPOSSIBLE — no protocol in the class solves binary consensus \
             ({} trees/role, {} exhaustive model checks)",
            out.trees, out.checks
        ),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let deep = std::env::args().any(|a| a == "--deep");
    println!("── bounded-exhaustive binary-consensus search (2 processes) ──\n");

    let out = search(
        "consensus object, depth ≤ 1 (sanity)",
        || Box::new(Consensus::unbounded()),
        &set_consensus_32_class(1),
    )?;
    assert!(out.witness.is_some());

    let out = search(
        "(3,2)-set-consensus object, depth ≤ 1",
        || Box::new(SetConsensus::new(3, 2).expect("valid params")),
        &set_consensus_32_class(1),
    )?;
    assert!(out.witness.is_none());

    let out = search(
        "WRN₃ object, depth ≤ 1",
        || Box::new(Wrn::new(3)),
        &wrn_class(3, 1),
    )?;
    assert!(out.witness.is_none());

    if deep {
        println!("\n   running the deep search (depth ≤ 2 over (3,2)-SC)…");
        let t0 = Instant::now();
        let out = search(
            "(3,2)-set-consensus object, depth ≤ 2",
            || Box::new(SetConsensus::new(3, 2).expect("valid params")),
            &set_consensus_32_class(2),
        )?;
        println!("   ({:?})", t0.elapsed());
        assert!(out.witness.is_none());
    } else {
        println!("\n   (pass --deep for the depth-2 search: 202 trees, 81,810 checks, ~3 s)");
    }

    println!(
        "\nEvery IMPOSSIBLE line is a machine-checked theorem for its protocol class —\n\
         the executable kernel of the paper lineage's sub-consensus impossibilities."
    );

    // ── exploration telemetry demo ──────────────────────────────────────
    // One instrumented exploration of the E1 fixture (3 processes through
    // a deterministic O_{2,1}): a heartbeat per level and the full phase /
    // counter breakdown at the end. Every exploration above accepts the
    // same instrumentation via `MC_PROGRESS=1` / `MC_TRACE=<path>`.
    println!("\n── exploration telemetry (E1 fixture, 3 procs over O_{{2,1}}) ──\n");
    let mut b = SystemBuilder::new();
    let obj = b.add_object(GroupedObject::for_level(2, 1));
    let p: Arc<dyn Protocol> = Arc::new(ProposeDecide::new(obj));
    b.add_processes(p, (1..=3).map(Value::Int));
    let spec = b.build();
    let rec = Recorder::new()
        .with_timing()
        .with_progress(1, |r| println!("   heartbeat: {r}"));
    let g = StateGraph::explore_with(&spec, &ExploreOptions::default().with_por(true), &rec)?;
    println!("\n{}\n", g.metrics());
    println!(
        "   (set MC_PROGRESS=1 for a stderr heartbeat and MC_TRACE=<path> for a\n\
         \x20   per-level JSONL span log on any exploration in this workspace)"
    );
    Ok(())
}
