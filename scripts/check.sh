#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build+test command.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Remember whether the caller asked for the bench smoke step, then scrub
# the flag so the build/test steps run with normal harness behavior.
RUN_BENCH_SMOKE="${BENCH_SMOKE:-0}"
unset BENCH_SMOKE

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: a dangling or private intra-doc link (e.g. one naming an
# item that was deleted) fails here instead of rotting silently.
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace tests"
cargo test -q --workspace

# Telemetry smoke: run the flagship example with the heartbeat, the JSONL
# span trace, the run ledger and the live status file all on, then validate
# every artifact with mc-report (the std-only analysis CLI — the trace
# check replaces the old inline python3 validator: every line parses, the
# level-span keys are present, levels strictly monotone from 0). The
# example runs thousands of explorations; MC_TRACE truncates per
# exploration (the file holds the spans of the last one) while MC_RUN_LOG
# appends one ledger line per exploration and MC_STATUS_FILE holds the
# last atomically-renamed heartbeat snapshot.
echo "==> telemetry smoke: MC_PROGRESS=1 + trace + ledger + status, impossibility_search"
rm -f /tmp/mc_trace.jsonl /tmp/mc_runs.jsonl /tmp/mc_status.json
MC_PROGRESS=1 MC_TRACE=/tmp/mc_trace.jsonl \
  MC_RUN_LOG=/tmp/mc_runs.jsonl MC_STATUS_FILE=/tmp/mc_status.json \
  cargo run --release -q --example impossibility_search >/tmp/mc_example.log
cargo run --release -q --bin mc-report -- validate /tmp/mc_trace.jsonl
cargo run --release -q --bin mc-report -- ledger /tmp/mc_runs.jsonl --last 1 >/dev/null \
  || { echo "telemetry smoke: run ledger failed to parse" >&2; exit 1; }
cargo run --release -q --bin mc-report -- tail /tmp/mc_status.json \
  || { echo "telemetry smoke: status file failed to parse" >&2; exit 1; }
# A ledger diffed against itself must report zero regressions.
cargo run --release -q --bin mc-report -- diff /tmp/mc_runs.jsonl /tmp/mc_runs.jsonl >/dev/null \
  || { echo "telemetry smoke: self-diff of the run ledger reported regressions" >&2; exit 1; }
echo "telemetry smoke: OK (trace validated, ledger + status parsed)"
# The example's closing demo runs an every-expansion heartbeat; its absence
# means the progress-callback path broke. (The MC_PROGRESS=1 stderr default
# fires every 100k expansions — these fixtures are far smaller, so stderr
# staying quiet is expected.)
grep -q 'heartbeat: level' /tmp/mc_example.log \
  || { echo "telemetry smoke: example emitted no heartbeat" >&2; exit 1; }

# Verdict-goal smoke: the hierarchy-table example ends with streaming
# verdict spot checks of the E1 claims (`grouped_consensus_check` explores
# under ExploreGoal::Verdict). Every VERDICT row must carry a decided
# yes/no answer — the early-exit path regressing to "undecided" (or the
# section disappearing) fails the gate.
echo "==> verdict smoke: hierarchy_table example (ExploreGoal::Verdict path)"
cargo run --release -q --example hierarchy_table >/tmp/mc_hierarchy.log
grep -c '^VERDICT ' /tmp/mc_hierarchy.log | grep -qx 4 \
  || { echo "verdict smoke: expected 4 VERDICT rows" >&2; exit 1; }
if grep '^VERDICT ' /tmp/mc_hierarchy.log | awk '{print $5}' | grep -qv -E '^(yes|no)$'; then
  echo "verdict smoke: a VERDICT row left the consensus question undecided" >&2
  exit 1
fi
echo "verdict smoke: OK (4 decided VERDICT rows)"

if [[ "$RUN_BENCH_SMOKE" == "1" ]]; then
  # Smoke-run the model-check bench (two untimed iterations per kernel, no
  # JSON write — see harness::smoke_mode), whose in-bench asserts check
  # thread-count independence of the explored graphs, and diff its GUARD
  # facts against the committed BENCH_modelcheck.json, so bench bit-rot,
  # reduction regressions (graphs growing back) and per-config memory
  # regressions all fail the gate; a second run under MC_STORE=disk must
  # reproduce the in-memory facts. INTERNER_STATS=1 additionally
  # exercises the hash-consing diagnostics path and surfaces the arena
  # summaries.
  echo "==> bench guard (BENCH_SMOKE=1): e9_modelcheck vs BENCH_modelcheck.json, memory vs disk store"
  INTERNER_STATS=1 bash scripts/bench_guard.sh
fi

echo "OK"
