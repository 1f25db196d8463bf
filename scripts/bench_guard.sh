#!/usr/bin/env bash
# Deterministic bench guard, four gates behind one provenance check. The
# e9 smoke bench itself asserts, per (fixture, symmetry, por) cell, that
# every thread count explores the same graph with the same footprint and
# reaches the same verdict; the gates below check what one run cannot.
#
# 0. Baseline provenance: the committed BENCH_modelcheck.json must have
#    been generated from a clean worktree ("dirty": false in its meta) —
#    a baseline measured on uncommitted code cannot be reproduced from
#    any revision, so gate 1 would compare against unknown code.
#
# 1. Baseline regression: the GUARD facts for every (fixture, symmetry,
#    por) combination are compared against the committed
#    BENCH_modelcheck.json (threads=1 rows). Timing fields are
#    machine-dependent and ignored; the graph facts — including the
#    frozen store's per-config memory — are deterministic, so any growth
#    (more configs, more edges, more bytes per config, or a completing
#    exploration starting to truncate) is a regression and fails the
#    gate. Shrinkage is an improvement: it passes here and shows up in
#    the next full bench run.
#
# 2. Verdict-goal early exit: every VERDICT line (one per gate fixture x
#    symmetry x por; the in-bench asserts already checked the streaming
#    verdict against a full-graph re-exploration) must show the
#    early-exited run exploring strictly fewer configurations than the
#    full graph, and must not leave the query undecided.
#
# 3. Disk-store equivalence: the smoke bench runs once more with
#    MC_STORE=disk and a 64 KiB hot-tier budget, so every Auto-backend
#    exploration spills cold arenas, frontier rows and the fingerprint
#    index to disk. The GUARD and VERDICT lines must be byte-identical
#    to the in-memory run (spilling must never change the explored graph
#    or its frozen footprint), at least one SPILL line must report
#    nonzero spilled bytes (the explicit disk rows with their tiny
#    budget), at least one must report nonzero index reads (so the
#    identity above covers dedup probes against a drained, sorted
#    fingerprint index), and no mc-spill-* run directory may survive the
#    run. INTERNER lines are deliberately NOT diffed: eviction inflates
#    the arenas' miss counters without touching the graph.
#
# 4. mc-report diff self-consistency: `mc-report diff` on the committed
#    baseline against itself must report zero regressions and exit 0,
#    and against a doctored copy (a completing row flipped to
#    "truncated": true) must flag the regression and exit non-zero —
#    so the analysis CLI the other gates and humans lean on cannot
#    silently stop seeing regressions.
#
# With INTERNER_STATS=1 the smoke run's per-row hash-consing arena
# summaries are forwarded to stdout.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="BENCH_modelcheck.json"
if [[ ! -f "$BASELINE" ]]; then
  echo "bench_guard: no $BASELINE baseline; skipping" >&2
  exit 0
fi
if grep -q '"dirty": true' "$BASELINE"; then
  echo "bench_guard: FAILED — $BASELINE was generated from a dirty worktree (meta.dirty = true); regenerate it with cargo bench -p subconsensus-bench --bench e9_modelcheck on a clean checkout" >&2
  exit 1
fi

raw=$(BENCH_SMOKE=1 cargo bench -q -p subconsensus-bench --bench e9_modelcheck 2>&1 | grep -E '^(GUARD|INTERNER|VERDICT) ' || true)
fresh=$(grep '^GUARD ' <<<"$raw" || true)
if [[ -z "$fresh" ]]; then
  echo "bench_guard: smoke run produced no GUARD lines" >&2
  exit 1
fi
# Arena summaries (emitted only under INTERNER_STATS=1).
grep '^INTERNER ' <<<"$raw" || true

# Gate 1: compare the GUARD facts against the committed baseline.
fail=0
checked=0
while read -r _ fixture symmetry por peak edges truncated bytes_pc; do
  row=$(grep -F "\"fixture\": \"$fixture\", \"threads\": 1, \"symmetry\": $symmetry, \"por\": $por," "$BASELINE" | head -1 || true)
  if [[ -z "$row" ]]; then
    echo "bench_guard: no baseline row for $fixture symmetry=$symmetry por=$por (new fixture?); skipping"
    continue
  fi
  # The per-phase timing breakdown ("phases": {...}) is machine-dependent;
  # strip the object before field extraction so its keys can never shadow
  # the deterministic graph facts the guard compares.
  row=$(sed 's/"phases": {[^}]*}, //' <<<"$row")
  checked=$((checked + 1))
  base_peak=$(sed -n 's/.*"peak_configs": \([0-9]*\).*/\1/p' <<<"$row")
  base_edges=$(sed -n 's/.*"edges": \([0-9]*\).*/\1/p' <<<"$row")
  base_trunc=$(sed -n 's/.*"truncated": \(true\|false\).*/\1/p' <<<"$row")
  base_bytes=$(sed -n 's/.*"approx_bytes_per_config": \([0-9]*\).*/\1/p' <<<"$row")
  if ((peak > base_peak)); then
    echo "bench_guard: $fixture sym=$symmetry por=$por: peak_configs grew $base_peak -> $peak"
    fail=1
  fi
  if ((edges > base_edges)); then
    echo "bench_guard: $fixture sym=$symmetry por=$por: edges grew $base_edges -> $edges"
    fail=1
  fi
  if [[ "$base_trunc" == "false" && "$truncated" == "true" ]]; then
    echo "bench_guard: $fixture sym=$symmetry por=$por: exploration now truncates"
    fail=1
  fi
  if [[ -n "$base_bytes" && -n "$bytes_pc" ]] && ((bytes_pc > base_bytes)); then
    echo "bench_guard: $fixture sym=$symmetry por=$por: approx_bytes_per_config grew $base_bytes -> $bytes_pc"
    fail=1
  fi
done <<<"$fresh"

if ((checked == 0)); then
  echo "bench_guard: no GUARD line matched a baseline row — format drift?" >&2
  exit 1
fi
if ((fail)); then
  echo "bench_guard: FAILED (explored graphs grew vs $BASELINE)"
  exit 1
fi
echo "bench_guard: OK ($checked rows checked, graph facts + bytes/config)"

# Gate 2: verdict-goal early exit. The bench already asserts (per row)
# that the streaming verdict matches a full-graph re-exploration and that
# threads 1 and 4 produce identical facts; here we re-check the printed
# strictly-fewer-configs claim and that no query was left undecided.
fresh_v=$(grep '^VERDICT ' <<<"$raw" || true)
if [[ -z "$fresh_v" ]]; then
  echo "bench_guard: smoke run produced no VERDICT lines" >&2
  exit 1
fi
vfail=0
while read -r _ fixture symmetry por vconfigs fconfigs answer _; do
  if ((vconfigs >= fconfigs)); then
    echo "bench_guard: $fixture sym=$symmetry por=$por: verdict explored $vconfigs configs, full graph $fconfigs — no early-exit saving"
    vfail=1
  fi
  if [[ "$answer" == "undecided" ]]; then
    echo "bench_guard: $fixture sym=$symmetry por=$por: verdict run left the query undecided"
    vfail=1
  fi
done <<<"$fresh_v"
if ((vfail)); then
  echo "bench_guard: FAILED (verdict-goal rows lost their early exit)"
  exit 1
fi
echo "bench_guard: verdict goal OK ($(wc -l <<<"$fresh_v") VERDICT lines, early exit strict on all)"

# Gate 3: disk-store equivalence. Route every Auto-backend exploration
# through the disk store with a hot tier small enough that the large
# fixtures actually spill; the explored graphs — and the frozen,
# unspilled footprints behind approx_bytes_per_config — must be
# byte-identical to the in-memory run.
disk_raw=$(MC_STORE=disk MC_STORE_BUDGET=65536 BENCH_SMOKE=1 cargo bench -q -p subconsensus-bench --bench e9_modelcheck 2>&1 | grep -E '^(GUARD|VERDICT|SPILL) ' || true)
disk_g=$(grep -E '^(GUARD|VERDICT) ' <<<"$disk_raw" || true)
mem_g=$(grep -E '^(GUARD|VERDICT) ' <<<"$raw" || true)
if [[ -z "$disk_g" ]]; then
  echo "bench_guard: MC_STORE=disk smoke run produced no GUARD lines" >&2
  exit 1
fi
if ! diff <(echo "$mem_g") <(echo "$disk_g") >/dev/null; then
  echo "bench_guard: FAILED — GUARD/VERDICT lines diverge between MC_STORE=disk and memory:"
  diff <(echo "$mem_g") <(echo "$disk_g") | sed 's/^/bench_guard:   /' || true
  exit 1
fi
spilled=0
probed=0
while read -r _ fixture symmetry por bytes reloads index_reads; do
  if ((bytes > 0)); then
    spilled=$((spilled + 1))
  else
    echo "bench_guard: $fixture sym=$symmetry por=$por: disk row spilled 0 bytes ($reloads reloads)"
  fi
  if ((${index_reads:-0} > 0)); then
    probed=$((probed + 1))
  fi
done < <(grep '^SPILL ' <<<"$disk_raw")
if ((spilled == 0)); then
  echo "bench_guard: FAILED — no SPILL line reported nonzero spilled bytes" >&2
  exit 1
fi
if ((probed == 0)); then
  echo "bench_guard: FAILED — no SPILL line reported nonzero index reads (no dedup probe hit a drained index)" >&2
  exit 1
fi
spill_base="${MC_STORE_DIR:-${TMPDIR:-/tmp}}"
leftover=$(find "$spill_base" -maxdepth 1 -name 'mc-spill-*' 2>/dev/null || true)
if [[ -n "$leftover" ]]; then
  echo "bench_guard: FAILED — spill run directories leaked:" >&2
  sed 's/^/bench_guard:   /' <<<"$leftover" >&2
  exit 1
fi
echo "bench_guard: disk store OK (GUARD/VERDICT identical under MC_STORE=disk, $spilled SPILL rows, $probed with index reads, run dirs cleaned)"

# Gate 4: the mc-report diff gate must itself work. Identical files diff
# clean (exit 0, zero regressions); a copy with one completing row
# doctored to "truncated": true must be flagged (non-zero exit).
if ! cargo run --release -q --bin mc-report -- diff "$BASELINE" "$BASELINE" >/tmp/mc_diff_self.log; then
  echo "bench_guard: FAILED — mc-report diff reported regressions on identical files:" >&2
  sed 's/^/bench_guard:   /' /tmp/mc_diff_self.log >&2
  exit 1
fi
if ! grep -q ' 0 regressed' /tmp/mc_diff_self.log; then
  echo "bench_guard: FAILED — self-diff summary did not report 0 regressed:" >&2
  sed 's/^/bench_guard:   /' /tmp/mc_diff_self.log >&2
  exit 1
fi
sed '0,/"truncated": false/s//"truncated": true/' "$BASELINE" >/tmp/mc_doctored.json
if cargo run --release -q --bin mc-report -- diff "$BASELINE" /tmp/mc_doctored.json >/tmp/mc_diff_doctored.log; then
  echo "bench_guard: FAILED — mc-report diff missed a doctored truncation regression" >&2
  exit 1
fi
rm -f /tmp/mc_doctored.json /tmp/mc_diff_self.log /tmp/mc_diff_doctored.log
echo "bench_guard: mc-report diff OK (self-diff clean, doctored regression caught)"
