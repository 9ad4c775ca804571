#!/usr/bin/env bash
# CI gate: tier-1 verification (ROADMAP.md) + formatting + lints.
set -euo pipefail
cd "$(dirname "$0")/.."

# Watchdog: every `cargo test`/`cargo run` step runs under `timeout`, so
# a hung test fails the build (exit 124) instead of stalling it, and the
# trap names the step that failed. Budgets include the build.
STEP_TIMEOUT=1800
trap 'echo "ci: step failed (exit $?): $BASH_COMMAND" >&2' ERR

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: tests =="
timeout "$STEP_TIMEOUT" cargo test -q

echo "== lockdep: full suite under DIESEL_LOCKDEP=fail =="
# The lock-order witness (DESIGN.md §12) panics on the first acquisition
# that closes a cycle in the lock-order graph, so any ABBA inversion
# introduced anywhere in the tree is a deterministic red build here —
# not a flaky timeout in production.
DIESEL_LOCKDEP=fail timeout "$STEP_TIMEOUT" cargo test -q --workspace

echo "== determinism: inline executor (DIESEL_EXEC_WORKERS=1) =="
# The concurrency contract (DESIGN.md §9): worker count is a performance
# knob, never a behaviour knob. Run the suite fully inline…
DIESEL_EXEC_WORKERS=1 timeout "$STEP_TIMEOUT" cargo test -q --test determinism

echo "== determinism: multi-worker stress (DIESEL_EXEC_WORKERS=8) =="
# …and under real scheduling pressure; both must yield identical bytes.
DIESEL_EXEC_WORKERS=8 timeout "$STEP_TIMEOUT" cargo test -q --test determinism

echo "== elastic membership: mid-epoch 4→8→4 under lockdep =="
# The elastic-membership scenario (DESIGN.md §13): a warm cache grows
# and shrinks mid-epoch while training reads stream through it. Run it
# with the lock-order witness armed, inline and under scheduling
# pressure — batches must stay byte-identical to a static run and the
# rebalance must never deadlock against concurrent reads.
DIESEL_LOCKDEP=fail DIESEL_EXEC_WORKERS=1 \
    timeout "$STEP_TIMEOUT" cargo test -q --test determinism mid_epoch_resize_keeps_batches_byte_identical
DIESEL_LOCKDEP=fail DIESEL_EXEC_WORKERS=8 \
    timeout "$STEP_TIMEOUT" cargo test -q --test determinism mid_epoch_resize_keeps_batches_byte_identical

echo "== multi-tenant: isolation + determinism under lockdep =="
# The multi-tenant plane (DESIGN.md §14): two tenants over one shared
# TenantCacheMap. Tenant A's nodes die and its backing chunks are
# corrupted mid-epoch; tenant B's batches must stay byte-identical and
# its residency untouched — inline and under scheduling pressure, with
# the lock-order witness armed (tenant map + DRR lanes are ranked locks).
DIESEL_LOCKDEP=fail DIESEL_EXEC_WORKERS=1 \
    timeout "$STEP_TIMEOUT" cargo test -q --test determinism two_tenant_epochs_are_byte_identical_across_worker_counts
DIESEL_LOCKDEP=fail DIESEL_EXEC_WORKERS=8 \
    timeout "$STEP_TIMEOUT" cargo test -q --test determinism two_tenant_epochs_are_byte_identical_across_worker_counts
DIESEL_LOCKDEP=fail \
    timeout "$STEP_TIMEOUT" cargo test -q --test fault_tolerance tenant_a_corruption_leaves_tenant_b_byte_identical

echo "== tracing: determinism =="
# Trace export obeys the same replayability contract as the data path:
# two identical MockClock'd single-worker runs → byte-identical JSON.
timeout "$STEP_TIMEOUT" cargo test -q --test determinism traced_epochs_export_byte_identical_chrome_json

echo "== tracing: traced-epoch smoke =="
# One fully traced epoch through channel+cache+server+store; the bench
# itself asserts the JSON parses and at least one client read span has
# a server.handle descendant, exiting nonzero otherwise.
trace_out="$(mktemp /tmp/diesel-trace.XXXXXX.json)"
timeout "$STEP_TIMEOUT" cargo run -q --release -p diesel-bench --bin loader_pipeline -- --trace "$trace_out"
rm -f "$trace_out"

echo "== telemetry plane: deterministic recorder + SLO under lockdep =="
# The §15 acceptance scenario, with the lock-order witness armed: two
# MockClock'd multi-tenant replays must produce byte-identical flight
# recordings, the induced overload must emit the exact breach→recover
# event sequence, and ServerRequest::Scrape must round-trip through the
# Prometheus parser — all deterministic, so any diff is a real bug.
DIESEL_LOCKDEP=fail timeout "$STEP_TIMEOUT" cargo test -q --test telemetry

echo "== bench gates (payload + elastic + mixed tenants + obs plane) =="
# Perf ratchets (DESIGN.md §11, §13, §14, §15): rerun the fixed suites
# and fail if any key drifts past tolerance× the recorded baselines in
# BENCH_6.json (zero-copy payload plane), BENCH_8.json (ring lookup,
# 4→8→4 rebalance wall time, store read amplification), BENCH_9.json
# (multi-tenant isolation: light-tenant slowdown under a 10× neighbour,
# fairness ratio, simulated KV QPS ceiling) and BENCH_10.json (telemetry
# plane: recorder tick / Prometheus render / SLO eval cost, plus the
# hard <=5% hot-path overhead and SLO-health contracts asserted inside
# the suite itself). The tolerance is wide because CI machines are
# noisy; the point is catching accidental copies and store re-reads
# (2×+ jumps), not 5% jitter.
timeout "$STEP_TIMEOUT" scripts/bench.sh --check --tolerance 2.5

# obs_plane archives the deterministic scenario's Prometheus scrape and
# already re-parsed it; keep the artifact honest here too.
test -s results/scrape.prom || { echo "missing results/scrape.prom"; exit 1; }

echo "== rustfmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc =="
# Public docs must build warning-free (broken intra-doc links, missing
# docs on public items, etc. are errors).
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps

echo "== diesel-lint =="
# Fails on any non-baselined R1–R6 finding; --baseline-check enforces the
# ratchet (lint-baseline.txt may only ever shrink). The full unfiltered
# report is kept as a build artifact for dashboards and archaeology.
mkdir -p results
# The artifact run exits 1 whenever any (baselined) finding exists; only
# the ratchet below gates.
timeout "$STEP_TIMEOUT" cargo run -q -p diesel-lint --offline -- --workspace --json > results/lint-report.json || true
timeout "$STEP_TIMEOUT" cargo run -q -p diesel-lint --offline -- --workspace --baseline lint-baseline.txt --baseline-check

echo "CI gate passed."
