#!/usr/bin/env bash
# Full offline verification: format check (when rustfmt is installed),
# release build, and the complete test suite — all with --offline, because
# the workspace is hermetic by construction (see tests/hermetic.rs).
#
# Usage: scripts/verify.sh
set -euo pipefail

cd "$(dirname "$0")/.."

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check
else
    echo "==> cargo fmt not installed; skipping format check"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --offline -- -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint check"
fi

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo build --offline --examples"
cargo build --offline --examples

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# Fault-injection suite: every test whose name starts with `fault_` —
# corruption property tests, retry/backoff, salvage, and degradation paths.
# The seed is pinned for reproducibility; override with FAULT_SEED=<n> to
# explore a different corruption schedule.
echo "==> fault-injection suite (FAULT_SEED=${FAULT_SEED:-default})"
FAULT_SEED="${FAULT_SEED:-}" cargo test -q --offline --workspace fault

# Liveness suite: the supervised sweep engine's deadline/cancellation/
# breaker/resume tests plus the chaos property (random corruption composed
# with finite and permanent stalls — every sweep must terminate before its
# deadline on the fake clock). Seeds are pinned: the chaos property honours
# FAULT_SEED like the corruption suite above, and both runs below use fixed
# seeds so CI failures reproduce byte-for-byte.
echo "==> liveness suite (deadlines, cancellation, breakers, resume)"
cargo test -q --offline --test supervision
FAULT_SEED="${FAULT_SEED:-20260807}" cargo test -q --offline --test properties \
    fault_chaos_sweeps_always_terminate_with_consistent_health

# Observability suite: flight-recorder black boxes, monitor regression
# detection, Chrome-trace export, and bounded-telemetry guarantees. The
# monitor example is self-validating — it re-parses its own exported JSON
# through support::json, checks the SCAN_TELEMETRY_* schema keys, and
# requires all four pipelines in sequence on the sweep's Chrome-trace
# lane — so running it green
# IS the check; the file tests below only confirm the artifacts landed.
echo "==> observability suite (flight recorder, monitor, trace export)"
cargo test -q --offline --test observability
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
STRIDER_BENCH_DIR="$OBS_DIR" cargo run -q --offline --example monitor
test -f "$OBS_DIR/SCAN_TELEMETRY_monitor.json"
test -f "$OBS_DIR/SCAN_TRACE_monitor.json"

# Alerting suite: declarative alert rules over timestamped series —
# for_ns hysteresis on the fake clock, absence rules, built-in monitor
# rules, the exposition-format property, and the self-validating example
# (which asserts the whole Pending→Firing→Resolved lifecycle and re-reads
# its own TELEMETRY_EXPO_* file before printing OK).
echo "==> alerting suite (rules, hysteresis, Prometheus exposition)"
cargo test -q --offline --test alerting
cargo test -q --offline --test properties \
    prometheus_exposition_is_stable_and_parseable_for_any_telemetry
STRIDER_BENCH_DIR="$OBS_DIR" cargo run -q --offline --example alerting >/dev/null
test -f "$OBS_DIR/TELEMETRY_EXPO_alerting.prom"

# Fleet suite: the work-stealing fleet scheduler — exact 64-machine fleet
# statistics with merged-sketch equality, shard-level fault isolation,
# kill-mid-fleet checkpoint resume, and shard-tagged monitor incidents.
# The fleet_scan example is self-validating the same way the monitor
# example is: running it green IS the check.
echo "==> fleet suite (scheduler, checkpoint/resume, fleet monitor)"
cargo test -q --offline --test fleet
cargo run -q --offline --example fleet_scan >/dev/null

# Durability suite: the crash-safe state plane. Record-store unit tests,
# the durable-sweep/quarantine fleet tests, and the crash matrix — seeded
# kill points at journal frame boundaries (±1) and random interior bytes,
# each of which must resume to a result digest byte-identical to an
# uninterrupted run — plus the bit-flip generation-fallback property. The
# durability example is self-validating (kill mid-journal, resume, compare
# digests, flip a bit, fall back a generation): running it green IS the
# check. The crash matrix honours FAULT_SEED like the corruption suite.
echo "==> durability suite (record store, crash matrix, quarantine, resume)"
cargo test -q --offline -p strider-support store
cargo test -q --offline -p strider-fleet
cargo test -q --offline --test fleet durable
cargo test -q --offline --test fleet quarantine
FAULT_SEED="${FAULT_SEED:-20260809}" cargo test -q --offline --test properties \
    -- fault_crash_matrix fault_bit_flipped
cargo run -q --offline --example durability >/dev/null

# Evasion suite: the adversarial arms race. The tactic × scan-mode matrix
# (every tactic defeats a naive mode, none defeats the hardened or the
# outside-the-box sweep, fixed seeds give byte-identical hardened reports),
# the chaos property with an evasive adversary riding along, and the
# self-validating evasion example (naive sweep loses, hardened monitor
# raises EvasionSuspected with flight evidence).
echo "==> evasion suite (tactic matrix, hardened sweeps, evasion monitor)"
cargo test -q --offline --test evasion_matrix
cargo run -q --offline --example evasion >/dev/null

# Profiling suite: the performance attribution plane. Allocation-counter
# and critical-path unit tests, the span-program properties (self-time
# bounds, exact leaf alloc attribution, PerfReport round-trips), the
# self-validating profiling example (the hardened-vs-stabilized quorum
# tax decomposed into work/wait/alloc, plus the 64-machine fleet sweep
# merged — scheduler lanes, named workers, all shard spans — into one
# Chrome trace), and a bench_diff smoke run: the committed BENCH_*.json
# baselines diffed against themselves must pass the regression gate.
echo "==> profiling suite (alloc profiler, critical path, fleet trace, bench gate)"
cargo test -q --offline -p strider-support prof
cargo test -q --offline --test properties prof_
STRIDER_BENCH_DIR="$OBS_DIR" cargo run -q --offline --example profiling >/dev/null
test -f "$OBS_DIR/SCAN_PERF_hardened.json"
test -f "$OBS_DIR/FLEET_TRACE_fleet64.json"
scripts/bench_diff >/dev/null

# Rustdoc gate: the public-facing crates must document cleanly — broken
# intra-doc links or missing docs on public items fail the build here, not
# on docs.rs.
echo "==> cargo doc --offline --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -q \
    -p strider-fleet -p strider-ghostbuster -p strider-support \
    -p strider-ghostbuster-repro

echo "==> OK"
