#!/usr/bin/env bash
# Tier-1 gate: everything must pass before merging.
#
# Hermetic by construction — the workspace has no external registry
# dependencies, so this works offline. See README.md "Hermetic builds".
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
# The benchmark is a Cargo workspace of its own, so the test above never
# compiles it: build it against this tree's crates and run its self-tests,
# so an API change that breaks it fails here, not at the next benchmark run.
CARGO_TARGET_DIR=target/perfbench \
  cargo test --release -q --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
# Perf lints are advisory (warn, not deny): surface regressions in the
# simulator kernel's hot loops without blocking unrelated changes.
cargo clippy --workspace --all-targets -- -W clippy::perf
cargo fmt --check
# Kernel-throughput smoke: one spec and one par job end to end, plus the
# regression guard — fails if any par job drops >20% below the committed
# pre-event-driven baseline (a noise-immune floor: the event-driven
# machine must never be slower than the old tick-everything loop).
cargo run --release -q -p pl-bench --bin kernel_bench -- --smoke \
  --baseline results/BENCH_kernel_baseline.json --out /dev/null
# Runtime invariant checker + differential oracle + fault injection.
cargo run --release -q -p pl-verify -- --smoke
# Attack-suite smoke: every gadget x scheme point of the leakage sweep
# runs end to end and writes a parseable leakage report.
cargo run --release -q -p pl-attack -- --smoke --out /dev/null
# Serve smoke: boot the job server on an ephemeral port, submit the same
# job twice, and require the repeat to be a cache hit whose result JSON
# is byte-identical to the run that populated the cache.
SERVE_DIR=$(mktemp -d)
trap 'rm -rf "$SERVE_DIR"; [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT
./target/release/plsim serve --addr 127.0.0.1:0 \
  --port-file "$SERVE_DIR/port.txt" --cache-dir "$SERVE_DIR/cache" --threads 2 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SERVE_DIR/port.txt" ] && break; sleep 0.1; done
SERVE_ADDR=$(cat "$SERVE_DIR/port.txt")
./target/release/plsim submit --server "$SERVE_ADDR" --workload stream \
  --scheme fence --pin ep --scale test >"$SERVE_DIR/run1.json" 2>"$SERVE_DIR/meta1.txt"
./target/release/plsim submit --server "$SERVE_ADDR" --workload stream \
  --scheme fence --pin ep --scale test >"$SERVE_DIR/run2.json" 2>"$SERVE_DIR/meta2.txt"
grep -q 'cached=false' "$SERVE_DIR/meta1.txt"
grep -q 'cached=true' "$SERVE_DIR/meta2.txt"
cmp "$SERVE_DIR/run1.json" "$SERVE_DIR/run2.json"
./target/release/plsim shutdown --server "$SERVE_ADDR" 2>/dev/null
wait "$SERVE_PID"
unset SERVE_PID
# Invariant-heavy sweeps once more at release speed with debug
# assertions live (the `checked` profile), so internal debug_assert!s
# in the pipeline/protocol run against the full scheme matrix. The
# ff_equivalence spin_parking filter re-proves the spin-parking twins
# bit-identical with every debug_assert! in the park/replay path armed;
# the checkpoint filter decodes every core of the checkpoint matrix with
# the `aggregates_reference`/`issue_flags_consistent` oracles armed.
cargo test -q --profile checked --test protocol_invariants --test verify_checker
# The core and machine unit tests with debug assertions armed, so the
# surviving incremental-structure oracles (`issue_flags_consistent`,
# `aggregates_reference`) check every tick of the codec, spin and
# pipeline tests.
cargo test -q --profile checked -p pl-cpu -p pl-machine
cargo test -q --profile checked --test ff_equivalence -- spin_parking checkpoint
# The attack suite under debug assertions: non-vacuity, mitigation
# direction, and sweep determinism with the transient-shadow and
# observer paths' debug_assert!s armed.
cargo test -q --profile checked -p pl-attack --test leakage
echo "tier-1: OK"
