#!/usr/bin/env bash
# Runs the simulator performance harness and refreshes BENCH_driver.json.
#
# Honors SWIFTDIR_THREADS for the parallel legs (defaults to at least 4
# workers so the serial-vs-parallel identity assertions see real
# interleaving). Extra arguments pass through to the harness; in
# particular
#
#   scripts/bench_driver.sh --check
#
# re-measures the single-run time, explore schedules/s, and scale-out
# events/s against the committed BENCH_driver.json and fails on a >10%
# regression of any (the CI bench smoke).
# Run from the repository root:
#
#   scripts/bench_driver.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p swiftdir-bench
exec ./target/release/bench_driver "$@"
