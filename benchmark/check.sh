#!/usr/bin/env bash
# Builds the benchmark, runs its unit tests and the 1/50-size smoke pass of
# all four workloads through the correctness gate. One line in ci.sh wires
# it in: `benchmark/check.sh`.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --quiet
cargo test --release --quiet
