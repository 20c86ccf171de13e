#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it; every argument goes
# to the binary. See README.md beside this file.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run of one workload
#   run.sh [--seed N] [--trace] [--sets K] [--save FILE]   every workload, one process each
#   run.sh --check                                          3 measured rounds each, all output checks
#   run.sh --compare a.json b.json                          verdict per (workload, metric); a is the base
set -euo pipefail
dir="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$dir/target}/release/sdflmq-benchmark" --out "$dir/out" "$@"
