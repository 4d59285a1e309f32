#!/usr/bin/env bash
# Builds the harness and the hornet-dist worker, then runs the benchmark.
#
#   benchmark/run.sh [--seed N]          every workload: end-to-end, then traced
#   benchmark/run.sh --quick             every workload at 1/20 size, one repetition
#   benchmark/run.sh --selfcheck         the whole set twice, medians against bounds
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                        one run; the last line is its result
set -euo pipefail
cd "$(dirname "$0")/.."

# Relative, so that the worker sockets created under TMPDIR below stay within
# a Unix socket path's 108 bytes wherever the checkout is.
target="${CARGO_TARGET_DIR:-benchmark/target}"
export CARGO_TARGET_DIR="$target"
manifest=benchmark/Cargo.toml

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path "$manifest" >&2
cargo build --release --offline --manifest-path "$manifest" \
    -p hornet-dist --bin hornet-dist >&2

export HORNET_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export HORNET_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

# Worker sockets and shared-memory segments go under the checkout. Not exec:
# the harness reads its children's peak memory, and cargo must not be among them.
mkdir -p benchmark/out/tmp
TMPDIR=benchmark/out/tmp "$target/release/harness" "$@"
