#!/usr/bin/env bash
# Builds the dpm binary and the benchmark from this checkout, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p dpm-campaign --bin dpm >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

PERFBENCH_DPM="$(pwd)/${CARGO_TARGET_DIR#./}/release/dpm"
case "$CARGO_TARGET_DIR" in /*) PERFBENCH_DPM="$CARGO_TARGET_DIR/release/dpm" ;; esac
PERFBENCH_RUSTC="$(rustc --version)"
PERFBENCH_GIT="none"
if [ -e .git ]; then
    PERFBENCH_GIT="$(git rev-parse HEAD 2>/dev/null || echo none)"
fi
export PERFBENCH_DPM PERFBENCH_RUSTC PERFBENCH_GIT
# a child, not exec: the benchmark reads the peak memory of its own
# children, which must not include the build above
"${PERFBENCH_DPM%/dpm}/perfbench" "$@"
