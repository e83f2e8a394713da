#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json names it): build the server and
# the harness from source, then run one `perf bench`.
#
#   bash crates/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Both binaries land in one target
# directory ($CARGO_TARGET_DIR, default ./target) so `perf` finds `provctl`
# beside itself. No registry is reachable, so the workspace's crates.io
# dependencies resolve to dev/stubs (see offline.toml); the server's request
# path does not touch them.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
export PERF_CRATES="dev/stubs"
if ! log=$(cargo build --release --manifest-path Cargo.toml \
    --config crates/perf/offline.toml \
    -p provenance-workflows -p perf --bin provctl --bin perf 2>&1); then
    echo "$log" >&2
    exit 1
fi
exec "$CARGO_TARGET_DIR/release/perf" bench "$@"
