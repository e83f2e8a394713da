#!/usr/bin/env bash
# The full CI gate, runnable locally: build, test, lint, format.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> telemetry smoke: trace a demo run, validate the Chrome trace"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
./target/release/provctl demo fig1 "$SMOKE_DIR/wf.json"
./target/release/provctl trace "$SMOKE_DIR/wf.json" "$SMOKE_DIR/trace.json" \
    "spans=$SMOKE_DIR/spans.jsonl" threads=4
./target/release/provctl tracecheck "$SMOKE_DIR/trace.json"
./target/release/provctl metrics "$SMOKE_DIR/wf.json" | grep -q "wf_runs_started_total 1"

echo "==> query-observability smoke: EXPLAIN/ANALYZE + slow-query log on the challenge workload"
./target/release/provctl demo challenge "$SMOKE_DIR/challenge.json"
./target/release/provctl run "$SMOKE_DIR/challenge.json" "$SMOKE_DIR/challenge-prov.json"
DIGEST="$(./target/release/provctl query "$SMOKE_DIR/challenge-prov.json" "list artifacts" | awk 'NR==1{print $2}')"
./target/release/provctl explain "lineage of artifact $DIGEST"
./target/release/provctl explain "$SMOKE_DIR/challenge-prov.json" \
    "lineage of artifact $DIGEST" analyze | grep -q "total:"
./target/release/provctl explain "$SMOKE_DIR/challenge-prov.json" \
    "lineage of artifact $DIGEST" backend=graph | grep -q "backend: graph"
./target/release/provctl slowlog "$SMOKE_DIR/challenge-prov.json" threshold_us=0 \
    "out=$SMOKE_DIR/slow-queries.jsonl" | grep -q "slow-query log:"
test -s "$SMOKE_DIR/slow-queries.jsonl"

echo "==> optimizer smoke: EXPLAIN --optimized + differential harness"
./target/release/provctl explain "count runs" --optimized | grep -q "MetaCount"
./target/release/provctl explain "$SMOKE_DIR/challenge-prov.json" \
    "lineage of artifact $DIGEST" analyze --optimized | grep -q "total:"
./target/release/provctl explain "$SMOKE_DIR/challenge-prov.json" \
    "lineage of artifact $DIGEST" backend=graph --optimized | grep -q "(indexed)"
# PROPTEST_CASES bounds both the proptest properties and the differential
# query harness; keep the CI smoke cheap, go deeper locally by raising it.
PROPTEST_CASES="${PROPTEST_CASES:-64}" cargo test -q --test differential_query

echo "==> server smoke: serve over HTTP, round-trip create/ingest/query, shutdown"
./target/release/provctl serve 127.0.0.1:0 workers=4 > "$SMOKE_DIR/serve.out" &
SERVE_PID=$!
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^prov-server listening on //p' "$SMOKE_DIR/serve.out")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
test -n "$ADDR"
./target/release/provctl client "$ADDR" health | grep -q '"ready":true'
./target/release/provctl client "$ADDR" create lab tenant=ci
./target/release/provctl client "$ADDR" ingest lab "$SMOKE_DIR/challenge-prov.json" tenant=ci
./target/release/provctl client "$ADDR" query lab "count runs" tenant=ci | grep -q '"type":"count"'
./target/release/provctl client "$ADDR" stats lab | grep -q '"store_runs"'
./target/release/provctl client "$ADDR" metrics | grep -q "prov_server_requests_total"
./target/release/provctl client "$ADDR" shutdown
wait "$SERVE_PID"

echo "==> crash-recovery smoke: kill -9 a durable server, restart, audit zero acked loss"
DATA_DIR="$SMOKE_DIR/wal-data"
./target/release/provctl run "$SMOKE_DIR/wf.json" "$SMOKE_DIR/fig1-prov.json"
./target/release/provctl serve 127.0.0.1:0 workers=4 "data_dir=$DATA_DIR" fsync=batch \
    > "$SMOKE_DIR/serve-durable.out" &
SERVE_PID=$!
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^prov-server listening on //p' "$SMOKE_DIR/serve-durable.out")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
test -n "$ADDR"
# Two acked ingests with distinct executions, then SIGKILL mid-run: no
# drain, no flush. Every ack must survive the restart.
./target/release/provctl client "$ADDR" ingest lab "$SMOKE_DIR/challenge-prov.json" tenant=ci
./target/release/provctl client "$ADDR" ingest lab "$SMOKE_DIR/fig1-prov.json" tenant=ci \
    retries=3 request_id=ci-smoke
kill -9 "$SERVE_PID"
wait "$SERVE_PID" || true
./target/release/provctl recover "$DATA_DIR" | grep -q "namespace 'lab'"
./target/release/provctl serve 127.0.0.1:0 workers=4 "data_dir=$DATA_DIR" fsync=batch \
    > "$SMOKE_DIR/serve-recovered.out" &
SERVE_PID=$!
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^prov-server listening on //p' "$SMOKE_DIR/serve-recovered.out")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
test -n "$ADDR"
grep -q "recovered namespace 'lab'" "$SMOKE_DIR/serve-recovered.out"
./target/release/provctl client "$ADDR" stats lab | grep -q '"executions":2'
./target/release/provctl client "$ADDR" query lab "count executions" tenant=ci \
    | grep -q '"value":2'
./target/release/provctl client "$ADDR" shutdown
wait "$SERVE_PID"
cargo test -q --test crash_recovery
PROPTEST_CASES="${PROPTEST_CASES:-64}" cargo test -q --test property_wal

echo "==> server stress: concurrent multi-tenant tests under PROVTEST_THREADS"
PROVTEST_THREADS="${PROVTEST_THREADS:-8}" cargo test -q --test server
PROVTEST_THREADS="${PROVTEST_THREADS:-8}" cargo test -q --test differential_query \
    concurrent_ingest_and_query_loses_no_writes_on_any_backend

echo "==> E18: concurrent server load benchmark"
cargo run --release -q -p bench --bin report server
test -s BENCH_server.json
grep -q '"consistent": true' BENCH_server.json

echo "==> E19: durable ingest benchmark (WAL fsync policies)"
cargo run --release -q -p bench --bin report durability
test -s BENCH_durability.json
grep -q '"consistent":true' BENCH_durability.json
# The default batch fsync policy must keep >= 80% of what the same WAL
# sustains when it never fsyncs. (batch_vs_memory_ratio — the WAL against no
# log at all — is reported, not gated: the log's fixed per-entry cost is the
# write path's largest term, DESIGN.md §4.3.)
grep -q '"batch_vs_memory_ratio"' BENCH_durability.json
awk -F': ' '/batch_vs_never_ratio/ { exit !($2 + 0 >= 0.8) }' BENCH_durability.json

echo "==> observability smoke: traced round-trip with a forced retry, metrics, slowlog"
# shed_first=1 forces the first API request into a deterministic 503, so
# the traced, retried ingest exercises the whole plane: two linked attempt
# spans under one trace id, per-tenant metric series, a slow-query log.
./target/release/provctl serve 127.0.0.1:0 workers=4 shed_first=1 slowlog_threshold_us=0 \
    > "$SMOKE_DIR/serve-obs.out" &
SERVE_PID=$!
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^prov-server listening on //p' "$SMOKE_DIR/serve-obs.out")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
test -n "$ADDR"
./target/release/provctl client "$ADDR" ingest lab "$SMOKE_DIR/challenge-prov.json" tenant=ci \
    retries=3 request_id=obs-smoke traced seed=7 2> "$SMOKE_DIR/obs-ingest.err"
TRACE_ID="$(sed -n 's/^trace_id: //p' "$SMOKE_DIR/obs-ingest.err")"
test -n "$TRACE_ID"
./target/release/provctl client "$ADDR" query lab "count runs" tenant=ci traced seed=9 \
    2>/dev/null | grep -q '"type":"count"'
./target/release/provctl client "$ADDR" trace "$TRACE_ID" > "$SMOKE_DIR/obs-trace.json"
# The shed attempt and the served retry are both recorded under the trace.
grep -q '"outcome":"overloaded"' "$SMOKE_DIR/obs-trace.json"
grep -q '"outcome":"ok"' "$SMOKE_DIR/obs-trace.json"
grep -q '"attempt":"2"' "$SMOKE_DIR/obs-trace.json"
grep -q "\"trace_id\":\"$TRACE_ID\"" "$SMOKE_DIR/obs-trace.json"
# Per-tenant series + WAL-free global series on /v1/metrics, and every
# sample line must be valid Prometheus text (name ... value).
./target/release/provctl client "$ADDR" metrics > "$SMOKE_DIR/obs-metrics.prom"
grep -q 'prov_tenant_requests_total' "$SMOKE_DIR/obs-metrics.prom"
grep -q 'tenant="ci"' "$SMOKE_DIR/obs-metrics.prom"
grep -q 'prov_tenant_sheds_total' "$SMOKE_DIR/obs-metrics.prom"
awk '!/^#/ && NF { if ($NF + 0 != $NF) exit 1 }' "$SMOKE_DIR/obs-metrics.prom"
./target/release/provctl client "$ADDR" slowlog lab > "$SMOKE_DIR/obs-slowlog.jsonl"
test -s "$SMOKE_DIR/obs-slowlog.jsonl"
./target/release/provctl client "$ADDR" health | grep -q '"namespaces":'
./target/release/provctl client "$ADDR" shutdown
wait "$SERVE_PID"

echo "==> E20: observability plane overhead benchmark (gate: <= 5%)"
cargo run --release -q -p bench --bin report observability
test -s BENCH_observability.json
awk -F': ' '/overhead_ratio/ { exit !($2 + 0 >= 0.95) }' BENCH_observability.json

echo "==> distributed-capture smoke: multi-worker run, stitch, happens-before + trace"
BLOB_DIR="$SMOKE_DIR/blobs"
./target/release/provctl capture fig1 "$BLOB_DIR" workers=3 trace=auto \
    > "$SMOKE_DIR/capture.out"
grep -q "^trace " "$SMOKE_DIR/capture.out"
CAPTURE_TRACE="$(sed -n 's/^trace //p' "$SMOKE_DIR/capture.out")"
test "$(ls "$BLOB_DIR"/site*.prb | wc -l)" -eq 4
./target/release/provctl stitch "$BLOB_DIR" "out=$SMOKE_DIR/stitched.json" \
    > "$SMOKE_DIR/stitch.out"
# Cross-worker causality must be recovered at module granularity, the
# capture's trace id must survive the stitch, and no gaps may be reported
# for a complete blob set.
grep -q "happens-before site0/" "$SMOKE_DIR/stitch.out"
grep -q " -> site" "$SMOKE_DIR/stitch.out"
grep -q "^trace $CAPTURE_TRACE\$" "$SMOKE_DIR/stitch.out"
! grep -q "^gap:" "$SMOKE_DIR/stitch.out"
test -s "$SMOKE_DIR/stitched.json"
./target/release/provctl query "$SMOKE_DIR/stitched.json" "count runs" | grep -qx "8"
PROPTEST_CASES="${PROPTEST_CASES:-64}" cargo test -q --test distributed
PROPTEST_CASES="${PROPTEST_CASES:-64}" cargo test -q --test property_distrib

echo "==> E21: distributed capture benchmark (gate: probe overhead <= 5%)"
cargo run --release -q -p bench --bin report distributed
test -s BENCH_distributed.json
awk -F': ' '/overhead_ratio/ { exit !($2 + 0 >= 0.95) }' BENCH_distributed.json

echo "==> sharded smoke: scatter-gather query + per-shard EXPLAIN rows + sharded server"
# Offline scatter-gather must answer exactly like the single engine, and
# EXPLAIN ANALYZE must carry one row per shard.
./target/release/provctl query "$SMOKE_DIR/challenge-prov.json" "count runs" \
    > "$SMOKE_DIR/count-single.out"
./target/release/provctl query "$SMOKE_DIR/challenge-prov.json" shards=4 "count runs" \
    | diff "$SMOKE_DIR/count-single.out" -
./target/release/provctl explain "$SMOKE_DIR/challenge-prov.json" \
    "lineage of artifact $DIGEST" shards=4 analyze > "$SMOKE_DIR/sharded-explain.out"
grep -q "ScatterGather (4 shards)" "$SMOKE_DIR/sharded-explain.out"
grep -q "shard 0/4" "$SMOKE_DIR/sharded-explain.out"
grep -q "shard 3/4" "$SMOKE_DIR/sharded-explain.out"
# A sharded durable server: per-shard WALs, stats report the shard count.
SHARD_DATA_DIR="$SMOKE_DIR/shard-data"
./target/release/provctl serve 127.0.0.1:0 workers=4 shards=4 "data_dir=$SHARD_DATA_DIR" \
    > "$SMOKE_DIR/serve-sharded.out" &
SERVE_PID=$!
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^prov-server listening on //p' "$SMOKE_DIR/serve-sharded.out")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
test -n "$ADDR"
./target/release/provctl client "$ADDR" ingest lab "$SMOKE_DIR/challenge-prov.json" tenant=ci
./target/release/provctl client "$ADDR" query lab "count runs" tenant=ci | grep -q '"type":"count"'
./target/release/provctl client "$ADDR" stats lab | grep -q '"shards":4'
./target/release/provctl client "$ADDR" shutdown
wait "$SERVE_PID"
test -f "$SHARD_DATA_DIR/lab/SHARDS"
# The differential harness (run above) pins sharded(2)/sharded(4) as its
# ninth and tenth modes; the property suite pins the merge/exchange laws
# and races writers against scatter-gather readers.
PROVTEST_THREADS="${PROVTEST_THREADS:-8}" cargo test -q --test property_shard

echo "==> E22: sharded scatter-gather benchmark (gates: speedup_at_4 >= 1.5, stats exact)"
cargo run --release -q -p bench --bin report sharded
test -s BENCH_sharded.json
grep -q '"accesses_match": true' BENCH_sharded.json
awk -F': ' '/"speedup_at_4"/ { exit !($2 + 0 >= 1.5) }' BENCH_sharded.json

echo "==> E16: query observability overhead benchmark"
cargo run --release -q -p bench --bin report query
test -s BENCH_query.json

echo "==> E17: cost-based optimizer benchmark"
cargo run --release -q -p bench --bin report optimizer
test -s BENCH_optimizer.json

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "CI gate passed."
