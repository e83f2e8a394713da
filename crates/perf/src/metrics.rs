//! The benchmark's metric names, units, regression bounds and the
//! predictions that tie layers to end-to-end numbers. `BENCHMARK.json` is
//! rendered from these tables and `load::WORKLOADS` ([`benchmark_json`],
//! `perf describe`); a test holds the file at the root to that rendering.

use crate::gen::{json_object, Shape};
use crate::load::WORKLOADS;
use prov_telemetry::JsonValue;

/// Window the driver measures, `run_seconds` of `BENCHMARK.json`, and the
/// default of `perf run` and `perf agree`.
pub const RUN_SECONDS: f64 = 12.0;

/// One end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// Timings carry the bound this host's own drift allows (see the README);
/// sizes carry the bound the issue fixed.
pub const END_TO_END: [EndToEnd; 9] = [
    ("throughput_rps", "1/s", "higher", 0.25),
    ("ingest_p50_ms", "ms", "lower", 0.25),
    ("ingest_p95_ms", "ms", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p95_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("recovery_s", "s", "lower", 0.25),
    ("rss_peak_mb", "MB", "lower", 0.10),
    ("disk_bytes_per_user_byte", "ratio", "lower", 0.02),
];

/// `(end-to-end metric, workload)` pairs a layer metric should move; `*` is
/// every workload, and `failed` the result line's count.
pub type Moves = &'static [(&'static str, &'static str)];

/// One per-layer metric: `(name, unit, better, moves)`.
pub type PerLayer = (String, &'static str, &'static str, Moves);

const ON_COLD: Moves = &[
    ("query_p50_ms", "query_cold"),
    ("query_p95_ms", "query_cold"),
];
const APPLY: Moves = &[
    ("throughput_rps", "ingest_durable"),
    ("setup_s", "query_cold"),
    ("setup_s", "query_hot"),
    ("recovery_s", "*"),
];

const LAYERS: [(&str, &str, &str, Moves); 37] = [
    (
        "http.roundtrip_us",
        "us",
        "lower",
        &[("throughput_rps", "*"), ("query_p50_ms", "query_hot")],
    ),
    ("admission.shed_share", "ratio", "lower", &[("failed", "*")]),
    (
        "wire.ingest_decode_us",
        "us",
        "lower",
        &[("ingest_p50_ms", "ingest_durable")],
    ),
    (
        "wire.ack_encode_us",
        "us",
        "lower",
        &[("ingest_p50_ms", "ingest_durable")],
    ),
    (
        "wire.reply_encode_us",
        "us",
        "lower",
        &[("query_p50_ms", "query_cold")],
    ),
    (
        "wire.request_bytes_mean",
        "bytes",
        "lower",
        &[("ingest_p50_ms", "ingest_durable")],
    ),
    (
        "wire.reply_bytes_mean",
        "bytes",
        "lower",
        &[("query_p50_ms", "query_cold")],
    ),
    (
        "durability.encode_entry_us",
        "us",
        "lower",
        &[("ingest_p50_ms", "ingest_durable")],
    ),
    (
        "durability.entry_bytes_per_body_byte",
        "ratio",
        "lower",
        &[("disk_bytes_per_user_byte", "*")],
    ),
    (
        "durability.decode_entry_us",
        "us",
        "lower",
        &[("recovery_s", "*")],
    ),
    (
        "wal.append_us",
        "us",
        "lower",
        &[("ingest_p50_ms", "ingest_durable")],
    ),
    (
        "wal.append_p95_us",
        "us",
        "lower",
        &[("ingest_p95_ms", "ingest_durable")],
    ),
    (
        "wal.fsyncs_per_append",
        "ratio",
        "lower",
        &[("ingest_p50_ms", "ingest_durable")],
    ),
    (
        "wal.fsync_mean_us",
        "us",
        "lower",
        &[("ingest_p50_ms", "ingest_durable")],
    ),
    (
        "wal.checkpoints",
        "count",
        "lower",
        &[("ingest_p95_ms", "ingest_durable")],
    ),
    (
        "wal.checkpoint_mean_ms",
        "ms",
        "lower",
        &[("ingest_p95_ms", "ingest_durable")],
    ),
    (
        "wal.write_amplification",
        "ratio",
        "lower",
        &[("ingest_p95_ms", "ingest_durable")],
    ),
    ("engine.ingest_us", "us", "lower", APPLY),
    ("engine.ingest_us.q1", "us", "lower", APPLY),
    ("engine.ingest_us.q4", "us", "lower", APPLY),
    ("engine.ingest_growth", "ratio", "lower", APPLY),
    (
        "store.ingest_us",
        "us",
        "lower",
        &[("ingest_p50_ms", "ingest_durable"), ("rss_peak_mb", "*")],
    ),
    (
        "query.parse_us",
        "us",
        "lower",
        &[("query_p50_ms", "query_hot")],
    ),
    (
        "cache.lookup_us",
        "us",
        "lower",
        &[("query_p50_ms", "query_hot")],
    ),
    (
        "cache.put_us",
        "us",
        "lower",
        &[("query_p50_ms", "query_cold")],
    ),
    (
        "cache.hit_share",
        "ratio",
        "higher",
        &[("query_p50_ms", "mixed_sharded")],
    ),
    (
        "query.optimize_us",
        "us",
        "lower",
        &[("query_p50_ms", "query_cold")],
    ),
    ("query.analyze_optimized_us", "us", "lower", ON_COLD),
    ("query.analyze_over_eval", "ratio", "lower", ON_COLD),
    (
        "sharded.analyze_optimized_us",
        "us",
        "lower",
        &[("query_p50_ms", "mixed_sharded")],
    ),
    (
        "sharded.over_single",
        "ratio",
        "lower",
        &[("query_p50_ms", "mixed_sharded")],
    ),
    (
        "sharded.ingest_us",
        "us",
        "lower",
        &[("ingest_p50_ms", "mixed_sharded")],
    ),
    (
        "server.cpu_ms_per_request",
        "ms",
        "lower",
        &[("throughput_rps", "*")],
    ),
    (
        "server.handle_ingest_us",
        "us",
        "lower",
        &[("ingest_p50_ms", "ingest_durable")],
    ),
    (
        "server.handle_query_us",
        "us",
        "lower",
        &[("query_p50_ms", "query_cold")],
    ),
    // How much of the handle span the layer spans explain; the gap is
    // server glue. Reported, and expected to move nothing.
    (
        "reconcile.ingest_layer_sum_over_handle",
        "ratio",
        "higher",
        &[],
    ),
    (
        "reconcile.query_layer_sum_over_handle",
        "ratio",
        "higher",
        &[],
    ),
];

/// Every per-layer metric, the per-shape ones included.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out: Vec<PerLayer> = LAYERS
        .iter()
        .map(|&(name, unit, better, moves)| (name.to_string(), unit, better, moves))
        .collect();
    for shape in Shape::ALL {
        let name = shape.name();
        out.push((format!("query.{name}_us"), "us", "lower", ON_COLD));
        out.push((format!("query.{name}.rows"), "count", "lower", ON_COLD));
        out.push((
            format!("query.{name}.reads_per_row"),
            "ratio",
            "lower",
            ON_COLD,
        ));
    }
    out
}

/// `BENCHMARK.json`, from the tables the runs use. The file's keys are
/// fixed by the driver, so workload sizes and shape weights travel in each
/// workload's `why`, and the `moves` table stays here (`perf run` prints it
/// beside every per-layer metric).
pub fn benchmark_json() -> JsonValue {
    let text = |s: &str| JsonValue::String(s.to_string());
    let list = |items: Vec<JsonValue>| JsonValue::Array(items);
    json_object([
        (
            "command",
            list(vec![text("bash"), text("crates/perf/run.sh")]),
        ),
        ("paths", list(vec![text("crates/perf")])),
        ("run_seconds", JsonValue::Number(RUN_SECONDS)),
        (
            "workloads",
            list(
                WORKLOADS
                    .iter()
                    .map(|w| json_object([("name", text(w.name)), ("why", text(&w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            list(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, better, bound)| {
                        json_object([
                            ("name", text(name)),
                            ("unit", text(unit)),
                            ("better", text(better)),
                            ("bound", JsonValue::Number(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            list(
                per_layer()
                    .iter()
                    .map(|(name, unit, better, _)| {
                        json_object([
                            ("name", text(name)),
                            ("unit", text(unit)),
                            ("better", text(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_telemetry::parse_json;

    #[test]
    fn benchmark_json_is_what_the_tables_render() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the root of the repository");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc,
            benchmark_json(),
            "regenerate with `perf describe > BENCHMARK.json`"
        );
        assert_eq!(per_layer().len(), 61);
        for w in &WORKLOADS {
            let why = w.why();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    #[test]
    fn every_prediction_names_a_metric_and_a_workload() {
        for (layer, _, _, moves) in per_layer() {
            for (metric, workload) in moves {
                assert!(
                    *metric == "failed" || END_TO_END.iter().any(|e| e.0 == *metric),
                    "{layer} moves unknown metric {metric}"
                );
                assert!(
                    *workload == "*" || WORKLOADS.iter().any(|w| w.name == *workload),
                    "{layer} moves {metric} on unknown workload {workload}"
                );
            }
        }
    }
}
