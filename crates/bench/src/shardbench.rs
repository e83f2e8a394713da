//! E22: what does execution-hash sharding buy on closure-heavy PQL?
//!
//! The workload is a fabricated wide-and-deep lineage DAG: `depth`
//! artifact generations, each produced by `width` distinct executions
//! that all consume the previous generation's artifact. An unbounded
//! filtered lineage query from the newest artifact therefore walks
//! run levels `width` wide, and the `where module contains ...` filter
//! plus row collection do real string work per discovered row.
//!
//! Two speedup numbers are reported, deliberately distinct:
//!
//! * **wall speedup** — measured wall-clock of the unsharded engine over
//!   the sharded engine *on this machine*. The sharded engine runs every
//!   stage on the calling thread, so this reads the cost of routing and
//!   merging: at best about 1.0;
//! * **scatter speedup** — the critical-path ratio: total per-shard busy
//!   time over the busiest shard's busy time, taken from the EXPLAIN
//!   ANALYZE `shard i/n` lanes. It estimates what a coordinator running
//!   each shard on its own core would gain, and it is what the
//!   `speedup_at_4` gate in `BENCH_sharded.json` pins: a diagnostic of
//!   how evenly routing spreads the work, not a measured speedup.
//!
//! The bench also re-checks the truthfulness invariant the whole design
//! leans on: the sharded EXPLAIN ANALYZE access totals must equal the
//! unsharded totals *exactly* (`accesses_match`), because every shard and
//! the coordinator count into the one tally of the query.

use prov_core::model::{Artifact, Environment, ModuleRun, RetrospectiveProvenance};
use prov_query::{analyze, parse, Analysis, PqlEngine, ShardedEngine};
use std::collections::BTreeMap;
use wf_engine::{ExecId, RunStatus};
use wf_model::{NodeId, WorkflowId};

/// Artifact hash for generation `l` of the synthetic DAG.
fn gen_hash(l: usize) -> u64 {
    0xE22_0000_0000 + l as u64
}

/// Fabricate the wide-and-deep corpus: one document per execution,
/// `width` executions per generation, each consuming generation `l-1`
/// and producing generation `l`. Module identities alternate so that a
/// `module contains warp` filter keeps roughly half the rows.
pub fn synth_wide_corpus(width: usize, depth: usize) -> (Vec<RetrospectiveProvenance>, u64) {
    let env = Environment::current(1);
    let mut docs = Vec::with_capacity(width * depth);
    for l in 1..=depth {
        for w in 0..width {
            let exec = ExecId((l * width + w) as u64);
            let (a_in, a_out) = (gen_hash(l - 1), gen_hash(l));
            let identity = if w % 2 == 0 {
                format!("AlignWarp@{l}")
            } else {
                format!("SliceSelect@{l}")
            };
            let run = ModuleRun {
                node: NodeId(w as u64),
                identity,
                params: Vec::new(),
                status: RunStatus::Succeeded,
                started_millis: 0,
                elapsed_micros: 1,
                from_cache: false,
                error: None,
                inputs: vec![("in".to_string(), a_in)],
                outputs: vec![("out".to_string(), a_out)],
                attempts: 1,
                backoff_micros: 0,
            };
            let mut artifacts = BTreeMap::new();
            for h in [a_in, a_out] {
                artifacts.insert(
                    h,
                    Artifact {
                        hash: h,
                        dtype: "grid".to_string(),
                        size: 64,
                        preview: None,
                    },
                );
            }
            docs.push(RetrospectiveProvenance {
                exec,
                workflow: WorkflowId(0xE22),
                workflow_name: "sharded-bench".to_string(),
                status: RunStatus::Succeeded,
                started_millis: 0,
                finished_millis: 1,
                runs: vec![run],
                artifacts,
                environment: env.clone(),
                resumed_from: None,
            });
        }
    }
    (docs, gen_hash(depth))
}

/// One shard-count measurement.
#[derive(Debug)]
pub struct ShardBenchRow {
    /// Shards the engine fanned out over.
    pub shards: usize,
    /// Median EXPLAIN ANALYZE wall-clock (µs).
    pub eval_us: f64,
    /// Unsharded wall-clock over this row's wall-clock.
    pub wall_speedup: f64,
    /// Busy µs per shard lane, summed over every scatter stage.
    pub lane_busy_us: Vec<u64>,
    /// Rows each shard lane fetched, summed over every scatter stage.
    pub lane_rows: Vec<usize>,
    /// Critical-path ratio: Σ lane busy / max lane busy.
    pub scatter_speedup: f64,
    /// Result rows the filtered lineage produced.
    pub rows: usize,
    /// Sharded access totals equal the unsharded totals exactly.
    pub accesses_match: bool,
}

/// Busy time (µs) and fetched rows per shard, read off the `shard i/n`
/// EXPLAIN ANALYZE rows.
fn lanes(analysis: &Analysis, shards: usize) -> (Vec<u64>, Vec<usize>) {
    let mut busy = vec![0u64; shards];
    let mut rows = vec![0usize; shards];
    for op in &analysis.ops {
        if let Some(rest) = op.label.strip_prefix("shard ") {
            if let Some((s, _)) = rest.split_once('/') {
                if let Ok(s) = s.parse::<usize>() {
                    if s < shards {
                        busy[s] += op.self_micros;
                        rows[s] += op.rows_out;
                    }
                }
            }
        }
    }
    (busy, rows)
}

/// Run the filtered-lineage workload unsharded and at each shard count.
/// Returns the unsharded baseline (µs) and one row per shard count.
pub fn experiment_sharded(
    shard_counts: &[usize],
    width: usize,
    depth: usize,
    reps: usize,
) -> (f64, Vec<ShardBenchRow>) {
    let (docs, root) = synth_wide_corpus(width, depth);
    let query = parse(&format!(
        "lineage of artifact {root:016x} where module contains warp"
    ))
    .expect("bench query parses");

    let mut single = PqlEngine::new();
    for d in &docs {
        single.ingest(d);
    }
    let reference = analyze(&single, &query).expect("unsharded analyze");
    let base_us = crate::time_us(reps, || {
        analyze(&single, &query).expect("unsharded analyze")
    });

    let rows = shard_counts
        .iter()
        .map(|&n| {
            let mut sharded = ShardedEngine::new(n);
            for d in &docs {
                sharded.ingest(d);
            }
            let analysis = sharded.analyze(&query).expect("sharded analyze");
            assert_eq!(
                analysis.result, reference.result,
                "sharded({n}) result diverged from unsharded"
            );
            let accesses_match = analysis.total_accesses() == reference.total_accesses();
            let (busy, lane_rows) = lanes(&analysis, n);
            let total: u64 = busy.iter().sum();
            let peak = busy.iter().copied().max().unwrap_or(0).max(1);
            let eval_us =
                crate::time_us(reps, || sharded.analyze(&query).expect("sharded analyze"));
            ShardBenchRow {
                shards: n,
                eval_us,
                wall_speedup: base_us / eval_us.max(1e-9),
                lane_busy_us: busy,
                lane_rows,
                scatter_speedup: total as f64 / peak as f64,
                rows: match &analysis.result {
                    prov_query::QueryResult::Nodes(rows) => rows.len(),
                    other => panic!("lineage returned {other:?}"),
                },
                accesses_match,
            }
        })
        .collect();
    (base_us, rows)
}

/// Render E22 results as the stable `BENCH_sharded.json` document.
pub fn sharded_json(width: usize, depth: usize, base_us: f64, rows: &[ShardBenchRow]) -> String {
    let row_json = rows
        .iter()
        .map(|r| {
            let lanes = r
                .lane_busy_us
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"shards\":{},\"eval_us\":{:.1},\"wall_speedup\":{:.2},\
                 \"scatter_speedup\":{:.2},\"rows\":{},\"accesses_match\":{},\
                 \"lane_busy_us\":[{lanes}]}}",
                r.shards, r.eval_us, r.wall_speedup, r.scatter_speedup, r.rows, r.accesses_match
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let at4 = rows.iter().find(|r| r.shards == 4);
    format!(
        "{{\n  \"benchmark\": \"sharded-scatter-gather\",\n  \
         \"corpus\": {{\"width\": {width}, \"depth\": {depth}, \"docs\": {}}},\n  \
         \"baseline_us\": {:.1},\n  \"rows\": [\n    {}\n  ],\n  \
         \"speedup_definition\": \"scatter_speedup is the critical path: total \
         per-shard busy time over the busiest shard, i.e. the wall-clock speedup \
         realized with >= shards cores; wall_speedup is measured on this machine\",\n  \
         \"speedup_at_4\": {:.2},\n  \"wall_speedup_at_4\": {:.2},\n  \
         \"accesses_match\": {}\n}}\n",
        width * depth,
        base_us,
        row_json,
        at4.map(|r| r.scatter_speedup).unwrap_or(0.0),
        at4.map(|r| r.wall_speedup).unwrap_or(0.0),
        rows.iter().all(|r| r.accesses_match),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_wide_deep_and_rooted() {
        let (docs, root) = synth_wide_corpus(8, 3);
        assert_eq!(docs.len(), 24);
        assert_eq!(root, gen_hash(3));
        // Every generation-l document consumes generation l-1.
        for d in &docs {
            let run = &d.runs[0];
            assert_eq!(run.inputs.len(), 1);
            assert_eq!(run.outputs.len(), 1);
            assert_eq!(run.inputs[0].1 + 1, run.outputs[0].1);
        }
    }

    #[test]
    fn sharded_rows_agree_with_unsharded_and_carry_the_gates() {
        let (base_us, rows) = experiment_sharded(&[1, 4], 12, 3, 2);
        assert!(base_us > 0.0);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.accesses_match,
                "{} shards: access totals drifted",
                r.shards
            );
            assert!(r.rows > 0);
            assert_eq!(r.lane_busy_us.len(), r.shards);
            assert_eq!(r.lane_rows.len(), r.shards);
        }
        // Routing spreads the work over all four shards: each fetched
        // rows, none fetched them all. (Counts, not busy time: a lane's
        // share of this small corpus can read 0 µs in a release build.)
        let fetched: usize = rows[1].lane_rows.iter().sum();
        assert!(
            rows[1].lane_rows.iter().all(|&r| r > 0 && r < fetched),
            "4 shards must spread the rows: {:?}",
            rows[1].lane_rows
        );
        let doc = sharded_json(12, 3, base_us, &rows);
        assert!(doc.contains("\"speedup_at_4\":"));
        assert!(doc.contains("\"accesses_match\": true"));
        let parsed = prov_telemetry::parse_json(&doc).expect("valid JSON");
        assert!(parsed.get("rows").is_some());
    }
}
