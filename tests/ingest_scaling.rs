//! The write path's scaling gate: what one `PqlEngine::ingest` costs must
//! not depend on how much the engine already holds.
//!
//! ROADMAP open item 1 asks for ingest that is "flat, not quadratic". The
//! engine used to rebuild every posting list from the whole corpus after
//! each document, so the ten-thousandth ingest cost thousands of times the
//! first and this test would not finish in reasonable time; with postings
//! maintained at the point of change only the maps' O(log n) remains.

use prov_core::model::{Artifact, Environment, ModuleRun};
use provenance_workflows::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

const EXECUTIONS: u64 = 10_000;
const STAGES: u64 = 8;
const MODULES: [&str; 6] = ["Load", "Align", "Warp", "Slice", "Blend", "Save"];
const DTYPES: [&str; 5] = ["grid", "table", "mesh", "image", "bytes"];

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Execution `exec`: an eight-stage pipeline whose first stage also reads
/// the previous execution's final artifact, with random-`u64` artifact
/// hashes, a few module versions and a few failed runs.
fn synthetic(exec: u64) -> RetrospectiveProvenance {
    let artifact = |exec: u64, slot: u64| splitmix(exec * 16 + slot);
    let mut artifacts = BTreeMap::new();
    let mut runs = Vec::new();
    for stage in 0..STAGES {
        let mut inputs = vec![artifact(exec, stage)];
        if stage == 0 && exec > 1 {
            inputs.push(artifact(exec - 1, STAGES));
        }
        let output = artifact(exec, stage + 1);
        for &hash in inputs.iter().chain([&output]) {
            artifacts.entry(hash).or_insert_with(|| Artifact {
                hash,
                dtype: DTYPES[(hash % 5) as usize].to_string(),
                size: 1024,
                preview: None,
            });
        }
        let roll = splitmix(exec ^ (stage << 32));
        runs.push(ModuleRun {
            node: NodeId(stage),
            identity: format!("{}@{}", MODULES[(roll % 6) as usize], 1 + roll % 3),
            params: Vec::new(),
            status: if roll.is_multiple_of(20) {
                RunStatus::Failed
            } else {
                RunStatus::Succeeded
            },
            started_millis: exec,
            elapsed_micros: 1,
            from_cache: false,
            error: None,
            inputs: inputs
                .iter()
                .enumerate()
                .map(|(i, &h)| (format!("in{i}"), h))
                .collect(),
            outputs: vec![("out".to_string(), output)],
            attempts: 1,
            backoff_micros: 0,
        });
    }
    RetrospectiveProvenance {
        exec: ExecId(exec),
        workflow: WorkflowId(1),
        workflow_name: "pipeline".into(),
        status: RunStatus::Succeeded,
        started_millis: exec,
        finished_millis: exec + 1,
        runs,
        artifacts,
        environment: Environment::current(1),
        resumed_from: None,
    }
}

fn median(samples: &[u128]) -> u128 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

#[test]
fn ingest_cost_stays_flat_as_the_corpus_grows() {
    let mut engine = PqlEngine::new();
    let mut nanos = Vec::with_capacity(EXECUTIONS as usize);
    for exec in 1..=EXECUTIONS {
        let retro = synthetic(exec);
        let began = Instant::now();
        engine.ingest(&retro);
        nanos.push(began.elapsed().as_nanos());
    }
    assert_eq!(engine.exec_count() as u64, EXECUTIONS);
    assert_eq!(engine.run_count() as u64, EXECUTIONS * STAGES);
    let failed = parse_pql("list runs where status = failed").unwrap();
    assert_eq!(
        eval_optimized(&engine, &failed).unwrap(),
        engine.eval_query(&failed).unwrap(),
        "the status index answers like the scan"
    );
    let decile = EXECUTIONS as usize / 10;
    let first = median(&nanos[..decile]);
    let last = median(&nanos[nanos.len() - decile..]);
    println!("median ingest: first decile {first} ns, last decile {last} ns");
    assert!(
        last <= 3 * first.max(1),
        "median ingest went from {first} ns (first {decile}) to {last} ns (last {decile})"
    );
}
