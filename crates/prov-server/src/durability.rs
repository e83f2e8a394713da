//! The server's durability layer: WAL entry codec and recovery reports.
//!
//! Every acked ingest is appended to the namespace's write-ahead log
//! (`prov_store::wal::NamespaceWal`) *before* it is applied to the
//! in-memory stores, under the same engine write lock — the ack a client
//! receives therefore certifies a durable record. On restart,
//! [`crate::ProvServer::recover`] replays each namespace directory into
//! fresh stores and restores the generation counter, so query-cache
//! staleness semantics survive the crash.
//!
//! WAL entries are JSON envelopes over the workspace's dependency-free
//! wire codec (`crate::wire`), not serde: `{"request_id": ..., "seq": N,
//! "retro": {...}}`. The request id (when the client supplied one) makes
//! ingest idempotent — retries after an ambiguous failure are answered
//! from the dedupe cache instead of double-applying — and the dedupe set
//! itself is rebuilt from the WAL on recovery. The sequence number is the
//! namespace generation the entry produced: with `shards=N` each shard
//! owns its own WAL, and recovery merges the per-shard streams back into
//! global ingest order by `seq` before replaying.

use crate::error::ServerError;
use crate::wire;
use prov_core::model::RetrospectiveProvenance;
use prov_store::wal::FsyncPolicy;
use prov_store::IoFaultPlan;
use prov_telemetry::{parse_json, JsonValue};
use std::path::PathBuf;

/// How many consecutive WAL append failures flip a namespace into
/// read-only degraded mode.
pub const READ_ONLY_AFTER: u64 = 3;

/// Durability knobs; present in [`crate::ServerConfig`] when the server
/// persists namespaces.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory; each namespace owns `data_dir/<name>/`.
    pub data_dir: PathBuf,
    /// When WAL appends are forced to disk.
    pub fsync: FsyncPolicy,
    /// Auto-checkpoint (snapshot + compaction) once a namespace's live
    /// tail holds at least this many records and at least as many as the
    /// snapshot it rewrites — the minimum tail length, not a period; 0
    /// disables auto-checkpointing.
    pub checkpoint_every: u64,
    /// Deterministic I/O faults armed on every namespace WAL (tests only).
    pub fault_plan: Option<IoFaultPlan>,
}

impl DurabilityConfig {
    /// Durability rooted at `data_dir` with the batch fsync default and
    /// a 256-record minimum tail between checkpoints.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::batch_default(),
            checkpoint_every: 256,
            fault_plan: None,
        }
    }

    /// Set the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Set the minimum live-tail length at which to checkpoint (0 = never).
    pub fn checkpoint_every(mut self, records: u64) -> Self {
        self.checkpoint_every = records;
        self
    }

    /// Arm every namespace WAL with `plan`.
    pub fn fault_plan(mut self, plan: IoFaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// What recovery found in one namespace directory.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The namespace recovered.
    pub namespace: String,
    /// Records replayed from the compacted snapshot.
    pub snapshot_records: u64,
    /// Records replayed from the live WAL tail.
    pub wal_records: u64,
    /// Generation counter restored into the engine.
    pub generation: u64,
    /// Was a torn tail truncated in either file?
    pub truncated: bool,
    /// Scan errors from the WAL layer (torn/corrupt tails, reported).
    pub tail_errors: Vec<String>,
    /// Records whose bytes were valid but whose JSON envelope was not
    /// (skipped, reported — never panicked on).
    pub codec_errors: Vec<String>,
}

impl RecoveryReport {
    /// One-line human-readable summary.
    pub fn render(&self) -> String {
        let mut line = format!(
            "namespace '{}': {} snapshot + {} wal records, generation {}",
            self.namespace, self.snapshot_records, self.wal_records, self.generation
        );
        if self.truncated {
            line.push_str(" (torn tail truncated)");
        }
        for e in self.tail_errors.iter().chain(&self.codec_errors) {
            line.push_str(&format!("\n  - {e}"));
        }
        line
    }
}

/// Encode one WAL entry: the provenance document, the client's request id
/// (when supplied), and the namespace-global sequence number the entry
/// produced (the post-ingest generation).
pub fn encode_entry(
    retro: &RetrospectiveProvenance,
    request_id: Option<&str>,
    seq: u64,
) -> Vec<u8> {
    let mut fields: Vec<(String, JsonValue)> = Vec::with_capacity(3);
    if let Some(id) = request_id {
        fields.push(("request_id".to_string(), JsonValue::String(id.to_string())));
    }
    fields.push(("seq".to_string(), JsonValue::Number(seq as f64)));
    fields.push(("retro".to_string(), wire::retro_to_json(retro)));
    wire::render_json(&JsonValue::Object(fields.into_iter().collect())).into_bytes()
}

/// Decode one WAL entry back into the document, its request id, and its
/// global sequence number (`None` for records written before sequence
/// stamping; they sort before stamped records, in file order).
pub fn decode_entry(
    bytes: &[u8],
) -> Result<(RetrospectiveProvenance, Option<String>, Option<u64>), ServerError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| ServerError::Durability(format!("wal entry is not UTF-8: {e}")))?;
    let v = parse_json(text)
        .map_err(|e| ServerError::Durability(format!("wal entry is not JSON: {e}")))?;
    let retro = v
        .get("retro")
        .ok_or_else(|| ServerError::Durability("wal entry missing 'retro'".into()))?;
    let retro = wire::retro_from_json(retro)
        .map_err(|e| ServerError::Durability(format!("wal entry document: {e}")))?;
    let request_id = v
        .get("request_id")
        .and_then(|r| r.as_str())
        .map(str::to_string);
    let seq = v.get("seq").and_then(JsonValue::as_u64);
    Ok((retro, request_id, seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_core::capture::{CaptureLevel, ProvenanceCapture};
    use wf_engine::synth::figure1_workflow;
    use wf_engine::{standard_registry, Executor};

    fn retro(seed: u64) -> RetrospectiveProvenance {
        let (wf, _) = figure1_workflow(seed);
        let exec = Executor::new(standard_registry());
        let mut cap = ProvenanceCapture::new(CaptureLevel::Fine);
        let r = exec.run_observed(&wf, &mut cap).unwrap();
        cap.take(r.exec).unwrap()
    }

    #[test]
    fn entries_round_trip_with_and_without_request_id() {
        let doc = retro(3);
        let bytes = encode_entry(&doc, Some("req-42"), 7);
        let (back, id, seq) = decode_entry(&bytes).unwrap();
        assert_eq!(back, doc);
        assert_eq!(id.as_deref(), Some("req-42"));
        assert_eq!(seq, Some(7));

        let bytes = encode_entry(&doc, None, 1);
        let (back, id, seq) = decode_entry(&bytes).unwrap();
        assert_eq!(back, doc);
        assert_eq!(id, None);
        assert_eq!(seq, Some(1));
    }

    #[test]
    fn legacy_entries_without_seq_still_decode() {
        let doc = retro(3);
        let mut fields = std::collections::BTreeMap::new();
        fields.insert("retro".to_string(), wire::retro_to_json(&doc));
        let bytes = wire::render_json(&JsonValue::Object(fields)).into_bytes();
        let (back, id, seq) = decode_entry(&bytes).unwrap();
        assert_eq!(back, doc);
        assert_eq!(id, None);
        assert_eq!(seq, None);
    }

    #[test]
    fn malformed_entries_are_errors_not_panics() {
        for bad in [&b"\xFF\xFE"[..], b"not json", b"{}", b"{\"retro\": 3}"] {
            assert!(decode_entry(bad).is_err(), "{bad:?}");
        }
    }
}
