//! The server's durability layer: WAL entry codec and recovery reports.
//!
//! Every acked ingest is appended to the namespace's write-ahead log
//! (`prov_store::wal::NamespaceWal`) *before* it is applied to the
//! in-memory stores, under the same namespace write lock — the ack a
//! client receives therefore certifies a durable record. On restart,
//! [`crate::ProvServer::recover`] applies each namespace directory's
//! entries, in `seq` order, through the same `apply` live ingest uses,
//! so the generation, the acks and query-cache staleness survive the
//! crash.
//!
//! WAL entries are JSON envelopes, not serde: `{"request_id": ...,
//! "retro": {...}, "seq": N}`, members in key order, with the document in
//! its one JSON form (`prov_core::codec`, the form HTTP ingest bodies and
//! the log store use too). [`encode_entry`] and [`decode_entry`] use the
//! codec's direct writer and decoder (`write_retro`, `read_retro`), so
//! neither builds a JSON tree; the bytes are the ones the tree codec
//! (`retro_to_json` + `render_json`) writes, so entries written by either
//! replay under either, and `tests/golden/wal_entry.json` pins them. A
//! document the codec refuses is a 400 at ingest, before anything is
//! logged, so every entry the writer produces is one recovery can decode.
//! The request id (when the client supplied one) makes ingest idempotent — retries after an ambiguous failure are answered
//! from the dedupe cache instead of double-applying — and the dedupe set
//! itself is rebuilt from the WAL on recovery. The sequence number is the
//! namespace generation the entry produced: with `shards=N` each shard
//! owns its own WAL, and recovery merges the per-shard streams back into
//! global ingest order by `seq` before replaying.

use crate::error::ServerError;
use prov_core::codec::{read_retro, write_retro};
use prov_core::model::RetrospectiveProvenance;
use prov_json::{read_members, read_opt_str, read_opt_u64, write_str, write_u64, Reader};
use prov_store::wal::FsyncPolicy;
use prov_store::IoFaultPlan;
use std::borrow::Cow;
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
    /// Auto-checkpoint (every record rewritten into a fresh snapshot) once
    /// a namespace's live tail holds at least this many records and at least as many as the
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
    /// Records replayed from the snapshot.
    pub snapshot_records: u64,
    /// Records replayed from the live WAL tail.
    pub wal_records: u64,
    /// The namespace generation after replay: the last applied `seq`, or
    /// the WAL watermark when that is higher.
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
    let mut out = String::with_capacity(ENTRY_CAPACITY);
    out.push('{');
    if let Some(id) = request_id {
        out.push_str("\"request_id\":");
        write_str(&mut out, id);
        out.push(',');
    }
    out.push_str("\"retro\":");
    write_retro(&mut out, retro);
    out.push_str(",\"seq\":");
    write_u64(&mut out, seq);
    out.push('}');
    out.into_bytes()
}

/// Bytes reserved up front for an entry, so writing a typical one (an
/// eight-module run is about 4 KB) regrows the buffer once at most.
const ENTRY_CAPACITY: usize = 4096;

/// Decode one WAL entry back into the document, its request id, and its
/// global sequence number (`None` for records written before sequence
/// stamping; they sort before stamped records, in file order).
pub fn decode_entry(
    bytes: &[u8],
) -> Result<(RetrospectiveProvenance, Option<String>, Option<u64>), ServerError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| ServerError::Durability(format!("wal entry is not UTF-8: {e}")))?;
    let mut r = Reader::new(text);
    let (mut retro, mut request_id, mut seq) = (None, None, None);
    read_members(&mut r, |r, key| {
        match key {
            "retro" => retro = Some(read_retro(r)?),
            "request_id" => request_id = read_opt_str(r)?.map(Cow::into_owned),
            "seq" => seq = read_opt_u64(r)?,
            _ => r.skip_value()?,
        }
        Ok(())
    })
    .and_then(|()| r.finish())
    .map_err(|e| ServerError::Durability(format!("wal entry is not JSON: {e}")))?;
    let retro = retro
        .ok_or_else(|| ServerError::Durability("wal entry missing 'retro'".into()))?
        .map_err(|e| ServerError::Durability(format!("wal entry document: {e}")))?;
    Ok((retro, request_id, seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_core::codec::{retro_from_json, retro_to_json};
    use prov_core::testkit::{
        assert_both_outcomes, base_documents, golden_document, mutated, retro, CASES,
        GOLDEN_WAL_ENTRY as GOLDEN,
    };
    use prov_json::{parse, render_json, JsonValue};
    use std::collections::BTreeMap;
    use wf_model::SplitMix64;

    /// The entry decoder over the tree codec, as it read entries before the
    /// direct decoder: the reference the direct one is held to.
    fn decode_entry_by_tree(
        bytes: &[u8],
    ) -> Result<(RetrospectiveProvenance, Option<String>, Option<u64>), ServerError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| ServerError::Durability(format!("wal entry is not UTF-8: {e}")))?;
        let v = parse(text)
            .map_err(|e| ServerError::Durability(format!("wal entry is not JSON: {e}")))?;
        let retro = v
            .get("retro")
            .ok_or_else(|| ServerError::Durability("wal entry missing 'retro'".into()))?;
        let retro = retro_from_json(retro)
            .map_err(|e| ServerError::Durability(format!("wal entry document: {e}")))?;
        let request_id = v
            .get("request_id")
            .and_then(|r| r.as_str())
            .map(str::to_string);
        let seq = v.get("seq").and_then(JsonValue::as_u64);
        Ok((retro, request_id, seq))
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
    fn entries_are_the_bytes_the_tree_codec_writes() {
        let doc = retro(4);
        for (id, seq) in [(Some("req-\"7\""), 9), (None, 1)] {
            let mut fields = BTreeMap::new();
            if let Some(id) = id {
                fields.insert("request_id".to_string(), JsonValue::String(id.into()));
            }
            fields.insert("seq".to_string(), JsonValue::Number(seq as f64));
            fields.insert("retro".to_string(), retro_to_json(&doc));
            let tree = render_json(&JsonValue::Object(fields));
            assert_eq!(encode_entry(&doc, id, seq), tree.into_bytes());
        }
    }

    #[test]
    fn legacy_entries_without_seq_still_decode() {
        let doc = retro(3);
        let mut fields = BTreeMap::new();
        fields.insert("retro".to_string(), retro_to_json(&doc));
        let bytes = render_json(&JsonValue::Object(fields)).into_bytes();
        let (back, id, seq) = decode_entry(&bytes).unwrap();
        assert_eq!(back, doc);
        assert_eq!(id, None);
        assert_eq!(seq, None);
    }

    #[test]
    fn malformed_entries_are_errors_not_panics() {
        for bad in [&b"\xFF\xFE"[..], b"not json", b"{}", b"{\"retro\": 3}"] {
            assert!(decode_entry(bad).is_err(), "{bad:?}");
            assert_eq!(decode_entry(bad), decode_entry_by_tree(bad), "{bad:?}");
        }
    }

    #[test]
    fn differential_decode_entry_matches_the_tree_decoder() {
        let docs = base_documents();
        let mut accepted = 0;
        for seed in 0..CASES {
            let mut rng = SplitMix64::new(seed);
            let doc = &docs[rng.below(docs.len() as u64) as usize];
            let mut fields = BTreeMap::new();
            fields.insert("retro".to_string(), retro_to_json(doc));
            if rng.below(4) != 0 {
                let seq = JsonValue::Number(rng.below(10_000) as f64);
                fields.insert("seq".to_string(), seq);
            }
            if rng.below(2) == 0 {
                let id = JsonValue::String(format!("req-{seed}"));
                fields.insert("request_id".to_string(), id);
            }
            let text = mutated(seed, &JsonValue::Object(fields));
            let direct = decode_entry(text.as_bytes());
            assert_eq!(
                direct,
                decode_entry_by_tree(text.as_bytes()),
                "seed {seed}: {text}"
            );
            accepted += u64::from(direct.is_ok());
        }
        assert_both_outcomes(accepted);
    }

    #[test]
    fn the_golden_entry_is_reproduced_byte_for_byte_and_decodes() {
        let doc = golden_document();
        assert_eq!(
            String::from_utf8_lossy(&encode_entry(&doc, Some("req-golden"), 42)),
            String::from_utf8_lossy(GOLDEN)
        );
        let (back, id, seq) = decode_entry(GOLDEN).unwrap();
        assert_eq!(back, doc);
        assert_eq!(id.as_deref(), Some("req-golden"));
        assert_eq!(seq, Some(42));
        assert_eq!(decode_entry_by_tree(GOLDEN), Ok((doc, id, seq)));
    }
}
