//! Per-namespace write-ahead logging with hash-chained frames.
//!
//! The paper treats provenance as the audit record of science — a record
//! that must outlive the process that collected it. This module is the
//! durability substrate under the provenance server: every acked ingest is
//! first appended to a write-ahead log, and on restart the log is replayed
//! into fresh stores before the server accepts traffic.
//!
//! ## Frame format
//!
//! Each record is framed as
//!
//! ```text
//! [len: u32 LE][crc: u32 LE][chain: u64 LE][payload: len bytes]
//! ```
//!
//! where `crc = crc32(chain_le || payload)` guards the frame against torn
//! writes and bit rot, and `chain = fnv1a64(prev_chain_le || payload)` is a
//! hash chain rooted at [`GENESIS_CHAIN`]: record *i* commits to every
//! record before it, so a spliced, reordered, or tampered log is detected
//! in O(1) per record during replay — the Chronicle-style tamper evidence
//! of ROADMAP item 4, applied to the durability path.
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy`] trades durability against throughput: `Always` fsyncs
//! every append, `Batch` fsyncs every *n* records or *t* microseconds
//! (whichever comes first), `Never` leaves flushing to the OS. Note that a
//! kill -9 does **not** lose OS page cache — only power loss or kernel
//! crashes do — so even `Never` survives the kill-9 harness; the policy
//! matters for machine-level failures.
//!
//! ## Recovery
//!
//! [`replay_bytes`] scans the log, verifying length, CRC, and hash chain
//! per frame, and stops at the first invalid frame: everything before it is
//! the *longest valid hash-chained prefix*, everything after is a torn tail
//! (reported, never panicked on). [`Wal::open`] truncates the file to that
//! prefix so the next append continues a clean chain.
//!
//! [`NamespaceWal`] layers snapshot+compaction checkpoints on top: a
//! namespace directory holds `snapshot.wal` (a checkpointed, compacted log
//! whose first record carries the generation watermark) and `wal.log` (the
//! live tail, chained off the snapshot's final hash so the pair is
//! spliceproof as a unit).

use std::collections::hash_map::{Entry, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::iofault::{DiskMedia, FaultyMedia, IoFaultPlan, WalMedia};
use crate::logstore::crc32;

/// Bytes of frame header preceding each payload: len (4) + crc (4) +
/// chain (8).
pub const FRAME_HEADER: usize = 16;

/// Hash-chain value before any record: the FNV-1a 64-bit offset basis.
pub const GENESIS_CHAIN: u64 = 0xcbf2_9ce4_8422_2325;

/// Payloads above this size are rejected at append and treated as
/// corruption during replay (a torn length field can otherwise ask the
/// scanner to skip gigabytes).
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Magic prefix of a snapshot's meta record (first record of
/// `snapshot.wal`), followed by the generation watermark as `u64` LE.
pub const SNAPSHOT_MAGIC: &[u8] = b"PROVSNAP1";

/// Advance the hash chain over one payload: FNV-1a 64 over the previous
/// chain value (LE) followed by the payload bytes.
pub fn chain_hash(prev: u64, payload: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = GENESIS_CHAIN;
    for b in prev.to_le_bytes().iter().chain(payload) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Frame one payload for appending at chain position `prev`.
/// Returns the framed bytes and the new chain value.
pub fn encode_frame(prev: u64, payload: &[u8]) -> (Vec<u8>, u64) {
    let chain = chain_hash(prev, payload);
    let mut crc_input = Vec::with_capacity(8 + payload.len());
    crc_input.extend_from_slice(&chain.to_le_bytes());
    crc_input.extend_from_slice(payload);
    let crc = crc32(&crc_input);
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(&chain.to_le_bytes());
    frame.extend_from_slice(payload);
    (frame, chain)
}

/// When appended records are forced to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every record — maximum durability, minimum throughput.
    Always,
    /// fsync once per `every` records or once per `micros` microseconds,
    /// whichever comes first. `batch(32, 5_000)` is the pragmatic default.
    Batch {
        /// Records between forced syncs.
        every: u32,
        /// Microseconds between forced syncs.
        micros: u64,
    },
    /// Never fsync from the WAL; the OS flushes when it pleases. Survives
    /// kill -9 (page cache persists) but not power loss.
    Never,
}

impl FsyncPolicy {
    /// The pragmatic default: batch every 32 records or 5 ms.
    pub fn batch_default() -> Self {
        FsyncPolicy::Batch {
            every: 32,
            micros: 5_000,
        }
    }

    /// Parse `always`, `never`, `batch`, `batch:N`, or `batch:N:MICROS`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        match s {
            "always" => return Ok(FsyncPolicy::Always),
            "never" => return Ok(FsyncPolicy::Never),
            "batch" => return Ok(FsyncPolicy::batch_default()),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("batch:") {
            let mut parts = rest.split(':');
            let every: u32 = parts
                .next()
                .unwrap_or_default()
                .parse()
                .map_err(|_| format!("bad fsync batch size in {s:?}"))?;
            let micros: u64 = match parts.next() {
                Some(m) => m
                    .parse()
                    .map_err(|_| format!("bad fsync batch interval in {s:?}"))?,
                None => 5_000,
            };
            if every == 0 {
                return Err(format!("fsync batch size must be > 0 in {s:?}"));
            }
            return Ok(FsyncPolicy::Batch { every, micros });
        }
        Err(format!(
            "unknown fsync policy {s:?} (expected always|batch[:N[:MICROS]]|never)"
        ))
    }

    /// Canonical textual form, parseable by [`FsyncPolicy::parse`].
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".to_string(),
            FsyncPolicy::Batch { every, micros } => format!("batch:{every}:{micros}"),
            FsyncPolicy::Never => "never".to_string(),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// The outcome of scanning one log: the longest valid hash-chained prefix,
/// plus a report on whatever followed it.
#[derive(Debug, Clone)]
pub struct WalReplay {
    /// Payloads of the valid prefix, in append order.
    pub payloads: Vec<Vec<u8>>,
    /// Bytes occupied by the valid prefix (the truncation point).
    pub valid_bytes: u64,
    /// Hash-chain value after the last valid record (`genesis` when empty).
    pub chain: u64,
    /// Bytes past the valid prefix that were rejected (0 = clean log).
    pub torn_bytes: u64,
    /// Why the scan stopped, when it stopped early.
    pub tail_error: Option<String>,
}

impl WalReplay {
    /// Did the scan reject a tail?
    pub fn truncated(&self) -> bool {
        self.torn_bytes > 0
    }
}

/// Scan `data` as a framed log rooted at `genesis`, returning the longest
/// valid hash-chained prefix and a description of any rejected tail. Never
/// panics on malformed input — corruption is data, not a bug.
pub fn replay_bytes(data: &[u8], genesis: u64) -> WalReplay {
    let mut payloads = Vec::new();
    let mut chain = genesis;
    let mut off = 0usize;
    let mut tail_error = None;
    while off < data.len() {
        let rest = &data[off..];
        if rest.len() < FRAME_HEADER {
            tail_error = Some(format!(
                "torn frame header at byte {off}: {} of {FRAME_HEADER} bytes",
                rest.len()
            ));
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        if len > MAX_PAYLOAD {
            tail_error = Some(format!(
                "implausible payload length {len} at byte {off} (corrupt length field)"
            ));
            break;
        }
        if rest.len() < FRAME_HEADER + len {
            tail_error = Some(format!(
                "torn payload at byte {off}: {} of {} bytes",
                rest.len() - FRAME_HEADER,
                len
            ));
            break;
        }
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let rec_chain = u64::from_le_bytes(rest[8..16].try_into().unwrap());
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
        let mut crc_input = Vec::with_capacity(8 + len);
        crc_input.extend_from_slice(&rec_chain.to_le_bytes());
        crc_input.extend_from_slice(payload);
        if crc32(&crc_input) != crc {
            tail_error = Some(format!(
                "crc mismatch at byte {off} (record {})",
                payloads.len()
            ));
            break;
        }
        if chain_hash(chain, payload) != rec_chain {
            tail_error = Some(format!(
                "hash chain break at byte {off} (record {}): log tampered or spliced",
                payloads.len()
            ));
            break;
        }
        chain = rec_chain;
        payloads.push(payload.to_vec());
        off += FRAME_HEADER + len;
    }
    WalReplay {
        payloads,
        valid_bytes: off as u64,
        chain,
        torn_bytes: (data.len() - off) as u64,
        tail_error,
    }
}

/// Replay a log file from disk ([`replay_bytes`] over its contents; a
/// missing file is an empty log).
pub fn replay_file(path: &Path, genesis: u64) -> io::Result<WalReplay> {
    let data = crate::iofault::read_for_replay(path, None)?;
    Ok(replay_bytes(&data, genesis))
}

/// fsync a directory so a rename or create inside it is durable. Treated
/// as best-effort on platforms where directories can't be opened.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

/// A single append-only log file: open-with-recovery, framed appends, and
/// policy-driven fsync.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    media: Box<dyn WalMedia>,
    policy: FsyncPolicy,
    chain: u64,
    records: u64,
    unsynced: u32,
    last_sync: Instant,
    /// Bytes up to the end of the last *successful* append: the offset a
    /// failed append self-heals back to.
    valid_len: u64,
    /// A failed append could not be healed; every further append fails.
    poisoned: bool,
    /// Completed fsyncs since open (for observability).
    syncs: u64,
    /// Wall-clock duration of the most recent fsync, in microseconds.
    last_sync_micros: u64,
}

impl Wal {
    /// Open (or create) the log at `path`, replay it from `genesis`,
    /// truncate any torn tail, and position for appending. Returns the
    /// ready-to-append WAL and the replay report.
    pub fn open(path: &Path, genesis: u64, policy: FsyncPolicy) -> io::Result<(Self, WalReplay)> {
        Self::open_with_plan(path, genesis, policy, None)
    }

    /// [`Wal::open`] with an optional fault plan arming the append path.
    pub fn open_with_plan(
        path: &Path,
        genesis: u64,
        policy: FsyncPolicy,
        plan: Option<IoFaultPlan>,
    ) -> io::Result<(Self, WalReplay)> {
        let replay = replay_file(path, genesis)?;
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        if replay.truncated() {
            // Drop the torn tail so the next append continues the chain
            // from the last valid record.
            file.set_len(replay.valid_bytes)?;
            file.sync_all()?;
        }
        let mut file = file;
        use std::io::Seek;
        file.seek(io::SeekFrom::Start(replay.valid_bytes))?;
        let media: Box<dyn WalMedia> = match plan {
            Some(p) if !p.is_empty() => Box::new(FaultyMedia::new(file, replay.valid_bytes, p)),
            _ => Box::new(DiskMedia::new(file, replay.valid_bytes)),
        };
        let wal = Wal {
            path: path.to_path_buf(),
            media,
            policy,
            chain: replay.chain,
            records: replay.payloads.len() as u64,
            unsynced: 0,
            last_sync: Instant::now(),
            valid_len: replay.valid_bytes,
            poisoned: false,
            syncs: 0,
            last_sync_micros: 0,
        };
        Ok((wal, replay))
    }

    /// Append one payload, then fsync according to policy. On success the
    /// record is at least in the OS page cache (kill-9 durable); whether it
    /// is power-loss durable depends on the policy.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "wal poisoned: an earlier failed append could not be healed",
            ));
        }
        if payload.len() > MAX_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("payload of {} bytes exceeds MAX_PAYLOAD", payload.len()),
            ));
        }
        let (frame, chain) = encode_frame(self.chain, payload);
        if let Err(e) = self.media.append(&frame) {
            // A failed append can leave torn bytes that would orphan every
            // later record behind an invalid frame. Heal by cutting back
            // to the last good offset; if even that fails, refuse further
            // appends rather than silently losing them.
            if self.media.truncate(self.valid_len).is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.chain = chain;
        self.records += 1;
        self.unsynced += 1;
        self.valid_len = self.media.len();
        self.maybe_sync()
    }

    fn maybe_sync(&mut self) -> io::Result<()> {
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch { every, micros } => {
                self.unsynced >= every || self.last_sync.elapsed().as_micros() as u64 >= micros
            }
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    /// Force everything appended so far to disk.
    pub fn sync(&mut self) -> io::Result<()> {
        let began = Instant::now();
        self.media.sync()?;
        self.unsynced = 0;
        self.last_sync = Instant::now();
        self.syncs += 1;
        self.last_sync_micros = began.elapsed().as_micros() as u64;
        Ok(())
    }

    /// Records in the log (replayed + appended).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Completed fsyncs since open.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Duration of the most recent fsync, in microseconds.
    pub fn last_sync_micros(&self) -> u64 {
        self.last_sync_micros
    }

    /// Current chain head (commits to the whole log).
    pub fn chain(&self) -> u64 {
        self.chain
    }

    /// Bytes in the log.
    pub fn len_bytes(&self) -> u64 {
        self.media.len()
    }

    /// The file this WAL appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// What [`NamespaceWal::open`] recovered from a namespace directory.
#[derive(Debug, Clone)]
pub struct WalRecovery {
    /// Keyed payloads in replay order: snapshot records then live-tail
    /// records. Keys are whatever the writer supplied (e.g. an exec id
    /// hash) and drive latest-wins compaction at checkpoint.
    pub entries: Vec<(u64, Vec<u8>)>,
    /// Records replayed from the snapshot (compacted history).
    pub snapshot_records: u64,
    /// Records replayed from the live tail.
    pub wal_records: u64,
    /// Generation watermark to restore: the snapshot's recorded generation
    /// plus one per live-tail record.
    pub generation: u64,
    /// True if either file had a tail rejected and truncated.
    pub truncated: bool,
    /// Scan errors, in the order encountered (reported, never panicked on).
    pub tail_errors: Vec<String>,
}

/// A namespace's durable state: `snapshot.wal` (compacted checkpoint, meta
/// record first) plus `wal.log` (live tail chained off the snapshot head).
///
/// The checkpoint protocol is crash-safe at every step: the new snapshot is
/// written to a temp file, fsynced, renamed over the old one, and the
/// parent directory fsynced *before* the live tail is reset. A crash
/// between rename and reset leaves a tail whose chain no longer matches —
/// replay rejects it, and every record it held is already in the snapshot.
#[derive(Debug)]
pub struct NamespaceWal {
    dir: PathBuf,
    wal: Wal,
    policy: FsyncPolicy,
    plan: Option<IoFaultPlan>,
    /// Generation recorded in the snapshot's meta record.
    base_generation: u64,
    /// Records in the snapshot file, not counting its meta record.
    snapshot_records: u64,
    /// Keyed payloads resident for the next checkpoint (snapshot + tail).
    resident: Vec<(u64, Vec<u8>)>,
    /// Auto-checkpoint once the live tail holds at least this many records
    /// *and* at least as many as the snapshot it would rewrite, so the
    /// bytes checkpoints write stay within about twice the bytes appended
    /// however large the namespace grows (0 = only on explicit request).
    pub checkpoint_every: u64,
    /// Fsyncs completed by live tails that checkpoints have since replaced.
    retired_syncs: u64,
    /// Completed checkpoints since open (for observability).
    checkpoints: u64,
    /// Wall-clock duration of the most recent checkpoint, in microseconds.
    last_checkpoint_micros: u64,
}

impl NamespaceWal {
    fn snapshot_path(dir: &Path) -> PathBuf {
        dir.join("snapshot.wal")
    }

    fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal.log")
    }

    /// Open a namespace directory (creating it if needed), replay snapshot
    /// and live tail, truncate torn tails, and return the recovered state.
    pub fn open(dir: &Path, policy: FsyncPolicy) -> io::Result<(Self, WalRecovery)> {
        Self::open_with_plan(dir, policy, None)
    }

    /// [`NamespaceWal::open`] with a fault plan arming the live tail.
    pub fn open_with_plan(
        dir: &Path,
        policy: FsyncPolicy,
        plan: Option<IoFaultPlan>,
    ) -> io::Result<(Self, WalRecovery)> {
        std::fs::create_dir_all(dir)?;
        let mut tail_errors = Vec::new();
        let mut truncated = false;

        // 1. Replay the snapshot (rooted at genesis). Its first record is
        //    the meta record carrying the generation watermark.
        let snap = replay_file(&Self::snapshot_path(dir), GENESIS_CHAIN)?;
        if snap.truncated() {
            truncated = true;
            if let Some(e) = &snap.tail_error {
                tail_errors.push(format!("snapshot: {e}"));
            }
            // A torn snapshot is still a valid prefix; rewrite it clean so
            // the live tail's chain root stays consistent.
            let file = OpenOptions::new()
                .write(true)
                .open(Self::snapshot_path(dir))?;
            file.set_len(snap.valid_bytes)?;
            file.sync_all()?;
        }
        let mut base_generation = 0u64;
        let mut entries: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut snapshot_records = 0u64;
        for (i, payload) in snap.payloads.into_iter().enumerate() {
            if i == 0 && payload.starts_with(SNAPSHOT_MAGIC) {
                let tail = &payload[SNAPSHOT_MAGIC.len()..];
                if tail.len() >= 8 {
                    base_generation = u64::from_le_bytes(tail[0..8].try_into().unwrap());
                }
                continue;
            }
            snapshot_records += 1;
            entries.push((entry_key(&payload), payload));
        }

        // 2. Replay the live tail, chained off the snapshot head so the
        //    pair is tamper-evident as a unit.
        let (wal, tail) =
            Wal::open_with_plan(&Self::wal_path(dir), snap.chain, policy, plan.clone())?;
        if tail.truncated() {
            truncated = true;
            if let Some(e) = &tail.tail_error {
                tail_errors.push(format!("wal: {e}"));
            }
        }
        let wal_records = tail.payloads.len() as u64;
        for payload in tail.payloads {
            entries.push((entry_key(&payload), payload));
        }

        let recovery = WalRecovery {
            entries: entries.clone(),
            snapshot_records,
            wal_records,
            generation: base_generation + wal_records,
            truncated,
            tail_errors,
        };
        let nswal = NamespaceWal {
            dir: dir.to_path_buf(),
            wal,
            policy,
            plan,
            base_generation,
            snapshot_records,
            resident: entries,
            checkpoint_every: 0,
            retired_syncs: 0,
            checkpoints: 0,
            last_checkpoint_micros: 0,
        };
        Ok((nswal, recovery))
    }

    /// Append one keyed payload to the live tail. The key drives
    /// latest-wins compaction at the next checkpoint.
    pub fn append(&mut self, key: u64, payload: &[u8]) -> io::Result<()> {
        self.wal.append(payload)?;
        self.resident.push((key, payload.to_vec()));
        if self.checkpoint_every > 0
            && self.wal.records() >= self.checkpoint_every.max(self.snapshot_records)
        {
            // Auto-checkpoint failures must not fail the append: the
            // record is already durable in the live tail.
            let _ = self.checkpoint(self.generation());
        }
        Ok(())
    }

    /// Force the live tail to disk regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// The logical generation this WAL certifies: the snapshot watermark
    /// plus one per live-tail record.
    pub fn generation(&self) -> u64 {
        self.base_generation + self.wal.records()
    }

    /// Records currently in the live tail.
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// Chain head of the live tail.
    pub fn chain(&self) -> u64 {
        self.wal.chain()
    }

    /// The namespace directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Completed live-tail fsyncs since open, across every tail a
    /// checkpoint has replaced.
    pub fn syncs(&self) -> u64 {
        self.retired_syncs + self.wal.syncs()
    }

    /// Duration of the most recent live-tail fsync, in microseconds.
    pub fn last_sync_micros(&self) -> u64 {
        self.wal.last_sync_micros()
    }

    /// Completed checkpoints since open.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Duration of the most recent checkpoint, in microseconds.
    pub fn last_checkpoint_micros(&self) -> u64 {
        self.last_checkpoint_micros
    }

    /// Checkpoint: compact resident records (latest per key, first-seen
    /// order) into a fresh snapshot stamped with `generation`, then reset
    /// the live tail. Crash-safe at every intermediate point.
    pub fn checkpoint(&mut self, generation: u64) -> io::Result<()> {
        let began = Instant::now();
        // Latest-wins compaction, preserving first-occurrence order — the
        // same shape as LogStore::compact. Done in place, moving payloads:
        // should a later step fail, the compacted list still stands for
        // the same records at the next attempt.
        let mut slot_of: HashMap<u64, usize> = HashMap::with_capacity(self.resident.len());
        let mut compacted: Vec<(u64, Vec<u8>)> = Vec::with_capacity(self.resident.len());
        for (key, payload) in std::mem::take(&mut self.resident) {
            match slot_of.entry(key) {
                Entry::Occupied(slot) => compacted[*slot.get()].1 = payload,
                Entry::Vacant(slot) => {
                    slot.insert(compacted.len());
                    compacted.push((key, payload));
                }
            }
        }
        self.resident = compacted;

        // 1. Write the new snapshot to a temp file: meta record first,
        //    then the compacted payloads, all on one chain from genesis.
        let tmp = self.dir.join("snapshot.tmp");
        let mut out = BufWriter::new(File::create(&tmp)?);
        let mut meta = SNAPSHOT_MAGIC.to_vec();
        meta.extend_from_slice(&generation.to_le_bytes());
        let mut chain = GENESIS_CHAIN;
        for payload in std::iter::once(&meta).chain(self.resident.iter().map(|(_, p)| p)) {
            let (frame, next) = encode_frame(chain, payload);
            out.write_all(&frame)?;
            chain = next;
        }
        let f = out.into_inner().map_err(io::IntoInnerError::into_error)?;
        // 2. The temp file must be durable *before* the rename publishes
        //    it — otherwise a crash can leave a named-but-empty snapshot.
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, Self::snapshot_path(&self.dir))?;
        // 3. The rename itself lives in the directory; fsync it.
        sync_dir(&self.dir)?;

        // 4. Only now reset the live tail, re-rooted at the new snapshot
        //    head. A crash before this point leaves the old tail chained
        //    off the old snapshot — replay rejects it, and every record it
        //    held is already inside the new snapshot.
        std::fs::remove_file(Self::wal_path(&self.dir)).ok();
        sync_dir(&self.dir)?;
        let (wal, _) = Wal::open_with_plan(
            &Self::wal_path(&self.dir),
            chain,
            self.policy,
            self.plan.clone(),
        )?;
        self.retired_syncs += self.wal.syncs();
        self.wal = wal;
        self.base_generation = generation;
        self.snapshot_records = self.resident.len() as u64;
        self.checkpoints += 1;
        self.last_checkpoint_micros = began.elapsed().as_micros() as u64;
        Ok(())
    }
}

/// Stable key for latest-wins compaction when the writer doesn't supply
/// one: FNV-1a over the payload (each distinct payload is its own key, so
/// uncompacted replays keep everything).
fn entry_key(payload: &[u8]) -> u64 {
    chain_hash(0, payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iofault::IoFault;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "prov-wal-{}-{}-{name}",
            std::process::id(),
            wf_engine::event::now_millis()
        ));
        p
    }

    #[test]
    fn fsync_policy_parses_and_round_trips() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("batch:8:100").unwrap(),
            FsyncPolicy::Batch {
                every: 8,
                micros: 100
            }
        );
        assert_eq!(
            FsyncPolicy::parse("batch").unwrap(),
            FsyncPolicy::batch_default()
        );
        for s in ["always", "never", "batch:3:77"] {
            assert_eq!(FsyncPolicy::parse(s).unwrap().label(), s);
        }
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert!(FsyncPolicy::parse("batch:0").is_err());
    }

    #[test]
    fn append_replay_round_trip_preserves_order_and_chain() {
        let dir = temp_dir("roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let (mut wal, replay) = Wal::open(&path, GENESIS_CHAIN, FsyncPolicy::Always).unwrap();
        assert!(replay.payloads.is_empty());
        for i in 0..20u8 {
            wal.append(&[i; 5]).unwrap();
        }
        let head = wal.chain();
        drop(wal);
        let replay = replay_file(&path, GENESIS_CHAIN).unwrap();
        assert_eq!(replay.payloads.len(), 20);
        assert_eq!(replay.payloads[7], vec![7u8; 5]);
        assert_eq!(replay.chain, head);
        assert!(!replay.truncated());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_to_longest_valid_prefix() {
        let dir = temp_dir("torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path, GENESIS_CHAIN, FsyncPolicy::Never).unwrap();
        for i in 0..10u8 {
            wal.append(&[i; 32]).unwrap();
        }
        drop(wal);
        // Tear the last frame mid-payload.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 11]).unwrap();
        let (wal, replay) = Wal::open(&path, GENESIS_CHAIN, FsyncPolicy::Never).unwrap();
        assert_eq!(replay.payloads.len(), 9);
        assert!(replay.truncated());
        assert!(replay.tail_error.as_deref().unwrap().contains("torn"));
        // The file itself was truncated to the valid prefix.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), replay.valid_bytes);
        assert_eq!(wal.records(), 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_is_caught_by_crc_and_chain_break_by_hash() {
        let mut log = Vec::new();
        let mut chain = GENESIS_CHAIN;
        for i in 0..5u8 {
            let (frame, next) = encode_frame(chain, &[i; 16]);
            log.extend_from_slice(&frame);
            chain = next;
        }
        // Flip a payload bit in record 2.
        let mut flipped = log.clone();
        let rec_size = FRAME_HEADER + 16;
        flipped[2 * rec_size + FRAME_HEADER + 3] ^= 0x40;
        let replay = replay_bytes(&flipped, GENESIS_CHAIN);
        assert_eq!(replay.payloads.len(), 2);
        assert!(replay.tail_error.as_deref().unwrap().contains("crc"));

        // Splice: re-frame record 2 with a bogus chain value but a valid
        // CRC — only the hash chain catches this.
        let mut spliced = log[..2 * rec_size].to_vec();
        let (frame, _) = encode_frame(0xDEAD_BEEF, &[2u8; 16]);
        spliced.extend_from_slice(&frame);
        let replay = replay_bytes(&spliced, GENESIS_CHAIN);
        assert_eq!(replay.payloads.len(), 2);
        assert!(replay
            .tail_error
            .as_deref()
            .unwrap()
            .contains("hash chain break"));
    }

    #[test]
    fn namespace_checkpoint_compacts_and_restores_generation() {
        let dir = temp_dir("ns");
        let (mut ns, rec) = NamespaceWal::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(rec.generation, 0);
        // Three keys, key 1 written twice — compaction keeps the latest.
        ns.append(1, b"one-v1").unwrap();
        ns.append(2, b"two").unwrap();
        ns.append(1, b"one-v2").unwrap();
        ns.append(3, b"three").unwrap();
        assert_eq!(ns.generation(), 4);
        ns.checkpoint(4).unwrap();
        assert_eq!(ns.wal_records(), 0);
        ns.append(4, b"four").unwrap();
        drop(ns);

        let (ns, rec) = NamespaceWal::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(rec.generation, 5, "snapshot watermark + tail records");
        assert_eq!(rec.snapshot_records, 3, "key 1 compacted to one record");
        assert_eq!(rec.wal_records, 1);
        let payloads: Vec<&[u8]> = rec.entries.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(payloads, vec![&b"one-v2"[..], b"two", b"three", b"four"]);
        assert_eq!(ns.generation(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_checkpoints_are_amortised_over_the_appends_between_them() {
        let dir = temp_dir("amortised");
        let (mut ns, _) = NamespaceWal::open(&dir, FsyncPolicy::Never).unwrap();
        ns.checkpoint_every = 16;
        let payload = |i: u32| i.to_le_bytes().to_vec();
        for i in 0..4096u32 {
            ns.append(u64::from(i), &payload(i)).unwrap();
        }
        // A snapshot is rewritten only once the tail has grown as long as
        // it: 16, 16, 32, 64, ... — nine checkpoints, where one every 16
        // appends would be 256.
        assert!(ns.checkpoints() <= 12, "{} checkpoints", ns.checkpoints());
        assert_eq!(ns.generation(), 4096);
        drop(ns);

        let (ns, rec) = NamespaceWal::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(rec.generation, 4096);
        assert_eq!(rec.snapshot_records + rec.wal_records, 4096);
        assert!(!rec.truncated, "{:?}", rec.tail_errors);
        let expected: Vec<Vec<u8>> = (0..4096).map(payload).collect();
        let got: Vec<Vec<u8>> = rec.entries.into_iter().map(|(_, p)| p).collect();
        assert_eq!(got, expected);
        assert_eq!(ns.generation(), 4096);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_tail_after_interrupted_checkpoint_is_rejected_not_replayed_twice() {
        let dir = temp_dir("interrupted");
        let (mut ns, _) = NamespaceWal::open(&dir, FsyncPolicy::Always).unwrap();
        ns.append(1, b"alpha").unwrap();
        ns.append(2, b"beta").unwrap();
        // Simulate a crash between "snapshot renamed" and "tail reset":
        // checkpoint fully, then restore the pre-checkpoint tail bytes.
        let old_tail = std::fs::read(NamespaceWal::wal_path(&dir)).unwrap();
        ns.checkpoint(2).unwrap();
        drop(ns);
        std::fs::write(NamespaceWal::wal_path(&dir), &old_tail).unwrap();

        let (_, rec) = NamespaceWal::open(&dir, FsyncPolicy::Always).unwrap();
        // The stale tail chains off the old snapshot head — rejected, and
        // its records come back from the snapshot exactly once.
        assert_eq!(rec.wal_records, 0);
        assert!(rec.truncated);
        assert_eq!(rec.generation, 2);
        let payloads: Vec<&[u8]> = rec.entries.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(payloads, vec![&b"alpha"[..], b"beta"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_torn_write_fails_append_and_recovers_clean() {
        let dir = temp_dir("fault");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let payload = [9u8; 40];
        let frame_len = (FRAME_HEADER + payload.len()) as u64;
        // Tear the third append halfway through its frame.
        let plan = IoFaultPlan::new().at(
            2 * frame_len + frame_len / 2,
            IoFault::TornWrite { keep: 0 },
        );
        let (mut wal, _) =
            Wal::open_with_plan(&path, GENESIS_CHAIN, FsyncPolicy::Never, Some(plan)).unwrap();
        wal.append(&payload).unwrap();
        wal.append(&payload).unwrap();
        let err = wal.append(&payload).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        // The failed append self-healed: the torn bytes were cut back and
        // the next append lands on a clean chain.
        wal.append(&payload).unwrap();
        assert_eq!(wal.records(), 3);
        drop(wal);
        let (wal, replay) = Wal::open(&path, GENESIS_CHAIN, FsyncPolicy::Never).unwrap();
        assert_eq!(replay.payloads.len(), 3);
        assert!(!replay.truncated(), "{:?}", replay.tail_error);
        assert_eq!(wal.records(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_policy_syncs_on_record_count() {
        let dir = temp_dir("batch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        // A failing-sync plan proves when sync is actually called: with
        // batch:3, the first sync attempt happens on the third append.
        let plan = IoFaultPlan::new().at(0, IoFault::FailSync { count: 1 });
        let policy = FsyncPolicy::Batch {
            every: 3,
            micros: u64::MAX,
        };
        let (mut wal, _) = Wal::open_with_plan(&path, GENESIS_CHAIN, policy, Some(plan)).unwrap();
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        let err = wal.append(b"c").unwrap_err();
        assert!(err.to_string().contains("fsync"), "{err}");
        // The record itself was appended before the sync failed.
        assert_eq!(wal.records(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
