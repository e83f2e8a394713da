//! Instrumented store access: [`StoreStats`] counts the primitive read
//! operations a backend performs while answering queries.
//!
//! §2.2 of the tutorial frames provenance management as a storage-strategy
//! vs. query-efficiency trade-off. The canned-query experiment (E5) shows
//! the *end-to-end* times; `StoreStats` opens the box and shows *why* — how
//! many node/edge/triple/row/record reads each backend issued, and whether
//! it got to use a keyed lookup or had to scan. Every
//! [`crate::ProvenanceStore`] backend carries one recorder and bumps it on
//! its query paths (ingest is deliberately not counted: the stats describe
//! the cost of *answering* a query, not of building the store).
//!
//! Counters are relaxed [`AtomicU64`]s behind a shared [`Arc`], so a
//! recorder is `Send + Sync` and stays *exact* when many readers query one
//! store concurrently (the prov-server requirement: ANALYZE accounting
//! must not lose bumps under contention). A relaxed fetch-add is a single
//! uncontended instruction on the hot path, well inside the E16 acceptance
//! bar of <5% overhead with observation enabled. Recording can still be
//! switched off wholesale with [`StoreStats::set_enabled`], which is what
//! the E16 harness uses for its unobserved baseline.
//!
//! Cloning a `StoreStats` clones the *handle*, not the counters: both
//! clones bump and read the same shared cells. This is what lets a
//! concurrency wrapper (see [`crate::shared::SharedStore`]) expose the
//! recorder of a store it has locked away behind an `RwLock`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The shared counter block behind a [`StoreStats`] handle.
#[derive(Debug, Default)]
struct StatsInner {
    /// Graph-shaped node materializations (graph store, PQL engine).
    node_reads: AtomicU64,
    /// Adjacency-list entries followed (graph store, PQL engine).
    edge_reads: AtomicU64,
    /// Triples produced by index pattern matches (triple store).
    triple_reads: AtomicU64,
    /// Relational rows read out of heap tables (relational store).
    row_reads: AtomicU64,
    /// Log records replayed or re-examined (log store).
    record_reads: AtomicU64,
    /// Accesses served by a key or index (hash/B-tree probe).
    keyed_lookups: AtomicU64,
    /// Accesses that had to walk a whole table/log/index.
    scans: AtomicU64,
    /// Bytes decoded from a serialized representation.
    bytes_deserialized: AtomicU64,
    /// When false, every bump is a no-op (the unobserved baseline).
    enabled: AtomicBool,
}

/// Counters for the primitive read operations of a store backend.
///
/// Interior-mutable and thread-safe so that read-only query methods
/// (`&self`) can record their work, including from several threads at
/// once. Obtain a point-in-time copy with [`StoreStats::snapshot`] and
/// attribute work to a region of code by subtracting snapshots with
/// [`StatsSnapshot::delta`]. Clones share the same counters.
#[derive(Debug, Clone)]
pub struct StoreStats {
    inner: Arc<StatsInner>,
}

impl Default for StoreStats {
    fn default() -> Self {
        let inner = StatsInner {
            enabled: AtomicBool::new(true),
            ..Default::default()
        };
        StoreStats {
            inner: Arc::new(inner),
        }
    }
}

macro_rules! bump {
    ($(#[$doc:meta])* $name:ident, $field:ident) => {
        $(#[$doc])*
        #[inline]
        pub fn $name(&self, n: u64) {
            if self.inner.enabled.load(Ordering::Relaxed) {
                self.inner.$field.fetch_add(n, Ordering::Relaxed);
            }
        }
    };
}

impl StoreStats {
    /// A fresh recorder with all counters zero and recording enabled.
    pub fn new() -> Self {
        Self::default()
    }

    bump!(
        /// Record `n` node materializations.
        add_node_reads,
        node_reads
    );
    bump!(
        /// Record `n` adjacency entries followed.
        add_edge_reads,
        edge_reads
    );
    bump!(
        /// Record `n` triples produced by pattern matches.
        add_triple_reads,
        triple_reads
    );
    bump!(
        /// Record `n` relational rows read.
        add_row_reads,
        row_reads
    );
    bump!(
        /// Record `n` log records examined.
        add_record_reads,
        record_reads
    );
    bump!(
        /// Record `n` keyed (index-served) lookups.
        add_keyed_lookups,
        keyed_lookups
    );
    bump!(
        /// Record `n` full scans.
        add_scans,
        scans
    );
    bump!(
        /// Record `n` bytes decoded from serialized form.
        add_bytes_deserialized,
        bytes_deserialized
    );

    /// Turn recording on or off. Counters keep their values either way.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether bumps are currently being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Record a whole block of accesses at once: every counter of `s` is
    /// added to its twin here (no-op while recording is off). A reader that
    /// tallies its own work privately hands it over with one call.
    pub fn add(&self, s: &StatsSnapshot) {
        self.add_node_reads(s.node_reads);
        self.add_edge_reads(s.edge_reads);
        self.add_triple_reads(s.triple_reads);
        self.add_row_reads(s.row_reads);
        self.add_record_reads(s.record_reads);
        self.add_keyed_lookups(s.keyed_lookups);
        self.add_scans(s.scans);
        self.add_bytes_deserialized(s.bytes_deserialized);
    }

    /// Reset every counter to zero (recording state is unchanged).
    pub fn reset(&self) {
        self.inner.node_reads.store(0, Ordering::Relaxed);
        self.inner.edge_reads.store(0, Ordering::Relaxed);
        self.inner.triple_reads.store(0, Ordering::Relaxed);
        self.inner.row_reads.store(0, Ordering::Relaxed);
        self.inner.record_reads.store(0, Ordering::Relaxed);
        self.inner.keyed_lookups.store(0, Ordering::Relaxed);
        self.inner.scans.store(0, Ordering::Relaxed);
        self.inner.bytes_deserialized.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            node_reads: self.inner.node_reads.load(Ordering::Relaxed),
            edge_reads: self.inner.edge_reads.load(Ordering::Relaxed),
            triple_reads: self.inner.triple_reads.load(Ordering::Relaxed),
            row_reads: self.inner.row_reads.load(Ordering::Relaxed),
            record_reads: self.inner.record_reads.load(Ordering::Relaxed),
            keyed_lookups: self.inner.keyed_lookups.load(Ordering::Relaxed),
            scans: self.inner.scans.load(Ordering::Relaxed),
            bytes_deserialized: self.inner.bytes_deserialized.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`StoreStats`] counters; plain data, `Copy`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Graph-shaped node materializations.
    pub node_reads: u64,
    /// Adjacency-list entries followed.
    pub edge_reads: u64,
    /// Triples produced by index pattern matches.
    pub triple_reads: u64,
    /// Relational rows read out of heap tables.
    pub row_reads: u64,
    /// Log records replayed or re-examined.
    pub record_reads: u64,
    /// Accesses served by a key or index.
    pub keyed_lookups: u64,
    /// Accesses that walked a whole table/log/index.
    pub scans: u64,
    /// Bytes decoded from a serialized representation.
    pub bytes_deserialized: u64,
}

impl StatsSnapshot {
    /// Counter-wise difference `self - earlier` (saturating): the work done
    /// between the `earlier` snapshot and this one.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            node_reads: self.node_reads.saturating_sub(earlier.node_reads),
            edge_reads: self.edge_reads.saturating_sub(earlier.edge_reads),
            triple_reads: self.triple_reads.saturating_sub(earlier.triple_reads),
            row_reads: self.row_reads.saturating_sub(earlier.row_reads),
            record_reads: self.record_reads.saturating_sub(earlier.record_reads),
            keyed_lookups: self.keyed_lookups.saturating_sub(earlier.keyed_lookups),
            scans: self.scans.saturating_sub(earlier.scans),
            bytes_deserialized: self
                .bytes_deserialized
                .saturating_sub(earlier.bytes_deserialized),
        }
    }

    /// Counter-wise sum of two snapshots.
    pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            node_reads: self.node_reads + other.node_reads,
            edge_reads: self.edge_reads + other.edge_reads,
            triple_reads: self.triple_reads + other.triple_reads,
            row_reads: self.row_reads + other.row_reads,
            record_reads: self.record_reads + other.record_reads,
            keyed_lookups: self.keyed_lookups + other.keyed_lookups,
            scans: self.scans + other.scans,
            bytes_deserialized: self.bytes_deserialized + other.bytes_deserialized,
        }
    }

    /// Total element reads of any kind (nodes + edges + triples + rows +
    /// records). Lookup/scan/byte counters are access *shapes*, not reads,
    /// and are excluded.
    pub fn total_reads(&self) -> u64 {
        self.node_reads + self.edge_reads + self.triple_reads + self.row_reads + self.record_reads
    }

    /// Compact single-line rendering of the non-zero counters, e.g.
    /// `nodes=3 edges=7 keyed=4`. Returns `"-"` when everything is zero.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        for (label, v) in [
            ("nodes", self.node_reads),
            ("edges", self.edge_reads),
            ("triples", self.triple_reads),
            ("rows", self.row_reads),
            ("records", self.record_reads),
            ("keyed", self.keyed_lookups),
            ("scans", self.scans),
            ("bytes", self.bytes_deserialized),
        ] {
            if v > 0 {
                parts.push(format!("{label}={v}"));
            }
        }
        if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join(" ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumps_accumulate_and_snapshot() {
        let s = StoreStats::new();
        s.add_node_reads(3);
        s.add_edge_reads(2);
        s.add_keyed_lookups(1);
        let snap = s.snapshot();
        assert_eq!(snap.node_reads, 3);
        assert_eq!(snap.edge_reads, 2);
        assert_eq!(snap.keyed_lookups, 1);
        assert_eq!(snap.total_reads(), 5);
    }

    #[test]
    fn disabled_recorder_ignores_bumps() {
        let s = StoreStats::new();
        s.add_scans(1);
        s.set_enabled(false);
        s.add_scans(10);
        s.add_row_reads(10);
        s.set_enabled(true);
        s.add_scans(1);
        let snap = s.snapshot();
        assert_eq!(snap.scans, 2);
        assert_eq!(snap.row_reads, 0);
    }

    #[test]
    fn add_records_a_block_counterwise() {
        let s = StoreStats::new();
        s.add_node_reads(1);
        let block = StatsSnapshot {
            node_reads: 2,
            edge_reads: 3,
            scans: 1,
            bytes_deserialized: 9,
            ..Default::default()
        };
        s.add(&block);
        let mut expected = block;
        expected.node_reads += 1;
        assert_eq!(s.snapshot(), expected);
        s.set_enabled(false);
        s.add(&block);
        assert_eq!(s.snapshot(), expected, "off means off");
    }

    #[test]
    fn delta_attributes_work_between_snapshots() {
        let s = StoreStats::new();
        s.add_triple_reads(5);
        let before = s.snapshot();
        s.add_triple_reads(7);
        s.add_scans(1);
        let after = s.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.triple_reads, 7);
        assert_eq!(d.scans, 1);
        assert_eq!(d.node_reads, 0);
    }

    #[test]
    fn merge_sums_counterwise() {
        let a = StatsSnapshot {
            node_reads: 1,
            scans: 2,
            ..Default::default()
        };
        let b = StatsSnapshot {
            node_reads: 10,
            keyed_lookups: 4,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.node_reads, 11);
        assert_eq!(m.scans, 2);
        assert_eq!(m.keyed_lookups, 4);
    }

    #[test]
    fn render_is_compact_and_skips_zeros() {
        let s = StoreStats::new();
        assert_eq!(s.snapshot().render(), "-");
        s.add_node_reads(3);
        s.add_scans(1);
        assert_eq!(s.snapshot().render(), "nodes=3 scans=1");
    }

    #[test]
    fn reset_zeroes_but_keeps_enabled_state() {
        let s = StoreStats::new();
        s.add_record_reads(9);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
        assert!(s.enabled());
    }

    #[test]
    fn clones_share_the_same_counters() {
        let a = StoreStats::new();
        let b = a.clone();
        a.add_node_reads(2);
        b.add_node_reads(3);
        assert_eq!(a.snapshot().node_reads, 5);
        assert_eq!(b.snapshot().node_reads, 5);
        b.set_enabled(false);
        a.add_node_reads(10);
        assert_eq!(a.snapshot().node_reads, 5, "enable state is shared too");
    }

    #[test]
    fn recorder_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreStats>();
    }

    #[test]
    fn concurrent_bumps_are_exact() {
        let s = StoreStats::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        s.add_node_reads(1);
                        s.add_keyed_lookups(2);
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.node_reads, threads * per_thread);
        assert_eq!(snap.keyed_lookups, 2 * threads * per_thread);
    }
}
