//! # prov-store — storage and access infrastructure for provenance
//!
//! §2.2 of the tutorial observes that "a wide variety of data models and
//! storage systems have been used, ranging from specialized Semantic Web
//! languages … and XML dialects that are stored as files … to tuples stored
//! in relational database tables", and that query solutions "are closely
//! tied to the storage models used". This crate implements that spectrum so
//! the trade-offs can be measured (experiments E4/E5):
//!
//! * [`graphstore`] — a native, adjacency-indexed provenance graph store
//!   (the "designed for provenance" point in the design space);
//! * [`triplestore`] — an RDF-style triple store with SPO/POS/OSP indexes
//!   and a basic-graph-pattern matcher (the SPARQL-ish baseline);
//! * [`relstore`] — a miniature relational engine (typed columns, hash
//!   joins, aggregation) over a fixed provenance schema (the SQL-ish
//!   baseline);
//! * [`logstore`] — an append-only, CRC-framed binary log with snapshots
//!   and compaction (the durability substrate);
//! * [`wal`] — the per-namespace write-ahead log under the provenance
//!   server: hash-chained CRC frames, configurable fsync policy,
//!   snapshot checkpoints that keep every record, and torn-tail recovery;
//! * [`iofault`] — deterministic I/O fault injection (torn writes, failed
//!   fsyncs, ENOSPC, short reads at seeded byte offsets) so the WAL's
//!   failure paths are exercised reproducibly;
//! * [`api`] — the [`api::ProvenanceStore`] trait: the canned queries every
//!   backend must answer, so benchmarks compare like for like;
//! * [`stats`] — the [`stats::StoreStats`] access recorder every backend
//!   carries, so the *same* query can be measured (reads, scans vs. keyed
//!   lookups, bytes) across all four storage strategies (experiment E16);
//! * [`shared`] — [`shared::SharedStore`], the `Arc<RwLock>`-style wrapper
//!   that turns any single-writer backend into thread-safe shared state
//!   for the concurrent service layer (generation-tagged ingest, reader
//!   guards, exact stats under contention);
//! * [`sharded`] — [`sharded::ShardedStore`], execution-hash partitioning
//!   over N inner stores with scatter-gather queries and an iterative
//!   closure-frontier exchange for cross-shard lineage (the §3
//!   scalability answer; shards share one stats recorder so ANALYZE
//!   totals sum exactly).

pub mod api;
pub mod graphstore;
pub mod iofault;
pub mod logstore;
pub mod relstore;
pub mod sharded;
pub mod shared;
pub mod stats;
pub mod triplestore;
pub mod wal;

pub use api::{sort_artifacts, sort_runs, Frontier, ProvenanceStore};
pub use graphstore::GraphStore;
pub use iofault::{IoFault, IoFaultPlan};
pub use logstore::LogStore;
pub use relstore::{RelStore, RelValue, Relation, Schema};
pub use sharded::{shard_of, ShardedStore, DEFAULT_SHARD_SEED};
pub use shared::SharedStore;
pub use stats::{StatsSnapshot, StoreStats};
pub use triplestore::{Term, TripleStore};
pub use wal::{FsyncPolicy, NamespaceWal, Wal, WalRecovery, WalReplay};
