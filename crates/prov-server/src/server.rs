//! The concurrent multi-tenant provenance service.
//!
//! [`ProvServer`] owns the stores. Clients — in-process [`Session`]s or
//! the HTTP front end (`crate::http`) — send [`Request`]s; the server
//! applies admission control, per-tenant rate limits, and namespace
//! isolation, then serves ingest and PQL against shared state:
//!
//! * each [`Namespace`] owns one `RwLock`ed PQL engine (ingest = write
//!   lock, queries = read lock, generation bumps under the write lock) —
//!   a single [`PqlEngine`] by default, or a scatter-gather
//!   [`ShardedEngine`] when the server runs with
//!   [`ServerConfig::shards`]` > 1` — and one [`SharedStore<GraphStore>`]
//!   answering the canned store queries;
//! * a bounded admission window ([`crate::admission::Admission`]) sheds
//!   load with explicit 503-style rejections instead of queueing;
//! * a token-bucket [`crate::admission::RateLimiter`] isolates tenants;
//! * every query lands one request-scoped span in the namespace's
//!   [`QueryObserver`], all feeding one server-wide [`MetricsRegistry`].
//!
//! Store counters are relaxed atomics (see `prov_store::stats`), so the
//! *totals* stay exact under any interleaving of concurrent readers;
//! per-operator ANALYZE attribution is exact whenever a query runs without
//! overlapping readers on the same namespace.

use crate::admission::{Admission, RateLimiter};
use crate::durability::{self, DurabilityConfig, RecoveryReport, READ_ONLY_AFTER};
use crate::error::ServerError;
use crate::trace::{StoredTrace, TraceStore, DEFAULT_TRACE_CAPACITY};
use prov_core::model::RetrospectiveProvenance;
use prov_query::{
    analyze_optimized, parse, Analysis, PqlEngine, PqlError, Query, QueryCache, QueryObserver,
    QueryResult, ShardedEngine,
};
use prov_store::wal::NamespaceWal;
use prov_store::{GraphStore, ProvenanceStore, SharedStore};
use prov_telemetry::{
    Counter, Gauge, Histogram, MetricsRegistry, Span, SpanId, SpanKind, Trace, TraceContext,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use wf_engine::event::now_micros;
use wf_engine::ExecId;

/// Tuning knobs for a [`ProvServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum requests served concurrently before 503-style rejection.
    pub max_inflight: usize,
    /// Token-bucket burst per `(tenant, namespace)`.
    pub tenant_burst: u32,
    /// Steady-state requests/second per `(tenant, namespace)`;
    /// `0.0` disables rate limiting (the single-user default).
    pub tenant_rate_per_sec: f64,
    /// Bounded LRU query-result cache entries per namespace.
    pub cache_capacity: usize,
    /// Slow-query log admission threshold in microseconds.
    pub slowlog_threshold_micros: u64,
    /// Slow-query log ring-buffer entries retained per namespace.
    pub slowlog_capacity: usize,
    /// Distinct distributed traces retained for `/v1/trace/{id}` (oldest
    /// evicted first).
    pub trace_capacity: usize,
    /// Publish per-`(tenant, namespace)` labeled request/cache/shed
    /// metrics. Off turns the whole tenant-label plane into no-ops (the
    /// global `prov_server_requests_total` family still updates).
    pub per_tenant_metrics: bool,
    /// Deterministically shed the first N admitted requests with an
    /// `Overloaded` rejection — a fault hook (like
    /// `DurabilityConfig::fault_plan`) that lets tests and CI force a
    /// client retry without racing real overload.
    pub shed_first: u64,
    /// Create namespaces on first ingest (`true`) or require explicit
    /// [`RequestBody::CreateNamespace`] (`false`).
    pub auto_create_namespaces: bool,
    /// Persist namespaces through per-namespace write-ahead logs. `None`
    /// (the default) keeps every namespace in volatile memory. When set,
    /// the server starts *not ready* and [`ProvServer::recover`] must run
    /// before requests are served.
    pub durability: Option<DurabilityConfig>,
    /// Partitions per namespace engine. `1` (the default) keeps the
    /// single [`PqlEngine`]; `N > 1` backs every namespace with a
    /// [`ShardedEngine`] — executions are routed to shards by seeded
    /// hash, queries evaluate by parallel scatter-gather, and (under
    /// durability) each shard owns its own WAL directory. A durable
    /// namespace pins its shard layout on first open; on restart the
    /// on-disk layout wins over this knob.
    pub shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_inflight: 64,
            tenant_burst: 64,
            tenant_rate_per_sec: 0.0,
            cache_capacity: 128,
            slowlog_threshold_micros: 1_000,
            slowlog_capacity: 128,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            per_tenant_metrics: true,
            shed_first: 0,
            auto_create_namespaces: true,
            durability: None,
            shards: 1,
        }
    }
}

/// Bounded request-id → ack memory for idempotent ingest: a retried
/// request replays its original acknowledgement instead of double-applying.
#[derive(Debug, Default)]
struct AckCache {
    map: HashMap<String, IngestAck>,
    order: VecDeque<String>,
}

impl AckCache {
    /// Remembered acks before the oldest is evicted.
    const CAPACITY: usize = 4096;

    fn get(&self, request_id: &str) -> Option<IngestAck> {
        self.map.get(request_id).cloned()
    }

    fn put(&mut self, request_id: &str, ack: IngestAck) {
        if self.map.insert(request_id.to_string(), ack).is_none() {
            self.order.push_back(request_id.to_string());
            if self.order.len() > Self::CAPACITY {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }
}

/// Latency-histogram bucket bounds in microseconds (1us .. 1s), matching
/// the query observer's `pql_query_latency_micros`.
const LATENCY_BOUNDS: &[u64] = &[1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// Trace metadata accompanying one request: the caller's propagated
/// context (which becomes the request span's parent) plus which client
/// attempt this is, so retries of one logical request read as linked
/// siblings under one trace id.
#[derive(Debug, Clone, Copy)]
pub struct TraceMeta {
    /// The propagated W3C-style context.
    pub context: TraceContext,
    /// 1-based client attempt number (from `tracestate`, default 1).
    pub attempt: u32,
}

impl TraceMeta {
    /// Wrap a context as attempt 1.
    pub fn new(context: TraceContext) -> TraceMeta {
        TraceMeta {
            context,
            attempt: 1,
        }
    }
}

/// Cached per-`(tenant, namespace)` instrument handles.
///
/// `MetricsRegistry::counter_with` resolves a labeled instrument with a
/// registry-wide lock and a linear scan — fine once, hostile on a hot
/// path. Resolving each handle once per pair and recording through the
/// returned `Arc`s keeps the per-request cost at a few lock-free atomics,
/// which is what holds the observability plane inside its ≤5% overhead
/// budget.
#[derive(Debug)]
struct TenantMetrics {
    requests_ok: Arc<Counter>,
    requests_err: Arc<Counter>,
    /// Request latency histograms indexed by [`op_index`].
    latency: [Arc<Histogram>; 4],
    rows_read: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    shed_overloaded: Arc<Counter>,
    shed_rate_limited: Arc<Counter>,
    bucket_tokens: Arc<Gauge>,
}

/// Index into [`TenantMetrics::latency`] for an operation label.
fn op_index(op: &str) -> usize {
    match op {
        "create" => 0,
        "ingest" => 1,
        "query" => 2,
        _ => 3,
    }
}

impl TenantMetrics {
    fn new(registry: &MetricsRegistry, tenant: &str, namespace: &str) -> TenantMetrics {
        let base = [("tenant", tenant), ("namespace", namespace)];
        fn with<'a>(
            base: &[(&'a str, &'a str); 2],
            extra: (&'a str, &'a str),
        ) -> [(&'a str, &'a str); 3] {
            [base[0], base[1], extra]
        }
        let latency = ["create", "ingest", "query", "stats"].map(|op| {
            registry.histogram_with(
                "prov_tenant_request_latency_micros",
                "request latency by tenant, namespace, and operation",
                LATENCY_BOUNDS,
                &with(&base, ("op", op)),
            )
        });
        TenantMetrics {
            requests_ok: registry.counter_with(
                "prov_tenant_requests_total",
                "requests by tenant, namespace, and outcome",
                &with(&base, ("outcome", "ok")),
            ),
            requests_err: registry.counter_with(
                "prov_tenant_requests_total",
                "requests by tenant, namespace, and outcome",
                &with(&base, ("outcome", "error")),
            ),
            latency,
            rows_read: registry.counter_with(
                "prov_tenant_rows_read_total",
                "store elements read answering queries",
                &base,
            ),
            cache_hits: registry.counter_with(
                "prov_tenant_cache_hits_total",
                "result-cache hits",
                &base,
            ),
            cache_misses: registry.counter_with(
                "prov_tenant_cache_misses_total",
                "result-cache misses",
                &base,
            ),
            shed_overloaded: registry.counter_with(
                "prov_tenant_sheds_total",
                "requests shed, by kind",
                &with(&base, ("kind", "overloaded")),
            ),
            shed_rate_limited: registry.counter_with(
                "prov_tenant_sheds_total",
                "requests shed, by kind",
                &with(&base, ("kind", "rate_limited")),
            ),
            bucket_tokens: registry.gauge_with(
                "prov_tenant_bucket_tokens",
                "token-bucket level after the last metered request",
                &base,
            ),
        }
    }
}

/// Cached per-namespace WAL instrument handles (durable namespaces only).
#[derive(Debug)]
struct WalMetrics {
    appends: Arc<Counter>,
    failures: Arc<Counter>,
    append_micros: Arc<Histogram>,
    fsync_micros: Arc<Histogram>,
    checkpoint_micros: Arc<Histogram>,
    degraded: Arc<Gauge>,
    /// WAL sync/checkpoint counters observed so far, for delta detection
    /// (the WAL itself only exposes cumulative counts).
    seen_syncs: AtomicU64,
    seen_checkpoints: AtomicU64,
}

impl WalMetrics {
    fn new(registry: &MetricsRegistry, namespace: &str) -> WalMetrics {
        let labels = [("namespace", namespace)];
        WalMetrics {
            appends: registry.counter_with("prov_wal_appends_total", "WAL appends", &labels),
            failures: registry.counter_with(
                "prov_wal_append_failures_total",
                "failed WAL appends",
                &labels,
            ),
            append_micros: registry.histogram_with(
                "prov_wal_append_micros",
                "WAL append latency (including policy-driven fsync)",
                LATENCY_BOUNDS,
                &labels,
            ),
            fsync_micros: registry.histogram_with(
                "prov_wal_fsync_micros",
                "WAL fsync latency",
                LATENCY_BOUNDS,
                &labels,
            ),
            checkpoint_micros: registry.histogram_with(
                "prov_wal_checkpoint_micros",
                "WAL checkpoint duration",
                LATENCY_BOUNDS,
                &labels,
            ),
            degraded: registry.gauge_with(
                "prov_wal_degraded",
                "1 when the namespace is read-only after WAL failures",
                &labels,
            ),
            seen_syncs: AtomicU64::new(0),
            seen_checkpoints: AtomicU64::new(0),
        }
    }

    /// Observe any fsyncs/checkpoints the namespace's WALs (one per
    /// shard) completed since last asked.
    fn absorb(&self, wals: &[NamespaceWal]) {
        let syncs: u64 = wals.iter().map(NamespaceWal::syncs).sum();
        let prev = self.seen_syncs.swap(syncs, Ordering::Relaxed);
        if syncs > prev {
            if let Some(micros) = wals.iter().map(NamespaceWal::last_sync_micros).max() {
                self.fsync_micros.observe(micros);
            }
        }
        let checkpoints: u64 = wals.iter().map(NamespaceWal::checkpoints).sum();
        let prev = self.seen_checkpoints.swap(checkpoints, Ordering::Relaxed);
        if checkpoints > prev {
            if let Some(micros) = wals.iter().map(NamespaceWal::last_checkpoint_micros).max() {
                self.checkpoint_micros.observe(micros);
            }
        }
    }
}

/// The PQL engine behind one namespace: a single [`PqlEngine`], or — when
/// the server runs with [`ServerConfig::shards`]` > 1` — a
/// [`ShardedEngine`] that partitions the corpus by seeded execution hash
/// and answers queries by parallel scatter-gather (`prov_query::sharded`).
/// Both variants are result-identical; the sharded engine's generation
/// counter sums the per-shard counters, so an ingest into *any* shard
/// invalidates cached results.
#[derive(Debug)]
enum NsEngine {
    /// The default single-partition engine.
    Single(PqlEngine),
    /// A seeded-hash sharded engine evaluating by scatter-gather.
    Sharded(ShardedEngine),
}

impl NsEngine {
    fn new(shards: usize) -> NsEngine {
        if shards <= 1 {
            NsEngine::Single(PqlEngine::new())
        } else {
            NsEngine::Sharded(ShardedEngine::new(shards))
        }
    }

    /// Partitions behind this engine (1 for the single engine).
    fn shard_count(&self) -> usize {
        match self {
            NsEngine::Single(_) => 1,
            NsEngine::Sharded(s) => s.shard_count(),
        }
    }

    /// Which shard's WAL an execution's entries belong to.
    fn route(&self, exec: ExecId) -> usize {
        match self {
            NsEngine::Single(_) => 0,
            NsEngine::Sharded(s) => s.route(exec),
        }
    }

    /// Result-cache backend key. Distinct per shard layout, so a sharded
    /// result can never serve a single-engine cache entry or vice versa.
    fn backend_key(&self) -> &str {
        match self {
            NsEngine::Single(_) => "engine",
            NsEngine::Sharded(s) => s.backend_key(),
        }
    }

    fn ingest(&mut self, retro: &RetrospectiveProvenance) {
        match self {
            NsEngine::Single(e) => e.ingest(retro),
            NsEngine::Sharded(s) => s.ingest(retro),
        }
    }

    fn generation(&self) -> u64 {
        match self {
            NsEngine::Single(e) => e.generation(),
            NsEngine::Sharded(s) => s.generation(),
        }
    }

    fn restore_generation(&mut self, watermark: u64) {
        match self {
            NsEngine::Single(e) => e.restore_generation(watermark),
            NsEngine::Sharded(s) => s.restore_generation(watermark),
        }
    }

    fn run_count(&self) -> usize {
        match self {
            NsEngine::Single(e) => e.run_count(),
            NsEngine::Sharded(s) => s.run_count(),
        }
    }

    fn artifact_count(&self) -> usize {
        match self {
            NsEngine::Single(e) => e.artifact_count(),
            NsEngine::Sharded(s) => s.artifact_count(),
        }
    }

    fn exec_count(&self) -> usize {
        match self {
            NsEngine::Single(e) => e.exec_count(),
            NsEngine::Sharded(s) => s.exec_count(),
        }
    }

    /// Cost-based optimized EXPLAIN ANALYZE — the query path both
    /// variants serve with identical results.
    fn analyze_optimized(&self, query: &Query) -> Result<Analysis, PqlError> {
        match self {
            NsEngine::Single(e) => analyze_optimized(e, query),
            NsEngine::Sharded(s) => s.analyze_optimized(query),
        }
    }
}

/// One tenant-visible, isolated provenance domain.
///
/// All state a request can touch lives here; requests for namespace A can
/// never observe (or block behind the write lock of) namespace B.
#[derive(Debug)]
pub struct Namespace {
    name: String,
    engine: RwLock<NsEngine>,
    graph: SharedStore<GraphStore>,
    cache: Mutex<QueryCache>,
    observer: Mutex<QueryObserver>,
    ingests: AtomicU64,
    queries: AtomicU64,
    /// The write-ahead logs, one per shard (durable servers only; a
    /// single-engine namespace has exactly one). Locked *inside* the
    /// engine write lock during ingest, so WAL order equals apply order
    /// and the stamped sequence numbers are gap-free across shards.
    wal: Option<Mutex<Vec<NamespaceWal>>>,
    /// Request-id → ack dedupe memory (rebuilt from the WAL on recovery).
    acks: Mutex<AckCache>,
    /// Consecutive WAL append failures; at [`READ_ONLY_AFTER`] the
    /// namespace degrades to read-only.
    wal_failures: AtomicU64,
    read_only: AtomicBool,
    /// Cached WAL instrument handles (durable namespaces only).
    wal_metrics: Option<WalMetrics>,
}

impl Namespace {
    /// Create a namespace; when `config.durability` is set this opens (or
    /// creates) its WAL directory, replays any existing records into the
    /// fresh stores, restores the generation counter, and reports what it
    /// found.
    fn new(
        name: &str,
        config: &ServerConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Result<(Self, Option<RecoveryReport>), ServerError> {
        let configured = config.shards.max(1);
        // A durable namespace pins its shard layout on first open: the
        // on-disk marker wins over the config, so a restart with a
        // different `shards=` still replays the layout that was written.
        let (wal_dir, shards) = match &config.durability {
            Some(dconf) => {
                let dir = dconf.data_dir.join(name);
                let persisted = read_shard_marker(&dir);
                (Some(dir), persisted.unwrap_or(configured))
            }
            None => (None, configured),
        };
        let mut ns = Namespace {
            name: name.to_string(),
            engine: RwLock::new(NsEngine::new(shards)),
            graph: SharedStore::new(GraphStore::new()),
            cache: Mutex::new(QueryCache::new(config.cache_capacity)),
            observer: Mutex::new(
                QueryObserver::with_registry(Arc::clone(&registry))
                    .with_slowlog(config.slowlog_threshold_micros, config.slowlog_capacity),
            ),
            ingests: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            wal: None,
            acks: Mutex::new(AckCache::default()),
            wal_failures: AtomicU64::new(0),
            read_only: AtomicBool::new(false),
            wal_metrics: None,
        };
        let Some(dconf) = &config.durability else {
            return Ok((ns, None));
        };
        let dir = wal_dir.expect("durable namespace computed its wal dir");
        if shards > 1 {
            std::fs::create_dir_all(&dir)
                .map_err(|e| ServerError::Durability(format!("create '{name}' dir: {e}")))?;
            std::fs::write(dir.join("SHARDS"), format!("{shards}\n")).map_err(|e| {
                ServerError::Durability(format!("write '{name}' shard marker: {e}"))
            })?;
        }
        // One WAL per shard: shard 0 of a single-engine namespace keeps
        // the legacy flat layout, sharded namespaces use `shard-<i>/`.
        let mut wals = Vec::with_capacity(shards);
        let mut recoveries = Vec::with_capacity(shards);
        for s in 0..shards {
            let sdir = if shards == 1 {
                dir.clone()
            } else {
                dir.join(format!("shard-{s}"))
            };
            let (mut wal, recovery) =
                NamespaceWal::open_with_plan(&sdir, dconf.fsync, dconf.fault_plan.clone())
                    .map_err(|e| {
                        ServerError::Durability(if shards == 1 {
                            format!("open wal for '{name}': {e}")
                        } else {
                            format!("open wal for '{name}' shard {s}: {e}")
                        })
                    })?;
            wal.checkpoint_every = dconf.checkpoint_every;
            wals.push(wal);
            recoveries.push(recovery);
        }

        // Decode every surviving record, then merge the per-shard streams
        // back into global ingest order by the stamped sequence number —
        // the coordinator side of a sharded engine mirrors artifacts in
        // ingest order, so replay order must equal the original order.
        // Codec failures are reported and skipped — corruption in one
        // record must not lose the rest.
        let mut codec_errors = Vec::new();
        let mut entries = Vec::new();
        for (s, recovery) in recoveries.iter().enumerate() {
            for (i, (_, payload)) in recovery.entries.iter().enumerate() {
                match durability::decode_entry(payload) {
                    Ok((retro, request_id, seq)) => {
                        entries.push((seq.unwrap_or(0), s, i, retro, request_id));
                    }
                    Err(e) => codec_errors.push(if shards == 1 {
                        format!("record {i}: {e}")
                    } else {
                        format!("shard {s} record {i}: {e}")
                    }),
                }
            }
        }
        entries.sort_by_key(|&(seq, s, i, ..)| (seq, s, i));
        // The consistent watermark: each shard's WAL restores its own
        // durable generation; the namespace generation is their sum.
        let watermark: u64 = recoveries.iter().map(|r| r.generation).sum();
        let total = entries.len() as u64;
        {
            let engine = ns.engine.get_mut().unwrap_or_else(|e| e.into_inner());
            let acks = ns.acks.get_mut().unwrap_or_else(|e| e.into_inner());
            for (i, (_, _, _, retro, request_id)) in entries.iter().enumerate() {
                engine.ingest(retro);
                ns.graph.ingest_shared(retro);
                if let Some(id) = request_id {
                    // The logical generation of replayed entry i counts
                    // back from the restored watermark.
                    let generation = watermark - (total - 1 - i as u64).min(watermark);
                    acks.put(
                        id,
                        IngestAck {
                            namespace: name.to_string(),
                            generation,
                            runs_ingested: retro.run_count(),
                            total_runs: engine.run_count(),
                        },
                    );
                }
            }
            engine.restore_generation(watermark);
        }
        let report = RecoveryReport {
            namespace: name.to_string(),
            snapshot_records: recoveries.iter().map(|r| r.snapshot_records).sum(),
            wal_records: recoveries.iter().map(|r| r.wal_records).sum(),
            generation: watermark,
            truncated: recoveries.iter().any(|r| r.truncated),
            tail_errors: recoveries
                .iter()
                .flat_map(|r| r.tail_errors.iter().cloned())
                .collect(),
            codec_errors,
        };
        // Recovery series: what replay found, labeled by namespace, so a
        // scrape right after startup shows how the process came back.
        let labels = [("namespace", name)];
        registry
            .counter_with(
                "prov_recovery_frames_total",
                "WAL frames replayed at recovery",
                &labels,
            )
            .add(report.snapshot_records + report.wal_records);
        if report.truncated {
            registry
                .counter_with(
                    "prov_recovery_torn_tails_total",
                    "torn WAL tails truncated at recovery",
                    &labels,
                )
                .inc();
        }
        registry
            .counter_with(
                "prov_recovery_codec_errors_total",
                "undecodable WAL records skipped at recovery",
                &labels,
            )
            .add(report.codec_errors.len() as u64);
        ns.wal_metrics = Some(WalMetrics::new(&registry, name));
        ns.wal = Some(Mutex::new(wals));
        Ok((ns, Some(report)))
    }

    /// Partitions behind this namespace's engine (1 unless the server
    /// runs sharded).
    pub fn shard_count(&self) -> usize {
        self.read_engine().shard_count()
    }

    /// The namespace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared canned-query store for this namespace.
    pub fn store(&self) -> &SharedStore<GraphStore> {
        &self.graph
    }

    /// Is this namespace backed by a write-ahead log?
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Has this namespace degraded to read-only after WAL failures?
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }

    /// Ingest requests served since the namespace opened.
    pub fn ingest_count(&self) -> u64 {
        self.ingests.load(Ordering::Relaxed)
    }

    /// Query requests served since the namespace opened.
    pub fn query_count(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Records in the live WAL tails, summed across shards (`None` for
    /// volatile namespaces).
    pub fn wal_records(&self) -> Option<u64> {
        self.wal.as_ref().map(|w| {
            w.lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(NamespaceWal::wal_records)
                .sum()
        })
    }

    /// Force every shard WAL of the namespace to disk regardless of
    /// fsync policy.
    pub fn sync_wal(&self) -> Result<(), ServerError> {
        if let Some(wal) = &self.wal {
            for shard in wal.lock().unwrap_or_else(|e| e.into_inner()).iter_mut() {
                shard
                    .sync()
                    .map_err(|e| ServerError::Durability(format!("sync wal: {e}")))?;
            }
        }
        Ok(())
    }

    fn read_engine(&self) -> std::sync::RwLockReadGuard<'_, NsEngine> {
        self.engine.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_engine(&self) -> std::sync::RwLockWriteGuard<'_, NsEngine> {
        self.engine.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// The persisted shard count of a durable namespace directory (`None`
/// when the namespace has never been opened sharded).
fn read_shard_marker(dir: &std::path::Path) -> Option<usize> {
    std::fs::read_to_string(dir.join("SHARDS"))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&n| n > 1)
}

/// What a request asks for.
#[derive(Debug, Clone)]
pub enum RequestBody {
    /// Create the namespace (idempotent).
    CreateNamespace,
    /// Ingest one execution's retrospective provenance. A `request_id`
    /// makes the ingest idempotent: the same id replays the original ack
    /// instead of applying twice, so clients may safely retry after
    /// ambiguous failures.
    Ingest {
        /// The provenance document.
        retro: Box<RetrospectiveProvenance>,
        /// Client-chosen idempotency key.
        request_id: Option<String>,
    },
    /// Evaluate a PQL query.
    Query {
        /// The query text.
        pql: String,
    },
    /// Per-namespace statistics.
    Stats,
}

impl RequestBody {
    /// Stable label for metrics.
    pub fn op(&self) -> &'static str {
        match self {
            RequestBody::CreateNamespace => "create",
            RequestBody::Ingest { .. } => "ingest",
            RequestBody::Query { .. } => "query",
            RequestBody::Stats => "stats",
        }
    }
}

/// One client request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Who is asking (rate-limit key).
    pub tenant: String,
    /// Which isolated domain the request addresses.
    pub namespace: String,
    /// The operation.
    pub body: RequestBody,
}

/// Acknowledgement of one ingested execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestAck {
    /// The namespace written to.
    pub namespace: String,
    /// Engine generation after the ingest (monotone per namespace).
    pub generation: u64,
    /// Module runs in the ingested execution.
    pub runs_ingested: usize,
    /// Total runs resident in the namespace afterwards.
    pub total_runs: usize,
}

/// A served query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// The result rows/count/paths.
    pub result: QueryResult,
    /// The engine generation the result was computed against.
    pub generation: u64,
    /// Server-side evaluation time (0 for cache hits).
    pub micros: u64,
    /// Served from the namespace's result cache?
    pub cached: bool,
}

/// Point-in-time numbers for one namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamespaceStats {
    /// Namespace name.
    pub namespace: String,
    /// Module runs in the engine.
    pub runs: usize,
    /// Artifacts in the engine.
    pub artifacts: usize,
    /// Executions in the engine.
    pub executions: usize,
    /// Ingest generation.
    pub generation: u64,
    /// Ingest requests served.
    pub ingests: u64,
    /// Query requests served.
    pub queries: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Runs resident in the shared graph store (must equal `runs`).
    pub store_runs: usize,
    /// Partitions behind the namespace engine (1 unless sharded).
    pub shards: usize,
}

/// Server-wide admission numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests currently in flight.
    pub inflight: usize,
    /// Requests admitted since start.
    pub admitted: u64,
    /// Requests shed by the admission window.
    pub rejected: u64,
    /// Requests shed by tenant rate limits.
    pub throttled: u64,
    /// Namespaces resident.
    pub namespaces: usize,
}

/// What a request returns.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Namespace exists now.
    Created(String),
    /// Ingest acknowledged.
    Ingested(IngestAck),
    /// Query answered.
    Query(QueryReply),
    /// Namespace statistics.
    Stats(NamespaceStats),
}

/// The long-running concurrent provenance service.
///
/// Construct once, wrap in an [`Arc`], and serve from as many threads as
/// you like: every entry point takes `&self`.
#[derive(Debug)]
pub struct ProvServer {
    config: ServerConfig,
    registry: Arc<MetricsRegistry>,
    admission: Admission,
    limiter: RateLimiter,
    namespaces: RwLock<BTreeMap<String, Arc<Namespace>>>,
    shutdown: AtomicBool,
    /// False while WAL replay is pending (durable servers start not
    /// ready; [`ProvServer::recover`] flips this).
    ready: AtomicBool,
    /// Completed spans of sampled requests, keyed by distributed trace id.
    traces: TraceStore,
    /// Server-wide span-id allocator for request/operator spans (starts at
    /// 1; `traceparent` forbids zero span ids).
    span_seq: AtomicU64,
    /// Remaining forced sheds (see [`ServerConfig::shed_first`]).
    shed_remaining: AtomicU64,
    /// Cached per-`(tenant, namespace)` instrument handles.
    tenant_metrics: RwLock<HashMap<(String, String), Arc<TenantMetrics>>>,
    /// Pre-resolved global instruments for the request hot path.
    admission_wait: Arc<Histogram>,
    inflight_gauge: Arc<Gauge>,
    degraded_gauge: Arc<Gauge>,
}

/// Validate a tenant or namespace name: 1–64 chars of `[A-Za-z0-9._-]`.
fn validate_name(kind: &str, name: &str) -> Result<(), ServerError> {
    if name.is_empty() || name.len() > 64 {
        return Err(ServerError::BadRequest(format!(
            "{kind} must be 1-64 characters, got {}",
            name.len()
        )));
    }
    if let Some(c) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(ServerError::BadRequest(format!(
            "{kind} contains invalid character {c:?} (allowed: [A-Za-z0-9._-])"
        )));
    }
    Ok(())
}

impl ProvServer {
    /// A server with the given configuration and a fresh metrics registry.
    pub fn new(config: ServerConfig) -> Self {
        let ready = config.durability.is_none();
        let registry = Arc::new(MetricsRegistry::new());
        let admission_wait = registry.histogram(
            "prov_server_admission_wait_micros",
            "time from request arrival to admission permit",
            LATENCY_BOUNDS,
        );
        let inflight_gauge = registry.gauge(
            "prov_server_inflight",
            "requests currently holding a permit",
        );
        let degraded_gauge = registry.gauge(
            "prov_server_degraded_namespaces",
            "namespaces degraded to read-only",
        );
        ProvServer {
            admission: Admission::new(config.max_inflight),
            limiter: RateLimiter::new(config.tenant_burst, config.tenant_rate_per_sec),
            traces: TraceStore::new(config.trace_capacity),
            span_seq: AtomicU64::new(1),
            shed_remaining: AtomicU64::new(config.shed_first),
            config,
            registry,
            namespaces: RwLock::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
            ready: AtomicBool::new(ready),
            tenant_metrics: RwLock::new(HashMap::new()),
            admission_wait,
            inflight_gauge,
            degraded_gauge,
        }
    }

    /// Replay every namespace directory under the configured data dir into
    /// fresh stores, then mark the server ready. Volatile servers (no
    /// durability config) are ready from construction and return no
    /// reports. Until this runs, a durable server answers every request
    /// with [`ServerError::NotReady`].
    pub fn recover(&self) -> Result<Vec<RecoveryReport>, ServerError> {
        let Some(dconf) = &self.config.durability else {
            self.ready.store(true, Ordering::SeqCst);
            return Ok(Vec::new());
        };
        std::fs::create_dir_all(&dconf.data_dir)
            .map_err(|e| ServerError::Durability(format!("create data dir: {e}")))?;
        let mut reports = Vec::new();
        let entries = std::fs::read_dir(&dconf.data_dir)
            .map_err(|e| ServerError::Durability(format!("scan data dir: {e}")))?;
        for entry in entries.flatten() {
            if !entry.path().is_dir() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            if validate_name("namespace", &name).is_err() {
                continue;
            }
            let (ns, report) = Namespace::new(&name, &self.config, Arc::clone(&self.registry))?;
            self.namespaces
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .insert(name, Arc::new(ns));
            reports.extend(report);
        }
        reports.sort_by(|a, b| a.namespace.cmp(&b.namespace));
        self.ready.store(true, Ordering::SeqCst);
        Ok(reports)
    }

    /// Has the server finished WAL replay (always true for volatile
    /// servers)?
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::SeqCst)
    }

    /// Namespaces currently degraded to read-only, sorted.
    pub fn degraded_namespaces(&self) -> Vec<String> {
        self.namespaces
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .filter(|ns| ns.is_read_only())
            .map(|ns| ns.name().to_string())
            .collect()
    }

    /// The server-wide metrics registry (Prometheus-renderable).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Flag the server as draining: every subsequent request is rejected
    /// with [`ServerError::ShuttingDown`].
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Is the server draining?
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Serve one request end to end: admission window, tenant rate limit,
    /// namespace resolution, dispatch. This is the single entry point both
    /// the in-process [`Session`] API and the HTTP front end go through;
    /// it is [`ProvServer::handle_traced`] without trace propagation.
    pub fn handle(&self, req: &Request) -> Result<ResponseBody, ServerError> {
        self.handle_traced(req, None)
    }

    /// [`ProvServer::handle`] carrying the caller's distributed trace
    /// context. A sampled context makes the whole server-side execution —
    /// the request span, the query/cache span beneath it, per-operator and
    /// WAL child spans — retrievable from the [`TraceStore`] under the
    /// caller's trace id, with the caller's span as parent.
    pub fn handle_traced(
        &self,
        req: &Request,
        meta: Option<TraceMeta>,
    ) -> Result<ResponseBody, ServerError> {
        let began = now_micros();
        if self.is_shutting_down() {
            return Err(ServerError::ShuttingDown);
        }
        if !self.is_ready() {
            return Err(ServerError::NotReady);
        }
        validate_name("tenant", &req.tenant)?;
        validate_name("namespace", &req.namespace)?;

        let recording = meta.is_some_and(|m| m.context.sampled);
        let request_span = recording.then(|| SpanId(self.next_span_id()));
        let tm = self
            .config
            .per_tenant_metrics
            .then(|| self.tenant_metrics(&req.tenant, &req.namespace));
        let traced = match (meta, request_span) {
            (Some(m), Some(id)) => Some((m.context.trace_id, id)),
            _ => None,
        };

        let result = self.dispatch(req, began, traced, tm.as_deref());
        let outcome = match &result {
            Ok(_) => "ok",
            Err(e) => e.kind(),
        };
        self.registry
            .counter_with(
                "prov_server_requests_total",
                "requests by operation and outcome",
                &[("op", req.body.op()), ("outcome", outcome)],
            )
            .inc();
        let ended = now_micros().max(began);
        if let Some(tm) = &tm {
            if outcome == "ok" {
                tm.requests_ok.inc();
            } else {
                tm.requests_err.inc();
            }
            tm.latency[op_index(req.body.op())].observe(ended - began);
            match outcome {
                "overloaded" => tm.shed_overloaded.inc(),
                "rate_limited" => tm.shed_rate_limited.inc(),
                _ => {}
            }
            if let Some(level) = self.limiter.level(&req.tenant, &req.namespace) {
                tm.bucket_tokens.set(level as i64);
            }
        }
        if let (Some(m), Some(id)) = (meta, request_span) {
            self.traces.record(
                m.context.trace_id,
                Span {
                    id,
                    parent: Some(SpanId(m.context.span_id)),
                    kind: SpanKind::Request,
                    name: format!("{} {}", req.body.op(), req.namespace),
                    exec: ExecId(0),
                    node: None,
                    start_micros: began,
                    end_micros: ended,
                    attrs: vec![
                        ("op".into(), req.body.op().into()),
                        ("tenant".into(), req.tenant.clone()),
                        ("namespace".into(), req.namespace.clone()),
                        ("outcome".into(), outcome.into()),
                        ("attempt".into(), m.attempt.to_string()),
                    ],
                },
            );
        }
        result
    }

    /// Admission, rate limiting, and operation dispatch — the part of the
    /// request between the span/metric bookkeeping that wraps it.
    fn dispatch(
        &self,
        req: &Request,
        began: u64,
        traced: Option<(u128, SpanId)>,
        tm: Option<&TenantMetrics>,
    ) -> Result<ResponseBody, ServerError> {
        if self.take_forced_shed() {
            return Err(ServerError::Overloaded {
                inflight: self.admission.inflight(),
                limit: self.admission.limit(),
            });
        }
        let Some(_permit) = self.admission.try_acquire() else {
            return Err(ServerError::Overloaded {
                inflight: self.admission.inflight(),
                limit: self.admission.limit(),
            });
        };
        self.admission_wait
            .observe(now_micros().saturating_sub(began));
        self.inflight_gauge.set(self.admission.inflight() as i64);
        if !self.limiter.try_take(&req.tenant, &req.namespace) {
            return Err(ServerError::RateLimited {
                tenant: req.tenant.clone(),
                namespace: req.namespace.clone(),
            });
        }
        match &req.body {
            RequestBody::CreateNamespace => self
                .get_or_create_namespace(&req.namespace)
                .map(|ns| ResponseBody::Created(ns.name().to_string())),
            RequestBody::Ingest { retro, request_id } => {
                self.ingest(&req.namespace, retro, request_id.as_deref(), traced)
            }
            RequestBody::Query { pql } => self.query(&req.namespace, pql, traced, tm),
            RequestBody::Stats => self.stats(&req.namespace).map(ResponseBody::Stats),
        }
    }

    /// Consume one forced shed if any remain (see
    /// [`ServerConfig::shed_first`]).
    fn take_forced_shed(&self) -> bool {
        if self.shed_remaining.load(Ordering::Relaxed) == 0 {
            return false;
        }
        self.shed_remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }

    fn next_span_id(&self) -> u64 {
        self.span_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The cached instrument handles for `(tenant, namespace)`, created
    /// on first sight.
    fn tenant_metrics(&self, tenant: &str, namespace: &str) -> Arc<TenantMetrics> {
        {
            let map = self
                .tenant_metrics
                .read()
                .unwrap_or_else(|e| e.into_inner());
            if let Some(tm) = map.get(&(tenant.to_string(), namespace.to_string())) {
                return Arc::clone(tm);
            }
        }
        let mut map = self
            .tenant_metrics
            .write()
            .unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry((tenant.to_string(), namespace.to_string()))
                .or_insert_with(|| Arc::new(TenantMetrics::new(&self.registry, tenant, namespace))),
        )
    }

    /// The spans recorded under one distributed trace id, if any.
    pub fn stored_trace(&self, trace_id: u128) -> Option<StoredTrace> {
        self.traces.get(trace_id)
    }

    /// Distinct trace ids currently held by the bounded trace store.
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    /// Record externally-assembled spans (e.g. a stitched distributed
    /// capture) under `trace_id`, merging with any server-side spans the
    /// same trace already accumulated. Returns how many spans were
    /// offered.
    pub fn ingest_trace_spans(&self, trace_id: u128, spans: Vec<Span>) -> usize {
        let n = spans.len();
        self.traces.record_all(trace_id, spans);
        self.registry
            .counter(
                "prov_server_trace_spans_ingested_total",
                "spans accepted via POST /v1/trace",
            )
            .add(n as u64);
        n
    }

    /// Cumulative loss counters of the bounded trace store.
    pub fn trace_store_stats(&self) -> crate::trace::TraceStoreStats {
        self.traces.stats()
    }

    /// The Prometheus exposition body: the metrics registry plus the
    /// trace-store loss counters (which live outside the registry).
    pub fn render_metrics(&self) -> String {
        let mut out = self.registry.render_prometheus();
        let ts = self.traces.stats();
        out.push_str(&format!(
            "# HELP prov_server_trace_evictions_total traces evicted FIFO at capacity\n\
             # TYPE prov_server_trace_evictions_total counter\n\
             prov_server_trace_evictions_total {}\n\
             # HELP prov_server_trace_span_drops_total spans dropped at the per-trace cap\n\
             # TYPE prov_server_trace_span_drops_total counter\n\
             prov_server_trace_span_drops_total {}\n\
             # HELP prov_server_traces_retained traces currently held\n\
             # TYPE prov_server_traces_retained gauge\n\
             prov_server_traces_retained {}\n",
            ts.evicted_traces, ts.dropped_spans, ts.retained_traces
        ));
        out
    }

    /// Open an in-process session for `tenant`.
    pub fn session(self: &Arc<Self>, tenant: &str) -> Session {
        Session {
            server: Arc::clone(self),
            tenant: tenant.to_string(),
            tracer: None,
        }
    }

    /// The namespace handle, if it exists.
    pub fn namespace(&self, name: &str) -> Option<Arc<Namespace>> {
        self.namespaces
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// Namespace names, sorted.
    pub fn namespace_names(&self) -> Vec<String> {
        self.namespaces
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// Server-wide admission statistics.
    pub fn server_stats(&self) -> ServerStats {
        ServerStats {
            inflight: self.admission.inflight(),
            admitted: self.admission.admitted(),
            rejected: self.admission.rejected(),
            throttled: self.limiter.throttled(),
            namespaces: self
                .namespaces
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .len(),
        }
    }

    /// Drain the request-scoped query spans of one namespace as a
    /// [`Trace`] (exportable with the `prov-telemetry` exporters).
    pub fn take_trace(&self, namespace: &str) -> Option<Trace> {
        let ns = self.namespace(namespace)?;
        let trace = ns
            .observer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take_trace();
        Some(trace)
    }

    /// Render the namespace's slow-query log.
    pub fn render_slowlog(&self, namespace: &str) -> Option<String> {
        let ns = self.namespace(namespace)?;
        let text = ns
            .observer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .slowlog
            .render();
        Some(text)
    }

    /// The namespace's slow-query log as JSONL, capped to `max_bytes`
    /// (newest entries win; 0 disables the cap). `None` for an unknown
    /// namespace.
    pub fn slowlog_jsonl(&self, namespace: &str, max_bytes: usize) -> Option<String> {
        let ns = self.namespace(namespace)?;
        let text = ns
            .observer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .slowlog
            .to_jsonl_capped(max_bytes);
        Some(text)
    }

    fn get_or_create_namespace(&self, name: &str) -> Result<Arc<Namespace>, ServerError> {
        if let Some(ns) = self.namespace(name) {
            return Ok(ns);
        }
        let mut map = self.namespaces.write().unwrap_or_else(|e| e.into_inner());
        if let Some(ns) = map.get(name) {
            return Ok(Arc::clone(ns));
        }
        let (ns, _report) = Namespace::new(name, &self.config, Arc::clone(&self.registry))?;
        let ns = Arc::new(ns);
        map.insert(name.to_string(), Arc::clone(&ns));
        Ok(ns)
    }

    fn resolve(&self, name: &str) -> Result<Arc<Namespace>, ServerError> {
        self.namespace(name)
            .ok_or_else(|| ServerError::NoSuchNamespace(name.to_string()))
    }

    fn ingest(
        &self,
        namespace: &str,
        retro: &RetrospectiveProvenance,
        request_id: Option<&str>,
        traced: Option<(u128, SpanId)>,
    ) -> Result<ResponseBody, ServerError> {
        let ns = if self.config.auto_create_namespaces {
            self.get_or_create_namespace(namespace)?
        } else {
            self.resolve(namespace)?
        };
        if ns.is_read_only() {
            return Err(ServerError::ReadOnly(namespace.to_string()));
        }
        // Idempotent retry: a request id we have already acked replays the
        // original acknowledgement without touching the stores.
        if let Some(id) = request_id {
            let acks = ns.acks.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(ack) = acks.get(id) {
                return Ok(ResponseBody::Ingested(ack));
            }
        }
        // Engine and graph store are written in the same order everywhere,
        // and the generation reported is read under the engine write lock,
        // so acks carry the generation this ingest produced. The WAL
        // append happens *inside* the same lock, before the apply: WAL
        // order equals apply order, and no ack can outrun durability.
        let (generation, total_runs) = {
            let mut engine = ns.write_engine();
            if let Some(wal) = &ns.wal {
                // The stamped sequence is the post-ingest generation:
                // strictly monotone per namespace (assigned under the
                // engine write lock), so recovery can merge the per-shard
                // WAL streams back into global ingest order.
                let seq = engine.generation() + 1;
                let shard = engine.route(retro.exec);
                let payload = durability::encode_entry(retro, request_id, seq);
                let mut wals = wal.lock().unwrap_or_else(|e| e.into_inner());
                let wal_began = now_micros();
                if let Err(e) = wals[shard].append(retro.exec.0, &payload) {
                    if let Some(wm) = &ns.wal_metrics {
                        wm.failures.inc();
                    }
                    let failures = ns.wal_failures.fetch_add(1, Ordering::SeqCst) + 1;
                    if failures >= READ_ONLY_AFTER && !ns.read_only.swap(true, Ordering::SeqCst) {
                        self.degraded_gauge.inc();
                        if let Some(wm) = &ns.wal_metrics {
                            wm.degraded.set(1);
                        }
                    }
                    return Err(ServerError::Durability(format!(
                        "wal append for '{namespace}': {e}"
                    )));
                }
                let wal_ended = now_micros().max(wal_began);
                if let Some(wm) = &ns.wal_metrics {
                    wm.appends.inc();
                    wm.append_micros.observe(wal_ended - wal_began);
                    wm.absorb(&wals);
                }
                if let Some((trace_id, parent)) = traced {
                    self.traces.record(
                        trace_id,
                        Span {
                            id: SpanId(self.next_span_id()),
                            parent: Some(parent),
                            kind: SpanKind::Operator,
                            name: "wal.append".into(),
                            exec: ExecId(0),
                            node: None,
                            start_micros: wal_began,
                            end_micros: wal_ended,
                            attrs: vec![
                                ("payload_bytes".into(), payload.len().to_string()),
                                ("shard".into(), shard.to_string()),
                            ],
                        },
                    );
                }
                ns.wal_failures.store(0, Ordering::SeqCst);
            }
            engine.ingest(retro);
            (engine.generation(), engine.run_count())
        };
        ns.graph.ingest_shared(retro);
        ns.ingests.fetch_add(1, Ordering::Relaxed);
        let ack = IngestAck {
            namespace: namespace.to_string(),
            generation,
            runs_ingested: retro.run_count(),
            total_runs,
        };
        if let Some(id) = request_id {
            ns.acks
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .put(id, ack.clone());
        }
        Ok(ResponseBody::Ingested(ack))
    }

    /// Record a query span into the namespace observer — and, when the
    /// request is traced, into the trace store as a child of the request
    /// span.
    #[allow(clippy::too_many_arguments)]
    fn record_query_span(
        &self,
        ns: &Namespace,
        pql: &str,
        backend: &str,
        micros: u64,
        rows: usize,
        accesses: prov_store::StatsSnapshot,
        traced: Option<(u128, SpanId)>,
    ) -> Option<(u128, Span)> {
        let mut obs = ns.observer.lock().unwrap_or_else(|e| e.into_inner());
        match traced {
            Some((trace_id, parent)) => {
                let id = SpanId(self.next_span_id());
                let span = obs.record_traced(
                    pql,
                    backend,
                    micros,
                    rows,
                    accesses,
                    id,
                    Some(parent),
                    Some(trace_id),
                );
                drop(obs);
                self.traces.record(trace_id, span.clone());
                Some((trace_id, span))
            }
            None => {
                obs.record(pql, backend, micros, rows, accesses);
                None
            }
        }
    }

    fn query(
        &self,
        namespace: &str,
        pql: &str,
        traced: Option<(u128, SpanId)>,
        tm: Option<&TenantMetrics>,
    ) -> Result<ResponseBody, ServerError> {
        let ns = self.resolve(namespace)?;
        let query = parse(pql)?;
        let key = QueryCache::key_for(&query);
        // Hold the read lock across generation read + evaluation: the
        // result is guaranteed to be computed against the generation it
        // is tagged with (writers are excluded while we evaluate). A
        // sharded engine's generation sums the per-shard counters, so a
        // cached result goes stale when *any* shard advances.
        let engine = ns.read_engine();
        let generation = engine.generation();
        let backend = engine.backend_key().to_string();
        {
            let mut cache = ns.cache.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(result) = cache.get(&backend, &key, generation) {
                drop(cache);
                ns.queries.fetch_add(1, Ordering::Relaxed);
                if let Some(tm) = tm {
                    tm.cache_hits.inc();
                }
                self.record_query_span(
                    &ns,
                    pql,
                    "cache",
                    0,
                    result.len(),
                    Default::default(),
                    traced,
                );
                return Ok(ResponseBody::Query(QueryReply {
                    result,
                    generation,
                    micros: 0,
                    cached: true,
                }));
            }
        }
        let analysis = engine.analyze_optimized(&query)?;
        drop(engine);
        ns.cache.lock().unwrap_or_else(|e| e.into_inner()).put(
            &backend,
            &key,
            generation,
            analysis.result.clone(),
        );
        ns.queries.fetch_add(1, Ordering::Relaxed);
        let accesses = analysis.total_accesses();
        if let Some(tm) = tm {
            tm.cache_misses.inc();
            tm.rows_read.add(accesses.total_reads());
        }
        let recorded = self.record_query_span(
            &ns,
            pql,
            &backend,
            analysis.total_micros,
            analysis.result.len(),
            accesses,
            traced,
        );
        // Per-operator children: the plan's self-time attribution laid out
        // sequentially under the query span, so `/v1/trace/{id}` shows
        // where inside the engine the time went.
        if let Some((trace_id, qspan)) = recorded {
            let mut cursor = qspan.start_micros;
            for op in &analysis.ops {
                let end = cursor + op.self_micros;
                self.traces.record(
                    trace_id,
                    Span {
                        id: SpanId(self.next_span_id()),
                        parent: Some(qspan.id),
                        kind: SpanKind::Operator,
                        name: op.label.clone(),
                        exec: ExecId(0),
                        node: None,
                        start_micros: cursor,
                        end_micros: end,
                        attrs: vec![
                            ("depth".into(), op.depth.to_string()),
                            ("rows_out".into(), op.rows_out.to_string()),
                            (
                                "est_rows".into(),
                                op.est_rows.map_or_else(|| "?".into(), |v| v.to_string()),
                            ),
                        ],
                    },
                );
                cursor = end;
            }
        }
        Ok(ResponseBody::Query(QueryReply {
            result: analysis.result,
            generation,
            micros: analysis.total_micros,
            cached: false,
        }))
    }

    fn stats(&self, namespace: &str) -> Result<NamespaceStats, ServerError> {
        let ns = self.resolve(namespace)?;
        let engine = ns.read_engine();
        let (hits, misses) = {
            let cache = ns.cache.lock().unwrap_or_else(|e| e.into_inner());
            (cache.hits(), cache.misses())
        };
        Ok(NamespaceStats {
            namespace: namespace.to_string(),
            runs: engine.run_count(),
            artifacts: engine.artifact_count(),
            executions: engine.exec_count(),
            generation: engine.generation(),
            ingests: ns.ingests.load(Ordering::Relaxed),
            queries: ns.queries.load(Ordering::Relaxed),
            cache_hits: hits,
            cache_misses: misses,
            store_runs: ns.graph.run_count(),
            shards: engine.shard_count(),
        })
    }
}

/// An in-process client handle: the session API used when no network is
/// available (tests, benchmarks, embedded use). All calls go through
/// [`ProvServer::handle`], so admission control and rate limits apply
/// exactly as they do over HTTP.
#[derive(Debug, Clone)]
pub struct Session {
    server: Arc<ProvServer>,
    tenant: String,
    /// When set, every request carries a fresh deterministic root trace
    /// context (see [`Session::traced`]).
    tracer: Option<Arc<SessionTracer>>,
}

/// Deterministic per-session trace-context minting state.
#[derive(Debug)]
struct SessionTracer {
    seed: u64,
    sequence: AtomicU64,
}

impl Session {
    /// The tenant this session authenticates as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Make every request from this session a sampled root trace, with
    /// ids minted deterministically from `seed` (builder-style).
    pub fn traced(mut self, seed: u64) -> Session {
        self.tracer = Some(Arc::new(SessionTracer {
            seed,
            sequence: AtomicU64::new(0),
        }));
        self
    }

    fn meta(&self) -> Option<TraceMeta> {
        self.tracer.as_ref().map(|t| {
            TraceMeta::new(TraceContext::root(
                t.seed,
                t.sequence.fetch_add(1, Ordering::Relaxed),
            ))
        })
    }

    /// Create `namespace` (idempotent).
    pub fn create_namespace(&self, namespace: &str) -> Result<(), ServerError> {
        self.server
            .handle_traced(
                &Request {
                    tenant: self.tenant.clone(),
                    namespace: namespace.to_string(),
                    body: RequestBody::CreateNamespace,
                },
                self.meta(),
            )
            .map(|_| ())
    }

    /// Ingest one execution's provenance into `namespace`.
    pub fn ingest(
        &self,
        namespace: &str,
        retro: &RetrospectiveProvenance,
    ) -> Result<IngestAck, ServerError> {
        self.ingest_with_id(namespace, retro, None)
    }

    /// Ingest with an optional idempotency key: re-sending the same
    /// `request_id` replays the original ack instead of applying twice.
    pub fn ingest_with_id(
        &self,
        namespace: &str,
        retro: &RetrospectiveProvenance,
        request_id: Option<&str>,
    ) -> Result<IngestAck, ServerError> {
        match self.server.handle_traced(
            &Request {
                tenant: self.tenant.clone(),
                namespace: namespace.to_string(),
                body: RequestBody::Ingest {
                    retro: Box::new(retro.clone()),
                    request_id: request_id.map(str::to_string),
                },
            },
            self.meta(),
        )? {
            ResponseBody::Ingested(ack) => Ok(ack),
            other => Err(ServerError::BadRequest(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Evaluate a PQL query against `namespace`.
    pub fn query(&self, namespace: &str, pql: &str) -> Result<QueryReply, ServerError> {
        match self.server.handle_traced(
            &Request {
                tenant: self.tenant.clone(),
                namespace: namespace.to_string(),
                body: RequestBody::Query {
                    pql: pql.to_string(),
                },
            },
            self.meta(),
        )? {
            ResponseBody::Query(reply) => Ok(reply),
            other => Err(ServerError::BadRequest(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Per-namespace statistics.
    pub fn stats(&self, namespace: &str) -> Result<NamespaceStats, ServerError> {
        match self.server.handle_traced(
            &Request {
                tenant: self.tenant.clone(),
                namespace: namespace.to_string(),
                body: RequestBody::Stats,
            },
            self.meta(),
        )? {
            ResponseBody::Stats(stats) => Ok(stats),
            other => Err(ServerError::BadRequest(format!(
                "unexpected response {other:?}"
            ))),
        }
    }
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
        let mut doc = cap.take(r.exec).unwrap();
        // A fresh Executor hands out the same ExecId every time; make the
        // execution identity follow the seed so documents are distinct.
        doc.exec = wf_engine::ExecId(seed);
        doc
    }

    fn server() -> Arc<ProvServer> {
        Arc::new(ProvServer::new(ServerConfig::default()))
    }

    #[test]
    fn server_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProvServer>();
        assert_send_sync::<Session>();
    }

    #[test]
    fn ingest_then_query_round_trips() {
        let srv = server();
        let session = srv.session("alice");
        let ack = session.ingest("lab", &retro(1)).unwrap();
        assert_eq!(ack.generation, 1);
        assert_eq!(ack.runs_ingested, 8);
        assert_eq!(ack.total_runs, 8);
        let reply = session.query("lab", "count runs").unwrap();
        assert_eq!(reply.result, QueryResult::Count(8));
        assert_eq!(reply.generation, 1);
        assert!(!reply.cached);
        let again = session.query("lab", "count runs").unwrap();
        assert!(again.cached, "second identical query is a cache hit");
        assert_eq!(again.result, QueryResult::Count(8));
    }

    #[test]
    fn namespaces_are_isolated() {
        let srv = server();
        let session = srv.session("alice");
        session.ingest("physics", &retro(1)).unwrap();
        session.ingest("biology", &retro(2)).unwrap();
        session.ingest("biology", &retro(3)).unwrap();
        let physics = session.stats("physics").unwrap();
        let biology = session.stats("biology").unwrap();
        assert_eq!(physics.executions, 1);
        assert_eq!(biology.executions, 2);
        assert_eq!(physics.generation, 1);
        assert_eq!(biology.generation, 2);
        assert_eq!(physics.store_runs, physics.runs, "engine and store agree");
        assert!(session.query("nowhere", "count runs").is_err());
    }

    #[test]
    fn unknown_namespace_is_a_404_not_a_panic() {
        let srv = server();
        let session = srv.session("alice");
        let err = session.query("ghost", "count runs").unwrap_err();
        assert_eq!(err.status_code(), 404);
        let err = session.stats("ghost").unwrap_err();
        assert_eq!(err.status_code(), 404);
    }

    #[test]
    fn malformed_pql_is_a_422() {
        let srv = server();
        let session = srv.session("alice");
        session.ingest("lab", &retro(1)).unwrap();
        let err = session.query("lab", "frobnicate the runs").unwrap_err();
        assert_eq!(err.status_code(), 422);
    }

    #[test]
    fn invalid_names_are_rejected() {
        let srv = server();
        let session = srv.session("alice");
        for bad in ["", "has space", "sla/sh", &"x".repeat(65)] {
            let err = session.query(bad, "count runs").unwrap_err();
            assert_eq!(err.status_code(), 400, "namespace {bad:?}");
        }
        let err = srv
            .handle(&Request {
                tenant: "bad tenant".into(),
                namespace: "ns".into(),
                body: RequestBody::Stats,
            })
            .unwrap_err();
        assert_eq!(err.status_code(), 400);
    }

    #[test]
    fn rate_limit_throttles_one_tenant_not_another() {
        let srv = Arc::new(ProvServer::new(ServerConfig {
            tenant_burst: 3,
            tenant_rate_per_sec: 0.000_001,
            ..ServerConfig::default()
        }));
        let alice = srv.session("alice");
        let bob = srv.session("bob");
        alice.ingest("lab", &retro(1)).unwrap();
        // Alice has 2 tokens left (ingest spent one).
        assert!(alice.query("lab", "count runs").is_ok());
        assert!(alice.query("lab", "count runs").is_ok());
        let err = alice.query("lab", "count runs").unwrap_err();
        assert_eq!(err.status_code(), 429);
        assert!(err.is_backpressure());
        assert!(bob.query("lab", "count runs").is_ok(), "bob unaffected");
        assert!(srv.server_stats().throttled >= 1);
    }

    #[test]
    fn shutdown_drains_new_requests() {
        let srv = server();
        let session = srv.session("alice");
        session.ingest("lab", &retro(1)).unwrap();
        srv.begin_shutdown();
        let err = session.query("lab", "count runs").unwrap_err();
        assert_eq!(err, ServerError::ShuttingDown);
    }

    #[test]
    fn generation_in_reply_matches_the_data_queried() {
        let srv = server();
        let session = srv.session("alice");
        session.ingest("lab", &retro(1)).unwrap();
        let r1 = session.query("lab", "count executions").unwrap();
        assert_eq!((r1.generation, r1.result), (1, QueryResult::Count(1)));
        session.ingest("lab", &retro(2)).unwrap();
        let r2 = session.query("lab", "count executions").unwrap();
        assert_eq!((r2.generation, r2.result), (2, QueryResult::Count(2)));
    }

    #[test]
    fn concurrent_mixed_load_is_consistent() {
        let srv = server();
        let namespaces = ["physics", "biology"];
        // Pre-create so query threads never race namespace creation.
        for ns in namespaces {
            srv.session("seed").ingest(ns, &retro(999)).unwrap();
        }
        let writers = 4;
        let per_writer = 3;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let session = srv.session(&format!("writer-{w}"));
                scope.spawn(move || {
                    for i in 0..per_writer {
                        let ns = namespaces[(w + i) % namespaces.len()];
                        session
                            .ingest(ns, &retro(1000 + (w * per_writer + i) as u64))
                            .unwrap();
                    }
                });
            }
            for r in 0..4 {
                let session = srv.session(&format!("reader-{r}"));
                scope.spawn(move || {
                    for i in 0..20 {
                        let ns = namespaces[i % namespaces.len()];
                        let reply = session.query(ns, "count executions").unwrap();
                        // Monotone generations, result consistent with
                        // *some* prefix of the ingest stream.
                        assert!(reply.generation >= 1);
                        assert!(!reply.result.is_empty());
                    }
                });
            }
        });
        let total_execs: usize = namespaces
            .iter()
            .map(|ns| srv.session("check").stats(ns).unwrap().executions)
            .sum();
        assert_eq!(
            total_execs,
            2 + writers * per_writer,
            "no lost writes across namespaces"
        );
        for ns in namespaces {
            let stats = srv.session("check").stats(ns).unwrap();
            assert_eq!(stats.store_runs, stats.runs, "engine and store agree");
        }
    }

    fn temp_data_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "prov-server-{}-{}-{name}",
            std::process::id(),
            wf_engine::event::now_millis()
        ));
        p
    }

    fn durable_config(dir: &std::path::Path) -> ServerConfig {
        ServerConfig {
            durability: Some(DurabilityConfig::new(dir).fsync(prov_store::wal::FsyncPolicy::Never)),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn durable_server_is_not_ready_until_recovered() {
        let dir = temp_data_dir("notready");
        let srv = Arc::new(ProvServer::new(durable_config(&dir)));
        assert!(!srv.is_ready());
        let err = srv.session("alice").ingest("lab", &retro(1)).unwrap_err();
        assert_eq!(err, ServerError::NotReady);
        assert_eq!(err.status_code(), 503);
        assert!(err.is_backpressure(), "clients should retry not-ready");
        srv.recover().unwrap();
        assert!(srv.is_ready());
        srv.session("alice").ingest("lab", &retro(1)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn acked_ingests_survive_restart_and_generation_is_restored() {
        let dir = temp_data_dir("restart");
        {
            let srv = Arc::new(ProvServer::new(durable_config(&dir)));
            srv.recover().unwrap();
            let session = srv.session("alice");
            for seed in 1..=3 {
                session.ingest("lab", &retro(seed)).unwrap();
            }
            session.ingest("other", &retro(9)).unwrap();
            assert_eq!(session.stats("lab").unwrap().generation, 3);
        } // process "dies" — only the WAL files remain

        let srv = Arc::new(ProvServer::new(durable_config(&dir)));
        let reports = srv.recover().unwrap();
        assert_eq!(reports.len(), 2, "both namespaces recovered");
        let lab = reports.iter().find(|r| r.namespace == "lab").unwrap();
        assert_eq!(lab.wal_records, 3);
        assert!(!lab.truncated);
        let session = srv.session("alice");
        let stats = session.stats("lab").unwrap();
        assert_eq!(stats.executions, 3, "no acked ingest lost");
        assert_eq!(stats.generation, 3, "generation counter restored");
        assert_eq!(stats.store_runs, stats.runs, "graph store replayed too");
        // The restored counter keeps advancing from the watermark, so
        // ack/generation accounting is seamless across the restart.
        let ack = session.ingest("lab", &retro(4)).unwrap();
        assert_eq!(ack.generation, 4);
        assert_eq!(
            session.query("lab", "count executions").unwrap().result,
            QueryResult::Count(4)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_histogram_counts_every_append_across_checkpoints() {
        let dir = temp_data_dir("fsync-count");
        let srv = Arc::new(ProvServer::new(ServerConfig {
            durability: Some(
                DurabilityConfig::new(&dir)
                    .fsync(prov_store::wal::FsyncPolicy::Always)
                    .checkpoint_every(2),
            ),
            ..ServerConfig::default()
        }));
        srv.recover().unwrap();
        let session = srv.session("alice");
        for seed in 1..=10 {
            session.ingest("lab", &retro(seed)).unwrap();
        }
        let prom = srv.registry().render_prometheus();
        let count = |series: &str| -> u64 {
            let line = prom
                .lines()
                .find(|l| l.starts_with(&format!("{series}{{namespace=\"lab\"}}")))
                .unwrap_or_else(|| panic!("no {series} in:\n{prom}"));
            line.rsplit(' ').next().unwrap().parse().unwrap()
        };
        // Checkpoints re-root the live tail (after 2, 4 and 8 appends);
        // each append's fsync is still observed exactly once.
        assert!(count("prov_wal_checkpoint_micros_count") >= 3);
        assert_eq!(count("prov_wal_appends_total"), 10);
        assert_eq!(count("prov_wal_fsync_micros_count"), 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn request_ids_make_ingest_idempotent_across_restart() {
        let dir = temp_data_dir("dedupe");
        let first = {
            let srv = Arc::new(ProvServer::new(durable_config(&dir)));
            srv.recover().unwrap();
            let session = srv.session("alice");
            let first = session
                .ingest_with_id("lab", &retro(1), Some("req-1"))
                .unwrap();
            // A duplicate send replays the original ack, applying nothing.
            let dup = session
                .ingest_with_id("lab", &retro(1), Some("req-1"))
                .unwrap();
            assert_eq!(dup, first);
            assert_eq!(session.stats("lab").unwrap().executions, 1);
            first
        };
        // The dedupe memory itself is rebuilt from the WAL: a retry that
        // lands after a crash+restart still replays, not double-applies.
        let srv = Arc::new(ProvServer::new(durable_config(&dir)));
        srv.recover().unwrap();
        let session = srv.session("alice");
        let dup = session
            .ingest_with_id("lab", &retro(1), Some("req-1"))
            .unwrap();
        assert_eq!(dup.generation, first.generation);
        assert_eq!(session.stats("lab").unwrap().executions, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_wal_failures_degrade_to_read_only() {
        use prov_store::{IoFault, IoFaultPlan};
        let dir = temp_data_dir("degrade");
        // Three ENOSPC faults at nearby offsets: each healed append re-tries
        // the same region and trips the next one — a persistently full disk.
        let plan = IoFaultPlan::new()
            .at(10, IoFault::NoSpace)
            .at(11, IoFault::NoSpace)
            .at(12, IoFault::NoSpace);
        let config = ServerConfig {
            durability: Some(
                DurabilityConfig::new(&dir)
                    .fsync(prov_store::wal::FsyncPolicy::Never)
                    .fault_plan(plan),
            ),
            ..ServerConfig::default()
        };
        let srv = Arc::new(ProvServer::new(config));
        srv.recover().unwrap();
        let session = srv.session("alice");
        for attempt in 1..=3 {
            let err = session.ingest("lab", &retro(attempt)).unwrap_err();
            assert_eq!(err.status_code(), 500, "attempt {attempt}");
            assert!(matches!(err, ServerError::Durability(_)), "{err}");
        }
        // Third consecutive failure flipped the namespace read-only.
        assert_eq!(srv.degraded_namespaces(), vec!["lab".to_string()]);
        let err = session.ingest("lab", &retro(4)).unwrap_err();
        assert!(matches!(err, ServerError::ReadOnly(_)), "{err}");
        assert_eq!(err.status_code(), 503);
        // Reads still work: degraded means read-only, not down. (The
        // namespace is empty — every failed ingest was refused *before*
        // the in-memory apply, so stores and WAL never diverged.)
        assert_eq!(
            session.query("lab", "count executions").unwrap().result,
            QueryResult::Count(0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_reported_on_recovery() {
        let dir = temp_data_dir("torn");
        {
            let srv = Arc::new(ProvServer::new(durable_config(&dir)));
            srv.recover().unwrap();
            let session = srv.session("alice");
            for seed in 1..=2 {
                session.ingest("lab", &retro(seed)).unwrap();
            }
        }
        // A crash mid-write leaves a torn frame at the tail.
        let wal_path = dir.join("lab").join("wal.log");
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let keep = bytes.len() - 37;
        bytes.truncate(keep);
        bytes.extend_from_slice(&[0xAB; 5]);
        std::fs::write(&wal_path, &bytes).unwrap();

        let srv = Arc::new(ProvServer::new(durable_config(&dir)));
        let reports = srv.recover().unwrap();
        let lab = &reports[0];
        assert!(lab.truncated, "torn tail must be detected");
        assert_eq!(lab.wal_records, 1, "only the valid prefix replays");
        assert_eq!(lab.generation, 1);
        let stats = srv.session("alice").stats("lab").unwrap();
        assert_eq!(stats.executions, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_namespace_serves_identical_results() {
        let single = server();
        let sharded = Arc::new(ProvServer::new(ServerConfig {
            shards: 4,
            ..ServerConfig::default()
        }));
        let a = single.session("alice");
        let b = sharded.session("alice");
        for seed in 1..=6 {
            a.ingest("lab", &retro(seed)).unwrap();
            b.ingest("lab", &retro(seed)).unwrap();
        }
        for pql in [
            "count runs",
            "list runs where status = succeeded",
            "count artifacts",
            "list executions",
            "count runs where module = \"Histogram@1\"",
        ] {
            let lhs = a.query("lab", pql).unwrap();
            let rhs = b.query("lab", pql).unwrap();
            assert_eq!(lhs.result, rhs.result, "{pql}");
            assert_eq!(lhs.generation, rhs.generation, "{pql}");
        }
        let stats = b.stats("lab").unwrap();
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.generation, 6, "one generation per ingest");
        assert_eq!(stats.store_runs, stats.runs);
        assert_eq!(a.stats("lab").unwrap().shards, 1);
    }

    #[test]
    fn sharded_cache_is_invalidated_by_ingest_into_any_shard() {
        let srv = Arc::new(ProvServer::new(ServerConfig {
            shards: 4,
            ..ServerConfig::default()
        }));
        let session = srv.session("alice");
        session.ingest("lab", &retro(1)).unwrap();
        let first = session.query("lab", "count runs").unwrap();
        assert!(!first.cached);
        assert!(session.query("lab", "count runs").unwrap().cached);
        // Ingest documents that land on several different shards; each
        // one must invalidate the cached count (generation is the sum of
        // the per-shard counters, so any shard's advance changes it).
        let ns = srv.namespace("lab").unwrap();
        assert_eq!(ns.shard_count(), 4);
        for seed in 2..=5 {
            session.ingest("lab", &retro(seed)).unwrap();
            let reply = session.query("lab", "count runs").unwrap();
            assert!(!reply.cached, "stale entry served after ingest {seed}");
            assert_eq!(reply.result, QueryResult::Count(8 * seed as usize));
        }
    }

    #[test]
    fn sharded_durable_namespace_recovers_across_restart() {
        let dir = temp_data_dir("sharded");
        let sharded_config = || ServerConfig {
            shards: 3,
            ..durable_config(&dir)
        };
        {
            let srv = Arc::new(ProvServer::new(sharded_config()));
            srv.recover().unwrap();
            let session = srv.session("alice");
            for seed in 1..=6 {
                session.ingest("lab", &retro(seed)).unwrap();
            }
            assert_eq!(session.stats("lab").unwrap().generation, 6);
        } // process "dies" — only the per-shard WALs remain

        // Restart with shards=1: the on-disk marker pins the layout, so
        // the namespace still comes back sharded and complete.
        let srv = Arc::new(ProvServer::new(durable_config(&dir)));
        let reports = srv.recover().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].wal_records, 6, "all shard WALs replayed");
        assert_eq!(reports[0].generation, 6);
        let session = srv.session("alice");
        let stats = session.stats("lab").unwrap();
        assert_eq!(stats.shards, 3, "marker wins over config");
        assert_eq!(stats.executions, 6);
        assert_eq!(stats.generation, 6, "watermark sums shard generations");
        assert_eq!(stats.store_runs, stats.runs);
        let ack = session.ingest("lab", &retro(7)).unwrap();
        assert_eq!(ack.generation, 7, "generation seamless across restart");
        assert_eq!(
            session.query("lab", "count executions").unwrap().result,
            QueryResult::Count(7)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn request_scoped_spans_land_in_the_namespace_trace() {
        let srv = server();
        let session = srv.session("alice");
        session.ingest("lab", &retro(1)).unwrap();
        session.query("lab", "count runs").unwrap();
        session.query("lab", "list runs").unwrap();
        let trace = srv.take_trace("lab").unwrap();
        assert_eq!(trace.spans.len(), 2, "one span per query request");
        assert!(srv.take_trace("ghost").is_none());
        let prom = srv.registry().render_prometheus();
        assert!(prom.contains("prov_server_requests_total"));
        assert!(prom.contains("pql_queries_total"));
    }
}
