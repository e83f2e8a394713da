//! The traced run: where a request's time goes, layer by layer.
//!
//! The program has no spans of its own on the request path yet, so they are
//! recorded here, from outside, around calls into each layer's public
//! functions. One client sends the workload's seeded request stream to an
//! in-process [`ProvServer`] — that call is the request's `server.handle_*`
//! span — and then replays the request through a *shadow pipeline* that
//! owns its own WAL, engine, store, cache and sharded engine, and calls the
//! layers one by one in request-path order, one span per call. Layer spans
//! over handle span is the reconciliation ratio; what is missing is the
//! server's glue (locks, ack cache, observer, metrics).
//!
//! Nothing measured here feeds an end-to-end metric.

use crate::gen::{self, Mix, Op, Shape, Study, Traffic, NAMESPACE, TENANT};
use crate::load::{RunConfig, CHECKPOINT_EVERY};
use crate::stats;
use prov_core::model::RetrospectiveProvenance;
use prov_query::{
    analyze_optimized, eval_optimized, optimize, parse, PqlEngine, QueryCache, ShardedEngine,
};
use prov_server::{
    durability, wire, DurabilityConfig, IngestAck, ProvServer, QueryReply, ServerConfig, Session,
};
use prov_store::{FsyncPolicy, GraphStore, NamespaceWal, SharedStore};
use prov_telemetry::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wf_engine::ExecId;

/// Spans written to the span file; the metrics use every span.
const SPAN_FILE_CAP: usize = 200_000;

/// One timed interval. `parent` 0 marks a request's root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub span: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn to_json(&self) -> JsonValue {
        let num = |n: u64| JsonValue::Number(n as f64);
        gen::json_object([
            ("span", num(u64::from(self.span))),
            (
                "parent",
                if self.parent == 0 {
                    JsonValue::Null
                } else {
                    num(u64::from(self.parent))
                },
            ),
            ("request", num(u64::from(self.request))),
            ("name", JsonValue::String(self.name.to_string())),
            ("start_ns", num(self.start_ns)),
            ("end_ns", num(self.end_ns)),
        ])
    }
}

/// In-memory span log; written out when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    requests: u32,
}

/// An open root span.
#[derive(Debug, Clone, Copy)]
pub struct Root {
    span: u32,
    request: u32,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn next_id(&self) -> u32 {
        self.spans.len() as u32 + 1
    }

    /// Open the root span of a new request. Its id is reserved now, so the
    /// children recorded before it closes can name it.
    pub fn open(&mut self, name: &'static str) -> Root {
        self.requests += 1;
        let root = Root {
            span: self.next_id(),
            request: self.requests,
        };
        let start_ns = self.now();
        // `close` fills in the end.
        self.spans.push(Span {
            span: root.span,
            parent: 0,
            request: root.request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        root
    }

    /// Time `call` as a child span of `root`.
    pub fn child<T>(&mut self, root: Root, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let value = call();
        let end_ns = self.now();
        self.spans.push(Span {
            span: self.next_id(),
            parent: root.span,
            request: root.request,
            name,
            start_ns,
            end_ns,
        });
        value
    }

    pub fn close(&mut self, root: Root) {
        self.spans[root.span as usize - 1].end_ns = self.now();
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children clipped to the parent, overlaps counted
/// once). Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.span, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let parent = &spans[p];
            let (start, end) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, covered)| {
            covered.sort_unstable();
            let (mut total, mut reach) = (0u64, s.start_ns);
            for &(start, end) in covered.iter() {
                if end > reach {
                    total += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_ns() - total
        })
        .collect()
}

/// What one `analyze_optimized` call on the request path did.
#[derive(Debug)]
struct Evaluation {
    shape: Shape,
    rows: u64,
    /// `Analysis::total_accesses().total_reads()`.
    reads: u64,
    span_ns: u64,
}

/// Counts taken at the layer boundaries, beside the spans.
#[derive(Debug, Default)]
struct Counts {
    body_bytes: u64,
    entry_bytes: u64,
    /// Appends that did not checkpoint, and the fsyncs they did.
    plain_appends: u64,
    plain_fsyncs: u64,
    fsync_us: Vec<f64>,
    checkpoints: u64,
    checkpoint_ms: Vec<f64>,
    /// One per evaluated query.
    evaluations: Vec<Evaluation>,
}

/// The layers, owned apart from the server, called in request-path order.
struct Shadow {
    wals: Vec<NamespaceWal>,
    engine: PqlEngine,
    store: SharedStore<GraphStore>,
    cache: QueryCache,
    sharded: ShardedEngine,
    /// Does the workload's server run the sharded evaluator?
    serves_sharded: bool,
    counts: Counts,
}

impl Shadow {
    fn new(cfg: &RunConfig, wal_dir: &Path) -> Result<Shadow, String> {
        let w = cfg.workload;
        let mut wals = Vec::new();
        // A query-only window appends nothing; owning no WAL there keeps
        // every wal.* count at zero by construction.
        if matches!(w.mix, Mix::Ingest | Mix::Mixed) {
            let policy = FsyncPolicy::parse(w.fsync)?;
            for shard in 0..w.shards {
                let (mut wal, _) =
                    NamespaceWal::open(&wal_dir.join(format!("shard-{shard}")), policy)
                        .map_err(|e| format!("cannot open the shadow WAL: {e}"))?;
                wal.checkpoint_every = CHECKPOINT_EVERY;
                wals.push(wal);
            }
        }
        Ok(Shadow {
            wals,
            engine: PqlEngine::new(),
            store: SharedStore::new(GraphStore::new()),
            cache: QueryCache::new(gen::CACHE_ENTRIES),
            sharded: ShardedEngine::new(2),
            serves_sharded: w.shards > 1,
            counts: Counts::default(),
        })
    }

    /// Apply one execution without recording anything (the preload).
    fn load(&mut self, retro: &RetrospectiveProvenance) {
        if !self.wals.is_empty() {
            let id = gen::request_id(retro.exec.0);
            let entry = durability::encode_entry(retro, Some(&id), self.engine.generation() + 1);
            let shard = self.shard_of(retro.exec);
            self.wals[shard]
                .append(retro.exec.0, &entry)
                .expect("the shadow WAL accepts appends");
        }
        self.engine.ingest(retro);
        self.store.ingest_shared(retro);
        self.sharded.ingest(retro);
    }

    fn shard_of(&self, exec: ExecId) -> usize {
        if self.wals.len() > 1 {
            self.sharded.route(exec) % self.wals.len()
        } else {
            0
        }
    }

    /// Replay one ingest through the layers, one child span per call.
    fn ingest(&mut self, rec: &mut Recorder, root: Root, body: &str) {
        let retro = rec.child(root, "wire.ingest_decode", || decode_ingest(body).0);
        let id = gen::request_id(retro.exec.0);
        let seq = self.engine.generation() + 1;
        let entry = rec.child(root, "durability.encode_entry", || {
            durability::encode_entry(&retro, Some(&id), seq)
        });
        self.counts.body_bytes += body.len() as u64;
        self.counts.entry_bytes += entry.len() as u64;
        if !self.wals.is_empty() {
            let shard = self.shard_of(retro.exec);
            let wal = &mut self.wals[shard];
            let (syncs, checkpoints) = (wal.syncs(), wal.checkpoints());
            rec.child(root, "wal.append", || {
                wal.append(retro.exec.0, &entry)
                    .expect("the shadow WAL accepts appends")
            });
            if wal.checkpoints() > checkpoints {
                self.counts.checkpoints += 1;
                self.counts
                    .checkpoint_ms
                    .push(wal.last_checkpoint_micros() as f64 / 1e3);
            } else {
                // The sync counter restarts at a checkpoint, so fsyncs are
                // counted over the appends that did not checkpoint.
                self.counts.plain_appends += 1;
                if wal.syncs() > syncs {
                    self.counts.plain_fsyncs += wal.syncs() - syncs;
                    self.counts.fsync_us.push(wal.last_sync_micros() as f64);
                }
            }
        }
        rec.child(root, "engine.ingest", || self.engine.ingest(&retro));
        rec.child(root, "store.ingest", || self.store.ingest_shared(&retro));
        let ack = IngestAck {
            namespace: NAMESPACE.to_string(),
            generation: seq,
            runs_ingested: retro.run_count(),
            total_runs: self.engine.run_count(),
        };
        rec.child(root, "wire.ack_encode", || {
            wire::render_json(&wire::ack_to_json(&ack))
        });
        // Beside the request path: the second evaluator's apply, and what
        // recovery pays to read the entry back.
        rec.child(root, "sharded.ingest", || self.sharded.ingest(&retro));
        rec.child(root, "durability.decode_entry", || {
            durability::decode_entry(&entry).expect("an encoded entry decodes")
        });
    }

    /// Replay one query through the layers, one child span per call.
    fn query(&mut self, rec: &mut Recorder, root: Root, body: &str, shape: Shape) {
        let pql = rec.child(root, "wire.query_decode", || decode_query(body));
        let query = rec.child(root, "query.parse", || {
            parse(&pql).expect("generated texts parse")
        });
        let generation = self.engine.generation();
        let cached = rec.child(root, "cache.lookup", || {
            let key = QueryCache::key_for(&query);
            let hit = self.cache.get("engine", &key, generation);
            (key, hit)
        });
        let reply = match cached {
            (_, Some(result)) => QueryReply {
                result,
                generation,
                micros: 0,
                cached: true,
            },
            (key, None) => {
                rec.child(root, "query.optimize", || optimize(&self.engine, &query));
                let analysis = rec.child(root, "query.analyze_optimized", || {
                    analyze_optimized(&self.engine, &query).expect("generated texts evaluate")
                });
                self.counts.evaluations.push(Evaluation {
                    shape,
                    rows: analysis.result.len() as u64,
                    reads: analysis.total_accesses().total_reads(),
                    span_ns: rec.spans.last().map_or(0, Span::duration_ns),
                });
                rec.child(root, "cache.put", || {
                    self.cache
                        .put("engine", &key, generation, analysis.result.clone())
                });
                // Beside the request path, for the two ratios: the same text
                // through the uninstrumented entry point, the engine again,
                // and the second evaluator. All three find the data warm
                // (the evaluation above touched it), and the outer two swap
                // places on odd requests, so no order favours one of them.
                let sharded = |shadow: &Shadow, rec: &mut Recorder| {
                    rec.child(root, "sharded.analyze_optimized", || {
                        shadow
                            .sharded
                            .analyze_optimized(&query)
                            .expect("generated texts evaluate")
                    });
                };
                let eval = |shadow: &Shadow, rec: &mut Recorder| {
                    rec.child(root, "query.eval_optimized", || {
                        eval_optimized(&shadow.engine, &query).expect("generated texts evaluate")
                    });
                };
                let odd = root.request % 2 == 1;
                if odd {
                    sharded(self, rec);
                } else {
                    eval(self, rec);
                }
                rec.child(root, "query.analyze_warm", || {
                    analyze_optimized(&self.engine, &query).expect("generated texts evaluate")
                });
                if odd {
                    eval(self, rec);
                } else {
                    sharded(self, rec);
                }
                QueryReply {
                    result: analysis.result,
                    generation,
                    micros: analysis.total_micros,
                    cached: false,
                }
            }
        };
        rec.child(root, "wire.reply_encode", || {
            wire::render_json(&wire::reply_to_json(&reply))
        });
    }
}

/// What the HTTP front end does with an ingest body before the server sees
/// it: parse, then decode the document and the idempotency key.
fn decode_ingest(body: &str) -> (RetrospectiveProvenance, String) {
    let value = parse_json(body).expect("generated bodies are JSON");
    let retro = wire::retro_from_json(value.get("retro").expect("ingest bodies carry a document"))
        .expect("generated documents decode");
    let id = value
        .get("request_id")
        .and_then(JsonValue::as_str)
        .expect("ingest bodies carry a request id")
        .to_string();
    (retro, id)
}

/// What the HTTP front end does with a query body: parse, take the text.
fn decode_query(body: &str) -> String {
    parse_json(body)
        .expect("generated bodies are JSON")
        .get("pql")
        .and_then(JsonValue::as_str)
        .expect("query bodies carry a text")
        .to_string()
}

/// The request as the program serves it, socket aside: decode the body,
/// hand it to the server, encode the reply. Returns whether it succeeded
/// and, for a query, whether the result cache answered.
fn handle(session: &Session, path: &str, body: &str) -> Result<bool, String> {
    match path {
        "/v1/ingest" => {
            let (retro, id) = decode_ingest(body);
            let ack = session
                .ingest_with_id(NAMESPACE, &retro, Some(&id))
                .map_err(|e| e.to_string())?;
            std::hint::black_box(wire::render_json(&wire::ack_to_json(&ack)));
            Ok(false)
        }
        _ => {
            let reply = session
                .query(NAMESPACE, &decode_query(body))
                .map_err(|e| e.to_string())?;
            std::hint::black_box(wire::render_json(&wire::reply_to_json(&reply)));
            Ok(reply.cached)
        }
    }
}

/// What the traced window observed.
#[derive(Debug)]
pub struct Traced {
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Metric name to `(value, samples)`.
    pub metrics: BTreeMap<String, (f64, usize)>,
    pub wall_s: f64,
}

fn server_for(cfg: &RunConfig, data_dir: &Path) -> Result<Arc<ProvServer>, String> {
    let policy = FsyncPolicy::parse(cfg.workload.fsync)?;
    let server = Arc::new(ProvServer::new(ServerConfig {
        shards: cfg.workload.shards,
        durability: Some(
            DurabilityConfig::new(data_dir)
                .fsync(policy)
                .checkpoint_every(CHECKPOINT_EVERY),
        ),
        ..ServerConfig::default()
    }));
    server.recover().map_err(|e| e.to_string())?;
    Ok(server)
}

/// Run the traced window of one workload for `seconds`, in process, with
/// one client.
pub fn run(cfg: &RunConfig, seconds: f64) -> Result<Traced, String> {
    let wall = Instant::now();
    let w = cfg.workload;
    let study = Study { seed: cfg.seed };
    let traffic = Traffic::new(&study, w.mix, 1, cfg.anchor_execs());
    let server = server_for(cfg, &cfg.work_dir.join("traced-data"))?;
    let session = server.session(TENANT);
    session
        .create_namespace(NAMESPACE)
        .map_err(|e| e.to_string())?;
    let mut shadow = Shadow::new(cfg, &cfg.work_dir.join("shadow-wal"))?;

    // Preload the server and the shadow side by side; nothing is recorded.
    let corpus = study.corpus(cfg.preload());
    std::thread::scope(|scope| {
        let loaded = scope.spawn(|| {
            corpus.iter().try_for_each(|retro| {
                session
                    .ingest_with_id(NAMESPACE, retro, Some(&gen::request_id(retro.exec.0)))
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            })
        });
        corpus.iter().for_each(|retro| shadow.load(retro));
        loaded.join().expect("the preload thread panicked")
    })?;

    let mut rec = Recorder::new();
    let (mut attempted, mut failed, mut problems) = (0u64, 0u64, Vec::new());
    let mut next_exec = cfg.preload();
    let length = Duration::from_secs_f64(seconds);
    let opened = Instant::now();
    for op in traffic.schedules[0].iter().cycle() {
        if opened.elapsed() >= length {
            break;
        }
        attempted += 1;
        let (path, body, text) = match *op {
            Op::Ingest => {
                next_exec += 1;
                (
                    "/v1/ingest",
                    gen::ingest_body(&study.retro(next_exec)),
                    None,
                )
            }
            Op::Query(i) => {
                let text = &traffic.texts[i];
                ("/v1/query", text.body.clone(), Some(text))
            }
        };
        let (root_name, handle_name) = match text {
            None => ("request.ingest", "server.handle_ingest"),
            Some(_) => ("request.query", "server.handle_query"),
        };
        let root = rec.open(root_name);
        let handled = rec.child(root, handle_name, || handle(&session, path, &body));
        match text {
            None => shadow.ingest(&mut rec, root, &body),
            Some(text) => shadow.query(&mut rec, root, &body, text.q.shape()),
        }
        rec.close(root);
        if let Err(e) = handled {
            failed += 1;
            if problems.len() < 8 {
                problems.push(format!("traced {path} failed: {e}"));
            }
        }
    }

    // The server and the shadow saw the same stream; they must agree.
    match session.stats(NAMESPACE) {
        Ok(s) if s.executions == shadow.engine.exec_count() && s.store_runs == s.runs => {}
        Ok(s) => {
            failed += 1;
            problems.push(format!(
                "traced server holds {} executions and {}/{} runs, the shadow {}",
                s.executions,
                s.store_runs,
                s.runs,
                shadow.engine.exec_count()
            ));
        }
        Err(e) => {
            failed += 1;
            problems.push(format!("traced stats failed: {e}"));
        }
    }
    let metrics = layer_metrics(&rec.spans, &shadow.counts, shadow.serves_sharded);
    Ok(Traced {
        spans: rec.spans,
        attempted,
        failed,
        problems,
        metrics,
        wall_s: wall.elapsed().as_secs_f64(),
    })
}

/// The per-layer metrics the spans and counts give.
fn layer_metrics(
    spans: &[Span],
    counts: &Counts,
    serves_sharded: bool,
) -> BTreeMap<String, (f64, usize)> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        by_name
            .entry(s.name)
            .or_default()
            .push(*self_ns as f64 / 1e3);
    }
    let of = |name: &str| by_name.get(name).map_or(&[][..], Vec::as_slice);
    let mut out: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    let mut put = |name: &str, value: f64, samples: usize| {
        out.insert(
            name.to_string(),
            (if value.is_finite() { value } else { 0.0 }, samples),
        );
    };
    let ratio = stats::ratio;
    for (metric, span) in [
        ("wire.ingest_decode_us", "wire.ingest_decode"),
        ("wire.ack_encode_us", "wire.ack_encode"),
        ("wire.reply_encode_us", "wire.reply_encode"),
        ("durability.encode_entry_us", "durability.encode_entry"),
        ("durability.decode_entry_us", "durability.decode_entry"),
        ("wal.append_us", "wal.append"),
        ("engine.ingest_us", "engine.ingest"),
        ("store.ingest_us", "store.ingest"),
        ("query.parse_us", "query.parse"),
        ("cache.lookup_us", "cache.lookup"),
        ("cache.put_us", "cache.put"),
        ("query.optimize_us", "query.optimize"),
        ("query.analyze_optimized_us", "query.analyze_optimized"),
        ("sharded.analyze_optimized_us", "sharded.analyze_optimized"),
        ("sharded.ingest_us", "sharded.ingest"),
        ("server.handle_ingest_us", "server.handle_ingest"),
        ("server.handle_query_us", "server.handle_query"),
    ] {
        put(metric, stats::median(of(span)), of(span).len());
    }
    let appends = of("wal.append");
    put(
        "wal.append_p95_us",
        stats::percentile(appends, 95.0).unwrap_or(0.0),
        appends.len(),
    );
    put(
        "wal.fsyncs_per_append",
        ratio(counts.plain_fsyncs as f64, counts.plain_appends as f64),
        counts.plain_appends as usize,
    );
    put(
        "wal.fsync_mean_us",
        stats::mean(&counts.fsync_us),
        counts.fsync_us.len(),
    );
    put("wal.checkpoints", counts.checkpoints as f64, appends.len());
    put(
        "wal.checkpoint_mean_ms",
        stats::mean(&counts.checkpoint_ms),
        counts.checkpoint_ms.len(),
    );
    put(
        "durability.entry_bytes_per_body_byte",
        ratio(counts.entry_bytes as f64, counts.body_bytes as f64),
        of("durability.encode_entry").len(),
    );
    // Spans are in corpus order: the first and the last quarter of the
    // window's ingests meet a small and a large corpus.
    let applies = of("engine.ingest");
    let quarter = applies.len() / 4;
    let (q1, q4) = (
        stats::median(&applies[..quarter]),
        stats::median(&applies[applies.len() - quarter..]),
    );
    put("engine.ingest_us.q1", q1, quarter);
    put("engine.ingest_us.q4", q4, quarter);
    put("engine.ingest_growth", ratio(q4, q1), quarter);
    put(
        "query.analyze_over_eval",
        ratio(
            stats::median(of("query.analyze_warm")),
            stats::median(of("query.eval_optimized")),
        ),
        of("query.eval_optimized").len(),
    );
    put(
        "sharded.over_single",
        ratio(
            stats::median(of("sharded.analyze_optimized")),
            stats::median(of("query.analyze_warm")),
        ),
        of("sharded.analyze_optimized").len(),
    );
    for shape in Shape::ALL {
        let mine: Vec<&Evaluation> = counts
            .evaluations
            .iter()
            .filter(|e| e.shape == shape)
            .collect();
        let median_of = |f: fn(&Evaluation) -> f64| {
            stats::median(&mine.iter().map(|e| f(e)).collect::<Vec<f64>>())
        };
        let name = shape.name();
        put(
            &format!("query.{name}_us"),
            median_of(|e| e.span_ns as f64 / 1e3),
            mine.len(),
        );
        put(
            &format!("query.{name}.rows"),
            median_of(|e| e.rows as f64),
            mine.len(),
        );
        put(
            &format!("query.{name}.reads_per_row"),
            median_of(|e| e.reads as f64 / e.rows.max(1) as f64),
            mine.len(),
        );
    }
    // Reconciliation: per request, the layer spans on the served path over
    // the server's own span. `query.optimize` is left out (analyze runs it
    // again inside); a sharded server applies and evaluates through the
    // second evaluator, so its spans stand in for the engine's.
    let (apply, evaluate) = if serves_sharded {
        ("sharded.ingest", "sharded.analyze_optimized")
    } else {
        ("engine.ingest", "query.analyze_optimized")
    };
    let ingest_layers = [
        "wire.ingest_decode",
        "durability.encode_entry",
        "wal.append",
        apply,
        "store.ingest",
        "wire.ack_encode",
    ];
    let query_layers = [
        "wire.query_decode",
        "query.parse",
        "cache.lookup",
        evaluate,
        "cache.put",
        "wire.reply_encode",
    ];
    let mut sums: BTreeMap<u32, (f64, f64, bool)> = BTreeMap::new();
    for s in spans {
        let entry = sums.entry(s.request).or_insert((0.0, 0.0, false));
        let ns = s.duration_ns() as f64;
        match s.name {
            "server.handle_ingest" => *entry = (entry.0, ns, true),
            "server.handle_query" => *entry = (entry.0, ns, false),
            name if ingest_layers.contains(&name) || query_layers.contains(&name) => entry.0 += ns,
            _ => {}
        }
    }
    for (metric, ingest) in [
        ("reconcile.ingest_layer_sum_over_handle", true),
        ("reconcile.query_layer_sum_over_handle", false),
    ] {
        let ratios: Vec<f64> = sums
            .values()
            .filter(|(_, handle, is_ingest)| *is_ingest == ingest && *handle > 0.0)
            .map(|(layers, handle, _)| layers / handle)
            .collect();
        put(metric, stats::median(&ratios), ratios.len());
    }
    out
}

/// Write the metadata line and the spans (at most [`SPAN_FILE_CAP`]) as
/// JSON lines.
pub fn write_spans(path: &Path, meta: &JsonValue, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    let written = spans.len().min(SPAN_FILE_CAP);
    let head = gen::json_object([
        ("meta", meta.clone()),
        ("spans", JsonValue::Number(spans.len() as f64)),
        ("written", JsonValue::Number(written as f64)),
    ]);
    writeln!(file, "{}", wire::render_json(&head))?;
    for span in &spans[..written] {
        writeln!(file, "{}", wire::render_json(&span.to_json()))?;
    }
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(micros: u64) {
        let began = Instant::now();
        while began.elapsed() < Duration::from_micros(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_nest_inside_their_root_and_self_time_is_never_negative() {
        let mut rec = Recorder::new();
        for _ in 0..50 {
            let root = rec.open("request.query");
            rec.child(root, "server.handle_query", || busy(20));
            rec.child(root, "query.parse", || busy(5));
            rec.child(root, "wire.reply_encode", || ());
            rec.close(root);
        }
        assert_eq!(rec.spans.len(), 200);
        let roots: BTreeMap<u32, &Span> = rec
            .spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| (s.span, s))
            .collect();
        assert_eq!(roots.len(), 50);
        for s in rec.spans.iter().filter(|s| s.parent != 0) {
            let root = roots[&s.parent];
            assert_eq!(s.request, root.request);
            assert!(root.start_ns <= s.start_ns && s.end_ns <= root.end_ns);
            assert!(s.start_ns <= s.end_ns);
        }
        let selfs = self_times(&rec.spans);
        for (s, own) in rec.spans.iter().zip(&selfs) {
            assert!(*own <= s.duration_ns());
            if s.parent != 0 {
                assert_eq!(*own, s.duration_ns(), "a leaf's self time is its duration");
            }
        }
        // Roots did nothing but run their children.
        let root_self: u64 = rec
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.parent == 0)
            .map(|(_, own)| *own)
            .sum();
        let root_total: u64 = roots.values().map(|s| s.duration_ns()).sum();
        assert!(
            root_self * 2 < root_total,
            "{root_self} of {root_total} ns uncovered"
        );
    }

    #[test]
    fn self_time_counts_overlapping_and_overhanging_children_once() {
        let span = |span, parent, start_ns, end_ns| Span {
            span,
            parent,
            request: 1,
            name: "x",
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(1, 0, 100, 200),
            span(2, 1, 110, 150),
            span(3, 1, 140, 160),
            span(4, 1, 190, 260),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 40, 20, 70]);
    }

    #[test]
    fn span_lines_parse() {
        let span = Span {
            span: 7,
            parent: 0,
            request: 3,
            name: "request.ingest",
            start_ns: 5,
            end_ns: 9,
        };
        let line = wire::render_json(&span.to_json());
        let back = parse_json(&line).unwrap();
        assert_eq!(back.get("parent"), Some(&JsonValue::Null));
        assert_eq!(back.get("end_ns").and_then(JsonValue::as_u64), Some(9));
    }
}
