//! The untraced run: a real `provctl serve` child, `nproc` closed-loop
//! clients over TCP, and every check that decides `correct`.
//!
//! Nothing here records spans or touches a shadow pipeline; the numbers a
//! user would see come from this file alone.

use crate::gen::{self, Answer, Mix, Model, Op, Study, Text, Traffic, FAMILY, NAMESPACE, TENANT};
use crate::host;
use crate::stats;
use prov_core::model::RetrospectiveProvenance;
use prov_server::{wire, HttpClient};
use prov_telemetry::parse_json;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One benchmark workload: the server it runs against and the traffic.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub mix: Mix,
    /// `fsync=` policy of the server.
    pub fsync: &'static str,
    /// `shards=` of the server.
    pub shards: usize,
    /// Executions loaded before the window opens.
    pub preload: u64,
    /// Distinct query texts asked before each kill and again after the
    /// restart; on `ingest_durable` also the texts of the query phase.
    pub probes: usize,
    /// What the workload shows that the others do not.
    pub shows: &'static str,
}

/// `checkpoint_every=` of every server (the default).
pub const CHECKPOINT_EVERY: u64 = 256;
/// Kills and restarts in each of a run's three rounds. `recovery_s` is the
/// quickest of them all: the replay is fixed single-threaded work, so a busy
/// host can only add to it, and six tries seldom all meet a slow stretch.
pub const RESTARTS: usize = 2;
/// Executions posted in one ingest phase: the fixed work behind
/// `ingest_p*_ms` where the window has no ingest.
pub const PHASE_INGESTS: u64 = 256;
/// Times the probe texts are asked in one query phase: the fixed work
/// behind `query_p*_ms` where the window has no query.
pub const PHASE_LAPS: usize = 8;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest_durable",
        mix: Mix::Ingest,
        fsync: "always",
        shards: 1,
        preload: 512,
        probes: 512,
        shows:
            "the write path alone: wire decode, WAL, index upkeep, store copy; query layers idle",
    },
    Workload {
        name: "query_cold",
        mix: Mix::Cold,
        fsync: "batch",
        shards: 1,
        preload: 768,
        probes: 32,
        shows: "every query a cache miss; WAL idle",
    },
    Workload {
        name: "query_hot",
        mix: Mix::Hot,
        fsync: "batch",
        shards: 1,
        preload: 768,
        probes: 32,
        shows: "every query a cache hit: HTTP, parse, cache lookup, reply encode; engine idle",
    },
    Workload {
        name: "mixed_sharded",
        mix: Mix::Mixed,
        fsync: "batch",
        shards: 2,
        preload: 768,
        probes: 32,
        shows: "writes beside reads: cache invalidation, write lock, scatter-gather",
    },
];

impl Workload {
    /// The `why` of this workload in `BENCHMARK.json`: the sizes and
    /// weights are the ones the run uses, so the file cannot drift from the
    /// code (a test compares them). Every server runs `workers=nproc
    /// checkpoint_every=256`; a window is `run_seconds` long.
    pub fn why(&self) -> String {
        let traffic = match self.mix {
            Mix::Ingest => "every request a /v1/ingest".to_string(),
            Mix::Cold => format!(
                "{} texts/client = {}x cache: {} %",
                gen::SCHEDULE,
                gen::SCHEDULE / gen::CACHE_ENTRIES,
                gen::COLD_WEIGHTS
                    .iter()
                    .map(|(shape, weight)| format!("{} {weight}", shape.name()))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            Mix::Hot => format!("{} dashboard texts", gen::DASHBOARDS),
            Mix::Mixed => format!(
                "{}% ingest / {}% dashboard / {}% cold",
                gen::MIXED_SHARES.0,
                gen::MIXED_SHARES.1,
                100 - gen::MIXED_SHARES.0 - gen::MIXED_SHARES.1
            ),
        };
        format!(
            "preload={} shards={} fsync={} probes={}; {traffic}; {}",
            self.preload, self.shards, self.fsync, self.probes, self.shows
        )
    }
}

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub provctl: PathBuf,
    /// Scratch directory of this run (data dirs live here).
    pub work_dir: PathBuf,
    pub clients: usize,
    /// 200-execution corpus, for `perf run --smoke`.
    pub smoke: bool,
    /// The spare rounds, every kill and restart, and the fixed-work phases
    /// (off inside a traced run, which only wants the window's counters).
    pub recovery: bool,
    /// `GET /healthz` calls timed after the window (per-layer only).
    pub healthz_calls: usize,
}

impl RunConfig {
    pub fn preload(&self) -> u64 {
        if self.smoke {
            self.workload.preload.min(200)
        } else {
            self.workload.preload
        }
    }

    /// Query texts stay inside subjects the preload completed, so that no
    /// later ingest can change their answers.
    pub fn anchor_execs(&self) -> u64 {
        self.preload() / FAMILY * FAMILY
    }

    pub fn server_args(&self, data_dir: &Path) -> Vec<String> {
        let mut args = vec![
            "serve".to_string(),
            "127.0.0.1:0".to_string(),
            format!("workers={}", self.clients),
        ];
        if self.workload.shards > 1 {
            args.push(format!("shards={}", self.workload.shards));
        }
        args.push(format!("data_dir={}", data_dir.display()));
        args.push(format!("fsync={}", self.workload.fsync));
        args.push(format!("checkpoint_every={CHECKPOINT_EVERY}"));
        args
    }
}

/// A `provctl serve` child; dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    // Held so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawn the server and wait for its `listening on` line (printed after
    /// WAL replay). Returns the seconds from spawn to that line.
    pub fn spawn(provctl: &Path, args: &[String]) -> Result<(Server, f64), String> {
        let began = Instant::now();
        let mut child = Command::new(provctl)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", provctl.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        loop {
            line.clear();
            let read = stdout.read_line(&mut line).unwrap_or(0);
            if let Some(addr) = line.trim().strip_prefix("prov-server listening on ") {
                let seconds = began.elapsed().as_secs_f64();
                let addr = addr
                    .parse()
                    .map_err(|e| format!("bad listen address '{addr}': {e}"))?;
                return Ok((
                    Server {
                        child,
                        addr,
                        _stdout: stdout,
                    },
                    seconds,
                ));
            }
            if read == 0 {
                let _ = child.kill();
                let status = child.wait().map_err(|e| e.to_string())?;
                return Err(format!("provctl serve exited before listening: {status}"));
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn client(&self) -> HttpClient {
        HttpClient::new(self.addr, TENANT)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // SIGKILL, never a graceful shutdown: what survives is what the
        // write path made durable.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Median and tail of the latencies of one phase (the window, or one
/// round's fixed-work phase).
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub p50_ms: f64,
    /// `None` unless ten samples lie beyond it.
    pub p95_ms: Option<f64>,
    pub samples: usize,
}

impl Latency {
    pub fn of(ms: &[f64]) -> Latency {
        Latency {
            p50_ms: stats::median(ms),
            p95_ms: stats::percentile(ms, 95.0),
            samples: ms.len(),
        }
    }
}

/// Everything one untraced run observed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check; empty means `correct`.
    pub problems: Vec<String>,
    /// Requests answered 200 inside the window.
    pub answered: u64,
    /// Ingest latency: of the window where it ingests, else of each round's
    /// ingest phase.
    pub ingest: Vec<Latency>,
    /// Query latency: of the window where it queries, else of each round's
    /// query phase.
    pub query: Vec<Latency>,
    /// One per round.
    pub setup_s: Vec<f64>,
    /// One per round: spawn on the loaded data dir to `listening on`.
    pub recovery_s: Vec<f64>,
    /// One per round: `VmHWM` of the set-up's server before its kill.
    pub rss_peak_mb: Vec<f64>,
    /// Under the data dir holding exactly the preload, after a kill.
    pub disk_bytes: u64,
    /// Bytes of the acked ingest bodies of the preload (what `disk_bytes`
    /// stores).
    pub user_bytes: u64,
    /// Bytes of ingest bodies acked inside the window.
    pub window_ingest_bytes: u64,
    pub window_queries: u64,
    pub window_cached: u64,
    /// Requests refused with 429 or 503.
    pub shed: u64,
    /// Server CPU over the window, milliseconds.
    pub cpu_ms: f64,
    /// Server `write_bytes` over the window.
    pub write_bytes: u64,
    pub healthz_us: Vec<f64>,
    pub request_bytes: u64,
    pub reply_bytes: u64,
    pub wall_s: f64,
}

impl Outcome {
    fn problem(&mut self, text: String) {
        self.failed += 1;
        self.problems.push(text);
    }

    /// Count what the clients of a phase outside the window attempted and
    /// got wrong; returns their latencies in milliseconds.
    fn absorb(&mut self, logs: Vec<ClientLog>) -> Vec<f64> {
        let mut ms = Vec::new();
        for log in logs {
            self.attempted += log.attempted;
            self.failed += log.failed;
            self.problems.extend(log.problems);
            ms.extend(log.samples.iter().map(|s| s.1 as f64 / 1e6));
        }
        ms
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h.max(1)
}

/// The number after `key` in a reply body (`key` includes quotes and colon).
fn number_after(body: &str, key: &str) -> Option<u64> {
    let rest = &body[body.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `"result":…` tail of a query reply: everything that must not change
/// between two answers to one text (`generation`, `micros`, `cached` sort
/// before it).
fn result_part(body: &str) -> &str {
    body.find("\"result\":").map_or("", |at| &body[at..])
}

/// Row count of a reply without parsing it.
fn reply_len(body: &str) -> u64 {
    let result = result_part(body);
    number_after(result, "\"value\":").unwrap_or_else(|| result.matches("\"kind\":").count() as u64)
}

/// The ingest body and run count of execution `id`.
fn render(study: &Study, id: u64) -> (String, usize) {
    let retro = study.retro(id);
    (gen::ingest_body(&retro), retro.runs.len())
}

/// The ingest bodies of executions `1..`, handed out in order to whichever
/// client asks next. Each server gets a pool of its own over the bodies the
/// run rendered ahead.
struct IngestPool<'a> {
    study: &'a Study,
    bodies: &'a [(String, usize)],
    next: AtomicU64,
}

impl<'a> IngestPool<'a> {
    fn new(study: &'a Study, bodies: &'a [(String, usize)]) -> IngestPool<'a> {
        IngestPool {
            study,
            bodies,
            next: AtomicU64::new(0),
        }
    }

    /// The next execution's body and run count, or `None` once `limit`
    /// executions are out (rendered on the spot past the bodies rendered
    /// ahead — outside any timed call). Every id handed out is posted, so
    /// the ids the server holds stay dense.
    fn take(&self, limit: u64) -> Option<(std::borrow::Cow<'_, str>, usize)> {
        let i = self
            .next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < limit).then_some(n + 1)
            })
            .ok()?;
        Some(match self.bodies.get(i as usize) {
            Some((body, runs)) => (body.as_str().into(), *runs),
            None => {
                let (body, runs) = render(self.study, i + 1);
                (body.into(), runs)
            }
        })
    }

    fn taken(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct ClientLog {
    /// `(is_ingest, latency_ns, completed_ns_into_window)` of 200 replies.
    samples: Vec<(bool, u64, u64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    shed: u64,
    cached: u64,
    queries: u64,
    ingest_bytes: u64,
    request_bytes: u64,
    reply_bytes: u64,
    /// First reply to each text this client was first to ask.
    firsts: Vec<(usize, String)>,
    /// `(text, generation, rows)` of answers that move with ingests.
    moving: Vec<(usize, u64, u64)>,
}

impl ClientLog {
    fn problem(&mut self, text: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(text);
        }
    }
}

/// Send one request; the call into the client is all that is timed.
/// Returns the latency and the body of a 200 reply.
fn timed(
    client: &HttpClient,
    path: &str,
    body: &str,
    what: &str,
    log: &mut ClientLog,
) -> Option<(u64, String)> {
    log.attempted += 1;
    log.request_bytes += body.len() as u64;
    let began = Instant::now();
    let reply = client.request("POST", path, body);
    let ns = began.elapsed().as_nanos() as u64;
    match reply {
        Ok(r) if r.status == 200 => {
            log.reply_bytes += r.body.len() as u64;
            Some((ns, r.body))
        }
        Ok(r) => {
            if r.status == 429 || r.status == 503 {
                log.shed += 1;
            }
            log.problem(format!("{what} answered {}: {}", r.status, r.body));
            None
        }
        Err(e) => {
            log.problem(format!("{what} failed: {e}"));
            None
        }
    }
}

/// Send one ingest and check its ack. Returns the latency.
fn timed_ingest(client: &HttpClient, body: &str, runs: usize, log: &mut ClientLog) -> Option<u64> {
    let (ns, ack) = timed(client, "/v1/ingest", body, "ingest", log)?;
    if number_after(&ack, "\"runs_ingested\":") == Some(runs as u64) {
        log.ingest_bytes += body.len() as u64;
        Some(ns)
    } else {
        log.problem(format!("ack does not count {runs} runs: {ack}"));
        None
    }
}

/// Send one query. Returns the latency and the body of a 200 reply.
fn timed_query(client: &HttpClient, text: &Text, log: &mut ClientLog) -> Option<(u64, String)> {
    timed(client, "/v1/query", &text.body, &text.pql, log)
}

/// Run `work(0..threads)` on one thread each and collect what they return.
fn fan_out<T: Send>(threads: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let work = &work;
                scope.spawn(move || work(i))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark thread panicked"))
            .collect()
    })
}

/// Post the pool's next executions with `clients` connections until
/// `1..=count` are out: the bulk load of a set-up, and an ingest phase.
fn post_until(
    addr: SocketAddr,
    pool: &IngestPool<'_>,
    count: u64,
    clients: usize,
) -> Vec<ClientLog> {
    fan_out(clients, |_| {
        let client = HttpClient::new(addr, TENANT);
        let mut log = ClientLog::default();
        while let Some((body, runs)) = pool.take(count) {
            if let Some(ns) = timed_ingest(&client, &body, runs, &mut log) {
                log.samples.push((true, ns, 0));
            }
        }
        log
    })
}

/// The measured window. It is run in parts, so this holds what outlasts a
/// part.
struct Window<'a> {
    addr: SocketAddr,
    traffic: &'a Traffic,
    pool: &'a IngestPool<'a>,
    /// Texts whose answers move with ingests.
    moving: Vec<bool>,
    /// Hash of the first reply to each text; every later one must repeat it.
    first_hash: Vec<AtomicU64>,
    /// Where in its schedule each client goes on.
    positions: Vec<usize>,
}

impl<'a> Window<'a> {
    fn new(
        addr: SocketAddr,
        traffic: &'a Traffic,
        pool: &'a IngestPool<'a>,
        moving: Vec<bool>,
    ) -> Self {
        Window {
            addr,
            traffic,
            pool,
            moving,
            first_hash: traffic.texts.iter().map(|_| AtomicU64::new(0)).collect(),
            positions: vec![0; traffic.schedules.len()],
        }
    }

    /// One part of the window: every client walks on through its schedule
    /// until `seconds` are up.
    fn part(&mut self, seconds: f64) -> Vec<ClientLog> {
        let Window {
            addr,
            traffic,
            pool,
            moving,
            first_hash,
            positions,
        } = self;
        let barrier = Barrier::new(traffic.schedules.len());
        let length = Duration::from_secs_f64(seconds);
        let walked = fan_out(traffic.schedules.len(), |c| {
            let client = HttpClient::new(*addr, TENANT);
            let mut log = ClientLog::default();
            let schedule = &traffic.schedules[c];
            let mut at = positions[c];
            barrier.wait();
            let opened = Instant::now();
            while opened.elapsed() < length {
                let op = schedule[at % schedule.len()];
                at += 1;
                let Op::Query(i) = op else {
                    let (body, runs) = pool.take(u64::MAX).expect("the pool has no limit");
                    if let Some(ns) = timed_ingest(&client, &body, runs, &mut log) {
                        log.samples
                            .push((true, ns, opened.elapsed().as_nanos() as u64));
                    }
                    continue;
                };
                let text = &traffic.texts[i];
                let Some((ns, body)) = timed_query(&client, text, &mut log) else {
                    continue;
                };
                log.samples
                    .push((false, ns, opened.elapsed().as_nanos() as u64));
                log.queries += 1;
                log.cached += u64::from(body.starts_with("{\"cached\":true"));
                if moving[i] {
                    let generation = number_after(&body, "\"generation\":").unwrap_or(0);
                    log.moving.push((i, generation, reply_len(&body)));
                    continue;
                }
                // The first reply to a text is kept for a full check after
                // the window; every later one must repeat it.
                let hash = fnv1a(result_part(&body).as_bytes());
                match first_hash[i].compare_exchange(0, hash, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => log.firsts.push((i, body)),
                    Err(first) if first != hash => log.problem(format!(
                        "'{}' answered differently the second time",
                        text.pql
                    )),
                    Err(_) => {}
                }
            }
            (log, at)
        });
        let (logs, ats): (Vec<ClientLog>, Vec<usize>) = walked.into_iter().unzip();
        *positions = ats;
        logs
    }
}

/// Ask the probe texts `laps` times round, `clients` at a time. Returns the
/// first reply to each text (empty on failure) and every latency in
/// milliseconds.
fn probe(
    addr: SocketAddr,
    probes: &[Text],
    clients: usize,
    laps: usize,
    out: &mut Outcome,
) -> (Vec<String>, Vec<f64>) {
    let next = AtomicU64::new(0);
    let mut logs = fan_out(clients, |_| {
        let client = HttpClient::new(addr, TENANT);
        let mut log = ClientLog::default();
        loop {
            let n = next.fetch_add(1, Ordering::Relaxed) as usize;
            if n >= laps * probes.len() {
                break log;
            }
            let i = n % probes.len();
            if let Some((ns, body)) = timed_query(&client, &probes[i], &mut log) {
                log.samples.push((false, ns, 0));
                if n < probes.len() {
                    log.firsts.push((i, body));
                }
            }
        }
    });
    let mut replies = vec![String::new(); probes.len()];
    for log in &mut logs {
        for (i, body) in log.firsts.drain(..) {
            replies[i] = body;
        }
    }
    (replies, out.absorb(logs))
}

/// Decode a query reply body into its canonical answer.
fn answer_of(body: &str) -> Result<Answer, String> {
    let value = parse_json(body).map_err(|e| format!("reply is not JSON: {e}"))?;
    let reply = wire::reply_from_json(&value).map_err(|e| format!("reply does not decode: {e}"))?;
    Ok(Answer::of_result(&reply.result))
}

/// Check full answers against the model, split over `clients` threads.
fn check_answers(model: &Model<'_>, replies: &[(&Text, &str)], clients: usize) -> Vec<String> {
    let parts: Vec<&[(&Text, &str)]> = replies
        .chunks(replies.len().div_ceil(clients.max(1)).max(1))
        .collect();
    let wrong = fan_out(parts.len(), |part| {
        let mut wrong = Vec::new();
        for (text, body) in parts[part] {
            let expected = model.answer(&text.q);
            match answer_of(body) {
                Ok(got) if got == expected => {}
                Ok(got) => wrong.push(format!(
                    "'{}': {} rows served, the corpus implies {}",
                    text.pql,
                    got.len(),
                    expected.len()
                )),
                Err(e) => wrong.push(format!("'{}': {e}", text.pql)),
            }
        }
        wrong
    });
    wrong.into_iter().flatten().collect()
}

/// For each prefix length `p`, the answer length of global text `q` over
/// executions `1..=p`.
fn cumulative(corpus: &[RetrospectiveProvenance], q: &gen::Q) -> Vec<u64> {
    let mut seen = std::collections::HashSet::new();
    let mut total = 0u64;
    let mut out = vec![0];
    for retro in corpus {
        total += match q {
            gen::Q::MetaCount("runs") => retro.runs.len() as u64,
            gen::Q::MetaCount("artifacts") => {
                retro.artifacts.keys().filter(|h| seen.insert(**h)).count() as u64
            }
            gen::Q::MetaCount(_) => 1,
            gen::Q::ListFailed => u64::from(retro.status == wf_engine::RunStatus::Failed),
            gen::Q::IndexFailed(identity) => retro
                .runs
                .iter()
                .filter(|r| r.status == wf_engine::RunStatus::Failed && r.identity == *identity)
                .count() as u64,
            _ => unreachable!("only global texts have prefix answers"),
        };
        out.push(total);
    }
    out
}

fn stats_of(client: &HttpClient) -> Result<prov_server::NamespaceStats, String> {
    let reply = client
        .request("POST", "/v1/stats", &gen::namespace_body())
        .map_err(|e| format!("stats failed: {e}"))?;
    let value = parse_json(&reply.body).map_err(|e| format!("stats is not JSON: {e}"))?;
    wire::stats_from_json(&value)
        .map_err(|e| format!("stats does not decode: {e} ({})", reply.body))
}

/// `name{namespace="bench"} value` from the Prometheus text.
fn series(metrics: &str, name: &str) -> u64 {
    let prefix = format!("{name}{{namespace=\"{NAMESPACE}\"}} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(0.0) as u64
}

/// One set-up: spawn the server on a fresh data dir, create the namespace,
/// load the preload corpus.
fn set_up(
    cfg: &RunConfig,
    pool: &IngestPool<'_>,
    data_dir: &Path,
    out: &mut Outcome,
) -> Result<(Server, Vec<ClientLog>, f64), String> {
    let began = Instant::now();
    let (server, _) = Server::spawn(&cfg.provctl, &cfg.server_args(data_dir))?;
    let created = server
        .client()
        .request("POST", "/v1/create", &gen::namespace_body())
        .map_err(|e| format!("create failed: {e}"))?;
    if created.status != 200 {
        out.problem(format!(
            "create answered {}: {}",
            created.status, created.body
        ));
    }
    let logs = post_until(server.addr, pool, cfg.preload(), cfg.clients);
    Ok((server, logs, began.elapsed().as_secs_f64()))
}

/// The server's own account of what it holds: `held..=at_most` executions,
/// one generation per execution, engine and store in step.
fn check_stats(out: &mut Outcome, client: &HttpClient, held: u64, at_most: u64, when: &str) {
    match stats_of(client) {
        Ok(s) => {
            if (s.executions as u64) < held || s.executions as u64 > at_most {
                out.problem(format!(
                    "{when}: {} executions held, {held} acked",
                    s.executions
                ));
            }
            if s.generation != s.executions as u64 {
                out.problem(format!(
                    "{when}: generation {} with {} executions",
                    s.generation, s.executions
                ));
            }
            if s.store_runs != s.runs {
                out.problem(format!(
                    "{when}: store holds {} runs, engine {}",
                    s.store_runs, s.runs
                ));
            }
        }
        Err(e) => out.problem(format!("{when}: {e}")),
    }
}

/// What a kill and restart showed.
struct Restarted {
    server: Server,
    /// Spawn to `listening on`, WAL replay included; one per restart.
    seconds: Vec<f64>,
    /// Under the data dir, between the kill and the restart.
    disk_bytes: u64,
    /// Replies to the probe texts before the kill.
    replies: Vec<String>,
}

/// Ask the probe texts, SIGKILL the server and start another on the same
/// data dir (`times` over, each killed in turn), and ask again: every acked
/// execution must still be held and every answer byte-identical.
#[allow(clippy::too_many_arguments)]
fn restart(
    cfg: &RunConfig,
    mut server: Server,
    data_dir: &Path,
    probes: &[Text],
    times: usize,
    held: u64,
    when: &str,
    out: &mut Outcome,
) -> Result<Restarted, String> {
    let (replies, _) = probe(server.addr, probes, cfg.clients, 1, out);
    let mut disk_bytes = 0;
    let mut seconds = Vec::new();
    for _ in 0..times {
        drop(server);
        disk_bytes = host::dir_bytes(data_dir);
        let (next, took) = Server::spawn(&cfg.provctl, &cfg.server_args(data_dir))?;
        server = next;
        seconds.push(took);
    }
    check_stats(out, &server.client(), held, held + cfg.clients as u64, when);
    let (again, _) = probe(server.addr, probes, cfg.clients, 1, out);
    for ((text, before), after) in probes.iter().zip(&replies).zip(&again) {
        if result_part(before) != result_part(after) || before.is_empty() {
            out.problem(format!("{when}: '{}' answers differently", text.pql));
        }
    }
    Ok(Restarted {
        server,
        seconds,
        disk_bytes,
        replies,
    })
}

/// Post the next [`PHASE_INGESTS`] executions: the same work at the same
/// corpus size in every run.
fn ingest_phase(cfg: &RunConfig, server: &Server, pool: &IngestPool<'_>, out: &mut Outcome) {
    let upto = pool.taken() + PHASE_INGESTS;
    let logs = post_until(server.addr, pool, upto, cfg.clients);
    let ms = out.absorb(logs);
    out.ingest.push(Latency::of(&ms));
}

/// One round: set up on a fresh data dir, then (unless this is the short
/// run inside a traced one) read the footprint, kill and restart
/// [`RESTARTS`] times, and on `ingest_durable` ask the query phase. The
/// data dir holds exactly the preload throughout, so `setup_s`,
/// `recovery_s`, `rss_peak_mb`, the disk ratio and the phase latencies are
/// those of the same work in every run, however fast the window goes.
/// `asked` are the texts whose replies must survive the kills; returns the
/// restarted server, its data dir, and the replies to `asked`.
fn round(
    cfg: &RunConfig,
    index: usize,
    pool: &IngestPool<'_>,
    (asked, phase): (&[Text], &[Text]),
    out: &mut Outcome,
) -> Result<(Server, PathBuf, Vec<String>), String> {
    let data_dir = cfg.work_dir.join(format!("data-{index}"));
    let (mut server, logs, seconds) = set_up(cfg, pool, &data_dir, out)?;
    out.setup_s.push(seconds);
    out.user_bytes = logs.iter().map(|log| log.ingest_bytes).sum();
    out.absorb(logs);
    let mut replies = Vec::new();
    if cfg.recovery {
        out.rss_peak_mb.push(host::rss_peak_mb(server.pid()));
        let when = "after the set-up";
        let held = cfg.preload();
        let r = restart(cfg, server, &data_dir, asked, RESTARTS, held, when, out)?;
        server = r.server;
        out.recovery_s.extend(r.seconds);
        out.disk_bytes = r.disk_bytes;
        replies = r.replies;
        if cfg.workload.mix == Mix::Ingest {
            // What a reader of the loaded corpus waits.
            let (_, ms) = probe(server.addr, phase, cfg.clients, PHASE_LAPS, out);
            out.query.push(Latency::of(&ms));
        }
    }
    Ok((server, data_dir, replies))
}

/// [`round`] for a server the window does not run on: where the window has
/// no ingest, the ingest phase follows at once; then the server goes.
fn spare_round(
    cfg: &RunConfig,
    index: usize,
    pool: &IngestPool<'_>,
    phase: &[Text],
    out: &mut Outcome,
) -> Result<(), String> {
    let (server, data_dir, _) = round(cfg, index, pool, (&[], phase), out)?;
    if matches!(cfg.workload.mix, Mix::Cold | Mix::Hot) {
        ingest_phase(cfg, &server, pool, out);
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&data_dir);
    Ok(())
}

/// Parts the window is run in, a spare round between each two.
const PARTS: usize = 3;

/// Run one workload untraced, end to end. The round whose restarted server
/// the window runs on comes first; the window follows in [`PARTS`] equal
/// parts with a spare round between each two, so that rounds and parts
/// each lie spread over the run and a slow half-minute on the host spoils
/// one of them, not all. Window metrics are whole-window statistics over
/// the parts together. Then the checks; where the window
/// ingests, a last kill and restart checks what it wrote.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let wall = Instant::now();
    let mut out = Outcome::default();
    let w = cfg.workload;
    let study = Study { seed: cfg.seed };
    let traffic = Traffic::new(&study, w.mix, cfg.clients, cfg.anchor_execs());
    let window_writes = matches!(w.mix, Mix::Ingest | Mix::Mixed);
    // Ingest bodies to render ahead, per window second: above what the
    // window reaches today (about 200 and 100 a second).
    let pool_size = match w.mix {
        Mix::Ingest => (300.0 * cfg.seconds) as u64,
        Mix::Mixed => (150.0 * cfg.seconds) as u64,
        Mix::Cold | Mix::Hot => PHASE_INGESTS,
    };
    // With ingests in the window, answers over the whole corpus move.
    let moving: Vec<bool> = traffic
        .texts
        .iter()
        .map(|t| w.mix == Mix::Mixed && t.q.is_global())
        .collect();

    // Bodies are rendered before any clock starts: set-up time is the
    // system's, not the generator's.
    let preloaded = cfg.preload();
    let bodies: Vec<(String, usize)> = (1..=preloaded + pool_size)
        .map(|id| render(&study, id))
        .collect();
    let pool = IngestPool::new(&study, &bodies);
    let probe_count = if cfg.smoke {
        w.probes.min(64)
    } else {
        w.probes
    };
    let probes = Traffic::probes(&study, cfg.anchor_execs(), probe_count);
    let (server, data_dir, probe_replies) = round(cfg, 0, &pool, (&probes, &probes), &mut out)?;

    // The window, and the spare rounds between its parts.
    let parts = if cfg.recovery { PARTS } else { 1 };
    let part_seconds = cfg.seconds / parts as f64;
    let pid = server.pid();
    let mut window = Window::new(server.addr, &traffic, &pool, moving);
    let mut firsts: Vec<(usize, String)> = Vec::new();
    let mut moved: Vec<(usize, u64, u64)> = Vec::new();
    let (mut ingest_ms, mut query_ms) = (Vec::new(), Vec::new());
    for part in 0..parts {
        if part > 0 {
            let spare = IngestPool::new(&study, &bodies);
            spare_round(cfg, part, &spare, &probes, &mut out)?;
        }
        let (cpu_before, written_before) = (host::cpu_ms(pid), host::write_bytes(pid));
        let logs = window.part(part_seconds);
        out.cpu_ms += host::cpu_ms(pid) - cpu_before;
        out.write_bytes += host::write_bytes(pid).saturating_sub(written_before);
        let part_ns = (part_seconds * 1e9) as u64;
        for log in logs {
            out.attempted += log.attempted;
            out.failed += log.failed;
            out.problems.extend(log.problems);
            out.shed += log.shed;
            out.window_cached += log.cached;
            out.window_queries += log.queries;
            out.window_ingest_bytes += log.ingest_bytes;
            out.request_bytes += log.request_bytes;
            out.reply_bytes += log.reply_bytes;
            for (ingest, ns, done) in log.samples {
                out.answered += u64::from(done <= part_ns);
                let ms = ns as f64 / 1e6;
                if ingest {
                    ingest_ms.push(ms);
                } else {
                    query_ms.push(ms);
                }
            }
            firsts.extend(log.firsts);
            moved.extend(log.moving);
        }
    }
    if !ingest_ms.is_empty() {
        out.ingest.push(Latency::of(&ingest_ms));
    }
    if !query_ms.is_empty() {
        out.query.push(Latency::of(&query_ms));
    }
    if cfg.recovery && !window_writes {
        ingest_phase(cfg, &server, &pool, &mut out);
    }
    let executions = pool.taken();

    // After the window: the server's own account of what it holds.
    let client = server.client();
    check_stats(
        &mut out,
        &client,
        executions,
        executions,
        "after the window",
    );
    if w.fsync == "always" {
        let metrics = client.metrics().map(|r| r.body).unwrap_or_default();
        // A restarted server replays the preload without appending it.
        let acked = executions - if cfg.recovery { preloaded } else { 0 };
        let appends = series(&metrics, "prov_wal_appends_total");
        let fsyncs = series(&metrics, "prov_wal_fsync_micros_count");
        let checkpoints = series(&metrics, "prov_wal_checkpoint_micros_count");
        // Every append fsyncs under `always`. The server notices fsyncs by
        // watching a counter that restarts at each checkpoint, so it may
        // miss up to two per checkpoint; more than that is a lost fsync.
        if appends != acked || fsyncs + 2 * checkpoints < appends {
            out.problem(format!(
                "/metrics: {appends} appends, {fsyncs} fsyncs, {checkpoints} checkpoints \
                 for {acked} acked ingests"
            ));
        }
    }
    for _ in 0..cfg.healthz_calls {
        let began = Instant::now();
        let ok = client.healthz().is_ok_and(|r| r.status == 200);
        out.healthz_us.push(began.elapsed().as_nanos() as f64 / 1e3);
        if !ok {
            out.problem("healthz did not answer 200".to_string());
        }
    }

    // Full answers: every probe and the first reply to every window text
    // against the preload (window texts never leave it); then, where the
    // window wrote, a last kill, with probes over everything now held.
    let corpus = study.corpus(executions);
    let mut to_check: Vec<(&Text, &str)> = firsts
        .iter()
        .map(|(i, body)| (&traffic.texts[*i], body.as_str()))
        .collect();
    to_check.extend(
        probes
            .iter()
            .zip(&probe_replies)
            .map(|(t, b)| (t, b.as_str())),
    );
    to_check.retain(|(_, body)| !body.is_empty());
    let model = Model::new(&corpus[..preloaded as usize]);
    for wrong in check_answers(&model, &to_check, cfg.clients) {
        out.problem(wrong);
    }
    if cfg.recovery && window_writes {
        let last_probes = Traffic::probes(&study, executions, probe_count.min(32));
        let when = "after the window";
        let r = restart(
            cfg,
            server,
            &data_dir,
            &last_probes,
            1,
            executions,
            when,
            &mut out,
        )?;
        let last: Vec<(&Text, &str)> = last_probes
            .iter()
            .zip(&r.replies)
            .map(|(t, b)| (t, b.as_str()))
            .filter(|(_, body)| !body.is_empty())
            .collect();
        for wrong in check_answers(&Model::new(&corpus), &last, cfg.clients) {
            out.problem(wrong);
        }
    } else {
        drop(server);
    }

    // Answers that move with ingests: the reply names its generation; with
    // `clients` ingests in flight the corpus then held between
    // `generation - clients` and `generation + clients` of the executions.
    let slack = cfg.clients as u64;
    let mut prefix_answers = std::collections::HashMap::new();
    for (i, generation, rows) in moved {
        let counts = prefix_answers
            .entry(i)
            .or_insert_with(|| cumulative(&corpus, &traffic.texts[i].q));
        let at = |p: u64| counts[p.min(executions) as usize];
        let (low, high) = (at(generation.saturating_sub(slack)), at(generation + slack));
        if rows < low || rows > high {
            out.problem(format!(
                "'{}' at generation {generation}: {rows} rows, expected {low}..={high}",
                traffic.texts[i].pql
            ));
        }
    }

    out.problems.truncate(20);
    out.wall_s = wall.elapsed().as_secs_f64();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_scanning_reads_what_the_wire_codec_writes() {
        use prov_query::{QueryResult, ResultNode};
        let reply = |result| {
            wire::render_json(&wire::reply_to_json(&prov_server::QueryReply {
                result,
                generation: 1234,
                micros: 56,
                cached: true,
            }))
        };
        let count = reply(QueryResult::Count(77));
        assert!(count.starts_with("{\"cached\":true"));
        assert_eq!(number_after(&count, "\"generation\":"), Some(1234));
        assert_eq!(reply_len(&count), 77);
        let nodes = reply(QueryResult::Nodes(vec![
            ResultNode::Artifact {
                hash: 7,
                dtype: "grid".into(),
            };
            3
        ]));
        assert_eq!(reply_len(&nodes), 3);
        assert!(result_part(&nodes).starts_with("\"result\":{\"nodes\":["));
        assert_eq!(answer_of(&nodes).unwrap().len(), 3);
        assert_ne!(
            fnv1a(result_part(&nodes).as_bytes()),
            fnv1a(result_part(&count).as_bytes())
        );
    }

    #[test]
    fn prefix_answers_grow_with_the_corpus() {
        let study = Study { seed: 2 };
        let corpus = study.corpus(96);
        let model = Model::new(&corpus);
        for q in [
            gen::Q::MetaCount("runs"),
            gen::Q::MetaCount("artifacts"),
            gen::Q::MetaCount("executions"),
            gen::Q::ListFailed,
        ] {
            let counts = cumulative(&corpus, &q);
            assert_eq!(counts.len(), 97);
            assert!(counts.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(counts[96], model.answer(&q).len(), "{q:?}");
        }
    }
}
