//! The seeded generator: the `study` corpus, the request texts the
//! workloads send, and the model that predicts every answer.
//!
//! Everything here is a pure function of the seed. The server under test
//! receives only the rendered requests; the expected answers come from the
//! generator's own tables ([`Model`]), never from a second engine, so a
//! check costs time linear in the corpus where a reference `PqlEngine`
//! would pay the quadratic ingest again.

use prov_core::model::{Artifact, Environment, ModuleRun, RetrospectiveProvenance};
use prov_query::{QueryResult, ResultNode};
use prov_server::wire;
use prov_telemetry::JsonValue;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use wf_engine::{ExecId, RunStatus};
use wf_model::{NodeId, ParamValue, WorkflowId};

/// Tenant every request is sent as (rate limiting is off by default).
pub const TENANT: &str = "perf";
/// The one namespace a workload drives.
pub const NAMESPACE: &str = "bench";
/// Pipeline stages per execution.
pub const STAGES: u64 = 8;
/// Executions per subject; lineage never leaves a subject, so closures stay
/// bounded (at most `FAMILY * 17` rows) however large the corpus grows.
pub const FAMILY: u64 = 32;
/// Entries in the result cache of a default server (`ServerConfig`).
pub const CACHE_ENTRIES: usize = 128;
/// Per-client schedule length on the query workloads: 32x the cache.
pub const SCHEDULE: usize = 32 * CACHE_ENTRIES;
/// A low-cardinality text recurs no sooner than this many requests later.
pub const RECUR_GAP: usize = 512;

const NAMES: [&str; 12] = [
    "Fetch",
    "Decode",
    "Align",
    "Filter",
    "Segment",
    "Register",
    "Normalize",
    "Measure",
    "Cluster",
    "Render",
    "Summarize",
    "Archive",
];
const DTYPES: [&str; 6] = ["grid", "table", "image", "mesh", "bytes", "scalar"];

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift64*, seeded through splitmix so every seed (0 included) works.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix(seed) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// The corpus `study`: execution `id` is a pure function of `(seed, id)`,
/// so clients may post executions in any order and the model still knows
/// each one.
#[derive(Debug, Clone, Copy)]
pub struct Study {
    pub seed: u64,
}

impl Study {
    fn rng(&self, exec: u64, stream: u64) -> Rng {
        Rng::new(self.seed ^ splitmix(exec.wrapping_mul(8).wrapping_add(stream)))
    }

    /// The stage at which `exec` fails (5 % of executions, stage >= 1).
    fn fail_stage(&self, exec: u64) -> Option<u64> {
        let mut rng = self.rng(exec, 1);
        (rng.below(100) < 5).then(|| 1 + rng.below(STAGES - 1))
    }

    /// Artifact `slot` of `exec`: slot 0 is the raw input, slot `k + 1`
    /// the output of stage `k`.
    pub fn artifact(&self, exec: u64, slot: u64) -> u64 {
        splitmix(self.seed ^ splitmix(exec * 16 + slot) ^ 0xA7F1)
    }

    /// Slot of the last artifact `exec` produced.
    pub fn final_slot(&self, exec: u64) -> u64 {
        self.fail_stage(exec).unwrap_or(STAGES)
    }

    fn dtype(hash: u64) -> &'static str {
        DTYPES[(splitmix(hash) % DTYPES.len() as u64) as usize]
    }

    /// Earlier executions of the same subject whose final artifacts stage 0
    /// of `exec` consumes (none for the first of a subject, else 1 or 2).
    fn parents(&self, exec: u64) -> Vec<u64> {
        let member = (exec - 1) % FAMILY;
        if member == 0 {
            return Vec::new();
        }
        let mut rng = self.rng(exec, 2);
        let first = exec - 1 - rng.below(member.min(3));
        let mut parents = vec![first];
        if member >= 2 && rng.below(2) == 0 {
            let second = exec - member + rng.below(member);
            if second != first {
                parents.push(second);
            }
        }
        parents
    }

    /// The retrospective record of execution `exec` (ids are dense from 1).
    pub fn retro(&self, exec: u64) -> RetrospectiveProvenance {
        let fail_stage = self.fail_stage(exec);
        let last_stage = fail_stage.unwrap_or(STAGES - 1);
        let mut rng = self.rng(exec, 3);
        let started = 1_700_000_000_000 + exec * 60_000;
        let mut artifacts = BTreeMap::new();
        let mut note = |hash: u64| {
            artifacts.entry(hash).or_insert_with(|| Artifact {
                hash,
                dtype: Self::dtype(hash).to_string(),
                size: 1024 + (splitmix(hash) % 65_536) as usize,
                preview: None,
            });
        };
        let mut runs = Vec::with_capacity(last_stage as usize + 1);
        for stage in 0..=last_stage {
            let alternate = stage < 4 && rng.below(2) == 0;
            let name = NAMES[(stage + if alternate { 8 } else { 0 }) as usize];
            let version = match rng.below(10) {
                0..=5 => 1,
                6..=8 => 2,
                _ => 3,
            };
            let failed = fail_stage == Some(stage);
            let attempts = if rng.below(100) < 3 { 2 } else { 1 };
            let mut inputs = vec![self.artifact(exec, stage)];
            if stage == 0 {
                for parent in self.parents(exec) {
                    inputs.push(self.artifact(parent, self.final_slot(parent)));
                }
            } else if stage >= 2 && rng.below(4) == 0 {
                // A skip edge, so some in-execution paths branch.
                inputs.push(self.artifact(exec, stage - 1));
            }
            let outputs = if failed {
                Vec::new()
            } else {
                vec![self.artifact(exec, stage + 1)]
            };
            inputs.iter().chain(&outputs).for_each(|&h| note(h));
            runs.push(ModuleRun {
                node: NodeId(stage),
                identity: format!("{name}@{version}"),
                params: vec![
                    ("level".to_string(), ParamValue::Int(rng.below(9) as i64)),
                    (
                        "mode".to_string(),
                        ParamValue::Text(["fast", "exact", "robust"][rng.below(3) as usize].into()),
                    ),
                ],
                status: if failed {
                    RunStatus::Failed
                } else {
                    RunStatus::Succeeded
                },
                started_millis: started + stage * 40,
                elapsed_micros: 500 + rng.below(30_000),
                from_cache: false,
                error: failed.then(|| format!("{name} rejected its input")),
                inputs: inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &h)| (format!("in{i}"), h))
                    .collect(),
                outputs: outputs.iter().map(|&h| ("out".to_string(), h)).collect(),
                attempts,
                backoff_micros: if attempts > 1 { 1_500 } else { 0 },
            });
        }
        let subject = (exec - 1) / FAMILY;
        RetrospectiveProvenance {
            exec: ExecId(exec),
            workflow: WorkflowId(1 + subject % 4),
            workflow_name: format!("study-{}", subject % 4),
            status: if fail_stage.is_some() {
                RunStatus::Failed
            } else {
                RunStatus::Succeeded
            },
            started_millis: started,
            finished_millis: started + (last_stage + 1) * 40,
            runs,
            artifacts,
            environment: Environment {
                os: "linux".into(),
                arch: "x86_64".into(),
                engine: "perf-gen 1".into(),
                threads: 1,
            },
            resumed_from: None,
        }
    }

    /// Executions `1..=n`.
    pub fn corpus(&self, n: u64) -> Vec<RetrospectiveProvenance> {
        (1..=n).map(|id| self.retro(id)).collect()
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn json_object<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A request body: tenant, namespace, and whatever else the route takes.
fn body(mut fields: Vec<(&str, JsonValue)>) -> String {
    fields.push(("tenant", JsonValue::String(TENANT.into())));
    fields.push(("namespace", JsonValue::String(NAMESPACE.into())));
    wire::render_json(&json_object(fields))
}

/// The `/v1/ingest` body for one execution, with its idempotency key.
pub fn ingest_body(retro: &RetrospectiveProvenance) -> String {
    body(vec![
        ("request_id", JsonValue::String(request_id(retro.exec.0))),
        ("retro", wire::retro_to_json(retro)),
    ])
}

/// The idempotency key the generator gives execution `exec`.
pub fn request_id(exec: u64) -> String {
    format!("exec-{exec}")
}

/// The `/v1/query` body for one PQL text.
pub fn query_body(pql: &str) -> String {
    body(vec![("pql", JsonValue::String(pql.into()))])
}

/// The `/v1/create` and `/v1/stats` body.
pub fn namespace_body() -> String {
    body(Vec::new())
}

/// The eight query shapes, by the names the per-layer metrics use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    LineageFull,
    LineageD4,
    ImpactFull,
    PathsChain,
    ScanExec,
    IndexFailed,
    MetaCount,
    ListFailed,
}

impl Shape {
    pub const ALL: [Shape; 8] = [
        Shape::LineageFull,
        Shape::LineageD4,
        Shape::ImpactFull,
        Shape::PathsChain,
        Shape::ScanExec,
        Shape::IndexFailed,
        Shape::MetaCount,
        Shape::ListFailed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Shape::LineageFull => "lineage_full",
            Shape::LineageD4 => "lineage_d4",
            Shape::ImpactFull => "impact_full",
            Shape::PathsChain => "paths_chain",
            Shape::ScanExec => "scan_exec",
            Shape::IndexFailed => "index_failed",
            Shape::MetaCount => "meta_count",
            Shape::ListFailed => "list_failed",
        }
    }
}

/// One query with the parameters the model needs to answer it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Q {
    /// `lineage of artifact H`
    LineageFull(u64),
    /// `lineage of artifact H depth 4 where module = "M"`
    LineageD4(u64, &'static str),
    /// `impact of artifact H`
    ImpactFull(u64),
    /// `paths from artifact A to artifact B max 10`
    PathsChain(u64, u64),
    /// `list runs where exec = N and module = "M"`
    ScanExec(u64, &'static str),
    /// `count runs where status = failed and module = "M@v"`
    IndexFailed(String),
    /// `count runs` / `count artifacts` / `count executions`
    MetaCount(&'static str),
    /// `list executions where status = failed`
    ListFailed,
}

impl Q {
    pub fn shape(&self) -> Shape {
        match self {
            Q::LineageFull(_) => Shape::LineageFull,
            Q::LineageD4(..) => Shape::LineageD4,
            Q::ImpactFull(_) => Shape::ImpactFull,
            Q::PathsChain(..) => Shape::PathsChain,
            Q::ScanExec(..) => Shape::ScanExec,
            Q::IndexFailed(_) => Shape::IndexFailed,
            Q::MetaCount(_) => Shape::MetaCount,
            Q::ListFailed => Shape::ListFailed,
        }
    }

    pub fn text(&self) -> String {
        match self {
            Q::LineageFull(h) => format!("lineage of artifact {h:016x}"),
            Q::LineageD4(h, m) => {
                format!("lineage of artifact {h:016x} depth 4 where module = \"{m}\"")
            }
            Q::ImpactFull(h) => format!("impact of artifact {h:016x}"),
            Q::PathsChain(a, b) => {
                format!("paths from artifact {a:016x} to artifact {b:016x} max 10")
            }
            Q::ScanExec(n, m) => format!("list runs where exec = {n} and module = \"{m}\""),
            Q::IndexFailed(identity) => {
                format!("count runs where status = failed and module = \"{identity}\"")
            }
            Q::MetaCount(entity) => format!("count {entity}"),
            Q::ListFailed => "list executions where status = failed".to_string(),
        }
    }

    /// Does the answer depend on executions outside the anchored subject?
    /// Such answers move with every ingest; the others are fixed once their
    /// subject is complete.
    pub fn is_global(&self) -> bool {
        matches!(self, Q::IndexFailed(_) | Q::MetaCount(_) | Q::ListFailed)
    }
}

/// A query answer in canonical form: a count, or the sorted row keys
/// (paths are one key each), so two answers compare regardless of the
/// adjacency order concurrent ingests happened to leave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Count(u64),
    Rows(Vec<String>),
}

impl Answer {
    pub fn len(&self) -> u64 {
        match self {
            Answer::Count(n) => *n,
            Answer::Rows(rows) => rows.len() as u64,
        }
    }

    /// The canonical form of a served result.
    pub fn of_result(result: &QueryResult) -> Answer {
        fn key(node: &ResultNode) -> String {
            match node {
                ResultNode::Run {
                    exec,
                    node,
                    identity,
                    status,
                } => format!("r:{exec}/{node}:{identity}:{status}"),
                ResultNode::Artifact { hash, dtype } => format!("a:{hash:016x}:{dtype}"),
                ResultNode::Execution {
                    exec,
                    workflow,
                    status,
                } => format!("e:{exec}:{workflow}:{status}"),
            }
        }
        let mut rows: Vec<String> = match result {
            QueryResult::Count(n) => return Answer::Count(*n as u64),
            QueryResult::Nodes(nodes) => nodes.iter().map(key).collect(),
            QueryResult::Paths(paths) => paths
                .iter()
                .map(|p| p.iter().map(key).collect::<Vec<_>>().join(">"))
                .collect(),
        };
        rows.sort();
        Answer::Rows(rows)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MNode {
    Art(u64),
    Run(u64, u64),
}

#[derive(Debug, Default)]
struct ArtRow {
    dtype: String,
    producers: Vec<(u64, u64)>,
    consumers: Vec<(u64, u64)>,
}

/// The generator's tables over executions `1..=n`, and the answers they
/// imply.
#[derive(Debug)]
pub struct Model<'a> {
    execs: &'a [RetrospectiveProvenance],
    arts: HashMap<u64, ArtRow>,
}

impl<'a> Model<'a> {
    /// `corpus[i]` must be execution `i + 1`, node ids equal to stage index.
    pub fn new(corpus: &'a [RetrospectiveProvenance]) -> Model<'a> {
        let mut arts: HashMap<u64, ArtRow> = HashMap::new();
        for retro in corpus {
            for (hash, artifact) in &retro.artifacts {
                arts.entry(*hash).or_default().dtype = artifact.dtype.clone();
            }
            for run in &retro.runs {
                let id = (retro.exec.0, run.node.raw());
                for (_, h) in &run.inputs {
                    arts.entry(*h).or_default().consumers.push(id);
                }
                for (_, h) in &run.outputs {
                    arts.entry(*h).or_default().producers.push(id);
                }
            }
        }
        Model {
            execs: corpus,
            arts,
        }
    }

    pub fn executions(&self) -> u64 {
        self.execs.len() as u64
    }

    fn run(&self, exec: u64, node: u64) -> &ModuleRun {
        &self.execs[exec as usize - 1].runs[node as usize]
    }

    fn next(&self, n: MNode, upstream: bool) -> Vec<MNode> {
        let art = |&(_, h): &(String, u64)| MNode::Art(h);
        let run = |&(e, k): &(u64, u64)| MNode::Run(e, k);
        match (n, upstream) {
            (MNode::Art(h), true) => self.arts[&h].producers.iter().map(run).collect(),
            (MNode::Art(h), false) => self.arts[&h].consumers.iter().map(run).collect(),
            (MNode::Run(e, k), true) => self.run(e, k).inputs.iter().map(art).collect(),
            (MNode::Run(e, k), false) => self.run(e, k).outputs.iter().map(art).collect(),
        }
    }

    fn key(&self, n: MNode) -> String {
        match n {
            MNode::Art(h) => format!("a:{h:016x}:{}", self.arts[&h].dtype),
            MNode::Run(e, k) => {
                let run = self.run(e, k);
                format!("r:{e}/{k}:{}:{}", run.identity, run.status)
            }
        }
    }

    fn closure(
        &self,
        start: u64,
        upstream: bool,
        depth: Option<u64>,
        module: Option<&str>,
    ) -> Answer {
        let start = MNode::Art(start);
        let mut seen: HashSet<MNode> = [start].into();
        let mut queue: VecDeque<(MNode, u64)> = [(start, 0)].into();
        let mut rows = Vec::new();
        while let Some((n, d)) = queue.pop_front() {
            if depth == Some(d) {
                continue;
            }
            for m in self.next(n, upstream) {
                if !seen.insert(m) {
                    continue;
                }
                let keep = match (module, m) {
                    (None, _) => true,
                    (Some(name), MNode::Run(e, k)) => {
                        module_matches(&self.run(e, k).identity, name)
                    }
                    (Some(_), MNode::Art(_)) => false,
                };
                if keep {
                    rows.push(self.key(m));
                }
                queue.push_back((m, d + 1));
            }
        }
        rows.sort();
        Answer::Rows(rows)
    }

    fn paths(&self, from: u64, to: u64, max_edges: u64) -> Answer {
        fn walk(
            model: &Model<'_>,
            to: MNode,
            budget: u64,
            stack: &mut Vec<MNode>,
            out: &mut Vec<String>,
        ) {
            let cur = *stack.last().expect("the path starts non-empty");
            if cur == to {
                out.push(
                    stack
                        .iter()
                        .map(|&n| model.key(n))
                        .collect::<Vec<_>>()
                        .join(">"),
                );
                return;
            }
            if budget == 0 {
                return;
            }
            for n in model.next(cur, false) {
                if !stack.contains(&n) {
                    stack.push(n);
                    walk(model, to, budget - 1, stack, out);
                    stack.pop();
                }
            }
        }
        let mut rows = Vec::new();
        walk(
            self,
            MNode::Art(to),
            max_edges,
            &mut vec![MNode::Art(from)],
            &mut rows,
        );
        rows.sort();
        Answer::Rows(rows)
    }

    /// The answer the corpus implies for `q`.
    pub fn answer(&self, q: &Q) -> Answer {
        match q {
            Q::LineageFull(h) => self.closure(*h, true, None, None),
            Q::LineageD4(h, m) => self.closure(*h, true, Some(4), Some(m)),
            Q::ImpactFull(h) => self.closure(*h, false, None, None),
            Q::PathsChain(a, b) => self.paths(*a, *b, 10),
            Q::ScanExec(n, m) => {
                let mut rows: Vec<String> = self.execs[*n as usize - 1]
                    .runs
                    .iter()
                    .filter(|r| module_matches(&r.identity, m))
                    .map(|r| self.key(MNode::Run(*n, r.node.raw())))
                    .collect();
                rows.sort();
                Answer::Rows(rows)
            }
            Q::IndexFailed(identity) => Answer::Count(
                self.execs
                    .iter()
                    .flat_map(|e| &e.runs)
                    .filter(|r| r.status == RunStatus::Failed && r.identity == *identity)
                    .count() as u64,
            ),
            Q::MetaCount(entity) => Answer::Count(match *entity {
                "runs" => self.execs.iter().map(|e| e.runs.len()).sum::<usize>() as u64,
                "artifacts" => self.arts.len() as u64,
                _ => self.executions(),
            }),
            Q::ListFailed => {
                let mut rows: Vec<String> = self
                    .execs
                    .iter()
                    .filter(|e| e.status == RunStatus::Failed)
                    .map(|e| format!("e:{}:{}:{}", e.exec.0, e.workflow_name, e.status))
                    .collect();
                rows.sort();
                Answer::Rows(rows)
            }
        }
    }
}

/// PQL `module = value`: the full identity or the bare name, ignoring case.
fn module_matches(identity: &str, value: &str) -> bool {
    identity.eq_ignore_ascii_case(value)
        || identity
            .split('@')
            .next()
            .is_some_and(|name| name.eq_ignore_ascii_case(value))
}

/// Dashboard texts of `query_hot` and `mixed_sharded`.
pub const DASHBOARDS: usize = 8;

/// Which traffic a workload's window carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every request ingests the next execution.
    Ingest,
    /// Every query text is new to the result cache.
    Cold,
    /// Eight dashboard texts, all resident in the result cache.
    Hot,
    /// 10 % ingest, 45 % dashboard texts, 45 % cold pool.
    Mixed,
}

/// One step of a client's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Post the next execution nobody has posted yet.
    Ingest,
    /// Send query text `i` of [`Traffic::texts`].
    Query(usize),
}

/// A query text ready to send.
#[derive(Debug, Clone)]
pub struct Text {
    pub q: Q,
    pub pql: String,
    pub body: String,
}

impl Text {
    fn new(q: Q) -> Text {
        let pql = q.text();
        let body = query_body(&pql);
        Text { q, pql, body }
    }
}

/// The seeded request stream of one run: what each client sends, in order.
#[derive(Debug, Clone)]
pub struct Traffic {
    pub texts: Vec<Text>,
    /// One cyclic schedule per client.
    pub schedules: Vec<Vec<Op>>,
}

/// Draws query texts anchored in executions `1..=anchor_execs`, each text
/// at most once.
struct TextPool<'a> {
    study: &'a Study,
    anchor_execs: u64,
    rng: Rng,
    issued: HashSet<Q>,
    drawn: usize,
}

impl<'a> TextPool<'a> {
    fn new(study: &'a Study, anchor_execs: u64, salt: u64) -> TextPool<'a> {
        TextPool {
            study,
            anchor_execs,
            rng: Rng::new(study.seed ^ salt),
            issued: HashSet::new(),
            drawn: 0,
        }
    }

    /// The next parameterised text, shapes in their fixed shares.
    fn next(&mut self) -> Q {
        self.drawn += 1;
        self.fresh(weighted_shape(self.drawn))
    }
}

impl TextPool<'_> {
    fn exec(&mut self) -> u64 {
        1 + self.rng.below(self.anchor_execs)
    }

    fn artifact(&mut self, min_slot: u64) -> u64 {
        let exec = self.exec();
        let last = self.study.final_slot(exec);
        let slot = min_slot + self.rng.below(last + 1 - min_slot);
        self.study.artifact(exec, slot)
    }

    /// A module name for a filter: three times in four the one `stage` of
    /// `exec` ran (so the filter keeps something), else any.
    fn module(&mut self, exec: u64, stage: u64) -> &'static str {
        if self.rng.below(4) == 0 {
            return self.rng.pick::<&str>(&NAMES);
        }
        let identity = &self.study.retro(exec).runs[stage as usize].identity;
        NAMES
            .iter()
            .find(|name| identity.starts_with(&format!("{name}@")))
            .expect("every stage runs a named module")
    }

    /// A text of `shape` not issued before — or, once a corpus too small
    /// for that (a smoke run) has nothing new after 32 draws, a repeat.
    /// The low-cardinality shapes have few texts; the caller places those
    /// by hand.
    fn fresh(&mut self, shape: Shape) -> Q {
        for attempt in 0.. {
            let q = match shape {
                Shape::LineageFull => Q::LineageFull(self.artifact(1)),
                Shape::LineageD4 => {
                    // Depth 4 reaches the stage that made the artifact and
                    // the one before it.
                    let exec = self.exec();
                    let made_by = self.rng.below(self.study.final_slot(exec));
                    let stage = made_by.saturating_sub(self.rng.below(2));
                    let module = self.module(exec, stage);
                    Q::LineageD4(self.study.artifact(exec, made_by + 1), module)
                }
                Shape::ImpactFull => Q::ImpactFull(self.artifact(0)),
                Shape::PathsChain => {
                    let exec = self.exec();
                    let last = self.study.final_slot(exec);
                    let from = self.rng.below(last);
                    let to = from + 1 + self.rng.below((last - from).min(5));
                    Q::PathsChain(
                        self.study.artifact(exec, from),
                        self.study.artifact(exec, to),
                    )
                }
                Shape::ScanExec => {
                    let exec = self.exec();
                    let stage = self.rng.below(self.study.final_slot(exec));
                    Q::ScanExec(exec, self.module(exec, stage))
                }
                Shape::IndexFailed | Shape::MetaCount | Shape::ListFailed => {
                    unreachable!("low-cardinality shapes are enumerated, not drawn")
                }
            };
            if self.issued.insert(q.clone()) || attempt >= 32 {
                return q;
            }
        }
        unreachable!("the loop returns")
    }
}

/// Share of each parameterised shape among the cold slots, in percent.
pub const COLD_WEIGHTS: [(Shape, u64); 5] = [
    (Shape::LineageFull, 20),
    (Shape::LineageD4, 20),
    (Shape::ImpactFull, 15),
    (Shape::PathsChain, 15),
    (Shape::ScanExec, 30),
];

/// Percent of `mixed_sharded` requests that ingest and that ask a dashboard
/// text; the rest ask a text new to the cache.
pub const MIXED_SHARES: (u64, u64) = (10, 45);

/// A percentage roll for the `k`-th choice of a sequence: every hundred
/// consecutive choices see each value of `0..100` once, so a mix has its
/// exact shares whatever the seed. (A drawn mix moves the shares by a few
/// points from seed to seed, and a latency percentile that falls between a
/// cheap and a dear shape moves a long way with them.)
fn stratified(k: usize) -> u64 {
    (k as u64 * 37) % 100
}

fn weighted_shape(k: usize) -> Shape {
    let mut roll = stratified(k);
    for (shape, weight) in COLD_WEIGHTS {
        if roll < weight {
            return shape;
        }
        roll -= weight;
    }
    unreachable!("the cold weights sum to 100")
}

/// Every low-cardinality text: 36 `index_failed`, 3 `meta_count`, 1
/// `list_failed`.
fn low_cardinality() -> Vec<Q> {
    let mut out = Vec::new();
    for name in NAMES {
        for version in 1..=3 {
            out.push(Q::IndexFailed(format!("{name}@{version}")));
        }
    }
    out.extend(["runs", "artifacts", "executions"].map(Q::MetaCount));
    out.push(Q::ListFailed);
    out
}

/// Rows of `lineage of artifact <final of exec>`: the upstream stages and
/// artifacts of the execution and of every ancestor in its subject.
fn lineage_rows(study: &Study, exec: u64) -> u64 {
    let mut ancestors = vec![exec];
    let mut i = 0;
    while i < ancestors.len() {
        for parent in study.parents(ancestors[i]) {
            if !ancestors.contains(&parent) {
                ancestors.push(parent);
            }
        }
        i += 1;
    }
    let nodes: u64 = ancestors.iter().map(|&e| 2 * study.final_slot(e) + 1).sum();
    nodes - 1
}

/// The eight dashboard texts of `query_hot` and `mixed_sharded`. A hit is
/// served by cloning and encoding the cached result, so its cost follows
/// the reply size: the anchored texts are chosen for their row counts
/// (101 — six whole pipelines — and 16), not drawn, and every seed gets dashboards of
/// one size.
fn dashboards(study: &Study, anchor_execs: u64, rng: &mut Rng) -> [Q; DASHBOARDS] {
    let from = rng.below(anchor_execs);
    let candidates = || (0..anchor_execs).map(move |i| 1 + (from + i) % anchor_execs);
    let deep = candidates()
        .min_by_key(|&e| lineage_rows(study, e).abs_diff(101))
        .expect("the anchor range is not empty");
    // The last of a subject has no consumer: its impact is its own pipeline.
    let leaf = candidates()
        .find(|&e| e % FAMILY == 0 && study.final_slot(e) == STAGES)
        .unwrap_or(deep);
    let scanned = 1 + rng.below(anchor_execs);
    [
        Q::MetaCount("runs"),
        Q::MetaCount("artifacts"),
        Q::MetaCount("executions"),
        Q::IndexFailed("Align@1".to_string()),
        Q::IndexFailed("Measure@2".to_string()),
        Q::ScanExec(scanned, "Measure"),
        Q::LineageFull(study.artifact(deep, study.final_slot(deep))),
        Q::ImpactFull(study.artifact(leaf, 0)),
    ]
}

impl Traffic {
    /// The request stream of one run. Query texts name only artifacts and
    /// executions of `1..=anchor_execs`; the caller keeps every subject in
    /// that range closed to later ingests, so those answers never move.
    pub fn new(study: &Study, mix: Mix, clients: usize, anchor_execs: u64) -> Traffic {
        let mut rng = Rng::new(study.seed ^ 0x007A_FF1C);
        let mut texts: Vec<Text> = Vec::new();
        let mut schedules = vec![Vec::with_capacity(SCHEDULE); clients];
        if mix == Mix::Ingest {
            for schedule in &mut schedules {
                schedule.push(Op::Ingest);
            }
            return Traffic { texts, schedules };
        }
        let mut pool = TextPool::new(study, anchor_execs, 0xC01D);
        let mut add = |q: Q| {
            texts.push(Text::new(q));
            Op::Query(texts.len() - 1)
        };
        let hot: Vec<Op> = if mix == Mix::Cold {
            Vec::new()
        } else {
            dashboards(study, anchor_execs, &mut rng)
                .into_iter()
                .map(&mut add)
                .collect()
        };
        // Low-cardinality texts go to one client each, every RECUR_GAP
        // slots, so the 128-entry LRU has long forgotten a text when it
        // comes round again; two clients never share one.
        let low: Vec<Op> = if mix == Mix::Cold {
            low_cardinality().into_iter().map(&mut add).collect()
        } else {
            Vec::new()
        };
        for (c, schedule) in schedules.iter_mut().enumerate() {
            let mine: Vec<Op> = low.iter().skip(c).step_by(clients).copied().collect();
            for slot in 0..SCHEDULE {
                let op = match mix {
                    Mix::Hot => *rng.pick(&hot),
                    Mix::Cold => {
                        let at = slot % RECUR_GAP;
                        let stride = RECUR_GAP / mine.len().max(1);
                        if at.is_multiple_of(stride) && at / stride < mine.len() {
                            mine[at / stride]
                        } else {
                            add(pool.next())
                        }
                    }
                    // Clients start evenly apart in the cycle, so their
                    // ingests are not scheduled to collide.
                    Mix::Mixed => {
                        let roll = stratified(slot + c * 100 / clients);
                        if roll < MIXED_SHARES.0 {
                            Op::Ingest
                        } else if roll < MIXED_SHARES.0 + MIXED_SHARES.1 {
                            *rng.pick(&hot)
                        } else {
                            add(pool.next())
                        }
                    }
                    Mix::Ingest => unreachable!("handled above"),
                };
                schedule.push(op);
            }
        }
        Traffic { texts, schedules }
    }

    /// `count` distinct parameterised texts for the before/after-restart
    /// probe, anchored in `1..=anchor_execs`.
    pub fn probes(study: &Study, anchor_execs: u64, count: usize) -> Vec<Text> {
        let mut pool = TextPool::new(study, anchor_execs, 0x51DE);
        (0..count).map(|_| Text::new(pool.next())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_query::PqlEngine;

    fn stream(seed: u64) -> Vec<String> {
        let study = Study { seed };
        let mut out: Vec<String> = study.corpus(40).iter().map(ingest_body).collect();
        for mix in [Mix::Cold, Mix::Hot, Mix::Mixed] {
            let traffic = Traffic::new(&study, mix, 2, 32);
            out.extend(traffic.texts.iter().map(|t| t.body.clone()));
            out.push(format!("{:?}", traffic.schedules));
        }
        out
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_differs() {
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn documents_have_the_specified_shape() {
        let study = Study { seed: 3 };
        let corpus = study.corpus(640);
        let failed = corpus
            .iter()
            .filter(|r| r.status == RunStatus::Failed)
            .count();
        assert!((10..=60).contains(&failed), "about 5 % fail, got {failed}");
        for retro in &corpus {
            let stages = retro.runs.len() as u64;
            assert!((2..=STAGES).contains(&stages));
            assert_eq!(
                retro.status == RunStatus::Failed,
                stages < STAGES || retro.runs.last().unwrap().status == RunStatus::Failed
            );
            for (i, run) in retro.runs.iter().enumerate() {
                assert_eq!(run.node.raw(), i as u64);
            }
        }
        let bytes: usize = corpus.iter().map(|r| ingest_body(r).len()).sum();
        let mean = bytes / corpus.len();
        assert!((2_800..=4_200).contains(&mean), "mean body {mean} B");
    }

    #[test]
    fn model_agrees_with_the_engine_on_all_eight_shapes() {
        let study = Study { seed: 11 };
        let corpus = study.corpus(64);
        let mut engine = PqlEngine::new();
        for retro in &corpus {
            engine.ingest(retro);
        }
        let model = Model::new(&corpus);
        let traffic = Traffic::new(&study, Mix::Cold, 2, 64);
        let mut seen: HashMap<Shape, usize> = HashMap::new();
        let mut nonempty: HashMap<Shape, usize> = HashMap::new();
        for text in traffic.texts.iter().take(1_500) {
            let served = engine.eval(&text.pql).expect("generated texts evaluate");
            let expected = model.answer(&text.q);
            assert_eq!(Answer::of_result(&served), expected, "{}", text.pql);
            *seen.entry(text.q.shape()).or_default() += 1;
            if expected.len() > 0 {
                *nonempty.entry(text.q.shape()).or_default() += 1;
            }
        }
        for shape in Shape::ALL {
            assert!(
                seen.get(&shape).copied().unwrap_or(0) > 0,
                "{shape:?} unseen"
            );
            assert!(
                nonempty.get(&shape).copied().unwrap_or(0) > 0,
                "{shape:?} always empty"
            );
        }
    }

    #[test]
    fn closures_stay_inside_their_subject() {
        let study = Study { seed: 5 };
        let corpus = study.corpus(4 * FAMILY);
        let model = Model::new(&corpus);
        for exec in 1..=4 * FAMILY {
            let h = study.artifact(exec, study.final_slot(exec));
            let rows = model.answer(&Q::LineageFull(h)).len();
            assert!((2..=FAMILY * 17).contains(&rows), "{rows} rows");
        }
    }

    #[test]
    fn dashboards_have_the_same_reply_sizes_for_every_seed() {
        for seed in 1..=6 {
            let study = Study { seed };
            let corpus = study.corpus(512);
            let model = Model::new(&corpus);
            let traffic = Traffic::new(&study, Mix::Hot, 2, 512);
            assert_eq!(traffic.texts.len(), DASHBOARDS);
            for text in &traffic.texts {
                let rows = model.answer(&text.q).len();
                match text.q {
                    Q::LineageFull(_) => assert_eq!(rows, 101),
                    Q::ImpactFull(_) => assert_eq!(rows, 16),
                    Q::ScanExec(..) => assert!(rows <= 1),
                    _ => assert!(text.q.is_global()),
                }
            }
        }
    }

    #[test]
    fn cold_schedules_never_repeat_a_text_within_the_gap() {
        let study = Study { seed: 9 };
        let traffic = Traffic::new(&study, Mix::Cold, 2, 500);
        let mut owner: HashMap<usize, usize> = HashMap::new();
        for (c, schedule) in traffic.schedules.iter().enumerate() {
            assert_eq!(schedule.len(), SCHEDULE);
            let mut last: HashMap<usize, usize> = HashMap::new();
            // Two laps, so the wrap-around is covered too.
            for (at, op) in schedule.iter().chain(schedule.iter()).enumerate() {
                let Op::Query(i) = *op else {
                    panic!("cold has no ingest")
                };
                assert_eq!(
                    *owner.entry(i).or_insert(c),
                    c,
                    "text {i} shared by clients"
                );
                if let Some(prev) = last.insert(i, at) {
                    assert!(
                        at - prev >= RECUR_GAP,
                        "text {i} recurs after {}",
                        at - prev
                    );
                }
            }
        }
        let shapes: HashSet<Shape> = traffic.texts.iter().map(|t| t.q.shape()).collect();
        assert_eq!(shapes.len(), 8);
    }
}
