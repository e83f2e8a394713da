//! Scatter-gather PQL over execution-hash shards.
//!
//! §3 of the tutorial asks how provenance stores stay queryable as corpora
//! grow to millions of runs. [`ShardedEngine`] answers at the query layer:
//! N inner [`PqlEngine`] shards partitioned by a seeded hash of the
//! execution id (lineage locality follows the run, so a run and all of its
//! run-side edges are wholly shard-local), plus a thin coordinator that
//! mirrors only the artifact-side adjacency and the artifact catalog in
//! global ingest order — artifacts are the only cross-shard joints.
//!
//! Queries fan out across shards on scoped threads and merge:
//!
//! * **closures** run a level-synchronous BFS — each frontier level's
//!   neighbor fetches scatter to the owning shards (and the coordinator
//!   for artifact nodes) in parallel, then gather sequentially in frontier
//!   order, which reproduces the single engine's FIFO discovery order
//!   bit for bit;
//! * **scans** over runs/executions run per shard and merge by key order
//!   (executions are disjoint across shards, so the merged order equals
//!   the single engine's scan order);
//! * **filters and collects** route each row to its owning shard (or the
//!   coordinator for artifacts) and reassemble by input position.
//!
//! Every shard adopts one shared [`StoreStats`] recorder, so EXPLAIN
//! ANALYZE access totals sum exactly across shards: for closure and path
//! queries the totals equal the unsharded engine's to the last counter.
//! The plan grows a [`PlanOp::ScatterGather`] operator whose EXPLAIN
//! ANALYZE rendering carries one child row per shard. The optimizer's
//! decision core ([`crate::optimize`]) runs against summed cardinalities
//! and posting lengths, so rewrite decisions match the single engine.

use crate::ast::*;
use crate::error::PqlError;
use crate::eval::{note_artifacts, PNode, Postings, PqlEngine, QueryResult, ResultNode, ScanItem};
use crate::optimize::{optimize_with, Optimization, QueryCache, Rewrite};
use crate::parser::parse;
use crate::plan::{Analysis, CostModel, OpReport, Plan, PlanNode, PlanOp};
use prov_core::model::RetrospectiveProvenance;
use prov_store::{shard_of, StatsSnapshot, StoreStats, DEFAULT_SHARD_SEED};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use wf_engine::ExecId;

/// Below this many routed rows a stage runs sequentially: scoped-thread
/// spawn overhead would swamp the per-row work.
const PARALLEL_FANOUT: usize = 256;

/// Per-lane (shard or coordinator) accounting for one scatter stage.
#[derive(Debug, Default, Clone, Copy)]
struct Lane {
    rows_in: usize,
    rows_out: usize,
    micros: u64,
}

/// N [`PqlEngine`] shards behind one scatter-gather query surface.
///
/// Results — rows, order, and error strings — are identical to a single
/// [`PqlEngine`] fed the same documents in the same order; the differential
/// harness pins this as the `sharded(N)` evaluation modes.
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<PqlEngine>,
    seed: u64,
    /// Shared recorder: every shard's counted accessors bump this block.
    stats: StoreStats,
    /// Mirror of the single engine's artifact catalog (hash → dtype),
    /// maintained in global ingest order so first-writer-wins dtypes and
    /// describe/filter output match the unsharded engine exactly.
    catalog: BTreeMap<u64, String>,
    /// Artifact-side adjacency: runs consuming the artifact, in global
    /// edge-insertion order (the single engine's `succ[Artifact]`).
    art_succ: BTreeMap<u64, Vec<PNode>>,
    /// Runs producing the artifact (the single engine's `pred[Artifact]`).
    art_pred: BTreeMap<u64, Vec<PNode>>,
    /// Global dtype index over the catalog.
    dtype_index: Postings<u64>,
    /// Raises `generation()` above the shard sum after WAL recovery.
    gen_floor: u64,
    /// Cache-partitioning backend key, `sharded(N)`.
    backend_key: String,
}

impl ShardedEngine {
    /// A sharded engine with the default routing seed.
    pub fn new(shards: usize) -> Self {
        Self::with_seed(shards, DEFAULT_SHARD_SEED)
    }

    /// A sharded engine with an explicit routing seed (shard count is
    /// clamped to at least 1).
    pub fn with_seed(shards: usize, seed: u64) -> Self {
        let n = shards.max(1);
        let stats = StoreStats::default();
        let shards = (0..n)
            .map(|_| {
                let mut e = PqlEngine::new();
                e.adopt_stats(&stats);
                e
            })
            .collect();
        ShardedEngine {
            shards,
            seed,
            stats,
            catalog: BTreeMap::new(),
            art_succ: BTreeMap::new(),
            art_pred: BTreeMap::new(),
            dtype_index: Postings::default(),
            gen_floor: 0,
            backend_key: format!("sharded({n})"),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The routing seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard an execution routes to.
    pub fn route(&self, exec: ExecId) -> usize {
        shard_of(self.seed, exec, self.shards.len())
    }

    /// Read access to one shard engine (tests, stats endpoints).
    pub fn shard(&self, i: usize) -> &PqlEngine {
        &self.shards[i]
    }

    /// The cache-partitioning backend key, `sharded(N)`.
    pub fn backend_key(&self) -> &str {
        &self.backend_key
    }

    /// The shared access recorder (all shards bump it).
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Per-shard ingest generations.
    pub fn generations(&self) -> Vec<u64> {
        self.shards.iter().map(PqlEngine::generation).collect()
    }

    /// Global generation: the recovery floor plus the *sum* of per-shard
    /// generations, so an ingest into any shard — not just shard 0 —
    /// advances it and invalidates cached results (see [`Self::eval_cached`]).
    pub fn generation(&self) -> u64 {
        self.gen_floor + self.generations().iter().sum::<u64>()
    }

    /// Raise the generation to at least `watermark` after WAL recovery.
    /// Replay is compacted (fewer ingests than the pre-crash process saw),
    /// so without the floor cached pre-crash results would appear fresh.
    pub fn restore_generation(&mut self, watermark: u64) {
        let sum: u64 = self.generations().iter().sum();
        self.gen_floor = self.gen_floor.max(watermark.saturating_sub(sum));
    }

    /// Total ingested runs across shards.
    pub fn run_count(&self) -> usize {
        self.shards.iter().map(PqlEngine::run_count).sum()
    }

    /// Known artifacts (coordinator catalog).
    pub fn artifact_count(&self) -> usize {
        self.catalog.len()
    }

    /// Total ingested executions across shards (disjoint by routing).
    pub fn exec_count(&self) -> usize {
        self.shards.iter().map(PqlEngine::exec_count).sum()
    }

    /// Total dataflow edges across shards (each edge lives in exactly the
    /// shard of its run endpoint, so the sum counts each edge once).
    pub fn edge_count(&self) -> usize {
        self.shards.iter().map(PqlEngine::edge_count).sum()
    }

    /// Summed cardinalities — identical to the single engine's cost model
    /// over the same corpus, so row estimates and rewrite decisions match.
    pub fn cost_model(&self) -> CostModel {
        CostModel {
            runs: self.run_count() as u64,
            artifacts: self.artifact_count() as u64,
            execs: self.exec_count() as u64,
            edges: self.edge_count() as u64,
        }
    }

    /// Ingest one execution's provenance: mirror the artifact catalog and
    /// artifact-side adjacency on the coordinator (in exactly the order the
    /// single engine would), then route the document to its shard.
    pub fn ingest(&mut self, retro: &RetrospectiveProvenance) {
        note_artifacts(&mut self.catalog, &mut self.dtype_index, retro);
        for run in &retro.runs {
            let r = PNode::Run(retro.exec, run.node);
            for (_, h) in &run.inputs {
                // Mirrors the single engine's `edge(Artifact, run)` dedupe:
                // the succ side is the pushed-together witness.
                let s = self.art_succ.entry(*h).or_default();
                if !s.contains(&r) {
                    s.push(r);
                }
            }
            for (_, h) in &run.outputs {
                // `edge(run, Artifact)` pushes pred[artifact] iff
                // succ[run] gains the edge; both sides are pushed together,
                // so pred containment is an equivalent dedupe witness.
                let p = self.art_pred.entry(*h).or_default();
                if !p.contains(&r) {
                    p.push(r);
                }
            }
        }
        let s = self.route(retro.exec);
        self.shards[s].ingest(retro);
    }

    // ---- counted coordinator accessors ---------------------------------
    //
    // The artifact-side twins of the shard engines' counted accessors,
    // with the same counting discipline, so per-operator snapshot deltas
    // (and their totals) match the unsharded engine.

    fn artifact_neighbors_counted(&self, h: u64, reverse: bool) -> &[PNode] {
        self.stats.add_keyed_lookups(1);
        self.stats.add_node_reads(1);
        let m = if reverse {
            &self.art_pred
        } else {
            &self.art_succ
        };
        let ns = m.get(&h).map(|v| v.as_slice()).unwrap_or(&[]);
        self.stats.add_edge_reads(ns.len() as u64);
        ns
    }

    fn artifact_matches_counted(&self, h: u64, cond: &Condition) -> bool {
        self.stats.add_node_reads(1);
        PqlEngine::dnf_matches(cond, |field| match field {
            Field::Dtype => self.catalog.get(&h).cloned(),
            _ => None,
        })
    }

    fn artifact_describe_counted(&self, h: u64) -> ResultNode {
        self.stats.add_node_reads(1);
        ResultNode::Artifact {
            hash: h,
            dtype: self.catalog.get(&h).cloned().unwrap_or_default(),
        }
    }

    fn scan_artifacts_counted(&self) -> Vec<ScanItem> {
        self.stats.add_scans(1);
        let items: Vec<ScanItem> = self
            .catalog
            .keys()
            .map(|&h| ScanItem::Node(PNode::Artifact(h)))
            .collect();
        self.stats.add_node_reads(items.len() as u64);
        items
    }

    fn probe_dtype_counted(&self, value: &str) -> impl Iterator<Item = u64> + '_ {
        self.dtype_index.probe(&self.stats, value)
    }

    /// Global posting length: coordinator dtype index for artifacts,
    /// per-shard sums for run indexes (executions stay unindexed). Feeds
    /// the optimizer's decision core.
    fn posting_len(&self, entity: Entity, field: Field, value: &str) -> Option<usize> {
        match (entity, field) {
            (Entity::Artifacts, Field::Dtype) => Some(self.dtype_index.get(value).len()),
            (Entity::Runs, Field::Module) | (Entity::Runs, Field::Status) => {
                let mut total = 0usize;
                for shard in &self.shards {
                    total += shard.posting_len(entity, field, value)?;
                }
                Some(total)
            }
            _ => None,
        }
    }

    /// Counted anchor resolution: identical counters and error strings to
    /// `PqlEngine::resolve_counted`.
    fn resolve_sharded(&self, t: Target) -> Result<PNode, PqlError> {
        match t {
            Target::Artifact(h) => {
                self.stats.add_keyed_lookups(1);
                self.stats.add_node_reads(1);
                if self.catalog.contains_key(&h) {
                    Ok(PNode::Artifact(h))
                } else {
                    Err(PqlError::Eval(format!("unknown artifact {h:016x}")))
                }
            }
            Target::Run(e, _) => self.shards[self.route(ExecId(e))].resolve_counted(t),
        }
    }

    fn neighbors_routed(&self, node: PNode, reverse: bool) -> &[PNode] {
        match node {
            PNode::Run(e, _) => self.shards[self.route(e)].neighbors_counted(node, reverse),
            PNode::Artifact(h) => self.artifact_neighbors_counted(h, reverse),
        }
    }

    fn describe_routed(&self, node: PNode) -> ResultNode {
        match node {
            PNode::Run(e, _) => self.shards[self.route(e)].describe_item(ScanItem::Node(node)),
            PNode::Artifact(h) => self.artifact_describe_counted(h),
        }
    }

    /// Run `f`, returning its output plus (self-time µs, access delta)
    /// against the shared recorder.
    fn measured_stage<T>(&self, f: impl FnOnce() -> T) -> (T, u64, StatsSnapshot) {
        let before = self.stats.snapshot();
        let t0 = Instant::now();
        let out = f();
        let micros = t0.elapsed().as_micros() as u64;
        (out, micros, self.stats.snapshot().delta(&before))
    }

    // ---- scatter stages -------------------------------------------------

    /// Fetch the adjacency lists of one BFS frontier level: run nodes
    /// scatter to their owning shards, artifact nodes to the coordinator
    /// (chunked), in parallel above [`PARALLEL_FANOUT`]. Results come back
    /// positioned by frontier index, so the sequential gather preserves
    /// the single engine's discovery order. Lane `shards.len()` is the
    /// coordinator.
    fn fetch_level(&self, level: &[PNode], reverse: bool, lanes: &mut [Lane]) -> Vec<Vec<PNode>> {
        let n = self.shards.len();
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut coord: Vec<usize> = Vec::new();
        for (i, node) in level.iter().enumerate() {
            match node {
                PNode::Run(e, _) => per_shard[self.route(*e)].push(i),
                PNode::Artifact(_) => coord.push(i),
            }
        }
        let mut out: Vec<Option<Vec<PNode>>> = Vec::new();
        out.resize_with(level.len(), || None);
        if n > 1 && level.len() >= PARALLEL_FANOUT {
            let chunk = coord.len().div_ceil(n).max(1);
            type LanePart = (usize, Vec<(usize, Vec<PNode>)>, u64);
            let results: Vec<LanePart> = std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for (s, idxs) in per_shard.iter().enumerate() {
                    if idxs.is_empty() {
                        continue;
                    }
                    let shard = &self.shards[s];
                    handles.push(scope.spawn(move || {
                        let t0 = Instant::now();
                        let fetched: Vec<(usize, Vec<PNode>)> = idxs
                            .iter()
                            .map(|&i| (i, shard.neighbors_counted(level[i], reverse).to_vec()))
                            .collect();
                        (s, fetched, t0.elapsed().as_micros() as u64)
                    }));
                }
                for ch in coord.chunks(chunk) {
                    handles.push(scope.spawn(move || {
                        let t0 = Instant::now();
                        let fetched: Vec<(usize, Vec<PNode>)> = ch
                            .iter()
                            .map(|&i| {
                                let PNode::Artifact(h) = level[i] else {
                                    unreachable!("coordinator lane holds artifacts only")
                                };
                                (i, self.artifact_neighbors_counted(h, reverse).to_vec())
                            })
                            .collect();
                        (n, fetched, t0.elapsed().as_micros() as u64)
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("scatter fetch thread"))
                    .collect()
            });
            for (lane, fetched, micros) in results {
                lanes[lane].micros += micros;
                for (i, ns) in fetched {
                    lanes[lane].rows_in += 1;
                    lanes[lane].rows_out += ns.len();
                    out[i] = Some(ns);
                }
            }
        } else {
            for (s, idxs) in per_shard.iter().enumerate() {
                if idxs.is_empty() {
                    continue;
                }
                let t0 = Instant::now();
                for &i in idxs {
                    let ns = self.shards[s].neighbors_counted(level[i], reverse).to_vec();
                    lanes[s].rows_in += 1;
                    lanes[s].rows_out += ns.len();
                    out[i] = Some(ns);
                }
                lanes[s].micros += t0.elapsed().as_micros() as u64;
            }
            if !coord.is_empty() {
                let t0 = Instant::now();
                for &i in &coord {
                    let PNode::Artifact(h) = level[i] else {
                        unreachable!("coordinator lane holds artifacts only")
                    };
                    let ns = self.artifact_neighbors_counted(h, reverse).to_vec();
                    lanes[n].rows_in += 1;
                    lanes[n].rows_out += ns.len();
                    out[i] = Some(ns);
                }
                lanes[n].micros += t0.elapsed().as_micros() as u64;
            }
        }
        out.into_iter().map(Option::unwrap_or_default).collect()
    }

    /// Route one map stage over mixed rows: run/execution rows to their
    /// owning shard, artifact rows to the coordinator (chunked), parallel
    /// above [`PARALLEL_FANOUT`]. Output is reassembled by input position,
    /// so row order — and therefore result order — is preserved.
    fn routed_map<R: Send>(
        &self,
        items: &[ScanItem],
        shard_f: &(impl Fn(&PqlEngine, ScanItem) -> R + Sync),
        coord_f: &(impl Fn(u64) -> R + Sync),
    ) -> Vec<R> {
        let n = self.shards.len();
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut coord: Vec<usize> = Vec::new();
        for (i, it) in items.iter().enumerate() {
            match it {
                ScanItem::Node(PNode::Run(e, _)) | ScanItem::Exec(e) => {
                    per_shard[self.route(*e)].push(i)
                }
                ScanItem::Node(PNode::Artifact(_)) => coord.push(i),
            }
        }
        let mut out: Vec<Option<R>> = Vec::new();
        out.resize_with(items.len(), || None);
        if n > 1 && items.len() >= PARALLEL_FANOUT {
            let chunk = coord.len().div_ceil(n).max(1);
            let results: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for (s, idxs) in per_shard.iter().enumerate() {
                    if idxs.is_empty() {
                        continue;
                    }
                    let shard = &self.shards[s];
                    handles.push(scope.spawn(move || {
                        idxs.iter()
                            .map(|&i| (i, shard_f(shard, items[i])))
                            .collect::<Vec<_>>()
                    }));
                }
                for ch in coord.chunks(chunk) {
                    handles.push(scope.spawn(move || {
                        ch.iter()
                            .map(|&i| {
                                let ScanItem::Node(PNode::Artifact(h)) = items[i] else {
                                    unreachable!("coordinator lane holds artifacts only")
                                };
                                (i, coord_f(h))
                            })
                            .collect::<Vec<_>>()
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("routed stage thread"))
                    .collect()
            });
            for part in results {
                for (i, r) in part {
                    out[i] = Some(r);
                }
            }
        } else {
            for (s, idxs) in per_shard.iter().enumerate() {
                for &i in idxs {
                    out[i] = Some(shard_f(&self.shards[s], items[i]));
                }
            }
            for &i in &coord {
                let ScanItem::Node(PNode::Artifact(h)) = items[i] else {
                    unreachable!("coordinator lane holds artifacts only")
                };
                out[i] = Some(coord_f(h));
            }
        }
        out.into_iter()
            .map(|o| o.expect("every routed row is produced exactly once"))
            .collect()
    }

    /// Routed filter stage with the single engine's counting discipline.
    fn filter_items(&self, items: &[ScanItem], filter: &Condition) -> Vec<ScanItem> {
        let mask = self.routed_map(items, &|shard, it| shard.item_matches(it, filter), &|h| {
            self.artifact_matches_counted(h, filter)
        });
        items
            .iter()
            .zip(mask)
            .filter_map(|(&it, keep)| keep.then_some(it))
            .collect()
    }

    /// Routed collect stage (result materialization).
    fn describe_items(&self, items: &[ScanItem]) -> Vec<ResultNode> {
        self.routed_map(items, &|shard, it| shard.describe_item(it), &|h| {
            self.artifact_describe_counted(h)
        })
    }

    // ---- plans ----------------------------------------------------------

    /// The naive (unoptimized) scatter-gather plan for `query` — what a
    /// plain `EXPLAIN` renders for this shard layout.
    pub fn plan(&self, query: &Query) -> Plan {
        self.naive_plan(query)
    }

    /// The naive sharded plan: the single engine's shape with a
    /// [`PlanOp::ScatterGather`] wrapped around the operators that fan out
    /// (closure traversal; run/execution scans). Artifact scans and path
    /// enumeration stay coordinator-shaped.
    fn naive_plan(&self, query: &Query) -> Plan {
        let n = self.shards.len();
        match query {
            Query::Closure {
                direction,
                target,
                depth,
                filter,
            } => {
                let mut node = PlanNode::over(
                    PlanOp::ScatterGather { shards: n },
                    PlanNode::over(
                        PlanOp::Traverse {
                            direction: *direction,
                            depth: *depth,
                        },
                        PlanNode::leaf(PlanOp::Anchor { target: *target }),
                    ),
                );
                if !filter.is_trivial() {
                    node = PlanNode::over(
                        PlanOp::Filter {
                            filter: filter.clone(),
                        },
                        node,
                    );
                }
                Plan {
                    root: PlanNode::over(PlanOp::Collect, node),
                }
            }
            Query::Count { entity, filter } | Query::List { entity, filter }
                if *entity != Entity::Artifacts =>
            {
                let mut node = PlanNode::over(
                    PlanOp::ScatterGather { shards: n },
                    PlanNode::leaf(PlanOp::Scan { entity: *entity }),
                );
                if !filter.is_trivial() {
                    node = PlanNode::over(
                        PlanOp::Filter {
                            filter: filter.clone(),
                        },
                        node,
                    );
                }
                let top = if matches!(query, Query::Count { .. }) {
                    PlanOp::CountRows
                } else {
                    PlanOp::Collect
                };
                Plan {
                    root: PlanNode::over(top, node),
                }
            }
            _ => Plan::of(query),
        }
    }

    /// Per-shard EXPLAIN ANALYZE child rows under a ScatterGather
    /// operator. The shared recorder cannot attribute access deltas to a
    /// single shard, so child rows carry rows and self-time only; the
    /// parent operators' deltas stay exact.
    fn lane_reports(&self, lanes: &[Lane], depth: usize) -> Vec<OpReport> {
        let n = self.shards.len();
        let mut out: Vec<OpReport> = lanes[..n]
            .iter()
            .enumerate()
            .map(|(s, lane)| OpReport {
                label: format!("shard {s}/{n}"),
                depth,
                rows_in: lane.rows_in,
                rows_out: lane.rows_out,
                est_rows: None,
                self_micros: lane.micros,
                accesses: StatsSnapshot::default(),
            })
            .collect();
        if lanes.len() > n && lanes[n].rows_in > 0 {
            out.push(OpReport {
                label: "coordinator (artifact joints)".to_string(),
                depth,
                rows_in: lanes[n].rows_in,
                rows_out: lanes[n].rows_out,
                est_rows: None,
                self_micros: lanes[n].micros,
                accesses: StatsSnapshot::default(),
            });
        }
        out
    }

    // ---- the analyzing executor ----------------------------------------

    /// EXPLAIN ANALYZE through the naive sharded plan. Results are
    /// identical to `PqlEngine::eval_query` on the same corpus.
    pub fn analyze(&self, query: &Query) -> Result<Analysis, PqlError> {
        match query {
            Query::Closure { .. } => self.analyze_closure(query),
            Query::Count { .. } | Query::List { .. } => self.analyze_scan(query),
            Query::Paths { .. } => self.analyze_paths(query),
        }
    }

    fn analyze_closure(&self, query: &Query) -> Result<Analysis, PqlError> {
        let Query::Closure {
            direction,
            target,
            depth,
            filter,
        } = query
        else {
            unreachable!("analyze_closure dispatches on closure queries")
        };
        let n = self.shards.len();
        let plan = self.naive_plan(query);
        let mut ests = self.cost_model().plan_estimates(&plan).into_iter();
        let t_total = Instant::now();

        let (anchor, anchor_micros, anchor_delta) =
            self.measured_stage(|| self.resolve_sharded(*target));
        let anchor = anchor?;

        // Level-synchronous BFS: a level is the nodes discovered in FIFO
        // order at one depth, so expanding levels in that order and merging
        // each level's (position-indexed) adjacency lists sequentially
        // reproduces the single engine's FIFO discovery order exactly.
        // Nodes at the depth limit are included but not expanded.
        let reverse = *direction == Direction::Upstream;
        let mut lanes = vec![Lane::default(); n + 1];
        let (discovered, traverse_micros, traverse_delta) = self.measured_stage(|| {
            let mut discovered: Vec<PNode> = Vec::new();
            let mut seen: BTreeSet<PNode> = [anchor].into();
            let mut level: Vec<PNode> = vec![anchor];
            let mut d = 0usize;
            while !level.is_empty() {
                if let Some(limit) = depth {
                    if d == *limit {
                        break;
                    }
                }
                let fetched = self.fetch_level(&level, reverse, &mut lanes);
                let mut next: Vec<PNode> = Vec::new();
                for ns in &fetched {
                    for &m in ns {
                        if seen.insert(m) {
                            discovered.push(m);
                            next.push(m);
                        }
                    }
                }
                level = next;
                d += 1;
            }
            discovered
        });
        let discovered_rows = discovered.len();
        let fetched_rows: usize = lanes.iter().map(|l| l.rows_out).sum();
        let gather_micros: u64 = lanes.iter().map(|l| l.micros).sum();

        let mut filter_report: Option<(usize, usize, u64, StatsSnapshot)> = None;
        let kept: Vec<PNode> = if filter.is_trivial() {
            discovered
        } else {
            let items: Vec<ScanItem> = discovered.iter().map(|&p| ScanItem::Node(p)).collect();
            let (kept_items, t, d) = self.measured_stage(|| self.filter_items(&items, filter));
            filter_report = Some((items.len(), kept_items.len(), t, d));
            kept_items
                .into_iter()
                .map(|it| {
                    let ScanItem::Node(p) = it else {
                        unreachable!("closure rows are graph nodes")
                    };
                    p
                })
                .collect()
        };

        let collect_items: Vec<ScanItem> = kept.iter().map(|&p| ScanItem::Node(p)).collect();
        let (rows, collect_micros, collect_delta) =
            self.measured_stage(|| self.describe_items(&collect_items));

        // Assemble reports in plan (render) order, consuming cost estimates
        // positionally: Collect, [Filter], ScatterGather, Traverse, Anchor.
        let mut ops = Vec::new();
        ops.push(OpReport {
            label: PlanOp::Collect.label(),
            depth: 0,
            rows_in: collect_items.len(),
            rows_out: rows.len(),
            est_rows: ests.next().flatten(),
            self_micros: collect_micros,
            accesses: collect_delta,
        });
        let mut depth_cursor = 1;
        if let Some((rows_in, rows_out, t, d)) = filter_report {
            ops.push(OpReport {
                label: PlanOp::Filter {
                    filter: filter.clone(),
                }
                .label(),
                depth: depth_cursor,
                rows_in,
                rows_out,
                est_rows: ests.next().flatten(),
                self_micros: t,
                accesses: d,
            });
            depth_cursor += 1;
        }
        ops.push(OpReport {
            label: PlanOp::ScatterGather { shards: n }.label(),
            depth: depth_cursor,
            rows_in: fetched_rows,
            rows_out: discovered_rows,
            est_rows: ests.next().flatten(),
            self_micros: gather_micros,
            accesses: StatsSnapshot::default(),
        });
        ops.extend(self.lane_reports(&lanes, depth_cursor + 1));
        ops.push(OpReport {
            label: PlanOp::Traverse {
                direction: *direction,
                depth: *depth,
            }
            .label(),
            depth: depth_cursor + 1,
            rows_in: 1,
            rows_out: discovered_rows,
            est_rows: ests.next().flatten(),
            self_micros: traverse_micros,
            accesses: traverse_delta,
        });
        ops.push(OpReport {
            label: PlanOp::Anchor { target: *target }.label(),
            depth: depth_cursor + 2,
            rows_in: 0,
            rows_out: 1,
            est_rows: ests.next().flatten(),
            self_micros: anchor_micros,
            accesses: anchor_delta,
        });

        Ok(Analysis {
            plan,
            result: QueryResult::Nodes(rows),
            total_micros: t_total.elapsed().as_micros() as u64,
            ops,
        })
    }

    fn analyze_scan(&self, query: &Query) -> Result<Analysis, PqlError> {
        let (Query::Count { entity, filter } | Query::List { entity, filter }) = query else {
            unreachable!("analyze_scan dispatches on count/list queries")
        };
        let n = self.shards.len();
        let cost = self.cost_model();
        let plan = self.naive_plan(query);
        let mut ests = cost.plan_estimates(&plan).into_iter();
        let t_total = Instant::now();

        // Scan stage: artifacts are coordinator-resident; runs/executions
        // scatter to shards and merge in key order (executions are
        // disjoint across shards, so the merged sequence is exactly the
        // single engine's scan order).
        let mut lanes = vec![Lane::default(); n];
        let mut gather_micros = 0u64;
        let (items, scan_micros, scan_delta) = if *entity == Entity::Artifacts {
            self.measured_stage(|| self.scan_artifacts_counted())
        } else {
            let (parts, micros, delta) = self.measured_stage(|| {
                if n > 1 && cost.entity_rows(*entity) as usize >= PARALLEL_FANOUT {
                    let fetched: Vec<(usize, Vec<ScanItem>, u64)> = std::thread::scope(|scope| {
                        let handles: Vec<_> = self
                            .shards
                            .iter()
                            .enumerate()
                            .map(|(s, shard)| {
                                scope.spawn(move || {
                                    let t0 = Instant::now();
                                    let items = shard.scan_entity(*entity);
                                    (s, items, t0.elapsed().as_micros() as u64)
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("scatter scan thread"))
                            .collect()
                    });
                    fetched
                } else {
                    self.shards
                        .iter()
                        .enumerate()
                        .map(|(s, shard)| {
                            let t0 = Instant::now();
                            let items = shard.scan_entity(*entity);
                            (s, items, t0.elapsed().as_micros() as u64)
                        })
                        .collect()
                }
            });
            let mut items: Vec<ScanItem> = Vec::new();
            for (s, part, micros) in parts {
                lanes[s].rows_out = part.len();
                lanes[s].micros = micros;
                items.extend(part);
            }
            let t0 = Instant::now();
            items.sort_by_key(scan_key);
            gather_micros = t0.elapsed().as_micros() as u64;
            (items, micros, delta)
        };
        let total = items.len();

        let mut filter_report: Option<(usize, usize, u64, StatsSnapshot)> = None;
        let kept = if filter.is_trivial() {
            items
        } else {
            let (kept, t, d) = self.measured_stage(|| self.filter_items(&items, filter));
            filter_report = Some((total, kept.len(), t, d));
            kept
        };

        // Assemble in render order: top, [Filter], [ScatterGather + shard
        // rows], Scan.
        let mut ops = Vec::new();
        let result = if matches!(query, Query::Count { .. }) {
            ops.push(OpReport {
                label: PlanOp::CountRows.label(),
                depth: 0,
                rows_in: kept.len(),
                rows_out: kept.len(),
                est_rows: ests.next().flatten(),
                self_micros: 0,
                accesses: StatsSnapshot::default(),
            });
            QueryResult::Count(kept.len())
        } else {
            let (rows, t, d) = self.measured_stage(|| self.describe_items(&kept));
            ops.push(OpReport {
                label: PlanOp::Collect.label(),
                depth: 0,
                rows_in: kept.len(),
                rows_out: rows.len(),
                est_rows: ests.next().flatten(),
                self_micros: t,
                accesses: d,
            });
            QueryResult::Nodes(rows)
        };
        let mut depth_cursor = 1;
        if let Some((rows_in, rows_out, t, d)) = filter_report {
            ops.push(OpReport {
                label: PlanOp::Filter {
                    filter: filter.clone(),
                }
                .label(),
                depth: depth_cursor,
                rows_in,
                rows_out,
                est_rows: ests.next().flatten(),
                self_micros: t,
                accesses: d,
            });
            depth_cursor += 1;
        }
        if *entity != Entity::Artifacts {
            ops.push(OpReport {
                label: PlanOp::ScatterGather { shards: n }.label(),
                depth: depth_cursor,
                rows_in: total,
                rows_out: total,
                est_rows: ests.next().flatten(),
                self_micros: gather_micros,
                accesses: StatsSnapshot::default(),
            });
            ops.extend(self.lane_reports(&lanes, depth_cursor + 1));
            depth_cursor += 1;
        }
        ops.push(OpReport {
            label: PlanOp::Scan { entity: *entity }.label(),
            depth: depth_cursor,
            rows_in: 0,
            rows_out: total,
            est_rows: ests.next().flatten(),
            self_micros: scan_micros,
            accesses: scan_delta,
        });

        Ok(Analysis {
            plan,
            result,
            total_micros: t_total.elapsed().as_micros() as u64,
            ops,
        })
    }

    fn analyze_paths(&self, query: &Query) -> Result<Analysis, PqlError> {
        let Query::Paths { from, to, max_len } = query else {
            unreachable!("analyze_paths dispatches on path queries")
        };
        let plan = self.naive_plan(query);
        let mut ests = self.cost_model().plan_estimates(&plan).into_iter();
        let t_total = Instant::now();

        let (a, ta, da) = self.measured_stage(|| self.resolve_sharded(*from));
        let a = a?;
        let (b, tb, db) = self.measured_stage(|| self.resolve_sharded(*to));
        let b = b?;

        let cap = max_len.unwrap_or(16);
        // Same DFS as the single engine: simple paths over succ edges with
        // a length budget; run adjacency comes from the owning shard,
        // artifact adjacency from the coordinator mirror.
        let (paths, tp, dp) = self.measured_stage(|| {
            let mut paths: Vec<Vec<PNode>> = Vec::new();
            let mut stack = vec![a];
            let mut on_path: BTreeSet<PNode> = [a].into();
            self.dfs_routed(a, b, cap, &mut stack, &mut on_path, &mut paths);
            paths
        });

        let rows_in = paths.len();
        let (rendered, tc, dc) = self.measured_stage(|| {
            paths
                .into_iter()
                .map(|p| p.into_iter().map(|n| self.describe_routed(n)).collect())
                .collect::<Vec<Vec<ResultNode>>>()
        });

        let ops = vec![
            OpReport {
                label: PlanOp::Collect.label(),
                depth: 0,
                rows_in,
                rows_out: rendered.len(),
                est_rows: ests.next().flatten(),
                self_micros: tc,
                accesses: dc,
            },
            OpReport {
                label: PlanOp::EnumeratePaths { max_len: cap }.label(),
                depth: 1,
                rows_in: 2,
                rows_out: rows_in,
                est_rows: ests.next().flatten(),
                self_micros: tp,
                accesses: dp,
            },
            OpReport {
                label: PlanOp::Anchor { target: *from }.label(),
                depth: 2,
                rows_in: 0,
                rows_out: 1,
                est_rows: ests.next().flatten(),
                self_micros: ta,
                accesses: da,
            },
            OpReport {
                label: PlanOp::Anchor { target: *to }.label(),
                depth: 2,
                rows_in: 0,
                rows_out: 1,
                est_rows: ests.next().flatten(),
                self_micros: tb,
                accesses: db,
            },
        ];
        Ok(Analysis {
            plan,
            result: QueryResult::Paths(rendered),
            total_micros: t_total.elapsed().as_micros() as u64,
            ops,
        })
    }

    fn dfs_routed(
        &self,
        cur: PNode,
        to: PNode,
        budget: usize,
        stack: &mut Vec<PNode>,
        on_path: &mut BTreeSet<PNode>,
        out: &mut Vec<Vec<PNode>>,
    ) {
        if cur == to {
            out.push(stack.clone());
            return;
        }
        if budget == 0 {
            return;
        }
        let ns = self.neighbors_routed(cur, false).to_vec();
        for n in ns {
            if on_path.insert(n) {
                stack.push(n);
                self.dfs_routed(n, to, budget - 1, stack, on_path, out);
                stack.pop();
                on_path.remove(&n);
            }
        }
    }

    // ---- optimizer surface ----------------------------------------------

    /// Cost-based optimization against the sharded corpus. The decision
    /// core is shared with the single engine (`optimize_with`), fed summed
    /// cardinalities and posting lengths, so rewrite choices match; only
    /// the plan shape differs (fan-out operators gain a ScatterGather).
    pub fn optimize(&self, query: &Query) -> Optimization {
        let cost = self.cost_model();
        let mut opt = optimize_with(
            &cost,
            &|entity, field, value| self.posting_len(entity, field, value),
            query,
        );
        opt.plan = self.plan_for(&opt.chosen, query);
        opt
    }

    /// The sharded plan shape for a rewrite decision.
    fn plan_for(&self, chosen: &Rewrite, query: &Query) -> Plan {
        let n = self.shards.len();
        match chosen {
            Rewrite::None => self.naive_plan(query),
            Rewrite::MetaCount { entity } => {
                let leaf = PlanNode::leaf(PlanOp::MetaCount { entity: *entity });
                if *entity == Entity::Artifacts {
                    // The coordinator catalog answers directly.
                    Plan { root: leaf }
                } else {
                    Plan {
                        root: PlanNode::over(PlanOp::ScatterGather { shards: n }, leaf),
                    }
                }
            }
            Rewrite::IndexLookup { entity, keys, .. } => {
                let filter = match query {
                    Query::Count { filter, .. } | Query::List { filter, .. } => filter.clone(),
                    _ => unreachable!("IndexLookup only rewrites count/list"),
                };
                let mut node = PlanNode::leaf(PlanOp::IndexLookup {
                    entity: *entity,
                    keys: keys.clone(),
                });
                if *entity != Entity::Artifacts {
                    node = PlanNode::over(PlanOp::ScatterGather { shards: n }, node);
                }
                let filtered = PlanNode::over(PlanOp::Filter { filter }, node);
                let top = if matches!(query, Query::Count { .. }) {
                    PlanOp::CountRows
                } else {
                    PlanOp::Collect
                };
                Plan {
                    root: PlanNode::over(top, filtered),
                }
            }
            Rewrite::NeighborProbe => {
                let Query::Closure {
                    direction,
                    target,
                    filter,
                    ..
                } = query
                else {
                    unreachable!("NeighborProbe only rewrites depth-1 closures")
                };
                // A single adjacency read touches one shard (or the
                // coordinator); no fan-out to merge.
                let mut node = PlanNode::over(
                    PlanOp::NeighborProbe {
                        direction: *direction,
                    },
                    PlanNode::leaf(PlanOp::Anchor { target: *target }),
                );
                if !filter.is_trivial() {
                    node = PlanNode::over(
                        PlanOp::Filter {
                            filter: filter.clone(),
                        },
                        node,
                    );
                }
                Plan {
                    root: PlanNode::over(PlanOp::Collect, node),
                }
            }
        }
    }

    /// EXPLAIN ANALYZE through the optimizer: execute the rewritten plan
    /// with the same row/estimate conventions as the single engine's
    /// `analyze_optimized`. Falls back to [`Self::analyze`] when no rewrite
    /// applies.
    pub fn analyze_optimized(&self, query: &Query) -> Result<Analysis, PqlError> {
        let opt = self.optimize(query);
        match opt.chosen.clone() {
            Rewrite::None => self.analyze(query),
            Rewrite::MetaCount { entity } => Ok(self.analyze_meta_count(opt, entity)),
            Rewrite::IndexLookup { entity, keys, est } => {
                self.analyze_index_lookup(opt, query, entity, keys, est)
            }
            Rewrite::NeighborProbe => self.analyze_neighbor_probe(opt, query),
        }
    }

    fn analyze_meta_count(&self, opt: Optimization, entity: Entity) -> Analysis {
        let n = self.shards.len();
        let t_total = Instant::now();
        if entity == Entity::Artifacts {
            // One keyed lookup against the coordinator catalog, mirroring
            // the single engine's meta_count counting.
            let (total, t, d) = self.measured_stage(|| {
                self.stats.add_keyed_lookups(1);
                self.catalog.len()
            });
            return Analysis {
                plan: opt.plan,
                result: QueryResult::Count(total),
                total_micros: t_total.elapsed().as_micros() as u64,
                ops: vec![OpReport {
                    label: PlanOp::MetaCount { entity }.label(),
                    depth: 0,
                    rows_in: 0,
                    rows_out: total,
                    est_rows: Some(total as u64),
                    self_micros: t,
                    accesses: d,
                }],
            };
        }
        let mut lanes = vec![Lane::default(); n];
        let (total, t, d) = self.measured_stage(|| {
            let mut total = 0usize;
            for (s, shard) in self.shards.iter().enumerate() {
                let t0 = Instant::now();
                let c = shard.meta_count(entity);
                lanes[s].rows_out = c;
                lanes[s].micros = t0.elapsed().as_micros() as u64;
                total += c;
            }
            total
        });
        let mut ops = vec![OpReport {
            label: PlanOp::ScatterGather { shards: n }.label(),
            depth: 0,
            rows_in: total,
            rows_out: total,
            est_rows: Some(total as u64),
            self_micros: t,
            accesses: StatsSnapshot::default(),
        }];
        ops.extend(self.lane_reports(&lanes, 1));
        ops.push(OpReport {
            label: PlanOp::MetaCount { entity }.label(),
            depth: 1,
            rows_in: 0,
            rows_out: total,
            est_rows: Some(total as u64),
            self_micros: t,
            accesses: d,
        });
        Analysis {
            plan: opt.plan,
            result: QueryResult::Count(total),
            total_micros: t_total.elapsed().as_micros() as u64,
            ops,
        }
    }

    fn analyze_index_lookup(
        &self,
        opt: Optimization,
        query: &Query,
        entity: Entity,
        keys: Vec<(Field, String)>,
        est: u64,
    ) -> Result<Analysis, PqlError> {
        let n = self.shards.len();
        let filter = match query {
            Query::Count { filter, .. } | Query::List { filter, .. } => filter,
            _ => unreachable!("IndexLookup only rewrites count/list"),
        };
        let t_total = Instant::now();
        let mut lanes = vec![Lane::default(); n];
        let mut probed_rows = 0usize;

        // Union of postings through a BTreeSet: candidates come out in key
        // order, exactly the order a (merged) scan enumerates.
        let (candidates, lookup_micros, lookup_delta) = self.measured_stage(|| match entity {
            Entity::Runs => {
                let mut set = BTreeSet::new();
                for (s, shard) in self.shards.iter().enumerate() {
                    let t0 = Instant::now();
                    let mut cnt = 0usize;
                    for (field, value) in &keys {
                        for key in shard.probe_run_index(*field, value).into_iter().flatten() {
                            cnt += 1;
                            set.insert(key);
                        }
                    }
                    lanes[s].rows_out = cnt;
                    lanes[s].micros = t0.elapsed().as_micros() as u64;
                    probed_rows += cnt;
                }
                set.into_iter()
                    .map(|(e, node)| ScanItem::Node(PNode::Run(e, node)))
                    .collect::<Vec<_>>()
            }
            Entity::Artifacts => {
                let mut set: BTreeSet<u64> = BTreeSet::new();
                for (_, value) in &keys {
                    set.extend(self.probe_dtype_counted(value));
                }
                set.into_iter()
                    .map(|h| ScanItem::Node(PNode::Artifact(h)))
                    .collect::<Vec<_>>()
            }
            Entity::Executions => unreachable!("executions have no secondary index"),
        });

        let rows_in = candidates.len();
        let (kept, filter_micros, filter_delta) =
            self.measured_stage(|| self.filter_items(&candidates, filter));

        let mut ops = Vec::new();
        let result = if matches!(query, Query::Count { .. }) {
            ops.push(OpReport {
                label: PlanOp::CountRows.label(),
                depth: 0,
                rows_in: kept.len(),
                rows_out: kept.len(),
                est_rows: Some(est.div_ceil(3)),
                self_micros: 0,
                accesses: StatsSnapshot::default(),
            });
            QueryResult::Count(kept.len())
        } else {
            let (rows, t, d) = self.measured_stage(|| self.describe_items(&kept));
            ops.push(OpReport {
                label: PlanOp::Collect.label(),
                depth: 0,
                rows_in: kept.len(),
                rows_out: rows.len(),
                est_rows: Some(est.div_ceil(3)),
                self_micros: t,
                accesses: d,
            });
            QueryResult::Nodes(rows)
        };
        ops.push(OpReport {
            label: PlanOp::Filter {
                filter: filter.clone(),
            }
            .label(),
            depth: 1,
            rows_in,
            rows_out: kept.len(),
            est_rows: Some(est.div_ceil(3)),
            self_micros: filter_micros,
            accesses: filter_delta,
        });
        let mut lookup_depth = 2;
        if entity != Entity::Artifacts {
            ops.push(OpReport {
                label: PlanOp::ScatterGather { shards: n }.label(),
                depth: 2,
                rows_in: probed_rows,
                rows_out: rows_in,
                est_rows: Some(est),
                self_micros: lanes.iter().map(|l| l.micros).sum(),
                accesses: StatsSnapshot::default(),
            });
            ops.extend(self.lane_reports(&lanes, 3));
            lookup_depth = 3;
        }
        ops.push(OpReport {
            label: PlanOp::IndexLookup { entity, keys }.label(),
            depth: lookup_depth,
            rows_in: 0,
            rows_out: rows_in,
            est_rows: Some(est),
            self_micros: lookup_micros,
            accesses: lookup_delta,
        });

        Ok(Analysis {
            plan: opt.plan,
            result,
            total_micros: t_total.elapsed().as_micros() as u64,
            ops,
        })
    }

    fn analyze_neighbor_probe(
        &self,
        opt: Optimization,
        query: &Query,
    ) -> Result<Analysis, PqlError> {
        let Query::Closure {
            direction,
            target,
            depth: Some(1),
            filter,
        } = query
        else {
            unreachable!("NeighborProbe only rewrites depth-1 closures")
        };
        let cost = self.cost_model();
        let t_total = Instant::now();
        // Stage reports in execution order; depth becomes the render
        // position after the final reversal (linear chain).
        let mut stages: Vec<(String, usize, usize, Option<u64>, u64, StatsSnapshot)> = Vec::new();

        let (anchor, t, d) = self.measured_stage(|| self.resolve_sharded(*target));
        let anchor = anchor?;
        stages.push((
            PlanOp::Anchor { target: *target }.label(),
            0,
            1,
            Some(1),
            t,
            d,
        ));

        let reverse = *direction == Direction::Upstream;
        // Same discovery order as the BFS's first (and only) level.
        let (discovered, t, d) = self.measured_stage(|| {
            let mut out = Vec::new();
            let mut seen: BTreeSet<PNode> = [anchor].into();
            for &m in self.neighbors_routed(anchor, reverse) {
                if seen.insert(m) {
                    out.push(m);
                }
            }
            out
        });
        let probe_est = cost.avg_degree().min(cost.graph_nodes());
        stages.push((
            PlanOp::NeighborProbe {
                direction: *direction,
            }
            .label(),
            1,
            discovered.len(),
            Some(probe_est),
            t,
            d,
        ));

        let kept: Vec<PNode> = if filter.is_trivial() {
            discovered
        } else {
            let items: Vec<ScanItem> = discovered.iter().map(|&p| ScanItem::Node(p)).collect();
            let (kept_items, t, d) = self.measured_stage(|| self.filter_items(&items, filter));
            stages.push((
                PlanOp::Filter {
                    filter: filter.clone(),
                }
                .label(),
                items.len(),
                kept_items.len(),
                Some(probe_est.div_ceil(3)),
                t,
                d,
            ));
            kept_items
                .into_iter()
                .map(|it| {
                    let ScanItem::Node(p) = it else {
                        unreachable!("closure rows are graph nodes")
                    };
                    p
                })
                .collect()
        };

        let collect_items: Vec<ScanItem> = kept.iter().map(|&p| ScanItem::Node(p)).collect();
        let (rows, t, d) = self.measured_stage(|| self.describe_items(&collect_items));
        let collect_est = stages.last().and_then(|s| s.3);
        stages.push((
            PlanOp::Collect.label(),
            collect_items.len(),
            rows.len(),
            collect_est,
            t,
            d,
        ));

        let ops = stages
            .into_iter()
            .rev()
            .enumerate()
            .map(
                |(depth, (label, rows_in, rows_out, est_rows, self_micros, accesses))| OpReport {
                    label,
                    depth,
                    rows_in,
                    rows_out,
                    est_rows,
                    self_micros,
                    accesses,
                },
            )
            .collect();
        Ok(Analysis {
            plan: opt.plan,
            result: QueryResult::Nodes(rows),
            total_micros: t_total.elapsed().as_micros() as u64,
            ops,
        })
    }

    // ---- eval surface ---------------------------------------------------

    /// Parse and evaluate a PQL query string.
    pub fn eval(&self, query: &str) -> Result<QueryResult, PqlError> {
        self.eval_query(&parse(query)?)
    }

    /// Evaluate a parsed query through the naive sharded plan.
    /// Result-identical to `PqlEngine::eval_query` over the same corpus.
    pub fn eval_query(&self, query: &Query) -> Result<QueryResult, PqlError> {
        Ok(self.analyze(query)?.result)
    }

    /// Evaluate through the optimized sharded plan.
    pub fn eval_optimized(&self, query: &Query) -> Result<QueryResult, PqlError> {
        Ok(self.analyze_optimized(query)?.result)
    }

    /// Evaluate with result caching. Entries are keyed by the
    /// `sharded(N)` backend and tagged with the *summed* generation, so an
    /// ingest into any shard — not just shard 0 — invalidates them.
    pub fn eval_cached(
        &self,
        query: &Query,
        cache: &mut QueryCache,
    ) -> Result<QueryResult, PqlError> {
        let key = QueryCache::key_for(query);
        if let Some(result) = cache.get(&self.backend_key, &key, self.generation()) {
            return Ok(result);
        }
        let result = self.eval_optimized(query)?;
        cache.put(&self.backend_key, &key, self.generation(), result.clone());
        Ok(result)
    }
}

/// Global scan order of a merged per-shard scan: runs by (exec, node),
/// executions by exec, artifacts by hash — the key order each shard's
/// BTreeMaps already enumerate.
fn scan_key(it: &ScanItem) -> (u64, u64) {
    match it {
        ScanItem::Node(PNode::Run(e, n)) => (e.0, n.raw()),
        ScanItem::Exec(e) => (e.0, 0),
        ScanItem::Node(PNode::Artifact(h)) => (*h, 0),
    }
}

#[cfg(test)]
impl ShardedEngine {
    /// Panic unless the coordinator's dtype index and every shard's
    /// incrementally maintained state equal their from-scratch rebuilds.
    pub(crate) fn assert_derived_state_matches_rebuild(&self) {
        assert_eq!(
            self.dtype_index,
            crate::eval::rebuild_dtype_index(&self.catalog),
            "coordinator dtype index"
        );
        for shard in &self.shards {
            shard.assert_derived_state_matches_rebuild();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::{analyze_optimized, eval_optimized};
    use crate::plan::analyze;
    use prov_core::capture::{CaptureLevel, ProvenanceCapture};
    use wf_engine::synth::figure1_workflow;
    use wf_engine::{standard_registry, Executor};

    fn corpus(n_docs: usize) -> (Vec<RetrospectiveProvenance>, wf_engine::synth::Figure1Nodes) {
        let (wf, nodes) = figure1_workflow(1);
        let exec = Executor::new(standard_registry());
        let mut cap = ProvenanceCapture::new(CaptureLevel::Fine);
        for _ in 0..n_docs {
            exec.run_observed(&wf, &mut cap).unwrap();
        }
        (cap.finish_all(), nodes)
    }

    fn engines(shards: usize, docs: &[RetrospectiveProvenance]) -> (PqlEngine, ShardedEngine) {
        let mut single = PqlEngine::new();
        let mut sharded = ShardedEngine::new(shards);
        for d in docs {
            single.ingest(d);
            sharded.ingest(d);
        }
        (single, sharded)
    }

    #[test]
    fn routing_spreads_executions_across_shards() {
        let (docs, _) = corpus(6);
        let (_, sharded) = engines(4, &docs);
        let mut busy: BTreeSet<usize> = BTreeSet::new();
        for d in &docs {
            busy.insert(sharded.route(d.exec));
        }
        assert!(busy.len() >= 2, "seeded hash spreads execs: {busy:?}");
        assert_eq!(sharded.run_count(), docs.len() * 8);
        assert_eq!(sharded.exec_count(), docs.len());
    }

    #[test]
    fn sharded_matches_single_engine_on_every_query_shape() {
        let (docs, nodes) = corpus(5);
        let file = docs[0].produced(nodes.save_hist, "file").unwrap();
        let grid = docs[0].produced(nodes.load, "grid").unwrap();
        let iso = docs[0].produced(nodes.save_iso, "file").unwrap();
        for shards in [1, 2, 4] {
            let (single, sharded) = engines(shards, &docs);
            for q in [
                format!("lineage of artifact {}", file.digest()),
                format!("lineage of artifact {} depth 1", file.digest()),
                format!("lineage of artifact {} depth 2", file.digest()),
                format!(
                    "lineage of artifact {} where module = histogram",
                    file.digest()
                ),
                format!("impact of artifact {}", grid.digest()),
                format!("impact of artifact {} where dtype = bytes", grid.digest()),
                format!("impact of run {}/{}", docs[2].exec.0, nodes.load.raw()),
                "count runs".to_string(),
                "count artifacts".to_string(),
                "count executions".to_string(),
                "count runs where status = succeeded".to_string(),
                "list runs where module = histogram or module = isosurface".to_string(),
                "list runs where module contains save".to_string(),
                "list artifacts where dtype = grid".to_string(),
                "list executions where status = succeeded".to_string(),
                "count runs where exec = 3".to_string(),
                format!(
                    "paths from artifact {} to artifact {}",
                    grid.digest(),
                    iso.digest()
                ),
            ] {
                let parsed = parse(&q).unwrap();
                let reference = single.eval_query(&parsed).unwrap();
                assert_eq!(
                    sharded.eval_query(&parsed).unwrap(),
                    reference,
                    "naive divergence on {q} with {shards} shard(s)"
                );
                assert_eq!(
                    sharded.eval_optimized(&parsed).unwrap(),
                    reference,
                    "optimized divergence on {q} with {shards} shard(s)"
                );
                assert_eq!(
                    eval_optimized(&single, &parsed).unwrap(),
                    reference,
                    "single-engine optimizer sanity on {q}"
                );
            }
        }
    }

    #[test]
    fn sharded_errors_match_single_engine() {
        let (docs, _) = corpus(2);
        let (single, sharded) = engines(4, &docs);
        for q in [
            "lineage of artifact 00000000000000aa",
            "impact of run 9999/9",
            "paths from artifact 00000000000000aa to artifact 00000000000000bb",
        ] {
            let parsed = parse(q).unwrap();
            assert_eq!(
                sharded.eval_query(&parsed).unwrap_err(),
                single.eval_query(&parsed).unwrap_err(),
                "error divergence on {q}"
            );
        }
    }

    #[test]
    fn closure_analyze_access_totals_match_unsharded_exactly() {
        let (docs, nodes) = corpus(4);
        let file = docs[0].produced(nodes.save_hist, "file").unwrap();
        let (single, sharded) = engines(4, &docs);
        for q in [
            format!("lineage of artifact {}", file.digest()),
            format!(
                "lineage of artifact {} where module contains save or status = failed",
                file.digest()
            ),
            format!(
                "paths from artifact {} to artifact {}",
                docs[0].produced(nodes.load, "grid").unwrap().digest(),
                docs[0].produced(nodes.save_iso, "file").unwrap().digest()
            ),
        ] {
            let parsed = parse(&q).unwrap();
            let a1 = analyze(&single, &parsed).unwrap();
            let a2 = sharded.analyze(&parsed).unwrap();
            assert_eq!(a1.result, a2.result, "result divergence on {q}");
            assert_eq!(
                a1.total_accesses(),
                a2.total_accesses(),
                "access totals diverge on {q}"
            );
        }
    }

    #[test]
    fn explain_analyze_renders_per_shard_rows() {
        let (docs, nodes) = corpus(4);
        let file = docs[0].produced(nodes.save_hist, "file").unwrap();
        let (_, sharded) = engines(4, &docs);
        let q = parse(&format!("lineage of artifact {}", file.digest())).unwrap();
        let rendered = sharded.analyze(&q).unwrap().render();
        assert!(
            rendered.contains("ScatterGather (4 shards) [merge]"),
            "{rendered}"
        );
        assert!(rendered.contains("shard 0/4"), "{rendered}");
        assert!(rendered.contains("shard 3/4"), "{rendered}");
        assert!(rendered.contains("coordinator"), "{rendered}");
        // Scans fan out too.
        let q = parse("list runs where module contains save").unwrap();
        let rendered = sharded.analyze(&q).unwrap().render();
        assert!(rendered.contains("ScatterGather"), "{rendered}");
        assert!(rendered.contains("Scan (runs)"), "{rendered}");
    }

    #[test]
    fn optimizer_decisions_match_single_engine() {
        let (docs, nodes) = corpus(4);
        let file = docs[0].produced(nodes.save_hist, "file").unwrap();
        let (single, sharded) = engines(4, &docs);
        for q in [
            "count runs".to_string(),
            "count artifacts".to_string(),
            "count runs where status = succeeded".to_string(),
            "list runs where module = histogram".to_string(),
            "list artifacts where dtype = grid".to_string(),
            "count runs where module contains save".to_string(),
            "count runs where exec = 0".to_string(),
            format!("lineage of artifact {} depth 1", file.digest()),
            format!("lineage of artifact {} depth 2", file.digest()),
        ] {
            let parsed = parse(&q).unwrap();
            let a = crate::optimize::optimize(&single, &parsed);
            let b = sharded.optimize(&parsed);
            assert_eq!(a.chosen, b.chosen, "decision divergence on {q}");
            assert_eq!(a.rewrites, b.rewrites, "note divergence on {q}");
            let reference = analyze_optimized(&single, &parsed).unwrap();
            let sharded_a = sharded.analyze_optimized(&parsed).unwrap();
            assert_eq!(reference.result, sharded_a.result, "result on {q}");
        }
        // Sharded rewritten plans surface the fan-out.
        let opt = sharded.optimize(&parse("count runs").unwrap());
        assert!(
            opt.plan.render().contains("ScatterGather"),
            "{}",
            opt.plan.render()
        );
        assert!(opt.plan.render().contains("MetaCount"));
        let opt = sharded.optimize(&parse("count runs where status = succeeded").unwrap());
        assert!(opt.plan.render().contains("IndexLookup"));
        assert!(opt.plan.render().contains("ScatterGather"));
        // Artifact paths stay coordinator-shaped.
        let opt = sharded.optimize(&parse("count artifacts").unwrap());
        assert!(!opt.plan.render().contains("ScatterGather"));
    }

    #[test]
    fn cache_invalidated_by_ingest_into_any_shard() {
        let (docs, _) = corpus(3);
        let (_, mut sharded) = engines(4, &docs);
        let mut cache = QueryCache::new(8);
        let q = parse("count runs").unwrap();
        let first = sharded.eval_cached(&q, &mut cache).unwrap();
        assert_eq!(first, QueryResult::Count(24));
        assert_eq!(sharded.eval_cached(&q, &mut cache).unwrap(), first);
        assert_eq!(cache.hits(), 1);
        // Route a fresh doc to a shard other than 0 and ingest: the
        // summed-generation tag must invalidate the cached count.
        let (mut extra, _) = corpus(1);
        let mut doc = extra.pop().unwrap();
        let target = (100..200)
            .map(ExecId)
            .find(|&e| sharded.route(e) != 0)
            .unwrap();
        doc.exec = target;
        let gen_before = sharded.generation();
        sharded.ingest(&doc);
        assert!(sharded.generation() > gen_before);
        let second = sharded.eval_cached(&q, &mut cache).unwrap();
        assert_eq!(second, QueryResult::Count(32), "stale entry must not serve");
    }

    #[test]
    fn generation_sums_shards_and_restores_watermark() {
        let (docs, _) = corpus(5);
        let (_, mut sharded) = engines(4, &docs);
        assert_eq!(sharded.generation(), 5, "one bump per ingested doc");
        assert_eq!(sharded.generations().iter().sum::<u64>(), 5);
        sharded.restore_generation(40);
        assert!(sharded.generation() >= 40);
        let before = sharded.generation();
        let (mut extra, _) = corpus(1);
        let mut doc = extra.pop().unwrap();
        doc.exec = ExecId(500);
        sharded.ingest(&doc);
        assert!(sharded.generation() > before, "floor keeps monotonicity");
        // Restoring below the current generation is a no-op.
        let cur = sharded.generation();
        sharded.restore_generation(1);
        assert_eq!(sharded.generation(), cur);
    }

    #[test]
    fn shard_count_clamped_and_backend_key_stable() {
        let e = ShardedEngine::new(0);
        assert_eq!(e.shard_count(), 1);
        assert_eq!(e.backend_key(), "sharded(1)");
        let e = ShardedEngine::with_seed(3, 7);
        assert_eq!(e.seed(), 7);
        assert_eq!(e.backend_key(), "sharded(3)");
    }
}
