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
//! Queries scatter across shards and merge, all on the calling thread:
//!
//! * **closures** run a level-synchronous BFS — each frontier level's
//!   adjacency lists are borrowed from the owning shards (and from the
//!   coordinator for artifact nodes), then gathered in frontier order,
//!   which reproduces the single engine's FIFO discovery order bit for
//!   bit;
//! * **scans** over runs/executions run per shard and merge by key order
//!   (executions are disjoint across shards, so the merged order equals
//!   the single engine's scan order);
//! * **filters and collects** send each row, in input order, to its
//!   owning shard (or the coordinator for artifacts).
//!
//! No stage starts a thread: a server already runs one request thread per
//! core, so a query has no idle core to borrow, and a stage's work (tens
//! of microseconds) is smaller than a thread's start-up. The shards
//! partition the data, not the CPU.
//!
//! Every shard and the coordinator count into the calling query's own
//! tally, so EXPLAIN ANALYZE access totals sum exactly across shards — for
//! closure and path queries they equal the unsharded engine's to the last
//! counter — and stay exact while other queries run beside it. The
//! query's total joins the engine's [`StoreStats`] when it returns. The
//! plan grows a [`PlanOp::ScatterGather`] operator whose EXPLAIN ANALYZE
//! rendering carries one child row per shard. The optimizer's decision
//! core ([`crate::optimize`]) runs against summed cardinalities and
//! posting lengths, so rewrite decisions match the single engine.

use crate::ast::*;
use crate::error::PqlError;
use crate::eval::{
    exec_key, note_artifacts, PNode, Postings, PqlEngine, QueryResult, ResultNode, ScanItem,
};
use crate::optimize::{optimize_with, Optimization, QueryCache, Rewrite};
use crate::parser::parse;
use crate::plan::{
    measured, simple_paths, tallied, Analysis, CostModel, OpReport, Plan, PlanNode, PlanOp, Tally,
};
use prov_core::model::RetrospectiveProvenance;
use prov_store::{shard_of, StatsSnapshot, StoreStats, DEFAULT_SHARD_SEED};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use wf_engine::ExecId;

/// Per-lane (shard or coordinator) accounting for one scatter stage.
/// Busy time is kept in nanoseconds and converted once, in the report: a
/// lane's share of one BFS level is often below a microsecond.
#[derive(Debug, Default, Clone, Copy)]
struct Lane {
    rows_in: usize,
    rows_out: usize,
    nanos: u64,
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
    /// Every access this engine's queries made, over all shards and the
    /// coordinator: each query adds its tally when it returns.
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
        ShardedEngine {
            shards: (0..n).map(|_| PqlEngine::new()).collect(),
            seed,
            stats: StoreStats::default(),
            catalog: BTreeMap::new(),
            art_succ: BTreeMap::new(),
            art_pred: BTreeMap::new(),
            dtype_index: Postings::default(),
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

    /// The access recorder: every access this engine's queries have made,
    /// over all shards and the coordinator.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Per-shard ingest generations.
    pub fn generations(&self) -> Vec<u64> {
        self.shards.iter().map(PqlEngine::generation).collect()
    }

    /// Global generation: the *sum* of per-shard generations, so an
    /// ingest into any shard — not just shard 0 — advances it and
    /// invalidates cached results (see [`Self::eval_cached`]).
    pub fn generation(&self) -> u64 {
        self.generations().iter().sum()
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

    fn artifact_neighbors_counted(&self, tally: &Tally, h: u64, reverse: bool) -> &[PNode] {
        tally.add_keyed_lookups(1);
        tally.add_node_reads(1);
        let m = if reverse {
            &self.art_pred
        } else {
            &self.art_succ
        };
        let ns = m.get(&h).map(|v| v.as_slice()).unwrap_or(&[]);
        tally.add_edge_reads(ns.len() as u64);
        ns
    }

    fn artifact_matches_counted(&self, tally: &Tally, h: u64, cond: &Condition) -> bool {
        tally.add_node_reads(1);
        PqlEngine::dnf_matches(cond, |field| match field {
            Field::Dtype => self.catalog.get(&h).cloned(),
            _ => None,
        })
    }

    fn artifact_describe_counted(&self, tally: &Tally, h: u64) -> ResultNode {
        tally.add_node_reads(1);
        ResultNode::Artifact {
            hash: h,
            dtype: self.catalog.get(&h).cloned().unwrap_or_default(),
        }
    }

    fn scan_artifacts_counted(&self, tally: &Tally) -> Vec<ScanItem> {
        tally.add_scans(1);
        let items: Vec<ScanItem> = self
            .catalog
            .keys()
            .map(|&h| ScanItem::Node(PNode::Artifact(h)))
            .collect();
        tally.add_node_reads(items.len() as u64);
        items
    }

    /// The one shard an `exec = value` key is answered on: the owner of
    /// the execution it names. A value that names none selects nothing
    /// anywhere; shard 0 answers it, so its lookup is counted once, as on
    /// the single engine.
    fn exec_shard(&self, value: &str) -> usize {
        exec_key(value).map_or(0, |e| self.route(e))
    }

    /// Global posting length: coordinator dtype index for artifacts,
    /// per-shard sums for run indexes, the owning shard's range for `exec`
    /// (executions stay unkeyed). Feeds the optimizer's decision core.
    fn posting_len(&self, entity: Entity, field: Field, value: &str) -> Option<usize> {
        match (entity, field) {
            (Entity::Artifacts, Field::Dtype) => Some(self.dtype_index.get(value).len()),
            (Entity::Runs, Field::Exec) => {
                self.shards[self.exec_shard(value)].posting_len(entity, field, value)
            }
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
    fn resolve_sharded(&self, tally: &Tally, t: Target) -> Result<PNode, PqlError> {
        match t {
            Target::Artifact(h) => {
                tally.add_keyed_lookups(1);
                tally.add_node_reads(1);
                if self.catalog.contains_key(&h) {
                    Ok(PNode::Artifact(h))
                } else {
                    Err(PqlError::Eval(format!("unknown artifact {h:016x}")))
                }
            }
            Target::Run(e, _) => self.shards[self.route(ExecId(e))].resolve_counted(tally, t),
        }
    }

    fn neighbors_routed(&self, tally: &Tally, node: PNode, reverse: bool) -> &[PNode] {
        match node {
            PNode::Run(e, _) => self.shards[self.route(e)].neighbors_counted(tally, node, reverse),
            PNode::Artifact(h) => self.artifact_neighbors_counted(tally, h, reverse),
        }
    }

    fn describe_routed(&self, tally: &Tally, node: PNode) -> ResultNode {
        match node {
            PNode::Run(e, _) => {
                self.shards[self.route(e)].describe_item(tally, ScanItem::Node(node))
            }
            PNode::Artifact(h) => self.artifact_describe_counted(tally, h),
        }
    }

    // ---- scatter stages -------------------------------------------------

    /// Borrow the adjacency lists of one BFS frontier level: run nodes
    /// from their owning shards, artifact nodes from the coordinator, one
    /// lane at a time so each lane's rows and busy time are its own. Lists
    /// come back positioned by frontier index, so the gather preserves the
    /// single engine's discovery order. Lane `shards.len()` is the
    /// coordinator.
    fn fetch_level(
        &self,
        tally: &Tally,
        level: &[PNode],
        reverse: bool,
        lanes: &mut [Lane],
    ) -> Vec<&[PNode]> {
        let n = self.shards.len();
        let mut by_lane: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        for (i, node) in level.iter().enumerate() {
            match node {
                PNode::Run(e, _) => by_lane[self.route(*e)].push(i),
                PNode::Artifact(_) => by_lane[n].push(i),
            }
        }
        let mut out: Vec<&[PNode]> = vec![&[]; level.len()];
        for (lane, idxs) in by_lane.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let t0 = Instant::now();
            for &i in idxs {
                let ns = match level[i] {
                    PNode::Run(..) => self.shards[lane].neighbors_counted(tally, level[i], reverse),
                    PNode::Artifact(h) => self.artifact_neighbors_counted(tally, h, reverse),
                };
                lanes[lane].rows_in += 1;
                lanes[lane].rows_out += ns.len();
                out[i] = ns;
            }
            lanes[lane].nanos += t0.elapsed().as_nanos() as u64;
        }
        out
    }

    /// One map stage over mixed rows, in input order: run/execution rows
    /// are answered by their owning shard, artifact rows by the
    /// coordinator, so row order — and therefore result order — is the
    /// input's.
    fn routed_map<R>(
        &self,
        items: &[ScanItem],
        shard_f: impl Fn(&PqlEngine, ScanItem) -> R,
        coord_f: impl Fn(u64) -> R,
    ) -> Vec<R> {
        items
            .iter()
            .map(|&it| match it {
                ScanItem::Node(PNode::Run(e, _)) | ScanItem::Exec(e) => {
                    shard_f(&self.shards[self.route(e)], it)
                }
                ScanItem::Node(PNode::Artifact(h)) => coord_f(h),
            })
            .collect()
    }

    /// Routed filter stage with the single engine's counting discipline.
    fn filter_items(&self, tally: &Tally, items: &[ScanItem], filter: &Condition) -> Vec<ScanItem> {
        let mask = self.routed_map(
            items,
            |shard, it| shard.item_matches(tally, it, filter),
            |h| self.artifact_matches_counted(tally, h, filter),
        );
        items
            .iter()
            .zip(mask)
            .filter_map(|(&it, keep)| keep.then_some(it))
            .collect()
    }

    /// Routed collect stage (result materialization).
    fn describe_items(&self, tally: &Tally, items: &[ScanItem]) -> Vec<ResultNode> {
        self.routed_map(
            items,
            |shard, it| shard.describe_item(tally, it),
            |h| self.artifact_describe_counted(tally, h),
        )
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
    /// operator. Child rows carry rows and self-time only; the access
    /// deltas stay on the parent operators, where they are exact.
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
                self_micros: lane.nanos / 1_000,
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
                self_micros: lanes[n].nanos / 1_000,
                accesses: StatsSnapshot::default(),
            });
        }
        out
    }

    // ---- the analyzing executor ----------------------------------------

    /// EXPLAIN ANALYZE through the naive sharded plan. Results are
    /// identical to `PqlEngine::eval_query` on the same corpus.
    pub fn analyze(&self, query: &Query) -> Result<Analysis, PqlError> {
        tallied(&self.stats, |tally| self.analyze_with(tally, query))
    }

    fn analyze_with(&self, tally: &Tally, query: &Query) -> Result<Analysis, PqlError> {
        match query {
            Query::Closure { .. } => self.analyze_closure(tally, query),
            Query::Count { .. } | Query::List { .. } => self.analyze_scan(tally, query),
            Query::Paths { .. } => self.analyze_paths(tally, query),
        }
    }

    fn analyze_closure(&self, tally: &Tally, query: &Query) -> Result<Analysis, PqlError> {
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
            measured(tally, || self.resolve_sharded(tally, *target));
        let anchor = anchor?;

        // Level-synchronous BFS: a level is the nodes discovered in FIFO
        // order at one depth, so expanding levels in that order and merging
        // each level's (position-indexed) adjacency lists sequentially
        // reproduces the single engine's FIFO discovery order exactly.
        // Nodes at the depth limit are included but not expanded.
        let reverse = *direction == Direction::Upstream;
        let mut lanes = vec![Lane::default(); n + 1];
        let (discovered, traverse_micros, traverse_delta) = measured(tally, || {
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
                let fetched = self.fetch_level(tally, &level, reverse, &mut lanes);
                let mut next: Vec<PNode> = Vec::new();
                for ns in fetched {
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
        let gather_micros = lanes.iter().map(|l| l.nanos).sum::<u64>() / 1_000;

        let mut filter_report: Option<(usize, usize, u64, StatsSnapshot)> = None;
        let kept: Vec<PNode> = if filter.is_trivial() {
            discovered
        } else {
            let items: Vec<ScanItem> = discovered.iter().map(|&p| ScanItem::Node(p)).collect();
            let (kept_items, t, d) = measured(tally, || self.filter_items(tally, &items, filter));
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
            measured(tally, || self.describe_items(tally, &collect_items));

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

    fn analyze_scan(&self, tally: &Tally, query: &Query) -> Result<Analysis, PqlError> {
        let (Query::Count { entity, filter } | Query::List { entity, filter }) = query else {
            unreachable!("analyze_scan dispatches on count/list queries")
        };
        let n = self.shards.len();
        let plan = self.naive_plan(query);
        let mut ests = self.cost_model().plan_estimates(&plan).into_iter();
        let t_total = Instant::now();

        // Scan stage: artifacts are coordinator-resident; runs/executions
        // scatter to shards and merge in key order (executions are
        // disjoint across shards, so the merged sequence is exactly the
        // single engine's scan order).
        let mut lanes = vec![Lane::default(); n];
        let mut gather_micros = 0u64;
        let (items, scan_micros, scan_delta) = if *entity == Entity::Artifacts {
            measured(tally, || self.scan_artifacts_counted(tally))
        } else {
            let (mut items, micros, delta) = measured(tally, || {
                let mut items: Vec<ScanItem> = Vec::new();
                for (lane, shard) in lanes.iter_mut().zip(&self.shards) {
                    let t0 = Instant::now();
                    let part = shard.scan_entity(tally, *entity);
                    lane.nanos = t0.elapsed().as_nanos() as u64;
                    lane.rows_out = part.len();
                    items.extend(part);
                }
                items
            });
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
            let (kept, t, d) = measured(tally, || self.filter_items(tally, &items, filter));
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
            let (rows, t, d) = measured(tally, || self.describe_items(tally, &kept));
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

    fn analyze_paths(&self, tally: &Tally, query: &Query) -> Result<Analysis, PqlError> {
        let Query::Paths { from, to, max_len } = query else {
            unreachable!("analyze_paths dispatches on path queries")
        };
        let plan = self.naive_plan(query);
        let mut ests = self.cost_model().plan_estimates(&plan).into_iter();
        let t_total = Instant::now();

        let (a, ta, da) = measured(tally, || self.resolve_sharded(tally, *from));
        let a = a?;
        let (b, tb, db) = measured(tally, || self.resolve_sharded(tally, *to));
        let b = b?;

        let cap = max_len.unwrap_or(16);
        // Same DFS as the single engine: simple paths over succ edges with
        // a length budget; run adjacency comes from the owning shard,
        // artifact adjacency from the coordinator mirror.
        let (paths, tp, dp) = measured(tally, || {
            simple_paths(a, b, cap, &|n| self.neighbors_routed(tally, n, false))
        });

        let rows_in = paths.len();
        let (rendered, tc, dc) = measured(tally, || {
            paths
                .into_iter()
                .map(|p| {
                    p.into_iter()
                        .map(|n| self.describe_routed(tally, n))
                        .collect()
                })
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
        tallied(&self.stats, |tally| {
            let opt = self.optimize(query);
            match opt.chosen.clone() {
                Rewrite::None => self.analyze_with(tally, query),
                Rewrite::MetaCount { entity } => Ok(self.analyze_meta_count(tally, opt, entity)),
                Rewrite::IndexLookup { entity, keys, est } => {
                    self.analyze_index_lookup(tally, opt, query, entity, keys, est)
                }
                Rewrite::NeighborProbe => self.analyze_neighbor_probe(tally, opt, query),
            }
        })
    }

    fn analyze_meta_count(&self, tally: &Tally, opt: Optimization, entity: Entity) -> Analysis {
        let n = self.shards.len();
        let t_total = Instant::now();
        if entity == Entity::Artifacts {
            // One keyed lookup against the coordinator catalog, mirroring
            // the single engine's meta_count counting.
            let (total, t, d) = measured(tally, || {
                tally.add_keyed_lookups(1);
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
        let (total, t, d) = measured(tally, || {
            let mut total = 0usize;
            for (s, shard) in self.shards.iter().enumerate() {
                let t0 = Instant::now();
                let c = shard.meta_count(tally, entity);
                lanes[s].rows_out = c;
                lanes[s].nanos = t0.elapsed().as_nanos() as u64;
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
        tally: &Tally,
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
        let (candidates, lookup_micros, lookup_delta) = measured(tally, || match entity {
            Entity::Runs => {
                let mut set = BTreeSet::new();
                for (s, shard) in self.shards.iter().enumerate() {
                    let t0 = Instant::now();
                    let mut cnt = 0usize;
                    for (field, value) in &keys {
                        if *field == Field::Exec && self.exec_shard(value) != s {
                            continue;
                        }
                        for key in shard
                            .probe_run_index(tally, *field, value)
                            .into_iter()
                            .flatten()
                        {
                            cnt += 1;
                            set.insert(key);
                        }
                    }
                    lanes[s].rows_out = cnt;
                    lanes[s].nanos = t0.elapsed().as_nanos() as u64;
                    probed_rows += cnt;
                }
                set.into_iter()
                    .map(|(e, node)| ScanItem::Node(PNode::Run(e, node)))
                    .collect::<Vec<_>>()
            }
            Entity::Artifacts => {
                let mut set: BTreeSet<u64> = BTreeSet::new();
                for (_, value) in &keys {
                    set.extend(self.dtype_index.probe(tally, value));
                }
                set.into_iter()
                    .map(|h| ScanItem::Node(PNode::Artifact(h)))
                    .collect::<Vec<_>>()
            }
            Entity::Executions => unreachable!("executions have no secondary index"),
        });

        let rows_in = candidates.len();
        let (kept, filter_micros, filter_delta) =
            measured(tally, || self.filter_items(tally, &candidates, filter));

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
            let (rows, t, d) = measured(tally, || self.describe_items(tally, &kept));
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
                self_micros: lanes.iter().map(|l| l.nanos).sum::<u64>() / 1_000,
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
        tally: &Tally,
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

        let (anchor, t, d) = measured(tally, || self.resolve_sharded(tally, *target));
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
        let (discovered, t, d) = measured(tally, || {
            let mut out = Vec::new();
            let mut seen: BTreeSet<PNode> = [anchor].into();
            for &m in self.neighbors_routed(tally, anchor, reverse) {
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
            let (kept_items, t, d) = measured(tally, || self.filter_items(tally, &items, filter));
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
        let (rows, t, d) = measured(tally, || self.describe_items(tally, &collect_items));
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
    use crate::optimize::analyze_optimized;
    use crate::plan::analyze;
    use prov_core::capture::{CaptureLevel, ProvenanceCapture};
    use prov_core::model::{Artifact, Environment, ModuleRun};
    use wf_engine::synth::figure1_workflow;
    use wf_engine::{standard_registry, Executor, RunStatus};
    use wf_model::{NodeId, WorkflowId};

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

    /// The fan-in shape of E22, two generations deep: `width` one-run
    /// executions consume artifact `a` and produce `b`, `width` more
    /// consume `b` and produce `c`. Every closure through the middle has
    /// levels `width` runs wide. Every seventh execution failed, and
    /// module names alternate, so filters keep some rows and drop others.
    fn fan_in_corpus(width: usize) -> (Vec<RetrospectiveProvenance>, [u64; 3]) {
        let hashes = [0xFA_0000_0001, 0xFA_0000_0002, 0xFA_0000_0003];
        let mut docs = Vec::new();
        for generation in 0..2 {
            let (consumed, produced) = (hashes[generation], hashes[generation + 1]);
            for w in 0..width {
                let i = generation * width + w;
                let status = if i.is_multiple_of(7) {
                    RunStatus::Failed
                } else {
                    RunStatus::Succeeded
                };
                let identity = if w % 2 == 0 { "AlignWarp@1" } else { "Slice@1" };
                let artifacts = [consumed, produced]
                    .into_iter()
                    .map(|hash| {
                        let dtype = "grid".to_string();
                        let artifact = Artifact {
                            hash,
                            dtype,
                            size: 64,
                            preview: None,
                        };
                        (hash, artifact)
                    })
                    .collect();
                docs.push(RetrospectiveProvenance {
                    exec: ExecId(i as u64),
                    workflow: WorkflowId(0xFA),
                    workflow_name: "fan-in".to_string(),
                    status,
                    started_millis: 0,
                    finished_millis: 1,
                    runs: vec![ModuleRun {
                        node: NodeId(0),
                        identity: identity.to_string(),
                        params: Vec::new(),
                        status,
                        started_millis: 0,
                        elapsed_micros: 1,
                        from_cache: false,
                        error: None,
                        inputs: vec![("in".to_string(), consumed)],
                        outputs: vec![("out".to_string(), produced)],
                        attempts: 1,
                        backoff_micros: 0,
                    }],
                    artifacts,
                    environment: Environment::current(1),
                    resumed_from: None,
                });
            }
        }
        (docs, hashes)
    }

    /// `sharded` answers `q` as `single` does, through the naive and the
    /// optimized plan: the same rows in the same order, or the same error.
    /// The naive plan also makes the same accesses, save that a run or
    /// execution scan is one scan per shard.
    fn assert_matches_single(single: &PqlEngine, sharded: &ShardedEngine, q: &str) {
        let parsed = parse(q).unwrap();
        let n = sharded.shard_count();
        let reference = single.eval_query(&parsed);
        match (analyze(single, &parsed), sharded.analyze(&parsed)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(Ok(&a.result), reference.as_ref(), "plan sanity on {q}");
                assert_eq!(b.result, a.result, "naive divergence on {q}, {n} shard(s)");
                let mut expected = a.total_accesses();
                if let Query::Count { entity, .. } | Query::List { entity, .. } = parsed {
                    if entity != Entity::Artifacts {
                        expected.scans = n as u64;
                    }
                }
                let got = b.total_accesses();
                assert_eq!(got, expected, "access totals on {q}, {n} shard(s)");
            }
            (Err(a), Err(b)) => assert_eq!(b, a, "error divergence on {q}, {n} shard(s)"),
            (a, b) => panic!("{q}, {n} shard(s): single {a:?}, sharded {b:?}"),
        }
        match (
            analyze_optimized(single, &parsed),
            sharded.analyze_optimized(&parsed),
        ) {
            (Ok(a), Ok(b)) => {
                assert_eq!(Ok(&a.result), reference.as_ref(), "optimizer sanity on {q}");
                assert_eq!(
                    b.result, a.result,
                    "optimized divergence on {q}, {n} shard(s)"
                );
            }
            (Err(a), Err(b)) => assert_eq!(b, a, "optimized error on {q}, {n} shard(s)"),
            (a, b) => panic!("optimized {q}, {n} shard(s): single {a:?}, sharded {b:?}"),
        }
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
                assert_matches_single(&single, &sharded, &q);
            }
        }

        // The wide stages: a fan-in of 300 executions gives both closure
        // directions levels and collects of at least 256 rows, and the
        // run and execution scans at least 256 rows each.
        let (docs, [a, b, c]) = fan_in_corpus(300);
        for shards in [2, 4] {
            let (single, sharded) = engines(shards, &docs);
            let widest = single.eval(&format!("impact of artifact {a:016x} depth 1"));
            assert!(widest.unwrap().len() >= 256, "one level is 256+ runs wide");
            for q in [
                format!("lineage of artifact {c:016x}"),
                format!("lineage of artifact {c:016x} where status = failed"),
                format!("lineage of artifact {c:016x} depth 2"),
                format!("impact of artifact {a:016x}"),
                format!("impact of artifact {a:016x} where module contains warp"),
                format!("impact of artifact {a:016x} depth 1"),
                format!("impact of artifact {b:016x} depth 1"),
                "impact of run 5/0".to_string(),
                format!("paths from artifact {a:016x} to artifact {b:016x}"),
                "list runs".to_string(),
                "list runs where module contains warp".to_string(),
                "count runs where status = failed".to_string(),
                "list executions where status = failed".to_string(),
                "count executions".to_string(),
                "list artifacts".to_string(),
                "lineage of artifact 00000000000000aa".to_string(),
                "impact of run 999999/0".to_string(),
                format!("paths from artifact {a:016x} to artifact 00000000000000bb"),
            ] {
                assert_matches_single(&single, &sharded, &q);
            }
        }
    }

    /// Each query's access counts are its own: readers that analyze at
    /// the same time report exactly what one alone reports, per operator
    /// and in total, and the engine's recorder holds the exact sum.
    fn assert_counts_exact_under_concurrency(
        run: &(impl Fn(&Query) -> Analysis + Sync),
        stats: &StoreStats,
        queries: &[Query],
    ) {
        let per_op = |a: &Analysis| -> Vec<(String, StatsSnapshot)> {
            a.ops
                .iter()
                .map(|o| (o.label.clone(), o.accesses))
                .collect()
        };
        let alone: Vec<_> = queries.iter().map(|q| per_op(&run(q))).collect();
        let before = stats.snapshot();
        let rounds = 50;
        let totals: Vec<StatsSnapshot> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut total = StatsSnapshot::default();
                        for _ in 0..rounds {
                            for (q, expected) in queries.iter().zip(&alone) {
                                let a = run(q);
                                assert_eq!(&per_op(&a), expected, "per-operator accesses");
                                total = total.merge(&a.total_accesses());
                            }
                        }
                        total
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let sum = totals[0].merge(&totals[1]);
        assert_eq!(stats.snapshot().delta(&before), sum, "recorder total");
    }

    #[test]
    fn concurrent_analyses_count_exactly_what_one_alone_counts() {
        let (docs, [a, _, c]) = fan_in_corpus(300);
        let (single, sharded) = engines(2, &docs);
        let queries: Vec<Query> = [
            format!("lineage of artifact {c:016x}"),
            format!("impact of artifact {a:016x} where status = failed"),
            format!("impact of artifact {a:016x} depth 1"),
            "list runs where status = failed".to_string(),
            "list executions where status = failed".to_string(),
            "count runs".to_string(),
        ]
        .iter()
        .map(|q| parse(q).unwrap())
        .collect();
        assert_counts_exact_under_concurrency(
            &|q| analyze_optimized(&single, q).unwrap(),
            single.stats(),
            &queries,
        );
        assert_counts_exact_under_concurrency(
            &|q| sharded.analyze_optimized(q).unwrap(),
            sharded.stats(),
            &queries,
        );
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
    fn exec_keyed_lookup_touches_one_shard_and_counts_like_the_single_engine() {
        // Twelve executions: the module posting (12 runs) is wider than
        // one execution's range (8 runs), so `exec` is the chosen key.
        let (docs, _) = corpus(12);
        let (single, _) = engines(1, &docs);
        let sharded: Vec<ShardedEngine> = [2, 4].iter().map(|&n| engines(n, &docs).1).collect();
        for doc in &docs {
            let n = doc.exec;
            let q = parse(&format!(
                "list runs where exec = {} and module = histogram",
                n.0
            ))
            .unwrap();
            let reference = analyze_optimized(&single, &q).unwrap();
            assert_eq!(reference.result.len(), 1);
            let expected = StatsSnapshot {
                keyed_lookups: 1,
                node_reads: 2 * doc.runs.len() as u64 + 1,
                ..StatsSnapshot::default()
            };
            assert_eq!(reference.total_accesses(), expected, "single, exec {}", n.0);
            let label = format!("IndexLookup (runs: exec = \"{}\")", n.0);
            assert!(
                reference.render().contains(&label),
                "{}",
                reference.render()
            );
            for se in &sharded {
                let a = se.analyze_optimized(&q).unwrap();
                assert_eq!(a.result, reference.result);
                assert_eq!(
                    a.total_accesses(),
                    expected,
                    "{}, exec {}",
                    se.backend_key(),
                    n.0
                );
                assert!(a.render().contains(&label), "{}", a.render());
                let k = se.shard_count();
                for s in 0..k {
                    let lane = a
                        .ops
                        .iter()
                        .find(|o| o.label == format!("shard {s}/{k}"))
                        .expect("one row per shard");
                    let owned = if s == se.route(n) { doc.runs.len() } else { 0 };
                    assert_eq!(lane.rows_out, owned, "shard {s}/{k}, exec {}", n.0);
                }
            }
        }
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
    fn generation_sums_shards() {
        let (docs, _) = corpus(5);
        let (_, sharded) = engines(4, &docs);
        assert_eq!(sharded.generation(), 5, "one bump per ingested doc");
        assert_eq!(sharded.generations().iter().sum::<u64>(), 5);
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
