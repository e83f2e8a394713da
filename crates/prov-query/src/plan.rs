//! Logical plans and EXPLAIN / EXPLAIN ANALYZE for PQL.
//!
//! §2.2 frames provenance querying as a storage-strategy vs.
//! query-efficiency trade-off, but an evaluator alone keeps that trade-off
//! invisible. This module makes it inspectable, database-style:
//!
//! * [`Plan::of`] derives an explicit logical operator tree from a parsed
//!   [`Query`] (`provctl explain` renders it);
//! * [`analyze`] executes the plan against a [`PqlEngine`], timing every
//!   operator and attributing store accesses to it via
//!   [`StatsSnapshot`] deltas of a `Tally` private to the query, which
//!   the engine's counted access layer bumps (EXPLAIN ANALYZE). The
//!   query's total joins the engine's shared recorder once, when it
//!   returns, so concurrent readers never count each other's work. The
//!   executor reproduces `PqlEngine::eval_query` exactly — same
//!   traversal rules, same result order — which the plan/eval
//!   equivalence property test pins down;
//! * [`analyze_store`] runs the queries that map onto the backend-neutral
//!   [`ProvenanceStore`] surface against *any* backend, reporting the
//!   per-operator access counts of that backend's [`StoreStats`] recorder
//!   — the same question answered four ways, with the work itemized.

use crate::ast::*;
use crate::error::PqlError;
use crate::eval::{PNode, PqlEngine, QueryResult, ScanItem};
use prov_store::{ProvenanceStore, StatsSnapshot, StoreStats};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::time::Instant;

/// A logical plan operator.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Resolve the query's anchor node (keyed lookup).
    Anchor {
        /// The anchor.
        target: Target,
    },
    /// Breadth-first closure from the anchor.
    Traverse {
        /// Up- or downstream.
        direction: Direction,
        /// Optional depth bound (edges).
        depth: Option<usize>,
    },
    /// Enumerate all entities of a class (full scan).
    Scan {
        /// The entity class.
        entity: Entity,
    },
    /// Keep rows satisfying a condition.
    Filter {
        /// The condition (DNF).
        filter: Condition,
    },
    /// Depth-first enumeration of simple paths between two anchors.
    EnumeratePaths {
        /// Maximum path length in edges (default applied).
        max_len: usize,
    },
    /// Materialize result rows (metadata reads).
    Collect,
    /// Count rows instead of materializing them.
    CountRows,
    /// Probe a secondary index instead of scanning: the union of the
    /// postings for the chosen `(field = value)` keys, in scan order.
    /// Produced only by the optimizer (see [`crate::optimize`]).
    IndexLookup {
        /// The entity class the index covers.
        entity: Entity,
        /// The probed `(field, value)` keys, one per disjunct.
        keys: Vec<(Field, String)>,
    },
    /// Answer a trivial count from stored metadata (no scan). Produced only
    /// by the optimizer.
    MetaCount {
        /// The entity class counted.
        entity: Entity,
    },
    /// Single-step adjacency probe replacing a depth-1 traversal. Produced
    /// only by the optimizer.
    NeighborProbe {
        /// Up- or downstream.
        direction: Direction,
    },
    /// Fan the child operator out across the shards of a sharded engine
    /// and merge the partial streams (union / count aggregation / frontier
    /// exchange). Produced only by the sharded engine (see
    /// [`crate::sharded`]); EXPLAIN ANALYZE adds one child row per shard.
    ScatterGather {
        /// Number of shards the child runs on.
        shards: usize,
    },
}

impl PlanOp {
    /// Human-readable operator label, e.g. `Traverse (upstream, depth ≤ 3)`.
    pub fn label(&self) -> String {
        match self {
            PlanOp::Anchor { target } => format!("Anchor ({target})"),
            PlanOp::Traverse { direction, depth } => {
                let dir = match direction {
                    Direction::Upstream => "upstream",
                    Direction::Downstream => "downstream",
                };
                match depth {
                    Some(d) => format!("Traverse ({dir}, depth <= {d})"),
                    None => format!("Traverse ({dir})"),
                }
            }
            PlanOp::Scan { entity } => format!("Scan ({entity})"),
            PlanOp::Filter { filter } => format!("Filter ({filter})"),
            PlanOp::EnumeratePaths { max_len } => {
                format!("EnumeratePaths (simple, max {max_len} edges)")
            }
            PlanOp::Collect => "Collect".to_string(),
            PlanOp::CountRows => "CountRows".to_string(),
            PlanOp::IndexLookup { entity, keys } => {
                let keys = keys
                    .iter()
                    .map(|(f, v)| format!("{f} = \"{v}\""))
                    .collect::<Vec<_>>()
                    .join(" | ");
                format!("IndexLookup ({entity}: {keys})")
            }
            PlanOp::MetaCount { entity } => format!("MetaCount ({entity}) [stored cardinality]"),
            PlanOp::NeighborProbe { direction } => {
                let dir = match direction {
                    Direction::Upstream => "upstream",
                    Direction::Downstream => "downstream",
                };
                format!("NeighborProbe ({dir}) [adjacency]")
            }
            PlanOp::ScatterGather { shards } => {
                format!("ScatterGather ({shards} shards) [merge]")
            }
        }
    }
}

/// A node of the logical plan tree: an operator and its inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// The operator.
    pub op: PlanOp,
    /// Input operators (upstream in dataflow order).
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    pub(crate) fn leaf(op: PlanOp) -> Self {
        PlanNode {
            op,
            children: Vec::new(),
        }
    }

    pub(crate) fn over(op: PlanOp, child: PlanNode) -> Self {
        PlanNode {
            op,
            children: vec![child],
        }
    }
}

/// The logical plan of a PQL query: a small operator tree, rendered
/// root-first (the root produces the final result; children are inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The root operator.
    pub root: PlanNode,
}

impl Plan {
    /// Derive the logical plan of a parsed query.
    pub fn of(query: &Query) -> Plan {
        let root = match query {
            Query::Closure {
                direction,
                target,
                depth,
                filter,
            } => {
                let mut node = PlanNode::over(
                    PlanOp::Traverse {
                        direction: *direction,
                        depth: *depth,
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
                PlanNode::over(PlanOp::Collect, node)
            }
            Query::Count { entity, filter } | Query::List { entity, filter } => {
                let mut node = PlanNode::leaf(PlanOp::Scan { entity: *entity });
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
                PlanNode::over(top, node)
            }
            Query::Paths { from, to, max_len } => PlanNode::over(
                PlanOp::Collect,
                PlanNode {
                    op: PlanOp::EnumeratePaths {
                        max_len: max_len.unwrap_or(16),
                    },
                    children: vec![
                        PlanNode::leaf(PlanOp::Anchor { target: *from }),
                        PlanNode::leaf(PlanOp::Anchor { target: *to }),
                    ],
                },
            ),
        };
        Plan { root }
    }

    /// Render the plan as an indented tree, root first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_node(&self.root, 0, &mut |line| {
            out.push_str(&line);
            out.push('\n');
        });
        out
    }

    /// The operators in render order with their tree depths.
    pub(crate) fn flatten(&self) -> Vec<(usize, PlanOp)> {
        let mut out = Vec::new();
        fn walk(n: &PlanNode, depth: usize, out: &mut Vec<(usize, PlanOp)>) {
            out.push((depth, n.op.clone()));
            for c in &n.children {
                walk(c, depth + 1, out);
            }
        }
        walk(&self.root, 0, &mut out);
        out
    }
}

fn render_node(n: &PlanNode, depth: usize, emit: &mut impl FnMut(String)) {
    let indent = if depth == 0 {
        String::new()
    } else {
        format!("{}+- ", "   ".repeat(depth - 1))
    };
    emit(format!("{indent}{}", n.op.label()));
    for c in &n.children {
        render_node(c, depth + 1, emit);
    }
}

/// Per-operator statistics from an EXPLAIN ANALYZE run.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// Operator label (see [`PlanOp::label`]).
    pub label: String,
    /// Tree depth, for indented rendering.
    pub depth: usize,
    /// Rows flowing into the operator.
    pub rows_in: usize,
    /// Rows the operator produced.
    pub rows_out: usize,
    /// Cost-model row estimate for the operator's output, when the model
    /// has one (compare against `rows_out` to judge the estimate).
    pub est_rows: Option<u64>,
    /// Wall-clock time spent in the operator itself.
    pub self_micros: u64,
    /// Store accesses attributed to the operator (snapshot delta).
    pub accesses: StatsSnapshot,
}

impl OpReport {
    fn line(&self) -> String {
        let indent = if self.depth == 0 {
            String::new()
        } else {
            format!("{}+- ", "   ".repeat(self.depth - 1))
        };
        let est = self
            .est_rows
            .map(|e| format!(" est={e}"))
            .unwrap_or_default();
        format!(
            "{indent}{}  (rows={}->{}{est}, {}us; {})",
            self.label,
            self.rows_in,
            self.rows_out,
            self.self_micros,
            self.accesses.render()
        )
    }
}

/// The outcome of EXPLAIN ANALYZE over a [`PqlEngine`].
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The logical plan that was executed.
    pub plan: Plan,
    /// The query result (identical to `PqlEngine::eval_query`).
    pub result: QueryResult,
    /// Total wall-clock time.
    pub total_micros: u64,
    /// Per-operator reports, in plan (render) order.
    pub ops: Vec<OpReport>,
}

impl Analysis {
    /// Sum of all per-operator access deltas.
    pub fn total_accesses(&self) -> StatsSnapshot {
        self.ops
            .iter()
            .fold(StatsSnapshot::default(), |acc, op| acc.merge(&op.accesses))
    }

    /// Render the annotated plan tree plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            out.push_str(&op.line());
            out.push('\n');
        }
        out.push_str(&format!(
            "total: {} rows, {}us, accesses: {}\n",
            self.result.len(),
            self.total_micros,
            self.total_accesses().render()
        ));
        out
    }
}

/// Cheap cardinality statistics about an engine, from which row estimates
/// are derived. This is the cost model the optimizer ranks alternatives
/// with: scans cost their entity cardinality, index probes cost their
/// posting lengths, metadata counts cost one lookup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostModel {
    /// Ingested module runs.
    pub runs: u64,
    /// Known artifacts.
    pub artifacts: u64,
    /// Ingested executions.
    pub execs: u64,
    /// Dataflow edges.
    pub edges: u64,
}

impl CostModel {
    /// Snapshot the engine's cardinalities.
    pub fn of_engine(engine: &PqlEngine) -> Self {
        CostModel {
            runs: engine.run_count() as u64,
            artifacts: engine.artifact_count() as u64,
            execs: engine.exec_count() as u64,
            edges: engine.edge_count() as u64,
        }
    }

    /// Rows a full scan of the entity class produces.
    pub fn entity_rows(&self, entity: Entity) -> u64 {
        match entity {
            Entity::Runs => self.runs,
            Entity::Artifacts => self.artifacts,
            Entity::Executions => self.execs,
        }
    }

    /// Graph nodes (runs + artifacts) — the ceiling for closure sizes.
    pub fn graph_nodes(&self) -> u64 {
        self.runs + self.artifacts
    }

    /// Average adjacency-list length, rounded up.
    pub fn avg_degree(&self) -> u64 {
        let nodes = self.graph_nodes().max(1);
        self.edges.div_ceil(nodes).max(1)
    }

    /// Output-row estimates for every operator of `plan`, aligned with the
    /// plan's render order. `None` means "no estimate" (e.g. simple-path
    /// enumeration, whose output size the model does not predict).
    pub fn plan_estimates(&self, plan: &Plan) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        self.walk_estimates(&plan.root, &mut out);
        out
    }

    fn walk_estimates(&self, node: &PlanNode, out: &mut Vec<Option<u64>>) -> Option<u64> {
        let slot = out.len();
        out.push(None);
        let mut input: Option<u64> = None;
        for child in &node.children {
            let e = self.walk_estimates(child, out);
            input = match (input, e) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        let est = match &node.op {
            PlanOp::Anchor { .. } => Some(1),
            PlanOp::Scan { entity } => Some(self.entity_rows(*entity)),
            // The stored cardinality is known exactly at plan time, and
            // count operators report the count as their row count.
            PlanOp::MetaCount { entity } => Some(self.entity_rows(*entity)),
            PlanOp::IndexLookup { entity, keys } => {
                // Without live posting lengths, assume uniform selectivity
                // per probed key. The optimizer overrides this with exact
                // posting lengths when it builds the lookup.
                let per_key = self
                    .entity_rows(*entity)
                    .div_ceil((keys.len() as u64).max(1));
                Some(per_key.min(self.entity_rows(*entity)))
            }
            PlanOp::Traverse { depth, .. } => match depth {
                Some(d) => {
                    let mut reach = 1u64;
                    for _ in 0..*d {
                        reach = reach.saturating_mul(self.avg_degree());
                    }
                    Some(reach.min(self.graph_nodes()))
                }
                None => Some(self.graph_nodes()),
            },
            PlanOp::NeighborProbe { .. } => Some(self.avg_degree().min(self.graph_nodes())),
            // One-third selectivity is the model's generic guess for a
            // residual predicate.
            PlanOp::Filter { .. } => input.map(|i| i.div_ceil(3)),
            // The merge is row-preserving: duplicates across shards are
            // absorbed, so the child's estimate is the output ceiling.
            PlanOp::ScatterGather { .. } => input,
            PlanOp::Collect | PlanOp::CountRows => input,
            PlanOp::EnumeratePaths { .. } => None,
        };
        out[slot] = est;
        est
    }
}

/// The store accesses of one query, counted as it runs.
///
/// The counted accessors bump the tally of the query that calls them, not
/// the engine's shared [`StoreStats`]: a snapshot delta of a shared
/// recorder would also hold the work of every other query running beside
/// it under the same read lock. A tally never leaves its query's thread,
/// so plain cells suffice.
#[derive(Debug, Default)]
pub(crate) struct Tally(Cell<StatsSnapshot>);

impl Tally {
    fn bump(&self, f: impl FnOnce(&mut StatsSnapshot)) {
        let mut s = self.0.get();
        f(&mut s);
        self.0.set(s);
    }

    pub(crate) fn add_node_reads(&self, n: u64) {
        self.bump(|s| s.node_reads += n);
    }

    pub(crate) fn add_edge_reads(&self, n: u64) {
        self.bump(|s| s.edge_reads += n);
    }

    pub(crate) fn add_keyed_lookups(&self, n: u64) {
        self.bump(|s| s.keyed_lookups += n);
    }

    pub(crate) fn add_scans(&self, n: u64) {
        self.bump(|s| s.scans += n);
    }

    /// The accesses counted so far.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        self.0.get()
    }
}

/// Run one query against a fresh [`Tally`], then add its total to
/// `stats`, the engine's "every access so far" recorder — once, whether
/// the query succeeded or not.
pub(crate) fn tallied<T>(stats: &StoreStats, f: impl FnOnce(&Tally) -> T) -> T {
    let tally = Tally::default();
    let out = f(&tally);
    stats.add(&tally.snapshot());
    out
}

/// A measured stage: runs `f`, returns its output plus (self-time µs,
/// access delta) against the query's tally.
pub(crate) fn measured<T>(tally: &Tally, f: impl FnOnce() -> T) -> (T, u64, StatsSnapshot) {
    let before = tally.snapshot();
    let t0 = Instant::now();
    let out = f();
    let micros = t0.elapsed().as_micros() as u64;
    let delta = tally.snapshot().delta(&before);
    (out, micros, delta)
}

/// EXPLAIN ANALYZE: execute `query` through the logical plan, annotating
/// every operator with rows in/out, self-time, and store-access counts.
/// The result is guaranteed identical to `PqlEngine::eval_query`.
pub fn analyze(engine: &PqlEngine, query: &Query) -> Result<Analysis, PqlError> {
    tallied(engine.stats(), |tally| analyze_with(engine, tally, query))
}

/// [`analyze`], counting into the caller's tally.
pub(crate) fn analyze_with(
    engine: &PqlEngine,
    tally: &Tally,
    query: &Query,
) -> Result<Analysis, PqlError> {
    let plan = Plan::of(query);
    let t_total = Instant::now();
    // Reports are first built in execution order (leaves before roots),
    // then matched back to the plan's render order.
    let mut exec_reports: Vec<(PlanOp, usize, usize, u64, StatsSnapshot)> = Vec::new();

    let result = match query {
        Query::Closure {
            direction,
            target,
            depth,
            filter,
        } => {
            let (anchor, t, d) = measured(tally, || engine.resolve_counted(tally, *target));
            let anchor = anchor?;
            exec_reports.push((PlanOp::Anchor { target: *target }, 0, 1, t, d));

            let reverse = *direction == Direction::Upstream;
            // Same BFS as eval_query: nodes at the depth limit are included
            // but not expanded; discovery order is result order.
            let (discovered, t, dstats) = measured(tally, || {
                let mut discovered: Vec<PNode> = Vec::new();
                let mut seen: BTreeSet<PNode> = [anchor].into();
                let mut q: VecDeque<(PNode, usize)> = [(anchor, 0usize)].into();
                while let Some((n, d)) = q.pop_front() {
                    if let Some(limit) = depth {
                        if d == *limit {
                            continue;
                        }
                    }
                    for &m in engine.neighbors_counted(tally, n, reverse) {
                        if seen.insert(m) {
                            discovered.push(m);
                            q.push_back((m, d + 1));
                        }
                    }
                }
                discovered
            });
            exec_reports.push((
                PlanOp::Traverse {
                    direction: *direction,
                    depth: *depth,
                },
                1,
                discovered.len(),
                t,
                dstats,
            ));

            let kept = if filter.is_trivial() {
                discovered
            } else {
                let rows_in = discovered.len();
                let (kept, t, d) = measured(tally, || {
                    discovered
                        .into_iter()
                        .filter(|&n| engine.item_matches(tally, ScanItem::Node(n), filter))
                        .collect::<Vec<_>>()
                });
                exec_reports.push((
                    PlanOp::Filter {
                        filter: filter.clone(),
                    },
                    rows_in,
                    kept.len(),
                    t,
                    d,
                ));
                kept
            };

            let rows_in = kept.len();
            let (rows, t, d) = measured(tally, || {
                kept.into_iter()
                    .map(|n| engine.describe_item(tally, ScanItem::Node(n)))
                    .collect::<Vec<_>>()
            });
            exec_reports.push((PlanOp::Collect, rows_in, rows.len(), t, d));
            QueryResult::Nodes(rows)
        }
        Query::Count { entity, filter } | Query::List { entity, filter } => {
            let (items, t, d) = measured(tally, || engine.scan_entity(tally, *entity));
            exec_reports.push((PlanOp::Scan { entity: *entity }, 0, items.len(), t, d));

            let kept = if filter.is_trivial() {
                items
            } else {
                let rows_in = items.len();
                let (kept, t, d) = measured(tally, || {
                    items
                        .into_iter()
                        .filter(|&it| engine.item_matches(tally, it, filter))
                        .collect::<Vec<_>>()
                });
                exec_reports.push((
                    PlanOp::Filter {
                        filter: filter.clone(),
                    },
                    rows_in,
                    kept.len(),
                    t,
                    d,
                ));
                kept
            };

            let rows_in = kept.len();
            if matches!(query, Query::Count { .. }) {
                let n = kept.len();
                exec_reports.push((PlanOp::CountRows, rows_in, n, 0, StatsSnapshot::default()));
                QueryResult::Count(n)
            } else {
                let (rows, t, d) = measured(tally, || {
                    kept.into_iter()
                        .map(|it| engine.describe_item(tally, it))
                        .collect::<Vec<_>>()
                });
                exec_reports.push((PlanOp::Collect, rows_in, rows.len(), t, d));
                QueryResult::Nodes(rows)
            }
        }
        Query::Paths { from, to, max_len } => {
            let (a, t, d) = measured(tally, || engine.resolve_counted(tally, *from));
            let a = a?;
            exec_reports.push((PlanOp::Anchor { target: *from }, 0, 1, t, d));
            let (b, t, d) = measured(tally, || engine.resolve_counted(tally, *to));
            let b = b?;
            exec_reports.push((PlanOp::Anchor { target: *to }, 0, 1, t, d));

            let cap = max_len.unwrap_or(16);
            // Same DFS as eval_query: simple paths over succ edges with a
            // length budget.
            let (paths, t, d) = measured(tally, || {
                simple_paths(a, b, cap, &|n| engine.neighbors_counted(tally, n, false))
            });
            exec_reports.push((
                PlanOp::EnumeratePaths { max_len: cap },
                2,
                paths.len(),
                t,
                d,
            ));

            let rows_in = paths.len();
            let (rendered, t, d) = measured(tally, || {
                paths
                    .into_iter()
                    .map(|p| {
                        p.into_iter()
                            .map(|n| engine.describe_item(tally, ScanItem::Node(n)))
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            });
            exec_reports.push((PlanOp::Collect, rows_in, rendered.len(), t, d));
            QueryResult::Paths(rendered)
        }
    };

    let total_micros = t_total.elapsed().as_micros() as u64;
    let estimates = CostModel::of_engine(engine).plan_estimates(&plan);
    // Match execution-order reports to the plan's render order by operator
    // identity (each operator appears exactly once per anchor slot).
    let mut ops = Vec::new();
    let mut remaining = exec_reports;
    for ((depth, op), est_rows) in plan.flatten().into_iter().zip(estimates) {
        let idx = remaining
            .iter()
            .position(|(o, ..)| *o == op)
            .expect("every plan operator is executed exactly once");
        let (o, rows_in, rows_out, self_micros, accesses) = remaining.remove(idx);
        ops.push(OpReport {
            label: o.label(),
            depth,
            rows_in,
            rows_out,
            est_rows,
            self_micros,
            accesses,
        });
    }
    Ok(Analysis {
        plan,
        result,
        total_micros,
        ops,
    })
}

/// Every simple path from `from` to `to` of at most `cap` edges, in the
/// depth-first order `eval_query` enumerates them. `succ` is the counted
/// adjacency source (one engine, or the shards plus the coordinator).
pub(crate) fn simple_paths<'a>(
    from: PNode,
    to: PNode,
    cap: usize,
    succ: &impl Fn(PNode) -> &'a [PNode],
) -> Vec<Vec<PNode>> {
    let mut paths = Vec::new();
    let mut stack = vec![from];
    let mut on_path: BTreeSet<PNode> = [from].into();
    dfs(from, to, cap, succ, &mut stack, &mut on_path, &mut paths);
    paths
}

fn dfs<'a>(
    cur: PNode,
    to: PNode,
    budget: usize,
    succ: &impl Fn(PNode) -> &'a [PNode],
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
    for &n in succ(cur) {
        if on_path.insert(n) {
            stack.push(n);
            dfs(n, to, budget - 1, succ, stack, on_path, out);
            stack.pop();
            on_path.remove(&n);
        }
    }
}

// ---- backend ANALYZE over the canned-query surface -----------------------

/// The outcome of running a (mappable) PQL query against a
/// [`ProvenanceStore`] backend with access accounting.
#[derive(Debug, Clone)]
pub struct StoreAnalysis {
    /// Backend name (`graph` / `triple` / `relational` / `log`).
    pub backend: String,
    /// Per-operator reports.
    pub ops: Vec<OpReport>,
    /// Result rows the backend produced.
    pub rows: usize,
    /// Total wall-clock time.
    pub total_micros: u64,
}

impl StoreAnalysis {
    /// Sum of all per-operator access deltas.
    pub fn total_accesses(&self) -> StatsSnapshot {
        self.ops
            .iter()
            .fold(StatsSnapshot::default(), |acc, op| acc.merge(&op.accesses))
    }

    /// Render the backend's annotated operator list plus a summary line.
    pub fn render(&self) -> String {
        let mut out = format!("backend: {}\n", self.backend);
        for op in &self.ops {
            out.push_str(&op.line());
            out.push('\n');
        }
        out.push_str(&format!(
            "total: {} rows, {}us, accesses: {}\n",
            self.rows,
            self.total_micros,
            self.total_accesses().render()
        ));
        out
    }
}

/// EXPLAIN ANALYZE against an arbitrary store backend.
///
/// Only query shapes that map onto the backend-neutral canned-query
/// surface are supported:
///
/// * `lineage of artifact H` → `lineage_runs` (upstream closure, runs);
/// * `lineage of artifact H depth 1` → `generators`;
/// * `impact of artifact H` → `derived_artifacts` (downstream closure —
///   note the store surface returns the artifact side only);
/// * `count runs` → `run_count`.
///
/// Filters, run anchors, depth bounds other than 1, `list`, and `paths`
/// exist only in the PQL engine and are rejected with an
/// [`PqlError::Eval`] naming the supported forms.
pub fn analyze_store(
    store: &dyn ProvenanceStore,
    query: &Query,
) -> Result<StoreAnalysis, PqlError> {
    let unsupported = || {
        PqlError::Eval(format!(
            "query '{query}' does not map onto the backend-neutral store surface; \
             supported forms: 'lineage of artifact H', 'lineage of artifact H depth 1', \
             'impact of artifact H', 'count runs'"
        ))
    };
    let t0 = Instant::now();
    let before = store.stats().snapshot();
    let (mut label, rows) = match query {
        Query::Closure {
            direction: Direction::Upstream,
            target: Target::Artifact(h),
            depth: None,
            filter,
        } if filter.is_trivial() => (
            "TransitiveClosure (upstream runs) [lineage_runs]".to_string(),
            store.lineage_runs(*h).len(),
        ),
        Query::Closure {
            direction: Direction::Upstream,
            target: Target::Artifact(h),
            depth: Some(1),
            filter,
        } if filter.is_trivial() => (
            "KeyedProbe (generating runs) [generators]".to_string(),
            store.generators(*h).len(),
        ),
        Query::Closure {
            direction: Direction::Downstream,
            target: Target::Artifact(h),
            depth: None,
            filter,
        } if filter.is_trivial() => (
            "TransitiveClosure (downstream artifacts) [derived_artifacts]".to_string(),
            store.derived_artifacts(*h).len(),
        ),
        Query::Count {
            entity: Entity::Runs,
            filter,
        } if filter.is_trivial() => (
            "Aggregate (count) [run_count]".to_string(),
            store.run_count(),
        ),
        _ => return Err(unsupported()),
    };
    let total_micros = t0.elapsed().as_micros() as u64;
    let accesses = store.stats().snapshot().delta(&before);
    if store.optimized() {
        label.push_str(" (indexed)");
    }
    Ok(StoreAnalysis {
        backend: store.backend_name().to_string(),
        ops: vec![OpReport {
            label,
            depth: 0,
            rows_in: 1,
            rows_out: rows,
            est_rows: None,
            self_micros: total_micros,
            accesses,
        }],
        rows,
        total_micros,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use prov_core::capture::{CaptureLevel, ProvenanceCapture};
    use prov_core::model::RetrospectiveProvenance;
    use wf_engine::synth::figure1_workflow;
    use wf_engine::{standard_registry, Executor};

    fn engine() -> (
        PqlEngine,
        RetrospectiveProvenance,
        wf_engine::synth::Figure1Nodes,
    ) {
        let (wf, nodes) = figure1_workflow(1);
        let exec = Executor::new(standard_registry());
        let mut cap = ProvenanceCapture::new(CaptureLevel::Fine);
        let r = exec.run_observed(&wf, &mut cap).unwrap();
        let retro = cap.take(r.exec).unwrap();
        let mut e = PqlEngine::new();
        e.ingest(&retro);
        (e, retro, nodes)
    }

    #[test]
    fn plan_shapes_match_query_shapes() {
        let q = parse("lineage of artifact 00000000000000ff where module = x").unwrap();
        let p = Plan::of(&q);
        let r = p.render();
        assert!(r.starts_with("Collect"));
        assert!(r.contains("Filter"));
        assert!(r.contains("Traverse (upstream)"));
        assert!(r.contains("Anchor (artifact 00000000000000ff)"));

        let q = parse("count runs").unwrap();
        let r = Plan::of(&q).render();
        assert!(r.starts_with("CountRows"));
        assert!(r.contains("Scan (runs)"));
        assert!(!r.contains("Filter"), "trivial filter elided");

        let q = parse("paths from artifact 00000000000000aa to run 0/5 max 6").unwrap();
        let r = Plan::of(&q).render();
        assert!(r.contains("EnumeratePaths (simple, max 6 edges)"));
        assert_eq!(r.matches("Anchor").count(), 2);
    }

    #[test]
    fn analyze_matches_eval_on_every_query_shape() {
        let (e, retro, nodes) = engine();
        let file = retro.produced(nodes.save_hist, "file").unwrap();
        let grid = retro.produced(nodes.load, "grid").unwrap();
        for q in [
            format!("lineage of artifact {}", file.digest()),
            format!("lineage of artifact {} depth 1", file.digest()),
            format!(
                "lineage of artifact {} where module = histogram",
                file.digest()
            ),
            format!("impact of artifact {}", grid.digest()),
            "count runs".to_string(),
            "count runs where status = failed or status = skipped".to_string(),
            "list artifacts where dtype = grid".to_string(),
            "list executions".to_string(),
            format!(
                "paths from artifact {} to artifact {}",
                grid.digest(),
                retro.produced(nodes.save_iso, "file").unwrap().digest()
            ),
        ] {
            let parsed = parse(&q).unwrap();
            let analysis = analyze(&e, &parsed).unwrap();
            let plain = e.eval_query(&parsed).unwrap();
            assert_eq!(analysis.result, plain, "divergence on {q}");
        }
    }

    #[test]
    fn analyze_attributes_accesses_to_operators() {
        let (e, retro, nodes) = engine();
        let file = retro.produced(nodes.save_hist, "file").unwrap();
        let q = parse(&format!(
            "lineage of artifact {} where module = histogram",
            file.digest()
        ))
        .unwrap();
        let before = e.stats().snapshot();
        let analysis = analyze(&e, &q).unwrap();
        let engine_delta = e.stats().snapshot().delta(&before);
        // Exactness: per-op deltas partition the engine's total work.
        assert_eq!(analysis.total_accesses(), engine_delta);
        assert_eq!(analysis.ops.len(), 4, "Collect, Filter, Traverse, Anchor");
        let traverse = analysis
            .ops
            .iter()
            .find(|o| o.label.starts_with("Traverse"))
            .unwrap();
        assert!(traverse.accesses.edge_reads > 0);
        assert!(traverse.rows_out >= traverse.rows_in);
        let rendered = analysis.render();
        assert!(rendered.contains("total:"));
        assert!(rendered.contains("rows="));
    }

    #[test]
    fn analyze_errors_match_eval_errors() {
        let (e, ..) = engine();
        let q = parse("lineage of artifact 00000000000000aa").unwrap();
        let a = analyze(&e, &q).unwrap_err();
        let b = e.eval_query(&q).unwrap_err();
        assert_eq!(a, b);
    }

    #[test]
    fn analyze_store_reports_backend_accesses() {
        use prov_store::GraphStore;
        let (_, retro, nodes) = engine();
        let mut gs = GraphStore::new();
        gs.ingest(&retro);
        let file = retro.produced(nodes.save_hist, "file").unwrap();
        let q = parse(&format!("lineage of artifact {}", file.digest())).unwrap();
        let before = gs.stats().snapshot();
        let a = analyze_store(&gs, &q).unwrap();
        let delta = gs.stats().snapshot().delta(&before);
        assert_eq!(a.total_accesses(), delta, "op deltas == store delta");
        assert_eq!(a.backend, "graph");
        assert!(a.rows > 0);
        assert!(a.render().contains("TransitiveClosure"));
    }

    #[test]
    fn analyze_store_rejects_unmappable_queries() {
        use prov_store::GraphStore;
        let gs = GraphStore::new();
        let q = parse("list artifacts").unwrap();
        let err = analyze_store(&gs, &q).unwrap_err();
        assert!(err.to_string().contains("supported forms"));
    }
}
