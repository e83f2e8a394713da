//! Cost-based optimization for PQL plans.
//!
//! [`Plan::of`] derives the naive operator tree; this module rewrites it
//! when the engine's secondary indexes (maintained by `PqlEngine::ingest`)
//! and a [`CostModel`] over stored cardinalities say an alternative is
//! cheaper:
//!
//! * **predicate pushdown** — `count`/`list` whose filter gives every
//!   disjunct an `=` clause on an indexed field (`module`, `status`,
//!   `dtype`) becomes an [`PlanOp::IndexLookup`] (union of postings, in
//!   scan order) under the *full* original filter as a residual — the
//!   index only narrows candidates, the residual keeps the semantics;
//! * **scan → keyed conversion** — trivial `count` queries become a
//!   [`PlanOp::MetaCount`] answered from stored cardinality;
//! * **adjacency probe** — a depth-1 closure becomes a
//!   [`PlanOp::NeighborProbe`] (one adjacency-list read, no BFS queue).
//!
//! [`eval_optimized`] / [`analyze_optimized`] execute the rewritten plan.
//! Both are result-identical to `PqlEngine::eval_query` — same rows, same
//! order — which the differential harness (`tests/differential_query.rs`)
//! checks across every backend. [`QueryCache`] adds a bounded LRU result
//! cache keyed by `(backend, canonical plan)`, invalidated by the engine's
//! ingest generation.

use crate::ast::*;
use crate::error::PqlError;
use crate::eval::{PNode, PqlEngine, QueryResult, ScanItem};
use crate::plan::{analyze, measured, Analysis, CostModel, OpReport, Plan, PlanNode, PlanOp};
use prov_store::StatsSnapshot;
use std::collections::BTreeSet;
use std::time::Instant;
use wf_engine::ExecId;
use wf_model::NodeId;

/// The rewrite the optimizer settled on (crate-internal shape, shared with
/// the sharded engine so both execute identical decisions).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Rewrite {
    /// No profitable rewrite: execute the naive plan.
    None,
    /// Trivial count from stored cardinality.
    MetaCount { entity: Entity },
    /// Index-probe union + residual filter.
    IndexLookup {
        entity: Entity,
        keys: Vec<(Field, String)>,
        /// Exact candidate-row estimate (sum of posting lengths).
        est: u64,
    },
    /// Depth-1 closure as a single adjacency probe.
    NeighborProbe,
}

/// The outcome of optimizing a query: the (possibly rewritten) plan plus
/// human-readable rewrite notes for EXPLAIN output.
#[derive(Debug, Clone)]
pub struct Optimization {
    /// The plan that will be executed.
    pub plan: Plan,
    /// One note per applied rewrite; empty when the naive plan stands.
    pub rewrites: Vec<String>,
    pub(crate) chosen: Rewrite,
}

impl Optimization {
    /// Did any rewrite apply?
    pub fn is_rewritten(&self) -> bool {
        self.chosen != Rewrite::None
    }

    /// Render the plan tree plus rewrite notes.
    pub fn render(&self) -> String {
        let mut out = self.plan.render();
        if self.rewrites.is_empty() {
            out.push_str("rewrites: none (naive plan is optimal)\n");
        } else {
            for r in &self.rewrites {
                out.push_str(&format!("rewrite: {r}\n"));
            }
        }
        out
    }
}

/// For each disjunct, pick the cheapest indexed `=` clause (smallest
/// posting). Returns `None` unless *every* disjunct has one — otherwise
/// the probe union would miss rows the scan finds. `posting_len` supplies
/// the (uncounted) posting length for an `(entity, field, value)` key, or
/// `None` when that pair has no index — the single engine answers from its
/// secondary indexes, the sharded engine from per-shard sums.
fn choose_index_keys_with(
    posting_len: &dyn Fn(Entity, Field, &str) -> Option<usize>,
    entity: Entity,
    filter: &Condition,
) -> Option<(Vec<(Field, String)>, u64)> {
    if filter.is_trivial() {
        return None;
    }
    let mut keys = Vec::new();
    let mut est = 0u64;
    for conj in &filter.any_of {
        let mut best: Option<(Field, String, usize)> = None;
        for c in conj {
            if c.op != Op::Eq {
                continue;
            }
            if let Some(len) = posting_len(entity, c.field, &c.value) {
                if best.as_ref().is_none_or(|b| len < b.2) {
                    best = Some((c.field, c.value.clone(), len));
                }
            }
        }
        let (field, value, len) = best?;
        est += len as u64;
        keys.push((field, value));
    }
    Some((keys, est))
}

/// Derive the cost-optimal plan for `query` against `engine`.
pub fn optimize(engine: &PqlEngine, query: &Query) -> Optimization {
    optimize_with(
        &CostModel::of_engine(engine),
        &|entity, field, value| engine.posting_len(entity, field, value),
        query,
    )
}

/// The decision core of [`optimize`], parameterized over the cardinality
/// snapshot and posting-length source so the sharded engine (whose global
/// posting lengths are per-shard sums) reaches byte-identical decisions.
pub(crate) fn optimize_with(
    cost: &CostModel,
    posting_len: &dyn Fn(Entity, Field, &str) -> Option<usize>,
    query: &Query,
) -> Optimization {
    let naive = || Optimization {
        plan: Plan::of(query),
        rewrites: Vec::new(),
        chosen: Rewrite::None,
    };
    match query {
        Query::Count { entity, filter } if filter.is_trivial() => Optimization {
            plan: Plan {
                root: PlanNode::leaf(PlanOp::MetaCount { entity: *entity }),
            },
            rewrites: vec![format!(
                "Scan({entity})+CountRows -> MetaCount: stored cardinality answers \
                 the trivial count (1 lookup vs {} rows)",
                cost.entity_rows(*entity)
            )],
            chosen: Rewrite::MetaCount { entity: *entity },
        },
        Query::Count { entity, filter } | Query::List { entity, filter } => {
            let Some((keys, est)) = choose_index_keys_with(posting_len, *entity, filter) else {
                return naive();
            };
            let scan_rows = cost.entity_rows(*entity);
            // Keyed probes beat a scan at equal row counts, so ties go to
            // the index.
            if est > scan_rows {
                return naive();
            }
            let lookup = PlanNode::leaf(PlanOp::IndexLookup {
                entity: *entity,
                keys: keys.clone(),
            });
            let filtered = PlanNode::over(
                PlanOp::Filter {
                    filter: filter.clone(),
                },
                lookup,
            );
            let top = if matches!(query, Query::Count { .. }) {
                PlanOp::CountRows
            } else {
                PlanOp::Collect
            };
            Optimization {
                plan: Plan {
                    root: PlanNode::over(top, filtered),
                },
                rewrites: vec![format!(
                    "Scan({entity}) -> IndexLookup: {} probe(s) yield an estimated \
                     {est} candidate rows vs a {scan_rows}-row scan; the full \
                     filter stays as a residual",
                    keys.len()
                )],
                chosen: Rewrite::IndexLookup {
                    entity: *entity,
                    keys,
                    est,
                },
            }
        }
        Query::Closure {
            direction,
            target,
            depth: Some(1),
            filter,
        } => {
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
            Optimization {
                plan: Plan {
                    root: PlanNode::over(PlanOp::Collect, node),
                },
                rewrites: vec![
                    "Traverse(depth <= 1) -> NeighborProbe: one adjacency-list read \
                     replaces the BFS frontier"
                        .to_string(),
                ],
                chosen: Rewrite::NeighborProbe,
            }
        }
        _ => naive(),
    }
}

/// Evaluate `query` through the optimized plan. Result-identical to
/// `PqlEngine::eval_query` (rows and order), but served by the cheapest
/// access path the cost model found.
pub fn eval_optimized(engine: &PqlEngine, query: &Query) -> Result<QueryResult, PqlError> {
    Ok(analyze_optimized(engine, query)?.result)
}

/// A stage report in execution order: (label, rows_in, rows_out, est,
/// micros, accesses).
type StageReport = (String, usize, usize, Option<u64>, u64, StatsSnapshot);

/// Turn leaf-first stage reports of a linear operator chain into render
/// order (root first, depth = render position).
fn chain_reports(stages: Vec<StageReport>) -> Vec<OpReport> {
    stages
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
        .collect()
}

/// EXPLAIN ANALYZE through the optimizer: execute the rewritten plan,
/// annotating every operator with rows in/out, the cost model's estimate,
/// self-time, and access counts. Falls back to [`analyze`] when no rewrite
/// applies.
pub fn analyze_optimized(engine: &PqlEngine, query: &Query) -> Result<Analysis, PqlError> {
    let opt = optimize(engine, query);
    match opt.chosen.clone() {
        Rewrite::None => analyze(engine, query),
        Rewrite::MetaCount { entity } => {
            let t_total = Instant::now();
            let (n, t, d) = measured(engine, || engine.meta_count(entity));
            Ok(Analysis {
                plan: opt.plan,
                result: QueryResult::Count(n),
                total_micros: t_total.elapsed().as_micros() as u64,
                // Count operators report the count as their row count
                // (matching the naive CountRows convention), and the
                // stored cardinality is known exactly at plan time.
                ops: chain_reports(vec![(
                    PlanOp::MetaCount { entity }.label(),
                    0,
                    n,
                    Some(n as u64),
                    t,
                    d,
                )]),
            })
        }
        Rewrite::IndexLookup { entity, keys, est } => {
            let t_total = Instant::now();
            let mut stages: Vec<StageReport> = Vec::new();
            let filter = match query {
                Query::Count { filter, .. } | Query::List { filter, .. } => filter,
                _ => unreachable!("IndexLookup only rewrites count/list"),
            };
            // Union of postings through a BTreeSet: candidates come out in
            // key order, which is exactly the order a scan enumerates.
            let (candidates, t, d) = measured(engine, || match entity {
                Entity::Runs => {
                    let mut set: BTreeSet<(ExecId, NodeId)> = BTreeSet::new();
                    for (field, value) in &keys {
                        set.extend(engine.probe_run_index(*field, value).into_iter().flatten());
                    }
                    set.into_iter()
                        .map(|(e, n)| ScanItem::Node(PNode::Run(e, n)))
                        .collect::<Vec<_>>()
                }
                Entity::Artifacts => {
                    let mut set: BTreeSet<u64> = BTreeSet::new();
                    for (_, value) in &keys {
                        set.extend(engine.probe_artifact_index(value));
                    }
                    set.into_iter()
                        .map(|h| ScanItem::Node(PNode::Artifact(h)))
                        .collect::<Vec<_>>()
                }
                Entity::Executions => unreachable!("executions have no secondary index"),
            });
            stages.push((
                PlanOp::IndexLookup {
                    entity,
                    keys: keys.clone(),
                }
                .label(),
                0,
                candidates.len(),
                Some(est),
                t,
                d,
            ));

            let rows_in = candidates.len();
            let (kept, t, d) = measured(engine, || {
                candidates
                    .into_iter()
                    .filter(|&it| engine.item_matches(it, filter))
                    .collect::<Vec<_>>()
            });
            stages.push((
                PlanOp::Filter {
                    filter: filter.clone(),
                }
                .label(),
                rows_in,
                kept.len(),
                Some(est.div_ceil(3)),
                t,
                d,
            ));

            let rows_in = kept.len();
            let result = if matches!(query, Query::Count { .. }) {
                let n = kept.len();
                stages.push((
                    PlanOp::CountRows.label(),
                    rows_in,
                    n,
                    Some(est.div_ceil(3)),
                    0,
                    StatsSnapshot::default(),
                ));
                QueryResult::Count(n)
            } else {
                let (rows, t, d) = measured(engine, || {
                    kept.into_iter()
                        .map(|it| engine.describe_item(it))
                        .collect::<Vec<_>>()
                });
                stages.push((
                    PlanOp::Collect.label(),
                    rows_in,
                    rows.len(),
                    Some(est.div_ceil(3)),
                    t,
                    d,
                ));
                QueryResult::Nodes(rows)
            };
            Ok(Analysis {
                plan: opt.plan,
                result,
                total_micros: t_total.elapsed().as_micros() as u64,
                ops: chain_reports(stages),
            })
        }
        Rewrite::NeighborProbe => {
            let Query::Closure {
                direction,
                target,
                depth: Some(1),
                filter,
            } = query
            else {
                unreachable!("NeighborProbe only rewrites depth-1 closures");
            };
            let cost = CostModel::of_engine(engine);
            let t_total = Instant::now();
            let mut stages: Vec<StageReport> = Vec::new();

            let (anchor, t, d) = measured(engine, || engine.resolve_counted(*target));
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
            let (discovered, t, d) = measured(engine, || {
                let mut out = Vec::new();
                let mut seen: BTreeSet<PNode> = [anchor].into();
                for &m in engine.neighbors_counted(anchor, reverse) {
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

            let kept = if filter.is_trivial() {
                discovered
            } else {
                let rows_in = discovered.len();
                let (kept, t, d) = measured(engine, || {
                    discovered
                        .into_iter()
                        .filter(|&n| engine.item_matches(ScanItem::Node(n), filter))
                        .collect::<Vec<_>>()
                });
                stages.push((
                    PlanOp::Filter {
                        filter: filter.clone(),
                    }
                    .label(),
                    rows_in,
                    kept.len(),
                    Some(probe_est.div_ceil(3)),
                    t,
                    d,
                ));
                kept
            };

            let rows_in = kept.len();
            let (rows, t, d) = measured(engine, || {
                kept.into_iter()
                    .map(|n| engine.describe_item(ScanItem::Node(n)))
                    .collect::<Vec<_>>()
            });
            let collect_est = stages.last().and_then(|s| s.3);
            stages.push((
                PlanOp::Collect.label(),
                rows_in,
                rows.len(),
                collect_est,
                t,
                d,
            ));
            Ok(Analysis {
                plan: opt.plan,
                result: QueryResult::Nodes(rows),
                total_micros: t_total.elapsed().as_micros() as u64,
                ops: chain_reports(stages),
            })
        }
    }
}

// ---- bounded LRU result cache ---------------------------------------------

#[derive(Debug, Clone)]
struct CacheEntry {
    backend: String,
    plan_key: String,
    generation: u64,
    result: QueryResult,
}

/// A bounded LRU result cache keyed by `(backend, canonical plan)`.
///
/// The canonical plan key ([`QueryCache::key_for`]) is the rendered naive
/// plan — deterministic for a query, independent of the cost model's
/// choices, and shared by semantically identical query spellings that
/// parse to the same AST. Entries are tagged with the generation of the
/// data they were computed against; a lookup against a newer generation
/// misses and evicts the stale entry.
#[derive(Debug)]
pub struct QueryCache {
    cap: usize,
    /// Most recently used last.
    entries: Vec<CacheEntry>,
    hits: u64,
    misses: u64,
}

impl QueryCache {
    /// A cache holding at most `cap` results (minimum 1).
    pub fn new(cap: usize) -> Self {
        QueryCache {
            cap: cap.max(1),
            entries: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The canonical plan key of a query.
    pub fn key_for(query: &Query) -> String {
        Plan::of(query).render()
    }

    /// Look up a cached result. Every stale-generation entry for this
    /// backend is swept out first — not just the looked-up key — so one
    /// generation bump cannot leave old results (and their memory) pinned
    /// behind plan keys that never get queried again.
    pub fn get(&mut self, backend: &str, plan_key: &str, generation: u64) -> Option<QueryResult> {
        self.sweep_stale(backend, generation);
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| e.backend == backend && e.plan_key == plan_key)
        {
            let entry = self.entries.remove(i);
            let result = entry.result.clone();
            self.entries.push(entry);
            self.hits += 1;
            return Some(result);
        }
        self.misses += 1;
        None
    }

    /// Drop every entry for `backend` whose generation is not `current`.
    /// Called on each lookup; callers that learn of an ingest out of band
    /// (e.g. the server's write path) can also sweep eagerly.
    pub fn sweep_stale(&mut self, backend: &str, current: u64) {
        self.entries
            .retain(|e| e.backend != backend || e.generation == current);
    }

    /// Insert (or refresh) a result, evicting the least recently used
    /// entry when over capacity.
    pub fn put(&mut self, backend: &str, plan_key: &str, generation: u64, result: QueryResult) {
        self.entries
            .retain(|e| !(e.backend == backend && e.plan_key == plan_key));
        self.entries.push(CacheEntry {
            backend: backend.to_string(),
            plan_key: plan_key.to_string(),
            generation,
            result,
        });
        if self.entries.len() > self.cap {
            self.entries.remove(0);
        }
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to execute.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Evaluate through the optimizer with result caching. Cache entries are
/// invalidated by the engine's ingest generation.
pub fn eval_cached(
    engine: &PqlEngine,
    query: &Query,
    cache: &mut QueryCache,
) -> Result<QueryResult, PqlError> {
    let key = QueryCache::key_for(query);
    if let Some(result) = cache.get("engine", &key, engine.generation()) {
        return Ok(result);
    }
    let result = eval_optimized(engine, query)?;
    cache.put("engine", &key, engine.generation(), result.clone());
    Ok(result)
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
    fn optimized_results_match_naive_on_every_shape() {
        let (e, retro, nodes) = engine();
        let file = retro.produced(nodes.save_hist, "file").unwrap();
        let grid = retro.produced(nodes.load, "grid").unwrap();
        for q in [
            "count runs".to_string(),
            "count artifacts".to_string(),
            "count executions".to_string(),
            "count runs where status = succeeded".to_string(),
            "count runs where status = failed".to_string(),
            "list runs where module = histogram".to_string(),
            "list runs where module = \"Histogram@1\"".to_string(),
            "list runs where status = succeeded and module contains save".to_string(),
            "list runs where module = histogram or module = isosurface".to_string(),
            "list artifacts where dtype = grid".to_string(),
            "list runs where module contains save".to_string(),
            "list executions where status = succeeded".to_string(),
            "count runs where exec = 0".to_string(),
            format!("lineage of artifact {} depth 1", file.digest()),
            format!(
                "lineage of artifact {} depth 1 where module = histogram",
                file.digest()
            ),
            format!("impact of artifact {} depth 1", grid.digest()),
            format!("lineage of artifact {}", file.digest()),
            format!("impact of artifact {}", grid.digest()),
            format!(
                "paths from artifact {} to artifact {}",
                grid.digest(),
                retro.produced(nodes.save_iso, "file").unwrap().digest()
            ),
        ] {
            let parsed = parse(&q).unwrap();
            let naive = e.eval_query(&parsed).unwrap();
            let fast = eval_optimized(&e, &parsed).unwrap();
            assert_eq!(fast, naive, "divergence on {q}");
            let analysis = analyze_optimized(&e, &parsed).unwrap();
            assert_eq!(analysis.result, naive, "analyze divergence on {q}");
        }
    }

    #[test]
    fn trivial_count_is_a_metadata_lookup() {
        let (e, ..) = engine();
        let q = parse("count runs").unwrap();
        let opt = optimize(&e, &q);
        assert!(opt.is_rewritten());
        assert!(opt.plan.render().contains("MetaCount"));
        assert!(opt.render().contains("rewrite:"));
        let before = e.stats().snapshot();
        let a = analyze_optimized(&e, &q).unwrap();
        let delta = e.stats().snapshot().delta(&before);
        assert_eq!(a.result, QueryResult::Count(8));
        assert_eq!(delta.scans, 0, "no scan for a trivial count");
        assert_eq!(delta.keyed_lookups, 1);
    }

    #[test]
    fn indexed_filter_probes_instead_of_scanning() {
        let (e, ..) = engine();
        let q = parse("count runs where status = succeeded").unwrap();
        let opt = optimize(&e, &q);
        assert!(opt.plan.render().contains("IndexLookup"));
        assert!(opt.plan.render().contains("Filter"), "residual survives");
        let before = e.stats().snapshot();
        let a = analyze_optimized(&e, &q).unwrap();
        let delta = e.stats().snapshot().delta(&before);
        assert_eq!(a.result, QueryResult::Count(8));
        assert_eq!(delta.scans, 0, "index path does not scan");
        assert!(delta.keyed_lookups >= 1);
        // The estimate is exact here: posting length == matching rows.
        let lookup = a
            .ops
            .iter()
            .find(|o| o.label.starts_with("IndexLookup"))
            .unwrap();
        assert_eq!(lookup.est_rows, Some(lookup.rows_out as u64));
        assert!(a.render().contains("est="), "{}", a.render());
    }

    #[test]
    fn unindexable_filters_keep_the_scan_plan() {
        let (e, ..) = engine();
        // `contains` is not indexable, and neither is `exec`.
        for q in [
            "count runs where module contains save",
            "count runs where exec = 0",
            "list executions where status = succeeded",
            "list runs where status = succeeded or module contains save",
        ] {
            let opt = optimize(&e, &parse(q).unwrap());
            assert!(!opt.is_rewritten(), "unexpected rewrite for {q}");
            assert!(opt.plan.render().contains("Scan"));
            assert!(opt.render().contains("rewrites: none"));
        }
    }

    #[test]
    fn depth1_closure_becomes_a_neighbor_probe() {
        let (e, retro, nodes) = engine();
        let file = retro.produced(nodes.save_hist, "file").unwrap();
        let q = parse(&format!("lineage of artifact {} depth 1", file.digest())).unwrap();
        let opt = optimize(&e, &q);
        assert!(opt.plan.render().contains("NeighborProbe"));
        let a = analyze_optimized(&e, &q).unwrap();
        assert_eq!(a.result, e.eval_query(&q).unwrap());
        // Deeper or unbounded closures keep the BFS.
        let q = parse(&format!("lineage of artifact {} depth 2", file.digest())).unwrap();
        assert!(!optimize(&e, &q).is_rewritten());
    }

    #[test]
    fn optimized_errors_match_naive_errors() {
        let (e, ..) = engine();
        let q = parse("lineage of artifact 00000000000000aa depth 1").unwrap();
        let fast = eval_optimized(&e, &q).unwrap_err();
        let naive = e.eval_query(&q).unwrap_err();
        assert_eq!(fast, naive);
    }

    #[test]
    fn cache_serves_repeats_and_invalidates_on_ingest() {
        let (mut e, ..) = engine();
        let mut cache = QueryCache::new(8);
        let q = parse("count runs where status = succeeded").unwrap();
        let first = eval_cached(&e, &q, &mut cache).unwrap();
        let second = eval_cached(&e, &q, &mut cache).unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        // New data: the generation changes, the stale entry is evicted.
        let (wf, _) = figure1_workflow(1);
        let exec = Executor::new(standard_registry());
        let mut cap = ProvenanceCapture::new(CaptureLevel::Fine);
        let r = exec.run_observed(&wf, &mut cap).unwrap();
        e.ingest(&cap.take(r.exec).unwrap());
        let third = eval_cached(&e, &q, &mut cache).unwrap();
        assert_eq!(
            third,
            e.eval("count runs where status = succeeded").unwrap()
        );
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn generation_bump_sweeps_all_stale_entries_not_just_the_looked_up_key() {
        let (mut e, ..) = engine();
        let mut cache = QueryCache::new(64);
        // Populate many distinct plans at the current generation.
        let queries = [
            "count runs",
            "count artifacts",
            "count executions",
            "list runs",
            "list artifacts",
            "list executions",
            "count runs where status = succeeded",
            "list runs where module = histogram",
        ];
        for q in &queries {
            eval_cached(&e, &parse(q).unwrap(), &mut cache).unwrap();
        }
        assert_eq!(cache.len(), queries.len());
        // Ingest bumps the generation: every old-generation entry is now
        // stale, not only the one we happen to look up next.
        let (wf, _) = figure1_workflow(1);
        let exec = Executor::new(standard_registry());
        let mut cap = ProvenanceCapture::new(CaptureLevel::Fine);
        let r = exec.run_observed(&wf, &mut cap).unwrap();
        e.ingest(&cap.take(r.exec).unwrap());
        eval_cached(&e, &parse("count runs").unwrap(), &mut cache).unwrap();
        assert_eq!(
            cache.len(),
            1,
            "one lookup after the bump must sweep every stale entry"
        );
        // The retained entry is the fresh one and still serves hits.
        let hits = cache.hits();
        eval_cached(&e, &parse("count runs").unwrap(), &mut cache).unwrap();
        assert_eq!(cache.hits(), hits + 1);
    }

    #[test]
    fn cache_is_bounded_lru() {
        let (e, ..) = engine();
        let mut cache = QueryCache::new(2);
        let a = parse("count runs").unwrap();
        let b = parse("count artifacts").unwrap();
        let c = parse("count executions").unwrap();
        eval_cached(&e, &a, &mut cache).unwrap();
        eval_cached(&e, &b, &mut cache).unwrap();
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        eval_cached(&e, &a, &mut cache).unwrap();
        eval_cached(&e, &c, &mut cache).unwrap();
        assert_eq!(cache.len(), 2);
        let hits_before = cache.hits();
        eval_cached(&e, &a, &mut cache).unwrap();
        assert_eq!(cache.hits(), hits_before + 1, "a survived");
        let misses_before = cache.misses();
        eval_cached(&e, &b, &mut cache).unwrap();
        assert_eq!(cache.misses(), misses_before + 1, "b was evicted");
    }
}
