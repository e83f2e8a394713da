//! The PQL evaluator.
//!
//! Evaluates parsed queries over ingested retrospective provenance using a
//! native adjacency representation — the "designed for provenance" query
//! path that experiment E5 compares against relational join chains and
//! triple-pattern fixpoints.

use crate::ast::*;
use crate::error::PqlError;
use crate::parser::parse;
use crate::plan::Tally;
use prov_core::model::RetrospectiveProvenance;
use prov_store::StoreStats;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wf_engine::ExecId;
use wf_model::NodeId;

/// Internal graph node (crate-visible so the plan executor can traverse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum PNode {
    Artifact(u64),
    Run(ExecId, NodeId),
}

/// An entity enumerated by a scan: a graph node or a whole execution.
/// Executions are not graph nodes (no edges), so the plan's Scan operator
/// needs this wider item type to cover `list executions`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ScanItem {
    Node(PNode),
    Exec(ExecId),
}

/// A node in a query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResultNode {
    /// A module run.
    Run {
        /// Execution id.
        exec: u64,
        /// Node id.
        node: u64,
        /// Module identity.
        identity: String,
        /// Run status.
        status: String,
    },
    /// A data artifact.
    Artifact {
        /// Content hash.
        hash: u64,
        /// Data type.
        dtype: String,
    },
    /// A whole workflow execution.
    Execution {
        /// Execution id.
        exec: u64,
        /// Workflow name.
        workflow: String,
        /// Overall status.
        status: String,
    },
}

impl ResultNode {
    /// One-line rendering.
    pub fn render(&self) -> String {
        match self {
            ResultNode::Run {
                exec,
                node,
                identity,
                status,
            } => format!("run {exec}/{node} {identity} [{status}]"),
            ResultNode::Artifact { hash, dtype } => {
                format!("artifact {hash:016x} ({dtype})")
            }
            ResultNode::Execution {
                exec,
                workflow,
                status,
            } => format!("execution {exec} '{workflow}' [{status}]"),
        }
    }
}

/// The result of a PQL query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Nodes, from closure or list queries.
    Nodes(Vec<ResultNode>),
    /// A count.
    Count(usize),
    /// Simple paths, each a node sequence in dataflow direction.
    Paths(Vec<Vec<ResultNode>>),
}

impl QueryResult {
    /// Render as text, one entry per line.
    pub fn render(&self) -> String {
        match self {
            QueryResult::Count(n) => n.to_string(),
            QueryResult::Nodes(nodes) => nodes
                .iter()
                .map(ResultNode::render)
                .collect::<Vec<_>>()
                .join("\n"),
            QueryResult::Paths(paths) => paths
                .iter()
                .map(|p| {
                    p.iter()
                        .map(ResultNode::render)
                        .collect::<Vec<_>>()
                        .join(" -> ")
                })
                .collect::<Vec<_>>()
                .join("\n"),
        }
    }

    /// Number of result entries (nodes, paths, or the count itself).
    pub fn len(&self) -> usize {
        match self {
            QueryResult::Count(n) => *n,
            QueryResult::Nodes(v) => v.len(),
            QueryResult::Paths(v) => v.len(),
        }
    }

    /// Is the result empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug, Clone)]
struct RunInfo {
    identity: String,
    status: String,
    attempts: u32,
}

#[derive(Debug, Clone)]
struct ExecInfo {
    workflow: String,
    status: String,
}

/// A secondary index: lowercased field value → the primary keys carrying
/// it. Each posting is an ordered set, so it enumerates in primary-key
/// (scan) order however the keys arrived, and one insert or remove costs
/// O(log posting) — random `u64` artifact hashes included.
#[derive(Debug, PartialEq)]
pub(crate) struct Postings<K>(BTreeMap<String, BTreeSet<K>>);

impl<K> Default for Postings<K> {
    fn default() -> Self {
        Postings(BTreeMap::new())
    }
}

impl<K: Ord> Postings<K> {
    pub(crate) fn insert(&mut self, value: &str, key: K) {
        self.0.entry(value.to_lowercase()).or_default().insert(key);
    }

    /// Remove `key` from `value`'s posting; an emptied posting is dropped.
    fn remove(&mut self, value: &str, key: &K) {
        if let Entry::Occupied(mut posting) = self.0.entry(value.to_lowercase()) {
            posting.get_mut().remove(key);
            if posting.get().is_empty() {
                posting.remove();
            }
        }
    }

    /// The posting of `value`, in key order (empty for an unknown value).
    pub(crate) fn get(&self, value: &str) -> impl ExactSizeIterator<Item = &K> {
        self.0
            .get(&value.to_lowercase())
            .map(BTreeSet::iter)
            .unwrap_or_default()
    }

    /// Counted probe: one keyed lookup plus one node read per posting
    /// entry, which come out in scan order.
    pub(crate) fn probe<'a>(&'a self, tally: &Tally, value: &str) -> impl Iterator<Item = K> + 'a
    where
        K: Copy,
    {
        tally.add_keyed_lookups(1);
        let posting = self.get(value);
        tally.add_node_reads(posting.len() as u64);
        posting.copied()
    }
}

/// Enter every artifact `retro` mentions into a `hash → dtype` catalog and
/// its dtype index: the described ones with their dtype, those a run only
/// names on a port with none. The first writer's dtype wins, so an artifact
/// is indexed exactly once, when it is first seen.
pub(crate) fn note_artifacts(
    catalog: &mut BTreeMap<u64, String>,
    dtype_index: &mut Postings<u64>,
    retro: &RetrospectiveProvenance,
) {
    let described = retro.artifacts.iter().map(|(h, a)| (*h, a.dtype.as_str()));
    let named = retro
        .runs
        .iter()
        .flat_map(|run| run.inputs.iter().chain(&run.outputs))
        .filter(|(_, h)| !retro.artifacts.contains_key(h))
        .map(|(_, h)| (*h, ""));
    for (h, dtype) in described.chain(named) {
        if let Entry::Vacant(slot) = catalog.entry(h) {
            dtype_index.insert(dtype, h);
            slot.insert(dtype.to_string());
        }
    }
}

/// The execution an `exec = value` comparison selects, if any. `exec`
/// matches as text against the decimal form of the id (see `matches`), so
/// only that exact spelling names an execution: `"007"`, `"+7"`, `"7.0"`,
/// `""` and out-of-range numbers select none.
pub(crate) fn exec_key(value: &str) -> Option<ExecId> {
    let id: u64 = value.parse().ok()?;
    (id.to_string() == value).then_some(ExecId(id))
}

/// The keys a run's module identity is indexed under: the full
/// `name@version` form and, when it differs, the bare name — mirroring the
/// module `=` semantics in `compare`.
fn module_keys(identity: &str) -> impl Iterator<Item = &str> {
    let bare = identity.split('@').next().unwrap_or_default();
    std::iter::once(identity).chain((bare != identity).then_some(bare))
}

/// The PQL query engine: ingest provenance, evaluate query strings.
#[derive(Debug, Default)]
pub struct PqlEngine {
    runs: BTreeMap<(ExecId, NodeId), RunInfo>,
    execs: BTreeMap<ExecId, ExecInfo>,
    artifacts: BTreeMap<u64, String>,
    succ: BTreeMap<PNode, Vec<PNode>>,
    pred: BTreeMap<PNode, Vec<PNode>>,
    /// Dataflow edges held in `succ` (the cost model reads it per query).
    edges: usize,
    stats: StoreStats,
    // Secondary indexes for the cost-based optimizer (crate::optimize),
    // maintained by `ingest` at the point each run or artifact is written:
    // new keys are inserted, and a run that is overwritten with another
    // identity or status leaves its old postings first. `exec` needs no
    // index: `runs` is keyed by execution first, so one execution's runs
    // are one range of it.
    module_index: Postings<(ExecId, NodeId)>,
    status_index: Postings<(ExecId, NodeId)>,
    dtype_index: Postings<u64>,
    generation: u64,
}

impl PqlEngine {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one execution's provenance. The cost does not depend on how
    /// much is already stored: every map, posting and counter is updated
    /// where it changes. Bumping the generation invalidates cached results
    /// (see `optimize::QueryCache`).
    pub fn ingest(&mut self, retro: &RetrospectiveProvenance) {
        self.generation += 1;
        self.execs.insert(
            retro.exec,
            ExecInfo {
                workflow: retro.workflow_name.clone(),
                status: retro.status.to_string(),
            },
        );
        note_artifacts(&mut self.artifacts, &mut self.dtype_index, retro);
        for run in &retro.runs {
            let key = (retro.exec, run.node);
            let info = RunInfo {
                identity: run.identity.clone(),
                status: run.status.to_string(),
                attempts: run.attempts,
            };
            if let Some(old) = self.runs.insert(key, info) {
                for module in module_keys(&old.identity) {
                    self.module_index.remove(module, &key);
                }
                self.status_index.remove(&old.status, &key);
            }
            for module in module_keys(&run.identity) {
                self.module_index.insert(module, key);
            }
            self.status_index.insert(&self.runs[&key].status, key);
            let r = PNode::Run(retro.exec, run.node);
            for (_, h) in &run.inputs {
                self.edge(PNode::Artifact(*h), r);
            }
            for (_, h) in &run.outputs {
                self.edge(r, PNode::Artifact(*h));
            }
        }
    }

    fn edge(&mut self, from: PNode, to: PNode) {
        let s = self.succ.entry(from).or_default();
        if !s.contains(&to) {
            s.push(to);
            self.pred.entry(to).or_default().push(from);
            self.edges += 1;
        }
    }

    /// Parse and evaluate a PQL query string.
    pub fn eval(&self, query: &str) -> Result<QueryResult, PqlError> {
        self.eval_query(&parse(query)?)
    }

    /// Evaluate a parsed query.
    pub fn eval_query(&self, query: &Query) -> Result<QueryResult, PqlError> {
        match query {
            Query::Closure {
                direction,
                target,
                depth,
                filter,
            } => {
                let start = self.resolve(*target)?;
                let reverse = *direction == Direction::Upstream;
                let mut out = Vec::new();
                let mut seen: BTreeSet<PNode> = [start].into();
                let mut q: VecDeque<(PNode, usize)> = [(start, 0usize)].into();
                while let Some((n, d)) = q.pop_front() {
                    if let Some(limit) = depth {
                        if d == *limit {
                            continue;
                        }
                    }
                    let next = if reverse { &self.pred } else { &self.succ };
                    if let Some(ns) = next.get(&n) {
                        for &m in ns {
                            if seen.insert(m) {
                                if self.matches(m, filter) {
                                    out.push(self.describe(m));
                                }
                                q.push_back((m, d + 1));
                            }
                        }
                    }
                }
                Ok(QueryResult::Nodes(out))
            }
            Query::Count { entity, filter } => {
                Ok(QueryResult::Count(self.select(*entity, filter).len()))
            }
            Query::List { entity, filter } => Ok(QueryResult::Nodes(self.select(*entity, filter))),
            Query::Paths { from, to, max_len } => {
                let from = self.resolve(*from)?;
                let to = self.resolve(*to)?;
                let cap = max_len.unwrap_or(16);
                let mut paths = Vec::new();
                let mut stack = vec![from];
                let mut on_path: BTreeSet<PNode> = [from].into();
                self.dfs_paths(from, to, cap, &mut stack, &mut on_path, &mut paths);
                Ok(QueryResult::Paths(
                    paths
                        .into_iter()
                        .map(|p| p.into_iter().map(|n| self.describe(n)).collect())
                        .collect(),
                ))
            }
        }
    }

    fn dfs_paths(
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
        if let Some(ns) = self.succ.get(&cur) {
            for &n in ns {
                if on_path.insert(n) {
                    stack.push(n);
                    self.dfs_paths(n, to, budget - 1, stack, on_path, out);
                    stack.pop();
                    on_path.remove(&n);
                }
            }
        }
    }

    fn resolve(&self, t: Target) -> Result<PNode, PqlError> {
        match t {
            Target::Artifact(h) => {
                if self.artifacts.contains_key(&h) {
                    Ok(PNode::Artifact(h))
                } else {
                    Err(PqlError::Eval(format!("unknown artifact {h:016x}")))
                }
            }
            Target::Run(e, n) => {
                let key = (ExecId(e), NodeId(n));
                if self.runs.contains_key(&key) {
                    Ok(PNode::Run(key.0, key.1))
                } else {
                    Err(PqlError::Eval(format!("unknown run {e}/{n}")))
                }
            }
        }
    }

    fn select(&self, entity: Entity, filter: &Condition) -> Vec<ResultNode> {
        match entity {
            Entity::Runs => self
                .runs
                .keys()
                .map(|&(e, n)| PNode::Run(e, n))
                .filter(|n| self.matches(*n, filter))
                .map(|n| self.describe(n))
                .collect(),
            Entity::Artifacts => self
                .artifacts
                .keys()
                .map(|&h| PNode::Artifact(h))
                .filter(|n| self.matches(*n, filter))
                .map(|n| self.describe(n))
                .collect(),
            Entity::Executions => self
                .execs
                .keys()
                .filter(|&&e| self.exec_matches(e, filter))
                .map(|&e| self.describe_exec(e))
                .collect(),
        }
    }

    /// Condition evaluation for a whole execution (shared by `select` and
    /// the plan executor so both use identical field-resolution rules).
    fn exec_matches(&self, e: ExecId, cond: &Condition) -> bool {
        let Some(info) = self.execs.get(&e) else {
            return false;
        };
        Self::dnf_matches(cond, |field| match field {
            Field::Status => Some(info.status.clone()),
            Field::Exec => Some(e.0.to_string()),
            Field::Module => Some(info.workflow.clone()),
            Field::Dtype | Field::Attempts => None,
        })
    }

    fn describe_exec(&self, e: ExecId) -> ResultNode {
        let info = self.execs.get(&e);
        ResultNode::Execution {
            exec: e.0,
            workflow: info.map(|i| i.workflow.clone()).unwrap_or_default(),
            status: info.map(|i| i.status.clone()).unwrap_or_default(),
        }
    }

    /// Evaluate a condition given a field resolver (DNF semantics). An
    /// associated function so other evaluators in this crate (the sharded
    /// coordinator) reuse the exact comparison rules.
    pub(crate) fn dnf_matches(cond: &Condition, resolve: impl Fn(Field) -> Option<String>) -> bool {
        if cond.is_trivial() {
            return true;
        }
        cond.any_of.iter().any(|conj| {
            conj.iter().all(|c| {
                let Some(actual) = resolve(c.field) else {
                    return false;
                };
                Self::compare(c, &actual)
            })
        })
    }

    /// One comparison against a resolved field value.
    fn compare(c: &Comparison, actual: &str) -> bool {
        let actual_l = actual.to_lowercase();
        let value_l = c.value.to_lowercase();
        match c.op {
            Op::Eq => {
                actual_l == value_l
                    || (c.field == Field::Module
                        && actual_l.split('@').next() == Some(value_l.as_str()))
            }
            Op::Neq => actual_l != value_l,
            Op::Contains => actual_l.contains(&value_l),
        }
    }

    fn matches(&self, n: PNode, cond: &Condition) -> bool {
        Self::dnf_matches(cond, |field| match (n, field) {
            (PNode::Run(e, node), Field::Module) => {
                self.runs.get(&(e, node)).map(|r| r.identity.clone())
            }
            (PNode::Run(e, node), Field::Status) => {
                self.runs.get(&(e, node)).map(|r| r.status.clone())
            }
            (PNode::Run(e, _), Field::Exec) => Some(e.0.to_string()),
            (PNode::Run(e, node), Field::Attempts) => {
                self.runs.get(&(e, node)).map(|r| r.attempts.to_string())
            }
            (PNode::Artifact(h), Field::Dtype) => self.artifacts.get(&h).cloned(),
            // A field that does not apply to this node kind: the node
            // fails the filter (so `where module = X` selects runs only).
            _ => None,
        })
    }

    fn describe(&self, n: PNode) -> ResultNode {
        match n {
            PNode::Run(e, node) => {
                let info = self.runs.get(&(e, node));
                ResultNode::Run {
                    exec: e.0,
                    node: node.raw(),
                    identity: info.map(|r| r.identity.clone()).unwrap_or_default(),
                    status: info.map(|r| r.status.clone()).unwrap_or_default(),
                }
            }
            PNode::Artifact(h) => ResultNode::Artifact {
                hash: h,
                dtype: self.artifacts.get(&h).cloned().unwrap_or_default(),
            },
        }
    }

    // ---- counted accessors (the plan executor's access layer) ----------
    //
    // `eval_query` above is deliberately left un-instrumented: it is the
    // reference implementation the plan executor must match (the property
    // test in tests/property_query_plan.rs checks result equality). The
    // accessors below do the same primitive reads but bump the calling
    // query's `Tally`, so EXPLAIN ANALYZE can attribute access counts to
    // individual plan operators via snapshot deltas.

    /// The engine's access recorder: every access the plan executor has
    /// made so far. Each query adds its tally here when it returns.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Counted anchor resolution: one keyed lookup + one node read.
    pub(crate) fn resolve_counted(&self, tally: &Tally, t: Target) -> Result<PNode, PqlError> {
        tally.add_keyed_lookups(1);
        tally.add_node_reads(1);
        self.resolve(t)
    }

    /// Counted adjacency access: one keyed lookup, one node read, and one
    /// edge read per adjacency entry.
    pub(crate) fn neighbors_counted(&self, tally: &Tally, n: PNode, reverse: bool) -> &[PNode] {
        tally.add_keyed_lookups(1);
        tally.add_node_reads(1);
        let m = if reverse { &self.pred } else { &self.succ };
        let ns = m.get(&n).map(|v| v.as_slice()).unwrap_or(&[]);
        tally.add_edge_reads(ns.len() as u64);
        ns
    }

    /// Counted entity enumeration: one scan + one node read per entity, in
    /// the same (key) order `select` iterates.
    pub(crate) fn scan_entity(&self, tally: &Tally, entity: Entity) -> Vec<ScanItem> {
        tally.add_scans(1);
        let items: Vec<ScanItem> = match entity {
            Entity::Runs => self
                .runs
                .keys()
                .map(|&(e, n)| ScanItem::Node(PNode::Run(e, n)))
                .collect(),
            Entity::Artifacts => self
                .artifacts
                .keys()
                .map(|&h| ScanItem::Node(PNode::Artifact(h)))
                .collect(),
            Entity::Executions => self.execs.keys().map(|&e| ScanItem::Exec(e)).collect(),
        };
        tally.add_node_reads(items.len() as u64);
        items
    }

    /// Counted filter check: reads the item's metadata (one node read)
    /// unless the condition is trivially true.
    pub(crate) fn item_matches(&self, tally: &Tally, item: ScanItem, cond: &Condition) -> bool {
        if cond.is_trivial() {
            return true;
        }
        tally.add_node_reads(1);
        match item {
            ScanItem::Node(n) => self.matches(n, cond),
            ScanItem::Exec(e) => self.exec_matches(e, cond),
        }
    }

    /// Counted result materialization: one node read for the metadata.
    pub(crate) fn describe_item(&self, tally: &Tally, item: ScanItem) -> ResultNode {
        tally.add_node_reads(1);
        match item {
            ScanItem::Node(n) => self.describe(n),
            ScanItem::Exec(e) => self.describe_exec(e),
        }
    }

    /// Number of ingested runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of known artifacts.
    pub fn artifact_count(&self) -> usize {
        self.artifacts.len()
    }

    /// Number of ingested executions.
    pub fn exec_count(&self) -> usize {
        self.execs.len()
    }

    /// Number of dataflow edges (each counted once, in the succ direction).
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Index generation: bumped on every ingest. Cached query results tagged
    /// with an older generation are stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    // ---- secondary-index accessors (the optimizer's access layer) -------

    /// The runs of the execution `exec = value` selects: one range of the
    /// run map, in scan order.
    fn exec_runs(&self, value: &str) -> impl Iterator<Item = (ExecId, NodeId)> + Clone + '_ {
        exec_key(value)
            .map(|e| self.runs.range((e, NodeId(0))..=(e, NodeId(u64::MAX))))
            .into_iter()
            .flatten()
            .map(|(key, _)| *key)
    }

    /// Counted probe of a run access key (`module`, `status` or `exec`):
    /// one keyed lookup plus one node read per run, in scan order. Returns
    /// `None` for fields that key no runs; an unknown key is empty.
    pub(crate) fn probe_run_index(
        &self,
        tally: &Tally,
        field: Field,
        value: &str,
    ) -> Option<Box<dyn Iterator<Item = (ExecId, NodeId)> + '_>> {
        let index = match field {
            Field::Module => &self.module_index,
            Field::Status => &self.status_index,
            Field::Exec => {
                let runs = self.exec_runs(value);
                tally.add_keyed_lookups(1);
                tally.add_node_reads(runs.clone().count() as u64);
                return Some(Box::new(runs));
            }
            _ => return None,
        };
        Some(Box::new(index.probe(tally, value)))
    }

    /// Counted probe of the artifact `dtype` index.
    pub(crate) fn probe_artifact_index(
        &self,
        tally: &Tally,
        value: &str,
    ) -> impl Iterator<Item = u64> + '_ {
        self.dtype_index.probe(tally, value)
    }

    /// Uncounted posting length, for cost estimation only. `None` means the
    /// (entity, field) pair is no access key.
    pub(crate) fn posting_len(&self, entity: Entity, field: Field, value: &str) -> Option<usize> {
        match (entity, field) {
            (Entity::Runs, Field::Module) => Some(self.module_index.get(value).len()),
            (Entity::Runs, Field::Status) => Some(self.status_index.get(value).len()),
            (Entity::Runs, Field::Exec) => Some(self.exec_runs(value).count()),
            (Entity::Artifacts, Field::Dtype) => Some(self.dtype_index.get(value).len()),
            _ => None,
        }
    }

    /// Counted metadata cardinality: answers trivial `count` queries from
    /// stored sizes (one keyed lookup, no scan).
    pub(crate) fn meta_count(&self, tally: &Tally, entity: Entity) -> usize {
        tally.add_keyed_lookups(1);
        match entity {
            Entity::Runs => self.runs.len(),
            Entity::Artifacts => self.artifacts.len(),
            Entity::Executions => self.execs.len(),
        }
    }
}

/// The dtype index of `catalog` built from scratch: the oracle the
/// incrementally maintained one is held to.
#[cfg(test)]
pub(crate) fn rebuild_dtype_index(catalog: &BTreeMap<u64, String>) -> Postings<u64> {
    let mut index = Postings::default();
    for (&h, dtype) in catalog {
        index.insert(dtype, h);
    }
    index
}

#[cfg(test)]
impl PqlEngine {
    /// The run indexes (module, status) built from scratch out of the
    /// primary map: the oracle for the incrementally maintained ones.
    fn rebuild_indexes(&self) -> [Postings<(ExecId, NodeId)>; 2] {
        let mut module_index = Postings::default();
        let mut status_index = Postings::default();
        for (&key, info) in &self.runs {
            for module in module_keys(&info.identity) {
                module_index.insert(module, key);
            }
            status_index.insert(&info.status, key);
        }
        [module_index, status_index]
    }

    /// Panic unless every piece of state `ingest` maintains incrementally
    /// equals its from-scratch recomputation.
    pub(crate) fn assert_derived_state_matches_rebuild(&self) {
        let [module_index, status_index] = self.rebuild_indexes();
        assert_eq!(self.module_index, module_index, "module index");
        assert_eq!(self.status_index, status_index, "status index");
        assert_eq!(
            self.dtype_index,
            rebuild_dtype_index(&self.artifacts),
            "dtype index"
        );
        let edges: usize = self.succ.values().map(Vec::len).sum();
        assert_eq!(self.edges, edges, "edge counter");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_core::capture::{CaptureLevel, ProvenanceCapture};
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
    fn lineage_query_end_to_end() {
        let (e, retro, nodes) = engine();
        let file = retro.produced(nodes.save_hist, "file").unwrap();
        let q = format!("lineage of artifact {}", file.digest());
        let result = e.eval(&q).unwrap();
        let rendered = result.render();
        assert!(rendered.contains("LoadVolume@1"));
        assert!(rendered.contains("Histogram@1"));
        assert!(!rendered.contains("Isosurface@1"));
    }

    #[test]
    fn lineage_with_module_filter() {
        let (e, retro, nodes) = engine();
        let file = retro.produced(nodes.save_hist, "file").unwrap();
        let q = format!(
            "lineage of artifact {} where module = \"Histogram@1\"",
            file.digest()
        );
        let result = e.eval(&q).unwrap();
        assert_eq!(result.len(), 1);
        // Bare module name matches any version.
        let q = format!(
            "lineage of artifact {} where module = histogram",
            file.digest()
        );
        assert_eq!(e.eval(&q).unwrap().len(), 1);
    }

    #[test]
    fn impact_query_finds_derived_products() {
        let (e, retro, nodes) = engine();
        let grid = retro.produced(nodes.load, "grid").unwrap();
        let q = format!("impact of artifact {} where dtype = bytes", grid.digest());
        let result = e.eval(&q).unwrap();
        assert_eq!(result.len(), 2, "both saved files derive from the scan");
    }

    #[test]
    fn count_and_list() {
        let (e, ..) = engine();
        assert_eq!(e.eval("count runs").unwrap(), QueryResult::Count(8));
        assert_eq!(
            e.eval("count runs where status = succeeded").unwrap(),
            QueryResult::Count(8)
        );
        assert_eq!(
            e.eval("count runs where module contains save").unwrap(),
            QueryResult::Count(2)
        );
        let grids = e.eval("list artifacts where dtype = grid").unwrap();
        assert_eq!(grids.len(), 1);
    }

    #[test]
    fn depth_bound_respected() {
        let (e, retro, nodes) = engine();
        let file = retro.produced(nodes.save_hist, "file").unwrap();
        let shallow = e
            .eval(&format!("lineage of artifact {} depth 1", file.digest()))
            .unwrap();
        assert_eq!(shallow.len(), 1, "only the SaveFile run at depth 1");
        let deep = e
            .eval(&format!("lineage of artifact {}", file.digest()))
            .unwrap();
        assert!(deep.len() > shallow.len());
    }

    #[test]
    fn paths_enumerates_derivation_routes() {
        let (e, retro, nodes) = engine();
        let grid = retro.produced(nodes.load, "grid").unwrap();
        let file = retro.produced(nodes.save_iso, "file").unwrap();
        let q = format!(
            "paths from artifact {} to artifact {}",
            grid.digest(),
            file.digest()
        );
        let result = e.eval(&q).unwrap();
        assert_eq!(result.len(), 1, "a single derivation route");
        if let QueryResult::Paths(paths) = &result {
            // grid -> iso -> mesh -> smooth -> mesh' -> render -> image -> save -> file
            assert_eq!(paths[0].len(), 9);
        } else {
            panic!("expected paths");
        }
    }

    #[test]
    fn paths_max_bound_prunes() {
        let (e, retro, nodes) = engine();
        let grid = retro.produced(nodes.load, "grid").unwrap();
        let file = retro.produced(nodes.save_iso, "file").unwrap();
        let q = format!(
            "paths from artifact {} to artifact {} max 3",
            grid.digest(),
            file.digest()
        );
        assert!(e.eval(&q).unwrap().is_empty());
    }

    #[test]
    fn unknown_targets_error() {
        let (e, ..) = engine();
        let err = e.eval("lineage of artifact 00000000000000aa").unwrap_err();
        assert!(matches!(err, PqlError::Eval(_)));
        let err = e.eval("impact of run 9/9").unwrap_err();
        assert!(err.to_string().contains("unknown run"));
    }

    #[test]
    fn run_target_closure() {
        let (e, retro, nodes) = engine();
        let q = format!("impact of run {}/{}", retro.exec.0, nodes.load.raw());
        let result = e.eval(&q).unwrap();
        // Everything downstream of the load: 7 runs + their artifacts.
        assert!(result.len() >= 7);
    }

    #[test]
    fn multiple_executions_scoped_by_exec_filter() {
        let (wf, _) = figure1_workflow(1);
        let exec = Executor::new(standard_registry());
        let mut cap = ProvenanceCapture::new(CaptureLevel::Fine);
        exec.run_observed(&wf, &mut cap).unwrap();
        exec.run_observed(&wf, &mut cap).unwrap();
        let mut e = PqlEngine::new();
        for retro in cap.finish_all() {
            e.ingest(&retro);
        }
        assert_eq!(e.eval("count runs").unwrap(), QueryResult::Count(16));
        assert_eq!(
            e.eval("count runs where exec = 0").unwrap(),
            QueryResult::Count(8)
        );
    }

    #[test]
    fn secondary_indexes_track_ingest_and_preserve_scan_order() {
        let (mut e, retro, nodes) = engine();
        assert_eq!(e.generation(), 1);
        let probe = |e: &PqlEngine, field, value: &str| -> Vec<(ExecId, NodeId)> {
            e.probe_run_index(&Tally::default(), field, value)
                .unwrap()
                .collect()
        };
        // Bare and full module keys point at the same runs.
        let full = probe(&e, Field::Module, "Histogram@1");
        assert_eq!(full.len(), 1);
        assert_eq!(probe(&e, Field::Module, "histogram"), full);
        // Status postings cover every run, in scan (key) order.
        let all = probe(&e, Field::Status, "succeeded");
        assert_eq!(all.len(), e.run_count());
        // Unknown keys are empty postings, unindexed fields are None.
        assert!(probe(&e, Field::Status, "nope").is_empty());
        assert!(e
            .probe_run_index(&Tally::default(), Field::Attempts, "1")
            .is_none());
        // `exec` is keyed by the run map itself: the execution's runs are
        // one range, and only the id's exact decimal form selects it.
        let exec = retro.exec.0.to_string();
        let runs: Vec<_> = e.runs.keys().copied().collect();
        assert_eq!(probe(&e, Field::Exec, &exec), runs);
        assert_eq!(
            e.posting_len(Entity::Runs, Field::Exec, &exec),
            Some(runs.len())
        );
        for spelling in [format!("0{exec}"), format!("+{exec}"), format!("{exec}.0")] {
            assert!(probe(&e, Field::Exec, &spelling).is_empty(), "{spelling}");
        }
        assert_eq!(
            e.posting_len(Entity::Artifacts, Field::Dtype, "grid"),
            Some(1)
        );
        // An execution with a smaller id arriving after a larger one lands
        // before it: postings enumerate like a scan whatever the order of
        // arrival.
        let mut early = retro.clone();
        early.exec = ExecId(retro.exec.0 + 3);
        let mut late = retro.clone();
        late.exec = ExecId(retro.exec.0 + 9);
        e.ingest(&late);
        e.ingest(&early);
        assert_eq!(e.generation(), 3);
        let all = probe(&e, Field::Status, "succeeded");
        let scan: Vec<_> = e.runs.keys().copied().collect();
        assert_eq!(all, scan, "postings stay in scan order");
        let early_runs = probe(&e, Field::Exec, &early.exec.0.to_string());
        assert_eq!(early_runs.len(), early.runs.len());
        assert!(early_runs.iter().all(|&(x, _)| x == early.exec));
        // Overwriting a run with another identity and status moves its
        // postings instead of leaving the old ones behind.
        let key = (late.exec, nodes.hist);
        let run = late.runs.iter_mut().find(|r| r.node == nodes.hist).unwrap();
        run.identity = "Histogram@2".into();
        run.status = wf_engine::RunStatus::Failed;
        e.ingest(&late);
        assert_eq!(probe(&e, Field::Status, "failed"), vec![key]);
        assert_eq!(probe(&e, Field::Module, "histogram@2"), vec![key]);
        assert!(!probe(&e, Field::Module, "histogram@1").contains(&key));
        assert_eq!(probe(&e, Field::Module, "histogram").len(), 3);
        assert_eq!(
            probe(&e, Field::Status, "succeeded").len(),
            e.run_count() - 1
        );
        e.assert_derived_state_matches_rebuild();
    }

    /// A seeded generator of small, collision-heavy provenance records:
    /// few exec ids (so re-ingests overwrite runs with other identities,
    /// statuses and attempts), few artifact hashes (so an artifact is often
    /// first seen as a bare input, before the record that types it).
    fn random_retro(rng: &mut wf_model::SplitMix64) -> RetrospectiveProvenance {
        use prov_core::model::{Artifact, Environment, ModuleRun};
        use wf_engine::RunStatus;
        let mut below = |n: u64| rng.below(n);
        const IDENTITIES: [&str; 6] =
            ["Align@1", "Align@2", "align@1", "Warp", "Warp@1", "Slice@3"];
        const STATUSES: [RunStatus; 3] =
            [RunStatus::Succeeded, RunStatus::Failed, RunStatus::Skipped];
        const DTYPES: [&str; 3] = ["grid", "Table", "bytes"];
        let hash = |slot: u64| slot.wrapping_mul(0xD6E8_FEB8_6659_FD93).rotate_left(17);
        let mut artifacts = BTreeMap::new();
        let mut runs = Vec::new();
        for node in 0..1 + below(4) {
            // Up to `most - 1` ports; `typed` in 4 of their artifacts
            // carry a dtype in this record.
            let mut ports = |most: u64, typed: u64| -> Vec<(String, u64)> {
                (0..below(most))
                    .map(|i| {
                        let h = hash(below(24));
                        if below(4) < typed {
                            artifacts.entry(h).or_insert_with(|| Artifact {
                                hash: h,
                                dtype: DTYPES[below(3) as usize].to_string(),
                                size: 8,
                                preview: None,
                            });
                        }
                        (format!("p{i}"), h)
                    })
                    .collect()
            };
            let inputs = ports(4, 2);
            let outputs = ports(3, 4);
            runs.push(ModuleRun {
                node: NodeId(node),
                identity: IDENTITIES[below(6) as usize].to_string(),
                params: Vec::new(),
                status: STATUSES[below(3) as usize],
                started_millis: 0,
                elapsed_micros: 0,
                from_cache: false,
                error: None,
                inputs,
                outputs,
                attempts: 1 + below(3) as u32,
                backoff_micros: 0,
            });
        }
        RetrospectiveProvenance {
            exec: ExecId(below(12)),
            workflow: wf_model::WorkflowId(1),
            workflow_name: "w".into(),
            status: RunStatus::Succeeded,
            started_millis: 0,
            finished_millis: 0,
            runs,
            artifacts,
            environment: Environment::current(1),
            resumed_from: None,
        }
    }

    #[test]
    fn incremental_indexes_equal_rebuild_after_every_ingest() {
        for seed in 0..32u64 {
            let mut rng = wf_model::SplitMix64::new(seed);
            let mut single = PqlEngine::new();
            let mut sharded = crate::sharded::ShardedEngine::new(3);
            for _ in 0..48 {
                let retro = random_retro(&mut rng);
                single.ingest(&retro);
                sharded.ingest(&retro);
                single.assert_derived_state_matches_rebuild();
                sharded.assert_derived_state_matches_rebuild();
                assert_eq!(
                    sharded.cost_model(),
                    crate::plan::CostModel::of_engine(&single)
                );
            }
        }
    }

    #[test]
    fn attempts_field_finds_retried_runs() {
        use wf_engine::{ExecPolicy, FaultPlan, RetryPolicy};
        let (wf, nodes) = figure1_workflow(1);
        let exec = Executor::new(standard_registry())
            .with_policy(ExecPolicy::new().with_retry(RetryPolicy::attempts(3)))
            .with_faults(FaultPlan::new().fail_on(nodes.hist, 1, "transient"));
        let mut cap = ProvenanceCapture::new(CaptureLevel::Fine);
        let r = exec.run_observed(&wf, &mut cap).unwrap();
        let retro = cap.take(r.exec).unwrap();
        let mut e = PqlEngine::new();
        e.ingest(&retro);
        // The retried histogram run is the only one with attempts != 1.
        let retried = e.eval("list runs where attempts != 1").unwrap();
        assert_eq!(retried.len(), 1);
        assert!(retried.render().contains("Histogram"));
        assert_eq!(
            e.eval("count runs where attempts = 2").unwrap(),
            QueryResult::Count(1)
        );
        assert_eq!(
            e.eval("count runs where attempts = 1").unwrap(),
            QueryResult::Count(7)
        );
    }
}
