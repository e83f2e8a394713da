//! Four-backend differential test harness for the PQL optimizer.
//!
//! A seeded generator produces random PQL queries (anchored on digests and
//! exec ids that really exist in the ingested corpus, plus deliberate
//! misses). Every query is evaluated:
//!
//! * on the engine: naive `eval_query` vs cost-based `eval_optimized` vs
//!   the LRU-cached path — all three must agree exactly (order included),
//!   and an error in one mode must be the same error in every mode;
//! * on the four store backends, for the query shapes that map onto the
//!   backend-neutral store surface: naive vs `set_optimized(true)` on
//!   each backend — all eight canonical result sets must be identical;
//! * on scatter-gather `sharded(2)` and `sharded(4)` engines (the ninth
//!   and tenth modes): the same corpus partitioned by seeded execution
//!   hash must answer every query — naive, optimized, and cached —
//!   exactly like the single engine.
//!
//! A last test runs the same generated queries against a WAL-backed
//! server: a seeded script of ingests and restarts, where every
//! recovered server must answer exactly like the live one it replaced.
//!
//! Wherever the optimizer chose an index lookup (engine and both sharded
//! modes), the lookup must also yield exactly the rows its keys select —
//! the residual filter would hide a key that over-selects, such as an
//! `exec` key that parsed `"007"` into execution 7.
//!
//! On divergence the harness shrinks the query (dropping filter clauses,
//! depth bounds, and disjuncts) and fails with the minimal offending
//! query — plus, for sharded divergences, the execution→shard assignment
//! that triggered it — so the bug report is readable.
//!
//! Case count comes from `PROPTEST_CASES` (default 256) so CI can run a
//! cheap smoke pass while local runs go deep.

use prov_query::{
    analyze_optimized, analyze_store, eval_cached, eval_optimized, parse, Analysis, Comparison,
    Condition, Direction, Entity, Field, Op, PlanNode, PlanOp, PqlError, Query, QueryCache, Target,
};
use provenance_workflows::prelude::*;
use provenance_workflows::store::{sort_artifacts, sort_runs};
use wf_engine::synth::challenge_workflow;

// ---- deterministic RNG ---------------------------------------------------

/// A tiny LCG: deterministic across platforms, no dependencies, seedable.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5))
    }
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

// ---- corpus and value pools ----------------------------------------------

/// Real values harvested from the ingested corpus, so generated queries
/// hit actual data most of the time instead of always missing.
struct Pools {
    digests: Vec<u64>,
    execs: Vec<u64>,
    nodes: Vec<u64>,
    modules: Vec<String>,
}

fn corpus() -> (
    PqlEngine,
    Vec<ShardedEngine>,
    Vec<Box<dyn ProvenanceStore>>,
    Pools,
) {
    let exec = Executor::new(standard_registry());
    let mut engine = PqlEngine::new();
    // The ninth and tenth differential modes: the same corpus partitioned
    // across 2 and 4 scatter-gather shards.
    let mut shardeds = vec![ShardedEngine::new(2), ShardedEngine::new(4)];
    let mut stores: Vec<Box<dyn ProvenanceStore>> = vec![
        Box::new(GraphStore::new()),
        Box::new(RelStore::new()),
        Box::new(TripleStore::new()),
        Box::new(LogStore::ephemeral()),
    ];
    let mut pools = Pools {
        digests: Vec::new(),
        execs: Vec::new(),
        nodes: Vec::new(),
        modules: Vec::new(),
    };
    for i in 0..4u64 {
        let wf = challenge_workflow(i + 1, 3, 3);
        let mut cap = ProvenanceCapture::new(CaptureLevel::Fine);
        let r = exec.run_observed(&wf, &mut cap).expect("workflow runs");
        let retro = cap.take(r.exec).expect("captured");
        engine.ingest(&retro);
        for se in &mut shardeds {
            se.ingest(&retro);
        }
        for s in &mut stores {
            s.ingest(&retro);
        }
        pools.execs.push(retro.exec.0);
        for run in &retro.runs {
            pools.nodes.push(run.node.0);
            pools.modules.push(run.identity.clone());
            if let Some(bare) = run.identity.split('@').next() {
                pools.modules.push(bare.to_string());
            }
            for (_, h) in &run.outputs {
                pools.digests.push(*h);
            }
        }
    }
    pools.digests.sort_unstable();
    pools.digests.dedup();
    pools.modules.sort();
    pools.modules.dedup();
    (engine, shardeds, stores, pools)
}

// ---- query generator -----------------------------------------------------

fn gen_target(rng: &mut Lcg, pools: &Pools) -> Target {
    if rng.chance(70) {
        Target::Artifact(*rng.pick(&pools.digests))
    } else if rng.chance(50) {
        // A digest that almost certainly misses.
        Target::Artifact(rng.next())
    } else {
        Target::Run(*rng.pick(&pools.execs), *rng.pick(&pools.nodes))
    }
}

/// An execution id as `exec = …` selects it, then spellings of it that
/// the text comparison rejects: an `exec` key must select nothing for
/// them, never parse them into the id.
fn exec_spellings(e: u64) -> [String; 9] {
    [
        e.to_string(),
        format!("0{e}"),
        format!("+{e}"),
        format!("{e}.0"),
        format!(" {e}"),
        format!("{e} "),
        (u128::from(u64::MAX) + 1).to_string(),
        "-1".to_string(),
        String::new(),
    ]
}

fn gen_comparison(rng: &mut Lcg, pools: &Pools) -> Comparison {
    let field = *rng.pick(&[
        Field::Module,
        Field::Status,
        Field::Dtype,
        Field::Exec,
        Field::Attempts,
    ]);
    let op = *rng.pick(&[Op::Eq, Op::Eq, Op::Neq, Op::Contains]);
    let value = match field {
        Field::Module => {
            if rng.chance(80) {
                rng.pick(&pools.modules).clone()
            } else {
                "no such module".to_string()
            }
        }
        Field::Status => rng.pick(&["succeeded", "failed", "skipped"]).to_string(),
        Field::Dtype => rng
            .pick(&["grid", "table", "histogram", "image", "bytes", "nothing"])
            .to_string(),
        Field::Exec => {
            let e = *rng.pick(&pools.execs);
            match rng.below(10) {
                0..=4 => e.to_string(),
                5 => "999999".to_string(),
                _ => rng.pick(&exec_spellings(e)[1..]).clone(),
            }
        }
        Field::Attempts => rng.pick(&["1", "2", "3"]).to_string(),
    };
    Comparison { field, op, value }
}

fn gen_condition(rng: &mut Lcg, pools: &Pools) -> Condition {
    let disjuncts = rng.below(3); // 0 = trivial
    Condition {
        any_of: (0..disjuncts)
            .map(|_| {
                (0..1 + rng.below(2))
                    .map(|_| gen_comparison(rng, pools))
                    .collect()
            })
            .collect(),
    }
}

fn gen_query(rng: &mut Lcg, pools: &Pools) -> Query {
    let entity = *rng.pick(&[Entity::Runs, Entity::Artifacts, Entity::Executions]);
    match rng.below(6) {
        0 | 1 => Query::Closure {
            direction: *rng.pick(&[Direction::Upstream, Direction::Downstream]),
            target: gen_target(rng, pools),
            depth: match rng.below(4) {
                0 => Some(1),
                1 => Some(1 + rng.below(5)),
                _ => None,
            },
            filter: gen_condition(rng, pools),
        },
        2 => Query::Count {
            entity,
            filter: gen_condition(rng, pools),
        },
        3 => Query::List {
            entity,
            filter: gen_condition(rng, pools),
        },
        _ => {
            // Bias toward Count/List with filters — that is where the
            // index rewrites live.
            Query::Count {
                entity,
                filter: Condition {
                    any_of: vec![(0..1 + rng.below(2))
                        .map(|_| gen_comparison(rng, pools))
                        .collect()],
                },
            }
        }
    }
}

// ---- differential check --------------------------------------------------

/// The access keys of the plan's index lookup, if it has one.
fn lookup_keys(node: &PlanNode) -> Option<(Entity, &[(Field, String)])> {
    match &node.op {
        PlanOp::IndexLookup { entity, keys } => Some((*entity, keys)),
        _ => node.children.iter().find_map(lookup_keys),
    }
}

/// An index lookup must yield exactly the rows its keys select under the
/// scan's comparison rules. The residual filter hides a key that selects
/// too much (the rows are read, then dropped), so results alone cannot
/// show it; a key that selects too little loses rows.
fn inexact_lookup(
    engine: &PqlEngine,
    mode: &str,
    analysis: Result<Analysis, PqlError>,
) -> Option<String> {
    let analysis = analysis.ok()?;
    let (entity, keys) = lookup_keys(&analysis.plan.root)?;
    let keyed = Query::List {
        entity,
        filter: Condition {
            any_of: keys
                .iter()
                .map(|(field, value)| {
                    vec![Comparison {
                        field: *field,
                        op: Op::Eq,
                        value: value.clone(),
                    }]
                })
                .collect(),
        },
    };
    let want = engine.eval_query(&keyed).ok()?.len();
    let got = analysis
        .ops
        .iter()
        .find(|o| o.label.starts_with("IndexLookup"))?
        .rows_out;
    (got != want).then(|| {
        format!("{mode} IndexLookup {keys:?} yielded {got} candidates, but its keys select {want}")
    })
}

/// Canonical store-surface answer for a mappable query shape, or `None`
/// when the shape only exists in the engine.
fn store_answer(store: &dyn ProvenanceStore, q: &Query) -> Option<String> {
    match q {
        Query::Closure {
            direction: Direction::Upstream,
            target: Target::Artifact(h),
            depth: None,
            filter,
        } if filter.is_trivial() => Some(format!("{:?}", sort_runs(store.lineage_runs(*h)))),
        Query::Closure {
            direction: Direction::Upstream,
            target: Target::Artifact(h),
            depth: Some(1),
            filter,
        } if filter.is_trivial() => Some(format!("{:?}", sort_runs(store.generators(*h)))),
        Query::Closure {
            direction: Direction::Downstream,
            target: Target::Artifact(h),
            depth: None,
            filter,
        } if filter.is_trivial() => {
            Some(format!("{:?}", sort_artifacts(store.derived_artifacts(*h))))
        }
        Query::Count {
            entity: Entity::Runs,
            filter,
        } if filter.is_trivial() => Some(format!("{}", store.run_count())),
        _ => None,
    }
}

/// Run one query through every mode on every backend. Returns a
/// divergence description, or `None` when all modes agree.
fn divergence(
    engine: &PqlEngine,
    shardeds: &[ShardedEngine],
    stores: &[Box<dyn ProvenanceStore>],
    cache: &mut QueryCache,
    q: &Query,
) -> Option<String> {
    // Mode 1/2: engine naive vs optimized.
    let naive = engine.eval_query(q);
    let fast = eval_optimized(engine, q);
    match (&naive, &fast) {
        (Ok(a), Ok(b)) if a == b => {}
        (Err(a), Err(b)) if a == b => {}
        _ => return Some(format!("engine naive {naive:?} != optimized {fast:?}")),
    }
    // Mode 3: the LRU-cached path (twice: fill, then hit).
    if let Ok(expected) = &naive {
        for pass in ["fill", "hit"] {
            match eval_cached(engine, q, cache) {
                Ok(c) if &c == expected => {}
                other => return Some(format!("cached ({pass}) {other:?} != naive {expected:?}")),
            }
        }
    }
    if let Some(report) = inexact_lookup(engine, "engine", analyze_optimized(engine, q)) {
        return Some(report);
    }
    // Modes 9/10: the sharded(2)/sharded(4) scatter-gather engines, each
    // in naive, optimized, and cached form, must agree with the single
    // engine exactly — results, order, and errors.
    for se in shardeds {
        let s_naive = se.eval_query(q);
        let s_fast = se.eval_optimized(q);
        let s_cached = se.eval_cached(q, cache);
        for (mode, got) in [
            ("naive", &s_naive),
            ("optimized", &s_fast),
            ("cached", &s_cached),
        ] {
            match (&naive, got) {
                (Ok(a), Ok(b)) if a == b => {}
                (Err(a), Err(b)) if a == b => {}
                _ => {
                    return Some(format!(
                        "{} {mode} {got:?} != engine naive {naive:?}",
                        se.backend_key()
                    ))
                }
            }
        }
        if let Some(report) = inexact_lookup(engine, se.backend_key(), se.analyze_optimized(q)) {
            return Some(report);
        }
    }
    // Modes 4..11: four backends x {naive, optimized} on mappable shapes.
    let mut answers: Vec<(String, String)> = Vec::new();
    for store in stores {
        for optimized in [false, true] {
            store.set_optimized(optimized);
            let label = format!(
                "{}/{}",
                store.backend_name(),
                if optimized { "optimized" } else { "naive" }
            );
            if let Some(ans) = store_answer(store.as_ref(), q) {
                answers.push((label, ans));
            }
            store.set_optimized(false);
        }
    }
    if let Some((first_label, first)) = answers.first() {
        for (label, ans) in &answers[1..] {
            if ans != first {
                return Some(format!(
                    "store results diverge: {first_label} gave {first} but {label} gave {ans}"
                ));
            }
        }
    }
    None
}

// ---- shrinking -----------------------------------------------------------

/// One-step simplifications of a query, most aggressive first.
fn shrink_candidates(q: &Query) -> Vec<Query> {
    let mut out = Vec::new();
    let shrunk_filters = |filter: &Condition| {
        let mut fs = Vec::new();
        if !filter.is_trivial() {
            fs.push(Condition::default());
            for i in 0..filter.any_of.len() {
                let mut any_of = filter.any_of.clone();
                any_of.remove(i);
                fs.push(Condition { any_of });
            }
            for (i, conj) in filter.any_of.iter().enumerate() {
                if conj.len() > 1 {
                    for j in 0..conj.len() {
                        let mut any_of = filter.any_of.clone();
                        any_of[i].remove(j);
                        let _ = i;
                        fs.push(Condition { any_of });
                    }
                }
            }
        }
        fs
    };
    match q {
        Query::Closure {
            direction,
            target,
            depth,
            filter,
        } => {
            for f in shrunk_filters(filter) {
                out.push(Query::Closure {
                    direction: *direction,
                    target: *target,
                    depth: *depth,
                    filter: f,
                });
            }
            if depth.is_some() {
                out.push(Query::Closure {
                    direction: *direction,
                    target: *target,
                    depth: None,
                    filter: filter.clone(),
                });
            }
        }
        Query::Count { entity, filter } | Query::List { entity, filter } => {
            for f in shrunk_filters(filter) {
                out.push(match q {
                    Query::List { .. } => Query::List {
                        entity: *entity,
                        filter: f,
                    },
                    _ => Query::Count {
                        entity: *entity,
                        filter: f,
                    },
                });
            }
        }
        Query::Paths { .. } => {}
    }
    out
}

/// Greedily shrink a failing query to a minimal one that still fails.
fn minimize(q: &Query, mut still_fails: impl FnMut(&Query) -> bool) -> Query {
    let mut current = q.clone();
    loop {
        let step = shrink_candidates(&current)
            .into_iter()
            .find(|cand| still_fails(cand));
        match step {
            Some(smaller) => current = smaller,
            None => return current,
        }
    }
}

// ---- the harness ---------------------------------------------------------

fn case_count() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

/// The execution→shard routing of every sharded engine — printed with a
/// sharded divergence so the failing partition is reproducible.
fn shard_assignment(shardeds: &[ShardedEngine], execs: &[u64]) -> String {
    shardeds
        .iter()
        .map(|se| {
            let routes: Vec<String> = execs
                .iter()
                .map(|e| format!("exec {e}→{}", se.route(wf_engine::ExecId(*e))))
                .collect();
            format!("{}: {}", se.backend_key(), routes.join(", "))
        })
        .collect::<Vec<_>>()
        .join("\n  ")
}

#[test]
fn optimized_evaluation_never_diverges_from_naive_on_any_backend() {
    let (engine, shardeds, stores, pools) = corpus();
    let mut cache = QueryCache::new(64);
    let mut rng = Lcg::new(0xD1FF);
    let cases = case_count();
    let mut mapped = 0usize;
    // Every spelling of every execution id on its own first, so each one
    // meets the `exec` key whatever the random draws, then the random
    // queries.
    let mut queries: Vec<Query> = pools
        .execs
        .iter()
        .flat_map(|&e| exec_spellings(e))
        .map(|value| Query::Count {
            entity: Entity::Runs,
            filter: Condition {
                any_of: vec![vec![Comparison {
                    field: Field::Exec,
                    op: Op::Eq,
                    value,
                }]],
            },
        })
        .collect();
    queries.extend((0..cases).map(|_| gen_query(&mut rng, &pools)));
    let total = queries.len();

    for (case, q) in queries.into_iter().enumerate() {
        // Queries must survive the text round trip before anything else:
        // the differential claim is about what users can actually type.
        let rendered = q.to_string();
        let reparsed = parse(&rendered).unwrap_or_else(|e| {
            panic!("case {case}: generated query {rendered:?} unparseable: {e}")
        });
        assert_eq!(
            reparsed, q,
            "case {case}: {rendered:?} reparses differently"
        );

        if store_answer(stores[0].as_ref(), &q).is_some() {
            mapped += 1;
        }
        if let Some(report) = divergence(&engine, &shardeds, &stores, &mut cache, &q) {
            let minimal = minimize(&q, |cand| {
                divergence(&engine, &shardeds, &stores, &mut cache, cand).is_some()
            });
            let min_report =
                divergence(&engine, &shardeds, &stores, &mut cache, &minimal).unwrap_or(report);
            panic!(
                "case {case}/{total} diverged.\n  original: {q}\n  minimal:  {minimal}\n  {min_report}\n  shard assignment:\n  {}",
                shard_assignment(&shardeds, &pools.execs)
            );
        }
    }
    // The generator must actually exercise the store surface, not just
    // engine-only shapes.
    assert!(
        mapped >= cases / 20,
        "only {mapped}/{cases} generated queries mapped onto the store surface"
    );
}

#[test]
fn store_analyze_agrees_with_direct_surface_in_both_modes() {
    // A focused differential on ANALYZE itself: for each mappable canned
    // shape, `analyze_store` must report the same row count naive and
    // optimized, on every backend.
    let (_, _, stores, pools) = corpus();
    let digest = pools.digests[pools.digests.len() / 2];
    let queries = [
        format!("lineage of artifact {digest:016x}"),
        format!("lineage of artifact {digest:016x} depth 1"),
        format!("impact of artifact {digest:016x}"),
        "count runs".to_string(),
    ];
    for store in &stores {
        for q in &queries {
            let parsed = parse(q).unwrap();
            store.set_optimized(false);
            let naive = analyze_store(store.as_ref(), &parsed).unwrap();
            store.set_optimized(true);
            let fast = analyze_store(store.as_ref(), &parsed).unwrap();
            store.set_optimized(false);
            assert_eq!(
                naive.rows,
                fast.rows,
                "[{}] {q}: ANALYZE rows differ between modes",
                store.backend_name()
            );
            assert!(
                fast.render().contains("(indexed)"),
                "[{}] {q}: optimized ANALYZE does not say so",
                store.backend_name()
            );
        }
    }
}

#[test]
fn shrinker_reduces_to_a_minimal_failing_query() {
    // The shrinker itself is load-bearing on failure, so pin its behavior
    // with a synthetic oracle: "fails iff the filter mentions module".
    let full = Query::Count {
        entity: Entity::Runs,
        filter: Condition {
            any_of: vec![
                vec![
                    Comparison {
                        field: Field::Module,
                        op: Op::Eq,
                        value: "align_warp".into(),
                    },
                    Comparison {
                        field: Field::Status,
                        op: Op::Eq,
                        value: "succeeded".into(),
                    },
                ],
                vec![Comparison {
                    field: Field::Dtype,
                    op: Op::Eq,
                    value: "grid".into(),
                }],
            ],
        },
    };
    let mentions_module = |q: &Query| match q {
        Query::Count { filter, .. } => filter
            .any_of
            .iter()
            .flatten()
            .any(|c| c.field == Field::Module),
        _ => false,
    };
    let minimal = minimize(&full, mentions_module);
    match &minimal {
        Query::Count { filter, .. } => {
            assert_eq!(filter.any_of.len(), 1, "kept one disjunct: {minimal}");
            assert_eq!(filter.any_of[0].len(), 1, "kept one clause: {minimal}");
            assert_eq!(filter.any_of[0][0].field, Field::Module);
        }
        other => panic!("shrinker changed the query shape: {other}"),
    }
}

// ---- concurrent ingest/query stress --------------------------------------

/// Thread count for the stress pass, from `PROVTEST_THREADS` (default 8).
fn stress_threads() -> usize {
    std::env::var("PROVTEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
        .clamp(2, 64)
}

/// Concurrent ingest + query against every backend behind `SharedStore`:
/// writers race distinct documents in while readers hammer the query
/// surface. Afterwards the shared store must hold exactly what a plain
/// single-threaded store holds — no lost writes, no torn generation.
#[test]
fn concurrent_ingest_and_query_loses_no_writes_on_any_backend() {
    use provenance_workflows::store::{sort_artifacts as sort_arts, SharedStore};

    let threads = stress_threads();
    let exec = Executor::new(standard_registry());
    let docs: Vec<RetrospectiveProvenance> = (0..8u64)
        .map(|i| {
            let wf = challenge_workflow(i + 10, 3, 3);
            let mut cap = ProvenanceCapture::new(CaptureLevel::Fine);
            let r = exec.run_observed(&wf, &mut cap).expect("workflow runs");
            let mut doc = cap.take(r.exec).expect("captured");
            doc.exec = wf_engine::ExecId(5_000 + i);
            doc
        })
        .collect();
    let probe: u64 = *docs[0].runs[0]
        .outputs
        .first()
        .map(|(_, h)| h)
        .expect("first run has an output");

    type SharedStoreFactory = fn() -> Box<dyn ProvenanceStore + Send + Sync>;
    let factories: Vec<(&str, SharedStoreFactory)> = vec![
        ("graph", || Box::new(GraphStore::new())),
        ("relational", || Box::new(RelStore::new())),
        ("triple", || Box::new(TripleStore::new())),
        ("log", || Box::new(LogStore::ephemeral())),
    ];

    for (name, make) in factories {
        // The single-threaded reference.
        let mut plain = make();
        for d in &docs {
            plain.ingest(d);
        }

        // The shared store, written by `threads` racing writers.
        let shared = SharedStore::new(make());
        let writers = (threads / 2).max(2);
        let readers = threads - writers;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let shared = &shared;
                let docs = &docs;
                scope.spawn(move || {
                    for (i, d) in docs.iter().enumerate() {
                        if i % writers == w {
                            shared.ingest_shared(d);
                        }
                    }
                });
            }
            for _ in 0..readers {
                let shared = &shared;
                scope.spawn(move || {
                    let mut last_runs = 0usize;
                    let mut last_gen = 0u64;
                    for _ in 0..50 {
                        // Reads under one guard see a pinned generation.
                        let guard = shared.read();
                        let gen = shared.generation();
                        let runs = guard.run_count();
                        let _ = guard.lineage_runs(probe);
                        let _ = guard.derived_artifacts(probe);
                        drop(guard);
                        assert!(
                            runs >= last_runs,
                            "{name}: run count went backwards ({last_runs} -> {runs})"
                        );
                        assert!(
                            gen >= last_gen,
                            "{name}: generation went backwards ({last_gen} -> {gen})"
                        );
                        last_runs = runs;
                        last_gen = gen;
                    }
                });
            }
        });

        // No lost writes, exact generation accounting.
        assert_eq!(
            shared.generation(),
            docs.len() as u64,
            "{name}: one generation bump per ingest"
        );
        assert_eq!(
            shared.run_count(),
            plain.run_count(),
            "{name}: concurrent ingest lost module runs"
        );
        // Order-independent query agreement with the reference store.
        assert_eq!(
            sort_runs(shared.lineage_runs(probe)),
            sort_runs(plain.lineage_runs(probe)),
            "{name}: lineage diverged after concurrent ingest"
        );
        assert_eq!(
            sort_arts(shared.derived_artifacts(probe)),
            sort_arts(plain.derived_artifacts(probe)),
            "{name}: impact diverged after concurrent ingest"
        );
        let mut shared_modules = shared.runs_per_module();
        let mut plain_modules = plain.runs_per_module();
        shared_modules.sort();
        plain_modules.sort();
        assert_eq!(
            shared_modules, plain_modules,
            "{name}: per-module counts diverged"
        );
    }
}

/// Everything a client can read back from a namespace: the generation,
/// the counts, the ack of every request id sent so far (by re-sending it),
/// and the answer — or error message — to each of a case's queries.
#[derive(Debug, PartialEq)]
struct Observed {
    generation: u64,
    counts: (usize, usize, usize),
    acks: Vec<prov_server::IngestAck>,
    answers: Vec<Result<QueryResult, String>>,
}

/// One request of a durability script: document `doc` ingested as
/// execution `exec`, under `id` when the client named the request.
#[derive(Debug, Clone)]
struct Request {
    doc: usize,
    exec: u64,
    id: Option<String>,
}

fn send(
    server: &std::sync::Arc<prov_server::ProvServer>,
    docs: &[RetrospectiveProvenance],
    request: &Request,
) -> prov_server::IngestAck {
    let mut retro = docs[request.doc].clone();
    retro.exec = wf_engine::ExecId(request.exec);
    server
        .session("differential")
        .ingest_with_id("lab", &retro, request.id.as_deref())
        .expect("ingest succeeds")
}

fn observe(
    server: &std::sync::Arc<prov_server::ProvServer>,
    docs: &[RetrospectiveProvenance],
    named: &[Request],
    queries: &[String],
) -> Observed {
    let session = server.session("differential");
    let stats = session.stats("lab").expect("namespace exists");
    Observed {
        generation: stats.generation,
        counts: (stats.runs, stats.artifacts, stats.executions),
        acks: named.iter().map(|r| send(server, docs, r)).collect(),
        answers: queries
            .iter()
            .map(|q| {
                session
                    .query("lab", q)
                    .map(|reply| reply.result)
                    .map_err(|e| e.to_string())
            })
            .collect(),
    }
}

#[test]
fn wal_recovered_store_agrees_with_the_precrash_reference() {
    // Durability differential, live == recovered: each case is a seeded
    // script of ingests — re-ingests under one execution id, repeated
    // request ids, anonymous sends — and restarts, run against a
    // WAL-backed server at fsync=never (shards ∈ {1, 2}, checkpoint_every
    // ∈ {0, 1, 3}) beside an in-memory twin that never restarts. Every
    // restart drops the server cold and recovers a fresh one from its
    // directory, which must then be indistinguishable from the server
    // just before the crash and from the twin.
    use prov_server::{DurabilityConfig, ProvServer, ServerConfig};
    use provenance_workflows::store::FsyncPolicy;
    use std::sync::Arc;
    use wf_engine::synth::figure1_workflow;

    let root = std::env::temp_dir().join(format!(
        "prov-diff-wal-{}-{}",
        std::process::id(),
        wf_engine::event::now_millis()
    ));
    let exec = Executor::new(standard_registry());
    let capture = |wf: &Workflow| {
        let mut cap = ProvenanceCapture::new(CaptureLevel::Fine);
        let r = exec.run_observed(wf, &mut cap).expect("workflow runs");
        cap.take(r.exec).expect("captured")
    };
    let mut docs = Vec::new();
    for i in 1..=3u64 {
        docs.push(capture(&figure1_workflow(i).0));
        docs.push(capture(&challenge_workflow(i, 2, 2)));
    }
    // Few execution ids, so a script often re-ingests under one of them.
    let execs = [1u64, 2, 3, 7];
    let mut pools = Pools {
        digests: Vec::new(),
        execs: execs.to_vec(),
        nodes: Vec::new(),
        modules: Vec::new(),
    };
    for retro in &docs {
        for run in &retro.runs {
            pools.nodes.push(run.node.0);
            pools.modules.push(run.identity.clone());
            pools.digests.extend(run.outputs.iter().map(|(_, h)| *h));
        }
    }
    pools.digests.sort_unstable();
    pools.digests.dedup();
    pools.nodes.sort_unstable();
    pools.nodes.dedup();
    pools.modules.sort();
    pools.modules.dedup();

    let cases = case_count();
    let mut restarts = 0usize;
    for case in 0..cases {
        let mut rng = Lcg::new(0x3A1D ^ case as u64);
        let shards = 1 + case % 2;
        let every = [0, 1, 3][case / 2 % 3];
        let dir = root.join(format!("case-{case}"));
        let durable = ServerConfig {
            shards,
            durability: Some(
                DurabilityConfig::new(&dir)
                    .fsync(FsyncPolicy::Never)
                    .checkpoint_every(every),
            ),
            ..ServerConfig::default()
        };
        let open = || {
            let server = Arc::new(ProvServer::new(durable.clone()));
            server.recover().expect("recovery succeeds");
            server
        };
        let twin = Arc::new(ProvServer::new(ServerConfig {
            shards,
            ..ServerConfig::default()
        }));
        let mut queries: Vec<String> = ["count runs", "count artifacts", "count executions"]
            .map(String::from)
            .to_vec();
        queries.extend((0..12).map(|_| gen_query(&mut rng, &pools).to_string()));

        let mut server = open();
        let mut named: Vec<Request> = Vec::new();
        let mut script: Vec<String> = Vec::new();
        let steps = 4 + rng.below(9);
        for step in 0..=steps {
            if step == steps || (!script.is_empty() && rng.chance(15)) {
                let live = observe(&server, &docs, &named, &queries);
                drop(server); // crash: no shutdown, no flush beyond the WAL's own appends
                server = open();
                restarts += 1;
                script.push("restart".into());
                let recovered = observe(&server, &docs, &named, &queries);
                let context = format!(
                    "case {case} (shards={shards}, checkpoint_every={every})\n  script: {script:?}\n  queries: {queries:?}"
                );
                assert_eq!(recovered, live, "recovered != live\n  {context}");
                let reference = observe(&twin, &docs, &named, &queries);
                assert_eq!(recovered, reference, "recovered != in-memory\n  {context}");
                continue;
            }
            let request = if !named.is_empty() && rng.chance(25) {
                named[rng.below(named.len())].clone()
            } else {
                let request = Request {
                    doc: rng.below(docs.len()),
                    exec: *rng.pick(&execs),
                    id: rng.chance(70).then(|| format!("req-{step}")),
                };
                if request.id.is_some() {
                    named.push(request.clone());
                }
                request
            };
            script.push(format!("{request:?}"));
            let (got, want) = (send(&server, &docs, &request), send(&twin, &docs, &request));
            assert_eq!(
                got, want,
                "case {case}: durable and in-memory acks differ\n  script: {script:?}"
            );
        }
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(restarts >= cases, "every case restarts at least once");
    std::fs::remove_dir_all(&root).ok();
}
