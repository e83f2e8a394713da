//! Query-observability integration tests: EXPLAIN ANALYZE access counts
//! are verified exactly against the `StoreStats` recorders of all four
//! store backends, the engine-side analyzer is verified against the
//! un-instrumented evaluator, and the observer front end (spans, labeled
//! metrics, slow-query log) is exercised end to end.

use provenance_workflows::prelude::*;
use provenance_workflows::telemetry::{spans_from_jsonl, spans_jsonl, SpanKind};
use std::collections::{BTreeMap, BTreeSet};
use wf_engine::synth::figure1_workflow;

/// One captured figure-1 run plus the digests of a downstream artifact
/// (lineage/generators anchor) and an upstream one (impact anchor).
fn captured() -> (RetrospectiveProvenance, String, String) {
    let (wf, nodes) = figure1_workflow(1);
    let exec = Executor::new(standard_registry());
    let mut cap = ProvenanceCapture::new(CaptureLevel::Fine);
    let r = exec.run_observed(&wf, &mut cap).expect("workflow runs");
    let retro = cap.take(r.exec).expect("capture completes");
    let target = retro.produced(nodes.save_hist, "file").unwrap().digest();
    let source = retro.produced(nodes.load, "grid").unwrap().digest();
    (retro, target, source)
}

fn all_backends(retro: &RetrospectiveProvenance) -> Vec<Box<dyn ProvenanceStore>> {
    let mut stores: Vec<Box<dyn ProvenanceStore>> = vec![
        Box::new(GraphStore::new()),
        Box::new(TripleStore::new()),
        Box::new(RelStore::new()),
        Box::new(LogStore::ephemeral()),
    ];
    for s in &mut stores {
        s.ingest(retro);
    }
    stores
}

#[test]
fn analyze_store_counts_match_store_stats_exactly_on_all_four_backends() {
    let (retro, target, source) = captured();
    let stores = all_backends(&retro);
    let queries = [
        format!("lineage of artifact {target}"),
        format!("lineage of artifact {target} depth 1"),
        format!("impact of artifact {source}"),
        "count runs".to_string(),
    ];

    // rows per query, per backend, for cross-backend agreement below.
    let mut rows_by_query: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    let mut names = BTreeSet::new();

    for store in &stores {
        let name = store.backend_name();
        names.insert(name.to_string());
        for q in &queries {
            let parsed = parse_pql(q).unwrap();

            // The access counts ANALYZE reports must equal the StoreStats
            // delta observed from outside across the whole call.
            let before = store.stats().snapshot();
            let sa = analyze_store(store.as_ref(), &parsed).unwrap();
            let outer = store.stats().snapshot().delta(&before);
            assert_eq!(
                sa.total_accesses(),
                outer,
                "[{name}] {q}: ANALYZE accesses != StoreStats delta"
            );

            // Counters are deterministic: replaying the same query costs
            // exactly the same accesses and yields the same rows.
            let again = analyze_store(store.as_ref(), &parsed).unwrap();
            assert_eq!(again.total_accesses(), sa.total_accesses(), "[{name}] {q}");
            assert_eq!(again.rows, sa.rows, "[{name}] {q}");

            assert!(
                sa.render().starts_with(&format!("backend: {name}")),
                "render names the backend"
            );
            rows_by_query.entry(q).or_default().insert(sa.rows);
        }

        // The full-closure lineage query does real, itemized work on
        // every backend (count runs is served from uncounted metadata).
        let parsed = parse_pql(&queries[0]).unwrap();
        let sa = analyze_store(store.as_ref(), &parsed).unwrap();
        assert!(
            sa.total_accesses().total_reads() > 0,
            "[{name}] lineage reports no element reads"
        );
    }

    assert_eq!(
        names.into_iter().collect::<Vec<_>>(),
        ["graph", "log", "relational", "triple"],
        "all four backends covered"
    );
    for (q, rows) in rows_by_query {
        assert_eq!(rows.len(), 1, "backends disagree on '{q}': {rows:?}");
    }
}

#[test]
fn engine_analyze_counts_match_engine_stats_and_eval() {
    let (retro, target, source) = captured();
    let mut engine = PqlEngine::new();
    engine.ingest(&retro);

    for q in [
        format!("lineage of artifact {target}"),
        format!("lineage of artifact {target} where module = histogram"),
        format!("impact of artifact {source}"),
        "count runs".to_string(),
        "list artifacts where dtype = grid".to_string(),
    ] {
        let parsed = parse_pql(&q).unwrap();
        let before = engine.stats().snapshot();
        let analysis = analyze(&engine, &parsed).unwrap();
        let delta = engine.stats().snapshot().delta(&before);
        assert_eq!(
            analysis.total_accesses(),
            delta,
            "{q}: per-operator deltas do not partition the engine's work"
        );
        assert_eq!(
            analysis.result,
            engine.eval_query(&parsed).unwrap(),
            "{q}: ANALYZE result diverges from plain evaluation"
        );
        // ops are in render order, root first: the root operator's output
        // is the result cardinality.
        assert_eq!(analysis.ops[0].rows_out, analysis.result.len(), "{q}");
        assert!(analysis.render().contains("total:"));
    }
}

#[test]
fn analyze_store_counts_stay_exact_on_index_paths() {
    // Same contract as the naive-mode test above, with the backends in
    // optimized mode: ANALYZE's access counts must still equal the
    // externally observed StoreStats delta, the rows must match naive
    // mode, and indexed lookups must register as keyed reads — never as
    // scans pretending to be fast.
    let (retro, target, source) = captured();
    let stores = all_backends(&retro);
    let queries = [
        format!("lineage of artifact {target}"),
        format!("lineage of artifact {target} depth 1"),
        format!("impact of artifact {source}"),
        "count runs".to_string(),
    ];
    for store in &stores {
        let name = store.backend_name();
        for q in &queries {
            let parsed = parse_pql(q).unwrap();
            store.set_optimized(false);
            let naive = analyze_store(store.as_ref(), &parsed).unwrap();

            store.set_optimized(true);
            let before = store.stats().snapshot();
            let fast = analyze_store(store.as_ref(), &parsed).unwrap();
            let outer = store.stats().snapshot().delta(&before);
            store.set_optimized(false);

            assert_eq!(
                fast.total_accesses(),
                outer,
                "[{name}] {q}: optimized ANALYZE accesses != StoreStats delta"
            );
            assert_eq!(fast.rows, naive.rows, "[{name}] {q}: rows differ by mode");
            assert!(
                fast.render().contains("(indexed)"),
                "[{name}] {q}: optimized plan not labeled"
            );
        }

        // The aggregate is the index showcase on every backend: optimized
        // `count runs` is a keyed metadata read, not a scan.
        store.set_optimized(true);
        let parsed = parse_pql("count runs").unwrap();
        let sa = analyze_store(store.as_ref(), &parsed).unwrap();
        store.set_optimized(false);
        let acc = sa.total_accesses();
        assert_eq!(acc.scans, 0, "[{name}] optimized count runs still scans");
        assert!(
            acc.keyed_lookups > 0,
            "[{name}] optimized count runs recorded no keyed lookup"
        );
    }
}

#[test]
fn engine_optimized_analyze_counts_match_engine_stats_and_eval() {
    // analyze_optimized must satisfy the same partition invariant as the
    // naive analyzer: per-operator access deltas sum to the engine-wide
    // StoreStats delta, and the result is identical to plain evaluation.
    let (retro, target, _) = captured();
    let mut engine = PqlEngine::new();
    engine.ingest(&retro);

    for q in [
        format!("lineage of artifact {target} depth 1"),
        "count runs".to_string(),
        "count runs where module = histogram".to_string(),
        "list artifacts where dtype = grid".to_string(),
        "count executions where status = succeeded".to_string(),
    ] {
        let parsed = parse_pql(&q).unwrap();
        let before = engine.stats().snapshot();
        let analysis = analyze_optimized(&engine, &parsed).unwrap();
        let delta = engine.stats().snapshot().delta(&before);
        assert_eq!(
            analysis.total_accesses(),
            delta,
            "{q}: optimized per-operator deltas do not partition the work"
        );
        assert_eq!(
            analysis.result,
            engine.eval_query(&parsed).unwrap(),
            "{q}: optimized ANALYZE result diverges from naive evaluation"
        );
        assert_eq!(analysis.ops[0].rows_out, analysis.result.len(), "{q}");
    }

    // Rewritten shapes hit the secondary indexes: keyed reads, zero scans.
    for q in ["count runs", "count runs where module = histogram"] {
        let parsed = parse_pql(q).unwrap();
        let acc = analyze_optimized(&engine, &parsed)
            .unwrap()
            .total_accesses();
        assert_eq!(acc.scans, 0, "{q}: optimized engine path scans");
        assert!(acc.keyed_lookups > 0, "{q}: no keyed lookup recorded");
    }
}

#[test]
fn observer_front_end_covers_every_backend_and_exports_cleanly() {
    let (retro, target, _) = captured();
    let mut engine = PqlEngine::new();
    engine.ingest(&retro);
    let stores = all_backends(&retro);
    let q = parse_pql(&format!("lineage of artifact {target}")).unwrap();

    let mut obs = QueryObserver::new().with_slowlog(0, 32);
    let r = obs.eval_observed(&engine, &q).unwrap();
    assert_eq!(
        r,
        engine.eval_query(&q).unwrap(),
        "observation changes nothing"
    );
    // The store surface answers the runs-only projection of the same
    // closure; all four backends must agree with each other.
    let mut store_rows = BTreeSet::new();
    for store in &stores {
        store_rows.insert(
            obs.eval_store_observed(store.as_ref(), store.backend_name(), &q)
                .unwrap(),
        );
    }
    assert_eq!(store_rows.len(), 1, "backends disagree: {store_rows:?}");

    // Labeled metrics: one family, one member per backend label.
    let text = obs.registry.render_prometheus();
    for backend in ["engine", "graph", "triple", "relational", "log"] {
        assert!(
            text.contains(&format!("pql_queries_total{{backend=\"{backend}\"}} 1")),
            "missing member for {backend} in:\n{text}"
        );
    }
    assert_eq!(
        text.matches("# HELP pql_queries_total").count(),
        1,
        "labeled members share one family header"
    );

    // Slow log: threshold 0 admits all five; JSONL dump parses back.
    assert_eq!(obs.slowlog.len(), 5);
    assert_eq!(obs.slowlog.to_jsonl().lines().count(), 5);
    for line in obs.slowlog.to_jsonl().lines() {
        let doc = provenance_workflows::telemetry::parse_json(line).unwrap();
        assert!(doc.get("accesses").is_some());
    }
    assert!(obs.slowlog.render().contains("5 retained"));

    // Spans: one query span per evaluation, exportable as JSONL and
    // parsed back without loss.
    let trace = obs.take_trace();
    assert_eq!(trace.spans.len(), 5);
    assert!(trace.spans.iter().all(|s| s.kind == SpanKind::Query));
    let back = spans_from_jsonl(&spans_jsonl(&trace)).expect("the span log parses back");
    assert_eq!(back.spans.len(), 5);
}
