//! Regenerate every experiment table of EXPERIMENTS.md.
//!
//! Run with: `cargo run --release -p bench --bin report`
//! (release mode recommended; dev mode works but inflates the absolute
//! numbers).

use bench::*;

/// E15 prints its table and drops `BENCH_telemetry.json` next to the
/// working directory. Factored out so `report telemetry` can regenerate
/// just this section.
fn report_telemetry(reps: usize) {
    println!("## E15 — telemetry overhead: the cost of watching a run\n");
    let rows = experiment_telemetry(reps);
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "threads",
                "spans",
                "unobserved (us)",
                "telemetry (us)",
                "+capture (us)",
                "telemetry %",
                "+capture %"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.workload.clone(),
                    r.threads.to_string(),
                    r.spans.to_string(),
                    format!("{:.1}", r.unobserved_us),
                    format!("{:.1}", r.observed_us),
                    format!("{:.1}", r.with_capture_us),
                    format!("{:+.2}", r.observed_overhead_pct()),
                    format!("{:+.2}", r.capture_overhead_pct()),
                ])
                .collect::<Vec<_>>(),
        )
    );
    let json = telemetry_json(&rows);
    match std::fs::write("BENCH_telemetry.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_telemetry.json"),
        Err(e) => eprintln!("could not write BENCH_telemetry.json: {e}"),
    }
}

/// E16 prints its table and drops `BENCH_query.json` next to the working
/// directory. Factored out so `report query` can regenerate just this
/// section.
fn report_query(reps: usize) {
    println!("## E16 — query observability overhead: the cost of counting accesses\n");
    let corpus = challenge_corpus(12);
    let rows = experiment_queryobs(&corpus, reps);
    println!(
        "{}",
        render_table(
            &[
                "backend",
                "query",
                "rows",
                "unobserved (us)",
                "observed (us)",
                "overhead %",
                "accesses"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.backend.clone(),
                    r.query.clone(),
                    r.rows.to_string(),
                    format!("{:.1}", r.unobserved_us),
                    format!("{:.1}", r.observed_us),
                    format!("{:+.2}", r.overhead_pct()),
                    r.accesses.render(),
                ])
                .collect::<Vec<_>>(),
        )
    );
    println!(
        "overall (time-weighted): {:+.2}%\n",
        overall_overhead_pct(&rows)
    );
    let json = query_obs_json(&rows);
    match std::fs::write("BENCH_query.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_query.json"),
        Err(e) => eprintln!("could not write BENCH_query.json: {e}"),
    }
}

/// E17 prints its table and drops `BENCH_optimizer.json` next to the
/// working directory. Factored out so `report optimizer` can regenerate
/// just this section.
fn report_optimizer(reps: usize) {
    println!("## E17 — cost-based optimizer: naive vs index-accelerated query paths\n");
    let corpus = challenge_corpus(12);
    let rows = experiment_optimizer(&corpus, reps);
    println!(
        "{}",
        render_table(
            &[
                "backend",
                "query",
                "rows",
                "eligible",
                "naive (us)",
                "optimized (us)",
                "speedup"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.backend.clone(),
                    r.query.clone(),
                    r.rows.to_string(),
                    r.index_eligible.to_string(),
                    format!("{:.1}", r.naive_us),
                    format!("{:.1}", r.optimized_us),
                    format!("{:.2}x", r.speedup()),
                ])
                .collect::<Vec<_>>(),
        )
    );
    for b in ["graph", "relational", "triple", "log"] {
        if let Some(s) = median_eligible_speedup(&rows, b) {
            println!("median eligible speedup ({b}): {s:.2}x");
        }
    }
    println!(
        "worst ineligible regression: {:+.2}%\n",
        worst_ineligible_regression_pct(&rows)
    );
    let json = optimizer_json(&rows);
    match std::fs::write("BENCH_optimizer.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_optimizer.json"),
        Err(e) => eprintln!("could not write BENCH_optimizer.json: {e}"),
    }
}

/// E18 drives the concurrent provenance server with the closed-loop load
/// generator and drops `BENCH_server.json` next to the working directory.
/// Factored out so `report server` can regenerate just this section.
/// Client count honors `PROVBENCH_CLIENTS` (default 8, minimum 2).
fn report_server(requests_per_client: usize) {
    use prov_server::{run_load, LoadConfig, ProvServer, ServerConfig};
    use std::sync::Arc;

    println!("## E18 — concurrent provenance server: closed-loop mixed load\n");
    let clients = std::env::var("PROVBENCH_CLIENTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(8)
        .max(2);
    let server = Arc::new(ProvServer::new(ServerConfig::default()));
    let config = LoadConfig {
        clients,
        requests_per_client,
        namespaces: vec!["physics".into(), "biology".into()],
        ingest_percent: 25,
        traced: false,
    };
    let report = run_load(&server, &config);
    println!(
        "{}",
        render_table(
            &[
                "clients",
                "requests",
                "ingests",
                "queries",
                "cache hits",
                "shed",
                "rps",
                "p50 (us)",
                "p99 (us)",
                "p999 (us)",
                "consistent"
            ],
            &[vec![
                report.clients.to_string(),
                report.requests.to_string(),
                report.ingests_acked.to_string(),
                report.queries_answered.to_string(),
                report.cache_hits.to_string(),
                report.backpressure.to_string(),
                format!("{:.0}", report.throughput_rps),
                report.p50_micros.to_string(),
                report.p99_micros.to_string(),
                report.p999_micros.to_string(),
                report.consistent.to_string(),
            ]],
        )
    );
    if !report.consistent {
        eprintln!("CONSISTENCY VIOLATIONS: {:?}", report.violations);
    }
    let json = report.render_json();
    match std::fs::write("BENCH_server.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_server.json"),
        Err(e) => eprintln!("could not write BENCH_server.json: {e}"),
    }
}

/// E19 measures what WAL durability costs: the closed-loop load generator
/// runs pure-ingest traffic against an in-memory server and against
/// WAL-backed servers under each fsync policy, and the per-policy
/// durable-ingest throughput + latency quantiles land in
/// `BENCH_durability.json`. Batch fsync is the shipping default; the
/// interesting number is its throughput as a fraction of in-memory.
fn report_durability(requests_per_client: usize) {
    use prov_server::{run_load, DurabilityConfig, LoadConfig, ProvServer, ServerConfig};
    use prov_store::wal::FsyncPolicy;
    use std::sync::Arc;

    println!("## E19 — durable ingest: WAL fsync policies vs in-memory\n");
    let clients = std::env::var("PROVBENCH_CLIENTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(8)
        .max(2);
    let config = LoadConfig {
        clients,
        requests_per_client,
        namespaces: vec!["physics".into(), "biology".into()],
        ingest_percent: 100,
        traced: false,
    };
    let scratch = std::env::temp_dir().join(format!("prov-bench-wal-{}", std::process::id()));

    let mut rows = Vec::new();
    let mut modes_json = Vec::new();
    let mut ingest_rps = std::collections::BTreeMap::new();
    let policies: [(&str, Option<FsyncPolicy>); 4] = [
        ("memory", None),
        ("always", Some(FsyncPolicy::Always)),
        ("batch", Some(FsyncPolicy::batch_default())),
        ("never", Some(FsyncPolicy::Never)),
    ];
    for (label, policy) in policies {
        let mut server_config = ServerConfig::default();
        if let Some(policy) = policy {
            let dir = scratch.join(label);
            std::fs::remove_dir_all(&dir).ok();
            server_config.durability = Some(DurabilityConfig::new(dir).fsync(policy));
        }
        let server = Arc::new(ProvServer::new(server_config));
        server.recover().expect("bench recovery");
        let report = run_load(&server, &config);
        let secs = report.wall_micros as f64 / 1e6;
        let rps = report.ingests_acked as f64 / secs.max(1e-9);
        ingest_rps.insert(label, rps);
        rows.push(vec![
            label.to_string(),
            report.ingests_acked.to_string(),
            format!("{rps:.0}"),
            report.p50_micros.to_string(),
            report.p99_micros.to_string(),
            report.consistent.to_string(),
        ]);
        if !report.consistent {
            eprintln!("[{label}] CONSISTENCY VIOLATIONS: {:?}", report.violations);
        }
        modes_json.push(format!(
            "{{\"fsync\":\"{label}\",\"ingests_acked\":{},\"wall_micros\":{},\"ingest_rps\":{rps:.1},\"latency_micros\":{{\"p50\":{},\"p99\":{},\"p999\":{}}},\"consistent\":{}}}",
            report.ingests_acked,
            report.wall_micros,
            report.p50_micros,
            report.p99_micros,
            report.p999_micros,
            report.consistent
        ));
    }
    std::fs::remove_dir_all(&scratch).ok();

    println!(
        "{}",
        render_table(
            &[
                "fsync",
                "ingests",
                "ingest rps",
                "p50 (us)",
                "p99 (us)",
                "consistent"
            ],
            &rows,
        )
    );
    // Two prices: what the WAL costs at all (entry encode, frame, resident
    // copy, write — against no log), and what the fsync *policy* costs on
    // top of that (against a WAL that never fsyncs). CI gates the second.
    let ratio = ingest_rps["batch"] / ingest_rps["memory"].max(1e-9);
    let policy_ratio = ingest_rps["batch"] / ingest_rps["never"].max(1e-9);
    println!(
        "\nbatch fsync sustains {:.0}% of in-memory and {:.0}% of never-fsync ingest throughput\n",
        ratio * 100.0,
        policy_ratio * 100.0
    );
    let json = format!(
        "{{\n  \"benchmark\": \"prov-server-durability\",\n  \"clients\": {clients},\n  \"requests_per_client\": {requests_per_client},\n  \"modes\": [\n    {}\n  ],\n  \"batch_vs_memory_ratio\": {ratio:.3},\n  \"batch_vs_never_ratio\": {policy_ratio:.3}\n}}\n",
        modes_json.join(",\n    ")
    );
    match std::fs::write("BENCH_durability.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_durability.json"),
        Err(e) => eprintln!("could not write BENCH_durability.json: {e}"),
    }
}

/// E20 measures what the observability plane costs: interleaved rounds of
/// the closed-loop load with the plane ON (traced clients + per-tenant
/// metric families) and OFF (untraced, global counters only), on fresh
/// servers each round so neither mode inherits warm state. The headline
/// number is `overhead_ratio` — observed throughput as a fraction of
/// baseline — which CI gates at >= 0.95 (<= 5% overhead). Lands in
/// `BENCH_observability.json`.
fn report_observability(requests_per_client: usize) {
    use prov_server::{run_load, LoadConfig, ProvServer, ServerConfig};
    use std::sync::Arc;

    println!("## E20 — observability plane: tracing + per-tenant metrics overhead\n");
    let clients = std::env::var("PROVBENCH_CLIENTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(8)
        .max(2);
    const ROUNDS: usize = 3;
    let mut rows = Vec::new();
    let mut baseline_rps = Vec::new();
    let mut observed_rps = Vec::new();
    let mut traces_recorded = 0usize;
    for round in 0..ROUNDS {
        // Interleave the modes inside each round so machine drift (turbo,
        // thermal, noisy neighbours) hits both sides evenly.
        for observed in [false, true] {
            let server = Arc::new(ProvServer::new(ServerConfig {
                per_tenant_metrics: observed,
                ..ServerConfig::default()
            }));
            let config = LoadConfig {
                clients,
                requests_per_client,
                namespaces: vec!["physics".into(), "biology".into()],
                ingest_percent: 25,
                traced: observed,
            };
            let report = run_load(&server, &config);
            if !report.consistent {
                eprintln!(
                    "[observability round {round}] CONSISTENCY VIOLATIONS: {:?}",
                    report.violations
                );
            }
            if observed {
                observed_rps.push(report.throughput_rps);
                traces_recorded = traces_recorded.max(server.trace_count());
            } else {
                baseline_rps.push(report.throughput_rps);
            }
            rows.push(vec![
                round.to_string(),
                if observed { "on" } else { "off" }.to_string(),
                format!("{:.0}", report.throughput_rps),
                report.p50_micros.to_string(),
                report.p99_micros.to_string(),
                report.consistent.to_string(),
            ]);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let base = mean(&baseline_rps);
    let obs = mean(&observed_rps);
    let overhead_ratio = obs / base.max(1e-9);
    println!(
        "{}",
        render_table(
            &[
                "round",
                "observability",
                "rps",
                "p50 (us)",
                "p99 (us)",
                "consistent"
            ],
            &rows,
        )
    );
    println!(
        "\nobservability plane sustains {:.1}% of baseline throughput \
         ({traces_recorded} traces recorded)\n",
        overhead_ratio * 100.0
    );
    let fmt_list = |v: &[f64]| {
        v.iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let json = format!(
        "{{\n  \"benchmark\": \"prov-server-observability\",\n  \"clients\": {clients},\n  \"requests_per_client\": {requests_per_client},\n  \"rounds\": {ROUNDS},\n  \"baseline_rps\": [{}],\n  \"observed_rps\": [{}],\n  \"baseline_mean_rps\": {base:.1},\n  \"observed_mean_rps\": {obs:.1},\n  \"traces_recorded\": {traces_recorded},\n  \"overhead_ratio\": {overhead_ratio:.4}\n}}\n",
        fmt_list(&baseline_rps),
        fmt_list(&observed_rps),
    );
    match std::fs::write("BENCH_observability.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_observability.json"),
        Err(e) => eprintln!("could not write BENCH_observability.json: {e}"),
    }
}

/// E22 prints its table and drops `BENCH_sharded.json` next to the
/// working directory. Factored out so `report sharded` can regenerate
/// just this section.
fn report_sharded(reps: usize) {
    println!("## E22 — sharded stores: scatter-gather PQL vs shard count\n");
    let (width, depth) = (384, 4);
    let (base_us, rows) = experiment_sharded(&[1, 2, 4, 8], width, depth, reps);
    println!(
        "corpus: {} docs ({} generations x {} executions); \
         unsharded filtered lineage baseline {:.1}us\n",
        width * depth,
        depth,
        width,
        base_us
    );
    println!(
        "{}",
        render_table(
            &[
                "shards",
                "eval (us)",
                "wall speedup",
                "scatter speedup",
                "rows",
                "stats exact"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.shards.to_string(),
                    format!("{:.1}", r.eval_us),
                    format!("{:.2}x", r.wall_speedup),
                    format!("{:.2}x", r.scatter_speedup),
                    r.rows.to_string(),
                    r.accesses_match.to_string(),
                ])
                .collect::<Vec<_>>(),
        )
    );
    let json = sharded_json(width, depth, base_us, &rows);
    match std::fs::write("BENCH_sharded.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_sharded.json"),
        Err(e) => eprintln!("could not write BENCH_sharded.json: {e}"),
    }
}

/// E21 prints its tables and drops `BENCH_distributed.json` next to the
/// working directory. Factored out so `report distributed` can regenerate
/// just this section.
fn report_distributed(reps: usize) {
    println!("## E21 — distributed capture: probe overhead and stitch throughput\n");
    let stitch = experiment_stitch(&[1, 2, 4, 8], reps);
    println!(
        "{}",
        render_table(
            &[
                "workers",
                "blobs",
                "entries",
                "hb edges",
                "stitch (us)",
                "entries/s",
                "complete"
            ],
            &stitch
                .iter()
                .map(|r| vec![
                    r.workers.to_string(),
                    r.blobs.to_string(),
                    r.entries.to_string(),
                    r.hb_edges.to_string(),
                    format!("{:.1}", r.stitch_us),
                    format!("{:.0}", r.entries_per_sec),
                    r.complete.to_string(),
                ])
                .collect::<Vec<_>>(),
        )
    );
    let overhead = experiment_probe_overhead(4, reps);
    println!(
        "probed driver sustains {:.1}% of unprobed throughput \
         ({} workers, {:.1}us vs {:.1}us)\n",
        overhead.throughput_ratio() * 100.0,
        overhead.workers,
        overhead.probed_us,
        overhead.unprobed_us
    );
    let json = distributed_json(&stitch, &overhead);
    match std::fs::write("BENCH_distributed.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_distributed.json"),
        Err(e) => eprintln!("could not write BENCH_distributed.json: {e}"),
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("sharded") {
        report_sharded(9);
        return;
    }
    if std::env::args().nth(1).as_deref() == Some("distributed") {
        report_distributed(21);
        return;
    }
    if std::env::args().nth(1).as_deref() == Some("server") {
        report_server(250);
        return;
    }
    if std::env::args().nth(1).as_deref() == Some("observability") {
        report_observability(250);
        return;
    }
    if std::env::args().nth(1).as_deref() == Some("durability") {
        report_durability(250);
        return;
    }
    if std::env::args().nth(1).as_deref() == Some("telemetry") {
        report_telemetry(21);
        return;
    }
    if std::env::args().nth(1).as_deref() == Some("query") {
        report_query(21);
        return;
    }
    if std::env::args().nth(1).as_deref() == Some("optimizer") {
        report_optimizer(21);
        return;
    }
    println!("# provenance-workflows experiment report\n");

    // ---- E1 ----------------------------------------------------------
    let r = experiment_fig1();
    println!("## E1 — Figure 1: the medical-imaging workflow\n");
    println!(
        "{}",
        render_table(
            &[
                "spec modules",
                "spec conns",
                "runs",
                "artifacts",
                "invalidated by bad scan",
                "iso repro slice"
            ],
            &[vec![
                r.spec_modules.to_string(),
                r.spec_connections.to_string(),
                r.runs.to_string(),
                r.artifacts.to_string(),
                r.invalidated.to_string(),
                r.iso_slice_len.to_string(),
            ]],
        )
    );

    // ---- E2 ----------------------------------------------------------
    println!("## E2 — Figure 2: refinement by analogy vs structural noise\n");
    let rows = experiment_analogy(&[0.0, 0.2, 0.4, 0.6, 0.8, 1.0], 20);
    println!(
        "{}",
        render_table(
            &[
                "noise",
                "clean transfer rate",
                "mean match score",
                "time (us)"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    format!("{:.1}", r.noise),
                    format!("{:.2}", r.clean_rate),
                    format!("{:.2}", r.mean_score),
                    format!("{:.0}", r.time_us),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // ---- E2b ---------------------------------------------------------
    println!("## E2b — ablation: neighbourhood refinement in the matcher\n");
    let rows = experiment_analogy_ablation(&[0, 1, 3, 5], 40);
    println!(
        "{}",
        render_table(
            &[
                "refinement iterations",
                "duplicate-match accuracy",
                "time (us)"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.iterations.to_string(),
                    format!("{:.2}", r.accuracy),
                    format!("{:.0}", r.time_us),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // ---- E3 ----------------------------------------------------------
    println!("## E3 — provenance capture overhead\n");
    let rows = experiment_capture_overhead(&[(8, 200), (8, 2000), (8, 20000), (32, 2000)], 9);
    println!(
        "{}",
        render_table(
            &[
                "chain",
                "work/module",
                "off (us)",
                "coarse (us)",
                "fine (us)",
                "fine overhead"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.chain_len.to_string(),
                    r.work.to_string(),
                    format!("{:.0}", r.off_us),
                    format!("{:.0}", r.coarse_us),
                    format!("{:.0}", r.fine_us),
                    format!("{:+.1}%", r.fine_overhead_pct()),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // ---- E4 ----------------------------------------------------------
    println!("## E4 — storage backends (corpus: 20 executions of 6x4 DAGs)\n");
    let corpus = storage_corpus(20, 6, 4);
    let rows = experiment_storage(&corpus, 7);
    println!(
        "{}",
        render_table(
            &[
                "backend",
                "ingest (us)",
                "approx bytes",
                "lineage query (us)",
                "aggregate (us)"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.backend.clone(),
                    format!("{:.0}", r.ingest_us),
                    r.bytes.to_string(),
                    format!("{:.1}", r.lineage_us),
                    format!("{:.1}", r.aggregate_us),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // ---- E4b ---------------------------------------------------------
    println!("## E4b — ablation: relational hash indexes on/off\n");
    let rows = experiment_index_ablation(&[5, 20, 80], 7);
    println!(
        "{}",
        render_table(
            &[
                "corpus (execs)",
                "indexed lineage (us)",
                "unindexed lineage (us)",
                "speedup"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.corpus.to_string(),
                    format!("{:.1}", r.indexed_us),
                    format!("{:.1}", r.unindexed_us),
                    format!("{:.1}x", r.speedup()),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // ---- E5 ----------------------------------------------------------
    println!("## E5 — lineage query latency vs provenance depth\n");
    let rows = experiment_query(&[8, 32, 128, 512], 7);
    println!(
        "{}",
        render_table(
            &[
                "depth",
                "PQL (us)",
                "graph store (us)",
                "relational joins (us)",
                "triple fixpoint (us)"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.depth.to_string(),
                    format!("{:.1}", r.pql_us),
                    format!("{:.1}", r.graph_us),
                    format!("{:.1}", r.relational_us),
                    format!("{:.1}", r.triple_us),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // ---- E6 ----------------------------------------------------------
    println!("## E6 — user views: overload reduction vs granularity\n");
    let rows = experiment_views(&[1, 2, 4, 8, 24]);
    println!(
        "{}",
        render_table(
            &[
                "groups",
                "base nodes",
                "viewed nodes",
                "hidden artifacts",
                "ratio"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.groups.to_string(),
                    r.base_nodes.to_string(),
                    r.viewed_nodes.to_string(),
                    r.hidden.to_string(),
                    format!("{:.2}", r.ratio()),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // ---- E7 ----------------------------------------------------------
    println!("## E7 — Provenance Challenge: integration coverage\n");
    let rows = experiment_challenge();
    println!(
        "{}",
        render_table(
            &[
                "configuration",
                "Q1 lineage processes",
                "all nine answerable"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.configuration.clone(),
                    r.q1_processes.to_string(),
                    r.all_nine.to_string(),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // ---- E8 ----------------------------------------------------------
    println!("## E8 — version materialization vs history depth\n");
    let rows = experiment_evolution(&[20, 70, 270, 1030], 7);
    println!(
        "{}",
        render_table(
            &[
                "depth",
                "replay (us)",
                "with snapshots (us)",
                "actions replayed",
                "with snapshots"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.depth.to_string(),
                    format!("{:.0}", r.replay_us),
                    format!("{:.0}", r.snapshot_us),
                    r.replay_actions.to_string(),
                    r.snapshot_actions.to_string(),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // ---- E9 ----------------------------------------------------------
    println!("## E9 — completion recommendation vs corpus size\n");
    let rows = experiment_mining(&[10, 30, 100], 5);
    println!(
        "{}",
        render_table(
            &["corpus", "hit@1", "hit@3", "mining time (us)"],
            &rows
                .iter()
                .map(|r| vec![
                    r.corpus.to_string(),
                    format!("{:.2}", r.hit1),
                    format!("{:.2}", r.hit3),
                    format!("{:.0}", r.mine_us),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // ---- E10 ---------------------------------------------------------
    println!("## E10 — parameter sweeps with provenance-based caching\n");
    let rows = experiment_sweep(&[4, 16, 64], 5);
    println!(
        "{}",
        render_table(
            &[
                "configs",
                "module runs (no cache)",
                "module runs (cache)",
                "no cache (us)",
                "cache (us)",
                "speedup"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.configs.to_string(),
                    r.runs_uncached.to_string(),
                    r.runs_cached.to_string(),
                    format!("{:.0}", r.uncached_us),
                    format!("{:.0}", r.cached_us),
                    format!("{:.1}x", r.speedup()),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // ---- E11 ---------------------------------------------------------
    println!("## E11 — reproducibility fidelity\n");
    let rows = experiment_repro();
    println!(
        "{}",
        render_table(
            &["scenario", "artifacts", "matched", "fidelity"],
            &rows
                .iter()
                .map(|r| vec![
                    r.scenario.clone(),
                    r.artifacts.to_string(),
                    r.matched.to_string(),
                    format!("{:.2}", r.fidelity),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // ---- E12 ---------------------------------------------------------
    println!("## E12 — row-level vs module-level invalidation precision\n");
    let rows = experiment_finegrained(&[16, 64, 256], 7);
    println!(
        "{}",
        render_table(
            &[
                "source rows",
                "groups",
                "row-level taint",
                "module-level taint",
                "trace (us)"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.source_rows.to_string(),
                    r.groups.to_string(),
                    format!("{:.2}", r.row_level_taint),
                    format!("{:.2}", r.module_level_taint),
                    format!("{:.1}", r.trace_us),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // ---- E13 ---------------------------------------------------------
    println!("## E13 — retry recovery under injected transient faults\n");
    let rows = experiment_faults(&[1, 2, 3, 4, 5], 5);
    println!(
        "{}",
        render_table(
            &[
                "seed",
                "injected",
                "status",
                "retried runs",
                "backoff (us)",
                "clean (us)",
                "faulty (us)",
                "overhead %"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.seed.to_string(),
                    r.injected.to_string(),
                    r.status.clone(),
                    r.retried_runs.to_string(),
                    r.backoff_us.to_string(),
                    format!("{:.1}", r.clean_us),
                    format!("{:.1}", r.faulty_us),
                    format!("{:.1}", r.overhead_pct()),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // ---- E14 ---------------------------------------------------------
    println!("## E14 — checkpoint resume after a permanent fault\n");
    let rows = experiment_resume(&[4, 6, 8]);
    println!(
        "{}",
        render_table(
            &[
                "depth",
                "modules",
                "reused",
                "re-executed",
                "recovered",
                "lineage valid"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.depth.to_string(),
                    r.modules.to_string(),
                    r.reused.to_string(),
                    r.reexecuted.to_string(),
                    r.recovered.to_string(),
                    r.valid.to_string(),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // ---- E15 ---------------------------------------------------------
    report_telemetry(21);

    // ---- E16 ---------------------------------------------------------
    report_query(21);

    // ---- E17 ---------------------------------------------------------
    report_optimizer(21);

    // ---- E18 ---------------------------------------------------------
    report_server(250);

    // ---- E19 ---------------------------------------------------------
    report_durability(250);

    // ---- E20 ---------------------------------------------------------
    report_observability(250);

    // ---- E21 ---------------------------------------------------------
    report_distributed(21);

    // ---- E22 ---------------------------------------------------------
    report_sharded(9);
}
