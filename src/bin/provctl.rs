//! `provctl` — the command-line face of the platform.
//!
//! §2.4: "Information management systems are notoriously hard to use … As
//! the need for these systems grows … usability is of paramount
//! importance." This tool makes every capability reachable from a shell
//! over plain JSON files:
//!
//! ```text
//! provctl demo fig1 wf.json            # write a demo workflow spec
//! provctl validate wf.json             # check the spec against the catalog
//! provctl recipe wf.json               # render prospective provenance
//! provctl run wf.json prov.json        # execute, capture retrospective provenance
//! provctl run wf.json prov.json retries=2 timeout_ms=500   # with fault tolerance
//! provctl resumecheck old.json new.json # validate recovery lineage
//! provctl log prov.json                # render the execution log
//! provctl query prov.json "count runs" # PQL over captured provenance
//! provctl explain prov.json "lineage of artifact <digest>" analyze   # EXPLAIN / ANALYZE
//! provctl explain prov.json "count runs" analyze --optimized   # cost-based rewrites + indexes
//! provctl slowlog prov.json threshold_us=100   # slow-query log over a canned workload
//! provctl lineage prov.json <digest>   # lineage of an artifact
//! provctl dot prov.json                # causality graph as Graphviz DOT
//! provctl profile prov.json            # self time, critical path, utilization
//! provctl verify wf.json prov.json     # repeatability check
//! provctl trace wf.json trace.json     # run with telemetry, export Chrome trace
//! provctl tracecheck trace.json        # validate a Chrome trace file
//! provctl metrics wf.json              # run and print Prometheus metrics
//! provctl serve 127.0.0.1:7077         # long-running multi-tenant provenance server
//! provctl client 127.0.0.1:7077 ingest lab prov.json   # ship provenance to a server
//! provctl client 127.0.0.1:7077 query lab "count runs" # PQL against a server
//! ```

use provenance_workflows::prelude::*;
use provenance_workflows::telemetry;
use std::io::Write;
use std::process::ExitCode;

/// Print to stdout, exiting quietly on a broken pipe (e.g. `provctl … | head`).
fn out(text: &str) {
    let mut stdout = std::io::stdout().lock();
    let wrote = stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush());
    if let Err(e) = wrote {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: provctl <command> [args]\n\
         commands:\n\
         \x20 demo <fig1|fig2|challenge|db> <out.json>   write a demo workflow\n\
         \x20 validate <wf.json>                         validate against the standard catalog\n\
         \x20 recipe   <wf.json>                         render prospective provenance\n\
         \x20 run      <wf.json> <prov.json> [fine|coarse]\n\
         \x20          [retries=N] [timeout_ms=N]          execute and capture\n\
         \x20 resumecheck <original.json> <resumed.json>   validate recovery lineage\n\
         \x20 log      <prov.json>                       render the execution log\n\
         \x20 query    <prov.json...> [shards=N] <pql>   evaluate a PQL query (sharded when\n\
         \x20                                             shards=N, result-identical)\n\
         \x20 explain  <prov.json...> <pql> [analyze] [--optimized] [shards=N]\n\
         \x20          [backend=graph|triple|relational|log]  show the logical plan; with\n\
         \x20                                             'analyze', execute and annotate each\n\
         \x20                                             operator with rows/time/store accesses;\n\
         \x20                                             with '--optimized', apply cost-based\n\
         \x20                                             rewrites / the backend's index paths\n\
         \x20 slowlog  <prov.json...> [threshold_us=N] [out=<file.jsonl>]\n\
         \x20                                             run the canned query workload on every\n\
         \x20                                             backend, dump the slow-query log\n\
         \x20 lineage  <prov.json> <artifact-digest>     lineage of an artifact\n\
         \x20 dot      <prov.json>                       causality graph as DOT\n\
         \x20 wfdot    <wf.json>                         workflow spec as DOT\n\
         \x20 profile  <prov.json> [top=N]               self time, critical path, utilization\n\
         \x20 verify   <wf.json> <prov.json>             repeatability check\n\
         \x20 trace    <wf.json> <trace.json>\n\
         \x20          [spans=<file>] [threads=N]          run with telemetry, export Chrome trace\n\
         \x20 tracecheck <trace.json>                    validate a Chrome trace file\n\
         \x20 capture  <wf.json> <blob_dir> [workers=N] [ring=N]\n\
         \x20          [trace=<32hex|auto>] [unprobed]     run across simulated sites; each site's\n\
         \x20                                             probe log lands in <blob_dir>/site<i>.prb\n\
         \x20 stitch   <blob_dir|blob.prb...> [out=<prov.json>]\n\
         \x20                                             reassemble site reports (any order) into\n\
         \x20                                             one provenance record; prints gaps and\n\
         \x20                                             cross-site happens-before edges\n\
         \x20 metrics  <wf.json> [threads=N]             run and print Prometheus metrics\n\
         \x20 serve    <addr> [workers=N] [max_inflight=N]\n\
         \x20          [rate_per_sec=F] [burst=N]          serve ingest + PQL over HTTP/JSON\n\
         \x20          [shards=N]                          partition each namespace N ways and\n\
         \x20                                             answer queries by scatter-gather\n\
         \x20          [data_dir=DIR] [fsync=always|batch[:N[:US]]|never]\n\
         \x20          [checkpoint_every=N]                with data_dir, every acked ingest is\n\
         \x20                                             WAL-durable and replayed on restart;\n\
         \x20                                             the log is compacted once its tail has\n\
         \x20                                             N records and as many as the snapshot\n\
         \x20                                             (blocks; stop with 'client ... shutdown')\n\
         \x20          [slowlog_capacity=N] [slowlog_threshold_us=N]\n\
         \x20          [trace_capacity=N] [shed_first=N]    observability knobs: slow-query ring\n\
         \x20                                             size/threshold, bounded trace store,\n\
         \x20                                             deterministic 503s for retry drills\n\
         \x20 recover  <data_dir>                        replay namespace WALs offline and report\n\
         \x20 client   <addr> <op> [args] [tenant=NAME] [traced]\n\
         \x20          [retries=N] [seed=N] [request_id=ID] talk to a running server; ops:\n\
         \x20          create <namespace>                  create a namespace\n\
         \x20          ingest <namespace> <prov.json...>   ship provenance documents\n\
         \x20          query  <namespace> <pql>            evaluate PQL remotely\n\
         \x20          stats  <namespace>                  namespace statistics\n\
         \x20          trace  <trace_id>                   fetch a recorded span tree\n\
         \x20          slowlog <namespace>                 fetch the slow-query log (JSONL)\n\
         \x20          health | metrics | shutdown         server-level operations\n\
         \x20          ('traced' propagates a W3C traceparent and prints the trace id)"
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn load_workflow(path: &str) -> Result<Workflow, String> {
    Workflow::from_json(&read(path)?).map_err(|e| format!("bad workflow in {path}: {e}"))
}

fn load_prov(path: &str) -> Result<RetrospectiveProvenance, String> {
    let text = read(path)?;
    // Try the serde-free wire format first (written by `stitch out=` and
    // spoken by the server), then the serde at-rest format from `run`.
    if let Ok(v) = telemetry::parse_json(&text) {
        if let Ok(retro) = prov_server::wire::retro_from_json(&v) {
            return Ok(retro);
        }
    }
    RetrospectiveProvenance::from_json(&text).map_err(|e| format!("bad provenance in {path}: {e}"))
}

/// An empty store backend by name (the log backend is ephemeral — the
/// CLI workload exercises its scan profile, not its on-disk framing).
fn make_store(name: &str) -> Result<Box<dyn ProvenanceStore>, String> {
    Ok(match name {
        "graph" => Box::new(GraphStore::new()),
        "triple" => Box::new(TripleStore::new()),
        "relational" | "rel" => Box::new(RelStore::new()),
        "log" => Box::new(LogStore::ephemeral()),
        other => {
            return Err(format!(
                "unknown backend '{other}' (expected graph|triple|relational|log)"
            ))
        }
    })
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.as_slice() {
        ["demo", which, out] => {
            let wf = match *which {
                "fig1" => wf_engine::synth::figure1_workflow(1).0,
                "fig2" => provenance_workflows::evolution::scenario::figure2_triple().2,
                "challenge" => wf_engine::synth::challenge_workflow(1, 4, 3),
                "db" => {
                    let mut b = WorkflowBuilder::new(1, "db-demo");
                    let a = b.add("TableSource");
                    b.param(a, "rows", 16i64);
                    let f = b.add("TableFilter");
                    b.param(f, "min", 40.0f64);
                    let g = b.add("TableAggregate");
                    b.connect(a, "out", f, "in").connect(f, "out", g, "in");
                    b.build()
                }
                other => return Err(format!("unknown demo '{other}'")),
            };
            std::fs::write(out, wf.to_json().map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            println!(
                "wrote {out}: '{}' ({} modules, {} connections)",
                wf.name,
                wf.node_count(),
                wf.conn_count()
            );
            Ok(())
        }
        ["validate", path] => {
            let wf = load_workflow(path)?;
            let registry = standard_registry();
            let report = validate(&wf, registry.catalog());
            if report.is_valid() {
                println!("{path}: valid ({} modules)", wf.node_count());
                Ok(())
            } else {
                Err(format!("{path}: INVALID\n{}", report.render()))
            }
        }
        ["recipe", path] => {
            let wf = load_workflow(path)?;
            out(&provenance_workflows::provenance::ProspectiveProvenance::of(&wf).render_recipe());
            Ok(())
        }
        ["run", wf_path, prov_path, rest @ ..] => {
            // Parse options before touching the filesystem so bad
            // arguments fail fast with a usage error.
            let mut level = CaptureLevel::Fine;
            let mut policy = ExecPolicy::new();
            for opt in rest {
                match *opt {
                    "fine" => level = CaptureLevel::Fine,
                    "coarse" => level = CaptureLevel::Coarse,
                    _ => {
                        let (key, value) = opt
                            .split_once('=')
                            .ok_or_else(|| format!("unknown run option '{opt}'"))?;
                        let n: u64 = value
                            .parse()
                            .map_err(|_| format!("{key} needs an integer, got '{value}'"))?;
                        policy = match key {
                            "retries" => {
                                // Bound the value so `attempts` (retries + 1)
                                // cannot overflow or sit in a pathological loop.
                                if n > 1_000 {
                                    return Err(format!("retries must be 0-1000, got {n}"));
                                }
                                policy.with_retry(
                                    RetryPolicy::attempts(n as u32 + 1)
                                        .backoff(10_000, 2.0, 1_000_000),
                                )
                            }
                            "timeout_ms" => policy.with_deadline(Deadline::millis(n)),
                            other => return Err(format!("unknown run option '{other}'")),
                        };
                    }
                }
            }
            let wf = load_workflow(wf_path)?;
            let exec = Executor::new(standard_registry()).with_policy(policy);
            let mut cap = ProvenanceCapture::new(level);
            let result = exec
                .run_observed(&wf, &mut cap)
                .map_err(|e| e.to_string())?;
            let retro = cap
                .take(result.exec)
                .ok_or_else(|| "capture produced no record".to_string())?;
            std::fs::write(prov_path, retro.to_json().map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            println!(
                "{}: {} ({} module runs, {} artifacts) -> {prov_path}",
                wf.name,
                retro.status,
                retro.run_count(),
                retro.artifacts.len()
            );
            if retro.status != RunStatus::Succeeded {
                return Err("workflow failed (provenance captured)".into());
            }
            Ok(())
        }
        ["resumecheck", original_path, resumed_path] => {
            let original = load_prov(original_path)?;
            let resumed = load_prov(resumed_path)?;
            let check = check_resume(&original, &resumed);
            println!(
                "links back: {}\nreused outputs consistent: {}\nrecovered nodes: {}",
                check.links_back,
                check.reused_consistent,
                if check.recovered.is_empty() {
                    "none".to_string()
                } else {
                    check
                        .recovered
                        .iter()
                        .map(|n| n.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                }
            );
            if check.is_valid() {
                Ok(())
            } else {
                Err("resumed record is not a valid recovery of the original".into())
            }
        }
        ["log", path] => {
            out(&load_prov(path)?.render_log());
            Ok(())
        }
        ["query", middle @ .., pql] if !middle.is_empty() => {
            let mut shards = 1usize;
            let mut files: Vec<&str> = Vec::new();
            for a in middle {
                if let Some(v) = a.strip_prefix("shards=") {
                    shards = v
                        .parse()
                        .map_err(|_| format!("shards needs an integer, got '{v}'"))?;
                } else {
                    files.push(a);
                }
            }
            let result = if shards > 1 {
                let mut engine = ShardedEngine::new(shards);
                for p in &files {
                    engine.ingest(&load_prov(p)?);
                }
                engine.eval(pql).map_err(|e| e.to_string())?
            } else {
                let mut engine = PqlEngine::new();
                for p in &files {
                    engine.ingest(&load_prov(p)?);
                }
                engine.eval(pql).map_err(|e| e.to_string())?
            };
            out(&format!("{}\n", result.render()));
            Ok(())
        }
        ["explain", rest @ ..] => {
            // Positional args: provenance files then the query; options
            // ('analyze', '--optimized', 'backend=...') may follow the query.
            let mut analyze_mode = false;
            let mut optimized = false;
            let mut backend: Option<&str> = None;
            let mut shards = 1usize;
            let mut positional: Vec<&str> = Vec::new();
            for a in rest {
                match *a {
                    "analyze" => analyze_mode = true,
                    "--optimized" | "optimized" => optimized = true,
                    _ if a.starts_with("backend=") => backend = Some(&a["backend=".len()..]),
                    _ if a.starts_with("shards=") => {
                        shards = a["shards=".len()..]
                            .parse()
                            .map_err(|_| format!("shards needs an integer, got '{a}'"))?
                    }
                    _ => positional.push(a),
                }
            }
            let (pql, files) = positional.split_last().ok_or(
                "usage: explain <prov.json...> <pql> [analyze] [--optimized] [backend=...] [shards=N]",
            )?;
            if shards > 1 && backend.is_some() {
                return Err("shards= applies to the native engine (drop backend=)".into());
            }
            let query = parse_pql(pql).map_err(|e| e.to_string())?;
            match backend {
                None if !analyze_mode => {
                    if shards > 1 {
                        let mut engine = ShardedEngine::new(shards);
                        for p in files {
                            engine.ingest(&load_prov(p)?);
                        }
                        if optimized {
                            out(&engine.optimize(&query).render());
                        } else {
                            out(&engine.plan(&query).render());
                        }
                    } else if optimized {
                        // Cost decisions read the engine's statistics, so
                        // ingest whatever provenance was given (none is
                        // fine: structural rewrites still show).
                        let mut engine = PqlEngine::new();
                        for p in files {
                            engine.ingest(&load_prov(p)?);
                        }
                        out(&optimize_pql(&engine, &query).render());
                    } else {
                        out(&Plan::of(&query).render());
                    }
                }
                None => {
                    if files.is_empty() {
                        return Err("explain analyze needs at least one prov.json".into());
                    }
                    let analysis = if shards > 1 {
                        let mut engine = ShardedEngine::new(shards);
                        for p in files {
                            engine.ingest(&load_prov(p)?);
                        }
                        if optimized {
                            engine.analyze_optimized(&query)
                        } else {
                            engine.analyze(&query)
                        }
                    } else {
                        let mut engine = PqlEngine::new();
                        for p in files {
                            engine.ingest(&load_prov(p)?);
                        }
                        if optimized {
                            analyze_optimized(&engine, &query)
                        } else {
                            analyze(&engine, &query)
                        }
                    };
                    out(&analysis.map_err(|e| e.to_string())?.render());
                }
                Some(name) => {
                    if files.is_empty() {
                        return Err("explain backend=... needs at least one prov.json".into());
                    }
                    let mut store = make_store(name)?;
                    for p in files {
                        store.ingest(&load_prov(p)?);
                    }
                    store.set_optimized(optimized);
                    out(&analyze_store(store.as_ref(), &query)
                        .map_err(|e| e.to_string())?
                        .render());
                }
            }
            Ok(())
        }
        ["slowlog", rest @ ..] => {
            let mut threshold_us = 0u64;
            let mut out_path: Option<&str> = None;
            let mut files: Vec<&str> = Vec::new();
            for a in rest {
                if let Some(v) = a.strip_prefix("threshold_us=") {
                    threshold_us = v
                        .parse()
                        .map_err(|_| format!("threshold_us needs an integer, got '{v}'"))?;
                } else if let Some(v) = a.strip_prefix("out=") {
                    out_path = Some(v);
                } else {
                    files.push(a);
                }
            }
            if files.is_empty() {
                return Err("usage: slowlog <prov.json...> [threshold_us=N] [out=<file>]".into());
            }
            let mut engine = PqlEngine::new();
            let mut retros = Vec::new();
            for p in &files {
                let retro = load_prov(p)?;
                engine.ingest(&retro);
                retros.push(retro);
            }
            let mut obs = QueryObserver::new().with_slowlog(threshold_us, 256);
            // The canned workload: the Provenance Challenge question shapes
            // over the first few artifacts, on the engine and every backend.
            let digests: Vec<String> = retros
                .iter()
                .flat_map(|r| r.artifacts.values())
                .take(4)
                .map(|a| a.digest())
                .collect();
            let mut engine_queries = vec!["count runs".to_string(), "list runs".to_string()];
            for d in &digests {
                engine_queries.push(format!("lineage of artifact {d}"));
                engine_queries.push(format!("impact of artifact {d}"));
            }
            for q in &engine_queries {
                let parsed = parse_pql(q).map_err(|e| e.to_string())?;
                obs.eval_observed(&engine, &parsed)
                    .map_err(|e| e.to_string())?;
            }
            for name in ["graph", "triple", "relational", "log"] {
                let mut store = make_store(name)?;
                for r in &retros {
                    store.ingest(r);
                }
                let mut store_queries = vec!["count runs".to_string()];
                for d in &digests {
                    store_queries.push(format!("lineage of artifact {d}"));
                    store_queries.push(format!("lineage of artifact {d} depth 1"));
                    store_queries.push(format!("impact of artifact {d}"));
                }
                for q in &store_queries {
                    let parsed = parse_pql(q).map_err(|e| e.to_string())?;
                    obs.eval_store_observed(store.as_ref(), name, &parsed)
                        .map_err(|e| e.to_string())?;
                }
            }
            out(&obs.slowlog.render());
            if let Some(p) = out_path {
                // Cap the dump so a huge ring never writes an unbounded
                // file; newest entries win within the byte budget.
                let jsonl = obs.slowlog.to_jsonl_capped(prov_query::DEFAULT_JSONL_CAP);
                std::fs::write(p, jsonl).map_err(|e| e.to_string())?;
                println!("slow-query log (JSONL) -> {p}");
            }
            Ok(())
        }
        ["lineage", path, digest] => {
            let retro = load_prov(path)?;
            let mut engine = PqlEngine::new();
            engine.ingest(&retro);
            let result = engine
                .eval(&format!("lineage of artifact {digest}"))
                .map_err(|e| e.to_string())?;
            out(&format!("{}\n", result.render()));
            Ok(())
        }
        ["wfdot", path] => {
            let wf = load_workflow(path)?;
            out(&wf.render_dot());
            Ok(())
        }
        ["dot", path] => {
            let retro = load_prov(path)?;
            out(&CausalityGraph::from_retrospective(&retro).render_dot());
            Ok(())
        }
        ["profile", path, rest @ ..] => {
            let mut top = 5usize;
            for opt in rest {
                let (key, value) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("unknown profile option '{opt}'"))?;
                match key {
                    "top" => {
                        top = value
                            .parse()
                            .map_err(|_| format!("top needs an integer, got '{value}'"))?
                    }
                    other => return Err(format!("unknown profile option '{other}'")),
                }
            }
            let retro = load_prov(path)?;
            out(&profile_retro(&retro).render(top));
            Ok(())
        }
        ["trace", wf_path, trace_path, rest @ ..] => {
            let wf = load_workflow(wf_path)?;
            let mut threads = 1usize;
            let mut spans_path: Option<&str> = None;
            for opt in rest {
                let (key, value) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("unknown trace option '{opt}'"))?;
                match key {
                    "threads" => {
                        threads = value
                            .parse()
                            .map_err(|_| format!("threads needs an integer, got '{value}'"))?
                    }
                    "spans" => spans_path = Some(value),
                    other => return Err(format!("unknown trace option '{other}'")),
                }
            }
            // Telemetry rides alongside provenance capture on one fan-out:
            // the run is observed once, consumed twice.
            let exec = Executor::new(standard_registry());
            let mut tel = Telemetry::new();
            let mut cap = ProvenanceCapture::new(CaptureLevel::Coarse).with_threads(threads);
            let result = {
                let mut fan = FanoutObserver::new().with(&mut tel).with(&mut cap);
                if threads > 1 {
                    exec.run_parallel(&wf, threads, &mut fan)
                } else {
                    exec.run_observed(&wf, &mut fan)
                }
                .map_err(|e| e.to_string())?
            };
            let trace = tel.take_trace();
            let json = telemetry::chrome_trace_json(&trace);
            let events = telemetry::validate_chrome_trace(&json)?;
            std::fs::write(trace_path, &json).map_err(|e| e.to_string())?;
            if let Some(p) = spans_path {
                std::fs::write(p, telemetry::spans_jsonl(&trace)).map_err(|e| e.to_string())?;
            }
            let profile = profile_result(&result, &wf, threads);
            println!(
                "{}: {} ({} spans -> {trace_path}{})",
                wf.name,
                result.status,
                events,
                spans_path
                    .map(|p| format!(", span log -> {p}"))
                    .unwrap_or_default(),
            );
            println!(
                "wall {} us, work {} us, critical {} us, speedup {:.2}x, utilization {:.0}%",
                profile.wall_micros,
                profile.total_work_micros,
                profile.critical_micros,
                profile.speedup(),
                profile.utilization() * 100.0,
            );
            Ok(())
        }
        ["tracecheck", path] => {
            let events = telemetry::validate_chrome_trace(&read(path)?)?;
            println!("{path}: valid Chrome trace ({events} events)");
            Ok(())
        }
        ["capture", wf_path, blob_dir, rest @ ..] => {
            let mut workers = 4usize;
            let mut ring = provenance_workflows::probe::DEFAULT_RING_CAPACITY;
            let mut trace_id: u128 = 0;
            let mut probed = true;
            for opt in rest {
                if *opt == "unprobed" {
                    probed = false;
                    continue;
                }
                let (key, value) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("unknown capture option '{opt}'"))?;
                match key {
                    "workers" => {
                        workers = value
                            .parse()
                            .map_err(|_| format!("workers needs an integer, got '{value}'"))?
                    }
                    "ring" => {
                        ring = value
                            .parse()
                            .map_err(|_| format!("ring needs an integer, got '{value}'"))?
                    }
                    "trace" => {
                        trace_id = if value == "auto" {
                            telemetry::TraceContext::root(workers as u64, 1).trace_id
                        } else {
                            telemetry::TraceContext::parse_trace_id(value)
                                .map_err(|e| e.to_string())?
                        }
                    }
                    other => return Err(format!("unknown capture option '{other}'")),
                }
            }
            // Built-in names keep the distributed smoke path free of the
            // JSON workflow loader; any other argument is a file path.
            let wf = match *wf_path {
                "fig1" => provenance_workflows::engine::synth::figure1_workflow(1).0,
                "challenge" => provenance_workflows::engine::synth::challenge_workflow(1, 3, 2),
                path => load_workflow(path)?,
            };
            let exec = Executor::new(standard_registry());
            let mut opts = DistribOptions::new(workers)
                .with_ring_capacity(ring)
                .with_trace_id(trace_id);
            if !probed {
                opts = opts.unprobed();
            }
            let dist = exec.run_distributed(&wf, opts).map_err(|e| e.to_string())?;
            std::fs::create_dir_all(blob_dir).map_err(|e| e.to_string())?;
            for r in &dist.reports {
                let path = format!("{blob_dir}/site{}.prb", r.probe.0);
                std::fs::write(&path, r.encode()).map_err(|e| e.to_string())?;
            }
            println!(
                "{}: {} ({} modules across {} sites, {} report blobs) -> {blob_dir}",
                wf.name,
                dist.result.status,
                wf.node_count(),
                workers,
                dist.reports.len()
            );
            if trace_id != 0 {
                println!("trace {trace_id:032x}");
            }
            if dist.result.status != RunStatus::Succeeded {
                return Err("workflow failed (reports captured)".into());
            }
            Ok(())
        }
        ["stitch", rest @ ..] if !rest.is_empty() => {
            let mut blob_paths: Vec<String> = Vec::new();
            let mut out_path: Option<&str> = None;
            for opt in rest {
                if let Some(v) = opt.strip_prefix("out=") {
                    out_path = Some(v);
                    continue;
                }
                let meta = std::fs::metadata(opt).map_err(|e| format!("cannot stat {opt}: {e}"))?;
                if meta.is_dir() {
                    let mut found = Vec::new();
                    for entry in
                        std::fs::read_dir(opt).map_err(|e| format!("cannot list {opt}: {e}"))?
                    {
                        let p = entry.map_err(|e| e.to_string())?.path();
                        if p.extension().and_then(|e| e.to_str()) == Some("prb") {
                            found.push(p.to_string_lossy().into_owned());
                        }
                    }
                    found.sort();
                    if found.is_empty() {
                        return Err(format!("{opt}: no .prb report blobs"));
                    }
                    blob_paths.extend(found);
                } else {
                    blob_paths.push((*opt).to_string());
                }
            }
            if blob_paths.is_empty() {
                return Err("usage: stitch <blob_dir|blob.prb...> [out=<prov.json>]".into());
            }
            let mut collector = provenance_workflows::probe::Collector::new();
            for p in &blob_paths {
                let bytes = std::fs::read(p).map_err(|e| format!("cannot read {p}: {e}"))?;
                if let Err(e) = collector.ingest_blob(&bytes) {
                    eprintln!("{p}: {e} (ignored)");
                }
            }
            let stitched = collector.stitch();
            let sp = provenance_workflows::provenance::stitch_provenance(&stitched);
            println!(
                "stitched {} sites, {} log entries, {} duplicates, {} conflicts",
                collector.probe_count(),
                collector.entry_count(),
                sp.duplicates,
                sp.conflicts
            );
            for gap in &sp.gaps {
                println!("gap: {gap}");
            }
            out(&sp.render_hb());
            if let Some(t) = sp.trace_id {
                println!("trace {t:032x}");
            }
            let Some(retro) = sp.retro() else {
                return Err("stitch recovered no complete run record".into());
            };
            println!(
                "{}: {} ({} module runs, {} artifacts)",
                retro.workflow_name,
                retro.status,
                retro.run_count(),
                retro.artifacts.len()
            );
            if let Some(out_path) = out_path {
                let json = prov_server::wire::render_json(&prov_server::wire::retro_to_json(retro));
                std::fs::write(out_path, json).map_err(|e| e.to_string())?;
                println!("stitched provenance -> {out_path}");
            }
            Ok(())
        }
        ["metrics", wf_path, rest @ ..] => {
            let wf = load_workflow(wf_path)?;
            let mut threads = 1usize;
            for opt in rest {
                let (key, value) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("unknown metrics option '{opt}'"))?;
                match key {
                    "threads" => {
                        threads = value
                            .parse()
                            .map_err(|_| format!("threads needs an integer, got '{value}'"))?
                    }
                    other => return Err(format!("unknown metrics option '{other}'")),
                }
            }
            let exec = Executor::new(standard_registry()).with_cache(256);
            let mut m = MetricsObserver::new();
            if threads > 1 {
                exec.run_parallel(&wf, threads, &mut m)
            } else {
                exec.run_observed(&wf, &mut m)
            }
            .map_err(|e| e.to_string())?;
            out(&m.render_prometheus());
            Ok(())
        }
        ["verify", wf_path, prov_path] => {
            let wf = load_workflow(wf_path)?;
            let retro = load_prov(prov_path)?;
            let exec = Executor::new(standard_registry());
            let report =
                provenance_workflows::provenance::repro::verify_reproduction(&exec, &wf, &retro)
                    .map_err(|e| e.to_string())?;
            println!("{report}");
            if report.is_exact() {
                Ok(())
            } else {
                for m in report.mismatches() {
                    eprintln!(
                        "  mismatch at {}.{}: recorded {:016x}, got {}",
                        m.node,
                        m.port,
                        m.expected,
                        m.actual
                            .map(|h| format!("{h:016x}"))
                            .unwrap_or_else(|| "<missing>".into())
                    );
                }
                Err("reproduction failed".into())
            }
        }
        ["serve", addr, rest @ ..] => {
            let mut config = prov_server::ServerConfig::default();
            let mut workers = 8usize;
            for opt in rest {
                let (key, value) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("unknown serve option '{opt}'"))?;
                match key {
                    "workers" => {
                        workers = value
                            .parse()
                            .map_err(|_| format!("workers needs an integer, got '{value}'"))?
                    }
                    "max_inflight" => {
                        config.max_inflight = value
                            .parse()
                            .map_err(|_| format!("max_inflight needs an integer, got '{value}'"))?
                    }
                    "rate_per_sec" => {
                        config.tenant_rate_per_sec = value
                            .parse()
                            .map_err(|_| format!("rate_per_sec needs a number, got '{value}'"))?
                    }
                    "burst" => {
                        config.tenant_burst = value
                            .parse()
                            .map_err(|_| format!("burst needs an integer, got '{value}'"))?
                    }
                    "shards" => {
                        config.shards = value
                            .parse()
                            .map_err(|_| format!("shards needs an integer, got '{value}'"))?
                    }
                    "data_dir" => {
                        let dur = config
                            .durability
                            .take()
                            .unwrap_or_else(|| prov_server::DurabilityConfig::new(value));
                        config.durability = Some(prov_server::DurabilityConfig {
                            data_dir: value.into(),
                            ..dur
                        });
                    }
                    "fsync" => {
                        let policy = prov_store::wal::FsyncPolicy::parse(value)
                            .map_err(|e| format!("bad fsync policy '{value}': {e}"))?;
                        let dur = config.durability.ok_or_else(|| {
                            "fsync= requires data_dir= (give data_dir first)".to_string()
                        })?;
                        config.durability = Some(dur.fsync(policy));
                    }
                    "checkpoint_every" => {
                        let every: u64 = value.parse().map_err(|_| {
                            format!("checkpoint_every needs an integer, got '{value}'")
                        })?;
                        let dur = config.durability.ok_or_else(|| {
                            "checkpoint_every= requires data_dir= (give data_dir first)".to_string()
                        })?;
                        config.durability = Some(dur.checkpoint_every(every));
                    }
                    "slowlog_capacity" => {
                        config.slowlog_capacity = value.parse().map_err(|_| {
                            format!("slowlog_capacity needs an integer, got '{value}'")
                        })?
                    }
                    "slowlog_threshold_us" => {
                        config.slowlog_threshold_micros = value.parse().map_err(|_| {
                            format!("slowlog_threshold_us needs an integer, got '{value}'")
                        })?
                    }
                    "trace_capacity" => {
                        config.trace_capacity = value.parse().map_err(|_| {
                            format!("trace_capacity needs an integer, got '{value}'")
                        })?
                    }
                    "shed_first" => {
                        // Deterministic fault hook: shed the first N API
                        // requests with 503, so retry/trace behaviour can
                        // be exercised without a real overload.
                        config.shed_first = value
                            .parse()
                            .map_err(|_| format!("shed_first needs an integer, got '{value}'"))?
                    }
                    other => return Err(format!("unknown serve option '{other}'")),
                }
            }
            let durable = config.durability.is_some();
            let server = std::sync::Arc::new(prov_server::ProvServer::new(config));
            if durable {
                // Replay WALs before accepting traffic; until this
                // finishes the server answers 503 not_ready.
                let reports = server
                    .recover()
                    .map_err(|e| format!("recovery failed: {e}"))?;
                for r in &reports {
                    out(&format!("recovered {}\n", r.render()));
                }
            }
            let http = prov_server::HttpServer::bind(server, addr, workers)
                .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            out(&format!("prov-server listening on {}\n", http.addr()));
            http.join();
            out("prov-server stopped\n");
            Ok(())
        }
        ["recover", data_dir] => {
            // Offline inspection: replay every namespace WAL under
            // `data_dir` into fresh stores and report what survived,
            // without serving anything.
            let config = prov_server::ServerConfig {
                durability: Some(prov_server::DurabilityConfig::new(*data_dir)),
                ..prov_server::ServerConfig::default()
            };
            let server = std::sync::Arc::new(prov_server::ProvServer::new(config));
            let reports = server
                .recover()
                .map_err(|e| format!("recovery failed: {e}"))?;
            if reports.is_empty() {
                out(&format!("no namespaces under {data_dir}\n"));
                return Ok(());
            }
            for r in &reports {
                out(&format!("{}\n", r.render()));
            }
            Ok(())
        }
        ["client", addr, rest @ ..] => {
            let mut tenant = "cli";
            let mut retries = 0u32;
            let mut seed = 0u64;
            let mut traced = false;
            let mut request_id: Option<&str> = None;
            let mut args: Vec<&str> = Vec::new();
            for a in rest {
                if let Some(v) = a.strip_prefix("tenant=") {
                    tenant = v;
                } else if let Some(v) = a.strip_prefix("retries=") {
                    retries = v
                        .parse()
                        .map_err(|_| format!("retries needs an integer, got '{v}'"))?;
                } else if let Some(v) = a.strip_prefix("seed=") {
                    seed = v
                        .parse()
                        .map_err(|_| format!("seed needs an integer, got '{v}'"))?;
                } else if let Some(v) = a.strip_prefix("request_id=") {
                    request_id = Some(v);
                } else if *a == "traced" {
                    traced = true;
                } else {
                    args.push(a);
                }
            }
            let addr: std::net::SocketAddr = addr
                .parse()
                .map_err(|_| format!("bad server address '{addr}' (expected host:port)"))?;
            let mut client = prov_server::HttpClient::new(addr, tenant);
            if retries > 0 {
                // Bounded, seeded backoff; only idempotent requests are
                // retried (ingest needs request_id= to qualify).
                client = client.with_retry(
                    prov_server::HttpRetry::attempts(1 + retries)
                        .backoff(50_000, 2.0, 2_000_000)
                        .jitter(0.25)
                        .seeded(seed),
                );
            }
            if traced {
                // Propagate traceparent so the server records this
                // request's spans; the trace id is printed afterwards and
                // feeds `client <addr> trace <id>`.
                client = client.with_tracing(seed);
            }
            let reply = match args.as_slice() {
                ["health"] => client.healthz(),
                ["metrics"] => client.metrics(),
                ["shutdown"] => client.shutdown(),
                ["trace", trace_id] => client.trace(trace_id),
                ["slowlog", namespace] => client.slowlog(namespace),
                ["create", namespace] => client.create(namespace),
                ["stats", namespace] => client.stats(namespace),
                ["query", namespace, pql] => client.query(namespace, pql),
                ["ingest", namespace, files @ ..] if !files.is_empty() => {
                    let mut last = None;
                    for (i, p) in files.iter().enumerate() {
                        let retro = load_prov(p)?;
                        let reply = match request_id {
                            // A request id makes the ingest
                            // idempotent (and thus safely retried);
                            // multiple files get distinct ids.
                            Some(id) => {
                                client.ingest_with_id(namespace, &retro, &format!("{id}-{i}"))
                            }
                            None => client.ingest(namespace, &retro),
                        }
                        .map_err(|e| format!("cannot reach server: {e}"))?;
                        if reply.status != 200 {
                            return Err(format!(
                                "server rejected {p} (HTTP {}): {}",
                                reply.status, reply.body
                            ));
                        }
                        last = Some(reply);
                    }
                    Ok(last.expect("files is non-empty"))
                }
                _ => {
                    return Err(
                        "usage: client <addr> <create|ingest|query|stats|health|metrics|trace|\
                         slowlog|shutdown> [args] [tenant=NAME] [traced]"
                            .into(),
                    )
                }
            }
            .map_err(|e| format!("cannot reach server: {e}"))?;
            out(&format!("{}\n", reply.body.trim_end()));
            if let Some(id) = &reply.trace_id {
                eprintln!("trace_id: {id}");
            }
            if reply.status == 200 {
                Ok(())
            } else {
                Err(format!("server returned HTTP {}", reply.status))
            }
        }
        _ => {
            usage();
            Err(String::new())
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("provctl: {msg}");
            }
            ExitCode::FAILURE
        }
    }
}
