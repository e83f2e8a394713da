//! End-to-end tests of the `provctl` command-line tool.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn provctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_provctl"))
        .args(args)
        .output()
        .expect("provctl spawns")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("provctl-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn demo_validate_run_query_roundtrip() {
    let dir = tempdir("roundtrip");
    let wf = dir.join("wf.json");
    let prov = dir.join("prov.json");
    let wf_s = wf.to_str().unwrap();
    let prov_s = prov.to_str().unwrap();

    let o = provctl(&["demo", "fig1", wf_s]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("8 modules"));

    let o = provctl(&["validate", wf_s]);
    assert!(o.status.success(), "{}", stderr(&o));

    let o = provctl(&["recipe", wf_s]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("LoadVolume@1"));

    let o = provctl(&["run", wf_s, prov_s]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("succeeded"));

    let o = provctl(&["log", prov_s]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("Histogram@1"));

    let o = provctl(&["query", prov_s, "count runs where status = succeeded"]);
    assert!(o.status.success());
    assert_eq!(stdout(&o).trim(), "8");

    let o = provctl(&["dot", prov_s]);
    assert!(o.status.success());
    assert!(stdout(&o).starts_with("digraph"));

    let o = provctl(&["wfdot", wf_s]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("LoadVolume@1"));

    let o = provctl(&["profile", prov_s]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("critical path"));

    let o = provctl(&["verify", wf_s, prov_s]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("8/8"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn demo_fig1_writes_the_golden_workflow() {
    let dir = tempdir("golden");
    let wf = dir.join("wf.json");
    let o = provctl(&["demo", "fig1", wf.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert_eq!(
        std::fs::read_to_string(&wf).unwrap(),
        include_str!("golden/workflow_fig1.json")
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lineage_finds_upstream_of_saved_file() {
    let dir = tempdir("lineage");
    let wf = dir.join("wf.json");
    let prov = dir.join("prov.json");
    provctl(&["demo", "fig1", wf.to_str().unwrap()]);
    provctl(&["run", wf.to_str().unwrap(), prov.to_str().unwrap()]);
    // Find a bytes artifact digest via a query, then trace it.
    let o = provctl(&[
        "query",
        prov.to_str().unwrap(),
        "list artifacts where dtype = bytes",
    ]);
    let line = stdout(&o);
    let digest = line
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .expect("a bytes artifact exists")
        .to_string();
    let o = provctl(&["lineage", prov.to_str().unwrap(), &digest]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("LoadVolume@1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_across_multiple_provenance_files() {
    let dir = tempdir("multi");
    let wf = dir.join("wf.json");
    let p1 = dir.join("p1.json");
    let p2 = dir.join("p2.json");
    provctl(&["demo", "db", wf.to_str().unwrap()]);
    provctl(&["run", wf.to_str().unwrap(), p1.to_str().unwrap()]);
    provctl(&["run", wf.to_str().unwrap(), p2.to_str().unwrap()]);
    // Each `run` process mints its own execution id, so the two files
    // are two executions of three runs each, not one merged record.
    let count = |pql: &str| -> usize {
        let o = provctl(&["query", p1.to_str().unwrap(), p2.to_str().unwrap(), pql]);
        assert!(o.status.success(), "{}", stderr(&o));
        stdout(&o).trim().parse().expect("a count")
    };
    assert_eq!(count("count executions"), 2);
    assert_eq!(count("count runs"), 6);
    std::fs::remove_dir_all(&dir).ok();
}

/// The execution id a provenance file records.
fn exec_of(prov: &Path) -> u64 {
    let text = std::fs::read_to_string(prov).expect("provenance file");
    let digits = text.split("\"exec\":").nth(1).expect("an exec member");
    digits
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("an integer exec id")
}

/// Start `provctl serve` on an ephemeral port; returns the child and the
/// address it bound, read from its first stdout line.
fn spawn_serve() -> (std::process::Child, String) {
    use std::io::BufRead;
    use std::process::Stdio;

    let mut serve = Command::new(env!("CARGO_BIN_EXE_provctl"))
        .args(["serve", "127.0.0.1:0", "workers=2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let mut first_line = String::new();
    std::io::BufReader::new(serve.stdout.take().expect("stdout piped"))
        .read_line(&mut first_line)
        .expect("read listen line");
    let addr = first_line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address on listen line")
        .to_string();
    (serve, addr)
}

#[test]
fn two_captures_stitch_into_two_executions() {
    let dir = tempdir("captures");
    let mut stitched = Vec::new();
    for site in ["a", "b"] {
        let blobs = dir.join(format!("blobs-{site}"));
        let o = provctl(&["capture", "fig1", blobs.to_str().unwrap(), "workers=2"]);
        assert!(o.status.success(), "{}", stderr(&o));
        let out = dir.join(format!("{site}.json"));
        let o = provctl(&[
            "stitch",
            blobs.to_str().unwrap(),
            &format!("out={}", out.to_str().unwrap()),
        ]);
        assert!(o.status.success(), "{}", stderr(&o));
        stitched.push(out);
    }
    assert_ne!(exec_of(&stitched[0]), exec_of(&stitched[1]));
    let o = provctl(&[
        "query",
        stitched[0].to_str().unwrap(),
        stitched[1].to_str().unwrap(),
        "count executions",
    ]);
    assert_eq!(stdout(&o).trim(), "2", "{}", stderr(&o));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn minted_execution_ids_survive_the_file_the_query_and_the_server() {
    let dir = tempdir("exec-ids");
    let wf = dir.join("wf.json");
    let prov = dir.join("p.json");
    provctl(&["demo", "db", wf.to_str().unwrap()]);
    let o = provctl(&["run", wf.to_str().unwrap(), prov.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    let exec = exec_of(&prov);
    assert!(
        exec > u64::from(u32::MAX),
        "a minted id, not a counter: {exec}"
    );

    let o = provctl(&["query", prov.to_str().unwrap(), "list executions"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(
        stdout(&o).starts_with(&format!("execution {exec} ")),
        "{}",
        stdout(&o)
    );
    let by_id = format!("count runs where exec = {exec}");
    let o = provctl(&["query", prov.to_str().unwrap(), &by_id]);
    assert_eq!(stdout(&o).trim(), "3", "{}", stderr(&o));

    let (mut serve, addr) = spawn_serve();
    let o = provctl(&["client", &addr, "ingest", "lab", prov.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    let o = provctl(&["client", &addr, "query", "lab", "list executions"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains(&exec.to_string()), "{}", stdout(&o));
    let o = provctl(&["client", &addr, "query", "lab", &by_id]);
    assert!(stdout(&o).contains("\"value\":3"), "{}", stdout(&o));
    let o = provctl(&["client", &addr, "shutdown"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(serve.wait().expect("serve exits").success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_workflow_is_rejected() {
    let dir = tempdir("invalid");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{ not json").unwrap();
    let o = provctl(&["validate", bad.to_str().unwrap()]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("bad workflow"));
    let o = provctl(&["validate", dir.join("missing.json").to_str().unwrap()]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("cannot read"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_on_no_args() {
    let o = provctl(&[]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("usage: provctl"));
}

#[test]
fn failing_workflow_reports_and_captures() {
    let dir = tempdir("failing");
    // Hand-author a failing workflow spec.
    let mut b = wf_model::WorkflowBuilder::new(1, "will-fail");
    let n = b.add("FailIf");
    b.param(n, "fail", true);
    b.param(n, "message", "cli-injected");
    let wf = b.build();
    let wf_path = dir.join("wf.json");
    let prov_path = dir.join("prov.json");
    std::fs::write(&wf_path, wf.to_json()).unwrap();
    let o = provctl(&[
        "run",
        wf_path.to_str().unwrap(),
        prov_path.to_str().unwrap(),
    ]);
    assert!(!o.status.success(), "failed runs exit nonzero");
    // Provenance was still captured, with the error message.
    let o = provctl(&["log", prov_path.to_str().unwrap()]);
    assert!(stdout(&o).contains("cli-injected"));
    let o = provctl(&[
        "query",
        prov_path.to_str().unwrap(),
        "count runs where status = failed",
    ]);
    assert_eq!(stdout(&o).trim(), "1");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_exports_a_valid_chrome_trace_with_span_log() {
    let dir = tempdir("trace");
    let wf = dir.join("wf.json");
    let trace = dir.join("trace.json");
    let spans = dir.join("spans.jsonl");
    let spans_opt = format!("spans={}", spans.to_str().unwrap());
    provctl(&["demo", "fig1", wf.to_str().unwrap()]);

    let o = provctl(&[
        "trace",
        wf.to_str().unwrap(),
        trace.to_str().unwrap(),
        &spans_opt,
        "threads=4",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("succeeded"));
    assert!(stdout(&o).contains("speedup"));

    // The written file passes the independent validator command.
    let o = provctl(&["tracecheck", trace.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("valid Chrome trace"));

    // The span log has one JSON object per line and survives grep-ability:
    // the run span mentions the workflow, module spans their identities.
    let log = std::fs::read_to_string(&spans).unwrap();
    assert!(log.lines().count() >= 9, "run + 8 modules at minimum");
    assert!(log.contains("\"kind\":\"run\""));
    assert!(log.contains("\"kind\":\"module\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tracecheck_rejects_non_trace_files() {
    let dir = tempdir("tracecheck");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"notATrace\":true}").unwrap();
    let o = provctl(&["tracecheck", bad.to_str().unwrap()]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("traceEvents"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_prints_prometheus_text() {
    let dir = tempdir("metrics");
    let wf = dir.join("wf.json");
    provctl(&["demo", "fig1", wf.to_str().unwrap()]);
    let o = provctl(&["metrics", wf.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    let text = stdout(&o);
    assert!(text.contains("# TYPE wf_runs_started_total counter"));
    assert!(text.contains("wf_runs_started_total 1"));
    assert!(text.contains("wf_modules_started_total 8"));
    assert!(text.contains("wf_module_latency_micros_bucket{le=\"+Inf\"} 8"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_prints_plan_analyze_stats_and_backend_reports() {
    let dir = tempdir("explain");
    let wf = dir.join("wf.json");
    let prov = dir.join("prov.json");
    provctl(&["demo", "fig1", wf.to_str().unwrap()]);
    provctl(&["run", wf.to_str().unwrap(), prov.to_str().unwrap()]);
    let prov_s = prov.to_str().unwrap();

    // Plain EXPLAIN needs no provenance: it renders the logical plan.
    let o = provctl(&["explain", "lineage of artifact 00000000000000ff"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let plan = stdout(&o);
    assert!(plan.starts_with("Collect"), "{plan}");
    assert!(plan.contains("+- Traverse (upstream)"));
    assert!(plan.contains("Anchor (artifact 00000000000000ff)"));

    // Find a real digest to analyze.
    let o = provctl(&["query", prov_s, "list artifacts where dtype = bytes"]);
    let digest = stdout(&o)
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
        .expect("a bytes artifact exists");
    let q = format!("lineage of artifact {digest}");

    // EXPLAIN ANALYZE annotates every operator with rows/time/accesses.
    let o = provctl(&["explain", prov_s, &q, "analyze"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let text = stdout(&o);
    assert!(text.contains("rows="), "{text}");
    assert!(text.contains("total:"), "{text}");
    assert!(text.contains("accesses:"), "{text}");

    // Backend ANALYZE reports the chosen backend's access profile.
    for backend in ["graph", "triple", "relational", "log"] {
        let opt = format!("backend={backend}");
        let o = provctl(&["explain", prov_s, &q, &opt]);
        assert!(o.status.success(), "[{backend}] {}", stderr(&o));
        let text = stdout(&o);
        assert!(text.starts_with(&format!("backend: {backend}")), "{text}");
        assert!(text.contains("TransitiveClosure"), "{text}");
    }

    // Unknown backends are rejected with the valid names.
    let o = provctl(&["explain", prov_s, &q, "backend=quantum"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("graph"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slowlog_retains_queries_and_writes_jsonl() {
    let dir = tempdir("slowlog");
    let wf = dir.join("wf.json");
    let prov = dir.join("prov.json");
    let jsonl = dir.join("slow.jsonl");
    provctl(&["demo", "fig1", wf.to_str().unwrap()]);
    provctl(&["run", wf.to_str().unwrap(), prov.to_str().unwrap()]);

    // Threshold 0 admits the whole canned workload.
    let out_opt = format!("out={}", jsonl.to_str().unwrap());
    let o = provctl(&[
        "slowlog",
        prov.to_str().unwrap(),
        "threshold_us=0",
        &out_opt,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let text = stdout(&o);
    assert!(text.contains("slow-query log:"), "{text}");
    assert!(text.contains("threshold 0us"), "{text}");
    assert!(text.contains("[graph]") && text.contains("[log]"), "{text}");
    assert!(text.contains("lineage of artifact"), "{text}");

    // The JSONL dump has one parsable object per retained entry.
    let dump = std::fs::read_to_string(&jsonl).unwrap();
    assert!(dump.lines().count() > 4, "canned workload retained");
    assert!(dump.lines().all(|l| l.starts_with("{\"seq\":")), "{dump}");
    assert!(dump.contains("\"backend\":\"relational\""));

    // An unreachable threshold retains nothing but still reports totals.
    let o = provctl(&["slowlog", prov.to_str().unwrap(), "threshold_us=999999999"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let text = stdout(&o);
    assert!(text.contains("0 retained"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_reports_critical_path_and_utilization_from_stored_provenance() {
    let dir = tempdir("profile-retro");
    let wf = dir.join("wf.json");
    let prov = dir.join("prov.json");
    provctl(&["demo", "fig1", wf.to_str().unwrap()]);
    provctl(&["run", wf.to_str().unwrap(), prov.to_str().unwrap()]);

    // Profiling needs only the stored provenance file — no re-execution,
    // no workflow spec.
    let o = provctl(&["profile", prov.to_str().unwrap(), "top=3"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let text = stdout(&o);
    assert!(text.contains("critical path:"));
    assert!(text.contains("top 3 modules by self time"));
    assert!(text.contains("utilization"));
    assert!(text.contains("speedup"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_user_input_exits_one_with_a_message_never_a_panic() {
    // Missing provenance file.
    let o = provctl(&["query", "/nonexistent/prov.json", "count runs"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("cannot read"), "{}", stderr(&o));
    assert!(!stderr(&o).contains("panicked"), "{}", stderr(&o));

    // Malformed provenance files: a message naming the file, no panic.
    let dir = tempdir("bad-input");
    for (name, text) in [
        ("fields.json", r#"{"exec": 1}"#),
        ("syntax.json", "{ not json"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let path = path.to_str().unwrap();
        let o = provctl(&["query", path, "count runs"]);
        assert!(!o.status.success(), "{name} must be refused");
        let err = stderr(&o);
        assert!(
            err.contains(&format!("bad provenance in {path}")),
            "{name}: {err}"
        );
        assert!(!err.contains("panicked"), "{name} panicked: {err}");
    }

    // Malformed workflow files, to both commands that load one.
    for (name, text) in [
        ("wf-fields.json", r#"{"id": 1}"#),
        ("wf-syntax.json", "{ not json"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let path = path.to_str().unwrap();
        let prov = dir.join("never.json");
        for args in [
            vec!["run", path, prov.to_str().unwrap()],
            vec!["validate", path],
        ] {
            let o = provctl(&args);
            assert!(!o.status.success(), "{args:?} must be refused");
            let err = stderr(&o);
            assert!(
                err.contains(&format!("bad workflow in {path}")),
                "{args:?}: {err}"
            );
            assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
        }
    }

    // Bad numeric run options: reject, don't wrap or truncate.
    let wf = dir.join("wf.json");
    provctl(&["demo", "fig1", wf.to_str().unwrap()]);
    for (opt, needle) in [
        ("retries=abc", "needs an integer"),
        ("retries=5000000000", "needs an integer"), // overflows u32 range check via bound
        ("retries=2000", "retries must be 0-1000"),
        ("timeout_ms=never", "needs an integer"),
        ("frobnicate=1", "unknown run option"),
    ] {
        let o = provctl(&[
            "run",
            wf.to_str().unwrap(),
            dir.join("p.json").to_str().unwrap(),
            opt,
        ]);
        assert!(!o.status.success(), "option {opt} must fail");
        let err = stderr(&o);
        assert!(
            err.contains(needle) || err.contains("retries must be 0-1000"),
            "option {opt}: expected '{needle}' in {err}"
        );
        assert!(!err.contains("panicked"), "option {opt} panicked: {err}");
    }

    // Bad serve/client arguments fail fast without touching the network.
    let o = provctl(&["serve", "127.0.0.1:0", "workers=many"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("workers needs an integer"));
    let o = provctl(&["client", "not-an-address", "health"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("bad server address"));
    let o = provctl(&["client", "127.0.0.1:9", "frobnicate"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("usage: client"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_ends_quietly_after_the_files_are_written() {
    // `provctl ... | grep -q`: the reader may close the pipe after its
    // first match. The command must neither panic nor skip its files.
    use std::process::Stdio;
    let dir = tempdir("closed-stdout");
    let (wf, prov, log) = (
        dir.join("wf.json"),
        dir.join("p.json"),
        dir.join("slow.jsonl"),
    );
    provctl(&["demo", "fig1", wf.to_str().unwrap()]);
    provctl(&["run", wf.to_str().unwrap(), prov.to_str().unwrap()]);
    let mut child = Command::new(env!("CARGO_BIN_EXE_provctl"))
        .args([
            "slowlog",
            prov.to_str().unwrap(),
            "threshold_us=0",
            &format!("out={}", log.display()),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("provctl spawns");
    drop(child.stdout.take());
    let o = child.wait_with_output().expect("provctl exits");
    assert!(!stderr(&o).contains("panicked"), "{}", stderr(&o));
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(std::fs::metadata(&log).map(|m| m.len()).unwrap_or(0) > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_and_client_round_trip_over_http() {
    let (mut serve, addr) = spawn_serve();

    let o = provctl(&["client", &addr, "health"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("\"ready\":true"), "{}", stdout(&o));

    let o = provctl(&["client", &addr, "create", "lab", "tenant=alice"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("\"created\":\"lab\""));

    let o = provctl(&["client", &addr, "query", "lab", "count runs"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("\"type\":\"count\""), "{}", stdout(&o));

    // Unknown namespace: clean exit 1 with the server's JSON error.
    let o = provctl(&["client", &addr, "query", "ghost", "count runs"]);
    assert!(!o.status.success());
    assert!(stdout(&o).contains("no_such_namespace"), "{}", stdout(&o));

    let o = provctl(&["client", &addr, "metrics"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("prov_server_requests_total"));

    // Shutdown drains the server; the serve process exits on its own.
    let o = provctl(&["client", &addr, "shutdown"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let status = serve.wait().expect("serve process exits after shutdown");
    assert!(status.success(), "serve must exit cleanly, got {status:?}");
}
