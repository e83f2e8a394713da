//! `perf` — the request-path benchmark.
//!
//! ```text
//! perf bench --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON result line
//! perf run   [--seed N] [--seconds S] [--smoke]                 every metric of every workload
//! perf agree [--sets 2] [--runs 3] [--seed N] [--seconds S]     do two sets of runs agree?
//! perf describe                                                 BENCHMARK.json, from the tables
//! ```
//!
//! `--provctl PATH` names the server binary; by default it is the
//! `provctl` beside this executable. See the README for what the
//! workloads and metrics are and why.

mod gen;
mod host;
mod load;
mod metrics;
mod stats;
mod trace;

use load::{Latency, Outcome, RunConfig, Workload, WORKLOADS};
use prov_server::wire;
use prov_telemetry::JsonValue;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Runs a set of `perf agree` needs before its quartile spread is judged:
/// the ten the benchmark's driver takes its quartiles from.
const SPREAD_RUNS: usize = 10;
/// `GET /healthz` calls behind `http.roundtrip_us`.
const HEALTHZ_CALLS: usize = 1_000;

/// One reported number: value, unit, and the samples behind it.
#[derive(Debug, Clone)]
struct Reading {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    /// Per-layer only: the end-to-end numbers this one should move.
    moves: metrics::Moves,
}

/// One finished run: what goes on the result line, and beside it.
#[derive(Debug)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    readings: Vec<Reading>,
    wall_s: f64,
}

struct Options {
    flags: BTreeMap<String, String>,
}

impl Options {
    /// `--name value` pairs; `--smoke` stands alone.
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{arg}'"))?;
            let value = if name == "smoke" {
                "1".to_string()
            } else {
                it.next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone()
            };
            flags.insert(name.to_string(), value);
        }
        Ok(Options { flags })
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} needs a number, got '{v}'")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

/// Where this executable lives: `provctl` is built beside it, and run
/// scratch goes under `<target>/perf/`.
fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    exe.parent()
        .map(PathBuf::from)
        .ok_or_else(|| "this executable has no directory".to_string())
}

fn perf_dir() -> Result<PathBuf, String> {
    let dir = exe_dir()?
        .parent()
        .map(|target| target.join("perf"))
        .ok_or_else(|| "this executable is not inside a target directory".to_string())?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_config(opts: &Options, workload: &'static Workload, seed: u64) -> Result<RunConfig, String> {
    let provctl = match opts.flags.get("provctl") {
        Some(path) => PathBuf::from(path),
        None => exe_dir()?.join("provctl"),
    };
    if !provctl.is_file() {
        return Err(format!(
            "no provctl at {} (build it, or pass --provctl PATH)",
            provctl.display()
        ));
    }
    let smoke = opts.has("smoke");
    let work_dir = perf_dir()?.join(format!(
        "run-{}-{seed}-{}",
        workload.name,
        std::process::id()
    ));
    Ok(RunConfig {
        workload,
        seed,
        seconds: opts.number("seconds", if smoke { 2.0 } else { metrics::RUN_SECONDS })?,
        provctl,
        work_dir,
        clients: host::nproc(),
        smoke,
        recovery: true,
        healthz_calls: 0,
    })
}

/// The end-to-end readings of one run. A latency metric is the median over
/// the phases that measured it (the one window, or one fixed-work phase per
/// round); a phase too short for its p95 leaves the metric at 0, which the
/// caller reports as no measurement.
fn end_to_end(out: &Outcome, seconds: f64) -> Vec<Reading> {
    let over_phases = |phases: &[Latency]| {
        let p50: Vec<f64> = phases.iter().map(|l| l.p50_ms).collect();
        let p95: Option<Vec<f64>> = phases.iter().map(|l| l.p95_ms).collect();
        let samples = phases.iter().map(|l| l.samples).sum::<usize>();
        [
            (stats::median(&p50), samples),
            (p95.map_or(0.0, |v| stats::median(&v)), samples),
        ]
    };
    let [ingest_p50, ingest_p95] = over_phases(&out.ingest);
    let [query_p50, query_p95] = over_phases(&out.query);
    let values: [(f64, usize); 9] = [
        (out.answered as f64 / seconds, out.answered as usize),
        ingest_p50,
        ingest_p95,
        query_p50,
        query_p95,
        (stats::median(&out.setup_s), out.setup_s.len()),
        (
            out.recovery_s.iter().copied().fold(f64::INFINITY, f64::min),
            out.recovery_s.len(),
        ),
        (stats::median(&out.rss_peak_mb), out.rss_peak_mb.len()),
        (
            out.disk_bytes as f64 / out.user_bytes.max(1) as f64,
            out.user_bytes as usize,
        ),
    ];
    metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, ..), (value, samples))| Reading {
            name: name.to_string(),
            value,
            unit,
            samples,
            moves: &[],
        })
        .collect()
}

/// Run `work` in a fresh scratch directory and remove it afterwards; data
/// dirs never outlive a run.
fn in_work_dir<T>(cfg: &RunConfig, work: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work_dir.display()))?;
    let result = work();
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    result
}

fn metadata(cfg: &RunConfig) -> JsonValue {
    host::metadata(
        cfg.seed,
        cfg.seconds,
        cfg.workload.fsync,
        load::CHECKPOINT_EVERY,
        &cfg.work_dir,
    )
}

/// The untraced run: every end-to-end metric of one workload.
fn untraced(cfg: &RunConfig) -> Result<Report, String> {
    let out = in_work_dir(cfg, || load::run(cfg))?;
    let readings = end_to_end(&out, cfg.seconds);
    let mut problems = out.problems;
    for r in &readings {
        if r.value <= 0.0 || !r.value.is_finite() {
            problems.push(format!("{} has no measurement", r.name));
        }
    }
    Ok(Report {
        correct: problems.is_empty() && out.failed == 0,
        attempted: out.attempted.max(1),
        failed: out.failed,
        problems,
        readings,
        wall_s: out.wall_s,
    })
}

/// The traced run: every per-layer metric of one workload. A short
/// untraced window against the real server gives the counters only it can
/// give; the rest of the time goes to the in-process traced window.
fn traced(cfg: &RunConfig) -> Result<Report, String> {
    let real_seconds = (cfg.seconds / 4.0).max(1.0).min(cfg.seconds / 2.0);
    let real_cfg = RunConfig {
        seconds: real_seconds,
        recovery: false,
        healthz_calls: HEALTHZ_CALLS,
        ..cfg.clone()
    };
    let (out, traced) = in_work_dir(cfg, || {
        Ok((
            load::run(&real_cfg)?,
            trace::run(cfg, cfg.seconds - real_seconds)?,
        ))
    })?;
    let spans_path = perf_dir()?.join(format!("spans-{}.jsonl", cfg.workload.name));
    trace::write_spans(&spans_path, &metadata(cfg), &traced.spans)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    let ratio = stats::ratio;
    let mut values = traced.metrics;
    let requests = out.attempted as usize;
    for (name, value, samples) in [
        (
            "http.roundtrip_us",
            stats::median(&out.healthz_us),
            out.healthz_us.len(),
        ),
        (
            "admission.shed_share",
            ratio(out.shed as f64, out.attempted as f64),
            requests,
        ),
        (
            "wire.request_bytes_mean",
            ratio(out.request_bytes as f64, out.attempted as f64),
            requests,
        ),
        (
            "wire.reply_bytes_mean",
            ratio(out.reply_bytes as f64, out.attempted as f64),
            requests,
        ),
        (
            "cache.hit_share",
            ratio(out.window_cached as f64, out.window_queries as f64),
            out.window_queries as usize,
        ),
        (
            "wal.write_amplification",
            ratio(out.write_bytes as f64, out.window_ingest_bytes as f64),
            out.window_ingest_bytes as usize,
        ),
        (
            "server.cpu_ms_per_request",
            ratio(out.cpu_ms, out.answered as f64),
            out.answered as usize,
        ),
    ] {
        values.insert(name.to_string(), (value, samples));
    }
    let readings = metrics::per_layer()
        .into_iter()
        .map(|(name, unit, _, moves)| {
            let (value, samples) = values.get(&name).copied().unwrap_or((0.0, 0));
            Reading {
                name,
                value,
                unit,
                samples,
                moves,
            }
        })
        .collect();
    let mut problems = out.problems;
    problems.extend(traced.problems);
    let failed = out.failed + traced.failed;
    Ok(Report {
        correct: problems.is_empty() && failed == 0,
        attempted: (out.attempted + traced.attempted).max(1),
        failed,
        problems,
        readings,
        wall_s: out.wall_s + traced.wall_s,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &Report) -> String {
    let metrics = report
        .readings
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                gen::json_object([
                    ("value", JsonValue::Number(r.value)),
                    ("unit", JsonValue::String(r.unit.to_string())),
                ]),
            )
        })
        .collect();
    wire::render_json(&gen::json_object([
        ("correct", JsonValue::Bool(report.correct)),
        ("attempted", JsonValue::Number(report.attempted as f64)),
        ("failed", JsonValue::Number(report.failed as f64)),
        ("metrics", JsonValue::Object(metrics)),
    ]))
}

fn meta_line(cfg: &RunConfig, traced: bool) -> String {
    wire::render_json(&gen::json_object([
        ("workload", JsonValue::String(cfg.workload.name.to_string())),
        ("trace", JsonValue::Bool(traced)),
        ("preload", JsonValue::Number(cfg.preload() as f64)),
        ("meta", metadata(cfg)),
    ]))
}

fn workload_named(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (one of {})", names.join(", "))
    })
}

fn one_run(cfg: &RunConfig, with_trace: bool) -> Result<Report, String> {
    let report = if with_trace {
        traced(cfg)
    } else {
        untraced(cfg)
    }?;
    for problem in &report.problems {
        eprintln!("perf: {}: {problem}", cfg.workload.name);
    }
    Ok(report)
}

/// `perf bench`: one run; the result is the last line of standard output.
fn bench(opts: &Options) -> Result<(), String> {
    let name = opts
        .flags
        .get("workload")
        .ok_or("bench needs --workload NAME")?;
    let cfg = run_config(opts, workload_named(name)?, opts.number("seed", 1)?)?;
    let with_trace = opts.number("trace", 0u8)? != 0;
    let report = one_run(&cfg, with_trace)?;
    println!("{}", meta_line(&cfg, with_trace));
    println!("{}", result_line(&report));
    Ok(())
}

/// `perf run`: every metric of every workload, untraced runs first.
fn run_all(opts: &Options) -> Result<(), String> {
    let seed = opts.number("seed", 1)?;
    let mut all_correct = true;
    for with_trace in [false, true] {
        for workload in &WORKLOADS {
            let cfg = run_config(opts, workload, seed)?;
            let report = one_run(&cfg, with_trace)?;
            println!("{}", meta_line(&cfg, with_trace));
            println!("== {}: {}", workload.name, workload.why());
            println!(
                "== {} {} — {:.1} s wall, {} attempted, {} failed, correct: {}",
                workload.name,
                if with_trace { "traced" } else { "untraced" },
                report.wall_s,
                report.attempted,
                report.failed,
                report.correct
            );
            for r in &report.readings {
                let moves: Vec<String> = r.moves.iter().map(|(m, w)| format!("{m}@{w}")).collect();
                println!(
                    "{:<44} {:>16.4} {:<6} n={:<8} {}",
                    r.name,
                    r.value,
                    r.unit,
                    r.samples,
                    if moves.is_empty() {
                        String::new()
                    } else {
                        format!("-> {}", moves.join(" "))
                    }
                );
            }
            all_correct &= report.correct;
        }
    }
    if all_correct {
        Ok(())
    } else {
        Err("a run was not correct".to_string())
    }
}

/// `perf agree`: `sets` sets of `runs` untraced runs per workload, the sets
/// taking turns run by run so that the host's slow minutes fall on all of
/// them. Two sets of runs of the same code disagree when the medians of the
/// first and the last differ, either way, by more than the metric's bound;
/// a metric whose quartiles within a set lie further apart than the bound
/// is unresolved, and counts as a disagreement too. The spread is judged
/// from [`SPREAD_RUNS`] runs a set, as the driver judges it: of three runs
/// the quartiles are the extremes, and one slow run in three is this host's
/// habit, not a disagreement. Below that it is printed and the header says
/// it is not judged.
fn agree(opts: &Options) -> Result<(), String> {
    let sets: usize = opts.number("sets", 2)?;
    let runs: usize = opts.number("runs", 3)?;
    let base: u64 = opts.number("seed", 1)?;
    if sets < 2 || runs < 2 {
        return Err(
            "agree needs --sets >= 2 and --runs >= 2 (quartiles need two runs)".to_string(),
        );
    }
    // One `(set, workload, end-to-end values)` per run.
    let mut measured: Vec<(usize, &str, Vec<f64>)> = Vec::new();
    let mut incorrect = 0;
    for run in 0..runs {
        for workload in &WORKLOADS {
            for set in 0..sets {
                let seed = base + (set * runs + run) as u64;
                let report = one_run(&run_config(opts, workload, seed)?, false)?;
                eprintln!(
                    "perf: set {set} run {run} {} seed {seed}: {:.1} s wall, correct: {}",
                    workload.name, report.wall_s, report.correct
                );
                incorrect += usize::from(!report.correct);
                let values = report.readings.iter().map(|r| r.value).collect();
                measured.push((set, workload.name, values));
            }
        }
    }
    let mut disagreements = incorrect;
    let judged = runs >= SPREAD_RUNS;
    println!(
        "{:<16} {:<26} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict (n={runs} per set; spread {})",
        "workload",
        "metric",
        "median 0",
        "median 1",
        "apart",
        "spread",
        "bound",
        if judged {
            "judged".to_string()
        } else {
            format!("printed only, judged from --runs {SPREAD_RUNS}")
        }
    );
    for workload in &WORKLOADS {
        for (m, &(name, _, _, bound)) in metrics::END_TO_END.iter().enumerate() {
            let of_sets: Vec<Vec<f64>> = (0..sets)
                .map(|set| {
                    measured
                        .iter()
                        .filter(|(s, w, _)| *s == set && *w == workload.name)
                        .map(|(_, _, values)| values[m])
                        .collect()
                })
                .collect();
            let (first, last) = (
                stats::median(&of_sets[0]),
                stats::median(&of_sets[sets - 1]),
            );
            let apart = (last - first).abs() / first;
            let spread = of_sets
                .iter()
                .filter_map(|v| stats::spread(v))
                .fold(0.0, f64::max);
            let verdict = if apart > bound {
                "DISAGREE"
            } else if judged && spread > bound {
                "UNRESOLVED"
            } else {
                "ok"
            };
            disagreements += usize::from(verdict != "ok");
            println!(
                "{:<16} {:<26} {first:>12.4} {last:>12.4} {apart:>8.3} {spread:>8.3} {bound:>6.2}  {verdict}",
                workload.name, name
            );
        }
    }
    if disagreements == 0 {
        Ok(())
    } else {
        Err(format!(
            "{disagreements} disagreement(s), {incorrect} of them incorrect runs"
        ))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) => Options::parse(rest).and_then(|opts| match command.as_str() {
            "bench" => bench(&opts),
            "run" => run_all(&opts),
            "agree" => agree(&opts),
            "describe" => {
                println!("{}", wire::render_json(&metrics::benchmark_json()));
                Ok(())
            }
            other => Err(format!(
                "unknown command '{other}' (bench, run, agree or describe)"
            )),
        }),
        None => Err("usage: perf bench|run|agree|describe [--flag value]...".to_string()),
    };
    if let Err(e) = outcome {
        eprintln!("perf: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_telemetry::parse_json;

    #[test]
    fn every_emitted_line_parses_and_the_result_has_exactly_four_keys() {
        let report = Report {
            correct: true,
            attempted: 12_345,
            failed: 0,
            problems: Vec::new(),
            readings: metrics::END_TO_END
                .iter()
                .map(|&(name, unit, ..)| Reading {
                    name: name.to_string(),
                    value: 1.203_456_789_012,
                    unit,
                    samples: 3,
                    moves: &[],
                })
                .collect(),
            wall_s: 1.0,
        };
        let line = result_line(&report);
        let JsonValue::Object(top) = parse_json(&line).expect("the result line parses") else {
            panic!("the result line is an object");
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let value = top["metrics"]
            .get("throughput_rps")
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64);
        assert_eq!(value, Some(1.203_456_789_012), "all digits survive");

        let cfg = RunConfig {
            workload: &WORKLOADS[0],
            seed: 7,
            seconds: 2.0,
            provctl: PathBuf::from("provctl"),
            work_dir: std::env::temp_dir(),
            clients: 2,
            smoke: true,
            recovery: true,
            healthz_calls: 0,
        };
        let meta = parse_json(&meta_line(&cfg, true)).expect("the metadata line parses");
        for key in [
            "nproc",
            "kernel",
            "rustc",
            "commit",
            "seed",
            "fsync",
            "checkpoint_every",
            "data_dir_fs",
            "crates",
            "note",
        ] {
            assert!(meta.get("meta").unwrap().get(key).is_some(), "no {key}");
        }
    }

    #[test]
    fn a_phase_too_short_for_its_p95_leaves_no_measurement() {
        let ms: Vec<f64> = (1..=200).map(f64::from).collect();
        let mut out = Outcome::default();
        // p95 of 200 has ten samples beyond it, p95 of 199 has nine.
        out.query.push(Latency::of(&ms));
        out.ingest.push(Latency::of(&ms));
        out.ingest.push(Latency::of(&ms[..199]));
        let value = |name: &str| {
            let readings = end_to_end(&out, 1.0);
            readings.iter().find(|r| r.name == name).unwrap().value
        };
        assert_eq!(value("query_p95_ms"), 190.0);
        assert_eq!(value("query_p50_ms"), 100.5);
        assert_eq!(value("ingest_p95_ms"), 0.0, "one phase lacks its tail");
        assert_eq!(value("ingest_p50_ms"), 100.25, "median over the phases");
    }
}
