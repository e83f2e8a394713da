//! What the benchmark reads from the machine it runs on: `/proc` counters
//! of the server child, and the metadata every output carries.

use prov_telemetry::JsonValue;
use std::path::Path;

/// Kernel clock ticks per second (`getconf CLK_TCK`; 100 on every Linux
/// this runs on — there is no libc here to ask).
const TICKS_PER_SECOND: f64 = 100.0;

fn proc_file(pid: u32, name: &str) -> String {
    std::fs::read_to_string(format!("/proc/{pid}/{name}")).unwrap_or_default()
}

/// `key:` line of a `/proc/<pid>/status`-style file, first number.
fn keyed_number(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident set of `pid` in MB (`VmHWM`).
pub fn rss_peak_mb(pid: u32) -> f64 {
    keyed_number(&proc_file(pid, "status"), "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// User plus system CPU time `pid` has used, in milliseconds.
pub fn cpu_ms(pid: u32) -> f64 {
    let stat = proc_file(pid, "stat");
    // The command name may hold spaces; fields are counted after its ')'.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 1000.0 / TICKS_PER_SECOND
}

/// Bytes `pid` has caused to be written to storage (`write_bytes`).
pub fn write_bytes(pid: u32) -> u64 {
    keyed_number(&proc_file(pid, "io"), "write_bytes:").unwrap_or(0)
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Filesystem type holding `path` (longest mount-point prefix).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Client threads and server workers: one per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The metadata line: enough to tell whether two outputs are comparable.
pub fn metadata(
    seed: u64,
    seconds: f64,
    fsync: &str,
    checkpoint_every: u64,
    data_dir: &Path,
) -> JsonValue {
    let text = |s: String| JsonValue::String(s);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    crate::gen::json_object([
        ("nproc", JsonValue::Number(nproc() as f64)),
        ("kernel", text(kernel.trim().to_string())),
        ("rustc", text(command_line("rustc", &["--version"]))),
        ("commit", text(command_line("git", &["rev-parse", "HEAD"]))),
        ("seed", JsonValue::Number(seed as f64)),
        ("window_s", JsonValue::Number(seconds)),
        ("fsync", text(fsync.to_string())),
        (
            "checkpoint_every",
            JsonValue::Number(checkpoint_every as f64),
        ),
        ("data_dir_fs", text(filesystem_of(data_dir))),
        // run.sh sets this when it builds against dev/stubs.
        (
            "crates",
            text(std::env::var("PERF_CRATES").unwrap_or_else(|_| "unknown".to_string())),
        ),
        (
            "note",
            text(
                "fsync and read latencies are this sandbox's (page cache, virtual disk), \
                 not a device's"
                    .to_string(),
            ),
        ),
    ])
}
