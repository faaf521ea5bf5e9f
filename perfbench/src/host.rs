//! Facts about the machine and build a result was measured on.

use crate::json::Json;

/// The first `model name` in `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `unknown` outside a git checkout.
fn git_sha() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let sha = match head.trim().strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|sha| sha.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|line| line.ends_with(reference))
                    .and_then(|line| line.split_whitespace().next())
                    .map(str::to_string)
            }),
        None => Some(head.trim().to_string()),
    };
    sha.filter(|sha| !sha.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .map_or(f64::NAN, |kib: f64| kib / 1024.0)
}

/// The host block; `auto_step_threads` is what `threads=auto` resolved
/// to on `dynamo-verify`'s largest grid.
pub fn block(auto_step_threads: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj([
        ("nproc", Json::Int(nproc)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC_VERSION"))),
        ("git_sha", Json::str(git_sha())),
        ("auto_step_threads", Json::Int(auto_step_threads)),
    ])
}
