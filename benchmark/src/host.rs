//! The host stamp: what a number was measured on.

/// Host cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn first_line_of(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .map(|l| l.rsplit(':').next().unwrap_or(l).trim().to_string())
}

/// One JSON object naming the host, the build and the run. `rustc` and the
/// commit come from run.sh through the environment, since the harness may be
/// running in a checkout that is not a git repository.
pub fn stamp(workload: &str, seed: u64, repetitions: u64) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".into(), |s| s.trim().to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release lto=fat codegen-units=1"
    };
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"repetitions\": {repetitions}, \
         \"nproc\": {}, \"cpu\": \"{}\", \"kernel\": \"{kernel}\", \"rustc\": \"{}\", \
         \"commit\": \"{}\", \"profile\": \"{profile}\"}}",
        nproc(),
        first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        env("HORNET_BENCH_RUSTC"),
        env("HORNET_BENCH_COMMIT"),
    )
}
