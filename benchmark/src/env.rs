//! What the numbers depend on besides the code: cores, worker threads,
//! CPU model — and the process's peak resident set.

use serde_json::{json, Value};

/// Worker threads the harness allows the program: `min(nproc, 4)`.
pub fn thread_budget() -> usize {
    nproc().min(4)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Pins `SMARTCROWD_THREADS` before the program's global pool is first
/// used, unless the caller already chose a value.
pub fn pin_threads() {
    if std::env::var_os("SMARTCROWD_THREADS").is_none() {
        std::env::set_var("SMARTCROWD_THREADS", thread_budget().to_string());
    }
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// CPU model string from `/proc/cpuinfo` ("unknown" elsewhere).
pub fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string())
}

/// Restarts the peak-RSS high-water mark so one process can report it
/// per workload; where the kernel refuses, the mark stays cumulative.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The environment block stored with every run.
pub fn describe(commit: &str) -> Value {
    json!({
        "nproc": nproc(),
        "pool_threads": smartcrowd_pool::global().threads(),
        "cpu_model": cpu_model(),
        "commit": commit,
    })
}
