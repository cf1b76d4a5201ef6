//! The run's result line, its metadata line, and process readings.

use std::fmt::Write as _;

/// The metrics, counts and correctness verdict of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Figures printed in the table but not gated by `BENCHMARK.json`:
    /// wall-clock latency and rates, which follow the host's load.
    info: Vec<(String, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed, were refused or answered incorrectly.
    pub failed: usize,
    /// Failed checks, each with its reason.
    problems: Vec<String>,
}

impl Report {
    /// Record a metric. Names are unique per run.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            !self.metrics.iter().any(|(n, _, _)| *n == name),
            "metric {name} recorded twice"
        );
        if !value.is_finite() {
            self.problem(format!("metric {name} is not a finite number"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Record a figure that is printed but not part of the result line.
    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.info.push((name.into(), value, unit));
    }

    /// Record a failed check; the run is then incorrect.
    pub fn problem(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("perfbench: CHECK FAILED: {message}");
        self.problems.push(message);
    }

    /// Check `condition`, recording `message` when it does not hold.
    pub fn check(&mut self, condition: bool, message: impl FnOnce() -> String) {
        if !condition {
            self.problem(message());
        }
    }

    /// True when no check failed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The human-readable table: one `name value unit` line per metric,
    /// then the ungated figures.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name:<34} {value:>16.6} {unit}");
        }
        for (name, value, unit) in &self.info {
            let _ = writeln!(out, "{name:<34} {value:>16.6} {unit} (not gated)");
        }
        let _ = writeln!(
            out,
            "{:<34} {:>16.6} fraction (not gated; {} of {} failed)",
            "error_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        out
    }

    /// The final JSON line with exactly the keys `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values become `null`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Run metadata: seed, CPU count, and the SIMD features and tier the
/// forward kernels dispatch on.
pub fn metadata_json(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"nproc\": {}, \"cpu_features\": \"{}\", \"simd_tier\": \"{}\"}}",
        nproc(),
        bcpnn_tensor::simd::dispatch::cpu_features(),
        bcpnn_tensor::simd::dispatch::active_tier().as_str()
    )
}

/// CPU time the hypervisor gave to other guests (the `steal` column of
/// `/proc/stat`), in seconds summed over every CPU; `None` where the kernel
/// does not report it.
pub fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: f64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    // USER_HZ is 100 on every Linux target this benchmark builds for.
    Some(ticks / 100.0)
}

/// A `kB` field of `/proc/self/status`, in mebibytes.
pub fn proc_status_mb(field: &str) -> Option<f64> {
    proc_status_value(field).map(|kb| kb / 1024.0)
}

/// The thread count of this process.
pub fn proc_threads() -> Option<f64> {
    proc_status_value("Threads")
}

fn proc_status_value(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Wall and process CPU time since a starting point.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Start both clocks now.
    pub fn start() -> Self {
        Self {
            wall: std::time::Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// Wall seconds elapsed.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Process CPU seconds consumed, by every thread.
    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu_s
    }
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, in seconds. Time the
/// hypervisor gave to other guests (steal) is not counted.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}
