//! How fast the host runs the benchmark right now, and CPU times scaled to
//! a fixed host speed.
//!
//! The benchmark was built on a 2-vCPU guest of a shared host. The same
//! fixed work (one `prepare_higgs`, one fit, one whole-set forward) there
//! ran up to 1.6× slower for minutes at a time, in CPU seconds as in wall
//! seconds, while other guests loaded the cores and caches the guest
//! shares; steal stayed low. A median inside one run cannot remove a
//! slowdown that lasts the whole run. So every gated timing is taken
//! between two runs of a fixed probe kernel, and its CPU time is scaled by
//! how much slower than [`PROBE_REFERENCE_S`] the probes around it ran.

use std::sync::Mutex;

use crate::report::{nproc, Stopwatch};
use crate::stats::median;

/// CPU seconds per thread the probe takes at the reference speed: the
/// fastest seen on the machine the benchmark was built on (a 2-vCPU guest,
/// `cpu_features` `sse4.1 avx avx2 fma avx512f`). Scaled CPU seconds are
/// the CPU seconds the same work would take there at that speed.
pub const PROBE_REFERENCE_S: f64 = 0.0125;

/// Iterations of the probe's loop per thread.
const PROBE_ITERATIONS: u64 = 4_000_000;

/// Every probe's CPU seconds per thread, for the run's summary.
static PROBES: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// The probe's loop: eight independent multiply-xorshift chains, so it
/// keeps the integer units busy the way throughput-bound code does. A
/// single dependent chain is latency-bound and barely slows when the host
/// is loaded; this loop slowed with `prepare_higgs` and the forward pass
/// (their ratio to it stayed within ±2 % over a minute in which they
/// themselves moved by ±10 %).
fn probe_kernel() -> u64 {
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..PROBE_ITERATIONS {
        for x in lanes.iter_mut() {
            *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (*x >> 29);
        }
    }
    lanes.iter().fold(0, |acc, x| acc ^ x)
}

/// Run the probe on `nproc` threads at once; returns its CPU seconds per
/// thread.
pub fn probe_s() -> f64 {
    let threads = nproc();
    let clock = Stopwatch::start();
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| std::hint::black_box(probe_kernel()));
        }
        std::hint::black_box(probe_kernel());
    });
    let per_thread = clock.cpu_s() / threads as f64;
    PROBES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(per_thread);
    per_thread
}

/// The median and the range of every probe of the run, and their count.
pub fn probe_summary() -> Option<(f64, f64, f64, usize)> {
    let mut probes = PROBES.lock().unwrap_or_else(|e| e.into_inner()).clone();
    if probes.is_empty() {
        return None;
    }
    let (lo, hi) = probes.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &p| {
        (lo.min(p), hi.max(p))
    });
    let n = probes.len();
    Some((median(&mut probes), lo, hi, n))
}

/// One timed piece of work: process CPU seconds, wall seconds, and the
/// mean of the probes just before and just after it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Process CPU seconds, every thread.
    pub cpu_s: f64,
    /// Wall seconds.
    pub wall_s: f64,
    /// The probe's CPU seconds per thread around the work.
    pub probe_s: f64,
}

impl Sample {
    /// Run `work` between two probes.
    pub fn measure<T>(work: impl FnOnce() -> T) -> (T, Sample) {
        let before = probe_s();
        let clock = Stopwatch::start();
        let out = work();
        let (cpu_s, wall_s) = (clock.cpu_s(), clock.wall_s());
        let after = probe_s();
        let sample = Sample {
            cpu_s,
            wall_s,
            probe_s: (before + after) / 2.0,
        };
        (out, sample)
    }

    /// The same host speed, for other work done between the same probes.
    pub fn with_cpu_s(self, cpu_s: f64) -> Sample {
        Sample { cpu_s, ..self }
    }

    /// The CPU seconds scaled to the reference speed.
    pub fn scaled_cpu_s(&self) -> f64 {
        self.cpu_s * PROBE_REFERENCE_S / self.probe_s
    }
}
