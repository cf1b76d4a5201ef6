//! Load generation: an open-loop schedule with a bounded number of senders,
//! and a closed-loop capacity phase.
//!
//! Open loop: request `i` is due at `start + i / rate`, whatever happened
//! to earlier requests. Its latency counts from that due time, so a stall
//! in the target is charged to every request that was due behind it
//! instead of vanishing from the record (no coordinated omission). How
//! late each send left against its due time is reported separately: a
//! generator that cannot keep its schedule shows up there, not as a
//! silently lower offered rate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one send returned: the rows it answered, or a failure.
pub type SendOutcome = Result<usize, String>;

/// The record of one open-loop phase.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopReport {
    /// Requests scheduled (and attempted).
    pub attempted: usize,
    /// Requests that failed, were refused or answered incorrectly.
    pub failed: usize,
    /// First failure message, for the log.
    pub first_failure: Option<String>,
    /// Latency of request `i` from its due time to its completion,
    /// milliseconds, in request order. Failed requests are included: they
    /// miss any limit.
    pub latency_ms: Vec<f64>,
    /// Lateness of request `i`'s send against its due time, milliseconds,
    /// in request order.
    pub late_ms: Vec<f64>,
    /// Most requests that were ever in flight at once.
    pub max_in_flight: usize,
}

/// Send `n_requests` at a fixed `rate_per_s` from `senders` threads. Each
/// thread takes the next request index, sleeps until it is due, and calls
/// `send(index)`; at most `senders` requests are in flight at once.
pub fn open_loop<F>(n_requests: usize, rate_per_s: f64, senders: usize, send: F) -> OpenLoopReport
where
    F: Fn(usize) -> SendOutcome + Sync,
{
    assert!(rate_per_s > 0.0, "offered rate must be positive");
    assert!(senders > 0, "need at least one sender");
    let next = AtomicUsize::new(0);
    let in_flight = AtomicUsize::new(0);
    let max_in_flight = AtomicUsize::new(0);
    let merged = Mutex::new(OpenLoopReport {
        latency_ms: vec![0.0; n_requests],
        late_ms: vec![0.0; n_requests],
        ..Default::default()
    });
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..senders {
            scope.spawn(|| {
                let mut local = OpenLoopReport::default();
                let mut timings = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_requests {
                        break;
                    }
                    let due = start + Duration::from_secs_f64(i as f64 / rate_per_s);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let current = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    max_in_flight.fetch_max(current, Ordering::SeqCst);
                    let outcome = send(i);
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    let done = Instant::now();
                    local.attempted += 1;
                    if let Err(message) = outcome {
                        local.failed += 1;
                        local.first_failure.get_or_insert(message);
                    }
                    timings.push((
                        i,
                        done.duration_since(due).as_secs_f64() * 1e3,
                        sent.duration_since(due).as_secs_f64() * 1e3,
                    ));
                }
                let mut all = merged.lock().expect("a sender panicked");
                all.attempted += local.attempted;
                all.failed += local.failed;
                if all.first_failure.is_none() {
                    all.first_failure = local.first_failure;
                }
                for (i, latency, late) in timings {
                    all.latency_ms[i] = latency;
                    all.late_ms[i] = late;
                }
            });
        }
    });
    let mut report = merged.into_inner().expect("a sender panicked");
    report.max_in_flight = max_in_flight.load(Ordering::SeqCst);
    report
}

/// The record of one closed-loop phase.
#[derive(Debug, Clone, Default)]
pub struct ClosedLoopReport {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests that failed or were answered incorrectly.
    pub failed: usize,
    /// First failure message, for the log.
    pub first_failure: Option<String>,
    /// Rows answered correctly.
    pub rows: usize,
    /// Wall time of the phase.
    pub elapsed: Duration,
}

/// Run `clients` threads that send back to back until `n_requests` have
/// been sent; `send(client, index)` performs request `index`. A fixed
/// request count, rather than a fixed duration, keeps the work (and any
/// per-request growth of the process) the same on a fast and a slow host.
pub fn closed_loop<F>(clients: usize, n_requests: usize, send: F) -> ClosedLoopReport
where
    F: Fn(usize, usize) -> SendOutcome + Sync,
{
    assert!(clients > 0, "need at least one client");
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(ClosedLoopReport::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let (send, merged, next) = (&send, &merged, &next);
            scope.spawn(move || {
                let mut local = ClosedLoopReport::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_requests {
                        break;
                    }
                    local.attempted += 1;
                    match send(client, i) {
                        Ok(rows) => local.rows += rows,
                        Err(message) => {
                            local.failed += 1;
                            local.first_failure.get_or_insert(message);
                        }
                    }
                }
                let mut all = merged.lock().expect("a client panicked");
                all.attempted += local.attempted;
                all.failed += local.failed;
                all.rows += local.rows;
                if all.first_failure.is_none() {
                    all.first_failure = local.first_failure;
                }
            });
        }
    });
    let mut report = merged.into_inner().expect("a client panicked");
    report.elapsed = start.elapsed();
    report
}
