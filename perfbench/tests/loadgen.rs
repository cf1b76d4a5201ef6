//! The open-loop generator's contract: latency counts from the scheduled
//! send time, lateness is reported, in-flight requests stay within `nproc`,
//! and the tail percentile keeps ten samples beyond it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

use perfbench::loadgen::{closed_loop, open_loop};
use perfbench::report::nproc;
use perfbench::stats::{median, percentile, sorted, tail, windowed_percentile};

/// A target that stalls for `STALL` on its first request while holding the
/// lock every request needs, like a server whose only worker froze.
const STALL: Duration = Duration::from_millis(150);
const SPACING_MS: f64 = 5.0;

#[test]
fn a_stall_is_charged_to_the_requests_due_behind_it() {
    let lock = Mutex::new(());
    let report = open_loop(40, 1e3 / SPACING_MS, 2, |i| {
        let _guard = lock.lock().unwrap();
        if i == 0 {
            std::thread::sleep(STALL);
        }
        Ok(1)
    });
    assert_eq!(report.attempted, 40);
    assert_eq!(report.failed, 0);
    // Requests due in the first half of the stall could only finish after
    // it ended, so each waited at least half the stall from its due time.
    // Timing from the send instead would hide all but the two in flight.
    let due_in_first_half = (STALL.as_secs_f64() * 1e3 / 2.0 / SPACING_MS) as usize;
    let half_stall_ms = STALL.as_secs_f64() * 1e3 / 2.0;
    let charged = report
        .latency_ms
        .iter()
        .filter(|&&ms| ms >= half_stall_ms)
        .count();
    assert!(
        charged >= due_in_first_half,
        "only {charged} requests carry the stall; {due_in_first_half} were due during its first half"
    );
}

#[test]
fn generator_lateness_is_reported() {
    let lock = Mutex::new(());
    let report = open_loop(40, 1e3 / SPACING_MS, 2, |i| {
        let _guard = lock.lock().unwrap();
        if i == 0 {
            std::thread::sleep(STALL);
        }
        Ok(1)
    });
    // Both senders were blocked by the stall, so requests due while they
    // were busy left late, and the report says by how much.
    assert_eq!(report.late_ms.len(), 40);
    let late = report.late_ms.iter().filter(|&&ms| ms >= 40.0).count();
    assert!(
        late >= 5,
        "only {late} sends reported as late: {:?}",
        report.late_ms
    );
    assert!(percentile(&sorted(&report.late_ms), 99.0).0 >= 40.0);
}

#[test]
fn in_flight_requests_never_exceed_nproc() {
    let senders = nproc();
    let inside = AtomicUsize::new(0);
    let most = AtomicUsize::new(0);
    // Far more offered load than the target can take, so every sender is
    // busy and a generator without a bound would pile requests up.
    let report = open_loop(200, 1e6, senders, |_| {
        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
        most.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(Duration::from_micros(200));
        inside.fetch_sub(1, Ordering::SeqCst);
        Ok(1)
    });
    assert_eq!(report.attempted, 200);
    assert!(report.max_in_flight <= senders, "{}", report.max_in_flight);
    assert!(most.load(Ordering::SeqCst) <= senders);
}

#[test]
fn closed_loop_keeps_one_request_per_client_in_flight() {
    let clients = nproc();
    let inside = AtomicUsize::new(0);
    let most = AtomicUsize::new(0);
    let started = Barrier::new(clients);
    // Each client's first request waits for every client to start, so the
    // clients really do overlap.
    let report = closed_loop(clients, 200, |_, i| {
        if i < clients {
            started.wait();
        }
        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
        most.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(Duration::from_micros(100));
        inside.fetch_sub(1, Ordering::SeqCst);
        Ok(3)
    });
    assert!(most.load(Ordering::SeqCst) <= clients);
    assert_eq!(report.attempted, 200);
    assert_eq!(report.rows, 3 * 200);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    let samples = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
    assert_eq!(tail(&samples(10_000)), Some((99.9, 9990.0)));
    assert_eq!(tail(&samples(1000)), Some((99.0, 990.0)));
    assert_eq!(tail(&samples(999)), Some((95.0, 950.0)));
    assert_eq!(tail(&samples(100)), Some((90.0, 90.0)));
    assert_eq!(tail(&samples(20)), Some((50.0, 10.0)));
    assert_eq!(tail(&samples(19)), None);
    assert_eq!(tail(&[]), None);
    // Exactly ten samples lie beyond each reported percentile at the edge.
    assert_eq!(percentile(&samples(1000), 99.0), (990.0, 10));
    assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
}

#[test]
fn windowed_percentiles_take_the_median_of_windows() {
    // Three windows of 1000; one holds a burst of slow requests.
    let mut values: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
    for v in &mut values[1000..1100] {
        *v = 1e6;
    }
    let (p99, windows) = windowed_percentile(&values, 1000, 99.0).unwrap();
    assert_eq!(windows, vec![989.0, 1e6, 989.0]);
    // The burst owns its window's p99 but not the median of the three.
    assert_eq!(p99, 989.0);
    assert_eq!(windowed_percentile(&values[..999], 1000, 99.0), None);
}
