//! The host-speed probe and CPU times scaled to the reference speed.

use perfbench::host::{Sample, PROBE_REFERENCE_S};

#[test]
fn scaled_cpu_time_is_the_cpu_time_at_the_reference_speed() {
    let at_half_speed = Sample {
        cpu_s: 0.2,
        wall_s: 0.3,
        probe_s: 2.0 * PROBE_REFERENCE_S,
    };
    assert!((at_half_speed.scaled_cpu_s() - 0.1).abs() < 1e-12);
    let other_work = at_half_speed.with_cpu_s(0.4);
    assert_eq!(other_work.probe_s, at_half_speed.probe_s);
    assert!((other_work.scaled_cpu_s() - 0.2).abs() < 1e-12);
}

#[test]
fn measure_times_the_work_between_two_probes() {
    let (sum, sample) =
        Sample::measure(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
    assert_eq!(sum, 1_999_999_000_000);
    assert!(sample.cpu_s > 0.0 && sample.wall_s > 0.0);
    assert!(sample.probe_s > 0.0 && sample.scaled_cpu_s().is_finite());
}
