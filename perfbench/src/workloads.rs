//! The three workloads: `train_higgs`, `gateway_row` and `cluster_block`.
//!
//! Every workload sets up `SETUP_WARMUPS` times untimed, then at least
//! `SETUP_REPEATS` times timed, then measures for the run's `--seconds`,
//! split into fixed shares per phase. The gated phases (fits, evaluation
//! forwards, the closed loop and more timed set-ups) run in two rounds, one
//! before and one after the open loop, so that their samples span the run.
//! Every gated time or rate is the median over its samples of CPU time
//! scaled to a fixed host speed (see [`crate::host`]).
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! sets up once through the traced compositions, repeats its open-loop
//! phase untraced and traced (the difference is the tracing overhead),
//! probes every layer and reports the per-layer metrics.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bcpnn_bench::{build_estimator, build_network, build_trainer, prepare_higgs};
use bcpnn_bench::{BcpnnRunConfig, HiggsDataConfig, HiggsExperimentData};
use bcpnn_cluster::{
    BackendConfig, BackendNode, ClusterConfig, ClusterRouter, RouterHttp, RouterHttpConfig,
};
use bcpnn_core::model::Predictor;
use bcpnn_core::{EvalReport, Network, Pipeline, ReadoutKind, Workspace};
use bcpnn_gateway::{client, Gateway, GatewayConfig};
use bcpnn_lowprec::{QuantPrecision, QuantizedPipeline};
use bcpnn_serve::{
    CascadeModel, CascadeStats, MetricsSnapshot, ModelRegistry, ServeTarget, ServedModel,
    ShardConfig, ShardedServer,
};
use bcpnn_tensor::Matrix;

use crate::host::Sample;
use crate::layers::{self, block, parse_predictions, same_predictions};
use crate::loadgen::{closed_loop, open_loop, OpenLoopReport, SendOutcome};
use crate::models::{self, same_bits, Recipe};
use crate::report::{nproc, proc_status_mb, proc_threads, Report};
use crate::stats::{median, percentile, sorted, tail, windowed_percentile};
use crate::trace::Tracer;

/// Untimed set-ups before the timed ones. The first few set-ups in a process
/// run slower (measured: 0.07 s falling to 0.045 s of CPU over the first
/// five `prepare_higgs` calls) while the allocator adapts its thresholds.
pub const SETUP_WARMUPS: usize = 5;
/// Fewest timed set-ups before the first phase.
pub const SETUP_REPEATS: usize = 9;
/// Timed set-ups continue until this much wall time has passed, so a cheap
/// set-up (`train_higgs`: about 0.05 s) gets a larger sample.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// Timed set-ups in each later burst: `train_higgs` takes one burst after
/// every fit and one after each round, the serving workloads one after
/// each round.
const TRAIN_SETUP_BURST: usize = 4;
/// See [`TRAIN_SETUP_BURST`].
const SERVING_SETUP_BURST: usize = 2;

/// The gated phases run in this many rounds, spread over the run.
const ROUNDS: usize = 2;
/// Closed-loop slices per round, each timed on its own.
const CLOSED_SLICES: usize = 10;
/// Fewest fits per round of `train_higgs`.
const FITS_PER_ROUND: usize = 2;

/// Fixed offered rates of the open-loop phases, requests per second: between
/// a quarter and a half of each workload's closed-loop capacity on a 2-core
/// box, depending on how much CPU the host leaves the guest. Nearer the
/// capacity, the queue grows whenever the host slows.
pub const TRAIN_HIGGS_RATE: f64 = 200.0;
/// See [`TRAIN_HIGGS_RATE`].
pub const GATEWAY_ROW_RATE: f64 = 200.0;
/// See [`TRAIN_HIGGS_RATE`].
pub const CLUSTER_BLOCK_RATE: f64 = 150.0;

/// Rows per in-process request of `train_higgs`'s serving phases.
const TRAIN_HIGGS_BLOCK: usize = 64;

/// The p99 latency limits the open-loop phases are held to, milliseconds.
pub const TRAIN_HIGGS_P99_LIMIT_MS: f64 = 25.0;
/// See [`TRAIN_HIGGS_P99_LIMIT_MS`].
pub const GATEWAY_ROW_P99_LIMIT_MS: f64 = 25.0;
/// See [`TRAIN_HIGGS_P99_LIMIT_MS`].
pub const CLUSTER_BLOCK_P99_LIMIT_MS: f64 = 40.0;

/// How a workload splits `--seconds` between its phases.
#[derive(Debug, Clone, Copy)]
struct Shares {
    /// Repeated fits (`train_higgs` only).
    fit: f64,
    /// Repeated whole-set forwards.
    eval: f64,
    /// The open-loop phase.
    open: f64,
    /// The closed-loop phase.
    closed: f64,
}

// The open loop's share only needs to hold one window of
// `MIN_P99_SAMPLES` at the offered rate; the rest goes to the gated phases.
const TRAIN_SHARES: Shares = Shares {
    fit: 0.45,
    eval: 0.1,
    open: 0.3,
    closed: 0.15,
};

const SERVING_SHARES: Shares = Shares {
    fit: 0.0,
    eval: 0.15,
    open: 0.35,
    closed: 0.5,
};

/// Fewest open-loop samples for which a 99th percentile has ten samples
/// beyond it.
const MIN_P99_SAMPLES: usize = 1000;

/// Seed of the served models' training data, weights and calibration
/// split: the deployed models stay the same from run to run, like
/// `heavy_pipeline` in the serving benches, while `--seed` draws the
/// traffic and the held-out evaluation rows.
const MODEL_SEED: u64 = 5;

/// Held-out split salts, so each split draws its own seed stream.
const EVAL_SALT: u64 = 0xe7a1;
const REQUEST_SALT: u64 = 0x5e9d;
const CALIBRATION_SALT: u64 = 0xca1b;

/// Iterations of each per-layer probe in the traced run.
const PROBE_ITERS: usize = 200;
/// Blocks in the serving probe: enough for a 99th percentile.
const SERVE_PROBE_ITERS: usize = MIN_P99_SAMPLES;

/// The workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["train_higgs", "gateway_row", "cluster_block"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

impl RunConfig {
    fn phase(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// One round's part of a gated phase.
    fn round(&self, share: f64) -> Duration {
        self.phase(share / ROUNDS as f64)
    }
}

/// Run one workload; the tracer is returned for the span file.
pub fn run(config: &RunConfig) -> (Report, Tracer) {
    let tracer = Tracer::new();
    let mut report = Report::default();
    match config.workload.as_str() {
        "train_higgs" => train_higgs(config, &tracer, &mut report),
        "gateway_row" => serving(config, Front::Gateway, &tracer, &mut report),
        "cluster_block" => serving(config, Front::Cluster, &tracer, &mut report),
        other => report.problem(format!("unknown workload {other:?}")),
    }
    (report, tracer)
}

/// Samples of work done per CPU-second: the gated median over samples of
/// work per scaled CPU-second, and alongside it, not gated, the medians of
/// work per CPU-second and per wall second.
#[derive(Debug, Default)]
struct Rates {
    /// Work done in each sample, and the sample.
    samples: Vec<(f64, Sample)>,
}

impl Rates {
    fn push(&mut self, work: f64, sample: Sample) {
        self.samples.push((work, sample));
    }

    fn each(&self, time: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(|(w, s)| w / time(s)).collect()
    }

    /// Report `name` and its medians; `wall` names the wall-clock rate,
    /// where there is one.
    fn report(&self, report: &mut Report, name: &'static str, wall: Option<&'static str>) {
        let mut scaled = self.each(Sample::scaled_cpu_s);
        let mut cpu = self.each(|s| s.cpu_s);
        eprintln!(
            "perfbench: {name}: {} samples, per scaled CPU-second {scaled:.0?}, \
             per CPU-second {cpu:.0?}",
            scaled.len()
        );
        if scaled.is_empty() {
            return report.problem(format!("no samples for {name}"));
        }
        report.metric(name, median(&mut scaled), "rows/cpu_s");
        report.info(format!("{name}.unscaled"), median(&mut cpu), "rows/cpu_s");
        if let Some(wall) = wall {
            report.info(wall, median(&mut self.each(|s| s.wall_s)), "1/s");
        }
    }
}

/// Repeat `f` until `budget` has passed and it ran at least `min` times,
/// or until it returns `false`.
fn repeat_for(budget: Duration, min: usize, mut f: impl FnMut() -> bool) {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed() < budget {
        if !f() {
            return;
        }
        n += 1;
    }
}

// ---------------------------------------------------------------------------
// Open- and closed-loop phases shared by every workload.
// ---------------------------------------------------------------------------

/// How one workload's requests are sent and checked.
struct Load<'a> {
    /// Rows per request.
    rows: usize,
    /// Offered rate of the open-loop phase, requests per second.
    rate: f64,
    /// The p99 limit, milliseconds.
    p99_limit_ms: f64,
    /// Requests per second the closed loop sustains on a quiet 2-core box;
    /// sizes its fixed request count to about its share of `--seconds`.
    closed_rate: f64,
    /// Send request `i` and check its reply.
    send: &'a (dyn Fn(usize) -> SendOutcome + Sync),
}

fn open_phase(load: &Load<'_>, duration: Duration, tracer: Option<&Tracer>) -> OpenLoopReport {
    let n = (load.rate * duration.as_secs_f64()).round() as usize;
    match tracer {
        None => open_loop(n, load.rate, nproc(), load.send),
        Some(tracer) => open_loop(n, load.rate, nproc(), |i| {
            let run = tracer.request_id();
            tracer.time("loadgen.request", run, None, || (load.send)(i))
        }),
    }
}

fn log_open(label: &str, load: &Load<'_>, open: &OpenLoopReport) {
    let latency = sorted(&open.latency_ms);
    let tail_note =
        tail(&latency).map_or("none".to_string(), |(pct, v)| format!("p{pct} {v:.3} ms"));
    eprintln!(
        "perfbench: {label}: {} requests at {} req/s, {} failed, max in flight {}, \
         whole-phase p50 {:.3} ms, highest supported tail {tail_note}, late p99 {:.3} ms",
        open.attempted,
        load.rate,
        open.failed,
        open.max_in_flight,
        percentile(&latency, 50.0).0,
        percentile(&sorted(&open.late_ms), 99.0).0
    );
}

fn account(report: &mut Report, attempted: usize, failed: usize, first: &Option<String>) {
    report.attempted += attempted;
    report.failed += failed;
    if let Some(message) = first {
        report.problem(format!("request failed: {message}"));
    }
}

/// The open-loop `p50_ms` and `p99_ms`: medians over consecutive windows
/// of at least [`MIN_P99_SAMPLES`] requests of each window's percentile;
/// not a number when the phase took fewer.
fn open_percentiles(open: &OpenLoopReport) -> (f64, f64) {
    let p50 = windowed_percentile(&open.latency_ms, MIN_P99_SAMPLES, 50.0);
    let p99 = windowed_percentile(&open.latency_ms, MIN_P99_SAMPLES, 99.0);
    match (p50, p99) {
        (Some((p50, p50s)), Some((p99, p99s))) => {
            eprintln!(
                "perfbench: {} samples in {} windows: p50 {p50:.3} ms (windows {p50s:.3?}), \
                 p99 {p99:.3} ms (windows {p99s:.3?})",
                open.latency_ms.len(),
                p50s.len()
            );
            (p50, p99)
        }
        _ => {
            eprintln!(
                "perfbench: the open loop took {} samples; a p99 needs {MIN_P99_SAMPLES}",
                open.latency_ms.len()
            );
            (f64::NAN, f64::NAN)
        }
    }
}

/// The untraced open loop at the fixed rate: `p50_ms` and `p99_ms`.
fn measure_open(config: &RunConfig, shares: Shares, load: &Load<'_>, report: &mut Report) {
    let open = open_phase(load, config.phase(shares.open), None);
    log_open("open loop", load, &open);
    account(report, open.attempted, open.failed, &open.first_failure);
    if open.max_in_flight > nproc() {
        report.problem("the load generator exceeded nproc requests in flight");
    }
    let (p50, p99) = open_percentiles(&open);
    eprintln!(
        "perfbench: p99 {p99:.3} ms against a {} ms limit: {}",
        load.p99_limit_ms,
        if p99 <= load.p99_limit_ms {
            "met"
        } else {
            "MISSED"
        }
    );
    report.info("p50_ms", p50, "ms");
    report.info("p99_ms", p99, "ms");
    report.info("open_loop_samples", open.latency_ms.len() as f64, "count");
}

/// The closed loop, `nproc` clients sending back to back, in slices of a
/// fixed request count: `serve_rows_per_cpu_s` and `peak_rows_per_s`.
#[derive(Debug, Default)]
struct ClosedSampler {
    /// Requests sent so far; the next slice continues the request order.
    sent: usize,
    /// Rows answered in each slice.
    rates: Rates,
}

impl ClosedSampler {
    /// One round's part of the closed loop: [`CLOSED_SLICES`] slices that
    /// together take about the round's share of `--seconds` on a quiet box.
    fn round(&mut self, config: &RunConfig, shares: Shares, load: &Load<'_>, report: &mut Report) {
        let n = config.round(shares.closed).as_secs_f64() * load.closed_rate / CLOSED_SLICES as f64;
        let n = (n.round() as usize).max(nproc());
        for _ in 0..CLOSED_SLICES {
            let base = self.sent;
            let (slice, sample) = Sample::measure(|| {
                closed_loop(nproc(), n, |_, i| {
                    (load.send)((base + i).wrapping_mul(7919))
                })
            });
            self.sent += n;
            account(report, slice.attempted, slice.failed, &slice.first_failure);
            self.rates.push(slice.rows as f64, sample);
        }
    }

    fn finish(self, report: &mut Report) {
        eprintln!(
            "perfbench: closed loop: {} requests from {} clients in {} slices",
            self.sent,
            nproc(),
            self.rates.samples.len()
        );
        self.rates
            .report(report, "serve_rows_per_cpu_s", Some("peak_rows_per_s"));
    }
}

/// The traced run's load: the open-loop phase untraced, then traced; the
/// difference in median latency is the tracing overhead.
fn trace_load(
    config: &RunConfig,
    shares: Shares,
    load: &Load<'_>,
    tracer: &Tracer,
    report: &mut Report,
) {
    let plain = open_phase(load, config.phase(shares.open / 2.0), None);
    log_open("open loop, untraced", load, &plain);
    let traced = open_phase(load, config.phase(shares.open / 2.0), Some(tracer));
    log_open("open loop, traced", load, &traced);
    for phase in [&plain, &traced] {
        account(report, phase.attempted, phase.failed, &phase.first_failure);
    }
    let p50 = |o: &OpenLoopReport| percentile(&sorted(&o.latency_ms), 50.0).0;
    report.metric("trace.overhead_p50_ms", p50(&traced) - p50(&plain), "ms");
    report.metric(
        "loadgen.late_p99_ms",
        percentile(&sorted(&plain.late_ms), 99.0).0,
        "ms",
    );
}

/// Repeated whole-set batch forwards, in slices: `eval_rows_per_cpu_s`;
/// every output must equal the first bit for bit.
struct EvalSampler<'a> {
    predictor: &'a dyn Predictor,
    x: &'a Matrix<f32>,
    ws: Workspace,
    out: Matrix<f32>,
    first: Option<Matrix<f32>>,
    /// Rows forwarded in each forward.
    rates: Rates,
}

impl<'a> EvalSampler<'a> {
    fn new(predictor: &'a dyn Predictor, x: &'a Matrix<f32>) -> Self {
        Self {
            predictor,
            x,
            ws: Workspace::new(),
            out: Matrix::zeros(0, 0),
            first: None,
            rates: Rates::default(),
        }
    }

    /// Forward the whole set until `budget` has passed, at least twice.
    fn slice(&mut self, budget: Duration, report: &mut Report) {
        repeat_for(budget, 2, || {
            let (result, sample) = Sample::measure(|| {
                self.predictor
                    .predict_proba_into(self.x, &mut self.ws, &mut self.out)
            });
            self.rates.push(self.x.rows() as f64, sample);
            report.attempted += 1;
            match (result, &self.first) {
                (Err(e), _) => {
                    report.failed += 1;
                    report.problem(format!("evaluation forward failed: {e}"));
                    return false;
                }
                (Ok(()), None) => self.first = Some(self.out.clone()),
                (Ok(()), Some(f)) => report.check(models::same_matrix(f, &self.out), || {
                    "repeated evaluation forwards differ".into()
                }),
            }
            true
        });
    }

    /// Report the rates; returns the first output.
    fn finish(self, report: &mut Report) -> Matrix<f32> {
        eprintln!(
            "perfbench: {} evaluation forwards of {} rows",
            self.rates.samples.len(),
            self.x.rows()
        );
        self.rates
            .report(report, "eval_rows_per_cpu_s", Some("eval_rows_per_s"));
        self.first.unwrap_or_default()
    }
}

/// The timed set-ups of one run.
#[derive(Debug, Default)]
struct Setups {
    samples: Vec<Sample>,
}

impl Setups {
    /// Time `set_up` until `budget` has passed and it ran at least `min`
    /// times, or until it returns `false`.
    fn burst(&mut self, budget: Duration, min: usize, mut set_up: impl FnMut() -> bool) {
        repeat_for(budget, min, || {
            let (ok, sample) = Sample::measure(&mut set_up);
            self.samples.push(sample);
            ok
        });
    }

    /// `setup_s`: the median set-up in scaled CPU seconds of the process,
    /// which count the work done and not the time the host gave to other
    /// guests. The medians of the unscaled CPU and the wall time are
    /// printed alongside.
    fn report(&self, report: &mut Report) {
        let each =
            |time: fn(&Sample) -> f64| -> Vec<f64> { self.samples.iter().map(time).collect() };
        let (mut scaled, mut cpu, mut wall) = (
            each(Sample::scaled_cpu_s),
            each(|s| s.cpu_s),
            each(|s| s.wall_s),
        );
        eprintln!(
            "perfbench: set-ups, scaled CPU-s {scaled:.4?}, CPU-s {cpu:.4?}, wall s {wall:.4?}"
        );
        if scaled.is_empty() {
            return report.problem("no timed set-ups");
        }
        report.metric("setup_s", median(&mut scaled), "s");
        report.info("setup_s.unscaled", median(&mut cpu), "s");
        report.info("setup_wall_s", median(&mut wall), "s");
    }
}

fn quality(report: &mut Report, proba: &Matrix<f32>, labels: &[usize]) -> EvalReport {
    let eval = EvalReport::from_probabilities(proba, labels);
    report.metric("accuracy", eval.accuracy, "fraction");
    report.metric("auc", eval.auc, "fraction");
    eval
}

fn process_metrics(report: &mut Report) {
    report.metric(
        "peak_rss_mb",
        proc_status_mb("VmHWM").unwrap_or(f64::NAN),
        "MB",
    );
}

fn layer_median(tracer: &Tracer, span: &str) -> f64 {
    let mut durations = tracer.durations_us(span);
    if durations.is_empty() {
        f64::NAN
    } else {
        median(&mut durations)
    }
}

fn layer_total_s(tracer: &Tracer, span: &str) -> f64 {
    tracer.durations_us(span).iter().sum::<f64>() / 1e6
}

/// Per-layer metrics read off the spans and counters.
fn layer_metrics(tracer: &Tracer, report: &mut Report) {
    report.metric(
        "data.generate_s",
        layer_total_s(tracer, "data.generate"),
        "s",
    );
    report.metric("data.encode_s", layer_total_s(tracer, "data.encode"), "s");
    for (metric, span) in [
        ("train.hidden_step_us", "train.hidden_step"),
        ("train.hidden_forward_us", "train.hidden_forward"),
        ("train.bcpnn_readout_step_us", "train.bcpnn_readout_step"),
        ("train.sgd_step_us", "train.sgd_step"),
    ] {
        report.metric(metric, layer_median(tracer, span), "us");
    }
    report.metric(
        "train.plasticity_ms",
        layer_median(tracer, "train.plasticity") / 1e3,
        "ms",
    );
    report.metric(
        "train.plasticity_swaps",
        tracer.counter("train.plasticity_swaps") as f64,
        "count",
    );
    for shape in &layers::CORE_SHAPES {
        for (metric, span) in shape.metrics.iter().zip(&shape.spans) {
            report.metric(*metric, layer_median(tracer, span), "us");
        }
    }
    report.metric(
        "eval.predict_us",
        layer_median(tracer, "eval.predict"),
        "us",
    );
    for (metric, span) in [
        ("lowprec.hidden_forward_us", "lowprec.hidden_forward"),
        ("lowprec.predict_us", "lowprec.predict"),
        ("cascade.predict_us", "cascade.predict"),
        ("gateway.read_request_us", "gateway.read_request"),
        ("gateway.parse_rows_us", "gateway.parse_rows"),
        ("gateway.render_us", "gateway.render"),
        ("cluster.wire_encode_us", "cluster.wire_encode"),
        ("cluster.wire_decode_us", "cluster.wire_decode"),
    ] {
        report.metric(metric, layer_median(tracer, span), "us");
    }
    let mut replies = tracer.durations_us("serve.submit_to_reply");
    replies.sort_by(f64::total_cmp);
    let (p50, p99) = if replies.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (percentile(&replies, 50.0).0, percentile(&replies, 99.0).0)
    };
    report.metric("serve.submit_to_reply_us.p50", p50, "us");
    report.metric("serve.submit_to_reply_us.p99", p99, "us");
    report.metric("proc.threads", proc_threads().unwrap_or(f64::NAN), "count");
    report.metric(
        "proc.vm_size_mb",
        proc_status_mb("VmSize").unwrap_or(f64::NAN),
        "MB",
    );
}

/// Serving-stack counters: batches from `MetricsSnapshot`, cascade routing
/// from `CascadeStats`, sheds and fan-out from the fronts.
fn stack_metrics(
    report: &mut Report,
    serve: &MetricsSnapshot,
    cascades: &[Arc<CascadeStats>],
    shed: u64,
    cluster: Option<&ClusterRouter>,
) {
    report.metric("serve.mean_batch_rows", serve.mean_batch_size, "rows");
    report.metric("serve.batches", serve.batches as f64, "count");
    report.metric("serve.expired", serve.expired as f64, "count");
    let cheap: u64 = cascades.iter().map(|s| s.cheap_hits()).sum();
    let escalated: u64 = cascades.iter().map(|s| s.escalations()).sum();
    report.metric(
        "cascade.cheap_share",
        cheap as f64 / (cheap + escalated).max(1) as f64,
        "fraction",
    );
    report.metric("gateway.shed", shed as f64, "count");
    let text = cluster.map(|r| r.cluster_metrics().to_prometheus());
    let counter = |name: &str| {
        text.as_deref().map_or(0.0, |t| {
            t.lines()
                .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
                .unwrap_or(f64::NAN)
        })
    };
    report.metric(
        "cluster.fanout",
        counter("bcpnn_cluster_fanouts_total "),
        "count",
    );
    report.metric(
        "cluster.retries",
        counter("bcpnn_cluster_retries_total "),
        "count",
    );
    report.metric(
        "cluster.failovers",
        counter("bcpnn_cluster_failovers_total "),
        "count",
    );
}

/// An int8 copy of `full` and a cascade over it, calibrated on a held-out
/// split: the per-layer probes' low-precision tiers for workloads that do
/// not serve a cascade themselves.
fn probe_cascade_over(
    full: &Pipeline,
    seed: u64,
) -> Result<(QuantizedPipeline, CascadeModel), String> {
    let quantize = || QuantizedPipeline::quantize(full, QuantPrecision::Int8);
    let cheap = quantize().map_err(|e| e.to_string())?;
    let calibration = models::holdout(seed, CALIBRATION_SALT, 800);
    let threshold =
        models::calibrated_threshold(&cheap, &calibration.features).map_err(|e| e.to_string())?;
    let cascade = CascadeModel::new(
        "probe",
        Box::new(quantize().map_err(|e| e.to_string())?),
        Box::new(full.clone()),
        threshold,
    )
    .map_err(|e| e.to_string())?;
    Ok((cheap, cascade))
}

// ---------------------------------------------------------------------------
// train_higgs
// ---------------------------------------------------------------------------

/// The repeated fits of `train_higgs`.
#[derive(Default)]
struct Fits {
    /// The first fit's network; every later fit must equal it.
    trained: Option<Network>,
    /// Training rows × epochs of each fit.
    rates: Rates,
}

impl Fits {
    fn finish(&self, report: &mut Report) {
        self.rates
            .report(report, "train_rows_per_cpu_s", Some("train_rows_per_s"));
    }
}

fn paper_config() -> BcpnnRunConfig {
    BcpnnRunConfig {
        n_hcu: 32,
        n_mcu: 32,
        receptive_field: 0.4,
        unsupervised_epochs: 1,
        supervised_epochs: 2,
        readout: ReadoutKind::Hybrid,
        ..Default::default()
    }
}

fn train_higgs(config: &RunConfig, tracer: &Tracer, report: &mut Report) {
    let data_config = HiggsDataConfig {
        seed: config.seed,
        ..Default::default()
    };
    let run = paper_config();
    let seed = config.seed;

    let mut setups = Setups::default();
    let mut data: Option<HiggsExperimentData> = None;
    if config.trace {
        data = Some(models::prepare_higgs_traced(&data_config, tracer));
    } else {
        for _ in 0..SETUP_WARMUPS {
            prepare_higgs(&data_config);
        }
        setups.burst(SETUP_BUDGET, SETUP_REPEATS, || {
            data = Some(prepare_higgs(&data_config));
            true
        });
    }
    let data = data.expect("at least one set-up ran");
    // A later burst of set-ups, between two phases of an untraced run.
    let more_setups = |setups: &mut Setups| {
        if !config.trace {
            setups.burst(Duration::ZERO, TRAIN_SETUP_BURST, || {
                drop(prepare_higgs(&data_config));
                true
            });
        }
    };
    if config.trace {
        let reference = prepare_higgs(&data_config);
        report.check(
            models::same_matrix(&reference.x_train, &data.x_train)
                && models::same_matrix(&reference.x_test, &data.x_test)
                && reference.y_train == data.y_train
                && reference.y_test == data.y_test,
            || "traced data preparation differs from prepare_higgs".into(),
        );
    }
    let width = data.encoded_width();
    let row_epochs = data.x_train.rows() * (run.unsupervised_epochs + run.supervised_epochs);

    // Training: the bench harness's estimator, repeated for a round's
    // budget, with a burst of set-ups after every fit.
    let mut fits = Fits::default();
    let fit_round = |budget: Duration,
                     min: usize,
                     fits: &mut Fits,
                     setups: &mut Setups,
                     report: &mut Report| {
        repeat_for(budget, min, || {
            report.attempted += 1;
            let (fitted, sample) = Sample::measure(|| {
                build_estimator(&run, width, seed).fit_report(&data.x_train, &data.y_train)
            });
            match fitted {
                Ok((network, _)) => {
                    fits.rates.push(row_epochs as f64, sample);
                    if let Some(first) = &fits.trained {
                        report.check(models::same_network(first, &network), || {
                            "repeated fits of one seed differ".into()
                        });
                    } else {
                        fits.trained = Some(network);
                    }
                    more_setups(setups);
                    true
                }
                Err(e) => {
                    report.failed += 1;
                    report.problem(format!("training failed: {e}"));
                    false
                }
            }
        });
    };
    let fit_budget = config.round(TRAIN_SHARES.fit);
    if config.trace {
        fit_round(Duration::ZERO, 1, &mut fits, &mut setups, report);
    } else {
        fit_round(fit_budget, FITS_PER_ROUND, &mut fits, &mut setups, report);
    }
    let Some(network) = fits.trained.clone() else {
        return;
    };

    // The one-call Trainer::fit of the same seed must give the same model
    // and the same held-out quality.
    let trainer = build_trainer(&run, seed);
    let reference = models::trainer_fit(
        build_network(&run, width, seed),
        &data.x_train,
        &data.y_train,
        trainer.params(),
    );
    let evaluate = |n: &Network| n.evaluate(&data.x_test, &data.y_test);
    match (reference, evaluate(&network)) {
        (Ok(reference), Ok(eval)) => {
            let ok = models::same_network(&reference, &network)
                && evaluate(&reference).is_ok_and(|r| {
                    r.accuracy.to_bits() == eval.accuracy.to_bits()
                        && r.auc.to_bits() == eval.auc.to_bits()
                });
            report.check(ok, || {
                "the benchmark's fit differs from a one-call Trainer::fit + evaluate".into()
            });
        }
        _ => report.problem("reference Trainer::fit or evaluation failed"),
    }
    if config.trace {
        let mut composed = build_network(&run, width, seed);
        let traced = models::train_traced(
            tracer,
            &mut composed,
            &data.x_train,
            &data.y_train,
            trainer.params(),
        );
        report.check(
            traced.is_ok() && models::same_network(&composed, &network),
            || "the traced training loop differs from Trainer::fit".into(),
        );
    }

    let mut evals = EvalSampler::new(&network, &data.x_test);
    let eval_budget = config.round(TRAIN_SHARES.eval);
    if config.trace {
        layers::probe_eval(tracer, report, &network, &data.x_test, 5);
    } else {
        evals.slice(eval_budget, report);
    }

    // The trained model served in-process, one 64-row block per request.
    let pipeline = match Pipeline::new(network.clone(), Some(data.encoder.clone())) {
        Ok(p) => p,
        Err(e) => return report.problem(format!("cannot assemble the paper pipeline: {e}")),
    };
    let pool = &data.raw_test.features;
    let expected = match pipeline.predict_proba(pool) {
        Ok(p) => p,
        Err(e) => return report.problem(format!("pipeline predict failed: {e}")),
    };
    thread_local! {
        static SCRATCH: RefCell<(Workspace, Matrix<f32>)> =
            RefCell::new((Workspace::new(), Matrix::zeros(0, 0)));
    }
    let n_blocks = pool.rows() / TRAIN_HIGGS_BLOCK;
    let blocks: Vec<Matrix<f32>> = (0..n_blocks)
        .map(|i| block(pool, TRAIN_HIGGS_BLOCK, i))
        .collect();
    let send = |i: usize| -> SendOutcome {
        let b = i % n_blocks;
        SCRATCH.with(|s| {
            let (ws, out) = &mut *s.borrow_mut();
            pipeline
                .predict_proba_into(&blocks[b], ws, out)
                .map_err(|e| e.to_string())?;
            let first = b * TRAIN_HIGGS_BLOCK;
            if (0..TRAIN_HIGGS_BLOCK).all(|r| same_bits(out.row(r), expected.row(first + r))) {
                Ok(TRAIN_HIGGS_BLOCK)
            } else {
                Err(format!("block {b} differs from the whole-set predict"))
            }
        })
    };
    let load = Load {
        rows: TRAIN_HIGGS_BLOCK,
        rate: TRAIN_HIGGS_RATE,
        p99_limit_ms: TRAIN_HIGGS_P99_LIMIT_MS,
        closed_rate: 600.0,
        send: &send,
    };
    if !config.trace {
        let mut closed = ClosedSampler::default();
        closed.round(config, TRAIN_SHARES, &load, report);
        more_setups(&mut setups);
        measure_open(config, TRAIN_SHARES, &load, report);
        fit_round(fit_budget, FITS_PER_ROUND, &mut fits, &mut setups, report);
        evals.slice(eval_budget, report);
        closed.round(config, TRAIN_SHARES, &load, report);
        more_setups(&mut setups);

        fits.finish(report);
        let proba = evals.finish(report);
        quality(report, &proba, &data.y_test);
        closed.finish(report);
        setups.report(report);
        return process_metrics(report);
    }
    trace_load(config, TRAIN_SHARES, &load, tracer, report);
    let probe_server = ShardedServer::start(registry_with(pipeline.clone()), ShardConfig::new(1));
    let probe_stats = probe_layers(
        tracer,
        report,
        &Probes {
            pipeline: &pipeline,
            served: &pipeline,
            pool,
            rows: load.rows,
            lowprec: None,
            target: &probe_server,
            seed,
        },
    );
    stack_metrics(report, &probe_server.metrics(), &probe_stats, 0, None);
    layer_metrics(tracer, report);
}

// ---------------------------------------------------------------------------
// gateway_row and cluster_block
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Front {
    /// One-row requests to `Gateway` over one `ShardedServer`.
    Gateway,
    /// 64-row requests to `RouterHttp` → `ClusterRouter` → two
    /// `BackendNode`s, each serving an int8→f32 `CascadeModel`.
    Cluster,
}

fn registry_with(predictor: impl Predictor + Send + Sync + 'static) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, predictor));
    registry
}

/// The trained tiers of a serving workload.
struct Models {
    heavy: Pipeline,
    /// The compact f32 model and the escalation threshold of its int8
    /// copy (cluster only).
    compact: Option<(Pipeline, f32)>,
}

impl Models {
    fn cascade(&self, name: &str) -> Result<(CascadeModel, Arc<CascadeStats>), String> {
        let (compact, threshold) = self.compact.as_ref().ok_or("no cheap tier")?;
        let cheap = QuantizedPipeline::quantize(compact, QuantPrecision::Int8)
            .map_err(|e| e.to_string())?;
        let cascade = CascadeModel::new(
            name,
            Box::new(cheap),
            Box::new(self.heavy.clone()),
            *threshold,
        )
        .map_err(|e| e.to_string())?;
        let stats = cascade.stats();
        Ok((cascade, stats))
    }
}

/// A running serving stack.
struct Stack {
    // Fields drop in declaration order: the fronts first, then the router,
    // then the nodes and the servers behind them. `_front` and `_nodes` are
    // only held to keep serving until then.
    gateway: Option<Gateway>,
    _front: Option<RouterHttp>,
    router: Option<Arc<ClusterRouter>>,
    _nodes: Vec<BackendNode>,
    servers: Vec<Arc<ShardedServer>>,
    cascades: Vec<Arc<CascadeStats>>,
    addr: std::net::SocketAddr,
}

/// Train the served models; also returns the fits' training rows × epochs
/// and their CPU seconds.
fn train_models(front: Front, tracer: Option<&Tracer>) -> Result<(Models, (f64, f64)), String> {
    let seed = MODEL_SEED;
    let generate = |make: fn(u64) -> Recipe| match tracer {
        Some(t) => models::traced_generate(t, || make(seed)),
        None => make(seed),
    };
    let mut recipes = vec![generate(models::heavy_recipe)];
    if front == Front::Cluster {
        recipes.push(generate(models::compact_recipe));
    }
    let mut fitted = Vec::new();
    let (mut work, mut cpu_s) = (0usize, 0.0f64);
    for (k, recipe) in recipes.iter().enumerate() {
        let (pipeline, fit_cpu_s) = models::fit(recipe).map_err(|e| e.to_string())?;
        // Only the heavy tier's fit is traced, so the `train.*` spans
        // describe the same model on both serving workloads.
        if let Some(tracer) = tracer.filter(|_| k == 0) {
            let composed = models::fit_traced(recipe, tracer).map_err(|e| e.to_string())?;
            if !models::same_network(composed.network(), pipeline.network()) {
                return Err("the traced training loop differs from Pipeline::fit".into());
            }
        }
        work += recipe.row_epochs();
        cpu_s += fit_cpu_s;
        fitted.push(pipeline);
    }
    let mut fitted = fitted.into_iter();
    let heavy = fitted.next().expect("the heavy tier was trained");
    let compact = match fitted.next() {
        Some(compact) => {
            let cheap = QuantizedPipeline::quantize(&compact, QuantPrecision::Int8)
                .map_err(|e| e.to_string())?;
            let calibration = models::holdout(seed, CALIBRATION_SALT, 800);
            let threshold = models::calibrated_threshold(&cheap, &calibration.features)
                .map_err(|e| e.to_string())?;
            Some((compact, threshold))
        }
        None => None,
    };
    Ok((Models { heavy, compact }, (work as f64, cpu_s)))
}

fn start_stack(front: Front, models: &Models) -> Result<Stack, String> {
    let io = |e: std::io::Error| e.to_string();
    match front {
        Front::Gateway => {
            let server = Arc::new(ShardedServer::start(
                registry_with(models.heavy.clone()),
                ShardConfig::new(1),
            ));
            let gateway = Gateway::start(
                Arc::clone(&server) as Arc<dyn ServeTarget>,
                GatewayConfig::default(),
            )
            .map_err(io)?;
            Ok(Stack {
                addr: gateway.local_addr(),
                servers: vec![server],
                cascades: Vec::new(),
                gateway: Some(gateway),
                router: None,
                _front: None,
                _nodes: Vec::new(),
            })
        }
        Front::Cluster => {
            let mut servers = Vec::new();
            let mut cascades = Vec::new();
            let mut nodes = Vec::new();
            for node in 0..2 {
                let (cascade, stats) = models.cascade(&format!("higgs-node{node}"))?;
                let server = Arc::new(ShardedServer::start(
                    registry_with(cascade),
                    ShardConfig::new(1),
                ));
                nodes.push(
                    BackendNode::start(
                        Arc::clone(&server) as Arc<dyn ServeTarget>,
                        BackendConfig::default(),
                    )
                    .map_err(io)?,
                );
                servers.push(server);
                cascades.push(stats);
            }
            let router = Arc::new(ClusterRouter::start(ClusterConfig {
                backends: nodes.iter().map(BackendNode::local_addr).collect(),
                default_replication: 2,
                ..Default::default()
            }));
            let front =
                RouterHttp::start(Arc::clone(&router), RouterHttpConfig::default()).map_err(io)?;
            Ok(Stack {
                addr: front.local_addr(),
                servers,
                cascades,
                gateway: None,
                router: Some(router),
                _front: Some(front),
                _nodes: nodes,
            })
        }
    }
}

fn serving(config: &RunConfig, front: Front, tracer: &Tracer, report: &mut Report) {
    let seed = config.seed;
    let mut setups = Setups::default();
    let mut train_rates = Rates::default();
    let mut ready = None;
    let set_up = || {
        train_models(front, config.trace.then_some(tracer)).and_then(|(models, rate)| {
            let stack = start_stack(front, &models)?;
            Ok((models, stack, rate))
        })
    };
    let mut failure = None;
    if config.trace {
        ready = set_up().map_err(|e| failure = Some(e)).ok();
    } else {
        for _ in 0..SETUP_WARMUPS {
            if let Err(e) = set_up() {
                return report.problem(format!("set-up failed: {e}"));
            }
        }
        repeat_for(SETUP_BUDGET, SETUP_REPEATS, || {
            // Tear the previous stack down before timing the next set-up.
            drop(ready.take());
            let (built, sample) = Sample::measure(set_up);
            setups.samples.push(sample);
            match built {
                Ok(built) => {
                    let (rows, fit_cpu_s) = built.2;
                    train_rates.push(rows, sample.with_cpu_s(fit_cpu_s));
                    ready = Some(built);
                    true
                }
                Err(e) => {
                    failure = Some(e);
                    false
                }
            }
        });
    }
    if let Some(e) = failure {
        return report.problem(format!("set-up failed: {e}"));
    }
    let (models, stack, _) = ready.expect("a set-up succeeded");

    // The in-process reference: the served model, built the same way.
    let reference_cascade = match front {
        Front::Gateway => None,
        Front::Cluster => match models.cascade("higgs-reference") {
            Ok((cascade, _)) => Some(cascade),
            Err(e) => return report.problem(format!("cannot build the reference cascade: {e}")),
        },
    };
    let reference: &dyn Predictor = match &reference_cascade {
        Some(cascade) => cascade,
        None => &models.heavy,
    };
    let rows = match front {
        Front::Gateway => 1,
        Front::Cluster => 64,
    };
    let pool = models::holdout(seed, REQUEST_SALT, 2048).features;
    let n_bodies = pool.rows() / rows;
    let bodies: Vec<String> = (0..n_bodies)
        .map(|i| layers::render_rows(&block(&pool, rows, i)))
        .collect();
    let expected: Vec<Matrix<f32>> = match (0..n_bodies)
        .map(|i| reference.predict_proba(&block(&pool, rows, i)))
        .collect()
    {
        Ok(e) => e,
        Err(e) => return report.problem(format!("reference predict failed: {e}")),
    };
    let addr = stack.addr;
    let send = |i: usize| -> SendOutcome {
        let b = i % n_bodies;
        let reply = client::request(
            addr,
            "POST",
            "/v1/models/higgs/predict",
            &[],
            bodies[b].as_bytes(),
        )
        .map_err(|e| format!("request {i}: {e}"))?;
        if reply.status != 200 {
            return Err(format!("request {i}: HTTP {}", reply.status));
        }
        match parse_predictions(&reply.body_str()) {
            Some(p) if same_predictions(&p, &expected[b]) => Ok(rows),
            _ => Err(format!(
                "request {i}: reply differs from the in-process predict"
            )),
        }
    };
    let (rate, limit, closed_rate) = match front {
        Front::Gateway => (GATEWAY_ROW_RATE, GATEWAY_ROW_P99_LIMIT_MS, 600.0),
        Front::Cluster => (CLUSTER_BLOCK_RATE, CLUSTER_BLOCK_P99_LIMIT_MS, 400.0),
    };
    let load = Load {
        rows,
        rate,
        p99_limit_ms: limit,
        closed_rate,
        send: &send,
    };

    let eval = models::holdout(seed, EVAL_SALT, models::HOLDOUT_ROWS);
    if !config.trace {
        // A later burst of set-ups: a second stack, built and torn down
        // while the measured one stays up.
        let more_setups = |setups: &mut Setups, rates: &mut Rates, report: &mut Report| {
            for _ in 0..SERVING_SETUP_BURST {
                let (built, sample) = Sample::measure(set_up);
                setups.samples.push(sample);
                match built {
                    Ok((_, _, (rows, fit_cpu_s))) => rates.push(rows, sample.with_cpu_s(fit_cpu_s)),
                    Err(e) => return report.problem(format!("set-up failed: {e}")),
                }
            }
        };
        let mut evals = EvalSampler::new(reference, &eval.features);
        let mut closed = ClosedSampler::default();
        let eval_budget = config.round(SERVING_SHARES.eval);
        evals.slice(eval_budget, report);
        closed.round(config, SERVING_SHARES, &load, report);
        more_setups(&mut setups, &mut train_rates, report);
        measure_open(config, SERVING_SHARES, &load, report);
        evals.slice(eval_budget, report);
        closed.round(config, SERVING_SHARES, &load, report);
        more_setups(&mut setups, &mut train_rates, report);

        setups.report(report);
        train_rates.report(report, "train_rows_per_cpu_s", None);
        let proba = evals.finish(report);
        quality(report, &proba, &eval.labels);
        closed.finish(report);
        return process_metrics(report);
    }

    trace_load(config, SERVING_SHARES, &load, tracer, report);
    let quantized = match &models.compact {
        Some((compact, _)) => match QuantizedPipeline::quantize(compact, QuantPrecision::Int8) {
            Ok(q) => Some(q),
            Err(e) => return report.problem(format!("quantization failed: {e}")),
        },
        None => None,
    };
    let probe_stats = probe_layers(
        tracer,
        report,
        &Probes {
            pipeline: &models.heavy,
            served: reference,
            pool: &pool,
            rows,
            lowprec: quantized.as_ref().zip(reference_cascade.as_ref()),
            target: stack.servers[0].as_ref(),
            seed,
        },
    );
    if let Some(router) = &stack.router {
        layers::probe_router(tracer, report, router, reference, &pool, PROBE_ITERS);
        eprintln!(
            "perfbench: cluster.predict_rows_us {:.3}",
            layer_median(tracer, "cluster.predict_rows")
        );
    }
    let snapshots: Vec<MetricsSnapshot> = stack.servers.iter().map(|s| s.metrics()).collect();
    stack_metrics(
        report,
        &MetricsSnapshot::aggregate(&snapshots),
        if stack.cascades.is_empty() {
            &probe_stats
        } else {
            &stack.cascades
        },
        stack
            .gateway
            .as_ref()
            .map_or(0, |g| g.metrics().rejected_busy),
        stack.router.as_deref(),
    );
    layer_metrics(tracer, report);
}

/// What the per-layer probes run against.
struct Probes<'a> {
    /// The workload's f32 pipeline.
    pipeline: &'a Pipeline,
    /// The model the workload serves (the pipeline, or the cascade).
    served: &'a dyn Predictor,
    /// Raw request rows.
    pool: &'a Matrix<f32>,
    /// Rows per request.
    rows: usize,
    /// The workload's own int8 tier and cascade, when it serves one.
    lowprec: Option<(&'a QuantizedPipeline, &'a CascadeModel)>,
    /// The serving stack to submit to.
    target: &'a dyn ServeTarget,
    /// The run seed.
    seed: u64,
}

/// Run every per-layer probe; returns the routing counters of the cascade
/// it probed.
fn probe_layers(tracer: &Tracer, report: &mut Report, p: &Probes<'_>) -> Vec<Arc<CascadeStats>> {
    layers::probe_core(tracer, report, p.pipeline, p.pool, PROBE_ITERS);
    let eval = models::holdout(p.seed, EVAL_SALT, models::HOLDOUT_ROWS);
    if tracer.durations_us("eval.predict").is_empty() {
        layers::probe_eval(tracer, report, p.served, &eval.features, 5);
    }
    let owned;
    let (quantized, cascade) = match p.lowprec {
        Some(pair) => pair,
        None => match probe_cascade_over(p.pipeline, p.seed) {
            Ok(pair) => {
                owned = pair;
                (&owned.0, &owned.1)
            }
            Err(e) => {
                report.problem(format!("cannot build the probe cascade: {e}"));
                return Vec::new();
            }
        },
    };
    layers::probe_lowprec(tracer, report, quantized, p.pool, PROBE_ITERS);
    layers::probe_cascade(tracer, report, cascade, p.pool, PROBE_ITERS);
    layers::probe_serve(
        tracer,
        report,
        p.target,
        p.served,
        p.pool,
        p.rows,
        SERVE_PROBE_ITERS,
    );
    let x = block(p.pool, p.rows, 0);
    match p.served.predict_proba(&x) {
        Ok(proba) => {
            layers::probe_gateway(tracer, report, &x, &proba, PROBE_ITERS);
            layers::probe_wire(tracer, report, &x, &proba, PROBE_ITERS);
        }
        Err(e) => report.problem(format!("reference predict failed: {e}")),
    }
    vec![cascade.stats()]
}
