//! Per-layer probes for the traced run: each composes a layer's public
//! calls in the program's own order, records a span around every call, and
//! checks that the composition reproduces the one-call API bit for bit.

use std::io::{Read, Write};

use bcpnn_cluster::{ClusterRouter, Frame, RowBlock};
use bcpnn_core::model::{Predictor, Transformer};
use bcpnn_core::uncertainty::{entropy, margin};
use bcpnn_core::{CoreResult, Pipeline, ReadoutKind, Workspace};
use bcpnn_gateway::http::{read_request, Limits};
use bcpnn_gateway::json::{self, Json};
use bcpnn_lowprec::QuantizedPipeline;
use bcpnn_serve::{CascadeModel, ServeTarget, SubmitOptions};
use bcpnn_tensor::Matrix;

use crate::models::{same_bits, same_matrix};
use crate::report::Report;
use crate::trace::Tracer;

/// Span names of the composed inference at one batch size: the whole
/// predict, then stage encode, hidden linear, hidden softmax and readout.
pub struct CoreNames {
    /// Rows per call.
    pub batch: usize,
    /// `[predict, encode, hidden_linear, hidden_softmax, readout]`.
    pub spans: [&'static str; 5],
    /// Metric names matching `spans`.
    pub metrics: [&'static str; 5],
}

/// The two probed inference shapes: one row (a single request) and 64 rows
/// (a full micro-batch or cluster block).
pub const CORE_SHAPES: [CoreNames; 2] = [
    CoreNames {
        batch: 1,
        spans: [
            "core.predict@1",
            "core.encode@1",
            "core.hidden_linear@1",
            "core.hidden_softmax@1",
            "core.readout@1",
        ],
        metrics: [
            "core.predict_us.1",
            "core.encode_us.1",
            "core.hidden_linear_us.1",
            "core.hidden_softmax_us.1",
            "core.readout_us.1",
        ],
    },
    CoreNames {
        batch: 64,
        spans: [
            "core.predict@64",
            "core.encode@64",
            "core.hidden_linear@64",
            "core.hidden_softmax@64",
            "core.readout@64",
        ],
        metrics: [
            "core.predict_us.64",
            "core.encode_us.64",
            "core.hidden_linear_us.64",
            "core.hidden_softmax_us.64",
            "core.readout_us.64",
        ],
    },
];

/// Scratch for one composed inference.
#[derive(Default)]
struct Scratch {
    a: Matrix<f32>,
    b: Matrix<f32>,
    hidden: Matrix<f32>,
    out: Matrix<f32>,
}

/// `Pipeline::predict_proba_into` composed from its public steps: stage
/// encode → hidden linear → hidden softmax → readout (→ calibration).
fn predict_composed(
    tracer: &Tracer,
    names: &[&'static str; 5],
    pipeline: &Pipeline,
    x: &Matrix<f32>,
    s: &mut Scratch,
) -> CoreResult<()> {
    let run = tracer.request_id();
    let root = tracer.start(names[0], run, None);
    let span = tracer.start(names[1], run, Some(&root));
    let stages = pipeline.stages();
    if !stages.is_empty() {
        stages[0].transform_into(x, &mut s.a)?;
        for stage in &stages[1..] {
            stage.transform_into(&s.a, &mut s.b)?;
            std::mem::swap(&mut s.a, &mut s.b);
        }
    }
    let encoded = if stages.is_empty() { x } else { &s.a };
    tracer.end(span);

    let network = pipeline.network();
    let hidden = network.hidden();
    let span = tracer.start(names[2], run, Some(&root));
    s.hidden.reset(encoded.rows(), hidden.n_units());
    hidden.backend().linear_forward(
        encoded,
        hidden.masked_weights(),
        hidden.bias(),
        &mut s.hidden,
    );
    tracer.end(span);
    let span = tracer.start(names[3], run, Some(&root));
    hidden
        .backend()
        .grouped_softmax(&mut s.hidden, hidden.params().n_mcu);
    tracer.end(span);

    let span = tracer.start(names[4], run, Some(&root));
    let readout = match network.readout_kind() {
        ReadoutKind::Bcpnn => network
            .bcpnn_readout()
            .expect("a BCPNN network has a BCPNN head")
            .predict_proba_into(&s.hidden, &mut s.out),
        ReadoutKind::Sgd | ReadoutKind::Hybrid => network
            .sgd_readout()
            .expect("an SGD or hybrid network has an SGD head")
            .predict_proba_into(&s.hidden, &mut s.out),
    };
    tracer.end(span);
    readout?;
    if let Some(calibration) = pipeline.calibration() {
        calibration.apply_rows(&mut s.out);
    }
    tracer.end(root);
    Ok(())
}

/// `rows` consecutive rows of `pool`, starting at block `i` (wrapping).
pub fn block(pool: &Matrix<f32>, rows: usize, i: usize) -> Matrix<f32> {
    let n_blocks = pool.rows() / rows;
    let first = (i % n_blocks) * rows;
    let indices: Vec<usize> = (first..first + rows).collect();
    pool.select_rows(&indices)
}

/// Compose the f32 pipeline's inference `iters` times per probed shape.
pub fn probe_core(
    tracer: &Tracer,
    report: &mut Report,
    pipeline: &Pipeline,
    pool: &Matrix<f32>,
    iters: usize,
) {
    let mut scratch = Scratch::default();
    let mut ws = Workspace::new();
    let mut expected = Matrix::zeros(0, 0);
    for shape in &CORE_SHAPES {
        for i in 0..iters {
            let x = block(pool, shape.batch, i);
            let composed = predict_composed(tracer, &shape.spans, pipeline, &x, &mut scratch);
            let reference = pipeline.predict_proba_into(&x, &mut ws, &mut expected);
            if composed.is_err() || reference.is_err() || !same_matrix(&scratch.out, &expected) {
                report.problem(format!(
                    "composed inference at {} rows differs from Pipeline::predict_proba_into",
                    shape.batch
                ));
                return;
            }
        }
    }
}

/// Time the whole-set batch forward `reps` times inside `eval.predict`
/// spans.
pub fn probe_eval(
    tracer: &Tracer,
    report: &mut Report,
    predictor: &dyn Predictor,
    x: &Matrix<f32>,
    reps: usize,
) {
    let mut ws = Workspace::new();
    let mut out = Matrix::zeros(0, 0);
    for _ in 0..reps {
        let run = tracer.request_id();
        let result = tracer.time("eval.predict", run, None, || {
            predictor.predict_proba_into(x, &mut ws, &mut out)
        });
        if let Err(e) = result {
            report.problem(format!("evaluation forward failed: {e}"));
            return;
        }
    }
}

/// The int8 tier alone: its hidden forward on the encoded rows, and its
/// whole predict, at 64 rows.
pub fn probe_lowprec(
    tracer: &Tracer,
    report: &mut Report,
    quantized: &QuantizedPipeline,
    pool: &Matrix<f32>,
    iters: usize,
) {
    let mut ws = Workspace::new();
    let mut encoded = Matrix::zeros(0, 0);
    let mut scratch = Matrix::zeros(0, 0);
    let mut hidden = Matrix::zeros(0, 0);
    let mut out = Matrix::zeros(0, 0);
    let Some((first, rest)) = quantized.stages().split_first() else {
        return report.problem("the int8 tier has no encoding stage");
    };
    for i in 0..iters {
        let x = block(pool, 64, i);
        let run = tracer.request_id();
        let encode = (|| -> CoreResult<()> {
            first.transform_into(&x, &mut encoded)?;
            for stage in rest {
                stage.transform_into(&encoded, &mut scratch)?;
                std::mem::swap(&mut encoded, &mut scratch);
            }
            Ok(())
        })();
        if let Err(e) = encode {
            report.problem(format!("int8 tier encode failed: {e}"));
            return;
        }
        tracer.time("lowprec.hidden_forward", run, None, || {
            quantized.hidden_forward_into(&encoded, &mut hidden);
        });
        let result = tracer.time("lowprec.predict", run, None, || {
            quantized.predict_proba_into(&x, &mut ws, &mut out)
        });
        if let Err(e) = result {
            report.problem(format!("int8 tier predict failed: {e}"));
            return;
        }
    }
}

/// The cascade's whole predict at 64 rows.
pub fn probe_cascade(
    tracer: &Tracer,
    report: &mut Report,
    cascade: &CascadeModel,
    pool: &Matrix<f32>,
    iters: usize,
) {
    let mut ws = Workspace::new();
    let mut out = Matrix::zeros(0, 0);
    for i in 0..iters {
        let x = block(pool, 64, i);
        let run = tracer.request_id();
        let result = tracer.time("cascade.predict", run, None, || {
            cascade.predict_proba_into(&x, &mut ws, &mut out)
        });
        if let Err(e) = result {
            report.problem(format!("cascade predict failed: {e}"));
            return;
        }
    }
}

/// Submit blocks of `rows` rows to the serving stack and wait for every
/// reply, one `serve.submit_to_reply` span per block.
pub fn probe_serve(
    tracer: &Tracer,
    report: &mut Report,
    target: &dyn ServeTarget,
    served: &dyn Predictor,
    pool: &Matrix<f32>,
    rows: usize,
    iters: usize,
) {
    for i in 0..iters {
        let x = block(pool, rows, i);
        let expected = match served.predict_proba(&x) {
            Ok(p) => p,
            Err(e) => return report.problem(format!("reference predict failed: {e}")),
        };
        let run = tracer.request_id();
        let replies = tracer.time("serve.submit_to_reply", run, None, || {
            let handles: Result<Vec<_>, _> = (0..rows)
                .map(|r| {
                    target.submit_with_options("higgs", x.row(r).to_vec(), SubmitOptions::default())
                })
                .collect();
            handles.map(|hs| hs.into_iter().map(|h| h.wait()).collect::<Vec<_>>())
        });
        let ok = match replies {
            Ok(replies) => replies
                .iter()
                .enumerate()
                .all(|(r, reply)| reply.as_ref().is_ok_and(|p| same_bits(p, expected.row(r)))),
            Err(_) => false,
        };
        if !ok {
            return report.problem("a serving-stack reply differs from the in-process predict");
        }
    }
}

/// An in-memory connection: reads a fixed request, discards writes.
struct MemStream<'a> {
    input: &'a [u8],
}

impl Read for MemStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for MemStream<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The predict reply body the HTTP fronts render for `proba`.
pub fn render_reply(proba: &Matrix<f32>) -> String {
    let rows = 0..proba.rows();
    let predictions = rows
        .clone()
        .map(|r| Json::Arr(proba.row(r).iter().copied().map(Json::f32).collect()));
    let uncertainty = rows.clone().map(|r| {
        Json::Obj(vec![
            ("entropy".into(), Json::f32(entropy(proba.row(r)))),
            ("margin".into(), Json::f32(margin(proba.row(r)))),
        ])
    });
    Json::Obj(vec![
        ("model".into(), Json::str("higgs")),
        ("version".into(), Json::u64(1)),
        ("predictions".into(), Json::Arr(predictions.collect())),
        ("uncertainty".into(), Json::Arr(uncertainty.collect())),
        (
            "abstained".into(),
            Json::Arr(rows.map(|_| Json::Bool(false)).collect()),
        ),
    ])
    .render()
}

/// The predict request body for `x`.
pub fn render_rows(x: &Matrix<f32>) -> String {
    Json::Arr(
        (0..x.rows())
            .map(|r| Json::Arr(x.row(r).iter().copied().map(Json::f32).collect()))
            .collect(),
    )
    .render()
}

/// The HTTP request `bcpnn_gateway::client::request` sends for `body`.
fn http_request(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/models/higgs/predict HTTP/1.1\r\nhost: 127.0.0.1:8080\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The HTTP front's request read, row parse and reply render on this
/// workload's request, one span each.
pub fn probe_gateway(
    tracer: &Tracer,
    report: &mut Report,
    x: &Matrix<f32>,
    proba: &Matrix<f32>,
    iters: usize,
) {
    let body = render_rows(x);
    let raw = http_request(&body);
    for _ in 0..iters {
        let run = tracer.request_id();
        let request = tracer.time("gateway.read_request", run, None, || {
            read_request(&mut MemStream { input: &raw }, Limits::default())
        });
        let Ok(request) = request else {
            return report.problem("the gateway parser rejected the workload's request");
        };
        let text = String::from_utf8_lossy(&request.body).into_owned();
        let rows = tracer.time("gateway.parse_rows", run, None, || {
            json::parse_f32_rows(&text)
        });
        let parsed_ok = rows.is_ok_and(|rows| {
            rows.len() == x.rows()
                && rows
                    .iter()
                    .enumerate()
                    .all(|(r, row)| same_bits(row, x.row(r)))
        });
        if !parsed_ok {
            return report.problem("parsed request rows differ from the rows sent");
        }
        let rendered = tracer.time("gateway.render", run, None, || render_reply(proba));
        if parse_predictions(&rendered).is_none_or(|p| !same_predictions(&p, proba)) {
            return report.problem("the rendered reply does not round-trip its probabilities");
        }
    }
}

/// Encode and decode this workload's interior `Predict` and `PredictOk`
/// frames, one span each.
pub fn probe_wire(
    tracer: &Tracer,
    report: &mut Report,
    x: &Matrix<f32>,
    proba: &Matrix<f32>,
    iters: usize,
) {
    let to_rows = |m: &Matrix<f32>| (0..m.rows()).map(|r| m.row(r).to_vec()).collect::<Vec<_>>();
    let request = Frame::Predict {
        model: "higgs".into(),
        priority: 0,
        deadline_ms: 0,
        abstain: None,
        rows: RowBlock::from_rows(&to_rows(x)),
    };
    let reply = Frame::PredictOk {
        version: Some(1),
        rows: RowBlock::from_rows(&to_rows(proba)),
        abstained: Vec::new(),
    };
    for _ in 0..iters {
        let run = tracer.request_id();
        let (a, b) = tracer.time("cluster.wire_encode", run, None, || {
            (request.encode(), reply.encode())
        });
        let decoded = tracer.time("cluster.wire_decode", run, None, || {
            (
                Frame::decode_payload(a[5], &a[10..]),
                Frame::decode_payload(b[5], &b[10..]),
            )
        });
        let round_trips = matches!(&decoded.0, Ok(f) if *f == request)
            && matches!(&decoded.1, Ok(f) if *f == reply);
        if !round_trips {
            return report.problem("interior frames do not round-trip");
        }
    }
}

/// Fan blocks out through the cluster router in-process, one
/// `cluster.predict_rows` span per block.
pub fn probe_router(
    tracer: &Tracer,
    report: &mut Report,
    router: &ClusterRouter,
    served: &dyn Predictor,
    pool: &Matrix<f32>,
    iters: usize,
) {
    for i in 0..iters {
        let x = block(pool, 64, i);
        let Ok(expected) = served.predict_proba(&x) else {
            return report.problem("reference predict failed");
        };
        let rows: Vec<Vec<f32>> = (0..x.rows()).map(|r| x.row(r).to_vec()).collect();
        let run = tracer.request_id();
        let reply = tracer.time("cluster.predict_rows", run, None, || {
            router.predict_rows(
                "higgs",
                RowBlock::from_rows(&rows),
                &SubmitOptions::default(),
            )
        });
        let ok = reply.is_ok_and(|(_, block, abstained)| {
            abstained.is_empty()
                && block.n_rows() == x.rows()
                && (0..x.rows()).all(|r| same_bits(block.row(r), expected.row(r)))
        });
        if !ok {
            return report.problem("a router reply differs from the in-process predict");
        }
    }
}

/// The `predictions` rows of a predict reply body.
pub fn parse_predictions(body: &str) -> Option<Vec<Vec<f32>>> {
    let doc = json::parse(body).ok()?;
    doc.get("predictions")?
        .as_array()?
        .iter()
        .map(|row| {
            row.as_array()?
                .iter()
                .map(|cell| match cell {
                    Json::Num(n) => n.as_f32(),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

/// True when `predictions` equals `proba` bit for bit.
pub fn same_predictions(predictions: &[Vec<f32>], proba: &Matrix<f32>) -> bool {
    predictions.len() == proba.rows()
        && predictions
            .iter()
            .enumerate()
            .all(|(r, row)| same_bits(row, proba.row(r)))
}
