//! The models each workload trains, and the traced compositions of data
//! preparation and training that must reproduce the one-call APIs bit for
//! bit.

use bcpnn_backend::BackendKind;
use bcpnn_bench::{HiggsDataConfig, HiggsExperimentData};
use bcpnn_core::model::Predictor;
use bcpnn_core::uncertainty::margin;
use bcpnn_core::{CoreResult, Network, NetworkBuilder, Pipeline, ReadoutKind, TrainingParams};
use bcpnn_core::{Trainer, Workspace};
use bcpnn_data::encode::QuantileEncoder;
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_data::split::{balanced_subset, stratified_split};
use bcpnn_data::Dataset;
use bcpnn_lowprec::QuantizedPipeline;
use bcpnn_tensor::{Matrix, MatrixRng};

use crate::report::Stopwatch;
use crate::trace::{OpenSpan, Tracer};

/// Share of rows the cascade's cheap tier should answer, calibrated on a
/// held-out split.
pub const TARGET_CHEAP_RATE: f64 = 0.65;

/// Rows in each workload's held-out evaluation set.
pub const HOLDOUT_ROWS: usize = 8000;

/// A training recipe: raw data, encoder bins, topology and schedule.
pub struct Recipe {
    /// Raw labeled rows.
    pub data: Dataset,
    /// Quantile bins per feature.
    pub n_bins: usize,
    /// Network topology.
    pub builder: NetworkBuilder,
    /// Training schedule.
    pub training: TrainingParams,
}

impl Recipe {
    /// Rows times epochs: the work one fit performs.
    pub fn row_epochs(&self) -> usize {
        self.data.labels.len()
            * (self.training.unsupervised_epochs + self.training.supervised_epochs)
    }
}

fn synthetic(n_samples: usize, seed: u64) -> Dataset {
    generate(&SyntheticHiggsConfig {
        n_samples,
        seed,
        ..Default::default()
    })
}

fn serving_recipe(rows: usize, n_bins: usize, hcu: usize, mcu: usize, seed: u64) -> Recipe {
    Recipe {
        data: synthetic(rows, seed),
        n_bins,
        builder: Network::builder()
            .hidden(hcu, mcu, 0.4)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Parallel)
            .seed(seed),
        training: TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 1,
            batch_size: 128,
            seed,
            shuffle: true,
        },
    }
}

/// The serving tier's f32 model: 40 quantile bins into 32×32 hypercolumns,
/// the shape of `heavy_pipeline` in the serving benches.
pub fn heavy_recipe(seed: u64) -> Recipe {
    serving_recipe(768, 40, 32, 32, seed)
}

/// The cascade's cheap tier before int8 quantization: 6 bins into 2×8, the
/// shape of `compact_pipeline` in the serving benches.
pub fn compact_recipe(seed: u64) -> Recipe {
    serving_recipe(2000, 6, 2, 8, seed)
}

/// Fit a recipe with the one-call API, returning the pipeline and the CPU
/// seconds the fit took.
pub fn fit(recipe: &Recipe) -> CoreResult<(Pipeline, f64)> {
    let clock = Stopwatch::start();
    let (pipeline, _) = Pipeline::fit(
        &recipe.data,
        recipe.n_bins,
        recipe.builder.clone(),
        recipe.training.clone(),
    )?;
    Ok((pipeline, clock.cpu_s()))
}

/// Fit a recipe by composing the steps `Pipeline::fit` takes (encoder fit,
/// encode, build, the trainer's phase loop), each inside a span.
pub fn fit_traced(recipe: &Recipe, tracer: &Tracer) -> CoreResult<Pipeline> {
    let run = tracer.request_id();
    let x = &recipe.data.features;
    let (encoder, encoded) = tracer.time("data.encode", run, None, || {
        let encoder = QuantileEncoder::fit_matrix(x, recipe.n_bins);
        let encoded = encoder.transform_rows(x);
        (encoder, encoded)
    });
    let mut network = recipe
        .builder
        .clone()
        .input(encoder.encoded_width())
        .build()?;
    train_traced(
        tracer,
        &mut network,
        &encoded,
        &recipe.data.labels,
        &recipe.training,
    )?;
    Pipeline::new(network, Some(encoder))
}

/// Generate a recipe's raw rows inside a `data.generate` span.
pub fn traced_generate<T>(tracer: &Tracer, make: impl FnOnce() -> T) -> T {
    let run = tracer.request_id();
    tracer.time("data.generate", run, None, make)
}

/// The paper's data preparation composed from its public steps, each in a
/// span; must equal `bcpnn_bench::prepare_higgs`.
pub fn prepare_higgs_traced(config: &HiggsDataConfig, tracer: &Tracer) -> HiggsExperimentData {
    let run = tracer.request_id();
    let (raw_train, raw_test) = tracer.time("data.generate", run, None, || {
        let pool_size = (config.train_per_class + config.test_per_class) * 5;
        let full = generate(&SyntheticHiggsConfig {
            n_samples: pool_size.max(1000),
            separation: config.separation,
            seed: config.seed,
            ..Default::default()
        });
        let (train_pool, test_pool) = stratified_split(&full, 0.35, config.seed ^ 0x51);
        (
            balanced_subset(&train_pool, config.train_per_class, config.seed ^ 0x52),
            balanced_subset(&test_pool, config.test_per_class, config.seed ^ 0x53),
        )
    });
    let (encoder, x_train, x_test) = tracer.time("data.encode", run, None, || {
        let encoder = QuantileEncoder::fit(&raw_train, config.n_bins);
        let x_train = encoder.transform(&raw_train);
        let x_test = encoder.transform(&raw_test);
        (encoder, x_train, x_test)
    });
    HiggsExperimentData {
        y_train: raw_train.labels.clone(),
        y_test: raw_test.labels.clone(),
        x_train,
        x_test,
        raw_train,
        raw_test,
        encoder,
    }
}

/// `Trainer::fit`'s two-phase loop, composed from the public per-batch
/// calls in the trainer's own order, with a span around each call.
pub fn train_traced(
    tracer: &Tracer,
    network: &mut Network,
    x: &Matrix<f32>,
    labels: &[usize],
    params: &TrainingParams,
) -> CoreResult<()> {
    let run = tracer.request_id();
    let fit_span = tracer.start("train.fit", run, None);
    let mut rng = MatrixRng::seed_from(params.seed);
    let order = |rng: &mut MatrixRng| {
        if params.shuffle {
            rng.permutation(x.rows())
        } else {
            (0..x.rows()).collect::<Vec<_>>()
        }
    };
    let interval = network.hidden().params().plasticity_interval;
    let mut ws = Workspace::new();
    let mut xb = Matrix::zeros(0, 0);
    let mut hidden = Matrix::zeros(0, 0);
    let mut yb = Vec::new();
    let child = |name, parent: &OpenSpan| tracer.start(name, run, Some(parent));

    for epoch in 0..params.unsupervised_epochs {
        let epoch_span = child("train.unsupervised_epoch", &fit_span);
        for chunk in order(&mut rng).chunks(params.batch_size) {
            x.select_rows_into(chunk, &mut xb);
            let span = child("train.hidden_step", &epoch_span);
            let step = network.hidden_mut().train_batch_with(&xb, &mut ws);
            tracer.end(span);
            step?;
        }
        if (epoch + 1) % interval == 0 {
            let span = child("train.plasticity", &epoch_span);
            let swaps = network
                .hidden_mut()
                .structural_plasticity_step()
                .total_swaps();
            tracer.end(span);
            tracer.count("train.plasticity_swaps", swaps as u64);
        }
        tracer.end(epoch_span);
    }

    for _ in 0..params.supervised_epochs {
        let epoch_span = child("train.supervised_epoch", &fit_span);
        for chunk in order(&mut rng).chunks(params.batch_size) {
            x.select_rows_into(chunk, &mut xb);
            yb.clear();
            yb.extend(chunk.iter().map(|&i| labels[i]));
            let span = child("train.hidden_forward", &epoch_span);
            let forward = network.hidden().forward_into(&xb, &mut hidden);
            tracer.end(span);
            forward?;
            if let Some(readout) = network.bcpnn_readout_mut() {
                let span = child("train.bcpnn_readout_step", &epoch_span);
                let step = readout.train_batch_with(&hidden, &yb, &mut ws);
                tracer.end(span);
                step?;
            }
            if let Some(readout) = network.sgd_readout_mut() {
                let span = child("train.sgd_step", &epoch_span);
                let step = readout.train_batch_with(&hidden, &yb, &mut ws);
                tracer.end(span);
                step?;
            }
        }
        if let Some(readout) = network.sgd_readout_mut() {
            readout.end_epoch();
        }
        tracer.end(epoch_span);
    }
    tracer.end(fit_span);
    Ok(())
}

/// Train a network with the one-call `Trainer::fit`.
pub fn trainer_fit(
    mut network: Network,
    x: &Matrix<f32>,
    labels: &[usize],
    params: &TrainingParams,
) -> CoreResult<Network> {
    Trainer::new(params.clone()).fit(&mut network, x, labels)?;
    Ok(network)
}

/// True when two slices are bit-identical.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// True when two networks hold bit-identical learned parameters.
pub fn same_network(a: &Network, b: &Network) -> bool {
    let hidden = same_bits(
        a.hidden().masked_weights().as_slice(),
        b.hidden().masked_weights().as_slice(),
    ) && same_bits(a.hidden().bias(), b.hidden().bias());
    let sgd = match (a.sgd_readout(), b.sgd_readout()) {
        (Some(x), Some(y)) => {
            same_bits(x.weights().as_slice(), y.weights().as_slice())
                && same_bits(x.bias(), y.bias())
        }
        (None, None) => true,
        _ => false,
    };
    let bcpnn = match (a.bcpnn_readout(), b.bcpnn_readout()) {
        (Some(x), Some(y)) => {
            same_bits(x.weights().as_slice(), y.weights().as_slice())
                && same_bits(x.bias(), y.bias())
        }
        (None, None) => true,
        _ => false,
    };
    hidden && sgd && bcpnn
}

/// True when two matrices are bit-identical.
pub fn same_matrix(a: &Matrix<f32>, b: &Matrix<f32>) -> bool {
    a.shape() == b.shape() && same_bits(a.as_slice(), b.as_slice())
}

/// A held-out labeled split drawn from its own seed stream.
pub fn holdout(seed: u64, salt: u64, rows: usize) -> Dataset {
    synthetic(rows, seed ^ salt)
}

/// The cheap tier's top-2 margin at the `1 - TARGET_CHEAP_RATE` quantile of
/// `calibration`: rows at or above it stay cheap.
pub fn calibrated_threshold(
    cheap: &QuantizedPipeline,
    calibration: &Matrix<f32>,
) -> CoreResult<f32> {
    let proba = cheap.predict_proba(calibration)?;
    let mut margins: Vec<f32> = (0..proba.rows()).map(|r| margin(proba.row(r))).collect();
    margins.sort_by(f32::total_cmp);
    let escalate_rank = ((1.0 - TARGET_CHEAP_RATE) * margins.len() as f64) as usize;
    Ok(margins[escalate_rank])
}
