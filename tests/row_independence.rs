//! Row independence of the `Parallel` backend: predicting an N-row batch
//! must give, bit for bit, the same probabilities as N single-row calls.
//!
//! Batching only changes how rows are grouped into thread-pool bands and
//! GEMM row panels, never the arithmetic on any one row, so every element
//! must match with `to_bits()`. The batch sizes give partial, whole and
//! several 64-row GEMM panels, per-row kernels whose band edges fall inside
//! a panel, and slices below and above the band scheduler's inline
//! threshold. CI also runs this file with `BCPNN_NUM_THREADS=3`, where rows
//! do not divide evenly into bands.

use bcpnn_backend::BackendKind;
use bcpnn_core::{Network, Pipeline, ReadoutKind, TrainingParams, Workspace};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_tensor::Matrix;

fn higgs(n: usize, seed: u64) -> bcpnn_data::Dataset {
    generate(&SyntheticHiggsConfig {
        n_samples: n,
        seed,
        ..Default::default()
    })
}

#[test]
fn parallel_batch_predict_matches_single_rows_bitwise() {
    // 16 x 16 hidden units and 2 classes: the hidden layer is banded from
    // 4 rows up, the class layer only for the 4000-row batch.
    let (pipeline, _) = Pipeline::fit(
        &higgs(600, 70),
        10,
        Network::builder()
            .hidden(16, 16, 0.4)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Parallel)
            .seed(70),
        TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 1,
            batch_size: 64,
            ..Default::default()
        },
    )
    .unwrap();
    let rows = higgs(4000, 71).features;

    let mut ws = Workspace::new();
    let mut one = Matrix::zeros(0, 0);
    let singles: Vec<Vec<u32>> = (0..rows.rows())
        .map(|r| {
            let x = rows.select_rows(&[r]);
            pipeline.predict_proba_into(&x, &mut ws, &mut one).unwrap();
            one.as_slice().iter().map(|v| v.to_bits()).collect()
        })
        .collect();

    let mut batch = Matrix::zeros(0, 0);
    for n in [2usize, 3, 63, 64, 65, 4000] {
        let x = rows.select_rows(&(0..n).collect::<Vec<_>>());
        pipeline
            .predict_proba_into(&x, &mut ws, &mut batch)
            .unwrap();
        for (r, single) in singles.iter().take(n).enumerate() {
            let got: Vec<u32> = batch.row(r).iter().map(|v| v.to_bits()).collect();
            assert_eq!(&got, single, "row {r} of a {n}-row batch");
        }
    }
}
