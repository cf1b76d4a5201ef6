//! The StreamBrain-rs benchmark: three workloads driven through the public
//! APIs of the training and serving crates, an end-to-end report, and a
//! traced run that times every layer from outside. See `DESIGN.md`.

pub mod host;
pub mod layers;
pub mod loadgen;
pub mod models;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
