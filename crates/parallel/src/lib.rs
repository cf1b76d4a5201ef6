//! # bcpnn-parallel
//!
//! Data-parallel execution substrate for StreamBrain-rs.
//!
//! StreamBrain's CPU backend is built on OpenMP worker threads that share
//! loop iterations; this crate plays the same role for the Rust
//! reproduction. It provides:
//!
//! * [`ThreadPool`] — a persistent pool of worker threads with a shared
//!   injector queue,
//! * [`ThreadPool::scope`] — structured (scoped) task spawning so tasks may
//!   borrow from the caller's stack,
//! * slice helpers ([`par_chunks_mut`], [`par_zip_chunks_mut`]) used by the
//!   GEMM, softmax, element-wise and trace-update kernels in
//!   `bcpnn-tensor` / `bcpnn-backend`. Like OpenMP's `schedule(static)`,
//!   a call splits its slice into at most one contiguous band of whole
//!   chunks per worker: the calling thread runs the first band, the pool
//!   runs the rest (one queued task each), and small slices run inline.
//!
//! A global pool (lazily created, sized from `BCPNN_NUM_THREADS` or the
//! number of available cores) is available through [`global_pool`], which is
//! what the higher-level crates use by default.
//!
//! ## Example
//!
//! ```
//! use bcpnn_parallel::{global_pool, par_chunks_mut};
//!
//! let mut data = vec![0u64; 100_000];
//! // Square every index; each of the (at most `num_threads`) bands calls
//! // the closure once per 1024-element chunk, with that chunk's offset.
//! par_chunks_mut(&mut data, 1024, |start, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = ((start + i) as u64).pow(2);
//!     }
//! });
//! assert_eq!(data[100], 10_000);
//! assert!(global_pool().num_threads() >= 1);
//! ```

#![warn(missing_docs)]

mod config;
mod pool;
mod scope;
mod slice_ops;

pub use config::{PoolConfig, NUM_THREADS_ENV};
pub use pool::{global_pool, ThreadPool};
pub use scope::Scope;
pub use slice_ops::{par_chunks_mut, par_zip_chunks_mut};
