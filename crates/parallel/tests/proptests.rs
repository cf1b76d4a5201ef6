//! Property-based tests for the data-parallel substrate: the band-scheduled
//! slice helper must always agree with its sequential counterpart.

use bcpnn_parallel::{PoolConfig, ThreadPool};
use proptest::prelude::*;
use std::sync::Mutex;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn par_chunks_mut_matches_sequential_loop(
        len in 0usize..60_000,
        chunk in 1usize..3000,
        threads in 1usize..5,
    ) {
        let pool = ThreadPool::new(PoolConfig::with_threads(threads));
        let mut data = vec![0u32; len];
        let seen = Mutex::new(Vec::new());
        pool.par_chunks_mut(&mut data, chunk, |start, piece| {
            seen.lock().unwrap().push((start, piece.len()));
            for (k, v) in piece.iter_mut().enumerate() {
                *v += (start + k) as u32 + 1;
            }
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let expected: Vec<(usize, usize)> =
            (0..len).step_by(chunk).map(|s| (s, chunk.min(len - s))).collect();
        prop_assert_eq!(seen, expected);
        prop_assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }
}
