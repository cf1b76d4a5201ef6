//! OpenMP-style slice parallelism built on [`crate::ThreadPool::scope`].
//!
//! A call splits its slice into at most one contiguous *band* per worker,
//! like OpenMP's `schedule(static)`: the pool queues one task per band
//! beyond the first, and the calling thread runs the first band itself.
//! Small slices run inline, so the helpers are safe to call unconditionally
//! from inner layers of the library.

use crate::pool::{global_pool, ThreadPool};

/// Slices with fewer elements than this run inline on the calling thread.
///
/// Tiny calls, such as a class softmax over a 64-row batch (128 elements),
/// cost less than a queued band. Chosen by measurement on the `train_higgs`
/// benchmark workload (see `CHANGES.md`): at 16 Ki the 1024 x 2 readout
/// trace and gradient GEMMs (2048 elements, each a batch-long dot product)
/// ran inline and their training steps took about 1.45x the wall time.
const INLINE_ELEMS: usize = 1024;

impl ThreadPool {
    /// Apply `f(start_index, chunk)` to consecutive `chunk`-sized pieces of
    /// `data` (the last may be shorter), where `start_index` is the index
    /// of the piece's first element in `data`.
    ///
    /// The pieces are grouped into at most [`ThreadPool::num_threads`]
    /// contiguous bands of whole pieces. Each band calls `f` once per piece,
    /// in order; the calling thread runs the first band and the pool runs
    /// the rest. A slice shorter than the inline threshold, or one that
    /// fits in a single band, never touches the queue. `f` sees the same
    /// `(start_index, chunk)` pairs as a sequential loop for any thread
    /// count.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk = chunk.max(1);
        let n_chunks = data.len().div_ceil(chunk);
        let bands = self.num_threads().min(n_chunks);
        if bands <= 1 || data.len() < INLINE_ELEMS {
            run_band(data, 0, chunk, &f);
            return;
        }
        // Only the last band can end in a short piece.
        let band_len = |b: usize| band_pieces(n_chunks, bands, b) * chunk;
        let f = &f;
        self.scope(|s| {
            let (first, mut rest) = data.split_at_mut(band_len(0));
            let mut start = first.len();
            for b in 1..bands {
                let take = band_len(b).min(rest.len());
                let (band, tail) = std::mem::take(&mut rest).split_at_mut(take);
                rest = tail;
                s.spawn(move || run_band(band, start, chunk, f));
                start += take;
            }
            run_band(first, 0, chunk, f);
        });
    }
}

/// Number of pieces in band `b` when `n_chunks` pieces are split into
/// `bands` contiguous bands: `n_chunks / bands`, plus one for each of the
/// first `n_chunks % bands` bands.
fn band_pieces(n_chunks: usize, bands: usize, b: usize) -> usize {
    n_chunks / bands + usize::from(b < n_chunks % bands)
}

/// Call `f` on each `chunk`-sized piece of `band`, whose first element sits
/// at index `start` of the caller's slice.
fn run_band<T, F>(band: &mut [T], start: usize, chunk: usize, f: &F)
where
    F: Fn(usize, &mut [T]),
{
    for (i, piece) in band.chunks_mut(chunk).enumerate() {
        f(start + i * chunk, piece);
    }
}

/// [`ThreadPool::par_chunks_mut`] on the [`global_pool`].
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    global_pool().par_chunks_mut(data, chunk, f);
}

/// Apply `f(start_index, a_chunk, b_chunk)` to aligned chunks of a mutable
/// slice `a` and a shared slice `b`, scheduled like [`par_chunks_mut`].
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn par_zip_chunks_mut<T, U, F>(a: &mut [T], b: &[U], chunk: usize, f: F)
where
    T: Send,
    U: Sync,
    F: Fn(usize, &mut [T], &[U]) + Sync,
{
    assert_eq!(
        a.len(),
        b.len(),
        "par_zip_chunks_mut requires equally sized slices"
    );
    par_chunks_mut(a, chunk, |start, ac| {
        f(start, ac, &b[start..start + ac.len()])
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PoolConfig;
    use std::sync::Mutex;

    /// The `(start, len)` pairs a sequential `chunks_mut` loop produces.
    fn sequential_pieces(len: usize, chunk: usize) -> Vec<(usize, usize)> {
        (0..len)
            .step_by(chunk)
            .map(|s| (s, chunk.min(len - s)))
            .collect()
    }

    /// One run of `par_chunks_mut` per thread count in {1, 2, 3} and chunk
    /// count in {1, 2, 3, 63, 64, 65, 4000}, each with a short last chunk.
    /// Calls `check(label, chunk, data, seen)` with the per-element visit
    /// counts and the sorted `(start, len)` pairs `f` received.
    fn for_each_band_split(check: impl Fn(&str, usize, &[u32], &[(usize, usize)])) {
        for threads in [1, 2, 3] {
            let pool = ThreadPool::new(PoolConfig::with_threads(threads));
            for n_chunks in [1usize, 2, 3, 63, 64, 65, 4000] {
                // Pieces sized so the slice is past the inline threshold,
                // and a short last piece: the slice ends 7 elements early.
                let chunk = INLINE_ELEMS.div_ceil(n_chunks) + 8;
                let len = n_chunks * chunk - 7;
                let mut data = vec![0u32; len];
                let seen = Mutex::new(Vec::new());
                pool.par_chunks_mut(&mut data, chunk, |start, piece| {
                    seen.lock().unwrap().push((start, piece.len()));
                    for v in piece.iter_mut() {
                        *v += 1;
                    }
                });
                let mut seen = seen.into_inner().unwrap();
                seen.sort_unstable();
                check(&format!("{threads}t {n_chunks}"), chunk, &data, &seen);
            }
        }
    }

    #[test]
    fn bands_visit_every_element_once() {
        for_each_band_split(|label, _, data, _| {
            assert!(data.iter().all(|&v| v == 1), "{label}");
        });
    }

    #[test]
    fn bands_pass_sequential_starts() {
        for_each_band_split(|label, chunk, data, seen| {
            let starts: Vec<usize> = seen.iter().map(|&(s, _)| s).collect();
            let expected: Vec<usize> = sequential_pieces(data.len(), chunk)
                .into_iter()
                .map(|(s, _)| s)
                .collect();
            assert_eq!(starts, expected, "{label}");
        });
    }

    #[test]
    fn bands_cover_the_slice_in_whole_chunks() {
        for_each_band_split(|label, chunk, data, seen| {
            let (last, full) = seen.split_last().unwrap();
            assert!(full.iter().all(|&(_, len)| len == chunk), "{label}");
            assert_eq!(last.1, chunk - 7, "{label}");
            assert_eq!(last.0 + last.1, data.len(), "{label}");
        });
    }

    #[test]
    fn even_bands_cover_everything() {
        for (n_chunks, bands, expected) in [
            (1, 1, vec![1]),
            (4, 2, vec![2, 2]),
            (5, 3, vec![2, 2, 1]),
            (64, 3, vec![22, 21, 21]),
            (65, 2, vec![33, 32]),
        ] {
            let lens: Vec<usize> = (0..bands)
                .map(|b| band_pieces(n_chunks, bands, b))
                .collect();
            assert_eq!(lens, expected, "{n_chunks} pieces in {bands} bands");
        }
    }

    proptest::proptest! {
        #[test]
        fn bands_partition_the_domain(n_chunks in 1usize..10_000, threads in 1usize..64) {
            let bands = threads.min(n_chunks);
            let lens: Vec<usize> = (0..bands).map(|b| band_pieces(n_chunks, bands, b)).collect();
            proptest::prop_assert_eq!(lens.iter().sum::<usize>(), n_chunks);
            proptest::prop_assert!(lens.iter().all(|&l| l >= 1));
            proptest::prop_assert!(lens.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
        }
    }

    #[test]
    fn dispatch_scales_with_threads_not_rows() {
        let pool = ThreadPool::new(PoolConfig::with_threads(2));
        // 64 rows of 1024 columns: well above the inline threshold.
        let (rows, cols) = (64, 1024);
        let mut m = vec![1.0f32; rows * cols];
        let before = pool.jobs_executed();
        pool.par_chunks_mut(&mut m, cols, |start, row| {
            for v in row.iter_mut() {
                *v += start as f32;
            }
        });
        let queued = pool.jobs_executed() - before;
        assert!(
            queued < pool.num_threads(),
            "{rows} rows queued {queued} jobs on a {}-thread pool",
            pool.num_threads()
        );
        assert_eq!(m[5 * cols + 3], 1.0 + (5 * cols) as f32);
    }

    #[test]
    fn small_slices_run_inline_on_the_caller() {
        let pool = ThreadPool::new(PoolConfig::with_threads(2));
        let caller = std::thread::current().id();
        let mut data = vec![0u8; INLINE_ELEMS - 1];
        pool.par_chunks_mut(&mut data, 1, |_, _| {
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn par_chunks_mut_empty_slice_is_noop() {
        let mut data: Vec<u8> = Vec::new();
        par_chunks_mut(&mut data, 4, |_, _| panic!("must not be called"));
    }

    #[test]
    fn par_chunks_mut_writes_every_element() {
        let mut data = vec![0usize; 4096];
        par_chunks_mut(&mut data, 100, |start, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = start + k;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn par_zip_chunks_mut_adds_slices() {
        let mut a = vec![1.0f32; 3000];
        let b: Vec<f32> = (0..3000).map(|i| i as f32).collect();
        par_zip_chunks_mut(&mut a, &b, 128, |_, ac, bc| {
            for (x, y) in ac.iter_mut().zip(bc) {
                *x += *y;
            }
        });
        for (i, v) in a.iter().enumerate() {
            assert_eq!(*v, 1.0 + i as f32);
        }
    }

    #[test]
    #[should_panic(expected = "equally sized")]
    fn par_zip_chunks_mut_rejects_mismatched_lengths() {
        let mut a = vec![0.0f32; 4];
        let b = vec![0.0f32; 5];
        par_zip_chunks_mut(&mut a, &b, 2, |_, _, _| {});
    }
}
