//! Offline stand-in for the [`rayon`](https://crates.io/crates/rayon)
//! crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the rayon API surface it consumes — `into_par_iter()` on vectors
//! with `.map(..).collect()` or `.for_each(..)`, and
//! `current_num_threads()` — implemented with `std::thread::scope` over
//! contiguous chunks. The split is a *balanced static partition* (chunk
//! sizes differ by at most one, so a ragged item count never idles a
//! worker), which is how this workspace uses it: the paper's Opt C deliberately prefers an
//! explicit static partition ("avoids any potential overhead from
//! \[the\] nested run time environment").
//!
//! Replace this stub with the real crate by pointing the
//! `[workspace.dependencies]` entry back at crates.io.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::sync::OnceLock;
use std::thread;

/// Conventional glob-import module, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelIterator;
}

/// Number of worker threads used for parallel regions: the host's
/// available parallelism, overridden by `QMC_THREADS=n` (read once per
/// process). The override is what lets the scaling bins, the examples
/// and CI pin reproducible thread counts — including counts *above* the
/// core count (the scoped-thread workers simply timeshare), which is how
/// a single-core host still exercises every nested scheduling path.
///
/// The override is parsed **strictly**: `QMC_THREADS=0` or a
/// non-numeric value panics with a message naming the variable. A
/// silent fallback here would make a mistyped CI matrix leg (or a
/// `QMC_THREADS=O4` typo) measure the wrong thread count while
/// claiming the pinned one.
pub fn current_num_threads() -> usize {
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    let forced =
        *OVERRIDE.get_or_init(|| std::env::var("QMC_THREADS").ok().map(|v| parse_threads(&v)));
    forced.unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Strictly parse a `QMC_THREADS` value: a positive integer, or panic
/// naming the variable and the offending value.
fn parse_threads(raw: &str) -> usize {
    match raw.trim().parse::<usize>() {
        Ok(0) => panic!(
            "QMC_THREADS must be a positive thread count, got 0 \
             (unset the variable to use the detected parallelism)"
        ),
        Ok(n) => n,
        Err(_) => panic!(
            "QMC_THREADS must be a positive integer, got {raw:?} \
             (unset the variable to use the detected parallelism)"
        ),
    }
}

/// Balanced static partition: split `n` items into at most `threads`
/// contiguous chunk lengths whose sizes differ by at most one.
fn balanced_chunk_lens(n: usize, threads: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.min(n).max(1);
    let base = n / workers;
    let extra = n % workers;
    (0..workers)
        .map(|c| base + usize::from(c < extra))
        .collect()
}

fn run_map<I: Send, O: Send, F: Fn(I) -> O + Sync>(items: Vec<I>, f: &F) -> Vec<O> {
    run_map_with(current_num_threads(), items, f)
}

fn run_map_with<I: Send, O: Send, F: Fn(I) -> O + Sync>(
    max_threads: usize,
    items: Vec<I>,
    f: &F,
) -> Vec<O> {
    let n = items.len();
    let threads = max_threads.min(n.max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let mut chunks: Vec<Vec<I>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    for len in balanced_chunk_lens(n, threads) {
        chunks.push(it.by_ref().take(len).collect());
    }
    thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| s.spawn(move || c.into_iter().map(f).collect::<Vec<O>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Conversion into a parallel iterator, mirroring
/// `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// The produced element type.
    type Item: Send;
    /// Materialize the parallel iterator.
    fn into_par_iter(self) -> IntoParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> IntoParIter<T> {
        IntoParIter { items: self }
    }
}

/// An owned parallel iterator over materialized items.
pub struct IntoParIter<T> {
    items: Vec<T>,
}

impl<T: Send> IntoParIter<T> {
    /// Apply `f` to every item in parallel; order of the eventual
    /// collection matches input order.
    pub fn map<O: Send, F: Fn(T) -> O + Sync>(self, f: F) -> MapIter<T, F> {
        MapIter {
            items: self.items,
            f,
        }
    }

    /// Run `f` on every item in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        run_map(self.items, &|x| f(x));
    }
}

/// A mapped parallel iterator (`IntoParIter::map`).
pub struct MapIter<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, F> MapIter<T, F> {
    /// Execute the pipeline in parallel and collect in input order.
    pub fn collect<O, C>(self) -> C
    where
        O: Send,
        F: Fn(T) -> O + Sync,
        C: FromIterator<O>,
    {
        run_map(self.items, &self.f).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = items.into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn vec_for_each_visits_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sum = AtomicUsize::new(0);
        (1..=100)
            .collect::<Vec<usize>>()
            .into_par_iter()
            .for_each(|x| {
                sum.fetch_add(x, Ordering::Relaxed);
            });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn forced_multithread_paths_match_sequential() {
        // `available_parallelism` may be 1 in CI containers, which
        // would leave the scoped-thread branch uncovered — force it.
        let inputs: Vec<usize> = (0..1003).collect();
        let expect: Vec<usize> = inputs.iter().map(|i| i * 3 + 1).collect();
        let out = crate::run_map_with(7, inputs, &|i| i * 3 + 1);
        assert_eq!(out, expect);
    }

    #[test]
    fn balanced_partition_never_idles_workers() {
        // 17 items on 16 threads: old div_ceil chunking produced 9
        // chunks of 2 (7 idle workers); balanced gives 16 chunks.
        let lens = crate::balanced_chunk_lens(17, 16);
        assert_eq!(lens.len(), 16);
        assert_eq!(lens.iter().sum::<usize>(), 17);
        assert!(lens.iter().all(|&l| l == 1 || l == 2));
        assert_eq!(crate::balanced_chunk_lens(3, 8), vec![1, 1, 1]);
        assert_eq!(crate::balanced_chunk_lens(0, 4), Vec::<usize>::new());
    }

    #[test]
    fn thread_count_is_positive_and_honors_override() {
        let n = crate::current_num_threads();
        assert!(n >= 1);
        // Under a CI matrix leg with QMC_THREADS pinned, the stub must
        // report exactly the pinned count.
        if let Some(k) = std::env::var("QMC_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&k| k > 0)
        {
            assert_eq!(n, k);
        }
    }

    #[test]
    fn thread_override_parses_strictly() {
        assert_eq!(crate::parse_threads("4"), 4);
        assert_eq!(crate::parse_threads(" 16 "), 16, "whitespace trimmed");
    }

    #[test]
    #[should_panic(expected = "QMC_THREADS must be a positive thread count, got 0")]
    fn zero_thread_override_panics() {
        crate::parse_threads("0");
    }

    #[test]
    #[should_panic(expected = "QMC_THREADS must be a positive integer")]
    fn non_numeric_thread_override_panics() {
        crate::parse_threads("four");
    }

    #[test]
    fn empty_and_single_inputs_are_fine() {
        let out: Vec<usize> = Vec::<usize>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
        let one: Vec<usize> = vec![0].into_par_iter().map(|x| x + 41).collect();
        assert_eq!(one, vec![41]);
    }
}
