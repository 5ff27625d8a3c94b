//! Nested (block-level) parallel execution — Opt C.
//!
//! The classic QMC strategy parallelizes over walkers only. The paper's
//! Opt C additionally splits each walker's evaluation across `nth`
//! threads by statically partitioning the B blocks of a
//! [`BlockedEngine`] (the AoSoA tiles) into `nth` contiguous chunks
//! ([`run_nested_blocked`]); walkers per node shrink by the same factor,
//! so the machine-wide thread count stays constant while the
//! time-to-solution per Monte Carlo generation drops by up to `nth`.
//!
//! The partition is static and explicit, which is the paper's choice
//! ("an explicit data partition scheme … avoids any potential overhead
//! from OpenMP nested run time environment"): work items are
//! `(walker, block-chunk)` pairs enumerated up front and handed to rayon
//! as a flat parallel iterator; no nested pool is spawned and no work
//! queue is consulted. The per-position grid location + basis weights
//! are hoisted once per walker *before* the parallel region, so every
//! block chunk reuses the same `Located` block. The fan-out workers
//! re-arm the SIMD backend that is active on the calling thread, so a
//! surrounding [`with_backend`](crate::simd::with_backend) force
//! reaches every worker.

use crate::batch::{Located, PosBlock};
use crate::blocked::BlockedEngine;
use crate::engine::SpoEngine;
use crate::layout::Kernel;
use crate::output::{SoAStreamsMut, WalkerSoA};
use crate::soa::BsplineSoA;
use crate::walker::walker_rng;
use einspline::Real;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Partition `m` tiles into at most `nth` contiguous chunks of nearly
/// equal size. Returns `(lo, hi)` half-open ranges — **only non-empty
/// ones**: `min(m, nth)` chunks when `m < nth`, and an empty vector
/// when `m == 0`, so nested schedulers never spawn empty work items
/// (and `m = 0` no longer divides by zero).
pub fn partition_tiles(m: usize, nth: usize) -> Vec<(usize, usize)> {
    assert!(nth > 0, "need at least one thread per walker");
    if m == 0 {
        return Vec::new();
    }
    let chunks = nth.min(m);
    let base = m / chunks;
    let extra = m % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut lo = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        out.push((lo, lo + len));
        lo += len;
    }
    debug_assert_eq!(lo, m);
    out
}

/// One nested-threading generation over a [`BlockedEngine`]: the
/// walker×block schedule. Each walker's `B` blocks are statically
/// partitioned into `nth` contiguous chunks ([`partition_tiles`]), and
/// every `(walker, chunk)` pair becomes one work item whose mutable
/// target is that walker's [`WalkerSoA::split_streams_mut`] view over
/// the chunk's orbital range — disjointness is borrow-checked, no
/// interior mutability. Work items are enumerated **chunk-major**
/// (outer block chunks, inner walkers), so an under-subscribed or
/// serial schedule sweeps one chunk's cache-sized slabs across every
/// walker's whole position block before touching the next chunk — the
/// generation-level cache blocking the budget sizing is for.
///
/// `walkers[w]` must have been allocated by the engine's `make_out`.
/// Returns the wall-clock time of the parallel region.
pub fn run_nested_blocked<T: Real>(
    eng: &BlockedEngine<BsplineSoA<T>>,
    kernel: Kernel,
    walkers: &mut [WalkerSoA<T>],
    positions: &[PosBlock<T>],
    nth: usize,
) -> Duration {
    assert_eq!(
        walkers.len(),
        positions.len(),
        "one position block per walker"
    );
    let ranges = partition_tiles(eng.n_blocks(), nth);
    let locs: Vec<Vec<Located<T>>> = positions.iter().map(|b| eng.locate_block(b)).collect();
    let bounds: Vec<(usize, usize)> = ranges
        .iter()
        .map(|&(lo, hi)| eng.chunk_range(lo, hi))
        .collect();

    struct Job<'a, T: Real> {
        view: SoAStreamsMut<'a, T>,
        blocks: (usize, usize),
        /// Global orbital offset of the view's first element.
        base: usize,
        locs: &'a [Located<T>],
    }

    let mut per_walker: Vec<Vec<Option<SoAStreamsMut<'_, T>>>> = walkers
        .iter_mut()
        .map(|w| w.split_streams_mut(&bounds).into_iter().map(Some).collect())
        .collect();
    let mut jobs: Vec<Job<'_, T>> = Vec::with_capacity(ranges.len() * locs.len());
    for (c, &(blo, bhi)) in ranges.iter().enumerate() {
        for (w, views) in per_walker.iter_mut().enumerate() {
            jobs.push(Job {
                view: views[c].take().expect("each chunk view moves once"),
                blocks: (blo, bhi),
                base: bounds[c].0,
                locs: &locs[w],
            });
        }
    }

    let backend = crate::simd::active_backend();
    let t0 = Instant::now();
    jobs.into_par_iter().for_each(|mut job| {
        crate::simd::with_backend(backend, || {
            for b in job.blocks.0..job.blocks.1 {
                let (lo, hi) = eng.block_range(b);
                for (i, loc) in job.locs.iter().enumerate() {
                    // One evaluation ahead, bounded by this work item's
                    // chunk (blocks past it belong to other threads).
                    eng.prefetch_ahead(b, job.blocks.1, i, job.locs);
                    eng.eval_block_located(
                        b,
                        kernel,
                        loc,
                        job.view.range_mut(lo - job.base, hi - job.base),
                    );
                }
            }
        })
    });
    t0.elapsed()
}

/// Strong-scaling measurement for Fig. 9: with a fixed machine-wide
/// thread budget `total_threads`, run `total_threads / nth` walkers at
/// `nth` threads-per-walker through [`run_nested_blocked`] and return
/// the wall time of one generation (`ns` positions of `kernel` per
/// walker).
pub fn blocked_generation_time<T: Real>(
    engine: &BlockedEngine<BsplineSoA<T>>,
    kernel: Kernel,
    total_threads: usize,
    nth: usize,
    ns: usize,
    seed: u64,
) -> Duration {
    let n_walkers = (total_threads / nth).max(1);
    let domain = SpoEngine::<T>::domain(engine);
    let positions: Vec<PosBlock<T>> = (0..n_walkers)
        .map(|w| {
            let mut rng = walker_rng(seed, w);
            PosBlock::random(&mut rng, ns, domain)
        })
        .collect();
    let mut walkers: Vec<WalkerSoA<T>> = (0..n_walkers).map(|_| engine.make_out()).collect();
    run_nested_blocked(engine, kernel, &mut walkers, &positions, nth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use einspline::{Grid1, MultiCoefs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(n: usize) -> MultiCoefs<f32> {
        let g = Grid1::periodic(0.0, 1.0, 6);
        let mut m = MultiCoefs::<f32>::new(g, g, g, n);
        m.fill_random(&mut StdRng::seed_from_u64(177));
        m
    }

    fn blocked_engine(n: usize, nb: usize) -> BlockedEngine<BsplineSoA<f32>> {
        BlockedEngine::with_block_size(&table(n), nb)
    }

    fn random_blocks<E: SpoEngine<f32>>(
        engine: &E,
        n_walkers: usize,
        ns: usize,
        seed: u64,
    ) -> Vec<PosBlock<f32>> {
        let domain = engine.domain();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_walkers)
            .map(|_| PosBlock::random(&mut rng, ns, domain))
            .collect()
    }

    /// Serial reference: each walker's last position's outputs.
    fn serial<E: SpoEngine<f32, Out = WalkerSoA<f32>>>(
        engine: &E,
        positions: &[PosBlock<f32>],
    ) -> Vec<WalkerSoA<f32>> {
        positions
            .iter()
            .map(|block| {
                let mut out = engine.make_out();
                for p in block.iter() {
                    engine.vgh(p, &mut out);
                }
                out
            })
            .collect()
    }

    fn assert_walkers_eq(want: &[WalkerSoA<f32>], got: &[WalkerSoA<f32>], n: usize, ctx: &str) {
        assert_eq!(want.len(), got.len(), "{ctx}");
        for (w, (a, b)) in want.iter().zip(got).enumerate() {
            for k in 0..n {
                assert_eq!(a.value(k), b.value(k), "{ctx} w={w} k={k}");
                assert_eq!(a.hessian(k), b.hessian(k), "{ctx} w={w} k={k}");
            }
        }
    }

    #[test]
    fn partition_covers_all_tiles() {
        for (m, nth) in [(8, 2), (7, 3), (16, 16), (4, 8), (1, 4), (13, 5)] {
            let ranges = partition_tiles(m, nth);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, m);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
                assert!(w[0].1 > w[0].0, "non-empty");
            }
            assert!(ranges.len() <= nth.min(m));
            // Balanced: sizes differ by at most one.
            let sizes: Vec<usize> = ranges.iter().map(|(l, h)| h - l).collect();
            let (mn, mx) = (
                sizes.iter().min().unwrap(),
                sizes.iter().max().unwrap(),
            );
            assert!(mx - mn <= 1, "m={m} nth={nth} sizes={sizes:?}");
        }
    }

    #[test]
    fn partition_of_zero_tiles_is_empty() {
        assert!(partition_tiles(0, 4).is_empty());
        assert!(partition_tiles(0, 1).is_empty());
    }

    #[test]
    fn nested_results_match_serial_tiled_eval() {
        let engine = crate::aosoa::BsplineAoSoA::from_multi(&table(48), 8);
        let positions = random_blocks(&engine, 2, 3, 9);
        let expect = serial(&engine, &positions);
        for nth in [1usize, 2, 4, 16] {
            let mut got: Vec<WalkerSoA<f32>> = (0..2).map(|_| engine.make_out()).collect();
            run_nested_blocked(&engine, Kernel::Vgh, &mut got, &positions, nth);
            assert_walkers_eq(&expect, &got, 48, &format!("nth={nth}"));
        }
    }

    #[test]
    fn nested_blocked_matches_serial_blocked_eval() {
        let engine = blocked_engine(53, 8); // 7 blocks, ragged tail of 5
        let positions = random_blocks(&engine, 3, 4, 4);
        let expect = serial(&engine, &positions);
        for nth in [1usize, 2, 4, 16] {
            let mut got: Vec<WalkerSoA<f32>> = (0..3).map(|_| engine.make_out()).collect();
            run_nested_blocked(&engine, Kernel::Vgh, &mut got, &positions, nth);
            assert_walkers_eq(&expect, &got, 53, &format!("nth={nth}"));
        }
    }

    #[test]
    fn more_threads_than_tiles_is_safe() {
        let engine = blocked_engine(16, 8); // 2 blocks
        let positions = random_blocks(&engine, 2, 3, 1);
        let expect = serial(&engine, &positions);
        let mut got: Vec<WalkerSoA<f32>> = (0..2).map(|_| engine.make_out()).collect();
        run_nested_blocked(&engine, Kernel::Vgh, &mut got, &positions, 8);
        assert_walkers_eq(&expect, &got, 16, "nth=8 > B=2");
    }

    #[test]
    fn nested_blocked_with_no_walkers_is_a_no_op() {
        let engine = blocked_engine(24, 8);
        run_nested_blocked(&engine, Kernel::Vgh, &mut [], &[], 4);
    }

    #[test]
    fn nested_blocked_leaves_outputs_of_an_empty_block_untouched() {
        let engine = blocked_engine(24, 8);
        for nth in [1usize, 4] {
            let mut walkers = vec![engine.make_out()];
            run_nested_blocked(&engine, Kernel::Vgh, &mut walkers, &[PosBlock::new()], nth);
            for k in 0..24 {
                assert_eq!(walkers[0].value(k), 0.0, "nth={nth} k={k}");
                assert_eq!(walkers[0].hessian(k), [0.0; 6], "nth={nth} k={k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "need at least one thread per walker")]
    fn nested_blocked_rejects_zero_threads() {
        let engine = blocked_engine(24, 8);
        let positions = random_blocks(&engine, 1, 2, 3);
        let mut walkers = vec![engine.make_out()];
        run_nested_blocked(&engine, Kernel::Vgh, &mut walkers, &positions, 0);
    }

    #[test]
    fn blocked_generation_time_runs_all_kernels() {
        let engine = blocked_engine(32, 8);
        for k in Kernel::ALL {
            let d = blocked_generation_time(&engine, k, 4, 2, 2, 13);
            assert!(d > Duration::ZERO, "{k}");
        }
    }

    #[test]
    fn nested_workers_inherit_the_forced_backend() {
        use crate::simd::{backend_log, with_backend, Backend};
        use std::collections::BTreeSet;
        // A scalar force must survive the fan-out to worker threads.
        // Every backend gives the same bits, so the outputs cannot show
        // a worker that fell back to the default backend; the backend
        // log of each block's table can. (On a one-thread pool the
        // fan-out runs inline, where the force holds anyway.)
        let engine = blocked_engine(24, 8);
        let positions = random_blocks(&engine, 1, 3, 11);
        let tables = || engine.blocks().iter().map(BsplineSoA::coefs);
        for t in tables() {
            backend_log::take(t);
        }
        let mut nested = vec![engine.make_out()];
        with_backend(Backend::Scalar, || {
            run_nested_blocked(&engine, Kernel::Vgh, &mut nested, &positions, 4);
        });
        for (b, t) in tables().enumerate() {
            let seen = backend_log::take(t);
            assert_eq!(seen, BTreeSet::from([Backend::Scalar]), "block {b}");
        }
        let expect = with_backend(Backend::Scalar, || serial(&engine, &positions));
        assert_walkers_eq(&expect, &nested, 24, "forced scalar");
    }
}
