//! Blocked-engine conformance suite (ISSUE 5): the orbital-block
//! decomposition must be **bit-identical** to the monolithic engines on
//! every kernel / layout / backend / precision / entry-point
//! combination, for every block shape — including `B = 1` (the
//! degenerate monolithic decomposition), ragged last blocks, and blocks
//! narrower than one SIMD register (the micro-kernels' scalar-tail
//! path). The nested walker×block schedule must agree with the serial
//! blocked evaluation for any thread count.

mod common;

use crate::common::{assert_regrouped, BackendTolerance};
use bspline::blocked::BlockedEngine;
use bspline::parallel::run_nested_blocked;
use bspline::precision::MixedEngine;
use bspline::simd::{with_backend, Backend};
use bspline::{BsplineSoA, Kernel, PosBlock, SpoEngine, WalkerSoA};
use einspline::{Grid1, MultiCoefs, Real};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn table<T: Real>(n: usize, seed: u64) -> MultiCoefs<T> {
    let g = Grid1::periodic(0.0, 1.0, 5);
    let mut m = MultiCoefs::<T>::new(g, g, g, n);
    m.fill_random(&mut StdRng::seed_from_u64(seed));
    m
}

/// Compare the streams `kernel` writes under `backend`'s regrouping
/// contract ([`assert_regrouped`]).
fn assert_streams_eq<T: BackendTolerance>(
    backend: Backend,
    kernel: Kernel,
    want: &WalkerSoA<T>,
    got: &WalkerSoA<T>,
    n: usize,
) {
    let close = |want: T, got: T, ctx: &str| assert_regrouped(backend, want, got, ctx);
    for k in 0..n {
        close(want.value(k), got.value(k), &format!("{kernel} value k={k}"));
        let (per_comp, wants, gots): (usize, Vec<T>, Vec<T>) = match kernel {
            Kernel::V => continue,
            Kernel::Vgl => (
                4,
                [want.gradient(k).to_vec(), vec![want.laplacian(k)]].concat(),
                [got.gradient(k).to_vec(), vec![got.laplacian(k)]].concat(),
            ),
            Kernel::Vgh => (
                9,
                [want.gradient(k).to_vec(), want.hessian(k).to_vec()].concat(),
                [got.gradient(k).to_vec(), got.hessian(k).to_vec()].concat(),
            ),
        };
        for c in 0..per_comp {
            close(wants[c], gots[c], &format!("{kernel} comp {c} k={k}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Blocked (the AoSoA tiling) ≡ monolithic SoA for every kernel and
    /// backend, scalar and batched entry, f32: any block width from 1
    /// (narrower than every SIMD register → pure scalar tails) through
    /// ragged widths to `nb ≥ N` (B = 1).
    #[test]
    fn blocked_bit_matches_monolithic_f32(
        n in 1usize..40,
        nb in 1usize..48,
        seed in 0u64..500,
        px in 0.0f32..1.0,
        py in 0.0f32..1.0,
        pz in 0.0f32..1.0,
    ) {
        let t = table::<f32>(n, seed);
        let mono = BsplineSoA::new(t.clone());
        let blocked = BlockedEngine::with_block_size(&t, nb);
        let pos = [px, py, pz];
        let block: PosBlock<f32> = [pos, [pz, px, py]].into_iter().collect();

        for backend in Backend::available() {
            for kernel in Kernel::ALL {
                with_backend(backend, || {
                    // Scalar entry.
                    let mut want = mono.make_out();
                    let mut got = blocked.make_out();
                    mono.eval(kernel, pos, &mut want);
                    blocked.eval(kernel, pos, &mut got);
                    assert_streams_eq(backend, kernel, &want, &got, n);

                    // Batched entry (block-major loop + prefetch path).
                    let mut bwant = mono.make_batch_out(block.len());
                    let mut bgot = blocked.make_batch_out(block.len());
                    mono.eval_batch(kernel, &block, &mut bwant);
                    blocked.eval_batch(kernel, &block, &mut bgot);
                    for i in 0..block.len() {
                        assert_streams_eq(backend, kernel, bwant.block(i), bgot.block(i), n);
                    }
                });
            }
        }
    }

    /// Same contract in f64 (different lane widths and cache-line
    /// quantum: 8 per line, AVX2 4 lanes).
    #[test]
    fn blocked_bit_matches_monolithic_f64(
        n in 1usize..24,
        nb in 1usize..32,
        seed in 0u64..200,
        px in 0.0f64..1.0,
    ) {
        let t = table::<f64>(n, seed);
        let mono = BsplineSoA::new(t.clone());
        let blocked = BlockedEngine::with_block_size(&t, nb);
        let pos = [px, 0.37, 0.81];
        for backend in Backend::available() {
            with_backend(backend, || {
                let mut want = mono.make_out();
                let mut got = blocked.make_out();
                mono.vgh(pos, &mut want);
                blocked.vgh(pos, &mut got);
                assert_streams_eq(backend, Kernel::Vgh, &want, &got, n);
            });
        }
    }

    /// Mixed precision through the blocked inner engine: the
    /// `MixedEngine<BlockedEngine<_>>` wide outputs equal the
    /// `MixedEngine<BsplineSoA<_>>` wide outputs exactly (identical
    /// f32 elementwise chains, exact widening), scalar and batched.
    #[test]
    fn mixed_blocked_matches_mixed_monolithic(
        n in 1usize..24,
        seed in 0u64..200,
        px in 0.0f64..1.0,
    ) {
        let t = table::<f64>(n, seed);
        let mono = MixedEngine::soa(&t);
        let blocked = MixedEngine::blocked(&t, 1); // one-quantum blocks
        let pos = [px, 0.52, 0.19];
        // Wide outputs are exact widenings of the inner f32 results, so
        // the blocked-vs-monolithic contract is the f32 one: exact under
        // fused backends, scale-aware under SSE2 (QMC_SIMD matrix legs).
        let backend = bspline::simd::active_backend();
        let close = |x: f64, y: f64, ctx: &str| assert_regrouped(backend, x as f32, y as f32, ctx);
        let (mut a, mut b) = (mono.make_out(), blocked.make_out());
        for kernel in Kernel::ALL {
            mono.eval(kernel, pos, &mut a);
            blocked.eval(kernel, pos, &mut b);
            for k in 0..n {
                close(a.wide().value(k), b.wide().value(k), &format!("{kernel} k={k}"));
            }
        }
        let block: PosBlock<f64> = [pos, [0.9, 0.1, 0.5]].into_iter().collect();
        let mut ba = mono.make_batch_out(block.len());
        let mut bb = blocked.make_batch_out(block.len());
        mono.eval_batch(Kernel::Vgh, &block, &mut ba);
        blocked.eval_batch(Kernel::Vgh, &block, &mut bb);
        for i in 0..block.len() {
            for k in 0..n {
                for r in 0..6 {
                    close(
                        ba.block(i).wide().hessian(k)[r],
                        bb.block(i).wide().hessian(k)[r],
                        &format!("i={i} k={k} r={r}"),
                    );
                }
            }
        }
    }

    /// The nested walker×block schedule (any thread count, including
    /// more threads than blocks) reproduces the serial blocked
    /// evaluation bit-for-bit.
    #[test]
    fn nested_blocked_schedules_match_serial(
        n in 1usize..40,
        nb in 1usize..16,
        nth in 1usize..12,
        seed in 0u64..200,
    ) {
        let t = table::<f32>(n, seed);
        let blocked = BlockedEngine::with_block_size(&t, nb);
        let positions = vec![
            PosBlock::from_positions(&[[0.2f32, 0.7, 0.4], [0.9, 0.1, 0.6]]),
            PosBlock::from_positions(&[[0.5f32, 0.5, 0.5]]),
        ];
        let mut expect: Vec<WalkerSoA<f32>> =
            (0..2).map(|_| blocked.make_out()).collect();
        for (w, out) in expect.iter_mut().enumerate() {
            for p in positions[w].iter() {
                blocked.vgh(p, out);
            }
        }
        let mut stat: Vec<WalkerSoA<f32>> =
            (0..2).map(|_| blocked.make_out()).collect();
        run_nested_blocked(&blocked, Kernel::Vgh, &mut stat, &positions, nth);
        // Serial and scheduled runs take identical per-block code paths,
        // so exact equality holds on every backend; passing the active
        // backend only affects the (unused) tolerance branch.
        for w in 0..2 {
            let b = bspline::simd::active_backend();
            assert_streams_eq(b, Kernel::Vgh, &expect[w], &stat[w], n);
        }
    }

    /// Budget sizing invariants: the decomposition respects the budget
    /// (down to the one-quantum floor), the orbital map inverts block
    /// ranges, and every orbital is covered exactly once.
    #[test]
    fn budget_decomposition_invariants(
        n in 1usize..200,
        budget_quanta in 0usize..20,
        seed in 0u64..100,
    ) {
        let t = table::<f32>(n, seed);
        let budget = budget_quanta * 16 * t.bytes_per_spline() + 1;
        let engine = BlockedEngine::from_multi(&t, budget);
        let quantum_slab = 16 * t.bytes_per_spline();
        // Respect the budget unless the one-quantum floor forces more.
        prop_assert!(engine.block_bytes() <= budget.max(quantum_slab));
        prop_assert_eq!(engine.nb(), t.block_splines_for_budget(budget));
        // Full disjoint cover, map inversion.
        let mut covered = 0usize;
        for b in 0..engine.n_blocks() {
            let (lo, hi) = engine.block_range(b);
            prop_assert_eq!(lo, covered);
            for g in lo..hi {
                prop_assert_eq!(engine.locate_orbital(g), (b, g - lo));
            }
            covered = hi;
        }
        prop_assert_eq!(covered, n);
        prop_assert_eq!(SpoEngine::<f32>::n_splines(&engine), n);
    }
}
