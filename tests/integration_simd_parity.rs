//! SIMD/scalar parity property tests (ISSUE 3 satellite): for every
//! backend available on the host (`QMC_SIMD=avx512|avx2|sse2|scalar` overrides,
//! exercised via `bspline::simd::with_backend`), every layout engine and
//! every kernel must reproduce the scalar reference on ragged orbital
//! counts — `m ∈ {1, LANES−1, LANES, LANES+1, non-multiple}` for each
//! backend's lane width, in both precisions.
//!
//! Tolerance contract (documented in `bspline::simd`): backends with a
//! fused `mul_add` (AVX-512F, AVX2+FMA and the scalar-array pack)
//! perform the bit-identical elementwise chain and must match the
//! scalar backend **exactly**. SSE2 models a pre-FMA machine
//! (`mul`+`add`), so each of its accumulation steps rounds once more
//! than the fused reference; it is bounded by a scale-aware tolerance
//! instead. The ULP/tolerance
//! machinery lives in the shared `tests/common` support module.

mod common;

use bspline::blocked::BlockedEngine;
use bspline::simd::{with_backend, Backend};
use bspline::{BsplineAoS, BsplineAoSoA, BsplineSoA, Kernel, PosBlock, SpoEngine};
use common::BackendTolerance as Parity;
use einspline::{Grid1, MultiCoefs, Real};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_table<T: Real>(n: usize, seed: u64) -> MultiCoefs<T> {
    let g = Grid1::periodic(0.0, 1.0, 5);
    let mut table = MultiCoefs::<T>::new(g, g, g, n);
    table.fill_random(&mut StdRng::seed_from_u64(seed));
    table
}

fn random_block<T: Real>(ns: usize, seed: u64) -> PosBlock<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ns)
        .map(|_| {
            [
                T::from_f64(rng.random::<f64>()),
                T::from_f64(rng.random::<f64>()),
                T::from_f64(rng.random::<f64>()),
            ]
        })
        .collect()
}

/// All kernel outputs of one engine over a position block, flattened,
/// computed under a forced backend (scalar path + batched path).
fn outputs<T: Parity, E: SpoEngine<T>>(
    engine: &E,
    kernel: Kernel,
    pos: &PosBlock<T>,
    backend: Backend,
    read: impl Fn(&E::Out, usize) -> Vec<T>,
) -> (Vec<T>, Vec<T>) {
    with_backend(backend, || {
        let n = engine.n_splines();
        // Scalar entry points.
        let mut single = Vec::new();
        let mut out = engine.make_out();
        for p in pos.iter() {
            engine.eval(kernel, p, &mut out);
            for k in 0..n {
                single.extend(read(&out, k));
            }
        }
        // Batched entry points (hoisted weights, tile-major for AoSoA).
        let mut batched = Vec::new();
        let mut bout = engine.make_batch_out(pos.len());
        engine.eval_batch(kernel, pos, &mut bout);
        for i in 0..pos.len() {
            for k in 0..n {
                batched.extend(read(bout.block(i), k));
            }
        }
        (single, batched)
    })
}

/// Compare one engine × kernel across every available backend against
/// the forced-scalar reference, through both the scalar and batched
/// entry points.
fn check_parity<T: Parity, E: SpoEngine<T>>(
    engine: &E,
    kernel: Kernel,
    pos: &PosBlock<T>,
    read: impl Fn(&E::Out, usize) -> Vec<T> + Copy,
    ctx: &str,
) {
    let (ref_single, ref_batched) =
        outputs(engine, kernel, pos, Backend::Scalar, read);
    // The batched path must bit-match the scalar loop under any backend
    // (it reorders only independent work); cross-check the reference.
    assert_eq!(ref_single.len(), ref_batched.len());
    for b in Backend::available() {
        let (got_single, got_batched) = outputs(engine, kernel, pos, b, read);
        let entries = [("scalar", &ref_single, &got_single), ("batch", &ref_batched, &got_batched)];
        for (entry, want, got) in entries {
            assert_eq!(want.len(), got.len());
            for (i, (&w, &g)) in want.iter().zip(got).enumerate() {
                let at = format!("{ctx} {kernel} {entry}-entry idx={i}");
                if b.is_fused() {
                    assert_eq!(w, g, "{at} [{b}]");
                } else {
                    T::assert_close(b, w, g, &at);
                }
            }
        }
    }
}

fn kernel_outputs<T: Real, O>(kernel: Kernel) -> impl Fn(&O, usize) -> Vec<T> + Copy
where
    O: OutView<T>,
{
    move |out, k| match kernel {
        Kernel::V => vec![out.value_at(k)],
        Kernel::Vgl => {
            let mut v = vec![out.value_at(k)];
            v.extend(out.gradient_at(k));
            v.push(out.laplacian_at(k));
            v
        }
        Kernel::Vgh => {
            let mut v = vec![out.value_at(k)];
            v.extend(out.gradient_at(k));
            v.extend(out.hessian_at(k));
            v
        }
    }
}

trait OutView<T> {
    fn value_at(&self, k: usize) -> T;
    fn gradient_at(&self, k: usize) -> [T; 3];
    fn laplacian_at(&self, k: usize) -> T;
    fn hessian_at(&self, k: usize) -> [T; 6];
}

macro_rules! impl_view {
    ($o:ident) => {
        impl<T: Real> OutView<T> for bspline::$o<T> {
            fn value_at(&self, k: usize) -> T {
                self.value(k)
            }
            fn gradient_at(&self, k: usize) -> [T; 3] {
                self.gradient(k)
            }
            fn laplacian_at(&self, k: usize) -> T {
                self.laplacian(k)
            }
            fn hessian_at(&self, k: usize) -> [T; 6] {
                self.hessian(k)
            }
        }
    };
}
impl_view!(WalkerAoS);
impl_view!(WalkerSoA);

fn check_all_layouts<T: Parity>(n: usize, nb: usize, seed: u64, ns: usize) {
    let table = random_table::<T>(n, seed);
    let pos = random_block::<T>(ns, seed ^ 0x51_3d);
    let aos = BsplineAoS::new(table.clone());
    let soa = BsplineSoA::new(table.clone());
    let tiled = BsplineAoSoA::from_multi(&table, nb);
    for kernel in Kernel::ALL {
        check_parity(&aos, kernel, &pos, kernel_outputs(kernel), "AoS");
        check_parity(&soa, kernel, &pos, kernel_outputs(kernel), "SoA");
        check_parity(&tiled, kernel, &pos, kernel_outputs(kernel), "AoSoA");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn simd_matches_scalar_reference_f32(
        n in 1usize..40,
        nb in 1usize..40,
        seed in 0u64..1000,
        ns in 1usize..5,
    ) {
        check_all_layouts::<f32>(n, nb, seed, ns);
    }

    #[test]
    fn simd_matches_scalar_reference_f64(
        n in 1usize..24,
        nb in 1usize..24,
        seed in 0u64..1000,
        ns in 1usize..4,
    ) {
        check_all_layouts::<f64>(n, nb, seed, ns);
    }
}

/// The exact lane-boundary orbital counts for every backend width on
/// this host: m = 1, LANES−1, LANES, LANES+1, plus a non-multiple.
#[test]
fn lane_boundary_orbital_counts() {
    let mut counts: Vec<usize> = vec![1, 37];
    for b in Backend::available() {
        for lanes in [b.lanes_f32(), b.lanes_f64()] {
            counts.extend([lanes.saturating_sub(1).max(1), lanes, lanes + 1]);
        }
    }
    counts.sort_unstable();
    counts.dedup();
    for (i, &m) in counts.iter().enumerate() {
        check_all_layouts::<f32>(m, (m / 2).max(1), 77 + i as u64, 2);
        check_all_layouts::<f64>(m, m, 177 + i as u64, 2);
    }
}

/// The orbital counts only a 16-lane pack can break — below one
/// register (1, 15), exactly one (16), one plus a scalar tail (17), a
/// tail of 8 that AVX2 took as a full chunk (24), two packs and a tail
/// of 8 (40) — through the monolithic engines (whose padded streams
/// never reach a tail) and through blocked engines whose block width is
/// a multiple of 8 but not of 16, so that views of 8 and 24 orbitals
/// reach the kernels: one pack-less tail (the AoSoA tiles of 8), one
/// pack plus a tail. Fused backends are bit-equal to `Backend::Scalar`
/// (`check_parity`).
fn sixteen_lane_cases<T: Parity>(seed: u64) {
    for (i, n) in [1usize, 15, 16, 17, 24, 40].into_iter().enumerate() {
        check_all_layouts::<T>(n, 8, seed + i as u64, 3);
        let table = random_table::<T>(n, seed + i as u64);
        let pos = random_block::<T>(3, seed ^ 0x16);
        let blocked = BlockedEngine::with_block_size(&table, 24);
        for kernel in Kernel::ALL {
            let ctx = format!("N={n} blocked/24");
            check_parity(&blocked, kernel, &pos, kernel_outputs(kernel), &ctx);
        }
    }
}

#[test]
fn sixteen_lane_cases_match_the_scalar_backend_f32() {
    sixteen_lane_cases::<f32>(500);
}

/// In `f64` the same counts straddle the 8-lane pack: 15 and 17 are
/// one pack ± a tail of 7 / two packs + 1, 24 is three packs.
#[test]
fn sixteen_lane_cases_match_the_scalar_backend_f64() {
    sixteen_lane_cases::<f64>(600);
}

/// `with_backend` is the in-process equivalent of the `QMC_SIMD`
/// override; the env-var spelling itself must parse to the same
/// backends the dispatcher recognizes.
#[test]
fn qmc_simd_override_spellings_cover_available_backends() {
    for b in Backend::available() {
        assert_eq!(b.name().parse::<Backend>(), Ok(b));
        // And forcing it actually takes effect.
        with_backend(b, || assert_eq!(bspline::simd::active_backend(), b));
    }
}
