//! Edge-case integration tests: boundary positions, degenerate sizes,
//! and numerical-hygiene scenarios across the whole stack.

mod common;

use std::sync::Arc;

use bspline::precision::{MixedEngine, MixedOut, WidenOut};
use bspline::SpoEngine;
use bspline::{
    BlockedEngine, BsplineAoS, BsplineAoSoA, BsplineSoA, Kernel, MoveContext, PosBlock,
    RoutingPolicy, ServiceClient, ServiceConfig, SpoService, WalkerAoS, WalkerSoA,
};
use common::assert_regrouped;
use einspline::{Grid1, MultiCoefs, Real};
use miniqmc::determinant::DiracDeterminant;
use miniqmc::drivers::dmc::{DmcConfig, DmcPopulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn table(n: usize, ng: usize, seed: u64) -> MultiCoefs<f32> {
    let g = Grid1::periodic(0.0, 1.0, ng);
    let mut m = MultiCoefs::new(g, g, g, n);
    m.fill_random(&mut StdRng::seed_from_u64(seed));
    m
}

#[test]
fn single_orbital_engines_work() {
    let t = table(1, 5, 1);
    let soa = BsplineSoA::new(t.clone());
    let aos = BsplineAoS::new(t.clone());
    let tiled = BsplineAoSoA::from_multi(&t, 1);
    let mut os = soa.make_out();
    let mut oa = aos.make_out();
    let mut ot = tiled.make_out();
    for k in Kernel::ALL {
        soa.eval(k, [0.3, 0.3, 0.3], &mut os);
        aos.eval(k, [0.3, 0.3, 0.3], &mut oa);
        tiled.eval(k, [0.3, 0.3, 0.3], &mut ot);
    }
    assert!((os.value(0) - oa.value(0)).abs() < 1e-5);
    // A one-orbital tile runs the kernels' scalar tail.
    assert_regrouped(bspline::simd::active_backend(), os.value(0), ot.value(0), "value");
}

#[test]
fn positions_exactly_on_grid_points_and_boundaries() {
    let t = table(8, 6, 2);
    let soa = BsplineSoA::new(t);
    let mut out = soa.make_out();
    // Exact knots, the periodic seam, negative coordinates and exact
    // multiples of the period must all evaluate finitely and
    // periodically.
    let cases: [[f32; 3]; 6] = [
        [0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0],
        [0.5, 0.0, 1.0],
        [-0.25, 0.75, 2.0],
        [1.0 - 1e-7, 0.0, 0.5],
        [1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0],
    ];
    for pos in cases {
        soa.vgh(pos, &mut out);
        for n in 0..8 {
            assert!(out.value(n).is_finite(), "{pos:?}");
            assert!(out.hessian_trace(n).is_finite());
        }
    }
    // Periodicity at the seam.
    soa.vgh([0.0, 0.3, 0.3], &mut out);
    let a = out.value(3);
    soa.vgh([1.0, 0.3, 0.3], &mut out);
    assert!((a - out.value(3)).abs() < 1e-6);
}

#[test]
fn tile_size_larger_than_n_is_one_tile() {
    let t = table(10, 5, 3);
    let tiled = BsplineAoSoA::from_multi(&t, 1000);
    assert_eq!(tiled.n_blocks(), 1);
    let mut out = tiled.make_out();
    tiled.vgh([0.2, 0.4, 0.6], &mut out);
    assert!(out.value(9).is_finite());
}

#[test]
fn every_tile_size_from_one_to_n_is_consistent() {
    let n = 12;
    let t = table(n, 5, 4);
    let reference = BsplineSoA::new(t.clone());
    let mut ref_out = reference.make_out();
    let pos = [0.71f32, 0.13, 0.57];
    reference.vgh(pos, &mut ref_out);
    let backend = bspline::simd::active_backend();
    for nb in 1..=n {
        let tiled = BsplineAoSoA::from_multi(&t, nb);
        let mut out = tiled.make_out();
        tiled.vgh(pos, &mut out);
        for k in 0..n {
            assert_regrouped(backend, ref_out.value(k), out.value(k), &format!("nb={nb} k={k}"));
            for d in 0..3 {
                let (want, got) = (ref_out.gradient(k)[d], out.gradient(k)[d]);
                assert_regrouped(backend, want, got, &format!("nb={nb} k={k} d={d}"));
            }
        }
    }
}

#[test]
fn determinant_survives_long_update_chains_with_refresh() {
    let n = 16;
    let mut rng = StdRng::seed_from_u64(5);
    let mut a: Vec<f64> = (0..n * n).map(|_| rng.random::<f64>() - 0.5).collect();
    for i in 0..n {
        a[i * n + i] += 2.5;
    }
    let mut det = DiracDeterminant::build(&a, n);
    for step in 0..600 {
        let e = step % n;
        let phi: Vec<f64> = (0..n)
            .map(|k| a[e * n + k] + 0.1 * (rng.random::<f64>() - 0.5))
            .collect();
        let r = det.ratio(e, &phi);
        if r.abs() > 1e-4 {
            det.accept(e, &phi);
            a[e * n..(e + 1) * n].copy_from_slice(&phi);
        }
        if step % 100 == 99 {
            det.refresh();
        }
    }
    assert!(
        det.inverse_error() < 1e-9,
        "drift {} after refresh cadence",
        det.inverse_error()
    );
}

#[test]
fn dmc_population_handles_tiny_targets() {
    let mut p = DmcPopulation::new(
        DmcConfig {
            target_population: 2,
            tau: 0.01,
            feedback: 1.0,
            max_ratio: 4.0,
            seed: 9,
        },
        0.0,
    );
    for _ in 0..100 {
        p.step(|_| 0.0);
        assert!(!p.is_empty());
        assert!(p.len() <= 8);
    }
}

#[test]
fn anisotropic_grid_engines_agree() {
    // 48x48x60-like anisotropy at test scale.
    let gx = Grid1::periodic(0.0, 1.0, 4);
    let gy = Grid1::periodic(0.0, 1.0, 6);
    let gz = Grid1::periodic(0.0, 1.0, 5);
    let mut m = MultiCoefs::<f32>::new(gx, gy, gz, 6);
    m.fill_random(&mut StdRng::seed_from_u64(11));
    let aos = BsplineAoS::new(m.clone());
    let soa = BsplineSoA::new(m);
    let mut oa = aos.make_out();
    let mut os = soa.make_out();
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..16 {
        let pos = [
            rng.random::<f32>() * 2.0 - 0.5,
            rng.random::<f32>() * 2.0 - 0.5,
            rng.random::<f32>() * 2.0 - 0.5,
        ];
        aos.vgh(pos, &mut oa);
        soa.vgh(pos, &mut os);
        for k in 0..6 {
            assert!((oa.value(k) - os.value(k)).abs() < 1e-4, "{pos:?}");
            let (ga, gs) = (oa.gradient(k), os.gradient(k));
            for d in 0..3 {
                assert!((ga[d] - gs[d]).abs() < 2e-3);
            }
        }
    }
}

/// Every stream `kernel` writes for orbital `k`, widened to `f64`.
trait Written {
    fn written(&self, kernel: Kernel, k: usize) -> Vec<f64>;
}

macro_rules! impl_written {
    ($($out:ident),*) => {$(
        impl<T: Real> Written for $out<T> {
            fn written(&self, kernel: Kernel, k: usize) -> Vec<f64> {
                let mut s = vec![self.value(k)];
                match kernel {
                    Kernel::V => {}
                    Kernel::Vgl => {
                        s.extend(self.gradient(k));
                        s.push(self.laplacian(k));
                    }
                    Kernel::Vgh => {
                        s.extend(self.gradient(k));
                        s.extend(self.hessian(k));
                    }
                }
                s.into_iter().map(|x| x.to_f64()).collect()
            }
        }
    )*};
}
impl_written!(WalkerSoA, WalkerAoS);

impl<O: WidenOut> Written for MixedOut<O>
where
    O::Wide: Written,
{
    fn written(&self, kernel: Kernel, k: usize) -> Vec<f64> {
        self.wide().written(kernel, k)
    }
}

/// Hostile positions and whether their outputs are finite: non-finite
/// inputs give non-finite outputs, far out-of-domain positions wrap
/// (periodic tables) to finite ones, and an ordinary position amid the
/// hostile ones is not poisoned by its neighbours in a batch.
const HOSTILE: [([f64; 3], bool); 6] = [
    ([0.3, 0.6, 0.9], true),
    ([f64::NAN, 0.6, 0.9], false),
    ([0.3, f64::INFINITY, 0.9], false),
    ([0.3, 0.6, f64::NEG_INFINITY], false),
    ([1.0e6 + 0.25, -7.5e5, 3.0e4 + 0.5], true),
    ([-1.0e4 - 0.125, 2.5e5, -0.0], true),
];

/// Drive every [`HOSTILE`] position through `eval`, `eval_batch` and
/// `eval_one` for every kernel, then an empty block through
/// `eval_batch`, which must leave every output block untouched.
fn assert_hostile_positions<T: Real, E: SpoEngine<T>>(name: &str, engine: &E)
where
    E::Out: Written,
{
    let n = engine.n_splines();
    let pos: Vec<[T; 3]> = HOSTILE.iter().map(|(p, _)| p.map(T::from_f64)).collect();
    let check = |out: &E::Out, kernel: Kernel, finite: bool, ctx: String| {
        for k in 0..n {
            for x in out.written(kernel, k) {
                assert_eq!(x.is_finite(), finite, "{name} n={n} {kernel} {ctx} k={k}: {x}");
            }
        }
    };
    let block = PosBlock::from_positions(&pos);
    let mut outs = engine.make_batch_out(pos.len());
    let mut out = engine.make_out();
    let mut move_ctx = MoveContext::new();
    for kernel in Kernel::ALL {
        engine.eval_batch(kernel, &block, &mut outs);
        for (i, (&p, &(raw, finite))) in pos.iter().zip(&HOSTILE).enumerate() {
            check(outs.block(i), kernel, finite, format!("eval_batch {raw:?}"));
            engine.eval(kernel, p, &mut out);
            check(&out, kernel, finite, format!("eval {raw:?}"));
            engine.eval_one(kernel, &mut move_ctx, p, &mut out);
            check(&out, kernel, finite, format!("eval_one {raw:?}"));
        }
    }
    let bits = |outs: &bspline::BatchOut<E::Out>| -> Vec<u64> {
        (0..pos.len())
            .flat_map(|i| (0..n).flat_map(move |k| outs.block(i).written(Kernel::Vgh, k)))
            .map(f64::to_bits)
            .collect()
    };
    let before = bits(&outs);
    engine.eval_batch(Kernel::Vgh, &PosBlock::new(), &mut outs);
    assert_eq!(bits(&outs), before, "{name} n={n}: an empty block wrote outputs");
}

#[test]
fn hostile_positions_have_defined_behaviour() {
    // N = 1 and 3 sit below one SIMD register at every width; 37 has a
    // full register and a ragged tail.
    for n in [1usize, 3, 37] {
        let t = table(n, 5, 40 + n as u64);
        assert_hostile_positions("soa", &BsplineSoA::new(t.clone()));
        assert_hostile_positions("aos", &BsplineAoS::new(t.clone()));
        assert_hostile_positions("aosoa", &BsplineAoSoA::from_multi(&t, 2));
        // The smallest budget: one cache-line quantum per block.
        assert_hostile_positions("blocked", &BlockedEngine::from_multi(&t, 1));

        let g = Grid1::periodic(0.0, 1.0, 5);
        let mut t64 = MultiCoefs::<f64>::new(g, g, g, n);
        t64.fill_random(&mut StdRng::seed_from_u64(50 + n as u64));
        assert_hostile_positions("mixed", &MixedEngine::soa(&t64));

        // Two affinity shards, so the router's cell scoring sees the
        // hostile coordinates too.
        let service = SpoService::new(
            BsplineSoA::new(t),
            ServiceConfig {
                routing: RoutingPolicy::Affinity { domains: 2 },
                ..ServiceConfig::default()
            },
        );
        assert_hostile_positions("service", &ServiceClient::new(Arc::new(service)));
    }
}
