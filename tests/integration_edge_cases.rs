//! Edge-case integration tests: boundary positions, degenerate sizes,
//! and numerical-hygiene scenarios across the whole stack.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bspline::precision::{MixedEngine, MixedOut, WidenOut};
use bspline::SpoEngine;
use bspline::{
    BatchOut, BlockedEngine, BsplineAoS, BsplineAoSoA, BsplineSoA, Kernel, MoveContext, PosBlock,
    ServiceConfig, SpoService, WalkerAoS, WalkerSoA,
};
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
    assert_eq!(os.value(0), ot.value(0));
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
    for nb in 1..=n {
        let tiled = BsplineAoSoA::from_multi(&t, nb);
        let mut out = tiled.make_out();
        tiled.vgh(pos, &mut out);
        for k in 0..n {
            assert_eq!(ref_out.value(k), out.value(k), "nb={nb} k={k}");
            assert_eq!(ref_out.gradient(k), out.gradient(k), "nb={nb} k={k}");
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
    let tiny = DmcConfig {
        target_population: 2,
        tau: 0.01,
        feedback: 1.0,
        max_ratio: 4.0,
        seed: 9,
    };
    let mut parents = Vec::new();
    let mut p = DmcPopulation::new(tiny, 0.0);
    for _ in 0..100 {
        p.step(|_| 0.0, &mut parents);
        assert!(!p.is_empty());
        assert!(p.len() <= 8);
    }

    // The smallest config that can run: one walker, a cap of one.
    let mut one = DmcPopulation::new(
        DmcConfig {
            target_population: 1,
            max_ratio: 1.0,
            ..tiny
        },
        0.0,
    );
    for energy in [1.0e6, -1.0e3, 0.0] {
        let deaths = one.step(|_| energy, &mut parents).deaths;
        assert_eq!((one.len(), parents.as_slice(), deaths), (1, &[0][..], 0));
    }

    // Configs that cannot drive a population are refused up front. A
    // cap `⌊target × max_ratio⌋` of zero would keep no walker, count no
    // death and then underflow `deaths` in the anti-extinction fallback;
    // a target of zero would panic at the first step.
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    // (target_population, tau, feedback, max_ratio)
    for (target_population, tau, feedback, max_ratio) in [
        (0, 0.01, 1.0, 4.0),
        (4, 0.01, 1.0, 0.1),
        (2, 0.01, 1.0, 0.5),
        (2, 0.01, 1.0, nan),
        (2, 0.01, 1.0, inf),
        (2, -0.01, 1.0, 4.0),
        (2, nan, 1.0, 4.0),
        (2, 0.01, inf, 4.0),
    ] {
        let cfg = DmcConfig {
            target_population,
            tau,
            feedback,
            max_ratio,
            seed: 9,
        };
        let built = catch_unwind(|| DmcPopulation::new(cfg, 0.0));
        assert!(built.is_err(), "{cfg:?} was accepted");
        let mut snap = p.snapshot();
        snap.cfg = cfg;
        let restored = catch_unwind(|| DmcPopulation::from_snapshot(snap));
        assert!(restored.is_err(), "{cfg:?} was restored");
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

/// Every stream `kernel` wrote for the first `n` orbitals of `out` is
/// finite exactly when `finite` says so.
fn assert_finiteness<O: Written>(out: &O, n: usize, kernel: Kernel, finite: bool, ctx: &str) {
    for k in 0..n {
        for x in out.written(kernel, k) {
            assert_eq!(x.is_finite(), finite, "{ctx} {kernel} k={k}: {x}");
        }
    }
}

/// Bit patterns of every VGH stream of the first `len` blocks.
fn vgh_bits<O: Written>(outs: &BatchOut<O>, len: usize, n: usize) -> Vec<u64> {
    (0..len)
        .flat_map(|i| (0..n).flat_map(move |k| outs.block(i).written(Kernel::Vgh, k)))
        .map(f64::to_bits)
        .collect()
}

/// Drive every [`HOSTILE`] position through `eval`, `eval_batch` and
/// `eval_one` for every kernel, then an empty block through
/// `eval_batch`, which must leave every output block untouched.
fn assert_hostile_positions<T: Real, E: SpoEngine<T>>(name: &str, engine: &E)
where
    E::Out: Written,
{
    let n = engine.n_splines();
    let pos: Vec<[T; 3]> = HOSTILE.iter().map(|(p, _)| p.map(T::from_f64)).collect();
    let block = PosBlock::from_positions(&pos);
    let mut outs = engine.make_batch_out(pos.len());
    let mut out = engine.make_out();
    let mut move_ctx = MoveContext::new();
    for kernel in Kernel::ALL {
        engine.eval_batch(kernel, &block, &mut outs);
        for (i, (&p, &(raw, finite))) in pos.iter().zip(&HOSTILE).enumerate() {
            let ctx = |call: &str| format!("{name} n={n} {call} {raw:?}");
            assert_finiteness(outs.block(i), n, kernel, finite, &ctx("eval_batch"));
            engine.eval(kernel, p, &mut out);
            assert_finiteness(&out, n, kernel, finite, &ctx("eval"));
            engine.eval_one(kernel, &mut move_ctx, p, &mut out);
            assert_finiteness(&out, n, kernel, finite, &ctx("eval_one"));
        }
    }
    let before = vgh_bits(&outs, pos.len(), n);
    engine.eval_batch(Kernel::Vgh, &PosBlock::new(), &mut outs);
    let after = vgh_bits(&outs, pos.len(), n);
    assert_eq!(after, before, "{name} n={n}: an empty block wrote outputs");
}

/// The [`HOSTILE`] positions through a service's own `submit` +
/// `redeem`, for every kernel: once as one block, then one position per
/// submission. An empty submission is done at once and hands its blocks
/// back untouched.
fn assert_hostile_service(service: &SpoService<f32, BsplineSoA<f32>>) {
    let n = service.engine().n_splines();
    let pos: Vec<[f32; 3]> = HOSTILE.iter().map(|(p, _)| p.map(f32::from_f64)).collect();
    let submit = |kernel: Kernel, block: PosBlock<f32>, out: BatchOut<WalkerSoA<f32>>| {
        let (_, out, _) = service.submit(kernel, block, out).redeem().expect("served");
        out
    };
    let mut outs = service.engine().make_batch_out(pos.len());
    for kernel in Kernel::ALL {
        outs = submit(kernel, PosBlock::from_positions(&pos), outs);
        for (i, (&p, &(raw, finite))) in pos.iter().zip(&HOSTILE).enumerate() {
            let ctx = |how: &str| format!("service n={n} {how} {raw:?}");
            assert_finiteness(outs.block(i), n, kernel, finite, &ctx("block"));
            let alone = PosBlock::from_positions(&[p]);
            let one = submit(kernel, alone, service.engine().make_batch_out(1));
            assert_finiteness(one.block(0), n, kernel, finite, &ctx("alone"));
        }
    }
    let before = vgh_bits(&outs, pos.len(), n);
    let ticket = service.submit(Kernel::Vgh, PosBlock::new(), outs);
    assert!(ticket.is_done(), "service n={n}: an empty submission queued");
    let (_, outs, _) = ticket.redeem().expect("empty submissions complete");
    let after = vgh_bits(&outs, pos.len(), n);
    assert_eq!(after, before, "service n={n}: an empty submission wrote outputs");
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

        assert_hostile_service(&SpoService::new(
            BsplineSoA::new(t),
            ServiceConfig::default(),
        ));
    }
}

/// A zero in any sizing field of the service configuration panics in
/// `SpoService::new`, on the calling thread, with a message naming the
/// field. The constructor validates before it spawns a worker, so a
/// rejected configuration leaves no thread behind.
#[test]
fn zero_sized_service_configs_are_rejected_by_name() {
    let base = ServiceConfig::default();
    let cases = [
        ("replicas", ServiceConfig { replicas: 0, ..base }),
        ("max_batch", ServiceConfig { max_batch: 0, ..base }),
        ("queue_positions", ServiceConfig { queue_positions: 0, ..base }),
    ];
    for (field, cfg) in cases {
        let engine = BsplineSoA::new(table(4, 5, 60));
        let err = catch_unwind(AssertUnwindSafe(|| SpoService::new(engine, cfg)))
            .err()
            .unwrap_or_else(|| panic!("{field} = 0 was accepted"));
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains(field), "{field} = 0 panicked with {msg:?}");
    }
}
