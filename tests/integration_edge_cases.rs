//! Edge-case integration tests: boundary positions, degenerate sizes,
//! and numerical-hygiene scenarios across the whole stack.

mod common;

use bspline::SpoEngine;
use bspline::{BsplineAoS, BsplineAoSoA, BsplineSoA, Kernel};
use common::assert_regrouped;
use einspline::{Grid1, MultiCoefs};
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
