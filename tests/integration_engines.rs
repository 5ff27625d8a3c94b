//! Cross-crate integration: fitted orbitals (einspline solver pipeline)
//! evaluated through every engine layout and every kernel must agree,
//! and must match the scalar tensor-product reference.

mod common;

use bspline::SpoEngine;
use bspline::{BsplineAoS, BsplineAoSoA, BsplineSoA, Kernel};
use einspline::{Grid1, MultiCoefs, Spline3};
use miniqmc::synthetic::synthetic_orbitals;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fitted_table(n: usize, ng: usize, seed: u64) -> MultiCoefs<f64> {
    let g = Grid1::periodic(0.0, 1.0, ng);
    synthetic_orbitals::<f64>(g, g, g, n, 4, seed)
}

#[test]
fn all_layouts_agree_on_fitted_orbitals() {
    let n = 24;
    let table = fitted_table(n, 10, 31);
    let aos = BsplineAoS::new(table.clone());
    let soa = BsplineSoA::new(table.clone());
    let tiled = BsplineAoSoA::from_multi(&table, 8);
    let mut out_a = aos.make_out();
    let mut out_s = soa.make_out();
    let mut out_t = tiled.make_out();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..12 {
        let pos = [rng.random::<f64>(), rng.random::<f64>(), rng.random::<f64>()];
        for k in Kernel::ALL {
            aos.eval(k, pos, &mut out_a);
            soa.eval(k, pos, &mut out_s);
            tiled.eval(k, pos, &mut out_t);
        }
        for orb in 0..n {
            common::assert_rel_close_f64(
                out_a.value(orb),
                out_s.value(orb),
                1e-10,
                &format!("orb {orb}: AoS vs SoA value"),
            );
            assert_eq!(out_s.value(orb), out_t.value(orb));
            let (ga, gs, gt) = (
                out_a.gradient(orb),
                out_s.gradient(orb),
                out_t.gradient(orb),
            );
            for d in 0..3 {
                common::assert_rel_close_f64(ga[d], gs[d], 1e-8, &format!("grad d={d}"));
                assert_eq!(gs[d], gt[d]);
            }
            common::assert_rel_close_f64(
                out_a.hessian_trace(orb),
                out_s.hessian_trace(orb),
                1e-7,
                &format!("orb {orb}: hessian trace"),
            );
            // VGL Laplacian consistent with VGH trace.
            common::assert_rel_close_f64(
                out_s.laplacian(orb),
                out_s.hessian_trace(orb),
                1e-7,
                &format!("orb={orb}: VGL laplacian vs VGH trace"),
            );
        }
    }
}

#[test]
fn multi_engine_matches_scalar_spline_reference() {
    let ng = 10;
    let g = Grid1::periodic(0.0, 1.0, ng);
    // Build one known orbital directly and through the multi-table.
    let mut data = vec![0.0f64; ng * ng * ng];
    for (i, d) in data.iter_mut().enumerate() {
        *d = ((i % 17) as f64 * 0.41).sin() + 0.1 * (i as f64 * 0.003).cos();
    }
    let reference = Spline3::<f64>::interpolate(g, g, g, &data);
    let mut table = MultiCoefs::<f64>::new(g, g, g, 3);
    table.set_orbital(1, &reference);
    let soa = BsplineSoA::new(table);
    let mut out = soa.make_out();
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..20 {
        let p = [rng.random::<f64>(), rng.random::<f64>(), rng.random::<f64>()];
        soa.vgh(p, &mut out);
        let expect = reference.vgh(p[0], p[1], p[2]);
        common::assert_rel_close_f64(out.value(1), expect.v, 1e-12, "value");
        let grad = out.gradient(1);
        for (g, e) in grad.iter().zip(&expect.g) {
            common::assert_rel_close_f64(*g, *e, 1e-10, "gradient");
        }
        let h = out.hessian(1);
        for (hv, e) in h.iter().zip(&expect.h) {
            common::assert_rel_close_f64(*hv, *e, 1e-9, "hessian");
        }
        // Empty orbital slots stay exactly zero.
        assert_eq!(out.value(0), 0.0);
        assert_eq!(out.value(2), 0.0);
    }
}

#[test]
fn nested_parallel_execution_is_deterministic() {
    let n = 32;
    let table = fitted_table(n, 8, 13);
    let tiled = BsplineAoSoA::from_multi(&table, 8);
    let positions: Vec<bspline::PosBlock<f64>> = vec![
        bspline::PosBlock::from_positions(&[[0.1, 0.5, 0.9], [0.3, 0.3, 0.3]]),
        bspline::PosBlock::from_positions(&[[0.7, 0.2, 0.6], [0.9, 0.9, 0.1]]),
    ];
    let run = |nth: usize| -> Vec<f64> {
        let mut walkers: Vec<_> = (0..2).map(|_| tiled.make_out()).collect();
        bspline::parallel::run_nested_blocked(
            &tiled,
            Kernel::Vgh,
            &mut walkers,
            &positions,
            nth,
        );
        walkers
            .iter()
            .flat_map(|w| (0..n).map(|k| w.value(k)).collect::<Vec<_>>())
            .collect()
    };
    let serial = run(1);
    for nth in [2, 4, 8] {
        assert_eq!(serial, run(nth), "nth={nth}");
    }
}
