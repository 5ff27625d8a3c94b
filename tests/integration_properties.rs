//! Property-based integration tests (proptest): layout equivalence and
//! physics invariants under randomized configurations.

mod common;

use bspline::SpoEngine;
use bspline::{BsplineAoS, BsplineAoSoA, BsplineSoA};
use common::assert_regrouped;
use einspline::{basis, solve_clamped, solve_natural, solve_periodic, Grid1, MultiCoefs};
use miniqmc::distance::aos::DistanceTableAAAoS;
use miniqmc::distance::soa::DistanceTableAA;
use miniqmc::lattice::Lattice;
use miniqmc::particleset::ParticleSet;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn basis_partition_of_unity(t in 0.0f64..1.0) {
        let w = basis::weights(t);
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-12);
        let d: f64 = basis::d_weights(t).iter().sum();
        prop_assert!(d.abs() < 1e-12);
    }

    #[test]
    fn periodic_solver_interpolates(data in prop::collection::vec(-10.0f64..10.0, 4..40)) {
        let coefs = solve_periodic(&data);
        for (i, f) in data.iter().enumerate() {
            let v = coefs[i] / 6.0 + coefs[i + 1] * 4.0 / 6.0 + coefs[i + 2] / 6.0;
            prop_assert!((v - f).abs() < 1e-8, "i={} v={} f={}", i, v, f);
        }
    }

    #[test]
    fn natural_solver_interpolates(data in prop::collection::vec(-5.0f64..5.0, 3..30)) {
        let coefs = solve_natural(&data);
        for (i, f) in data.iter().enumerate().take(data.len() - 1) {
            let v = coefs[i] / 6.0 + coefs[i + 1] * 4.0 / 6.0 + coefs[i + 2] / 6.0;
            prop_assert!((v - f).abs() < 1e-8);
        }
    }

    #[test]
    fn clamped_solver_hits_end_slopes(
        data in prop::collection::vec(-5.0f64..5.0, 4..20),
        s0 in -2.0f64..2.0,
        sn in -2.0f64..2.0,
    ) {
        let delta = 0.5;
        let c = solve_clamped(&data, s0, sn, delta);
        let n = data.len() - 1;
        let d_start = (-c[0] + c[2]) / (2.0 * delta);
        let d_end = (-c[n] + c[n + 2]) / (2.0 * delta);
        prop_assert!((d_start - s0).abs() < 1e-9);
        prop_assert!((d_end - sn).abs() < 1e-9);
    }

    #[test]
    fn engine_layouts_agree_on_random_tables(
        n in 1usize..40,
        nb in 1usize..40,
        seed in 0u64..1000,
        px in 0.0f32..1.0,
        py in 0.0f32..1.0,
        pz in 0.0f32..1.0,
    ) {
        let g = Grid1::periodic(0.0, 1.0, 5);
        let mut table = MultiCoefs::<f32>::new(g, g, g, n);
        table.fill_random(&mut StdRng::seed_from_u64(seed));
        let aos = BsplineAoS::new(table.clone());
        let soa = BsplineSoA::new(table.clone());
        let tiled = BsplineAoSoA::from_multi(&table, nb);
        let pos = [px, py, pz];
        let mut oa = aos.make_out();
        let mut os = soa.make_out();
        let mut ot = tiled.make_out();
        aos.vgh(pos, &mut oa);
        soa.vgh(pos, &mut os);
        tiled.vgh(pos, &mut ot);
        let backend = bspline::simd::active_backend();
        for k in 0..n {
            prop_assert!((oa.value(k) - os.value(k)).abs() < 2e-4);
            assert_regrouped(backend, os.value(k), ot.value(k), &format!("value k={k}"));
            for (r, (w, g)) in os.hessian(k).into_iter().zip(ot.hessian(k)).enumerate() {
                assert_regrouped(backend, w, g, &format!("hessian k={k} r={r}"));
            }
        }
    }

    #[test]
    fn distance_tables_symmetric_and_consistent(
        seed in 0u64..500,
        n in 2usize..12,
        a in 1.5f64..4.0,
        c in 4.0f64..9.0,
    ) {
        let lat = Lattice::hexagonal(a, c);
        let mut rng = StdRng::seed_from_u64(seed);
        let ps = miniqmc::particleset::random_electrons(lat, n, &mut rng);
        let soa = DistanceTableAA::new(&ps);
        let aos = DistanceTableAAAoS::new(&ps);
        let rc = lat.wigner_seitz_radius();
        for i in 0..n {
            prop_assert_eq!(soa.distance(i, i), 0.0);
            for j in 0..n {
                prop_assert!((soa.distance(i, j) - soa.distance(j, i)).abs() < 1e-12);
                prop_assert!((soa.distance(i, j) - aos.distance(i, j)).abs() < 1e-10);
                if i != j {
                    // Minimum-image distances never exceed the cell
                    // diameter bound (2·R_ws is a loose upper bound only
                    // for the inscribed sphere; use lattice diagonal).
                    prop_assert!(soa.distance(i, j) > 0.0);
                    prop_assert!(soa.distance(i, j) < 2.0 * (a + c));
                }
            }
        }
        let _ = rc;
        let _ = ParticleSet::new("x", lat, &[[0.0; 3]]);
    }
}

// ---------------------------------------------------------------------------
// Nested-threading substrate: direct property coverage for the static
// tile partition the nested schedule splits blocks with.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `partition_tiles(m, nth)` is a balanced, contiguous, complete
    /// cover of `0..m` for any ragged combination — **only non-empty
    /// ranges**: the chunk count clamps to `m` when `nth > m`, and
    /// `m = 0` yields an empty partition (no empty work items, no
    /// division by zero), so nested block scheduling never spawns
    /// empty jobs.
    #[test]
    fn partition_tiles_is_a_balanced_cover(m in 0usize..200, nth in 1usize..64) {
        let ranges = bspline::parallel::partition_tiles(m, nth);
        prop_assert_eq!(ranges.len(), nth.min(m));
        if m == 0 {
            prop_assert!(ranges.is_empty());
            return;
        }
        prop_assert_eq!(ranges[0].0, 0);
        prop_assert_eq!(ranges.last().unwrap().1, m);
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0); // contiguous
        }
        let sizes: Vec<usize> = ranges.iter().map(|(lo, hi)| hi - lo).collect();
        prop_assert!(sizes.iter().all(|&s| s > 0));
        let (mn, mx) = (
            *sizes.iter().min().unwrap(),
            *sizes.iter().max().unwrap(),
        );
        prop_assert!(mx - mn <= 1, "balanced: sizes {:?}", sizes);
        prop_assert_eq!(sizes.iter().sum::<usize>(), m);
    }
}
