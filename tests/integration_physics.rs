//! Physics against closed forms. Bit-identity suites prove that paths
//! agree with each other; these prove the paths are right, on real plane
//! waves (`miniqmc::synthetic::plane_wave_shell`), whose values,
//! derivatives and kinetic energies are known exactly.
//!
//! 1. **Spline error order.** `cos/sin(G·r)` fitted on periodic 8³, 16³
//!    and 32³ grids and evaluated through the SoA, blocked and AoS
//!    engines in `f64`: each grid doubling must cut the largest value,
//!    gradient and Laplacian error against the analytic value at the
//!    cubic B-spline orders h⁴/h³/h² (factors 16/8/4, asserted ≥ 12/6/3).
//!    The f32 and mixed engines must stay within that f64 spline error
//!    plus the storage budget `F32_REL_ERROR_BUDGET × spline_scale`.
//! 2. **A zero-variance wavefunction.** A determinant of the 7-orbital
//!    closed shell with both Jastrows zero is a kinetic eigenfunction:
//!    its local kinetic energy is `2 · ½ Σ|G|²` (two spins) at every
//!    configuration, which checks the SPO pull-back, the determinant's
//!    gradients, Laplacians and Sherman–Morrison updates, and the
//!    estimator at once, with no error bar to argue about.
//! 3. **Two kinetic estimators agree.** For a nodeless `ΨT = e^{J1+J2}`,
//!    `−¼⟨Σ∇² ln Ψ⟩` and `½⟨Σ|∇ ln Ψ|²⟩` over VMC sweeps are the same
//!    kinetic energy (integration by parts), which checks the Jastrow
//!    gradients against the Jastrow Laplacians statistically.

use bspline::blocked::BlockedEngine;
use bspline::precision::{spline_scale, MixedEngine, MixedOut, WidenOut, F32_REL_ERROR_BUDGET};
use bspline::{BsplineAoS, BsplineSoA, Kernel, SpoEngine, WalkerAoS, WalkerSoA};
use einspline::Real;
use miniqmc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One orbital's value, gradient and Laplacian, widened to `f64`.
trait ReadVgl {
    fn vgl(&self, k: usize) -> (f64, [f64; 3], f64);
}

impl<T: Real> ReadVgl for WalkerSoA<T> {
    fn vgl(&self, k: usize) -> (f64, [f64; 3], f64) {
        (
            self.value(k).to_f64(),
            self.gradient(k).map(T::to_f64),
            self.laplacian(k).to_f64(),
        )
    }
}

impl<T: Real> ReadVgl for WalkerAoS<T> {
    fn vgl(&self, k: usize) -> (f64, [f64; 3], f64) {
        (
            self.value(k).to_f64(),
            self.gradient(k).map(T::to_f64),
            self.laplacian(k).to_f64(),
        )
    }
}

impl<O: WidenOut> ReadVgl for MixedOut<O>
where
    O::Wide: ReadVgl,
{
    fn vgl(&self, k: usize) -> (f64, [f64; 3], f64) {
        self.wide().vgl(k)
    }
}

/// `n` seeded positions in the unit cube.
fn positions(n: usize, seed: u64) -> Vec<[f64; 3]> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| [rng.random(), rng.random(), rng.random()])
        .collect()
}

/// The largest value, gradient-component and Laplacian errors of
/// `engine` (VGL kernel) against the analytic plane waves
/// `cos(G·r − φ)` over `pos`, every orbital included.
fn max_errors<T, E>(engine: &E, waves: &[([f64; 3], f64)], pos: &[[f64; 3]]) -> [f64; 3]
where
    T: Real,
    E: SpoEngine<T>,
    E::Out: ReadVgl,
{
    let mut out = engine.make_out();
    let mut err = [0.0f64; 3];
    for p in pos {
        engine.eval(Kernel::Vgl, p.map(T::from_f64), &mut out);
        for (k, &(g, phi)) in waves.iter().enumerate() {
            let theta = g[0] * p[0] + g[1] * p[1] + g[2] * p[2] - phi;
            let g2 = g[0] * g[0] + g[1] * g[1] + g[2] * g[2];
            let (v, grad, lap) = out.vgl(k);
            err[0] = err[0].max((v - theta.cos()).abs());
            for d in 0..3 {
                err[1] = err[1].max((grad[d] + g[d] * theta.sin()).abs());
            }
            err[2] = err[2].max((lap + g2 * theta.cos()).abs());
        }
    }
    err
}

/// The unit cube, where fractional and Cartesian positions coincide,
/// and the shells `|n|² ≤ 2` (19 orbitals: a budget of one byte splits
/// them into three blocks of one cache-line quantum).
const UNIT: f64 = 1.0;
const SHELL: usize = 2;
const GRIDS: [usize; 3] = [8, 16, 32];
/// Each grid halving must cut the error by at least these factors
/// (asymptotically 16, 8 and 4: orders h⁴, h³, h²).
const MIN_RATIO: [f64; 3] = [12.0, 6.0, 3.0];
const NAMES: [&str; 3] = ["value", "gradient", "Laplacian"];

#[test]
fn f64_spline_errors_fall_at_the_cubic_b_spline_orders() {
    let pos = positions(256, 11);
    // errs[grid][engine][order]
    let errs: Vec<[[f64; 3]; 3]> = GRIDS
        .iter()
        .map(|&grid| {
            let (coefs, waves) = plane_wave_shell::<f64>(Lattice::cubic(UNIT), SHELL, grid);
            let blocked = BlockedEngine::from_multi(&coefs, 1);
            assert!(blocked.n_blocks() >= 2, "{} blocks", blocked.n_blocks());
            [
                max_errors(&BsplineSoA::new(coefs.clone()), &waves, &pos),
                max_errors(&blocked, &waves, &pos),
                max_errors(&BsplineAoS::new(coefs), &waves, &pos),
            ]
        })
        .collect();
    for (e, engine) in ["SoA", "blocked", "AoS"].iter().enumerate() {
        for w in 0..GRIDS.len() - 1 {
            for order in 0..3 {
                let (coarse, fine) = (errs[w][e][order], errs[w + 1][e][order]);
                let ratio = coarse / fine;
                assert!(
                    ratio >= MIN_RATIO[order],
                    "{engine} {} error {coarse:e} at {}³ → {fine:e} at {}³: \
                     ratio {ratio:.2} < {}",
                    NAMES[order],
                    GRIDS[w],
                    GRIDS[w + 1],
                    MIN_RATIO[order]
                );
            }
        }
    }
}

#[test]
fn f32_and_mixed_engines_stay_within_the_spline_error_plus_the_budget() {
    let pos = positions(128, 13);
    for grid in GRIDS {
        let (c64, waves) = plane_wave_shell::<f64>(Lattice::cubic(UNIT), SHELL, grid);
        let c32 = c64.downcast();
        let scale = spline_scale(&c64);
        let spline = max_errors(&BsplineSoA::new(c64.clone()), &waves, &pos);
        let narrow: [(&str, [f64; 3]); 6] = [
            (
                "f32 SoA",
                max_errors(&BsplineSoA::new(c32.clone()), &waves, &pos),
            ),
            (
                "f32 blocked",
                max_errors(&BlockedEngine::from_multi(&c32, 1), &waves, &pos),
            ),
            ("f32 AoS", max_errors(&BsplineAoS::new(c32), &waves, &pos)),
            (
                "mixed SoA",
                max_errors(&MixedEngine::soa(&c64), &waves, &pos),
            ),
            (
                "mixed blocked",
                max_errors(&MixedEngine::blocked(&c64, 1), &waves, &pos),
            ),
            (
                "mixed AoS",
                max_errors(&MixedEngine::aos(&c64), &waves, &pos),
            ),
        ];
        for (engine, errs) in narrow {
            for order in 0..3 {
                let bound = spline[order] + F32_REL_ERROR_BUDGET * scale.for_order(order);
                assert!(
                    errs[order] <= bound,
                    "{engine} {} at {grid}³: error {:e} > spline error {:e} + budget",
                    NAMES[order],
                    errs[order],
                    spline[order]
                );
            }
        }
    }
}

/// The ledger's grid: the f64 spline error at 48³, relative to the
/// table's spline scale as `F32_REL_ERROR_BUDGET` is, is what
/// `bspline::precision`'s docs record next to the budget (value 1.5e-6,
/// gradient 2.3e-6, Laplacian 4.5e-5). This keeps the record true to
/// within 2×.
#[test]
fn spline_error_at_the_ledger_grid_matches_the_recorded_value() {
    let (coefs, waves) = plane_wave_shell::<f64>(Lattice::cubic(UNIT), SHELL, 48);
    let scale = spline_scale(&coefs);
    let errs = max_errors(&BsplineSoA::new(coefs), &waves, &positions(256, 17));
    for (order, recorded) in [1.5e-6, 2.3e-6, 4.5e-5].into_iter().enumerate() {
        let rel = errs[order] / scale.for_order(order);
        assert!(
            rel > recorded / 2.0 && rel < recorded * 2.0,
            "{}: {rel:e} of the spline scale vs recorded {recorded:e}",
            NAMES[order]
        );
    }
}

// ---------------------------------------------------------------------------
// The zero-variance wavefunction.

/// Side of the cubic cell: `|G| = 2π/L` on the first shell.
const SIDE: f64 = 3.0;
/// Grid of the plane-wave fit.
const PW_GRID: usize = 32;
/// The tolerance on the local kinetic energy, relative to `½ Σ|G|²`, in
/// units of the orbitals' own relative Laplacian spline error `ε_L`
/// (measured by [`laplacian_spline_error`]: 3.1e-3 at 32³). Over the 41
/// measurements below the deviation is 3.3e-4 in the median and
/// 3.4e-3 ≈ 1.1 ε_L at worst (a configuration near a node of the
/// determinant amplifies the orbital error), so 4 ε_L ≈ 1.3e-2 leaves
/// ≈ 3.7× headroom.
const ZV_TOLERANCE_IN_EPS: f64 = 4.0;

/// `ε_L`: the largest Laplacian error of the fitted first-shell
/// orbitals, relative to their `|G|²`. The fit depends only on the
/// integer `n` of each wave, so the unit cube's table is the same
/// table; there `|G|² = (2π)²` for every non-constant orbital.
fn laplacian_spline_error() -> f64 {
    let (coefs, waves) = plane_wave_shell::<f64>(Lattice::cubic(1.0), 1, PW_GRID);
    let errs = max_errors(&BsplineSoA::new(coefs), &waves, &positions(512, 19));
    errs[2] / (2.0 * std::f64::consts::PI).powi(2)
}

/// The 7-orbital closed shell with both Jastrows zero, and its exact
/// local kinetic energy `2 · ½ Σ|G|²` (both spins).
fn zero_variance_wavefunction(seed: u64) -> (TrialWaveFunction<f64>, f64) {
    let lat = Lattice::cubic(SIDE);
    let (coefs, waves) = plane_wave_shell::<f64>(lat, 1, PW_GRID);
    assert_eq!(waves.len(), 7);
    let exact = 2.0
        * 0.5
        * waves
            .iter()
            .map(|(g, _)| g.iter().map(|x| x * x).sum::<f64>())
            .sum::<f64>();
    let ions = ParticleSet::new("ion", lat, &[[0.0; 3]]);
    let electrons = random_electrons(lat, 14, &mut StdRng::seed_from_u64(seed));
    let rc = lat.wigner_seitz_radius() * 0.9;
    let zero = || BsplineFunctor::fit(|_| 0.0, rc, 8);
    let wf = TrialWaveFunction::new(SpoSet::new(coefs, lat), &ions, electrons, zero(), zero());
    (wf, exact)
}

#[test]
fn plane_wave_determinant_has_zero_kinetic_variance() {
    let eps = laplacian_spline_error();
    assert!(eps > 1e-3 && eps < 1e-2, "ε_L = {eps:e}");
    let tolerance = ZV_TOLERANCE_IN_EPS * eps;
    let (mut wf, exact) = zero_variance_wavefunction(3);
    let lat = *wf.electrons().lattice();
    assert!((exact - 6.0 * (2.0 * std::f64::consts::PI / SIDE).powi(2)).abs() < 1e-12);
    let assert_exact = |kinetic: f64, ctx: &str| {
        let rel = (kinetic - exact).abs() / exact;
        assert!(
            rel <= tolerance,
            "{ctx}: kinetic {kinetic} vs ½Σ|G|² = {exact} (rel {rel:e} > {tolerance:e})"
        );
    };

    // Configurations loaded in one call each.
    for seed in 0..24u64 {
        let config = random_electrons(lat, 14, &mut StdRng::seed_from_u64(100 + seed)).to_aos();
        assert!(wf.set_electron_positions(&config).is_finite());
        assert_exact(
            kinetic_energy(&wf.log_derivs()),
            &format!("configuration {seed}"),
        );
    }

    // Configurations reached by particle-by-particle moves: each
    // one-sweep run measures the local energy after its accepts.
    let mut accepted = 0.0;
    for seed in 0..16u64 {
        let res = run_vmc(
            &mut wf,
            &VmcConfig {
                n_steps: 1,
                step_size: 0.6,
                seed,
            },
        );
        accepted += res.acceptance;
        assert_exact(res.kinetic, &format!("sweep {seed}"));
    }
    assert!(accepted > 16.0 * 0.3, "mean acceptance {}", accepted / 16.0);
    assert_exact(kinetic_energy(&wf.log_derivs()), "after the sweeps");
}

// ---------------------------------------------------------------------------
// Two kinetic estimators.

/// Side of the cell of the nodeless wavefunction.
const NODELESS_SIDE: f64 = 2.0;
/// Sweeps per block, and blocks, of the estimator comparison.
const SWEEPS_PER_BLOCK: usize = 100;
const BLOCKS: usize = 200;

/// `ΨT = exp(J1 + J2)`: one electron per spin in the constant orbital
/// (`plane_wave_shell` with `shell = 0`), one ion, both Jastrows
/// non-zero. It has no nodes, so both kinetic estimators below have
/// finite variance.
fn nodeless_wavefunction(seed: u64) -> TrialWaveFunction<f64> {
    let lat = Lattice::cubic(NODELESS_SIDE);
    let (coefs, waves) = plane_wave_shell::<f64>(lat, 0, 8);
    assert_eq!(waves.len(), 1);
    let ions = ParticleSet::new("ion", lat, &[[0.0; 3]]);
    let electrons = random_electrons(lat, 2, &mut StdRng::seed_from_u64(seed));
    let rc = lat.wigner_seitz_radius() * 0.9;
    let u = BsplineFunctor::rpa_like(3.0, 0.5, rc, 16);
    TrialWaveFunction::new(SpoSet::new(coefs, lat), &ions, electrons, u.clone(), u)
}

/// Mean and standard error of the mean of block averages.
fn blocked_mean(blocks: &[f64]) -> (f64, f64) {
    let n = blocks.len() as f64;
    let mean = blocks.iter().sum::<f64>() / n;
    let var = blocks.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Integrating `Ψ² ∇² ln Ψ` by parts gives `⟨∇² ln Ψ⟩ = −2 ⟨|∇ ln Ψ|²⟩`
/// under `|Ψ|²` sampling, so `−¼⟨Σ∇² ln Ψ⟩` and `½⟨Σ|∇ ln Ψ|²⟩` estimate
/// the same kinetic energy. `log_derivs` produces both from separate
/// terms (the Jastrow gradient and Laplacian sums, rows and columns),
/// so a wrong sign or a missing term in either shows as a disagreement
/// beyond the sampling error.
#[test]
fn laplacian_and_gradient_kinetic_estimators_agree_without_nodes() {
    let mut wf = nodeless_wavefunction(21);
    let mut blocks = [Vec::new(), Vec::new()];
    for b in 0..=BLOCKS {
        let mut sums = [0.0; 2];
        for s in 0..SWEEPS_PER_BLOCK {
            let cfg = VmcConfig {
                n_steps: 1,
                step_size: 0.8,
                seed: (b * SWEEPS_PER_BLOCK + s) as u64,
            };
            run_vmc(&mut wf, &cfg);
            let d = wf.log_derivs();
            sums[0] += -0.25 * d.lap.iter().sum::<f64>();
            sums[1] += 0.5 * d.grad.iter().flatten().map(|g| g * g).sum::<f64>();
        }
        // The first block equilibrates from the uniform start.
        if b > 0 {
            for (blk, sum) in blocks.iter_mut().zip(sums) {
                blk.push(sum / SWEEPS_PER_BLOCK as f64);
            }
        }
    }
    let [(lap, lap_se), (grad, grad_se)] = blocks.map(|b| blocked_mean(&b));
    let se = lap_se.hypot(grad_se);
    assert!(
        grad > 10.0 * se,
        "kinetic {grad} not resolved by error {se}"
    );
    assert!(
        (lap - grad).abs() <= 4.0 * se,
        "−¼⟨Σ∇² ln Ψ⟩ = {lap} ± {lap_se} vs ½⟨Σ|∇ ln Ψ|²⟩ = {grad} ± {grad_se}"
    );
}
