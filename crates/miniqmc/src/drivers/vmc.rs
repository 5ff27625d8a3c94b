//! Particle-by-particle variational Monte Carlo driver (the drift-
//! diffusion + Metropolis structure of paper Sec. III, without the
//! branching of DMC).
//!
//! The inner loop runs the wavefunction's move protocol: one V-only
//! engine call per proposal ([`TrialWaveFunction::ratio`]) and no SPO
//! call on accept. The proposals are uniform and symmetric, so the
//! Metropolis test needs no drift and no moved electron's gradient is
//! read between moves.
//!
//! After every sweep the driver runs the measurement stage
//! ([`TrialWaveFunction::log_derivs`]): one VGH engine call and its
//! pull-back per electron, each read by the determinant at once, and
//! one full evaluation of each Jastrow over the pairs inside its
//! cutoff yield every electron's drift gradient and the kinetic energy
//! estimator.

use crate::drivers::observables::kinetic_energy;
use crate::drivers::profile::ProfileReport;
use crate::wavefunction::TrialWaveFunction;
use einspline::Real;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// VMC run parameters.
#[derive(Clone, Copy, Debug)]
pub struct VmcConfig {
    /// Monte Carlo sweeps (each sweep proposes one move per electron).
    pub n_steps: usize,
    /// Cubic move amplitude (uniform symmetric proposal).
    pub step_size: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for VmcConfig {
    fn default() -> Self {
        Self {
            n_steps: 10,
            step_size: 0.4,
            seed: 0xc0ffee,
        }
    }
}

/// Outcome of a VMC run.
#[derive(Clone, Debug)]
pub struct VmcResult {
    /// Accepted / proposed.
    pub acceptance: f64,
    /// Final `log |ΨT|`.
    pub log_psi: f64,
    /// Mean kinetic energy over the sweeps (from the all-electron
    /// measurement stage after each sweep).
    pub kinetic: f64,
    /// Per-category profile of the run: an estimate, because the
    /// wavefunction times one per-move call in
    /// [`SAMPLE_EVERY`](crate::drivers::profile::SAMPLE_EVERY) and
    /// weights it (see [`crate::drivers::profile`]).
    pub profile: ProfileReport,
}

/// Run VMC sweeps on a wavefunction. |ΨT|² sampling with uniform
/// symmetric proposals (valid Metropolis).
pub fn run_vmc<T: Real>(wf: &mut TrialWaveFunction<T>, cfg: &VmcConfig) -> VmcResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_el = wf.n_electrons();
    let lat = *wf.electrons().lattice();
    let mut accepted = 0usize;
    let mut proposed = 0usize;
    let mut kinetic_sum = 0.0;
    wf.timers.reset();

    for _ in 0..cfg.n_steps {
        for iel in 0..n_el {
            let r = wf.electrons().get(iel);
            let rnew = lat.wrap([
                r[0] + cfg.step_size * (rng.random::<f64>() - 0.5),
                r[1] + cfg.step_size * (rng.random::<f64>() - 0.5),
                r[2] + cfg.step_size * (rng.random::<f64>() - 0.5),
            ]);
            let ratio = wf.ratio(iel, rnew);
            proposed += 1;
            if ratio * ratio > rng.random::<f64>() {
                wf.accept(iel);
                accepted += 1;
            } else {
                wf.reject();
            }
        }
        // Measurement stage: every electron's gradient and Laplacian.
        kinetic_sum += kinetic_energy(&wf.log_derivs());
    }

    VmcResult {
        acceptance: accepted as f64 / proposed as f64,
        log_psi: wf.log_psi(),
        kinetic: kinetic_sum / cfg.n_steps.max(1) as f64,
        profile: wf.timers.report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::profile::Category;
    use crate::jastrow::BsplineFunctor;
    use crate::particleset::random_electrons;
    use crate::spo::SpoSet;
    use crate::synthetic::CoralSystem;

    fn small_wf(seed: u64) -> TrialWaveFunction<f64> {
        let sys = CoralSystem::new(1, 1, 1, (10, 10, 12));
        let coefs = sys.orbitals::<f64>(seed);
        let spo = SpoSet::new(coefs, sys.lattice);
        let electrons = random_electrons(
            sys.lattice,
            sys.n_electrons(),
            &mut StdRng::seed_from_u64(seed),
        );
        let rc = sys.lattice.wigner_seitz_radius() * 0.9;
        TrialWaveFunction::new(
            spo,
            &sys.ions,
            electrons,
            BsplineFunctor::rpa_like(0.3, 1.0, rc, 20),
            BsplineFunctor::rpa_like(0.5, 1.2, rc, 20),
        )
    }

    #[test]
    fn vmc_runs_and_accepts_moves() {
        let mut wf = small_wf(23);
        let res = run_vmc(
            &mut wf,
            &VmcConfig {
                n_steps: 3,
                step_size: 0.3,
                seed: 7,
            },
        );
        assert!(res.acceptance > 0.05 && res.acceptance <= 1.0);
        assert!(res.log_psi.is_finite());
        assert!(res.kinetic.is_finite() && res.kinetic != 0.0);
    }

    #[test]
    fn incremental_state_survives_a_run() {
        let mut wf = small_wf(29);
        let res = run_vmc(
            &mut wf,
            &VmcConfig {
                n_steps: 2,
                step_size: 0.5,
                seed: 11,
            },
        );
        let fresh = wf.evaluate_log();
        assert!(
            (res.log_psi - fresh).abs() < 1e-6,
            "tracked {} vs fresh {fresh}",
            res.log_psi
        );
    }

    #[test]
    fn profile_covers_all_hot_categories() {
        let mut wf = small_wf(31);
        let res = run_vmc(&mut wf, &VmcConfig::default());
        for cat in [Category::Bspline, Category::Distance, Category::Jastrow] {
            assert!(res.profile.percent(cat) > 0.0, "{cat}");
        }
        let sum: f64 = Category::ALL.iter().map(|&c| res.profile.percent(c)).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let r1 = run_vmc(&mut small_wf(37), &VmcConfig::default());
        let r2 = run_vmc(&mut small_wf(37), &VmcConfig::default());
        assert_eq!(r1.log_psi, r2.log_psi);
        assert_eq!(r1.acceptance, r2.acceptance);
    }
}
