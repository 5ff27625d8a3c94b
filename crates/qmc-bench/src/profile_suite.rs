//! The Table II / Table III profile driver.
//!
//! Replays the particle-by-particle move pattern of a QMC drift-diffusion
//! sweep over the CORAL graphite workload, timing each kernel group:
//!
//! * **B-splines** — one VGH evaluation per proposed move (the AoS
//!   baseline engine in both suites: Tables II and III predate the
//!   B-spline optimization);
//! * **Distance tables** — electron–electron and electron–ion proposal
//!   rows + acceptance updates. The SoA electron–electron proposal
//!   computes two rows, the moving electron's new one and its old one
//!   (QMCPACK's "prepare old", which the two-body Jastrow ratio reads
//!   and a reject writes back), and an accept writes that one row, no
//!   column;
//! * **Jastrow** — one/two-body ratio evaluations over those rows;
//! * **Determinant** — ratio (O(N)) + Sherman–Morrison update (O(N²)).
//!
//! [`Suite::Baseline`] uses the AoS distance tables and per-pair Jastrow
//! accessors (public-QMCPACK era, Table II); [`Suite::OptimizedSubstrate`]
//! uses the SoA tables and row-sliced Jastrow loops (Table III), which
//! shifts the profile towards the B-spline share the paper reports
//! (>55 %).

use bspline::{BsplineAoS, SpoEngine, WalkerAoS};
use miniqmc::determinant::DiracDeterminant;
use miniqmc::distance::aos::{DistanceTableAAAoS, DistanceTableABAoS};
use miniqmc::distance::soa::{DistanceTableAA, DistanceTableAB};
use miniqmc::drivers::profile::{Category, Timers};
use miniqmc::jastrow::BsplineFunctor;
use miniqmc::particleset::{random_electrons, ParticleSet};
use miniqmc::synthetic::CoralSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which kernel implementations the sweep uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    /// Everything AoS (public QMCPACK, Table II).
    Baseline,
    /// SoA distance tables + Jastrow, AoS B-splines (Table III).
    OptimizedSubstrate,
}

/// Profile run parameters.
#[derive(Clone, Copy, Debug)]
pub struct ProfileConfig {
    /// Graphite supercell tiling (paper: 4×4×1).
    pub tiling: (usize, usize, usize),
    /// Spline grid.
    pub grid: (usize, usize, usize),
    /// Monte Carlo sweeps (one proposed move per electron each).
    pub sweeps: usize,
    /// Seed.
    pub seed: u64,
}

impl ProfileConfig {
    /// The paper's CORAL 4×4×1 benchmark.
    pub fn coral() -> Self {
        Self {
            tiling: (4, 4, 1),
            grid: (48, 48, 60),
            sweeps: 2,
            seed: 0x0c0a1,
        }
    }

    /// Shrunk configuration for tests/benches.
    pub fn small() -> Self {
        Self {
            tiling: (1, 1, 1),
            grid: (12, 12, 14),
            sweeps: 1,
            seed: 0x0c0a1,
        }
    }
}

/// A well-conditioned random Slater matrix (profiling needs realistic
/// O(N²) update cost, not physical values).
fn random_slater(n: usize, rng: &mut StdRng) -> DiracDeterminant {
    let mut a: Vec<f64> = (0..n * n).map(|_| rng.random::<f64>() - 0.5).collect();
    for i in 0..n {
        a[i * n + i] += 2.0;
    }
    DiracDeterminant::build(&a, n)
}

/// Run the pbyp sweep and return the per-category timers.
pub fn run_profile(suite: Suite, cfg: &ProfileConfig) -> Timers {
    let sys = CoralSystem::new(cfg.tiling.0, cfg.tiling.1, cfg.tiling.2, cfg.grid);
    let n = sys.n_per_spin;
    let n_el = sys.n_electrons();
    let lat = sys.lattice;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // AoS B-spline engine in both suites (Tables II/III predate Opt A).
    let table = crate::workload::coefficients(n, cfg.grid, cfg.seed);
    let engine = BsplineAoS::new(table);
    let mut spo_out = WalkerAoS::<f32>::new(n);

    let mut electrons = random_electrons(lat, n_el, &mut rng);
    let ions: &ParticleSet = &sys.ions;

    // Distance tables per suite.
    let mut ee_aos = DistanceTableAAAoS::new(&electrons);
    let mut ei_aos = DistanceTableABAoS::new(ions, &electrons);
    let mut ee_soa = DistanceTableAA::new(&electrons);
    let mut ei_soa = DistanceTableAB::new(ions, &electrons);

    let rc = lat.wigner_seitz_radius() * 0.9;
    let u2 = BsplineFunctor::rpa_like(0.5, 1.2, rc, 48);
    let u1 = BsplineFunctor::rpa_like(0.3, 1.0, rc, 48);

    let mut det = random_slater(n, &mut rng);
    let mut phi = vec![0.0f64; n];

    let mut timers = Timers::new();
    for _sweep in 0..cfg.sweeps {
        for iel in 0..n_el {
            let rnew = lat.to_cart([
                rng.random::<f64>(),
                rng.random::<f64>(),
                rng.random::<f64>(),
            ]);
            let u = lat.to_frac(rnew);
            let upos = [u[0] as f32, u[1] as f32, u[2] as f32];

            // B-spline work for the proposed position.
            timers.time(Category::Bspline, || engine.vgh(upos, &mut spo_out));

            // Distance rows for the proposal.
            match suite {
                Suite::Baseline => timers.time(Category::Distance, || {
                    ee_aos.propose(&electrons, iel, rnew);
                    ei_aos.propose(rnew);
                }),
                Suite::OptimizedSubstrate => timers.time(Category::Distance, || {
                    ee_soa.propose(&electrons, iel, rnew);
                    ei_soa.propose(iel, rnew);
                }),
            }

            // Jastrow ratio + gradient over the proposal rows (QMC drift
            // moves use ratioGrad: value and first derivative per pair).
            let _log_ratio: f64 = match suite {
                Suite::OptimizedSubstrate => timers.time(Category::Jastrow, || {
                    let mut du = 0.0;
                    let mut g = [0.0f64; 3];
                    let (dx, dy, dz) = ee_soa.temp_disp();
                    for (j, &r) in ee_soa.temp_row().iter().enumerate() {
                        if j != iel {
                            let (u, d1, _) = u2.vgl(r);
                            du += u;
                            if r > 0.0 {
                                let s = d1 / r;
                                g[0] += s * dx[j];
                                g[1] += s * dy[j];
                                g[2] += s * dz[j];
                            }
                        }
                    }
                    for &r in ei_soa.temp_row() {
                        let (u, _, _) = u1.vgl(r);
                        du += u;
                    }
                    -du + 1e-300 * g[0]
                }),
                Suite::Baseline => timers.time(Category::Jastrow, || {
                    let mut du = 0.0;
                    let mut g = [0.0f64; 3];
                    for j in 0..n_el {
                        if j != iel {
                            let r = ee_aos.temp_distance(j);
                            let (u, d1, _) = u2.vgl(r);
                            du += u;
                            if r > 0.0 {
                                let disp = ee_aos.temp_displacement(j);
                                let s = d1 / r;
                                g[0] += s * disp[0];
                                g[1] += s * disp[1];
                                g[2] += s * disp[2];
                            }
                        }
                    }
                    for i in 0..ions.len() {
                        let (u, _, _) = u1.vgl(ei_aos.temp_distance(i));
                        du += u;
                    }
                    -du + 1e-300 * g[0]
                }),
            };

            // Determinant ratio from the evaluated orbitals + SM update.
            let e = iel % n;
            timers.time(Category::Determinant, || {
                for (k, p) in phi.iter_mut().enumerate() {
                    *p = spo_out.value(k) as f64 + if k == e { 2.0 } else { 0.0 };
                }
                let r = det.ratio(e, &phi);
                if r.abs() > 1e-6 {
                    det.accept(e, &phi);
                }
            });

            // Accept the move (alternating, fixed pattern).
            if iel % 2 == 0 {
                match suite {
                    Suite::Baseline => timers.time(Category::Distance, || {
                        ee_aos.accept(iel);
                        ei_aos.accept(iel);
                    }),
                    Suite::OptimizedSubstrate => timers.time(Category::Distance, || {
                        ee_soa.accept(iel);
                        ei_soa.accept(iel);
                    }),
                }
                electrons.set(iel, rnew);
            }
        }
    }
    timers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_produces_all_categories() {
        let t = run_profile(Suite::Baseline, &ProfileConfig::small());
        for cat in [
            Category::Bspline,
            Category::Distance,
            Category::Jastrow,
            Category::Determinant,
        ] {
            assert!(t.get(cat) > std::time::Duration::ZERO, "{cat}");
        }
    }

    #[test]
    fn optimized_substrate_raises_bspline_share() {
        // Timing-based: retry a few times so background load (e.g. a
        // concurrent build or test run) cannot flake it; the SoA substrate
        // must shift the profile towards B-splines in at least one
        // clean measurement.
        let cfg = ProfileConfig {
            tiling: (2, 2, 1),
            grid: (14, 14, 16),
            sweeps: 2,
            seed: 0x0c0a1,
        };
        let mut last = (0.0, 0.0);
        for _attempt in 0..3 {
            let base = run_profile(Suite::Baseline, &cfg).report();
            let opt = run_profile(Suite::OptimizedSubstrate, &cfg).report();
            last = (
                opt.percent(Category::Bspline),
                base.percent(Category::Bspline),
            );
            if last.0 > last.1 {
                return;
            }
        }
        panic!(
            "SoA substrate must shift share towards B-splines: {} vs {}",
            last.0, last.1
        );
    }
}
