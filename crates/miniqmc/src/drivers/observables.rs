//! Observable estimators — the "measurement stage" of the paper's DMC
//! description (Sec. III): after each drift-diffusion move, kinetic and
//! potential energies are computed per walker.
//!
//! The kinetic energy uses the log-derivative identity
//! `T = −½ Σᵢ (∇²ᵢ ln|Ψ| + |∇ᵢ ln|Ψ||²)` so only the quantities the
//! wavefunction already tracks (gradients/Laplacians of `log Ψ`) are
//! needed. The potential is the bare Coulomb sum under minimum image —
//! adequate for exercising the V kernel path and the distance tables
//! (a full Ewald sum is out of scope: no energy with a potential is
//! claimed to be physical, only to exercise those paths).

use crate::determinant::DiracDeterminant;
use crate::distance::soa::{DistanceTableAA, DistanceTableAB};
use crate::jastrow::JastrowDerivs;

/// Per-walker energy components (Hartree-like units).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LocalEnergy {
    /// Kinetic part `−½ Σ (∇² lnΨ + |∇ lnΨ|²)`.
    pub kinetic: f64,
    /// Electron–electron Coulomb (minimum image).
    pub vee: f64,
    /// Electron–ion Coulomb (charge `z_ion` per ion).
    pub vei: f64,
}

impl LocalEnergy {
    /// Total local energy.
    pub fn total(&self) -> f64 {
        self.kinetic + self.vee + self.vei
    }
}

/// Kinetic energy from per-electron log-derivatives of the full
/// wavefunction: `grad[i] = ∇ᵢ lnΨ`, `lap[i] = ∇²ᵢ lnΨ`.
pub fn kinetic_energy(derivs: &JastrowDerivs) -> f64 {
    let mut t = 0.0;
    for (g, &l) in derivs.grad.iter().zip(&derivs.lap) {
        t += l + g[0] * g[0] + g[1] * g[1] + g[2] * g[2];
    }
    -0.5 * t
}

/// Assemble the total log-derivatives of `Ψ = exp(J) D↑ D↓` for the
/// kinetic estimator: Jastrow derivatives plus determinant
/// gradients/Laplacians per electron.
///
/// `det_grad[i]`/`det_lap[i]` are `∇ᵢ log D` and `∇²ᵢ log D` of the
/// electron's own spin determinant (zero contribution from the other
/// spin).
pub fn combine_log_derivs(
    jastrow: &JastrowDerivs,
    det_grad: &[[f64; 3]],
    det_lap: &[f64],
) -> JastrowDerivs {
    assert_eq!(jastrow.grad.len(), det_grad.len());
    assert_eq!(jastrow.lap.len(), det_lap.len());
    let mut out = jastrow.clone();
    for i in 0..det_grad.len() {
        for d in 0..3 {
            out.grad[i][d] += det_grad[i][d];
        }
        out.lap[i] += det_lap[i];
    }
    out
}

/// Electron–electron Coulomb energy `Σ_{j<i} 1/r_ij`, summed over the
/// lower triangle the distance table holds, row by row.
pub fn coulomb_ee(dist: &DistanceTableAA) -> f64 {
    let mut v = 0.0;
    for i in 0..dist.len() {
        for &r in dist.row(i) {
            v += 1.0 / r;
        }
    }
    v
}

/// Electron–ion Coulomb energy `−z Σ_{eI} 1/r_eI`.
pub fn coulomb_ei(dist: &DistanceTableAB, z_ion: f64) -> f64 {
    let mut v = 0.0;
    for e in 0..dist.n_targets() {
        for &r in dist.row(e) {
            v -= z_ion / r;
        }
    }
    v
}

/// Determinant log-derivative helper: gradient and Laplacian of
/// `log det` for electron `e` given orbital derivative streams at its
/// current position.
pub fn det_log_derivs(
    det: &DiracDeterminant,
    e: usize,
    gx: &[f64],
    gy: &[f64],
    gz: &[f64],
    lap: &[f64],
) -> ([f64; 3], f64) {
    let g = det.grad_log(e, gx, gy, gz);
    let l = det.lap_log(e, lap, g);
    (g, l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Lattice;
    use crate::particleset::{random_electrons, ParticleSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kinetic_of_plane_wave_is_half_k_squared() {
        // Ψ = exp(i k·r) has lnΨ derivatives: ∇ lnΨ = ik (we use a real
        // analogue: lnΨ = k·r ⇒ ∇ = k, ∇² = 0 ⇒ T = −½|k|² per
        // electron — the estimator just assembles the identity).
        let mut d = JastrowDerivs::zeros(2);
        d.grad[0] = [1.0, 2.0, 2.0]; // |k|² = 9
        d.grad[1] = [0.0, 0.0, 0.0];
        d.lap[1] = -4.0;
        let t = kinetic_energy(&d);
        assert!((t - (-0.5 * (9.0 - 4.0))).abs() < 1e-12);
    }

    #[test]
    fn coulomb_ee_matches_pair_sum() {
        let lat = Lattice::cubic(8.0);
        let ps = random_electrons(lat, 6, &mut StdRng::seed_from_u64(3));
        let dist = DistanceTableAA::new(&ps);
        let v = coulomb_ee(&dist);
        let mut expect = 0.0;
        for i in 0..6 {
            for j in (i + 1)..6 {
                let (_, r) = lat.min_image(ps.get(i), ps.get(j));
                expect += 1.0 / r;
            }
        }
        assert!((v - expect).abs() < 1e-10);
        assert!(v > 0.0);
    }

    #[test]
    fn coulomb_ei_is_attractive() {
        let lat = Lattice::cubic(6.0);
        let ions = ParticleSet::new("ion", lat, &[[1.0, 1.0, 1.0], [4.0, 4.0, 4.0]]);
        let els = random_electrons(lat, 4, &mut StdRng::seed_from_u64(5));
        let dist = DistanceTableAB::new(&ions, &els);
        let v = coulomb_ei(&dist, 4.0);
        assert!(v < 0.0);
    }

    #[test]
    fn combine_adds_componentwise() {
        let mut j = JastrowDerivs::zeros(2);
        j.grad[0] = [1.0, 0.0, 0.0];
        j.lap[0] = 2.0;
        let dg = vec![[0.5, 0.5, 0.0], [0.0, 0.0, 0.0]];
        let dl = vec![-1.0, 3.0];
        let c = combine_log_derivs(&j, &dg, &dl);
        assert_eq!(c.grad[0], [1.5, 0.5, 0.0]);
        assert_eq!(c.lap[0], 1.0);
        assert_eq!(c.lap[1], 3.0);
    }

    #[test]
    fn total_sums_components() {
        let e = LocalEnergy {
            kinetic: 1.5,
            vee: 0.5,
            vei: -3.0,
        };
        assert_eq!(e.total(), -1.0);
    }
}
