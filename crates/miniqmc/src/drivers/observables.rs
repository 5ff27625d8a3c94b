//! Observable estimators — the "measurement stage" of the paper's DMC
//! description (Sec. III): after each sweep the VMC driver measures the
//! kinetic local energy of the configuration.
//!
//! The kinetic energy uses the log-derivative identity
//! `T = −½ Σᵢ (∇²ᵢ ln|Ψ| + |∇ᵢ ln|Ψ||²)` so only the quantities the
//! wavefunction already tracks (gradients/Laplacians of `log Ψ`) are
//! needed. No potential energy is computed: the campaign's branching
//! weights are kinetic only.

use crate::determinant::DiracDeterminant;
use crate::jastrow::JastrowDerivs;

/// Kinetic energy from per-electron log-derivatives of the full
/// wavefunction: `grad[i] = ∇ᵢ lnΨ`, `lap[i] = ∇²ᵢ lnΨ`.
pub fn kinetic_energy(derivs: &JastrowDerivs) -> f64 {
    let mut t = 0.0;
    for (g, &l) in derivs.grad.iter().zip(&derivs.lap) {
        t += l + g[0] * g[0] + g[1] * g[1] + g[2] * g[2];
    }
    -0.5 * t
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
}
