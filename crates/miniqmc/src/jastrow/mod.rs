//! Jastrow correlation factors — the third kernel group of the QMC
//! profile (Tables II/III: 11–22 % of runtime).
//!
//! `ΨT = exp(J) D↑ D↓` with `J = J1 + J2`:
//!
//! * [`functor`] — the radial correlation function `u(r)`: a 1D cubic
//!   B-spline with a cutoff (QMCPACK's `BsplineFunctor`);
//! * [`j1`] — one-body (electron–ion) term `J1 = −Σ_{eI} u(r_eI)`;
//! * [`j2`] — two-body (electron–electron) term `J2 = −Σ_{i<j} u(r_ij)`.
//!
//! Each term provides the VMC particle-by-particle contract: full
//! `evaluate_log` with per-electron gradients/Laplacians, an O(N) move
//! `ratio`, and an `accept` that keeps per-particle accumulators
//! consistent.

pub mod functor;
pub mod j1;
pub mod j2;

pub use functor::BsplineFunctor;
pub use j1::OneBodyJastrow;
pub use j2::TwoBodyJastrow;

/// Per-electron derivative accumulators of a Jastrow term.
#[derive(Clone, Debug, Default)]
pub struct JastrowDerivs {
    /// `∇ᵢ log J` per electron.
    pub grad: Vec<[f64; 3]>,
    /// `∇²ᵢ log J` per electron.
    pub lap: Vec<f64>,
}

impl JastrowDerivs {
    /// Zeros.
    pub fn zeros(n: usize) -> Self {
        Self {
            grad: vec![[0.0; 3]; n],
            lap: vec![0.0; n],
        }
    }
}

/// One particle's sums over a row that [`BsplineFunctor::vgl_row`]
/// filled: `Σ u`, the gradient `Σ (u′/r)·disp` and the Laplacian
/// `−Σ (u″ + 2u′/r)` of `log J`, in index order. An entry at `r = 0`
/// (coincident particles have no direction) counts towards `Σ u` only;
/// that guard is a select, so the loop has no branch.
pub(crate) fn sum_row(
    r: &[f64],
    [u, du, d2u]: [&[f64]; 3],
    (dx, dy, dz): (&[f64], &[f64], &[f64]),
) -> (f64, [f64; 3], f64) {
    let n = r.len();
    let (u, du, d2u) = (&u[..n], &du[..n], &d2u[..n]);
    let (dx, dy, dz) = (&dx[..n], &dy[..n], &dz[..n]);
    let (mut usum, mut g, mut lap) = (0.0, [0.0f64; 3], 0.0);
    for j in 0..n {
        usum += u[j];
        let apart = r[j] > 0.0;
        let du_r = du[j] / r[j];
        let du_r = if apart { du_r } else { 0.0 };
        g[0] += du_r * dx[j];
        g[1] += du_r * dy[j];
        g[2] += du_r * dz[j];
        let l = d2u[j] + 2.0 * du_r;
        lap -= if apart { l } else { 0.0 };
    }
    (usum, g, lap)
}
