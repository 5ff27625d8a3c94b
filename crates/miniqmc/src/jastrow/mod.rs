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

/// One particle's sums over the in-cutoff entries of its row that
/// [`BsplineFunctor::vgl_packed`] found: `Σ u`, the gradient `Σ (u′/r)·disp`
/// and the Laplacian `−Σ (u″ + 2u′/r)` of `log J`, in index order. Entry
/// `k` is pair `j = idx[k]`, with distance `r[j]`, displacement
/// `disp[j]` and `[u, u′, u″][k]`; `pair(j, u, ∇, ∇²)` sees each pair's
/// terms as they are added. An entry at `r = 0` (coincident particles
/// have no direction) counts towards `Σ u` only; that guard is a
/// select on `r <= 0`, which is false for a NaN distance: a NaN pair is
/// not taken for a coincident one, and its NaN reaches `Σ u`, the
/// gradient and the Laplacian alike. The pairs beyond the cutoff, which add exact zeros,
/// are not visited.
#[inline(always)]
pub(crate) fn packed_row_sums(
    r: &[f64],
    idx: &[usize],
    [u, du, d2u]: [&[f64]; 3],
    (dx, dy, dz): (&[f64], &[f64], &[f64]),
    mut pair: impl FnMut(usize, f64, [f64; 3], f64),
) -> (f64, [f64; 3], f64) {
    let m = idx.len();
    let (u, du, d2u) = (&u[..m], &du[..m], &d2u[..m]);
    let (mut usum, mut g, mut lap) = (0.0, [0.0f64; 3], 0.0);
    for (k, &j) in idx.iter().enumerate() {
        usum += u[k];
        // False for NaN: a NaN distance is not a coincident pair.
        let coincident = r[j] <= 0.0;
        let du_r = du[k] / r[j];
        let du_r = if coincident { 0.0 } else { du_r };
        let gj = [du_r * dx[j], du_r * dy[j], du_r * dz[j]];
        g[0] += gj[0];
        g[1] += gj[1];
        g[2] += gj[2];
        let l = d2u[k] + 2.0 * du_r;
        let l = if coincident { 0.0 } else { l };
        lap -= l;
        pair(j, u[k], gj, l);
    }
    (usum, g, lap)
}

/// `packed_row_sums` as it was before it skipped pairs beyond the
/// cutoff: one particle's sums over a whole row that
/// [`BsplineFunctor::vgl_row`] filled, zeros included. The tests'
/// reference.
#[cfg(test)]
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
        // False for NaN: a NaN distance is not a coincident pair.
        let coincident = r[j] <= 0.0;
        let du_r = du[j] / r[j];
        let du_r = if coincident { 0.0 } else { du_r };
        g[0] += du_r * dx[j];
        g[1] += du_r * dy[j];
        g[2] += du_r * dz[j];
        let l = d2u[j] + 2.0 * du_r;
        lap -= if coincident { 0.0 } else { l };
    }
    (usum, g, lap)
}
