//! The radial correlation function `u(r)`: a clamped 1D cubic B-spline on
//! `[0, r_cut]` that vanishes smoothly at the cutoff (value and slope
//! zero), matching QMCPACK's `BsplineFunctor` construction.
//!
//! # The row evaluators
//!
//! The Jastrow loops ask for `u` over a whole distance-table row, of
//! which a minority lies inside the cutoff (about a fifth of the pairs
//! at `r_cut = 0.9·r_WS` in the CORAL 4×4×1 cell). Both evaluators
//! first compress the in-cutoff indices without a branch (`idx[m] = j;
//! m += !(r >= r_cut)`: NaN counts as inside and stays NaN, as in the
//! scalar calls), then evaluate only the compressed entries.
//! `BsplineFunctor::values_row` zero-fills its row and scatters the
//! values into it, for the move ratio's whole-row sums.
//! `BsplineFunctor::vgl_packed` writes `(u, u′, u″)` densely, one entry
//! per in-cutoff index, for the full evaluation's loops, which visit
//! only those pairs. It works in blocks of 64 entries: a scalar loop
//! locates each entry and copies its interval's four coefficients into
//! stack streams, then the weights and sums run over those streams at
//! the backend's vector width (the loads through each entry's index
//! kept a single loop scalar). A pair beyond the cutoff adds exact
//! zeros, so skipping it changes no bit. (Its displacement is finite: the
//! distance tables turn a non-finite position into NaN distances,
//! which are evaluated, never into +∞.) Evaluating all entries under
//! a select instead was slower than the branchy scalar loop these
//! replace (prototype: `miniqmc.jastrow.ratio_us` 4.26 against 2.72).
//!
//! # Accumulation order, and why there is no `mul_add`
//!
//! An entry is evaluated from its 4-coefficient window `c` and the
//! basis weights `w(t)` in plain arithmetic: the value as
//! `w₃c₃ + (w₂c₂ + (w₁c₁ + w₀c₀))`, the three sums of `vgl` as
//! `((w₀c₀ + w₁c₁) + w₂c₂) + w₃c₃` starting from zero — the order
//! [`einspline::Spline1`] uses, with every `mul_add` of it written as
//! `a * b + c`. On the x86-64 baseline target `f64::mul_add` is a call
//! into libm, 4 (value) or 12 (vgl) of them per pair; and Rust does not
//! contract `a * b + c` on its own, so the three instantiations of each
//! row body (the crate's `multiversion!`: baseline, `avx2,fma` and
//! `avx2,fma,avx512f`, picked by [`bspline::simd::active_backend`], so
//! `QMC_SIMD` and `with_backend` select them like every other kernel)
//! and the scalar
//! [`BsplineFunctor::value`]/[`BsplineFunctor::vgl`] agree to the bit.

use crate::multiversion::multiversion;
use einspline::basis::{d2_weights, d_weights, weights};
use einspline::{Grid1, Spline1};

/// A cutoff radial function represented by a 1D cubic B-spline.
#[derive(Clone, Debug)]
pub struct BsplineFunctor {
    spline: Spline1<f64>,
    rcut: f64,
}

impl BsplineFunctor {
    /// Fit `f` on `npts+1` uniform points of `[0, rcut]`, clamping the
    /// outer boundary to `u(rcut) = f(rcut)` with zero slope and the
    /// inner boundary to the sampled slope of `f` at 0.
    pub fn fit<F: Fn(f64) -> f64>(f: F, rcut: f64, npts: usize) -> Self {
        assert!(rcut > 0.0 && npts >= 4, "need rcut > 0 and ≥ 4 intervals");
        let grid = Grid1::natural(0.0, rcut, npts);
        let data: Vec<f64> = (0..=npts).map(|i| f(grid.point(i))).collect();
        let h = rcut / npts as f64 * 1e-3;
        let s0 = (f(h) - f(0.0)) / h;
        let spline = Spline1::interpolate_clamped(grid, &data, s0, 0.0);
        Self { spline, rcut }
    }

    /// The electron–electron RPA-like default used by the examples:
    /// `u(r) = a·exp(−r/f)·(1 − r/r_cut)²` — smooth, monotonically
    /// decaying, exactly zero value/slope at the cutoff.
    pub fn rpa_like(a: f64, f: f64, rcut: f64, npts: usize) -> Self {
        Self::fit(
            move |r| {
                let t = 1.0 - r / rcut;
                a * (-r / f).exp() * t * t
            },
            rcut,
            npts,
        )
    }

    #[inline]
    /// Cutoff.
    pub fn cutoff(&self) -> f64 {
        self.rcut
    }

    /// `u(r)` for `r` not beyond the cutoff.
    #[inline(always)]
    fn value_inside(&self, r: f64) -> f64 {
        let (t, c) = self.window(r);
        let w = weights(t);
        w[3] * c[3] + (w[2] * c[2] + (w[1] * c[1] + w[0] * c[0]))
    }

    /// The basis offset `t` of `r` and the 4-coefficient window its
    /// interval reads.
    #[inline(always)]
    fn window(&self, r: f64) -> (f64, [f64; 4]) {
        let (i, t) = self.spline.grid().locate(r);
        let c = &self.spline.coefficients()[i..i + 4];
        (t, [c[0], c[1], c[2], c[3]])
    }

    /// `(u, u′, u″)` from a [`Self::window`].
    #[inline(always)]
    fn vgl_window(&self, t: f64, c: [f64; 4]) -> (f64, f64, f64) {
        let (w, dw, d2w) = (weights(t), d_weights(t), d2_weights(t));
        let (mut v, mut d, mut d2) = (0.0, 0.0, 0.0);
        for k in 0..4 {
            v += w[k] * c[k];
            d += dw[k] * c[k];
            d2 += d2w[k] * c[k];
        }
        let di = self.spline.grid().delta_inv();
        (v, d * di, d2 * di * di)
    }

    /// `u(r)`; zero beyond the cutoff.
    #[inline]
    pub fn value(&self, r: f64) -> f64 {
        if r >= self.rcut {
            0.0
        } else {
            self.value_inside(r)
        }
    }

    /// `(u, u′, u″)` at `r`; zeros beyond the cutoff.
    #[inline]
    pub fn vgl(&self, r: f64) -> (f64, f64, f64) {
        if r >= self.rcut {
            (0.0, 0.0, 0.0)
        } else {
            let (t, c) = self.window(r);
            self.vgl_window(t, c)
        }
    }

    /// Indices of the entries of `r` not beyond the cutoff, in order,
    /// into the front of `idx`; returns how many.
    #[inline(always)]
    fn compress(&self, r: &[f64], idx: &mut [usize]) -> usize {
        let mut m = 0;
        for (j, &rj) in r.iter().enumerate() {
            idx[m] = j;
            // NaN is not beyond the cutoff: it is evaluated, to NaN.
            let beyond = rj >= self.rcut;
            m += usize::from(!beyond);
        }
        m
    }

    /// The body of [`Self::values_row`].
    #[inline(always)]
    fn values_row_body(&self, r: &[f64], idx: &mut [usize], u: &mut [f64]) {
        let m = self.compress(r, idx);
        u.fill(0.0);
        for &j in &idx[..m] {
            u[j] = self.value_inside(r[j]);
        }
    }

    /// `u[j] = value(r[j])` for a whole row, bit for bit. `idx` is
    /// scratch; the three slices have one length.
    pub(crate) fn values_row(&self, r: &[f64], idx: &mut [usize], u: &mut [f64]) {
        assert!(
            idx.len() == r.len() && u.len() == r.len(),
            "row lengths differ"
        );
        values_row_any(self, r, idx, u);
    }

    /// The body of [`Self::vgl_packed`].
    #[inline(always)]
    fn vgl_packed_body(&self, r: &[f64], idx: &mut [usize], out: [&mut [f64]; 3]) -> usize {
        const B: usize = 64;
        let m = self.compress(r, idx);
        let [u, du, d2u] = out;
        let (u, du, d2u) = (
            u[..m].chunks_mut(B),
            du[..m].chunks_mut(B),
            d2u[..m].chunks_mut(B),
        );
        for (((js, u), du), d2u) in idx[..m].chunks(B).zip(u).zip(du).zip(d2u) {
            // The windows as five streams, so that the second loop has
            // no indirect load and vectorizes.
            let (mut t, mut c) = ([0.0; B], [[0.0; B]; 4]);
            for (k, &j) in js.iter().enumerate() {
                let (tk, ck) = self.window(r[j]);
                t[k] = tk;
                for q in 0..4 {
                    c[q][k] = ck[q];
                }
            }
            for k in 0..js.len() {
                let ck = [c[0][k], c[1][k], c[2][k], c[3][k]];
                (u[k], du[k], d2u[k]) = self.vgl_window(t[k], ck);
            }
        }
        m
    }

    /// The entries of `r` not beyond the cutoff, packed: their indices
    /// in order into `idx[..m]`, and `(u, u′, u″) = vgl(r[idx[k]])` into
    /// entry `k` of `out = [u, u′, u″]`, bit for bit. Returns `m`;
    /// entries past it are scratch. All slices have one length.
    pub(crate) fn vgl_packed(&self, r: &[f64], idx: &mut [usize], out: [&mut [f64]; 3]) -> usize {
        assert!(
            idx.len() == r.len() && out.iter().all(|o| o.len() == r.len()),
            "row lengths differ"
        );
        vgl_packed_any(self, r, idx, out)
    }

    /// `(u[j], u′[j], u″[j]) = vgl(r[j])` for a whole row into `out =
    /// [u, u′, u″]`: the zero-filled rows the full evaluation read
    /// before it visited in-cutoff pairs only, kept as the tests'
    /// reference.
    #[cfg(test)]
    pub(crate) fn vgl_row(&self, r: &[f64], out: [&mut [f64]; 3]) {
        let [u, du, d2u] = out;
        for (j, &rj) in r.iter().enumerate() {
            (u[j], du[j], d2u[j]) = self.vgl(rj);
        }
    }
}

multiversion! {
    /// [`BsplineFunctor::values_row_body`] in the active backend's
    /// instantiation.
    fn values_row_any(f: &BsplineFunctor, r: &[f64], idx: &mut [usize], u: &mut [f64]) =
        BsplineFunctor::values_row_body;
}

multiversion! {
    /// [`BsplineFunctor::vgl_packed_body`] in the active backend's
    /// instantiation.
    fn vgl_packed_any(f: &BsplineFunctor, r: &[f64], idx: &mut [usize], out: [&mut [f64]; 3]) -> usize =
        BsplineFunctor::vgl_packed_body;
}

#[cfg(test)]
mod tests {
    use super::*;
    use bspline::simd::{active_backend, with_backend, Backend};

    fn functor() -> BsplineFunctor {
        BsplineFunctor::rpa_like(0.5, 1.0, 3.0, 64)
    }

    /// Both row evaluators over `r`, as bit patterns `[u, u′, u″]` per
    /// entry (`vgl_packed`'s entries scattered back to their indices,
    /// zeros elsewhere), after checking that `vgl_packed` kept exactly
    /// the entries not beyond the cutoff and that `values_row` gives
    /// the same `u`.
    fn rows(f: &BsplineFunctor, r: &[f64]) -> Vec<[u64; 3]> {
        let n = r.len();
        let mut idx = vec![usize::MAX; n];
        // Stale scratch: the evaluators must overwrite what they report.
        let stale = vec![7.0; n];
        let (mut v, mut u, mut du, mut d2u) = (stale.clone(), stale.clone(), stale.clone(), stale);
        f.values_row(r, &mut idx, &mut v);
        let m = f.vgl_packed(r, &mut idx, [&mut u, &mut du, &mut d2u]);
        let inside: Vec<usize> = (0..n)
            .filter(|&j| r[j] < f.cutoff() || r[j].is_nan())
            .collect();
        assert_eq!(idx[..m], inside[..], "packed indices");
        let mut full = vec![[0u64; 3]; n];
        for (k, &j) in idx[..m].iter().enumerate() {
            full[j] = [u[k], du[k], d2u[k]].map(f64::to_bits);
        }
        let bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            bits,
            full.iter().map(|e| e[0]).collect::<Vec<_>>(),
            "values_row against vgl_packed"
        );
        full
    }

    /// A row with every kind of entry: zero, interior, the last value
    /// below the cutoff, the cutoff itself, beyond, +∞ and NaN; about
    /// 150 entries inside the cutoff, so `vgl_packed` runs two whole
    /// blocks and a ragged one.
    fn hostile_row() -> Vec<f64> {
        let rcut = functor().cutoff();
        let (below, above) = (rcut.next_down(), rcut.next_up());
        let mut r = vec![0.0, below, rcut, above, 5.0, f64::INFINITY];
        r.extend((0..200).map(|k| 0.02 * k as f64));
        r.insert(9, f64::NAN);
        r
    }

    #[test]
    fn rows_equal_the_scalar_calls_bitwise() {
        let f = functor();
        let r = hostile_row();
        let got = rows(&f, &r);
        for (j, &rj) in r.iter().enumerate() {
            let (u, du, d2u) = f.vgl(rj);
            assert_eq!(got[j], [u, du, d2u].map(f64::to_bits), "vgl at r[{j}]={rj}");
            assert_eq!(got[j][0], f.value(rj).to_bits(), "value at r[{j}]={rj}");
        }
        // The cutoff and everything beyond are exact zeros; NaN poisons
        // its own entry only (every other one matched above).
        for j in [2, 3, 4, 5] {
            assert_eq!(got[j], [0u64; 3], "r[{j}]={}", r[j]);
        }
        assert!(f64::from_bits(got[9][0]).is_nan());
        assert!(f64::from_bits(got[0][0]) > 0.0 && f64::from_bits(got[1][0]).abs() < 1e-12);
        assert!(rows(&f, &[]).is_empty());
    }

    #[test]
    fn rows_bit_identical_across_backends() {
        let f = functor();
        let r = hostile_row();
        let run = |b: Backend| with_backend(b, || rows(&f, &r));
        assert_eq!(run(Backend::Scalar), run(active_backend()));
    }

    #[test]
    fn interpolates_the_analytic_form() {
        let f = functor();
        for k in 0..60 {
            let r = 3.0 * k as f64 / 60.0;
            let t = 1.0 - r / 3.0;
            let expect = 0.5 * (-r).exp() * t * t;
            assert!((f.value(r) - expect).abs() < 1e-5, "r={r}");
        }
    }

    #[test]
    fn vanishes_smoothly_at_cutoff() {
        let f = functor();
        let (u, du, _) = f.vgl(3.0 - 1e-9);
        assert!(u.abs() < 1e-7);
        assert!(du.abs() < 1e-4);
        assert_eq!(f.value(3.0), 0.0);
        assert_eq!(f.vgl(5.0), (0.0, 0.0, 0.0));
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let f = functor();
        let h = 1e-6;
        for k in 1..25 {
            let r = 2.8 * k as f64 / 25.0;
            let (_, du, d2u) = f.vgl(r);
            let fd1 = (f.value(r + h) - f.value(r - h)) / (2.0 * h);
            let fd2 = (f.value(r + h) - 2.0 * f.value(r) + f.value(r - h)) / (h * h);
            assert!((du - fd1).abs() < 1e-6, "r={r}");
            assert!((d2u - fd2).abs() < 1e-3, "r={r}");
        }
    }

    #[test]
    fn monotone_decay_for_rpa_like() {
        let f = functor();
        let mut prev = f.value(0.0);
        for k in 1..30 {
            let cur = f.value(3.0 * k as f64 / 30.0);
            assert!(cur <= prev + 1e-9, "k={k}");
            prev = cur;
        }
    }

    #[test]
    #[should_panic(expected = "rcut > 0")]
    fn bad_cutoff_rejected() {
        let _ = BsplineFunctor::fit(|_| 0.0, 0.0, 8);
    }
}
