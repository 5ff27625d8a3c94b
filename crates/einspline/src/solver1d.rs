//! Interpolating cubic B-spline coefficient solvers.
//!
//! A cubic B-spline that *interpolates* data `f[i]` at the grid points
//! must satisfy `(c[i-1] + 4·c[i] + c[i+1])/6 = f[i]` (basis weights at a
//! knot are 1/6, 4/6, 1/6). Solving for the control points `c` is a
//! tridiagonal system — cyclic for periodic boundary conditions, plain
//! tridiagonal for natural/clamped ends. This is the `find_coefs` core of
//! the einspline library the paper builds on.
//!
//! All solves run in `f64` regardless of the table precision; the paper's
//! single-precision tables are produced by down-converting solved
//! coefficients.
//!
//! Coefficient storage convention (shared with the 3D tables): a
//! dimension with `n` intervals stores `n + 3` values with
//! `coefs[j] = c[j-1]`, so an evaluation in interval `i` always reads the
//! contiguous window `coefs[i..i+4]`. Periodic dimensions duplicate the
//! first three control points at the tail, which removes every modulo
//! from the hot loops.
//!
//! # Factor once, apply across lanes
//!
//! The periodic system depends only on the axis length, not on the
//! data: `PeriodicFactor` computes its Thomas pivots, upper factors
//! and Sherman–Morrison vector once per length, and
//! `PeriodicFactor::solve_lanes` applies them in place to many
//! right-hand sides stored side by side — `w` lanes of `n + 3` rows, the
//! layout of a 3D table's passes, where the lanes are every other
//! coordinate and every orbital. Each row is then one loop across the
//! lanes that the compiler vectorizes, and each lane runs the
//! operations of a one-lane solve in the same order, so the result is
//! bit for bit the same as solving the lanes one at a time
//! ([`solve_periodic`] is that one-lane call).

use std::ops::Range;

/// Number of extra coefficient slots per dimension (`coefs.len() = n+3`).
pub const COEF_PAD: usize = 3;

/// Solve a general tridiagonal system via the Thomas algorithm.
///
/// `sub[i]` multiplies `x[i-1]` in row `i` (`sub[0]` unused), `diag[i]`
/// multiplies `x[i]`, `sup[i]` multiplies `x[i+1]` (last unused).
///
/// Panics if a pivot vanishes (the spline systems are diagonally
/// dominant, so this indicates misuse).
pub fn solve_tridiagonal(sub: &[f64], diag: &[f64], sup: &[f64], rhs: &[f64]) -> Vec<f64> {
    let n = diag.len();
    assert!(n > 0);
    assert_eq!(sub.len(), n);
    assert_eq!(sup.len(), n);
    assert_eq!(rhs.len(), n);

    let mut c_star = vec![0.0; n];
    let mut d_star = vec![0.0; n];

    assert!(diag[0] != 0.0, "tridiagonal pivot is zero");
    c_star[0] = sup[0] / diag[0];
    d_star[0] = rhs[0] / diag[0];
    for i in 1..n {
        let m = diag[i] - sub[i] * c_star[i - 1];
        assert!(m != 0.0, "tridiagonal pivot is zero at row {i}");
        c_star[i] = sup[i] / m;
        d_star[i] = (rhs[i] - sub[i] * d_star[i - 1]) / m;
    }

    let mut x = d_star;
    for i in (0..n - 1).rev() {
        let next = x[i + 1];
        x[i] -= c_star[i] * next;
    }
    x
}

/// Lanes of one chunk of [`PeriodicFactor::solve_lanes`]: the
/// Sherman–Morrison factors of a chunk (2 KiB) live on the stack, and a
/// chunk's `n + 3` rows stay in cache between the passes.
const CHUNK: usize = 256;

/// Rows `lo < hi` of `buf` (rows `stride` apart), each cut to `lanes`.
fn row_pair(
    buf: &mut [f64],
    stride: usize,
    lo: usize,
    hi: usize,
    lanes: Range<usize>,
) -> (&mut [f64], &mut [f64]) {
    let (head, tail) = buf.split_at_mut(hi * stride);
    (&mut head[lo * stride..][lanes.clone()], &mut tail[lanes])
}

/// The right-hand-side-independent part of the periodic interpolation
/// solve for one axis length `n`: the cyclic tridiagonal system with
/// constant bands `(a, b, a) = (1/6, 4/6, 1/6)` and periodic corners,
/// solved as a Thomas solve corrected by Sherman–Morrison (Numerical
/// Recipes `cyclic`, corners `alpha = beta = a`). Factored once, it is
/// applied to any number of right-hand sides side by side
/// ([`Self::solve_lanes`]), each lane running the same operations in
/// the same order as a solve of that lane alone.
#[derive(Clone, Debug)]
pub(crate) struct PeriodicFactor {
    n: usize,
    /// Thomas pivot of row 0.
    diag0: f64,
    /// Thomas pivots `m[i]` of rows `1..n` (`m[0]` unused).
    m: Vec<f64>,
    /// Thomas upper factors `c*[i]`, rows `0..n-1`.
    c_star: Vec<f64>,
    /// The Sherman–Morrison vector `z` and its denominator.
    z: Vec<f64>,
    den: f64,
}

impl PeriodicFactor {
    const A: f64 = 1.0 / 6.0;
    const B: f64 = 4.0 / 6.0;
    const GAMMA: f64 = -Self::B;

    /// Factor the periodic system of `n ≥ 1` points. Lengths 1 and 2
    /// have closed forms and keep no factors.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n >= 1, "periodic solve needs at least one sample");
        let (a, b, gamma) = (Self::A, Self::B, Self::GAMMA);
        let mut f = Self {
            n,
            diag0: 0.0,
            m: vec![],
            c_star: vec![],
            z: vec![],
            den: 0.0,
        };
        if n < 3 {
            return f;
        }
        let mut diag = vec![b; n];
        diag[0] = b - gamma;
        diag[n - 1] = b - a * a / gamma;
        let band = vec![a; n];
        f.diag0 = diag[0];
        f.c_star = vec![0.0; n];
        f.m = vec![0.0; n];
        f.c_star[0] = a / diag[0];
        for i in 1..n {
            let m = diag[i] - a * f.c_star[i - 1];
            assert!(m != 0.0, "tridiagonal pivot is zero at row {i}");
            f.m[i] = m;
            f.c_star[i] = a / m;
        }
        let mut u = vec![0.0; n];
        u[0] = gamma;
        u[n - 1] = a;
        f.z = solve_tridiagonal(&band, &diag, &band, &u);
        f.den = 1.0 + f.z[0] + a * f.z[n - 1] / gamma;
        f
    }

    /// Solve `w` lanes in place. `buf` holds `n + 3` rows `stride`
    /// apart, of which the first `w` elements are used: on entry rows
    /// `1..=n` hold each lane's samples, on exit rows `0..n+3` hold its
    /// padded coefficients `coefs[j] = c[(j + n − 1) mod n]` (see the
    /// module docs). Lanes are solved in chunks of a few KiB.
    pub(crate) fn solve_lanes(&self, buf: &mut [f64], w: usize, stride: usize) {
        let n = self.n;
        assert!(
            w <= stride && buf.len() >= (n + 2) * stride + w,
            "{w} lanes of {} rows {stride} apart do not fit {} elements",
            n + 3,
            buf.len()
        );
        for lo in (0..w).step_by(CHUNK) {
            let lanes = lo..(lo + CHUNK).min(w);
            self.solve_chunk(buf, stride, lanes.clone());
            // coefs[j] = c[(j + n − 1) mod n], c[i] in row i + 1.
            for (dst, src) in [(0, n), (n + 1, 1), (n + 2, 2)] {
                let from = src * stride + lanes.start;
                buf.copy_within(from..from + lanes.len(), dst * stride + lanes.start);
            }
        }
    }

    /// The solve of rows `1..=n` of one chunk of lanes.
    fn solve_chunk(&self, buf: &mut [f64], stride: usize, lanes: Range<usize>) {
        let (a, b, gamma) = (Self::A, Self::B, Self::GAMMA);
        let n = self.n;
        match n {
            1 => {
                for x in &mut buf[stride..][lanes] {
                    *x /= b + 2.0 * a;
                }
                return;
            }
            2 => {
                // Rows: (B)c0 + (2A)c1 = f0 ; (2A)c0 + (B)c1 = f1.
                let det = b * b - 4.0 * a * a;
                let (r0, r1) = row_pair(buf, stride, 1, 2, lanes);
                for (x0, x1) in r0.iter_mut().zip(r1) {
                    (*x0, *x1) = (
                        (b * *x0 - 2.0 * a * *x1) / det,
                        (b * *x1 - 2.0 * a * *x0) / det,
                    );
                }
                return;
            }
            _ => {}
        }
        // Thomas forward sweep; equation i is in row i + 1.
        for x in &mut buf[stride..][lanes.clone()] {
            *x /= self.diag0;
        }
        for i in 1..n {
            let (prev, cur) = row_pair(buf, stride, i, i + 1, lanes.clone());
            let m = self.m[i];
            for (x, p) in cur.iter_mut().zip(&*prev) {
                *x = (*x - a * p) / m;
            }
        }
        // Back substitution.
        for i in (0..n - 1).rev() {
            let (cur, next) = row_pair(buf, stride, i + 1, i + 2, lanes.clone());
            let c = self.c_star[i];
            for (x, q) in cur.iter_mut().zip(&*next) {
                *x -= c * q;
            }
        }
        // Sherman–Morrison: x − fact·z, one `fact` per lane.
        let mut fact = [0.0f64; CHUNK];
        let fact = &mut fact[..lanes.len()];
        let (first, last) = row_pair(buf, stride, 1, n, lanes.clone());
        for ((f, x0), xn) in fact.iter_mut().zip(&*first).zip(&*last) {
            *f = (x0 + a * xn / gamma) / self.den;
        }
        for (i, &z) in self.z.iter().enumerate() {
            for (x, f) in buf[(i + 1) * stride..][lanes.clone()]
                .iter_mut()
                .zip(&*fact)
            {
                *x -= f * z;
            }
        }
    }
}

/// Periodic interpolation: `data[i]` are samples at the `n` grid points of
/// a period; returns `n + 3` padded coefficients (see module docs). The
/// one-lane call of `PeriodicFactor::solve_lanes`.
pub fn solve_periodic(data: &[f64]) -> Vec<f64> {
    let n = data.len();
    let factor = PeriodicFactor::new(n);
    // Bands are already (1/6, 4/6, 1/6): the RHS is the raw data.
    let mut coefs = vec![0.0; n + COEF_PAD];
    coefs[1..=n].copy_from_slice(data);
    factor.solve_lanes(&mut coefs, 1, 1);
    coefs
}

/// Natural-boundary interpolation: `data` holds `n+1` samples at the
/// points of a grid with `n` intervals; the second derivative vanishes at
/// both ends. Returns `n + 3` coefficients `c[-1..=n+1]`.
pub fn solve_natural(data: &[f64]) -> Vec<f64> {
    let np = data.len();
    assert!(np >= 2, "natural solve needs at least two samples");
    let n = np - 1;

    // f''(x0)=0 and f''(xn)=0 make the end control points explicit:
    // c[0] = f[0], c[n] = f[n]; the interior is a (n-1)-row tridiagonal.
    let c0 = data[0];
    let cn = data[n];
    let mut c = vec![0.0; np];
    c[0] = c0;
    c[n] = cn;

    if n >= 2 {
        let m = n - 1;
        let sub = vec![1.0; m];
        let diag = vec![4.0; m];
        let sup = vec![1.0; m];
        let mut rhs: Vec<f64> = (1..n).map(|i| 6.0 * data[i]).collect();
        rhs[0] -= c0;
        rhs[m - 1] -= cn;
        let interior = solve_tridiagonal(&sub, &diag, &sup, &rhs);
        c[1..n].copy_from_slice(&interior);
    }

    let mut out = Vec::with_capacity(np + 2);
    out.push(2.0 * c[0] - c[1]); // c[-1] from c''(x0)=0
    out.extend_from_slice(&c);
    out.push(2.0 * c[n] - c[n - 1]); // c[n+1] from c''(xn)=0
    out
}

/// Clamped-boundary interpolation: like [`solve_natural`] but with the
/// first derivative prescribed as `s0` at the first point and `sn` at the
/// last. `delta` is the grid spacing. Used by the Jastrow radial functors
/// (QMCPACK clamps `u'(r_cut) = 0`).
pub fn solve_clamped(data: &[f64], s0: f64, sn: f64, delta: f64) -> Vec<f64> {
    let np = data.len();
    assert!(np >= 2, "clamped solve needs at least two samples");
    let n = np - 1;

    // Eliminating c[-1] = c[1] - 2Δs0 and c[n+1] = c[n-1] + 2Δsn gives an
    // (n+1)-row tridiagonal with modified first/last rows:
    //   2c[0] +  c[1]           = 3f[0] + Δ s0
    //    c[i-1] + 4c[i] + c[i+1] = 6f[i]
    //            c[n-1] + 2c[n] = 3f[n] - Δ sn
    let mut sub = vec![1.0; np];
    let mut diag = vec![4.0; np];
    let mut sup = vec![1.0; np];
    let mut rhs: Vec<f64> = data.iter().map(|f| 6.0 * f).collect();
    diag[0] = 2.0;
    sup[0] = 1.0;
    rhs[0] = 3.0 * data[0] + delta * s0;
    diag[n] = 2.0;
    sub[n] = 1.0;
    rhs[n] = 3.0 * data[n] - delta * sn;

    let c = solve_tridiagonal(&sub, &diag, &sup, &rhs);

    let mut out = Vec::with_capacity(np + 2);
    out.push(c[1] - 2.0 * delta * s0);
    out.extend_from_slice(&c);
    out.push(c[n - 1] + 2.0 * delta * sn);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::weights;

    /// Evaluate a padded-coefficient spline at grid point `i`.
    ///
    /// The final knot of a bounded spline belongs to the last interval
    /// (t = 1), which keeps all window indices inside the padded array.
    fn eval_at_knot(coefs: &[f64], i: usize) -> f64 {
        let last = coefs.len() - 4;
        let (i, t) = if i > last { (last, 1.0) } else { (i, 0.0) };
        let w = weights(t);
        (0..4).map(|k| w[k] * coefs[i + k]).sum()
    }

    #[test]
    fn thomas_solves_identity() {
        let x = solve_tridiagonal(
            &[0.0, 0.0, 0.0],
            &[1.0, 1.0, 1.0],
            &[0.0, 0.0, 0.0],
            &[3.0, -1.0, 2.5],
        );
        assert_eq!(x, vec![3.0, -1.0, 2.5]);
    }

    #[test]
    fn thomas_matches_dense_solve() {
        // 4x4 diagonally dominant system, verified by substitution.
        let sub = [0.0, 1.0, 2.0, 0.5];
        let diag = [4.0, 5.0, 6.0, 3.0];
        let sup = [1.0, 2.0, 0.5, 0.0];
        let rhs = [6.0, 20.0, 29.0, 9.5];
        let x = solve_tridiagonal(&sub, &diag, &sup, &rhs);
        // Substitute back.
        let n = 4;
        for i in 0..n {
            let mut acc = diag[i] * x[i];
            if i > 0 {
                acc += sub[i] * x[i - 1];
            }
            if i + 1 < n {
                acc += sup[i] * x[i + 1];
            }
            assert!((acc - rhs[i]).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn periodic_constant_data_gives_constant_coefs() {
        let coefs = solve_periodic(&[2.5; 12]);
        assert_eq!(coefs.len(), 15);
        for c in &coefs {
            assert!((c - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn periodic_interpolates_samples() {
        let n = 16;
        let data: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / n as f64).sin() + 0.3)
            .collect();
        let coefs = solve_periodic(&data);
        assert_eq!(coefs.len(), n + COEF_PAD);
        for (i, f) in data.iter().enumerate() {
            let v = eval_at_knot(&coefs, i);
            assert!((v - f).abs() < 1e-10, "i={i} v={v} f={f}");
        }
    }

    #[test]
    fn periodic_padding_wraps() {
        let n = 8;
        let data: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let coefs = solve_periodic(&data);
        // coefs[j] = c[(j-1) mod n]: tail duplicates head.
        assert!((coefs[n] - coefs[0]).abs() < 1e-14);
        assert!((coefs[n + 1] - coefs[1]).abs() < 1e-14);
        assert!((coefs[n + 2] - coefs[2]).abs() < 1e-14);
    }

    /// The periodic solve as it was before it was factored: one cyclic
    /// solve per line, allocating its bands, then the pad rotation. The
    /// tests' reference.
    fn one_line_reference(rhs: &[f64]) -> Vec<f64> {
        const A: f64 = 1.0 / 6.0;
        const B: f64 = 4.0 / 6.0;
        let n = rhs.len();
        let c = match n {
            1 => vec![rhs[0] / (B + 2.0 * A)],
            2 => {
                let det = B * B - 4.0 * A * A;
                vec![
                    (B * rhs[0] - 2.0 * A * rhs[1]) / det,
                    (B * rhs[1] - 2.0 * A * rhs[0]) / det,
                ]
            }
            _ => {
                let gamma = -B;
                let mut diag = vec![B; n];
                diag[0] = B - gamma;
                diag[n - 1] = B - A * A / gamma;
                let band = vec![A; n];
                let x = solve_tridiagonal(&band, &diag, &band, rhs);
                let mut u = vec![0.0; n];
                u[0] = gamma;
                u[n - 1] = A;
                let z = solve_tridiagonal(&band, &diag, &band, &u);
                let fact = (x[0] + A * x[n - 1] / gamma) / (1.0 + z[0] + A * z[n - 1] / gamma);
                x.iter().zip(&z).map(|(xi, zi)| xi - fact * zi).collect()
            }
        };
        (0..n + COEF_PAD).map(|j| c[(j + n - 1) % n]).collect()
    }

    /// `solve_lanes` gives every lane the bits of a solve of that lane
    /// alone, at the closed-form lengths and the factored ones, for one
    /// lane, a few and more than a chunk (a ragged last chunk), and
    /// leaves the elements between the lanes and the next row alone.
    #[test]
    fn periodic_lanes_bitmatch_the_one_line_solve() {
        for n in [1, 2, 3, 4, 7, 12, 48] {
            for w in [1, 3, CHUNK + 37] {
                let stride = w + 5;
                let sample =
                    |i: usize, l: usize| ((i * 31 + l * 17 + n) as f64 * 0.377).sin() + 0.1;
                let mut buf = vec![-7.0; (n + COEF_PAD) * stride];
                for i in 0..n {
                    for l in 0..w {
                        buf[(i + 1) * stride + l] = sample(i, l);
                    }
                }
                PeriodicFactor::new(n).solve_lanes(&mut buf, w, stride);
                for l in 0..w {
                    let line: Vec<f64> = (0..n).map(|i| sample(i, l)).collect();
                    let want = one_line_reference(&line);
                    for (j, c) in want.iter().enumerate() {
                        let got = buf[j * stride + l];
                        assert_eq!(got.to_bits(), c.to_bits(), "n={n} w={w} lane {l} row {j}");
                    }
                }
                for j in 0..n + COEF_PAD {
                    assert!(buf[j * stride + w..(j + 1) * stride]
                        .iter()
                        .all(|&x| x == -7.0));
                }
                let line0: Vec<f64> = (0..n).map(|i| sample(i, 0)).collect();
                assert_eq!(solve_periodic(&line0), one_line_reference(&line0), "n={n}");
            }
        }
    }

    #[test]
    fn periodic_small_systems() {
        // n = 1 and n = 2 take the closed-form branches.
        let c1 = solve_periodic(&[3.0]);
        assert!((eval_at_knot(&c1, 0) - 3.0).abs() < 1e-12);
        let c2 = solve_periodic(&[1.0, 2.0]);
        assert!((eval_at_knot(&c2, 0) - 1.0).abs() < 1e-12);
        assert!((eval_at_knot(&c2, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn natural_interpolates_samples() {
        let data = [0.0, 1.0, 4.0, 9.0, 16.0, 25.0];
        let coefs = solve_natural(&data);
        assert_eq!(coefs.len(), data.len() + 2);
        for (i, f) in data.iter().enumerate() {
            let v = eval_at_knot(&coefs, i);
            assert!((v - f).abs() < 1e-10, "i={i}");
        }
    }

    #[test]
    fn natural_second_derivative_vanishes_at_ends() {
        let data = [1.0, -0.5, 2.0, 0.25, 1.5];
        let c = solve_natural(&data);
        // f''(knot i)·Δ² = c[i-1] - 2c[i] + c[i+1] = coefs[i] - 2coefs[i+1] + coefs[i+2]
        let d2_start = c[0] - 2.0 * c[1] + c[2];
        let n = data.len() - 1;
        let d2_end = c[n] - 2.0 * c[n + 1] + c[n + 2];
        assert!(d2_start.abs() < 1e-12);
        assert!(d2_end.abs() < 1e-12);
    }

    #[test]
    fn clamped_interpolates_and_matches_slopes() {
        let delta = 0.5;
        let n = 6;
        // f(x) = sin(x) on [0, 3]
        let data: Vec<f64> = (0..=n).map(|i| (i as f64 * delta).sin()).collect();
        let s0 = 1.0; // cos(0)
        let sn = (n as f64 * delta).cos();
        let c = solve_clamped(&data, s0, sn, delta);
        assert_eq!(c.len(), data.len() + 2);
        for (i, f) in data.iter().enumerate() {
            assert!((eval_at_knot(&c, i) - f).abs() < 1e-10, "i={i}");
        }
        // First derivative at knot i: (-c[i-1] + c[i+1]) / (2Δ)
        let d_start = (-c[0] + c[2]) / (2.0 * delta);
        let d_end = (-c[n] + c[n + 2]) / (2.0 * delta);
        assert!((d_start - s0).abs() < 1e-12);
        assert!((d_end - sn).abs() < 1e-12);
    }

    #[test]
    fn clamped_flat_ends() {
        // Zero-slope clamps on symmetric data stay symmetric.
        let data = [1.0, 0.5, 0.25, 0.5, 1.0];
        let c = solve_clamped(&data, 0.0, 0.0, 1.0);
        let m = c.len();
        for i in 0..m {
            assert!((c[i] - c[m - 1 - i]).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn cubic_polynomial_is_reproduced_exactly_inside() {
        // A cubic is in the spline space; clamped interpolation with exact
        // end slopes must reproduce it everywhere, not just at knots.
        let f = |x: f64| 2.0 * x * x * x - x * x + 0.5 * x - 3.0;
        let df = |x: f64| 6.0 * x * x - 2.0 * x + 0.5;
        let delta = 0.25;
        let n = 8;
        let data: Vec<f64> = (0..=n).map(|i| f(i as f64 * delta)).collect();
        let c = solve_clamped(&data, df(0.0), df(n as f64 * delta), delta);
        // Evaluate mid-interval via basis weights.
        for i in 0..n {
            let t = 0.37;
            let w = weights(t);
            let v: f64 = (0..4).map(|k| w[k] * c[i + k]).sum();
            let x = (i as f64 + t) * delta;
            assert!((v - f(x)).abs() < 1e-9, "i={i} v={v} f={}", f(x));
        }
    }
}
