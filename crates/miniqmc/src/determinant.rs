//! Dirac (Slater) determinant with O(N²) Sherman–Morrison row updates
//! (paper Sec. III, Eqs. 2–4).
//!
//! The matrix is `A[e][n] = φ_n(r_e)` (electrons × orbitals). A
//! particle-by-particle move replaces one row; the ratio
//! `det A′ / det A = Σ_n φ_n(r′_e)·A⁻¹[n][e]` costs O(N) and the inverse
//! update O(N²), instead of O(N³) for re-factorization.
//!
//! # The kernels
//!
//! Every O(N) reduction here — the ratio, the three gradient sums, the
//! Laplacian sum and the `n` row products of the update — is one
//! function, `dot`, with a fixed accumulation order: element `k` of
//! the whole `LANES`-blocks goes to lane accumulator `k % LANES`; the
//! 16 accumulators are reduced by a fixed halving tree, first to four,
//! `q[l] = (acc[l] + acc[l + 8]) + (acc[l + 4] + acc[l + 12])`, then to
//! `(q[0] + q[2]) + (q[1] + q[3])`; and the ragged tail (`n % LANES`
//! elements) is added to that sum one by one in index order.
//! Independent lanes are what lets the compiler keep the sum in vector
//! registers; the order is part of the result, not a tuning choice.
//!
//! [`DiracDeterminant::accept`] visits each 1 KiB row of the transposed
//! inverse once (`sherman_morrison`): `w = φ′·row_j` and `row_j −=
//! (w/R)·c` while the row is in L1, with `c` the old row `e` saved
//! first. That is legal because `w_j` depends on row `j` alone.
//!
//! Build and refresh invert the matrix through LU: `lu_factor` (serial
//! partial pivoting), then the unit right-hand sides 16 at a time
//! (`lu_solve_block`), each lane with the operations of its own solve.
//!
//! The three bodies are written with plain products, `c += a * b` or
//! `s −= a * b`, and never as [`f64::mul_add`]: on the x86-64 baseline
//! target `mul_add` is not an instruction but a call into libm per
//! element. Each is instantiated
//! three times by the crate's `multiversion!` macro — baseline,
//! `avx2,fma` and `avx2,fma,avx512f`, picked by
//! [`bspline::simd::active_backend`] like every other kernel, so
//! `QMC_SIMD` and `with_backend` select them — and the three are
//! bit-identical.

use crate::multiversion::multiversion;

/// Lane accumulators of [`dot`]: two AVX-512, four AVX2 or eight SSE2
/// vectors of `f64`, enough independent chains to cover the add
/// latency.
const LANES: usize = 16;

/// `Σ_k a[k]·b[k]` over two slices of one length, in the fixed
/// lane-blocked order the module docs state. The kernel body.
#[inline(always)]
fn dot_body(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let (blocks_a, blocks_b) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (tail_a, tail_b) = (blocks_a.remainder(), blocks_b.remainder());
    let mut acc = [0.0f64; LANES];
    for (x, y) in blocks_a.zip(blocks_b) {
        for l in 0..LANES {
            acc[l] += x[l] * y[l];
        }
    }
    let mut q = [0.0f64; 4];
    for l in 0..4 {
        q[l] = (acc[l] + acc[l + 8]) + (acc[l + 4] + acc[l + 12]);
    }
    // Through memory on purpose. Left in registers, the compiler pairs
    // the lanes two by two from the scalar end of this tree upwards and
    // the block loop with them: 128-bit vectors in the AVX2
    // instantiation too (measured: 5.3 against 4.2 µs per accept at
    // n = 128). The value does not change.
    let q = std::hint::black_box(q);
    let mut s = (q[0] + q[2]) + (q[1] + q[3]);
    for (x, y) in tail_a.iter().zip(tail_b) {
        s += x * y;
    }
    s
}

multiversion! {
    /// [`dot_body`] in the active backend's instantiation.
    #[inline]
    fn dot(a: &[f64], b: &[f64]) -> f64 = dot_body;
}

/// Sherman–Morrison update of the `n × n` transposed inverse `inv_t`
/// for row `e` of `A` replaced by `phi` with determinant ratio `r`, in
/// one pass: `row_j −= (w_j / r)·c` with `c` the old row `e` (saved into
/// the scratch `c`), `w_j = φ′·row_j` and `w_e = r − 1`. The kernel
/// body.
#[inline(always)]
fn sherman_morrison_body(inv_t: &mut [f64], e: usize, phi: &[f64], r: f64, c: &mut [f64]) {
    let n = phi.len();
    c.copy_from_slice(&inv_t[e * n..(e + 1) * n]);
    let inv_r = 1.0 / r;
    for j in 0..n {
        let row = &mut inv_t[j * n..(j + 1) * n];
        let w = if j == e { r - 1.0 } else { dot_body(phi, row) };
        let scale = w * inv_r;
        for (x, ck) in row.iter_mut().zip(&*c) {
            *x -= scale * ck;
        }
    }
}

multiversion! {
    /// [`sherman_morrison_body`] in the active backend's instantiation.
    fn sherman_morrison(inv_t: &mut [f64], e: usize, phi: &[f64], r: f64, c: &mut [f64]) =
        sherman_morrison_body;
}

/// LU factorization with partial pivoting of a dense row-major matrix.
/// Returns `(sign, log|det|)` and overwrites `a` with the LU factors.
/// `piv` receives the permutation.
fn lu_factor(a: &mut [f64], n: usize, piv: &mut [usize]) -> (f64, f64) {
    let mut sign = 1.0;
    let mut log_det = 0.0;
    for (i, p) in piv.iter_mut().enumerate() {
        *p = i;
    }
    for k in 0..n {
        // Pivot search.
        let mut imax = k;
        let mut vmax = a[k * n + k].abs();
        for i in (k + 1)..n {
            let v = a[i * n + k].abs();
            if v > vmax {
                vmax = v;
                imax = i;
            }
        }
        assert!(vmax > 0.0, "singular Slater matrix in LU at column {k}");
        if imax != k {
            for j in 0..n {
                a.swap(k * n + j, imax * n + j);
            }
            piv.swap(k, imax);
            sign = -sign;
        }
        let pivot = a[k * n + k];
        if pivot < 0.0 {
            sign = -sign;
        }
        log_det += pivot.abs().ln();
        let inv_p = 1.0 / pivot;
        for i in (k + 1)..n {
            let m = a[i * n + k] * inv_p;
            a[i * n + k] = m;
            for j in (k + 1)..n {
                a[i * n + j] -= m * a[k * n + j];
            }
        }
    }
    (sign, log_det)
}

/// Right-hand sides of one block of [`invert_transposed`].
const RHS: usize = 16;

/// Solve `LU x = b` in place for [`RHS`] right-hand sides side by side:
/// `xs[i][l]` is entry `i` of right-hand side `l`, holding the permuted
/// `P b` on entry. Factors from [`lu_factor`]. Each lane runs the
/// operations of a one-right-hand-side solve in the same order —
/// `s −= lu[i][j]·x[j]` in increasing `j`, then the division by the
/// pivot — so the lanes are independent and the bits do not depend on
/// the vector width. The kernel body.
#[inline(always)]
fn lu_solve_block_body(lu: &[f64], n: usize, xs: &mut [[f64; RHS]]) {
    // Forward substitution (L has unit diagonal).
    for i in 1..n {
        let (done, rest) = xs.split_at_mut(i);
        let mut s = rest[0];
        for (&l, x) in lu[i * n..i * n + i].iter().zip(&*done) {
            for k in 0..RHS {
                s[k] -= l * x[k];
            }
        }
        rest[0] = s;
    }
    // Back substitution.
    for i in (0..n).rev() {
        let (head, done) = xs.split_at_mut(i + 1);
        let mut s = head[i];
        for (&u, x) in lu[i * n + i + 1..(i + 1) * n].iter().zip(&*done) {
            for k in 0..RHS {
                s[k] -= u * x[k];
            }
        }
        let pivot = lu[i * n + i];
        for k in 0..RHS {
            head[i][k] = s[k] / pivot;
        }
    }
}

multiversion! {
    /// [`lu_solve_block_body`] in the active backend's instantiation.
    fn lu_solve_block(lu: &[f64], n: usize, xs: &mut [[f64; RHS]]) = lu_solve_block_body;
}

/// Transposed inverse + `(sign, log|det|)` via LU (the O(N³) path of
/// build, refresh and every full `evaluate_log`). Column `e` of `A⁻¹`
/// is the solution of `A x = unit_e` and is row `e` of `inv_t`. The unit
/// right-hand sides are solved [`RHS`] at a time
/// ([`lu_solve_block`], a 16 KiB scratch at n = 128), which turns the
/// serial `s −= lu·x` chain of one solve into 16 independent lanes; each
/// column gets the bits a solve of it alone gives.
fn invert_transposed(a: &[f64], n: usize, inv_t: &mut [f64]) -> (f64, f64) {
    let mut lu = a.to_vec();
    let mut piv = vec![0usize; n];
    let (sign, log_det) = lu_factor(&mut lu, n, &mut piv);
    let mut xs = vec![[0.0f64; RHS]; n];
    // (`max(1)`: a channel with no electrons has an empty inverse.)
    for (block, rows) in inv_t.chunks_mut(RHS * n.max(1)).enumerate() {
        let e0 = block * RHS;
        // P·unit_e: one where the permutation sends row `e`.
        for (x, &p) in xs.iter_mut().zip(&piv) {
            for (k, xk) in x.iter_mut().enumerate() {
                *xk = if p == e0 + k { 1.0 } else { 0.0 };
            }
        }
        lu_solve_block(&lu, n, &mut xs);
        for (k, row) in rows.chunks_exact_mut(n).enumerate() {
            for (r, x) in row.iter_mut().zip(&xs) {
                *r = x[k];
            }
        }
    }
    (sign, log_det)
}

/// Slater determinant state for one spin channel.
#[derive(Clone, Debug)]
pub struct DiracDeterminant {
    n: usize,
    /// `A[e][n] = φ_n(r_e)`, row-major.
    psi: Vec<f64>,
    /// Transposed inverse: `inv_t[e][n] = A⁻¹[n][e]` — the ratio dot
    /// product walks a unit-stride row.
    inv_t: Vec<f64>,
    log_det: f64,
    sign: f64,
    /// Scratch for accept: the moved electron's row of `inv_t` before
    /// the rank-1 update.
    c: Vec<f64>,
    /// Pending move state.
    pending_ratio: f64,
    pending_e: usize,
}

impl DiracDeterminant {
    /// Build from the full value matrix `values[e][n]` (row-major,
    /// `n_el × n_el`).
    pub fn build(values: &[f64], n: usize) -> Self {
        assert_eq!(values.len(), n * n);
        let mut inv_t = vec![0.0; n * n];
        let (sign, log_det) = invert_transposed(values, n, &mut inv_t);
        Self {
            n,
            psi: values.to_vec(),
            inv_t,
            log_det,
            sign,
            c: vec![0.0; n],
            pending_ratio: f64::NAN,
            pending_e: usize::MAX,
        }
    }

    #[inline]
    /// N electrons.
    pub fn n_electrons(&self) -> usize {
        self.n
    }

    #[inline]
    /// Log det.
    pub fn log_det(&self) -> f64 {
        self.log_det
    }

    #[inline]
    /// Sign.
    pub fn sign(&self) -> f64 {
        self.sign
    }

    /// Electron `e`'s row of the transposed inverse.
    #[inline]
    fn inv_row(&self, e: usize) -> &[f64] {
        &self.inv_t[e * self.n..(e + 1) * self.n]
    }

    /// Determinant ratio for replacing electron `e`'s orbital values with
    /// `phi_new` (Eq. 3): `R = Σ_n φ_n(r′)·A⁻¹[n][e]`.
    pub fn ratio(&mut self, e: usize, phi_new: &[f64]) -> f64 {
        let r = dot(&phi_new[..self.n], self.inv_row(e));
        self.pending_ratio = r;
        self.pending_e = e;
        r
    }

    /// Gradient of `log det` for electron `e` (Eq. 4) given the orbital
    /// gradient streams at the *current* position.
    pub fn grad_log(&self, e: usize, gx: &[f64], gy: &[f64], gz: &[f64]) -> [f64; 3] {
        let row = self.inv_row(e);
        [gx, gy, gz].map(|g| dot(&g[..self.n], row))
    }

    /// Laplacian of `log det` for electron `e`:
    /// `Σ_n ∇²φ_n·B[n][e] − |∇ log det|²`.
    pub fn lap_log(&self, e: usize, lap: &[f64], grad: [f64; 3]) -> f64 {
        let s = dot(&lap[..self.n], self.inv_row(e));
        s - (grad[0] * grad[0] + grad[1] * grad[1] + grad[2] * grad[2])
    }

    /// Commit the pending move: Sherman–Morrison rank-1 update of the
    /// inverse in O(N²).
    pub fn accept(&mut self, e: usize, phi_new: &[f64]) {
        assert_eq!(
            e, self.pending_e,
            "accept must follow ratio for the same electron"
        );
        let r = self.pending_ratio;
        assert!(
            r != 0.0 && r.is_finite(),
            "degenerate determinant ratio {r}"
        );
        let n = self.n;
        sherman_morrison(&mut self.inv_t, e, &phi_new[..n], r, &mut self.c);

        self.psi[e * n..(e + 1) * n].copy_from_slice(&phi_new[..n]);
        self.log_det += r.abs().ln();
        if r < 0.0 {
            self.sign = -self.sign;
        }
        self.pending_e = usize::MAX;
        self.pending_ratio = f64::NAN;
    }

    /// Numerical-hygiene refresh: re-factorize from the stored value
    /// matrix (QMCPACK does this periodically to bound SM drift).
    pub fn refresh(&mut self) {
        (self.sign, self.log_det) = invert_transposed(&self.psi, self.n, &mut self.inv_t);
    }

    /// Max |A·A⁻¹ − I| — drift diagnostic used by tests.
    pub fn inverse_error(&self) -> f64 {
        let n = self.n;
        let mut worst = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                // (A B)[i][j] = Σ_k A[i][k] B[k][j]; B[k][j] = inv_t[j][k]
                let mut s = 0.0;
                for k in 0..n {
                    s += self.psi[i * n + k] * self.inv_t[j * n + k];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                worst = worst.max((s - expect).abs());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bspline::simd::{active_backend, with_backend, Backend};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        // Diagonally-boosted random matrix: well conditioned.
        let mut a: Vec<f64> = (0..n * n).map(|_| rng.random::<f64>() - 0.5).collect();
        for i in 0..n {
            a[i * n + i] += 2.0;
        }
        a
    }

    fn dense_det(a: &[f64], n: usize) -> f64 {
        let mut lu = a.to_vec();
        let mut piv = vec![0; n];
        let (sign, log) = lu_factor(&mut lu, n, &mut piv);
        sign * log.exp()
    }

    /// `invert_transposed` as it was before it solved 16 right-hand
    /// sides at once: one `LU x = P·unit_e` solve per column. The tests'
    /// reference.
    fn invert_transposed_one_rhs(a: &[f64], n: usize) -> (Vec<f64>, f64, f64) {
        let mut lu = a.to_vec();
        let mut piv = vec![0usize; n];
        let (sign, log_det) = lu_factor(&mut lu, n, &mut piv);
        let mut inv_t = vec![0.0; n * n];
        for e in 0..n {
            let x = &mut inv_t[e * n..(e + 1) * n];
            for (xi, &p) in x.iter_mut().zip(&piv) {
                *xi = if p == e { 1.0 } else { 0.0 };
            }
            for i in 1..n {
                let mut s = x[i];
                for j in 0..i {
                    s -= lu[i * n + j] * x[j];
                }
                x[i] = s;
            }
            for i in (0..n).rev() {
                let mut s = x[i];
                for j in (i + 1)..n {
                    s -= lu[i * n + j] * x[j];
                }
                x[i] = s / lu[i * n + i];
            }
        }
        (inv_t, sign, log_det)
    }

    /// The block solve gives every column the bits of its own solve, and
    /// the same sign and `log det`: below one block (1, 2, 15), at one
    /// (16), with a ragged block (17) and at the benchmark's 128, on a
    /// diagonally boosted matrix and on one whose largest entry in each
    /// row sits off the diagonal, so that the factorization swaps rows.
    #[test]
    fn determinant_block_inverse_bitmatches_the_one_rhs_reference() {
        for n in [1, 2, 15, 16, 17, 128] {
            let boosted = random_matrix(n, 100 + n as u64);
            let mut shifted = random_matrix(n, 200 + n as u64);
            for i in 0..n {
                shifted[i * n + i] -= 2.0;
                shifted[i * n + (i + 1) % n] += 3.0;
            }
            if n > 1 {
                let mut piv = vec![0; n];
                lu_factor(&mut shifted.clone(), n, &mut piv);
                assert!(
                    piv.iter().enumerate().any(|(i, &p)| i != p),
                    "n={n}: no swap"
                );
            }
            for a in [boosted, shifted] {
                let (want, sign, log_det) = invert_transposed_one_rhs(&a, n);
                let mut inv_t = vec![0.0; n * n];
                let got = invert_transposed(&a, n, &mut inv_t);
                assert_eq!(got.0.to_bits(), sign.to_bits(), "n={n}: sign");
                assert_eq!(got.1.to_bits(), log_det.to_bits(), "n={n}: log det");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&inv_t), bits(&want), "n={n}: inverse");
            }
        }
    }

    #[test]
    fn lu_det_of_known_matrix() {
        // det [[4,3],[6,3]] = -6
        let a = vec![4.0, 3.0, 6.0, 3.0];
        assert!((dense_det(&a, 2) + 6.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_is_correct() {
        let n = 12;
        let a = random_matrix(n, 1);
        let det = DiracDeterminant::build(&a, n);
        assert!(det.inverse_error() < 1e-10);
    }

    #[test]
    fn log_det_matches_dense() {
        let n = 9;
        let a = random_matrix(n, 2);
        let det = DiracDeterminant::build(&a, n);
        let d = dense_det(&a, n);
        assert!((det.log_det() - d.abs().ln()).abs() < 1e-9);
        assert_eq!(det.sign(), d.signum());
    }

    #[test]
    fn ratio_matches_dense_recompute() {
        let n = 8;
        let a = random_matrix(n, 3);
        let mut det = DiracDeterminant::build(&a, n);
        let mut rng = StdRng::seed_from_u64(4);
        for e in 0..n {
            let phi: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
            let r = det.ratio(e, &phi);
            let mut a2 = a.clone();
            a2[e * n..(e + 1) * n].copy_from_slice(&phi);
            let expect = dense_det(&a2, n) / dense_det(&a, n);
            assert!((r - expect).abs() < 1e-9, "e={e}: {r} vs {expect}");
        }
    }

    /// `steps` accepted moves, each a perturbation of the current row,
    /// cycling over the electrons; returns the matrix they leave.
    fn walk(det: &mut DiracDeterminant, a: &[f64], steps: usize, seed: u64) -> Vec<f64> {
        let n = det.n_electrons();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut current = a.to_vec();
        for step in 0..steps {
            let e = step % n;
            let phi: Vec<f64> = (0..n)
                .map(|k| current[e * n + k] + 0.2 * (rng.random::<f64>() - 0.5))
                .collect();
            let _ = det.ratio(e, &phi);
            det.accept(e, &phi);
            current[e * n..(e + 1) * n].copy_from_slice(&phi);
        }
        current
    }

    #[test]
    fn accept_updates_inverse_exactly() {
        let n = 10;
        let a = random_matrix(n, 5);
        let mut det = DiracDeterminant::build(&a, n);
        let current = walk(&mut det, &a, 30, 6);
        assert!(det.inverse_error() < 1e-7, "err={}", det.inverse_error());
        let expect = dense_det(&current, n);
        assert!((det.log_det() - expect.abs().ln()).abs() < 1e-7);
        assert_eq!(det.sign(), expect.signum());
    }

    /// The one-pass update against a dense re-inversion of the matrix
    /// the moves left, at sizes below one lane block (1, 3, 15), at
    /// exactly one (16), with a ragged tail (17) and at the benchmark's
    /// (128). The bound per `n` is on `max |A·A⁻¹ − I|` after `3n`
    /// accepts of these well-conditioned matrices; the elementwise
    /// distance to the fresh inverse gets the same one.
    #[test]
    fn accept_matches_dense_reinversion_across_lane_shapes() {
        for (n, bound) in [
            (1, 1e-15),
            (3, 1e-15),
            (15, 1e-14),
            (16, 1e-14),
            (17, 1e-14),
            (128, 1e-10),
        ] {
            let a = random_matrix(n, 50 + n as u64);
            let mut det = DiracDeterminant::build(&a, n);
            let current = walk(&mut det, &a, 3 * n, 60 + n as u64);
            let err = det.inverse_error();
            assert!(err < bound, "n={n}: inverse_error {err:e}");
            let fresh = DiracDeterminant::build(&current, n);
            let worst = (det.inv_t.iter().zip(&fresh.inv_t))
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
            assert!(worst < bound, "n={n}: {worst:e} off the fresh inverse");
            let dlog = (det.log_det() - fresh.log_det()).abs();
            assert!(dlog < 10.0 * bound, "n={n}: log det {dlog:e} off");
            assert_eq!(det.sign(), fresh.sign(), "n={n}");
        }
    }

    /// One body, two instantiations: ratio, accept (the whole inverse),
    /// gradient and Laplacian agree to the bit between the baseline
    /// instantiation and the one this host runs.
    #[test]
    fn kernels_bit_identical_across_backends() {
        for n in [3, 16, 17, 128] {
            let a = random_matrix(n, 70 + n as u64);
            let mut rng = StdRng::seed_from_u64(80 + n as u64);
            let streams: Vec<Vec<f64>> = (0..5)
                .map(|_| (0..n).map(|_| rng.random::<f64>() - 0.5).collect())
                .collect();
            let [phi, gx, gy, gz, lap] = &streams[..] else {
                unreachable!()
            };
            let run = |b: Backend| {
                with_backend(b, || {
                    let mut det = DiracDeterminant::build(&a, n);
                    let e = n / 2;
                    let r = det.ratio(e, phi);
                    det.accept(e, phi);
                    let g = det.grad_log(e, gx, gy, gz);
                    let l = det.lap_log(e, lap, g);
                    let mut bits: Vec<u64> = det.inv_t.iter().map(|x| x.to_bits()).collect();
                    bits.extend([r, g[0], g[1], g[2], l, det.log_det()].map(f64::to_bits));
                    bits
                })
            };
            assert_eq!(run(Backend::Scalar), run(active_backend()), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "degenerate determinant ratio")]
    fn nan_orbital_value_trips_the_degenerate_ratio_assert() {
        let n = 20;
        let a = random_matrix(n, 90);
        let mut det = DiracDeterminant::build(&a, n);
        let mut phi = a[..n].to_vec();
        phi[17] = f64::NAN;
        let r = det.ratio(0, &phi);
        assert!(r.is_nan());
        det.accept(0, &phi);
    }

    #[test]
    fn sign_flips_on_negative_ratio() {
        let n = 4;
        let a = random_matrix(n, 7);
        let mut det = DiracDeterminant::build(&a, n);
        let sign0 = det.sign();
        // Negate one row: det flips sign, ratio = -1.
        let phi: Vec<f64> = a[0..n].iter().map(|x| -x).collect();
        let r = det.ratio(0, &phi);
        assert!((r + 1.0).abs() < 1e-12);
        det.accept(0, &phi);
        assert_eq!(det.sign(), -sign0);
    }

    #[test]
    fn refresh_restores_precision() {
        let n = 6;
        let a = random_matrix(n, 8);
        let mut det = DiracDeterminant::build(&a, n);
        let mut rng = StdRng::seed_from_u64(9);
        for step in 0..200 {
            let e = step % n;
            let phi: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5 + 0.3).collect();
            let r = det.ratio(e, &phi);
            if r.abs() > 1e-3 {
                det.accept(e, &phi);
            }
        }
        det.refresh();
        assert!(det.inverse_error() < 1e-11);
    }

    #[test]
    fn grad_log_matches_finite_difference() {
        // φ_n as analytic functions of one electron's position.
        let n = 5;
        let phis: Vec<Box<dyn Fn([f64; 3]) -> f64>> = vec![
            Box::new(|r| 1.0 + 0.1 * r[0]),
            Box::new(|r| r[0] * r[1] + 0.5),
            Box::new(|r| r[2] * r[2] - r[0] + 2.0),
            Box::new(|r| (0.3 * r[0] + 0.2 * r[1]).sin() + 1.5),
            Box::new(|r| r[0] + r[1] + r[2]),
        ];
        let mut rng = StdRng::seed_from_u64(10);
        let pos: Vec<[f64; 3]> = (0..n)
            .map(|_| [rng.random(), rng.random(), rng.random()])
            .collect();
        let fill = |pos: &Vec<[f64; 3]>| -> Vec<f64> {
            let mut a = vec![0.0; n * n];
            for e in 0..n {
                for (k, phi) in phis.iter().enumerate() {
                    a[e * n + k] = phi(pos[e]);
                }
            }
            a
        };
        let a = fill(&pos);
        let det = DiracDeterminant::build(&a, n);

        let e = 2;
        let h = 1e-6;
        // Analytic orbital gradients at pos[e] by FD of φ (exact enough).
        let mut gx = vec![0.0; n];
        let mut gy = vec![0.0; n];
        let mut gz = vec![0.0; n];
        for (k, phi) in phis.iter().enumerate() {
            for (d, g) in [&mut gx, &mut gy, &mut gz].into_iter().enumerate() {
                let mut rp = pos[e];
                rp[d] += h;
                let mut rm = pos[e];
                rm[d] -= h;
                g[k] = (phi(rp) - phi(rm)) / (2.0 * h);
            }
        }
        let grad = det.grad_log(e, &gx, &gy, &gz);

        // FD of log|det| w.r.t. electron e.
        for d in 0..3 {
            let mut pp = pos.clone();
            pp[e][d] += h;
            let mut pm = pos.clone();
            pm[e][d] -= h;
            let lp = DiracDeterminant::build(&fill(&pp), n).log_det();
            let lm = DiracDeterminant::build(&fill(&pm), n).log_det();
            let fd = (lp - lm) / (2.0 * h);
            assert!((grad[d] - fd).abs() < 1e-5, "d={d}: {} vs {fd}", grad[d]);
        }
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn singular_matrix_rejected() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        let _ = DiracDeterminant::build(&a, 2);
    }
}
