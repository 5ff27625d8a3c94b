//! `BsplineSoA` — Opt A, the AoS→SoA output transformation (paper
//! Fig. 4b).
//!
//! Differences from the baseline that this engine embodies:
//!
//! * every output component is its own aligned, unit-stride, padded
//!   stream — stores are contiguous vector stores, never scatters;
//! * the Hessian is stored symmetric: 6 streams instead of 9
//!   (13 → 10 total output streams for VGH);
//! * the z-dimension loop is unrolled and fused (the optimized QMCPACK
//!   CPU algorithm): per (i,j) plane the kernel forms the three z-line
//!   contractions `s0 = Σₖ c·P`, `s1 = Σₖ c′·P`, `s2 = Σₖ c″·P` in a
//!   single pass over the spline dimension, amortizing 4 coefficient
//!   loads over all 10 accumulations;
//! * the inner trip count is the padded stride (a cache-line multiple),
//!   so the explicit-width kernels never hit a scalar remainder.
//!
//! The kernel bodies live in [`crate::simd`]: explicit lane-width
//! micro-kernels (AVX-512F / AVX2+FMA / portable scalar pack, runtime
//! dispatched) that keep all output accumulators in registers across
//! the 4×4 basis unroll and store each stream once per orbital chunk.

use crate::batch::Located;
use crate::engine::check_out;
use crate::layout::{Kernel, Layout};
use crate::output::{SoAStreamsMut, WalkerSoA};
use einspline::multi::MultiCoefs;
use einspline::Real;

/// SoA multi-orbital evaluator (Opt A).
#[derive(Clone, Debug)]
pub struct BsplineSoA<T: Real> {
    coefs: MultiCoefs<T>,
}

impl<T: Real> BsplineSoA<T> {
    /// Create a new instance.
    pub fn new(coefs: MultiCoefs<T>) -> Self {
        Self { coefs }
    }

    #[inline]
    /// The underlying coefficient table.
    pub fn coefs(&self) -> &MultiCoefs<T> {
        &self.coefs
    }

    #[inline]
    /// Number of orbitals N.
    pub fn n_splines(&self) -> usize {
        self.coefs.n_splines()
    }

    /// Padded inner trip count shared with [`WalkerSoA`] buffers.
    #[inline]
    pub fn stride(&self) -> usize {
        self.coefs.stride_n()
    }

    /// The padded trip count the kernels write into `out`, after the
    /// shared size check.
    #[inline]
    fn check_out(&self, out: &WalkerSoA<T>) -> usize {
        check_out(out.stride(), self.stride());
        self.stride()
    }

    /// The engine's one call into [`crate::simd`]: `kernel` over a
    /// pre-located position, writing through a stream view whose length
    /// selects how many of this engine's orbitals are evaluated.
    #[inline]
    fn eval_view(&self, kernel: Kernel, loc: &Located<T>, out: SoAStreamsMut<'_, T>) {
        assert!(
            out.len() <= self.stride(),
            "stream view ({}) wider than the coefficient stride ({})",
            out.len(),
            self.stride()
        );
        crate::simd::eval_soa(kernel, &self.coefs, loc, out);
    }

    /// Kernel body over a pre-located position, writing through a
    /// caller-positioned stream view instead of a whole [`WalkerSoA`] —
    /// the entry point the blocked engine ([`crate::blocked`]) uses to
    /// scatter this engine's orbitals straight into its sub-range of a
    /// shared contiguous output. The view length selects how many of
    /// this engine's orbitals are evaluated (`≤ stride`; ragged lengths
    /// take the micro-kernels' scalar tail).
    pub fn eval_streams(&self, kernel: Kernel, loc: &Located<T>, out: SoAStreamsMut<'_, T>) {
        self.eval_view(kernel, loc, out);
    }

    /// [`Self::eval_view`] into a whole output block, after the shared
    /// size check — the per-position step of this engine's own body. As
    /// a block of [`crate::blocked::BlockedEngine`] (an AoSoA tile) the
    /// engine is entered through [`Self::eval_streams`] instead.
    #[inline]
    fn eval_block(&self, kernel: Kernel, loc: &Located<T>, out: &mut WalkerSoA<T>) {
        let m = self.check_out(out);
        self.eval_view(kernel, loc, out.streams_range_mut(0, m));
    }
}

impl<T: Real> crate::engine::EvalCore for BsplineSoA<T> {
    type Scalar = T;
    type Out = WalkerSoA<T>;

    fn n_splines(&self) -> usize {
        self.coefs.n_splines()
    }

    fn layout(&self) -> Layout {
        Layout::Soa
    }

    fn grid_coefs(&self) -> &MultiCoefs<T> {
        &self.coefs
    }

    fn make_out(&self) -> WalkerSoA<T> {
        WalkerSoA::new(self.n_splines())
    }

    /// Positions back to back over the shared table. A slice of 1 (a
    /// scalar call, a one-move call, a batch of one) runs the same walk
    /// as every position of a longer slice.
    fn eval_located(&self, kernel: Kernel, locs: &[Located<T>], out: &mut [WalkerSoA<T>]) {
        for (loc, block) in locs.iter().zip(out) {
            self.eval_block(kernel, loc, block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aos::BsplineAoS;
    use crate::engine::SpoEngine;
    use crate::output::WalkerAoS;
    use einspline::{Grid1, MultiCoefs, Spline3};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fitted_engine(n_splines: usize) -> (BsplineSoA<f64>, Vec<Spline3<f64>>) {
        let g = Grid1::periodic(0.0, 1.0, 8);
        let mut multi = MultiCoefs::<f64>::new(g, g, g, n_splines);
        let mut refs = Vec::new();
        for s in 0..n_splines {
            let mut data = vec![0.0f64; 8 * 8 * 8];
            for (idx, d) in data.iter_mut().enumerate() {
                *d = ((idx * (2 * s + 5)) as f64 * 0.211).cos();
            }
            let sp = Spline3::<f64>::interpolate(g, g, g, &data);
            multi.set_orbital(s, &sp);
            refs.push(sp);
        }
        (BsplineSoA::new(multi), refs)
    }

    fn random_pair(n: usize, seed: u64) -> (BsplineAoS<f32>, BsplineSoA<f32>) {
        let g = Grid1::periodic(0.0, 1.0, 6);
        let mut multi = MultiCoefs::<f32>::new(g, g, g, n);
        multi.fill_random(&mut StdRng::seed_from_u64(seed));
        (BsplineAoS::new(multi.clone()), BsplineSoA::new(multi))
    }

    #[test]
    fn vgh_matches_scalar_reference() {
        let (engine, refs) = fitted_engine(3);
        let mut out = WalkerSoA::new(3);
        let pos = [0.41f64, 0.83, 0.27];
        engine.vgh(pos, &mut out);
        for (n, r) in refs.iter().enumerate() {
            let e = r.vgh(pos[0], pos[1], pos[2]);
            assert!((out.value(n) - e.v).abs() < 1e-12, "v[{n}]");
            let grad = out.gradient(n);
            let hess = out.hessian(n);
            for d in 0..3 {
                assert!((grad[d] - e.g[d]).abs() < 1e-10, "g[{d}]");
            }
            for r6 in 0..6 {
                assert!((hess[r6] - e.h[r6]).abs() < 1e-9, "h[{r6}]");
            }
        }
    }

    #[test]
    fn agrees_with_aos_engine_on_random_tables() {
        let n = 37; // deliberately not a padding multiple
        let (aos, soa) = random_pair(n, 99);
        let mut out_a = WalkerAoS::new(n);
        let mut out_s = WalkerSoA::new(n);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let pos = [
                rng.random::<f32>(),
                rng.random::<f32>(),
                rng.random::<f32>(),
            ];
            aos.vgh(pos, &mut out_a);
            soa.vgh(pos, &mut out_s);
            for nn in 0..n {
                assert!((out_a.value(nn) - out_s.value(nn)).abs() < 1e-4);
                let (ga, gs) = (out_a.gradient(nn), out_s.gradient(nn));
                for d in 0..3 {
                    assert!((ga[d] - gs[d]).abs() < 2e-3, "g[{d}] n={nn}");
                }
                let (ha, hs) = (out_a.hessian(nn), out_s.hessian(nn));
                for r6 in 0..6 {
                    assert!((ha[r6] - hs[r6]).abs() < 0.15, "h[{r6}] n={nn}");
                }
            }
        }
    }

    #[test]
    fn vgl_agrees_with_aos_engine() {
        let n = 24;
        let (aos, soa) = random_pair(n, 123);
        let mut out_a = WalkerAoS::new(n);
        let mut out_s = WalkerSoA::new(n);
        let pos = [0.13f32, 0.57, 0.91];
        aos.vgl(pos, &mut out_a);
        soa.vgl(pos, &mut out_s);
        for nn in 0..n {
            assert!((out_a.value(nn) - out_s.value(nn)).abs() < 1e-4);
            assert!(
                (out_a.laplacian(nn) - out_s.laplacian(nn)).abs() < 0.2,
                "l n={nn}: {} vs {}",
                out_a.laplacian(nn),
                out_s.laplacian(nn)
            );
        }
    }

    #[test]
    fn v_kernel_matches_vgh_values() {
        let (engine, _) = fitted_engine(4);
        let mut out_v = WalkerSoA::new(4);
        let mut out_h = WalkerSoA::new(4);
        let pos = [0.77f64, 0.31, 0.66];
        engine.v(pos, &mut out_v);
        engine.vgh(pos, &mut out_h);
        for n in 0..4 {
            assert!((out_v.value(n) - out_h.value(n)).abs() < 1e-13);
        }
    }

    #[test]
    fn vgl_laplacian_equals_vgh_trace() {
        let (engine, _) = fitted_engine(4);
        let mut out_l = WalkerSoA::new(4);
        let mut out_h = WalkerSoA::new(4);
        let pos = [0.19f64, 0.44, 0.95];
        engine.vgl(pos, &mut out_l);
        engine.vgh(pos, &mut out_h);
        for n in 0..4 {
            assert!(
                (out_l.laplacian(n) - out_h.hessian_trace(n)).abs() < 1e-10,
                "n={n}"
            );
        }
    }

    #[test]
    fn padded_tail_stays_zeroed_in_coefficients() {
        // Padding lanes accumulate only zeros: outputs beyond n stay 0.
        let g = Grid1::periodic(0.0, 1.0, 6);
        let mut multi = MultiCoefs::<f32>::new(g, g, g, 5);
        multi.fill_random(&mut StdRng::seed_from_u64(1));
        let engine = BsplineSoA::new(multi);
        let mut out = WalkerSoA::new(5);
        engine.vgh([0.3, 0.6, 0.9], &mut out);
        for idx in 5..out.stride() {
            assert_eq!(out.v[idx], 0.0);
            assert_eq!(out.hzz[idx], 0.0);
        }
    }

    #[test]
    fn gradient_matches_finite_difference_of_v() {
        let (engine, _) = fitted_engine(2);
        let mut out = WalkerSoA::new(2);
        let mut vp = WalkerSoA::new(2);
        let mut vm = WalkerSoA::new(2);
        let pos = [0.52f64, 0.33, 0.71];
        let h = 1e-6;
        engine.vgh(pos, &mut out);
        for d in 0..3 {
            let mut pp = pos;
            let mut pm = pos;
            pp[d] += h;
            pm[d] -= h;
            engine.v(pp, &mut vp);
            engine.v(pm, &mut vm);
            for n in 0..2 {
                let fd = (vp.value(n) - vm.value(n)) / (2.0 * h);
                assert!(
                    (out.gradient(n)[d] - fd).abs() < 1e-6,
                    "d={d} n={n}: {} vs {fd}",
                    out.gradient(n)[d]
                );
            }
        }
    }
}
