//! `BsplineAoS` — the baseline engine (paper Fig. 4a).
//!
//! Faithful port of the optimized-CPU-algorithm baseline in the QMCPACK
//! distribution: the inner loop runs over all N splines per coefficient
//! point, but gradients and Hessians are written to *interleaved* AoS
//! arrays (`g[3n+d]`, `h[9n+r]`). The strided stores are exactly the
//! gather/scatter pattern the paper's Opt A removes. The VGL kernel also
//! keeps the baseline's known deficiencies that Opt A fixes alongside the
//! layout change: no z-unrolling and a temporary workspace allocated per
//! call.

use crate::batch::Located;
use crate::engine::check_out;
use crate::layout::{Kernel, Layout};
use crate::output::WalkerAoS;
use einspline::multi::MultiCoefs;
use einspline::Real;

/// Baseline multi-orbital evaluator with AoS outputs.
#[derive(Clone, Debug)]
pub struct BsplineAoS<T: Real> {
    coefs: MultiCoefs<T>,
}

impl<T: Real> BsplineAoS<T> {
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
}

/// The baseline's V/VGL/VGH over pre-located positions, writing block
/// `i` of `out` from `locs[i]`. [`crate::simd::eval_aos`] instantiates
/// this one body per backend, so its plain `mul_add` loops run at the
/// backend's instruction set: fused vector FMAs under AVX2/AVX-512,
/// one libm `fmaf`/`fma` call per element at baseline x86-64 (the
/// scalar backend). Per element the chain is the same on every backend.
#[inline(always)]
pub(crate) fn eval_aos<T: Real>(
    kernel: Kernel,
    coefs: &MultiCoefs<T>,
    locs: &[Located<T>],
    out: &mut [WalkerAoS<T>],
) {
    let n = coefs.n_splines();
    // Baseline wart kept on purpose: the VGL workspace is allocated
    // by every call (once, for all of the call's positions).
    let mut tmp = match kernel {
        Kernel::Vgl => vec![T::ZERO; n],
        Kernel::V | Kernel::Vgh => Vec::new(),
    };
    for (loc, block) in locs.iter().zip(out) {
        check_out(block.n_splines(), n);
        match kernel {
            Kernel::V => v_located(coefs, loc, block),
            Kernel::Vgl => vgl_located(coefs, loc, &mut tmp, block),
            Kernel::Vgh => vgh_located(coefs, loc, block),
        }
    }
}

/// Values only.
#[inline(always)]
fn v_located<T: Real>(coefs: &MultiCoefs<T>, loc: &Located<T>, out: &mut WalkerAoS<T>) {
    let (a, b, c) = (&loc.wa.a, &loc.wb.a, &loc.wc.a);
    out.zero_v();
    let n = coefs.n_splines();
    let v = &mut out.v.as_mut_slice()[..n];
    for i in 0..4 {
        for j in 0..4 {
            for k in 0..4 {
                let pre = a[i] * b[j] * c[k];
                let line = &coefs.line(loc.i0 + i, loc.j0 + j, loc.k0 + k)[..n];
                for (vn, &pn) in v.iter_mut().zip(line) {
                    *vn = pre.mul_add(pn, *vn);
                }
            }
        }
    }
}

/// Value + gradient + Laplacian with AoS outputs.
///
/// Mirrors the pre-optimization QMCPACK VGL: a 5-stream accumulation
/// where the gradient store is 3-strided, plus a temporary `tmp`
/// (the baseline allocated its workspace inside the loop; the paper
/// lists hoisting it as one of the VGL-only fixes).
#[inline(always)]
fn vgl_located<T: Real>(
    coefs: &MultiCoefs<T>,
    loc: &Located<T>,
    tmp: &mut [T],
    out: &mut WalkerAoS<T>,
) {
    let (wa, wb, wc) = (&loc.wa, &loc.wb, &loc.wc);
    out.zero_vgl();
    let n = coefs.n_splines();

    let v = &mut out.v.as_mut_slice()[..n];
    let g = &mut out.g.as_mut_slice()[..3 * n];
    let l = &mut out.l.as_mut_slice()[..n];
    let tmp = &mut tmp[..n];
    for i in 0..4 {
        for j in 0..4 {
            for k in 0..4 {
                let pv = wa.a[i] * wb.a[j] * wc.a[k];
                let pgx = wa.da[i] * wb.a[j] * wc.a[k];
                let pgy = wa.a[i] * wb.da[j] * wc.a[k];
                let pgz = wa.a[i] * wb.a[j] * wc.da[k];
                let pl = wa.d2a[i] * wb.a[j] * wc.a[k]
                    + wa.a[i] * wb.d2a[j] * wc.a[k]
                    + wa.a[i] * wb.a[j] * wc.d2a[k];
                tmp.copy_from_slice(&coefs.line(loc.i0 + i, loc.j0 + j, loc.k0 + k)[..n]);
                // The value and Laplacian streams are unit-stride; the
                // 3-strided gradient stores are exactly the AoS
                // deficiency Opt A removes, not something to paper over.
                for ((vn, ln), &pn) in v.iter_mut().zip(l.iter_mut()).zip(&*tmp) {
                    *vn = pv.mul_add(pn, *vn);
                    *ln = pl.mul_add(pn, *ln);
                }
                for (gn, &pn) in g.chunks_exact_mut(3).zip(&*tmp) {
                    gn[0] = pgx.mul_add(pn, gn[0]);
                    gn[1] = pgy.mul_add(pn, gn[1]);
                    gn[2] = pgz.mul_add(pn, gn[2]);
                }
            }
        }
    }
}

/// Value + gradient + Hessian with AoS outputs: 13 accumulation
/// streams per coefficient point, 3- and 9-strided stores (Fig. 4a).
#[inline(always)]
fn vgh_located<T: Real>(coefs: &MultiCoefs<T>, loc: &Located<T>, out: &mut WalkerAoS<T>) {
    let (wa, wb, wc) = (&loc.wa, &loc.wb, &loc.wc);
    out.zero_vgh();
    let n = coefs.n_splines();

    let v = &mut out.v.as_mut_slice()[..n];
    let g = &mut out.g.as_mut_slice()[..3 * n];
    let h = &mut out.h.as_mut_slice()[..9 * n];
    for i in 0..4 {
        for j in 0..4 {
            for k in 0..4 {
                let pv = wa.a[i] * wb.a[j] * wc.a[k];
                let pgx = wa.da[i] * wb.a[j] * wc.a[k];
                let pgy = wa.a[i] * wb.da[j] * wc.a[k];
                let pgz = wa.a[i] * wb.a[j] * wc.da[k];
                let hxx = wa.d2a[i] * wb.a[j] * wc.a[k];
                let hxy = wa.da[i] * wb.da[j] * wc.a[k];
                let hxz = wa.da[i] * wb.a[j] * wc.da[k];
                let hyy = wa.a[i] * wb.d2a[j] * wc.a[k];
                let hyz = wa.a[i] * wb.da[j] * wc.da[k];
                let hzz = wa.a[i] * wb.a[j] * wc.d2a[k];
                let line = &coefs.line(loc.i0 + i, loc.j0 + j, loc.k0 + k)[..n];
                for (nn, &pn) in line.iter().enumerate() {
                    v[nn] = pv.mul_add(pn, v[nn]);
                    let gn = &mut g[3 * nn..3 * nn + 3];
                    gn[0] = pgx.mul_add(pn, gn[0]);
                    gn[1] = pgy.mul_add(pn, gn[1]);
                    gn[2] = pgz.mul_add(pn, gn[2]);
                    let hn = &mut h[9 * nn..9 * nn + 9];
                    hn[0] = hxx.mul_add(pn, hn[0]);
                    hn[1] = hxy.mul_add(pn, hn[1]);
                    hn[2] = hxz.mul_add(pn, hn[2]);
                    hn[3] = hxy.mul_add(pn, hn[3]);
                    hn[4] = hyy.mul_add(pn, hn[4]);
                    hn[5] = hyz.mul_add(pn, hn[5]);
                    hn[6] = hxz.mul_add(pn, hn[6]);
                    hn[7] = hyz.mul_add(pn, hn[7]);
                    hn[8] = hzz.mul_add(pn, hn[8]);
                }
            }
        }
    }
}

impl<T: Real> crate::engine::EvalCore for BsplineAoS<T> {
    type Scalar = T;
    type Out = WalkerAoS<T>;

    fn n_splines(&self) -> usize {
        self.coefs.n_splines()
    }

    fn layout(&self) -> Layout {
        Layout::Aos
    }

    fn grid_coefs(&self) -> &MultiCoefs<T> {
        &self.coefs
    }

    fn make_out(&self) -> WalkerAoS<T> {
        WalkerAoS::new(self.n_splines())
    }

    fn eval_located(&self, kernel: Kernel, locs: &[Located<T>], out: &mut [WalkerAoS<T>]) {
        crate::simd::eval_aos(kernel, &self.coefs, locs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SpoEngine;
    use einspline::{Grid1, MultiCoefs, Spline3};

    fn test_engine(n_splines: usize) -> (BsplineAoS<f64>, Vec<Spline3<f64>>) {
        let g = Grid1::periodic(0.0, 1.0, 8);
        let mut multi = MultiCoefs::<f64>::new(g, g, g, n_splines);
        let mut refs = Vec::new();
        for s in 0..n_splines {
            let mut data = vec![0.0f64; 8 * 8 * 8];
            for (idx, d) in data.iter_mut().enumerate() {
                *d = ((idx * (s + 3)) as f64 * 0.173).sin();
            }
            let sp = Spline3::<f64>::interpolate(g, g, g, &data);
            multi.set_orbital(s, &sp);
            refs.push(sp);
        }
        (BsplineAoS::new(multi), refs)
    }

    #[test]
    fn v_matches_scalar_reference() {
        let (engine, refs) = test_engine(5);
        let mut out = WalkerAoS::new(5);
        let pos = [0.312f64, 0.741, 0.155];
        engine.v(pos, &mut out);
        for (n, r) in refs.iter().enumerate() {
            let expect = r.value(pos[0], pos[1], pos[2]);
            assert!(
                (out.value(n) - expect).abs() < 1e-12,
                "orbital {n}: {} vs {expect}",
                out.value(n)
            );
        }
    }

    #[test]
    fn vgh_matches_scalar_reference() {
        let (engine, refs) = test_engine(3);
        let mut out = WalkerAoS::new(3);
        let pos = [0.62f64, 0.09, 0.48];
        engine.vgh(pos, &mut out);
        for (n, r) in refs.iter().enumerate() {
            let e = r.vgh(pos[0], pos[1], pos[2]);
            assert!((out.value(n) - e.v).abs() < 1e-12);
            let grad = out.gradient(n);
            for d in 0..3 {
                assert!((grad[d] - e.g[d]).abs() < 1e-10, "g[{d}]");
            }
            let hess = out.hessian(n);
            for r6 in 0..6 {
                assert!((hess[r6] - e.h[r6]).abs() < 1e-9, "h[{r6}]");
            }
        }
    }

    #[test]
    fn vgl_laplacian_equals_vgh_trace() {
        let (engine, _) = test_engine(4);
        let mut out_l = WalkerAoS::new(4);
        let mut out_h = WalkerAoS::new(4);
        let pos = [0.23f64, 0.87, 0.52];
        engine.vgl(pos, &mut out_l);
        engine.vgh(pos, &mut out_h);
        for n in 0..4 {
            assert!((out_l.value(n) - out_h.value(n)).abs() < 1e-13);
            let (gl, gh) = (out_l.gradient(n), out_h.gradient(n));
            for d in 0..3 {
                assert!((gl[d] - gh[d]).abs() < 1e-12);
            }
            assert!(
                (out_l.laplacian(n) - out_h.hessian_trace(n)).abs() < 1e-10,
                "n={n}"
            );
        }
    }

    #[test]
    fn hessian_storage_is_symmetric() {
        let (engine, _) = test_engine(2);
        let mut out = WalkerAoS::new(2);
        engine.vgh([0.5, 0.5, 0.5], &mut out);
        for n in 0..2 {
            let h = &out.h.as_slice()[9 * n..9 * n + 9];
            assert_eq!(h[1], h[3]);
            assert_eq!(h[2], h[6]);
            assert_eq!(h[5], h[7]);
        }
    }

    /// Every AoS call runs at exactly the backend `with_backend` forces,
    /// for each kernel and both table types, batch and single position:
    /// the whole body is one dispatched entry, so no part of it is left
    /// at the build's baseline instruction set.
    #[test]
    fn evaluates_under_exactly_the_forced_backend() {
        use crate::simd::{backend_log, with_backend, Backend};
        use crate::PosBlock;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::collections::BTreeSet;

        let (wide, _) = test_engine(5);
        let g = Grid1::periodic(0.0, 1.0, 8);
        let mut table = MultiCoefs::<f32>::new(g, g, g, 5);
        table.fill_random(&mut StdRng::seed_from_u64(3));
        let narrow = BsplineAoS::new(table);
        let pos = PosBlock::random(&mut StdRng::seed_from_u64(4), 3, narrow.domain());
        for b in Backend::available() {
            for kernel in Kernel::ALL {
                backend_log::take(wide.coefs());
                backend_log::take(narrow.coefs());
                let mut out = wide.make_batch_out(pos.len());
                with_backend(b, || {
                    wide.eval(kernel, [0.3, 0.6, 0.9], &mut wide.make_out());
                    narrow.eval_batch(kernel, &pos, &mut narrow.make_batch_out(pos.len()));
                    wide.eval_batch(kernel, &pos.cast(), &mut out);
                });
                let only = BTreeSet::from([b]);
                assert_eq!(backend_log::take(wide.coefs()), only, "f64 {kernel} {b}");
                assert_eq!(backend_log::take(narrow.coefs()), only, "f32 {kernel} {b}");
            }
        }
    }

    #[test]
    fn repeated_eval_overwrites() {
        let (engine, _) = test_engine(2);
        let mut out = WalkerAoS::new(2);
        engine.vgh([0.1, 0.2, 0.3], &mut out);
        let first = out.value(0);
        engine.vgh([0.9, 0.8, 0.7], &mut out);
        engine.vgh([0.1, 0.2, 0.3], &mut out);
        assert_eq!(out.value(0), first);
    }
}
