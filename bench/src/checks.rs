//! Output checks: bit comparison of engine outputs, and an f64
//! reference evaluation independent of every engine.
//!
//! Checks run outside the timed windows. Every compared position is an
//! attempted op; a mismatch is a failed op.

use crate::harness::Tally;
use bspline::precision::{SplineScale, F32_REL_ERROR_BUDGET};
use bspline::{Kernel, WalkerSoA};
use einspline::basis::BasisWeights;
use einspline::MultiCoefs;

/// The streams `kernel` fills, with each stream's derivative order.
pub fn streams(out: &WalkerSoA<f32>, kernel: Kernel) -> Vec<(&[f32], usize)> {
    let first = [
        (out.v.as_slice(), 0),
        (out.gx.as_slice(), 1),
        (out.gy.as_slice(), 1),
        (out.gz.as_slice(), 1),
    ];
    match kernel {
        Kernel::V => first[..1].to_vec(),
        Kernel::Vgl => {
            let mut s = first.to_vec();
            s.push((out.l.as_slice(), 2));
            s
        }
        Kernel::Vgh => {
            let mut s = first.to_vec();
            for h in [&out.hxx, &out.hxy, &out.hxz, &out.hyy, &out.hyz, &out.hzz] {
                s.push((h.as_slice(), 2));
            }
            s
        }
    }
}

/// Whether the first `n` orbitals of every stream `kernel` fills are
/// bit-equal in `got` and `want`. With `corrupt`, one bit of the
/// reference is flipped first: the self-test that this check can fail.
pub fn bits_equal(
    got: &WalkerSoA<f32>,
    want: &WalkerSoA<f32>,
    kernel: Kernel,
    n: usize,
    corrupt: bool,
) -> bool {
    let (g, w) = (streams(got, kernel), streams(want, kernel));
    g.iter().zip(&w).enumerate().all(|(i, ((a, _), (b, _)))| {
        a[..n].iter().zip(&b[..n]).enumerate().all(|(k, (x, y))| {
            let flip = u32::from(corrupt && i == 0 && k == 0);
            x.to_bits() == y.to_bits() ^ flip
        })
    })
}

/// Fold the first `n` orbitals of every filled stream into the
/// fingerprint.
pub fn absorb(tally: &mut Tally, out: &WalkerSoA<f32>, kernel: Kernel, n: usize) {
    for (s, _) in streams(out, kernel) {
        for x in &s[..n] {
            tally.absorb(x.to_bits());
        }
    }
}

/// Evaluate `kernel` at `pos` in f64 from the stored (f32) coefficient
/// lines: a plain 4×4×4 tensor-product sum, written here so that it
/// shares nothing with the engines but the basis polynomials. Streams
/// come back in [`streams`] order.
pub fn f64_reference(coefs: &MultiCoefs<f32>, pos: [f32; 3], kernel: Kernel) -> Vec<Vec<f64>> {
    let n = coefs.n_splines();
    let (gx, gy, gz) = coefs.grids();
    let (i0, tx) = gx.locate(f64::from(pos[0]));
    let (j0, ty) = gy.locate(f64::from(pos[1]));
    let (k0, tz) = gz.locate(f64::from(pos[2]));
    let wa = BasisWeights::new(tx, gx.delta_inv());
    let wb = BasisWeights::new(ty, gy.delta_inv());
    let wc = BasisWeights::new(tz, gz.delta_inv());
    // v gx gy gz hxx hxy hxz hyy hyz hzz
    let mut acc = vec![vec![0.0f64; n]; 10];
    for i in 0..4 {
        for j in 0..4 {
            for k in 0..4 {
                let w = [
                    wa.a[i] * wb.a[j] * wc.a[k],
                    wa.da[i] * wb.a[j] * wc.a[k],
                    wa.a[i] * wb.da[j] * wc.a[k],
                    wa.a[i] * wb.a[j] * wc.da[k],
                    wa.d2a[i] * wb.a[j] * wc.a[k],
                    wa.da[i] * wb.da[j] * wc.a[k],
                    wa.da[i] * wb.a[j] * wc.da[k],
                    wa.a[i] * wb.d2a[j] * wc.a[k],
                    wa.a[i] * wb.da[j] * wc.da[k],
                    wa.a[i] * wb.a[j] * wc.d2a[k],
                ];
                let line = coefs.line(i0 + i, j0 + j, k0 + k);
                for (stream, wt) in acc.iter_mut().zip(w) {
                    for (a, c) in stream.iter_mut().zip(&line[..n]) {
                        *a += wt * f64::from(*c);
                    }
                }
            }
        }
    }
    match kernel {
        Kernel::V => acc.truncate(1),
        Kernel::Vgl => {
            let lap: Vec<f64> = (0..n).map(|m| acc[4][m] + acc[7][m] + acc[9][m]).collect();
            acc.truncate(4);
            acc.push(lap);
        }
        Kernel::Vgh => {}
    }
    acc
}

/// Whether every filled stream of `got` lies within
/// `F32_REL_ERROR_BUDGET × scale` of the f64 reference.
pub fn within_budget(
    got: &WalkerSoA<f32>,
    reference: &[Vec<f64>],
    kernel: Kernel,
    scale: &SplineScale,
    corrupt: bool,
) -> bool {
    let g = streams(got, kernel);
    assert_eq!(g.len(), reference.len());
    g.iter()
        .zip(reference)
        .enumerate()
        .all(|(i, ((s, order), r))| {
            let tol = F32_REL_ERROR_BUDGET * scale.for_order(*order);
            s.iter().zip(r).enumerate().all(|(k, (x, y))| {
                let bump = if corrupt && i == 0 && k == 0 {
                    2.0 * tol
                } else {
                    0.0
                };
                (f64::from(*x) - (y + bump)).abs() <= tol
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bspline::precision::spline_scale;
    use bspline::{BsplineSoA, SpoEngine};
    use miniqmc::synthetic::random_coefficients;

    #[test]
    fn reference_agrees_with_the_engine_and_corruption_is_caught() {
        let table = random_coefficients::<f32>(12, 12, 12, 40, 9);
        let scale = spline_scale(&table);
        let soa = BsplineSoA::new(table);
        let (mut a, mut b) = (soa.make_out(), soa.make_out());
        let pos = [0.31f32, 0.97, 0.02];
        for k in Kernel::ALL {
            soa.eval(k, pos, &mut a);
            soa.eval(k, pos, &mut b);
            assert!(bits_equal(&a, &b, k, 40, false), "{k}");
            assert!(
                !bits_equal(&a, &b, k, 40, true),
                "{k}: corrupted reference passed"
            );
            let r = f64_reference(soa.coefs(), pos, k);
            assert_eq!(r.len(), streams(&a, k).len());
            assert!(within_budget(&a, &r, k, &scale, false), "{k}");
            assert!(
                !within_budget(&a, &r, k, &scale, true),
                "{k}: corrupted reference passed"
            );
        }
        // A real one-ulp difference in a late stream is caught too.
        soa.vgh(pos, &mut a);
        soa.vgh(pos, &mut b);
        b.hzz.as_mut_slice()[39] = f32::from_bits(b.hzz[39].to_bits() ^ 1);
        assert!(!bits_equal(&a, &b, Kernel::Vgh, 40, false));
    }

    #[test]
    fn fingerprint_follows_output_bits() {
        let table = random_coefficients::<f32>(8, 8, 8, 16, 2);
        let soa = BsplineSoA::new(table);
        let mut out = soa.make_out();
        let mut prints = Vec::new();
        for pos in [[0.1f32, 0.2, 0.3], [0.1, 0.2, 0.3], [0.4, 0.2, 0.3]] {
            soa.vgl(pos, &mut out);
            let mut t = Tally::default();
            absorb(&mut t, &out, Kernel::Vgl, 16);
            prints.push(t.fingerprint);
        }
        assert_eq!(prints[0], prints[1]);
        assert_ne!(prints[0], prints[2]);
    }
}
