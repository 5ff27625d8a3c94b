//! Piecewise cubic B-spline basis functions (paper Fig. 2, Eq. 5).
//!
//! For a point with fractional offset `t ∈ [0,1)` inside grid interval
//! `i`, exactly four basis functions are non-zero. Their weights (and
//! first/second derivative weights) are cubic polynomials in `t` derived
//! from the uniform cubic B-spline blending matrix
//!
//! ```text
//!        ⎡ -1  3 -3  1 ⎤
//!  1/6 · ⎢  3 -6  3  0 ⎥   applied to [t³ t² t 1]
//!        ⎢ -3  0  3  0 ⎥
//!        ⎣  1  4  1  0 ⎦
//! ```
//!
//! Weight `w[0]` multiplies the control point at `i-1`, `w[3]` the one at
//! `i+2`. Derivative weights are in units of the *fractional* coordinate;
//! callers scale by `delta_inv` (and `delta_inv²`) for physical
//! derivatives.

use crate::real::Real;

/// The four value weights `b(t)`.
#[inline(always)]
pub fn weights<T: Real>(t: T) -> [T; 4] {
    let one = T::ONE;
    let t2 = t * t;
    let t3 = t2 * t;
    let mt = one - t;
    let sixth = T::from_f64(1.0 / 6.0);
    [
        sixth * mt * mt * mt,
        // (3t³ - 6t² + 4)/6
        sixth * (T::from_f64(3.0) * t3 - T::from_f64(6.0) * t2 + T::from_f64(4.0)),
        // (-3t³ + 3t² + 3t + 1)/6
        sixth * (T::from_f64(-3.0) * t3 + T::from_f64(3.0) * t2 + T::from_f64(3.0) * t + one),
        sixth * t3,
    ]
}

/// The four first-derivative weights `b'(t)` (per unit fractional
/// coordinate).
#[inline(always)]
pub fn d_weights<T: Real>(t: T) -> [T; 4] {
    let one = T::ONE;
    let t2 = t * t;
    let mt = one - t;
    let half = T::from_f64(0.5);
    [
        -half * mt * mt,
        // (3t² - 4t)/2
        half * (T::from_f64(3.0) * t2 - T::from_f64(4.0) * t),
        // (-3t² + 2t + 1)/2
        half * (T::from_f64(-3.0) * t2 + T::from_f64(2.0) * t + one),
        half * t2,
    ]
}

/// The four second-derivative weights `b''(t)` (per unit fractional
/// coordinate squared).
#[inline(always)]
pub fn d2_weights<T: Real>(t: T) -> [T; 4] {
    let one = T::ONE;
    [
        one - t,
        T::from_f64(3.0) * t - T::from_f64(2.0),
        T::from_f64(-3.0) * t + one,
        t,
    ]
}

/// Value + first + second derivative weights in one call, with the
/// derivative weights already scaled to physical units by `delta_inv`.
///
/// This is the per-dimension prefactor block the VGH/VGL kernels consume:
/// `a` multiplies coefficients for values, `da` for gradients, `d2a` for
/// Hessians/Laplacians.
#[derive(Clone, Copy, Debug)]
pub struct BasisWeights<T> {
    /// A.
    pub a: [T; 4],
    /// Da.
    pub da: [T; 4],
    /// D2a.
    pub d2a: [T; 4],
}

impl<T: Real> BasisWeights<T> {
    #[inline(always)]
    /// Create a new instance.
    pub fn new(t: T, delta_inv: T) -> Self {
        let a = weights(t);
        let mut da = d_weights(t);
        let mut d2a = d2_weights(t);
        let di2 = delta_inv * delta_inv;
        for k in 0..4 {
            da[k] *= delta_inv;
            d2a[k] *= di2;
        }
        Self { a, da, d2a }
    }
}

/// Evaluate the single basis function `b_{i,3}` centred so that its
/// support is `[i-2, i+2]` in fractional units — used for plotting the
/// Fig. 2 curves and for reference-spline tests.
pub fn basis_function(x: f64) -> f64 {
    let ax = x.abs();
    if ax >= 2.0 {
        0.0
    } else if ax >= 1.0 {
        let u = 2.0 - ax;
        u * u * u / 6.0
    } else {
        // 2/3 - x² + |x|³/2
        2.0 / 3.0 - ax * ax + ax * ax * ax / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn partition_of_unity() {
        for i in 0..100 {
            let t = i as f64 / 100.0;
            let w = weights(t);
            let s: f64 = w.iter().sum();
            assert!((s - 1.0).abs() < EPS, "t={t} sum={s}");
        }
    }

    #[test]
    fn derivative_weights_sum_to_zero() {
        for i in 0..100 {
            let t = i as f64 / 100.0;
            let d: f64 = d_weights(t).iter().sum();
            let d2: f64 = d2_weights(t).iter().sum();
            assert!(d.abs() < EPS, "t={t} d-sum={d}");
            assert!(d2.abs() < EPS, "t={t} d2-sum={d2}");
        }
    }

    #[test]
    fn knot_values_are_one_sixth_four_sixth() {
        let w = weights(0.0f64);
        assert!((w[0] - 1.0 / 6.0).abs() < EPS);
        assert!((w[1] - 4.0 / 6.0).abs() < EPS);
        assert!((w[2] - 1.0 / 6.0).abs() < EPS);
        assert!(w[3].abs() < EPS);
    }

    #[test]
    fn first_derivative_matches_finite_difference() {
        let h = 1e-6;
        for i in 1..100 {
            let t = i as f64 / 101.0;
            let wp = weights(t + h);
            let wm = weights(t - h);
            let d = d_weights(t);
            for k in 0..4 {
                let fd = (wp[k] - wm[k]) / (2.0 * h);
                assert!((fd - d[k]).abs() < 1e-8, "t={t} k={k} fd={fd} d={}", d[k]);
            }
        }
    }

    #[test]
    fn second_derivative_matches_finite_difference() {
        let h = 1e-5;
        for i in 1..100 {
            let t = i as f64 / 101.0;
            let wp = weights(t + h);
            let w0 = weights(t);
            let wm = weights(t - h);
            let d2 = d2_weights(t);
            for k in 0..4 {
                let fd = (wp[k] - 2.0 * w0[k] + wm[k]) / (h * h);
                assert!(
                    (fd - d2[k]).abs() < 1e-4,
                    "t={t} k={k} fd={fd} d2={}",
                    d2[k]
                );
            }
        }
    }

    #[test]
    fn continuity_across_knot() {
        // Weights at t→1 of interval i must match weights at t=0 of
        // interval i+1 shifted by one slot (C² continuity of the basis).
        let w1 = weights(1.0f64);
        let w0 = weights(0.0f64);
        for k in 0..3 {
            assert!((w1[k + 1] - w0[k]).abs() < EPS);
        }
        assert!(w1[0].abs() < EPS);
    }

    #[test]
    fn scaled_weights_apply_delta_inv() {
        let di = 2.0f64;
        let bw = BasisWeights::new(0.3, di);
        let d = d_weights(0.3f64);
        let d2 = d2_weights(0.3f64);
        for k in 0..4 {
            assert!((bw.da[k] - d[k] * di).abs() < EPS);
            assert!((bw.d2a[k] - d2[k] * di * di).abs() < EPS);
        }
    }

    #[test]
    fn basis_function_card_matches_weights() {
        // b(t - j + 1) for j=0..4 at offset t reproduces weights(t):
        // weight w[j] multiplies control point i-1+j whose basis peak sits
        // at distance |t - (j-1)| from x.
        for i in 0..50 {
            let t = i as f64 / 50.0;
            let w = weights(t);
            for (j, wj) in w.iter().enumerate() {
                let dist = t - (j as f64 - 1.0);
                assert!((basis_function(dist) - wj).abs() < EPS, "t={t} j={j}");
            }
        }
    }

    #[test]
    fn basis_function_compact_support() {
        assert_eq!(basis_function(2.0), 0.0);
        assert_eq!(basis_function(-2.5), 0.0);
        assert!(basis_function(0.0) > 0.6);
    }

    #[test]
    fn f32_weights_close_to_f64() {
        for i in 0..20 {
            let t = i as f64 / 20.0;
            let w64 = weights(t);
            let w32 = weights(t as f32);
            for k in 0..4 {
                assert!((w64[k] - w32[k] as f64).abs() < 1e-6);
            }
        }
    }
}
