//! Minimal floating-point abstraction shared by every numeric kernel.
//!
//! The paper's kernels run in single precision (`f32`); the coefficient
//! solvers and validation paths want double precision. Rather than pull in
//! a numerics crate, we define the tiny surface the workspace actually
//! uses. All methods are `#[inline]` one-liners so the abstraction is free
//! after monomorphization.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Scalar type used by spline tables and kernels.
///
/// Implemented for `f32` and `f64`. The bound set mirrors what the hot
/// loops need: arithmetic, `mul_add` (maps to FMA), and cheap conversions
/// for setup code that is always done in `f64`. Consumers that store in
/// `T` but reduce in double precision (miniqmc's SPO set and
/// wavefunction) widen each value with [`Real::to_f64`].
pub trait Real:
    Copy
    + Send
    + Sync
    + Default
    + PartialOrd
    + PartialEq
    + Debug
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + 'static
{
    /// ZERO.
    const ZERO: Self;
    /// ONE.
    const ONE: Self;

    /// Lossy conversion from `f64` (setup paths only).
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64`, lossless for both implementations.
    fn to_f64(self) -> f64;
    /// Fused multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Floor.
    fn floor(self) -> Self;
    /// Abs.
    fn abs(self) -> Self;
    /// Sqrt.
    fn sqrt(self) -> Self;
    /// Min.
    fn min(self, other: Self) -> Self;
    /// Max.
    fn max(self, other: Self) -> Self;
}

macro_rules! impl_real {
    ($t:ty) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn floor(self) -> Self {
                <$t>::floor(self)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
        }
    };
}

impl_real!(f32);
impl_real!(f64);

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_generic<T: Real>(xs: &[T]) -> T {
        xs.iter().copied().sum()
    }

    #[test]
    fn constants_match() {
        assert_eq!(f32::ZERO, 0.0f32);
        assert_eq!(f64::ONE, 1.0f64);
    }

    #[test]
    fn conversions_round_trip() {
        let x = 0.37_f64;
        assert_eq!(f64::from_f64(x), x);
        assert!((f32::from_f64(x).to_f64() - x).abs() < 1e-7);
    }

    #[test]
    fn mul_add_is_fma() {
        // mul_add must match a fused result, not the rounded two-step one.
        let a = 1.0f32 + f32::EPSILON;
        let fused = a.mul_add(a, -1.0);
        assert!(fused != 0.0, "fused multiply-add should keep the low bits");
    }

    #[test]
    fn generic_sum_works_for_both_widths() {
        assert_eq!(sum_generic(&[1.0f32, 2.0, 3.0]), 6.0);
        assert_eq!(sum_generic(&[1.0f64, 2.0, 3.0]), 6.0);
    }

    /// The mixed-precision shape: widen each stored value with
    /// `to_f64` and reduce in `f64`.
    fn sum_widened<T: Real>(xs: &[T]) -> f64 {
        xs.iter().map(|x| x.to_f64()).sum()
    }

    #[test]
    fn accum_widens_f32_sums() {
        // 1 + 2^-30 collapses in f32 but survives an f64 accumulation.
        let tiny = 2f32.powi(-30);
        let xs = [1.0f32, tiny, tiny];
        assert_eq!(xs.iter().copied().sum::<f32>(), 1.0);
        let wide = sum_widened(&xs);
        assert_eq!(wide, 1.0 + 2.0 * f64::from(tiny));
        assert_eq!(f32::from_f64(wide), 1.0); // narrows back with one rounding
    }

    #[test]
    fn floor_and_abs() {
        assert_eq!((-1.5f32).floor(), -2.0);
        assert_eq!(Real::abs(-2.5f64), 2.5);
        assert_eq!(Real::min(1.0f32, 2.0), 1.0);
        assert_eq!(Real::max(1.0f64, 2.0), 2.0);
    }
}
