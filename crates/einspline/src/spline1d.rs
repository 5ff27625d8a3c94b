//! Single 1D cubic B-spline — the building block for Jastrow radial
//! functions and the reference for 3D tensor-product tests.

use crate::basis::{d2_weights, d_weights, weights};
use crate::grid::{Boundary, Grid1};
use crate::real::Real;
use crate::solver1d::{solve_clamped, solve_natural, solve_periodic};

/// A 1D cubic B-spline over a uniform grid.
///
/// Coefficients are stored padded (`num + 3` entries) so evaluation reads
/// a contiguous 4-window; see [`crate::solver1d`] for the convention.
#[derive(Clone, Debug)]
pub struct Spline1<T> {
    grid: Grid1,
    coefs: Vec<T>,
}

impl<T: Real> Spline1<T> {
    /// Interpolate periodic samples: `data[i] = f(start + i·Δ)` with
    /// `data.len() == grid.num()` and `f(end) = f(start)`.
    pub fn interpolate_periodic(grid: Grid1, data: &[f64]) -> Self {
        assert_eq!(grid.boundary(), Boundary::Periodic);
        assert_eq!(data.len(), grid.num(), "periodic data covers one period");
        let coefs = solve_periodic(data).into_iter().map(T::from_f64).collect();
        Self { grid, coefs }
    }

    /// Interpolate bounded samples with natural (zero second derivative)
    /// ends: `data.len() == grid.num() + 1`.
    pub fn interpolate_natural(grid: Grid1, data: &[f64]) -> Self {
        assert_eq!(grid.boundary(), Boundary::Natural);
        assert_eq!(data.len(), grid.num() + 1);
        let coefs = solve_natural(data).into_iter().map(T::from_f64).collect();
        Self { grid, coefs }
    }

    /// Interpolate bounded samples with prescribed end slopes.
    pub fn interpolate_clamped(grid: Grid1, data: &[f64], s0: f64, sn: f64) -> Self {
        assert_eq!(grid.boundary(), Boundary::Natural);
        assert_eq!(data.len(), grid.num() + 1);
        let coefs = solve_clamped(data, s0, sn, grid.delta())
            .into_iter()
            .map(T::from_f64)
            .collect();
        Self { grid, coefs }
    }

    #[inline]
    /// Grid.
    pub fn grid(&self) -> &Grid1 {
        &self.grid
    }

    #[inline]
    /// Coefficients.
    pub fn coefficients(&self) -> &[T] {
        &self.coefs
    }

    /// Spline value at `x`.
    #[inline]
    pub fn value(&self, x: T) -> T {
        let (i, t) = self.grid.locate(x);
        let w = weights(t);
        let c = &self.coefs[i..i + 4];
        w[3].mul_add(c[3], w[2].mul_add(c[2], w[1].mul_add(c[1], w[0] * c[0])))
    }

    /// Value, first and second derivative at `x` (physical units).
    #[inline]
    pub fn vgl(&self, x: T) -> (T, T, T) {
        let (i, t) = self.grid.locate(x);
        let w = weights(t);
        let dw = d_weights(t);
        let d2w = d2_weights(t);
        let c = &self.coefs[i..i + 4];
        let mut v = T::ZERO;
        let mut d = T::ZERO;
        let mut d2 = T::ZERO;
        for k in 0..4 {
            v = w[k].mul_add(c[k], v);
            d = dw[k].mul_add(c[k], d);
            d2 = d2w[k].mul_add(c[k], d2);
        }
        let di = T::from_f64(self.grid.delta_inv());
        (v, d * di, d2 * di * di)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn periodic_sine_is_accurate_between_knots() {
        let n = 64;
        let grid = Grid1::periodic(0.0, 2.0 * PI, n);
        let data: Vec<f64> = (0..n).map(|i| (grid.point(i)).sin()).collect();
        let s = Spline1::<f64>::interpolate_periodic(grid, &data);
        for k in 0..200 {
            let x = 2.0 * PI * k as f64 / 200.0;
            assert!((s.value(x) - x.sin()).abs() < 1e-5, "x={x}");
        }
    }

    #[test]
    fn periodic_derivatives_track_analytic() {
        let n = 128;
        let grid = Grid1::periodic(0.0, 2.0 * PI, n);
        let data: Vec<f64> = (0..n).map(|i| (grid.point(i)).sin()).collect();
        let s = Spline1::<f64>::interpolate_periodic(grid, &data);
        for k in 0..100 {
            let x = 2.0 * PI * (k as f64 + 0.41) / 100.0;
            let (v, d, d2) = s.vgl(x);
            assert!((v - x.sin()).abs() < 1e-6);
            assert!((d - x.cos()).abs() < 1e-4, "x={x} d={d}");
            assert!((d2 + x.sin()).abs() < 1e-2, "x={x} d2={d2}");
        }
    }

    #[test]
    fn periodic_wraps_smoothly() {
        let n = 32;
        let grid = Grid1::periodic(0.0, 1.0, n);
        let data: Vec<f64> = (0..n).map(|i| (2.0 * PI * grid.point(i)).cos()).collect();
        let s = Spline1::<f64>::interpolate_periodic(grid, &data);
        // Value and derivative continuous across the period seam.
        let (vl, dl, _) = s.vgl(1.0 - 1e-9);
        let (vr, dr, _) = s.vgl(0.0);
        assert!((vl - vr).abs() < 1e-6);
        assert!((dl - dr).abs() < 1e-4);
        // And periodic images agree exactly.
        assert!((s.value(0.3) - s.value(1.3)).abs() < 1e-12);
        assert!((s.value(0.3) - s.value(-0.7)).abs() < 1e-12);
    }

    #[test]
    fn natural_quadratic_interpolates() {
        let grid = Grid1::natural(0.0, 4.0, 8);
        let data: Vec<f64> = (0..=8).map(|i| grid.point(i) * 0.5 + 1.0).collect();
        let s = Spline1::<f64>::interpolate_natural(grid, &data);
        // Linear functions have zero second derivative: reproduced exactly.
        for k in 0..50 {
            let x = 4.0 * k as f64 / 50.0;
            assert!((s.value(x) - (0.5 * x + 1.0)).abs() < 1e-10, "x={x}");
            let (_, d, d2) = s.vgl(x);
            assert!((d - 0.5).abs() < 1e-10);
            assert!(d2.abs() < 1e-9);
        }
    }

    #[test]
    fn clamped_cubic_exact() {
        let f = |x: f64| x * x * x - 2.0 * x + 1.0;
        let df = |x: f64| 3.0 * x * x - 2.0;
        let grid = Grid1::natural(0.0, 2.0, 8);
        let data: Vec<f64> = (0..=8).map(|i| f(grid.point(i))).collect();
        let s = Spline1::<f64>::interpolate_clamped(grid, &data, df(0.0), df(2.0));
        for k in 0..=40 {
            let x = 2.0 * k as f64 / 40.0 * 0.999;
            let (v, d, d2) = s.vgl(x);
            assert!((v - f(x)).abs() < 1e-9, "x={x}");
            assert!((d - df(x)).abs() < 1e-8, "x={x}");
            assert!((d2 - 6.0 * x).abs() < 1e-7, "x={x}");
        }
    }

    #[test]
    fn f32_matches_f64_closely() {
        let n = 32;
        let grid = Grid1::periodic(0.0, 1.0, n);
        let data: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * grid.point(i)).sin() * 0.5)
            .collect();
        let s64 = Spline1::<f64>::interpolate_periodic(grid, &data);
        let s32 = Spline1::<f32>::interpolate_periodic(grid, &data);
        for k in 0..30 {
            let x = k as f64 / 30.0;
            assert!((s64.value(x) - s32.value(x as f32) as f64).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic]
    fn wrong_data_length_panics() {
        let grid = Grid1::periodic(0.0, 1.0, 8);
        let _ = Spline1::<f64>::interpolate_periodic(grid, &[0.0; 7]);
    }
}
