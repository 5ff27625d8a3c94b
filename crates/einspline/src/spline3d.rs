//! Scalar (single-orbital) 3D tricubic B-spline — the tensor-product
//! reference implementation (paper Eq. 6).
//!
//! The multi-orbital engines in the `bspline` crate are verified against
//! this type: evaluating N independent `Spline3`s must agree with one
//! fused multi-spline sweep.

use crate::basis::BasisWeights;
use crate::grid::{Boundary, Grid1};
use crate::real::Real;
use crate::solver1d::{solve_natural, PeriodicFactor, COEF_PAD};

/// Value + gradient + symmetric Hessian of a scalar field at a point.
///
/// Hessian components are ordered `xx, xy, xz, yy, yz, zz` (the 6-stream
/// SoA order used throughout the workspace).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vgh<T> {
    /// Orbital value stream.
    pub v: T,
    /// Gradient storage.
    pub g: [T; 3],
    /// Hessian storage.
    pub h: [T; 6],
}

impl<T: Real> Vgh<T> {
    /// Trace of the Hessian = Laplacian (orthorhombic grid coordinates).
    #[inline]
    pub fn laplacian(&self) -> T {
        self.h[0] + self.h[3] + self.h[5]
    }
}

/// A single tricubic B-spline on a uniform 3D grid.
#[derive(Clone, Debug)]
pub struct Spline3<T> {
    gx: Grid1,
    gy: Grid1,
    gz: Grid1,
    /// Padded coefficients, shape `[nx+3][ny+3][nz+3]`, z fastest.
    coefs: Vec<T>,
    sy: usize, // stride between y-neighbours = nz+3
    sx: usize, // stride between x-neighbours = (ny+3)(nz+3)
}

/// One pass of the tensor-product solve: `src` is `outer` blocks of
/// `d` lines along the axis of `g` by `inner` lanes (the samples, or the
/// previous pass); returns `outer` blocks of `g.num() + 3` padded
/// coefficients by `inner` lanes. A periodic axis solves each block's
/// lanes side by side, in place ([`PeriodicFactor::solve_lanes`]); a
/// natural one line by line.
fn solve_axis(g: &Grid1, src: &[f64], outer: usize, inner: usize) -> Vec<f64> {
    let p = g.num() + COEF_PAD;
    let d = src.len() / (outer * inner);
    let mut dst = vec![0.0f64; outer * p * inner];
    let blocks = src
        .chunks_exact(d * inner)
        .zip(dst.chunks_exact_mut(p * inner));
    match g.boundary() {
        Boundary::Periodic => {
            let factor = PeriodicFactor::new(d);
            for (s, t) in blocks {
                t[inner..][..d * inner].copy_from_slice(s);
                factor.solve_lanes(t, inner, inner);
            }
        }
        Boundary::Natural => {
            let mut line = vec![0.0f64; d];
            for (s, t) in blocks {
                for lane in 0..inner {
                    for (i, l) in line.iter_mut().enumerate() {
                        *l = s[i * inner + lane];
                    }
                    for (i, c) in solve_natural(&line).into_iter().enumerate() {
                        t[i * inner + lane] = c;
                    }
                }
            }
        }
    }
    dst
}

impl<T: Real> Spline3<T> {
    /// Interpolate samples on the grid. `data` has shape
    /// `[nx][ny][nz]` (z fastest) for periodic grids, or
    /// `[nx+1][ny+1][nz+1]` for natural grids.
    pub fn interpolate(gx: Grid1, gy: Grid1, gz: Grid1, data: &[f64]) -> Self {
        let dim = |g: &Grid1| match g.boundary() {
            Boundary::Periodic => g.num(),
            Boundary::Natural => g.num() + 1,
        };
        let (dx, dy, dz) = (dim(&gx), dim(&gy), dim(&gz));
        assert_eq!(data.len(), dx * dy * dz, "sample array shape mismatch");

        // Solve along x, then y, then z; each pass pads its axis to
        // `num + 3` points.
        let (px, py, pz) = (
            gx.num() + COEF_PAD,
            gy.num() + COEF_PAD,
            gz.num() + COEF_PAD,
        );
        let a = solve_axis(&gx, data, 1, dy * dz);
        let b = solve_axis(&gy, &a, px, dz);
        drop(a);
        let coefs = solve_axis(&gz, &b, px * py, 1);
        let coefs = coefs.into_iter().map(T::from_f64).collect();

        Self {
            gx,
            gy,
            gz,
            coefs,
            sy: pz,
            sx: py * pz,
        }
    }

    #[inline]
    /// Grids.
    pub fn grids(&self) -> (&Grid1, &Grid1, &Grid1) {
        (&self.gx, &self.gy, &self.gz)
    }

    /// Padded coefficient dimensions `(nx+3, ny+3, nz+3)`.
    #[inline]
    pub fn padded_dims(&self) -> (usize, usize, usize) {
        (
            self.gx.num() + COEF_PAD,
            self.gy.num() + COEF_PAD,
            self.gz.num() + COEF_PAD,
        )
    }

    /// Padded coefficient at `(ix, iy, iz)` — used to scatter a solved
    /// scalar spline into a multi-orbital table.
    #[inline]
    pub fn coef(&self, ix: usize, iy: usize, iz: usize) -> T {
        self.coefs[ix * self.sx + iy * self.sy + iz]
    }

    /// Value at `(x, y, z)`.
    pub fn value(&self, x: T, y: T, z: T) -> T {
        let (i0, tx) = self.gx.locate(x);
        let (j0, ty) = self.gy.locate(y);
        let (k0, tz) = self.gz.locate(z);
        let a = crate::basis::weights(tx);
        let b = crate::basis::weights(ty);
        let c = crate::basis::weights(tz);

        let mut v = T::ZERO;
        for i in 0..4 {
            for j in 0..4 {
                let base = (i0 + i) * self.sx + (j0 + j) * self.sy + k0;
                let ab = a[i] * b[j];
                let line = &self.coefs[base..base + 4];
                let mut s = T::ZERO;
                for k in 0..4 {
                    s = c[k].mul_add(line[k], s);
                }
                v = ab.mul_add(s, v);
            }
        }
        v
    }

    /// Value, gradient, Hessian at `(x, y, z)` — grid (orthorhombic)
    /// coordinates; derivative scaling by `delta_inv` included.
    pub fn vgh(&self, x: T, y: T, z: T) -> Vgh<T> {
        let (i0, tx) = self.gx.locate(x);
        let (j0, ty) = self.gy.locate(y);
        let (k0, tz) = self.gz.locate(z);
        let wa = BasisWeights::new(tx, T::from_f64(self.gx.delta_inv()));
        let wb = BasisWeights::new(ty, T::from_f64(self.gy.delta_inv()));
        let wc = BasisWeights::new(tz, T::from_f64(self.gz.delta_inv()));

        let mut out = Vgh::<T>::default();
        for i in 0..4 {
            for j in 0..4 {
                let base = (i0 + i) * self.sx + (j0 + j) * self.sy + k0;
                let line = &self.coefs[base..base + 4];
                let (mut s0, mut s1, mut s2) = (T::ZERO, T::ZERO, T::ZERO);
                for k in 0..4 {
                    s0 = wc.a[k].mul_add(line[k], s0);
                    s1 = wc.da[k].mul_add(line[k], s1);
                    s2 = wc.d2a[k].mul_add(line[k], s2);
                }
                out.v = (wa.a[i] * wb.a[j]).mul_add(s0, out.v);
                out.g[0] = (wa.da[i] * wb.a[j]).mul_add(s0, out.g[0]);
                out.g[1] = (wa.a[i] * wb.da[j]).mul_add(s0, out.g[1]);
                out.g[2] = (wa.a[i] * wb.a[j]).mul_add(s1, out.g[2]);
                out.h[0] = (wa.d2a[i] * wb.a[j]).mul_add(s0, out.h[0]);
                out.h[1] = (wa.da[i] * wb.da[j]).mul_add(s0, out.h[1]);
                out.h[2] = (wa.da[i] * wb.a[j]).mul_add(s1, out.h[2]);
                out.h[3] = (wa.a[i] * wb.d2a[j]).mul_add(s0, out.h[3]);
                out.h[4] = (wa.a[i] * wb.da[j]).mul_add(s1, out.h[4]);
                out.h[5] = (wa.a[i] * wb.a[j]).mul_add(s2, out.h[5]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn periodic_grids(n: usize) -> (Grid1, Grid1, Grid1) {
        (
            Grid1::periodic(0.0, 1.0, n),
            Grid1::periodic(0.0, 1.0, n),
            Grid1::periodic(0.0, 1.0, n),
        )
    }

    /// Smooth periodic test field with analytic derivatives.
    fn field(x: f64, y: f64, z: f64) -> f64 {
        (2.0 * PI * x).sin() * (2.0 * PI * y).cos() + 0.5 * (2.0 * PI * z).sin()
    }

    fn sample_field(n: usize) -> Vec<f64> {
        let mut data = vec![0.0; n * n * n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let (x, y, z) = (
                        i as f64 / n as f64,
                        j as f64 / n as f64,
                        k as f64 / n as f64,
                    );
                    data[(i * n + j) * n + k] = field(x, y, z);
                }
            }
        }
        data
    }

    #[test]
    fn interpolates_at_grid_points() {
        let n = 12;
        let (gx, gy, gz) = periodic_grids(n);
        let data = sample_field(n);
        let s = Spline3::<f64>::interpolate(gx, gy, gz, &data);
        for i in (0..n).step_by(3) {
            for j in (0..n).step_by(3) {
                for k in (0..n).step_by(3) {
                    let v = s.value(
                        i as f64 / n as f64,
                        j as f64 / n as f64,
                        k as f64 / n as f64,
                    );
                    let f = data[(i * n + j) * n + k];
                    assert!((v - f).abs() < 1e-10, "({i},{j},{k}) v={v} f={f}");
                }
            }
        }
    }

    #[test]
    fn value_accurate_between_knots() {
        let n = 24;
        let (gx, gy, gz) = periodic_grids(n);
        let s = Spline3::<f64>::interpolate(gx, gy, gz, &sample_field(n));
        for p in 0..40 {
            let x = 0.013 + 0.024 * p as f64;
            let y = 0.71 - 0.013 * p as f64;
            let z = 0.29 + 0.017 * p as f64;
            let v = s.value(x, y, z);
            assert!((v - field(x, y, z)).abs() < 2e-4, "p={p} v={v}");
        }
    }

    #[test]
    fn vgh_value_matches_value() {
        let n = 16;
        let (gx, gy, gz) = periodic_grids(n);
        let s = Spline3::<f64>::interpolate(gx, gy, gz, &sample_field(n));
        for p in 0..20 {
            let (x, y, z) = (0.05 * p as f64, 0.33, 0.77);
            let out = s.vgh(x, y, z);
            assert!((out.v - s.value(x, y, z)).abs() < 1e-14);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let n = 20;
        let (gx, gy, gz) = periodic_grids(n);
        let s = Spline3::<f64>::interpolate(gx, gy, gz, &sample_field(n));
        let h = 1e-6;
        let pts = [(0.21, 0.43, 0.68), (0.91, 0.11, 0.37), (0.5, 0.5, 0.49)];
        for &(x, y, z) in &pts {
            let out = s.vgh(x, y, z);
            let gx_fd = (s.value(x + h, y, z) - s.value(x - h, y, z)) / (2.0 * h);
            let gy_fd = (s.value(x, y + h, z) - s.value(x, y - h, z)) / (2.0 * h);
            let gz_fd = (s.value(x, y, z + h) - s.value(x, y, z - h)) / (2.0 * h);
            assert!((out.g[0] - gx_fd).abs() < 1e-6, "gx {} {}", out.g[0], gx_fd);
            assert!((out.g[1] - gy_fd).abs() < 1e-6);
            assert!((out.g[2] - gz_fd).abs() < 1e-6);
        }
    }

    #[test]
    fn hessian_matches_finite_difference() {
        let n = 20;
        let (gx, gy, gz) = periodic_grids(n);
        let s = Spline3::<f64>::interpolate(gx, gy, gz, &sample_field(n));
        let h = 1e-4;
        let (x, y, z) = (0.37, 0.58, 0.21);
        let out = s.vgh(x, y, z);
        let v0 = s.value(x, y, z);
        let hxx = (s.value(x + h, y, z) - 2.0 * v0 + s.value(x - h, y, z)) / (h * h);
        let hyy = (s.value(x, y + h, z) - 2.0 * v0 + s.value(x, y - h, z)) / (h * h);
        let hzz = (s.value(x, y, z + h) - 2.0 * v0 + s.value(x, y, z - h)) / (h * h);
        let hxy = (s.value(x + h, y + h, z) - s.value(x + h, y - h, z) - s.value(x - h, y + h, z)
            + s.value(x - h, y - h, z))
            / (4.0 * h * h);
        assert!((out.h[0] - hxx).abs() < 1e-3, "hxx {} {}", out.h[0], hxx);
        assert!((out.h[3] - hyy).abs() < 1e-3);
        assert!((out.h[5] - hzz).abs() < 1e-3);
        assert!((out.h[1] - hxy).abs() < 1e-3);
    }

    #[test]
    fn periodic_images_agree() {
        let n = 10;
        let (gx, gy, gz) = periodic_grids(n);
        let s = Spline3::<f64>::interpolate(gx, gy, gz, &sample_field(n));
        let a = s.vgh(0.3, 0.4, 0.5);
        let b = s.vgh(1.3, -0.6, 2.5);
        assert!((a.v - b.v).abs() < 1e-12);
        for d in 0..3 {
            assert!((a.g[d] - b.g[d]).abs() < 1e-11);
        }
    }

    #[test]
    fn anisotropic_grid_dimensions() {
        // 48x48x60-style anisotropy (smaller for test speed): strides and
        // delta_inv scaling must be per-dimension.
        let gx = Grid1::periodic(0.0, 1.0, 6);
        let gy = Grid1::periodic(0.0, 2.0, 8);
        let gz = Grid1::periodic(0.0, 3.0, 10);
        let mut data = vec![0.0; 6 * 8 * 10];
        for i in 0..6 {
            for j in 0..8 {
                for k in 0..10 {
                    let (x, y, z) = (i as f64 / 6.0, 2.0 * j as f64 / 8.0, 3.0 * k as f64 / 10.0);
                    data[(i * 8 + j) * 10 + k] =
                        (2.0 * PI * x).cos() + (PI * y).sin() + (2.0 * PI * z / 3.0).cos();
                }
            }
        }
        let s = Spline3::<f64>::interpolate(gx, gy, gz, &data);
        let h = 1e-6;
        let (x, y, z) = (0.41, 1.37, 2.11);
        let out = s.vgh(x, y, z);
        let gx_fd = (s.value(x + h, y, z) - s.value(x - h, y, z)) / (2.0 * h);
        let gy_fd = (s.value(x, y + h, z) - s.value(x, y - h, z)) / (2.0 * h);
        let gz_fd = (s.value(x, y, z + h) - s.value(x, y, z - h)) / (2.0 * h);
        assert!((out.g[0] - gx_fd).abs() < 1e-5);
        assert!((out.g[1] - gy_fd).abs() < 1e-5);
        assert!((out.g[2] - gz_fd).abs() < 1e-5);
    }

    #[test]
    fn natural_boundary_3d() {
        let g = Grid1::natural(0.0, 1.0, 8);
        let np = 9;
        let mut data = vec![0.0; np * np * np];
        for i in 0..np {
            for j in 0..np {
                for k in 0..np {
                    let (x, y, z) = (i as f64 / 8.0, j as f64 / 8.0, k as f64 / 8.0);
                    data[(i * np + j) * np + k] = x * y + z;
                }
            }
        }
        let s = Spline3::<f64>::interpolate(g, g, g, &data);
        // Bilinear+linear field is exactly representable with natural BC.
        for p in 0..10 {
            let (x, y, z) = (0.1 * p as f64 * 0.99, 0.55, 0.3);
            assert!((s.value(x, y, z) - (x * y + z)).abs() < 1e-9);
        }
    }

    #[test]
    fn laplacian_is_hessian_trace() {
        let v = Vgh::<f64> {
            v: 0.0,
            g: [0.0; 3],
            h: [1.0, 9.0, 9.0, 2.0, 9.0, 3.0],
        };
        assert_eq!(v.laplacian(), 6.0);
    }
}
