//! `einspline` — uniform-grid cubic B-spline substrate.
//!
//! Rust reimplementation of the core of K. Esler's einspline library
//! (<http://einspline.sf.net>), the basis representation underneath
//! QMCPACK's single-particle orbitals and the substrate of the paper
//! *"Optimization and parallelization of B-spline based orbital
//! evaluations in QMC on multi/many-core shared memory processors"*
//! (Mathuriya et al., IPDPS 2017).
//!
//! Provides:
//!
//! * [`basis`] — the four non-zero piecewise-cubic basis weights and their
//!   derivatives (paper Fig. 2);
//! * [`grid`] — uniform grids with periodic/natural boundaries and the
//!   position → (interval, fraction) mapping;
//! * [`solver1d`] — interpolation coefficient solvers (cyclic/natural/
//!   clamped tridiagonal systems);
//! * [`spline1d`] / [`spline3d`] — scalar splines (Jastrow radial
//!   functions; the tensor-product reference for engine validation);
//! * [`multi`] — the 4D table `P[nx][ny][nz][N]` with padded, 64-byte
//!   aligned spline lines and padded z-rows ([`TableLayout`]) consumed
//!   by the `bspline` evaluation engines;
//! * [`aligned`] — cache-line aligned storage used throughout.
//!
//! # Quick example
//!
//! ```
//! use einspline::grid::Grid1;
//! use einspline::spline1d::Spline1;
//!
//! let grid = Grid1::periodic(0.0, 1.0, 32);
//! let samples: Vec<f64> = (0..32)
//!     .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 32.0).sin())
//!     .collect();
//! let spline = Spline1::<f64>::interpolate_periodic(grid, &samples);
//! let (v, dv, d2v) = spline.vgl(0.25);
//! assert!((v - 1.0).abs() < 1e-4);       // sin(π/2)
//! assert!(dv.abs() < 1e-3);              // cos(π/2)
//! assert!((d2v + 39.5).abs() < 1.0);     // -4π² sin(π/2)
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// The 4-point tensor-product kernels use fixed-trip indexed loops on
// purpose (mirrors the paper's loop structure and vectorizes cleanly).
#![allow(clippy::needless_range_loop)]

pub mod aligned;
pub mod basis;
pub mod grid;
pub mod multi;
pub mod real;
pub mod solver1d;
pub mod spline1d;
pub mod spline3d;

pub use aligned::{padded_len, AlignedVec, CACHE_LINE};
pub use grid::{Boundary, Grid1};
pub use multi::{GridPoint, MultiCoefs, TableLayout};
pub use real::Real;
pub use solver1d::{solve_clamped, solve_natural, solve_periodic};
pub use spline1d::Spline1;
pub use spline3d::{Spline3, Vgh};
