//! Shared test-support helpers for the workspace integration tests.
//!
//! Every root integration test binary that needs tolerance machinery
//! declares `mod common;` and uses these helpers instead of re-deriving
//! ULP arithmetic or ad-hoc tolerances per file. Three tiers:
//!
//! * [`ulp_distance_f32`] / [`ulp_distance_f64`] — exact
//!   units-in-the-last-place distance for bit-level parity assertions;
//! * [`assert_rel_close_f32`] / [`assert_rel_close_f64`] — scale-aware
//!   relative tolerance (`tol · max(|a|, |b|, 1)`) for cross-layout /
//!   cross-precision agreement where accumulation order differs;
//! * [`BackendTolerance`] — the SIMD parity contract: fused backends
//!   (AVX2+FMA, the scalar pack) must match the scalar reference to
//!   ≤ 2 ULP, the non-FMA SSE2 backend to a scale-aware tolerance.

// Each integration-test binary compiles its own copy of this module and
// uses a subset of it.
#![allow(dead_code)]

use bspline::simd::Backend;
use einspline::Real;

/// Distance in units-in-the-last-place between two finite `f32`s.
pub fn ulp_distance_f32(a: f32, b: f32) -> u32 {
    let to_ordered = |x: f32| {
        let bits = x.to_bits() as i32;
        if bits < 0 {
            i32::MIN.wrapping_sub(bits)
        } else {
            bits
        }
    };
    to_ordered(a).abs_diff(to_ordered(b))
}

/// Distance in units-in-the-last-place between two finite `f64`s.
pub fn ulp_distance_f64(a: f64, b: f64) -> u64 {
    let to_ordered = |x: f64| {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN.wrapping_sub(bits)
        } else {
            bits
        }
    };
    to_ordered(a).abs_diff(to_ordered(b))
}

/// Assert `|a − b| ≤ tol · max(|a|, |b|, 1)` — the scale-aware relative
/// tolerance used wherever two evaluations accumulate in a different
/// (but equally valid) order.
pub fn assert_rel_close_f32(a: f32, b: f32, tol: f32, ctx: &str) {
    let bound = tol * a.abs().max(b.abs()).max(1.0);
    assert!((a - b).abs() <= bound, "{ctx}: {a} vs {b} (tol {tol:e})");
}

/// `f64` twin of [`assert_rel_close_f32`].
pub fn assert_rel_close_f64(a: f64, b: f64, tol: f64, ctx: &str) {
    let bound = tol * a.abs().max(b.abs()).max(1.0);
    assert!((a - b).abs() <= bound, "{ctx}: {a} vs {b} (tol {tol:e})");
}

/// Per-backend tolerance contract of the SIMD micro-kernels, shared by
/// the parity and precision suites (documented in `bspline::simd`):
/// backends with a fused `mul_add` perform the bit-identical
/// elementwise chain and must match to ≤ 2 ULP; SSE2 models a pre-FMA
/// machine and is bounded by a scale-aware tolerance instead.
pub trait BackendTolerance: Real {
    /// Assert `got` matches the scalar-reference `want` under
    /// `backend`'s tolerance contract.
    fn assert_close(backend: Backend, want: Self, got: Self, ctx: &str);
}

impl BackendTolerance for f32 {
    fn assert_close(backend: Backend, want: Self, got: Self, ctx: &str) {
        if backend.is_fused() {
            assert!(
                ulp_distance_f32(want, got) <= 2,
                "{ctx} [{backend}]: {want} vs {got} ({} ulp)",
                ulp_distance_f32(want, got)
            );
        } else {
            assert_rel_close_f32(want, got, 1e-4, &format!("{ctx} [{backend}]"));
        }
    }
}

impl BackendTolerance for f64 {
    fn assert_close(backend: Backend, want: Self, got: Self, ctx: &str) {
        if backend.is_fused() {
            assert!(
                ulp_distance_f64(want, got) <= 2,
                "{ctx} [{backend}]: {want} vs {got} ({} ulp)",
                ulp_distance_f64(want, got)
            );
        } else {
            assert_rel_close_f64(want, got, 1e-12, &format!("{ctx} [{backend}]"));
        }
    }
}

/// The blocked engine's regrouping contract: a fused backend performs
/// the identical elementwise chain however orbitals are grouped into
/// blocks, so `got` must equal `want` **exactly**; the non-FMA SSE2
/// backend fuses its ragged scalar tail but not its vector body, so a
/// block boundary can move an orbital between the two paths — bounded
/// by [`BackendTolerance`] instead.
pub fn assert_regrouped<T: BackendTolerance>(backend: Backend, want: T, got: T, ctx: &str) {
    if backend.is_fused() {
        assert_eq!(want, got, "{ctx} [{backend}]");
    } else {
        T::assert_close(backend, want, got, ctx);
    }
}
