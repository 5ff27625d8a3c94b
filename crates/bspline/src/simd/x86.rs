//! `std::arch` x86-64 lane packs (AVX-512F and AVX2+FMA) and the
//! `#[target_feature]` wrapper functions the dispatch tables point at.
//!
//! Every [`SimdReal`] method is `#[inline(always)]` so the intrinsic
//! calls inline into the `#[target_feature]` wrappers below and receive
//! the wide codegen there. The safe outer wrappers do the one `unsafe`
//! call; soundness rests on the dispatch layer only ever selecting a
//! table after `is_x86_feature_detected!` confirmed the features (see
//! `dispatch.rs`).

use super::dispatch::Fns;
use super::lanes::SimdReal;
use super::Backend;
use std::arch::x86_64::*;

/// Sixteen `f32` lanes in one AVX-512 register, fused `mul_add`.
#[derive(Clone, Copy)]
pub(crate) struct F32x16(__m512);

impl SimdReal<f32> for F32x16 {
    const LANES: usize = 16;
    const REGISTERS: usize = 32;

    #[inline(always)]
    fn splat(x: f32) -> Self {
        // SAFETY: reached only from an avx512f wrapper (dispatch-gated).
        Self(unsafe { _mm512_set1_ps(x) })
    }

    #[inline(always)]
    fn load(s: &[f32], at: usize) -> Self {
        debug_assert!(at + Self::LANES <= s.len());
        // SAFETY: avx512f wrapper (dispatch-gated); bounds guaranteed by
        // the kernel chunk loop (debug-asserted).
        Self(unsafe { _mm512_loadu_ps(s.as_ptr().add(at)) })
    }

    #[inline(always)]
    fn store(self, s: &mut [f32], at: usize) {
        debug_assert!(at + Self::LANES <= s.len());
        // SAFETY: as for `load`.
        unsafe { _mm512_storeu_ps(s.as_mut_ptr().add(at), self.0) }
    }

    #[inline(always)]
    fn mul(self, a: Self) -> Self {
        // SAFETY: as for `splat`.
        Self(unsafe { _mm512_mul_ps(self.0, a.0) })
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // SAFETY: as for `splat`.
        Self(unsafe { _mm512_fmadd_ps(self.0, a.0, b.0) })
    }
}

/// Eight `f64` lanes in one AVX-512 register, fused `mul_add`.
#[derive(Clone, Copy)]
pub(crate) struct F64x8(__m512d);

impl SimdReal<f64> for F64x8 {
    const LANES: usize = 8;
    const REGISTERS: usize = 32;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        // SAFETY: reached only from an avx512f wrapper (dispatch-gated).
        Self(unsafe { _mm512_set1_pd(x) })
    }

    #[inline(always)]
    fn load(s: &[f64], at: usize) -> Self {
        debug_assert!(at + Self::LANES <= s.len());
        // SAFETY: avx512f wrapper (dispatch-gated); bounds guaranteed by
        // the kernel chunk loop (debug-asserted).
        Self(unsafe { _mm512_loadu_pd(s.as_ptr().add(at)) })
    }

    #[inline(always)]
    fn store(self, s: &mut [f64], at: usize) {
        debug_assert!(at + Self::LANES <= s.len());
        // SAFETY: as for `load`.
        unsafe { _mm512_storeu_pd(s.as_mut_ptr().add(at), self.0) }
    }

    #[inline(always)]
    fn mul(self, a: Self) -> Self {
        // SAFETY: as for `splat`.
        Self(unsafe { _mm512_mul_pd(self.0, a.0) })
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // SAFETY: as for `splat`.
        Self(unsafe { _mm512_fmadd_pd(self.0, a.0, b.0) })
    }
}

/// Eight `f32` lanes in one AVX2 register, fused `mul_add` (FMA3).
#[derive(Clone, Copy)]
pub(crate) struct F32x8(__m256);

impl SimdReal<f32> for F32x8 {
    const LANES: usize = 8;
    const REGISTERS: usize = 16;

    #[inline(always)]
    fn splat(x: f32) -> Self {
        // SAFETY: reached only from an avx2+fma wrapper (dispatch-gated).
        Self(unsafe { _mm256_set1_ps(x) })
    }

    #[inline(always)]
    fn load(s: &[f32], at: usize) -> Self {
        debug_assert!(at + Self::LANES <= s.len());
        // SAFETY: bounds guaranteed by the kernel chunk loop (debug-asserted).
        Self(unsafe { _mm256_loadu_ps(s.as_ptr().add(at)) })
    }

    #[inline(always)]
    fn store(self, s: &mut [f32], at: usize) {
        debug_assert!(at + Self::LANES <= s.len());
        // SAFETY: as for `load`.
        unsafe { _mm256_storeu_ps(s.as_mut_ptr().add(at), self.0) }
    }

    #[inline(always)]
    fn mul(self, a: Self) -> Self {
        // SAFETY: as for `splat`.
        Self(unsafe { _mm256_mul_ps(self.0, a.0) })
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // SAFETY: as for `splat`.
        Self(unsafe { _mm256_fmadd_ps(self.0, a.0, b.0) })
    }
}

/// Four `f64` lanes in one AVX2 register, fused `mul_add` (FMA3).
#[derive(Clone, Copy)]
pub(crate) struct F64x4(__m256d);

impl SimdReal<f64> for F64x4 {
    const LANES: usize = 4;
    const REGISTERS: usize = 16;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        // SAFETY: reached only from an avx2+fma wrapper (dispatch-gated).
        Self(unsafe { _mm256_set1_pd(x) })
    }

    #[inline(always)]
    fn load(s: &[f64], at: usize) -> Self {
        debug_assert!(at + Self::LANES <= s.len());
        // SAFETY: bounds guaranteed by the kernel chunk loop (debug-asserted).
        Self(unsafe { _mm256_loadu_pd(s.as_ptr().add(at)) })
    }

    #[inline(always)]
    fn store(self, s: &mut [f64], at: usize) {
        debug_assert!(at + Self::LANES <= s.len());
        // SAFETY: as for `load`.
        unsafe { _mm256_storeu_pd(s.as_mut_ptr().add(at), self.0) }
    }

    #[inline(always)]
    fn mul(self, a: Self) -> Self {
        // SAFETY: as for `splat`.
        Self(unsafe { _mm256_mul_pd(self.0, a.0) })
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // SAFETY: as for `splat`.
        Self(unsafe { _mm256_fmadd_pd(self.0, a.0, b.0) })
    }
}

/// One `#[target_feature]` wrapper per micro-kernel plus the dispatch
/// table tying them together, generated per (scalar type, lane pack,
/// feature string). Adding a backend = adding one invocation of this
/// macro (plus a [`Backend`] variant and its detection).
macro_rules! backend_fns {
    ($modname:ident, $backend:expr, $t:ty, $lane:ty, $feat:literal) => {
        pub(crate) mod $modname {
            use super::*;
            use crate::batch::Located;
            use crate::layout::Kernel;
            use crate::output::{SoAStreamsMut, WalkerAoS};
            use crate::simd::kernels;
            use einspline::multi::MultiCoefs;

            #[target_feature(enable = $feat)]
            fn eval_soa_tf(
                k: Kernel,
                c: &MultiCoefs<$t>,
                l: &Located<$t>,
                o: SoAStreamsMut<'_, $t>,
            ) {
                kernels::eval_soa::<$t, $lane>(k, c, l, o)
            }
            #[target_feature(enable = $feat)]
            fn eval_aos_tf(
                k: Kernel,
                c: &MultiCoefs<$t>,
                l: &[Located<$t>],
                o: &mut [WalkerAoS<$t>],
            ) {
                crate::aos::eval_aos::<$t>(k, c, l, o)
            }

            fn eval_soa(k: Kernel, c: &MultiCoefs<$t>, l: &Located<$t>, o: SoAStreamsMut<'_, $t>) {
                // SAFETY: this table is only selected after runtime
                // detection of the required CPU features.
                unsafe { eval_soa_tf(k, c, l, o) }
            }
            fn eval_aos(k: Kernel, c: &MultiCoefs<$t>, l: &[Located<$t>], o: &mut [WalkerAoS<$t>]) {
                // SAFETY: as above.
                unsafe { eval_aos_tf(k, c, l, o) }
            }

            pub(crate) static FNS: Fns<$t> = Fns {
                backend: $backend,
                eval_soa,
                eval_aos,
            };
        }
    };
}

backend_fns!(avx512_f32, Backend::Avx512, f32, F32x16, "avx512f");
backend_fns!(avx512_f64, Backend::Avx512, f64, F64x8, "avx512f");
backend_fns!(avx2_f32, Backend::Avx2, f32, F32x8, "avx2,fma");
backend_fns!(avx2_f64, Backend::Avx2, f64, F64x4, "avx2,fma");
