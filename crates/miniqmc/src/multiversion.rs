//! One instantiation macro for the plain-Rust kernels of this crate.
//!
//! `multiversion!` turns an `#[inline(always)]` body into three
//! instantiations — the x86-64 baseline, `avx2,fma` and
//! `avx2,fma,avx512f` — and a dispatcher that picks one on
//! [`bspline::simd::active_backend`], so `QMC_SIMD` and `with_backend`
//! select them like every other kernel. The bodies are plain `+ − × ÷ √`
//! and selects in a fixed order and never call `f64::mul_add`, and Rust
//! does not contract `a * b + c` into a fused multiply-add on its own
//! (also not where FMA is enabled), so the three instantiations are
//! bit-identical: only the vector width differs.
//!
//! The instantiated bodies are `determinant::{dot_body,
//! sherman_morrison_body, lu_solve_block_body}`,
//! `distance::soa::row_min_image`, `BsplineFunctor::{values_row_body,
//! vgl_packed_body}` and `spo::pull_back_body`; `backend_twins` in the
//! crate root pins all seven under every available backend.

/// `multiversion! { $(#[attr])* $vis fn name<T: Bound>(args) -> ret = body; }`
/// defines `name` with the signature given, running the body function
/// `body` (called with the arguments in order) in the instantiation of
/// the active backend. The one type parameter is optional. Off x86-64
/// it calls the body directly.
macro_rules! multiversion {
    ($(#[$attr:meta])* $vis:vis fn $name:ident $(<$tp:ident: $bound:path>)? ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:path;) => {
        $(#[$attr])*
        $vis fn $name $(<$tp: $bound>)? ($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                use ::bspline::simd::{active_backend, Backend};
                #[target_feature(enable = "avx2,fma")]
                fn avx2 $(<$tp: $bound>)? ($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                #[target_feature(enable = "avx2,fma,avx512f")]
                fn avx512 $(<$tp: $bound>)? ($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                // SAFETY: `Avx2` is active only after run-time detection of `avx2` and
                // `fma`, `Avx512` only with `avx512f` on top (`Backend::available`, which
                // `with_backend` and the `QMC_SIMD` override both obey).
                unsafe {
                    match active_backend() {
                        Backend::Avx512 => return avx512($($arg),*),
                        Backend::Avx2 => return avx2($($arg),*),
                        Backend::Scalar => {}
                    }
                }
            }
            $body($($arg),*)
        }
    };
}

pub(crate) use multiversion;
