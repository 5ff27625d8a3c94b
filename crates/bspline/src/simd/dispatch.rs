//! Runtime backend selection: one-time CPU detection + `QMC_SIMD`
//! override, cached per-process, with a thread-local force for A/B
//! measurements, and the per-type `&'static` function-pointer tables
//! the kernel entry points call through.

use super::kernels;
use super::lanes::{ScalarLanes, SimdReal};
use crate::batch::Located;
use crate::layout::Kernel;
use crate::output::SoAStreamsMut;
use einspline::multi::MultiCoefs;
use einspline::Real;
use std::any::TypeId;
use std::cell::Cell;
use std::str::FromStr;
use std::sync::OnceLock;

/// A SIMD instruction-set backend for the micro-kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Backend {
    /// Portable scalar-array pack (`[T; 4]` with per-lane `mul_add`).
    /// Bit-identical to the pre-SIMD reference loops; always available.
    Scalar,
    /// 128-bit `std::arch` SSE2 pack. No FMA (`mul`+`add`), modelling a
    /// pre-AVX x86-64 machine; results differ from the fused reference
    /// by rounding only.
    Sse2,
    /// 256-bit `std::arch` AVX2 pack with FMA3 — bit-identical to the
    /// scalar reference (same fused elementwise chain).
    Avx2,
}

impl Backend {
    /// Every backend, worst to best.
    pub const ALL: [Backend; 3] = [Backend::Scalar, Backend::Sse2, Backend::Avx2];

    /// Backends usable on this host with the current build (ordered
    /// worst to best; always contains [`Backend::Scalar`]).
    pub fn available() -> Vec<Backend> {
        #[allow(unused_mut)]
        let mut v = vec![Backend::Scalar];
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            v.push(Backend::Sse2); // baseline x86-64 feature
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                v.push(Backend::Avx2);
            }
        }
        v
    }

    /// Whether this backend's `mul_add` is fused (and therefore
    /// bit-identical to the scalar reference).
    pub fn is_fused(self) -> bool {
        !matches!(self, Backend::Sse2)
    }

    /// Lane count for `f32` packs.
    pub fn lanes_f32(self) -> usize {
        lanes_for::<f32>(self)
    }

    /// Lane count for `f64` packs.
    pub fn lanes_f64(self) -> usize {
        lanes_for::<f64>(self)
    }

    /// Lowercase name as accepted by `QMC_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(Backend::Scalar),
            "sse2" => Ok(Backend::Sse2),
            "avx2" => Ok(Backend::Avx2),
            other => Err(format!(
                "unknown QMC_SIMD backend {other:?} (expected avx2|sse2|scalar)"
            )),
        }
    }
}

/// Lane count of `backend`'s pack for element type `T` (4 for the
/// scalar-array pack regardless of `T`).
pub fn lanes_for<T: Real>(backend: Backend) -> usize {
    match backend {
        Backend::Scalar => ScalarLanes::<T>::LANES,
        Backend::Sse2 => 16 / std::mem::size_of::<T>(),
        Backend::Avx2 => 32 / std::mem::size_of::<T>(),
    }
}

static DEFAULT: OnceLock<Backend> = OnceLock::new();

/// The process-wide default backend: best available, overridden by
/// `QMC_SIMD=avx2|sse2|scalar`. Detected once and cached; an override
/// naming an unavailable or unknown backend falls back to the best
/// available with a one-time warning on stderr.
pub fn default_backend() -> Backend {
    *DEFAULT.get_or_init(|| {
        let available = Backend::available();
        let best = *available.last().expect("scalar always available");
        match std::env::var("QMC_SIMD") {
            Err(_) => best,
            Ok(raw) => match raw.parse::<Backend>() {
                Ok(b) if available.contains(&b) => b,
                Ok(b) => {
                    eprintln!(
                        "QMC_SIMD={b} unavailable on this host/build; using {best}"
                    );
                    best
                }
                Err(e) => {
                    eprintln!("{e}; using {best}");
                    best
                }
            },
        }
    })
}

thread_local! {
    static FORCED: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// The backend the *current thread*'s next kernel call will use:
/// the [`with_backend`] force if one is active, else the process
/// default.
pub fn active_backend() -> Backend {
    FORCED.with(|f| f.get()).unwrap_or_else(default_backend)
}

/// Run `f` with every kernel call on this thread forced to `backend`
/// (A/B testing: scalar-vs-SIMD bench rows, parity tests). Panics if
/// `backend` is not in [`Backend::available`] — forcing an undetected
/// instruction set would be unsound. The force is thread-local: work
/// handed to other threads (e.g. [`crate::parallel::run_nested`])
/// keeps the process default.
pub fn with_backend<R>(backend: Backend, f: impl FnOnce() -> R) -> R {
    assert!(
        Backend::available().contains(&backend),
        "backend {backend} not available on this host/build"
    );
    struct Restore(Option<Backend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(FORCED.with(|c| c.replace(Some(backend))));
    f()
}

/// Signature of the dispatched SoA evaluation kernel: one function
/// covers V/VGL/VGH via the leading selector, the stream view carries
/// the orbital range (whole padded streams for the monolithic engines,
/// one block's sub-range for [`crate::blocked`]), and the trailing flag
/// says the evaluation covers this one position only.
type EvalSoaFn<T> = for<'a> fn(Kernel, &MultiCoefs<T>, &Located<T>, SoAStreamsMut<'a, T>, bool);
/// Signature of the dispatched AoS V/L point accumulation.
type VlPointFn<T> = fn(T, T, &[T], &mut [T], &mut [T], usize);

/// One monomorphized micro-kernel set: what the dispatch hands back per
/// (scalar type, backend).
pub(crate) struct Fns<T: Real> {
    /// Which backend these pointers implement.
    #[cfg_attr(not(test), allow(dead_code))]
    pub backend: Backend,
    pub eval_soa: EvalSoaFn<T>,
    pub axpy: fn(T, &[T], &mut [T], usize),
    pub vl_point: VlPointFn<T>,
}

macro_rules! scalar_fns {
    ($t:ty) => {
        Fns {
            backend: Backend::Scalar,
            eval_soa: kernels::eval_soa::<$t, ScalarLanes<$t>>,
            axpy: kernels::axpy::<$t, ScalarLanes<$t>>,
            vl_point: kernels::vl_point::<$t, ScalarLanes<$t>>,
        }
    };
}

static SCALAR_F32: Fns<f32> = scalar_fns!(f32);
static SCALAR_F64: Fns<f64> = scalar_fns!(f64);

fn table_f32(b: Backend) -> &'static Fns<f32> {
    match b {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Backend::Avx2 => &super::x86::avx2_f32::FNS,
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Backend::Sse2 => &super::x86::sse2_f32::FNS,
        _ => &SCALAR_F32,
    }
}

fn table_f64(b: Backend) -> &'static Fns<f64> {
    match b {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Backend::Avx2 => &super::x86::avx2_f64::FNS,
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Backend::Sse2 => &super::x86::sse2_f64::FNS,
        _ => &SCALAR_F64,
    }
}

/// The active dispatch table for `T`, or `None` for scalar types other
/// than `f32`/`f64` (callers then use the generic scalar-pack body).
#[inline]
pub(crate) fn fns<T: Real>() -> Option<&'static Fns<T>> {
    let b = active_backend();
    if TypeId::of::<T>() == TypeId::of::<f32>() {
        let t = table_f32(b);
        // SAFETY: `T` is `f32` (checked above); `Fns<T>` and `Fns<f32>`
        // are the same type behind the cast.
        Some(unsafe { &*(t as *const Fns<f32>).cast::<Fns<T>>() })
    } else if TypeId::of::<T>() == TypeId::of::<f64>() {
        let t = table_f64(b);
        // SAFETY: `T` is `f64` (checked above).
        Some(unsafe { &*(t as *const Fns<f64>).cast::<Fns<T>>() })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        let avail = Backend::available();
        assert!(avail.contains(&Backend::Scalar));
        assert!(avail.windows(2).all(|w| w[0] < w[1]), "ordered worst→best");
    }

    #[test]
    fn env_values_parse() {
        assert_eq!("avx2".parse::<Backend>(), Ok(Backend::Avx2));
        assert_eq!(" SSE2 ".parse::<Backend>(), Ok(Backend::Sse2));
        assert_eq!("scalar".parse::<Backend>(), Ok(Backend::Scalar));
        assert!("neon".parse::<Backend>().is_err());
        assert_eq!(Backend::Avx2.name(), "avx2");
    }

    #[test]
    fn lane_counts_match_register_widths() {
        assert_eq!(Backend::Scalar.lanes_f32(), 4);
        assert_eq!(Backend::Sse2.lanes_f32(), 4);
        assert_eq!(Backend::Sse2.lanes_f64(), 2);
        assert_eq!(Backend::Avx2.lanes_f32(), 8);
        assert_eq!(Backend::Avx2.lanes_f64(), 4);
    }

    #[test]
    fn with_backend_forces_and_restores() {
        let before = active_backend();
        with_backend(Backend::Scalar, || {
            assert_eq!(active_backend(), Backend::Scalar);
            assert_eq!(fns::<f32>().unwrap().backend, Backend::Scalar);
        });
        assert_eq!(active_backend(), before);
    }

    #[test]
    fn tables_report_their_backend() {
        for b in Backend::available() {
            assert_eq!(table_f32(b).backend, b);
            assert_eq!(table_f64(b).backend, b);
        }
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn with_backend_rejects_unavailable() {
        // At least one of these is unavailable in a --no-default-features
        // build; in a full build on an AVX2 host everything is available,
        // so fabricate unavailability via the feature gate instead.
        if Backend::available().len() == Backend::ALL.len() {
            panic!("not available (all backends present; nothing to reject)");
        }
        let missing = *Backend::ALL
            .iter()
            .find(|b| !Backend::available().contains(b))
            .unwrap();
        with_backend(missing, || ());
    }
}
