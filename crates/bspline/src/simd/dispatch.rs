//! Runtime backend selection: one-time CPU detection +
//! `QMC_SIMD=avx512|avx2|scalar` override, cached per-process, with
//! a thread-local force for A/B measurements, and the per-type
//! `&'static` function-pointer tables the kernel entry points call
//! through.

use super::kernels;
use super::lanes::{ScalarLanes, SimdReal};
use crate::batch::Located;
use crate::layout::Kernel;
use crate::output::{SoAStreamsMut, WalkerAoS};
use einspline::multi::MultiCoefs;
use einspline::Real;
use std::any::TypeId;
use std::cell::Cell;
use std::str::FromStr;
use std::sync::OnceLock;

/// A SIMD instruction-set backend for the micro-kernels. Every backend
/// fuses `mul_add`, so all of them are bit-identical to each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Backend {
    /// Portable scalar-array pack (`[T; 4]` with per-lane `mul_add`).
    /// Bit-identical to the pre-SIMD reference loops; always available.
    Scalar,
    /// 256-bit `std::arch` AVX2 pack with FMA3 — bit-identical to the
    /// scalar reference (same fused elementwise chain).
    Avx2,
    /// 512-bit `std::arch` AVX-512F pack (`f32x16`/`f64x8`), fused like
    /// AVX2 and therefore also bit-identical to the scalar reference.
    Avx512,
}

impl Backend {
    /// Every backend, worst to best — the derived `Ord` follows this
    /// order, so `b >= Backend::Avx2` reads "AVX2 and FMA are present".
    pub const ALL: [Backend; 3] = [Backend::Scalar, Backend::Avx2, Backend::Avx512];

    /// Backends usable on this host (ordered worst to best; always
    /// contains [`Backend::Scalar`]). An x86-64 host without AVX2+FMA
    /// runs the scalar pack.
    pub fn available() -> Vec<Backend> {
        #[allow(unused_mut)]
        let mut v = vec![Backend::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                v.push(Backend::Avx2);
                // On top of AVX2+FMA only, so that `>= Backend::Avx2`
                // implies both features for every listed backend.
                if std::arch::is_x86_feature_detected!("avx512f") {
                    v.push(Backend::Avx512);
                }
            }
        }
        v
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
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
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
            "avx2" => Ok(Backend::Avx2),
            "avx512" => Ok(Backend::Avx512),
            other => Err(format!(
                "unknown QMC_SIMD backend {other:?} (expected avx512|avx2|scalar)"
            )),
        }
    }
}

/// Lane count of `backend`'s pack for element type `T` (4 for the
/// scalar-array pack regardless of `T`).
pub fn lanes_for<T: Real>(backend: Backend) -> usize {
    match backend {
        Backend::Scalar => ScalarLanes::<T>::LANES,
        Backend::Avx2 => 32 / std::mem::size_of::<T>(),
        Backend::Avx512 => 64 / std::mem::size_of::<T>(),
    }
}

static DEFAULT: OnceLock<Backend> = OnceLock::new();

/// `Ok` when `backend` is one of `available`, else the one-line reason
/// — the single availability check behind [`with_backend`] (which
/// panics with it) and the `QMC_SIMD` override (which warns and falls
/// back). Pure, so both outcomes are testable on any host.
fn ensure_available(backend: Backend, available: &[Backend]) -> Result<(), String> {
    if available.contains(&backend) {
        Ok(())
    } else {
        Err(format!("backend {backend} not available on this host/build"))
    }
}

/// [`with_backend`]'s precondition: panics with [`ensure_available`]'s
/// reason.
fn require_available(backend: Backend, available: &[Backend]) {
    if let Err(why) = ensure_available(backend, available) {
        panic!("{why}");
    }
}

/// The default backend for a `QMC_SIMD` value of `raw` on a host whose
/// usable backends are `available` (worst to best), and the warning to
/// print when `raw` named something else than what is returned.
fn resolve_default(raw: Option<&str>, available: &[Backend]) -> (Backend, Option<String>) {
    let best = *available.last().expect("scalar always available");
    let Some(raw) = raw else {
        return (best, None);
    };
    let asked = raw
        .parse::<Backend>()
        .and_then(|b| ensure_available(b, available).map(|()| b));
    match asked {
        Ok(b) => (b, None),
        Err(why) => (best, Some(format!("QMC_SIMD={raw}: {why}; using {best}"))),
    }
}

/// The process-wide default backend: best available, overridden by
/// `QMC_SIMD=avx512|avx2|scalar`. Detected once and cached; an
/// override naming an unavailable or unknown backend falls back to the
/// best available with a one-time warning on stderr.
pub fn default_backend() -> Backend {
    *DEFAULT.get_or_init(|| {
        let raw = std::env::var("QMC_SIMD").ok();
        let (backend, warning) = resolve_default(raw.as_deref(), &Backend::available());
        if let Some(w) = warning {
            eprintln!("{w}");
        }
        backend
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
/// handed to other threads (e.g. [`crate::parallel::run_nested_blocked`])
/// keeps the process default.
pub fn with_backend<R>(backend: Backend, f: impl FnOnce() -> R) -> R {
    require_available(backend, &Backend::available());
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
/// one block's sub-range for [`crate::blocked`]).
type EvalSoaFn<T> = for<'a> fn(Kernel, &MultiCoefs<T>, &Located<T>, SoAStreamsMut<'a, T>);
/// Signature of the dispatched AoS evaluation body: one call covers
/// every position of an engine call, block `i` written from `locs[i]`.
type EvalAosFn<T> = fn(Kernel, &MultiCoefs<T>, &[Located<T>], &mut [WalkerAoS<T>]);

/// One monomorphized micro-kernel set: what the dispatch hands back per
/// (scalar type, backend).
pub(crate) struct Fns<T: Real> {
    /// Which backend these pointers implement.
    #[cfg_attr(not(test), allow(dead_code))]
    pub backend: Backend,
    pub eval_soa: EvalSoaFn<T>,
    pub eval_aos: EvalAosFn<T>,
}

macro_rules! scalar_fns {
    ($t:ty) => {
        Fns {
            backend: Backend::Scalar,
            eval_soa: kernels::eval_soa::<$t, ScalarLanes<$t>>,
            eval_aos: crate::aos::eval_aos::<$t>,
        }
    };
}

static SCALAR_F32: Fns<f32> = scalar_fns!(f32);
static SCALAR_F64: Fns<f64> = scalar_fns!(f64);

fn table_f32(b: Backend) -> &'static Fns<f32> {
    match b {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => &super::x86::avx512_f32::FNS,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => &super::x86::avx2_f32::FNS,
        _ => &SCALAR_F32,
    }
}

fn table_f64(b: Backend) -> &'static Fns<f64> {
    match b {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => &super::x86::avx512_f64::FNS,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => &super::x86::avx2_f64::FNS,
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

    /// `>= Backend::Avx2` (the miniqmc kernels' gate) means something
    /// only while the declaration order is the capability order.
    #[test]
    fn all_is_strictly_ordered() {
        assert!(Backend::ALL.windows(2).all(|w| w[0] < w[1]));
        for b in Backend::ALL {
            assert_eq!(b.name().parse::<Backend>(), Ok(b));
        }
    }

    #[test]
    fn env_values_parse() {
        assert_eq!("avx512".parse::<Backend>(), Ok(Backend::Avx512));
        assert_eq!("AVX512".parse::<Backend>(), Ok(Backend::Avx512));
        assert_eq!(" AVX2 ".parse::<Backend>(), Ok(Backend::Avx2));
        assert_eq!("scalar".parse::<Backend>(), Ok(Backend::Scalar));
        assert!("sse2".parse::<Backend>().is_err());
        assert!("neon".parse::<Backend>().is_err());
        assert!("avx512f".parse::<Backend>().is_err());
        assert_eq!(Backend::Avx2.name(), "avx2");
        assert_eq!(Backend::Avx512.name(), "avx512");
    }

    #[test]
    fn lane_counts_match_register_widths() {
        assert_eq!(Backend::Scalar.lanes_f32(), 4);
        assert_eq!(Backend::Scalar.lanes_f64(), 4);
        assert_eq!(Backend::Avx2.lanes_f32(), 8);
        assert_eq!(Backend::Avx2.lanes_f64(), 4);
        assert_eq!(Backend::Avx512.lanes_f32(), 16);
        assert_eq!(Backend::Avx512.lanes_f64(), 8);
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

    /// The panic `with_backend` raises, on a fabricated host without
    /// AVX-512: where every backend is present (this host, the CI
    /// runners) the real call cannot be made to fail.
    #[test]
    #[should_panic(expected = "backend avx512 not available on this host/build")]
    fn with_backend_rejects_unavailable() {
        let avx2_host = [Backend::Scalar, Backend::Avx2];
        require_available(Backend::Avx512, &avx2_host);
    }

    #[test]
    fn qmc_simd_override_resolves_or_falls_back_with_a_warning() {
        let avx2_host = [Backend::Scalar, Backend::Avx2];
        assert_eq!(resolve_default(None, &avx2_host), (Backend::Avx2, None));
        assert_eq!(resolve_default(Some("scalar"), &avx2_host), (Backend::Scalar, None));
        assert_eq!(resolve_default(Some("avx512"), &Backend::ALL), (Backend::Avx512, None));

        // A runner without AVX-512 asked for it: best available, one line.
        let (b, warning) = resolve_default(Some("avx512"), &avx2_host);
        assert_eq!(b, Backend::Avx2);
        let warning = warning.expect("fallback warns");
        assert_eq!(
            warning,
            "QMC_SIMD=avx512: backend avx512 not available on this host/build; using avx2"
        );
        assert!(!warning.contains('\n'));

        let (b, warning) = resolve_default(Some("neon"), &avx2_host);
        assert_eq!(b, Backend::Avx2);
        let warning = warning.expect("unknown name warns");
        assert!(warning.contains("unknown QMC_SIMD backend") && warning.ends_with("using avx2"));
    }

    /// `sse2` names no backend (every pack must fuse `mul_add`), so
    /// `QMC_SIMD=sse2` resolves to the best available one with one line.
    #[test]
    fn qmc_simd_sse2_falls_back_to_the_best_backend() {
        let hosts: [&[Backend]; 3] =
            [&Backend::ALL, &[Backend::Scalar, Backend::Avx2], &[Backend::Scalar]];
        for host in hosts {
            let best = *host.last().unwrap();
            let (b, warning) = resolve_default(Some("sse2"), host);
            assert_eq!(b, best);
            let want = format!(
                "QMC_SIMD=sse2: unknown QMC_SIMD backend \"sse2\" \
                 (expected avx512|avx2|scalar); using {best}"
            );
            assert_eq!(warning, Some(want));
        }
    }
}
