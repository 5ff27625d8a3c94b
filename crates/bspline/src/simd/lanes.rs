//! The lane abstraction: a pack of `LANES` reals with the operations
//! the micro-kernels need, plus the portable scalar-array fallback.

use einspline::Real;

/// A pack of [`Self::LANES`] values of `T` — the unit the explicit
/// micro-kernels operate on.
///
/// Implementations must keep every method `#[inline(always)]`: the
/// generic kernel bodies are instantiated inside `#[target_feature]`
/// wrapper functions, and the intrinsics only receive the right codegen
/// when they are inlined into that context.
///
/// `load`/`store` take a slice plus a start index; the caller (the
/// kernel chunk loop) guarantees `at + LANES <= s.len()`, which the
/// implementations re-check with `debug_assert!` before the raw
/// unaligned load/store.
pub trait SimdReal<T: Real>: Copy {
    /// Number of `T` lanes in one pack.
    const LANES: usize;

    /// Packs the register file holds: what the kernels size their
    /// accumulator unroll by.
    const REGISTERS: usize;

    /// Broadcast one value to every lane.
    fn splat(x: T) -> Self;

    /// Load `LANES` consecutive elements starting at `s[at]`.
    fn load(s: &[T], at: usize) -> Self;

    /// Store the pack to `s[at..at + LANES]`.
    fn store(self, s: &mut [T], at: usize);

    /// Lanewise `self * a`.
    fn mul(self, a: Self) -> Self;

    /// Lanewise `self * a + b`. Fused where the backend has FMA
    /// (AVX-512, AVX2, scalar `mul_add`); `mul`+`add` on SSE2.
    fn mul_add(self, a: Self, b: Self) -> Self;
}

/// Width of the portable scalar-array pack.
pub const SCALAR_LANES: usize = 4;

/// The portable fallback pack: a plain `[T; 4]` processed with scalar
/// `mul_add` per lane. Bit-identical to the pre-SIMD reference loops
/// (same fused elementwise chain) on every architecture.
#[derive(Clone, Copy, Debug)]
pub struct ScalarLanes<T>([T; SCALAR_LANES]);

impl<T: Real> SimdReal<T> for ScalarLanes<T> {
    const LANES: usize = SCALAR_LANES;
    /// Sixteen scalar registers, [`SCALAR_LANES`] to a pack.
    const REGISTERS: usize = 16 / SCALAR_LANES;

    #[inline(always)]
    fn splat(x: T) -> Self {
        Self([x; SCALAR_LANES])
    }

    #[inline(always)]
    fn load(s: &[T], at: usize) -> Self {
        let s = &s[at..at + SCALAR_LANES];
        Self([s[0], s[1], s[2], s[3]])
    }

    #[inline(always)]
    fn store(self, s: &mut [T], at: usize) {
        s[at..at + SCALAR_LANES].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn mul(self, a: Self) -> Self {
        let mut out = self.0;
        for k in 0..SCALAR_LANES {
            out[k] *= a.0[k];
        }
        Self(out)
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        let mut out = self.0;
        for k in 0..SCALAR_LANES {
            out[k] = out[k].mul_add(a.0[k], b.0[k]);
        }
        Self(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_pack_roundtrip_and_fma() {
        let src = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let a = ScalarLanes::<f32>::load(&src, 1);
        let b = ScalarLanes::<f32>::splat(10.0);
        let mut dst = [0.0f32; 6];
        a.mul_add(b, a).store(&mut dst, 2);
        // a*10 + a = 11a for lanes [2..6) of src offset 1.
        assert_eq!(&dst[2..6], &[22.0, 33.0, 44.0, 55.0]);
        let m = a.mul(b);
        let mut dst2 = [0.0f32; 4];
        m.store(&mut dst2, 0);
        assert_eq!(dst2, [20.0, 30.0, 40.0, 50.0]);
    }

    #[test]
    #[should_panic]
    fn scalar_pack_load_checks_bounds() {
        let src = [0.0f32; 4];
        let _ = ScalarLanes::<f32>::load(&src, 2);
    }
}
