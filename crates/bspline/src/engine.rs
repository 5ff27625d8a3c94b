//! The evaluation surface: **one core, three views**.
//!
//! The paper's V, VGL and VGH are one loop nest that differs only in
//! which output streams it accumulates (Fig. 4–6), and a scalar call, a
//! batch and a single-electron move differ only in where the located
//! positions come from. The code has the same shape:
//!
//! * **The core** ([`EvalCore`]): each of the three native engines
//!   ([`BsplineAoS`](crate::aos::BsplineAoS),
//!   [`BsplineSoA`](crate::soa::BsplineSoA) and
//!   [`BlockedEngine`](crate::blocked::BlockedEngine), which is also the
//!   paper's AoSoA tiling, [`BsplineAoSoA`](crate::aosoa::BsplineAoSoA))
//!   implements exactly one kernel-tagged evaluation body,
//!   [`EvalCore::eval_located`], over a slice of pre-located positions
//!   ([`Located`]: grid cell + basis weights) and a matching slice of
//!   output blocks. Loop order, prefetch and the [`crate::simd`]
//!   micro-kernel call live there and nowhere else.
//! * **The views** ([`SpoEngine`]): the three position-level entry
//!   points are derived from the core in one place (the blanket impl
//!   below) and differ only in how the `Located` slice is built:
//!   [`SpoEngine::eval`] is a slice of 1 with a fresh [`Located::new`],
//!   [`SpoEngine::eval_batch`] is [`Located::block`] over a
//!   [`PosBlock`], and [`SpoEngine::eval_one`] is a slice of 1 whose
//!   `Located` comes from the walker's [`MoveContext`] (so the
//!   accept-side call on the same position skips the locate). The same
//!   body runs on the same floats, so the views are bit-identical to
//!   each other on every backend.
//! * **Sugar**: `v`/`vgl`/`vgh` and `v_one`/`vgl_one`/`vgh_one` are
//!   provided one-line forwards to `eval`/`eval_one` with the kernel
//!   tag filled in; no implementor overrides them.
//!
//! The one adapter, [`MixedEngine`](crate::precision::MixedEngine),
//! wraps another `SpoEngine` and implements the three views directly.
//!
//! Every body funnels into the [`crate::simd`] micro-kernels, so the
//! runtime backend selection (`QMC_SIMD=avx512|avx2|sse2|scalar`,
//! [`crate::simd::with_backend`]) applies uniformly behind this trait —
//! callers never dispatch on the instruction set themselves, and the
//! fused backends (all but `sse2`) return the same bits.

use crate::batch::{check_batch, BatchOut, Located, PosBlock};
use crate::layout::{Kernel, Layout};
use crate::onemove::MoveContext;
use einspline::multi::MultiCoefs;
use einspline::Real;

/// A multi-orbital SPO evaluator with layout-specific output buffers:
/// three kernel-tagged views of one evaluation (see the [module
/// docs](self)).
pub trait SpoEngine<T: Real>: Send + Sync {
    /// Per-walker output block type (the paper's `WalkerAoS`/`WalkerSoA`).
    type Out: Send + Clone;

    /// Number of orbitals N.
    fn n_splines(&self) -> usize;

    /// Which data layout this engine implements.
    fn layout(&self) -> Layout;

    /// Physical evaluation domain per dimension (for sampling random
    /// positions).
    fn domain(&self) -> [(f64, f64); 3];

    /// Allocate a matching output block.
    fn make_out(&self) -> Self::Out;

    /// Allocate `batch` per-position output blocks for
    /// [`Self::eval_batch`]. Callers allocate once and reuse across
    /// batches.
    fn make_batch_out(&self, batch: usize) -> BatchOut<Self::Out> {
        BatchOut::from_blocks((0..batch).map(|_| self.make_out()).collect())
    }

    /// Evaluate `kernel` at one position.
    fn eval(&self, kernel: Kernel, pos: [T; 3], out: &mut Self::Out);

    /// Evaluate `kernel` over a whole position block; block `i` of `out`
    /// receives position `i` (`out` may hold more blocks than `pos` has
    /// positions; the extra ones are left untouched). Bit-identical to
    /// [`Self::eval`] per position.
    fn eval_batch(&self, kernel: Kernel, pos: &PosBlock<T>, out: &mut BatchOut<Self::Out>);

    /// Evaluate `kernel` for one proposed single-electron move. The grid
    /// locate + basis weights are cached in `ctx` keyed by `pos`, so the
    /// accept-side call on the *same* position (V on propose, then
    /// VGL/VGH on accept) reuses them. Bit-identical to [`Self::eval`],
    /// cache hit or miss.
    fn eval_one(&self, kernel: Kernel, ctx: &mut MoveContext<T>, pos: [T; 3], out: &mut Self::Out);

    /// Values only: [`Self::eval`] with [`Kernel::V`].
    #[inline]
    fn v(&self, pos: [T; 3], out: &mut Self::Out) {
        self.eval(Kernel::V, pos, out);
    }

    /// Value + gradient + Laplacian: [`Self::eval`] with [`Kernel::Vgl`].
    #[inline]
    fn vgl(&self, pos: [T; 3], out: &mut Self::Out) {
        self.eval(Kernel::Vgl, pos, out);
    }

    /// Value + gradient + Hessian: [`Self::eval`] with [`Kernel::Vgh`].
    #[inline]
    fn vgh(&self, pos: [T; 3], out: &mut Self::Out) {
        self.eval(Kernel::Vgh, pos, out);
    }

    /// Values for one move (the determinant-ratio side of the
    /// single-electron protocol): [`Self::eval_one`] with [`Kernel::V`].
    #[inline]
    fn v_one(&self, ctx: &mut MoveContext<T>, pos: [T; 3], out: &mut Self::Out) {
        self.eval_one(Kernel::V, ctx, pos, out);
    }

    /// Value + gradient + Laplacian for one move: [`Self::eval_one`]
    /// with [`Kernel::Vgl`].
    #[inline]
    fn vgl_one(&self, ctx: &mut MoveContext<T>, pos: [T; 3], out: &mut Self::Out) {
        self.eval_one(Kernel::Vgl, ctx, pos, out);
    }

    /// Value + gradient + Hessian for one move: [`Self::eval_one`] with
    /// [`Kernel::Vgh`].
    #[inline]
    fn vgh_one(&self, ctx: &mut MoveContext<T>, pos: [T; 3], out: &mut Self::Out) {
        self.eval_one(Kernel::Vgh, ctx, pos, out);
    }
}

/// The single evaluation body of a native engine. Implementing this is
/// implementing [`SpoEngine`]: the blanket impl below derives the three
/// position-level views from [`EvalCore::eval_located`].
///
/// The scalar type is an associated type (one engine value evaluates in
/// one precision), which is what lets the blanket impl coexist with the
/// adapter impls.
pub trait EvalCore: Send + Sync {
    /// Storage and kernel precision.
    type Scalar: Real;

    /// Per-walker output block type.
    type Out: Send + Clone;

    /// Number of orbitals N.
    fn n_splines(&self) -> usize;

    /// Which data layout this engine implements.
    fn layout(&self) -> Layout;

    /// A coefficient table carrying the engine's grids — what positions
    /// are located against (the blocks of one engine share their grids,
    /// so any of them serves).
    fn grid_coefs(&self) -> &MultiCoefs<Self::Scalar>;

    /// Allocate a matching output block.
    fn make_out(&self) -> Self::Out;

    /// Evaluate `kernel` at every located position: `out[i]` receives
    /// `locs[i]` (one output block per position) and is fully
    /// overwritten in the streams `kernel` produces. Panics if an output
    /// block is too small for the engine — never evaluates a prefix.
    fn eval_located(&self, kernel: Kernel, locs: &[Located<Self::Scalar>], out: &mut [Self::Out]);
}

/// The one always-on output-size check of the native engines: panic
/// unless an output block with room for `have` orbitals can receive the
/// `need` the engine writes. Always on because the kernels write through
/// the block's streams — a short block would otherwise keep stale values
/// or fail deep inside a kernel with an index error.
#[inline]
pub(crate) fn check_out(have: usize, need: usize) {
    assert!(
        have >= need,
        "output block (room for {have} orbitals) too small for {need} orbitals"
    );
}

impl<C: EvalCore> SpoEngine<C::Scalar> for C {
    type Out = C::Out;

    fn n_splines(&self) -> usize {
        EvalCore::n_splines(self)
    }

    fn layout(&self) -> Layout {
        EvalCore::layout(self)
    }

    fn domain(&self) -> [(f64, f64); 3] {
        let (gx, gy, gz) = self.grid_coefs().grids();
        [
            (gx.start(), gx.end()),
            (gy.start(), gy.end()),
            (gz.start(), gz.end()),
        ]
    }

    fn make_out(&self) -> C::Out {
        EvalCore::make_out(self)
    }

    #[inline]
    fn eval(&self, kernel: Kernel, pos: [C::Scalar; 3], out: &mut C::Out) {
        let loc = Located::new(self.grid_coefs(), pos);
        self.eval_located(
            kernel,
            std::slice::from_ref(&loc),
            std::slice::from_mut(out),
        );
    }

    fn eval_batch(&self, kernel: Kernel, pos: &PosBlock<C::Scalar>, out: &mut BatchOut<C::Out>) {
        check_batch(pos.len(), out.len());
        let locs = Located::block(self.grid_coefs(), pos);
        self.eval_located(kernel, &locs, &mut out.blocks_mut()[..pos.len()]);
    }

    #[inline]
    fn eval_one(
        &self,
        kernel: Kernel,
        ctx: &mut MoveContext<C::Scalar>,
        pos: [C::Scalar; 3],
        out: &mut C::Out,
    ) {
        let loc = ctx.located(self.grid_coefs(), pos);
        self.eval_located(
            kernel,
            std::slice::from_ref(&loc),
            std::slice::from_mut(out),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aos::BsplineAoS;
    use crate::aosoa::BsplineAoSoA;
    use crate::output::{WalkerAoS, WalkerSoA};
    use einspline::Grid1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(n: usize) -> MultiCoefs<f32> {
        let g = Grid1::periodic(0.0, 2.0, 6);
        let mut m = MultiCoefs::<f32>::new(g, g, g, n);
        m.fill_random(&mut StdRng::seed_from_u64(11));
        m
    }

    fn eval_values<E: SpoEngine<f32>>(e: &E, k: Kernel) -> Vec<f32>
    where
        E::Out: ValueView,
    {
        let mut out = e.make_out();
        e.eval(k, [0.3, 0.6, 1.2], &mut out);
        (0..e.n_splines()).map(|n| out.value_at(n)).collect()
    }

    trait ValueView {
        fn value_at(&self, n: usize) -> f32;
    }
    impl ValueView for WalkerAoS<f32> {
        fn value_at(&self, n: usize) -> f32 {
            self.value(n)
        }
    }
    impl ValueView for WalkerSoA<f32> {
        fn value_at(&self, n: usize) -> f32 {
            self.value(n)
        }
    }

    #[test]
    fn all_engines_agree_through_the_trait() {
        let t = table(24);
        let aos = BsplineAoS::new(t.clone());
        let soa = crate::soa::BsplineSoA::new(t.clone());
        let tiled = BsplineAoSoA::from_multi(&t, 8);
        for k in Kernel::ALL {
            let va = eval_values(&aos, k);
            let vs = eval_values(&soa, k);
            let vt = eval_values(&tiled, k);
            for n in 0..24 {
                assert!((va[n] - vs[n]).abs() < 1e-4, "{k} n={n}");
                assert_eq!(vs[n], vt[n], "{k} n={n}");
            }
        }
    }

    #[test]
    fn batched_trait_calls_agree_across_simd_backends() {
        use crate::batch::PosBlock;
        use crate::simd::{with_backend, Backend};
        let t = table(40); // ragged against every lane width
        let tiled = BsplineAoSoA::from_multi(&t, 16);
        let block = PosBlock::from_positions(&[[0.3, 0.6, 1.2], [1.7, 0.2, 0.9]]);
        let reference = with_backend(Backend::Scalar, || {
            let mut out = tiled.make_batch_out(block.len());
            tiled.eval_batch(Kernel::Vgh, &block, &mut out);
            (0..2)
                .flat_map(|p| (0..40).map(move |n| (p, n)))
                .map(|(p, n)| out.block(p).value(n))
                .collect::<Vec<_>>()
        });
        for b in Backend::available() {
            let got = with_backend(b, || {
                let mut out = tiled.make_batch_out(block.len());
                tiled.eval_batch(Kernel::Vgh, &block, &mut out);
                (0..2)
                    .flat_map(|p| (0..40).map(move |n| (p, n)))
                    .map(|(p, n)| out.block(p).value(n))
                    .collect::<Vec<_>>()
            });
            for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
                if b.is_fused() {
                    assert_eq!(r, g, "{b} idx={i}");
                } else {
                    assert!((r - g).abs() < 1e-4, "{b} idx={i}: {r} vs {g}");
                }
            }
        }
    }

    #[test]
    fn layouts_and_domain_are_reported() {
        let t = table(8);
        let aos = BsplineAoS::new(t.clone());
        let soa = crate::soa::BsplineSoA::new(t.clone());
        let tiled = BsplineAoSoA::from_multi(&t, 4);
        assert_eq!(SpoEngine::<f32>::layout(&aos), Layout::Aos);
        assert_eq!(SpoEngine::<f32>::layout(&soa), Layout::Soa);
        assert_eq!(SpoEngine::<f32>::layout(&tiled), Layout::AoSoA);
        assert_eq!(SpoEngine::<f32>::domain(&tiled)[0], (0.0, 2.0));
    }
}
