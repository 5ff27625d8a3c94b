//! Mixed-precision orbital evaluation: `f32` coefficient storage, SIMD
//! compute in `f32`, accumulation / delivery in `f64`.
//!
//! # Precision model
//!
//! The paper's production configuration stores the B-spline tables in
//! single precision — halving the memory-bandwidth cost that dominates
//! V/VGL/VGH — while QMCPACK keeps every wavefunction-level reduction
//! (determinant ratios, drift and kinetic derivatives) in double
//! precision. This module makes that trade a first-class, *tested*
//! contract instead of an implicit convention:
//!
//! * tables are solved in `f64` and narrowed once with
//!   [`einspline::MultiCoefs::downcast`] (one correct rounding per
//!   coefficient, lane padding and 64-byte alignment re-established for
//!   the `f32` cache-line quantum);
//! * [`MixedEngine`] wraps any single-precision engine and exposes the
//!   full double-precision [`SpoEngine`] surface: positions narrow at
//!   the input boundary, the inner `f32` engine runs the explicit
//!   [`crate::simd`] micro-kernels, and the outputs widen to `f64` at
//!   the output boundary ([`WidenOut`]) so downstream consumers
//!   (miniqmc's `SpoSet`, determinants, kinetic estimators) accumulate
//!   in `f64`;
//! * the evaluation error of the `f32`/mixed path against the `f64`
//!   reference is bounded by a *documented budget*, asserted by the
//!   workspace conformance suite (`tests/integration_precision.rs`)
//!   across layouts × kernels × backends × batch sizes.
//!
//! # The error budget
//!
//! Budget: **3e-5** ([`F32_REL_ERROR_BUDGET`]), *relative to the spline
//! scale* of the evaluated table ([`spline_scale`]) — **not** relative
//! to each output value, because a B-spline contraction can cancel to
//! arbitrarily small outputs while its rounding error stays at the
//! scale of the *terms*.
//!
//! Derivation (u = 2⁻²⁴ ≈ 5.96e-8, the f32 rounding unit; `G` = grid
//! intervals per dimension, ≤ 48 in every paper workload; `c_max` =
//! largest absolute coefficient):
//!
//! 1. **Storage rounding.** Each coefficient rounds once in
//!    [`einspline::MultiCoefs::downcast`]: ≤ u·c_max per term. A kernel
//!    output is a 64-term contraction whose value-weight magnitudes sum
//!    to 1 (partition of unity), so the contribution is ≤ u per unit of
//!    spline scale.
//! 2. **Input rounding.** The position narrows once: δx ≤ u. First
//!    derivatives of the spline are O(c_max·G), so the induced output
//!    perturbation is ≤ u·G per unit of scale (one derivative order
//!    higher than the stream itself, same relative size after the
//!    scale normalization below).
//! 3. **Weight arithmetic.** Each of the 12 per-dimension basis weights
//!    is a ≈ 5-op f32 chain: ≲ 8u relative per weight, ≤ 3 weights per
//!    term → ≤ 24u per unit of scale.
//! 4. **Accumulation.** 64 fused multiply-adds per output component
//!    (the [`crate::simd`] kernels and the scalar reference perform the
//!    identical elementwise chain): ≤ 64u per unit of scale. The
//!    Laplacian sums three second-derivative streams: ×3.
//!
//! Total ≲ u·(1 + G + 24 + 3·64) ≈ 265u ≈ 1.6e-5 for G = 48. The
//! committed budget **3e-5** carries a ≈ 2× headroom over that bound
//! for unmodeled worst-case alignment of the four sources (the worst
//! deviation actually measured on 48³ random tables is ≈ 9e-6, so the
//! budget is ≈ 3× above observed reality and ≈ 2× above the analytic
//! bound); the conformance suite fails if the constant is loosened
//! without updating this paragraph (the test extracts the bold value
//! above and compares it against the constant).
//!
//! Streams are normalized per derivative order: value streams by
//! `c_max`, gradients by `c_max·G`, Hessians/Laplacians by `c_max·G²`
//! — the natural magnitudes of a spline and its derivatives on a grid
//! of spacing `1/G`.
//!
//! # Beside the interpolation error
//!
//! The `f64` interpolation error itself (orders h⁴/h³/h² for
//! value/gradient/Laplacian, as Parker et al., arXiv:1309.6250, tabulate
//! it) is measured against closed forms by `tests/integration_physics.rs`.
//! On the ledger's 48³ grid, for the plane waves `|n|² ≤ 2` of the unit
//! cube, it is, in the same spline-scale units as the budget:
//!
//! | stream    | f64 spline error at 48³ | budget |
//! |-----------|-------------------------|--------|
//! | value     | 1.5e-6                  | 3e-5   |
//! | gradient  | 2.3e-6                  | 3e-5   |
//! | Laplacian | 4.5e-5                  | 3e-5   |
//!
//! So the budget, a worst-case bound, sits above the interpolation
//! error of value and gradient for such smooth orbitals and below it
//! only for the Laplacian. What `f32` storage actually adds is far
//! smaller than either: on the same waves at 32³ the f32 and mixed
//! engines' largest errors against the closed form differ from the f64
//! engine's by at most ≈ 3e-7 of the scale.
//!
//! # Quick example
//!
//! ```
//! use bspline::precision::MixedEngine;
//! use bspline::SpoEngine;
//! use einspline::{Grid1, MultiCoefs};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Solve/fill in f64, store f32, evaluate with f64 delivery.
//! let g = Grid1::periodic(0.0, 1.0, 8);
//! let mut table = MultiCoefs::<f64>::new(g, g, g, 16);
//! table.fill_random(&mut StdRng::seed_from_u64(1));
//! let engine = MixedEngine::soa(&table);
//! let mut out = engine.make_out();
//! engine.vgh([0.3f64, 0.7, 0.1], &mut out);
//! let v: f64 = out.wide().value(5); // f64 at the boundary
//! assert!(v.is_finite());
//! ```

use crate::aos::BsplineAoS;
use crate::aosoa::BsplineAoSoA;
use crate::batch::{check_batch, BatchOut, PosBlock};
use crate::blocked::BlockedEngine;
use crate::engine::SpoEngine;
use crate::layout::{Kernel, Layout};
use crate::output::{WalkerAoS, WalkerSoA};
use crate::soa::BsplineSoA;
use einspline::multi::MultiCoefs;
use einspline::Real;

/// Maximum allowed deviation of any `f32`/mixed kernel output from the
/// `f64` reference, in units of the evaluated table's [`spline_scale`]
/// for the output's derivative order. Derived in the module docs; the
/// conformance suite asserts the docs quote this exact value, so it
/// cannot be loosened silently.
pub const F32_REL_ERROR_BUDGET: f64 = 3e-5;

/// Per-derivative-order normalization magnitudes of one coefficient
/// table: the "spline scale" the error budget is relative to.
#[derive(Clone, Copy, Debug)]
pub struct SplineScale {
    /// Scale of value streams: the largest absolute coefficient.
    pub value: f64,
    /// Scale of gradient streams: `value · G` (G = max grid intervals
    /// per dimension ≈ max `delta_inv` on the unit cube).
    pub gradient: f64,
    /// Scale of Hessian / Laplacian streams: `value · G²`.
    pub hessian: f64,
}

impl SplineScale {
    /// Scale for a stream of the given derivative order (0 = value,
    /// 1 = gradient, 2 = Hessian/Laplacian).
    pub fn for_order(&self, order: usize) -> f64 {
        match order {
            0 => self.value,
            1 => self.gradient,
            _ => self.hessian,
        }
    }
}

/// Measure the [`SplineScale`] of a table: one pass over the
/// coefficients for `c_max`, grid `delta_inv` for the derivative
/// factors. Degenerate all-zero tables report scale 1 so budget checks
/// stay meaningful (`0 ≤ budget·1`).
pub fn spline_scale<T: Real>(coefs: &MultiCoefs<T>) -> SplineScale {
    let (gx, gy, gz) = coefs.grids();
    let (px, py, pz) = coefs.layout().dims();
    let mut c_max = 0.0f64;
    for ix in 0..px {
        for iy in 0..py {
            for iz in 0..pz {
                for &c in &coefs.line(ix, iy, iz)[..coefs.n_splines()] {
                    c_max = c_max.max(c.to_f64().abs());
                }
            }
        }
    }
    if c_max == 0.0 {
        c_max = 1.0;
    }
    let g = gx
        .delta_inv()
        .max(gy.delta_inv())
        .max(gz.delta_inv())
        .max(1.0);
    SplineScale {
        value: c_max,
        gradient: c_max * g,
        hessian: c_max * g * g,
    }
}

/// A single-precision per-walker output block that can widen itself
/// into a double-precision twin — the output-boundary half of the
/// mixed-precision contract. Implemented by both walker output
/// layouts.
pub trait WidenOut: Send + Clone {
    /// The double-precision twin (same layout, `f64` streams).
    type Wide: Send + Clone;

    /// Allocate a zeroed wide twin matching this block's shape.
    fn make_wide(&self) -> Self::Wide;

    /// Copy the streams `kernel` produced into the wide twin, widening
    /// each element once (`f32 → f64` is exact).
    fn widen_into(&self, kernel: Kernel, wide: &mut Self::Wide);

    /// A zero-orbital placeholder used to momentarily swap blocks out
    /// of a [`BatchOut`] (see [`MixedEngine`]'s batched paths). Cheap:
    /// no stream allocates.
    fn placeholder() -> Self;
}

#[inline]
fn widen_stream(src: &[f32], dst: &mut [f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = f64::from(*s);
    }
}

impl WidenOut for WalkerAoS<f32> {
    type Wide = WalkerAoS<f64>;

    fn make_wide(&self) -> WalkerAoS<f64> {
        WalkerAoS::new(self.n_splines())
    }

    fn widen_into(&self, kernel: Kernel, wide: &mut WalkerAoS<f64>) {
        widen_stream(&self.v, &mut wide.v);
        if matches!(kernel, Kernel::Vgl | Kernel::Vgh) {
            widen_stream(&self.g, &mut wide.g);
        }
        if matches!(kernel, Kernel::Vgl) {
            widen_stream(&self.l, &mut wide.l);
        }
        if matches!(kernel, Kernel::Vgh) {
            widen_stream(&self.h, &mut wide.h);
        }
    }

    fn placeholder() -> Self {
        WalkerAoS::new(0)
    }
}

impl WidenOut for WalkerSoA<f32> {
    type Wide = WalkerSoA<f64>;

    fn make_wide(&self) -> WalkerSoA<f64> {
        WalkerSoA::new(self.n_splines())
    }

    fn widen_into(&self, kernel: Kernel, wide: &mut WalkerSoA<f64>) {
        // The f32 and f64 twins pad to different cache-line quanta;
        // zip covers min(strides) ≥ n_splines, which is every logical
        // element.
        widen_stream(&self.v, &mut wide.v);
        if matches!(kernel, Kernel::Vgl | Kernel::Vgh) {
            widen_stream(&self.gx, &mut wide.gx);
            widen_stream(&self.gy, &mut wide.gy);
            widen_stream(&self.gz, &mut wide.gz);
        }
        if matches!(kernel, Kernel::Vgl) {
            widen_stream(&self.l, &mut wide.l);
        }
        if matches!(kernel, Kernel::Vgh) {
            widen_stream(&self.hxx, &mut wide.hxx);
            widen_stream(&self.hxy, &mut wide.hxy);
            widen_stream(&self.hxz, &mut wide.hxz);
            widen_stream(&self.hyy, &mut wide.hyy);
            widen_stream(&self.hyz, &mut wide.hyz);
            widen_stream(&self.hzz, &mut wide.hzz);
        }
    }

    fn placeholder() -> Self {
        WalkerSoA::new(0)
    }
}

/// The caller-owned output block of a [`MixedEngine`]: the inner
/// engine's `f32` block plus its widened `f64` twin. Kernel calls
/// overwrite the narrow block and refresh the wide one; consumers read
/// [`MixedOut::wide`].
#[derive(Clone)]
pub struct MixedOut<O: WidenOut> {
    narrow: O,
    wide: O::Wide,
}

impl<O: WidenOut> MixedOut<O> {
    /// The double-precision view — what downstream accumulation reads.
    #[inline]
    pub fn wide(&self) -> &O::Wide {
        &self.wide
    }

    /// The single-precision block the kernels actually wrote (parity
    /// tests assert `wide` is its exact widening).
    #[inline]
    pub fn narrow(&self) -> &O {
        &self.narrow
    }
}

/// Mixed-precision adapter around any single-precision engine `E`:
/// implements the three double-precision [`SpoEngine`] views by
/// narrowing positions at the input boundary, running the matching
/// view of `E` (its `f32` SIMD micro-kernels), and widening outputs at
/// the output boundary.
///
/// The batched view preserves `E`'s native batching (hoisted basis
/// weights, block-major order for the blocked engine): the narrow blocks
/// are temporarily re-wrapped into a `BatchOut<E::Out>` and handed to
/// the inner batched call, so the mixed path pays only the position
/// narrowing and the output widening on top of the pure-`f32` path.
#[derive(Clone, Debug)]
pub struct MixedEngine<E> {
    inner: E,
}

impl<E> MixedEngine<E> {
    /// Wrap an existing single-precision engine.
    pub fn new(inner: E) -> Self {
        Self { inner }
    }

    /// The wrapped single-precision engine.
    #[inline]
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl MixedEngine<BsplineAoS<f32>> {
    /// Mixed-precision AoS engine from a double-precision table
    /// (solve in `f64`, store `f32`).
    pub fn aos(coefs: &MultiCoefs<f64>) -> Self {
        Self::new(BsplineAoS::new(coefs.downcast()))
    }
}

impl MixedEngine<BsplineSoA<f32>> {
    /// Mixed-precision SoA engine from a double-precision table
    /// (solve in `f64`, store `f32`).
    pub fn soa(coefs: &MultiCoefs<f64>) -> Self {
        Self::new(BsplineSoA::new(coefs.downcast()))
    }
}

impl MixedEngine<BlockedEngine<BsplineSoA<f32>>> {
    /// Mixed-precision AoSoA engine from a double-precision table
    /// (solve in `f64`, store `f32`, tile by `nb`).
    pub fn aosoa(coefs: &MultiCoefs<f64>, nb: usize) -> Self {
        Self::new(BsplineAoSoA::from_multi(&coefs.downcast(), nb))
    }

    /// Mixed-precision blocked engine from a double-precision table
    /// (solve in `f64`, store `f32`, orbital-block-decompose to
    /// `budget_bytes` — [`crate::blocked::BlockedEngine::from_multi`],
    /// including its first-touch construction; at B = 1 the one block
    /// is the down-cast table itself). The `f32` budget buys
    /// twice the orbitals per cache-sized block compared to an `f64`
    /// decomposition of the same byte budget.
    pub fn blocked(coefs: &MultiCoefs<f64>, budget_bytes: usize) -> Self {
        Self::new(BlockedEngine::from_multi(&coefs.downcast(), budget_bytes))
    }
}

#[inline]
fn narrow_pos(pos: [f64; 3]) -> [f32; 3] {
    [pos[0] as f32, pos[1] as f32, pos[2] as f32]
}

impl<E, O> SpoEngine<f64> for MixedEngine<E>
where
    E: SpoEngine<f32, Out = O>,
    O: WidenOut,
{
    type Out = MixedOut<O>;

    fn n_splines(&self) -> usize {
        self.inner.n_splines()
    }

    fn layout(&self) -> Layout {
        self.inner.layout()
    }

    fn domain(&self) -> [(f64, f64); 3] {
        self.inner.domain()
    }

    fn make_out(&self) -> MixedOut<O> {
        let narrow = self.inner.make_out();
        let wide = narrow.make_wide();
        MixedOut { narrow, wide }
    }

    fn eval(&self, kernel: Kernel, pos: [f64; 3], out: &mut MixedOut<O>) {
        self.inner.eval(kernel, narrow_pos(pos), &mut out.narrow);
        out.narrow.widen_into(kernel, &mut out.wide);
    }

    fn eval_batch(&self, kernel: Kernel, pos: &PosBlock<f64>, out: &mut BatchOut<MixedOut<O>>) {
        check_batch(pos.len(), out.len());
        let pos32: PosBlock<f32> = pos.cast();
        // Lend the narrow blocks to the inner engine's native batched
        // path (placeholders hold the seats), then take them back and
        // refresh the wide twins.
        let narrow: Vec<O> = out.blocks_mut()[..pos.len()]
            .iter_mut()
            .map(|b| std::mem::replace(&mut b.narrow, O::placeholder()))
            .collect();
        let mut inner_out = BatchOut::from_blocks(narrow);
        self.inner.eval_batch(kernel, &pos32, &mut inner_out);
        for (b, n) in out.blocks_mut()[..pos.len()]
            .iter_mut()
            .zip(inner_out.into_blocks())
        {
            b.narrow = n;
            b.narrow.widen_into(kernel, &mut b.wide);
        }
    }

    /// Narrow the position once per move and run the inner engine's
    /// one-move view with the `f32` sub-context, so the inner
    /// locate/weights are cached across the propose→accept pair.
    fn eval_one(
        &self,
        kernel: Kernel,
        ctx: &mut crate::onemove::MoveContext<f64>,
        pos: [f64; 3],
        out: &mut MixedOut<O>,
    ) {
        self.inner
            .eval_one(kernel, ctx.narrow(), narrow_pos(pos), &mut out.narrow);
        out.narrow.widen_into(kernel, &mut out.wide);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use einspline::Grid1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn wide_table(n: usize, ng: usize, seed: u64) -> MultiCoefs<f64> {
        let g = Grid1::periodic(0.0, 1.0, ng);
        let mut m = MultiCoefs::<f64>::new(g, g, g, n);
        m.fill_random(&mut StdRng::seed_from_u64(seed));
        m
    }

    #[test]
    fn budget_docs_quote_the_constant() {
        // The same coupling the workspace conformance suite enforces,
        // kept here too so a crate-local edit cannot drift.
        let docs = include_str!("precision.rs");
        let quoted = format!("**{:e}**", F32_REL_ERROR_BUDGET);
        assert!(
            docs.lines()
                .filter(|l| l.starts_with("//!"))
                .any(|l| l.contains(&quoted)),
            "module docs must quote the budget as {quoted}"
        );
    }

    #[test]
    fn spline_scale_orders_multiply_by_grid() {
        let t = wide_table(6, 8, 3);
        let s = spline_scale(&t);
        assert!(s.value > 0.0 && s.value <= 0.5 + 1e-9);
        assert!((s.gradient / s.value - 8.0).abs() < 1e-12);
        assert!((s.hessian / s.value - 64.0).abs() < 1e-12);
        assert_eq!(s.for_order(0), s.value);
        assert_eq!(s.for_order(1), s.gradient);
        assert_eq!(s.for_order(2), s.hessian);
        // All-zero table: scale floors at 1.
        let z = MultiCoefs::<f64>::new(
            Grid1::periodic(0.0, 1.0, 4),
            Grid1::periodic(0.0, 1.0, 4),
            Grid1::periodic(0.0, 1.0, 4),
            2,
        );
        assert_eq!(spline_scale(&z).value, 1.0);
    }

    #[test]
    fn mixed_wide_is_exact_widening_of_narrow() {
        let t = wide_table(10, 6, 7);
        let engine = MixedEngine::soa(&t);
        let mut out = engine.make_out();
        engine.vgh([0.31f64, 0.77, 0.12], &mut out);
        for k in 0..10 {
            assert_eq!(out.wide().value(k), f64::from(out.narrow().value(k)));
            for d in 0..3 {
                assert_eq!(
                    out.wide().gradient(k)[d],
                    f64::from(out.narrow().gradient(k)[d])
                );
            }
            for r in 0..6 {
                assert_eq!(
                    out.wide().hessian(k)[r],
                    f64::from(out.narrow().hessian(k)[r])
                );
            }
        }
    }

    #[test]
    fn mixed_batched_matches_mixed_scalar_loop() {
        let t = wide_table(13, 6, 11); // ragged against every lane width
        for nb in [4usize, 13] {
            let engine = MixedEngine::aosoa(&t, nb);
            let pos: Vec<[f64; 3]> =
                vec![[0.1, 0.5, 0.9], [0.33, 0.66, 0.05], [0.72, 0.2, 0.48]];
            let block: PosBlock<f64> = pos.iter().copied().collect();
            let mut bout = engine.make_batch_out(block.len());
            engine.eval_batch(Kernel::Vgh, &block, &mut bout);
            let mut sout = engine.make_out();
            for (i, p) in pos.iter().enumerate() {
                engine.vgh(*p, &mut sout);
                for k in 0..13 {
                    assert_eq!(
                        bout.block(i).wide().value(k),
                        sout.wide().value(k),
                        "i={i} k={k}"
                    );
                    assert_eq!(
                        bout.block(i).wide().hessian(k),
                        sout.wide().hessian(k)
                    );
                }
            }
        }
    }

    #[test]
    fn batched_handles_empty_and_single_blocks() {
        let t = wide_table(5, 5, 23);
        let engine = MixedEngine::aos(&t);
        let empty = PosBlock::<f64>::new();
        let mut out0 = engine.make_batch_out(0);
        engine.eval_batch(Kernel::V, &empty, &mut out0); // no-op, no panic
        let one: PosBlock<f64> = [[0.4f64, 0.4, 0.4]].into_iter().collect();
        let mut out1 = engine.make_batch_out(1);
        engine.eval_batch(Kernel::Vgl, &one, &mut out1);
        let mut scalar = engine.make_out();
        engine.vgl([0.4, 0.4, 0.4], &mut scalar);
        for k in 0..5 {
            assert_eq!(out1.block(0).wide().value(k), scalar.wide().value(k));
            assert_eq!(
                out1.block(0).wide().laplacian(k),
                scalar.wide().laplacian(k)
            );
        }
    }

    #[test]
    fn mixed_blocked_matches_mixed_soa_exactly() {
        let t = wide_table(20, 6, 31);
        let mono = MixedEngine::soa(&t);
        // Budget of 1 byte floors to one f32 cache-line quantum (16
        // splines) per block: 2 blocks with a ragged 4-spline tail.
        let blocked = MixedEngine::blocked(&t, 1);
        assert_eq!(blocked.inner().n_blocks(), 2);
        let (mut a, mut b) = (mono.make_out(), blocked.make_out());
        for pos in [[0.21f64, 0.63, 0.84], [0.95, 0.02, 0.47]] {
            mono.vgh(pos, &mut a);
            blocked.vgh(pos, &mut b);
            for k in 0..20 {
                assert_eq!(a.wide().value(k), b.wide().value(k), "k={k}");
                assert_eq!(a.wide().hessian(k), b.wide().hessian(k), "k={k}");
            }
        }
        // Batched path too (block-major inner loop + widening).
        let block: PosBlock<f64> =
            [[0.1f64, 0.2, 0.3], [0.7, 0.8, 0.9]].into_iter().collect();
        let mut bout = blocked.make_batch_out(block.len());
        blocked.eval_batch(Kernel::Vgl, &block, &mut bout);
        let mut sout = mono.make_out();
        for (i, p) in block.iter().enumerate() {
            mono.vgl(p, &mut sout);
            for k in 0..20 {
                assert_eq!(bout.block(i).wide().laplacian(k), sout.wide().laplacian(k));
            }
        }
    }

    #[test]
    fn layout_and_shape_delegate_to_inner() {
        let t = wide_table(8, 5, 2);
        let soa = MixedEngine::soa(&t);
        let aos = MixedEngine::aos(&t);
        let tiled = MixedEngine::aosoa(&t, 4);
        assert_eq!(SpoEngine::<f64>::layout(&soa), Layout::Soa);
        assert_eq!(SpoEngine::<f64>::layout(&aos), Layout::Aos);
        assert_eq!(SpoEngine::<f64>::layout(&tiled), Layout::AoSoA);
        assert_eq!(SpoEngine::<f64>::n_splines(&tiled), 8);
        assert_eq!(SpoEngine::<f64>::domain(&soa)[0], (0.0, 1.0));
        assert_eq!(tiled.inner().n_blocks(), 2);
    }
}
