//! `BlockedEngine` — the orbital-block decomposition: one logical
//! multi-spline object served by `B` independent, cache-budget-sized
//! spline blocks (paper Sec. IV–V: "multiple spline objects … so that
//! the block of read-only coefficient data fits in cache", the substrate
//! of the Fig. 9/10 nested-threading scaling).
//!
//! # One tile-major core
//!
//! This is the workspace's one tiled engine: the paper's AoSoA tiles
//! ([`crate::aosoa::BsplineAoSoA`]) are its blocks at a fixed width. A
//! block's width comes either from a *byte budget*
//! ([`einspline::MultiCoefs::block_splines_for_budget`]: the widest
//! block whose standalone slab fits the target cache level, quantized
//! to the cache-line padding unit so block boundaries in the output stay
//! 64-byte aligned) or explicitly ([`BlockedEngine::with_block_size`]).
//! Every block scatters **in place** into its orbital range of the
//! caller's one contiguous [`WalkerSoA`] (a [`SoAStreamsMut`] sub-range,
//! no copy), so miniqmc's `SpoSet` consumes it like a monolithic SoA
//! engine. The grid locate + basis weights ([`Located`]) are computed
//! once per position and shared by every block; the batch loop is
//! block-major and prefetches the next block's coefficient runs one
//! evaluation ahead (x86-64 only). Blocks share nothing, so a
//! walker's evaluation splits across threads by block range
//! ([`crate::parallel::run_nested_blocked`]), and [`BlockedEngine::from_multi`]
//! builds each block on the thread the static nested schedule assigns
//! it to, so on a NUMA host its pages are first touched where they are
//! streamed (exact with a pinned pool; approximated by the vendored
//! scoped-thread rayon stub). At `B = 1` (the default budget for every
//! table that fits the LLC) the one block *is* the caller's table: a
//! whole-range [`MultiCoefs::slice_splines`] shares its storage, so it
//! is neither copied nor first-touched again.
//!
//! Results are **bit-identical** to the monolithic SoA engine on every
//! backend, for every kernel and block width: the per-orbital operation
//! chain only reads that orbital's own coefficient line elements and the
//! shared weights, and the vector body and the ragged tail fuse alike,
//! so splitting the spline dimension reorders nothing
//! (`tests/integration_blocked.rs` property-tests this across budgets,
//! including `B = 1`, ragged last blocks and blocks narrower than one
//! SIMD register).

use crate::batch::{Located, PosBlock};
use crate::engine::check_out;
use crate::layout::{Kernel, Layout};
use crate::output::{SoAStreamsMut, WalkerSoA};
use crate::soa::BsplineSoA;
use einspline::multi::MultiCoefs;
use einspline::Real;
use rayon::prelude::*;

/// Blocked multi-orbital evaluator: `B` cache-sized spline blocks
/// behind the monolithic [`SpoEngine`](crate::engine::SpoEngine)
/// surface (module docs). Each
/// block is a [`BsplineSoA`] over its orbital range.
#[derive(Clone, Debug)]
pub struct BlockedEngine<E> {
    blocks: Vec<E>,
    /// Orbital offset of each block plus the total: `bounds[b]` is
    /// block `b`'s first global orbital, `bounds[B] = N`.
    bounds: Vec<usize>,
    nb: usize,
    n_splines: usize,
    /// The byte budget the block width was derived from (0 when the
    /// width was given explicitly).
    budget: usize,
}

impl<T: Real> BlockedEngine<BsplineSoA<T>> {
    /// Split `coefs` into blocks whose coefficient slab fits
    /// `budget_bytes` and build one [`BsplineSoA`] per block, each
    /// constructed (allocated **and** written) on the thread the static
    /// nested schedule assigns it to — the first-touch path. When the
    /// whole table fits the budget (B = 1) the one block shares
    /// `coefs`'s storage: no copy, and its pages stay where the caller
    /// first touched them.
    pub fn from_multi(coefs: &MultiCoefs<T>, budget_bytes: usize) -> Self {
        let nb = coefs.block_splines_for_budget(budget_bytes);
        Self::build(coefs, nb, budget_bytes)
    }

    /// Build with an explicit block width — the AoSoA tile decomposition
    /// ([`crate::aosoa::BsplineAoSoA`]). No budget semantics: any
    /// `nb ≥ 1`, including widths narrower than a SIMD register.
    pub fn with_block_size(coefs: &MultiCoefs<T>, nb: usize) -> Self {
        assert!(nb > 0, "block width must be positive");
        Self::build(coefs, nb.min(coefs.n_splines()), 0)
    }

    fn build(coefs: &MultiCoefs<T>, nb: usize, budget: usize) -> Self {
        let n = coefs.n_splines();
        let ranges: Vec<(usize, usize)> = (0..n.div_ceil(nb))
            .map(|b| (b * nb, ((b + 1) * nb).min(n)))
            .collect();
        // Parallel construction = first-touch: the rayon partition that
        // builds block b is the same balanced static partition the
        // nested schedule uses to evaluate it, so each worker writes
        // (first-touches) exactly the slabs it will later stream. One
        // block spanning every orbital is the caller's table, shared.
        let blocks: Vec<BsplineSoA<T>> = ranges
            .into_par_iter()
            .map(|(lo, hi)| BsplineSoA::new(coefs.slice_splines(lo, hi)))
            .collect();
        Self::from_blocks(blocks, nb, budget)
    }

    fn from_blocks(blocks: Vec<BsplineSoA<T>>, nb: usize, budget: usize) -> Self {
        assert!(!blocks.is_empty(), "need at least one block");
        let mut bounds = Vec::with_capacity(blocks.len() + 1);
        let mut n_splines = 0;
        bounds.push(0);
        for b in &blocks {
            n_splines += b.n_splines();
            bounds.push(n_splines);
        }
        let g0 = blocks[0].coefs().grids();
        let grids = (*g0.0, *g0.1, *g0.2);
        for b in &blocks[1..] {
            let g = b.coefs().grids();
            assert_eq!((*g.0, *g.1, *g.2), grids, "blocks must share grids");
        }
        Self {
            blocks,
            bounds,
            nb,
            n_splines,
            budget,
        }
    }
}

impl<E> BlockedEngine<E> {
    /// Number of blocks B.
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Nominal block width (the last block may hold fewer splines).
    #[inline]
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// The byte budget the decomposition was derived from (0 when the
    /// block width was explicit).
    #[inline]
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Per-block engines.
    #[inline]
    pub fn blocks(&self) -> &[E] {
        &self.blocks
    }

    /// Block `b`.
    #[inline]
    pub fn block(&self, b: usize) -> &E {
        &self.blocks[b]
    }

    /// Global orbital range `[lo, hi)` of block `b`.
    #[inline]
    pub fn block_range(&self, b: usize) -> (usize, usize) {
        (self.bounds[b], self.bounds[b + 1])
    }

    /// Global orbital range covered by the contiguous block chunk
    /// `[lo_block, hi_block)` — the nested work-item bound.
    #[inline]
    pub fn chunk_range(&self, lo_block: usize, hi_block: usize) -> (usize, usize) {
        (self.bounds[lo_block], self.bounds[hi_block])
    }

    /// Map a global orbital index to `(block, offset)`.
    #[inline]
    pub fn locate_orbital(&self, n: usize) -> (usize, usize) {
        debug_assert!(n < self.n_splines, "orbital index out of range");
        (n / self.nb, n % self.nb)
    }
}

impl<T: Real> BlockedEngine<BsplineSoA<T>> {
    /// Coefficient-slab bytes of the widest block (what the budget
    /// bounded).
    pub fn block_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.coefs().bytes())
            .max()
            .unwrap_or(0)
    }

    /// Locate every position of a block against the (shared) grids —
    /// the once-per-position hoist every block reuses.
    #[inline]
    pub fn locate_block(&self, pos: &PosBlock<T>) -> Vec<Located<T>> {
        Located::block(self.blocks[0].coefs(), pos)
    }

    /// Evaluate one block over a pre-located position into the view at
    /// the block's output range — the nested-threading unit of work
    /// (the scheduler owns the view arithmetic; `out.len()` must be
    /// block `b`'s spline count).
    #[inline]
    pub fn eval_block_located(
        &self,
        b: usize,
        kernel: Kernel,
        loc: &Located<T>,
        out: SoAStreamsMut<'_, T>,
    ) {
        debug_assert_eq!(out.len(), self.bounds[b + 1] - self.bounds[b]);
        self.blocks[b].eval_streams(kernel, loc, out);
    }

    /// Prefetch block `b`'s coefficient runs for `loc` (no-op when `b`
    /// is out of range — callers pass `b + 1` unconditionally).
    #[inline]
    pub(crate) fn prefetch_block(&self, b: usize, loc: &Located<T>) {
        if let Some(next) = self.blocks.get(b) {
            crate::simd::prefetch_tile(next.coefs(), loc);
        }
    }

    /// Prefetch one evaluation ahead of `(b, i)` in a block-major sweep
    /// over `locs`: the current block's next position while inside the
    /// block, the next block's first position at the block switch. One
    /// evaluation (`64·nb` coefficient reads) is far enough for the
    /// lines and their TLB entries to arrive, close enough that they
    /// are not evicted before use. `b_end` is the sweep's exclusive
    /// upper block (a nested work item's chunk bound): no prefetch is
    /// issued past it — the next block over the boundary belongs to
    /// another work item, likely streaming its own slab concurrently.
    #[inline]
    pub(crate) fn prefetch_ahead(
        &self,
        b: usize,
        b_end: usize,
        i: usize,
        locs: &[Located<T>],
    ) {
        match locs.get(i + 1) {
            Some(next) => self.prefetch_block(b, next),
            None if b + 1 < b_end => {
                if let Some(first) = locs.first() {
                    self.prefetch_block(b + 1, first);
                }
            }
            None => {}
        }
    }
}

impl<T: Real> crate::engine::EvalCore for BlockedEngine<BsplineSoA<T>> {
    type Scalar = T;
    type Out = WalkerSoA<T>;

    fn n_splines(&self) -> usize {
        self.n_splines
    }

    /// Blocked coefficients behind contiguous SoA outputs; reported as
    /// [`Layout::AoSoA`] (the input-side decomposition is the AoSoA
    /// transformation lifted to engine granularity).
    fn layout(&self) -> Layout {
        Layout::AoSoA
    }

    fn grid_coefs(&self) -> &MultiCoefs<T> {
        self.blocks[0].coefs()
    }

    fn make_out(&self) -> WalkerSoA<T> {
        WalkerSoA::new(self.n_splines)
    }

    /// **Block-major** (the Fig. 6 loop order at block granularity):
    /// one block's coefficient slab serves every position of the slice
    /// before the next block is touched, the per-position [`Located`]
    /// hoist is shared by all blocks, each block scatters in place into
    /// its orbital range of the caller's streams, and the coefficient
    /// runs one evaluation ahead are prefetched (the same block's next
    /// position, or — always, at a slice of 1 — the next block's first
    /// position at the block switch).
    fn eval_located(
        &self,
        kernel: Kernel,
        locs: &[Located<T>],
        out: &mut [WalkerSoA<T>],
    ) {
        for block_out in out.iter() {
            check_out(block_out.stride(), self.n_splines);
        }
        let b_end = self.blocks.len();
        for b in 0..b_end {
            let (lo, hi) = self.block_range(b);
            for (i, (loc, block_out)) in locs.iter().zip(out.iter_mut()).enumerate() {
                self.prefetch_ahead(b, b_end, i, locs);
                self.blocks[b].eval_streams(kernel, loc, block_out.streams_range_mut(lo, hi));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SpoEngine;
    use einspline::Grid1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(n: usize, seed: u64) -> MultiCoefs<f32> {
        let g = Grid1::periodic(0.0, 1.0, 6);
        let mut m = MultiCoefs::<f32>::new(g, g, g, n);
        m.fill_random(&mut StdRng::seed_from_u64(seed));
        m
    }

    /// Under every backend, whatever `QMC_SIMD` says: a block of one
    /// orbital runs the kernels' one-lane tail, wider blocks their
    /// vector body, and both fuse alike.
    #[test]
    fn blocked_bit_matches_monolithic_soa() {
        use crate::simd::{with_backend, Backend};
        let t = table(40, 5);
        let mono = BsplineSoA::new(t.clone());
        let pos = [0.31f32, 0.72, 0.18];
        let mut want = WalkerSoA::new(40);
        let backends = Backend::available().into_iter();
        for (backend, nb) in backends.flat_map(|b| [1usize, 3, 16, 17, 40].map(|nb| (b, nb))) {
            let blocked = BlockedEngine::with_block_size(&t, nb);
            let mut got = blocked.make_out();
            for k in Kernel::ALL {
                with_backend(backend, || {
                    let all = want.streams_range_mut(0, want.stride());
                    mono.eval_streams(k, &Located::new(&t, pos), all);
                    blocked.eval(k, pos, &mut got);
                });
                for n in 0..40 {
                    let at = format!("{backend} {k} nb={nb} n={n}");
                    assert_eq!(want.value(n), got.value(n), "{at}");
                    match k {
                        Kernel::V => {}
                        Kernel::Vgl => {
                            assert_eq!(want.gradient(n), got.gradient(n), "{at}");
                            assert_eq!(want.laplacian(n), got.laplacian(n), "{at}");
                        }
                        Kernel::Vgh => {
                            assert_eq!(want.gradient(n), got.gradient(n), "{at}");
                            assert_eq!(want.hessian(n), got.hessian(n), "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn budget_construction_reports_shape() {
        let t = table(64, 9);
        // Budget for two 16-spline quanta per block: the bytes of a
        // 32-spline table (its row pad is not twice a 16-spline one's).
        let budget = einspline::multi::table_bytes_in::<f32>((6, 6, 6), 32);
        let blocked = BlockedEngine::from_multi(&t, budget);
        assert_eq!(blocked.nb(), 32);
        assert_eq!(blocked.n_blocks(), 2);
        assert_eq!(SpoEngine::<f32>::n_splines(&blocked), 64);
        assert_eq!(blocked.block_range(1), (32, 64));
        assert_eq!(blocked.chunk_range(0, 2), (0, 64));
        assert_eq!(blocked.locate_orbital(33), (1, 1));
        assert!(blocked.block_bytes() <= blocked.budget_bytes());
        assert_eq!(SpoEngine::<f32>::layout(&blocked), Layout::AoSoA);
        assert_eq!(SpoEngine::<f32>::domain(&blocked)[2], (0.0, 1.0));
    }

    #[test]
    fn whole_table_budget_shares_the_callers_table() {
        let t = table(40, 3);
        let blocked = BlockedEngine::from_multi(&t, t.bytes());
        assert_eq!(blocked.n_blocks(), 1);
        let shared = blocked.block(0).coefs();
        assert_eq!(shared.line(0, 0, 0).as_ptr(), t.line(0, 0, 0).as_ptr());
    }

    #[test]
    fn batched_matches_scalar_loop_exactly() {
        let t = table(21, 13); // ragged against every lane width
        let blocked = BlockedEngine::with_block_size(&t, 8);
        let block: PosBlock<f32> =
            [[0.1f32, 0.5, 0.9], [0.33, 0.66, 0.05], [0.72, 0.2, 0.48]]
                .into_iter()
                .collect();
        let mut bout = blocked.make_batch_out(block.len());
        blocked.eval_batch(Kernel::Vgh, &block, &mut bout);
        let mut sout = blocked.make_out();
        for (i, p) in block.iter().enumerate() {
            blocked.vgh(p, &mut sout);
            for n in 0..21 {
                assert_eq!(bout.block(i).value(n), sout.value(n), "i={i} n={n}");
                assert_eq!(bout.block(i).hessian(n), sout.hessian(n));
            }
        }
    }

    /// The shared always-on size check of the core: every native engine
    /// panics on a short output block instead of evaluating a prefix
    /// (also in release builds — `cargo test --release` runs this too).
    /// The first two are caught and their message checked; the blocked
    /// engine's panic is the one the attribute expects.
    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_output_rejected() {
        fn rejects<E: SpoEngine<f32>>(engine: &E, mut small: E::Out) {
            let layout = engine.layout();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.vgh([0.5, 0.5, 0.5], &mut small)
            }))
            .expect_err("short output must be rejected");
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(msg.contains("too small"), "{layout}: wrong message: {msg}");
        }
        let t = table(40, 2);
        rejects(&BsplineSoA::new(t.clone()), WalkerSoA::new(16));
        rejects(
            &crate::aos::BsplineAoS::new(t.clone()),
            crate::output::WalkerAoS::new(16),
        );
        let blocked = BlockedEngine::with_block_size(&t, 16);
        let mut small = WalkerSoA::new(16);
        blocked.vgh([0.5, 0.5, 0.5], &mut small);
    }
}
