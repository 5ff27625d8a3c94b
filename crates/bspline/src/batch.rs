//! Batched multi-walker evaluation: position blocks and batch outputs.
//!
//! The paper's whole performance story is about amortizing the shared
//! read-only coefficient table across many concurrent evaluations. The
//! scalar [`SpoEngine`](crate::engine::SpoEngine) methods force every
//! driver to hand-roll that loop; this module provides the first-class
//! batch vocabulary instead:
//!
//! * [`PosBlock`] — a structure-of-arrays block of evaluation positions
//!   (one stream per coordinate), the unit a driver hands to the engine
//!   per timing region;
//! * [`BatchOut`] — a block of per-position output buffers, allocated
//!   once by [`SpoEngine::make_batch_out`](crate::engine::SpoEngine::make_batch_out)
//!   and reused across batches (the caller owns the allocation; the
//!   engine only overwrites);
//! * `Located` *(crate-private)* — the hoisted per-position work
//!   (grid location + the three [`BasisWeights`] blocks) that the native
//!   batched engine paths compute once per position up front. For the
//!   blocked (AoSoA) engine this is the real win: one `Located` per
//!   position serves all `M` tiles, instead of one per *(tile,
//!   position)* pair.
//!
//! The batched entry points are also where the explicit SIMD layer
//! ([`crate::simd`]) bites hardest: with the locate/weights hoisted
//! into `Located` blocks, each (tile, position) evaluation is pure
//! micro-kernel work — one coefficient tile streams through the lane
//! registers for every position of the block before the next tile is
//! touched, which is the paper's Fig. 6 loop order at SIMD width.

use einspline::basis::BasisWeights;
use einspline::multi::MultiCoefs;
use einspline::Real;
use rand::Rng;

/// A structure-of-arrays block of evaluation positions.
///
/// Coordinates are stored as three unit-stride streams (`x`, `y`, `z`),
/// mirroring the SoA output transformation of the paper (Opt A) on the
/// input side: a driver fills one block per Monte Carlo generation and
/// hands it to the engine whole.
#[derive(Clone, Debug, Default)]
pub struct PosBlock<T: Real> {
    x: Vec<T>,
    y: Vec<T>,
    z: Vec<T>,
}

impl<T: Real> PosBlock<T> {
    /// Empty block.
    pub fn new() -> Self {
        Self {
            x: Vec::new(),
            y: Vec::new(),
            z: Vec::new(),
        }
    }

    /// Empty block with room for `cap` positions.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            x: Vec::with_capacity(cap),
            y: Vec::with_capacity(cap),
            z: Vec::with_capacity(cap),
        }
    }

    /// Build from an AoS position slice.
    pub fn from_positions(pos: &[[T; 3]]) -> Self {
        let mut b = Self::with_capacity(pos.len());
        for p in pos {
            b.push(*p);
        }
        b
    }

    /// Draw `ns` uniform random positions inside `domain` (the batched
    /// analogue of the paper's `generateRandomPos`).
    pub fn random<R: Rng>(rng: &mut R, ns: usize, domain: [(f64, f64); 3]) -> Self {
        let mut b = Self::with_capacity(ns);
        for _ in 0..ns {
            let mut p = [T::ZERO; 3];
            for (d, (lo, hi)) in domain.iter().enumerate() {
                p[d] = T::from_f64(lo + (hi - lo) * rng.random::<f64>());
            }
            b.push(p);
        }
        b
    }

    /// Append one position.
    #[inline]
    pub fn push(&mut self, p: [T; 3]) {
        self.x.push(p[0]);
        self.y.push(p[1]);
        self.z.push(p[2]);
    }

    /// Remove all positions, keeping the allocation.
    pub fn clear(&mut self) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
    }

    /// Reserve room for at least `additional` more positions in every
    /// coordinate stream. The coalescer calls this with the total size
    /// of a fused batch before splicing submissions, so the appends in
    /// [`PosBlock::extend_from_block`] never reallocate mid-batch.
    pub fn reserve(&mut self, additional: usize) {
        self.x.reserve(additional);
        self.y.reserve(additional);
        self.z.reserve(additional);
    }

    /// Positions the block can hold without reallocating (the smallest
    /// per-stream capacity — the streams grow together, but `reserve`
    /// on a `Vec` may over-allocate each independently).
    pub fn capacity(&self) -> usize {
        self.x.capacity().min(self.y.capacity()).min(self.z.capacity())
    }

    /// Append every position of `other`, stream-wise (three
    /// `extend_from_slice` calls — no per-position push). This is the
    /// coalescer's splice: request blocks are fused into one engine
    /// batch without changing any position's value or order, so the
    /// fused evaluation is bit-identical to evaluating the requests
    /// back-to-back.
    pub fn extend_from_block(&mut self, other: &PosBlock<T>) {
        self.x.extend_from_slice(&other.x);
        self.y.extend_from_slice(&other.y);
        self.z.extend_from_slice(&other.z);
    }

    /// Number of positions in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the block holds no positions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> [T; 3] {
        [self.x[i], self.y[i], self.z[i]]
    }

    /// The three coordinate streams `(x, y, z)`.
    #[inline]
    pub fn streams(&self) -> (&[T], &[T], &[T]) {
        (&self.x, &self.y, &self.z)
    }

    /// Iterate positions in AoS form.
    pub fn iter(&self) -> impl Iterator<Item = [T; 3]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Convert every position to another scalar width (through `f64`,
    /// so `f64 -> f32` rounds each coordinate once) — how the
    /// mixed-precision adapter ([`crate::precision::MixedEngine`])
    /// narrows a double-precision position block before handing it to
    /// its single-precision inner engine.
    pub fn cast<U: Real>(&self) -> PosBlock<U> {
        let conv = |xs: &[T]| xs.iter().map(|&v| U::from_f64(v.to_f64())).collect();
        PosBlock {
            x: conv(&self.x),
            y: conv(&self.y),
            z: conv(&self.z),
        }
    }

    /// Split into consecutive sub-blocks of at most `size` positions
    /// (the driver's per-timing-region unit; the last block may be
    /// shorter).
    pub fn chunks(&self, size: usize) -> impl Iterator<Item = PosBlock<T>> + '_ {
        assert!(size > 0, "chunk size must be positive");
        (0..self.len()).step_by(size).map(move |lo| {
            let hi = (lo + size).min(self.len());
            PosBlock {
                x: self.x[lo..hi].to_vec(),
                y: self.y[lo..hi].to_vec(),
                z: self.z[lo..hi].to_vec(),
            }
        })
    }
}

impl<T: Real> FromIterator<[T; 3]> for PosBlock<T> {
    fn from_iter<I: IntoIterator<Item = [T; 3]>>(iter: I) -> Self {
        let mut b = Self::new();
        for p in iter {
            b.push(p);
        }
        b
    }
}

/// A block of per-position engine output buffers.
///
/// Block `i` receives the outputs for position `i` of the matching
/// [`PosBlock`]. The caller allocates once (via
/// [`SpoEngine::make_batch_out`](crate::engine::SpoEngine::make_batch_out))
/// and reuses the blocks across batches — batched engine calls only
/// overwrite, never allocate. A `BatchOut` may hold *more* blocks than
/// the position block it is used with (ragged tail of a chunked stream);
/// the extra blocks are left untouched.
#[derive(Clone, Debug)]
pub struct BatchOut<O> {
    blocks: Vec<O>,
}

impl<O> BatchOut<O> {
    /// Wrap pre-allocated per-position blocks.
    pub fn from_blocks(blocks: Vec<O>) -> Self {
        Self { blocks }
    }

    /// Number of output blocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the batch holds no blocks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Output block for position `i`.
    #[inline]
    pub fn block(&self, i: usize) -> &O {
        &self.blocks[i]
    }

    /// All blocks.
    #[inline]
    pub fn blocks(&self) -> &[O] {
        &self.blocks
    }

    /// All blocks, mutably (nested-threading partitioning).
    #[inline]
    pub fn blocks_mut(&mut self) -> &mut [O] {
        &mut self.blocks
    }

    /// Grow to at least `n` blocks, allocating new ones with `make`.
    pub fn ensure(&mut self, n: usize, mut make: impl FnMut() -> O) {
        while self.blocks.len() < n {
            self.blocks.push(make());
        }
    }

    /// Take the blocks back out (the inverse of [`BatchOut::from_blocks`];
    /// used by adapters that temporarily re-wrap caller-owned blocks for
    /// an inner engine call).
    pub fn into_blocks(self) -> Vec<O> {
        self.blocks
    }
}

/// Panic unless `out` can receive one block per position.
#[inline]
pub(crate) fn check_batch(n_pos: usize, n_out: usize) {
    assert!(
        n_out >= n_pos,
        "need one output block per position: {n_pos} positions, {n_out} blocks"
    );
}

/// Hoisted per-position evaluation state: lower-corner grid indices plus
/// the three per-dimension basis-weight blocks (value / first / second
/// derivative weights, derivative weights pre-scaled by `delta_inv`).
///
/// Computing this once per position and reusing it across blocks
/// ([`crate::blocked`], the AoSoA tiles) or kernels is the "hoist basis-coefficient
/// computation" step of the batched API; the arithmetic is bit-identical
/// to the scalar paths, which build the same weights inline. Public so
/// the blocks of a [`crate::blocked::BlockedEngine`] can receive the
/// shared per-position hoist from schedulers.
#[derive(Clone, Copy, Debug)]
pub struct Located<T> {
    /// Lower-corner x grid index.
    pub i0: usize,
    /// Lower-corner y grid index.
    pub j0: usize,
    /// Lower-corner z grid index.
    pub k0: usize,
    /// x-dimension basis weights.
    pub wa: BasisWeights<T>,
    /// y-dimension basis weights.
    pub wb: BasisWeights<T>,
    /// z-dimension basis weights.
    pub wc: BasisWeights<T>,
}

impl<T: Real> Located<T> {
    /// Locate `pos` against `coefs`' grids and build the three
    /// basis-weight blocks.
    #[inline(always)]
    pub fn new(coefs: &MultiCoefs<T>, pos: [T; 3]) -> Self {
        let p = coefs.locate(pos[0], pos[1], pos[2]);
        let dinv = coefs.delta_inv();
        Self {
            i0: p.i0,
            j0: p.j0,
            k0: p.k0,
            wa: BasisWeights::new(p.tx, dinv[0]),
            wb: BasisWeights::new(p.ty, dinv[1]),
            wc: BasisWeights::new(p.tz, dinv[2]),
        }
    }

    /// Locate every position of a block (the batch-level hoist).
    pub fn block(coefs: &MultiCoefs<T>, pos: &PosBlock<T>) -> Vec<Self> {
        pos.iter().map(|p| Self::new(coefs, p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pos_block_push_get_roundtrip() {
        let mut b = PosBlock::<f32>::new();
        assert!(b.is_empty());
        b.push([1.0, 2.0, 3.0]);
        b.push([4.0, 5.0, 6.0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(1), [4.0, 5.0, 6.0]);
        let (x, y, z) = b.streams();
        assert_eq!(x, &[1.0, 4.0]);
        assert_eq!(y, &[2.0, 5.0]);
        assert_eq!(z, &[3.0, 6.0]);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn from_positions_matches_iter() {
        let pos = [[0.1f32, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]];
        let b = PosBlock::from_positions(&pos);
        let back: Vec<[f32; 3]> = b.iter().collect();
        assert_eq!(back, pos);
        let c: PosBlock<f32> = pos.iter().copied().collect();
        assert_eq!(c.get(2), pos[2]);
    }

    #[test]
    fn random_respects_domain() {
        let mut rng = StdRng::seed_from_u64(3);
        let b: PosBlock<f32> =
            PosBlock::random(&mut rng, 64, [(0.0, 1.0), (2.0, 3.0), (-1.0, 0.0)]);
        assert_eq!(b.len(), 64);
        for p in b.iter() {
            assert!((0.0..1.0).contains(&p[0]));
            assert!((2.0..3.0).contains(&p[1]));
            assert!((-1.0..0.0).contains(&p[2]));
        }
    }

    #[test]
    fn chunks_cover_all_positions() {
        let b: PosBlock<f32> =
            (0..10).map(|i| [i as f32, 0.0, 0.0]).collect();
        let chunks: Vec<PosBlock<f32>> = b.chunks(4).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].len(), 4);
        assert_eq!(chunks[2].len(), 2);
        let flat: Vec<[f32; 3]> = chunks.iter().flat_map(|c| c.iter()).collect();
        let orig: Vec<[f32; 3]> = b.iter().collect();
        assert_eq!(flat, orig);
    }

    #[test]
    fn extend_from_block_splices_in_order() {
        let a: PosBlock<f32> = (0..3).map(|i| [i as f32, 10.0, 20.0]).collect();
        let b: PosBlock<f32> = (3..7).map(|i| [i as f32, 30.0, 40.0]).collect();
        let mut fused = PosBlock::new();
        fused.extend_from_block(&a);
        fused.extend_from_block(&b);
        assert_eq!(fused.len(), 7);
        let flat: Vec<[f32; 3]> = fused.iter().collect();
        let expect: Vec<[f32; 3]> = a.iter().chain(b.iter()).collect();
        assert_eq!(flat, expect);
        // Appending an empty block is a no-op.
        fused.extend_from_block(&PosBlock::new());
        assert_eq!(fused.len(), 7);
    }

    #[test]
    fn reserve_prevents_reallocation_during_splice() {
        let parts: Vec<PosBlock<f32>> = (0..4)
            .map(|p| (0..5).map(|i| [(p * 5 + i) as f32, 0.0, 0.0]).collect())
            .collect();
        let total: usize = parts.iter().map(|b| b.len()).sum();
        let mut fused = PosBlock::<f32>::new();
        fused.reserve(total);
        assert!(fused.capacity() >= total);
        let cap = fused.capacity();
        for p in &parts {
            fused.extend_from_block(p);
        }
        assert_eq!(fused.len(), total);
        assert_eq!(fused.capacity(), cap, "splice must not reallocate");
        // clear() keeps the reservation for the next coalesced batch.
        fused.clear();
        assert!(fused.is_empty());
        assert_eq!(fused.capacity(), cap);
    }

    #[test]
    fn cast_of_spliced_block_equals_splice_of_casts() {
        // The mixed-precision adapter narrows whole fused blocks; that
        // must commute with the coalescer's splice.
        let a: PosBlock<f64> = (0..3).map(|i| [0.1 * i as f64, 0.7, 0.3]).collect();
        let b: PosBlock<f64> = (0..2).map(|i| [0.9, 0.2 * i as f64, 0.6]).collect();
        let mut fused = PosBlock::new();
        fused.extend_from_block(&a);
        fused.extend_from_block(&b);
        let narrowed: PosBlock<f32> = fused.cast();
        let mut expect = PosBlock::<f32>::new();
        expect.extend_from_block(&a.cast());
        expect.extend_from_block(&b.cast());
        assert_eq!(narrowed.len(), expect.len());
        for i in 0..narrowed.len() {
            assert_eq!(narrowed.get(i), expect.get(i), "i={i}");
        }
    }

    #[test]
    fn batch_out_blocks_are_addressable() {
        let mut out = BatchOut::from_blocks(vec![0usize, 7, 0]);
        assert_eq!(*out.block(1), 7);
        assert_eq!(out.len(), 3);
        out.ensure(5, || 9);
        assert_eq!(out.len(), 5);
        assert_eq!(*out.block(4), 9);
        out.ensure(2, || 1); // never shrinks
        assert_eq!(out.len(), 5);
        assert_eq!(out.blocks()[1], 7);
    }

    #[test]
    #[should_panic(expected = "one output block per position")]
    fn undersized_batch_out_rejected() {
        check_batch(4, 3);
    }
}
