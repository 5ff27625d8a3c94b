//! `BsplineAoSoA` — Opt B, the tiling / AoSoA transformation (paper
//! Sec. V-B, Fig. 5b and Fig. 6).
//!
//! The spline dimension N — innermost and contiguous for both inputs and
//! outputs after Opt A — is split into `M = ⌈N/Nb⌉` tiles. Each tile is a
//! complete, independent [`BsplineSoA`] engine over its own
//! `P[nx][ny][nz][Nb]` block plus matching `Nb`-sized outputs, so:
//!
//! * the *output* working set per evaluation shrinks from `40·N` bytes to
//!   `40·Nb` bytes (fits L1/L2 → fast reductions: the KNC/KNL win);
//! * the *input* block shrinks to `4·Ng·Nb` bytes (fits a shared LLC for
//!   small `Nb`: the BDW/BG/Q win);
//! * tiles share nothing and can run on different threads (Opt C).
//!
//! The optimal `Nb` depends only on the cache hierarchy, not on N.

use crate::batch::{Located, PosBlock};
use crate::engine::check_out;
use crate::layout::{Kernel, Layout};
use crate::output::{WalkerSoA, WalkerTiled};
use crate::soa::BsplineSoA;
use einspline::multi::MultiCoefs;
use einspline::Real;

/// Tiled (AoSoA) multi-orbital evaluator (Opt B).
#[derive(Clone, Debug)]
pub struct BsplineAoSoA<T: Real> {
    tiles: Vec<BsplineSoA<T>>,
    nb: usize,
    n_splines: usize,
}

impl<T: Real> BsplineAoSoA<T> {
    /// Split an existing coefficient table into tiles of `nb` splines.
    pub fn from_multi(coefs: &MultiCoefs<T>, nb: usize) -> Self {
        assert!(nb > 0, "tile size must be positive");
        let n_splines = coefs.n_splines();
        let tiles = coefs
            .split_tiles(nb)
            .into_iter()
            .map(BsplineSoA::new)
            .collect();
        Self {
            tiles,
            nb,
            n_splines,
        }
    }

    /// Tile size `Nb` (last tile may hold fewer splines).
    #[inline]
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Number of tiles `M`.
    #[inline]
    pub fn n_tiles(&self) -> usize {
        self.tiles.len()
    }

    #[inline]
    /// Number of orbitals N.
    pub fn n_splines(&self) -> usize {
        self.n_splines
    }

    #[inline]
    /// Tiles.
    pub fn tiles(&self) -> &[BsplineSoA<T>] {
        &self.tiles
    }

    /// Allocate a matching tiled output block.
    pub fn make_out(&self) -> WalkerTiled<T> {
        let sizes: Vec<usize> = self.tiles.iter().map(|t| t.n_splines()).collect();
        WalkerTiled::new(&sizes, self.nb)
    }

    /// Evaluate one tile only — the unit of work for nested threading.
    #[inline]
    pub fn eval_tile(
        &self,
        t: usize,
        kernel: Kernel,
        pos: [T; 3],
        out: &mut WalkerSoA<T>,
    ) {
        let loc = Located::new(self.tiles[t].coefs(), pos);
        self.eval_tile_located(t, kernel, &loc, out);
    }

    /// Bytes of coefficient data touched per evaluation of one tile
    /// (`4·64·Nb_padded` for f32) — used by the roofline accounting.
    pub fn tile_input_bytes(&self) -> usize {
        64 * self.tiles[0].stride() * std::mem::size_of::<T>()
    }

    /// Evaluate one tile over a pre-located position — the batched unit
    /// of work for nested threading (the locate + basis-weight block is
    /// shared across all tiles instead of recomputed per tile).
    #[inline]
    pub(crate) fn eval_tile_located(
        &self,
        t: usize,
        kernel: Kernel,
        loc: &Located<T>,
        out: &mut WalkerSoA<T>,
    ) {
        self.tiles[t].eval_block(kernel, loc, out, false);
    }

    /// Locate every position of a block against the (shared) tile grids.
    #[inline]
    pub(crate) fn locate_block(&self, pos: &PosBlock<T>) -> Vec<Located<T>> {
        // All tiles share the same grids; tile 0 always exists.
        Located::block(self.tiles[0].coefs(), pos)
    }

    /// Evaluate a batch of positions **tile-major** (paper Fig. 6: the
    /// tile loop outside the position loop), which is the actual
    /// cache-blocking: one tile's coefficient block stays hot across all
    /// `positions` before the next tile is touched. `out` is overwritten
    /// per position; after the call it holds the last position's outputs
    /// (bench/tuning use only).
    pub fn eval_batch_tile_major(
        &self,
        kernel: Kernel,
        positions: &[[T; 3]],
        out: &mut WalkerTiled<T>,
    ) {
        let coefs = self.tiles[0].coefs();
        let locs: Vec<Located<T>> =
            positions.iter().map(|p| Located::new(coefs, *p)).collect();
        for (t, tile_out) in out.tiles_mut().iter_mut().enumerate() {
            for (i, loc) in locs.iter().enumerate() {
                // Pull the coefficient runs one evaluation ahead into
                // L2 while the current one computes: the same tile's
                // next position, or the next tile's first position at
                // the tile switch (`simd` feature only; no-op
                // elsewhere).
                self.prefetch_ahead(t, i, &locs);
                self.eval_tile_located(t, kernel, loc, tile_out);
            }
        }
    }

    /// Prefetch one evaluation ahead of `(t, i)` in a tile-major sweep
    /// over `locs` (see [`Self::eval_batch_tile_major`]).
    #[inline]
    fn prefetch_ahead(&self, t: usize, i: usize, locs: &[Located<T>]) {
        let (tile, loc) = match locs.get(i + 1) {
            Some(next) => (self.tiles.get(t), Some(next)),
            None => (self.tiles.get(t + 1), locs.first()),
        };
        if let (Some(tile), Some(loc)) = (tile, loc) {
            crate::simd::prefetch_tile(tile.coefs(), loc);
        }
    }
}

impl<T: Real> crate::engine::EvalCore for BsplineAoSoA<T> {
    type Scalar = T;
    type Out = WalkerTiled<T>;

    fn n_splines(&self) -> usize {
        self.n_splines
    }

    fn layout(&self) -> Layout {
        Layout::AoSoA
    }

    /// All tiles share the same grids; tile 0 always exists.
    fn grid_coefs(&self) -> &MultiCoefs<T> {
        self.tiles[0].coefs()
    }

    fn make_out(&self) -> WalkerTiled<T> {
        BsplineAoSoA::make_out(self)
    }

    /// Tile-major: the cache-blocking transpose of a position-major
    /// loop. The position loop is *innermost*, so one tile's coefficient
    /// block (`4·Ng·Nb` bytes) and `Nb`-sized output stripe stay hot
    /// across the whole slice before the next tile is touched, the
    /// per-position basis weights serve all `M` tiles, and the
    /// coefficient runs one evaluation ahead are prefetched (at a slice
    /// of 1: the next tile's, while this tile computes). Each (tile,
    /// position) evaluation runs through the explicit-width
    /// micro-kernels of [`crate::simd`]; because tile strides are
    /// lane-padded ([`crate::layout::max_lanes`]) the inner loops never
    /// execute a ragged `m % LANES` tail.
    fn eval_located(&self, kernel: Kernel, locs: &[Located<T>], out: &mut [WalkerTiled<T>]) {
        for block in out.iter() {
            check_out(block.n_splines(), self.n_splines);
        }
        for t in 0..self.tiles.len() {
            for (i, (loc, block)) in locs.iter().zip(out.iter_mut()).enumerate() {
                self.prefetch_ahead(t, i, locs);
                self.eval_tile_located(t, kernel, loc, block.tile_mut(t));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SpoEngine;
    use crate::output::WalkerSoA;
    use einspline::{Grid1, MultiCoefs};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_table(n: usize, seed: u64) -> MultiCoefs<f32> {
        let g = Grid1::periodic(0.0, 1.0, 6);
        let mut multi = MultiCoefs::<f32>::new(g, g, g, n);
        multi.fill_random(&mut StdRng::seed_from_u64(seed));
        multi
    }

    #[test]
    fn tile_partitioning_shapes() {
        let multi = random_table(128, 3);
        let engine = BsplineAoSoA::from_multi(&multi, 32);
        assert_eq!(engine.n_tiles(), 4);
        assert_eq!(engine.nb(), 32);
        assert_eq!(engine.n_splines(), 128);
        let ragged = BsplineAoSoA::from_multi(&multi, 48);
        assert_eq!(ragged.n_tiles(), 3);
        assert_eq!(ragged.tiles()[2].n_splines(), 32);
    }

    #[test]
    fn vgh_equivalent_to_untiled_soa() {
        let n = 96;
        let multi = random_table(n, 17);
        let soa = BsplineSoA::new(multi.clone());
        let mut rng = StdRng::seed_from_u64(8);
        for nb in [16, 32, 96, 200] {
            let tiled = BsplineAoSoA::from_multi(&multi, nb);
            let mut out_t = tiled.make_out();
            let mut out_s = WalkerSoA::new(n);
            for _ in 0..5 {
                let pos = [
                    rng.random::<f32>(),
                    rng.random::<f32>(),
                    rng.random::<f32>(),
                ];
                soa.vgh(pos, &mut out_s);
                tiled.vgh(pos, &mut out_t);
                for nn in 0..n {
                    assert_eq!(out_s.value(nn), out_t.value(nn), "nb={nb} n={nn}");
                    assert_eq!(out_s.gradient(nn), out_t.gradient(nn));
                    assert_eq!(out_s.hessian(nn), out_t.hessian(nn));
                }
            }
        }
    }

    #[test]
    fn vgl_and_v_equivalent_to_untiled_soa() {
        let n = 40;
        let multi = random_table(n, 29);
        let soa = BsplineSoA::new(multi.clone());
        let tiled = BsplineAoSoA::from_multi(&multi, 16);
        let mut out_t = tiled.make_out();
        let mut out_s = WalkerSoA::new(n);
        let pos = [0.21f32, 0.68, 0.44];
        soa.vgl(pos, &mut out_s);
        tiled.vgl(pos, &mut out_t);
        for nn in 0..n {
            assert_eq!(out_s.value(nn), out_t.value(nn));
            assert_eq!(out_s.laplacian(nn), out_t.laplacian(nn));
        }
        soa.v(pos, &mut out_s);
        tiled.v(pos, &mut out_t);
        for nn in 0..n {
            assert_eq!(out_s.value(nn), out_t.value(nn));
        }
    }

    #[test]
    fn eval_tile_matches_full_eval() {
        let n = 64;
        let multi = random_table(n, 31);
        let tiled = BsplineAoSoA::from_multi(&multi, 16);
        let pos = [0.93f32, 0.12, 0.55];
        let mut full = tiled.make_out();
        tiled.vgh(pos, &mut full);
        for t in 0..tiled.n_tiles() {
            let mut single = WalkerSoA::new(tiled.tiles()[t].n_splines());
            tiled.eval_tile(t, Kernel::Vgh, pos, &mut single);
            for o in 0..16 {
                assert_eq!(single.value(o), full.tile(t).value(o));
                assert_eq!(single.hessian(o), full.tile(t).hessian(o));
            }
        }
    }

    #[test]
    fn nb_one_tile_reduces_to_soa() {
        let n = 20;
        let multi = random_table(n, 41);
        let soa = BsplineSoA::new(multi.clone());
        let tiled = BsplineAoSoA::from_multi(&multi, n);
        assert_eq!(tiled.n_tiles(), 1);
        let mut out_t = tiled.make_out();
        let mut out_s = WalkerSoA::new(n);
        let pos = [0.5f32, 0.25, 0.75];
        soa.vgh(pos, &mut out_s);
        tiled.vgh(pos, &mut out_t);
        for nn in 0..n {
            assert_eq!(out_s.value(nn), out_t.value(nn));
        }
    }

    #[test]
    #[should_panic(expected = "tile size must be positive")]
    fn zero_tile_size_rejected() {
        let multi = random_table(8, 1);
        let _ = BsplineAoSoA::from_multi(&multi, 0);
    }
}
