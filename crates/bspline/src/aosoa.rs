//! `BsplineAoSoA` — Opt B, the tiling / AoSoA transformation (paper
//! Sec. V-B, Fig. 5b and Fig. 6).
//!
//! The spline dimension N — innermost and contiguous for both inputs and
//! outputs after Opt A — is split into `M = ⌈N/Nb⌉` tiles. Each tile is a
//! complete, independent [`BsplineSoA`] over its own `P[nx][ny][nz][Nb]`
//! block, so:
//!
//! * the *output* working set per evaluation shrinks from `40·N` bytes to
//!   `40·Nb` bytes (fits L1/L2 → fast reductions: the KNC/KNL win);
//! * the *input* block shrinks to `4·Ng·Nb` bytes (fits a shared LLC for
//!   small `Nb`: the BDW/BG/Q win);
//! * tiles share nothing and can run on different threads (Opt C).
//!
//! That decomposition is a [`BlockedEngine`] at a fixed block width, so
//! this is the paper's name for one: [`BsplineAoSoA::from_multi`] returns
//! the blocked engine [`BlockedEngine::with_block_size`] builds. Its
//! blocks are the tiles, its block-major core is the Fig. 6 tile loop,
//! and Opt C is [`crate::parallel::run_nested_blocked`].
//!
//! The optimal `Nb` depends only on the cache hierarchy, not on N.

use crate::blocked::BlockedEngine;
use crate::soa::BsplineSoA;
use einspline::multi::MultiCoefs;
use einspline::Real;

/// Opt B: the fixed-width tile decomposition (module docs).
#[derive(Clone, Copy, Debug)]
pub struct BsplineAoSoA;

impl BsplineAoSoA {
    /// Split `coefs` into tiles of `nb` splines (the last tile may hold
    /// fewer; `nb ≥ N` is one tile).
    pub fn from_multi<T: Real>(coefs: &MultiCoefs<T>, nb: usize) -> BlockedEngine<BsplineSoA<T>> {
        BlockedEngine::with_block_size(coefs, nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Located;
    use crate::engine::SpoEngine;
    use crate::layout::Kernel;
    use crate::output::WalkerSoA;
    use einspline::Grid1;
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
        assert_eq!(engine.n_blocks(), 4);
        assert_eq!(engine.nb(), 32);
        assert_eq!(SpoEngine::<f32>::n_splines(&engine), 128);
        let ragged = BsplineAoSoA::from_multi(&multi, 48);
        assert_eq!(ragged.n_blocks(), 3);
        assert_eq!(ragged.block(2).n_splines(), 32);
    }

    /// Tile widths here are multiples of every backend's lane count, so
    /// the equality is exact under the unfused SSE2 pack too.
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

    /// One tile evaluated on its own — the nested-threading unit of
    /// work — writes what the full evaluation writes for its orbitals.
    #[test]
    fn eval_tile_matches_full_eval() {
        let n = 64;
        let multi = random_table(n, 31);
        let tiled = BsplineAoSoA::from_multi(&multi, 16);
        let pos = [0.93f32, 0.12, 0.55];
        let mut full = tiled.make_out();
        tiled.vgh(pos, &mut full);
        let loc = Located::new(&multi, pos);
        for t in 0..tiled.n_blocks() {
            let (lo, hi) = tiled.block_range(t);
            let mut single = WalkerSoA::new(hi - lo);
            tiled.eval_block_located(t, Kernel::Vgh, &loc, single.streams_range_mut(0, hi - lo));
            for o in 0..hi - lo {
                assert_eq!(single.value(o), full.value(lo + o));
                assert_eq!(single.hessian(o), full.hessian(lo + o));
            }
        }
    }

    #[test]
    fn nb_one_tile_reduces_to_soa() {
        let n = 20;
        let multi = random_table(n, 41);
        let soa = BsplineSoA::new(multi.clone());
        let tiled = BsplineAoSoA::from_multi(&multi, n);
        assert_eq!(tiled.n_blocks(), 1);
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
    #[should_panic(expected = "block width must be positive")]
    fn zero_tile_size_rejected() {
        let multi = random_table(8, 1);
        let _ = BsplineAoSoA::from_multi(&multi, 0);
    }
}
