//! Per-move (batch-of-1) evaluation state: the [`MoveContext`].
//!
//! Real VMC/DMC traffic is dominated by single-electron
//! propose→ratio→accept steps, and every scalar call of that shape
//! re-runs the grid locate and rebuilds the three `BasisWeights`
//! blocks. The per-move protocol evaluates the *same position* up to
//! twice — V for the determinant ratio on propose, then VGL/VGH for
//! drift and Laplacian only if the move is accepted — so the
//! locate/weights hoist is worth caching across the pair.
//!
//! A [`MoveContext`] is that cache, owned by the *walker* (one per
//! walker, reused for every move of every electron):
//!
//! * the hoisted [`Located`] for the most recent proposed position,
//!   keyed by the exact position floats — the accept-side VGL/VGH call
//!   reuses the propose-side locate/weights without recomputing them;
//! * a lazily allocated `f32` sub-context for
//!   [`MixedEngine`](crate::precision::MixedEngine), which narrows the
//!   `f64` position once per move and runs the inner engine's fast path
//!   in `f32`.
//!
//! The context only ever caches work that is *recomputed identically*
//! by the scalar view ([`Located::new`] on the same floats), so
//! `eval_one` results are bit-identical to `eval` on every backend,
//! cache hit or miss — property-tested in
//! `tests/integration_onemove.rs` including accept/reject sequences
//! and positions on grid-cell boundaries.
//!
//! A context belongs to one engine (the cached `Located` is only valid
//! against the grid it was built from); give each walker × engine pair
//! its own. See the crate docs ("Per-move evaluation") for the protocol
//! diagram.

use crate::batch::Located;
use einspline::multi::MultiCoefs;
use einspline::Real;

/// Per-walker cached state for the single-electron fast path.
///
/// Passed as `&mut` to
/// [`SpoEngine::eval_one`](crate::engine::SpoEngine::eval_one); see the
/// [module docs](self) for what is cached and why the results stay
/// bit-identical.
#[derive(Clone, Debug, Default)]
pub struct MoveContext<T: Real> {
    /// Position the cached locate is valid for. Compared with float
    /// `==`, so a NaN coordinate never matches and always re-locates.
    key: Option<[T; 3]>,
    loc: Option<Located<T>>,
    /// Lazily built `f32` sub-context for the mixed-precision adapter.
    narrow: Option<Box<MoveContext<f32>>>,
}

impl<T: Real> MoveContext<T> {
    /// Fresh context with nothing cached.
    pub fn new() -> Self {
        Self {
            key: None,
            loc: None,
            narrow: None,
        }
    }

    /// The hoisted locate/weights for `pos`: returns the cached
    /// [`Located`] when `pos` is bit-equal to the last located position
    /// (the accept-side reuse), otherwise computes and caches a fresh
    /// one. The cached value is exactly what [`Located::new`] would
    /// rebuild, so hits and misses are indistinguishable in the output.
    #[inline]
    pub fn located(&mut self, coefs: &MultiCoefs<T>, pos: [T; 3]) -> Located<T> {
        if self.key == Some(pos) {
            if let Some(loc) = self.loc {
                return loc;
            }
        }
        let loc = Located::new(coefs, pos);
        self.key = Some(pos);
        self.loc = Some(loc);
        loc
    }

    /// Whether `pos` would hit the cache (test/diagnostic hook).
    #[inline]
    pub fn is_cached(&self, pos: [T; 3]) -> bool {
        self.key == Some(pos) && self.loc.is_some()
    }

    /// The lazily allocated `f32` sub-context the mixed-precision
    /// engine runs its inner fast path with.
    #[inline]
    pub fn narrow(&mut self) -> &mut MoveContext<f32> {
        self.narrow.get_or_insert_with(Box::default)
    }

    /// Drop the cached locate (e.g. after the engine's table changed),
    /// here and in the sub-context. Keeps the sub-context allocation.
    pub fn invalidate(&mut self) {
        self.key = None;
        self.loc = None;
        if let Some(n) = self.narrow.as_mut() {
            n.invalidate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use einspline::Grid1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> MultiCoefs<f64> {
        let g = Grid1::periodic(0.0, 1.0, 8);
        let mut m = MultiCoefs::<f64>::new(g, g, g, 4);
        m.fill_random(&mut StdRng::seed_from_u64(3));
        m
    }

    #[test]
    fn located_caches_by_exact_position() {
        let coefs = table();
        let mut ctx = MoveContext::new();
        let p = [0.3, 0.7, 0.1];
        assert!(!ctx.is_cached(p));
        let a = ctx.located(&coefs, p);
        assert!(ctx.is_cached(p));
        let b = ctx.located(&coefs, p);
        assert_eq!((a.i0, a.j0, a.k0), (b.i0, b.j0, b.k0));
        // A different position misses and replaces the cache.
        let q = [0.31, 0.7, 0.1];
        let _ = ctx.located(&coefs, q);
        assert!(ctx.is_cached(q) && !ctx.is_cached(p));
    }

    #[test]
    fn cache_hit_equals_fresh_locate() {
        let coefs = table();
        let mut ctx = MoveContext::new();
        let p = [0.925, 0.0, 0.5];
        let cached = ctx.located(&coefs, p);
        let cached2 = ctx.located(&coefs, p);
        let fresh = Located::new(&coefs, p);
        for (got, want) in [(&cached, &fresh), (&cached2, &fresh)] {
            assert_eq!((got.i0, got.j0, got.k0), (want.i0, want.j0, want.k0));
            assert_eq!(got.wa.a, want.wa.a);
            assert_eq!(got.wb.da, want.wb.da);
            assert_eq!(got.wc.d2a, want.wc.d2a);
        }
    }

    #[test]
    fn nan_positions_never_hit_the_cache() {
        let mut ctx = MoveContext::<f64>::new();
        let p = [f64::NAN, 0.5, 0.5];
        // NaN != NaN, so key comparison fails and every call re-locates
        // (MultiCoefs::locate clamps, so this still returns something).
        assert!(!ctx.is_cached(p));
        ctx.key = Some(p);
        assert!(!ctx.is_cached(p));
    }

    #[test]
    fn invalidate_clears_locate_but_keeps_scratch() {
        let coefs = table();
        let mut ctx = MoveContext::new();
        let p = [0.2, 0.4, 0.6];
        let _ = ctx.located(&coefs, p);
        let q = [0.2f32, 0.4, 0.6];
        let _ = ctx.narrow().located(&coefs.downcast(), q);
        ctx.invalidate();
        assert!(!ctx.is_cached(p));
        // The sub-context survives, with its own cache cleared too.
        assert!(ctx.narrow.is_some());
        assert!(!ctx.narrow().is_cached(q));
    }
}
