//! Property tests for the single-electron fast path: for every layout
//! engine and precision adapter, `v_one`/`vgl_one`/`vgh_one` through a
//! [`MoveContext`] must *bit-match* the scalar `v`/`vgl`/`vgh` calls at
//! the same positions — on every SIMD backend, on a cache miss (fresh
//! propose) and on a cache hit (the accept-side call reusing the
//! propose-side locate/weights), across accept/reject sequences, and at
//! positions sitting exactly on grid-cell boundaries. The context only
//! caches work the scalar paths recompute identically, so any bit
//! difference is a real defect, not an accumulation-order artifact.
//! The same checker pins all three views to each other: V through
//! `eval`, `eval_one` and `eval_batch` at batch 1 must bit-match
//! position 0 of a batch of 2 — including on tables larger than an L2,
//! where a lone position's V streams its coefficients from memory.

use bspline::blocked::BlockedEngine;
use bspline::precision::{MixedEngine, MixedOut, WidenOut};
use bspline::simd::{with_backend, Backend};
use bspline::{BsplineAoS, BsplineAoSoA, BsplineSoA, Kernel, MoveContext, PosBlock, SpoEngine};
use einspline::{Grid1, MultiCoefs, Real};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Grid points per axis of every test table (periodic on [0, 1)).
const NX: usize = 5;

fn random_table<T: Real>(n: usize, seed: u64) -> MultiCoefs<T> {
    random_table_on(NX, n, seed)
}

fn random_table_on<T: Real>(nx: usize, n: usize, seed: u64) -> MultiCoefs<T> {
    let g = Grid1::periodic(0.0, 1.0, nx);
    let mut table = MultiCoefs::<T>::new(g, g, g, n);
    table.fill_random(&mut StdRng::seed_from_u64(seed));
    table
}

fn random_positions<T: Real>(ns: usize, seed: u64) -> Vec<[T; 3]> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ns)
        .map(|_| {
            [
                T::from_f64(rng.random::<f64>()),
                T::from_f64(rng.random::<f64>()),
                T::from_f64(rng.random::<f64>()),
            ]
        })
        .collect()
}

/// Uniform accessor view over the walker output types (and the mixed
/// adapter's widened view), so one checker covers every engine.
trait View<T> {
    fn v_at(&self, k: usize) -> T;
    fn g_at(&self, k: usize) -> [T; 3];
    fn l_at(&self, k: usize) -> T;
    fn h_at(&self, k: usize) -> [T; 6];
}

macro_rules! impl_view {
    ($t:ty) => {
        impl<T: Real> View<T> for $t {
            fn v_at(&self, k: usize) -> T {
                self.value(k)
            }
            fn g_at(&self, k: usize) -> [T; 3] {
                self.gradient(k)
            }
            fn l_at(&self, k: usize) -> T {
                self.laplacian(k)
            }
            fn h_at(&self, k: usize) -> [T; 6] {
                self.hessian(k)
            }
        }
    };
}
impl_view!(bspline::WalkerAoS<T>);
impl_view!(bspline::WalkerSoA<T>);

impl<O: WidenOut> View<f64> for MixedOut<O>
where
    O::Wide: View<f64>,
{
    fn v_at(&self, k: usize) -> f64 {
        self.wide().v_at(k)
    }
    fn g_at(&self, k: usize) -> [f64; 3] {
        self.wide().g_at(k)
    }
    fn l_at(&self, k: usize) -> f64 {
        self.wide().l_at(k)
    }
    fn h_at(&self, k: usize) -> [f64; 6] {
        self.wide().h_at(k)
    }
}

/// Replay `positions` as a propose/accept/reject move sequence through
/// one shared [`MoveContext`] (the per-walker usage) and assert every
/// one-move output bit-matches the scalar call at the same position.
/// Move `i` proposes with `v_one`, then: `i % 3 == 0` accepts via the
/// cached-weights `vgl_one`, `i % 3 == 1` accepts via `vgh_one`, and
/// `i % 3 == 2` rejects (nothing else runs, and the *next* propose
/// replaces the stale cache). Every propose also runs V through the
/// batch view, alone and as position 0 of a batch of 2, so a walk that
/// depended on how many positions a call holds would show here.
fn check_moves<T: Real, E: SpoEngine<T>>(
    engine: &E,
    n: usize,
    positions: &[[T; 3]],
    ctx_label: &str,
) where
    E::Out: View<T>,
{
    let mut ctx = MoveContext::new();
    let mut one = engine.make_out();
    let mut reference = engine.make_out();
    let mut batch = engine.make_batch_out(2);
    for (i, &p) in positions.iter().enumerate() {
        engine.v_one(&mut ctx, p, &mut one);
        engine.v(p, &mut reference);
        for k in 0..n {
            assert_eq!(one.v_at(k), reference.v_at(k), "{ctx_label} move {i} V v[{k}]");
        }
        let q = positions[(i + 1) % positions.len()];
        for block in [&[p][..], &[p, q][..]] {
            engine.eval_batch(Kernel::V, &PosBlock::from_positions(block), &mut batch);
            for k in 0..n {
                assert_eq!(
                    batch.block(0).v_at(k),
                    reference.v_at(k),
                    "{ctx_label} move {i} V v[{k}] vs batch of {}",
                    block.len()
                );
            }
        }
        match i % 3 {
            0 => {
                // Accept: VGL at the same position — a context cache hit.
                engine.vgl_one(&mut ctx, p, &mut one);
                engine.vgl(p, &mut reference);
                for k in 0..n {
                    assert_eq!(
                        one.v_at(k),
                        reference.v_at(k),
                        "{ctx_label} move {i} VGL v[{k}]"
                    );
                    assert_eq!(
                        one.g_at(k),
                        reference.g_at(k),
                        "{ctx_label} move {i} VGL g[{k}]"
                    );
                    assert_eq!(
                        one.l_at(k),
                        reference.l_at(k),
                        "{ctx_label} move {i} VGL l[{k}]"
                    );
                }
            }
            1 => {
                engine.vgh_one(&mut ctx, p, &mut one);
                engine.vgh(p, &mut reference);
                for k in 0..n {
                    assert_eq!(
                        one.v_at(k),
                        reference.v_at(k),
                        "{ctx_label} move {i} VGH v[{k}]"
                    );
                    assert_eq!(
                        one.g_at(k),
                        reference.g_at(k),
                        "{ctx_label} move {i} VGH g[{k}]"
                    );
                    assert_eq!(
                        one.h_at(k),
                        reference.h_at(k),
                        "{ctx_label} move {i} VGH h[{k}]"
                    );
                }
            }
            _ => {} // reject
        }
    }
}

/// Run [`check_moves`] for every engine family at both storage
/// precisions plus the mixed adapter, under the current backend.
fn check_all_engines(n: usize, nb: usize, seed: u64, ns: usize, label: &str) {
    let table = random_table::<f32>(n, seed);
    let pos = random_positions::<f32>(ns, seed ^ 0x0e0e);
    check_moves(&BsplineAoS::new(table.clone()), n, &pos, &format!("{label} AoS f32"));
    check_moves(&BsplineSoA::new(table.clone()), n, &pos, &format!("{label} SoA f32"));
    // Any tile width, down to one orbital per block (the AoSoA tiling).
    check_moves(
        &BlockedEngine::with_block_size(&table, nb),
        n,
        &pos,
        &format!("{label} Blocked/{nb} f32"),
    );

    let table64 = random_table::<f64>(n, seed);
    let pos64 = random_positions::<f64>(ns, seed ^ 0x0e0e);
    check_moves(
        &BsplineSoA::new(table64.clone()),
        n,
        &pos64,
        &format!("{label} SoA f64"),
    );
    // Mixed adapter: f64 positions narrowed once per move, inner f32
    // fast path, widened delivery. The scalar comparator is the same
    // adapter's `v`/`vgl`/`vgh`, so the parity is about the MoveContext
    // plumbing (incl. the lazily built f32 sub-context), not precision.
    check_moves(
        &MixedEngine::soa(&table64),
        n,
        &pos64,
        &format!("{label} Mixed(SoA)"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn one_move_bitmatches_scalar_for_all_engines_and_backends(
        n in 1usize..24,
        nb in 1usize..24,
        seed in 0u64..1000,
        ns in 1usize..7,
    ) {
        for backend in Backend::available() {
            with_backend(backend, || {
                check_all_engines(n, nb, seed, ns, backend.name());
            });
        }
    }
}

/// V over a slice of 1 on tables larger than an L2 (every other table in
/// the workspace's tests is far below one) is bit-identical across
/// backends and to the batch entry. N = 200 pads to 208 orbitals, three
/// whole four-pack steps of the widest pack and a remainder (≈ 13 MB on
/// 22³); N = 40 pads to 48, shorter than one such step (≈ 9 MB on 33³).
#[test]
fn lookahead_sized_tables_bitmatch() {
    for (nx, n) in [(22usize, 200usize), (33, 40)] {
        let table = random_table_on::<f32>(nx, n, 41);
        assert!(table.bytes() >= 8 << 20, "table must exceed an L2");
        let soa = BsplineSoA::new(table);
        let pos = random_positions::<f32>(4, 43);
        // The walk itself, under each backend: V over a slice of 1.
        let walk = |backend: Backend| {
            with_backend(backend, || {
                let mut out = soa.make_out();
                pos.iter()
                    .flat_map(|&p| {
                        soa.v(p, &mut out);
                        (0..n).map(|k| out.v_at(k)).collect::<Vec<_>>()
                    })
                    .collect::<Vec<f32>>()
            })
        };
        let reference = walk(Backend::Scalar);
        for backend in Backend::available() {
            with_backend(backend, || {
                check_moves(
                    &soa,
                    n,
                    &pos,
                    &format!("{} SoA {nx}^3 N={n}", backend.name()),
                );
            });
            // Every pack width and step must give the scalar backend's
            // bits.
            assert_eq!(walk(backend), reference, "{backend} vs scalar {nx}^3 N={n}");
        }
    }
}

/// Positions sitting exactly on grid-cell boundaries (knots), the cell
/// upper edge, and the domain wrap point — where `locate` is most
/// sensitive. Both paths run the same locate on the same floats, so
/// they must still agree bit-for-bit.
#[test]
fn grid_cell_boundary_positions_bitmatch() {
    let mut boundary: Vec<[f32; 3]> = Vec::new();
    for i in 0..=NX {
        let u = i as f32 / NX as f32;
        boundary.push([u, 0.5, u]);
        boundary.push([0.0, u, 1.0 - u]);
    }
    boundary.push([f32::EPSILON, 1.0 - f32::EPSILON, 0.999_999_9]);
    let n = 13;
    let table = random_table::<f32>(n, 77);
    for backend in Backend::available() {
        with_backend(backend, || {
            check_moves(
                &BsplineAoS::new(table.clone()),
                n,
                &boundary,
                &format!("{} AoS boundary", backend.name()),
            );
            check_moves(
                &BsplineSoA::new(table.clone()),
                n,
                &boundary,
                &format!("{} SoA boundary", backend.name()),
            );
            check_moves(
                &BsplineAoSoA::from_multi(&table, 4),
                n,
                &boundary,
                &format!("{} AoSoA boundary", backend.name()),
            );
        });
    }
}

/// The accept-side call must be a genuine cache hit, and a rejected
/// move's stale entry must be replaced (not reused) by the next
/// propose at a different position.
#[test]
fn context_caches_across_accept_and_replaces_after_reject() {
    let n = 9;
    let table = random_table::<f32>(n, 5);
    let soa = BsplineSoA::new(table);
    let mut ctx = MoveContext::new();
    let mut out = soa.make_out();

    let p = [0.31f32, 0.74, 0.12];
    soa.v_one(&mut ctx, p, &mut out);
    assert!(ctx.is_cached(p), "propose must populate the cache");
    soa.vgl_one(&mut ctx, p, &mut out);
    assert!(ctx.is_cached(p), "accept-side reuse must keep the entry");

    // Reject: the walker proposes somewhere else next; the old entry
    // must be replaced by the new position's locate.
    let q = [0.91f32, 0.02, 0.55];
    soa.v_one(&mut ctx, q, &mut out);
    assert!(ctx.is_cached(q) && !ctx.is_cached(p));

    // And the replacement result is still exactly the scalar one.
    let mut reference = soa.make_out();
    soa.v(q, &mut reference);
    for k in 0..n {
        assert_eq!(out.value(k), reference.value(k));
    }
}
