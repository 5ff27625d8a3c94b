//! Quickstart: build a multi-orbital B-spline table, see the three
//! optimization steps of the paper on one position, then the three
//! views every engine offers of its one evaluation core: `eval` (one
//! position; `v`/`vgl`/`vgh` are sugar for it), `eval_batch` (a whole
//! position block, one pre-allocated output block per position) and
//! `eval_one` (one single-electron move with a walker-owned context).
//!
//! Run: `cargo run --release --example quickstart`

use bspline::{BsplineAoS, BsplineAoSoA, BsplineSoA, Kernel, MoveContext, PosBlock, SpoEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use einspline::{Grid1, MultiCoefs};

fn main() {
    // A 32-orbital table on a 24³ periodic grid over the unit cube
    // (fractional coordinates), random coefficients as in miniQMC.
    let n = 32;
    let g = Grid1::periodic(0.0, 1.0, 24);
    let mut table = MultiCoefs::<f32>::new(g, g, g, n);
    table.fill_random(&mut StdRng::seed_from_u64(2024));
    println!(
        "coefficient table: {} orbitals, grid 24^3, {:.1} MB",
        n,
        table.bytes() as f64 / 1e6
    );

    let pos = [0.31f32, 0.72, 0.18];

    // Baseline (AoS outputs, Fig. 4a).
    let aos = BsplineAoS::new(table.clone());
    let mut out_aos = aos.make_out();
    aos.vgh(pos, &mut out_aos);

    // Opt A: SoA output streams (Fig. 4b).
    let soa = BsplineSoA::new(table.clone());
    let mut out_soa = soa.make_out();
    soa.vgh(pos, &mut out_soa);

    // Opt B: AoSoA tiling, Nb = 8.
    let tiled = BsplineAoSoA::from_multi(&table, 8);
    let mut out_tiled = tiled.make_out();
    tiled.vgh(pos, &mut out_tiled);
    println!("AoSoA engine: {} tiles of Nb = {}", tiled.n_blocks(), tiled.nb());

    // All three layouts produce the same physics.
    println!("\norbital  value        |grad|      laplacian   (layouts agree)");
    for k in [0usize, 7, 31] {
        let v = out_soa.value(k);
        let gvec = out_soa.gradient(k);
        let gn = (gvec[0] * gvec[0] + gvec[1] * gvec[1] + gvec[2] * gvec[2]).sqrt();
        let lap = out_soa.hessian_trace(k);
        let agree = (out_aos.value(k) - v).abs() < 1e-4
            && (out_tiled.value(k) - v).abs() < 1e-6;
        println!("{k:>7}  {v:>+.4e}  {gn:>+.4e}  {lap:>+.4e}  {agree}");
    }

    // The batch view: a whole SoA block of positions per engine call,
    // kernel chosen by tag. Output blocks are allocated ONCE
    // (make_batch_out) and reused — the engine only overwrites. For the
    // tiled engine the core runs tile-major: one coefficient tile serves
    // every position before the next tile is touched, and the basis
    // weights are computed once per position for all tiles.
    let mut rng = StdRng::seed_from_u64(7);
    let block: PosBlock<f32> =
        PosBlock::random(&mut rng, 8, SpoEngine::<f32>::domain(&tiled));
    let mut batch_out = tiled.make_batch_out(block.len());
    tiled.eval_batch(Kernel::Vgh, &block, &mut batch_out);
    println!("\nbatched VGH over {} positions (tile-major):", block.len());
    for (i, p) in block.iter().enumerate() {
        println!(
            "  pos {i} [{:+.2} {:+.2} {:+.2}]  phi_0 = {:+.4e}  lap_0 = {:+.4e}",
            p[0],
            p[1],
            p[2],
            batch_out.block(i).value(0),
            batch_out.block(i).hessian_trace(0),
        );
    }

    // The one-move view: V on propose, VGL on accept at the same
    // position. The context (one per walker) caches the grid locate +
    // basis weights of the proposal, so the accept-side call skips them;
    // the result is bit-identical to the scalar view.
    let mut ctx = MoveContext::new();
    let mut out_move = soa.make_out();
    soa.eval_one(Kernel::V, &mut ctx, pos, &mut out_move);
    let ratio_value = out_move.value(0);
    soa.eval_one(Kernel::Vgl, &mut ctx, pos, &mut out_move);
    println!(
        "\none move: phi_0 = {ratio_value:+.4e} on propose, lap_0 = {:+.4e} on accept \
         (same as scalar: {})",
        out_move.laplacian(0),
        out_move.value(0) == out_soa.value(0),
    );
}
