//! Nested-threading demo (Opt C): one walker's evaluation split across
//! threads by tiles, machine-wide thread budget fixed, walkers reduced
//! accordingly — the paper's path to strong scaling (Fig. 9).
//!
//! Flows through the batched API: every walker's generation is one
//! [`PosBlock`] handed to [`run_nested_blocked`], and the per-walker output
//! blocks + position blocks are allocated once up front and reused
//! across all repetitions and thread counts (no allocation inside the
//! measurement loop).
//!
//! Run: `cargo run --release -p qmc-bench --example strong_scaling`

use bspline::parallel::run_nested_blocked;
use bspline::walker::walker_rng;
use bspline::{BsplineAoSoA, Kernel, PosBlock, SpoEngine, WalkerSoA};
use qmc_bench::workload::coefficients;

fn main() {
    let n = 1024;
    let nb = 64;
    let ns = 64;
    let table = coefficients(n, (24, 24, 24), 42);
    let engine = BsplineAoSoA::from_multi(&table, nb);
    let total = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(2);
    println!(
        "N = {n}, Nb = {nb} ({} tiles), machine threads = {total}",
        engine.n_blocks()
    );

    // One position block and one output block per walker at the
    // maximum walker count, allocated once and reused for every nth.
    let domain = SpoEngine::<f32>::domain(&engine);
    let positions: Vec<PosBlock<f32>> = (0..total)
        .map(|w| PosBlock::random(&mut walker_rng(9, w), ns, domain))
        .collect();
    let mut walkers: Vec<WalkerSoA<f32>> =
        (0..total).map(|_| engine.make_out()).collect();

    println!("\nnth  walkers  generation wall  speedup  efficiency");
    let mut base = None;
    let mut nth = 1;
    while nth <= total {
        let n_walkers = (total / nth).max(1);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let d = run_nested_blocked(
                &engine,
                Kernel::Vgh,
                &mut walkers[..n_walkers],
                &positions[..n_walkers],
                nth,
            );
            best = best.min(d.as_secs_f64());
        }
        let b = *base.get_or_insert(best);
        let sp = b / best;
        println!(
            "{nth:>3}  {n_walkers:>7}  {:>13.2} ms  {sp:>6.2}x  {:>9.0} %",
            best * 1e3,
            100.0 * sp / nth as f64
        );
        nth *= 2;
    }
    println!("\n(each generation: every walker evaluates {ns} VGH positions as one");
    println!(" batched block; walkers per node drop by nth, so ideal per-generation");
    println!(" speedup = nth)");
}
