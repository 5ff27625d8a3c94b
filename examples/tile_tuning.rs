//! Tile-size auto-tuning (the paper's FFTW-wisdom plan, Sec. VI): sweep
//! Nb on this machine, report the optimum. The optimal tile is a
//! property of the cache hierarchy, not of the problem size — verify by
//! sweeping two problem sizes.
//!
//! Run: `cargo run --release -p qmc-bench --example tile_tuning`

use bspline::tuning::{tune_tile_size, TuneConfig};
use bspline::Kernel;
use qmc_bench::workload::coefficients;

fn main() {
    let grid = (24, 24, 24);
    let cfg = TuneConfig {
        ns: 64,
        reps: 3,
        seed: 1,
    };
    for n in [512usize, 1024] {
        println!("N = {n} (grid {grid:?}):");
        let table = coefficients(n, grid, n as u64);
        let tuned = tune_tile_size(&table, Kernel::Vgh, &[16, 32, 64, 128, 256, 512, 1024], &cfg);
        for (nb, ops) in tuned.sweep {
            println!("  Nb = {nb:>5}: {:.3} G-evals/s", ops / 1e9);
        }
        println!("  -> optimal Nb on this machine: {}\n", tuned.best_nb);
    }
    println!("(paper: Nb* = 64 on BDW/BG-Q, 512 on KNC/KNL — machine-dependent,");
    println!(" problem-size-independent; tune once per architecture)");
}
