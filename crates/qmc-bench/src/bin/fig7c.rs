//! Fig. 7c — AoSoA VGH throughput vs tile size Nb at N = 2048.
//!
//! The paper's key tuning plot: on shared-LLC machines (BDW, BG/Q) the
//! optimum is Nb = 64 — one coefficient tile (4·Ng·Nb ≈ 28 MB) fits the
//! LLC; on private-L2 Xeon Phi (KNC, KNL) the optimum is Nb = 512 —
//! output blocks stay cache-resident while prefactor costs amortize.
//! Host measurements plus per-platform model predictions.
//!
//! The host optimum follows the cache hierarchy, not the pack width. The
//! last recorded Nb sweep (VGH, 24³ grid, cell-wide positions, N = 512
//! and 1024, on the 2 MiB-private-L2 x86-64 host the `bench/` ledger
//! runs on) read **Nb\* = 256** in every run: under `QMC_SIMD=avx2`
//! (8 lanes, N = 512) 0.046–0.048 G-evals/s at 256 against 0.019–0.037
//! at 16–128 over two runs, and with the 16-lane AVX-512 packs
//! 0.066–0.081 at 256 over three runs against 0.017–0.059 at 16–128 in
//! one. At N = 1024 the untiled walk lost to 256 at both widths. The
//! ledger's fixed `AOSOA_NB` = 64 is the paper's CPU value, not a tuned
//! one.

use bspline::{BsplineAoSoA, Kernel, Layout};
use cachesim::Platform;
use qmc_bench::report::gops;
use qmc_bench::workload::{grid, samples_for};
use qmc_bench::{coefficients, measure_kernel_batched, MeasureConfig, ModelScenario, Table};

fn main() {
    let quick = qmc_bench::is_quick();
    let n = if quick { 512 } else { 2048 };
    let sweep: Vec<usize> = [16, 32, 64, 128, 256, 512, 1024, 2048]
        .into_iter()
        .filter(|nb| *nb <= n)
        .collect();
    let grid = grid();
    let skip_host = std::env::args().any(|a| a == "--model-only");

    if !skip_host {
        let table = coefficients(n, grid, 4242);
        let cfg = MeasureConfig {
            ns: samples_for(n),
            reps: 3,
            seed: 7,
        };
        let mut t = Table::new(
            format!("Fig 7c: AoSoA VGH throughput vs tile size (host), N={n}"),
            &["Nb", "tiles", "T (G-evals/s)"],
        );
        for &nb in &sweep {
            let tiled = BsplineAoSoA::from_multi(&table, nb);
            let thr = measure_kernel_batched(&tiled, Kernel::Vgh, &cfg);
            t.row(vec![
                nb.to_string(),
                tiled.n_blocks().to_string(),
                gops(thr),
            ]);
            eprintln!("host Nb={nb}");
        }
        t.print();
    }

    let mut m = Table::new(
        format!("Fig 7c (modelled): predicted VGH throughput (G-evals/s) vs Nb, N={n}"),
        &["Nb", "BDW", "KNC", "KNL", "BG/Q"],
    );
    let platforms = Platform::all();
    let mut best: Vec<(f64, usize)> = vec![(0.0, 0); platforms.len()];
    for &nb in &sweep {
        let mut cells = vec![nb.to_string()];
        for (pi, p) in platforms.iter().enumerate() {
            let mut sc = ModelScenario::vgh(Layout::AoSoA, n, nb);
            if quick {
                sc.grid = (16, 16, 16);
                sc.n_positions = 8;
            }
            let pred = qmc_bench::model_prediction(p, &sc);
            if pred.throughput > best[pi].0 {
                best[pi] = (pred.throughput, nb);
            }
            cells.push(gops(pred.throughput));
        }
        m.row(cells);
        eprintln!("modelled Nb={nb}");
    }
    m.print();
    println!("predicted optimal Nb per platform (paper: BDW 64, KNC 512, KNL 512, BG/Q 64):");
    for (p, (thr, nb)) in platforms.iter().zip(best) {
        println!("  {:>5}: Nb* = {:>4}  (T = {} G-evals/s)", p.name, nb, gops(thr));
    }
}
