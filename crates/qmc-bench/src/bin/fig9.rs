//! Fig. 9 — strong scaling with nested threading (Opt C): speedup of one
//! Monte Carlo generation vs threads-per-walker `nth` at N = 2048, with
//! the machine-wide thread count fixed and walkers reduced by `nth`.
//!
//! Paper (KNL): ≥90 % parallel efficiency up to nth = 16 while tiles
//! remain ≥ threads. The host here has few cores, so host numbers cover
//! small nth; the KNL-model rows extend the sweep by combining the
//! cachesim traffic at the per-thread tile partition with ideal
//! work-splitting (the paper's explicit-partition design point).

use bspline::blocked::BlockedEngine;
use bspline::parallel::blocked_generation_time;
use bspline::{BsplineAoSoA, Kernel, Layout};
use cachesim::Platform;
use qmc_bench::workload::{grid, samples_for};
use qmc_bench::{coefficients, ModelScenario, Table};

fn main() {
    let quick = qmc_bench::is_quick();
    let n = if quick { 512 } else { 2048 };
    let nb = if quick { 32 } else { 128 };
    let grid = grid();
    // rayon's thread count honors QMC_THREADS, so sweeps are pinnable
    // (and a single-core host can still drive the nested schedules).
    let host_threads = rayon::current_num_threads();

    // ---- host measurement -------------------------------------------------
    let table = coefficients(n, grid, 99);
    let engine = BsplineAoSoA::from_multi(&table, nb);
    drop(table);
    let ns = samples_for(n);

    let mut t = Table::new(
        format!(
            "Fig 9: nested-threading generation speedup (host, {host_threads} threads, N={n}, Nb={nb})"
        ),
        &["nth", "walkers", "wall (ms)", "speedup", "efficiency"],
    );
    let mut base = None;
    let mut nth = 1;
    while nth <= host_threads {
        // Warm-up + best-of-3.
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let d = blocked_generation_time(&engine, Kernel::Vgh, host_threads, nth, ns, 5);
            best = best.min(d.as_secs_f64());
        }
        let b = *base.get_or_insert(best);
        let sp = b / best;
        t.row(vec![
            nth.to_string(),
            (host_threads / nth).max(1).to_string(),
            format!("{:.1}", best * 1e3),
            format!("{sp:.2}x"),
            format!("{:.0} %", 100.0 * sp / nth as f64),
        ]);
        eprintln!("host nth={nth}");
        nth *= 2;
    }
    t.print();
    drop(engine);

    // ---- blocked vs monolithic (host) -------------------------------------
    // The single multi-spline object (one tile — nothing for nested
    // threads to split) against the orbital-block decomposition at
    // `default_block_budget`, both through the walker×block nested
    // schedule: the reproduction that budget's docs point at.
    let table = coefficients(n, grid, 99);
    let budget = bspline::tuning::default_block_budget(table.bytes());
    let mono = BsplineAoSoA::from_multi(&table, n);
    let blocked = BlockedEngine::from_multi(&table, budget);
    drop(table);
    let mut b = Table::new(
        format!(
            "Fig 9 (blocked vs monolithic): one VGH generation, N={n}, budget={} KiB, B={}",
            budget / 1024,
            blocked.n_blocks()
        ),
        &["nth", "monolithic (ms)", "blocked (ms)", "blocked speedup"],
    );
    let mut nth = 1;
    while nth <= host_threads {
        let mut best_m = f64::INFINITY;
        let mut best_b = f64::INFINITY;
        for _ in 0..3 {
            let dm = blocked_generation_time(&mono, Kernel::Vgh, host_threads, nth, ns, 5);
            best_m = best_m.min(dm.as_secs_f64());
            let db = blocked_generation_time(&blocked, Kernel::Vgh, host_threads, nth, ns, 5);
            best_b = best_b.min(db.as_secs_f64());
        }
        b.row(vec![
            nth.to_string(),
            format!("{:.1}", best_m * 1e3),
            format!("{:.1}", best_b * 1e3),
            format!("{:.2}x", best_m / best_b),
        ]);
        eprintln!("blocked-vs-monolithic nth={nth}");
        nth *= 2;
    }
    b.print();
    drop((mono, blocked));

    // ---- KNL model --------------------------------------------------------
    let knl = Platform::knl();
    let mut m = Table::new(
        format!("Fig 9 (modelled KNL): per-generation speedup vs nth, N={n}"),
        &["nth", "Nb(run)", "tiles/thread", "speedup", "efficiency"],
    );
    // Paper: tile sizes chosen to have sufficient tiles for nth
    // (caption); Nb = 128 at nth = 16.
    let mut base_thr = None;
    for nth in [1usize, 2, 4, 8, 16] {
        let nb_run = if quick { 32 } else { 512.min(n / nth) };
        let mut sc = ModelScenario::vgh(Layout::AoSoA, n, nb_run);
        sc.nth = nth;
        if quick {
            sc.grid = (16, 16, 16);
            sc.n_positions = 8;
        }
        let pred = qmc_bench::model_prediction(&knl, &sc);
        // Per-generation time ∝ work/throughput; work per generation
        // drops by nth (fewer walkers), so generation speedup =
        // nth × (T(nth)/T(1)).
        let b = *base_thr.get_or_insert(pred.throughput);
        let sp = nth as f64 * pred.throughput / b;
        m.row(vec![
            nth.to_string(),
            nb_run.to_string(),
            ((n / nb_run) / nth).max(1).to_string(),
            format!("{sp:.2}x"),
            format!("{:.0} %", 100.0 * sp / nth as f64),
        ]);
        eprintln!("modelled nth={nth}");
    }
    m.print();
    println!("paper (KNL, N=2048): ~14.5x at nth=16 (≥90 % efficiency)");
}
