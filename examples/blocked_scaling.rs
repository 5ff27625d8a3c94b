//! Blocked-vs-monolithic nested-generation scaling on the host —
//! the runnable walkthrough of the orbital-block decomposition
//! (`bspline::blocked`) and the walker×block nested schedule.
//!
//! ```text
//! cargo run --release --example blocked_scaling
//! QMC_N=2048 QMC_NS=512 QMC_WALKERS=4 QMC_GRID=32 QMC_THREADS=4 \
//!     cargo run --release --example blocked_scaling
//! ```
//!
//! Env knobs: `QMC_N` (orbitals), `QMC_GRID` (grid per dimension),
//! `QMC_WALKERS`, `QMC_NS` (positions per walker), `QMC_REPS`,
//! `QMC_THREADS` (worker pin, via the rayon stub). The first five must
//! be positive integers: anything else, zero included, panics naming
//! the variable and the value. One row per budget
//! candidate ({L2, LLC/workers, whole table} + the recorded default),
//! comparing one VGH generation against the monolithic single-object
//! engine at the same walker×thread shape.

use bspline::blocked::BlockedEngine;
use bspline::parallel::run_nested_blocked;
use bspline::prelude::*;
use bspline::tuning::BlockBudgets;
use bspline::walker::walker_rng;
use einspline::{Grid1, MultiCoefs};

/// `key` as a positive integer, `default` when unset; a malformed or
/// zero value panics naming the variable and the value (zero would time
/// no work and print an infinite or NaN rate).
fn env_usize(key: &str, default: usize) -> usize {
    match std::env::var(key) {
        Err(_) => default,
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => panic!("{key} must be a positive integer, got {v:?}"),
        },
    }
}

fn main() {
    let n = env_usize("QMC_N", 1024);
    let ng = env_usize("QMC_GRID", 32);
    let walkers = env_usize("QMC_WALKERS", 4);
    let ns = env_usize("QMC_NS", 256);
    let reps = env_usize("QMC_REPS", 3);
    let nth = rayon::current_num_threads();

    let g = Grid1::periodic(0.0, 1.0, ng);
    let mut table = MultiCoefs::<f32>::new(g, g, g, n);
    table.fill_random(&mut walker_rng(99, 0));
    println!(
        "N={n} grid={ng}^3 table={} MiB walkers={walkers} ns={ns} nth={nth} simd={}",
        table.bytes() >> 20,
        bspline::simd::active_backend(),
    );

    let domain = [(0.0, 1.0); 3];
    let positions: Vec<PosBlock<f32>> = (0..walkers)
        .map(|w| PosBlock::random(&mut walker_rng(7, w), ns, domain))
        .collect();

    // Best-of-`reps` wall time of one VGH generation, after a warm-up.
    let generation = |engine: &BlockedEngine<BsplineSoA<f32>>| {
        let mut outs: Vec<WalkerSoA<f32>> = (0..walkers).map(|_| engine.make_out()).collect();
        run_nested_blocked(engine, Kernel::Vgh, &mut outs, &positions, nth);
        (0..reps)
            .map(|_| run_nested_blocked(engine, Kernel::Vgh, &mut outs, &positions, nth))
            .fold(f64::INFINITY, |best, d| best.min(d.as_secs_f64()))
    };

    // Monolithic reference: the single multi-spline object (1 tile).
    let best_mono = generation(&BsplineAoSoA::from_multi(&table, n));
    let evals = (n * walkers * ns) as f64;
    println!(
        "monolithic: {:8.1} ms   {:6.2} M-evals/s",
        best_mono * 1e3,
        evals / best_mono / 1e6
    );

    let budgets = BlockBudgets::detect(table.bytes());
    let candidates = vec![
        ("L2", budgets.l2),
        ("LLC/workers", budgets.l3_per_core),
        ("whole-table", budgets.whole_table),
        ("default", bspline::tuning::default_block_budget(table.bytes())),
    ];
    // Measure each distinct decomposition once (several budgets can
    // resolve to the same block width — "default" is the whole table
    // when the table fits the LLC and the LLC/workers candidate
    // otherwise).
    let mut seen_nb: Vec<usize> = Vec::new();
    for (label, budget) in candidates {
        let nb = table.block_splines_for_budget(budget);
        if seen_nb.contains(&nb) {
            continue;
        }
        seen_nb.push(nb);
        let engine = BlockedEngine::from_multi(&table, budget);
        let best = generation(&engine);
        println!(
            "blocked {label:>12} ({:7} KiB, nb={:4}, B={:3}): {:8.1} ms   {:6.2} M-evals/s   {:4.2}x vs monolithic",
            budget >> 10,
            engine.nb(),
            engine.n_blocks(),
            best * 1e3,
            evals / best / 1e6,
            best_mono / best,
        );
    }
}
