//! Criterion bench for Fig. 9: nested-threading generation time vs
//! threads-per-walker, for both the monolithic (single-tile) engine and
//! the blocked (orbital-block) decomposition. Full-scale (host + KNL
//! model): `fig9` binary.
//!
//! Honors `QMC_BENCH_QUICK=1` like the fig7a/fig8 benches: walker
//! counts (via the thread budget), problem size and positions shrink
//! for smoke runs. `QMC_THREADS` pins the worker count.

use bspline::blocked::BlockedEngine;
use bspline::parallel::blocked_generation_time;
use bspline::{BsplineAoSoA, Kernel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qmc_bench::workload::{coefficients, is_quick};
use std::time::Duration;

fn bench_fig9(c: &mut Criterion) {
    let quick = is_quick();
    let mut g = c.benchmark_group("fig9_nested_threading");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    let n = if quick { 64 } else { 256 };
    let ns = if quick { 4 } else { 8 };
    let table = coefficients(n, (12, 12, 12), 31);
    let engine = BsplineAoSoA::from_multi(&table, 32); // N/32 tiles
    // A quarter-of-the-table byte budget → a ~4-block decomposition,
    // compared against the monolithic single-tile engine below.
    let blocked = BlockedEngine::from_multi(&table, table.bytes() / 4);
    let mono = BsplineAoSoA::from_multi(&table, n); // 1 tile
    let total = rayon::current_num_threads();
    let mut nth = 1;
    while nth <= total {
        g.bench_with_input(BenchmarkId::new("nth", nth), &nth, |b, &nth| {
            b.iter(|| blocked_generation_time(&engine, Kernel::Vgh, total, nth, ns, 3))
        });
        g.bench_with_input(BenchmarkId::new("monolithic_nth", nth), &nth, |b, &nth| {
            b.iter(|| blocked_generation_time(&mono, Kernel::Vgh, total, nth, ns, 3))
        });
        g.bench_with_input(BenchmarkId::new("blocked_nth", nth), &nth, |b, &nth| {
            b.iter(|| blocked_generation_time(&blocked, Kernel::Vgh, total, nth, ns, 3))
        });
        nth *= 2;
    }
    g.finish();
}

criterion_group!(benches, bench_fig9);
criterion_main!(benches);
