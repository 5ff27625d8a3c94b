//! Criterion bench for Table IV: the three optimization steps measured
//! back-to-back on one workload (AoS baseline → SoA → AoSoA → nested).
//! Full-scale + modelled platforms: `table4` binary.

use bspline::SpoEngine;
use bspline::parallel::blocked_generation_time;
use bspline::{BsplineAoS, BsplineAoSoA, BsplineSoA, Kernel, PosBlock};
use criterion::{criterion_group, criterion_main, Criterion};
use qmc_bench::workload::{coefficients, positions};
use std::time::Duration;

fn bench_table4(c: &mut Criterion) {
    let mut g = c.benchmark_group("table4_opt_steps");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    let n = 256;
    let pos = positions(12, 23);
    let table = coefficients(n, (12, 12, 12), 7);

    let aos = BsplineAoS::new(table.clone());
    let mut out = aos.make_out();
    g.bench_function("step0_baseline_aos", |b| {
        b.iter(|| {
            for p in &pos {
                aos.vgh(*p, &mut out);
            }
        })
    });

    let soa = BsplineSoA::new(table.clone());
    let mut out = soa.make_out();
    g.bench_function("stepA_soa", |b| {
        b.iter(|| {
            for p in &pos {
                soa.vgh(*p, &mut out);
            }
        })
    });

    let tiled = BsplineAoSoA::from_multi(&table, 32);
    let block = PosBlock::from_positions(&pos);
    let mut out = tiled.make_batch_out(block.len());
    g.bench_function("stepB_aosoa", |b| {
        b.iter(|| tiled.eval_batch(Kernel::Vgh, &block, &mut out))
    });

    let total = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(2);
    g.bench_function("stepC_nested", |b| {
        b.iter(|| blocked_generation_time(&tiled, Kernel::Vgh, total, total, 12, 3))
    });
    g.finish();
}

criterion_group!(benches, bench_table4);
criterion_main!(benches);
