//! Criterion bench for Fig. 8: per-kernel (V/VGL/VGH) cost in the AoS
//! baseline vs the AoSoA-optimized implementation through its batched
//! view (`eval_batch`: tile-major order, basis weights hoisted once per
//! position for all tiles), plus its scalar loop. Full-scale: `fig8`
//! binary.

use bspline::precision::MixedEngine;
use bspline::simd::{with_backend, Backend as SimdBackend};
use bspline::SpoEngine;
use bspline::{BsplineAoS, BsplineAoSoA, Kernel, PosBlock};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qmc_bench::workload::{coefficients, coefficients_in, positions, positions_in};
use std::time::Duration;

fn bench_fig8(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_kernels");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let n = 128;
    let pos = positions(16, 19);
    let block = PosBlock::from_positions(&pos);
    let table = coefficients(n, (12, 12, 12), 9);
    g.throughput(Throughput::Elements((n * pos.len()) as u64));

    let aos = BsplineAoS::new(table.clone());
    let tiled = BsplineAoSoA::from_multi(&table, 32);
    // Per-precision variants of the batched AoSoA path: f64 accuracy
    // reference and the mixed adapter over the downcast of one f64
    // table (same workload shape as the f32 rows).
    let pos64 = positions_in::<f64>(16, 19);
    let block64 = PosBlock::from_positions(&pos64);
    let table64 = coefficients_in::<f64>(n, (12, 12, 12), 9);
    let tiled64 = BsplineAoSoA::from_multi(&table64, 32);
    let tiled_mixed = MixedEngine::aosoa(&table64, 32);
    for k in Kernel::ALL {
        let mut out = aos.make_out();
        g.bench_with_input(BenchmarkId::new(format!("AoS_{k}"), n), &n, |b, _| {
            b.iter(|| {
                for p in &pos {
                    aos.eval(k, *p, &mut out);
                }
            })
        });
        let mut batch_out = tiled.make_batch_out(block.len());
        g.bench_with_input(
            BenchmarkId::new(format!("AoSoA_batch_{k}"), n),
            &n,
            |b, _| b.iter(|| tiled.eval_batch(k, &block, &mut batch_out)),
        );
        // Scalar-vs-SIMD ablation row: the identical tile-major batched
        // workload with the dispatch forced to the portable scalar pack.
        let mut batch_out = tiled.make_batch_out(block.len());
        g.bench_with_input(
            BenchmarkId::new(format!("AoSoA_batch_simd_off_{k}"), n),
            &n,
            |b, _| {
                b.iter(|| {
                    with_backend(SimdBackend::Scalar, || {
                        tiled.eval_batch(k, &block, &mut batch_out)
                    })
                })
            },
        );
        // Per-precision rows: identical batched tile-major workload in
        // f64 and through the mixed adapter.
        let mut batch_out = tiled64.make_batch_out(block64.len());
        g.bench_with_input(
            BenchmarkId::new(format!("AoSoA_batch_f64_{k}"), n),
            &n,
            |b, _| b.iter(|| tiled64.eval_batch(k, &block64, &mut batch_out)),
        );
        let mut batch_out = tiled_mixed.make_batch_out(block64.len());
        g.bench_with_input(
            BenchmarkId::new(format!("AoSoA_batch_mixed_{k}"), n),
            &n,
            |b, _| b.iter(|| tiled_mixed.eval_batch(k, &block64, &mut batch_out)),
        );
        // Scalar-loop reference with per-position retained outputs (what
        // the batched path replaces 1:1).
        let mut batch_out = tiled.make_batch_out(block.len());
        g.bench_with_input(
            BenchmarkId::new(format!("AoSoA_scalar_loop_{k}"), n),
            &n,
            |b, _| {
                b.iter(|| {
                    for (i, p) in pos.iter().enumerate() {
                        tiled.eval(k, *p, batch_out.block_mut(i));
                    }
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
