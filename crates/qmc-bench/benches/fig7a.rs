//! Criterion bench for Fig. 7a: AoS vs SoA VGH kernel throughput,
//! scalar loop vs the batched API (`eval_batch`, hoisted basis weights).
//! Reduced scale (grid 12³); the full-scale sweep is the `fig7a` binary.

use bspline::precision::MixedEngine;
use bspline::simd::{with_backend, Backend as SimdBackend};
use bspline::SpoEngine;
use bspline::{BsplineAoS, BsplineSoA, Kernel, PosBlock};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qmc_bench::workload::{coefficients, coefficients_in, positions, positions_in};
use std::time::Duration;

fn bench_fig7a(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7a_vgh_aos_vs_soa");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let pos = positions(16, 11);
    let block = PosBlock::from_positions(&pos);
    for n in [64usize, 128, 256] {
        let table = coefficients(n, (12, 12, 12), n as u64);
        g.throughput(Throughput::Elements((n * pos.len()) as u64));

        let aos = BsplineAoS::new(table.clone());
        let mut out = aos.make_out();
        g.bench_with_input(BenchmarkId::new("AoS", n), &n, |b, _| {
            b.iter(|| {
                for p in &pos {
                    aos.eval(Kernel::Vgh, *p, &mut out);
                }
            })
        });
        let mut batch_out = aos.make_batch_out(block.len());
        g.bench_with_input(BenchmarkId::new("AoS_batch", n), &n, |b, _| {
            b.iter(|| aos.eval_batch(Kernel::Vgh, &block, &mut batch_out))
        });

        let soa = BsplineSoA::new(table);
        let mut out = soa.make_out();
        g.bench_with_input(BenchmarkId::new("SoA", n), &n, |b, _| {
            b.iter(|| {
                for p in &pos {
                    soa.eval(Kernel::Vgh, *p, &mut out);
                }
            })
        });
        let mut batch_out = soa.make_batch_out(block.len());
        g.bench_with_input(BenchmarkId::new("SoA_batch", n), &n, |b, _| {
            b.iter(|| soa.eval_batch(Kernel::Vgh, &block, &mut batch_out))
        });
        // Scalar-vs-SIMD ablation row: the same batched workload with
        // the micro-kernel dispatch forced to the portable scalar pack.
        let mut batch_out = soa.make_batch_out(block.len());
        g.bench_with_input(BenchmarkId::new("SoA_batch_simd_off", n), &n, |b, _| {
            b.iter(|| {
                with_backend(SimdBackend::Scalar, || {
                    soa.eval_batch(Kernel::Vgh, &block, &mut batch_out)
                })
            })
        });

        // Per-precision rows over the identical workload shape: the f64
        // accuracy reference and the mixed adapter (f32 storage + SIMD
        // compute, f64 delivery) over the downcast of the same table.
        let pos64 = positions_in::<f64>(16, 11);
        let block64 = PosBlock::from_positions(&pos64);
        let table64 = coefficients_in::<f64>(n, (12, 12, 12), n as u64);
        let soa64 = BsplineSoA::new(table64.clone());
        let mut batch_out = soa64.make_batch_out(block64.len());
        g.bench_with_input(BenchmarkId::new("SoA_batch_f64", n), &n, |b, _| {
            b.iter(|| soa64.eval_batch(Kernel::Vgh, &block64, &mut batch_out))
        });
        let mixed = MixedEngine::soa(&table64);
        let mut batch_out = mixed.make_batch_out(block64.len());
        g.bench_with_input(BenchmarkId::new("SoA_batch_mixed", n), &n, |b, _| {
            b.iter(|| mixed.eval_batch(Kernel::Vgh, &block64, &mut batch_out))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fig7a);
criterion_main!(benches);
