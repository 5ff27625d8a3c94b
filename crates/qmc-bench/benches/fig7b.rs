//! Criterion bench for Fig. 7b: untiled SoA vs AoSoA tiling (batched
//! view, Fig. 6 loop order). Full-scale sweep: the `fig7b` binary.

use bspline::SpoEngine;
use bspline::{BsplineAoSoA, BsplineSoA, Kernel, PosBlock};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qmc_bench::workload::{coefficients, positions};
use std::time::Duration;

fn bench_fig7b(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7b_soa_vs_aosoa");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let pos = positions(16, 13);
    let block = PosBlock::from_positions(&pos);
    for n in [128usize, 256] {
        let table = coefficients(n, (12, 12, 12), n as u64);
        g.throughput(Throughput::Elements((n * pos.len()) as u64));

        let soa = BsplineSoA::new(table.clone());
        let mut out = soa.make_out();
        g.bench_with_input(BenchmarkId::new("SoA", n), &n, |b, _| {
            b.iter(|| {
                for p in &pos {
                    soa.vgh(*p, &mut out);
                }
            })
        });

        let tiled = BsplineAoSoA::from_multi(&table, 32);
        let mut out = tiled.make_batch_out(block.len());
        g.bench_with_input(BenchmarkId::new("AoSoA_Nb32", n), &n, |b, _| {
            b.iter(|| tiled.eval_batch(Kernel::Vgh, &block, &mut out))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fig7b);
criterion_main!(benches);
