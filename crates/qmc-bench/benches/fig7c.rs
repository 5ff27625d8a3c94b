//! Criterion bench for Fig. 7c: AoSoA throughput vs tile size Nb.
//! Full-scale sweep (with the four modelled platforms): `fig7c` binary.

use bspline::SpoEngine;
use bspline::{BsplineAoSoA, Kernel, PosBlock};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qmc_bench::workload::{coefficients, positions};
use std::time::Duration;

fn bench_fig7c(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7c_tile_sweep");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let n = 256;
    let block = PosBlock::from_positions(&positions(16, 17));
    let table = coefficients(n, (12, 12, 12), 5);
    g.throughput(Throughput::Elements((n * block.len()) as u64));
    for nb in [16usize, 32, 64, 128, 256] {
        let tiled = BsplineAoSoA::from_multi(&table, nb);
        let mut out = tiled.make_batch_out(block.len());
        g.bench_with_input(BenchmarkId::new("Nb", nb), &nb, |b, _| {
            b.iter(|| tiled.eval_batch(Kernel::Vgh, &block, &mut out))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fig7c);
criterion_main!(benches);
