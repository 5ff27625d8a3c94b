//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * z-unrolled fused inner loop (SoA) vs the 64-point triple loop
//!   structure (AoS uses it) — isolate via VGL which differs most;
//! * nested threading over the explicit static tile partition, on
//!   ragged and uniform tile counts;
//! * distance-table layout: AoS scalar pairs vs SoA streamed rows;
//! * Jastrow over SoA rows vs per-pair AoS accessors.

use bspline::parallel::{blocked_generation_time, run_nested_blocked};
use bspline::{BsplineAoSoA, Kernel, PosBlock, SpoEngine, WalkerSoA};
use criterion::{criterion_group, criterion_main, Criterion};
use miniqmc::distance::aos::DistanceTableAAAoS;
use miniqmc::distance::soa::DistanceTableAA;
use miniqmc::jastrow::BsplineFunctor;
use miniqmc::lattice::Lattice;
use miniqmc::particleset::random_electrons;
use qmc_bench::workload::{coefficients, positions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));

    // --- nested threading: the static block partition -----------------
    // One generation at every thread per walker, the same work on one
    // thread, and the batched schedule on a deliberately ragged tile
    // count (13 tiles on `total` threads: the static partition idles
    // workers) against a uniform one (16 tiles). Outputs and position
    // blocks are allocated once outside the timed region.
    let n = 256;
    let table = coefficients(n, (12, 12, 12), 3);
    let engine = BsplineAoSoA::from_multi(&table, 16); // 16 tiles
    let total = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(2);
    g.bench_function("nested_static_partition", |b| {
        b.iter(|| blocked_generation_time(&engine, Kernel::Vgh, total, total, 8, 5))
    });
    let pos = positions(8, 5);
    let block = PosBlock::from_positions(&pos);
    let mut single = vec![engine.make_out()];
    let one_walker = vec![block.clone()];
    g.bench_function("nested_single_thread", |b| {
        b.iter(|| run_nested_blocked(&engine, Kernel::Vgh, &mut single, &one_walker, 1))
    });
    let n_walkers = 2;
    let blocks: Vec<PosBlock<f32>> = (0..n_walkers).map(|_| block.clone()).collect();
    for (label, n_tiles) in [("ragged13", 13usize), ("uniform16", 16)] {
        let tiled =
            BsplineAoSoA::from_multi(&coefficients(n_tiles * 16, (12, 12, 12), 4), 16);
        let mut walkers: Vec<_> = (0..n_walkers).map(|_| tiled.make_out()).collect();
        g.bench_function(format!("nested_batched_static_{label}"), |b| {
            b.iter(|| run_nested_blocked(&tiled, Kernel::Vgh, &mut walkers, &blocks, total))
        });
    }

    // --- SIMD dispatch: active backend vs forced sse2 vs forced scalar
    let simd_engine = bspline::BsplineSoA::new(coefficients(n, (12, 12, 12), 21));
    let simd_block = PosBlock::from_positions(&pos);
    let mut simd_out = simd_engine.make_batch_out(simd_block.len());
    g.bench_function(
        format!("vgh_batch_simd_{}", bspline::simd::default_backend()),
        |b| b.iter(|| simd_engine.eval_batch(Kernel::Vgh, &simd_block, &mut simd_out)),
    );
    for backend in bspline::simd::Backend::available() {
        g.bench_function(format!("vgh_batch_simd_forced_{backend}"), |b| {
            b.iter(|| {
                bspline::simd::with_backend(backend, || {
                    simd_engine.eval_batch(Kernel::Vgh, &simd_block, &mut simd_out)
                })
            })
        });
    }

    // --- z-unroll fusion: fused plane kernel vs naive 64-point loop -----
    let soa_engine = bspline::BsplineSoA::new(coefficients(n, (12, 12, 12), 9));
    let mut soa_out = WalkerSoA::new(n);
    g.bench_function("vgh_fused_zunroll", |b| {
        b.iter(|| {
            for p in &pos {
                soa_engine.vgh(*p, &mut soa_out);
            }
        })
    });
    g.bench_function("vgh_naive_triple_loop", |b| {
        b.iter(|| {
            for p in &pos {
                bspline::soa::vgh_naive(&soa_engine, *p, &mut soa_out);
            }
        })
    });

    // --- distance tables: AoS vs SoA rebuild ----------------------------
    let lat = Lattice::hexagonal(3.0, 8.0);
    let ps = random_electrons(lat, 64, &mut StdRng::seed_from_u64(7));
    let mut aos = DistanceTableAAAoS::new(&ps);
    let mut soa = DistanceTableAA::new(&ps);
    g.bench_function("distance_rebuild_aos", |b| b.iter(|| aos.rebuild(&ps)));
    g.bench_function("distance_rebuild_soa", |b| b.iter(|| soa.rebuild(&ps)));

    // --- Jastrow sum over a row: per-pair accessor vs row slice ---------
    let u = BsplineFunctor::rpa_like(0.5, 1.2, lat.wigner_seitz_radius() * 0.9, 48);
    g.bench_function("jastrow_row_aos_accessor", |b| {
        b.iter(|| {
            let mut s = 0.0;
            for j in 0..64 {
                s += u.value(aos.distance(0, j));
            }
            s
        })
    });
    g.bench_function("jastrow_row_soa_slice", |b| {
        b.iter(|| soa.row(0).iter().map(|&r| u.value(r)).sum::<f64>())
    });

    g.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
