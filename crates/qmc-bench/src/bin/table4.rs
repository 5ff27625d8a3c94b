//! Table IV — speedups of the optimization steps at N = 2048:
//! A (AoS→SoA), B (AoSoA tiling, cumulative), C (nested threading,
//! cumulative, including the strong-scaling factor nth).
//!
//! Host columns measure the real engines; platform columns use the
//! cachesim + roofline model at the paper's optimal tile sizes and nth.

use bspline::parallel::blocked_generation_time;
use bspline::{BsplineAoS, BsplineAoSoA, BsplineSoA, Kernel, Layout};
use cachesim::Platform;
use qmc_bench::report::speedup;
use qmc_bench::workload::{grid, samples_for};
use qmc_bench::{
    coefficients, measure_kernel, measure_kernel_batched, MeasureConfig, ModelScenario, Table,
};

fn host_rows(n: usize, nb: usize) -> Vec<(Kernel, f64, f64, f64)> {
    let grid = grid();
    let table = coefficients(n, grid, 77);
    let cfg = MeasureConfig {
        ns: samples_for(n),
        reps: 3,
        seed: 3,
    };
    let host_threads = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(2);
    let mut out = Vec::new();
    for k in Kernel::ALL {
        let aos = BsplineAoS::new(table.clone());
        let t0 = measure_kernel(&aos, k, &cfg).ops_per_sec;
        drop(aos);
        let soa = BsplineSoA::new(table.clone());
        let ta = measure_kernel(&soa, k, &cfg).ops_per_sec;
        drop(soa);
        let tiled = BsplineAoSoA::from_multi(&table, nb);
        let tb = measure_kernel_batched(&tiled, k, &cfg).ops_per_sec;
        // Opt C on the host: nth = all host threads on one walker; the
        // paper's convention multiplies B by the per-generation wall
        // gain at a fixed machine.
        let nth = host_threads;
        let mut best1 = f64::INFINITY;
        let mut bestn = f64::INFINITY;
        for _ in 0..3 {
            best1 = best1.min(
                blocked_generation_time(&tiled, k, host_threads, 1, cfg.ns, 5).as_secs_f64(),
            );
            bestn = bestn.min(
                blocked_generation_time(&tiled, k, host_threads, nth, cfg.ns, 5).as_secs_f64(),
            );
        }
        out.push((k, ta / t0, tb / t0, (tb / t0) * (best1 / bestn)));
        eprintln!("host {k} done");
    }
    out
}

fn main() {
    let quick = qmc_bench::is_quick();
    let n = if quick { 512 } else { 2048 };
    let nb_host = if quick { 32 } else { 128 };

    let mut t = Table::new(
        format!("Table IV (host): cumulative speedups at N={n} (AoS reference)"),
        &["kernel", "A (SoA)", "B (AoSoA)", "C (nested, x gen-gain)"],
    );
    for (k, a, b, c) in host_rows(n, nb_host) {
        t.row(vec![
            k.to_string(),
            speedup(a),
            speedup(b),
            speedup(c),
        ]);
    }
    t.print();

    // ---- modelled platforms (VGH row of Table IV) -------------------------
    let mut m = Table::new(
        format!("Table IV (modelled, VGH): predicted cumulative speedups at N={n}"),
        &["platform", "A (SoA)", "B (AoSoA)", "C (nested)", "paper A/B/C"],
    );
    let paper = ["1.7 / 3.7 / 6.4", "2.6 / 5.2 / 35.2", "1.7 / 2.3 / 33.1", "1.9 / 2.7 / 5.2"];
    let nbs = [64usize, 512, 512, 64];
    let nths = [2usize, 8, 16, 2];
    for (i, p) in Platform::all().into_iter().enumerate() {
        let mk = |layout: Layout, nb: usize, nth: usize| {
            let mut sc = ModelScenario::vgh(layout, n, nb);
            sc.nth = nth;
            if quick {
                sc.grid = (16, 16, 16);
                sc.n_positions = 8;
            }
            qmc_bench::model_prediction(&p, &sc).throughput
        };
        let t0 = mk(Layout::Aos, n, 1);
        let ta = mk(Layout::Soa, n, 1);
        let tb = mk(Layout::AoSoA, nbs[i], 1);
        // C includes the strong-scaling factor nth (paper table note).
        let tc_thr = mk(Layout::AoSoA, (n / nths[i]).min(nbs[i]).max(16), nths[i]);
        let tc = nths[i] as f64 * tc_thr;
        m.row(vec![
            p.name.to_string(),
            speedup(ta / t0),
            speedup(tb / t0),
            speedup(tc / t0),
            paper[i].to_string(),
        ]);
        eprintln!("modelled {}", p.name);
    }
    m.print();
}
