//! Fig. 7a — VGH throughput before/after the AoS→SoA transformation
//! (Opt A) across problem sizes N.
//!
//! Paper shape: SoA ≥ AoS everywhere, 2–4× for small/medium N; the gain
//! shrinks as N grows beyond ~512 (outputs fall out of cache). Host
//! measurements plus (with `--model`) cachesim predictions for the four
//! paper platforms.
//!
//! `T_SoA_batch` is the same SoA engine through the batched entry point
//! (`batch_size()` positions per call). It is not a paper column: it
//! keeps the on-file anomaly "batched SoA VGH slower than the scalar
//! call at N ≥ 512" (ROADMAP open item 2) one command away.

use bspline::{BsplineAoS, BsplineSoA, Kernel, Layout};
use cachesim::Platform;
use qmc_bench::report::{gops, speedup};
use qmc_bench::workload::{grid, n_sweep, samples_for};
use qmc_bench::{
    coefficients, measure_kernel, measure_kernel_batched, MeasureConfig, ModelScenario, Table,
};

fn main() {
    let with_model = std::env::args().any(|a| a == "--model");
    let grid = grid();

    let mut t = Table::new(
        "Fig 7a: VGH throughput (G-evals/s), AoS vs SoA (host)",
        &["N", "ns", "T_AoS", "T_SoA", "speedup", "T_SoA_batch"],
    );
    for n in n_sweep() {
        let table = coefficients(n, grid, 42 + n as u64);
        let cfg = MeasureConfig {
            ns: samples_for(n),
            reps: 3,
            seed: 7,
        };
        let aos = BsplineAoS::new(table.clone());
        let t_aos = measure_kernel(&aos, Kernel::Vgh, &cfg);
        drop(aos);
        let soa = BsplineSoA::new(table);
        let t_soa = measure_kernel(&soa, Kernel::Vgh, &cfg);
        let t_soa_batch = measure_kernel_batched(&soa, Kernel::Vgh, &cfg);
        t.row(vec![
            n.to_string(),
            cfg.ns.to_string(),
            gops(t_aos.ops_per_sec),
            gops(t_soa.ops_per_sec),
            speedup(t_soa.speedup_over(t_aos)),
            gops(t_soa_batch.ops_per_sec),
        ]);
        eprintln!("measured N={n}");
    }
    t.print();

    if with_model {
        let mut m = Table::new(
            "Fig 7a (modelled platforms): predicted SoA/AoS VGH speedup",
            &["N", "BDW", "KNC", "KNL", "BG/Q"],
        );
        for n in n_sweep() {
            let mut cells = vec![n.to_string()];
            for p in Platform::all() {
                let a = qmc_bench::model_prediction(&p, &ModelScenario::vgh(Layout::Aos, n, n));
                let s = qmc_bench::model_prediction(&p, &ModelScenario::vgh(Layout::Soa, n, n));
                cells.push(speedup(s.throughput / a.throughput));
            }
            m.row(cells);
            eprintln!("modelled N={n}");
        }
        m.print();
    }
}
