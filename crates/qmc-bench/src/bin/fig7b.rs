//! Fig. 7b — VGH throughput before/after the AoSoA (tiling)
//! transformation (Opt B) across problem sizes N.
//!
//! Paper shape: tiling restores *sustained* (N-independent) throughput;
//! the gain is largest at N = 2048/4096 where untiled SoA outputs fall
//! out of cache. Host uses its own optimal tile size (`--nb <size>`,
//! default 128); `--model` adds the four platforms at their paper-optimal
//! tiles (64 on BDW/BG-Q, 512 on KNC/KNL).

use bspline::{BsplineAoSoA, BsplineSoA, Kernel, Layout};
use cachesim::Platform;
use qmc_bench::report::{gops, speedup};
use qmc_bench::workload::{grid, n_sweep, samples_for};
use qmc_bench::{
    coefficients, measure_kernel, measure_kernel_batched, MeasureConfig, ModelScenario, Table,
};

fn arg_nb() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--nb")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(128)
}

fn main() {
    let with_model = std::env::args().any(|a| a == "--model");
    let nb_host = arg_nb();
    let grid = grid();

    let mut t = Table::new(
        format!("Fig 7b: VGH throughput (G-evals/s), SoA vs AoSoA Nb={nb_host} (host)"),
        &["N", "T_SoA", "T_AoSoA", "speedup"],
    );
    for n in n_sweep() {
        let table = coefficients(n, grid, 42 + n as u64);
        let cfg = MeasureConfig {
            ns: samples_for(n),
            reps: 3,
            seed: 7,
        };
        let soa = BsplineSoA::new(table.clone());
        let t_soa = measure_kernel(&soa, Kernel::Vgh, &cfg);
        drop(soa);
        let tiled = BsplineAoSoA::from_multi(&table, nb_host.min(n));
        drop(table);
        let t_tiled = measure_kernel_batched(&tiled, Kernel::Vgh, &cfg);
        t.row(vec![
            n.to_string(),
            gops(t_soa),
            gops(t_tiled),
            speedup(t_tiled / t_soa),
        ]);
        eprintln!("measured N={n}");
    }
    t.print();

    if with_model {
        let mut m = Table::new(
            "Fig 7b (modelled): predicted AoSoA/SoA VGH speedup at paper-optimal Nb",
            &["N", "BDW(64)", "KNC(512)", "KNL(512)", "BG/Q(64)"],
        );
        for n in n_sweep() {
            let mut cells = vec![n.to_string()];
            for (p, nb) in [
                (Platform::bdw(), 64),
                (Platform::knc(), 512),
                (Platform::knl(), 512),
                (Platform::bgq(), 64),
            ] {
                let s =
                    qmc_bench::model_prediction(&p, &ModelScenario::vgh(Layout::Soa, n, n));
                let a = qmc_bench::model_prediction(
                    &p,
                    &ModelScenario::vgh(Layout::AoSoA, n, nb.min(n)),
                );
                cells.push(speedup(a.throughput / s.throughput));
            }
            m.row(cells);
            eprintln!("modelled N={n}");
        }
        m.print();
    }
}
