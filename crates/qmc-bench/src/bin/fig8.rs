//! Fig. 8 — normalized speedup of V / VGL / VGH with the AoSoA
//! transformation, AoS implementation as the reference, across N.
//!
//! Paper (KNL, N = 4096): 1.85× (V), 6.4× (VGL), 2.5× (VGH). V gains
//! only from tiling (it has a single output stream), VGL gains the most
//! (layout + z-unroll + hoisted temporaries).

use bspline::{BsplineAoS, BsplineAoSoA, Kernel};
use qmc_bench::report::speedup;
use qmc_bench::workload::{grid, n_sweep, samples_for};
use qmc_bench::{coefficients, measure_kernel, measure_kernel_batched, MeasureConfig, Table};

fn arg_nb() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--nb")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(128)
}

fn main() {
    let nb = arg_nb();
    let grid = grid();
    let mut t = Table::new(
        format!("Fig 8: AoSoA (Nb={nb}) speedup over AoS baseline per kernel (host)"),
        &["N", "V", "VGL", "VGH"],
    );
    for n in n_sweep() {
        let table = coefficients(n, grid, 42 + n as u64);
        let cfg = MeasureConfig {
            ns: samples_for(n),
            reps: 3,
            seed: 7,
        };
        let aos = BsplineAoS::new(table.clone());
        let base: Vec<f64> = Kernel::ALL
            .iter()
            .map(|&k| measure_kernel(&aos, k, &cfg).ops_per_sec)
            .collect();
        drop(aos);
        let tiled = BsplineAoSoA::from_multi(&table, nb.min(n));
        drop(table);
        let opt: Vec<f64> = Kernel::ALL
            .iter()
            .map(|&k| measure_kernel_batched(&tiled, k, &cfg).ops_per_sec)
            .collect();
        t.row(vec![
            n.to_string(),
            speedup(opt[0] / base[0]),
            speedup(opt[1] / base[1]),
            speedup(opt[2] / base[2]),
        ]);
        eprintln!("measured N={n}");
    }
    t.print();
    println!("paper (KNL, N=4096): V 1.85x, VGL 6.4x, VGH 2.5x");
}
