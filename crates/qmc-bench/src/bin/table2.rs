//! Table II — single-node runtime profile (%) of the CORAL 4×4×1
//! benchmark with the all-AoS baseline kernels (public QMCPACK era).
//!
//! Paper reference (per platform): B-splines 18–28 %, distance tables
//! 23–39 %, Jastrow 13–21 %.

use miniqmc::drivers::profile::Category;
use qmc_bench::{run_profile, ProfileConfig, Suite, Table};

fn main() {
    let cfg = if qmc_bench::is_quick() {
        ProfileConfig::small()
    } else {
        ProfileConfig::coral()
    };
    eprintln!(
        "running baseline (AoS) pbyp profile: graphite {}x{}x{}, grid {:?}, {} sweeps…",
        cfg.tiling.0, cfg.tiling.1, cfg.tiling.2, cfg.grid, cfg.sweeps
    );
    let report = run_profile(Suite::Baseline, &cfg).report();

    let mut t = Table::new(
        "Table II: baseline miniQMC profile (all-AoS kernels), % of runtime",
        &["kernel group", "share", "paper range (4 platforms)"],
    );
    let paper = [
        (Category::Bspline, "18 - 28 %"),
        (Category::Distance, "23 - 39 %"),
        (Category::Jastrow, "13 - 21 %"),
        (Category::Determinant, "(in remainder)"),
    ];
    for (cat, range) in paper {
        t.row(vec![
            cat.to_string(),
            format!("{:.1} %", report.percent(cat)),
            range.to_string(),
        ]);
    }
    t.print();
    println!("total accounted time: {:?}", report.total());
}
