//! Table III — profile after the distance-table + Jastrow SoA
//! optimizations (B-splines still AoS): the B-spline share becomes the
//! dominant cost, motivating the paper.
//!
//! Paper reference: B-splines 55–69 %, distance tables 20–23 %, Jastrow
//! 11–22 %.

use miniqmc::drivers::profile::Category;
use qmc_bench::{run_profile, ProfileConfig, Suite, Table};

fn main() {
    let cfg = if qmc_bench::is_quick() {
        ProfileConfig::small()
    } else {
        ProfileConfig::coral()
    };
    eprintln!(
        "running optimized-substrate (SoA) pbyp profile: graphite {}x{}x{}, grid {:?}, {} sweeps…",
        cfg.tiling.0, cfg.tiling.1, cfg.tiling.2, cfg.grid, cfg.sweeps
    );
    let report = run_profile(Suite::OptimizedSubstrate, &cfg).report();

    let mut t = Table::new(
        "Table III: miniQMC profile with SoA distance tables + Jastrow, % of runtime",
        &["kernel group", "share", "paper (KNL / BDW)"],
    );
    let paper = [
        (Category::Bspline, "68.5 / 55.3 %"),
        (Category::Distance, "20.3 / 22.6 %"),
        (Category::Jastrow, "11.2 / 22.1 %"),
        (Category::Determinant, "(not tabulated)"),
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
