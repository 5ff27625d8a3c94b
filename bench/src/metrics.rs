//! The metric dictionary: every name the benchmark prints, its unit,
//! which way is better, and the workload that measures it.
//! `BENCHMARK.json` is generated from these tables
//! (`--print-benchmark-json`) and a test fails when the two differ.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

/// A workload and why it exists.
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// One line of rationale.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "spline_batch",
        why: "spline kernels in their throughput shape: V+VGL+VGH over 32-position blocks, L2-resident hot set, write-heavy; moves with kernel/vector changes",
    },
    Workload {
        name: "spline_onemove",
        why: "same table used the opposite way: batch-of-1 v_one->vgl_one pairs, read-dominated and latency-bound; shows what a batching change costs single moves",
    },
    Workload {
        name: "vmc_pbyp",
        why: "real wavefunction sweeps (CORAL 4x4x1, 256 electrons) where distance tables, determinant and Jastrow dominate and splines are ~15 %: the bypass workload for kernel changes",
    },
    Workload {
        name: "service_mixed",
        why: "closed loop of 64 in-flight requests (7/8 single V, 1/8 32-position VGH) through SpoService, client and worker on one CPU: admission, fusing and hand-offs dominate, not evaluation",
    },
];

/// An end-to-end metric.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Measured on every workload, tracing off. The bounds follow the
/// issue's rule — max(floor; 2 × the deviation between the medians of
/// two sets of runs), capped at 0.10 except for `setup_s` — from the
/// sets in REPEATABILITY.md, with one bound per metric covering all four
/// workloads (the contract has no bound per workload):
///
/// * `ops_per_s`: floors 0.05 and 0.07 (`service_mixed`); set medians
///   differ by up to 4.6 % (`service_mixed`, sets E and F), so the rule
///   gives 0.092: the cap, 0.10. The driver's own clause — a ten-run
///   spread must stay inside the bound, and should stay under a third of
///   it — asks for no less: spreads reach 5–6 % on `vmc_pbyp` when two
///   of its ten runs meet one of the host's bad spells.
/// * `setup_s`: floor 0.15; set medians differ by up to 9.6 %
///   (`service_mixed`, E and F), so 0.192, rounded to 0.20. Exempt from
///   the spread clause, and the largest bound, as the contract asks.
/// * `peak_rss_mib`: the floor, 0.03 (medians within 0.9 %).
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.1,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.03,
    },
];

/// A per-layer metric: `(name, unit, better, workload that measures it)`.
/// A traced run prints every one of them; those of another workload
/// read 0 (no spans of that layer were recorded).
pub type PerLayer = (&'static str, &'static str, &'static str, &'static str);

const B: &str = "spline_batch";
const O: &str = "spline_onemove";
const V: &str = "vmc_pbyp";
const S: &str = "service_mixed";
/// Measured by every traced run.
pub const ALL: &str = "all";

/// The ledger.
pub const PER_LAYER: [PerLayer; 94] = [
    // Set-up of the spline workloads.
    ("einspline.fill_s", "s", "lower", B),
    ("einspline.table_mib", "MiB", "lower", B),
    ("bspline.soa.build_s", "s", "lower", B),
    ("bspline.blocked.build_s", "s", "lower", B),
    ("bspline.aosoa.build_s", "s", "lower", B),
    // The op of spline_batch, span by span.
    ("bspline.blocked.v_batch_mevals", "Meval/s", "higher", B),
    ("bspline.blocked.vgl_batch_mevals", "Meval/s", "higher", B),
    ("bspline.blocked.vgh_batch_mevals", "Meval/s", "higher", B),
    ("bspline.blocked.n_blocks", "count", "lower", B),
    // Which engine the default should be; soa/aos is the paper's Opt A.
    ("bspline.soa.vgh_batch_mevals", "Meval/s", "higher", B),
    ("bspline.soa.vgh_scalar_mevals", "Meval/s", "higher", B),
    ("bspline.aosoa.vgh_batch_mevals", "Meval/s", "higher", B),
    ("bspline.aosoa.tile_nb", "count", "lower", B),
    ("bspline.mixed.vgh_batch_mevals", "Meval/s", "higher", B),
    ("bspline.aos.vgh_batch_mevals", "Meval/s", "higher", B),
    // Beyond the private L2 on a host-shared L3: shown, never gated.
    (
        "bspline.soa.vgh_batch_cellwide_mevals",
        "Meval/s",
        "higher",
        B,
    ),
    ("bspline.soa.vgh_batch_cellwide_spread", "ratio", "lower", B),
    (
        "bspline.blocked.vgh_batch_cellwide_mevals",
        "Meval/s",
        "higher",
        B,
    ),
    (
        "bspline.blocked.vgh_batch_cellwide_spread",
        "ratio",
        "lower",
        B,
    ),
    (
        "bspline.aosoa.vgh_batch_cellwide_mevals",
        "Meval/s",
        "higher",
        B,
    ),
    (
        "bspline.aosoa.vgh_batch_cellwide_spread",
        "ratio",
        "lower",
        B,
    ),
    // The paper's Opt C at the only width this host has: never gated.
    ("bspline.parallel.nested_t1_mevals", "Meval/s", "higher", B),
    ("bspline.parallel.nested_t2_mevals", "Meval/s", "higher", B),
    ("bspline.parallel.nested_t2_spread", "ratio", "lower", B),
    ("bspline.parallel.t2_efficiency", "ratio", "higher", B),
    // Roofline placement.
    ("roofline.vgh_soa_flops_per_byte", "flop/B", "higher", B),
    ("bspline.soa.vgh_batch_gflops", "Gflop/s", "higher", B),
    ("host.triad_gb_per_s", "GB/s", "higher", B),
    ("bspline.soa.vgh_cellwide_bw_frac", "ratio", "higher", B),
    // The op of spline_onemove and the calls around it.
    ("bspline.onemove.v_one_ns", "ns", "lower", O),
    ("bspline.onemove.vgl_one_hit_ns", "ns", "lower", O),
    ("bspline.onemove.vgl_one_miss_ns", "ns", "lower", O),
    ("bspline.onemove.vgh_one_hit_ns", "ns", "lower", O),
    ("bspline.soa.v_scalar_ns", "ns", "lower", O),
    ("bspline.soa.vgl_scalar_ns", "ns", "lower", O),
    ("bspline.onemove.pair_speedup", "ratio", "higher", O),
    ("bspline.mixed.pair_ns", "ns", "lower", O),
    ("bspline.blocked.pair_ns", "ns", "lower", O),
    ("bspline.aosoa.pair_ns", "ns", "lower", O),
    ("bspline.aos.pair_ns", "ns", "lower", O),
    ("bspline.onemove.pair_cellwide_ns", "ns", "lower", O),
    ("bspline.onemove.pair_cellwide_spread", "ratio", "lower", O),
    // Set-up of vmc_pbyp.
    ("einspline.solve_s", "s", "lower", V),
    ("einspline.downcast_s", "s", "lower", V),
    ("miniqmc.wavefunction.build_s", "s", "lower", V),
    // The sweep, call by call.
    ("miniqmc.wavefunction.ratio_us", "us", "lower", V),
    ("miniqmc.wavefunction.accept_us", "us", "lower", V),
    ("miniqmc.wavefunction.reject_us", "us", "lower", V),
    ("miniqmc.wavefunction.log_derivs_us", "us", "lower", V),
    ("miniqmc.vmc.driver_self_frac", "ratio", "lower", V),
    ("miniqmc.vmc.acceptance", "count", "higher", V),
    // Table IV categories, as `VmcResult.profile` reports them.
    ("miniqmc.profile.bspline_frac", "ratio", "lower", V),
    ("miniqmc.profile.distance_frac", "ratio", "lower", V),
    ("miniqmc.profile.jastrow_frac", "ratio", "lower", V),
    ("miniqmc.profile.determinant_frac", "ratio", "lower", V),
    // Component replay of the recorded moves.
    ("miniqmc.spo.v_one_us", "us", "lower", V),
    ("miniqmc.spo.vgl_one_us", "us", "lower", V),
    ("miniqmc.spo.vgh_batch_us", "us", "lower", V),
    ("miniqmc.determinant.ratio_us", "us", "lower", V),
    ("miniqmc.determinant.accept_us", "us", "lower", V),
    ("miniqmc.distance.move_us", "us", "lower", V),
    ("miniqmc.distance.accept_us", "us", "lower", V),
    ("miniqmc.jastrow.ratio_us", "us", "lower", V),
    ("miniqmc.jastrow.accept_us", "us", "lower", V),
    // Accuracy a faster update scheme may spend.
    ("miniqmc.wavefunction.log_psi_drift", "ratio", "lower", V),
    ("miniqmc.determinant.inverse_error", "ratio", "lower", V),
    // The service.
    ("bspline.service.start_s", "s", "lower", S),
    ("bspline.service.shutdown_s", "s", "lower", S),
    ("bspline.service.submit_us", "us", "lower", S),
    ("bspline.service.redeem_wait_us", "us", "lower", S),
    ("bspline.service.req1_p50_us", "us", "lower", S),
    ("bspline.service.req1_p99_us", "us", "lower", S),
    ("bspline.service.req32_p50_us", "us", "lower", S),
    ("bspline.service.req32_p99_us", "us", "lower", S),
    ("bspline.service.direct_us_per_req", "us", "lower", S),
    ("bspline.service.overhead_us_per_req", "us", "lower", S),
    ("bspline.service.requests", "count", "higher", S),
    ("bspline.service.batches", "count", "lower", S),
    ("bspline.service.mean_batch_positions", "count", "higher", S),
    ("bspline.service.coalesced_frac", "ratio", "higher", S),
    ("bspline.service.spilled", "count", "lower", S),
    ("bspline.service.stolen", "count", "lower", S),
    ("bspline.service.shed", "count", "lower", S),
    ("bspline.service.retried", "count", "lower", S),
    ("bspline.service.panics", "count", "lower", S),
    ("bspline.service.respawns", "count", "lower", S),
    // Validity of the run, not of the program.
    ("harness.quiet_frac", "ratio", "higher", ALL),
    ("harness.mean_over_fast", "ratio", "higher", ALL),
    // What the reference clock divides out: the clock the host granted
    // the untraced op, and the rate that made on the wall clock.
    ("harness.clock_ghz", "GHz", "higher", ALL),
    ("harness.wall_ops_per_s", "1/s", "higher", ALL),
    ("harness.trace_overhead_frac", "ratio", "lower", ALL),
    ("harness.fail_frac", "ratio", "lower", ALL),
    ("harness.fingerprint", "count", "higher", ALL),
    ("harness.windows", "count", "higher", ALL),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"bench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"bench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better, _)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit.len() <= 16 && !unit.is_empty(), "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.better == "higher" || m.better == "lower");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(PER_LAYER.len() <= 128 && (1..=60).contains(&RUN_SECONDS));
        for (name, _, better, owner) in PER_LAYER {
            assert!(better == "higher" || better == "lower", "{name}");
            assert!(
                owner == ALL || WORKLOADS.iter().any(|w| w.name == owner),
                "{name}"
            );
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_the_generated_text() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path bench/Cargo.toml -- --print-benchmark-json > BENCHMARK.json"
        );
    }
}
