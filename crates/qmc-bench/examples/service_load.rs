//! Open-loop load sweep against the coalescing evaluation service.
//!
//! Builds one [`SpoService`] over an SoA engine, drives it with
//! concurrent submitters at a sweep of offered rates (plus a final
//! saturation point), and prints throughput, latency percentiles, and
//! coalescing effectiveness next to the closed-loop batched reference —
//! the load/latency curve a QMC driver would use to pick its operating
//! point.
//!
//!   cargo run --release -p qmc-bench --example service_load
//!
//! Environment knobs (all optional):
//!
//! * `QMC_BENCH_QUICK=1` — small grid/N for smoke runs;
//! * `QMC_SERVICE_REPLICAS` — worker replica count (default 1);
//! * `QMC_SERVICE_MAX_BATCH` — fused-batch position target (default
//!   4 × the closed-loop batch size);
//! * `QMC_SERVICE_PPR` — positions per request (default 8);
//! * `QMC_SERVICE_SUBMITTERS` — concurrent submitter threads (default 4);
//! * `QMC_SERVICE_PIPELINE` — in-flight requests per submitter
//!   (default 4). `submitters × pipeline × positions/request` is the
//!   cycling output working set — keep it near the closed-loop batch
//!   footprint when hunting peak saturation throughput;
//! * `QMC_SERVICE_SAT_ONLY=1` — skip the paced sweep points and measure
//!   only the saturation row (fast config probing);
//! * `QMC_SERVICE_DISTINCT` — distinct position blocks per submitter
//!   (default 2; 0 streams fresh random positions every request —
//!   expect a bandwidth-bound ceiling well under the closed-loop
//!   reference, which re-evaluates a cache-resident position set);
//! * `QMC_SERVICE_DEADLINE_US` — service-side request deadline in µs
//!   (unset = no deadline): requests still queued past it are shed and
//!   counted in the `shed` column instead of the latency percentiles;
//! * `QMC_SERVICE_RETRIES` — crash re-enqueue budget per request
//!   (default 2; 0 = fail a request on its first lost worker).
//!
//! All knobs parse strictly, matching `QMC_THREADS`: a set-but-garbage
//! value panics instead of silently falling back and invalidating the
//! measurement.

use bspline::service::{ServiceConfig, SpoService};
use bspline::{BsplineSoA, Kernel};
use qmc_bench::workload::{batch_size, is_quick};
use qmc_bench::{
    coefficients, measure_kernel_batched, measure_service, MeasureConfig,
    ServiceLoadConfig, Table,
};
use std::time::Duration;

fn env_usize(key: &str, default: usize) -> usize {
    match std::env::var(key) {
        Err(_) => default,
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(0) => panic!("{key} must be a positive integer, got 0"),
            Ok(n) => n,
            Err(_) => panic!("{key} must be a positive integer, got {raw:?}"),
        },
    }
}

/// Like [`env_usize`] but 0 is a legal value (streaming workloads, a
/// zero retry budget).
fn env_usize_or_zero(key: &str, default: usize) -> usize {
    match std::env::var(key) {
        Err(_) => default,
        Ok(raw) => raw.trim().parse::<usize>().unwrap_or_else(|_| {
            panic!("{key} must be a non-negative integer, got {raw:?}")
        }),
    }
}

fn main() {
    let quick = is_quick();
    let (grid, n) = if quick {
        ((12, 12, 12), 128)
    } else {
        ((32, 32, 32), 512)
    };
    let replicas = env_usize("QMC_SERVICE_REPLICAS", 1);
    let max_batch = env_usize("QMC_SERVICE_MAX_BATCH", 4 * batch_size());
    let ppr = env_usize("QMC_SERVICE_PPR", 8);
    let submitters = env_usize("QMC_SERVICE_SUBMITTERS", 4);
    let pipeline = env_usize("QMC_SERVICE_PIPELINE", 4);
    // 0 = fresh random positions per request (streaming workload);
    // n > 0 = each submitter cycles n distinct blocks, mirroring the
    // closed-loop reference's re-evaluated position set.
    let distinct = env_usize_or_zero("QMC_SERVICE_DISTINCT", 2);
    let max_retries = env_usize_or_zero("QMC_SERVICE_RETRIES", 2);
    let deadline = match std::env::var("QMC_SERVICE_DEADLINE_US") {
        Err(_) => None,
        Ok(_) => Some(Duration::from_micros(
            env_usize("QMC_SERVICE_DEADLINE_US", 0) as u64,
        )),
    };
    let table = coefficients(n, grid, 7);

    // Closed-loop reference: the direct batched VGH call the service
    // must approach at saturation.
    let soa = BsplineSoA::new(table.clone());
    let mcfg = MeasureConfig {
        ns: if quick { 32 } else { 128 },
        reps: 3,
        seed: 7,
    };
    let closed = measure_kernel_batched(&soa, Kernel::Vgh, &mcfg);
    drop(soa);

    let service = SpoService::new(
        BsplineSoA::new(table),
        ServiceConfig {
            replicas,
            max_batch,
            max_wait: Duration::from_micros(200),
            queue_positions: 4096,
            max_retries,
            ..ServiceConfig::default()
        },
    );
    println!(
        "SoA f32 N={n} grid={grid:?}  replicas={replicas} max_batch={max_batch} \
         positions/request={ppr} submitters={submitters}"
    );
    println!("closed-loop batched VGH reference: {:.2} M-evals/s", closed / 1e6);

    let mut t = Table::new(
        "Open-loop VGH load sweep",
        &[
            "offered req/s",
            "M-evals/s",
            "vs closed",
            "p50 µs",
            "p95 µs",
            "p99 µs",
            "shed",
            "pos/engine-call",
        ],
    );
    // Offered rates as a fraction of the closed-loop capacity, then
    // saturation (None). Requests sized so each point runs ~1-3 s.
    let capacity_rps = closed / (n as f64 * ppr as f64);
    let points: Vec<Option<f64>> =
        if std::env::var("QMC_SERVICE_SAT_ONLY").is_ok_and(|v| v == "1") {
            vec![None]
        } else {
            vec![
                Some(0.1 * capacity_rps),
                Some(0.3 * capacity_rps),
                Some(0.6 * capacity_rps),
                None,
            ]
        };
    for rps in points {
        let cfg = ServiceLoadConfig {
            submitters,
            requests_per_submitter: if quick { 16 } else { 64 },
            positions_per_request: ppr,
            offered_rps: rps,
            pipeline,
            distinct_blocks: distinct,
            reps: 3,
            seed: 0x10ad,
            deadline,
        };
        let load = measure_service(&service, Kernel::Vgh, &cfg);
        t.row(vec![
            rps.map_or_else(|| "saturation".into(), |r| format!("{r:.0}")),
            format!("{:.2}", load.evals_per_sec / 1e6),
            format!("{:.2}x", load.evals_per_sec / closed),
            format!("{:.0}", load.p50_us),
            format!("{:.0}", load.p95_us),
            format!("{:.0}", load.p99_us),
            format!("{}", load.shed),
            format!("{:.1}", load.mean_batch_positions),
        ]);
    }
    t.print();
}
