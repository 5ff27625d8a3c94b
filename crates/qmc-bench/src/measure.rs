//! Host throughput measurement for the engines.

use crate::workload::{batch_size, pos_block_in, positions_in};
use bspline::service::{RoutingPolicy, ServiceConfig, SpoService};
use bspline::walker::walker_rng;
use bspline::SpoEngine;
use bspline::{BsplineSoA, Kernel, PosBlock, Throughput};
use einspline::{MultiCoefs, Real};
use std::time::{Duration, Instant};

/// Measurement parameters.
#[derive(Clone, Copy, Debug)]
pub struct MeasureConfig {
    /// Random positions per repetition.
    pub ns: usize,
    /// Timed repetitions (the best is reported, Criterion-style).
    pub reps: usize,
    /// Position RNG seed.
    pub seed: u64,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        Self {
            ns: 128,
            reps: 3,
            seed: 0xfeed,
        }
    }
}

/// Throughput of `kernel` on `engine` through the scalar view, one
/// position per call (for the tiled engine see
/// [`measure_kernel_batched`], whose block-major loop is the blocking).
/// Generic over the engine's position precision `T`, so the same
/// harness times f32, f64 and mixed (`SpoEngine<f64>` adapter) rows.
pub fn measure_kernel<T: Real, E: SpoEngine<T>>(
    engine: &E,
    kernel: Kernel,
    cfg: &MeasureConfig,
) -> Throughput {
    let pos = positions_in::<T>(cfg.ns, cfg.seed);
    let mut out = engine.make_out();
    // Warm-up pass (touch table + outputs, settle frequencies).
    for p in &pos {
        engine.eval(kernel, *p, &mut out);
    }
    let mut best = f64::INFINITY;
    for _ in 0..cfg.reps {
        let t0 = Instant::now();
        for p in &pos {
            engine.eval(kernel, *p, &mut out);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Throughput {
        ops_per_sec: (engine.n_splines() * cfg.ns) as f64 / best,
    }
}

/// Throughput of `kernel` through the batched API: the position stream
/// is pre-chunked into [`batch_size`]-sized [`PosBlock`]s and every
/// timed call hands the engine a whole block (hoisted basis weights;
/// for the AoSoA/blocked engine, the paper's Fig. 6 loop order: tiles
/// outer, positions inner). Output blocks are allocated once and reused
/// across the run.
pub fn measure_kernel_batched<T: Real, E: SpoEngine<T>>(
    engine: &E,
    kernel: Kernel,
    cfg: &MeasureConfig,
) -> Throughput {
    let batch = batch_size().min(cfg.ns.max(1));
    let blocks: Vec<PosBlock<T>> =
        pos_block_in::<T>(cfg.ns, cfg.seed).chunks(batch).collect();
    let mut out = engine.make_batch_out(batch);
    for b in &blocks {
        engine.eval_batch(kernel, b, &mut out); // warm-up
    }
    let mut best = f64::INFINITY;
    for _ in 0..cfg.reps {
        let t0 = Instant::now();
        for b in &blocks {
            engine.eval_batch(kernel, b, &mut out);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Throughput {
        ops_per_sec: (engine.n_splines() * cfg.ns) as f64 / best,
    }
}

/// Shape of an open-loop service-load measurement.
#[derive(Clone, Copy, Debug)]
pub struct ServiceLoadConfig {
    /// Concurrent submitter threads (independent walker streams).
    pub submitters: usize,
    /// Requests each submitter issues.
    pub requests_per_submitter: usize,
    /// Positions per request (the per-walker electron-block size; small
    /// against the service `max_batch`, so throughput comes from
    /// cross-submitter coalescing).
    pub positions_per_request: usize,
    /// Offered load in requests/s summed over all submitters.
    /// `Some(r)`: *open-loop* — each submitter issues on a fixed
    /// schedule and latency is measured from the **intended** send
    /// time, so backpressure-induced queueing is charged to the
    /// service, not silently absorbed (no coordinated omission).
    /// `None`: saturation — submitters issue back-to-back as fast as
    /// the pipeline allows (the peak-throughput measurement).
    pub offered_rps: Option<f64>,
    /// In-flight requests each submitter keeps (buffer pairs; >1 lets
    /// the coalescer see concurrent work even from few submitters).
    pub pipeline: usize,
    /// Distinct position blocks each submitter cycles through; later
    /// requests re-submit earlier positions, mirroring the fixed
    /// position set [`measure_kernel_batched`] re-evaluates every rep
    /// (the QMC generation semantic — walkers re-visit nearby table
    /// regions). Size `submitters × distinct_blocks ×
    /// positions_per_request` to the closed-loop harness's `ns` so a
    /// service-vs-closed ratio compares the service mechanism, not
    /// table cache residency: fresh random positions stream the whole
    /// coefficient table while the closed loop re-reads an LLC-resident
    /// working set. `0` = fresh random positions for every request
    /// (a streaming, open-world workload).
    pub distinct_blocks: usize,
    /// Whole-run repetitions; the rep with the highest throughput is
    /// reported (Criterion-style, matching [`measure_kernel_batched`]'s
    /// best-of statistic — comparing a single service run's *mean*
    /// against the closed loop's best-of *peak* would charge host noise
    /// to the service).
    pub reps: usize,
    /// Position RNG seed.
    pub seed: u64,
    /// Service-side request deadline: `Some(d)` submits every request
    /// through [`SpoService::submit_with_deadline`] with `issue_at + d`
    /// (charged from the *intended* send time, like the latency
    /// accounting), so queueing past the deadline sheds the request
    /// instead of evaluating stale work. `None` = no deadline.
    pub deadline: Option<Duration>,
}

impl Default for ServiceLoadConfig {
    fn default() -> Self {
        Self {
            submitters: 4,
            requests_per_submitter: 64,
            positions_per_request: 8,
            offered_rps: None,
            pipeline: 4,
            distinct_blocks: 2,
            reps: 3,
            seed: 0xca11,
            deadline: None,
        }
    }
}

/// Result of one [`measure_service`] run: aggregate throughput plus the
/// per-request latency distribution.
#[derive(Clone, Copy, Debug)]
pub struct ServiceLoad {
    /// Orbital evaluations per second across all submitters
    /// (`N · total positions / wall`).
    pub evals_per_sec: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Requests measured (successful completions; failed requests are
    /// excluded from the latency distribution and the throughput
    /// numerator).
    pub requests: usize,
    /// Requests that resolved to a service error instead of a result —
    /// deadline sheds ([`ServiceLoadConfig::deadline`]) plus any
    /// retry-budget worker losses. Their buffers are recycled; their
    /// (non-)latency is never sampled.
    pub shed: usize,
    /// Mean positions per fused engine call over the run (coalescing
    /// effectiveness; ≈ `positions_per_request` means no coalescing).
    pub mean_batch_positions: f64,
}

/// Nearest-rank percentile of an ascending-sorted latency vector.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Drive `service` with concurrent open-loop submitters and measure the
/// per-request latency distribution and aggregate throughput.
///
/// Each submitter owns `pipeline` buffer pairs and keeps that many
/// requests in flight, reaping the oldest ticket (and recording its
/// latency) whenever the pool runs dry. Latency runs from the request's
/// scheduled issue time (see [`ServiceLoadConfig::offered_rps`]) to the
/// completion instant the worker stamped inside the service
/// ([`bspline::service::Ticket::redeem`]), so neither submitter
/// pacing slip nor reaping delay is charged to the service. Requests
/// that resolve to a service error (deadline sheds, exhausted retry
/// budgets) recycle their buffers and count in [`ServiceLoad::shed`]
/// instead of the latency distribution.
pub fn measure_service<T: Real, E: SpoEngine<T> + 'static>(
    service: &SpoService<T, E>,
    kernel: Kernel,
    cfg: &ServiceLoadConfig,
) -> ServiceLoad {
    assert!(cfg.submitters > 0 && cfg.requests_per_submitter > 0);
    assert!(cfg.positions_per_request > 0 && cfg.pipeline > 0);
    let mut best: Option<ServiceLoad> = None;
    for _ in 0..cfg.reps.max(1) {
        let run = run_service_load(service, kernel, cfg);
        if best
            .as_ref()
            .is_none_or(|b| run.evals_per_sec > b.evals_per_sec)
        {
            best = Some(run);
        }
    }
    best.expect("at least one rep")
}

/// One timed pass of the load run behind [`measure_service`].
fn run_service_load<T: Real, E: SpoEngine<T> + 'static>(
    service: &SpoService<T, E>,
    kernel: Kernel,
    cfg: &ServiceLoadConfig,
) -> ServiceLoad {
    let domain = service.engine().domain();
    let n_splines = service.engine().n_splines();
    let batches_before = service.stats().batches;
    let positions_before = service.stats().positions;
    // Per-submitter issue interval for the offered-rate schedule.
    let interval = cfg
        .offered_rps
        .map(|rps| Duration::from_secs_f64(cfg.submitters as f64 / rps));

    let start = Instant::now();
    let per_submitter: Vec<(Vec<f64>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.submitters)
            .map(|w| {
                s.spawn(move || {
                    let mut rng = walker_rng(cfg.seed, w);
                    let fixed: Vec<PosBlock<T>> = (0..cfg.distinct_blocks)
                        .map(|_| {
                            PosBlock::random(&mut rng, cfg.positions_per_request, domain)
                        })
                        .collect();
                    let mut pool: Vec<(PosBlock<T>, bspline::BatchOut<E::Out>)> = (0
                        ..cfg.pipeline)
                        .map(|_| {
                            (
                                PosBlock::with_capacity(cfg.positions_per_request),
                                service.engine().make_batch_out(cfg.positions_per_request),
                            )
                        })
                        .collect();
                    let mut outstanding: std::collections::VecDeque<(
                        Instant,
                        bspline::service::Ticket<T, E::Out>,
                    )> = std::collections::VecDeque::new();
                    let mut latencies =
                        Vec::with_capacity(cfg.requests_per_submitter);
                    let mut shed = 0usize;
                    let reap = |outstanding: &mut std::collections::VecDeque<_>,
                                    pool: &mut Vec<_>,
                                    latencies: &mut Vec<f64>,
                                    shed: &mut usize| {
                        let (issued, ticket): (
                            Instant,
                            bspline::service::Ticket<T, E::Out>,
                        ) = outstanding.pop_front().expect("an in-flight request");
                        match ticket.redeem() {
                            Ok((pos, out, done_at)) => {
                                latencies.push(
                                    done_at.duration_since(issued).as_secs_f64() * 1e6,
                                );
                                pool.push((pos, out));
                            }
                            Err(f) => {
                                // Shed (or retry-exhausted) request: the
                                // buffers come back untouched — recycle
                                // them, sample nothing.
                                *shed += 1;
                                let pos =
                                    f.pos.expect("service failures return the block");
                                let out =
                                    f.out.expect("service failures return the outputs");
                                pool.push((pos, out));
                            }
                        }
                    };
                    for i in 0..cfg.requests_per_submitter {
                        // Intended issue time: paced for open-loop,
                        // "now" at saturation.
                        let issue_at = match interval {
                            Some(dt) => {
                                let due = start + dt.mul_f64(i as f64);
                                if let Some(sleep) =
                                    due.checked_duration_since(Instant::now())
                                {
                                    std::thread::sleep(sleep);
                                }
                                due
                            }
                            None => Instant::now(),
                        };
                        if pool.is_empty() {
                            reap(&mut outstanding, &mut pool, &mut latencies, &mut shed);
                        }
                        let (mut pos, out) = pool.pop().expect("reap refilled");
                        pos.clear();
                        if fixed.is_empty() {
                            let fresh = PosBlock::random(
                                &mut rng,
                                cfg.positions_per_request,
                                domain,
                            );
                            pos.extend_from_block(&fresh);
                        } else {
                            pos.extend_from_block(&fixed[i % fixed.len()]);
                        }
                        let ticket = match cfg.deadline {
                            Some(d) => service
                                .submit_with_deadline(kernel, pos, out, issue_at + d),
                            None => service.submit(kernel, pos, out),
                        };
                        outstanding.push_back((issue_at, ticket));
                    }
                    while !outstanding.is_empty() {
                        reap(&mut outstanding, &mut pool, &mut latencies, &mut shed);
                    }
                    (latencies, shed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submitter")).collect()
    });
    let wall = start.elapsed().as_secs_f64();

    let shed: usize = per_submitter.iter().map(|(_, s)| s).sum();
    let mut latencies: Vec<f64> =
        per_submitter.into_iter().flat_map(|(lat, _)| lat).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let requests = latencies.len();
    let total_positions = requests * cfg.positions_per_request;
    let stats = service.stats();
    let run_batches = stats.batches.saturating_sub(batches_before);
    let run_positions = stats.positions.saturating_sub(positions_before);
    ServiceLoad {
        evals_per_sec: (n_splines * total_positions) as f64 / wall,
        p50_us: percentile(&latencies, 50.0),
        p95_us: percentile(&latencies, 95.0),
        p99_us: percentile(&latencies, 99.0),
        requests,
        shed,
        mean_batch_positions: if run_batches == 0 {
            0.0
        } else {
            run_positions as f64 / run_batches as f64
        },
    }
}

/// Result of [`measure_routed_ablation`]: the same open-loop workload
/// against a FIFO service and an affinity-routed one over identical
/// engines.
#[derive(Clone, Copy, Debug)]
pub struct RoutedAblation {
    /// Single-queue FIFO service ([`RoutingPolicy::Fifo`]).
    pub fifo: ServiceLoad,
    /// Affinity-routed service ([`RoutingPolicy::Affinity`]).
    pub routed: ServiceLoad,
    /// Requests the routed run spilled off their affinity shard.
    pub spilled: usize,
    /// Batches the routed run's workers stole from non-home shards.
    pub stolen: usize,
}

impl RoutedAblation {
    /// Routed / FIFO throughput ratio (the ≥ 1 affinity win).
    pub fn speedup(&self) -> f64 {
        self.routed.evals_per_sec / self.fifo.evals_per_sec
    }
}

/// Routed-vs-FIFO ablation on one workload: build two services over
/// engines constructed from the same coefficient table — one FIFO, one
/// affinity-routed over `domains` shards — and run the identical
/// [`measure_service`] load against each. Routing only picks *where*
/// batches run, so any throughput difference is queue/locality
/// mechanics, not work.
pub fn measure_routed_ablation<T: Real>(
    table: &MultiCoefs<T>,
    kernel: Kernel,
    base: ServiceConfig,
    domains: usize,
    cfg: &ServiceLoadConfig,
) -> RoutedAblation {
    let fifo_svc = SpoService::new(
        BsplineSoA::new(table.clone()),
        ServiceConfig {
            routing: RoutingPolicy::Fifo,
            ..base
        },
    );
    let fifo = measure_service(&fifo_svc, kernel, cfg);
    drop(fifo_svc);
    let routed_svc = SpoService::new(
        BsplineSoA::new(table.clone()),
        ServiceConfig {
            routing: RoutingPolicy::Affinity { domains },
            ..base
        },
    );
    let routed = measure_service(&routed_svc, kernel, cfg);
    let stats = routed_svc.stats();
    RoutedAblation {
        fifo,
        routed,
        spilled: stats.spilled,
        stolen: stats.stolen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::coefficients;
    use bspline::{BsplineAoS, BsplineAoSoA, BsplineSoA};

    fn cfg() -> MeasureConfig {
        MeasureConfig {
            ns: 8,
            reps: 2,
            seed: 1,
        }
    }

    #[test]
    fn measures_all_engines() {
        let table = coefficients(32, (8, 8, 8), 2);
        let aos = BsplineAoS::new(table.clone());
        let soa = BsplineSoA::new(table.clone());
        let tiled = BsplineAoSoA::from_multi(&table, 16);
        for k in Kernel::ALL {
            assert!(measure_kernel(&aos, k, &cfg()).ops_per_sec > 0.0);
            assert!(measure_kernel(&soa, k, &cfg()).ops_per_sec > 0.0);
            assert!(measure_kernel_batched(&aos, k, &cfg()).ops_per_sec > 0.0);
            assert!(measure_kernel_batched(&soa, k, &cfg()).ops_per_sec > 0.0);
            assert!(measure_kernel_batched(&tiled, k, &cfg()).ops_per_sec > 0.0);
        }
    }

    #[test]
    fn measures_every_precision_through_one_harness() {
        use crate::workload::coefficients_in;
        use bspline::precision::MixedEngine;
        let table64 = coefficients_in::<f64>(16, (6, 6, 6), 4);
        let soa64 = BsplineSoA::new(table64.clone());
        let mixed = MixedEngine::soa(&table64);
        let soa32 = BsplineSoA::new(table64.downcast());
        assert!(measure_kernel(&soa64, Kernel::Vgh, &cfg()).ops_per_sec > 0.0);
        assert!(measure_kernel(&soa32, Kernel::Vgh, &cfg()).ops_per_sec > 0.0);
        assert!(measure_kernel(&mixed, Kernel::Vgh, &cfg()).ops_per_sec > 0.0);
        assert!(
            measure_kernel_batched(&mixed, Kernel::Vgh, &cfg()).ops_per_sec > 0.0
        );
    }

    #[test]
    fn service_load_measures_saturation_and_open_loop() {
        use bspline::service::{ServiceConfig, SpoService};
        let table = coefficients(24, (8, 8, 8), 7);
        let service = SpoService::new(
            BsplineSoA::new(table),
            ServiceConfig {
                replicas: 2,
                max_batch: 16,
                max_wait: std::time::Duration::from_micros(100),
                queue_positions: 256,
                ..ServiceConfig::default()
            },
        );
        let sat = measure_service(
            &service,
            Kernel::Vgh,
            &ServiceLoadConfig {
                submitters: 2,
                requests_per_submitter: 8,
                positions_per_request: 4,
                offered_rps: None,
                pipeline: 2,
                distinct_blocks: 2,
                reps: 2,
                seed: 1,
                deadline: None,
            },
        );
        assert_eq!(sat.requests, 16);
        assert_eq!(sat.shed, 0, "no deadline, nothing sheds");
        assert!(sat.evals_per_sec > 0.0);
        assert!(sat.p50_us > 0.0 && sat.p50_us <= sat.p95_us);
        assert!(sat.p95_us <= sat.p99_us);
        assert!(sat.mean_batch_positions >= 4.0 - 1e-9);

        // Open-loop at a generous offered rate still completes and
        // reports positive latencies.
        let open = measure_service(
            &service,
            Kernel::Vgh,
            &ServiceLoadConfig {
                submitters: 2,
                requests_per_submitter: 4,
                positions_per_request: 4,
                offered_rps: Some(2000.0),
                pipeline: 2,
                // Streaming workload: fresh random positions per
                // request (the `distinct_blocks = 0` path).
                distinct_blocks: 0,
                reps: 1,
                seed: 2,
                deadline: None,
            },
        );
        assert_eq!(open.requests, 8);
        assert!(open.p99_us > 0.0);

        // A generous deadline never sheds on this tiny load; every
        // request still completes and is sampled.
        let dl = measure_service(
            &service,
            Kernel::Vgh,
            &ServiceLoadConfig {
                submitters: 2,
                requests_per_submitter: 4,
                positions_per_request: 4,
                pipeline: 2,
                reps: 1,
                seed: 3,
                deadline: Some(std::time::Duration::from_secs(30)),
                ..ServiceLoadConfig::default()
            },
        );
        assert_eq!(dl.requests, 8);
        assert_eq!(dl.shed, 0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn throughput_counts_orbital_evals() {
        // ops/sec must scale with N for a fixed per-eval time; just check
        // the bookkeeping: N×ns positions... indirectly via positivity
        // and N-proportional numerator.
        let t = coefficients(64, (8, 8, 8), 3);
        let soa = BsplineSoA::new(t);
        let m = measure_kernel(&soa, Kernel::V, &cfg());
        assert!(m.ops_per_sec.is_finite());
    }
}
