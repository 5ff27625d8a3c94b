//! `service_mixed`: the evaluation service under a closed loop.
//!
//! `SpoService` (1 replica, `Fifo`, default `ServiceConfig`) over a SoA
//! engine on the `spline_batch` table. One client thread keeps 64
//! requests in flight: it redeems the oldest ticket, then submits the
//! next request. Client and worker share one CPU (`harness::measure`
//! puts each construction and its threads on one): with a CPU each, the
//! rate follows two cores' clocks and their neighbours and spread 18 %
//! between runs. Op = one request; the seeded mix is 7/8
//! single-position `V` and 1/8 32-position `VGH`, confined positions.
//! Evaluation is microseconds per request, so admission, fusing,
//! hand-offs and redeem are most of the time.

use crate::checks;
use crate::estimator::{high_percentile, is_quiet, median, sorted};
use crate::harness::{
    interleave, measure, positions, rng_for, samples_of, windows_of, Locality, Outcome, Pass,
    RunCfg, Timed, BATCH, N_SPLINES,
};
use crate::host;
use crate::spline_batch::table;
use crate::trace::{Name, Off, Spans, Tracer};
use bspline::prelude::*;
use bspline::Kernel;
use rand::Rng;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

/// Requests in flight: twice `max_batch`, so that single-position
/// requests fill a fused batch without the client's help. (With 32 in
/// flight at most 28 of them are singles: every batch of singles stays
/// partial while the client is blocked on a ticket inside it, and is
/// evaluated only when `max_wait` expires. Throughput then hangs on the
/// latency of a 200 µs timer wake-up, and spread 18 % between runs.)
const IN_FLIGHT: usize = 64;
/// Requests per window, every window the same mix: four pipeline
/// depths, ~4 ms on this host.
const WINDOW_REQUESTS: usize = 256;
/// One request in this many is the 32-position VGH.
const LARGE_EVERY: usize = 8;

type Service = SpoService<f32, BsplineSoA<f32>>;
type Buffers = (PosBlock<f32>, BatchOut<WalkerSoA<f32>>);
/// A submitted request: its ticket, whether it is large, and when a
/// traced one was submitted (ns on the tracer's clock).
type InFlight = (Ticket<f32, WalkerSoA<f32>>, bool, Option<u64>);

fn service_config() -> ServiceConfig {
    ServiceConfig {
        replicas: 1,
        routing: RoutingPolicy::Fifo,
        ..ServiceConfig::default()
    }
}

fn service(seed: u64) -> Service {
    SpoService::new(BsplineSoA::new(table(seed)), service_config())
}

fn kernel_of(large: bool) -> Kernel {
    if large {
        Kernel::Vgh
    } else {
        Kernel::V
    }
}

/// The seeded request stream: which requests are large, their
/// positions, and the buffers requests travel in.
struct Stream {
    /// One window's kinds, exactly 1/8 large, in seeded order; every
    /// window replays it, so every window holds the same work.
    large: Vec<bool>,
    pool: Vec<[f32; 3]>,
    next_kind: usize,
    next_pos: usize,
    /// Buffers that came back, by kind; the most recent (warmest) first.
    small: Vec<Buffers>,
    big: Vec<Buffers>,
}

impl Stream {
    fn new(cfg: &RunCfg) -> Self {
        let mut rng = rng_for(cfg.seed, 1);
        let pool = positions(&mut rng, cfg.pick(8192, 1024), Locality::Confined);
        let mut large: Vec<bool> = (0..WINDOW_REQUESTS).map(|i| i % LARGE_EVERY == 0).collect();
        for i in (1..large.len()).rev() {
            large.swap(i, rng.random_range(0..=i));
        }
        Self {
            large,
            pool,
            next_kind: 0,
            next_pos: 0,
            small: Vec::with_capacity(IN_FLIGHT),
            big: Vec::with_capacity(IN_FLIGHT),
        }
    }

    /// The next request: whether it is large, and its filled position
    /// block with an output block to match.
    fn next(&mut self, engine: &BsplineSoA<f32>) -> (bool, Buffers) {
        let large = self.large[self.next_kind];
        self.next_kind = (self.next_kind + 1) % self.large.len();
        let n = if large { BATCH } else { 1 };
        let (mut pos, out) = if large {
            self.big.pop()
        } else {
            self.small.pop()
        }
        .unwrap_or_else(|| (PosBlock::with_capacity(n), engine.make_batch_out(n)));
        pos.clear();
        for _ in 0..n {
            pos.push(self.pool[self.next_pos]);
            self.next_pos = (self.next_pos + 1) % self.pool.len();
        }
        (large, (pos, out))
    }

    /// Take a finished request's buffers back.
    fn recycle(&mut self, large: bool, buffers: Buffers) {
        if large {
            &mut self.big
        } else {
            &mut self.small
        }
        .push(buffers);
    }
}

/// Span names of the op: the window, the client's two calls, and a
/// request from submit to the service-side completion stamp.
struct OpNames {
    window: Name,
    submit: Name,
    redeem: Name,
    req1: Name,
    req32: Name,
}

impl OpNames {
    fn new(spans: &mut impl Spans) -> Self {
        Self {
            window: spans.name("service_mixed.window"),
            submit: spans.name("bspline.service.submit"),
            redeem: spans.name("bspline.service.redeem_wait"),
            req1: spans.name("bspline.service.req1"),
            req32: spans.name("bspline.service.req32"),
        }
    }
}

/// The closed-loop client and the service it drives.
struct Client<'a> {
    service: Service,
    outcome: &'a RefCell<Outcome>,
    stream: Stream,
    in_flight: VecDeque<InFlight>,
    failed: u64,
    names: OpNames,
}

impl<'a> Client<'a> {
    fn new(
        service: Service,
        stream: Stream,
        outcome: &'a RefCell<Outcome>,
        names: OpNames,
    ) -> Self {
        Self {
            service,
            outcome,
            stream,
            in_flight: VecDeque::with_capacity(IN_FLIGHT),
            failed: 0,
            names,
        }
    }

    /// Submit the next request. Untraced, no clock is read: a traced
    /// request's latency counts from its submit span's start.
    #[inline]
    fn submit<S: Spans>(&mut self, spans: &mut S) {
        let (large, (pos, out)) = self.stream.next(self.service.engine());
        let span = spans.enter(self.names.submit);
        let at = spans.start_ns(&span);
        let ticket = self.service.submit(kernel_of(large), pos, out);
        spans.exit(span);
        self.in_flight.push_back((ticket, large, at));
    }

    /// Redeem the oldest request.
    #[inline]
    fn redeem<S: Spans>(&mut self, spans: &mut S) {
        let (ticket, large, submitted) = self.in_flight.pop_front().expect("pipeline is primed");
        let span = spans.enter(self.names.redeem);
        let result = ticket.redeem();
        spans.exit(span);
        let buffers = match result {
            Ok((pos, out, done)) => {
                let name = if large {
                    self.names.req32
                } else {
                    self.names.req1
                };
                if let Some(submitted) = submitted {
                    spans.record(name, submitted, done);
                }
                Some((pos, out))
            }
            Err(f) => {
                self.failed += 1;
                f.pos.zip(f.out)
            }
        };
        if let Some(b) = buffers {
            self.stream.recycle(large, b);
        }
    }

    fn prime(&mut self) {
        while self.in_flight.len() < IN_FLIGHT {
            self.submit(&mut Off);
        }
    }

    fn drain(&mut self) {
        while !self.in_flight.is_empty() {
            self.redeem(&mut Off);
        }
    }

    /// One window of the op: redeem the oldest, submit the next, 256
    /// times. The end-to-end run and the traced replay both run this
    /// (`spans` = [`Off`] or a [`Tracer`]).
    fn cycle<S: Spans>(&mut self, spans: &mut S) {
        let whole = spans.enter(self.names.window);
        for _ in 0..WINDOW_REQUESTS {
            self.redeem(spans);
            self.submit(spans);
        }
        spans.exit(whole);
    }
}

/// Sampled requests through the service, compared bit for bit with the
/// direct `eval_batch` on the same engine.
fn check(service: &Service, cfg: &RunCfg, outcome: &mut Outcome) {
    let engine = service.engine();
    let mut stream = Stream::new(cfg);
    for _ in 0..cfg.pick(256, 32) {
        let (large, (pos, out)) = stream.next(engine);
        let kernel = kernel_of(large);
        match service.submit(kernel, pos, out).redeem() {
            Ok((pos, out, _)) => {
                let mut want = engine.make_batch_out(pos.len());
                engine.eval_batch(kernel, &pos, &mut want);
                let same = (0..pos.len()).all(|i| {
                    checks::bits_equal(out.block(i), want.block(i), kernel, N_SPLINES, cfg.corrupt)
                });
                checks::absorb(&mut outcome.tally, out.block(0), kernel, N_SPLINES);
                outcome.tally.checked(1, u64::from(!same));
            }
            Err(_) => outcome.tally.checked(1, 1),
        }
    }
}

impl Timed for Client<'_> {
    fn window(&mut self, _index: usize) {
        self.cycle(&mut Off);
    }

    /// Drain the pipeline and settle the construction's account: every
    /// request redeemed, none failed, shed, retried or crashed.
    fn finish(&mut self) {
        self.drain();
        let stats = self.service.stats();
        let faults = (stats.shed + stats.retried + stats.panics + stats.respawns) as u64;
        let mut outcome = self.outcome.borrow_mut();
        outcome
            .tally
            .checked(stats.requests as u64, self.failed + faults);
    }
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    if cfg.trace {
        let mut outcome = Outcome::new();
        traced(cfg, &mut outcome);
        return outcome;
    }
    let shared = RefCell::new(Outcome::new());
    let (client, setups, windows) = measure(cfg, || {
        let names = OpNames::new(&mut Off);
        let mut client = Client::new(service(cfg.seed), Stream::new(cfg), &shared, names);
        client.submit(&mut Off);
        client.drain();
        client.prime();
        client
    });
    let Client { service, .. } = client;
    let mut outcome = shared.into_inner();
    outcome.put_end_to_end(WINDOW_REQUESTS as f64, setups, windows);
    check(&service, cfg, &mut outcome);
    outcome
}

/// `tail` percentile (`None`: the median) of the wall-clock latencies,
/// µs, of the requests `name` submitted in quiet windows. Wall clock: a
/// request's life is mostly queueing behind futex hand-offs and the
/// batching timer, which do not follow the core clock.
fn latency_us(tracer: &Tracer, name: Name, quiet: &[bool], tail: Option<f64>) -> f64 {
    let xs: Vec<f64> = tracer
        .durations_of(name)
        .filter(|(window, _)| quiet.get(*window as usize).copied().unwrap_or(false))
        .map(|(_, ns)| f64::from(ns) * 1e-3)
        .collect();
    match tail {
        _ if xs.is_empty() => 0.0,
        None => median(&xs),
        Some(t) => high_percentile(&sorted(&xs), t),
    }
}

fn traced(cfg: &RunCfg, outcome: &mut Outcome) {
    // Client and worker on one CPU, as in the end-to-end run.
    let cpus = host::allowed_cpus();
    host::run_on(&cpus[..1]);
    // `start_s` is the service's own share of a construction: the
    // engine is built first and moved in.
    let engine = BsplineSoA::new(table(cfg.seed));
    let t0 = Instant::now();
    let started = SpoService::new(engine, service_config());
    outcome.put("bspline.service.start_s", t0.elapsed().as_secs_f64());

    let mut tracer = Tracer::with_capacity(1 << 22);
    let names = OpNames::new(&mut tracer);
    let (req1, req32) = (names.req1, names.req32);

    // Three passes, interleaved so that they share the host's quiet and
    // disturbed stretches: the closed loop untraced, the closed loop
    // with spans, and the same request stream by direct calls on the
    // client thread. The direct pass drains the pipeline in the
    // unrecorded window that opens its visit and the untraced pass
    // refills it in its own; the rest of that window brings the loop
    // back to its steady state.
    let shared = RefCell::new(Outcome::new());
    let client = RefCell::new(Client::new(started, Stream::new(cfg), &shared, names));
    let mut direct_stream = Stream::new(cfg);
    let spans = &mut tracer;
    let mut passes = [
        Pass::new("op", |window| {
            let mut client = client.borrow_mut();
            if window.is_none() {
                client.prime();
            }
            client.cycle(&mut Off);
        }),
        Pass::new("op traced", |window| {
            spans.set_window(window);
            client.borrow_mut().cycle(spans);
        }),
        Pass::new("direct", |window| {
            let mut client = client.borrow_mut();
            if window.is_none() {
                client.drain();
            }
            let engine = client.service.engine();
            for _ in 0..WINDOW_REQUESTS {
                let (large, (pos, mut out)) = direct_stream.next(engine);
                engine.eval_batch(kernel_of(large), &pos, &mut out);
                direct_stream.recycle(large, (pos, out));
            }
        }),
    ];
    interleave(cfg.budget(1.0), &mut passes, |_| {});
    let (plain, traced_w, direct) = (
        windows_of(&passes, "op"),
        windows_of(&passes, "op traced"),
        windows_of(&passes, "direct"),
    );
    let traced = samples_of(&passes, "op traced").to_vec();
    drop(passes);
    let mut client = client.into_inner();
    client.finish();
    let stats = client.service.stats();
    let Client { mut service, .. } = client;
    outcome.tally = shared.into_inner().tally;

    outcome.put_validity(&traced_w, &plain, WINDOW_REQUESTS as f64);
    outcome.note_windows("direct calls", &direct);
    let ledger = tracer.ledger(&traced);
    outcome.put(
        "bspline.service.submit_us",
        ledger.self_per_call_s("bspline.service.submit") * 1e6,
    );
    outcome.put(
        "bspline.service.redeem_wait_us",
        ledger.self_per_call_s("bspline.service.redeem_wait") * 1e6,
    );
    // Percentiles over the requests of quiet traced windows: within a
    // window there are too few 32-position requests for a p99.
    let quiet: Vec<bool> = traced
        .iter()
        .map(|s| s.steady() && is_quiet(s.ref_secs(), traced_w.fast_s))
        .collect();
    for (metric, name, tail) in [
        ("bspline.service.req1_p50_us", req1, None),
        ("bspline.service.req1_p99_us", req1, Some(0.01)),
        ("bspline.service.req32_p50_us", req32, None),
        ("bspline.service.req32_p99_us", req32, Some(0.01)),
    ] {
        outcome.put(metric, latency_us(&tracer, name, &quiet, tail));
    }
    tracer.write_for(
        Path::new("bench/out/service_mixed.trace.jsonl"),
        "service_mixed",
        outcome,
    );

    let direct_us = direct.fast_s / WINDOW_REQUESTS as f64 * 1e6;
    outcome.put("bspline.service.direct_us_per_req", direct_us);
    outcome.put(
        "bspline.service.overhead_us_per_req",
        plain.fast_s / WINDOW_REQUESTS as f64 * 1e6 - direct_us,
    );

    // Counters over the whole run (untraced and traced windows alike).
    outcome.put("bspline.service.requests", stats.requests as f64);
    outcome.put("bspline.service.batches", stats.batches as f64);
    outcome.put(
        "bspline.service.mean_batch_positions",
        stats.mean_batch_positions(),
    );
    outcome.put(
        "bspline.service.coalesced_frac",
        stats.coalesced as f64 / stats.requests as f64,
    );
    outcome.put("bspline.service.spilled", stats.spilled as f64);
    outcome.put("bspline.service.stolen", stats.stolen as f64);
    outcome.put("bspline.service.shed", stats.shed as f64);
    outcome.put("bspline.service.retried", stats.retried as f64);
    outcome.put("bspline.service.panics", stats.panics as f64);
    outcome.put("bspline.service.respawns", stats.respawns as f64);

    check(&service, cfg, outcome);
    let t0 = Instant::now();
    service.shutdown();
    outcome.put("bspline.service.shutdown_s", t0.elapsed().as_secs_f64());
    host::run_on(&cpus);
}
