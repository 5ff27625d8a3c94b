//! Fault-injection conformance suite (ISSUE 10 tentpole): under any
//! scripted [`ServiceFaultPlan`] the evaluation service must keep its
//! three contracts —
//!
//! 1. **every ticket resolves** — worker panics, permanent kills,
//!    stalls, and lock poisoning may fail individual requests but can
//!    never deadlock a caller or lose a buffer;
//! 2. **successes stay bit-identical** — a request that completes after
//!    a crash/retry returns exactly the direct `eval_batch` result
//!    (re-enqueueing moves whole requests, never split accumulation
//!    chains);
//! 3. **failures return the caller's blocks** — a typed
//!    [`ServiceError`] hands back `pos`/`out` with the submitted
//!    lengths, so pools recycle across faults.
//!
//! Plus the counter satellite: [`StatsSnapshot`] counters are monotone
//! under concurrent submitters and sum-consistent with the resolved
//! tickets, and the deadline/shed path is covered deterministically via
//! a scripted stall.

use bspline::service::{
    ServiceConfig, ServiceError, ServiceFault, ServiceFaultPlan, SpoService,
};
use bspline::{BsplineSoA, Kernel, PosBlock, SpoEngine, WalkerSoA};
use einspline::{Grid1, MultiCoefs, Real};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn random_table<T: Real>(n: usize, seed: u64) -> MultiCoefs<T> {
    let g = Grid1::periodic(0.0, 1.0, 5);
    let mut table = MultiCoefs::<T>::new(g, g, g, n);
    table.fill_random(&mut StdRng::seed_from_u64(seed));
    table
}

fn random_block<T: Real>(ns: usize, seed: u64) -> PosBlock<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ns)
        .map(|_| {
            [
                T::from_f64(rng.random::<f64>()),
                T::from_f64(rng.random::<f64>()),
                T::from_f64(rng.random::<f64>()),
            ]
        })
        .collect()
}

fn assert_blocks_bitmatch<T: Real>(
    kernel: Kernel,
    n: usize,
    got: &WalkerSoA<T>,
    want: &WalkerSoA<T>,
    ctx: &str,
) {
    for k in 0..n {
        assert_eq!(got.value(k), want.value(k), "{ctx} v[{k}]");
        match kernel {
            Kernel::V => {}
            Kernel::Vgl => {
                assert_eq!(got.gradient(k), want.gradient(k), "{ctx} g[{k}]");
                assert_eq!(got.laplacian(k), want.laplacian(k), "{ctx} l[{k}]");
            }
            Kernel::Vgh => {
                assert_eq!(got.gradient(k), want.gradient(k), "{ctx} g[{k}]");
                assert_eq!(got.hessian(k), want.hessian(k), "{ctx} h[{k}]");
            }
        }
    }
}

fn direct_batch<T: Real>(
    engine: &BsplineSoA<T>,
    kernel: Kernel,
    pos: &PosBlock<T>,
) -> bspline::BatchOut<WalkerSoA<T>> {
    let mut out = engine.make_batch_out(pos.len());
    engine.eval_batch(kernel, pos, &mut out);
    out
}

/// Silence the default panic hook for service worker threads so the
/// injected panics don't spray backtraces over the test output. Safe to
/// install more than once; worker panics are always caught by the
/// service's `catch_unwind`, this is cosmetic only.
fn quiet_worker_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let here = std::thread::current();
            if here.name().is_some_and(|t| t.starts_with("spo-worker")) {
                return;
            }
            default_hook(info);
        }));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// Chaos property: for ANY scripted fault plan (panic / kill /
    /// stall / poison / a two-fault combination / none) × any replica
    /// count × any retry budget × any kernel, every ticket resolves
    /// within a generous deadline, every success is bit-identical to
    /// the direct batch, every failure hands the submitted buffers
    /// back, and the admission counter is sum-consistent with the
    /// resolved tickets.
    #[test]
    fn any_fault_plan_resolves_every_ticket(
        kind in 0usize..6,
        worker in 0usize..2,
        at in 0usize..16,
        ms in 1u64..8,
        replicas in 1usize..3,
        max_retries in 0usize..3,
        kernel_ix in 0usize..3,
        seed in 0u64..1000,
    ) {
        quiet_worker_panics();
        let n = 10;
        let kernel = Kernel::ALL[kernel_ix];
        let worker = worker % replicas;
        let other = (worker + 1) % replicas;
        let faults = match kind {
            0 => vec![],
            1 => vec![ServiceFault::Panic { worker, at_request: at }],
            2 => vec![ServiceFault::Kill { worker, at_request: at }],
            3 => vec![ServiceFault::Stall { worker, at_request: at, ms }],
            4 => vec![ServiceFault::Poison { worker, at_request: at }],
            _ => vec![
                ServiceFault::Panic { worker, at_request: at },
                ServiceFault::Kill { worker: other, at_request: at + 8 },
            ],
        };
        let service = SpoService::with_fault_plan(
            BsplineSoA::new(random_table::<f32>(n, seed)),
            ServiceConfig {
                replicas,
                max_batch: 16,
                max_wait: Duration::from_micros(100),
                queue_positions: 4096,
                max_retries,
                ..ServiceConfig::default()
            },
            ServiceFaultPlan { faults },
        );
        let pos = random_block::<f32>(32, seed ^ 0xfau64);
        let reference = direct_batch(service.engine(), kernel, &pos);
        let chunk = 4usize;
        let submitters = 3usize;
        let ok = AtomicUsize::new(0);
        let failed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for w in 0..submitters {
                let service = &service;
                let pos = &pos;
                let reference = &reference;
                let ok = &ok;
                let failed = &failed;
                s.spawn(move || {
                    // Pipelined: issue every request before reaping any,
                    // so crashes land on a populated queue.
                    let tickets: Vec<_> = pos
                        .chunks(chunk)
                        .enumerate()
                        .filter(|(i, _)| i % submitters == w)
                        .map(|(i, sub)| {
                            let out = service.engine().make_batch_out(sub.len());
                            (i, service.submit(kernel, sub, out))
                        })
                        .collect();
                    for (i, t) in tickets {
                        // Contract 1: every ticket resolves well inside
                        // this deadline — an Err(Timeout) here is a
                        // lost request, which must never happen.
                        match t.redeem_for(Duration::from_secs(20)) {
                            Ok((sub, out, _)) => {
                                ok.fetch_add(1, Ordering::Relaxed);
                                // Contract 2: bit-identity of successes.
                                for j in 0..sub.len() {
                                    assert_blocks_bitmatch(
                                        kernel,
                                        n,
                                        out.block(j),
                                        reference.block(i * chunk + j),
                                        &format!("chunk={i} pos={j}"),
                                    );
                                }
                            }
                            Err(f) => {
                                assert_ne!(
                                    f.error,
                                    ServiceError::Timeout,
                                    "ticket lost under plan (chunk {i})"
                                );
                                // Contract 3: buffers come back whole.
                                assert_eq!(
                                    f.pos.expect("failure returns pos").len(),
                                    chunk,
                                    "chunk {i}"
                                );
                                assert_eq!(
                                    f.out.expect("failure returns out").len(),
                                    chunk,
                                    "chunk {i}"
                                );
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        let stats = service.stats();
        let total = pos.len() / chunk;
        // Sum-consistency: every admitted request resolved exactly once.
        prop_assert_eq!(ok.load(Ordering::Relaxed) + failed.load(Ordering::Relaxed), total);
        prop_assert_eq!(stats.requests, total);
        // Positions are counted only on successful evaluation, once per
        // resolved-successful request.
        prop_assert_eq!(stats.positions, ok.load(Ordering::Relaxed) * chunk);
        // No deadline was set, so nothing may shed.
        prop_assert_eq!(stats.shed, 0);
        drop(service);
    }
}

/// Counter satellite: under concurrent fault-free submitters the
/// [`bspline::service::StatsSnapshot`] counters are monotone (sampled
/// live while the load runs) and sum-consistent with the resolved
/// tickets at the end.
#[test]
fn stats_counters_are_monotone_and_sum_consistent_under_load() {
    let n = 12;
    let service = SpoService::new(
        BsplineSoA::new(random_table::<f32>(n, 0x57a7)),
        ServiceConfig {
            replicas: 2,
            max_batch: 16,
            max_wait: Duration::from_micros(100),
            queue_positions: 4096,
            ..ServiceConfig::default()
        },
    );
    let submitters = 4usize;
    let requests_each = 32usize;
    let ppr = 4usize;
    let done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // Sampler: every counter must only ever grow.
        let sampler = {
            let service = &service;
            let done = &done;
            s.spawn(move || {
                let mut prev = service.stats();
                while done.load(Ordering::Relaxed) < submitters {
                    let now = service.stats();
                    for (name, a, b) in [
                        ("requests", prev.requests, now.requests),
                        ("batches", prev.batches, now.batches),
                        ("positions", prev.positions, now.positions),
                        ("coalesced", prev.coalesced, now.coalesced),
                        ("spilled", prev.spilled, now.spilled),
                        ("stolen", prev.stolen, now.stolen),
                        ("shed", prev.shed, now.shed),
                        ("retried", prev.retried, now.retried),
                        ("panics", prev.panics, now.panics),
                        ("respawns", prev.respawns, now.respawns),
                    ] {
                        assert!(b >= a, "{name} went backwards: {a} -> {b}");
                    }
                    prev = now;
                    std::thread::yield_now();
                }
            })
        };
        for w in 0..submitters {
            let service = &service;
            let done = &done;
            s.spawn(move || {
                let block = random_block::<f32>(ppr, 0x57a8 + w as u64);
                for _ in 0..requests_each {
                    let out = service.engine().make_batch_out(ppr);
                    let (_, _, _) = service
                        .submit(Kernel::Vgh, block.clone(), out)
                        .redeem()
                        .expect("fault-free request");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        sampler.join().expect("sampler");
    });
    let stats = service.stats();
    let total = submitters * requests_each;
    assert_eq!(stats.requests, total);
    assert_eq!(stats.positions, total * ppr);
    assert!(stats.batches >= 1 && stats.batches <= total);
    assert!(stats.coalesced <= total);
    // Fault-free run: none of the failure-path counters may move.
    assert_eq!(
        (stats.shed, stats.retried, stats.panics, stats.respawns),
        (0, 0, 0, 0)
    );
}

/// Injected-fault counters: a panic plan on a 2-replica service bumps
/// `panics`/`respawns`/`retried`, and the failure-path counters stay
/// sum-consistent with the resolved tickets.
#[test]
fn injected_panics_move_the_fault_counters_without_losing_requests() {
    quiet_worker_panics();
    let n = 10;
    let service = SpoService::with_fault_plan(
        BsplineSoA::new(random_table::<f32>(n, 0xfa11)),
        ServiceConfig {
            replicas: 2,
            max_batch: 16,
            max_wait: Duration::from_micros(100),
            queue_positions: 4096,
            ..ServiceConfig::default()
        },
        ServiceFaultPlan {
            faults: vec![ServiceFault::Panic { worker: 0, at_request: 4 }],
        },
    );
    let pos = random_block::<f32>(4, 0xfa12);
    let reference = direct_batch(service.engine(), Kernel::Vgh, &pos);
    let total = 48usize;
    for i in 0..total {
        let out = service.engine().make_batch_out(pos.len());
        let (_, out, _) = service
            .submit(Kernel::Vgh, pos.clone(), out)
            .redeem()
            .expect("default retry budget covers one panic");
        for j in 0..pos.len() {
            assert_blocks_bitmatch(
                Kernel::Vgh,
                n,
                out.block(j),
                reference.block(j),
                &format!("req={i} pos={j}"),
            );
        }
    }
    let stats = service.stats();
    assert_eq!(stats.requests, total);
    assert_eq!(stats.positions, total * pos.len());
    assert_eq!(stats.panics, 1, "the scripted fault fired once");
    assert!(stats.respawns >= 1, "the worker restarted in place");
    assert!(stats.retried >= 1, "the crashed batch was re-enqueued");
}

/// A worker restarted after a crash keeps the backend the service was
/// built under: the restart runs on the worker's own thread, where no
/// backend force is active, so it must re-arm the backend pinned at
/// construction rather than read the thread's default.
#[test]
fn respawned_worker_keeps_the_pinned_backend() {
    use bspline::simd::{with_backend, Backend};
    if !Backend::available().contains(&Backend::Sse2) {
        return;
    }
    quiet_worker_panics();
    let (n, ns) = (40, 6);
    let engine = BsplineSoA::new(random_table::<f32>(n, 0xbac4));
    let pos = random_block::<f32>(ns, 0xbac5);
    let sse2 = with_backend(Backend::Sse2, || direct_batch(&engine, Kernel::Vgh, &pos));
    let service = with_backend(Backend::Sse2, || {
        SpoService::with_fault_plan(
            engine,
            ServiceConfig {
                replicas: 1,
                ..ServiceConfig::default()
            },
            ServiceFaultPlan {
                faults: vec![ServiceFault::Panic { worker: 0, at_request: 0 }],
            },
        )
    });
    for round in 0..4 {
        let out = service.engine().make_batch_out(ns);
        let (_, got, _) = service
            .submit(Kernel::Vgh, pos.clone(), out)
            .redeem()
            .expect("the default retry budget covers one panic");
        for p in 0..ns {
            let ctx = format!("round {round} p={p}");
            assert_blocks_bitmatch(Kernel::Vgh, n, got.block(p), sse2.block(p), &ctx);
        }
    }
    assert!(service.stats().respawns >= 1, "the injected panic restarted the worker");
}

/// Deadline/shed coverage, made deterministic with a scripted stall:
/// requests submitted with an already-expired deadline behind a stalled
/// worker resolve to [`ServiceError::Shed`] with their buffers, never
/// evaluate, and count in `stats.shed`; an undeadlined request on the
/// same queue still completes bit-identically.
#[test]
fn expired_deadlines_shed_behind_a_stalled_worker() {
    let n = 10;
    let service = SpoService::with_fault_plan(
        BsplineSoA::new(random_table::<f32>(n, 0x5bed)),
        ServiceConfig {
            replicas: 1,
            max_batch: 4,
            max_wait: Duration::from_micros(50),
            queue_positions: 4096,
            ..ServiceConfig::default()
        },
        ServiceFaultPlan {
            faults: vec![ServiceFault::Stall { worker: 0, at_request: 0, ms: 150 }],
        },
    );
    let pos = random_block::<f32>(4, 0x5bee);
    let reference = direct_batch(service.engine(), Kernel::Vgl, &pos);

    // First request arms the stall: the worker sleeps 150 ms with the
    // batch already claimed, so everything below queues behind it.
    let out = service.engine().make_batch_out(pos.len());
    let first = service.submit(Kernel::Vgl, pos.clone(), out);

    // Expired-deadline requests: shed at pop time, never evaluated.
    let sheds = 6usize;
    let dead = Instant::now() - Duration::from_millis(1);
    let shed_tickets: Vec<_> = (0..sheds)
        .map(|_| {
            let out = service.engine().make_batch_out(pos.len());
            service.submit_with_deadline(Kernel::Vgl, pos.clone(), out, dead)
        })
        .collect();
    // One more healthy request with no deadline: must still complete.
    let out = service.engine().make_batch_out(pos.len());
    let last = service.submit(Kernel::Vgl, pos.clone(), out);

    let (_, out, _) = first.redeem().expect("stalled batch still completes");
    for j in 0..pos.len() {
        assert_blocks_bitmatch(
            Kernel::Vgl, n, out.block(j), reference.block(j), &format!("first pos={j}"),
        );
    }
    for (i, t) in shed_tickets.into_iter().enumerate() {
        let f = t.redeem().expect_err("expired deadline must shed");
        assert_eq!(f.error, ServiceError::Shed, "ticket {i}");
        assert_eq!(f.pos.expect("shed returns pos").len(), pos.len());
        assert_eq!(f.out.expect("shed returns out").len(), pos.len());
    }
    let (_, out, _) = last.redeem().expect("undeadlined request completes");
    for j in 0..pos.len() {
        assert_blocks_bitmatch(
            Kernel::Vgl, n, out.block(j), reference.block(j), &format!("last pos={j}"),
        );
    }
    let stats = service.stats();
    assert_eq!(stats.shed, sheds);
    assert_eq!(stats.requests, sheds + 2);
    assert_eq!(stats.positions, 2 * pos.len(), "shed requests never evaluate");
}

/// Wait-side timeout against a scripted stall: `redeem_for` expires
/// with a typed [`ServiceError::Timeout`] carrying the live claim, and
/// the later redeem still completes bit-identically — the stall slows
/// the request down but loses nothing.
#[test]
fn redeem_timeout_during_a_stall_hands_the_claim_back() {
    let n = 10;
    let service = SpoService::with_fault_plan(
        BsplineSoA::new(random_table::<f32>(n, 0x70aa)),
        ServiceConfig {
            replicas: 1,
            max_batch: 4,
            max_wait: Duration::from_micros(50),
            queue_positions: 4096,
            ..ServiceConfig::default()
        },
        ServiceFaultPlan {
            faults: vec![ServiceFault::Stall { worker: 0, at_request: 0, ms: 200 }],
        },
    );
    let pos = random_block::<f32>(4, 0x70ab);
    let reference = direct_batch(service.engine(), Kernel::Vgh, &pos);
    let out = service.engine().make_batch_out(pos.len());
    let ticket = service.submit(Kernel::Vgh, pos.clone(), out);
    let f = ticket
        .redeem_for(Duration::from_millis(10))
        .expect_err("a 200 ms stall outlives a 10 ms wait");
    assert_eq!(f.error, ServiceError::Timeout);
    let ticket = f.ticket.expect("timeout hands the claim back");
    let (_, out, _) = ticket.redeem().expect("stall ends, request completes");
    for j in 0..pos.len() {
        assert_blocks_bitmatch(
            Kernel::Vgh, n, out.block(j), reference.block(j), &format!("pos={j}"),
        );
    }
}
