//! Coalescing-service conformance suite (ISSUE 6 tentpole): results
//! that arrive through [`bspline::service::SpoService`] must be
//! **bit-identical** to a single direct `eval_batch` call over the same
//! positions — coalescing splices whole position blocks and fusing
//! never splits a per-orbital accumulation chain, so exact equality
//! holds on every backend.
//!
//! Covered here (the unit tests in `bspline::service` cover the
//! single-service mechanics; this file stresses the cross-thread
//! contract):
//!
//! 1. many submitters × small submissions ≡ one big direct batch,
//!    bit-for-bit, across kernels × precisions (`f32` / `f64`);
//! 2. a mixed V/VGL/VGH submission stream — the coalescer may only
//!    fuse like-kinded requests, and every caller gets its own blocks
//!    back;
//! 3. a tiny `queue_positions` bound: backpressure throttles but never
//!    deadlocks, and an oversized request is still admitted when the
//!    service drains idle;
//! 4. `PosBlock::chunks` edge cases (the splitter submitters use to
//!    split a walker's positions): empty block, ragged tail, chunk
//!    size ≥ length, and the positive-size contract;
//! 5. a proptest partition property: any chunking of any position
//!    block, pipelined through the service, reassembles to the direct
//!    batch;
//! 6. one or two workers against a tight or a loose queue bound, fed a
//!    stream of clustered and uniform blocks: how many workers drain
//!    the queue, and how often submitters block, only decide *when* a
//!    request runs, so results stay bit-identical to the direct batch;
//! 7. the pinned backend: a service built under a backend force keeps
//!    that backend for submitters outside the force.

mod common;

use bspline::service::{ServiceConfig, ServiceError, SpoService};
use bspline::{BsplineSoA, Kernel, PosBlock, SpoEngine, WalkerSoA};
use einspline::{Grid1, MultiCoefs, Real};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

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

/// Assert the kernel-relevant fields of two walker blocks are
/// bit-identical (exact `==`, no tolerance).
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

/// The direct reference: one `eval_batch` over the whole block.
fn direct_batch<T: Real>(
    engine: &BsplineSoA<T>,
    kernel: Kernel,
    pos: &PosBlock<T>,
) -> bspline::BatchOut<WalkerSoA<T>> {
    let mut out = engine.make_batch_out(pos.len());
    engine.eval_batch(kernel, pos, &mut out);
    out
}

/// Split `pos` into `chunk`-sized requests, fire them at `service`
/// from `submitters` concurrent threads, and assert every returned
/// block bit-matches the direct big-batch reference at its global
/// position index.
fn stress_service<T: Real>(
    service: &SpoService<T, BsplineSoA<T>>,
    kernel: Kernel,
    pos: &PosBlock<T>,
    chunk: usize,
    submitters: usize,
) {
    let n = service.engine().n_splines();
    let reference = direct_batch(service.engine(), kernel, pos);
    let chunks: Vec<PosBlock<T>> = pos.chunks(chunk).collect();
    std::thread::scope(|s| {
        for w in 0..submitters {
            let my_chunks: Vec<(usize, PosBlock<T>)> = chunks
                .iter()
                .enumerate()
                .filter(|(i, _)| i % submitters == w)
                .map(|(i, c)| (i, c.clone()))
                .collect();
            let reference = &reference;
            s.spawn(move || {
                for (i, sub) in my_chunks {
                    let len = sub.len();
                    let out = service.engine().make_batch_out(len);
                    let (_, out, _) = service
                        .submit(kernel, sub, out)
                        .redeem()
                        .expect("service request");
                    for j in 0..len {
                        assert_blocks_bitmatch(
                            kernel,
                            n,
                            out.block(j),
                            reference.block(i * chunk + j),
                            &format!("{kernel} chunk={i} pos={j}"),
                        );
                    }
                }
            });
        }
    });
}

fn small_service<T: Real>(
    table: MultiCoefs<T>,
    replicas: usize,
    queue_positions: usize,
) -> SpoService<T, BsplineSoA<T>> {
    SpoService::new(
        BsplineSoA::new(table),
        ServiceConfig {
            replicas,
            max_batch: 32,
            max_wait: Duration::from_micros(200),
            queue_positions,
            ..ServiceConfig::default()
        },
    )
}

#[test]
fn many_small_submissions_equal_one_big_batch_f32() {
    let n = 24;
    let service = small_service(random_table::<f32>(n, 0xf32), 2, 4096);
    let pos = random_block::<f32>(96, 0xf32 ^ 0xabcd);
    for kernel in Kernel::ALL {
        stress_service(&service, kernel, &pos, 4, 6);
    }
    // Every position went through the service exactly once per kernel.
    let stats = service.stats();
    assert_eq!(stats.positions, 3 * 96);
    assert_eq!(stats.requests, 3 * 24);
}

#[test]
fn many_small_submissions_equal_one_big_batch_f64() {
    let n = 17;
    let service = small_service(random_table::<f64>(n, 0xf64), 2, 4096);
    let pos = random_block::<f64>(60, 0xf64 ^ 0xabcd);
    for kernel in Kernel::ALL {
        stress_service(&service, kernel, &pos, 5, 4);
    }
}

#[test]
fn mixed_kernel_stream_returns_each_callers_own_results() {
    let n = 12;
    let service = small_service(random_table::<f32>(n, 0x717), 2, 4096);
    let pos = random_block::<f32>(72, 0x717 ^ 0xabcd);
    let references: Vec<_> = Kernel::ALL
        .into_iter()
        .map(|k| direct_batch(service.engine(), k, &pos))
        .collect();
    let chunks: Vec<PosBlock<f32>> = pos.chunks(3).collect();
    // Three submitters, each cycling through the kernels out of phase
    // with the others, so the queue always holds a kernel mix and the
    // coalescer must match like kinds from anywhere in it.
    std::thread::scope(|s| {
        for w in 0..3usize {
            let chunks = &chunks;
            let references = &references;
            let service = &service;
            s.spawn(move || {
                for (i, sub) in chunks.iter().enumerate() {
                    let ki = (i + w) % Kernel::ALL.len();
                    let kernel = Kernel::ALL[ki];
                    let out = service.engine().make_batch_out(sub.len());
                    let (_, out, _) = service
                        .submit(kernel, sub.clone(), out)
                        .redeem()
                        .expect("service request");
                    for j in 0..sub.len() {
                        assert_blocks_bitmatch(
                            kernel,
                            n,
                            out.block(j),
                            references[ki].block(i * 3 + j),
                            &format!("submitter={w} {kernel} chunk={i} pos={j}"),
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn tiny_queue_bound_throttles_without_deadlock() {
    let n = 9;
    // Queue bound of 4 positions against 4-position requests from 4
    // threads: at most one request is ever admitted at a time, every
    // other submitter blocks in `submit` — progress proves the worker
    // wakes blocked submitters as it drains.
    let service = small_service(random_table::<f32>(n, 0x404), 2, 4);
    let pos = random_block::<f32>(64, 0x404 ^ 0xabcd);
    stress_service(&service, Kernel::Vgh, &pos, 4, 4);
    // An oversized request (8 positions > bound 4) is still admitted
    // once the service drains idle, instead of blocking forever.
    let big = random_block::<f32>(8, 0x404 ^ 0x1111);
    let reference = direct_batch(service.engine(), Kernel::Vgl, &big);
    let out = service.engine().make_batch_out(big.len());
    let (_, out, _) = service
        .submit(Kernel::Vgl, big, out)
        .redeem()
        .expect("oversized request");
    for j in 0..8 {
        assert_blocks_bitmatch(
            Kernel::Vgl,
            n,
            out.block(j),
            reference.block(j),
            &format!("oversized pos={j}"),
        );
    }
}

#[test]
fn chunks_of_empty_block_yield_nothing() {
    let empty = PosBlock::<f32>::new();
    assert_eq!(empty.chunks(4).count(), 0);
}

#[test]
fn chunks_cover_ragged_tail_exactly_once() {
    let pos = random_block::<f64>(10, 3);
    let chunks: Vec<_> = pos.chunks(4).collect();
    assert_eq!(
        chunks.iter().map(PosBlock::len).collect::<Vec<_>>(),
        vec![4, 4, 2]
    );
    let mut rebuilt = PosBlock::new();
    for c in &chunks {
        rebuilt.extend_from_block(c);
    }
    assert_eq!(rebuilt.streams(), pos.streams());
}

#[test]
fn chunk_size_at_or_above_len_is_one_whole_chunk() {
    let pos = random_block::<f32>(5, 9);
    for size in [5usize, 6, 100] {
        let chunks: Vec<_> = pos.chunks(size).collect();
        assert_eq!(chunks.len(), 1, "size={size}");
        assert_eq!(chunks[0].streams(), pos.streams(), "size={size}");
    }
}

#[test]
#[should_panic(expected = "chunk size must be positive")]
fn zero_chunk_size_panics() {
    let pos = random_block::<f32>(3, 1);
    let _ = pos.chunks(0).count();
}

/// A block whose positions cluster inside one octant of the domain
/// (`corner` picks which), so consecutive requests touch the same few
/// coefficient lines.
fn concentrated_block<T: Real>(ns: usize, corner: usize, seed: u64) -> PosBlock<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let lo = [
        if corner & 1 != 0 { 0.75 } else { 0.05 },
        if corner & 2 != 0 { 0.75 } else { 0.05 },
        if corner & 4 != 0 { 0.75 } else { 0.05 },
    ];
    (0..ns)
        .map(|_| {
            [
                T::from_f64(lo[0] + 0.15 * rng.random::<f64>()),
                T::from_f64(lo[1] + 0.15 * rng.random::<f64>()),
                T::from_f64(lo[2] + 0.15 * rng.random::<f64>()),
            ]
        })
        .collect()
}

/// Six submitters fire a clustered-then-uniform stream at one or two
/// workers, under a queue bound below the stream (48 positions: the
/// submitters block and the workers wake them as they drain) and above
/// it: every result must still bit-match the direct batch.
#[test]
fn workers_under_any_queue_bound_stay_bit_identical() {
    let n = 16;
    for replicas in [1, 2] {
        for queue_positions in [48, 4096] {
            let service = small_service(random_table::<f32>(n, 0x5b11), replicas, queue_positions);
            let mut pos = concentrated_block::<f32>(96, 7, 0x5b11 ^ 0xabcd);
            pos.extend_from_block(&random_block::<f32>(48, 0x5b11 ^ 0x5eed));
            stress_service(&service, Kernel::Vgh, &pos, 8, 6);
            assert_eq!(service.stats().positions, 144, "replicas={replicas}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Partition property: any chunking of any position block,
    /// submitted through the service (pipelined: all tickets issued
    /// before any is reaped), reassembles bit-for-bit into the direct
    /// big-batch result.
    #[test]
    fn any_partition_reassembles_to_the_direct_batch(
        n in 1usize..20,
        ns in 0usize..40,
        chunk in 1usize..12,
        seed in 0u64..1000,
    ) {
        let service = small_service(random_table::<f32>(n, seed), 2, 4096);
        let pos = random_block::<f32>(ns, seed ^ 0x5eed);
        for kernel in Kernel::ALL {
            let reference = direct_batch(service.engine(), kernel, &pos);
            let tickets: Vec<_> = pos
                .chunks(chunk)
                .map(|sub| {
                    let out = service.engine().make_batch_out(sub.len());
                    service.submit(kernel, sub, out)
                })
                .collect();
            let mut at = 0usize;
            for (i, t) in tickets.into_iter().enumerate() {
                let (sub, out, _) = t.redeem().expect("service request");
                for j in 0..sub.len() {
                    assert_blocks_bitmatch(
                        kernel,
                        n,
                        out.block(j),
                        reference.block(at + j),
                        &format!("{kernel} chunk={i} pos={j}"),
                    );
                }
                at += sub.len();
            }
            prop_assert_eq!(at, pos.len());
        }
    }

    /// Worker-pool property: with one or two workers and a tight or a
    /// loose queue bound, a clustered block followed by a uniform one,
    /// pipelined through the service, reassembles bit-for-bit into the
    /// direct batch.
    #[test]
    fn any_pool_and_queue_bound_reassembles_to_the_direct_batch(
        replicas in 1usize..3,
        corner in 0usize..8,
        ns in 1usize..40,
        chunk in 1usize..12,
        queue_ix in 0usize..2,
        seed in 0u64..1000,
    ) {
        let queue_positions = [48usize, 4096][queue_ix];
        let n = 10;
        let service = small_service(random_table::<f32>(n, seed), replicas, queue_positions);
        let mut pos = concentrated_block::<f32>(ns, corner, seed ^ 0x0c0c);
        pos.extend_from_block(&random_block::<f32>(ns / 2, seed ^ 0x5eed));
        let kernel = Kernel::ALL[(seed % 3) as usize];
        let reference = direct_batch(service.engine(), kernel, &pos);
        let tickets: Vec<_> = pos
            .chunks(chunk)
            .map(|sub| {
                let out = service.engine().make_batch_out(sub.len());
                service.submit(kernel, sub, out)
            })
            .collect();
        let mut at = 0usize;
        for (i, t) in tickets.into_iter().enumerate() {
            let (sub, out, _) = t.redeem().expect("service request");
            for j in 0..sub.len() {
                assert_blocks_bitmatch(
                    kernel,
                    n,
                    out.block(j),
                    reference.block(at + j),
                    &format!("replicas={replicas} {kernel} chunk={i} pos={j}"),
                );
            }
            at += sub.len();
        }
        prop_assert_eq!(at, pos.len());
    }
}

/// Teardown coverage (ISSUE 9 satellite): `Ticket::redeem_for` timeout
/// expiry must hand the claim back without losing the request, and the
/// eventual completion still bit-matches the direct batch.
#[test]
fn wait_for_timeout_expires_then_request_still_completes() {
    let n = 16;
    // One replica with a huge fuse target and a long fuse window: a
    // single small submission stays a partial batch, so the worker
    // sits in its coalescing wait and the ticket cannot complete
    // before `max_wait` elapses.
    let service = SpoService::new(
        BsplineSoA::new(random_table::<f32>(n, 0x7ea0)),
        ServiceConfig {
            replicas: 1,
            max_batch: 4096,
            max_wait: Duration::from_millis(800),
            queue_positions: 4096,
            ..ServiceConfig::default()
        },
    );
    let pos = random_block::<f32>(3, 0x7ea1);
    let reference = direct_batch(service.engine(), Kernel::Vgl, &pos);
    let out = service.engine().make_batch_out(pos.len());
    let ticket = service.submit(Kernel::Vgl, pos.clone(), out);

    // Expiry: far shorter than the fuse window.
    let start = std::time::Instant::now();
    let ticket = match ticket.redeem_for(Duration::from_millis(20)) {
        Err(f) => {
            // A wait-side timeout is typed, and the claim comes back
            // intact for a later redeem.
            assert_eq!(f.error, ServiceError::Timeout);
            f.ticket.expect("timeout hands the claim back")
        }
        Ok(_) => panic!("a partial batch cannot complete before max_wait"),
    };
    let waited = start.elapsed();
    assert!(
        waited >= Duration::from_millis(20),
        "expiry honoured the timeout, got {waited:?}"
    );
    assert!(!ticket.is_done(), "request still in flight after expiry");

    // The request was never lost: a second wait with a generous
    // deadline redeems it, bit-identical to the direct batch.
    let (got_pos, got_out, _at) = ticket
        .redeem_for(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("request must complete within the fuse window"));
    assert_eq!(got_pos.len(), 3);
    for j in 0..got_pos.len() {
        assert_blocks_bitmatch(
            Kernel::Vgl,
            n,
            got_out.block(j),
            reference.block(j),
            &format!("wait_for pos={j}"),
        );
    }
}

/// Teardown coverage (ISSUE 9 satellite): dropping the service with
/// requests still queued must evaluate and complete every ticket —
/// no deadlock, no lost buffers — without waiting out the fuse window.
#[test]
fn drop_with_queued_requests_completes_every_ticket() {
    let n = 16;
    // A single replica with an hour-long fuse window and a fuse target
    // nothing here reaches: submissions pile up as partial batches, so
    // at drop time the queue genuinely holds pending requests. Only
    // the shutdown path (not a timeout) can complete them promptly.
    let service = SpoService::new(
        BsplineSoA::new(random_table::<f64>(n, 0xd10b)),
        ServiceConfig {
            replicas: 1,
            max_batch: 1 << 20,
            max_wait: Duration::from_secs(3600),
            queue_positions: 1 << 20,
            ..ServiceConfig::default()
        },
    );
    let pos = random_block::<f64>(40, 0xd10c);
    let references: Vec<_> = Kernel::ALL
        .iter()
        .map(|&k| direct_batch(service.engine(), k, &pos))
        .collect();

    // Queue a mixed-kernel pile of requests; none can complete yet.
    let mut tickets = Vec::new();
    for (ki, &kernel) in Kernel::ALL.iter().enumerate() {
        for (ci, sub) in pos.chunks(7).enumerate() {
            let out = service.engine().make_batch_out(sub.len());
            tickets.push((ki, ci * 7, service.submit(kernel, sub, out)));
        }
    }

    let start = std::time::Instant::now();
    drop(service); // shutdown() drains the queue and joins the worker
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(60),
        "drop must not wait out the 1 h fuse window (took {elapsed:?})"
    );

    // Every ticket completes with evaluated, bit-identical results —
    // the drain ran the requests rather than abandoning the buffers.
    for (ki, at, ticket) in tickets {
        assert!(ticket.is_done(), "ticket completed by the drop drain");
        let (sub, out, _) = ticket.redeem().expect("drained request");
        for j in 0..sub.len() {
            assert_blocks_bitmatch(
                Kernel::ALL[ki],
                n,
                out.block(j),
                references[ki].block(at + j),
                &format!("post-drop kernel={} pos={}", Kernel::ALL[ki], at + j),
            );
        }
    }
}

/// A service built under a backend force keeps it: the workers re-arm
/// the backend pinned at construction for every batch, so a submission
/// from outside the force evaluates under the pinned backend. Every
/// backend gives the same bits, so a probe engine records which one ran.
#[test]
fn service_keeps_the_backend_it_was_built_under() {
    use bspline::simd::with_backend;
    let Some(pinned) = common::backend_other_than_active() else {
        return;
    };
    let ns = 6;
    let engine = common::BackendProbe::new(BsplineSoA::new(random_table::<f32>(40, 31)));
    let pos = random_block::<f32>(ns, 32);
    let cfg = ServiceConfig {
        replicas: 2,
        ..ServiceConfig::default()
    };
    let service = with_backend(pinned, || SpoService::new(engine, cfg));
    for _ in 0..4 {
        let out = service.engine().make_batch_out(ns);
        service.submit(Kernel::Vgh, pos.clone(), out).redeem().unwrap();
    }
    let seen = service.engine().seen();
    assert!(seen.len() >= 4, "every request evaluated: {seen:?}");
    assert!(seen.iter().all(|&b| b == pinned), "pinned {pinned}, workers ran {seen:?}");
}
