//! Fault-injection smoke for the evaluation service (CI tool).
//!
//! Builds an [`SpoService`] with a scripted [`ServiceFaultPlan`] that
//! panics both workers mid-load, drives it with concurrent pipelined
//! submitters, and checks the fault-tolerance contract the chaos
//! proptests assert statistically:
//!
//! * every ticket resolves (no deadlock, no lost caller buffers);
//! * every successful result is bit-identical to the direct
//!   `eval_batch` over the same positions;
//! * at least one crashed worker restarted in place
//!   (`StatsSnapshot::respawns`).
//!
//! Exits nonzero when any ticket is lost, any result mismatches, or no
//! restart happened (the injected faults never fired — a dead harness).
//!
//!   cargo run --release -p qmc-bench --example service_chaos

use bspline::service::{ServiceConfig, ServiceFault, ServiceFaultPlan, SpoService};
use bspline::{BsplineSoA, Kernel, PosBlock, SpoEngine};
use qmc_bench::coefficients;
use qmc_bench::workload::is_quick;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn main() -> ExitCode {
    // The injected worker panics are expected; keep the smoke's output
    // readable by silencing the default hook for service worker
    // threads only.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let here = std::thread::current();
        if here.name().is_some_and(|t| t.starts_with("spo-worker")) {
            return;
        }
        default_hook(info);
    }));

    let quick = is_quick();
    let n = if quick { 48 } else { 128 };
    let table = coefficients(n, (12, 12, 12), 0xc5a0);
    let submitters = 4usize;
    let requests_per_submitter = if quick { 16 } else { 48 };
    let ppr = 8usize;

    let service = SpoService::with_fault_plan(
        BsplineSoA::new(table),
        ServiceConfig {
            replicas: 2,
            max_batch: 32,
            max_wait: Duration::from_micros(200),
            queue_positions: 1024,
            ..ServiceConfig::default()
        },
        ServiceFaultPlan {
            faults: vec![
                ServiceFault::Panic { worker: 0, at_request: 8 },
                ServiceFault::Panic { worker: 1, at_request: 24 },
            ],
        },
    );

    let resolved = AtomicUsize::new(0);
    let lost = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let mismatched = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for w in 0..submitters {
            let service = &service;
            let resolved = &resolved;
            let lost = &lost;
            let failed = &failed;
            let mismatched = &mismatched;
            s.spawn(move || {
                let mut rng = bspline::walker::walker_rng(0xc5a1, w);
                let domain = service.engine().domain();
                // Two distinct blocks per submitter, each with a direct
                // bit-identity reference computed up front.
                let blocks: Vec<PosBlock<f32>> = (0..2)
                    .map(|_| PosBlock::random(&mut rng, ppr, domain))
                    .collect();
                let refs: Vec<_> = blocks
                    .iter()
                    .map(|b| {
                        let mut out = service.engine().make_batch_out(b.len());
                        service.engine().eval_batch(Kernel::Vgh, b, &mut out);
                        out
                    })
                    .collect();
                let tickets: Vec<_> = (0..requests_per_submitter)
                    .map(|i| {
                        let b = &blocks[i % blocks.len()];
                        let out = service.engine().make_batch_out(b.len());
                        (i % blocks.len(), service.submit(Kernel::Vgh, b.clone(), out))
                    })
                    .collect();
                for (bi, ticket) in tickets {
                    match ticket.redeem_for(Duration::from_secs(10)) {
                        Ok((_, out, _)) => {
                            resolved.fetch_add(1, Ordering::Relaxed);
                            let want = &refs[bi];
                            for j in 0..ppr {
                                for k in 0..n {
                                    if out.block(j).value(k) != want.block(j).value(k)
                                        || out.block(j).hessian(k)
                                            != want.block(j).hessian(k)
                                    {
                                        mismatched.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                        Err(f) if f.ticket.is_some() => {
                            // A 10 s redeem timeout under this tiny load
                            // means the request never resolved: lost.
                            lost.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            // Typed service failure (retry budget, shed):
                            // resolved, with the buffers handed back.
                            resolved.fetch_add(1, Ordering::Relaxed);
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    let stats = service.stats();
    let total = submitters * requests_per_submitter;
    println!(
        "chaos: {total} requests -> resolved {} (of which {} typed failures), \
         lost {}, mismatched {}",
        resolved.load(Ordering::Relaxed),
        failed.load(Ordering::Relaxed),
        lost.load(Ordering::Relaxed),
        mismatched.load(Ordering::Relaxed),
    );
    println!(
        "stats: panics {} respawns {} retried {} shed {}  health {:?} live {}",
        stats.panics,
        stats.respawns,
        stats.retried,
        stats.shed,
        service.health(),
        service.live_workers(),
    );
    let ok = lost.load(Ordering::Relaxed) == 0
        && mismatched.load(Ordering::Relaxed) == 0
        && resolved.load(Ordering::Relaxed) == total
        && stats.respawns >= 1;
    if ok {
        println!("chaos smoke: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("chaos smoke: FAILED (lost tickets, mismatch, or no respawn)");
        ExitCode::FAILURE
    }
}
