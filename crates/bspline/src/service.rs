//! `SpoService` — a coalescing orbital-evaluation service over one
//! shared engine and a pool of long-lived worker threads.
//!
//! The fork-join entry points in [`crate::parallel`] are *closed-loop*:
//! a driver owns the walkers, builds full position blocks itself and
//! blocks until the generation finishes. The "millions of users" shape
//! in the ROADMAP is *open-loop*: many independent walker streams
//! produce small position batches at their own pace, and throughput
//! comes from fusing those submissions into the full [`PosBlock`]s the
//! batched engines are fast on. This module is that front-end:
//!
//! * **Ownership.** [`SpoService::new`] moves the engine behind one
//!   `Arc<E>` — the read-only table every worker shares — and spawns
//!   exactly `replicas` worker threads, all serving one FIFO queue. It
//!   also reads the active SIMD backend once and pins it: every worker
//!   re-arms that backend before every batch, so a service built inside a
//!   [`with_backend`](crate::simd::with_backend) force keeps that
//!   backend no matter which thread submits, crash or no crash.
//! * **Coalescing.** Submissions carry a kernel tag
//!   ([`Kernel`]); a worker seeds a batch with the queue head and
//!   splices every queued same-kernel request
//!   ([`PosBlock::extend_from_block`]) until the fused block reaches
//!   `max_batch` positions, waiting at most `max_wait` for stragglers
//!   once it holds a partial batch (a `max_wait` too long for
//!   [`Instant`] waits without bound, until the batch fills or the
//!   service shuts down). Requests for other kernels are left queued
//!   for the next worker.
//! * **Backpressure.** The queue is bounded by `queue_positions`
//!   pending positions; [`SpoService::submit`] blocks until space is
//!   available (one oversized request is admitted when the queue is
//!   empty so it cannot deadlock).
//! * **Zero-copy completion.** The caller's [`BatchOut`] blocks are
//!   moved into the fused engine call and handed back through the
//!   [`Ticket`] — the engine writes orbitals directly into the
//!   submitter's buffers; nothing is copied out.
//! * **Determinism.** Fusing blocks never splits a per-orbital
//!   accumulation chain, so coalesced results are **bit-identical** to
//!   a direct `eval_batch` call on every backend — property-tested in
//!   `tests/integration_service.rs`.
//! * **Shutdown.** Dropping the service (or calling
//!   [`SpoService::shutdown`]) wakes all workers, drains every queued
//!   request, and joins the threads; every issued ticket resolves.
//!
//! # Failure model
//!
//! A worker is allowed to crash: kernel evaluation runs under
//! [`std::panic::catch_unwind`], and a panicking batch never takes the
//! service (or any caller's buffers) down with it.
//!
//! * **In-place restart.** When a worker's evaluation panics, the
//!   worker recovers the in-flight requests (the fused output blocks
//!   are un-fused and reattached to their callers), re-enqueues them
//!   with a bumped crash count, and restarts its own loop on the same
//!   thread with the same engine and pinned backend. Only a slot the
//!   fault plan killed stops for good; when the last worker stops
//!   outside a shutdown, the service turns
//!   [`ServiceHealth::Failed`] and resolves everything still queued to
//!   [`ServiceError::ShuttingDown`]. A request that crashes workers
//!   more than [`ServiceConfig::max_retries`] times resolves its ticket
//!   to [`ServiceError::WorkerLost`] instead of being retried forever.
//! * **Typed outcomes.** [`Ticket::redeem`] (and the deadline-bounded
//!   [`Ticket::redeem_for`]) return `Result<_, Failed>`: the error
//!   carries a [`ServiceError`] *and* the caller's position/output
//!   buffers (or, for a wait-side [`ServiceError::Timeout`], the still
//!   live ticket), so no buffer is ever lost to a failure.
//! * **Deadlines and shedding.** [`SpoService::submit_with_deadline`]
//!   attaches a deadline to the request itself: the queue sheds the
//!   request ([`ServiceError::Shed`]) if the deadline passes while it
//!   is still queued — before evaluation, **never mid-fuse** — so every
//!   result that does complete stays bit-identical to the direct batch.
//! * **Bit-identity of successes.** Faults only decide *whether* a
//!   request evaluates, never *how*: retried batches re-coalesce and
//!   re-fuse under the same never-split-a-chain rule, so any `Ok`
//!   outcome is exactly the direct `eval_batch` result, crash or no crash.
//! * **Fault injection.** [`SpoService::with_fault_plan`] scripts
//!   worker faults ([`ServiceFault`]: panic, kill, stall, poison) for
//!   tests, the chaos proptest suite, and the degraded-mode benchmark
//!   rows — the service-layer analogue of the campaign layer's
//!   `CampaignFaultPlan`.

use crate::batch::{check_batch, BatchOut, PosBlock};
use crate::engine::SpoEngine;
use crate::layout::Kernel;
use crate::simd::{self, Backend};
use einspline::Real;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lock, recovering the guard if a panicking thread poisoned the mutex.
/// No panic site sits between two mutations of the shared state that
/// must happen together, so a poisoned guard is still consistent and
/// the restarted worker carries on with it — this is the
/// "poison-then-recover" contract the fault suite scripts with
/// [`ServiceFault::Poison`].
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How submissions are queued. There is one queue, served in submit
/// order, so [`RoutingPolicy::Fifo`] is the only policy. The type and
/// [`ServiceConfig::routing`] remain only because the `service_mixed`
/// ledger workload (`bench/src/service_mixed.rs`) names them; the next
/// change to that benchmark removes both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// One queue, strict submit order.
    #[default]
    Fifo,
}

/// Service shape: replica count, coalescing policy, queue bound,
/// crash-retry budget.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads, all sharing the one engine.
    pub replicas: usize,
    /// Fused-batch target: a worker stops coalescing once the fused
    /// block holds at least this many positions.
    pub max_batch: usize,
    /// How long a worker holding a *partial* batch waits for more
    /// same-kernel submissions before evaluating what it has.
    pub max_wait: Duration,
    /// Backpressure bound: pending positions (queued, including those a
    /// worker is still coalescing) the service admits before `submit`
    /// blocks.
    pub queue_positions: usize,
    /// Always [`RoutingPolicy::Fifo`]; kept for the `service_mixed`
    /// ledger workload (see [`RoutingPolicy`]).
    pub routing: RoutingPolicy,
    /// How many times a request caught in a worker crash is re-enqueued
    /// before its ticket resolves to [`ServiceError::WorkerLost`]. `0`
    /// fails a request on its first crash.
    pub max_retries: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            replicas: 1,
            max_batch: 32,
            max_wait: Duration::from_micros(200),
            queue_positions: 1024,
            routing: RoutingPolicy::default(),
            max_retries: 2,
        }
    }
}

/// Why a request resolved without a successful evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The caller's wait deadline ([`Ticket::redeem_for`]) expired
    /// before the request resolved. The request itself is still in
    /// flight — the claim comes back in [`Failed::ticket`].
    Timeout,
    /// The request's service-side deadline
    /// ([`SpoService::submit_with_deadline`]) passed before a worker
    /// started evaluating it, so the queue shed it (never mid-fuse).
    Shed,
    /// The request crashed a worker on every attempt its retry budget
    /// ([`ServiceConfig::max_retries`]) allowed.
    WorkerLost {
        /// Re-enqueue attempts performed before giving up.
        retries: usize,
    },
    /// The service stopped — shut down, or every worker was killed —
    /// before the request could run.
    ShuttingDown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Timeout => write!(f, "wait deadline expired (request still in flight)"),
            Self::Shed => write!(f, "request deadline passed while queued; shed before evaluation"),
            Self::WorkerLost { retries } => {
                write!(f, "request lost its worker on every attempt ({retries} retries)")
            }
            Self::ShuttingDown => write!(f, "service stopped before the request could run"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A failed [`Ticket`] redemption: the typed error plus everything the
/// caller can recover. Service-side failures (`Shed`, `WorkerLost`,
/// `ShuttingDown`) hand the submitted positions and the caller's output
/// blocks back in `pos`/`out`; a wait-side `Timeout` hands the still
/// live claim back in `ticket`. Nothing is ever silently dropped.
pub struct Failed<T: Real, O> {
    /// What went wrong.
    pub error: ServiceError,
    /// The submitted position block, for service-side failures.
    pub pos: Option<PosBlock<T>>,
    /// The caller's output blocks (contents unspecified), for
    /// service-side failures.
    pub out: Option<BatchOut<O>>,
    /// The still-live claim, for a wait-side [`ServiceError::Timeout`].
    pub ticket: Option<Ticket<T, O>>,
}

impl<T: Real, O> std::fmt::Debug for Failed<T, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Failed")
            .field("error", &self.error)
            .field("pos_len", &self.pos.as_ref().map(PosBlock::len))
            .field("out_len", &self.out.as_ref().map(|o| o.len()))
            .field("ticket", &self.ticket.is_some())
            .finish()
    }
}

/// Liveness of a service's worker pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceHealth {
    /// Every configured worker is live.
    Healthy,
    /// At least one worker was killed (a crashed worker restarts in
    /// place and never counts as dead); the survivors keep evaluating.
    Degraded,
    /// No worker is live and none is coming back; queued and future
    /// requests resolve to [`ServiceError::ShuttingDown`].
    Failed,
}

/// One scripted worker fault (see [`ServiceFaultPlan`]). `worker` is
/// the worker *slot* (`0..replicas`, stable across restarts);
/// `at_request` is an admission sequence number — the fault fires the
/// first time that slot handles a batch whose seed request was admitted
/// at or after it. Every fault fires exactly once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceFault {
    /// Panic the worker inside kernel evaluation. The batch is
    /// recovered and retried; the worker restarts in place.
    Panic {
        /// Worker slot the fault targets.
        worker: usize,
        /// Admission sequence number that arms the fault.
        at_request: usize,
    },
    /// Panic the worker and stop its thread instead of restarting it —
    /// a permanent worker loss (the degraded-mode benchmark's knob).
    Kill {
        /// Worker slot the fault targets.
        worker: usize,
        /// Admission sequence number that arms the fault.
        at_request: usize,
    },
    /// Sleep the worker for `ms` milliseconds before evaluating — a
    /// slow worker, for deadline/timeout coverage.
    Stall {
        /// Worker slot the fault targets.
        worker: usize,
        /// Admission sequence number that arms the fault.
        at_request: usize,
        /// Stall length, milliseconds.
        ms: u64,
    },
    /// Panic the worker **while it holds the shared state mutex**,
    /// poisoning it; the worker restarts in place and every later
    /// lock recovers the (still consistent) state — the
    /// poison-then-recover scenario.
    Poison {
        /// Worker slot the fault targets.
        worker: usize,
        /// Admission sequence number that arms the fault.
        at_request: usize,
    },
}

/// A scripted sequence of worker faults, injected at service
/// construction ([`SpoService::with_fault_plan`]). The chaos property
/// suite (`tests/integration_service_faults.rs`) asserts that under
/// *any* plan every ticket resolves and every success is bit-identical
/// to the direct batch.
#[derive(Clone, Debug, Default)]
pub struct ServiceFaultPlan {
    /// The faults to inject; each fires at most once.
    pub faults: Vec<ServiceFault>,
}

impl ServiceFaultPlan {
    /// A plan with no faults (the production configuration).
    pub fn none() -> Self {
        Self::default()
    }
}

/// Runtime state of an injected fault plan: which faults have fired
/// and which worker slots are permanently killed.
struct FaultState {
    faults: Vec<ServiceFault>,
    fired: Vec<AtomicBool>,
    killed: Vec<AtomicBool>,
}

impl FaultState {
    fn new(plan: ServiceFaultPlan, replicas: usize) -> Self {
        Self {
            fired: plan.faults.iter().map(|_| AtomicBool::new(false)).collect(),
            killed: (0..replicas).map(|_| AtomicBool::new(false)).collect(),
            faults: plan.faults,
        }
    }

    /// Arm-once latch: true exactly the first time fault `ix` fires.
    fn fire(&self, ix: usize) -> bool {
        !self.fired[ix].swap(true, Ordering::Relaxed)
    }

    /// Evaluation-boundary faults for worker `slot` about to run a
    /// batch seeded by admission sequence `seq`. Runs *inside* the
    /// worker's `catch_unwind`, so an injected panic takes exactly the
    /// path a real kernel panic would.
    fn before_eval(&self, slot: usize, seq: usize) {
        for (ix, f) in self.faults.iter().enumerate() {
            match *f {
                ServiceFault::Stall { worker, at_request, ms }
                    if worker == slot && seq >= at_request && self.fire(ix) =>
                {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                ServiceFault::Panic { worker, at_request }
                    if worker == slot && seq >= at_request && self.fire(ix) =>
                {
                    panic!("injected fault: panic worker {slot} at request {seq}");
                }
                ServiceFault::Kill { worker, at_request }
                    if worker == slot && seq >= at_request && self.fire(ix) =>
                {
                    self.killed[slot].store(true, Ordering::Relaxed);
                    panic!("injected fault: kill worker {slot} at request {seq}");
                }
                _ => {}
            }
        }
    }

    /// Lock-held fault hook: called by the worker loop while it owns
    /// the state guard, before it touches any queue. `admitted` is the
    /// service-wide admission count at wake time.
    fn maybe_poison(&self, slot: usize, admitted: usize) {
        for (ix, f) in self.faults.iter().enumerate() {
            if let ServiceFault::Poison { worker, at_request } = *f {
                if worker == slot && admitted >= at_request && self.fire(ix) {
                    panic!("injected fault: poison worker {slot} (state mutex held)");
                }
            }
        }
    }

    fn is_killed(&self, slot: usize) -> bool {
        self.killed.get(slot).is_some_and(|k| k.load(Ordering::Relaxed))
    }
}

/// Aggregate service counters (monotonic; relaxed atomics).
#[derive(Debug, Default)]
struct Stats {
    requests: AtomicUsize,
    batches: AtomicUsize,
    positions: AtomicUsize,
    coalesced: AtomicUsize,
    shed: AtomicUsize,
    retried: AtomicUsize,
    panics: AtomicUsize,
    respawns: AtomicUsize,
}

/// A point-in-time copy of the service counters.
#[derive(Clone, Copy, Debug)]
pub struct StatsSnapshot {
    /// Requests admitted (excluding empty ones, which complete
    /// immediately without queueing). Counts every submission that
    /// yielded a ticket, whether it later succeeded, was shed, or
    /// failed — so `requests` is sum-consistent with resolved tickets.
    pub requests: usize,
    /// Fused engine calls completed successfully.
    pub batches: usize,
    /// Positions evaluated successfully.
    pub positions: usize,
    /// Requests that shared their (successful) engine call with at
    /// least one other request.
    pub coalesced: usize,
    /// Always 0: the service has one queue, so no request is routed
    /// off it. Kept, like `stolen`, because the `service_mixed` ledger
    /// workload reports it; the next change to that benchmark removes
    /// both.
    pub spilled: usize,
    /// Always 0: with one queue there is no other queue to steal from.
    pub stolen: usize,
    /// Requests resolved to [`ServiceError::Shed`]: their deadline
    /// passed while they were still queued.
    pub shed: usize,
    /// Requests re-enqueued after a worker crash (a single request can
    /// count more than once if it crashes several workers).
    pub retried: usize,
    /// Worker evaluation panics caught (injected or real).
    pub panics: usize,
    /// Worker restarts after a caught panic.
    pub respawns: usize,
}

impl StatsSnapshot {
    /// Mean positions per fused engine call.
    pub fn mean_batch_positions(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.positions as f64 / self.batches as f64
        }
    }
}

/// What a completed request hands back: the submitted positions, the
/// caller's filled output blocks, and the instant the worker finished
/// (stamped service-side so latency measurement does not charge the
/// submitter's reaping delay).
pub type Completed<T, O> = (PosBlock<T>, BatchOut<O>, Instant);

/// How a request resolved, as stored in its completion slot.
enum Outcome<T: Real, O> {
    Done(Completed<T, O>),
    Failed {
        error: ServiceError,
        pos: PosBlock<T>,
        out: BatchOut<O>,
    },
}

/// Completion slot shared between a [`Ticket`] and the worker.
struct Done<T: Real, O> {
    slot: Mutex<Option<Outcome<T, O>>>,
    cv: Condvar,
}

impl<T: Real, O> Done<T, O> {
    fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, pos: PosBlock<T>, out: BatchOut<O>, at: Instant) {
        let mut slot = lock_recover(&self.slot);
        debug_assert!(slot.is_none(), "a request resolves once");
        *slot = Some(Outcome::Done((pos, out, at)));
        self.cv.notify_all();
    }

    /// Resolve the ticket to `error`, handing the caller's buffers back.
    fn fail(&self, error: ServiceError, pos: PosBlock<T>, out: BatchOut<O>) {
        let mut slot = lock_recover(&self.slot);
        debug_assert!(slot.is_none(), "a request resolves once");
        *slot = Some(Outcome::Failed { error, pos, out });
        self.cv.notify_all();
    }
}

/// Claim on an in-flight submission: redeem it with [`Ticket::redeem`]
/// to get the position block and filled output blocks back, or a typed
/// [`Failed`] carrying the same buffers if the service could not run it.
pub struct Ticket<T: Real, O> {
    done: Arc<Done<T, O>>,
}

impl<T: Real, O> Ticket<T, O> {
    /// Block until the request resolves. `Ok` carries the submitted
    /// positions, the caller's output blocks (now filled) and the
    /// instant the worker finished; `Err` is a typed [`Failed`] that
    /// hands the same buffers back unevaluated.
    pub fn redeem(self) -> Result<Completed<T, O>, Failed<T, O>> {
        self.redeem_inner(None)
    }

    /// [`Ticket::redeem`] bounded by a caller-side wait deadline: blocks
    /// at most `timeout`. On expiry the error is
    /// [`ServiceError::Timeout`] and the still-live claim comes back in
    /// [`Failed::ticket`] — the request is still in flight and the
    /// service still guarantees it resolves. A `timeout` too long for
    /// [`Instant`] to represent waits without bound, as
    /// [`Ticket::redeem`] does.
    pub fn redeem_for(self, timeout: Duration) -> Result<Completed<T, O>, Failed<T, O>> {
        self.redeem_inner(Instant::now().checked_add(timeout))
    }

    /// The unified wait path: one loop serves both the unbounded and
    /// the deadline-bounded redemption.
    fn redeem_inner(self, deadline: Option<Instant>) -> Result<Completed<T, O>, Failed<T, O>> {
        let mut slot = lock_recover(&self.done.slot);
        loop {
            match slot.take() {
                Some(Outcome::Done(r)) => return Ok(r),
                Some(Outcome::Failed { error, pos, out }) => {
                    return Err(Failed {
                        error,
                        pos: Some(pos),
                        out: Some(out),
                        ticket: None,
                    });
                }
                None => {}
            }
            match deadline {
                None => {
                    slot = self.done.cv.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        drop(slot);
                        return Err(Failed {
                            error: ServiceError::Timeout,
                            pos: None,
                            out: None,
                            ticket: Some(self),
                        });
                    }
                    let (guard, _timeout) = self
                        .done
                        .cv
                        .wait_timeout(slot, d - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    slot = guard;
                }
            }
        }
    }

    /// Whether the request has already resolved (non-blocking).
    pub fn is_done(&self) -> bool {
        lock_recover(&self.done.slot).is_some()
    }
}

struct Request<T: Real, O> {
    kernel: Kernel,
    pos: PosBlock<T>,
    out: Vec<O>,
    done: Arc<Done<T, O>>,
    /// Admission sequence number (the fault plan's clock).
    seq: usize,
    /// Worker crashes this request has survived so far.
    crashes: usize,
    /// Service-side deadline: shed (never evaluate) once passed.
    deadline: Option<Instant>,
}

impl<T: Real, O> Request<T, O> {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// Resolve this request's ticket to `error`, returning the caller's
    /// buffers through the completion slot.
    fn fail(self, error: ServiceError) {
        self.done.fail(error, self.pos, BatchOut::from_blocks(self.out));
    }
}

struct State<T: Real, O> {
    /// Admitted requests in submit order (crash retries go back to the
    /// front).
    queue: VecDeque<Request<T, O>>,
    /// Positions admitted but not yet evaluated (queued + coalescing) —
    /// the backpressure signal.
    pending_positions: usize,
    shutdown: bool,
}

struct Shared<T: Real, O> {
    state: Mutex<State<T, O>>,
    /// Signals workers: new work queued, or shutdown.
    work: Condvar,
    /// Signals submitters: pending positions dropped below the bound.
    space: Condvar,
    cfg: ServiceConfig,
    stats: Stats,
    /// Live worker count (decremented when a worker thread stops) —
    /// the health signal.
    live: AtomicUsize,
    /// Set once the last worker stopped outside a shutdown; submissions
    /// then resolve to [`ServiceError::ShuttingDown`] instead of
    /// queueing forever.
    failed: AtomicBool,
    faults: FaultState,
}

/// How a worker's loop ended: a clean shutdown drain, or a caught
/// evaluation crash (the batch has already been recovered/re-enqueued).
enum WorkerExit {
    Shutdown,
    Crashed,
}

/// The coalescing evaluation service. See the [module docs](self) for
/// the model, including the failure model.
pub struct SpoService<T: Real, E: SpoEngine<T> + 'static>
where
    E::Out: 'static,
{
    shared: Arc<Shared<T, E::Out>>,
    engine: Arc<E>,
    /// One handle per worker thread; shutdown joins them once.
    workers: Vec<JoinHandle<()>>,
}

impl<T: Real, E: SpoEngine<T> + 'static> SpoService<T, E>
where
    E::Out: 'static,
{
    /// Move `engine` behind a shared `Arc` and spawn `cfg.replicas`
    /// worker threads.
    ///
    /// The workers' SIMD backend is read here, once, and pinned: a
    /// service built inside a [`with_backend`](crate::simd::with_backend)
    /// force evaluates with that backend for its whole lifetime,
    /// including after a worker restarts from a caught panic.
    pub fn new(engine: E, cfg: ServiceConfig) -> Self {
        Self::with_fault_plan(engine, cfg, ServiceFaultPlan::none())
    }

    /// [`SpoService::new`] with a scripted [`ServiceFaultPlan`] —
    /// fault-injection entry point for tests, the chaos suite, and the
    /// degraded-mode benchmark rows.
    pub fn with_fault_plan(engine: E, cfg: ServiceConfig, plan: ServiceFaultPlan) -> Self {
        assert!(cfg.replicas > 0, "ServiceConfig::replicas must be positive");
        assert!(cfg.max_batch > 0, "ServiceConfig::max_batch must be positive");
        assert!(cfg.queue_positions > 0, "ServiceConfig::queue_positions must be positive");
        let engine = Arc::new(engine);
        let backend = simd::active_backend();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                pending_positions: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            cfg,
            stats: Stats::default(),
            live: AtomicUsize::new(cfg.replicas),
            failed: AtomicBool::new(false),
            faults: FaultState::new(plan, cfg.replicas),
        });
        let workers = (0..cfg.replicas)
            .map(|slot| spawn_worker(Arc::clone(&engine), backend, slot, Arc::clone(&shared)))
            .collect();
        Self {
            shared,
            engine,
            workers,
        }
    }

    /// The shared engine (configuration queries, buffer allocation).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The service configuration.
    pub fn config(&self) -> ServiceConfig {
        self.shared.cfg
    }

    /// Liveness of the worker pool.
    pub fn health(&self) -> ServiceHealth {
        if self.shared.failed.load(Ordering::Relaxed) {
            ServiceHealth::Failed
        } else if self.shared.live.load(Ordering::Relaxed) < self.shared.cfg.replicas {
            ServiceHealth::Degraded
        } else {
            ServiceHealth::Healthy
        }
    }

    /// Currently live worker threads (≤ configured replicas).
    pub fn live_workers(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.shared.stats;
        StatsSnapshot {
            requests: s.requests.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            positions: s.positions.load(Ordering::Relaxed),
            coalesced: s.coalesced.load(Ordering::Relaxed),
            spilled: 0,
            stolen: 0,
            shed: s.shed.load(Ordering::Relaxed),
            retried: s.retried.load(Ordering::Relaxed),
            panics: s.panics.load(Ordering::Relaxed),
            respawns: s.respawns.load(Ordering::Relaxed),
        }
    }

    /// The one submission path behind [`SpoService::submit`] and
    /// [`SpoService::submit_with_deadline`].
    fn submit_inner(
        &self,
        kernel: Kernel,
        pos: PosBlock<T>,
        out: BatchOut<E::Out>,
        deadline: Option<Instant>,
    ) -> Ticket<T, E::Out> {
        check_batch(pos.len(), out.len());
        let done = Arc::new(Done::new());
        if pos.is_empty() {
            // Nothing to evaluate: complete immediately, never queue.
            done.complete(pos, out, Instant::now());
            return Ticket { done };
        }
        let seq = self.shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // Already past deadline: shed before touching the queue.
            self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            done.fail(ServiceError::Shed, pos, out);
            return Ticket { done };
        }
        let mut st = lock_recover(&self.shared.state);
        loop {
            assert!(!st.shutdown, "submit on a shut-down SpoService");
            if self.shared.failed.load(Ordering::Relaxed) {
                // Every worker is gone and none is coming back: resolve
                // instead of queueing a request nobody will run.
                drop(st);
                done.fail(ServiceError::ShuttingDown, pos, out);
                return Ticket { done };
            }
            // Admit when under the bound — or unconditionally when the
            // service is idle, so one request larger than the whole
            // bound cannot deadlock.
            if st.pending_positions == 0
                || st.pending_positions + pos.len() <= self.shared.cfg.queue_positions
            {
                break;
            }
            match deadline {
                None => {
                    st = self.shared.space.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        // Deadline passed while blocked on backpressure:
                        // shed without ever queueing.
                        drop(st);
                        self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                        done.fail(ServiceError::Shed, pos, out);
                        return Ticket { done };
                    }
                    let (guard, _timeout) = self
                        .shared
                        .space
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    st = guard;
                }
            }
        }
        st.pending_positions += pos.len();
        st.queue.push_back(Request {
            kernel,
            pos,
            out: out.into_blocks(),
            done: Arc::clone(&done),
            seq,
            crashes: 0,
            deadline,
        });
        drop(st);
        self.shared.work.notify_one();
        Ticket { done }
    }

    /// Enqueue `pos` for `kernel`, handing the service the caller's
    /// output blocks (`out` needs one block per position; extra blocks
    /// ride along untouched, matching the ragged-tail contract of the
    /// direct batched calls). Blocks while the queue is over its
    /// position bound. Panics if called after [`SpoService::shutdown`].
    pub fn submit(
        &self,
        kernel: Kernel,
        pos: PosBlock<T>,
        out: BatchOut<E::Out>,
    ) -> Ticket<T, E::Out> {
        self.submit_inner(kernel, pos, out, None)
    }

    /// [`SpoService::submit`] with a service-side deadline: if
    /// `deadline` passes while the request is still queued (or while
    /// the submitter is blocked on backpressure), the service sheds it
    /// — the ticket resolves to [`ServiceError::Shed`] with the
    /// caller's buffers — instead of evaluating stale work. Shedding
    /// happens strictly before evaluation, never mid-fuse, so every
    /// request that does complete is still bit-identical to the direct
    /// batch.
    pub fn submit_with_deadline(
        &self,
        kernel: Kernel,
        pos: PosBlock<T>,
        out: BatchOut<E::Out>,
        deadline: Instant,
    ) -> Ticket<T, E::Out> {
        self.submit_inner(kernel, pos, out, Some(deadline))
    }

    /// Drain every queued request and join the workers. Idempotent;
    /// also runs on drop. Every ticket issued before the call resolves
    /// (successfully for drained work, [`ServiceError::ShuttingDown`]
    /// for anything unrunnable).
    pub fn shutdown(&mut self) {
        lock_recover(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Safety net: if the last worker was killed during the drain,
        // its re-enqueued requests are still queued — resolve them
        // rather than strand the tickets.
        fail_all_queued(&self.shared);
    }
}

impl<T: Real, E: SpoEngine<T> + 'static> Drop for SpoService<T, E>
where
    E::Out: 'static,
{
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawn the worker thread for `slot`. The worker loop runs under an
/// outer `catch_unwind`, the safety net for panics *outside*
/// evaluation (e.g. the scripted Poison fault, which panics while
/// holding the state mutex); evaluation panics are caught closer in,
/// inside [`execute`], so the batch's buffers are recovered first.
/// After any crash the loop restarts in place with the same engine,
/// backend and slot — unless the fault plan killed the slot. When the
/// last worker stops outside a shutdown, the service turns
/// [`ServiceHealth::Failed`] and resolves everything still queued.
fn spawn_worker<T: Real, E: SpoEngine<T> + 'static>(
    engine: Arc<E>,
    backend: Backend,
    slot: usize,
    shared: Arc<Shared<T, E::Out>>,
) -> JoinHandle<()>
where
    E::Out: 'static,
{
    std::thread::Builder::new()
        .name(format!("spo-worker-{slot}"))
        .spawn(move || {
            loop {
                let exit =
                    catch_unwind(AssertUnwindSafe(|| worker_loop(&*engine, backend, slot, &shared)));
                if matches!(exit, Ok(WorkerExit::Shutdown)) {
                    break;
                }
                shared.stats.panics.fetch_add(1, Ordering::Relaxed);
                if shared.faults.is_killed(slot) {
                    break;
                }
                shared.stats.respawns.fetch_add(1, Ordering::Relaxed);
            }
            let last = shared.live.fetch_sub(1, Ordering::Relaxed) == 1;
            let shutdown = lock_recover(&shared.state).shutdown;
            if last && !shutdown {
                shared.failed.store(true, Ordering::Relaxed);
                fail_all_queued(&shared);
            }
            shared.work.notify_all();
            shared.space.notify_all();
        })
        .expect("spawn service worker")
}

/// Resolve every queued request to [`ServiceError::ShuttingDown`],
/// returning the callers' buffers. Tickets are failed after the state
/// lock drops (lock order: state before done-slots, never while both).
fn fail_all_queued<T: Real, O>(shared: &Shared<T, O>) {
    let mut doomed = Vec::new();
    {
        let mut st = lock_recover(&shared.state);
        while let Some(r) = st.queue.pop_front() {
            st.pending_positions -= r.pos.len();
            doomed.push(r);
        }
    }
    for r in doomed {
        r.fail(ServiceError::ShuttingDown);
    }
    shared.work.notify_all();
    shared.space.notify_all();
}

/// Pop the next *live* request off the queue: requests whose deadline
/// already passed are shed on the way (before evaluation, never
/// mid-fuse) and never returned.
fn pop_live<T: Real, O>(st: &mut State<T, O>, shared: &Shared<T, O>) -> Option<Request<T, O>> {
    let now = Instant::now();
    while let Some(r) = st.queue.pop_front() {
        if r.expired(now) {
            st.pending_positions -= r.pos.len();
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            shared.space.notify_all();
            r.fail(ServiceError::Shed);
        } else {
            return Some(r);
        }
    }
    None
}

/// One service worker: pop → coalesce → evaluate → complete, until
/// shutdown (or until an evaluation crash, which re-enqueues the batch
/// and returns so [`spawn_worker`] can restart the loop).
fn worker_loop<T: Real, E: SpoEngine<T>>(
    engine: &E,
    backend: Backend,
    slot: usize,
    shared: &Shared<T, E::Out>,
) -> WorkerExit {
    // Reused across batches: the fused position block (reserve keeps
    // the splice allocation-free in steady state).
    let mut fused_pos = PosBlock::<T>::new();
    loop {
        let mut st = lock_recover(&shared.state);
        // The scripted lock-held fault: panics with the state mutex
        // poisoned; every later lock_recover recovers the guard.
        shared
            .faults
            .maybe_poison(slot, shared.stats.requests.load(Ordering::Relaxed));
        // Seed a batch from the queue head (or exit once the queue is
        // drained after shutdown — in-flight work always completes).
        let first = loop {
            if let Some(r) = pop_live(&mut st, shared) {
                break r;
            }
            if st.shutdown {
                return WorkerExit::Shutdown;
            }
            st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
        };
        let kernel = first.kernel;
        let mut total = first.pos.len();
        let mut batch = vec![first];
        // `None`: `max_wait` runs past what `Instant` can hold, so the
        // wait has no bound and only a full batch or shutdown ends it.
        let deadline = Instant::now().checked_add(shared.cfg.max_wait);
        // Coalesce: splice in every queued same-kernel request, waiting
        // (bounded by max_wait) for more while the batch is partial.
        // Other kernels stay queued for the next worker. Expired
        // requests found during the scan are shed, not fused.
        loop {
            let now = Instant::now();
            let mut i = 0;
            while i < st.queue.len() && total < shared.cfg.max_batch {
                if st.queue[i].kernel == kernel {
                    let r = st.queue.remove(i).expect("index in bounds");
                    if r.expired(now) {
                        st.pending_positions -= r.pos.len();
                        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                        r.fail(ServiceError::Shed);
                    } else {
                        total += r.pos.len();
                        batch.push(r);
                    }
                } else {
                    i += 1;
                }
            }
            if total >= shared.cfg.max_batch || st.shutdown {
                break;
            }
            st = match deadline {
                None => shared.work.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(d) if now >= d => break,
                Some(d) => {
                    shared
                        .work
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
        // The batch leaves the queue but its positions stay counted
        // (pending) until evaluated, so the backpressure bound covers
        // coalescing and in-flight work too.
        st.pending_positions -= total;
        drop(st);
        shared.space.notify_all();
        match execute(engine, backend, slot, batch, total, &mut fused_pos, shared) {
            Ok(()) => {}
            Err(recovered) => {
                requeue_after_crash(shared, recovered);
                return WorkerExit::Crashed;
            }
        }
    }
}

/// Evaluate one coalesced batch and complete every member request.
///
/// Evaluation runs under `catch_unwind`: on a panic (injected or real)
/// the fused output blocks are un-fused and reattached to their
/// requests — contents unspecified, but every caller buffer recovered —
/// and the whole batch comes back as `Err` for re-enqueue.
fn execute<T: Real, E: SpoEngine<T>>(
    engine: &E,
    backend: Backend,
    slot: usize,
    mut batch: Vec<Request<T, E::Out>>,
    total: usize,
    fused_pos: &mut PosBlock<T>,
    shared: &Shared<T, E::Out>,
) -> Result<(), Vec<Request<T, E::Out>>> {
    let stats = &shared.stats;
    let (kernel, seq0) = (batch[0].kernel, batch[0].seq);
    if batch.len() == 1 {
        // Single-request fast path: evaluate straight into the caller's
        // blocks, no splice.
        let mut req = batch.pop().expect("one request");
        let mut out = BatchOut::from_blocks(std::mem::take(&mut req.out));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shared.faults.before_eval(slot, req.seq);
            simd::with_backend(backend, || engine.eval_batch(kernel, &req.pos, &mut out));
        }));
        return match outcome {
            Ok(()) => {
                stats.batches.fetch_add(1, Ordering::Relaxed);
                stats.positions.fetch_add(total, Ordering::Relaxed);
                req.done.complete(req.pos, out, Instant::now());
                Ok(())
            }
            Err(_) => {
                req.out = out.into_blocks();
                Err(batch.drain(..).chain(std::iter::once(req)).collect())
            }
        };
    }
    // Fuse: splice positions, move each caller's first pos.len() output
    // blocks into one BatchOut (extra ragged-tail blocks are parked and
    // reattached untouched).
    fused_pos.clear();
    fused_pos.reserve(total);
    let mut blocks: Vec<E::Out> = Vec::with_capacity(total);
    let mut extras: Vec<Vec<E::Out>> = Vec::with_capacity(batch.len());
    for req in &mut batch {
        fused_pos.extend_from_block(&req.pos);
        let mut mine = std::mem::take(&mut req.out);
        extras.push(mine.split_off(req.pos.len()));
        blocks.append(&mut mine);
    }
    let mut fused_out = BatchOut::from_blocks(blocks);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        shared.faults.before_eval(slot, seq0);
        simd::with_backend(backend, || engine.eval_batch(kernel, fused_pos, &mut fused_out));
    }));
    let mut rest = fused_out.into_blocks();
    match outcome {
        Ok(()) => {
            stats.batches.fetch_add(1, Ordering::Relaxed);
            stats.positions.fetch_add(total, Ordering::Relaxed);
            stats.coalesced.fetch_add(batch.len(), Ordering::Relaxed);
            // Unfuse: hand each request its own blocks back in submit
            // order.
            for (req, extra) in batch.into_iter().zip(extras) {
                let tail = rest.split_off(req.pos.len());
                let mut mine = std::mem::replace(&mut rest, tail);
                mine.extend(extra);
                req.done
                    .complete(req.pos, BatchOut::from_blocks(mine), Instant::now());
            }
            debug_assert!(rest.is_empty(), "every output block returned");
            Ok(())
        }
        Err(_) => {
            // Crash recovery: un-fuse the (possibly half-written)
            // blocks back onto their requests so no caller buffer is
            // lost; a retry overwrites the contents anyway.
            for (req, extra) in batch.iter_mut().zip(extras) {
                let tail = rest.split_off(req.pos.len());
                let mut mine = std::mem::replace(&mut rest, tail);
                mine.extend(extra);
                req.out = mine;
            }
            debug_assert!(rest.is_empty(), "every output block recovered");
            Err(batch)
        }
    }
}

/// Put a crashed batch back: each request re-enqueues at the *front* of
/// the queue (aged work keeps its place) with a bumped crash
/// count — unless its deadline has passed (shed) or its retry budget is
/// spent ([`ServiceError::WorkerLost`]).
fn requeue_after_crash<T: Real, O>(shared: &Shared<T, O>, batch: Vec<Request<T, O>>) {
    let now = Instant::now();
    let mut doomed: Vec<(Request<T, O>, ServiceError)> = Vec::new();
    {
        let mut st = lock_recover(&shared.state);
        // Reverse iteration + push_front preserves submit order at the
        // head of the queue.
        for mut r in batch.into_iter().rev() {
            r.crashes += 1;
            if r.expired(now) {
                shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                doomed.push((r, ServiceError::Shed));
            } else if r.crashes > shared.cfg.max_retries {
                let retries = r.crashes - 1;
                doomed.push((r, ServiceError::WorkerLost { retries }));
            } else {
                shared.stats.retried.fetch_add(1, Ordering::Relaxed);
                st.pending_positions += r.pos.len();
                st.queue.push_front(r);
            }
        }
    }
    for (r, e) in doomed {
        r.fail(e);
    }
    shared.work.notify_all();
    shared.space.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::BsplineSoA;
    use einspline::{Grid1, MultiCoefs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn soa(n: usize) -> BsplineSoA<f32> {
        let g = Grid1::periodic(0.0, 1.0, 6);
        let mut m = MultiCoefs::<f32>::new(g, g, g, n);
        m.fill_random(&mut StdRng::seed_from_u64(23));
        BsplineSoA::new(m)
    }

    fn block(ns: usize, seed: u64) -> PosBlock<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        PosBlock::random(&mut rng, ns, [(0.0, 1.0); 3])
    }

    /// Spin until `f` is true or ~2s pass (worker restarts are
    /// asynchronous; tests must not race them).
    fn eventually(f: impl Fn() -> bool) -> bool {
        for _ in 0..2000 {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        f()
    }

    #[test]
    fn single_submission_matches_direct_batch() {
        let engine = soa(24);
        let pos = block(5, 1);
        let mut direct = engine.make_batch_out(5);
        engine.eval_batch(Kernel::Vgh, &pos, &mut direct);

        let service = SpoService::new(soa(24), ServiceConfig::default());
        let out = service.engine().make_batch_out(5);
        let (_, got, _) = service.submit(Kernel::Vgh, pos, out).redeem().unwrap();
        for p in 0..5 {
            for n in 0..24 {
                assert_eq!(
                    direct.block(p).value(n),
                    got.block(p).value(n),
                    "p={p} n={n}"
                );
            }
        }
    }

    #[test]
    fn empty_submission_completes_immediately() {
        let service = SpoService::new(soa(8), ServiceConfig::default());
        let ticket = service.submit(
            Kernel::V,
            PosBlock::new(),
            BatchOut::from_blocks(Vec::new()),
        );
        assert!(ticket.is_done());
        let (pos, out, _) = ticket.redeem().unwrap();
        assert!(pos.is_empty() && out.is_empty());
        assert_eq!(service.stats().requests, 0, "empty requests never queue");
    }

    #[test]
    fn coalesced_submissions_return_each_callers_blocks() {
        // Submissions outnumbering max_batch force at least one fused
        // call; every caller must get exactly its own positions back.
        let engine = soa(16);
        let service = SpoService::new(
            engine,
            ServiceConfig {
                replicas: 1,
                max_batch: 8,
                max_wait: Duration::from_millis(5),
                queue_positions: 64,
                ..ServiceConfig::default()
            },
        );
        let tickets: Vec<_> = (0..6)
            .map(|i| {
                let pos = block(3, 100 + i as u64);
                let out = service.engine().make_batch_out(3);
                (pos.clone(), service.submit(Kernel::Vgl, pos, out))
            })
            .collect();
        for (sent, ticket) in tickets {
            let (pos, out, _) = ticket.redeem().unwrap();
            assert_eq!(pos.len(), 3);
            assert_eq!(out.len(), 3);
            for i in 0..3 {
                assert_eq!(pos.get(i), sent.get(i), "positions round-trip");
            }
        }
        let stats = service.stats();
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.positions, 18);
        assert!(stats.batches <= 6);
    }

    #[test]
    fn ragged_tail_blocks_ride_along_untouched() {
        let service = SpoService::new(soa(8), ServiceConfig::default());
        let pos = block(2, 9);
        // 4 blocks for 2 positions: the extra 2 must come back.
        let out = service.engine().make_batch_out(4);
        let (_, got, _) = service.submit(Kernel::V, pos, out).redeem().unwrap();
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn shutdown_drains_in_flight_work() {
        let mut service = SpoService::new(
            soa(12),
            ServiceConfig {
                replicas: 2,
                max_batch: 64,
                max_wait: Duration::from_millis(50),
                ..ServiceConfig::default()
            },
        );
        let tickets: Vec<_> = (0..8)
            .map(|i| {
                let pos = block(2, i);
                let out = service.engine().make_batch_out(2);
                service.submit(Kernel::Vgh, pos, out)
            })
            .collect();
        service.shutdown();
        for t in tickets {
            let (pos, out, _) = t.redeem().expect("shutdown drains, never strands");
            assert_eq!(pos.len(), 2);
            assert!(out.len() >= 2);
        }
    }

    #[test]
    #[should_panic(expected = "shut-down SpoService")]
    fn submit_after_shutdown_panics() {
        let mut service = SpoService::new(soa(4), ServiceConfig::default());
        service.shutdown();
        let out = service.engine().make_batch_out(1);
        service.submit(Kernel::V, block(1, 0), out);
    }

    #[test]
    fn service_error_display_is_stable() {
        assert!(ServiceError::Timeout.to_string().contains("in flight"));
        assert!(ServiceError::Shed.to_string().contains("shed"));
        assert!(ServiceError::WorkerLost { retries: 2 }
            .to_string()
            .contains("2 retries"));
        assert!(ServiceError::ShuttingDown.to_string().contains("stopped"));
    }

    #[test]
    fn past_deadline_submission_sheds_before_queueing() {
        let service = SpoService::new(soa(8), ServiceConfig::default());
        let out = service.engine().make_batch_out(2);
        let deadline = Instant::now() - Duration::from_millis(1);
        let ticket = service.submit_with_deadline(Kernel::V, block(2, 3), out, deadline);
        let failed = ticket.redeem().unwrap_err();
        assert_eq!(failed.error, ServiceError::Shed);
        assert_eq!(failed.pos.map(|p| p.len()), Some(2), "positions returned");
        assert_eq!(failed.out.map(|o| o.len()), Some(2), "blocks returned");
        let stats = service.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.requests, 1, "shed submissions still count");
        assert_eq!(stats.batches, 0, "never evaluated");
    }

    #[test]
    fn panic_fault_is_retried_and_worker_respawned() {
        let engine = soa(16);
        let pos = block(4, 11);
        let mut direct = engine.make_batch_out(4);
        engine.eval_batch(Kernel::Vgl, &pos, &mut direct);

        let service = SpoService::with_fault_plan(
            soa(16),
            ServiceConfig::default(),
            ServiceFaultPlan {
                faults: vec![ServiceFault::Panic {
                    worker: 0,
                    at_request: 0,
                }],
            },
        );
        let out = service.engine().make_batch_out(4);
        let (_, got, _) = service
            .submit(Kernel::Vgl, pos, out)
            .redeem()
            .expect("retried after the crash");
        for p in 0..4 {
            for n in 0..16 {
                assert_eq!(
                    direct.block(p).value(n),
                    got.block(p).value(n),
                    "retried result bit-identical, p={p} n={n}"
                );
            }
        }
        assert!(eventually(|| service.stats().respawns >= 1));
        let stats = service.stats();
        assert!(stats.panics >= 1, "crash was counted");
        assert!(stats.retried >= 1, "batch was re-enqueued");
        assert!(eventually(|| service.health() == ServiceHealth::Healthy));
    }

    #[test]
    fn kill_fault_degrades_service_but_survivor_completes() {
        let service = SpoService::with_fault_plan(
            soa(8),
            ServiceConfig {
                replicas: 2,
                max_wait: Duration::from_micros(50),
                ..ServiceConfig::default()
            },
            ServiceFaultPlan {
                faults: vec![ServiceFault::Kill {
                    worker: 0,
                    at_request: 0,
                }],
            },
        );
        // Keep submitting until slot 0 has evaluated (and died); every
        // ticket still completes on the survivor via retry.
        let mut rounds = 0u64;
        while service.health() == ServiceHealth::Healthy && rounds < 200 {
            let tickets: Vec<_> = (0..8u64)
                .map(|i| {
                    let out = service.engine().make_batch_out(2);
                    service.submit(Kernel::V, block(2, rounds * 8 + i), out)
                })
                .collect();
            for t in tickets {
                t.redeem().expect("survivor completes retried work");
            }
            rounds += 1;
        }
        assert!(eventually(|| service.health() == ServiceHealth::Degraded));
        assert_eq!(service.live_workers(), 1);
        assert_eq!(service.stats().respawns, 0, "killed slots stay down");
    }

    #[test]
    fn all_workers_killed_fails_the_service() {
        let service = SpoService::with_fault_plan(
            soa(8),
            ServiceConfig {
                replicas: 1,
                max_retries: 0,
                ..ServiceConfig::default()
            },
            ServiceFaultPlan {
                faults: vec![ServiceFault::Kill {
                    worker: 0,
                    at_request: 0,
                }],
            },
        );
        let out = service.engine().make_batch_out(3);
        let failed = service
            .submit(Kernel::Vgh, block(3, 5), out)
            .redeem()
            .unwrap_err();
        assert_eq!(failed.error, ServiceError::WorkerLost { retries: 0 });
        assert_eq!(failed.pos.map(|p| p.len()), Some(3));
        assert!(eventually(|| service.health() == ServiceHealth::Failed));
        // Later submissions resolve instead of queueing forever.
        let out = service.engine().make_batch_out(1);
        let failed = service
            .submit(Kernel::V, block(1, 6), out)
            .redeem()
            .unwrap_err();
        assert_eq!(failed.error, ServiceError::ShuttingDown);
    }

    #[test]
    fn last_worker_killed_with_work_queued_fails_every_ticket() {
        // The stall holds the only worker on request 0 while the other
        // five queue behind it; the kill then stops the worker for good,
        // so request 0 is lost and everything queued must resolve too.
        let mut service = SpoService::with_fault_plan(
            soa(8),
            ServiceConfig {
                replicas: 1,
                max_batch: 1,
                max_retries: 0,
                ..ServiceConfig::default()
            },
            ServiceFaultPlan {
                faults: vec![
                    ServiceFault::Stall {
                        worker: 0,
                        at_request: 0,
                        ms: 50,
                    },
                    ServiceFault::Kill {
                        worker: 0,
                        at_request: 0,
                    },
                ],
            },
        );
        let tickets: Vec<_> = (0..6)
            .map(|i| {
                let out = service.engine().make_batch_out(1);
                service.submit(Kernel::V, block(1, 20 + i), out)
            })
            .collect();
        let errors: Vec<ServiceError> = tickets
            .into_iter()
            .map(|t| {
                let failed = t.redeem().unwrap_err();
                assert_eq!(failed.pos.map(|p| p.len()), Some(1), "positions returned");
                assert_eq!(failed.out.map(|o| o.len()), Some(1), "blocks returned");
                failed.error
            })
            .collect();
        let count = |e: ServiceError| errors.iter().filter(|&&x| x == e).count();
        assert_eq!(count(ServiceError::WorkerLost { retries: 0 }), 1, "{errors:?}");
        assert_eq!(count(ServiceError::ShuttingDown), 5, "{errors:?}");
        assert_eq!(service.health(), ServiceHealth::Failed);
        let stats = service.stats();
        assert_eq!((stats.panics, stats.respawns), (1, 0));
        service.shutdown();
    }

    #[test]
    fn retry_budget_exhaustion_resolves_worker_lost() {
        let service = SpoService::with_fault_plan(
            soa(8),
            ServiceConfig {
                replicas: 1,
                max_retries: 1,
                ..ServiceConfig::default()
            },
            ServiceFaultPlan {
                // Two one-shot panics on the same slot: the worker
                // crashes once before and once after its restart.
                faults: vec![
                    ServiceFault::Panic {
                        worker: 0,
                        at_request: 0,
                    },
                    ServiceFault::Panic {
                        worker: 0,
                        at_request: 0,
                    },
                ],
            },
        );
        let out = service.engine().make_batch_out(2);
        let failed = service
            .submit(Kernel::V, block(2, 7), out)
            .redeem()
            .unwrap_err();
        assert_eq!(failed.error, ServiceError::WorkerLost { retries: 1 });
        assert!(eventually(|| service.stats().panics == 2));
        assert_eq!(service.stats().retried, 1, "one re-enqueue before giving up");
        // The second restart leaves the service healthy again.
        assert!(eventually(|| service.health() == ServiceHealth::Healthy));
        let out = service.engine().make_batch_out(2);
        service
            .submit(Kernel::V, block(2, 8), out)
            .redeem()
            .expect("faults exhausted; service recovered");
    }

    #[test]
    fn stall_fault_delays_but_completes() {
        let service = SpoService::with_fault_plan(
            soa(8),
            ServiceConfig::default(),
            ServiceFaultPlan {
                faults: vec![ServiceFault::Stall {
                    worker: 0,
                    at_request: 0,
                    ms: 20,
                }],
            },
        );
        let start = Instant::now();
        let out = service.engine().make_batch_out(2);
        service
            .submit(Kernel::V, block(2, 9), out)
            .redeem()
            .expect("a stall is not a failure");
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(service.stats().panics, 0);
    }

    #[test]
    fn poison_then_recover_keeps_evaluating() {
        let engine = soa(12);
        let pos = block(3, 13);
        let mut direct = engine.make_batch_out(3);
        engine.eval_batch(Kernel::V, &pos, &mut direct);

        let service = SpoService::with_fault_plan(
            soa(12),
            ServiceConfig::default(),
            ServiceFaultPlan {
                faults: vec![ServiceFault::Poison {
                    worker: 0,
                    at_request: 0,
                }],
            },
        );
        // The poison fires as soon as worker 0 wakes with the state
        // mutex held; the restarted worker recovers the poisoned lock.
        assert!(eventually(|| service.stats().respawns >= 1));
        let out = service.engine().make_batch_out(3);
        let (_, got, _) = service
            .submit(Kernel::V, pos, out)
            .redeem()
            .expect("recovered lock still serves");
        for p in 0..3 {
            for n in 0..12 {
                assert_eq!(direct.block(p).value(n), got.block(p).value(n), "p={p} n={n}");
            }
        }
    }

    #[test]
    fn redeem_for_times_out_then_ticket_still_resolves() {
        let service = SpoService::new(
            soa(8),
            ServiceConfig {
                max_wait: Duration::from_millis(100),
                ..ServiceConfig::default()
            },
        );
        let out = service.engine().make_batch_out(1);
        let ticket = service.submit(Kernel::V, block(1, 2), out);
        match ticket.redeem_for(Duration::from_micros(1)) {
            // Fast machine: already done — fine.
            Ok((pos, _, _)) => assert_eq!(pos.len(), 1),
            Err(failed) => {
                assert_eq!(failed.error, ServiceError::Timeout);
                assert!(failed.pos.is_none() && failed.out.is_none());
                let ticket = failed.ticket.expect("the claim comes back");
                let (pos, _, _) = ticket.redeem().expect("still in flight, still completes");
                assert_eq!(pos.len(), 1);
            }
        }
    }

    #[test]
    fn redeem_for_a_timeout_past_instant_waits_without_bound() {
        let service = SpoService::new(soa(8), ServiceConfig::default());
        let out = service.engine().make_batch_out(2);
        let (pos, _, _) = service
            .submit(Kernel::V, block(2, 30), out)
            .redeem_for(Duration::MAX)
            .expect("an unbounded wait resolves like redeem");
        assert_eq!(pos.len(), 2);
    }

    #[test]
    fn max_wait_past_instant_coalesces_without_bound() {
        // A full batch evaluates at once; a partial one waits for more
        // same-kernel work with no bound, until shutdown drains it.
        let mut service = SpoService::new(
            soa(8),
            ServiceConfig {
                max_batch: 4,
                max_wait: Duration::MAX,
                queue_positions: 4,
                ..ServiceConfig::default()
            },
        );
        for seed in 0..2 {
            let out = service.engine().make_batch_out(4);
            let (pos, _, _) = service
                .submit(Kernel::V, block(4, 40 + seed), out)
                .redeem_for(Duration::from_secs(3))
                .expect("a full batch resolves, and frees its queue positions");
            assert_eq!(pos.len(), 4);
        }
        let out = service.engine().make_batch_out(1);
        let partial = service.submit(Kernel::V, block(1, 42), out);
        let failed = partial
            .redeem_for(Duration::from_millis(20))
            .expect_err("a partial batch waits for more work");
        assert_eq!(failed.error, ServiceError::Timeout);
        service.shutdown();
        let (pos, _, _) = failed
            .ticket
            .expect("the claim comes back")
            .redeem()
            .expect("shutdown drains the partial batch");
        assert_eq!(pos.len(), 1);
        let stats = service.stats();
        assert_eq!((stats.panics, stats.respawns), (0, 0));
    }
}
