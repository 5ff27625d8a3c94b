//! `bspline` — multi-orbital B-spline SPO evaluation engines.
//!
//! This crate is the primary contribution of *"Optimization and
//! parallelization of B-spline based orbital evaluations in QMC on
//! multi/many-core shared memory processors"* (Mathuriya, Luo, Benali,
//! Shulenburger, Kim — IPDPS 2017) rebuilt in portable Rust:
//!
//! | paper | here |
//! |---|---|
//! | `BsplineAoS` baseline (Fig. 4a) | [`aos::BsplineAoS`] |
//! | Opt A: AoS→SoA outputs (Fig. 4b) | [`soa::BsplineSoA`] |
//! | Opt B: AoSoA tiling (Fig. 5b/6) | [`aosoa::BsplineAoSoA`], i.e. [`blocked::BlockedEngine`] at a fixed width |
//! | Opt C: nested threading (Sec. V-C) | [`parallel::run_nested_blocked`] |
//! | orbital-block decomposition (Sec. IV, Fig. 9/10 substrate) | [`blocked::BlockedEngine`] |
//! | multi-walker batching (Fig. 6 loop order) | [`batch`] |
//! | explicit vectorization (Fig. 6–7, Table 4) | [`simd`] |
//!
//! The hot inner loops are explicit SIMD micro-kernels ([`simd`]):
//! a lane abstraction ([`simd::SimdReal`]) with AVX-512F and AVX2+FMA
//! `std::arch` backends plus a portable scalar-array fallback, selected
//! once at runtime by CPU detection (override with
//! `QMC_SIMD=avx512|avx2|scalar` for A/B testing). Every backend
//! performs the same fused elementwise operation chain, so all of them
//! are bit-identical to the portable reference and to each other (a
//! host without AVX2+FMA runs the scalar pack) — the paper's "high SIMD
//! efficiency on aligned, padded streams" realized with hand-written
//! kernels where auto-vectorization falls short (`mul_add` on a
//! baseline x86-64 target lowers to a libm call that blocks
//! vectorization).
//!
//! # One evaluation core, three views
//!
//! The paper's V, VGL and VGH are one loop nest that differs only in
//! the output streams it accumulates, and a scalar call, a batch and a
//! single-electron move differ only in where the located positions come
//! from. Every native engine therefore implements exactly **one**
//! kernel-tagged body over a slice of pre-located positions
//! ([`engine::EvalCore::eval_located`]) and [`engine::SpoEngine`]
//! derives the three position-level views from it in one place:
//!
//! | view | located positions | for |
//! |---|---|---|
//! | [`eval`](engine::SpoEngine::eval)`(kernel, pos, out)` | a slice of 1, fresh [`batch::Located::new`] | one position |
//! | [`eval_batch`](engine::SpoEngine::eval_batch)`(kernel, block, outs)` | [`batch::Located::block`] | a walker block (below) |
//! | [`eval_one`](engine::SpoEngine::eval_one)`(kernel, ctx, pos, out)` | a slice of 1 from the walker's [`onemove::MoveContext`] | one move (see "Per-move evaluation") |
//!
//! `v`/`vgl`/`vgh` and `v_one`/`vgl_one`/`vgh_one` are one-line sugar
//! for `eval`/`eval_one` with the kernel tag filled in. The same body
//! runs on the same floats, so the three views are **bit-identical** to
//! each other on every backend, which the workspace property tests
//! assert for all layouts and batch sizes including 0 and 1.
//!
//! ## Batched evaluation
//!
//! * **Block layout.** Positions travel as a [`batch::PosBlock`] — one
//!   unit-stride stream per coordinate (the SoA transformation applied
//!   to the *input* side). Results land in a [`batch::BatchOut`]: one
//!   per-position output block, indexable after the call.
//! * **Buffer ownership.** The *caller* owns the output allocation:
//!   [`engine::SpoEngine::make_batch_out`] allocates once, batched calls
//!   only overwrite. Drivers reuse one `BatchOut` across every
//!   generation (and across the ragged tail of a chunked stream — extra
//!   blocks are simply left untouched).
//! * **What the core hoists.** The grid cell and the three
//!   `BasisWeights` blocks are computed once per position, up front,
//!   and shared by every block of the engine. For
//!   [`aos::BsplineAoS`] the baseline's VGL scratch is allocated once
//!   per call, whatever the slice length.
//! * **Why the one tiled core is tile-major.** The AoSoA tiles are the
//!   blocks of [`blocked::BlockedEngine`], whose block loop is outside
//!   the position loop — the actual Fig. 6 order: one tile's
//!   `4·Ng·Nb` coefficient block and `Nb`-sized output stripes stay
//!   cache-hot for the whole slice, where a position-major sweep would
//!   re-fetch every tile per position. At a slice of 1 the same loop is
//!   simply "all tiles, next tile prefetched".
//!
//! # Threading & blocking model
//!
//! The scaling substrate (paper Sec. IV–V and Fig. 9/10) is the
//! **orbital-block decomposition** ([`blocked::BlockedEngine`]): one
//! logical table of N orbitals served by `B` independent spline blocks,
//! scheduled as a walker×block grid.
//!
//! * **Block-size derivation.** The block width is the widest multiple
//!   of the cache-line quantum (16 `f32` / 8 `f64` splines) whose
//!   standalone coefficient slab fits a byte budget
//!   ([`einspline::MultiCoefs::block_splines_for_budget`]). A slab's
//!   bytes are those of the table layout ([`einspline::TableLayout`]):
//!   `(gx+3)(gy+3)` z-rows of `(gz+3)` lines of `nb · sizeof(T)` bytes,
//!   each followed by the row pad chosen for that line length, so a
//!   slab is not linear in `nb`. The budget candidates are the cache
//!   hierarchy's natural levels ([`tuning::BlockBudgets`]): private L2,
//!   shared LLC divided by the worker count, and the whole table
//!   (`B = 1`, the monolithic degenerate case).
//!   [`tuning::default_block_budget`] is the policy — the whole table
//!   below the LLC, LLC/workers above it, so that a generation's
//!   positions re-touch a resident block slab. The super-LLC branch is
//!   not shown to pay on any recorded host (the last N = 2048 reading
//!   was 0.58× of monolithic; see its docs).
//! * **Nested schedule.** [`parallel::run_nested_blocked`] partitions
//!   the `B` blocks into `nth` contiguous chunks
//!   ([`parallel::partition_tiles`], non-empty chunks only) and crosses
//!   them with walkers; each `(walker, chunk)` work item owns a
//!   [`output::WalkerSoA::split_streams_mut`] view of its walker's
//!   contiguous output over the chunk's orbital range, so disjointness
//!   is borrow-checked — no atomics, no interior mutability. The
//!   grid-locate + basis weights are hoisted once per position and
//!   shared by all blocks. Worker counts come from
//!   `rayon::current_num_threads()`, pinnable via `QMC_THREADS` (CI
//!   runs the suite at 1 and 4).
//! * **First-touch rationale.** [`blocked::BlockedEngine::from_multi`]
//!   builds each block's table inside the same balanced static
//!   partition the nested schedule later uses, so each worker allocates
//!   *and writes* exactly the slabs it will stream — on a NUMA host,
//!   first-touch page placement puts a block's pages in the domain of
//!   the thread that reads them every generation. (Exact with a pinned
//!   rayon pool; approximated by the vendored scoped-thread stub.)
//! * **Prefetch distance.** The block-major batch loop issues
//!   `_mm_prefetch(T1)` for the sixteen (i,j) coefficient runs **one
//!   evaluation ahead**: the current block's next position while
//!   sweeping a block, the next block's first position at the block
//!   switch. One evaluation is `64·nb` coefficient reads — far enough
//!   for the lines (and their TLB entries) to arrive, close enough
//!   that they are not evicted before use (x86-64 only; no-op
//!   elsewhere).
//!
//! Blocked outputs are **bit-identical** to the monolithic engine on
//! fused backends for every block shape (the per-orbital operation
//! chain never crosses a block boundary); `tests/integration_blocked.rs`
//! property-tests this across kernels × backends × budgets × precisions
//! × scalar/batched/nested entry.
//!
//! # Service model
//!
//! The closed-loop entry points above borrow an engine per call. The
//! service layer ([`service`]) inverts the ownership for open-loop
//! workloads — many independent walker streams submitting at their own
//! pace:
//!
//! * **Ownership.** [`service::SpoService::new`] moves the engine
//!   behind one `Arc<E>` — the read-only table every worker shares, as
//!   in the paper's threading model — and spawns `replicas` long-lived
//!   worker threads that all serve **one** FIFO queue. Locality comes
//!   from that shared table, not from routing requests between queues.
//!   It pins the SIMD backend active at construction and every worker
//!   re-arms it for every batch (restarts included), so forced
//!   scalar/SIMD A/B measurement works across the submission boundary.
//! * **Coalescing policy.** Submissions carry a kernel tag. A worker
//!   seeds a batch from the queue head and splices every queued
//!   same-kernel request ([`batch::PosBlock::extend_from_block`]) into
//!   one fused block, up to `max_batch` positions; holding a *partial*
//!   batch it waits at most `max_wait` for stragglers before
//!   evaluating. Fusing never splits a per-orbital accumulation chain,
//!   so coalesced results are **bit-identical** to a direct `eval_batch`
//!   call on every backend (property-tested in
//!   `tests/integration_service.rs`).
//! * **Backpressure.** The queue admits at most `queue_positions`
//!   pending positions; [`service::SpoService::submit`] blocks until
//!   space frees (an oversized request is admitted only when the
//!   service is idle, so it cannot deadlock). Completion is zero-copy:
//!   the caller's [`batch::BatchOut`] blocks move into the fused engine
//!   call and come back filled through the [`service::Ticket`].
//!   Dropping the service drains every queued request before joining
//!   the workers.
//!
//! # Failure model
//!
//! The service layer is built to survive its own workers
//! ([`service`]'s module docs carry the full contract):
//!
//! * **Error taxonomy.** A submission's [`service::Ticket`] redeems to
//!   `Result<_, `[`service::Failed`]`>`; the failure carries a
//!   [`service::ServiceError`] — `Timeout` (the caller's wait bound in
//!   [`service::Ticket::redeem_for`] expired; the live claim is handed
//!   back), `Shed` (the request's own deadline from
//!   [`service::SpoService::submit_with_deadline`] passed while it
//!   queued), `WorkerLost` (the request crashed workers past its
//!   [`service::ServiceConfig::max_retries`] budget), `ShuttingDown`
//!   (the service stopped first) — plus the caller's position/output
//!   buffers, so no buffer is ever lost to a failure.
//! * **Retry & in-place restart.** Kernel evaluation runs under
//!   `catch_unwind`; a panicking batch is un-fused, its requests
//!   re-enqueued (front of queue, bounded by `max_retries`), and the
//!   worker restarts its loop on the same thread with the same engine
//!   and pinned backend. Load shedding is the deadline dual:
//!   expired requests are dropped *before* evaluation, never mid-fuse.
//! * **Bit-identity of successes.** Faults decide *whether* a request
//!   evaluates, never *how*: every successful result — retried,
//!   re-coalesced, degraded pool or not — is bit-identical to the
//!   direct `eval_batch` call (chaos-tested in
//!   `tests/integration_service_faults.rs` under scripted
//!   [`service::ServiceFaultPlan`]s).
//!
//! # Per-move evaluation
//!
//! Real VMC/DMC traffic is dominated by **single-electron** moves. A
//! driver whose proposals use drift evaluates the same position twice
//! per accepted move (V for the ratio test, then VGL/VGH for drift), and
//! each scalar call would re-run the grid locate and rebuild the basis
//! weights. The one-move view ([`engine::SpoEngine::eval_one`], state in
//! [`onemove`]) makes that propose→accept pair first-class. (`miniqmc`'s
//! VMC proposals are symmetric, so its wavefunction makes only the
//! propose-side `v_one` call and takes every electron's derivatives from
//! one VGH per electron per sweep, each read by the determinant at once.)
//!
//! ```text
//!   propose r'  ──►  v_one(ctx, r')        locate + weights computed,
//!                    │                     cached in ctx keyed by r'
//!                    ▼
//!               ratio = det ratio from V
//!                    │
//!        ┌───────────┴───────────┐
//!     accept                   reject
//!        │                        │
//!        ▼                        ▼
//!   vgl_one(ctx, r')         (nothing: the stale cache entry is
//!    │  cache HIT — locate    simply overwritten by the next
//!    │  + weights reused,     proposal's v_one)
//!    │  kernel only
//!    ▼
//!   rank-1 determinant update, drift from G
//! ```
//!
//! * **What is cached where.** A [`onemove::MoveContext`] lives with
//!   the *walker* (one per walker × engine): the hoisted
//!   [`batch::Located`] for the last proposed position (keyed by the
//!   exact floats) and a lazily built `f32` sub-context for
//!   [`precision::MixedEngine`] (positions narrow once per move).
//! * **No dedicated kernel.** A move runs the engine's one body over a
//!   slice of 1, exactly like a scalar call or a batch of one, and the
//!   SoA kernel walks that one position exactly as it walks each
//!   position of a batch (four packs a step for V; the kernel docs
//!   record why a look-ahead walk for a lone V does not pay). The
//!   blocked core prefetches the next block while the current one
//!   computes. The one adapter forwards the view:
//!   [`precision::MixedEngine`] narrows in / widens out per move with
//!   the `f32` sub-context.
//! * **Bit-identity.** The context only caches what a fresh
//!   [`batch::Located::new`] recomputes identically on the same floats,
//!   so one-move results are bit-identical to `eval` on every backend,
//!   cache hit or miss — property-tested in
//!   `tests/integration_onemove.rs` across layouts × backends ×
//!   precisions, including accept/reject sequences, grid-cell boundary
//!   positions and tables larger than an L2.
//!
//! # Precision model
//!
//! The crate supports three precision configurations, mirroring
//! QMCPACK's production setup (see [`precision`] for the full model and
//! the derived error budget):
//!
//! * **f64** — tables, kernels and outputs all double precision: the
//!   accuracy reference.
//! * **f32** — tables, kernels and outputs all single precision: the
//!   paper's benchmark configuration (`T = f32` engines over a
//!   [`einspline::MultiCoefs<f32>`] table).
//! * **mixed** — the production trade: coefficients *solved* in `f64`
//!   and *stored* in `f32` ([`einspline::MultiCoefs::downcast`]),
//!   kernels run in `f32` at full SIMD width (twice the lanes of the
//!   f64 path, half the coefficient bandwidth), and every output widens
//!   to `f64` at the engine boundary ([`precision::MixedEngine`], an
//!   [`engine::SpoEngine<f64>`] over any `f32` inner engine, all three
//!   views). Downstream reductions (miniqmc determinants, drift,
//!   kinetic energy) accumulate in `f64` — the
//!   [`einspline::Real::Accum`] contract.
//!
//! The f32/mixed deviation from the f64 reference is bounded by
//! [`precision::F32_REL_ERROR_BUDGET`] relative to the table's
//! [`precision::spline_scale`]; the bound is derived in the
//! [`precision`] module docs and enforced by
//! `tests/integration_precision.rs` across layouts × kernels × SIMD
//! backends × batch sizes, so the budget is a tested contract, not a
//! comment.
//!
//! # Quick example
//!
//! ```
//! use bspline::prelude::*;
//! use einspline::{Grid1, MultiCoefs};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // 48³-style grid (smaller here), 32 orbitals, random coefficients.
//! let g = Grid1::periodic(0.0, 1.0, 12);
//! let mut table = MultiCoefs::<f32>::new(g, g, g, 32);
//! table.fill_random(&mut StdRng::seed_from_u64(42));
//!
//! // Opt A+B: tiled SoA engine with Nb = 8.
//! let engine = BsplineAoSoA::from_multi(&table, 8);
//! let mut out = engine.make_out();
//! engine.vgh([0.3, 0.7, 0.1], &mut out);
//!
//! let value = out.value(5);
//! let grad = out.gradient(5);
//! let lap = out.hessian_trace(5);
//! assert!(value.is_finite() && grad[0].is_finite() && lap.is_finite());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// The 4-point tensor-product kernels use fixed-trip indexed loops on
// purpose (mirrors the paper's loop structure and vectorizes cleanly).
#![allow(clippy::needless_range_loop)]

pub mod aos;
pub mod aosoa;
pub mod batch;
pub mod blocked;
pub mod engine;
pub mod layout;
pub mod onemove;
pub mod output;
pub mod parallel;
pub mod precision;
pub mod service;
pub mod simd;
pub mod soa;
pub mod tuning;
pub mod walker;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::aos::BsplineAoS;
    pub use crate::aosoa::BsplineAoSoA;
    pub use crate::batch::{BatchOut, Located, PosBlock};
    pub use crate::blocked::BlockedEngine;
    pub use crate::engine::SpoEngine;
    pub use crate::layout::{Kernel, Layout, OptStep};
    pub use crate::onemove::MoveContext;
    pub use crate::output::{WalkerAoS, WalkerSoA};
    pub use crate::parallel::run_nested_blocked;
    pub use crate::precision::{MixedEngine, MixedOut, F32_REL_ERROR_BUDGET};
    pub use crate::service::{
        Failed, RoutingPolicy, ServiceConfig, ServiceError, ServiceFault, ServiceFaultPlan,
        ServiceHealth, SpoService, StatsSnapshot, Ticket,
    };
    pub use crate::simd::{active_backend, with_backend, Backend as SimdBackend};
    pub use crate::soa::BsplineSoA;
    pub use crate::tuning::{default_block_budget, BlockBudgets};
}

pub use aos::BsplineAoS;
pub use aosoa::BsplineAoSoA;
pub use batch::{BatchOut, PosBlock};
pub use blocked::BlockedEngine;
pub use engine::SpoEngine;
pub use layout::{Kernel, Layout, OptStep};
pub use onemove::MoveContext;
pub use output::{SoAStreamsMut, WalkerAoS, WalkerSoA};
pub use service::{
    Failed, ServiceConfig, ServiceError, ServiceFault, ServiceFaultPlan, ServiceHealth,
    SpoService, Ticket,
};
pub use soa::BsplineSoA;
