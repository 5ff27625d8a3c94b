//! Long-lived engine replicas: engine ownership decoupled from the
//! thread pool.
//!
//! The fork-join entry point in this crate borrows an engine per call
//! (`run_nested_blocked(&engine, …)`): the engine lives on the caller's
//! stack and the fork-join workers borrow it for one generation. The
//! service model ([`crate::service`]) inverts that — worker threads own
//! their evaluation context for the lifetime of the service — and the
//! ROADMAP's NUMA replica routing needs several such contexts over one
//! shared table. This module is the ownership substrate for both:
//!
//! * [`EngineCell`] — a shared, immutable engine (`Arc` under the hood)
//!   from which any number of replica handles can be minted;
//! * [`Replica`] — one long-lived handle: the engine reference plus the
//!   **SIMD backend pinned at mint time** and a routing id. A worker
//!   that owns a `Replica` re-arms the thread-local backend itself
//!   ([`Replica::run`]) instead of relying on the submitting thread's
//!   state, so a service worker evaluates with the backend that was
//!   active when the service was built — which is what makes forced
//!   scalar/SIMD A/B measurement work across the submission boundary.
//!
//! The engine behind a cell is immutable (all evaluation methods take
//! `&self`), so replicas never contend on anything but the shared
//! read-only coefficient table — the same sharing model the fork-join
//! paths always had, now with an owner whose lifetime is not one call.

use crate::simd::{self, Backend};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A shared immutable engine from which long-lived [`Replica`] handles
/// are minted.
///
/// Cloning the cell is cheap (it clones the `Arc`); clones mint from
/// the same id sequence, so every replica of one logical engine gets a
/// distinct id regardless of which clone minted it. That property is
/// what the service's supervisor leans on: respawning a crashed worker
/// mints a *fresh* replica (new id, same domain tag) from the same
/// cell, so a respawn is distinguishable from the worker it replaced
/// while keeping its routing affinity.
#[derive(Debug)]
pub struct EngineCell<E> {
    inner: Arc<E>,
    next_id: Arc<AtomicUsize>,
}

impl<E> Clone for EngineCell<E> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
            next_id: Arc::clone(&self.next_id),
        }
    }
}

impl<E> EngineCell<E> {
    /// Take ownership of `engine` and make it mintable.
    pub fn new(engine: E) -> Self {
        Self {
            inner: Arc::new(engine),
            next_id: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Borrow the shared engine directly (configuration queries,
    /// `make_out` allocation — anything that need not re-arm a SIMD
    /// backend).
    pub fn engine(&self) -> &E {
        &self.inner
    }

    /// Mint one replica handle. The handle captures the **currently
    /// active** SIMD backend ([`simd::active_backend`]), so minting
    /// inside a [`simd::with_backend`] force pins that force into the
    /// replica for its whole lifetime — on whatever thread it later
    /// evaluates.
    pub fn handle(&self) -> Replica<E> {
        self.handle_for_domain(0)
    }

    /// Mint one replica handle keyed to NUMA `domain` — the shard the
    /// routed service steers this replica's batches toward. Same
    /// backend-pinning contract as [`EngineCell::handle`].
    pub fn handle_for_domain(&self, domain: usize) -> Replica<E> {
        Replica {
            engine: Arc::clone(&self.inner),
            backend: simd::active_backend(),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            domain,
        }
    }

    /// Mint `n` replica handles (service worker startup).
    pub fn handles(&self, n: usize) -> Vec<Replica<E>> {
        (0..n).map(|_| self.handle()).collect()
    }

    /// Replica handles ever minted from this cell (across all clones).
    /// A count above the initial worker pool means the supervisor has
    /// re-minted replicas for crashed workers.
    pub fn minted(&self) -> usize {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Mint `n` replica handles spread round-robin over `n_domains`
    /// NUMA domains (replica `i` serves domain `i % n_domains`) — the
    /// per-shard replica set the routed service workers own. With one
    /// domain this is exactly [`EngineCell::handles`].
    pub fn handles_for_domains(&self, n: usize, n_domains: usize) -> Vec<Replica<E>> {
        assert!(n_domains > 0, "need at least one domain");
        (0..n).map(|i| self.handle_for_domain(i % n_domains)).collect()
    }
}

/// A long-lived handle to a shared engine: the replica a service worker
/// owns for its lifetime.
///
/// Dereferences to the engine; evaluation should run inside
/// [`Replica::run`] so the pinned SIMD backend is armed on the
/// evaluating thread.
#[derive(Debug)]
pub struct Replica<E> {
    engine: Arc<E>,
    backend: Backend,
    id: usize,
    domain: usize,
}

impl<E> Clone for Replica<E> {
    fn clone(&self) -> Self {
        Self {
            engine: Arc::clone(&self.engine),
            backend: self.backend,
            id: self.id,
            domain: self.domain,
        }
    }
}

impl<E> std::ops::Deref for Replica<E> {
    type Target = E;

    fn deref(&self) -> &E {
        &self.engine
    }
}

impl<E> Replica<E> {
    /// Routing id (mint order within the cell): stable for the handle's
    /// lifetime.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The NUMA domain this replica serves
    /// ([`EngineCell::handle_for_domain`]; 0 for plain handles) — the
    /// home shard the routed service's worker drains first.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// The SIMD backend pinned at mint time.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Run `f` with the replica's pinned backend armed on the current
    /// thread (the worker-side analogue of the fork-join paths' re-arm).
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        simd::with_backend(self.backend, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SpoEngine;
    use crate::soa::BsplineSoA;
    use einspline::{Grid1, MultiCoefs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn soa(n: usize) -> BsplineSoA<f32> {
        let g = Grid1::periodic(0.0, 1.0, 6);
        let mut m = MultiCoefs::<f32>::new(g, g, g, n);
        m.fill_random(&mut StdRng::seed_from_u64(5));
        BsplineSoA::new(m)
    }

    #[test]
    fn handles_share_one_engine_with_distinct_ids() {
        let cell = EngineCell::new(soa(16));
        let a = cell.handle();
        let clone = cell.clone();
        let b = clone.handle();
        assert_eq!(a.id(), 0);
        assert_eq!(b.id(), 1, "clones mint from one id sequence");
        assert_eq!(a.n_splines(), 16);
        assert!(std::ptr::eq(cell.engine(), &*b));
        assert_eq!(cell.handles(3).len(), 3);
        assert_eq!(cell.minted(), 5, "every handle counts, across clones");
    }

    #[test]
    fn domain_minting_spreads_round_robin() {
        let cell = EngineCell::new(soa(8));
        assert_eq!(cell.handle().domain(), 0);
        let spread = cell.handles_for_domains(5, 2);
        let domains: Vec<usize> = spread.iter().map(|r| r.domain()).collect();
        assert_eq!(domains, vec![0, 1, 0, 1, 0]);
        // Ids still mint from the one shared sequence.
        assert!(spread.windows(2).all(|w| w[0].id() < w[1].id()));
        // Single-domain spread is the plain handles() shape.
        assert!(cell.handles_for_domains(3, 1).iter().all(|r| r.domain() == 0));
    }

    #[test]
    fn replica_pins_the_mint_time_backend() {
        use crate::simd::{with_backend, Backend};
        let cell = EngineCell::new(soa(8));
        let pinned = with_backend(Backend::Scalar, || cell.handle());
        assert_eq!(pinned.backend(), Backend::Scalar);
        // The pin survives outside the force and re-arms inside run().
        assert_eq!(
            pinned.run(crate::simd::active_backend),
            Backend::Scalar
        );
        // A handle minted outside the force keeps the default backend.
        let free = cell.handle();
        assert_eq!(free.backend(), crate::simd::active_backend());
    }

    #[test]
    fn replica_evaluates_like_the_borrowed_engine() {
        let engine = soa(24);
        let cell = EngineCell::new(engine);
        let replica = cell.handle();
        let mut direct = cell.engine().make_out();
        cell.engine().vgh([0.3, 0.6, 0.9], &mut direct);
        let mut via = replica.make_out();
        replica.run(|| replica.vgh([0.3, 0.6, 0.9], &mut via));
        for n in 0..24 {
            assert_eq!(direct.value(n), via.value(n), "n={n}");
            assert_eq!(direct.hessian(n), via.hessian(n), "n={n}");
        }
    }
}
