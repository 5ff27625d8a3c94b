//! SPOSet: the bridge between B-spline engines (fractional grid
//! coordinates) and QMC (Cartesian positions in a general cell).
//!
//! Splines are stored on the unit cube of *fractional* coordinates
//! (paper Sec. VI: the grid simulates periodic images of the primitive
//! cell). For a Cartesian position `r`, `u = r·A⁻¹` is evaluated and the
//! derivatives are pulled back: `∇ᵣ = G ∇ᵤ`, `Hᵣ = G Hᵤ Gᵀ` with
//! `G = A⁻¹`. Graphite's hexagonal cell is why the drift-diffusion phase
//! needs VGH rather than VGL (the Laplacian is `tr(G Hᵤ Gᵀ)`, not the
//! trace of `Hᵤ`).

use crate::lattice::Lattice;
use bspline::blocked::BlockedEngine;
use bspline::service::{ClientConfig, ServiceClient, ServiceConfig, SpoService};
use bspline::{BatchOut, BsplineSoA, Kernel, MoveContext, PosBlock, SpoEngine, WalkerSoA};
use einspline::{MultiCoefs, Real};
use std::sync::Arc;

/// Orbital values + Cartesian gradients + Laplacians for one position —
/// the determinant-facing view, in `f64`.
#[derive(Clone, Debug)]
pub struct SpoVgl {
    /// Orbital value stream.
    pub v: Vec<f64>,
    /// Gradient x-component stream.
    pub gx: Vec<f64>,
    /// Gradient y-component stream.
    pub gy: Vec<f64>,
    /// Gradient z-component stream.
    pub gz: Vec<f64>,
    /// Lap.
    pub lap: Vec<f64>,
}

impl SpoVgl {
    fn zeros(n: usize) -> Self {
        Self {
            v: vec![0.0; n],
            gx: vec![0.0; n],
            gy: vec![0.0; n],
            gz: vec![0.0; n],
            lap: vec![0.0; n],
        }
    }
}

/// A set of N single-particle orbitals over a periodic cell.
///
/// `T` is the *orbital* (storage + kernel) precision; everything this
/// type hands to QMC — values, Cartesian gradients, Laplacians — is
/// delivered and accumulated in the paired accumulation precision
/// `T::Accum = f64` (see [`einspline::Real::Accum`]), regardless of
/// whether the orbital tables are `f32` or `f64`. This is the
/// mixed-precision contract: storage precision is a bandwidth knob,
/// never an observable-accuracy knob.
///
/// `E` is the orbital *engine*: any [`SpoEngine`] with contiguous SoA
/// outputs. The default is the monolithic [`BsplineSoA`]; QMC-scale
/// runs construct from the cache-budget orbital-block decomposition
/// instead ([`SpoSet::new_blocked`] → [`BlockedEngine`]), which changes
/// nothing downstream — blocked outputs scatter into the same
/// contiguous [`WalkerSoA`] streams the pull-back reads.
#[derive(Clone, Debug)]
pub struct SpoSet<T: Real, E: SpoEngine<T, Out = WalkerSoA<T>> = BsplineSoA<T>> {
    engine: E,
    lattice: Lattice,
    /// `G = A⁻¹` (Cartesian→fractional Jacobian).
    g: [[f64; 3]; 3],
    /// Metric `M = GᵀG` used for the Laplacian pull-back.
    metric: [[f64; 3]; 3],
    scratch: WalkerSoA<T>,
    out: SpoVgl,
    /// Batched-sweep scratch: per-electron engine outputs + position
    /// block, grown on demand and reused across sweeps.
    batch_scratch: BatchOut<WalkerSoA<T>>,
    batch_pos: PosBlock<T>,
    batch_rows: Vec<SpoVgl>,
    /// Per-walker single-electron move state: the cached locate/weights
    /// the propose (`evaluate_v_one`) and accept (`evaluate_vgl_one`)
    /// sides of one move share.
    move_ctx: MoveContext<T>,
}

impl<T: Real<Accum = f64>> SpoSet<T> {
    /// Wrap a coefficient table whose grids span the unit cube in the
    /// default monolithic SoA engine.
    pub fn new(coefs: MultiCoefs<T>, lattice: Lattice) -> Self {
        Self::with_engine(BsplineSoA::new(coefs), lattice)
    }
}

impl<T: Real<Accum = f64>> SpoSet<T, BlockedEngine<BsplineSoA<T>>> {
    /// Construct from the cache-budget orbital-block decomposition
    /// ([`BlockedEngine::from_multi`], first-touch parallel block
    /// construction included): the QMC-scale path where one table of N
    /// orbitals is served by `⌈N·slab/budget⌉` independent cache-sized
    /// blocks. Use [`bspline::tuning::default_block_budget`] (table
    /// size in, budget out) for the budget.
    pub fn new_blocked(coefs: MultiCoefs<T>, lattice: Lattice, budget_bytes: usize) -> Self {
        Self::with_engine(BlockedEngine::from_multi(&coefs, budget_bytes), lattice)
    }
}

impl<T: Real<Accum = f64>> SpoSet<T, ServiceClient<T, BsplineSoA<T>>> {
    /// Construct service-backed: the orbital engine is owned by a
    /// [`SpoService`]'s long-lived workers, and every evaluation this
    /// set performs is a service submission — coalescable with other
    /// walkers' submissions to the same service. Results are
    /// bit-identical to the direct [`SpoSet::new`] path (fusing never
    /// splits a per-orbital accumulation chain).
    pub fn new_service(coefs: MultiCoefs<T>, lattice: Lattice, cfg: ServiceConfig) -> Self {
        let service = Arc::new(SpoService::new(BsplineSoA::new(coefs), cfg));
        Self::with_service(service, lattice)
    }

    /// Wrap an existing shared service (several `SpoSet`s — one per
    /// walker stream — submitting to one service is the coalescing
    /// scenario the service exists for). Uses the default
    /// [`ClientConfig`] failure policy: bounded retry with backoff and
    /// health-gated fallback to direct evaluation, so the driver keeps
    /// producing physics when replicas die.
    pub fn with_service(
        service: Arc<SpoService<T, BsplineSoA<T>>>,
        lattice: Lattice,
    ) -> Self {
        Self::with_service_client(service, lattice, ClientConfig::default())
    }

    /// [`SpoSet::with_service`] with an explicit client failure policy
    /// — deadline per submission, retry budget, fallback gating.
    pub fn with_service_client(
        service: Arc<SpoService<T, BsplineSoA<T>>>,
        lattice: Lattice,
        client_cfg: ClientConfig,
    ) -> Self {
        Self::with_engine(ServiceClient::with_config(service, client_cfg), lattice)
    }
}

impl<T: Real<Accum = f64>, E: SpoEngine<T, Out = WalkerSoA<T>>> SpoSet<T, E> {
    /// Wrap any SoA-output engine whose domain spans the unit cube of
    /// fractional coordinates.
    pub fn with_engine(engine: E, lattice: Lattice) -> Self {
        assert_eq!(
            engine.domain(),
            [(0.0, 1.0); 3],
            "SPO splines live on fractional coordinates"
        );
        let n = engine.n_splines();
        let g = lattice.jacobian();
        let mut metric = [[0.0; 3]; 3];
        for b in 0..3 {
            for c in 0..3 {
                for ga in g.iter() {
                    metric[b][c] += ga[b] * ga[c];
                }
            }
        }
        let scratch = engine.make_out();
        Self {
            engine,
            lattice,
            g,
            metric,
            scratch,
            out: SpoVgl::zeros(n),
            batch_scratch: BatchOut::from_blocks(Vec::new()),
            batch_pos: PosBlock::new(),
            batch_rows: Vec::new(),
            move_ctx: MoveContext::new(),
        }
    }

    #[inline]
    /// N orbitals.
    pub fn n_orbitals(&self) -> usize {
        self.engine.n_splines()
    }

    #[inline]
    /// Lattice.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Direct access to the underlying engine (benchmarks).
    #[inline]
    pub fn engine(&self) -> &E {
        &self.engine
    }

    fn frac_pos(&self, r: [f64; 3]) -> [T; 3] {
        let u = self.lattice.to_frac(r);
        [T::from_f64(u[0]), T::from_f64(u[1]), T::from_f64(u[2])]
    }

    /// Orbital values at Cartesian `r` (kernel V).
    pub fn evaluate_v(&mut self, r: [f64; 3]) -> &[f64] {
        let u = self.frac_pos(r);
        self.engine.v(u, &mut self.scratch);
        let n = self.n_orbitals();
        for k in 0..n {
            self.out.v[k] = self.scratch.value(k).to_accum();
        }
        &self.out.v[..n]
    }

    /// Values + Cartesian gradients + Laplacians at `r` (kernel VGH +
    /// pull-back). Returns the filled view.
    pub fn evaluate_vgl(&mut self, r: [f64; 3]) -> &SpoVgl {
        let u = self.frac_pos(r);
        self.engine.vgh(u, &mut self.scratch);
        let n = self.n_orbitals();
        Self::pull_back(&self.g, &self.metric, n, &self.scratch, &mut self.out);
        &self.out
    }

    /// Orbital values at `r` through the single-electron fast path
    /// ([`SpoEngine::v_one`]): the grid locate + basis weights for the
    /// fractional position are cached in this walker's move context, so
    /// the accept-side [`Self::evaluate_vgl_one`] at the *same* `r`
    /// reuses them without recomputation. Bit-identical to
    /// [`Self::evaluate_v`].
    pub fn evaluate_v_one(&mut self, r: [f64; 3]) -> &[f64] {
        let u = self.frac_pos(r);
        self.engine.v_one(&mut self.move_ctx, u, &mut self.scratch);
        let n = self.n_orbitals();
        for k in 0..n {
            self.out.v[k] = self.scratch.value(k).to_accum();
        }
        &self.out.v[..n]
    }

    /// Values + Cartesian gradients + Laplacians at `r` through the
    /// single-electron fast path: the engine runs the VGH kernel
    /// ([`SpoEngine::vgh_one`] — the hexagonal-cell Laplacian pull-back
    /// needs the full Hessian) over the locate/weights cached by a
    /// prior [`Self::evaluate_v_one`] at the same position. Bit-identical
    /// to [`Self::evaluate_vgl`].
    pub fn evaluate_vgl_one(&mut self, r: [f64; 3]) -> &SpoVgl {
        let u = self.frac_pos(r);
        self.engine.vgh_one(&mut self.move_ctx, u, &mut self.scratch);
        let n = self.n_orbitals();
        Self::pull_back(&self.g, &self.metric, n, &self.scratch, &mut self.out);
        &self.out
    }

    /// Pull one engine output block back to Cartesian coordinates:
    /// `∇ᵣ = G ∇ᵤ`, `lap = Σ_bc M[b][c]·Hᵤ[b][c]` (Hᵤ symmetric,
    /// 6 streams).
    fn pull_back(
        g: &[[f64; 3]; 3],
        m: &[[f64; 3]; 3],
        n: usize,
        scratch: &WalkerSoA<T>,
        out: &mut SpoVgl,
    ) {
        for k in 0..n {
            out.v[k] = scratch.value(k).to_accum();
            let gu = scratch.gradient(k);
            let gu = [gu[0].to_accum(), gu[1].to_accum(), gu[2].to_accum()];
            out.gx[k] = g[0][0] * gu[0] + g[0][1] * gu[1] + g[0][2] * gu[2];
            out.gy[k] = g[1][0] * gu[0] + g[1][1] * gu[1] + g[1][2] * gu[2];
            out.gz[k] = g[2][0] * gu[0] + g[2][1] * gu[1] + g[2][2] * gu[2];
            let h = scratch.hessian(k);
            let h = [
                h[0].to_accum(),
                h[1].to_accum(),
                h[2].to_accum(),
                h[3].to_accum(),
                h[4].to_accum(),
                h[5].to_accum(),
            ];
            out.lap[k] = m[0][0] * h[0]
                + m[1][1] * h[3]
                + m[2][2] * h[5]
                + 2.0 * (m[0][1] * h[1] + m[0][2] * h[2] + m[1][2] * h[4]);
        }
    }

    /// Grow and fill the batched-sweep scratch for `rs.len()` positions.
    fn prepare_batch(&mut self, rs: &[[f64; 3]]) {
        self.batch_pos.clear();
        for &r in rs {
            let u = self.frac_pos(r);
            self.batch_pos.push(u);
        }
        let n = self.n_orbitals();
        self.batch_scratch.ensure(rs.len(), || WalkerSoA::new(n));
        while self.batch_rows.len() < rs.len() {
            self.batch_rows.push(SpoVgl::zeros(n));
        }
    }

    /// Orbital values for a whole block of Cartesian positions (kernel V
    /// batched): row `e` of the result holds position `e`'s values (only
    /// the `v` stream is filled). One engine call per block; scratch is
    /// reused across sweeps.
    pub fn evaluate_v_batch(&mut self, rs: &[[f64; 3]]) -> &[SpoVgl] {
        self.prepare_batch(rs);
        self.engine.eval_batch(Kernel::V, &self.batch_pos, &mut self.batch_scratch);
        let n = self.n_orbitals();
        for (e, row) in self.batch_rows.iter_mut().take(rs.len()).enumerate() {
            let scratch = self.batch_scratch.block(e);
            for k in 0..n {
                row.v[k] = scratch.value(k).to_accum();
            }
        }
        &self.batch_rows[..rs.len()]
    }

    /// The multi-electron VGH sweep: values + Cartesian gradients +
    /// Laplacians for every position of the block — one batched engine
    /// call (`eval_batch` with `Kernel::Vgh`) followed by the per-row
    /// pull-back. This is what the VMC/DMC drift-diffusion machinery
    /// consumes to get all electrons' drift gradients and kinetic
    /// Laplacians at once.
    pub fn evaluate_vgl_batch(&mut self, rs: &[[f64; 3]]) -> &[SpoVgl] {
        self.prepare_batch(rs);
        self.engine.eval_batch(Kernel::Vgh, &self.batch_pos, &mut self.batch_scratch);
        let n = self.n_orbitals();
        for (e, row) in self.batch_rows.iter_mut().take(rs.len()).enumerate() {
            Self::pull_back(
                &self.g,
                &self.metric,
                n,
                self.batch_scratch.block(e),
                row,
            );
        }
        &self.batch_rows[..rs.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use einspline::{Grid1, Spline3};
    use std::f64::consts::PI;

    /// Build an SpoSet over `lat` with analytically known orbitals
    /// (plane-wave-like smooth periodic functions of the fractional
    /// coordinates).
    fn build(lat: Lattice, ng: usize, n_orb: usize) -> SpoSet<f64> {
        let g = Grid1::periodic(0.0, 1.0, ng);
        let mut coefs = MultiCoefs::<f64>::new(g, g, g, n_orb);
        for s in 0..n_orb {
            let kx = 1 + (s % 2);
            let ky = 1 + (s / 2);
            let mut data = vec![0.0; ng * ng * ng];
            for i in 0..ng {
                for j in 0..ng {
                    for k in 0..ng {
                        let (x, y, z) = (
                            i as f64 / ng as f64,
                            j as f64 / ng as f64,
                            k as f64 / ng as f64,
                        );
                        data[(i * ng + j) * ng + k] = (2.0 * PI * kx as f64 * x).cos()
                            * (2.0 * PI * ky as f64 * y).sin()
                            + 0.3 * (2.0 * PI * z).cos()
                            + 1.7;
                    }
                }
            }
            let sp = Spline3::<f64>::interpolate(g, g, g, &data);
            coefs.set_orbital(s, &sp);
        }
        SpoSet::new(coefs, lat)
    }

    #[test]
    fn values_match_analytic_in_hexagonal_cell() {
        let lat = Lattice::hexagonal(3.0, 7.0);
        let mut spo = build(lat, 24, 3);
        let r = lat.to_cart([0.31, 0.62, 0.13]);
        let v = spo.evaluate_v(r).to_vec();
        let u = [0.31, 0.62, 0.13];
        for (s, val) in v.iter().enumerate() {
            let kx = (1 + s % 2) as f64;
            let ky = (1 + s / 2) as f64;
            let expect = (2.0 * PI * kx * u[0]).cos() * (2.0 * PI * ky * u[1]).sin()
                + 0.3 * (2.0 * PI * u[2]).cos()
                + 1.7;
            assert!((val - expect).abs() < 5e-4, "s={s}: {val} vs {expect}");
        }
    }

    #[test]
    fn cartesian_gradient_matches_finite_difference() {
        let lat = Lattice::hexagonal(2.5, 6.0);
        let mut spo = build(lat, 32, 2);
        let r = lat.to_cart([0.4, 0.3, 0.6]);
        let h = 1e-5;
        let out = spo.evaluate_vgl(r).clone();
        for d in 0..3 {
            let mut rp = r;
            rp[d] += h;
            let vp = spo.evaluate_v(rp).to_vec();
            let mut rm = r;
            rm[d] -= h;
            let vm = spo.evaluate_v(rm).to_vec();
            for k in 0..2 {
                let fd = (vp[k] - vm[k]) / (2.0 * h);
                let an = [out.gx[k], out.gy[k], out.gz[k]][d];
                assert!((an - fd).abs() < 1e-4, "d={d} k={k}: {an} vs {fd}");
            }
        }
    }

    #[test]
    fn cartesian_laplacian_matches_finite_difference() {
        let lat = Lattice::hexagonal(2.5, 6.0);
        let mut spo = build(lat, 32, 2);
        let r = lat.to_cart([0.21, 0.55, 0.37]);
        let h = 2e-4;
        let out = spo.evaluate_vgl(r).clone();
        let v0 = spo.evaluate_v(r).to_vec();
        let mut lap_fd = [0.0; 2];
        for d in 0..3 {
            let mut rp = r;
            rp[d] += h;
            let vp = spo.evaluate_v(rp).to_vec();
            let mut rm = r;
            rm[d] -= h;
            let vm = spo.evaluate_v(rm).to_vec();
            for k in 0..2 {
                lap_fd[k] += (vp[k] - 2.0 * v0[k] + vm[k]) / (h * h);
            }
        }
        for k in 0..2 {
            let rel = (out.lap[k] - lap_fd[k]).abs() / lap_fd[k].abs().max(1.0);
            assert!(rel < 5e-2, "k={k}: {} vs {}", out.lap[k], lap_fd[k]);
        }
    }

    #[test]
    fn orthorhombic_cell_laplacian_is_plain_trace() {
        // For a diagonal lattice the metric is diag(1/L²), so the
        // pull-back must equal scaling each Hessian diagonal.
        let lat = Lattice::orthorhombic(2.0, 3.0, 4.0);
        let mut spo = build(lat, 16, 1);
        let r = lat.to_cart([0.3, 0.3, 0.3]);
        let out = spo.evaluate_vgl(r).clone();
        let u = [0.3f64, 0.3, 0.3];
        let mut scratch = WalkerSoA::<f64>::new(1);
        spo.engine().vgh(u, &mut scratch);
        let h = scratch.hessian(0);
        let expect = h[0] / 4.0 + h[3] / 9.0 + h[5] / 16.0;
        assert!((out.lap[0] - expect).abs() < 1e-10);
    }

    #[test]
    fn batched_sweep_matches_scalar_evaluations() {
        let lat = Lattice::hexagonal(2.5, 6.0);
        let mut spo = build(lat, 16, 3);
        let rs: Vec<[f64; 3]> = [
            [0.11, 0.42, 0.83],
            [0.57, 0.24, 0.39],
            [0.91, 0.66, 0.05],
            [0.33, 0.78, 0.52],
        ]
        .iter()
        .map(|u| lat.to_cart(*u))
        .collect();

        let scalar: Vec<SpoVgl> =
            rs.iter().map(|&r| spo.evaluate_vgl(r).clone()).collect();
        let batch = spo.evaluate_vgl_batch(&rs).to_vec();
        assert_eq!(batch.len(), rs.len());
        for (e, (s, b)) in scalar.iter().zip(&batch).enumerate() {
            for k in 0..3 {
                assert_eq!(s.v[k], b.v[k], "e={e} k={k}");
                assert_eq!(s.gx[k], b.gx[k]);
                assert_eq!(s.gy[k], b.gy[k]);
                assert_eq!(s.gz[k], b.gz[k]);
                assert_eq!(s.lap[k], b.lap[k]);
            }
        }

        let v_scalar: Vec<Vec<f64>> =
            rs.iter().map(|&r| spo.evaluate_v(r).to_vec()).collect();
        let v_batch = spo.evaluate_v_batch(&rs).to_vec();
        for (e, (s, b)) in v_scalar.iter().zip(&v_batch).enumerate() {
            assert_eq!(s.as_slice(), &b.v[..3], "e={e}");
        }
    }

    #[test]
    fn batched_sweep_scratch_grows_and_shrinks_view() {
        let lat = Lattice::cubic(4.0);
        let mut spo = build(lat, 12, 2);
        let big: Vec<[f64; 3]> = (0..6)
            .map(|i| lat.to_cart([0.1 * i as f64, 0.3, 0.5]))
            .collect();
        assert_eq!(spo.evaluate_vgl_batch(&big).len(), 6);
        // Smaller follow-up sweep reuses the grown scratch.
        assert_eq!(spo.evaluate_vgl_batch(&big[..2]).len(), 2);
        // Empty sweep is a no-op.
        assert!(spo.evaluate_vgl_batch(&[]).is_empty());
    }

    /// Bit for bit on a fused backend: under the unfused SSE2 pack a
    /// block boundary moves orbitals into the kernels' fused one-lane
    /// tail (tolerance-bounded in `tests/integration_blocked.rs`), so
    /// that leg runs this on the scalar pack.
    #[test]
    fn blocked_spo_set_matches_monolithic_bit_for_bit() {
        use bspline::simd::{active_backend, with_backend, Backend};
        let active = active_backend();
        let fused = if active.is_fused() { active } else { Backend::Scalar };
        with_backend(fused, blocked_vs_monolithic);
    }

    fn blocked_vs_monolithic() {
        let lat = Lattice::hexagonal(2.5, 6.0);
        let mut mono = build(lat, 16, 5);
        // Rebuild the same coefficients for the blocked path.
        let coefs = {
            let spo = build(lat, 16, 5);
            spo.engine().coefs().clone()
        };
        // Budget of 1 byte floors to one cache-line quantum (8 f64
        // splines) per block: a 5-orbital table still decomposes (B=1
        // here); use a wider table for a real multi-block split.
        let mut blocked = SpoSet::new_blocked(coefs, lat, 1);
        let rs: Vec<[f64; 3]> = [[0.11, 0.42, 0.83], [0.57, 0.24, 0.39]]
            .iter()
            .map(|u| lat.to_cart(*u))
            .collect();
        for &r in &rs {
            let a = mono.evaluate_vgl(r).clone();
            let b = blocked.evaluate_vgl(r).clone();
            for k in 0..5 {
                assert_eq!(a.v[k], b.v[k], "k={k}");
                assert_eq!(a.gx[k], b.gx[k]);
                assert_eq!(a.lap[k], b.lap[k]);
            }
        }
        // Batched sweep parity through the blocked engine.
        let am = mono.evaluate_vgl_batch(&rs).to_vec();
        let ab = blocked.evaluate_vgl_batch(&rs).to_vec();
        for (e, (x, y)) in am.iter().zip(&ab).enumerate() {
            for k in 0..5 {
                assert_eq!(x.v[k], y.v[k], "e={e} k={k}");
                assert_eq!(x.lap[k], y.lap[k]);
            }
        }
        assert!(blocked.engine().n_blocks() >= 1);
    }

    #[test]
    fn service_backed_spo_set_matches_direct_bit_for_bit() {
        use bspline::service::ServiceConfig;
        use std::time::Duration;
        let lat = Lattice::hexagonal(2.5, 6.0);
        let mut direct = build(lat, 16, 4);
        let coefs = {
            let spo = build(lat, 16, 4);
            spo.engine().coefs().clone()
        };
        let mut served = SpoSet::new_service(
            coefs,
            lat,
            ServiceConfig {
                replicas: 2,
                max_batch: 8,
                max_wait: Duration::from_micros(50),
                queue_positions: 64,
                ..ServiceConfig::default()
            },
        );
        let rs: Vec<[f64; 3]> = [[0.11, 0.42, 0.83], [0.57, 0.24, 0.39], [0.91, 0.66, 0.05]]
            .iter()
            .map(|u| lat.to_cart(*u))
            .collect();
        // Scalar path (single-position submissions).
        for &r in &rs {
            let a = direct.evaluate_vgl(r).clone();
            let b = served.evaluate_vgl(r).clone();
            for k in 0..4 {
                assert_eq!(a.v[k], b.v[k], "k={k}");
                assert_eq!(a.gx[k], b.gx[k]);
                assert_eq!(a.lap[k], b.lap[k]);
            }
        }
        // Batched sweep (whole-block submission).
        let am = direct.evaluate_vgl_batch(&rs).to_vec();
        let ab = served.evaluate_vgl_batch(&rs).to_vec();
        for (e, (x, y)) in am.iter().zip(&ab).enumerate() {
            for k in 0..4 {
                assert_eq!(x.v[k], y.v[k], "e={e} k={k}");
                assert_eq!(x.gz[k], y.gz[k]);
                assert_eq!(x.lap[k], y.lap[k]);
            }
        }
        let av = direct.evaluate_v_batch(&rs).to_vec();
        let bv = served.evaluate_v_batch(&rs).to_vec();
        for (x, y) in av.iter().zip(&bv) {
            assert_eq!(&x.v[..4], &y.v[..4]);
        }
    }

    #[test]
    fn service_backed_spo_set_survives_replica_death() {
        use bspline::service::{ServiceFault, ServiceFaultPlan};
        use bspline::{BsplineSoA, SpoService};
        let lat = Lattice::hexagonal(2.5, 6.0);
        let mut direct = build(lat, 16, 4);
        let coefs = {
            let spo = build(lat, 16, 4);
            spo.engine().coefs().clone()
        };
        // One replica scripted to die on its first request and stay
        // dead: the client's health-gated fallback must keep the
        // SpoSet producing bit-identical physics.
        let service = Arc::new(SpoService::with_fault_plan(
            BsplineSoA::new(coefs),
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
        ));
        let mut served = SpoSet::with_service_client(service, lat, ClientConfig::default());
        let rs: Vec<[f64; 3]> = [[0.11, 0.42, 0.83], [0.57, 0.24, 0.39]]
            .iter()
            .map(|u| lat.to_cart(*u))
            .collect();
        let am = direct.evaluate_vgl_batch(&rs).to_vec();
        let ab = served.evaluate_vgl_batch(&rs).to_vec();
        for (e, (x, y)) in am.iter().zip(&ab).enumerate() {
            for k in 0..4 {
                assert_eq!(x.v[k], y.v[k], "e={e} k={k}");
                assert_eq!(x.lap[k], y.lap[k]);
            }
        }
        // The scalar path also keeps serving through the fallback.
        for &r in &rs {
            let a = direct.evaluate_vgl(r).clone();
            let b = served.evaluate_vgl(r).clone();
            for k in 0..4 {
                assert_eq!(a.v[k], b.v[k], "k={k}");
            }
        }
        assert!(
            served.engine().fallbacks() >= 1,
            "the direct path carried the physics"
        );
    }

    #[test]
    fn one_move_path_matches_scalar_bit_for_bit() {
        let lat = Lattice::hexagonal(2.5, 6.0);
        let mut spo = build(lat, 16, 3);
        let rs: Vec<[f64; 3]> = [[0.11, 0.42, 0.83], [0.57, 0.24, 0.39], [0.91, 0.66, 0.05]]
            .iter()
            .map(|u| lat.to_cart(*u))
            .collect();
        for &r in &rs {
            // Propose side: V through the move context...
            let v_one = spo.evaluate_v_one(r).to_vec();
            let v_scalar = spo.evaluate_v(r).to_vec();
            assert_eq!(v_scalar, v_one);
            // ...then the accept side reuses the cached weights (the
            // interleaved evaluate_v above did not touch the context).
            let one = spo.evaluate_vgl_one(r).clone();
            let scalar = spo.evaluate_vgl(r).clone();
            for k in 0..3 {
                assert_eq!(scalar.v[k], one.v[k], "k={k}");
                assert_eq!(scalar.gx[k], one.gx[k]);
                assert_eq!(scalar.gy[k], one.gy[k]);
                assert_eq!(scalar.gz[k], one.gz[k]);
                assert_eq!(scalar.lap[k], one.lap[k]);
            }
        }
    }

    #[test]
    fn periodic_positions_wrap() {
        let lat = Lattice::hexagonal(3.0, 7.0);
        let mut spo = build(lat, 16, 2);
        let r = lat.to_cart([0.2, 0.8, 0.5]);
        let shift = lat.to_cart([1.0, -1.0, 2.0]);
        let r2 = [r[0] + shift[0], r[1] + shift[1], r[2] + shift[2]];
        let v1 = spo.evaluate_v(r).to_vec();
        let v2 = spo.evaluate_v(r2).to_vec();
        for k in 0..2 {
            assert!((v1[k] - v2[k]).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "fractional")]
    fn non_unit_grids_rejected() {
        let g = Grid1::periodic(0.0, 2.0, 8);
        let coefs = MultiCoefs::<f64>::new(g, g, g, 2);
        let _ = SpoSet::new(coefs, Lattice::cubic(2.0));
    }
}
