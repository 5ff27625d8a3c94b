//! The Slater–Jastrow trial wavefunction
//! `ΨT = exp(J1 + J2) · D↑ · D↓` (paper Eq. 1) and its
//! particle-by-particle move contract.
//!
//! Electrons are ordered spin-up first (`0..N`) then spin-down
//! (`N..2N`); both determinants share one SPO set (paper: `D↓ = D↑`).
//! Every method charges its work to the profiling categories so the VMC
//! driver reproduces the Table II–IV accounting. Full rebuilds and the
//! sweep-wide passes are timed on every call. The per-move calls
//! (`ratio`, then `accept` or `reject`) and the per-electron VGH and
//! determinant work of `log_derivs` are timed on one call in
//! [`SAMPLE_EVERY`](crate::drivers::profile::SAMPLE_EVERY) and charged
//! that many times over, so the profile is an estimate (see
//! [`crate::drivers::profile`]).

use crate::determinant::DiracDeterminant;
use crate::distance::soa::{DistanceTableAA, DistanceTableAB};
use crate::drivers::profile::{Category, Timers};
use crate::jastrow::{BsplineFunctor, JastrowDerivs, OneBodyJastrow, TwoBodyJastrow};
use crate::particleset::ParticleSet;
use crate::spo::SpoSet;
use einspline::Real;

/// Slater–Jastrow trial wavefunction over a two-spin electron set.
///
/// `T` is the orbital storage/kernel precision only. Every
/// wavefunction-level quantity — determinant builds and ratios
/// (`phi_new`), `log ΨT`, drift gradients, kinetic Laplacians
/// ([`Self::log_derivs`]) — is accumulated in `f64` regardless of `T`
/// (the SPO set widens its outputs), so a mixed-precision run (f32
/// tables) changes memory bandwidth, not observable accuracy beyond the
/// documented orbital error budget (`bspline::precision`).
pub struct TrialWaveFunction<T: Real> {
    spo: SpoSet<T>,
    electrons: ParticleSet,
    dist_ee: DistanceTableAA,
    dist_ei: DistanceTableAB,
    dets: [DiracDeterminant; 2],
    j1: OneBodyJastrow,
    j2: TwoBodyJastrow,
    n_per_spin: usize,
    /// Scratch: proposed orbital values (f64) for the determinant.
    phi_new: Vec<f64>,
    /// Pending move bookkeeping: electron, proposed position, ratio, and
    /// whether `ratio` sampled the move for the profile (`accept` and
    /// `reject` follow its decision).
    pending: Option<(usize, [f64; 3], f64, bool)>,
    log_psi: f64,
    /// Timers.
    pub timers: Timers,
}

impl<T: Real> TrialWaveFunction<T> {
    /// Assemble the wavefunction. `electrons.len()` must be `2 ×
    /// spo.n_orbitals()`.
    pub fn new(
        spo: SpoSet<T>,
        ions: &ParticleSet,
        electrons: ParticleSet,
        j1_functor: BsplineFunctor,
        j2_functor: BsplineFunctor,
    ) -> Self {
        let n_per_spin = spo.n_orbitals();
        assert_eq!(
            electrons.len(),
            2 * n_per_spin,
            "need 2N electrons for N orbitals"
        );
        let n_el = electrons.len();
        let dist_ee = DistanceTableAA::new(&electrons);
        let dist_ei = DistanceTableAB::new(ions, &electrons);

        // Empty placeholders: `evaluate_from_tables` below builds both
        // spin determinants, one batched V evaluation and one LU per
        // spin, from the distance tables `new` just built.
        let empty = DiracDeterminant::build(&[], 0);
        let dets = [empty.clone(), empty];

        let j1 = OneBodyJastrow::new(j1_functor, n_el);
        let j2 = TwoBodyJastrow::new(j2_functor, n_el);

        let mut wf = Self {
            spo,
            electrons,
            dist_ee,
            dist_ei,
            dets,
            j1,
            j2,
            n_per_spin,
            phi_new: vec![0.0; n_per_spin],
            pending: None,
            log_psi: 0.0,
            timers: Timers::new(),
        };
        wf.evaluate_from_tables();
        wf
    }

    #[inline]
    /// N electrons.
    pub fn n_electrons(&self) -> usize {
        self.electrons.len()
    }

    #[inline]
    /// Electrons.
    pub fn electrons(&self) -> &ParticleSet {
        &self.electrons
    }

    #[inline]
    /// Log psi.
    pub fn log_psi(&self) -> f64 {
        self.log_psi
    }

    /// Overwrite every electron position (campaign restore / a walker
    /// slot's configuration) and rebuild every incremental cache from
    /// them ([`Self::evaluate_log`]); returns `log |ΨT|`. That full
    /// rebuild is what makes the wavefunction state a pure function of
    /// the positions written here (the campaign layer's
    /// resume-equivalence contract).
    pub fn set_electron_positions(&mut self, pos: &[[f64; 3]]) -> f64 {
        assert_eq!(pos.len(), self.electrons.len(), "electron count mismatch");
        for (i, &r) in pos.iter().enumerate() {
            self.electrons.set(i, r);
        }
        self.evaluate_log()
    }

    fn spin_of(&self, iel: usize) -> (usize, usize) {
        (iel / self.n_per_spin, iel % self.n_per_spin)
    }

    /// Positions of one spin's electrons, in determinant row order.
    fn spin_positions(electrons: &ParticleSet, spin: usize, n_per_spin: usize) -> Vec<[f64; 3]> {
        (0..n_per_spin)
            .map(|e| electrons.get(spin * n_per_spin + e))
            .collect()
    }

    /// Full recompute of `log |ΨT|` (and internal state).
    pub fn evaluate_log(&mut self) -> f64 {
        let (electrons, dist_ee, dist_ei) = (&self.electrons, &mut self.dist_ee, &mut self.dist_ei);
        self.timers.time(Category::Distance, || {
            dist_ee.rebuild(electrons);
            dist_ei.rebuild(electrons);
        });
        self.evaluate_from_tables()
    }

    /// The determinants and Jastrow sums of [`Self::evaluate_log`],
    /// from distance tables already built from the current positions.
    fn evaluate_from_tables(&mut self) -> f64 {
        let n_per_spin = self.n_per_spin;

        let (electrons, dist_ee, dist_ei, spo, dets, j1, j2, timers) = (
            &self.electrons,
            &self.dist_ee,
            &self.dist_ei,
            &mut self.spo,
            &mut self.dets,
            &mut self.j1,
            &mut self.j2,
            &mut self.timers,
        );

        for spin in 0..2 {
            let rs = Self::spin_positions(electrons, spin, n_per_spin);
            let rows = timers.time(Category::Bspline, || spo.evaluate_v_batch(&rs));
            let mut a = vec![0.0; n_per_spin * n_per_spin];
            for (e, row) in rows.iter().enumerate() {
                a[e * n_per_spin..(e + 1) * n_per_spin].copy_from_slice(&row.v[..n_per_spin]);
            }
            timers.time(Category::Determinant, || {
                dets[spin] = DiracDeterminant::build(&a, n_per_spin);
            });
        }

        let mut derivs = JastrowDerivs::zeros(self.electrons.len());
        let (log_j2, log_j1) = timers.time(Category::Jastrow, || {
            (
                j2.evaluate_log(dist_ee, &mut derivs),
                j1.evaluate_log(dist_ei, &mut derivs),
            )
        });

        self.log_psi = log_j1 + log_j2 + self.dets[0].log_det() + self.dets[1].log_det();
        self.pending = None;
        self.log_psi
    }

    /// All-electron `∇ᵢ ln|Ψ|` and `∇²ᵢ ln|Ψ|` — the drift-diffusion
    /// sweep: drift vectors for proposal moves and the input of the
    /// kinetic-energy estimator. One pass per electron: its VGH and
    /// pull-back ([`SpoSet::evaluate_vgl_one`]) fill one L1-sized row,
    /// which the determinant's dot products read at once, so no spin's
    /// block of orbital rows is staged. The Jastrow terms come from one
    /// full evaluation each over the pairs inside the cutoff, J2
    /// visiting each pair once.
    ///
    /// The internal state (determinant inverses, distance tables) must
    /// be consistent with the current electron positions, i.e. call this
    /// between sweeps, not with a move pending. The distance tables are
    /// read as the moves left them, not rebuilt: `accept` and `reject`
    /// write the moved electron's row of the e–e triangle, so after a
    /// forward sweep it is the table a rebuild from the new positions
    /// would give. First the e–e table recomputes the rows that moves
    /// out of index order left stale
    /// (`DistanceTableAA::refresh_stale_rows`, charged to distance):
    /// none after a forward sweep. Only [`Self::evaluate_log`] (and
    /// [`Self::set_electron_positions`], which runs it) re-anchors the
    /// tables.
    pub fn log_derivs(&mut self) -> JastrowDerivs {
        assert!(self.pending.is_none(), "log_derivs with a move pending");
        let n_per_spin = self.n_per_spin;
        let n_el = self.electrons.len();
        let (electrons, dist_ee, dist_ei, spo, dets, j1, j2, timers) = (
            &self.electrons,
            &mut self.dist_ee,
            &self.dist_ei,
            &mut self.spo,
            &self.dets,
            &mut self.j1,
            &mut self.j2,
            &mut self.timers,
        );

        timers.time(Category::Distance, || dist_ee.refresh_stale_rows(electrons));
        debug_assert!(
            dist_ee.distances_match_rebuild(electrons, 1e-12)
                && dist_ei.distances_match_rebuild(electrons, 1e-12),
            "distance tables are stale after the row refresh: an incremental update went wrong"
        );
        let mut derivs = JastrowDerivs::zeros(n_el);
        timers.time(Category::Jastrow, || {
            j2.evaluate_log(dist_ee, &mut derivs);
            j1.evaluate_log(dist_ei, &mut derivs);
        });

        for iel in 0..n_el {
            let (spin, e) = (iel / n_per_spin, iel % n_per_spin);
            let r = electrons.get(iel);
            let sampled = timers.sample();
            let row = timers.time_sampled(sampled, Category::Bspline, || spo.evaluate_vgl_one(r));
            let (g, l) = timers.time_sampled(sampled, Category::Determinant, || {
                crate::drivers::observables::det_log_derivs(
                    &dets[spin],
                    e,
                    &row.gx,
                    &row.gy,
                    &row.gz,
                    &row.lap,
                )
            });
            for d in 0..3 {
                derivs.grad[iel][d] += g[d];
            }
            derivs.lap[iel] += l;
        }
        derivs
    }

    /// Propose moving electron `iel` to `rnew`; returns the wavefunction
    /// ratio `ΨT(R′)/ΨT(R)`.
    ///
    /// The SPO evaluation is one V-only call
    /// ([`SpoSet::evaluate_v_one`]): the ratio test needs nothing but
    /// orbital values, because the driver's proposals are symmetric and
    /// carry no drift term.
    pub fn ratio(&mut self, iel: usize, rnew: [f64; 3]) -> f64 {
        let (spin, e) = self.spin_of(iel);

        let (electrons, dist_ee, dist_ei, spo, dets, j1, j2, timers, phi_new) = (
            &self.electrons,
            &mut self.dist_ee,
            &mut self.dist_ei,
            &mut self.spo,
            &mut self.dets,
            &mut self.j1,
            &mut self.j2,
            &mut self.timers,
            &mut self.phi_new,
        );

        let sampled = timers.sample();
        timers.time_sampled(sampled, Category::Distance, || {
            dist_ee.propose(electrons, iel, rnew);
            dist_ei.propose(iel, rnew);
        });

        let v = timers.time_sampled(sampled, Category::Bspline, || spo.evaluate_v_one(rnew));
        phi_new.copy_from_slice(v);
        let det_ratio = timers.time_sampled(sampled, Category::Determinant, || {
            dets[spin].ratio(e, phi_new)
        });

        let (r2, r1) = timers.time_sampled(sampled, Category::Jastrow, || {
            (j2.ratio(dist_ee, iel), j1.ratio(dist_ei, iel))
        });

        let ratio = det_ratio * r1 * r2;
        self.pending = Some((iel, rnew, ratio, sampled));
        ratio
    }

    /// Commit the pending move: write the moved electron's row of each
    /// distance table (no column is written), update the determinant
    /// inverse (from the values [`Self::ratio`] stored) and the Jastrow
    /// sums. It makes no SPO call. Nothing reads a moved electron's
    /// derivatives between moves; the sweep's [`Self::log_derivs`]
    /// recomputes every electron's at once.
    pub fn accept(&mut self, iel: usize) {
        let Some((p_iel, rnew, ratio, sampled)) = self.pending.take() else {
            panic!("accept without a pending ratio");
        };
        assert_eq!(iel, p_iel, "accept must match the proposed electron");
        let (spin, e) = self.spin_of(iel);

        let (dist_ee, dist_ei, dets, j1, j2, timers, phi_new) = (
            &mut self.dist_ee,
            &mut self.dist_ei,
            &mut self.dets,
            &mut self.j1,
            &mut self.j2,
            &mut self.timers,
            &self.phi_new,
        );

        timers.time_sampled(sampled, Category::Distance, || {
            dist_ee.accept(iel);
            dist_ei.accept(iel);
        });
        timers.time_sampled(sampled, Category::Determinant, || {
            dets[spin].accept(e, phi_new)
        });
        timers.time_sampled(sampled, Category::Jastrow, || {
            j2.accept(iel);
            j1.accept(iel);
        });
        self.electrons.set(iel, rnew);
        self.log_psi += ratio.abs().ln();
    }

    /// Discard the pending move. The e–e table writes the moving
    /// electron's row from its current position, which the proposal
    /// computed, so a row that earlier moves below it left stale is
    /// current again.
    pub fn reject(&mut self) {
        if let Some((iel, _, _, sampled)) = self.pending.take() {
            let dist_ee = &mut self.dist_ee;
            self.timers
                .time_sampled(sampled, Category::Distance, || dist_ee.reject(iel));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particleset::random_electrons;
    use crate::synthetic::CoralSystem;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A small graphite-like system: 1×1×1 cell (4 carbons, 16
    /// electrons, 8 orbitals/spin), coarse grid.
    fn small_system(seed: u64) -> TrialWaveFunction<f64> {
        let sys = CoralSystem::new(1, 1, 1, (10, 10, 12));
        let coefs = sys.orbitals::<f64>(seed);
        let spo = SpoSet::new(coefs, sys.lattice);
        let electrons = random_electrons(
            sys.lattice,
            sys.n_electrons(),
            &mut StdRng::seed_from_u64(seed + 1),
        );
        let rc = sys.lattice.wigner_seitz_radius() * 0.9;
        let j1 = BsplineFunctor::rpa_like(0.3, 1.0, rc, 24);
        let j2 = BsplineFunctor::rpa_like(0.5, 1.2, rc, 24);
        TrialWaveFunction::new(spo, &sys.ions, electrons, j1, j2)
    }

    #[test]
    fn builds_and_is_finite() {
        let wf = small_system(3);
        assert_eq!(wf.n_electrons(), 16);
        assert!(wf.log_psi().is_finite());
    }

    #[test]
    fn ratio_matches_full_recompute() {
        let mut wf = small_system(5);
        let log0 = wf.log_psi();
        let iel = 7;
        let rnew = {
            let r = wf.electrons().get(iel);
            [r[0] + 0.21, r[1] - 0.13, r[2] + 0.08]
        };
        let ratio = wf.ratio(iel, rnew);
        wf.accept(iel);
        let log1 = wf.evaluate_log();
        assert!(
            ((log1 - log0) - ratio.abs().ln()).abs() < 1e-7,
            "Δlog={} vs ln|ratio|={}",
            log1 - log0,
            ratio.abs().ln()
        );
    }

    #[test]
    fn reject_leaves_state_unchanged() {
        let mut wf = small_system(7);
        let log0 = wf.log_psi();
        let _ = wf.ratio(3, [0.5, 0.5, 0.5]);
        wf.reject();
        let log1 = wf.evaluate_log();
        assert!((log1 - log0).abs() < 1e-9);
    }

    /// One Metropolis sweep with uniform moves of amplitude `d`; returns
    /// how many were accepted.
    fn metropolis_sweep(wf: &mut TrialWaveFunction<f64>, rng: &mut StdRng, d: f64) -> usize {
        let lat = *wf.electrons().lattice();
        let mut accepted = 0;
        for iel in 0..wf.n_electrons() {
            let r = wf.electrons().get(iel);
            let rnew = lat.wrap([
                r[0] + d * (rng.random::<f64>() - 0.5),
                r[1] + d * (rng.random::<f64>() - 0.5),
                r[2] + d * (rng.random::<f64>() - 0.5),
            ]);
            let ratio = wf.ratio(iel, rnew);
            if ratio * ratio > rng.random::<f64>() {
                wf.accept(iel);
                accepted += 1;
            } else {
                wf.reject();
            }
        }
        accepted
    }

    #[test]
    fn sweep_keeps_incremental_log_consistent() {
        let mut wf = small_system(11);
        let mut rng = StdRng::seed_from_u64(101);
        let accepted: usize = (0..2)
            .map(|_| metropolis_sweep(&mut wf, &mut rng, 0.4))
            .sum();
        assert!(accepted > 0, "some moves should be accepted");
        let tracked = wf.log_psi();
        let fresh = wf.evaluate_log();
        assert!(
            (tracked - fresh).abs() < 1e-6,
            "tracked {tracked} vs fresh {fresh}"
        );
    }

    #[test]
    fn log_derivs_gradient_matches_finite_difference_of_log_psi() {
        let mut wf = small_system(41);
        let derivs = wf.log_derivs();
        assert_eq!(derivs.grad.len(), wf.n_electrons());
        let h = 1e-5;
        for iel in [0usize, 9] {
            let r0 = wf.electrons().get(iel);
            for d in 0..3 {
                let mut rp = r0;
                rp[d] += h;
                let ratio_p = wf.ratio(iel, rp);
                wf.reject();
                let mut rm = r0;
                rm[d] -= h;
                let ratio_m = wf.ratio(iel, rm);
                wf.reject();
                let fd = (ratio_p.abs().ln() - ratio_m.abs().ln()) / (2.0 * h);
                assert!(
                    (derivs.grad[iel][d] - fd).abs() < 1e-4,
                    "iel={iel} d={d}: {} vs {fd}",
                    derivs.grad[iel][d]
                );
            }
        }
    }

    #[test]
    fn log_derivs_laplacian_matches_finite_difference() {
        let mut wf = small_system(43);
        let derivs = wf.log_derivs();
        let h = 2e-4;
        let iel = 3;
        let r0 = wf.electrons().get(iel);
        let mut lap_fd = 0.0;
        for d in 0..3 {
            let mut rp = r0;
            rp[d] += h;
            let ratio_p = wf.ratio(iel, rp);
            wf.reject();
            let mut rm = r0;
            rm[d] -= h;
            let ratio_m = wf.ratio(iel, rm);
            wf.reject();
            lap_fd += (ratio_p.abs().ln() + ratio_m.abs().ln()) / (h * h);
        }
        let rel = (derivs.lap[iel] - lap_fd).abs() / lap_fd.abs().max(1.0);
        assert!(rel < 5e-2, "{} vs {lap_fd}", derivs.lap[iel]);
    }

    /// `log_derivs` reads the distance tables as the sweep's accepts
    /// left them. Rebuilding them first changes no bit of the result.
    #[test]
    fn log_derivs_needs_no_table_rebuild_after_a_sweep() {
        let mut wfs = [small_system(29), small_system(29)];
        for wf in &mut wfs {
            let accepted = metropolis_sweep(wf, &mut StdRng::seed_from_u64(103), 0.8);
            assert!(accepted > 2, "accepted {accepted}");
        }
        let [kept, rebuilt] = &mut wfs;
        rebuilt.dist_ee.rebuild(&rebuilt.electrons);
        rebuilt.dist_ei.rebuild(&rebuilt.electrons);
        assert_eq!(bits(&kept.log_derivs()), bits(&rebuilt.log_derivs()));
    }

    /// Moves out of index order leave rows of the e–e triangle stale;
    /// `log_derivs` recomputes them first. For a reverse sweep, a
    /// partial sweep, one electron moved twice and accepts with no
    /// reject, its result is the bits of the same wavefunction with both
    /// tables rebuilt, and agrees with `log_derivs` after `evaluate_log`
    /// (which also refactorizes the determinants) to rounding.
    #[test]
    fn log_derivs_after_moves_in_any_order_equals_a_rebuild() {
        let n = 16;
        let orders: [Vec<usize>; 4] = [
            (0..n).rev().collect(),
            (0..n / 2).collect(),
            vec![5, 5, 2],
            (3..n).chain(0..3).collect(),
        ];
        for (k, order) in orders.iter().enumerate() {
            let mut wfs = [small_system(47), small_system(47)];
            for wf in &mut wfs {
                let mut rng = StdRng::seed_from_u64(109 + k as u64);
                for &iel in order {
                    let r = wf.electrons().get(iel);
                    let rnew = [r[0] + 0.3, r[1] - 0.2, r[2] + 0.1];
                    wf.ratio(iel, rnew);
                    if k == 3 || rng.random::<f64>() < 0.5 {
                        wf.accept(iel);
                    } else {
                        wf.reject();
                    }
                }
            }
            let [kept, rebuilt] = &mut wfs;
            rebuilt.dist_ee.rebuild(&rebuilt.electrons);
            rebuilt.dist_ei.rebuild(&rebuilt.electrons);
            let got = kept.log_derivs();
            assert_eq!(bits(&got), bits(&rebuilt.log_derivs()), "order {k}");
            kept.evaluate_log();
            let fresh = kept.log_derivs();
            let pairs = got.grad.iter().flatten().zip(fresh.grad.iter().flatten());
            for (a, b) in pairs.chain(got.lap.iter().zip(&fresh.lap)) {
                assert!(
                    (a - b).abs() <= 1e-8 * b.abs().max(1.0),
                    "order {k}: {a} vs {b}"
                );
            }
        }
    }

    /// Every gradient component and Laplacian, as bit patterns.
    fn bits(d: &JastrowDerivs) -> Vec<u64> {
        let grad = d.grad.iter().flatten();
        grad.chain(&d.lap).map(|x| x.to_bits()).collect()
    }

    /// `log_derivs` runs SIMD code in the spline kernel, the Jastrow
    /// row evaluators and the SPO pull-back; every backend fuses, so the
    /// scalar pack and the active one give the same bits.
    #[test]
    fn log_derivs_bit_identical_across_backends() {
        use bspline::simd::{active_backend, with_backend, Backend};
        let mut wf = small_system(37);
        let accepted = metropolis_sweep(&mut wf, &mut StdRng::seed_from_u64(107), 0.8);
        assert!(accepted > 2, "accepted {accepted}");
        let mut run = |b: Backend| bits(&with_backend(b, || wf.log_derivs()));
        assert_eq!(run(Backend::Scalar), run(active_backend()));
    }

    /// An electron moved behind the tables' back (no `ratio`/`accept`,
    /// no `evaluate_log`) leaves them stale; debug builds catch
    /// `log_derivs` reading them.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "distance tables are stale")]
    fn log_derivs_on_stale_tables_is_caught_in_debug_builds() {
        let mut wf = small_system(31);
        let r = wf.electrons().get(3);
        wf.electrons.set(3, [r[0] + 0.5, r[1], r[2]]);
        wf.log_derivs();
    }

    #[test]
    fn timers_populated_by_moves() {
        let mut wf = small_system(13);
        let _ = wf.ratio(0, [0.3, 0.3, 0.3]);
        wf.accept(0);
        for cat in [
            Category::Bspline,
            Category::Distance,
            Category::Jastrow,
            Category::Determinant,
        ] {
            assert!(
                wf.timers.get(cat) > std::time::Duration::ZERO,
                "{cat} timer empty"
            );
        }
    }

    #[test]
    #[should_panic(expected = "pending")]
    fn accept_without_ratio_panics() {
        let mut wf = small_system(17);
        wf.accept(0);
    }
}
