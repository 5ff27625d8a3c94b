//! One-body (electron–ion) Jastrow: `log J1 = −Σ_e Σ_I u(r_eI)`.
//!
//! The loops consume whole electron–ion rows through the functor's row
//! evaluators ([`BsplineFunctor`]). The full evaluation visits only the
//! ions inside the cutoff: a move ratio sums a zero-filled row.

use super::{packed_row_sums, JastrowDerivs};
use crate::distance::soa::DistanceTableAB;
use crate::jastrow::BsplineFunctor;

/// One-body Jastrow term (single ion species).
#[derive(Clone, Debug)]
pub struct OneBodyJastrow {
    u: BsplineFunctor,
    n_el: usize,
    /// Per-electron ion sums `Uat[e] = Σ_I u(r_eI)`.
    uat: Vec<f64>,
    u_new: f64,
    iel: usize,
    /// Scratch: the `u`, `u′`, `u″` of one electron's in-cutoff ions,
    /// packed (sized for every ion on first use: the ion count comes
    /// with the table).
    vgl: [Vec<f64>; 3],
    /// Scratch of the row evaluators.
    idx: Vec<usize>,
}

impl OneBodyJastrow {
    /// Create a new instance.
    pub fn new(u: BsplineFunctor, n_electrons: usize) -> Self {
        Self {
            u,
            n_el: n_electrons,
            uat: vec![0.0; n_electrons],
            u_new: 0.0,
            iel: usize::MAX,
            vgl: Default::default(),
            idx: Vec::new(),
        }
    }

    #[inline]
    /// Functor.
    pub fn functor(&self) -> &BsplineFunctor {
        &self.u
    }

    /// Size the row scratch for `n_ion` ions; allocates only when the
    /// count changes.
    fn fit_rows(&mut self, n_ion: usize) {
        for row in &mut self.vgl {
            row.resize(n_ion, 0.0);
        }
        self.idx.resize(n_ion, 0);
    }

    /// Full evaluation: `log J1` plus per-electron derivative
    /// accumulation (added into `derivs`, so call after zeroing or after
    /// J2 to accumulate the total Jastrow derivatives).
    ///
    /// Each electron's row runs the functor over its ions inside the
    /// cutoff only (`BsplineFunctor::vgl_packed`) and sums their terms
    /// in ion order; an ion beyond the cutoff would add exact zeros.
    pub fn evaluate_log(&mut self, dist: &DistanceTableAB, derivs: &mut JastrowDerivs) -> f64 {
        assert_eq!(dist.n_targets(), self.n_el);
        self.fit_rows(dist.n_sources());
        let mut log_sum = 0.0;
        for e in 0..self.n_el {
            let row = dist.row(e);
            let out = self.vgl.each_mut().map(|x| &mut x[..]);
            let m = self.u.vgl_packed(row, &mut self.idx, out);
            // displacement = ion − electron; ∂r/∂r_e = −disp/r.
            let vgl = self.vgl.each_ref().map(|x| &x[..]);
            let idx = &self.idx[..m];
            let (usum, g, lap) = packed_row_sums(row, idx, vgl, dist.disp_rows(e), |_, _, _, _| {});
            self.uat[e] = usum;
            for d in 0..3 {
                derivs.grad[e][d] += g[d];
            }
            derivs.lap[e] += lap;
            log_sum += usum;
        }
        -log_sum
    }

    /// Move ratio for electron `iel` with proposed ion distances in the
    /// table's scratch row.
    pub fn ratio(&mut self, dist: &DistanceTableAB, iel: usize) -> f64 {
        let temp = dist.temp_row();
        self.fit_rows(temp.len());
        let u = &mut self.vgl[0];
        self.u.values_row(temp, &mut self.idx, u);
        let mut unew = 0.0;
        for ui in u.iter() {
            unew += ui;
        }
        self.u_new = unew;
        self.iel = iel;
        (self.uat[iel] - unew).exp()
    }

    /// Commit the move.
    pub fn accept(&mut self, iel: usize) {
        assert_eq!(
            iel, self.iel,
            "accept must follow ratio for the same electron"
        );
        self.uat[iel] = self.u_new;
        self.iel = usize::MAX;
    }

    /// `log J1` from the accumulators.
    pub fn log_value(&self) -> f64 {
        -self.uat.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jastrow::sum_row;
    use crate::lattice::{graphite_supercell, Lattice};
    use crate::particleset::{random_electrons, ParticleSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(
        n_el: usize,
        seed: u64,
    ) -> (ParticleSet, ParticleSet, DistanceTableAB, OneBodyJastrow) {
        let (lat, ion_pos) = graphite_supercell(2, 2, 1);
        let ions = ParticleSet::new("ion", lat, &ion_pos);
        let els = random_electrons(lat, n_el, &mut StdRng::seed_from_u64(seed));
        let dist = DistanceTableAB::new(&ions, &els);
        let u = BsplineFunctor::rpa_like(0.3, 0.9, 2.2, 40);
        let j1 = OneBodyJastrow::new(u, n_el);
        (ions, els, dist, j1)
    }

    fn brute_force_log(ions: &ParticleSet, els: &ParticleSet, u: &BsplineFunctor) -> f64 {
        let lat = els.lattice();
        let mut s = 0.0;
        for e in 0..els.len() {
            for i in 0..ions.len() {
                let (_, r) = lat.min_image(els.get(e), ions.get(i));
                s += u.value(r);
            }
        }
        -s
    }

    /// `evaluate_log` as it was before it skipped the ions beyond the
    /// cutoff: [`sum_row`] over [`BsplineFunctor::vgl_row`]'s
    /// zero-filled rows.
    fn all_ions_reference(
        j1: &mut OneBodyJastrow,
        dist: &DistanceTableAB,
        derivs: &mut JastrowDerivs,
    ) -> f64 {
        j1.fit_rows(dist.n_sources());
        let mut log_sum = 0.0;
        for e in 0..j1.n_el {
            let row = dist.row(e);
            j1.u.vgl_row(row, j1.vgl.each_mut().map(|x| &mut x[..]));
            let vgl = j1.vgl.each_ref().map(|x| &x[..]);
            let (usum, g, lap) = sum_row(row, vgl, dist.disp_rows(e));
            j1.uat[e] = usum;
            for d in 0..3 {
                derivs.grad[e][d] += g[d];
            }
            derivs.lap[e] += lap;
            log_sum += usum;
        }
        -log_sum
    }

    /// Bit patterns of `log`, `log_value()` and every gradient and
    /// Laplacian of `evaluate_log` (if `packed`) or of
    /// [`all_ions_reference`], added into nonzero starting derivatives.
    fn log_derivs_bits(ions: &ParticleSet, els: &[[f64; 3]], packed: bool) -> Vec<u64> {
        let n = els.len();
        let els = ParticleSet::new("e", *ions.lattice(), els);
        let dist = DistanceTableAB::new(ions, &els);
        let mut j1 = OneBodyJastrow::new(BsplineFunctor::rpa_like(0.3, 0.9, 2.2, 40), n);
        let mut derivs = JastrowDerivs::zeros(n);
        derivs.lap.fill(0.5);
        let log = if packed {
            j1.evaluate_log(&dist, &mut derivs)
        } else {
            all_ions_reference(&mut j1, &dist, &mut derivs)
        };
        let mut bits = vec![log.to_bits(), j1.log_value().to_bits()];
        bits.extend(derivs.grad.iter().flatten().map(|x| x.to_bits()));
        bits.extend(derivs.lap.iter().map(|x| x.to_bits()));
        bits
    }

    /// The in-cutoff evaluation equals [`all_ions_reference`] bit for
    /// bit: at n ∈ {1, 2, 17, 256} electrons with one on an ion (`r =
    /// 0`), on a lattice with every ion beyond the cutoff, and with one
    /// electron at a NaN position, whose NaN reaches only its own
    /// entries, its Laplacian included.
    #[test]
    fn jastrow_j1_packed_log_bitmatches_the_all_ions_reference() {
        let check = |ions: &ParticleSet, els: &[[f64; 3]]| {
            let packed = log_derivs_bits(ions, els, true);
            assert_eq!(packed, log_derivs_bits(ions, els, false), "n={}", els.len());
            packed
        };
        let (lat, ion_pos) = graphite_supercell(2, 2, 1);
        let ions = ParticleSet::new("ion", lat, &ion_pos);
        for n in [1, 2, 17, 256] {
            let mut els = random_electrons(lat, n, &mut StdRng::seed_from_u64(n as u64)).to_aos();
            els[n - 1] = ion_pos[0];
            check(&ions, &els);
            if n > 2 {
                els[1] = [f64::NAN; 3];
                let bits = check(&ions, &els);
                let nan = |k: usize| f64::from_bits(bits[k]).is_nan();
                let lap = 2 + 3 * n;
                // A NaN distance is not a coincident pair: the NaN
                // reaches `Σ u`, the gradient and the Laplacian.
                assert!(nan(0) && nan(2 + 3) && nan(lap + 1), "n={n}: electron 1");
                assert!(!nan(2) && !nan(lap) && !nan(lap + 2), "n={n}: the others");
            }
        }
        // Ions and electrons on interleaved 3×3×2 sites 8 apart in a 24
        // box: every electron–ion distance is √48 > 2.2.
        let sites = |o: f64| -> Vec<[f64; 3]> {
            (0..18)
                .map(|s| [s % 3, s / 3 % 3, s / 9].map(|k| k as f64 * 8.0 + o))
                .collect()
        };
        let far = ParticleSet::new("ion", Lattice::cubic(24.0), &sites(0.0));
        let bits = check(&far, &sites(4.0));
        assert!(
            bits[..2 + 3 * 18].iter().all(|&b| f64::from_bits(b) == 0.0),
            "no ion inside"
        );
    }

    #[test]
    fn log_matches_brute_force() {
        let (ions, els, dist, mut j1) = setup(8, 3);
        let mut derivs = JastrowDerivs::zeros(8);
        let log = j1.evaluate_log(&dist, &mut derivs);
        let expect = brute_force_log(&ions, &els, j1.functor());
        assert!((log - expect).abs() < 1e-10);
        assert!((j1.log_value() - expect).abs() < 1e-10);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let (ions, mut els, dist, mut j1) = setup(6, 5);
        let mut derivs = JastrowDerivs::zeros(6);
        j1.evaluate_log(&dist, &mut derivs);
        let h = 1e-6;
        let iel = 3;
        let r0 = els.get(iel);
        for d in 0..3 {
            let mut rp = r0;
            rp[d] += h;
            els.set(iel, rp);
            let fp = brute_force_log(&ions, &els, j1.functor());
            let mut rm = r0;
            rm[d] -= h;
            els.set(iel, rm);
            let fm = brute_force_log(&ions, &els, j1.functor());
            els.set(iel, r0);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (derivs.grad[iel][d] - fd).abs() < 1e-6,
                "d={d}: {} vs {fd}",
                derivs.grad[iel][d]
            );
        }
    }

    #[test]
    fn ratio_matches_log_difference() {
        let (ions, mut els, mut dist, mut j1) = setup(5, 7);
        let mut derivs = JastrowDerivs::zeros(5);
        j1.evaluate_log(&dist, &mut derivs);
        let log_old = brute_force_log(&ions, &els, j1.functor());
        let iel = 2;
        let rnew = [1.1, 2.3, 6.0];
        dist.propose(iel, rnew);
        let ratio = j1.ratio(&dist, iel);
        els.set(iel, rnew);
        let log_new = brute_force_log(&ions, &els, j1.functor());
        assert!((ratio - (log_new - log_old).exp()).abs() < 1e-10);
    }

    #[test]
    fn accept_sequence_stays_consistent() {
        let (ions, mut els, mut dist, mut j1) = setup(6, 9);
        let mut derivs = JastrowDerivs::zeros(6);
        j1.evaluate_log(&dist, &mut derivs);
        let lat = *els.lattice();
        let mut rng = StdRng::seed_from_u64(21);
        for step in 0..15 {
            let iel = step % 6;
            let rnew = lat.to_cart([
                rng.random::<f64>(),
                rng.random::<f64>(),
                rng.random::<f64>(),
            ]);
            dist.propose(iel, rnew);
            let _ = j1.ratio(&dist, iel);
            dist.accept(iel);
            j1.accept(iel);
            els.set(iel, rnew);
        }
        let tracked = j1.log_value();
        let expect = brute_force_log(&ions, &els, j1.functor());
        assert!((tracked - expect).abs() < 1e-10, "{tracked} vs {expect}");
        let fresh = j1.evaluate_log(&dist, &mut JastrowDerivs::zeros(6));
        assert!((tracked - fresh).abs() < 1e-10, "{tracked} vs {fresh}");
    }

    #[test]
    fn derivs_accumulate_on_top_of_existing() {
        let (_, _, dist, mut j1) = setup(4, 11);
        let mut derivs = JastrowDerivs::zeros(4);
        derivs.lap[0] = 1.0;
        let _ = j1.evaluate_log(&dist, &mut derivs);
        let mut fresh = JastrowDerivs::zeros(4);
        let _ = j1.evaluate_log(&dist, &mut fresh);
        assert!((derivs.lap[0] - 1.0 - fresh.lap[0]).abs() < 1e-12);
        let _ = Lattice::cubic(1.0);
    }
}
