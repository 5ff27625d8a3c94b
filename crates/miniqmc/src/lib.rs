//! `miniqmc` — the QMC substrate surrounding the B-spline kernels.
//!
//! Rust analogue of the miniQMC mini-app the paper uses for prototyping
//! and benchmarking (Sec. IV): everything a walker touches besides the
//! SPO engines themselves —
//!
//! * [`lattice`] — periodic cells, minimum image, the graphite supercells
//!   of the CORAL benchmark;
//! * [`particleset`] — SoA particle storage with AoS accessors (the
//!   migration trick of Sec. V-A);
//! * [`distance`] — electron–electron / electron–ion distance tables in
//!   both the AoS baseline and SoA optimized forms;
//! * [`jastrow`] — B-spline radial functors, one-/two-body Jastrow with
//!   O(N) particle-by-particle ratios;
//! * [`determinant`] — Slater determinants with Sherman–Morrison O(N²)
//!   updates (Eqs. 2–4);
//! * [`spo`] — the SPOSet bridging Cartesian QMC and fractional-grid
//!   B-splines (gradient/Hessian pull-back for general cells);
//! * [`wavefunction`] — `ΨT = exp(J1+J2)·D↑·D↓` with the pbyp move
//!   contract;
//! * [`drivers`] — a VMC driver with the per-category profiling used to
//!   reproduce Tables II/III;
//! * [`campaign`] — the checkpointable DMC campaign layer (see below);
//! * [`synthetic`] — synthetic orbitals and the CORAL system builder
//!   (the paper's DFT orbital files are not available; kernel cost
//!   depends only on grid size and N, so synthetic tables stand in).
//!
//! # Campaign layer
//!
//! [`campaign`] turns the DMC building blocks into an interruptible
//! production run: a [`campaign::Campaign`] couples the
//! [`drivers::dmc::DmcPopulation`] branching loop to a
//! [`campaign::Propagator`] holding per-walker configurations, records
//! a per-generation statistics ring, and checkpoints the **full resume
//! closure** to disk.
//!
//! * **Checkpoint format** — std-only framed files
//!   (`magic · version · length · payload · CRC-32`), one per
//!   checkpointed generation, written to a temp sibling and published
//!   with an atomic rename; recovery scans newest-first, falls back
//!   past any frame whose CRC does not verify, and refuses an intact
//!   frame of another format version. All floats travel as
//!   IEEE-754 bit patterns, so a round-trip is bit-exact. See
//!   [`campaign::checkpoint`].
//! * **Resume-equivalence contract** — a campaign restored from any
//!   checkpoint continues *bit-identically* to the uninterrupted run:
//!   RNG streams are serialized as exact xoshiro256** state, and the
//!   wavefunction propagator (W electron configurations swept in turn
//!   by one wavefunction) rebuilds every incremental cache from a
//!   slot's positions before it sweeps that slot, so no
//!   Sherman–Morrison rounding history leaks across the boundary.
//!   Proven by `tests/integration_campaign.rs` over seeds ×
//!   populations × checkpoint intervals × kill points.
//! * **Fault-injection knobs** — [`campaign::CampaignFaultPlan`]
//!   scripts kill-after-generation-N, a torn write truncating the
//!   n-th checkpoint at byte K, and single-bit corruption; storage
//!   faults damage the bytes after framing, exactly as a failing disk
//!   would, and must be caught by the CRC scan.
//!
//! # Quick example
//!
//! ```
//! use miniqmc::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A 4-carbon graphite cell, 16 electrons, 8 orbitals per spin.
//! let sys = CoralSystem::new(1, 1, 1, (10, 10, 12));
//! let spo = SpoSet::new(sys.orbitals::<f64>(42), sys.lattice);
//! let electrons = random_electrons(
//!     sys.lattice, sys.n_electrons(), &mut StdRng::seed_from_u64(1));
//! let rc = sys.lattice.wigner_seitz_radius() * 0.9;
//! let mut wf = TrialWaveFunction::new(
//!     spo, &sys.ions, electrons,
//!     BsplineFunctor::rpa_like(0.3, 1.0, rc, 20),
//!     BsplineFunctor::rpa_like(0.5, 1.2, rc, 20));
//! let result = run_vmc(&mut wf, &VmcConfig { n_steps: 2, step_size: 0.4, seed: 7 });
//! assert!(result.acceptance > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// The 4-point tensor-product kernels use fixed-trip indexed loops on
// purpose (mirrors the paper's loop structure and vectorizes cleanly).
#![allow(clippy::needless_range_loop)]

pub mod campaign;
pub mod determinant;
pub mod distance;
pub mod drivers;
pub mod jastrow;
pub mod lattice;
mod multiversion;
pub mod particleset;
pub mod spo;
pub mod synthetic;
pub mod wavefunction;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::campaign::{
        Campaign, CampaignConfig, CampaignFaultPlan, CheckpointStore, GenStats, Propagator,
        RunOutcome, SyntheticPropagator, WalkerPropagator,
    };
    pub use crate::determinant::DiracDeterminant;
    pub use crate::distance::aos::{DistanceTableAAAoS, DistanceTableABAoS};
    pub use crate::distance::soa::{DistanceTableAA, DistanceTableAB};
    pub use crate::drivers::{
        kinetic_energy, run_vmc, Category, DmcConfig, DmcPopulation, ProfileReport, Timers,
        VmcConfig,
    };
    pub use crate::jastrow::{BsplineFunctor, JastrowDerivs, OneBodyJastrow, TwoBodyJastrow};
    pub use crate::lattice::{graphite_supercell, Lattice};
    pub use crate::particleset::{random_electrons, ParticleSet};
    pub use crate::spo::SpoSet;
    pub use crate::synthetic::{
        plane_wave_shell, random_coefficients, synthetic_orbitals, CoralSystem,
    };
    pub use crate::wavefunction::TrialWaveFunction;
}

#[cfg(test)]
mod backend_twins {
    //! The plain-Rust kernels have three instantiations each (baseline,
    //! `avx2,fma` and `avx2,fma,avx512f`, emitted by `multiversion!`),
    //! picked by the active backend. Forced through each backend the
    //! host has, every instantiated body must reproduce the baseline
    //! instantiation bit for bit — a backend that fell out of the
    //! dispatch, or an instantiation that rounds differently, shows here.

    use crate::determinant::DiracDeterminant;
    use crate::distance::{soa::distances_to_point, ImageShifts};
    use crate::jastrow::BsplineFunctor;
    use crate::lattice::{graphite_supercell, Lattice};
    use crate::particleset::random_electrons;
    use crate::spo::SpoSet;
    use crate::synthetic::synthetic_orbitals;
    use bspline::simd::{with_backend, Backend};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Bit patterns of everything the seven bodies produce on fixed
    /// inputs: `lu_solve_block` (the built inverse, through a ratio on
    /// each of its rows), `dot` (determinant ratio, gradient and
    /// Laplacian),
    /// `sherman_morrison` (the accepted inverse's `log det` and a ratio
    /// through it), `row_min_image` (one distance row), the Jastrow
    /// `values_row`/`vgl_packed` and the SPO `pull_back` (through
    /// `evaluate_vgl_one` on an f32 and an f64 table). Every length has
    /// a ragged tail at 8 `f64` lanes; 37 has two whole 16-lane `dot`
    /// blocks.
    fn fingerprint() -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(23);
        let mut bits = Vec::new();

        for n in [5, 13, 37] {
            let mut a: Vec<f64> = (0..n * n).map(|_| rng.random::<f64>() - 0.5).collect();
            for i in 0..n {
                a[i * n + i] += 2.0;
            }
            let streams: Vec<Vec<f64>> = (0..5)
                .map(|_| (0..n).map(|_| rng.random::<f64>() - 0.5).collect())
                .collect();
            let [phi, gx, gy, gz, lap] = &streams[..] else {
                unreachable!()
            };
            let mut det = DiracDeterminant::build(&a, n);
            for e in 0..n {
                bits.push(det.ratio(e, phi).to_bits());
            }
            bits.push(det.ratio(n / 2, phi).to_bits());
            det.accept(n / 2, phi);
            bits.push(det.log_det().to_bits());
            bits.push(det.ratio(n - 1, phi).to_bits());
            let g = det.grad_log(n / 2, gx, gy, gz);
            bits.extend(g.map(f64::to_bits));
            bits.push(det.lap_log(n / 2, lap, g).to_bits());
        }

        let (lat, _) = graphite_supercell(2, 2, 1);
        let im = ImageShifts::new(&lat);
        let f = BsplineFunctor::rpa_like(0.5, 1.0, 3.0, 64);
        for n in [3, 41] {
            let ps = random_electrons(lat, n, &mut rng);
            let (sx, sy, sz) = ps.soa();
            let mut row = [vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]];
            let [r, dx, dy, dz] = &mut row;
            distances_to_point(&lat, &im, sx, sy, sz, [0.3, 1.1, 2.9], r, dx, dy, dz);
            bits.extend(row.iter().flatten().map(|x| x.to_bits()));

            let mut idx = vec![0; n];
            let mut rows = [vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]];
            let [v, u, du, d2u] = &mut rows;
            f.values_row(&row[0], &mut idx, v);
            let m = f.vgl_packed(&row[0], &mut idx, [u, du, d2u]);
            bits.extend(rows[0].iter().map(|x| x.to_bits()));
            bits.extend(rows[1..].iter().flat_map(|x| &x[..m]).map(|x| x.to_bits()));
            bits.extend(idx[..m].iter().map(|&j| j as u64));
        }

        bits.extend(vgl_one_bits::<f32>(&lat, &mut rng));
        bits.extend(vgl_one_bits::<f64>(&lat, &mut rng));
        bits
    }

    /// `SpoSet::evaluate_vgl_one` at three positions over a table of 37
    /// orbitals of precision `T`, as bit patterns.
    fn vgl_one_bits<T: einspline::Real>(lat: &Lattice, rng: &mut StdRng) -> Vec<u64> {
        let g = einspline::Grid1::periodic(0.0, 1.0, 8);
        let coefs = synthetic_orbitals::<T>(g, g, g, 37, 3, 29);
        let mut spo = SpoSet::new(coefs, *lat);
        let mut bits = Vec::new();
        for _ in 0..3 {
            let r = lat.to_cart([rng.random(), rng.random(), rng.random()]);
            let out = spo.evaluate_vgl_one(r);
            for s in [&out.v, &out.gx, &out.gy, &out.gz, &out.lap] {
                bits.extend(s.iter().map(|x| x.to_bits()));
            }
        }
        bits
    }

    #[test]
    fn every_backend_from_avx2_up_matches_the_baseline_instantiation() {
        let baseline = with_backend(Backend::Scalar, fingerprint);
        assert!(baseline.len() > 8 * 41);
        let available = Backend::available();
        assert_eq!(available[0], Backend::Scalar);
        for &b in &available[1..] {
            assert_eq!(with_backend(b, fingerprint), baseline, "{b}");
        }
    }
}
