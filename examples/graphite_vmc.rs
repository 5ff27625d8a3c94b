//! A small end-to-end QMC run on graphite: Slater–Jastrow wavefunction,
//! particle-by-particle VMC, per-kernel profile — the full pipeline the
//! paper's kernels live in (scaled down to a single primitive cell).
//!
//! The move loop evaluates orbital values (V) for every proposal and
//! makes no orbital call on accept; after each sweep one VGH per electron
//! gives every electron's derivatives for the kinetic energy.
//!
//! Run: `cargo run --release --example graphite_vmc`

use miniqmc::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1×1×1 graphite cell: 4 carbons, 16 electrons, 8 orbitals per spin.
    let sys = CoralSystem::new(1, 1, 1, (12, 12, 14));
    println!(
        "graphite cell: {} carbons, {} electrons, N = {} orbitals/spin",
        sys.ions.len(),
        sys.n_electrons(),
        sys.n_per_spin
    );

    // Synthetic smooth orbitals fitted through the einspline solver.
    let spo = SpoSet::new(sys.orbitals::<f64>(7), sys.lattice);
    let electrons = random_electrons(
        sys.lattice,
        sys.n_electrons(),
        &mut StdRng::seed_from_u64(11),
    );
    let rc = sys.lattice.wigner_seitz_radius() * 0.9;
    let mut wf = TrialWaveFunction::new(
        spo,
        &sys.ions,
        electrons,
        BsplineFunctor::rpa_like(0.3, 1.0, rc, 32),
        BsplineFunctor::rpa_like(0.5, 1.2, rc, 32),
    );
    println!("initial log|Psi_T| = {:.6}", wf.log_psi());

    let result = run_vmc(
        &mut wf,
        &VmcConfig {
            n_steps: 10,
            step_size: 0.6,
            seed: 3,
        },
    );
    println!(
        "\nVMC: 10 sweeps x {} electrons, acceptance = {:.1} %",
        wf.n_electrons(),
        100.0 * result.acceptance
    );
    println!("final log|Psi_T| = {:.6}", result.log_psi);
    // The per-move work is timed on one call in SAMPLE_EVERY and
    // weighted, so the times and shares are estimates.
    println!("\nper-kernel profile (cf. paper Tables II/III; sampled estimate):");
    println!("{}", result.profile);
}
