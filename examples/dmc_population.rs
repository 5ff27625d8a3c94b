//! Checkpointable DMC campaign over graphite walkers (paper Sec. III
//! population dynamics + the ISSUE 9 campaign layer).
//!
//! Each walker is an electron configuration; one real Slater–Jastrow
//! [`TrialWaveFunction`] sweeps every configuration in turn,
//! particle by particle (V per proposal, nothing on accept). The
//! campaign driver couples the configurations to `DmcPopulation`
//! branching, records per-generation statistics, and (optionally)
//! checkpoints the full resume closure so a `SIGKILL` mid-run loses
//! nothing: resuming reproduces the uninterrupted run bit-for-bit.
//!
//! Environment knobs (a kill-resume cycle is drivable from the shell):
//!
//! * `QMC_DMC_GENERATIONS` — total generations (default 12);
//! * `QMC_DMC_CHECKPOINT_EVERY` — checkpoint interval, 0 = off
//!   (default 0);
//! * `QMC_DMC_CKPT_DIR` — checkpoint directory (default
//!   `target/dmc-ckpt`);
//! * `QMC_DMC_RESUME` — `1` (or `true`) resumes from the newest valid
//!   checkpoint (fresh start if none); `0`, `false` or unset starts
//!   fresh, and any other value is refused;
//! * `QMC_DMC_SLEEP_MS` — artificial per-generation pause so an outer
//!   script has a window to `kill -9` mid-run.
//!
//! Kill-resume from the shell:
//!
//! ```sh
//! export QMC_DMC_CHECKPOINT_EVERY=2 QMC_DMC_CKPT_DIR=/tmp/dmc-ckpt
//! cargo run --release --example dmc_population &   # then: kill -9 $!
//! QMC_DMC_RESUME=1 cargo run --release --example dmc_population
//! ```
//!
//! The trailing `final ...` line prints the mixed estimator both
//! readably and as its exact bit pattern, so two runs can be compared
//! for bit-identity with `grep`.

use einspline::MultiCoefs;
use miniqmc::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be an integer, got {v:?}")),
        Err(_) => default,
    }
}

/// A strict boolean: unset, `0` or `false` is off; `1` or `true` is
/// on; anything else panics rather than silently reading as off (a
/// mistyped `QMC_DMC_RESUME` would otherwise start fresh and overwrite
/// the checkpoints it was asked to resume from).
fn env_flag(name: &str) -> bool {
    match std::env::var(name) {
        Err(_) => false,
        Ok(v) => match v.as_str() {
            "0" | "false" => false,
            "1" | "true" => true,
            _ => panic!("{name} must be 0, 1, false or true, got {v:?}"),
        },
    }
}

/// The campaign's propagator: `n_walkers` configurations of a graphite
/// 1×1×1 cell (16 electrons, 8 orbitals/spin; seeds 101, 102, ...)
/// swept by one wavefunction over the campaign's one orbital table
/// (`clone` shares it: no copy, no second solve). A resumed campaign
/// overwrites the configurations from the checkpoint.
fn make_propagator(
    sys: &CoralSystem,
    orbitals: &MultiCoefs<f64>,
    n_walkers: usize,
) -> WalkerPropagator {
    let electrons = |seed| {
        random_electrons(
            sys.lattice,
            sys.n_electrons(),
            &mut StdRng::seed_from_u64(seed),
        )
    };
    let rc = sys.lattice.wigner_seitz_radius() * 0.9;
    let wf = TrialWaveFunction::new(
        SpoSet::new(orbitals.clone(), sys.lattice),
        &sys.ions,
        electrons(100),
        BsplineFunctor::rpa_like(0.3, 1.0, rc, 24),
        BsplineFunctor::rpa_like(0.5, 1.2, rc, 24),
    );
    let configs = (101..101 + n_walkers as u64)
        .map(|seed| electrons(seed).to_aos())
        .collect();
    WalkerPropagator::new(wf, configs, 0.5, 0xFEED)
}

fn main() {
    let n_walkers = 8usize;
    let generations = env_u64("QMC_DMC_GENERATIONS", 12);
    let checkpoint_every = env_u64("QMC_DMC_CHECKPOINT_EVERY", 0);
    let sleep_ms = env_u64("QMC_DMC_SLEEP_MS", 0);
    let ckpt_dir = std::env::var("QMC_DMC_CKPT_DIR").unwrap_or_else(|_| "target/dmc-ckpt".into());
    let resume = env_flag("QMC_DMC_RESUME");

    let sys = CoralSystem::new(1, 1, 1, (10, 10, 12));
    let orbitals = sys.orbitals::<f64>(7);
    println!(
        "graphite DMC campaign: {n_walkers} walkers x {} electrons",
        sys.n_electrons()
    );
    println!(
        "generations={generations} checkpoint_every={checkpoint_every} \
         dir={ckpt_dir} resume={resume}"
    );

    let make_prop = || make_propagator(&sys, &orbitals, n_walkers);

    let dmc_cfg = DmcConfig {
        target_population: n_walkers,
        tau: 0.002,
        feedback: 1.0,
        max_ratio: 2.0,
        seed: 7,
    };

    let mut store = (checkpoint_every > 0 || resume)
        .then(|| CheckpointStore::new(&ckpt_dir).expect("checkpoint dir"));

    let mut campaign = if resume {
        match Campaign::resume_latest(store.as_ref().expect("store"), make_prop())
            .expect("checkpoint scan")
        {
            Some(c) => {
                println!("resumed from generation {}", c.generation());
                c
            }
            None => {
                println!("no valid checkpoint found; starting fresh");
                Campaign::new(dmc_cfg, -0.5, make_prop(), 16)
            }
        }
    } else {
        Campaign::new(dmc_cfg, -0.5, make_prop(), 16)
    };

    println!("gen  population  E_T           E_mixed       births/deaths");
    while campaign.generation() < generations {
        // One generation per `run` call, so each prints as it lands;
        // `run` checkpoints on its cadence.
        let cfg = CampaignConfig::new(campaign.generation() + 1, checkpoint_every);
        let report = campaign
            .run(&cfg, store.as_mut())
            .expect("checkpoint write");
        let stats = report.stats[0];
        println!(
            "{:>3}  {:>10}  {:+.9}  {:+.9}  {}/{}",
            stats.generation,
            stats.population,
            stats.trial_energy,
            stats.e_mixed,
            stats.births,
            stats.deaths
        );
        if sleep_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
        }
    }

    let last = *campaign.stats().latest().expect("at least one generation");
    println!(
        "final gen={} population={} e_mixed={:+.12e} e_mixed_bits={:#018x} \
         e_t_bits={:#018x}",
        last.generation,
        last.population,
        last.e_mixed,
        last.e_mixed.to_bits(),
        last.trial_energy.to_bits()
    );
    println!("\npopulation fluctuates under branching and is pulled to the");
    println!("target by the trial-energy feedback (paper step iii).");
}
