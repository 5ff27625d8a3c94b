//! Campaign crash-recovery conformance suite (ISSUE 9 tentpole): a DMC
//! campaign resumed from a checkpoint must be **the run that would have
//! happened without the interruption** — bit-identical walker
//! populations, mixed estimators, generation statistics and RNG
//! streams — and damaged checkpoints (torn writes, bit flips) must be
//! detected by CRC with fallback to the last good frame.
//!
//! Covered here:
//!
//! 1. proptest: for any seed × population × checkpoint interval × kill
//!    point, kill + resume reproduces the uninterrupted golden run
//!    exactly (synthetic propagator, so thousands of generations are
//!    cheap);
//! 2. proptest: a torn or bit-flipped checkpoint write is rejected by
//!    the CRC scan, recovery falls back to the last valid generation,
//!    and the resumed run still matches golden bit-for-bit;
//! 3. the same kill-resume equivalence on the *real* per-electron
//!    wavefunction path (`WalkerPropagator` over graphite walkers):
//!    electron positions, estimators and stats all match, proving the
//!    rebuild-from-positions contract erases incremental rounding
//!    history at checkpoint boundaries;
//! 4. recovery edge cases: kill before the first checkpoint (fresh
//!    restart must equal golden), and an empty/corrupt-only store;
//! 5. hostile bytes: every count field overwritten with `u64::MAX` or
//!    2^58, and seeded random byte flips, through `unframe` and
//!    `Campaign::decode` on both propagators — each case returns `Ok` or
//!    `Err`, never panics or aborts on a huge allocation.

use std::path::PathBuf;

use miniqmc::campaign::checkpoint::{frame, unframe};
use miniqmc::campaign::{
    BitFlip, Campaign, CampaignConfig, CampaignFaultPlan, CheckpointStore, GenStats, Propagator,
    RunOutcome, SyntheticPropagator, TornWrite, WalkerPropagator,
};
use miniqmc::drivers::dmc::DmcConfig;
use miniqmc::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dmc_cfg(pop: usize, seed: u64) -> DmcConfig {
    DmcConfig {
        target_population: pop,
        tau: 0.05,
        feedback: 1.0,
        max_ratio: 4.0,
        seed,
    }
}

fn synthetic(pop: usize, seed: u64) -> Campaign<SyntheticPropagator> {
    Campaign::new(
        dmc_cfg(pop, seed),
        0.2,
        SyntheticPropagator::new(pop, seed ^ 0x5EED, 0.4),
        8,
    )
}

/// Blank propagator handed to `decode`/`resume_latest`; its state is
/// overwritten by the checkpoint.
fn blank(pop: usize) -> SyntheticPropagator {
    SyntheticPropagator::new(pop, 1, 0.0)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qmc-campaign-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Exact equality, down to the bit patterns of every float.
fn assert_stats_bitmatch(golden: &[GenStats], resumed: &[GenStats], ctx: &str) {
    assert_eq!(golden.len(), resumed.len(), "{ctx}: stats length");
    for (g, r) in golden.iter().zip(resumed) {
        assert_eq!(g.generation, r.generation, "{ctx}: generation");
        assert_eq!(g.population, r.population, "{ctx}: population");
        assert_eq!(g.births, r.births, "{ctx}: births");
        assert_eq!(g.deaths, r.deaths, "{ctx}: deaths");
        assert_eq!(
            g.e_mixed.to_bits(),
            r.e_mixed.to_bits(),
            "{ctx}: e_mixed bits @ gen {}",
            g.generation
        );
        assert_eq!(
            g.trial_energy.to_bits(),
            r.trial_energy.to_bits(),
            "{ctx}: trial_energy bits @ gen {}",
            g.generation
        );
        assert_eq!(
            g.total_weight.to_bits(),
            r.total_weight.to_bits(),
            "{ctx}: total_weight bits @ gen {}",
            g.generation
        );
    }
}

fn assert_synthetic_bitmatch(
    a: &Campaign<SyntheticPropagator>,
    b: &Campaign<SyntheticPropagator>,
    ctx: &str,
) {
    assert_eq!(a.generation(), b.generation(), "{ctx}: generation");
    // DmcSnapshot derives PartialEq over ids/ages (exact) and weights;
    // compare weights and the RNG state by bits explicitly as well.
    let (sa, sb) = (a.population().snapshot(), b.population().snapshot());
    assert_eq!(sa.rng_state, sb.rng_state, "{ctx}: rng state");
    assert_eq!(sa.next_id, sb.next_id, "{ctx}: next id");
    assert_eq!(
        sa.trial_energy.to_bits(),
        sb.trial_energy.to_bits(),
        "{ctx}: trial energy bits"
    );
    assert_eq!(sa.walkers.len(), sb.walkers.len(), "{ctx}: population");
    for (wa, wb) in sa.walkers.iter().zip(&sb.walkers) {
        assert_eq!(wa.id, wb.id, "{ctx}: walker id");
        assert_eq!(wa.age, wb.age, "{ctx}: walker age");
        assert_eq!(
            wa.weight.to_bits(),
            wb.weight.to_bits(),
            "{ctx}: walker weight bits"
        );
    }
    let xa: Vec<u64> = a.propagator().xs().iter().map(|x| x.to_bits()).collect();
    let xb: Vec<u64> = b.propagator().xs().iter().map(|x| x.to_bits()).collect();
    assert_eq!(xa, xb, "{ctx}: propagator coordinates");
    let ra: Vec<GenStats> = a.stats().iter().copied().collect();
    let rb: Vec<GenStats> = b.stats().iter().copied().collect();
    assert_stats_bitmatch(&ra, &rb, &format!("{ctx}: stats ring"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resume_is_bit_identical_to_uninterrupted_run(
        seed in 0u64..10_000,
        pop in 2usize..40,
        interval in 1u64..6,
        kill in 1u64..18,
    ) {
        let generations = 18u64;

        // Golden: uninterrupted, no checkpointing at all.
        let mut golden = synthetic(pop, seed);
        let golden_report = golden
            .run(&CampaignConfig::new(generations, 0), None)
            .expect("golden run");
        prop_assert_eq!(golden_report.outcome, RunOutcome::Completed);

        // Victim: checkpointing every `interval`, killed after `kill`.
        let dir = fresh_dir("bitident");
        let mut store = CheckpointStore::new(&dir).expect("store");
        let mut victim = synthetic(pop, seed);
        let mut cfg = CampaignConfig::new(generations, interval);
        cfg.faults = CampaignFaultPlan::kill_at(kill);
        let victim_report = victim.run(&cfg, Some(&mut store)).expect("victim run");
        prop_assert_eq!(victim_report.outcome, RunOutcome::Killed { generation: kill });
        drop(victim); // the process died; only the disk survives

        // Resume from disk (or start fresh if the kill landed before
        // the first checkpoint) and finish the campaign.
        let mut resumed = match Campaign::resume_latest(&store, blank(pop)).expect("scan") {
            Some(c) => c,
            None => {
                prop_assert!(kill < interval, "a checkpoint must exist once interval ≤ kill");
                synthetic(pop, seed)
            }
        };
        let resume_gen = resumed.generation();
        prop_assert_eq!(resume_gen, (kill / interval) * interval);
        let resumed_report = resumed
            .run(&CampaignConfig::new(generations, interval), Some(&mut store))
            .expect("resumed run");
        prop_assert_eq!(resumed_report.outcome, RunOutcome::Completed);

        assert_synthetic_bitmatch(&golden, &resumed, "final state");
        assert_stats_bitmatch(
            &golden_report.stats[resume_gen as usize..],
            &resumed_report.stats,
            "post-resume generations",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn damaged_checkpoints_fall_back_to_last_good(
        seed in 0u64..10_000,
        pop in 2usize..24,
        bad_write in 0usize..8,
        keep_frac in 0.0f64..1.0,
        flip_not_tear in 0u64..2,
    ) {
        let generations = 12u64;
        // Die immediately after the damaged write, so the damaged frame
        // is the *newest* on disk and recovery must fall back past it.
        let kill = bad_write as u64 + 1;

        let mut golden = synthetic(pop, seed);
        let golden_report = golden
            .run(&CampaignConfig::new(generations, 0), None)
            .expect("golden run");

        // Victim checkpoints every generation; write `bad_write` (the
        // checkpoint of generation bad_write+1) is damaged on disk.
        let dir = fresh_dir("damage");
        let mut store = CheckpointStore::new(&dir).expect("store");
        let mut victim = synthetic(pop, seed);
        let mut cfg = CampaignConfig::new(generations, 1);
        cfg.faults = CampaignFaultPlan {
            kill_at_generation: Some(kill),
            torn_write: (flip_not_tear == 0).then_some(TornWrite {
                nth_write: bad_write,
                // Any prefix, including cutting into the CRC trailer.
                keep_bytes: (keep_frac * 200.0) as usize,
            }),
            bit_flip: (flip_not_tear == 1).then_some(BitFlip {
                nth_write: bad_write,
                byte_offset: (keep_frac * 180.0) as usize,
                bit: (seed % 8) as u8,
            }),
        };
        victim.run(&cfg, Some(&mut store)).expect("victim run");
        drop(victim);

        let mut resumed = match Campaign::resume_latest(&store, blank(pop)).expect("scan") {
            Some(resumed) => {
                // The damaged frame (generation bad_write+1) was the
                // newest; the CRC scan must have skipped it and landed
                // on the last good generation.
                prop_assert!(bad_write >= 1, "write 0 damaged ⇒ nothing valid");
                prop_assert_eq!(resumed.generation(), bad_write as u64);
                resumed
            }
            None => {
                // The very first write was the damaged one: nothing
                // valid exists, so recovery is a fresh restart.
                prop_assert_eq!(bad_write, 0);
                synthetic(pop, seed)
            }
        };
        let resume_gen = resumed.generation() as usize;
        let resumed_report = resumed
            .run(&CampaignConfig::new(generations, 1), Some(&mut store))
            .expect("resumed run");
        assert_synthetic_bitmatch(&golden, &resumed, "final state after fallback");
        assert_stats_bitmatch(
            &golden_report.stats[resume_gen..],
            &resumed_report.stats,
            "post-fallback generations",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The orbitals every graphite walker shares (solved once, cloned per
/// walker).
fn graphite_orbitals(sys: &CoralSystem) -> SpoSet<f64> {
    SpoSet::new(sys.orbitals::<f64>(7), sys.lattice)
}

/// One graphite walker over the smallest CORAL cell (16 electrons,
/// 8 orbitals/spin) on the per-electron fast path.
fn graphite_walker(sys: &CoralSystem, spo: &SpoSet<f64>, seed: u64) -> TrialWaveFunction<f64> {
    let electrons = random_electrons(
        sys.lattice,
        sys.n_electrons(),
        &mut StdRng::seed_from_u64(seed),
    );
    let rc = sys.lattice.wigner_seitz_radius() * 0.9;
    TrialWaveFunction::new(
        spo.clone(),
        &sys.ions,
        electrons,
        BsplineFunctor::rpa_like(0.3, 1.0, rc, 20),
        BsplineFunctor::rpa_like(0.5, 1.2, rc, 20),
    )
}

fn graphite_campaign(
    sys: &CoralSystem,
    pop: usize,
) -> Campaign<WalkerPropagator<impl FnMut() -> TrialWaveFunction<f64> + '_>> {
    let mut walker_seed = 100u64;
    let spo = graphite_orbitals(sys);
    let prop = WalkerPropagator::new(
        move || {
            walker_seed += 1;
            graphite_walker(sys, &spo, walker_seed)
        },
        pop,
        0.5,
        0xFEED,
    );
    Campaign::new(
        DmcConfig {
            target_population: pop,
            tau: 0.002,
            feedback: 1.0,
            max_ratio: 2.0,
            seed: 7,
        },
        -0.5,
        prop,
        16,
    )
}

#[test]
fn wavefunction_campaign_resume_is_bit_identical() {
    let sys = CoralSystem::new(1, 1, 1, (10, 10, 12));
    let pop = 4;
    let generations = 6u64;

    let mut golden = graphite_campaign(&sys, pop);
    let golden_report = golden
        .run(&CampaignConfig::new(generations, 0), None)
        .expect("golden run");

    let dir = fresh_dir("graphite");
    let mut store = CheckpointStore::new(&dir).expect("store");
    let mut victim = graphite_campaign(&sys, pop);
    let mut cfg = CampaignConfig::new(generations, 2);
    cfg.faults = CampaignFaultPlan::kill_at(3);
    let report = victim.run(&cfg, Some(&mut store)).expect("victim run");
    assert_eq!(report.outcome, RunOutcome::Killed { generation: 3 });
    drop(victim);

    let sys_ref = &sys;
    let mut resumed = Campaign::resume_latest(&store, {
        // A fresh propagator over the same system: the factory
        // reproduces walkers with the right electron count; positions
        // come from the checkpoint.
        let mut walker_seed = 500u64;
        let spo = graphite_orbitals(sys_ref);
        WalkerPropagator::new(
            move || {
                walker_seed += 1;
                graphite_walker(sys_ref, &spo, walker_seed)
            },
            pop,
            0.5,
            0xFEED,
        )
    })
    .expect("scan")
    .expect("a checkpoint exists");
    assert_eq!(resumed.generation(), 2);
    let resumed_report = resumed
        .run(&CampaignConfig::new(generations, 2), Some(&mut store))
        .expect("resumed run");

    // Post-resume generation statistics (mixed estimator, trial energy,
    // total weight) are bit-identical to the golden run's.
    assert_stats_bitmatch(
        &golden_report.stats[2..],
        &resumed_report.stats,
        "graphite post-resume",
    );
    // Population state matches exactly.
    let (sg, sr) = (
        golden.population().snapshot(),
        resumed.population().snapshot(),
    );
    assert_eq!(sg, sr, "population snapshots");
    // Every electron position of every active walker matches bitwise:
    // the per-generation rebuild erased all incremental rounding
    // history, so the resumed trajectory is the golden trajectory.
    assert_eq!(golden.propagator().len(), resumed.propagator().len());
    for slot in 0..golden.propagator().len() {
        let (wg, wr) = (
            golden.propagator().walker(slot),
            resumed.propagator().walker(slot),
        );
        assert_eq!(wg.n_electrons(), wr.n_electrons());
        for i in 0..wg.n_electrons() {
            let (pg, pr) = (wg.electrons().get(i), wr.electrons().get(i));
            for d in 0..3 {
                assert_eq!(
                    pg[d].to_bits(),
                    pr[d].to_bits(),
                    "walker {slot} electron {i} axis {d}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_or_fully_corrupt_store_resumes_none() {
    let dir = fresh_dir("empty");
    let store = CheckpointStore::new(&dir).expect("store");
    assert!(Campaign::resume_latest(&store, blank(4))
        .expect("scan of empty store")
        .is_none());
    // A store holding only garbage behaves like an empty one.
    std::fs::write(dir.join("ckpt-0000000001.qmc"), b"not a checkpoint").unwrap();
    assert!(Campaign::resume_latest(&store, blank(4))
        .expect("scan of corrupt store")
        .is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Offsets of the item counts in a [`Campaign::encode`] payload — walker
/// count, statistics-ring length, propagator byte length, then the
/// propagator's first `prop_counts` fields — plus the ring capacity,
/// all located by reading the payload itself.
fn count_offsets(payload: &[u8], prop_counts: usize) -> (Vec<usize>, usize) {
    let at = |o: usize| u64::from_le_bytes(payload[o..o + 8].try_into().unwrap()) as usize;
    // Twelve 8-byte header fields: generation, target population, tau,
    // feedback, max ratio, seed, trial energy, next id, four RNG words.
    let walkers = 12 * 8;
    let ring_cap = walkers + 8 + 3 * 8 * at(walkers);
    let ring_len = ring_cap + 8;
    let prop_len = ring_len + 8 + 7 * 8 * at(ring_len);
    let mut counts = vec![walkers, ring_len, prop_len];
    counts.extend((0..prop_counts).map(|i| prop_len + 8 * (i + 1)));
    (counts, ring_cap)
}

/// Hostile checkpoint bytes must come back as `Ok` or `Err`: a panic
/// fails the test, and an allocation abort kills the whole binary.
fn assert_hostile_bytes_return<P: Propagator>(
    payload: &[u8],
    prop_counts: usize,
    rounds: usize,
    seed: u64,
    blank: impl Fn() -> P,
) {
    assert!(Campaign::decode(blank(), payload).is_ok(), "clean payload");
    let (counts, ring_cap) = count_offsets(payload, prop_counts);
    for hostile in [u64::MAX, 1 << 58] {
        for &off in counts.iter().chain([&ring_cap]) {
            let mut bad = payload.to_vec();
            bad[off..off + 8].copy_from_slice(&hostile.to_le_bytes());
            // Re-framed, the damage passes the CRC and reaches the decoder.
            let framed = frame(&bad);
            let inner = unframe(&framed).expect("re-framed payload validates");
            let decoded = Campaign::decode(blank(), inner);
            // A huge retention cap is legal; a huge item count is not.
            if off != ring_cap {
                assert!(decoded.is_err(), "count at {off} = {hostile:#x} decoded");
            }
        }
        let mut framed = frame(payload);
        framed[12..20].copy_from_slice(&hostile.to_le_bytes());
        assert!(unframe(&framed).is_err(), "frame length {hostile:#x}");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flip = |bytes: &mut [u8]| {
        for _ in 0..rng.random_range(1..=4usize) {
            let i = rng.random_range(0..bytes.len());
            bytes[i] ^= rng.random_range(1..=255u8);
        }
    };
    for _ in 0..rounds {
        let mut bad = payload.to_vec();
        flip(&mut bad);
        let _ = Campaign::decode(blank(), &bad);
        let mut framed = frame(payload);
        flip(&mut framed);
        if let Ok(inner) = unframe(&framed) {
            let _ = Campaign::decode(blank(), inner);
        }
    }
}

#[test]
fn hostile_checkpoint_bytes_error_instead_of_aborting() {
    let mut c = synthetic(8, 21);
    for _ in 0..3 {
        c.step();
    }
    assert_hostile_bytes_return(&c.encode(), 1, 4000, 0xBAD, || blank(8));

    let sys = CoralSystem::new(1, 1, 1, (10, 10, 12));
    let mut g = graphite_campaign(&sys, 2);
    g.step();
    let spo = graphite_orbitals(&sys);
    let walker = || WalkerPropagator::new(|| graphite_walker(&sys, &spo, 3), 1, 0.5, 0xFEED);
    assert_hostile_bytes_return(&g.encode(), 2, 200, 0xBEEF, walker);
}
