//! Checkpointable DMC campaign driver (the campaign half of the
//! paper's DMC milestone).
//!
//! A *campaign* is a long population-controlled DMC run that must
//! survive interruption: the driver couples a [`DmcPopulation`]
//! (weights, branching, trial-energy feedback) to a [`Propagator`]
//! holding the per-walker configuration state, records a
//! per-generation statistics ring, and periodically serializes the
//! **full resume closure** — walker weights/ages, population-control
//! state, statistics ring, the branching RNG's exact xoshiro256**
//! state, and the propagator's own state — through the
//! [`checkpoint`] format (header + CRC, atomic temp-file + rename,
//! newest-valid fallback scan).
//!
//! # A walker is its slot
//!
//! Slot `i` of the population holds walker `i`'s weight and age; slot
//! `i` of the propagator holds its configuration. Branching records
//! which pre-branch slot each new slot copies, and the propagator
//! replays that copy ([`Propagator::rebranch`]). The production
//! [`WalkerPropagator`] keeps W electron configurations and one
//! [`TrialWaveFunction`] that sweeps them in turn, so the orbital table,
//! the Jastrow functors and the wavefunction's scratch exist once per
//! campaign, not once per walker.
//!
//! # Resume-equivalence contract
//!
//! For a deterministic propagator, one generation is a pure function
//! of `(campaign state, generation index)`: the RNG streams are part
//! of the state (exact-state export, see [`rand::rngs::StdRng::state`])
//! and the wavefunction propagator re-derives all incremental caches
//! from a slot's electron positions before it sweeps that slot
//! ([`TrialWaveFunction::set_electron_positions`] rebuilds distance
//! tables, Jastrow sums and determinants from positions alone).
//! Therefore a campaign restored from any checkpoint continues
//! **bit-identically** to the uninterrupted run — same walker
//! populations, same mixed estimators, same generation statistics,
//! down to the last ulp. The suite in `tests/integration_campaign.rs`
//! proves this property over random seeds × populations × checkpoint
//! intervals × kill points, and exercises the torn-write/bit-flip
//! fallback through [`CampaignFaultPlan`].

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::drivers::dmc::{DmcConfig, DmcPopulation, DmcSnapshot, DmcWalker};
use crate::drivers::vmc::{run_vmc, VmcConfig};
use crate::wavefunction::TrialWaveFunction;

pub mod checkpoint;
pub mod fault;

pub use checkpoint::{CheckpointStore, CkptError, Reader};
pub use fault::{BitFlip, CampaignFaultPlan, TornWrite};

use checkpoint::{put_f64, put_u64};

/// Statistics of one completed DMC generation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GenStats {
    /// Generation index (1-based: recorded after the step completes).
    pub generation: u64,
    /// Post-branching population size.
    pub population: u64,
    /// Branching births this generation.
    pub births: u64,
    /// Branching deaths this generation.
    pub deaths: u64,
    /// Weighted mean local energy after reweighting.
    pub e_mixed: f64,
    /// Trial energy after the feedback update.
    pub trial_energy: f64,
    /// Total post-reweight ensemble weight.
    pub total_weight: f64,
}

impl GenStats {
    /// Encoded size: seven 8-byte fields.
    const BYTES: usize = 7 * 8;

    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.generation);
        put_u64(out, self.population);
        put_u64(out, self.births);
        put_u64(out, self.deaths);
        put_f64(out, self.e_mixed);
        put_f64(out, self.trial_energy);
        put_f64(out, self.total_weight);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            generation: r.u64()?,
            population: r.u64()?,
            births: r.u64()?,
            deaths: r.u64()?,
            e_mixed: r.f64()?,
            trial_energy: r.f64()?,
            total_weight: r.f64()?,
        })
    }
}

/// Bounded ring of the most recent [`GenStats`], checkpointed with the
/// campaign so a resumed run reports the same trailing window.
#[derive(Clone, Debug, PartialEq)]
pub struct GenStatsRing {
    cap: usize,
    data: VecDeque<GenStats>,
}

impl GenStatsRing {
    /// An empty ring retaining the last `cap` generations (`cap ≥ 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "ring capacity must be positive");
        Self {
            cap,
            data: VecDeque::with_capacity(cap),
        }
    }

    /// Generations currently retained.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append, evicting the oldest entry when full.
    pub fn push(&mut self, stats: GenStats) {
        if self.data.len() == self.cap {
            self.data.pop_front();
        }
        self.data.push_back(stats);
    }

    /// Oldest-to-newest iteration.
    pub fn iter(&self) -> impl Iterator<Item = &GenStats> {
        self.data.iter()
    }

    /// The most recent entry.
    pub fn latest(&self) -> Option<&GenStats> {
        self.data.back()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.cap as u64);
        put_u64(out, self.data.len() as u64);
        for s in &self.data {
            s.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let cap = r.len_u64()?;
        if cap == 0 {
            return Err(CkptError::Malformed("zero ring capacity"));
        }
        let len = r.count(GenStats::BYTES)?;
        if len > cap {
            return Err(CkptError::Malformed("ring length exceeds capacity"));
        }
        // Allocate what was recorded, not the (unbounded) capacity.
        let mut data = VecDeque::with_capacity(len);
        for _ in 0..len {
            data.push_back(GenStats::decode(r)?);
        }
        Ok(Self { cap, data })
    }
}

/// Per-walker configuration state driven by the campaign.
///
/// The campaign keeps `len()` in lockstep with the walker population:
/// each generation it calls [`Propagator::propagate`] for fresh local
/// energies (slot-indexed), lets the population branch, then replays
/// the branching on the propagator through [`Propagator::rebranch`].
///
/// For the resume-equivalence contract to hold, `propagate` must be a
/// pure function of `(self, generation)` — any RNG it uses belongs in
/// `encode`/`decode`, or must be derived from `generation` alone.
pub trait Propagator {
    /// Number of walker slots.
    fn len(&self) -> usize;

    /// Whether no slots exist.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Advance every slot one generation; `out[i]` is slot `i`'s local
    /// energy.
    fn propagate(&mut self, generation: u64) -> Vec<f64>;

    /// Replay a branching step: after the call, slot `i` must hold a
    /// copy of pre-branch slot `parents[i]` (indices may repeat; the
    /// slot count becomes `parents.len()`).
    fn rebranch(&mut self, parents: &[usize]);

    /// Serialize all state `propagate` depends on.
    fn encode(&self, out: &mut Vec<u8>);

    /// Restore state written by [`Propagator::encode`].
    fn decode(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError>;
}

/// A cheap deterministic [`Propagator`] for population-dynamics and
/// crash-recovery tests: each slot is one coordinate in a quadratic
/// well, jittered by a checkpointed RNG, with `E = ½x²`.
#[derive(Clone, Debug)]
pub struct SyntheticPropagator {
    xs: Vec<f64>,
    rng: StdRng,
    sigma: f64,
}

impl SyntheticPropagator {
    /// `n` slots with deterministically spread initial coordinates and
    /// jitter amplitude `sigma`.
    pub fn new(n: usize, seed: u64, sigma: f64) -> Self {
        Self {
            xs: (0..n).map(|i| ((i as f64) * 0.7391 + 0.2).sin()).collect(),
            rng: StdRng::seed_from_u64(seed),
            sigma,
        }
    }
}

impl Propagator for SyntheticPropagator {
    fn len(&self) -> usize {
        self.xs.len()
    }

    fn propagate(&mut self, _generation: u64) -> Vec<f64> {
        for x in &mut self.xs {
            *x = 0.95 * *x + self.sigma * (self.rng.random::<f64>() - 0.5);
        }
        self.xs.iter().map(|&x| 0.5 * x * x).collect()
    }

    fn rebranch(&mut self, parents: &[usize]) {
        self.xs = parents.iter().map(|&p| self.xs[p]).collect();
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.xs.len() as u64);
        for &x in &self.xs {
            put_f64(out, x);
        }
        for w in self.rng.state() {
            put_u64(out, w);
        }
        put_f64(out, self.sigma);
    }

    fn decode(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
        let n = r.count(8)?;
        let mut xs = Vec::with_capacity(n);
        for _ in 0..n {
            xs.push(r.f64()?);
        }
        let state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        if state == [0; 4] {
            return Err(CkptError::Malformed("all-zero RNG state"));
        }
        self.sigma = r.f64()?;
        self.xs = xs;
        self.rng = StdRng::from_state(state);
        Ok(())
    }
}

/// The production [`Propagator`]: W electron configurations swept in
/// turn by one Slater–Jastrow [`TrialWaveFunction`], with
/// particle-by-particle VMC on the single-electron fast path, measuring
/// the kinetic local energy.
///
/// A walker is its positions. Each generation, each slot's positions
/// are written into the wavefunction, which rebuilds every incremental
/// cache from them (`set_electron_positions`); the slot is swept
/// (`run_vmc`) and its swept positions are written back. So the
/// wavefunction is scratch shared by every slot, and the state
/// branching copies and a checkpoint carries is *just the positions*:
/// Sherman–Morrison rounding history cannot leak across a slot or a
/// checkpoint boundary, which is what makes resume bit-exact on the
/// real wavefunction path, not only on synthetic walkers. A parallel
/// generation needs only one wavefunction per worker, each sweeping a
/// chunk of the configurations.
pub struct WalkerPropagator {
    wf: TrialWaveFunction<f64>,
    configs: Vec<Vec<[f64; 3]>>,
    step_size: f64,
    seed: u64,
}

impl WalkerPropagator {
    /// One walker slot per entry of `configs`, each a full set of
    /// `wf.n_electrons()` positions, swept by `wf` (whose own positions
    /// are overwritten). Moves use a cubic proposal of amplitude
    /// `step_size`; `seed` derives the per-(generation, slot) sweep
    /// seeds.
    pub fn new(
        wf: TrialWaveFunction<f64>,
        configs: Vec<Vec<[f64; 3]>>,
        step_size: f64,
        seed: u64,
    ) -> Self {
        assert!(
            configs.iter().all(|c| c.len() == wf.n_electrons()),
            "every configuration must hold one position per electron"
        );
        Self {
            wf,
            configs,
            step_size,
            seed,
        }
    }

    fn move_seed(&self, generation: u64, slot: usize) -> u64 {
        self.seed
            ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (slot as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
    }

    /// The electron positions of the walker at `slot`.
    pub fn positions(&self, slot: usize) -> &[[f64; 3]] {
        &self.configs[slot]
    }
}

impl Propagator for WalkerPropagator {
    fn len(&self) -> usize {
        self.configs.len()
    }

    fn propagate(&mut self, generation: u64) -> Vec<f64> {
        let mut energies = Vec::with_capacity(self.configs.len());
        for slot in 0..self.configs.len() {
            let seed = self.move_seed(generation, slot);
            let wf = &mut self.wf;
            // Rebuild every incremental cache from positions: the
            // resume-equivalence linchpin (see the type-level docs).
            wf.set_electron_positions(&self.configs[slot]);
            let res = run_vmc(
                wf,
                &VmcConfig {
                    n_steps: 1,
                    step_size: self.step_size,
                    seed,
                },
            );
            self.configs[slot] = wf.electrons().to_aos();
            energies.push(res.kinetic);
        }
        energies
    }

    fn rebranch(&mut self, parents: &[usize]) {
        self.configs = parents.iter().map(|&p| self.configs[p].clone()).collect();
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.configs.len() as u64);
        put_u64(out, self.wf.n_electrons() as u64);
        for r in self.configs.iter().flatten() {
            put_f64(out, r[0]);
            put_f64(out, r[1]);
            put_f64(out, r[2]);
        }
    }

    fn decode(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
        let have = self.wf.n_electrons();
        // Each walker is `have` positions of three f64s.
        let n_walkers = r.count(have * 3 * 8)?;
        let n_el = r.len_u64()?;
        if n_el != have {
            return Err(CkptError::Malformed("electron count mismatch"));
        }
        let mut configs = Vec::with_capacity(n_walkers);
        for _ in 0..n_walkers {
            let mut pos = Vec::with_capacity(n_el);
            for _ in 0..n_el {
                pos.push([r.f64()?, r.f64()?, r.f64()?]);
            }
            configs.push(pos);
        }
        self.configs = configs;
        Ok(())
    }
}

/// How far to run and when to checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Total generations the campaign should reach.
    pub generations: u64,
    /// Checkpoint after every this-many generations (`0` = never).
    pub checkpoint_every: u64,
    /// Scripted failures for this run (default: none).
    pub faults: CampaignFaultPlan,
}

impl CampaignConfig {
    /// Run `generations` generations, checkpointing every
    /// `checkpoint_every`, with no injected faults.
    pub fn new(generations: u64, checkpoint_every: u64) -> Self {
        Self {
            generations,
            checkpoint_every,
            faults: CampaignFaultPlan::default(),
        }
    }
}

/// How a [`Campaign::run`] call ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Reached `CampaignConfig::generations`.
    Completed,
    /// Stopped by [`CampaignFaultPlan::kill_at_generation`].
    Killed {
        /// Generations completed when the kill fired.
        generation: u64,
    },
}

/// Result of one [`Campaign::run`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Why the run stopped.
    pub outcome: RunOutcome,
    /// Statistics of every generation executed *by this call* (a
    /// resumed run reports only post-resume generations).
    pub stats: Vec<GenStats>,
}

/// A checkpointable DMC campaign: population control + configuration
/// propagation + statistics + (de)serialization. See the module docs
/// for the resume-equivalence contract.
pub struct Campaign<P: Propagator> {
    pop: DmcPopulation,
    prop: P,
    stats: GenStatsRing,
    generation: u64,
}

impl<P: Propagator> Campaign<P> {
    /// Start a fresh campaign: `prop` must hold exactly
    /// `cfg.target_population` slots (one per initial walker).
    pub fn new(cfg: DmcConfig, initial_energy: f64, prop: P, stats_capacity: usize) -> Self {
        assert_eq!(
            prop.len(),
            cfg.target_population,
            "propagator slots must match the initial population"
        );
        Self {
            pop: DmcPopulation::new(cfg, initial_energy),
            prop,
            stats: GenStatsRing::new(stats_capacity),
            generation: 0,
        }
    }

    /// Generations completed so far.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The walker population.
    pub fn population(&self) -> &DmcPopulation {
        &self.pop
    }

    /// The configuration propagator.
    pub fn propagator(&self) -> &P {
        &self.prop
    }

    /// The retained per-generation statistics.
    pub fn stats(&self) -> &GenStatsRing {
        &self.stats
    }

    /// Advance one generation: propagate → measure → branch → replay
    /// the branching on the propagator → record statistics.
    pub fn step(&mut self) -> GenStats {
        let energies = self.prop.propagate(self.generation);
        assert_eq!(energies.len(), self.pop.len(), "propagator out of sync");
        let mut parents = Vec::new();
        let step = self.pop.step(|slot| energies[slot], &mut parents);
        self.prop.rebranch(&parents);
        self.generation += 1;
        let gs = GenStats {
            generation: self.generation,
            population: self.pop.len() as u64,
            births: step.births as u64,
            deaths: step.deaths as u64,
            e_mixed: step.e_mixed,
            trial_energy: self.pop.trial_energy,
            total_weight: step.total_weight,
        };
        self.stats.push(gs);
        gs
    }

    /// Run until `cfg.generations`, checkpointing into `store` every
    /// `cfg.checkpoint_every` generations and honouring the fault plan
    /// (storage faults mangle writes; the kill stops the driver as if
    /// the process died — in-memory state is simply abandoned).
    pub fn run(
        &mut self,
        cfg: &CampaignConfig,
        mut store: Option<&mut CheckpointStore>,
    ) -> Result<RunReport, CkptError> {
        let mut report = RunReport {
            outcome: RunOutcome::Completed,
            stats: Vec::new(),
        };
        while self.generation < cfg.generations {
            let gs = self.step();
            report.stats.push(gs);
            if let Some(store) = store.as_deref_mut() {
                if cfg.checkpoint_every > 0 && self.generation.is_multiple_of(cfg.checkpoint_every)
                {
                    store.write(self.generation, &self.encode(), &cfg.faults)?;
                }
            }
            if cfg.faults.kill_at_generation == Some(self.generation) {
                report.outcome = RunOutcome::Killed {
                    generation: self.generation,
                };
                break;
            }
        }
        Ok(report)
    }

    /// Serialize the full resume closure (pair with
    /// [`Campaign::decode`]).
    pub fn encode(&self) -> Vec<u8> {
        let snap = self.pop.snapshot();
        let mut out = Vec::new();
        put_u64(&mut out, self.generation);
        put_u64(&mut out, snap.cfg.target_population as u64);
        put_f64(&mut out, snap.cfg.tau);
        put_f64(&mut out, snap.cfg.feedback);
        put_f64(&mut out, snap.cfg.max_ratio);
        put_u64(&mut out, snap.cfg.seed);
        put_f64(&mut out, snap.trial_energy);
        for w in snap.rng_state {
            put_u64(&mut out, w);
        }
        put_u64(&mut out, snap.walkers.len() as u64);
        for w in &snap.walkers {
            put_f64(&mut out, w.weight);
            put_u64(&mut out, w.age as u64);
        }
        self.stats.encode(&mut out);
        let mut prop_bytes = Vec::new();
        self.prop.encode(&mut prop_bytes);
        put_u64(&mut out, prop_bytes.len() as u64);
        out.extend_from_slice(&prop_bytes);
        out
    }

    /// Rebuild a campaign from [`Campaign::encode`] bytes. `prop` is a
    /// freshly-constructed propagator over the same system; its state
    /// is overwritten by the checkpoint. A population config that
    /// [`DmcPopulation::new`] would refuse is [`CkptError::Malformed`].
    pub fn decode(mut prop: P, payload: &[u8]) -> Result<Self, CkptError> {
        let mut r = Reader::new(payload);
        let generation = r.u64()?;
        let cfg = DmcConfig {
            target_population: r.len_u64()?,
            tau: r.f64()?,
            feedback: r.f64()?,
            max_ratio: r.f64()?,
            seed: r.u64()?,
        };
        cfg.check().map_err(CkptError::Malformed)?;
        let trial_energy = r.f64()?;
        let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        if rng_state == [0; 4] {
            return Err(CkptError::Malformed("all-zero RNG state"));
        }
        // Each walker is a weight and an age.
        let n_walkers = r.count(2 * 8)?;
        let mut walkers = Vec::with_capacity(n_walkers);
        for _ in 0..n_walkers {
            walkers.push(DmcWalker {
                weight: r.f64()?,
                age: r.len_u64()?,
            });
        }
        if walkers.is_empty() {
            return Err(CkptError::Malformed("empty walker population"));
        }
        let stats = GenStatsRing::decode(&mut r)?;
        let prop_len = r.len_u64()?;
        let prop_bytes = r.bytes(prop_len)?;
        if r.remaining() != 0 {
            return Err(CkptError::Malformed("trailing bytes"));
        }
        let mut pr = Reader::new(prop_bytes);
        prop.decode(&mut pr)?;
        if pr.remaining() != 0 {
            return Err(CkptError::Malformed("trailing propagator bytes"));
        }
        if prop.len() != walkers.len() {
            return Err(CkptError::Malformed("propagator/population size mismatch"));
        }
        Ok(Self {
            pop: DmcPopulation::from_snapshot(DmcSnapshot {
                cfg,
                walkers,
                trial_energy,
                rng_state,
            }),
            prop,
            stats,
            generation,
        })
    }

    /// Resume from the newest CRC-valid checkpoint in `store`
    /// (`Ok(None)` when none exists — start fresh instead).
    pub fn resume_latest(store: &CheckpointStore, prop: P) -> Result<Option<Self>, CkptError> {
        match store.latest_valid()? {
            None => Ok(None),
            Some((_generation, payload)) => Ok(Some(Self::decode(prop, &payload)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dmc_cfg(pop: usize, seed: u64) -> DmcConfig {
        DmcConfig {
            target_population: pop,
            tau: 0.05,
            feedback: 1.0,
            max_ratio: 4.0,
            seed,
        }
    }

    fn synthetic_campaign(pop: usize, seed: u64) -> Campaign<SyntheticPropagator> {
        Campaign::new(
            dmc_cfg(pop, seed),
            0.2,
            SyntheticPropagator::new(pop, seed ^ 0xABCD, 0.4),
            8,
        )
    }

    /// The encoding carries every float as its bit pattern, so equal
    /// bytes are bit-identical state.
    fn assert_bit_identical(a: &Campaign<SyntheticPropagator>, b: &Campaign<SyntheticPropagator>) {
        assert_eq!(a.generation(), b.generation());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn encode_decode_roundtrip_then_identical_evolution() {
        let mut c = synthetic_campaign(24, 7);
        for _ in 0..5 {
            c.step();
        }
        let bytes = c.encode();
        let mut d = Campaign::decode(SyntheticPropagator::new(24, 0, 0.0), &bytes).expect("decode");
        assert_bit_identical(&c, &d);
        for _ in 0..7 {
            let gc = c.step();
            let gd = d.step();
            assert_eq!(gc.e_mixed.to_bits(), gd.e_mixed.to_bits());
            assert_eq!(gc, gd);
        }
        assert_bit_identical(&c, &d);
    }

    #[test]
    fn kill_then_resume_matches_golden() {
        let dir = std::env::temp_dir().join(format!("qmc-campaign-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut golden = synthetic_campaign(16, 3);
        let golden_report = golden
            .run(&CampaignConfig::new(20, 1), None)
            .expect("golden");
        assert_eq!(golden_report.outcome, RunOutcome::Completed);

        let mut store = CheckpointStore::new(&dir).unwrap();
        let mut victim = synthetic_campaign(16, 3);
        let mut cfg = CampaignConfig::new(20, 3);
        cfg.faults = CampaignFaultPlan::kill_at(8);
        let report = victim.run(&cfg, Some(&mut store)).expect("victim");
        assert_eq!(report.outcome, RunOutcome::Killed { generation: 8 });
        drop(victim); // the "process" died; only the store survives

        let mut resumed = Campaign::resume_latest(&store, SyntheticPropagator::new(16, 0, 0.0))
            .expect("scan")
            .expect("a checkpoint exists");
        // Kill at 8 with interval 3 → last checkpoint at generation 6.
        assert_eq!(resumed.generation(), 6);
        let resumed_report = resumed
            .run(&CampaignConfig::new(20, 3), Some(&mut store))
            .expect("resume");
        assert_eq!(resumed_report.outcome, RunOutcome::Completed);
        assert_bit_identical(&golden, &resumed);
        // Per-generation stats from the resume point match the golden
        // run exactly.
        assert_eq!(&golden_report.stats[6..], &resumed_report.stats[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut ring = GenStatsRing::new(3);
        for g in 1..=5u64 {
            ring.push(GenStats {
                generation: g,
                population: 1,
                births: 0,
                deaths: 0,
                e_mixed: 0.0,
                trial_energy: 0.0,
                total_weight: 1.0,
            });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(
            ring.iter().map(|s| s.generation).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(ring.latest().unwrap().generation, 5);
    }

    #[test]
    fn decode_rejects_structural_damage() {
        let mut c = synthetic_campaign(8, 9);
        c.step();
        let bytes = c.encode();
        // Truncation anywhere inside the payload is caught.
        for keep in [0, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Campaign::<SyntheticPropagator>::decode(
                    SyntheticPropagator::new(8, 0, 0.0),
                    &bytes[..keep]
                )
                .is_err(),
                "keep={keep}"
            );
        }
        // Trailing garbage is caught too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(Campaign::<SyntheticPropagator>::decode(
            SyntheticPropagator::new(8, 0, 0.0),
            &long
        )
        .is_err());
    }
}
