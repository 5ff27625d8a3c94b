//! Diffusion Monte Carlo driver skeleton (paper Sec. III): an ensemble
//! of walkers is propagated by (i) drift-diffusion moves, measured in a
//! (ii) measurement stage, and resampled by a (iii) branching process
//! against the trial energy.
//!
//! This driver exercises the ensemble mechanics the paper's
//! parallelization discussion rests on — a *population* of independent
//! walkers whose count fluctuates under branching and is controlled
//! towards a target (the `Nw` that the node-level parallelism
//! distributes). The population holds only what branching needs: each
//! walker's weight and age, in slot order. The local energy is a
//! function of the slot, so the population dynamics can be tested
//! exactly, and the campaign (`crate::campaign`) feeds it the energies of
//! the configurations it keeps at the same slots, replaying each
//! branching step through the parent slots [`DmcPopulation::step`]
//! records.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One walker of the DMC ensemble: its branching weight and age. A
/// walker *is* its slot: the caller keeps the walker's configuration
/// at the same index (the campaign's propagator), and
/// [`DmcPopulation::step`] reports the slot each survivor came from.
#[derive(Clone, Debug, PartialEq)]
pub struct DmcWalker {
    /// Branching weight accumulated since the last resampling.
    pub weight: f64,
    /// Age: generations since the walker last branched (stuck-walker
    /// diagnostic).
    pub age: usize,
}

/// Population-control parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DmcConfig {
    /// Target population `Nw`.
    pub target_population: usize,
    /// Imaginary-time step (weights use `exp(-τ·(E_L − E_T))`).
    pub tau: f64,
    /// Feedback strength of the trial-energy update.
    pub feedback: f64,
    /// Hard bounds on the population as a multiple of the target.
    pub max_ratio: f64,
    /// RNG seed for stochastic rounding in branching.
    pub seed: u64,
}

impl Default for DmcConfig {
    fn default() -> Self {
        Self {
            target_population: 256,
            tau: 0.01,
            feedback: 1.0,
            max_ratio: 4.0,
            seed: 0xd31c,
        }
    }
}

impl DmcConfig {
    /// Why this config cannot drive a population, if it cannot: the
    /// target must be at least one walker and the cap
    /// `⌊target × max_ratio⌋` at least the target (`max_ratio ≥ 1`),
    /// so branching always keeps a walker; `tau` must be a finite,
    /// non-negative time step and `feedback` finite.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        if self.target_population == 0 {
            return Err("target population must be at least 1");
        }
        if !(self.max_ratio.is_finite() && self.max_ratio >= 1.0) {
            return Err("max_ratio must be finite and at least 1");
        }
        if !(self.tau.is_finite() && self.tau >= 0.0) {
            return Err("tau must be finite and non-negative");
        }
        if !self.feedback.is_finite() {
            return Err("feedback must be finite");
        }
        Ok(())
    }

    fn assert_valid(&self) {
        if let Err(why) = self.check() {
            panic!("invalid DMC config {self:?}: {why}");
        }
    }
}

/// The walker population plus trial-energy state.
#[derive(Clone, Debug)]
pub struct DmcPopulation {
    walkers: Vec<DmcWalker>,
    /// Current trial energy `E_T`.
    pub trial_energy: f64,
    cfg: DmcConfig,
    rng: StdRng,
}

/// A complete, restorable image of a [`DmcPopulation`]: everything
/// [`DmcPopulation::step`] reads is here, so
/// `DmcPopulation::from_snapshot(p.snapshot())` continues *bit-identically*
/// to `p` (same branching decisions, same RNG stream, same feedback).
#[derive(Clone, Debug, PartialEq)]
pub struct DmcSnapshot {
    /// Population-control parameters.
    pub cfg: DmcConfig,
    /// The walker ensemble (weights and ages, in slot order).
    pub walkers: Vec<DmcWalker>,
    /// Current trial energy `E_T`.
    pub trial_energy: f64,
    /// Exact xoshiro256** state of the branching RNG.
    pub rng_state: [u64; 4],
}

/// Per-generation outcome of [`DmcPopulation::step`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DmcStepStats {
    /// Walkers cloned beyond their parent this generation.
    pub births: usize,
    /// Walkers whose stochastic rounding produced zero copies.
    pub deaths: usize,
    /// Weighted mean local energy after reweighting (the mixed
    /// estimator that anchors the trial-energy feedback).
    pub e_mixed: f64,
    /// Total post-reweight ensemble weight (before branching resets
    /// weights to 1).
    pub total_weight: f64,
}

impl DmcPopulation {
    /// Start from `cfg.target_population` unit-weight walkers. Panics on
    /// a target of zero, a `max_ratio` below 1, a negative `tau`, or a
    /// non-finite `tau`, `feedback` or `max_ratio`.
    pub fn new(cfg: DmcConfig, initial_energy: f64) -> Self {
        cfg.assert_valid();
        let walkers = vec![
            DmcWalker {
                weight: 1.0,
                age: 0,
            };
            cfg.target_population
        ];
        Self {
            walkers,
            trial_energy: initial_energy,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
        }
    }

    /// Current population size.
    pub fn len(&self) -> usize {
        self.walkers.len()
    }

    /// Whether the population is extinct (an error state in practice).
    pub fn is_empty(&self) -> bool {
        self.walkers.is_empty()
    }

    /// Immutable view of the walkers.
    pub fn walkers(&self) -> &[DmcWalker] {
        &self.walkers
    }

    /// Total weight of the ensemble.
    pub fn total_weight(&self) -> f64 {
        self.walkers.iter().map(|w| w.weight).sum()
    }

    /// Capture the full resumable state (see [`DmcSnapshot`]).
    pub fn snapshot(&self) -> DmcSnapshot {
        DmcSnapshot {
            cfg: self.cfg,
            walkers: self.walkers.clone(),
            trial_energy: self.trial_energy,
            rng_state: self.rng.state(),
        }
    }

    /// Rebuild a population from a snapshot; the restored population's
    /// future evolution is bit-identical to the original's. Panics on a
    /// config [`DmcPopulation::new`] would refuse.
    pub fn from_snapshot(s: DmcSnapshot) -> Self {
        s.cfg.assert_valid();
        Self {
            walkers: s.walkers,
            trial_energy: s.trial_energy,
            cfg: s.cfg,
            rng: StdRng::from_state(s.rng_state),
        }
    }

    /// One DMC generation: reweight every walker by
    /// `exp(−τ·(E_L − E_T))`, branch with stochastic rounding, and move
    /// the trial energy towards population balance (paper step iii).
    ///
    /// `local_energy` is keyed by slot index into
    /// [`DmcPopulation::walkers`]. The branching decision is recorded
    /// into `parents`: after the call, `parents[i]` is the pre-branch
    /// slot that new slot `i` was copied from, so a caller holding
    /// per-walker state in slot order replays the same copy on its side.
    pub fn step(
        &mut self,
        local_energy: impl Fn(usize) -> f64,
        parents: &mut Vec<usize>,
    ) -> DmcStepStats {
        parents.clear();

        // (ii) measurement + reweighting; accumulate the mixed estimator
        // that anchors the trial-energy update.
        let mut e_num = 0.0;
        let mut e_den = 0.0;
        for (slot, w) in self.walkers.iter_mut().enumerate() {
            let el = local_energy(slot);
            w.weight *= (-self.cfg.tau * (el - self.trial_energy)).exp();
            e_num += w.weight * el;
            e_den += w.weight;
        }
        // When the ensemble weight underflows to zero (or a weight
        // overflows), the ratio is 0/0 or ∞/∞; anchor the feedback on
        // the current E_T instead of poisoning the run with NaN.
        let raw_mixed = e_num / e_den;
        let e_mixed = if raw_mixed.is_finite() {
            raw_mixed
        } else {
            self.trial_energy
        };
        let total_weight = e_den;

        // (iii) branching with stochastic rounding: a walker of weight w
        // becomes ⌊w + u⌋ copies, u ~ U[0,1). The cap is at least one
        // walker (`DmcConfig::check`).
        let mut births = 0;
        let mut deaths = 0;
        let mut next: Vec<DmcWalker> = Vec::with_capacity(self.walkers.len());
        let cap = (self.cfg.target_population as f64 * self.cfg.max_ratio) as usize;
        for (slot, w) in self.walkers.iter().enumerate() {
            let copies = (w.weight + self.rng.random::<f64>()).floor() as usize;
            match copies {
                0 => deaths += 1,
                n => {
                    for c in 0..n.min(8) {
                        if next.len() >= cap {
                            break;
                        }
                        if c > 0 {
                            births += 1;
                        }
                        next.push(DmcWalker {
                            weight: 1.0,
                            age: if n == 1 { w.age + 1 } else { 0 },
                        });
                        parents.push(slot);
                    }
                }
            }
        }

        // Anti-extinction fallback: if stochastic rounding killed every
        // walker (all weights underflowed towards zero), resurrect the
        // heaviest post-reweight walker rather than aborting the run.
        // Deterministic (no RNG draw), so checkpoint/resume replays it.
        if next.is_empty() {
            let (slot, survivor) = self
                .walkers
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.weight.total_cmp(&b.weight))
                .expect("stepping an empty population");
            deaths -= 1;
            next.push(DmcWalker {
                weight: 1.0,
                age: survivor.age + 1,
            });
            parents.push(slot);
        }
        self.walkers = next;

        // Trial-energy feedback (textbook DMC population control):
        // E_T ← E_mixed − f·ln(N/N_target).
        let ratio = self.walkers.len() as f64 / self.cfg.target_population as f64;
        self.trial_energy = e_mixed - self.cfg.feedback * ratio.ln();

        DmcStepStats {
            births,
            deaths,
            e_mixed,
            total_weight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step whose branching record nobody replays.
    fn step(p: &mut DmcPopulation, energy: impl Fn(usize) -> f64) -> DmcStepStats {
        p.step(energy, &mut Vec::new())
    }

    fn cfg(pop: usize, seed: u64) -> DmcConfig {
        DmcConfig {
            target_population: pop,
            tau: 0.02,
            feedback: 0.5,
            max_ratio: 4.0,
            seed,
        }
    }

    #[test]
    fn starts_at_target_population() {
        let p = DmcPopulation::new(cfg(64, 1), -10.0);
        assert_eq!(p.len(), 64);
        assert!((p.total_weight() - 64.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_energy_at_trial_keeps_population_stable() {
        let mut p = DmcPopulation::new(cfg(128, 2), -5.0);
        for _ in 0..50 {
            step(&mut p, |_| -5.0);
        }
        let n = p.len() as f64;
        assert!((n - 128.0).abs() < 40.0, "population drifted to {n}");
    }

    #[test]
    fn low_energy_walkers_multiply() {
        let mut p = DmcPopulation::new(cfg(64, 3), 0.0);
        // Walkers in even slots have lower energy: they should dominate.
        for _ in 0..20 {
            step(&mut p, |slot| if slot % 2 == 0 { -2.0 } else { 2.0 });
        }
        // Population bounded by the cap and non-extinct.
        assert!(p.len() >= 16 && p.len() <= 256);
    }

    #[test]
    fn feedback_pulls_trial_energy_to_ground_state() {
        // If every walker has E_L = E0, the stationary trial energy is
        // E0: weights stay 1 ⇒ population steady ⇒ feedback vanishes.
        let e0 = -7.5;
        let mut p = DmcPopulation::new(cfg(256, 4), 0.0);
        for _ in 0..400 {
            step(&mut p, |_| e0);
        }
        assert!(
            (p.trial_energy - e0).abs() < 0.6,
            "E_T = {} vs E0 = {e0}",
            p.trial_energy
        );
    }

    #[test]
    fn population_capped_under_explosive_growth() {
        let mut p = DmcPopulation::new(cfg(32, 6), 0.0);
        for _ in 0..30 {
            step(&mut p, |_| -100.0); // huge positive weights
        }
        assert!(p.len() <= 32 * 4);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut p = DmcPopulation::new(cfg(64, seed), -1.0);
            for _ in 0..10 {
                step(&mut p, |slot| -1.0 - (slot % 3) as f64 * 0.1);
            }
            (p.len(), p.trial_energy)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn weight_underflow_keeps_one_survivor() {
        // E_L far above E_T drives every weight to ~exp(-large) ≈ 0, so
        // stochastic rounding kills all walkers. The anti-extinction
        // fallback must resurrect exactly one (the heaviest) instead of
        // panicking, and keep the run steppable afterwards.
        let mut p = DmcPopulation::new(cfg(16, 11), 0.0);
        let deaths = step(&mut p, |_| 1.0e6).deaths;
        assert_eq!(p.len(), 1, "exactly one survivor after total underflow");
        assert_eq!(deaths, 15, "the resurrected walker is not a death");
        assert!((p.total_weight() - 1.0).abs() < 1e-12);
        // Still alive and controllable: with E_L modestly below the
        // post-bottleneck E_T (≈ 1e6 after the feedback update), the
        // population regrows towards the target.
        for _ in 0..40 {
            let recover = p.trial_energy - 40.0;
            step(&mut p, |_| recover);
            assert!(!p.is_empty());
        }
        assert!(p.len() > 1, "population recovers after the bottleneck");
    }

    #[test]
    fn branching_explosion_saturates_cap_in_one_step() {
        // E_L far below E_T gives every walker weight ≫ 8: the per-walker
        // copy clamp (8) and the global cap (target × max_ratio) must
        // bound the very first generation.
        let mut p = DmcPopulation::new(cfg(32, 12), 0.0);
        let mut parents = Vec::new();
        let stats = p.step(|_| -1.0e3, &mut parents);
        let cap = 32 * 4;
        assert_eq!(p.len(), cap, "one explosive step saturates the cap");
        assert_eq!(parents.len(), cap);
        // Every parent index refers to a pre-branch slot.
        assert!(parents.iter().all(|&s| s < 32));
        assert_eq!(stats.deaths, 0);
        // Each parent contributes one non-birth first copy; everything
        // else pushed is a birth.
        let distinct_parents = parents[cap - 1] + 1;
        assert_eq!(stats.births, cap - distinct_parents);
    }

    #[test]
    fn single_walker_population_survives_and_feeds_back() {
        let mut p = DmcPopulation::new(cfg(1, 13), -2.0);
        assert_eq!(p.len(), 1);
        for _ in 0..200 {
            step(&mut p, |_| -2.0);
            assert!(!p.is_empty(), "singleton population must never go extinct");
            assert!(p.len() <= 4, "cap = target × max_ratio = 4");
        }
        assert!(
            (p.trial_energy - -2.0).abs() < 1.5,
            "E_T tracks E_L for a singleton: {}",
            p.trial_energy
        );
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let energy = |slot: usize| -3.0 + (slot % 7) as f64 * 0.2;
        let mut p = DmcPopulation::new(cfg(64, 15), -3.0);
        for _ in 0..5 {
            step(&mut p, energy);
        }
        let snap = p.snapshot();
        // Golden continuation vs restored continuation.
        let mut golden = p.clone();
        let mut restored = DmcPopulation::from_snapshot(snap.clone());
        for _ in 0..10 {
            step(&mut golden, energy);
            step(&mut restored, energy);
        }
        assert_eq!(golden.walkers(), restored.walkers());
        assert_eq!(
            golden.trial_energy.to_bits(),
            restored.trial_energy.to_bits()
        );
        assert_eq!(golden.snapshot(), restored.snapshot());
        // Snapshot round-trips exactly.
        assert_eq!(DmcPopulation::from_snapshot(snap.clone()).snapshot(), snap);
    }
}
