//! The reference-clock window estimator.
//!
//! What this host does to identical code (README, "Why windows"):
//!
//! * its cores change clock in 100 MHz steps between 2.7 and 4.2 GHz,
//!   for milliseconds to minutes at a time, with the turbo budget the
//!   other guests leave; whole-run means and medians swing by tens of
//!   percent, and a run that never meets the top step reads 20 % slow
//!   under any statistic of wall time;
//! * now and then something else (a neighbour on the sibling hardware
//!   thread, a host interrupt) adds time to a window without moving the
//!   clock. Interference of this kind only ever adds time.
//!
//! So a run is cut into short windows of a fixed op count, each timed by
//! one `Instant` pair and bracketed by two readings of the core clock
//! (`host.rs`: the time of a dependent FMA chain, a fixed count of core
//! cycles). A window whose two readings agree ran at one clock, and its
//! time is rescaled to the reference clock: seconds become cycles. What
//! is left is the one-sided interference, which a low percentile of the
//! rescaled times steps over. The share of windows near the estimate and
//! the share at a steady clock are reported beside it, so that a run
//! with no quiet windows is visible instead of silently averaged in.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Half-width of the band around the estimate that counts as quiet.
pub const QUIET_BAND: f64 = 0.05;

/// Two clock readings this close (relative) bracket a steady clock. The
/// clock moves in steps of 2.5 % and more; a reading repeats to 0.1 %.
pub const STEADY_BAND: f64 = 0.005;

/// The percentile of the rescaled window times that stands for a
/// series: the lower quartile, i.e. the p75 window *rate*. Low enough
/// to step over the windows something added time to as long as a
/// quarter of them are clean; far enough from the tail that neither a
/// misread clock nor a pipelined workload's lucky windows (the service's
/// client finds a window's worth of results already waiting, at the
/// expense of the next window) can make it: at the tenth percentile
/// `service_mixed` read 10 % fast in one run of six, at the quartile
/// none of seventeen did.
pub const FAST_TAIL: f64 = 0.25;

/// The percentile of the wall times that stands for a series where the
/// clock is not divided out: the issue's p95 window rate. A wall time
/// cannot be misread, so the tail can be thinner than [`FAST_TAIL`];
/// it has to be, because only the windows at the run's top clock step
/// repeat (ten-run spread 2–7 % at this tail, 13–27 % at the quartile).
pub const WALL_TAIL: f64 = 0.05;

/// Core cycles one pass of the clock chain takes (`host.rs`): 8000
/// dependent FMAs of 4 cycles each.
pub const CHAIN_CYCLES: f64 = 32_000.0;

/// The reference clock. Rescaled times are seconds *at this clock*: a
/// unit (3.692e9 core cycles), not a measurement, and never to be
/// changed, or rates stop comparing across commits. The value is where
/// the cores this benchmark was written on sit under AVX2 load when
/// nothing else wants the turbo budget, so that on a quiet run the
/// reference rate and the wall-clock rate read the same. (A reference
/// taken from the run itself — its fastest steady clock reading — was
/// tried: which step is the top one changes from run to run, and single
/// runs read 13 % fast or 24 % slow; REPEATABILITY.md.)
pub const REFERENCE_HZ: f64 = 3.692e9;

/// Chain time at the reference clock.
pub const REFERENCE_CHAIN_S: f64 = CHAIN_CYCLES / REFERENCE_HZ;

/// Stack-alignment classes a series is measured in (`host.rs`).
pub const CLASSES: usize = 2;

/// One timed interval and the core clock around it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Wall seconds of the interval.
    pub secs: f64,
    /// Seconds the clock chain took just before the interval.
    pub chain_before: f64,
    /// Seconds the clock chain took just after it.
    pub chain_after: f64,
    /// Stack-alignment class the interval ran in, `< CLASSES`.
    pub class: u8,
}

impl Sample {
    /// Whether the clock read the same before and after.
    pub fn steady(&self) -> bool {
        (self.chain_before - self.chain_after).abs()
            <= STEADY_BAND * self.chain_before.min(self.chain_after)
    }

    /// What rescales this sample's wall seconds to the reference clock.
    pub fn reference_scale(&self) -> f64 {
        REFERENCE_CHAIN_S / (0.5 * (self.chain_before + self.chain_after))
    }

    /// The interval's seconds at the reference clock.
    pub fn ref_secs(&self) -> f64 {
        self.secs * self.reference_scale()
    }

    /// The core clock around the interval, Hz.
    pub fn clock_hz(&self) -> f64 {
        CHAIN_CYCLES / (0.5 * (self.chain_before + self.chain_after))
    }
}

/// How many of `n` samples lie beyond the percentile `tail` from the
/// end (`tail = 0.05` is p95), after the at-least-[`MIN_BEYOND`] rule:
/// the tail never holds fewer than ten samples, and with too few
/// samples for even that the percentile degrades to the median.
pub fn beyond(n: usize, tail: f64) -> usize {
    assert!(n > 0, "percentile of an empty series");
    let want = ((n as f64) * tail).floor() as usize;
    want.max(MIN_BEYOND).min((n - 1) / 2)
}

/// The value with `beyond(n, tail)` samples strictly below it — the
/// *low* percentile of a series where smaller is better (times).
pub fn low_percentile(sorted: &[f64], tail: f64) -> f64 {
    sorted[beyond(sorted.len(), tail)]
}

/// The value with `beyond(n, tail)` samples strictly above it — the
/// *high* percentile of a series where larger is worse (latencies).
pub fn high_percentile(sorted: &[f64], tail: f64) -> f64 {
    sorted[sorted.len() - 1 - beyond(sorted.len(), tail)]
}

/// Ascending copy; panics on NaN (a NaN time is a harness bug).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing series"));
    v
}

/// Median (mean of the middle two for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of an empty series");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Summary of one series of windows.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    /// Windows measured.
    pub n: usize,
    /// Seconds per window at the reference clock: per stack class, the
    /// [`FAST_TAIL`] percentile of the steady windows' rescaled times;
    /// then the mean of the classes. `ops_per_window / fast_s` is the
    /// reported rate. For core-bound work only: time spent waiting for
    /// memory, a timer or another thread does not follow the core clock.
    pub fast_s: f64,
    /// Wall seconds per window as the host delivered them: the
    /// [`WALL_TAIL`] percentile of all windows' wall times. What series
    /// that are not core-bound are reported from, and what is printed
    /// beside every reference-clock rate.
    pub wall_s: f64,
    /// Whole-run mean wall seconds per window.
    pub mean_s: f64,
    /// Share of windows whose rescaled time is within ±[`QUIET_BAND`]
    /// of the estimate.
    pub quiet_frac: f64,
    /// Share of windows that ran at a steady clock.
    pub steady_frac: f64,
    /// Interquartile range of the wall times over their median: the
    /// spread reported beside the numbers that are shown but not gated.
    pub iqr_frac: f64,
    /// Median core clock of the steady windows, GHz: the clock the host
    /// granted this code. The rescaling divides it out of `fast_s`, so a
    /// change that makes the cores clock lower shows here and in
    /// `wall_s`, not there.
    pub clock_ghz: f64,
}

impl Windows {
    /// Summarise a series.
    pub fn of(samples: &[Sample]) -> Self {
        assert!(!samples.is_empty(), "summary of an empty series");
        let mut by_class: Vec<f64> = (0..CLASSES)
            .filter_map(|class| class_estimate(samples, class))
            .collect();
        if by_class.is_empty() {
            // Too short a series for any class (a smoke run): the median
            // of everything there is.
            by_class.push(median(
                &samples.iter().map(Sample::ref_secs).collect::<Vec<_>>(),
            ));
        }
        let fast_s = by_class.iter().sum::<f64>() / by_class.len() as f64;
        let quiet = samples
            .iter()
            .filter(|s| is_quiet(s.ref_secs(), fast_s))
            .count();
        let wall: Vec<f64> = samples.iter().map(|s| s.secs).collect();
        let steady_clocks: Vec<f64> = samples
            .iter()
            .filter(|s| s.steady())
            .map(Sample::clock_hz)
            .collect();
        let n = samples.len();
        let (q1, q2, q3) = if n >= 2 {
            quartiles(&wall)
        } else {
            (wall[0], wall[0], wall[0])
        };
        Self {
            n,
            fast_s,
            wall_s: low_percentile(&sorted(&wall), WALL_TAIL),
            mean_s: wall.iter().sum::<f64>() / n as f64,
            quiet_frac: quiet as f64 / n as f64,
            steady_frac: steady_clocks.len() as f64 / n as f64,
            iqr_frac: (q3 - q1) / q2,
            clock_ghz: if steady_clocks.is_empty() {
                0.0
            } else {
                median(&steady_clocks) / 1e9
            },
        }
    }

    /// The reference-clock rate for `ops` operations per window.
    pub fn rate(&self, ops: f64) -> f64 {
        ops / self.fast_s
    }

    /// The wall-clock rate for `ops` operations per window.
    pub fn wall_rate(&self, ops: f64) -> f64 {
        ops / self.wall_s
    }

    /// Whole-run mean wall rate over the reported rate: how far the
    /// host's clock and neighbours kept this run from the reference.
    pub fn mean_over_fast(&self) -> f64 {
        self.fast_s / self.mean_s
    }
}

/// The [`FAST_TAIL`] percentile of the steady windows of one class;
/// `None` when fewer than [`MIN_BEYOND`] of them were steady (a window
/// rescaled with a clock it did not run at can read fast as well as
/// slow, so unsteady ones never stand in).
fn class_estimate(samples: &[Sample], class: usize) -> Option<f64> {
    let times: Vec<f64> = samples
        .iter()
        .filter(|s| usize::from(s.class) == class && s.steady())
        .map(Sample::ref_secs)
        .collect();
    (times.len() >= MIN_BEYOND).then(|| low_percentile(&sorted(&times), FAST_TAIL))
}

/// Whether a window time lies in the quiet band around `fast_s`.
pub fn is_quiet(t: f64, fast_s: f64) -> bool {
    (t - fast_s).abs() <= QUIET_BAND * fast_s
}

/// Quartiles `(q1, median, q3)` by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so `--repeat` prints
/// the spread the driver will compute.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let q = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A window of `secs` at `clock` times the reference clock period
    /// (1.0 = the reference clock, 1.4 = a clock 1.4x slower).
    fn at(secs: f64, clock: f64, class: usize) -> Sample {
        Sample {
            secs: secs * clock,
            chain_before: REFERENCE_CHAIN_S * clock,
            chain_after: REFERENCE_CHAIN_S * clock,
            class: class as u8,
        }
    }

    #[test]
    fn ten_beyond_rule() {
        assert_eq!(beyond(1200, 0.05), 60);
        assert_eq!(beyond(300, 0.05), 15);
        assert_eq!(beyond(100, 0.05), 10); // p95 would leave 5: widened to 10
        assert_eq!(beyond(100, 0.01), 10); // p99 degrades to p90
        assert_eq!(beyond(15, 0.05), 7); // too few for ten: the median
        assert_eq!(beyond(1, 0.05), 0);
        assert_eq!(beyond(5000, FAST_TAIL), 1250);
    }

    #[test]
    fn percentiles_pick_the_right_rank() {
        let s: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert_eq!(low_percentile(&s, 0.05), 50.0);
        assert_eq!(high_percentile(&s, 0.05), 949.0);
        assert_eq!(high_percentile(&s, 0.01), 989.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn samples_rescale_to_the_reference_clock() {
        let s = at(0.025, 1.3, 0);
        assert!(s.steady());
        assert!((s.ref_secs() - 0.025).abs() < 1e-15);
        assert!((s.clock_hz() - REFERENCE_HZ / 1.3).abs() < 1.0);
        let stepped = Sample {
            chain_after: s.chain_after * 1.03,
            ..s
        };
        assert!(!stepped.steady());
    }

    /// 70 % of the windows slowed 1.4x, in multi-second bursts like the
    /// host's slow clocks, with 1 % jitter: the estimate must read
    /// within 1 % of the quiet rate where mean and median are off by
    /// 20–40 % — whether the clock readings show the slow-down (a clock
    /// step) or not (a neighbour), and also when the run never meets
    /// the reference clock at all.
    #[test]
    fn bimodal_run_reads_the_quiet_rate() {
        let quiet = 0.025;
        for (clock_moves, ever_fast) in [(true, true), (false, true), (true, false)] {
            let mut rng = StdRng::seed_from_u64(12);
            let mut samples = Vec::new();
            let mut slow = true;
            while samples.len() < 1200 {
                let burst = if slow { 140 } else { 60 };
                for _ in 0..burst {
                    let jitter = 1.0 + 0.01 * (rng.random::<f64>() - 0.5);
                    let class = samples.len() % CLASSES;
                    let factor = if slow || !ever_fast { 1.4 } else { 1.0 };
                    samples.push(if clock_moves {
                        at(quiet * jitter, factor, class)
                    } else {
                        at(quiet * jitter * factor, 1.0, class)
                    });
                }
                slow = !slow;
            }
            samples.truncate(1200);
            let w = Windows::of(&samples);
            assert!(
                (w.fast_s / quiet - 1.0).abs() < 0.01,
                "fast {} ({clock_moves}, {ever_fast})",
                w.fast_s
            );
            let wall: Vec<f64> = samples.iter().map(|s| s.secs).collect();
            assert!(median(&wall) / quiet > 1.3);
            assert!(w.mean_over_fast() < 0.8);
            assert_eq!(w.steady_frac, 1.0);
            if clock_moves {
                assert!(
                    w.quiet_frac > 0.99,
                    "rescaled, every window is quiet: {}",
                    w.quiet_frac
                );
            } else {
                assert!(
                    (0.25..0.35).contains(&w.quiet_frac),
                    "quiet {}",
                    w.quiet_frac
                );
            }
        }
    }

    /// Windows the clock stepped inside are left out of the estimate.
    #[test]
    fn windows_across_a_clock_step_do_not_count() {
        let mut samples: Vec<Sample> = (0..400).map(|i| at(0.010, 1.0, i % CLASSES)).collect();
        // A third of the windows began at a slow clock and ended at the
        // fast one: the mean of the readings overstates their cycles'
        // worth, and rescaled they would read 10 % too fast.
        for s in samples.iter_mut().step_by(3) {
            s.chain_before *= 1.4;
            s.secs *= 1.08;
        }
        let w = Windows::of(&samples);
        assert!((w.fast_s / 0.010 - 1.0).abs() < 1e-12, "fast {}", w.fast_s);
        assert!((0.6..0.7).contains(&w.steady_frac));
    }

    /// The two stack classes are estimated apart and averaged.
    #[test]
    fn stack_classes_are_averaged() {
        let samples: Vec<Sample> = (0..400)
            .map(|i| at(if i % 2 == 0 { 0.010 } else { 0.011 }, 1.0, i % 2))
            .collect();
        let w = Windows::of(&samples);
        assert!((w.fast_s - 0.0105).abs() < 1e-12);
        assert_eq!(w.quiet_frac, 1.0);
        let one_class: Vec<Sample> = samples.iter().filter(|s| s.class == 1).copied().collect();
        assert!((Windows::of(&one_class).fast_s - 0.011).abs() < 1e-12);
    }

    /// A series too short for any class reads its median.
    #[test]
    fn a_smoke_run_reads_its_median() {
        let samples: Vec<Sample> = [0.011, 0.010, 0.030, 0.012, 0.013]
            .iter()
            .map(|&s| at(s, 1.2, 0))
            .collect();
        assert!((Windows::of(&samples).fast_s - 0.012).abs() < 1e-12);
    }

    /// Every window disturbed by a different amount (no quiet mode at
    /// all): no estimator can know the quiet rate, and the run must say
    /// so through `quiet_frac` instead of looking like a clean one.
    #[test]
    fn run_without_quiet_windows_is_flagged() {
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<Sample> = (0..1200)
            .map(|i| at(0.025 * (1.0 + 40.0 * rng.random::<f64>()), 1.0, i % CLASSES))
            .collect();
        let w = Windows::of(&samples);
        assert!(w.quiet_frac < 0.05, "quiet {}", w.quiet_frac);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 5, 2, 9, 4], n=4) -> [1.5, 4.0, 7.0]
        let (q1, q2, q3) = quartiles(&[1.0, 5.0, 2.0, 9.0, 4.0]);
        assert_eq!((q1, q2, q3), (1.5, 4.0, 7.0));
    }
}
