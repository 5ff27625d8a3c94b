//! Per-category runtime accounting — the instrument behind Tables II–IV.
//!
//! The paper builds its categories with a sampling profiler
//! (VTune/HPCToolkit). Here each category's time is an estimate made
//! from timed spans, of two kinds:
//! - [`Timers::time`] reads the clock around every call and charges the
//!   elapsed time once. Spans that run once per sweep or rebuild (a
//!   distance-table rebuild, a whole-sweep Jastrow pass) and the
//!   `qmc-bench` profile suites use it.
//! - [`Timers::time_sampled`] is for the per-move hot path, where a clock
//!   pair (65–105 ns on an Emerald Rapids Xeon guest) would be a visible
//!   share of a move of a few µs.
//!   [`Timers::sample`] marks one call in [`SAMPLE_EVERY`], starting with
//!   a fresh recorder's first; that call's spans are timed and each is
//!   charged `SAMPLE_EVERY ×` its elapsed time. The other calls run their
//!   closures untimed. Every call is thus charged its time in
//!   expectation, and a category's total and share are estimates whose
//!   error shrinks as the run grows.

use std::fmt;
use std::time::{Duration, Instant};

/// The sampling period of [`Timers::sample`]: one hot call in
/// `SAMPLE_EVERY` is timed, and charged this many times over. It is odd
/// (a prime), so a sweep over an even number of electrons does not time
/// the same electrons in every sweep, unless the count is a multiple of
/// it.
pub const SAMPLE_EVERY: u32 = 17;

/// The kernel groups of the QMC profile (paper Table II rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// B-spline SPO evaluations (V/VGL/VGH).
    Bspline,
    /// Distance-table construction and updates: proposal rows (for the
    /// e–e table the moving electron's new and old rows), the row an
    /// accept or reject writes, and the stale-row recompute of
    /// `log_derivs`.
    Distance,
    /// One- and two-body Jastrow evaluations.
    Jastrow,
    /// Determinant ratios and Sherman–Morrison updates.
    Determinant,
}

impl Category {
    /// All categories in report order.
    pub const ALL: [Category; 4] = [
        Category::Bspline,
        Category::Distance,
        Category::Jastrow,
        Category::Determinant,
    ];
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Category::Bspline => "B-splines",
            Category::Distance => "Distance Tables",
            Category::Jastrow => "Jastrow",
            Category::Determinant => "Determinant",
        })
    }
}

/// Estimated time per category: fully timed spans ([`Self::time`]) plus
/// sampled spans ([`Self::time_sampled`]) weighted by [`SAMPLE_EVERY`].
#[derive(Clone, Debug, Default)]
pub struct Timers {
    acc: [Duration; 4],
    /// Calls since the last sampled one, modulo [`SAMPLE_EVERY`]. It
    /// survives [`Self::reset`], so successive short runs sample
    /// different calls.
    phase: u32,
}

impl Timers {
    /// Create a new instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time a closure under `cat`, charging its elapsed time once.
    #[inline]
    pub fn time<R>(&mut self, cat: Category, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.acc[cat as usize] += t0.elapsed();
        r
    }

    /// Advance the sampling phase: true for one call in
    /// [`SAMPLE_EVERY`], a fresh recorder's first call included. The
    /// result is the `sampled` argument of [`Self::time_sampled`] for
    /// every span of that call.
    #[inline]
    pub fn sample(&mut self) -> bool {
        let due = self.phase == 0;
        self.phase += 1;
        if self.phase == SAMPLE_EVERY {
            self.phase = 0;
        }
        due
    }

    /// Run a closure under `cat`. If `sampled`, time it and charge
    /// `SAMPLE_EVERY ×` its elapsed time; otherwise read no clock.
    #[inline(always)]
    pub fn time_sampled<R>(&mut self, sampled: bool, cat: Category, f: impl FnOnce() -> R) -> R {
        if sampled {
            self.time_weighted(cat, f)
        } else {
            f()
        }
    }

    /// The timed side of [`Self::time_sampled`], kept out of line so an
    /// untimed call carries no clock code.
    #[cold]
    #[inline(never)]
    fn time_weighted<R>(&mut self, cat: Category, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.acc[cat as usize] += t0.elapsed() * SAMPLE_EVERY;
        r
    }

    /// Get.
    pub fn get(&self, cat: Category) -> Duration {
        self.acc[cat as usize]
    }

    /// Total.
    pub fn total(&self) -> Duration {
        self.acc.iter().sum()
    }

    /// Zero every category. The sampling phase keeps running.
    pub fn reset(&mut self) {
        self.acc = Default::default();
    }

    /// Report.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            timers: self.clone(),
        }
    }
}

/// A percentage view over accumulated timers. Where the timers sampled
/// (see the module docs), durations and shares are estimates.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    timers: Timers,
}

impl ProfileReport {
    /// Share of `cat` in percent of total accounted time.
    pub fn percent(&self, cat: Category) -> f64 {
        let total = self.timers.total().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        100.0 * self.timers.get(cat).as_secs_f64() / total
    }

    /// Duration.
    pub fn duration(&self, cat: Category) -> Duration {
        self.timers.get(cat)
    }

    /// Total.
    pub fn total(&self) -> Duration {
        self.timers.total()
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<16} {:>10} {:>7}", "category", "time", "share")?;
        for cat in Category::ALL {
            writeln!(
                f,
                "{:<16} {:>10.3?} {:>6.1}%",
                cat.to_string(),
                self.duration(cat),
                self.percent(cat)
            )?;
        }
        write!(f, "{:<16} {:>10.3?}", "total", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    #[test]
    fn timers_accumulate() {
        let mut t = Timers::new();
        t.time(Category::Bspline, || sleep(Duration::from_millis(2)));
        t.time(Category::Bspline, || sleep(Duration::from_millis(2)));
        t.acc[Category::Jastrow as usize] += Duration::from_millis(4);
        assert!(t.get(Category::Bspline) >= Duration::from_millis(4));
        assert_eq!(t.get(Category::Jastrow), Duration::from_millis(4));
        assert_eq!(t.get(Category::Distance), Duration::ZERO);
    }

    /// A closure that sleeps `ms` and returns the time it measured
    /// itself, which the span around it contains.
    fn nap(ms: u64) -> impl FnOnce() -> Duration {
        move || {
            let t0 = Instant::now();
            sleep(Duration::from_millis(ms));
            t0.elapsed()
        }
    }

    #[test]
    fn sampled_spans_charge_one_call_in_sample_every_that_many_times() {
        let k = 3;
        let mut t = Timers::new();
        let (mut runs, mut charged) = (0, 0);
        for _ in 0..k * SAMPLE_EVERY {
            let before = t.get(Category::Jastrow);
            let sampled = t.sample();
            let inner = t.time_sampled(sampled, Category::Jastrow, || {
                runs += 1;
                nap(1)()
            });
            let charge = t.get(Category::Jastrow) - before;
            assert_eq!(charge > Duration::ZERO, sampled);
            if sampled {
                charged += 1;
                assert!(
                    charge >= inner * SAMPLE_EVERY,
                    "{charge:?} < {SAMPLE_EVERY} × {inner:?}"
                );
            }
        }
        assert_eq!((runs, charged), (k * SAMPLE_EVERY, k));
        assert_eq!(t.total(), t.get(Category::Jastrow));
    }

    #[test]
    fn a_fresh_recorder_times_its_first_call_and_the_phase_survives_reset() {
        let mut t = Timers::new();
        assert!(t.sample(), "first call");
        assert!((1..SAMPLE_EVERY).all(|_| !t.sample()));
        assert!(t.sample(), "call SAMPLE_EVERY + 1");
        t.reset();
        assert!(!t.sample(), "reset restarted the phase");
    }

    #[test]
    fn a_fully_timed_span_is_charged_once() {
        let mut t = Timers::new();
        let inner = t.time(Category::Distance, nap(2));
        let charge = t.get(Category::Distance);
        assert!(
            charge >= inner && charge < inner * SAMPLE_EVERY,
            "{charge:?} vs {inner:?}"
        );
    }

    #[test]
    fn percentages_sum_to_100() {
        let mut t = Timers::new();
        t.acc[Category::Bspline as usize] = Duration::from_millis(60);
        t.acc[Category::Distance as usize] = Duration::from_millis(30);
        t.acc[Category::Jastrow as usize] = Duration::from_millis(10);
        let r = t.report();
        let sum: f64 = Category::ALL.iter().map(|&c| r.percent(c)).sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert!((r.percent(Category::Bspline) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = Timers::new().report();
        assert_eq!(r.percent(Category::Bspline), 0.0);
        assert_eq!(r.total(), Duration::ZERO);
    }

    #[test]
    fn closure_result_passes_through() {
        let mut t = Timers::new();
        let x = t.time(Category::Determinant, || 41 + 1);
        assert_eq!(x, 42);
    }
}
