//! Per-category runtime accounting — the instrument behind Tables II/III
//! (the paper used VTune/HPCToolkit; we accumulate scoped wall times).

use std::fmt;
use std::time::{Duration, Instant};

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
    /// Everything else (driver logic, RNG, accept bookkeeping).
    Other,
}

impl Category {
    /// All categories in report order.
    pub const ALL: [Category; 5] = [
        Category::Bspline,
        Category::Distance,
        Category::Jastrow,
        Category::Determinant,
        Category::Other,
    ];

    fn index(self) -> usize {
        match self {
            Category::Bspline => 0,
            Category::Distance => 1,
            Category::Jastrow => 2,
            Category::Determinant => 3,
            Category::Other => 4,
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Category::Bspline => "B-splines",
            Category::Distance => "Distance Tables",
            Category::Jastrow => "Jastrow",
            Category::Determinant => "Determinant",
            Category::Other => "Other",
        })
    }
}

/// Accumulating scoped timers, one per category.
#[derive(Clone, Debug, Default)]
pub struct Timers {
    acc: [Duration; 5],
}

impl Timers {
    /// Create a new instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time a closure under `cat`.
    #[inline]
    pub fn time<R>(&mut self, cat: Category, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.acc[cat.index()] += t0.elapsed();
        r
    }

    /// Add an externally measured duration.
    pub fn add(&mut self, cat: Category, d: Duration) {
        self.acc[cat.index()] += d;
    }

    /// Get.
    pub fn get(&self, cat: Category) -> Duration {
        self.acc[cat.index()]
    }

    /// Total.
    pub fn total(&self) -> Duration {
        self.acc.iter().sum()
    }

    /// Reset.
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

/// A percentage view over accumulated timers.
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
        t.add(Category::Jastrow, Duration::from_millis(4));
        assert!(t.get(Category::Bspline) >= Duration::from_millis(4));
        assert_eq!(t.get(Category::Jastrow), Duration::from_millis(4));
        assert_eq!(t.get(Category::Distance), Duration::ZERO);
    }

    #[test]
    fn percentages_sum_to_100() {
        let mut t = Timers::new();
        t.add(Category::Bspline, Duration::from_millis(60));
        t.add(Category::Distance, Duration::from_millis(30));
        t.add(Category::Jastrow, Duration::from_millis(10));
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
