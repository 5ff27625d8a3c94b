//! Harness-side span recorder.
//!
//! The library is not instrumented (that is a later change): spans are
//! recorded here, around each call into a layer's public function. A
//! span is `name, start, end, parent, window`; spans live in one
//! preallocated buffer and are written out when the run ends. A
//! layer's self time is its span's duration minus the part its child
//! spans cover.

use crate::estimator::{Sample, Windows};
use crate::harness::Outcome;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Most spans written to the trace file. The ledger is computed from
/// every span in memory; the file is for reading, and a 3 µs op traced
/// for seconds would otherwise fill hundreds of megabytes.
pub const FILE_SPAN_CAP: usize = 200_000;

const NO_PARENT: u32 = u32::MAX;

/// Index into the tracer's name table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Name(u16);

#[derive(Clone, Copy, Debug)]
struct Span {
    start_ns: u64,
    dur_ns: u32,
    parent: u32,
    window: u32,
    name: u16,
}

/// An open span, closed by [`Spans::exit`].
#[must_use]
pub struct Open(u32);

/// What a workload's window function records its spans with. Every
/// workload has one window function, generic over this: instantiated
/// with [`Off`] it is the end-to-end op (the calls below compile to
/// nothing), with a [`Tracer`] it is the traced replay — so the traced
/// and the untraced op cannot drift apart.
pub trait Spans {
    /// Intern a span name (outside timed regions).
    fn name(&mut self, name: &'static str) -> Name;
    /// Open a span under the innermost open one.
    fn enter(&mut self, name: Name) -> Open;
    /// Close the innermost open span, which must be `open`.
    fn exit(&mut self, open: Open);
    /// When `open` began, on the recorder's clock (`None`: no clock).
    fn start_ns(&self, open: &Open) -> Option<u64>;
    /// Record an already measured interval, from `start_ns` on the
    /// recorder's clock to `end`, as a root span (for intervals that
    /// overlap one another and whose ends are stamped on different
    /// threads, like service requests in flight).
    fn record(&mut self, name: Name, start_ns: u64, end: Instant);
}

/// Tracing off: no clock call, no store, no branch.
pub struct Off;

impl Spans for Off {
    #[inline(always)]
    fn name(&mut self, _name: &'static str) -> Name {
        Name(0)
    }
    #[inline(always)]
    fn enter(&mut self, _name: Name) -> Open {
        Open(0)
    }
    #[inline(always)]
    fn exit(&mut self, _open: Open) {}
    #[inline(always)]
    fn start_ns(&self, _open: &Open) -> Option<u64> {
        None
    }
    #[inline(always)]
    fn record(&mut self, _name: Name, _start_ns: u64, _end: Instant) {}
}

/// In-memory span buffer.
pub struct Tracer {
    t0: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    window: u32,
}

impl Tracer {
    /// Buffer with room for `capacity` spans (grows past it, at the
    /// cost of a reallocation inside a timed region).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            t0: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            window: 0,
        }
    }

    /// Tag the spans that follow with window `w`; `None` for a window
    /// that is not recorded (its spans stay out of every ledger).
    pub fn set_window(&mut self, w: Option<usize>) {
        self.window = w.map_or(u32::MAX, |w| w as u32);
    }

    /// `(window, duration in ns)` of every span of `name`, in order.
    pub fn durations_of(&self, name: Name) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.spans
            .iter()
            .filter(move |s| s.name == name.0)
            .map(|s| (s.window, s.dur_ns))
    }

    /// Self time of every span: duration minus children's durations.
    fn self_ns(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| f64::from(s.dur_ns)).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] -= f64::from(s.dur_ns);
            }
        }
        own
    }

    /// Per-name ledger over the spans of the traced `windows` (span
    /// window ids index into them).
    pub fn ledger(&self, windows: &[Sample]) -> Ledger {
        let n_windows = windows.len();
        let own = self.self_ns();
        let k = self.names.len();
        let mut self_s = vec![vec![0.0f64; n_windows]; k];
        let mut dur_s = vec![vec![0.0f64; n_windows]; k];
        let mut count = vec![vec![0u64; n_windows]; k];
        for (s, own_ns) in self.spans.iter().zip(&own) {
            let (n, w) = (s.name as usize, s.window as usize);
            if w < n_windows {
                self_s[n][w] += own_ns * 1e-9;
                dur_s[n][w] += f64::from(s.dur_ns) * 1e-9;
                count[n][w] += 1;
            }
        }
        Ledger {
            names: self.names.clone(),
            windows: windows.to_vec(),
            self_s,
            dur_s,
            count,
        }
    }

    /// [`Tracer::write_jsonl`], with the result noted in `outcome`.
    pub fn write_for(&self, path: &Path, workload: &str, outcome: &mut Outcome) {
        outcome.notes.push(match self.write_jsonl(path, workload) {
            Ok(()) => format!(
                "trace: {} spans recorded, {}",
                self.spans.len(),
                path.display()
            ),
            Err(e) => format!("WARNING trace file {} not written: {e}", path.display()),
        });
    }

    /// Write the first [`FILE_SPAN_CAP`] spans as JSON lines:
    /// `{"id":..,"name":"..","start_ns":..,"end_ns":..,"parent":..,"window":..}`
    /// (`parent` is a span id or `null`), after one header line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(FILE_SPAN_CAP);
        writeln!(
            f,
            "{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"spans_written\":{written}}}",
            self.spans.len()
        )?;
        for (id, s) in self.spans.iter().take(written).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"window\":{}}}",
                self.names[s.name as usize],
                s.start_ns,
                s.start_ns + u64::from(s.dur_ns),
                s.window
            )?;
        }
        f.flush()
    }
}

impl Spans for Tracer {
    fn name(&mut self, name: &'static str) -> Name {
        let i = self
            .names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| {
                self.names.push(name);
                self.names.len() - 1
            });
        Name(i as u16)
    }

    #[inline]
    fn enter(&mut self, name: Name) -> Open {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            start_ns: self.t0.elapsed().as_nanos() as u64,
            dur_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            window: self.window,
            name: name.0,
        });
        self.stack.push(id);
        Open(id)
    }

    #[inline]
    fn exit(&mut self, open: Open) {
        let end = self.t0.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close innermost first");
        let s = &mut self.spans[open.0 as usize];
        s.dur_ns = (end - s.start_ns) as u32;
    }

    fn start_ns(&self, open: &Open) -> Option<u64> {
        Some(self.spans[open.0 as usize].start_ns)
    }

    fn record(&mut self, name: Name, start_ns: u64, end: Instant) {
        let end_ns = end.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns) as u32,
            parent: NO_PARENT,
            window: self.window,
            name: name.0,
        });
    }
}

/// Per-name, per-window sums of self time, duration and span count.
pub struct Ledger {
    names: Vec<&'static str>,
    /// The traced windows: their clock readings and stack classes.
    windows: Vec<Sample>,
    self_s: Vec<Vec<f64>>,
    dur_s: Vec<Vec<f64>>,
    count: Vec<Vec<u64>>,
}

impl Ledger {
    fn idx(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| *n == name)
    }

    /// Spans of `name` over the whole run.
    pub fn total_count(&self, name: &str) -> u64 {
        self.idx(name).map_or(0, |i| self.count[i].iter().sum())
    }

    /// Self time of `name` over the whole run, seconds.
    pub fn total_self_s(&self, name: &str) -> f64 {
        self.idx(name).map_or(0.0, |i| self.self_s[i].iter().sum())
    }

    /// Duration of `name` over the whole run, seconds.
    pub fn total_dur_s(&self, name: &str) -> f64 {
        self.idx(name).map_or(0.0, |i| self.dur_s[i].iter().sum())
    }

    /// Self time per call of `name`, seconds at the reference clock:
    /// each window's self time ÷ count, as a sample with that window's
    /// clock readings and class, then the estimator the end-to-end rate
    /// uses — so the host's clock does not leak into one layer's
    /// number. 0 when the name never ran.
    pub fn self_per_call_s(&self, name: &str) -> f64 {
        let Some(i) = self.idx(name) else { return 0.0 };
        let per_window: Vec<Sample> = self.self_s[i]
            .iter()
            .zip(&self.count[i])
            .zip(&self.windows)
            .filter(|((_, &c), _)| c > 0)
            .map(|((&s, &c), w)| Sample {
                secs: s / c as f64,
                ..*w
            })
            .collect();
        if per_window.is_empty() {
            0.0
        } else {
            Windows::of(&per_window).fast_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_partitions_the_parent() {
        let mut t = Tracer::with_capacity(16);
        let (outer, inner) = (t.name("outer"), t.name("inner"));
        for w in 0..3 {
            t.set_window(Some(w));
            let o = t.enter(outer);
            for _ in 0..2 {
                let i = t.enter(inner);
                std::hint::black_box((0..2000).sum::<u64>());
                t.exit(i);
            }
            t.exit(o);
        }
        let at_reference = Sample {
            secs: 0.0,
            chain_before: crate::estimator::REFERENCE_CHAIN_S,
            chain_after: crate::estimator::REFERENCE_CHAIN_S,
            class: 0,
        };
        let l = t.ledger(&[at_reference; 3]);
        assert_eq!(l.total_count("outer"), 3);
        assert_eq!(l.total_count("inner"), 6);
        let whole = l.total_dur_s("outer");
        let parts = l.total_self_s("outer") + l.total_self_s("inner");
        assert!((whole - parts).abs() < 1e-12, "{whole} vs {parts}");
        assert!(l.total_self_s("outer") >= 0.0);
        assert_eq!(l.self_per_call_s("absent"), 0.0);
        assert!(l.self_per_call_s("inner") > 0.0);
    }

    #[test]
    fn jsonl_has_a_header_and_one_line_per_span() {
        let mut t = Tracer::with_capacity(4);
        let a = t.name("a");
        let o = t.enter(a);
        let began = t.start_ns(&o).expect("a tracer has a clock");
        t.record(a, began, Instant::now());
        t.exit(o);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("unit-{}", std::process::id()));
        let path = dir.join("t.trace.jsonl");
        t.write_jsonl(&path, "unit").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"spans_recorded\":2"));
        assert!(lines[1].contains("\"parent\":null"));
        assert!(lines[2].contains("\"parent\":null"));
    }
}
