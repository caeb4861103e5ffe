//! In-memory spans of a traced run, and the per-layer figures derived from
//! them.
//!
//! Spans are recorded by the benchmark around its own calls: the `Server` /
//! `NetClient` calls of each window (real spans), and the public layer
//! functions it replays on a rebuilt machine at the same resident state
//! (replayed spans). Every span carries the id of the window it belongs to
//! and the span that caused it, so a layer's *self time* is its duration
//! minus the durations of its children.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// How a span's interval was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Timed around the live call the window made.
    Real,
    /// Timed around the same public function, replayed on a rebuilt machine.
    Replayed,
    /// Computed from other spans (`net.transport`).
    Derived,
}

/// One span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The window it belongs to (a run-wide counter).
    pub window: u32,
    /// Run-wide span id.
    pub id: u32,
    /// The span that caused it; `None` for a window's root.
    pub parent: Option<u32>,
    /// The layer boundary, e.g. `chaining.kernel`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// How the interval was obtained.
    pub source: Source,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans that stand for waiting, not for work a layer does: they are
/// excluded from the layers' self-time sum, so whatever of them no work
/// span covers is the unaccounted time. Roots (the windows) wait too.
pub const WAITING: &[&str] = &["local.window", "queue.wait"];

/// The span store of one traced run.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    windows: u32,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            windows: 0,
        }
    }

    /// A fresh window id.
    pub fn next_window(&mut self) -> u32 {
        self.windows += 1;
        self.windows - 1
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span over `[start, end]` and returns its id.
    pub fn record(
        &mut self,
        window: u32,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
        source: Source,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            window,
            id,
            parent,
            name,
            start_ns,
            end_ns,
            source,
        });
        id
    }

    /// Records a span of `dur_ns` starting at `start` (derived spans).
    pub fn record_len(
        &mut self,
        window: u32,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        dur_ns: u64,
    ) -> u32 {
        let start_ns = self.ns(start);
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            window,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            source: Source::Derived,
        });
        id
    }

    /// Times `f` as a replayed span.
    pub fn time<R>(
        &mut self,
        window: u32,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        (
            r,
            self.record(window, parent, name, start, end, Source::Replayed),
        )
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median over the windows that have spans called `name` of the
    /// per-window total of their durations, in nanoseconds.
    pub fn median_per_window(&self, name: &str) -> Option<f64> {
        let mut per: HashMap<u32, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per.entry(s.window).or_default() += s.dur_ns();
        }
        let v: Vec<f64> = per.values().map(|&ns| ns as f64).collect();
        crate::stats::median(&v)
    }

    /// Total duration of every span called `name`, in nanoseconds.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Each span's self time: its duration minus its children's, floored at
    /// zero (a replayed child can outlast the live parent it stands in).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// `1 − (sum of layer self times ÷ window time)`, over every window:
    /// the share of the windows' time that no layer's work explains.
    pub fn unaccounted_share(&self) -> Option<f64> {
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum();
        if roots == 0 {
            return None;
        }
        let work: u64 = self
            .spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.parent.is_some() && !WAITING.contains(&s.name))
            .map(|(_, t)| t)
            .sum();
        Some(1.0 - work as f64 / roots as f64)
    }

    /// The spans as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"window\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"source\":\"{:?}\"}}",
                s.window, s.id, s.name, s.start_ns, s.end_ns, s.source
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_unaccounted_is_the_uncovered_wait() {
        let mut t = Trace::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let w = t.next_window();
        let root = t.record(w, None, "window", at(0), at(10), Source::Real);
        t.record(w, Some(root), "queue.admit", at(0), at(1), Source::Real);
        let wait = t.record(w, Some(root), "queue.wait", at(1), at(10), Source::Real);
        let txn = t.record_len(w, Some(wait), "recover.chain_txn", at(1), 6_000_000);
        t.record_len(w, Some(txn), "chaining.kernel", at(1), 2_000_000);
        let selfs = t.self_times();
        assert_eq!(selfs[root as usize], 0);
        assert_eq!(selfs[wait as usize], 3_000_000);
        assert_eq!(selfs[txn as usize], 4_000_000);
        // Work: admit 1 + txn self 4 + kernel 2 = 7 of 10 ms.
        let share = t.unaccounted_share().unwrap();
        assert!((share - 0.3).abs() < 1e-9, "{share}");
        assert_eq!(t.median_per_window("chaining.kernel"), Some(2_000_000.0));
        assert_eq!(t.median_per_window("bst.kernel"), None);
        assert!(t.to_jsonl().lines().count() == 5);
    }
}
