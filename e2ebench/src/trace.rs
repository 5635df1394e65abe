//! The traced run's spans: recorded in memory around every call the
//! benchmark makes, written out when the run ends, and folded into
//! per-layer self times and end-to-end attribution.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::percentile;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary name, e.g. `http.round_trip`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the parent span in the same [`Spans`], if any.
    pub parent: Option<usize>,
    /// The request or publish this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log. Disabled logs record nothing and cost a branch.
#[derive(Debug, Clone)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A log timed against `origin`.
    #[must_use]
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Spans {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records a span between two instants; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Times `f` as a span; returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, op);
        out
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Durations (µs) of every span named `name`.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Per layer: (calls, total self time in µs, median self time in µs).
    /// Self time is a span's duration minus its children's durations.
    /// Replayed children run after their parent ends; their durations
    /// stand in for the work they repeat, which happened inside it.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let child_ns = self.child_ns();
        let mut per: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.duration_ns().saturating_sub(child_ns[i]) as f64 / 1e3;
            per.entry(s.name).or_default().push(own);
        }
        per.into_iter()
            .map(|(name, v)| {
                let total = v.iter().sum();
                (name, (v.len(), total, percentile(&v, 50.0).unwrap_or(0.0)))
            })
            .collect()
    }

    /// For the spans named `root`: the median duration (µs) and the median
    /// share of it that their direct children account for.
    #[must_use]
    pub fn attribution(&self, root: &str) -> Option<(f64, f64)> {
        let child_ns = self.child_ns();
        let (mut durations, mut shares) = (Vec::new(), Vec::new());
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root && s.duration_ns() > 0 {
                durations.push(s.duration_ns() as f64 / 1e3);
                shares.push(child_ns[i] as f64 / s.duration_ns() as f64);
            }
        }
        Some((percentile(&durations, 50.0)?, percentile(&shares, 50.0)?))
    }

    /// The summed duration of each span's direct children.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        child_ns
    }

    /// Appends `other`'s spans, re-basing its parent indices.
    pub fn merge(&mut self, other: &Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..*s
        }));
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
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
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut spans = Spans::new(t0, true);
        let root = spans.record("root", at(0), at(100), None, 1);
        spans.record("child", at(10), at(40), root, 1);
        spans.record("child", at(50), at(60), root, 1);
        let times = spans.self_times();
        assert_eq!(times["root"].0, 1);
        assert!((times["root"].1 - 60.0).abs() < 1e-6);
        assert!((times["child"].1 - 40.0).abs() < 1e-6);
        let (median, share) = spans.attribution("root").unwrap();
        assert!((median - 100.0).abs() < 1e-6);
        assert!((share - 0.4).abs() < 1e-9);
        assert!(spans.attribution("absent").is_none());

        let mut merged = Spans::new(t0, true);
        merged.record("other", at(0), at(1), None, 0);
        merged.merge(&spans);
        assert_eq!(merged.spans[2].parent, Some(1));
        assert_eq!(merged.to_jsonl().lines().count(), 4);

        let mut off = Spans::new(t0, false);
        assert!(off.record("root", at(0), at(1), None, 0).is_none());
        assert!(off.spans.is_empty());
    }
}
