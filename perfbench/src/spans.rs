//! The benchmark's own spans: one around every call it makes into a
//! layer, kept in memory and written out when the run ends.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! origin), the span that caused it, and the run id. Calls too short and
//! too many to time one by one (a joiner's probes and inserts) are
//! *folded*: one span per kind carries the summed duration of its `calls`
//! calls, starting where the enclosing span started. Children never
//! overlap, so a span's self time is its duration minus the sum of its
//! children's.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or step name.
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, since the run's origin.
    pub start: Duration,
    /// End, since the run's origin.
    pub end: Duration,
    /// Calls covered: 1 for a timed span, more for a folded one.
    pub calls: u64,
}

impl Span {
    /// End minus start.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of one span name under a root, summed over its spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans with this name.
    pub spans: usize,
    /// Calls covered.
    pub calls: u64,
    /// Summed durations.
    pub total: Duration,
    /// Summed self times.
    pub self_time: Duration,
}

/// An in-memory span log for one run.
pub struct Spans {
    run: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty log for the run called `run`.
    pub fn new(run: impl Into<String>) -> Self {
        Self {
            run: run.into(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Every recorded span, in start order of their opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span called `name`, a child of the innermost
    /// open span. Returns `f`'s value.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
            calls: 1,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Index of the span most recently opened by [`Spans::time`] under
    /// the name `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Records a folded span: `calls` calls summing to `total`, as a child
    /// of the innermost open span, starting at `start`.
    pub fn folded(&mut self, name: &'static str, start: Instant, total: Duration, calls: u64) {
        let start = start.saturating_duration_since(self.origin);
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start + total,
            calls,
        });
    }

    fn children_total(&self, id: usize) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration)
            .sum()
    }

    fn under(&self, id: usize, root: usize) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if c == root {
                return true;
            }
            cur = self.spans[c].parent;
        }
        false
    }

    /// Self time of span `id`: its duration minus its children's.
    pub fn self_time(&self, id: usize) -> Duration {
        self.spans[id]
            .duration()
            .saturating_sub(self.children_total(id))
    }

    /// Self times of every span name in the subtree of `root` (the root
    /// included), in first-seen order.
    pub fn self_times(&self, root: usize) -> Vec<SelfTime> {
        let mut rows: Vec<SelfTime> = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            if !self.under(id, root) {
                continue;
            }
            let own = self.self_time(id);
            match rows.iter_mut().find(|r| r.name == s.name) {
                Some(r) => {
                    r.spans += 1;
                    r.calls += s.calls;
                    r.total += s.duration();
                    r.self_time += own;
                }
                None => rows.push(SelfTime {
                    name: s.name,
                    spans: 1,
                    calls: s.calls,
                    total: s.duration(),
                    self_time: own,
                }),
            }
        }
        rows
    }

    /// Share of `root`'s duration outside the self times of the spans
    /// named in `layers`: the self time of the root and of every other
    /// span under it, over the root's duration.
    pub fn unattributed_frac(&self, root: usize, layers: &[&str]) -> f64 {
        let wall = self.spans[root].duration().as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        let unattributed: Duration = self
            .self_times(root)
            .iter()
            .filter(|r| !layers.contains(&r.name))
            .map(|r| r.self_time)
            .sum();
        unattributed.as_secs_f64() / wall
    }

    /// Prints the self-time table of `root`'s subtree. Rows not named in
    /// `layers` are marked; their summed self time is the unattributed
    /// remainder, printed last and flagged when above `limit` of the
    /// root's duration.
    pub fn print_table(&self, root: usize, layers: &[&str], limit: f64) {
        let wall = self.spans[root].duration().as_secs_f64().max(1e-12);
        println!(
            "{:<22} {:>6} {:>10} {:>11} {:>10} {:>7}",
            "span", "spans", "calls", "total_ms", "self_ms", "self_%"
        );
        for r in self.self_times(root) {
            let note = if layers.contains(&r.name) {
                ""
            } else {
                "  (not a layer)"
            };
            println!(
                "{:<22} {:>6} {:>10} {:>11.3} {:>10.3} {:>6.2}%{note}",
                r.name,
                r.spans,
                r.calls,
                r.total.as_secs_f64() * 1e3,
                r.self_time.as_secs_f64() * 1e3,
                r.self_time.as_secs_f64() / wall * 100.0
            );
        }
        let frac = self.unattributed_frac(root, layers);
        println!(
            "{:<22} {:>6} {:>10} {:>11} {:>10.3} {:>6.2}%{}",
            "unattributed",
            "",
            "",
            "",
            frac * wall * 1e3,
            frac * 100.0,
            if frac > limit { "  ABOVE limit" } else { "" }
        );
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                self.run,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.calls
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn self_time_subtracts_children_and_names_the_remainder() {
        let mut s = Spans::new("t");
        s.time("root", |s| {
            spin(Duration::from_millis(2));
            s.time("a", |_| spin(Duration::from_millis(4)));
            let t = Instant::now();
            spin(Duration::from_millis(3));
            s.folded("b", t, Duration::from_millis(3), 10);
        });
        let root = s.last("root").unwrap();
        let rows = s.self_times(root);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("b").self_time, Duration::from_millis(3));
        assert_eq!(get("b").calls, 10);
        assert!(get("a").self_time >= Duration::from_millis(4));
        let root_self = get("root").self_time;
        assert_eq!(root_self, s.self_time(root));
        // The root's wall = its self time + its children's durations.
        let total: Duration = rows.iter().map(|r| r.self_time).sum();
        assert_eq!(total, s.spans()[root].duration());
        // Unattributed: everything outside the named layers' self times.
        let wall = s.spans()[root].duration().as_secs_f64();
        let frac = s.unattributed_frac(root, &["a", "b"]);
        assert!((frac - root_self.as_secs_f64() / wall).abs() < 1e-9);
        assert!(frac > 0.0 && frac < 1.0);
        let without_a = s.unattributed_frac(root, &["b"]);
        let a_self = get("a").self_time.as_secs_f64() / wall;
        assert!((without_a - frac - a_self).abs() < 1e-9);
        assert!(s.unattributed_frac(root, &[]) > 0.999);
    }

    #[test]
    fn spans_outside_the_root_are_not_counted() {
        let mut s = Spans::new("t");
        s.time("before", |_| spin(Duration::from_millis(1)));
        s.time("root", |s| s.time("inner", |_| ()));
        let rows = s.self_times(s.last("root").unwrap());
        assert!(rows.iter().all(|r| r.name != "before"));
        assert_eq!(rows.len(), 2);
    }
}
