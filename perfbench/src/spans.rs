//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: name, start, end, parent span, and (on the
//! network workload) the request id. They stay in memory until the run
//! ends and are written once, next to the metrics. A layer's self time
//! is its spans' durations minus the parts of those intervals their
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// The span store. Open spans form a stack on the recording thread;
/// spans measured elsewhere (another thread, or reconstructed from
/// timestamps) are added closed with [`Spans::push`].
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        nanos_since(self.origin)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: None,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it).
    pub fn close(&mut self, id: usize) {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            if let Some(s) = self.spans.get_mut(top) {
                s.end_ns = now;
            }
            if top == id {
                break;
            }
        }
    }

    /// Adds a closed span under the innermost open span.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        request: Option<u64>,
    ) -> usize {
        self.push_under(self.open.last().copied(), name, start_ns, end_ns, request)
    }

    /// Adds a closed span under an explicit parent.
    pub fn push_under(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        request: Option<u64>,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the union of
    /// its children's intervals (children may overlap when they were
    /// measured on other threads).
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if let Some(c) = children.get_mut(p) {
                    c.push((s.start_ns, s.end_ns));
                }
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let covered = union_within(kids, s.start_ns, s.end_ns);
            *out.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Count and summed duration of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, t), s| (n + 1, t + (s.end_ns - s.start_ns)))
    }

    /// Share of `[from_ns, to_ns)` covered by no root span.
    pub fn unattributed_share(&self, from_ns: u64, to_ns: u64) -> f64 {
        let mut roots: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let wall = to_ns.saturating_sub(from_ns);
        if wall == 0 {
            return 0.0;
        }
        let covered = union_within(&mut roots, from_ns, to_ns);
        wall.saturating_sub(covered) as f64 / wall as f64
    }

    /// Serialises every span plus the per-name self times as JSON.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let index: BTreeMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"names\":["
        );
        for (i, n) in names.iter().enumerate() {
            let _ = write!(out, "{}\"{n}\"", if i > 0 { "," } else { "" });
        }
        out.push_str("],\"self_ns\":{");
        for (i, (n, ns)) in self.self_ns().iter().enumerate() {
            let _ = write!(out, "{}\"{n}\":{ns}", if i > 0 { "," } else { "" });
        }
        out.push_str("},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{}[{},{},{},{},{}]",
                if i > 0 { ",\n" } else { "" },
                index.get(s.name).copied().unwrap_or(0),
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Nanoseconds elapsed since `origin`.
pub fn nanos_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Length of the union of `intervals` clipped to `[lo, hi)`. Sorts the
/// slice in place.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Spans {
        Spans::new(Instant::now())
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = store();
        let root = s.push_under(None, "root", 0, 100, None);
        // Two overlapping children cover [10, 50) = 40 ns.
        s.push_under(Some(root), "child", 10, 40, Some(1));
        s.push_under(Some(root), "child", 30, 50, Some(2));
        let self_ns = s.self_ns();
        assert_eq!(self_ns["root"], 60);
        assert_eq!(self_ns["child"], 30 + 20);
        assert_eq!(s.total("child"), (2, 50));
    }

    #[test]
    fn unattributed_share_counts_gaps_between_roots() {
        let mut s = store();
        s.push_under(None, "a", 0, 30, None);
        s.push_under(None, "b", 50, 100, None);
        // A child never adds coverage beyond its root.
        s.push_under(Some(0), "c", 0, 10, None);
        assert!((s.unattributed_share(0, 100) - 0.2).abs() < 1e-12);
        assert_eq!(s.unattributed_share(5, 5), 0.0);
    }

    #[test]
    fn open_close_nests_spans() {
        let mut s = store();
        let outer = s.open("outer");
        let inner = s.open("inner");
        s.close(inner);
        s.close(outer);
        assert_eq!(s.spans()[inner].parent, Some(outer));
        assert_eq!(s.spans()[outer].parent, None);
        let json = s.to_json("w", 7);
        assert!(json.contains("\"names\":[\"inner\",\"outer\"]"));
    }
}
