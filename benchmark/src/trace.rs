//! Spans recorded by the benchmark around its own calls into each
//! layer of the program. No tracing lives inside the program; that is
//! a later change (ROADMAP item 4).
//!
//! A span is `(name, start, end, parent, request)`. Spans are kept in
//! memory and written to `benchmark/out/trace.json` when the run ends.
//! A span's self time is its duration minus what its children cover.

use crate::OUT_DIR;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The request (shot, frame or tile index) the span belongs to;
    /// spans of one request share it.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. A disabled tracer still runs the closure
/// it is handed but records nothing, so the untraced and traced passes
/// share one code path and differ only in the recording.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// `origin` is shared by every tracer of a run so their clocks agree.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Self {
        Self::new(Instant::now(), false)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns how long it took, in
    /// nanoseconds; spans opened by `f` become its children. The clock is
    /// read whether or not the tracer records, so the untraced and the
    /// traced pass take their latency samples the same way.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                request,
            });
            self.open.push(id);
        }
        let out = f(self);
        let end_ns = self.now_ns();
        if self.enabled {
            self.open.pop();
            self.spans[id].end_ns = end_ns;
        }
        (out, end_ns - start_ns)
    }

    /// [`Self::timed`] for callers that do not need the duration.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.timed(name, request, f).0
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, in first-appearance order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut totals: Vec<(&'static str, u64, usize)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        match totals.iter_mut().find(|t| t.0 == s.name) {
            Some(t) => {
                t.1 += self_ns;
                t.2 += 1;
            }
            None => totals.push((s.name, self_ns, 1)),
        }
    }
    totals
}

/// The trace as one JSON document. Span names are static identifiers
/// chosen in this crate, so they need no escaping.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
    );
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":",
            s.name, s.start_ns, s.end_ns
        );
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"request\":{}}}", s.request);
    }
    out.push_str("\n]}\n");
    out
}

/// Writes `benchmark/out/trace.json` and prints self time per span name.
pub fn write(workload: &str, seed: u64, tracer: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace.json");
    std::fs::write(&path, to_json(workload, seed, tracer.spans()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "-- {} spans -> {path}; self time by span:",
        tracer.spans().len()
    );
    for (name, self_ns, count) in self_time_by_name(tracer.spans()) {
        println!(
            "   {name:<28} {count:>8} spans {:>12.3} ms",
            self_ns as f64 / 1e6
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps the previous child
            span(60, 70, Some(0)),
            span(12, 18, Some(1)), // grandchild: charged to its parent only
        ];
        let selfs = self_times_ns(&spans);
        // Children cover [10,50) and [60,70): 50 of the 100.
        assert_eq!(selfs[0], 50);
        assert_eq!(selfs[1], 20 - 6);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 6);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![span(10, 20, None), span(5, 15, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn nested_spans_record_parents_and_requests() {
        let mut t = Tracer::new(Instant::now(), true);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 8, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[2].request, 8);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_ns("inner").len(), 2);
        let by_name = self_time_by_name(s);
        assert_eq!(by_name[0].0, "outer");
        assert_eq!(by_name[1], ("inner", by_name[1].1, 2));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("x", 0, |_| 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, true);
        a.span("a", 0, |_| ());
        let mut b = Tracer::new(origin, true);
        b.span("b", 1, |t| t.span("c", 1, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let json = to_json("w", 1, a.spans());
        assert!(json.contains("\"name\":\"c\"") && json.contains("\"parent\":1"));
    }
}
