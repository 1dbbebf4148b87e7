//! The deterministic text exposition sink.
//!
//! Metrics render as Prometheus-style lines —
//! `name{code="gross",stage="kernel"} value` — with two determinism
//! guarantees that make the output golden-testable:
//!
//! * **Stable ordering**: [`Exposition::render`] sorts lines
//!   lexicographically, so the emission order (which depends on hash
//!   maps and thread interleavings upstream) never shows through.
//! * **Stable values**: numbers format via Rust's shortest-round-trip
//!   `f64` display, so equal values always render to equal bytes.
//!
//! Timing-valued series (anything recorded from a clock) are
//! conventionally named with a `_seconds` component; golden tests
//! byte-compare everything else and range-check those.

use crate::histogram::HistogramSnapshot;
use std::fmt::Write as _;

/// Accumulates metric lines and renders them as a sorted text block.
#[derive(Debug, Default)]
pub(crate) struct Exposition {
    lines: Vec<String>,
}

impl Exposition {
    /// An empty exposition.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Emits one integer-valued series.
    pub(crate) fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.lines.push(format!("{} {value}", series(name, labels)));
    }

    /// Emits one float-valued series.
    pub(crate) fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.lines
            .push(format!("{} {}", series(name, labels), fmt_f64(value)));
    }

    /// Emits the standard decomposition of a histogram:
    /// `name_count`, `name_sum`, `name_min`, `name_max`, and one
    /// `name{…,quantile="q"}` estimate per requested quantile.
    pub(crate) fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        snap: &HistogramSnapshot,
        quantiles: &[f64],
    ) {
        self.counter(&format!("{name}_count"), labels, snap.count);
        self.gauge(&format!("{name}_sum"), labels, snap.sum);
        self.gauge(&format!("{name}_min"), labels, snap.min);
        self.gauge(&format!("{name}_max"), labels, snap.max);
        for &q in quantiles {
            let q_label = fmt_f64(q);
            let mut with_q: Vec<(&str, &str)> = labels.to_vec();
            with_q.push(("quantile", &q_label));
            self.gauge(name, &with_q, snap.quantile(q));
        }
    }

    /// Renders the sorted exposition, one line per series, trailing
    /// newline included (empty string when no series were emitted).
    pub(crate) fn render(mut self) -> String {
        self.lines.sort_unstable();
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        out
    }
}

/// `name{k1="v1",k2="v2"}` (bare `name` with no labels).
fn series(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    format!("{name}{{{}}}", body.join(","))
}

/// Escapes a label value per the Prometheus text format.
fn escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Shortest-round-trip float formatting (deterministic for equal bits).
fn fmt_f64(value: f64) -> String {
    if value == 0.0 {
        // Normalize -0.0 so sign-of-zero noise never reaches goldens.
        "0".to_string()
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::StreamingHistogram;

    #[test]
    fn renders_sorted_lines() {
        let mut e = Exposition::new();
        e.counter("zzz_total", &[], 3);
        e.counter("aaa_total", &[("code", "gross")], 1);
        e.gauge("mmm", &[("code", "gross"), ("stage", "kernel")], 0.25);
        let out = e.render();
        assert_eq!(
            out,
            "aaa_total{code=\"gross\"} 1\nmmm{code=\"gross\",stage=\"kernel\"} 0.25\nzzz_total 3\n"
        );
    }

    #[test]
    fn histogram_decomposition() {
        let h = StreamingHistogram::new();
        h.record(1.0);
        h.record(3.0);
        let mut e = Exposition::new();
        e.histogram("lat_seconds", &[("code", "c")], &h.snapshot(), &[0.5]);
        let out = e.render();
        assert!(out.contains("lat_seconds_count{code=\"c\"} 2\n"));
        assert!(out.contains("lat_seconds_sum{code=\"c\"} 4\n"));
        assert!(out.contains("lat_seconds_min{code=\"c\"} 1\n"));
        assert!(out.contains("lat_seconds_max{code=\"c\"} 3\n"));
        assert!(out.contains("lat_seconds{code=\"c\",quantile=\"0.5\"}"));
    }

    #[test]
    fn escapes_label_values() {
        let mut e = Exposition::new();
        e.counter("m", &[("k", "a\"b\\c\nd")], 1);
        assert_eq!(e.render(), "m{k=\"a\\\"b\\\\c\\nd\"} 1\n");
    }

    #[test]
    fn negative_zero_normalizes() {
        let mut e = Exposition::new();
        e.gauge("g", &[], -0.0);
        assert_eq!(e.render(), "g 0\n");
    }
}
