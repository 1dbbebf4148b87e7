//! Per-run reports and shot records.

use bpsf_core::stats::LatencyStats;
use qldpc_decoder_api::Precision;
use std::fmt;

/// One decoded shot's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShotRecord {
    /// Wall-clock decode time in nanoseconds.
    pub wall_ns: u64,
    /// Cumulative BP iterations under serial execution.
    pub serial_iterations: usize,
    /// BP iterations on the fully parallel critical path.
    pub critical_iterations: usize,
    /// Whether post-processing ran (initial BP failed).
    pub postprocessed: bool,
    /// Whether the shot ended in a logical failure (or was unsolved).
    pub failed: bool,
}

/// Aggregated result of a Monte Carlo run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Decoder label.
    pub decoder: String,
    /// Message precision of the decoder that produced this run, as
    /// reported by `SyndromeDecoder::precision` — recorded so precision
    /// sweeps stay attributable even where labels are post-processed.
    pub precision: Precision,
    /// Workload label (code, noise model, parameters).
    pub workload: String,
    /// Shots simulated.
    pub shots: usize,
    /// Logical failures (including unsolved shots).
    pub failures: usize,
    /// Shots the decoder could not solve at all.
    pub unsolved: usize,
    /// Per-shot records, in simulation order.
    pub records: Vec<ShotRecord>,
}

impl RunReport {
    /// Logical error rate.
    pub fn ler(&self) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.failures as f64 / self.shots as f64
        }
    }

    /// Wilson score interval on the LER at the given confidence level
    /// (e.g. `0.95`) — the interval the campaign engine's adaptive
    /// stopping rule watches. See `bpsf_core::stats::wilson_interval`
    /// for the edge-case behavior (zero shots, zero/all failures).
    pub fn ler_ci(&self, confidence: f64) -> bpsf_core::stats::BinomialCi {
        bpsf_core::stats::wilson_interval(self.failures, self.shots, confidence)
    }

    /// Standard error of the LER estimate (binomial).
    pub fn ler_std_err(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        let p = self.ler();
        (p * (1.0 - p) / self.shots as f64).sqrt()
    }

    /// Logical error rate per round (paper Eq. 11).
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn ler_per_round(&self, rounds: usize) -> f64 {
        crate::ler_per_round(self.ler(), rounds)
    }

    /// Fraction of shots needing post-processing.
    pub fn postprocessing_rate(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        self.records.iter().filter(|r| r.postprocessed).count() as f64 / self.shots as f64
    }

    /// Wall-clock statistics in milliseconds over all shots.
    pub fn wall_stats_ms(&self) -> LatencyStats {
        LatencyStats::from_samples(
            self.records
                .iter()
                .map(|r| r.wall_ns as f64 / 1.0e6)
                .collect(),
        )
    }

    /// Wall-clock statistics in milliseconds over post-processed shots only
    /// (the paper's dashed "post-processing stage" series in Fig. 13).
    pub fn postprocessed_wall_stats_ms(&self) -> LatencyStats {
        LatencyStats::from_samples(
            self.records
                .iter()
                .filter(|r| r.postprocessed)
                .map(|r| r.wall_ns as f64 / 1.0e6)
                .collect(),
        )
    }

    /// Total BP iterations under serial execution, summed over all
    /// shots — the campaign log's per-chunk convergence-effort
    /// aggregate (divide by shots for the mean the report prints).
    pub fn total_serial_iterations(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.serial_iterations as u64)
            .sum()
    }

    /// Serial-iteration statistics (Fig. 12's y-axis).
    pub fn serial_iteration_stats(&self) -> LatencyStats {
        LatencyStats::from_samples(
            self.records
                .iter()
                .map(|r| r.serial_iterations as f64)
                .collect(),
        )
    }

    /// Critical-path iteration statistics.
    pub fn critical_iteration_stats(&self) -> LatencyStats {
        LatencyStats::from_samples(
            self.records
                .iter()
                .map(|r| r.critical_iterations as f64)
                .collect(),
        )
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let wall = self.wall_stats_ms();
        write!(
            f,
            "{:<40} {:>8} shots  LER {:.3e} (±{:.1e})  avg {:.3} ms  max {:.3} ms  postproc {:.1}%",
            format!("{} on {}", self.decoder, self.workload),
            self.shots,
            self.ler(),
            self.ler_std_err(),
            wall.mean,
            wall.max,
            100.0 * self.postprocessing_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(failed: bool, post: bool, wall_ms: f64) -> ShotRecord {
        ShotRecord {
            wall_ns: (wall_ms * 1e6) as u64,
            serial_iterations: 10,
            critical_iterations: 10,
            postprocessed: post,
            failed,
        }
    }

    fn report() -> RunReport {
        RunReport {
            decoder: "BP-SF".into(),
            precision: Precision::F64,
            workload: "test".into(),
            shots: 4,
            failures: 1,
            unsolved: 0,
            records: vec![
                record(false, false, 1.0),
                record(false, true, 5.0),
                record(true, true, 9.0),
                record(false, false, 1.0),
            ],
        }
    }

    #[test]
    fn ler_and_rates() {
        let r = report();
        assert!((r.ler() - 0.25).abs() < 1e-12);
        assert!((r.postprocessing_rate() - 0.5).abs() < 1e-12);
        assert!(r.ler_std_err() > 0.0);
        let ci = r.ler_ci(0.95);
        assert!(ci.contains(r.ler()));
        assert!(ci.lo > 0.0 && ci.hi < 1.0);
    }

    #[test]
    fn per_round_conversion() {
        let r = report();
        let lpr = r.ler_per_round(10);
        assert!(lpr < r.ler());
        assert!(lpr > 0.0);
    }

    #[test]
    fn wall_stats() {
        let r = report();
        let s = r.wall_stats_ms();
        assert!((s.mean - 4.0).abs() < 1e-9);
        assert!((s.max - 9.0).abs() < 1e-9);
        let pp = r.postprocessed_wall_stats_ms();
        assert!((pp.mean - 7.0).abs() < 1e-9);
    }
}
