//! Monte Carlo simulation harness for the BP-SF reproduction.
//!
//! Ties the stack together: noise sampling (code-capacity and
//! circuit-level), a uniform [`SyndromeDecoder`] interface over plain BP,
//! BP-OSD and BP-SF, logical-error-rate estimation with per-round
//! conversion (paper Eq. 11), wall-clock and iteration-count statistics,
//! and the analytic hardware latency model used for the paper's GPU
//! estimate and FPGA discussion.
//!
//! There is one shot runner per noise model — [`run_code_capacity`] and
//! [`run_circuit_level`] — and both are thin over one sample → decode →
//! score loop whose shape a [`BatchConfig`] picks: `threads` seeded shot
//! streams (thread `t` uses `seed + t`), each decoded `batch_size`
//! syndromes per `decode_batch` call. The shape never changes a decoded
//! record, only wall time: latency figures use
//! [`BatchConfig::SEQUENTIAL`] (one stream, one syndrome per call — the
//! paper's methodology); `wall_ns` is amortised above width 1, so wider
//! shapes are for LER throughput.
//!
//! # Examples
//!
//! ```
//! use qldpc_codes::bb;
//! use qldpc_sim::{decoders, run_code_capacity, BatchConfig, CodeCapacityConfig};
//!
//! let code = bb::bb72();
//! let config = CodeCapacityConfig { p: 0.02, shots: 50, seed: 7 };
//! let report = run_code_capacity(
//!     &code,
//!     &config,
//!     &decoders::plain_bp(100),
//!     &BatchConfig::SEQUENTIAL,
//! );
//! assert_eq!(report.shots, 50);
//! assert!(report.ler() <= 1.0);
//! ```

mod circuit_level;
mod code_capacity;
pub mod decoders;
mod engine;
mod latency;
mod report;

pub use circuit_level::{run_circuit_level, CircuitLevelConfig};
pub use code_capacity::{run_code_capacity, sample_depolarizing, CodeCapacityConfig};
pub use decoders::{DecodeOutcome, DecoderFactory, SyndromeDecoder};
pub use engine::BatchConfig;
pub use latency::HardwareLatencyModel;
pub use report::{RunReport, ShotRecord};
// `LatencyStats` lives in `bpsf_core::stats`, next to the Wilson
// interval the reports and the campaign engine share.
pub use bpsf_core::stats::LatencyStats;

/// Converts an end-to-end logical error rate over `rounds` rounds into a
/// per-round rate via the paper's Eq. 11: `1 − (1 − LER)^(1/d)`.
///
/// # Examples
///
/// ```
/// let per_round = qldpc_sim::ler_per_round(0.3, 10);
/// assert!(per_round > 0.03 && per_round < 0.04);
/// assert_eq!(qldpc_sim::ler_per_round(0.0, 5), 0.0);
/// ```
pub fn ler_per_round(ler: f64, rounds: usize) -> f64 {
    assert!(rounds > 0, "rounds must be positive");
    1.0 - (1.0 - ler).powf(1.0 / rounds as f64)
}
