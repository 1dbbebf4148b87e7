//! Belief-propagation decoders for quantum LDPC codes.
//!
//! This crate implements the normalized min-sum decoder the BP-SF paper
//! builds on (its Eq. 4–8), with:
//!
//! * **flooding** and **layered** (serial, row-sequential) schedules —
//!   the layered variant is required to reproduce Fig. 8,
//! * the paper's **adaptive damping factor** `α_i = 1 − 2⁻ⁱ` (a fixed
//!   normalization factor is available for ablations),
//! * **oscillation tracking**: per-bit flip counts of the hard decision
//!   across iterations, the signal BP-SF mines for candidate bits,
//! * per-iteration syndrome checks with early exit and exact iteration
//!   accounting,
//! * **one engine for one shot and for many** ([`MinSumDecoder`]):
//!   [`decode`](MinSumDecoder::decode) is a one-lane tile, and
//!   [`decode_batch_results`](MinSumDecoder::decode_batch_results)
//!   interleaves a batch's shots in whole SIMD vectors over
//!   structure-of-arrays message slabs, walking the Tanner graph once per
//!   iteration for all of them — bit-identical to per-shot decoding (the
//!   paper's throughput story),
//! * **precision-generic messages** (the sealed [`Llr`] trait): the
//!   decoder exists at `f64` (the reference, [`MinSumDecoder`]) and at
//!   `f32` ([`MinSumDecoderF32`]), where half-width slabs double the
//!   effective SIMD lanes and halve the memory traffic.
//!
//! # The bit-identity contract
//!
//! A shot decodes to the same bits whatever tile it lands in: for every
//! lane, [`MinSumDecoder::decode_batch_results`] produces the same
//! posteriors (to the last ulp), iteration counts, convergence flags and
//! oscillation sets as [`MinSumDecoder::decode`] of that lane's syndrome
//! at the same precision, on every SIMD target. Every tile runs one
//! check-major sweep per iteration over per-variable running totals, in
//! one of two formulations of min-sum's check rule: a one-lane tile keeps
//! its reduction in registers (`decoder.rs`'s `sweep_checks`), an
//! interleaved tile runs one safe lane body over `[T; L]` blocks
//! (`wide.rs`). Both compute the same floats in the same association
//! order, and they pin each other: the property suite in
//! `crates/bp/tests/batch_equivalence.rs` per precision and target, and
//! `tests/golden_minsum.rs` against fixed fingerprints on the
//! code-capacity and circuit-level graphs.
//!
//! A batch is cut into tiles of at most [`DEFAULT_MAX_LANES`] shots. On
//! a wide target the first `len − len % w` shots of a tile (`w` lanes per
//! vector) run interleaved and each remaining shot is decoded alone; on
//! the scalar target, and under the sum-product rule, every shot is
//! decoded alone. Per-shot early exit inside an interleaved tile uses
//! **lane compaction**: after each iteration the lanes whose hard
//! decision satisfies their syndrome are snapshotted and the live width
//! shrinks, and one pass moves the surviving lanes above the new width
//! into the holes below it (a pure permutation — no surviving lane's
//! arithmetic changes). Total work is proportional to the *sum of
//! per-shot iteration counts*, while the live prefix keeps full vector
//! width.
//!
//! # Examples
//!
//! Decoding through the unified stack API ([`SyndromeDecoder`]), the
//! way the Monte Carlo runners and the decoding service drive every
//! decoder:
//!
//! ```
//! use qldpc_bp::{BpConfig, MinSumDecoder, SyndromeDecoder};
//! use qldpc_gf2::{BitVec, SparseBitMatrix};
//!
//! let h = SparseBitMatrix::from_row_indices(
//!     4,
//!     5,
//!     &[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]],
//! );
//! let mut decoder = MinSumDecoder::new(&h, &[0.05; 5], BpConfig::default());
//! let error = BitVec::from_indices(5, &[2]);
//! let out = decoder.decode_syndrome(&h.mul_vec(&error));
//! assert!(out.solved);
//! assert_eq!(out.error_hat, error);
//! // Plain BP never post-processes: both iteration accountings agree.
//! assert_eq!(out.serial_iterations, out.critical_iterations);
//! // And a batch containing the same syndrome decodes bit-identically.
//! let batch = decoder.decode_batch(&[h.mul_vec(&error), BitVec::zeros(4)]);
//! assert_eq!(batch[0].error_hat, out.error_hat);
//! ```
//!
//! Decoding directly through the inherent API:
//!
//! ```
//! use qldpc_bp::{BpConfig, MinSumDecoder};
//! use qldpc_gf2::{BitVec, SparseBitMatrix};
//!
//! // 5-bit repetition code, one bit flipped.
//! let h = SparseBitMatrix::from_row_indices(
//!     4,
//!     5,
//!     &[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]],
//! );
//! let priors = vec![0.05; 5];
//! let mut decoder = MinSumDecoder::new(&h, &priors, BpConfig::default());
//! let error = BitVec::from_indices(5, &[2]);
//! let syndrome = h.mul_vec(&error);
//! let result = decoder.decode(&syndrome);
//! assert!(result.converged);
//! assert_eq!(result.error_hat, error);
//! ```

#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]

mod api;
mod decoder;
mod graph;
mod kernel;
mod llr;
mod wide;

pub use decoder::{
    BpAlgorithm, BpConfig, BpResult, DampingSchedule, MinSumDecoder, MinSumDecoderOf, Schedule,
    DEFAULT_MAX_LANES,
};
pub use graph::TannerGraph;
pub use llr::Llr;
pub use qldpc_decoder_api::{DecodeOutcome, Precision, SyndromeDecoder};
// The dispatch surface of the lane body's per-target kernels, re-exported
// so downstream crates (bench artifacts, telemetry labels, forced-target
// suites) need no direct `qldpc-simd` dependency: the resolved target,
// CPU feature summary, and the list every equivalence suite iterates.
pub use qldpc_simd::{
    active_target as active_simd_target, cpu_features as simd_cpu_features,
    detected_target as detected_simd_target, supported_targets as supported_simd_targets,
    SimdTarget, ENV_TARGET as SIMD_TARGET_ENV,
};

/// The reduced-precision (`f32`) min-sum decoder: half the message
/// width, same algorithm, twice the lanes per SIMD vector.
///
/// # Examples
///
/// ```
/// use qldpc_bp::{BpConfig, MinSumDecoderF32, SyndromeDecoder};
/// use qldpc_gf2::{BitVec, SparseBitMatrix};
///
/// let h = SparseBitMatrix::from_row_indices(2, 3, &[vec![0, 1], vec![1, 2]]);
/// let mut dec = MinSumDecoderF32::new(&h, &[0.1; 3], BpConfig::default());
/// let r = dec.decode(&BitVec::zeros(2));
/// assert!(r.converged);
/// assert_eq!(dec.precision(), qldpc_bp::Precision::F32);
/// ```
pub type MinSumDecoderF32 = MinSumDecoderOf<f32>;

/// The former batch engine's name, now the one decoder: the benchmark's
/// provenance line still names it.
pub type BatchMinSumDecoder = MinSumDecoder;

/// Converts a per-bit error probability into a channel log-likelihood
/// ratio `ln((1−p)/p)` (paper Eq. 4).
///
/// Probabilities are clamped to `[1e-12, 1 − 1e-12]` to avoid infinities.
///
/// # Examples
///
/// ```
/// let llr = qldpc_bp::prior_llr(0.5);
/// assert!(llr.abs() < 1e-9);
/// assert!(qldpc_bp::prior_llr(0.01) > 0.0);
/// ```
pub fn prior_llr(p: f64) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    ((1.0 - p) / p).ln()
}
