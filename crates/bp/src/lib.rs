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
//! * a **shot-interleaved batch kernel** ([`BatchMinSumDecoder`]): `B`
//!   syndromes decoded per call over structure-of-arrays message slabs,
//!   walking the Tanner graph once per iteration for all shots —
//!   bit-identical to per-shot decoding (the paper's throughput story),
//! * **precision-generic messages** (the sealed [`Llr`] trait): every
//!   decoder exists at `f64` (the reference — [`MinSumDecoder`],
//!   [`BatchMinSumDecoder`]) and at `f32` ([`MinSumDecoderF32`],
//!   [`BatchMinSumDecoderF32`]), where half-width slabs double the
//!   batch kernel's effective SIMD lanes and halve its memory traffic.
//!
//! # The scalar ≡ batch bit-identity contract
//!
//! Batched decoding is **bit-identical** to per-shot decoding at the
//! same precision: for every lane, [`BatchMinSumDecoder`] produces the
//! same posteriors (to the last ulp), iteration counts, convergence
//! flags and oscillation sets as a scalar [`MinSumDecoder`] decode of
//! that lane's syndrome. Both run one check-major sweep per iteration
//! over per-variable running totals, and the lane-generic check-update
//! core in `crates/bp/src/kernel.rs` is the oracle: the batch engine
//! runs it (or an explicit-SIMD twin held to its bits) on each check's
//! interleaved lanes, and the scalar decoder keeps one lane's reduction
//! in registers — the same floats in the same association order. The
//! property suite in `crates/bp/tests/batch_equivalence.rs` pins the
//! two against each other per precision, and `tests/golden_minsum.rs`
//! pins both to fixed fingerprints on the code-capacity and
//! circuit-level graphs.
//!
//! Per-shot early exit inside a batch uses **lane compaction**: after
//! each iteration the lanes whose hard decision satisfies their syndrome
//! are snapshotted and the live width shrinks, and one pass moves the
//! surviving lanes above the new width into the holes below it, in the
//! slabs that carry state into the next iteration (a pure permutation —
//! no surviving lane's arithmetic changes). Total work is proportional
//! to the *sum of per-shot iteration counts*, exactly like a scalar
//! loop, while the live prefix keeps full vector width. Batches wider
//! than [`DEFAULT_MAX_LANES`] run as consecutive tiles; the ragged tail
//! just runs narrower.
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

mod api;
mod batch;
mod decoder;
mod graph;
mod kernel;
mod llr;
mod wide;

pub use batch::{BatchMinSumDecoder, BatchMinSumDecoderOf, DEFAULT_MAX_LANES};
pub use decoder::{
    BpAlgorithm, BpConfig, BpResult, DampingSchedule, MinSumDecoder, MinSumDecoderOf, Schedule,
};
pub use graph::TannerGraph;
pub use llr::Llr;
pub use qldpc_decoder_api::{DecodeOutcome, Precision, SyndromeDecoder};
// The dispatch surface of the explicit-SIMD batch kernels, re-exported
// so downstream crates (bench artifacts, telemetry labels, forced-target
// suites) need no direct `qldpc-simd` dependency: the resolved target,
// CPU feature summary, and the list every equivalence suite iterates.
pub use qldpc_simd::{
    active_target as active_simd_target, cpu_features as simd_cpu_features,
    detected_target as detected_simd_target, supported_targets as supported_simd_targets,
    SimdTarget, ENV_TARGET as SIMD_TARGET_ENV,
};

/// The reduced-precision (`f32`) scalar min-sum decoder: half the message
/// width, same algorithm, bit-identical to [`BatchMinSumDecoderF32`] per
/// shot.
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

/// The reduced-precision (`f32`) batch engine: half-width slabs, twice
/// the effective SIMD lanes of [`BatchMinSumDecoder`].
pub type BatchMinSumDecoderF32 = BatchMinSumDecoderOf<f32>;

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
