//! BP-SF: oscillation-guided speculative syndrome-flip decoding.
//!
//! This crate implements the primary contribution of *"Fully Parallelized BP
//! Decoding for Quantum LDPC Codes Can Outperform BP-OSD"* (HPCA 2026):
//!
//! 1. run min-sum BP while tracking per-bit **oscillations** (hard-decision
//!    flips across iterations),
//! 2. on failure, select the `|Φ|` most oscillating bits as **candidates**,
//! 3. generate Chase-style **trial vectors** `t ⊆ Φ` (exhaustively up to
//!    weight `w_max`, or `n_s` random samples per weight in the
//!    circuit-level regime),
//! 4. decode each **flipped syndrome** `s′ = s ⊕ H·t` with an independent
//!    short-depth BP instance — all trials are embarrassingly parallel,
//! 5. return `ê ⊕ t` from the first convergent trial (no maximum-likelihood
//!    selection: code degeneracy makes the first satisfying solution almost
//!    always coset-correct).
//!
//! There is one decoder type, [`BpSfDecoder`], and its worker count `P` is
//! data: the trial list is handed out in index order to `P` workers (the
//! calling thread plus `P − 1` scoped threads per post-processed decode),
//! so `P = 1` is the paper's serial-CPU implementation and `P = N` its
//! multi-process one ([`BpSfDecoder::with_workers`]).
//!
//! # Determinism
//!
//! A decode is a pure function of `(H, priors, config, syndrome)`: sampled
//! trials are drawn from a generator seeded by [`BpSfConfig::seed`] and the
//! syndrome, and the winner is the lowest-index convergent trial (the
//! lightest one under [`TrialSelection::MinWeight`]), never the first to
//! finish. Hence every worker count ≡ any batch order ≡ any decode history
//! ≡ a remote instance built from the same inputs.
//!
//! # Examples
//!
//! ```
//! use bpsf_core::{BpSfConfig, BpSfDecoder};
//! use qldpc_codes::coprime_bb;
//! use qldpc_gf2::BitVec;
//!
//! let code = coprime_bb::coprime154();
//! let hz = code.hz().clone();
//! let n = hz.cols();
//! let config = BpSfConfig::code_capacity(50, 8, 1);
//! let mut decoder = BpSfDecoder::new(&hz, &vec![0.02; n], config);
//! let error = BitVec::from_indices(n, &[3, 77]);
//! let result = decoder.decode(&hz.mul_vec(&error));
//! assert!(result.success);
//! assert_eq!(hz.mul_vec(&result.error_hat), hz.mul_vec(&error));
//! ```

mod api;
mod candidates;
mod decoder;
pub mod stats;
mod trials;

pub use candidates::{
    hit_precision_recall, select_candidates, select_candidates_ranked, CandidateRanking,
};
pub use decoder::{BpSfConfig, BpSfDecoder, BpSfResult, TrialSampling, TrialSelection};
pub use qldpc_decoder_api::{DecodeOutcome, SyndromeDecoder};
pub use trials::TrialVectors;
