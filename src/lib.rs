//! # BP-SF: fully parallelized BP decoding for quantum LDPC codes
//!
//! A full Rust reproduction of *"Fully Parallelized BP Decoding for Quantum
//! LDPC Codes Can Outperform BP-OSD"* (HPCA 2026). This facade crate
//! re-exports the whole stack:
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | GF(2) algebra | [`gf2`] | bit-packed vectors/matrices, Gaussian elimination |
//! | Codes | [`codes`] | BB, coprime-BB, GB, HGP, SHYPS constructions |
//! | Decoder API | [`decoder_api`] | the one [`SyndromeDecoder`](decoder_api::SyndromeDecoder) trait every decoder implements |
//! | BP | [`bp`] | normalized min-sum (flooding + layered), oscillation tracking, one engine for one shot or shot-interleaved batches, precision-generic (f64/f32) messages |
//! | OSD baseline | [`osd`] | OSD-0 / OSD-CS post-processing |
//! | Circuit noise | [`circuit`] | syndrome-extraction circuits, detector error models |
//! | **BP-SF** | [`bpsf`] | the paper's oscillation-guided syndrome-flip decoder |
//! | Monte Carlo | [`sim`] | LER estimation (one shot runner per noise model, shaped by a `BatchConfig`), latency stats, hardware models |
//! | Campaigns | [`campaign`] | declarative sweep specs, adaptive shot allocation, resumable JSONL logs, generated `REPRO.md` |
//! | Service | [`server`] | real-time decoding service: micro-batching scheduler, one queue per code shared by its decoder workers, backpressure, metrics |
//!
//! # Quickstart
//!
//! ```
//! use bpsf::prelude::*;
//!
//! // Decode a weight-2 X error on the [[144,12,12]] gross code.
//! let code = bb::gross_code();
//! let hz = code.hz().clone();
//! let n = hz.cols();
//! let mut decoder = BpSfDecoder::new(&hz, &vec![0.01; n], BpSfConfig::code_capacity(50, 8, 1));
//! let error = BitVec::from_indices(n, &[17, 98]);
//! let result = decoder.decode(&hz.mul_vec(&error));
//! assert!(result.success);
//! // The correction is syndrome-equivalent and logically correct.
//! let residual = &result.error_hat ^ &error;
//! assert!(!code.is_x_logical_error(&residual));
//! ```

#![forbid(unsafe_code)]

pub use bpsf_core as bpsf;
pub use qldpc_bp as bp;
pub use qldpc_campaign as campaign;
pub use qldpc_circuit as circuit;
pub use qldpc_client as client;
pub use qldpc_codes as codes;
pub use qldpc_decoder_api as decoder_api;
pub use qldpc_gf2 as gf2;
pub use qldpc_osd as osd;
pub use qldpc_server as server;
pub use qldpc_sim as sim;
pub use qldpc_wire as wire;

/// The most common imports for working with the stack.
pub mod prelude {
    pub use crate::bp::{
        BpConfig, DampingSchedule, Llr, MinSumDecoder, MinSumDecoderF32, Schedule,
    };
    pub use crate::bpsf::{BpSfConfig, BpSfDecoder, BpSfResult, TrialSampling, TrialSelection};
    pub use crate::circuit::{DemSampler, DetectorErrorModel, MemoryExperiment, NoiseModel};
    pub use crate::client::{Connection, RemoteDecoder};
    pub use crate::codes::{bb, coprime_bb, gb, hgp, shp, CssCode};
    pub use crate::decoder_api::{DecodeOutcome, DecoderFactory, Precision, SyndromeDecoder};
    pub use crate::gf2::{BitMatrix, BitVec, SparseBitMatrix};
    pub use crate::osd::{BpOsdDecoder, OsdConfig};
    pub use crate::server::{DecodeService, FrontendConfig, NetFrontend, ServiceConfig};
    pub use crate::sim::{
        decoders, run_circuit_level, run_code_capacity, BatchConfig, CircuitLevelConfig,
        CodeCapacityConfig, HardwareLatencyModel,
    };
}
