//! Circuit-level noise substrate for CSS memory experiments.
//!
//! The BP-SF paper uses [Stim](https://github.com/quantumlib/Stim) to build
//! syndrome-extraction circuits and extract *detector error models* (DEMs).
//! This crate rebuilds that substrate in Rust:
//!
//! * [`Circuit`] — a Clifford circuit over reset / H / CNOT / measure with
//!   explicit noise channels (depolarizing and X-flip),
//! * [`MemoryExperiment`] — the d-round CSS syndrome-extraction memory
//!   experiment for any [`qldpc_codes::CssCode`], including subsystem codes
//!   (detectors are built from gauge-product *stabilizer* combinations),
//! * [`DetectorErrorModel`] — the decoding problem: a detector × mechanism
//!   check matrix, observable matrix, and per-mechanism priors, produced by
//!   a single backward sweep over the circuit (fault signatures are linear
//!   over GF(2), so only the X/Z basis faults per qubit-time need
//!   propagating),
//! * [`DemSampler`] — fast Monte Carlo sampling of (syndrome, observable)
//!   pairs.
//!
//! The DEM is checked against two independent oracles that live in the
//! crate's `tests/oracles.rs`: a forward Pauli-frame propagator and a CHP
//! stabilizer simulator that runs the circuits exactly.
//!
//! # Examples
//!
//! ```
//! use qldpc_circuit::{MemoryExperiment, NoiseModel};
//! use qldpc_codes::bb;
//!
//! let code = bb::bb72();
//! let noise = NoiseModel::uniform_depolarizing(1e-3);
//! let exp = MemoryExperiment::memory_z(&code, 3, &noise);
//! let dem = exp.detector_error_model();
//! assert_eq!(dem.num_detectors(), 36 * 4); // s_z · (rounds + 1)
//! assert!(dem.num_mechanisms() > 0);
//! ```

#![forbid(unsafe_code)]

mod circuit;
mod dem;
mod memory;
mod noise;

pub use circuit::{Circuit, NoiseChannel, Op};
pub use dem::{DemSampler, DetectorErrorModel, Shot};
pub use memory::MemoryExperiment;
pub use noise::NoiseModel;
