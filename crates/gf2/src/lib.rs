//! Bit-packed linear algebra over GF(2).
//!
//! This crate provides the dense and sparse binary-matrix machinery that the
//! rest of the workspace is built on:
//!
//! * [`BitVec`] — a bit-packed vector over GF(2),
//! * [`BitMatrix`] — a dense bit-packed matrix with row operations, products,
//!   Kronecker products, rank / kernel / row-space computations,
//! * [`SparseBitMatrix`] — a compressed-sparse-row binary matrix used for
//!   Tanner graphs and fast syndrome computation,
//! * [`Echelon`] — the result of Gaussian elimination, including the
//!   column-ordered variant needed by ordered-statistics decoding (OSD),
//! * [`OrderedEliminator`] — the reusable word-parallel workspace behind
//!   the OSD decode fast path (permute-once column gather, augmented
//!   rhs, incremental per-residual-column solution deltas).
//!
//! # Examples
//!
//! ```
//! use qldpc_gf2::{BitMatrix, BitVec};
//!
//! // The parity-check matrix of the 3-bit repetition code.
//! let h = BitMatrix::from_rows(&[
//!     BitVec::from_indices(3, &[0, 1]),
//!     BitVec::from_indices(3, &[1, 2]),
//! ]);
//! assert_eq!(h.rank(), 2);
//! let kernel = h.kernel();
//! assert_eq!(kernel.len(), 1); // the all-ones codeword
//! assert_eq!(kernel[0].weight(), 3);
//! ```

#![forbid(unsafe_code)]

mod bitvec;
mod dense;
mod gauss;
mod sparse;

pub use bitvec::BitVec;
pub use dense::BitMatrix;
pub use gauss::{Echelon, OrderedEchelon, OrderedEliminator};
pub use sparse::SparseBitMatrix;

/// Number of bits in one storage word.
pub(crate) const WORD_BITS: usize = 64;

/// Number of `u64` words needed to hold `bits` bits.
#[inline]
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}
