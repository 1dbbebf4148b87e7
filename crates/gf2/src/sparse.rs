//! Compressed sparse binary matrices for Tanner graphs.

use crate::{BitMatrix, BitVec};
use std::fmt;

/// A sparse binary matrix in compressed-sparse-row form, with a
/// column-major index built eagerly.
///
/// This is the representation belief propagation runs on: rows are check
/// nodes, columns are variable nodes, and both adjacency directions are
/// needed every iteration. The matrix is immutable after construction.
///
/// # Examples
///
/// ```
/// use qldpc_gf2::{BitVec, SparseBitMatrix};
///
/// // Repetition-code checks: (0,1) and (1,2).
/// let h = SparseBitMatrix::from_row_indices(2, 3, &[vec![0, 1], vec![1, 2]]);
/// let e = BitVec::from_indices(3, &[1]);
/// let s = h.mul_vec(&e);
/// assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![0, 1]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SparseBitMatrix {
    rows: usize,
    cols: usize,
    /// CSR: `row_ptr[r]..row_ptr[r+1]` indexes `col_idx`.
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    /// CSC: `col_ptr[c]..col_ptr[c+1]` indexes `row_idx`.
    col_ptr: Vec<u32>,
    row_idx: Vec<u32>,
}

impl SparseBitMatrix {
    /// Builds a sparse matrix from per-row sorted-or-unsorted column lists.
    ///
    /// Column indices are sorted and deduplicated per row (a duplicated
    /// entry over GF(2) would cancel; passing duplicates is treated as a
    /// caller error).
    ///
    /// # Panics
    ///
    /// Panics if `row_cols.len() != rows`, if any column index is `>= cols`,
    /// or if a row contains a duplicate column index.
    pub fn from_row_indices(rows: usize, cols: usize, row_cols: &[Vec<usize>]) -> Self {
        assert_eq!(row_cols.len(), rows, "row list length must equal row count");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0u32);
        for (r, cs) in row_cols.iter().enumerate() {
            let mut sorted = cs.clone();
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                assert!(w[0] != w[1], "duplicate column {} in row {r}", w[0]);
            }
            for &c in &sorted {
                assert!(c < cols, "column index {c} out of bounds in row {r}");
                col_idx.push(c as u32);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Self::from_csr(rows, cols, row_ptr, col_idx)
    }

    /// Converts a dense matrix into sparse form.
    pub fn from_dense(m: &BitMatrix) -> Self {
        let row_cols: Vec<Vec<usize>> = (0..m.rows())
            .map(|r| m.row(r).iter_ones().collect())
            .collect();
        Self::from_row_indices(m.rows(), m.cols(), &row_cols)
    }

    fn from_csr(rows: usize, cols: usize, row_ptr: Vec<u32>, col_idx: Vec<u32>) -> Self {
        // Build CSC by counting sort.
        let mut counts = vec![0u32; cols + 1];
        for &c in &col_idx {
            counts[c as usize + 1] += 1;
        }
        for c in 0..cols {
            counts[c + 1] += counts[c];
        }
        let col_ptr = counts.clone();
        let mut cursor = counts;
        let mut row_idx = vec![0u32; col_idx.len()];
        for r in 0..rows {
            for k in row_ptr[r]..row_ptr[r + 1] {
                let c = col_idx[k as usize] as usize;
                row_idx[cursor[c] as usize] = r as u32;
                cursor[c] += 1;
            }
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            col_ptr,
            row_idx,
        }
    }

    /// Number of rows (check nodes).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (variable nodes).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored ones.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices of row `r`, sorted ascending.
    #[inline]
    pub fn row_support(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize]
    }

    /// Row indices of column `c`, sorted ascending.
    #[inline]
    pub fn col_support(&self, c: usize) -> &[u32] {
        &self.row_idx[self.col_ptr[c] as usize..self.col_ptr[c + 1] as usize]
    }

    /// Degree (weight) of row `r`.
    #[inline]
    pub fn row_degree(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// Degree (weight) of column `c`.
    #[inline]
    pub fn col_degree(&self, c: usize) -> usize {
        (self.col_ptr[c + 1] - self.col_ptr[c]) as usize
    }

    /// Maximum row degree across the matrix (0 for an empty matrix).
    pub fn max_row_degree(&self) -> usize {
        (0..self.rows)
            .map(|r| self.row_degree(r))
            .max()
            .unwrap_or(0)
    }

    /// Maximum column degree across the matrix (0 for an empty matrix).
    pub fn max_col_degree(&self) -> usize {
        (0..self.cols)
            .map(|c| self.col_degree(c))
            .max()
            .unwrap_or(0)
    }

    /// Sparse matrix–vector product `self · v` over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.cols, "matrix–vector dimension mismatch");
        let mut out = BitVec::zeros(self.rows);
        for r in 0..self.rows {
            let mut parity = false;
            for &c in self.row_support(r) {
                parity ^= v.get(c as usize);
            }
            if parity {
                out.set(r, true);
            }
        }
        out
    }

    /// Bit-sliced batched product: `self · v` for every `v` in `vecs`.
    ///
    /// The batch is transposed into 64-shot *bit-planes* (one `BitVec`
    /// of batch-width bits per variable), each check row XORs the planes
    /// of its support — computing 64 shots' worth of that check per word
    /// operation — and the result is transposed back into per-shot
    /// syndromes. Cost is `O(nnz · B/64)` word-XORs plus two block
    /// transposes, versus `O(nnz)` bit probes *per shot* for a
    /// [`Self::mul_vec`] loop. Results are bit-identical to calling
    /// `mul_vec` on each vector — which is what a batch of fewer than
    /// two does, since the transposes only pay off across shots (the
    /// Monte Carlo loop at batch width 1 samples through this).
    ///
    /// # Panics
    ///
    /// Panics if any vector's length differs from `self.cols()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use qldpc_gf2::{BitVec, SparseBitMatrix};
    ///
    /// let h = SparseBitMatrix::from_row_indices(2, 3, &[vec![0, 1], vec![1, 2]]);
    /// let batch = vec![BitVec::from_indices(3, &[1]), BitVec::from_indices(3, &[0, 2])];
    /// let syndromes = h.mul_batch(&batch);
    /// assert_eq!(syndromes[0], h.mul_vec(&batch[0]));
    /// assert_eq!(syndromes[1], h.mul_vec(&batch[1]));
    /// ```
    pub fn mul_batch(&self, vecs: &[BitVec]) -> Vec<BitVec> {
        for v in vecs {
            assert_eq!(v.len(), self.cols, "matrix–vector dimension mismatch");
        }
        if vecs.len() < 2 {
            return vecs.iter().map(|v| self.mul_vec(v)).collect();
        }
        let planes = BitMatrix::from_rows(vecs).transpose(); // cols × B
        let mut out_planes = BitMatrix::zeros(self.rows, vecs.len());
        for r in 0..self.rows {
            for &c in self.row_support(r) {
                out_planes.xor_row_from(&planes, c as usize, r);
            }
        }
        let out = out_planes.transpose(); // B × rows
        (0..vecs.len()).map(|i| out.row(i)).collect()
    }

    /// Sparse product with a *sparse* vector given as sorted one-indices:
    /// returns the syndrome `self · t` where `t` has ones at `support`.
    ///
    /// This is the SpMSpV the paper uses for trial-syndrome generation:
    /// cost is `O(Σ_{i∈support} coldeg(i))`.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= cols()`.
    pub fn mul_sparse_vec(&self, support: &[usize]) -> BitVec {
        let mut out = BitVec::zeros(self.rows);
        for &c in support {
            assert!(c < self.cols, "support index {c} out of bounds");
            for &r in self.col_support(c) {
                out.flip(r as usize);
            }
        }
        out
    }

    /// Expands into a dense matrix.
    pub fn to_dense(&self) -> BitMatrix {
        let mut m = BitMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for &c in self.row_support(r) {
                m.set(r, c as usize, true);
            }
        }
        m
    }

    /// Returns the transpose as a new sparse matrix.
    pub fn transpose(&self) -> Self {
        let row_cols: Vec<Vec<usize>> = (0..self.cols)
            .map(|c| self.col_support(c).iter().map(|&r| r as usize).collect())
            .collect();
        Self::from_row_indices(self.cols, self.rows, &row_cols)
    }
}

impl fmt::Debug for SparseBitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SparseBitMatrix({}×{}, nnz={}, max_row_deg={}, max_col_deg={})",
            self.rows,
            self.cols,
            self.nnz(),
            self.max_row_degree(),
            self.max_col_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> SparseBitMatrix {
        SparseBitMatrix::from_row_indices(3, 4, &[vec![0, 1], vec![1, 2, 3], vec![0, 3]])
    }

    #[test]
    fn shape_and_degrees() {
        let h = h();
        assert_eq!((h.rows(), h.cols(), h.nnz()), (3, 4, 7));
        assert_eq!(h.row_degree(1), 3);
        assert_eq!(h.col_degree(3), 2);
        assert_eq!(h.max_row_degree(), 3);
        assert_eq!(h.max_col_degree(), 2);
    }

    #[test]
    fn col_support_matches_row_support() {
        let h = h();
        for r in 0..h.rows() {
            for &c in h.row_support(r) {
                assert!(h.col_support(c as usize).contains(&(r as u32)));
            }
        }
    }

    #[test]
    fn mul_vec_matches_dense() {
        let h = h();
        let d = h.to_dense();
        for mask in 0..16u32 {
            let v = BitVec::from_bools(&[
                (mask & 1) != 0,
                (mask & 2) != 0,
                (mask & 4) != 0,
                (mask & 8) != 0,
            ]);
            assert_eq!(h.mul_vec(&v), d.mul_vec(&v));
        }
    }

    #[test]
    fn mul_batch_matches_per_shot_mul_vec() {
        // Use a matrix wide enough to exercise multiple words and ragged
        // batch sizes straddling the 64-shot plane width.
        let cols = 150;
        let rows = 70;
        let row_cols: Vec<Vec<usize>> = (0..rows)
            .map(|r| (0..cols).filter(|c| (r * 31 + c * 17) % 7 == 0).collect())
            .collect();
        let h = SparseBitMatrix::from_row_indices(rows, cols, &row_cols);
        for b in [0usize, 1, 63, 64, 65, 128] {
            let batch: Vec<BitVec> = (0..b)
                .map(|i| {
                    BitVec::from_bools(
                        &(0..cols)
                            .map(|c| (i * 13 + c * 5) % 3 == 0)
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            let got = h.mul_batch(&batch);
            assert_eq!(got.len(), b);
            for (g, v) in got.iter().zip(&batch) {
                assert_eq!(g, &h.mul_vec(v), "batch size {b} diverges");
            }
        }
    }

    #[test]
    fn mul_sparse_vec_matches_mul_vec() {
        let h = h();
        let support = [1usize, 3];
        let v = BitVec::from_indices(4, &support);
        assert_eq!(h.mul_sparse_vec(&support), h.mul_vec(&v));
    }

    #[test]
    fn transpose_roundtrip() {
        let h = h();
        assert_eq!(h.transpose().transpose(), h);
        assert_eq!(h.transpose().to_dense(), h.to_dense().transpose());
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_column_panics() {
        SparseBitMatrix::from_row_indices(1, 3, &[vec![1, 1]]);
    }

    #[test]
    fn from_dense_roundtrip() {
        let m = BitMatrix::from_dense(&[&[1, 0, 1], &[0, 1, 1]]);
        assert_eq!(SparseBitMatrix::from_dense(&m).to_dense(), m);
    }
}
