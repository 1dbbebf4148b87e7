//! Dense bit-packed matrices over GF(2).

use crate::gauss::Echelon;
use crate::{words_for, BitVec, WORD_BITS};
use std::fmt;

/// A dense matrix over GF(2), stored row-major with 64 bits per word.
///
/// `BitMatrix` backs every construction-time computation in the workspace:
/// parity-check matrices are assembled here (via circulant and Kronecker
/// products), logical operators are extracted from kernels and quotient
/// spaces, and ordered-statistics decoding runs Gaussian elimination on a
/// dense working copy.
///
/// # Examples
///
/// ```
/// use qldpc_gf2::BitMatrix;
///
/// // The 4×4 right-cyclic shift S: S^4 = I.
/// let shift = BitMatrix::from_dense(&[
///     &[0, 1, 0, 0],
///     &[0, 0, 1, 0],
///     &[0, 0, 0, 1],
///     &[1, 0, 0, 0],
/// ]);
/// let mut m = BitMatrix::identity(4);
/// for _ in 0..4 {
///     m = m.mul(&shift);
/// }
/// assert_eq!(m, BitMatrix::identity(4));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = words_for(cols);
        Self {
            rows,
            cols,
            words_per_row,
            data: vec![0; rows * words_per_row],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths. An empty slice yields a
    /// `0 × 0` matrix.
    pub fn from_rows(rows: &[BitVec]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut m = Self::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has inconsistent length");
            m.row_mut_words(i).copy_from_slice(r.as_words());
        }
        m
    }

    /// Builds a matrix from a nested boolean description (row major).
    ///
    /// # Panics
    ///
    /// Panics if inner slices have differing lengths.
    pub fn from_dense(rows: &[&[u8]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut m = Self::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has inconsistent length");
            for (j, &v) in r.iter().enumerate() {
                if v != 0 {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds"
        );
        (self.data[row * self.words_per_row + col / WORD_BITS] >> (col % WORD_BITS)) & 1 == 1
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds"
        );
        let w = row * self.words_per_row + col / WORD_BITS;
        let mask = 1u64 << (col % WORD_BITS);
        if value {
            self.data[w] |= mask;
        } else {
            self.data[w] &= !mask;
        }
    }

    /// Read-only view of a row's words.
    #[inline]
    pub fn row_words(&self, row: usize) -> &[u64] {
        &self.data[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    #[inline]
    pub(crate) fn row_mut_words(&mut self, row: usize) -> &mut [u64] {
        &mut self.data[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// Words per row of the packed storage.
    #[inline]
    pub(crate) fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The whole packed storage, row-major with
    /// [`Self::words_per_row`] words per row — the elimination
    /// workspace's hot loops index it directly to keep row operations
    /// free of per-access offset arithmetic.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Copies row `row` into an owned [`BitVec`].
    pub fn row(&self, row: usize) -> BitVec {
        let mut v = BitVec::zeros(self.cols);
        v.as_words_mut().copy_from_slice(self.row_words(row));
        v
    }

    /// Copies column `col` into an owned [`BitVec`] of length `rows`.
    pub fn column(&self, col: usize) -> BitVec {
        let mut v = BitVec::zeros(self.rows);
        for r in 0..self.rows {
            if self.get(r, col) {
                v.set(r, true);
            }
        }
        v
    }

    /// XORs row `src` of `other` into row `dst` of `self`
    /// (`self[dst] ^= other[src]`) — the word-parallel accumulate used
    /// by the bit-sliced batch syndrome kernel, routed through the
    /// runtime-dispatched wide XOR in `qldpc-simd` (exact integer ops —
    /// every dispatch target produces identical words).
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ or either row index is out of
    /// bounds.
    #[inline]
    pub fn xor_row_from(&mut self, other: &Self, src: usize, dst: usize) {
        assert_eq!(self.cols, other.cols, "xor_row_from column count mismatch");
        assert!(
            src < other.rows && dst < self.rows,
            "row index out of bounds"
        );
        let wpr = self.words_per_row;
        let s = &other.data[src * wpr..(src + 1) * wpr];
        let d = &mut self.data[dst * wpr..(dst + 1) * wpr];
        qldpc_simd::xor_words(d, s);
    }

    /// XORs row `src` into row `dst` (`dst ^= src`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn xor_row_into(&mut self, src: usize, dst: usize) {
        assert!(
            src < self.rows && dst < self.rows,
            "row index out of bounds"
        );
        if src == dst {
            // r ^= r zeroes the row; callers never want that implicitly.
            panic!("xor_row_into called with src == dst");
        }
        let wpr = self.words_per_row;
        let (a, b) = if src < dst {
            let (head, tail) = self.data.split_at_mut(dst * wpr);
            (&head[src * wpr..src * wpr + wpr], &mut tail[..wpr])
        } else {
            let (head, tail) = self.data.split_at_mut(src * wpr);
            let dst_slice = &mut head[dst * wpr..dst * wpr + wpr];
            // Need the src row from tail; reborrow as immutable.
            (&tail[..wpr], dst_slice)
        };
        qldpc_simd::xor_words(b, a);
    }

    /// Swaps two rows.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let wpr = self.words_per_row;
        for k in 0..wpr {
            self.data.swap(a * wpr + k, b * wpr + k);
        }
    }

    /// Returns `true` if every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&w| w == 0)
    }

    /// Total number of ones.
    pub fn weight(&self) -> usize {
        qldpc_simd::popcount_words(&self.data) as usize
    }

    /// Matrix transpose.
    ///
    /// Runs the word-parallel 64×64 block-transpose kernel — the same
    /// primitive the bit-sliced batch syndrome check and the OSD
    /// elimination workspace are built on.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        self.transpose_into(&mut t);
        t
    }

    /// Transposes into a preallocated `cols × rows` matrix, overwriting
    /// its contents. Lets hot loops reuse the destination's storage.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not shaped `self.cols() × self.rows()`.
    pub fn transpose_into(&self, out: &mut Self) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, self.rows),
            "transpose destination must be {}×{}",
            self.cols,
            self.rows
        );
        out.data.fill(0);
        let mut block = [0u64; WORD_BITS];
        for rb in 0..self.rows.div_ceil(WORD_BITS) {
            let r0 = rb * WORD_BITS;
            let rmax = (self.rows - r0).min(WORD_BITS);
            for cb in 0..self.words_per_row {
                for (i, b) in block.iter_mut().enumerate().take(rmax) {
                    *b = self.data[(r0 + i) * self.words_per_row + cb];
                }
                if block[..rmax].iter().all(|&w| w == 0) {
                    continue; // destination is already zero
                }
                block[rmax..].fill(0);
                transpose64(&mut block);
                let out_r0 = cb * WORD_BITS;
                let out_rmax = (out.rows - out_r0).min(WORD_BITS);
                for (i, &b) in block.iter().enumerate().take(out_rmax) {
                    out.data[(out_r0 + i) * out.words_per_row + rb] = b;
                }
            }
        }
    }

    /// Matrix product over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn mul(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.rows,
            "matrix product dimension mismatch: {}×{} · {}×{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Self::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            let out_row = out.row_mut_words(r);
            for k in row.iter_ones() {
                let other_row = &other.data[k * other.words_per_row..(k + 1) * other.words_per_row];
                for (d, s) in out_row.iter_mut().zip(other_row) {
                    *d ^= s;
                }
            }
        }
        out
    }

    /// Matrix–vector product `self · v` over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.cols, "matrix–vector dimension mismatch");
        let mut out = BitVec::zeros(self.rows);
        for r in 0..self.rows {
            let mut acc = 0u64;
            for (a, b) in self.row_words(r).iter().zip(v.as_words()) {
                acc ^= a & b;
            }
            if acc.count_ones() % 2 == 1 {
                out.set(r, true);
            }
        }
        out
    }

    /// Kronecker product `self ⊗ other`.
    pub fn kron(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.rows * other.rows, self.cols * other.cols);
        for r1 in 0..self.rows {
            let row1 = self.row(r1);
            for c1 in row1.iter_ones() {
                for r2 in 0..other.rows {
                    let row2 = other.row(r2);
                    for c2 in row2.iter_ones() {
                        out.set(r1 * other.rows + r2, c1 * other.cols + c2, true);
                    }
                }
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &Self) -> Self {
        assert_eq!(self.rows, other.rows, "hstack row count mismatch");
        let mut out = Self::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            let a = self.row(r);
            let b = other.row(r);
            let joined = a.concat(&b);
            out.row_mut_words(r).copy_from_slice(joined.as_words());
        }
        out
    }

    /// Vertical concatenation `[self; other]`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.cols, "vstack column count mismatch");
        let mut out = Self::zeros(self.rows + other.rows, self.cols);
        out.data[..self.data.len()].copy_from_slice(&self.data);
        out.data[self.data.len()..].copy_from_slice(&other.data);
        out
    }

    /// Rank over GF(2).
    pub fn rank(&self) -> usize {
        Echelon::reduce(self.clone(), false).rank()
    }

    /// Basis of the kernel (right null space) `{x : self·x = 0}`.
    ///
    /// Returns one `BitVec` of length `cols()` per basis vector.
    pub fn kernel(&self) -> Vec<BitVec> {
        let ech = Echelon::reduce(self.clone(), true);
        let pivots = ech.pivot_cols();
        let mut is_pivot = vec![false; self.cols];
        let mut pivot_row_of_col = vec![usize::MAX; self.cols];
        for (row, &col) in pivots.iter().enumerate() {
            is_pivot[col] = true;
            pivot_row_of_col[col] = row;
        }
        let reduced = ech.matrix();
        let mut basis = Vec::new();
        for (free, _) in is_pivot.iter().enumerate().filter(|&(_, &piv)| !piv) {
            let mut v = BitVec::zeros(self.cols);
            v.set(free, true);
            // In RREF, each pivot row reads: x_pivot + Σ (free coeffs) = 0.
            for (&pc, row) in pivots.iter().zip(0..) {
                if reduced.get(row, free) {
                    v.set(pc, true);
                }
            }
            basis.push(v);
        }
        basis
    }

    /// A basis for the row space, as owned vectors.
    pub fn row_space_basis(&self) -> Vec<BitVec> {
        let ech = Echelon::reduce(self.clone(), false);
        let rank = ech.rank();
        let m = ech.matrix();
        (0..rank).map(|r| m.row(r)).collect()
    }

    /// Extends a basis of the row space of `sub` to a basis of the row space
    /// of `[sub; extra]`, returning only the *added* vectors.
    ///
    /// This is the quotient-space computation used to extract logical
    /// operators: with `sub` spanning the stabilizer/gauge rows and `extra`
    /// spanning the centralizer kernel, the returned vectors represent a
    /// basis of `rowspace(extra) / rowspace(sub)`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn quotient_basis(sub: &Self, extra: &Self) -> Vec<BitVec> {
        assert_eq!(sub.cols, extra.cols, "quotient_basis column mismatch");
        let cols = sub.cols;
        // Maintain an RREF-like accumulator: rows with known pivot columns.
        let mut acc: Vec<(usize, BitVec)> = Vec::new();
        let reduce = |mut v: BitVec, acc: &Vec<(usize, BitVec)>| -> BitVec {
            for (p, row) in acc {
                if v.get(*p) {
                    v.xor_assign(row);
                }
            }
            v
        };
        let insert = |v: BitVec, acc: &mut Vec<(usize, BitVec)>| -> bool {
            if let Some(p) = v.iter_ones().next() {
                acc.push((p, v));
                true
            } else {
                false
            }
        };
        for r in 0..sub.rows {
            let v = reduce(sub.row(r), &acc);
            insert(v, &mut acc);
        }
        let mut added = Vec::new();
        for r in 0..extra.rows {
            let v = reduce(extra.row(r), &acc);
            if !v.is_zero() {
                added.push(extra.row(r));
                insert(v, &mut acc);
            }
        }
        let _ = cols;
        added
    }
}

/// Transposes a 64×64 bit block held as one `u64` per row, in place.
///
/// Hacker's Delight §7-3, adapted to this crate's LSB-first column
/// numbering (bit `c` of word `r` is entry `(r, c)`): at each step the
/// upper-right and lower-left `j×j` quadrants of every `2j×2j` sub-block
/// are swapped with three XORs per word pair.
fn transpose64(a: &mut [u64; WORD_BITS]) {
    let mut j = WORD_BITS / 2;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < WORD_BITS {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix({}×{})", self.rows, self.cols)?;
        let max_rows = 16.min(self.rows);
        for r in 0..max_rows {
            writeln!(f, "  {}", self.row(r))?;
        }
        if self.rows > max_rows {
            writeln!(f, "  … ({} more rows)", self.rows - max_rows)?;
        }
        Ok(())
    }
}

impl fmt::Display for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            writeln!(f, "{}", self.row(r))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_properties() {
        let id = BitMatrix::identity(5);
        assert_eq!(id.rank(), 5);
        assert!(id.kernel().is_empty());
        let v = BitVec::from_indices(5, &[1, 3]);
        assert_eq!(id.mul_vec(&v), v);
    }

    #[test]
    fn transpose_involution() {
        let m = BitMatrix::from_dense(&[&[1, 0, 1, 1], &[0, 1, 1, 0], &[1, 1, 0, 0]]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_matches_per_bit_across_block_boundaries() {
        // 70×130 spans multiple 64×64 blocks in both directions with
        // ragged edges; fill deterministically and check every entry.
        let (rows, cols) = (70, 130);
        let mut m = BitMatrix::zeros(rows, cols);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for r in 0..rows {
            for c in 0..cols {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state & 1 == 1 {
                    m.set(r, c, true);
                }
            }
        }
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (cols, rows));
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(t.get(c, r), m.get(r, c), "mismatch at ({r},{c})");
            }
        }
        assert_eq!(t.transpose(), m);
        // The reusable variant overwrites stale destination contents.
        let mut out = BitMatrix::zeros(cols, rows);
        for i in 0..rows {
            out.set(i, i, true);
        }
        m.transpose_into(&mut out);
        assert_eq!(out, t);
    }

    #[test]
    fn mul_matches_manual() {
        let a = BitMatrix::from_dense(&[&[1, 1, 0], &[0, 1, 1]]);
        let b = BitMatrix::from_dense(&[&[1, 0], &[1, 1], &[0, 1]]);
        let c = a.mul(&b);
        // c = [[0,1],[1,0]]
        assert_eq!(c, BitMatrix::from_dense(&[&[0, 1], &[1, 0]]));
    }

    #[test]
    fn mul_vec_matches_mul() {
        let a = BitMatrix::from_dense(&[&[1, 1, 0, 1], &[0, 1, 1, 0], &[1, 0, 0, 1]]);
        let v = BitVec::from_indices(4, &[0, 3]);
        let as_mat = BitMatrix::from_rows(std::slice::from_ref(&v)).transpose();
        let prod = a.mul(&as_mat);
        let mv = a.mul_vec(&v);
        for r in 0..3 {
            assert_eq!(prod.get(r, 0), mv.get(r));
        }
    }

    #[test]
    fn kernel_vectors_are_annihilated() {
        let m = BitMatrix::from_dense(&[&[1, 1, 0, 0, 1], &[0, 1, 1, 1, 0], &[1, 0, 1, 1, 1]]);
        let k = m.kernel();
        assert_eq!(k.len(), 5 - m.rank());
        for v in &k {
            assert!(m.mul_vec(v).is_zero(), "kernel vector not annihilated");
        }
    }

    #[test]
    fn kron_dimensions_and_structure() {
        let a = BitMatrix::identity(2);
        let b = BitMatrix::from_dense(&[&[1, 1], &[0, 1]]);
        let k = a.kron(&b);
        assert_eq!(k.rows(), 4);
        assert_eq!(k.cols(), 4);
        assert!(k.get(0, 0) && k.get(0, 1) && k.get(1, 1));
        assert!(k.get(2, 2) && k.get(2, 3) && k.get(3, 3));
        assert!(!k.get(0, 2) && !k.get(2, 0));
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = AC ⊗ BD
        let a = BitMatrix::from_dense(&[&[1, 0], &[1, 1]]);
        let b = BitMatrix::from_dense(&[&[0, 1], &[1, 1]]);
        let c = BitMatrix::from_dense(&[&[1, 1], &[0, 1]]);
        let d = BitMatrix::from_dense(&[&[1, 0], &[1, 0]]);
        let lhs = a.kron(&b).mul(&c.kron(&d));
        let rhs = a.mul(&c).kron(&b.mul(&d));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn hstack_vstack_shapes() {
        let a = BitMatrix::identity(2);
        let b = BitMatrix::zeros(2, 3);
        let h = a.hstack(&b);
        assert_eq!((h.rows(), h.cols()), (2, 5));
        let c = BitMatrix::zeros(4, 5);
        let v = h.vstack(&c);
        assert_eq!((v.rows(), v.cols()), (6, 5));
        assert!(v.get(0, 0) && v.get(1, 1));
    }

    #[test]
    fn quotient_basis_counts() {
        // rowspace(sub) = span{1100, 0011}; extra adds 1000 (and 0100 = 1000+1100 dependent after).
        let sub = BitMatrix::from_dense(&[&[1, 1, 0, 0], &[0, 0, 1, 1]]);
        let extra = BitMatrix::from_dense(&[&[1, 0, 0, 0], &[0, 1, 0, 0], &[1, 1, 1, 1]]);
        let q = BitMatrix::quotient_basis(&sub, &extra);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn row_ops() {
        let mut m = BitMatrix::from_dense(&[&[1, 1, 0], &[0, 1, 1]]);
        m.xor_row_into(0, 1);
        assert_eq!(m.row(1).to_string(), "101");
        m.swap_rows(0, 1);
        assert_eq!(m.row(0).to_string(), "101");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_dimension_mismatch_panics() {
        BitMatrix::zeros(2, 3).mul(&BitMatrix::zeros(2, 3));
    }

    #[test]
    fn row_space_basis_spans() {
        let m = BitMatrix::from_dense(&[&[1, 1, 0], &[0, 1, 1], &[1, 0, 1]]);
        // third row = sum of first two
        let basis = m.row_space_basis();
        assert_eq!(basis.len(), 2);
    }
}
