//! Gaussian elimination over GF(2).
//!
//! Two engines are provided:
//!
//! * [`Echelon`] — plain (optionally reduced) row echelon form with pivot
//!   tracking, behind [`BitMatrix`]'s rank / kernel / row-space
//!   computations,
//! * [`OrderedEliminator`] — elimination that tries columns in a
//!   caller-supplied order while carrying a right-hand side, which is
//!   exactly the primitive ordered-statistics decoding (OSD) needs: the
//!   first `rank` linearly independent columns in reliability order become
//!   the *information set*.

use crate::{BitMatrix, BitVec, WORD_BITS};

/// Result of (reduced) row echelon elimination.
#[derive(Debug, Clone)]
pub(crate) struct Echelon {
    matrix: BitMatrix,
    pivot_cols: Vec<usize>,
}

impl Echelon {
    /// Eliminates `matrix` in place (consuming it) scanning columns left to
    /// right. With `reduced = true` the result is in *reduced* row echelon
    /// form (entries above pivots cleared as well).
    pub(crate) fn reduce(mut matrix: BitMatrix, reduced: bool) -> Self {
        let rows = matrix.rows();
        let cols = matrix.cols();
        let mut pivot_cols = Vec::new();
        let mut next_row = 0usize;
        for col in 0..cols {
            if next_row >= rows {
                break;
            }
            // Find a pivot at or below next_row.
            let Some(pivot) = (next_row..rows).find(|&r| matrix.get(r, col)) else {
                continue;
            };
            matrix.swap_rows(pivot, next_row);
            for r in 0..rows {
                let lower = r > next_row;
                let upper = reduced && r < next_row;
                if (lower || upper) && matrix.get(r, col) {
                    matrix.xor_row_into(next_row, r);
                }
            }
            pivot_cols.push(col);
            next_row += 1;
        }
        Self { matrix, pivot_cols }
    }

    /// The eliminated matrix.
    pub(crate) fn matrix(&self) -> &BitMatrix {
        &self.matrix
    }

    /// Columns containing pivots, in row order.
    pub(crate) fn pivot_cols(&self) -> &[usize] {
        &self.pivot_cols
    }

    /// Rank of the original matrix.
    pub(crate) fn rank(&self) -> usize {
        self.pivot_cols.len()
    }
}

/// Reusable word-parallel workspace for repeated ordered eliminations
/// of a fixed matrix — the OSD decode fast path.
///
/// Rather than cloning the matrix and probing bits one at a time in
/// permuted column order, this workspace applies the
/// reliability permutation **once up front** (a column gather through a
/// transpose cached at construction), carries the right-hand side as an
/// appended column so row operations update it for free, and then
/// eliminates plain left-to-right with word-masked pivot scans and row
/// XORs restricted to the word range that can still be nonzero. After
/// elimination it exposes the OSD-0 base solution plus one *delta* per
/// residual column, `delta_j = solve({j}) ⊕ solve({})`, so a
/// combination sweep forms every candidate as
/// `base ⊕ delta_a ⊕ delta_b` in `O(n / 64)` word operations instead of
/// re-solving the system per pattern.
///
/// Equivalence with a per-bit ordered elimination — same pivots,
/// residual columns, consistency flag and solutions, bit for bit — is
/// pinned against the reference in `qldpc-osd`'s `tests/equivalence.rs`.
///
/// # Examples
///
/// ```
/// use qldpc_gf2::{BitMatrix, BitVec, OrderedEliminator};
///
/// let h = BitMatrix::from_dense(&[&[1, 1, 0], &[0, 1, 1]]);
/// let mut elim = OrderedEliminator::new(&h);
/// let s = BitVec::from_indices(2, &[0]);
/// elim.eliminate(&s, &[0, 1, 2]);
/// assert!(elim.is_consistent());
/// let e = elim.solve_for_pattern(&[]);
/// assert_eq!(h.mul_vec(&e), s);
/// ```
#[derive(Debug, Clone)]
pub struct OrderedEliminator {
    rows: usize,
    cols: usize,
    /// Hᵀ, cached at construction: row `c` holds column `c` of H.
    ht: BitMatrix,
    /// The permuted augmented system, column-major: row `k < cols` is
    /// original column `order[k]`, row `cols` is the rhs. Doubles as
    /// the destination when the RREF is transposed back for the deltas.
    gather_t: BitMatrix,
    /// Row-major permuted augmented matrix `[H·P | s]`; in reduced row
    /// echelon form (over the permuted columns) after [`Self::eliminate`].
    scratch: BitMatrix,
    /// Pivot columns (original indices) in row order.
    pivot_cols: Vec<usize>,
    /// Residual columns (original indices) in the caller's order.
    residual_cols: Vec<usize>,
    /// Permuted index (position in `order`) per residual column.
    perm_residual: Vec<usize>,
    consistent: bool,
    /// OSD-0 solution (zeros when inconsistent or not yet eliminated).
    base: BitVec,
    /// Pooled `delta_j` buffers; only the first [`Self::num_deltas`]
    /// belong to the latest elimination.
    deltas: Vec<BitVec>,
    /// Valid prefix of `deltas` (0 when inconsistent).
    num_deltas: usize,
    /// Pivot-row staging buffer for the row-XOR loop.
    pivot_buf: Vec<u64>,
    /// Permutation-validation scratch.
    seen: Vec<bool>,
}

impl OrderedEliminator {
    /// Builds a workspace for repeated eliminations of `h`.
    pub fn new(h: &BitMatrix) -> Self {
        let (rows, cols) = (h.rows(), h.cols());
        Self {
            rows,
            cols,
            ht: h.transpose(),
            gather_t: BitMatrix::zeros(cols + 1, rows),
            scratch: BitMatrix::zeros(rows, cols + 1),
            pivot_cols: Vec::new(),
            residual_cols: Vec::new(),
            perm_residual: Vec::new(),
            consistent: false,
            base: BitVec::zeros(cols),
            deltas: Vec::new(),
            num_deltas: 0,
            pivot_buf: vec![0; crate::words_for(cols + 1)],
            seen: vec![false; cols],
        }
    }

    /// Number of matrix rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of matrix columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Eliminates `[H·P | rhs]` where `P` permutes columns into `order`,
    /// replacing any previous elimination state.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != rows`, or if `order` is not a permutation
    /// of `0..cols`.
    pub fn eliminate(&mut self, rhs: &BitVec, order: &[usize]) {
        self.eliminate_impl(rhs, order, true);
    }

    /// [`Self::eliminate`], but leaving the per-residual deltas
    /// unmaterialized: [`Self::delta`] and [`Self::solve_for_pattern`]
    /// are unavailable afterwards, while the column views
    /// ([`Self::rhs_column`], [`Self::residual_column`]) and
    /// [`Self::xor_delta_into`] still work. Sweeps that score candidates
    /// by popcount identities over the RREF columns (possible whenever
    /// the score depends only on solution weight) skip the
    /// delta-assembly cost entirely this way.
    pub fn eliminate_without_deltas(&mut self, rhs: &BitVec, order: &[usize]) {
        self.eliminate_impl(rhs, order, false);
    }

    fn eliminate_impl(&mut self, rhs: &BitVec, order: &[usize], materialize_deltas: bool) {
        assert_eq!(rhs.len(), self.rows, "rhs length must equal row count");
        assert_eq!(order.len(), self.cols, "order must cover every column");
        self.seen.fill(false);
        for &c in order {
            assert!(
                c < self.cols && !self.seen[c],
                "order must be a permutation of columns"
            );
            self.seen[c] = true;
        }

        // Gather the permuted columns (= rows of Hᵀ) and the rhs, then
        // flip the whole augmented system into row-major layout with one
        // block transpose.
        for (k, &c) in order.iter().enumerate() {
            self.gather_t
                .row_mut_words(k)
                .copy_from_slice(self.ht.row_words(c));
        }
        self.gather_t
            .row_mut_words(self.cols)
            .copy_from_slice(rhs.as_words());
        self.gather_t.transpose_into(&mut self.scratch);

        // Left-to-right elimination. Invariant: rows ≥ next_row are zero
        // in every permuted column < k, so swaps and pivot-row XORs only
        // need words ≥ k/64 (the pivot row's earlier words are zero).
        // Runs on the raw word slice with incrementally stepped offsets
        // and the pivot row staged in `pivot_buf`, so the inner loops
        // carry no per-access offset arithmetic or row-aliasing splits.
        self.pivot_cols.clear();
        self.residual_cols.clear();
        self.perm_residual.clear();
        let wpr = self.scratch.words_per_row();
        let data = self.scratch.words_mut();
        let mut next_row = 0usize;
        for (k, &col) in order.iter().enumerate() {
            let w = k / WORD_BITS;
            let bit = k % WORD_BITS;
            let mask = 1u64 << bit;
            let mut pivot = usize::MAX;
            let mut idx = next_row * wpr + w;
            for r in next_row..self.rows {
                if data[idx] & mask != 0 {
                    pivot = r;
                    break;
                }
                idx += wpr;
            }
            if pivot == usize::MAX {
                self.residual_cols.push(col);
                self.perm_residual.push(k);
                continue;
            }
            if pivot != next_row {
                let (pa, pb) = (pivot * wpr, next_row * wpr);
                for i in w..wpr {
                    data.swap(pa + i, pb + i);
                }
            }
            let pb = next_row * wpr;
            self.pivot_buf[w..wpr].copy_from_slice(&data[pb + w..pb + wpr]);
            let mut row_base = 0usize;
            for r in 0..self.rows {
                if r != next_row && data[row_base + w] & mask != 0 {
                    for (d, &s) in data[row_base + w..row_base + wpr]
                        .iter_mut()
                        .zip(&self.pivot_buf[w..wpr])
                    {
                        *d ^= s;
                    }
                }
                row_base += wpr;
            }
            self.pivot_cols.push(col);
            next_row += 1;
            if next_row >= self.rows {
                // Remaining columns are all residual.
                for (k2, &c2) in order.iter().enumerate().skip(k + 1) {
                    self.residual_cols.push(c2);
                    self.perm_residual.push(k2);
                }
                break;
            }
        }

        // Consistency: rows below the rank are all-zero in RREF, so the
        // system is solvable iff their rhs (appended-column) bits are 0.
        let rank = self.pivot_cols.len();
        let rw = self.cols / WORD_BITS;
        let rmask = 1u64 << (self.cols % WORD_BITS);
        self.consistent = (rank..self.rows).all(|r| data[r * wpr + rw] & rmask == 0);

        self.base.clear();
        self.num_deltas = 0;
        if self.consistent {
            for r in 0..rank {
                if data[r * wpr + rw] & rmask != 0 {
                    self.base.set(self.pivot_cols[r], true);
                }
            }
            // Flip the RREF back to column-major: the deltas and the
            // column views both read columns, i.e. rows of `gather_t`.
            self.scratch.transpose_into(&mut self.gather_t);
            if materialize_deltas {
                self.compute_deltas();
            }
        }
    }

    /// Materializes `delta_j = solve({j}) ⊕ solve({})` for every
    /// residual column: a one at the residual column itself, plus the
    /// pivot columns whose RREF rows carry a one there. Rows at or below
    /// the rank are all-zero at residual columns (they were zero there
    /// when the column was skipped and no later row operation can touch
    /// it), so every set bit maps directly through `pivot_cols`.
    fn compute_deltas(&mut self) {
        let t = self.residual_cols.len();
        // Grow the pool once; later shots reuse the buffers alloc-free.
        while self.deltas.len() < t {
            self.deltas.push(BitVec::zeros(self.cols));
        }
        for (j, &col) in self.residual_cols.iter().enumerate() {
            let k = self.perm_residual[j];
            let d = &mut self.deltas[j];
            d.clear();
            d.set(col, true);
            for (wi, &word) in self.gather_t.row_words(k).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let r = wi * WORD_BITS + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    d.set(self.pivot_cols[r], true);
                }
            }
        }
        self.num_deltas = t;
    }

    /// Rank of the matrix (size of the information set).
    pub fn rank(&self) -> usize {
        self.pivot_cols.len()
    }

    /// Pivot columns in row order: the OSD information set.
    pub fn pivot_cols(&self) -> &[usize] {
        &self.pivot_cols
    }

    /// Non-pivot columns in the caller's order: the OSD residual set.
    pub fn residual_cols(&self) -> &[usize] {
        &self.residual_cols
    }

    /// Whether `H·e = s` admits any solution at all.
    pub fn is_consistent(&self) -> bool {
        self.consistent
    }

    /// The OSD-0 solution (all residual bits zero). Meaningful only
    /// after an [`Self::eliminate`] that was consistent.
    pub fn base_solution(&self) -> &BitVec {
        &self.base
    }

    /// The transformed right-hand side over the pivot rows, packed in
    /// words: bit `r` is the RREF rhs at pivot row `r` (bits at or
    /// beyond the rank are zero). The base solution scatters exactly
    /// these bits through [`Self::pivot_cols`], so the OSD-0 weight is
    /// this column's popcount. Meaningful only after a consistent
    /// elimination.
    pub fn rhs_column(&self) -> &[u64] {
        self.gather_t.row_words(self.cols)
    }

    /// RREF column for residual position `j` (an index **into
    /// [`Self::residual_cols`]**) over the pivot rows, packed in words.
    /// `delta_j` scatters these bits through [`Self::pivot_cols`] plus
    /// the residual column itself, so
    /// `weight(base ⊕ delta_j) = popcount(rhs_column ⊕ residual_column(j)) + 1`
    /// — the identity weight-only sweeps score candidates with.
    /// Meaningful only after a consistent elimination.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range of the residual set.
    pub fn residual_column(&self, j: usize) -> &[u64] {
        self.gather_t.row_words(self.perm_residual[j])
    }

    /// XORs `delta_j` into `e` straight from the RREF column, without
    /// requiring materialized deltas — this is how a weight-only sweep
    /// assembles its winning candidate after
    /// [`Self::eliminate_without_deltas`].
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range of the residual set or if
    /// `e.len() != cols`.
    pub fn xor_delta_into(&self, j: usize, e: &mut BitVec) {
        assert_eq!(e.len(), self.cols, "solution length must equal cols");
        let col = self.residual_cols[j];
        e.set(col, !e.get(col));
        for (wi, &word) in self.residual_column(j).iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let r = wi * WORD_BITS + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let pc = self.pivot_cols[r];
                e.set(pc, !e.get(pc));
            }
        }
    }

    /// `solve({j}) ⊕ solve({})` for residual position `j` (an index
    /// **into [`Self::residual_cols`]**).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range of the residual set, or if the last
    /// elimination was inconsistent (no deltas exist).
    pub fn delta(&self, j: usize) -> &BitVec {
        assert!(
            j < self.num_deltas,
            "no delta {j}: the last elimination produced {} residual deltas",
            self.num_deltas
        );
        &self.deltas[j]
    }

    /// Solves for the unique `e` with ones at the **distinct** residual
    /// positions `pattern` (indices into [`Self::residual_cols`]) and
    /// `H·e = s`, as `base ⊕ Σ delta_j`.
    ///
    /// # Panics
    ///
    /// Panics if a pattern index is out of range of the residual set.
    pub fn solve_for_pattern(&self, pattern: &[usize]) -> BitVec {
        let mut e = self.base.clone();
        for &j in pattern {
            e.xor_assign(self.delta(j));
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bit_matrix(
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> impl Strategy<Value = BitMatrix> {
        (rows, cols).prop_flat_map(|(r, c)| {
            proptest::collection::vec(proptest::collection::vec(proptest::bool::ANY, c), r)
                .prop_map(move |data| {
                    let mut m = BitMatrix::zeros(data.len(), c);
                    for (i, row) in data.iter().enumerate() {
                        for (j, &b) in row.iter().enumerate() {
                            if b {
                                m.set(i, j, true);
                            }
                        }
                    }
                    m
                })
        })
    }

    fn example() -> BitMatrix {
        BitMatrix::from_dense(&[
            &[1, 1, 0, 1, 0],
            &[0, 1, 1, 0, 1],
            &[1, 0, 1, 1, 1],
            &[1, 1, 0, 1, 0], // duplicate of row 0
        ])
    }

    #[test]
    fn echelon_rank_and_pivots() {
        let ech = Echelon::reduce(example(), false);
        // rows 0,1 independent; row2 = r0+r1; row3 = r0 ⇒ rank 2.
        assert_eq!(ech.rank(), 2);
        assert_eq!(ech.pivot_cols().len(), ech.rank());
    }

    #[test]
    fn pivots_skip_dependent_columns() {
        let m = BitMatrix::from_dense(&[&[1, 1, 0], &[1, 1, 1]]);
        let ech = Echelon::reduce(m, true);
        assert_eq!(ech.rank(), 2);
        assert_eq!(ech.pivot_cols(), &[0, 2]);
    }

    #[test]
    fn reduced_form_clears_above_pivots() {
        let ech = Echelon::reduce(example(), true);
        let m = ech.matrix();
        for (row, &col) in ech.pivot_cols().iter().enumerate() {
            for r in 0..m.rows() {
                assert_eq!(m.get(r, col), r == row, "column {col} should be unit");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn echelon_preserves_row_space(m in bit_matrix(1..6, 1..8)) {
            let ech = Echelon::reduce(m.clone(), true);
            // Every original row must reduce to zero against the echelon rows.
            let basis = ech.matrix().row_space_basis();
            for r in 0..m.rows() {
                let mut v = m.row(r);
                for b in &basis {
                    if let Some(p) = b.iter_ones().next() {
                        if v.get(p) {
                            v.xor_assign(b);
                        }
                    }
                }
                prop_assert!(v.is_zero(), "row {r} escapes the echelon row space");
            }
        }
    }

    #[test]
    fn eliminator_workspace_is_reusable() {
        let h = example();
        let mut elim = OrderedEliminator::new(&h);
        for (seed, order) in [
            (3usize, vec![0usize, 1, 2, 3, 4]),
            (1, vec![4, 2, 0, 3, 1]),
            (2, vec![2, 3, 4, 0, 1]),
        ] {
            let s = h.mul_vec(&BitVec::from_indices(5, &[seed]));
            elim.eliminate(&s, &order);
            assert!(elim.is_consistent());
            let e = elim.solve_for_pattern(&[]);
            assert_eq!(h.mul_vec(&e), s, "order {order:?} base solution wrong");
            assert_eq!(e, elim.base_solution().clone());
        }
    }

    #[test]
    fn eliminator_deltas_shift_single_residual_bits() {
        let h = example();
        let s = h.mul_vec(&BitVec::from_indices(5, &[1, 4]));
        let order: Vec<usize> = (0..5).collect();
        let mut elim = OrderedEliminator::new(&h);
        elim.eliminate(&s, &order);
        for j in 0..elim.residual_cols().len() {
            let expect = &elim.solve_for_pattern(&[j]) ^ elim.base_solution();
            assert_eq!(elim.delta(j), &expect);
            assert!(elim.delta(j).get(elim.residual_cols()[j]));
        }
    }

    #[test]
    fn eliminator_detects_inconsistency() {
        let h = BitMatrix::from_dense(&[&[1, 1], &[0, 0]]);
        let mut elim = OrderedEliminator::new(&h);
        elim.eliminate(&BitVec::from_indices(2, &[1]), &[0, 1]);
        assert!(!elim.is_consistent());
        elim.eliminate(&BitVec::from_indices(2, &[0]), &[0, 1]);
        assert!(elim.is_consistent());
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn eliminator_bad_order_panics() {
        let mut elim = OrderedEliminator::new(&BitMatrix::identity(3));
        elim.eliminate(&BitVec::zeros(3), &[0, 0, 1]);
    }
}
