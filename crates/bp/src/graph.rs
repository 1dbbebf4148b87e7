//! Tanner-graph edge layout shared by the BP schedules.

use qldpc_gf2::SparseBitMatrix;

/// Precomputed edge indexing for a Tanner graph.
///
/// Edges are numbered in row-major order of the check matrix: edge `e`
/// connects check `edge_check[e]` with variable `edge_var[e]`. Both
/// check-major and variable-major traversals are precomputed: the
/// decoder's sweep walks the check-major one every iteration, and the
/// variable-major one only under posterior memory.
///
/// # The check-major edge-ordering invariant
///
/// Edge ids are assigned by walking the check matrix row by row, so the
/// edges of check `c` occupy the **contiguous, ascending** id range
/// returned by [`Self::check_edges`], and ranges of successive checks
/// are adjacent (`check_edges(c).end == check_edges(c + 1).start`). The
/// sweep relies on this: it slices one check's `deg × lanes` message
/// sub-slab out of the edge-major slabs with a single range index
/// (`range.start * lanes..range.end * lanes`), and both of its
/// formulations (one lane, interleaved lanes) iterate a check's edges in
/// exactly this id order — part of the per-precision bit-identity
/// contract across tile widths, since a different traversal order would
/// reassociate the floating-point reductions. [`Self::check_vars`] is
/// parallel to this range, and the variable-major view
/// ([`Self::var_edges`]) lists each variable's edges in ascending id
/// order for the same reason: the check-major sweep adds a variable's
/// messages as it meets them, checks ascending, which is this order.
///
/// # Examples
///
/// ```
/// use qldpc_bp::TannerGraph;
/// use qldpc_gf2::SparseBitMatrix;
///
/// let h = SparseBitMatrix::from_row_indices(2, 3, &[vec![0, 1], vec![1, 2]]);
/// let g = TannerGraph::new(&h);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.check_edges(0).len(), 2);
/// assert_eq!(g.var_edges(1).len(), 2); // variable 1 touches both checks
/// ```
#[derive(Debug, Clone)]
pub struct TannerGraph {
    num_checks: usize,
    num_vars: usize,
    /// Check-major CSR of edge ids (edge ids are contiguous per check).
    check_ptr: Vec<u32>,
    /// Variable endpoint of each edge, in check-major edge order.
    edge_var: Vec<u32>,
    /// Variable-major grouping of edge ids.
    var_ptr: Vec<u32>,
    var_edge: Vec<u32>,
}

impl TannerGraph {
    /// Builds the edge layout from a sparse check matrix.
    pub fn new(h: &SparseBitMatrix) -> Self {
        let num_checks = h.rows();
        let num_vars = h.cols();
        let mut check_ptr = Vec::with_capacity(num_checks + 1);
        let mut edge_var = Vec::with_capacity(h.nnz());
        check_ptr.push(0u32);
        for r in 0..num_checks {
            for &c in h.row_support(r) {
                edge_var.push(c);
            }
            check_ptr.push(edge_var.len() as u32);
        }
        // Group edge ids by variable.
        let mut counts = vec![0u32; num_vars + 1];
        for &v in &edge_var {
            counts[v as usize + 1] += 1;
        }
        for v in 0..num_vars {
            counts[v + 1] += counts[v];
        }
        let var_ptr = counts.clone();
        let mut cursor = counts;
        let mut var_edge = vec![0u32; edge_var.len()];
        for (e, &v) in edge_var.iter().enumerate() {
            var_edge[cursor[v as usize] as usize] = e as u32;
            cursor[v as usize] += 1;
        }
        Self {
            num_checks,
            num_vars,
            check_ptr,
            edge_var,
            var_ptr,
            var_edge,
        }
    }

    /// Number of check nodes (rows).
    #[inline]
    pub fn num_checks(&self) -> usize {
        self.num_checks
    }

    /// Number of variable nodes (columns).
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of edges (ones in the check matrix).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edge_var.len()
    }

    /// The contiguous, ascending edge-id range of check `c` (see the
    /// check-major edge-ordering invariant in the type docs). This is
    /// the single source of a check's edge range — the former
    /// `check_edge_range` duplicate is gone.
    #[inline]
    pub fn check_edges(&self, c: usize) -> std::ops::Range<usize> {
        self.check_ptr[c] as usize..self.check_ptr[c + 1] as usize
    }

    /// Variable endpoints of the edges of check `c`, parallel to
    /// [`Self::check_edges`].
    #[inline]
    pub fn check_vars(&self, c: usize) -> &[u32] {
        &self.edge_var[self.check_edges(c)]
    }

    /// Edge ids incident to variable `v`.
    #[inline]
    pub fn var_edges(&self, v: usize) -> &[u32] {
        &self.var_edge[self.var_ptr[v] as usize..self.var_ptr[v + 1] as usize]
    }

    /// Variable endpoint of edge `e`.
    #[inline]
    pub fn edge_var(&self, e: usize) -> usize {
        self.edge_var[e] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_layout_roundtrip() {
        let h =
            SparseBitMatrix::from_row_indices(3, 4, &[vec![0, 1, 2], vec![1, 3], vec![0, 2, 3]]);
        let g = TannerGraph::new(&h);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.num_checks(), 3);
        assert_eq!(g.num_vars(), 4);
        // Every edge appears exactly once in the variable-major view.
        let mut seen = vec![false; g.num_edges()];
        for v in 0..g.num_vars() {
            for &e in g.var_edges(v) {
                assert!(!seen[e as usize]);
                seen[e as usize] = true;
                assert_eq!(g.edge_var(e as usize), v);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// Pins the check-major edge-ordering invariant the sweep's slab
    /// slicing depends on: per-check ranges are contiguous, ascending,
    /// and adjacent across successive checks.
    #[test]
    fn check_edge_ranges_are_contiguous_and_adjacent() {
        let h =
            SparseBitMatrix::from_row_indices(3, 4, &[vec![0, 1, 2], vec![1, 3], vec![0, 2, 3]]);
        let g = TannerGraph::new(&h);
        let mut next_start = 0;
        for c in 0..g.num_checks() {
            let r = g.check_edges(c);
            assert_eq!(r.start, next_start, "check {c} range is not adjacent");
            assert_eq!(r.len(), g.check_vars(c).len());
            next_start = r.end;
        }
        assert_eq!(next_start, g.num_edges());
        // The variable-major view lists edge ids ascending per variable.
        for v in 0..g.num_vars() {
            let edges = g.var_edges(v);
            assert!(edges.windows(2).all(|w| w[0] < w[1]), "variable {v}");
        }
    }

    #[test]
    fn check_vars_match_matrix() {
        let h = SparseBitMatrix::from_row_indices(2, 5, &[vec![0, 4], vec![1, 2, 3]]);
        let g = TannerGraph::new(&h);
        assert_eq!(g.check_vars(0), &[0, 4]);
        assert_eq!(g.check_vars(1), &[1, 2, 3]);
    }
}
