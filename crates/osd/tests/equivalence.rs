//! Pins the word-parallel OSD fast path to the naive reference, bit for
//! bit.
//!
//! [`qldpc_osd::osd_postprocess`] runs the incremental
//! `OrderedEliminator` sweep; [`osd_postprocess_reference`] below is the
//! pre-optimization per-bit implementation, kept for exactly this
//! cross-check. Both the returned correction and the candidate count
//! must agree on every input — the fast path is an implementation
//! change, not a behavioural one.
//!
//! The reference runs on [`OrderedEchelon`], the per-bit ordered
//! elimination defined here, which in turn pins `OrderedEliminator`'s
//! pivots, residual columns, consistency flag and solutions.

use proptest::prelude::*;
use qldpc_gf2::{BitMatrix, BitVec, OrderedEliminator};
use qldpc_osd::{osd_postprocess, OsdConfig, OsdSelection};

/// Column-ordered elimination of an augmented system `[H | s]`.
///
/// Columns are tried in the caller's `order`; OSD passes the columns most
/// likely to be in error first (ascending posterior LLR), so that they land
/// in the information set.
///
/// After reduction (to reduced row echelon form over the chosen pivots) the
/// system satisfies, for every test pattern `t` on the non-pivot columns,
///
/// ```text
/// e[pivot_row r] = s'[r] ⊕ Σ_{j ∈ supp(t)} H'[r, j]
/// ```
///
/// which [`OrderedEchelon::solve_for_pattern`] evaluates in
/// `O(rank · |t|)` plus output assembly, enabling fast combination sweeps.
#[derive(Debug, Clone)]
struct OrderedEchelon {
    /// RREF of H (same column indexing as the original matrix).
    matrix: BitMatrix,
    /// Transformed syndrome.
    rhs: BitVec,
    /// Pivot column per pivot row, in row order.
    pivot_cols: Vec<usize>,
    /// Non-pivot ("residual") columns in the caller's order.
    residual_cols: Vec<usize>,
    /// True iff the transformed syndrome is consistent (no pivot-free row
    /// with a 1 on the right-hand side).
    consistent: bool,
}

impl OrderedEchelon {
    /// Eliminates `[matrix | rhs]` trying columns in `order`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != matrix.rows()`, if `order.len() !=
    /// matrix.cols()`, or if `order` is not a permutation of `0..cols`.
    fn reduce(mut matrix: BitMatrix, rhs: &BitVec, order: &[usize]) -> Self {
        assert_eq!(rhs.len(), matrix.rows(), "rhs length must equal row count");
        assert_eq!(order.len(), matrix.cols(), "order must cover every column");
        let mut seen = vec![false; matrix.cols()];
        for &c in order {
            assert!(
                c < matrix.cols() && !seen[c],
                "order must be a permutation of columns"
            );
            seen[c] = true;
        }

        let rows = matrix.rows();
        let mut rhs = rhs.clone();
        let mut pivot_cols = Vec::new();
        let mut residual_cols = Vec::new();
        let mut next_row = 0usize;
        for &col in order {
            if next_row >= rows {
                residual_cols.push(col);
                continue;
            }
            let Some(pivot) = (next_row..rows).find(|&r| matrix.get(r, col)) else {
                residual_cols.push(col);
                continue;
            };
            matrix.swap_rows(pivot, next_row);
            let sp = rhs.get(pivot.max(next_row));
            let sn = rhs.get(next_row);
            if pivot != next_row {
                rhs.set(next_row, sp);
                rhs.set(pivot, sn);
            }
            for r in 0..rows {
                if r != next_row && matrix.get(r, col) {
                    matrix.xor_row_into(next_row, r);
                    if rhs.get(next_row) {
                        let v = rhs.get(r);
                        rhs.set(r, !v);
                    }
                }
            }
            pivot_cols.push(col);
            next_row += 1;
        }
        // Consistency: any all-zero row must have rhs 0. Rows >= rank are
        // all-zero in RREF.
        let rank = pivot_cols.len();
        let consistent = (rank..rows).all(|r| !rhs.get(r));
        Self {
            matrix,
            rhs,
            pivot_cols,
            residual_cols,
            consistent,
        }
    }

    /// Rank of the matrix (size of the information set).
    fn rank(&self) -> usize {
        self.pivot_cols.len()
    }

    /// Pivot columns in row order: the OSD information set.
    fn pivot_cols(&self) -> &[usize] {
        &self.pivot_cols
    }

    /// Non-pivot columns in the caller's order: the OSD residual set.
    fn residual_cols(&self) -> &[usize] {
        &self.residual_cols
    }

    /// Whether `H·e = s` admits any solution at all.
    fn is_consistent(&self) -> bool {
        self.consistent
    }

    /// Solves for the unique `e` with `e[residual] = pattern` (given as
    /// indices **into [`Self::residual_cols`]**) and `H·e = s`.
    ///
    /// `pattern` lists positions of ones within the residual set; an empty
    /// pattern yields the OSD-0 solution.
    ///
    /// # Panics
    ///
    /// Panics if a pattern index is out of range of the residual set.
    fn solve_for_pattern(&self, pattern: &[usize]) -> BitVec {
        let mut e = BitVec::zeros(self.matrix.cols());
        // rhs' accumulated at pivot rows.
        let mut acc = self.rhs.clone();
        for &t in pattern {
            let col = self.residual_cols[t];
            e.set(col, true);
            // acc ^= column `col` of the RREF matrix.
            for (row, &_pc) in self.pivot_cols.iter().enumerate() {
                if self.matrix.get(row, col) {
                    let v = acc.get(row);
                    acc.set(row, !v);
                }
            }
        }
        for (row, &pc) in self.pivot_cols.iter().enumerate() {
            if acc.get(row) {
                e.set(pc, true);
            }
        }
        e
    }

    /// Weight of the solution for `pattern` without materializing it.
    ///
    /// Equivalent to `self.solve_for_pattern(pattern).weight()` but avoids
    /// allocating the error vector; used by the OSD combination sweep.
    fn solution_weight(&self, pattern: &[usize]) -> usize {
        let mut acc = self.rhs.slice(0..self.pivot_cols.len());
        for &t in pattern {
            let col = self.residual_cols[t];
            for row in 0..self.pivot_cols.len() {
                if self.matrix.get(row, col) {
                    let v = acc.get(row);
                    acc.set(row, !v);
                }
            }
        }
        acc.weight() + pattern.len()
    }
}

fn bit_vec(len: usize) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(proptest::bool::ANY, len).prop_map(|b| BitVec::from_bools(&b))
}

/// A seed-determined permutation of `0..cols` (Fisher–Yates).
fn shuffled_order(cols: usize, seed: u64) -> Vec<usize> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..cols).collect();
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// The per-column soft cost `ln((1−p)/p)`, floored at a tiny positive
/// value — the library's `SoftWeight` scoring cost.
fn soft_costs(priors: &[f64]) -> Vec<f64> {
    priors
        .iter()
        .map(|&p| {
            let p = p.clamp(1e-12, 1.0 - 1e-12);
            ((1.0 - p) / p).ln().max(1e-9)
        })
        .collect()
}

/// Columns by ascending posterior LLR (most suspicious first), ties by
/// index — the stable ascending sort the library's integer-keyed sort
/// reproduces.
fn reliability_order(posteriors: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..posteriors.len()).collect();
    order.sort_by(|&a, &b| posteriors[a].total_cmp(&posteriors[b]));
    order
}

/// The pre-workspace OSD stage: per-bit [`OrderedEchelon`] elimination
/// (cloning `h`) and a from-scratch solve per sweep candidate.
fn osd_postprocess_reference(
    h: &BitMatrix,
    syndrome: &BitVec,
    posteriors: &[f64],
    priors: &[f64],
    config: OsdConfig,
) -> (BitVec, bool, usize) {
    let n = h.cols();
    let order = reliability_order(posteriors);
    let ech = OrderedEchelon::reduce(h.clone(), syndrome, &order);
    if !ech.is_consistent() {
        return (BitVec::zeros(n), false, 0);
    }

    let cost = soft_costs(priors);
    let score = |e: &BitVec| -> f64 {
        match config.selection {
            OsdSelection::MinWeight => e.weight() as f64,
            OsdSelection::SoftWeight => e.iter_ones().map(|i| cost[i]).sum(),
        }
    };

    // OSD-0 candidate.
    let mut best = ech.solve_for_pattern(&[]);
    let mut best_score = score(&best);
    let mut candidates = 1usize;

    if config.order > 0 {
        let t = ech.residual_cols().len();
        // All weight-1 residual patterns.
        for j in 0..t {
            let e = ech.solve_for_pattern(&[j]);
            let sc = score(&e);
            candidates += 1;
            if sc < best_score {
                best_score = sc;
                best = e;
            }
        }
        // Weight-2 patterns within the first λ residual positions.
        let lambda = config.order.min(t);
        for a in 0..lambda {
            for b in (a + 1)..lambda {
                let e = ech.solve_for_pattern(&[a, b]);
                let sc = score(&e);
                candidates += 1;
                if sc < best_score {
                    best_score = sc;
                    best = e;
                }
            }
        }
    }
    (best, true, candidates)
}

fn bit_matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = BitMatrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(proptest::collection::vec(proptest::bool::ANY, c), r).prop_map(
            move |data| {
                let mut m = BitMatrix::zeros(data.len(), c);
                for (i, row) in data.iter().enumerate() {
                    for (j, &b) in row.iter().enumerate() {
                        if b {
                            m.set(i, j, true);
                        }
                    }
                }
                m
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fast_postprocess_matches_reference(
        inputs in
            bit_matrix(2..12, 2..40).prop_flat_map(|m| {
                let c = m.cols();
                (
                    Just(m),
                    proptest::collection::vec(proptest::bool::ANY, c),
                    (
                        proptest::collection::vec(0.0f64..1.0, c),
                        proptest::collection::vec(1e-4f64..0.4, c),
                    ),
                    (0usize..12, proptest::bool::ANY, proptest::bool::ANY),
                )
            })
    ) {
        let (m, e_bits, (posteriors, mut priors), (order, min_weight, uniform)) = inputs;
        if uniform {
            // Uniform priors take the fast path's popcount scoring table.
            let p0 = priors[0];
            priors.fill(p0);
        }
        // Syndromes in the image exercise the full candidate sweep;
        // flipping one check bit on top exercises the inconsistent and
        // rank-deficient branches too.
        let e = BitVec::from_bools(&e_bits);
        let mut syndrome = m.mul_vec(&e);
        if order % 2 == 1 {
            let flip = order % syndrome.len();
            syndrome.set(flip, !syndrome.get(flip));
        }
        let config = OsdConfig {
            order,
            selection: if min_weight {
                OsdSelection::MinWeight
            } else {
                OsdSelection::SoftWeight
            },
        };
        let fast = osd_postprocess(&m, &syndrome, &posteriors, &priors, config);
        let reference = osd_postprocess_reference(&m, &syndrome, &posteriors, &priors, config);
        prop_assert_eq!(fast, reference);
    }
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
fn ordered_echelon_osd0_solution_satisfies_syndrome() {
    let h = BitMatrix::from_dense(&[&[1, 1, 0], &[0, 1, 1]]);
    let s = BitVec::from_indices(2, &[0]);
    let order: Vec<usize> = (0..3).collect();
    let ech = OrderedEchelon::reduce(h.clone(), &s, &order);
    let e = ech.solve_for_pattern(&[]);
    assert_eq!(h.mul_vec(&e), s); // OSD-0 solution satisfies the syndrome
}

#[test]
fn ordered_echelon_solves_syndrome() {
    let h = example();
    let true_e = BitVec::from_indices(5, &[1, 4]);
    let s = h.mul_vec(&true_e);
    let order: Vec<usize> = vec![4, 3, 2, 1, 0];
    let ech = OrderedEchelon::reduce(h.clone(), &s, &order);
    assert!(ech.is_consistent());
    let e0 = ech.solve_for_pattern(&[]);
    assert_eq!(h.mul_vec(&e0), s);
}

#[test]
fn ordered_echelon_all_patterns_satisfy() {
    let h = example();
    let s = h.mul_vec(&BitVec::from_indices(5, &[0, 2]));
    let order: Vec<usize> = (0..5).collect();
    let ech = OrderedEchelon::reduce(h.clone(), &s, &order);
    let t = ech.residual_cols().len();
    for mask in 0..(1usize << t) {
        let pattern: Vec<usize> = (0..t).filter(|i| mask >> i & 1 == 1).collect();
        let e = ech.solve_for_pattern(&pattern);
        assert_eq!(h.mul_vec(&e), s, "pattern {pattern:?} violates syndrome");
        assert_eq!(e.weight(), ech.solution_weight(&pattern));
    }
}

#[test]
fn inconsistent_system_detected() {
    // h has a zero row; a syndrome with a 1 there is unsolvable.
    let h = BitMatrix::from_dense(&[&[1, 1], &[0, 0]]);
    let s = BitVec::from_indices(2, &[1]);
    let ech = OrderedEchelon::reduce(h, &s, &[0, 1]);
    assert!(!ech.is_consistent());
}

#[test]
fn respects_column_order_for_information_set() {
    let h = BitMatrix::from_dense(&[&[1, 1, 1]]);
    let s = BitVec::zeros(1);
    let ech = OrderedEchelon::reduce(h.clone(), &s, &[2, 0, 1]);
    assert_eq!(ech.pivot_cols(), &[2]);
    let ech2 = OrderedEchelon::reduce(h, &s, &[1, 2, 0]);
    assert_eq!(ech2.pivot_cols(), &[1]);
}

#[test]
#[should_panic(expected = "permutation")]
fn bad_order_panics() {
    let h = BitMatrix::identity(3);
    OrderedEchelon::reduce(h, &BitVec::zeros(3), &[0, 0, 1]);
}

#[test]
fn eliminator_matches_ordered_echelon() {
    let h = example();
    let s = h.mul_vec(&BitVec::from_indices(5, &[0, 2]));
    let order: Vec<usize> = vec![3, 1, 4, 0, 2];
    let ech = OrderedEchelon::reduce(h.clone(), &s, &order);
    let mut elim = OrderedEliminator::new(&h);
    elim.eliminate(&s, &order);
    assert_eq!(elim.rank(), ech.rank());
    assert_eq!(elim.pivot_cols(), ech.pivot_cols());
    assert_eq!(elim.residual_cols(), ech.residual_cols());
    assert_eq!(elim.is_consistent(), ech.is_consistent());
    let t = ech.residual_cols().len();
    for mask in 0..(1usize << t) {
        let pattern: Vec<usize> = (0..t).filter(|i| mask >> i & 1 == 1).collect();
        assert_eq!(
            elim.solve_for_pattern(&pattern),
            ech.solve_for_pattern(&pattern),
            "pattern {pattern:?} diverges"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ordered_echelon_solutions_satisfy(m in bit_matrix(2..6, 2..8), seed in 0u64..200) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut e = BitVec::zeros(m.cols());
        for i in 0..m.cols() {
            if rng.random_bool(0.4) { e.set(i, true); }
        }
        let s = m.mul_vec(&e);
        let order: Vec<usize> = (0..m.cols()).collect();
        let ech = OrderedEchelon::reduce(m.clone(), &s, &order);
        prop_assert!(ech.is_consistent());
        let sol = ech.solve_for_pattern(&[]);
        prop_assert_eq!(m.mul_vec(&sol), s);
    }

    #[test]
    fn eliminator_matches_naive_ordered_echelon(
        inputs in bit_matrix(1..20, 1..70).prop_flat_map(|m| {
            let r = m.rows();
            (Just(m), 0u64..1_000_000, bit_vec(r))
        })
    ) {
        let (m, order_seed, rhs) = inputs;
        let order = shuffled_order(m.cols(), order_seed);
        let naive = OrderedEchelon::reduce(m.clone(), &rhs, &order);
        let mut elim = OrderedEliminator::new(&m);
        elim.eliminate(&rhs, &order);
        prop_assert_eq!(elim.rank(), naive.rank());
        prop_assert_eq!(elim.pivot_cols(), naive.pivot_cols());
        prop_assert_eq!(elim.residual_cols(), naive.residual_cols());
        prop_assert_eq!(elim.is_consistent(), naive.is_consistent());
        if elim.is_consistent() {
            // OSD-0, every weight-1 pattern, and a weight-2 prefix —
            // exactly the patterns the OSD-CS sweep enumerates.
            let t = elim.residual_cols().len();
            let mut patterns: Vec<Vec<usize>> = vec![vec![]];
            patterns.extend((0..t).map(|j| vec![j]));
            let lambda = t.min(6);
            for a in 0..lambda {
                for b in (a + 1)..lambda {
                    patterns.push(vec![a, b]);
                }
            }
            for p in &patterns {
                prop_assert_eq!(elim.solve_for_pattern(p), naive.solve_for_pattern(p));
            }
        }
    }
}
