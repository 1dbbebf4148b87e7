//! Property tests for the GF(2) algebra laws.

use proptest::prelude::*;
use qldpc_gf2::{BitMatrix, BitVec, OrderedEliminator, SparseBitMatrix};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn xor_is_commutative_and_self_inverse(a in bit_vec(90), b in bit_vec(90)) {
        let ab = &a ^ &b;
        let ba = &b ^ &a;
        prop_assert_eq!(&ab, &ba);
        let back = &ab ^ &b;
        prop_assert_eq!(back, a);
    }

    #[test]
    fn dot_is_bilinear(a in bit_vec(70), b in bit_vec(70), c in bit_vec(70)) {
        // (a ⊕ b)·c = a·c ⊕ b·c over GF(2).
        let lhs = (&a ^ &b).dot(&c);
        let rhs = a.dot(&c) ^ b.dot(&c);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn weight_matches_iter_ones(a in bit_vec(130)) {
        prop_assert_eq!(a.weight(), a.iter_ones().count());
    }

    #[test]
    fn matrix_vector_distributes(m in bit_matrix(1..6, 1..10), ) {
        let cols = m.cols();
        let strategy_runs = 1; // one pair per matrix case
        for _ in 0..strategy_runs {
            let a = BitVec::from_indices(cols, &[]);
            let ones: Vec<usize> = (0..cols).step_by(2).collect();
            let b = BitVec::from_indices(cols, &ones);
            let lhs = m.mul_vec(&(&a ^ &b));
            let rhs = &m.mul_vec(&a) ^ &m.mul_vec(&b);
            prop_assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn transpose_reverses_products(a in bit_matrix(1..5, 1..6), b_cols in 1usize..6) {
        // Build b with compatible shape.
        let b = BitMatrix::identity(a.cols()).hstack(&BitMatrix::zeros(a.cols(), b_cols));
        let lhs = a.mul(&b).transpose();
        let rhs = b.transpose().mul(&a.transpose());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn rank_is_transpose_invariant(m in bit_matrix(1..7, 1..9)) {
        prop_assert_eq!(m.rank(), m.transpose().rank());
    }

    #[test]
    fn kernel_is_orthogonal_to_row_space(m in bit_matrix(1..7, 1..9)) {
        let kernel = m.kernel();
        let rows = m.row_space_basis();
        for k in &kernel {
            prop_assert!(m.mul_vec(k).is_zero());
            for r in &rows {
                prop_assert!(!r.dot(k), "kernel vector not orthogonal to row space");
            }
        }
        prop_assert_eq!(kernel.len() + m.rank(), m.cols());
    }

    #[test]
    fn block_transpose_matches_per_bit_transpose(m in bit_matrix(1..100, 1..100)) {
        let t = m.transpose();
        let mut naive = BitMatrix::zeros(m.cols(), m.rows());
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                if m.get(r, c) {
                    naive.set(c, r, true);
                }
            }
        }
        prop_assert_eq!(&t, &naive);
        prop_assert_eq!(t.transpose(), m);
    }

    #[test]
    fn eliminator_deltas_match_solve_for_pattern(
        inputs in bit_matrix(2..15, 2..50).prop_flat_map(|m| {
            let c = m.cols();
            (
                Just(m),
                0u64..1_000_000,
                proptest::collection::vec(proptest::bool::ANY, c),
            )
        })
    ) {
        let (m, order_seed, e_bits) = inputs;
        let order = shuffled_order(m.cols(), order_seed);
        // A syndrome in the image keeps the system consistent, so every
        // residual pattern has a solution to cross-check.
        let e = BitVec::from_bools(&e_bits);
        let rhs = m.mul_vec(&e);
        let mut elim = OrderedEliminator::new(&m);
        elim.eliminate(&rhs, &order);
        prop_assert!(elim.is_consistent());
        let base = elim.base_solution().clone();
        prop_assert_eq!(m.mul_vec(&base), rhs.clone());
        for j in 0..elim.residual_cols().len() {
            // delta_j = solve({j}) ⊕ solve({}) — and it lies in ker(H).
            let mut via_delta = base.clone();
            via_delta.xor_assign(elim.delta(j));
            prop_assert_eq!(&via_delta, &elim.solve_for_pattern(&[j]));
            prop_assert!(m.mul_vec(elim.delta(j)).is_zero());
        }
    }

    #[test]
    fn mul_batch_matches_per_shot_mul_vec(
        inputs in bit_matrix(1..20, 1..80).prop_flat_map(|m| {
            let c = m.cols();
            // Batch widths below, at, and straddling the 64-bit plane.
            let batches = (0usize..5).prop_flat_map(move |i| {
                let n = [1usize, 63, 64, 65, 128][i];
                proptest::collection::vec(bit_vec(c), n)
            });
            (Just(m), batches)
        })
    ) {
        let (m, batch) = inputs;
        let h = SparseBitMatrix::from_dense(&m);
        let outs = h.mul_batch(&batch);
        prop_assert_eq!(outs.len(), batch.len());
        for (out, v) in outs.iter().zip(&batch) {
            prop_assert_eq!(out, &h.mul_vec(v));
        }
    }

    #[test]
    fn kron_dimensions(a in bit_matrix(1..4, 1..4), b in bit_matrix(1..4, 1..4)) {
        let k = a.kron(&b);
        prop_assert_eq!(k.rows(), a.rows() * b.rows());
        prop_assert_eq!(k.cols(), a.cols() * b.cols());
        prop_assert_eq!(k.weight(), a.weight() * b.weight());
    }
}
