//! Pins the word-parallel OSD fast path to the naive reference, bit for
//! bit.
//!
//! [`qldpc_osd::osd_postprocess`] runs the incremental
//! `OrderedEliminator` sweep; [`osd_postprocess_reference`] below is the
//! pre-optimization per-bit implementation, kept for exactly this
//! cross-check. Both the returned correction and the candidate count
//! must agree on every input — the fast path is an implementation
//! change, not a behavioural one.

use proptest::prelude::*;
use qldpc_gf2::{BitMatrix, BitVec, OrderedEchelon};
use qldpc_osd::{osd_postprocess, OsdConfig, OsdSelection};

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
