//! Property suite pinning the batched kernel to the scalar decoder —
//! at **both** message precisions.
//!
//! The contract: for any code, any syndromes, both schedules, both
//! damping modes (and both check-node rules, with and without posterior
//! memory), the batch engine's output — posteriors, iteration counts,
//! convergence flags, oscillation flip counts — is **bit-identical** to
//! decoding each shot with the scalar decoder *of the same precision*.
//! Every strategy below runs once with `f64` messages and once with
//! `f32` messages; posteriors are compared through the exact bit
//! patterns (`Llr::to_bits_u64`), so even a last-ulp reassociation in
//! either precision's batch kernel fails the suite. There is **no**
//! cross-precision assertion — f32 legitimately diverges from f64.
//!
//! On top of the precision axis, every configuration is forced through
//! **every SIMD dispatch target compiled into this binary**
//! ([`qldpc_bp::supported_simd_targets`]): the scalar target, which
//! decodes every lane alone through the one-lane sweep, and on x86_64 the
//! AVX2 and (when the CPU has it) AVX-512 lane bodies. The lane body
//! promises the *same bits* as the one-lane sweep, so one comparison
//! against one-shot decodes per target pins all of them at once.

use proptest::prelude::*;
use qldpc_bp::{
    BpAlgorithm, BpConfig, BpResult, DampingSchedule, Llr, MinSumDecoder, MinSumDecoderOf, Schedule,
};
use qldpc_gf2::{BitVec, SparseBitMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sparse_matrix() -> impl Strategy<Value = SparseBitMatrix> {
    (2usize..10, 4usize..20).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            proptest::collection::btree_set(0..cols, 1..=cols.min(4)),
            rows,
        )
        .prop_map(move |r| {
            let lists: Vec<Vec<usize>> = r.into_iter().map(|s| s.into_iter().collect()).collect();
            SparseBitMatrix::from_row_indices(lists.len(), cols, &lists)
        })
    })
}

/// Index of the empty check row in every [`dem_like_matrix`].
const EMPTY_ROW: usize = 2;

/// Circuit-level shapes [`sparse_matrix`] never reaches: a check of
/// weight 40–96 (a detector-error-model row, past any inline buffer a
/// per-check scratch might use), an empty check row, four zero-degree
/// columns at the end, and a chain of checks in which each shares a
/// variable with the one before it.
fn dem_like_matrix() -> impl Strategy<Value = SparseBitMatrix> {
    (100usize..140, 40usize..=96, 2usize..8, 0u64..1_000_000).prop_map(
        |(cols, heavy, light_rows, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let used = cols - 4;
            let mut row = |weight: usize, shared: usize| {
                let mut set = std::collections::BTreeSet::from([shared]);
                while set.len() < weight {
                    set.insert(rng.random_range(0..used));
                }
                set.into_iter().collect::<Vec<usize>>()
            };
            let mut rows = vec![row(heavy, 0)];
            for i in 0..=light_rows {
                if rows.len() == EMPTY_ROW {
                    rows.push(Vec::new());
                }
                let shared = *rows
                    .iter()
                    .rev()
                    .find_map(|r| r.last())
                    .expect("row 0 is not empty");
                rows.push(row(1 + (seed as usize + i) % 12, shared));
            }
            SparseBitMatrix::from_row_indices(rows.len(), cols, &rows)
        },
    )
}

/// A mixed batch: syndromes of random errors (mostly decodable) plus raw
/// random syndromes (often inconsistent, exercising non-convergence).
fn random_batch(h: &SparseBitMatrix, shots: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..shots)
        .map(|i| {
            if i % 3 == 2 {
                let mut s = BitVec::zeros(h.rows());
                for c in 0..h.rows() {
                    if rng.random_bool(0.5) {
                        s.set(c, true);
                    }
                }
                s
            } else {
                let mut e = BitVec::zeros(h.cols());
                for v in 0..h.cols() {
                    if rng.random_bool(0.2) {
                        e.set(v, true);
                    }
                }
                h.mul_vec(&e)
            }
        })
        .collect()
}

fn assert_bit_identical<T: Llr>(batch: &BpResult<T>, scalar: &BpResult<T>, ctx: &str) {
    assert_eq!(batch.converged, scalar.converged, "{ctx}: converged");
    assert_eq!(batch.iterations, scalar.iterations, "{ctx}: iterations");
    assert_eq!(batch.error_hat, scalar.error_hat, "{ctx}: error_hat");
    assert_eq!(batch.flip_counts, scalar.flip_counts, "{ctx}: flip_counts");
    assert_eq!(batch.posteriors.len(), scalar.posteriors.len(), "{ctx}");
    for (v, (b, s)) in batch.posteriors.iter().zip(&scalar.posteriors).enumerate() {
        assert_eq!(
            b.to_bits_u64(),
            s.to_bits_u64(),
            "{ctx}: posterior of variable {v} diverged ({b:?} vs {s:?})"
        );
    }
}

/// Batch ≡ scalar at one precision; returns the scalar results.
fn check_config_at<T: Llr>(
    h: &SparseBitMatrix,
    priors: &[f64],
    syndromes: &[BitVec],
    config: BpConfig,
) -> Vec<BpResult<T>> {
    let mut batch = MinSumDecoderOf::<T>::new(h, priors, config);
    let mut scalar = MinSumDecoderOf::<T>::new(h, priors, config);
    let results = batch.decode_batch_results(syndromes);
    assert_eq!(results.len(), syndromes.len());
    let scalar_results: Vec<_> = syndromes.iter().map(|s| scalar.decode(s)).collect();
    for (i, (rb, rs)) in results.iter().zip(&scalar_results).enumerate() {
        assert_bit_identical(
            rb,
            rs,
            &format!("shot {i} at {} under {config:?}", T::PRECISION),
        );
    }
    scalar_results
}

/// Runs one configuration's batch≡scalar check at f64 *and* f32, with
/// the batch engine pinned to every compiled-in SIMD dispatch target in
/// turn. The reference is one `decode` per shot (a one-lane tile), so
/// each pass proves one target reproduces the one-lane sweep's bits
/// exactly.
/// Returns the scalar results (the same on every pass) per precision.
fn check_config_with(
    h: &SparseBitMatrix,
    priors: &[f64],
    syndromes: &[BitVec],
    config: BpConfig,
) -> (Vec<BpResult<f64>>, Vec<BpResult<f32>>) {
    let mut scalar = (Vec::new(), Vec::new());
    for &target in qldpc_bp::supported_simd_targets() {
        let forced = BpConfig {
            simd_target: Some(target),
            ..config
        };
        scalar = (
            check_config_at::<f64>(h, priors, syndromes, forced),
            check_config_at::<f32>(h, priors, syndromes, forced),
        );
    }
    scalar
}

/// [`check_config_with`] at the suite's default priors.
fn check_config(h: &SparseBitMatrix, syndromes: &[BitVec], config: BpConfig) {
    check_config_with(h, &vec![0.2; h.cols()], syndromes, config);
}

/// Every combination of schedule, check rule, posterior memory, damping
/// mode and oscillation tracking.
fn all_configs(max_iters: usize) -> Vec<BpConfig> {
    let mut configs = Vec::new();
    for schedule in [Schedule::Flooding, Schedule::Layered] {
        for algorithm in [BpAlgorithm::MinSum, BpAlgorithm::SumProduct] {
            for memory_strength in [0.0, 0.4] {
                for damping in [DampingSchedule::Adaptive, DampingSchedule::Fixed(0.75)] {
                    for track_oscillations in [false, true] {
                        configs.push(BpConfig {
                            max_iters,
                            schedule,
                            algorithm,
                            damping,
                            memory_strength,
                            track_oscillations,
                            ..BpConfig::default()
                        });
                    }
                }
            }
        }
    }
    configs
}

/// Tiling invisibility at one precision: a narrow lane cap (forcing
/// interior tiles and a ragged tail) yields the same bits as one wide
/// tile — on every dispatch target, since a cap below the vector width
/// exercises the wide kernels' ragged-tail rounding.
fn check_lane_cap_at<T: Llr>(h: &SparseBitMatrix, syndromes: &[BitVec], cap: usize) {
    let priors = vec![0.2; h.cols()];
    for &target in qldpc_bp::supported_simd_targets() {
        let config = BpConfig {
            max_iters: 20,
            track_oscillations: true,
            simd_target: Some(target),
            ..BpConfig::default()
        };
        let mut wide = MinSumDecoderOf::<T>::new(h, &priors, config);
        let mut narrow = MinSumDecoderOf::<T>::new(h, &priors, config);
        narrow.set_max_lanes(cap);
        let rw = wide.decode_batch_results(syndromes);
        let rn = narrow.decode_batch_results(syndromes);
        for (i, (a, b)) in rw.iter().zip(&rn).enumerate() {
            assert_bit_identical(
                b,
                a,
                &format!("shot {i} at lane cap {cap} on {target} ({})", T::PRECISION),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both schedules × both damping modes × both precisions,
    /// oscillation tracking on.
    #[test]
    fn batch_is_bit_identical_to_scalar(
        h in sparse_matrix(),
        shots in 1usize..12,
        seed in 0u64..1000,
    ) {
        let syndromes = random_batch(&h, shots, seed);
        for schedule in [Schedule::Flooding, Schedule::Layered] {
            for damping in [DampingSchedule::Adaptive, DampingSchedule::Fixed(0.75)] {
                check_config(&h, &syndromes, BpConfig {
                    max_iters: 25,
                    schedule,
                    damping,
                    track_oscillations: true,
                    ..BpConfig::default()
                });
            }
        }
    }

    /// The exact sum-product rule (which has no lane body, so a batch
    /// decodes every lane alone, on any pinned target) and the
    /// posterior-memory term (the one-lane sweep's one variable-major
    /// pass) must stay bit-identical too — in both precisions
    /// (sum-product exercises the per-precision tanh/atanh guard
    /// constants).
    #[test]
    fn sum_product_and_memory_stay_bit_identical(
        h in sparse_matrix(),
        shots in 1usize..8,
        seed in 0u64..1000,
    ) {
        let syndromes = random_batch(&h, shots, seed);
        for schedule in [Schedule::Flooding, Schedule::Layered] {
            check_config(&h, &syndromes, BpConfig {
                max_iters: 15,
                schedule,
                algorithm: BpAlgorithm::SumProduct,
                track_oscillations: true,
                ..BpConfig::default()
            });
        }
        check_config(&h, &syndromes, BpConfig {
            max_iters: 15,
            memory_strength: 0.4,
            track_oscillations: true,
            ..BpConfig::default()
        });
    }

    /// Tiling must be invisible at either precision.
    #[test]
    fn lane_cap_does_not_change_results(
        h in sparse_matrix(),
        shots in 1usize..12,
        seed in 0u64..1000,
        cap in 1usize..5,
    ) {
        let syndromes = random_batch(&h, shots, seed);
        check_lane_cap_at::<f64>(&h, &syndromes, cap);
        check_lane_cap_at::<f32>(&h, &syndromes, cap);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full configuration cross product on circuit-level shapes,
    /// with the empty check's syndrome bit both clear and set (set, the
    /// syndrome is unsatisfiable and the decode runs out its budget).
    #[test]
    fn dem_like_shapes_stay_bit_identical(
        h in dem_like_matrix(),
        shots in 2usize..6,
        seed in 0u64..1000,
    ) {
        let mut syndromes = random_batch(&h, shots, seed);
        let mut unsatisfiable = syndromes[0].clone();
        assert!(!unsatisfiable.get(EMPTY_ROW));
        unsatisfiable.set(EMPTY_ROW, true);
        syndromes.push(unsatisfiable);
        for config in all_configs(12) {
            check_config(&h, &syndromes, config);
        }
    }
}

/// Priors of exactly 0, 0.5 and 1 mixed in one graph. `prior_llr`
/// clamps probabilities to `[1e-12, 1 − 1e-12]`, so the channel LLRs
/// are ±27.6 and 0 rather than ±∞: this pins that behaviour — batch ≡
/// scalar bit for bit, no panic, and an unsatisfiable syndrome (two
/// identical checks, one bit set) stops at the iteration budget.
#[test]
fn degenerate_priors_stay_bit_identical_and_terminate() {
    let h = SparseBitMatrix::from_row_indices(
        4,
        7,
        &[vec![0, 1], vec![0, 1], vec![1, 2, 3, 4], vec![3, 4, 5]],
    );
    let priors = [0.0, 1.0, 0.5, 0.0, 0.5, 1.0, 0.5];
    let syndromes = [
        BitVec::from_indices(4, &[0]),
        BitVec::zeros(4),
        h.mul_vec(&BitVec::from_indices(7, &[1, 5])),
        BitVec::from_indices(4, &[2, 3]),
    ];
    for config in all_configs(9) {
        let (r64, r32) = check_config_with(&h, &priors, &syndromes, config);
        for (converged, iterations) in [
            (r64[0].converged, r64[0].iterations),
            (r32[0].converged, r32[0].iterations),
        ] {
            assert!(!converged, "{config:?}");
            assert_eq!(iterations, 9, "{config:?}");
        }
    }
}

/// The one reachable NaN: zero damping on a degree-1 check multiplies
/// `0 · INF` (the lone edge's "minimum over the others"). The NaN then
/// spreads through the posteriors; its bits — sign included — must be the
/// batch engine's on every target, the decode must neither panic nor
/// converge, and it must stop at the budget.
#[test]
fn zero_damping_nan_is_bit_identical() {
    let h = SparseBitMatrix::from_row_indices(3, 4, &[vec![0, 1], vec![1, 2, 3], vec![3]]);
    let syndromes = [BitVec::from_indices(3, &[1, 2]), BitVec::zeros(3)];
    for schedule in [Schedule::Flooding, Schedule::Layered] {
        for memory_strength in [0.0, 0.4] {
            let config = BpConfig {
                max_iters: 6,
                schedule,
                damping: DampingSchedule::Fixed(0.0),
                memory_strength,
                track_oscillations: true,
                ..BpConfig::default()
            };
            let (r64, _) = check_config_with(&h, &[0.2; 4], &syndromes, config);
            assert!(r64[0].posteriors[3].is_nan(), "{config:?}");
            assert!(!r64[0].converged && r64[0].iterations == 6, "{config:?}");
        }
    }
}

/// The float corners the lane-block sweep must reproduce bit for bit, on
/// every target at both precisions under both schedules:
/// * exact min ties — equal priors make `min1 == min2` at every check
///   of degree ≥ 3 in the first iteration;
/// * `±0.0` messages — prior 0.5 gives channel LLR 0, so V2C is `0.0`,
///   and a set syndrome bit makes the C2V built from it `-0.0`;
/// * saturation at `CLAMP` — a dense, satisfied region grows its
///   messages every iteration while an unsatisfiable pair of identical
///   checks keeps the lane running to the budget;
/// * check degrees 3, 5, 7 and 17, multiples of no vector width, over a
///   batch of 37 lanes, a multiple of none either.
#[test]
fn awkward_messages_are_bit_identical_on_every_target() {
    const DENSE: usize = 18;
    let (zero_a, zero_b, pair) = (DENSE, DENSE + 1, DENSE + 2);
    let mut rows = vec![vec![zero_b, pair], vec![zero_b, pair], (0..17).collect()];
    for i in 0..30 {
        let degree = [3, 5, 7][i % 3];
        rows.push((0..degree).map(|k| (i * 7 + k * 5) % DENSE).collect());
    }
    rows.push(vec![0, zero_a]);
    let h = SparseBitMatrix::from_row_indices(rows.len(), pair + 1, &rows);
    let mut priors = vec![0.05; pair + 1];
    priors[zero_a] = 0.5;
    priors[zero_b] = 0.5;
    let syndromes: Vec<BitVec> = (0..37)
        .map(|i| {
            let error = if i % 4 == 0 { vec![] } else { vec![i % DENSE] };
            let mut s = h.mul_vec(&BitVec::from_indices(pair + 1, &error));
            s.set(0, i % 2 == 0);
            s.set(1, i % 3 == 0);
            s
        })
        .collect();
    fn saturated<T: Llr>(results: &[BpResult<T>]) -> bool {
        let clamp = T::CLAMP.to_bits_u64();
        let at_clamp = |p: &T| p.abs().to_bits_u64() == clamp;
        results.iter().any(|r| r.posteriors.iter().any(at_clamp))
    }
    for schedule in [Schedule::Flooding, Schedule::Layered] {
        let config = BpConfig {
            max_iters: 60,
            schedule,
            track_oscillations: true,
            ..BpConfig::default()
        };
        let (r64, r32) = check_config_with(&h, &priors, &syndromes, config);
        assert!(
            saturated(&r64),
            "{schedule:?}: no f64 posterior reached CLAMP"
        );
        assert!(
            saturated(&r32),
            "{schedule:?}: no f32 posterior reached CLAMP"
        );
    }
}

// ---------------------------------------------------------------------
// Batch-contract edge cases (deterministic unit tests, both precisions).
// ---------------------------------------------------------------------

fn repetition_h(n: usize) -> SparseBitMatrix {
    let rows: Vec<Vec<usize>> = (0..n - 1).map(|i| vec![i, i + 1]).collect();
    SparseBitMatrix::from_row_indices(n - 1, n, &rows)
}

fn empty_batch_returns_empty_at<T: Llr>() {
    let h = repetition_h(7);
    let mut dec = MinSumDecoderOf::<T>::new(&h, &[0.05; 7], BpConfig::default());
    assert!(dec.decode_batch_results(&[]).is_empty());
}

#[test]
fn empty_batch_returns_empty() {
    empty_batch_returns_empty_at::<f64>();
    empty_batch_returns_empty_at::<f32>();
}

/// All-zero syndromes converge on the kernel's first pass (iteration 1 —
/// the decoder's iteration counter is 1-based and the convergence check
/// runs after the first message-passing sweep, matching the scalar
/// decoder exactly) with the zero correction.
fn all_zero_syndromes_converge_immediately_at<T: Llr>() {
    let h = repetition_h(9);
    let mut dec = MinSumDecoderOf::<T>::new(&h, &[0.05; 9], BpConfig::default());
    let syndromes = vec![BitVec::zeros(8); 6];
    for r in dec.decode_batch_results(&syndromes) {
        assert!(r.converged);
        assert_eq!(r.iterations, 1);
        assert!(r.error_hat.is_zero());
    }
}

#[test]
fn all_zero_syndromes_converge_immediately() {
    all_zero_syndromes_converge_immediately_at::<f64>();
    all_zero_syndromes_converge_immediately_at::<f32>();
}

/// A batch where every lane fails still reports per-lane iteration
/// counts (each lane exhausts its own budget), and a convergent lane in
/// the middle keeps its early-exit count.
fn failing_lanes_report_per_lane_iterations_at<T: Llr>() {
    // Two identical checks over {0, 1}: the syndrome (1, 0) is
    // inconsistent, so no hard decision can ever satisfy it.
    let h = SparseBitMatrix::from_row_indices(2, 4, &[vec![0, 1], vec![0, 1]]);
    let bad = BitVec::from_indices(2, &[0]);
    let config = BpConfig {
        max_iters: 13,
        ..BpConfig::default()
    };

    let mut dec = MinSumDecoderOf::<T>::new(&h, &[0.1; 4], config);
    let all_bad = vec![bad.clone(); 5];
    for r in dec.decode_batch_results(&all_bad) {
        assert!(!r.converged);
        assert_eq!(r.iterations, 13);
    }

    // Mixed batch: the zero-syndrome lane converges at iteration 1 while
    // its neighbors run to exhaustion.
    let mixed = vec![bad.clone(), BitVec::zeros(2), bad];
    let rs = dec.decode_batch_results(&mixed);
    assert_eq!(
        rs.iter().map(|r| r.iterations).collect::<Vec<_>>(),
        vec![13, 1, 13]
    );
    assert_eq!(
        rs.iter().map(|r| r.converged).collect::<Vec<_>>(),
        vec![false, true, false]
    );
}

#[test]
fn failing_lanes_report_per_lane_iterations() {
    failing_lanes_report_per_lane_iterations_at::<f64>();
    failing_lanes_report_per_lane_iterations_at::<f32>();
}

/// Retirement in the final iteration, where lane compaction moves lanes
/// that are still live. The budget is the iteration at which the
/// slowest-converging error of weight ≤ 2 converges, so those shots
/// retire in the last iteration. Shots that can never converge sit at
/// lane 0 and at three lanes above the final live width of 4. Two zero
/// syndromes retire in iteration 1 and pull survivors down first. In the
/// last iteration several lanes retire together and the never-converging
/// shots above width 4 fill the holes; their snapshots are taken after
/// the loop from the moved state.
fn final_iteration_retirement_at<T: Llr>() {
    // A chain under a doubled first check: (1, 0) on the doubled pair is
    // inconsistent, so no hard decision can ever satisfy it.
    let n = 12;
    let mut rows = vec![vec![0, 1]];
    rows.extend((0..n - 1).map(|i| vec![i, i + 1]));
    let h = SparseBitMatrix::from_row_indices(rows.len(), n, &rows);
    let priors = vec![0.05; n];
    let never = BitVec::from_indices(h.rows(), &[0]);
    for &target in qldpc_bp::supported_simd_targets() {
        for schedule in [Schedule::Flooding, Schedule::Layered] {
            for track_oscillations in [false, true] {
                let mut config = BpConfig {
                    max_iters: 40,
                    schedule,
                    track_oscillations,
                    simd_target: Some(target),
                    ..BpConfig::default()
                };
                let mut scalar = MinSumDecoderOf::<T>::new(&h, &priors, config);
                let (budget, late) = (0..n)
                    .flat_map(|a| (a..n).map(move |b| BitVec::from_indices(n, &[a, b])))
                    .filter_map(|e| {
                        let s = h.mul_vec(&e);
                        let r = scalar.decode(&s);
                        r.converged.then_some((r.iterations, s))
                    })
                    .max_by_key(|(iterations, _)| *iterations)
                    .expect("some error converges");
                let ctx = format!("{target} {schedule:?} tracking={track_oscillations}");
                assert!(budget >= 2, "{ctx}: no late-converging shot");
                config.max_iters = budget;
                let syndromes: Vec<BitVec> = (0..35)
                    .map(|b| match b {
                        0 | 20 | 27 | 34 => never.clone(),
                        1 | 2 => BitVec::zeros(h.rows()),
                        _ => late.clone(),
                    })
                    .collect();
                let mut batch = MinSumDecoderOf::<T>::new(&h, &priors, config);
                let mut scalar = MinSumDecoderOf::<T>::new(&h, &priors, config);
                let rs = batch.decode_batch_results(&syndromes);
                for (i, (rb, s)) in rs.iter().zip(&syndromes).enumerate() {
                    let ctx = format!("{ctx}: shot {i} ({})", T::PRECISION);
                    assert_bit_identical(rb, &scalar.decode(s), &ctx);
                }
                assert!(!rs[34].converged && rs[34].iterations == budget, "{ctx}");
                assert!(rs[33].converged && rs[33].iterations == budget, "{ctx}");
            }
        }
    }
}

#[test]
fn final_iteration_retirement_moves_live_lanes() {
    final_iteration_retirement_at::<f64>();
    final_iteration_retirement_at::<f32>();
}

/// The lane-isolation contract: the same syndrome decoded at lane 0 and
/// at lane B−1 of one batch call must produce identical outcomes, no
/// matter what the other lanes carry or when they converge.
fn no_state_leaks_across_lanes_at<T: Llr>() {
    let h = repetition_h(9);
    // Forced per target: a retiring lane's column keeps being touched by
    // the wide kernels' padded tail, which must never bleed into a
    // survivor.
    for &target in qldpc_bp::supported_simd_targets() {
        let config = BpConfig {
            max_iters: 30,
            track_oscillations: true,
            simd_target: Some(target),
            ..BpConfig::default()
        };
        let mut dec = MinSumDecoderOf::<T>::new(&h, &[0.05; 9], config);
        let probe = h.mul_vec(&BitVec::from_indices(9, &[2, 6]));
        let mut syndromes = vec![probe.clone()];
        // Interior lanes: a zero syndrome (converges instantly), a hard
        // two-bit error, and an inconsistent-looking random syndrome.
        syndromes.push(BitVec::zeros(8));
        syndromes.push(h.mul_vec(&BitVec::from_indices(9, &[3, 4])));
        syndromes.push(BitVec::from_indices(8, &[0, 3, 5]));
        syndromes.push(probe.clone());
        let rs = dec.decode_batch_results(&syndromes);
        let (first, last) = (&rs[0], &rs[rs.len() - 1]);
        assert_eq!(first.converged, last.converged, "{target}");
        assert_eq!(first.iterations, last.iterations, "{target}");
        assert_eq!(first.error_hat, last.error_hat, "{target}");
        assert_eq!(first.flip_counts, last.flip_counts, "{target}");
        for (a, b) in first.posteriors.iter().zip(&last.posteriors) {
            assert_eq!(a.to_bits_u64(), b.to_bits_u64(), "{target}");
        }
    }
}

#[test]
fn no_state_leaks_across_lanes() {
    no_state_leaks_across_lanes_at::<f64>();
    no_state_leaks_across_lanes_at::<f32>();
}

/// The `SyndromeDecoder::decode_batch` override on the scalar decoder
/// routes through the interleaved kernel and must equal the default
/// sequential loop it replaces.
#[test]
fn trait_decode_batch_matches_sequential_loop() {
    use qldpc_bp::SyndromeDecoder;
    let h = repetition_h(9);
    let config = BpConfig {
        max_iters: 30,
        ..BpConfig::default()
    };
    let mut batched = MinSumDecoder::new(&h, &[0.05; 9], config);
    let mut looped = MinSumDecoder::new(&h, &[0.05; 9], config);
    let syndromes = random_batch(&h, 9, 41);
    let b = batched.decode_batch(&syndromes);
    for (i, (out, s)) in b.iter().zip(&syndromes).enumerate() {
        let l = looped.decode_syndrome(s);
        assert_eq!(out.solved, l.solved, "shot {i}");
        assert_eq!(out.error_hat, l.error_hat, "shot {i}");
        assert_eq!(out.serial_iterations, l.serial_iterations, "shot {i}");
        assert_eq!(out.critical_iterations, l.critical_iterations, "shot {i}");
    }
}
