//! Property tests: `decode_batch` must be observationally identical to a
//! sequential `decode_syndrome` loop (the contract documented on
//! `qldpc_decoder_api::SyndromeDecoder::decode_batch`), exercised here
//! through the paper's decoders on a BB code.

use proptest::prelude::*;
use qldpc_gf2::BitVec;
use qldpc_sim::decoders::{self, DecodeOutcome, DecoderFactory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random error syndromes on bb72's Z-check matrix from a seeded stream.
fn syndromes_for_seed(seed: u64, count: usize, p: f64) -> Vec<BitVec> {
    let code = qldpc_codes::bb::bb72();
    let hz = code.hz();
    let n = hz.cols();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut e = BitVec::zeros(n);
            for i in 0..n {
                if rng.random_bool(p) {
                    e.set(i, true);
                }
            }
            hz.mul_vec(&e)
        })
        .collect()
}

fn assert_batch_equals_loop(factory: &DecoderFactory, syndromes: &[BitVec]) {
    let code = qldpc_codes::bb::bb72();
    let hz = code.hz();
    let priors = vec![0.02; hz.cols()];
    // Two independent instances: decoders are stateful, so batching must
    // thread state through in exactly the same order as the loop.
    let mut batched = factory(hz, &priors);
    let mut looped = factory(hz, &priors);
    let b = batched.decode_batch(syndromes);
    let l: Vec<DecodeOutcome> = syndromes
        .iter()
        .map(|s| looped.decode_syndrome(s))
        .collect();
    assert_eq!(b.len(), l.len());
    for (i, (x, y)) in b.iter().zip(&l).enumerate() {
        assert_eq!(x.solved, y.solved, "solved diverged at shot {i}");
        assert_eq!(x.error_hat, y.error_hat, "error_hat diverged at shot {i}");
        assert_eq!(x.serial_iterations, y.serial_iterations, "shot {i}");
        assert_eq!(x.critical_iterations, y.critical_iterations, "shot {i}");
        assert_eq!(x.postprocessed, y.postprocessed, "shot {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Plain BP: batch ≡ loop on random syndrome streams.
    #[test]
    fn plain_bp_batch_equals_loop(seed in 0u64..10_000, count in 1usize..12) {
        let syndromes = syndromes_for_seed(seed, count, 0.03);
        assert_batch_equals_loop(&decoders::plain_bp(30), &syndromes);
    }

    /// BP-OSD: batch ≡ loop, including post-processed shots.
    #[test]
    fn bp_osd_batch_equals_loop(seed in 0u64..10_000, count in 1usize..10) {
        let syndromes = syndromes_for_seed(seed, count, 0.05);
        assert_batch_equals_loop(&decoders::bp_osd(25, 10), &syndromes);
    }

    /// BP-SF (exhaustive trials): batch ≡ loop, covering the interleaved
    /// initial stage + serial post-processing path.
    #[test]
    fn bp_sf_batch_equals_loop(seed in 0u64..10_000, count in 1usize..8) {
        let syndromes = syndromes_for_seed(seed, count, 0.06);
        let config = bpsf_core::BpSfConfig::code_capacity(20, 6, 2);
        assert_batch_equals_loop(&decoders::bp_sf(config), &syndromes);
    }
}

/// The lane-isolation half of the `decode_batch` contract (documented on
/// `SyndromeDecoder::decode_batch`): per-call decoders must not leak
/// state across batch lanes. The same syndrome decoded at lane 0 and at
/// lane B−1 of one batch call must produce identical outcomes, for every
/// deterministic in-tree decoder.
#[test]
fn no_state_leaks_across_batch_lanes() {
    let code = qldpc_codes::bb::bb72();
    let hz = code.hz();
    let n = hz.cols();
    let priors = vec![0.02; n];
    let probe = hz.mul_vec(&BitVec::from_indices(n, &[5, 31, 60]));
    // Interior lanes mix instantly-convergent, hard, and heavy shots so
    // lanes converge at different iterations.
    let mut syndromes = vec![probe.clone(), BitVec::zeros(hz.rows())];
    syndromes.extend(syndromes_for_seed(77, 5, 0.08));
    syndromes.push(probe.clone());

    let factories: Vec<(&str, DecoderFactory)> = vec![
        ("plain_bp", decoders::plain_bp(30)),
        (
            "layered_bp",
            decoders::bp_with(
                qldpc_bp::BpConfig {
                    max_iters: 30,
                    schedule: qldpc_bp::Schedule::Layered,
                    ..Default::default()
                },
                decoders::Precision::F64,
            ),
        ),
        ("bp_osd", decoders::bp_osd(25, 10)),
        (
            "bp_sf",
            decoders::bp_sf(bpsf_core::BpSfConfig::code_capacity(20, 6, 2)),
        ),
    ];
    for (name, factory) in factories {
        let mut dec = factory(hz, &priors);
        let outs = dec.decode_batch(&syndromes);
        let (first, last) = (&outs[0], &outs[outs.len() - 1]);
        assert_eq!(first.solved, last.solved, "{name}: solved leaked");
        assert_eq!(first.error_hat, last.error_hat, "{name}: error_hat leaked");
        assert_eq!(
            first.serial_iterations, last.serial_iterations,
            "{name}: serial iterations leaked"
        );
        assert_eq!(
            first.critical_iterations, last.critical_iterations,
            "{name}: critical iterations leaked"
        );
        assert_eq!(
            first.postprocessed, last.postprocessed,
            "{name}: postprocessed flag leaked"
        );
    }
}
