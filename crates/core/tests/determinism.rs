//! The determinism contract of BP-SF: a decode is a pure function of
//! `(H, priors, config, syndrome)`, so every worker count, any thread
//! scheduling, any batch order and any decode history all agree field
//! for field.

use bpsf_core::{BpSfConfig, BpSfDecoder, TrialSelection};
use proptest::prelude::*;
use qldpc_codes::CssCode;
use qldpc_gf2::BitVec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const P: f64 = 0.07;

fn code(bb72: bool) -> CssCode {
    if bb72 {
        qldpc_codes::bb::bb72()
    } else {
        qldpc_codes::coprime_bb::coprime154()
    }
}

fn config(sampled: bool, min_weight: bool) -> BpSfConfig {
    let base = if sampled {
        BpSfConfig::circuit_level(12, 8, 2, 4)
    } else {
        BpSfConfig::code_capacity(12, 6, 2)
    };
    BpSfConfig {
        selection: if min_weight {
            TrialSelection::MinWeight
        } else {
            TrialSelection::FirstSuccess
        },
        ..base
    }
}

/// Random error syndromes at a rate where BP12 fails often enough for
/// most of a stream's shots to reach the trial stage.
fn syndromes(code: &CssCode, rng: &mut StdRng, count: usize) -> Vec<BitVec> {
    let hz = code.hz();
    (0..count)
        .map(|_| {
            let mut e = BitVec::zeros(hz.cols());
            for i in 0..hz.cols() {
                if rng.random_bool(P) {
                    e.set(i, true);
                }
            }
            hz.mul_vec(&e)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `BpSfDecoder` at `P` workers ≡ at one, for every worker count
    /// (`crowded`: eight workers on a list of at most two trials),
    /// sampling mode and selection mode, whichever worker finishes first —
    /// also when the decoder is a clone decoding on another thread.
    #[test]
    fn pool_equals_serial(
        seed in 0u64..10_000,
        workers in 1usize..=3,
        crowded in proptest::bool::ANY,
        moved in proptest::bool::ANY,
        bb72 in proptest::bool::ANY,
        sampled in proptest::bool::ANY,
        min_weight in proptest::bool::ANY,
    ) {
        let code = code(bb72);
        let hz = code.hz();
        let priors = vec![P; hz.cols()];
        let mut config = config(sampled, min_weight);
        let mut workers = workers;
        if crowded {
            (config.candidates, config.max_flip_weight, workers) = (2, 1, 8);
        }
        let mut serial = BpSfDecoder::new(hz, &priors, config);
        let mut parallel = BpSfDecoder::with_workers(hz, &priors, config, workers);
        let stream = syndromes(&code, &mut StdRng::seed_from_u64(seed), 16);
        let got: Vec<_> = if moved {
            let mut clone = parallel.clone();
            let stream = &stream;
            std::thread::scope(|scope| {
                scope
                    .spawn(move || stream.iter().map(|s| clone.decode(s)).collect())
                    .join()
                    .expect("decoding thread panicked")
            })
        } else {
            stream.iter().map(|s| parallel.decode(s)).collect()
        };
        let mut post_processed = 0;
        for (s, got) in stream.iter().zip(got) {
            let expected = serial.decode(s);
            prop_assert_eq!(&got, &expected);
            post_processed += usize::from(!got.initial_converged);
        }
        prop_assert!(post_processed > 0, "stream never reached the trial stage");
    }

    /// Sampled BP-SF is permutation-equivariant and history-independent:
    /// `decode_batch(π(S)) = π(decode_batch(S))`, on the decoder that just
    /// decoded `S` and on a fresh clone alike.
    #[test]
    fn sampled_batches_commute_with_permutations(
        seed in 0u64..10_000,
        bb72 in proptest::bool::ANY,
        min_weight in proptest::bool::ANY,
    ) {
        let code = code(bb72);
        let hz = code.hz();
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = syndromes(&code, &mut rng, 12);
        let fresh = BpSfDecoder::new(hz, &vec![P; hz.cols()], config(true, min_weight));
        let mut used = fresh.clone();
        let results = used.decode_batch_results(&batch);
        prop_assert!(results.iter().any(|r| r.trials_executed > 0));

        let mut order: Vec<usize> = (0..batch.len()).collect();
        order.shuffle(&mut rng);
        let permuted: Vec<BitVec> = order.iter().map(|&i| batch[i].clone()).collect();
        let expected: Vec<_> = order.iter().map(|&i| results[i].clone()).collect();
        prop_assert_eq!(&used.decode_batch_results(&permuted), &expected);
        prop_assert_eq!(&fresh.clone().decode_batch_results(&permuted), &expected);
    }
}
