//! The [`SyndromeDecoder`] implementation of the BP-SF decoder — BP-SF
//! plugs into the unified stack API directly.

use crate::decoder::{BpSfDecoder, BpSfResult, TrialSampling};
use qldpc_bp::Schedule;
use qldpc_decoder_api::{DecodeOutcome, DecodeTelemetry, DecoderFamily, SyndromeDecoder};
use qldpc_gf2::BitVec;

fn outcome_from(r: BpSfResult) -> DecodeOutcome {
    let mut telemetry = DecodeTelemetry::bp(r.initial_iterations, r.initial_converged);
    telemetry.oscillating_bits = r.candidates.len() as u64;
    telemetry.sf_trials = r.trials_executed as u64;
    DecodeOutcome {
        error_hat: r.error_hat,
        solved: r.success,
        serial_iterations: r.serial_iterations,
        critical_iterations: r.critical_path_iterations,
        postprocessed: !r.initial_converged,
        telemetry,
    }
}

impl SyndromeDecoder for BpSfDecoder {
    fn decode_syndrome(&mut self, syndrome: &BitVec) -> DecodeOutcome {
        outcome_from(self.decode(syndrome))
    }

    /// Overrides the default loop with
    /// [`BpSfDecoder::decode_batch_results`] (batched initial BP stage).
    fn decode_batch(&mut self, syndromes: &[BitVec]) -> Vec<DecodeOutcome> {
        self.decode_batch_results(syndromes)
            .into_iter()
            .map(outcome_from)
            .collect()
    }

    /// `"BP-SF(BP{iters},w={w_max},|Φ|={candidates}[,ns={per_weight}][,{option}…])"`,
    /// with a `Layered-` prefix under the layered schedule (paper Fig. 8
    /// naming) and every option not at its default in its canonical
    /// spelling ([`BpSfConfig::options`](crate::BpSfConfig::options)), so
    /// `workers=N` marks the paper's "BP-SF (CPU, P=N)" series.
    fn label(&self) -> String {
        let c = self.config();
        let mut label = format!(
            "BP-SF(BP{},w={},|Φ|={}",
            c.initial_bp.max_iters, c.max_flip_weight, c.candidates
        );
        if c.initial_bp.schedule == Schedule::Layered {
            label.insert_str(0, "Layered-");
        }
        if let TrialSampling::Sampled { per_weight } = c.sampling {
            label += &format!(",ns={per_weight}");
        }
        for option in c.options(self.workers()) {
            label += &format!(",{option}");
        }
        label + ")"
    }

    fn family(&self) -> DecoderFamily {
        DecoderFamily::BpSf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::BpSfConfig;
    use qldpc_codes::bb;

    #[test]
    fn labels_cover_sampling_and_schedule() {
        let code = bb::bb72();
        let hz = code.hz();
        let priors = vec![0.01; hz.cols()];
        let serial = BpSfDecoder::new(hz, &priors, BpSfConfig::code_capacity(50, 8, 2));
        assert_eq!(serial.label(), "BP-SF(BP50,w=2,|Φ|=8)");
        let sampled = BpSfDecoder::new(hz, &priors, BpSfConfig::circuit_level(60, 50, 3, 4));
        assert_eq!(sampled.label(), "BP-SF(BP60,w=3,|Φ|=50,ns=4)");
        let mut layered_cfg = BpSfConfig::code_capacity(40, 8, 2);
        layered_cfg.initial_bp.schedule = Schedule::Layered;
        let layered = BpSfDecoder::new(hz, &priors, layered_cfg);
        assert_eq!(layered.label(), "Layered-BP-SF(BP40,w=2,|Φ|=8)");
        layered_cfg.sampling = TrialSampling::Sampled { per_weight: 5 };
        let layered = BpSfDecoder::new(hz, &priors, layered_cfg);
        assert_eq!(layered.label(), "Layered-BP-SF(BP40,w=2,|Φ|=8,ns=5)");
        let two =
            BpSfDecoder::with_workers(hz, &priors, BpSfConfig::circuit_level(60, 50, 3, 4), 2);
        assert_eq!(two.label(), "BP-SF(BP60,w=3,|Φ|=50,ns=4,workers=2)");
    }

    /// The batched path (interleaved initial BP, then post-processing)
    /// must match the sequential decode loop shot for shot, under
    /// exhaustive and under sampled trials.
    #[test]
    fn batch_matches_loop_including_postprocessing() {
        use qldpc_gf2::SparseBitMatrix;
        use rand::{Rng, SeedableRng};
        let code = qldpc_codes::coprime_bb::coprime154();
        let hz: &SparseBitMatrix = code.hz();
        let n = hz.cols();
        let priors = vec![0.05; n];
        for config in [
            BpSfConfig::code_capacity(20, 8, 2),
            BpSfConfig::circuit_level(20, 8, 2, 3),
        ] {
            let mut batched = BpSfDecoder::new(hz, &priors, config);
            let mut looped = BpSfDecoder::new(hz, &priors, config);
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let syndromes: Vec<BitVec> = (0..24)
                .map(|_| {
                    let mut e = BitVec::zeros(n);
                    for i in 0..n {
                        if rng.random_bool(0.05) {
                            e.set(i, true);
                        }
                    }
                    hz.mul_vec(&e)
                })
                .collect();
            let b = batched.decode_batch(&syndromes);
            let l: Vec<DecodeOutcome> = syndromes
                .iter()
                .map(|s| looped.decode_syndrome(s))
                .collect();
            assert_eq!(b.len(), l.len());
            let mut postprocessed = 0;
            for (i, (x, y)) in b.iter().zip(&l).enumerate() {
                assert_eq!(x.solved, y.solved, "shot {i}");
                assert_eq!(x.error_hat, y.error_hat, "shot {i}");
                assert_eq!(x.serial_iterations, y.serial_iterations, "shot {i}");
                assert_eq!(x.critical_iterations, y.critical_iterations, "shot {i}");
                assert_eq!(x.postprocessed, y.postprocessed, "shot {i}");
                postprocessed += usize::from(x.postprocessed);
            }
            // The workload must actually exercise the trial path, or this
            // test only covers the initial stage.
            assert!(postprocessed > 0, "expected some initial-BP failures");
        }
    }
}
