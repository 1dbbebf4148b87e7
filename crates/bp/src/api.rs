//! [`SyndromeDecoder`] implementation: plain BP *is* a decoder of the
//! unified stack API, with no adapter type in between.
//!
//! Both precision instantiations implement the trait through one generic
//! impl; `f64` decoders keep their historical labels (`"BP100"`), the
//! `f32` ones append the precision suffix (`"BP100@f32"`), and
//! [`SyndromeDecoder::precision`] reports the message width either way so
//! run reports and service metrics can record it.

use crate::llr::Llr;
use crate::{BpResult, MinSumDecoderOf, Schedule};
use qldpc_decoder_api::{
    DecodeOutcome, DecodeTelemetry, DecoderFamily, Precision, SyndromeDecoder,
};
use qldpc_gf2::BitVec;

fn outcome_from<T: Llr>(r: BpResult<T>) -> DecodeOutcome {
    let mut telemetry = DecodeTelemetry::bp(r.iterations, r.converged);
    // Populated only under `track_oscillations`; stays 0 otherwise.
    telemetry.oscillating_bits = r.flip_counts.iter().filter(|&&c| c >= 2).count() as u64;
    DecodeOutcome {
        error_hat: r.error_hat,
        solved: r.converged,
        serial_iterations: r.iterations,
        critical_iterations: r.iterations,
        postprocessed: false,
        telemetry,
    }
}

impl<T: Llr> SyndromeDecoder for MinSumDecoderOf<T> {
    fn decode_syndrome(&mut self, syndrome: &BitVec) -> DecodeOutcome {
        outcome_from(self.decode(syndrome))
    }

    /// `"BP{max_iters}"`, or `"LayeredBP{max_iters}"` under the layered
    /// schedule — the paper's baseline names — plus the precision suffix
    /// (`"@f32"`) when not running the reference `f64` arithmetic.
    fn label(&self) -> String {
        let c = self.config();
        let suffix = T::PRECISION.label_suffix();
        match c.schedule {
            Schedule::Flooding => format!("BP{}{suffix}", c.max_iters),
            Schedule::Layered => format!("LayeredBP{}{suffix}", c.max_iters),
        }
    }

    fn precision(&self) -> Precision {
        T::PRECISION
    }

    fn family(&self) -> DecoderFamily {
        DecoderFamily::Bp
    }

    /// Overrides the default per-shot loop with
    /// [`MinSumDecoderOf::decode_batch_results`] (interleaved tiles,
    /// bit-identical per lane to decoding each syndrome alone — the
    /// `batch_equivalence` property suite pins this).
    fn decode_batch(&mut self, syndromes: &[BitVec]) -> Vec<DecodeOutcome> {
        self.decode_batch_results(syndromes)
            .into_iter()
            .map(outcome_from)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BpConfig, MinSumDecoder, MinSumDecoderF32};
    use qldpc_gf2::SparseBitMatrix;

    fn tiny_h() -> SparseBitMatrix {
        SparseBitMatrix::from_row_indices(2, 3, &[vec![0, 1], vec![1, 2]])
    }

    #[test]
    fn labels_follow_schedule() {
        let h = tiny_h();
        let flooding = MinSumDecoder::new(
            &h,
            &[0.1; 3],
            BpConfig {
                max_iters: 42,
                ..BpConfig::default()
            },
        );
        assert_eq!(flooding.label(), "BP42");
        let layered = MinSumDecoder::new(
            &h,
            &[0.1; 3],
            BpConfig {
                max_iters: 7,
                schedule: Schedule::Layered,
                ..BpConfig::default()
            },
        );
        assert_eq!(layered.label(), "LayeredBP7");
    }

    #[test]
    fn f32_labels_carry_the_precision_suffix() {
        let h = tiny_h();
        let config = BpConfig {
            max_iters: 42,
            ..BpConfig::default()
        };
        let scalar = MinSumDecoderF32::new(&h, &[0.1; 3], config);
        assert_eq!(scalar.label(), "BP42@f32");
        assert_eq!(scalar.precision(), Precision::F32);
        // The reference decoder still reports (and labels as) f64.
        let reference = MinSumDecoder::new(&h, &[0.1; 3], config);
        assert_eq!(reference.precision(), Precision::F64);
        assert_eq!(reference.label(), "BP42");
    }

    #[test]
    fn trait_decode_matches_inherent_decode() {
        let h = tiny_h();
        let mut a = MinSumDecoder::new(&h, &[0.1; 3], BpConfig::default());
        let mut b = a.clone();
        let s = BitVec::from_indices(2, &[0]);
        let direct = a.decode(&s);
        let via_trait = b.decode_syndrome(&s);
        assert_eq!(direct.converged, via_trait.solved);
        assert_eq!(direct.error_hat, via_trait.error_hat);
        assert_eq!(direct.iterations, via_trait.serial_iterations);
        assert!(!via_trait.postprocessed);
    }

    #[test]
    fn f32_trait_objects_slot_into_the_stack_api() {
        let h = tiny_h();
        let mut dec: Box<dyn SyndromeDecoder> =
            Box::new(MinSumDecoderF32::new(&h, &[0.1; 3], BpConfig::default()));
        let out = dec.decode_syndrome(&BitVec::zeros(2));
        assert!(out.solved);
        assert!(out.error_hat.is_zero());
        assert_eq!(dec.precision(), Precision::F32);
        let batch = dec.decode_batch(&[BitVec::zeros(2), BitVec::from_indices(2, &[0])]);
        assert_eq!(batch.len(), 2);
    }
}
