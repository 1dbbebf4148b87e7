//! Factory functions building the paper's decoder configurations.
//!
//! The decoder *interface* ([`SyndromeDecoder`], [`DecodeOutcome`],
//! [`DecoderFactory`]) lives in `qldpc-decoder-api` and is implemented
//! natively by each decoder crate — `MinSumDecoder`, `BpOsdDecoder` and
//! `BpSfDecoder` (at any worker count) are the trait objects themselves,
//! no sim-local adapters. This module only packages the paper's named
//! configurations (`BP1000`, `BP1000-OSD10`, `BP-SF(…)`) as
//! [`DecoderFactory`] closures for the Monte Carlo runners, which build
//! one instance per basis (X/Z) and per worker thread.

use bpsf_core::{BpSfConfig, BpSfDecoder};
use qldpc_bp::{BpConfig, MinSumDecoder, MinSumDecoderF32};
use qldpc_osd::{BpOsdDecoder, OsdConfig};

pub use qldpc_decoder_api::{DecodeOutcome, DecoderFactory, Precision, SyndromeDecoder};

/// Builds a BP factory for an explicit config (schedule, rule, damping,
/// …) at the requested message precision — the one place the
/// `Precision` runtime value is turned into a decoder *type*, shared by
/// every BP factory below.
pub fn bp_with(config: BpConfig, precision: Precision) -> DecoderFactory {
    match precision {
        Precision::F64 => {
            Box::new(move |h, priors| Box::new(MinSumDecoder::new(h, priors, config)))
        }
        Precision::F32 => {
            Box::new(move |h, priors| Box::new(MinSumDecoderF32::new(h, priors, config)))
        }
    }
}

/// Factory for plain flooding min-sum BP with `max_iters` iterations
/// (the paper's `BP{max_iters}` baseline).
pub fn plain_bp(max_iters: usize) -> DecoderFactory {
    plain_bp_at(max_iters, Precision::F64)
}

/// [`plain_bp`] at an explicit message precision; `Precision::F32` runs
/// the half-width fast path (labels gain an `@f32` suffix).
pub fn plain_bp_at(max_iters: usize, precision: Precision) -> DecoderFactory {
    bp_with(
        BpConfig {
            max_iters,
            ..BpConfig::default()
        },
        precision,
    )
}

/// Factory for the `BP{bp_iters}-OSD{order}` baseline (flooding BP).
pub fn bp_osd(bp_iters: usize, order: usize) -> DecoderFactory {
    bp_osd_with(
        BpConfig {
            max_iters: bp_iters,
            ..BpConfig::default()
        },
        order,
    )
}

/// Factory for BP-OSD of combination-sweep order `order` after a BP
/// stage of an explicit config (`schedule: Layered` is Fig. 8's layered
/// BP-OSD).
pub fn bp_osd_with(bp: BpConfig, order: usize) -> DecoderFactory {
    let osd = OsdConfig {
        order,
        ..OsdConfig::default()
    };
    Box::new(move |h, priors| Box::new(BpOsdDecoder::new(h, priors, bp, osd)))
}

/// Factory for the BP-SF decoder with an explicit configuration, trials
/// run one after another.
pub fn bp_sf(config: BpSfConfig) -> DecoderFactory {
    parallel_bp_sf(config, 1)
}

/// Factory for the BP-SF decoder with its trials spread over `workers`
/// threads (the paper's "BP-SF (CPU, P={workers})"); the schedule, like
/// every other knob, is the config's (`initial_bp.schedule = Layered` is
/// Fig. 8's layered BP-SF).
pub fn parallel_bp_sf(config: BpSfConfig, workers: usize) -> DecoderFactory {
    Box::new(move |h, priors| Box::new(BpSfDecoder::with_workers(h, priors, config, workers)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qldpc_bp::Schedule;
    use qldpc_codes::bb;
    use qldpc_gf2::BitVec;

    fn layered(max_iters: usize) -> BpConfig {
        BpConfig {
            max_iters,
            schedule: Schedule::Layered,
            ..BpConfig::default()
        }
    }

    #[test]
    fn factories_produce_labeled_decoders() {
        let code = bb::bb72();
        let hz = code.hz();
        let priors = vec![0.01; hz.cols()];
        let labels = [
            (plain_bp(100)(hz, &priors).label(), "BP100"),
            (bp_osd(1000, 10)(hz, &priors).label(), "BP1000-OSD10"),
            (
                bp_with(layered(50), Precision::F64)(hz, &priors).label(),
                "LayeredBP50",
            ),
            (
                bp_osd_with(layered(50), 10)(hz, &priors).label(),
                "LayeredBP50-OSD10",
            ),
        ];
        for (got, want) in labels {
            assert_eq!(got, want);
        }
        let sf = bp_sf(BpSfConfig::code_capacity(50, 8, 1))(hz, &priors);
        let f32_bp = plain_bp_at(100, Precision::F32)(hz, &priors);
        assert_eq!(f32_bp.label(), "BP100@f32");
        assert_eq!(f32_bp.precision(), Precision::F32);
        let f32_layered = bp_with(layered(50), Precision::F32)(hz, &priors);
        assert_eq!(f32_layered.label(), "LayeredBP50@f32");
        // The default-precision factories still build f64 decoders.
        assert_eq!(plain_bp(100)(hz, &priors).precision(), Precision::F64);
        assert!(sf.label().contains("BP-SF"));
        // Families flow through the factories for report grouping.
        use qldpc_decoder_api::DecoderFamily;
        assert_eq!(plain_bp(100)(hz, &priors).family(), DecoderFamily::Bp);
        assert_eq!(f32_bp.family(), DecoderFamily::Bp);
        assert_eq!(bp_osd(50, 10)(hz, &priors).family(), DecoderFamily::BpOsd);
        assert_eq!(sf.family(), DecoderFamily::BpSf);
        let sf_desc = sf.descriptor();
        assert_eq!(sf_desc.label, sf.label());
        assert_eq!(sf_desc.family, DecoderFamily::BpSf);
        let psf = parallel_bp_sf(BpSfConfig::code_capacity(50, 4, 1), 2)(hz, &priors);
        assert_eq!(psf.label(), "BP-SF(BP50,w=1,|Φ|=4,workers=2)");
    }

    #[test]
    fn all_decoders_solve_a_zero_syndrome() {
        let code = bb::bb72();
        let hz = code.hz();
        let priors = vec![0.01; hz.cols()];
        let zero = BitVec::zeros(hz.rows());
        let factories: Vec<DecoderFactory> = vec![
            plain_bp(50),
            bp_with(layered(50), Precision::F64),
            plain_bp_at(50, Precision::F32),
            bp_with(layered(50), Precision::F32),
            bp_osd(50, 10),
            bp_sf(BpSfConfig::code_capacity(50, 4, 1)),
            parallel_bp_sf(BpSfConfig::code_capacity(50, 4, 1), 2),
        ];
        for f in factories {
            let mut d = f(hz, &priors);
            let out = d.decode_syndrome(&zero);
            assert!(out.solved, "{} failed zero syndrome", d.label());
            assert!(out.error_hat.is_zero());
        }
    }

    #[test]
    fn batch_defaults_to_the_sequential_loop() {
        let code = bb::bb72();
        let hz = code.hz();
        let n = hz.cols();
        let priors = vec![0.02; n];
        let syndromes: Vec<BitVec> = (0..6)
            .map(|i| hz.mul_vec(&BitVec::from_indices(n, &[i, i + 9])))
            .collect();
        let mut batched = bp_osd(40, 10)(hz, &priors);
        let mut looped = bp_osd(40, 10)(hz, &priors);
        let b = batched.decode_batch(&syndromes);
        let l: Vec<DecodeOutcome> = syndromes
            .iter()
            .map(|s| looped.decode_syndrome(s))
            .collect();
        assert_eq!(b.len(), l.len());
        for (x, y) in b.iter().zip(&l) {
            assert_eq!(x.solved, y.solved);
            assert_eq!(x.error_hat, y.error_hat);
            assert_eq!(x.serial_iterations, y.serial_iterations);
        }
    }
}
