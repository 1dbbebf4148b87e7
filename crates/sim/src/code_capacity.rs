//! Code-capacity Monte Carlo runs.

use crate::decoders::DecoderFactory;
use crate::engine::{self, BatchConfig};
use crate::report::RunReport;
use qldpc_codes::CssCode;
use qldpc_gf2::BitVec;
use rand::rngs::StdRng;
use rand::Rng;

/// Configuration of a code-capacity run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeCapacityConfig {
    /// Physical error rate: each data qubit suffers X, Y or Z with
    /// probability `p/3` each (paper §V-A).
    pub p: f64,
    /// Number of Monte Carlo shots.
    pub shots: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Samples one depolarizing error, returning its `(x_component,
/// z_component)` as bit vectors over the data qubits.
///
/// A `Y` error contributes to both components, which is exactly how CSS
/// decoding splits it.
pub fn sample_depolarizing(n: usize, p: f64, rng: &mut StdRng) -> (BitVec, BitVec) {
    let mut ex = BitVec::zeros(n);
    let mut ez = BitVec::zeros(n);
    for i in 0..n {
        let r: f64 = rng.random();
        if r < p / 3.0 {
            ex.set(i, true); // X
        } else if r < 2.0 * p / 3.0 {
            ez.set(i, true); // Z
        } else if r < p {
            ex.set(i, true); // Y
            ez.set(i, true);
        }
    }
    (ex, ez)
}

/// Runs a code-capacity experiment: X errors are decoded from Z-check
/// syndromes and judged against logical-Z operators; Z errors dually. A
/// shot fails if either basis fails (decoder unsolved or residual logical).
///
/// The decoder priors are set to `2p/3` per qubit — the marginal
/// probability of an X (or Z) component under X/Y/Z-each-`p/3` noise.
///
/// `batch` shapes the run (see [`BatchConfig`]): thread `t` decodes its
/// share of the shots from seed `config.seed + t`, `batch_size` syndromes
/// per `decode_batch` call. [`BatchConfig::SEQUENTIAL`] is the paper's
/// single-stream latency methodology; wider shapes are for throughput
/// and leave every record but `wall_ns` (amortised over the batch)
/// unchanged.
///
/// # Panics
///
/// Panics if `batch.threads == 0` or `batch.batch_size == 0`.
///
/// # Examples
///
/// ```
/// use qldpc_codes::bb;
/// use qldpc_sim::{decoders, run_code_capacity, BatchConfig, CodeCapacityConfig};
///
/// let report = run_code_capacity(
///     &bb::bb72(),
///     &CodeCapacityConfig { p: 0.01, shots: 20, seed: 1 },
///     &decoders::plain_bp(50),
///     &BatchConfig { threads: 2, batch_size: 8 },
/// );
/// assert_eq!(report.shots, 20);
/// ```
pub fn run_code_capacity(
    code: &CssCode,
    config: &CodeCapacityConfig,
    factory: &DecoderFactory,
    batch: &BatchConfig,
) -> RunReport {
    let n = code.n();
    let priors = vec![2.0 * config.p / 3.0; n];
    engine::run_shots(
        &format!("{} code-capacity p={}", code.name(), config.p),
        config.shots,
        config.seed,
        batch,
        // Z checks see X errors, X checks see Z errors.
        || vec![factory(code.hz(), &priors), factory(code.hx(), &priors)],
        |rng, k| {
            let (exs, ezs): (Vec<BitVec>, Vec<BitVec>) = (0..k)
                .map(|_| sample_depolarizing(n, config.p, rng))
                .unzip();
            let syndromes = vec![code.hz().mul_batch(&exs), code.hx().mul_batch(&ezs)];
            (syndromes, (exs, ezs))
        },
        |(exs, ezs), i, outs| {
            code.is_x_logical_error(&(&outs[0][i].error_hat ^ &exs[i]))
                || code.is_z_logical_error(&(&outs[1][i].error_hat ^ &ezs[i]))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoders;
    use qldpc_codes::bb;
    use rand::SeedableRng;

    #[test]
    fn depolarizing_components_correlate_through_y() {
        let mut rng = StdRng::seed_from_u64(11);
        let (ex, ez) = sample_depolarizing(10_000, 0.3, &mut rng);
        let x_rate = ex.weight() as f64 / 10_000.0;
        let z_rate = ez.weight() as f64 / 10_000.0;
        // Each component has marginal 2p/3 = 0.2.
        assert!((x_rate - 0.2).abs() < 0.02, "x rate {x_rate}");
        assert!((z_rate - 0.2).abs() < 0.02, "z rate {z_rate}");
        // Overlap = Y rate = p/3.
        let mut overlap = 0usize;
        for i in 0..10_000 {
            if ex.get(i) && ez.get(i) {
                overlap += 1;
            }
        }
        assert!((overlap as f64 / 10_000.0 - 0.1).abs() < 0.02);
    }

    #[test]
    fn zero_noise_never_fails() {
        let report = run_code_capacity(
            &bb::bb72(),
            &CodeCapacityConfig {
                p: 0.0,
                shots: 5,
                seed: 2,
            },
            &decoders::plain_bp(10),
            &BatchConfig::SEQUENTIAL,
        );
        assert_eq!(report.failures, 0);
        assert_eq!(report.unsolved, 0);
        assert_eq!(report.ler(), 0.0);
    }

    #[test]
    fn reports_record_decoder_precision() {
        use qldpc_decoder_api::Precision;
        let config = CodeCapacityConfig {
            p: 0.01,
            shots: 5,
            seed: 3,
        };
        let f32_report = run_code_capacity(
            &bb::bb72(),
            &config,
            &decoders::plain_bp_at(20, Precision::F32),
            &BatchConfig::SEQUENTIAL,
        );
        assert_eq!(f32_report.precision, Precision::F32);
        assert!(f32_report.decoder.ends_with("@f32"));
        let f64_report = run_code_capacity(
            &bb::bb72(),
            &config,
            &decoders::plain_bp(20),
            &BatchConfig::SEQUENTIAL,
        );
        assert_eq!(f64_report.precision, Precision::F64);
    }

    #[test]
    fn bp_osd_beats_unaided_bp_at_moderate_noise() {
        // Statistical smoke test with a fixed seed: BP-OSD's LER must not
        // exceed plain BP's on the same shot stream.
        let code = bb::bb72();
        let config = CodeCapacityConfig {
            p: 0.05,
            shots: 120,
            seed: 42,
        };
        let seq = BatchConfig::SEQUENTIAL;
        let bp = run_code_capacity(&code, &config, &decoders::plain_bp(30), &seq);
        let osd = run_code_capacity(&code, &config, &decoders::bp_osd(30, 10), &seq);
        assert_eq!(osd.unsolved, 0, "OSD always solves");
        assert!(
            osd.failures <= bp.failures,
            "OSD {} vs BP {}",
            osd.failures,
            bp.failures
        );
    }
}
