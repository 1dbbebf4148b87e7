//! Circuit-level Monte Carlo runs over detector error models.

use crate::decoders::DecoderFactory;
use crate::engine::{self, BatchConfig};
use crate::report::RunReport;
use qldpc_circuit::{DemSampler, DetectorErrorModel};

/// Configuration of a circuit-level run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitLevelConfig {
    /// Number of Monte Carlo shots.
    pub shots: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Runs a circuit-level experiment against a pre-built detector error
/// model: shots are sampled from the DEM, decoded, and judged by whether
/// the predicted observable flips match the true ones.
///
/// `batch` shapes the run exactly as for
/// [`run_code_capacity`](crate::run_code_capacity): pass
/// [`BatchConfig::SEQUENTIAL`] to decode one stream shot by shot, the
/// paper's measurement methodology ("decoding them sequentially is more
/// aligned with real-world use cases").
///
/// # Panics
///
/// Panics if `batch.threads == 0` or `batch.batch_size == 0`.
///
/// # Examples
///
/// ```
/// use qldpc_circuit::{MemoryExperiment, NoiseModel};
/// use qldpc_codes::bb;
/// use qldpc_sim::{decoders, run_circuit_level, BatchConfig, CircuitLevelConfig};
///
/// let exp = MemoryExperiment::memory_z(&bb::bb72(), 2, &NoiseModel::uniform_depolarizing(1e-3));
/// let dem = exp.detector_error_model();
/// let report = run_circuit_level(&dem, "bb72 r2", &CircuitLevelConfig { shots: 10, seed: 3 },
///                                &decoders::plain_bp(50), &BatchConfig::SEQUENTIAL);
/// assert_eq!(report.shots, 10);
/// ```
pub fn run_circuit_level(
    dem: &DetectorErrorModel,
    workload: &str,
    config: &CircuitLevelConfig,
    factory: &DecoderFactory,
    batch: &BatchConfig,
) -> RunReport {
    let sampler = DemSampler::new(dem);
    engine::run_shots(
        workload,
        config.shots,
        config.seed,
        batch,
        || vec![factory(dem.check_matrix(), dem.priors())],
        |rng, k| {
            let (syndromes, obs_flips): (Vec<_>, Vec<_>) = sampler
                .sample_batch(rng, k)
                .into_iter()
                .map(|shot| (shot.syndrome, shot.obs_flips))
                .unzip();
            (vec![syndromes], obs_flips)
        },
        |obs_flips, i, outs| dem.is_logical_error(&obs_flips[i], &outs[0][i].error_hat),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoders;
    use qldpc_circuit::{MemoryExperiment, NoiseModel};
    use qldpc_codes::bb;

    fn dem(p: f64, rounds: usize) -> DetectorErrorModel {
        MemoryExperiment::memory_z(&bb::bb72(), rounds, &NoiseModel::uniform_depolarizing(p))
            .detector_error_model()
    }

    #[test]
    fn low_noise_mostly_succeeds_with_bp_osd() {
        let dem = dem(5e-4, 2);
        let report = run_circuit_level(
            &dem,
            "bb72 r2 p=5e-4",
            &CircuitLevelConfig { shots: 60, seed: 4 },
            &decoders::bp_osd(60, 10),
            &BatchConfig::SEQUENTIAL,
        );
        assert_eq!(report.unsolved, 0);
        assert!(
            report.ler() < 0.2,
            "unexpectedly high circuit-level LER {}",
            report.ler()
        );
    }

    #[test]
    fn per_round_rate_below_total() {
        let dem = dem(2e-3, 3);
        let report = run_circuit_level(
            &dem,
            "bb72 r3",
            &CircuitLevelConfig { shots: 40, seed: 5 },
            &decoders::plain_bp(40),
            &BatchConfig::SEQUENTIAL,
        );
        assert!(report.ler_per_round(3) <= report.ler() + 1e-12);
    }

    #[test]
    fn records_track_postprocessing() {
        let dem = dem(4e-3, 2);
        let report = run_circuit_level(
            &dem,
            "bb72 r2 hot",
            &CircuitLevelConfig { shots: 50, seed: 6 },
            &decoders::bp_sf(bpsf_core::BpSfConfig::circuit_level(40, 20, 3, 3)),
            &BatchConfig::SEQUENTIAL,
        );
        assert_eq!(report.records.len(), 50);
        for r in &report.records {
            assert!(r.critical_iterations <= r.serial_iterations || !r.postprocessed);
        }
    }
}
