//! Statistical smoke tests of the paper's central claims, at reduced
//! scale with fixed seeds (full-scale reproductions live in the bench
//! binaries; see EXPERIMENTS.md).

use bpsf::bpsf::{hit_precision_recall, select_candidates};
use bpsf::prelude::*;
use qldpc_bp::MinSumDecoder;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Paper §III-B / Fig. 3: oscillating bits are far better error-location
/// guesses than chance — hit precision well above the physical error rate.
#[test]
fn oscillating_bits_predict_error_locations() {
    let code = bb::gross_code();
    let noise = NoiseModel::uniform_depolarizing(4e-3);
    let exp = MemoryExperiment::memory_z(&code, 2, &noise);
    let dem = exp.detector_error_model();
    let sampler = DemSampler::new(&dem);
    let mut bp = MinSumDecoder::new(
        dem.check_matrix(),
        dem.priors(),
        BpConfig {
            max_iters: 50,
            track_oscillations: true,
            ..BpConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(33);
    let mut precisions = Vec::new();
    let mut failures_seen = 0;
    for _ in 0..400 {
        let shot = sampler.sample(&mut rng);
        if shot.syndrome.is_zero() {
            continue;
        }
        let r = bp.decode(&shot.syndrome);
        if r.converged {
            continue;
        }
        failures_seen += 1;
        let candidates = select_candidates(&r.flip_counts, &r.posteriors, 50, true);
        let truth: Vec<usize> = shot.fault.iter_ones().collect();
        let (precision, _recall) = hit_precision_recall(&candidates, &truth);
        precisions.push(precision);
        if failures_seen >= 12 {
            break;
        }
    }
    assert!(
        failures_seen >= 3,
        "need BP failures to study; got {failures_seen}"
    );
    let mean: f64 = precisions.iter().sum::<f64>() / precisions.len() as f64;
    // Average mechanism prior is ~p/3 ≈ 1e-3; precision must be orders
    // of magnitude above it (the paper reports ~0.2–0.8).
    assert!(
        mean > 0.02,
        "candidate precision {mean} is no better than chance"
    );
}

/// Paper Fig. 2: BP converges quickly or effectively never — the mean
/// iteration count is far below the maximum.
#[test]
fn iteration_distribution_is_long_tailed() {
    let code = bb::gross_code();
    let noise = NoiseModel::uniform_depolarizing(1e-3);
    let exp = MemoryExperiment::memory_z(&code, 2, &noise);
    let dem = exp.detector_error_model();
    let sampler = DemSampler::new(&dem);
    let mut bp = MinSumDecoder::new(
        dem.check_matrix(),
        dem.priors(),
        BpConfig {
            max_iters: 200,
            ..BpConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(44);
    let mut iters = Vec::new();
    for _ in 0..150 {
        let shot = sampler.sample(&mut rng);
        let r = bp.decode(&shot.syndrome);
        iters.push(r.iterations as f64);
    }
    let stats = bpsf::sim::LatencyStats::from_samples(iters);
    assert!(
        stats.median <= 12.0,
        "median iterations {} should be small at p=1e-3",
        stats.median
    );
    assert!(
        stats.mean < 60.0,
        "mean {} should sit far below the cap",
        stats.mean
    );
}

/// Paper abstract: BP-SF achieves logical error rates comparable to
/// BP-OSD. At this reduced scale, "comparable" means within a small
/// failure-count gap on the same shot stream.
#[test]
fn bp_sf_ler_comparable_to_bp_osd() {
    let code = bb::gross_code();
    let noise = NoiseModel::uniform_depolarizing(4e-3);
    let exp = MemoryExperiment::memory_z(&code, 2, &noise);
    let dem = exp.detector_error_model();
    let config = CircuitLevelConfig {
        shots: 150,
        seed: 10,
    };
    let sf = run_circuit_level(
        &dem,
        "gross r2",
        &config,
        &decoders::bp_sf(BpSfConfig::circuit_level(100, 50, 6, 5)),
        &BatchConfig::SEQUENTIAL,
    );
    let osd = run_circuit_level(
        &dem,
        "gross r2",
        &config,
        &decoders::bp_osd(100, 10),
        &BatchConfig::SEQUENTIAL,
    );
    let bp = run_circuit_level(
        &dem,
        "gross r2",
        &config,
        &decoders::plain_bp(100),
        &BatchConfig::SEQUENTIAL,
    );
    assert!(
        sf.failures <= bp.failures,
        "BP-SF must not lose to plain BP"
    );
    assert!(
        sf.failures <= osd.failures + 4,
        "BP-SF ({}) should be comparable to BP-OSD ({})",
        sf.failures,
        osd.failures
    );
}

/// The critical-path accounting underpinning the paper's 4 µs FPGA bound:
/// with BP100 settings, no decode's critical path exceeds 200 iterations.
#[test]
fn critical_path_bounded_by_two_bp_budgets() {
    let code = coprime_bb::coprime154();
    let config = CodeCapacityConfig {
        p: 0.05,
        shots: 80,
        seed: 12,
    };
    let report = run_code_capacity(
        &code,
        &config,
        &decoders::bp_sf(BpSfConfig::code_capacity(100, 8, 1)),
        &BatchConfig::SEQUENTIAL,
    );
    for r in &report.records {
        assert!(
            r.critical_iterations <= 200,
            "critical path {} exceeds 2×100 iterations",
            r.critical_iterations
        );
    }
}
