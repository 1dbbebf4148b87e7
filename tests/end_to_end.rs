//! Cross-crate integration tests: the full decode pipelines.

use bpsf::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn code_capacity_pipeline_bb72() {
    let code = bb::bb72();
    let config = CodeCapacityConfig {
        p: 0.02,
        shots: 100,
        seed: 1,
    };
    let bp = run_code_capacity(
        &code,
        &config,
        &decoders::plain_bp(100),
        &BatchConfig::SEQUENTIAL,
    );
    let sf = run_code_capacity(
        &code,
        &config,
        &decoders::bp_sf(BpSfConfig::code_capacity(100, 8, 1)),
        &BatchConfig::SEQUENTIAL,
    );
    let osd = run_code_capacity(
        &code,
        &config,
        &decoders::bp_osd(100, 10),
        &BatchConfig::SEQUENTIAL,
    );
    // Post-processing never hurts: BP-SF and BP-OSD fail at most as often
    // as plain BP on the identical shot stream.
    assert!(sf.failures <= bp.failures);
    assert!(osd.failures <= bp.failures);
    assert_eq!(osd.unsolved, 0);
}

#[test]
fn bp_sf_rescues_coprime154() {
    // The paper's Fig. 5 headline: on [[154,6,16]] plain BP suffers an
    // error floor that BP-SF removes. Verify the ordering at moderate p.
    let code = coprime_bb::coprime154();
    let config = CodeCapacityConfig {
        p: 0.05,
        shots: 150,
        seed: 2,
    };
    let bp = run_code_capacity(
        &code,
        &config,
        &decoders::plain_bp(50),
        &BatchConfig::SEQUENTIAL,
    );
    let sf = run_code_capacity(
        &code,
        &config,
        &decoders::bp_sf(BpSfConfig::code_capacity(50, 8, 1)),
        &BatchConfig::SEQUENTIAL,
    );
    assert!(
        sf.failures < bp.failures,
        "BP-SF ({}) must beat plain BP ({}) on the coprime code",
        sf.failures,
        bp.failures
    );
}

#[test]
fn circuit_level_pipeline_gross_code() {
    let code = bb::gross_code();
    let noise = NoiseModel::uniform_depolarizing(2e-3);
    let exp = MemoryExperiment::memory_z(&code, 2, &noise);
    let dem = exp.detector_error_model();
    assert_eq!(dem.num_undetectable(), 0);
    assert_eq!(dem.num_observables(), 12);

    let config = CircuitLevelConfig { shots: 40, seed: 3 };
    let sf = run_circuit_level(
        &dem,
        "gross r2",
        &config,
        &decoders::bp_sf(BpSfConfig::circuit_level(60, 30, 4, 4)),
        &BatchConfig::SEQUENTIAL,
    );
    let bp = run_circuit_level(
        &dem,
        "gross r2",
        &config,
        &decoders::plain_bp(60),
        &BatchConfig::SEQUENTIAL,
    );
    assert!(sf.failures <= bp.failures);
}

#[test]
fn subsystem_shyps_circuit_level_runs() {
    // The SHYPS code exercises the subsystem detector path (gauge-product
    // stabilizer combinations).
    let code = shp::shyps225();
    let noise = NoiseModel::uniform_depolarizing(1e-3);
    let exp = MemoryExperiment::memory_z(&code, 2, &noise);
    let dem = exp.detector_error_model();
    assert!(dem.num_detectors() > 0);
    assert_eq!(dem.num_observables(), 16);
    assert_eq!(dem.num_undetectable(), 0);

    let report = run_circuit_level(
        &dem,
        "shyps r2",
        &CircuitLevelConfig { shots: 20, seed: 4 },
        &decoders::bp_osd(60, 10),
        &BatchConfig::SEQUENTIAL,
    );
    assert_eq!(report.unsolved, 0);
}

#[test]
fn parallel_pool_agrees_with_serial_on_stream() {
    let code = coprime_bb::coprime154();
    let hz = code.hz().clone();
    let n = hz.cols();
    let p = 0.04;
    let priors = vec![2.0 * p / 3.0; n];
    let config = BpSfConfig::code_capacity(40, 8, 1);
    let mut serial = BpSfDecoder::new(&hz, &priors, config);
    let mut pool = BpSfDecoder::with_workers(&hz, &priors, config, 2);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..25 {
        let (ex, _) = bpsf::sim::sample_depolarizing(n, p, &mut rng);
        let s = hz.mul_vec(&ex);
        let rs = serial.decode(&s);
        let rp = pool.decode(&s);
        assert_eq!(rs, rp);
        if rp.success {
            assert_eq!(hz.mul_vec(&rp.error_hat), s);
        }
    }
}

#[test]
fn logical_judgement_consistency_between_layers() {
    // The sim layer's per-basis judgement must agree with a direct check
    // through the code's logical operators.
    let code = bb::bb72();
    let hz = code.hz();
    // An X-type residual along a logical-X support has zero Z-check
    // syndrome (it commutes with every Z check) yet anticommutes with the
    // paired logical Z — a logical error.
    let logical_x = code.logicals().x.row(0);
    assert!(hz.mul_vec(&logical_x).is_zero());
    assert!(code.is_x_logical_error(&logical_x));
    // A stabilizer row has zero syndrome and is harmless.
    let stab = code.hx().to_dense().row(0);
    assert!(hz.mul_vec(&stab).is_zero());
    assert!(!code.is_x_logical_error(&stab));
}

#[test]
fn per_round_conversion_matches_formula() {
    let ler = 0.2;
    let rounds = 6;
    let per_round = bpsf::sim::ler_per_round(ler, rounds);
    let recomposed = 1.0 - (1.0 - per_round).powi(rounds as i32);
    assert!((recomposed - ler).abs() < 1e-12);
}
