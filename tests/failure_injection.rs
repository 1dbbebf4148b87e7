//! Failure injection: decoders must degrade gracefully, never hang or
//! panic, on adversarial inputs.

use bpsf::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A check matrix with a guaranteed-unsatisfiable syndrome (two identical
/// checks receiving different syndrome bits).
fn inconsistent_setup() -> (SparseBitMatrix, BitVec) {
    let h = SparseBitMatrix::from_row_indices(2, 4, &[vec![0, 1, 2], vec![0, 1, 2]]);
    let s = BitVec::from_indices(2, &[0]);
    (h, s)
}

#[test]
fn bp_terminates_on_inconsistent_syndrome() {
    let (h, s) = inconsistent_setup();
    let mut dec = MinSumDecoder::new(
        &h,
        &[0.1; 4],
        BpConfig {
            max_iters: 200,
            ..BpConfig::default()
        },
    );
    let r = dec.decode(&s);
    assert!(!r.converged);
    assert_eq!(r.iterations, 200);
}

#[test]
fn bp_sf_reports_failure_on_inconsistent_syndrome() {
    let (h, s) = inconsistent_setup();
    let mut dec = BpSfDecoder::new(&h, &[0.1; 4], BpSfConfig::code_capacity(10, 4, 2));
    let r = dec.decode(&s);
    assert!(!r.success, "no trial can fix an inconsistent system");
    assert!(r.trials_executed > 0, "trials must have been attempted");
    assert!(r.serial_iterations > r.initial_iterations);
}

#[test]
fn osd_reports_inconsistency_instead_of_lying() {
    let (h, s) = inconsistent_setup();
    let mut dec = BpOsdDecoder::new(
        &h,
        &[0.1; 4],
        BpConfig {
            max_iters: 5,
            ..BpConfig::default()
        },
        OsdConfig::default(),
    );
    let r = dec.decode(&s);
    assert!(!r.solved);
}

#[test]
fn parallel_pool_survives_inconsistent_streams() {
    let (h, s) = inconsistent_setup();
    let config = BpSfConfig::code_capacity(10, 4, 2);
    let mut pool = BpSfDecoder::with_workers(&h, &[0.1; 4], config, 2);
    for _ in 0..5 {
        let r = pool.decode(&s);
        assert!(!r.success);
        assert_eq!(r.trials_executed, config.max_trials());
    }
    // And it still decodes solvable syndromes afterwards.
    let e = BitVec::from_indices(4, &[0]);
    let good = h.mul_vec(&e);
    let r = pool.decode(&good);
    assert!(r.success);
}

#[test]
fn decoders_survive_random_garbage_syndromes() {
    // Random (possibly unsatisfiable) syndromes on a real code: decoders
    // must return without panicking, and any claimed solution must be real.
    let code = bb::bb72();
    let hz = code.hz();
    let m = hz.rows();
    let n = hz.cols();
    let mut rng = StdRng::seed_from_u64(13);
    let mut sf = BpSfDecoder::new(hz, &vec![0.03; n], BpSfConfig::code_capacity(20, 6, 2));
    let mut osd = BpOsdDecoder::new(
        hz,
        &vec![0.03; n],
        BpConfig {
            max_iters: 20,
            ..BpConfig::default()
        },
        OsdConfig::default(),
    );
    for _ in 0..20 {
        let mut s = BitVec::zeros(m);
        for i in 0..m {
            if rng.random_bool(0.5) {
                s.set(i, true);
            }
        }
        let r = sf.decode(&s);
        if r.success {
            assert_eq!(hz.mul_vec(&r.error_hat), s);
        }
        let r = osd.decode(&s);
        if r.solved {
            assert_eq!(hz.mul_vec(&r.error_hat), s);
        }
    }
}

#[test]
fn zero_probability_noise_yields_empty_dem() {
    let code = bb::bb72();
    let exp = MemoryExperiment::memory_z(&code, 2, &NoiseModel::noiseless());
    let dem = exp.detector_error_model();
    assert_eq!(dem.num_mechanisms(), 0);
    // Sampling an empty DEM gives a clean shot.
    let sampler = DemSampler::new(&dem);
    let mut rng = StdRng::seed_from_u64(1);
    let shot = sampler.sample(&mut rng);
    assert!(shot.syndrome.is_zero());
    assert!(shot.obs_flips.is_zero());
}

#[test]
fn tiny_candidate_sets_do_not_break_trial_generation() {
    // A syndrome whose BP failure produces very few oscillating bits must
    // still generate trials (via padding) and terminate.
    let (h, s) = inconsistent_setup();
    let mut dec = BpSfDecoder::new(
        &h,
        &[0.1; 4],
        BpSfConfig {
            pad_candidates: true,
            ..BpSfConfig::code_capacity(5, 10, 3) // |Φ| larger than n
        },
    );
    let r = dec.decode(&s);
    assert!(!r.success);
    assert!(r.candidates.len() <= 4);
}

#[test]
fn sampled_trials_with_tiny_phi() {
    let (h, s) = inconsistent_setup();
    let mut dec = BpSfDecoder::new(
        &h,
        &[0.1; 4],
        BpSfConfig::circuit_level(5, 2, 5, 7), // w_max larger than |Φ|
    );
    let r = dec.decode(&s);
    assert!(!r.success);
    // Weight > |Φ| is impossible; trials are capped accordingly.
    assert!(r.trials_executed <= 3);
}
