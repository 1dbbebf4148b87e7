//! Properties of the one shot loop behind `run_code_capacity` and
//! `run_circuit_level`, checked on both noise models × every decoder
//! family (plain BP, BP-OSD, and BP-SF with sampled trials, serial and
//! on two trial workers):
//!
//! * the batch width never changes a record;
//! * a T-thread run is the thread-ordered union of T
//!   `BatchConfig::SEQUENTIAL` runs at seeds `seed + t`;
//! * zero shots yield one empty, labelled report.

use bpsf_core::BpSfConfig;
use proptest::prelude::*;
use qldpc_circuit::{DetectorErrorModel, MemoryExperiment, NoiseModel};
use qldpc_codes::bb;
use qldpc_sim::{
    decoders, run_circuit_level, run_code_capacity, BatchConfig, CircuitLevelConfig,
    CodeCapacityConfig, DecoderFactory, RunReport,
};
use std::sync::OnceLock;

/// bb72, two rounds, hot enough that post-processing runs and fails.
fn dem() -> &'static DetectorErrorModel {
    static DEM: OnceLock<DetectorErrorModel> = OnceLock::new();
    DEM.get_or_init(|| {
        MemoryExperiment::memory_z(&bb::bb72(), 2, &NoiseModel::uniform_depolarizing(6e-3))
            .detector_error_model()
    })
}

#[derive(Debug, Clone, Copy)]
enum Model {
    Capacity,
    Circuit,
}

impl Model {
    fn run(self, factory: &DecoderFactory, shots: usize, seed: u64, b: &BatchConfig) -> RunReport {
        match self {
            Model::Capacity => {
                let config = CodeCapacityConfig {
                    p: 0.05,
                    shots,
                    seed,
                };
                run_code_capacity(&bb::bb72(), &config, factory, b)
            }
            Model::Circuit => {
                let config = CircuitLevelConfig { shots, seed };
                run_circuit_level(dem(), "bb72 r2", &config, factory, b)
            }
        }
    }
}

/// Every (noise model, decoder family) pair, with a label for messages.
fn cases() -> Vec<(String, Model, DecoderFactory)> {
    let mut cases = Vec::new();
    for model in [Model::Capacity, Model::Circuit] {
        for (name, factory) in [
            ("bp", decoders::plain_bp(30)),
            ("bposd", decoders::bp_osd(30, 10)),
            (
                "bpsf",
                decoders::bp_sf(BpSfConfig::circuit_level(30, 20, 3, 3)),
            ),
            (
                "bpsf-p2",
                decoders::parallel_bp_sf(BpSfConfig::circuit_level(30, 20, 3, 3), 2),
            ),
        ] {
            cases.push((format!("{model:?}/{name}"), model, factory));
        }
    }
    cases
}

/// Everything but `wall_ns` (and the workload tag) must agree.
fn assert_same_records(got: &RunReport, want: &RunReport, what: &str) {
    assert_eq!(got.decoder, want.decoder, "{what}");
    assert_eq!(got.shots, want.shots, "{what}");
    assert_eq!(got.failures, want.failures, "{what}");
    assert_eq!(got.unsolved, want.unsolved, "{what}");
    assert_eq!(got.records.len(), want.records.len(), "{what}");
    for (i, (g, w)) in got.records.iter().zip(&want.records).enumerate() {
        assert_eq!(g.failed, w.failed, "{what} shot {i}");
        assert_eq!(g.serial_iterations, w.serial_iterations, "{what} shot {i}");
        assert_eq!(
            g.critical_iterations, w.critical_iterations,
            "{what} shot {i}"
        );
        assert_eq!(g.postprocessed, w.postprocessed, "{what} shot {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// `(T, k)` ≡ `(T, 1)`, record for record.
    #[test]
    fn batch_width_never_changes_a_record(
        seed in 0u64..10_000,
        threads in 1usize..4,
        batch_size in 2usize..40,
        shots in 1usize..48,
    ) {
        for (what, model, factory) in cases() {
            let wide = model.run(&factory, shots, seed, &BatchConfig { threads, batch_size });
            let narrow = model.run(&factory, shots, seed, &BatchConfig { threads, batch_size: 1 });
            assert_same_records(&wide, &narrow, &what);
            assert!(wide.workload.ends_with(&format!("[{threads}T,batch={batch_size}]")));
        }
    }

    /// A T-thread run ≡ the thread-ordered concatenation of T
    /// `SEQUENTIAL` runs at seeds `seed + t`, shots split as evenly as
    /// possible with earlier threads taking the remainder.
    #[test]
    fn threads_are_the_union_of_seeded_sequential_runs(
        seed in 0u64..10_000,
        threads in 1usize..5,
        shots in 1usize..48,
    ) {
        for (what, model, factory) in cases() {
            let whole = model.run(&factory, shots, seed, &BatchConfig { threads, batch_size: 1 });
            let union = (0..threads.min(shots))
                .map(|t| {
                    let chunk = shots / threads + usize::from(t < shots % threads);
                    model.run(&factory, chunk, seed + t as u64, &BatchConfig::SEQUENTIAL)
                })
                .reduce(|mut union, part| {
                    union.shots += part.shots;
                    union.failures += part.failures;
                    union.unsolved += part.unsolved;
                    union.records.extend(part.records);
                    union
                })
                .expect("shots > 0");
            assert_same_records(&whole, &union, &what);
        }
    }
}

#[test]
fn zero_shots_yield_one_empty_report() {
    let shape = BatchConfig {
        threads: 4,
        batch_size: 8,
    };
    for (what, model, factory) in cases() {
        let report = model.run(&factory, 0, 1, &shape);
        assert_eq!(report.shots, 0, "{what}");
        assert_eq!(report.failures, 0, "{what}");
        assert_eq!(report.unsolved, 0, "{what}");
        assert!(report.records.is_empty(), "{what}");
        assert_eq!(report.ler(), 0.0, "{what}");
        assert!(!report.decoder.is_empty(), "{what}");
        assert!(report.workload.ends_with("[4T,batch=8]"), "{what}");
    }
}
