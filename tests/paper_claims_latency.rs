//! The one wall-clock paper claim, alone in its test binary (its doc
//! comment says why); the others live in `paper_claims.rs`.

use bpsf::prelude::*;

/// Paper Fig. 14/15: *fully parallelized* BP-SF post-processing gains
/// on OSD's Gaussian elimination as circuit depth grows — BP's cost is
/// linear in the DEM size while elimination is superlinear.
///
/// The paper's claim is about the P-engine critical path, not a serial
/// CPU: run serially, BP-SF's trial loop simply executes more BP
/// iterations than OSD's single elimination. So the comparison scales
/// each BP-SF shot's measured wall time by `critical / serial`
/// iterations — post-processing wall time is almost entirely trial BP
/// iterations, and on P engines only the winning trial's chain remains
/// — while OSD's elimination is inherently serial (the paper's point)
/// and its wall time stands as measured.
///
/// The baseline is this repo's word-parallel OSD fast path, an order of
/// magnitude faster than the conventional per-bit BP-OSD the paper
/// compares against — the honest comparison EXPERIMENTS.md reports.
/// Against it the absolute crossover used to sit beyond smoke-test
/// depth; since the scalar decoder's check-major sweep halved the cost
/// of a BP iteration it falls inside: at twelve rounds the parallelized
/// SF cost was below the elimination's in ten of ten release runs on a
/// 2-core container (ratio 0.59–0.87, median 0.73; 0.76–1.26, median
/// 1.03 before). These are wall-clock ratios over a few dozen shots on
/// a shared machine, so what is asserted stays a trend with margins:
/// the BP-SF-to-OSD cost ratio must shrink markedly from shallow to
/// deep circuits, and at paper-like depth the parallelized SF cost
/// must sit within a small factor of even the optimized elimination.
///
/// Lives alone in this file, and must stay alone: cargo runs test
/// binaries one after another but the tests inside one in parallel, and
/// sharing two cores with its four former siblings distorted the measured
/// ratio enough to fail about one release run in five.
#[test]
fn bp_sf_postprocessing_gains_on_osd_with_depth() {
    let code = bb::gross_code();
    let noise = NoiseModel::uniform_depolarizing(4e-3);
    let ratio_at = |rounds: usize| -> f64 {
        let exp = MemoryExperiment::memory_z(&code, rounds, &noise);
        let dem = exp.detector_error_model();
        let config = CircuitLevelConfig { shots: 60, seed: 9 };
        let label = format!("gross r{rounds}");
        let sf = run_circuit_level(
            &dem,
            &label,
            &config,
            &decoders::bp_sf(BpSfConfig::circuit_level(60, 40, 6, 5)),
            &BatchConfig::SEQUENTIAL,
        );
        let osd = run_circuit_level(
            &dem,
            &label,
            &config,
            &decoders::bp_osd(60, 10),
            &BatchConfig::SEQUENTIAL,
        );
        let sf_parallel_ms: Vec<f64> = sf
            .records
            .iter()
            .filter(|r| r.postprocessed)
            .map(|r| {
                r.wall_ns as f64 / 1.0e6
                    * (r.critical_iterations as f64 / r.serial_iterations as f64)
            })
            .collect();
        let osd_pp = osd.postprocessed_wall_stats_ms();
        assert!(
            !sf_parallel_ms.is_empty() && osd_pp.count > 0,
            "need post-processed shots at {rounds} rounds"
        );
        let sf_mean = sf_parallel_ms.iter().sum::<f64>() / sf_parallel_ms.len() as f64;
        println!(
            "{label}: parallelized BP-SF {sf_mean:.3} ms vs OSD {:.3} ms \
             ({} / {} post-processed shots)",
            osd_pp.mean,
            sf_parallel_ms.len(),
            osd_pp.count
        );
        sf_mean / osd_pp.mean
    };
    let shallow = ratio_at(3);
    let deep = ratio_at(12);
    println!("BP-SF / OSD post-processing cost ratio: r3 {shallow:.3} -> r12 {deep:.3}");
    // Wall-clock comparisons are only meaningful with optimizations: debug
    // builds slow the float-heavy BP kernel far more than the bit-packed
    // elimination, distorting the ratio.
    if !cfg!(debug_assertions) {
        assert!(
            deep < 0.92 * shallow,
            "BP-SF must gain on OSD with depth: ratio r3 {shallow:.3} -> r12 {deep:.3}"
        );
        assert!(
            deep < 1.4,
            "parallelized BP-SF ({deep:.3}x OSD at r12) should be near the crossover"
        );
    }
}
