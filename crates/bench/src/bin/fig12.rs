//! Figure 12: complexity growth on the `[[144,12,12]]` code — serial BP
//! iterations (average and worst case) versus the achieved logical error
//! rate per round, at p = 3e-3.
//!
//! Paper setup: plain BP sweeps its iteration cap; BP-SF fixes BP100 and
//! |Φ| = 50, sweeps ns with w_max ∈ {1, 5, 10}. Every BP-SF curve
//! "postpones the cliff": it reaches lower LER at fewer serial iterations.

use bpsf_core::BpSfConfig;
use qldpc_bench::{banner, build_dem, paper_reference, BenchArgs};
use qldpc_sim::{decoders, run_circuit_level, BatchConfig, CircuitLevelConfig};

fn main() {
    let args = BenchArgs::parse(300);
    banner(
        "Figure 12",
        "complexity growth (serial BP iterations vs LER/round), BB `[[144,12,12]]`, p = 3e-3",
        &args,
    );
    let code = qldpc_codes::bb::gross_code();
    let rounds = args.rounds.unwrap_or(12);
    let dem = build_dem(&code, rounds, 3e-3);
    println!(
        "DEM: {} detectors × {} mechanisms",
        dem.num_detectors(),
        dem.num_mechanisms()
    );
    let config = CircuitLevelConfig {
        shots: args.shots,
        seed: args.seed,
    };

    println!(
        "\n{:<34} {:>12} {:>12} {:>12}",
        "decoder", "LER/round", "avg iters", "worst iters"
    );
    let bp_caps: &[usize] = if args.full {
        &[10, 30, 100, 300, 1000, 3000]
    } else {
        &[10, 50, 200, 1000]
    };
    for &cap in bp_caps {
        let r = run_circuit_level(
            &dem,
            "gross",
            &config,
            &decoders::plain_bp(cap),
            &BatchConfig::SEQUENTIAL,
        );
        let it = r.serial_iteration_stats();
        println!(
            "{:<34} {:>12.3e} {:>12.1} {:>12.0}",
            r.decoder,
            r.ler_per_round(rounds),
            it.mean,
            it.max
        );
    }
    let sweeps: &[(usize, usize)] = if args.full {
        &[
            (1, 1),
            (1, 5),
            (1, 10),
            (5, 1),
            (5, 5),
            (5, 10),
            (10, 1),
            (10, 5),
            (10, 10),
        ]
    } else {
        &[(1, 5), (5, 5), (10, 10)]
    };
    for &(w, ns) in sweeps {
        let r = run_circuit_level(
            &dem,
            "gross",
            &config,
            &decoders::bp_sf(BpSfConfig::circuit_level(100, 50, w, ns)),
            &BatchConfig::SEQUENTIAL,
        );
        let it = r.serial_iteration_stats();
        println!(
            "{:<34} {:>12.3e} {:>12.1} {:>12.0}",
            r.decoder,
            r.ler_per_round(rounds),
            it.mean,
            it.max
        );
    }
    paper_reference(&[
        "plain BP: LER/round stalls near 2e-3 regardless of iteration cap —",
        "  its curve 'cliffs' early (more iterations stop helping)",
        "BP-SF: average iterations stay low (initial BP usually converges);",
        "  larger w_max extends the linear region and postpones the cliff,",
        "  trading worst-case serial iterations for lower LER",
    ]);
}
