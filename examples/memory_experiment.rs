//! Circuit-level quantum memory: BP-SF vs BP-OSD on the gross code.
//!
//! Builds a d-round syndrome-extraction circuit under uniform depolarizing
//! noise, extracts the detector error model (the paper's Stim workflow,
//! rebuilt in Rust), and compares decoders on the same shot stream.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example memory_experiment [rounds] [p] [shots]
//! ```

use bpsf::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let rounds: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let p: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(3e-3);
    let shots: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);

    let code = bb::gross_code();
    println!("building {rounds}-round memory-Z experiment for {code} at p = {p} …");
    let noise = NoiseModel::uniform_depolarizing(p);
    let experiment = MemoryExperiment::memory_z(&code, rounds, &noise);
    let dem = experiment.detector_error_model();
    println!(
        "circuit: {} gates, {} noise locations, {} measurements",
        experiment.circuit().num_gates(),
        experiment.circuit().num_noise_locations(),
        experiment.circuit().num_measurements()
    );
    println!(
        "detector error model: {} detectors × {} error mechanisms",
        dem.num_detectors(),
        dem.num_mechanisms()
    );

    let config = CircuitLevelConfig { shots, seed: 7 };
    let workload = format!("{} r={rounds} p={p}", code.name());

    // The paper's Fig. 7 contenders (reduced iteration budgets so the
    // example runs in seconds; scale up for publication-grade numbers).
    let contenders = vec![
        decoders::plain_bp(1000),
        decoders::bp_osd(1000, 10),
        decoders::bp_sf(BpSfConfig::circuit_level(100, 50, 6, 5)),
    ];

    println!(
        "\n{:<34} {:>10} {:>12} {:>10} {:>10}",
        "decoder", "LER", "LER/round", "avg ms", "max ms"
    );
    for factory in &contenders {
        let report = run_circuit_level(&dem, &workload, &config, factory, &BatchConfig::SEQUENTIAL);
        let wall = report.wall_stats_ms();
        println!(
            "{:<34} {:>10.3e} {:>12.3e} {:>10.3} {:>10.3}",
            report.decoder,
            report.ler(),
            report.ler_per_round(rounds),
            wall.mean,
            wall.max
        );
    }
}
