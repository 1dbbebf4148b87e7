//! Table I: logical error rate per round and average decoding time for
//! BP-OSD with different BP iteration caps, on the `[[144,12,12]]` code at
//! p = 3e-3 under circuit-level noise.
//!
//! The paper's point: *reducing* BP iterations can *increase* total
//! latency, because a weaker BP stage invokes the costly OSD stage more
//! often. The sweet spot sits near BP1000.

use qldpc_bench::{banner, build_dem, paper_reference, BenchArgs};
use qldpc_sim::{decoders, run_circuit_level, BatchConfig, CircuitLevelConfig};

fn main() {
    let args = BenchArgs::parse(300);
    banner(
        "Table I",
        "BP-OSD iteration trade-off, BB `[[144,12,12]]`, p = 3e-3",
        &args,
    );
    let code = qldpc_codes::bb::gross_code();
    let rounds = args.rounds.unwrap_or(12);
    let dem = build_dem(&code, rounds, 3e-3);
    let config = CircuitLevelConfig {
        shots: args.shots,
        seed: args.seed,
    };

    let caps: &[usize] = if args.full {
        &[100, 400, 1000, 2000, 10000]
    } else {
        &[100, 400, 1000, 2000]
    };
    println!(
        "\n{:<18} {:>12} {:>12} {:>14}",
        "decoder", "LER/round", "avg ms", "OSD invoked %"
    );
    for &cap in caps {
        let r = run_circuit_level(
            &dem,
            "gross",
            &config,
            &decoders::bp_osd(cap, 10),
            &BatchConfig::SEQUENTIAL,
        );
        let wall = r.wall_stats_ms();
        println!(
            "{:<18} {:>12.3e} {:>12.2} {:>14.1}",
            r.decoder,
            r.ler_per_round(rounds),
            wall.mean,
            100.0 * r.postprocessing_rate()
        );
    }
    paper_reference(&[
        "BP100-OSD10:   LER/d 2.89e-4, 56.13 ms",
        "BP400-OSD10:   LER/d 2.23e-4, 37.69 ms",
        "BP1000-OSD10:  LER/d 2.11e-4, 36.44 ms   ← fastest",
        "BP2000-OSD10:  LER/d 2.00e-4, 44.01 ms",
        "BP10000-OSD10: LER/d 1.84e-4, 94.94 ms",
        "shape to verify: avg time is U-shaped in the BP cap; LER/round",
        "decreases monotonically with more BP iterations",
    ]);
}
