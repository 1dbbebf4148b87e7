//! Figure 13: latency scaling of BP-SF vs BP-OSD across code sizes at
//! p = 3e-3 — average decode time, plus the post-processing-only average
//! (the paper's dashed lines), against the number of error mechanisms.
//!
//! Paper setup: codes `[[126,12,10]]`, `[[144,12,12]]`, `[[154,6,16]]`,
//! `[[288,12,18]]` with 6426/8784/12474/26208 mechanisms respectively;
//! BP-SF average ≈ 0.63× BP-OSD overall and ≈ 0.1× on the
//! post-processing stage for the largest code.

use bpsf_core::BpSfConfig;
use qldpc_bench::{banner, build_dem, paper_reference, BenchArgs};
use qldpc_sim::{decoders, run_circuit_level, BatchConfig, CircuitLevelConfig};

fn main() {
    let args = BenchArgs::parse(60);
    banner(
        "Figure 13",
        "latency scaling vs number of error mechanisms at p = 3e-3",
        &args,
    );
    let codes: Vec<(qldpc_codes::CssCode, usize)> = vec![
        (qldpc_codes::coprime_bb::coprime126(), 10),
        (qldpc_codes::bb::gross_code(), 12),
        (qldpc_codes::coprime_bb::coprime154(), 16),
        (qldpc_codes::bb::bb288(), 18),
    ];
    let config = CircuitLevelConfig {
        shots: args.shots,
        seed: args.seed,
    };

    println!(
        "\n{:<26} {:>11} {:<16} {:>9} {:>12} {:>9}",
        "code", "mechanisms", "decoder", "avg ms", "postproc ms", "LER"
    );
    for (code, d) in &codes {
        let rounds = args.rounds.unwrap_or(*d);
        let dem = build_dem(code, rounds, 3e-3);
        for factory in [
            decoders::bp_sf(BpSfConfig::circuit_level(100, 50, 10, 10)),
            decoders::bp_osd(1000, 10),
        ] {
            let r = run_circuit_level(
                &dem,
                code.name(),
                &config,
                &factory,
                &BatchConfig::SEQUENTIAL,
            );
            let wall = r.wall_stats_ms();
            let pp = r.postprocessed_wall_stats_ms();
            println!(
                "{:<26} {:>11} {:<16} {:>9.2} {:>12.2} {:>9.2e}",
                code.name(),
                dem.num_mechanisms(),
                r.decoder,
                wall.mean,
                pp.mean,
                r.ler()
            );
        }
    }
    paper_reference(&[
        "mechanisms (paper): 6426 / 8784 / 12474 / 26208 for the four codes",
        "BP-SF average latency is consistently below BP-OSD's,",
        "  reaching ≈0.63× for `[[288,12,18]]`",
        "post-processing-only latency (dashed): BP-SF ≈ 0.1× BP-OSD —",
        "  an order of magnitude — because syndrome flips replace Gaussian",
        "  elimination",
    ]);
}
