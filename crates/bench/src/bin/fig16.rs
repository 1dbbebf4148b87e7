//! Figure 16 and the §VI hardware discussion: estimated GPU decode-time
//! distributions, and the FPGA/ASIC real-time projection.
//!
//! The paper's "GPU_Est" is itself a model (CUDA-Q cannot track
//! oscillations): precomputed trials replayed one-by-one on the GPU. We
//! reproduce it by replaying our measured iteration records through a
//! per-iteration latency model with serial trials (GPU_Est), batched
//! trials (the paper's proposed improvement) and the 20 ns FPGA profile.

use bpsf_core::BpSfConfig;
use qldpc_bench::{banner, build_dem, paper_reference, BenchArgs};
use qldpc_sim::{
    decoders, run_circuit_level, BatchConfig, CircuitLevelConfig, HardwareLatencyModel,
};

fn main() {
    let args = BenchArgs::parse(300);
    banner(
        "Figure 16 / §VI",
        "GPU-estimated decode-time distributions and FPGA projection, BB `[[144,12,12]]`, p = 3e-3",
        &args,
    );
    let code = qldpc_codes::bb::gross_code();
    let rounds = args.rounds.unwrap_or(12);
    let dem = build_dem(&code, rounds, 3e-3);
    let config = CircuitLevelConfig {
        shots: args.shots,
        seed: args.seed,
    };

    let sf = run_circuit_level(
        &dem,
        "gross",
        &config,
        &decoders::bp_sf(BpSfConfig::circuit_level(100, 50, 10, 10)),
        &BatchConfig::SEQUENTIAL,
    );
    let osd = run_circuit_level(
        &dem,
        "gross",
        &config,
        &decoders::bp_osd(1000, 10),
        &BatchConfig::SEQUENTIAL,
    );

    let gpu_serial = HardwareLatencyModel::gpu_estimate();
    let gpu_batched = HardwareLatencyModel::gpu_batched();
    let fpga = HardwareLatencyModel::fpga();

    println!(
        "\n{:<34} {:>10} {:>10} {:>10}",
        "model", "avg ms", "median ms", "max ms"
    );
    for (name, report, model) in [
        ("BP-SF (GPU_Est, serial trials)", &sf, gpu_serial),
        ("BP-SF (GPU batched trials)", &sf, gpu_batched),
        ("BP1000-OSD10 (GPU, BP stage)", &osd, gpu_serial),
    ] {
        let stats = model.run_stats_ms(report);
        println!(
            "{:<34} {:>10.3} {:>10.3} {:>10.3}",
            name, stats.mean, stats.median, stats.max
        );
    }

    // FPGA projection on the BP-SF critical path (fully parallel trials).
    let fpga_stats = fpga.run_stats_ms(&sf);
    let worst_critical = sf
        .records
        .iter()
        .map(|r| r.critical_iterations)
        .max()
        .unwrap_or(0);
    println!("\nFPGA/ASIC projection @ 20 ns per BP iteration (fully parallel trials):");
    println!(
        "  avg {:.3} µs, worst case {} iterations → {:.3} µs",
        fpga_stats.mean * 1e3,
        worst_critical,
        fpga.time_us(worst_critical)
    );
    println!("  (paper bound: 200 iterations → 4 µs, fast enough for real-time decoding)");

    paper_reference(&[
        "BP-SF (GPU_Est): avg 5.47 ms but max 73.74 ms (serial trial replay)",
        "BP1000-OSD10 (GPU): avg 7.37 ms, max 39.76 ms",
        "shape to verify: serial-trial BP-SF wins on average but loses on the",
        "tail; batching the trials (our 'GPU batched' row) removes that tail",
    ]);
}
