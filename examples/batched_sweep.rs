//! Thread-scaling demo: one runner, four shapes, on the `[[72,12,6]]`
//! BB code.
//!
//! Runs the same fixed-seed code-capacity workload through
//! `run_code_capacity` at `BatchConfig::SEQUENTIAL` (one stream, one
//! syndrome per decode call — the shape latency figures use) and at
//! batch width 32 on 1, 2 and 4 threads, printing wall-clock time and
//! speedup. `wall_ns` is amortised above width 1, so the wide shapes are
//! for LER throughput only. With ≥ 4 physical cores the 4-thread run
//! shows a ≥ 2× speedup (the run is embarrassingly parallel; scaling is
//! limited only by core count — on a 1-core container all shapes tie).
//!
//! ```sh
//! cargo run --release --example batched_sweep
//! ```

use bpsf::prelude::*;
use std::time::Instant;

fn main() {
    let code = bb::bb72();
    let config = CodeCapacityConfig {
        p: 0.05,
        shots: 20_000,
        seed: 7,
    };
    let factory = decoders::bp_osd(60, 10);

    println!(
        "batched_sweep: {} shots of bb72 code-capacity p={} under BP60-OSD10",
        config.shots, config.p
    );
    println!(
        "available cores: {}",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!();
    println!(
        "{:<28} {:>9} {:>10} {:>8}",
        "shape", "wall [s]", "LER", "speedup"
    );

    let t0 = Instant::now();
    let seq = run_code_capacity(&code, &config, &factory, &BatchConfig::SEQUENTIAL);
    let seq_s = t0.elapsed().as_secs_f64();
    println!(
        "{:<28} {:>9.3} {:>10.3e} {:>7.2}x",
        "SEQUENTIAL [1T,batch=1]",
        seq_s,
        seq.ler(),
        1.0
    );

    for threads in [1usize, 2, 4] {
        let batch = BatchConfig {
            threads,
            batch_size: 32,
        };
        let t0 = Instant::now();
        let report = run_code_capacity(&code, &config, &factory, &batch);
        let wall = t0.elapsed().as_secs_f64();
        println!(
            "{:<28} {:>9.3} {:>10.3e} {:>7.2}x",
            format!("[{threads}T,batch=32]"),
            wall,
            report.ler(),
            seq_s / wall
        );
        assert_eq!(report.shots, seq.shots);
    }

    println!();
    println!(
        "note: thread t decodes with seed {}+t; the [1T,batch=32] run \
         reproduces the SEQUENTIAL records exactly (wall_ns aside).",
        config.seed
    );
}
