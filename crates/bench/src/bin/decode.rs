//! The one-cell anatomy tool: one campaign cell given on the command
//! line, run once at a fixed shot count with one decode call per shot,
//! and everything the run's `RunReport` knows printed — LER, iteration
//! and wall-clock statistics, text histograms, and the hardware latency
//! models replayed over the iteration records.
//!
//! ```text
//! cargo run --release -p qldpc-bench --bin decode -- \
//!     --code gross --noise circuit-level --p 3e-3 --rounds 12 \
//!     --decoder bp-sf:100:50:10:10 --shots 300
//! ```
//!
//! The flags speak the campaign spec's vocabulary and are parsed by its
//! parser: `--code`, `--noise`, `--rounds`, `--decoder`, `--precision`
//! take exactly the strings the spec keys `codes`, `noise`, `rounds`,
//! `decoders`, `precisions` take (EXPERIMENTS.md, "Campaigns"). The
//! paper's latency figures (2, 12–16, Table I) are invocations of this
//! binary; EXPERIMENTS.md ("Paper figures") lists them with the line of
//! the output to read.

use bpsf_core::stats::log_histogram;
use qldpc_bench::{build_dem, exit_with_usage};
use qldpc_campaign::{CampaignSpec, Cell, NoiseSpec};
use qldpc_sim::{
    run_circuit_level, run_code_capacity, BatchConfig, CircuitLevelConfig, CodeCapacityConfig,
    HardwareLatencyModel, LatencyStats,
};
use std::fmt::Write as _;

const USAGE: &str = "\
usage: decode --code SLUG --noise code-capacity|circuit-level --p F --decoder SPEC
              [--rounds N|d] [--precision f64|f32]
              [--shots N] [--threads N] [--seed N]
  --code       bb72 | gross | bb288 | coprime126 | coprime154 | gb254 | shyps225
  --decoder    bp:ITERS | bp-osd:ITERS:ORDER | bp-sf:ITERS:CANDS:WMAX[:NS],
               each optionally prefixed layered-; a bp-sf token may end in
               ;KEY=VALUE options (quote it): select=min-weight,
               rank=flips|llr, pad=off, damp=A, rule=sum-product, mem=G,
               workers=P (its trials on P threads)
  --rounds     circuit-level only; default d, the code's distance
  --precision  f32 exists for bp / layered-bp only (default f64)
  --shots N    shots to decode (default 500), split over --threads streams
               (default 1); every decode call takes one syndrome, so wall
               clock is per-shot latency";

/// Each flag that is a campaign-spec key under another name.
const SPEC_FLAGS: [(&str, &str); 9] = [
    ("--code", "codes"),
    ("--noise", "noise"),
    ("--p", "p"),
    ("--decoder", "decoders"),
    ("--rounds", "rounds"),
    ("--precision", "precisions"),
    ("--shots", "max_shots"),
    ("--threads", "threads"),
    ("--seed", "seed"),
];

/// Turns the arguments into a one-cell campaign spec — one spec line per
/// flag — and lets the campaign parser validate it, so an error names the
/// flag whose line it points at. Returns the spec and its one cell.
fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<(CampaignSpec, Cell), String> {
    let mut text = String::from("name = decode\n");
    let mut flags: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if let Some((_, key)) = SPEC_FLAGS.iter().find(|(f, _)| *f == flag) {
            // One value, one spec line: list separators and comment
            // markers would make it a grid or hide the rest.
            if value.contains([',', '#', '\n']) {
                return Err(format!("{flag} takes a single value, got '{value}'"));
            }
            writeln!(text, "{key} = {value}").expect("writing to a String");
            flags.push(flag);
        } else {
            return Err(format!("unknown argument '{flag}'"));
        }
    }
    for required in ["--code", "--noise", "--p", "--decoder"] {
        if !flags.iter().any(|f| f == required) {
            return Err(format!("{required} is required"));
        }
    }
    for (flag, default) in [("--shots", "max_shots = 500"), ("--threads", "threads = 1")] {
        if !flags.iter().any(|f| f == flag) {
            writeln!(text, "{default}").expect("writing to a String");
        }
    }
    // Line 1 is the name; line k + 1 is the k-th flag's.
    let spec = CampaignSpec::parse(&text).map_err(|e| match flags.get(e.line.wrapping_sub(2)) {
        Some(flag) => format!("{flag}: {}", e.message),
        None => e.message,
    })?;
    let (decoder, precision) = (spec.decoders[0], spec.precisions[0]);
    if !decoder.supports(precision) {
        return Err(format!(
            "--precision {precision}: {} has no {precision} variant",
            decoder.spec_syntax()
        ));
    }
    if spec.threads == 0 {
        return Err("--threads needs a positive count".into());
    }
    let cell = spec.cells().map_err(|e| e.message)?.remove(0);
    Ok((spec, cell))
}

fn main() {
    let (spec, cell) = parse_cli(std::env::args().skip(1))
        .unwrap_or_else(|error| exit_with_usage("decode", &error, USAGE));
    let code = qldpc_codes::paper_code(&cell.code_slug).expect("the spec parser checked the slug");
    let factory = cell.decoder.factory(cell.precision);
    let (shots, seed) = (spec.max_shots, spec.seed);
    let batch = BatchConfig {
        threads: spec.threads,
        batch_size: 1,
    };
    println!(
        "decode: {} — {shots} shots, seed {seed}, {} thread(s)",
        cell.id(),
        batch.threads,
    );

    let report = match spec.noise {
        NoiseSpec::CodeCapacity => run_code_capacity(
            &code,
            &CodeCapacityConfig {
                p: cell.p,
                shots,
                seed,
            },
            &factory,
            &batch,
        ),
        NoiseSpec::CircuitLevel { .. } => {
            let dem = build_dem(&code, cell.rounds, cell.p);
            println!(
                "DEM: {} detectors × {} mechanisms ({} rounds)",
                dem.num_detectors(),
                dem.num_mechanisms(),
                cell.rounds
            );
            run_circuit_level(
                &dem,
                &format!("{} r={} p={}", code.name(), cell.rounds, cell.p),
                &CircuitLevelConfig { shots, seed },
                &factory,
                &batch,
            )
        }
    };

    println!("{report}");
    let ci = report.ler_ci(0.95);
    println!(
        "LER                  {:.3e}  ({} failures, {} unsolved; Wilson 95% [{:.3e}, {:.3e}])",
        report.ler(),
        report.failures,
        report.unsolved,
        ci.lo,
        ci.hi
    );
    if cell.rounds > 0 {
        println!(
            "LER/round            {:.3e}  ({} rounds)",
            report.ler_per_round(cell.rounds),
            cell.rounds
        );
    }
    println!("post-processing rate {:.4}", report.postprocessing_rate());

    let serial = report.serial_iteration_stats();
    let wall = report.wall_stats_ms();
    println!("\nserial BP iterations:   {}", serial.summary());
    println!(
        "critical BP iterations: {}",
        report.critical_iteration_stats().summary()
    );
    println!("wall clock [ms], all shots:            {}", wall.summary());
    println!(
        "wall clock [ms], post-processed shots: {}",
        report.postprocessed_wall_stats_ms().summary()
    );

    let records = &report.records;
    let wall_ms: Vec<f64> = records.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
    let iterations: Vec<f64> = records.iter().map(|r| r.serial_iterations as f64).collect();
    println!(
        "\nwall clock [ms], log-histogram:\n{}",
        log_histogram(&wall_ms, 12)
    );
    println!(
        "serial BP iterations, log-histogram:\n{}",
        log_histogram(&iterations, 12)
    );

    // The paper's GPU numbers are themselves a model over iteration
    // counts (§VI); replay this run's records through the same profiles.
    println!(
        "hardware latency models over this run's iteration records:\n{:<34} {:>10} {:>10} {:>10} {:>10}",
        "model", "mean", "median", "p99", "max"
    );
    let fpga = HardwareLatencyModel::fpga();
    for (name, model, per_ms) in [
        (
            "GPU_Est, serial trials [ms]",
            HardwareLatencyModel::gpu_estimate(),
            1.0,
        ),
        (
            "GPU, batched trials [ms]",
            HardwareLatencyModel::gpu_batched(),
            1.0,
        ),
        ("FPGA/ASIC, 20 ns/iteration [µs]", fpga, 1e3),
    ] {
        let LatencyStats {
            mean,
            median,
            p99,
            max,
            ..
        } = model.run_stats_ms(&report);
        println!(
            "{name:<34} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            mean * per_ms,
            median * per_ms,
            p99 * per_ms,
            max * per_ms
        );
    }
    let worst = records
        .iter()
        .map(|r| r.critical_iterations)
        .max()
        .unwrap_or(0);
    println!(
        "worst critical path: {worst} iterations → {:.3} µs on the FPGA profile (paper bound: 200 → 4 µs)",
        fpga.time_us(worst)
    );
}
