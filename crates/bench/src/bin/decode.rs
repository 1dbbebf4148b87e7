//! Generic decoding CLI: pick a code, noise model, decoder and shot
//! budget; get a LER + latency report. The Swiss-army knife for
//! exploring the stack beyond the fixed paper figures.
//!
//! ```text
//! cargo run --release -p qldpc-bench --bin decode -- \
//!     --code gross --model circuit --p 3e-3 --rounds 12 \
//!     --decoder bpsf --shots 500 --threads 2
//! ```
//!
//! Codes: `bb72`, `gross`, `bb288`, `coprime126`, `coprime154`, `gb254`,
//! `shyps225`. Models: `capacity`, `circuit`. Decoders: `bp`, `layered-bp`,
//! `bposd`, `bpsf`, `bpsf-parallel`. The plain-BP decoders also take
//! `--precision f32` for the half-width message fast path.

use bpsf_core::BpSfConfig;
use qldpc_bench::build_dem;
use qldpc_codes::CssCode;
use qldpc_sim::{
    decoders, decoders::Precision, run_circuit_level, run_code_capacity, BatchConfig,
    CircuitLevelConfig, CodeCapacityConfig, DecoderFactory,
};

struct Cli {
    code: String,
    model: String,
    decoder: String,
    precision: Precision,
    p: f64,
    rounds: Option<usize>,
    shots: usize,
    threads: usize,
    seed: u64,
    bp_iters: usize,
    osd_order: usize,
    candidates: usize,
    w_max: usize,
    n_s: usize,
}

impl Cli {
    fn parse() -> Self {
        let mut cli = Self {
            code: "gross".into(),
            model: "capacity".into(),
            decoder: "bpsf".into(),
            precision: Precision::F64,
            p: 0.01,
            rounds: None,
            shots: 500,
            threads: 1,
            seed: 2026,
            bp_iters: 100,
            osd_order: 10,
            candidates: 50,
            w_max: 6,
            n_s: 5,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            let mut val = || it.next().unwrap_or_else(|| panic!("{a} needs a value"));
            match a.as_str() {
                "--code" => cli.code = val(),
                "--model" => cli.model = val(),
                "--decoder" => cli.decoder = val(),
                "--precision" => {
                    cli.precision = match val().as_str() {
                        "f64" => Precision::F64,
                        "f32" => Precision::F32,
                        other => panic!("unknown precision {other:?} (f64|f32)"),
                    }
                }
                "--p" => cli.p = val().parse().expect("bad --p"),
                "--rounds" => cli.rounds = Some(val().parse().expect("bad --rounds")),
                "--shots" => cli.shots = val().parse().expect("bad --shots"),
                "--threads" => cli.threads = val().parse().expect("bad --threads"),
                "--seed" => cli.seed = val().parse().expect("bad --seed"),
                "--bp-iters" => cli.bp_iters = val().parse().expect("bad --bp-iters"),
                "--osd-order" => cli.osd_order = val().parse().expect("bad --osd-order"),
                "--candidates" => cli.candidates = val().parse().expect("bad --candidates"),
                "--w-max" => cli.w_max = val().parse().expect("bad --w-max"),
                "--ns" => cli.n_s = val().parse().expect("bad --ns"),
                "--help" | "-h" => {
                    println!(
                        "usage: decode [--code NAME] [--model capacity|circuit] \
                         [--decoder bp|layered-bp|bposd|bpsf|bpsf-parallel] \
                         [--precision f64|f32 (bp/layered-bp only)] [--p F] \
                         [--rounds N] [--shots N] [--threads N] [--seed N] \
                         [--bp-iters N] [--osd-order N] [--candidates N] [--w-max N] [--ns N]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown argument {other:?} (try --help)"),
            }
        }
        cli
    }

    fn resolve_code(&self) -> CssCode {
        let slug = match self.code.as_str() {
            "bb144" => "gross",
            slug => slug,
        };
        qldpc_codes::paper_code(slug).unwrap_or_else(|| panic!("unknown code {:?}", self.code))
    }

    fn resolve_decoder(&self) -> DecoderFactory {
        // Only plain BP has a reduced-precision implementation; reject
        // the flag elsewhere rather than silently decoding at f64.
        if self.precision != Precision::F64 && !matches!(self.decoder.as_str(), "bp" | "layered-bp")
        {
            panic!("--precision f32 is only supported by bp/layered-bp");
        }
        let sf_config = if self.model == "capacity" {
            BpSfConfig::code_capacity(self.bp_iters, self.candidates, self.w_max)
        } else {
            BpSfConfig::circuit_level(self.bp_iters, self.candidates, self.w_max, self.n_s)
        };
        match self.decoder.as_str() {
            "bp" => decoders::plain_bp_at(self.bp_iters, self.precision),
            "layered-bp" => decoders::layered_bp_at(self.bp_iters, self.precision),
            "bposd" => decoders::bp_osd(self.bp_iters, self.osd_order),
            "bpsf" => decoders::bp_sf(sf_config),
            "bpsf-parallel" => decoders::parallel_bp_sf(sf_config, self.threads.max(2)),
            other => panic!("unknown decoder {other:?}"),
        }
    }
}

fn main() {
    let cli = Cli::parse();
    let code = cli.resolve_code();
    let factory = cli.resolve_decoder();
    // One decode call per shot, so the reported wall clock is per-shot
    // latency. `--threads` fans the shot stream out — except under
    // `bpsf-parallel`, where it sizes the decoder's trial pool and the
    // shots stay one stream (T streams of T-worker pools is T² threads).
    let streams = if cli.decoder == "bpsf-parallel" {
        1
    } else {
        cli.threads
    };
    let batch = BatchConfig {
        threads: streams,
        batch_size: 1,
    };
    println!(
        "decoding {} under the {} model at p = {} ({} shots, {} thread(s))",
        code, cli.model, cli.p, cli.shots, cli.threads
    );

    let report = match cli.model.as_str() {
        "capacity" => run_code_capacity(
            &code,
            &CodeCapacityConfig {
                p: cli.p,
                shots: cli.shots,
                seed: cli.seed,
            },
            &factory,
            &batch,
        ),
        "circuit" => {
            let rounds = cli.rounds.unwrap_or_else(|| code.d().unwrap_or(4));
            let dem = build_dem(&code, rounds, cli.p);
            println!(
                "DEM: {} detectors × {} mechanisms ({} rounds)",
                dem.num_detectors(),
                dem.num_mechanisms(),
                rounds
            );
            let mut r = run_circuit_level(
                &dem,
                &format!("{} r={rounds} p={}", code.name(), cli.p),
                &CircuitLevelConfig {
                    shots: cli.shots,
                    seed: cli.seed,
                },
                &factory,
                &batch,
            );
            println!("LER/round = {:.3e}", r.ler_per_round(rounds));
            r.workload.push_str(" (circuit)");
            r
        }
        other => panic!("unknown model {other:?}"),
    };

    println!("{report}");
    let iters = report.serial_iteration_stats();
    println!("serial BP iterations: {}", iters.summary());
    println!("wall clock [ms]:      {}", report.wall_stats_ms().summary());
}
