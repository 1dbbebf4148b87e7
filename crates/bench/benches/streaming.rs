//! Streaming decode bench: sustained round throughput of the stateful
//! session path (round-by-round submission, sliding-window BP, rolling
//! commits) through the sharded decode service.
//!
//! For each (code, window) configuration the bench opens many concurrent
//! sessions, feeds every measurement round through `StreamSession`, and
//! records the sustained rounds/sec the service absorbs plus the
//! streamed logical error rate. Results land in `BENCH_streaming.json`
//! at the repo root; the single-window row doubles as an offline
//! baseline (one window covering the whole experiment).

use qldpc_circuit::{window_plan, MemoryExperiment, NoiseModel};
use qldpc_codes::CssCode;
use qldpc_sim::{decoders, run_streaming, StreamingConfig, StreamingReport};
use std::sync::Arc;

const BP_ITERS: usize = 30;
const ERROR_RATE: f64 = 2e-3;

struct Case {
    code_name: &'static str,
    code: CssCode,
    rounds: usize,
    window: usize,
    commit: usize,
}

fn run_case(case: &Case, shots: usize) -> StreamingReport {
    let exp = MemoryExperiment::memory_z(
        &case.code,
        case.rounds,
        &NoiseModel::uniform_depolarizing(ERROR_RATE),
    );
    let dem = exp.detector_error_model();
    let k = dem.num_detectors() / (case.rounds + 1);
    let plan = Arc::new(window_plan(&dem, k, case.window, case.commit));
    let config = StreamingConfig {
        shots,
        seed: 41,
        threads: 2,
        shards: 2,
    };
    run_streaming(
        &dem,
        plan,
        case.code_name,
        &config,
        decoders::window_bp(BP_ITERS),
    )
}

fn main() {
    // Smoke pass under `cargo test --benches`: tiny load, no artifact
    // (same convention as bp_precision.rs).
    let smoke = !std::env::args().any(|a| a == "--bench");
    let shots = if smoke { 8 } else { 200 };

    let cases = [
        Case {
            code_name: "bb72 r3 W4C4 (offline-equivalent)",
            code: qldpc_codes::bb::bb72(),
            rounds: 3,
            window: 4,
            commit: 4,
        },
        Case {
            code_name: "bb72 r3 W2C1",
            code: qldpc_codes::bb::bb72(),
            rounds: 3,
            window: 2,
            commit: 1,
        },
        Case {
            code_name: "gross r4 W3C1",
            code: qldpc_codes::bb::gross_code(),
            rounds: 4,
            window: 3,
            commit: 1,
        },
    ];

    let reports: Vec<(&Case, StreamingReport)> = cases
        .iter()
        .map(|case| (case, run_case(case, shots)))
        .collect();
    for (_, report) in &reports {
        println!("streaming/{}", report.summary());
    }

    if smoke {
        println!("streaming: smoke mode, not writing BENCH_streaming.json");
        return;
    }
    let series: Vec<String> = reports
        .iter()
        .map(|(case, r)| {
            format!(
                "    {{\"code\": \"{}\", \"rounds\": {}, \"window\": {}, \
                 \"commit\": {}, \"shots\": {}, \"rounds_per_sec\": {:.1}, \
                 \"ler\": {:.4e}, \"unsolved\": {}, \"wall_ms\": {:.3}}}",
                case.code_name,
                case.rounds,
                case.window,
                case.commit,
                r.shots,
                r.rounds_per_sec(),
                r.ler(),
                r.unsolved,
                r.wall.as_secs_f64() * 1e3,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"streaming\",\n  \"bp_iters\": {BP_ITERS},\n  \
         \"error_rate\": {ERROR_RATE},\n  \"threads\": 2,\n  \"shards\": 2,\n  \
         \"series\": [\n{}\n  ]\n}}\n",
        series.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_streaming.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("streaming: wrote {path}"),
        Err(e) => eprintln!("streaming: could not write {path}: {e}"),
    }
}
