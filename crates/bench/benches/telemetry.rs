//! Telemetry overhead bench: is the instrumentation cheap enough to
//! leave on?
//!
//! The service records, per answered request, two `Instant` reads, one
//! latency-histogram sample, four stage-histogram samples (queue-wait,
//! coalesce-wait share, kernel, post-process/fulfill), and the
//! convergence counter bumps from [`DecodeTelemetry`]. This bench runs
//! the same gross-code min-sum decode loop twice — bare, and with
//! exactly that per-request telemetry suite — and reports the relative
//! overhead, plus the raw cost of a single
//! [`StreamingHistogram::record`] call. Results land in
//! `BENCH_telemetry.json` at the repo root; the headline number must
//! stay below 2% for the observability layer to stay always-on.

use qldpc_bp::{BpConfig, MinSumDecoder};
use qldpc_decoder_api::SyndromeDecoder;
use qldpc_gf2::BitVec;
use qldpc_server::{Stage, StageSet, StreamingHistogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const BP_ITERS: usize = 20;
const ERROR_RATE: f64 = 0.05;

/// Random gross-code syndromes from i.i.d. errors.
fn gross_syndromes(shots: usize) -> (Vec<BitVec>, MinSumDecoder) {
    let code = qldpc_codes::bb::gross_code();
    let hz = code.hz();
    let n = hz.cols();
    let mut rng = StdRng::seed_from_u64(7);
    let syndromes = (0..shots)
        .map(|_| {
            let mut e = BitVec::zeros(n);
            for i in 0..n {
                if rng.random_bool(ERROR_RATE) {
                    e.set(i, true);
                }
            }
            hz.mul_vec(&e)
        })
        .collect();
    let config = BpConfig {
        max_iters: BP_ITERS,
        ..BpConfig::default()
    };
    (syndromes, MinSumDecoder::new(hz, &vec![0.03; n], config))
}

/// Everything the service touches per answered request.
struct PerRequestTelemetry {
    latency: StreamingHistogram,
    stages: StageSet,
    decodes: AtomicU64,
    bp_iterations: AtomicU64,
    bp_converged: AtomicU64,
}

impl PerRequestTelemetry {
    fn new() -> Self {
        Self {
            latency: StreamingHistogram::new(),
            stages: StageSet::new(),
            decodes: AtomicU64::new(0),
            bp_iterations: AtomicU64::new(0),
            bp_converged: AtomicU64::new(0),
        }
    }
}

/// Best-of-`passes` wall time for the whole decode loop, in nanoseconds.
/// With telemetry, each decode pays the full per-request suite the
/// service performs: timestamping, one latency sample, four stage
/// samples, and the convergence counter bumps.
fn run_loop(
    decoder: &mut MinSumDecoder,
    syndromes: &[BitVec],
    passes: usize,
    telemetry: Option<&PerRequestTelemetry>,
) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..passes {
        let start = Instant::now();
        for s in syndromes {
            match telemetry {
                None => {
                    std::hint::black_box(decoder.decode_syndrome(s));
                }
                Some(t) => {
                    let submitted = Instant::now();
                    let outcome = std::hint::black_box(decoder.decode_syndrome(s));
                    let elapsed = submitted.elapsed();
                    let secs = elapsed.as_secs_f64();
                    t.latency.record(secs);
                    t.stages.record(Stage::QueueWait, elapsed / 4);
                    t.stages.record(Stage::Kernel, elapsed);
                    t.stages.record(Stage::PostProcess, elapsed / 8);
                    t.stages.record(Stage::Fulfill, elapsed);
                    t.decodes.fetch_add(1, Ordering::Relaxed);
                    t.bp_iterations
                        .fetch_add(outcome.telemetry.bp_iterations, Ordering::Relaxed);
                    t.bp_converged
                        .fetch_add(outcome.telemetry.bp_converged as u64, Ordering::Relaxed);
                }
            }
        }
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

/// Cost of one `StreamingHistogram::record`, in nanoseconds, from a
/// tight loop over pre-generated values.
fn record_cost_ns(samples: usize) -> f64 {
    let hist = StreamingHistogram::new();
    let mut rng = StdRng::seed_from_u64(11);
    let values: Vec<f64> = (0..samples).map(|_| rng.random_range(1e-6..1e-2)).collect();
    let start = Instant::now();
    for v in &values {
        std::hint::black_box(hist.record(*v));
    }
    let total = start.elapsed().as_nanos() as f64;
    assert_eq!(hist.snapshot().count, samples as u64);
    total / samples as f64
}

fn main() {
    // Smoke pass under `cargo test --benches` / `cargo check`: tiny load,
    // no artifact (see bp_precision.rs for the convention).
    let smoke = !std::env::args().any(|a| a == "--bench");
    let (shots, passes, record_samples) = if smoke {
        (16, 2, 1000)
    } else {
        (500, 7, 2_000_000)
    };
    let (syndromes, mut decoder) = gross_syndromes(shots);

    // Interleave warmup, then measure bare and instrumented loops.
    run_loop(&mut decoder, &syndromes, 1, None);
    let telemetry = PerRequestTelemetry::new();
    let bare_ns = run_loop(&mut decoder, &syndromes, passes, None);
    let instrumented_ns = run_loop(&mut decoder, &syndromes, passes, Some(&telemetry));
    let overhead_pct = (instrumented_ns as f64 - bare_ns as f64) / bare_ns as f64 * 100.0;
    let per_record_ns = record_cost_ns(record_samples);

    println!(
        "telemetry_overhead: bare={:.3}us/decode instrumented={:.3}us/decode \
         overhead={overhead_pct:.3}% hist_record={per_record_ns:.1}ns",
        bare_ns as f64 / shots as f64 / 1e3,
        instrumented_ns as f64 / shots as f64 / 1e3,
    );

    if smoke {
        println!("telemetry_overhead: smoke mode, not writing BENCH_telemetry.json");
        return;
    }
    assert!(
        overhead_pct < 2.0,
        "telemetry overhead {overhead_pct:.3}% breaches the 2% budget"
    );
    let json = format!(
        "{{\n  \"bench\": \"telemetry_overhead\",\n  \"code\": \"[[144,12,12]] gross\",\n  \
         \"bp_iters\": {BP_ITERS},\n  \"error_rate\": {ERROR_RATE},\n  \
         \"decodes_per_pass\": {shots},\n  \"passes\": {passes},\n  \
         \"bare_ns_per_decode\": {:.1},\n  \"instrumented_ns_per_decode\": {:.1},\n  \
         \"overhead_pct\": {overhead_pct:.4},\n  \
         \"histogram_record_ns\": {per_record_ns:.2},\n  \"budget_pct\": 2.0\n}}\n",
        bare_ns as f64 / shots as f64,
        instrumented_ns as f64 / shots as f64,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("telemetry_overhead: wrote {path}"),
        Err(e) => eprintln!("telemetry_overhead: could not write {path}: {e}"),
    }
}
