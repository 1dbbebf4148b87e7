//! Service soak bench: does dynamic micro-batching beat
//! one-decode-per-request at equal thread count?
//!
//! A fixed pool of producer threads floods the decoding service with
//! pre-generated gross-code syndromes, twice with identical drivers:
//! once with coalescing enabled (`max_batch` = the kernel lane width)
//! and once disabled (`max_batch = 1`, every request dispatched alone).
//! Wall time to answer *all* requests, the dispatched-batch-size
//! histogram, and p50/p95/p99 latency land in `BENCH_service.json` at
//! the repo root.
//!
//! On this container's single core the batched run still wins — the
//! shot-interleaved kernel amortizes the Tanner-graph walk across lanes
//! (`BENCH_bp_batch.json` measures that effect in isolation) — but the
//! margin grows with cores, where producers and shards actually overlap.

use criterion::{criterion_group, criterion_main, Criterion};
use qldpc_bp::{BpConfig, MinSumDecoder, DEFAULT_MAX_LANES};
use qldpc_decoder_api::DecoderFactory;
use qldpc_gf2::BitVec;
use qldpc_server::{DecodeService, ServiceConfig, SubmitError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const BP_ITERS: usize = 20;
const ERROR_RATE: f64 = 0.05;

fn bp_factory() -> DecoderFactory {
    Box::new(move |h, priors| {
        let config = BpConfig {
            max_iters: BP_ITERS,
            ..BpConfig::default()
        };
        Box::new(MinSumDecoder::new(h, priors, config))
    })
}

/// Random gross-code syndromes from i.i.d. errors, one set per producer.
fn producer_syndromes(producers: usize, per_producer: usize) -> Vec<Vec<BitVec>> {
    let code = qldpc_codes::bb::gross_code();
    let hz = code.hz();
    let n = hz.cols();
    (0..producers)
        .map(|p| {
            let mut rng = StdRng::seed_from_u64(90 + p as u64);
            (0..per_producer)
                .map(|_| {
                    let mut e = BitVec::zeros(n);
                    for i in 0..n {
                        if rng.random_bool(ERROR_RATE) {
                            e.set(i, true);
                        }
                    }
                    hz.mul_vec(&e)
                })
                .collect()
        })
        .collect()
}

struct RunResult {
    wall: Duration,
    throughput_per_s: f64,
    mean_batch_size: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    batches: u64,
    stolen: u64,
}

/// One full soak: spawn the service with `max_batch`, flood it from
/// `producers` threads (retrying on backpressure), wait for every
/// response, and return wall time + final metrics.
fn run_soak(max_batch: usize, shards: usize, syndromes: &[Vec<BitVec>]) -> RunResult {
    let code = qldpc_codes::bb::gross_code();
    let hz = code.hz();
    let priors = vec![0.03; hz.cols()];
    let mut builder = DecodeService::builder();
    let config = ServiceConfig {
        shards,
        max_batch,
        max_wait: Duration::from_micros(500),
        queue_capacity: 4096,
        ..ServiceConfig::default()
    };
    let code_id = builder.register_code_with("gross-z", hz, &priors, bp_factory(), config);
    let service = builder.start();

    let total: usize = syndromes.iter().map(Vec::len).sum();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for stream in syndromes {
            let mut client = service.client();
            scope.spawn(move || {
                let mut handles = Vec::with_capacity(stream.len());
                for syndrome in stream {
                    loop {
                        match client.submit(code_id, syndrome.clone()) {
                            Ok(handle) => break handles.push(handle),
                            Err(SubmitError::Overloaded) => std::thread::yield_now(),
                            Err(e) => panic!("submit failed: {e}"),
                        }
                    }
                }
                for handle in handles {
                    assert!(handle.wait().result.is_ok());
                }
            });
        }
    });
    let wall = start.elapsed();
    let metrics = service.shutdown().remove(0);
    assert_eq!(metrics.completed as usize, total);
    assert!(metrics.is_drained());
    RunResult {
        wall,
        throughput_per_s: total as f64 / wall.as_secs_f64(),
        mean_batch_size: metrics.mean_batch_size,
        p50_ms: metrics.latency_ms.median,
        p95_ms: metrics.latency_ms.p95,
        p99_ms: metrics.latency_ms.p99,
        batches: metrics.batches,
        stolen: metrics.stolen,
    }
}

fn bench_service(_c: &mut Criterion) {
    // Smoke pass under `cargo test --benches` / `cargo check`: tiny load,
    // no artifact (see bp_precision.rs for the convention).
    let smoke = !std::env::args().any(|a| a == "--bench");
    let (producers, per_producer) = if smoke { (2, 8) } else { (4, 1000) };
    let shards = 1; // isolate the coalescing effect; raise on multicore
    let syndromes = producer_syndromes(producers, per_producer);

    let batched = run_soak(DEFAULT_MAX_LANES, shards, &syndromes);
    let unbatched = run_soak(1, shards, &syndromes);
    let speedup = unbatched.wall.as_secs_f64() / batched.wall.as_secs_f64();
    for (name, r) in [("batched", &batched), ("unbatched", &unbatched)] {
        println!(
            "service_soak/{name}: wall={:?} throughput={:.0}/s mean_batch={:.2} \
             p50={:.3}ms p95={:.3}ms p99={:.3}ms batches={} stolen={}",
            r.wall,
            r.throughput_per_s,
            r.mean_batch_size,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            r.batches,
            r.stolen,
        );
    }
    println!("service_soak: batched is {speedup:.2}x the unbatched throughput");

    if smoke {
        println!("service_soak: smoke mode, not writing BENCH_service.json");
        return;
    }
    let series: Vec<String> = [(DEFAULT_MAX_LANES, &batched), (1usize, &unbatched)]
        .iter()
        .map(|(max_batch, r)| {
            format!(
                "    {{\"max_batch\": {max_batch}, \"wall_ms\": {:.3}, \
             \"throughput_per_s\": {:.1}, \"mean_batch_size\": {:.3}, \
             \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \
             \"batches\": {}}}",
                r.wall.as_secs_f64() * 1e3,
                r.throughput_per_s,
                r.mean_batch_size,
                r.p50_ms,
                r.p95_ms,
                r.p99_ms,
                r.batches,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"service_soak\",\n  \"code\": \"[[144,12,12]] gross\",\n  \
         \"bp_iters\": {BP_ITERS},\n  \"error_rate\": {ERROR_RATE},\n  \
         \"producers\": {producers},\n  \"requests\": {},\n  \"shards\": {shards},\n  \
         \"speedup_batched_vs_unbatched\": {speedup:.3},\n  \"series\": [\n{}\n  ]\n}}\n",
        producers * per_producer,
        series.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("service_soak: wrote {path}"),
        Err(e) => eprintln!("service_soak: could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
