//! Cluster bench: what does the wire cost?
//!
//! The same synchronous decode load (gross code, min-sum BP, 20
//! iterations) is driven twice per client count — once through the UDS
//! front-end with one `qldpc-client` connection per client, and once
//! straight into the in-process service with one `service.client()`
//! per client. Both drivers are strictly request-response (one decode
//! outstanding per client), so the ratio between them is the per-shot
//! cost of framing + socket hops, not a pipelining artifact. Results
//! for 1/2/4 concurrent clients land in `BENCH_cluster.json` at the
//! repo root.

use criterion::{criterion_group, criterion_main, Criterion};
use qldpc_bp::{BpConfig, MinSumDecoder};
use qldpc_client::Connection;
use qldpc_decoder_api::DecoderFactory;
use qldpc_gf2::BitVec;
use qldpc_server::{DecodeService, FrontendConfig, NetFrontend, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
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

/// Random gross-code syndromes from i.i.d. errors, one stream per client.
fn client_syndromes(clients: usize, per_client: usize) -> Vec<Vec<BitVec>> {
    let code = qldpc_codes::bb::gross_code();
    let hz = code.hz();
    let n = hz.cols();
    (0..clients)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(400 + c as u64);
            (0..per_client)
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

fn start_service() -> Arc<DecodeService> {
    let code = qldpc_codes::bb::gross_code();
    let hz = code.hz();
    let priors = vec![0.03; hz.cols()];
    let mut builder = DecodeService::builder();
    let config = ServiceConfig {
        shards: 1,
        max_wait: Duration::from_micros(500),
        ..ServiceConfig::default()
    };
    builder.register_code_with("gross-z", hz, &priors, bp_factory(), config);
    Arc::new(builder.start())
}

/// Synchronous decode of every stream over the wire, one connection
/// per stream; returns the wall time to answer all of them.
fn run_wire(uds: &str, syndromes: &[Vec<BitVec>]) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (i, stream) in syndromes.iter().enumerate() {
            let uds = uds.to_string();
            scope.spawn(move || {
                let mut conn = Connection::connect(&uds, &format!("bench-{i}")).expect("connect");
                conn.set_reply_timeout(Some(Duration::from_secs(120)))
                    .expect("reply timeout");
                let code = conn.lookup_code("gross-z").expect("lookup");
                for syndrome in stream {
                    let reply = conn.decode(code.id, syndrome).expect("decode");
                    assert!(reply.result.is_ok());
                }
            });
        }
    });
    start.elapsed()
}

/// The same synchronous load straight into the service — the no-wire
/// baseline the overhead ratio divides by.
fn run_in_process(service: &DecodeService, syndromes: &[Vec<BitVec>]) -> Duration {
    let code_id = service.lookup_code("gross-z").expect("registered");
    let start = Instant::now();
    std::thread::scope(|scope| {
        for stream in syndromes {
            let mut client = service.client();
            scope.spawn(move || {
                for syndrome in stream {
                    let reply = loop {
                        match client.submit(code_id, syndrome.clone()) {
                            Ok(handle) => break handle.wait(),
                            Err(qldpc_server::SubmitError::Overloaded) => std::thread::yield_now(),
                            Err(e) => panic!("submit failed: {e}"),
                        }
                    };
                    assert!(reply.result.is_ok());
                }
            });
        }
    });
    start.elapsed()
}

struct Point {
    clients: usize,
    requests: usize,
    wire_wall: Duration,
    local_wall: Duration,
}

impl Point {
    fn wire_throughput(&self) -> f64 {
        self.requests as f64 / self.wire_wall.as_secs_f64()
    }

    fn local_throughput(&self) -> f64 {
        self.requests as f64 / self.local_wall.as_secs_f64()
    }

    fn overhead_ratio(&self) -> f64 {
        self.wire_wall.as_secs_f64() / self.local_wall.as_secs_f64()
    }
}

fn bench_cluster(_c: &mut Criterion) {
    // Smoke pass under `cargo test --benches` / CI: tiny load, no
    // artifact (see bp_precision.rs for the convention).
    let smoke = !std::env::args().any(|a| a == "--bench");
    let per_client = if smoke { 8 } else { 500 };

    let service = start_service();
    let uds = std::env::temp_dir().join(format!("qldpc-bench-cluster-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&uds);
    let mut frontend =
        NetFrontend::serve_uds(Arc::clone(&service), &uds, FrontendConfig::default())
            .expect("bind UDS front-end");
    let uds_str = uds.to_str().expect("utf-8 temp path");

    let mut points = Vec::new();
    for clients in [1usize, 2, 4] {
        let syndromes = client_syndromes(clients, per_client);
        let wire_wall = run_wire(uds_str, &syndromes);
        let local_wall = run_in_process(&service, &syndromes);
        let point = Point {
            clients,
            requests: clients * per_client,
            wire_wall,
            local_wall,
        };
        println!(
            "cluster/{clients}-client: wire={:?} ({:.0}/s)  in-process={:?} ({:.0}/s)  \
             overhead={:.2}x",
            point.wire_wall,
            point.wire_throughput(),
            point.local_wall,
            point.local_throughput(),
            point.overhead_ratio(),
        );
        points.push(point);
    }

    frontend.shutdown();
    let metrics = Arc::into_inner(service)
        .expect("front-end released the service")
        .shutdown();
    assert!(metrics.iter().all(|m| m.is_drained()));

    if smoke {
        println!("cluster: smoke mode, not writing BENCH_cluster.json");
        return;
    }
    let series: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"clients\": {}, \"requests\": {}, \
                 \"wire_wall_ms\": {:.3}, \"wire_throughput_per_s\": {:.1}, \
                 \"in_process_wall_ms\": {:.3}, \"in_process_throughput_per_s\": {:.1}, \
                 \"wire_overhead_ratio\": {:.3}}}",
                p.clients,
                p.requests,
                p.wire_wall.as_secs_f64() * 1e3,
                p.wire_throughput(),
                p.local_wall.as_secs_f64() * 1e3,
                p.local_throughput(),
                p.overhead_ratio(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"cluster\",\n  \"code\": \"[[144,12,12]] gross\",\n  \
         \"bp_iters\": {BP_ITERS},\n  \"error_rate\": {ERROR_RATE},\n  \
         \"transport\": \"uds\",\n  \"per_client_requests\": {per_client},\n  \
         \"series\": [\n{}\n  ]\n}}\n",
        series.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("cluster: wrote {path}"),
        Err(e) => eprintln!("cluster: could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
