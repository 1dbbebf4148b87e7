//! Real-time decoding: streaming syndromes through BP-SF at one and at
//! several trial workers, plus projected hardware latencies.
//!
//! Reproduces the paper's §VI workflow in miniature: syndromes arrive one
//! at a time (as they would from a syndrome-extraction pipeline); the
//! trial workers parallelize the speculative trials whenever the initial
//! BP attempt fails, compressing the latency tail. The iteration
//! records are then fed to the FPGA latency model (20 ns/iteration) to
//! reproduce the "≈4 µs worst case" projection.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example realtime_decoding [workers] [shots]
//! ```

use bpsf::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let shots: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(150);

    let code = coprime_bb::coprime154();
    let p = 0.04;
    println!("streaming {shots} syndromes of {code} at p = {p} through {workers} workers…");

    let hz = code.hz().clone();
    let n = hz.cols();
    let priors = vec![2.0 * p / 3.0; n];
    let config = BpSfConfig::code_capacity(100, 8, 2);

    let mut serial = BpSfDecoder::new(&hz, &priors, config);
    let mut parallel = BpSfDecoder::with_workers(&hz, &priors, config, workers);
    let mut rng = StdRng::seed_from_u64(99);

    let mut serial_ms = Vec::new();
    let mut parallel_ms = Vec::new();
    let mut critical_iters = Vec::new();
    for _ in 0..shots {
        let (ex, _) = bpsf::sim::sample_depolarizing(n, p, &mut rng);
        let s = hz.mul_vec(&ex);

        let t0 = Instant::now();
        let rs = serial.decode(&s);
        serial_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        let rp = parallel.decode(&s);
        parallel_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        critical_iters.push(rp.critical_path_iterations);
        assert_eq!(rs, rp);
    }

    let s_stats = bpsf::sim::LatencyStats::from_samples(serial_ms);
    let p_stats = bpsf::sim::LatencyStats::from_samples(parallel_ms);
    println!("\nserial BP-SF : {}", s_stats.summary());
    println!("P = {workers:<8} : {}", p_stats.summary());
    println!(
        "tail compression: max {:.2}× | mean {:.2}×",
        s_stats.max / p_stats.max.max(1e-9),
        s_stats.mean / p_stats.mean.max(1e-9)
    );

    // Project onto dedicated hardware (paper §VI discussion).
    let fpga = HardwareLatencyModel::fpga();
    let worst = critical_iters.iter().copied().max().unwrap_or(0);
    println!(
        "\nFPGA projection @20 ns/iter: worst-case critical path {} iterations → {:.2} µs",
        worst,
        fpga.time_us(worst)
    );
    println!(
        "(the paper's fully parallel bound: 100 initial + 100 trial iterations → {:.2} µs)",
        fpga.time_us(200)
    );
}
