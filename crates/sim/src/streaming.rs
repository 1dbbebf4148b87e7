//! Streaming (sliding-window) Monte Carlo runs through the decode
//! service.
//!
//! The offline circuit-level runner hands each decoder the *whole*
//! rounds-deep syndrome at once; this runner feeds the same shots to
//! [`qldpc_server`] streaming sessions **round by round**, the way a
//! real-time decoder receives them, and judges the committed global
//! correction with exactly the same logical-error criterion. Producer
//! threads interleave many concurrent streams so window submissions
//! micro-batch inside the service — the throughput configuration the
//! paper's service argument is about.

use crate::report::RunReport;
use qldpc_circuit::{DemSampler, DetectorErrorModel, Shot};
use qldpc_decoder_api::{WindowDecoderFactory, WindowPlan};
use qldpc_gf2::BitVec;
use qldpc_server::{DecodeService, ServiceConfig, StreamError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a streaming run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingConfig {
    /// Number of Monte Carlo shots (streams).
    pub shots: usize,
    /// RNG seed. The same seed produces the same shots as
    /// [`run_circuit_level`](crate::run_circuit_level) — the offline and
    /// streaming runners consume the RNG identically, so parity checks
    /// compare decodings of *identical* error patterns.
    pub seed: u64,
    /// Producer threads, each interleaving its share of the streams
    /// round by round.
    pub threads: usize,
    /// Shard workers of the decode service.
    pub shards: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        Self {
            shots: 100,
            seed: 0,
            threads: 2,
            shards: 2,
        }
    }
}

/// The outcome of a streaming run: the same failure accounting as the
/// offline [`RunReport`], plus streaming throughput.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// Window decoder label.
    pub decoder: String,
    /// Workload description.
    pub workload: String,
    /// Streams decoded.
    pub shots: usize,
    /// Streams that ended in a logical error (unsolved streams count as
    /// failures, matching the offline scorer).
    pub failures: usize,
    /// Streams with at least one window whose correction did not
    /// satisfy its residual syndrome.
    pub unsolved: usize,
    /// Detector-round blocks per stream.
    pub rounds: usize,
    /// Wall-clock time of the whole run (all threads, submission to
    /// final commit).
    pub wall: Duration,
}

impl StreamingReport {
    /// Logical error rate over the full stream.
    pub fn ler(&self) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.failures as f64 / self.shots as f64
        }
    }

    /// Sustained throughput in detector-round blocks per second,
    /// aggregated over all concurrent streams.
    pub fn rounds_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            (self.shots * self.rounds) as f64 / secs
        }
    }

    /// One-line summary for logs and bench output.
    pub fn summary(&self) -> String {
        format!(
            "{} on {}: shots={} failures={} unsolved={} ler={:.3e} rounds/s={:.0}",
            self.decoder,
            self.workload,
            self.shots,
            self.failures,
            self.unsolved,
            self.ler(),
            self.rounds_per_sec(),
        )
    }
}

/// Runs a windowed streaming experiment: samples `config.shots` shots
/// from the DEM (identically to the offline runner at the same seed),
/// streams each through its own service session round by round, and
/// scores the committed corrections.
///
/// # Panics
///
/// Panics on a degenerate config (zero shots/threads/shards), if the
/// plan does not match the DEM, or if the service fails mid-run (worker
/// loss — impossible with the in-tree BP window decoders).
pub fn run_streaming(
    dem: &DetectorErrorModel,
    plan: Arc<WindowPlan>,
    workload: &str,
    config: &StreamingConfig,
    factory: WindowDecoderFactory,
) -> StreamingReport {
    assert!(config.shots > 0, "need at least one shot");
    assert!(config.threads > 0, "need at least one producer thread");
    assert!(config.shards > 0, "need at least one shard");
    assert_eq!(
        plan.num_detectors,
        dem.num_detectors(),
        "plan was built for a different model"
    );

    // Label from a throwaway instance; the factory itself goes to the
    // service, which builds one decoder per shard worker.
    let decoder_label = factory(Arc::clone(&plan)).label();

    let sampler = DemSampler::new(dem);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let shots = sampler.sample_batch(&mut rng, config.shots);

    let mut builder = DecodeService::builder();
    let code = builder.register_streaming_code_with(
        "streaming-run",
        Arc::clone(&plan),
        factory,
        ServiceConfig {
            shards: config.shards,
            max_wait: Duration::from_micros(100),
            ..Default::default()
        },
    );
    let service = builder.start();

    let k = plan.dets_per_round;
    let num_rounds = plan.num_round_blocks;
    let started = Instant::now();
    let chunks: Vec<&[Shot]> = shots
        .chunks(config.shots.div_ceil(config.threads))
        .collect();
    let per_thread: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let service = &service;
                scope.spawn(move || {
                    // All of this thread's streams advance in lockstep:
                    // their same-index windows land in the shard queues
                    // together and coalesce into one kernel tile.
                    let mut sessions: Vec<_> = chunk
                        .iter()
                        .map(|_| service.stream_session(code).expect("session opens"))
                        .collect();
                    for r in 0..num_rounds {
                        for (session, shot) in sessions.iter_mut().zip(chunk) {
                            let round = shot.syndrome.slice(r * k..(r + 1) * k);
                            session
                                .push_round(&round)
                                .unwrap_or_else(|e: StreamError| panic!("stream failed: {e}"));
                        }
                    }
                    let mut failures = 0usize;
                    let mut unsolved = 0usize;
                    for (session, shot) in sessions.into_iter().zip(chunk) {
                        let result = session
                            .finish()
                            .unwrap_or_else(|e| panic!("stream failed: {e}"));
                        if !result.all_solved {
                            unsolved += 1;
                            failures += 1;
                        } else if dem.is_logical_error(&shot.obs_flips, &result.error_hat) {
                            failures += 1;
                        }
                    }
                    (failures, unsolved)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    service.shutdown();

    let (failures, unsolved) = per_thread
        .into_iter()
        .fold((0, 0), |(f, u), (df, du)| (f + df, u + du));
    StreamingReport {
        decoder: decoder_label,
        workload: workload.to_string(),
        shots: config.shots,
        failures,
        unsolved,
        rounds: num_rounds,
        wall,
    }
}

/// Convenience: the offline reference for a streaming run — the same
/// shots (same seed), decoded whole by `factory` against the full DEM.
/// Thin wrapper over [`run_circuit_level`](crate::run_circuit_level)
/// kept here so parity checks read as one obvious pair.
pub fn run_streaming_offline_reference(
    dem: &DetectorErrorModel,
    workload: &str,
    config: &StreamingConfig,
    factory: &crate::DecoderFactory,
) -> RunReport {
    crate::run_circuit_level(
        dem,
        workload,
        &crate::CircuitLevelConfig {
            shots: config.shots,
            seed: config.seed,
        },
        factory,
        &crate::BatchConfig::SEQUENTIAL,
    )
}

/// Helper for sanity checks: a one-window plan's streaming decode must
/// reproduce the offline decode bit for bit (no spill, no carry).
pub fn stream_syndrome_rounds(syndrome: &BitVec, dets_per_round: usize) -> Vec<BitVec> {
    assert_eq!(syndrome.len() % dets_per_round, 0);
    (0..syndrome.len() / dets_per_round)
        .map(|r| syndrome.slice(r * dets_per_round..(r + 1) * dets_per_round))
        .collect()
}
