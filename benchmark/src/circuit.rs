//! The direct workloads `cl_bpsf`, `cl_bposd` and `cl_bp_batch`.
//!
//! They share one input family: the gross code `[[144,12,12]]`, a
//! Z-memory experiment of [`ROUNDS`] rounds under uniform depolarizing
//! noise at [`NOISE_P`], its detector error model, and syndromes drawn
//! from `DemSampler::sample_batch` with the workload seed. Decoders are
//! built by the `qldpc_sim::decoders` factories and driven through the
//! `SyndromeDecoder` trait, as a user of the library would.
//!
//! Two rounds, not the paper's twelve: a run has about fifteen seconds,
//! and BP-SF's latency is heavy-tailed (a shot that exhausts its 100
//! trials costs 10 100 BP iterations against a median of 6), so the mean
//! and the p99 only settle across seeds with several thousand shots per
//! pass. At two rounds a shot costs under a millisecond, 1.4 % of shots
//! post-process, and the p99 sits inside the "BP gave up, first trials"
//! cluster instead of on a boundary between clusters.

use crate::stats::{mean, p50, percentile};
use crate::trace::{self, Tracer};
use crate::{end_to_end, per_layer, Counts, Options, Outcome, PASSES};
use bpsf_core::{select_candidates_ranked, BpSfConfig, TrialSampling, TrialVectors};
use qldpc_bp::{BpConfig, BpResult, MinSumDecoder, DEFAULT_MAX_LANES};
use qldpc_circuit::{DemSampler, DetectorErrorModel, MemoryExperiment, NoiseModel, Shot};
use qldpc_decoder_api::{DecodeOutcome, DecoderFactory, SyndromeDecoder};
use qldpc_gf2::{BitVec, OrderedEliminator};
use qldpc_osd::{osd_postprocess_with, OsdConfig};
use qldpc_sim::decoders;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const ROUNDS: usize = 2;
pub const NOISE_P: f64 = 3e-3;
const BP_ITERS: usize = 100;
const OSD_ORDER: usize = 10;
/// Turns the traced run's three passes take.
const TRACED_CHUNKS: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sf,
    Osd,
    Batch,
}

fn sf_config() -> BpSfConfig {
    // The paper's Fig. 7 setting: BP100, |Φ| = 50, w_max = 10, n_s = 10.
    BpSfConfig::circuit_level(BP_ITERS, 50, 10, 10)
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Sf => "cl_bpsf",
            Kind::Osd => "cl_bposd",
            Kind::Batch => "cl_bp_batch",
        }
    }

    fn factory(self) -> DecoderFactory {
        match self {
            Kind::Sf => decoders::bp_sf(sf_config()),
            Kind::Osd => decoders::bp_osd(BP_ITERS, OSD_ORDER),
            Kind::Batch => decoders::plain_bp(BP_ITERS),
        }
    }

    /// Shots per second of timed work on the reference container; sizes
    /// a pass so a run measures for about `--seconds`.
    fn rate(self) -> f64 {
        match self {
            Kind::Sf => 1050.0,
            Kind::Osd => 1300.0,
            Kind::Batch => 1450.0,
        }
    }

    /// The configuration of the scalar BP attempt every decode starts
    /// with, as the decoder itself builds it.
    fn initial_bp(self) -> BpConfig {
        match self {
            Kind::Sf => BpConfig {
                track_oscillations: true,
                ..sf_config().initial_bp
            },
            _ => BpConfig {
                max_iters: BP_ITERS,
                ..BpConfig::default()
            },
        }
    }

    /// Shots per decoder call.
    fn tile(self) -> usize {
        match self {
            Kind::Batch => DEFAULT_MAX_LANES,
            _ => 1,
        }
    }

    /// The span around the decoder's construction and the per-layer
    /// metric it becomes.
    fn build(self) -> (&'static str, &'static str) {
        match self {
            Kind::Sf => ("core.build", "core.build_ms"),
            Kind::Osd => ("osd.build", "osd.build_ms"),
            Kind::Batch => ("bp.build", "bp.build_ms"),
        }
    }

    fn decode_span(self) -> &'static str {
        match self {
            Kind::Sf => "core.decode_syndrome",
            Kind::Osd => "osd.decode_syndrome",
            Kind::Batch => "bp.decode_batch",
        }
    }
}

/// One cold set-up: code, experiment and DEM construction, then the
/// decoder through its factory. Syndrome sampling is load generation
/// and is not part of it.
fn set_up(kind: Kind, tracer: &mut Tracer) -> (DetectorErrorModel, Box<dyn SyndromeDecoder>) {
    let code = tracer.span("codes.build", 0, |_| qldpc_codes::bb::gross_code());
    let dem = tracer.span("circuit.dem_build", 0, |_| {
        let noise = NoiseModel::uniform_depolarizing(NOISE_P);
        MemoryExperiment::memory_z(&code, ROUNDS, &noise).detector_error_model()
    });
    let decoder = tracer.span(kind.build().0, 0, |_| {
        kind.factory()(dem.check_matrix(), dem.priors())
    });
    (dem, decoder)
}

/// A fresh decoder whose buffers have been touched once. The zero
/// syndrome converges in one iteration and never reaches BP-SF's trial
/// RNG, so every pass still starts from the same decoder state.
fn warm_decoder(kind: Kind, dem: &DetectorErrorModel) -> Box<dyn SyndromeDecoder> {
    let mut decoder = kind.factory()(dem.check_matrix(), dem.priors());
    black_box(decoder.decode_syndrome(&BitVec::zeros(dem.num_detectors())));
    decoder
}

/// About a millisecond of fixed integer and floating-point arithmetic
/// that touches no code of the program: how fast the machine is running
/// right now. Returns its duration in nanoseconds.
fn speed_reading() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for _ in 0..400_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 11) as f64 * 1e-16;
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64
}

/// A speed reading is taken at least this often during a pass.
const READING_EVERY: Duration = Duration::from_millis(40);

#[derive(Default)]
struct Decoded {
    /// Caller-observed latency of each shot, µs. In a batched call every
    /// shot is charged the call's wall time.
    latency_us: Vec<f64>,
    outcomes: Vec<DecodeOutcome>,
    /// Speed readings taken between decoder calls: `(shots decoded so
    /// far, reading)`. The first precedes the first shot and the last
    /// follows the last, so every shot lies between two.
    readings: Vec<(usize, f64)>,
}

impl Decoded {
    /// Every shot through the decoder, in order, one call per tile,
    /// appended to what was decoded before. The span around each call is
    /// the latency sample; its request id is the shot's (or the tile's
    /// first shot's) index in the pass.
    fn decode(
        &mut self,
        kind: Kind,
        decoder: &mut dyn SyndromeDecoder,
        shots: &[Shot],
        tracer: &mut Tracer,
    ) {
        let syndromes: Vec<BitVec> = shots.iter().map(|s| s.syndrome.clone()).collect();
        self.readings.push((self.outcomes.len(), speed_reading()));
        let mut last_reading = Instant::now();
        for tile in syndromes.chunks(kind.tile()) {
            let request = self.outcomes.len() as u64;
            let (decoded, ns) = if kind.tile() == 1 {
                let (out, ns) = tracer.timed(kind.decode_span(), request, |_| {
                    decoder.decode_syndrome(&tile[0])
                });
                (vec![out], ns)
            } else {
                tracer.timed(kind.decode_span(), request, |_| decoder.decode_batch(tile))
            };
            self.latency_us
                .extend(std::iter::repeat_n(ns as f64 / 1e3, tile.len()));
            self.outcomes.extend(decoded);
            if last_reading.elapsed() >= READING_EVERY {
                self.readings.push((self.outcomes.len(), speed_reading()));
                last_reading = Instant::now();
            }
        }
        if self
            .readings
            .last()
            .is_some_and(|r| r.0 < self.outcomes.len())
        {
            self.readings.push((self.outcomes.len(), speed_reading()));
        }
    }

    /// Which shots were decoded at the machine's base speed: both speed
    /// readings around them took at least `floor_ns`.
    fn at_base_speed(&self, floor_ns: f64) -> Vec<bool> {
        let mut keep = vec![false; self.outcomes.len()];
        for pair in self.readings.windows(2) {
            if pair[0].1 >= floor_ns && pair[1].1 >= floor_ns {
                keep[pair[0].0..pair[1].0].fill(true);
            }
        }
        keep
    }
}

/// The sandbox runs CPU-bound code at speed levels about 20 % apart and
/// stays on one for seconds, sometimes for a whole run; left in, that is
/// the whole run-to-run spread of the `cl_*` timings. The base level is
/// the slowest and the one the machine is on most of the time, so the
/// run's base reading is taken as the 90th percentile of all its speed
/// readings, and a reading within [`BASE_SPEED_TOLERANCE`] of it counts
/// as base speed. Samples taken at another level are left out of the
/// timing statistics (never out of the counts or the output checks);
/// the values reported are as measured.
const BASE_SPEED_TOLERANCE: f64 = 0.12;

fn base_speed_floor_ns(passes: &[Decoded]) -> f64 {
    let mut readings: Vec<f64> = passes
        .iter()
        .flat_map(|d| d.readings.iter().map(|r| r.1))
        .collect();
    readings.sort_by(f64::total_cmp);
    percentile(&readings, 90.0) * (1.0 - BASE_SPEED_TOLERANCE)
}

/// Recomputes H·ê = s for every correction the decoder called solved,
/// and judges its coset. Returns which shots hold a valid correction.
fn verify(
    dem: &DetectorErrorModel,
    shots: &[Shot],
    outcomes: &[DecodeOutcome],
    counts: &mut Counts,
) -> Vec<bool> {
    assert_eq!(shots.len(), outcomes.len(), "one outcome per shot");
    shots
        .iter()
        .zip(outcomes)
        .map(|(shot, out)| {
            counts.attempted += 1;
            if !out.solved {
                return false;
            }
            if dem.check_matrix().mul_vec(&out.error_hat) != shot.syndrome {
                counts.failed += 1;
                return false;
            }
            counts.valid += 1;
            if !dem.is_logical_error(&shot.obs_flips, &out.error_hat) {
                counts.logical_ok += 1;
            }
            true
        })
        .collect()
}

/// `cl_bp_batch` only: the first tile decoded again shot by shot on a
/// fresh decoder must give the identical outcomes.
fn batch_matches_scalar(dem: &DetectorErrorModel, shots: &[Shot], batch: &[DecodeOutcome]) -> u64 {
    let mut scalar = Kind::Batch.factory()(dem.check_matrix(), dem.priors());
    shots
        .iter()
        .zip(batch)
        .take(Kind::Batch.tile())
        .filter(|(shot, out)| scalar.decode_syndrome(&shot.syndrome) != **out)
        .count() as u64
}

pub fn run(kind: Kind, opts: Options) -> Result<Outcome, String> {
    let n = opts.per_pass(kind.rate(), kind.tile());
    let sizes = format!(
        "gross r{ROUNDS} p={NOISE_P}: {n} shots/pass, {} passes, tile {}",
        if opts.trace { 1 } else { PASSES },
        kind.tile()
    );
    if opts.trace {
        return traced(kind, opts, n, sizes);
    }

    let setup_s: Vec<f64> = (0..opts.setup_reps())
        .map(|_| {
            let start = Instant::now();
            black_box(set_up(kind, &mut Tracer::disabled()));
            start.elapsed().as_secs_f64()
        })
        .collect();

    let (dem, _) = set_up(kind, &mut Tracer::disabled());
    let sampler = DemSampler::new(&dem);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut counts = Counts::default();
    let mut decoded = Vec::with_capacity(PASSES);
    let mut valid = Vec::with_capacity(PASSES);
    for pass in 0..PASSES {
        let shots = sampler.sample_batch(&mut rng, n);
        let mut decoder = warm_decoder(kind, &dem);
        let mut d = Decoded::default();
        d.decode(kind, decoder.as_mut(), &shots, &mut Tracer::disabled());
        valid.push(verify(&dem, &shots, &d.outcomes, &mut counts));
        if kind == Kind::Batch && pass == 0 {
            counts.failed += batch_matches_scalar(&dem, &shots, &d.outcomes);
        }
        decoded.push(d);
    }

    // The timing statistics come from the shots decoded at base speed. A
    // shot with no valid correction counts toward throughput but gets no
    // latency sample. Should the readings be so erratic that too few
    // shots are left for a p99, every shot counts: a run never fails
    // for the state of the machine.
    let mut latency_us = Vec::new();
    let mut throughput_sps = Vec::with_capacity(PASSES);
    for floor_ns in [base_speed_floor_ns(&decoded), 0.0] {
        latency_us.clear();
        throughput_sps.clear();
        for (d, valid) in decoded.iter().zip(&valid) {
            let keep = d.at_base_speed(floor_ns);
            let kept = || (0..keep.len()).filter(|&i| keep[i]);
            latency_us.extend(kept().filter(|&i| valid[i]).map(|i| d.latency_us[i]));
            // Kept shots come in whole tiles, each carrying its call's time.
            let busy_us: f64 = kept().step_by(kind.tile()).map(|i| d.latency_us[i]).sum();
            if busy_us > 0.0 {
                throughput_sps.push(kept().count() as f64 / (busy_us / 1e6));
            }
        }
        if latency_us.len() >= crate::MIN_P99_SAMPLES {
            break;
        }
    }
    if latency_us.is_empty() {
        return Err("no shot was decoded to a valid correction".to_string());
    }
    let kept_note = format!(
        "; {} of {} samples at base speed",
        latency_us.len(),
        counts.valid
    );
    Ok(Outcome {
        metrics: end_to_end(&setup_s, &mut latency_us, &throughput_sps, &counts),
        counts,
        sizes: sizes + &kept_note,
    })
}

// ---------------------------------------------------------------------
// The traced run: one untraced and one traced pass over the same shots,
// then replays that time each layer's public functions on those shots.
// ---------------------------------------------------------------------

/// Mean of nanosecond samples in µs; 0 when there are none.
fn us(ns: &[f64]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        mean(ns) / 1e3
    }
}

fn ms(ns: &[f64]) -> f64 {
    us(ns) / 1e3
}

/// `MinSumDecoder::decode` replayed on the pass's shots with the
/// workload's initial-BP configuration: the scalar BP share of each
/// decode.
struct ScalarReplay {
    bp: MinSumDecoder,
    results: Vec<BpResult>,
    ns: Vec<f64>,
}

impl ScalarReplay {
    fn new(kind: Kind, dem: &DetectorErrorModel) -> Self {
        let mut bp = MinSumDecoder::new(dem.check_matrix(), dem.priors(), kind.initial_bp());
        black_box(bp.decode(&BitVec::zeros(dem.num_detectors())));
        Self {
            bp,
            results: Vec::new(),
            ns: Vec::new(),
        }
    }

    fn decode(&mut self, shots: &[Shot], tracer: &mut Tracer) {
        for shot in shots {
            let request = self.results.len() as u64;
            let (r, ns) = tracer.timed("bp.scalar_decode", request, |_| {
                self.bp.decode(&shot.syndrome)
            });
            self.results.push(r);
            self.ns.push(ns as f64);
        }
    }

    fn metrics(&self, dem: &DetectorErrorModel) -> Vec<(&'static str, f64)> {
        let iters: f64 = self.results.iter().map(|r| r.iterations as f64).sum();
        let edges = dem.check_matrix().nnz() as f64;
        vec![
            ("bp.scalar_us_per_decode", us(&self.ns)),
            (
                "bp.scalar_iters_per_decode",
                iters / self.results.len() as f64,
            ),
            (
                "bp.scalar_ns_per_edge_iter",
                self.ns.iter().sum::<f64>() / (iters * edges),
            ),
        ]
    }
}

/// Copy bandwidth of this machine, read plus write traffic, from a
/// 64 MiB buffer (16 × the 4 MiB L2; the host's shared L3 cannot be
/// outsized from inside the sandbox). Best of five copies.
fn copy_gbps() -> f64 {
    const BYTES: usize = 64 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let best_ns = (0..5)
        .map(|_| {
            let start = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min);
    2.0 * BYTES as f64 / best_ns
}

/// The per-column soft cost `BpOsdDecoder` hands its OSD stage.
fn soft_costs(priors: &[f64]) -> Vec<f64> {
    priors
        .iter()
        .map(|&p| {
            let p = p.clamp(1e-12, 1.0 - 1e-12);
            ((1.0 - p) / p).ln().max(1e-9)
        })
        .collect()
}

/// Columns by ascending posterior LLR, ties by index: the order OSD
/// eliminates in.
fn reliability_order(posteriors: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..posteriors.len()).collect();
    order.sort_by(|&a, &b| posteriors[a].total_cmp(&posteriors[b]).then(a.cmp(&b)));
    order
}

struct TracedPass<'a> {
    dem: &'a DetectorErrorModel,
    shots: &'a [Shot],
    /// Per-shot latency of the traced pass, ns.
    decode_ns: Vec<f64>,
    outcomes: &'a [DecodeOutcome],
    /// The scalar BP replay, taken chunk by chunk beside the pass.
    bp: &'a [BpResult],
    bp_ns: &'a [f64],
}

fn core_layers(
    pass: &TracedPass,
    seed: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Vec<(&'static str, f64)> {
    let cfg = sf_config();
    let (bp, bp_ns) = (pass.bp, pass.bp_ns);
    let mut layers = Vec::new();
    let post: Vec<usize> = (0..bp.len()).filter(|&i| !bp[i].converged).collect();
    // The replay must fail exactly where BP-SF post-processed.
    counts.failed += (0..bp.len())
        .filter(|&i| bp[i].converged == pass.outcomes[i].postprocessed)
        .count() as u64;
    if post.is_empty() {
        return layers;
    }
    let n_post = post.len() as f64;
    let postproc_us: Vec<f64> = post
        .iter()
        .map(|&i| (pass.decode_ns[i] - bp_ns[i]) / 1e3)
        .collect();
    let sum = |f: fn(&DecodeOutcome) -> u64| -> f64 {
        post.iter().map(|&i| f(&pass.outcomes[i]) as f64).sum()
    };
    let trials = sum(|o| o.telemetry.sf_trials);
    let winners = sum(|o| o.solved as u64);
    let serial = sum(|o| o.serial_iterations as u64);
    let initial_iters = sum(|o| o.telemetry.bp_iterations);
    layers.extend([
        ("core.postproc_share", n_post / bp.len() as f64),
        ("core.postproc_p50_us", p50(&postproc_us)),
        ("core.postproc_mean_us", mean(&postproc_us)),
        ("core.trials_per_postproc", trials / n_post),
        (
            "core.trial_iters_per_postproc",
            (serial - initial_iters) / n_post,
        ),
        ("core.trial_win_share", winners / n_post),
        ("core.trials_wasted_share", 1.0 - winners / trials),
        (
            "core.critical_iters_ratio",
            sum(|o| o.critical_iterations as u64) / serial,
        ),
    ]);

    // What one post-processed shot spends before its first trial decode
    // and between trials: candidate ranking, trial sampling, and one
    // s' = s + H·t per trial it went on to execute.
    let TrialSampling::Sampled { per_weight } = cfg.sampling else {
        unreachable!("circuit_level samples its trials")
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let setup_ns: Vec<f64> = post
        .iter()
        .map(|&i| {
            let executed = pass.outcomes[i].telemetry.sf_trials as usize;
            tracer
                .timed("core.trial_setup", i as u64, |_| {
                    let candidates = select_candidates_ranked(
                        &bp[i].flip_counts,
                        &bp[i].posteriors,
                        cfg.candidates,
                        cfg.pad_candidates,
                        cfg.ranking,
                    );
                    let trials = TrialVectors::sampled(
                        &candidates,
                        cfg.max_flip_weight,
                        per_weight,
                        &mut rng,
                    );
                    for t in trials.iter().take(executed) {
                        black_box(pass.dem.check_matrix().mul_sparse_vec(t));
                    }
                })
                .1 as f64
        })
        .collect();
    layers.push(("core.trial_setup_us", us(&setup_ns)));

    // The same failing syndromes through the two-worker thread pool;
    // recorded for the lanes-versus-threads decision (ROADMAP item 2).
    let mut parallel = decoders::parallel_bp_sf(cfg, 2)(pass.dem.check_matrix(), pass.dem.priors());
    black_box(parallel.decode_syndrome(&BitVec::zeros(pass.dem.num_detectors())));
    let parallel_us: Vec<f64> = post
        .iter()
        .map(|&i| {
            let (_, ns) = tracer.timed("core.parallel2_decode", i as u64, |_| {
                parallel.decode_syndrome(&pass.shots[i].syndrome)
            });
            (ns as f64 - bp_ns[i]) / 1e3
        })
        .collect();
    layers.push(("core.parallel2_postproc_p50_us", p50(&parallel_us)));
    layers
}

fn osd_layers(
    pass: &TracedPass,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Vec<(&'static str, f64)> {
    let (bp, bp_ns) = (pass.bp, pass.bp_ns);
    let post: Vec<usize> = (0..bp.len()).filter(|&i| !bp[i].converged).collect();
    let mut layers = vec![("osd.postproc_share", post.len() as f64 / bp.len() as f64)];
    let config = OsdConfig {
        order: OSD_ORDER,
        ..OsdConfig::default()
    };
    let cost = soft_costs(pass.dem.priors());
    let mut elim = OrderedEliminator::new(&pass.dem.check_matrix().to_dense());
    let mut osd_ns = Vec::with_capacity(post.len());
    let mut eliminate_ns = Vec::with_capacity(post.len());
    let mut candidates = 0usize;
    for &i in &post {
        let syndrome = &pass.shots[i].syndrome;
        let ((error_hat, solved, swept), ns) = tracer.timed("osd.postprocess", i as u64, |_| {
            osd_postprocess_with(&mut elim, syndrome, &bp[i].posteriors, &cost, config)
        });
        // Fed the replayed posteriors, the OSD stage alone must land on
        // the decoder's own answer.
        let out = &pass.outcomes[i];
        if solved != out.solved || error_hat != out.error_hat {
            counts.failed += 1;
        }
        osd_ns.push(ns as f64);
        candidates += swept;
        let order = reliability_order(&bp[i].posteriors);
        let (_, ns) = tracer.timed("gf2.eliminate", i as u64, |_| {
            elim.eliminate(syndrome, &order)
        });
        eliminate_ns.push(ns as f64);
    }
    let decoder_ns: f64 = pass.decode_ns.iter().sum();
    let replay_ns: f64 = bp_ns.iter().sum::<f64>() + osd_ns.iter().sum::<f64>();
    layers.extend([
        ("osd.postprocess_us", us(&osd_ns)),
        (
            "osd.candidates_per_call",
            candidates as f64 / post.len().max(1) as f64,
        ),
        ("gf2.eliminate_us", us(&eliminate_ns)),
        (
            "osd.closure_gap_share",
            (decoder_ns - replay_ns).abs() / decoder_ns,
        ),
    ]);
    layers
}

fn batch_layers(pass: &TracedPass, counts: &mut Counts) -> Vec<(&'static str, f64)> {
    let (bp, bp_ns) = (pass.bp, pass.bp_ns);
    let mut layers = Vec::new();
    // Both engines must run the same iterations on every shot.
    counts.failed += bp
        .iter()
        .zip(pass.outcomes)
        .filter(|(r, o)| r.iterations != o.serial_iterations || r.converged != o.solved)
        .count() as u64;
    let tile = Kind::Batch.tile();
    // Every shot of a tile carries the tile's wall time once.
    let batch_ns: f64 = pass.decode_ns.iter().step_by(tile).sum();
    let iters: f64 = pass
        .outcomes
        .iter()
        .map(|o| o.serial_iterations as f64)
        .sum();
    let edges = pass.dem.check_matrix().nnz() as f64;
    let bytes_per_message = 8.0;
    let gbps = 4.0 * bytes_per_message * edges * iters / batch_ns;
    let copy = copy_gbps();
    layers.extend([
        ("bp.batch_ns_per_edge_iter", batch_ns / (iters * edges)),
        ("bp.batch_iters_per_decode", iters / bp.len() as f64),
        (
            "bp.batch_speedup_vs_scalar",
            bp_ns.iter().sum::<f64>() / batch_ns,
        ),
        (
            "bp.batch_slab_bytes",
            edges * tile as f64 * bytes_per_message,
        ),
        ("bp.batch_gbps_computed", gbps),
        ("machine.copy_gbps", copy),
        ("bp.batch_bandwidth_share", gbps / copy),
    ]);
    layers
}

fn traced(kind: Kind, opts: Options, n: usize, sizes: String) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(Instant::now(), true);
    let (dem, _) = set_up(kind, &mut tracer);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let shots = tracer.span("circuit.sample_batch", 0, |_| {
        DemSampler::new(&dem).sample_batch(&mut rng, n)
    });

    // The untraced pass, the traced pass and the scalar BP replay take
    // turns chunk by chunk, each on its own decoder, so the three see
    // the same phases of the machine and their difference is theirs.
    let (mut plain, mut spanned) = (warm_decoder(kind, &dem), warm_decoder(kind, &dem));
    let (mut untraced, mut decoded) = (Decoded::default(), Decoded::default());
    let mut replay = ScalarReplay::new(kind, &dem);
    let chunk = (n / TRACED_CHUNKS).max(1).div_ceil(kind.tile()) * kind.tile();
    for shots in shots.chunks(chunk) {
        untraced.decode(kind, plain.as_mut(), shots, &mut Tracer::disabled());
        decoded.decode(kind, spanned.as_mut(), shots, &mut tracer);
        replay.decode(shots, &mut tracer);
    }

    let mut counts = Counts::default();
    verify(&dem, &shots, &decoded.outcomes, &mut counts);
    // The two passes did identical work, or the overhead is not one.
    counts.failed += untraced
        .outcomes
        .iter()
        .zip(&decoded.outcomes)
        .filter(|(a, b)| a != b)
        .count() as u64;

    let mut layers = vec![
        ("codes.build_ms", ms(&tracer.durations_ns("codes.build"))),
        (
            "circuit.dem_build_ms",
            ms(&tracer.durations_ns("circuit.dem_build")),
        ),
        (
            "circuit.sample_us_per_shot",
            us(&tracer.durations_ns("circuit.sample_batch")) / n as f64,
        ),
        (kind.build().1, ms(&tracer.durations_ns(kind.build().0))),
        (
            "trace_overhead_share",
            (mean(&decoded.latency_us) - mean(&untraced.latency_us)) / mean(&untraced.latency_us),
        ),
    ];
    let pass = TracedPass {
        dem: &dem,
        shots: &shots,
        decode_ns: decoded.latency_us.iter().map(|us| us * 1e3).collect(),
        outcomes: &decoded.outcomes,
        bp: &replay.results,
        bp_ns: &replay.ns,
    };
    layers.extend(replay.metrics(&dem));
    layers.extend(match kind {
        Kind::Sf => core_layers(&pass, opts.seed, &mut tracer, &mut counts),
        Kind::Osd => osd_layers(&pass, &mut tracer, &mut counts),
        Kind::Batch => batch_layers(&pass, &mut counts),
    });

    trace::write(kind.name(), opts.seed, &tracer)?;
    Ok(Outcome {
        metrics: per_layer(layers),
        counts,
        sizes,
    })
}
