//! Shared harness for the per-figure benchmark binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the BP-SF
//! paper. The binaries print the measured series next to the paper's
//! reported values (read off the published plots), so the *shape* of each
//! result — who wins, by what factor, where the crossover sits — can be
//! compared directly. Absolute values differ: the paper ran a Xeon
//! E5-2698v4 + V100 with Stim-generated circuits; this reproduction runs a
//! pure-Rust substrate (see EXPERIMENTS.md for the measurement recipes and
//! the provenance of every recorded number).
//!
//! Common flags for all binaries:
//!
//! * `--shots N` — shots per data point (default: binary-specific),
//! * `--rounds N` — override the number of syndrome-extraction rounds,
//! * `--full` — run the paper's full parameter grid (slow!),
//! * `--seed N` — RNG seed.

use qldpc_circuit::{DetectorErrorModel, MemoryExperiment, NoiseModel};
use qldpc_codes::CssCode;
use qldpc_sim::{
    run_circuit_level, run_code_capacity, BatchConfig, CircuitLevelConfig, CodeCapacityConfig,
    DecoderFactory, RunReport,
};

/// Parsed common CLI arguments.
#[derive(Debug, Clone, Copy)]
pub struct BenchArgs {
    /// Shots per data point.
    pub shots: usize,
    /// Run the paper's full grid.
    pub full: bool,
    /// Override the round count (circuit-level benches).
    pub rounds: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl BenchArgs {
    /// Parses `--shots`, `--rounds`, `--full`, `--seed` from `std::env`.
    pub fn parse(default_shots: usize) -> Self {
        let mut args = Self {
            shots: default_shots,
            full: false,
            rounds: None,
            seed: 2026,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--shots" => {
                    args.shots = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--shots needs a number");
                }
                "--rounds" => {
                    args.rounds = it.next().and_then(|v| v.parse().ok());
                }
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs a number");
                }
                "--full" => args.full = true,
                other => eprintln!("ignoring unknown argument {other:?}"),
            }
        }
        args
    }
}

/// Prints the standard experiment banner.
pub fn banner(figure: &str, description: &str, args: &BenchArgs) {
    println!("================================================================");
    println!("{figure}: {description}");
    println!(
        "shots/point = {}{}  seed = {}",
        args.shots,
        if args.full { " (--full grid)" } else { "" },
        args.seed
    );
    println!("================================================================");
}

/// Builds (and memoizes nothing — DEMs are cheap) the memory-Z DEM for a
/// code at a given physical error rate.
pub fn build_dem(code: &CssCode, rounds: usize, p: f64) -> DetectorErrorModel {
    let noise = NoiseModel::uniform_depolarizing(p);
    MemoryExperiment::memory_z(code, rounds, &noise).detector_error_model()
}

/// Runs a circuit-level LER sweep: one row per (p, decoder).
pub fn circuit_sweep(
    code: &CssCode,
    rounds: usize,
    ps: &[f64],
    shots: usize,
    seed: u64,
    factories: &[DecoderFactory],
) -> Vec<RunReport> {
    let mut reports = Vec::new();
    println!(
        "\n{:<36} {:>9} {:>10} {:>12} {:>9} {:>9}",
        "decoder", "p", "LER", "LER/round", "avg ms", "max ms"
    );
    for &p in ps {
        let dem = build_dem(code, rounds, p);
        let workload = format!("{} r={rounds} p={p:.0e}", code.name());
        for factory in factories {
            let report = run_circuit_level(
                &dem,
                &workload,
                &CircuitLevelConfig { shots, seed },
                factory,
                &BatchConfig::SEQUENTIAL,
            );
            let wall = report.wall_stats_ms();
            println!(
                "{:<36} {:>9.1e} {:>10.3e} {:>12.3e} {:>9.3} {:>9.3}",
                report.decoder,
                p,
                report.ler(),
                report.ler_per_round(rounds),
                wall.mean,
                wall.max
            );
            reports.push(report);
        }
    }
    reports
}

/// Runs a code-capacity LER sweep: one row per (p, decoder).
pub fn capacity_sweep(
    code: &CssCode,
    ps: &[f64],
    shots: usize,
    seed: u64,
    factories: &[DecoderFactory],
) -> Vec<RunReport> {
    let mut reports = Vec::new();
    println!(
        "\n{:<36} {:>9} {:>10} {:>9} {:>9} {:>9}",
        "decoder", "p", "LER", "avg ms", "max ms", "pp-rate"
    );
    for &p in ps {
        for factory in factories {
            let report = run_code_capacity(
                code,
                &CodeCapacityConfig { p, shots, seed },
                factory,
                &BatchConfig::SEQUENTIAL,
            );
            let wall = report.wall_stats_ms();
            println!(
                "{:<36} {:>9.1e} {:>10.3e} {:>9.3} {:>9.3} {:>9.3}",
                report.decoder,
                p,
                report.ler(),
                wall.mean,
                wall.max,
                report.postprocessing_rate()
            );
            reports.push(report);
        }
    }
    reports
}

/// Prints the paper-reference block that accompanies each figure.
pub fn paper_reference(lines: &[&str]) {
    println!("\npaper reference (read off the published figure):");
    for l in lines {
        println!("  {l}");
    }
}

/// FNV-1a over a byte stream — the soak harness's order-sensitive
/// digest (no external hash crates; collisions would need an adversary,
/// and the comparison is decoder-vs-itself).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The standard 64-bit offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs a little-endian u64.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Absorbs every field of a decode outcome into `hash` — the
/// bit-identity fingerprint the cluster soak compares between
/// over-the-wire and in-process decoding. Any divergence (estimate,
/// convergence flags, iteration counts, telemetry) changes the digest.
pub fn absorb_outcome(hash: &mut Fnv1a, outcome: &qldpc_decoder_api::DecodeOutcome) {
    hash.write_u64(outcome.error_hat.len() as u64);
    for &word in outcome.error_hat.as_words() {
        hash.write_u64(word);
    }
    hash.write_u64(outcome.solved as u64);
    hash.write_u64(outcome.serial_iterations as u64);
    hash.write_u64(outcome.critical_iterations as u64);
    hash.write_u64(outcome.postprocessed as u64);
    let t = &outcome.telemetry;
    for v in [
        t.bp_iterations,
        t.bp_converged as u64,
        t.oscillating_bits,
        t.osd_invocations,
        t.osd_candidates,
        t.sf_trials,
        t.window_spill_bits,
        t.window_carried_priors,
    ] {
        hash.write_u64(v);
    }
}

/// The deterministic syndrome stream of one soak client: `shots`
/// random `bits`-wide syndromes (bit rate 0.1) from a seeded RNG. The
/// soak server and the in-process reference both regenerate it from
/// `(bits, shots, seed)`, so the only thing compared over the wire is
/// the decoding.
pub fn soak_syndromes(bits: usize, shots: usize, seed: u64) -> Vec<qldpc_gf2::BitVec> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..shots)
        .map(|_| {
            let mut s = qldpc_gf2::BitVec::zeros(bits);
            for i in 0..bits {
                if rng.random_bool(0.1) {
                    s.set(i, true);
                }
            }
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qldpc_codes::bb;
    use qldpc_sim::decoders;

    #[test]
    fn sweeps_produce_one_report_per_cell() {
        let code = bb::bb72();
        let reports = capacity_sweep(&code, &[0.02, 0.05], 10, 1, &[decoders::plain_bp(20)]);
        assert_eq!(reports.len(), 2);
        let reports = circuit_sweep(&code, 2, &[1e-3], 5, 1, &[decoders::plain_bp(20)]);
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn dem_builder_produces_consistent_shapes() {
        let code = bb::bb72();
        let dem = build_dem(&code, 3, 1e-3);
        assert_eq!(dem.num_detectors(), 36 * 4);
        assert_eq!(dem.num_observables(), 12);
    }
}
