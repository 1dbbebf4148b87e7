//! What the `qldpc-bench` binaries share.
//!
//! The paper's figures are reproduced by two front doors, not by a
//! binary each: LER-vs-p figures are committed campaign specs
//! (`specs/paper/*.campaign`, run by `campaign`), and latency/iteration
//! figures are invocations of `decode`, the one-cell anatomy tool —
//! EXPERIMENTS.md ("Paper figures") maps every figure to its spec or
//! command line and to the paper's value; BP-SF's design-choice
//! ablations are a spec too, one `;key=value` decoder token per variant
//! (`specs/paper/ablations.campaign`). One figure binary remains, `fig03`,
//! because its candidate precision/recall needs the true error, which no
//! decode outcome carries; it alone uses [`BenchArgs`], [`banner`] and
//! [`paper_reference`], and shares the DEM builder with `decode`. The rest
//! of this module is the soak harness's digest and syndrome stream
//! (`soak_client`, `cluster_soak`).
//!
//! Absolute values differ from the paper's: it ran a Xeon E5-2698v4 +
//! V100 with Stim-generated circuits; this reproduction runs a pure-Rust
//! substrate (see EXPERIMENTS.md for the measurement recipes and the
//! provenance of every recorded number).

use qldpc_circuit::{DetectorErrorModel, MemoryExperiment, NoiseModel};
use qldpc_codes::CssCode;

/// Prints `tool: error` and the usage text to stderr and exits with
/// status 2 — a command-line mistake is answered, not backtraced.
pub fn exit_with_usage(tool: &str, error: &str, usage: &str) -> ! {
    eprintln!("{tool}: {error}\n{usage}");
    std::process::exit(2)
}

/// Parsed CLI arguments of the figure binary `fig03`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    const USAGE: &'static str = "usage: [--shots N] [--rounds N] [--seed N] [--full]
  --shots N   shots per data point
  --rounds N  syndrome-extraction rounds (default: the paper's)
  --seed N    RNG seed (default 2026)
  --full      run the paper's full parameter grid (slow)";

    /// Parses `--shots`, `--rounds`, `--full`, `--seed` from `std::env`;
    /// an unknown flag or a malformed number prints a one-line error plus
    /// usage and exits with status 2.
    pub fn parse(default_shots: usize) -> Self {
        Self::parse_from(std::env::args().skip(1), default_shots).unwrap_or_else(|error| {
            let tool = std::env::args().next().unwrap_or_default();
            exit_with_usage(&tool, &error, Self::USAGE)
        })
    }

    fn parse_from(
        args: impl IntoIterator<Item = String>,
        default_shots: usize,
    ) -> Result<Self, String> {
        let mut parsed = Self {
            shots: default_shots,
            full: false,
            rounds: None,
            seed: 2026,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut number = || -> Result<u64, String> {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                match value.parse() {
                    Ok(n) if n > 0 || flag == "--seed" => Ok(n),
                    _ => Err(format!("{flag} needs a positive count, got '{value}'")),
                }
            };
            match flag.as_str() {
                "--shots" => parsed.shots = number()? as usize,
                "--rounds" => parsed.rounds = Some(number()? as usize),
                "--seed" => parsed.seed = number()?,
                "--full" => parsed.full = true,
                "--help" | "-h" => {
                    println!("{}", Self::USAGE);
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(parsed)
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

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse_from(args.iter().map(|a| a.to_string()), 200)
    }

    #[test]
    fn bench_args_reject_what_they_cannot_parse() {
        let ok = parse(&["--shots", "50", "--rounds", "3", "--seed", "0", "--full"]).unwrap();
        assert_eq!(
            (ok.shots, ok.rounds, ok.seed, ok.full),
            (50, Some(3), 0, true)
        );
        assert_eq!(parse(&[]).unwrap().shots, 200);
        for (args, needle) in [
            (
                &["--rounds", "three"][..],
                "--rounds needs a positive count, got 'three'",
            ),
            (&["--rounds", "0"], "--rounds needs a positive count"),
            (&["--shots"], "--shots needs a value"),
            (&["--ful"], "unknown argument '--ful'"),
        ] {
            let error = parse(args).unwrap_err();
            assert!(error.contains(needle), "{args:?} gave '{error}'");
        }
    }

    #[test]
    fn dem_builder_produces_consistent_shapes() {
        let code = bb::bb72();
        let dem = build_dem(&code, 3, 1e-3);
        assert_eq!(dem.num_detectors(), 36 * 4);
        assert_eq!(dem.num_observables(), 12);
    }
}
