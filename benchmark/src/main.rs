//! `bench` — the stack's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! bench [--workload <name|all>] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! bench check [--seed N] [--seconds S] [--smoke]
//! bench manifest
//! ```
//!
//! Run from the repository root. Each workload prints its metrics by
//! name with unit and spread, then one JSON line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

mod circuit;
mod manifest;
mod provenance;
mod service;
mod stats;
mod trace;

use manifest::{END_TO_END, PER_LAYER, WORKLOADS};
use stats::{iqr_share, median, LatencySummary};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Where the benchmark writes: sockets, the trace and the result files.
pub const OUT_DIR: &str = "benchmark/out";

/// Timed passes per run. Each pass decodes its own slice of the seeded
/// input stream on a fresh decoder or connection; a metric is the
/// median over passes of the per-pass statistic, so the one or two
/// passes that fall into a slow (or fast) phase of the machine do not
/// move it.
pub const PASSES: usize = 5;

/// A pass needs 1100 latency samples for its p99 to leave ten beyond it.
pub const MIN_P99_SAMPLES: usize = 1100;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Options {
    /// Items per pass for a workload that completes `rate` items per
    /// second on the reference container: the run measures for about
    /// `seconds` in total. The count is fixed by `(seconds, smoke)`
    /// alone, never by the clock, so every count the run reports
    /// repeats exactly.
    pub fn per_pass(&self, rate: f64, multiple_of: usize) -> usize {
        let floor = if self.smoke { 128 } else { MIN_P99_SAMPLES };
        let n = ((rate * self.seconds / PASSES as f64) as usize).max(floor);
        n.div_ceil(multiple_of) * multiple_of
    }

    /// Cold set-up repetitions behind `setup_s`.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            3
        } else {
            9
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Inter-quartile spread over passes (or repetitions) as a share of
    /// the median, where the metric is a median over them.
    pub spread: Option<f64>,
}

#[derive(Default)]
pub struct Counts {
    /// Operations sent to the program.
    pub attempted: u64,
    /// Operations on which the program misbehaved: transport error,
    /// typed refusal, reply timeout, H·ê ≠ s on a correction it called
    /// solved, or an outcome that differs from the reference decode.
    /// Zero on every workload; anything else fails the run.
    pub failed: u64,
    /// Corrections with H·ê = s as recomputed here.
    pub valid: u64,
    /// Valid corrections in the right coset.
    pub logical_ok: u64,
}

impl Counts {
    pub fn add(&mut self, other: &Counts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.valid += other.valid;
        self.logical_ok += other.logical_ok;
    }
}

pub struct Outcome {
    pub counts: Counts,
    pub metrics: Vec<Metric>,
    /// Sizes and provenance notes for the human-readable report.
    pub sizes: String,
}

/// The seven end-to-end metrics. The latency statistics are taken over
/// the samples of all passes together: the p99 then has five times the
/// samples beyond it that one pass has. Throughput is the median over
/// passes, so the one pass that holds a shot a hundred times dearer
/// than the rest does not move it.
pub fn end_to_end(
    setup_s: &[f64],
    latency_us: &mut [f64],
    throughput_sps: &[f64],
    counts: &Counts,
) -> Vec<Metric> {
    let latency = LatencySummary::of(latency_us);
    let plain = |name, value| Metric {
        name,
        value,
        spread: None,
    };
    let of_median = |name, values: &[f64]| Metric {
        name,
        value: median(values),
        spread: Some(iqr_share(values)),
    };
    let share = |part: u64| part as f64 / counts.attempted as f64;
    vec![
        of_median("setup_s", setup_s),
        plain("decode_p50_us", latency.p50),
        plain("decode_p99_us", latency.p99),
        plain("decode_mean_us", latency.mean),
        of_median("throughput_sps", throughput_sps),
        plain("valid_share", share(counts.valid)),
        plain("logical_ok_share", share(counts.logical_ok)),
    ]
}

/// Fills in a 0 for every per-layer metric the workload did not
/// measure: it never entered that layer.
pub fn per_layer(measured: Vec<(&'static str, f64)>) -> Vec<Metric> {
    for (name, _) in &measured {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not a declared per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: measured
                .iter()
                .find(|(name, _)| *name == m.name)
                .map_or(0.0, |&(_, v)| v),
            spread: None,
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .expect("every reported metric is declared in the manifest")
}

fn run_workload(name: &str, opts: Options) -> Result<Outcome, String> {
    match name {
        "cl_bpsf" => circuit::run(circuit::Kind::Sf, opts),
        "cl_bposd" => circuit::run(circuit::Kind::Osd, opts),
        "cl_bp_batch" => circuit::run(circuit::Kind::Batch, opts),
        "svc_sync" => service::run(service::Kind::Sync, opts),
        "svc_pipe" => service::run(service::Kind::Pipelined, opts),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// The contract's result line.
fn result_json(outcome: &Outcome) -> String {
    let c = &outcome.counts;
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        c.failed == 0,
        c.attempted,
        c.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // JSON has no NaN: a ratio with an empty base reads 0.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name,
            unit_of(m.name)
        );
    }
    out.push_str("}}");
    out
}

/// Runs one workload, prints its report and result line, and writes the
/// self-describing result file. Returns the outcome for `check`.
fn report(name: &str, opts: Options) -> Result<Outcome, String> {
    let outcome = run_workload(name, opts)?;
    let mode = if opts.trace { "traced" } else { "untraced" };
    println!("== {name} ({mode}, seed {}) {}", opts.seed, outcome.sizes);
    for m in &outcome.metrics {
        let spread = m
            .spread
            .map_or(String::new(), |s| format!("  (spread {:.3})", s));
        println!(
            "{:<34} {:>16.4} {}{spread}",
            m.name,
            m.value,
            unit_of(m.name)
        );
    }
    let line = result_json(&outcome);
    let file = format!(
        "{{\"provenance\": {}, \"workload\": \"{name}\", \"sizes\": \"{}\", \"result\": {line}}}\n",
        provenance::json(opts),
        outcome.sizes
    );
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/result-{name}-{mode}.json");
    std::fs::write(&path, file).map_err(|e| format!("writing {path}: {e}"))?;
    println!("{line}");
    Ok(outcome)
}

/// `bench check`: the untraced suite twice; every end-to-end metric of
/// the second run must be within its bound of the first, and every
/// exact count identical.
fn check(opts: Options) -> Result<bool, String> {
    let mut ok = true;
    for w in &WORKLOADS {
        let first = report(w.name, opts)?;
        let second = report(w.name, opts)?;
        ok &= first.counts.failed == 0 && second.counts.failed == 0;
        for (bound, (a, b)) in END_TO_END
            .iter()
            .zip(first.metrics.iter().zip(&second.metrics))
        {
            let exact = matches!(bound.unit, "ratio");
            let worse = match bound.better {
                "lower" => (b.value - a.value) / a.value,
                _ => (a.value - b.value) / a.value,
            };
            let pass = if exact {
                a.value == b.value
            } else {
                worse.abs() <= bound.bound
            };
            println!(
                "check {:<12} {:<18} {:>14.4} {:>14.4}  {:+.3} (bound {}) {}",
                w.name,
                bound.name,
                a.value,
                b.value,
                worse,
                if exact {
                    "exact".to_string()
                } else {
                    bound.bound.to_string()
                },
                if pass { "ok" } else { "FAIL" }
            );
            ok &= pass;
        }
    }
    Ok(ok)
}

const USAGE: &str = "\
usage: bench [--workload <name|all>] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       bench check [--seed N] [--seconds S] [--smoke]
       bench manifest
workloads: cl_bpsf cl_bposd cl_bp_batch svc_sync svc_pipe (default: all)
Run from the repository root.";

fn parse(args: &[String]) -> Result<(String, String, Options), String> {
    let mut command = "run".to_string();
    let mut workload = "all".to_string();
    let mut opts = Options {
        seed: 1,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "check" | "manifest" => command = arg.clone(),
            "--workload" => workload = value("--workload")?,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds needs a number in (0, 60]")?;
                seconds_given = true;
            }
            "--trace" => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if opts.smoke && !seconds_given {
        opts.seconds = 0.5;
    }
    Ok((command, workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (command, workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "manifest" => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        "check" => check(opts),
        _ => {
            let names: Vec<&str> = if workload == "all" {
                WORKLOADS.iter().map(|w| w.name).collect()
            } else {
                vec![workload.as_str()]
            };
            names.into_iter().try_fold(true, |ok, name| {
                report(name, opts).map(|o| ok && o.counts.failed == 0)
            })
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench: FAILED (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
