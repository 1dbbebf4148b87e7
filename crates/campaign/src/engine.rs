//! The adaptive campaign runner.
//!
//! Executes an expanded spec cell by cell through the batched
//! thread-parallel Monte Carlo runners in `qldpc-sim`, growing each
//! cell's shot count in chunks until the Wilson confidence interval on
//! its LER is narrow enough (or a shot cap fires), and appending every
//! step to a JSONL log that makes the whole campaign resumable.
//!
//! # Seeding and determinism
//!
//! Chunk `c` of cell `i` (full-grid index) runs with the derived seed
//! `splitmix64(splitmix64(splitmix64(base) ^ i) ^ c)`, masked to 56
//! bits; within a chunk the batched runner gives thread `t` the seed
//! `chunk_seed + t` (the masking keeps that addition overflow-free). For a
//! fixed spec (including a pinned `threads`) every decoded shot is
//! therefore a pure function of the spec — re-running, resuming after a
//! kill, or re-sharding a campaign reproduces byte-identical rows,
//! which `tests/determinism.rs` pins. (Final rows stamp the git
//! revision current at write time, so byte identity is per revision;
//! the decoded *results* do not depend on it.)
//!
//! # Resume semantics
//!
//! The log is append-only and replayed on startup: cells with a final
//! row are skipped; cells with chunk rows continue from the recorded
//! cumulative counts at the next chunk index. Rows carry the spec
//! fingerprint, so resuming with an *edited* spec fails loudly instead
//! of silently mixing incompatible grids; every row also records the
//! *resolved* thread count, so a `threads = 0` (auto) campaign resumed
//! on a machine with a different core count is refused outright rather
//! than mixing incompatible per-thread shot streams in one log.

use crate::report;
use crate::row::{CellRow, ChunkRow, LogRecord};
use crate::spec::{CampaignSpec, Cell, NoiseSpec, SpecError};
use bpsf_core::stats::wilson_interval;
use qldpc_circuit::{DetectorErrorModel, MemoryExperiment, NoiseModel};
use qldpc_codes::CssCode;
use qldpc_sim::{
    run_circuit_level, run_code_capacity, BatchConfig, CircuitLevelConfig, CodeCapacityConfig,
    RunReport,
};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Errors surfaced by [`run_campaign`].
#[derive(Debug)]
pub enum CampaignError {
    /// The spec failed to parse or expand.
    Spec(SpecError),
    /// Filesystem trouble (log/report paths).
    Io(String),
    /// The existing log is malformed or belongs to a different spec.
    Log(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Spec(e) => write!(f, "{e}"),
            CampaignError::Io(e) => write!(f, "I/O error: {e}"),
            CampaignError::Log(e) => write!(f, "result log error: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<SpecError> for CampaignError {
    fn from(e: SpecError) -> Self {
        CampaignError::Spec(e)
    }
}

/// How to execute a campaign run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Output directory; holds the JSONL log and the generated reports.
    pub out_dir: PathBuf,
    /// Run only cells with `index % m == i` for `shard = Some((i, m))` —
    /// the unit of multi-machine fan-out. Sharded runs log to
    /// shard-suffixed files; merge them with `campaign report`.
    pub shard: Option<(usize, usize)>,
    /// Suppress per-chunk progress on stdout.
    pub quiet: bool,
    /// Decode through a networked service at this address (TCP
    /// `host:port`, or a UDS path when it contains `/`) instead of
    /// in-process decoders. The service must have every cell registered
    /// under its cell id (see [`cell_decoder_inputs`]); `serve --spec`
    /// does exactly that. Every decoder family is a pure function of its
    /// inputs and the syndrome, so the rows are byte-identical either
    /// way.
    pub service: Option<String>,
}

impl RunOptions {
    /// Runs everything into `out_dir`, unsharded, with progress output.
    pub fn new(out_dir: impl Into<PathBuf>) -> Self {
        Self {
            out_dir: out_dir.into(),
            shard: None,
            quiet: false,
            service: None,
        }
    }
}

/// What a campaign run did.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Cells in this run's (shard of the) grid.
    pub cells_total: usize,
    /// Cells actually executed (at least one new chunk).
    pub cells_run: usize,
    /// Cells skipped because the log already held their final row.
    pub cells_skipped: usize,
    /// Every final row now in the log, in cell order.
    pub rows: Vec<CellRow>,
    /// Path of the JSONL log.
    pub results_path: PathBuf,
    /// Path of the regenerated `REPRO.md` (unsharded runs only).
    pub report_path: Option<PathBuf>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The deterministic seed of chunk `chunk` of full-grid cell
/// `cell_index` under base seed `base` (see the module docs).
///
/// The top byte is masked off: the batched runners derive per-thread
/// seeds as `chunk_seed + t`, and a full-range u64 could overflow that
/// addition (panicking in debug builds) — 2^56 seeds leave the spread
/// intact with headroom for any plausible thread count.
pub fn chunk_seed(base: u64, cell_index: usize, chunk: usize) -> u64 {
    splitmix64(splitmix64(splitmix64(base) ^ cell_index as u64) ^ chunk as u64) & (u64::MAX >> 8)
}

/// `git rev-parse --short=12 HEAD` of the *source checkout* (resolved
/// via the compile-time crate path, not the process cwd — running the
/// binary from inside some other repository must not stamp that repo's
/// revision), with a `-dirty` suffix when the checkout has uncommitted
/// changes (a clean-looking rev must not be attributed to code that
/// did not produce the results), or `"unknown"` when the checkout is
/// gone (rows must always be writable).
pub fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(["-C", env!("CARGO_MANIFEST_DIR")])
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(rev) = git(&["rev-parse", "--short=12", "HEAD"])
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
    else {
        return "unknown".to_string();
    };
    match git(&["status", "--porcelain"]) {
        Some(status) if status.trim().is_empty() => rev,
        // Dirty — or unknowable, which must not masquerade as clean.
        _ => format!("{rev}-dirty"),
    }
}

/// The `#hx` twin of a code-capacity cell id — the registration name
/// of the cell's *second* decoder (X checks seeing Z errors).
pub fn cell_hx_name(cell_id: &str) -> String {
    format!("{cell_id}#hx")
}

/// The (name, check matrix, priors) registrations a decode server
/// needs to serve a cell byte-identically — exported so `serve --spec`
/// registers exactly what the in-process engine would hand each
/// decoder factory. Code-capacity cells register **two** decoders —
/// `Hz` under the cell id (Z checks seeing X errors) and `Hx` under
/// [`cell_hx_name`] (X checks seeing Z errors), both against the
/// marginalized flip rate `2p/3` — because the code-capacity runner
/// decodes both error species. Circuit-level cells register one: the
/// detector error model of the cell's memory experiment.
pub fn cell_decoder_inputs(
    spec: &CampaignSpec,
    cell: &Cell,
) -> Vec<(String, qldpc_gf2::SparseBitMatrix, Vec<f64>)> {
    let code = qldpc_codes::paper_code(&cell.code_slug).expect("slugs validated at parse time");
    match spec.noise {
        NoiseSpec::CodeCapacity => {
            let marginal = 2.0 * cell.p / 3.0;
            let priors = vec![marginal; code.n()];
            vec![
                (cell.id(), code.hz().clone(), priors.clone()),
                (cell_hx_name(&cell.id()), code.hx().clone(), priors),
            ]
        }
        NoiseSpec::CircuitLevel { .. } => {
            let noise = NoiseModel::uniform_depolarizing(cell.p);
            let dem = MemoryExperiment::memory_z(&code, cell.rounds, &noise).detector_error_model();
            vec![(cell.id(), dem.check_matrix().clone(), dem.priors().to_vec())]
        }
    }
}

/// The log file name for a given shard selection.
pub fn results_file_name(shard: Option<(usize, usize)>) -> String {
    match shard {
        None => "results.jsonl".to_string(),
        Some((i, m)) => format!("results.shard{i}of{m}.jsonl"),
    }
}

/// A half-finished cell's state replayed from chunk rows.
#[derive(Debug, Clone, Copy)]
struct PartialCell {
    next_chunk: usize,
    shots: usize,
    failures: usize,
    unsolved: usize,
    bp_iters: u64,
    /// The resolved thread count the recorded chunks ran with — resume
    /// refuses to continue the cell under a different one.
    threads: usize,
}

/// Per-cell state replayed from an existing log.
#[derive(Debug, Default)]
struct Replayed {
    finals: BTreeMap<String, CellRow>,
    partial: BTreeMap<String, PartialCell>,
}

/// Repairs a log whose last append was torn by a hard kill (power loss,
/// `kill -9` between the row text and its newline, or mid-row): a
/// complete unterminated last row gets its newline; an unparseable
/// trailing fragment is dropped — its chunk was never replayable, and
/// deterministic seeding means the resumed run re-decodes it
/// identically. Returns the repaired text. Parse errors anywhere *not*
/// at an unterminated tail are real corruption and stay fatal upstream.
fn repair_torn_tail(path: &Path, text: String) -> Result<String, CampaignError> {
    if text.is_empty() || text.ends_with('\n') {
        return Ok(text);
    }
    let io_err =
        |e: std::io::Error| CampaignError::Io(format!("repairing {}: {e}", path.display()));
    let tail_start = text.rfind('\n').map_or(0, |i| i + 1);
    if crate::row::parse_record(&text[tail_start..]).is_ok() {
        // Complete row, missing terminator: append just the newline —
        // no truncation, so a crash mid-repair cannot lose anything.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(io_err)?;
        f.write_all(b"\n")
            .and_then(|()| f.flush())
            .map_err(io_err)?;
        return Ok(format!("{text}\n"));
    }
    // Unparseable fragment: drop it via a temp file + atomic rename, so
    // a crash during the rewrite leaves either the old log or the
    // repaired one — never a truncated file.
    let repaired = text[..tail_start].to_string();
    let tmp = path.with_extension("jsonl.repair-tmp");
    std::fs::write(&tmp, &repaired)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(io_err)?;
    Ok(repaired)
}

fn replay_log(path: &Path, spec: &CampaignSpec) -> Result<Replayed, CampaignError> {
    let mut state = Replayed::default();
    if !path.exists() {
        return Ok(state);
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| CampaignError::Io(format!("reading {}: {e}", path.display())))?;
    let text = repair_torn_tail(path, text)?;
    let records = crate::row::parse_log(&text)
        .map_err(|e| CampaignError::Log(format!("{}: {e}", path.display())))?;
    let fingerprint = spec.fingerprint();
    for record in records {
        let (campaign, row_spec) = match &record {
            LogRecord::Chunk(c) => (&c.campaign, &c.spec),
            LogRecord::Cell(c) => (&c.campaign, &c.spec),
        };
        if campaign != &spec.name || row_spec != &fingerprint {
            return Err(CampaignError::Log(format!(
                "{} holds rows of campaign '{campaign}' (spec {row_spec}), but this run is \
                 campaign '{}' (spec {fingerprint}); use a fresh --out directory per spec",
                path.display(),
                spec.name,
            )));
        }
        match record {
            LogRecord::Chunk(c) => {
                state.partial.insert(
                    c.cell.clone(),
                    PartialCell {
                        next_chunk: c.chunk + 1,
                        shots: c.cum_shots,
                        failures: c.cum_failures,
                        unsolved: c.cum_unsolved,
                        bp_iters: c.cum_bp_iters,
                        threads: c.threads,
                    },
                );
            }
            LogRecord::Cell(c) => {
                state.finals.insert(c.cell.clone(), *c);
            }
        }
    }
    Ok(state)
}

/// One reusable circuit-level DEM (cells sharing code × p × rounds reuse
/// it across decoders and precisions).
struct DemCache {
    key: (String, u64, usize),
    dem: DetectorErrorModel,
}

/// Runs a campaign: expands the spec, replays the log, executes the
/// remaining cells adaptively, and (for unsharded runs) regenerates
/// `REPRO.md` and `results.tsv` next to the log.
///
/// # Errors
///
/// See [`CampaignError`]; a failed run can always be resumed — the log
/// is flushed after every appended row.
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: &RunOptions,
) -> Result<CampaignOutcome, CampaignError> {
    if let Some((i, m)) = opts.shard {
        if m == 0 || i >= m {
            return Err(CampaignError::Spec(SpecError {
                line: 0,
                message: format!("shard {i}/{m} is not a valid selection (need i < m, m > 0)"),
            }));
        }
    }
    let all_cells = spec.cells()?;
    let cells: Vec<&Cell> = all_cells
        .iter()
        .filter(|c| opts.shard.is_none_or(|(i, m)| c.index % m == i))
        .collect();
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| CampaignError::Io(format!("creating {}: {e}", opts.out_dir.display())))?;
    let results_path = opts.out_dir.join(results_file_name(opts.shard));
    let replayed = replay_log(&results_path, spec)?;

    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&results_path)
        .map_err(|e| CampaignError::Io(format!("opening {}: {e}", results_path.display())))?;
    let mut append = |line: &str| -> Result<(), CampaignError> {
        writeln!(log, "{line}")
            .and_then(|()| log.flush())
            .map_err(|e| CampaignError::Io(format!("appending to {}: {e}", results_path.display())))
    };

    // `threads = 0` means "auto" — defer to BatchConfig's resolution so
    // the whole workspace has exactly one definition of it.
    let threads = if spec.threads == 0 {
        BatchConfig::default().threads
    } else {
        spec.threads
    };
    let batch = BatchConfig {
        threads,
        batch_size: spec.batch_size,
    };
    let fingerprint = spec.fingerprint();
    let rev = git_rev();

    let mut code_cache: BTreeMap<String, CssCode> = BTreeMap::new();
    let mut dem_cache: Option<DemCache> = None;
    let mut rows: Vec<CellRow> = Vec::new();
    let mut cells_run = 0usize;
    let mut cells_skipped = 0usize;

    // One thread-count rule for every replayed row, finished or partial:
    // a `threads = 0` (auto) campaign resumed on a machine that resolves
    // to a different count must not mix per-thread shot streams in one
    // log, so the whole resume is refused, not just the touched cells.
    let thread_mismatch = |id: &str, recorded: usize| -> CampaignError {
        CampaignError::Log(format!(
            "cell '{id}' has recorded rows run with {recorded} thread(s) but this run resolves \
             to {threads}; per-thread seeding makes the streams incompatible — resume on a \
             machine with the same core count, or pin `threads` in the spec"
        ))
    };

    for (pos, cell) in cells.iter().enumerate() {
        let id = cell.id();
        if let Some(done) = replayed.finals.get(&id) {
            if done.threads != threads {
                return Err(thread_mismatch(&id, done.threads));
            }
            cells_skipped += 1;
            if !opts.quiet {
                println!(
                    "[{}/{}] {id}: already finished ({} shots), skipping",
                    pos + 1,
                    cells.len(),
                    done.shots
                );
            }
            rows.push(done.clone());
            continue;
        }
        let code = code_cache
            .entry(cell.code_slug.clone())
            .or_insert_with(|| {
                qldpc_codes::paper_code(&cell.code_slug).expect("slugs validated at parse time")
            })
            .clone();
        // The in-process factory stays authoritative for the report
        // row's descriptor (label/family/precision) even when decoding
        // remotely — the service registers the same decoders, and the
        // rows must byte-compare across the two execution modes.
        let factory = cell.decoder.factory(cell.precision);

        // Build (or reuse) the circuit-level DEM; probe the decoder's
        // descriptor against the matrix it will actually decode.
        let dem = match spec.noise {
            NoiseSpec::CodeCapacity => None,
            NoiseSpec::CircuitLevel { .. } => {
                let key = (cell.code_slug.clone(), cell.p.to_bits(), cell.rounds);
                if dem_cache.as_ref().map(|c| &c.key) != Some(&key) {
                    let noise = NoiseModel::uniform_depolarizing(cell.p);
                    let dem = MemoryExperiment::memory_z(&code, cell.rounds, &noise)
                        .detector_error_model();
                    dem_cache = Some(DemCache { key, dem });
                }
                Some(&dem_cache.as_ref().unwrap().dem)
            }
        };
        let descriptor = match dem {
            Some(dem) => factory(dem.check_matrix(), dem.priors()).descriptor(),
            None => {
                let marginal = 2.0 * cell.p / 3.0;
                factory(code.hz(), &vec![marginal; code.n()]).descriptor()
            }
        };

        // Under --service, decode through the wire: each runner thread
        // builds its own connection to the cell's remotely-registered
        // twin. Shot generation, seeding and stopping stay local, so
        // the only thing that changes is where `decode_syndrome` runs.
        // Code-capacity runners instantiate the factory twice — once
        // with Hz, once with Hx — so the remote factory routes by the
        // matrix it is handed to the matching registration.
        let factory = match &opts.service {
            None => factory,
            Some(addr) => match dem {
                Some(_) => qldpc_client::remote_decoder_factory(addr.clone(), id.clone()),
                None => {
                    let hz = code.hz().clone();
                    let addr = addr.clone();
                    let id_hz = id.clone();
                    let id_hx = cell_hx_name(&id);
                    Box::new(move |h: &qldpc_gf2::SparseBitMatrix, _priors: &[f64]| {
                        let name = if *h == hz { &id_hz } else { &id_hx };
                        let decoder = qldpc_client::RemoteDecoder::connect(&addr, name)
                            .unwrap_or_else(|e| panic!("remote decoder '{name}' at {addr}: {e}"));
                        Box::new(decoder) as Box<dyn qldpc_decoder_api::SyndromeDecoder>
                    })
                }
            },
        };

        let partial = replayed.partial.get(&id).copied().unwrap_or(PartialCell {
            next_chunk: 0,
            shots: 0,
            failures: 0,
            unsolved: 0,
            bp_iters: 0,
            threads,
        });
        if partial.threads != threads {
            return Err(thread_mismatch(&id, partial.threads));
        }
        let PartialCell {
            mut next_chunk,
            mut shots,
            mut failures,
            mut unsolved,
            mut bp_iters,
            ..
        } = partial;
        if !opts.quiet {
            let resumed = if shots > 0 {
                format!(" (resuming at {shots} shots)")
            } else {
                String::new()
            };
            println!("[{}/{}] {id}{resumed}", pos + 1, cells.len());
        }
        let stop = loop {
            // Success rule first, so a final chunk that both reaches the
            // cap and satisfies the target records "half-width".
            if shots > 0
                && wilson_interval(failures, shots, spec.confidence).half_width()
                    <= spec.target_half_width
            {
                break "half-width";
            }
            if shots >= spec.max_shots {
                break "shot-cap";
            }
            let this_chunk = spec.chunk_shots.min(spec.max_shots - shots);
            let seed = chunk_seed(spec.seed, cell.index, next_chunk);
            let report: RunReport = match dem {
                None => run_code_capacity(
                    &code,
                    &CodeCapacityConfig {
                        p: cell.p,
                        shots: this_chunk,
                        seed,
                    },
                    &factory,
                    &batch,
                ),
                Some(dem) => run_circuit_level(
                    dem,
                    &id,
                    &CircuitLevelConfig {
                        shots: this_chunk,
                        seed,
                    },
                    &factory,
                    &batch,
                ),
            };
            shots += report.shots;
            failures += report.failures;
            unsolved += report.unsolved;
            let chunk_bp_iters = report.total_serial_iterations();
            bp_iters += chunk_bp_iters;
            let row = ChunkRow {
                campaign: spec.name.clone(),
                spec: fingerprint.clone(),
                cell: id.clone(),
                chunk: next_chunk,
                chunk_seed: seed,
                threads,
                shots: report.shots,
                failures: report.failures,
                unsolved: report.unsolved,
                bp_iters: chunk_bp_iters,
                cum_shots: shots,
                cum_failures: failures,
                cum_unsolved: unsolved,
                cum_bp_iters: bp_iters,
            };
            append(&row.to_json())?;
            if !opts.quiet {
                let hw = wilson_interval(failures, shots, spec.confidence).half_width();
                println!(
                    "    chunk {next_chunk}: {}/{} failures; cumulative {failures}/{shots}, \
                     CI half-width {hw:.4} (target {})",
                    report.failures, report.shots, spec.target_half_width
                );
            }
            next_chunk += 1;
        };

        let ci = wilson_interval(failures, shots, spec.confidence);
        let row = CellRow {
            campaign: spec.name.clone(),
            spec: fingerprint.clone(),
            cell: id.clone(),
            code: cell.code_slug.clone(),
            code_name: code.name().to_string(),
            n: code.n(),
            k: code.k(),
            d: code.d(),
            noise: match spec.noise {
                NoiseSpec::CodeCapacity => "code-capacity".to_string(),
                NoiseSpec::CircuitLevel { .. } => "circuit-level".to_string(),
            },
            p: cell.p,
            rounds: cell.rounds,
            decoder: descriptor.label,
            family: descriptor.family.name().to_string(),
            precision: descriptor.precision.name().to_string(),
            shots,
            failures,
            unsolved,
            bp_iters,
            ler: if shots == 0 {
                0.0
            } else {
                failures as f64 / shots as f64
            },
            ci_lo: ci.lo,
            ci_hi: ci.hi,
            confidence: spec.confidence,
            target_half_width: spec.target_half_width,
            stop: stop.to_string(),
            chunks: next_chunk,
            seed: spec.seed,
            threads,
            batch_size: spec.batch_size,
            git_rev: rev.clone(),
        };
        append(&row.to_json())?;
        if !opts.quiet {
            println!(
                "    done: LER {:.3e} [{:.2e}, {:.2e}] @{} after {} shots ({stop})",
                row.ler, row.ci_lo, row.ci_hi, row.confidence, row.shots
            );
        }
        rows.push(row);
        cells_run += 1;
    }

    // Regenerate the reports for complete (unsharded) runs; sharded
    // shards merge later via `campaign report`.
    let report_path = if opts.shard.is_none() {
        let md_path = opts.out_dir.join("REPRO.md");
        std::fs::write(&md_path, report::render_markdown(&rows))
            .map_err(|e| CampaignError::Io(format!("writing {}: {e}", md_path.display())))?;
        let tsv_path = opts.out_dir.join("results.tsv");
        std::fs::write(&tsv_path, report::render_tsv(&rows))
            .map_err(|e| CampaignError::Io(format!("writing {}: {e}", tsv_path.display())))?;
        Some(md_path)
    } else {
        None
    };

    Ok(CampaignOutcome {
        cells_total: cells.len(),
        cells_run,
        cells_skipped,
        rows,
        results_path,
        report_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_seeds_are_spread_out() {
        // Different (cell, chunk) pairs must not produce seeds within a
        // plausible thread-count offset of each other (the batched
        // runner uses seed + t per thread).
        let mut seeds = Vec::new();
        for cell in 0..64 {
            for chunk in 0..16 {
                seeds.push(chunk_seed(2026, cell, chunk));
            }
        }
        seeds.sort_unstable();
        for pair in seeds.windows(2) {
            assert!(pair[1] - pair[0] > 1024, "seeds too close: {pair:?}");
        }
        // And they are a pure function of the inputs.
        assert_eq!(chunk_seed(1, 2, 3), chunk_seed(1, 2, 3));
        assert_ne!(chunk_seed(1, 2, 3), chunk_seed(1, 2, 4));
        assert_ne!(chunk_seed(1, 2, 3), chunk_seed(1, 3, 3));
        assert_ne!(chunk_seed(1, 2, 3), chunk_seed(2, 2, 3));
    }

    #[test]
    fn git_rev_is_nonempty() {
        // Inside this repo it is a hex rev; elsewhere the fallback.
        let rev = git_rev();
        assert!(!rev.is_empty());
    }

    #[test]
    fn shard_file_names() {
        assert_eq!(results_file_name(None), "results.jsonl");
        assert_eq!(results_file_name(Some((2, 5))), "results.shard2of5.jsonl");
    }
}
