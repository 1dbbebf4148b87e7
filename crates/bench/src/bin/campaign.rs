//! The campaign CLI: declarative LER sweeps with adaptive shot
//! allocation and generated reproduction reports.
//!
//! ```text
//! campaign run    --spec <file> [--out <dir>] [--shard i/m] [--quiet]
//! campaign plan   --spec <file>
//! campaign report --out <REPRO.md> [--tsv <file>] <results.jsonl>…
//! ```
//!
//! `run` executes the spec (resuming from an existing log in `--out`,
//! default `campaigns/<name>/`), appending to `results.jsonl` and — for
//! unsharded runs — regenerating `REPRO.md` and `results.tsv`. `plan`
//! prints the expanded cell grid without decoding. `report` merges one
//! or more logs (e.g. from sharded runs) into a single report.
//!
//! The spec schema is documented in `EXPERIMENTS.md` ("Campaigns") and
//! `specs/smoke.campaign` is a runnable example.

use qldpc_campaign::{read_cell_rows, render_markdown, render_tsv, CampaignSpec, RunOptions};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  campaign run    --spec <file> [--out <dir>] [--shard i/m] [--quiet] [--service <addr>]
  campaign plan   --spec <file>
  campaign report --out <REPRO.md> [--tsv <file>] <results.jsonl>...

run     execute (or resume) a campaign; writes JSONL + REPRO.md + results.tsv
plan    print the expanded cell grid of a spec without decoding
report  regenerate reports from one or more JSONL logs (merges shards)

--service <addr> decodes through a running `serve` instead of
in-process decoders: TCP host:port, or a UDS path when it contains '/'.
Serve the same spec (`serve --spec <file>`) so every cell id is
registered; every decoder family (BP, BP-OSD, BP-SF) produces
byte-identical rows either way.";

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("campaign: {message}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("plan") => plan(&args[1..]),
        Some("report") => report(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => fail(format!("unknown subcommand '{other}'\n{USAGE}")),
    }
}

/// Pulls the value following `flag` out of `args`, if present.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(pos);
    true
}

fn load_spec(args: &mut Vec<String>) -> Result<CampaignSpec, String> {
    let path = take_value(args, "--spec")?.ok_or("--spec <file> is required")?;
    CampaignSpec::from_file(&PathBuf::from(path)).map_err(|e| e.to_string())
}

fn parse_shard(text: &str) -> Result<(usize, usize), String> {
    let err = || format!("--shard must look like i/m (e.g. 0/4), got '{text}'");
    let (i, m) = text.split_once('/').ok_or_else(err)?;
    let (i, m): (usize, usize) = (i.parse().map_err(|_| err())?, m.parse().map_err(|_| err())?);
    if m == 0 || i >= m {
        return Err(format!("--shard {text}: need i < m and m > 0"));
    }
    Ok((i, m))
}

fn run(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let spec = match load_spec(&mut args) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let quiet = take_flag(&mut args, "--quiet");
    let shard = match take_value(&mut args, "--shard") {
        Ok(v) => match v.map(|s| parse_shard(&s)).transpose() {
            Ok(s) => s,
            Err(e) => return fail(e),
        },
        Err(e) => return fail(e),
    };
    let out_dir = match take_value(&mut args, "--out") {
        Ok(v) => v.map_or_else(
            || PathBuf::from("campaigns").join(&spec.name),
            PathBuf::from,
        ),
        Err(e) => return fail(e),
    };
    let service = match take_value(&mut args, "--service") {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    if !args.is_empty() {
        return fail(format!("unexpected arguments: {args:?}\n{USAGE}"));
    }
    match qldpc_campaign::run_campaign(
        &spec,
        &RunOptions {
            out_dir,
            shard,
            quiet,
            service,
        },
    ) {
        Ok(outcome) => {
            println!(
                "campaign '{}': {} cell(s) ({} run, {} resumed-complete) -> {}",
                spec.name,
                outcome.cells_total,
                outcome.cells_run,
                outcome.cells_skipped,
                outcome.results_path.display()
            );
            if let Some(report) = &outcome.report_path {
                println!("report: {}", report.display());
            } else {
                println!("sharded run: merge shards with `campaign report` when all are done");
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn plan(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let spec = match load_spec(&mut args) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if !args.is_empty() {
        return fail(format!("unexpected arguments: {args:?}\n{USAGE}"));
    }
    let cells = match spec.cells() {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    println!(
        "campaign '{}' (spec fingerprint {})",
        spec.name,
        spec.fingerprint()
    );
    println!(
        "stopping: half-width <= {} at {}% confidence, or {} shots (chunks of {})",
        spec.target_half_width,
        qldpc_campaign::report::fmt_pct(spec.confidence),
        spec.max_shots,
        spec.chunk_shots
    );
    println!("{} cell(s):", cells.len());
    for cell in &cells {
        println!("  [{:>4}] {}", cell.index, cell.id());
    }
    ExitCode::SUCCESS
}

fn report(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let out = match take_value(&mut args, "--out") {
        Ok(Some(o)) => PathBuf::from(o),
        Ok(None) => return fail("--out <REPRO.md> is required"),
        Err(e) => return fail(e),
    };
    let tsv = match take_value(&mut args, "--tsv") {
        Ok(v) => v.map(PathBuf::from),
        Err(e) => return fail(e),
    };
    if args.is_empty() {
        return fail(format!("need at least one results.jsonl\n{USAGE}"));
    }
    let rows = match read_cell_rows(&args) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    if let Err(e) = qldpc_campaign::report::check_consistency(&rows) {
        return fail(e);
    }
    if let Err(e) = std::fs::write(&out, render_markdown(&rows)) {
        return fail(format!("writing {}: {e}", out.display()));
    }
    println!("wrote {} ({} cell rows)", out.display(), rows.len());
    if let Some(tsv) = tsv {
        if let Err(e) = std::fs::write(&tsv, render_tsv(&rows)) {
            return fail(format!("writing {}: {e}", tsv.display()));
        }
        println!("wrote {}", tsv.display());
    }
    ExitCode::SUCCESS
}
