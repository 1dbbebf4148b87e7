//! Declarative simulation campaigns with adaptive shot allocation and
//! generated reproduction reports.
//!
//! This crate is the evidence layer of the reproduction: instead of
//! hand-run sweeps and hand-edited tables, a campaign *spec* declares a
//! grid — codes × decoders × noise points × precisions — and the engine
//! produces machine-checked results end to end:
//!
//! 1. [`spec`] parses the `key = value` spec file and expands the grid
//!    into [`spec::Cell`]s.
//! 2. [`engine`] runs each cell through the batched thread-parallel
//!    Monte Carlo runners of `qldpc-sim`, growing shots in chunks until
//!    the Wilson confidence interval on the logical error rate is
//!    narrower than the spec's target half-width (or a shot cap fires),
//!    appending every step to a JSONL log. Runs are **resumable** (the
//!    log is replayed on startup) and **shardable** (`--shard i/m`),
//!    and for a fixed spec they are **deterministic**: same spec ⇒
//!    byte-identical rows, pinned by `tests/determinism.rs`.
//! 3. [`report`] renders the final rows into `REPRO.md` (LER-vs-p
//!    tables with confidence intervals, stamped with git revision,
//!    seed and shot counts, plus the paper's BP-vs-BP-OSD crossover
//!    comparison) and a flat `results.tsv`.
//!
//! The spec schema is documented in `EXPERIMENTS.md` ("Campaigns");
//! the CLI lives in `crates/bench/src/bin/campaign.rs`.
//!
//! # Examples
//!
//! A complete micro-campaign, spec to report:
//!
//! ```
//! use qldpc_campaign::{run_campaign, CampaignSpec, RunOptions};
//!
//! let spec = CampaignSpec::parse(
//!     "name = doc\n\
//!      codes = bb72\n\
//!      noise = code-capacity\n\
//!      p = 0.05\n\
//!      decoders = bp:15\n\
//!      target_half_width = 0.2\n\
//!      chunk_shots = 25\n\
//!      max_shots = 50\n\
//!      threads = 1\n",
//! )
//! .unwrap();
//! let out = std::env::temp_dir().join(format!("qldpc-campaign-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&out);
//! let outcome = run_campaign(&spec, &RunOptions { quiet: true, ..RunOptions::new(&out) }).unwrap();
//! assert_eq!(outcome.cells_run, 1);
//! let repro = std::fs::read_to_string(outcome.report_path.unwrap()).unwrap();
//! assert!(repro.contains("| 0.05 | BP15 | f64 |"));
//! std::fs::remove_dir_all(&out).unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod jsonl;
pub mod report;
pub mod row;
pub mod spec;

pub use engine::{
    cell_decoder_inputs, cell_hx_name, chunk_seed, git_rev, run_campaign, CampaignError,
    CampaignOutcome, RunOptions,
};
pub use report::{check_consistency, read_cell_rows, render_markdown, render_tsv};
pub use row::{CellRow, ChunkRow, LogRecord, SCHEMA};
pub use spec::{CampaignSpec, Cell, DecoderSpec, NoiseSpec, Rounds, SpecError};
