//! Tour of every code family in the paper: parameters, check weights and
//! a quick BP-friendliness probe.
//!
//! Reproduces the observation behind the paper's Appendix B: some codes
//! (e.g. BB [[72,12,6]]) decode well with plain BP, while others (the
//! [[154,6,16]] coprime-BB code) leave a large gap for post-processing to
//! close.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example code_zoo
//! ```

use bpsf::prelude::*;
use bpsf::sim::RunReport;

fn probe(code: &CssCode, p: f64, shots: usize) -> (RunReport, RunReport) {
    let config = CodeCapacityConfig { p, shots, seed: 11 };
    let bp = run_code_capacity(
        code,
        &config,
        &decoders::plain_bp(100),
        &BatchConfig::SEQUENTIAL,
    );
    let sf = run_code_capacity(
        code,
        &config,
        &decoders::bp_sf(BpSfConfig::code_capacity(100, 8, 1)),
        &BatchConfig::SEQUENTIAL,
    );
    (bp, sf)
}

fn main() {
    let p = 0.05;
    let shots = 100;
    println!("code-capacity probe at p = {p}, {shots} shots per code\n");
    println!(
        "{:<28} {:>4} {:>4} {:>5} {:>6} {:>9} {:>12} {:>12}",
        "code", "n", "k", "d", "rowwt", "subsys", "BP100 LER", "BP-SF LER"
    );
    for code in qldpc_codes::paper_codes() {
        let (bp, sf) = probe(&code, p, shots);
        println!(
            "{:<28} {:>4} {:>4} {:>5} {:>6} {:>9} {:>12.3e} {:>12.3e}",
            code.name(),
            code.n(),
            code.k(),
            code.d().map_or_else(|| "?".into(), |d| d.to_string()),
            code.hz().max_row_degree(),
            code.is_subsystem(),
            bp.ler(),
            sf.ler(),
        );
    }
    println!("\nBP-SF matches plain BP on \"good\" codes and rescues the hard ones.");
}
