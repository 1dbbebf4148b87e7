//! What a result needs to describe itself: the source revision, the
//! compiler, the machine and the SIMD target the batch kernel resolved
//! to. Written into `benchmark/out/result-*.json` beside each result.
//!
//! The profile mismatch is deliberate and visible here: this package's
//! own `[profile.release]` governs the library code the direct
//! workloads link, the root manifest's profile governs `serve`.

use crate::Options;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The target the batch BP kernel dispatches to on this machine.
pub fn simd_target() -> String {
    let h = qldpc_codes::bb::bb72().hz().clone();
    let priors = vec![0.01; h.cols()];
    qldpc_bp::BatchMinSumDecoder::new(&h, &priors, qldpc_bp::BpConfig::default())
        .resolved_simd_target()
        .name()
        .to_string()
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

pub fn json(opts: Options) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_rev\": \"{}\", \"rustc\": \"{}\", \"cpu\": \"{}\", \"nproc\": {nproc}, \
         \"simd_target\": \"{}\", \"seed\": {}, \"seconds\": {}, \"passes\": {}, \
         \"trace\": {}, \"smoke\": {}}}",
        escape(&command_line("git", &["rev-parse", "--short=12", "HEAD"])),
        escape(&command_line("rustc", &["-V"])),
        escape(&cpu_model()),
        escape(&simd_target()),
        opts.seed,
        opts.seconds,
        crate::PASSES,
        opts.trace,
        opts.smoke,
    )
}
