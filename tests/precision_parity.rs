//! Accuracy-parity harness: the f32 fast path must not cost accuracy.
//!
//! Decodes the `[[144,12,12]]` gross code at the paper's code-capacity
//! operating point in both precisions over the *same* sampled shot
//! stream (same seed ⇒ identical errors and syndromes), and asserts the
//! f32 logical-error rate lands within a stated tolerance of f64's.
//! min-sum messages only need to order magnitudes and carry signs, so
//! the two precisions disagree on a shot only when a decode trajectory
//! passes within f32 rounding distance of a decision boundary — rare at
//! these operating points, and unbiased in direction.
//!
//! The full-size run (400 shots/precision) is tuned for the release
//! test job (`cargo test --release`, CI's `test-release`); debug builds
//! run a 60-shot smoke with a correspondingly looser tolerance so the
//! suite stays fast under `cargo test -q`.

use bpsf::prelude::*;
use bpsf::sim::{run_code_capacity, CodeCapacityConfig};

/// Paper-style code-capacity operating point for the gross code: BP40
/// flooding at depolarizing rate p = 0.06, where plain BP has a
/// measurable but not saturated failure rate (LER ≈ 0.08 at 400
/// release shots — the value EXPERIMENTS.md records), giving the
/// parity comparison statistical teeth.
const BP_ITERS: usize = 40;
const P_DEPOLARIZING: f64 = 0.06;

/// Shots per precision and the LER tolerance: release gets the real
/// run, debug a smoke-sized one. The tolerance is an absolute LER gap —
/// generous against binomial noise on the *difference* (the shot
/// streams are identical, so only precision-divergent shots contribute)
/// yet far below the ~0.2 gap that would signal a broken f32 path.
const SHOTS: usize = if cfg!(debug_assertions) { 60 } else { 400 };
const LER_TOLERANCE: f64 = if cfg!(debug_assertions) { 0.15 } else { 0.08 };

/// Both precision sweeps, run once and shared by every test in this
/// file (each is an intentionally expensive release-CI workload; the
/// reports are deterministic, so caching loses no coverage).
fn reports() -> &'static (bpsf::sim::RunReport, bpsf::sim::RunReport) {
    static REPORTS: std::sync::OnceLock<(bpsf::sim::RunReport, bpsf::sim::RunReport)> =
        std::sync::OnceLock::new();
    REPORTS.get_or_init(|| (run_at(Precision::F64), run_at(Precision::F32)))
}

fn run_at(precision: Precision) -> bpsf::sim::RunReport {
    let config = CodeCapacityConfig {
        p: P_DEPOLARIZING,
        shots: SHOTS,
        seed: 20260728,
    };
    run_code_capacity(
        &bb::gross_code(),
        &config,
        &bpsf::sim::decoders::plain_bp_at(BP_ITERS, precision),
        &BatchConfig::SEQUENTIAL,
    )
}

#[test]
fn f32_logical_error_rate_matches_f64_within_tolerance() {
    let (f64_report, f32_report) = reports();
    assert_eq!(f64_report.precision, Precision::F64);
    assert_eq!(f32_report.precision, Precision::F32);
    assert_eq!(f64_report.shots, SHOTS);
    assert_eq!(f32_report.shots, SHOTS);

    let (ler64, ler32) = (f64_report.ler(), f32_report.ler());
    println!(
        "gross code, BP{BP_ITERS}, p={P_DEPOLARIZING}, {SHOTS} shots/precision: \
         LER f64={ler64:.4} (±{:.4}) f32={ler32:.4} (±{:.4}) |Δ|={:.4} tol={LER_TOLERANCE}",
        f64_report.ler_std_err(),
        f32_report.ler_std_err(),
        (ler64 - ler32).abs(),
    );

    // The operating point must actually exercise the decoder: plain BP
    // fails some shots here but solves the clear majority.
    assert!(ler64 > 0.0, "operating point too easy to measure parity");
    assert!(ler64 < 0.6, "operating point saturated; parity meaningless");
    assert!(
        (ler64 - ler32).abs() <= LER_TOLERANCE,
        "f32 LER {ler32:.4} drifted more than {LER_TOLERANCE} from f64 LER {ler64:.4}"
    );
}

/// Per-shot agreement, not just aggregate rates: on the shared shot
/// stream the two precisions must reach the same solved/failed verdict
/// on nearly every shot (disagreements are allowed only for the rare
/// boundary trajectories).
#[test]
fn precisions_agree_shot_by_shot_almost_always() {
    let (f64_report, f32_report) = reports();
    let disagreements = f64_report
        .records
        .iter()
        .zip(&f32_report.records)
        .filter(|(a, b)| a.failed != b.failed)
        .count();
    let rate = disagreements as f64 / SHOTS as f64;
    println!("per-shot verdict disagreement: {disagreements}/{SHOTS} ({rate:.4})");
    assert!(
        rate <= LER_TOLERANCE,
        "precisions disagree on {disagreements}/{SHOTS} shots"
    );
}
