//! Precision × batch-width sweep of the BP decoder's interleaved tiles.
//!
//! The payoff measurement for the precision-generic core: decodes the
//! same gross-code shot set with `f64` and `f32` message slabs at
//! B ∈ {1, 8, 32, `DEFAULT_MAX_LANES`} — B = 1 is `decode` per shot, the
//! per-shot baseline — and writes the ns/shot series — and the headline
//! f32-vs-f64 throughput ratio at the widest batch — to
//! `BENCH_bp_precision.json` at the workspace root. Half-width slabs
//! double the effective SIMD lanes of the lane loops and halve their
//! memory traffic, so f32 should win and win more as B grows; the JSON
//! records by how much on this machine.
//!
//! The artifact also records the **resolved dispatch target** and CPU
//! feature string the un-forced series ran on, plus a forced per-target
//! series at the widest batch (every compiled-in target × both
//! precisions) — the payoff of interleaving over decoding every lane
//! alone (the scalar target) at identical output bits.
//!
//! Both precisions decode the identical syndromes; accuracy parity is
//! *not* measured here (that is `tests/precision_parity.rs`) — at fixed
//! iteration counts the work per shot is precision-independent, so this
//! sweep is a pure arithmetic/bandwidth comparison.

use qldpc_bp::{
    active_simd_target, simd_cpu_features, supported_simd_targets, BpConfig, Llr, MinSumDecoderOf,
    Precision, SimdTarget, DEFAULT_MAX_LANES,
};
use qldpc_gf2::BitVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Random gross-code syndromes from i.i.d. errors at rate `p`.
fn gross_syndromes(shots: usize, p: f64, seed: u64) -> Vec<BitVec> {
    let code = qldpc_codes::bb::gross_code();
    let hz = code.hz();
    let n = hz.cols();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..shots)
        .map(|_| {
            let mut e = BitVec::zeros(n);
            for i in 0..n {
                if rng.random_bool(p) {
                    e.set(i, true);
                }
            }
            hz.mul_vec(&e)
        })
        .collect()
}

/// Median-of-samples wall time for `f` over the whole shot set, in
/// nanoseconds per shot.
fn ns_per_shot(shots: usize, samples: usize, mut f: impl FnMut()) -> u64 {
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2] / shots as u64
}

/// One precision's batch-width series, `Vec<(width, ns)>`; `widths`
/// starts at 1, the per-shot baseline the other widths are held to.
fn sweep_precision<T: Llr>(
    syndromes: &[BitVec],
    widths: &[usize],
    samples: usize,
    config: BpConfig,
) -> Vec<(usize, u64)> {
    let code = qldpc_codes::bb::gross_code();
    let hz = code.hz();
    let priors = vec![0.03; hz.cols()];
    let shots = syndromes.len();
    let mut series: Vec<(usize, u64)> = Vec::new();
    for &width in widths {
        let mut engine = MinSumDecoderOf::<T>::new(hz, &priors, config);
        let batch_ns = ns_per_shot(shots, samples, || {
            for chunk in syndromes.chunks(width) {
                std::hint::black_box(engine.decode_batch_results(chunk));
            }
        });
        let one_ns = series.first().map_or(batch_ns, |&(_, ns)| ns);
        let speedup = one_ns as f64 / batch_ns.max(1) as f64;
        println!(
            "bp_precision_sweep/{}/B={width}: {batch_ns} ns/shot ({speedup:.2}x vs same-precision B=1)",
            T::PRECISION
        );
        series.push((width, batch_ns));
    }
    series
}

/// Forces the decoder through every compiled-in SIMD dispatch target at
/// one batch width and returns the per-target ns/shot — the SIMD payoff
/// measurement (interleaved lanes vs every lane decoded alone at the
/// scalar target, same precision, same bits out).
fn sweep_forced_targets<T: Llr>(
    syndromes: &[BitVec],
    width: usize,
    samples: usize,
    config: BpConfig,
) -> Vec<(SimdTarget, u64)> {
    let code = qldpc_codes::bb::gross_code();
    let hz = code.hz();
    let priors = vec![0.03; hz.cols()];
    let shots = syndromes.len();
    let mut series = Vec::new();
    for &target in supported_simd_targets() {
        let forced = BpConfig {
            simd_target: Some(target),
            ..config
        };
        let mut engine = MinSumDecoderOf::<T>::new(hz, &priors, forced);
        let ns = ns_per_shot(shots, samples, || {
            for chunk in syndromes.chunks(width) {
                std::hint::black_box(engine.decode_batch_results(chunk));
            }
        });
        series.push((target, ns));
    }
    let scalar_ns = series
        .iter()
        .find(|(t, _)| *t == SimdTarget::Scalar)
        .map(|&(_, ns)| ns)
        .unwrap_or(0);
    for &(target, ns) in &series {
        println!(
            "bp_precision_sweep/{}/B={width}/target={target}: {ns} ns/shot \
             ({:.2}x vs every lane alone at the same width)",
            T::PRECISION,
            scalar_ns as f64 / ns.max(1) as f64
        );
    }
    series
}

/// The sweep driver. Emits `BENCH_bp_precision.json` with one series per
/// precision and the headline f32/f64 ratio at the widest batch.
fn main() {
    // `cargo bench` invokes bench binaries with `--bench`; anything else
    // (`cargo test --benches` runs them with NO marker argument, and in
    // the dev profile at that) gets a fast smoke pass that must not
    // overwrite the measurement artifact.
    let smoke = !std::env::args().any(|a| a == "--bench");
    let (shots, samples) = if smoke { (8, 1) } else { (256, 5) };
    let bp_iters = 20;
    let config = BpConfig {
        max_iters: bp_iters,
        ..BpConfig::default()
    };
    let syndromes = gross_syndromes(shots, 0.05, 7);
    let mut widths = vec![1usize, 8, 32, DEFAULT_MAX_LANES];
    widths.retain(|&w| w <= shots); // smoke mode caps the shot count

    // The dispatch target the un-forced series below actually ran on
    // (auto-detected, `QLDPC_SIMD_TARGET`-overridable) and the CPU
    // features behind the decision — without these the ns/shot numbers
    // are not interpretable across machines.
    let active = active_simd_target();
    let features = simd_cpu_features();
    println!("bp_precision_sweep: simd_target={active} cpu_features={features}");

    let series64 = sweep_precision::<f64>(&syndromes, &widths, samples, config);
    let series32 = sweep_precision::<f32>(&syndromes, &widths, samples, config);

    // The SIMD payoff at the widest batch: every compiled-in
    // target forced in turn, both precisions.
    let max_width = *widths.last().expect("nonempty width list");
    let targets64 = sweep_forced_targets::<f64>(&syndromes, max_width, samples, config);
    let targets32 = sweep_forced_targets::<f32>(&syndromes, max_width, samples, config);

    // Headline: f32 throughput vs f64 at the widest batch width.
    let (_, ns64) = *series64.last().expect("nonempty sweep");
    let (_, ns32) = *series32.last().expect("nonempty sweep");
    let f32_vs_f64 = ns64 as f64 / ns32.max(1) as f64;
    println!("bp_precision_sweep: f32 is {f32_vs_f64:.2}x f64 throughput at B={max_width}");

    if smoke {
        // `cargo test` runs bench targets with `--test`: keep the smoke
        // pass from clobbering a real measurement artifact.
        println!("bp_precision_sweep: smoke mode, not writing BENCH_bp_precision.json");
        return;
    }

    let render_series =
        |precision: Precision, series: &[(usize, u64)], targets: &[(SimdTarget, u64)]| {
            let scalar_ns = series[0].1;
            let rows: Vec<String> = series
                .iter()
                .map(|&(width, ns)| {
                    format!(
                        "      {{\"batch_width\": {width}, \"ns_per_shot\": {ns}, \
                         \"speedup_vs_scalar\": {:.3}}}",
                        scalar_ns as f64 / ns.max(1) as f64
                    )
                })
                .collect();
            let kernel_scalar = targets
                .iter()
                .find(|(t, _)| *t == SimdTarget::Scalar)
                .map(|&(_, ns)| ns)
                .unwrap_or(0);
            let target_rows: Vec<String> = targets
                .iter()
                .map(|&(target, ns)| {
                    format!(
                        "      {{\"target\": \"{target}\", \"ns_per_shot\": {ns}, \
                         \"speedup_vs_scalar_kernel\": {:.3}}}",
                        kernel_scalar as f64 / ns.max(1) as f64
                    )
                })
                .collect();
            format!(
                "    {{\"precision\": \"{precision}\", \"bytes_per_message\": {}, \
                 \"scalar_ns_per_shot\": {scalar_ns}, \"series\": [\n{}\n    ],\n  \
                 \"forced_targets_at_max_batch\": [\n{}\n    ]}}",
                precision.bytes_per_message(),
                rows.join(",\n"),
                target_rows.join(",\n")
            )
        };
    let json = format!(
        "{{\n  \"bench\": \"bp_precision_sweep\",\n  \"code\": \"[[144,12,12]] gross\",\n  \
         \"bp_iters\": {bp_iters},\n  \"shots\": {shots},\n  \"error_rate\": 0.05,\n  \
         \"simd_target\": \"{active}\",\n  \"cpu_features\": \"{features}\",\n  \
         \"f32_vs_f64_at_max_batch\": {f32_vs_f64:.3},\n  \"max_batch\": {max_width},\n  \
         \"precisions\": [\n{},\n{}\n  ]\n}}\n",
        render_series(Precision::F64, &series64, &targets64),
        render_series(Precision::F32, &series32, &targets32),
    );
    // Bench binaries run with cwd = crates/bench; emit at the workspace
    // root where the other BENCH artifacts live.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bp_precision.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("bp_precision_sweep: wrote {path}"),
        Err(e) => eprintln!("bp_precision_sweep: could not write {path}: {e}"),
    }
}
