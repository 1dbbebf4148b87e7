//! The text-exposition endpoint, pinned by a committed golden file.
//!
//! The scenario is fully deterministic below the clock: one shard,
//! sequential submissions each waited to completion, fixed
//! syndromes. Every non-timing series — request counters, batch-size
//! buckets, convergence counters, histogram sample *counts* — must
//! match the golden byte for byte; series carrying wall-clock values
//! (`*_seconds*` sum/min/max/quantiles) are range-checked instead.
//!
//! Regenerate after an intentional exposition change with:
//!
//! ```text
//! UPDATE_EXPOSITION_GOLDEN=1 cargo test -p qldpc-server --test exposition
//! ```

use qldpc_bp::{BpConfig, MinSumDecoder};
use qldpc_decoder_api::DecoderFactory;
use qldpc_gf2::{BitVec, SparseBitMatrix};
use qldpc_server::{DecodeService, ServiceConfig};
use std::time::Duration;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/exposition.golden"
);

/// One-worker config so batches form one by one.
fn sequential_config() -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        max_wait: Duration::from_micros(50),
        ..Default::default()
    }
}

/// Runs the pinned scenario and returns the rendered exposition.
fn pinned_scenario() -> String {
    // A 5-bit repetition chain under plain min-sum.
    let h =
        SparseBitMatrix::from_row_indices(4, 5, &[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]);
    let factory: DecoderFactory =
        Box::new(|h, priors| Box::new(MinSumDecoder::new(h, priors, BpConfig::default())));

    let mut builder = DecodeService::builder();
    let rep5 = builder.register_code_with("rep5", &h, &[0.05; 5], factory, sequential_config());
    let service = builder.start();

    // Three sequential decodes (each waited, so every batch
    // holds exactly one request): two single-bit errors and the zero
    // syndrome.
    let mut client = service.client();
    for error_bits in [vec![2], vec![0], vec![]] {
        let error = BitVec::from_indices(5, &error_bits);
        let response = client.submit(rep5, h.mul_vec(&error)).unwrap().wait();
        assert!(response.result.unwrap().solved);
    }

    // Workers record the batch's post-process lap moments *after* the
    // last response is fulfilled, so wait for the final stage sample
    // before rendering the page we compare. The golden is
    // the *node-labeled* page (the form the networked front-end serves);
    // the node name is pinned, so it stays host-portable.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let settled = |text: &str| {
        text.contains(
            "qldpc_stage_duration_seconds_count{code=\"rep5\",node=\"testnode\",\
             stage=\"post_process\"} 3",
        )
    };
    let text = loop {
        let text = service.render_exposition_for("testnode");
        if settled(&text) {
            break text;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "exposition never settled:\n{text}"
        );
        std::thread::yield_now();
    };
    // Rendering is deterministic: a second render of the same counter
    // state is byte-identical.
    assert_eq!(text, service.render_exposition_for("testnode"));
    // The node-less render is the same page minus the node labels —
    // same series count, no node key anywhere.
    let plain = service.render_exposition();
    assert_eq!(plain.lines().count(), text.lines().count());
    assert!(!plain.contains("node=\""));
    service.shutdown();
    text
}

/// Splits an exposition line into its series (name + labels) and value.
fn split_line(line: &str) -> (&str, &str) {
    let at = line.rfind(' ').expect("exposition line has no value");
    (&line[..at], &line[at + 1..])
}

/// Whether this series carries a wall-clock value (timing lines differ
/// run to run; sample *counts* of timing histograms stay deterministic).
fn is_timing_valued(series: &str) -> bool {
    let name = series.split('{').next().unwrap_or(series);
    name.contains("_seconds") && !name.ends_with("_seconds_count")
}

/// The kernel-stage series carry a `simd` label recording the dispatch
/// target of the machine that rendered the page; normalize its value so
/// the golden compares across hosts (and `QLDPC_SIMD_TARGET` settings).
fn normalize_simd(line: &str) -> String {
    match line.find("simd=\"") {
        Some(at) => {
            let vstart = at + "simd=\"".len();
            let vlen = line[vstart..].find('"').expect("unterminated simd label");
            format!("{}<target>{}", &line[..vstart], &line[vstart + vlen..])
        }
        None => line.to_string(),
    }
}

#[test]
fn exposition_matches_golden() {
    let text = pinned_scenario();
    if std::env::var_os("UPDATE_EXPOSITION_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "missing tests/fixtures/exposition.golden — regenerate with \
         UPDATE_EXPOSITION_GOLDEN=1",
    );
    let got: Vec<&str> = text.lines().collect();
    let want: Vec<&str> = golden.lines().collect();
    assert_eq!(
        got.len(),
        want.len(),
        "line count diverged from golden\n--- got ---\n{text}"
    );
    for (g, w) in got.iter().zip(&want) {
        let (g_series, g_value) = split_line(g);
        let (w_series, _) = split_line(w);
        assert_eq!(
            normalize_simd(g_series),
            normalize_simd(w_series),
            "series set or order diverged"
        );
        if is_timing_valued(g_series) {
            let value: f64 = g_value.parse().expect("timing value parses");
            assert!(
                value.is_finite() && value >= 0.0,
                "timing series out of range: {g}"
            );
        } else {
            assert_eq!(
                normalize_simd(g),
                normalize_simd(w),
                "deterministic line diverged from golden"
            );
        }
    }
}

/// The acceptance surface: every scheduler stage shows up, with
/// samples.
#[test]
fn exposition_covers_all_stages() {
    let text = pinned_scenario();
    let code = "rep5";
    for stage in [
        "queue_wait",
        "coalesce_wait",
        "kernel",
        "post_process",
        "fulfill",
    ] {
        // The kernel span alone carries the dispatch-target label.
        let series = if stage == "kernel" {
            format!(
                "qldpc_stage_duration_seconds_count{{code=\"{code}\",node=\"testnode\",\
                 stage=\"kernel\",simd=\""
            )
        } else {
            format!(
                "qldpc_stage_duration_seconds_count{{code=\"{code}\",node=\"testnode\",\
                 stage=\"{stage}\"}}"
            )
        };
        let line = text
            .lines()
            .find(|l| l.starts_with(&series))
            .unwrap_or_else(|| panic!("missing series {series}"));
        let (_, value) = split_line(line);
        assert_ne!(value, "0", "stage {stage} of {code} never sampled");
    }
    // Convergence counters from the kernel made it through.
    assert!(text.contains("qldpc_bp_iterations_total{code=\"rep5\",node=\"testnode\"}"));
}
