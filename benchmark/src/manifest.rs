//! The benchmark's contract, in one place: the workloads, the
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics. `bench manifest` prints the root `BENCHMARK.json` from these
//! tables, and a unit test fails when the committed file drifts.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cl_bpsf",
        why: "BP-SF on natural circuit-level traffic: the 1-2% of shots that need syndrome-flip trials own p99 and a third of the mean, so the core trial loop shows here and OSD does not",
    },
    Workload {
        name: "cl_bposd",
        why: "BP-OSD on the same syndrome stream: identical initial BP, so the two workloads differ only in SF trials vs OSD-CS elimination; osd and gf2 show here and core does not",
    },
    Workload {
        name: "cl_bp_batch",
        why: "plain BP through decode_batch in tiles of 128 on the same graph: the batch/SIMD engine used for throughput, where cl_bpsf and cl_bposd use bp as a one-shot latency engine",
    },
    Workload {
        name: "svc_sync",
        why: "two callers that each wait for their correction from the real serve binary over UDS: the round trip is the server's coalesce window and queues, wire and client; the decode is a hundredth of it",
    },
    Workload {
        name: "svc_pipe",
        why: "two links that each keep 64 submits in flight: the same server used the other way, coalescing fills tiles and the batch kernel sets throughput",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The share of the parent's median by which the metric may get
    /// worse before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "decode_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "decode_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "decode_mean_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_sps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "valid_share",
        unit: "ratio",
        better: "higher",
        bound: 0.01,
    },
    EndToEnd {
        name: "logical_ok_share",
        unit: "ratio",
        better: "higher",
        bound: 0.01,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every traced run prints every one of these; a metric of a layer the
/// workload never enters reads 0.
pub const PER_LAYER: [PerLayer; 51] = [
    layer("codes.build_ms", "ms", "lower"),
    layer("circuit.dem_build_ms", "ms", "lower"),
    layer("circuit.sample_us_per_shot", "us", "lower"),
    layer("bp.build_ms", "ms", "lower"),
    layer("core.build_ms", "ms", "lower"),
    layer("osd.build_ms", "ms", "lower"),
    layer("server.spawn_ms", "ms", "lower"),
    layer("bp.scalar_us_per_decode", "us", "lower"),
    layer("bp.scalar_iters_per_decode", "count", "lower"),
    layer("bp.scalar_ns_per_edge_iter", "ns", "lower"),
    layer("bp.batch_ns_per_edge_iter", "ns", "lower"),
    layer("bp.batch_iters_per_decode", "count", "lower"),
    layer("bp.batch_speedup_vs_scalar", "ratio", "higher"),
    layer("bp.batch_slab_bytes", "bytes", "lower"),
    layer("bp.batch_gbps_computed", "GB/s", "higher"),
    layer("bp.batch_bandwidth_share", "ratio", "higher"),
    layer("machine.copy_gbps", "GB/s", "higher"),
    layer("core.postproc_share", "ratio", "lower"),
    layer("core.postproc_p50_us", "us", "lower"),
    layer("core.postproc_mean_us", "us", "lower"),
    layer("core.trials_per_postproc", "count", "lower"),
    layer("core.trial_iters_per_postproc", "count", "lower"),
    layer("core.trial_win_share", "ratio", "higher"),
    layer("core.trials_wasted_share", "ratio", "lower"),
    layer("core.critical_iters_ratio", "ratio", "lower"),
    layer("core.trial_setup_us", "us", "lower"),
    layer("core.parallel2_postproc_p50_us", "us", "lower"),
    layer("osd.postproc_share", "ratio", "lower"),
    layer("osd.postprocess_us", "us", "lower"),
    layer("osd.candidates_per_call", "count", "lower"),
    layer("gf2.eliminate_us", "us", "lower"),
    layer("osd.closure_gap_share", "ratio", "lower"),
    layer("server.inproc_p50_us", "us", "lower"),
    layer("server.overhead_p50_us", "us", "lower"),
    layer("server.queue_wait_p50_us", "us", "lower"),
    layer("server.coalesce_wait_p50_us", "us", "lower"),
    layer("server.kernel_p50_us", "us", "lower"),
    layer("server.fulfill_p50_us", "us", "lower"),
    layer("server.batch_size_mean", "count", "higher"),
    layer("server.refused_share", "ratio", "lower"),
    layer("wire.encode_submit_ns", "ns", "lower"),
    layer("wire.decode_submit_ns", "ns", "lower"),
    layer("wire.encode_reply_ns", "ns", "lower"),
    layer("wire.decode_reply_ns", "ns", "lower"),
    layer("wire.submit_bytes", "bytes", "lower"),
    layer("wire.reply_bytes", "bytes", "lower"),
    layer("client.rtt_floor_us", "us", "lower"),
    layer("client.overhead_p50_us", "us", "lower"),
    layer("svc.closure_gap_share", "ratio", "lower"),
    layer("svc.direct_decode_p50_us", "us", "lower"),
    layer("trace_overhead_share", "ratio", "lower"),
];

/// How long one run measures; also the `--seconds` the sizes below are
/// calibrated for.
pub const RUN_SECONDS: u64 = 15;

const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The root `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", quoted(&COMMAND)));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `bench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "bad name {n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && benchmark_json().len() <= 64 * 1024);
    }
}
