//! Multi-process cluster soak: a real `serve` process over UDS, fed by
//! concurrent `soak_client` processes, verified for exactly-one-response,
//! bit-identity against in-process decoding, and clean drain on the
//! stdin-EOF shutdown convention. Plus the campaign-over-the-service
//! smoke: `--service` reproduces the in-process REPRO.md byte for byte.
//! Last, `serve` refuses an in-flight budget it could never serve.
//!
//! Hermetic: the binaries come from `CARGO_BIN_EXE_*`, the transport is
//! a UDS under the temp dir, and every wait is bounded by a deadlock
//! timeout.

use qldpc_bench::{absorb_outcome, soak_syndromes, Fnv1a};
use qldpc_bp::{BpConfig, MinSumDecoder};
use qldpc_decoder_api::SyndromeDecoder;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

const SERVE: &str = env!("CARGO_BIN_EXE_serve");
const SOAK_CLIENT: &str = env!("CARGO_BIN_EXE_soak_client");

/// Deadlock guard: runs `f` on a helper thread, fails the test if it
/// neither finishes nor panics within `limit`.
fn with_timeout<F: FnOnce() + Send + 'static>(limit: Duration, f: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        tx.send(()).ok();
    });
    match rx.recv_timeout(limit) {
        Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            worker.join().expect("test thread panicked")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("test exceeded {limit:?} — a soak process hung")
        }
    }
}

fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("qldpc-cluster-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// Kills a child on drop so a failing assertion cannot leak a process.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `serve` on `uds`, waits for its LISTENING line, and returns
/// the child plus its stdout reader (positioned after the banner).
fn spawn_serve(uds: &PathBuf, extra: &[&str]) -> (Reaper, BufReader<ChildStdout>) {
    let child = Command::new(SERVE)
        .arg("--uds")
        .arg(uds)
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut child = Reaper(child);
    let stdout = child.0.stdout.take().expect("serve stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        assert_ne!(
            reader.read_line(&mut line).expect("read serve stdout"),
            0,
            "serve exited before LISTENING"
        );
        if let Some(addr) = line.trim().strip_prefix("LISTENING ") {
            assert_eq!(addr, uds.to_str().unwrap());
            break;
        }
    }
    (child, reader)
}

/// Parses a soak client's `DONE shots=<n> hash=<hex>` line.
fn parse_done(stdout: &str) -> (usize, u64) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("DONE "))
        .unwrap_or_else(|| panic!("no DONE line in soak client output:\n{stdout}"));
    let mut shots = None;
    let mut hash = None;
    for field in line.split_whitespace().skip(1) {
        if let Some(v) = field.strip_prefix("shots=") {
            shots = v.parse().ok();
        } else if let Some(v) = field.strip_prefix("hash=") {
            hash = u64::from_str_radix(v, 16).ok();
        }
    }
    (
        shots.unwrap_or_else(|| panic!("bad DONE line: {line}")),
        hash.unwrap_or_else(|| panic!("bad DONE line: {line}")),
    )
}

/// The in-process reference digest of one client's stream: the same
/// syndromes through the same decoder construction `serve` registers
/// (gross code, min-sum BP, 20 iterations, flat 0.03 priors).
fn reference_digest(shots: usize, seed: u64) -> (usize, u64) {
    let code = qldpc_codes::bb::gross_code();
    let hz = code.hz();
    let priors = vec![0.03; hz.cols()];
    let config = BpConfig {
        max_iters: 20,
        ..BpConfig::default()
    };
    let mut decoder = MinSumDecoder::new(hz, &priors, config);
    let mut hash = Fnv1a::new();
    for syndrome in soak_syndromes(hz.rows(), shots, seed) {
        absorb_outcome(&mut hash, &decoder.decode_syndrome(&syndrome));
    }
    (shots, hash.finish())
}

/// The tentpole soak: N concurrent client *processes* over UDS, every
/// request answered exactly once and bit-identically to in-process
/// decoding, then a clean drain when the server's stdin closes.
#[test]
fn multi_process_soak_over_uds() {
    with_timeout(Duration::from_secs(300), || {
        const CLIENTS: u64 = 3;
        const SHOTS: usize = 40;
        let uds = temp_path("soak.sock");
        let (mut serve, mut serve_out) = spawn_serve(&uds, &[]);

        // Concurrent client processes, one deterministic stream each.
        let clients: Vec<(u64, Child)> = (0..CLIENTS)
            .map(|seed| {
                let child = Command::new(SOAK_CLIENT)
                    .args(["--addr", uds.to_str().unwrap(), "--code", "gross-z"])
                    .args(["--shots", &SHOTS.to_string(), "--seed", &seed.to_string()])
                    .stdout(Stdio::piped())
                    .spawn()
                    .expect("spawn soak client");
                (seed, child)
            })
            .collect();

        for (seed, child) in clients {
            let output = child.wait_with_output().expect("wait soak client");
            assert!(
                output.status.success(),
                "soak client {seed} failed:\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let got = parse_done(&String::from_utf8_lossy(&output.stdout));
            assert_eq!(
                got,
                reference_digest(SHOTS, seed),
                "client {seed}: over-the-wire decode diverged from in-process"
            );
        }

        // Closing stdin is the shutdown request; the server drains and
        // reports its accounting.
        drop(serve.0.stdin.take());
        let mut drained = String::new();
        serve_out.read_line(&mut drained).expect("read DRAINED");
        let fields: Vec<&str> = drained.split_whitespace().collect();
        assert_eq!(fields.first(), Some(&"DRAINED"), "got: {drained:?}");
        let total = (CLIENTS as usize * SHOTS).to_string();
        assert_eq!(
            fields.get(1),
            Some(&total.as_str()),
            "submitted: {drained:?}"
        );
        assert_eq!(
            fields.get(2),
            Some(&total.as_str()),
            "completed: {drained:?}"
        );
        let status = serve.0.wait().expect("wait serve");
        assert!(status.success(), "serve exited with {status:?}");
        assert!(!uds.exists(), "serve left its UDS path behind");
    });
}

/// The campaign-over-the-service smoke: the same spec run in-process
/// and through `campaign --service`-style options produces a
/// byte-identical REPRO.md (both runs stamp the same git revision, so
/// no masking is needed here; CI's CLI variant compares modulo rev).
#[test]
fn campaign_over_service_reproduces_in_process_rows() {
    with_timeout(Duration::from_secs(300), || {
        use qldpc_campaign::{run_campaign, CampaignSpec, RunOptions};

        const SPEC_TEXT: &str = "\
            name   = service-smoke\n\
            seed   = 2026\n\
            codes  = gross\n\
            noise  = code-capacity\n\
            p      = 0.02, 0.05\n\
            decoders   = bp:40, bp-osd:40:10, bp-sf:40:8:2:3, bp-sf:40:8:2:3;rank=flips;workers=2\n\
            precisions = f64\n\
            target_half_width = 0.05\n\
            chunk_shots = 50\n\
            max_shots   = 100\n\
            threads     = 2\n\
            batch_size  = 32\n";
        let spec_path = temp_path("spec.campaign");
        std::fs::write(&spec_path, SPEC_TEXT).expect("write spec");
        let spec = CampaignSpec::from_file(&spec_path).expect("parse spec");

        // Reference: fully in-process.
        let local_dir = temp_path("campaign-local");
        let local = run_campaign(
            &spec,
            &RunOptions {
                quiet: true,
                ..RunOptions::new(&local_dir)
            },
        )
        .expect("local campaign");

        // Same spec through a spec-registered server over UDS.
        let uds = temp_path("campaign.sock");
        let (mut serve, mut serve_out) =
            spawn_serve(&uds, &["--spec", spec_path.to_str().unwrap()]);
        let remote_dir = temp_path("campaign-remote");
        let remote = run_campaign(
            &spec,
            &RunOptions {
                quiet: true,
                service: Some(uds.to_str().unwrap().to_string()),
                ..RunOptions::new(&remote_dir)
            },
        )
        .expect("campaign over service");

        let local_md = std::fs::read_to_string(local.report_path.unwrap()).unwrap();
        let remote_md = std::fs::read_to_string(remote.report_path.unwrap()).unwrap();
        assert_eq!(
            local_md, remote_md,
            "REPRO.md diverged between in-process and over-the-service runs"
        );

        // Clean drain: the service saw every remote decode — two per
        // code-capacity shot (the runner decodes both error species,
        // X through Hz and Z through Hx).
        drop(serve.0.stdin.take());
        let mut drained = String::new();
        serve_out.read_line(&mut drained).expect("read DRAINED");
        assert!(drained.starts_with("DRAINED "), "got: {drained:?}");
        let decodes: u64 = remote.rows.iter().map(|r| 2 * r.shots as u64).sum();
        assert_eq!(
            drained.split_whitespace().nth(2),
            Some(decodes.to_string().as_str()),
            "service completed a different decode count than the campaign logged"
        );
        assert!(serve.0.wait().expect("wait serve").success());

        for dir in [&local_dir, &remote_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
        let _ = std::fs::remove_file(&spec_path);
    });
}

/// `--max-inflight 0` would answer every submission `RateLimited`, so
/// the command line refuses it.
#[test]
fn serve_rejects_a_zero_inflight_budget() {
    let output = Command::new(SERVE)
        .args(["--max-inflight", "0"])
        .stdin(Stdio::null())
        .output()
        .expect("run serve");
    assert!(!output.status.success(), "serve accepted --max-inflight 0");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--max-inflight"), "stderr: {stderr}");
}
