//! Worker-death regression: a panicking decoder must never strand a
//! request. Every accepted request resolves — with
//! [`DecodeError::WorkerLost`] once its worker has died — `wait()`
//! never hangs, later submissions are refused, and shutdown still
//! drains and joins cleanly.

use qldpc_decoder_api::{DecodeOutcome, DecoderFactory, SyndromeDecoder};
use qldpc_gf2::{BitVec, SparseBitMatrix};
use qldpc_server::{DecodeError, DecodeService, ResponseHandle, ServiceConfig, SubmitError};
use std::time::Duration;

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
            panic!("test exceeded {limit:?} — a lost worker stranded a request")
        }
    }
}

/// A decoder whose every decode panics — the injected worker fault.
struct PanickingDecoder;

impl SyndromeDecoder for PanickingDecoder {
    fn decode_syndrome(&mut self, _syndrome: &BitVec) -> DecodeOutcome {
        panic!("injected decoder fault");
    }

    fn label(&self) -> String {
        "PanickingDecoder".into()
    }
}

fn panicking_factory() -> DecoderFactory {
    Box::new(|_h, _priors| Box::new(PanickingDecoder))
}

fn rep5() -> SparseBitMatrix {
    SparseBitMatrix::from_row_indices(4, 5, &[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]])
}

/// Collects `n` accepted handles, stopping early once the service
/// refuses with `Shutdown` (all workers dead).
fn submit_up_to(
    client: &mut qldpc_server::Client,
    code: qldpc_server::CodeId,
    n: usize,
) -> Vec<ResponseHandle> {
    let mut handles = Vec::new();
    while handles.len() < n {
        match client.submit(code, BitVec::from_indices(4, &[0])) {
            Ok(h) => handles.push(h),
            Err(SubmitError::Overloaded) => std::thread::yield_now(),
            Err(SubmitError::Shutdown) => break,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    handles
}

/// The regression this suite pins: before the drop guards, a panicking
/// worker left its coalesced batch *and* its queue un-answered, so
/// `wait()` blocked forever. Now every handle resolves with
/// `WorkerLost`.
#[test]
fn coalesced_batch_resolves_after_worker_panic() {
    with_timeout(Duration::from_secs(60), || {
        let mut builder = DecodeService::builder();
        let code = builder.register_code_with(
            "doomed",
            &rep5(),
            &[0.05; 5],
            panicking_factory(),
            ServiceConfig {
                shards: 1,
                max_batch: 8,
                // A wide batch window so the first dispatch coalesces
                // several requests — they must all resolve, not just
                // the one that triggered the panic.
                max_wait: Duration::from_millis(50),
                ..Default::default()
            },
        );
        let service = builder.start();
        let mut client = service.client();
        let handles = submit_up_to(&mut client, code, 6);
        assert!(!handles.is_empty(), "no request was ever accepted");
        let accepted = handles.len() as u64;
        for handle in handles {
            let response = handle
                .wait_timeout(Duration::from_secs(30))
                .expect("handle must resolve after worker death");
            assert_eq!(response.result.unwrap_err(), DecodeError::WorkerLost);
        }

        // Once the last worker is gone, submissions refuse rather than
        // queueing into the void.
        loop {
            match client.submit(code, BitVec::from_indices(4, &[0])) {
                Err(SubmitError::Shutdown) => break,
                Ok(h) => {
                    // Raced the dying worker; still answered.
                    let r = h.wait_timeout(Duration::from_secs(30)).unwrap();
                    assert_eq!(r.result.unwrap_err(), DecodeError::WorkerLost);
                }
                Err(SubmitError::Overloaded) => std::thread::yield_now(),
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }

        // Shutdown joins the (already dead) worker without hanging, and
        // the lost counter balances the books.
        let metrics = service.shutdown().remove(0);
        assert!(metrics.submitted >= accepted);
        assert_eq!(metrics.completed, 0);
        assert!(metrics.lost >= accepted);
        assert!(metrics.is_drained(), "completed+expired+lost != submitted");
    });
}

/// Same invariant under a trickle (max_batch = 1) and several workers:
/// each worker dies on its first request, later requests land on the
/// surviving workers until none remain, and the last death drains
/// whatever is still queued.
#[test]
fn trickle_across_shards_resolves_after_every_worker_dies() {
    with_timeout(Duration::from_secs(60), || {
        let mut builder = DecodeService::builder();
        let code = builder.register_code_with(
            "doomed",
            &rep5(),
            &[0.05; 5],
            panicking_factory(),
            ServiceConfig {
                shards: 3,
                max_batch: 1,
                max_wait: Duration::from_micros(50),
                ..Default::default()
            },
        );
        let service = builder.start();
        // Several clients so all three workers see traffic.
        let mut clients: Vec<_> = (0..6).map(|_| service.client()).collect();
        let mut handles = Vec::new();
        for client in &mut clients {
            handles.extend(submit_up_to(client, code, 4));
        }
        assert!(!handles.is_empty());
        for handle in handles {
            let response = handle
                .wait_timeout(Duration::from_secs(30))
                .expect("handle must resolve after worker death");
            assert_eq!(response.result.unwrap_err(), DecodeError::WorkerLost);
        }
        let metrics = service.shutdown().remove(0);
        assert_eq!(metrics.completed, 0);
        assert!(metrics.is_drained());
    });
}

/// A healthy sibling code keeps decoding while another code's workers
/// die: worker loss is contained per code.
#[test]
fn healthy_code_survives_sibling_worker_death() {
    with_timeout(Duration::from_secs(60), || {
        let h = rep5();
        let healthy_factory: DecoderFactory = Box::new(|h, priors| {
            Box::new(qldpc_bp::MinSumDecoder::new(
                h,
                priors,
                qldpc_bp::BpConfig::default(),
            ))
        });
        let mut builder = DecodeService::builder();
        let doomed = builder.register_code_with(
            "doomed",
            &h,
            &[0.05; 5],
            panicking_factory(),
            ServiceConfig {
                shards: 1,
                ..Default::default()
            },
        );
        let healthy = builder.register_code_with(
            "healthy",
            &h,
            &[0.05; 5],
            healthy_factory,
            ServiceConfig {
                shards: 1,
                max_wait: Duration::from_micros(50),
                ..Default::default()
            },
        );
        let service = builder.start();
        let mut client = service.client();

        let lost = submit_up_to(&mut client, doomed, 2);
        for handle in lost {
            let r = handle.wait_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(r.result.unwrap_err(), DecodeError::WorkerLost);
        }

        // The healthy code still decodes correctly after the sibling died.
        let error = BitVec::from_indices(5, &[2]);
        let handle = loop {
            match client.submit(healthy, h.mul_vec(&error)) {
                Ok(h) => break h,
                Err(SubmitError::Overloaded) => std::thread::yield_now(),
                Err(e) => panic!("healthy code refused: {e}"),
            }
        };
        let outcome = handle
            .wait_timeout(Duration::from_secs(30))
            .expect("healthy decode resolves")
            .result
            .expect("healthy decode succeeds");
        assert!(outcome.solved);
        assert_eq!(outcome.error_hat, error);

        let snapshots = service.shutdown();
        assert!(snapshots[0].is_drained());
        assert!(snapshots[1].is_drained());
        assert_eq!(snapshots[1].lost, 0);
    });
}
