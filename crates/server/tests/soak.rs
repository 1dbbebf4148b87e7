//! Correctness soak for the decoding service: concurrent producers,
//! mixed codes, random deadlines — every accepted request gets exactly
//! one response, decoded responses are bit-identical to scalar
//! decoding, per-client FIFO dispatch holds, backpressure rejects, and
//! shutdown drains without deadlock.
//!
//! Every test body runs under [`with_timeout`] so a scheduler deadlock
//! fails the suite instead of hanging it.

use qldpc_bp::{BpConfig, MinSumDecoder};
use qldpc_decoder_api::{DecodeOutcome, DecodeTelemetry, DecoderFactory, SyndromeDecoder};
use qldpc_gf2::{BitVec, SparseBitMatrix};
use qldpc_server::{
    CodeId, DecodeError, DecodeService, ResponseHandle, ServiceConfig, SubmitError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Runs `f` on a helper thread and panics if it neither finishes nor
/// panics within `limit` (deadlock guard).
fn with_timeout<F: FnOnce() + Send + 'static>(limit: Duration, f: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        tx.send(()).ok();
    });
    match rx.recv_timeout(limit) {
        // Finished or panicked — join to surface the panic.
        Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            worker.join().expect("soak test thread panicked")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("test exceeded {limit:?} — possible scheduler deadlock")
        }
    }
}

fn bp_factory(max_iters: usize) -> DecoderFactory {
    Box::new(move |h, priors| {
        let config = BpConfig {
            max_iters,
            ..BpConfig::default()
        };
        Box::new(MinSumDecoder::new(h, priors, config))
    })
}

/// A random syndrome from an i.i.d. weight-`p` error on `h`.
fn random_syndrome(h: &SparseBitMatrix, p: f64, rng: &mut StdRng) -> BitVec {
    let mut error = BitVec::zeros(h.cols());
    for i in 0..h.cols() {
        if rng.random_bool(p) {
            error.set(i, true);
        }
    }
    h.mul_vec(&error)
}

/// Submits with bounded retries on `Overloaded` backpressure.
fn submit_retrying(
    client: &mut qldpc_server::Client,
    code: CodeId,
    syndrome: BitVec,
    deadline: Option<Duration>,
) -> ResponseHandle {
    loop {
        let result = match deadline {
            Some(d) => client.submit_with_deadline(code, syndrome.clone(), d),
            None => client.submit(code, syndrome.clone()),
        };
        match result {
            Ok(handle) => return handle,
            Err(SubmitError::Overloaded) => std::thread::yield_now(),
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
}

/// The headline soak: K producer threads, two codes with different
/// priors, randomized syndromes and deadlines. Every request is
/// answered exactly once, in per-client submission order, and decoded
/// responses match a scalar `decode_syndrome` bit-for-bit (the PR-2
/// batch≡scalar machinery extended through the service).
#[test]
fn soak_mixed_codes_bit_identical_no_request_lost() {
    with_timeout(Duration::from_secs(120), || {
        const PRODUCERS: usize = 4;
        const REQUESTS: usize = 150;
        const BP_ITERS: usize = 40;
        let code = qldpc_codes::bb::bb72();
        let hz = code.hz().clone();
        let hx = code.hx().clone();
        let priors_z = vec![0.03; hz.cols()];
        let priors_x = vec![0.05; hx.cols()];

        let mut builder = DecodeService::builder();
        let config = ServiceConfig {
            shards: 2,
            max_wait: Duration::from_micros(100),
            queue_capacity: 256,
            ..ServiceConfig::default()
        };
        let id_z =
            builder.register_code_with("bb72-z", &hz, &priors_z, bp_factory(BP_ITERS), config);
        let id_x =
            builder.register_code_with("bb72-x", &hx, &priors_x, bp_factory(BP_ITERS), config);
        let service = builder.start();

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let mut client = service.client();
                let (hz, hx) = (hz.clone(), hx.clone());
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(1000 + p as u64);
                    let mut sent = Vec::with_capacity(REQUESTS);
                    for _ in 0..REQUESTS {
                        let (code_id, h, p_err) = if rng.random_bool(0.5) {
                            (id_z, &hz, 0.03)
                        } else {
                            (id_x, &hx, 0.05)
                        };
                        let syndrome = random_syndrome(h, p_err, &mut rng);
                        // 25% already-expired deadlines, 25% generous,
                        // 50% none.
                        let deadline = match rng.random_range(0..4usize) {
                            0 => Some(Duration::ZERO),
                            1 => Some(Duration::from_secs(60)),
                            _ => None,
                        };
                        let handle =
                            submit_retrying(&mut client, code_id, syndrome.clone(), deadline);
                        sent.push((code_id, syndrome, deadline, handle));
                    }
                    // Wait in submission order; echo fields prove each
                    // handle resolves to its own request.
                    sent.into_iter()
                        .enumerate()
                        .map(|(i, (code_id, syndrome, deadline, handle))| {
                            let request_id = handle.request_id();
                            assert_eq!(handle.client_seq(), i as u64, "client seq not contiguous");
                            let response = handle.wait();
                            assert_eq!(response.request_id, request_id);
                            assert_eq!(response.client_seq, i as u64);
                            (code_id, syndrome, deadline, response)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();

        // Scalar references, one per code, for bit-identical comparison.
        let bp = |max_iters| BpConfig {
            max_iters,
            ..BpConfig::default()
        };
        let mut reference_z = MinSumDecoder::new(&hz, &priors_z, bp(BP_ITERS));
        let mut reference_x = MinSumDecoder::new(&hx, &priors_x, bp(BP_ITERS));
        let mut total_expired = 0u64;
        let mut total_completed = 0u64;
        for producer in producers {
            let responses = producer.join().expect("producer panicked");
            assert_eq!(responses.len(), REQUESTS, "a request was lost");
            for (code_id, syndrome, deadline, response) in responses {
                match response.result {
                    Ok(outcome) => {
                        total_completed += 1;
                        let reference: DecodeOutcome = if code_id == id_z {
                            reference_z.decode_syndrome(&syndrome)
                        } else {
                            reference_x.decode_syndrome(&syndrome)
                        };
                        assert_eq!(outcome.solved, reference.solved);
                        assert_eq!(outcome.error_hat, reference.error_hat);
                        assert_eq!(outcome.serial_iterations, reference.serial_iterations);
                        assert_eq!(outcome.critical_iterations, reference.critical_iterations);
                        assert!(response.batch_size >= 1);
                    }
                    Err(DecodeError::DeadlineExceeded) => {
                        total_expired += 1;
                        // Only requests that *had* a deadline may expire;
                        // Duration::ZERO ones always do.
                        assert!(deadline.is_some(), "deadline-free request expired");
                    }
                    Err(DecodeError::WorkerLost) => {
                        panic!("no worker dies in this soak, yet a request was lost")
                    }
                }
            }
        }
        assert!(total_expired > 0, "no already-expired deadline exercised");

        // Shutdown snapshots come back in registration order (z then x).
        let snapshots = service.shutdown();
        let (sz, sx) = (&snapshots[0], &snapshots[1]);
        let submitted: u64 = sz.submitted + sx.submitted;
        assert_eq!(submitted, (PRODUCERS * REQUESTS) as u64);
        assert_eq!(sz.completed + sx.completed, total_completed);
        assert_eq!(sz.expired + sx.expired, total_expired);
        assert!(sz.is_drained() && sx.is_drained());
    });
}

/// With a single shard the per-code completion stamp makes per-client
/// FIFO directly observable: each client's responses carry strictly
/// increasing `completion_seq` in submission order, even with several
/// clients interleaving.
#[test]
fn per_client_fifo_dispatch_single_shard() {
    with_timeout(Duration::from_secs(60), || {
        let h = SparseBitMatrix::from_row_indices(
            4,
            5,
            &[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]],
        );
        let priors = vec![0.05; 5];
        let mut builder = DecodeService::builder();
        let config = ServiceConfig {
            shards: 1,
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            queue_capacity: 64,
            ..ServiceConfig::default()
        };
        let code = builder.register_code_with("rep5", &h, &priors, bp_factory(20), config);
        let service = builder.start();

        let producers: Vec<_> = (0..3)
            .map(|p| {
                let mut client = service.client();
                let h = h.clone();
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(p as u64);
                    (0..100)
                        .map(|_| {
                            let syndrome = random_syndrome(&h, 0.1, &mut rng);
                            submit_retrying(&mut client, code, syndrome, None).wait()
                        })
                        .map(|response| response.completion_seq)
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        for producer in producers {
            let seqs = producer.join().expect("producer panicked");
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "per-client completion order not FIFO: {seqs:?}"
            );
        }
        service.shutdown();
    });
}

/// A decoder that sleeps per batch — lets the tests force queue buildup
/// deterministically.
struct SlowDecoder {
    delay: Duration,
}

impl SyndromeDecoder for SlowDecoder {
    fn decode_syndrome(&mut self, syndrome: &BitVec) -> DecodeOutcome {
        std::thread::sleep(self.delay);
        DecodeOutcome {
            error_hat: BitVec::zeros(syndrome.len()),
            solved: true,
            serial_iterations: 1,
            critical_iterations: 1,
            postprocessed: false,
            telemetry: DecodeTelemetry::bp(1, true),
        }
    }

    fn label(&self) -> String {
        "Slow".into()
    }

    fn decode_batch(&mut self, syndromes: &[BitVec]) -> Vec<DecodeOutcome> {
        // One nap per batch: batch formation is observable via timing.
        std::thread::sleep(self.delay);
        syndromes
            .iter()
            .map(|s| DecodeOutcome {
                error_hat: BitVec::zeros(s.len()),
                solved: true,
                serial_iterations: 1,
                critical_iterations: 1,
                postprocessed: false,
                telemetry: DecodeTelemetry::bp(1, true),
            })
            .collect()
    }
}

fn slow_factory(delay: Duration) -> DecoderFactory {
    Box::new(move |_h, _priors| Box::new(SlowDecoder { delay }))
}

fn tiny_h() -> SparseBitMatrix {
    SparseBitMatrix::from_row_indices(2, 3, &[vec![0, 1], vec![1, 2]])
}

/// Beyond the high-water mark, submissions bounce with `Overloaded`
/// instead of queueing unboundedly — and every *accepted* request still
/// resolves.
#[test]
fn bounded_queues_reject_when_overloaded() {
    with_timeout(Duration::from_secs(60), || {
        let h = tiny_h();
        let mut builder = DecodeService::builder();
        let config = ServiceConfig {
            shards: 1,
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_capacity: 2,
            ..ServiceConfig::default()
        };
        let code = builder.register_code_with(
            "tiny",
            &h,
            &[0.1; 3],
            slow_factory(Duration::from_millis(50)),
            config,
        );
        let service = builder.start();
        let mut client = service.client();

        let mut accepted = Vec::new();
        let mut rejected = 0;
        for _ in 0..10 {
            match client.submit(code, BitVec::zeros(2)) {
                Ok(handle) => accepted.push(handle),
                Err(SubmitError::Overloaded) => rejected += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert!(rejected > 0, "queue_capacity=2 never overflowed");
        assert!(!accepted.is_empty());
        let n_accepted = accepted.len() as u64;
        for handle in accepted {
            assert!(handle.wait().result.is_ok());
        }
        let metrics = service.shutdown().remove(0);
        assert_eq!(metrics.rejected_overload, rejected);
        assert_eq!(metrics.submitted, n_accepted);
        assert!(metrics.is_drained());
    });
}

/// Already-expired deadlines are answered with `DeadlineExceeded` and
/// never reach the decoder; live requests in the same stream decode
/// normally.
#[test]
fn expired_deadlines_are_answered_not_decoded() {
    with_timeout(Duration::from_secs(60), || {
        let h = tiny_h();
        let mut builder = DecodeService::builder();
        let code = builder.register_code_with(
            "tiny",
            &h,
            &[0.1; 3],
            bp_factory(10),
            ServiceConfig {
                shards: 1,
                max_wait: Duration::from_micros(50),
                ..ServiceConfig::default()
            },
        );
        let service = builder.start();
        let mut client = service.client();

        let expired = client
            .submit_with_deadline(code, BitVec::from_indices(2, &[0]), Duration::ZERO)
            .unwrap();
        let live = client
            .submit_with_deadline(code, BitVec::from_indices(2, &[0]), Duration::from_secs(60))
            .unwrap();
        assert_eq!(
            expired.wait().result.unwrap_err(),
            DecodeError::DeadlineExceeded
        );
        let outcome = live.wait().result.unwrap();
        assert!(outcome.solved);
        let metrics = service.shutdown().remove(0);
        assert_eq!(metrics.expired, 1);
        assert_eq!(metrics.completed, 1);
    });
}

/// Shutdown gates new submissions, drains everything already queued
/// (every outstanding handle resolves), and joins without deadlock.
#[test]
fn shutdown_drains_pending_and_gates_new_submissions() {
    with_timeout(Duration::from_secs(60), || {
        let h = tiny_h();
        let mut builder = DecodeService::builder();
        let config = ServiceConfig {
            shards: 1,
            max_batch: 4,
            max_wait: Duration::ZERO,
            queue_capacity: 64,
            ..ServiceConfig::default()
        };
        let code = builder.register_code_with(
            "tiny",
            &h,
            &[0.1; 3],
            slow_factory(Duration::from_millis(10)),
            config,
        );
        let service = builder.start();
        let mut client = service.client();
        let handles: Vec<_> = (0..8)
            .map(|_| client.submit(code, BitVec::zeros(2)).unwrap())
            .collect();
        let metrics = service.shutdown().remove(0);
        assert!(metrics.is_drained());
        assert_eq!(metrics.completed, 8);
        for handle in handles {
            // Already fulfilled — must not block.
            assert!(handle.is_ready());
            assert!(handle.try_take().is_ok());
        }
        assert!(matches!(
            client.submit(code, BitVec::zeros(2)),
            Err(SubmitError::Shutdown)
        ));
    });
}

/// Submission-time validation: wrong syndrome length and unknown code
/// ids are rejected at the door.
#[test]
fn submission_validation_errors() {
    with_timeout(Duration::from_secs(60), || {
        let h = tiny_h();
        let mut builder = DecodeService::builder();
        let code = builder.register_code("tiny", &h, &[0.1; 3], bp_factory(10));
        let service = builder.start();
        let mut client = service.client();
        assert!(matches!(
            client.submit(code, BitVec::zeros(5)),
            Err(SubmitError::SyndromeLength {
                expected: 2,
                got: 5
            })
        ));

        // A CodeId minted by a *different* service with more codes maps
        // past this service's registry.
        let mut other_builder = DecodeService::builder();
        other_builder.register_code("a", &h, &[0.1; 3], bp_factory(10));
        let foreign = other_builder.register_code("b", &h, &[0.1; 3], bp_factory(10));
        let other = other_builder.start();
        assert!(matches!(
            client.submit(foreign, BitVec::zeros(2)),
            Err(SubmitError::UnknownCode)
        ));
        other.shutdown();
        service.shutdown();
    });
}

/// A decoder whose every batch naps while counting how many batches
/// of its code are being decoded at once.
struct ConcurrencyProbe {
    delay: Duration,
    /// (batches in flight now, peak seen), shared by the code's workers.
    in_flight: Arc<(AtomicUsize, AtomicUsize)>,
}

impl SyndromeDecoder for ConcurrencyProbe {
    fn decode_syndrome(&mut self, syndrome: &BitVec) -> DecodeOutcome {
        self.decode_batch(std::slice::from_ref(syndrome)).remove(0)
    }

    fn label(&self) -> String {
        "ConcurrencyProbe".into()
    }

    fn decode_batch(&mut self, syndromes: &[BitVec]) -> Vec<DecodeOutcome> {
        let (now, peak) = &*self.in_flight;
        peak.fetch_max(now.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
        let outcomes = SlowDecoder { delay: self.delay }.decode_batch(syndromes);
        now.fetch_sub(1, Ordering::SeqCst);
        outcomes
    }
}

/// One client's load keeps every worker busy: both workers pop the
/// code's one queue, so a single producer is decoded two batches at a
/// time.
#[test]
fn one_clients_load_keeps_every_worker_busy() {
    with_timeout(Duration::from_secs(60), || {
        let in_flight = Arc::new((AtomicUsize::new(0), AtomicUsize::new(0)));
        let probe = Arc::clone(&in_flight);
        let factory: DecoderFactory = Box::new(move |_h, _priors| {
            Box::new(ConcurrencyProbe {
                delay: Duration::from_millis(2),
                in_flight: Arc::clone(&probe),
            })
        });
        let mut builder = DecodeService::builder();
        let config = ServiceConfig {
            shards: 2,
            max_batch: 4,
            max_wait: Duration::ZERO,
            queue_capacity: 256,
            ..ServiceConfig::default()
        };
        let code = builder.register_code_with("tiny", &tiny_h(), &[0.1; 3], factory, config);
        let service = builder.start();
        let mut client = service.client();
        let handles: Vec<_> = (0..80)
            .map(|_| submit_retrying(&mut client, code, BitVec::zeros(2), None))
            .collect();
        for handle in handles {
            assert!(handle.wait().result.is_ok());
        }
        let metrics = service.shutdown().remove(0);
        assert_eq!(metrics.completed, 80);
        assert_eq!(
            in_flight.1.load(Ordering::SeqCst),
            2,
            "one client's load never kept both workers busy"
        );
    });
}

/// A code registered with an f32 factory and a declared `Precision::F32`:
/// responses are bit-identical to scalar *f32* decoding and the metrics
/// snapshot carries the precision tag.
#[test]
fn f32_precision_code_decodes_and_reports_precision() {
    with_timeout(Duration::from_secs(60), || {
        use qldpc_bp::MinSumDecoderF32;
        use qldpc_decoder_api::Precision;

        let code = qldpc_codes::bb::bb72();
        let hz = code.hz().clone();
        let priors = vec![0.03; hz.cols()];
        let bp_config = BpConfig {
            max_iters: 40,
            ..BpConfig::default()
        };
        let factory: DecoderFactory =
            Box::new(move |h, priors| Box::new(MinSumDecoderF32::new(h, priors, bp_config)));
        let mut builder = DecodeService::builder();
        let config = ServiceConfig {
            shards: 1,
            max_batch: 16,
            max_wait: Duration::from_micros(200),
            queue_capacity: 256,
            precision: Precision::F32,
        };
        let code_id = builder.register_code_with("bb72-z@f32", &hz, &priors, factory, config);
        let service = builder.start();

        let mut client = service.client();
        let mut rng = StdRng::seed_from_u64(77);
        let syndromes: Vec<BitVec> = (0..60)
            .map(|_| random_syndrome(&hz, 0.03, &mut rng))
            .collect();
        let handles: Vec<ResponseHandle> = syndromes
            .iter()
            .map(|s| submit_retrying(&mut client, code_id, s.clone(), None))
            .collect();

        let mut reference = MinSumDecoderF32::new(&hz, &priors, bp_config);
        for (syndrome, handle) in syndromes.iter().zip(handles) {
            let response = handle.wait();
            let outcome = response.result.expect("no deadline set");
            let expected = reference.decode_syndrome(syndrome);
            assert_eq!(outcome.solved, expected.solved);
            assert_eq!(outcome.error_hat, expected.error_hat);
            assert_eq!(outcome.serial_iterations, expected.serial_iterations);
        }

        let live = service.metrics(code_id);
        assert_eq!(live.precision, Precision::F32);
        let final_snapshot = service.shutdown().remove(0);
        assert_eq!(final_snapshot.precision, Precision::F32);
        assert_eq!(final_snapshot.completed, 60);
        assert!(final_snapshot.is_drained());
    });
}
