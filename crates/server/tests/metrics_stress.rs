//! Metrics under concurrency: producer threads hammer a live service
//! while a sampler repeatedly snapshots, asserting the invariants every
//! dashboard scrape relies on — counters only grow, accounting never
//! outruns submission, and the final snapshot is fully drained.

use qldpc_bp::{BpConfig, MinSumDecoder};
use qldpc_decoder_api::DecoderFactory;
use qldpc_gf2::{BitVec, SparseBitMatrix};
use qldpc_server::{DecodeService, MetricsSnapshot, ServiceConfig, SubmitError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PRODUCERS: usize = 4;
const REQUESTS_PER_PRODUCER: usize = 400;

fn repetition_chain(bits: usize) -> SparseBitMatrix {
    let rows: Vec<Vec<usize>> = (0..bits - 1).map(|i| vec![i, i + 1]).collect();
    SparseBitMatrix::from_row_indices(bits - 1, bits, &rows)
}

/// Every counter a scrape can see must be monotone between two
/// successive snapshots of the same code.
fn assert_monotone(prev: &MetricsSnapshot, next: &MetricsSnapshot) {
    assert!(next.submitted >= prev.submitted, "submitted went backwards");
    assert!(next.completed >= prev.completed, "completed went backwards");
    assert!(next.expired >= prev.expired, "expired went backwards");
    assert!(next.lost >= prev.lost, "lost went backwards");
    assert!(
        next.rejected_overload >= prev.rejected_overload,
        "rejected_overload went backwards"
    );
    assert!(next.batches >= prev.batches, "batches went backwards");
    assert!(
        next.latency.count >= prev.latency.count,
        "latency sample count went backwards"
    );
    assert!(
        next.convergence.decodes >= prev.convergence.decodes,
        "decode count went backwards"
    );
    assert!(
        next.convergence.bp_iterations >= prev.convergence.bp_iterations,
        "bp iteration count went backwards"
    );
}

#[test]
fn snapshots_stay_consistent_under_concurrent_load() {
    let h = repetition_chain(12);
    let factory: DecoderFactory =
        Box::new(|h, priors| Box::new(MinSumDecoder::new(h, priors, BpConfig::default())));
    let mut builder = DecodeService::builder();
    let code = builder.register_code_with(
        "stress",
        &h,
        &vec![0.02; h.cols()],
        factory,
        ServiceConfig {
            shards: 3,
            max_wait: Duration::from_micros(50),
            ..Default::default()
        },
    );
    let service = Arc::new(builder.start());

    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let service = Arc::clone(&service);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut prev = service.metrics(code);
            let mut samples = 0u64;
            while !done.load(Ordering::Acquire) {
                let next = service.metrics(code);
                assert_monotone(&prev, &next);
                // Mid-flight accounting can lag submission but must
                // never outrun it.
                assert!(
                    next.completed + next.expired + next.lost <= next.submitted,
                    "accounted more requests than were submitted"
                );
                assert_eq!(
                    next.latency_samples_dropped, 0,
                    "histogram dropped a sample"
                );
                prev = next;
                samples += 1;
            }
            samples
        })
    };

    let mut accepted = 0u64;
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut client = service.client();
                let mut accepted = 0u64;
                let mut handles = Vec::new();
                for i in 0..REQUESTS_PER_PRODUCER {
                    let syndrome = BitVec::from_indices(11, &[(p + i) % 11]);
                    match client.submit(code, syndrome) {
                        Ok(handle) => {
                            accepted += 1;
                            handles.push(handle);
                        }
                        Err(SubmitError::Overloaded) => std::thread::yield_now(),
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                    // Keep the outstanding window bounded so the queue
                    // exercises coalescing rather than pure overload.
                    if handles.len() >= 64 {
                        for handle in handles.drain(..) {
                            handle.wait().result.expect("decode succeeds");
                        }
                    }
                }
                for handle in handles {
                    handle.wait().result.expect("decode succeeds");
                }
                accepted
            })
        })
        .collect();
    for producer in producers {
        accepted += producer.join().expect("producer panicked");
    }
    done.store(true, Ordering::Release);
    let samples = sampler.join().expect("sampler panicked");
    assert!(samples > 0, "sampler never ran");

    let service = Arc::into_inner(service).expect("all clones joined");
    let metrics = service.shutdown().remove(0);
    assert!(metrics.is_drained(), "final snapshot not drained");
    assert_eq!(metrics.submitted, accepted);
    assert_eq!(metrics.completed, accepted);
    assert_eq!(
        metrics.latency.count, accepted,
        "one latency sample per decode"
    );
    assert_eq!(metrics.convergence.decodes, accepted);
    assert!(
        metrics.convergence.bp_iterations >= accepted,
        "BP ran at least one iteration each"
    );
    // Stage sample counts line up with the scheduler's own accounting.
    use qldpc_server::Stage;
    assert_eq!(metrics.stages.get(Stage::QueueWait).count, accepted);
    assert_eq!(metrics.stages.get(Stage::Fulfill).count, accepted);
    assert_eq!(metrics.stages.get(Stage::Kernel).count, metrics.batches);
    assert_eq!(
        metrics.stages.get(Stage::CoalesceWait).count,
        metrics.batches
    );
}
