//! Workers: the dynamic micro-batching scheduler and its decode loop.
//!
//! Each registered code owns one bounded FIFO queue and `shards`
//! workers, each with its own decoder, that all pop its head. A
//! worker's loop is:
//!
//! 1. **Acquire** — block until the queue yields its oldest request.
//! 2. **Coalesce** — keep the batch window open for at most `max_wait`,
//!    greedily draining the queue until `max_batch` requests are in
//!    hand. A full queue therefore dispatches immediately at the
//!    kernel's lane width; a trickle dispatches after `max_wait` with
//!    whatever arrived.
//! 3. **Dispatch** — expire requests whose deadline has passed, decode
//!    the rest in one [`decode_batch`] call, and fulfill every slot.
//!
//! Shutdown closes the queue. A closed queue still hands out what it
//! holds and reports `None` only once it is empty, so a worker drains
//! it and exits with no flag to poll.
//!
//! Every worker pops the queue *head*, so a client's requests are
//! *pulled into batches* in submission order no matter who decodes
//! them. This ordering covers queue departure, not completion: with
//! several workers, two batches holding a client's consecutive requests
//! may be decoded concurrently and finish out of order; completion-order
//! FIFO per client is guaranteed only at `shards = 1` (what the soak
//! tests assert).
//!
//! # Worker death
//!
//! A decoder is user-supplied code; it may panic. The service's
//! "exactly one response per accepted request" invariant survives that
//! through two drop guards:
//!
//! * [`BatchGuard`] owns the in-flight batch across the decode call. If
//!   the decoder panics, its `Drop` answers every not-yet-fulfilled
//!   request of the batch with [`DecodeError::WorkerLost`].
//! * [`WorkerGuard`] covers the whole worker lifetime. The *last*
//!   worker of a code to die panicking closes the code's queue and
//!   takes what it holds in one step, so no new request can slip in
//!   behind the drain, and answers each taken request with
//!   `WorkerLost`. Later submissions meet the closed queue and are
//!   refused with [`SubmitError::Shutdown`](crate::SubmitError).
//!
//! [`decode_batch`]: qldpc_decoder_api::SyndromeDecoder::decode_batch

use crate::metrics::CodeMetrics;
use crate::queue::CodeQueue;
use crate::request::{DecodeError, DecodeResponse, Request};
use crate::stage::Stage;
use qldpc_decoder_api::{DecodeOutcome, SharedDecoderFactory, SyndromeDecoder};
use qldpc_gf2::{BitVec, SparseBitMatrix};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything one worker needs; moved into its thread at spawn.
pub(crate) struct ShardContext {
    /// The code's one queue, shared by all its workers.
    pub queue: Arc<CodeQueue>,
    /// The code's check matrix and priors, and the factory this worker
    /// builds its own decoder instance from.
    pub h: Arc<SparseBitMatrix>,
    pub priors: Arc<Vec<f64>>,
    pub factory: SharedDecoderFactory,
    pub max_batch: usize,
    pub max_wait: Duration,
    pub metrics: Arc<CodeMetrics>,
    /// Per-code monotone completion stamp shared by all its workers.
    pub completion_counter: Arc<AtomicU64>,
    /// Still-running workers of this code; the worker that takes it to
    /// zero by panicking closes and drains the queue.
    pub alive: Arc<AtomicUsize>,
}

impl ShardContext {
    /// The worker thread body.
    pub fn run(self) {
        // Arm the liveness guard before building the decoder: even a
        // panicking factory must not strand queued requests.
        let _guard = WorkerGuard { ctx: &self };
        let mut decoder = (self.factory)(&self.h, &self.priors);
        // `pop` returns `None` only once the queue is closed and empty:
        // drain, then exit.
        while let Some(first) = self.queue.pop(None) {
            let (batch, coalesce_wait) = self.coalesce(first);
            self.dispatch(decoder.as_mut(), batch, coalesce_wait);
        }
    }

    /// Grows a batch around `first` until `max_batch` requests are in
    /// hand, the `max_wait` window closes with the queue empty, or the
    /// queue is closed and empty (under shutdown). Also returns how long
    /// the window was held open.
    fn coalesce(&self, first: Request) -> (Vec<Request>, Duration) {
        let opened_at = Instant::now();
        let mut batch = Vec::with_capacity(self.max_batch.min(64));
        batch.push(first);
        let window_end = opened_at + self.max_wait;
        while batch.len() < self.max_batch {
            // A closed window still takes what is already queued.
            let Some(request) = self.queue.pop(Some(window_end)) else {
                break; // window closed and queue empty, or queue closed
            };
            batch.push(request);
        }
        (batch, opened_at.elapsed())
    }

    /// Expires overdue requests, decodes the rest in one batched call,
    /// and fulfills every response slot in queue order.
    fn dispatch(
        &self,
        decoder: &mut dyn SyndromeDecoder,
        batch: Vec<Request>,
        coalesce_wait: Duration,
    ) {
        let dispatched_at = Instant::now();
        // One contiguous completion-seq range per batch, in queue order.
        let seq_base = self
            .completion_counter
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut expired: Vec<(Request, u64)> = Vec::new();
        let mut pending: VecDeque<(Request, u64)> = VecDeque::with_capacity(batch.len());
        for (offset, request) in batch.into_iter().enumerate() {
            let seq = seq_base + offset as u64;
            if request.deadline.is_none_or(|d| d >= dispatched_at) {
                self.metrics.stages.record(
                    Stage::QueueWait,
                    dispatched_at.saturating_duration_since(request.submitted_at),
                );
                pending.push_back((request, seq));
            } else {
                expired.push((request, seq));
            }
        }
        let live_count = pending.len();
        self.metrics.record_batch(live_count);
        if live_count > 0 {
            // One sample per dispatched (live) batch; all-expired batches
            // never reach the kernel and would skew the wait picture.
            self.metrics
                .stages
                .record(Stage::CoalesceWait, coalesce_wait);
        }
        for (request, seq) in expired {
            self.metrics.expired.fetch_add(1, Ordering::Relaxed);
            self.respond(
                request,
                Err(DecodeError::DeadlineExceeded),
                live_count,
                seq,
                dispatched_at,
            );
        }
        // The in-flight batch lives inside the guard from here on: a
        // panicking decode unwinds through it and the whole remainder is
        // answered `WorkerLost` instead of stranding its waiters.
        let mut guard = BatchGuard {
            metrics: &self.metrics,
            pending,
            batch_size: live_count,
        };
        let syndromes: Vec<BitVec> = guard
            .pending
            .iter()
            .map(|(r, _)| r.syndrome.clone())
            .collect();
        let kernel_start = Instant::now();
        let mut outcomes = decoder.decode_batch(&syndromes).into_iter();
        let kernel_end = Instant::now();
        if live_count > 0 {
            self.metrics
                .stages
                .record(Stage::Kernel, kernel_end - kernel_start);
        }
        for _ in 0..live_count {
            let outcome = outcomes.next().expect("decode_batch returned short");
            let (request, seq) = guard.pending.pop_front().expect("guard tracks batch");
            self.metrics.completed.fetch_add(1, Ordering::Relaxed);
            self.metrics.convergence.record_outcome(&outcome.telemetry);
            self.respond(request, Ok(outcome), live_count, seq, dispatched_at);
        }
        debug_assert!(outcomes.next().is_none(), "decode_batch returned long");
        if live_count > 0 {
            self.metrics
                .stages
                .record(Stage::PostProcess, kernel_end.elapsed());
        }
        debug_assert!(guard.pending.is_empty(), "batch not fully answered");
    }

    /// Fulfills one request with full scheduling telemetry.
    fn respond(
        &self,
        request: Request,
        result: Result<DecodeOutcome, DecodeError>,
        batch_size: usize,
        completion_seq: u64,
        dispatched_at: Instant,
    ) {
        let Request {
            id,
            client_seq,
            submitted_at,
            slot,
            ..
        } = request;
        let total_time = submitted_at.elapsed();
        if result.is_ok() {
            self.metrics.record_latency(total_time);
            self.metrics
                .stages
                .record(Stage::Fulfill, dispatched_at.elapsed());
        }
        slot.fulfill(DecodeResponse {
            request_id: id,
            client_seq,
            result,
            batch_size,
            completion_seq,
            queue_time: dispatched_at.saturating_duration_since(submitted_at),
            total_time,
        });
    }
}

/// Owns the in-flight batch across the decode call; answers the
/// unfulfilled remainder with [`DecodeError::WorkerLost`] if the decoder
/// panics (normal dispatch pops every entry before the guard drops).
struct BatchGuard<'a> {
    metrics: &'a CodeMetrics,
    pending: VecDeque<(Request, u64)>,
    batch_size: usize,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        while let Some((request, seq)) = self.pending.pop_front() {
            self.metrics.lost.fetch_add(1, Ordering::Relaxed);
            request.fail(DecodeError::WorkerLost, self.batch_size, seq);
        }
    }
}

/// Tracks worker liveness for the whole thread body. On a panic of the
/// *last* live worker of a code, closes the code's queue and answers
/// what it held, so nothing waits forever on decoders that no longer
/// exist.
struct WorkerGuard<'a> {
    ctx: &'a ShardContext,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        let ctx = self.ctx;
        let remaining = ctx.alive.fetch_sub(1, Ordering::AcqRel) - 1;
        // A normal exit follows the run loop's drain, and a panicking
        // worker with live siblings leaves the queue to them.
        if !std::thread::panicking() || remaining > 0 {
            return;
        }
        // Last worker of the code, dying in a panic: close the queue and
        // answer everything still in it.
        for request in ctx.queue.close_and_take() {
            ctx.metrics.lost.fetch_add(1, Ordering::Relaxed);
            let seq = ctx.completion_counter.fetch_add(1, Ordering::Relaxed);
            request.fail(DecodeError::WorkerLost, 0, seq);
        }
    }
}
