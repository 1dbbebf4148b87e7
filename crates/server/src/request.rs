//! The request/response surface of the decoding service: submission
//! errors, per-request outcomes, and the blocking/polling response
//! handle a client holds while its syndrome is in flight.

use qldpc_decoder_api::DecodeOutcome;
use qldpc_gf2::BitVec;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a submission was refused at the door (the request never entered a
/// queue and no [`ResponseHandle`] exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The code's queue is full — backpressure. Retry later or shed load
    /// upstream.
    Overloaded,
    /// The service has been shut down (or every worker of the code has
    /// died — see [`DecodeError::WorkerLost`]).
    Shutdown,
    /// No code with this id is registered.
    UnknownCode,
    /// The syndrome length does not match the registered check matrix's
    /// row count.
    SyndromeLength {
        /// `h.rows()` of the registered code.
        expected: usize,
        /// Length of the submitted syndrome.
        got: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "the code's queue is full"),
            SubmitError::Shutdown => write!(f, "service is shut down"),
            SubmitError::UnknownCode => write!(f, "unknown code id"),
            SubmitError::SyndromeLength { expected, got } => {
                write!(f, "syndrome length {got}, check matrix has {expected} rows")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an *accepted* request produced no decode outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The per-request deadline had already passed when the scheduler
    /// pulled the request into a batch; it was not decoded.
    DeadlineExceeded,
    /// The worker owning the request died (panicked) before
    /// producing an outcome. The request was not decoded, but the
    /// "exactly one response per accepted request" invariant holds:
    /// nothing waits forever on a dead worker.
    WorkerLost,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::DeadlineExceeded => write!(f, "deadline exceeded before dispatch"),
            DecodeError::WorkerLost => write!(f, "worker lost before decoding"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The service's answer to one submitted syndrome.
#[derive(Debug, Clone)]
pub struct DecodeResponse {
    /// Globally unique id echoed from submission.
    pub request_id: u64,
    /// The submitting client's per-client sequence number, echoed back.
    pub client_seq: u64,
    /// The decode outcome, or why the request was dropped undecoded.
    pub result: Result<DecodeOutcome, DecodeError>,
    /// Number of live requests in the batch this one was dispatched with
    /// (1 ⇒ it rode alone; expired requests report the batch they were
    /// pulled out of; worker-lost requests that never reached a batch
    /// report 0).
    pub batch_size: usize,
    /// Monotone per-code completion stamp: batches get a contiguous
    /// range in dispatch order, requests within a batch keep their
    /// queue order. With a single worker this makes per-client FIFO
    /// directly observable (see the soak tests).
    pub completion_seq: u64,
    /// Time from submission to the scheduler pulling the request into a
    /// batch.
    pub queue_time: Duration,
    /// Time from submission to response fulfillment.
    pub total_time: Duration,
}

/// One-shot slot a worker fulfills and a waiter blocks on.
#[derive(Debug, Default)]
pub(crate) struct ResponseSlot {
    state: Mutex<Option<DecodeResponse>>,
    ready: Condvar,
}

impl ResponseSlot {
    /// Stores the response and wakes every waiter. Robust against
    /// mutex poisoning: a drop-guard fulfilling slots *during a worker
    /// panic* must never double-panic (that would abort the process).
    pub(crate) fn fulfill(&self, response: DecodeResponse) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(state.is_none(), "response slot fulfilled twice");
        *state = Some(response);
        drop(state);
        self.ready.notify_all();
    }

    /// Blocks until the response arrives and takes it.
    pub(crate) fn wait_take(&self) -> DecodeResponse {
        let mut state = self.state.lock().expect("response slot poisoned");
        loop {
            if let Some(response) = state.take() {
                return response;
            }
            state = self.ready.wait(state).expect("response slot poisoned");
        }
    }

    /// Takes the response if it has arrived.
    pub(crate) fn poll_take(&self) -> Option<DecodeResponse> {
        self.state.lock().expect("response slot poisoned").take()
    }
}

/// A claim on one in-flight request. Exactly one of [`wait`],
/// [`wait_timeout`] or [`try_take`] eventually yields the
/// [`DecodeResponse`]; the service fulfills every accepted request, even
/// through shutdown (the workers drain the queues before exiting) and
/// through worker death (a lost worker's requests are answered with
/// [`DecodeError::WorkerLost`]).
///
/// [`wait`]: ResponseHandle::wait
/// [`wait_timeout`]: ResponseHandle::wait_timeout
/// [`try_take`]: ResponseHandle::try_take
#[derive(Debug)]
pub struct ResponseHandle {
    pub(crate) slot: Arc<ResponseSlot>,
    pub(crate) request_id: u64,
    pub(crate) client_seq: u64,
}

impl ResponseHandle {
    /// The id assigned at submission (matches the response's
    /// `request_id`).
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The submitting client's sequence number for this request.
    pub fn client_seq(&self) -> u64 {
        self.client_seq
    }

    /// Whether the response has arrived (a subsequent take will not
    /// block).
    pub fn is_ready(&self) -> bool {
        self.slot
            .state
            .lock()
            .expect("response slot poisoned")
            .is_some()
    }

    /// Blocks until the response arrives.
    pub fn wait(self) -> DecodeResponse {
        self.slot.wait_take()
    }

    /// Blocks up to `timeout`; on expiry the handle is returned so the
    /// caller can keep waiting later (the request stays in flight). A
    /// zero timeout degenerates to [`Self::try_take`]: an
    /// already-fulfilled response is returned without blocking.
    pub fn wait_timeout(self, timeout: Duration) -> Result<DecodeResponse, ResponseHandle> {
        let deadline = Instant::now() + timeout;
        let mut state = self.slot.state.lock().expect("response slot poisoned");
        loop {
            if let Some(response) = state.take() {
                return Ok(response);
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                drop(state);
                return Err(self);
            };
            let (s, wait) = self
                .slot
                .ready
                .wait_timeout(state, remaining)
                .expect("response slot poisoned");
            state = s;
            if wait.timed_out() && state.is_none() {
                drop(state);
                return Err(self);
            }
        }
    }

    /// Non-blocking poll; on a not-yet-ready response the handle is
    /// returned for a later retry.
    pub fn try_take(self) -> Result<DecodeResponse, ResponseHandle> {
        match self.slot.poll_take() {
            Some(response) => Ok(response),
            None => Err(self),
        }
    }
}

/// Internal queued form of a request, owned by its code's queue.
pub(crate) struct Request {
    pub id: u64,
    pub client_seq: u64,
    pub deadline: Option<Instant>,
    pub submitted_at: Instant,
    pub syndrome: BitVec,
    /// Where the answer goes.
    pub slot: Arc<ResponseSlot>,
}

impl Request {
    /// Answers the request with `error` — the path for every request a
    /// dying worker owns.
    pub(crate) fn fail(self, error: DecodeError, batch_size: usize, completion_seq: u64) {
        let total_time = self.submitted_at.elapsed();
        self.slot.fulfill(DecodeResponse {
            request_id: self.id,
            client_seq: self.client_seq,
            result: Err(error),
            batch_size,
            completion_seq,
            queue_time: total_time,
            total_time,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn dummy_response(id: u64) -> DecodeResponse {
        DecodeResponse {
            request_id: id,
            client_seq: 0,
            result: Err(DecodeError::DeadlineExceeded),
            batch_size: 1,
            completion_seq: 0,
            queue_time: Duration::ZERO,
            total_time: Duration::ZERO,
        }
    }

    fn handle(slot: &Arc<ResponseSlot>) -> ResponseHandle {
        ResponseHandle {
            slot: Arc::clone(slot),
            request_id: 7,
            client_seq: 3,
        }
    }

    #[test]
    fn try_take_and_is_ready_round_trip() {
        let slot = Arc::new(ResponseSlot::default());
        let h = handle(&slot);
        assert!(!h.is_ready());
        let h = h.try_take().unwrap_err();
        slot.fulfill(dummy_response(7));
        assert!(h.is_ready());
        let r = h.try_take().unwrap();
        assert_eq!(r.request_id, 7);
    }

    #[test]
    fn wait_blocks_until_fulfilled() {
        let slot = Arc::new(ResponseSlot::default());
        let h = handle(&slot);
        let t = thread::spawn(move || h.wait().request_id);
        thread::sleep(Duration::from_millis(10));
        slot.fulfill(dummy_response(7));
        assert_eq!(t.join().unwrap(), 7);
    }

    #[test]
    fn wait_timeout_returns_handle_then_succeeds() {
        let slot = Arc::new(ResponseSlot::default());
        let h = handle(&slot);
        let h = h.wait_timeout(Duration::from_millis(5)).unwrap_err();
        assert_eq!(h.request_id(), 7);
        assert_eq!(h.client_seq(), 3);
        slot.fulfill(dummy_response(7));
        let r = h.wait_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(r.request_id, 7);
    }

    #[test]
    fn wait_timeout_zero_duration() {
        let slot = Arc::new(ResponseSlot::default());
        let h = handle(&slot);
        // Not ready yet: a zero timeout must return the handle
        // immediately instead of blocking.
        let h = h.wait_timeout(Duration::ZERO).unwrap_err();
        slot.fulfill(dummy_response(7));
        // Already fulfilled: a zero timeout must still return the
        // response (the pre-deadline state check runs before any wait).
        let r = h.wait_timeout(Duration::ZERO).unwrap();
        assert_eq!(r.request_id, 7);
    }

    #[test]
    fn wait_timeout_survives_spurious_wakeups() {
        let slot = Arc::new(ResponseSlot::default());
        let h = handle(&slot);
        // Ring the condvar repeatedly *without* fulfilling: each wakeup
        // is indistinguishable from a spurious one, and the waiter must
        // keep waiting rather than time out early or return garbage.
        let notifier = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                for _ in 0..20 {
                    slot.ready.notify_all();
                    thread::sleep(Duration::from_millis(1));
                }
                slot.fulfill(dummy_response(7));
            })
        };
        let r = h
            .wait_timeout(Duration::from_secs(30))
            .expect("fulfilled response must resolve despite empty wakeups");
        assert_eq!(r.request_id, 7);
        notifier.join().unwrap();
    }

    #[test]
    fn fail_answers_the_request() {
        let slot = Arc::new(ResponseSlot::default());
        let request = Request {
            id: 9,
            client_seq: 1,
            deadline: None,
            submitted_at: Instant::now(),
            syndrome: BitVec::zeros(4),
            slot: Arc::clone(&slot),
        };
        request.fail(DecodeError::WorkerLost, 0, 42);
        let r = handle(&slot).wait();
        assert_eq!(r.result.unwrap_err(), DecodeError::WorkerLost);
        assert_eq!(r.request_id, 9);
        assert_eq!(r.completion_seq, 42);
    }
}
