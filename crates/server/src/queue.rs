//! One code's request queue: a bounded FIFO that every worker of the
//! code pops, closed by shutdown or by the death of its last worker.
//!
//! A `Mutex` over the items and a `closed` flag, plus one `Condvar` the
//! poppers wait on. Closing is a state of the queue: a closed queue
//! refuses pushes and still hands out what it holds, so a worker drains
//! it and exits with no other flag to poll. The lock also orders
//! counting against reading: [`CodeQueue::push`] counts a request while
//! it holds the lock, before any worker can pop it, and
//! [`CodeQueue::locked`] reads counters under the same lock, so a read
//! never sees a request answered that it does not see submitted.

use crate::metrics::CodeMetrics;
use crate::request::{Request, SubmitError};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A bounded FIFO of requests with a close state.
pub(crate) struct CodeQueue {
    state: Mutex<State>,
    ready: Condvar,
    capacity: usize,
}

struct State {
    items: VecDeque<Request>,
    closed: bool,
}

impl CodeQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Every update leaves the state valid, and the last worker's drain
    /// runs during unwinding, where a second panic would abort the
    /// process: a poisoned lock is used as is.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `request` and counts it in `metrics.submitted` before
    /// releasing the lock, or refuses it: `Overloaded` (counted) when
    /// full, `Shutdown` when closed (the service shut down, or every
    /// worker of the code died).
    pub(crate) fn push(&self, request: Request, metrics: &CodeMetrics) -> Result<(), SubmitError> {
        let mut state = self.state();
        if state.closed {
            return Err(SubmitError::Shutdown);
        }
        if state.items.len() >= self.capacity {
            metrics.rejected_overload.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Overloaded);
        }
        state.items.push_back(request);
        metrics.submitted.fetch_add(1, Ordering::Relaxed);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Takes the oldest request, waiting for one while the queue is open.
    /// Returns `None` once the queue is closed and empty, or once
    /// `deadline` has passed with it empty; a passed deadline still takes
    /// whatever is queued.
    pub(crate) fn pop(&self, deadline: Option<Instant>) -> Option<Request> {
        let mut state = self.state();
        loop {
            if let Some(request) = state.items.pop_front() {
                return Some(request);
            }
            if state.closed {
                return None;
            }
            state = match deadline {
                None => self
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let remaining = deadline.checked_duration_since(Instant::now())?;
                    let (state, _) = self
                        .ready
                        .wait_timeout(state, remaining)
                        .unwrap_or_else(PoisonError::into_inner);
                    state
                }
            };
        }
    }

    /// Refuses every later push and wakes every waiting popper; what is
    /// queued stays to be popped.
    pub(crate) fn close(&self) {
        self.state().closed = true;
        self.ready.notify_all();
    }

    /// Closes the queue and takes everything still in it, oldest first.
    pub(crate) fn close_and_take(&self) -> VecDeque<Request> {
        let mut state = self.state();
        state.closed = true;
        let items = std::mem::take(&mut state.items);
        drop(state);
        self.ready.notify_all();
        items
    }

    /// Runs `read` while holding the lock, so no push lands during it.
    pub(crate) fn locked<R>(&self, read: impl FnOnce() -> R) -> R {
        let _state = self.state();
        read()
    }
}

#[cfg(test)]
mod tests {
    //! Seeded interleaving stress on a small queue: M producers push
    //! (retrying while `Overloaded`), N consumers pop with short
    //! deadlines. This is the pattern the service rests on (one bounded
    //! queue per code, every worker popping its head, shutdown by
    //! `close`), so three properties are checked:
    //!
    //! 1. every request is popped exactly once;
    //! 2. within each consumer, each producer's sequence numbers
    //!    strictly increase (the queue is FIFO, so no consumer sees a
    //!    producer's requests out of order);
    //! 3. `pop` returns `None` only after `close`, with the queue empty.
    //!
    //! Each producer's and consumer's pacing (yields, deadlines) is drawn
    //! from a generator seeded from a fixed list, never from wall time.

    use super::*;
    use crate::request::ResponseSlot;
    use qldpc_gf2::BitVec;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];
    const PRODUCERS: usize = 4;
    const CONSUMERS: usize = 3;
    const PER_PRODUCER: u64 = 2_000;

    /// SplitMix64: a tiny, seedable generator for pacing decisions.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A request tagged `(producer, seq)` in its `id` and `client_seq`.
    fn request(producer: usize, seq: u64) -> Request {
        Request {
            id: producer as u64,
            client_seq: seq,
            deadline: None,
            submitted_at: Instant::now(),
            syndrome: BitVec::zeros(0),
            slot: Arc::new(ResponseSlot::default()),
        }
    }

    fn run_seed(seed: u64) {
        let capacity = 1 + (seed % 4) as usize;
        let queue = Arc::new(CodeQueue::new(capacity));
        let metrics = Arc::new(CodeMetrics::default());
        // Producers still pushing. Each one decrements when done, and
        // the last one closes the queue.
        let live_producers = Arc::new(AtomicUsize::new(PRODUCERS));
        // Set by the first consumer whose `pop(None)` returns `None`.
        let closed = Arc::new(AtomicBool::new(false));

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (queue, metrics) = (Arc::clone(&queue), Arc::clone(&metrics));
                let live_producers = Arc::clone(&live_producers);
                let mut rng = SplitMix(seed.wrapping_mul(1_000_003) ^ p as u64);
                thread::spawn(move || {
                    for seq in 0..PER_PRODUCER {
                        for _ in 0..rng.below(3) {
                            thread::yield_now();
                        }
                        loop {
                            match queue.push(request(p, seq), &metrics) {
                                Ok(()) => break,
                                Err(SubmitError::Overloaded) => thread::yield_now(),
                                Err(e) => panic!("{e} while producers run"),
                            }
                        }
                    }
                    if live_producers.fetch_sub(1, Ordering::SeqCst) == 1 {
                        queue.close();
                    }
                })
            })
            .collect();

        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|c| {
                let queue = Arc::clone(&queue);
                let live_producers = Arc::clone(&live_producers);
                let closed = Arc::clone(&closed);
                let mut rng = SplitMix(!seed.wrapping_mul(7_919) ^ c as u64);
                thread::spawn(move || {
                    let mut received = Vec::new();
                    let mut last_seq: [Option<u64>; PRODUCERS] = [None; PRODUCERS];
                    loop {
                        let timeout = match rng.below(3) {
                            0 => Duration::ZERO,
                            1 => Duration::from_micros(50),
                            _ => Duration::from_millis(1),
                        };
                        // Read before the pop: if another consumer already
                        // saw the final `None`, the queue was closed and
                        // empty, so nothing may be popped from here on.
                        let after_close = closed.load(Ordering::SeqCst);
                        let r = match queue.pop(Some(Instant::now() + timeout)) {
                            Some(r) => r,
                            // The deadline passed with the queue empty.
                            None if live_producers.load(Ordering::SeqCst) > 0 => continue,
                            // Every push is done: wait the way a worker
                            // acquires, so `None` means closed and empty.
                            None => match queue.pop(None) {
                                Some(r) => r,
                                None => {
                                    assert_eq!(
                                        queue.push(request(c, 0), &CodeMetrics::default()),
                                        Err(SubmitError::Shutdown),
                                        "seed {seed}: None from a queue that was not closed"
                                    );
                                    closed.store(true, Ordering::SeqCst);
                                    return received;
                                }
                            },
                        };
                        let (p, seq) = (r.id as usize, r.client_seq);
                        assert!(!after_close, "seed {seed}: popped ({p}, {seq}) after close");
                        assert!(
                            last_seq[p].is_none_or(|last| seq > last),
                            "seed {seed}: consumer {c} saw producer {p} go {:?} -> {seq}",
                            last_seq[p]
                        );
                        last_seq[p] = Some(seq);
                        received.push((p, seq));
                    }
                })
            })
            .collect();

        for producer in producers {
            producer.join().expect("producer panicked");
        }
        let mut per_producer: Vec<Vec<u64>> = vec![Vec::new(); PRODUCERS];
        for consumer in consumers {
            for (p, seq) in consumer.join().expect("consumer panicked") {
                per_producer[p].push(seq);
            }
        }
        for (p, mut seqs) in per_producer.into_iter().enumerate() {
            seqs.sort_unstable();
            assert_eq!(
                seqs,
                (0..PER_PRODUCER).collect::<Vec<_>>(),
                "seed {seed}: producer {p}'s requests were not each popped exactly once"
            );
        }
        assert_eq!(
            metrics.submitted.load(Ordering::SeqCst),
            PRODUCERS as u64 * PER_PRODUCER
        );
    }

    #[test]
    fn seeded_interleavings_deliver_exactly_once_in_order_then_close() {
        for seed in SEEDS {
            run_seed(seed);
        }
    }

    #[test]
    fn passed_deadline_still_pops_what_is_queued() {
        let queue = CodeQueue::new(4);
        let metrics = CodeMetrics::default();
        queue.push(request(0, 0), &metrics).unwrap();
        queue.push(request(0, 1), &metrics).unwrap();
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(queue.pop(Some(past)).map(|r| r.client_seq), Some(0));
        assert_eq!(queue.pop(Some(past)).map(|r| r.client_seq), Some(1));
        assert!(queue.pop(Some(past)).is_none());
        assert_eq!(metrics.submitted.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn close_and_take_empties_the_queue_and_refuses_later_pushes() {
        let queue = CodeQueue::new(2);
        let metrics = CodeMetrics::default();
        queue.push(request(0, 0), &metrics).unwrap();
        queue.push(request(0, 1), &metrics).unwrap();
        assert_eq!(
            queue.push(request(0, 2), &metrics),
            Err(SubmitError::Overloaded)
        );
        let taken: Vec<u64> = queue
            .close_and_take()
            .iter()
            .map(|r| r.client_seq)
            .collect();
        assert_eq!(taken, [0, 1]);
        assert_eq!(
            queue.push(request(0, 3), &metrics),
            Err(SubmitError::Shutdown)
        );
        assert!(queue.pop(None).is_none());
        assert_eq!(metrics.submitted.load(Ordering::SeqCst), 2);
        assert_eq!(metrics.rejected_overload.load(Ordering::SeqCst), 1);
    }
}
