//! The bounded ring-buffer event journal.
//!
//! Counters and histograms answer "how much"; the journal answers
//! "what happened right before it died". Rare, high-signal events —
//! worker panics, overload rejections, shutdown drains — append
//! `(sequence, elapsed, kind, detail)` entries into a fixed-capacity
//! ring; when the ring is full the oldest entry is evicted, so memory
//! stays bounded no matter how long the service runs, and a post-mortem
//! dump always shows the *most recent* history.
//!
//! Recording takes a mutex: events are orders of magnitude rarer than
//! samples, so contention is irrelevant and the simple implementation
//! wins.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One journaled event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Monotone sequence number (counts every event ever recorded, so
    /// gaps at the front of a dump reveal how much history was
    /// evicted).
    pub seq: u64,
    /// Time since the journal was created.
    pub elapsed: Duration,
    /// Short machine-readable event class, e.g. `"worker-death"`.
    pub kind: &'static str,
    /// Free-form context, e.g. `"code=gross worker=1"`.
    pub detail: String,
}

/// A bounded, thread-safe ring of recent [`JournalEntry`]s.
#[derive(Debug)]
pub(crate) struct EventJournal {
    started: Instant,
    capacity: usize,
    inner: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    entries: VecDeque<JournalEntry>,
    next_seq: u64,
}

impl EventJournal {
    /// A journal retaining at most `capacity` most-recent events.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "journal capacity must be positive");
        Self {
            started: Instant::now(),
            capacity,
            inner: Mutex::new(Ring {
                entries: VecDeque::with_capacity(capacity),
                next_seq: 0,
            }),
        }
    }

    /// Appends an event, evicting the oldest entry when full.
    pub(crate) fn record(&self, kind: &'static str, detail: impl Into<String>) {
        let entry_elapsed = self.started.elapsed();
        let mut ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.entries.len() == self.capacity {
            ring.entries.pop_front();
        }
        ring.entries.push_back(JournalEntry {
            seq,
            elapsed: entry_elapsed,
            kind,
            detail: detail.into(),
        });
    }

    /// Copies out the retained entries, oldest first.
    pub(crate) fn dump(&self) -> Vec<JournalEntry> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_most_recent() {
        let j = EventJournal::new(3);
        for i in 0..5 {
            j.record("tick", format!("i={i}"));
        }
        let dump = j.dump();
        assert_eq!(dump.len(), 3);
        assert_eq!(dump[0].seq, 2);
        assert_eq!(dump[2].seq, 4);
        assert_eq!(dump[2].detail, "i=4");
    }

    #[test]
    fn concurrent_records_keep_sequence_dense() {
        use std::sync::Arc;
        let j = Arc::new(EventJournal::new(64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        j.record("evt", "");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let seqs: Vec<u64> = j.dump().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = EventJournal::new(0);
    }
}
