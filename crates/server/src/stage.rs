//! The per-request stage taxonomy and its histograms.
//!
//! A decode request's life inside the service decomposes into five
//! stages, and the latency argument the stack exists to make hinges on
//! knowing which of them the microseconds went to:
//!
//! | stage | covers |
//! |---|---|
//! | `queue_wait` | submit → a worker picks the request up |
//! | `coalesce_wait` | holding the batch open for more arrivals |
//! | `kernel` | the decoder call itself (`decode_batch`) |
//! | `post_process` | kernel return → all responses of the batch fulfilled |
//! | `fulfill` | dispatch → this request's own response fulfilled |
//!
//! [`StageSet`] keeps one [`StreamingHistogram`] per stage (seconds).

use crate::histogram::{HistogramSnapshot, StreamingHistogram};
use std::time::Duration;

/// One stage of a request's life, in pipeline order; the discriminant
/// indexes the per-stage histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Submit → a worker picks the request up.
    QueueWait,
    /// Holding a forming batch open for more arrivals.
    CoalesceWait,
    /// The decoder kernel call.
    Kernel,
    /// Kernel return → all of the batch's responses fulfilled.
    PostProcess,
    /// Dispatch → this request's own response fulfilled.
    Fulfill,
}

impl Stage {
    /// Every stage, in canonical (pipeline) order.
    const ALL: [Stage; 5] = [
        Stage::QueueWait,
        Stage::CoalesceWait,
        Stage::Kernel,
        Stage::PostProcess,
        Stage::Fulfill,
    ];

    /// The exposition label, e.g. `"queue_wait"`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::CoalesceWait => "coalesce_wait",
            Stage::Kernel => "kernel",
            Stage::PostProcess => "post_process",
            Stage::Fulfill => "fulfill",
        }
    }
}

/// One streaming histogram per [`Stage`], recording durations in
/// seconds. Sharing rules match [`StreamingHistogram`]: any number of
/// threads may record concurrently.
#[derive(Debug, Default)]
pub struct StageSet {
    histograms: [StreamingHistogram; 5],
}

impl StageSet {
    /// An empty stage set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `duration` against `stage`.
    pub fn record(&self, stage: Stage, duration: Duration) {
        self.histograms[stage as usize].record(duration.as_secs_f64());
    }

    /// Point-in-time copy of every stage histogram.
    pub(crate) fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            stages: std::array::from_fn(|i| self.histograms[i].snapshot()),
        }
    }
}

/// A plain-data copy of a [`StageSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageSnapshot {
    stages: [HistogramSnapshot; 5],
}

impl StageSnapshot {
    /// The histogram of one stage.
    pub fn get(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage as usize]
    }

    /// Iterates `(stage, histogram)` pairs in canonical order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Stage, &HistogramSnapshot)> {
        Stage::ALL.into_iter().zip(&self.stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique_and_ordered() {
        // `ALL` lists the stages in discriminant order, so `iter` pairs
        // each stage with its own histogram.
        assert!(Stage::ALL.iter().enumerate().all(|(i, &s)| s as usize == i));
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(names[0], "queue_wait");
        assert_eq!(names[4], "fulfill");
    }

    #[test]
    fn records_per_stage() {
        let set = StageSet::new();
        set.record(Stage::Kernel, Duration::from_micros(250));
        set.record(Stage::Kernel, Duration::from_micros(750));
        set.record(Stage::QueueWait, Duration::from_millis(1));
        let snap = set.snapshot();
        assert_eq!(snap.get(Stage::Kernel).count, 2);
        assert!((snap.get(Stage::Kernel).sum - 0.001).abs() < 1e-9);
        assert_eq!(snap.get(Stage::QueueWait).count, 1);
        assert_eq!(snap.iter().count(), 5);
    }
}
