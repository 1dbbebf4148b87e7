//! Oscillation-guided candidate-bit selection (the Φ set).

/// How candidate bits are ranked (the paper's §VII names "more effective
/// candidate selection" as future work; these variants make the design
/// space measurable — the `rank=` option of a `bp-sf` decoder token, and
/// `specs/paper/ablations.campaign`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateRanking {
    /// The paper's rule: flip count descending, ties broken by posterior
    /// reliability `|LLR|` ascending.
    #[default]
    FlipCountThenLlr,
    /// Flip count descending, ties broken by index (no reliability
    /// information) — isolates the value of the LLR tie-break.
    FlipCountOnly,
    /// Ignore oscillations entirely and rank by `|LLR|` ascending — the
    /// classical Chase criterion, isolating the value of the oscillation
    /// signal itself.
    LlrOnly,
}

/// Selects candidates under an explicit [`CandidateRanking`].
///
/// See [`select_candidates`] for the default-policy variant and the
/// padding semantics.
///
/// # Panics
///
/// Panics if `flip_counts.len() != posteriors.len()`.
pub fn select_candidates_ranked(
    flip_counts: &[u32],
    posteriors: &[f64],
    count: usize,
    pad_with_unreliable: bool,
    ranking: CandidateRanking,
) -> Vec<usize> {
    assert_eq!(
        flip_counts.len(),
        posteriors.len(),
        "flip counts and posteriors must cover the same bits"
    );
    if ranking == CandidateRanking::LlrOnly {
        let mut all: Vec<usize> = (0..flip_counts.len()).collect();
        all.sort_by(|&a, &b| {
            posteriors[a]
                .abs()
                .partial_cmp(&posteriors[b].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(&b))
        });
        all.truncate(count);
        return all;
    }
    let mut flipped: Vec<usize> = (0..flip_counts.len())
        .filter(|&i| flip_counts[i] > 0)
        .collect();
    flipped.sort_by(|&a, &b| {
        let primary = flip_counts[b].cmp(&flip_counts[a]);
        let tie = match ranking {
            CandidateRanking::FlipCountThenLlr => posteriors[a]
                .abs()
                .partial_cmp(&posteriors[b].abs())
                .unwrap_or(std::cmp::Ordering::Equal),
            _ => std::cmp::Ordering::Equal,
        };
        primary.then(tie).then_with(|| a.cmp(&b))
    });
    flipped.truncate(count);
    if pad_with_unreliable && flipped.len() < count {
        let mut rest: Vec<usize> = (0..flip_counts.len())
            .filter(|&i| flip_counts[i] == 0)
            .collect();
        rest.sort_by(|&a, &b| {
            posteriors[a]
                .abs()
                .partial_cmp(&posteriors[b].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(&b))
        });
        let need = count - flipped.len();
        flipped.extend(rest.into_iter().take(need));
    }
    flipped
}

/// Selects the `count` most oscillating bits, the paper's candidate set Φ.
///
/// Bits are ranked by descending flip count; ties (and, when fewer than
/// `count` bits ever flipped and `pad_with_unreliable` is set, the padding
/// bits) are ranked by ascending posterior reliability `|LLR|` — the least
/// reliable first. This mirrors the paper's §III-B observation that
/// oscillating bits correlate strongly with true error locations.
///
/// Returns at most `count` indices (fewer only if the block is smaller than
/// `count`, or padding is disabled and fewer bits oscillated).
///
/// # Panics
///
/// Panics if `flip_counts.len() != posteriors.len()`.
///
/// # Examples
///
/// ```
/// use bpsf_core::select_candidates;
///
/// let flips = [0u32, 5, 2, 0, 7];
/// let posteriors = [9.0, 1.0, -0.5, 0.1, 3.0];
/// // Top-2: bit 4 (7 flips), bit 1 (5 flips).
/// assert_eq!(select_candidates(&flips, &posteriors, 2, false), vec![4, 1]);
/// // Top-4 without padding: only 3 bits ever flipped.
/// assert_eq!(select_candidates(&flips, &posteriors, 4, false), vec![4, 1, 2]);
/// // With padding the least-reliable non-flipped bit (3) joins.
/// assert_eq!(select_candidates(&flips, &posteriors, 4, true), vec![4, 1, 2, 3]);
/// ```
pub fn select_candidates(
    flip_counts: &[u32],
    posteriors: &[f64],
    count: usize,
    pad_with_unreliable: bool,
) -> Vec<usize> {
    select_candidates_ranked(
        flip_counts,
        posteriors,
        count,
        pad_with_unreliable,
        CandidateRanking::FlipCountThenLlr,
    )
}

/// Precision and recall of a candidate set against the true error support
/// (paper Eq. 9–10, used by the Fig. 3 reproduction).
///
/// Returns `(precision, recall)`; both are 0 when the respective
/// denominator is empty.
pub fn hit_precision_recall(candidates: &[usize], true_support: &[usize]) -> (f64, f64) {
    if candidates.is_empty() || true_support.is_empty() {
        return (0.0, 0.0);
    }
    let truth: std::collections::HashSet<usize> = true_support.iter().copied().collect();
    let hits = candidates.iter().filter(|c| truth.contains(c)).count();
    (
        hits as f64 / candidates.len() as f64,
        hits as f64 / true_support.len() as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_by_flip_count_then_reliability() {
        let flips = [3u32, 3, 1, 0];
        let posteriors = [2.0, -0.1, 0.5, 0.0];
        // Bits 0 and 1 tie on flips; bit 1 is less reliable (|−0.1| < |2.0|).
        assert_eq!(
            select_candidates(&flips, &posteriors, 3, false),
            vec![1, 0, 2]
        );
    }

    #[test]
    fn respects_count_limit() {
        let flips = [1u32; 10];
        let posteriors = [1.0; 10];
        assert_eq!(select_candidates(&flips, &posteriors, 4, false).len(), 4);
    }

    #[test]
    fn padding_is_deterministic() {
        let flips = [0u32, 0, 1, 0];
        let posteriors = [0.3, 0.1, 5.0, 0.2];
        let c = select_candidates(&flips, &posteriors, 3, true);
        assert_eq!(c, vec![2, 1, 3]);
    }

    #[test]
    fn precision_recall_basics() {
        let (p, r) = hit_precision_recall(&[1, 2, 3, 4], &[2, 4, 9]);
        assert!((p - 0.5).abs() < 1e-12);
        assert!((r - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(hit_precision_recall(&[], &[1]), (0.0, 0.0));
        assert_eq!(hit_precision_recall(&[1], &[]), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "same bits")]
    fn length_mismatch_panics() {
        select_candidates(&[1], &[0.0, 1.0], 1, false);
    }

    #[test]
    fn llr_only_ranking_ignores_flips() {
        let flips = [9u32, 0, 0];
        let posteriors = [5.0, 0.1, 0.2];
        let c = select_candidates_ranked(&flips, &posteriors, 2, false, CandidateRanking::LlrOnly);
        // Pure reliability order: bits 1 and 2 despite bit 0's flips.
        assert_eq!(c, vec![1, 2]);
    }

    #[test]
    fn flip_count_only_breaks_ties_by_index() {
        let flips = [3u32, 3, 1];
        let posteriors = [0.1, 5.0, 0.0];
        let c = select_candidates_ranked(
            &flips,
            &posteriors,
            3,
            false,
            CandidateRanking::FlipCountOnly,
        );
        assert_eq!(c, vec![0, 1, 2]);
        // Default ranking prefers the less reliable of the tied pair.
        let d = select_candidates(&flips, &posteriors, 3, false);
        assert_eq!(d, vec![0, 1, 2]);
        let e = select_candidates_ranked(
            &[3, 3, 1],
            &[5.0, 0.1, 0.0],
            3,
            false,
            CandidateRanking::FlipCountThenLlr,
        );
        assert_eq!(e, vec![1, 0, 2]);
    }
}
