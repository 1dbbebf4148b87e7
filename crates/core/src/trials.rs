//! Trial-vector generation over the candidate set Φ.

use qldpc_gf2::BitVec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// An ordered collection of trial vectors, each a subset of the candidate
/// set given as variable indices.
///
/// Two regimes (paper §V):
///
/// * [`TrialVectors::exhaustive`] — every non-empty subset of Φ of size
///   `≤ w_max`, in ascending weight order (code-capacity regime),
/// * [`TrialVectors::sampled`] — `n_s` distinct random subsets per weight
///   `1..=w_max` (circuit-level regime, where exhaustive enumeration over
///   |Φ| = 50 is infeasible).
///
/// # Examples
///
/// ```
/// use bpsf_core::TrialVectors;
///
/// let trials = TrialVectors::exhaustive(&[10, 20, 30], 2);
/// assert_eq!(trials.len(), 3 + 3); // three singletons, three pairs
/// assert_eq!(trials.vectors()[0], vec![10]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialVectors {
    vectors: Vec<Vec<usize>>,
}

impl TrialVectors {
    /// Enumerates every non-empty subset of `candidates` with size at most
    /// `max_weight`, lightest first (cheap, most likely trials first).
    pub fn exhaustive(candidates: &[usize], max_weight: usize) -> Self {
        let mut vectors = Vec::new();
        let k = candidates.len();
        for w in 1..=max_weight.min(k) {
            // Lexicographic combinations of w indices out of k.
            let mut idx: Vec<usize> = (0..w).collect();
            loop {
                vectors.push(idx.iter().map(|&i| candidates[i]).collect());
                // Find the rightmost index that can still advance.
                let Some(i) = (0..w).rev().find(|&i| idx[i] != i + k - w) else {
                    break;
                };
                idx[i] += 1;
                for j in i + 1..w {
                    idx[j] = idx[j - 1] + 1;
                }
            }
        }
        Self { vectors }
    }

    /// Draws `per_weight` *distinct* random subsets of each size
    /// `1..=max_weight` from `candidates`. Weight-1 subsets are capped by
    /// `candidates.len()`; duplicate draws are retried a bounded number of
    /// times, so fewer than `per_weight` subsets can be returned for tiny
    /// candidate sets.
    pub fn sampled(
        candidates: &[usize],
        max_weight: usize,
        per_weight: usize,
        rng: &mut StdRng,
    ) -> Self {
        let k = candidates.len();
        let mut vectors = Vec::new();
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        for w in 1..=max_weight.min(k) {
            let mut produced = 0usize;
            let mut attempts = 0usize;
            let max_attempts = per_weight * 20 + 20;
            while produced < per_weight && attempts < max_attempts {
                attempts += 1;
                let mut subset = sample_subset(candidates, w, rng);
                subset.sort_unstable();
                if seen.insert(subset.clone()) {
                    vectors.push(subset);
                    produced += 1;
                }
            }
        }
        Self { vectors }
    }

    /// The trial vectors, in decode order.
    pub fn vectors(&self) -> &[Vec<usize>] {
        &self.vectors
    }

    /// Number of trials.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True if no trials were generated.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Iterates over the trial supports.
    pub fn iter(&self) -> std::slice::Iter<'_, Vec<usize>> {
        self.vectors.iter()
    }
}

impl<'a> IntoIterator for &'a TrialVectors {
    type Item = &'a Vec<usize>;
    type IntoIter = std::slice::Iter<'a, Vec<usize>>;

    fn into_iter(self) -> Self::IntoIter {
        self.vectors.iter()
    }
}

/// The sampled-trial generator of one post-processed shot: a pure function
/// of `(seed, syndrome)`, so a decode depends on no earlier decode. The mix
/// is the SplitMix64 finalizer folded over the syndrome words — fixed
/// constants, identical on every platform.
pub(crate) fn shot_rng(seed: u64, syndrome: &BitVec) -> StdRng {
    let mixed = syndrome.as_words().iter().fold(seed, |h, &word| {
        let z = (h ^ word).wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    });
    StdRng::seed_from_u64(mixed)
}

/// Uniformly samples a `w`-element subset of `pool` (Floyd-like via partial
/// shuffle of an index scratch).
fn sample_subset(pool: &[usize], w: usize, rng: &mut StdRng) -> Vec<usize> {
    debug_assert!(w <= pool.len());
    if w == 1 {
        return vec![pool[rng.random_range(0..pool.len())]];
    }
    let mut scratch: Vec<usize> = pool.to_vec();
    let (chosen, _) = scratch.partial_shuffle(rng, w);
    chosen.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_counts_match_binomials() {
        let c: Vec<usize> = (0..5).collect();
        assert_eq!(TrialVectors::exhaustive(&c, 1).len(), 5);
        assert_eq!(TrialVectors::exhaustive(&c, 2).len(), 5 + 10);
        assert_eq!(TrialVectors::exhaustive(&c, 3).len(), 5 + 10 + 10);
        assert_eq!(TrialVectors::exhaustive(&c, 5).len(), 31); // 2⁵ − 1
    }

    #[test]
    fn exhaustive_is_weight_ordered_and_unique() {
        let c = [2usize, 4, 6, 8];
        let t = TrialVectors::exhaustive(&c, 3);
        let mut prev_w = 0;
        let mut seen = HashSet::new();
        for v in t.iter() {
            assert!(v.len() >= prev_w, "weights must be non-decreasing");
            prev_w = v.len();
            assert!(seen.insert(v.clone()), "duplicate trial {v:?}");
            for x in v {
                assert!(c.contains(x));
            }
        }
    }

    #[test]
    fn exhaustive_handles_small_candidate_sets() {
        let t = TrialVectors::exhaustive(&[7], 3);
        assert_eq!(t.vectors(), &[vec![7]]);
        let t = TrialVectors::exhaustive(&[], 3);
        assert!(t.is_empty());
    }

    #[test]
    fn sampled_produces_distinct_sorted_subsets() {
        let c: Vec<usize> = (0..50).collect();
        let mut rng = StdRng::seed_from_u64(42);
        let t = TrialVectors::sampled(&c, 6, 5, &mut rng);
        assert_eq!(t.len(), 30);
        let mut seen = HashSet::new();
        for v in t.iter() {
            assert!(v.windows(2).all(|w| w[0] < w[1]), "subset must be sorted");
            assert!(seen.insert(v.clone()));
        }
    }

    #[test]
    fn sampled_caps_on_tiny_pools() {
        let c = [1usize, 2];
        let mut rng = StdRng::seed_from_u64(1);
        let t = TrialVectors::sampled(&c, 3, 10, &mut rng);
        // Weight 1: at most 2 distinct; weight 2: at most 1 distinct.
        assert!(t.len() <= 3);
        assert!(t.len() >= 3, "all distinct subsets should be found");
    }

    /// Pins the `(seed, syndrome) → trials` stream to literal values: a
    /// change to the mix or to the sampler silently changes every sampled
    /// BP-SF outcome, recorded campaign rows included.
    #[test]
    fn shot_rng_stream_is_pinned() {
        let c: Vec<usize> = (0..50).collect();
        let syndrome = BitVec::from_indices(130, &[0, 63, 64, 129]);
        let trials = |seed, s: &BitVec| TrialVectors::sampled(&c, 3, 2, &mut shot_rng(seed, s));
        let pinned: [&[usize]; 6] = [
            &[8],
            &[22],
            &[39, 43],
            &[3, 28],
            &[19, 39, 48],
            &[15, 29, 38],
        ];
        assert_eq!(trials(0, &syndrome).vectors(), pinned);
        assert_ne!(trials(0, &syndrome), trials(1, &syndrome));
        assert_ne!(trials(0, &syndrome), trials(0, &BitVec::zeros(130)));
        // Word position matters, not only the multiset of words.
        let swapped = BitVec::from_words(128, vec![2, 1]);
        assert_ne!(
            trials(0, &BitVec::from_words(128, vec![1, 2])),
            trials(0, &swapped)
        );
    }

    #[test]
    fn sampled_is_deterministic_per_seed() {
        let c: Vec<usize> = (0..20).collect();
        let t1 = TrialVectors::sampled(&c, 4, 3, &mut StdRng::seed_from_u64(9));
        let t2 = TrialVectors::sampled(&c, 4, 3, &mut StdRng::seed_from_u64(9));
        assert_eq!(t1, t2);
    }
}
