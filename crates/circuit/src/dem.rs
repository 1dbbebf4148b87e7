//! Detector error model extraction and sampling.

use crate::circuit::{NoiseChannel, Op};
use crate::memory::MemoryExperiment;
use qldpc_gf2::{BitVec, SparseBitMatrix};
use rand::Rng;
use std::collections::HashMap;
use std::fmt;

/// The decoding problem extracted from a noisy circuit: one column per
/// *error mechanism* (a merged equivalence class of elementary faults with
/// identical detector and observable signatures), one row per detector.
///
/// This is the exact analogue of a Stim detector error model restricted to
/// one decoding basis. Decoders consume [`Self::check_matrix`],
/// [`Self::priors`], and judge corrections with
/// [`Self::is_logical_error`].
///
/// # Examples
///
/// ```
/// use qldpc_circuit::{MemoryExperiment, NoiseModel};
/// use qldpc_codes::bb;
///
/// let exp = MemoryExperiment::memory_z(&bb::bb72(), 2, &NoiseModel::uniform_depolarizing(1e-3));
/// let dem = exp.detector_error_model();
/// // Every mechanism must trip at least one detector (none undetectable).
/// assert_eq!(dem.num_undetectable(), 0);
/// ```
#[derive(Clone)]
pub struct DetectorErrorModel {
    num_detectors: usize,
    num_observables: usize,
    priors: Vec<f64>,
    check: SparseBitMatrix,
    obs: SparseBitMatrix,
    undetectable: usize,
}

impl DetectorErrorModel {
    /// Builds the DEM for a memory experiment via a single backward sweep.
    ///
    /// Fault signatures are linear over GF(2), so it suffices to propagate,
    /// for every qubit, the signature of an X and a Z fault "now"; sweeping
    /// the circuit backward updates these in `O(1)` per gate (bitset XOR),
    /// and every noise location reads off its component signatures from
    /// the current state.
    pub fn from_experiment(exp: &MemoryExperiment) -> Self {
        let circuit = exp.circuit();
        let nq = circuit.num_qubits();
        let nd = exp.num_detectors();
        let no = exp.num_observables();
        let nm = circuit.num_measurements();

        // Measurement → detector / observable incidence.
        let mut det_of_meas: Vec<Vec<u32>> = vec![Vec::new(); nm];
        for (d, meas_set) in exp.detectors().iter().enumerate() {
            for &m in meas_set {
                det_of_meas[m as usize].push(d as u32);
            }
        }
        let mut obs_of_meas: Vec<Vec<u32>> = vec![Vec::new(); nm];
        for (o, meas_set) in exp.observables().iter().enumerate() {
            for &m in meas_set {
                obs_of_meas[m as usize].push(o as u32);
            }
        }

        // Per-qubit signatures of an X / Z fault inserted at the current
        // (backward) position. sig = (detector bitset, observable bitset).
        let mut sig_x: Vec<(BitVec, BitVec)> = (0..nq)
            .map(|_| (BitVec::zeros(nd), BitVec::zeros(no)))
            .collect();
        let mut sig_z: Vec<(BitVec, BitVec)> = (0..nq)
            .map(|_| (BitVec::zeros(nd), BitVec::zeros(no)))
            .collect();

        // Accumulate merged mechanisms keyed by signature.
        let mut merged: HashMap<(BitVec, BitVec), f64> = HashMap::new();
        let mut add_component = |sig: (BitVec, BitVec), p: f64| {
            if p <= 0.0 || (sig.0.is_zero() && sig.1.is_zero()) {
                return;
            }
            let entry = merged.entry(sig).or_insert(0.0);
            // Two mechanisms with the same signature act like independent
            // coins whose XOR matters: p ← p₁(1−p₂) + p₂(1−p₁).
            *entry = *entry * (1.0 - p) + p * (1.0 - *entry);
        };

        let xor_sig = |a: &(BitVec, BitVec), b: &(BitVec, BitVec)| {
            let mut out = a.clone();
            out.0.xor_assign(&b.0);
            out.1.xor_assign(&b.1);
            out
        };

        let mut meas_cursor = nm;
        for op in circuit.ops().iter().rev() {
            match *op {
                Op::Measure(q) => {
                    meas_cursor -= 1;
                    let (dets, obs) = &mut sig_x[q as usize];
                    for &d in &det_of_meas[meas_cursor] {
                        dets.flip(d as usize);
                    }
                    for &o in &obs_of_meas[meas_cursor] {
                        obs.flip(o as usize);
                    }
                }
                Op::Reset(q) => {
                    sig_x[q as usize].0.clear();
                    sig_x[q as usize].1.clear();
                    sig_z[q as usize].0.clear();
                    sig_z[q as usize].1.clear();
                }
                Op::H(q) => {
                    let q = q as usize;
                    std::mem::swap(&mut sig_x[q], &mut sig_z[q]);
                }
                Op::Cnot(c, t) => {
                    // Forward: X_c → X_c X_t, Z_t → Z_c Z_t.
                    let sx = xor_sig(&sig_x[c as usize], &sig_x[t as usize]);
                    sig_x[c as usize] = sx;
                    let sz = xor_sig(&sig_z[t as usize], &sig_z[c as usize]);
                    sig_z[t as usize] = sz;
                }
                Op::Noise(channel) => match channel {
                    NoiseChannel::XError(q, p) => {
                        add_component(sig_x[q as usize].clone(), p);
                    }
                    NoiseChannel::Depolarize1(q, p) => {
                        let q = q as usize;
                        let each = p / 3.0;
                        add_component(sig_x[q].clone(), each);
                        add_component(sig_z[q].clone(), each);
                        add_component(xor_sig(&sig_x[q], &sig_z[q]), each);
                    }
                    NoiseChannel::Depolarize2(a, b, p) => {
                        let (a, b) = (a as usize, b as usize);
                        let each = p / 15.0;
                        // All 15 nontrivial products of {I,X,Z,Y}⊗{I,X,Z,Y}.
                        let paulis_a = [
                            None,
                            Some(sig_x[a].clone()),
                            Some(sig_z[a].clone()),
                            Some(xor_sig(&sig_x[a], &sig_z[a])),
                        ];
                        let paulis_b = [
                            None,
                            Some(sig_x[b].clone()),
                            Some(sig_z[b].clone()),
                            Some(xor_sig(&sig_x[b], &sig_z[b])),
                        ];
                        for (i, pa) in paulis_a.iter().enumerate() {
                            for (j, pb) in paulis_b.iter().enumerate() {
                                if i == 0 && j == 0 {
                                    continue;
                                }
                                let sig = match (pa, pb) {
                                    (Some(sa), Some(sb)) => xor_sig(sa, sb),
                                    (Some(sa), None) => sa.clone(),
                                    (None, Some(sb)) => sb.clone(),
                                    (None, None) => unreachable!(),
                                };
                                add_component(sig, each);
                            }
                        }
                    }
                },
            }
        }

        // Deterministic mechanism order: sort by detector support then
        // observable support, each as its sorted index list.
        let mut mechanisms: Vec<(Vec<usize>, Vec<usize>, f64)> = merged
            .into_iter()
            .map(|((dets, obs), p)| (dets.iter_ones().collect(), obs.iter_ones().collect(), p))
            .collect();
        mechanisms.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));

        // Assemble sparse matrices (detectors × mechanisms).
        let ncols = mechanisms.len();
        let mut priors = Vec::with_capacity(ncols);
        let mut undetectable = 0usize;
        let mut det_rows: Vec<Vec<usize>> = vec![Vec::new(); nd];
        let mut obs_rows: Vec<Vec<usize>> = vec![Vec::new(); no];
        for (col, (dets, obs, p)) in mechanisms.into_iter().enumerate() {
            if dets.is_empty() {
                undetectable += 1;
            }
            priors.push(p);
            for d in dets {
                det_rows[d].push(col);
            }
            for o in obs {
                obs_rows[o].push(col);
            }
        }
        let check = SparseBitMatrix::from_row_indices(nd, ncols, &det_rows);
        let obs = SparseBitMatrix::from_row_indices(no, ncols, &obs_rows);

        Self {
            num_detectors: nd,
            num_observables: no,
            priors,
            check,
            obs,
            undetectable,
        }
    }

    /// Number of detectors (rows of the decoding problem).
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of logical observables.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// Number of error mechanisms (columns).
    pub fn num_mechanisms(&self) -> usize {
        self.priors.len()
    }

    /// Mechanisms that flip no detector (they would be invisible to any
    /// decoder). Zero for well-formed memory experiments.
    pub fn num_undetectable(&self) -> usize {
        self.undetectable
    }

    /// Per-mechanism prior probabilities.
    pub fn priors(&self) -> &[f64] {
        &self.priors
    }

    /// The detectors × mechanisms check matrix (the decoder's `H`).
    pub fn check_matrix(&self) -> &SparseBitMatrix {
        &self.check
    }

    /// The observables × mechanisms matrix (the decoder's `L`).
    pub fn observable_matrix(&self) -> &SparseBitMatrix {
        &self.obs
    }

    /// Detector support of mechanism `m` (sorted).
    pub fn mechanism_detectors(&self, m: usize) -> &[u32] {
        self.check.col_support(m)
    }

    /// Observable support of mechanism `m` (sorted).
    pub fn mechanism_observables(&self, m: usize) -> &[u32] {
        self.obs.col_support(m)
    }

    /// Judges a correction: given the true observable flips of a shot and
    /// a decoder's mechanism estimate `error_hat`, returns `true` if the
    /// corrected state carries a logical error.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn is_logical_error(&self, true_obs_flips: &BitVec, error_hat: &BitVec) -> bool {
        assert_eq!(
            true_obs_flips.len(),
            self.num_observables,
            "observable count mismatch"
        );
        let predicted = self.obs.mul_vec(error_hat);
        predicted != *true_obs_flips
    }
}

impl fmt::Debug for DetectorErrorModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DetectorErrorModel(detectors={}, mechanisms={}, observables={}, undetectable={})",
            self.num_detectors,
            self.num_mechanisms(),
            self.num_observables,
            self.undetectable
        )
    }
}

/// One sampled shot of a memory experiment.
#[derive(Debug, Clone)]
pub struct Shot {
    /// The fault vector over mechanisms.
    pub fault: BitVec,
    /// The triggered detectors (`check · fault`).
    pub syndrome: BitVec,
    /// The true observable flips (`obs · fault`).
    pub obs_flips: BitVec,
}

/// Samples (syndrome, observable) shots from a [`DetectorErrorModel`].
///
/// # Examples
///
/// ```
/// use qldpc_circuit::{DemSampler, MemoryExperiment, NoiseModel};
/// use qldpc_codes::bb;
/// use rand::SeedableRng;
///
/// let exp = MemoryExperiment::memory_z(&bb::bb72(), 2, &NoiseModel::uniform_depolarizing(1e-3));
/// let dem = exp.detector_error_model();
/// let sampler = DemSampler::new(&dem);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let shot = sampler.sample(&mut rng);
/// assert_eq!(shot.syndrome.len(), dem.num_detectors());
/// ```
#[derive(Debug, Clone)]
pub struct DemSampler<'a> {
    dem: &'a DetectorErrorModel,
}

impl<'a> DemSampler<'a> {
    /// Creates a sampler borrowing the model.
    pub fn new(dem: &'a DetectorErrorModel) -> Self {
        Self { dem }
    }

    /// Draws one shot.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Shot {
        let dem = self.dem;
        let mut fault = BitVec::zeros(dem.num_mechanisms());
        let mut syndrome = BitVec::zeros(dem.num_detectors());
        let mut obs_flips = BitVec::zeros(dem.num_observables());
        for (m, &p) in dem.priors.iter().enumerate() {
            if rng.random::<f64>() < p {
                fault.set(m, true);
                for &d in dem.mechanism_detectors(m) {
                    syndrome.flip(d as usize);
                }
                for &o in dem.mechanism_observables(m) {
                    obs_flips.flip(o as usize);
                }
            }
        }
        Shot {
            fault,
            syndrome,
            obs_flips,
        }
    }

    /// Draws `count` shots, computing all syndromes and observable
    /// flips through the bit-sliced batch kernel
    /// (`SparseBitMatrix::mul_batch`) — 64 shots per word-XOR pass —
    /// instead of sweeping the mechanism lists once per shot.
    ///
    /// Consumes the RNG in exactly the same order as `count` calls to
    /// [`Self::sample`] (one draw per mechanism per shot, fault
    /// sampling is untouched), and `check · fault` / `obs · fault`
    /// equal the per-shot detector sweeps bit for bit, so the returned
    /// shots are identical to a sequential sampling loop.
    pub fn sample_batch<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<Shot> {
        let dem = self.dem;
        let faults: Vec<BitVec> = (0..count)
            .map(|_| {
                let mut fault = BitVec::zeros(dem.num_mechanisms());
                for (m, &p) in dem.priors.iter().enumerate() {
                    if rng.random::<f64>() < p {
                        fault.set(m, true);
                    }
                }
                fault
            })
            .collect();
        let syndromes = dem.check_matrix().mul_batch(&faults);
        let obs = dem.observable_matrix().mul_batch(&faults);
        faults
            .into_iter()
            .zip(syndromes.into_iter().zip(obs))
            .map(|(fault, (syndrome, obs_flips))| Shot {
                fault,
                syndrome,
                obs_flips,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryExperiment;
    use crate::noise::NoiseModel;
    use qldpc_codes::bb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_dem() -> DetectorErrorModel {
        let exp =
            MemoryExperiment::memory_z(&bb::bb72(), 2, &NoiseModel::uniform_depolarizing(1e-3));
        exp.detector_error_model()
    }

    #[test]
    fn no_undetectable_mechanisms() {
        let dem = small_dem();
        assert_eq!(dem.num_undetectable(), 0);
        assert!(dem.num_mechanisms() > 500);
    }

    #[test]
    fn sample_batch_matches_sequential_sampling() {
        let dem = small_dem();
        let sampler = DemSampler::new(&dem);
        let mut rng_batch = StdRng::seed_from_u64(9);
        let mut rng_seq = StdRng::seed_from_u64(9);
        for count in [1usize, 3, 7] {
            for shot in sampler.sample_batch(&mut rng_batch, count) {
                let seq = sampler.sample(&mut rng_seq);
                assert_eq!(shot.fault, seq.fault);
                assert_eq!(shot.syndrome, seq.syndrome);
                assert_eq!(shot.obs_flips, seq.obs_flips);
            }
        }
        // Both consumed the RNG stream to the same position.
        use rand::Rng;
        assert_eq!(rng_batch.random::<u64>(), rng_seq.random::<u64>());
    }

    #[test]
    fn priors_are_probabilities() {
        let dem = small_dem();
        for &p in dem.priors() {
            assert!(p > 0.0 && p < 0.5, "prior {p} out of the sane range");
        }
    }

    #[test]
    fn sampled_syndrome_matches_fault_columns() {
        let dem = small_dem();
        let sampler = DemSampler::new(&dem);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let shot = sampler.sample(&mut rng);
            assert_eq!(dem.check_matrix().mul_vec(&shot.fault), shot.syndrome);
            assert_eq!(dem.observable_matrix().mul_vec(&shot.fault), shot.obs_flips);
        }
    }

    #[test]
    fn perfect_decoding_is_not_a_logical_error() {
        let dem = small_dem();
        let sampler = DemSampler::new(&dem);
        let mut rng = StdRng::seed_from_u64(5);
        let shot = sampler.sample(&mut rng);
        assert!(!dem.is_logical_error(&shot.obs_flips, &shot.fault));
    }

    #[test]
    fn mechanism_count_scales_with_rounds() {
        let noise = NoiseModel::uniform_depolarizing(1e-3);
        let d2 = MemoryExperiment::memory_z(&bb::bb72(), 2, &noise)
            .detector_error_model()
            .num_mechanisms();
        let d4 = MemoryExperiment::memory_z(&bb::bb72(), 4, &noise)
            .detector_error_model()
            .num_mechanisms();
        assert!(d4 > d2 + (d4 - d2) / 3, "mechanisms must grow with rounds");
        assert!(d4 < 3 * d2, "growth should be roughly linear");
    }
}
