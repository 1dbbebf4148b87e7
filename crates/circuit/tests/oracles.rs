//! The circuit substrate's two oracles, and the tests that compare the
//! detector error model against them.
//!
//! Every circuit-level number rests on `DetectorErrorModel`, which one
//! backward sweep builds on the *assumption* that every detector (a
//! parity of measurement outcomes) is deterministic in the noiseless
//! circuit and that fault signatures are linear over GF(2). Two
//! independent implementations live here, used only to check it:
//!
//! * [`propagate_fault`] — a forward Pauli-frame propagator, one fault at
//!   a time (`O(ops)` per call);
//! * [`StabilizerSimulator`] — the Aaronson–Gottesman CHP simulation,
//!   which runs circuits exactly. It checks that every detector of a
//!   `MemoryExperiment` XORs to zero on the noiseless circuit (including
//!   the gauge-product detectors of subsystem codes, whose *individual*
//!   outcomes are random), and that injected Pauli faults flip exactly
//!   the detectors and observables of a DEM column.
//!
//! Both favour clarity over speed (per-bit loops, no bit packing); the
//! fast path is `DemSampler`.

use qldpc_circuit::{Circuit, DetectorErrorModel, MemoryExperiment, NoiseChannel, NoiseModel, Op};
use qldpc_codes::classical::ClassicalCode;
use qldpc_codes::{bb, hgp, shp, CssCode};
use qldpc_gf2::BitVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A single-qubit Pauli fault (the identity is never injected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pauli {
    /// Bit-flip.
    X,
    /// Phase-flip.
    Z,
    /// Both.
    Y,
}

/// Forward-propagates a Pauli fault injected *just before* the op at
/// `position`, returning the set of measurement outcomes it flips.
///
/// # Panics
///
/// Panics if `position > circuit.ops().len()` or the qubit is out of range.
fn propagate_fault(circuit: &Circuit, position: usize, qubit: u32, pauli: Pauli) -> BitVec {
    let ops = circuit.ops();
    assert!(position <= ops.len(), "position out of range");
    assert!(
        (qubit as usize) < circuit.num_qubits(),
        "qubit {qubit} out of range"
    );
    let mut fx = vec![false; circuit.num_qubits()];
    let mut fz = vec![false; circuit.num_qubits()];
    fx[qubit as usize] = matches!(pauli, Pauli::X | Pauli::Y);
    fz[qubit as usize] = matches!(pauli, Pauli::Z | Pauli::Y);
    let mut flips = BitVec::zeros(circuit.num_measurements());
    let mut meas_idx = ops[..position]
        .iter()
        .filter(|op| matches!(op, Op::Measure(_)))
        .count();
    for op in &ops[position..] {
        match *op {
            Op::Reset(q) => {
                fx[q as usize] = false;
                fz[q as usize] = false;
            }
            Op::H(q) => std::mem::swap(&mut fx[q as usize], &mut fz[q as usize]),
            Op::Cnot(c, t) => {
                // X propagates control→target, Z propagates target→control.
                fx[t as usize] ^= fx[c as usize];
                fz[c as usize] ^= fz[t as usize];
            }
            Op::Measure(q) => {
                if fx[q as usize] {
                    flips.set(meas_idx, true);
                }
                meas_idx += 1;
            }
            Op::Noise(_) => {}
        }
    }
    flips
}

/// One measurement outcome with its determinism flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    /// The measured bit.
    value: bool,
    /// Whether the outcome was forced by the state (`true`) or chosen
    /// uniformly at random (`false`, e.g. the first X-check round).
    deterministic: bool,
}

/// An Aaronson–Gottesman stabilizer tableau over `n` qubits.
///
/// Rows `0..n` are destabilizers, rows `n..2n` stabilizers; the state
/// starts as `|0…0⟩` (destabilizer `X_i`, stabilizer `Z_i`).
#[derive(Debug, Clone)]
struct StabilizerSimulator {
    n: usize,
    /// `x[row][qubit]`, `z[row][qubit]` Pauli bits; `r[row]` sign bit.
    x: Vec<Vec<bool>>,
    z: Vec<Vec<bool>>,
    r: Vec<bool>,
}

impl StabilizerSimulator {
    /// Initializes the `|0…0⟩` state on `n` qubits.
    fn new(n: usize) -> Self {
        let rows = 2 * n;
        let mut x = vec![vec![false; n]; rows];
        let mut z = vec![vec![false; n]; rows];
        for i in 0..n {
            x[i][i] = true; // destabilizer X_i
            z[n + i][i] = true; // stabilizer Z_i
        }
        Self {
            n,
            x,
            z,
            r: vec![false; rows],
        }
    }

    /// Hadamard on `q`.
    fn h(&mut self, q: usize) {
        for row in 0..2 * self.n {
            self.r[row] ^= self.x[row][q] && self.z[row][q];
            std::mem::swap(&mut self.x[row][q], &mut self.z[row][q]);
        }
    }

    /// CNOT with control `c`, target `t`.
    ///
    /// # Panics
    ///
    /// Panics if `c == t`.
    fn cnot(&mut self, c: usize, t: usize) {
        assert_ne!(c, t, "CNOT needs distinct qubits");
        for row in 0..2 * self.n {
            self.r[row] ^= self.x[row][c] && self.z[row][t] && (self.x[row][t] == self.z[row][c]);
            self.x[row][t] ^= self.x[row][c];
            self.z[row][c] ^= self.z[row][t];
        }
    }

    /// Applies a Pauli error to `q` (used for fault injection).
    fn apply_pauli(&mut self, q: usize, p: Pauli) {
        for row in 0..2 * self.n {
            // Conjugating a stabilizer row by a Pauli flips its sign iff
            // they anticommute.
            let anti = match p {
                Pauli::X => self.z[row][q],
                Pauli::Z => self.x[row][q],
                Pauli::Y => self.x[row][q] != self.z[row][q],
            };
            self.r[row] ^= anti;
        }
    }

    /// Phase contribution of multiplying Pauli `(x1,z1)` by `(x2,z2)` on
    /// one qubit, as an exponent of `i` in `{-1, 0, 1}` (Aaronson &
    /// Gottesman's `g` function).
    fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
        match (x1, z1) {
            (false, false) => 0,
            (true, true) => (z2 as i32) - (x2 as i32),
            (true, false) => (z2 as i32) * (2 * (x2 as i32) - 1),
            (false, true) => (x2 as i32) * (1 - 2 * (z2 as i32)),
        }
    }

    /// Row `h` ← row `h` · row `i` (Pauli product with phase tracking).
    fn rowsum(&mut self, h: usize, i: usize) {
        let mut phase = 2 * (self.r[h] as i32) + 2 * (self.r[i] as i32);
        for q in 0..self.n {
            phase += Self::g(self.x[i][q], self.z[i][q], self.x[h][q], self.z[h][q]);
        }
        phase = phase.rem_euclid(4);
        debug_assert!(phase == 0 || phase == 2, "stabilizer phases stay real");
        self.r[h] = phase == 2;
        for q in 0..self.n {
            self.x[h][q] ^= self.x[i][q];
            self.z[h][q] ^= self.z[i][q];
        }
    }

    /// Measures qubit `q` in the Z basis.
    fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Outcome {
        let n = self.n;
        // A stabilizer with an X component on q anticommutes with Z_q.
        let p = (n..2 * n).find(|&row| self.x[row][q]);
        match p {
            Some(p) => {
                // Random outcome.
                for row in 0..2 * n {
                    if row != p && self.x[row][q] {
                        self.rowsum(row, p);
                    }
                }
                // Destabilizer p−n becomes the old stabilizer row p.
                self.x[p - n] = self.x[p].clone();
                self.z[p - n] = self.z[p].clone();
                self.r[p - n] = self.r[p];
                // New stabilizer: ±Z_q with a random sign.
                let value = rng.random_bool(0.5);
                for qq in 0..n {
                    self.x[p][qq] = false;
                    self.z[p][qq] = false;
                }
                self.z[p][q] = true;
                self.r[p] = value;
                Outcome {
                    value,
                    deterministic: false,
                }
            }
            None => {
                // Deterministic outcome: accumulate the relevant
                // stabilizers in a scratch row (index 2n, simulated by a
                // temporary).
                let mut sx = vec![false; n];
                let mut sz = vec![false; n];
                let mut sr = false;
                for i in 0..n {
                    if self.x[i][q] {
                        // rowsum(scratch, stabilizer i+n) inline.
                        let mut phase = 2 * (sr as i32) + 2 * (self.r[n + i] as i32);
                        for qq in 0..n {
                            phase += Self::g(self.x[n + i][qq], self.z[n + i][qq], sx[qq], sz[qq]);
                        }
                        phase = phase.rem_euclid(4);
                        sr = phase == 2;
                        for qq in 0..n {
                            sx[qq] ^= self.x[n + i][qq];
                            sz[qq] ^= self.z[n + i][qq];
                        }
                    }
                }
                Outcome {
                    value: sr,
                    deterministic: true,
                }
            }
        }
    }

    /// Resets qubit `q` to `|0⟩` (measure, then flip on a `1` outcome).
    fn reset<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        let outcome = self.measure(q, rng);
        if outcome.value {
            self.apply_pauli(q, Pauli::X);
        }
    }

    /// Runs a whole circuit, ignoring noise locations (exact noiseless
    /// execution), injecting each `(op_position, qubit, pauli)` of
    /// `faults` just before the op at `op_position`. Returns all
    /// measurement outcomes in program order.
    fn run_circuit<R: Rng + ?Sized>(
        circuit: &Circuit,
        faults: &[(usize, usize, Pauli)],
        rng: &mut R,
    ) -> Vec<Outcome> {
        let mut sim = Self::new(circuit.num_qubits());
        let mut outcomes = Vec::with_capacity(circuit.num_measurements());
        for (pos, op) in circuit.ops().iter().enumerate() {
            for &(_, q, p) in faults.iter().filter(|f| f.0 == pos) {
                sim.apply_pauli(q, p);
            }
            match *op {
                Op::Reset(q) => sim.reset(q as usize, rng),
                Op::H(q) => sim.h(q as usize),
                Op::Cnot(c, t) => sim.cnot(c as usize, t as usize),
                Op::Measure(q) => outcomes.push(sim.measure(q as usize, rng)),
                Op::Noise(_) => {}
            }
        }
        outcomes
    }

    /// Evaluates detector values from raw outcomes: the XOR of each
    /// measurement-index set.
    fn detector_values(outcomes: &[Outcome], detectors: &[Vec<u32>]) -> BitVec {
        let mut out = BitVec::zeros(detectors.len());
        for (d, meas) in detectors.iter().enumerate() {
            let parity = meas.iter().filter(|&&m| outcomes[m as usize].value).count() % 2;
            if parity == 1 {
                out.set(d, true);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// The forward frame propagator.
// ---------------------------------------------------------------------

#[test]
fn x_fault_before_cnot_flips_the_target_measurement() {
    let mut c = Circuit::new(2);
    c.reset(0);
    c.reset(1);
    c.cnot(0, 1);
    c.measure(1);
    // An X fault on qubit 0 before the CNOT flips the measurement.
    let flips = propagate_fault(&c, 1, 0, Pauli::X);
    assert_eq!(flips.iter_ones().collect::<Vec<_>>(), vec![0]);
}

#[test]
fn x_fault_flips_downstream_measurement() {
    let mut c = Circuit::new(1);
    c.reset(0);
    c.measure(0);
    let flips = propagate_fault(&c, 1, 0, Pauli::X);
    assert!(flips.get(0));
    // Z fault does not flip a Z-basis measurement.
    let flips = propagate_fault(&c, 1, 0, Pauli::Z);
    assert!(!flips.get(0));
    // Y fault does.
    let flips = propagate_fault(&c, 1, 0, Pauli::Y);
    assert!(flips.get(0));
}

#[test]
fn reset_absorbs_faults() {
    let mut c = Circuit::new(1);
    c.reset(0);
    c.reset(0);
    c.measure(0);
    // Fault before the second reset is erased.
    let flips = propagate_fault(&c, 1, 0, Pauli::X);
    assert!(flips.is_zero());
}

#[test]
fn cnot_propagates_x_forward_z_backward() {
    let mut c = Circuit::new(2);
    c.cnot(0, 1);
    c.measure(0);
    c.measure(1);
    // X on control spreads to target.
    let flips = propagate_fault(&c, 0, 0, Pauli::X);
    assert_eq!(flips.iter_ones().collect::<Vec<_>>(), vec![0, 1]);
    // X on target stays on target.
    let flips = propagate_fault(&c, 0, 1, Pauli::X);
    assert_eq!(flips.iter_ones().collect::<Vec<_>>(), vec![1]);
}

#[test]
fn hadamard_exchanges_x_and_z() {
    let mut c = Circuit::new(1);
    c.h(0);
    c.measure(0);
    // Z before H becomes X, which flips the measurement.
    let flips = propagate_fault(&c, 0, 0, Pauli::Z);
    assert!(flips.get(0));
    // X before H becomes Z: no flip.
    let flips = propagate_fault(&c, 0, 0, Pauli::X);
    assert!(!flips.is_empty());
    assert!(flips.is_zero());
}

#[test]
fn backward_sweep_matches_forward_propagation() {
    // Recompute every mechanism by brute-force forward propagation and
    // compare the merged maps.
    let exp = MemoryExperiment::memory_z(&bb::bb72(), 2, &NoiseModel::uniform_depolarizing(2e-3));
    let dem = exp.detector_error_model();
    let circuit = exp.circuit();

    let meas_to_sig = |flips: &BitVec| -> (Vec<u32>, Vec<u32>) {
        let mut dets = Vec::new();
        for (d, meas_set) in exp.detectors().iter().enumerate() {
            let parity = meas_set.iter().filter(|&&m| flips.get(m as usize)).count() % 2;
            if parity == 1 {
                dets.push(d as u32);
            }
        }
        let mut obs = Vec::new();
        for (o, meas_set) in exp.observables().iter().enumerate() {
            let parity = meas_set.iter().filter(|&&m| flips.get(m as usize)).count() % 2;
            if parity == 1 {
                obs.push(o as u32);
            }
        }
        (dets, obs)
    };

    let mut merged: HashMap<(Vec<u32>, Vec<u32>), f64> = HashMap::new();
    let mut add = |key: (Vec<u32>, Vec<u32>), p: f64| {
        if key.0.is_empty() && key.1.is_empty() {
            return;
        }
        let e = merged.entry(key).or_insert(0.0);
        *e = *e * (1.0 - p) + p * (1.0 - *e);
    };
    for (pos, op) in circuit.ops().iter().enumerate() {
        if let Op::Noise(ch) = op {
            match *ch {
                NoiseChannel::XError(q, p) => {
                    add(
                        meas_to_sig(&propagate_fault(circuit, pos + 1, q, Pauli::X)),
                        p,
                    );
                }
                NoiseChannel::Depolarize1(q, p) => {
                    for pauli in [Pauli::X, Pauli::Z, Pauli::Y] {
                        add(
                            meas_to_sig(&propagate_fault(circuit, pos + 1, q, pauli)),
                            p / 3.0,
                        );
                    }
                }
                NoiseChannel::Depolarize2(a, b, p) => {
                    let opts = [None, Some(Pauli::X), Some(Pauli::Z), Some(Pauli::Y)];
                    for (i, pa) in opts.iter().enumerate() {
                        for (j, pb) in opts.iter().enumerate() {
                            if i == 0 && j == 0 {
                                continue;
                            }
                            let mut flips = BitVec::zeros(circuit.num_measurements());
                            if let Some(pa) = pa {
                                flips.xor_assign(&propagate_fault(circuit, pos + 1, a, *pa));
                            }
                            if let Some(pb) = pb {
                                flips.xor_assign(&propagate_fault(circuit, pos + 1, b, *pb));
                            }
                            add(meas_to_sig(&flips), p / 15.0);
                        }
                    }
                }
            }
        }
    }

    assert_eq!(
        merged.len(),
        dem.num_mechanisms(),
        "mechanism count mismatch"
    );
    for m in 0..dem.num_mechanisms() {
        let key = (
            dem.mechanism_detectors(m).to_vec(),
            dem.mechanism_observables(m).to_vec(),
        );
        let p_fwd = merged
            .get(&key)
            .unwrap_or_else(|| panic!("mechanism {key:?} missing from forward model"));
        assert!(
            (p_fwd - dem.priors()[m]).abs() < 1e-12,
            "prior mismatch for {key:?}: {p_fwd} vs {}",
            dem.priors()[m]
        );
    }
}

// ---------------------------------------------------------------------
// The stabilizer simulator.
// ---------------------------------------------------------------------

#[test]
fn bell_pair_second_measurement_is_forced() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut sim = StabilizerSimulator::new(2);
    sim.h(0);
    sim.cnot(0, 1); // Bell pair
    let a = sim.measure(0, &mut rng);
    let b = sim.measure(1, &mut rng);
    assert!(!a.deterministic); // first measurement of a Bell pair is random
    assert!(b.deterministic); // …the second is forced to match
    assert_eq!(a.value, b.value);
}

#[test]
fn zero_state_measures_zero_deterministically() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut sim = StabilizerSimulator::new(3);
    for q in 0..3 {
        let o = sim.measure(q, &mut rng);
        assert!(o.deterministic);
        assert!(!o.value);
    }
}

#[test]
fn plus_state_is_random_then_pinned() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut sim = StabilizerSimulator::new(1);
    sim.h(0);
    let first = sim.measure(0, &mut rng);
    assert!(!first.deterministic);
    let second = sim.measure(0, &mut rng);
    assert!(second.deterministic);
    assert_eq!(first.value, second.value);
}

#[test]
fn x_error_flips_measurement() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut sim = StabilizerSimulator::new(1);
    sim.apply_pauli(0, Pauli::X);
    let o = sim.measure(0, &mut rng);
    assert!(o.deterministic);
    assert!(o.value);
}

#[test]
fn ghz_outcomes_correlate() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut sim = StabilizerSimulator::new(3);
    sim.h(0);
    sim.cnot(0, 1);
    sim.cnot(1, 2);
    let a = sim.measure(0, &mut rng);
    let b = sim.measure(1, &mut rng);
    let c = sim.measure(2, &mut rng);
    assert_eq!(a.value, b.value);
    assert_eq!(b.value, c.value);
    assert!(!a.deterministic && b.deterministic && c.deterministic);
}

#[test]
fn reset_returns_to_zero() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut sim = StabilizerSimulator::new(2);
    sim.h(0);
    sim.cnot(0, 1);
    sim.reset(0, &mut rng);
    let o = sim.measure(0, &mut rng);
    assert!(o.deterministic);
    assert!(!o.value);
}

/// The central verification: every detector of a memory experiment is
/// zero on the exact noiseless circuit — for a stabilizer code.
#[test]
fn stabilizer_memory_detectors_are_deterministically_zero() {
    let rep = ClassicalCode::cyclic_repetition(3);
    let code = hgp::hypergraph_product("toric-3", &rep, &rep);
    let exp = MemoryExperiment::memory_z(&code, 3, &NoiseModel::noiseless());
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let outcomes = StabilizerSimulator::run_circuit(exp.circuit(), &[], &mut rng);
        let dets = StabilizerSimulator::detector_values(&outcomes, exp.detectors());
        assert!(
            dets.is_zero(),
            "noiseless detectors fired (seed {seed}): {dets:?}"
        );
        let obs = StabilizerSimulator::detector_values(&outcomes, exp.observables());
        assert!(obs.is_zero(), "noiseless observables flipped (seed {seed})");
    }
}

/// Same verification for a *subsystem* code, where individual gauge
/// outcomes are genuinely random and only the gauge-product detectors
/// are deterministic.
#[test]
fn subsystem_memory_detectors_are_deterministically_zero() {
    let simplex = ClassicalCode::simplex(2); // [3,2,2]
    let code = shp::subsystem_hypergraph_product("shp-3x3", &simplex, &simplex);
    let exp = MemoryExperiment::memory_z(&code, 2, &NoiseModel::noiseless());
    let mut saw_random_gauge = false;
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let outcomes = StabilizerSimulator::run_circuit(exp.circuit(), &[], &mut rng);
        saw_random_gauge |= outcomes.iter().any(|o| !o.deterministic);
        let dets = StabilizerSimulator::detector_values(&outcomes, exp.detectors());
        assert!(
            dets.is_zero(),
            "noiseless subsystem detectors fired (seed {seed})"
        );
        let obs = StabilizerSimulator::detector_values(&outcomes, exp.observables());
        assert!(
            obs.is_zero(),
            "noiseless subsystem observables flipped (seed {seed})"
        );
    }
    assert!(
        saw_random_gauge,
        "subsystem gauge measurements should include random outcomes"
    );
}

/// Injected faults flip exactly the detectors the DEM's backward sweep
/// predicts (third independent validation path, after the forward
/// frame propagator).
#[test]
fn injected_faults_match_dem_signatures() {
    let rep = ClassicalCode::repetition(3);
    let code = hgp::hypergraph_product("surface-3", &rep, &rep);
    let noise = NoiseModel::uniform_depolarizing(1e-3);
    let exp = MemoryExperiment::memory_z(&code, 2, &noise);
    let circuit = exp.circuit();
    let mut rng = StdRng::seed_from_u64(11);

    let mut tested = 0;
    for (pos, op) in circuit.ops().iter().enumerate() {
        if tested >= 12 {
            break;
        }
        if let Op::Noise(NoiseChannel::XError(q, _)) = op {
            // Tableau path.
            let outcomes = StabilizerSimulator::run_circuit(
                circuit,
                &[(pos + 1, *q as usize, Pauli::X)],
                &mut rng,
            );
            let dets = StabilizerSimulator::detector_values(&outcomes, exp.detectors());
            // Frame path.
            let flips = propagate_fault(circuit, pos + 1, *q, Pauli::X);
            let mut expected = BitVec::zeros(exp.num_detectors());
            for (d, meas) in exp.detectors().iter().enumerate() {
                let parity = meas.iter().filter(|&&m| flips.get(m as usize)).count() % 2;
                if parity == 1 {
                    expected.set(d, true);
                }
            }
            assert_eq!(dets, expected, "fault at op {pos} disagrees");
            tested += 1;
        }
    }
    assert!(tested > 0, "no X-error locations found to test");
}

// ---------------------------------------------------------------------
// Every fault component of a memory circuit against the DEM's columns.
// ---------------------------------------------------------------------

/// A fault's detector and observable flips, as sorted index lists — the
/// shape of a DEM column's `(mechanism_detectors, mechanism_observables)`.
type Signature = (Vec<u32>, Vec<u32>);

/// Faults to inject, as `(op_position, qubit, pauli)` triples.
type Faults = Vec<(usize, usize, Pauli)>;

/// Every Pauli component of the noise location at op `pos`, each as the
/// faults that inject it just after the location, and the probability
/// of each: 1 for an X error, 3 for a one-qubit depolarizing channel, 15
/// for a two-qubit one (two Paulis at the same position).
fn components(pos: usize, channel: NoiseChannel) -> (f64, Vec<Faults>) {
    let at = pos + 1;
    match channel {
        NoiseChannel::XError(q, p) => (p, vec![vec![(at, q as usize, Pauli::X)]]),
        NoiseChannel::Depolarize1(q, p) => (
            p / 3.0,
            [Pauli::X, Pauli::Z, Pauli::Y]
                .map(|p| vec![(at, q as usize, p)])
                .to_vec(),
        ),
        NoiseChannel::Depolarize2(a, b, p) => {
            let opts = [None, Some(Pauli::X), Some(Pauli::Z), Some(Pauli::Y)];
            let mut out = Vec::new();
            for pa in opts {
                for pb in opts {
                    let faults: Faults = [(a, pa), (b, pb)]
                        .into_iter()
                        .filter_map(|(q, p)| p.map(|p| (at, q as usize, p)))
                        .collect();
                    if !faults.is_empty() {
                        out.push(faults);
                    }
                }
            }
            (p / 15.0, out)
        }
    }
}

/// Every noise location of `exp`'s circuit with its Pauli components.
fn locations(exp: &MemoryExperiment) -> Vec<(f64, Vec<Faults>)> {
    let ops = exp.circuit().ops().iter().enumerate();
    ops.filter_map(|(pos, op)| match *op {
        Op::Noise(channel) => Some(components(pos, channel)),
        _ => None,
    })
    .collect()
}

/// The flips the tableau measures with `faults` injected.
fn tableau_signature(exp: &MemoryExperiment, faults: &[(usize, usize, Pauli)]) -> Signature {
    // The outcomes are random where the state is (the first X-check
    // round, subsystem gauges), but every detector and observable is
    // deterministic, so the seed cannot change the signature.
    let mut rng = StdRng::seed_from_u64(1);
    let outcomes = StabilizerSimulator::run_circuit(exp.circuit(), faults, &mut rng);
    let flips = |parities: &[Vec<u32>]| {
        let values = StabilizerSimulator::detector_values(&outcomes, parities);
        values.iter_ones().map(|i| i as u32).collect()
    };
    (flips(exp.detectors()), flips(exp.observables()))
}

/// The DEM's columns, keyed by signature.
fn dem_columns(dem: &DetectorErrorModel) -> HashMap<Signature, usize> {
    (0..dem.num_mechanisms())
        .map(|m| {
            let sig = (
                dem.mechanism_detectors(m).to_vec(),
                dem.mechanism_observables(m).to_vec(),
            );
            (sig, m)
        })
        .collect()
}

/// Asserts that `faults` flip the detectors and observables of a DEM
/// column, or nothing, and returns those flips.
fn assert_dem_column(
    exp: &MemoryExperiment,
    columns: &HashMap<Signature, usize>,
    faults: &[(usize, usize, Pauli)],
) -> Signature {
    let sig = tableau_signature(exp, faults);
    let silent = sig.0.is_empty() && sig.1.is_empty();
    assert!(
        silent || columns.contains_key(&sig),
        "{}: faults {faults:?} flip {sig:?}, which is no DEM column",
        exp.name()
    );
    sig
}

/// The two small memory circuits every fault component is checked on:
/// 2 rounds of the distance-3 surface code and of the `shp-3x3`
/// subsystem code (gauge-product detectors).
fn small_experiments() -> Vec<MemoryExperiment> {
    let rep = ClassicalCode::repetition(3);
    let simplex = ClassicalCode::simplex(2); // [3,2,2]
    let codes: [CssCode; 2] = [
        hgp::hypergraph_product("surface-3", &rep, &rep),
        shp::subsystem_hypergraph_product("shp-3x3", &simplex, &simplex),
    ];
    let noise = NoiseModel::uniform_depolarizing(1e-3);
    codes
        .iter()
        .map(|code| MemoryExperiment::memory_z(code, 2, &noise))
        .collect()
}

/// Every Pauli component of every noise location — 1 per X error, 3 per
/// one-qubit and 15 per two-qubit depolarizing channel — flips, in the
/// exact simulation, the detectors *and* observables of one DEM column,
/// or nothing at all. Merging the components by what they flip rebuilds
/// the DEM: every column, with its prior.
#[test]
fn every_fault_component_flips_a_dem_column() {
    for exp in small_experiments() {
        let dem = exp.detector_error_model();
        let columns = dem_columns(&dem);
        // Locations by kind: X errors, one-qubit and two-qubit channels.
        let mut kinds = [0usize; 3];
        let mut merged: HashMap<Signature, f64> = HashMap::new();
        for (p, components) in locations(&exp) {
            kinds[match components.len() {
                1 => 0,
                3 => 1,
                _ => 2,
            }] += 1;
            for faults in &components {
                let sig = assert_dem_column(&exp, &columns, faults);
                if !sig.0.is_empty() || !sig.1.is_empty() {
                    let q = merged.entry(sig).or_insert(0.0);
                    *q = *q * (1.0 - p) + p * (1.0 - *q);
                }
            }
        }
        assert_eq!(merged.len(), dem.num_mechanisms(), "{}", exp.name());
        for (sig, &m) in &columns {
            let (p, prior) = (merged[sig], dem.priors()[m]);
            assert!(
                (p - prior).abs() < 1e-12,
                "{}: prior of {sig:?}: {p} vs {prior}",
                exp.name()
            );
        }
        assert_eq!(
            kinds.iter().sum::<usize>(),
            exp.circuit().num_noise_locations(),
            "{}",
            exp.name()
        );
        assert!(kinds.iter().all(|&k| k > 0), "{}: {kinds:?}", exp.name());
    }
}

/// Signatures are linear: two seeded faults together flip the XOR of
/// their two DEM columns.
#[test]
fn fault_pairs_flip_the_xor_of_their_columns() {
    let xor = |a: &[u32], b: &[u32]| -> Vec<u32> {
        let mut out: Vec<u32> = a.iter().chain(b).copied().collect();
        out.retain(|i| a.contains(i) != b.contains(i));
        out.sort_unstable();
        out
    };
    for exp in small_experiments() {
        let columns = dem_columns(&exp.detector_error_model());
        let faults: Vec<Faults> = locations(&exp).into_iter().flat_map(|l| l.1).collect();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let a = &faults[rng.random_range(0..faults.len())];
            let b = &faults[rng.random_range(0..faults.len())];
            let (sa, sb) = (
                assert_dem_column(&exp, &columns, a),
                assert_dem_column(&exp, &columns, b),
            );
            let both: Faults = a.iter().chain(b).copied().collect();
            let expected = (xor(&sa.0, &sb.0), xor(&sa.1, &sb.1));
            assert_eq!(
                tableau_signature(&exp, &both),
                expected,
                "{}: faults {a:?} and {b:?}",
                exp.name()
            );
        }
    }
}

/// A seeded sample of 20 noise locations of a 2-round `bb72` memory
/// circuit, one seeded Pauli component each (a tableau run there costs
/// tens of milliseconds, and the circuit has over a thousand locations).
#[test]
fn sampled_bb72_fault_components_flip_dem_columns() {
    let exp = MemoryExperiment::memory_z(&bb::bb72(), 2, &NoiseModel::uniform_depolarizing(1e-3));
    let columns = dem_columns(&exp.detector_error_model());
    let locations = locations(&exp);
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..20 {
        let (_, components) = &locations[rng.random_range(0..locations.len())];
        let faults = &components[rng.random_range(0..components.len())];
        assert_dem_column(&exp, &columns, faults);
    }
}
