//! Clifford circuits with explicit noise locations.

use std::fmt;

/// A stochastic noise channel attached to a circuit location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseChannel {
    /// Single-qubit depolarizing: X, Y, Z each with probability `p/3`.
    Depolarize1(u32, f64),
    /// Two-qubit depolarizing: each of the 15 nontrivial two-qubit Paulis
    /// with probability `p/15`.
    Depolarize2(u32, u32, f64),
    /// X error with probability `p` (models reset errors and, when placed
    /// directly before a Z-basis measurement, measurement flips).
    XError(u32, f64),
}

/// A circuit operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Reset the qubit to `|0⟩`, discarding any prior error on it.
    Reset(u32),
    /// Hadamard gate.
    H(u32),
    /// Controlled-NOT with `(control, target)`.
    Cnot(u32, u32),
    /// Destructive Z-basis measurement; outcomes are indexed in program
    /// order starting from 0.
    Measure(u32),
    /// A stochastic fault location.
    Noise(NoiseChannel),
}

/// A Clifford circuit: a flat list of [`Op`]s over `num_qubits` qubits.
///
/// # Examples
///
/// ```
/// use qldpc_circuit::{Circuit, NoiseChannel};
///
/// let mut c = Circuit::new(2);
/// c.reset(0);
/// c.reset(1);
/// c.noise(NoiseChannel::XError(0, 0.01)); // a fault location after the reset
/// c.cnot(0, 1);
/// assert_eq!(c.measure(1), 0); // measurement indices count from 0
/// assert_eq!((c.num_gates(), c.num_noise_locations()), (4, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    num_qubits: usize,
    ops: Vec<Op>,
    num_measurements: usize,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Self {
            num_qubits,
            ops: Vec::new(),
            num_measurements: 0,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of measurement operations appended so far.
    pub fn num_measurements(&self) -> usize {
        self.num_measurements
    }

    /// The operation list.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Total number of gate operations (excluding noise locations).
    pub fn num_gates(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| !matches!(op, Op::Noise(_)))
            .count()
    }

    /// Number of stochastic fault locations.
    pub fn num_noise_locations(&self) -> usize {
        self.ops.len() - self.num_gates()
    }

    fn check_qubit(&self, q: u32) {
        assert!((q as usize) < self.num_qubits, "qubit {q} out of range");
    }

    /// Appends a reset.
    pub fn reset(&mut self, q: u32) -> &mut Self {
        self.check_qubit(q);
        self.ops.push(Op::Reset(q));
        self
    }

    /// Appends a Hadamard.
    pub fn h(&mut self, q: u32) -> &mut Self {
        self.check_qubit(q);
        self.ops.push(Op::H(q));
        self
    }

    /// Appends a CNOT.
    ///
    /// # Panics
    ///
    /// Panics if `control == target` or either is out of range.
    pub fn cnot(&mut self, control: u32, target: u32) -> &mut Self {
        self.check_qubit(control);
        self.check_qubit(target);
        assert_ne!(control, target, "CNOT control and target must differ");
        self.ops.push(Op::Cnot(control, target));
        self
    }

    /// Appends a Z-basis measurement and returns its measurement index.
    pub fn measure(&mut self, q: u32) -> usize {
        self.check_qubit(q);
        self.ops.push(Op::Measure(q));
        self.num_measurements += 1;
        self.num_measurements - 1
    }

    /// Appends a noise location.
    pub fn noise(&mut self, channel: NoiseChannel) -> &mut Self {
        match channel {
            NoiseChannel::Depolarize1(q, _) | NoiseChannel::XError(q, _) => self.check_qubit(q),
            NoiseChannel::Depolarize2(a, b, _) => {
                self.check_qubit(a);
                self.check_qubit(b);
                assert_ne!(a, b, "two-qubit noise needs distinct qubits");
            }
        }
        self.ops.push(Op::Noise(channel));
        self
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Circuit(qubits={}, gates={}, noise={}, measurements={})",
            self.num_qubits,
            self.num_gates(),
            self.num_noise_locations(),
            self.num_measurements
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_indices_sequential() {
        let mut c = Circuit::new(3);
        assert_eq!(c.measure(0), 0);
        assert_eq!(c.measure(1), 1);
        assert_eq!(c.measure(2), 2);
        assert_eq!(c.num_measurements(), 3);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn self_cnot_panics() {
        Circuit::new(2).cnot(1, 1);
    }

    #[test]
    fn counts_gates_and_noise() {
        let mut c = Circuit::new(2);
        c.reset(0);
        c.noise(NoiseChannel::XError(0, 0.01));
        c.cnot(0, 1);
        c.noise(NoiseChannel::Depolarize2(0, 1, 0.01));
        c.measure(1);
        assert_eq!(c.num_gates(), 3);
        assert_eq!(c.num_noise_locations(), 2);
    }
}
