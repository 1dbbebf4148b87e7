//! Circuit-level noise model parameters.

/// Parameters of the uniform circuit-level depolarizing noise model used by
/// the paper's evaluation: "errors are injected uniformly across gates and
/// measurements".
///
/// Each field may be set independently for ablations; the standard model
/// sets them all to the same physical error rate `p`.
///
/// # Examples
///
/// ```
/// use qldpc_circuit::NoiseModel;
///
/// let noise = NoiseModel::uniform_depolarizing(1e-3);
/// assert_eq!(noise.two_qubit_gate, 1e-3);
/// let quiet = NoiseModel::noiseless();
/// assert_eq!(quiet.measurement_flip, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Depolarizing probability after every single-qubit gate.
    pub single_qubit_gate: f64,
    /// Two-qubit depolarizing probability after every CNOT.
    pub two_qubit_gate: f64,
    /// X-error probability after every reset.
    pub reset_flip: f64,
    /// Flip probability of every measurement outcome.
    pub measurement_flip: f64,
}

impl NoiseModel {
    /// The standard model: every location fails with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn uniform_depolarizing(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0, 1]");
        Self {
            single_qubit_gate: p,
            two_qubit_gate: p,
            reset_flip: p,
            measurement_flip: p,
        }
    }

    /// A noiseless circuit (useful for determinism tests).
    pub fn noiseless() -> Self {
        Self {
            single_qubit_gate: 0.0,
            two_qubit_gate: 0.0,
            reset_flip: 0.0,
            measurement_flip: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sets_all_fields() {
        let n = NoiseModel::uniform_depolarizing(0.01);
        assert_eq!(n.single_qubit_gate, 0.01);
        assert_eq!(n.two_qubit_gate, 0.01);
        assert_eq!(n.reset_flip, 0.01);
        assert_eq!(n.measurement_flip, 0.01);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_p_panics() {
        NoiseModel::uniform_depolarizing(1.5);
    }
}
