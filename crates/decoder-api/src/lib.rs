//! The unified decoder interface of the BP-SF stack.
//!
//! Every decoder in the workspace — plain min-sum BP (`qldpc-bp`), BP-OSD
//! (`qldpc-osd`), and serial or worker-pool BP-SF (`bpsf-core`) —
//! implements [`SyndromeDecoder`], and every consumer — the Monte Carlo
//! runners in `qldpc-sim`, the figure binaries in `qldpc-bench`, user
//! code via the `bpsf` facade — drives decoders exclusively through it.
//! The trait lives in this leaf crate (depending only on `qldpc-gf2`) so
//! that implementers and consumers never need each other.
//!
//! # Iteration accounting: serial vs critical-path (paper §VI)
//!
//! Decode latency is reported in **BP iterations**, the paper's
//! hardware-neutral unit, in two flavors carried by every
//! [`DecodeOutcome`]:
//!
//! * [`serial_iterations`](DecodeOutcome::serial_iterations) — total BP
//!   iterations summed over *everything* the decoder ran: the initial BP
//!   attempt plus every post-processing trial, as if executed one after
//!   another on a single engine. This is the paper's "BP-SF (serial)"
//!   cost and the fair comparison against single-engine baselines.
//! * [`critical_iterations`](DecodeOutcome::critical_iterations) — BP
//!   iterations on the longest *dependency chain* when every trial runs
//!   on its own engine: initial iterations + the single winning (or
//!   longest surviving) trial. This is the paper's "fully parallelized"
//!   cost, the latency a P-engine hardware implementation would see.
//!
//! A converged initial BP makes the two equal; post-processing opens the
//! gap (`critical ≤ serial`). BP-OSD reports its BP stage in both fields
//! — the Gaussian-elimination cost is inherently serial and shows up only
//! in wall-clock time.
//!
//! # Adding a new decoder
//!
//! 1. Implement [`SyndromeDecoder`] for your decoder type in *its own*
//!    crate (add `qldpc-decoder-api` to its `[dependencies]`):
//!    `decode_syndrome` must return a syndrome-consistent `error_hat`
//!    whenever it sets `solved`, and fill both iteration fields (equal if
//!    the notion of parallel trials does not apply).
//! 2. If the decoder has a natural batched mode (SIMD across syndromes,
//!    shared setup, a persistent worker pool), override
//!    [`SyndromeDecoder::decode_batch`]; the default simply loops.
//!    Batched and looped decoding **must** produce identical outcomes —
//!    `qldpc-sim`'s property tests enforce this for the in-tree decoders.
//! 3. Expose a [`DecoderFactory`] constructor (see `qldpc_sim::decoders`)
//!    so the Monte Carlo runners can build per-basis and per-thread
//!    instances; factories must be `Send + Sync`, the instances they
//!    build need not be.
//! 4. Override [`SyndromeDecoder::family`] if the decoder belongs to one
//!    of the named algorithm families — report generators (the campaign
//!    engine's crossover tables) group rows by the
//!    [`DecoderDescriptor`] your decoder returns, instead of parsing
//!    labels.

use qldpc_gf2::{BitVec, SparseBitMatrix};
use std::fmt;

/// Floating-point width of a decoder's message arithmetic.
///
/// The BP message slabs are the stack's hottest memory: halving the
/// scalar width doubles the effective SIMD lanes of the batch kernel and
/// halves its memory traffic, at the cost of ~7 decimal digits of LLR
/// resolution — which min-sum BP tolerates at the paper's operating
/// points (the messages only need to order magnitudes and carry signs).
/// The default is [`Precision::F64`], so every pre-existing call site
/// keeps bitwise-identical behavior; [`Precision::F32`] opts into the
/// reduced-precision fast path.
///
/// Decoders report theirs via [`SyndromeDecoder::precision`]; the
/// accuracy contract (scalar ≡ batch, bit-for-bit) holds *per precision*,
/// not across precisions.
///
/// # Examples
///
/// Selecting a precision at runtime (e.g. from a sweep spec) and
/// inspecting what the choice costs:
///
/// ```
/// use qldpc_decoder_api::Precision;
///
/// let requested = "f32";
/// let precision = Precision::ALL
///     .into_iter()
///     .find(|p| p.name() == requested)
///     .expect("unknown precision");
/// assert_eq!(precision, Precision::F32);
/// // Half the message width of the f64 reference…
/// assert_eq!(precision.bytes_per_message(), Precision::F64.bytes_per_message() / 2);
/// // …and labels carry the non-default suffix so reports stay attributable.
/// assert_eq!(format!("BP100{}", precision.label_suffix()), "BP100@f32");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// IEEE-754 binary64 messages — the reference arithmetic.
    #[default]
    F64,
    /// IEEE-754 binary32 messages — twice the SIMD lanes, half the
    /// memory traffic, reduced LLR resolution.
    F32,
}

impl Precision {
    /// Both precisions, reference first — the sweep order benches and
    /// parity tests use.
    pub const ALL: [Precision; 2] = [Precision::F64, Precision::F32];

    /// Canonical lowercase name (`"f64"` / `"f32"`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }

    /// Suffix appended to decoder labels: empty for the default
    /// precision (so existing labels are unchanged), `"@f32"` otherwise.
    pub fn label_suffix(self) -> &'static str {
        match self {
            Precision::F64 => "",
            Precision::F32 => "@f32",
        }
    }

    /// Bytes per BP message at this precision.
    pub fn bytes_per_message(self) -> usize {
        match self {
            Precision::F64 => 8,
            Precision::F32 => 4,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The algorithm family a decoder belongs to.
///
/// Reports and campaign tables group decoders by family — e.g. the
/// BP-vs-BP-OSD crossover comparison needs to know which rows are "pure
/// BP" and which carry OSD post-processing — without parsing labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecoderFamily {
    /// Plain belief propagation (any schedule, any precision).
    Bp,
    /// BP with ordered-statistics post-processing.
    BpOsd,
    /// BP with stabilizer-inactivation/trial post-processing (BP-SF).
    BpSf,
    /// Anything else (test doubles, external decoders).
    Other,
}

impl DecoderFamily {
    /// Canonical short name (`"BP"`, `"BP-OSD"`, `"BP-SF"`, `"other"`).
    pub fn name(self) -> &'static str {
        match self {
            DecoderFamily::Bp => "BP",
            DecoderFamily::BpOsd => "BP-OSD",
            DecoderFamily::BpSf => "BP-SF",
            DecoderFamily::Other => "other",
        }
    }

    /// Parses the canonical [`Self::name`] form back into a family.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "BP" => Some(DecoderFamily::Bp),
            "BP-OSD" => Some(DecoderFamily::BpOsd),
            "BP-SF" => Some(DecoderFamily::BpSf),
            "other" => Some(DecoderFamily::Other),
            _ => None,
        }
    }
}

impl fmt::Display for DecoderFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a report needs to attribute a result row to a decoder:
/// display label, algorithm family, and message precision.
///
/// Obtained from a live decoder via [`SyndromeDecoder::descriptor`] so
/// generated tables (campaign REPRO rows, service metrics) can never
/// drift from what the decoder actually reports about itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecoderDescriptor {
    /// The decoder's display label, e.g. `"BP1000-OSD10"`.
    pub label: String,
    /// Algorithm family, for family-level grouping.
    pub family: DecoderFamily,
    /// Message arithmetic width.
    pub precision: Precision,
}

/// Convergence-effort counters attached to every decode outcome.
///
/// Where the iteration fields of [`DecodeOutcome`] answer the paper's
/// headline latency question, this struct answers the observability
/// one — *how hard did the decoder work and why* — in a form cheap
/// enough to fill on every decode and mergeable into service-level
/// counters. Fields a decoder has no notion of stay zero/default (a
/// plain BP decoder reports no OSD sweeps or trials).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeTelemetry {
    /// BP iterations the initial attempt ran (serial accounting).
    pub bp_iterations: u64,
    /// Whether the initial BP attempt converged on its own.
    pub bp_converged: bool,
    /// Bits observed oscillating (≥ 2 hard-decision flips) during BP —
    /// nonzero only when the decoder tracks oscillations.
    pub oscillating_bits: u64,
    /// OSD post-processing invocations (0 or 1 per decode).
    pub osd_invocations: u64,
    /// OSD candidate patterns swept (0 when BP converged).
    pub osd_candidates: u64,
    /// Syndrome-flip trials executed (BP-SF decoders).
    pub sf_trials: u64,
}

impl DecodeTelemetry {
    /// Telemetry for a pure-BP decode: `iterations` run, converged or
    /// not, everything else zero.
    pub fn bp(iterations: usize, converged: bool) -> Self {
        Self {
            bp_iterations: iterations as u64,
            bp_converged: converged,
            ..Self::default()
        }
    }
}

/// The result of a single syndrome decode, with latency accounting.
///
/// `PartialEq`/`Eq` compare every field bit-for-bit — the wire protocol
/// and its bit-identity soak tests rely on outcome equality meaning
/// "identical decode".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeOutcome {
    /// Estimated error (meaningful only if `solved`).
    pub error_hat: BitVec,
    /// Whether the correction satisfies the syndrome.
    pub solved: bool,
    /// Cumulative BP iterations under serial execution (BP-OSD reports its
    /// BP stage only — the elimination cost shows up in wall time).
    pub serial_iterations: usize,
    /// BP iterations on the fully parallel critical path.
    pub critical_iterations: usize,
    /// Whether post-processing (OSD stage or BP-SF trials) ran.
    pub postprocessed: bool,
    /// Convergence-effort counters for observability sinks.
    pub telemetry: DecodeTelemetry,
}

/// Anything that decodes syndromes against a fixed check matrix.
///
/// Implementations exist for plain min-sum BP, BP-OSD and BP-SF (serial
/// and parallel); the Monte Carlo runners drive them uniformly.
pub trait SyndromeDecoder {
    /// Decodes one syndrome.
    fn decode_syndrome(&mut self, syndrome: &BitVec) -> DecodeOutcome;

    /// Short display name, e.g. `"BP1000-OSD10"`.
    fn label(&self) -> String;

    /// The floating-point width of this decoder's message arithmetic.
    ///
    /// Defaults to [`Precision::F64`] — the reference arithmetic every
    /// decoder used before precision became a first-class parameter.
    /// Reduced-precision decoders override it so run reports and service
    /// metrics can record which arithmetic produced their numbers.
    fn precision(&self) -> Precision {
        Precision::F64
    }

    /// The algorithm family this decoder belongs to.
    ///
    /// Defaults to [`DecoderFamily::Other`]; the in-tree decoders
    /// override it so report generators can group rows (e.g. the
    /// campaign engine's BP-vs-BP-OSD crossover tables) without parsing
    /// labels.
    fn family(&self) -> DecoderFamily {
        DecoderFamily::Other
    }

    /// The report-facing descriptor: label + family + precision in one
    /// value, consistent by construction with the individual accessors.
    fn descriptor(&self) -> DecoderDescriptor {
        DecoderDescriptor {
            label: self.label(),
            family: self.family(),
            precision: self.precision(),
        }
    }

    /// Decodes a batch of syndromes, in order.
    ///
    /// The default implementation loops over [`Self::decode_syndrome`];
    /// decoders with a cheaper amortized path (shot-interleaved kernels,
    /// persistent pools, shared setup) may override it under this
    /// contract:
    ///
    /// * **Loop equivalence.** The outcomes must be exactly what the
    ///   sequential loop would return — same `solved`, same `error_hat`,
    ///   same iteration counts, one outcome per syndrome, in input order.
    ///   `qldpc-sim`'s and `qldpc-bp`'s property tests enforce this for
    ///   the in-tree decoders, bit-for-bit.
    /// * **No lane leakage.** Batching must not couple shots that the
    ///   sequential loop leaves independent: for a decoder whose
    ///   `decode_syndrome` is a pure function of the syndrome, the
    ///   outcome of lane `i` may depend only on `syndromes[i]` — the same
    ///   syndrome placed at lane 0 and lane B−1 of one call must produce
    ///   identical outcomes — every in-tree decoder is one. (A decoder
    ///   that legitimately threads state across shots must consume it in
    ///   loop order, which is the same guarantee in stateful form.)
    /// * **Ragged tails.** Any batch length is valid, including `0`
    ///   (returns an empty vector) and lengths that do not divide an
    ///   implementation's internal tile/lane width; padding lanes, if
    ///   any, are the implementation's private business and must not
    ///   surface in the output.
    fn decode_batch(&mut self, syndromes: &[BitVec]) -> Vec<DecodeOutcome> {
        syndromes.iter().map(|s| self.decode_syndrome(s)).collect()
    }
}

/// Builds a decoder for a given check matrix and priors — the unit the
/// Monte Carlo runners consume so each basis (X/Z) and each worker thread
/// gets its own instance.
pub type DecoderFactory =
    Box<dyn Fn(&SparseBitMatrix, &[f64]) -> Box<dyn SyndromeDecoder> + Send + Sync>;

/// A reference-counted [`DecoderFactory`]: the form long-lived decoder
/// *pools* hold, where one factory is shared by every worker shard and
/// each worker thread calls it locally so the built instance (which need
/// not be `Send`) never crosses a thread boundary. Convert with
/// [`share_factory`].
pub type SharedDecoderFactory =
    std::sync::Arc<dyn Fn(&SparseBitMatrix, &[f64]) -> Box<dyn SyndromeDecoder> + Send + Sync>;

/// Converts an owned [`DecoderFactory`] into the shareable form consumed
/// by pooled runtimes such as `qldpc-server`.
pub fn share_factory(factory: DecoderFactory) -> SharedDecoderFactory {
    std::sync::Arc::from(factory)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A decoder that echoes the syndrome back as the error estimate.
    struct Echo {
        calls: usize,
    }

    impl SyndromeDecoder for Echo {
        fn decode_syndrome(&mut self, syndrome: &BitVec) -> DecodeOutcome {
            self.calls += 1;
            DecodeOutcome {
                error_hat: syndrome.clone(),
                solved: true,
                serial_iterations: self.calls,
                critical_iterations: self.calls,
                postprocessed: false,
                telemetry: DecodeTelemetry::bp(self.calls, true),
            }
        }

        fn label(&self) -> String {
            "Echo".into()
        }
    }

    #[test]
    fn default_batch_loops_in_order_with_state() {
        let syndromes: Vec<BitVec> = (0..5).map(|i| BitVec::from_indices(8, &[i])).collect();
        let mut d = Echo { calls: 0 };
        let outs = d.decode_batch(&syndromes);
        assert_eq!(outs.len(), 5);
        for (i, (o, s)) in outs.iter().zip(&syndromes).enumerate() {
            assert_eq!(&o.error_hat, s);
            // Statefulness flows through the batch in order.
            assert_eq!(o.serial_iterations, i + 1);
        }
    }

    #[test]
    fn empty_batch_returns_empty() {
        let mut d = Echo { calls: 0 };
        assert!(d.decode_batch(&[]).is_empty());
        // And consumes no decoder state.
        assert_eq!(d.calls, 0);
    }

    #[test]
    fn precision_defaults_to_f64() {
        let d = Echo { calls: 0 };
        assert_eq!(d.precision(), Precision::F64);
        assert_eq!(Precision::default(), Precision::F64);
    }

    #[test]
    fn precision_names_and_suffixes() {
        assert_eq!(Precision::F64.name(), "f64");
        assert_eq!(Precision::F32.name(), "f32");
        assert_eq!(Precision::F64.label_suffix(), "");
        assert_eq!(Precision::F32.label_suffix(), "@f32");
        assert_eq!(Precision::F64.bytes_per_message(), 8);
        assert_eq!(Precision::F32.bytes_per_message(), 4);
        assert_eq!(format!("{}", Precision::F32), "f32");
        assert_eq!(Precision::ALL, [Precision::F64, Precision::F32]);
    }

    #[test]
    fn descriptor_mirrors_the_individual_accessors() {
        let d = Echo { calls: 0 };
        let desc = d.descriptor();
        assert_eq!(desc.label, "Echo");
        assert_eq!(desc.family, DecoderFamily::Other);
        assert_eq!(desc.precision, Precision::F64);
    }

    #[test]
    fn family_names_round_trip() {
        for family in [
            DecoderFamily::Bp,
            DecoderFamily::BpOsd,
            DecoderFamily::BpSf,
            DecoderFamily::Other,
        ] {
            assert_eq!(DecoderFamily::from_name(family.name()), Some(family));
            assert_eq!(format!("{family}"), family.name());
        }
        assert_eq!(DecoderFamily::from_name("BP-XYZ"), None);
    }

    #[test]
    fn factories_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let f: DecoderFactory =
            Box::new(|_h, _p| Box::new(Echo { calls: 0 }) as Box<dyn SyndromeDecoder>);
        assert_send_sync(&f);
    }

    #[test]
    fn shared_factories_clone_and_build_on_other_threads() {
        let f: DecoderFactory =
            Box::new(|_h, _p| Box::new(Echo { calls: 0 }) as Box<dyn SyndromeDecoder>);
        let shared = share_factory(f);
        let h = SparseBitMatrix::from_row_indices(1, 2, &[vec![0, 1]]);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let shared = std::sync::Arc::clone(&shared);
                let h = h.clone();
                std::thread::spawn(move || {
                    let mut d = shared(&h, &[0.1, 0.1]);
                    d.decode_syndrome(&BitVec::from_indices(1, &[0])).solved
                })
            })
            .collect();
        for t in handles {
            assert!(t.join().unwrap());
        }
    }
}
