//! Shot-interleaved batched min-sum BP: decode `B` syndromes per call.
//!
//! This is the throughput engine behind the paper's core claim — that
//! fully parallelized BP wins on *throughput* because many syndromes can
//! be decoded simultaneously, amortizing the Tanner-graph traversal
//! across shots. [`BatchMinSumDecoder`] keeps all message state in
//! structure-of-arrays slabs:
//!
//! * `c2v`, `v2c`: `num_edges × L` (edge-major, lane-minor),
//! * `posterior`, `hard`, `flip_counts`: `num_vars × L`,
//! * syndrome bits/signs: `num_checks × L`,
//!
//! where `L = min(B, max_lanes)` is the lane width of one tile. Each BP
//! iteration walks the graph's edge structure **once** for all live
//! lanes. The slabs are 64-byte-aligned ([`AlignedSlab`]) and the hot
//! per-iteration passes run as **explicit wide kernels**
//! ([`wide`](crate::wide)) on the instruction set picked at runtime —
//! AVX-512 → AVX2 → NEON → scalar, overridable per config
//! ([`BpConfig::simd_target`]) or process-wide (`QLDPC_SIMD_TARGET`).
//! On the scalar target, check-node updates go through the lane-generic
//! [`kernel`](crate::kernel) core, the oracle; the wide targets
//! re-express those loops with compare-blend selects chosen so each lane
//! executes the identical float stream. Either way every lane produces
//! the same floats, summed in the same order, as a scalar
//! [`MinSumDecoder::decode`] of that shot (whose check-major sweep is a
//! one-lane re-expression of the same arithmetic) — the outputs are
//! **bit-identical on every dispatch target**, enforced by the property
//! suite in `crates/bp/tests/batch_equivalence.rs`.
//!
//! # Precision
//!
//! The engine is generic over the [`Llr`] message scalar. At `f32`
//! ([`BatchMinSumDecoderF32`](crate::BatchMinSumDecoderF32)) the slabs
//! are half as wide, which doubles the effective SIMD lanes of the
//! auto-vectorized inner loops and halves their memory traffic — the
//! hardware-BP trade the source paper leans on. The bit-identity
//! contract holds *per precision*: f32 batch ≡ f32 scalar, f64 batch ≡
//! f64 scalar, each via `to_bits`.
//!
//! # Early termination: lane compaction
//!
//! Per-shot early exit is preserved via an active-lane prefix instead of
//! a mask: when a lane converges, its column is swapped (a pure
//! permutation — no lane's arithmetic changes) to the tail of every slab
//! and the live width shrinks, so each iteration's cost is proportional
//! to the number of *still-running* shots, exactly like the scalar
//! decoder's per-shot iteration sum. Converged lanes keep their slot and
//! frozen state until extraction.
//!
//! # Examples
//!
//! ```
//! use qldpc_bp::{BatchMinSumDecoder, BpConfig};
//! use qldpc_gf2::{BitVec, SparseBitMatrix};
//!
//! let h = SparseBitMatrix::from_row_indices(2, 3, &[vec![0, 1], vec![1, 2]]);
//! let mut dec = BatchMinSumDecoder::new(&h, &[0.1; 3], BpConfig::default());
//! let syndromes = vec![BitVec::zeros(2), BitVec::from_indices(2, &[0])];
//! let results = dec.decode_batch_results(&syndromes);
//! assert_eq!(results.len(), 2);
//! assert!(results[0].converged && results[0].error_hat.is_zero());
//! ```

use crate::graph::TannerGraph;
use crate::kernel::{self, CheckScratch};
use crate::llr::Llr;
use crate::wide;
use crate::{prior_llr, BpConfig, BpResult, MinSumDecoderOf};
use qldpc_gf2::{BitVec, SparseBitMatrix};
use qldpc_simd::{AlignedSlab, SimdTarget};

/// Default cap on the lane width of one interleaved tile.
///
/// Bounds slab memory at `2 × num_edges × DEFAULT_MAX_LANES` message
/// scalars regardless of the caller's batch size; larger batches are
/// processed as consecutive tiles (the ragged tail simply runs at a
/// narrower width). Use this constant — not its current literal value —
/// anywhere a batch width should mean "one full kernel tile" (the
/// service's `max_batch` default does exactly that).
///
/// Derived from the widest compiled-in vector
/// ([`MAX_F32_LANES`](qldpc_simd::MAX_F32_LANES)) so a full tile is a
/// whole number of vectors on every dispatch target at both precisions
/// (currently `8 × 16 = 128`).
pub const DEFAULT_MAX_LANES: usize = 8 * qldpc_simd::MAX_F32_LANES;

/// A batched normalized min-sum decoder over shot-interleaved message
/// slabs of scalar type `T`, bit-identical to per-shot
/// [`MinSumDecoderOf`] decoding at the same precision.
///
/// Use through the precision aliases: [`BatchMinSumDecoder`] (`f64`) or
/// [`BatchMinSumDecoderF32`](crate::BatchMinSumDecoderF32).
///
/// Supports everything the scalar decoder does — flooding and layered
/// schedules, adaptive and fixed damping, posterior memory, min-sum and
/// sum-product check rules, per-lane oscillation tracking for BP-SF —
/// because both decoders compute the check update of `kernel.rs` (this
/// one by running it, the scalar sweep as a one-lane re-expression) and
/// sum each variable's messages in the same ascending-edge order per
/// lane.
///
/// The decoder owns all slabs and grows them lazily to the widest tile it
/// has seen; repeated batch decodes do not allocate (beyond the returned
/// results). Clone it to decode on several threads concurrently.
#[derive(Debug, Clone)]
pub struct BatchMinSumDecoderOf<T: Llr> {
    graph: TannerGraph,
    h: SparseBitMatrix,
    config: BpConfig,
    channel_llrs: Vec<T>,
    max_lanes: usize,
    // Shot-interleaved working slabs at the current tile's lane stride,
    // reused across decodes. All are 64-byte-aligned so the explicit
    // wide kernels start every slab on a full cache line / AVX-512
    // register boundary.
    /// Per-(variable, lane) channel LLRs: the decoder's `channel_llrs`
    /// broadcast across the tile.
    lane_channel: AlignedSlab<T>,
    c2v: AlignedSlab<T>,
    v2c: AlignedSlab<T>,
    posterior: AlignedSlab<T>,
    hard: AlignedSlab<bool>,
    hard_prev: AlignedSlab<bool>,
    flip_counts: AlignedSlab<u32>,
    /// `±1.0` per (check, lane): `-1.0` where the syndrome bit is set.
    syndrome_sign: AlignedSlab<T>,
    syndrome_bit: AlignedSlab<bool>,
    /// Original shot index occupying each physical lane (compaction swaps
    /// permute this alongside the slab columns).
    lane_shot: Vec<usize>,
    // Per-shot (not per-lane) bookkeeping.
    converged: Vec<bool>,
    iterations: Vec<usize>,
    /// Per-lane accumulator for the scalar-target variable phases (the
    /// wide kernels keep their running sums in registers instead).
    lane_sum: AlignedSlab<T>,
    /// Per-lane syndrome-satisfaction verdicts (one slab pass per
    /// iteration instead of a scalar walk per lane).
    lane_ok: AlignedSlab<bool>,
    /// Per-lane parity accumulator for the verdict pass.
    lane_parity: AlignedSlab<bool>,
    scratch: CheckScratch<T>,
}

/// The reference `f64` batch engine — every pre-existing call site
/// resolves here unchanged.
pub type BatchMinSumDecoder = BatchMinSumDecoderOf<f64>;

impl<T: Llr> BatchMinSumDecoderOf<T> {
    /// Builds a batched decoder for check matrix `h` with per-variable
    /// error priors `priors`.
    ///
    /// # Panics
    ///
    /// Panics if `priors.len() != h.cols()`, `max_iters == 0`, or the
    /// memory strength lies outside `[0, 1)` — the same contract as
    /// [`MinSumDecoderOf::new`].
    pub fn new(h: &SparseBitMatrix, priors: &[f64], config: BpConfig) -> Self {
        assert_eq!(priors.len(), h.cols(), "one prior per variable required");
        assert!(config.max_iters > 0, "max_iters must be positive");
        assert!(
            (0.0..1.0).contains(&config.memory_strength),
            "memory strength must lie in [0, 1)"
        );
        let channel_llrs = priors.iter().map(|&p| T::from_f64(prior_llr(p))).collect();
        Self::from_parts(TannerGraph::new(h), h.clone(), config, channel_llrs)
    }

    /// Builds a batched engine with the same check matrix, priors and
    /// configuration as an existing scalar decoder (of the same
    /// precision), so a scalar decoder can hand batches to the
    /// interleaved kernel with identical results.
    pub(crate) fn from_scalar(scalar: &MinSumDecoderOf<T>) -> Self {
        Self::from_parts(
            scalar.graph().clone(),
            scalar.check_matrix().clone(),
            *scalar.config(),
            scalar.channel_llrs().to_vec(),
        )
    }

    fn from_parts(
        graph: TannerGraph,
        h: SparseBitMatrix,
        config: BpConfig,
        channel_llrs: Vec<T>,
    ) -> Self {
        Self {
            graph,
            h,
            config,
            channel_llrs,
            max_lanes: DEFAULT_MAX_LANES,
            lane_channel: AlignedSlab::new(),
            c2v: AlignedSlab::new(),
            v2c: AlignedSlab::new(),
            posterior: AlignedSlab::new(),
            hard: AlignedSlab::new(),
            hard_prev: AlignedSlab::new(),
            flip_counts: AlignedSlab::new(),
            syndrome_sign: AlignedSlab::new(),
            syndrome_bit: AlignedSlab::new(),
            lane_shot: Vec::new(),
            converged: Vec::new(),
            iterations: Vec::new(),
            lane_sum: AlignedSlab::new(),
            lane_ok: AlignedSlab::new(),
            lane_parity: AlignedSlab::new(),
            scratch: CheckScratch::new(1),
        }
    }

    /// The decoder's configuration.
    pub fn config(&self) -> &BpConfig {
        &self.config
    }

    /// The check matrix this decoder is bound to.
    pub fn check_matrix(&self) -> &SparseBitMatrix {
        &self.h
    }

    /// Number of variables (columns).
    pub fn num_vars(&self) -> usize {
        self.graph.num_vars()
    }

    /// The lane-width cap of one interleaved tile.
    pub fn max_lanes(&self) -> usize {
        self.max_lanes
    }

    /// Caps the lane width of one interleaved tile (memory/locality
    /// trade-off; results are unaffected).
    ///
    /// # Panics
    ///
    /// Panics if `max_lanes == 0`.
    pub fn set_max_lanes(&mut self, max_lanes: usize) {
        assert!(max_lanes > 0, "need at least one lane");
        self.max_lanes = max_lanes;
    }

    /// Decodes one syndrome (a batch of width 1).
    ///
    /// # Panics
    ///
    /// Panics if `syndrome.len()` differs from the number of checks.
    pub fn decode(&mut self, syndrome: &BitVec) -> BpResult<T> {
        self.decode_batch_results(std::slice::from_ref(syndrome))
            .pop()
            .expect("one result per syndrome")
    }

    /// Decodes a batch of syndromes, returning one [`BpResult`] per
    /// syndrome in input order.
    ///
    /// An empty batch returns an empty vector. Batches wider than
    /// [`Self::max_lanes`] are processed as consecutive tiles; the ragged
    /// tail (`syndromes.len() % max_lanes != 0`) runs at a narrower lane
    /// width. Lanes are fully isolated: the result of shot `i` depends
    /// only on `syndromes[i]` and is bit-identical to
    /// [`MinSumDecoderOf::decode`] of that syndrome at this precision.
    ///
    /// # Panics
    ///
    /// Panics if any syndrome's length differs from the number of checks.
    pub fn decode_batch_results(&mut self, syndromes: &[BitVec]) -> Vec<BpResult<T>> {
        for s in syndromes {
            assert_eq!(
                s.len(),
                self.graph.num_checks(),
                "syndrome length must equal the number of checks"
            );
        }
        let mut out = Vec::with_capacity(syndromes.len());
        for tile in syndromes.chunks(self.max_lanes) {
            self.decode_tile(tile, &mut out);
        }
        out
    }

    /// Decodes one tile of up to `max_lanes` shots into `out`.
    fn decode_tile(&mut self, tile: &[BitVec], out: &mut Vec<BpResult<T>>) {
        let lanes = tile.len();
        let vars = self.graph.num_vars();
        self.reset(tile);
        let mut target = wide::resolve_target(&self.config);
        // An auto-detected target steps down until one vector fits the
        // tile: a B=8 f32 tile holds no 16-lane groups, and routing it
        // through the AVX-512 kernel means running its scalar epilogue
        // for every lane — slower than the narrower wide kernel (or the
        // scalar kernel's lane-minor loops) the tile actually fills. A
        // *pinned* target is never stepped down; the equivalence suites
        // rely on forcing wide kernels onto tiny tiles.
        if self.config.simd_target.is_none() {
            while target != SimdTarget::Scalar && wide::lane_width::<T>(target) > lanes {
                target = wide::step_down(target);
            }
        }
        let vw = wide::lane_width::<T>(target);

        // Each shot's result is snapshotted the moment its lane retires,
        // not at the end of the tile: under a padded live width (below)
        // the wide kernels may recompute a few retired columns past
        // `width`, so a retired lane's slab state is no longer
        // guaranteed frozen — its snapshot is.
        let mut results: Vec<Option<BpResult<T>>> = (0..lanes).map(|_| None).collect();

        // `width` is the live-lane prefix; converged lanes are swapped
        // past it. For the wide kernels the prefix is padded to a whole
        // number of vectors (`width_eff`, capped at the tile) so lane
        // compaction cannot strand the iteration passes on a ragged
        // scalar tail; the padding columns hold retired lanes whose
        // recomputation is harmless (lanes are arithmetically isolated,
        // and their results were already snapshotted).
        let mut width = lanes;
        for iter in 1..=self.config.max_iters {
            if width == 0 {
                break;
            }
            for b in 0..width {
                self.iterations[self.lane_shot[b]] = iter;
            }
            let alpha = T::from_f64(self.config.damping.factor(iter));
            match (self.config.schedule, target) {
                (crate::Schedule::Flooding, SimdTarget::Scalar) => {
                    self.flooding_iteration(lanes, width, alpha)
                }
                (crate::Schedule::Layered, SimdTarget::Scalar) => {
                    self.layered_iteration(lanes, width, alpha)
                }
                (schedule, t) => {
                    let width_eff = lanes.min(width.div_ceil(vw) * vw);
                    let args = wide::IterArgs {
                        graph: &self.graph,
                        lane_channel: &self.lane_channel,
                        syndrome_sign: &self.syndrome_sign,
                        c2v: &mut self.c2v,
                        v2c: &mut self.v2c,
                        posterior: &mut self.posterior,
                        gamma: self.config.memory_strength,
                        alpha,
                        lanes,
                        width: width_eff,
                    };
                    match schedule {
                        crate::Schedule::Flooding => wide::flooding_wide(t, args),
                        crate::Schedule::Layered => wide::layered_wide(t, args),
                    }
                }
            }
            // Hard decision (paper Eq. 8) on the live lanes.
            for v in 0..vars {
                let vb = v * lanes;
                for b in 0..width {
                    self.hard[vb + b] = self.posterior[vb + b] <= T::ZERO;
                }
            }
            if self.config.track_oscillations {
                for v in 0..vars {
                    let vb = v * lanes;
                    for b in 0..width {
                        if self.hard[vb + b] != self.hard_prev[vb + b] {
                            self.flip_counts[vb + b] += 1;
                        }
                        self.hard_prev[vb + b] = self.hard[vb + b];
                    }
                }
            }
            // Retire converged lanes by compacting the live prefix. The
            // verdicts are precomputed for all live lanes in one
            // vectorizable slab pass (they depend only on each lane's
            // own frozen-by-now hard decision, so evaluating before the
            // swaps is equivalent to the per-lane walk it replaces);
            // when lane `b` retires, the occupant of `width - 1` — and
            // its verdict — moves into `b` and is examined next, so no
            // lane is skipped.
            self.compute_lane_ok(target, lanes, width);
            let mut b = 0;
            while b < width {
                if self.lane_ok[b] {
                    let shot = self.lane_shot[b];
                    self.converged[shot] = true;
                    results[shot] = Some(self.snapshot_lane(b, lanes, shot));
                    self.swap_lanes(b, width - 1, lanes);
                    self.lane_ok.swap(b, width - 1);
                    width -= 1;
                } else {
                    b += 1;
                }
            }
        }

        for (shot, slot) in results.iter_mut().enumerate() {
            out.push(match slot.take() {
                Some(result) => result,
                None => {
                    // Never retired: compaction left this shot's live
                    // (untouched-by-padding) state in some physical lane.
                    let b = self
                        .lane_shot
                        .iter()
                        .position(|&s| s == shot)
                        .expect("every shot occupies exactly one lane");
                    self.snapshot_lane(b, lanes, shot)
                }
            });
        }
    }

    /// Captures physical lane `b`'s state as shot `shot`'s result.
    fn snapshot_lane(&self, b: usize, lanes: usize, shot: usize) -> BpResult<T> {
        let vars = self.graph.num_vars();
        let mut error_hat = BitVec::zeros(vars);
        for v in 0..vars {
            if self.hard[v * lanes + b] {
                error_hat.set(v, true);
            }
        }
        BpResult {
            converged: self.converged[shot],
            error_hat,
            iterations: self.iterations[shot],
            posteriors: (0..vars).map(|v| self.posterior[v * lanes + b]).collect(),
            flip_counts: if self.config.track_oscillations {
                (0..vars).map(|v| self.flip_counts[v * lanes + b]).collect()
            } else {
                Vec::new()
            },
        }
    }

    /// The SIMD dispatch target this decoder's iteration kernels run at
    /// under the current configuration — the [`BpConfig::simd_target`]
    /// pin, the `QLDPC_SIMD_TARGET` override, or CPU detection, in that
    /// precedence (always [`SimdTarget::Scalar`] for the sum-product
    /// rule, which has no wide path). An auto-detected target may still
    /// step down per tile when a batch is narrower than one vector; a
    /// pinned target never does.
    pub fn resolved_simd_target(&self) -> SimdTarget {
        wide::resolve_target(&self.config)
    }

    /// Sizes the slabs for `tile.len()` lanes and loads the tile's state.
    fn reset(&mut self, tile: &[BitVec]) {
        let lanes = tile.len();
        let edges = self.graph.num_edges();
        let vars = self.graph.num_vars();
        let checks = self.graph.num_checks();

        self.c2v.clear();
        self.c2v.resize(edges * lanes, T::ZERO);
        // v2c is fully rewritten before it is read each iteration (both
        // schedules), exactly like the scalar decoder's buffer.
        self.v2c.resize(edges * lanes, T::ZERO);

        // Channel LLRs per (variable, lane): the priors broadcast across
        // the tile.
        self.lane_channel.clear();
        self.lane_channel.reserve(vars * lanes);
        for &llr in &self.channel_llrs {
            for _ in 0..lanes {
                self.lane_channel.push(llr);
            }
        }

        self.posterior.clear();
        self.posterior.extend_from_slice(&self.lane_channel);
        self.hard.clear();
        self.hard.resize(vars * lanes, false);
        self.hard_prev.clear();
        self.hard_prev.resize(vars * lanes, false);
        self.flip_counts.clear();
        self.flip_counts.resize(vars * lanes, 0);

        self.syndrome_bit.clear();
        self.syndrome_bit.reserve(checks * lanes);
        self.syndrome_sign.clear();
        self.syndrome_sign.reserve(checks * lanes);
        for c in 0..checks {
            for s in tile {
                let bit = s.get(c);
                self.syndrome_bit.push(bit);
                self.syndrome_sign.push(if bit { -T::ONE } else { T::ONE });
            }
        }

        self.lane_shot.clear();
        self.lane_shot.extend(0..lanes);
        self.converged.clear();
        self.converged.resize(lanes, false);
        self.iterations.clear();
        self.iterations.resize(lanes, 0);
        self.lane_sum.clear();
        self.lane_sum.resize(lanes, T::ZERO);
        self.lane_ok.clear();
        self.lane_ok.resize(lanes, false);
        self.lane_parity.clear();
        self.lane_parity.resize(lanes, false);
        self.scratch.ensure(lanes);
    }

    /// Swaps physical lanes `a` and `b` in every slab — a pure column
    /// permutation; no lane's values or operation order change.
    fn swap_lanes(&mut self, a: usize, b: usize, lanes: usize) {
        if a == b {
            return;
        }
        for e in 0..self.graph.num_edges() {
            self.c2v.swap(e * lanes + a, e * lanes + b);
            self.v2c.swap(e * lanes + a, e * lanes + b);
        }
        for v in 0..self.graph.num_vars() {
            let vb = v * lanes;
            self.lane_channel.swap(vb + a, vb + b);
            self.posterior.swap(vb + a, vb + b);
            self.hard.swap(vb + a, vb + b);
            self.hard_prev.swap(vb + a, vb + b);
            self.flip_counts.swap(vb + a, vb + b);
        }
        for c in 0..self.graph.num_checks() {
            let cb = c * lanes;
            self.syndrome_bit.swap(cb + a, cb + b);
            self.syndrome_sign.swap(cb + a, cb + b);
        }
        self.lane_shot.swap(a, b);
    }

    /// One flooding iteration over the live lanes: V2C, C2V, posteriors.
    ///
    /// Mirrors the scalar decoder's flooding pass per lane: same edge
    /// order, same accumulation order, same clamps. `lanes` is the slab
    /// stride, `width` the live prefix.
    fn flooding_iteration(&mut self, lanes: usize, width: usize, alpha: T) {
        let vars = self.graph.num_vars();
        let gamma = self.config.memory_strength;
        // V2C (paper Eq. 5): v2c[e] = lch[v] + Σ_{e'≠e} c2v[e'].
        // Width-sliced rows hoist the bounds checks out of the per-lane
        // loops so they vectorize over the batch dimension.
        for v in 0..vars {
            let lch = &self.lane_channel[v * lanes..v * lanes + width];
            let sums = &mut self.lane_sum[..width];
            if gamma == 0.0 {
                sums.copy_from_slice(lch);
            } else {
                let g = T::from_f64(gamma);
                let vrow = &self.posterior[v * lanes..v * lanes + width];
                for ((s, &llr), &p) in sums.iter_mut().zip(lch).zip(vrow) {
                    *s = (T::ONE - g) * llr + g * p;
                }
            }
            for &e in self.graph.var_edges(v) {
                let eb = e as usize * lanes;
                let crow = &self.c2v[eb..eb + width];
                for (s, &m) in sums.iter_mut().zip(crow) {
                    *s += m;
                }
            }
            for &e in self.graph.var_edges(v) {
                let eb = e as usize * lanes;
                let crow = &self.c2v[eb..eb + width];
                let vrow = &mut self.v2c[eb..eb + width];
                for ((out, &s), &m) in vrow.iter_mut().zip(sums.iter()).zip(crow) {
                    *out = (s - m).clamp_llr();
                }
            }
        }
        // C2V (paper Eq. 6, or the exact tanh rule).
        for c in 0..self.graph.num_checks() {
            self.update_check(c, lanes, width, alpha);
        }
        // Posteriors (paper Eq. 7).
        for v in 0..vars {
            let sums = &mut self.lane_sum[..width];
            sums.copy_from_slice(&self.lane_channel[v * lanes..v * lanes + width]);
            for &e in self.graph.var_edges(v) {
                let eb = e as usize * lanes;
                let crow = &self.c2v[eb..eb + width];
                for (s, &m) in sums.iter_mut().zip(crow) {
                    *s += m;
                }
            }
            let prow = &mut self.posterior[v * lanes..v * lanes + width];
            for (p, &s) in prow.iter_mut().zip(sums.iter()) {
                *p = s.clamp_llr();
            }
        }
    }

    /// One layered iteration over the live lanes: checks processed
    /// sequentially, per-shot posteriors updated immediately after each
    /// check.
    fn layered_iteration(&mut self, lanes: usize, width: usize, alpha: T) {
        for c in 0..self.graph.num_checks() {
            let range = self.graph.check_edges(c);
            // Fresh V2C from the running posterior, removing this check's
            // previous contribution.
            for e in range.clone() {
                let v = self.graph.edge_var(e);
                let (eb, vb) = (e * lanes, v * lanes);
                let prow = &self.posterior[vb..vb + width];
                let crow = &self.c2v[eb..eb + width];
                let vrow = &mut self.v2c[eb..eb + width];
                for ((out, &p), &m) in vrow.iter_mut().zip(prow).zip(crow) {
                    *out = (p - m).clamp_llr();
                }
            }
            self.update_check(c, lanes, width, alpha);
            for e in range {
                let v = self.graph.edge_var(e);
                let (eb, vb) = (e * lanes, v * lanes);
                let vrow = &self.v2c[eb..eb + width];
                let crow = &self.c2v[eb..eb + width];
                let prow = &mut self.posterior[vb..vb + width];
                for ((out, &a), &m) in prow.iter_mut().zip(vrow).zip(crow) {
                    *out = (a + m).clamp_llr();
                }
            }
        }
    }

    /// Recomputes check `c`'s C2V messages for the live lanes via the
    /// lane-generic check-update core.
    fn update_check(&mut self, c: usize, lanes: usize, width: usize, alpha: T) {
        let range = self.graph.check_edges(c);
        kernel::update_check_lanes(
            self.config.algorithm,
            &self.v2c[range.start * lanes..range.end * lanes],
            &mut self.c2v[range.start * lanes..range.end * lanes],
            lanes,
            width,
            &self.syndrome_sign[c * lanes..c * lanes + width],
            alpha,
            &mut self.scratch,
        );
    }

    /// Checks `H·ê = s` for every live lane at once, filling
    /// `lane_ok[..width]`: per check, one XOR-parity accumulation across
    /// the check's variables and one comparison against the syndrome
    /// bits — contiguous byte rows, run with explicit byte vectors on a
    /// wide `target` (32/64 lanes per op on AVX2/AVX-512), unlike the
    /// scalar per-lane walk this replaces. Pure boolean arithmetic, so
    /// every path computes identical verdicts.
    fn compute_lane_ok(&mut self, target: SimdTarget, lanes: usize, width: usize) {
        if width >= 8 && target != SimdTarget::Scalar {
            wide::lane_ok_wide(
                target,
                &self.graph,
                &self.hard,
                &self.syndrome_bit,
                &mut self.lane_ok,
                &mut self.lane_parity,
                lanes,
                width,
            );
            return;
        }
        let ok = &mut self.lane_ok[..width];
        // Narrow live prefixes (late-stage compaction, tiny batches)
        // are better served by the short-circuiting per-lane walk — the
        // slab pass always reads every edge, the walk usually stops at
        // the first unsatisfied check. Either path computes the same
        // boolean verdicts, so the choice is invisible to results.
        if width < 8 {
            for (b, o) in ok.iter_mut().enumerate() {
                *o = 'lane: {
                    for c in 0..self.graph.num_checks() {
                        let mut parity = false;
                        for &v in self.graph.check_vars(c) {
                            parity ^= self.hard[v as usize * lanes + b];
                        }
                        if parity != self.syndrome_bit[c * lanes + b] {
                            break 'lane false;
                        }
                    }
                    true
                };
            }
            return;
        }
        ok.fill(true);
        let parity = &mut self.lane_parity[..width];
        for c in 0..self.graph.num_checks() {
            parity.fill(false);
            for &v in self.graph.check_vars(c) {
                let vb = v as usize * lanes;
                let hrow = &self.hard[vb..vb + width];
                for (p, &h) in parity.iter_mut().zip(hrow) {
                    *p ^= h;
                }
            }
            let srow = &self.syndrome_bit[c * lanes..c * lanes + width];
            for (o, (&p, &s)) in ok.iter_mut().zip(parity.iter().zip(srow)) {
                *o &= p == s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchMinSumDecoderF32, MinSumDecoder, MinSumDecoderF32};

    fn repetition_h(n: usize) -> SparseBitMatrix {
        let rows: Vec<Vec<usize>> = (0..n - 1).map(|i| vec![i, i + 1]).collect();
        SparseBitMatrix::from_row_indices(n - 1, n, &rows)
    }

    #[test]
    fn empty_batch_returns_empty() {
        let h = repetition_h(5);
        let mut dec = BatchMinSumDecoder::new(&h, &[0.05; 5], BpConfig::default());
        assert!(dec.decode_batch_results(&[]).is_empty());
    }

    #[test]
    fn corrects_single_errors_across_lanes() {
        let h = repetition_h(9);
        let mut dec = BatchMinSumDecoder::new(&h, &[0.05; 9], BpConfig::default());
        let errors: Vec<BitVec> = (0..9).map(|b| BitVec::from_indices(9, &[b])).collect();
        let syndromes: Vec<BitVec> = errors.iter().map(|e| h.mul_vec(e)).collect();
        let results = dec.decode_batch_results(&syndromes);
        for (bit, (r, e)) in results.iter().zip(&errors).enumerate() {
            assert!(r.converged, "lane {bit} failed");
            assert_eq!(&r.error_hat, e, "lane {bit} mis-decoded");
        }
    }

    #[test]
    fn matches_scalar_bitwise_on_a_mixed_batch() {
        let h = repetition_h(9);
        let config = BpConfig {
            max_iters: 30,
            track_oscillations: true,
            ..BpConfig::default()
        };
        let mut batch = BatchMinSumDecoder::new(&h, &[0.05; 9], config);
        let mut scalar = MinSumDecoder::new(&h, &[0.05; 9], config);
        let syndromes: Vec<BitVec> = [vec![], vec![3], vec![1, 5], vec![0, 4, 8]]
            .iter()
            .map(|bits| h.mul_vec(&BitVec::from_indices(9, bits)))
            .collect();
        let rb = batch.decode_batch_results(&syndromes);
        for (r, s) in rb.iter().zip(&syndromes) {
            let rs = scalar.decode(s);
            assert_eq!(r.converged, rs.converged);
            assert_eq!(r.iterations, rs.iterations);
            assert_eq!(r.error_hat, rs.error_hat);
            assert_eq!(r.flip_counts, rs.flip_counts);
            for (a, b) in r.posteriors.iter().zip(&rs.posteriors) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// The same contract at f32: the reduced-precision batch engine is
    /// bit-identical to the reduced-precision scalar decoder (and both
    /// genuinely run in f32 — their posteriors are f32 values).
    #[test]
    fn f32_batch_matches_f32_scalar_bitwise() {
        let h = repetition_h(9);
        let config = BpConfig {
            max_iters: 30,
            track_oscillations: true,
            ..BpConfig::default()
        };
        let mut batch = BatchMinSumDecoderF32::new(&h, &[0.05; 9], config);
        let mut scalar = MinSumDecoderF32::new(&h, &[0.05; 9], config);
        let syndromes: Vec<BitVec> = [vec![], vec![3], vec![1, 5], vec![0, 4, 8]]
            .iter()
            .map(|bits| h.mul_vec(&BitVec::from_indices(9, bits)))
            .collect();
        let rb = batch.decode_batch_results(&syndromes);
        for (r, s) in rb.iter().zip(&syndromes) {
            let rs = scalar.decode(s);
            assert_eq!(r.converged, rs.converged);
            assert_eq!(r.iterations, rs.iterations);
            assert_eq!(r.error_hat, rs.error_hat);
            assert_eq!(r.flip_counts, rs.flip_counts);
            for (a, b) in r.posteriors.iter().zip(&rs.posteriors) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn tiling_is_invisible() {
        let h = repetition_h(9);
        let syndromes: Vec<BitVec> = (0..10)
            .map(|i| h.mul_vec(&BitVec::from_indices(9, &[i % 9])))
            .collect();
        let mut wide = BatchMinSumDecoder::new(&h, &[0.05; 9], BpConfig::default());
        let mut narrow = BatchMinSumDecoder::new(&h, &[0.05; 9], BpConfig::default());
        narrow.set_max_lanes(4); // 10 shots → tiles of 4, 4, 2 (ragged tail)
        let rw = wide.decode_batch_results(&syndromes);
        let rn = narrow.decode_batch_results(&syndromes);
        assert_eq!(rw.len(), rn.len());
        for (a, b) in rw.iter().zip(&rn) {
            assert_eq!(a.error_hat, b.error_hat);
            assert_eq!(a.iterations, b.iterations);
            for (x, y) in a.posteriors.iter().zip(&b.posteriors) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn from_scalar_matches_new() {
        let h = repetition_h(7);
        let config = BpConfig {
            max_iters: 15,
            ..BpConfig::default()
        };
        let scalar = MinSumDecoder::new(&h, &[0.07; 7], config);
        let mut a = BatchMinSumDecoder::from_scalar(&scalar);
        let mut b = BatchMinSumDecoder::new(&h, &[0.07; 7], config);
        let s = h.mul_vec(&BitVec::from_indices(7, &[2, 4]));
        let ra = a.decode(&s);
        let rb = b.decode(&s);
        assert_eq!(ra.error_hat, rb.error_hat);
        assert_eq!(ra.iterations, rb.iterations);
    }

    #[test]
    #[should_panic(expected = "syndrome length")]
    fn wrong_syndrome_length_panics() {
        let h = repetition_h(5);
        let mut dec = BatchMinSumDecoder::new(&h, &[0.05; 5], BpConfig::default());
        dec.decode_batch_results(&[BitVec::zeros(4), BitVec::zeros(5)]);
    }

    /// Dispatch-aware compaction padding: every tile width from one lane
    /// up to twice the widest vector (so every possible vector/tail
    /// split, including widths that compact through them mid-decode)
    /// stays bit-identical to the scalar oracle on every target this CPU
    /// can run, at both precisions.
    #[test]
    fn every_target_matches_scalar_across_tail_widths() {
        fn run<T: Llr>() {
            let h = repetition_h(9);
            let config = BpConfig {
                max_iters: 30,
                track_oscillations: true,
                ..BpConfig::default()
            };
            let mut scalar = MinSumDecoderOf::<T>::new(&h, &[0.05; 9], config);
            for &target in qldpc_simd::supported_targets() {
                let config = BpConfig {
                    simd_target: Some(target),
                    ..config
                };
                let mut batch = BatchMinSumDecoderOf::<T>::new(&h, &[0.05; 9], config);
                assert_eq!(batch.resolved_simd_target(), target);
                let max_width = 2 * qldpc_simd::MAX_F32_LANES + 1;
                for width in 1..=max_width {
                    let syndromes: Vec<BitVec> = (0..width)
                        .map(|i| h.mul_vec(&BitVec::from_indices(9, &[i % 9])))
                        .collect();
                    let rb = batch.decode_batch_results(&syndromes);
                    for (i, (r, s)) in rb.iter().zip(&syndromes).enumerate() {
                        let rs = scalar.decode(s);
                        assert_eq!(r.converged, rs.converged, "{target} w={width} shot {i}");
                        assert_eq!(r.iterations, rs.iterations, "{target} w={width} shot {i}");
                        assert_eq!(r.error_hat, rs.error_hat, "{target} w={width} shot {i}");
                        assert_eq!(r.flip_counts, rs.flip_counts, "{target} w={width} shot {i}");
                        for (a, b) in r.posteriors.iter().zip(&rs.posteriors) {
                            assert_eq!(
                                a.to_bits_u64(),
                                b.to_bits_u64(),
                                "{target} w={width} shot {i}"
                            );
                        }
                    }
                }
            }
        }
        run::<f64>();
        run::<f32>();
    }

    /// A forced target also holds under the layered schedule and with
    /// posterior memory enabled (both wide code paths beyond plain
    /// flooding), bit-for-bit.
    #[test]
    fn wide_layered_and_memory_match_scalar_bitwise() {
        let h = repetition_h(9);
        for &target in qldpc_simd::supported_targets() {
            for (schedule, gamma) in [
                (crate::Schedule::Layered, 0.0),
                (crate::Schedule::Flooding, 0.4),
            ] {
                let config = BpConfig {
                    max_iters: 30,
                    schedule,
                    memory_strength: gamma,
                    simd_target: Some(target),
                    ..BpConfig::default()
                };
                let mut batch = BatchMinSumDecoder::new(&h, &[0.05; 9], config);
                let mut scalar = MinSumDecoder::new(&h, &[0.05; 9], config);
                let syndromes: Vec<BitVec> = (0..10)
                    .map(|i| h.mul_vec(&BitVec::from_indices(9, &[i % 9])))
                    .collect();
                let rb = batch.decode_batch_results(&syndromes);
                for (r, s) in rb.iter().zip(&syndromes) {
                    let rs = scalar.decode(s);
                    assert_eq!(
                        r.iterations, rs.iterations,
                        "{target} {schedule:?} γ={gamma}"
                    );
                    assert_eq!(r.error_hat, rs.error_hat, "{target} {schedule:?} γ={gamma}");
                    for (a, b) in r.posteriors.iter().zip(&rs.posteriors) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{target} {schedule:?} γ={gamma}");
                    }
                }
            }
        }
    }

    /// The sum-product rule has no wide path: any pinned target resolves
    /// to scalar dispatch rather than silently running a kernel that
    /// does not exist.
    #[test]
    fn sum_product_always_resolves_scalar() {
        let h = repetition_h(5);
        let config = BpConfig {
            algorithm: crate::BpAlgorithm::SumProduct,
            simd_target: Some(*qldpc_simd::supported_targets().last().unwrap()),
            ..BpConfig::default()
        };
        let dec = BatchMinSumDecoder::new(&h, &[0.05; 5], config);
        assert_eq!(dec.resolved_simd_target(), SimdTarget::Scalar);
    }

    /// Pinning a target the CPU cannot run panics loudly instead of
    /// silently degrading (which would fake forced-target coverage).
    #[test]
    fn unavailable_pinned_target_panics() {
        let unavailable = [SimdTarget::Neon, SimdTarget::Avx2, SimdTarget::Avx512]
            .into_iter()
            .find(|t| !t.is_available());
        let Some(target) = unavailable else {
            eprintln!("skipping: every compiled-in target is available here");
            return;
        };
        let h = repetition_h(5);
        let config = BpConfig {
            simd_target: Some(target),
            ..BpConfig::default()
        };
        let mut dec = BatchMinSumDecoder::new(&h, &[0.05; 5], config);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dec.decode(&BitVec::zeros(4))
        }))
        .expect_err("pinning an unavailable target must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("does not support"), "got: {msg}");
    }
}
