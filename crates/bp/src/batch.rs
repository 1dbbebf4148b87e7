//! Shot-interleaved batched min-sum BP: decode `B` syndromes per call.
//!
//! This is the throughput engine behind the paper's core claim — that
//! fully parallelized BP wins on *throughput* because many syndromes can
//! be decoded simultaneously, amortizing the Tanner-graph traversal
//! across shots. [`BatchMinSumDecoder`] keeps all message state in
//! structure-of-arrays slabs:
//!
//! * `c2v`: `num_edges × L` (edge-major, lane-minor),
//! * `total`, `next_total`: `num_vars × L`, per-lane running totals;
//!   `hard`, and `flip_counts` when oscillations are tracked,
//! * syndrome bits/signs: `num_checks × L`,
//!
//! where `L = min(B, max_lanes)` is the lane width of one tile. Each BP
//! iteration is **one check-major sweep** over the graph for all live
//! lanes — the lane-interleaved twin of the scalar
//! [`MinSumDecoder`](crate::MinSumDecoder)'s: per check, V2C is formed
//! as `clamp(total[v] − c2v[e])` into a per-check scratch, the check
//! rule writes the new C2V in place, and it is added into `next_total`
//! (flooding) or written through to the running posterior (layered). A
//! lane's posterior is `clamp(total)`, so there is no V2C or posterior
//! slab. The slabs are 64-byte-aligned ([`AlignedSlab`]) and the sweep
//! runs as a **lane-block kernel** ([`wide`](crate::wide)) — one safe
//! body over `[T; L]` blocks, compiled for the instruction set picked
//! at runtime: AVX-512 → AVX2 → NEON → scalar, overridable per config
//! ([`BpConfig::simd_target`]) or process-wide (`QLDPC_SIMD_TARGET`).
//! On the scalar target, and for lanes past the last whole vector,
//! check updates go through the lane-generic [`kernel`](crate::kernel)
//! core, the oracle; the lane-block body re-expresses it with the same
//! selects in the same operand order, so each lane executes the
//! identical float stream. Either way every lane produces
//! the same floats, summed in the same order, as a scalar
//! [`MinSumDecoder::decode`](crate::MinSumDecoder::decode) of that shot —
//! the outputs are **bit-identical on every dispatch target**, enforced
//! by the property suite in `crates/bp/tests/batch_equivalence.rs`.
//!
//! # Precision
//!
//! The engine is generic over the [`Llr`] message scalar. At `f32`
//! ([`BatchMinSumDecoderF32`](crate::BatchMinSumDecoderF32)) the slabs
//! are half as wide, which doubles the lanes of each vector and halves
//! the memory traffic — the hardware-BP trade the source paper leans on.
//! The bit-identity contract holds *per precision*: f32 batch ≡ f32
//! scalar, f64 batch ≡ f64 scalar, each via `to_bits`.
//!
//! # Early termination: lane compaction
//!
//! Per-shot early exit is preserved via an active-lane prefix instead of
//! a mask. After each iteration's syndrome check, the converged lanes
//! are snapshotted and the live width shrinks; one compaction pass then
//! moves the surviving lanes above the new width into the holes below
//! it, in the slabs that carry state across iterations (`c2v`, `total`,
//! the syndrome slabs, and `hard` and `flip_counts` when oscillations
//! are tracked) — a pure permutation, so no surviving lane's arithmetic
//! changes. Each iteration's cost is then proportional to the number of
//! *still-running* shots, exactly like the scalar decoder's per-shot
//! iteration sum.
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
use crate::{prior_llr, BpConfig, BpResult, MinSumDecoderOf, Schedule};
use qldpc_gf2::{BitVec, SparseBitMatrix};
use qldpc_simd::{AlignedSlab, SimdTarget};

/// Default cap on the lane width of one interleaved tile.
///
/// Bounds slab memory at about `(num_edges + 2 × num_vars) ×
/// DEFAULT_MAX_LANES` message scalars (the `c2v` slab and the two
/// running-total slabs) regardless of the caller's batch size; larger
/// batches are processed as consecutive tiles (the ragged tail simply
/// runs at a narrower width). Use this constant — not its current
/// literal value — anywhere a batch width should mean "one full kernel
/// tile" (the service's `max_batch` default does exactly that).
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
/// one by running it or its wide twin, the scalar sweep as a one-lane
/// re-expression) in the same check-major sweep, handing each variable
/// its messages in the same ascending-edge order per lane.
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
    max_check_degree: usize,
    // Shot-interleaved working slabs at the current tile's lane stride,
    // sized for the widest tile seen and reused across decodes. All are
    // 64-byte-aligned so the lane-block kernels start every row of a
    // full tile on a cache line / AVX-512 register boundary.
    c2v: AlignedSlab<T>,
    /// Per (variable, lane), what V2C messages are formed from: flooding,
    /// the unclamped `l_ch + Σ c2v` of the last sweep; layered, the
    /// running posterior. The lane's posterior is `clamp(total)`.
    total: AlignedSlab<T>,
    /// Where a flooding sweep sums the next `total`.
    next_total: AlignedSlab<T>,
    /// One check's V2C messages: `max_check_degree` rows of one lane
    /// group (wide) or of the oracle's lanes (scalar).
    incoming: AlignedSlab<T>,
    /// The oracle's C2V output for the same rows.
    outgoing: AlignedSlab<T>,
    /// This iteration's hard decisions; with oscillation tracking, also
    /// the last iteration's, which the flip counts compare against.
    hard: AlignedSlab<bool>,
    flip_counts: AlignedSlab<u32>,
    /// `±1.0` per (check, lane): `-1.0` where the syndrome bit is set.
    syndrome_sign: AlignedSlab<T>,
    syndrome_bit: AlignedSlab<bool>,
    /// Original shot index occupying each physical lane (compaction
    /// moves it alongside the slab columns).
    lane_shot: Vec<usize>,
    // Per-shot (not per-lane) bookkeeping.
    converged: Vec<bool>,
    iterations: Vec<usize>,
    /// Per-lane syndrome-satisfaction verdicts (one slab pass per
    /// iteration instead of a scalar walk per lane).
    lane_ok: AlignedSlab<bool>,
    /// One compaction pass's `(hole, filler)` lane pairs.
    moves: Vec<(usize, usize)>,
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
        let max_check_degree = (0..graph.num_checks())
            .map(|c| graph.check_edges(c).len())
            .max()
            .unwrap_or(0);
        Self {
            graph,
            h,
            config,
            channel_llrs,
            max_lanes: DEFAULT_MAX_LANES,
            max_check_degree,
            c2v: AlignedSlab::new(),
            total: AlignedSlab::new(),
            next_total: AlignedSlab::new(),
            incoming: AlignedSlab::new(),
            outgoing: AlignedSlab::new(),
            hard: AlignedSlab::new(),
            flip_counts: AlignedSlab::new(),
            syndrome_sign: AlignedSlab::new(),
            syndrome_bit: AlignedSlab::new(),
            lane_shot: Vec::new(),
            converged: Vec::new(),
            iterations: Vec::new(),
            lane_ok: AlignedSlab::new(),
            moves: Vec::new(),
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
        self.reset(tile);
        let mut target = wide::resolve_target(&self.config);
        // An auto-detected target steps down until one vector fits the
        // tile: a B=8 f32 tile holds no 16-lane groups, and routing it
        // through the AVX-512 kernel means running the oracle on every
        // lane — slower than the narrower wide kernel (or the scalar
        // target's lane-minor loops) the tile actually fills. A *pinned*
        // target is never stepped down; the equivalence suites rely on
        // forcing wide kernels onto tiny tiles.
        if self.config.simd_target.is_none() {
            while target != SimdTarget::Scalar && wide::lane_width::<T>(target) > lanes {
                target = wide::step_down(target);
            }
        }
        let vw = wide::lane_width::<T>(target);
        let flooding = self.config.schedule == Schedule::Flooding;
        // Posterior memory (flooding only): `Some(γ)` when enabled.
        let gamma = self.config.memory_strength;
        let memory = (flooding && gamma != 0.0).then(|| T::from_f64(gamma));

        // Each shot's result is snapshotted the moment its lane retires,
        // not at the end of the tile: under a padded live width (below)
        // the wide kernel may recompute a few retired columns past
        // `width`, so a retired lane's slab state is no longer
        // guaranteed frozen — its snapshot is.
        let mut results: Vec<Option<BpResult<T>>> = (0..lanes).map(|_| None).collect();

        // `width` is the live-lane prefix. For the wide kernel the prefix
        // is padded to a whole number of vectors (`width_eff`, capped at
        // the tile) so lane compaction cannot strand the sweep on a
        // ragged tail; the padding columns hold retired lanes whose
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
            if let Some(gamma) = memory {
                self.blend_memory(gamma, lanes, width);
            }
            let width_eff = lanes.min(width.div_ceil(vw) * vw);
            let main = if target == SimdTarget::Scalar {
                0
            } else {
                width_eff - width_eff % vw
            };
            if main > 0 {
                let args = wide::SweepArgs {
                    graph: &self.graph,
                    channel: &self.channel_llrs,
                    syndrome_sign: &self.syndrome_sign,
                    c2v: &mut self.c2v,
                    total: &mut self.total,
                    next_total: &mut self.next_total,
                    incoming: &mut self.incoming,
                    flooding,
                    alpha,
                    lanes,
                    width: main,
                };
                wide::sweep_wide(target, args);
            }
            self.sweep_lanes(main, width_eff, lanes, alpha, flooding);
            if flooding {
                std::mem::swap(&mut self.total, &mut self.next_total);
            }
            self.hard_decision(lanes, width);
            self.compute_lane_ok(target, lanes, width);
            width = self.retire(lanes, width, &mut results);
        }

        // The lanes that never retired hold their live state in the
        // prefix the last compaction left.
        for b in 0..width {
            let shot = self.lane_shot[b];
            results[shot] = Some(self.snapshot_lane(b, lanes, shot));
        }
        out.extend(
            results
                .into_iter()
                .map(|r| r.expect("every shot retires or stays live")),
        );
    }

    /// Captures physical lane `b`'s state as shot `shot`'s result.
    fn snapshot_lane(&self, b: usize, lanes: usize, shot: usize) -> BpResult<T> {
        let vars = self.graph.num_vars();
        // Slabs are borrowed once, outside the per-variable loops.
        let (total, flip_counts) = (&self.total[..], &self.flip_counts[..]);
        let posteriors: Vec<T> = (0..vars)
            .map(|v| total[v * lanes + b].clamp_llr())
            .collect();
        let mut error_hat = BitVec::zeros(vars);
        for (v, &p) in posteriors.iter().enumerate() {
            if p <= T::ZERO {
                error_hat.set(v, true);
            }
        }
        BpResult {
            converged: self.converged[shot],
            error_hat,
            iterations: self.iterations[shot],
            posteriors,
            flip_counts: if self.config.track_oscillations {
                (0..vars).map(|v| flip_counts[v * lanes + b]).collect()
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

    /// Grows the slabs for `tile.len()` lanes (never shrinks them) and
    /// loads the tile's state. Only what a decode reads before writing is
    /// initialised: `c2v`, the totals and the syndromes, plus the hard
    /// decisions and flip counts when oscillations are tracked.
    fn reset(&mut self, tile: &[BitVec]) {
        fn grow<X: Copy>(slab: &mut AlignedSlab<X>, len: usize, fill: X) {
            if slab.len() < len {
                slab.resize(len, fill);
            }
        }
        let lanes = tile.len();
        let edges = self.graph.num_edges();
        let vars = self.graph.num_vars();
        let checks = self.graph.num_checks();
        let track = self.config.track_oscillations;
        grow(&mut self.c2v, edges * lanes, T::ZERO);
        grow(&mut self.total, vars * lanes, T::ZERO);
        grow(&mut self.next_total, vars * lanes, T::ZERO);
        grow(&mut self.incoming, self.max_check_degree * lanes, T::ZERO);
        grow(&mut self.outgoing, self.max_check_degree * lanes, T::ZERO);
        grow(&mut self.hard, vars * lanes, false);
        if track {
            grow(&mut self.flip_counts, vars * lanes, 0);
        }
        grow(&mut self.syndrome_sign, checks * lanes, T::ZERO);
        grow(&mut self.syndrome_bit, checks * lanes, false);
        grow(&mut self.lane_ok, lanes, false);
        self.scratch.ensure(lanes);

        self.c2v[..edges * lanes].fill(T::ZERO);
        let rows = self.total[..vars * lanes].chunks_exact_mut(lanes);
        for (row, &llr) in rows.zip(&self.channel_llrs) {
            row.fill(llr);
        }
        if track {
            self.hard[..vars * lanes].fill(false);
            self.flip_counts[..vars * lanes].fill(0);
        }
        for c in 0..checks {
            let bits = &mut self.syndrome_bit[c * lanes..(c + 1) * lanes];
            let signs = &mut self.syndrome_sign[c * lanes..(c + 1) * lanes];
            for ((bit, sign), s) in bits.iter_mut().zip(signs.iter_mut()).zip(tile) {
                *bit = s.get(c);
                *sign = if *bit { -T::ONE } else { T::ONE };
            }
        }

        self.lane_shot.clear();
        self.lane_shot.extend(0..lanes);
        self.converged.clear();
        self.converged.resize(lanes, false);
        self.iterations.clear();
        self.iterations.resize(lanes, 0);
    }

    /// Posterior memory: re-forms each live lane's `total` with
    /// `(1−γ)·l_ch + γ·posterior` in place of `l_ch`, as the scalar
    /// decoder's `blend_memory` does. The one variable-major pass over
    /// `c2v`, paid only by the configuration that needs it.
    fn blend_memory(&mut self, gamma: T, lanes: usize, width: usize) {
        for (v, &llr) in self.channel_llrs.iter().enumerate() {
            let totals = &mut self.total[v * lanes..v * lanes + width];
            for t in totals.iter_mut() {
                *t = (T::ONE - gamma) * llr + gamma * t.clamp_llr();
            }
            for &e in self.graph.var_edges(v) {
                let eb = e as usize * lanes;
                for (t, &m) in totals.iter_mut().zip(&self.c2v[eb..eb + width]) {
                    *t += m;
                }
            }
        }
    }

    /// The sweep for lanes `lo..hi` through the oracle
    /// ([`kernel::update_check_lanes`]): per check, V2C is formed into
    /// `incoming` at stride `hi − lo`, the oracle writes the new C2V into
    /// `outgoing`, and that is copied into `c2v` and folded back exactly
    /// as the wide kernel does. Runs the whole tile on the scalar target,
    /// and the lanes past the last whole vector on a wide one.
    fn sweep_lanes(&mut self, lo: usize, hi: usize, lanes: usize, alpha: T, flooding: bool) {
        let n = hi - lo;
        if n == 0 {
            return;
        }
        if flooding {
            for (v, &llr) in self.channel_llrs.iter().enumerate() {
                self.next_total[v * lanes + lo..v * lanes + hi].fill(llr);
            }
        }
        for c in 0..self.graph.num_checks() {
            let edges = self.graph.check_edges(c).zip(self.graph.check_vars(c));
            let deg = edges.len();
            let incoming = &mut self.incoming[..deg * n];
            for (row, (e, &v)) in incoming.chunks_exact_mut(n).zip(edges.clone()) {
                let totals = &self.total[v as usize * lanes + lo..][..n];
                let old = &self.c2v[e * lanes + lo..][..n];
                for ((m, &t), &o) in row.iter_mut().zip(totals).zip(old) {
                    *m = (t - o).clamp_llr();
                }
            }
            let outgoing = &mut self.outgoing[..deg * n];
            kernel::update_check_lanes(
                self.config.algorithm,
                incoming,
                outgoing,
                n,
                n,
                &self.syndrome_sign[c * lanes + lo..c * lanes + hi],
                alpha,
                &mut self.scratch,
            );
            let rows = incoming.chunks_exact(n).zip(outgoing.chunks_exact(n));
            for ((row, out), (e, &v)) in rows.zip(edges) {
                self.c2v[e * lanes + lo..][..n].copy_from_slice(out);
                let vb = v as usize * lanes + lo;
                if flooding {
                    for (t, &new) in self.next_total[vb..vb + n].iter_mut().zip(out) {
                        *t += new;
                    }
                } else {
                    let totals = &mut self.total[vb..vb + n];
                    for ((t, &m), &new) in totals.iter_mut().zip(row).zip(out) {
                        *t = (m + new).clamp_llr();
                    }
                }
            }
        }
    }

    /// Hard decision (paper Eq. 8) on the live lanes: error where the
    /// posterior `clamp(total)` is `<= 0`, which is where `total` is.
    /// With oscillation tracking, counts the flips against the last
    /// iteration's decision first.
    fn hard_decision(&mut self, lanes: usize, width: usize) {
        let len = self.graph.num_vars() * lanes;
        let totals = self.total[..len].chunks_exact(lanes);
        let rows = totals.zip(self.hard[..len].chunks_exact_mut(lanes));
        if self.config.track_oscillations {
            let flips = self.flip_counts[..len].chunks_exact_mut(lanes);
            for ((totals, hard), flips) in rows.zip(flips) {
                let lanes = hard[..width].iter_mut().zip(&mut flips[..width]);
                for ((h, f), &t) in lanes.zip(&totals[..width]) {
                    let bit = t <= T::ZERO;
                    *f += u32::from(bit != *h);
                    *h = bit;
                }
            }
        } else {
            for (totals, hard) in rows {
                for (h, &t) in hard[..width].iter_mut().zip(&totals[..width]) {
                    *h = t <= T::ZERO;
                }
            }
        }
    }

    /// Retires the converged lanes of the live prefix `..width` and
    /// returns the new width: each converged lane is snapshotted, then
    /// one compaction pass moves the surviving lanes at or above the new
    /// width into the converged lanes' holes below it, in every slab
    /// that carries state into the next iteration.
    fn retire(&mut self, lanes: usize, width: usize, results: &mut [Option<BpResult<T>>]) -> usize {
        let mut kept = width;
        for b in 0..width {
            if self.lane_ok[b] {
                let shot = self.lane_shot[b];
                self.converged[shot] = true;
                results[shot] = Some(self.snapshot_lane(b, lanes, shot));
                kept -= 1;
            }
        }
        let ok = &self.lane_ok[..width];
        let holes = (0..kept).filter(|&b| ok[b]);
        let fillers = (kept..width).filter(|&b| !ok[b]);
        self.moves.clear();
        self.moves.extend(holes.zip(fillers));
        if self.moves.is_empty() {
            return kept;
        }
        fn compact<X: Copy>(slab: &mut [X], lanes: usize, moves: &[(usize, usize)]) {
            for row in slab.chunks_exact_mut(lanes) {
                for &(hole, filler) in moves {
                    row[hole] = row[filler];
                }
            }
        }
        let moves = &self.moves;
        let vars = self.graph.num_vars() * lanes;
        let checks = self.graph.num_checks() * lanes;
        compact(
            &mut self.c2v[..self.graph.num_edges() * lanes],
            lanes,
            moves,
        );
        compact(&mut self.total[..vars], lanes, moves);
        compact(&mut self.syndrome_sign[..checks], lanes, moves);
        compact(&mut self.syndrome_bit[..checks], lanes, moves);
        compact(&mut self.lane_shot, lanes, moves);
        if self.config.track_oscillations {
            compact(&mut self.hard[..vars], lanes, moves);
            compact(&mut self.flip_counts[..vars], lanes, moves);
        }
        kept
    }

    /// Checks `H·ê = s` for every live lane at once, filling
    /// `lane_ok[..width]`. Narrow live prefixes (late-stage compaction,
    /// tiny batches) are better served by a short-circuiting per-lane
    /// walk — the slab pass always reads every edge, the walk usually
    /// stops at the first unsatisfied check. Wider ones run the slab
    /// pass ([`wide::lane_ok`]) over contiguous byte rows at `target`'s
    /// vector width. Pure boolean arithmetic, so every path computes
    /// identical verdicts.
    fn compute_lane_ok(&mut self, target: SimdTarget, lanes: usize, width: usize) {
        if width >= 8 {
            wide::lane_ok(
                target,
                &self.graph,
                &self.hard,
                &self.syndrome_bit,
                &mut self.lane_ok,
                lanes,
                width,
            );
            return;
        }
        let (hard, syndrome_bit) = (&self.hard[..], &self.syndrome_bit[..]);
        for (b, o) in self.lane_ok[..width].iter_mut().enumerate() {
            *o = 'lane: {
                for c in 0..self.graph.num_checks() {
                    let mut parity = false;
                    for &v in self.graph.check_vars(c) {
                        parity ^= hard[v as usize * lanes + b];
                    }
                    if parity != syndrome_bit[c * lanes + b] {
                        break 'lane false;
                    }
                }
                true
            };
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
    /// split, including widths that compact through them mid-decode),
    /// and 63–65 and 127–129 lanes, around one and two full 64-byte
    /// syndrome-check vectors (129 is a full tile and a one-lane one),
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
                for width in (1..=max_width).chain([63, 64, 65, 127, 128, 129]) {
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
