//! Explicit-SIMD twins of the batch decoder's hot loops, behind runtime
//! dispatch.
//!
//! The check-update core in [`kernel`](crate::kernel) remains the
//! **bit-identity oracle**; this module re-expresses the two hot
//! per-iteration passes — the check-major sweep (V2C formed from the
//! per-lane running totals, the two-minimum/argmin check update, the
//! fold back into the totals) and the slab syndrome check — as explicit
//! wide kernels over the `qldpc-simd` vector types, one monomorphization
//! per [`SimdTarget`]. Every wide op was chosen so each lane executes
//! *exactly* the scalar float stream (see the op-selection notes in
//! `vendor/simd/src/vec.rs`):
//!
//! * compares are ordered `<` (NaN → false), matching the branchy
//!   scalar selects — never `min`/`max` intrinsics, whose NaN handling
//!   diverges from `Llr::clamp_llr` (reachable: `alpha = 0` ×
//!   degree-1 check gives `0 · INF = NaN`);
//! * negation and `abs` are sign-bit ops, exact for `-0.0` messages;
//! * products round one multiply at a time (no FMA), and sums keep the
//!   scalar code's operand order (which also fixes a NaN's payload).
//!
//! The sweep covers whole vectors only: lanes past the last one (a tile
//! narrower than, or not a multiple of, the vector) run through the
//! oracle in `batch.rs`. The syndrome check keeps a scalar epilogue. The
//! dispatch wrappers carry `#[target_feature]`, so the generic bodies
//! below compile once per instruction set with full vector codegen; they
//! are only reachable through [`dispatch`](SimdTarget) after runtime
//! feature detection, which is the single safety contract of the unsafe
//! vector ops.

use crate::decoder::{BpAlgorithm, BpConfig};
use crate::graph::TannerGraph;
use crate::llr::Llr;
use qldpc_decoder_api::Precision;
use qldpc_simd::{SimdBytes, SimdF, SimdTarget};

/// Vector lane count of `target` at message precision `T`.
pub(crate) fn lane_width<T: Llr>(target: SimdTarget) -> usize {
    match T::PRECISION {
        Precision::F32 => target.f32_lanes(),
        Precision::F64 => target.f64_lanes(),
    }
}

/// Resolves the dispatch target one decode runs at: the config's pin if
/// set (validated against the CPU), the process-wide
/// [`active_target`](qldpc_simd::active_target) otherwise — except that
/// the sum-product rule always runs scalar (its tanh/ln/exp chain has
/// no wide twin).
///
/// # Panics
///
/// Panics if the config pins a target the current CPU does not support:
/// a silently degraded pin would fake forced-target test coverage.
pub(crate) fn resolve_target(config: &BpConfig) -> SimdTarget {
    let target = match config.simd_target {
        Some(t) => {
            assert!(
                t.is_available(),
                "BpConfig::simd_target pins {t}, which this CPU does not support \
                 (supported: {:?})",
                qldpc_simd::supported_targets()
                    .iter()
                    .map(|s| s.name())
                    .collect::<Vec<_>>()
            );
            t
        }
        None => qldpc_simd::active_target(),
    };
    if config.algorithm == BpAlgorithm::SumProduct {
        SimdTarget::Scalar
    } else {
        target
    }
}

/// The next-narrower dispatch target, used by the batch engine to step
/// an *auto-detected* target down when a tile holds fewer lanes than
/// one vector (pinned targets are never stepped down).
pub(crate) fn step_down(target: SimdTarget) -> SimdTarget {
    match target {
        SimdTarget::Avx512 => SimdTarget::Avx2,
        _ => SimdTarget::Scalar,
    }
}

/// Borrowed view of one check-major sweep's slabs. `width` is the
/// (padded) live prefix the vector groups cover, a whole number of
/// vectors; every slab row must be valid for `width` lanes at stride
/// `lanes`.
pub(crate) struct SweepArgs<'a, T: Llr> {
    pub graph: &'a TannerGraph,
    /// One channel LLR per variable: where a flooding sweep starts each
    /// `next_total`.
    pub channel: &'a [T],
    pub syndrome_sign: &'a [T],
    pub c2v: &'a mut [T],
    pub total: &'a mut [T],
    /// Flooding only; unread by a layered sweep.
    pub next_total: &'a mut [T],
    /// One check's V2C messages for one lane group: at least
    /// `max_check_degree × vector width` scalars.
    pub incoming: &'a mut [T],
    pub flooding: bool,
    pub alpha: T,
    pub lanes: usize,
    pub width: usize,
}

/// One check-major sweep (flooding or layered) on a wide target.
///
/// `target` must be a non-scalar target supported by this CPU (the
/// caller runs the scalar target, and any lanes past the last whole
/// vector, through the oracle in `batch.rs`).
///
/// # Panics
///
/// Panics if a slab is too short for `lanes` lanes, or `width` is not a
/// whole number of vectors within `lanes`: the raw-pointer body relies
/// on both.
pub(crate) fn sweep_wide<T: Llr>(target: SimdTarget, args: SweepArgs<'_, T>) {
    let (graph, lanes) = (args.graph, args.lanes);
    assert!(
        args.width <= lanes
            && args.width.is_multiple_of(lane_width::<T>(target))
            && args.channel.len() == graph.num_vars()
            && args.c2v.len() >= graph.num_edges() * lanes
            && args.total.len().min(args.next_total.len()) >= graph.num_vars() * lanes
            && args.syndrome_sign.len() >= graph.num_checks() * lanes,
        "sweep slabs too short for {lanes} lanes"
    );
    match target {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller only passes targets whose runtime feature
        // check succeeded (resolve_target / supported_targets); the
        // assert above (and the body's per-check one on `incoming`)
        // keeps every vector load and store inside its slab.
        SimdTarget::Avx2 => unsafe { sweep_avx2(args) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdTarget::Avx512 => unsafe { sweep_avx512(args) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above.
        SimdTarget::Neon => unsafe { sweep_neon(args) },
        _ => unreachable!("scalar/unsupported target dispatched to the wide sweep"),
    }
}

/// The slab syndrome check on a wide target: fills `ok[..width]` with
/// per-lane `H·ê == s` verdicts via byte-wide XOR/AND rows.
///
/// Exact boolean arithmetic — bit-identity is trivial; the win is the
/// byte vector width (32/64 lanes per op on AVX2/AVX-512).
#[allow(clippy::too_many_arguments)]
pub(crate) fn lane_ok_wide(
    target: SimdTarget,
    graph: &TannerGraph,
    hard: &[bool],
    syndrome_bit: &[bool],
    ok: &mut [bool],
    parity: &mut [bool],
    lanes: usize,
    width: usize,
) {
    match target {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller only passes targets whose runtime feature
        // check succeeded (resolve_target / supported_targets).
        SimdTarget::Avx2 => unsafe {
            lane_ok_avx2(graph, hard, syndrome_bit, ok, parity, lanes, width)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdTarget::Avx512 => unsafe {
            lane_ok_avx512(graph, hard, syndrome_bit, ok, parity, lanes, width)
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above.
        SimdTarget::Neon => unsafe {
            lane_ok_neon(graph, hard, syndrome_bit, ok, parity, lanes, width)
        },
        _ => unreachable!("scalar/unsupported target dispatched to the wide syndrome check"),
    }
}

// ---------------------------------------------------------------------
// #[target_feature] wrappers: one monomorphization of each generic body
// per instruction set, so the bodies inline and compile with full wide
// codegen. Only reachable through the dispatchers above.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2<T: Llr>(args: SweepArgs<'_, T>) {
    sweep_body::<T, T::Avx2>(args)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
unsafe fn sweep_avx512<T: Llr>(args: SweepArgs<'_, T>) {
    sweep_body::<T, T::Avx512>(args)
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn sweep_neon<T: Llr>(args: SweepArgs<'_, T>) {
    sweep_body::<T, T::Neon>(args)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lane_ok_avx2(
    graph: &TannerGraph,
    hard: &[bool],
    syndrome_bit: &[bool],
    ok: &mut [bool],
    parity: &mut [bool],
    lanes: usize,
    width: usize,
) {
    lane_ok_body::<qldpc_simd::avx2::B8x32>(graph, hard, syndrome_bit, ok, parity, lanes, width)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
unsafe fn lane_ok_avx512(
    graph: &TannerGraph,
    hard: &[bool],
    syndrome_bit: &[bool],
    ok: &mut [bool],
    parity: &mut [bool],
    lanes: usize,
    width: usize,
) {
    lane_ok_body::<qldpc_simd::avx512::B8x64>(graph, hard, syndrome_bit, ok, parity, lanes, width)
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn lane_ok_neon(
    graph: &TannerGraph,
    hard: &[bool],
    syndrome_bit: &[bool],
    ok: &mut [bool],
    parity: &mut [bool],
    lanes: usize,
    width: usize,
) {
    lane_ok_body::<qldpc_simd::neon::B8x16>(graph, hard, syndrome_bit, ok, parity, lanes, width)
}

// ---------------------------------------------------------------------
// Generic kernel bodies. `#[inline(always)]` so they monomorphize
// *inside* the feature wrappers above and pick up their codegen
// features.
// ---------------------------------------------------------------------

/// `clamp_llr` as two compare-blends, matching Rust's `clamp` for every
/// input including NaN (`max`/`min` intrinsics would not: e.g.
/// `maxpd(NaN, lo) = lo`, but `NaN.clamp(lo, hi) = NaN`).
#[inline(always)]
unsafe fn clamp_v<T: Llr, V: SimdF<Elem = T>>(x: V) -> V {
    let lo = V::splat(-T::CLAMP);
    let hi = V::splat(T::CLAMP);
    let t1 = V::select_lt(x, lo, lo, x);
    V::select_lt(hi, t1, hi, t1)
}

/// One check-major sweep over per-lane running totals: the
/// lane-interleaved twin of the scalar decoder's `sweep_checks`.
///
/// Per check and lane group (`V::LANES` shots), V2C (paper Eq. 5) is
/// formed as `clamp(total[v] − c2v[e])` into `incoming` (one vector per
/// edge), and the min-sum reduction (paper Eq. 6) runs in
/// registers over it: the `MinSum` arm of `kernel::update_check_lanes`,
/// the oracle, re-expressed in selects chosen so every lane executes its
/// float stream:
///
/// * `second = a<b ? min1 : min2`, then `min2' = new_best ? old_min1 :
///   (mag<min2 ? mag : min2)` — equal to the oracle's
///   `if mag < min2 && !new_best` arm for every input, NaN included;
/// * `argmin` updates under the *old* `min1` compare, before `min1` is
///   overwritten;
/// * sign flips are compare+blend on `m < 0`, so `-0.0` messages keep
///   the oracle's "not negative" classification.
///
/// The new C2V is written in place and folded back: flooding adds it
/// into `next_total` (started at the channel LLR), layered writes the
/// running posterior `clamp(m + c2v)` through at once. Checks ascending
/// and edges ascending within a check hand every variable its terms in
/// ascending edge id, the scalar sweep's order.
#[inline(always)]
unsafe fn sweep_body<T: Llr, V: SimdF<Elem = T>>(args: SweepArgs<'_, T>) {
    let SweepArgs {
        graph,
        channel,
        syndrome_sign,
        c2v,
        total,
        next_total,
        incoming,
        flooding,
        alpha,
        lanes,
        width,
    } = args;
    let w = V::LANES;
    let c2vp = c2v.as_mut_ptr();
    let totp = total.as_mut_ptr();
    let nextp = next_total.as_mut_ptr();
    let incp = incoming.as_mut_ptr();
    let ssp = syndrome_sign.as_ptr();
    let zero = V::splat(T::ZERO);
    let alpha_v = V::splat(alpha);
    let pos_one = V::splat(T::ONE);
    let neg_one = V::splat(-T::ONE);
    if flooding {
        for (v, &llr) in channel.iter().enumerate() {
            for b in (0..width).step_by(w) {
                V::splat(llr).store(nextp.add(v * lanes + b));
            }
        }
    }
    for c in 0..graph.num_checks() {
        let edges = graph.check_edges(c).zip(graph.check_vars(c));
        assert!(edges.len() * w <= incoming.len(), "incoming too short");
        for b in (0..width).step_by(w) {
            let mut min1 = V::splat(T::INFINITY);
            let mut min2 = V::splat(T::INFINITY);
            let mut argmin = V::idx_splat(u32::MAX);
            let mut sign = V::load(ssp.add(c * lanes + b));
            for (j, (e, &v)) in edges.clone().enumerate() {
                let t = V::load(totp.add(v as usize * lanes + b));
                let m = clamp_v::<T, V>(t.sub(V::load(c2vp.add(e * lanes + b))));
                m.store(incp.add(j * w));
                let mag = m.abs();
                let second = V::select_lt(mag, min1, min1, min2);
                let tmp = V::select_lt(mag, min2, mag, second);
                let new_min2 = V::select_lt(mag, min1, second, tmp);
                argmin = V::idx_select_lt(mag, min1, V::idx_splat(j as u32), argmin);
                min1 = V::select_lt(mag, min1, mag, min1);
                min2 = new_min2;
                sign = V::select_lt(m, zero, sign.neg(), sign);
            }
            for (j, (e, &v)) in edges.clone().enumerate() {
                let m = V::load(incp.add(j * w));
                let mag = V::select_idx_eq(argmin, V::idx_splat(j as u32), min2, min1);
                let own = V::select_lt(m, zero, neg_one, pos_one);
                let out = clamp_v::<T, V>(sign.mul(own).mul(alpha_v).mul(mag));
                out.store(c2vp.add(e * lanes + b));
                let vb = v as usize * lanes + b;
                if flooding {
                    V::load(nextp.add(vb)).add(out).store(nextp.add(vb));
                } else {
                    clamp_v::<T, V>(m.add(out)).store(totp.add(vb));
                }
            }
        }
    }
}

/// The slab syndrome check: the wide twin of the vectorizable branch of
/// `BatchMinSumDecoderOf::compute_lane_ok`, on byte rows. `bool` slabs
/// are read and written through `u8` pointers — sound because `bool` is
/// one byte with values 0/1, and XOR/AND of 0/1 bytes stay 0/1.
#[inline(always)]
unsafe fn lane_ok_body<B: SimdBytes>(
    graph: &TannerGraph,
    hard: &[bool],
    syndrome_bit: &[bool],
    ok: &mut [bool],
    parity: &mut [bool],
    lanes: usize,
    width: usize,
) {
    let w = B::LANES;
    let main = width - width % w;
    let hardp = hard.as_ptr().cast::<u8>();
    let synp = syndrome_bit.as_ptr().cast::<u8>();
    let okp = ok.as_mut_ptr().cast::<u8>();
    let parp = parity.as_mut_ptr().cast::<u8>();
    let one = B::splat(1);
    for b in 0..width {
        *okp.add(b) = 1;
    }
    for c in 0..graph.num_checks() {
        for b in 0..width {
            *parp.add(b) = 0;
        }
        for &v in graph.check_vars(c) {
            let vb = v as usize * lanes;
            let mut b = 0;
            while b < main {
                let p = B::load(parp.add(b));
                let h = B::load(hardp.add(vb + b));
                p.xor(h).store(parp.add(b));
                b += w;
            }
            for b in main..width {
                *parp.add(b) ^= *hardp.add(vb + b);
            }
        }
        // o &= (p == s), as pure byte algebra: (p ^ s) ^ 1.
        let cb = c * lanes;
        let mut b = 0;
        while b < main {
            let p = B::load(parp.add(b));
            let s = B::load(synp.add(cb + b));
            let o = B::load(okp.add(b));
            o.and(p.xor(s).xor(one)).store(okp.add(b));
            b += w;
        }
        for b in main..width {
            *okp.add(b) &= (*parp.add(b) ^ *synp.add(cb + b)) ^ 1;
        }
    }
}
