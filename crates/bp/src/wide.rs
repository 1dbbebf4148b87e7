//! An interleaved tile's two hot per-iteration passes as lane-block
//! kernels, compiled once per instruction set behind runtime dispatch.
//!
//! This module writes the check-major sweep (V2C formed from the
//! per-lane running totals, the two-minimum/argmin check update, the
//! fold back into the totals) as one safe body over `[T; L]` lane
//! blocks with a const `L`, and the slab syndrome check as one over
//! blocks of one vector of bytes. Each
//! body is `#[inline(always)]` and is called from one safe
//! `#[target_feature]` function per [`SimdTarget`] — AVX-512 (`L` = 8 ×
//! `f64` / 16 × `f32`) and AVX2 (4 / 8) — so LLVM compiles it at that
//! vector width; other architectures decode every lane alone. The
//! dispatchers call those functions, in one `unsafe` block each, right
//! after checking that the CPU has the feature.
//!
//! Bit-identity with the one-lane sweep (`decoder.rs`'s
//! `sweep_checks`, the other formulation of the same check rule) comes
//! from the language, not from a choice of instructions: the body is
//! written with ordinary `<` selects, `abs`, unary `-` and
//! [`Llr::clamp_llr`] in a fixed operand order, Rust gives each its IEEE
//! meaning on every target (a NaN compares false, `-0.0` is not negative
//! — both reachable, see `batch_equivalence.rs`), and Rust never
//! contracts a multiply and an add into an FMA. Every lane therefore
//! executes the one-lane float stream.
//!
//! Codegen notes, both checked with `objdump -d` on the `sweep_*`
//! symbols (a scalar `vminss`/`vcmpltss` there means a lost vector):
//! each block is copied into a local array and stored back whole,
//! because LLVM cannot tell the slabs apart and will not vectorize
//! loads interleaved with stores to another slab; and the min-sum
//! reduction is one short `for k in 0..L` loop per statement, because
//! fused into one per-lane loop it stayed scalar at `f32` × 16.
//!
//! The sweep covers whole blocks only: a batch's lanes past its last
//! whole vector are decoded alone, through the one-lane sweep.

use crate::decoder::{BpAlgorithm, BpConfig};
use crate::graph::TannerGraph;
use crate::llr::Llr;
use qldpc_decoder_api::Precision;
use qldpc_simd::SimdTarget;

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
/// the sum-product rule always resolves scalar, which decodes every lane
/// alone (its tanh/ln/exp chain has no lane body).
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

/// The next-narrower dispatch target, used to step an *auto-detected*
/// target down when a tile holds fewer lanes than one vector (pinned
/// targets are never stepped down).
pub(crate) fn step_down(target: SimdTarget) -> SimdTarget {
    match target {
        SimdTarget::Avx512 => SimdTarget::Avx2,
        _ => SimdTarget::Scalar,
    }
}

/// Borrowed view of one check-major sweep's slabs. `width` is the
/// (padded) live prefix the lane blocks cover, a whole number of
/// vectors; every slab row holds `lanes` lanes.
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
    /// One check's V2C messages for one lane block: at least
    /// `max_check_degree × vector width` scalars.
    pub incoming: &'a mut [T],
    pub flooding: bool,
    pub alpha: T,
    pub lanes: usize,
    pub width: usize,
}

/// One check-major sweep (flooding or layered) on a wide target.
///
/// # Panics
///
/// Panics if `target` is scalar or unsupported by this CPU (the caller
/// decodes those lanes alone, through the one-lane sweep), if `width` is
/// not a whole number of vectors within `lanes`, or if a slab is too
/// short.
#[allow(unsafe_code)]
pub(crate) fn sweep_wide<T: Llr>(target: SimdTarget, args: SweepArgs<'_, T>) {
    assert!(
        args.width <= args.lanes && args.width.is_multiple_of(lane_width::<T>(target)),
        "sweep width {} is not whole {target} vectors within {} lanes",
        args.width,
        args.lanes
    );
    match target {
        #[cfg(target_arch = "x86_64")]
        SimdTarget::Avx512 if target.is_available() => {
            // SAFETY: the guard just checked the CPU has AVX-512.
            unsafe { sweep_avx512(args) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdTarget::Avx2 if target.is_available() => {
            // SAFETY: the guard just checked the CPU has AVX2.
            unsafe { sweep_avx2(args) }
        }
        _ => unreachable!("the wide sweep was dispatched to {target}"),
    }
}

/// The slab syndrome check: fills `ok[..width]` with per-lane
/// `H·ê == s` verdicts, in blocks of one `target` vector of bytes (16
/// on the scalar target, the baseline SSE2 width). Exact boolean
/// arithmetic, so every target computes the same verdicts.
#[allow(unsafe_code)]
pub(crate) fn lane_ok(
    target: SimdTarget,
    graph: &TannerGraph,
    hard: &[bool],
    syndrome_bit: &[bool],
    ok: &mut [bool],
    lanes: usize,
    width: usize,
) {
    let args = (graph, hard, syndrome_bit, ok, lanes, width);
    match target {
        #[cfg(target_arch = "x86_64")]
        SimdTarget::Avx512 if target.is_available() => {
            // SAFETY: the guard just checked the CPU has AVX-512.
            unsafe { lane_ok_avx512(args) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdTarget::Avx2 if target.is_available() => {
            // SAFETY: the guard just checked the CPU has AVX2.
            unsafe { lane_ok_avx2(args) }
        }
        _ => lane_ok_body::<16>(args),
    }
}

/// [`lane_ok`]'s arguments after the target.
type LaneOkArgs<'a> = (
    &'a TannerGraph,
    &'a [bool],
    &'a [bool],
    &'a mut [bool],
    usize,
    usize,
);

// ---------------------------------------------------------------------
// One #[target_feature] function per instruction set and body, so the
// `#[inline(always)]` bodies below compile at that width. Only reached
// through the dispatchers above.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn sweep_avx512<T: Llr>(args: SweepArgs<'_, T>) {
    match T::PRECISION {
        Precision::F64 => sweep_body::<T, { SimdTarget::Avx512.f64_lanes() }>(args),
        Precision::F32 => sweep_body::<T, { SimdTarget::Avx512.f32_lanes() }>(args),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_avx2<T: Llr>(args: SweepArgs<'_, T>) {
    match T::PRECISION {
        Precision::F64 => sweep_body::<T, { SimdTarget::Avx2.f64_lanes() }>(args),
        Precision::F32 => sweep_body::<T, { SimdTarget::Avx2.f32_lanes() }>(args),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn lane_ok_avx512(args: LaneOkArgs<'_>) {
    lane_ok_body::<64>(args);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lane_ok_avx2(args: LaneOkArgs<'_>) {
    lane_ok_body::<32>(args);
}

// ---------------------------------------------------------------------
// The bodies.
// ---------------------------------------------------------------------

/// The `L`-lane block of `slab` that starts at `at`.
#[inline(always)]
fn block<T, const L: usize>(slab: &[T], at: usize) -> &[T; L] {
    slab[at..at + L].try_into().expect("a slice of L lanes")
}

/// One check-major sweep over per-lane running totals in blocks of `L`
/// lanes: the lane-interleaved twin of the one-lane `sweep_checks`.
///
/// Per check and block, V2C (paper Eq. 5) is formed as
/// `clamp(total[v] − c2v[e])` into `incoming` (one block per edge), and
/// the min-sum reduction (paper Eq. 6) runs over it: the two smallest
/// magnitudes with the classic `if mag < min1 {…} else if mag < min2
/// {…}`, the first edge holding the minimum (`argmin`), and the sign
/// product; each edge then gets `clamp(sign · own_sign · α · mag)`.
/// The new C2V is written in place and folded back: flooding adds it
/// into `next_total` (started at the channel LLR), layered writes the
/// running posterior `clamp(m + c2v)` through at once. Checks ascending
/// and edges ascending within a check hand every variable its terms in
/// ascending edge id, the one-lane sweep's order.
#[inline(always)]
fn sweep_body<T: Llr, const L: usize>(args: SweepArgs<'_, T>) {
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
    if flooding {
        for (v, &llr) in channel.iter().enumerate() {
            next_total[v * lanes..v * lanes + width].fill(llr);
        }
    }
    for c in 0..graph.num_checks() {
        // The check's edges are contiguous, so its C2V rows are one
        // slice; walking them (and `incoming`) as chunks leaves one
        // bounds check per edge, on the variable's row.
        let vars = graph.check_vars(c);
        let edges = graph.check_edges(c);
        let c2v_rows = &mut c2v[edges.start * lanes..edges.end * lanes];
        let incoming = &mut incoming[..vars.len() * L];
        for b in (0..width).step_by(L) {
            let mut min1 = [T::INFINITY; L];
            let mut min2 = [T::INFINITY; L];
            let mut argmin = [u32::MAX; L];
            let mut sign = *block::<T, L>(syndrome_sign, c * lanes + b);
            let rows = vars.iter().zip(c2v_rows.chunks_exact(lanes));
            for (j, ((&v, old), slot)) in rows.zip(incoming.chunks_exact_mut(L)).enumerate() {
                let t = *block::<T, L>(total, v as usize * lanes + b);
                let old = *block::<T, L>(old, b);
                let mut m = [T::ZERO; L];
                for k in 0..L {
                    m[k] = (t[k] - old[k]).clamp_llr();
                }
                let mut mag = [T::ZERO; L];
                for k in 0..L {
                    mag[k] = m[k].abs();
                }
                for k in 0..L {
                    min2[k] = if mag[k] < min1[k] {
                        min1[k]
                    } else if mag[k] < min2[k] {
                        mag[k]
                    } else {
                        min2[k]
                    };
                }
                for k in 0..L {
                    argmin[k] = if mag[k] < min1[k] {
                        j as u32
                    } else {
                        argmin[k]
                    };
                }
                for k in 0..L {
                    min1[k] = if mag[k] < min1[k] { mag[k] } else { min1[k] };
                }
                for k in 0..L {
                    sign[k] = if m[k] < T::ZERO { -sign[k] } else { sign[k] };
                }
                slot.copy_from_slice(&m);
            }
            let rows = vars.iter().zip(c2v_rows.chunks_exact_mut(lanes));
            for (j, ((&v, c2v_row), m)) in rows.zip(incoming.chunks_exact(L)).enumerate() {
                let m = *block::<T, L>(m, 0);
                let mut out = [T::ZERO; L];
                for k in 0..L {
                    let mag = if j as u32 == argmin[k] {
                        min2[k]
                    } else {
                        min1[k]
                    };
                    let own_sign = if m[k] < T::ZERO { -T::ONE } else { T::ONE };
                    out[k] = (sign[k] * own_sign * alpha * mag).clamp_llr();
                }
                c2v_row[b..b + L].copy_from_slice(&out);
                let vb = v as usize * lanes + b;
                if flooding {
                    let mut next = *block::<T, L>(next_total, vb);
                    for k in 0..L {
                        next[k] += out[k];
                    }
                    next_total[vb..][..L].copy_from_slice(&next);
                } else {
                    let mut t = [T::ZERO; L];
                    for k in 0..L {
                        t[k] = (m[k] + out[k]).clamp_llr();
                    }
                    total[vb..][..L].copy_from_slice(&t);
                }
            }
        }
    }
}

/// The slab syndrome check in blocks of `B` lanes: per check and block,
/// the XOR parity of the check's variables' hard-decision rows, held in
/// registers and compared with the syndrome bits. The blocks cover
/// `width` rounded up to whole blocks within `lanes` — the extra lanes
/// are retired ones whose verdicts are never read. A tile that is not
/// a whole number of blocks leaves lanes past the last one; they run
/// the same steps over a shorter slice.
#[inline(always)]
fn lane_ok_body<const B: usize>((graph, hard, syndrome_bit, ok, lanes, width): LaneOkArgs<'_>) {
    let padded = lanes.min(width.next_multiple_of(B));
    let main = padded - padded % B;
    ok[..padded].fill(true);
    for c in 0..graph.num_checks() {
        let vars = graph.check_vars(c);
        let row = c * lanes;
        for b in (0..main).step_by(B) {
            // Bytes, not `bool`s: XOR of 0/1 bytes is one vector op,
            // where `bool` XOR became a compare and a masked move.
            let mut parity = [0u8; B];
            for &v in vars {
                let h = *block::<bool, B>(hard, v as usize * lanes + b);
                for k in 0..B {
                    parity[k] ^= u8::from(h[k]);
                }
            }
            let s = *block::<bool, B>(syndrome_bit, row + b);
            let mut o = *block::<bool, B>(ok, b);
            for k in 0..B {
                o[k] &= parity[k] == u8::from(s[k]);
            }
            ok[b..b + B].copy_from_slice(&o);
        }
        let n = width.saturating_sub(main);
        if n > 0 {
            let mut parity = [0u8; B];
            let parity = &mut parity[..n];
            for &v in vars {
                let h = &hard[v as usize * lanes + main..][..n];
                for (p, &h) in parity.iter_mut().zip(h) {
                    *p ^= u8::from(h);
                }
            }
            let s = &syndrome_bit[row + main..][..n];
            for ((o, &p), &s) in ok[main..width].iter_mut().zip(&*parity).zip(s) {
                *o &= p == u8::from(s);
            }
        }
    }
}
