//! The sealed scalar trait behind the precision-generic BP core.
//!
//! Every floating-point operation of the decoder
//! ([`MinSumDecoderOf`](crate::MinSumDecoderOf): its one-lane sweep, the
//! interleaved lane body and the sum-product rule) is written against
//! [`Llr`], implemented for `f64` (the reference arithmetic) and `f32`
//! (half the slab width, twice the SIMD lanes). The trait is **sealed**:
//! the bit-identity contract across tile widths is pinned per precision
//! by the property suites, and a foreign scalar type could not make that
//! promise.
//!
//! Config-level quantities ([`BpConfig`](crate::BpConfig) fields, priors,
//! the damping factor) stay `f64`; they are converted once per use with
//! [`Llr::from_f64`], so the `f64` instantiation performs exactly the
//! operations the pre-generic code did — the f64 goldens are unchanged.
//!
//! Nothing here is per instruction set: the lane-block sweep (`crates/bp/src/wide.rs`) is plain Rust over `[T; L]` arrays of
//! this scalar — the trait's operators, `abs` and [`Llr::clamp_llr`] —
//! compiled once per SIMD target.

use qldpc_decoder_api::Precision;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// A log-likelihood-ratio scalar: the message element type of the BP
/// decoders.
///
/// Implemented for `f64` and `f32` only (sealed). All constants are
/// per-precision so each instantiation is self-consistent; the numeric
/// guards (`TANH_FLOOR`, `ATANH_CEIL`) differ because the two formats
/// underflow and round at different magnitudes.
pub trait Llr:
    sealed::Sealed
    + Copy
    + Debug
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
{
    /// The runtime tag for this scalar width.
    const PRECISION: Precision;
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity (also the unit sign value).
    const ONE: Self;
    /// The constant `2`, used by the tanh rule (`tanh(|m|/2)`,
    /// `2·atanh`).
    const TWO: Self;
    /// Positive infinity, the min-sum reduction identity.
    const INFINITY: Self;
    /// Magnitude clamp for messages and posteriors, guarding against
    /// overflow on long runs (min-sum magnitudes can grow without
    /// bound). Applied exclusively through [`Llr::clamp_llr`].
    const CLAMP: Self;
    /// Threshold below which a `tanh(|m|/2)` factor is treated as an
    /// exact zero in the sum-product rule (so the exclusive product
    /// stays well defined). Chosen well above each format's underflow.
    const TANH_FLOOR: Self;
    /// Largest product magnitude fed to `atanh` by the sum-product
    /// rule — the closest value below `1` at which `atanh` is still
    /// comfortably finite in this format.
    const ATANH_CEIL: Self;

    /// Rounds a config-level `f64` quantity (prior LLR, damping factor,
    /// memory strength) into this precision. The identity for `f64`.
    fn from_f64(x: f64) -> Self;
    /// Widens to `f64` (exact for both implementations) for reporting.
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// IEEE minimum of two values.
    fn min(self, other: Self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// Inverse hyperbolic tangent.
    fn atanh(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// The raw bit pattern, zero-extended to 64 bits — what the
    /// equivalence suites and golden fingerprints compare, so "equal"
    /// means *the same float*, not merely within epsilon.
    fn to_bits_u64(self) -> u64;
    /// The one LLR clamping helper: `clamp(-CLAMP, CLAMP)`. The one-lane
    /// sweep, the lane body and the sum-product rule clamp exclusively
    /// through this method, so the clamping rule cannot drift between them.
    fn clamp_llr(self) -> Self;
}

impl Llr for f64 {
    const PRECISION: Precision = Precision::F64;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const TWO: Self = 2.0;
    const INFINITY: Self = f64::INFINITY;
    const CLAMP: Self = 1e6;
    const TANH_FLOOR: Self = 1e-300;
    const ATANH_CEIL: Self = 1.0 - 1e-15;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        self.abs()
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline(always)]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    #[inline(always)]
    fn atanh(self) -> Self {
        f64::atanh(self)
    }
    #[inline(always)]
    fn ln(self) -> Self {
        f64::ln(self)
    }
    #[inline(always)]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline(always)]
    fn to_bits_u64(self) -> u64 {
        self.to_bits()
    }
    #[inline(always)]
    fn clamp_llr(self) -> Self {
        self.clamp(-Self::CLAMP, Self::CLAMP)
    }
}

impl Llr for f32 {
    const PRECISION: Precision = Precision::F32;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const TWO: Self = 2.0;
    const INFINITY: Self = f32::INFINITY;
    const CLAMP: Self = 1e6;
    // f32 subnormals start near 1e-38; 1e-30 leaves the same safety
    // margin over underflow that 1e-300 leaves in f64.
    const TANH_FLOOR: Self = 1e-30;
    // One f32 ULP below 1.0 is ~6e-8; back off to 1e-6 so
    // `atanh(ATANH_CEIL)` (≈ 7.3) stays far from the clamp.
    const ATANH_CEIL: Self = 1.0 - 1e-6;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        self.abs()
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline(always)]
    fn tanh(self) -> Self {
        f32::tanh(self)
    }
    #[inline(always)]
    fn atanh(self) -> Self {
        f32::atanh(self)
    }
    #[inline(always)]
    fn ln(self) -> Self {
        f32::ln(self)
    }
    #[inline(always)]
    fn exp(self) -> Self {
        f32::exp(self)
    }
    #[inline(always)]
    fn to_bits_u64(self) -> u64 {
        u64::from(self.to_bits())
    }
    #[inline(always)]
    fn clamp_llr(self) -> Self {
        self.clamp(-Self::CLAMP, Self::CLAMP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<T: Llr>() {
        assert_eq!(T::ZERO + T::ONE, T::ONE);
        assert_eq!((-T::ONE).abs(), T::ONE);
        assert!(T::ONE < T::INFINITY);
        assert_eq!(T::from_f64(2.0), T::TWO);
        assert_eq!(T::TWO.to_f64(), 2.0);
        // The clamp helper pins both tails and passes the interior.
        assert_eq!(T::from_f64(1e9).clamp_llr(), T::CLAMP);
        assert_eq!(T::from_f64(-1e9).clamp_llr(), -T::CLAMP);
        assert_eq!(T::ONE.clamp_llr(), T::ONE);
        // The sum-product guards are strictly inside the finite range.
        assert!(T::TANH_FLOOR > T::ZERO);
        assert!(T::ATANH_CEIL < T::ONE);
        let atanh_ceil = T::ATANH_CEIL.atanh();
        assert!(atanh_ceil > T::ZERO && atanh_ceil < T::CLAMP);
        // Bit patterns are exact identities.
        assert_eq!(T::ONE.to_bits_u64(), T::ONE.to_bits_u64());
        assert_ne!(T::ONE.to_bits_u64(), T::TWO.to_bits_u64());
    }

    #[test]
    fn both_precisions_satisfy_the_contract() {
        exercise::<f64>();
        exercise::<f32>();
    }

    #[test]
    fn f64_constants_match_the_pre_generic_decoder() {
        // The pre-generic kernel clamped at 1e6, floored tanh factors at
        // 1e-300 and capped atanh inputs at 1 − 1e-15; the f64 goldens
        // pin the exact float stream, so these must never move.
        assert_eq!(<f64 as Llr>::CLAMP, 1e6);
        assert_eq!(<f64 as Llr>::TANH_FLOOR, 1e-300);
        assert_eq!(<f64 as Llr>::ATANH_CEIL, 1.0 - 1e-15);
    }

    #[test]
    fn f32_round_trips_through_f64_config_values() {
        let x = <f32 as Llr>::from_f64(0.123456789);
        assert_eq!(x, 0.123456789f64 as f32);
        assert_eq!(x.to_f64(), f64::from(0.123456789f64 as f32));
    }
}
