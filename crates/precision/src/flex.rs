//! Parametric ("FlexFloat-style") reduced-precision floats — the one
//! reduced-precision float type of this crate.
//!
//! The paper's related work (§II) cites Fernandez's matrix-profile study
//! with FlexFloat [18], a software library for transprecision computing
//! with arbitrary exponent/mantissa widths. [`Flex<E, M>`] provides the
//! same capability natively: an IEEE-754-style binary float with `E`
//! exponent bits and `M` explicit mantissa bits (plus sign), with
//! round-to-nearest-even conversions, subnormals, infinities and NaN.
//!
//! Every format the precision modes use is an alias of it:
//!
//! | alias       | `E` | `M` | storage |
//! |-------------|-----|-----|---------|
//! | [`Half`]    | 5   | 10  | 2 bytes |
//! | [`Bf16`]    | 8   | 7   | 2 bytes |
//! | [`Tf32`]    | 8   | 10  | 4 bytes |
//! | [`Fp8E4M3`] | 4   | 3   | 1 byte  |
//! | [`Fp8E5M2`] | 5   | 2   | 1 byte  |
//!
//! The FP8 aliases are IEEE-style variants: unlike the OCP FP8 spec, E4M3
//! here keeps its all-ones exponent reserved for Inf/NaN.
//!
//! # Arithmetic contract
//!
//! Every operation widens its operands to `f64` exactly, operates there,
//! and rounds the `f64` result back once with round-to-nearest-even.
//! Because `f64` carries 53 ≥ 2p + 2 bits for every supported precision
//! p = M + 1 ≤ 24, that second rounding is innocuous for `+ − × ÷` and
//! `sqrt` (Figueroa, 1995): each is correctly rounded — the contract of
//! CUDA's `__hadd`/`__hmul`. `mul_add` rounds the `f64` fused result, so it
//! can differ from a single rounding of the exact value when that value
//! lies within 2⁻⁵³ (relative) of a rounding midpoint.
//!
//! ```
//! use mdmp_precision::{Flex, Half, Real};
//!
//! // Half is Flex<5, 10> in 16-bit storage.
//! let x = 1.0 / 3.0;
//! assert_eq!(Flex::<5, 10>::from_f64(x).to_f64(), Half::from_f64(x).to_f64());
//! assert_eq!(core::mem::size_of::<Half>(), 2);
//! ```

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

mod sealed {
    pub trait Sealed {}
}

/// The storage word of a [`Flex`] value: `u8`, `u16` or `u32`. Sealed; the
/// aliases pick the narrowest word that holds their `1 + E + M` bits.
pub trait FlexBits: sealed::Sealed + Copy + Default + Send + Sync + 'static {
    #[doc(hidden)]
    fn widen(self) -> u32;
    #[doc(hidden)]
    fn narrow(bits: u32) -> Self;
}

/// An IEEE-754-style float with `E` exponent bits and `M` explicit mantissa
/// bits, stored in the low `1 + E + M` bits of an `S` word.
///
/// Constraints (asserted at construction): `1 ≤ E ≤ 8`, `1 ≤ M ≤ 23` and
/// `1 + E + M` fits in `S`, so every value widens exactly to `f64`.
#[derive(Clone, Copy, Default)]
#[repr(transparent)]
pub struct Flex<const E: u32, const M: u32, S: FlexBits = u32>(S);

/// IEEE 754 binary16 ("half precision"). The 2-byte storage gives the
/// paper's FP16 modes their bandwidth advantage.
pub type Half = Flex<5, 10, u16>;
/// bfloat16: the 8-bit exponent of binary32 with 7 explicit mantissa bits.
/// Named by the paper (§VII) as a future extension.
pub type Bf16 = Flex<8, 7, u16>;
/// TensorFloat-32: the 8-bit exponent of binary32 with 10 explicit mantissa
/// bits, occupying a full 32-bit word as on Ampere tensor cores. Named by
/// the paper (§VII) as a future extension.
pub type Tf32 = Flex<8, 10, u32>;
/// IEEE-style FP8 with 4 exponent and 3 mantissa bits.
pub type Fp8E4M3 = Flex<4, 3, u8>;
/// IEEE-style FP8 with 5 exponent and 2 mantissa bits.
pub type Fp8E5M2 = Flex<5, 2, u8>;

impl<const E: u32, const M: u32, S: FlexBits> Flex<E, M, S> {
    const _VALID: () = assert!(
        E >= 1 && E <= 8 && M >= 1 && M <= 23 && 1 + E + M <= 8 * core::mem::size_of::<S>() as u32
    );

    /// Exponent bias `2^(E−1) − 1`.
    pub const BIAS: i32 = (1 << (E - 1)) - 1;
    /// Largest unbiased exponent of a normal value.
    pub const EMAX: i32 = Self::BIAS;
    /// Smallest unbiased exponent of a normal value, `1 − bias`.
    pub const EMIN: i32 = 1 - Self::BIAS;
    /// Total storage bits.
    pub const BITS: u32 = 1 + E + M;

    const SIGN_MASK: u32 = 1 << (E + M);
    const EXP_MASK: u32 = ((1 << E) - 1) << M;
    const FRAC_MASK: u32 = (1 << M) - 1;
    const NAN_BITS: u32 = Self::EXP_MASK | (1 << (M - 1));

    #[inline(always)]
    fn bits(self) -> u32 {
        self.0.widen()
    }

    #[inline(always)]
    fn raw(bits: u32) -> Self {
        Flex(S::narrow(bits))
    }

    /// Round an `f64` to this format, round-to-nearest-even.
    pub fn from_f64(x: f64) -> Self {
        // Force the geometry check (associated consts are lazy).
        #[allow(clippy::let_unit_value)]
        let _ = Self::_VALID;
        let bits = x.to_bits();
        let sign = ((bits >> 63) as u32) << (E + M);
        let abs = bits & !(1 << 63);
        // f64 bit patterns of 2^EMIN and 2^(EMAX+1): the normal range.
        let lo = ((1023 + Self::EMIN) as u64) << 52;
        let hi = ((1024 + Self::EMAX) as u64) << 52;
        if abs.wrapping_sub(lo) < hi - lo {
            // Normal: rebias the exponent, then round to nearest even on the
            // 52 − M dropped bits by integer addition. A mantissa carry
            // bumps the exponent; out of the top binade it lands exactly on
            // the infinity encoding.
            let drop = 52 - M;
            let t = abs - (((1023 - Self::BIAS) as u64) << 52);
            let round = (1u64 << (drop - 1)) - 1 + ((t >> drop) & 1);
            return Self::raw(sign | ((t + round) >> drop) as u32);
        }
        if abs >= hi {
            // NaN becomes the quiet NaN of its sign; ±∞ and overflow give ±∞.
            let nan = abs > 0x7FF0_0000_0000_0000;
            return Self::raw(sign | if nan { Self::NAN_BITS } else { Self::EXP_MASK });
        }
        // Subnormal or underflow: round to a multiple of the quantum
        // 2^(EMIN − M). f64 subnormals shift out entirely (shift ≥ 64).
        let e = (abs >> 52) as i32 - 1023;
        let shift = 52 + Self::EMIN - M as i32 - e;
        if shift >= 64 {
            return Self::raw(sign);
        }
        let shift = shift as u32;
        let sig = (1 << 52) | (abs & ((1 << 52) - 1));
        let round = (1u64 << (shift - 1)) - 1 + ((sig >> shift) & 1);
        // A carry into the smallest normal is a valid encoding.
        Self::raw(sign | ((sig + round) >> shift) as u32)
    }

    /// Round an `f32` to this format (the widening to `f64` is exact).
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        Self::from_f64(x as f64)
    }

    /// Widen to `f64` exactly, by assembling the `f64` bit pattern. A NaN
    /// keeps its sign and payload and comes back quiet.
    #[inline]
    pub fn to_f64(self) -> f64 {
        let b = self.bits() as u64;
        let sign = (b >> (E + M)) << 63;
        let exp = (b >> M) & ((1 << E) - 1);
        let frac = b & ((1 << M) - 1);
        let magnitude = if exp == (1 << E) - 1 {
            let quiet = if frac != 0 { 1 << 51 } else { 0 };
            0x7FF0_0000_0000_0000 | quiet | (frac << (52 - M))
        } else if exp == 0 {
            // Zero or subnormal: frac · 2^(EMIN − M), exact in f64.
            let quantum = f64::from_bits(((1023 + Self::EMIN - M as i32) as u64) << 52);
            (frac as f64 * quantum).to_bits()
        } else {
            ((exp + 1023 - Self::BIAS as u64) << 52) | (frac << (52 - M))
        };
        f64::from_bits(sign | magnitude)
    }

    /// Widen to `f32` (exact — every supported geometry fits in `f32`).
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }

    /// `true` for NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.bits() & Self::EXP_MASK) == Self::EXP_MASK && (self.bits() & Self::FRAC_MASK) != 0
    }

    /// `true` for ±∞.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.bits() & !Self::SIGN_MASK) == Self::EXP_MASK
    }

    /// `true` for finite values.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.bits() & Self::EXP_MASK) != Self::EXP_MASK
    }

    /// `true` for subnormal values (nonzero, exponent field zero).
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.bits() & Self::EXP_MASK) == 0 && (self.bits() & Self::FRAC_MASK) != 0
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> Self {
        Self::raw(self.bits() & !Self::SIGN_MASK)
    }

    /// Square root (rounded through the exact f64 widening).
    #[inline]
    pub fn sqrt(self) -> Self {
        Self::from_f64(self.to_f64().sqrt())
    }

    /// Fused multiply-add `self * a + b` with a single final rounding — the
    /// behaviour of the GPU `HFMA` instruction.
    #[inline]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        Self::from_f64(self.to_f64().mul_add(a.to_f64(), b.to_f64()))
    }

    /// IEEE `minNum`-style minimum: returns the other operand if one is NaN.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self.is_nan() {
            other
        } else if other.is_nan() || self.to_f64() <= other.to_f64() {
            self
        } else {
            other
        }
    }

    /// IEEE `maxNum`-style maximum: returns the other operand if one is NaN.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if self.is_nan() {
            other
        } else if other.is_nan() || self.to_f64() >= other.to_f64() {
            self
        } else {
            other
        }
    }

    /// Total order for sorting: −∞ < finite < +∞ < NaN, with −0 < +0.
    ///
    /// This is the comparator the simulated Bitonic sort network uses, so
    /// NaNs produced by reduced-precision overflow sink to the end of the
    /// ascending order, exactly like sorting with a `+∞` sentinel on a GPU.
    #[inline]
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        self.total_key().cmp(&other.total_key())
    }

    /// The monotone integer key behind [`Flex::total_cmp`]: all NaNs map to
    /// `i32::MAX`, negatives below every non-negative (−0 maps to −1 < +0).
    #[inline]
    pub fn total_key(self) -> i32 {
        if self.is_nan() {
            return i32::MAX;
        }
        let magnitude = (self.bits() & !Self::SIGN_MASK) as i32;
        if self.bits() & Self::SIGN_MASK != 0 {
            -magnitude - 1
        } else {
            magnitude
        }
    }
}

/// Implements the storage words, plus what needs the concrete word type:
/// the constants (const contexts cannot call [`FlexBits::narrow`]) and the
/// raw-bits accessors.
macro_rules! flex_storage {
    ($($s:ty),*) => {$(
        impl sealed::Sealed for $s {}

        impl FlexBits for $s {
            #[inline(always)]
            fn widen(self) -> u32 {
                self as u32
            }
            #[inline(always)]
            fn narrow(bits: u32) -> Self {
                bits as $s
            }
        }

        impl<const E: u32, const M: u32> Flex<E, M, $s> {
            /// Positive zero.
            pub const ZERO: Self = Flex(0);
            /// One.
            pub const ONE: Self = Flex(((Self::BIAS as u32) << M) as $s);
            /// Negative one.
            pub const NEG_ONE: Self = Flex((Self::SIGN_MASK | Self::ONE.0 as u32) as $s);
            /// Positive infinity.
            pub const INFINITY: Self = Flex(Self::EXP_MASK as $s);
            /// Negative infinity.
            pub const NEG_INFINITY: Self = Flex((Self::SIGN_MASK | Self::EXP_MASK) as $s);
            /// A quiet NaN.
            pub const NAN: Self = Flex(Self::NAN_BITS as $s);
            /// Largest finite value.
            pub const MAX: Self = Flex((Self::EXP_MASK - 1) as $s);
            /// Most negative finite value.
            pub const MIN: Self = Flex((Self::SIGN_MASK | (Self::EXP_MASK - 1)) as $s);
            /// Smallest positive subnormal value, `2^(EMIN − M)`.
            pub const MIN_POSITIVE_SUBNORMAL: Self = Flex(1);

            /// Construct from raw bits (low `1+E+M` bits used).
            #[inline]
            pub const fn from_bits(bits: $s) -> Self {
                Flex(bits & (Self::SIGN_MASK | Self::EXP_MASK | Self::FRAC_MASK) as $s)
            }

            /// The raw bits.
            #[inline]
            pub const fn to_bits(self) -> $s {
                self.0
            }
        }
    )*};
}

flex_storage!(u8, u16, u32);

macro_rules! flex_binop {
    ($trait:ident, $method:ident, $op:tt, $assign_trait:ident, $assign_method:ident) => {
        impl<const E: u32, const M: u32, S: FlexBits> $trait for Flex<E, M, S> {
            type Output = Self;
            #[inline]
            fn $method(self, rhs: Self) -> Self {
                Self::from_f64(self.to_f64() $op rhs.to_f64())
            }
        }
        impl<const E: u32, const M: u32, S: FlexBits> $assign_trait for Flex<E, M, S> {
            #[inline]
            fn $assign_method(&mut self, rhs: Self) {
                *self = *self $op rhs;
            }
        }
    };
}

flex_binop!(Add, add, +, AddAssign, add_assign);
flex_binop!(Sub, sub, -, SubAssign, sub_assign);
flex_binop!(Mul, mul, *, MulAssign, mul_assign);
flex_binop!(Div, div, /, DivAssign, div_assign);

impl<const E: u32, const M: u32, S: FlexBits> Neg for Flex<E, M, S> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::raw(self.bits() ^ Self::SIGN_MASK)
    }
}

impl<const E: u32, const M: u32, S: FlexBits> PartialEq for Flex<E, M, S> {
    /// IEEE equality: NaN equals nothing, −0 equals +0, otherwise the bits.
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        if self.is_nan() || other.is_nan() {
            return false;
        }
        self.bits() == other.bits() || ((self.bits() | other.bits()) & !Self::SIGN_MASK) == 0
    }
}

impl<const E: u32, const M: u32, S: FlexBits> PartialOrd for Flex<E, M, S> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f64().partial_cmp(&other.to_f64())
    }
}

impl<const E: u32, const M: u32, S: FlexBits> fmt::Debug for Flex<E, M, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let suffix = match (E, M) {
            (5, 10) => "f16",
            (8, 7) => "bf16",
            (8, 10) => "tf32",
            _ => return write!(f, "{}flex<{E},{M}>", self.to_f64()),
        };
        write!(f, "{}{suffix}", self.to_f64())
    }
}

impl<const E: u32, const M: u32, S: FlexBits> fmt::Display for Flex<E, M, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

impl<const E: u32, const M: u32, S: FlexBits> crate::Real for Flex<E, M, S> {
    /// The [`crate::Format`] display name of the geometry, or `"FLEX"`.
    const NAME: &'static str = match (E, M) {
        (5, 10) => "FP16",
        (8, 7) => "BF16",
        (8, 10) => "TF32",
        (4, 3) => "FP8-E4M3",
        (5, 2) => "FP8-E5M2",
        _ => "FLEX",
    };
    const BYTES: usize = core::mem::size_of::<S>();
    const EPSILON: f64 = 1.0 / (1u64 << M) as f64;
    const MAX_FINITE: f64 =
        (2.0 - 1.0 / (1u64 << M) as f64) * (1u128 << ((1 << (E - 1)) - 1)) as f64;

    #[inline]
    fn from_f64(x: f64) -> Self {
        Flex::from_f64(x)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        Flex::to_f64(self)
    }
    #[inline]
    fn infinity() -> Self {
        Self::raw(Self::EXP_MASK)
    }
    #[inline]
    fn neg_infinity() -> Self {
        Self::raw(Self::SIGN_MASK | Self::EXP_MASK)
    }
    #[inline]
    fn sqrt(self) -> Self {
        Flex::sqrt(self)
    }
    #[inline]
    fn abs(self) -> Self {
        Flex::abs(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        Flex::mul_add(self, a, b)
    }
    #[inline]
    fn is_nan(self) -> bool {
        Flex::is_nan(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        Flex::is_finite(self)
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        Flex::min(self, other)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        Flex::max(self, other)
    }
    #[inline]
    fn total_order(self, other: Self) -> Ordering {
        self.total_cmp(&other)
    }
    type SortKey = i32;
    #[inline(always)]
    fn sort_key(self) -> i32 {
        self.total_key()
    }
}

#[cfg(test)]
mod tests;
