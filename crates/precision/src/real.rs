//! The [`Real`] trait: the generic scalar abstraction all matrix-profile
//! kernels are written against.
//!
//! `mdmp-core` instantiates every kernel once per precision mode; the trait
//! keeps that code monomorphic (no dynamic dispatch on the hot path) while
//! letting a single implementation cover FP64, FP32 and every [`Flex`]
//! format (FP16, BF16, TF32, FP8) — mirroring how the paper's CUDA code is
//! templated over the data type.
//!
//! [`Flex`]: crate::Flex

use core::fmt::{Debug, Display};
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A floating point scalar usable in the matrix profile kernels.
///
/// Implementations exist for [`f64`], [`f32`] and every [`crate::Flex`]
/// geometry ([`crate::Half`], [`crate::Bf16`], [`crate::Tf32`], …). All
/// conversions in and out go through `f64`, which represents
/// every value of every supported format exactly.
pub trait Real:
    Copy
    + Clone
    + Default
    + Send
    + Sync
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + 'static
{
    /// Human-readable format name ("FP64", "FP16", …).
    const NAME: &'static str;
    /// Storage size per element in bytes — drives the simulated memory
    /// traffic, hence the bandwidth advantage of the reduced formats.
    const BYTES: usize;
    /// Unit roundoff ε (2⁻⁵², 2⁻²³, 2⁻¹⁰ for FP64/FP32/FP16 as quoted in
    /// §V-B of the paper).
    const EPSILON: f64;
    /// Largest finite value, as `f64`.
    const MAX_FINITE: f64;

    /// Round an `f64` to this format (round-to-nearest-even).
    fn from_f64(x: f64) -> Self;
    /// Widen to `f64` exactly.
    fn to_f64(self) -> f64;

    /// Additive identity.
    fn zero() -> Self {
        Self::from_f64(0.0)
    }
    /// Multiplicative identity.
    fn one() -> Self {
        Self::from_f64(1.0)
    }
    /// Positive infinity (used as the sort sentinel).
    fn infinity() -> Self;
    /// Negative infinity.
    fn neg_infinity() -> Self;

    /// Square root in this precision.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `self * a + b` with the rounding the target hardware's FMA provides.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Reciprocal `1/self` in this precision.
    fn recip(self) -> Self {
        Self::one() / self
    }

    /// `true` for NaN.
    fn is_nan(self) -> bool;
    /// `true` for finite values.
    fn is_finite(self) -> bool;

    /// IEEE `minNum` minimum (NaN loses).
    fn min(self, other: Self) -> Self;
    /// IEEE `maxNum` maximum (NaN loses).
    fn max(self, other: Self) -> Self;

    /// Total order for the sort network: −∞ < finite < +∞ < NaN.
    fn total_order(self, other: Self) -> core::cmp::Ordering;

    /// Integer image of [`Real::total_order`]: a monotone key such that
    /// `a.total_order(b) == a.sort_key().cmp(&b.sort_key())` for every pair
    /// of bit patterns (NaNs of any sign/payload collapse to the maximum
    /// key, matching `total_order`'s NaN handling). The sort network hoists
    /// keys once per fiber so each compare-exchange is a single integer
    /// comparison plus conditional moves.
    type SortKey: Copy + Ord + Send + Sync + Debug + 'static;

    /// Compute the integer sort key (see [`Real::SortKey`]).
    fn sort_key(self) -> Self::SortKey;

    /// `self` strictly after `other` in [`Real::total_order`] — the swap
    /// predicate of an ascending compare-exchange. Branchless via the
    /// integer key; tests pin it to `total_order(..) == Greater` exactly.
    #[inline]
    fn total_gt(self, other: Self) -> bool {
        self.sort_key() > other.sort_key()
    }

    /// `self` strictly before `other` in [`Real::total_order`] — the swap
    /// predicate of a descending compare-exchange.
    #[inline]
    fn total_lt(self, other: Self) -> bool {
        self.sort_key() < other.sort_key()
    }

    /// Convert a small non-negative integer (segment length, dimension
    /// index, …) into this format.
    fn from_usize(x: usize) -> Self {
        Self::from_f64(x as f64)
    }
}

/// Monotone integer key for the f32 total order with NaNs collapsed to the
/// maximum: `total_order(a, b) == key(a).cmp(&key(b))` for every pair of
/// bit patterns. Standard sign-magnitude-to-two's-complement flip, then all
/// NaNs (any sign, any payload) pinned to `i32::MAX`.
#[inline(always)]
fn sort_key_f32(v: f32) -> i32 {
    let bits = v.to_bits() as i32;
    let flipped = bits ^ (((bits >> 31) as u32) >> 1) as i32;
    if v.is_nan() {
        i32::MAX
    } else {
        flipped
    }
}

/// f64 counterpart of [`sort_key_f32`].
#[inline(always)]
fn sort_key_f64(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    let flipped = bits ^ (((bits >> 63) as u64) >> 1) as i64;
    if v.is_nan() {
        i64::MAX
    } else {
        flipped
    }
}

impl Real for f64 {
    const NAME: &'static str = "FP64";
    const BYTES: usize = 8;
    const EPSILON: f64 = 2.220446049250313e-16; // 2^-52
    const MAX_FINITE: f64 = f64::MAX;

    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn infinity() -> Self {
        f64::INFINITY
    }
    #[inline]
    fn neg_infinity() -> Self {
        f64::NEG_INFINITY
    }
    #[inline]
    fn sqrt(self) -> Self {
        self.sqrt()
    }
    #[inline]
    fn abs(self) -> Self {
        self.abs()
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self.mul_add(a, b)
    }
    #[inline]
    fn is_nan(self) -> bool {
        self.is_nan()
    }
    #[inline]
    fn is_finite(self) -> bool {
        self.is_finite()
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline]
    fn total_order(self, other: Self) -> core::cmp::Ordering {
        // Collapse -0/+0 and order NaN last regardless of sign, matching the
        // behaviour of the reduced formats' comparator.
        match (self.is_nan(), other.is_nan()) {
            (true, true) => core::cmp::Ordering::Equal,
            (true, false) => core::cmp::Ordering::Greater,
            (false, true) => core::cmp::Ordering::Less,
            (false, false) => self.total_cmp(&other),
        }
    }
    type SortKey = i64;
    #[inline(always)]
    fn sort_key(self) -> i64 {
        sort_key_f64(self)
    }
}

impl Real for f32 {
    const NAME: &'static str = "FP32";
    const BYTES: usize = 4;
    const EPSILON: f64 = 1.1920928955078125e-7; // 2^-23
    const MAX_FINITE: f64 = f32::MAX as f64;

    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn infinity() -> Self {
        f32::INFINITY
    }
    #[inline]
    fn neg_infinity() -> Self {
        f32::NEG_INFINITY
    }
    #[inline]
    fn sqrt(self) -> Self {
        self.sqrt()
    }
    #[inline]
    fn abs(self) -> Self {
        self.abs()
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self.mul_add(a, b)
    }
    #[inline]
    fn is_nan(self) -> bool {
        self.is_nan()
    }
    #[inline]
    fn is_finite(self) -> bool {
        self.is_finite()
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline]
    fn total_order(self, other: Self) -> core::cmp::Ordering {
        match (self.is_nan(), other.is_nan()) {
            (true, true) => core::cmp::Ordering::Equal,
            (true, false) => core::cmp::Ordering::Greater,
            (false, true) => core::cmp::Ordering::Less,
            (false, false) => self.total_cmp(&other),
        }
    }
    type SortKey = i32;
    #[inline(always)]
    fn sort_key(self) -> i32 {
        sort_key_f32(self)
    }
}

/// Convert a slice of `f64` into any [`Real`] format (one rounding per
/// element), as the host→device copy of a reduced-precision run does.
pub fn convert_slice<T: Real>(src: &[f64]) -> Vec<T> {
    src.iter().map(|&x| T::from_f64(x)).collect()
}

/// Widen a slice of any [`Real`] format back to `f64` exactly.
pub fn widen_slice<T: Real>(src: &[T]) -> Vec<f64> {
    src.iter().map(|&x| x.to_f64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bf16, Fp8E4M3, Fp8E5M2, Half, Tf32};

    fn check_contract<T: Real>() {
        assert_eq!(T::zero().to_f64(), 0.0);
        assert_eq!(T::one().to_f64(), 1.0);
        assert!(T::infinity().to_f64().is_infinite());
        assert!(T::neg_infinity().to_f64() < 0.0);
        assert!(T::from_f64(f64::NAN).is_nan());
        assert!(!T::infinity().is_finite());
        let two = T::from_f64(2.0);
        assert_eq!((T::one() + T::one()).to_f64(), 2.0);
        assert_eq!((two * two).to_f64(), 4.0);
        assert_eq!((two - T::one()).to_f64(), 1.0);
        assert_eq!((T::from_f64(6.0) / two).to_f64(), 3.0);
        assert_eq!((-two).to_f64(), -2.0);
        assert_eq!(T::from_f64(4.0).sqrt().to_f64(), 2.0);
        assert_eq!(T::from_f64(-3.0).abs().to_f64(), 3.0);
        assert_eq!(two.mul_add(two, T::one()).to_f64(), 5.0);
        assert_eq!(two.recip().to_f64(), 0.5);
        assert_eq!(T::one().min(two).to_f64(), 1.0);
        assert_eq!(T::one().max(two).to_f64(), 2.0);
        assert_eq!(T::from_usize(7).to_f64(), 7.0);
        // Rounding sanity: epsilon really is the distance from 1.0 upward.
        let next = T::from_f64(1.0 + T::EPSILON);
        assert!(next.to_f64() > 1.0);
        let below = T::from_f64(1.0 + T::EPSILON / 4.0);
        assert_eq!(
            below.to_f64(),
            1.0,
            "{}: eps/4 above 1.0 must round down",
            T::NAME
        );
        // Total order sends NaN last and infinities to the ends.
        use core::cmp::Ordering;
        assert_eq!(T::neg_infinity().total_order(T::zero()), Ordering::Less);
        assert_eq!(T::infinity().total_order(T::zero()), Ordering::Greater);
        assert_eq!(
            T::from_f64(f64::NAN).total_order(T::infinity()),
            Ordering::Greater
        );
    }

    /// The branchless predicates must agree with `total_order` for every
    /// pair, including NaN (any payload), ±0 and ±∞ — they feed the sort
    /// network, so any divergence breaks bit-identity.
    fn check_predicates<T: Real>(values: &[T]) {
        use core::cmp::Ordering;
        for &x in values {
            for &y in values {
                let ord = x.total_order(y);
                assert_eq!(
                    x.sort_key().cmp(&y.sort_key()),
                    ord,
                    "{}: sort_key order for ({x:?}, {y:?}) disagrees with total_order",
                    T::NAME
                );
                assert_eq!(
                    x.total_gt(y),
                    ord == Ordering::Greater,
                    "{}: total_gt({x:?}, {y:?}) disagrees with total_order",
                    T::NAME
                );
                assert_eq!(
                    x.total_lt(y),
                    ord == Ordering::Less,
                    "{}: total_lt({x:?}, {y:?}) disagrees with total_order",
                    T::NAME
                );
            }
        }
    }

    #[test]
    fn branchless_predicates_match_total_order_f32() {
        let mut values: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001), // signalling-NaN payload
            f32::from_bits(0xFFC0_1234), // negative NaN, nonzero payload
            f32::from_bits(0x0000_0001), // smallest subnormal
            f32::from_bits(0x8000_0001),
        ];
        // Deterministic pseudo-random bit patterns cover the rest.
        let mut state = 0x1234_5678_u32;
        for _ in 0..64 {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            values.push(f32::from_bits(state));
        }
        check_predicates(&values);
    }

    #[test]
    fn branchless_predicates_match_total_order_f64() {
        let mut values: Vec<f64> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFF8_0000_0000_1234),
            f64::from_bits(0x0000_0000_0000_0001),
            f64::from_bits(0x8000_0000_0000_0001),
        ];
        let mut state = 0x1234_5678_9ABC_DEF0_u64;
        for _ in 0..64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            values.push(f64::from_bits(state));
        }
        check_predicates(&values);
    }

    #[test]
    fn branchless_predicates_match_total_order_reduced() {
        let bits: Vec<u16> = (0..=u16::MAX).step_by(257).collect();
        let halves: Vec<Half> = bits.iter().map(|&b| Half::from_bits(b)).collect();
        check_predicates(&halves);
        let bf16s: Vec<Bf16> = bits.iter().map(|&b| Bf16::from_bits(b)).collect();
        check_predicates(&bf16s);
        let flexes: Vec<crate::Flex<5, 10>> = bits
            .iter()
            .map(|&b| crate::Flex::<5, 10>::from_bits(b as u32))
            .collect();
        check_predicates(&flexes);
        let samples = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            1e30,
            -1e30,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let tf32s: Vec<Tf32> = samples.iter().map(|&x| Tf32::from_f64(x)).collect();
        check_predicates(&tf32s);
    }

    #[test]
    fn trait_contract_f64() {
        check_contract::<f64>();
    }

    #[test]
    fn trait_contract_f32() {
        check_contract::<f32>();
    }

    #[test]
    fn trait_contract_half() {
        check_contract::<Half>();
    }

    #[test]
    fn trait_contract_bf16() {
        check_contract::<Bf16>();
    }

    #[test]
    fn trait_contract_tf32() {
        check_contract::<Tf32>();
    }

    #[test]
    fn bytes_and_epsilon_constants() {
        assert_eq!(<f64 as Real>::BYTES, 8);
        assert_eq!(<f32 as Real>::BYTES, 4);
        assert_eq!(<Half as Real>::BYTES, 2);
        assert_eq!(<Bf16 as Real>::BYTES, 2);
        assert_eq!(<Tf32 as Real>::BYTES, 4);
        assert_eq!(<f64 as Real>::EPSILON, 2f64.powi(-52));
        assert_eq!(<f32 as Real>::EPSILON, 2f64.powi(-23));
        assert_eq!(<Half as Real>::EPSILON, 2f64.powi(-10));
        assert_eq!(<Bf16 as Real>::EPSILON, 2f64.powi(-7));
        assert_eq!(<Tf32 as Real>::EPSILON, 2f64.powi(-10));
    }

    /// `BYTES` drives the modelled memory traffic, so it must be the real
    /// in-memory footprint of the type.
    #[test]
    fn storage_width_matches_bytes() {
        fn check<T: Real>() {
            assert_eq!(core::mem::size_of::<T>(), T::BYTES, "{}", T::NAME);
        }
        check::<f64>();
        check::<f32>();
        check::<Half>();
        check::<Bf16>();
        check::<Tf32>();
        check::<Fp8E4M3>();
        check::<Fp8E5M2>();
    }

    #[test]
    fn convert_and_widen_slices() {
        let src = vec![0.0, 1.0, -2.5, 1.0 / 3.0];
        let halves: Vec<Half> = convert_slice(&src);
        let back = widen_slice(&halves);
        assert_eq!(back[0], 0.0);
        assert_eq!(back[1], 1.0);
        assert_eq!(back[2], -2.5);
        assert!((back[3] - 1.0 / 3.0).abs() < 1e-3);
    }
}
