//! Independent reference implementations of binary16, bfloat16 and TF32,
//! written as dedicated per-format bit manipulations, and the identity
//! proofs that pin the generic [`Half`], [`Bf16`] and [`Tf32`] aliases of
//! [`crate::Flex`] to them.
//!
//! The bfloat16 and TF32 oracles round `f64 → f32 → format`, which double
//! rounds for `f64` inputs that are not `f32`-exact; the proofs therefore
//! compare those formats on `f32`-exact values only. `Flex` rounds `f64`
//! once (see the `*_rounds_f64_once_not_through_f32` tests).

use crate::{Bf16, Half, Tf32};

/// Round a finite or non-finite `f64` to binary16 bits, round-to-nearest-even.
fn f64_to_f16_bits(x: f64) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 48) & 0x8000) as u16;
    let exp = ((bits >> 52) & 0x7FF) as i32;
    let frac = bits & 0x000F_FFFF_FFFF_FFFF;

    if exp == 0x7FF {
        // NaN propagates as a quiet NaN; infinity keeps its sign.
        return if frac != 0 {
            sign | 0x7E00
        } else {
            sign | 0x7C00
        };
    }
    let e = exp - 1023;
    if exp == 0 {
        // f64 subnormals are < 2^-1022, far below the smallest f16 subnormal.
        return sign;
    }
    if e > 15 {
        return sign | 0x7C00; // magnitude >= 2^16 > 65504+ulp/2: overflow to infinity
    }
    if e >= -14 {
        // Normal binary16 candidate: keep 10 fraction bits, RNE on the low 42.
        let mut m = (frac >> 42) as u16;
        let rest = frac & ((1u64 << 42) - 1);
        let halfway = 1u64 << 41;
        let mut e16 = (e + 15) as u16;
        if rest > halfway || (rest == halfway && (m & 1) == 1) {
            m += 1;
            if m == 0x400 {
                m = 0;
                e16 += 1;
                if e16 >= 31 {
                    return sign | 0x7C00;
                }
            }
        }
        return sign | (e16 << 10) | m;
    }
    // Subnormal binary16 (or underflow to zero). The target quantum is 2^-24.
    let sig = (1u64 << 52) | frac;
    let shift = 28 - e; // e <= -15 => shift >= 43
    if shift >= 64 {
        return sign;
    }
    let shift = shift as u32;
    let mut m = (sig >> shift) as u16;
    let rest = sig & ((1u64 << shift) - 1);
    let halfway = 1u64 << (shift - 1);
    if rest > halfway || (rest == halfway && (m & 1) == 1) {
        m += 1; // may carry into the smallest normal (0x0400) — a valid encoding
    }
    sign | m
}

/// Widen binary16 bits to `f64` exactly.
fn f16_bits_to_f64(h: u16) -> f64 {
    let sign = ((h >> 15) & 1) as u64;
    let exp = ((h >> 10) & 0x1F) as u64;
    let frac = (h & 0x03FF) as u64;
    if exp == 0x1F {
        let bits = if frac != 0 {
            (sign << 63) | 0x7FF8_0000_0000_0000 | (frac << 42)
        } else {
            (sign << 63) | 0x7FF0_0000_0000_0000
        };
        return f64::from_bits(bits);
    }
    if exp == 0 {
        let magnitude = (frac as f64) * 2f64.powi(-24);
        return if sign == 1 { -magnitude } else { magnitude };
    }
    let e = exp as i64 - 15 + 1023;
    f64::from_bits((sign << 63) | ((e as u64) << 52) | (frac << 42))
}

/// bfloat16 is the upper half of a binary32: RNE-truncate the low 16 bits.
fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    // The add can carry through the exponent, turning overflow into infinity.
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1));
    (rounded >> 16) as u16
}

/// Widen bfloat16 bits to `f64` exactly (zero-extend to binary32).
fn bf16_bits_to_f64(b: u16) -> f64 {
    f32::from_bits((b as u32) << 16) as f64
}

/// Quantize an `f32` to a 10-bit explicit significand, RNE on the low 13
/// bits; the carry may ripple into the exponent (next binade or infinity).
fn tf32_quantize(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    let rounded = bits.wrapping_add(0x0FFF + ((bits >> 13) & 1)) & !0x1FFF;
    f32::from_bits(rounded)
}

/// A `Tf32` pattern is the top 19 bits of its binary32 image.
fn tf32_bits_to_f64(t: u32) -> f64 {
    f32::from_bits(t << 13) as f64
}

fn f32_to_tf32_bits(x: f32) -> u32 {
    tf32_quantize(x).to_bits() >> 13
}

/// Push the rounding-sensitive inputs around a finite pattern value `v`:
/// `v` and its midpoint with the next pattern `next`, each with its two
/// `f64` neighbours and its negation.
fn probes(v: f64, next: f64, out: &mut Vec<f64>) {
    if !v.is_finite() || !next.is_finite() {
        return;
    }
    let mid = v + (next - v) / 2.0;
    for x in [v, mid] {
        out.push(x);
        out.push(f64::from_bits(x.to_bits() + 1));
        if x != 0.0 {
            out.push(f64::from_bits(x.to_bits() - 1));
        }
        out.push(-x);
    }
}

#[test]
fn half_widens_bit_identically_on_all_patterns() {
    for bits in 0u16..=0xFFFF {
        assert_eq!(
            Half::from_bits(bits).to_f64().to_bits(),
            f16_bits_to_f64(bits).to_bits(),
            "bits {bits:#06x}"
        );
    }
}

#[test]
fn bf16_widens_bit_identically_on_all_patterns() {
    for bits in 0u16..=0xFFFF {
        assert_eq!(
            Bf16::from_bits(bits).to_f64().to_bits(),
            bf16_bits_to_f64(bits).to_bits(),
            "bits {bits:#06x}"
        );
    }
}

#[test]
fn tf32_widens_bit_identically_on_all_patterns() {
    for bits in 0u32..1 << 19 {
        assert_eq!(
            Tf32::from_bits(bits).to_f64().to_bits(),
            tf32_bits_to_f64(bits).to_bits(),
            "bits {bits:#07x}"
        );
    }
}

#[test]
fn half_from_f64_matches_oracle_on_dense_sweep() {
    let mut xs = vec![
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001),
        f64::from_bits(0xFFF4_0000_0000_0000),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 4.0,
        2f64.powi(-300),
    ];
    // Every pattern, its rounding midpoint with the next, and one f64 ulp
    // either side of both.
    for bits in 0u16..0x7C00 {
        probes(f16_bits_to_f64(bits), f16_bits_to_f64(bits + 1), &mut xs);
    }
    // Plain linear sweeps across the normal and subnormal ranges.
    let mut x = -70000.0f64;
    while x < 70000.0 {
        xs.push(x);
        x += 1.337;
    }
    let mut x = -1e-4f64;
    while x < 1e-4 {
        xs.push(x);
        x += 3.1e-8;
    }
    for x in xs {
        assert_eq!(
            Half::from_f64(x).to_bits(),
            f64_to_f16_bits(x),
            "x = {x:e} ({:#018x})",
            x.to_bits()
        );
    }
}

/// Binary32 patterns on a fixed stride plus every bfloat16/TF32 pattern's
/// midpoint neighbourhood: the `f32`-exact inputs of the two 8-bit-exponent
/// formats.
fn f32_exact_sweep() -> Vec<f32> {
    let mut xs: Vec<f32> = (0..=u32::MAX).step_by(4093).map(f32::from_bits).collect();
    for bits in 0u32..0x7F80 {
        let v = f32::from_bits(bits << 16);
        let mid = f32::from_bits((bits << 16) | 0x8000);
        for x in [v, mid] {
            xs.extend([x, f32::from_bits(x.to_bits() + 1), -x]);
            if x != 0.0 {
                xs.push(f32::from_bits(x.to_bits() - 1));
            }
        }
    }
    for bits in (0u32..0x7F800).step_by(7) {
        let mid = f32::from_bits((bits << 13) | 0x1000);
        xs.extend([mid, f32::from_bits(mid.to_bits() + 1), -mid]);
        xs.push(f32::from_bits(mid.to_bits() - 1));
    }
    xs.extend([f32::MAX, f32::MIN, f32::INFINITY, f32::NEG_INFINITY]);
    xs
}

#[test]
fn bf16_and_tf32_from_f64_match_oracles_on_f32_exact_inputs() {
    for x in f32_exact_sweep() {
        let wide = x as f64;
        let (b, t) = (Bf16::from_f64(wide), Tf32::from_f64(wide));
        if x.is_nan() {
            assert!(b.is_nan() && t.is_nan());
            continue;
        }
        assert_eq!(b.to_bits(), f32_to_bf16_bits(x), "bf16 x = {x:e}");
        assert_eq!(t.to_bits(), f32_to_tf32_bits(x), "tf32 x = {x:e}");
        assert_eq!(Bf16::from_f32(x).to_bits(), b.to_bits());
        assert_eq!(Tf32::from_f32(x).to_bits(), t.to_bits());
    }
}

/// A dense operand sample of a 16-bit format: every `stride`-th pattern
/// plus the specials.
fn operand_bits(stride: usize, specials: &[u16]) -> Vec<u16> {
    let mut bits: Vec<u16> = (0..=u16::MAX).step_by(stride).collect();
    bits.extend_from_slice(specials);
    bits
}

/// Check `+ − × ÷`, `sqrt` and `mul_add` of `flex` against the oracle
/// `round(widen(a) op widen(b))` on every operand pair of `sample`.
/// `exact` decides whether the oracle's rounding of an `f64` result is
/// trustworthy (the f32-path oracles double round otherwise). NaN results
/// compare by class: which NaN operand the `f64` unit propagates, and so
/// the result's sign and payload, depends on operand order the compiler
/// may change.
fn check_ops<F: crate::Real>(
    sample: &[F],
    widen: impl Fn(F) -> f64,
    round: impl Fn(f64) -> F,
    exact: impl Fn(f64) -> bool,
) {
    let same =
        |x: F, y: F| (x.is_nan() && y.is_nan()) || x.to_f64().to_bits() == y.to_f64().to_bits();
    let n = sample.len();
    for (i, &a) in sample.iter().enumerate() {
        let wa = widen(a);
        assert!(same(a.sqrt(), round(wa.sqrt())), "sqrt {a:?}");
        for (j, &b) in sample.iter().enumerate() {
            let wb = widen(b);
            assert!(same(a + b, round(wa + wb)), "{a:?} + {b:?}");
            assert!(same(a - b, round(wa - wb)), "{a:?} - {b:?}");
            assert!(same(a * b, round(wa * wb)), "{a:?} * {b:?}");
            assert!(same(a / b, round(wa / wb)), "{a:?} / {b:?}");
            let c = sample[(i * 7 + j * 13) % n];
            let fused = wa.mul_add(wb, widen(c));
            if exact(fused) {
                assert!(same(a.mul_add(b, c), round(fused)), "fma {a:?} {b:?} {c:?}");
            }
        }
    }
}

#[test]
fn half_ops_match_oracle_on_dense_sample() {
    let bits = operand_bits(
        97,
        &[
            0x0000, 0x8000, 0x0001, 0x03FF, 0x3C00, 0x7BFF, 0x7C00, 0xFC00, 0x7E00,
        ],
    );
    let sample: Vec<Half> = bits.iter().map(|&b| Half::from_bits(b)).collect();
    check_ops(
        &sample,
        |h| f16_bits_to_f64(h.to_bits()),
        |x| Half::from_bits(f64_to_f16_bits(x)),
        |_| true,
    );
}

#[test]
fn bf16_ops_match_oracle_on_dense_sample() {
    let bits = operand_bits(
        97,
        &[
            0x0000, 0x8000, 0x0001, 0x007F, 0x3F80, 0x7F7F, 0x7F80, 0xFF80, 0x7FC0,
        ],
    );
    let sample: Vec<Bf16> = bits.iter().map(|&b| Bf16::from_bits(b)).collect();
    check_ops(
        &sample,
        |b| bf16_bits_to_f64(b.to_bits()),
        |x| Bf16::from_bits(f32_to_bf16_bits(x as f32)),
        |x| (x as f32) as f64 == x,
    );
}

#[test]
fn tf32_ops_match_oracle_on_dense_sample() {
    let bits: Vec<u32> = (0u32..1 << 19)
        .step_by(773)
        .chain([
            0, 0x40000, 1, 0x3FF, 0x1FC00, 0x3FBFF, 0x3FC00, 0x7FC00, 0x3FE00,
        ])
        .collect();
    let sample: Vec<Tf32> = bits.iter().map(|&b| Tf32::from_bits(b)).collect();
    check_ops(
        &sample,
        |t| tf32_bits_to_f64(t.to_bits()),
        |x| Tf32::from_bits(f32_to_tf32_bits(x as f32)),
        |x| (x as f32) as f64 == x,
    );
}
