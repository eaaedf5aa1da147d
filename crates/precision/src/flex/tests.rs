//! Unit tests of the `Flex` family, per alias: known encodings, rounding
//! edge cases, arithmetic and ordering.

use super::*;
use crate::Real;

// ---- Half (binary16) ----

#[test]
fn half_known_bit_patterns() {
    assert_eq!(Half::from_f64(0.0).to_bits(), 0x0000);
    assert_eq!(Half::from_f64(-0.0).to_bits(), 0x8000);
    assert_eq!(Half::from_f64(1.0).to_bits(), 0x3C00);
    assert_eq!(Half::from_f64(-1.0).to_bits(), 0xBC00);
    assert_eq!(Half::from_f64(2.0).to_bits(), 0x4000);
    assert_eq!(Half::from_f64(0.5).to_bits(), 0x3800);
    assert_eq!(Half::from_f64(65504.0).to_bits(), 0x7BFF);
    assert_eq!(Half::from_f64(f64::INFINITY).to_bits(), 0x7C00);
    assert_eq!(Half::from_f64(f64::NEG_INFINITY).to_bits(), 0xFC00);
    // 1/3 rounds to 0x3555 (0.333251953125)
    assert_eq!(Half::from_f64(1.0 / 3.0).to_bits(), 0x3555);
    // smallest subnormal
    assert_eq!(Half::from_f64(2f64.powi(-24)).to_bits(), 0x0001);
    // smallest normal
    assert_eq!(Half::from_f64(2f64.powi(-14)).to_bits(), 0x0400);
}

#[test]
fn half_constants() {
    assert_eq!(Half::ONE.to_bits(), 0x3C00);
    assert_eq!(Half::NEG_ONE.to_bits(), 0xBC00);
    assert_eq!(Half::INFINITY.to_bits(), 0x7C00);
    assert_eq!(Half::NEG_INFINITY.to_bits(), 0xFC00);
    assert_eq!(Half::NAN.to_bits(), 0x7E00);
    assert_eq!(Half::MAX.to_bits(), 0x7BFF);
    assert_eq!(Half::MIN.to_bits(), 0xFBFF);
    assert_eq!(Half::MIN_POSITIVE_SUBNORMAL.to_f64(), 2f64.powi(-24));
    assert_eq!(Half::MAX.to_f64(), 65504.0);
    assert_eq!(Half::MIN.to_f64(), -65504.0);
}

#[test]
fn half_round_trip_all_finite_bit_patterns() {
    for bits in 0u16..=0xFFFF {
        let h = Half::from_bits(bits);
        if h.is_nan() {
            assert!(Half::from_f64(h.to_f64()).is_nan());
            continue;
        }
        let rt = Half::from_f64(h.to_f64());
        assert_eq!(rt.to_bits(), bits, "bits {bits:#06x} failed round trip");
    }
}

#[test]
fn half_overflow_rounds_to_infinity_at_65520() {
    // 65504 is MAX; the overflow threshold is the midpoint 65520.
    assert_eq!(Half::from_f64(65519.999).to_bits(), 0x7BFF);
    assert_eq!(Half::from_f64(65520.0).to_bits(), 0x7C00); // tie rounds away (to even = inf)
    assert_eq!(Half::from_f64(65536.0).to_bits(), 0x7C00);
    assert_eq!(Half::from_f64(-65520.0).to_bits(), 0xFC00);
}

#[test]
fn half_underflow_to_zero_and_subnormals() {
    let tiny = 2f64.powi(-25);
    assert_eq!(Half::from_f64(tiny).to_bits(), 0x0000); // exact tie to even (0)
    assert_eq!(Half::from_f64(tiny * 1.0001).to_bits(), 0x0001);
    assert_eq!(Half::from_f64(2f64.powi(-26)).to_bits(), 0x0000);
    assert_eq!(Half::from_f64(-2f64.powi(-24)).to_bits(), 0x8001);
    assert_eq!(Half::from_f64(2f64.powi(-300)).to_bits(), 0x0000);
    // f64 subnormal
    assert_eq!(Half::from_f64(f64::MIN_POSITIVE / 4.0).to_bits(), 0x0000);
}

#[test]
fn half_round_to_nearest_even_ties() {
    // 1 + 2^-11 is exactly halfway between 1.0 (even) and 1+2^-10: ties to even -> 1.0
    assert_eq!(Half::from_f64(1.0 + 2f64.powi(-11)).to_bits(), 0x3C00);
    // 1 + 3*2^-11 is halfway between 1+2^-10 (odd) and 1+2^-9 (even): -> 1+2^-9
    assert_eq!(Half::from_f64(1.0 + 3.0 * 2f64.powi(-11)).to_bits(), 0x3C02);
    // just above the tie rounds up
    assert_eq!(
        Half::from_f64(1.0 + 2f64.powi(-11) + 2f64.powi(-30)).to_bits(),
        0x3C01
    );
}

#[test]
fn half_rounding_carry_into_exponent() {
    // Largest value below 2.0 that rounds up to 2.0: 2 - 2^-11 = midpoint.
    assert_eq!(Half::from_f64(2.0 - 2f64.powi(-11)).to_bits(), 0x4000);
}

#[test]
fn half_arithmetic_basics() {
    let a = Half::from_f64(1.5);
    let b = Half::from_f64(2.25);
    assert_eq!((a + b).to_f64(), 3.75);
    assert_eq!((b - a).to_f64(), 0.75);
    assert_eq!((a * b).to_f64(), 3.375);
    assert_eq!((b / a).to_f64(), 1.5);
    assert_eq!((-a).to_f64(), -1.5);
    assert_eq!(a.mul_add(b, Half::ONE).to_f64(), 4.375);
}

#[test]
fn half_arithmetic_rounds_each_operation() {
    // ulp at 1024 is 1.0, so 1024 + 0.4 rounds back to 1024.
    let big = Half::from_f64(1024.0);
    let small = Half::from_f64(0.4);
    assert_eq!((big + small).to_f64(), 1024.0);
    // Swamping: summing 4096 copies of 1.0 in f16 stalls at 2048
    let mut acc = Half::ZERO;
    for _ in 0..4096 {
        acc += Half::ONE;
    }
    assert_eq!(acc.to_f64(), 2048.0, "accumulation stalls at 2^11");
}

#[test]
fn half_overflow_in_arithmetic() {
    let max = Half::MAX;
    assert!((max + max).is_infinite());
    assert!((max * Half::from_f64(2.0)).is_infinite());
    assert!(
        !(max + Half::ONE).is_infinite(),
        "65504+1 rounds back to 65504"
    );
}

#[test]
fn half_nan_propagation_and_comparisons() {
    let nan = Half::NAN;
    assert!(nan.is_nan());
    assert!((nan + Half::ONE).is_nan());
    assert!(Half::from_f64(-1.0).sqrt().is_nan());
    assert!(nan != nan);
    assert!(nan.partial_cmp(&Half::ONE).is_none());
    assert_eq!(Half::ONE.min(nan).to_f64(), 1.0);
    assert_eq!(nan.max(Half::ONE).to_f64(), 1.0);
}

#[test]
fn half_signed_zero_semantics() {
    let pz = Half::from_f64(0.0);
    let nz = Half::from_f64(-0.0);
    assert_eq!(pz, nz);
    assert_ne!(pz.to_bits(), nz.to_bits());
    assert_eq!(pz.total_cmp(&nz), Ordering::Greater);
}

#[test]
fn half_total_cmp_ordering() {
    let mut vals = [
        Half::NAN,
        Half::INFINITY,
        Half::NEG_INFINITY,
        Half::ZERO,
        Half::ONE,
        Half::NEG_ONE,
        Half::MAX,
        Half::MIN,
    ];
    vals.sort_by(Half::total_cmp);
    let as_f64: Vec<f64> = vals.iter().map(|h| h.to_f64()).collect();
    assert_eq!(as_f64[0], f64::NEG_INFINITY);
    assert_eq!(as_f64[1], -65504.0);
    assert_eq!(as_f64[2], -1.0);
    assert_eq!(as_f64[3], 0.0);
    assert_eq!(as_f64[4], 1.0);
    assert_eq!(as_f64[5], 65504.0);
    assert_eq!(as_f64[6], f64::INFINITY);
    assert!(vals[7].is_nan());
}

#[test]
fn half_subnormal_arithmetic() {
    let s = Half::MIN_POSITIVE_SUBNORMAL;
    assert!(s.is_subnormal());
    assert_eq!((s + s).to_bits(), 0x0002);
    assert_eq!((s / Half::from_f64(2.0)).to_bits(), 0x0000); // tie to even
    let almost_normal = Half::from_bits(0x03FF);
    assert!(almost_normal.is_subnormal());
    assert_eq!((almost_normal + s).to_bits(), 0x0400); // carries into normal
}

#[test]
fn half_display_and_debug() {
    assert_eq!(format!("{}", Half::from_f64(1.5)), "1.5");
    assert_eq!(format!("{:?}", Half::from_f64(1.5)), "1.5f16");
}

#[test]
fn half_f32_conversions_are_exact_widenings() {
    assert_eq!(Half::from_f32(1.5f32).to_f32(), 1.5f32);
    assert_eq!(Half::from_f32(65520.0f32).to_bits(), 0x7C00);
    assert_eq!(Half::MIN_POSITIVE_SUBNORMAL.to_f32(), 2f32.powi(-24));
}

// ---- Bf16 ----

#[test]
fn bf16_known_patterns() {
    assert_eq!(Bf16::from_f64(0.0).to_bits(), 0x0000);
    assert_eq!(Bf16::from_f64(1.0).to_bits(), 0x3F80);
    assert_eq!(Bf16::from_f64(-2.0).to_bits(), 0xC000);
    assert_eq!(Bf16::from_f64(f64::INFINITY).to_bits(), 0x7F80);
    assert!(Bf16::from_f64(f64::NAN).is_nan());
    assert_eq!(Bf16::ONE.to_bits(), 0x3F80);
    assert_eq!(Bf16::NAN.to_bits(), 0x7FC0);
}

#[test]
fn bf16_round_trip_all_patterns() {
    for bits in 0u16..=0xFFFF {
        let b = Bf16::from_bits(bits);
        if b.is_nan() {
            assert!(Bf16::from_f32(b.to_f32()).is_nan());
            continue;
        }
        assert_eq!(
            Bf16::from_f32(b.to_f32()).to_bits(),
            bits,
            "bits {bits:#06x}"
        );
    }
}

#[test]
fn bf16_rne_rounding() {
    // 1 + 2^-8 is halfway between 1.0 (even) and 1+2^-7: ties to even.
    assert_eq!(Bf16::from_f64(1.0 + 2f64.powi(-8)).to_bits(), 0x3F80);
    assert_eq!(Bf16::from_f64(1.0 + 3.0 * 2f64.powi(-8)).to_bits(), 0x3F82);
}

#[test]
fn bf16_rounds_f64_once_not_through_f32() {
    // 1 + 2^-8 + 2^-40 lies just above the tie between 1.0 and 1 + 2^-7,
    // so it rounds up. Rounding to f32 first would land exactly on the tie
    // (2^-40 is below half an f32 ulp) and then round to even, giving 1.0.
    let x = 1.0 + 2f64.powi(-8) + 2f64.powi(-40);
    assert_eq!((x as f32) as f64, 1.0 + 2f64.powi(-8));
    assert_eq!(Bf16::from_f64(x).to_f64(), 1.0078125);
}

#[test]
fn bf16_wide_range_no_overflow_at_f16_max() {
    // The key property vs binary16: 1e6 is representable.
    let big = Bf16::from_f64(1.0e6);
    assert!(big.is_finite());
    assert!((big.to_f64() - 1.0e6).abs() / 1.0e6 < 2f64.powi(-7));
}

#[test]
fn bf16_accumulation_stalls_at_2_pow_8() {
    let mut acc = Bf16::ZERO;
    for _ in 0..1024 {
        acc += Bf16::ONE;
    }
    assert_eq!(acc.to_f64(), 256.0);
}

#[test]
fn bf16_overflow_carry_to_infinity() {
    // Largest finite f32 rounds to bf16 infinity via the carry chain.
    assert_eq!(Bf16::from_f32(f32::MAX).to_bits(), 0x7F80);
}

// ---- Tf32 ----

#[test]
fn tf32_quantization_keeps_10_bits() {
    let x = Tf32::from_f64(1.0 + 2f64.powi(-10));
    assert_eq!(x.to_f64(), 1.0 + 2f64.powi(-10));
    // Halfway between 1.0 and 1+2^-10: ties to even -> 1.0.
    let y = Tf32::from_f64(1.0 + 2f64.powi(-11));
    assert_eq!(y.to_f64(), 1.0);
    // Below a quarter ulp rounds down.
    let z = Tf32::from_f64(1.0 + 2f64.powi(-13));
    assert_eq!(z.to_f64(), 1.0);
}

#[test]
fn tf32_rounds_f64_once_not_through_f32() {
    // Just above the tie between 1.0 and 1 + 2^-10: rounds up. Through f32
    // the 2^-40 vanishes, leaving an exact tie that rounds to even (1.0).
    let x = 1.0 + 2f64.powi(-11) + 2f64.powi(-40);
    assert_eq!((x as f32) as f64, 1.0 + 2f64.powi(-11));
    assert_eq!(Tf32::from_f64(x).to_f64(), 1.0 + 2f64.powi(-10));
}

#[test]
fn tf32_range_is_f32_like() {
    let big = Tf32::from_f64(1.0e30);
    assert!(big.is_finite());
    assert!((big.to_f64() - 1.0e30).abs() / 1.0e30 < 2f64.powi(-10));
    assert!(!Tf32::from_f64(1.0e40).is_finite());
}

#[test]
fn tf32_arithmetic_requantizes() {
    let a = Tf32::from_f64(1.0);
    let b = Tf32::from_f64(2f64.powi(-12));
    assert_eq!((a + b).to_f64(), 1.0, "sub-ulp addend must vanish");
    let mut acc = Tf32::ZERO;
    for _ in 0..4096 {
        acc += Tf32::ONE;
    }
    assert_eq!(acc.to_f64(), 2048.0, "accumulation stalls at 2^11");
}

#[test]
fn tf32_non_finite_passthrough() {
    assert!(Tf32::NAN.is_nan());
    assert!((Tf32::INFINITY + Tf32::ONE).to_f64().is_infinite());
    assert!((Tf32::INFINITY - Tf32::INFINITY).is_nan());
}

#[test]
fn tf32_total_cmp_sorts_nan_last() {
    let mut v = [Tf32::NAN, Tf32::ONE, Tf32::NEG_INFINITY];
    v.sort_by(Tf32::total_cmp);
    assert!(v[0].to_f64().is_infinite() && v[0].to_f64() < 0.0);
    assert_eq!(v[1].to_f64(), 1.0);
    assert!(v[2].is_nan());
}

// ---- FP8 and other geometries ----

#[test]
fn fp8_e4m3_constants() {
    assert_eq!(Fp8E4M3::BIAS, 7);
    assert_eq!(Fp8E4M3::EMAX, 7);
    // Max finite (IEEE-style): (2 - 2^-3) * 2^7 = 240.
    assert_eq!(<Fp8E4M3 as Real>::MAX_FINITE, 240.0);
    assert_eq!(<Fp8E4M3 as Real>::EPSILON, 0.125);
    assert_eq!(<Fp8E4M3 as Real>::BYTES, 1);
    assert_eq!(Fp8E4M3::MAX.to_f64(), 240.0);
    assert_eq!(Fp8E4M3::from_f64(240.0).to_f64(), 240.0);
    assert!(!Fp8E4M3::from_f64(260.0).is_finite());
}

#[test]
fn fp8_e5m2_range_vs_precision_tradeoff() {
    // E5M2 trades mantissa for range: max (2-2^-2)*2^15 = 57344.
    assert_eq!(<Fp8E5M2 as Real>::MAX_FINITE, 57344.0);
    assert!(Fp8E5M2::from_f64(30000.0).is_finite());
    assert!(!Fp8E4M3::from_f64(30000.0).is_finite());
    // E4M3 is more precise near 1.
    let x = 1.1;
    let e4 = (Fp8E4M3::from_f64(x).to_f64() - x).abs();
    let e5 = (Fp8E5M2::from_f64(x).to_f64() - x).abs();
    assert!(e4 <= e5);
}

#[test]
fn fp8_round_trips() {
    for bits in 0u8..=0xFF {
        let v = Fp8E4M3::from_bits(bits);
        if v.is_nan() {
            assert!(Fp8E4M3::from_f64(v.to_f64()).is_nan());
        } else {
            assert_eq!(Fp8E4M3::from_f64(v.to_f64()).to_bits(), bits, "{bits:#04x}");
        }
    }
}

#[test]
fn fp8_arithmetic_and_swamping() {
    let one = Fp8E4M3::from_f64(1.0);
    let mut acc = Fp8E4M3::ZERO;
    for _ in 0..64 {
        acc += one;
    }
    // 8-bit accumulator stalls at 2^(M+1) = 16.
    assert_eq!(acc.to_f64(), 16.0);
}

#[test]
fn real_trait_contract_for_fp8() {
    let two = Fp8E4M3::from_f64(2.0);
    assert_eq!((two * two).to_f64(), 4.0);
    assert_eq!(Fp8E4M3::from_f64(4.0).sqrt().to_f64(), 2.0);
    assert_eq!(two.mul_add(two, Fp8E4M3::from_f64(1.0)).to_f64(), 5.0);
    assert!(Fp8E4M3::from_f64(f64::NAN).is_nan());
    assert_eq!(
        Fp8E4M3::NAN.total_cmp(&Fp8E4M3::INFINITY),
        Ordering::Greater
    );
    assert_eq!(
        Fp8E4M3::from_f64(-0.0).total_cmp(&Fp8E4M3::ZERO),
        Ordering::Less
    );
}

#[test]
fn odd_geometry_flex_formats() {
    // A 6-bit float: E=3, M=2 — bias 3, max (2-0.25)*2^3 = 14.
    type Tiny = Flex<3, 2>;
    assert_eq!(<Tiny as Real>::MAX_FINITE, 14.0);
    assert_eq!(Tiny::from_f64(14.0).to_f64(), 14.0);
    assert!(!Tiny::from_f64(16.0).is_finite());
    // Subnormal quantum 2^(EMIN-M) = 2^(-2-2) = 1/16.
    assert_eq!(Tiny::from_f64(1.0 / 16.0).to_f64(), 1.0 / 16.0);
    // 0.025 is below half the quantum: flushes to zero; 0.04 rounds up.
    assert_eq!(Tiny::from_f64(0.025).to_f64(), 0.0);
    assert_eq!(Tiny::from_f64(0.04).to_f64(), 0.0625);
    assert_eq!(format!("{:?}", Tiny::ONE), "1flex<3,2>");
    assert_eq!(<Tiny as Real>::NAME, "FLEX");
}

#[test]
fn storage_word_does_not_change_values() {
    // The storage word is representation only: the same geometry in a
    // wider word rounds and widens identically.
    for bits in 0u16..=0xFFFF {
        let narrow = Half::from_bits(bits);
        let wide = Flex::<5, 10, u32>::from_bits(bits as u32);
        assert_eq!(narrow.to_f64().to_bits(), wide.to_f64().to_bits());
    }
    assert_eq!(<Flex<5, 10> as Real>::BYTES, 4);
    assert_eq!(<Half as Real>::BYTES, 2);
}
