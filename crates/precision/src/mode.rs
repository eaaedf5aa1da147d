//! The run-time precision-mode selector (§III-C of the paper).
//!
//! A mode fixes three things: the storage-and-arithmetic format of the main
//! loop (`dist_calc`, `sort_&_incl_scan`, `update_mat_prof`), the format of
//! the precalculation step, and whether precalculation uses Kahan
//! compensation. The five paper modes plus the two named extensions:
//!
//! | mode  | precalculation       | main loop |
//! |-------|----------------------|-----------|
//! | FP64  | FP64                 | FP64      |
//! | FP32  | FP32                 | FP32      |
//! | FP16  | FP16                 | FP16      |
//! | Mixed | FP32                 | FP16      |
//! | FP16C | FP16 + compensation  | FP16      |
//! | BF16  | BF16                 | BF16      |
//! | TF32  | TF32                 | TF32      |
//!
//! The three tensor-core modes (`FP16-TC`, `BF16-TC`, `TF32-TC`) are a
//! different axis: storage and accumulation stay FP32, but the `dist_calc`
//! kernel is reformulated as a blocked GEMM whose multiply operands are
//! rounded to the tensor-core input format per operation and whose dot
//! products accumulate in FP32 in hardware-sized chunks (Khattak &
//! Mikaitis). [`PrecisionMode::tc_input`] exposes the input format.

use core::fmt;
use core::str::FromStr;

/// A floating-point format identifier (storage + arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Format {
    /// IEEE binary64.
    Fp64,
    /// IEEE binary32.
    Fp32,
    /// IEEE binary16.
    Fp16,
    /// bfloat16.
    Bf16,
    /// TensorFloat-32 (stored in 32 bits).
    Tf32,
    /// 8-bit float, 4 exponent / 3 mantissa bits (IEEE-style E4M3).
    Fp8E4M3,
    /// 8-bit float, 5 exponent / 2 mantissa bits (IEEE-style E5M2).
    Fp8E5M2,
}

impl Format {
    /// Bytes per element in device memory.
    pub fn bytes(self) -> usize {
        match self {
            Format::Fp64 => 8,
            Format::Fp32 | Format::Tf32 => 4,
            Format::Fp16 | Format::Bf16 => 2,
            Format::Fp8E4M3 | Format::Fp8E5M2 => 1,
        }
    }

    /// Unit roundoff ε of the format.
    pub fn epsilon(self) -> f64 {
        match self {
            Format::Fp64 => 2f64.powi(-52),
            Format::Fp32 => 2f64.powi(-23),
            Format::Fp16 | Format::Tf32 => 2f64.powi(-10),
            Format::Bf16 => 2f64.powi(-7),
            Format::Fp8E4M3 => 2f64.powi(-3),
            Format::Fp8E5M2 => 2f64.powi(-2),
        }
    }

    /// Throughput of this format relative to FP64 on the modelled GPUs
    /// (vector pipelines: FP32 2×, FP16 4×; BF16 like FP16; TF32 like FP32).
    pub fn flops_ratio_vs_fp64(self) -> f64 {
        match self {
            Format::Fp64 => 1.0,
            Format::Fp32 | Format::Tf32 => 2.0,
            Format::Fp16 | Format::Bf16 => 4.0,
            // 8-bit vector throughput modelled like the 16-bit formats
            // (the paper's kernels do not use tensor cores).
            Format::Fp8E4M3 | Format::Fp8E5M2 => 4.0,
        }
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Format::Fp64 => "FP64",
            Format::Fp32 => "FP32",
            Format::Fp16 => "FP16",
            Format::Bf16 => "BF16",
            Format::Tf32 => "TF32",
            Format::Fp8E4M3 => "FP8-E4M3",
            Format::Fp8E5M2 => "FP8-E5M2",
        };
        f.write_str(s)
    }
}

/// A precision mode: the paper's five configurations plus the BF16/TF32
/// extensions it names as future work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrecisionMode {
    /// Everything in IEEE binary64 — the reference configuration.
    Fp64,
    /// Everything in IEEE binary32.
    Fp32,
    /// Everything in IEEE binary16 — fastest, largest numerical error.
    Fp16,
    /// FP32 precalculation, FP16 main loop ("Mixed" in the paper).
    Mixed,
    /// FP16 precalculation **with Kahan compensated summation**, FP16 main
    /// loop ("FP16C" in the paper).
    Fp16c,
    /// Everything in bfloat16 (extension).
    Bf16,
    /// Everything in TF32 (extension).
    Tf32,
    /// FP32 precalculation, FP8-E4M3 main loop (extension; plain FP8 cannot
    /// survive the precalculation's cancellations at all).
    Fp8E4M3,
    /// FP32 precalculation, FP8-E5M2 main loop (extension).
    Fp8E5M2,
    /// Tensor-core GEMM `dist_calc`: FP16 multiply inputs, FP32 chunked
    /// accumulation, FP32 everywhere else.
    Fp16Tc,
    /// Tensor-core GEMM `dist_calc`: BF16 multiply inputs, FP32 chunked
    /// accumulation, FP32 everywhere else.
    Bf16Tc,
    /// Tensor-core GEMM `dist_calc`: TF32 multiply inputs, FP32 chunked
    /// accumulation, FP32 everywhere else.
    Tf32Tc,
}

impl PrecisionMode {
    /// The five modes evaluated in the paper, in the paper's plot order.
    pub const PAPER_MODES: [PrecisionMode; 5] = [
        PrecisionMode::Fp64,
        PrecisionMode::Fp32,
        PrecisionMode::Fp16,
        PrecisionMode::Mixed,
        PrecisionMode::Fp16c,
    ];

    /// The tensor-core GEMM modes, in throughput order (highest first).
    pub const TC_MODES: [PrecisionMode; 3] = [
        PrecisionMode::Fp16Tc,
        PrecisionMode::Bf16Tc,
        PrecisionMode::Tf32Tc,
    ];

    /// All supported modes including the extensions.
    pub const ALL: [PrecisionMode; 12] = [
        PrecisionMode::Fp64,
        PrecisionMode::Fp32,
        PrecisionMode::Fp16,
        PrecisionMode::Mixed,
        PrecisionMode::Fp16c,
        PrecisionMode::Bf16,
        PrecisionMode::Tf32,
        PrecisionMode::Fp8E4M3,
        PrecisionMode::Fp8E5M2,
        PrecisionMode::Fp16Tc,
        PrecisionMode::Bf16Tc,
        PrecisionMode::Tf32Tc,
    ];

    /// Format used by the main iteration loop (and for storing the active
    /// row-planes of the distance matrix).
    pub fn main_format(self) -> Format {
        match self {
            PrecisionMode::Fp64 => Format::Fp64,
            PrecisionMode::Fp32 => Format::Fp32,
            PrecisionMode::Fp16 | PrecisionMode::Mixed | PrecisionMode::Fp16c => Format::Fp16,
            PrecisionMode::Bf16 => Format::Bf16,
            PrecisionMode::Tf32 => Format::Tf32,
            PrecisionMode::Fp8E4M3 => Format::Fp8E4M3,
            PrecisionMode::Fp8E5M2 => Format::Fp8E5M2,
            // TC modes store planes and accumulate in FP32; only the GEMM
            // multiply operands are narrowed (see `tc_input`).
            PrecisionMode::Fp16Tc | PrecisionMode::Bf16Tc | PrecisionMode::Tf32Tc => Format::Fp32,
        }
    }

    /// For the tensor-core GEMM modes, the format the MMA unit rounds its
    /// multiply operands to; `None` for every vector-pipeline mode.
    pub fn tc_input(self) -> Option<Format> {
        match self {
            PrecisionMode::Fp16Tc => Some(Format::Fp16),
            PrecisionMode::Bf16Tc => Some(Format::Bf16),
            PrecisionMode::Tf32Tc => Some(Format::Tf32),
            _ => None,
        }
    }

    /// Format used by the precalculation step.
    pub fn precalc_format(self) -> Format {
        match self {
            PrecisionMode::Mixed => Format::Fp32,
            // The FP8 extension modes are mixed by construction: a running
            // sum in 2-3 mantissa bits is meaningless.
            PrecisionMode::Fp8E4M3 | PrecisionMode::Fp8E5M2 => Format::Fp32,
            other => other.main_format(),
        }
    }

    /// Whether this mode routes `dist_calc` through the simulated
    /// tensor-core GEMM path.
    pub fn uses_tensor_cores(self) -> bool {
        self.tc_input().is_some()
    }

    /// Whether precalculation uses Kahan compensated summation.
    pub fn compensated_precalc(self) -> bool {
        matches!(self, PrecisionMode::Fp16c)
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PrecisionMode::Fp64 => "FP64",
            PrecisionMode::Fp32 => "FP32",
            PrecisionMode::Fp16 => "FP16",
            PrecisionMode::Mixed => "Mixed",
            PrecisionMode::Fp16c => "FP16C",
            PrecisionMode::Bf16 => "BF16",
            PrecisionMode::Tf32 => "TF32",
            PrecisionMode::Fp8E4M3 => "FP8-E4M3",
            PrecisionMode::Fp8E5M2 => "FP8-E5M2",
            PrecisionMode::Fp16Tc => "FP16-TC",
            PrecisionMode::Bf16Tc => "BF16-TC",
            PrecisionMode::Tf32Tc => "TF32-TC",
        }
    }
}

/// Expand `$run!(P, M)` with the (precalculation, main-loop) [`Real`] type
/// pair of a [`PrecisionMode`] — the one mode → type table. `$run` is a
/// `macro_rules!` macro taking two types, usually defined in the calling
/// function so it can capture locals:
///
/// ```
/// use mdmp_precision::{dispatch_mode, PrecisionMode, Real};
///
/// fn names<P: Real, M: Real>() -> (&'static str, &'static str) {
///     (P::NAME, M::NAME)
/// }
/// macro_rules! run {
///     ($p:ty, $m:ty) => {
///         names::<$p, $m>()
///     };
/// }
/// assert_eq!(dispatch_mode!(PrecisionMode::Mixed, run), ("FP32", "FP16"));
/// ```
///
/// FP16C shares FP16's types; its Kahan compensation is
/// [`PrecisionMode::compensated_precalc`]. The tensor-core modes run their
/// vector arithmetic in FP32; the GEMM rounds its operands per MMA inside
/// the simulated tensor core.
///
/// [`Real`]: crate::Real
#[macro_export]
macro_rules! dispatch_mode {
    ($mode:expr, $run:ident) => {
        match $mode {
            $crate::PrecisionMode::Fp64 => $run!(f64, f64),
            $crate::PrecisionMode::Fp32 => $run!(f32, f32),
            $crate::PrecisionMode::Fp16 | $crate::PrecisionMode::Fp16c => {
                $run!($crate::Half, $crate::Half)
            }
            $crate::PrecisionMode::Mixed => $run!(f32, $crate::Half),
            $crate::PrecisionMode::Bf16 => $run!($crate::Bf16, $crate::Bf16),
            $crate::PrecisionMode::Tf32 => $run!($crate::Tf32, $crate::Tf32),
            $crate::PrecisionMode::Fp8E4M3 => $run!(f32, $crate::Fp8E4M3),
            $crate::PrecisionMode::Fp8E5M2 => $run!(f32, $crate::Fp8E5M2),
            $crate::PrecisionMode::Fp16Tc
            | $crate::PrecisionMode::Bf16Tc
            | $crate::PrecisionMode::Tf32Tc => $run!(f32, f32),
        }
    };
}

impl fmt::Display for PrecisionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for PrecisionMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fp64" | "f64" | "double" => Ok(PrecisionMode::Fp64),
            "fp32" | "f32" | "single" => Ok(PrecisionMode::Fp32),
            "fp16" | "f16" | "half" => Ok(PrecisionMode::Fp16),
            "mixed" => Ok(PrecisionMode::Mixed),
            "fp16c" | "f16c" => Ok(PrecisionMode::Fp16c),
            "bf16" | "bfloat16" => Ok(PrecisionMode::Bf16),
            "tf32" => Ok(PrecisionMode::Tf32),
            "fp8-e4m3" | "fp8e4m3" | "e4m3" => Ok(PrecisionMode::Fp8E4M3),
            "fp8-e5m2" | "fp8e5m2" | "e5m2" => Ok(PrecisionMode::Fp8E5M2),
            "fp16-tc" | "fp16tc" => Ok(PrecisionMode::Fp16Tc),
            "bf16-tc" | "bf16tc" => Ok(PrecisionMode::Bf16Tc),
            "tf32-tc" | "tf32tc" => Ok(PrecisionMode::Tf32Tc),
            other => Err(format!(
                "unknown precision mode '{other}' (expected one of {})",
                PrecisionMode::ALL
                    .map(|mode| mode.label().to_ascii_lowercase())
                    .join(", ")
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mode_table() {
        // Fig. 1 of the paper: precalculation / main-loop formats per mode.
        use PrecisionMode::*;
        assert_eq!(Fp64.precalc_format(), Format::Fp64);
        assert_eq!(Fp64.main_format(), Format::Fp64);
        assert_eq!(Fp32.precalc_format(), Format::Fp32);
        assert_eq!(Fp32.main_format(), Format::Fp32);
        assert_eq!(Fp16.precalc_format(), Format::Fp16);
        assert_eq!(Fp16.main_format(), Format::Fp16);
        assert_eq!(Mixed.precalc_format(), Format::Fp32);
        assert_eq!(Mixed.main_format(), Format::Fp16);
        assert_eq!(Fp16c.precalc_format(), Format::Fp16);
        assert_eq!(Fp16c.main_format(), Format::Fp16);
        assert!(Fp16c.compensated_precalc());
        assert!(!Fp16.compensated_precalc());
        assert!(!Mixed.compensated_precalc());
    }

    #[test]
    fn format_properties() {
        assert_eq!(Format::Fp64.bytes(), 8);
        assert_eq!(Format::Fp16.bytes(), 2);
        assert_eq!(Format::Tf32.bytes(), 4);
        assert!(Format::Fp16.epsilon() > Format::Fp32.epsilon());
        assert_eq!(Format::Fp16.flops_ratio_vs_fp64(), 4.0);
    }

    #[test]
    fn parse_round_trips() {
        for mode in PrecisionMode::ALL {
            let parsed: PrecisionMode = mode.label().parse().unwrap();
            assert_eq!(parsed, mode);
        }
        assert!("fp8".parse::<PrecisionMode>().is_err());
    }

    #[test]
    fn tc_modes_accumulate_in_fp32() {
        for mode in PrecisionMode::TC_MODES {
            assert!(mode.uses_tensor_cores());
            assert_eq!(mode.main_format(), Format::Fp32);
            assert_eq!(mode.precalc_format(), Format::Fp32);
            assert!(!mode.compensated_precalc());
        }
        assert_eq!(PrecisionMode::Fp16Tc.tc_input(), Some(Format::Fp16));
        assert_eq!(PrecisionMode::Bf16Tc.tc_input(), Some(Format::Bf16));
        assert_eq!(PrecisionMode::Tf32Tc.tc_input(), Some(Format::Tf32));
        for mode in PrecisionMode::PAPER_MODES {
            assert!(!mode.uses_tensor_cores());
        }
    }

    /// The type table agrees with the format table for every mode.
    #[test]
    fn dispatch_table_agrees_with_formats() {
        use crate::Real;
        fn check<T: Real>(mode: PrecisionMode, side: &str, format: Format) {
            assert_eq!(T::NAME, format.to_string(), "{mode} {side}");
            assert_eq!(T::BYTES, format.bytes(), "{mode} {side}");
            assert_eq!(T::EPSILON, format.epsilon(), "{mode} {side}");
        }
        for mode in PrecisionMode::ALL {
            macro_rules! run {
                ($p:ty, $m:ty) => {{
                    check::<$p>(mode, "precalc", mode.precalc_format());
                    check::<$m>(mode, "main loop", mode.main_format());
                }};
            }
            crate::dispatch_mode!(mode, run);
        }
    }

    #[test]
    fn parse_error_lists_every_mode_and_each_label_parses_back() {
        let err = "fp12".parse::<PrecisionMode>().unwrap_err();
        for mode in PrecisionMode::ALL {
            let label = mode.label().to_ascii_lowercase();
            assert!(err.contains(&label), "{label} missing from: {err}");
            assert_eq!(label.parse::<PrecisionMode>(), Ok(mode));
            assert_eq!(mode.label().parse::<PrecisionMode>(), Ok(mode));
        }
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = PrecisionMode::PAPER_MODES
            .iter()
            .map(|m| m.label())
            .collect();
        assert_eq!(labels, ["FP64", "FP32", "FP16", "Mixed", "FP16C"]);
    }
}
