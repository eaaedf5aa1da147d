//! # mdmp-precision
//!
//! Reduced-precision arithmetic substrate for the multi-dimensional matrix
//! profile reproduction of *Exploiting Reduced Precision for GPU-based Time
//! Series Mining* (IPDPS 2022).
//!
//! The paper evaluates five precision modes (FP64, FP32, FP16, Mixed, FP16C)
//! on NVIDIA GPUs, using CUDA `__half` intrinsics for half precision. This
//! crate provides the software equivalent, built from scratch:
//!
//! * [`Flex`] — one const-generic IEEE-style float with `E` exponent and `M`
//!   mantissa bits, correctly rounded (round-to-nearest-even) conversions
//!   and per-operation rounding matching CUDA half intrinsics. Every reduced
//!   format is an alias of it: [`Half`] (binary16, `Flex<5, 10>`), the two
//!   formats the paper names as future work, [`Bf16`] (`Flex<8, 7>`) and
//!   [`Tf32`] (`Flex<8, 10>`), and the FP8 extensions [`Fp8E4M3`] and
//!   [`Fp8E5M2`]. Storage is the narrowest word that holds the format, so
//!   `Half` and `Bf16` take 2 bytes in memory;
//! * the [`Real`] trait — the generic scalar abstraction every kernel in
//!   `mdmp-core` is written against;
//! * [`KahanSum`] — compensated summation used by the paper's FP16C mode in
//!   the precalculation step;
//! * [`PrecisionMode`] — the run-time mode selector (storage format of the
//!   main loop + precalculation format + compensation flag), and
//!   [`dispatch_mode!`] — the one table from a mode to its
//!   (precalculation, main-loop) [`Real`] type pair;
//! * [`analysis`] — the `e ∝ n·ε` dot-product error-bound model (§V-B of the
//!   paper, after Yang et al.) used to reason about tile sizes.
//!
//! ## Example
//!
//! ```
//! use mdmp_precision::{Half, Real};
//!
//! let a = Half::from_f64(1.0 / 3.0);
//! // binary16 has an 11-bit significand: unit roundoff 2^-11.
//! assert!((a.to_f64() - 1.0 / 3.0).abs() <= (1.0 / 3.0) * 2f64.powi(-11));
//! let b = a + a;
//! assert!((b.to_f64() - 2.0 / 3.0).abs() <= (2.0 / 3.0) * 2f64.powi(-10));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analysis;
mod flex;
mod kahan;
mod mode;
#[cfg(test)]
mod oracle;
mod real;

pub use flex::{Bf16, Flex, FlexBits, Fp8E4M3, Fp8E5M2, Half, Tf32};
pub use kahan::{kahan_dot, kahan_sum, plain_dot, KahanSum};
pub use mode::{Format, PrecisionMode};
pub use real::{convert_slice, widen_slice, Real};
