//! Fixed-size loops over single layer functions: the public `Half` ops
//! of `mdmp-precision` and the binary frame codec of `mdmp-service`.

use mdmp_precision::Half;
use mdmp_service::{FrameCodec, Message};
use std::hint::black_box;
use std::time::Instant;

/// Values per precision pass.
const LANES: usize = 4096;

/// Passes per precision loop; the median pass is reported.
const PASSES: usize = 9;

/// Repeats of the lane array within one pass.
const REPEATS: usize = 16;

/// Median nanoseconds per element of `f` applied to a fixed array.
fn ns_per_elem(mut f: impl FnMut() -> f64) -> f64 {
    let per_pass: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..REPEATS {
                black_box(f());
            }
            start.elapsed().as_secs_f64() * 1e9 / (LANES * REPEATS) as f64
        })
        .collect();
    crate::stats::median(&per_pass)
}

/// `(half_add_ns, half_mul_ns, f64_to_half_ns)`: software binary16 add,
/// multiply and rounding conversion, per element.
pub fn precision_ns() -> (f64, f64, f64) {
    let wide: Vec<f64> = (0..LANES)
        .map(|i| ((i as f64) * 0.37).sin() * 8.0 + 0.5)
        .collect();
    let xs: Vec<Half> = wide.iter().map(|&v| Half::from_f64(v)).collect();
    let ys: Vec<Half> = wide
        .iter()
        .rev()
        .map(|&v| Half::from_f64(v * 0.5))
        .collect();
    let add = ns_per_elem(|| {
        let mut acc = 0.0;
        for (x, y) in black_box(&xs).iter().zip(&ys) {
            acc += black_box(*x + *y).to_f64();
        }
        acc
    });
    let mul = ns_per_elem(|| {
        let mut acc = 0.0;
        for (x, y) in black_box(&xs).iter().zip(&ys) {
            acc += black_box(*x * *y).to_f64();
        }
        acc
    });
    let convert = ns_per_elem(|| {
        let mut acc = 0.0;
        for v in black_box(&wide) {
            acc += black_box(Half::from_f64(*v)).to_f64();
        }
        acc
    });
    (add, mul, convert)
}

/// Bytes of frames each codec loop encodes or decodes, at least.
const CODEC_BYTES: usize = 8 << 20;

/// `(encode, decode)` nanoseconds per frame byte for `msg` through
/// `FrameCodec::encode` (narrowed, as the clients send) and
/// `FrameCodec::read`.
pub fn codec_ns_per_byte(msg: &Message) -> Result<(f64, f64), String> {
    let mut codec = FrameCodec::new();
    let frame = codec.encode(msg, true)?.to_vec();
    let reps = CODEC_BYTES.div_ceil(frame.len()).max(1);
    let start = Instant::now();
    for _ in 0..reps {
        black_box(codec.encode(black_box(msg), true)?.len());
    }
    let encode = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..reps {
        let mut reader: &[u8] = black_box(&frame);
        let decoded = codec.read(&mut reader).map_err(|e| e.to_string())?;
        if decoded.map(|(_, n)| n as usize) != Some(frame.len()) {
            return Err("frame did not decode to its own length".into());
        }
    }
    let decode = start.elapsed().as_secs_f64();
    let bytes = (reps * frame.len()) as f64;
    Ok((encode * 1e9 / bytes, decode * 1e9 / bytes))
}
