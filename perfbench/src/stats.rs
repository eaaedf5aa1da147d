//! Order statistics over per-op samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Largest value of `xs`; `0.0` for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Share of the samples the tail percentile leaves beyond it at least,
/// so that a run of many ops reports p90 rather than a rank a handful of
/// host hiccups decide.
pub const TAIL_SHARE_BEYOND: f64 = 0.1;

/// The highest percentile, p90 at most, of a sample set that still has
/// [`TAIL_SAMPLES_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile rank, `100 · (n − beyond) / n`.
    pub percentile: f64,
    /// Total samples the rank was taken over.
    pub samples: usize,
}

/// The tail of `xs`: with `n` sorted samples, the one that has
/// `max(10, ⌈n/10⌉)` samples beyond it. `None` below eleven samples.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_SAMPLES_BEYOND {
        return None;
    }
    let beyond = TAIL_SAMPLES_BEYOND.max((n as f64 * TAIL_SHARE_BEYOND).ceil() as usize);
    let s = sorted(xs);
    Some(Tail {
        value: s[n - beyond - 1],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        samples: n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs).expect("enough samples");
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        assert!(tail(&xs[..10]).is_none());
    }

    #[test]
    fn tail_of_many_samples_is_p90() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("enough samples");
        assert_eq!(t.value, 900.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 100);
    }
}
