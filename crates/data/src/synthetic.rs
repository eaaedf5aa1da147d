//! The synthetic stress-test dataset of §V-A: "random noise combined with
//! randomly-located injected repeating patterns", with eight primitive
//! pattern shapes of different complexity (P0–P7, Fig. 3).
//!
//! A [`SyntheticPair`] is a (reference, query) pair of multi-dimensional
//! series that both contain instances of the same pattern at known
//! locations; the embedded-motif recall metrics check whether the computed
//! matrix-profile index links the query instance back to a reference
//! instance.

use crate::rng::{fill_gaussian, gaussian, seeded, spaced_positions};
use crate::series::MultiDimSeries;
use rand::rngs::StdRng;
use rand::Rng;
use std::f64::consts::TAU;

/// The eight primitive pattern shapes of Fig. 3, ordered by rough
/// complexity. Each is defined on phase `x ∈ [0, 1)` with values in
/// `[−1, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// P0 — one period of a sine wave.
    Sine,
    /// P1 — a square wave.
    Square,
    /// P2 — a symmetric triangle.
    Triangle,
    /// P3 — a rising sawtooth.
    Sawtooth,
    /// P4 — a Gaussian bump.
    GaussBump,
    /// P5 — a linear chirp (frequency rises 1→3 periods).
    Chirp,
    /// P6 — an exponentially damped oscillation.
    DampedOsc,
    /// P7 — a double bump ("M" shape).
    DoubleBump,
}

impl Pattern {
    /// All patterns in paper order P0..P7.
    pub const ALL: [Pattern; 8] = [
        Pattern::Sine,
        Pattern::Square,
        Pattern::Triangle,
        Pattern::Sawtooth,
        Pattern::GaussBump,
        Pattern::Chirp,
        Pattern::DampedOsc,
        Pattern::DoubleBump,
    ];

    /// Paper label ("P0" … "P7").
    pub fn label(self) -> &'static str {
        match self {
            Pattern::Sine => "P0",
            Pattern::Square => "P1",
            Pattern::Triangle => "P2",
            Pattern::Sawtooth => "P3",
            Pattern::GaussBump => "P4",
            Pattern::Chirp => "P5",
            Pattern::DampedOsc => "P6",
            Pattern::DoubleBump => "P7",
        }
    }

    /// Evaluate the shape at phase `x ∈ [0, 1)`.
    pub fn sample(self, x: f64) -> f64 {
        match self {
            Pattern::Sine => (TAU * x).sin(),
            Pattern::Square => {
                if x < 0.5 {
                    1.0
                } else {
                    -1.0
                }
            }
            Pattern::Triangle => {
                if x < 0.25 {
                    4.0 * x
                } else if x < 0.75 {
                    2.0 - 4.0 * x
                } else {
                    4.0 * x - 4.0
                }
            }
            Pattern::Sawtooth => 2.0 * x - 1.0,
            Pattern::GaussBump => {
                let z = (x - 0.5) / 0.15;
                2.0 * (-0.5 * z * z).exp() - 1.0
            }
            Pattern::Chirp => (TAU * (x + x * x)).sin(),
            Pattern::DampedOsc => (-3.0 * x).exp() * (3.0 * TAU * x).sin(),
            Pattern::DoubleBump => {
                let b = |c: f64| {
                    let z = (x - c) / 0.1;
                    (-0.5 * z * z).exp()
                };
                2.0 * (b(0.3) + b(0.7)).min(1.0) - 1.0
            }
        }
    }

    /// Render the pattern over `m` samples.
    pub fn render(self, m: usize) -> Vec<f64> {
        (0..m).map(|t| self.sample(t as f64 / m as f64)).collect()
    }
}

/// Configuration of a synthetic stress-test dataset.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of segments `n` (the series length is `n + m − 1`).
    pub n_subsequences: usize,
    /// Dimensionality `d`.
    pub dims: usize,
    /// Segment length `m` (also the injected pattern length).
    pub m: usize,
    /// The injected pattern shape.
    pub pattern: Pattern,
    /// Number of pattern instances embedded per series.
    pub embeddings: usize,
    /// Gaussian noise amplitude (σ) of the background.
    pub noise: f64,
    /// Pattern amplitude relative to the noise.
    pub pattern_amplitude: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticConfig {
    /// The paper's default stress-test setting: n = 2¹⁶, d = 2⁶, m = 2⁶
    /// (scaled down in the reproduction; see EXPERIMENTS.md).
    pub fn paper_default() -> SyntheticConfig {
        SyntheticConfig {
            n_subsequences: 1 << 16,
            dims: 1 << 6,
            m: 1 << 6,
            pattern: Pattern::Sine,
            embeddings: 4,
            noise: 0.3,
            pattern_amplitude: 1.0,
            seed: 0xC0FFEE,
        }
    }

    /// Series length `n + m − 1`.
    pub fn series_len(&self) -> usize {
        self.n_subsequences + self.m - 1
    }

    /// Why [`generate_pair`] cannot honour this configuration, if it
    /// cannot: it needs `n ≥ 1`, `d ≥ 1`, `m ≥ 2`, and room for every
    /// embedding at its minimum spacing of `2m` segments
    /// (`n ≥ embeddings × 2m`).
    pub fn check(&self) -> Result<(), String> {
        if self.n_subsequences == 0 || self.dims == 0 {
            return Err(format!(
                "synthetic input needs n >= 1 and d >= 1, got n = {} and d = {}",
                self.n_subsequences, self.dims
            ));
        }
        if self.m < 2 {
            return Err(format!("synthetic input needs m >= 2, got m = {}", self.m));
        }
        let room = self
            .m
            .checked_mul(2)
            .and_then(|gap| gap.checked_mul(self.embeddings));
        if room.is_none_or(|room| room > self.n_subsequences) {
            return Err(format!(
                "synthetic input needs n >= {} x 2m to embed its patterns, got n = {} and m = {}",
                self.embeddings, self.n_subsequences, self.m
            ));
        }
        Ok(())
    }
}

/// A generated (reference, query) pair with known embedding locations.
#[derive(Debug, Clone)]
pub struct SyntheticPair {
    /// The reference series `T_r`.
    pub reference: MultiDimSeries,
    /// The query series `T_q`.
    pub query: MultiDimSeries,
    /// Segment indices in the reference where the pattern starts.
    pub reference_locs: Vec<usize>,
    /// Segment indices in the query where the pattern starts.
    pub query_locs: Vec<usize>,
    /// The embedded pattern.
    pub pattern: Pattern,
    /// Segment length.
    pub m: usize,
}

/// Generate a reference/query pair per the configuration.
///
/// The same pattern instance (scaled per dimension) is written into every
/// dimension at each embedding location, making the embedding a genuine
/// *multi-dimensional* motif as required by the mSTAMP semantics.
pub fn generate_pair(cfg: &SyntheticConfig) -> SyntheticPair {
    assert!(cfg.n_subsequences > 0 && cfg.dims > 0 && cfg.m > 1);
    let mut rng = seeded(cfg.seed);
    let len = cfg.series_len();
    let min_gap = 2 * cfg.m;
    let max_start = cfg.n_subsequences;

    let reference_locs = spaced_positions(&mut rng, cfg.embeddings, max_start, min_gap);
    let query_locs = spaced_positions(&mut rng, cfg.embeddings, max_start, min_gap);

    let reference = build_series(cfg, &mut rng, len, &reference_locs);
    let query = build_series(cfg, &mut rng, len, &query_locs);

    SyntheticPair {
        reference,
        query,
        reference_locs,
        query_locs,
        pattern: cfg.pattern,
        m: cfg.m,
    }
}

fn build_series(
    cfg: &SyntheticConfig,
    rng: &mut StdRng,
    len: usize,
    locs: &[usize],
) -> MultiDimSeries {
    let mut series = MultiDimSeries::zeros(cfg.dims, len);
    let shape = cfg.pattern.render(cfg.m);
    // Per-dimension amplitude jitter so dimensions are correlated but not
    // identical (the embedding is still synchronous across dimensions).
    for k in 0..cfg.dims {
        let dim = series.dim_mut(k);
        fill_gaussian(rng, dim, cfg.noise);
        let scale = cfg.pattern_amplitude * (1.0 + 0.1 * gaussian(rng));
        for &loc in locs {
            for (t, &v) in shape.iter().enumerate() {
                dim[loc + t] += scale * v;
            }
        }
    }
    series
}

/// The 80-group parameter sweep of the paper's stress tests (§V-A): every
/// combination of `n ∈ {2¹²..2¹⁶}`, `d ∈ {2³..2⁶}`, `m ∈ {2³..2⁶}`
/// (5 × 4 × 4 = 80 groups). `scale_shift` right-shifts every `n` to make
/// the sweep tractable for functional (software-precision) runs.
pub fn stress_sweep(scale_shift: u32) -> Vec<SyntheticConfig> {
    let mut out = Vec::new();
    for n_pow in 12..=16u32 {
        for d_pow in 3..=6u32 {
            for m_pow in 3..=6u32 {
                if out.len() == 80 {
                    return out;
                }
                out.push(SyntheticConfig {
                    n_subsequences: 1usize << n_pow.saturating_sub(scale_shift).max(7),
                    dims: 1 << d_pow,
                    m: 1 << m_pow,
                    pattern: Pattern::ALL[out.len() % 8],
                    embeddings: 4,
                    noise: 0.3,
                    pattern_amplitude: 1.0,
                    seed: 1000 + out.len() as u64,
                });
            }
        }
    }
    out
}

/// Sample a random segment index avoiding the embedded locations — used by
/// tests that need "plain noise" queries.
pub fn random_noise_segment<R: Rng>(rng: &mut R, n: usize, m: usize, locs: &[usize]) -> usize {
    loop {
        let i = rng.gen_range(0..n);
        if locs.iter().all(|&l| i.abs_diff(l) >= 2 * m) {
            return i;
        }
    }
}

/// Convenience: a phase-aligned copy check value (mean absolute difference
/// between two renderings of a pattern) — zero for identical shapes.
pub fn shape_distance(a: Pattern, b: Pattern, m: usize) -> f64 {
    let ra = a.render(m);
    let rb = b.render(m);
    ra.iter().zip(&rb).map(|(x, y)| (x - y).abs()).sum::<f64>() / m as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::znorm_distance;

    fn small_cfg() -> SyntheticConfig {
        SyntheticConfig {
            n_subsequences: 2048,
            dims: 4,
            m: 32,
            pattern: Pattern::Sine,
            embeddings: 3,
            noise: 0.3,
            pattern_amplitude: 1.0,
            seed: 99,
        }
    }

    #[test]
    fn patterns_are_bounded_and_distinct() {
        for p in Pattern::ALL {
            for t in 0..256 {
                let v = p.sample(t as f64 / 256.0);
                assert!((-1.0001..=1.0001).contains(&v), "{p:?} out of range: {v}");
            }
        }
        // All 8 shapes pairwise distinct.
        for (i, &a) in Pattern::ALL.iter().enumerate() {
            for &b in &Pattern::ALL[i + 1..] {
                assert!(
                    shape_distance(a, b, 128) > 0.05,
                    "{a:?} vs {b:?} too similar"
                );
            }
        }
    }

    #[test]
    fn labels_are_p0_to_p7() {
        let labels: Vec<&str> = Pattern::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["P0", "P1", "P2", "P3", "P4", "P5", "P6", "P7"]);
    }

    #[test]
    fn generated_pair_has_expected_shape() {
        let cfg = small_cfg();
        let pair = generate_pair(&cfg);
        assert_eq!(pair.reference.dims(), 4);
        assert_eq!(pair.reference.len(), cfg.series_len());
        assert_eq!(pair.reference.n_segments(cfg.m), cfg.n_subsequences);
        assert_eq!(pair.reference_locs.len(), 3);
        assert_eq!(pair.query_locs.len(), 3);
        assert!(pair.reference_locs.iter().all(|&l| l < cfg.n_subsequences));
    }

    #[test]
    fn embedded_locations_are_mutual_nearest_neighbors() {
        let cfg = small_cfg();
        let pair = generate_pair(&cfg);
        let q_loc = pair.query_locs[0];
        let q_seg = &pair.query.dim(0)[q_loc..q_loc + cfg.m];
        // The reference embedding should be far closer than random locations.
        let best_ref = pair
            .reference_locs
            .iter()
            .map(|&r| znorm_distance(q_seg, &pair.reference.dim(0)[r..r + cfg.m]))
            .fold(f64::INFINITY, f64::min);
        let mut rng = seeded(5);
        let mut random_best = f64::INFINITY;
        for _ in 0..50 {
            let i = random_noise_segment(&mut rng, cfg.n_subsequences, cfg.m, &pair.reference_locs);
            let d = znorm_distance(q_seg, &pair.reference.dim(0)[i..i + cfg.m]);
            random_best = random_best.min(d);
        }
        assert!(
            best_ref < 0.7 * random_best,
            "embedding not recoverable: {best_ref} vs noise {random_best}"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let cfg = small_cfg();
        let a = generate_pair(&cfg);
        let b = generate_pair(&cfg);
        assert_eq!(a.reference, b.reference);
        assert_eq!(a.query_locs, b.query_locs);
        let mut cfg2 = small_cfg();
        cfg2.seed = 100;
        let c = generate_pair(&cfg2);
        assert_ne!(a.reference, c.reference);
    }

    #[test]
    fn stress_sweep_has_80_groups() {
        let sweep = stress_sweep(4);
        assert_eq!(sweep.len(), 80);
        assert!(sweep.iter().all(|c| c.n_subsequences >= 128));
        // Unscaled sweep reaches the paper sizes.
        let full = stress_sweep(0);
        assert!(full.iter().any(|c| c.n_subsequences == 1 << 16));
        assert!(full.iter().any(|c| c.dims == 64 && c.m == 64));
    }

    #[test]
    fn pattern_render_length() {
        for p in Pattern::ALL {
            assert_eq!(p.render(77).len(), 77);
        }
    }

    #[test]
    fn check_refuses_what_the_generator_cannot_place() {
        let cfg = |n_subsequences, dims, m| SyntheticConfig {
            n_subsequences,
            dims,
            m,
            embeddings: 2,
            ..small_cfg()
        };
        for (n, d, m) in [(0, 2, 8), (64, 0, 8), (64, 2, 1), (64, 2, 0), (31, 2, 8)] {
            assert!(cfg(n, d, m).check().is_err(), "n={n} d={d} m={m}");
        }
        assert!(cfg(usize::MAX, 1, usize::MAX / 2).check().is_err());
        // The tightest fit the check accepts generates.
        for m in [2, 3, 8, 17] {
            let tight = cfg(4 * m, 1, m);
            assert_eq!(tight.check(), Ok(()));
            let pair = generate_pair(&tight);
            assert_eq!(pair.reference.n_segments(m), 4 * m);
        }
    }
}
