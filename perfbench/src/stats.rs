//! Sample statistics and the seeded generator behind every workload.
//!
//! Percentiles are nearest-rank over the sorted sample. A tail percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it,
//! so a "p99" of 24 samples (which would just be the maximum) is refused.

use std::time::Duration;

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`, or `None`
/// for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank percentile `p`, refused (`None`) unless at least
/// [`MIN_BEYOND`] samples lie beyond its rank.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    if samples.len().saturating_sub(rank.max(1)) < MIN_BEYOND {
        return None;
    }
    percentile(samples, p)
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Geometric mean of positive values, or `None` when empty or any value is
/// not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    Some((logs / values.len() as f64).exp())
}

/// A latency distribution as metric lines: `<name>.p50`, `<name>.p99`
/// when [`tail`] allows it, and `<name>.samples`.
pub fn dist(name: &str, samples: &[f64]) -> Vec<(String, f64, &'static str)> {
    let mut lines = vec![(format!("{name}.p50"), median(samples).unwrap_or(0.0), "ms")];
    if let Some(p99) = tail(samples, 99.0) {
        lines.push((format!("{name}.p99"), p99, "ms"));
    }
    lines.push((format!("{name}.samples"), samples.len() as f64, "count"));
    lines
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64: the benchmark's only randomness, so one seed always
/// yields one op sequence and one set of inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so workloads that
    /// share a seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An endless op sequence that visits every kind once per round, each
/// round in a fresh seeded order. Every kind gets the same number of
/// samples (±1), so per-kind medians do not drift with the seed's mix.
#[derive(Debug)]
pub struct Rounds {
    rng: Rng,
    kinds: usize,
    order: Vec<usize>,
}

impl Rounds {
    /// Rounds over `kinds` op kinds drawn from `rng`.
    pub fn new(rng: Rng, kinds: usize) -> Rounds {
        Rounds {
            rng,
            kinds,
            order: Vec::new(),
        }
    }
}

impl Iterator for Rounds {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.order.is_empty() {
            self.order = (0..self.kinds).collect();
            self.rng.shuffle(&mut self.order);
        }
        self.order.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = one_to(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        // Nearest rank picks a sample, never interpolates.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.0));
        assert_eq!(median(&[1.0, 10.0, 100.0, 1000.0, 5.0]), Some(10.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it: reported.
        assert_eq!(tail(&one_to(1000), 99.0), Some(990.0));
        // 999 samples leave only 9 beyond: refused.
        assert_eq!(tail(&one_to(999), 99.0), None);
        // 24 samples: a "p99" would be the maximum.
        assert_eq!(tail(&one_to(24), 99.0), None);
        assert_eq!(tail(&one_to(100), 90.0), Some(90.0));
        assert_eq!(tail(&one_to(99), 90.0), None);
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn dist_reports_p99_only_with_a_tail() {
        let names = |n| {
            dist("x", &one_to(n))
                .into_iter()
                .map(|(name, _, _)| name)
                .collect::<Vec<_>>()
        };
        assert_eq!(names(1000), ["x.p50", "x.p99", "x.samples"]);
        assert_eq!(names(24), ["x.p50", "x.samples"]);
    }

    #[test]
    fn geomean_of_positive_values() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));

        let seq = |seed| {
            Rounds::new(Rng::new(seed, 3), 40)
                .take(400)
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(11), seq(11));
        assert_ne!(seq(11), seq(12));
    }

    #[test]
    fn rounds_visit_every_kind_once_per_round() {
        let ops: Vec<usize> = Rounds::new(Rng::new(5, 0), 40).take(120).collect();
        for round in ops.chunks(40) {
            let mut sorted = round.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..40).collect::<Vec<_>>());
        }
    }
}
