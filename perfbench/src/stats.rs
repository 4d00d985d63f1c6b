//! The benchmark's own arithmetic: percentiles that count failures as
//! +∞, the ten-samples-beyond rule, self time of a span with overlapping
//! children, and the seeded Poisson arrival schedule.

use gendt_nn::Rng;

/// Percentile `q` in `[0, 1]` by nearest rank: the `⌈q·n⌉`-th smallest
/// sample. Failed operations enter as `f64::INFINITY`, so they count
/// against every percentile they reach. `NaN` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(samples.len(), q) - 1]
}

/// Median by the same rule as [`percentile`].
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the percentile-`q` sample of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether `n` samples support percentile `q`: at least ten samples lie
/// beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= 10
}

/// Total length covered by a set of intervals, overlaps counted once.
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span: its length minus the union of its children,
/// each child clipped to the parent's interval.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .collect();
    (parent.1 - parent.0) - union_len(&clipped)
}

/// Arrival offsets in seconds from the phase start for `n` Poisson
/// arrivals at `rate` per second, reproduced exactly from `seed`. The
/// exponential gaps are drawn by stratified sampling — one from each of
/// `n` equal-probability slices, in a seeded order — so every schedule
/// holds the same spread of gaps and runs differ only in their order.
pub fn poisson_schedule(rate: f64, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from(seed);
    let mut slices: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        slices.swap(k, rng.gen_range(k + 1));
    }
    let mut t = 0.0;
    slices
        .into_iter()
        .map(|s| {
            let u = (s as f64 + rng.uniform01()) / n as f64;
            // 1 - u keeps the logarithm finite.
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_as_infinite_in_every_percentile() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        // Six failures push the 95th percentile past every success.
        for v in s.iter_mut().take(6) {
            *v = f64::INFINITY;
        }
        assert_eq!(percentile(&s, 0.95), f64::INFINITY);
        assert_eq!(median(&s), 56.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(beyond(200, 0.95), 10);
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..10, children 1..4 and 3..6 overlap on 3..4, and one
        // child sticks out past the parent's end.
        let children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)];
        assert_eq!(union_len(&[(1.0, 4.0), (3.0, 6.0)]), 5.0);
        assert_eq!(self_time((0.0, 10.0), &children), 3.0);
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        // A child covering the whole parent leaves no self time.
        assert_eq!(self_time((2.0, 5.0), &[(0.0, 9.0)]), 0.0);
    }

    #[test]
    fn arrival_schedule_is_reproduced_exactly_from_the_seed() {
        let a = poisson_schedule(20.0, 500, 7);
        assert_eq!(a, poisson_schedule(20.0, 500, 7));
        assert_ne!(a, poisson_schedule(20.0, 500, 8));
        assert!(a.windows(2).all(|w| w[1] > w[0]));
        // Mean inter-arrival gap near 1/rate.
        let mean_gap = a[499] / 500.0;
        assert!((mean_gap - 0.05).abs() < 0.01, "mean gap {mean_gap}");
    }
}
