//! Order statistics for reported timings.
//!
//! The reporting rule: a timing is a median plus the highest percentile
//! that has at least [`MIN_BEYOND`] samples beyond it. Percentiles use
//! the nearest-rank definition, so the value reported is always one of
//! the samples.

/// Samples a percentile needs strictly above its rank to be reported.
pub const MIN_BEYOND: usize = 10;

/// Zero-based nearest-rank index of percentile `p` (0 < p ≤ 100) in
/// `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64 / 100.0).ceil() as usize;
    r.clamp(1, n) - 1
}

/// How many of `n` sorted samples lie beyond percentile `p`'s rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// The nearest-rank percentile `p` of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    sorted.get(rank(sorted.len(), p)).copied()
}

/// The highest percentile from `ladder` (tried in order, highest first)
/// that has at least [`MIN_BEYOND`] samples beyond it, with its value.
pub fn highest_supported(sorted: &[f64], ladder: &[f64]) -> Option<(f64, f64)> {
    ladder
        .iter()
        .find(|&&p| beyond(sorted.len(), p) >= MIN_BEYOND)
        .and_then(|&p| percentile(sorted, p).map(|v| (p, v)))
}

/// The median of unsorted samples (mean of the middle pair for even
/// counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A latency summary: median, the requested tail percentile, and the
/// sample count behind them.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    /// The tail percentile actually supported by the sample.
    pub tail_p: f64,
    pub tail: f64,
}

/// Summarises `samples` with the reporting rule, asking for `wanted` as
/// the tail. Falls back down the ladder when the sample is too small.
pub fn tail(samples: &[f64], wanted: f64) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ladder: Vec<f64> = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|&p| p <= wanted)
        .collect();
    let (tail_p, tail) = highest_supported(&sorted, &ladder)?;
    Some(Tail {
        n: sorted.len(),
        p50: percentile(&sorted, 50.0)?,
        tail_p,
        tail,
    })
}

/// Decisions per second pooled over items measured repeatedly:
/// `Σ work / Σ median(time)`. Each item's median rejects repetitions
/// slowed by something outside the program.
pub fn pooled_rate(work: &[f64], times: &[Vec<f64>]) -> Option<f64> {
    let mut secs = 0.0;
    for t in times {
        secs += median(t)?;
    }
    (secs > 0.0).then(|| work.iter().sum::<f64>() / secs)
}

/// A latency summary across repeated groups (cycles) of samples: the
/// median of the groups' medians and the median of the groups' `wanted`
/// tails. `None` unless every group supports the `wanted` tail.
pub fn median_tail(groups: &[Vec<f64>], wanted: f64) -> Option<Tail> {
    let tails: Vec<Tail> = groups
        .iter()
        .map(|g| tail(g, wanted).filter(|t| t.tail_p == wanted))
        .collect::<Option<_>>()?;
    Some(Tail {
        n: tails.iter().map(|t| t.n).sum(),
        p50: median(&tails.iter().map(|t| t.p50).collect::<Vec<_>>())?,
        tail_p: wanted,
        tail: median(&tails.iter().map(|t| t.tail).collect::<Vec<_>>())?,
    })
}

/// Splits samples, in the order measured, into consecutive groups of
/// `size`; a short remainder joins the last group.
pub fn group_samples(runs: &[Vec<u64>], size: usize) -> Vec<Vec<u64>> {
    let flat: Vec<u64> = runs.iter().flatten().copied().collect();
    let mut groups: Vec<Vec<u64>> = flat.chunks(size.max(1)).map(<[u64]>::to_vec).collect();
    if groups.len() > 1 && groups.last().is_some_and(|g| g.len() < size) {
        if let Some(rest) = groups.pop() {
            if let Some(last) = groups.last_mut() {
                last.extend(rest);
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        let s = ramp(1000);
        assert_eq!(highest_supported(&s, &[99.0]), Some((99.0, 990.0)));
        let s = ramp(999);
        assert_eq!(highest_supported(&s, &[99.0]), None);
    }

    #[test]
    fn falls_back_to_the_highest_supported_percentile() {
        // 521 samples: p99 has 5 beyond, p95 has 26.
        let t = tail(&ramp(521), 99.0).expect("supported");
        assert_eq!(t.tail_p, 95.0);
        assert_eq!(t.tail, 495.0);
        assert_eq!(t.n, 521);
        // With ten thousand samples p99.9 would qualify, but the caller
        // asked for p99 at most.
        let t = tail(&ramp(10_000), 99.0).expect("supported");
        assert_eq!(t.tail_p, 99.0);
        assert_eq!(t.tail, 9_900.0);
    }

    #[test]
    fn too_few_samples_support_nothing() {
        assert!(tail(&ramp(10), 99.0).is_none());
        assert!(tail(&[], 99.0).is_none());
        // Eleven samples: the median has five beyond it.
        assert!(tail(&ramp(11), 99.0).is_none());
        assert_eq!(tail(&ramp(21), 99.0).map(|t| t.tail_p), Some(50.0));
    }

    #[test]
    fn pooled_rate_uses_each_items_median_time() {
        // Item 0 had one slow repetition; its median ignores it.
        let times = vec![vec![1.0, 9.0, 1.0], vec![2.0, 2.0, 2.0]];
        assert_eq!(pooled_rate(&[30.0, 60.0], &times), Some(30.0));
        assert_eq!(pooled_rate(&[1.0], &[vec![]]), None);
    }

    #[test]
    fn median_tail_needs_every_group_to_support_the_tail() {
        let a = ramp(1000);
        let b: Vec<f64> = ramp(1000).iter().map(|v| v * 2.0).collect();
        let c: Vec<f64> = ramp(1000).iter().map(|v| v * 3.0).collect();
        let t = median_tail(&[a.clone(), b.clone(), c], 99.0).expect("supported");
        assert_eq!((t.n, t.p50, t.tail), (3000, 1000.0, 1980.0));
        assert!(median_tail(&[a, ramp(999)], 99.0).is_none());
    }

    #[test]
    fn groups_are_consecutive_and_full() {
        let runs = vec![vec![1; 600], vec![2; 600], vec![3; 300], vec![4; 950]];
        let g = group_samples(&runs, 1_000);
        assert_eq!(
            g.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![1_000, 1_450]
        );
        assert_eq!(g[0][599..601], [1, 2]);
        assert_eq!(group_samples(&[vec![7; 10]], 1_000), vec![vec![7; 10]]);
        assert!(group_samples(&[], 1_000).is_empty());
    }

    #[test]
    fn nearest_rank_median_and_mean_median() {
        let s = ramp(4);
        assert_eq!(percentile(&s, 50.0), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
