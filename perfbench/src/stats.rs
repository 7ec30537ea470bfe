//! The benchmark's own arithmetic: medians, the tail-percentile rule, the
//! failure share, and the sustained-rate search. Span self time lives
//! with the spans (`spans.rs`).

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// A tail percentile chosen by [`tail_percentile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile (e.g. 99.0).
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
}

/// The highest of [`TAIL_PERCENTILES`] that has at least
/// [`TAIL_MIN_BEYOND`] samples strictly above its nearest rank, with its
/// value and the sample count; `None` when even p90 has too few.
pub fn tail_percentile(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        // Nearest rank, computed in integers so 99% of 2000 is exactly
        // rank 1980.
        let rank = (n * (p * 10.0).round() as usize).div_ceil(1000).max(1);
        (n >= rank + TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: sorted[rank - 1],
            samples: n,
        })
    })
}

/// Failed operations as a share of those attempted.
///
/// # Panics
///
/// Panics when nothing was attempted or more failed than were attempted.
pub fn fail_share(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0 && failed <= attempted, "{failed} failed of {attempted}");
    failed as f64 / attempted as f64
}

/// The highest rate in `[lo, hi]` at which `sustained` holds, found by
/// bisection until the bracket is narrower than `rel_tol` times its
/// sustained end.
///
/// Returns `None` when `lo` itself is not sustained and `hi` when `hi`
/// is. In between, the answer is the lower edge of a sustained /
/// unsustained boundary; when `sustained` is not monotone in the rate,
/// bisection finds one such boundary, not necessarily the highest.
pub fn sustained_rate(
    lo: f64,
    hi: f64,
    rel_tol: f64,
    mut sustained: impl FnMut(f64) -> bool,
) -> Option<f64> {
    assert!(0.0 < lo && lo < hi && rel_tol > 0.0, "bad search bracket [{lo}, {hi}]");
    if !sustained(lo) {
        return None;
    }
    if sustained(hi) {
        return Some(hi);
    }
    let (mut ok, mut bad) = (lo, hi);
    while bad - ok > rel_tol * ok {
        let mid = (ok + bad) / 2.0;
        if sustained(mid) {
            ok = mid;
        } else {
            bad = mid;
        }
    }
    Some(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        let values: Vec<f64> = (1..=2000).map(f64::from).collect();
        // p99.9 of 2000 is rank 1998: only 2 beyond. p99 is rank 1980:
        // 20 beyond.
        let tail = tail_percentile(&values).unwrap();
        assert_eq!(tail, Tail { percentile: 99.0, value: 1980.0, samples: 2000 });

        // 10,010 samples: p99.9 is rank 10,000, leaving exactly 10.
        let many: Vec<f64> = (1..=10_010).map(f64::from).collect();
        assert_eq!(tail_percentile(&many).unwrap().percentile, 99.9);

        // 1,000 samples: p99 is rank 990, leaving 10; 999 samples leave
        // 9 beyond rank 990, so the rule drops to p95.
        let at_edge: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&at_edge).unwrap().percentile, 99.0);
        let below: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&below).unwrap().percentile, 95.0);

        // Order does not matter; too few samples give no tail.
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(tail_percentile(&shuffled), None);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(
            tail_percentile(&hundred),
            Some(Tail { percentile: 90.0, value: 90.0, samples: 100 })
        );
    }

    #[test]
    fn fail_share_is_failed_over_attempted() {
        assert_eq!(fail_share(0, 2000), 0.0);
        assert_eq!(fail_share(232, 2000), 0.116);
        assert_eq!(fail_share(3, 3), 1.0);
    }

    #[test]
    #[should_panic]
    fn fail_share_needs_an_attempt() {
        fail_share(0, 0);
    }

    #[test]
    fn sustained_search_finds_the_threshold() {
        let limit = 0.731;
        let found = sustained_rate(0.05, 4.0, 0.001, |r| r <= limit).unwrap();
        assert!(found <= limit && limit - found <= 0.001 * found, "{found}");
        // Every probe is inside the bracket, and the search is short.
        let mut probes = Vec::new();
        sustained_rate(0.05, 4.0, 0.01, |r| {
            probes.push(r);
            r <= limit
        });
        assert!(probes.iter().all(|&r| (0.05..=4.0).contains(&r)));
        assert!(probes.len() < 16, "{} probes", probes.len());
    }

    #[test]
    fn sustained_search_edges() {
        assert_eq!(sustained_rate(0.5, 2.0, 0.01, |_| false), None);
        assert_eq!(sustained_rate(0.5, 2.0, 0.01, |_| true), Some(2.0));
        // Exactly at the lower edge.
        assert_eq!(sustained_rate(0.5, 2.0, 0.01, |r| r <= 0.5), Some(0.5));
    }
}
