//! Order statistics with the tail rule the benchmark reports under.
//!
//! A timing is reported as a median and as the highest percentile that still
//! has at least [`MIN_TAIL`] samples beyond it. The requests of one window
//! share a batch, so their latencies are not independent; tail percentiles
//! are therefore taken over window samples, not request samples.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// The median (mean of the middle pair for an even count). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The nearest-rank `p`-quantile (`0 < p < 1`) together with how many samples
/// lie strictly beyond it — `None` unless at least `min_tail` do.
pub fn tail_percentile(samples: &[f64], p: f64, min_tail: usize) -> Option<(f64, usize)> {
    assert!(p > 0.0 && p < 1.0, "quantile must be inside (0, 1)");
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    let beyond = n - 1 - idx;
    (beyond >= min_tail).then_some((v[idx], beyond))
}

/// Smallest sample count for which [`tail_percentile`] answers at `p`.
pub fn samples_needed(p: f64, min_tail: usize) -> usize {
    (1..)
        .find(|&n| {
            let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
            n - 1 - idx >= min_tail
        })
        .expect("some sample count satisfies the tail rule")
}

/// The tail percentile of a long series, steadied: the series (in time
/// order) is cut into the most consecutive blocks that each still satisfy
/// the tail rule on their own, and the median of the blocks' percentiles is
/// returned with the block count. A burst of noise then moves one block, not
/// the figure. `None` when even one block would break the rule.
pub fn blocked_tail_percentile(series: &[f64], p: f64, min_tail: usize) -> Option<(f64, usize)> {
    let blocks = series.len() / samples_needed(p, min_tail);
    if blocks == 0 {
        return None;
    }
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| {
            let part = &series[b * series.len() / blocks..(b + 1) * series.len() / blocks];
            tail_percentile(part, p, min_tail)
                .expect("every block is long enough")
                .0
        })
        .collect();
    Some((median(&per_block).expect("at least one block"), blocks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_ten_windows_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (v, beyond) = tail_percentile(&thousand, 0.99, MIN_TAIL).expect("1000 suffice");
        assert_eq!(v, 990.0);
        assert_eq!(beyond, 10);
        // One sample fewer leaves only nine beyond the 99th percentile.
        assert_eq!(tail_percentile(&thousand[..999], 0.99, MIN_TAIL), None);
        assert_eq!(samples_needed(0.99, MIN_TAIL), 1000);
    }

    #[test]
    fn blocked_tail_takes_the_median_of_whole_blocks() {
        assert_eq!(blocked_tail_percentile(&[1.0; 999], 0.99, MIN_TAIL), None);
        // 2,500 samples make two blocks of 1,250; a burst in one of three
        // blocks does not move the median.
        let mut v: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
        for x in &mut v[..1000] {
            *x += 1e6;
        }
        let (p99, blocks) = blocked_tail_percentile(&v, 0.99, MIN_TAIL).unwrap();
        assert_eq!(blocks, 3);
        assert_eq!(p99, 989.0);
        let (_, blocks) = blocked_tail_percentile(&v[..2500], 0.99, MIN_TAIL).unwrap();
        assert_eq!(blocks, 2);
    }

    #[test]
    fn tail_rule_holds_for_every_count_it_accepts() {
        for n in 1..3000 {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            if let Some((x, beyond)) = tail_percentile(&v, 0.99, MIN_TAIL) {
                assert!(beyond >= MIN_TAIL);
                assert_eq!(v.iter().filter(|&&s| s > x).count(), beyond);
                assert!(n >= samples_needed(0.99, MIN_TAIL));
            } else {
                assert!(n < samples_needed(0.99, MIN_TAIL));
            }
        }
    }
}
