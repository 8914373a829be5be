//! Order statistics for reported timings, and the interval union that
//! turns spans into self times.

/// Samples that must lie strictly above a reported percentile. With
/// fewer, the tail is not measured and the percentile is an error.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (1..=100) of `xs`: the smallest sample
/// with at least `p`% of the samples at or below it. An error when fewer
/// than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(xs: &[f64], p: usize) -> Result<f64, String> {
    assert!((1..=100).contains(&p), "percentile {p} outside 1..=100");
    let n = xs.len();
    // Integer ceil(p·n / 100): a float product misplaces exact ranks
    // (0.9 · 100 is not 90 in binary floating point).
    let rank = (p * n).div_ceil(100).max(1);
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median as a checked nearest-rank percentile.
pub fn median(xs: &[f64]) -> Result<f64, String> {
    percentile(xs, 50)
}

/// The mean of `xs` without its lowest and highest tenth. Fixed-work
/// timings on a shared host mix a fast and a slow mode whose shares
/// drift from run to run; a median jumps between the modes as the
/// shares cross one half, while this mean moves in proportion and still
/// ignores isolated spikes. An error unless at least [`MIN_BEYOND`]
/// samples remain after trimming.
pub fn trimmed_mean(xs: &[f64]) -> Result<f64, String> {
    let n = xs.len();
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = &sorted[n / 10..n - n / 10];
    if kept.len() < MIN_BEYOND {
        return Err(format!(
            "a trimmed mean of {n} samples keeps {}; at least {MIN_BEYOND} are needed",
            kept.len()
        ));
    }
    Ok(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` gives them (the default exclusive
/// method), so in-run spreads read the same as `spread.py`'s.
/// `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let len = xs.len();
    if len < 2 {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Total length covered by the half-open intervals, each clipped to
/// `within`. Overlapping intervals count once, so two workers busy at
/// the same time cover the wall time they share, not twice it.
pub fn union_len(intervals: &mut [(u64, u64)], within: (u64, u64)) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = within.0;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(within.1));
        if start < end {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Out of order on purpose: the statistics must sort.
        let mut xs: Vec<f64> = (1..=n).map(|v| v as f64).collect();
        xs.reverse();
        xs.swap(0, n / 2);
        xs
    }

    #[test]
    fn percentiles_take_the_nearest_rank() {
        assert_eq!(median(&one_to(20)), Ok(10.0));
        assert_eq!(median(&one_to(21)), Ok(11.0));
        assert_eq!(percentile(&one_to(100), 90), Ok(90.0));
        assert_eq!(percentile(&one_to(1000), 99), Ok(990.0));
        assert_eq!(percentile(&one_to(1000), 90), Ok(900.0));
    }

    #[test]
    fn a_percentile_without_ten_samples_beyond_is_an_error() {
        assert!(median(&one_to(19)).is_err());
        assert!(percentile(&one_to(99), 90).is_err());
        assert!(percentile(&one_to(999), 99).is_err());
        assert!(median(&[]).is_err());
        let err = percentile(&one_to(50), 99).unwrap_err();
        assert!(err.contains("p99 of 50 samples has 0 beyond it"), "{err}");
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        // 21 samples: the two lowest and two highest are dropped.
        let mut xs = one_to(21);
        let top = xs.iter().position(|&x| x == 21.0).unwrap();
        xs[top] = 1e9;
        assert_eq!(trimmed_mean(&xs), Ok((3..=19).sum::<usize>() as f64 / 17.0));
        // Eleven samples keep only nine after trimming one at each end.
        assert!(trimmed_mean(&one_to(11)).is_err());
        assert_eq!(trimmed_mean(&one_to(12)), Ok(6.5));
        // Moving a sample between two modes moves the result a step,
        // where the median would jump from one mode to the other.
        let mixed = |slow: usize| {
            let mut xs = vec![20.0; 40 - slow];
            xs.extend(vec![34.0; slow]);
            xs
        };
        let (below, above) = (
            trimmed_mean(&mixed(19)).unwrap(),
            trimmed_mean(&mixed(21)).unwrap(),
        );
        assert!(above - below < 1.0, "{below} -> {above}");
        assert_eq!(
            (median(&mixed(19)), median(&mixed(21))),
            (Ok(20.0), Ok(34.0))
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&one_to(4)), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: with few
        // samples the exclusive method extrapolates past the extremes.
        assert_eq!(quartiles(&[5.0, 1.0]), Some([0.0, 3.0, 6.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn overlapping_intervals_count_once() {
        // Two workers overlapping by 10 inside a 100 ns parent cover 50,
        // where a sum would claim 60.
        let mut children = vec![(30, 60), (10, 40)];
        assert_eq!(union_len(&mut children, (0, 100)), 50);
        // Nested and duplicate intervals add nothing.
        let mut nested = vec![(10, 40), (15, 20), (10, 40)];
        assert_eq!(union_len(&mut nested, (0, 100)), 30);
        // Intervals are clipped to the parent's.
        let mut spill = vec![(90, 130), (0, 5)];
        assert_eq!(union_len(&mut spill, (2, 100)), 13);
        assert_eq!(union_len(&mut [], (0, 100)), 0);
    }
}
