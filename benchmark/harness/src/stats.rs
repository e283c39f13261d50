//! Summary statistics over raw samples.
//!
//! Two kinds of summary are kept apart on purpose. A *latency
//! percentile* ([`percentile`]) is nearest-rank on the raw samples and is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it, so
//! a p99 over 200 requests is refused instead of printed. A *trial
//! summary* ([`median`], [`quartiles`], [`spread`]) condenses a handful
//! of repeated runs and follows Python's `statistics` module, because
//! that is what the acceptance check recomputes.

/// Samples that must lie strictly beyond a percentile's rank before it
/// is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    // The harness never produces a NaN; one would sort as equal.
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    v
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of raw samples:
/// the value at rank `ceil(p/100 * n)` in ascending order. `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (n - rank >= MIN_BEYOND).then(|| sorted(samples)[rank - 1])
}

/// The median of a few trial values (mean of the middle two when even),
/// as Python's `statistics.median`. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The arithmetic mean. `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The three quartile cut points, exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Run-to-run spread: the distance between the first and third quartile
/// as a share of the median. `None` with fewer than two values or a
/// zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Work per second from a full run and a probe of the same command at
/// minimum size: `(work_full - work_probe) / (wall_full - wall_probe)`,
/// which cancels the fixed set-up both pay. `None` when the full run
/// was not longer than the probe.
pub fn two_point_rate(
    work_full: f64,
    work_probe: f64,
    wall_full: f64,
    wall_probe: f64,
) -> Option<f64> {
    let dw = work_full - work_probe;
    let dt = wall_full - wall_probe;
    (dw > 0.0 && dt > 0.0).then(|| dw / dt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceil_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // rank ceil(0.5*100) = 50 -> value 50, 50 samples beyond.
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        // rank 90 -> value 90, exactly 10 beyond.
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // rank 91 has only 9 beyond it.
        assert_eq!(percentile(&v, 91.0), None);
        assert_eq!(percentile(&v, 99.0), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        // rank ceil(989.01) = 990, 9 beyond.
        assert_eq!(percentile(&short, 99.0), None);
    }

    #[test]
    fn thirty_samples_give_a_median_only() {
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(15.0));
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        // Samples arrive in time order, not sorted.
        let reversed: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&reversed, 50.0), Some(15.0));
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // Two values extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn two_point_rate_cancels_setup() {
        // 2000 epochs in 7 s, 10 epochs in 1 s: 1990 epochs in 6 s.
        assert_eq!(two_point_rate(2000.0, 10.0, 7.0, 1.0), Some(1990.0 / 6.0));
        // A full run no longer than its probe has no rate.
        assert_eq!(two_point_rate(2000.0, 10.0, 1.0, 1.0), None);
        assert_eq!(two_point_rate(10.0, 10.0, 2.0, 1.0), None);
    }
}
