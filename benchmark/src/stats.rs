//! Order statistics over small samples.

/// Median and quartiles of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A value that was not sampled (a count, or a number that repeats
    /// exactly): zero spread.
    pub fn exact(value: f64) -> Self {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same values
/// Python's `statistics.quantiles(values, n=4)` returns, so a spread
/// computed here agrees with one computed from the printed numbers. A
/// single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of an empty sample");
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped into the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

pub fn summary(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary {
        median: median(values),
        q1,
        q3,
        n: values.len(),
    }
}

/// Percentile (`p` in `0..=100`) of a sorted sample, interpolated inside
/// runs of equal values: with `r = p/100 · n`, the result lies between the
/// largest value below the one at rank `r` and that value, as far along as
/// `r` lies through the run of samples that share it.
///
/// Simulated latencies are whole multiples of the 50 ms hop delay, so a
/// nearest-rank percentile only moves when a whole hop is gained or lost by
/// half the deliveries; this one moves with every delivery that changes
/// its hop count. On a sample without ties it is the usual interpolation
/// between neighbouring order statistics. Returns `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "sample is not sorted"
    );
    let rank = (p / 100.0 * sorted.len() as f64).clamp(0.0, sorted.len() as f64);
    let value = sorted[(rank.ceil() as usize).clamp(1, sorted.len()) - 1];
    let below = sorted.partition_point(|&v| v < value);
    let through = sorted.partition_point(|&v| v <= value);
    let floor = if below > 0 { sorted[below - 1] } else { 0 };
    let share = (rank - below as f64) / (through - below) as f64;
    Some(floor as f64 + (value - floor) as f64 * share.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_agree_with_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn summary_spread_is_relative_to_the_median() {
        let s = summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.median, s.n), (3.0, 5));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::exact(9.0).spread(), 0.0);
    }

    #[test]
    fn percentile_interpolates_inside_runs_of_equal_values() {
        // 100 samples: 40 at 100, 40 at 150, 20 at 200.
        let mut v = vec![100u64; 40];
        v.extend([150; 40]);
        v.extend([200; 20]);
        // Rank 50 is a quarter of the way through the run of 150s.
        assert_eq!(percentile(&v, 50.0), Some(112.5));
        // Rank 99 is 19/20 of the way through the run of 200s.
        assert_eq!(percentile(&v, 99.0), Some(197.5));
        assert_eq!(percentile(&v, 100.0), Some(200.0));
        // Inside the first run the floor is 0.
        assert_eq!(percentile(&v, 20.0), Some(50.0));
        // Without ties: plain interpolation between neighbours.
        let distinct: Vec<u64> = (1..=10).map(|i| i * 10).collect();
        assert_eq!(percentile(&distinct, 50.0), Some(50.0));
        assert_eq!(percentile(&distinct, 55.0), Some(55.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
