//! Order statistics over per-round samples.

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// A tail percentile and the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile reported (nearest rank).
    pub percentile: u32,
    /// Value at that percentile.
    pub value: f64,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// The highest whole percentile (at least the median) that still has
/// ten samples beyond it. With fewer than twenty samples no percentile
/// qualifies and the median is reported, with its short `beyond` count.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            percentile: 50,
            value: 0.0,
            beyond: 0,
        };
    }
    let rank = |p: u32| (p as usize * n).div_ceil(100).max(1);
    let percentile = (50..=99).rev().find(|&p| n - rank(p) >= 10).unwrap_or(50);
    let r = rank(percentile);
    Tail {
        percentile,
        value: v[r - 1],
        beyond: n - r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (90, 90.0, 10));
        let short: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&short);
        assert_eq!((t.percentile, t.beyond), (50, 6));
    }
}
