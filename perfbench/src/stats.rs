//! Order statistics used by every metric the benchmark reports.

/// Median of a sample (mean of the two middle values for even sizes).
/// `NaN` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Arithmetic mean; `NaN` for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Samples a reported tail percentile must leave beyond itself.
pub const TAIL_SUPPORT: usize = 10;

/// The percentile actually reported when `wanted` is asked of `n`
/// samples: the highest percentile, at most `wanted`, that keeps at least
/// [`TAIL_SUPPORT`] samples beyond it. `None` when `n` is too small to
/// support any percentile.
pub fn supported_percentile(n: usize, wanted: f64) -> Option<f64> {
    if n <= TAIL_SUPPORT {
        return None;
    }
    let cap = (n - TAIL_SUPPORT) as f64 / n as f64;
    Some(wanted.min(cap))
}

/// Nearest-rank percentile under the support rule: the value at sorted
/// index `ceil(p * n) - 1`, with `p` from [`supported_percentile`]. For
/// `wanted = 0.5` and `n > 20` this is the plain nearest-rank median.
pub fn tail_percentile(xs: &[f64], wanted: f64) -> Option<f64> {
    let p = supported_percentile(xs.len(), wanted)?;
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p * s.len() as f64).ceil() as usize).max(1);
    Some(s[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_is_reported_as_is_with_enough_samples() {
        // 1000 samples: 10 lie strictly beyond the 990th, so p99 stands.
        assert_eq!(supported_percentile(1000, 0.99), Some(0.99));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.99), Some(990.0));
    }

    #[test]
    fn p99_falls_back_to_highest_supported_percentile() {
        // 200 samples: p99 would leave 2 beyond it; the rule keeps 10,
        // i.e. reports p95 (the 190th value).
        assert_eq!(supported_percentile(200, 0.99), Some(0.95));
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let v = tail_percentile(&xs, 0.99).unwrap();
        assert_eq!(v, 190.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_SUPPORT);
    }

    #[test]
    fn every_reported_percentile_leaves_ten_samples_beyond() {
        for n in 11..400 {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for wanted in [0.5, 0.9, 0.99, 0.999] {
                let v = tail_percentile(&xs, wanted).unwrap();
                let beyond = xs.iter().filter(|&&x| x > v).count();
                assert!(beyond >= TAIL_SUPPORT, "n={n} p={wanted}: {beyond} beyond");
                // ... and it is the highest such percentile: one rank up
                // would leave fewer than ten, unless `wanted` binds first.
                let p = supported_percentile(n, wanted).unwrap();
                if p < wanted {
                    assert_eq!(beyond, TAIL_SUPPORT, "n={n} p={wanted}");
                }
            }
        }
    }

    #[test]
    fn too_few_samples_support_no_percentile() {
        assert_eq!(supported_percentile(10, 0.5), None);
        assert_eq!(tail_percentile(&[1.0; 5], 0.5), None);
    }
}
