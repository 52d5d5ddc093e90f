//! Summary statistics and process measurements.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank
/// method; 0 for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The geometric mean of positive ratios; 0 for an empty slice.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        0.0
    } else {
        (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn frac(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// A memory figure of this process from `/proc/self/status` (`VmHWM`
/// is the peak resident set, `VmRSS` the current one), in MiB.
pub fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or(format!("no {field} line in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
