//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated between
/// closest ranks. Returns NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lower = position.floor() as usize;
    let upper = position.ceil() as usize;
    let weight = position - lower as f64;
    sorted[lower] + (sorted[upper] - sorted[lower]) * weight
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median and quartiles of one metric across runs.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        q1: quantile(values, 0.25),
        q3: quantile(values, 0.75),
        n: values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(quantile(&values, 0.25), 1.75);
        assert!(median(&[]).is_nan());
    }
}
