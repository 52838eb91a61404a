//! Order statistics and the metric list printed at the end of a run.

use std::collections::HashMap;
use std::hash::Hash;

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Each key's median over its samples.
pub fn medians_by_key<K: Hash + Eq>(
    samples: impl IntoIterator<Item = (K, f64)>,
) -> HashMap<K, f64> {
    let mut by_key: HashMap<K, Vec<f64>> = HashMap::new();
    for (k, v) in samples {
        by_key.entry(k).or_default().push(v);
    }
    by_key.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One offered rate of a load ladder and what it measured.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered requests per second.
    pub rate: f64,
    pub p99_ms: f64,
    /// How much further behind its schedule the generator ran at the end of
    /// the rung than at its start (0 for a closed loop).
    pub backlog_growth_ms: f64,
}

impl Rung {
    /// How far the rung is from its limit: the larger of its p99 and its
    /// backlog growth, over `limit_ms`. At most 1 means the rung meets the
    /// limit and its backlog grew by less than the limit. Lateness comes and
    /// goes in bursts near capacity; only growth beyond the limit counts.
    fn strain(&self, limit_ms: f64) -> f64 {
        self.p99_ms.max(self.backlog_growth_ms) / limit_ms
    }
}

/// The highest offered rate that meets `limit_ms` with no growing backlog,
/// interpolated linearly in [`Rung::strain`] between the last rung that
/// meets it and the first that does not. When even the lowest rung misses,
/// its rate is divided by its strain, so the result is never 0.
pub fn slo_rps(rungs: &[Rung], limit_ms: f64) -> f64 {
    let Some(miss) = rungs.iter().position(|r| r.strain(limit_ms) > 1.0) else {
        return rungs.last().map_or(0.0, |r| r.rate);
    };
    let b = rungs[miss];
    let sb = b.strain(limit_ms);
    if miss == 0 {
        return b.rate / sb;
    }
    let a = rungs[miss - 1];
    let sa = a.strain(limit_ms);
    a.rate + (1.0 - sa) / (sb - sa) * (b.rate - a.rate)
}

/// A named, unit-carrying value in the run's result.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn slo_interpolates_between_rungs() {
        let rung = |rate, p99_ms, backlog_growth_ms| Rung {
            rate,
            p99_ms,
            backlog_growth_ms,
        };
        let ladder = [
            rung(10.0, 100.0, 0.0),
            rung(20.0, 200.0, 0.0),
            rung(30.0, 600.0, 0.0),
        ];
        assert_eq!(slo_rps(&ladder, 1000.0), 30.0);
        assert_eq!(slo_rps(&ladder, 400.0), 25.0);
        assert_eq!(slo_rps(&ladder, 50.0), 5.0);
        // A growing backlog fails a rung whose p99 still meets the limit.
        let ladder = [rung(10.0, 100.0, 0.0), rung(20.0, 200.0, 2000.0)];
        assert_eq!(slo_rps(&ladder, 1000.0), 10.0 + 0.9 / 1.9 * 10.0);
    }
}
