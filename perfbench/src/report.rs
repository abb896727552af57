//! Result assembly: statistics helpers and the one-line JSON result.

use std::collections::BTreeMap;

/// The metrics of one run, by name: value and unit.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    /// Record a metric. Non-finite values are a benchmark bug.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, (value, unit));
    }

    /// Copy every metric of `other` into `self`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// The times of items of work repeated over several passes.
///
/// An item's time is the least of its timings. The passes of one item lie
/// seconds apart, so a host stall or a slow spell of the shared machine
/// (which only ever adds time) must hit every pass to move it, while a
/// program that gets slower is slower in every pass and shows.
#[derive(Default)]
pub struct Repeated(Vec<Vec<u64>>);

impl Repeated {
    /// Record one timing of item `item`.
    pub fn record(&mut self, item: usize, ns: u64) {
        if self.0.len() <= item {
            self.0.resize(item + 1, Vec::new());
        }
        self.0[item].push(ns);
    }

    /// The least time of every item in nanoseconds, in item order.
    pub fn values(&self) -> Vec<u64> {
        assert!(
            !self.0.is_empty() && self.0.iter().all(|t| !t.is_empty()),
            "an item was never timed"
        );
        self.0.iter().map(|t| *t.iter().min().expect("timed")).collect()
    }

    /// The summed item times, in seconds.
    pub fn total_s(&self) -> f64 {
        self.values().iter().sum::<u64>() as f64 / 1e9
    }

    /// The `q`-quantile (nearest rank) of the item times, in ns.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.values();
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1] as f64
    }
}

/// The median of `v` (the mean of the middle two for an even count).
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let h = v.len() / 2;
    if v.len() % 2 == 1 {
        v[h]
    } else {
        (v[h - 1] + v[h]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_keeps_each_items_least_time() {
        let mut r = Repeated::default();
        r.record(1, 30);
        r.record(0, 20);
        r.record(1, 25);
        r.record(0, 90);
        assert_eq!(r.values(), vec![20, 25]);
        assert_eq!(r.total_s(), 45e-9);
        assert_eq!(r.quantile(0.5), 20.0);
        assert_eq!(r.quantile(0.99), 25.0);
    }

    #[test]
    #[should_panic(expected = "never timed")]
    fn repeated_refuses_an_untimed_item() {
        let mut r = Repeated::default();
        r.record(1, 30);
        r.values();
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.set("p50_us", 12.5, "us");
        m.set("setup_s", 0.25, "s");
        assert_eq!(
            m.result_line(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
