//! Sample statistics, metric naming and the result line the benchmark
//! prints last.

use serde::Value;
use std::collections::BTreeMap;

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest whole percentile `p` of `n` samples that still leaves at
/// least ten samples strictly beyond it: `floor(100 * (n - 10) / n)`.
/// `None` when `n` is below 11, where no percentile has ten samples
/// beyond it.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 11 {
        return None;
    }
    Some((100 * (n - 10) / n) as u32)
}

/// The `p`-th percentile of `samples` by the nearest-rank rule (the
/// smallest sample with at least `p` % of the samples at or below it).
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (u64::from(p) * v.len() as u64).div_ceil(100).max(1) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// `run_ms_p90` is reported only where the percentile rule allows p90:
/// at least 100 samples, so that ten lie beyond it.
pub fn p90_if_supported(samples: &[f64]) -> Option<f64> {
    match tail_percentile(samples.len()) {
        Some(p) if p >= 90 => percentile(samples, 90),
        _ => None,
    }
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and holds at most 64 letters, digits, `_`, `.` and
/// `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Operations attempted and failed in one benchmark run. A run that
/// errors or fails its output check counts once as failed; the first
/// failure's message is kept for the report.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts `n` operations that all succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` operations that all failed for `why`.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.attempted += n;
        self.failed += n;
        if self.first_failure.is_none() {
            self.first_failure = Some(why.into());
        }
    }

    /// Counts one operation: failed when `check` holds an error.
    pub fn check(&mut self, check: Result<(), String>) {
        match check {
            Ok(()) => self.ok(1),
            Err(why) => self.fail(1, why),
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// True when at least one operation ran and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Named metrics with units, in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records `name` = `value` in `unit`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name — a bug in the benchmark.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        self.0.insert(name, (value, unit));
    }

    /// Iterates `(name, value, unit)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(k, (v, u))| (k.as_str(), *v, *u))
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let metrics = Value::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::F64(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let line = Value::Object(vec![
        (
            "correct".into(),
            Value::Bool(tally.correct() && metrics_finite(&metrics)),
        ),
        ("attempted".into(), Value::U64(tally.attempted)),
        ("failed".into(), Value::U64(tally.failed)),
        ("metrics".into(), metrics),
    ]);
    serde_json::to_string(&line).expect("result line serializes")
}

fn metrics_finite(metrics: &Value) -> bool {
    metrics.as_object().is_some_and(|m| {
        m.iter().all(|(_, v)| {
            v.as_object()
                .and_then(|o| serde::find_field(o, "value"))
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(99), Some(89));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(320), Some(96));
        // The chosen percentile really leaves at least ten samples beyond
        // it, and the next whole percentile up would not.
        for n in 11..2000usize {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p = tail_percentile(n).unwrap();
            let value = percentile(&samples, p).unwrap();
            let beyond = samples.iter().filter(|&&s| s > value).count();
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond}");
            if p < 99 {
                let next = percentile(&samples, p + 1).unwrap();
                let beyond_next = samples.iter().filter(|&&s| s > next).count();
                assert!(beyond_next < 10 || next == value, "n={n} p={p} not highest");
            }
        }
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(p90_if_supported(&few), None);
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90_if_supported(&enough), Some(90.0));
    }

    #[test]
    fn median_and_percentile_basics() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50), Some(3.0));
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 100), Some(5.0));
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 0), Some(1.0));
    }

    #[test]
    fn metric_names_are_validated() {
        for good in [
            "wall_s",
            "core.hotspot.hook_ns_per_instr",
            "sim.l1d_miss_rate",
            "9x",
            "a-b",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "a%",
            "ns/instr",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn setting_an_invalid_metric_panics() {
        Metrics::default().set("bad name", 1.0, "s");
    }

    #[test]
    fn failures_are_counted_against_attempts() {
        let mut t = Tally::default();
        assert!(!t.correct(), "nothing attempted is not correct");
        t.ok(20);
        t.check(Ok(()));
        assert!(t.correct());
        t.check(Err("db/hotspot: instret 1 != 2".into()));
        t.fail(3, "second failure");
        assert_eq!((t.attempted, t.failed), (25, 4));
        assert!(!t.correct());
        assert_eq!(
            t.first_failure.as_deref(),
            Some("db/hotspot: instret 1 != 2")
        );
        let mut total = Tally::default();
        total.ok(5);
        total.absorb(t);
        assert_eq!((total.attempted, total.failed), (30, 4));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut t = Tally::default();
        t.ok(3);
        let mut m = Metrics::default();
        m.set("wall_s", 1.25, "s");
        let line = result_line(&t, &m);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
        m.set("bad", f64::NAN, "s");
        assert!(result_line(&t, &m).starts_with(r#"{"correct":false"#));
    }
}
