//! Metric collection and the run's printed output.
//!
//! A run prints two JSON lines to stdout: a `report` line with the host
//! facts, gate results, tail sample counts and every ratio's base, then —
//! last — the result object, holding exactly the metrics
//! `BENCHMARK.json` declares for the mode.

use crate::spec::BenchSpec;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Measured metric values by name, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Records `name`; a later call overwrites.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_owned(), (value, unit));
    }

    /// Every recorded metric as a JSON object of `{value, unit}`.
    pub fn to_json(&self) -> Json {
        let mut o = Json::default();
        for (name, (value, unit)) in &self.values {
            o.raw(name, Json::default().num("value", *value).str("unit", unit).done());
        }
        o
    }

    /// The final result line. Metrics the spec declares for this mode but
    /// the workload did not record are layers the workload never calls
    /// into: per-layer metrics report them as 0. A declared end-to-end
    /// metric that is missing, or a unit that disagrees with the spec, is
    /// a benchmark bug.
    pub fn result_line(
        &self,
        spec: &BenchSpec,
        traced: bool,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut metrics = Json::default();
        for (name, unit) in spec.printed(traced) {
            let value = match self.values.get(name) {
                Some((v, u)) if *u == unit => *v,
                Some((_, u)) => {
                    return Err(format!("metric {name}: unit {u} but spec says {unit}"))
                }
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.raw(name, Json::default().num("value", value).str("unit", unit).done());
        }
        Ok(Json::default()
            .bool("correct", correct)
            .int("attempted", attempted)
            .int("failed", failed)
            .raw("metrics", metrics.done())
            .done())
    }
}

/// A minimal JSON object writer (keys in insertion order).
#[derive(Debug, Default)]
pub struct Json {
    body: String,
}

impl Json {
    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(&quote(k));
        self.body.push(':');
    }

    /// Adds a number (non-finite values become `null`).
    pub fn num(&mut self, k: &str, v: f64) -> &mut Json {
        self.key(k);
        if v.is_finite() {
            write!(self.body, "{v}").expect("writing to a String cannot fail");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// Adds an integer.
    pub fn int(&mut self, k: &str, v: u64) -> &mut Json {
        self.key(k);
        write!(self.body, "{v}").expect("writing to a String cannot fail");
        self
    }

    /// Adds a boolean.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Json {
        self.key(k);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a string.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Json {
        self.key(k);
        self.body.push_str(&quote(v));
        self
    }

    /// Adds pre-rendered JSON.
    pub fn raw(&mut self, k: &str, json: String) -> &mut Json {
        self.key(k);
        self.body.push_str(&json);
        self
    }

    /// The rendered object.
    pub fn done(&mut self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                write!(out, "\\u{:04x}", u32::from(c)).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A ratio together with its base, so a reader can tell 1/2 from
/// 500/1000.
#[derive(Debug, Clone, Copy)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub den: f64,
    /// What the denominator counts.
    pub base: &'static str,
}

impl Ratio {
    /// `num / den`, or 0 for an empty base.
    pub fn value(&self) -> f64 {
        if self.den > 0.0 {
            self.num / self.den
        } else {
            0.0
        }
    }

    /// `{num, den, base}` as JSON.
    pub fn to_json(self) -> String {
        Json::default().num("num", self.num).num("den", self.den).str("base", self.base).done()
    }
}

/// Resets the peak resident set size (`VmHWM`) to the current RSS, so
/// [`peak_rss_mb`] covers only what runs after this call. Best effort:
/// returns the scope the peak will cover, for the report.
pub fn reset_peak_rss() -> &'static str {
    match std::fs::write("/proc/self/clear_refs", "5") {
        Ok(()) => "after set-up",
        Err(_) => "whole run",
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_writer_escapes_and_orders() {
        let s = Json::default()
            .str("a\"b", "x\ny")
            .int("n", 3)
            .num("f", 0.25)
            .num("nan", f64::NAN)
            .done();
        assert_eq!(s, r#"{"a\"b":"x\ny","n":3,"f":0.25,"nan":null}"#);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio { num: 3.0, den: 4.0, base: "lookups" };
        assert_eq!(r.value(), 0.75);
        assert_eq!(Ratio { num: 0.0, den: 0.0, base: "x" }.value(), 0.0);
        assert!(r.to_json().contains("\"base\":\"lookups\""));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }
}
