//! `BENCHMARK.json`: the declared workloads and metrics.
//!
//! The run loads the file from the checkout root and prints exactly the
//! metrics it declares, so the declaration and the output cannot drift
//! apart.

use serde::Deserialize;
use std::path::Path;

/// One workload entry.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    /// Name passed as `--workload`.
    pub name: String,
    /// Why the workload exists (one line).
    pub why: String,
}

/// One end-to-end metric (with its regression bound).
#[derive(Debug, Clone, Deserialize)]
pub struct EndToEnd {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric (no bound).
#[derive(Debug, Clone, Deserialize)]
pub struct PerLayer {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

/// The whole file.
#[derive(Debug, Clone, Deserialize)]
pub struct BenchSpec {
    /// Command line that runs the benchmark.
    pub command: Vec<String>,
    /// Directories holding the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Declared workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// Metrics printed by untraced runs.
    pub end_to_end: Vec<EndToEnd>,
    /// Metrics printed by traced runs.
    pub per_layer: Vec<PerLayer>,
}

impl BenchSpec {
    /// Reads and parses `path`.
    pub fn load(path: &Path) -> Result<BenchSpec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let spec: BenchSpec =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        spec.validate().map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(spec)
    }

    /// Checks the limits the file must keep: valid, unique names and
    /// units, one-line reasons, bounds in `(0, 0.25]`, a `setup_s` with
    /// the largest bound, and a run length of 1–60 seconds.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=60).contains(&self.run_seconds) {
            return Err(format!("run_seconds {} is outside 1..=60", self.run_seconds));
        }
        if self.command.is_empty() || self.paths.is_empty() {
            return Err("command and paths must not be empty".into());
        }
        let mut seen = std::collections::BTreeSet::new();
        for w in &self.workloads {
            if !valid_name(&w.name) || !seen.insert(w.name.as_str()) {
                return Err(format!("workload name {:?} is invalid or repeated", w.name));
            }
            if w.why.is_empty() || w.why.contains('\n') || w.why.len() > 200 {
                return Err(format!("workload {}: the reason must be one line", w.name));
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        let metrics = self
            .end_to_end
            .iter()
            .map(|m| (&m.name, &m.unit, &m.better))
            .chain(self.per_layer.iter().map(|m| (&m.name, &m.unit, &m.better)));
        for (name, unit, better) in metrics {
            if !valid_name(name) || !seen.insert(name.as_str()) {
                return Err(format!("metric name {name:?} is invalid or repeated"));
            }
            let unit_char = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            if unit.is_empty() || unit.len() > 16 || !unit.chars().all(unit_char) {
                return Err(format!("metric {name}: bad unit {unit:?}"));
            }
            if better != "lower" && better != "higher" {
                return Err(format!("metric {name}: better must be lower or higher"));
            }
        }
        if let Some(m) = self.end_to_end.iter().find(|m| !(m.bound > 0.0 && m.bound <= 0.25)) {
            return Err(format!("metric {}: bound {} is outside (0, 0.25]", m.name, m.bound));
        }
        let widest = self.end_to_end.iter().map(|m| m.bound).fold(0.0, f64::max);
        match self.end_to_end.iter().find(|m| m.name == "setup_s") {
            Some(m) if m.unit == "s" && m.better == "lower" && m.bound == widest => Ok(()),
            _ => Err("setup_s (s, lower, the largest bound) is required".into()),
        }
    }

    /// The `(name, unit)` pairs a run prints: end-to-end metrics when
    /// untraced, per-layer metrics when traced.
    pub fn printed(&self, traced: bool) -> Vec<(&str, &str)> {
        if traced {
            self.per_layer.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect()
        } else {
            self.end_to_end.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect()
        }
    }
}

/// A name starts with a letter or digit and uses only `[A-Za-z0-9_.-]`,
/// at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> BenchSpec {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        BenchSpec::load(&path).expect("BENCHMARK.json parses")
    }

    #[test]
    fn the_repository_spec_is_valid_and_declares_the_four_workloads() {
        let s = spec();
        s.validate().expect("BENCHMARK.json keeps its limits");
        let w: Vec<&str> = s.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(w, ["curate", "rebuild", "finetune_eval", "serve"]);
        assert_eq!(s.paths, ["perfbench"]);
    }

    #[test]
    fn validation_rejects_bad_names_and_bounds() {
        let mut s = spec();
        s.per_layer[0].name = "bad name".into();
        assert!(s.validate().is_err());
        let mut s = spec();
        s.per_layer[1].name = s.per_layer[0].name.clone();
        assert!(s.validate().is_err(), "repeated name");
        let mut s = spec();
        s.end_to_end[0].bound = 0.3;
        assert!(s.validate().is_err());
    }

    #[test]
    fn name_pattern() {
        assert!(valid_name("serve.ttft_p50_ms"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("p99%"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
