//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's side, around calls into the
//! library crates: each has a name, a start and end, a parent, and a
//! group id shared by every span of one op or request. Nothing is written
//! until the run ends; then [`Tracer::write_chrome`] exports Chrome
//! trace-event JSON (which Perfetto and `chrome://tracing` open) and
//! [`Tracer::self_times`] gives each span name's self time — its duration
//! minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Where a span is drawn in the trace viewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The driving thread's timeline; spans on it nest strictly.
    Main,
    /// An async track keyed by the group id (serve requests, which
    /// overlap each other).
    Async,
}

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    group: u64,
    parent: Option<usize>,
    start: f64,
    end: f64,
    lane: Lane,
}

/// Per-name totals from [`Tracer::self_times`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: usize,
    /// Summed duration, in seconds.
    pub total_s: f64,
    /// Summed self time (duration minus child coverage), in seconds.
    pub self_s: f64,
    /// Whether the spans sit on the async lane (overlapping requests),
    /// whose time is not additive with the main lane's.
    pub async_lane: bool,
}

/// The span recorder. A disabled tracer records nothing, so untraced
/// runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a finished span on the main lane.
    pub fn span(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        self.record(name, group, parent, start, end, Lane::Main)
    }

    /// Records a finished span on `lane`.
    pub fn record(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        lane: Lane,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let secs = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        self.spans.push(SpanRec {
            name,
            group,
            parent: parent.map(|p| p.0),
            start: secs(start),
            end: secs(end),
            lane,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Records `stages` as children of `parent`, back to back from
    /// `start`: for phases whose durations a library reports but whose
    /// boundaries it does not expose.
    pub fn sequence(
        &mut self,
        group: u64,
        parent: Option<SpanId>,
        start: Instant,
        stages: &[(&'static str, std::time::Duration)],
    ) {
        let mut at = start;
        for &(name, dur) in stages {
            self.span(name, group, parent, at, at + dur);
            at += dur;
        }
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).collect()
    }

    fn children(&self) -> Vec<Vec<usize>> {
        let mut kids = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        kids
    }

    /// Self time per span name, sorted by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let kids = self.children();
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = union_len(
                kids[i].iter().map(|&k| (self.spans[k].start, self.spans[k].end)),
                s.start,
                s.end,
            );
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += s.end - s.start;
            e.self_s += (s.end - s.start - covered).max(0.0);
            e.async_lane = s.lane == Lane::Async;
        }
        out
    }

    /// For every span named `root`: the share of its duration covered by
    /// leaf spans (spans without children) below it — the time the trace
    /// attributes to a named layer rather than to glue.
    pub fn coverage(&self, root: &str) -> Vec<f64> {
        let kids = self.children();
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != root {
                continue;
            }
            let mut leaves = Vec::new();
            let mut stack = kids[i].clone();
            while let Some(k) = stack.pop() {
                if kids[k].is_empty() {
                    leaves.push((self.spans[k].start, self.spans[k].end));
                } else {
                    stack.extend(&kids[k]);
                }
            }
            let dur = s.end - s.start;
            if dur > 0.0 {
                out.push(union_len(leaves.into_iter(), s.start, s.end) / dur);
            }
        }
        out
    }

    /// Writes the spans as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, rec) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = rec.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let args = format!("{{\"span\":{i},\"parent\":{parent},\"group\":{g}}}", g = rec.group);
            let ts = rec.start * 1e6;
            match rec.lane {
                Lane::Main => {
                    let dur = (rec.end - rec.start) * 1e6;
                    write!(
                        s,
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{ts:.3},\
                         \"dur\":{dur:.3},\"args\":{args}}}",
                        rec.name
                    )
                }
                Lane::Async => {
                    let end = rec.end * 1e6;
                    write!(
                        s,
                        "{{\"name\":\"{n}\",\"cat\":\"request\",\"ph\":\"b\",\"id\":{g},\
                         \"pid\":1,\"tid\":1,\"ts\":{ts:.3},\"args\":{args}}},\n\
                         {{\"name\":\"{n}\",\"cat\":\"request\",\"ph\":\"e\",\"id\":{g},\
                         \"pid\":1,\"tid\":1,\"ts\":{end:.3}}}",
                        n = rec.name,
                        g = rec.group
                    )
                }
            }
            .expect("writing to a String cannot fail");
        }
        s.push_str("\n]}\n");
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(s.as_bytes())?;
        f.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: impl Iterator<Item = (f64, f64)>, lo: f64, hi: f64) -> f64 {
    let mut v: Vec<(f64, f64)> =
        intervals.map(|(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| b > a).collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ms(t0: Instant, n: u64) -> Instant {
        t0 + Duration::from_millis(n)
    }

    #[test]
    fn self_time_subtracts_child_coverage_and_coverage_counts_leaves() {
        let mut t = Tracer::new(true);
        let t0 = t.t0;
        let op = t.span("op", 0, None, ms(t0, 0), ms(t0, 100));
        let run = t.span("run", 0, op, ms(t0, 10), ms(t0, 90));
        t.sequence(
            0,
            run,
            ms(t0, 10),
            &[("a", Duration::from_millis(30)), ("b", Duration::from_millis(40))],
        );
        let st = t.self_times();
        let close = |x: f64, y: f64| (x - y).abs() < 1e-9;
        assert!(close(st["op"].self_s, 0.020), "{st:?}");
        assert!(close(st["run"].self_s, 0.010), "{st:?}");
        assert!(close(st["a"].self_s, 0.030));
        assert!(close(st["b"].total_s, 0.040));
        let cov = t.coverage("op");
        assert_eq!(cov.len(), 1);
        assert!(close(cov[0], 0.70), "leaves a+b cover 70 of 100 ms: {cov:?}");
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let v = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (-1.0, 0.5)];
        assert_eq!(union_len(v.into_iter(), 0.0, 5.5), 3.5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.span("op", 0, None, now, now), None);
        assert!(t.self_times().is_empty());
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let mut t = Tracer::new(true);
        let t0 = t.t0;
        let op = t.span("op", 3, None, ms(t0, 0), ms(t0, 5));
        t.record("req", 9, op, ms(t0, 1), ms(t0, 4), Lane::Async);
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("t.json");
        t.write_chrome(&path).expect("write trace");
        let text = std::fs::read_to_string(&path).expect("read trace");
        std::fs::remove_dir_all(&dir).ok();
        #[derive(serde::Deserialize)]
        struct Event {
            name: String,
            ph: String,
        }
        #[derive(serde::Deserialize)]
        #[allow(non_snake_case)]
        struct Trace {
            displayTimeUnit: String,
            traceEvents: Vec<Event>,
        }
        let parsed: Trace = serde_json::from_str(&text).expect("valid trace JSON");
        assert_eq!(parsed.displayTimeUnit, "ms");
        let phases: Vec<&str> = parsed.traceEvents.iter().map(|e| e.ph.as_str()).collect();
        assert_eq!(phases, ["X", "b", "e"]);
        assert!(parsed.traceEvents.iter().all(|e| e.name == "op" || e.name == "req"));
    }
}
