//! The four workloads and the closed-loop runner three of them share.

pub mod curate;
pub mod finetune;
pub mod rebuild;
pub mod serve;

use crate::report::{reset_peak_rss, Json, Metrics};
use crate::stats::median;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads handed to every `threads` knob of the library: the
/// two cores of the reference host, never "auto".
pub const THREADS: usize = 2;

/// Ops every measured phase runs, however long they take.
const MIN_OPS: usize = 3;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Seconds one run measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a trace file.
    pub traced: bool,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub work: PathBuf,
}

/// What a workload hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    /// Ops (or requests) attempted.
    pub attempted: u64,
    /// Ops (or requests) that failed or failed a correctness gate.
    pub failed: u64,
    /// Whether every correctness gate passed.
    pub correct: bool,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Workload-specific report fields (gates, bases, sample counts).
    pub report: Json,
    /// Spans of the traced phase (empty when untraced).
    pub tracer: Tracer,
}

/// One finished op of a closed-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// Wall time of the timed region, in seconds.
    pub wall: f64,
    /// Whether the op's correctness gates passed.
    pub ok: bool,
}

/// A workload whose client waits for each op before starting the next.
pub trait ClosedLoop: Sized {
    /// Per-layer metric holding the median op wall time, in seconds.
    const OP_METRIC: &'static str;

    /// Set-ups per run (see [`timed_setup`]).
    const SETUP_REPEATS: usize;

    /// Builds the state the ops run against (timed as `setup_s`).
    fn setup(ctx: &Ctx) -> Result<Self, String>;

    /// Untimed preparation of the kept set-up, before the first op; may
    /// record per-layer metrics of its own.
    fn prepare(&mut self, _metrics: &mut Metrics) -> Result<(), String> {
        Ok(())
    }

    /// Runs op `index`. When `tracer` is on, records a root span named
    /// `op` (group `index`) with children around each library call.
    fn op(&mut self, ctx: &Ctx, index: u64, tracer: &mut Tracer) -> Result<OpResult, String>;

    /// Run-level gates (outside any timed region) and per-layer metrics.
    /// Returns whether the gates passed.
    fn finish(
        &mut self,
        ctx: &Ctx,
        tracer: &Tracer,
        metrics: &mut Metrics,
        report: &mut Json,
    ) -> Result<bool, String>;
}

/// Times `repeats` set-ups and keeps the last; returns it with each
/// set-up's wall time in seconds. The previous set-up is dropped before
/// the clock starts, so tearing it down is not counted.
pub fn timed_setup<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    for _ in 0..repeats.max(1) {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// Records `setup_s` (the median set-up) and every set-up time.
pub fn report_setup(times: &[f64], metrics: &mut Metrics, report: &mut Json) {
    metrics.set("setup_s", median(times).expect("at least one set-up"), "s");
    let list: Vec<String> = times.iter().map(f64::to_string).collect();
    report.raw("setup_times_s", format!("[{}]", list.join(",")));
}

fn phase<W: ClosedLoop>(
    w: &mut W,
    ctx: &Ctx,
    seconds: f64,
    next: &mut u64,
    tracer: &mut Tracer,
) -> Result<Vec<OpResult>, String> {
    let start = Instant::now();
    let mut ops = Vec::new();
    while ops.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        ops.push(w.op(ctx, *next, tracer)?);
        *next += 1;
    }
    Ok(ops)
}

fn walls(ops: &[OpResult]) -> Vec<f64> {
    ops.iter().map(|o| o.wall).collect()
}

/// Runs a closed-loop workload: set-up, then ops for `ctx.seconds`.
///
/// A traced run splits its time in two phases over fresh op indices:
/// untraced first, then traced. The ratio of their median op times is
/// the tracing overhead.
pub fn run_closed<W: ClosedLoop>(ctx: &Ctx) -> Result<Outcome, String> {
    let (mut w, setup_times) = timed_setup(W::SETUP_REPEATS, || W::setup(ctx))?;
    let mut metrics = Metrics::default();
    w.prepare(&mut metrics)?;
    let mut report = Json::default();
    report.str("peak_rss_scope", reset_peak_rss());
    let mut next = 0u64;
    let mut untraced = Tracer::new(false);
    let mut tracer = Tracer::new(ctx.traced);
    let (plain, traced) = if ctx.traced {
        let a = phase(&mut w, ctx, ctx.seconds / 2.0, &mut next, &mut untraced)?;
        let b = phase(&mut w, ctx, ctx.seconds / 2.0, &mut next, &mut tracer)?;
        (a, b)
    } else {
        (phase(&mut w, ctx, ctx.seconds, &mut next, &mut untraced)?, Vec::new())
    };

    let gates_ok = w.finish(ctx, &tracer, &mut metrics, &mut report)?;

    let all: Vec<OpResult> = plain.iter().chain(&traced).copied().collect();
    let attempted = all.len() as u64;
    let failed = if gates_ok { all.iter().filter(|o| !o.ok).count() as u64 } else { attempted };
    let op_p50 = median(&walls(&plain)).expect("a phase runs at least one op");

    report_setup(&setup_times, &mut metrics, &mut report);
    metrics.set("op_p50_ms", op_p50 * 1e3, "ms");
    metrics.set("slo_attainment", (attempted - failed) as f64 / attempted as f64, "ratio");
    metrics.set("failed_ratio", failed as f64 / attempted as f64, "ratio");
    metrics.set(W::OP_METRIC, op_p50, "s");
    if ctx.traced {
        let traced_p50 = median(&walls(&traced)).expect("a phase runs at least one op");
        metrics.set(W::OP_METRIC, traced_p50, "s");
        metrics.set("trace.overhead_ratio", traced_p50 / op_p50, "ratio");
        report_coverage(&tracer, "op", &mut metrics, &mut report);
    }
    report
        .int("ops", attempted)
        .int("ops_untraced", plain.len() as u64)
        .int("ops_traced", traced.len() as u64)
        .bool("gates_ok", gates_ok);
    Ok(Outcome { attempted, failed, correct: failed == 0, metrics, report, tracer })
}

/// Records `trace.coverage` — the worst root span's share covered by leaf
/// spans — and, in the report, the share over all root spans together.
pub fn report_coverage(tracer: &Tracer, root: &str, metrics: &mut Metrics, report: &mut Json) {
    let cov = tracer.coverage(root);
    let durs = tracer.durations(root);
    let covered: f64 = cov.iter().zip(&durs).map(|(c, d)| c * d).sum();
    metrics.set("trace.coverage", cov.iter().copied().fold(f64::INFINITY, f64::min), "ratio");
    report.num("coverage_all_ops", covered / durs.iter().sum::<f64>());
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> std::io::Result<u64> {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                total += meta.len();
            }
        }
    }
    Ok(total)
}
