//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <curate|rebuild|finetune_eval|serve> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: it reads `BENCHMARK.json` there and
//! keeps its scratch files under `.bench_work/` and its traces and
//! reports under `.bench_out/`. The last stdout line is the result
//! object; see `perfbench/README.md` for what each workload measures.

mod report;
mod schedule;
mod spec;
mod stats;
mod trace;
mod workloads;

use report::{peak_rss_mb, Json};
use spec::BenchSpec;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Ctx, Outcome, THREADS};

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "curate" => workloads::run_closed::<workloads::curate::Curate>(ctx),
        "rebuild" => workloads::run_closed::<workloads::rebuild::Rebuild>(ctx),
        "finetune_eval" => workloads::run_closed::<workloads::finetune::Finetune>(ctx),
        "serve" => workloads::serve::run(ctx),
        other => Err(format!("no workload named {other}")),
    }
}

/// The self-time table of a traced run: per span name, how often it ran,
/// its total and self time, and self time as a share of the main lane's
/// self time (async request spans overlap, so they get no share).
fn self_time_table(workload: &str, outcome: &Outcome) -> String {
    let st = outcome.tracer.self_times();
    let total: f64 = st.values().filter(|s| !s.async_lane).map(|s| s.self_s).sum();
    let mut rows: Vec<_> = st.into_iter().collect();
    rows.sort_by(|a, b| {
        a.1.async_lane.cmp(&b.1.async_lane).then(b.1.self_s.total_cmp(&a.1.self_s))
    });
    let mut out = format!(
        "self time, workload {workload}\n{:<24} {:>8} {:>12} {:>12} {:>7}\n",
        "span", "count", "total_s", "self_s", "self%"
    );
    for (name, s) in rows {
        let share = match (s.async_lane, total > 0.0) {
            (false, true) => format!("{:.2}%", 100.0 * s.self_s / total),
            (false, false) => "-".to_owned(),
            (true, _) => "async".to_owned(),
        };
        out.push_str(&format!(
            "{name:<24} {:>8} {:>12.6} {:>12.6} {share:>7}\n",
            s.count, s.total_s, s.self_s
        ));
    }
    out
}

fn main_inner(args: &Args) -> Result<String, String> {
    let spec = BenchSpec::load(Path::new("BENCHMARK.json"))?;
    if !spec.workloads.iter().any(|w| w.name == args.workload) {
        return Err(format!("BENCHMARK.json declares no workload {}", args.workload));
    }
    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let ctx =
        Ctx { seed: args.seed, seconds: args.seconds, traced: args.trace, work: work.clone() };
    let outcome = run_workload(&args.workload, &ctx);
    if work.exists() {
        std::fs::remove_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    }
    std::fs::remove_dir(".bench_work").ok();
    let mut outcome = outcome?;
    outcome.metrics.set("peak_rss_mb", peak_rss_mb()?, "MB");

    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    if args.trace {
        let path = out_dir.join(format!("trace-{stem}.json"));
        outcome.tracer.write_chrome(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        print!("{}", self_time_table(&args.workload, &outcome));
        println!("trace written to {}", path.display());
    }
    let host = Json::default()
        .int(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .int("threads", THREADS as u64)
        .done();
    let report = Json::default()
        .str("workload", &args.workload)
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .raw("host", host)
        .int("attempted", outcome.attempted)
        .int("failed", outcome.failed)
        .raw("workload_report", outcome.report.done())
        .raw("metrics", outcome.metrics.to_json().done())
        .done();
    let path = out_dir.join(format!("report-{stem}.json"));
    std::fs::write(&path, format!("{report}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("report {report}");
    outcome.metrics.result_line(
        &spec,
        args.trace,
        outcome.correct,
        outcome.attempted,
        outcome.failed,
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match main_inner(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("serve", 7, 10.0, true));
        assert!(args("--workload serve --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--workload serve --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload serve --seconds 1").is_err());
        assert!(args("--workload serve --seed 1 --seconds 1 --trace 2").is_err());
    }
}
