//! `serve`: an open loop of Poisson arrivals through the continuous-
//! batching engine, timed from outside.
//!
//! The engine admits FIFO and samples a newly admitted request's first
//! token in the same `pump` that admits it; every later pump emits one
//! token per active request. So the benchmark mirrors the queue: before
//! each pump, `min(free slots, queued)` requests from the head of its
//! own FIFO are admitted, their first token lands at the end of that
//! pump, and a request that finishes in pump `d` sampled one token (its
//! last one, or `<eos>`) in every pump from admission to `d`.

use super::{report_coverage, report_setup, timed_setup, Ctx, Outcome, THREADS};

/// Set-ups per run.
const SETUP_REPEATS: usize = 5;
use crate::report::{reset_peak_rss, Json, Metrics, Ratio};
use crate::schedule::{poisson_arrivals, prompt_mix};
use crate::stats::{mean, median, percentile, tail};
use crate::trace::{Lane, Tracer};
use pyranet::{BuildOptions, ModelConfig, PyraNetBuilder, TrainConfig};
use pyranet_eval::{human_split, machine_split};
use pyranet_exec::stream_seed;
use pyranet_model::{KernelMode, Tokenizer, TransformerLm};
use pyranet_serve::{
    replay, responses_to_jsonl, ServeConfig, ServeEngine, ServeRequest, ServeResponse,
};
use pyranet_train::{build_tokenizer, SftTrainer};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Offered load, requests per second: about a tenth of the ~1550 req/s
/// the int8 engine sustains on this mix (offline replay, 2-core x86-64
/// host), so a slower host or a slower engine stays far from saturation.
pub const RATE_RPS: f64 = 150.0;
/// Share of requests drawn from the eval prompts (hot, repeated).
pub const HOT_SHARE: f64 = 0.5;
/// Completion budget of every request.
pub const MAX_NEW_TOKENS: usize = 48;
/// Sampling temperature of every request.
pub const TEMPERATURE: f32 = 0.8;
/// Time-to-first-token limit of the SLO, from when the request was due.
pub const TTFT_LIMIT_MS: f64 = 25.0;
/// Limit on a request's mean gap between output tokens.
pub const ITL_LIMIT_MS: f64 = 2.0;
/// A phase that has not drained this long after its last arrival fails.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// Engine configuration: `pyranet serve --kernel int8 --threads 2`, the
/// other knobs at their defaults.
///
/// The int8 decode path holds the tiny model's matmul weights in a quarter
/// of the f32 bytes. With the default f32 kernels the working set spills
/// out of L1, and request latency swung up to 1.5x with the load of the
/// host's other tenants: in eight interleaved pairs of runs, the spread
/// (IQR ÷ median) of median latency was 0.20 for f32 and 0.10 for int8.
/// The f32 decode path stays covered by `finetune_eval`.
pub fn config() -> ServeConfig {
    ServeConfig { threads: THREADS, kernel: KernelMode::QuantizedInt8, ..ServeConfig::default() }
}

/// The model `pyranet serve` trains under [`config`]: a fresh CLI-sized
/// model, SFT for one epoch over a 300-file build.
pub struct Model {
    /// The fine-tuned model.
    pub lm: TransformerLm,
    /// Its tokenizer.
    pub tk: Tokenizer,
    /// Curated descriptions (the cold prompt pool).
    pub descriptions: Vec<String>,
}

fn train_model() -> Model {
    let cfg = config();
    let built = PyraNetBuilder::new(BuildOptions {
        scraped_files: 300,
        seed: cfg.seed,
        threads: cfg.threads,
        ..BuildOptions::default()
    })
    .build();
    let tk = build_tokenizer(built.dataset.iter());
    let model_cfg = ModelConfig {
        name: "pyranet-cli".into(),
        d_model: 32,
        n_layers: 2,
        n_heads: 4,
        d_ff: 64,
        max_seq: 160,
        learning_rate: TrainConfig::default().learning_rate,
        seed: cfg.seed,
    };
    let mut lm = TransformerLm::new(model_cfg, tk.vocab_size());
    let tcfg = TrainConfig {
        epochs: 1,
        threads: cfg.threads,
        seed: cfg.seed,
        kernel: cfg.kernel,
        ..TrainConfig::default()
    };
    SftTrainer::run(&mut lm, &tk, &built.dataset, &tcfg);
    let descriptions =
        built.dataset.iter().map(|s| s.description.clone()).filter(|d| !d.is_empty()).collect();
    Model { lm, tk, descriptions }
}

/// The requests of one phase: Poisson arrival offsets and their
/// requests, both from `seed`.
pub fn traffic(seed: u64, seconds: f64, model: &Model) -> (Vec<f64>, Vec<ServeRequest>) {
    let arrivals = poisson_arrivals(stream_seed(seed, 1), RATE_RPS, seconds);
    let hot: Vec<String> =
        machine_split().into_iter().chain(human_split()).map(|p| p.description).collect();
    let prompts =
        prompt_mix(stream_seed(seed, 2), arrivals.len(), HOT_SHARE, &hot, &model.descriptions);
    let requests = prompts
        .into_iter()
        .enumerate()
        .map(|(i, prompt)| ServeRequest {
            id: format!("{seed:016x}-{i:06}"),
            prompt,
            max_new_tokens: MAX_NEW_TOKENS,
            temperature: TEMPERATURE,
        })
        .collect();
    (arrivals, requests)
}

/// Per-request timeline, as the benchmark observed it.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// When the generator first tried to submit it.
    pub first_try: Option<Instant>,
    /// Pump that admitted it.
    pub admitted: Option<usize>,
    /// Pump after which its response was taken.
    pub done: Option<usize>,
    /// Its response.
    pub response: Option<ServeResponse>,
    /// Responses received for it (exactly one is correct).
    pub responses: usize,
}

/// Everything one open-loop phase observed.
#[derive(Debug)]
pub struct LoopRun {
    /// When each request was due.
    pub due: Vec<Instant>,
    /// Per-request timelines, in request order.
    pub timelines: Vec<Timeline>,
    /// Start and end of every pump.
    pub pumps: Vec<(Instant, Instant)>,
    /// Active requests during each pump (after admission).
    pub occupancy: Vec<usize>,
    /// Submits the queue refused (each retried later).
    pub refused: u64,
    /// Wall time of the phase, first due to last completion.
    pub wall: Duration,
    /// Prefix-cache hits and lookups.
    pub prefix: (u64, u64),
}

/// Drives `requests`, due at `start + arrivals[i]`, through a fresh
/// engine until every one has completed.
pub fn open_loop(
    model: &Model,
    cfg: &ServeConfig,
    arrivals: &[f64],
    requests: &[ServeRequest],
    tracer: &mut Tracer,
) -> Result<LoopRun, String> {
    let n = requests.len();
    let index: HashMap<&str, usize> =
        requests.iter().enumerate().map(|(i, r)| (r.id.as_str(), i)).collect();
    let mut engine = ServeEngine::new(&model.lm, &model.tk, cfg.clone());
    let max_batch = cfg.max_batch.max(1);
    let mut timelines = vec![Timeline::default(); n];
    let mut fifo: VecDeque<usize> = VecDeque::new();
    let mut pumps = Vec::new();
    let mut occupancy = Vec::new();
    let mut refused = 0u64;
    let mut next = 0usize;
    let mut steps: Vec<(&'static str, Instant, Instant)> = Vec::new();

    let start = Instant::now();
    let due: Vec<Instant> = arrivals.iter().map(|&a| start + Duration::from_secs_f64(a)).collect();
    let last_due = due.last().copied().unwrap_or(start);
    loop {
        let now = Instant::now();
        while next < n && due[next] <= now {
            let t = Instant::now();
            timelines[next].first_try.get_or_insert(t);
            let accepted = engine.submit(requests[next].clone()).is_ok();
            if tracer.on() {
                steps.push(("serve.submit", t, Instant::now()));
            }
            if !accepted {
                refused += 1;
                break;
            }
            fifo.push_back(next);
            next += 1;
        }
        if engine.active() > 0 || engine.queue_len() > 0 {
            let admit = (max_batch - engine.active().min(max_batch)).min(engine.queue_len());
            occupancy.push(engine.active() + admit);
            let p0 = Instant::now();
            engine.pump();
            let p1 = Instant::now();
            let pump = pumps.len();
            pumps.push((p0, p1));
            for _ in 0..admit {
                let i = fifo.pop_front().ok_or("engine admitted more than was queued")?;
                timelines[i].admitted = Some(pump);
            }
            let responses = engine.take_responses();
            for r in responses {
                let i = *index.get(r.id.as_str()).ok_or_else(|| format!("unknown id {}", r.id))?;
                let t = &mut timelines[i];
                t.done = Some(pump);
                t.responses += 1;
                t.response = Some(r);
            }
            if tracer.on() {
                steps.push(("serve.pump", p0, p1));
                steps.push(("serve.take_responses", p1, Instant::now()));
            }
        } else if next < n {
            // Spin rather than sleep: a sleeping generator would add the
            // scheduler's wake-up delay to every request it submits.
            let t = Instant::now();
            while Instant::now() < due[next] {
                std::hint::spin_loop();
            }
            if tracer.on() {
                steps.push(("serve.idle", t, Instant::now()));
            }
        } else {
            break;
        }
        if now > last_due + DRAIN_LIMIT {
            return Err(format!(
                "serve: {} requests still open {DRAIN_LIMIT:?} after the last arrival",
                n - done_count(&timelines)
            ));
        }
    }
    let end = Instant::now();
    if tracer.on() {
        let root = tracer.span("serve.run", 0, None, start, end);
        for (name, a, b) in steps {
            tracer.span(name, 0, root, a, b);
        }
        for (i, t) in timelines.iter().enumerate() {
            let (Some(a), Some(d)) = (t.admitted, t.done) else { continue };
            let g = i as u64 + 1;
            let req = tracer.record("serve.request", g, None, due[i], pumps[d].1, Lane::Async);
            tracer.record("serve.queue_wait", g, req, due[i], pumps[a].0, Lane::Async);
            tracer.record("serve.decode", g, req, pumps[a].0, pumps[d].1, Lane::Async);
        }
    }
    let stats = engine.cache_stats();
    Ok(LoopRun {
        due,
        timelines,
        pumps,
        occupancy,
        refused,
        wall: end - start,
        prefix: (stats.hits, stats.hits + stats.misses + stats.collisions),
    })
}

fn done_count(t: &[Timeline]) -> usize {
    t.iter().filter(|t| t.done.is_some()).count()
}

/// Latencies derived from a phase, in milliseconds, plus its verdicts.
#[derive(Debug, Default)]
pub struct Derived {
    /// Time to first token per completed request.
    pub ttft: Vec<f64>,
    /// Every gap between consecutive sampled tokens of a request.
    pub itl: Vec<f64>,
    /// Due-to-completion latency per completed request.
    pub latency: Vec<f64>,
    /// Due-to-admission wait per completed request.
    pub queue_wait: Vec<f64>,
    /// How late the generator first tried each submit.
    pub gen_late: Vec<f64>,
    /// Requests that met both SLO limits.
    pub slo_met: usize,
    /// Requests without exactly one response.
    pub unanswered: usize,
    /// Requests whose decoded-token count disagrees with the pumps the
    /// FIFO mirror attributes to them.
    pub misattributed: usize,
    /// Decode tokens over all responses.
    pub tokens: u64,
}

/// Derives TTFT, ITL, latency and the SLO verdicts from a phase.
pub fn derive(run: &LoopRun) -> Derived {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut out = Derived::default();
    for (i, t) in run.timelines.iter().enumerate() {
        if let Some(first) = t.first_try {
            out.gen_late.push(ms(first.saturating_duration_since(run.due[i])));
        }
        let (Some(a), Some(d), Some(r), 1) = (t.admitted, t.done, &t.response, t.responses) else {
            out.unanswered += 1;
            continue;
        };
        // Pumps a..=d each sampled one token: the output tokens, plus a
        // final <eos> when the model stopped itself.
        let sampled = (d + 1).saturating_sub(a) as u64;
        if d < a || sampled - u64::from(r.finish_reason == "eos") != r.decode_tokens {
            out.misattributed += 1;
            continue;
        }
        out.tokens += r.decode_tokens;
        let ttft = ms(run.pumps[a].1.saturating_duration_since(run.due[i]));
        let gaps: Vec<f64> = (a..d).map(|p| ms(run.pumps[p + 1].1 - run.pumps[p].1)).collect();
        out.ttft.push(ttft);
        out.latency.push(ms(run.pumps[d].1.saturating_duration_since(run.due[i])));
        out.queue_wait.push(ms(run.pumps[a].0.saturating_duration_since(run.due[i])));
        if ttft <= TTFT_LIMIT_MS && mean(&gaps).unwrap_or(0.0) <= ITL_LIMIT_MS {
            out.slo_met += 1;
        }
        out.itl.extend(gaps);
    }
    out
}

fn set_tailed(metrics: &mut Metrics, report: &mut Json, name: &str, xs: &[f64]) {
    if let Some(m) = median(xs) {
        metrics.set(&format!("serve.{name}_p50_ms"), m, "ms");
    }
    if let Some(t) = tail(xs) {
        metrics.set(&format!("serve.{name}_tail_ms"), t.value, "ms");
        report.raw(
            &format!("serve.{name}_tail_ms"),
            Json::default().num("percentile", t.percentile).int("samples", t.samples as u64).done(),
        );
    }
}

/// Phase metrics: the end-to-end view plus the engine-side layer view.
fn phase_metrics(run: &LoopRun, d: &Derived, metrics: &mut Metrics, report: &mut Json) {
    let sent = run.timelines.len();
    set_tailed(metrics, report, "ttft", &d.ttft);
    set_tailed(metrics, report, "itl", &d.itl);
    set_tailed(metrics, report, "latency", &d.latency);
    let pump_ms: Vec<f64> = run.pumps.iter().map(|(a, b)| (*b - *a).as_secs_f64() * 1e3).collect();
    set_tailed(metrics, report, "pump", &pump_ms);
    if let Some(m) = median(&d.queue_wait) {
        metrics.set("serve.queue_wait_p50_ms", m, "ms");
    }
    if let Some(p) = percentile(&d.gen_late, 99.0) {
        metrics.set("serve.gen_late_p99_ms", p, "ms");
    }
    let occ: Vec<f64> = run.occupancy.iter().map(|&o| o as f64).collect();
    metrics.set("serve.batch_occupancy_mean", mean(&occ).unwrap_or(0.0), "count");
    let slo = Ratio { num: d.slo_met as f64, den: sent as f64, base: "requests sent" };
    let busy = Ratio {
        num: pump_ms.iter().sum::<f64>() / 1e3,
        den: run.wall.as_secs_f64(),
        base: "phase wall seconds",
    };
    let prefix =
        Ratio { num: run.prefix.0 as f64, den: run.prefix.1 as f64, base: "prefix-cache lookups" };
    let failed = Ratio {
        num: (d.unanswered + d.misattributed) as f64,
        den: sent as f64,
        base: "requests sent",
    };
    metrics.set("serve.slo_attainment", slo.value(), "ratio");
    metrics.set("serve.busy_share", busy.value(), "ratio");
    metrics.set("serve.prefix_hit_ratio", prefix.value(), "ratio");
    metrics.set("serve.refused", run.refused as f64, "count");
    metrics.set("serve.tokens", d.tokens as f64, "count");
    report.raw(
        "ratios",
        Json::default()
            .raw("serve.slo_attainment", slo.to_json())
            .raw("serve.busy_share", busy.to_json())
            .raw("serve.prefix_hit_ratio", prefix.to_json())
            .raw("failed_ratio", failed.to_json())
            .done(),
    );
}

/// Whether the engine's completions, sorted by id, are byte-identical to
/// an offline [`replay`] of the same requests under the same config.
fn matches_replay(
    model: &Model,
    cfg: &ServeConfig,
    requests: &[ServeRequest],
    run: &LoopRun,
) -> bool {
    let mut got: Vec<ServeResponse> =
        run.timelines.iter().filter_map(|t| t.response.clone()).collect();
    let mut want = replay(&model.lm, &model.tk, cfg.clone(), requests).responses;
    got.sort_by(|a, b| a.id.cmp(&b.id));
    want.sort_by(|a, b| a.id.cmp(&b.id));
    responses_to_jsonl(&got) == responses_to_jsonl(&want)
}

/// Runs the `serve` workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (model, setup_times) = timed_setup(SETUP_REPEATS, || Ok(train_model()))?;
    let cfg = config();
    let mut report = Json::default();
    report.str("peak_rss_scope", reset_peak_rss());
    let mut untraced = Tracer::new(false);
    let mut tracer = Tracer::new(ctx.traced);
    let phases: Vec<(u64, f64, bool)> = if ctx.traced {
        vec![
            (stream_seed(ctx.seed, 10), ctx.seconds / 2.0, false),
            (stream_seed(ctx.seed, 11), ctx.seconds / 2.0, true),
        ]
    } else {
        vec![(stream_seed(ctx.seed, 10), ctx.seconds, false)]
    };

    let mut metrics = Metrics::default();
    let (mut attempted, mut failed, mut replay_ok) = (0u64, 0u64, true);
    let mut latency_p50 = Vec::new();
    let mut phase_reports = Vec::new();
    let mut slo_met = 0usize;
    for (seed, seconds, traced) in phases {
        let (arrivals, requests) = traffic(seed, seconds, &model);
        let t = if traced { &mut tracer } else { &mut untraced };
        let run = open_loop(&model, &cfg, &arrivals, &requests, t)?;
        let d = derive(&run);
        replay_ok &= matches_replay(&model, &cfg, &requests, &run);
        attempted += requests.len() as u64;
        failed += (d.unanswered + d.misattributed) as u64;
        slo_met += d.slo_met;
        latency_p50.push(median(&d.latency).ok_or("serve phase completed no request")?);
        // Per-phase metrics: the last (traced, when tracing) phase wins.
        let mut phase = Json::default();
        phase.bool("traced", traced).int("requests", requests.len() as u64);
        phase_metrics(&run, &d, &mut metrics, &mut phase);
        phase_reports.push(phase.done());
    }
    report.raw("phases", format!("[{}]", phase_reports.join(",")));
    if !replay_ok {
        failed = attempted;
    }

    report_setup(&setup_times, &mut metrics, &mut report);
    metrics.set("op_p50_ms", latency_p50[0], "ms");
    metrics.set(
        "slo_attainment",
        if replay_ok { slo_met as f64 / attempted as f64 } else { 0.0 },
        "ratio",
    );
    metrics.set("failed_ratio", failed as f64 / attempted as f64, "ratio");
    if ctx.traced {
        metrics.set("trace.overhead_ratio", latency_p50[1] / latency_p50[0], "ratio");
        report_coverage(&tracer, "serve.run", &mut metrics, &mut report);
    }
    report
        .bool("replay_identical", replay_ok)
        .num("offered_rps", RATE_RPS)
        .num("ttft_limit_ms", TTFT_LIMIT_MS)
        .num("itl_limit_ms", ITL_LIMIT_MS)
        .int("max_new_tokens", MAX_NEW_TOKENS as u64)
        .num("hot_share", HOT_SHARE);
    Ok(Outcome { attempted, failed, correct: failed == 0, metrics, report, tracer })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Model {
        let texts = [
            "module m ( input a , input b , output y ) ; assign y = a & b ; endmodule",
            "module c ( input clk , output reg q ) ; always @ ( posedge clk ) q <= ~ q ; endmodule",
        ];
        let tk = Tokenizer::build(texts.iter().copied(), 1);
        let cfg = ModelConfig {
            name: "serve-tiny".into(),
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            d_ff: 32,
            max_seq: 48,
            learning_rate: 1e-3,
            seed: 11,
        };
        let lm = TransformerLm::new(cfg, tk.vocab_size());
        Model { lm, tk, descriptions: vec!["adder".into()] }
    }

    #[test]
    fn ttft_and_itl_follow_fifo_admission_on_a_tiny_model() {
        let model = tiny();
        // A burst of ten requests at t = 0 into a two-wide batch: most
        // wait in the queue, so admission order is what attribution tests.
        let requests: Vec<ServeRequest> = (0..10)
            .map(|i| ServeRequest {
                id: format!("r{i:02}"),
                prompt: if i % 2 == 0 { "2:1 mux".into() } else { format!("adder {i}") },
                max_new_tokens: 3 + i % 4,
                temperature: 0.8,
            })
            .collect();
        let cfg =
            ServeConfig { max_batch: 2, queue_depth: 4, threads: 1, ..ServeConfig::default() };
        let arrivals = vec![0.0; requests.len()];
        let mut tracer = Tracer::new(true);
        let run = open_loop(&model, &cfg, &arrivals, &requests, &mut tracer).expect("loop drains");
        let d = derive(&run);
        assert_eq!(d.unanswered, 0, "one response per request");
        assert_eq!(d.misattributed, 0, "every token count matches its attributed pumps");
        assert!(run.refused > 0, "a depth-4 queue refuses part of a 10-request burst");
        // FIFO: admission pumps never decrease in submit order, and at
        // most two requests share an admission pump.
        let admitted: Vec<usize> =
            run.timelines.iter().map(|t| t.admitted.expect("admitted")).collect();
        assert!(admitted.windows(2).all(|w| w[0] <= w[1]), "{admitted:?}");
        assert!(run.occupancy.iter().all(|&o| (1..=2).contains(&o)));
        // The first token of request 0 lands at the end of pump 0.
        let first = run.pumps[0].1 - run.due[0];
        assert_eq!(d.ttft[0], first.as_secs_f64() * 1e3);
        // One gap per sampled token after the first.
        let sampled: usize = run
            .timelines
            .iter()
            .map(|t| t.done.expect("done") + 1 - t.admitted.expect("admitted"))
            .sum();
        assert_eq!(d.itl.len(), sampled - requests.len());
        assert!(
            matches_replay(&model, &cfg, &requests, &run),
            "completions equal the offline replay"
        );
        let cov = tracer.coverage("serve.run");
        assert_eq!(cov.len(), 1);
        assert!(cov[0] > 0.5, "the loop is mostly pumps: {cov:?}");
    }

    #[test]
    fn traffic_repeats_for_a_seed() {
        let model = tiny();
        let (a1, r1) = traffic(3, 0.5, &model);
        let (a2, r2) = traffic(3, 0.5, &model);
        assert_eq!(a1, a2);
        assert_eq!(r1, r2);
        assert!(r1
            .iter()
            .all(|r| r.max_new_tokens == MAX_NEW_TOKENS && r.temperature == TEMPERATURE));
    }
}
