//! Inference-engine benchmark: the n-samples-per-problem pass@k workload
//! timed in both session kernel families, written to `BENCH_eval.json`.
//!
//! * **session** — `DecodeSession`: one shared prefill per problem, the
//!   KV cache forked (borrowed, not copied) across the n samples, all
//!   live sequences decoded in lock-step batches through the blocked
//!   kernels.
//! * **session_int8** — the same session engine in the `int8` kernel
//!   family: effective weights absmax-quantized once at session build,
//!   matmuls accumulated in i32. Its sampled ids legitimately differ
//!   from f32 (quantization perturbs the logits — parity is gated at the
//!   pass@k level in `tests/quant_parity.rs`, not per token), so its
//!   speedup is reported as a tokens/sec ratio over its own token count.
//!
//! Both paths run single-threaded on the harness's per-sample RNG
//! streams. The f32 session is pinned bit-identical to the naive
//! per-sample decode loop by the model crate's unit tests, so its ids are
//! the harness's ids. Tokens/sec counts *decode* (completion) tokens
//! only, so shared prefill shows up as faster wall time over the same
//! token count rather than inflating the numerator.
//!
//! Honours `PYRANET_SCALE` (`quick` for the CI smoke run, `full` default).

use pyranet::eval::testbench::golden_source;
use pyranet::eval::{
    machine_split, sample_temperature, CheckStrategy, ProblemBench, SimMode, SimStats,
    DEFAULT_MAX_EQ_INPUTS,
};
use pyranet::model::decode::DecodeSession;
use pyranet::model::{KernelMode, ModelConfig, SampleOptions, Tokenizer, TransformerLm};
use pyranet_bench::Scale;
use pyranet_exec::stream_seed_str;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct PathReport {
    /// Kernel family the path decoded with.
    kernel: String,
    /// Wall seconds (fastest repeat, summed across problems).
    secs: f64,
    /// Decode (completion) tokens produced.
    tokens: u64,
    /// Decode throughput.
    tokens_per_sec: f64,
}

#[derive(Serialize)]
struct PerProblem {
    /// Problem id.
    id: String,
    /// Forced prompt tokens (description + module header).
    prompt_tokens: u64,
    /// Completion tokens across the n samples.
    decode_tokens: u64,
    /// Fastest session wall time.
    session_secs: f64,
    /// Completion tokens across the n samples on the int8 path (may
    /// differ from `decode_tokens`: quantization perturbs the logits).
    int8_tokens: u64,
    /// Fastest int8 session wall time.
    int8_secs: f64,
}

#[derive(Serialize)]
struct EquivalenceReport {
    /// Problems swept (golden vs golden, so every verdict is Pass).
    problems: u64,
    /// Checks that ran the exhaustive input sweep.
    exhaustive: u64,
    /// Checks that fell back to stimulus vectors (sequential or over the
    /// input-bit cap).
    fallback: u64,
    /// Total input vectors driven across both backends.
    vectors: u64,
    /// Wall seconds (fastest repeat).
    secs: f64,
    /// Vector throughput.
    vectors_per_sec: f64,
}

#[derive(Serialize)]
struct BenchReport {
    /// `std::thread::available_parallelism()` on the benchmarking host.
    host_parallelism: u64,
    /// Problems in the workload.
    problems: u64,
    /// Samples per problem (the pass@k n).
    samples_per_problem: u64,
    /// Max new tokens per completion.
    max_new_tokens: u64,
    /// Repeats per measurement (fastest wins).
    repeats: u64,
    /// Shared-prefill, batched `DecodeSession`.
    session: PathReport,
    /// The same session engine with int8-quantized weights.
    session_int8: PathReport,
    /// Int8 session decode throughput over the f32 session (tokens/sec
    /// ratio — the two paths produce different token counts).
    speedup_int8_vs_session: f64,
    /// Equivalence-mode functional scoring (`eval --check equivalence`):
    /// golden designs checked against themselves with the exhaustive
    /// input sweep, bounded by the default input-bit cap.
    equivalence: EquivalenceReport,
    /// Per-problem wall times.
    per_problem: Vec<PerProblem>,
}

fn path(kernel: &str, secs: f64, tokens: u64) -> PathReport {
    PathReport {
        kernel: kernel.to_owned(),
        secs,
        tokens,
        tokens_per_sec: if secs > 0.0 { tokens as f64 / secs } else { 0.0 },
    }
}

fn main() {
    let scale = Scale::from_env();
    let (n_problems, n_samples, max_new, repeats) = match scale {
        Scale::Quick => (4usize, 6u32, 32usize, 2usize),
        Scale::Full => (10, 10, 96, 3),
    };

    // An eval-sized model (bigger than the train bench's: inference is
    // cheap enough per token that a realistic depth/width is affordable
    // and makes the prefill/batching wins representative). Untrained
    // weights are fine — the workload's shape, not its output, is timed.
    let problems: Vec<_> = machine_split().into_iter().take(n_problems).collect();
    let corpus: Vec<String> =
        problems.iter().map(|p| format!("{} {}", p.prompt(), p.header())).collect();
    let tk = Tokenizer::build(corpus.iter().map(String::as_str), 1);
    let cfg = ModelConfig {
        name: "bench-eval".into(),
        d_model: 128,
        n_layers: 3,
        n_heads: 4,
        d_ff: 256,
        max_seq: 384,
        learning_rate: 1e-3,
        seed: 11,
    };
    let lm = TransformerLm::new(cfg, tk.vocab_size());

    // The exact harness workload: header forced as a generation prefix,
    // per-sample temperature cycle, per-sample RNG streams.
    let seed = 0xEA_11u64;
    let mut per_problem = Vec::new();
    let (mut session_secs, mut int8_secs) = (0.0f64, 0.0f64);
    let (mut decode_tokens, mut int8_tokens) = (0u64, 0u64);
    for problem in &problems {
        let header_ids = tk.encode(&problem.header());
        let mut prompt = tk.encode_prompt(&problem.prompt());
        prompt.extend_from_slice(&header_ids);
        let sample_opts: Vec<SampleOptions> = (0..n_samples)
            .map(|i| SampleOptions { temperature: sample_temperature(i, n_samples, 0.5), top_k: 0 })
            .collect();
        let rngs = || -> Vec<ChaCha8Rng> {
            (0..n_samples)
                .map(|i| {
                    ChaCha8Rng::seed_from_u64(stream_seed_str(seed, &format!("{}#{i}", problem.id)))
                })
                .collect()
        };

        let mut best_session = f64::INFINITY;
        let mut session_out: Vec<Vec<usize>> = Vec::new();
        for _ in 0..repeats {
            let mut rngs = rngs();
            let start = Instant::now();
            let mut session = DecodeSession::new(&lm);
            let prefix = session.prefill(&prompt, max_new);
            let gens = session.decode_batch(&prefix, max_new, &sample_opts, &mut rngs);
            best_session = best_session.min(start.elapsed().as_secs_f64());
            session_out = gens.into_iter().map(|g| g.ids).collect();
        }

        let mut best_int8 = f64::INFINITY;
        let mut int8_out: Vec<Vec<usize>> = Vec::new();
        for _ in 0..repeats {
            let mut rngs = rngs();
            let start = Instant::now();
            let mut session = DecodeSession::new_with(&lm, KernelMode::QuantizedInt8);
            let prefix = session.prefill(&prompt, max_new);
            let gens = session.decode_batch(&prefix, max_new, &sample_opts, &mut rngs);
            best_int8 = best_int8.min(start.elapsed().as_secs_f64());
            int8_out = gens.into_iter().map(|g| g.ids).collect();
        }

        let tokens: u64 = session_out.iter().map(|b| b.len() as u64).sum();
        let q_tokens: u64 = int8_out.iter().map(|b| b.len() as u64).sum();
        eprintln!(
            "{:<24} prompt {:>3} tok, {tokens:>4} decode tok: session {best_session:.3}s, \
             int8 {q_tokens:>4} tok {best_int8:.3}s",
            problem.id,
            prompt.len(),
        );
        session_secs += best_session;
        int8_secs += best_int8;
        decode_tokens += tokens;
        int8_tokens += q_tokens;
        per_problem.push(PerProblem {
            id: problem.id.clone(),
            prompt_tokens: prompt.len() as u64,
            decode_tokens: tokens,
            session_secs: best_session,
            int8_tokens: q_tokens,
            int8_secs: best_int8,
        });
    }

    let session = path("blocked", session_secs, decode_tokens);
    let session_int8 = path("int8", int8_secs, int8_tokens);
    let speedup_int8 = if session.tokens_per_sec > 0.0 {
        session_int8.tokens_per_sec / session.tokens_per_sec
    } else {
        1.0
    };
    eprintln!("total: session {:.3}s ({:.0} tok/s)", session.secs, session.tokens_per_sec);
    eprintln!(
        "total: int8 session {:.3}s ({:.0} tok/s) — {speedup_int8:.2}x f32 session tokens/sec",
        session_int8.secs, session_int8.tokens_per_sec
    );

    // Equivalence-mode scoring row: drive every golden design against
    // itself with the exhaustive-sweep strategy. Pure simulator work — no
    // decode happens here, so the decode.* counters audited below are
    // untouched by this section.
    let mut eq_secs = f64::INFINITY;
    let mut eq_stats = SimStats::default();
    for _ in 0..repeats {
        let start = Instant::now();
        let mut stats = SimStats::default();
        for problem in &problems {
            let golden = golden_source(&problem.family);
            let mut bench = ProblemBench::new_with_check(
                &problem.family,
                SimMode::Compiled,
                CheckStrategy::Equivalence { max_input_bits: DEFAULT_MAX_EQ_INPUTS },
            );
            let v = bench.check(&golden);
            assert!(v.is_pass(), "golden design fails self-equivalence on {}", problem.id);
            stats.merge(&bench.stats);
        }
        eq_secs = eq_secs.min(start.elapsed().as_secs_f64());
        eq_stats = stats;
    }
    let equivalence = EquivalenceReport {
        problems: problems.len() as u64,
        exhaustive: eq_stats.exhaustive_checks,
        fallback: eq_stats.fallback_checks,
        vectors: eq_stats.vectors,
        secs: eq_secs,
        vectors_per_sec: if eq_secs > 0.0 { eq_stats.vectors as f64 / eq_secs } else { 0.0 },
    };
    assert_eq!(
        equivalence.exhaustive + equivalence.fallback,
        equivalence.problems,
        "every problem resolves to exactly one strategy"
    );
    eprintln!(
        "equivalence: {} problem(s), {} exhaustive / {} fallback, {} vectors in {:.3}s \
         ({:.0} vec/s)",
        equivalence.problems,
        equivalence.exhaustive,
        equivalence.fallback,
        equivalence.vectors,
        equivalence.secs,
        equivalence.vectors_per_sec
    );

    let report = BenchReport {
        host_parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()) as u64,
        problems: problems.len() as u64,
        samples_per_problem: u64::from(n_samples),
        max_new_tokens: max_new as u64,
        repeats: repeats as u64,
        session,
        session_int8,
        speedup_int8_vs_session: speedup_int8,
        equivalence,
        per_problem,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write("BENCH_eval.json", &json).expect("write BENCH_eval.json");
    println!("{json}");
    eprintln!("wrote BENCH_eval.json");

    // The session path runs through the instrumented engine, so the global
    // registry must have seen every fork and decode token (`repeats`
    // passes per problem). Export the snapshot next to the wall-time
    // report and cross-check it against the independent count above.
    let snap = pyranet::obs::global().snapshot();
    let forks = snap.counter("decode.forks").unwrap_or(0);
    let engine_tokens = snap.counter("decode.tokens").unwrap_or(0);
    // Both instrumented session paths (f32 and int8) fork n_samples
    // sequences per repeat per problem.
    assert_eq!(
        forks,
        report.problems * report.samples_per_problem * report.repeats * 2,
        "every repeat of both session paths forks n_samples sequences"
    );
    assert_eq!(
        engine_tokens,
        (decode_tokens + int8_tokens) * report.repeats,
        "engine token count drifted"
    );
    std::fs::write("BENCH_eval_metrics.json", snap.to_json()).expect("write metrics snapshot");
    eprintln!("wrote BENCH_eval_metrics.json ({} metric(s))", snap.entries.len());
}
