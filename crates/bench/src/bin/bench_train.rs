//! Model-hot-path benchmark: measures training and generation throughput
//! (tokens/sec) and writes `BENCH_train.json`.
//!
//! The training path is timed once per f32 kernel family — the exact
//! `blocked` default and the lane-split `simd` opt-in. Both run the same
//! register-tiled core for `matmul`/`matmul_tn`, so the speedup measures
//! only what `simd`'s lane-split `matmul_nt`, row sweeps and polynomial
//! exp buy. Blocked is bit-identical to the naive test-only oracle
//! kernels and simd is deterministic (tests/determinism.rs and the model
//! crate's property tests enforce both).
//!
//! Honours `PYRANET_SCALE` (`quick` for the CI smoke run, `full` default).

use pyranet::corpus::CorpusBuilder;
use pyranet::model::tensor::KernelMode;
use pyranet::model::transformer::TrainExample;
use pyranet::model::{Adam, ModelConfig, SampleOptions, TransformerLm};
use pyranet::pipeline::Pipeline;
use pyranet::train::{build_tokenizer, to_examples, TrainConfig};
use pyranet_bench::Scale;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct PathReport {
    /// Kernel family the path ran with.
    kernel: String,
    /// Wall seconds (fastest repeat).
    secs: f64,
    /// Tokens pushed through the path.
    tokens: u64,
    /// Throughput.
    tokens_per_sec: f64,
}

#[derive(Serialize)]
struct BenchReport {
    /// `std::thread::available_parallelism()` on the benchmarking host.
    host_parallelism: u64,
    /// Training examples per timed pass.
    train_examples: u64,
    /// Batch size used on the train path.
    batch_size: u64,
    /// Repeats per measurement (fastest wins).
    repeats: u64,
    /// SFT micro-budget training with the blocked kernels (default mode).
    train_blocked: PathReport,
    /// Same workload with the lane-split simd kernels.
    train_simd: PathReport,
    /// Simd-family training speedup over the blocked family.
    speedup_simd_vs_blocked: f64,
    /// Greedy generation with the KV cache (blocked kernels).
    generate: PathReport,
}

fn path(kernel: KernelMode, secs: f64, tokens: usize) -> PathReport {
    PathReport {
        kernel: kernel.to_string(),
        secs,
        tokens: tokens as u64,
        tokens_per_sec: if secs > 0.0 { tokens as f64 / secs } else { 0.0 },
    }
}

/// One full timed pass over `examples`: fresh model + optimizer with the
/// requested kernel family, every batch stepped once. Returns
/// (wall seconds, tokens processed).
fn timed_train_pass(
    cfg: &ModelConfig,
    vocab: usize,
    examples: &[TrainExample],
    tcfg: &TrainConfig,
    mode: KernelMode,
) -> (f64, usize) {
    let mut lm = TransformerLm::new(cfg.clone(), vocab);
    lm.set_kernels(mode);
    let mut opt = Adam::new(lm.trainable_count(), tcfg.learning_rate);
    let tokens: usize = examples.iter().map(|e| e.ids.len()).sum();
    let start = Instant::now();
    for batch in examples.chunks(tcfg.batch_size) {
        lm.train_step(batch, &mut opt);
    }
    (start.elapsed().as_secs_f64(), tokens)
}

fn main() {
    let scale = Scale::from_env();
    let (files, train_examples, repeats, gen_prompts, max_new) = match scale {
        Scale::Quick => (150, 12, 2, 4, 24),
        Scale::Full => (400, 48, 5, 12, 64),
    };

    let pool = CorpusBuilder::new(11).scraped_files(files).llm_generation(false).build();
    let ds = Pipeline::new().run(pool.samples).dataset;
    let tk = build_tokenizer(ds.iter());
    let mut examples = to_examples(ds.iter(), &tk, 1.0);
    examples.truncate(train_examples);
    let cfg = ModelConfig {
        name: "bench".into(),
        d_model: 32,
        n_layers: 2,
        n_heads: 4,
        d_ff: 64,
        max_seq: 160,
        learning_rate: 3e-3,
        seed: 11,
    };
    let tcfg = TrainConfig { batch_size: 8, ..TrainConfig::default() };
    eprintln!(
        "train path: {} examples, batch size {}, {repeats} repeats per kernel mode",
        examples.len(),
        tcfg.batch_size
    );

    let measure = |mode: KernelMode| -> PathReport {
        let mut best = f64::INFINITY;
        let mut tokens = 0usize;
        for _ in 0..repeats {
            let (secs, t) = timed_train_pass(&cfg, tk.vocab_size(), &examples, &tcfg, mode);
            tokens = t;
            if secs < best {
                best = secs;
            }
        }
        path(mode, best, tokens)
    };
    let train_blocked = measure(KernelMode::Blocked);
    let train_simd = measure(KernelMode::Simd);
    let speedup_simd =
        if train_simd.secs > 0.0 { train_blocked.secs / train_simd.secs } else { 1.0 };
    eprintln!(
        "train: simd {:.3}s vs blocked {:.3}s ({speedup_simd:.2}x)",
        train_simd.secs, train_blocked.secs
    );

    // Generation throughput: train briefly so sampling is non-degenerate,
    // then time greedy decoding over a handful of dataset prompts.
    let mut lm = TransformerLm::new(cfg.clone(), tk.vocab_size());
    let mut opt = Adam::new(lm.trainable_count(), tcfg.learning_rate);
    for batch in examples.chunks(tcfg.batch_size) {
        lm.train_step(batch, &mut opt);
    }
    let opts = SampleOptions { temperature: 0.0, ..SampleOptions::default() };
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let prompts: Vec<Vec<usize>> = examples
        .iter()
        .take(gen_prompts)
        .map(|e| e.ids[..e.code_start.min(e.ids.len())].to_vec())
        .collect();
    let mut best = f64::INFINITY;
    let mut gen_tokens = 0usize;
    for _ in 0..repeats {
        let start = Instant::now();
        let mut produced = 0usize;
        for p in &prompts {
            produced += p.len() + lm.generate(p, max_new, &opts, &mut rng).len();
        }
        let secs = start.elapsed().as_secs_f64();
        gen_tokens = produced;
        if secs < best {
            best = secs;
        }
    }
    let generate = path(KernelMode::Blocked, best, gen_tokens);
    eprintln!("generate: {:.3}s, {:.0} tokens/sec", generate.secs, generate.tokens_per_sec);

    let report = BenchReport {
        host_parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()) as u64,
        train_examples: examples.len() as u64,
        batch_size: tcfg.batch_size as u64,
        repeats: repeats as u64,
        train_blocked,
        train_simd,
        speedup_simd_vs_blocked: speedup_simd,
        generate,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write("BENCH_train.json", &json).expect("write BENCH_train.json");
    println!("{json}");
    eprintln!("wrote BENCH_train.json");
}
