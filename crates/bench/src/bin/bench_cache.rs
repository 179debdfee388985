//! Incremental-rebuild benchmark: cold vs warm vs 1%-mutated pipeline
//! runs against a content-addressed artifact cache, written to
//! `BENCH_cache.json`.
//!
//! The cache contract (tests/incremental_cache.rs) says the store is
//! invisible in the output; this binary measures how much wall time it
//! saves and re-checks the byte-identity claims on the benchmarked
//! corpus: cold, warm, and mutated-then-reverted runs at 1/2/8 threads
//! must all produce the same FNV digest. At Full scale
//! (`PYRANET_SCALE` unset) the warm/mutated speedups are asserted:
//! warm >= 5x cold, mutated >= 3x cold.

use pyranet::corpus::{CorpusBuilder, RawSample};
use pyranet::pipeline::persist::format_checksum;
use pyranet::pipeline::Pipeline;
use pyranet_bench::Scale;
use pyranet_exec::hash_bytes;
use serde::Serialize;
use std::path::Path;

/// Repeats per scenario; the fastest wall time is reported.
const REPEATS: usize = 3;
/// Thread counts the digest identity is re-checked at.
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

#[derive(Serialize)]
struct ScenarioReport {
    /// Wall seconds for the curation run (fastest repeat).
    secs: f64,
    /// Curation speedup versus the cold run.
    speedup_vs_cold: f64,
    /// `cache.hits` delta during the fastest repeat.
    cache_hits: u64,
    /// `cache.misses` delta during the fastest repeat.
    cache_misses: u64,
    /// `cache.writes` delta during the fastest repeat.
    cache_writes: u64,
    /// FNV digest of the curated dataset's JSONL bytes.
    digest: String,
}

#[derive(Serialize)]
struct BenchReport {
    /// `std::thread::available_parallelism()` on the benchmarking host.
    host_parallelism: u64,
    /// Files in the benchmarked pool.
    pool_files: u64,
    /// Samples mutated for the mutated scenario (~1% of the pool).
    mutated_samples: u64,
    /// Repeats per scenario (fastest wins).
    repeats: u64,
    /// Digest of the uncached reference run — every cached scenario on
    /// the unmutated pool must reproduce it.
    reference_digest: String,
    cold: ScenarioReport,
    warm: ScenarioReport,
    mutated: ScenarioReport,
    /// Warm run over the original pool after the mutated runs — proves
    /// the original artifacts stayed reachable.
    mutated_then_reverted: ScenarioReport,
    /// Warm-run digests at each of [`THREAD_SWEEP`] threads.
    thread_digests: Vec<String>,
}

fn digest(ds: &pyranet::PyraNetDataset) -> String {
    let mut buf = Vec::new();
    ds.to_jsonl(&mut buf).expect("serialize dataset");
    format_checksum(hash_bytes(&buf))
}

fn counter(name: &str) -> u64 {
    pyranet::obs::global().snapshot().counter(name).unwrap_or(0)
}

/// Times one cached curation run; returns (secs, hit/miss/write deltas,
/// digest).
fn timed_run(pool: &[RawSample], cache: &Path, threads: usize) -> (f64, [u64; 3], String) {
    let before = [counter("cache.hits"), counter("cache.misses"), counter("cache.writes")];
    let t = std::time::Instant::now();
    let outcome =
        Pipeline::new().threads(threads).cache_dir(cache.to_path_buf()).run(pool.to_vec());
    let secs = t.elapsed().as_secs_f64();
    let after = [counter("cache.hits"), counter("cache.misses"), counter("cache.writes")];
    (
        secs,
        [after[0] - before[0], after[1] - before[1], after[2] - before[2]],
        digest(&outcome.dataset),
    )
}

/// Fastest-of-[`REPEATS`] over a scenario. `fresh_store` empties the
/// cache dir before every repeat (cold) or reseeds it from `seed_store`
/// (mutated), so no repeat benefits from a previous repeat's writes.
fn scenario(
    pool: &[RawSample],
    cache: &Path,
    seed_store: Option<&Path>,
    fresh_store: bool,
    cold_secs: f64,
) -> ScenarioReport {
    let mut best: Option<(f64, [u64; 3], String)> = None;
    for _ in 0..REPEATS {
        if fresh_store {
            std::fs::remove_dir_all(cache).ok();
            if let Some(seed) = seed_store {
                copy_dir(seed, cache);
            }
        }
        let run = timed_run(pool, cache, 0);
        if best.as_ref().is_none_or(|(b, ..)| run.0 < *b) {
            best = Some(run);
        }
    }
    let (secs, [hits, misses, writes], digest) = best.expect("at least one repeat");
    ScenarioReport {
        secs,
        speedup_vs_cold: if secs > 0.0 { cold_secs / secs } else { 1.0 },
        cache_hits: hits,
        cache_misses: misses,
        cache_writes: writes,
        digest,
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy target");
    for entry in std::fs::read_dir(from).expect("read copy source") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy artifact");
        }
    }
}

/// Prepends a comment to ~1% of the pool — enough to dirty the mutated
/// samples' artifacts while everything else stays cache-hot.
fn mutate_one_percent(pool: &[RawSample]) -> (Vec<RawSample>, usize) {
    let step = pool.len().min(100);
    let mut mutated = pool.to_vec();
    let mut count = 0;
    for (i, sample) in mutated.iter_mut().enumerate() {
        if step > 0 && i % step == 0 {
            sample.source = format!("// benchmark mutation\n{}", sample.source);
            count += 1;
        }
    }
    (mutated, count)
}

fn main() {
    let scale = Scale::from_env();
    let opts = scale.build_options();
    let pool = CorpusBuilder::new(opts.seed)
        .scraped_files(opts.scraped_files)
        .llm_generation(false)
        .build()
        .samples;
    let n = pool.len();
    eprintln!("pool: {n} files; {REPEATS} repeats per scenario, fastest wins");

    let reference_digest = digest(&Pipeline::new().run(pool.clone()).dataset);
    let root = std::env::temp_dir().join(format!("pyranet-bench-cache-{}", std::process::id()));
    let store = root.join("store");
    let golden = root.join("golden");
    let scratch = root.join("scratch");

    // Cold: every repeat starts from an empty store.
    let cold = scenario(&pool, &store, None, true, 0.0);
    let cold = ScenarioReport { speedup_vs_cold: 1.0, ..cold };
    eprintln!(
        "cold: {:.3}s ({} miss(es), {} write(s))",
        cold.secs, cold.cache_misses, cold.cache_writes
    );

    // Golden store: one full populate pass, reused read-only below.
    std::fs::remove_dir_all(&store).ok();
    Pipeline::new().cache_dir(store.clone()).run(pool.clone());
    copy_dir(&store, &golden);

    // Warm: repeats against the populated store (pure hits, no writes).
    let warm = scenario(&pool, &store, None, false, cold.secs);
    eprintln!(
        "warm: {:.3}s ({:.1}x cold, {} hit(s))",
        warm.secs, warm.speedup_vs_cold, warm.cache_hits
    );
    assert_eq!(warm.cache_misses, 0, "warm run must not miss");
    assert_eq!(warm.digest, reference_digest, "warm run must be byte-identical to uncached");

    // Mutated: ~1% of samples edited; each repeat reseeds from the
    // golden store so the mutated artifacts are never pre-warmed.
    let (mutated_pool, mutated_samples) = mutate_one_percent(&pool);
    let mutated = scenario(&mutated_pool, &scratch, Some(&golden), true, cold.secs);
    eprintln!(
        "mutated ({mutated_samples} sample(s)): {:.3}s ({:.1}x cold, {} miss(es))",
        mutated.secs, mutated.speedup_vs_cold, mutated.cache_misses
    );
    let mutated_cold_digest = digest(&Pipeline::new().run(mutated_pool.clone()).dataset);
    assert_eq!(mutated.digest, mutated_cold_digest, "mutated run must match its own cold run");

    // Mutated-then-reverted: the scratch store has now seen both
    // generations; running the original pool again must reproduce the
    // reference digest from the surviving original artifacts.
    let mutated_then_reverted = scenario(&pool, &scratch, None, false, cold.secs);
    assert_eq!(
        mutated_then_reverted.digest, reference_digest,
        "reverted run must be byte-identical to the reference"
    );
    eprintln!(
        "reverted: {:.3}s ({:.1}x cold)",
        mutated_then_reverted.secs, mutated_then_reverted.speedup_vs_cold
    );

    // Thread sweep: warm digests at 1/2/8 threads all match.
    let thread_digests: Vec<String> = THREAD_SWEEP
        .iter()
        .map(|&threads| {
            let (_, _, d) = timed_run(&pool, &store, threads);
            assert_eq!(d, reference_digest, "threads={threads}: warm digest drifted");
            d
        })
        .collect();
    eprintln!("thread sweep {THREAD_SWEEP:?}: digests identical");

    if matches!(scale, Scale::Full) {
        assert!(
            warm.speedup_vs_cold >= 5.0,
            "warm rebuild must be >=5x cold (got {:.2}x)",
            warm.speedup_vs_cold
        );
        assert!(
            mutated.speedup_vs_cold >= 3.0,
            "1%-mutated rebuild must be >=3x cold (got {:.2}x)",
            mutated.speedup_vs_cold
        );
    }

    std::fs::remove_dir_all(&root).ok();
    let report = BenchReport {
        host_parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()) as u64,
        pool_files: n as u64,
        mutated_samples: mutated_samples as u64,
        repeats: REPEATS as u64,
        reference_digest,
        cold,
        warm,
        mutated,
        mutated_then_reverted,
        thread_digests,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write("BENCH_cache.json", &json).expect("write BENCH_cache.json");
    println!("{json}");
    eprintln!("wrote BENCH_cache.json");
}
