//! `curate`: one op is one cold build of a fresh pool through the §III-A
//! curation pyramid, then a per-layer shard export and re-import.

use super::{ClosedLoop, Ctx, OpResult, THREADS};
use crate::report::{Json, Metrics, Ratio};
use crate::stats::{fnv64, median, FNV_OFFSET};
use crate::trace::Tracer;
use pyranet::BuildOptions;
use pyranet_corpus::{CorpusBuilder, CorpusPool};
use pyranet_exec::{stream_seed, ExecConfig};
use pyranet_pipeline::{Funnel, Pipeline, PyraNetDataset, ShardSpec};
use std::path::PathBuf;
use std::time::Instant;

/// FNV-1a 64 of the JSONL-rendered dataset curated from the pool at
/// `BuildOptions::default().seed` (2400 scraped files plus LLM
/// generation). Any change to corpus generation or curation output moves
/// it.
pub const PINNED_DEFAULT_DIGEST: u64 = 0xc1bb_813e_ec14_9617;

/// The default pool for `seed`: `BuildOptions::default()` sizes.
pub fn pool(seed: u64) -> CorpusPool {
    let o = BuildOptions::default();
    CorpusBuilder::new(seed)
        .scraped_files(o.scraped_files)
        .llm_generation(o.llm_generation)
        .threads(THREADS)
        .build()
}

/// The uncached pipeline with the default dedup threshold.
pub fn pipeline() -> Pipeline {
    Pipeline::new().jaccard_threshold(BuildOptions::default().jaccard_threshold).threads(THREADS)
}

/// FNV-1a 64 of a dataset's JSONL bytes.
pub fn digest(ds: &PyraNetDataset) -> Result<u64, String> {
    let mut bytes = Vec::new();
    ds.to_jsonl(&mut bytes).map_err(|e| format!("render dataset: {e}"))?;
    Ok(fnv64(FNV_OFFSET, &bytes))
}

/// Funnel conservation: every collected file is curated or rejected by
/// exactly one stage.
pub fn funnel_conserved(f: &Funnel, collected: usize, curated: usize) -> bool {
    f.collected == collected
        && f.curated == curated
        && f.collected
            == f.curated
                + f.rejected_broken
                + f.rejected_no_module
                + f.rejected_duplicates
                + f.rejected_syntax
                + f.rejected_sim
}

fn by_id(ds: &PyraNetDataset) -> Vec<&pyranet_pipeline::CuratedSample> {
    let mut v: Vec<_> = ds.iter().collect();
    v.sort_by_key(|s| s.id);
    v
}

/// Counts of op 0, which repeat exactly for a seed.
#[derive(Debug, Clone, Copy, Default)]
struct FirstOp {
    files: usize,
    duplicates: usize,
    curated: usize,
    shard_bytes: u64,
}

/// The `curate` workload state.
pub struct Curate {
    seed: u64,
    shards: PathBuf,
    exec: ExecConfig,
    first: Option<FirstOp>,
}

impl ClosedLoop for Curate {
    const OP_METRIC: &'static str = "curate.build_s";
    const SETUP_REPEATS: usize = 5;

    /// Prepares the shard directory and runs one warm-up op, so page
    /// cache, allocator and thread start-up costs land here.
    fn setup(ctx: &Ctx) -> Result<Curate, String> {
        let shards = ctx.work.join("shards");
        std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
        let mut c = Curate {
            seed: ctx.seed,
            shards,
            exec: ExecConfig::new().threads(THREADS),
            first: None,
        };
        c.op(ctx, u64::MAX, &mut Tracer::new(false))?;
        Ok(c)
    }

    fn op(&mut self, _ctx: &Ctx, index: u64, tracer: &mut Tracer) -> Result<OpResult, String> {
        let t0 = Instant::now();
        let pool = pool(stream_seed(self.seed, index));
        let files = pool.samples.len();
        let t1 = Instant::now();
        let (outcome, timings) = pipeline().run_timed(pool.samples);
        let t2 = Instant::now();
        if self.shards.exists() {
            std::fs::remove_dir_all(&self.shards).map_err(|e| format!("clear shards: {e}"))?;
        }
        let manifest = outcome
            .dataset
            .to_shards(&self.shards, ShardSpec::PerLayer, &self.exec)
            .map_err(|e| format!("to_shards: {e}"))?;
        let t3 = Instant::now();
        let back = PyraNetDataset::from_shards(&self.shards, &self.exec)
            .map_err(|e| format!("from_shards: {e}"))?;
        let t4 = Instant::now();

        if tracer.on() {
            let op = tracer.span("op", index, None, t0, t4);
            tracer.span("corpus.generate", index, op, t0, t1);
            let run = tracer.span("pipeline.run", index, op, t1, t2);
            tracer.sequence(
                index,
                run,
                t1,
                &[
                    ("pipeline.broken", timings.broken),
                    ("pipeline.no_module", timings.no_module),
                    ("pipeline.dedup", timings.dedup),
                    ("pipeline.syntax_rank", timings.syntax_rank),
                ],
            );
            tracer.span("persist.export", index, op, t2, t3);
            tracer.span("persist.import", index, op, t3, t4);
        }

        let funnel_ok = funnel_conserved(&outcome.funnel, files, outcome.dataset.len());
        let round_trip_ok = by_id(&back) == by_id(&outcome.dataset);
        if index == 0 {
            self.first = Some(FirstOp {
                files,
                duplicates: outcome.funnel.rejected_duplicates,
                curated: outcome.dataset.len(),
                shard_bytes: manifest.shards.iter().map(|s| s.bytes).sum(),
            });
        }
        Ok(OpResult { wall: (t4 - t0).as_secs_f64(), ok: funnel_ok && round_trip_ok })
    }

    fn finish(
        &mut self,
        _ctx: &Ctx,
        tracer: &Tracer,
        metrics: &mut Metrics,
        report: &mut Json,
    ) -> Result<bool, String> {
        // The pinned digest: the default-seed pool, curated uncached.
        let reference = pipeline().run(pool(BuildOptions::default().seed).samples);
        let got = digest(&reference.dataset)?;
        let pinned_ok = got == PINNED_DEFAULT_DIGEST;
        report
            .str("default_seed_digest", &format!("{got:016x}"))
            .str("pinned_digest", &format!("{PINNED_DEFAULT_DIGEST:016x}"))
            .bool("pinned_digest_ok", pinned_ok);

        let first = self.first.ok_or("op 0 never ran")?;
        let curated = Ratio {
            num: first.curated as f64,
            den: first.files as f64,
            base: "files collected by op 0",
        };
        metrics.set("corpus.files", first.files as f64, "count");
        metrics.set("pipeline.duplicates", first.duplicates as f64, "count");
        metrics.set("pipeline.curated_ratio", curated.value(), "ratio");
        metrics.set("persist.bytes", first.shard_bytes as f64, "B");
        report
            .raw("ratios", Json::default().raw("pipeline.curated_ratio", curated.to_json()).done());

        for (span, metric) in [
            ("corpus.generate", "corpus.generate_s"),
            ("pipeline.run", "pipeline.run_s"),
            ("pipeline.broken", "pipeline.broken_s"),
            ("pipeline.no_module", "pipeline.no_module_s"),
            ("pipeline.dedup", "pipeline.dedup_s"),
            ("pipeline.syntax_rank", "pipeline.syntax_rank_s"),
            ("persist.export", "persist.export_s"),
            ("persist.import", "persist.import_s"),
        ] {
            if let Some(m) = median(&tracer.durations(span)) {
                metrics.set(metric, m, "s");
            }
        }
        Ok(pinned_ok)
    }
}
