//! `rebuild`: incremental rebuilds through the artifact cache. Set-up
//! generates one pool and a fresh store is primed with a cold cached
//! build of it; each op edits a fixed share of that pool's files and
//! reruns the cached pipeline.

use super::curate::{digest, funnel_conserved, pipeline};
use super::{dir_bytes, ClosedLoop, Ctx, OpResult, THREADS};
use crate::report::{Json, Metrics, Ratio};
use crate::stats::median;
use crate::trace::Tracer;
use pyranet_corpus::{CorpusBuilder, RawSample};
use pyranet_exec::stream_seed;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Share of the pool's files each op edits.
pub const EDIT_SHARE: f64 = 0.02;

/// Every this many ops (from op 0), one op's output is compared with an
/// uncached run over the same edited pool.
const GATE_EVERY: u64 = 10;

/// Stream tag separating the pool seed from the per-op edit seeds.
const POOL_STREAM: u64 = 0x5EB0_0001;

/// Scraped files in the rebuild pool (plus LLM generation): the
/// full-scale pool size of the incremental-cache bench. Priming writes
/// one store entry per sample and stage, so this size sets how much
/// file-system work set-up does.
pub const POOL_FILES: usize = 1200;

/// The rebuild pool for `seed`.
pub fn pool(seed: u64) -> Vec<RawSample> {
    CorpusBuilder::new(seed).scraped_files(POOL_FILES).threads(THREADS).build().samples
}

/// The pool with `EDIT_SHARE` of its files edited for op `index`: a
/// comment naming the op is appended, so the content hash changes while
/// the design stays the same.
pub fn edited(base: &[RawSample], seed: u64, index: u64) -> Vec<RawSample> {
    let mut pool = base.to_vec();
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(stream_seed(seed, index)));
    let n = (EDIT_SHARE * pool.len() as f64).round() as usize;
    for &i in &order[..n] {
        pool[i].source.push_str(&format!("\n// rebuild edit {index}\n"));
    }
    pool
}

struct Counters {
    hits: pyranet_obs::Counter,
    misses: pyranet_obs::Counter,
    invalid: pyranet_obs::Counter,
    writes: pyranet_obs::Counter,
}

impl Counters {
    fn resolve() -> Counters {
        let obs = pyranet_obs::global();
        Counters {
            hits: obs.counter("cache.hits"),
            misses: obs.counter("cache.misses"),
            invalid: obs.counter("cache.invalidated"),
            writes: obs.counter("cache.writes"),
        }
    }

    fn read(&self) -> [u64; 4] {
        [self.hits.get(), self.misses.get(), self.invalid.get(), self.writes.get()]
    }
}

/// Cache counts of op 0, which repeat exactly for a seed.
#[derive(Debug, Clone, Copy)]
struct FirstOp {
    hits: u64,
    lookups: u64,
    writes: u64,
    store_bytes: u64,
}

/// The `rebuild` workload state.
pub struct Rebuild {
    seed: u64,
    base: Vec<RawSample>,
    store: PathBuf,
    counters: Counters,
    first: Option<FirstOp>,
    gates: u64,
}

impl Drop for Rebuild {
    /// Removes the store, so stores do not pile up on disk.
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.store).ok();
    }
}

impl ClosedLoop for Rebuild {
    const OP_METRIC: &'static str = "rebuild.build_s";
    const SETUP_REPEATS: usize = 5;

    /// Generates the pool.
    fn setup(ctx: &Ctx) -> Result<Rebuild, String> {
        static STORES: AtomicUsize = AtomicUsize::new(0);
        let store = ctx.work.join(format!("store-{}", STORES.fetch_add(1, Ordering::Relaxed)));
        Ok(Rebuild {
            seed: ctx.seed,
            base: pool(stream_seed(ctx.seed, POOL_STREAM)),
            store,
            counters: Counters::resolve(),
            first: None,
            gates: 0,
        })
    }

    /// Primes a fresh store with a cold cached build: the all-writes
    /// path, one file per sample and stage. Its wall time is
    /// `cache.prime_s`, outside `setup_s`: on the reference host the same
    /// priming took 0.3 s in one run and 3.5 s in the next (kernel time in
    /// file creation), which no bound on `setup_s` could absorb.
    fn prepare(&mut self, metrics: &mut Metrics) -> Result<(), String> {
        let writes = self.counters.read()[3];
        let t = Instant::now();
        pipeline().cache_dir(self.store.clone()).run(self.base.clone());
        metrics.set("cache.prime_s", t.elapsed().as_secs_f64(), "s");
        metrics.set("cache.prime_writes", (self.counters.read()[3] - writes) as f64, "count");
        Ok(())
    }

    fn op(&mut self, _ctx: &Ctx, index: u64, tracer: &mut Tracer) -> Result<OpResult, String> {
        let pool = edited(&self.base, self.seed, index);
        let gate = index.is_multiple_of(GATE_EVERY);
        let reference_input = gate.then(|| pool.clone());
        let files = pool.len();
        let before = self.counters.read();

        let t0 = Instant::now();
        let (outcome, timings) = pipeline().cache_dir(self.store.clone()).run_timed(pool);
        let t1 = Instant::now();

        if tracer.on() {
            let op = tracer.span("op", index, None, t0, t1);
            let run = tracer.span("pipeline.run", index, op, t0, t1);
            tracer.sequence(
                index,
                run,
                t0,
                &[
                    ("pipeline.broken", timings.broken),
                    ("pipeline.no_module", timings.no_module),
                    ("pipeline.dedup", timings.dedup),
                    ("pipeline.syntax_rank", timings.syntax_rank),
                ],
            );
        }
        let after = self.counters.read();
        let mut ok = funnel_conserved(&outcome.funnel, files, outcome.dataset.len());
        if let Some(input) = reference_input {
            let reference = pipeline().run(input);
            ok &= digest(&reference.dataset)? == digest(&outcome.dataset)?
                && reference.funnel == outcome.funnel;
            self.gates += 1;
        }
        if index == 0 {
            let d = |i: usize| after[i] - before[i];
            self.first = Some(FirstOp {
                hits: d(0),
                lookups: d(0) + d(1) + d(2),
                writes: d(3),
                store_bytes: dir_bytes(&self.store).map_err(|e| format!("store size: {e}"))?,
            });
        }
        Ok(OpResult { wall: (t1 - t0).as_secs_f64(), ok })
    }

    fn finish(
        &mut self,
        _ctx: &Ctx,
        tracer: &Tracer,
        metrics: &mut Metrics,
        report: &mut Json,
    ) -> Result<bool, String> {
        let first = self.first.ok_or("op 0 never ran")?;
        let hit = Ratio {
            num: first.hits as f64,
            den: first.lookups as f64,
            base: "cache lookups in op 0",
        };
        metrics.set("cache.hit_ratio", hit.value(), "ratio");
        metrics.set("cache.writes", first.writes as f64, "count");
        metrics.set("cache.dir_bytes", first.store_bytes as f64, "B");
        report
            .num("edit_share", EDIT_SHARE)
            .int("uncached_comparisons", self.gates)
            .raw("ratios", Json::default().raw("cache.hit_ratio", hit.to_json()).done());
        for (span, metric) in [
            ("pipeline.run", "pipeline.run_s"),
            ("pipeline.broken", "pipeline.broken_s"),
            ("pipeline.no_module", "pipeline.no_module_s"),
            ("pipeline.dedup", "pipeline.dedup_s"),
            ("pipeline.syntax_rank", "pipeline.syntax_rank_s"),
        ] {
            if let Some(m) = median(&tracer.durations(span)) {
                metrics.set(metric, m, "s");
            }
        }
        Ok(self.gates > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyranet_corpus::{Origin, TruthLabel};

    #[test]
    fn edits_touch_the_fixed_share_and_depend_only_on_seed_and_op() {
        let base: Vec<RawSample> = (0..200)
            .map(|i| {
                RawSample::new(i, "module m; endmodule", "", Origin::Scraped, TruthLabel::Clean)
            })
            .collect();
        let a = edited(&base, 7, 3);
        let changed = a.iter().zip(&base).filter(|(x, y)| x.source != y.source).count();
        assert_eq!(changed, 4, "2 % of 200 files");
        assert_eq!(a, edited(&base, 7, 3));
        assert_ne!(a, edited(&base, 7, 4));
        assert_ne!(a, edited(&base, 8, 3));
    }
}
