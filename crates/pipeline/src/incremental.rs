//! Incremental curation: per-stage artifact caching over `pyranet-cache`.
//!
//! Every per-sample stage verdict is a pure function of the sample's
//! *content* and the stage's *configuration*, so it can be stored in a
//! content-addressed store and reused across builds — an edited corpus
//! re-pays only for the samples that changed. This module owns the glue:
//! the stage names/versions, the config fingerprints (which knob feeds
//! which stage), the serialized artifact shapes, and the cached variants
//! of each stage's sweep.
//!
//! Invalidation rules (each knob retires exactly the stages it feeds):
//!
//! | stage        | artifact                      | fingerprint knobs        |
//! |--------------|-------------------------------|--------------------------|
//! | `broken`     | rejected: bool                | — (version only)         |
//! | `no_module`  | rejected: bool                | — (version only)         |
//! | `dedup_sig`  | shingle set + MinHash sig     | num_hashes, bands        |
//! | `dedup_join` | *(none — always re-runs)*     | jaccard threshold        |
//! | `syntax_rank`| syntax/sim/keep verdict       | rank-judge version, sim  |
//!
//! The jaccard threshold deliberately does **not** fingerprint
//! `dedup_sig`: signatures are threshold-independent, and the only
//! threshold consumer — the cross-sample LSH join — re-runs on every
//! build anyway (a sample's duplicate verdict depends on every *other*
//! sample, so it cannot be cached per sample). Changing the threshold
//! therefore re-runs only the join, on cached signatures.
//!
//! Determinism: every lookup is keyed by content, never by index or
//! thread, and each cached sweep fans out through the same
//! order-preserving `par_map` as the uncached one — so cached, uncached,
//! partially-cached, and any-thread-count runs all produce byte-identical
//! curated output. The pipeline's funnel/`StageTimings` buckets are
//! likewise preserved: each stage consults only its own artifacts over
//! exactly the samples the uncached stage would see.

use crate::dedup::{self, BANDS, NUM_HASHES};
use crate::layers::Layer;
use crate::rank::{Rank, RANK_JUDGE_VERSION};
use pyranet_cache::{content_hash, ArtifactStore, Fingerprint, Lookup, StageKey, StageProvenance};
use pyranet_corpus::RawSample;
use pyranet_exec::{par_map, ExecConfig};
use pyranet_verilog::metrics::ComplexityTier;
use pyranet_verilog::SimMode;
use serde::{Deserialize, Serialize};

/// Artifact-format versions, one per stage. Bump a stage's version when
/// its artifact shape or verdict semantics change; old artifacts become
/// unreachable (different fingerprint) instead of being misread.
const BROKEN_VERSION: u32 = 1;
const NO_MODULE_VERSION: u32 = 1;
const DEDUP_SIG_VERSION: u32 = 1;
const DEDUP_JOIN_VERSION: u32 = 1;
const SYNTAX_RANK_VERSION: u32 = 1;

/// Stage names — the first component of every [`StageKey`].
pub const STAGE_BROKEN: &str = "broken";
pub const STAGE_NO_MODULE: &str = "no_module";
pub const STAGE_DEDUP_SIG: &str = "dedup_sig";
pub const STAGE_DEDUP_JOIN: &str = "dedup_join";
pub const STAGE_SYNTAX_RANK: &str = "syntax_rank";

/// A cached filter verdict (stages 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterArtifact {
    pub rejected: bool,
}

/// A cached dedup signature: the sample's shingle set (sorted and
/// duplicate free, as the join's merge-intersection requires; an
/// artifact that breaks this is recomputed) plus its MinHash signature. The
/// shingle set rides along because the LSH join verifies candidate pairs
/// with *exact* Jaccard, not the signature estimate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DedupSigArtifact {
    pub shingles: Vec<u64>,
    pub sig: Vec<u64>,
}

/// A cached stage-4 verdict: rejected by the syntax check, rejected by
/// the opt-in sim check, or kept with the derived quality labels. The
/// kept variant stores only content-derived fields — id, source, and
/// description come from the live `RawSample` at reuse time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CurationArtifact {
    Syntax,
    Sim,
    Keep { rank: Rank, tier: ComplexityTier, layer: Layer, dependency_issue: bool },
}

/// The per-stage config fingerprints for one pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageFingerprints {
    pub broken: u64,
    pub no_module: u64,
    pub dedup_sig: u64,
    pub dedup_join: u64,
    pub syntax_rank: u64,
}

impl StageFingerprints {
    /// Derives the fingerprints from the pipeline's knobs.
    pub fn derive(jaccard_threshold: f64, sim_check: Option<SimMode>) -> StageFingerprints {
        StageFingerprints {
            broken: Fingerprint::stage(STAGE_BROKEN, BROKEN_VERSION).finish(),
            no_module: Fingerprint::stage(STAGE_NO_MODULE, NO_MODULE_VERSION).finish(),
            dedup_sig: Fingerprint::stage(STAGE_DEDUP_SIG, DEDUP_SIG_VERSION)
                .knob("num_hashes", &NUM_HASHES.to_string())
                .knob("bands", &BANDS.to_string())
                .finish(),
            dedup_join: Fingerprint::stage(STAGE_DEDUP_JOIN, DEDUP_JOIN_VERSION)
                .knob_f64("jaccard", jaccard_threshold)
                .finish(),
            syntax_rank: Fingerprint::stage(STAGE_SYNTAX_RANK, SYNTAX_RANK_VERSION)
                .knob("rank_judge", &RANK_JUDGE_VERSION.to_string())
                .knob("sim", sim_knob(sim_check))
                .finish(),
        }
    }

    /// The provenance records for this configuration, in stage order —
    /// written into the cache root's manifest and embedded in the shard
    /// `manifest.json`.
    pub fn provenance(&self) -> Vec<StageProvenance> {
        vec![
            StageProvenance::new(STAGE_BROKEN, BROKEN_VERSION, self.broken),
            StageProvenance::new(STAGE_NO_MODULE, NO_MODULE_VERSION, self.no_module),
            StageProvenance::new(STAGE_DEDUP_SIG, DEDUP_SIG_VERSION, self.dedup_sig),
            StageProvenance::new(STAGE_DEDUP_JOIN, DEDUP_JOIN_VERSION, self.dedup_join),
            StageProvenance::new(STAGE_SYNTAX_RANK, SYNTAX_RANK_VERSION, self.syntax_rank),
        ]
    }
}

/// The sim-mode knob value. The backend choice lands in the fingerprint
/// verbatim: the two backends are verdict-equivalent today, but keying
/// them separately means a behavioural divergence can never resurface a
/// stale verdict from the other backend.
fn sim_knob(sim_check: Option<SimMode>) -> &'static str {
    match sim_check {
        None => "off",
        Some(SimMode::Compiled) => "compiled",
        Some(SimMode::Reference) => "reference",
    }
}

/// A cached run of one filter stage: per-sample verdict lookups fan out
/// through `par_map` (content-keyed, so order-independent), misses compute
/// the predicate and publish the verdict. Returns survivors (in input
/// order) and the reject count — the same contract as the uncached
/// filters.
pub(crate) fn filter_stage_cached(
    store: &ArtifactStore,
    stage: &'static str,
    fingerprint: u64,
    pool: Vec<RawSample>,
    exec: &ExecConfig,
    is_rejected: fn(&str) -> bool,
) -> (Vec<RawSample>, usize) {
    let verdicts: Vec<(RawSample, bool)> = par_map(exec, pool, move |s| {
        let key = StageKey::new(stage, content_hash(&s.source), fingerprint);
        let rejected = match store.get::<FilterArtifact>(&key) {
            Lookup::Hit(v) => v.rejected,
            Lookup::Miss | Lookup::Invalid => {
                let rejected = is_rejected(&s.source);
                // Advisory write: a full disk must not fail the build.
                store.put(&key, &FilterArtifact { rejected }).ok();
                rejected
            }
        };
        (s, rejected)
    });
    let before = verdicts.len();
    let alive: Vec<RawSample> =
        verdicts.into_iter().filter(|(_, rejected)| !*rejected).map(|(s, _)| s).collect();
    let rejected = before - alive.len();
    (alive, rejected)
}

/// Cached dedup: per-sample shingle sets and MinHash signatures come from
/// the store (or are computed and published), then the cross-sample LSH
/// join runs as always — on every build — over the assembled signatures.
pub(crate) fn dedup_cached(
    store: &ArtifactStore,
    fingerprint: u64,
    pool: Vec<RawSample>,
    threshold: f64,
    exec: &ExecConfig,
) -> Vec<RawSample> {
    let sources: Vec<&str> = pool.iter().map(|s| s.source.as_str()).collect();
    let per_sample: Vec<(Vec<u64>, [u64; NUM_HASHES])> = par_map(exec, sources, move |src| {
        let key = StageKey::new(STAGE_DEDUP_SIG, content_hash(src), fingerprint);
        if let Lookup::Hit(art) = store.get::<DedupSigArtifact>(&key) {
            // A malformed signature length means the artifact predates a
            // parameter change that should have bumped the version, and an
            // unsorted or repeated shingle list would feed the join's
            // merge-intersection wrong scores — either way, recompute
            // rather than trust it.
            if let Ok(sig) = <[u64; NUM_HASHES]>::try_from(art.sig.as_slice()) {
                if dedup::is_shingle_set(&art.shingles) {
                    return (art.shingles, sig);
                }
            }
        }
        let shingles = dedup::shingles(src);
        let sig = dedup::minhash(&shingles);
        let artifact = DedupSigArtifact { shingles, sig: sig.to_vec() };
        store.put(&key, &artifact).ok();
        (artifact.shingles, sig)
    });
    let (sets, sigs): (Vec<Vec<u64>>, Vec<[u64; NUM_HASHES]>) = per_sample.into_iter().unzip();
    let dead = dedup::lsh_sweep(&sets, &sigs, threshold);
    pool.into_iter().zip(dead).filter(|(_, d)| !*d).map(|(s, _)| s).collect()
}

/// Assembles a curated sample from a cached keep-verdict plus the live
/// raw sample it was derived from.
pub(crate) fn curated_from_artifact(
    s: RawSample,
    rank: Rank,
    tier: ComplexityTier,
    layer: Layer,
    dependency_issue: bool,
) -> crate::dataset::CuratedSample {
    crate::dataset::CuratedSample {
        id: s.id,
        source: s.source,
        description: s.description,
        rank,
        tier,
        layer,
        dependency_issue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_isolate_their_knobs() {
        let base = StageFingerprints::derive(0.85, None);
        let threshold = StageFingerprints::derive(0.9, None);
        // The jaccard threshold feeds only the (uncacheable) join stage.
        assert_eq!(base.broken, threshold.broken);
        assert_eq!(base.no_module, threshold.no_module);
        assert_eq!(base.dedup_sig, threshold.dedup_sig);
        assert_eq!(base.syntax_rank, threshold.syntax_rank);
        assert_ne!(base.dedup_join, threshold.dedup_join);
        // The sim mode feeds only the syntax/rank/sim stage.
        let sim = StageFingerprints::derive(0.85, Some(SimMode::Compiled));
        assert_eq!(base.dedup_sig, sim.dedup_sig);
        assert_eq!(base.dedup_join, sim.dedup_join);
        assert_ne!(base.syntax_rank, sim.syntax_rank);
        // The two sim backends are keyed apart.
        let reference = StageFingerprints::derive(0.85, Some(SimMode::Reference));
        assert_ne!(sim.syntax_rank, reference.syntax_rank);
    }

    #[test]
    fn provenance_lists_every_stage_once() {
        let prov = StageFingerprints::derive(0.85, None).provenance();
        let names: Vec<&str> = prov.iter().map(|p| p.stage.as_str()).collect();
        assert_eq!(
            names,
            vec![
                STAGE_BROKEN,
                STAGE_NO_MODULE,
                STAGE_DEDUP_SIG,
                STAGE_DEDUP_JOIN,
                STAGE_SYNTAX_RANK
            ]
        );
    }

    #[test]
    fn unsorted_cached_shingles_are_recomputed() {
        // The join's merge-intersection needs sorted shingle sets, so a
        // well-formed artifact with a reversed shingle list is as stale as
        // one with a wrong-length signature: recomputed and re-put, never
        // scored as is.
        let dir = std::env::temp_dir()
            .join(format!("pyranet-incremental-reversed-{}", std::process::id()));
        let store = ArtifactStore::open(&dir).expect("open store");
        let fingerprint = StageFingerprints::derive(0.85, None).dedup_sig;
        let key =
            |s: &RawSample| StageKey::new(STAGE_DEDUP_SIG, content_hash(&s.source), fingerprint);
        let pool = pyranet_corpus::CorpusBuilder::new(5).scraped_files(120).build().samples;
        for s in &pool {
            let mut shingles = dedup::shingles(&s.source);
            let sig = dedup::minhash(&shingles).to_vec();
            shingles.reverse();
            store.put(&key(s), &DedupSigArtifact { shingles, sig }).expect("plant artifact");
        }

        let exec = ExecConfig::new().threads(2);
        let ids = |out: Vec<RawSample>| out.into_iter().map(|s| s.id).collect::<Vec<_>>();
        let cached = ids(dedup_cached(&store, fingerprint, pool.clone(), 0.85, &exec));
        let uncached = ids(dedup::dedup_with(pool.clone(), 0.85, &exec));
        assert_eq!(cached, uncached);
        for s in &pool {
            match store.get::<DedupSigArtifact>(&key(s)) {
                Lookup::Hit(art) => assert_eq!(art.shingles, dedup::shingles(&s.source)),
                _ => panic!("recomputed artifact was not re-put"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn curation_artifact_round_trips_through_json() {
        for art in [
            CurationArtifact::Syntax,
            CurationArtifact::Sim,
            CurationArtifact::Keep {
                rank: Rank::new(17),
                tier: ComplexityTier::Advanced,
                layer: Layer::L2,
                dependency_issue: false,
            },
        ] {
            let text = serde_json::to_string(&art).unwrap();
            let back: CurationArtifact = serde_json::from_str(&text).unwrap();
            assert_eq!(back, art);
        }
    }
}
