//! # pyranet-cache — content-addressed incremental curation cache
//!
//! Turns `build-dataset` from a batch job into an incremental one: every
//! per-sample stage verdict (filter verdicts, MinHash signatures, syntax
//! and rank verdicts, sim verdicts) is stored under a key derived from
//! the sample's *content*, the *stage* that produced it, and a
//! *fingerprint* of the stage's configuration. A rebuild after editing 1%
//! of the corpus pays recompute for 1% of the samples; everything else is
//! a verified read.
//!
//! Three pieces:
//!
//! * [`hasher`] — [`Fingerprint`]/[`StageKey`]: stable FNV-1a key
//!   derivation over the workspace hash ([`Fnv64`], re-exported from
//!   `pyranet-exec`). Changing a knob (jaccard threshold, sim mode,
//!   rank-judge version) changes the fingerprint of exactly the stages
//!   that read it, retiring their artifacts and nothing else.
//! * [`artifact`] — [`ArtifactStore`]: the on-disk CAS. Checksummed
//!   entries, atomic tmp+rename publishes, crash residue swept on open.
//!   Corruption or id collisions degrade to [`Lookup::Invalid`]
//!   (recompute), never a wrong verdict.
//! * [`manifest`] — [`CacheManifest`]/[`StageProvenance`]: records which
//!   stage configurations the store holds; the same records are embedded
//!   into the dataset shard `manifest.json` as provenance.
//!
//! Determinism: lookups are keyed by content, not by position or thread,
//! so a cached run produces byte-identical output to an uncached one at
//! any thread count. Only dedup's cross-sample LSH join re-runs every
//! time — on cached signatures — because its verdict for one sample
//! depends on every other sample.

pub mod artifact;
pub mod hasher;
pub mod manifest;

pub use artifact::{ArtifactStore, Lookup};
pub use hasher::{content_hash, format_hash, hash_bytes, Fingerprint, Fnv64, StageKey};
pub use manifest::{CacheManifest, StageProvenance, CACHE_FORMAT_VERSION, CACHE_MANIFEST_FILE};
