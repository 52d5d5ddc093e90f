//! The pipeline's artifact store.
//!
//! The batch-protection engine (`parallax-engine`) runs many
//! [`protect_with`](crate::protect_with) jobs concurrently and reuses
//! expensive intermediate artifacts across jobs that share an input
//! image. Rather than threading an engine type through the pipeline,
//! the pipeline offers every such artifact to an [`ArtifactStore`]
//! before computing it and after computing it:
//!
//! * **gadget scans** — keyed by the *content* of the linked image, so
//!   a stale or cross-wired entry can never be returned for the wrong
//!   image; a hit skips [`find_gadgets`](parallax_gadgets::find_gadgets)
//!   entirely.
//! * **Figure-6 coverage** — measured on the *unprotected* image, which
//!   is shared by every job that protects the same program (whatever
//!   the chain mode or seed).
//! * **per-function artifacts** — pass-1 rewrites, compiled chains and
//!   per-candidate validation verdicts, keyed by fingerprints that pin
//!   everything the artifact depends on.
//!
//! The store only stores. Stage timing, degradations and cache
//! hit/miss counts go to the run's tracer (see [`crate::Ctx`]).
//! [`NoStore`] caches nothing and is what [`protect`](crate::protect())
//! uses.

use parallax_gadgets::Gadget;
use parallax_image::LinkedImage;
use parallax_rewrite::{Coverage, FuncRewriteOutcome};

/// A cached compiled-chain artifact: what one `(function, variant)`
/// chain compilation produced, detached from the image it was compiled
/// against (the fingerprint already pins every address the chain
/// embeds).
///
/// Pass-1 sizing compilations store artifacts with empty `bytes` (no
/// final layout exists yet to serialize against); pass-2 consumers must
/// ignore those.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainArtifact {
    /// Chain length in 32-bit words.
    pub words: usize,
    /// Gadget invocations in the chain.
    pub ops: usize,
    /// Gadget vaddrs the chain uses.
    pub used_gadgets: Vec<u32>,
    /// The serialized chain words (empty for pass-1 sizing artifacts).
    pub bytes: Vec<u8>,
}

/// Get/put access to reusable pipeline artifacts. Implementations must
/// be `Send + Sync`: one store may be shared by many concurrent
/// pipeline runs, and chain compilation queries it from pool workers.
/// Every method defaults to "not stored".
pub trait ArtifactStore: Send + Sync {
    /// A previously computed gadget scan for an image with identical
    /// content, or `None` to run the scanner. Returning an empty vector
    /// is treated as a miss (an empty scan is an error condition the
    /// pipeline must re-derive itself).
    fn cached_scan(&self, _img: &LinkedImage) -> Option<Vec<Gadget>> {
        None
    }

    /// Offers a freshly computed gadget scan for reuse.
    fn store_scan(&self, _img: &LinkedImage, _gadgets: &[Gadget]) {}

    /// A previously computed Figure-6 coverage analysis for an image
    /// with identical content, or `None` to run the analysis.
    fn cached_coverage(&self, _img: &LinkedImage) -> Option<Coverage> {
        None
    }

    /// Offers a freshly computed coverage analysis for reuse.
    fn store_coverage(&self, _img: &LinkedImage, _coverage: &Coverage) {}

    /// Whether this store backs the per-function artifact methods
    /// below. The pipeline computes no fingerprints (and counts no
    /// `cache.func.*` traffic) when this is `false`, so storeless runs
    /// pay nothing and report no misleading all-miss counters.
    fn has_func_cache(&self) -> bool {
        false
    }

    /// A previously stored pass-1 rewrite outcome for a function with
    /// this fingerprint (see `parallax_rewrite::func_fingerprint`).
    fn cached_rewritten_func(&self, _fingerprint: &[u8]) -> Option<FuncRewriteOutcome> {
        None
    }

    /// Offers a freshly rewritten function for reuse.
    fn store_rewritten_func(&self, _fingerprint: &[u8], _outcome: &FuncRewriteOutcome) {}

    /// A previously compiled chain artifact for this fingerprint
    /// (function IR + gadget arena + symbol table + policy + guards).
    fn cached_chain(&self, _fingerprint: &[u8]) -> Option<ChainArtifact> {
        None
    }

    /// Offers a freshly compiled chain for reuse.
    fn store_chain(&self, _fingerprint: &[u8], _artifact: &ChainArtifact) {}

    /// A previously computed per-candidate validation verdict (see
    /// `parallax_gadgets::ValidationCache`); the outer `None` means
    /// "never validated", the inner `None` means "validated and
    /// rejected". Concrete validation dominates scanning cost, so this
    /// is the seam that makes warm re-protection of an edited binary
    /// fast: only candidates whose bytes changed are revalidated.
    fn cached_verdict(&self, _key: &[u8]) -> Option<Option<Gadget>> {
        None
    }

    /// Offers a freshly computed validation verdict for reuse.
    fn store_verdict(&self, _key: &[u8], _verdict: &Option<Gadget>) {}
}

/// The store that stores nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoStore;

impl ArtifactStore for NoStore {}
