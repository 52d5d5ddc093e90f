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
//! * **pass-1 rewrites** — one per function, keyed by a fingerprint
//!   that pins everything the rewrite depends on.
//!
//! Gadget verdicts are not stored: a scan that misses probes its own
//! contents, sharing one verdict among a content's copies within the
//! pass (DESIGN.md §24).
//!
//! The store only stores. Stage timing, degradations and cache
//! hit/miss counts go to the run's tracer (see [`crate::Ctx`]).
//! [`NoStore`] caches nothing and is what [`protect`](crate::protect())
//! uses.

use parallax_gadgets::Gadget;
use parallax_image::LinkedImage;
use parallax_rewrite::FuncRewriteOutcome;

/// Get/put access to reusable pipeline artifacts. Implementations must
/// be `Send + Sync`: one store may be shared by many concurrent
/// pipeline runs, and rewrite pass 1 queries it from pool workers.
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
}

/// The store that stores nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoStore;

impl ArtifactStore for NoStore {}
