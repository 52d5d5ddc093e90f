//! Concurrent batch-protection engine with content-addressed caching
//! and structured telemetry.
//!
//! Protecting one binary is what `parallax-core` does; an evaluation
//! run protects dozens — every corpus program under every chain mode
//! and several seeds (the paper's Table III sweep). This crate turns
//! that sweep into a first-class *batch*:
//!
//! * [`Engine`] executes a queue of [`Job`]s on a work-stealing pool
//!   of OS threads (`std::thread` + mutex-guarded deques; no external
//!   runtime), pipelining jobs so slow programs don't serialize fast
//!   ones.
//! * The [`ArtifactCache`] is content-addressed: gadget scans,
//!   coverage analyses, and whole protected results are keyed by a
//!   128-bit hash of the exact bytes that determine them, stored in a
//!   bounded in-memory LRU with an optional on-disk layer. Payloads
//!   are re-verified against their hash on every fetch, so a corrupted
//!   ("poisoned") entry is detected, evicted, and recomputed — never
//!   silently used.
//! * Every step streams through an [`EngineEvent`] bus: live progress
//!   for `plx batch`, newline-delimited JSON under `--log-json`, and a
//!   [`MetricsSnapshot`] (per-stage wall time, cache hit rate,
//!   jobs/sec, VM validation cycles) at the end.
//!
//! Determinism is the load-bearing property: a job's output depends
//! only on its inputs, never on worker count or scheduling, so a batch
//! at `--jobs 8` is byte-identical to the same batch at `--jobs 1` —
//! and to a sequential `plx protect` of each target.

#![warn(missing_docs)]

pub mod artifacts;
pub mod cache;
pub mod engine;
pub mod events;
pub mod hash;
pub mod manifest;
pub mod metrics;
pub mod provenance;

pub use artifacts::{ChainSummary, ProtectedArtifact};
pub use cache::{ArtifactCache, ArtifactKind, CacheStats, Fetch, Key};
pub use engine::{BatchReport, CacheHooks, Engine, EngineOptions, Job, JobResult, JobSource};
pub use events::{EngineEvent, EventSink, ShedReason};
pub use hash::{hash128, hash128_pair};
pub use manifest::{chain_mode_for, parse_manifest, ALL_MODES};
pub use metrics::{Metrics, MetricsSnapshot, StageTime, ALL_STAGES};
pub use provenance::{
    toolchain_id, Digests, Ledger, ProvenanceRecord, StageDigest, RECORD_VERSION,
};
