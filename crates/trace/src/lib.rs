//! Hierarchical span tracing and execution telemetry for Parallax.
//!
//! The paper's evaluation (§VI, Figures 5a/5b/6) is all about runtime
//! numbers — per-function verification overhead, gadget-translation
//! cost, chain slowdown — and this crate is how the workspace produces
//! them. It is std-only and dependency-free, like everything else in
//! the tree:
//!
//! * [`Tracer`] records **hierarchical spans** (enter/exit with parent
//!   links and monotonic µs timing), **instant events** (e.g. one per
//!   gadget dispatched while a verification chain runs), **counters**,
//!   and **power-of-two bucket histograms** (chain lengths, gadget
//!   dispatch counts, VM cycles per verification invocation). It is
//!   `Send + Sync`: one tracer collects a whole multi-worker batch
//!   onto a single timeline, one lane per thread.
//! * [`export`] renders a snapshot as Chrome trace-event JSON
//!   (loadable in `chrome://tracing` / Perfetto).
//! * [`read`] parses a Chrome trace produced by [`export`] back into
//!   structured records — `plx report --from`/`--diff` and the CI
//!   `trace_check` binary are built on it — via the minimal JSON
//!   parser in [`json`].
//!
//! Everything is deterministic modulo timestamps: event order, ids,
//! counters and histogram contents depend only on the traced work.

#![warn(missing_docs)]

pub mod analyze;
pub mod export;
pub mod json;
pub mod read;
pub mod tracer;

pub use analyze::{analyze, Profile, SerialSpan, StageProfile};
pub use export::{chrome_json, esc_json};
pub use read::{HistRec, InstantRec, SpanRec, TraceFile};
pub use tracer::{ArgValue, Event, Histogram, SpanGuard, SpanId, TraceSnapshot, Tracer};
