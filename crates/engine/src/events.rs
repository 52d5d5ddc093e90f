//! The engine's structured event stream.
//!
//! Every observable engine action — job lifecycle, cache traffic,
//! degradations, drain-time shedding — is an [`EngineEvent`]. Stage
//! wall time is not an event: the pipeline records it once, as the
//! tracer's `stage` spans.
//! Events flow through one [`EventSink`] shared by all workers: the
//! sink updates the live metrics, optionally appends the event as a
//! line of JSON (`--log-json`, hand-rolled writer in the style of
//! `parallax-image`'s `PLX` codec — no serde), and forwards it to the
//! caller's subscriber for live progress display. Event order is the
//! real interleaving of the worker pool; per-job events are ordered,
//! cross-job events interleave.

use std::fmt::{self, Write as _};
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

use parallax_core::Verdict;
use parallax_trace::esc_json;

use crate::cache::ArtifactKind;
use crate::metrics::Metrics;

/// Why an admission-controlled job was refused instead of executed.
///
/// Shedding is *fail-fast backpressure*: the caller gets a typed
/// refusal immediately rather than an unbounded wait. Each reason maps
/// onto the DESIGN.md §7 taxonomy — a shed job never reaches the
/// pipeline, so the refusal reason plays the role a `ProtectError`
/// stage tag plays for jobs that do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The bounded admission queue was at capacity.
    QueueFull,
    /// The service (or batch) is draining for shutdown; in-flight work
    /// finishes, new work is refused.
    Shutdown,
    /// The request payload exceeded the configured frame/job size cap.
    Oversize,
    /// The job waited in the queue longer than the admission deadline.
    Timeout,
}

impl ShedReason {
    /// Stable short name (used in JSON events and `serve.*` counters).
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::Shutdown => "shutdown",
            ShedReason::Oversize => "oversize",
            ShedReason::Timeout => "timeout",
        }
    }

    /// Every reason, in rendering order.
    pub const ALL: [ShedReason; 4] = [
        ShedReason::QueueFull,
        ShedReason::Shutdown,
        ShedReason::Oversize,
        ShedReason::Timeout,
    ];
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observable engine action.
#[derive(Debug, Clone)]
pub enum EngineEvent {
    /// A job entered the queue.
    JobQueued {
        /// Job index within the batch.
        job: usize,
        /// Display name (`program/mode#seed`).
        name: String,
    },
    /// A worker picked the job up.
    JobStarted {
        /// Job index.
        job: usize,
        /// Display name.
        name: String,
        /// Worker index executing the job.
        worker: usize,
    },
    /// An artifact was served from the cache.
    CacheHit {
        /// Job index.
        job: usize,
        /// Artifact kind.
        kind: ArtifactKind,
    },
    /// An artifact was absent and had to be computed.
    CacheMiss {
        /// Job index.
        job: usize,
        /// Artifact kind.
        kind: ArtifactKind,
    },
    /// A cached artifact failed its content-hash check and was evicted
    /// (the job recomputes — correctness is unaffected).
    CachePoisoned {
        /// Job index.
        job: usize,
        /// Artifact kind.
        kind: ArtifactKind,
    },
    /// The degradation ladder took a fallback during this job.
    Degraded {
        /// Job index.
        job: usize,
        /// Starved verification function (`*` when not attributable).
        func: String,
        /// What was missing.
        missing: String,
        /// Whether the retry force-appended the standard gadget set.
        stdset_forced: bool,
    },
    /// A cancelled batch refused a job it had not started yet.
    JobShed {
        /// Job index.
        job: usize,
        /// Why the job was refused.
        reason: ShedReason,
    },
    /// The job finished (successfully or not).
    JobFinished {
        /// Job index.
        job: usize,
        /// Display name.
        name: String,
        /// Total job wall time in microseconds.
        micros: u64,
        /// Whether the protected result came from the cache.
        cached: bool,
        /// Watchdog verdict of the validation run (when validated).
        verdict: Option<Verdict>,
        /// Cycles the validation run spent in the VM.
        vm_cycles: u64,
        /// Failure message, `None` on success.
        error: Option<String>,
    },
}

impl EngineEvent {
    /// The job index the event belongs to.
    pub fn job(&self) -> usize {
        match self {
            EngineEvent::JobQueued { job, .. }
            | EngineEvent::JobStarted { job, .. }
            | EngineEvent::CacheHit { job, .. }
            | EngineEvent::CacheMiss { job, .. }
            | EngineEvent::CachePoisoned { job, .. }
            | EngineEvent::Degraded { job, .. }
            | EngineEvent::JobShed { job, .. }
            | EngineEvent::JobFinished { job, .. } => *job,
        }
    }

    /// The event's kind tag — the same string as the `"event"` field
    /// of [`EngineEvent::to_json`].
    pub fn kind(&self) -> &'static str {
        match self {
            EngineEvent::JobQueued { .. } => "job_queued",
            EngineEvent::JobStarted { .. } => "job_started",
            EngineEvent::CacheHit { .. } => "cache_hit",
            EngineEvent::CacheMiss { .. } => "cache_miss",
            EngineEvent::CachePoisoned { .. } => "cache_poisoned",
            EngineEvent::Degraded { .. } => "degraded",
            EngineEvent::JobShed { .. } => "job_shed",
            EngineEvent::JobFinished { .. } => "job_finished",
        }
    }

    /// Renders the event as one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let field_str = |s: &mut String, k: &str, v: &str| {
            let _ = write!(s, ",\"{k}\":\"");
            esc_json(v, s);
            s.push('"');
        };
        match self {
            EngineEvent::JobQueued { job, name } => {
                let _ = write!(s, "{{\"event\":\"job_queued\",\"job\":{job}");
                field_str(&mut s, "name", name);
            }
            EngineEvent::JobStarted { job, name, worker } => {
                let _ = write!(s, "{{\"event\":\"job_started\",\"job\":{job}");
                field_str(&mut s, "name", name);
                let _ = write!(s, ",\"worker\":{worker}");
            }
            EngineEvent::CacheHit { job, kind } => {
                let _ = write!(
                    s,
                    "{{\"event\":\"cache_hit\",\"job\":{job},\"kind\":\"{kind}\""
                );
            }
            EngineEvent::CacheMiss { job, kind } => {
                let _ = write!(
                    s,
                    "{{\"event\":\"cache_miss\",\"job\":{job},\"kind\":\"{kind}\""
                );
            }
            EngineEvent::CachePoisoned { job, kind } => {
                let _ = write!(
                    s,
                    "{{\"event\":\"cache_poisoned\",\"job\":{job},\"kind\":\"{kind}\""
                );
            }
            EngineEvent::Degraded {
                job,
                func,
                missing,
                stdset_forced,
            } => {
                let _ = write!(s, "{{\"event\":\"degraded\",\"job\":{job}");
                field_str(&mut s, "func", func);
                field_str(&mut s, "missing", missing);
                let _ = write!(s, ",\"stdset_forced\":{stdset_forced}");
            }
            EngineEvent::JobShed { job, reason } => {
                let _ = write!(
                    s,
                    "{{\"event\":\"job_shed\",\"job\":{job},\"reason\":\"{reason}\""
                );
            }
            EngineEvent::JobFinished {
                job,
                name,
                micros,
                cached,
                verdict,
                vm_cycles,
                error,
            } => {
                let _ = write!(s, "{{\"event\":\"job_finished\",\"job\":{job}");
                field_str(&mut s, "name", name);
                let _ = write!(
                    s,
                    ",\"micros\":{micros},\"cached\":{cached},\"vm_cycles\":{vm_cycles}"
                );
                match verdict {
                    Some(v) => field_str(&mut s, "verdict", &v.to_string()),
                    None => s.push_str(",\"verdict\":null"),
                }
                match error {
                    Some(e) => field_str(&mut s, "error", e),
                    None => s.push_str(",\"error\":null"),
                }
            }
        }
        s.push('}');
        s
    }
}

type Subscriber<'cb> = Box<dyn FnMut(&EngineEvent) + Send + 'cb>;

/// Fan-in point for worker events: metrics, optional NDJSON log,
/// subscriber callback.
pub struct EventSink<'cb> {
    subscriber: Mutex<Subscriber<'cb>>,
    json: Option<Mutex<std::io::BufWriter<std::fs::File>>>,
    /// Live metrics accumulated from the event stream.
    pub metrics: Metrics,
}

impl<'cb> EventSink<'cb> {
    /// Creates a sink forwarding to `subscriber`, optionally appending
    /// newline-delimited JSON to `log_json`.
    pub fn new(
        subscriber: impl FnMut(&EngineEvent) + Send + 'cb,
        log_json: Option<&Path>,
    ) -> std::io::Result<EventSink<'cb>> {
        let json = match log_json {
            Some(path) => {
                let file = std::fs::File::create(path)?;
                Some(Mutex::new(std::io::BufWriter::new(file)))
            }
            None => None,
        };
        Ok(EventSink {
            subscriber: Mutex::new(Box::new(subscriber)),
            json,
            metrics: Metrics::default(),
        })
    }

    /// Publishes one event to all three consumers.
    pub fn emit(&self, ev: &EngineEvent) {
        self.metrics.absorb(ev);
        if let Some(json) = &self.json {
            if let Ok(mut w) = json.lock() {
                let _ = writeln!(w, "{}", ev.to_json());
            }
        }
        if let Ok(mut cb) = self.subscriber.lock() {
            cb(ev);
        }
    }

    /// Flushes the JSON log (called once at end of batch).
    pub fn flush(&self) {
        if let Some(json) = &self.json {
            if let Ok(mut w) = json.lock() {
                let _ = w.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_well_formed() {
        let ev = EngineEvent::JobFinished {
            job: 3,
            name: "wget/\"xor\"".into(),
            micros: 1234,
            cached: true,
            verdict: Some(Verdict::Clean),
            vm_cycles: 99,
            error: None,
        };
        let line = ev.to_json();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\\\"xor\\\""), "{line}");
        assert!(line.contains("\"verdict\":\"clean\""), "{line}");
        assert!(line.contains("\"error\":null"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn json_escapes_backslashes_and_control_chars() {
        let ev = EngineEvent::Degraded {
            job: 1,
            func: "path\\to\\vf".into(),
            missing: "store\tmem\nline".into(),
            stdset_forced: false,
        };
        let line = ev.to_json();
        assert!(line.contains("path\\\\to\\\\vf"), "{line}");
        assert!(line.contains("store\\tmem\\nline"), "{line}");
        assert!(!line.contains('\n'), "log lines must stay single-line");

        let ev = EngineEvent::JobFinished {
            job: 0,
            name: "x".into(),
            micros: 1,
            cached: false,
            verdict: None,
            vm_cycles: 0,
            error: Some("fault \"at\" \u{1} stage".into()),
        };
        let line = ev.to_json();
        assert!(line.contains("fault \\\"at\\\" \\u0001 stage"), "{line}");
    }

    #[test]
    fn kind_matches_json_event_field() {
        let events = [
            EngineEvent::JobQueued {
                job: 0,
                name: "a".into(),
            },
            EngineEvent::JobStarted {
                job: 0,
                name: "a".into(),
                worker: 0,
            },
            EngineEvent::CacheHit {
                job: 0,
                kind: ArtifactKind::Scan,
            },
            EngineEvent::CacheMiss {
                job: 0,
                kind: ArtifactKind::Scan,
            },
            EngineEvent::CachePoisoned {
                job: 0,
                kind: ArtifactKind::Scan,
            },
            EngineEvent::Degraded {
                job: 0,
                func: "f".into(),
                missing: "m".into(),
                stdset_forced: false,
            },
            EngineEvent::JobShed {
                job: 0,
                reason: ShedReason::QueueFull,
            },
            EngineEvent::JobFinished {
                job: 0,
                name: "a".into(),
                micros: 0,
                cached: false,
                verdict: None,
                vm_cycles: 0,
                error: None,
            },
        ];
        for ev in &events {
            let expected = format!("{{\"event\":\"{}\"", ev.kind());
            assert!(
                ev.to_json().starts_with(&expected),
                "kind {:?} vs json {}",
                ev.kind(),
                ev.to_json()
            );
        }
    }

    #[test]
    fn shed_reasons_render_stable_names() {
        let names: Vec<&str> = ShedReason::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            ["queue-full", "shutdown", "oversize", "timeout"],
            "shed-reason names are part of the wire/counter contract"
        );
        let ev = EngineEvent::JobShed {
            job: 5,
            reason: ShedReason::Shutdown,
        };
        assert_eq!(
            ev.to_json(),
            "{\"event\":\"job_shed\",\"job\":5,\"reason\":\"shutdown\"}"
        );
    }
}
