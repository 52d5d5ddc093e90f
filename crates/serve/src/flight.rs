//! The flight recorder: a black box for the resident daemon.
//!
//! The daemon continuously appends a compact [`RequestTrace`] for every
//! request it finishes (or refuses) into a bounded in-memory ring. The
//! ring costs a few kilobytes and is overwritten in steady state; it
//! only becomes interesting when something goes wrong. On an
//! **anomaly** — an admission shed, a request slower than the
//! configured threshold, or a verification failure — the recorder
//! snapshots the ring: the anomaly plus the N requests that led up to
//! it, exactly the context that is gone by the time an operator starts
//! asking questions.
//!
//! Snapshots are kept in a second bounded ring (retrievable over the
//! wire through the `Report` opcode) and, when a black-box directory is
//! configured, dumped to disk as NDJSON — one self-describing line per
//! event, written atomically enough for post-mortem collection (a
//! single `write` of a complete buffer).
//!
//! The recorder is deliberately lock-light: one mutex around each ring,
//! held only to push/clone. Nothing in the hot path blocks on disk I/O
//! except the snapshot itself, which is rare by construction.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Why a snapshot was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anomaly {
    /// Admission control refused a job (queue full, oversize, shutdown).
    Shed,
    /// A request's service latency crossed the configured threshold.
    SlowRequest,
    /// A verification request failed, or a protect job's validation
    /// verdict was not clean.
    VerifyFail,
}

impl Anomaly {
    /// Stable lowercase name, used in counters and file names.
    pub fn name(self) -> &'static str {
        match self {
            Anomaly::Shed => "shed",
            Anomaly::SlowRequest => "slow-request",
            Anomaly::VerifyFail => "verify-fail",
        }
    }
}

/// One recorded request: enough to reconstruct what the daemon was
/// doing around an anomaly, small enough to keep hundreds of.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Job id (`u64::MAX` for requests refused before acquiring one).
    pub id: u64,
    /// Request kind (`protect`, `verify`, ...).
    pub kind: String,
    /// Completion time, microseconds since daemon start.
    pub ts_us: u64,
    /// Service latency in microseconds (0 for refusals).
    pub latency_us: u64,
    /// Queue depth observed at completion.
    pub queue_depth: u32,
    /// Outcome: `ok`, `shed: <reason>`, `error: <detail>`, ...
    pub outcome: String,
}

impl RequestTrace {
    fn ndjson(&self) -> String {
        format!(
            "{{\"type\":\"request\",\"id\":{},\"kind\":\"{}\",\"ts_us\":{},\"latency_us\":{},\"queue_depth\":{},\"outcome\":\"{}\"}}",
            self.id,
            esc(&self.kind),
            self.ts_us,
            self.latency_us,
            self.queue_depth,
            esc(&self.outcome)
        )
    }
}

/// One black-box snapshot: the anomaly and the ring at trigger time.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Monotonic snapshot sequence number (0-based).
    pub seq: u64,
    /// What tripped the recorder.
    pub anomaly: Anomaly,
    /// Human-readable trigger detail.
    pub detail: String,
    /// Trigger time, microseconds since daemon start.
    pub ts_us: u64,
    /// The recent-request ring, oldest first, trigger last.
    pub recent: Vec<RequestTrace>,
    /// Where the NDJSON dump landed, if a black-box dir is configured.
    pub path: Option<PathBuf>,
}

impl Snapshot {
    /// Renders the snapshot as NDJSON: a trigger line, then one line
    /// per recorded request, oldest first.
    pub fn ndjson(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"snapshot\",\"seq\":{},\"anomaly\":\"{}\",\"ts_us\":{},\"detail\":\"{}\"}}\n",
            self.seq,
            self.anomaly.name(),
            self.ts_us,
            esc(&self.detail)
        );
        for r in &self.recent {
            out.push_str(&r.ndjson());
            out.push('\n');
        }
        out
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    parallax_trace::esc_json(s, &mut out);
    out
}

/// Flight-recorder configuration.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Requests retained in the in-memory ring.
    pub ring_capacity: usize,
    /// Snapshots retained for retrieval over the wire.
    pub snapshot_capacity: usize,
    /// Latency threshold that counts as an anomaly (`None` disables
    /// the slow-request trigger).
    pub slow_request_us: Option<u64>,
    /// Directory for NDJSON black-box dumps (`None` keeps snapshots
    /// memory-only).
    pub blackbox_dir: Option<PathBuf>,
}

impl Default for FlightConfig {
    fn default() -> FlightConfig {
        FlightConfig {
            ring_capacity: 64,
            snapshot_capacity: 8,
            slow_request_us: None,
            blackbox_dir: None,
        }
    }
}

/// The recorder itself. Shared across the daemon's threads.
pub struct FlightRecorder {
    cfg: FlightConfig,
    ring: Mutex<VecDeque<RequestTrace>>,
    snapshots: Mutex<VecDeque<Snapshot>>,
    seq: AtomicU64,
    recorded: AtomicU64,
}

impl FlightRecorder {
    /// Builds a recorder. The black-box directory is created lazily on
    /// the first snapshot, not here.
    pub fn new(cfg: FlightConfig) -> FlightRecorder {
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(cfg.ring_capacity)),
            snapshots: Mutex::new(VecDeque::new()),
            seq: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            cfg,
        }
    }

    /// The configured slow-request threshold, if any.
    pub fn slow_request_us(&self) -> Option<u64> {
        self.cfg.slow_request_us
    }

    /// Appends one finished/refused request to the ring.
    pub fn record(&self, rt: RequestTrace) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = lock(&self.ring);
        if ring.len() >= self.cfg.ring_capacity.max(1) {
            ring.pop_front();
        }
        ring.push_back(rt);
    }

    /// Total requests recorded since start (ring churn included).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Trips the recorder: snapshots the ring, retains the snapshot,
    /// and dumps it to the black-box directory when one is configured.
    /// Returns the snapshot's sequence number.
    pub fn anomaly(&self, anomaly: Anomaly, detail: &str, ts_us: u64) -> u64 {
        let recent: Vec<RequestTrace> = lock(&self.ring).iter().cloned().collect();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut snap = Snapshot {
            seq,
            anomaly,
            detail: detail.to_string(),
            ts_us,
            recent,
            path: None,
        };
        if let Some(dir) = &self.cfg.blackbox_dir {
            let path = dir.join(format!("blackbox-{seq:06}-{}.ndjson", anomaly.name()));
            let dump = snap.ndjson();
            // Best-effort: a full disk must not take down the daemon.
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, dump))
                .is_ok();
            if written {
                snap.path = Some(path);
            }
        }
        let mut snaps = lock(&self.snapshots);
        if snaps.len() >= self.cfg.snapshot_capacity.max(1) {
            snaps.pop_front();
        }
        snaps.push_back(snap);
        seq
    }

    /// The retained snapshots, oldest first.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        lock(&self.snapshots).iter().cloned().collect()
    }

    /// Renders the `flight recorder` text block for the wire `Report`
    /// opcode: per-snapshot trigger summaries plus the tail of the most
    /// recent snapshot's ring.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let snaps = self.snapshots();
        let mut out = String::from("flight recorder\n");
        let _ = writeln!(
            out,
            "  recorded {} requests, {} snapshots retained",
            self.recorded(),
            snaps.len()
        );
        for s in &snaps {
            let _ = writeln!(
                out,
                "  snapshot #{:<3} {:<12} at {:>10.3} s  ({} recent requests)  {}",
                s.seq,
                s.anomaly.name(),
                s.ts_us as f64 / 1e6,
                s.recent.len(),
                s.detail
            );
        }
        if let Some(last) = snaps.last() {
            for r in last.recent.iter().rev().take(5).rev() {
                let _ = writeln!(
                    out,
                    "    #{:<4} {:<8} {:>9.3} ms  depth {}  {}",
                    if r.id == u64::MAX {
                        "-".to_string()
                    } else {
                        r.id.to_string()
                    },
                    r.kind,
                    r.latency_us as f64 / 1e3,
                    r.queue_depth,
                    r.outcome
                );
            }
        }
        out
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(id: u64, outcome: &str) -> RequestTrace {
        RequestTrace {
            id,
            kind: "protect".to_string(),
            ts_us: id * 10,
            latency_us: 1_000,
            queue_depth: 1,
            outcome: outcome.to_string(),
        }
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let fr = FlightRecorder::new(FlightConfig {
            ring_capacity: 3,
            ..FlightConfig::default()
        });
        for i in 0..10 {
            fr.record(rt(i, "ok"));
        }
        assert_eq!(fr.recorded(), 10);
        let seq = fr.anomaly(Anomaly::Shed, "queue full", 12_345);
        assert_eq!(seq, 0);
        let snaps = fr.snapshots();
        assert_eq!(snaps.len(), 1);
        let ids: Vec<u64> = snaps[0].recent.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![7, 8, 9], "ring keeps the newest, oldest first");
    }

    #[test]
    fn snapshot_ring_is_bounded() {
        let fr = FlightRecorder::new(FlightConfig {
            snapshot_capacity: 2,
            ..FlightConfig::default()
        });
        for i in 0..5 {
            fr.anomaly(Anomaly::SlowRequest, &format!("t{i}"), i);
        }
        let snaps = fr.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].seq, 3);
        assert_eq!(snaps[1].seq, 4);
    }

    #[test]
    fn ndjson_dump_lands_in_blackbox_dir() {
        let dir = std::env::temp_dir().join(format!("plx-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fr = FlightRecorder::new(FlightConfig {
            blackbox_dir: Some(dir.clone()),
            ..FlightConfig::default()
        });
        fr.record(rt(1, "ok"));
        fr.record(rt(2, "error: verify: tampered"));
        fr.anomaly(Anomaly::VerifyFail, "verify: tampered", 99);
        let snap = &fr.snapshots()[0];
        let path = snap.path.as_ref().expect("dump path recorded");
        let text = std::fs::read_to_string(path).expect("dump readable");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "trigger + 2 requests:\n{text}");
        assert!(lines[0].contains("\"anomaly\":\"verify-fail\""), "{text}");
        assert!(
            lines[2].contains("\\\"tampered\\\"") || lines[2].contains("tampered"),
            "{text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_names_triggers() {
        let fr = FlightRecorder::new(FlightConfig {
            slow_request_us: Some(500),
            ..FlightConfig::default()
        });
        fr.record(rt(7, "ok"));
        fr.anomaly(
            Anomaly::SlowRequest,
            "protect took 900 us (threshold 500 us)",
            42,
        );
        let text = fr.render();
        assert!(text.contains("flight recorder"), "{text}");
        assert!(text.contains("slow-request"), "{text}");
        assert!(text.contains("threshold 500 us"), "{text}");
        assert!(text.contains("1 snapshots retained"), "{text}");
    }
}
