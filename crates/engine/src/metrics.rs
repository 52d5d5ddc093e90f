//! Live batch metrics, accumulated lock-free from the event stream.
//!
//! [`Metrics`] is the always-on accumulator inside the event sink:
//! plain atomic counters, safe to bump from every worker thread
//! without serializing them. [`MetricsSnapshot`] is the frozen
//! end-of-batch view — jobs, throughput, cache hit rate, VM cycles —
//! rendered by `plx batch`, `plx serve` and the throughput bench.
//! Stage wall time is not kept here: it lives only in the tracer's
//! `stage` spans (`--trace-out`, then `plx report`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::cache::CacheStats;
use crate::events::EngineEvent;

/// Thread-safe metric accumulator fed by [`EngineEvent`]s.
#[derive(Default)]
pub struct Metrics {
    jobs: AtomicU64,
    failed: AtomicU64,
    cached_results: AtomicU64,
    vm_cycles: AtomicU64,
    degradations: AtomicU64,
    shed: AtomicU64,
}

impl Metrics {
    /// Folds one event into the counters.
    pub fn absorb(&self, ev: &EngineEvent) {
        match ev {
            EngineEvent::Degraded { .. } => {
                self.degradations.fetch_add(1, Ordering::Relaxed);
            }
            EngineEvent::JobShed { .. } => {
                self.shed.fetch_add(1, Ordering::Relaxed);
            }
            EngineEvent::JobFinished {
                cached,
                vm_cycles,
                error,
                ..
            } => {
                self.jobs.fetch_add(1, Ordering::Relaxed);
                if error.is_some() {
                    self.failed.fetch_add(1, Ordering::Relaxed);
                }
                if *cached {
                    self.cached_results.fetch_add(1, Ordering::Relaxed);
                }
                self.vm_cycles.fetch_add(*vm_cycles, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Freezes the counters into a snapshot. `wall` is the batch wall
    /// time; `cache` the final cache counters.
    pub fn snapshot(&self, wall: Duration, cache: CacheStats) -> MetricsSnapshot {
        let jobs = self.jobs.load(Ordering::Relaxed);
        let wall_micros = wall.as_micros() as u64;
        let jobs_per_sec = if wall_micros == 0 {
            0.0
        } else {
            jobs as f64 * 1_000_000.0 / wall_micros as f64
        };
        MetricsSnapshot {
            jobs,
            failed: self.failed.load(Ordering::Relaxed),
            cached_results: self.cached_results.load(Ordering::Relaxed),
            wall_micros,
            jobs_per_sec,
            cache,
            vm_cycles: self.vm_cycles.load(Ordering::Relaxed),
            degradations: self.degradations.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// Frozen end-of-batch metrics.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Jobs finished (successfully or not).
    pub jobs: u64,
    /// Jobs that ended with an error.
    pub failed: u64,
    /// Jobs whose protected result was served from the cache.
    pub cached_results: u64,
    /// Batch wall time in microseconds.
    pub wall_micros: u64,
    /// Throughput over the batch wall time.
    pub jobs_per_sec: f64,
    /// Artifact-cache counters.
    pub cache: CacheStats,
    /// VM cycles spent validating protected images.
    pub vm_cycles: u64,
    /// Degradation-ladder fallbacks taken across the batch.
    pub degradations: u64,
    /// Jobs a cancelled batch shed before they started (the drain of
    /// [`crate::Engine::run_with_cancel`]).
    pub shed: u64,
}

impl MetricsSnapshot {
    /// Renders the snapshot as an aligned text block for terminals.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "jobs        {} ({} failed, {} from cache)",
            self.jobs, self.failed, self.cached_results
        );
        let _ = writeln!(
            out,
            "wall        {:.3} s  ({:.2} jobs/s)",
            self.wall_micros as f64 / 1e6,
            self.jobs_per_sec
        );
        let _ = writeln!(
            out,
            "cache       {} hits / {} misses / {} poisoned ({} evictions, hit rate {:.0}%)",
            self.cache.hits,
            self.cache.misses,
            self.cache.poisoned,
            self.cache.evictions,
            self.cache.hit_rate() * 100.0
        );
        let _ = writeln!(out, "vm cycles   {}", self.vm_cycles);
        let _ = writeln!(out, "degraded    {}", self.degradations);
        if self.shed > 0 {
            let _ = writeln!(out, "shed        {}", self.shed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_counts_events() {
        let m = Metrics::default();
        m.absorb(&EngineEvent::Degraded {
            job: 0,
            func: "vf".into(),
            missing: "store-mem".into(),
            stdset_forced: true,
        });
        m.absorb(&EngineEvent::JobFinished {
            job: 0,
            name: "a".into(),
            micros: 9,
            cached: true,
            verdict: None,
            vm_cycles: 40,
            error: None,
        });
        m.absorb(&EngineEvent::JobFinished {
            job: 1,
            name: "b".into(),
            micros: 9,
            cached: false,
            verdict: None,
            vm_cycles: 2,
            error: Some("boom".into()),
        });
        let snap = m.snapshot(Duration::from_secs(2), CacheStats::default());
        assert_eq!(snap.jobs, 2);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.cached_results, 1);
        assert_eq!(snap.vm_cycles, 42);
        assert_eq!(snap.degradations, 1);
        assert!((snap.jobs_per_sec - 1.0).abs() < 1e-9);
        assert!(!snap.render().is_empty());
    }

    #[test]
    fn drained_jobs_render_one_shed_line() {
        use crate::events::ShedReason;
        let m = Metrics::default();
        for job in 0..2 {
            m.absorb(&EngineEvent::JobShed {
                job,
                reason: ShedReason::Shutdown,
            });
        }
        let snap = m.snapshot(Duration::from_secs(1), CacheStats::default());
        assert_eq!(snap.shed, 2);
        let rendered = snap.render();
        assert_eq!(rendered.matches("shed").count(), 1, "{rendered}");
        assert!(rendered.contains("shed        2\n"), "{rendered}");

        // A batch that drained nothing prints no shed line.
        let plain = Metrics::default().snapshot(Duration::from_secs(1), CacheStats::default());
        assert!(!plain.render().contains("shed"));
    }

    #[test]
    fn zero_job_snapshot_has_no_division_artifacts() {
        // An empty batch with zero wall time must not divide by zero:
        // throughput and hit rate stay finite, render stays total.
        let m = Metrics::default();
        let snap = m.snapshot(Duration::ZERO, CacheStats::default());
        assert_eq!(snap.jobs, 0);
        assert_eq!(snap.wall_micros, 0);
        assert_eq!(snap.jobs_per_sec, 0.0);
        assert!(snap.jobs_per_sec.is_finite());
        assert!(snap.cache.hit_rate().is_finite());
        assert_eq!(snap.cache.hit_rate(), 0.0);
        let rendered = snap.render();
        assert!(rendered.contains("jobs        0"), "{rendered}");
        assert!(!rendered.contains("NaN"), "{rendered}");
        assert!(!rendered.contains("inf"), "{rendered}");
    }

    #[test]
    fn jobs_without_wall_time_do_not_blow_up_throughput() {
        // Jobs finished but the clock reads zero (coarse timers):
        // jobs_per_sec falls back to 0 rather than +inf.
        let m = Metrics::default();
        m.absorb(&EngineEvent::JobFinished {
            job: 0,
            name: "a".into(),
            micros: 0,
            cached: false,
            verdict: None,
            vm_cycles: 0,
            error: None,
        });
        let snap = m.snapshot(Duration::ZERO, CacheStats::default());
        assert_eq!(snap.jobs, 1);
        assert_eq!(snap.jobs_per_sec, 0.0);
    }
}
