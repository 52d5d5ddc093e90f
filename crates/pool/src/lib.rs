//! A std-only worker pool shared by the batch engine and the
//! protection pipeline. It lives in its own crate so `parallax-core`
//! and `parallax-rewrite` can fan per-function work over the same
//! scheduler without a dependency cycle (engine depends on core).
//!
//! Every call site hands the pool a fixed set of independent items
//! known up front, so scheduling is one shared atomic *claim cursor*:
//! each worker `fetch_add`s the next item index until the cursor passes
//! the end. A worker that finishes early simply claims more, which
//! balances uneven items as well as work stealing would, with one
//! atomic op per item and no steal path. Results and [`WorkerStats`]
//! stay in per-worker locals and are merged **once** at join, by item
//! index — so the output order is always the input order, whatever the
//! interleaving was.
//!
//! [`PoolStats::export_to`] turns one run's per-worker item counts,
//! busy time and per-item execute windows into `pool.*` counters,
//! histograms and utilization lanes on a [`parallax_trace::Tracer`] —
//! the raw material `plx profile` and `plx report` read.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use parallax_trace::Tracer;

/// One item's execution window, relative to the run's start.
#[derive(Debug, Clone, Copy)]
pub struct ItemSpan {
    /// Item index (the first argument passed to the mapped closure).
    pub item: usize,
    /// Nanoseconds from run start to when the item began executing.
    pub start_ns: u64,
    /// Nanoseconds the item's closure ran.
    pub dur_ns: u64,
}

/// What one worker thread did during a [`scoped_map`] run.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Items this worker claimed and executed.
    pub items: u64,
    /// Nanoseconds spent inside the mapped closure.
    pub busy_ns: u64,
    /// Per-item execute windows, in execution order on this worker.
    pub spans: Vec<ItemSpan>,
}

/// What one [`scoped_map`] run did, behind the `pool.*` trace namespace.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Workers used (1: everything ran inline on the caller's thread).
    pub workers: usize,
    /// Always 0: workers claim items from one shared cursor, so there
    /// is nothing to steal. Kept for readers of per-layer reports.
    pub steals: u64,
    /// Claims that found the cursor exhausted: one per worker, at exit.
    pub idle_spins: u64,
    /// Nanoseconds of the serial merge of results back into item order.
    pub merge_ns: u64,
    /// Wall-clock nanoseconds for the whole run (execution and merge).
    pub run_ns: u64,
    /// Per-worker breakdown, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
    /// Run start, for re-basing lanes; `None` only for `Default`.
    started: Option<Instant>,
}

impl PoolStats {
    /// Closure-execution nanoseconds summed over workers — the useful
    /// work against which `run_ns` measures scheduling and merge cost.
    pub fn busy_ns(&self) -> u64 {
        self.per_worker.iter().map(|w| w.busy_ns).sum()
    }

    /// Exports this run onto `tracer` under `pool.<site>.*`: the
    /// records of [`PoolStats::export_counters_to`] plus, when the run
    /// spawned workers, one timeline lane per worker
    /// (`pool.<site>.w<k>`) carrying its item windows. Inline runs skip
    /// the lanes: their items already run under the caller's open
    /// spans, and a duplicate lane would double-count concurrency in
    /// parallax-trace's critical-path analyzer.
    pub fn export_to(&self, tracer: &Tracer, site: &str) {
        self.export_counters_to(tracer, site);
        if self.workers <= 1 {
            return;
        }
        // Re-base item windows (relative to the run start) onto the
        // tracer's epoch so the lanes line up with real-thread spans.
        let since_start = self
            .started
            .map_or(self.run_ns / 1_000, |t0| t0.elapsed().as_micros() as u64);
        let base_us = tracer.elapsed_us().saturating_sub(since_start);
        for (k, w) in self.per_worker.iter().enumerate() {
            let lane = tracer.lane(&format!("pool.{site}.w{k}"));
            for span in &w.spans {
                tracer.span_at(
                    &format!("{site}#{}", span.item),
                    "pool",
                    lane,
                    base_us + span.start_ns / 1_000,
                    (span.dur_ns / 1_000).max(1),
                );
            }
        }
    }

    /// The `runs`/`items`/`run_ns`/`merge_ns` counters and the
    /// `workers`/`worker_busy_us`/`item_us` histograms, without lanes:
    /// for sites whose items already appear as spans on real threads
    /// (the batch engine's per-job spans).
    pub fn export_counters_to(&self, tracer: &Tracer, site: &str) {
        let p = |suffix: &str| format!("pool.{site}.{suffix}");
        tracer.count(&p("runs"), 1);
        tracer.count(&p("merge_ns"), self.merge_ns);
        tracer.count(&p("run_ns"), self.run_ns);
        tracer.record(&p("workers"), self.workers as u64);
        for w in &self.per_worker {
            tracer.count(&p("items"), w.items);
            tracer.record(&p("worker_busy_us"), w.busy_ns / 1_000);
            for span in &w.spans {
                tracer.record(&p("item_us"), span.dur_ns / 1_000);
            }
        }
    }
}

/// The machine's available parallelism (used for `--jobs 0` = auto),
/// falling back to 1 when the OS will not say.
pub fn auto_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The one sizing rule for every fan-out: `requested` workers (0 means
/// [`auto_workers`]), capped so each has at least `min_per_worker`
/// items (0 or 1 disables the floor) and by the machine's parallelism.
/// Oversubscribed cores only time-slice while multiplying per-worker
/// setup (a probe VM each), and tiny fan-outs cannot amortize setup.
pub fn effective_workers_for(requested: usize, items: usize, min_per_worker: usize) -> usize {
    let cores = auto_workers();
    let requested = if requested == 0 { cores } else { requested };
    requested
        .min(items / min_per_worker.max(1))
        .min(cores)
        .max(1)
}

/// Runs `f(item_index, worker_index)` for every item in `0..n` on
/// `workers` threads (clamped to `[1, n]`) and returns the results
/// **in item order** plus scheduling statistics.
///
/// With one worker (or one item) everything runs inline on the calling
/// thread and `worker_index` is always 0. If `f`'s result for an item
/// does not depend on the worker, the output is bit-identical across
/// worker counts.
///
/// Panics in `f` propagate to the caller.
pub fn scoped_map<T, F>(workers: usize, n: usize, f: F) -> (Vec<T>, PoolStats)
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    scoped_map_init(workers, n, |_| (), |(), i, w| f(i, w))
}

/// [`scoped_map`] with per-worker state: `init(worker_index)` runs
/// lazily on the worker's own thread, before its first item, and the
/// state is passed by `&mut` to every item that worker runs. `S` needs
/// no `Send`/`Sync` bound (it never leaves its thread), which is what
/// per-worker probe VMs need: a `Vm` holds `Rc`s.
///
/// Determinism contract: `f(&mut s, i, w)` must not depend on the
/// worker, the state's history or the interleaving — reusable state is
/// reset to a canonical point per item (the probe VM's reseed).
pub fn scoped_map_init<S, T, I, F>(workers: usize, n: usize, init: I, f: F) -> (Vec<T>, PoolStats)
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, usize) -> T + Sync,
{
    let run_start = Instant::now();
    let workers = workers.clamp(1, n.max(1));
    let cursor = AtomicUsize::new(0);
    // Every worker's claim loop: take the next index until it passes `n`.
    let work = |w: usize| {
        let mut ws = WorkerStats::default();
        let mut results = Vec::new();
        let mut state: Option<S> = None;
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let st = state.get_or_insert_with(|| init(w));
            let t0 = Instant::now();
            results.push((i, f(st, i, w)));
            let dur = t0.elapsed().as_nanos() as u64;
            ws.items += 1;
            ws.busy_ns += dur;
            ws.spans.push(ItemSpan {
                item: i,
                start_ns: (t0 - run_start).as_nanos() as u64,
                dur_ns: dur,
            });
        }
        (ws, results)
    };
    let joined: Vec<(WorkerStats, Vec<(usize, T)>)> = if workers == 1 {
        vec![work(0)]
    } else {
        let work = &work;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || work(w))).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };

    let merge_start = Instant::now();
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut per_worker = Vec::with_capacity(workers);
    for (ws, results) in joined {
        for (i, v) in results {
            slots[i] = Some(v);
        }
        per_worker.push(ws);
    }
    let out: Vec<T> = slots
        .into_iter()
        .map(|slot| slot.expect("scoped_map: every item executed exactly once"))
        .collect();
    let stats = PoolStats {
        workers,
        steals: 0,
        idle_spins: workers as u64,
        merge_ns: merge_start.elapsed().as_nanos() as u64,
        run_ns: run_start.elapsed().as_nanos() as u64,
        per_worker,
        started: Some(run_start),
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order() {
        for workers in [1, 2, 3, 8] {
            let (out, stats) = scoped_map(workers, 100, |i, _w| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
            assert!(stats.workers >= 1);
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let (out, stats) = scoped_map(4, 0, |i, _w| i);
        assert!(out.is_empty());
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn worker_count_is_clamped_to_items() {
        // 16 workers over 3 items must not spawn 16 threads with most
        // claiming nothing — and must still finish.
        let (out, stats) = scoped_map(16, 3, |i, _w| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
        assert!(stats.workers <= 3);
    }

    #[test]
    fn output_identical_across_worker_counts() {
        // The determinism contract: same closure, same items, any
        // worker count — same output vector.
        let slow = |i: usize, _w: usize| {
            // Uneven per-item work so fast workers claim more items.
            let mut acc = i as u64;
            for k in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
            }
            acc
        };
        let (base, _) = scoped_map(1, 64, slow);
        for workers in [2, 4, 8] {
            let (out, _) = scoped_map(workers, 64, slow);
            assert_eq!(out, base, "workers={workers}");
        }
    }

    #[test]
    fn stats_account_for_every_item() {
        let (out, stats) = scoped_map(4, 57, |i, _w| i);
        assert_eq!(out.len(), 57);
        let items: u64 = stats.per_worker.iter().map(|w| w.items).sum();
        assert_eq!(items, 57, "every item executed exactly once");
        let spans: usize = stats.per_worker.iter().map(|w| w.spans.len()).sum();
        assert_eq!(spans, 57, "every item has an execute window");
        assert!(stats.run_ns > 0);
        assert_eq!(stats.per_worker.len(), stats.workers);
        assert_eq!(
            stats.idle_spins, stats.workers as u64,
            "one exit claim each"
        );
    }

    #[test]
    fn inline_path_still_collects_timing() {
        let (out, stats) = scoped_map(1, 5, |i, _w| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.per_worker.len(), 1);
        assert_eq!(stats.per_worker[0].spans.len(), 5);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn per_worker_state_is_created_lazily_and_reused() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        for workers in [1, 2, 4] {
            inits.store(0, Ordering::SeqCst);
            let (out, stats) = scoped_map_init(
                workers,
                40,
                |w| {
                    inits.fetch_add(1, Ordering::SeqCst);
                    // Per-worker accumulator: starts at the worker id,
                    // counts items this state instance served.
                    (w, 0usize)
                },
                |st, i, w| {
                    assert_eq!(st.0, w, "state belongs to the worker that made it");
                    st.1 += 1;
                    i * 2
                },
            );
            assert_eq!(out, (0..40).map(|i| i * 2).collect::<Vec<_>>());
            let created = inits.load(Ordering::SeqCst);
            assert!(
                created <= stats.workers,
                "at most one state per worker (created {created}, workers {})",
                stats.workers
            );
            assert!(created >= 1, "workers that ran items created state");
        }
    }

    #[test]
    fn init_state_may_be_not_send() {
        // The probe-VM use case: Rc is !Send, but per-worker state
        // never crosses a thread boundary.
        let (out, _) = scoped_map_init(
            4,
            16,
            |_w| std::rc::Rc::new(std::cell::Cell::new(0u64)),
            |rc, i, _w| {
                rc.set(rc.get() + 1);
                i + 7
            },
        );
        assert_eq!(out, (0..16).map(|i| i + 7).collect::<Vec<_>>());
    }

    /// The claim cursor under adversarial interleaving: many rounds of
    /// tiny batches maximize races on the last items and on the exit
    /// claims past the end; every item must be executed exactly once
    /// every round.
    #[test]
    fn shard_races_never_lose_or_duplicate_items() {
        use std::sync::atomic::{AtomicU64, Ordering};
        for round in 0..50 {
            let n = 1 + (round % 7);
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let (out, _) = scoped_map(4, n, |i, _w| {
                hits[i].fetch_add(1, Ordering::SeqCst);
                i
            });
            assert_eq!(out, (0..n).collect::<Vec<_>>());
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "item {i} round {round}");
            }
        }
    }

    #[test]
    fn effective_workers_caps_fanout() {
        let cap = auto_workers().max(1);
        // Never more workers than items (independent of the core cap).
        assert!(effective_workers_for(8, 3, 1) <= 3);
        assert_eq!(effective_workers_for(8, 3, 1), 3.min(cap));
        // 0 means one worker per core, still capped by the item count.
        assert_eq!(effective_workers_for(0, 10, 1), cap.min(10));
        assert_eq!(effective_workers_for(1, 0, 1), 1);
        // Never more than the machine's parallelism — oversubscription
        // only time-slices cores while multiplying per-worker setup.
        assert!(effective_workers_for(1024, 4096, 1) <= cap);
        // Small requests under both caps pass through unchanged.
        assert_eq!(effective_workers_for(1, 100, 1), 1);
    }

    #[test]
    fn effective_workers_min_work_threshold() {
        let cap = auto_workers().max(1);
        // Below the threshold the fan-out falls back toward serial...
        assert_eq!(effective_workers_for(8, 3, 4), 1);
        assert_eq!(effective_workers_for(4, 7, 4), 1);
        // ...partial work caps the worker count...
        assert_eq!(effective_workers_for(8, 8, 4), 2.min(cap));
        // ...and plentiful work leaves the request alone.
        assert_eq!(effective_workers_for(2, 4096, 64), 2.min(cap));
        // 0/1 disables the threshold.
        assert_eq!(
            effective_workers_for(2, 2, 0),
            effective_workers_for(2, 2, 1)
        );
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn panics_propagate_from_inline_run() {
        scoped_map(1, 8, |i, _w| assert!(i != 3, "item 3 failed"));
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn panics_propagate_from_threaded_run() {
        let (_, stats) = scoped_map(4, 8, |i, _w| assert!(i != 3, "item 3 failed"));
        unreachable!("a 4-worker run with a panicking item returned: {stats:?}");
    }

    #[test]
    fn export_emits_pool_namespace() {
        let t = Tracer::new();
        let (_, stats) = scoped_map(4, 32, |i, _w| i);
        stats.export_to(&t, "test");
        assert_eq!(t.counter("pool.test.runs"), 1);
        assert_eq!(t.counter("pool.test.items"), 32);
        assert!(t.counter("pool.test.run_ns") > 0);
        let snap = t.snapshot();
        let lanes = snap
            .thread_names
            .iter()
            .filter(|n| n.starts_with("pool.test.w"))
            .count();
        assert_eq!(lanes, stats.workers, "one utilization lane per worker");
        let item_spans = snap
            .events
            .iter()
            .filter(|e| matches!(e, parallax_trace::Event::Span { cat: "pool", .. }))
            .count();
        assert_eq!(item_spans, 32, "one lane span per item");
    }
}
