//! End-to-end engine tests: scheduling-independence of outputs, warm
//! cache behavior, and poisoned-cache recovery.

use std::sync::Mutex;

use parallax_compiler::parse_module;
use parallax_core::{protect, FaultPlan, ProtectConfig, Verdict};
use parallax_engine::{
    chain_mode_for, ArtifactKind, Engine, EngineEvent, EngineOptions, Job, JobSource, ALL_MODES,
};
use parallax_image::format;

const SRC: &str = r#"
    global secret = "k3y";
    fn licensed() { return 0; }
    fn vf(x) { return x * 3 + 1; }
    fn main() {
        let r = vf(2);
        if licensed() == 1 { return r; }
        return 99;
    }
"#;

fn test_jobs() -> Vec<Job> {
    let module = parse_module(SRC).expect("test module parses");
    ALL_MODES
        .iter()
        .flat_map(|mode| {
            [1u64, 2].map(|seed| {
                let cfg = ProtectConfig {
                    verify_funcs: vec!["vf".to_owned()],
                    mode: chain_mode_for(mode, seed).expect("known mode"),
                    seed,
                    ..ProtectConfig::default()
                };
                Job {
                    name: format!("test/{mode}#{seed}"),
                    source: JobSource::Module(Box::new(module.clone())),
                    cfg,
                    input: None,
                    plan: FaultPlan::default(),
                }
            })
        })
        .collect()
}

fn run_with_workers(workers: usize) -> parallax_engine::BatchReport {
    let engine = Engine::new(EngineOptions {
        workers,
        ..EngineOptions::default()
    });
    engine.run(test_jobs(), |_| {}).expect("no log file in use")
}

#[test]
fn outputs_are_identical_across_worker_counts_and_match_direct_protect() {
    let one = run_with_workers(1);
    let eight = run_with_workers(8);
    assert_eq!(one.results.len(), eight.results.len());
    assert!(one.all_clean(), "single-worker batch must validate Clean");
    assert!(eight.all_clean(), "8-worker batch must validate Clean");

    let module = parse_module(SRC).expect("test module parses");
    for (a, b) in one.results.iter().zip(&eight.results) {
        assert_eq!(a.name, b.name);
        assert!(!a.image.is_empty(), "{}: empty image", a.name);
        assert_eq!(
            a.image, b.image,
            "{}: image bytes differ between 1 and 8 workers",
            a.name
        );
        assert_eq!(a.verdict, Some(Verdict::Clean), "{}", a.name);

        // The engine path must be byte-identical to a sequential
        // `protect()` of the same module and config.
        let job = &test_jobs()[one
            .results
            .iter()
            .position(|r| r.name == a.name)
            .expect("job present")];
        let direct = protect(&module, &job.cfg).expect("direct protect succeeds");
        assert_eq!(
            a.image,
            format::save(&direct.image),
            "{}: engine output differs from direct protect()",
            a.name
        );
    }
}

#[test]
fn warm_second_batch_is_served_from_cache() {
    let engine = Engine::new(EngineOptions {
        workers: 2,
        ..EngineOptions::default()
    });
    let cold = engine.run(test_jobs(), |_| {}).expect("cold batch runs");
    assert!(cold.all_clean());
    assert!(
        cold.results.iter().all(|r| !r.cached),
        "cold batch must compute everything"
    );
    // Scans of the pass-1/pass-2 placeholder images repeat across the
    // two seeds of each mode, so even the cold batch sees scan hits.
    assert!(cold.metrics.cache.hits > 0, "{:?}", cold.metrics.cache);

    let warm = engine.run(test_jobs(), |_| {}).expect("warm batch runs");
    assert!(warm.all_clean());
    assert!(
        warm.results.iter().all(|r| r.cached),
        "warm batch must be served from the protected-result cache"
    );
    assert!(warm.metrics.cache.hit_rate() > 0.0);
    for (a, b) in cold.results.iter().zip(&warm.results) {
        assert_eq!(a.image, b.image, "{}: cached result differs", a.name);
    }
}

#[test]
fn poisoned_cache_is_detected_evicted_and_recomputed() {
    let engine = Engine::new(EngineOptions::default());
    let jobs = || {
        let mut jobs = test_jobs();
        jobs.truncate(1);
        jobs
    };
    let first = engine.run(jobs(), |_| {}).expect("first run");
    assert!(first.all_clean());

    // Same job again, but the fault plan rots every cached payload
    // before the job's fetches (stored hashes stay, so verification
    // must catch the mismatch).
    let events = Mutex::new(Vec::new());
    let mut poisoned_jobs = jobs();
    poisoned_jobs[0].plan = FaultPlan::default().poison_scan_cache();
    let second = engine
        .run(poisoned_jobs, |ev| {
            if let Ok(mut v) = events.lock() {
                v.push(ev.clone());
            }
        })
        .expect("poisoned run");
    assert!(second.all_clean());

    let events = events.into_inner().expect("no poisoned lock");
    let poisoned_kinds: Vec<ArtifactKind> = events
        .iter()
        .filter_map(|ev| match ev {
            EngineEvent::CachePoisoned { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    assert!(
        poisoned_kinds.contains(&ArtifactKind::Protected),
        "poisoned protected-result entry must be reported: {poisoned_kinds:?}"
    );
    assert!(
        !second.results[0].cached,
        "poisoned entry must not be served"
    );
    assert_eq!(
        first.results[0].image, second.results[0].image,
        "recomputed result must be byte-identical"
    );
    assert!(second.metrics.cache.poisoned > 0);

    // And the cache healed: a third run hits cleanly again.
    let third = engine.run(jobs(), |_| {}).expect("third run");
    assert!(third.results[0].cached, "cache must heal after recompute");
    assert_eq!(first.results[0].image, third.results[0].image);
}

/// `workers: 0` means one worker per core, the same rule `plx protect
/// --jobs 0` follows, not a serial batch.
#[test]
fn zero_workers_means_one_per_core() {
    let tracer = std::sync::Arc::new(parallax_trace::Tracer::new());
    let engine = Engine::new(EngineOptions {
        workers: 0,
        trace: Some(std::sync::Arc::clone(&tracer)),
        ..EngineOptions::default()
    });
    let mut jobs = test_jobs();
    jobs.truncate(4);
    let n = jobs.len();
    let report = engine.run(jobs, |_| {}).expect("batch runs");
    assert!(report.all_clean());
    let snap = tracer.snapshot();
    let workers = snap
        .hists
        .get("pool.jobs.workers")
        .expect("pool.jobs recorded");
    let auto = parallax_pool::effective_workers_for(parallax_pool::auto_workers(), n, 1);
    assert_eq!(workers.max, auto as u64);
    assert_eq!(workers.count, 1, "one pool run per batch");
}

#[test]
fn traced_batch_lands_jobs_stages_and_events_on_one_timeline() {
    let tracer = std::sync::Arc::new(parallax_trace::Tracer::new());
    let engine = Engine::new(EngineOptions {
        workers: 2,
        trace: Some(std::sync::Arc::clone(&tracer)),
        ..EngineOptions::default()
    });
    let mut jobs = test_jobs();
    jobs.truncate(2);
    let report = engine.run(jobs, |_| {}).expect("traced batch runs");
    assert!(report.all_clean());

    let snap = tracer.snapshot();
    let span_names: Vec<&str> = snap
        .events
        .iter()
        .filter_map(|e| match e {
            parallax_trace::Event::Span { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(
        span_names.iter().filter(|n| n.starts_with("job:")).count(),
        2,
        "one span per job: {span_names:?}"
    );
    for stage in ["select", "chain-compile", "link"] {
        assert!(span_names.contains(&stage), "{stage} span: {span_names:?}");
    }
    assert!(
        span_names.contains(&"validate"),
        "validation span: {span_names:?}"
    );
    // Engine events ride along as instants with the event kind as name.
    let instant_names: Vec<&str> = snap
        .events
        .iter()
        .filter_map(|e| match e {
            parallax_trace::Event::Instant { name, cat, .. } if *cat == "engine" => {
                Some(name.as_str())
            }
            _ => None,
        })
        .collect();
    for kind in ["job_queued", "job_started", "job_finished", "cache_miss"] {
        assert!(
            instant_names.contains(&kind),
            "{kind} instant: {instant_names:?}"
        );
    }
    assert!(snap.hists.contains_key("vm.validate.cycles"));
    assert_eq!(snap.hists["vm.validate.cycles"].count, 2);

    // Each stage block is recorded once, as its `stage` span: no
    // instant repeats it. An undegraded protect runs 13 blocks (link
    // three times, load, scan and chain-compile twice, the rest once).
    assert!(
        !instant_names.contains(&"stage_completed"),
        "stage blocks recorded twice: {instant_names:?}"
    );
    assert!(report.results.iter().all(|r| r.degradations == 0));
    let stage_spans: Vec<&str> = snap
        .events
        .iter()
        .filter_map(|e| match e {
            parallax_trace::Event::Span { name, cat, .. } if *cat == "stage" => Some(name.as_str()),
            _ => None,
        })
        .collect();
    for (stage, per_job) in [
        ("select", 1),
        ("load", 2),
        ("rewrite", 1),
        ("gadget-scan", 2),
        ("chain-compile", 2),
        ("map", 1),
        ("link", 3),
        ("verify", 1),
    ] {
        let n = stage_spans.iter().filter(|&&s| s == stage).count();
        assert_eq!(n, 2 * per_job, "{stage} spans: {stage_spans:?}");
    }
    assert_eq!(stage_spans.len(), 2 * 13, "{stage_spans:?}");
}

#[test]
fn ndjson_log_is_written() {
    let dir = std::env::temp_dir().join("plx-engine-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join(format!("events-{}.ndjson", std::process::id()));
    let engine = Engine::new(EngineOptions {
        log_json: Some(log.clone()),
        ..EngineOptions::default()
    });
    let report = engine.run(test_jobs(), |_| {}).expect("batch runs");
    assert!(report.all_clean());
    let text = std::fs::read_to_string(&log).expect("log written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 3 * report.results.len());
    for line in &lines {
        assert!(
            line.starts_with("{\"event\":\"") && line.ends_with('}'),
            "malformed NDJSON line: {line}"
        );
    }
    assert!(lines.iter().any(|l| l.contains("\"job_finished\"")));
    // Stage time is the tracer's alone; the event log carries none.
    assert!(!lines.iter().any(|l| l.contains("\"stage_completed\"")));
    let _ = std::fs::remove_file(&log);
}

#[test]
fn cancelled_batch_sheds_unstarted_jobs_with_typed_errors() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // One worker for a deterministic start order; cancel fires as soon
    // as the first job finishes, so the remaining jobs must be shed —
    // never silently dropped, never started.
    let engine = Engine::new(EngineOptions {
        workers: 1,
        ..EngineOptions::default()
    });
    let jobs: Vec<Job> = test_jobs().into_iter().take(3).collect();
    let cancel = AtomicBool::new(false);
    let events = Mutex::new(Vec::new());
    let report = engine
        .run_with_cancel(jobs, Some(&cancel), |ev| {
            if matches!(ev, EngineEvent::JobFinished { .. }) {
                cancel.store(true, Ordering::SeqCst);
            }
            if let Ok(mut v) = events.lock() {
                v.push(ev.clone());
            }
        })
        .expect("drained batch still reports");

    assert_eq!(report.results.len(), 3, "every job gets a result slot");
    assert!(report.results[0].error.is_none(), "first job completed");
    assert_eq!(report.results[0].verdict, Some(Verdict::Clean));
    for r in &report.results[1..] {
        let err = r.error.as_deref().expect("unstarted job carries an error");
        assert!(err.starts_with("shed(shutdown)"), "{}: {err}", r.name);
        assert!(
            r.image.is_empty(),
            "{}: shed job must not produce bytes",
            r.name
        );
    }
    assert!(!report.all_clean(), "a drained batch is not clean");

    let events = events.into_inner().expect("no poisoned lock");
    let shed: Vec<_> = events
        .iter()
        .filter(|ev| {
            matches!(
                ev,
                EngineEvent::JobShed {
                    reason: parallax_engine::ShedReason::Shutdown,
                    ..
                }
            )
        })
        .collect();
    assert_eq!(shed.len(), 2, "both unstarted jobs emit JobShed");
    let started = events
        .iter()
        .filter(|ev| matches!(ev, EngineEvent::JobStarted { .. }))
        .count();
    assert_eq!(started, 1, "shed jobs never start");
}
