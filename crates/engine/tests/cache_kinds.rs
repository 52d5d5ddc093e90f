//! What the engine's artifact cache holds: whole protected results,
//! gadget scans and pass-1 function rewrites, and no per-gadget
//! verdicts. A batch's artifacts fit a small cache, so a repeated
//! batch is served whole from it.

use parallax_compiler::compile_module;
use parallax_core::{protect_with, Ctx, ProtectConfig};
use parallax_engine::{
    chain_mode_for, ArtifactCache, CacheHooks, Engine, EngineOptions, Job, ALL_MODES,
};
use parallax_trace::Tracer;

/// The first two corpus programs in every chain mode, at seed 1.
fn corpus_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for w in parallax_corpus::all().into_iter().take(2) {
        for mode in ALL_MODES {
            let cfg = ProtectConfig {
                mode: chain_mode_for(mode, 1).expect("known mode"),
                seed: 1,
                ..ProtectConfig::default()
            };
            jobs.push(Job::corpus(w.name, cfg));
        }
    }
    jobs
}

#[test]
fn a_repeated_batch_is_served_whole_from_a_small_cache() {
    let engine = Engine::new(EngineOptions {
        cache_capacity: 256,
        validate: false,
        ..EngineOptions::default()
    });
    let first = engine.run(corpus_jobs(), |_| {}).expect("no log file");
    assert!(first.results.iter().all(|r| r.error.is_none()));
    let second = engine.run(corpus_jobs(), |_| {}).expect("no log file");
    assert_eq!(second.results.len(), 8);
    for (a, b) in first.results.iter().zip(&second.results) {
        assert!(b.cached, "{}: recomputed", b.name);
        assert_eq!(a.image, b.image, "{}", b.name);
    }
    assert_eq!(engine.cache().stats().evictions, 0);
}

#[test]
fn a_cached_protect_counts_only_rewritten_function_traffic() {
    let w = &parallax_corpus::all()[0];
    let module = (w.module)();
    let cfg = ProtectConfig {
        verify_funcs: vec![w.verify_func.to_owned()],
        ..ProtectConfig::default()
    };
    let impls = cfg.verify_impls(&module).expect("verification function");
    let prog = compile_module(&module).expect("compiles");
    let cache = ArtifactCache::new(1024, None);
    let store = CacheHooks::new(0, &cache, None);
    let tracer = Tracer::new();
    let ctx = Ctx {
        store: &store,
        tracer: Some(&tracer),
        ..Ctx::default()
    };
    protect_with(prog, &impls, &cfg, &ctx).expect("protects");
    let counters = tracer.snapshot().counters;
    assert!(counters.contains_key("cache.func.rewritten.miss"));
    // Rewritten functions are the only per-item cache traffic.
    let others: Vec<&String> = counters
        .keys()
        .filter(|k| k.starts_with("cache.func.") && !k.starts_with("cache.func.rewritten."))
        .collect();
    assert!(others.is_empty(), "{others:?}");
}
