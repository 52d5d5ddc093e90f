//! The batch-protection engine.
//!
//! An [`Engine`] executes a queue of [`Job`]s — each a (program,
//! [`ProtectConfig`], seed) triple — on a work-stealing pool of OS
//! threads, sharing one content-addressed [`ArtifactCache`] so jobs
//! that protect the same base image reuse each other's gadget scans,
//! coverage analyses, and (on repeat runs) whole protected results.
//! Every observable step is published as an [`EngineEvent`] through an
//! [`EventSink`].
//!
//! Determinism: a job's output depends only on its inputs — the base
//! image bytes, the full `ProtectConfig` (including the seed), and the
//! fault plan — never on worker count or scheduling. The cache is keyed
//! by a content hash of exactly those inputs and verified on every
//! fetch, so a hit is byte-for-byte what a recompute would produce.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use parallax_compiler::{compile_module, Module};
use parallax_core::{
    classify_outcome, load_verified_image, protect_with, run_baseline, ArtifactStore, Baseline,
    ChainArtifact, Ctx, FaultPlan, ProtectConfig, Verdict,
};
use parallax_corpus::by_name;
use parallax_gadgets::{deserialize_gadgets, serialize_gadgets, Gadget};
use parallax_image::{format, LinkedImage};
use parallax_rewrite::{Coverage, FuncRewriteOutcome};
use parallax_trace::Tracer;
use parallax_vm::{Vm, VmOptions};

use crate::artifacts::{
    decode_chain, decode_coverage, decode_protected, decode_rewritten_func, encode_chain,
    encode_coverage, encode_protected, encode_rewritten_func, ChainSummary,
};
use crate::cache::{ArtifactCache, ArtifactKind, Fetch, Key};
use crate::events::{EngineEvent, EventSink, ShedReason};
use crate::hash::{hash128, hash128_pair};
use crate::metrics::MetricsSnapshot;
use crate::provenance::{
    toolchain_id, Digests, Ledger, ProvenanceRecord, StageDigest, RECORD_VERSION,
};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads (clamped to at least 1 and at most the job
    /// count).
    pub workers: usize,
    /// In-memory cache capacity, in entries. Sized for per-candidate
    /// gadget-verdict entries (hundreds per image version), not just
    /// whole-image artifacts.
    pub cache_capacity: usize,
    /// On-disk cache directory (`None` for memory-only).
    pub cache_dir: Option<PathBuf>,
    /// Run every protected image in the VM and classify it against the
    /// unprotected baseline (the tamper watchdog's `Clean` check).
    pub validate: bool,
    /// Write each event as a line of JSON to this path.
    pub log_json: Option<PathBuf>,
    /// VM budgets for baseline and validation runs.
    pub vm: VmOptions,
    /// Shared tracer: per-job spans, pipeline stage spans, and every
    /// [`EngineEvent`] as an instant, all on one timeline.
    pub trace: Option<Arc<Tracer>>,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            workers: 1,
            cache_capacity: 4096,
            cache_dir: None,
            validate: true,
            log_json: None,
            vm: VmOptions::default(),
            trace: None,
        }
    }
}

/// Where a job's IR module comes from.
#[derive(Debug, Clone)]
pub enum JobSource {
    /// A named corpus workload (`wget`, `nginx`, ...).
    Corpus(String),
    /// An explicit IR module.
    Module(Box<Module>),
}

/// One protection job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display name (`program/mode#seed` by convention).
    pub name: String,
    /// Module source.
    pub source: JobSource,
    /// Protection configuration. For corpus sources with empty
    /// `verify_funcs`, the workload's designated verification function
    /// is filled in.
    pub cfg: ProtectConfig,
    /// Validation input (`None` uses the workload's deterministic
    /// input, or empty for module sources).
    pub input: Option<Vec<u8>>,
    /// Fault-injection plan (default: no faults).
    pub plan: FaultPlan,
}

impl Job {
    /// A corpus job with the conventional display name.
    pub fn corpus(program: &str, cfg: ProtectConfig) -> Job {
        Job {
            name: format!("{program}/{}#{}", cfg.mode.name(), cfg.seed),
            source: JobSource::Corpus(program.to_owned()),
            cfg,
            input: None,
            plan: FaultPlan::default(),
        }
    }
}

/// Outcome of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Display name.
    pub name: String,
    /// The protected image in `PLX` container bytes (empty on error).
    pub image: Vec<u8>,
    /// Total usable gadgets in the protected image.
    pub gadget_count: usize,
    /// Per-chain statistics.
    pub chains: Vec<ChainSummary>,
    /// Degradation-ladder fallbacks the build took.
    pub degradations: usize,
    /// Whether the protected result came from the cache.
    pub cached: bool,
    /// Watchdog verdict (`None` when validation was disabled or the
    /// job failed before it).
    pub verdict: Option<Verdict>,
    /// VM cycles spent validating.
    pub vm_cycles: u64,
    /// Job wall time in microseconds.
    pub micros: u64,
    /// Failure message, `None` on success.
    pub error: Option<String>,
}

/// Everything a finished batch produced.
pub struct BatchReport {
    /// Per-job outcomes, in submission order.
    pub results: Vec<JobResult>,
    /// Frozen batch metrics.
    pub metrics: MetricsSnapshot,
}

impl BatchReport {
    /// True when every job succeeded and every validated image ran
    /// byte-identically to its unprotected baseline.
    pub fn all_clean(&self) -> bool {
        self.results
            .iter()
            .all(|r| r.error.is_none() && r.verdict.is_none_or(|v| v == Verdict::Clean))
    }
}

/// The batch-protection engine. One instance owns the artifact cache
/// and the baseline store; [`Engine::run`] executes batches against
/// them, so consecutive batches share warm state.
pub struct Engine {
    opts: EngineOptions,
    cache: ArtifactCache,
    ledger: Option<Ledger>,
    baselines: Mutex<HashMap<u128, Arc<Baseline>>>,
}

impl Engine {
    /// Creates an engine.
    pub fn new(opts: EngineOptions) -> Engine {
        let cache = ArtifactCache::new(opts.cache_capacity, opts.cache_dir.clone());
        // The provenance ledger lives beside the disk cache; a
        // memory-only engine keeps no ledger.
        let ledger = opts
            .cache_dir
            .as_ref()
            .map(|d| Ledger::new(d.join("provenance")));
        Engine {
            opts,
            cache,
            ledger,
            baselines: Mutex::new(HashMap::new()),
        }
    }

    /// The engine's artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The engine's provenance ledger (`None` without a cache dir).
    pub fn ledger(&self) -> Option<&Ledger> {
        self.ledger.as_ref()
    }

    /// Executes `jobs`, streaming events to `subscriber`, and returns
    /// per-job results (in submission order) plus batch metrics.
    pub fn run(
        &self,
        jobs: Vec<Job>,
        subscriber: impl FnMut(&EngineEvent) + Send,
    ) -> std::io::Result<BatchReport> {
        self.run_with_cancel(jobs, None, subscriber)
    }

    /// Like [`Engine::run`], but with a cooperative drain: when
    /// `cancel` flips to `true` mid-batch, jobs already started finish
    /// normally (their results are kept), while jobs not yet picked up
    /// are *shed* — each emits an [`EngineEvent::JobShed`] with
    /// [`ShedReason::Shutdown`] and returns a typed
    /// `shed(shutdown)`-prefixed error instead of executing. This is
    /// the drain path behind `plx batch`'s signal handling and the
    /// serve daemon's graceful shutdown.
    pub fn run_with_cancel(
        &self,
        jobs: Vec<Job>,
        cancel: Option<&std::sync::atomic::AtomicBool>,
        subscriber: impl FnMut(&EngineEvent) + Send,
    ) -> std::io::Result<BatchReport> {
        // Every event also lands on the trace timeline as an instant,
        // so a --trace-out file carries the full event stream.
        let ev_trace = self.opts.trace.clone();
        let mut subscriber = subscriber;
        let sink = EventSink::new(
            move |ev: &EngineEvent| {
                if let Some(t) = &ev_trace {
                    t.instant(
                        ev.kind(),
                        "engine",
                        vec![("job".to_string(), (ev.job() as u64).into())],
                    );
                }
                subscriber(ev);
            },
            self.opts.log_json.as_deref(),
        )?;
        for (i, job) in jobs.iter().enumerate() {
            sink.emit(&EngineEvent::JobQueued {
                job: i,
                name: job.name.clone(),
            });
        }

        let t0 = Instant::now();
        let n_workers = parallax_pool::effective_workers(self.opts.workers, jobs.len());
        let (results, pool_stats) = {
            let jobs = &jobs;
            let sink = &sink;
            parallax_pool::scoped_map(n_workers, jobs.len(), |idx, w| {
                if n_workers > 1 {
                    if let Some(t) = &self.opts.trace {
                        t.set_thread_name(&format!("worker-{w}"));
                    }
                }
                let job = &jobs[idx];
                if cancel.is_some_and(|c| c.load(std::sync::atomic::Ordering::SeqCst)) {
                    // Draining: this job was queued but never started.
                    // Shed it with a typed refusal instead of running.
                    sink.emit(&EngineEvent::JobShed {
                        job: idx,
                        reason: ShedReason::Shutdown,
                    });
                    return JobResult {
                        name: job.name.clone(),
                        image: Vec::new(),
                        gadget_count: 0,
                        chains: Vec::new(),
                        degradations: 0,
                        cached: false,
                        verdict: None,
                        vm_cycles: 0,
                        micros: 0,
                        error: Some(format!(
                            "shed({}): batch drained before this job started",
                            ShedReason::Shutdown
                        )),
                    };
                }
                let job_span = self
                    .opts
                    .trace
                    .as_ref()
                    .map(|t| t.span(&format!("job:{}", job.name), "engine"));
                sink.emit(&EngineEvent::JobStarted {
                    job: idx,
                    name: job.name.clone(),
                    worker: w,
                });
                let t = Instant::now();
                let mut result = match self.run_job(idx, job, sink) {
                    Ok(r) => r,
                    Err(e) => JobResult {
                        name: job.name.clone(),
                        image: Vec::new(),
                        gadget_count: 0,
                        chains: Vec::new(),
                        degradations: 0,
                        cached: false,
                        verdict: None,
                        vm_cycles: 0,
                        micros: 0,
                        error: Some(e),
                    },
                };
                result.micros = t.elapsed().as_micros() as u64;
                sink.emit(&EngineEvent::JobFinished {
                    job: idx,
                    name: result.name.clone(),
                    micros: result.micros,
                    cached: result.cached,
                    verdict: result.verdict,
                    vm_cycles: result.vm_cycles,
                    error: result.error.clone(),
                });
                drop(job_span);
                result
            })
        };

        sink.flush();
        if let Some(t) = &self.opts.trace {
            // Counters only: each job already has a `job:` span on its
            // worker's real lane, so utilization lanes would duplicate.
            pool_stats.export_counters_to(t, "jobs");
        }
        let metrics = sink.metrics.snapshot(t0.elapsed(), self.cache.stats());
        Ok(BatchReport { results, metrics })
    }

    fn run_job(&self, idx: usize, job: &Job, sink: &EventSink<'_>) -> Result<JobResult, String> {
        // Resolve the module and effective config.
        let (module, default_input, cfg) = match &job.source {
            JobSource::Corpus(name) => {
                let w = by_name(name).ok_or_else(|| format!("unknown corpus program '{name}'"))?;
                let mut cfg = job.cfg.clone();
                if cfg.verify_funcs.is_empty() {
                    cfg.verify_funcs.push(w.verify_func.to_owned());
                }
                ((w.module)(), (w.input)(), cfg)
            }
            JobSource::Module(m) => ((**m).clone(), Vec::new(), job.cfg.clone()),
        };
        let input = job.input.clone().unwrap_or(default_input);

        let verify_impls = cfg.verify_impls(&module).map_err(|e| e.to_string())?;
        let prog = compile_module(&module).map_err(|e| format!("compile: {e:?}"))?;
        let base_img = prog.link().map_err(|e| format!("link: {e:?}"))?;
        let base_bytes = format::save(&base_img);

        if job.plan.poisons_scan_cache() {
            // Fault-injection scenario: everything cached so far rots
            // (payload bytes flip, stored hashes stay). The fetches
            // below must detect the mismatch and recompute.
            self.cache.poison_everything();
        }

        // The protected result is fully determined by the base image
        // bytes and the (config, pipeline-affecting fault plan) pair;
        // `Debug` of plain data is a stable canonical text form.
        // Cache-layer faults are normalized away: poisoning is healed
        // by the cache, so it must not key away from the poisoned
        // entries. The config is key-normalized because the worker
        // count never changes the output image.
        let pkey = Key {
            kind: ArtifactKind::Protected,
            hash: hash128_pair(
                &base_bytes,
                format!(
                    "cfg={:?};plan={:?}",
                    cfg.key_normalized(),
                    job.plan.without_cache_faults()
                )
                .as_bytes(),
            ),
        };
        let fetched = match self.cache.fetch(pkey) {
            // A hit is only trusted after the cached image passes the
            // same fail-closed verifier a load would apply: a decode
            // failure or a verification failure evicts the entry and
            // falls through to a recompute, exactly like hash
            // poisoning one layer down.
            Fetch::Hit(payload) => match decode_protected(&payload) {
                Some(a) if load_verified_image(&a.image).is_ok() => {
                    sink.emit(&EngineEvent::CacheHit {
                        job: idx,
                        kind: ArtifactKind::Protected,
                    });
                    Some(a)
                }
                _ => {
                    self.cache.evict(pkey);
                    if let Some(t) = &self.opts.trace {
                        t.count("cache.verify.fail", 1);
                    }
                    sink.emit(&EngineEvent::CachePoisoned {
                        job: idx,
                        kind: ArtifactKind::Protected,
                    });
                    None
                }
            },
            Fetch::Poisoned => {
                sink.emit(&EngineEvent::CachePoisoned {
                    job: idx,
                    kind: ArtifactKind::Protected,
                });
                None
            }
            Fetch::Miss => {
                sink.emit(&EngineEvent::CacheMiss {
                    job: idx,
                    kind: ArtifactKind::Protected,
                });
                None
            }
        };

        let (image_bytes, gadget_count, chains, degradations, cached) = match fetched {
            Some(a) => (a.image, a.gadget_count, a.chains, a.degradations, true),
            None => {
                let store = CacheHooks::new(idx, &self.cache, Some(sink));
                let ctx = Ctx {
                    store: &store,
                    tracer: self.opts.trace.as_deref(),
                    faults: &job.plan,
                };
                let run = protect_with(prog, &verify_impls, &cfg, &ctx);
                // Stage times and fallbacks come back with the run,
                // failed or not.
                let (stage_log, degradations) = match &run {
                    Ok(p) => (&p.report.stage_log[..], &p.report.degradations[..]),
                    Err(e) => (&e.stage_log[..], &e.degradations[..]),
                };
                for &(stage, elapsed) in stage_log {
                    sink.emit(&EngineEvent::StageCompleted {
                        job: idx,
                        stage,
                        micros: elapsed.as_micros() as u64,
                    });
                }
                for d in degradations {
                    sink.emit(&EngineEvent::Degraded {
                        job: idx,
                        func: d.func.clone(),
                        missing: d.missing.clone(),
                        stdset_forced: d.stdset_forced,
                    });
                }
                let protected = run.map_err(|e| e.to_string())?;
                let image_bytes = format::save(&protected.image);
                self.cache
                    .store(pkey, encode_protected(&image_bytes, &protected.report));
                if let Some(ledger) = &self.ledger {
                    let record = ProvenanceRecord {
                        version: RECORD_VERSION,
                        toolchain: toolchain_id(),
                        input_hash: hash128(&base_bytes),
                        config: format!(
                            "cfg={:?};plan={:?}",
                            cfg.key_normalized(),
                            job.plan.without_cache_faults()
                        ),
                        stages: store.stage_digests(),
                        image_hash: hash128(&image_bytes),
                    };
                    // A failed ledger write never fails the job: the
                    // image is still good, only its paper trail is
                    // missing, and `plx verify --provenance` will say
                    // so.
                    if ledger.store(&record).is_err() {
                        if let Some(t) = &self.opts.trace {
                            t.count("provenance.store.fail", 1);
                        }
                    }
                }
                let chains = protected
                    .report
                    .chains
                    .iter()
                    .map(|c| ChainSummary {
                        func: c.func.clone(),
                        ops: c.ops,
                        words: c.words,
                        overlapping_used: c.overlapping_used,
                        used_gadgets: c.used_gadgets.len(),
                    })
                    .collect();
                (
                    image_bytes,
                    protected.report.gadget_count,
                    chains,
                    protected.report.degradations.len(),
                    false,
                )
            }
        };

        let (verdict, vm_cycles) = if self.opts.validate {
            let _vspan = self
                .opts
                .trace
                .as_ref()
                .map(|t| t.span("validate", "engine"));
            // Fail-closed: validation goes through the same verified
            // loader the CLI uses — the VM never sees an image that
            // didn't pass structural verification.
            let vt = Instant::now();
            let img = match load_verified_image(&image_bytes) {
                Ok(v) => {
                    if let Some(t) = &self.opts.trace {
                        t.count("image.verify.pass", 1);
                        t.count("image.verify.ns", vt.elapsed().as_nanos() as u64);
                    }
                    v
                }
                Err(e) => {
                    if let Some(t) = &self.opts.trace {
                        t.count("image.verify.fail", 1);
                        t.count("image.verify.ns", vt.elapsed().as_nanos() as u64);
                    }
                    return Err(format!("image verify: {e}"));
                }
            };
            let baseline = self.baseline_for(&base_bytes, &base_img, &input);
            let mut vm = Vm::from_verified_with_options(&img, self.opts.vm.clone());
            vm.set_input(&input);
            let exit = vm.run();
            let cycles = vm.cycles();
            let output = vm.take_output();
            if let Some(t) = &self.opts.trace {
                t.record("vm.validate.cycles", cycles);
                let bs = vm.block_stats();
                t.count("vm.block.hit", bs.hits);
                t.count("vm.block.miss", bs.misses);
                t.count("vm.block.invalidate", bs.invalidated);
            }
            (Some(classify_outcome(exit, &output, &baseline)), cycles)
        } else {
            (None, 0)
        };

        Ok(JobResult {
            name: job.name.clone(),
            image: image_bytes,
            gadget_count,
            chains,
            degradations,
            cached,
            verdict,
            vm_cycles,
            micros: 0,
            error: None,
        })
    }

    /// The unprotected baseline for (base image, input), computed once
    /// and shared across every mode and seed of the same program.
    fn baseline_for(
        &self,
        base_bytes: &[u8],
        base_img: &LinkedImage,
        input: &[u8],
    ) -> Arc<Baseline> {
        let key = hash128_pair(base_bytes, input);
        if let Ok(map) = self.baselines.lock() {
            if let Some(b) = map.get(&key) {
                return Arc::clone(b);
            }
        }
        // Computed outside the lock: two workers may race to the same
        // baseline, which is idempotent and cheaper than serializing
        // every VM run behind the map.
        let b = Arc::new(run_baseline(base_img, input, &self.opts.vm));
        if let Ok(mut map) = self.baselines.lock() {
            return Arc::clone(map.entry(key).or_insert(b));
        }
        b
    }
}

/// Per-job [`ArtifactStore`] backed by the shared [`ArtifactCache`]:
/// routes the pipeline's artifact seams — whole-image scans and
/// coverage plus function-grained rewrite and chain artifacts — to the
/// cache, reports cache traffic to an event sink when one is attached,
/// and digests every artifact it serves or stores for the job's
/// provenance record.
pub struct CacheHooks<'a, 'cb> {
    job: usize,
    cache: &'a ArtifactCache,
    sink: Option<&'a EventSink<'cb>>,
    digests: Digests,
}

impl<'a, 'cb> CacheHooks<'a, 'cb> {
    /// Store for job `job` backed by `cache`; cache traffic is reported
    /// to `sink` when one is given.
    pub fn new(job: usize, cache: &'a ArtifactCache, sink: Option<&'a EventSink<'cb>>) -> Self {
        CacheHooks {
            job,
            cache,
            sink,
            digests: Digests::default(),
        }
    }

    /// Digests of every artifact served or stored so far, sorted by
    /// kind (see [`Digests`]).
    pub fn stage_digests(&self) -> Vec<StageDigest> {
        self.digests.stage_digests()
    }

    /// Fetches `key`, digesting the artifact when `decode` accepts it.
    fn fetch<T>(&self, key: Key, decode: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
        let ev = match self.cache.fetch(key) {
            Fetch::Hit(payload) => {
                self.emit(&EngineEvent::CacheHit {
                    job: self.job,
                    kind: key.kind,
                });
                let out = decode(&payload);
                if out.is_some() {
                    self.digests.absorb(key);
                }
                return out;
            }
            Fetch::Poisoned => EngineEvent::CachePoisoned {
                job: self.job,
                kind: key.kind,
            },
            Fetch::Miss => EngineEvent::CacheMiss {
                job: self.job,
                kind: key.kind,
            },
        };
        self.emit(&ev);
        None
    }

    fn store(&self, key: Key, payload: Vec<u8>) {
        self.digests.absorb(key);
        self.cache.store(key, payload);
    }

    fn emit(&self, ev: &EngineEvent) {
        if let Some(sink) = self.sink {
            sink.emit(ev);
        }
    }
}

impl ArtifactStore for CacheHooks<'_, '_> {
    fn cached_scan(&self, img: &LinkedImage) -> Option<Vec<Gadget>> {
        self.fetch(Key::of_image(ArtifactKind::Scan, img), |p| {
            deserialize_gadgets(p).filter(|g| !g.is_empty())
        })
    }

    fn store_scan(&self, img: &LinkedImage, gadgets: &[Gadget]) {
        self.store(
            Key::of_image(ArtifactKind::Scan, img),
            serialize_gadgets(gadgets),
        );
    }

    fn cached_coverage(&self, img: &LinkedImage) -> Option<Coverage> {
        self.fetch(Key::of_image(ArtifactKind::Coverage, img), decode_coverage)
    }

    fn store_coverage(&self, img: &LinkedImage, coverage: &Coverage) {
        self.store(
            Key::of_image(ArtifactKind::Coverage, img),
            encode_coverage(coverage),
        );
    }

    fn has_func_cache(&self) -> bool {
        true
    }

    fn cached_rewritten_func(&self, fingerprint: &[u8]) -> Option<FuncRewriteOutcome> {
        self.fetch(
            Key::of(ArtifactKind::RewrittenFunc, fingerprint),
            decode_rewritten_func,
        )
    }

    fn store_rewritten_func(&self, fingerprint: &[u8], outcome: &FuncRewriteOutcome) {
        self.store(
            Key::of(ArtifactKind::RewrittenFunc, fingerprint),
            encode_rewritten_func(outcome),
        );
    }

    fn cached_chain(&self, fingerprint: &[u8]) -> Option<ChainArtifact> {
        self.fetch(
            Key::of(ArtifactKind::CompiledChain, fingerprint),
            decode_chain,
        )
    }

    fn store_chain(&self, fingerprint: &[u8], artifact: &ChainArtifact) {
        self.store(
            Key::of(ArtifactKind::CompiledChain, fingerprint),
            encode_chain(artifact),
        );
    }

    // Verdicts bypass `self.fetch` on purpose: there are hundreds of
    // candidates per scan, and emitting a cache event for each would
    // drown the sink. Their traffic shows up as `cache.func.verdict.*`
    // counters on the pipeline's tracer instead. A rejected candidate
    // is cached as an empty gadget list, distinct from a miss.
    fn cached_verdict(&self, key: &[u8]) -> Option<Option<Gadget>> {
        let vkey = Key::of(ArtifactKind::GadgetVerdict, key);
        match self.cache.fetch(vkey) {
            Fetch::Hit(payload) => {
                let gadgets = deserialize_gadgets(&payload)?;
                self.digests.absorb(vkey);
                Some(gadgets.into_iter().next())
            }
            Fetch::Poisoned | Fetch::Miss => None,
        }
    }

    fn store_verdict(&self, key: &[u8], verdict: &Option<Gadget>) {
        let gadgets: Vec<Gadget> = verdict.iter().cloned().collect();
        self.store(
            Key::of(ArtifactKind::GadgetVerdict, key),
            serialize_gadgets(&gadgets),
        );
    }
}
