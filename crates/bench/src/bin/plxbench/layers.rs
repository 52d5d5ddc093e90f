//! Per-layer attribution of one `protect()` call, measured from the
//! benchmark's side of each layer's public API.
//!
//! After a traced protect, [`replay`] calls each layer's public
//! function on that sample's inputs, inside a span per layer, the
//! number of times the pipeline calls it: compile once; link the
//! unprotected program once and the rewritten program three times
//! (fixpoint pass 1, then pass 2 and the final fill with chain data of
//! the final size); coverage analysis and the rewriting rules once;
//! gadget discovery twice (the pass-1 and pass-2 images share one
//! text, so one replay counted twice is exact); one chain per
//! verification function for pass 1 plus one per (function, variant)
//! for pass 2; and the strict verify once. What the replay cannot
//! account for is reported, not hidden, as `core.unattributed_ms`.

use std::collections::BTreeMap;
use std::time::Instant;

use parallax_compiler::{compile_module, Module};
use parallax_core::protect::DEFAULT_VARIANTS;
use parallax_core::{protect_traced, ChainMode, ProtectConfig, Protected};
use parallax_gadgets::{find_gadgets_instrumented, scan_with_stats, GadgetMap};
use parallax_image::{format, verify_image_strict, LinkedImage};
use parallax_rewrite::{analyze, protect_program_parallel};
use parallax_ropc::{compile_chain, Policy};
use parallax_trace::Tracer;

use crate::stats::{frac, percentile};
use crate::Outcome;

/// Layer costs of one protect, in the units of the per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub protect_ms: f64,
    pub compile_ms: f64,
    pub link_ms: f64,
    pub coverage_ms: f64,
    pub rules_ms: f64,
    pub sites: f64,
    pub scan_ms: f64,
    pub decodes: f64,
    pub candidates: f64,
    pub validate_ms: f64,
    pub proposals: f64,
    pub probe_runs: f64,
    pub usable: f64,
    pub probe_build_ms: f64,
    pub pool_busy_ms: f64,
    pub pool_steals: f64,
    pub pool_idle_spins: f64,
    pub pool_workers: f64,
    pub ropc_ms: f64,
    pub chain_words: f64,
    pub ops: f64,
    pub verify_ms: f64,
    pub image_bytes: f64,
    pub degradations: f64,
}

impl Replay {
    /// Protect time no layer replay accounts for.
    pub fn unattributed_ms(&self) -> f64 {
        self.protect_ms
            - (self.compile_ms
                + self.link_ms
                + self.coverage_ms
                + self.rules_ms
                + self.scan_ms
                + self.validate_ms
                + self.ropc_ms
                + self.verify_ms)
    }

    /// Every field as a per-layer metric, for averaging over samples.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("compiler.compile_ms", self.compile_ms),
            ("image.link_ms", self.link_ms),
            ("image.verify_strict_ms", self.verify_ms),
            ("image.bytes", self.image_bytes),
            ("rewrite.coverage_ms", self.coverage_ms),
            ("rewrite.rules_ms", self.rules_ms),
            ("rewrite.sites", self.sites),
            ("gadgets.scan_ms", self.scan_ms),
            ("gadgets.decodes", self.decodes),
            ("gadgets.candidates", self.candidates),
            ("gadgets.validate_ms", self.validate_ms),
            ("gadgets.proposals", self.proposals),
            ("gadgets.probe_runs", self.probe_runs),
            ("gadgets.usable", self.usable),
            ("gadgets.probe_build_ms", self.probe_build_ms),
            ("pool.validate.busy_ms", self.pool_busy_ms),
            ("pool.validate.steals", self.pool_steals),
            ("pool.validate.idle_spins", self.pool_idle_spins),
            ("pool.validate.workers", self.pool_workers),
            ("ropc.compile_ms", self.ropc_ms),
            ("ropc.chain_words", self.chain_words),
            ("ropc.ops", self.ops),
            ("core.protect_ms", self.protect_ms),
            ("core.unattributed_ms", self.unattributed_ms()),
            ("core.degradations", self.degradations),
        ]
    }
}

/// Per-layer metrics averaged over the protects a run replayed.
#[derive(Default)]
pub struct LayerSums {
    sums: BTreeMap<&'static str, f64>,
    protect_ms: Vec<f64>,
    usable: f64,
    proposals: f64,
}

impl LayerSums {
    /// Adds one replayed protect.
    pub fn add(&mut self, r: &Replay) {
        for (name, v) in r.metrics() {
            *self.sums.entry(name).or_insert(0.0) += v;
        }
        self.protect_ms.push(r.protect_ms);
        self.usable += r.usable;
        self.proposals += r.proposals / 2.0;
    }

    /// Records the means, the p95 protect time, and `gadgets.yield` as
    /// usable gadgets per validation proposal of one pass.
    pub fn fill(&self, out: &mut Outcome) {
        for (&name, sum) in &self.sums {
            out.set(name, sum / self.protect_ms.len().max(1) as f64);
        }
        out.set("core.protect_ms_p95", percentile(&self.protect_ms, 0.95));
        out.set("gadgets.yield", frac(self.usable, self.proposals));
    }
}

/// `protect_traced` of `module`, then the replay of its layers.
pub fn protect_replayed(
    tracer: &Tracer,
    module: &Module,
    cfg: &ProtectConfig,
) -> Result<(Protected, Replay), String> {
    let t0 = Instant::now();
    let p = protect_traced(module, cfg, tracer).map_err(|e| format!("protect failed: {e}"))?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let r = replay(tracer, module, cfg, &p, ms)?;
    Ok((p, r))
}

/// Times `f` inside a span named `name`, returning its result and ms.
fn timed<T>(tracer: &Tracer, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = tracer.span(name, "layer");
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

fn symbol(img: &LinkedImage, name: &str) -> Result<u32, String> {
    img.symbol(name)
        .map(|s| s.vaddr)
        .ok_or_else(|| format!("replay: protected image lacks symbol {name}"))
}

/// Replays the layers of `protected = protect(module, cfg)`, which took
/// `protect_ms`.
fn replay(
    tracer: &Tracer,
    module: &Module,
    cfg: &ProtectConfig,
    protected: &Protected,
    protect_ms: f64,
) -> Result<Replay, String> {
    let jobs = cfg.resolved_jobs();
    let img = &protected.image;
    let mut r = Replay {
        protect_ms,
        degradations: protected.report.degradations.len() as f64,
        image_bytes: format::save(img).len() as f64,
        ..Replay::default()
    };

    let (prog, ms) = timed(tracer, "compiler.compile_module", || compile_module(module));
    let prog = prog.map_err(|e| format!("replay compile: {e}"))?;
    r.compile_ms = ms;
    let (base, ms) = timed(tracer, "image.link", || prog.link());
    let base = base.map_err(|e| format!("replay link: {e}"))?;
    r.link_ms += ms;
    let (_, ms) = timed(tracer, "rewrite.analyze", || analyze(&base));
    r.coverage_ms = ms;

    let targets: Vec<String> = prog
        .func_names()
        .filter(|n| {
            !cfg.verify_funcs.iter().any(|v| v == n) && !n.starts_with("__plx_") && *n != "_start"
        })
        .map(str::to_owned)
        .collect();
    let mut rewritten = prog.clone();
    let (report, ms) = timed(tracer, "rewrite.protect_program_parallel", || {
        protect_program_parallel(&mut rewritten, &targets, &cfg.rewrite, jobs, None, None)
    });
    let report = report.map_err(|e| format!("replay rewrite: {e}"))?;
    r.rules_ms = ms;
    r.sites = report.crafted_count() as f64;
    // Pass 1 links placeholder chain data; pass 2 and the final fill
    // link the chain data at full size, stood in for here by one data
    // and one bss object of the sizes the protected image gained.
    let (placeholder, ms) = timed(tracer, "image.link", || rewritten.link());
    let placeholder = placeholder.map_err(|e| format!("replay link: {e}"))?;
    r.link_ms += ms;
    let mut sized = rewritten;
    sized.add_data(
        "plxbench.chain_data",
        vec![0; img.data.len().saturating_sub(placeholder.data.len())],
    );
    sized.add_bss(
        "plxbench.chain_bss",
        img.bss_size.saturating_sub(placeholder.bss_size),
    );
    for _ in 0..2 {
        let (linked, ms) = timed(tracer, "image.link", || sized.link());
        linked.map_err(|e| format!("replay link: {e}"))?;
        r.link_ms += ms;
    }

    let ((_, scan), scan_ms) = timed(tracer, "gadgets.scan_with_stats", || {
        scan_with_stats(&img.text, img.text_base)
    });
    let ((gadgets, _, vstats), find_ms) =
        timed(tracer, "gadgets.find_gadgets_instrumented", || {
            find_gadgets_instrumented(img, jobs, None)
        });
    r.scan_ms = 2.0 * scan_ms;
    r.validate_ms = 2.0 * (find_ms - scan_ms);
    r.decodes = 2.0 * scan.decoded as f64;
    r.candidates = 2.0 * scan.candidates as f64;
    r.proposals = 2.0 * vstats.probe.proposals as f64;
    r.probe_runs = 2.0 * vstats.probe.runs as f64;
    r.probe_build_ms = 2.0 * vstats.probe_build_ns as f64 / 1e6;
    r.usable = gadgets.len() as f64;
    r.pool_busy_ms = 2.0 * vstats.pool.busy_ns() as f64 / 1e6;
    r.pool_steals = 2.0 * vstats.pool.steals as f64;
    r.pool_idle_spins = 2.0 * vstats.pool.idle_spins as f64;
    r.pool_workers = vstats.pool.workers as f64;

    let map = GadgetMap::new(gadgets);
    let ranges: Vec<(u32, u32)> = targets
        .iter()
        .filter_map(|t| img.symbol(t))
        .map(|s| (s.vaddr, s.vaddr + s.size))
        .collect();
    let variants = match cfg.mode {
        ChainMode::Probabilistic { variants: 0, .. } => DEFAULT_VARIANTS,
        ChainMode::Probabilistic { variants, .. } => variants.max(2),
        _ => 1,
    };
    let scratch = symbol(img, "__plx_scratch")?;
    for (i, f) in cfg.verify_funcs.iter().enumerate() {
        let func = module
            .get_func(f)
            .ok_or_else(|| format!("replay: no verification function {f}"))?;
        let frame = symbol(img, &format!("__plx_frame_{f}"))?;
        // Pass 1 compiles variant 0 once to size the chain; pass 2
        // compiles every variant against the final layout.
        for v in std::iter::once(0).chain(0..variants) {
            let policy = match cfg.mode {
                ChainMode::Probabilistic { seed, .. } => Policy::Grouped {
                    seed: seed ^ ((i as u64) << 32) ^ ((v as u64).wrapping_mul(0x9e37_79b9) | 1),
                },
                _ => Policy::PreferOverlapping {
                    ranges: ranges.clone(),
                    seed: cfg.seed ^ ((i as u64) << 16),
                },
            };
            let (chain, ms) = timed(tracer, "ropc.compile_chain", || {
                compile_chain(func, &map, img, frame, scratch, policy)
            });
            chain.map_err(|e| format!("replay chain {f}: {e}"))?;
            r.ropc_ms += ms;
        }
    }
    r.chain_words = protected.report.chains.iter().map(|c| c.words as f64).sum();
    r.ops = protected.report.chains.iter().map(|c| c.ops as f64).sum();

    let mut vaddrs: Vec<u32> = map.gadgets().iter().map(|g| g.vaddr).collect();
    vaddrs.sort_unstable();
    vaddrs.dedup();
    let (verified, ms) = timed(tracer, "image.verify_image_strict", || {
        verify_image_strict(img, &vaddrs)
    });
    verified.map_err(|e| format!("replay verify: {e}"))?;
    r.verify_ms = ms;
    Ok(r)
}
