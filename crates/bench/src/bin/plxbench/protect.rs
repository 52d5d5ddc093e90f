//! protect-large and protect-chains: cold `protect()` of a fixed set of
//! generated modules, one at a time, from a single thread.
//!
//! * **protect-large** — 120 modules of ~21 KB text (a `randprog`
//!   module plus 30 functions), Cleartext, `jobs = 2`. Text-heavy: the
//!   `rewrite` coverage analysis and `gadgets` scan/validate dominate,
//!   and it is the only workload that fans out through `pool` inside
//!   `protect()`.
//! * **protect-chains** — 120 small modules (6 extra functions) with 4
//!   verification functions, `jobs = 1`, half with probabilistic chains
//!   (8 variants) and half with RC4. Chain-heavy: `ropc` and the image
//!   link of the larger chain data dominate; `pool` does no work, so a
//!   pool change must show no effect here.
//!
//! The untraced run protects every module once, in the order `--seed`
//! picks, and checks, measures and tampers with every image. Its
//! set-up generates every module and builds its reference and its
//! unprotected image.

use std::time::Instant;

use parallax_compiler::{compile_module, Module};
use parallax_core::{protect, ChainMode, ProtectConfig, Protected};
use parallax_image::{format, LinkedImage};

use crate::gen::{self, stream, Rng};
use crate::layers::{protect_replayed, LayerSums};
use crate::oracle::{self, dispatch_tracer, ImageCosts, ProtectWork, Reference, VmAgg};
use crate::screened;
use crate::stats::{mean, percentile};
use crate::{measuring, Ctx, Outcome, Setup, WARMUP};

/// One protect workload.
pub struct Spec {
    name: &'static str,
    /// The modules are the entries of `0..universe` less `rejected`.
    universe: usize,
    rejected: &'static [usize],
    make: fn(usize) -> Module,
    verify: &'static [&'static str],
    /// The chain mode of a universe entry.
    mode: fn(usize) -> ChainMode,
    jobs: usize,
    /// Tamper trials per image.
    flips: usize,
}

impl Spec {
    fn cfg(&self, entry: usize) -> ProtectConfig {
        ProtectConfig {
            verify_funcs: self.verify.iter().map(|s| s.to_string()).collect(),
            mode: (self.mode)(entry),
            jobs: self.jobs,
            ..ProtectConfig::default()
        }
    }
}

fn cleartext(_entry: usize) -> ChainMode {
    ChainMode::Cleartext
}

/// protect-large.
pub const LARGE: Spec = Spec {
    name: "protect-large",
    universe: gen::LARGE_UNIVERSE,
    rejected: screened::LARGE,
    make: gen::large_module,
    verify: &["vf"],
    mode: cleartext,
    jobs: 2,
    flips: 2,
};

/// protect-chains.
pub const CHAINS: Spec = Spec {
    name: "protect-chains",
    universe: gen::CHAINS_UNIVERSE,
    rejected: screened::CHAINS,
    make: gen::chains_module,
    verify: &gen::CHAINS_VERIFY,
    mode: gen::chains_mode,
    jobs: 1,
    // A run of these images costs about as much as protecting them
    // (the chain generators dominate), so one flip per image.
    flips: 1,
};

/// One module of a run: its universe entry, reference behaviour and
/// unprotected image.
struct Input {
    entry: usize,
    module: Module,
    reference: Reference,
    base: LinkedImage,
}

fn input(spec: &Spec, entry: usize) -> Result<Input, String> {
    let module = (spec.make)(entry);
    let reference =
        oracle::interp_reference(&module, &[]).map_err(|e| format!("entry {entry}: {e}"))?;
    let base = compile_module(&module)
        .map_err(|e| format!("entry {entry}: compile: {e}"))?
        .link()
        .map_err(|e| format!("entry {entry}: link: {e}"))?;
    Ok(Input {
        entry,
        module,
        reference,
        base,
    })
}

/// Image size, runtime cost and tamper detection of the checked images.
#[derive(Default)]
struct Quality {
    costs: ImageCosts,
    trials: usize,
    detected: usize,
    classify_ms: Vec<f64>,
}

struct Bench<'a> {
    spec: &'a Spec,
    /// In the order `--seed` picks.
    inputs: Vec<Input>,
}

impl Bench<'_> {
    /// Checks `p`, the image of input `x`, against the reference, then
    /// measures it and tampers with it. Returns the oracle's VM run.
    fn check(
        &self,
        out: &mut Outcome,
        q: &mut Quality,
        x: usize,
        p: &Protected,
        profile: bool,
    ) -> oracle::Run {
        let x = &self.inputs[x];
        let run = oracle::run(&p.image, &[], profile, Some(dispatch_tracer(p)));
        out.check(&format!("entry {}", x.entry), run.matches(&x.reference));
        let base = oracle::run(&x.base, &[], true, None);
        q.costs.add(
            format::save(&x.base).len(),
            format::save(&p.image).len(),
            &base,
            self.spec.verify,
            run.cycles,
        );
        // Flips depend on the entry only, so the same images get the
        // same flips whatever the order.
        let mut flips = Rng::new(x.entry as u64, stream::FLIPS);
        for t in oracle::tamper_trials(&p.image, &[], &run, self.spec.flips, &mut flips) {
            q.trials += 1;
            q.detected += usize::from(t.detected);
            q.classify_ms.push(t.ms);
        }
        run
    }

    /// Protects input `x` untraced and checks the image; returns the
    /// protect latency in ms.
    fn timed_sample(&self, out: &mut Outcome, x: usize) -> f64 {
        let x = &self.inputs[x];
        let t0 = Instant::now();
        let result = protect(&x.module, &self.spec.cfg(x.entry));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let verdict = match result {
            Ok(p) => oracle::run(&p.image, &[], false, None).matches(&x.reference),
            Err(e) => Err(format!("protect failed: {e}")),
        };
        out.check(&format!("entry {}", x.entry), verdict);
        ms
    }
}

/// Runs one protect workload.
pub fn run(ctx: &Ctx<'_>, spec: &Spec) -> Result<Outcome, String> {
    let entries = gen::shuffled(ctx.seed, spec.universe, spec.rejected);
    let (mut setup, inputs) = Setup::first(ctx, |keep| {
        let mut inputs = Vec::new();
        for &e in &entries {
            let x = input(spec, e)?;
            if keep {
                inputs.push(x);
            }
        }
        Ok(inputs)
    })?;
    let b = Bench { spec, inputs };
    let mut out = Outcome::default();
    let mut q = Quality::default();
    let Some(tracer) = ctx.tracer else {
        let mut work = ProtectWork::default();
        for x in 0..b.inputs.len() {
            let entry = b.inputs[x].entry;
            match work.protect(&b.inputs[x].module, &spec.cfg(entry)) {
                Ok(p) => {
                    b.check(&mut out, &mut q, x, &p, false);
                }
                Err(e) => out.check(&format!("entry {entry}"), Err(e)),
            }
            setup.after(x, b.inputs.len())?;
        }
        out.set("setup_s", setup.median());
        work.fill(&mut out);
        q.costs.fill(&mut out);
        out.set_ratio("tamper_detect_frac", q.detected, q.trials);
        return Ok(out);
    };

    // Traced run: protect untraced for half the time budget, then the
    // same samples again with tracing on and each layer replayed.
    let n = b.inputs.len();
    for i in 0..WARMUP {
        b.timed_sample(&mut out, i % n);
    }
    let start = Instant::now();
    let mut untraced = Vec::new();
    while measuring(start, ctx.seconds / 2.0, untraced.len(), WARMUP) {
        untraced.push(b.timed_sample(&mut out, (WARMUP + untraced.len()) % n));
    }
    let mut traced = Vec::with_capacity(untraced.len());
    let mut layers = LayerSums::default();
    let mut vm = VmAgg::default();
    for k in 0..untraced.len() {
        let i = WARMUP + k;
        let x = i % n;
        let (entry, cfg) = (b.inputs[x].entry, spec.cfg(b.inputs[x].entry));
        let _root = tracer.span(&format!("sample {i}: {} entry {entry}", spec.name), "bench");
        let p = match protect_replayed(tracer, &b.inputs[x].module, &cfg) {
            Ok((p, r)) => {
                traced.push(r.protect_ms);
                layers.add(&r);
                p
            }
            Err(e) => {
                out.check(&format!("entry {entry}"), Err(e));
                continue;
            }
        };
        let run = {
            let _s = tracer.span("oracle", "bench");
            b.check(&mut out, &mut q, x, &p, true)
        };
        vm.add(&cfg.mode, &run);
    }
    layers.fill(&mut out);
    vm.fill(&mut out);
    out.set("core.tamper.classify_ms", mean(&q.classify_ms));
    out.set(
        "trace.overhead_pct",
        (percentile(&traced, 0.5) / percentile(&untraced, 0.5) - 1.0) * 100.0,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The universe entries whose protected image does not reproduce
    /// the reference, or whose protect() fails or panics.
    fn screen(spec: &Spec) -> Vec<usize> {
        screened::rejected(spec.universe, |entry| {
            let x = input(spec, entry).expect("universe entries compile and run");
            let p = std::panic::catch_unwind(|| protect(&x.module, &spec.cfg(entry)));
            !matches!(p, Ok(Ok(p)) if oracle::run(&p.image, &[], false, None).matches(&x.reference).is_ok())
        })
    }

    /// Regenerates `screened.rs`: run with
    /// `cargo test --release -- --ignored --nocapture screen_`.
    #[test]
    #[ignore = "protects every universe entry (minutes)"]
    fn screen_universes() {
        let mut stale = Vec::new();
        for (spec, listed) in [(&LARGE, screened::LARGE), (&CHAINS, screened::CHAINS)] {
            let rejected = screen(spec);
            println!(
                "{}: {} of {} rejected: {rejected:?}",
                spec.name,
                rejected.len(),
                spec.universe
            );
            if rejected != listed {
                stale.push(spec.name);
            }
        }
        assert!(stale.is_empty(), "screened.rs is stale for {stale:?}");
    }
}
