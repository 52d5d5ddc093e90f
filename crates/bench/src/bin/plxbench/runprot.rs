//! run-protected: the runtime cost of protection (the paper's
//! Figures 5a/5b). Set-up protects the 6 corpus programs under the 4
//! chain modes of `parallax_bench::fig5_modes()` (24 images, the same
//! configuration as `parallax_bench::protect_workload`). The untraced
//! run then runs each image once in the VM on its corpus input, in the
//! order `--seed` picks, so only `vm` and the chain generators execute
//! after set-up. Then 16 byte flips per image, each inside a gadget the
//! chain was seen to dispatch, measure tamper detection.

use std::time::Instant;

use parallax_bench::{fig5_modes, hot_functions};
use parallax_compiler::{compile_module, Module};
use parallax_core::{ProtectConfig, Protected};
use parallax_corpus::Workload;
use parallax_image::{format, LinkedImage};
use parallax_rewrite::RewriteConfig;

use crate::gen::{stream, Rng};
use crate::layers::{protect_replayed, LayerSums};
use crate::oracle::{self, dispatch_tracer, ImageCosts, ProtectWork, Reference, VmAgg};
use crate::stats::{mean, percentile};
use crate::{measuring, Ctx, Outcome, Setup};

/// Byte flips per image: 384 trials in all.
const FLIPS_PER_IMAGE: usize = 16;
/// Minimum runs of each timed loop of the traced run: ten rounds over
/// the 24 images.
const MIN_RUNS: usize = 240;

struct Program {
    w: Workload,
    module: Module,
    input: Vec<u8>,
    base: LinkedImage,
    /// Profiled unprotected run: the expected behaviour of every
    /// protected image of this program, and its Figure-5 baseline.
    base_run: oracle::Run,
    reference: Reference,
}

struct Image {
    program: usize,
    cfg: ProtectConfig,
    protected: Protected,
}

struct State {
    programs: Vec<Program>,
    images: Vec<Image>,
    work: ProtectWork,
}

/// Builds the programs and their protected images; keeps the images
/// only when `keep` is set.
fn build(keep: bool) -> Result<State, String> {
    let mut programs = Vec::new();
    let mut images = Vec::new();
    let mut work = ProtectWork::default();
    for w in parallax_corpus::all() {
        let module = (w.module)();
        let input = (w.input)();
        let base = compile_module(&module)
            .map_err(|e| format!("{}: compile: {e}", w.name))?
            .link()
            .map_err(|e| format!("{}: link: {e}", w.name))?;
        let base_run = oracle::run(&base, &input, true, None);
        let reference = base_run.as_reference()?;
        let hot = hot_functions(&w);
        for mode in fig5_modes() {
            let cfg = ProtectConfig {
                verify_funcs: vec![w.verify_func.to_owned()],
                mode,
                rewrite: RewriteConfig {
                    imm_exclude: hot.clone(),
                    ..RewriteConfig::default()
                },
                ..ProtectConfig::default()
            };
            let protected = work
                .protect(&module, &cfg)
                .map_err(|e| format!("{}: {e}", w.name))?;
            if keep {
                images.push(Image {
                    program: programs.len(),
                    cfg,
                    protected,
                });
            }
        }
        programs.push(Program {
            w,
            module,
            input,
            base,
            base_run,
            reference,
        });
    }
    Ok(State {
        programs,
        images,
        work,
    })
}

/// Runs image `k` once; returns its latency in ms.
fn timed_run(s: &State, out: &mut Outcome, k: usize, vm: Option<&mut VmAgg>) -> f64 {
    let img = &s.images[k];
    let prog = &s.programs[img.program];
    let chains = vm.is_some().then(|| dispatch_tracer(&img.protected));
    let run = oracle::run(&img.protected.image, &prog.input, vm.is_some(), chains);
    out.check(
        &format!("{} {}", prog.w.name, img.cfg.mode.name()),
        run.matches(&prog.reference),
    );
    if let Some(vm) = vm {
        vm.add(&img.cfg.mode, &run);
    }
    run.ms
}

/// Runs one run-protected benchmark.
pub fn run(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let (mut setup, s) = Setup::first(ctx, build)?;
    let mut out = Outcome::default();
    for p in &s.programs {
        let want = oracle::interp_reference(&p.module, &p.input)?;
        out.check(
            &format!("{} unprotected", p.w.name),
            p.base_run.matches(&want),
        );
    }

    // One chain-traced run per image: its output check, its Figure-5
    // cost, and the gadgets its chains dispatched (the flip targets).
    let order = Rng::new(ctx.seed, stream::ORDER).permutation(s.images.len());
    let mut costs = ImageCosts::default();
    let mut pristine = Vec::new();
    for &k in &order {
        let img = &s.images[k];
        let prog = &s.programs[img.program];
        let run = oracle::run(
            &img.protected.image,
            &prog.input,
            false,
            Some(dispatch_tracer(&img.protected)),
        );
        out.check(
            &format!("{} {}", prog.w.name, img.cfg.mode.name()),
            run.matches(&prog.reference),
        );
        costs.add(
            format::save(&prog.base).len(),
            format::save(&img.protected.image).len(),
            &prog.base_run,
            &[prog.w.verify_func],
            run.cycles,
        );
        pristine.push((k, run));
    }

    let (mut detected, mut trial_ms) = (0usize, Vec::new());
    {
        let _span = ctx.tracer.map(|t| t.span("core.tamper.classify", "layer"));
        for (i, (k, run)) in pristine.iter().enumerate() {
            let img = &s.images[*k];
            let prog = &s.programs[img.program];
            // Flips depend on the image only, not on the run's order.
            let trials = oracle::tamper_trials(
                &img.protected.image,
                &prog.input,
                run,
                FLIPS_PER_IMAGE,
                &mut Rng::new(*k as u64, stream::FLIPS),
            );
            out.check(
                &format!("{} {} flips", prog.w.name, img.cfg.mode.name()),
                if trials.len() == FLIPS_PER_IMAGE {
                    Ok(())
                } else {
                    Err("the chains dispatched no gadget to flip".into())
                },
            );
            detected += trials.iter().filter(|t| t.detected).count();
            trial_ms.extend(trials.iter().map(|t| t.ms));
            setup.after(i, pristine.len())?;
        }
    }

    let Some(tracer) = ctx.tracer else {
        out.set("setup_s", setup.median());
        s.work.fill(&mut out);
        costs.fill(&mut out);
        out.set_ratio("tamper_detect_frac", detected, trial_ms.len());
        return Ok(out);
    };

    // Traced run: round-robin runs untraced for half the time budget,
    // the same runs traced (profiler and chain tracer on), and a
    // per-layer replay of the 24 set-up protects.
    for &k in &order {
        timed_run(&s, &mut out, k, None);
    }
    let start = Instant::now();
    let mut untraced = Vec::new();
    while measuring(start, ctx.seconds / 2.0, untraced.len(), MIN_RUNS) {
        let k = order[untraced.len() % order.len()];
        untraced.push(timed_run(&s, &mut out, k, None));
    }
    let mut vm = VmAgg::default();
    let traced: Vec<f64> = (0..untraced.len())
        .map(|i| {
            let k = order[i % order.len()];
            let _root = tracer.span(&format!("sample {i}: run image {k}"), "bench");
            timed_run(&s, &mut out, k, Some(&mut vm))
        })
        .collect();
    let mut layers = LayerSums::default();
    for (k, img) in s.images.iter().enumerate() {
        let prog = &s.programs[img.program];
        let _root = tracer.span(&format!("setup protect {k}: {}", prog.w.name), "bench");
        let (_, r) = protect_replayed(tracer, &prog.module, &img.cfg)
            .map_err(|e| format!("{}: {e}", prog.w.name))?;
        layers.add(&r);
    }
    layers.fill(&mut out);
    vm.fill(&mut out);
    out.set("core.tamper.classify_ms", mean(&trial_ms));
    out.set(
        "trace.overhead_pct",
        (percentile(&traced, 0.5) / percentile(&untraced, 0.5) - 1.0) * 100.0,
    );
    Ok(out)
}
