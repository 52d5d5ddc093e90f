//! Output oracles, the runtime-cost and tamper measurements that reuse
//! the oracle's VM runs, and the toolchain work counters.
//!
//! The reference for a generated module is `parallax_compiler::Interp`
//! on the unprotected IR, never the compiler under test. A protected
//! image passes when its VM run exits with the same status and writes
//! the same bytes.

use std::collections::BTreeMap;
use std::time::Instant;

use parallax_compiler::{Interp, Module};
use parallax_core::{classify, protect_traced, Baseline, ChainMode, ProtectConfig, Protected};
use parallax_gadgets::MAX_GADGET_INSNS;
use parallax_image::LinkedImage;
use parallax_trace::Tracer;
use parallax_vm::{ChainTracer, Exit, Profiler, Vm, VmOptions};

use crate::gen::Rng;
use crate::stats::{frac, geomean, percentile};
use crate::Outcome;

/// What a correct run of a program must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Exit status.
    pub exit: i32,
    /// Everything written to stdout.
    pub output: Vec<u8>,
}

/// Runs the unprotected IR under the reference interpreter.
pub fn interp_reference(m: &Module, input: &[u8]) -> Result<Reference, String> {
    let mut interp = Interp::new(m);
    interp.input = input.to_vec().into();
    let exit = interp.run().map_err(|e| format!("Interp failed: {e}"))?;
    Ok(Reference {
        exit,
        output: interp.output,
    })
}

/// One VM run of an image.
pub struct Run {
    /// How it ended.
    pub exit: Exit,
    /// Its stdout.
    pub output: Vec<u8>,
    /// Emulated cycles.
    pub cycles: u64,
    /// Host wall time of the run, in ms.
    pub ms: f64,
    /// Block-translation cache hits and misses.
    pub block_hits: u64,
    /// See `block_hits`.
    pub block_misses: u64,
    /// The chain tracer, when one was installed.
    pub chains: Option<ChainTracer>,
    /// The flat profile, when profiling was on.
    pub profile: Option<Profiler>,
}

impl Run {
    /// `Ok` when the run reproduced `want` exactly.
    pub fn matches(&self, want: &Reference) -> Result<(), String> {
        if self.exit != Exit::Exited(want.exit) {
            return Err(format!("exit {} != reference {}", self.exit, want.exit));
        }
        if self.output != want.output {
            return Err(format!(
                "output differs from reference ({} vs {} bytes)",
                self.output.len(),
                want.output.len()
            ));
        }
        Ok(())
    }

    /// This run's exit and output as the reference for another run.
    pub fn as_reference(&self) -> Result<Reference, String> {
        match self.exit {
            Exit::Exited(exit) => Ok(Reference {
                exit,
                output: self.output.clone(),
            }),
            other => Err(format!("baseline run did not exit: {other}")),
        }
    }

    /// Cycles spent inside verification-chain episodes.
    pub fn chain_cycles(&self) -> u64 {
        self.chains
            .iter()
            .flat_map(|c| c.episodes())
            .map(|e| e.cycles())
            .sum()
    }

    /// Gadget dispatches observed.
    pub fn dispatches(&self) -> u64 {
        self.chains
            .as_ref()
            .map_or(0, |c| c.dispatches().len() as u64)
    }

    /// Distinct gadget addresses the chains dispatched, ascending.
    pub fn dispatched_gadgets(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .chains
            .iter()
            .flat_map(|c| c.dispatches())
            .map(|d| d.vaddr)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Cycles the profiler attributed to `__plx_gen_*` chain
    /// generators (RC4 decryption, probabilistic assembly).
    pub fn generator_cycles(&self) -> u64 {
        self.profile.as_ref().map_or(0, |p| {
            p.iter()
                .filter(|(name, _)| name.starts_with("__plx_gen"))
                .map(|(_, f)| f.cycles)
                .sum()
        })
    }

    /// Cycles the profiler attributed to the named functions.
    pub fn cycles_in(&self, funcs: &[&str]) -> u64 {
        self.profile.as_ref().map_or(0, |p| {
            funcs
                .iter()
                .filter_map(|f| p.func(f))
                .map(|f| f.cycles)
                .sum()
        })
    }
}

/// The `vm.*` per-layer metrics, summed over the runs a workload made.
#[derive(Default)]
pub struct VmAgg {
    ms: Vec<f64>,
    cycles: u64,
    block_hits: u64,
    block_misses: u64,
    dispatches: u64,
    chain_cycles: u64,
    gen_cycles: u64,
    /// Per chain mode: (cycles, ms).
    by_mode: BTreeMap<&'static str, (u64, f64)>,
}

impl VmAgg {
    /// Adds one run of an image protected under `mode`.
    pub fn add(&mut self, mode: &ChainMode, r: &Run) {
        self.ms.push(r.ms);
        self.cycles += r.cycles;
        self.block_hits += r.block_hits;
        self.block_misses += r.block_misses;
        self.dispatches += r.dispatches();
        self.chain_cycles += r.chain_cycles();
        self.gen_cycles += r.generator_cycles();
        let m = self.by_mode.entry(mode.name()).or_default();
        m.0 += r.cycles;
        m.1 += r.ms;
    }

    /// Records the `vm.*` and `core.dynamic.*` metrics.
    pub fn fill(&self, out: &mut Outcome) {
        let runs = self.ms.len().max(1) as f64;
        let cycles = self.cycles as f64;
        let ms: f64 = self.ms.iter().sum();
        let rate = |cycles: u64, ms: f64| frac(cycles as f64, ms * 1e3);
        out.set("vm.run_ms", ms / runs);
        out.set("vm.run_ms_p95", percentile(&self.ms, 0.95));
        out.set("vm.cycles", cycles / runs);
        out.set("vm.mcycles_per_s", rate(self.cycles, ms));
        for (mode, &(c, ms)) in &self.by_mode {
            let name = match *mode {
                "cleartext" => "vm.mcycles_per_s.cleartext",
                "xor" => "vm.mcycles_per_s.xor",
                "rc4" => "vm.mcycles_per_s.rc4",
                _ => "vm.mcycles_per_s.probabilistic",
            };
            out.set(name, rate(c, ms));
        }
        out.set(
            "vm.block_hit_frac",
            frac(
                self.block_hits as f64,
                (self.block_hits + self.block_misses) as f64,
            ),
        );
        out.set("vm.chain_dispatches", self.dispatches as f64 / runs);
        out.set(
            "vm.chain_cycles_frac",
            frac(self.chain_cycles as f64, cycles),
        );
        out.set(
            "core.dynamic.gen_cycles_frac",
            frac(self.gen_cycles as f64, cycles),
        );
    }
}

/// Runs `img` on `input` to completion under default VM options.
pub fn run(img: &LinkedImage, input: &[u8], profile: bool, chains: Option<ChainTracer>) -> Run {
    let t0 = Instant::now();
    let mut vm = Vm::with_options(
        img,
        VmOptions {
            profile,
            ..VmOptions::default()
        },
    );
    if let Some(ct) = chains {
        vm.set_chain_tracer(ct);
    }
    vm.set_input(input);
    let exit = vm.run();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let bs = vm.block_stats();
    Run {
        exit,
        output: vm.take_output(),
        cycles: vm.cycles(),
        ms,
        block_hits: bs.hits,
        block_misses: bs.misses,
        chains: vm.take_chain_tracer(),
        profile: vm.profiler().cloned(),
    }
}

/// A chain tracer for `p`: every gadget its chains use, and the entry
/// of every verification function. The gadget kinds are left generic,
/// which saves the full gadget rescan `parallax_core::chain_tracer_for`
/// does to label them.
pub fn dispatch_tracer(p: &Protected) -> ChainTracer {
    let mut ct = ChainTracer::new();
    for chain in &p.report.chains {
        if let Some(sym) = p.image.symbol(&chain.func) {
            ct.register_verify(sym.vaddr, &chain.func);
        }
        for &g in &chain.used_gadgets {
            ct.register_gadget(g, "gadget");
        }
    }
    ct
}

/// Size and runtime cost of protected images against their unprotected
/// builds, summarised as geometric means of the per-image ratios: the
/// end-to-end `image_growth_pct`, `runtime_overhead_pct` (the paper's
/// Figure 5b) and `chain_slowdown` (Figure 5a).
#[derive(Default)]
pub struct ImageCosts {
    growth: Vec<f64>,
    overhead: Vec<f64>,
    slowdown: Vec<f64>,
}

impl ImageCosts {
    /// Adds one image. `base` is a profiled run of the unprotected
    /// build; the protected run's extra cycles are charged to the
    /// verification functions `verify`, as `parallax_bench::fig5_row`
    /// does.
    pub fn add(
        &mut self,
        base_bytes: usize,
        protected_bytes: usize,
        base: &Run,
        verify: &[&str],
        protected_cycles: u64,
    ) {
        let native = base.cycles_in(verify).max(1) as f64;
        let delta = protected_cycles as f64 - base.cycles as f64;
        self.growth
            .push(protected_bytes as f64 / base_bytes.max(1) as f64);
        self.overhead
            .push(protected_cycles as f64 / base.cycles.max(1) as f64);
        self.slowdown.push((native + delta) / native);
    }

    /// Records the three metrics. The means are taken in sorted order,
    /// so the seeded order in which images were added cannot change
    /// their last bits.
    pub fn fill(&self, out: &mut Outcome) {
        let gm = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            geomean(&v)
        };
        out.set("image_growth_pct", (gm(&self.growth) - 1.0) * 100.0);
        out.set("runtime_overhead_pct", (gm(&self.overhead) - 1.0) * 100.0);
        out.set("chain_slowdown", gm(&self.slowdown));
    }
}

/// The toolchain work behind a set of `protect()` calls, from the
/// pipeline's own counters and its report: the end-to-end
/// `protect_decodes`, `protect_probe_runs`, `protect_rewrite_sites` and
/// `protect_chain_words`, each a mean per protect.
#[derive(Default)]
pub struct ProtectWork {
    protects: u64,
    decodes: u64,
    probe_runs: u64,
    sites: u64,
    chain_words: u64,
}

impl ProtectWork {
    /// Protects `module`, counting the work. The tracer only collects
    /// the counters the pipeline already keeps: instruction decodes of
    /// the gadget scans (`scan.decode.once`) and gadget-validation
    /// probe runs (`vm.probe.runs`), over both fixpoint passes.
    pub fn protect(&mut self, module: &Module, cfg: &ProtectConfig) -> Result<Protected, String> {
        let t = Tracer::new();
        let p = protect_traced(module, cfg, &t).map_err(|e| format!("protect failed: {e}"))?;
        self.protects += 1;
        self.decodes += t.counter("scan.decode.once");
        self.probe_runs += t.counter("vm.probe.runs");
        self.sites += p.report.rewrites.crafted_count() as u64;
        self.chain_words += p.report.chains.iter().map(|c| c.words as u64).sum::<u64>();
        Ok(p)
    }

    /// Records the four metrics.
    pub fn fill(&self, out: &mut Outcome) {
        let per = |n: u64| frac(n as f64, self.protects as f64);
        out.set("protect_decodes", per(self.decodes));
        out.set("protect_probe_runs", per(self.probe_runs));
        out.set("protect_rewrite_sites", per(self.sites));
        out.set("protect_chain_words", per(self.chain_words));
    }
}

/// The length of the gadget starting at `vaddr`: its instructions up
/// to and including the first `ret`.
fn gadget_len(img: &LinkedImage, vaddr: u32) -> u32 {
    let mut at = vaddr;
    for _ in 0..MAX_GADGET_INSNS {
        let avail = img.text_end().saturating_sub(at).min(16) as usize;
        let Some(insn) = img
            .read(at, avail)
            .and_then(|b| parallax_x86::decode(b).ok())
        else {
            break;
        };
        at += insn.len as u32;
        if insn.is_ret() {
            return at - vaddr;
        }
    }
    1
}

/// One tamper trial: the flipped byte and the watchdog's verdict.
pub struct Trial {
    /// Whether the run diverged from the pristine run.
    pub detected: bool,
    /// Host wall time of the classifying run, in ms.
    pub ms: f64,
}

/// Flips `n` seeded bytes, one per trial, inside gadgets the chains
/// dispatched during `pristine`, and classifies each tampered run
/// against `pristine` with `parallax_core::classify`.
pub fn tamper_trials(
    img: &LinkedImage,
    input: &[u8],
    pristine: &Run,
    n: usize,
    rng: &mut Rng,
) -> Vec<Trial> {
    let targets = pristine.dispatched_gadgets();
    if targets.is_empty() {
        return Vec::new();
    }
    let baseline = Baseline {
        exit: pristine.exit,
        output: pristine.output.clone(),
    };
    // A corrupted chain can loop; bound every run well above the
    // pristine one so hangs classify quickly.
    let opts = VmOptions {
        cycle_limit: pristine.cycles * 4 + 1_000_000,
        output_limit: pristine.output.len() * 4 + 4096,
        ..VmOptions::default()
    };
    (0..n)
        .map(|_| {
            let g = targets[rng.below(targets.len())];
            let at = g + rng.below(gadget_len(img, g) as usize) as u32;
            let flip = 1 + rng.below(255) as u8;
            let mut tampered = img.clone();
            let byte = img.read(at, 1).map_or(0, |b| b[0]);
            tampered.write(at, &[byte ^ flip]);
            let t0 = Instant::now();
            let verdict = classify(&tampered, input, &baseline, &opts);
            Trial {
                detected: verdict.is_detection(),
                ms: t0.elapsed().as_secs_f64() * 1e3,
            }
        })
        .collect()
}
