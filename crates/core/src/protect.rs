//! The end-to-end protection pipeline (paper §III).
//!
//! [`protect`] takes an IR module and a configuration and produces a
//! protected executable image:
//!
//! 1. compile the module to x86 and install any chain generators;
//! 2. apply the §IV-B rewriting rules to craft overlapping gadgets in
//!    the instructions to protect, and append the standard gadget set;
//! 3. install the chain-loader runtime and replace each verification
//!    function's body with a loader stub;
//! 4. link, discover and validate gadgets, and translate each
//!    verification function into a ROP chain that *prefers gadgets
//!    overlapping the protected code* (§III step 4);
//! 5. install the chains (cleartext, encrypted, or as probabilistic
//!    coefficient masks) and produce the final image.
//!
//! Because chain sizes depend on compilation and addresses depend on
//! sizes, steps 4–5 run as a two-pass fixpoint: chains are compiled
//! once against a placeholder layout to learn their sizes, then
//! recompiled against the final layout (gadget choices are
//! deterministic per seed, so sizes are stable).
//!
//! # Failure model
//!
//! Every failure is a typed [`ProtectError`] carrying the pipeline
//! [`Stage`] it arose in — the pipeline never panics on malformed
//! input. When chain compilation cannot find a needed gadget type the
//! pipeline does not abort immediately: it retries the rewrite with
//! alternate immediate-rule body rotations and finally falls back to
//! appending the standard gadget set (the paper's §III escape hatch),
//! recording each fallback in a [`DegradationReport`].
//!
//! # Entry points
//!
//! [`protect`] and [`protect_traced`] take an IR module. [`protect_with`]
//! takes an already-built [`Program`] plus a [`Ctx`]: the artifact
//! store, the tracer and the fault plan. The run's telemetry goes only
//! to that tracer; the store only stores.

use std::fmt;

use parallax_compiler::{compile_module, CompileError, Function, Module};
use parallax_gadgets::{GadgetMap, PassMemo, RangeSet};
use parallax_image::{verify_image_strict, ImageVerifyError, LinkError, LinkedImage, Program};
use parallax_rewrite::{
    protect_program_parallel, FuncRewriteCache, FuncRewriteOutcome, RewriteConfig, RewriteError,
    RewriteReport,
};
use parallax_ropc::{
    compile_chain_traced, fnv1a, frame_size, install_runtime, make_chain_checker, make_stub_full,
    ChainError, Policy,
};
use parallax_trace::{SpanGuard, Tracer};

use crate::dynamic::{
    build_mask_blob, install_generator_binary, rc4_crypt, xor_crypt, Basis, ChainMode,
};
use crate::faultinject::FaultPlan;
use crate::store::{ArtifactStore, NoStore};

/// Configuration for [`protect`].
#[derive(Debug, Clone)]
pub struct ProtectConfig {
    /// Functions to translate into verification chains.
    pub verify_funcs: Vec<String>,
    /// Functions whose instructions get overlapping gadgets. `None`
    /// protects every module function except the verification
    /// functions themselves (whose bodies are replaced).
    pub protect_targets: Option<Vec<String>>,
    /// Rewriting-rule configuration.
    pub rewrite: RewriteConfig,
    /// Chain hardening mode.
    pub mode: ChainMode,
    /// Seed for gadget-choice randomness.
    pub seed: u64,
    /// Critical functions whose every usable gadget the chain executes
    /// once per call (*guard gadgets* — deterministic coverage of
    /// hand-picked code, as the paper's §IV-A example protects the
    /// ptrace call and its guarded jump explicitly).
    pub guard_funcs: Vec<String>,
    /// §VI-C: checksum the verification code before every chain call.
    /// Chains live in data memory, so — unlike code checksumming — this
    /// is not subject to the Wurster attack. For dynamic modes the
    /// static ciphertext/index material is checksummed.
    pub checksum_chains: bool,
    /// §V-B self-modification: wipe the regenerated plaintext chain
    /// buffer after every call, so the decrypted chain never persists
    /// for a memory-dumping adversary. Dynamic modes only (cleartext
    /// chains are static data and would be destroyed).
    pub wipe_chains: bool,
    /// Worker threads for rewrite pass 1 and gadget validation: `1`
    /// runs sequentially (the default), `0` uses the machine's
    /// available parallelism. Chain compilation always runs serially.
    /// Output images are bit-identical whatever this is set to.
    pub jobs: usize,
}

impl ProtectConfig {
    /// The worker count to actually use (`0` = auto resolves to the
    /// machine's available parallelism).
    pub fn resolved_jobs(&self) -> usize {
        if self.jobs == 0 {
            parallax_pool::auto_workers()
        } else {
            self.jobs
        }
    }

    /// A copy with `jobs` normalized to a fixed value, for
    /// content-addressed cache keys derived from the config's `Debug`
    /// form: the worker count never affects the produced image, so it
    /// must not fragment artifact identity.
    pub fn key_normalized(&self) -> ProtectConfig {
        let mut c = self.clone();
        c.jobs = 0;
        c
    }

    /// The IR of each function in `verify_funcs`, taken from `module`
    /// — what [`protect_with`] needs besides the compiled program.
    pub fn verify_impls(&self, module: &Module) -> Result<Vec<Function>, ProtectError> {
        self.verify_funcs
            .iter()
            .map(|f| {
                module
                    .get_func(f)
                    .cloned()
                    .ok_or_else(|| ProtectError::no_such_function(f))
            })
            .collect()
    }
}

impl Default for ProtectConfig {
    fn default() -> ProtectConfig {
        ProtectConfig {
            verify_funcs: Vec::new(),
            protect_targets: None,
            rewrite: RewriteConfig::default(),
            mode: ChainMode::Cleartext,
            seed: 0xbead_cafe,
            guard_funcs: Vec::new(),
            checksum_chains: false,
            wipe_chains: false,
            jobs: 1,
        }
    }
}

/// The pipeline stage a [`ProtectError`] arose in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Validating the requested verification functions against the
    /// module/program.
    Select,
    /// Compiling and installing helper code (chain generators, the
    /// loader runtime, stubs).
    Load,
    /// Applying the §IV-B rewriting rules.
    Rewrite,
    /// Scanning, classifying and validating gadgets in a linked image.
    GadgetScan,
    /// Translating a verification function into a ROP chain.
    ChainCompile,
    /// Sizing and placing chain data objects across the fixpoint
    /// passes (symbols, data items, chain-buffer capacities).
    Map,
    /// Producing a linked image.
    Link,
    /// Post-link structural self-check of the final image against the
    /// final gadget map (fail-closed loading, DESIGN.md §12).
    Verify,
}

impl Stage {
    /// Every stage, in pipeline order: the one stage list that reports
    /// and tables iterate.
    pub const ALL: [Stage; 8] = [
        Stage::Select,
        Stage::Load,
        Stage::Rewrite,
        Stage::GadgetScan,
        Stage::ChainCompile,
        Stage::Map,
        Stage::Link,
        Stage::Verify,
    ];
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Select => "select",
            Stage::Load => "load",
            Stage::Rewrite => "rewrite",
            Stage::GadgetScan => "gadget-scan",
            Stage::ChainCompile => "chain-compile",
            Stage::Map => "map",
            Stage::Link => "link",
            Stage::Verify => "verify",
        };
        f.write_str(s)
    }
}

/// What went wrong (see [`ProtectError::stage`] for where).
#[derive(Debug)]
pub enum ErrorKind {
    /// IR compilation failed.
    Compile(CompileError),
    /// Linking failed.
    Link(LinkError),
    /// A rewriting rule failed.
    Rewrite(RewriteError),
    /// Chain compilation failed, for the named verification function
    /// when known.
    Chain {
        /// The verification function being translated, if known.
        func: Option<String>,
        /// The underlying chain-compiler error.
        err: ChainError,
    },
    /// A verification function is missing from the module.
    NoSuchFunction(String),
    /// The chain size changed between fixpoint passes.
    UnstableChain(String),
    /// Filling in the final chain data changed the text that pass 2
    /// scanned for gadgets.
    TextChanged,
    /// A pipeline-managed symbol vanished between passes.
    MissingSymbol(String),
    /// A pipeline-managed data item vanished between passes.
    MissingDataItem(String),
    /// Gadget discovery found no usable gadgets at all.
    NoUsableGadgets,
    /// The final image failed its post-link structural verification —
    /// a pipeline bug by definition, caught before the image escapes.
    Verify(ImageVerifyError),
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorKind::Compile(e) => write!(f, "compile: {e}"),
            ErrorKind::Link(e) => write!(f, "link: {e}"),
            ErrorKind::Rewrite(e) => write!(f, "rewrite: {e}"),
            ErrorKind::Chain { func: Some(n), err } => write!(f, "chain for `{n}`: {err}"),
            ErrorKind::Chain { func: None, err } => write!(f, "chain: {err}"),
            ErrorKind::NoSuchFunction(n) => write!(f, "no such function `{n}`"),
            ErrorKind::UnstableChain(n) => write!(f, "chain for `{n}` unstable"),
            ErrorKind::TextChanged => write!(f, "final fill changed the scanned text"),
            ErrorKind::MissingSymbol(s) => write!(f, "missing symbol `{s}`"),
            ErrorKind::MissingDataItem(s) => write!(f, "missing data item `{s}`"),
            ErrorKind::NoUsableGadgets => write!(f, "no usable gadgets in image"),
            ErrorKind::Verify(e) => write!(f, "image verification: {e}"),
        }
    }
}

/// Errors from the protection pipeline, with stage provenance.
#[derive(Debug)]
pub struct ProtectError {
    /// Where in the pipeline the error arose.
    pub stage: Stage,
    /// What went wrong.
    pub kind: ErrorKind,
    /// Fallbacks the degradation ladder took before giving up (a
    /// boxed slice to keep errors small).
    pub degradations: Box<[DegradationReport]>,
}

impl ProtectError {
    /// Creates an error with explicit stage provenance.
    pub fn new(stage: Stage, kind: ErrorKind) -> ProtectError {
        ProtectError {
            stage,
            kind,
            degradations: Box::default(),
        }
    }

    /// A [`Stage::Select`] error for a missing verification function.
    pub fn no_such_function(name: impl Into<String>) -> ProtectError {
        ProtectError::new(Stage::Select, ErrorKind::NoSuchFunction(name.into()))
    }

    fn missing_symbol(sym: impl Into<String>) -> ProtectError {
        ProtectError::new(Stage::Map, ErrorKind::MissingSymbol(sym.into()))
    }

    fn missing_data(sym: impl Into<String>) -> ProtectError {
        ProtectError::new(Stage::Map, ErrorKind::MissingDataItem(sym.into()))
    }

    fn chain_for(func: &str, err: ChainError) -> ProtectError {
        ProtectError::new(
            Stage::ChainCompile,
            ErrorKind::Chain {
                func: Some(func.to_owned()),
                err,
            },
        )
    }

    /// True when the failure means "a needed gadget type is not in the
    /// image" — the condition the degradation ladder can remedy by
    /// re-rewriting or appending the standard set.
    pub fn is_gadget_starvation(&self) -> bool {
        matches!(
            self.kind,
            ErrorKind::Chain {
                err: ChainError::MissingGadget(_),
                ..
            } | ErrorKind::NoUsableGadgets
        )
    }

    /// The starved function and missing-gadget description, when
    /// [`Self::is_gadget_starvation`] holds.
    fn starvation_detail(&self) -> Option<(String, String)> {
        match &self.kind {
            ErrorKind::Chain {
                func,
                err: err @ ChainError::MissingGadget(_),
            } => Some((
                func.clone().unwrap_or_else(|| "*".to_owned()),
                err.to_string(),
            )),
            ErrorKind::NoUsableGadgets => Some(("*".to_owned(), self.kind.to_string())),
            _ => None,
        }
    }
}

impl fmt::Display for ProtectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} stage: {}", self.stage, self.kind)
    }
}

impl std::error::Error for ProtectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            ErrorKind::Compile(e) => Some(e),
            ErrorKind::Link(e) => Some(e),
            ErrorKind::Rewrite(e) => Some(e),
            ErrorKind::Chain { err, .. } => Some(err),
            ErrorKind::Verify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompileError> for ProtectError {
    fn from(e: CompileError) -> Self {
        ProtectError::new(Stage::Load, ErrorKind::Compile(e))
    }
}
impl From<LinkError> for ProtectError {
    fn from(e: LinkError) -> Self {
        ProtectError::new(Stage::Link, ErrorKind::Link(e))
    }
}
impl From<RewriteError> for ProtectError {
    fn from(e: RewriteError) -> Self {
        ProtectError::new(Stage::Rewrite, ErrorKind::Rewrite(e))
    }
}
impl From<ChainError> for ProtectError {
    fn from(e: ChainError) -> Self {
        ProtectError::new(Stage::ChainCompile, ErrorKind::Chain { func: None, err: e })
    }
}

/// One fallback taken by the degradation ladder (paper §III escape
/// hatch) instead of aborting the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationReport {
    /// Verification function whose chain could not be compiled (`"*"`
    /// when the failure was not attributable to one function, e.g. an
    /// empty gadget scan).
    pub func: String,
    /// What was missing (the chain compiler's description).
    pub missing: String,
    /// Immediate-rule body rotation used by the retry.
    pub retry_rotation: usize,
    /// Whether the retry force-appended the standard gadget set.
    pub stdset_forced: bool,
}

/// Per-chain statistics.
#[derive(Debug, Clone)]
pub struct ChainInfo {
    /// The translated function.
    pub func: String,
    /// Gadget invocations in the chain.
    pub ops: usize,
    /// Chain length in 32-bit words.
    pub words: usize,
    /// Distinct gadget addresses used (union over variants).
    pub used_gadgets: Vec<u32>,
    /// How many used gadgets overlap protected instruction ranges.
    pub overlapping_used: usize,
}

/// Output of [`protect`].
#[derive(Debug, Clone)]
pub struct ProtectReport {
    /// What the rewriting rules did.
    pub rewrites: RewriteReport,
    /// Per-verification-function chain statistics.
    pub chains: Vec<ChainInfo>,
    /// Total usable gadgets discovered in the protected image.
    pub gadget_count: usize,
    /// Fallbacks the degradation ladder took (empty when the first
    /// attempt succeeded).
    pub degradations: Vec<DegradationReport>,
}

/// A protected binary plus its report.
#[derive(Debug, Clone)]
pub struct Protected {
    /// The final executable image.
    pub image: LinkedImage,
    /// Protection statistics.
    pub report: ProtectReport,
}

pub use crate::dynamic::DEFAULT_VARIANTS;

/// What a pipeline run consults besides its input and configuration.
/// `Ctx::default()` stores nothing, traces nothing and injects no
/// faults.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    /// Where reusable artifacts are looked up and offered.
    pub store: &'a dyn ArtifactStore,
    /// Receives every span, counter and instant of the run: one span
    /// per stage block under a root `protect` span, the layers'
    /// sub-spans, `degraded` instants and `cache.func.*` traffic.
    pub tracer: Option<&'a Tracer>,
    /// Perturbations for the robustness harness (see
    /// [`crate::faultinject`]).
    pub faults: &'a FaultPlan,
}

static NO_FAULTS: FaultPlan = FaultPlan::none();

impl Default for Ctx<'_> {
    fn default() -> Self {
        Ctx {
            store: &NoStore,
            tracer: None,
            faults: &NO_FAULTS,
        }
    }
}

/// Runs the full protection pipeline on an IR module (the common,
/// "source available" path).
pub fn protect(module: &Module, cfg: &ProtectConfig) -> Result<Protected, ProtectError> {
    protect_module(module, cfg, &Ctx::default())
}

/// [`protect`] recording hierarchical spans, counters and histograms
/// on `tracer`: one span per pipeline stage block, rewrite-pass and
/// per-chain sub-spans, and the §IV-B gadget-preference counters.
pub fn protect_traced(
    module: &Module,
    cfg: &ProtectConfig,
    tracer: &Tracer,
) -> Result<Protected, ProtectError> {
    let ctx = Ctx {
        tracer: Some(tracer),
        ..Ctx::default()
    };
    protect_module(module, cfg, &ctx)
}

fn protect_module(
    module: &Module,
    cfg: &ProtectConfig,
    ctx: &Ctx<'_>,
) -> Result<Protected, ProtectError> {
    let verify_impls = cfg.verify_impls(module)?;
    protect_with(compile_module(module)?, &verify_impls, cfg, ctx)
}

/// The pipeline over an already-built [`Program`] (paper §I advantage
/// 5: "our approach lends itself to binary-level implementation, and
/// does not inherently require source"). `prog` is any relinkable
/// binary, however it was produced; `verify_impls` carries the IR of
/// each verification function named in `cfg.verify_funcs` (which must
/// exist as functions in `prog`; their bodies are replaced by loader
/// stubs and re-expressed as ROP chains). Everything else — gadget
/// crafting, rewriting, linking — operates purely on the machine code.
///
/// `ctx` supplies the artifact store, the tracer and the fault plan.
/// Stage wall time is recorded only as `stage` spans on the tracer.
/// Degradations come back on both outcomes: in the [`ProtectReport`]
/// or in the [`ProtectError`].
pub fn protect_with(
    prog: Program,
    verify_impls: &[Function],
    cfg: &ProtectConfig,
    ctx: &Ctx<'_>,
) -> Result<Protected, ProtectError> {
    let _root = ctx.tracer.map(|t| t.span("protect", "pipeline"));
    let mut degradations = Vec::new();
    match run_ladder(prog, verify_impls, cfg, ctx, &mut degradations) {
        Ok(mut protected) => {
            protected.report.degradations = degradations;
            Ok(protected)
        }
        Err(mut e) => {
            e.degradations = degradations.into();
            Err(e)
        }
    }
}

fn run_ladder(
    prog: Program,
    verify_impls: &[Function],
    cfg: &ProtectConfig,
    ctx: &Ctx<'_>,
    degradations: &mut Vec<DegradationReport>,
) -> Result<Protected, ProtectError> {
    // Stage: Select — the requested functions must exist both in the
    // program and among the supplied IR implementations.
    ctx.timed(Stage::Select, || {
        for f in &cfg.verify_funcs {
            if prog.func(f).is_none() || !verify_impls.iter().any(|vi| &vi.name == f) {
                return Err(ProtectError::no_such_function(f));
            }
        }
        Ok(())
    })?;

    // Degradation ladder: the base attempt, then alternate
    // immediate-rule body rotations, then a forced standard gadget set.
    // Each attempt restarts from the pristine program.
    let base_rotation = cfg.rewrite.body_rotation;
    let mut attempts: Vec<(RewriteConfig, bool)> = vec![(cfg.rewrite.clone(), false)];
    for extra in 1..=2usize {
        let mut rw = cfg.rewrite.clone();
        rw.body_rotation = base_rotation + extra;
        attempts.push((rw, false));
    }
    if !cfg.rewrite.stdset {
        let mut rw = cfg.rewrite.clone();
        rw.stdset = true;
        attempts.push((rw, true));
    }

    let last = attempts.len() - 1;
    for (i, (rw_cfg, _)) in attempts.iter().enumerate() {
        match run_pipeline(prog.clone(), verify_impls, cfg, rw_cfg, ctx) {
            Ok((image, rewrites, chains, gadget_count)) => {
                return Ok(Protected {
                    image,
                    report: ProtectReport {
                        rewrites,
                        chains,
                        gadget_count,
                        degradations: Vec::new(),
                    },
                });
            }
            Err(e) => {
                let retryable = i < last && e.is_gadget_starvation();
                if !retryable {
                    return Err(e);
                }
                // Describe the fallback the *next* attempt makes.
                let (next_cfg, next_forced) = &attempts[i + 1];
                if let Some((func, missing)) = e.starvation_detail() {
                    let report = DegradationReport {
                        func,
                        missing,
                        retry_rotation: next_cfg.body_rotation,
                        stdset_forced: *next_forced,
                    };
                    if let Some(t) = ctx.tracer {
                        t.instant(
                            "degraded",
                            "pipeline",
                            vec![
                                ("func".to_string(), report.func.as_str().into()),
                                ("missing".to_string(), report.missing.as_str().into()),
                                (
                                    "retry_rotation".to_string(),
                                    (report.retry_rotation as u64).into(),
                                ),
                                (
                                    "stdset_forced".to_string(),
                                    u64::from(report.stdset_forced).into(),
                                ),
                            ],
                        );
                        t.count("pipeline.degradations", 1);
                    }
                    degradations.push(report);
                }
            }
        }
    }
    unreachable!("degradation ladder returns on its final attempt")
}

/// One end-to-end pipeline attempt (steps 1–5 of the module docs).
/// Returns the final image plus report ingredients.
#[allow(clippy::type_complexity)]
fn run_pipeline(
    mut prog: Program,
    verify_impls: &[Function],
    cfg: &ProtectConfig,
    rw_cfg: &RewriteConfig,
    ctx: &Ctx<'_>,
) -> Result<(LinkedImage, RewriteReport, Vec<ChainInfo>, usize), ProtectError> {
    let (store, trace, plan) = (ctx.store, ctx.tracer, ctx.faults);
    let get_impl = |name: &str| -> Result<&Function, ProtectError> {
        verify_impls
            .iter()
            .find(|vi| vi.name == name)
            .ok_or_else(|| ProtectError::no_such_function(name))
    };

    // 1. Install chain generators for dynamic modes (stage: Load).
    let gens: Vec<(String, Option<String>)> = ctx.timed(Stage::Load, || {
        cfg.verify_funcs
            .iter()
            .map(|f| (f.clone(), install_generator_binary(&mut prog, f, &cfg.mode)))
            .collect()
    });

    // 2. Apply the rewriting rules (stage: Rewrite).
    let targets: Vec<String> = match &cfg.protect_targets {
        Some(t) => t.clone(),
        None => prog
            .func_names()
            .map(str::to_owned)
            .filter(|n| !cfg.verify_funcs.contains(n) && !n.starts_with("__plx_") && n != "_start")
            .collect(),
    };
    plan.apply_pre_rewrite(&mut prog);
    let jobs = cfg.resolved_jobs();
    let use_func_cache = store.has_func_cache();
    let func_store = FuncStore(ctx);
    let rw_cache: Option<&dyn FuncRewriteCache> =
        use_func_cache.then_some(&func_store as &dyn FuncRewriteCache);
    let rewrites = ctx.timed(Stage::Rewrite, || {
        protect_program_parallel(&mut prog, &targets, rw_cfg, jobs, rw_cache, trace)
    })?;

    // 3. Runtime, frames, stubs, placeholders (stage: Load).
    let load_block = ctx.stage(Stage::Load);
    install_runtime(&mut prog);
    prog.add_bss("__plx_scratch", 4096);
    for (f, gen) in &gens {
        let func = get_impl(f)?;
        let frame_sym = format!("__plx_frame_{f}");
        let chain_sym = format!("__plx_chain_{f}");
        if !plan.drops_frame(f) {
            prog.add_bss(&frame_sym, frame_size(func));
        }
        // §VI-C: optional checksum over the chain's static data item.
        let checker_sym = if cfg.checksum_chains {
            let ck = format!("__plx_ck_{f}");
            let target = checksummed_item(f, &cfg.mode);
            prog.add_func(
                &ck,
                make_chain_checker(
                    &target,
                    &format!("__plx_cklen_{f}"),
                    &format!("__plx_ckexp_{f}"),
                ),
            );
            prog.add_data(format!("__plx_cklen_{f}"), vec![0; 4]);
            prog.add_data(format!("__plx_ckexp_{f}"), vec![0; 4]);
            Some(ck)
        } else {
            None
        };
        let wipe_len_sym = format!("__plx_wlen_{f}");
        let wipe = if cfg.wipe_chains && gen.is_some() {
            prog.add_data(&wipe_len_sym, vec![0; 4]);
            Some((chain_sym.as_str(), wipe_len_sym.as_str()))
        } else {
            None
        };
        let stub = match gen {
            Some(gen_sym) => make_stub_full(
                func.params.len(),
                &frame_sym,
                None,
                Some(gen_sym),
                checker_sym.as_deref(),
                wipe,
            ),
            None => {
                // Cleartext: the chain itself is a data object.
                prog.add_data(&chain_sym, Vec::new());
                make_stub_full(
                    func.params.len(),
                    &frame_sym,
                    Some(&chain_sym),
                    None,
                    checker_sym.as_deref(),
                    None,
                )
            }
        };
        let slot = prog
            .func_mut(f)
            .ok_or_else(|| ProtectError::no_such_function(f))?;
        slot.bytes = stub.bytes;
        slot.relocs = stub.relocs;
        slot.markers = stub.markers;
    }
    plan.apply_pre_link(&mut prog);
    drop(load_block);

    // 4. Fixpoint pass 1: discover chain sizes (stages: Link,
    // GadgetScan, Map, ChainCompile). Only the sizes and the scan memo
    // outlive it: its image and gadget map are freed before pass 2.
    let (sizes, memo1) = {
        let img1 = ctx.timed(Stage::Link, || prog.link())?;
        let (map1, memo1) = scan_gadgets(&img1, ctx, jobs, None, true)?;
        let ranges1 = target_ranges(&img1, &targets);
        let _chain1_block = ctx.stage(Stage::ChainCompile);
        let scratch1 = symbol_vaddr(&img1, "__plx_scratch")?;
        let guards1 = guard_addrs(&img1, &map1, &cfg.guard_funcs);
        let mut sizes = Vec::new();
        for (i, (f, _)) in gens.iter().enumerate() {
            let func = get_impl(f)?;
            let frame = symbol_vaddr(&img1, &format!("__plx_frame_{f}"))?;
            let policy = policy_for(cfg, &ranges1, i as u64, 0);
            let words =
                compile_chain_traced(func, &map1, &img1, frame, scratch1, policy, &guards1, trace)
                    .map_err(|e| ProtectError::chain_for(f, e))?
                    .chain
                    .len();
            sizes.push(words);
        }
        (sizes, memo1)
    };

    // Size the per-chain data objects (stage: Map).
    let map_block = ctx.stage(Stage::Map);
    for ((f, _gen), words) in gens.iter().zip(&sizes) {
        let bytes = words * 4;
        match &cfg.mode {
            ChainMode::Cleartext => {
                set_size(&mut prog, &format!("__plx_chain_{f}"), bytes)?;
            }
            ChainMode::XorEncrypted { .. } | ChainMode::Rc4Encrypted { .. } => {
                set_size(&mut prog, &format!("__plx_enc_{f}"), bytes)?;
                set_bss_size(&mut prog, &format!("__plx_chain_{f}"), bytes as u32)?;
            }
            ChainMode::Probabilistic { .. } => {
                // The mask blob: its length and variant count, then one
                // mask per (position, variant) (DESIGN.md §21).
                let blob = 8 + bytes * cfg.mode.variant_count();
                set_size(&mut prog, &format!("__plx_blob_{f}"), blob)?;
                set_bss_size(&mut prog, &format!("__plx_chain_{f}"), bytes as u32)?;
            }
        }
    }
    drop(map_block);

    // 5. Fixpoint pass 2: final layout; recompile, serialize, install.
    // Only data sizes changed, so the text differs from pass 1's in its
    // relocated fields: the scan rescans incrementally from pass 1's memo,
    // and leaves no memo of its own.
    let img2 = ctx.timed(Stage::Link, || prog.link())?;
    let (map2, _) = scan_gadgets(&img2, ctx, jobs, memo1, false)?;
    let ranges2 = target_ranges(&img2, &targets);
    let range_index = RangeSet::new(&ranges2);
    let chain2_block = ctx.stage(Stage::ChainCompile);
    let scratch2 = symbol_vaddr(&img2, "__plx_scratch")?;
    let guards2 = guard_addrs(&img2, &map2, &cfg.guard_funcs);
    let nvariants = cfg.mode.variant_count();

    // Compile every (function, variant) chain against the final layout.
    // Policy seeds derive from (chain index, variant) alone, so each
    // chain is a pure function of the image and its indices.
    let mut chains = Vec::new();
    for (i, ((f, _gen), words)) in gens.iter().zip(&sizes).enumerate() {
        let func = get_impl(f)?;
        let frame = symbol_vaddr(&img2, &format!("__plx_frame_{f}"))?;
        let buf_sym = format!("__plx_chain_{f}");
        let base = symbol_vaddr(&img2, &buf_sym)?;
        let mut variant_words: Vec<Vec<u32>> = Vec::with_capacity(nvariants);
        let mut used: Vec<u32> = Vec::new();
        let mut ops = 0;
        for v in 0..nvariants {
            let policy = policy_for(cfg, &ranges2, i as u64, v as u64);
            let compiled =
                compile_chain_traced(func, &map2, &img2, frame, scratch2, policy, &guards2, trace)
                    .map_err(|e| ProtectError::chain_for(f, e))?;
            if compiled.chain.len() != *words {
                return Err(ProtectError::new(
                    Stage::Map,
                    ErrorKind::UnstableChain(f.clone()),
                ));
            }
            let bytes = compiled
                .chain
                .serialize(base)
                .map_err(|e| ProtectError::chain_for(f, ChainError::from(e)))?;
            variant_words.push(
                bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect(),
            );
            used.extend(compiled.used_gadgets);
            ops = compiled.ops;
        }
        used.sort_unstable();
        used.dedup();
        let overlapping_used = used.iter().filter(|&&g| range_index.contains(g)).count();

        match &cfg.mode {
            ChainMode::Cleartext => {
                let bytes: Vec<u8> = variant_words[0]
                    .iter()
                    .flat_map(|w| w.to_le_bytes())
                    .collect();
                data_mut(&mut prog, &buf_sym)?.bytes = bytes;
            }
            ChainMode::XorEncrypted { key } => {
                let mut wordsv = variant_words[0].clone();
                xor_crypt(&mut wordsv, *key);
                let bytes: Vec<u8> = wordsv.iter().flat_map(|w| w.to_le_bytes()).collect();
                data_mut(&mut prog, &format!("__plx_enc_{f}"))?.bytes = bytes;
                set_word(
                    &mut prog,
                    &format!("__plx_len_{f}"),
                    *words as u32, // word count for the xor generator
                )?;
            }
            ChainMode::Rc4Encrypted { key } => {
                let mut bytes: Vec<u8> = variant_words[0]
                    .iter()
                    .flat_map(|w| w.to_le_bytes())
                    .collect();
                rc4_crypt(&mut bytes, key);
                data_mut(&mut prog, &format!("__plx_enc_{f}"))?.bytes = bytes;
                set_word(
                    &mut prog,
                    &format!("__plx_len_{f}"),
                    (*words * 4) as u32, // byte count for the RC4 generator
                )?;
            }
            ChainMode::Probabilistic { seed, .. } => {
                let basis = Basis::random(seed ^ (0x5a5a + i as u64));
                // Exactly the size pass 1 gave it: the chain kept its
                // length (`UnstableChain` otherwise).
                data_mut(&mut prog, &format!("__plx_blob_{f}"))?.bytes =
                    build_mask_blob(&basis, &variant_words);
                let basis_bytes: Vec<u8> =
                    basis.vectors.iter().flat_map(|w| w.to_le_bytes()).collect();
                data_mut(&mut prog, &format!("__plx_basis_{f}"))?.bytes = basis_bytes;
            }
        }

        if cfg.wipe_chains && !matches!(cfg.mode, ChainMode::Cleartext) {
            set_word(&mut prog, &format!("__plx_wlen_{f}"), (*words * 4) as u32)?;
        }
        if cfg.checksum_chains {
            let target = checksummed_item(f, &cfg.mode);
            let bytes = prog
                .data_item(&target)
                .ok_or_else(|| ProtectError::missing_data(&target))?
                .bytes
                .clone();
            set_word(&mut prog, &format!("__plx_cklen_{f}"), bytes.len() as u32)?;
            set_word(&mut prog, &format!("__plx_ckexp_{f}"), fnv1a(&bytes))?;
        }

        if let Some(t) = trace {
            t.count("chain.used.total", used.len() as u64);
            t.count("chain.used.overlapping", overlapping_used as u64);
            t.record("chain.words", *words as u64);
            t.record("chain.ops", ops as u64);
        }
        chains.push(ChainInfo {
            func: f.clone(),
            ops,
            words: *words,
            used_gadgets: used,
            overlapping_used,
        });
    }
    drop(chain2_block);

    // The final fill writes data only. `map2` and the self-check below
    // describe pass 2's text, so they hold only if the text is untouched.
    let image = ctx.timed(Stage::Link, || prog.link())?;
    if image.text != img2.text {
        return Err(ProtectError::new(Stage::Link, ErrorKind::TextChanged));
    }

    // Post-link self-check: the final image must satisfy every
    // structural invariant the fail-closed loader enforces, with
    // every cleartext chain word resolving against the final gadget
    // map. Catches pipeline bugs before a broken image escapes.
    let mut gadget_vaddrs: Vec<u32> = map2.gadgets().iter().map(|g| g.vaddr).collect();
    gadget_vaddrs.sort_unstable();
    gadget_vaddrs.dedup();
    ctx.timed(Stage::Verify, || {
        verify_image_strict(&image, &gadget_vaddrs)
    })
    .map_err(|e| ProtectError::new(Stage::Verify, ErrorKind::Verify(e)))?;

    Ok((image, rewrites, chains, map2.gadgets().len()))
}

/// The artifact store's pass-1 rewrite seam as the rewrite crate
/// queries it, each lookup counted on the tracer as
/// `cache.func.rewritten.{hit,miss}`.
struct FuncStore<'a>(&'a Ctx<'a>);

impl FuncRewriteCache for FuncStore<'_> {
    fn fetch_rewritten(&self, fingerprint: &[u8]) -> Option<FuncRewriteOutcome> {
        let out = self.0.store.cached_rewritten_func(fingerprint);
        if let Some(t) = self.0.tracer {
            let outcome = if out.is_some() { "hit" } else { "miss" };
            t.count(&format!("cache.func.rewritten.{outcome}"), 1);
        }
        out
    }

    fn store_rewritten(&self, fingerprint: &[u8], outcome: &FuncRewriteOutcome) {
        self.0.store.store_rewritten_func(fingerprint, outcome)
    }
}

impl<'a> Ctx<'a> {
    /// Opens one pipeline stage block: a `stage` span on the tracer,
    /// closed when the guard drops — including on early (`?`) exits.
    fn stage(&self, stage: Stage) -> Option<SpanGuard<'a>> {
        self.tracer.map(|t| t.span(&stage.to_string(), "stage"))
    }

    /// Runs `f` as one stage block.
    fn timed<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let _block = self.stage(stage);
        f()
    }
}

/// Gadget discovery with a typed [`Stage::GadgetScan`] error when the
/// image yields nothing usable (or the fault plan empties the scan).
/// Consults the store's content-addressed scan cache first — two jobs
/// whose pipelines link a byte-identical intermediate image (e.g. the
/// same program protected under different seeds) share one scan. A
/// fresh scan reuses `prev`, the previous pass's memo, and returns its
/// own when `next_pass` will use it; a cached one returns none.
fn scan_gadgets(
    img: &LinkedImage,
    ctx: &Ctx<'_>,
    jobs: usize,
    prev: Option<PassMemo>,
    next_pass: bool,
) -> Result<(GadgetMap, Option<PassMemo>), ProtectError> {
    let block = ctx.stage(Stage::GadgetScan);
    let mut memo = None;
    let gadgets = if ctx.faults.empties_gadget_scan() {
        Vec::new()
    } else {
        match ctx.store.cached_scan(img) {
            Some(cached) if !cached.is_empty() => cached,
            _ => {
                let (fresh, stats, vstats) = if next_pass {
                    let (fresh, stats, vstats, next) =
                        parallax_gadgets::find_gadgets_reusing(img, jobs, prev);
                    memo = Some(next);
                    (fresh, stats, vstats)
                } else {
                    parallax_gadgets::find_gadgets_instrumented(img, jobs, prev)
                };
                if let Some(t) = ctx.tracer {
                    // Cache hits never report: no decoding happened.
                    // `shape` counts shape decodes of the offsets the
                    // scan reached, `reused` the shapes carried over
                    // from the previous pass, `skipped` the offsets no
                    // candidate can start at; `once` counts the full
                    // decodes of candidate-path offsets.
                    t.count("scan.decode.offsets", stats.offsets);
                    t.count("scan.decode.once", stats.decoded);
                    t.count("scan.decode.shape", stats.shapes);
                    t.count("scan.decode.reused", stats.reused);
                    t.count("scan.decode.skipped", stats.skipped);
                    t.count("scan.decode.memo_hit", stats.memo_hits);
                    // Per-worker probe-VM construction is pure setup
                    // cost that fan-out multiplies — attribute it so
                    // `plx profile` can rank it against real work. The
                    // build count is the number of pool workers that
                    // claimed a chunk, so at jobs > 1 it depends on
                    // scheduling and may differ between two runs.
                    t.count("vm.probe.builds", vstats.probe_builds);
                    t.count("vm.probe.build_ns", vstats.probe_build_ns);
                    // Copy-on-write pages the probe VMs wrote: a pure
                    // function of the proposals probed, so it repeats
                    // exactly at any job count.
                    t.count("vm.mem.pages_copied", vstats.probe.pages_copied);
                    // Shared-trial validation work: probe executions
                    // actually performed, the per-(effect, trial) runs
                    // avoided, and scratch words written — the rows
                    // `plx report` prints under "gadget validation".
                    t.count("vm.probe.proposals", vstats.probe.proposals);
                    t.count("vm.probe.runs", vstats.probe.runs);
                    // The runs that were second trials: trial 1 did not
                    // settle the proposal's surviving effects.
                    t.count("vm.probe.second_trials", vstats.probe.second_trials);
                    // Proposals rejected without a run: an access of
                    // theirs can only land on unmapped memory, or their
                    // syscall number is undefined. They count in
                    // `proposals`, not in `runs`.
                    t.count("vm.probe.prejudged", vstats.probe.prejudged);
                    // Verdicts served from the previous pass's memo:
                    // no probe ran, so `proposals`/`runs` omit them.
                    t.count("vm.probe.reused", vstats.reused);
                    // Copies served by a same-content candidate's
                    // verdict in this pass: no probe ran either.
                    t.count("vm.probe.shared", vstats.shared);
                    t.count("vm.probe.runs_saved", vstats.probe.runs_saved);
                    t.count("vm.probe.reseed_words", vstats.probe.reseed_words);
                    t.count("pool.scan.merge_ns", vstats.merge_ns);
                    vstats.pool.export_to(t, "scan");
                }
                ctx.store.store_scan(img, &fresh);
                fresh
            }
        }
    };
    drop(block);
    if gadgets.is_empty() {
        return Err(ProtectError::new(
            Stage::GadgetScan,
            ErrorKind::NoUsableGadgets,
        ));
    }
    Ok((GadgetMap::new(gadgets), memo))
}

/// The static data item that carries a chain's verification material.
fn checksummed_item(func: &str, mode: &ChainMode) -> String {
    match mode {
        ChainMode::Cleartext => format!("__plx_chain_{func}"),
        ChainMode::XorEncrypted { .. } | ChainMode::Rc4Encrypted { .. } => {
            format!("__plx_enc_{func}")
        }
        ChainMode::Probabilistic { .. } => format!("__plx_blob_{func}"),
    }
}

fn policy_for(cfg: &ProtectConfig, ranges: &[(u32, u32)], chain_idx: u64, variant: u64) -> Policy {
    match &cfg.mode {
        ChainMode::Probabilistic { seed, .. } => Policy::Grouped {
            seed: seed ^ (chain_idx << 32) ^ (variant.wrapping_mul(0x9e37_79b9) | 1),
        },
        _ => Policy::PreferOverlapping {
            ranges: ranges.to_vec(),
            seed: cfg.seed ^ (chain_idx << 16),
        },
    }
}

/// Gadget vaddrs inside the guard functions (all usable gadgets found
/// there), capped to keep chains bounded.
fn guard_addrs(img: &LinkedImage, map: &GadgetMap, guard_funcs: &[String]) -> Vec<u32> {
    let mut out = Vec::new();
    for name in guard_funcs {
        let Some(sym) = img.symbol(name) else {
            continue;
        };
        for g in map.gadgets() {
            if g.vaddr >= sym.vaddr && g.vaddr < sym.vaddr + sym.size {
                out.push(g.vaddr);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out.truncate(64);
    out
}

fn target_ranges(img: &LinkedImage, targets: &[String]) -> Vec<(u32, u32)> {
    targets
        .iter()
        .filter_map(|t| img.symbol(t))
        .map(|s| (s.vaddr, s.vaddr + s.size))
        .collect()
}

fn data_mut<'p>(
    prog: &'p mut Program,
    sym: &str,
) -> Result<&'p mut parallax_image::program::DataItem, ProtectError> {
    prog.data_item_mut(sym)
        .ok_or_else(|| ProtectError::missing_data(sym))
}

fn set_size(prog: &mut Program, sym: &str, bytes: usize) -> Result<(), ProtectError> {
    data_mut(prog, sym)?.bytes = vec![0; bytes];
    Ok(())
}

fn set_bss_size(prog: &mut Program, sym: &str, size: u32) -> Result<(), ProtectError> {
    data_mut(prog, sym)?.bss_size = size;
    Ok(())
}

fn set_word(prog: &mut Program, sym: &str, value: u32) -> Result<(), ProtectError> {
    data_mut(prog, sym)?.bytes = value.to_le_bytes().to_vec();
    Ok(())
}

fn symbol_vaddr(img: &LinkedImage, sym: &str) -> Result<u32, ProtectError> {
    img.symbol(sym)
        .map(|s| s.vaddr)
        .ok_or_else(|| ProtectError::missing_symbol(sym))
}
