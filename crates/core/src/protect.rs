//! The end-to-end protection pipeline (paper §III).
//!
//! [`protect`] takes an IR module and a configuration and produces a
//! protected executable image:
//!
//! 1. compile the module (plus any chain generators) to x86;
//! 2. apply the §IV-B rewriting rules to craft overlapping gadgets in
//!    the instructions to protect, and append the standard gadget set;
//! 3. install the chain-loader runtime and replace each verification
//!    function's body with a loader stub;
//! 4. link, discover and validate gadgets, and translate each
//!    verification function into a ROP chain that *prefers gadgets
//!    overlapping the protected code* (§III step 4);
//! 5. install the chains (cleartext, encrypted, or as probabilistic
//!    index arrays) and produce the final image.
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

use std::cell::RefCell;
use std::fmt;
use std::time::{Duration, Instant};

use parallax_compiler::{compile_module, CompileError, Function, Module};
use parallax_gadgets::{serialize_gadgets, GadgetMap, RangeSet, ValidationCache};
use parallax_image::{verify_image_strict, ImageVerifyError, LinkError, LinkedImage, Program};
use parallax_rewrite::{
    analyze_traced, protect_program_parallel, Coverage, FuncRewriteCache, FuncRewriteOutcome,
    RewriteConfig, RewriteError, RewriteReport,
};
use parallax_ropc::{
    compile_chain_traced, fnv1a, frame_size, install_runtime, make_chain_checker, make_stub_full,
    ChainError, Policy,
};
use parallax_trace::{SpanGuard, Tracer};

use crate::dynamic::{
    build_index_blob, install_generator_binary, rc4_crypt, xor_crypt, Basis, ChainMode,
};
use crate::faultinject::FaultPlan;
use crate::store::{ArtifactStore, ChainArtifact, NoStore};

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
    /// Retry with alternate rewrite-rule orderings and fall back to
    /// the appended standard gadget set when a needed gadget type
    /// cannot be crafted (on by default). Disable to surface the raw
    /// [`Stage::ChainCompile`] / [`Stage::GadgetScan`] error instead.
    pub degrade: bool,
    /// Worker threads for the per-function pipeline stages (rewrite
    /// pass 1 and chain compilation): `1` runs sequentially (the
    /// default), `0` uses the machine's available parallelism. Output
    /// images are bit-identical whatever this is set to.
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
            degrade: true,
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
    /// A pipeline-managed symbol vanished between passes.
    MissingSymbol(String),
    /// A pipeline-managed data item vanished between passes.
    MissingDataItem(String),
    /// Serialized chain material exceeded its reserved capacity.
    ChainTooLarge {
        /// The verification function whose chain overflowed.
        func: String,
        /// Bytes the chain material needs.
        needed: usize,
        /// Bytes reserved for it.
        capacity: usize,
    },
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
            ErrorKind::MissingSymbol(s) => write!(f, "missing symbol `{s}`"),
            ErrorKind::MissingDataItem(s) => write!(f, "missing data item `{s}`"),
            ErrorKind::ChainTooLarge {
                func,
                needed,
                capacity,
            } => write!(
                f,
                "chain material for `{func}` needs {needed} bytes, only {capacity} reserved"
            ),
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
    /// Fallbacks the degradation ladder took before giving up. (This
    /// and the stage log are boxed slices to keep errors small.)
    pub degradations: Box<[DegradationReport]>,
    /// The stage blocks that ran before the failure (see
    /// [`ProtectReport::stage_log`]).
    pub stage_log: Box<[(Stage, Duration)]>,
}

impl ProtectError {
    /// Creates an error with explicit stage provenance.
    pub fn new(stage: Stage, kind: ErrorKind) -> ProtectError {
        ProtectError {
            stage,
            kind,
            degradations: Box::default(),
            stage_log: Box::default(),
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
    /// Per-rule protectable-byte coverage measured on the *unprotected*
    /// image (the paper's Figure 6 metric).
    pub coverage: Coverage,
    /// Per-verification-function chain statistics.
    pub chains: Vec<ChainInfo>,
    /// Total usable gadgets discovered in the protected image.
    pub gadget_count: usize,
    /// Fallbacks the degradation ladder took (empty when the first
    /// attempt succeeded).
    pub degradations: Vec<DegradationReport>,
    /// Wall time of every stage block, in completion order. Stages
    /// repeat across fixpoint passes and degradation retries.
    pub stage_log: Vec<(Stage, Duration)>,
}

/// A protected binary plus its report.
#[derive(Debug, Clone)]
pub struct Protected {
    /// The final executable image.
    pub image: LinkedImage,
    /// Protection statistics.
    pub report: ProtectReport,
}

/// Number of probabilistic variants compiled when
/// [`ChainMode::Probabilistic`] requests `variants: 0`.
pub const DEFAULT_VARIANTS: usize = 8;

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
/// The stage log and degradations come back on both outcomes: in the
/// [`ProtectReport`] or in the [`ProtectError`].
pub fn protect_with(
    prog: Program,
    verify_impls: &[Function],
    cfg: &ProtectConfig,
    ctx: &Ctx<'_>,
) -> Result<Protected, ProtectError> {
    let _root = ctx.tracer.map(|t| t.span("protect", "pipeline"));
    let run = Run {
        ctx: *ctx,
        log: RefCell::new(Vec::new()),
    };
    let mut degradations = Vec::new();
    let out = run_ladder(prog, verify_impls, cfg, &run, &mut degradations);
    let stage_log = run.log.into_inner();
    match out {
        Ok(mut protected) => {
            protected.report.degradations = degradations;
            protected.report.stage_log = stage_log;
            Ok(protected)
        }
        Err(mut e) => {
            e.degradations = degradations.into();
            e.stage_log = stage_log.into();
            Err(e)
        }
    }
}

/// One pipeline run's context plus the stage log its blocks fill.
struct Run<'a> {
    ctx: Ctx<'a>,
    log: RefCell<Vec<(Stage, Duration)>>,
}

fn run_ladder(
    prog: Program,
    verify_impls: &[Function],
    cfg: &ProtectConfig,
    run: &Run<'_>,
    degradations: &mut Vec<DegradationReport>,
) -> Result<Protected, ProtectError> {
    let store = run.ctx.store;
    // Stage: Select — the requested functions must exist both in the
    // program and among the supplied IR implementations.
    for f in &cfg.verify_funcs {
        if prog.func(f).is_none() || !verify_impls.iter().any(|vi| &vi.name == f) {
            return Err(ProtectError::no_such_function(f));
        }
    }

    // Figure-6 coverage is measured on the unprotected image — shared
    // by every job protecting the same program, so it is offered to the
    // store for reuse. Attributed to the Select stage: it is part of
    // sizing up the pristine input before the pipeline mutates it.
    let coverage = run.timed(Stage::Select, || -> Result<_, ProtectError> {
        let base = prog.link()?;
        Ok(match store.cached_coverage(&base) {
            Some(c) => c,
            None => {
                let c = analyze_traced(&base, run.ctx.tracer);
                store.store_coverage(&base, &c);
                c
            }
        })
    })?;

    // Degradation ladder: the base attempt, then (when enabled)
    // alternate immediate-rule body rotations, then a forced standard
    // gadget set. Each attempt restarts from the pristine program.
    let base_rotation = cfg.rewrite.body_rotation;
    let mut attempts: Vec<(RewriteConfig, bool)> = vec![(cfg.rewrite.clone(), false)];
    if cfg.degrade {
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
    }

    let last = attempts.len() - 1;
    for (i, (rw_cfg, _)) in attempts.iter().enumerate() {
        match run_pipeline(prog.clone(), verify_impls, cfg, rw_cfg, run) {
            Ok((image, rewrites, chains, gadget_count)) => {
                return Ok(Protected {
                    image,
                    report: ProtectReport {
                        rewrites,
                        coverage,
                        chains,
                        gadget_count,
                        degradations: Vec::new(),
                        stage_log: Vec::new(),
                    },
                });
            }
            Err(e) => {
                let retryable = cfg.degrade && i < last && e.is_gadget_starvation();
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
                    if let Some(t) = run.ctx.tracer {
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
    run: &Run<'_>,
) -> Result<(LinkedImage, RewriteReport, Vec<ChainInfo>, usize), ProtectError> {
    let ctx = run.ctx;
    let (store, trace, plan) = (ctx.store, ctx.tracer, ctx.faults);
    let get_impl = |name: &str| -> Result<&Function, ProtectError> {
        verify_impls
            .iter()
            .find(|vi| vi.name == name)
            .ok_or_else(|| ProtectError::no_such_function(name))
    };

    // 1. Install chain generators for dynamic modes (stage: Load).
    let gens = run.timed(Stage::Load, || -> Result<_, ProtectError> {
        let mut gens = Vec::new();
        for f in cfg.verify_funcs.clone() {
            let gen = install_generator_binary(&mut prog, &f, &cfg.mode)?;
            gens.push((f, gen));
        }
        Ok(gens)
    })?;

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
    let func_store = FuncStore(&ctx);
    let rw_cache: Option<&dyn FuncRewriteCache> =
        use_func_cache.then_some(&func_store as &dyn FuncRewriteCache);
    let rewrites = run.timed(Stage::Rewrite, || {
        protect_program_parallel(&mut prog, &targets, rw_cfg, jobs, rw_cache, trace)
    })?;

    // 3. Runtime, frames, stubs, placeholders (stage: Load).
    let load_block = run.stage(Stage::Load);
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
    // GadgetScan, Map, ChainCompile).
    let img1 = run.timed(Stage::Link, || prog.link())?;
    let map1 = scan_gadgets(&img1, run, jobs)?;
    let ranges1 = target_ranges(&img1, &targets);
    let chain1_block = run.stage(Stage::ChainCompile);
    let scratch1 = symbol_vaddr(&img1, "__plx_scratch")?;
    let guards1 = guard_addrs(&img1, &map1, &cfg.guard_funcs);
    let ctx1 = use_func_cache.then(|| chain_ctx_material(&map1, &img1, scratch1, &guards1));
    let mut sizes = Vec::new();
    for (i, (f, _)) in gens.iter().enumerate() {
        let func = get_impl(f)?;
        let frame = symbol_vaddr(&img1, &format!("__plx_frame_{f}"))?;
        let policy = policy_for(cfg, &ranges1, i as u64, 0);
        let fp = ctx1
            .as_ref()
            .map(|c| chain_fingerprint(c, func, frame, &policy));
        let words = match fp.as_ref().and_then(|fp| func_store.cached_chain(fp)) {
            Some(art) => art.words,
            None => {
                let compiled = compile_chain_traced(
                    func, &map1, &img1, frame, scratch1, policy, &guards1, trace,
                )
                .map_err(|e| ProtectError::chain_for(f, e))?;
                if let Some(fp) = &fp {
                    // Sizing artifact: no final layout exists yet, so
                    // the serialized form stays empty.
                    store.store_chain(
                        fp,
                        &ChainArtifact {
                            words: compiled.chain.len(),
                            ops: compiled.ops,
                            used_gadgets: compiled.used_gadgets.clone(),
                            bytes: Vec::new(),
                        },
                    );
                }
                compiled.chain.len()
            }
        };
        // Probabilistic blob worst case per (position, variant): a
        // 4-byte offset-table entry plus a pool list of 1 + up to 32
        // index words = 136 bytes; pad generously on top.
        let blob_cap = words * cfg_variants(&cfg.mode) * 140 + 1024;
        sizes.push((words, blob_cap));
    }
    drop(chain1_block);

    // Size the per-chain data objects (stage: Map).
    let map_block = run.stage(Stage::Map);
    for ((f, _gen), (words, blob_cap)) in gens.iter().zip(&sizes) {
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
                set_size(&mut prog, &format!("__plx_blob_{f}"), *blob_cap)?;
                set_bss_size(&mut prog, &format!("__plx_chain_{f}"), bytes as u32)?;
            }
        }
    }
    drop(map_block);

    // 5. Fixpoint pass 2: final layout; recompile, serialize, install.
    let img2 = run.timed(Stage::Link, || prog.link())?;
    let map2 = scan_gadgets(&img2, run, jobs)?;
    let ranges2 = target_ranges(&img2, &targets);
    let range_index = RangeSet::new(&ranges2);
    let chain2_block = run.stage(Stage::ChainCompile);
    let scratch2 = symbol_vaddr(&img2, "__plx_scratch")?;
    let guards2 = guard_addrs(&img2, &map2, &cfg.guard_funcs);
    let ctx2 = use_func_cache.then(|| chain_ctx_material(&map2, &img2, scratch2, &guards2));
    let nvariants = cfg_variants(&cfg.mode);

    // Resolve the fallible per-function symbol lookups before fanning
    // out, so worker tasks are infallible address-wise.
    let mut gen_ctx = Vec::with_capacity(gens.len());
    for ((f, _gen), (words, _)) in gens.iter().zip(&sizes) {
        gen_ctx.push(GenCtx {
            name: f,
            func: get_impl(f)?,
            frame: symbol_vaddr(&img2, &format!("__plx_frame_{f}"))?,
            base: symbol_vaddr(&img2, &format!("__plx_chain_{f}"))?,
            words: *words,
        });
    }

    // Fan every (function, variant) compilation over the pool. Each
    // task is a pure function of its indices — chain policy seeds
    // derive from (chain index, variant), never from shared state — so
    // merging results back in task order makes both the compiled
    // output and any error independent of the worker count.
    let wall = Instant::now();
    // Cap the fan-out to what the task count can feed: spawning more
    // workers than (bounded) tasks only adds join overhead — the
    // measured jobs8-slower-than-jobs1 regression. Two tasks per
    // worker at minimum, or the spawn cost dominates the compile.
    let jobs = parallax_pool::effective_workers_for(jobs, gen_ctx.len() * nvariants, 2);
    let (compiled, pstats) = parallax_pool::scoped_map(jobs, gen_ctx.len() * nvariants, |t, _w| {
        let (i, v) = (t / nvariants, t % nvariants);
        let t0 = Instant::now();
        let out = compile_variant(
            &gen_ctx[i],
            i,
            v,
            cfg,
            &map2,
            &img2,
            scratch2,
            &ranges2,
            &guards2,
            ctx2.as_deref(),
            &ctx,
        );
        (out, t0.elapsed().as_micros() as u64)
    });
    let wall_us = wall.elapsed().as_micros() as u64;
    let cpu_us: u64 = compiled.iter().map(|(_, d)| *d).sum();
    if let Some(t) = trace {
        t.count("protect.par.chain.wall_us", wall_us);
        t.count("protect.par.chain.cpu_us", cpu_us);
        t.record("protect.par.workers", pstats.workers as u64);
        t.count("protect.par.steals", pstats.steals);
        pstats.export_to(t, "chain");
    }
    // First error in task order, so failures are deterministic too.
    let mut arts = Vec::with_capacity(compiled.len());
    for (r, _) in compiled {
        arts.push(r?);
    }

    let mut chains = Vec::new();
    for (i, gctx) in gen_ctx.iter().enumerate() {
        let f = gctx.name;
        let words = &gctx.words;
        let buf_sym = format!("__plx_chain_{f}");
        let gen_arts = &arts[i * nvariants..(i + 1) * nvariants];
        let variant_words: Vec<Vec<u32>> = gen_arts
            .iter()
            .map(|a| {
                a.bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect()
            })
            .collect();
        let mut used: Vec<u32> = gen_arts
            .iter()
            .flat_map(|a| a.used_gadgets.iter().copied())
            .collect();
        used.sort_unstable();
        used.dedup();
        let ops = gen_arts.last().map(|a| a.ops).unwrap_or(0);
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
                let mut blob = build_index_blob(&basis, &variant_words);
                let blob_sym = format!("__plx_blob_{f}");
                let cap = prog
                    .data_item(&blob_sym)
                    .ok_or_else(|| ProtectError::missing_data(&blob_sym))?
                    .bytes
                    .len();
                if blob.len() > cap {
                    return Err(ProtectError::new(
                        Stage::Map,
                        ErrorKind::ChainTooLarge {
                            func: f.clone(),
                            needed: blob.len(),
                            capacity: cap,
                        },
                    ));
                }
                blob.resize(cap, 0);
                data_mut(&mut prog, &blob_sym)?.bytes = blob;
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

    let image = run.timed(Stage::Link, || prog.link())?;
    debug_assert_eq!(image.text, img2.text, "text stable across final fill");

    // Post-link self-check: the final image must satisfy every
    // structural invariant the fail-closed loader enforces, with
    // every cleartext chain word resolving against the final gadget
    // map. Catches pipeline bugs before a broken image escapes.
    let mut gadget_vaddrs: Vec<u32> = map2.gadgets().iter().map(|g| g.vaddr).collect();
    gadget_vaddrs.sort_unstable();
    gadget_vaddrs.dedup();
    run.timed(Stage::Verify, || {
        verify_image_strict(&image, &gadget_vaddrs)
    })
    .map_err(|e| ProtectError::new(Stage::Verify, ErrorKind::Verify(e)))?;

    Ok((image, rewrites, chains, map2.gadgets().len()))
}

/// The artifact store's per-function seams as the pipeline and the
/// rewrite and gadget crates query them, each lookup counted on the
/// tracer. Rewrite and chain lookups also add to the
/// `cache.func.{hit,miss}` totals; verdict lookups, hundreds per scan,
/// are kept apart.
struct FuncStore<'a>(&'a Ctx<'a>);

impl FuncStore<'_> {
    fn count(&self, kind: &str, hit: bool) {
        let Some(t) = self.0.tracer else { return };
        let names: &[&str] = match (kind, hit) {
            ("rewritten", true) => &["cache.func.hit", "cache.func.rewritten.hit"],
            ("rewritten", false) => &["cache.func.miss", "cache.func.rewritten.miss"],
            ("chain", true) => &["cache.func.hit", "cache.func.chain.hit"],
            ("chain", false) => &["cache.func.miss", "cache.func.chain.miss"],
            (_, true) => &["cache.func.verdict.hit"],
            (_, false) => &["cache.func.verdict.miss"],
        };
        for name in names {
            t.count(name, 1);
        }
    }

    fn cached_chain(&self, fingerprint: &[u8]) -> Option<ChainArtifact> {
        let art = self.0.store.cached_chain(fingerprint);
        self.count("chain", art.is_some());
        art
    }
}

impl FuncRewriteCache for FuncStore<'_> {
    fn fetch_rewritten(&self, fingerprint: &[u8]) -> Option<FuncRewriteOutcome> {
        let out = self.0.store.cached_rewritten_func(fingerprint);
        self.count("rewritten", out.is_some());
        out
    }

    fn store_rewritten(&self, fingerprint: &[u8], outcome: &FuncRewriteOutcome) {
        self.0.store.store_rewritten_func(fingerprint, outcome)
    }
}

impl ValidationCache for FuncStore<'_> {
    fn fetch_verdict(&self, key: &[u8]) -> Option<Option<parallax_gadgets::Gadget>> {
        let out = self.0.store.cached_verdict(key);
        self.count("verdict", out.is_some());
        out
    }

    fn store_verdict(&self, key: &[u8], verdict: &Option<parallax_gadgets::Gadget>) {
        self.0.store.store_verdict(key, verdict)
    }
}

/// Pre-resolved per-verification-function context for pass-2 chain
/// compilation (symbol lookups are fallible and happen before fan-out).
struct GenCtx<'a> {
    name: &'a String,
    func: &'a Function,
    frame: u32,
    base: u32,
    words: usize,
}

/// The pass-invariant part of a chain-compilation fingerprint: the
/// gadget arena, the full symbol table (sorted — chains may embed the
/// address of any symbol), the scratch address, and the guard list.
/// Computed once per fixpoint pass; fingerprints between the two
/// passes differ exactly when the layout differs.
fn chain_ctx_material(map: &GadgetMap, img: &LinkedImage, scratch: u32, guards: &[u32]) -> Vec<u8> {
    let mut out = serialize_gadgets(map.gadgets());
    let mut syms: Vec<(&str, u32, u32)> = img
        .symbols
        .iter()
        .map(|s| (s.name.as_str(), s.vaddr, s.size))
        .collect();
    syms.sort_unstable();
    for (name, vaddr, size) in syms {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&vaddr.to_le_bytes());
        out.extend_from_slice(&size.to_le_bytes());
    }
    out.extend_from_slice(&scratch.to_le_bytes());
    out.extend_from_slice(&(guards.len() as u32).to_le_bytes());
    for g in guards {
        out.extend_from_slice(&g.to_le_bytes());
    }
    out
}

/// Full cache key material for one `(function, variant)` chain
/// compilation: the pass context plus the verification function's IR,
/// its frame address, and the exact selection policy (mode, seed,
/// preference ranges). Everything `compile_chain_traced` reads is
/// pinned, so equal fingerprints imply identical compiled chains.
fn chain_fingerprint(ctx: &[u8], func: &Function, frame: u32, policy: &Policy) -> Vec<u8> {
    let mut out = Vec::with_capacity(ctx.len() + 256);
    out.extend_from_slice(ctx);
    out.extend_from_slice(&frame.to_le_bytes());
    out.extend_from_slice(format!("{func:?}").as_bytes());
    out.push(0);
    out.extend_from_slice(format!("{policy:?}").as_bytes());
    out
}

/// Compiles (or fetches from the per-function cache) one pass-2 chain
/// variant and serializes it against the final layout. Runs on pool
/// worker threads; must stay a pure function of its arguments.
#[allow(clippy::too_many_arguments)]
fn compile_variant(
    gctx: &GenCtx<'_>,
    i: usize,
    v: usize,
    cfg: &ProtectConfig,
    map: &GadgetMap,
    img: &LinkedImage,
    scratch: u32,
    ranges: &[(u32, u32)],
    guards: &[u32],
    ctx_material: Option<&[u8]>,
    ctx: &Ctx<'_>,
) -> Result<ChainArtifact, ProtectError> {
    let policy = policy_for(cfg, ranges, i as u64, v as u64);
    let fp = ctx_material.map(|c| chain_fingerprint(c, gctx.func, gctx.frame, &policy));
    if let Some(art) = fp.as_ref().and_then(|fp| FuncStore(ctx).cached_chain(fp)) {
        if !art.bytes.is_empty() {
            if art.words != gctx.words {
                return Err(ProtectError::new(
                    Stage::Map,
                    ErrorKind::UnstableChain(gctx.name.clone()),
                ));
            }
            return Ok(art);
        }
    }
    let compiled = compile_chain_traced(
        gctx.func, map, img, gctx.frame, scratch, policy, guards, ctx.tracer,
    )
    .map_err(|e| ProtectError::chain_for(gctx.name, e))?;
    if compiled.chain.len() != gctx.words {
        return Err(ProtectError::new(
            Stage::Map,
            ErrorKind::UnstableChain(gctx.name.clone()),
        ));
    }
    let bytes = compiled
        .chain
        .serialize(gctx.base)
        .map_err(|e| ProtectError::chain_for(gctx.name, ChainError::from(e)))?;
    let art = ChainArtifact {
        words: compiled.chain.len(),
        ops: compiled.ops,
        used_gadgets: compiled.used_gadgets,
        bytes,
    };
    if let Some(fp) = &fp {
        ctx.store.store_chain(fp, &art);
    }
    Ok(art)
}

/// An in-flight pipeline stage block: a `stage` span on the tracer
/// while it runs, one stage-log entry when it drops — including on
/// early (`?`) exits, so every span is closed.
struct StageBlock<'r> {
    log: &'r RefCell<Vec<(Stage, Duration)>>,
    stage: Stage,
    t0: Instant,
    _span: Option<SpanGuard<'r>>,
}

impl Drop for StageBlock<'_> {
    fn drop(&mut self) {
        self.log.borrow_mut().push((self.stage, self.t0.elapsed()));
    }
}

impl Run<'_> {
    fn stage(&self, stage: Stage) -> StageBlock<'_> {
        let span = self.ctx.tracer.map(|t| t.span(&stage.to_string(), "stage"));
        StageBlock {
            log: &self.log,
            stage,
            t0: Instant::now(),
            _span: span,
        }
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
/// same program protected under different seeds) share one scan.
fn scan_gadgets(img: &LinkedImage, run: &Run<'_>, jobs: usize) -> Result<GadgetMap, ProtectError> {
    let ctx = &run.ctx;
    let block = run.stage(Stage::GadgetScan);
    let gadgets = if ctx.faults.empties_gadget_scan() {
        Vec::new()
    } else {
        match ctx.store.cached_scan(img) {
            Some(cached) if !cached.is_empty() => cached,
            _ => {
                // Whole-image scan missed (e.g. one function edited):
                // fall back to the store's per-candidate verdict memo so
                // only candidates whose bytes changed are revalidated.
                let vcache = FuncStore(ctx);
                let vc = ctx
                    .store
                    .has_func_cache()
                    .then_some(&vcache as &dyn ValidationCache);
                let (fresh, stats, vstats) =
                    parallax_gadgets::find_gadgets_instrumented(img, jobs, vc);
                if let Some(t) = ctx.tracer {
                    // Cache hits never report: no decoding happened.
                    t.count("scan.decode.offsets", stats.offsets);
                    t.count("scan.decode.once", stats.decoded);
                    t.count("scan.decode.memo_hit", stats.memo_hits);
                    // Per-chunk probe-VM construction is pure setup
                    // cost that fan-out multiplies — attribute it so
                    // `plx profile` can rank it against real work.
                    t.count("vm.probe.builds", vstats.probe_builds);
                    t.count("vm.probe.build_ns", vstats.probe_build_ns);
                    // Shared-trial validation work: probe executions
                    // actually performed, the per-(effect, trial) runs
                    // avoided, and scratch words written — the rows
                    // `plx report` prints under "gadget validation".
                    t.count("vm.probe.proposals", vstats.probe.proposals);
                    t.count("vm.probe.runs", vstats.probe.runs);
                    t.count("vm.probe.runs_saved", vstats.probe.runs_saved);
                    t.count("vm.probe.reseed_words", vstats.probe.reseed_words);
                    t.count("pool.scan.merge_ns", vstats.merge_ns);
                    if vstats.pool.workers > 0 {
                        vstats.pool.export_to(t, "scan");
                    }
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
    Ok(GadgetMap::new(gadgets))
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

fn cfg_variants(mode: &ChainMode) -> usize {
    match mode {
        ChainMode::Probabilistic { variants: 0, .. } => DEFAULT_VARIANTS,
        ChainMode::Probabilistic { variants, .. } => (*variants).max(2),
        _ => 1,
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
