//! Binary rewriting rules for crafting overlapping gadgets (paper §IV-B).
//!
//! The [`protect_program_parallel`] entry point applies, per target function:
//!
//! 1. the **modified-immediates** rule ([`imm`]) — immediates of
//!    `mov`/`add`/`sub` are rewritten to contain gadget bytes, with a
//!    compensating instruction inserted after;
//! 2. the **intra-function jump-offset** rule ([`jump`]) — forward
//!    rel32 branches are padded so their offset's low byte is `0xc3`;
//! 3. the **callee-alignment** rule ([`jump`]) — functions are moved so
//!    `call` offsets end in `0xc3`, as the paper does for
//!    `cleanup_and_exit`;
//! 4. optionally the **standard gadget set** ([`spurious`]) is
//!    appended, guaranteeing the chain compiler a complete type set.
//!
//! Existing and far-return gadgets (§IV-B1/B5) need no rewriting; they
//! are discovered by `parallax-gadgets` and measured by [`coverage`].

#![warn(missing_docs)]

pub mod coverage;
pub mod engine;
pub mod imm;
pub mod jump;
pub mod spurious;

pub use coverage::{analyze, Coverage};
pub use engine::{FuncRewriter, Item, Link, RewriteError};
pub use imm::{
    apply_completion_rule, apply_imm_rule, apply_imm_rule_far, default_bodies, find_imm_sites,
    GadgetBody, ImmRewrite, ImmSite,
};
pub use jump::{
    align_callees, align_data, align_internal_branches, count_planted_data_rets,
    count_planted_rets, JumpRewrite,
};
pub use spurious::{insert_dead_block, jmp_over_block, standard_set, STDSET_NAME};

use parallax_image::program::FuncItem;
use parallax_image::Program;
use parallax_trace::Tracer;
use parallax_x86::RelocKind;

/// Configuration for [`protect_program_parallel`].
#[derive(Debug, Clone)]
pub struct RewriteConfig {
    /// Apply the modified-immediates rule.
    pub imm_rule: bool,
    /// Also use the completion placement (leading `ret` byte) on every
    /// third site, mirroring the paper's mixed usage.
    pub imm_completion: bool,
    /// Use the completion placement at *every* site. The leading `ret`
    /// occupies the immediate's low byte, so value-forcing patches
    /// (e.g. cracking a return value from 0 to 1) necessarily destroy
    /// the gadget — closing the §VIII condition-(3) escape for
    /// value-critical immediates.
    pub imm_completion_always: bool,
    /// Apply callee alignment for cross-function calls.
    pub jump_rule: bool,
    /// Apply NOP padding for intra-function branches.
    pub internal_jump_rule: bool,
    /// Append the standard (non-overlapping) gadget set.
    pub stdset: bool,
    /// Maximum padding inserted before a callee.
    pub max_callee_pad: u32,
    /// Maximum NOPs inserted for one internal branch.
    pub max_internal_nops: usize,
    /// Cap on immediate sites rewritten per function.
    pub max_imm_sites_per_func: usize,
    /// Functions excluded from the *immediate* rule (its compensators
    /// execute inline, so hot functions are usually exempted —
    /// profile-guided placement; the overlap-only rules still apply).
    pub imm_exclude: Vec<String>,
    /// Starting offset into [`default_bodies`] for the immediate rule.
    /// Rotating the start point yields an alternate assignment of
    /// gadget bodies to immediate sites — the degradation ladder in
    /// `parallax-core` retries with different rotations when a needed
    /// gadget type fails to materialize.
    pub body_rotation: usize,
}

impl Default for RewriteConfig {
    fn default() -> RewriteConfig {
        RewriteConfig {
            imm_rule: true,
            imm_completion: true,
            imm_completion_always: false,
            jump_rule: true,
            internal_jump_rule: true,
            stdset: true,
            max_callee_pad: 255,
            max_internal_nops: 48,
            max_imm_sites_per_func: usize::MAX,
            imm_exclude: Vec::new(),
            body_rotation: 0,
        }
    }
}

/// What [`protect_program_parallel`] did.
#[derive(Debug, Clone, Default)]
pub struct RewriteReport {
    /// Immediate-rule rewrites, per function.
    pub imm_rewrites: Vec<(String, ImmRewrite)>,
    /// Jump-rule alignments (both mechanisms).
    pub jump_rewrites: Vec<JumpRewrite>,
    /// Whether the standard set was appended.
    pub stdset_added: bool,
}

impl RewriteReport {
    /// Total number of crafted gadget sites.
    pub fn crafted_count(&self) -> usize {
        self.imm_rewrites.len() + self.jump_rewrites.len()
    }
}

/// Pass-1 result for one function: the rewritten body plus what was
/// done to it. Self-contained so it can be produced on any worker
/// thread and merged deterministically, or round-tripped through a
/// content-addressed artifact cache.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncRewriteOutcome {
    /// The rewritten function (bytes, relocs, markers; `name` and
    /// `pad_before` copied from the input).
    pub item: FuncItem,
    /// Immediate-rule rewrites applied, in site order.
    pub imm: Vec<ImmRewrite>,
    /// Internal-branch alignments applied.
    pub jumps: Vec<JumpRewrite>,
}

/// A per-function artifact cache for pass 1. Implementations are keyed
/// by the opaque fingerprint from [`func_fingerprint`]; a fetch must
/// only return an outcome previously stored under the same fingerprint.
pub trait FuncRewriteCache: Sync {
    /// Looks up a previously stored outcome.
    fn fetch_rewritten(&self, fingerprint: &[u8]) -> Option<FuncRewriteOutcome>;
    /// Stores an outcome under `fingerprint`.
    fn store_rewritten(&self, fingerprint: &[u8], outcome: &FuncRewriteOutcome);
}

fn fnv1a32(s: &str) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for b in s.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Canonical cache key material for one function under one rewrite
/// config: every input [`rewrite_function`] reads, serialized in a
/// deterministic order (markers sorted — `HashMap` iteration order must
/// not leak into the key).
pub fn func_fingerprint(func: &FuncItem, cfg: &RewriteConfig) -> Vec<u8> {
    fn push_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    let mut out = Vec::with_capacity(func.bytes.len() + 256);
    push_str(&mut out, &func.name);
    out.extend_from_slice(&(func.bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&func.bytes);
    out.extend_from_slice(&(func.relocs.len() as u32).to_le_bytes());
    for r in &func.relocs {
        out.extend_from_slice(&(r.offset as u32).to_le_bytes());
        push_str(&mut out, &r.symbol);
        out.push(match r.kind {
            RelocKind::Rel32 => 0,
            RelocKind::Abs32 => 1,
        });
        out.extend_from_slice(&r.addend.to_le_bytes());
    }
    let mut markers: Vec<(&String, &usize)> = func.markers.iter().collect();
    markers.sort();
    out.extend_from_slice(&(markers.len() as u32).to_le_bytes());
    for (k, v) in markers {
        push_str(&mut out, k);
        out.extend_from_slice(&(*v as u32).to_le_bytes());
    }
    out.extend_from_slice(&func.pad_before.to_le_bytes());
    push_str(&mut out, &format!("{cfg:?}"));
    out
}

/// Applies pass 1 (the immediate rule plus intra-function branch
/// alignment) to a single function, independently of every other
/// function.
///
/// The gadget-body stream for the immediate rule is seeded from the
/// *function name* (`body_rotation + fnv1a32(name)`), not from a
/// cursor shared across functions: each function's body assignment is
/// then a pure function of (function, config), which is what makes
/// parallel rewriting bit-identical to sequential and per-function
/// cache artifacts sound.
pub fn rewrite_function(
    func: &FuncItem,
    cfg: &RewriteConfig,
    bodies: &[GadgetBody],
) -> Result<FuncRewriteOutcome, RewriteError> {
    let mut rw = FuncRewriter::lift(func)?;
    let mut imm = Vec::new();
    let mut jumps = Vec::new();

    if cfg.imm_rule && !cfg.imm_exclude.contains(&func.name) {
        // Apply in descending item order so insertions do not
        // invalidate later site indices.
        let mut sites = find_imm_sites(&rw);
        sites.sort_by_key(|s| std::cmp::Reverse(s.idx));
        let mut cursor = cfg.body_rotation.wrapping_add(fnv1a32(&func.name) as usize);
        for (n, site) in sites.iter().enumerate() {
            if n >= cfg.max_imm_sites_per_func {
                break;
            }
            let body = &bodies[cursor % bodies.len()];
            let use_completion = cfg.imm_completion_always || (cfg.imm_completion && n % 3 == 2);
            let applied = if use_completion && site.imm_width == 4 {
                apply_completion_rule(&mut rw, site, Some(body))
            } else if n % 7 == 5 && site.imm_width == 4 {
                // Sprinkle far-return gadgets in (§IV-B5).
                apply_imm_rule_far(&mut rw, site, body)
            } else {
                apply_imm_rule(&mut rw, site, body)
            };
            if let Some(rewrite) = applied {
                cursor += 1;
                imm.push(rewrite);
            }
        }
    }

    if cfg.internal_jump_rule {
        jumps.extend(align_internal_branches(&mut rw, cfg.max_internal_nops)?);
    }

    let (item, _) = rw.finish(func.pad_before)?;
    Ok(FuncRewriteOutcome { item, imm, jumps })
}

fn rewrite_function_cached(
    func: &FuncItem,
    cfg: &RewriteConfig,
    bodies: &[GadgetBody],
    cache: Option<&dyn FuncRewriteCache>,
) -> Result<FuncRewriteOutcome, RewriteError> {
    let Some(cache) = cache else {
        return rewrite_function(func, cfg, bodies);
    };
    let fp = func_fingerprint(func, cfg);
    if let Some(hit) = cache.fetch_rewritten(&fp) {
        return Ok(hit);
    }
    let out = rewrite_function(func, cfg, bodies)?;
    cache.store_rewritten(&fp, &out);
    Ok(out)
}

/// Applies the rewriting rules to `targets` within `prog`, with pass 1
/// fanned out over `jobs` worker threads and (optionally) backed by a
/// per-function artifact cache.
///
/// The gadget bodies embedded by the immediate rule rotate through
/// [`default_bodies`], so repeated application spreads every gadget
/// type the chain compiler consumes across the protected code. With a
/// tracer, each rewriting pass (`imm`, `jump`, `spurious`) is one span
/// and the site counts are counters, so a trace shows where rewrite
/// wall-time goes.
///
/// Because [`rewrite_function`] is a pure function of (function,
/// config), results are merged back **in target order** and the output
/// program is bit-identical whatever `jobs` is. Passes 2 (cross-
/// function alignment) and 3 (standard set) are inherently global and
/// stay sequential. `jobs == 0` means one worker per core.
pub fn protect_program_parallel(
    prog: &mut Program,
    targets: &[String],
    cfg: &RewriteConfig,
    jobs: usize,
    cache: Option<&dyn FuncRewriteCache>,
    trace: Option<&Tracer>,
) -> Result<RewriteReport, RewriteError> {
    let mut report = RewriteReport::default();
    let bodies = default_bodies();

    // Pass 1: per-function body rewriting — the immediate rule plus
    // intra-function branch alignment (both operate on the lifted
    // item list, so they share one lift/finish per function).
    let imm_span = trace.map(|t| t.span("imm", "rewrite"));
    let inputs: Vec<&FuncItem> = targets.iter().filter_map(|name| prog.func(name)).collect();
    let names: Vec<String> = inputs.iter().map(|f| f.name.clone()).collect();
    // Two functions per worker at minimum: a fan-out that hands each
    // worker a single body pays thread spawns without amortizing them.
    let (results, stats) = parallax_pool::scoped_map(
        parallax_pool::effective_workers_for(jobs, inputs.len(), 2),
        inputs.len(),
        |i, _w| rewrite_function_cached(inputs[i], cfg, &bodies, cache),
    );
    drop(inputs);
    // Surface the first error in *item order*, so failures are as
    // deterministic as successes.
    let outcomes = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    for (name, out) in names.iter().zip(outcomes) {
        for rewrite in out.imm {
            report.imm_rewrites.push((name.clone(), rewrite));
        }
        report.jump_rewrites.extend(out.jumps);
        if let Some(slot) = prog.func_mut(name) {
            slot.bytes = out.item.bytes;
            slot.relocs = out.item.relocs;
            slot.markers = out.item.markers;
        }
    }
    drop(imm_span);
    if let Some(t) = trace {
        stats.export_to(t, "rewrite");
    }

    // Pass 2: cross-function alignment (callees and data objects).
    let jump_span = trace.map(|t| t.span("jump", "rewrite"));
    if cfg.jump_rule {
        let rewrites = align_callees(prog, targets, cfg.max_callee_pad);
        report.jump_rewrites.extend(rewrites);
        let rewrites = align_data(prog, targets, cfg.max_callee_pad);
        report.jump_rewrites.extend(rewrites);
    }
    drop(jump_span);

    // Pass 3: the appended (spurious) standard gadget set.
    let spurious_span = trace.map(|t| t.span("spurious", "rewrite"));
    if cfg.stdset && prog.func(STDSET_NAME).is_none() {
        prog.add_func(STDSET_NAME, standard_set());
        report.stdset_added = true;
    }
    drop(spurious_span);

    if let Some(t) = trace {
        t.count("rewrite.imm.sites", report.imm_rewrites.len() as u64);
        t.count("rewrite.jump.sites", report.jump_rewrites.len() as u64);
        if report.stdset_added {
            t.count("rewrite.stdset.added", 1);
        }
    }
    Ok(report)
}
