//! ROP gadget discovery and semantic classification for Parallax.
//!
//! The pipeline has three stages:
//!
//! 1. [`mod@scan`] — find every return-terminated instruction sequence in
//!    the text section, at aligned and unaligned offsets (≤ 6
//!    instructions, per the paper's §VII-A);
//! 2. [`mod@classify`] — abstract interpretation proposing typed effects
//!    (the paper's gadget types, extended with operand registers as
//!    §V-B requires);
//! 3. [`mod@validate`] — concrete differential execution in a probe VM
//!    confirming each proposed effect before the gadget enters the
//!    [`GadgetMap`] used by the verification-code compiler.

//! ```
//! use parallax_image::Program;
//! use parallax_x86::{Asm, Reg32};
//! use parallax_gadgets::{build_map, TypeKey};
//!
//! let mut p = Program::new();
//! let mut a = Asm::new();
//! a.mov_ri(Reg32::Eax, 1);
//! a.int(0x80);
//! a.pop_r(Reg32::Ecx);   // pop ecx; ret — a LoadConst gadget
//! a.ret();
//! p.add_func("main", a.finish().unwrap());
//! p.set_entry("main");
//! let img = p.link().unwrap();
//!
//! let map = build_map(&img);
//! assert!(!map.lookup(TypeKey::LoadConst(Reg32::Ecx)).is_empty());
//! ```

#![warn(missing_docs)]

pub mod classify;
pub mod mapping;
pub mod scan;
pub mod serialize;
pub mod types;
pub mod validate;

pub use classify::{classify, Proposal};
pub use mapping::{GadgetMap, RangeSet, TypeKey};
pub use scan::{scan, scan_with_stats, Candidate, ScanStats, MAX_GADGET_BYTES, MAX_GADGET_INSNS};
pub use serialize::{deserialize_gadgets, serialize_gadgets};
pub use types::{Effect, GBinOp, Gadget};
pub use validate::{validate, validate_with, ProbeStats, ProbeVm};

use parallax_image::LinkedImage;

/// Runs the full pipeline over an image's text section: scan, classify,
/// and concretely validate. Returns only usable gadgets.
pub fn find_gadgets(img: &LinkedImage) -> Vec<Gadget> {
    find_gadgets_instrumented(img, 1, None).0
}

/// Cross-run memo for concrete validation verdicts, keyed by the exact
/// bytes that determine a verdict: the candidate's text bytes, vaddr,
/// return kind, symbolic proposal, and the probe environment's heap
/// base. Re-protecting an edited binary revalidates only candidates
/// whose underlying bytes (or layout) actually changed; everything
/// else — typically all but one function — is served from the memo.
pub trait ValidationCache: Sync {
    /// `Some(verdict)` when the key was validated before (the verdict
    /// itself may be `None`: "candidate rejected" is cached too).
    fn fetch_verdict(&self, key: &[u8]) -> Option<Option<Gadget>>;
    /// Records a computed verdict.
    fn store_verdict(&self, key: &[u8], verdict: &Option<Gadget>);
}

/// Everything [`validate_with`]'s outcome can depend on: the probe
/// executes the candidate's own text bytes starting at `vaddr` (which
/// also seeds its PRNG) against scratch regions derived from the heap
/// base, checking the proposal's effects.
fn verdict_key(
    img: &LinkedImage,
    heap_base: u32,
    cand: &Candidate,
    proposal: &Proposal,
) -> Vec<u8> {
    let off = (cand.vaddr - img.text_base) as usize;
    let bytes = &img.text[off..off + cand.len as usize];
    let mut key = Vec::with_capacity(bytes.len() + 64);
    key.extend_from_slice(&cand.vaddr.to_le_bytes());
    key.extend_from_slice(&heap_base.to_le_bytes());
    key.push(cand.far as u8);
    key.extend_from_slice(bytes);
    key.push(0);
    key.extend_from_slice(format!("{proposal:?}").as_bytes());
    key
}

/// Telemetry from the classify/validate fan-out of one
/// [`find_gadgets_instrumented`] run — the attribution `plx profile`
/// uses to explain where a flat parallel speedup went.
#[derive(Debug, Clone, Default)]
pub struct ValidateStats {
    /// Probe VMs constructed (one per chunk; one total when the run
    /// stayed inline).
    pub probe_builds: u64,
    /// Total nanoseconds spent constructing probe VMs — per-chunk
    /// setup cost that parallelism multiplies instead of amortizing.
    pub probe_build_ns: u64,
    /// Nanoseconds spent concatenating per-chunk gadget vectors back
    /// into sequential order (serial, on the caller's thread).
    pub merge_ns: u64,
    /// Scheduling statistics of the validation pool run. Defaulted
    /// (zero workers) when the run stayed inline.
    pub pool: parallax_pool::PoolStats,
    /// Probe-work counters summed over every worker's [`ProbeVm`]
    /// (proposals, probe runs, runs the shared-trial path avoided,
    /// scratch words reseeded).
    pub probe: ProbeStats,
}

/// [`find_gadgets`] with the scanner's [`ScanStats`] (exported as
/// `scan.decode.*` counters) and [`ValidateStats`]: probe-VM
/// construction time (`vm.probe.build_ns` in traces), the serial merge
/// cost, and the validation pool's scheduling counters.
///
/// The classify/validate pass fans over `jobs` workers. Concrete
/// validation dominates scanning cost (each proposal runs in a probe
/// VM), and each validation is a pure function of the proposal — every
/// worker's [`ProbeVm`] rolls back to a pristine snapshot before each
/// proposal, and the probe PRNG derives only from the candidate's
/// vaddr — so chunks of candidates validate independently on
/// per-worker probe VMs and concatenate into the exact sequential
/// gadget order. With a [`ValidationCache`], each classified
/// candidate's verdict is looked up there first and stored after.
pub fn find_gadgets_instrumented(
    img: &LinkedImage,
    jobs: usize,
    cache: Option<&dyn ValidationCache>,
) -> (Vec<Gadget>, ScanStats, ValidateStats) {
    use std::sync::atomic::{AtomicU64, Ordering};
    let (cands, stats) = scan_with_stats(&img.text, img.text_base);
    let probe_builds = AtomicU64::new(0);
    let probe_build_ns = AtomicU64::new(0);
    let probe_stats = std::sync::Mutex::new(ProbeStats::default());
    // One ProbeVm per *worker*, not per chunk: construction (zeroing
    // ~1.5 MiB of VM memory) measured as a top blocker, so workers
    // amortize one build over every chunk they execute and reset the
    // VM from a pristine snapshot between proposals. The reset makes
    // each verdict a pure function of the proposal, so the inline and
    // parallel paths — and any job count — agree byte-for-byte.
    let build_probe = || {
        let t0 = std::time::Instant::now();
        let probe = ProbeVm::new(img);
        probe_builds.fetch_add(1, Ordering::Relaxed);
        probe_build_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        probe
    };
    let validate_chunk = |probe: &mut ProbeVm, chunk: &[Candidate]| {
        let heap_base = probe.heap_base();
        let mut out = Vec::new();
        for cand in chunk {
            let Some(proposal) = classify(cand) else {
                continue;
            };
            let key = cache.map(|_| verdict_key(img, heap_base, cand, &proposal));
            if let (Some(c), Some(k)) = (cache, &key) {
                if let Some(verdict) = c.fetch_verdict(k) {
                    out.extend(verdict);
                    continue;
                }
            }
            let g = probe.validate(&proposal);
            if let (Some(c), Some(k)) = (cache, &key) {
                c.store_verdict(k, &g);
            }
            out.extend(g);
        }
        // Drain this chunk's probe counters into the shared total (a
        // handful of lock acquisitions per scan — uncontended).
        probe_stats.lock().unwrap().merge(&probe.take_stats());
        out
    };
    // 64 candidates per worker at minimum (the cost of building each
    // worker's probe VM needs that much validation work to pay off).
    let workers = parallax_pool::effective_workers_for(jobs, cands.len(), 64);
    if workers == 1 {
        let mut probe = build_probe();
        let gadgets = validate_chunk(&mut probe, &cands);
        let vstats = ValidateStats {
            probe_builds: probe_builds.into_inner(),
            probe_build_ns: probe_build_ns.into_inner(),
            merge_ns: 0,
            pool: parallax_pool::PoolStats::default(),
            probe: probe_stats.into_inner().unwrap(),
        };
        return (gadgets, stats, vstats);
    }
    // Adaptive granularity: ~CHUNKS_PER_WORKER chunks per worker so a
    // chunk dense in expensive proposals can be balanced by stealing,
    // with a floor that keeps scheduling from dominating tiny runs.
    let chunk = parallax_pool::adaptive_chunk_size(cands.len(), workers, 16);
    let chunks: Vec<&[Candidate]> = cands.chunks(chunk).collect();
    let workers = parallax_pool::effective_workers(workers, chunks.len());
    let (parts, pool) = parallax_pool::scoped_map_init(
        workers,
        chunks.len(),
        |_w| build_probe(),
        |probe, i, _w| validate_chunk(probe, chunks[i]),
    );
    let t0 = std::time::Instant::now();
    let gadgets: Vec<Gadget> = parts.into_iter().flatten().collect();
    let vstats = ValidateStats {
        probe_builds: probe_builds.into_inner(),
        probe_build_ns: probe_build_ns.into_inner(),
        merge_ns: t0.elapsed().as_nanos() as u64,
        pool,
        probe: probe_stats.into_inner().unwrap(),
    };
    (gadgets, stats, vstats)
}

/// Like [`find_gadgets`], but returns the typed mapping directly.
pub fn build_map(img: &LinkedImage) -> GadgetMap {
    GadgetMap::new(find_gadgets(img))
}
