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
pub use scan::{
    scan, scan_with_stats, Candidate, CandidateRef, DecodeTable, ScanStats, Span, Spans,
    MAX_GADGET_BYTES, MAX_GADGET_INSNS,
};
pub use serialize::{deserialize_gadgets, serialize_gadgets};
pub use types::{Effect, GBinOp, Gadget, GadgetRecord};
pub use validate::{validate, validate_with, ProbeStats, ProbeVm};

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use parallax_image::LinkedImage;
use scan::Content;

/// Runs the full pipeline over an image's text section: scan, classify,
/// and concretely validate. Returns only usable gadgets.
pub fn find_gadgets(img: &LinkedImage) -> Vec<Gadget> {
    find_gadgets_instrumented(img, 1, None).0
}

/// Whether the image's text, and its data, BSS and heap, end below
/// the VM stack region. Layout-independent probes touch only the stack
/// region and the unmapped space above it (DESIGN.md §17), so their
/// verdicts hold across relinks only while no image byte sits there.
/// Every image the toolchain links fits with tens of MiB to spare; one
/// that does not neither leaves nor takes pass-memo verdicts.
fn below_stack(img: &LinkedImage) -> bool {
    use parallax_vm::{HEAP_SIZE, STACK_SIZE, STACK_TOP};
    let end = |base: u32, len: u64| u64::from(base) + len;
    let data_len = img.data.len() as u64 + u64::from(img.bss_size) + u64::from(HEAP_SIZE);
    let bottom = u64::from(STACK_TOP - STACK_SIZE);
    end(img.text_base, img.text.len() as u64) <= bottom && end(img.data_base, data_len) <= bottom
}

/// What one gadget pass leaves for a rescan of the same image relinked
/// with other data sizes (the second pass of `protect()`'s fixpoint):
/// the text it scanned, that text's decode table, the contents that do
/// not classify, and the probe verdicts of its
/// [layout-independent](Proposal::layout_independent) proposals, both
/// keyed by content. A pass given the memo decodes again only the slots
/// whose own bytes changed and serves those verdicts wherever their
/// bytes now sit, sharing their records; it neither assembles nor
/// classifies nor probes the contents it has a verdict for.
pub struct PassMemo {
    text_base: u32,
    text: Vec<u8>,
    slots: scan::Slots,
    /// [`Verdict::Unclassified`] or [`Verdict::Inherited`] per content.
    verdicts: HashMap<Content, Verdict>,
}

impl PassMemo {
    /// The memo of a pass over `img`: its table's `slots` and, when the
    /// image fits below the stack, its unclassified contents and its
    /// contents' layout-independent verdicts, inherited ones included.
    /// Classification reads only a content's bytes, so it holds at any
    /// vaddr.
    fn new(img: &LinkedImage, slots: scan::Slots, verdicts: Vec<(Content, Verdict)>) -> PassMemo {
        let fits = below_stack(img);
        let verdicts = verdicts
            .into_iter()
            .filter(|_| fits)
            .filter_map(|(content, verdict)| match verdict {
                Verdict::Probed {
                    record,
                    independent: true,
                } => Some((content, Verdict::Inherited(record))),
                Verdict::Inherited(_) | Verdict::Unclassified => Some((content, verdict)),
                _ => None,
            })
            .collect();
        PassMemo {
            text_base: img.text_base,
            text: img.text.clone(),
            slots,
            verdicts,
        }
    }
}

/// Telemetry from the classify/validate fan-out of one
/// [`find_gadgets_instrumented`] run — the attribution `plx profile`
/// uses to explain where a flat parallel speedup went.
#[derive(Debug, Clone, Default)]
pub struct ValidateStats {
    /// Probe VMs constructed: one per worker that validated anything.
    pub probe_builds: u64,
    /// Total nanoseconds spent constructing probe VMs — per-worker
    /// setup cost that parallelism multiplies instead of amortizing.
    pub probe_build_ns: u64,
    /// Nanoseconds spent handing each content's verdict to its copies
    /// in scan order (serial, on the caller's thread).
    pub merge_ns: u64,
    /// Scheduling statistics of the validation pool run.
    pub pool: parallax_pool::PoolStats,
    /// Probe-work counters summed over every worker's [`ProbeVm`]
    /// (proposals, probe runs, runs the shared-trial path avoided,
    /// scratch words reseeded).
    pub probe: ProbeStats,
    /// Candidates served from the previous pass's [`PassMemo`] instead
    /// of the probe.
    pub reused: u64,
    /// Candidates served by the verdict of their content's
    /// representative, an earlier candidate of this pass, with no probe
    /// run.
    pub shared: u64,
}

/// [`find_gadgets`] with the scanner's [`ScanStats`] (exported as
/// `scan.decode.*` counters) and [`ValidateStats`]: probe-VM
/// construction time (`vm.probe.build_ns` in traces), the serial merge
/// cost, and the validation pool's scheduling counters. It is
/// [`find_gadgets_reusing`] without building the memo it would return.
pub fn find_gadgets_instrumented(
    img: &LinkedImage,
    jobs: usize,
    prev: Option<PassMemo>,
) -> (Vec<Gadget>, ScanStats, ValidateStats) {
    let (gadgets, stats, vstats, ()) = gadget_pass(img, jobs, prev, |_, _| ());
    (gadgets, stats, vstats)
}

/// What a content's representative found, for every copy.
enum Verdict {
    /// The content does not classify, in this pass or, through the
    /// memo, in the previous one.
    Unclassified,
    /// Probed in this pass; `independent` when the proposal is
    /// layout-independent, so the verdict also holds in a later pass.
    Probed {
        record: Option<Arc<GadgetRecord>>,
        independent: bool,
    },
    /// A probed verdict served from the previous pass's memo.
    Inherited(Option<Arc<GadgetRecord>>),
    /// The probe left the candidate's bytes, so its verdict depends on
    /// the text it reached: every copy probed on its own, and these are
    /// their gadgets in scan order.
    Strayed(std::vec::IntoIter<Option<Gadget>>),
}

/// Runs the full pipeline, reusing `prev` — the [`PassMemo`] of an
/// earlier pass over the same text base and length — and returns this
/// pass's memo. The gadget list is the one a fresh
/// [`find_gadgets_instrumented`] would return; a `prev` for another
/// text base or length is ignored.
///
/// A verdict is a pure function of the candidate's content: the probe
/// VM rolls back to a pristine snapshot before each proposal and seeds
/// its PRNG from the candidate's bytes. So the scan groups the
/// candidates by content, in scan order, and only the first candidate
/// of each content, its representative, is assembled, classified and
/// probed; contents the memo holds a verdict for, that they do not
/// classify included, are not even assembled. The representatives fan
/// out in fixed-size chunks over `jobs` workers, each with its own
/// [`ProbeVm`]. Then every candidate, in scan order, takes its content's
/// verdict with its own vaddr, pointing at the same [`GadgetRecord`],
/// unless the representative's probe strayed: then each copy was probed
/// on its own. Any job count returns the exact sequential gadget order
/// and the same counters.
pub fn find_gadgets_reusing(
    img: &LinkedImage,
    jobs: usize,
    prev: Option<PassMemo>,
) -> (Vec<Gadget>, ScanStats, ValidateStats, PassMemo) {
    gadget_pass(img, jobs, prev, |slots, verdicts| {
        PassMemo::new(img, slots, verdicts)
    })
}

/// One gadget pass over `img`, handing its decode table's slots and its
/// contents' verdicts to `memo` once the gadget list is built.
fn gadget_pass<M>(
    img: &LinkedImage,
    jobs: usize,
    prev: Option<PassMemo>,
    memo: impl FnOnce(scan::Slots, Vec<(Content, Verdict)>) -> M,
) -> (Vec<Gadget>, ScanStats, ValidateStats, M) {
    use std::sync::atomic::{AtomicU64, Ordering};
    let fits = below_stack(img);
    let prev = prev.filter(|m| m.text_base == img.text_base && m.text.len() == img.text.len());
    let (old_text, old_slots, mut old_verdicts) = match prev {
        Some(m) => (m.text, Some(m.slots), m.verdicts),
        None => (Vec::new(), None, HashMap::new()),
    };
    let table = DecodeTable::reusing(&img.text, old_slots.map(|s| (&old_text[..], s)));
    drop(old_text);
    let spans = table.spans();
    let contents: Vec<Content> = spans
        .reps
        .iter()
        .map(|&rep| Content::of(&img.text, rep))
        .collect();
    // The previous pass's verdicts serve their contents as they are;
    // the other representatives are assembled, decoding their paths.
    let mut verdicts: Vec<Option<Verdict>> = contents
        .iter()
        .map(|c| old_verdicts.remove(c).filter(|_| fits))
        .collect();
    drop(old_verdicts);
    let todo: Vec<(usize, CandidateRef)> = (0..contents.len())
        .filter(|&k| verdicts[k].is_none())
        .map(|k| (k, table.assemble(img.text_base, spans.reps[k])))
        .collect();
    let stats = table.stats();
    let probe_builds = AtomicU64::new(0);
    let probe_build_ns = AtomicU64::new(0);
    let probe_stats = Mutex::new(ProbeStats::default());
    // One ProbeVm per *worker*, not per chunk: workers amortize one
    // build over every chunk they execute and reset the VM from a
    // pristine snapshot between proposals. The reset makes each
    // verdict a pure function of the proposal, so any job count agrees
    // byte-for-byte.
    let build_probe = || {
        let t0 = std::time::Instant::now();
        let probe = ProbeVm::new(img);
        probe_builds.fetch_add(1, Ordering::Relaxed);
        probe_build_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        probe
    };
    let decide = |probe: &mut ProbeVm, k: usize, rep: CandidateRef| {
        let Some(p) = classify(rep) else {
            return Verdict::Unclassified;
        };
        let g = probe.validate(&p);
        if !probe.strayed() {
            return Verdict::Probed {
                record: g.map(|g| g.record),
                independent: p.layout_independent(),
            };
        }
        // Every copy holds the representative's instructions.
        let mut own = vec![g];
        for copy in spans.all.iter().filter(|s| s.content as usize == k).skip(1) {
            let p = classify(rep.at(img.text_base + copy.start))
                .expect("a copy of a classified content classifies");
            own.push(probe.validate(&p));
        }
        Verdict::Strayed(own.into_iter())
    };
    let validate_chunk = |probe: &mut ProbeVm, chunk: &[(usize, CandidateRef)]| {
        let out: Vec<(usize, Verdict)> = chunk
            .iter()
            .map(|&(k, rep)| (k, decide(probe, k, rep)))
            .collect();
        // Drain this chunk's probe counters into the shared total (a
        // handful of lock acquisitions per scan — uncontended).
        probe_stats.lock().unwrap().merge(&probe.take_stats());
        out
    };
    // Fixed-size chunks of representatives, and MIN_PER_WORKER per
    // worker at minimum: building each worker's probe VM needs that
    // much validation work to pay off.
    const CHUNK: usize = 8;
    const MIN_PER_WORKER: usize = 16;
    let chunks: Vec<&[(usize, CandidateRef)]> = todo.chunks(CHUNK).collect();
    let (parts, pool) = parallax_pool::scoped_map_init(
        parallax_pool::effective_workers_for(jobs, todo.len(), MIN_PER_WORKER),
        chunks.len(),
        |_w| build_probe(),
        |probe, i, _w| validate_chunk(probe, chunks[i]),
    );
    drop(chunks);
    drop(todo);
    for (k, verdict) in parts.into_iter().flatten() {
        verdicts[k] = Some(verdict);
    }
    let mut verdicts: Vec<Verdict> = verdicts
        .into_iter()
        .map(|v| v.expect("the pool decided every content the memo did not serve"))
        .collect();
    // Every candidate, in scan order, takes its content's verdict.
    let t0 = std::time::Instant::now();
    let mut gadgets = Vec::new();
    let (mut reused, mut shared) = (0, 0);
    for span in &spans.all {
        let k = span.content as usize;
        let record = match &mut verdicts[k] {
            Verdict::Unclassified => continue,
            Verdict::Probed { record, .. } => {
                shared += u64::from(*span != spans.reps[k]);
                record
            }
            Verdict::Inherited(record) => {
                reused += 1;
                record
            }
            Verdict::Strayed(own) => {
                gadgets.extend(own.next().flatten());
                continue;
            }
        };
        gadgets.extend(record.as_ref().map(|r| Gadget {
            vaddr: img.text_base + span.start,
            record: Arc::clone(r),
        }));
    }
    let vstats = ValidateStats {
        probe_builds: probe_builds.into_inner(),
        probe_build_ns: probe_build_ns.into_inner(),
        merge_ns: t0.elapsed().as_nanos() as u64,
        pool,
        probe: probe_stats.into_inner().unwrap(),
        reused,
        shared,
    };
    let memo = memo(
        table.into_slots(),
        contents.into_iter().zip(verdicts).collect(),
    );
    (gadgets, stats, vstats, memo)
}

/// Like [`find_gadgets`], but returns the typed mapping directly.
pub fn build_map(img: &LinkedImage) -> GadgetMap {
    GadgetMap::new(find_gadgets(img))
}
