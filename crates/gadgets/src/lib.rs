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
    scan, scan_with_stats, Candidate, CandidateRef, DecodeTable, ScanStats, MAX_GADGET_BYTES,
    MAX_GADGET_INSNS,
};
pub use serialize::{deserialize_gadgets, serialize_gadgets};
pub use types::{Effect, GBinOp, Gadget, GadgetRecord};
pub use validate::{validate, validate_with, ProbeStats, ProbeVm};

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use parallax_image::LinkedImage;

/// Runs the full pipeline over an image's text section: scan, classify,
/// and concretely validate. Returns only usable gadgets.
pub fn find_gadgets(img: &LinkedImage) -> Vec<Gadget> {
    find_gadgets_instrumented(img, 1, None).0
}

/// A candidate's content: its text bytes and return kind. Within one
/// pass, a probe that stays inside the candidate's bytes depends on
/// nothing else, so every copy of a content shares one verdict and one
/// [`GadgetRecord`] (DESIGN.md §18).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Content {
    far: bool,
    len: u8,
    bytes: [u8; MAX_GADGET_BYTES + 1],
}

impl Content {
    fn of(img: &LinkedImage, cand: &CandidateRef) -> Content {
        let off = (cand.vaddr - img.text_base) as usize;
        let src = &img.text[off..off + cand.len as usize];
        let mut bytes = [0; MAX_GADGET_BYTES + 1];
        bytes[..src.len()].copy_from_slice(src);
        Content {
            far: cand.far,
            len: src.len() as u8,
            bytes,
        }
    }
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
/// the text it scanned, that text's decode table, and the probe
/// verdicts of its [layout-independent](Proposal::layout_independent)
/// proposals keyed by content. A pass given the memo decodes again only
/// the slots whose own bytes changed and serves those verdicts wherever
/// their bytes now sit, sharing their records; it probes only contents
/// it has no verdict for.
pub struct PassMemo {
    text_base: u32,
    text: Vec<u8>,
    slots: scan::Slots,
    verdicts: HashMap<Content, Option<Arc<GadgetRecord>>>,
}

impl PassMemo {
    /// The memo of a pass over `img`: its table's `slots` and, when the
    /// image fits below the stack, its groups' layout-independent
    /// verdicts, inherited ones included.
    fn new(img: &LinkedImage, slots: scan::Slots, groups: Groups) -> PassMemo {
        let fits = below_stack(img);
        let verdicts = groups
            .into_iter()
            .filter(|_| fits)
            .filter_map(
                |(content, group)| match Arc::into_inner(group)?.into_inner()? {
                    Rep::Probed {
                        record,
                        independent: true,
                    }
                    | Rep::Inherited(record) => Some((content, record)),
                    _ => None,
                },
            )
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
    /// Nanoseconds spent concatenating per-chunk gadget vectors back
    /// into sequential order (serial, on the caller's thread).
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
    /// Candidates served by the verdict of an earlier candidate with
    /// the same content in this pass, with no probe run.
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

/// The verdict the first candidate of a content found, for the others.
enum Rep {
    /// The content does not classify.
    Unclassified,
    /// Probed in this pass; `independent` when the proposal is
    /// layout-independent, so the verdict also holds in a later pass.
    Probed {
        record: Option<Arc<GadgetRecord>>,
        independent: bool,
    },
    /// Served from the previous pass's memo.
    Inherited(Option<Arc<GadgetRecord>>),
    /// The probe left the candidate's bytes, so its verdict depends on
    /// the text it reached: every copy probes on its own.
    Strayed,
}

/// One verdict slot per content, filled by whichever candidate reaches
/// it first.
type Groups = HashMap<Content, Arc<OnceLock<Rep>>>;

/// One chunk's share of a validation pass.
#[derive(Default)]
struct ChunkOut {
    gadgets: Vec<Gadget>,
    reused: u64,
    shared: u64,
}

/// Runs the full pipeline, reusing `prev` — the [`PassMemo`] of an
/// earlier pass over the same text base and length — and returns this
/// pass's memo. The gadget list is the one a fresh
/// [`find_gadgets_instrumented`] would return; a `prev` for another
/// text base or length is ignored.
///
/// The classify/validate pass fans fixed-size chunks of candidates out
/// over `jobs` workers, each with its own [`ProbeVm`]. A verdict is a
/// pure function of the candidate's content: the probe VM rolls back to
/// a pristine snapshot before each proposal and seeds its PRNG from the
/// candidate's bytes. So the first candidate of each content is
/// classified and probed, and every later copy takes its verdict with
/// its own vaddr, pointing at the same [`GadgetRecord`], unless that
/// probe strayed. Any job count returns the exact sequential gadget
/// order.
pub fn find_gadgets_reusing(
    img: &LinkedImage,
    jobs: usize,
    prev: Option<PassMemo>,
) -> (Vec<Gadget>, ScanStats, ValidateStats, PassMemo) {
    gadget_pass(img, jobs, prev, |slots, groups| {
        PassMemo::new(img, slots, groups)
    })
}

/// One gadget pass over `img`, handing its decode table's slots and its
/// content groups to `memo` once the gadget list is built.
fn gadget_pass<M>(
    img: &LinkedImage,
    jobs: usize,
    prev: Option<PassMemo>,
    memo: impl FnOnce(scan::Slots, Groups) -> M,
) -> (Vec<Gadget>, ScanStats, ValidateStats, M) {
    use std::sync::atomic::{AtomicU64, Ordering};
    let fits = below_stack(img);
    let prev = prev.filter(|m| m.text_base == img.text_base && m.text.len() == img.text.len());
    let (old_text, old_slots, old_verdicts) = match prev {
        Some(m) => (m.text, Some(m.slots), m.verdicts),
        None => (Vec::new(), None, HashMap::new()),
    };
    let table = DecodeTable::reusing(&img.text, old_slots.map(|s| (&old_text[..], s)));
    drop(old_text);
    // Candidates borrow their instructions from the table's slots.
    let (cands, stats) = table.candidates(img.text_base);
    // The previous pass's verdicts start filled.
    let groups: Mutex<Groups> = Mutex::new(
        old_verdicts
            .into_iter()
            .filter(|_| fits)
            .map(|(content, record)| (content, Arc::new(OnceLock::from(Rep::Inherited(record)))))
            .collect(),
    );
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
    let validate_chunk = |probe: &mut ProbeVm, chunk: &[CandidateRef]| {
        let mut out = ChunkOut::default();
        for cand in chunk {
            let content = Content::of(img, cand);
            let group = Arc::clone(groups.lock().unwrap().entry(content).or_default());
            let mut own = None;
            let rep = group.get_or_init(|| {
                let Some(p) = classify(*cand) else {
                    return Rep::Unclassified;
                };
                let g = probe.validate(&p);
                let record = g.as_ref().map(|g| Arc::clone(&g.record));
                own = Some(g);
                if probe.strayed() {
                    return Rep::Strayed;
                }
                Rep::Probed {
                    record,
                    independent: p.layout_independent(),
                }
            });
            // A content's verdict as the gadget at this candidate's vaddr.
            let copy = |record: &Option<Arc<GadgetRecord>>| {
                record.as_ref().map(|r| Gadget {
                    vaddr: cand.vaddr,
                    record: Arc::clone(r),
                })
            };
            let g = match (own, rep) {
                (Some(g), _) => g,
                (None, Rep::Unclassified) => continue,
                (None, Rep::Probed { record, .. }) => {
                    out.shared += 1;
                    copy(record)
                }
                (None, Rep::Inherited(record)) => {
                    out.reused += 1;
                    copy(record)
                }
                (None, Rep::Strayed) => {
                    let p = classify(*cand).expect("a copy of a classified content classifies");
                    probe.validate(&p)
                }
            };
            out.gadgets.extend(g);
        }
        // Drain this chunk's probe counters into the shared total (a
        // handful of lock acquisitions per scan — uncontended).
        probe_stats.lock().unwrap().merge(&probe.take_stats());
        out
    };
    // Fixed-size chunks, and CHUNK candidates per worker at minimum:
    // building each worker's probe VM needs that much validation work
    // to pay off.
    const CHUNK: usize = 64;
    let chunks: Vec<&[CandidateRef]> = cands.chunks(CHUNK).collect();
    let (parts, pool) = parallax_pool::scoped_map_init(
        parallax_pool::effective_workers_for(jobs, cands.len(), CHUNK),
        chunks.len(),
        |_w| build_probe(),
        |probe, i, _w| validate_chunk(probe, chunks[i]),
    );
    drop(chunks);
    drop(cands);
    let t0 = std::time::Instant::now();
    let mut gadgets = Vec::new();
    let (mut reused, mut shared) = (0, 0);
    for part in parts {
        gadgets.extend(part.gadgets);
        reused += part.reused;
        shared += part.shared;
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
    let memo = memo(table.into_slots(), groups.into_inner().unwrap());
    (gadgets, stats, vstats, memo)
}

/// Like [`find_gadgets`], but returns the typed mapping directly.
pub fn build_map(img: &LinkedImage) -> GadgetMap {
    GadgetMap::new(find_gadgets(img))
}
