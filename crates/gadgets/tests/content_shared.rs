//! Differential suite for content-shared validation: a gadget pass
//! probes the first candidate of each distinct content (text bytes and
//! return kind) and gives every later copy that verdict with its own
//! vaddr. The list it returns must equal, in order, a per-candidate
//! oracle that probes every classified candidate, and its counters
//! must show one probe per content — except where that probe strayed,
//! which makes every copy probe on its own. Every copy a content's
//! verdict serves points at that content's one record.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use parallax_bench::fig5_modes;
use parallax_compiler::compile_module;
use parallax_core::{protect_with, ArtifactStore, ChainMode, Ctx, ProtectConfig};
use parallax_engine::{ArtifactCache, CacheHooks};
use parallax_gadgets::scan::scan;
use parallax_gadgets::{
    classify, deserialize_gadgets, find_gadgets_instrumented, find_gadgets_reusing,
    serialize_gadgets, Candidate, Gadget, ProbeVm,
};
use parallax_image::{LinkedImage, Program};
use parallax_x86::{Asm, Mem, Reg32};

/// Records every image `protect()` scans, with the gadget list it
/// hands the store.
#[derive(Default)]
struct Scans(Mutex<Vec<(LinkedImage, Vec<Gadget>)>>);

impl ArtifactStore for Scans {
    fn store_scan(&self, img: &LinkedImage, gadgets: &[Gadget]) {
        self.0.lock().unwrap().push((img.clone(), gadgets.to_vec()));
    }
}

/// Every image one protection run scans, both fixpoint passes.
fn scanned_images(
    prog: Program,
    verify: &str,
    module: &parallax_compiler::Module,
    mode: ChainMode,
) -> Vec<LinkedImage> {
    scans(prog, verify, module, mode)
        .into_iter()
        .map(|(img, _)| img)
        .collect()
}

/// Every scan of one protection run, both fixpoint passes: the image
/// and the gadget list `protect()` would store for it.
fn scans(
    prog: Program,
    verify: &str,
    module: &parallax_compiler::Module,
    mode: ChainMode,
) -> Vec<(LinkedImage, Vec<Gadget>)> {
    let cfg = ProtectConfig {
        verify_funcs: vec![verify.to_owned()],
        mode,
        ..ProtectConfig::default()
    };
    let store = Scans::default();
    let impls = cfg
        .verify_impls(module)
        .expect("verification function exists");
    let ctx = Ctx {
        store: &store,
        ..Ctx::default()
    };
    protect_with(prog, &impls, &cfg, &ctx).expect("protects");
    store.0.into_inner().unwrap()
}

fn content(img: &LinkedImage, cand: &Candidate) -> (Vec<u8>, bool) {
    let off = (cand.vaddr - img.text_base) as usize;
    (img.text[off..off + cand.len as usize].to_vec(), cand.far)
}

/// The per-candidate oracle: a fresh `ProbeVm::validate` verdict for
/// every classified candidate, in scan order, and the counters a
/// single-worker grouped pass must report for the same image.
struct Oracle {
    gadgets: Vec<Gadget>,
    /// One per distinct content, or one per copy where the first copy
    /// strayed.
    proposals: u64,
    /// Classified candidates that took an earlier copy's verdict.
    shared: u64,
}

fn oracle(img: &LinkedImage) -> Oracle {
    let mut probe = ProbeVm::new(img);
    let mut first_strayed = HashMap::new();
    let mut out = Oracle {
        gadgets: Vec::new(),
        proposals: 0,
        shared: 0,
    };
    for cand in scan(&img.text, img.text_base) {
        let Some(p) = classify(&cand) else {
            continue;
        };
        out.gadgets.extend(probe.validate(&p));
        match first_strayed.entry(content(img, &cand)) {
            Entry::Vacant(e) => {
                e.insert(probe.strayed());
                out.proposals += 1;
            }
            Entry::Occupied(e) if *e.get() => out.proposals += 1,
            Entry::Occupied(_) => out.shared += 1,
        }
    }
    out
}

/// The grouped pass equals the oracle at one and two workers, and at
/// one worker its counters are the oracle's. Returns how many
/// candidates shared a verdict.
fn assert_grouped_matches_oracle(img: &LinkedImage, label: &str) -> u64 {
    let want = oracle(img);
    let want_list = format!("{:?}", want.gadgets);
    let (got, _, vstats) = find_gadgets_instrumented(img, 1, None);
    assert_eq!(format!("{got:?}"), want_list, "{label}: jobs=1");
    assert_eq!(
        (vstats.probe.proposals, vstats.shared, vstats.reused),
        (want.proposals, want.shared, 0),
        "{label}: (proposals, shared, reused)"
    );
    let (got2, _, _) = find_gadgets_instrumented(img, 2, None);
    assert_eq!(format!("{got2:?}"), want_list, "{label}: jobs=2");
    want.shared
}

#[test]
fn grouped_pass_matches_per_candidate_oracle_across_corpus_and_modes() {
    let mut shared = 0;
    for w in parallax_corpus::all() {
        for mode in fig5_modes() {
            let module = (w.module)();
            let prog = compile_module(&module).expect("corpus compiles");
            for img in scanned_images(prog, w.verify_func, &module, mode.clone()) {
                shared += assert_grouped_matches_oracle(&img, &format!("{} {mode:?}", w.name));
            }
        }
    }
    assert!(shared > 0, "no verdict was shared");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn grouped_pass_matches_per_candidate_oracle_on_random_programs(seed in 0u64..10_000) {
        let module = parallax_corpus::randprog::Gen::new(seed).module();
        let prog = compile_module(&module).expect("randprog compiles");
        for img in scanned_images(prog, "vf", &module, ChainMode::Cleartext) {
            assert_grouped_matches_oracle(&img, &format!("randprog {seed}"));
        }
    }
}

/// The content of the gadget `g` of `img`.
fn content_of(img: &LinkedImage, g: &Gadget) -> (Vec<u8>, bool) {
    let off = (g.vaddr - img.text_base) as usize;
    (img.text[off..off + g.len as usize].to_vec(), g.far)
}

/// The candidates of `img` by `(vaddr, len, far)`.
fn candidates(img: &LinkedImage) -> HashMap<(u32, u32, bool), Candidate> {
    scan(&img.text, img.text_base)
        .into_iter()
        .map(|c| ((c.vaddr, c.len, c.far), c))
        .collect()
}

/// Whether the candidate behind `g`, one of `cands` of `img`, strays,
/// and whether its proposal is layout-independent.
fn probed_alone(
    img: &LinkedImage,
    cands: &HashMap<(u32, u32, bool), Candidate>,
    g: &Gadget,
) -> (bool, bool) {
    let cand = &cands[&(g.vaddr, g.len, g.far)];
    let p = classify(cand).expect("a gadget's candidate classifies");
    let mut probe = ProbeVm::new(img);
    probe.validate(&p);
    (probe.strayed(), p.layout_independent())
}

/// Each content's record in `gadgets`, the list of a pass over `img`:
/// every copy points at one record, unless the content's probe strays,
/// when each copy probes on its own. Returns a gadget of each content
/// whose copies share a record, and how many gadgets point at a record
/// another gadget of the list points at too.
fn records_by_content(
    img: &LinkedImage,
    gadgets: &[Gadget],
    label: &str,
) -> (HashMap<(Vec<u8>, bool), Gadget>, usize) {
    let mut records: HashMap<(Vec<u8>, bool), Vec<&Gadget>> = HashMap::new();
    for g in gadgets {
        records.entry(content_of(img, g)).or_default().push(g);
    }
    let cands = candidates(img);
    let mut shared = 0;
    let mut out = HashMap::new();
    for (content, copies) in records {
        let first = copies[0];
        if copies.iter().all(|g| Arc::ptr_eq(&g.record, &first.record)) {
            shared += copies.len() - 1;
            out.insert(content, first.clone());
        } else {
            assert!(
                probed_alone(img, &cands, first).0,
                "{label}: copies of {} hold {} records",
                first.disasm,
                copies.len()
            );
        }
    }
    (out, shared)
}

/// One record per content: every copy that content sharing or the pass
/// memo serves points at its content's single record, at one and two
/// workers, in both passes of each fixpoint `protect()` links. Pass 2's
/// copies of a content whose layout-independent verdict it inherits
/// point at pass 1's record.
#[test]
fn copies_share_their_contents_record() {
    let (mut shared, mut inherited) = (0, 0);
    for w in parallax_corpus::all() {
        for mode in fig5_modes() {
            let module = (w.module)();
            let prog = compile_module(&module).expect("corpus compiles");
            let images = scanned_images(prog, w.verify_func, &module, mode.clone());
            for pair in images.chunks_exact(2) {
                let (img1, img2) = (&pair[0], &pair[1]);
                for jobs in [1, 2] {
                    let label = format!("{} {mode:?} jobs={jobs}", w.name);
                    let (first, _, _, memo) = find_gadgets_reusing(img1, jobs, None);
                    let (second, _, _) = find_gadgets_instrumented(img2, jobs, Some(memo));
                    let (pass1, s1) = records_by_content(img1, &first, &label);
                    let (pass2, s2) = records_by_content(img2, &second, &label);
                    shared += s1 + s2;
                    let cands1 = candidates(img1);
                    for (content, after) in &pass2 {
                        let Some(before) = pass1.get(content) else {
                            continue;
                        };
                        let (strayed, independent) = probed_alone(img1, &cands1, before);
                        if independent && !strayed {
                            assert!(
                                Arc::ptr_eq(&before.record, &after.record),
                                "{label}: pass 2 copied {} instead of sharing pass 1's record",
                                after.disasm
                            );
                            inherited += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(shared > 0 && inherited > 0, "({shared}, {inherited})");
}

/// A scan served from the artifact cache, by a serialize → deserialize
/// round trip or by an engine scan-cache hit, is the list `protect()`
/// stored: the same vaddrs and records in order, and every copy of a
/// content points at one record, as the copies of the fresh scan do.
/// (The container records equal records once, so copies whose probes
/// strayed but found the same record share it too.) Corpus ×
/// `fig5_modes()`, both passes.
#[test]
fn cached_scans_share_records_like_fresh_ones() {
    let mut shared = 0;
    for w in parallax_corpus::all() {
        for mode in fig5_modes() {
            let module = (w.module)();
            let prog = compile_module(&module).expect("corpus compiles");
            for (img, fresh) in scans(prog, w.verify_func, &module, mode.clone()) {
                let label = format!("{} {mode:?}", w.name);
                let (_, want) = records_by_content(&img, &fresh, &label);
                let round_trip =
                    deserialize_gadgets(&serialize_gadgets(&fresh)).expect("the payload reads");
                let cache = ArtifactCache::new(4, None);
                let hooks = CacheHooks::new(0, &cache, None);
                hooks.store_scan(&img, &fresh);
                let hit = hooks.cached_scan(&img).expect("a scan-cache hit");
                for (how, back) in [("round trip", round_trip), ("cache hit", hit)] {
                    assert_eq!(format!("{back:?}"), format!("{fresh:?}"), "{label} {how}");
                    let (_, got) = records_by_content(&img, &back, &format!("{label} {how}"));
                    assert!(got >= want, "{label} {how}: {got} shared copies of {want}");
                    shared += got;
                }
            }
        }
    }
    assert!(shared > 0);
}

/// `main` exits, then `gadget` is emitted twice: right after the exit
/// and at the end of the text, with int3 padding between them that no
/// decode reaches across. With `copies == 1` the second place holds
/// more padding instead, so both images have one layout.
fn twin_image(gadget: impl Fn(&mut Asm), copies: usize) -> LinkedImage {
    let mut g = Asm::new();
    gadget(&mut g);
    let gadget_len = g.finish().expect("assembles").bytes.len();
    let mut a = Asm::new();
    a.mov_ri(Reg32::Eax, 1);
    a.int(0x80);
    gadget(&mut a);
    a.db(&[0xcc; 8]);
    if copies == 2 {
        gadget(&mut a);
    } else {
        a.db(&vec![0xcc; gadget_len]);
    }
    link_main(a)
}

fn link_main(a: Asm) -> LinkedImage {
    let mut prog = Program::new();
    prog.add_func("main", a.finish().expect("assembles"));
    prog.set_entry("main");
    prog.link().expect("links")
}

fn pop_ecx_ret(a: &mut Asm) {
    a.pop_r(Reg32::Ecx);
    a.ret();
}

#[test]
fn a_second_copy_costs_no_probe() {
    let (one, two) = (twin_image(pop_ecx_ret, 1), twin_image(pop_ecx_ret, 2));
    assert_eq!(one.text.len(), two.text.len());
    let (_, _, v1) = find_gadgets_instrumented(&one, 1, None);
    let (gadgets, _, v2) = find_gadgets_instrumented(&two, 1, None);
    // The copy adds `pop ecx; ret` and `ret`, both served by the first.
    assert_eq!(v2.probe.runs, v1.probe.runs);
    assert_eq!(v2.probe.proposals, v1.probe.proposals);
    assert_eq!(v2.shared, v1.shared + 2);
    let pops: Vec<&Gadget> = gadgets
        .iter()
        .filter(|g| g.disasm == "pop ecx; ret")
        .collect();
    assert_eq!(pops.len(), 2, "{gadgets:?}");
    assert_ne!(pops[0].vaddr, pops[1].vaddr);
    let moved = Gadget {
        vaddr: pops[0].vaddr,
        ..pops[1].clone()
    };
    assert_eq!(format!("{:?}", pops[0]), format!("{moved:?}"));
    assert_grouped_matches_oracle(&two, "two copies");
}

/// `mov [esp+2], eax; ret` strays (see `cross_pass.rs`), so its copies
/// never share: each one probes on its own.
#[test]
fn a_straying_representative_makes_every_copy_probe() {
    let store = |a: &mut Asm| {
        a.mov_mr(Mem::base_disp(Reg32::Esp, 2), Reg32::Eax);
        a.ret();
    };
    let (one, two) = (twin_image(store, 1), twin_image(store, 2));
    let cand = scan(&two.text, two.text_base)
        .into_iter()
        .find(|c| c.disasm().starts_with("mov [esp+0x2],eax"))
        .expect("store gadget scanned");
    let mut probe = ProbeVm::new(&two);
    probe.validate(&classify(&cand).expect("classified"));
    assert!(probe.strayed());

    assert_grouped_matches_oracle(&two, "two straying copies");
    // A non-straying copy costs no probe; this one costs at least the
    // store's own.
    let (_, _, v1) = find_gadgets_instrumented(&one, 1, None);
    let (_, _, v2) = find_gadgets_instrumented(&two, 1, None);
    assert!(v2.probe.proposals > v1.probe.proposals, "{v1:?} -> {v2:?}");
}

/// A layout-independent verdict follows its bytes: pass 2 serves
/// `pop ecx; ret` from pass 1's memo although it now sits elsewhere.
#[test]
fn pass_two_reuses_a_verdict_whose_bytes_moved() {
    let image = |before: usize, after: usize| {
        let mut a = Asm::new();
        a.mov_ri(Reg32::Eax, 1);
        a.int(0x80);
        a.db(&vec![0xcc; before]);
        pop_ecx_ret(&mut a);
        a.db(&vec![0xcc; after]);
        link_main(a)
    };
    // In img2 the padding keeps `int 0x80` out of every candidate.
    let (img1, img2) = (image(0, 8), image(8, 0));
    assert_eq!(
        (img1.text_base, img1.text.len()),
        (img2.text_base, img2.text.len())
    );
    let pop_at = |gadgets: &[Gadget]| {
        gadgets
            .iter()
            .find(|g| g.disasm == "pop ecx; ret")
            .expect("pop ecx; ret validated")
            .vaddr
    };
    let (first, _, _, memo) = find_gadgets_reusing(&img1, 1, None);
    let (second, _, vstats, _) = find_gadgets_reusing(&img2, 1, Some(memo));
    let (fresh, _, fresh_stats) = find_gadgets_instrumented(&img2, 1, None);
    assert_eq!(format!("{second:?}"), format!("{fresh:?}"));
    assert_ne!(pop_at(&first), pop_at(&second));
    assert!(fresh_stats.probe.runs > 0);
    // `pop ecx; ret` and `ret` both moved, and img2 holds nothing else
    // that classifies: no probe runs at all.
    assert_eq!(vstats.reused, 2, "{vstats:?}");
    assert_eq!(vstats.probe.runs, 0, "{vstats:?}");
}

/// `main` exits, then `pop ecx; pop edx; ret` is emitted `n` times, each
/// after int3 padding that no candidate path crosses.
fn copies_image(n: usize) -> LinkedImage {
    let mut a = Asm::new();
    a.mov_ri(Reg32::Eax, 1);
    a.int(0x80);
    for _ in 0..n {
        a.db(&[0xcc; 8]);
        a.pop_r(Reg32::Ecx);
        a.pop_r(Reg32::Edx);
        a.ret();
    }
    link_main(a)
}

/// A pass assembles one candidate per content: `n` copies of a content
/// decode its instructions once, and every copy's gadget points at the
/// one record its representative's probe built.
#[test]
fn copies_of_a_content_decode_it_once() {
    const N: usize = 40;
    let img = copies_image(N);
    let (gadgets, stats, vstats) = find_gadgets_instrumented(&img, 1, None);
    // Three contents (`pop ecx; pop edx; ret`, `pop edx; ret` and
    // `ret`), N copies each. Their representatives lie on the first
    // copy's path: `pop ecx`, `pop edx` and `ret`, one decode each.
    assert_eq!(stats.candidates, 3 * N as u64);
    assert_eq!(stats.decoded, 3);
    assert_eq!(
        find_gadgets_instrumented(&copies_image(1), 1, None)
            .1
            .decoded,
        3
    );
    assert_eq!(vstats.probe.proposals, 3, "{vstats:?}");
    assert_eq!(vstats.shared, 3 * (N as u64 - 1), "{vstats:?}");
    let pops: Vec<&Gadget> = gadgets
        .iter()
        .filter(|g| g.disasm == "pop ecx; pop edx; ret")
        .collect();
    assert_eq!(pops.len(), N, "{gadgets:?}");
    assert!(pops.iter().all(|g| Arc::ptr_eq(&g.record, &pops[0].record)));
    let (two, _, _) = find_gadgets_instrumented(&img, 2, None);
    assert_eq!(format!("{two:?}"), format!("{gadgets:?}"));
}
