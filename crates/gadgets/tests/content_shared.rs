//! Differential suite for content-shared validation: a gadget pass
//! probes the first candidate of each distinct content (text bytes and
//! return kind) and gives every later copy that verdict with its own
//! vaddr. The list it returns must equal, in order, a per-candidate
//! oracle that probes every classified candidate, and its counters
//! must show one probe per content — except where that probe strayed,
//! which makes every copy probe on its own. A verdict cache is asked
//! once per content and offered only verdicts that did not stray.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Mutex;

use proptest::prelude::*;

use parallax_bench::fig5_modes;
use parallax_compiler::compile_module;
use parallax_core::{protect_with, ArtifactStore, ChainMode, Ctx, ProtectConfig};
use parallax_gadgets::scan::scan;
use parallax_gadgets::{
    classify, find_gadgets_instrumented, find_gadgets_reusing, Candidate, Gadget, ProbeVm,
    ValidationCache,
};
use parallax_image::{LinkedImage, Program};
use parallax_x86::{Asm, Mem, Reg32};

/// Records every image `protect()` scans.
#[derive(Default)]
struct ScannedImages(Mutex<Vec<LinkedImage>>);

impl ArtifactStore for ScannedImages {
    fn store_scan(&self, img: &LinkedImage, _gadgets: &[Gadget]) {
        self.0.lock().unwrap().push(img.clone());
    }
}

impl ValidationCache for ScannedImages {}

/// Every image one protection run scans, both fixpoint passes.
fn scanned_images(
    prog: Program,
    verify: &str,
    module: &parallax_compiler::Module,
    mode: ChainMode,
) -> Vec<LinkedImage> {
    let cfg = ProtectConfig {
        verify_funcs: vec![verify.to_owned()],
        mode,
        ..ProtectConfig::default()
    };
    let store = ScannedImages::default();
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
    let (first, _, _, memo) = find_gadgets_reusing(&img1, 1, None, None);
    let (second, _, vstats, _) = find_gadgets_reusing(&img2, 1, None, Some(memo));
    let (fresh, _, fresh_stats) = find_gadgets_instrumented(&img2, 1, None);
    assert_eq!(format!("{second:?}"), format!("{fresh:?}"));
    assert_ne!(pop_at(&first), pop_at(&second));
    assert!(fresh_stats.probe.runs > 0);
    // `pop ecx; ret` and `ret` both moved, and img2 holds nothing else
    // that classifies: no probe runs at all.
    assert_eq!(vstats.reused, 2, "{vstats:?}");
    assert_eq!(vstats.probe.runs, 0, "{vstats:?}");
}

/// A verdict cache that holds nothing and records every key a pass
/// asks it for and offers it.
#[derive(Default)]
struct Recording {
    looked_up: Mutex<Vec<Vec<u8>>>,
    stored: Mutex<Vec<Vec<u8>>>,
}

impl ValidationCache for Recording {
    fn cached_verdict(&self, key: &[u8]) -> Option<Option<Gadget>> {
        self.looked_up.lock().unwrap().push(key.to_vec());
        None
    }

    fn store_verdict(&self, key: &[u8], _verdict: &Option<Gadget>) {
        self.stored.lock().unwrap().push(key.to_vec());
    }
}

impl Recording {
    /// The keys asked for and offered, each sorted.
    fn keys(self) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let mut looked_up = self.looked_up.into_inner().unwrap();
        let mut stored = self.stored.into_inner().unwrap();
        looked_up.sort();
        stored.sort();
        (looked_up, stored)
    }
}

/// A content's verdict key: the probe heap base, the return kind, then
/// the text bytes.
fn verdict_key(heap_base: u32, (bytes, far): &(Vec<u8>, bool)) -> Vec<u8> {
    let mut key = heap_base.to_le_bytes().to_vec();
    key.push(*far as u8);
    key.extend_from_slice(bytes);
    key
}

/// Every distinct classified content of `img` and how its first probe
/// went: `(strayed, layout_independent)`.
fn classified_contents(img: &LinkedImage) -> HashMap<(Vec<u8>, bool), (bool, bool)> {
    let mut probe = ProbeVm::new(img);
    let mut out = HashMap::new();
    for cand in scan(&img.text, img.text_base) {
        if let Entry::Vacant(e) = out.entry(content(img, &cand)) {
            if let Some(p) = classify(&cand) {
                probe.validate(&p);
                e.insert((probe.strayed(), p.layout_independent()));
            }
        }
    }
    out
}

/// Runs pass 1 and, with its memo, pass 2 through one [`Recording`] at
/// `jobs` workers; returns the sorted keys asked for and offered.
fn recorded_keys(
    img1: &LinkedImage,
    img2: &LinkedImage,
    jobs: usize,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let cache = Recording::default();
    let (_, _, _, memo) = find_gadgets_reusing(img1, jobs, Some(&cache), None);
    find_gadgets_reusing(img2, jobs, Some(&cache), Some(memo));
    cache.keys()
}

/// A pass asks the cache once per distinct classified content it does
/// not inherit from the previous pass, and offers it exactly the
/// verdicts whose probe did not stray; both key sets are the same at
/// every job count.
#[test]
fn the_cache_is_asked_once_per_content_not_inherited() {
    let mut inherited_contents = 0;
    for w in parallax_corpus::all() {
        let module = (w.module)();
        let prog = compile_module(&module).expect("corpus compiles");
        let imgs = scanned_images(prog, w.verify_func, &module, ChainMode::Cleartext);
        for pair in imgs.chunks_exact(2) {
            let (img1, img2) = (&pair[0], &pair[1]);
            let (c1, c2) = (classified_contents(img1), classified_contents(img2));
            let (h1, h2) = (
                ProbeVm::new(img1).heap_base(),
                ProbeVm::new(img2).heap_base(),
            );
            // Pass 2 inherits pass 1's layout-independent verdicts that
            // did not stray.
            let inherited = |c: &(Vec<u8>, bool)| c1.get(c) == Some(&(false, true));
            let mut want_looked_up = Vec::new();
            let mut want_stored = Vec::new();
            for (contents, heap_base, pass2) in [(&c1, h1, false), (&c2, h2, true)] {
                for (c, &(strayed, _)) in contents {
                    if pass2 && inherited(c) {
                        inherited_contents += 1;
                        continue;
                    }
                    want_looked_up.push(verdict_key(heap_base, c));
                    if !strayed {
                        want_stored.push(verdict_key(heap_base, c));
                    }
                }
            }
            want_looked_up.sort();
            want_stored.sort();
            let got = recorded_keys(img1, img2, 1);
            assert_eq!(got.0, want_looked_up, "{}: lookups", w.name);
            assert_eq!(got.1, want_stored, "{}: stores", w.name);
            assert_eq!(recorded_keys(img1, img2, 2), got, "{}: jobs=2", w.name);
        }
    }
    assert!(inherited_contents > 0, "pass 2 inherited nothing");
}

/// The straying `mov [esp+2], eax; ret` is looked up, but its verdict
/// depends on the text it reached, so it is never stored.
#[test]
fn a_strayed_verdict_is_looked_up_but_never_stored() {
    let image = twin_image(
        |a| {
            a.mov_mr(Mem::base_disp(Reg32::Esp, 2), Reg32::Eax);
            a.ret();
        },
        2,
    );
    let cand = scan(&image.text, image.text_base)
        .into_iter()
        .find(|c| c.disasm().starts_with("mov [esp+0x2],eax"))
        .expect("store gadget scanned");
    let key = verdict_key(ProbeVm::new(&image).heap_base(), &content(&image, &cand));
    let cache = Recording::default();
    let (_, _, vstats) = find_gadgets_instrumented(&image, 1, Some(&cache));
    let (looked_up, stored) = cache.keys();
    assert_eq!(looked_up.iter().filter(|k| **k == key).count(), 1);
    assert!(!stored.contains(&key), "a strayed verdict was stored");
    assert_eq!(
        (vstats.cache_hits, vstats.cache_misses),
        (0, looked_up.len() as u64)
    );
}
