//! Differential suite for the incremental second pass: a gadget pass
//! given the previous pass's [`PassMemo`] must return exactly the list
//! a fresh pass returns — same gadgets, same order — for the pass-1 and
//! pass-2 images `protect()` really links, and every verdict it reuses
//! must be the one a fresh probe gives on the new layout.

mod common;

use std::collections::{BTreeSet, HashMap, HashSet};

use proptest::prelude::*;

use parallax_bench::fig5_modes;
use parallax_compiler::compile_module;
use parallax_core::ChainMode;
use parallax_gadgets::classify::SyscallEax;
use parallax_gadgets::scan::scan;
use parallax_gadgets::validate::scratch_pointer;
use parallax_gadgets::{
    classify, find_gadgets_instrumented, find_gadgets_reusing, Candidate, CandidateRef, Gadget,
    ProbeVm, Proposal,
};
use parallax_image::{LinkedImage, Program};
use parallax_x86::{decode_read, AluOp, Asm, Mem, Reg32};

use common::{
    fixpoint_pairs, generated_heap_edge, generated_heap_edge_write, large_module, shifted_pair,
    LARGE_SEEDS, MORE_LARGE_SEEDS,
};

/// Each content's first candidate in scan order, its representative:
/// the one candidate of the content a gadget pass assembles.
fn representatives(img: &LinkedImage) -> Vec<(Content, Candidate)> {
    let mut seen = HashSet::new();
    scan(&img.text, img.text_base)
        .into_iter()
        .map(|c| (content_of(img, &c), c))
        .filter(|(content, _)| seen.insert(content.clone()))
        .collect()
}

/// The distinct text offsets on the paths of `cands`, candidates of
/// `img`: each one's start and the start of every later instruction.
fn path_offsets<'a>(
    img: &LinkedImage,
    cands: impl IntoIterator<Item = &'a Candidate>,
) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    for c in cands {
        let mut pos = (c.vaddr - img.text_base) as usize;
        for insn in &c.insns {
            out.insert(pos);
            pos += usize::from(insn.len);
        }
    }
    out
}

/// The full decodes a pass 2 over `img2` with pass 1's memo must make:
/// the offsets on the paths of its representatives of contents the
/// memo holds no verdict for — neither a carried probe verdict nor
/// "does not classify" — whose instruction pass 1 never materialised
/// (they were on no pass-1 representative's path) or whose decode read
/// a byte that changed.
fn stale_path_offsets(img1: &LinkedImage, img2: &LinkedImage) -> u64 {
    let held = path_offsets(img1, representatives(img1).iter().map(|(_, c)| c));
    let inherited = carried(img1);
    let unclassified = unclassified(img1);
    let reps2 = representatives(img2);
    let (old, new) = (&img1.text, &img2.text);
    let stale = |i: usize| {
        let read = decode_read(&old[i..]).1;
        old[i..i + read] != new[i..i + read]
    };
    let assembled = reps2
        .iter()
        .filter(|(content, _)| !inherited.contains_key(content) && !unclassified.contains(content))
        .map(|(_, c)| c);
    path_offsets(img2, assembled)
        .into_iter()
        .filter(|&i| !held.contains(&i) || stale(i))
        .count() as u64
}

/// Pass 2 with pass 1's memo equals a fresh pass 2. Returns how many
/// verdicts were reused.
fn assert_rescan_matches_fresh(img1: &LinkedImage, img2: &LinkedImage, label: &str) -> u64 {
    let (_, _, _, memo) = find_gadgets_reusing(img1, 2, None);
    let (reused, stats, vstats, _) = find_gadgets_reusing(img2, 2, Some(memo));
    let (fresh, fresh_stats, _) = find_gadgets_instrumented(img2, 1, None);
    assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "{label}");
    assert_eq!(stats.candidates, fresh_stats.candidates, "{label}");
    assert_eq!(
        stats.shapes + stats.reused + stats.skipped,
        stats.offsets,
        "{label}"
    );
    assert_eq!(
        (stats.reused + stats.shapes, stats.skipped),
        (fresh_stats.shapes, fresh_stats.skipped),
        "{label}: a rescan reaches the offsets a fresh scan reaches"
    );
    assert_eq!(
        fresh_stats.decoded,
        path_offsets(img2, representatives(img2).iter().map(|(_, c)| c)).len() as u64,
        "{label}: a fresh pass decodes its representatives' paths in full"
    );
    if img1.text_base == img2.text_base && img1.text.len() == img2.text.len() {
        assert_eq!(
            stats.decoded,
            stale_path_offsets(img1, img2),
            "{label}: a rescan decodes in full only the stale or new offsets on the paths \
             of the contents it inherits no verdict for"
        );
    }
    vstats.reused
}

#[test]
fn pass_two_matches_fresh_scan_across_corpus_and_modes() {
    let mut reused = 0;
    for w in parallax_corpus::all() {
        for mode in fig5_modes() {
            let module = (w.module)();
            let prog = compile_module(&module).expect("corpus compiles");
            for (img1, img2) in fixpoint_pairs(prog, w.verify_func, &module, mode.clone()) {
                reused +=
                    assert_rescan_matches_fresh(&img1, &img2, &format!("{} {mode:?}", w.name));
            }
        }
    }
    assert!(reused > 0, "no verdict was reused");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn pass_two_matches_fresh_scan_on_random_programs(seed in 0u64..10_000) {
        let module = parallax_corpus::randprog::Gen::new(seed).module();
        let prog = compile_module(&module).expect("randprog compiles");
        for (img1, img2) in fixpoint_pairs(prog, "vf", &module, ChainMode::Cleartext) {
            assert_rescan_matches_fresh(&img1, &img2, &format!("randprog {seed}"));
        }
    }
}

/// A candidate's content: its text bytes and return kind.
type Content = (Vec<u8>, bool);

fn content_of(img: &LinkedImage, cand: &Candidate) -> Content {
    let off = (cand.vaddr - img.text_base) as usize;
    (img.text[off..off + cand.len as usize].to_vec(), cand.far)
}

/// The verdicts a pass over `img` carries to the next, keyed by
/// content, with vaddr 0: each classified content whose proposal is
/// layout-independent and whose representative's probe did not stray.
fn carried(img: &LinkedImage) -> HashMap<Content, Option<Gadget>> {
    let mut probe = ProbeVm::new(img);
    let mut carried = HashMap::new();
    for (content, cand) in representatives(img) {
        let Some(p) = classify(&cand) else {
            continue;
        };
        if !p.layout_independent() {
            continue;
        }
        let verdict = probe.validate(&p);
        if !probe.strayed() {
            carried.insert(content, verdict.map(|g| Gadget { vaddr: 0, ..g }));
        }
    }
    carried
}

/// The contents of `img` that do not classify: the memo carries them
/// to the next pass, which neither assembles nor classifies them again.
fn unclassified(img: &LinkedImage) -> HashSet<Content> {
    representatives(img)
        .into_iter()
        .filter(|(_, cand)| classify(cand).is_none())
        .map(|(content, _)| content)
        .collect()
}

/// What `classify` says of a candidate, apart from the candidate itself.
fn classification(cand: CandidateRef) -> Option<String> {
    classify(cand).map(|p| {
        format!(
            "{} {:?} {:?} {:?} {:?} {} {:?}",
            p.slots,
            p.effects,
            p.clobbers,
            p.mem_preconditions,
            p.accesses,
            p.unresolved_access,
            p.syscall_eax
        )
    })
}

/// Classification reads a content's bytes and return kind, not where
/// it sits, so the memo may carry "does not classify" to the next pass
/// wherever the content now lies: every representative of both images
/// of each fixpoint `protect()` links classifies alike at its own vaddr
/// and at another.
#[test]
fn a_content_classifies_alike_at_two_vaddrs() {
    let (mut classified, mut unclassified) = (0, 0);
    for w in parallax_corpus::all() {
        for mode in fig5_modes() {
            let module = (w.module)();
            let prog = compile_module(&module).expect("corpus compiles");
            for (img1, img2) in fixpoint_pairs(prog, w.verify_func, &module, mode.clone()) {
                for (_, cand) in representatives(&img1)
                    .into_iter()
                    .chain(representatives(&img2))
                {
                    let here = classification(CandidateRef::from(&cand));
                    let moved = CandidateRef::from(&cand).at(cand.vaddr.wrapping_add(0x0012_3450));
                    assert_eq!(here, classification(moved), "{}", cand.disasm());
                    match here {
                        Some(_) => classified += 1,
                        None => unclassified += 1,
                    }
                }
            }
        }
    }
    assert!(
        classified > 0 && unclassified > 0,
        "({classified}, {unclassified})"
    );
}

/// Every verdict pass 2 may carry over from pass 1 equals a fresh probe
/// of the pass-2 image. Pass 1 carries the verdicts [`carried`] lists;
/// pass 2 serves each to every copy of that content, wherever the copy
/// now sits. Returns how many carried contents pass 2 holds.
fn assert_carried_verdicts_hold(img1: &LinkedImage, img2: &LinkedImage, label: &str) -> usize {
    let mut carried = carried(img1);
    let mut probe2 = ProbeVm::new(img2);
    let mut compared = 0;
    for cand in scan(&img2.text, img2.text_base) {
        let content = content_of(img2, &cand);
        let Some(before) = carried.remove(&content) else {
            continue;
        };
        let p = classify(&cand).expect("a carried content classifies");
        let after = probe2.validate(&p).map(|g| Gadget { vaddr: 0, ..g });
        assert_eq!(
            format!("{before:?}"),
            format!("{after:?}"),
            "{label}: {}",
            cand.disasm()
        );
        compared += 1;
    }
    compared
}

/// Corpus program `name`, as [`shifted_pair`] links it.
fn shifted_corpus_pair(name: &str, grow: usize) -> (LinkedImage, LinkedImage) {
    let w = parallax_corpus::by_name(name).expect("known workload");
    shifted_pair(
        compile_module(&(w.module)()).expect("corpus compiles"),
        grow,
    )
}

/// Checks one layout shift: the heap base moved and the text did not,
/// every carried verdict holds, and the rescan reuses some.
fn assert_shift_reuses_sound_verdicts(img1: &LinkedImage, img2: &LinkedImage, label: &str) {
    assert_ne!(
        ProbeVm::new(img1).heap_base(),
        ProbeVm::new(img2).heap_base(),
        "{label}"
    );
    assert_eq!(img1.text.len(), img2.text.len(), "{label}");
    assert!(
        assert_carried_verdicts_hold(img1, img2, label) > 0,
        "{label}: no carried verdict compared"
    );
    assert!(
        assert_rescan_matches_fresh(img1, img2, label) > 0,
        "{label}"
    );
}

#[test]
fn reused_verdicts_match_a_fresh_probe_after_a_layout_shift() {
    for grow in [1, 4096 + 3, 64 * 1024] {
        for w in parallax_corpus::all() {
            let (img1, img2) = shifted_corpus_pair(w.name, grow);
            assert_shift_reuses_sound_verdicts(&img1, &img2, &format!("{} grow {grow}", w.name));
        }
        let seed = LARGE_SEEDS[0];
        let prog = compile_module(&large_module(seed)).expect("randprog compiles");
        let (img1, img2) = shifted_pair(prog, grow);
        assert_shift_reuses_sound_verdicts(&img1, &img2, &format!("large {seed} grow {grow}"));
    }
}

/// The fixpoint pairs `protect()` links for a protect-large-sized
/// module: the rescan equals a fresh scan, and every verdict it
/// carries equals a fresh probe of the pass-2 image.
fn assert_large_fixpoint_holds(seed: u64) {
    let module = large_module(seed);
    let prog = compile_module(&module).expect("randprog compiles");
    for (img1, img2) in fixpoint_pairs(prog, "vf", &module, ChainMode::Cleartext) {
        let label = format!("large {seed}");
        assert!(
            img1.text.len() > 16 * 1024,
            "{label}: {} B",
            img1.text.len()
        );
        assert!(
            assert_carried_verdicts_hold(&img1, &img2, &label) > 0,
            "{label}"
        );
        assert_rescan_matches_fresh(&img1, &img2, &label);
    }
}

#[test]
fn large_fixpoints_carry_only_verdicts_a_fresh_probe_repeats() {
    for seed in LARGE_SEEDS {
        assert_large_fixpoint_holds(seed);
    }
}

/// [`large_fixpoints_carry_only_verdicts_a_fresh_probe_repeats`] over
/// more seeds; CI's release step runs it with `--ignored`.
#[test]
#[ignore]
fn large_fixpoints_carry_only_verdicts_a_fresh_probe_repeats_more_seeds() {
    for seed in MORE_LARGE_SEEDS {
        assert_large_fixpoint_holds(2 * seed + 1);
    }
}

/// `main` as a lone `cmp eax, [ecx+disp]; ret` and a 4-byte data item;
/// returns the gadget's candidate, the image, and the image relinked
/// with the data grown by a page.
fn cmp_fixture(disp: i32) -> (Candidate, LinkedImage, LinkedImage) {
    let mut prog = Program::new();
    let mut main = Asm::new();
    main.alu_rm(AluOp::Cmp, Reg32::Eax, Mem::base_disp(Reg32::Ecx, disp));
    main.ret();
    prog.add_func("main", main.finish().expect("assembles"));
    prog.set_entry("main");
    prog.add_data("d", vec![0; 4]);
    let img1 = prog.link().expect("links");
    prog.data_item_mut("d").expect("data item").bytes = vec![0; 4 + 4096];
    let img2 = prog.link().expect("relinks");
    assert_eq!(img1.text, img2.text);
    let cand = scan(&img2.text, img2.text_base)
        .into_iter()
        .find(|c| c.disasm().starts_with("cmp eax,"))
        .expect("cmp gadget scanned");
    (cand, img1, img2)
}

/// Pass 1 on `img1`, then pass 2 on `img2` with pass 1's memo; returns
/// pass 2's gadgets, its memo hits and the proposals it probed.
fn pass_two(img1: &LinkedImage, img2: &LinkedImage) -> (Vec<Gadget>, u64, u64) {
    let (_, _, _, memo) = find_gadgets_reusing(img1, 1, None);
    let (gadgets, _, vstats, _) = find_gadgets_reusing(img2, 1, Some(memo));
    (gadgets, vstats.reused, vstats.probe.proposals)
}

/// The pivots and the syscall gadget every protected image carries, in
/// the standard gadget set and the loader runtime, as they disassemble.
const STANDARD_PIVOTS: [&str; 7] = [
    "pop esp; ret",
    "pop esp; retf",
    "add esp,eax; ret",
    "add esp,eax; retf",
    "mov eax,[esp+0x24]; mov esp,eax; ret",
    "int 0x80; ret",
    "int 0x80; retf",
];

/// The probe pins where a pivot lands and that a syscall is `time`, so
/// none of these verdicts depends on the layout: after the data grows
/// by a page, pass 2 serves all of them from pass 1's memo and probes
/// nothing.
#[test]
fn standard_pivots_and_syscalls_are_served_from_the_memo() {
    let mut prog = Program::new();
    let mut main = Asm::new();
    for far in [false, true] {
        let ret = |a: &mut Asm| if far { a.retf() } else { a.ret() };
        main.pop_r(Reg32::Esp);
        ret(&mut main);
        main.alu_rr(AluOp::Add, Reg32::Esp, Reg32::Eax);
        ret(&mut main);
        main.int(0x80);
        ret(&mut main);
    }
    main.mov_rm(Reg32::Eax, Mem::base_disp(Reg32::Esp, 0x24));
    main.mov_rr(Reg32::Esp, Reg32::Eax);
    main.ret();
    prog.add_func("main", main.finish().expect("assembles"));
    prog.set_entry("main");
    prog.add_data("d", vec![0; 4]);
    let img1 = prog.link().expect("links");
    prog.data_item_mut("d").expect("data item").bytes = vec![0; 4 + 4096];
    let img2 = prog.link().expect("relinks");
    assert_eq!(img1.text, img2.text);
    let (gadgets, reused, probed) = pass_two(&img1, &img2);
    let served: Vec<&str> = gadgets
        .iter()
        .map(|g| g.disasm.as_str())
        .filter(|d| STANDARD_PIVOTS.contains(d))
        .collect();
    assert_eq!(served.len(), STANDARD_PIVOTS.len(), "{served:?}");
    assert!(reused >= STANDARD_PIVOTS.len() as u64, "{reused} reused");
    assert_eq!(probed, 0, "pass 2 probed again");
    assert_rescan_matches_fresh(&img1, &img2, "standard pivots");
    assert!(assert_carried_verdicts_hold(&img1, &img2, "standard pivots") >= STANDARD_PIVOTS.len());
}

/// In the images `protect()` links, every standard pivot and syscall
/// gadget of pass 2 is layout-independent and its content was in pass
/// 1, so pass 2 serves it from the memo.
#[test]
fn protected_images_carry_their_standard_pivots_into_pass_two() {
    let w = parallax_corpus::by_name("gzip").expect("known workload");
    let module = (w.module)();
    for mode in fig5_modes() {
        let prog = compile_module(&module).expect("corpus compiles");
        for (img1, img2) in fixpoint_pairs(prog, w.verify_func, &module, mode.clone()) {
            let pass1: HashSet<Content> = scan(&img1.text, img1.text_base)
                .iter()
                .map(|c| content_of(&img1, c))
                .collect();
            let mut found = HashSet::new();
            for cand in scan(&img2.text, img2.text_base) {
                let disasm = cand.disasm();
                if !STANDARD_PIVOTS.contains(&disasm.as_str()) {
                    continue;
                }
                let p = classify(&cand).expect("a standard pivot classifies");
                assert!(p.layout_independent(), "{mode:?}: {disasm}");
                assert!(
                    pass1.contains(&content_of(&img2, &cand)),
                    "{mode:?}: {disasm}"
                );
                found.insert(disasm);
            }
            for want in ["pop esp; ret", "add esp,eax; ret", "int 0x80; ret"] {
                assert!(found.contains(want), "{mode:?}: no {want}");
            }
            assert!(
                found.contains("mov eax,[esp+0x24]; mov esp,eax; ret"),
                "{mode:?}: no loader pivot"
            );
        }
    }
}

/// A scratch-using proposal no longer follows the heap base: the probe's
/// scratch regions sit in the stack region, so `cmp eax, [ecx-0x3000]`
/// reads the stack 0x3000 bytes below ecx's scratch pointer whatever
/// the data size. The rescan serves the pass-1 verdict from the memo.
#[test]
fn scratch_verdicts_ignore_the_heap_base() {
    let (cand, img1, img2) = cmp_fixture(-0x3000);
    let p = classify(&cand).expect("classified");
    assert!(p.layout_independent());
    assert_ne!(
        ProbeVm::new(&img1).heap_base(),
        ProbeVm::new(&img2).heap_base()
    );
    let before = ProbeVm::new(&img1).validate(&p);
    let after = ProbeVm::new(&img2).validate(&p);
    assert!(before.is_some(), "{before:?}");
    assert_eq!(format!("{before:?}"), format!("{after:?}"));
    let (gadgets, reused, probed) = pass_two(&img1, &img2);
    assert!(gadgets.iter().any(|g| g.vaddr == p.cand.vaddr));
    assert!(reused > 0);
    // Every content of this text is layout-independent.
    assert_eq!(probed, 0, "pass 2 probed again");
    assert_rescan_matches_fresh(&img1, &img2, "heap shift");
}

/// An access that reaches below the stack region stays layout-dependent
/// and is probed again after the shift. The displacement takes ecx's
/// scratch pointer to the first byte past the heap: unmapped while the
/// data is 4 bytes, inside the heap once it has grown by a page.
#[test]
fn accesses_below_the_stack_region_are_probed_again() {
    let (_, probe_img, _) = cmp_fixture(-0x0300_0000);
    let heap_end = {
        let probe = ProbeVm::new(&probe_img);
        probe.heap_base() + parallax_vm::HEAP_SIZE
    };
    let disp = heap_end.wrapping_sub(scratch_pointer(Reg32::Ecx)) as i32;
    let (cand, img1, img2) = cmp_fixture(disp);
    let p = classify(&cand).expect("classified");
    assert_eq!(img1.text.len(), probe_img.text.len());
    assert!(!p.layout_independent());
    let before = ProbeVm::new(&img1).validate(&p);
    let after = ProbeVm::new(&img2).validate(&p);
    assert!(
        before.is_none() && after.is_some(),
        "{before:?} -> {after:?}"
    );
    let (gadgets, _, probed) = pass_two(&img1, &img2);
    assert!(probed > 0, "pass 2 served a layout-dependent verdict");
    assert!(gadgets.iter().any(|g| g.vaddr == p.cand.vaddr));
    assert_rescan_matches_fresh(&img1, &img2, "below the stack region");
}

/// The hand-made fixtures above, inside a generated program: the
/// layout-shift differentials pass on generated programs alone under a
/// rule that accepts every proposal, because none of their candidates
/// has a verdict that changes with the layout. This one does: rejected
/// without a run while its access lands in the gap, accepted once the
/// heap covers it. The pass memo must carry its verdict in neither
/// direction.
#[test]
fn a_generated_heap_edge_verdict_flips_and_is_not_carried() {
    let (cand, gap, heap) = generated_heap_edge(LARGE_SEEDS[0]);
    let p = classify(&cand).expect("classified");
    let mut probe = ProbeVm::new(&gap);
    assert!(probe.validate(&p).is_none());
    assert_eq!(
        (probe.stats().prejudged, probe.stats().runs),
        (1, 0),
        "the access in the gap is rejected without a run"
    );
    assert_flip_is_not_carried(&p, &gap, &heap);
}

/// The same byte reached by `write` from a scratch-rooted ecx: the
/// classifier resolves no access there, and the number the `int 0x80`
/// passes is a constant rather than the probe's pinned `time`. The
/// probe runs it in both layouts, where it faults on the gap and
/// returns once the heap covers the byte; a relink rule that accepted
/// every `int 0x80` would carry the first verdict into the second.
#[test]
fn a_generated_syscall_write_verdict_flips_and_is_not_carried() {
    let (cand, gap, heap) = generated_heap_edge_write(LARGE_SEEDS[0]);
    let p = classify(&cand).expect("classified");
    assert_eq!(p.syscall_eax, SyscallEax::Fixed(4));
    let mut probe = ProbeVm::new(&gap);
    assert!(probe.validate(&p).is_none());
    assert_eq!(probe.stats().prejudged, 0, "a defined syscall is probed");
    assert_flip_is_not_carried(&p, &gap, &heap);
}

/// `p`'s verdict is a rejection on `gap` and an acceptance on `heap`,
/// and pass 2 probes it again after a shift either way.
fn assert_flip_is_not_carried(p: &Proposal, gap: &LinkedImage, heap: &LinkedImage) {
    assert!(!p.layout_independent());
    assert!(ProbeVm::new(gap).validate(p).is_none());
    assert!(ProbeVm::new(heap).validate(p).is_some());
    for (img1, img2, accepted, label) in [
        (gap, heap, true, "gap -> heap"),
        (heap, gap, false, "heap -> gap"),
    ] {
        let (gadgets, _, _) = pass_two(img1, img2);
        assert_eq!(
            gadgets.iter().any(|g| g.vaddr == p.cand.vaddr),
            accepted,
            "{label}: pass 2 took the pass-1 verdict"
        );
        assert_shift_reuses_sound_verdicts(img1, img2, label);
    }
}

/// `mov [esp+2], eax; ret` passes the static rule, but its store
/// rewrites half of the return slot, so the probe's `ret` leaves the
/// candidate for an address built from a random register. What runs
/// there is other text, so the verdict must not enter the memo.
#[test]
fn a_probe_that_misses_its_sentinel_strays() {
    let mut prog = Program::new();
    let mut main = Asm::new();
    main.mov_ri(Reg32::Eax, 1);
    main.int(0x80);
    main.mov_mr(Mem::base_disp(Reg32::Esp, 2), Reg32::Eax);
    main.ret();
    prog.add_func("main", main.finish().expect("assembles"));
    prog.set_entry("main");
    let img = prog.link().expect("links");
    let cand = scan(&img.text, img.text_base)
        .into_iter()
        .find(|c| c.disasm().starts_with("mov [esp+0x2],eax"))
        .expect("store gadget scanned");
    let p = classify(&cand).expect("classified");
    assert!(p.layout_independent());
    let mut probe = ProbeVm::new(&img);
    probe.validate(&p);
    assert!(probe.strayed());
    // A candidate that returns to the sentinel does not stray.
    let bare = scan(&img.text, img.text_base)
        .into_iter()
        .find(|c| c.disasm() == "ret")
        .expect("bare ret scanned");
    probe.validate(&classify(&bare).expect("classified"));
    assert!(!probe.strayed());
}

#[test]
fn memo_for_another_text_falls_back_to_a_full_scan() {
    let (img1, img2) = shifted_corpus_pair("wget", 64);
    let mut moved = img2.clone();
    moved.text_base += 0x1000;
    let mut shorter = img2.clone();
    shorter.text.pop();
    for (img, label) in [(&moved, "other base"), (&shorter, "other length")] {
        let (_, _, _, memo) = find_gadgets_reusing(&img1, 1, None);
        let (gadgets, stats, vstats, _) = find_gadgets_reusing(img, 1, Some(memo));
        assert_eq!((stats.reused, vstats.reused), (0, 0), "{label}");
        assert_eq!(stats.shapes + stats.skipped, stats.offsets, "{label}");
        let (fresh, _, _) = find_gadgets_instrumented(img, 1, None);
        assert_eq!(format!("{gadgets:?}"), format!("{fresh:?}"), "{label}");
    }
}
