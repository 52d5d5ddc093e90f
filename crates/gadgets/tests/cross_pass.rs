//! Differential suite for the incremental second pass: a gadget pass
//! given the previous pass's [`PassMemo`] must return exactly the list
//! a fresh pass returns — same gadgets, same order — for the pass-1 and
//! pass-2 images `protect()` really links, and every verdict it reuses
//! must be the one a fresh probe gives on the new layout.

use std::sync::Mutex;

use proptest::prelude::*;

use parallax_bench::fig5_modes;
use parallax_compiler::compile_module;
use parallax_core::{protect_with, ArtifactStore, ChainMode, Ctx, ProtectConfig};
use parallax_gadgets::scan::scan;
use parallax_gadgets::{
    classify, find_gadgets_instrumented, find_gadgets_reusing, Gadget, ProbeVm, ValidationCache,
};
use parallax_image::{LinkedImage, Program};
use parallax_x86::{AluOp, Asm, Mem, Reg32};

/// Records every image `protect()` scans, in order: pass 1 then pass 2
/// of each pipeline attempt. Never serves a scan, so each one is fresh.
#[derive(Default)]
struct ScannedImages(Mutex<Vec<LinkedImage>>);

impl ArtifactStore for ScannedImages {
    fn store_scan(&self, img: &LinkedImage, _gadgets: &[Gadget]) {
        self.0.lock().unwrap().push(img.clone());
    }
}

impl ValidationCache for ScannedImages {}

/// The `(pass 1, pass 2)` image pairs of one protection run.
fn fixpoint_pairs(
    prog: Program,
    verify: &str,
    module: &parallax_compiler::Module,
    mode: ChainMode,
) -> Vec<(LinkedImage, LinkedImage)> {
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
    let imgs = store.0.into_inner().unwrap();
    assert!(
        imgs.len() >= 2 && imgs.len() % 2 == 0,
        "{} scans",
        imgs.len()
    );
    imgs.chunks_exact(2)
        .map(|p| (p[0].clone(), p[1].clone()))
        .collect()
}

/// Pass 2 with pass 1's memo equals a fresh pass 2. Returns how many
/// verdicts were reused.
fn assert_rescan_matches_fresh(img1: &LinkedImage, img2: &LinkedImage, label: &str) -> u64 {
    let (_, _, _, memo) = find_gadgets_reusing(img1, 2, None, None);
    let (reused, stats, vstats, _) = find_gadgets_reusing(img2, 2, None, Some(memo));
    let (fresh, fresh_stats, _) = find_gadgets_instrumented(img2, 1, None);
    assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "{label}");
    assert_eq!(stats.candidates, fresh_stats.candidates, "{label}");
    assert_eq!(
        stats.decoded + stats.reused + stats.skipped,
        stats.offsets,
        "{label}"
    );
    assert_eq!(
        (stats.reused + stats.decoded, stats.skipped),
        (fresh_stats.decoded, fresh_stats.skipped),
        "{label}: a rescan reaches the offsets a fresh scan decodes"
    );
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

/// Corpus program `name` linked as is, and relinked with its last data
/// item grown by `grow` bytes, which moves the heap base.
fn shifted_pair(name: &str, grow: usize) -> (LinkedImage, LinkedImage) {
    let w = parallax_corpus::by_name(name).expect("known workload");
    let mut prog = compile_module(&(w.module)()).expect("corpus compiles");
    let img1 = prog.link().expect("links");
    let item = img1
        .symbols
        .iter()
        .filter(|s| prog.data_item(&s.name).is_some())
        .max_by_key(|s| s.vaddr)
        .expect("program has data")
        .name
        .clone();
    let last = prog.data_item_mut(&item).expect("data item");
    if last.bytes.is_empty() {
        last.bss_size += grow as u32;
    } else {
        last.bytes.resize(last.bytes.len() + grow, 0);
    }
    (img1, prog.link().expect("relinks"))
}

#[test]
fn reused_verdicts_match_a_fresh_probe_after_a_layout_shift() {
    for grow in [1, 4096 + 3, 64 * 1024] {
        let mut compared = 0;
        for w in parallax_corpus::all() {
            let (img1, img2) = shifted_pair(w.name, grow);
            let (mut probe1, mut probe2) = (ProbeVm::new(&img1), ProbeVm::new(&img2));
            assert_ne!(probe1.heap_base(), probe2.heap_base());
            assert_eq!(img1.text.len(), img2.text.len());
            for cand in scan(&img2.text, img2.text_base) {
                let off = (cand.vaddr - img2.text_base) as usize;
                let span = off..off + cand.len as usize;
                let Some(p) = classify(&cand) else {
                    continue;
                };
                if img1.text[span.clone()] != img2.text[span] || !p.layout_independent() {
                    continue;
                }
                let before = probe1.validate(&p);
                if probe1.strayed() {
                    continue;
                }
                let after = probe2.validate(&p);
                assert_eq!(
                    format!("{before:?}"),
                    format!("{after:?}"),
                    "{} grow {grow}: {}",
                    w.name,
                    cand.disasm()
                );
                compared += 1;
            }
            let label = format!("{} grow {grow}", w.name);
            assert!(
                assert_rescan_matches_fresh(&img1, &img2, &label) > 0,
                "{label}"
            );
        }
        assert!(compared > 0, "grow {grow}: no reusable verdict compared");
    }
}

/// A scratch-using proposal's verdict really follows the heap base:
/// `cmp eax, [ecx-0x3000]; ret` probes with `ecx` at a scratch pointer,
/// 0x2800 bytes into the heap, so its read lands 0x800 bytes before the
/// heap — in the unmapped gap after the text while the data is 4 bytes,
/// inside the data once it has grown by a page. The rescan must probe
/// it again rather than serve the pass-1 verdict.
#[test]
fn scratch_verdicts_follow_the_heap_base() {
    let mut prog = Program::new();
    let mut main = Asm::new();
    main.mov_ri(Reg32::Eax, 1);
    main.int(0x80);
    main.alu_rm(AluOp::Cmp, Reg32::Eax, Mem::base_disp(Reg32::Ecx, -0x3000));
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
    let p = classify(&cand).expect("classified");
    assert!(!p.layout_independent());
    let before = ProbeVm::new(&img1).validate(&p);
    let after = ProbeVm::new(&img2).validate(&p);
    assert!(
        before.is_none() && after.is_some(),
        "{before:?} -> {after:?}"
    );
    assert_rescan_matches_fresh(&img1, &img2, "heap shift");
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
    let (img1, img2) = shifted_pair("wget", 64);
    let mut moved = img2.clone();
    moved.text_base += 0x1000;
    let mut shorter = img2.clone();
    shorter.text.pop();
    for (img, label) in [(&moved, "other base"), (&shorter, "other length")] {
        let (_, _, _, memo) = find_gadgets_reusing(&img1, 1, None, None);
        let (gadgets, stats, vstats, _) = find_gadgets_reusing(img, 1, None, Some(memo));
        assert_eq!((stats.reused, vstats.reused), (0, 0), "{label}");
        assert_eq!(stats.decoded + stats.skipped, stats.offsets, "{label}");
        let (fresh, _, _) = find_gadgets_instrumented(img, 1, None);
        assert_eq!(format!("{gadgets:?}"), format!("{fresh:?}"), "{label}");
    }
}
