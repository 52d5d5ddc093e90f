//! Soundness differential for probe-free verdicts: every proposal the
//! shared-trial path rejects without a run (`validate::prejudged`)
//! must also be rejected by the legacy oracle, which runs every probe,
//! on the pass-1 and pass-2 images `protect()` really links.

mod common;

use parallax_bench::fig5_modes;
use parallax_compiler::compile_module;
use parallax_core::ChainMode;
use parallax_gadgets::classify;
use parallax_gadgets::scan::scan;
use parallax_gadgets::validate::{legacy, prejudged};
use parallax_image::LinkedImage;
use parallax_vm::{Vm, VmOptions};

use common::{fixpoint_pairs, generated_heap_edge, large_module, LARGE_SEEDS, MORE_LARGE_SEEDS};

/// Probes every candidate of `img` that `prejudged` rejects with the
/// legacy oracle, on one VM rolled back to its pristine memory before
/// each, and requires the oracle to reject it too. Returns how many
/// were checked.
fn assert_prejudged_sound(img: &LinkedImage, label: &str) -> usize {
    let mut vm = Vm::with_options(img, VmOptions::default());
    let pristine = vm.mem().clone();
    let mut checked = 0;
    for cand in scan(&img.text, img.text_base) {
        let Some(p) = classify(&cand) else {
            continue;
        };
        if !prejudged(&pristine, &p) {
            continue;
        }
        vm.reset_to(&pristine);
        let oracle = legacy::validate_with(&mut vm, &p);
        assert!(
            oracle.is_none(),
            "{label}: {:#x} {} rejected without a run, but the oracle accepts {oracle:?}",
            cand.vaddr,
            cand.disasm()
        );
        checked += 1;
    }
    checked
}

#[test]
fn prejudged_proposals_fail_the_oracle_across_corpus_and_modes() {
    for w in parallax_corpus::all() {
        let module = (w.module)();
        let mut checked = 0;
        for mode in fig5_modes() {
            let prog = compile_module(&module).expect("corpus compiles");
            for (img1, img2) in fixpoint_pairs(prog, w.verify_func, &module, mode.clone()) {
                for (img, pass) in [(&img1, 1), (&img2, 2)] {
                    checked +=
                        assert_prejudged_sound(img, &format!("{} {mode:?} pass {pass}", w.name));
                }
            }
        }
        assert!(
            checked > 0,
            "{}: no proposal was rejected without a run",
            w.name
        );
    }
}

/// A generated program's `cmp eax, [ecx+disp]` whose access lands in
/// the gap below the stack region under one layout (rejected without a
/// run) and inside the heap under the other (probed, accepted): a rule
/// that took the heap for unmapped memory fails here, where no
/// candidate of the generated programs alone sits.
#[test]
fn prejudged_proposals_fail_the_oracle_at_the_heap_edge() {
    let (p, gap, heap) = generated_heap_edge(LARGE_SEEDS[0]);
    assert!(assert_prejudged_sound(&gap, "gap") > 0);
    assert_prejudged_sound(&heap, "heap");
    let mem = |img| Vm::with_options(img, VmOptions::default()).mem().clone();
    assert!(prejudged(&mem(&gap), &p) && !prejudged(&mem(&heap), &p));
}

/// Both passes of a protect-large-sized module.
fn assert_large_prejudged_sound(seed: u64) {
    let module = large_module(seed);
    let prog = compile_module(&module).expect("randprog compiles");
    let mut checked = 0;
    for (img1, img2) in fixpoint_pairs(prog, "vf", &module, ChainMode::Cleartext) {
        for (img, pass) in [(&img1, 1), (&img2, 2)] {
            checked += assert_prejudged_sound(img, &format!("large {seed} pass {pass}"));
        }
    }
    assert!(
        checked > 0,
        "large {seed}: no proposal was rejected without a run"
    );
}

#[test]
fn prejudged_proposals_fail_the_oracle_on_large_modules() {
    for seed in LARGE_SEEDS {
        assert_large_prejudged_sound(seed);
    }
}

/// [`prejudged_proposals_fail_the_oracle_on_large_modules`] over more
/// seeds; CI's release step runs it with `--ignored`.
#[test]
#[ignore]
fn prejudged_proposals_fail_the_oracle_on_large_modules_more_seeds() {
    for seed in MORE_LARGE_SEEDS {
        assert_large_prejudged_sound(2 * seed + 1);
    }
}
