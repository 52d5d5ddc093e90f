//! Soundness differential for probe-free verdicts: every proposal the
//! shared-trial path rejects without a run (`validate::prejudged`),
//! for an unmapped access or for an undefined syscall number, must also
//! be rejected by the legacy oracle, which runs every probe, on the
//! pass-1 and pass-2 images `protect()` really links.

mod common;

use parallax_bench::fig5_modes;
use parallax_compiler::compile_module;
use parallax_core::ChainMode;
use parallax_gadgets::classify;
use parallax_gadgets::classify::SyscallEax;
use parallax_gadgets::scan::scan;
use parallax_gadgets::validate::{legacy, prejudged};
use parallax_image::{LinkedImage, Program};
use parallax_vm::syscall::is_defined;
use parallax_vm::{Vm, VmOptions};
use parallax_x86::{Asm, Insn, Mnemonic, Operand};

use common::{
    fixpoint_pairs, generated_heap_edge, generated_heap_edge_write, large_module, LARGE_SEEDS,
    MORE_LARGE_SEEDS,
};

/// How many prejudged proposals the oracle rejected too: all of them,
/// those whose syscall number the VM does not define, and those with a
/// one-operand `mul` or `imul` of memory.
#[derive(Default)]
struct Checked {
    all: usize,
    syscalls: usize,
    muls: usize,
}

impl std::ops::AddAssign for Checked {
    fn add_assign(&mut self, other: Checked) {
        self.all += other.all;
        self.syscalls += other.syscalls;
        self.muls += other.muls;
    }
}

/// Whether `insn` is a one-operand `mul` or `imul` of memory, whose
/// operand the classifier records without making its root a
/// precondition.
fn mul_of_memory(insn: &Insn) -> bool {
    matches!(insn.mnemonic, Mnemonic::Mul | Mnemonic::Imul)
        && matches!(insn.ops.as_slice(), [Operand::Mem(_)])
}

/// Probes every candidate of `img` that `prejudged` rejects with the
/// legacy oracle, on one VM rolled back to its pristine memory before
/// each, and requires the oracle to reject it too.
fn assert_prejudged_sound(img: &LinkedImage, label: &str) -> Checked {
    let mut vm = Vm::with_options(img, VmOptions::default());
    let pristine = vm.mem().clone();
    let mut checked = Checked::default();
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
        checked.all += 1;
        if matches!(p.syscall_eax, SyscallEax::Fixed(nr) if !is_defined(nr)) {
            checked.syscalls += 1;
        }
        if p.cand.insns().iter().copied().any(mul_of_memory) {
            checked.muls += 1;
        }
    }
    checked
}

#[test]
fn prejudged_proposals_fail_the_oracle_across_corpus_and_modes() {
    for w in parallax_corpus::all() {
        let module = (w.module)();
        let mut checked = Checked::default();
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
            checked.all > 0,
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
    let (cand, gap, heap) = generated_heap_edge(LARGE_SEEDS[0]);
    let p = classify(&cand).expect("classified");
    assert!(assert_prejudged_sound(&gap, "gap").all > 0);
    assert_prejudged_sound(&heap, "heap");
    let mem = |img| Vm::with_options(img, VmOptions::default()).mem().clone();
    assert!(prejudged(&mem(&gap), &p) && !prejudged(&mem(&heap), &p));
}

/// `write` from a scratch-rooted ecx to the same byte: the number is
/// defined and the classifier resolves no access at the byte, so the
/// proposal is probed in both layouts, and the oracle accepts it once
/// the heap covers the byte.
#[test]
fn a_syscall_write_at_the_heap_edge_is_probed() {
    let (cand, gap, heap) = generated_heap_edge_write(LARGE_SEEDS[0]);
    let p = classify(&cand).expect("classified");
    let mem = |img| Vm::with_options(img, VmOptions::default()).mem().clone();
    assert!(!prejudged(&mem(&gap), &p) && !prejudged(&mem(&heap), &p));
    let mut vm = Vm::with_options(&heap, VmOptions::default());
    assert!(legacy::validate_with(&mut vm, &p).is_some());
    assert_prejudged_sound(&heap, "heap");
}

/// Syscall gadgets whose `int 0x80` passes a number computed from the
/// probe's pinned eax of 13: each one the VM does not define is rejected
/// without a run, and the oracle, which runs it, rejects it too; a
/// defined number is probed.
#[test]
fn undefined_syscall_numbers_fail_the_oracle() {
    let gadgets: [(&[u8], &str, bool); 6] = [
        (
            &[0x05, 0x08, 0x50, 0xb8, 0xc3, 0xcd, 0x80, 0xc3],
            "add eax,0xffffffffc3b85008; int 0x80; ret",
            true,
        ),
        (&[0x83, 0xc0, 0x04, 0xcd, 0x80, 0xc3], "add eax,0x4", true),
        (&[0x31, 0xc0, 0xcd, 0x80, 0xc3], "xor eax,eax", true),
        // 13 - 9 = 4, `write`; 42, `random`; 13, `time`.
        (&[0x83, 0xe8, 0x09, 0xcd, 0x80, 0xc3], "sub eax,0x9", false),
        (&[0xb0, 0x2a, 0xcd, 0x80, 0xc3], "mov al,0x2a", false),
        (&[0xcd, 0x80, 0xc3], "int 0x80", false),
    ];
    let mut main = Asm::new();
    for (bytes, _, _) in gadgets {
        main.db(bytes);
    }
    let mut prog = Program::new();
    prog.add_func("main", main.finish().expect("assembles"));
    prog.set_entry("main");
    let img = prog.link().expect("links");
    let mem = Vm::with_options(&img, VmOptions::default()).mem().clone();
    let mut at = img.text_base;
    for (bytes, what, undefined) in gadgets {
        let cand = scan(&img.text, img.text_base)
            .into_iter()
            .find(|c| c.vaddr == at && c.len as usize == bytes.len())
            .expect("the whole gadget is a candidate");
        at += bytes.len() as u32;
        assert!(cand.disasm().starts_with(what), "{}", cand.disasm());
        let p = classify(&cand).expect("classified");
        assert_eq!(prejudged(&mem, &p), undefined, "{}", cand.disasm());
    }
    // The three above, and `mov eax, 0xc380cdc3; add eax, 4; int 0x80;
    // ret`, which starts inside the first gadget's immediate.
    assert_eq!(assert_prejudged_sound(&img, "syscalls").syscalls, 4);
}

/// One-operand `mul` and `imul` of memory whose root the probe draws
/// (`0x01xx_xxxx`): generated code leaves `imul byte [ecx-0x3b7c0001];
/// ret` and `mul dword [esi-0x3b7c0001]; ret` behind, which can only
/// read above the stack region, so they are rejected without a run,
/// and the oracle, which runs them, rejects them too. The same operand
/// at a displacement that reaches the data is probed.
#[test]
fn mul_operands_on_drawn_roots_fail_the_oracle() {
    let gadgets: [(&[u8], &str, bool); 4] = [
        (
            &[0xf6, 0xa9, 0xff, 0xff, 0x83, 0xc4, 0xc3],
            "imul byte [ecx-0x3b7c0001]",
            true,
        ),
        (
            &[0xf7, 0xa6, 0xff, 0xff, 0x83, 0xc4, 0xc3],
            "mul [esi-0x3b7c0001]",
            true,
        ),
        (
            &[0xf7, 0x6c, 0x24, 0x40, 0x5b, 0xc3],
            "imul [esp+0x40]; pop ebx",
            false,
        ),
        (
            &[0xf7, 0xa6, 0x00, 0x00, 0x00, 0x07, 0xc3],
            "mul [esi+0x7000000]",
            false,
        ),
    ];
    let mut main = Asm::new();
    for (bytes, _, _) in gadgets {
        main.db(bytes);
    }
    let mut prog = Program::new();
    prog.add_func("main", main.finish().expect("assembles"));
    prog.set_entry("main");
    let img = prog.link().expect("links");
    let mem = Vm::with_options(&img, VmOptions::default()).mem().clone();
    let mut at = img.text_base;
    for (bytes, what, unmapped) in gadgets {
        let cand = scan(&img.text, img.text_base)
            .into_iter()
            .find(|c| c.vaddr == at && c.len as usize == bytes.len())
            .expect("the whole gadget is a candidate");
        at += bytes.len() as u32;
        assert!(cand.disasm().starts_with(what), "{}", cand.disasm());
        let p = classify(&cand).expect("classified");
        assert!(p.mem_preconditions.is_empty() && !p.unresolved_access);
        assert_eq!(prejudged(&mem, &p), unmapped, "{}", cand.disasm());
    }
    assert!(assert_prejudged_sound(&img, "muls").muls >= 2);
}

/// Both passes of a protect-large-sized module.
fn assert_large_prejudged_sound(seed: u64) -> Checked {
    let module = large_module(seed);
    let prog = compile_module(&module).expect("randprog compiles");
    let mut checked = Checked::default();
    for (img1, img2) in fixpoint_pairs(prog, "vf", &module, ChainMode::Cleartext) {
        for (img, pass) in [(&img1, 1), (&img2, 2)] {
            checked += assert_prejudged_sound(img, &format!("large {seed} pass {pass}"));
        }
    }
    assert!(
        checked.all > 0,
        "large {seed}: no proposal was rejected without a run"
    );
    checked
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
    let mut checked = Checked::default();
    for seed in MORE_LARGE_SEEDS {
        checked += assert_large_prejudged_sound(2 * seed + 1);
    }
    // Generated code holds a few `add eax, imm32; int 0x80; ret` whose
    // number the VM does not define (16 over these seeds), and a few
    // `mul`s of memory whose drawn root can only reach unmapped memory.
    assert!(
        checked.syscalls > 0,
        "no undefined syscall number was prejudged"
    );
    assert!(checked.muls > 0, "no mul of unmapped memory was prejudged");
}
