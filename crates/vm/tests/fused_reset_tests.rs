//! Differential coverage for the widened fused-gadget fast path and
//! the probe-VM reset contract.
//!
//! The reference path (`run_reference`) never uses predecoded blocks
//! or fused dispatch, so running the same ROP-style chain through both
//! engines and requiring identical exits / cycles / instruction counts
//! pins the fused semantics to the single-authority interpreter.

use parallax_image::Program;
use parallax_vm::{Exit, Vm, VmOptions};
use parallax_x86::{AluOp, Asm, Assembled, Cond, Mem, Reg32};

fn link(funcs: Vec<(&str, Assembled)>, entry: &str) -> parallax_image::LinkedImage {
    let mut p = Program::new();
    for (name, asm) in funcs {
        p.add_func(name, asm);
    }
    p.set_entry(entry);
    p.link().expect("links")
}

/// exit(status) helper: eax=1, ebx=status, int 0x80.
fn emit_exit(a: &mut Asm, status: i32) {
    a.mov_ri(Reg32::Eax, 1);
    a.mov_ri(Reg32::Ebx, status);
    a.int(0x80);
}

/// A ROP-style chain through gadgets whose bodies exercise the widened
/// fast-op set (lea, xchg, test, push/pop mem) at fused lengths 2–4.
fn fused_chain_image() -> parallax_image::LinkedImage {
    // g1: lea eax,[ebx+4]; xchg ecx,eax; pop ebx; ret   (3-op body)
    let mut g1 = Asm::new();
    g1.lea(Reg32::Eax, Mem::base_disp(Reg32::Ebx, 4));
    g1.xchg_rr(Reg32::Ecx, Reg32::Eax);
    g1.pop_r(Reg32::Ebx);
    g1.ret();

    // g2: test eax,ecx; test edx,0x40; pop eax; ret     (3-op body)
    let mut g2 = Asm::new();
    g2.test_rr(Reg32::Eax, Reg32::Ecx);
    g2.test_ri(Reg32::Edx, 0x40);
    g2.pop_r(Reg32::Eax);
    g2.ret();

    // g3: push [esp]; pop edx; ret                      (2-op body,
    // push-from-memory reads the chain slot then pops it right back)
    let mut g3 = Asm::new();
    g3.push_m(Mem::base(Reg32::Esp));
    g3.pop_r(Reg32::Edx);
    g3.ret();

    // g4: push eax; pop [esp-8]; add eax,1; pop esi; ret (4-op body,
    // pop-to-memory lands in dead stack below esp)
    let mut g4 = Asm::new();
    g4.push_r(Reg32::Eax);
    g4.pop_m(Mem::base_disp(Reg32::Esp, -8));
    g4.alu_ri(AluOp::Add, Reg32::Eax, 1);
    g4.pop_r(Reg32::Esi);
    g4.ret();

    let mut fin = Asm::new();
    fin.mov_rr(Reg32::Ebx, Reg32::Eax);
    fin.mov_ri(Reg32::Eax, 1);
    fin.int(0x80);

    // main lays out the chain bottom-up and rets into it.
    let mut main = Asm::new();
    main.push_i_sym("final", 0);
    main.push_i(0x71); // g4's pop esi
    main.push_i_sym("g4", 0);
    main.push_i_sym("g3", 0);
    main.push_i(0x1233); // g2's pop eax
    main.push_i_sym("g2", 0);
    main.push_i(0x5678); // g1's pop ebx
    main.push_i_sym("g1", 0);
    main.ret();

    link(
        vec![
            ("main", main.finish().unwrap()),
            ("g1", g1.finish().unwrap()),
            ("g2", g2.finish().unwrap()),
            ("g3", g3.finish().unwrap()),
            ("g4", g4.finish().unwrap()),
            ("final", fin.finish().unwrap()),
        ],
        "main",
    )
}

#[test]
fn fused_multi_op_chain_matches_reference() {
    let img = fused_chain_image();
    let mut block = Vm::new(&img);
    let be = block.run();
    let mut reference = Vm::new(&img);
    let re = reference.run_reference();
    // g2 left eax=0x1233, g4 added 1 → exit(0x1234) proves every
    // gadget in the chain actually retired.
    assert_eq!(be, Exit::Exited(0x1234));
    assert_eq!(be, re);
    assert_eq!(block.cycles(), reference.cycles());
    assert_eq!(block.instructions, reference.instructions);
}

#[test]
fn fused_chain_survives_tight_cycle_limits() {
    // Sweep cycle limits across the whole run so the budget expires at
    // every possible point — including mid-gadget — and require the
    // block engine and the reference path to agree on the exit, the
    // final eip, and the retirement counts at each cut.
    let img = fused_chain_image();
    let full = {
        let mut vm = Vm::new(&img);
        vm.run();
        vm.cycles()
    };
    for limit in 1..=full {
        let opts = VmOptions {
            cycle_limit: limit,
            ..VmOptions::default()
        };
        let mut b = Vm::with_options(&img, opts.clone());
        let be = b.run();
        let mut r = Vm::with_options(&img, opts);
        let re = r.run_reference();
        assert_eq!(be, re, "limit {limit}");
        assert_eq!(b.cpu.eip, r.cpu.eip, "limit {limit}");
        assert_eq!(b.cycles(), r.cycles(), "limit {limit}");
        assert_eq!(b.instructions, r.instructions, "limit {limit}");
    }
}

/// A program that dirties data, stack, and registers before exiting.
fn scribbler_image() -> parallax_image::LinkedImage {
    let mut a = Asm::new();
    a.mov_ri(Reg32::Ecx, 5);
    let top = a.here();
    a.push_r(Reg32::Ecx);
    a.mov_mi(Mem::base_disp(Reg32::Esp, -32), 99);
    a.dec_r(Reg32::Ecx);
    a.jcc(Cond::Ne, top);
    a.mov_ri(Reg32::Ecx, 5);
    let top2 = a.here();
    a.pop_r(Reg32::Eax);
    a.dec_r(Reg32::Ecx);
    a.jcc(Cond::Ne, top2);
    emit_exit(&mut a, 0); // ebx overwritten below
    link(vec![("main", a.finish().unwrap())], "main")
}

#[test]
fn reset_to_replays_byte_identically() {
    let img = scribbler_image();
    let mut vm = Vm::new(&img);
    let pristine = vm.mem().clone();

    let e1 = vm.run();
    let (c1, i1) = (vm.cycles(), vm.instructions);

    vm.reset_to(&pristine);
    let e2 = vm.run();
    assert_eq!(e1, e2);
    assert_eq!(c1, vm.cycles());
    assert_eq!(i1, vm.instructions);

    // And the reused VM must agree with a VM that never ran at all.
    let mut fresh = Vm::new(&img);
    assert_eq!(fresh.run(), e1);
    assert_eq!(fresh.cycles(), c1);
    assert_eq!(fresh.instructions, i1);
}

#[test]
fn reset_to_recovers_from_a_partial_run() {
    // Cut the first run short at every cycle budget; after reset the
    // replay must still match a never-used VM exactly, proving the
    // dirty-page reset captured all partial state.
    let img = scribbler_image();
    let full = {
        let mut vm = Vm::new(&img);
        vm.run();
        vm.cycles()
    };
    let mut vm = Vm::with_options(
        &img,
        VmOptions {
            cycle_limit: u64::MAX,
            ..VmOptions::default()
        },
    );
    let pristine = vm.mem().clone();
    let want = {
        let mut fresh = Vm::new(&img);
        let e = fresh.run();
        (e, fresh.cycles(), fresh.instructions)
    };
    for limit in (1..full).step_by(7) {
        // Interrupted run: step until the budget would expire.
        loop {
            if vm.cycles() >= limit {
                break;
            }
            if vm.step().expect("no faults in scribbler").is_some() {
                break;
            }
        }
        vm.reset_to(&pristine);
        let e = vm.run();
        assert_eq!((e, vm.cycles(), vm.instructions), want, "limit {limit}");
        vm.reset_to(&pristine);
    }
}
