//! The binary-level protection path (paper §I advantage 5): the program
//! to protect is hand-assembled machine code — no IR module exists for
//! it — and only the verification function is supplied as IR.

use parallax::core::{protect_with, ChainMode, Ctx, ProtectConfig};
use parallax::vm::{Exit, Vm};
use parallax_compiler::ir::build::*;
use parallax_compiler::Function;
use parallax_image::Program;
use parallax_x86::{AluOp, Asm, Cond, Mem, Reg32};

/// A "legacy binary": hand-written assembly, no compiler involved.
fn legacy_binary() -> Program {
    let mut p = Program::new();

    // licensed: returns 0 (unlicensed build), with a gcc-ish frame.
    let mut lic = Asm::new();
    lic.push_r(Reg32::Ebp);
    lic.mov_rr(Reg32::Ebp, Reg32::Esp);
    lic.mov_ri(Reg32::Eax, 0);
    lic.leave();
    lic.ret();
    p.add_func("licensed", lic.finish().unwrap());

    // vf: placeholder body — will be replaced by the chain stub. Its
    // native implementation computes 2*x+3 for the honest build.
    let mut vf = Asm::new();
    vf.push_r(Reg32::Ebp);
    vf.mov_rr(Reg32::Ebp, Reg32::Esp);
    vf.mov_rm(Reg32::Eax, Mem::base_disp(Reg32::Ebp, 8));
    vf.alu_rr(AluOp::Add, Reg32::Eax, Reg32::Eax);
    vf.alu_ri(AluOp::Add, Reg32::Eax, 3);
    vf.leave();
    vf.ret();
    p.add_func("vf", vf.finish().unwrap());

    // main: r = vf(20); if licensed() == 1 -> exit(r) else exit(r|0x80)
    let mut main = Asm::new();
    main.push_i(20);
    main.call_sym("vf");
    main.alu_ri(AluOp::Add, Reg32::Esp, 4);
    main.push_r(Reg32::Eax);
    main.call_sym("licensed");
    main.alu_ri(AluOp::Cmp, Reg32::Eax, 1);
    main.pop_r(Reg32::Ebx);
    let full = main.label();
    main.jcc(Cond::E, full);
    main.alu_ri32(AluOp::Or, Reg32::Ebx, 0x80);
    main.bind(full);
    main.mov_ri(Reg32::Eax, 1);
    main.int(0x80);
    p.add_func("main", main.finish().unwrap());
    p.set_entry("main");
    p
}

#[test]
fn binary_only_protection_round_trip() {
    // Honest behaviour of the raw binary.
    let img = legacy_binary().link().unwrap();
    let mut vm = Vm::new(&img);
    let honest = vm.run();
    assert_eq!(honest, Exit::Exited((2 * 20 + 3) | 0x80));

    // The protection engineer supplies ONLY vf's semantics as IR.
    let vf_ir = Function::new("vf", ["x"], vec![ret(add(add(l("x"), l("x")), c(3)))]);

    let protected = protect_with(
        legacy_binary(),
        &[vf_ir],
        &ProtectConfig {
            verify_funcs: vec!["vf".into()],
            guard_funcs: vec!["licensed".into()],
            rewrite: parallax::rewrite::RewriteConfig {
                imm_completion_always: true,
                ..Default::default()
            },
            mode: ChainMode::XorEncrypted { key: 0xbeef },
            ..ProtectConfig::default()
        },
        &Ctx::default(),
    )
    .unwrap();

    // Same behaviour.
    let mut vm = Vm::new(&protected.image);
    assert_eq!(vm.run(), honest);

    // The hand-written machine code got overlapping gadgets...
    assert!(protected.report.rewrites.crafted_count() > 0);
    let lic = protected.image.symbol("licensed").unwrap();
    assert!(
        protected.report.chains[0]
            .used_gadgets
            .iter()
            .any(|&g| g >= lic.vaddr && g < lic.vaddr + lic.size),
        "chain verifies gadgets inside the hand-written licensed()"
    );

    // ...and the classic crack breaks the binary.
    let mut cracked = protected.image.clone();
    cracked.write(lic.vaddr, &[0xb8, 0x01, 0x00, 0x00, 0x00, 0xc3]);
    let mut vm = Vm::new(&cracked);
    assert_ne!(
        vm.run(),
        Exit::Exited(2 * 20 + 3),
        "crack must not yield full mode"
    );
    assert_ne!(vm.run(), honest, "tampering must be noticed");
}

#[test]
fn binary_path_rejects_unknown_verify_funcs() {
    let vf_ir = Function::new("nope", [], vec![ret(c(0))]);
    let err = protect_with(
        legacy_binary(),
        &[vf_ir],
        &ProtectConfig {
            verify_funcs: vec!["nope".into()],
            ..ProtectConfig::default()
        },
        &Ctx::default(),
    )
    .unwrap_err();
    assert_eq!(err.stage, parallax::core::Stage::Select);
    assert!(matches!(
        err.kind,
        parallax::core::ErrorKind::NoSuchFunction(_)
    ));
}
