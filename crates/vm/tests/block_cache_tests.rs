//! Block-translation cache behaviour: tamper visibility, invalidation
//! granularity, and block-path vs reference-path equivalence.

use parallax_image::Program;
use parallax_vm::{Exit, FaultKind, Vm};
use parallax_x86::{AluOp, Asm, Assembled, Mem, Reg32};

fn link(funcs: Vec<(&str, Assembled)>, entry: &str) -> parallax_image::LinkedImage {
    let mut p = Program::new();
    for (name, asm) in funcs {
        p.add_func(name, asm);
    }
    p.set_entry(entry);
    p.link().expect("links")
}

fn emit_exit(a: &mut Asm, status: i32) {
    a.mov_ri(Reg32::Eax, 1);
    a.mov_ri(Reg32::Ebx, status);
    a.int(0x80);
}

fn func_vaddr(img: &parallax_image::LinkedImage, name: &str) -> u32 {
    img.funcs().find(|s| s.name == name).expect("func").vaddr
}

/// Acceptance criterion: a byte-patch landing inside a cached block's
/// span is observed on the next block entry, not served stale.
#[test]
fn code_patch_observed_on_next_block_entry() {
    // f: mov eax, 5; ret   (b8 05 00 00 00 c3)
    let mut f = Asm::new();
    f.mov_ri(Reg32::Eax, 5);
    f.ret();
    let mut main = Asm::new();
    emit_exit(&mut main, 0);
    let img = link(
        vec![("main", main.finish().unwrap()), ("f", f.finish().unwrap())],
        "main",
    );
    let fv = func_vaddr(&img, "f");

    let mut vm = Vm::new(&img);
    assert_eq!(vm.call_function(fv, &[]), Ok(5));
    let cached = vm.block_stats();
    assert!(cached.misses >= 1, "first call predecodes f's block");

    // Patch the mov's imm32 in place; the block spanning fv is stale now.
    vm.write_code(fv + 1, &7u32.to_le_bytes()).unwrap();
    assert_eq!(vm.call_function(fv, &[]), Ok(7));
    let after = vm.block_stats();
    assert!(
        after.invalidated > cached.invalidated,
        "code write must evict the overlapping block ({after:?} vs {cached:?})"
    );
}

#[test]
fn icache_patch_invalidates_cached_block() {
    // With the split cache on, icache writes redirect fetches without
    // touching the data view — the block cache must still notice.
    let mut f = Asm::new();
    f.mov_ri(Reg32::Eax, 5);
    f.ret();
    let mut main = Asm::new();
    emit_exit(&mut main, 0);
    let img = link(
        vec![("main", main.finish().unwrap()), ("f", f.finish().unwrap())],
        "main",
    );
    let fv = func_vaddr(&img, "f");

    let mut vm = Vm::new(&img);
    vm.enable_split_cache();
    assert_eq!(vm.call_function(fv, &[]), Ok(5));
    vm.write_icache(fv + 1, &9u32.to_le_bytes()).unwrap();
    assert_eq!(vm.call_function(fv, &[]), Ok(9));
    // The data view is untouched: a static read still sees 5.
    assert_eq!(vm.mem().read32(fv + 1).unwrap(), 5);
}

#[test]
fn int3_patch_faults_on_reentry() {
    let mut f = Asm::new();
    f.mov_ri(Reg32::Eax, 5);
    f.ret();
    let mut main = Asm::new();
    emit_exit(&mut main, 0);
    let img = link(
        vec![("main", main.finish().unwrap()), ("f", f.finish().unwrap())],
        "main",
    );
    let fv = func_vaddr(&img, "f");

    let mut vm = Vm::new(&img);
    assert_eq!(vm.call_function(fv, &[]), Ok(5));
    vm.write_code(fv, &[0xcc]).unwrap();
    match vm.call_function(fv, &[]) {
        Err(Exit::Fault(fault)) => assert_eq!(fault.kind, FaultKind::Breakpoint),
        other => panic!("expected breakpoint fault, got {other:?}"),
    }
}

/// Satellite: data-only stores must not evict any predecoded block.
#[test]
fn data_writes_do_not_invalidate_blocks() {
    // ecx = &buf; loop 100: [ecx] = eax; inc eax; dec edx; jnz
    let mut a = Asm::new();
    a.mov_ri(Reg32::Eax, 0);
    a.mov_ri(Reg32::Edx, 100);
    a.mov_ri_sym(Reg32::Ecx, "buf", 0);
    let top = a.here();
    a.mov_mr(Mem::base(Reg32::Ecx), Reg32::Eax);
    a.inc_r(Reg32::Eax);
    a.dec_r(Reg32::Edx);
    a.jcc(parallax_x86::Cond::Ne, top);
    a.mov_ri(Reg32::Ebx, 0);
    a.mov_ri(Reg32::Eax, 1);
    a.int(0x80);
    let mut p = Program::new();
    p.add_func("main", a.finish().unwrap());
    p.add_bss("buf", 8);
    p.set_entry("main");
    let img = p.link().unwrap();

    let mut vm = Vm::new(&img);
    assert_eq!(vm.run(), Exit::Exited(0));
    let stats = vm.block_stats();
    assert_eq!(
        stats.invalidated, 0,
        "data stores evicted blocks: {stats:?}"
    );
    assert!(stats.hits > 0, "loop re-entries should hit the cache");
}

/// Builds a ROP-chain image whose gadgets interleave data stores with
/// the arithmetic: g_store writes eax to [edi] between every add.
fn chain_with_data_writes() -> parallax_image::LinkedImage {
    let mut g_pop = Asm::new();
    g_pop.pop_r(Reg32::Eax);
    g_pop.ret();
    let mut g_add = Asm::new();
    g_add.alu_rr(AluOp::Add, Reg32::Esi, Reg32::Eax);
    g_add.ret();
    let mut g_store = Asm::new();
    g_store.mov_mr(Mem::base(Reg32::Edi), Reg32::Eax);
    g_store.ret();
    let mut g_pop_esp = Asm::new();
    g_pop_esp.pop_r(Reg32::Esp);
    g_pop_esp.ret();

    let mut main = Asm::new();
    main.mov_ri(Reg32::Esi, 0);
    main.mov_ri_sym(Reg32::Edi, "scratch", 0);
    main.push_i_sym("resume_slot", 0);
    main.pop_r(Reg32::Eax);
    main.mov_ri_sym(Reg32::Ecx, "main.back", 0);
    main.mov_mr(Mem::base(Reg32::Eax), Reg32::Ecx);
    main.mov_ri_sym(Reg32::Esp, "chain", 0);
    main.ret();
    main.marker("back");
    main.mov_rr(Reg32::Ebx, Reg32::Esi);
    main.mov_ri(Reg32::Eax, 1);
    main.int(0x80);

    let mut p = Program::new();
    p.add_func("main", main.finish().unwrap());
    p.add_func("g_pop_eax", g_pop.finish().unwrap());
    p.add_func("g_add", g_add.finish().unwrap());
    p.add_func("g_store", g_store.finish().unwrap());
    p.add_func("g_pop_esp", g_pop_esp.finish().unwrap());

    use parallax_x86::{RelocKind, SymReloc};
    let mut chain = Vec::new();
    let mut relocs = Vec::new();
    let mut slot = |chain: &mut Vec<u8>, sym: Option<&str>, val: u32| {
        if let Some(s) = sym {
            relocs.push(SymReloc {
                offset: chain.len(),
                symbol: s.to_owned(),
                kind: RelocKind::Abs32,
                addend: val as i32,
            });
            chain.extend_from_slice(&[0; 4]);
        } else {
            chain.extend_from_slice(&val.to_le_bytes());
        }
    };
    for i in 0..32u32 {
        slot(&mut chain, Some("g_pop_eax"), 0);
        slot(&mut chain, None, i + 1);
        slot(&mut chain, Some("g_store"), 0); // data write mid-chain
        slot(&mut chain, Some("g_add"), 0);
    }
    slot(&mut chain, Some("g_pop_esp"), 0);
    slot(&mut chain, Some("resume_slot"), 0);
    p.add_data_with_relocs("chain", chain, relocs);
    p.add_bss("resume_slot", 8);
    p.add_bss("scratch", 8);
    p.set_entry("main");
    p.link().unwrap()
}

/// Satellite regression: interleaved data writes during chain execution
/// must not thrash the block cache (the pre-change engine flushed its
/// whole decode cache on *any* memory write through write_code paths;
/// plain data stores never should).
#[test]
fn interleaved_data_writes_during_chain_do_not_invalidate() {
    let img = chain_with_data_writes();
    let expected: u32 = (1..=32).sum();

    let mut vm = Vm::new(&img);
    assert_eq!(vm.run(), Exit::Exited(expected as i32));
    let stats = vm.block_stats();
    assert_eq!(
        stats.invalidated, 0,
        "chain data writes evicted blocks: {stats:?}"
    );
    assert!(stats.hits > 0, "repeated gadget dispatch should hit cache");

    // And the block path agrees with the reference interpreter exactly.
    let mut reference = Vm::new(&img);
    assert_eq!(reference.run_reference(), Exit::Exited(expected as i32));
    assert_eq!(vm.cycles(), reference.cycles());
    assert_eq!(vm.instructions, reference.instructions);
}

/// Block path and reference path agree instruction-for-instruction on
/// the hand-built chain, including the RSB mispredict cost model.
#[test]
fn block_path_matches_reference_on_rop_chain() {
    let img = chain_with_data_writes();
    let mut blocked = Vm::new(&img);
    let mut reference = Vm::new(&img);
    let a = blocked.run();
    let b = reference.run_reference();
    assert_eq!(a, b);
    assert_eq!(blocked.cycles(), reference.cycles());
    assert_eq!(blocked.instructions, reference.instructions);
    assert_eq!(blocked.output(), reference.output());
}

/// Single-stepping through the block cache matches the reference
/// stepper: same exit status, same cycle count, same instruction count.
#[test]
fn step_matches_reference_stepper() {
    let img = chain_with_data_writes();
    let run_steps = |reference: bool| {
        let mut vm = Vm::new(&img);
        loop {
            let r = if reference {
                vm.step_reference()
            } else {
                vm.step()
            };
            match r {
                Ok(None) => continue,
                Ok(Some(status)) => return (status, vm.cycles(), vm.instructions),
                Err(f) => panic!("fault while stepping: {f:?}"),
            }
        }
    };
    assert_eq!(run_steps(false), run_steps(true));
}

/// Self-modifying code: a program that patches an instruction *ahead of
/// itself* (different block) sees the patched bytes when it gets there.
#[test]
fn self_modifying_code_via_write_code_between_calls() {
    // f starts as `mov eax, 1; ret`; main exits with f()'s value. We
    // run once, rewrite the imm byte-by-byte, and run fresh VMs to
    // prove the cache key is the image state, not history.
    let mut f = Asm::new();
    f.mov_ri(Reg32::Eax, 1);
    f.ret();
    let mut main = Asm::new();
    emit_exit(&mut main, 0);
    let img = link(
        vec![("main", main.finish().unwrap()), ("f", f.finish().unwrap())],
        "main",
    );
    let fv = func_vaddr(&img, "f");
    let mut vm = Vm::new(&img);
    for round in 1..=4u32 {
        // Patch one byte at a time — exercises partial-overlap ranges.
        let bytes = (round * 11).to_le_bytes();
        for (i, b) in bytes.iter().enumerate() {
            vm.write_code(fv + 1 + i as u32, &[*b]).unwrap();
        }
        assert_eq!(vm.call_function(fv, &[]), Ok(round * 11));
    }
}

/// A step predecodes only the instruction it runs. Stepping through a
/// k-instruction gadget from its first instruction enters a block at
/// each of its instructions; predecoding each entry up to the `ret`
/// would decode k(k+1)/2 instructions, one per entry decodes k.
#[test]
fn stepping_a_gadget_decodes_each_instruction_once() {
    let mut g = Asm::new();
    g.pop_r(Reg32::Eax);
    g.pop_r(Reg32::Ecx);
    g.alu_rr(AluOp::Add, Reg32::Eax, Reg32::Ecx);
    g.pop_r(Reg32::Edx);
    g.ret();
    let k = 5;
    let mut main = Asm::new();
    emit_exit(&mut main, 0);
    let img = link(
        vec![("main", main.finish().unwrap()), ("g", g.finish().unwrap())],
        "main",
    );
    let mut vm = Vm::new(&img);
    let esp = vm.cpu.reg(Reg32::Esp);
    for (i, v) in [3u32, 4, 9, 0].into_iter().enumerate() {
        vm.mem_mut()
            .write32(esp + 4 * i as u32, v)
            .expect("stack is mapped");
    }
    vm.cpu.eip = func_vaddr(&img, "g");
    for _ in 0..k {
        assert_eq!(vm.step(), Ok(None));
    }
    assert_eq!(
        (vm.cpu.reg(Reg32::Eax), vm.cpu.reg(Reg32::Edx), vm.cpu.eip),
        (7, 9, 0)
    );
    let stats = vm.block_stats();
    assert_eq!((stats.misses, stats.decoded), (k, k), "{stats:?}");
}
