//! VM dispatch microbenchmark: the predecoded block engine (`Vm::run`)
//! against the retained per-instruction reference interpreter
//! (`Vm::run_reference`) on three workload shapes:
//!
//! * `chain_heavy` — a long ROP chain dispatching through three tiny
//!   gadgets; every "basic block" is two instructions, so performance
//!   is dominated by dispatch cost (cache probe vs `HashMap` probe +
//!   `Rc` clone per instruction).
//! * `chain_fused3` — a ROP chain whose gadget bodies are three to four
//!   instructions (`lea`/`xchg`/`test`/`push [mem]`/`pop [mem]`),
//!   exercising the extended fused-gadget fast path end to end.
//! * `straight_line` — a hot loop over an unrolled ALU body; the block
//!   engine predecodes the body once and replays flat `FastOp`s.
//! * `self_modifying` — a loop that rewrites an immediate in its own
//!   text every iteration, forcing invalidation on each pass. The
//!   block engine evicts only the overlapping block; the reference
//!   path flushes its whole decode cache.
//!
//! Both engines are run on fresh VMs per measurement and their cycle
//! and instruction counts are asserted equal — the bench doubles as a
//! differential check. Results append to `BENCH_vm.json`.
//!
//! `--smoke` is the CI gate: it runs scaled-down workloads, checks the
//! engines agree, compares the deterministic counts against
//! `BENCH_vm.baseline.json`, and applies a deliberately loose
//! wall-clock speedup floor (shared CI runners are noisy; the counts
//! are the precise part of the contract).

use std::process::ExitCode;
use std::time::Instant;

use parallax_bench::baseline_field;
use parallax_image::{LinkedImage, Program};
use parallax_vm::{Exit, Vm};
use parallax_x86::{AluOp, Asm, Cond, Mem, Reg32, RelocKind, SymReloc};

/// Distinct gadget copies per kind: a realistic protected image
/// dispatches over many scattered gadget addresses, not three hot ones
/// (which would be the reference `HashMap`'s best case).
const GADGET_COPIES: u32 = 32;

/// ROP chain of `rounds` × (pop imm → store → add) gadget dispatches,
/// rotating through [`GADGET_COPIES`] copies of each gadget.
fn chain_heavy(rounds: u32) -> LinkedImage {
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
    main.alu_ri(AluOp::And, Reg32::Ebx, 0xff);
    main.mov_ri(Reg32::Eax, 1);
    main.int(0x80);

    let mut p = Program::new();
    p.add_func("main", main.finish().unwrap());
    let mut pop_names = Vec::new();
    let mut add_names = Vec::new();
    let mut store_names = Vec::new();
    for i in 0..GADGET_COPIES {
        let mut g_pop = Asm::new();
        g_pop.pop_r(Reg32::Eax);
        g_pop.ret();
        let mut g_add = Asm::new();
        g_add.alu_rr(AluOp::Add, Reg32::Esi, Reg32::Eax);
        g_add.ret();
        let mut g_store = Asm::new();
        g_store.mov_mr(Mem::base(Reg32::Edi), Reg32::Eax);
        g_store.ret();
        pop_names.push(format!("g_pop_{i}"));
        add_names.push(format!("g_add_{i}"));
        store_names.push(format!("g_store_{i}"));
        p.add_func(&pop_names[i as usize], g_pop.finish().unwrap());
        p.add_func(&add_names[i as usize], g_add.finish().unwrap());
        p.add_func(&store_names[i as usize], g_store.finish().unwrap());
    }
    let mut g_pop_esp = Asm::new();
    g_pop_esp.pop_r(Reg32::Esp);
    g_pop_esp.ret();
    p.add_func("g_pop_esp", g_pop_esp.finish().unwrap());

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
    for i in 0..rounds {
        let copy = (i % GADGET_COPIES) as usize;
        slot(&mut chain, Some(&pop_names[copy]), 0);
        slot(&mut chain, None, i & 0xff);
        slot(&mut chain, Some(&store_names[copy]), 0);
        slot(&mut chain, Some(&add_names[copy]), 0);
    }
    slot(&mut chain, Some("g_pop_esp"), 0);
    slot(&mut chain, Some("resume_slot"), 0);
    p.add_data_with_relocs("chain", chain, relocs);
    p.add_bss("resume_slot", 8);
    p.add_bss("scratch", 8);
    p.set_entry("main");
    p.link().unwrap()
}

/// ROP chain through gadgets with 3-4 instruction bodies built from
/// the extended fast-op set (`lea`, `xchg`, `test`, `push [mem]`,
/// `pop [mem]`), rotating through [`GADGET_COPIES`] copies of each.
/// Every gadget fuses into a single `FusedGadget` dispatch; the
/// reference path decodes each instruction individually.
fn chain_fused3(rounds: u32) -> LinkedImage {
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
    main.alu_ri(AluOp::And, Reg32::Ebx, 0xff);
    main.mov_ri(Reg32::Eax, 1);
    main.int(0x80);

    let mut p = Program::new();
    p.add_func("main", main.finish().unwrap());
    let mut lea_names = Vec::new();
    let mut test_names = Vec::new();
    let mut mem_names = Vec::new();
    for i in 0..GADGET_COPIES {
        // pop eax; lea edx, [eax+4]; xchg edx, esi; ret  (3-op body)
        let mut g_lea = Asm::new();
        g_lea.pop_r(Reg32::Eax);
        g_lea.lea(Reg32::Edx, Mem::base_disp(Reg32::Eax, 4));
        g_lea.xchg_rr(Reg32::Edx, Reg32::Esi);
        g_lea.ret();
        // test esi, esi; add esi, eax; pop edx; ret  (3-op body,
        // final-pop pair-trick path)
        let mut g_test = Asm::new();
        g_test.test_rr(Reg32::Esi, Reg32::Esi);
        g_test.alu_rr(AluOp::Add, Reg32::Esi, Reg32::Eax);
        g_test.pop_r(Reg32::Edx);
        g_test.ret();
        // push esi; pop [edi]; push [edi]; pop edx; ret  (4-op body
        // with memory push/pop; net stack effect zero)
        let mut g_mem = Asm::new();
        g_mem.push_r(Reg32::Esi);
        g_mem.pop_m(Mem::base(Reg32::Edi));
        g_mem.push_m(Mem::base(Reg32::Edi));
        g_mem.pop_r(Reg32::Edx);
        g_mem.ret();
        lea_names.push(format!("g_lea_{i}"));
        test_names.push(format!("g_test_{i}"));
        mem_names.push(format!("g_mem_{i}"));
        p.add_func(&lea_names[i as usize], g_lea.finish().unwrap());
        p.add_func(&test_names[i as usize], g_test.finish().unwrap());
        p.add_func(&mem_names[i as usize], g_mem.finish().unwrap());
    }
    let mut g_pop_esp = Asm::new();
    g_pop_esp.pop_r(Reg32::Esp);
    g_pop_esp.ret();
    p.add_func("g_pop_esp", g_pop_esp.finish().unwrap());

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
    for i in 0..rounds {
        let copy = (i % GADGET_COPIES) as usize;
        slot(&mut chain, Some(&lea_names[copy]), 0);
        slot(&mut chain, None, i & 0xff);
        slot(&mut chain, Some(&test_names[copy]), 0);
        slot(&mut chain, None, i & 0x7f);
        slot(&mut chain, Some(&mem_names[copy]), 0);
    }
    slot(&mut chain, Some("g_pop_esp"), 0);
    slot(&mut chain, Some("resume_slot"), 0);
    p.add_data_with_relocs("chain", chain, relocs);
    p.add_bss("resume_slot", 8);
    p.add_bss("scratch", 8);
    p.set_entry("main");
    p.link().unwrap()
}

/// `iters` passes over a 48-instruction unrolled ALU body.
fn straight_line(iters: i32) -> LinkedImage {
    let mut a = Asm::new();
    a.mov_ri(Reg32::Eax, 0x1234_5678u32 as i32);
    a.mov_ri(Reg32::Edx, 0x9e37_79b9u32 as i32);
    a.mov_ri(Reg32::Ecx, iters);
    let top = a.here();
    for i in 0..12 {
        a.alu_rr(AluOp::Add, Reg32::Eax, Reg32::Edx);
        a.alu_ri(AluOp::Xor, Reg32::Eax, 0x5a5a_0000 | i);
        a.mov_rr(Reg32::Ebx, Reg32::Eax);
        a.alu_rr(AluOp::Sub, Reg32::Edx, Reg32::Ebx);
    }
    a.dec_r(Reg32::Ecx);
    a.jcc(Cond::Ne, top);
    a.mov_rr(Reg32::Ebx, Reg32::Eax);
    a.alu_ri(AluOp::And, Reg32::Ebx, 0xff);
    a.mov_ri(Reg32::Eax, 1);
    a.int(0x80);
    let mut p = Program::new();
    p.add_func("main", a.finish().unwrap());
    p.set_entry("main");
    p.link().unwrap()
}

/// A loop that rewrites the immediate of one of its own instructions
/// every iteration (requires `w_xor_x` off), then executes it.
fn self_modifying(iters: i32) -> LinkedImage {
    let mut a = Asm::new();
    a.mov_ri(Reg32::Esi, 0);
    a.mov_ri(Reg32::Ecx, iters);
    a.mov_ri_sym(Reg32::Edx, "main.patch", 1); // &imm32 of the patched mov
    let top = a.here();
    a.mov_mr(Mem::base(Reg32::Edx), Reg32::Ecx); // patch own text
    a.marker("patch");
    a.mov_ri(Reg32::Eax, 0); // imm rewritten to ecx each pass
    a.alu_rr(AluOp::Add, Reg32::Esi, Reg32::Eax);
    a.dec_r(Reg32::Ecx);
    a.jcc(Cond::Ne, top);
    a.mov_rr(Reg32::Ebx, Reg32::Esi);
    a.alu_ri(AluOp::And, Reg32::Ebx, 0xff);
    a.mov_ri(Reg32::Eax, 1);
    a.int(0x80);
    let mut p = Program::new();
    p.add_func("main", a.finish().unwrap());
    p.set_entry("main");
    p.link().unwrap()
}

struct Measured {
    workload: &'static str,
    cycles: u64,
    instructions: u64,
    block_ms: f64,
    reference_ms: f64,
    speedup: f64,
    block_hit_rate: f64,
}

/// Runs both engines on fresh VMs, checks they agree exactly, and
/// returns the timings. `reps` repeats each engine and keeps the best
/// wall time (minimum is the standard noise-robust statistic here).
fn measure(
    workload: &'static str,
    img: &LinkedImage,
    writable_text: bool,
    reps: u32,
) -> Result<Measured, String> {
    let run_one = |reference: bool| -> Result<(Exit, u64, u64, f64, f64), String> {
        let mut vm = Vm::new(img);
        if writable_text {
            vm.mem_mut().w_xor_x = false;
        }
        let start = Instant::now();
        let exit = if reference {
            vm.run_reference()
        } else {
            vm.run()
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if !matches!(exit, Exit::Exited(_)) {
            return Err(format!("{workload}: abnormal exit {exit:?}"));
        }
        let stats = vm.block_stats();
        let hit_rate = if stats.hits + stats.misses > 0 {
            stats.hits as f64 / (stats.hits + stats.misses) as f64
        } else {
            0.0
        };
        Ok((exit, vm.cycles(), vm.instructions, ms, hit_rate))
    };

    let mut block: Option<(Exit, u64, u64, f64, f64)> = None;
    let mut reference: Option<(Exit, u64, u64, f64, f64)> = None;
    for _ in 0..reps {
        let b = run_one(false)?;
        let r = run_one(true)?;
        let keep = |best: &mut Option<(Exit, u64, u64, f64, f64)>,
                    cur: (Exit, u64, u64, f64, f64)| {
            if best.as_ref().is_none_or(|prev| cur.3 < prev.3) {
                *best = Some(cur);
            }
        };
        keep(&mut block, b);
        keep(&mut reference, r);
    }
    let b = block.unwrap();
    let r = reference.unwrap();
    if (b.0, b.1, b.2) != (r.0, r.1, r.2) {
        return Err(format!(
            "{workload}: engines disagree — block (exit {:?}, {} cycles, {} insns) \
             vs reference (exit {:?}, {} cycles, {} insns)",
            b.0, b.1, b.2, r.0, r.1, r.2
        ));
    }
    Ok(Measured {
        workload,
        cycles: b.1,
        instructions: b.2,
        block_ms: b.3,
        reference_ms: r.3,
        speedup: r.3 / b.3.max(f64::MIN_POSITIVE),
        block_hit_rate: b.4,
    })
}

fn write_bench_json(records: &[Measured]) {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        out.push_str(&format!(
            "  {{\"bench\": \"vm_dispatch\", \"workload\": \"{}\", \"cycles\": {}, \
             \"instructions\": {}, \"block_ms\": {:.3}, \"reference_ms\": {:.3}, \
             \"speedup\": {:.2}, \"block_hit_rate\": {:.4}}}{comma}\n",
            r.workload,
            r.cycles,
            r.instructions,
            r.block_ms,
            r.reference_ms,
            r.speedup,
            r.block_hit_rate
        ));
    }
    out.push_str("]\n");
    if let Err(e) = std::fs::write("BENCH_vm.json", out) {
        eprintln!("warn: could not write BENCH_vm.json: {e}");
    }
}

fn workloads(smoke: bool) -> Vec<(&'static str, LinkedImage, bool)> {
    let (chain, line, smc) = if smoke {
        (4_000, 20_000, 8_000)
    } else {
        (100_000, 100_000, 40_000)
    };
    vec![
        ("chain_heavy", chain_heavy(chain), false),
        ("chain_fused3", chain_fused3(chain), false),
        ("straight_line", straight_line(line), false),
        ("self_modifying", self_modifying(smc), true),
    ]
}

fn print_measured(m: &Measured) {
    println!(
        "{:<14} {:>10} insns  block {:>8.2} ms  reference {:>8.2} ms  speedup {:>5.2}x  \
         hit-rate {:>5.1}%",
        m.workload,
        m.instructions,
        m.block_ms,
        m.reference_ms,
        m.speedup,
        m.block_hit_rate * 100.0
    );
}

fn smoke() -> ExitCode {
    let mut ok = true;
    let mut records = Vec::new();
    for (name, img, writable) in workloads(true) {
        match measure(name, &img, writable, 3) {
            Ok(m) => {
                print_measured(&m);
                records.push(m);
            }
            Err(e) => {
                eprintln!("FAIL {e}");
                ok = false;
            }
        }
    }
    write_bench_json(&records);

    match std::fs::read_to_string("BENCH_vm.baseline.json") {
        Ok(baseline) => {
            for m in &records {
                for (field, got) in [("cycles", m.cycles), ("instructions", m.instructions)] {
                    match baseline_field(&baseline, m.workload, field) {
                        Some(want) if want == got => {}
                        Some(want) => {
                            eprintln!(
                                "FAIL {}: {field} {got} != baseline {want} — engine \
                                 semantics drifted",
                                m.workload
                            );
                            ok = false;
                        }
                        None => {
                            eprintln!("FAIL {}: no baseline {field}", m.workload);
                            ok = false;
                        }
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("FAIL: cannot read BENCH_vm.baseline.json: {e}");
            ok = false;
        }
    }

    // Loose wall-clock floor: the block engine must not be slower than
    // the reference path it replaced. Full speedups are reported by the
    // default mode on quiet machines; CI only guards against regression
    // to parity or worse.
    for m in &records {
        if m.speedup < 1.2 {
            eprintln!(
                "FAIL {}: speedup {:.2}x below 1.2x floor — block engine regressed",
                m.workload, m.speedup
            );
            ok = false;
        }
    }

    if ok {
        println!("smoke OK: engines agree, counts match baseline, block engine faster");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn full() -> ExitCode {
    println!("vm dispatch — predecoded block engine vs per-instruction reference\n");
    let mut records = Vec::new();
    let mut ok = true;
    for (name, img, writable) in workloads(false) {
        match measure(name, &img, writable, 5) {
            Ok(m) => {
                print_measured(&m);
                records.push(m);
            }
            Err(e) => {
                eprintln!("FAIL {e}");
                ok = false;
            }
        }
    }
    write_bench_json(&records);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--smoke") {
        smoke()
    } else {
        full()
    }
}
