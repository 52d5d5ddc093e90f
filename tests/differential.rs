//! Differential testing: protection must preserve the observable
//! behaviour of randomly generated programs, in every chain mode, and
//! tampering must not go unnoticed.

use parallax::core::{protect, ChainMode, ProtectConfig};
use parallax::vm::{Exit, Vm, VmOptions};
use parallax_corpus::randprog::Gen;

fn native_outcome(m: &parallax::compiler::Module) -> (Exit, Vec<u8>, u64) {
    let img = parallax::compiler::compile_module(m)
        .unwrap()
        .link()
        .unwrap();
    let mut vm = Vm::new(&img);
    let exit = vm.run();
    let cycles = vm.cycles();
    (exit, vm.take_output(), cycles)
}

#[test]
fn random_programs_survive_protection_cleartext() {
    for seed in 0..25u64 {
        let m = Gen::new(seed).module();
        let (exit, out, _) = native_outcome(&m);
        let Exit::Exited(_) = exit else {
            panic!("seed {seed}: native run failed");
        };
        let protected = protect(
            &m,
            &ProtectConfig {
                verify_funcs: vec!["vf".into()],
                ..ProtectConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: protect failed: {e}"));
        let mut vm = Vm::new(&protected.image);
        assert_eq!(vm.run(), exit, "seed {seed}: exit differs");
        assert_eq!(vm.take_output(), out, "seed {seed}: output differs");
    }
}

#[test]
fn random_programs_survive_protection_dynamic_modes() {
    for seed in [3u64, 11, 17] {
        let m = Gen::new(seed).module();
        let (exit, _, _) = native_outcome(&m);
        for mode in [
            ChainMode::XorEncrypted {
                key: seed as u32 | 1,
            },
            ChainMode::Rc4Encrypted { key: *b"diffkey!" },
            ChainMode::Probabilistic {
                variants: 3,
                seed: seed ^ 0xaaaa,
            },
        ] {
            let protected = protect(
                &m,
                &ProtectConfig {
                    verify_funcs: vec!["vf".into()],
                    mode: mode.clone(),
                    ..ProtectConfig::default()
                },
            )
            .unwrap_or_else(|e| panic!("seed {seed} mode {}: {e}", mode.name()));
            // Probabilistic chains must work across VM seeds too.
            for vm_seed in [1u64, 2] {
                let mut vm = Vm::with_options(
                    &protected.image,
                    VmOptions {
                        seed: vm_seed,
                        ..VmOptions::default()
                    },
                );
                assert_eq!(
                    vm.run(),
                    exit,
                    "seed {seed} mode {} vm_seed {vm_seed}",
                    mode.name()
                );
            }
        }
    }
}

/// Fuzz-tampering: flipping any single byte of a *used* gadget must
/// change observable behaviour for at least the vast majority of
/// gadgets; flipping never-executed, never-verified bytes must never
/// change it (no false positives).
#[test]
fn fuzz_tamper_detection_and_no_false_positives() {
    let mut m = Gen::new(7).module();
    // A dead function: never called, never executed. Bytes here that no
    // used gadget overlaps are legitimate no-false-positive targets.
    {
        use parallax::compiler::ir::build::*;
        use parallax::compiler::Function;
        m.func(Function::new(
            "cold_fn",
            ["x"],
            vec![
                let_("y", mul(l("x"), c(0x1234))),
                let_("y", add(l("y"), c(0x777))),
                ret(xor(l("y"), c(0x5a5a))),
            ],
        ));
    }
    let (exit, out, _) = native_outcome(&m);
    let protected = protect(
        &m,
        &ProtectConfig {
            verify_funcs: vec!["vf".into()],
            ..ProtectConfig::default()
        },
    )
    .unwrap();

    // Detection sweep over used gadgets, several patch values each.
    let gadgets = &protected.report.chains[0].used_gadgets;
    let mut detected = 0;
    let mut total = 0;
    for &g in gadgets {
        for patch in [0x90u8, 0xcc, 0x00] {
            total += 1;
            let mut img = protected.image.clone();
            img.write(g, &[patch]);
            let mut vm = Vm::new(&img);
            let got = vm.run();
            if got != exit || vm.take_output() != out {
                detected += 1;
            }
        }
    }
    assert!(
        detected * 10 >= total * 8,
        "only {detected}/{total} single-byte gadget patches detected"
    );

    // No false positives: patch bytes of the dead function that no
    // used gadget overlaps (within the 24-byte max gadget span).
    let cold = protected.image.symbol("cold_fn").unwrap();
    let used = &protected.report.chains[0].used_gadgets;
    let mut checked = 0;
    for va in cold.vaddr..cold.vaddr + cold.size {
        let overlapped = used.iter().any(|&g| g <= va && va < g.saturating_add(24));
        if overlapped {
            continue;
        }
        let mut img = protected.image.clone();
        img.write(va, &[0xcc]);
        let mut vm = Vm::new(&img);
        assert_eq!(
            vm.run(),
            exit,
            "dead-code patch at {va:#x} falsely broke the program"
        );
        checked += 1;
        if checked >= 5 {
            break;
        }
    }
    assert!(checked > 0, "no unverified dead bytes found");
}

/// Three-way differential: the IR interpreter (specification), the
/// compiled native binary, and the ROP-chain-protected binary must all
/// agree, for both results and emitted output.
#[test]
fn three_way_interpreter_native_chain() {
    for seed in 100..118u64 {
        let m = Gen::new(seed).module();

        // Specification.
        let mut interp = parallax::compiler::Interp::new(&m);
        let spec = match interp.run() {
            Ok(code) => code & 0xff, // main is masked in the generator
            Err(e) => panic!("seed {seed}: interpreter failed: {e}"),
        };

        // Native.
        let (native_exit, native_out, _) = native_outcome(&m);
        assert_eq!(
            native_exit,
            Exit::Exited(spec),
            "seed {seed}: native != interpreter"
        );
        assert_eq!(native_out, interp.output, "seed {seed}: output differs");

        // Chain.
        let protected = protect(
            &m,
            &ProtectConfig {
                verify_funcs: vec!["vf".into()],
                ..ProtectConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: protect failed: {e}"));
        let mut vm = Vm::new(&protected.image);
        assert_eq!(
            vm.run(),
            Exit::Exited(spec),
            "seed {seed}: chain != interpreter"
        );
    }
}

// ---------------------------------------------------------------------
// Block-engine differentials: the predecoded basic-block execution path
// must be observationally identical to the retained per-instruction
// reference interpreter — exits, output, cycle and instruction counts,
// eip, registers, flags, the flat profile, and chain-tracer dispatches
// and episodes. Both engines profile, so a block's single profile entry
// is checked against the reference's per-instruction range lookups.

use parallax::image::LinkedImage;
use parallax::vm::{DispatchEvent, Episode, Flags, FuncProfile};
use parallax::x86::{Mnemonic, Reg32};
use proptest::prelude::*;

/// Everything a run leaves observable.
#[derive(Debug, PartialEq)]
struct Observed {
    exit: Exit,
    output: Vec<u8>,
    cycles: u64,
    instructions: u64,
    eip: u32,
    regs: Vec<u32>,
    flags: Flags,
    profile: Vec<(String, FuncProfile)>,
    other_cycles: u64,
    total_cycles: u64,
    chains: Option<(Vec<DispatchEvent>, Vec<Episode>)>,
}

fn observe(vm: &mut Vm, exit: Exit) -> Observed {
    let prof = vm.profiler().expect("both engines profile").clone();
    Observed {
        exit,
        output: vm.take_output(),
        cycles: vm.cycles(),
        instructions: vm.instructions,
        eip: vm.cpu.eip,
        regs: Reg32::ALL.iter().map(|&r| vm.cpu.reg(r)).collect(),
        flags: vm.cpu.flags,
        profile: prof
            .iter()
            .map(|(n, f)| (n.to_owned(), f.clone()))
            .collect(),
        other_cycles: prof.other_cycles,
        total_cycles: prof.total_cycles,
        chains: vm
            .take_chain_tracer()
            .map(|t| (t.events().collect(), t.episodes().to_vec())),
    }
}

/// Runs `img` through both engines on fresh profiling VMs under
/// `cycle_limit`, each prepared by `setup` (input, chain tracer, code
/// patches), and asserts full observable equality. Returns what the
/// block engine observed.
fn engines_agree(
    img: &LinkedImage,
    cycle_limit: u64,
    setup: &dyn Fn(&mut Vm),
    label: &str,
) -> Observed {
    let opts = VmOptions {
        profile: true,
        cycle_limit,
        ..VmOptions::default()
    };
    let mut blocked = Vm::with_options(img, opts.clone());
    let mut reference = Vm::with_options(img, opts);
    setup(&mut blocked);
    setup(&mut reference);
    let a = blocked.run();
    let b = reference.run_reference();
    let (a, b) = (observe(&mut blocked, a), observe(&mut reference, b));
    assert_eq!(a, b, "{label}: engines differ");
    a
}

/// [`engines_agree`] over a whole run on `input`. Returns the shared
/// exit for further checks.
fn assert_engines_agree(img: &LinkedImage, input: &[u8], label: &str) -> Exit {
    let input = input.to_vec();
    engines_agree(img, u64::MAX, &|vm| vm.set_input(&input), label).exit
}

fn corpus_image(w: &parallax_corpus::Workload) -> LinkedImage {
    parallax::compiler::compile_module(&(w.module)())
        .unwrap()
        .link()
        .unwrap()
}

/// The four chain modes of the paper's Figure 5.
fn chain_modes() -> [ChainMode; 4] {
    [
        ChainMode::Cleartext,
        ChainMode::XorEncrypted { key: 0x5eed_0042 },
        ChainMode::Rc4Encrypted { key: *b"parallax" },
        ChainMode::Probabilistic {
            variants: 6,
            seed: 0xfeed,
        },
    ]
}

fn protect_in(w: &parallax_corpus::Workload, mode: ChainMode) -> parallax::core::Protected {
    protect(
        &(w.module)(),
        &ProtectConfig {
            verify_funcs: vec![w.verify_func.to_owned()],
            mode,
            ..ProtectConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn block_engine_matches_reference_on_corpus() {
    for w in parallax_corpus::all() {
        let exit = assert_engines_agree(&corpus_image(&w), &(w.input)(), w.name);
        assert!(matches!(exit, Exit::Exited(_)), "{}: did not exit", w.name);
    }
}

#[test]
fn block_engine_matches_reference_on_protected_chains() {
    // Protected images execute ROP chains — the workload the block
    // cache exists for. Chain-tracer episodes must match dispatch for
    // dispatch, proving per-instruction hook fidelity, in every mode.
    let w = parallax_corpus::by_name("bzip2").unwrap();
    let input = (w.input)();
    for mode in chain_modes() {
        let protected = protect_in(&w, mode.clone());
        let setup = |vm: &mut Vm| {
            vm.set_chain_tracer(parallax::core::chain_tracer_for(&protected));
            vm.set_input(&input);
        };
        let seen = engines_agree(&protected.image, u64::MAX, &setup, mode.name());
        assert!(matches!(seen.exit, Exit::Exited(_)), "{}", mode.name());
        let (_, episodes) = seen.chains.unwrap();
        assert!(
            !episodes.is_empty(),
            "{}: chains should have executed",
            mode.name()
        );
    }
}

#[test]
fn block_engine_matches_reference_under_tamper() {
    // Tampered images are where semantic drift would be catastrophic:
    // both engines must reach the *same* wrong answer or fault.
    let m = Gen::new(7).module();
    let protected = protect(
        &m,
        &ProtectConfig {
            verify_funcs: vec!["vf".into()],
            ..ProtectConfig::default()
        },
    )
    .unwrap();
    for (i, &g) in protected.report.chains[0]
        .used_gadgets
        .iter()
        .take(8)
        .enumerate()
    {
        let mut img = protected.image.clone();
        img.write(g, &[0x90]);
        assert_engines_agree(&img, &[], &format!("tamper #{i} at {g:#x}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Property: for any generated program, the block engine and the
    /// reference interpreter are observationally identical.
    #[test]
    fn block_engine_matches_reference_on_random_programs(seed in 0u64..10_000) {
        let m = Gen::new(seed).module();
        let img = parallax::compiler::compile_module(&m).unwrap().link().unwrap();
        assert_engines_agree(&img, &[], &format!("seed {seed}"));
    }
}

// ---------------------------------------------------------------------
// Mid-block exits: the block engine checks the cycle limit once per
// block when the block's bound fits under it, and writes its cycle and
// instruction counts, eip and profile back only when the block ends.
// A run stopped inside a block — by the cycle limit or by a fault —
// must still leave exactly the reference's state.

/// Cycle limits in tier-1: this many limits over each program's
/// start, and this many dispatches of each protected image, each with
/// a few limits inside the gadget it enters. The ignored sweep takes
/// every limit.
const TIER1_LIMITS: u64 = 12;

/// Sweeps cycle limits over the start of each corpus program, where
/// generic blocks run, and into the gadgets of one protected image per
/// chain mode, where fused gadgets run. A dispatch's `at_cycles` is
/// the count when its gadget starts; the dispatches come from the
/// second chain episode on, when the gadgets' blocks are cached and run
/// fused (a block's first run is a generic one). The gadget limits are
/// pinned by count and FNV-1a digest, so the dispatch stamps they are
/// taken from cannot drift unseen.
fn sweep_cycle_limits(full: bool) {
    let (width, step) = if full {
        (600, 1)
    } else {
        (240, 240 / TIER1_LIMITS)
    };
    for w in parallax_corpus::all() {
        let img = corpus_image(&w);
        let input = (w.input)();
        for limit in (1..=width).step_by(step as usize) {
            let seen = engines_agree(
                &img,
                limit,
                &|vm| vm.set_input(&input),
                &format!("{} limit {limit}", w.name),
            );
            assert_eq!(seen.exit, Exit::CycleLimit, "{} limit {limit}", w.name);
        }
    }
    let (dispatches, offsets, pinned): (usize, &[u64], _) = if full {
        (
            48,
            &[1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 28],
            (2688, 0x66c8_056d_789a_1306),
        )
    } else {
        (
            TIER1_LIMITS as usize / 3,
            &[1, 4, 8],
            (48, 0x94a6_9f13_4c08_3419),
        )
    };
    let mut limits = Vec::new();
    let w = parallax_corpus::by_name("gzip").unwrap();
    let input = (w.input)();
    for mode in chain_modes() {
        let protected = protect_in(&w, mode.clone());
        let setup = |vm: &mut Vm| {
            vm.set_chain_tracer(parallax::core::chain_tracer_for(&protected));
            vm.set_input(&input);
        };
        let whole = engines_agree(&protected.image, u64::MAX, &setup, mode.name());
        let (seen_dispatches, _) = whole.chains.unwrap();
        let again = seen_dispatches.iter().filter(|d| d.episode > 0);
        for d in again.take(dispatches) {
            for off in offsets {
                let limit = d.at_cycles + off;
                let label = format!("{} limit {limit}", mode.name());
                let seen = engines_agree(&protected.image, limit, &setup, &label);
                assert_eq!(seen.exit, Exit::CycleLimit, "{label}");
                limits.push(limit);
            }
        }
    }
    let digest = limits
        .iter()
        .flat_map(|l| l.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    assert_eq!((limits.len(), digest), pinned, "gadget limits moved");
}

#[test]
fn mid_block_cycle_limits_match_reference() {
    sweep_cycle_limits(false);
}

#[test]
#[ignore = "full sweep; CI runs it in the release test step"]
fn mid_block_cycle_limits_match_reference_full_sweep() {
    sweep_cycle_limits(true);
}

#[test]
fn mid_block_faults_match_reference() {
    // Make an instruction inside a straight-line run of each corpus
    // program's verification function fault: flip the opcode byte of a
    // `mov eax, imm32` whose immediate lies below text (b8 → a1 turns
    // it into a load from that unmapped address), or else overwrite
    // the instruction with a load from address 0 padded with `nop`s.
    // The run faults mid-block, and both engines must stop with the
    // same counts, eip, registers and profile.
    let mut a = parallax::x86::Asm::new();
    a.mov_rm(Reg32::Eax, parallax::x86::Mem::abs(0));
    let load = a.finish().unwrap().bytes;
    let (mut faulted, mut flips_faulted) = (0, 0);
    for w in parallax_corpus::all() {
        let img = corpus_image(&w);
        let input = (w.input)();
        let f = img.funcs().find(|s| s.name == w.verify_func).unwrap();
        let text = |va: u32| &img.text[(va - img.text_base) as usize..];
        let mut at = f.vaddr;
        let mut prev_ends_run = true;
        let mut patched = 0;
        while at < f.vaddr + f.size && patched < 3 {
            let Ok(insn) = parallax::x86::decode(text(at)) else {
                break;
            };
            let len = insn.len as usize;
            let code = &text(at)[..len];
            let low_imm = code[0] == 0xb8
                && u32::from_le_bytes(code[1..5].try_into().unwrap()) < img.text_base;
            let patch = if prev_ends_run {
                None
            } else if low_imm {
                Some(vec![0xa1])
            } else if len >= load.len() {
                let mut bytes = load.clone();
                bytes.resize(len, 0x90);
                Some(bytes)
            } else {
                None
            };
            if let Some(bytes) = patch {
                let setup = |vm: &mut Vm| {
                    vm.set_input(&input);
                    vm.write_code(at, &bytes).unwrap();
                };
                let label = format!("{} fault at {at:#x}", w.name);
                let seen = engines_agree(&img, u64::MAX, &setup, &label);
                let fault = matches!(seen.exit, Exit::Fault(_)) as usize;
                faulted += fault;
                flips_faulted += fault * low_imm as usize;
                patched += 1;
            }
            prev_ends_run = insn.is_terminator()
                || matches!(
                    insn.mnemonic,
                    Mnemonic::Call | Mnemonic::CallInd | Mnemonic::Int | Mnemonic::Int3
                );
            at += len as u32;
        }
    }
    assert!(faulted > 0, "no patch faulted");
    assert!(flips_faulted > 0, "no one-byte flip faulted");
}

/// Links `main`, which calls `f` and exits with its result, around the
/// body `f` emits, ending it with `ret`.
fn with_callee(f: impl Fn(&mut parallax::x86::Asm)) -> LinkedImage {
    use parallax::x86::Asm;
    let mut main = Asm::new();
    main.call_sym("f");
    main.mov_rr(Reg32::Ebx, Reg32::Eax);
    main.mov_ri(Reg32::Eax, 1);
    main.int(0x80);
    let mut callee = Asm::new();
    f(&mut callee);
    callee.ret();
    let mut p = parallax::image::Program::new();
    p.add_func("main", main.finish().unwrap());
    p.add_func("f", callee.finish().unwrap());
    p.set_entry("main");
    p.link().unwrap()
}

#[test]
fn mid_block_faults_after_slow_ops_match_reference() {
    // A block inside one function runs at its precomputed cost, which
    // leaves out its `Slow` ops: they add what `exec_insn` charges as
    // they run. A fault later in the same block must stop with exactly
    // the cycles retired, the `Slow` ones included. `mul`, `cdq` and
    // `div` are `Slow` with three different costs; the fault is a fast
    // load from unmapped memory, or a `Slow` divide by zero.
    use parallax::x86::{Asm, Mem};
    let slow_then = |fault: &dyn Fn(&mut Asm)| {
        with_callee(|a| {
            a.mov_ri(Reg32::Ecx, 3);
            a.mov_ri(Reg32::Eax, 7);
            a.mul_r(Reg32::Ecx);
            a.push_r(Reg32::Eax);
            a.cdq();
            a.div_r(Reg32::Ecx);
            a.pop_r(Reg32::Edx);
            fault(a);
            a.mov_ri(Reg32::Eax, 0);
        })
    };
    let load = slow_then(&|a| a.mov_rm(Reg32::Eax, Mem::abs(0)));
    let divide = slow_then(&|a| {
        a.mov_ri(Reg32::Ecx, 0);
        a.div_r(Reg32::Ecx);
    });
    for (label, img) in [("fast load", load), ("slow divide", divide)] {
        let seen = engines_agree(&img, u64::MAX, &|_| {}, label);
        assert!(
            matches!(seen.exit, Exit::Fault(_)),
            "{label}: {:?}",
            seen.exit
        );
        let mut vm = Vm::with_options(
            &img,
            VmOptions {
                profile: true,
                ..VmOptions::default()
            },
        );
        vm.run();
        assert_eq!(vm.block_stats().checked, 0, "{label}: a checked block ran");
    }
}
