//! The VM's two block paths must agree. Under W⊕X a block inside one
//! function runs at its precomputed cost (the lean path); with W⊕X off
//! every block runs op by op with its cycle, dirty-code and profile
//! bookkeeping (the checked path). Turning W⊕X off changes nothing else
//! for a program that never writes its text, so both runs of each
//! corpus program, unprotected and protected in every Figure-5 mode,
//! must leave the same state behind.

use parallax_bench::fig5_modes;
use parallax_compiler::compile_module;
use parallax_core::{chain_tracer_for, protect, ProtectConfig};
use parallax_image::LinkedImage;
use parallax_vm::{ChainTracer, DispatchEvent, Exit, Flags, FuncProfile, Vm, VmOptions};
use parallax_x86::Reg32;

/// Everything a run leaves observable, and how many blocks ran on the
/// checked path.
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
    events: Vec<DispatchEvent>,
}

fn run(
    img: &LinkedImage,
    input: &[u8],
    tracer: Option<ChainTracer>,
    w_xor_x: bool,
) -> (Observed, u64) {
    let mut vm = Vm::with_options(
        img,
        VmOptions {
            profile: true,
            ..VmOptions::default()
        },
    );
    vm.mem_mut().w_xor_x = w_xor_x;
    if let Some(t) = tracer {
        vm.set_chain_tracer(t);
    }
    vm.set_input(input);
    let exit = vm.run();
    let prof = vm.profiler().expect("profiled").clone();
    let seen = Observed {
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
        events: vm
            .take_chain_tracer()
            .map_or_else(Vec::new, |t| t.events().collect()),
    };
    (seen, vm.block_stats().checked)
}

#[test]
fn lean_and_checked_paths_agree_on_corpus() {
    for w in parallax_corpus::all() {
        let module = (w.module)();
        let input = (w.input)();
        let base = compile_module(&module).unwrap().link().unwrap();
        let mut images = vec![("unprotected".to_owned(), base, None)];
        for mode in fig5_modes() {
            let cfg = ProtectConfig {
                verify_funcs: vec![w.verify_func.to_owned()],
                mode,
                ..ProtectConfig::default()
            };
            let p = protect(&module, &cfg).unwrap();
            let tracer = chain_tracer_for(&p);
            images.push((cfg.mode.name().to_owned(), p.image, Some(tracer)));
        }
        for (label, img, tracer) in images {
            let label = format!("{} {label}", w.name);
            let (lean, lean_checked) = run(&img, &input, tracer.clone(), true);
            let (checked, checked_blocks) = run(&img, &input, tracer.clone(), false);
            assert!(
                matches!(lean.exit, Exit::Exited(_)),
                "{label}: {:?}",
                lean.exit
            );
            assert_eq!(lean, checked, "{label}: the paths differ");
            assert_eq!(lean_checked, 0, "{label}: a block ran checked under W⊕X");
            assert!(checked_blocks > 0, "{label}: no block ran checked");
            if tracer.is_some() {
                assert!(!lean.events.is_empty(), "{label}: no chain ran");
            }
        }
    }
}
