//! Property tests for the rewriting engine and the immediate rule.

use proptest::prelude::*;

use parallax_compiler::ir::build::*;
use parallax_compiler::{compile_module, Function, Module};
use parallax_corpus::randprog::Gen;
use parallax_rewrite::{protect_program_parallel, FuncRewriter, RewriteConfig};
use parallax_vm::{Exit, Vm};

/// Compiles a random module and returns its native outcome.
fn outcome(img: &parallax_image::LinkedImage) -> (Exit, Vec<u8>) {
    let mut vm = Vm::new(img);
    let exit = vm.run();
    (exit, vm.take_output())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// lift ∘ finish is the identity on every compiled function.
    #[test]
    fn lift_finish_identity(seed in 0u64..5000) {
        let m = Gen::new(seed).module();
        let prog = compile_module(&m).unwrap();
        for name in prog.func_names() {
            let f = prog.func(name).unwrap();
            let rw = FuncRewriter::lift(f).unwrap();
            let (out, _) = rw.finish(f.pad_before).unwrap();
            prop_assert_eq!(&out.bytes, &f.bytes, "{}", name);
            prop_assert_eq!(&out.relocs, &f.relocs, "{}", name);
        }
    }

    /// Applying ALL rewriting rules preserves program behaviour exactly
    /// (the §IV-B correctness contract), for random programs.
    #[test]
    fn rules_preserve_semantics(seed in 0u64..5000, completion in any::<bool>()) {
        let m = Gen::new(seed).module();
        let base = compile_module(&m).unwrap().link().unwrap();
        let (exit, out) = outcome(&base);
        prop_assume!(matches!(exit, Exit::Exited(_)));

        let mut prog = compile_module(&m).unwrap();
        let targets: Vec<String> =
            m.funcs.iter().map(|f| f.name.clone()).collect();
        let cfg = RewriteConfig {
            imm_completion_always: completion,
            ..RewriteConfig::default()
        };
        protect_program_parallel(&mut prog, &targets, &cfg, 1, None, None).unwrap();
        let img = prog.link().unwrap();
        let (exit2, out2) = outcome(&img);
        prop_assert_eq!(exit2, exit, "seed {}", seed);
        prop_assert_eq!(out2, out, "seed {}", seed);
    }

    /// Rewriting strictly increases the number of discoverable gadgets
    /// whenever it reports crafted sites.
    #[test]
    fn rewriting_adds_gadgets(seed in 0u64..1000) {
        let m = Gen::new(seed).module();
        let base = compile_module(&m).unwrap().link().unwrap();
        let before = parallax_gadgets::find_gadgets(&base).len();

        let mut prog = compile_module(&m).unwrap();
        let targets: Vec<String> = m.funcs.iter().map(|f| f.name.clone()).collect();
        let report =
            protect_program_parallel(&mut prog, &targets, &RewriteConfig::default(), 1, None, None)
                .unwrap();
        prop_assume!(report.crafted_count() > 0);
        let img = prog.link().unwrap();
        let after = parallax_gadgets::find_gadgets(&img).len();
        prop_assert!(
            after > before,
            "crafted {} sites but gadgets went {} -> {}",
            report.crafted_count(),
            before,
            after
        );
    }
}

/// Deterministic regression: splitting a specific immediate in a
/// function with an internal branch keeps the branch target intact.
#[test]
fn splitting_near_branches_is_safe() {
    let mut m = Module::new();
    m.func(Function::new(
        "f",
        ["x"],
        vec![
            let_("y", mul(l("x"), c(0x01020304))),
            if_(
                gt_s(l("y"), c(0)),
                vec![let_("y", add(l("y"), c(0x0a0b0c0d)))],
                vec![let_("y", sub(l("y"), c(0x0102)))],
            ),
            ret(l("y")),
        ],
    ));
    m.func(Function::new(
        "main",
        [],
        vec![ret(and(
            add(call("f", vec![c(3)]), call("f", vec![c(-3)])),
            c(0xff),
        ))],
    ));
    m.entry("main");

    let base = compile_module(&m).unwrap().link().unwrap();
    let mut vm = Vm::new(&base);
    let expect = vm.run();

    let mut prog = compile_module(&m).unwrap();
    protect_program_parallel(
        &mut prog,
        &["f".to_owned(), "main".to_owned()],
        &RewriteConfig::default(),
        1,
        None,
        None,
    )
    .unwrap();
    let img = prog.link().unwrap();
    let mut vm = Vm::new(&img);
    assert_eq!(vm.run(), expect);
}
