//! Quickstart: protect a program, run it, tamper with it, watch it die.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use parallax::compiler::ir::build::*;
use parallax::compiler::{Function, Module};
use parallax::core::{protect, ProtectConfig};
use parallax::rewrite::analyze;
use parallax::vm::Vm;

fn main() {
    // 1. A program: `checksum` folds a buffer; `main` checks the result.
    //    (Programs are written in Parallax's IR and compiled to x86-32;
    //    with real tooling this would be any 32-bit binary.)
    let mut module = Module::new();
    module.global("data", (1u8..=32).collect());
    module.func(Function::new(
        "checksum",
        ["ptr", "len"],
        vec![
            let_("h", c(0x1505)),
            let_("i", c(0)),
            while_(
                lt_s(l("i"), l("len")),
                vec![
                    let_(
                        "h",
                        xor(
                            add(mul(l("h"), c(33)), load8(add(l("ptr"), l("i")))),
                            shrl(l("h"), c(20)),
                        ),
                    ),
                    let_("i", add(l("i"), c(1))),
                ],
            ),
            ret(l("h")),
        ],
    ));
    module.func(Function::new(
        "main",
        [],
        vec![ret(and(call("checksum", vec![g("data"), c(32)]), c(0xff)))],
    ));
    module.entry("main");

    // 2. The native baseline.
    let native = parallax::compiler::compile_module(&module)
        .unwrap()
        .link()
        .unwrap();
    let mut vm = Vm::new(&native);
    let expected = vm.run();
    println!("native run:            {expected}");
    // Figure 6's measure is taken on the unprotected image.
    println!(
        "protectable bytes:     {:.1}% of code (paper: 63-90%)",
        analyze(&native).any_pct()
    );

    // 3. Protect: `checksum` becomes ROP verification code; gadgets are
    //    crafted overlapping the remaining instructions.
    let protected = protect(
        &module,
        &ProtectConfig {
            verify_funcs: vec!["checksum".into()],
            ..ProtectConfig::default()
        },
    )
    .expect("protection succeeds");
    let report = &protected.report;
    println!(
        "protected:             {} gadgets in image, chain uses {} ({} overlapping protected code)",
        report.gadget_count,
        report.chains[0].used_gadgets.len(),
        report.chains[0].overlapping_used,
    );

    // 4. The protected binary behaves identically.
    let mut vm = Vm::new(&protected.image);
    let got = vm.run();
    println!("protected run:         {got}");
    assert_eq!(got, expected);

    // 5. Tamper with one byte of a gadget the chain uses...
    let victim = report.chains[0].used_gadgets[3];
    let mut cracked = protected.image.clone();
    cracked.write(victim, &[0x90]);
    let mut vm = Vm::new(&cracked);
    let outcome = vm.run();
    println!("tampered run:          {outcome}");
    assert_ne!(outcome, expected, "tampering must not go unnoticed");
    println!("\ntampering one byte at {victim:#x} broke the verification chain — detected.");
}
