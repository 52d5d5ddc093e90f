//! Probabilistically generated verification chains (paper §V-B): the
//! chain is never stored; each call assembles a fresh variant from
//! per-position coefficient masks over a GF(2) basis, verifying a
//! different gadget subset every time.
//!
//! ```sh
//! cargo run --example probabilistic_chains
//! ```

use parallax::compiler::ir::build::*;
use parallax::compiler::{Function, Module};
use parallax::core::{protect, ChainMode, ProtectConfig};
use parallax::vm::{Exit, Vm, VmOptions};
use std::collections::HashSet;

fn main() {
    let mut m = Module::new();
    m.func(Function::new(
        "vf",
        ["a", "b"],
        vec![
            let_("x", add(mul(l("a"), c(3)), l("b"))),
            if_(
                gt_s(l("x"), c(100)),
                vec![ret(sub(l("x"), c(100)))],
                vec![ret(l("x"))],
            ),
        ],
    ));
    m.func(Function::new(
        "main",
        [],
        vec![ret(add(
            call("vf", vec![c(30), c(20)]),
            call("vf", vec![c(2), c(2)]),
        ))],
    ));
    m.entry("main");

    let variants = 5;
    let protected = protect(
        &m,
        &ProtectConfig {
            verify_funcs: vec!["vf".into()],
            mode: ChainMode::Probabilistic {
                variants,
                seed: 0xd1ce,
            },
            ..ProtectConfig::default()
        },
    )
    .expect("protects");
    let info = &protected.report.chains[0];
    println!(
        "N = {variants} compiled variants, chain length l = {} words",
        info.words
    );
    println!(
        "=> up to N^l = {variants}^{} runtime variants (paper §V-B)\n",
        info.words
    );

    let expect = Exit::Exited(10 + 8);
    let buf = protected.image.symbol("__plx_chain_vf").unwrap();
    let union: HashSet<u32> = info.used_gadgets.iter().copied().collect();

    let mut subsets = HashSet::new();
    for seed in [3u64, 14, 159, 2653, 58979] {
        let mut vm = Vm::with_options(
            &protected.image,
            VmOptions {
                seed,
                ..VmOptions::default()
            },
        );
        assert_eq!(vm.run(), expect, "every variant computes the same result");
        let bytes = vm.mem().read_bytes(buf.vaddr, buf.size).unwrap();
        let used: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .filter(|w| union.contains(w))
            .collect();
        let distinct: HashSet<u32> = used.iter().copied().collect();
        println!(
            "run (vm seed {seed:>6}): correct result, {} distinct gadgets verified",
            distinct.len()
        );
        subsets.insert({
            let mut v: Vec<u32> = distinct.into_iter().collect();
            v.sort_unstable();
            v
        });
    }
    println!(
        "\n{} runs produced {} distinct verified-gadget subsets;",
        5,
        subsets.len()
    );
    println!("an adversary cannot know which gadgets the next run will check,");
    println!("so a widely distributed crack keeps breaking for some users (§V-B).");
}
