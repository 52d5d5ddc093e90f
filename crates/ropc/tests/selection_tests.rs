//! Focused tests of the chain compiler's gadget-selection rules, using
//! fabricated gadget maps (no VM execution — the chains are inspected
//! structurally).

// Test helpers unwrap freely (the crate-level unwrap_used deny is for
// production paths).
#![allow(clippy::unwrap_used)]

use parallax_compiler::ir::build::*;
use parallax_compiler::Function;
use std::sync::Arc;

use parallax_gadgets::{Effect, GBinOp, Gadget, GadgetMap, GadgetRecord};
use parallax_image::LinkedImage;
use parallax_ropc::{compile_chain, install_runtime, ChainError, Policy, Word};
use parallax_x86::Reg32;

fn gadget(vaddr: u32, slots: u32, effects: Vec<Effect>, clobbers: Vec<Reg32>) -> Gadget {
    Gadget::new(
        vaddr,
        GadgetRecord {
            len: 2,
            far: false,
            slots,
            effects,
            clobbers,
            mem_preconditions: vec![],
            disasm: format!("fab@{vaddr:#x}"),
            insn_count: 2,
        },
    )
}

/// A minimal runtime-bearing image (the chain compiler needs the cell
/// and pivot-slot symbols).
fn runtime_image() -> LinkedImage {
    let mut p = parallax_image::Program::new();
    let mut main = parallax_x86::Asm::new();
    main.mov_ri(Reg32::Eax, 1);
    main.int(0x80);
    p.add_func("main", main.finish().unwrap());
    install_runtime(&mut p);
    p.add_bss("frame", 512);
    p.add_bss("scratch", 512);
    p.set_entry("main");
    p.link().unwrap()
}

/// The full fabricated standard set on the chain ABI.
fn full_map(extra: Vec<Gadget>) -> GadgetMap {
    let mut g = vec![
        gadget(
            0x100,
            1,
            vec![Effect::LoadConst {
                dst: Reg32::Eax,
                slot: 0,
            }],
            vec![],
        ),
        gadget(
            0x102,
            1,
            vec![Effect::LoadConst {
                dst: Reg32::Ecx,
                slot: 0,
            }],
            vec![],
        ),
        gadget(
            0x104,
            0,
            vec![Effect::MovReg {
                dst: Reg32::Ecx,
                src: Reg32::Eax,
            }],
            vec![],
        ),
        gadget(
            0x106,
            0,
            vec![Effect::MovReg {
                dst: Reg32::Eax,
                src: Reg32::Ecx,
            }],
            vec![],
        ),
        gadget(
            0x108,
            0,
            vec![Effect::Binary {
                op: GBinOp::Add,
                dst: Reg32::Eax,
                src: Reg32::Ecx,
            }],
            vec![],
        ),
        gadget(
            0x10a,
            0,
            vec![Effect::Binary {
                op: GBinOp::Sub,
                dst: Reg32::Eax,
                src: Reg32::Ecx,
            }],
            vec![],
        ),
        gadget(
            0x10c,
            0,
            vec![Effect::Binary {
                op: GBinOp::Xor,
                dst: Reg32::Eax,
                src: Reg32::Ecx,
            }],
            vec![],
        ),
        gadget(
            0x10e,
            0,
            vec![Effect::LoadMem {
                dst: Reg32::Eax,
                addr: Reg32::Ecx,
                off: 0,
            }],
            vec![],
        ),
        gadget(
            0x110,
            0,
            vec![Effect::LoadMem {
                dst: Reg32::Ecx,
                addr: Reg32::Ecx,
                off: 0,
            }],
            vec![],
        ),
        gadget(
            0x112,
            0,
            vec![Effect::StoreMem {
                addr: Reg32::Ecx,
                off: 0,
                src: Reg32::Eax,
            }],
            vec![],
        ),
        gadget(0x114, 0, vec![Effect::PopEsp], vec![]),
        gadget(0x116, 0, vec![Effect::AddEsp { src: Reg32::Eax }], vec![]),
    ];
    g.extend(extra);
    GadgetMap::new(g)
}

#[test]
fn missing_gadget_type_is_reported() {
    let img = runtime_image();
    // Map with no Binary Add.
    let map = GadgetMap::new(vec![
        gadget(
            0x100,
            1,
            vec![Effect::LoadConst {
                dst: Reg32::Eax,
                slot: 0,
            }],
            vec![],
        ),
        gadget(
            0x102,
            1,
            vec![Effect::LoadConst {
                dst: Reg32::Ecx,
                slot: 0,
            }],
            vec![],
        ),
        gadget(
            0x112,
            0,
            vec![Effect::StoreMem {
                addr: Reg32::Ecx,
                off: 0,
                src: Reg32::Eax,
            }],
            vec![],
        ),
        gadget(0x114, 0, vec![Effect::PopEsp], vec![]),
    ]);
    let f = Function::new("vf", [], vec![ret(add(c(1), c(2)))]);
    let frame = img.symbol("frame").unwrap().vaddr;
    let scratch = img.symbol("scratch").unwrap().vaddr;
    let err = compile_chain(&f, &map, &img, frame, scratch, Policy::First).unwrap_err();
    assert!(matches!(err, ChainError::MissingGadget(_)), "{err}");
}

#[test]
fn clobbering_gadgets_avoided_while_register_is_live() {
    let img = runtime_image();
    // Two LoadConst(ecx) gadgets: the cheap one at 0x200 clobbers eax.
    let map = full_map(vec![gadget(
        0x200,
        1,
        vec![Effect::LoadConst {
            dst: Reg32::Ecx,
            slot: 0,
        }],
        vec![Reg32::Eax],
    )]);
    // `ret(a + 1)`: after evaluating `a` into eax, the constant loads
    // into ecx must NOT pick the eax-clobbering 0x200 gadget.
    let f = Function::new("vf", ["a"], vec![ret(add(l("a"), c(1)))]);
    let frame = img.symbol("frame").unwrap().vaddr;
    let scratch = img.symbol("scratch").unwrap().vaddr;
    let out = compile_chain(&f, &map, &img, frame, scratch, Policy::First).unwrap();

    // Find the Add gadget (0x108); the LoadConst(ecx) directly before
    // it (while eax holds `a`) must be the clean 0x102.
    let words = out.chain.words();
    let add_pos = words
        .iter()
        .position(|w| matches!(w, Word::Gadget(0x108)))
        .expect("add gadget used");
    let prior_loadconst = words[..add_pos]
        .iter()
        .rev()
        .find_map(|w| match w {
            Word::Gadget(v) if *v == 0x102 || *v == 0x200 => Some(*v),
            _ => None,
        })
        .expect("a LoadConst(ecx) precedes the add");
    assert_eq!(
        prior_loadconst, 0x102,
        "the eax-clobbering gadget must not be used while eax is live"
    );
}

#[test]
fn junk_slots_filled_for_multi_pop_gadgets() {
    let img = runtime_image();
    // Only LoadConst(eax) available consumes 3 slots, value in slot 1.
    let mut gs = full_map(vec![]).gadgets().to_vec();
    gs.retain(|g| {
        !g.effects.iter().any(|e| {
            matches!(
                e,
                Effect::LoadConst {
                    dst: Reg32::Eax,
                    ..
                }
            )
        })
    });
    gs.push(gadget(
        0x300,
        3,
        vec![Effect::LoadConst {
            dst: Reg32::Eax,
            slot: 1,
        }],
        vec![Reg32::Edx, Reg32::Ebx],
    ));
    let map = GadgetMap::new(gs);
    let f = Function::new("vf", [], vec![ret(c(0x42))]);
    let frame = img.symbol("frame").unwrap().vaddr;
    let scratch = img.symbol("scratch").unwrap().vaddr;
    let out = compile_chain(&f, &map, &img, frame, scratch, Policy::First).unwrap();
    let words = out.chain.words();
    let pos = words
        .iter()
        .position(|w| matches!(w, Word::Gadget(0x300)))
        .expect("multi-pop gadget used");
    // Layout: [gadget][junk][const][junk]
    assert!(matches!(words[pos + 1], Word::Junk));
    assert!(matches!(words[pos + 2], Word::Const(0x42)));
    assert!(matches!(words[pos + 3], Word::Junk));
}

#[test]
fn far_gadgets_get_cs_slots_and_pivots_stay_near() {
    let img = runtime_image();
    // The ONLY Binary Add gadget is a far one; PopEsp has near + far.
    let mut far_add = gadget(
        0x400,
        0,
        vec![Effect::Binary {
            op: GBinOp::Add,
            dst: Reg32::Eax,
            src: Reg32::Ecx,
        }],
        vec![],
    );
    Arc::make_mut(&mut far_add.record).far = true;
    let mut far_pivot = gadget(0x402, 0, vec![Effect::PopEsp], vec![]);
    Arc::make_mut(&mut far_pivot.record).far = true;
    let mut gs = full_map(vec![far_add, far_pivot]).gadgets().to_vec();
    gs.retain(|g| g.vaddr != 0x108); // remove the near add
    let map = GadgetMap::new(gs);

    let f = Function::new("vf", [], vec![ret(add(c(1), c(2)))]);
    let frame = img.symbol("frame").unwrap().vaddr;
    let scratch = img.symbol("scratch").unwrap().vaddr;
    let out = compile_chain(&f, &map, &img, frame, scratch, Policy::First).unwrap();
    let words = out.chain.words();

    // The far add is used; the word *after the next gadget address*
    // must be the dummy CS.
    let pos = words
        .iter()
        .position(|w| matches!(w, Word::Gadget(0x400)))
        .expect("far add used");
    assert!(
        matches!(words[pos + 2], Word::DummyCs),
        "layout around far gadget: {:?}",
        &words[pos..pos + 3.min(words.len() - pos)]
    );

    // The final pivot must be the near one (0x114), never 0x402.
    assert!(
        words.iter().any(|w| matches!(w, Word::Gadget(0x114))),
        "near pivot used"
    );
    assert!(
        !words.iter().any(|w| matches!(w, Word::Gadget(0x402))),
        "far pivot must not be used"
    );
}

#[test]
fn grouped_policy_produces_equal_length_variants() {
    let img = runtime_image();
    // Three interchangeable Add gadgets with identical shape.
    let map = full_map(vec![
        gadget(
            0x500,
            0,
            vec![Effect::Binary {
                op: GBinOp::Add,
                dst: Reg32::Eax,
                src: Reg32::Ecx,
            }],
            vec![],
        ),
        gadget(
            0x502,
            0,
            vec![Effect::Binary {
                op: GBinOp::Add,
                dst: Reg32::Eax,
                src: Reg32::Ecx,
            }],
            vec![],
        ),
    ]);
    let f = Function::new(
        "vf",
        ["a"],
        vec![
            let_("x", add(l("a"), c(3))),
            let_("x", add(l("x"), c(5))),
            let_("x", add(l("x"), c(7))),
            ret(l("x")),
        ],
    );
    let frame = img.symbol("frame").unwrap().vaddr;
    let scratch = img.symbol("scratch").unwrap().vaddr;
    let mut lens = Vec::new();
    let mut distinct_choices = std::collections::HashSet::new();
    for seed in 1..8u64 {
        let out = compile_chain(&f, &map, &img, frame, scratch, Policy::Grouped { seed }).unwrap();
        lens.push(out.chain.len());
        for w in out.chain.words() {
            if let Word::Gadget(v) = w {
                if matches!(v, 0x108 | 0x500 | 0x502) {
                    distinct_choices.insert(*v);
                }
            }
        }
    }
    assert!(lens.windows(2).all(|w| w[0] == w[1]), "lengths: {lens:?}");
    assert!(
        distinct_choices.len() > 1,
        "different seeds should choose different equivalent gadgets"
    );
}
