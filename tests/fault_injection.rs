//! Deterministic fault injection across every stage boundary of the
//! protection pipeline: each perturbation must surface as the correct
//! typed [`ProtectError`] or be contained and classified by the
//! tamper-verdict watchdog — zero panics, zero unbounded hangs.

use parallax::core::{
    apply_image_fault, classify, load_verified_image, load_verified_image_strict, protect,
    protect_with, run_baseline, truncate_chain, Baseline, ChainMode, Ctx, ErrorKind, FaultPlan,
    ImageFault, ProtectConfig, ProtectError, Protected, Stage, Verdict,
};
use parallax::vm::{Exit, Vm, VmOptions};
use parallax::x86::{Asm, Reg32};
use parallax_compiler::ir::build::*;
use parallax_compiler::{compile_module, Function, Module};
use parallax_image::{format, FormatError, ImageVerifyError, Program};

/// A small program with a verification function (`vf`), a protected
/// license check (`licensed`), and a never-called function (`dead`)
/// whose bytes are outside every protected range.
fn module() -> Module {
    let mut m = Module::new();
    m.func(Function::new("licensed", [], vec![ret(c(0))]));
    m.func(Function::new(
        "dead",
        ["x"],
        vec![ret(mul(add(l("x"), c(7)), c(3)))],
    ));
    m.func(Function::new(
        "vf",
        ["x"],
        vec![ret(add(mul(l("x"), c(3)), c(1)))],
    ));
    m.func(Function::new(
        "main",
        [],
        vec![ret(add(
            call("vf", vec![c(5)]),
            mul(call("licensed", vec![]), c(100)),
        ))],
    ));
    m.entry("main");
    m
}

/// Exit status of the honest program: vf(5) = 16, licensed() = 0.
const HONEST_EXIT: i32 = 16;

fn cfg() -> ProtectConfig {
    ProtectConfig {
        verify_funcs: vec!["vf".into()],
        guard_funcs: vec!["licensed".into()],
        mode: ChainMode::Cleartext,
        ..ProtectConfig::default()
    }
}

/// Bounded budgets so corrupted chains cannot stall the suite.
fn bounded() -> VmOptions {
    VmOptions {
        cycle_limit: 2_000_000,
        output_limit: 1 << 20,
        ..VmOptions::default()
    }
}

fn starved_cfg() -> ProtectConfig {
    let mut cfg = cfg();
    cfg.rewrite.imm_rule = false;
    cfg.rewrite.jump_rule = false;
    cfg.rewrite.internal_jump_rule = false;
    cfg.rewrite.stdset = false;
    cfg
}

// ---------------------------------------------------------------------
// Pipeline-stage faults → typed errors with correct stage provenance.
// ---------------------------------------------------------------------

/// Protects [`module`] under the fault plan `faults`.
fn protect_faulted(cfg: &ProtectConfig, faults: &FaultPlan) -> Result<Protected, ProtectError> {
    let m = module();
    let vf_ir = m.get_func("vf").unwrap().clone();
    let ctx = Ctx {
        faults,
        ..Ctx::default()
    };
    protect_with(compile_module(&m).unwrap(), &[vf_ir], cfg, &ctx)
}

#[test]
fn corrupted_relocation_fails_in_link_stage() {
    for nth in [0usize, 1, 5] {
        let err = protect_faulted(&cfg(), &FaultPlan::none().corrupt_reloc(nth)).unwrap_err();
        assert_eq!(err.stage, Stage::Link, "reloc {nth}: {err}");
        assert!(matches!(err.kind, ErrorKind::Link(_)), "reloc {nth}: {err}");
        // Stage provenance is part of the message.
        assert!(err.to_string().contains("link stage"), "{err}");
    }
}

#[test]
fn dropped_frame_fails_in_link_stage() {
    let err = protect_faulted(&cfg(), &FaultPlan::none().drop_frame("vf")).unwrap_err();
    assert_eq!(err.stage, Stage::Link, "{err}");
    assert!(matches!(err.kind, ErrorKind::Link(_)), "{err}");
}

#[test]
fn undecodable_function_fails_in_rewrite_stage() {
    let err = protect_faulted(&cfg(), &FaultPlan::none().undecodable_func("licensed")).unwrap_err();
    assert_eq!(err.stage, Stage::Rewrite, "{err}");
    assert!(matches!(err.kind, ErrorKind::Rewrite(_)), "{err}");
}

#[test]
fn emptied_gadget_scan_fails_in_scan_stage() {
    let mut cfg = cfg();
    cfg.degrade = false; // surface the raw scan error
    let err = protect_faulted(&cfg, &FaultPlan::none().empty_gadget_scan()).unwrap_err();
    assert_eq!(err.stage, Stage::GadgetScan, "{err}");
    assert!(matches!(err.kind, ErrorKind::NoUsableGadgets), "{err}");
    assert!(err.is_gadget_starvation());
}

#[test]
fn unknown_verify_func_fails_in_select_stage() {
    let err = protect(
        &module(),
        &ProtectConfig {
            verify_funcs: vec!["missing".into()],
            ..ProtectConfig::default()
        },
    )
    .unwrap_err();
    assert_eq!(err.stage, Stage::Select, "{err}");
    assert!(matches!(err.kind, ErrorKind::NoSuchFunction(_)), "{err}");
}

// ---------------------------------------------------------------------
// Gadget starvation and the degradation ladder.
// ---------------------------------------------------------------------

#[test]
fn gadget_starved_build_fails_typed_without_degradation() {
    let mut cfg = starved_cfg();
    cfg.degrade = false;
    let err = protect(&module(), &cfg).unwrap_err();
    assert!(
        err.is_gadget_starvation(),
        "starved build must report missing gadgets: {err}"
    );
    assert!(
        matches!(err.stage, Stage::ChainCompile | Stage::GadgetScan),
        "{err}"
    );
}

#[test]
fn degradation_ladder_recovers_via_standard_set() {
    let protected = protect(&module(), &starved_cfg()).expect("ladder must recover");
    let degr = &protected.report.degradations;
    assert!(!degr.is_empty(), "fallbacks must be reported");
    assert!(
        degr.last().unwrap().stdset_forced,
        "final fallback appends the standard set: {degr:?}"
    );
    assert!(degr.iter().all(|d| !d.missing.is_empty()));
    // The degraded build still runs correctly.
    let mut vm = parallax::vm::Vm::with_options(&protected.image, bounded());
    assert_eq!(vm.run(), Exit::Exited(HONEST_EXIT));
}

#[test]
fn successful_build_reports_no_degradation() {
    let protected = protect(&module(), &cfg()).unwrap();
    assert!(protected.report.degradations.is_empty());
}

// ---------------------------------------------------------------------
// Post-link corruption → contained, classified verdicts.
// ---------------------------------------------------------------------

#[test]
fn truncated_chains_are_detected_and_contained() {
    let protected = protect(&module(), &cfg()).unwrap();
    let base = run_baseline(&protected.image, &[], &bounded());
    assert_eq!(base.exit, Exit::Exited(HONEST_EXIT));
    let words = protected.report.chains[0].words;
    for keep in [1usize, 3, words / 2] {
        let mut img = protected.image.clone();
        assert!(truncate_chain(&mut img, "vf", keep), "truncate at {keep}");
        let v = classify(&img, &[], &base, &bounded());
        assert!(
            v.is_detection(),
            "chain truncated to {keep}/{words} words must not pass as clean"
        );
    }
}

#[test]
fn flips_inside_protected_ranges_are_classified() {
    let protected = protect(&module(), &cfg()).unwrap();
    let base = run_baseline(&protected.image, &[], &bounded());
    let lic = protected.image.symbol("licensed").unwrap().clone();
    let mut detections = 0usize;
    for off in 0..lic.size {
        let mut img = protected.image.clone();
        assert!(parallax::core::flip_byte(&mut img, lic.vaddr + off));
        // Any verdict is acceptable — the requirement is that every
        // flip is *classified* within the budgets, never a panic or
        // an unbounded hang.
        if classify(&img, &[], &base, &bounded()).is_detection() {
            detections += 1;
        }
    }
    assert!(
        detections > 0,
        "guarded function must detect at least one single-byte flip"
    );
}

#[test]
fn flips_outside_protected_ranges_stay_clean() {
    // Binary-level build so an unreferenced slack object exists.
    let m = module();
    let vf_ir = m.get_func("vf").unwrap().clone();
    let mut prog = compile_module(&m).unwrap();
    prog.add_data("slack", vec![0xaa; 64]);
    let mut cfg = cfg();
    // Only `licensed` is protected; `dead` and `slack` are outside
    // every protected range.
    cfg.protect_targets = Some(vec!["licensed".into()]);
    let protected = protect_with(prog, &[vf_ir], &cfg, &Ctx::default()).unwrap();
    let base = run_baseline(&protected.image, &[], &bounded());
    assert_eq!(base.exit, Exit::Exited(HONEST_EXIT));

    let slack = protected.image.symbol("slack").unwrap().clone();
    for off in (0..slack.size).step_by(7) {
        let mut img = protected.image.clone();
        assert!(parallax::core::flip_byte(&mut img, slack.vaddr + off));
        assert_eq!(
            classify(&img, &[], &base, &bounded()),
            Verdict::Clean,
            "flip in unreferenced data at +{off} must not trip the watchdog"
        );
    }

    // Dead code: never executed, unprotected. Keep clear of chain
    // gadgets (the policy may fall back to any usable gadget).
    let dead = protected.image.symbol("dead").unwrap().clone();
    let used = &protected.report.chains[0].used_gadgets;
    for off in 0..dead.size {
        let vaddr = dead.vaddr + off;
        if used
            .iter()
            .any(|&g| vaddr >= g.saturating_sub(1) && vaddr < g + 16)
        {
            continue;
        }
        let mut img = protected.image.clone();
        assert!(parallax::core::flip_byte(&mut img, vaddr));
        assert_eq!(
            classify(&img, &[], &base, &bounded()),
            Verdict::Clean,
            "flip in dead code at +{off} must not trip the watchdog"
        );
    }
}

// ---------------------------------------------------------------------
// Watchdog budget classes: Hang and MemLimit.
// ---------------------------------------------------------------------

#[test]
fn runaway_loop_classifies_as_hang() {
    let mut a = Asm::new();
    let top = a.here();
    a.jmp(top);
    let mut p = Program::new();
    p.add_func("main", a.finish().unwrap());
    p.set_entry("main");
    let img = p.link().unwrap();
    let base = Baseline {
        exit: Exit::Exited(0),
        output: Vec::new(),
    };
    let opts = VmOptions {
        cycle_limit: 10_000,
        ..VmOptions::default()
    };
    assert_eq!(classify(&img, &[], &base, &opts), Verdict::Hang);
}

#[test]
fn runaway_writer_classifies_as_mem_limit() {
    // loop { write(1, blob, 64) } — output is the VM's only unbounded
    // allocation; the output budget must contain it.
    let mut a = Asm::new();
    a.mov_ri(Reg32::Ebx, 1);
    let top = a.here();
    a.mov_ri(Reg32::Eax, 4);
    a.mov_ri_sym(Reg32::Ecx, "blob", 0);
    a.mov_ri(Reg32::Edx, 64);
    a.int(0x80);
    a.jmp(top);
    let mut p = Program::new();
    p.add_func("main", a.finish().unwrap());
    p.add_data("blob", vec![0x42; 64]);
    p.set_entry("main");
    let img = p.link().unwrap();
    let opts = VmOptions {
        output_limit: 4096,
        ..VmOptions::default()
    };
    let base = run_baseline(&img, &[], &opts);
    assert_eq!(
        base.exit,
        Exit::MemLimit,
        "baseline run is itself contained"
    );
    let verdict = classify(
        &img,
        &[],
        &Baseline {
            exit: Exit::Exited(0),
            output: Vec::new(),
        },
        &opts,
    );
    assert_eq!(verdict, Verdict::MemLimit);
}

// ---------------------------------------------------------------------
// Image-level fault campaign: every corruption of a *serialized* image
// must be refused at load with the right typed error — zero faults
// execute a single VM cycle (no VM is ever constructed over a refused
// image; `Vm` only accepts a `VerifiedImage`).
// ---------------------------------------------------------------------

/// The three chain-storage modes the campaign sweeps. RC4 behaves like
/// XOR for serialization purposes (encrypted data object + loader).
fn campaign_modes() -> Vec<(&'static str, ChainMode)> {
    vec![
        ("cleartext", ChainMode::Cleartext),
        ("xor", ChainMode::XorEncrypted { key: 0x5eed_1234 }),
        (
            "prob",
            ChainMode::Probabilistic {
                variants: 2,
                seed: 7,
            },
        ),
    ]
}

fn protected_bytes(mode: ChainMode) -> Vec<u8> {
    let protected =
        protect(&module(), &ProtectConfig { mode, ..cfg() }).expect("campaign build succeeds");
    format::save(&protected.image)
}

#[test]
fn clean_images_verify_load_and_run_identically() {
    for (name, mode) in campaign_modes() {
        let bytes = protected_bytes(mode);
        // Both loaders accept the clean image...
        load_verified_image(&bytes).unwrap_or_else(|e| panic!("{name}: plausibility: {e}"));
        let v =
            load_verified_image_strict(&bytes).unwrap_or_else(|e| panic!("{name}: strict: {e}"));
        assert!(v.report().strict, "{name}");
        // Only cleartext chains expose statically checkable words;
        // encrypted/probabilistic chains decode at runtime.
        if name == "cleartext" {
            assert!(v.report().chain_words > 0, "{name}");
        }
        // ...and it runs byte-identically to the honest program.
        let mut vm = Vm::from_verified(&v);
        assert_eq!(vm.run(), Exit::Exited(HONEST_EXIT), "{name}");
    }
}

#[test]
fn truncation_at_every_scale_is_refused_as_format_error() {
    for (name, mode) in campaign_modes() {
        let bytes = protected_bytes(mode);
        for keep in [0usize, 3, 6, 21, 40, bytes.len() / 2, bytes.len() - 1] {
            let Some(cut) = apply_image_fault(&bytes, &ImageFault::Truncate { keep }) else {
                continue;
            };
            let err = load_verified_image(&cut)
                .err()
                .unwrap_or_else(|| panic!("{name}: truncate to {keep} must be refused"));
            // Short prefixes die on magic/header/overrun checks, longer
            // ones on the content digest — all container-level kinds.
            assert!(
                matches!(
                    err,
                    ImageVerifyError::Format(
                        FormatError::BadMagic
                            | FormatError::Truncated { .. }
                            | FormatError::Corrupt { .. }
                            | FormatError::DigestMismatch { .. }
                    )
                ),
                "{name}: truncate to {keep}: {err}"
            );
        }
    }
}

#[test]
fn every_sampled_bit_flip_is_refused_before_any_vm_cycle() {
    for (name, mode) in campaign_modes() {
        let bytes = protected_bytes(mode);
        // Sample flips across header, section table, text, and data.
        for offset in (0..bytes.len()).step_by(97) {
            for bit in [0u8, 6] {
                let Some(flipped) = apply_image_fault(&bytes, &ImageFault::BitFlip { offset, bit })
                else {
                    continue;
                };
                if flipped == bytes {
                    continue;
                }
                let err = load_verified_image(&flipped)
                    .err()
                    .unwrap_or_else(|| panic!("{name}: flip at {offset}.{bit} must be refused"));
                assert!(
                    matches!(err, ImageVerifyError::Format(_)),
                    "{name}: flip at {offset}.{bit}: {err}"
                );
            }
        }
    }
}

#[test]
fn payload_bit_flips_are_digest_mismatches() {
    for (name, mode) in campaign_modes() {
        let bytes = protected_bytes(mode);
        // Past the 22-byte header every flip leaves magic, version and
        // the stored digest intact, so the digest check must fire.
        for offset in [22usize, 60, bytes.len() / 2, bytes.len() - 1] {
            let flipped = apply_image_fault(&bytes, &ImageFault::BitFlip { offset, bit: 3 })
                .expect("in range");
            let err = load_verified_image(&flipped).unwrap_err();
            assert!(
                matches!(
                    err,
                    ImageVerifyError::Format(
                        FormatError::DigestMismatch { .. }
                            | FormatError::Truncated { .. }
                            | FormatError::Corrupt { .. }
                    )
                ),
                "{name}: flip at {offset}: {err}"
            );
        }
    }
}

#[test]
fn reloc_swap_is_refused_as_reloc_unknown_symbol() {
    // A re-linking attack: parse, retarget a relocation at an undefined
    // symbol, re-save. The digest is re-stamped by the save, so only
    // structural verification can object.
    for (name, mode) in campaign_modes() {
        let bytes = protected_bytes(mode);
        let Some(swapped) = apply_image_fault(&bytes, &ImageFault::RelocRetarget { index: 0 })
        else {
            panic!("{name}: image has relocations to retarget");
        };
        let err = load_verified_image(&swapped).unwrap_err();
        assert!(
            matches!(err, ImageVerifyError::RelocUnknownSymbol { .. }),
            "{name}: {err}"
        );
        assert_eq!(err.code(), "reloc-unknown-symbol", "{name}");
    }
}

#[test]
fn chain_word_redirect_to_equivalent_gadget_is_refused_by_strict_loader() {
    // The hardest fault in the campaign: redirect a chain word to a
    // text address that still decodes to a ret-terminated sequence but
    // is outside the gadget map. Plausibility loading cannot tell the
    // difference — only the strict loader's fresh scan can.
    let bytes = protected_bytes(ChainMode::Cleartext);
    let redirected = apply_image_fault(
        &bytes,
        &ImageFault::ChainRedirect {
            func: "vf".to_owned(),
        },
    )
    .expect("cleartext chain has an in-map gadget word to redirect");
    let err = load_verified_image_strict(&redirected).unwrap_err();
    assert!(
        matches!(err, ImageVerifyError::ChainWordOutOfMap { .. }),
        "{err}"
    );
    assert_eq!(err.code(), "chain-word-out-of-map");
    // The typed error carries the first violation's location.
    assert!(err.offset() > 0, "{err}");
}

#[test]
fn gadget_map_entry_splice_is_refused_as_symbol_out_of_range() {
    for (name, mode) in campaign_modes() {
        let bytes = protected_bytes(mode);
        let Some(spliced) = apply_image_fault(
            &bytes,
            &ImageFault::SymbolSplice {
                name_contains: "vf".to_owned(),
            },
        ) else {
            panic!("{name}: a spliceable symbol exists");
        };
        let err = load_verified_image(&spliced).unwrap_err();
        assert!(
            matches!(err, ImageVerifyError::SymbolOutOfRange { .. }),
            "{name}: {err}"
        );
        assert_eq!(err.code(), "symbol-out-of-range", "{name}");
    }
}
