//! Differential suite for shared-trial validation: the restructured
//! path — one probe execution per trial shared by every effect, a
//! second trial only where the first cannot settle the verdict, lazy
//! scratch seeding — must return verdicts identical to the legacy
//! per-(effect, trial) probe loop, which always runs both trials, for
//! every proposal. The legacy path is kept callable as
//! `validate::legacy` purely as this suite's oracle; it is what
//! `protect()` shipped before the restructuring, so verdict equality
//! here is what keeps protected images byte-identical.

#[allow(dead_code)]
mod common;

use proptest::prelude::*;

use parallax_compiler::compile_module;
use parallax_core::{protect, ChainMode, ProtectConfig};
use parallax_gadgets::scan::scan;
use parallax_gadgets::validate::{legacy, scratch_pointer, MAX_SHARED_EFFECTS, PROBE_ESP};
use parallax_gadgets::{classify, ProbeStats, ProbeVm};
use parallax_image::{LinkedImage, Program};
use parallax_vm::{Vm, VmOptions};
use parallax_x86::{Asm, Reg32};

use common::{fixpoint_pairs, large_module, MORE_LARGE_SEEDS};

fn link(name: &str) -> LinkedImage {
    let w = parallax_corpus::by_name(name).expect("known workload");
    compile_module(&(w.module)())
        .expect("corpus compiles")
        .link()
        .expect("corpus links")
}

/// Validates every classified candidate of `img` twice — once with the
/// legacy per-effect probe loop on one VM rolled back to its pristine
/// memory before each proposal (the oracle) and once with the
/// shared-trial [`ProbeVm`] — and requires verdict-for-verdict
/// equality. Also enforces the probe-run budget: one run per trial the
/// shared path ran, a first trial for every proposal not prejudged plus
/// the second trials, no matter how many effects the proposals carry.
/// Returns the shared path's counters so callers can assert coverage.
fn assert_shared_matches_legacy(img: &LinkedImage, label: &str) -> ProbeStats {
    let mut oracle_vm = Vm::with_options(img, VmOptions::default());
    let pristine = oracle_vm.mem().clone();
    let mut shared = ProbeVm::new(img);
    let mut checked = 0;
    for cand in &scan(&img.text, img.text_base) {
        let Some(proposal) = classify(cand) else {
            continue;
        };
        oracle_vm.reset_to(&pristine);
        let oracle = legacy::validate_with(&mut oracle_vm, &proposal);
        let got = shared.validate(&proposal);
        assert_eq!(
            format!("{oracle:?}"),
            format!("{got:?}"),
            "{label}: shared-trial verdict drift at {:#x} {}",
            cand.vaddr,
            cand.disasm()
        );
        checked += 1;
    }
    let stats = shared.stats();
    assert_eq!(stats.proposals, checked, "{label}: proposal count");
    assert_eq!(
        stats.runs,
        stats.proposals - stats.prejudged + stats.second_trials,
        "{label}: probe runs are not one per trial run"
    );
    stats
}

#[test]
fn shared_trial_verdicts_match_legacy_across_corpus() {
    for w in parallax_corpus::all() {
        let img = link(w.name);
        let stats = assert_shared_matches_legacy(&img, w.name);
        assert!(stats.proposals > 0, "{}: no proposals exercised", w.name);
    }
}

/// Contents every protect-large image holds that trial 1 settles from
/// the probe's constant addresses: an 8-bit immediate that writes its
/// lane back unchanged, a `Patch8` root on a pinned register, byte
/// accesses off a word boundary clear of every claim, a load beside an
/// 8-bit rotate, the loader's pivot, whose read no write reaches, and a
/// shift by `cl` on unmarked inputs.
const ONE_TRIAL_CONTENTS: [&str; 6] = [
    "add al,0x0; pop esi; ret",
    "add al,0x8; mov eax,[eax+0x4]; ret",
    "or byte [eax-0x75],dl; inc ebp; or byte [eax-0x48],dl; ret",
    "rol bl,0x1; mov eax,[ecx]; ret",
    "mov [eax],esp; mov eax,[esp+0x24]; mov esp,eax; ret",
    "shl eax,cl; ret",
];

/// Each of [`ONE_TRIAL_CONTENTS`] sits in some protected corpus image,
/// and no copy of one takes a second trial.
#[test]
fn runtime_contents_with_constant_addresses_take_one_trial() {
    let mut seen = [0; ONE_TRIAL_CONTENTS.len()];
    for w in parallax_corpus::all() {
        let cfg = ProtectConfig {
            verify_funcs: vec![w.verify_func.to_owned()],
            ..ProtectConfig::default()
        };
        let img = protect(&(w.module)(), &cfg).expect("protects").image;
        let mut probe = ProbeVm::new(&img);
        for cand in scan(&img.text, img.text_base) {
            let disasm = cand.disasm();
            let Some(k) = ONE_TRIAL_CONTENTS.iter().position(|c| *c == disasm) else {
                continue;
            };
            let proposal = classify(&cand).expect("classified");
            let before = probe.stats();
            assert!(probe.validate(&proposal).is_some(), "{}: {disasm}", w.name);
            let after = probe.stats();
            assert_eq!(
                (after.runs - before.runs, after.second_trials),
                (1, before.second_trials),
                "{} {:#x}: {disasm}",
                w.name,
                cand.vaddr
            );
            seen[k] += 1;
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
}

#[test]
fn shared_trial_verdicts_match_legacy_on_tampered_images() {
    // Byte-flip the text at spread positions — the fault-injection
    // shape — so equality is also proven on gadget pools that differ
    // from anything the corpus produces directly.
    let base = link("gzip");
    for flip in 0..8u32 {
        let mut img = base.clone();
        let off = (img.text.len() as u32 / 9) * (flip + 1);
        img.text[off as usize] ^= 0x41;
        let label = format!("gzip+flip@{off:#x}");
        assert_shared_matches_legacy(&img, &label);
    }
}

/// The most effects any proposal of `img` carries. The shared path
/// rejects a proposal with more than [`MAX_SHARED_EFFECTS`], so it must
/// stay at or below that for the rejection never to change a verdict.
fn most_effects(img: &LinkedImage) -> usize {
    scan(&img.text, img.text_base)
        .iter()
        .filter_map(classify)
        .map(|p| p.effects.len())
        .max()
        .unwrap_or(0)
}

/// Links `bytes` as the text of `main`, with a `ret` after every
/// `stride` bytes so return-terminated candidates are likely.
fn byte_soup(bytes: &[u8], stride: usize) -> LinkedImage {
    let mut a = Asm::new();
    for chunk in bytes.chunks(stride) {
        a.db(chunk);
        a.ret();
    }
    let mut p = Program::new();
    p.add_func("main", a.finish().unwrap());
    p.set_entry("main");
    p.link().unwrap()
}

/// Instruction fragments of the kinds a single trial cannot settle,
/// each a chance for trial 1 to pass a wrong claim: byte ALU into
/// `[reg]`, `mov al,bl`-style moves, shifts by `cl`, flag readers
/// (`adc`, `sbb`, `setcc`, `cmovcc`), `div`, `cdq`, scaled-index
/// accesses, `Patch8`-rooted accesses, accesses and esp moves off a
/// word boundary, and a syscall whose number comes from a chain slot.
/// Then the fragments whose addresses and values are constants of the
/// proposal, which trial 1 settles only where their bytes stay clear
/// of what a claim reads: 8-bit immediates that write their lane back
/// unchanged or not, 8-bit immediates on ebx that move the later
/// `[ebx]` accesses to another constant address, byte writes beside
/// the claimed `[ebx]` word, writes and reads of that word through
/// edx (whose scratch pointer lies 0x1000 below ebx's), and shifts by
/// `cl` with ecx or the shifted register changed before or after.
const UNSETTLED: [&[u8]; 50] = [
    &[0x00, 0x03],                         // add [ebx], al
    &[0x08, 0x0b],                         // or [ebx], cl
    &[0x20, 0x53, 0x01],                   // and [ebx+1], dl
    &[0x30, 0x43, 0x03],                   // xor [ebx+3], al
    &[0x80, 0x0b, 0x01],                   // or byte [ebx], 1
    &[0x88, 0xd8],                         // mov al, bl
    &[0x88, 0xe1],                         // mov cl, ah
    &[0x8a, 0xf8],                         // mov bh, al
    &[0xd3, 0xe0],                         // shl eax, cl
    &[0xd3, 0xcb],                         // ror ebx, cl
    &[0xd3, 0x23],                         // shl dword [ebx], cl
    &[0x11, 0xc8],                         // adc eax, ecx
    &[0x83, 0x13, 0x00],                   // adc dword [ebx], 0
    &[0x83, 0x1b, 0x00],                   // sbb dword [ebx], 0
    &[0x80, 0x53, 0x03, 0x00],             // adc byte [ebx+3], 0
    &[0x0f, 0x92, 0xc1],                   // setb cl
    &[0x0f, 0x94, 0x03],                   // sete byte [ebx]
    &[0x0f, 0x42, 0xc1],                   // cmovb eax, ecx
    &[0x0f, 0x4c, 0x03],                   // cmovl eax, [ebx]
    &[0xf7, 0xf1],                         // div ecx
    &[0x99],                               // cdq
    &[0x8b, 0x04, 0x8b],                   // mov eax, [ebx+ecx*4]
    &[0x8d, 0x04, 0x4a],                   // lea eax, [edx+ecx*2]
    &[0xb3, 0x10],                         // mov bl, 0x10: [ebx] is Patch8-rooted
    &[0x88, 0xcf],                         // mov bh, cl
    &[0x58, 0xcd, 0x80],                   // pop eax; int 0x80
    &[0xf5],                               // cmc
    &[0x89, 0x4c, 0x24, 0x03],             // mov [esp+3], ecx
    &[0x89, 0x43, 0x02],                   // mov [ebx+2], eax
    &[0x83, 0xc4, 0x02],                   // add esp, 2
    &[0x44],                               // inc esp
    &[0x04, 0x00],                         // add al, 0
    &[0x80, 0xeb, 0x00],                   // sub bl, 0
    &[0x80, 0xe3, 0xff],                   // and bl, 0xff
    &[0x80, 0xf1, 0x00],                   // xor cl, 0
    &[0x04, 0x01],                         // add al, 1
    &[0x80, 0xc3, 0x08],                   // add bl, 8
    &[0x80, 0xcf, 0x01],                   // or bh, 1
    &[0x80, 0xe3, 0xf0],                   // and bl, 0xf0
    &[0x08, 0x4b, 0x03],                   // or [ebx+3], cl
    &[0x88, 0x43, 0x05],                   // mov [ebx+5], al
    &[0x00, 0x53, 0xff],                   // add [ebx-1], dl
    &[0x89, 0x8a, 0x00, 0x10, 0x00, 0x00], // mov [edx+0x1000], ecx
    &[0x08, 0x8a, 0x02, 0x10, 0x00, 0x00], // or [edx+0x1002], cl
    &[0x8b, 0x82, 0x00, 0x10, 0x00, 0x00], // mov eax, [edx+0x1000]
    &[0xd3, 0xfa],                         // sar edx, cl
    &[0xd3, 0xe8],                         // shr eax, cl
    &[0xb5, 0x05],                         // mov ch, 5
    &[0x41],                               // inc ecx
    &[0x92],                               // xchg eax, edx
];

/// Fragments one trial settles on their own, which set up the claims
/// the [`UNSETTLED`] ones can break, and can break each other's when a
/// gadget writes memory twice: stores and loads through `ebx`, masking
/// writes to it, pops, full-width moves and ALU operations, the carry,
/// and operations that narrow a register to one random bit (`and ecx,
/// 1`, `shl ecx, 31`, `imul` by 2³¹) for an `add` to carry into a
/// claimed register or word.
const SETTLED: [&[u8]; 20] = [
    &[0x89, 0x03],                         // mov [ebx], eax
    &[0x89, 0x0b],                         // mov [ebx], ecx
    &[0x01, 0x03],                         // add [ebx], eax
    &[0x01, 0x0b],                         // add [ebx], ecx
    &[0x8b, 0x03],                         // mov eax, [ebx]
    &[0x58],                               // pop eax
    &[0x59],                               // pop ecx
    &[0x5a],                               // pop edx
    &[0x89, 0xc8],                         // mov eax, ecx
    &[0x01, 0xc8],                         // add eax, ecx
    &[0x21, 0xd0],                         // and eax, edx
    &[0x83, 0xe1, 0x01],                   // and ecx, 1
    &[0xc1, 0xe1, 0x1f],                   // shl ecx, 31
    &[0x69, 0xc9, 0x00, 0x00, 0x00, 0x80], // imul ecx, ecx, 0x80000000
    &[0x81, 0x0b, 0x00, 0x01, 0x00, 0x00], // or dword [ebx], 0x100
    &[0x83, 0x23, 0xfe],                   // and dword [ebx], -2
    &[0x21, 0x0b],                         // and [ebx], ecx
    &[0xf8],                               // clc
    &[0xf9],                               // stc
    &[0x83, 0xc4, 0x04],                   // add esp, 4
];

/// First writes of a claimed word or register, for [`CARRY`] to change.
const CLAIMS: [&[u8]; 6] = [
    &[0x89, 0x03],       // mov [ebx], eax
    &[0x89, 0x0b],       // mov [ebx], ecx
    &[0x01, 0x03],       // add [ebx], eax
    &[0x89, 0x04, 0x24], // mov [esp], eax
    &[0x89, 0xd0],       // mov eax, edx
    &[0x8b, 0x03],       // mov eax, [ebx]
];

/// Listed operations that narrow ecx to one random bit (or to the
/// chance of an `and` of two draws), or change one bit of it.
const NARROW: [&[u8]; 6] = [
    &[0x83, 0xe1, 0x01],                   // and ecx, 1
    &[0xc1, 0xe1, 0x1f],                   // shl ecx, 31
    &[0x69, 0xc9, 0x00, 0x00, 0x00, 0x80], // imul ecx, ecx, 0x80000000
    &[0x81, 0xe1, 0x00, 0x01, 0x00, 0x00], // and ecx, 0x100
    &[0x21, 0xd1],                         // and ecx, edx
    &[0x83, 0xe1, 0xfe],                   // and ecx, -2
];

/// Second writes that carry ecx into a [`CLAIMS`] word or register,
/// the last through edx, whose scratch pointer lies 0x1000 below ebx's.
const CARRY: [&[u8]; 7] = [
    &[0x01, 0x0b],                         // add [ebx], ecx
    &[0x31, 0x0b],                         // xor [ebx], ecx
    &[0x29, 0x0b],                         // sub [ebx], ecx
    &[0x09, 0x0b],                         // or [ebx], ecx
    &[0x01, 0x0c, 0x24],                   // add [esp], ecx
    &[0x01, 0xc8],                         // add eax, ecx
    &[0x89, 0x8a, 0x00, 0x10, 0x00, 0x00], // mov [edx+0x1000], ecx
];

/// Links one gadget per `(claim, narrowings, carry)` of `gadgets` into
/// `main`: a [`CLAIMS`] write, [`NARROW`] operations on ecx, a
/// [`CARRY`] of ecx, then `pop edx; ret`.
fn narrowed_image(gadgets: &[(usize, Vec<usize>, usize)]) -> LinkedImage {
    let mut a = Asm::new();
    for (claim, narrow, carry) in gadgets {
        a.db(CLAIMS[claim % CLAIMS.len()]);
        for n in narrow {
            a.db(NARROW[n % NARROW.len()]);
        }
        a.db(CARRY[carry % CARRY.len()]);
        a.db(&[0x5a]);
        a.ret();
    }
    let mut p = Program::new();
    p.add_func("main", a.finish().unwrap());
    p.set_entry("main");
    p.link().unwrap()
}

/// Links each gadget of `gadgets` (fragment picks: `(unsettled,
/// index)`) into `main`, each followed by a `ret`.
fn adversarial_image(gadgets: &[Vec<(bool, usize)>]) -> LinkedImage {
    let mut a = Asm::new();
    for g in gadgets {
        for &(unsettled, i) in g {
            if unsettled {
                a.db(UNSETTLED[i % UNSETTLED.len()]);
            } else {
                a.db(SETTLED[i % SETTLED.len()]);
            }
        }
        a.ret();
    }
    let mut p = Program::new();
    p.add_func("main", a.finish().unwrap());
    p.set_entry("main");
    p.link().unwrap()
}

/// Instructions outside the one-trial list, each of which writes a
/// value one trial may not tell from the claimed one: 8-bit lanes,
/// flag readers, shifts by `cl`, `cdq`, `pushfd`, through registers,
/// scratch words and (through [`on_chain_word`]) the chain words that a
/// `pop` loads or a `push` writes, where the classifier does not see
/// them. Then 8-bit immediates, which write a constant into a pinned
/// register (ebx, moving its later accesses) or write the lane back
/// unchanged, and a change of ch before a shift by `cl`.
const OPAQUE: [&[u8]; 25] = [
    &[0x00, 0x03],       // add [ebx], al
    &[0x08, 0x0b],       // or [ebx], cl
    &[0x08, 0x53, 0x04], // or [ebx+4], dl
    &[0x00, 0xd1],       // add cl, dl
    &[0xd0, 0xc1],       // rol cl, 1
    &[0x88, 0xc1],       // mov cl, al
    &[0x0f, 0x94, 0xc1], // sete cl
    &[0x0f, 0x92, 0x03], // setb byte [ebx]
    &[0x83, 0xd1, 0x00], // adc ecx, 0
    &[0x19, 0xc1],       // sbb ecx, eax
    &[0x0f, 0x42, 0xca], // cmovb ecx, edx
    &[0xd3, 0xe1],       // shl ecx, cl
    &[0xd3, 0x2b],       // shr dword [ebx], cl
    &[0x83, 0x13, 0x00], // adc dword [ebx], 0
    &[0x0f, 0xb6, 0xc9], // movzx ecx, cl
    &[0x99],             // cdq
    &[0xf5],             // cmc
    &[0x9c],             // pushfd
    &[0x80, 0xc1, 0x00], // add cl, 0
    &[0x80, 0xe1, 0xff], // and cl, 0xff
    &[0x80, 0xc9, 0x01], // or cl, 1
    &[0x80, 0xc3, 0x04], // add bl, 4
    &[0xb3, 0x40],       // mov bl, 0x40
    &[0xb5, 0x05],       // mov ch, 5
    &[0xd3, 0xe0],       // shl eax, cl
];

/// Opaque writes of the chain words, as `(opcode and ModR/M, offset,
/// tail)` for [`on_chain_word`]: offset 0 starts the word the first
/// `pop` loads, -4 the one a first `push` writes; the others are byte
/// writes off a word boundary beside those slots.
const ON_CHAIN: [(&[u8], i32, &[u8]); 7] = [
    (&[0x08, 0x8b], 0, &[]),     // or [ebx+disp], cl
    (&[0x83, 0x93], 0, &[0x00]), // adc dword [ebx+disp], 0
    (&[0x08, 0x83], -4, &[]),    // or [ebx+disp], al
    (&[0xd3, 0xa3], -4, &[]),    // shl dword [ebx+disp], cl
    (&[0x08, 0x8b], 3, &[]),     // or [ebx+disp], cl
    (&[0x88, 0x83], -1, &[]),    // mov [ebx+disp], al
    (&[0x08, 0x93], 5, &[]),     // or [ebx+disp], dl
];

/// `op [ebx+disp32] tail` with the displacement putting the access,
/// through ebx's scratch pointer, `offset` bytes above the probe's
/// first slot.
fn on_chain_word(op: &[u8], offset: i32, tail: &[u8]) -> Vec<u8> {
    let at = PROBE_ESP.wrapping_add(offset as u32);
    let mut bytes = op.to_vec();
    bytes.extend_from_slice(&at.wrapping_sub(scratch_pointer(Reg32::Ebx)).to_le_bytes());
    bytes.extend_from_slice(tail);
    bytes
}

/// Listed instructions that make, move or read the claims [`OPAQUE`]
/// ones can break: pops, pushes, full-width moves and ALU operations
/// (some of ecx, which the opaque ones narrow), stores, loads and
/// read-modify-writes through ebx and esp, among them masking ones
/// whose result a later load of the word reads, and a store and a load
/// of `[ebx]` through edx, whose scratch pointer lies 0x1000 below.
const FOLLOWED: [&[u8]; 22] = [
    &[0x58],                               // pop eax
    &[0x59],                               // pop ecx
    &[0x5a],                               // pop edx
    &[0x50],                               // push eax
    &[0x51],                               // push ecx
    &[0x89, 0xc8],                         // mov eax, ecx
    &[0x89, 0xca],                         // mov edx, ecx
    &[0x01, 0xc8],                         // add eax, ecx
    &[0x31, 0xc2],                         // xor edx, eax
    &[0x89, 0x03],                         // mov [ebx], eax
    &[0x89, 0x0b],                         // mov [ebx], ecx
    &[0x01, 0x0b],                         // add [ebx], ecx
    &[0x8b, 0x03],                         // mov eax, [ebx]
    &[0x89, 0x0c, 0x24],                   // mov [esp], ecx
    &[0x8b, 0x04, 0x24],                   // mov eax, [esp]
    &[0x83, 0xe1, 0x01],                   // and ecx, 1
    &[0x81, 0x0b, 0x00, 0x01, 0x00, 0x00], // or dword [ebx], 0x100
    &[0x83, 0x23, 0xfe],                   // and dword [ebx], -2
    &[0x83, 0x33, 0x01],                   // xor dword [ebx], 1
    &[0x8b, 0x0b],                         // mov ecx, [ebx]
    &[0x89, 0x8a, 0x00, 0x10, 0x00, 0x00], // mov [edx+0x1000], ecx
    &[0x8b, 0x82, 0x00, 0x10, 0x00, 0x00], // mov eax, [edx+0x1000]
];

/// Links one gadget per entry of `gadgets` into `main`, each followed
/// by a `ret`: fragment picks `(kind, index)`, kind 0 an [`OPAQUE`]
/// instruction, 1 an [`ON_CHAIN`] write, anything else a [`FOLLOWED`]
/// one.
fn opaque_mix_image(gadgets: &[Vec<(u8, usize)>]) -> LinkedImage {
    let mut a = Asm::new();
    for g in gadgets {
        for &(kind, i) in g {
            match kind {
                0 => a.db(OPAQUE[i % OPAQUE.len()]),
                1 => {
                    let (op, offset, tail) = ON_CHAIN[i % ON_CHAIN.len()];
                    a.db(&on_chain_word(op, offset, tail));
                }
                _ => a.db(FOLLOWED[i % FOLLOWED.len()]),
            }
        }
        a.ret();
    }
    let mut p = Program::new();
    p.add_func("main", a.finish().unwrap());
    p.set_entry("main");
    p.link().unwrap()
}

/// Gadgets of one to four fragments, about a third opaque.
fn opaque_mix() -> impl Strategy<Value = Vec<Vec<(u8, usize)>>> {
    prop::collection::vec(
        prop::collection::vec(((0u8..6).prop_map(|k| k.min(2)), 0usize..64), 1..5),
        1..8,
    )
}

/// Both fixpoint passes of a protect-large-sized module: the shared
/// verdicts equal the legacy oracle's. Returns how many proposals were
/// validated and how many took a second trial.
fn assert_large_shared_matches_legacy(seed: u64) -> (u64, u64) {
    let module = large_module(seed);
    let prog = compile_module(&module).expect("randprog compiles");
    let (mut proposals, mut second) = (0, 0);
    for (img1, img2) in fixpoint_pairs(prog, "vf", &module, ChainMode::Cleartext) {
        for (img, pass) in [(&img1, 1), (&img2, 2)] {
            let stats = assert_shared_matches_legacy(img, &format!("large {seed} pass {pass}"));
            proposals += stats.proposals;
            second += stats.second_trials;
        }
    }
    (proposals, second)
}

/// The shared-vs-legacy differential on the images `protect()` links
/// for 64 protect-large-sized modules; CI's release step runs it with
/// `--ignored`.
#[test]
#[ignore]
fn shared_trial_verdicts_match_legacy_on_large_modules() {
    let (mut proposals, mut second) = (0, 0);
    for seed in MORE_LARGE_SEEDS {
        let (p, s) = assert_large_shared_matches_legacy(2 * seed + 1);
        proposals += p;
        second += s;
    }
    // Some proposals take a second trial, and most do not.
    assert!(
        0 < second && 2 * second < proposals,
        "{second} of {proposals}"
    );
}

#[test]
fn every_corpus_proposal_fits_the_effect_mask() {
    for w in parallax_corpus::all() {
        let most = most_effects(&link(w.name));
        assert!(
            (1..=MAX_SHARED_EFFECTS).contains(&most),
            "{}: {most} effects",
            w.name
        );
    }
}

proptest! {
    /// Arbitrary bytes never classify into more effects than the
    /// liveness mask holds.
    #[test]
    fn random_streams_fit_the_effect_mask(
        bytes in prop::collection::vec(any::<u8>(), 32..160),
        rets in 1usize..5,
    ) {
        let most = most_effects(&byte_soup(&bytes, bytes.len() / rets + 1));
        prop_assert!(most <= MAX_SHARED_EFFECTS, "{} effects", most);
    }

    /// Randomized instruction streams: arbitrary bytes become text, the
    /// scanner extracts whatever return-terminated sequences decode,
    /// and every classified proposal must validate identically under
    /// the legacy and shared-trial paths.
    #[test]
    fn shared_trial_verdicts_match_legacy_on_random_streams(
        bytes in prop::collection::vec(any::<u8>(), 32..160),
        rets in 1usize..5,
    ) {
        let img = byte_soup(&bytes, bytes.len() / rets + 1);
        let cands = scan(&img.text, img.text_base);
        let mut shared = ProbeVm::new(&img);
        for cand in &cands {
            let Some(proposal) = classify(cand) else { continue };
            let oracle = legacy::validate(&img, &proposal);
            let got = shared.validate(&proposal);
            prop_assert_eq!(
                format!("{:?}", oracle),
                format!("{:?}", got),
                "shared-trial verdict drift at {:#x}",
                cand.vaddr
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Gadgets built mostly from fragments one trial cannot settle,
    /// mixed with the stores, loads and pops whose claims they can
    /// break: every shared verdict equals the legacy oracle's, which
    /// runs both trials of every effect.
    #[test]
    fn shared_trial_verdicts_match_legacy_on_unsettled_streams(
        gadgets in prop::collection::vec(
            prop::collection::vec(((0u8..10).prop_map(|w| w < 6), 0usize..64), 1..5),
            1..8,
        ),
    ) {
        assert_shared_matches_legacy(&adversarial_image(&gadgets), "unsettled stream");
    }

    /// Gadgets that mix instructions outside the one-trial list with
    /// the pops, pushes, full-width claims and stores whose claims their
    /// values can reach: every shared verdict, one trial or two, equals
    /// the legacy oracle's, which runs both trials of every effect.
    #[test]
    fn shared_trial_verdicts_match_legacy_on_opaque_mix(gadgets in opaque_mix()) {
        assert_shared_matches_legacy(&opaque_mix_image(&gadgets), "opaque mix");
    }

    /// Gadgets that claim a word or register, narrow ecx with listed
    /// operations, then carry ecx into the claimed place: a second
    /// write the claim may miss, whose error one trial sees with a
    /// chance as low as one half. Every shared verdict equals the
    /// legacy oracle's.
    #[test]
    fn shared_trial_verdicts_match_legacy_on_narrowed_second_writes(
        gadgets in prop::collection::vec(
            (0usize..6, prop::collection::vec(0usize..6, 1..3), 0usize..7),
            1..6,
        ),
    ) {
        assert_shared_matches_legacy(&narrowed_image(&gadgets), "narrowed stream");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// [`shared_trial_verdicts_match_legacy_on_opaque_mix`] over 4,096
    /// cases; CI's release step runs it with `--ignored`.
    #[test]
    #[ignore]
    fn shared_trial_verdicts_match_legacy_on_a_long_opaque_mix(gadgets in opaque_mix()) {
        assert_shared_matches_legacy(&opaque_mix_image(&gadgets), "long opaque mix");
    }
}
