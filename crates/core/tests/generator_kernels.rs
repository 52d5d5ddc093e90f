//! The hand-assembled chain generators (`core::dynamic`, DESIGN.md
//! §21): what they compute, what gadget surface they add, and that the
//! images around them did not move.

// Test helpers unwrap freely (the crate-level unwrap_used deny is for
// production paths).
#![allow(clippy::unwrap_used)]

use parallax_bench::{fig5_modes, protect_workload};
use parallax_core::dynamic::{
    build_mask_blob, install_generator_binary, rc4_crypt, xor_crypt, xorshift32, Basis,
};
use parallax_core::{protect, ChainMode, ProtectConfig};
use parallax_gadgets::classify;
use parallax_gadgets::scan::{scan, MAX_GADGET_BYTES};
use parallax_image::{LinkedImage, Program, SymbolKind};
use parallax_vm::{Exit, Vm, VmOptions};
use parallax_x86::{Asm, Mem, Reg32};

/// The three dynamic modes of Figure 5.
fn dynamic_modes(variants: usize) -> [ChainMode; 3] {
    [
        ChainMode::XorEncrypted { key: 0x5eed_0042 },
        ChainMode::Rc4Encrypted { key: *b"parallax" },
        ChainMode::Probabilistic {
            variants,
            seed: 0xfeed,
        },
    ]
}

fn gen_ranges(img: &LinkedImage) -> Vec<(String, std::ops::Range<usize>)> {
    img.symbols
        .iter()
        .filter(|s| s.name.starts_with("__plx_gen_"))
        .map(|s| {
            let lo = (s.vaddr - img.text_base) as usize;
            (s.name.clone(), lo..lo + s.size as usize)
        })
        .collect()
}

// ---- gadget surface -------------------------------------------------

/// Checks the three gadget-surface rules (DESIGN.md §21) on the one
/// generator slot of `img`: its final `ret` is its only return byte, no
/// relocated field and no `5d` byte sit in that return's window, and
/// the slot's only usable gadget is the bare `ret`.
fn assert_generator_surface(img: &LinkedImage, what: &str) {
    let ranges = gen_ranges(img);
    assert_eq!(ranges.len(), 1, "{what}");
    for (name, r) in ranges {
        let what = format!("{what} {name}");
        let bytes = &img.text[r.clone()];
        let last = bytes.len() - 1;
        let rets: Vec<usize> = (0..bytes.len())
            .filter(|&i| matches!(bytes[i], 0xc3 | 0xcb))
            .collect();
        assert_eq!(rets, vec![last], "{what}: return bytes");

        let window = r.end - 1 - MAX_GADGET_BYTES..r.end - 1;
        let base = img.text_base;
        for site in img.reloc_sites.iter() {
            let at = (site.vaddr - base) as usize;
            assert!(
                at + 4 <= window.start || at >= window.end,
                "{what}: relocated field at {at:#x} in the ret window"
            );
        }
        assert!(
            !img.text[window].contains(&0x5d),
            "{what}: `pop ebp` byte in the ret window"
        );

        let vaddr = base + r.start as u32;
        let usable: Vec<String> = scan(bytes, vaddr)
            .iter()
            .filter_map(classify)
            .map(|p| p.cand.disasm())
            .collect();
        assert_eq!(usable, vec!["ret".to_owned()], "{what}: usable gadgets");
    }
}

#[test]
fn kernels_add_no_gadget_but_their_final_ret() {
    // Six variants take the probabilistic generator's `div` path, eight
    // its `and` path.
    let mut modes = dynamic_modes(6).to_vec();
    modes.push(dynamic_modes(8)[2].clone());
    for w in parallax_corpus::all() {
        for mode in &modes {
            let cfg = ProtectConfig {
                verify_funcs: vec![w.verify_func.to_owned()],
                mode: mode.clone(),
                ..ProtectConfig::default()
            };
            let img = protect(&(w.module)(), &cfg).unwrap().image;
            assert_generator_surface(&img, &format!("{} {}", w.name, mode.name()));
        }
        // The benchmark's run-protected configuration: hot functions
        // left out of the immediate rule, and Figure 5's modes. Its
        // symbol addresses differ, and with them the relocated fields
        // inside the generators, such as the probabilistic blob's.
        for mode in fig5_modes() {
            if mode == ChainMode::Cleartext {
                continue;
            }
            let what = format!("{} {} run-protected", w.name, mode.name());
            assert_generator_surface(&protect_workload(&w, mode).image, &what);
        }
    }
}

// ---- differential ---------------------------------------------------

/// Callee-saved sentinels the harness loads before calling the kernel.
const SAVED: [(Reg32, u32); 4] = [
    (Reg32::Ebx, 0x1111_1111),
    (Reg32::Esi, 0x2222_2222),
    (Reg32::Edi, 0x3333_3333),
    (Reg32::Ebp, 0x4444_4444),
];

/// An image whose `_start` records `esp`, loads [`SAVED`], calls the
/// generator of `f`, stores `eax`, the four registers and `esp` into
/// `out`, and exits 0. The chain data is filled by `fill`.
fn harness(mode: &ChainMode, fill: impl FnOnce(&mut Program)) -> LinkedImage {
    let mut a = Asm::new();
    a.mov_ri_sym(Reg32::Ecx, "out", 0);
    a.mov_mr(Mem::base_disp(Reg32::Ecx, 24), Reg32::Esp);
    for (r, v) in SAVED {
        a.mov_ri(r, v as i32);
    }
    a.call_sym("__plx_gen_f");
    a.mov_ri_sym(Reg32::Ecx, "out", 0);
    a.mov_mr(Mem::base(Reg32::Ecx), Reg32::Eax);
    for (k, (r, _)) in SAVED.iter().enumerate() {
        a.mov_mr(Mem::base_disp(Reg32::Ecx, 4 + 4 * k as i32), *r);
    }
    a.mov_mr(Mem::base_disp(Reg32::Ecx, 20), Reg32::Esp);
    a.mov_ri(Reg32::Eax, 1);
    a.mov_ri(Reg32::Ebx, 0);
    a.int(0x80);
    let mut prog = Program::new();
    prog.add_func("_start", a.finish().unwrap());
    let gen = install_generator_binary(&mut prog, "f", mode);
    assert_eq!(gen.as_deref(), Some("__plx_gen_f"));
    prog.add_bss("out", 28);
    fill(&mut prog);
    prog.set_entry("_start");
    prog.link().unwrap()
}

fn set(prog: &mut Program, sym: &str, bytes: Vec<u8>) {
    prog.data_item_mut(sym).unwrap().bytes = bytes;
}

fn set_chain_len(prog: &mut Program, words: usize) {
    prog.data_item_mut("__plx_chain_f").unwrap().bss_size = 4 * words as u32;
}

fn le_bytes(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Runs the harness and returns the chain buffer it produced, after
/// checking the calling convention and that the kernel wrote nothing
/// but the buffer, its S-box and the stack.
fn run(img: &LinkedImage, words: usize, seed: u64) -> Vec<u32> {
    let mut vm = Vm::with_options(
        img,
        VmOptions {
            cycle_limit: 20_000_000,
            seed,
            ..VmOptions::default()
        },
    );
    assert_eq!(vm.run(), Exit::Exited(0));
    let out = img.symbol("out").unwrap().vaddr;
    let chain = img.symbol("__plx_chain_f").unwrap();
    let cell = |k: u32| vm.mem().read32(out + 4 * k).unwrap();
    assert_eq!(cell(0), chain.vaddr, "buffer returned in eax");
    for (k, (r, v)) in SAVED.iter().enumerate() {
        assert_eq!(cell(1 + k as u32), *v, "{r:?} preserved");
    }
    assert_eq!(cell(5), cell(6), "esp balanced");
    for s in img.symbols.iter().filter(|s| s.kind == SymbolKind::Object) {
        if s.name == "out" || s.name == "__plx_chain_f" || s.name == "__plx_sbox_f" {
            continue;
        }
        let now = vm.mem().read_bytes(s.vaddr, s.size).unwrap();
        let was = img
            .read(s.vaddr, s.size as usize)
            .map_or_else(|| vec![0; s.size as usize], <[u8]>::to_vec);
        assert_eq!(&*now, &was[..], "{} untouched", s.name);
    }
    let bytes = vm.mem().read_bytes(chain.vaddr, 4 * words as u32).unwrap();
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn random_words(n: usize, seed: u32) -> Vec<u32> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = xorshift32(x);
            x
        })
        .collect()
}

const LENGTHS: [usize; 5] = [0, 1, 2, 63, 250];

#[test]
fn xor_kernel_recovers_the_plaintext() {
    for key in [0x5eed_0042, 0, 0xc3cb_c3cb, u32::MAX] {
        for n in LENGTHS {
            let plain = random_words(n, 7 + n as u32);
            let mode = ChainMode::XorEncrypted { key };
            let mut enc = plain.clone();
            xor_crypt(&mut enc, key);
            let img = harness(&mode, |p| {
                set(p, "__plx_enc_f", le_bytes(&enc));
                set(p, "__plx_len_f", (n as u32).to_le_bytes().to_vec());
                set_chain_len(p, n);
            });
            let mut recovered = enc.clone();
            xor_crypt(&mut recovered, key);
            assert_eq!(recovered, plain);
            assert_eq!(run(&img, n, 1), plain, "key {key:#x}, {n} words");
        }
    }
}

#[test]
fn rc4_kernel_recovers_the_plaintext() {
    for key in [*b"parallax", [0; 8], [0xc3; 8], *b"\xff\x00\xcb\x01Key!"] {
        for n in LENGTHS {
            let plain = le_bytes(&random_words(n, 11 + n as u32));
            let mode = ChainMode::Rc4Encrypted { key };
            let mut enc = plain.clone();
            rc4_crypt(&mut enc, &key);
            let img = harness(&mode, |p| {
                set(p, "__plx_enc_f", enc.clone());
                set(p, "__plx_len_f", (4 * n as u32).to_le_bytes().to_vec());
                set_chain_len(p, n);
            });
            let mut recovered = enc.clone();
            rc4_crypt(&mut recovered, &key);
            assert_eq!(recovered, plain);
            assert_eq!(le_bytes(&run(&img, n, 1)), plain, "key {key:x?}, {n} words");
        }
    }
}

/// The first value of the VM's `random` syscall under `seed`.
fn first_random(seed: u64) -> u32 {
    let mut a = Asm::new();
    a.mov_ri(Reg32::Eax, 42);
    a.int(0x80);
    a.mov_ri_sym(Reg32::Ecx, "r", 0);
    a.mov_mr(Mem::base(Reg32::Ecx), Reg32::Eax);
    a.mov_ri(Reg32::Eax, 1);
    a.mov_ri(Reg32::Ebx, 0);
    a.int(0x80);
    let mut prog = Program::new();
    prog.add_func("_start", a.finish().unwrap());
    prog.add_bss("r", 4);
    prog.set_entry("_start");
    let img = prog.link().unwrap();
    let mut vm = Vm::with_options(
        &img,
        VmOptions {
            seed,
            ..VmOptions::default()
        },
    );
    assert_eq!(vm.run(), Exit::Exited(0));
    vm.mem().read32(img.symbol("r").unwrap().vaddr).unwrap()
}

/// `N` of 2 and 8 take the generator's `and` path, 3 and 6 its `div`
/// path.
#[test]
fn probabilistic_kernel_assembles_the_drawn_variants() {
    for variants in [2usize, 3, 6, 8] {
        for n in LENGTHS {
            let vs: Vec<Vec<u32>> = (0..variants)
                .map(|v| random_words(n, 100 * v as u32 + n as u32))
                .collect();
            let basis = Basis::random(0x5a5a ^ n as u64);
            let mode = ChainMode::Probabilistic { variants, seed: 1 };
            let img = harness(&mode, |p| {
                set(p, "__plx_blob_f", build_mask_blob(&basis, &vs));
                set(p, "__plx_basis_f", le_bytes(&basis.vectors));
                set_chain_len(p, n);
            });
            for seed in [1, 2, 3, 0x5eed_0001] {
                let mut r = first_random(seed);
                let expect: Vec<u32> = (0..n)
                    .map(|pos| {
                        let j = (r % variants as u32) as usize;
                        r = xorshift32(r);
                        vs[j][pos]
                    })
                    .collect();
                assert_eq!(run(&img, n, seed), expect, "N={variants}, {n} words");
            }
        }
    }
}

// ---- masked-image golden --------------------------------------------

/// FNV-1a over `parts` in order.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in parts.iter().copied().flatten() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of the text with every `__plx_gen_*` range zeroed, and of the
/// symbol table.
fn text_digest(img: &LinkedImage) -> u64 {
    let mut text = img.text.clone();
    for (_, r) in gen_ranges(img) {
        text[r].fill(0);
    }
    let mut symbols = Vec::new();
    for s in &img.symbols {
        symbols.extend_from_slice(s.name.as_bytes());
        symbols.extend_from_slice(&s.vaddr.to_le_bytes());
        symbols.extend_from_slice(&s.size.to_le_bytes());
        symbols.push(s.kind as u8);
    }
    fnv1a(&[&text, &symbols])
}

/// Outside the generator slots the xor and RC4 texts and symbol tables
/// are those of the `-O0` IR generators the kernels replaced, and the
/// data has the same length. The probabilistic rows pin the
/// exactly-sized coefficient-mask blob: its data length and digest, and
/// the text and symbols its size places.
#[test]
fn images_outside_the_generators_are_unchanged() {
    let golden = [
        (
            "gzip",
            "xor",
            0x4496_bf9c_c2f6_7c27u64,
            0x8b8e_9eb6_5717_d9a7u64,
            668,
        ),
        (
            "gzip",
            "rc4",
            0x77a0_dda1_c6c7_7f7f,
            0x1577_d1d8_8db9_68e8,
            676,
        ),
        (
            "gzip",
            "probabilistic",
            0x4443_f886_f6f6_42d9,
            0xa324_741d_c4b7_6da3,
            3_888,
        ),
        (
            "gcc",
            "xor",
            0xa61b_f2e0_de43_8c84,
            0xd7db_2490_8f52_b370,
            368,
        ),
        (
            "gcc",
            "rc4",
            0x1686_058e_f9c4_b1cc,
            0x15b2_e8f5_1082_2b20,
            376,
        ),
        (
            "gcc",
            "probabilistic",
            0x91b0_bd0b_ec0f_4c5a,
            0xe680_8418_3545_1cae,
            2_232,
        ),
    ];
    for w in parallax_corpus::all() {
        for mode in dynamic_modes(6) {
            let Some(&(_, _, text, data, len)) = golden
                .iter()
                .find(|(p, m, ..)| *p == w.name && *m == mode.name())
            else {
                continue;
            };
            let cfg = ProtectConfig {
                verify_funcs: vec![w.verify_func.to_owned()],
                mode: mode.clone(),
                ..ProtectConfig::default()
            };
            let img = protect(&(w.module)(), &cfg).unwrap().image;
            let what = format!("{} {}", w.name, mode.name());
            assert_eq!(
                text_digest(&img),
                text,
                "{what}: text moved outside the generator"
            );
            assert_eq!(img.data.len(), len, "{what}: data length");
            assert_eq!(fnv1a(&[&img.data]), data, "{what}: data");
        }
    }
}
