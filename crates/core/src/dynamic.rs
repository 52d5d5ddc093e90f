//! Dynamically generated function chains (paper §V-B).
//!
//! Chains can be stored in non-executable *data* memory, so they can be
//! produced at run time. Three hardening modes are implemented, each
//! with a *generator* installed into the protected binary itself — its
//! cost is therefore measured by the VM exactly like any other guest
//! code (this is how the paper's RC4 initialization overhead shows up
//! for short chains):
//!
//! * **xor** — the chain is stored encrypted with a xorshift32 key
//!   stream and decrypted into a BSS buffer on every call;
//! * **RC4** — the chain is RC4-encrypted; the generator runs the full
//!   KSA (256 swaps) plus PRGA per call;
//! * **probabilistic** — the paper's linear-combination scheme: `N`
//!   compiled chain variants are decomposed over a random GF(2) basis
//!   into one coefficient mask per (position, variant); at every call a
//!   fresh variant is assembled by XOR-combining basis vectors, choosing
//!   one of the `N` masks per position at random. The generator first
//!   tabulates the XOR of every subset of each four consecutive basis
//!   vectors, so a mask costs eight table lookups, one per nibble. The
//!   plaintext chain is never stored; different runs verify different
//!   gadget subsets.
//!
//! The generators are hand-assembled x86 kernels in the style of the
//! loader runtime (`parallax_ropc::runtime`): register-resident loops,
//! callee-saved registers preserved, the plaintext buffer returned in
//! `eax`. Each sits at the end of a fixed-size text slot and adds one
//! gadget window, its final `ret`, in which nothing classifies as a
//! usable gadget (DESIGN.md §21).

use parallax_compiler::sysno;
use parallax_image::Program;
use parallax_x86::{AluOp, Asm, Assembled, Cond, Mem, Reg32, Reg8, ShiftOp, SymReloc};

/// How a verification chain is materialized at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainMode {
    /// The chain is stored in cleartext data.
    Cleartext,
    /// Xor-encrypted with a key-stream seed.
    XorEncrypted {
        /// Key-stream seed (must be non-zero).
        key: u32,
    },
    /// RC4-encrypted.
    Rc4Encrypted {
        /// RC4 key bytes.
        key: [u8; RC4_KEY_LEN],
    },
    /// Probabilistically generated from `variants` compiled variants.
    Probabilistic {
        /// Number of compiled variants (`N` in the paper).
        variants: usize,
        /// Host-side randomness for basis construction and variant
        /// compilation seeds.
        seed: u64,
    },
}

impl ChainMode {
    /// Short name used in reports and benchmarks.
    pub fn name(&self) -> &'static str {
        match self {
            ChainMode::Cleartext => "cleartext",
            ChainMode::XorEncrypted { .. } => "xor",
            ChainMode::Rc4Encrypted { .. } => "rc4",
            ChainMode::Probabilistic { .. } => "probabilistic",
        }
    }

    /// Chain variants compiled per verification function: `N` for
    /// probabilistic chains (`variants: 0` means [`DEFAULT_VARIANTS`],
    /// and at least two), one otherwise.
    pub fn variant_count(&self) -> usize {
        match self {
            ChainMode::Probabilistic { variants: 0, .. } => DEFAULT_VARIANTS,
            ChainMode::Probabilistic { variants, .. } => (*variants).max(2),
            _ => 1,
        }
    }
}

/// Number of probabilistic variants compiled when
/// [`ChainMode::Probabilistic`] requests `variants: 0`.
pub const DEFAULT_VARIANTS: usize = 8;

/// RC4 key length in bytes.
pub const RC4_KEY_LEN: usize = 8;

/// xorshift32 step, mirrored by the xor and probabilistic generators.
pub fn xorshift32(mut x: u32) -> u32 {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    x
}

/// Encrypts (or decrypts) chain words with the xor key stream.
pub fn xor_crypt(words: &mut [u32], key: u32) {
    let mut ks = key | 1;
    for w in words.iter_mut() {
        ks = xorshift32(ks);
        *w ^= ks;
    }
}

/// Plain RC4 implementation (host side, for encrypting the chain).
pub fn rc4_crypt(data: &mut [u8], key: &[u8]) {
    let mut s: Vec<u8> = (0..=255).collect();
    let mut j = 0u8;
    for i in 0..256 {
        j = j.wrapping_add(s[i]).wrapping_add(key[i % key.len()]);
        s.swap(i, j as usize);
    }
    let (mut i, mut j) = (0u8, 0u8);
    for b in data.iter_mut() {
        i = i.wrapping_add(1);
        j = j.wrapping_add(s[i as usize]);
        s.swap(i as usize, j as usize);
        let k = s[(s[i as usize].wrapping_add(s[j as usize])) as usize];
        *b ^= k;
    }
}

/// A GF(2) basis of {0,1}³² with triangular structure: basis vector `i`
/// has leading bit `i`, so decomposition is a top-down peel.
#[derive(Debug, Clone)]
pub struct Basis {
    /// The 32 basis vectors.
    pub vectors: [u32; 32],
}

impl Basis {
    /// Generates a random triangular basis from `seed`.
    pub fn random(seed: u64) -> Basis {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as u32
        };
        let mut vectors = [0u32; 32];
        for (i, v) in vectors.iter_mut().enumerate() {
            let below = if i == 0 {
                0
            } else {
                next() & ((1u32 << i) - 1)
            };
            *v = (1u32 << i) | below;
        }
        Basis { vectors }
    }

    /// Decomposes `v` over the basis: bit `i` of the returned
    /// coefficient mask is set iff vector `i` is in the combination.
    pub fn decompose(&self, v: u32) -> u32 {
        let mut residual = v;
        let mut mask = 0;
        for i in (0..32).rev() {
            if residual & (1 << i) != 0 {
                mask |= 1 << i;
                residual ^= self.vectors[i];
            }
        }
        mask
    }

    /// XOR of the basis vectors a coefficient mask selects (host-side
    /// check).
    pub fn combine(&self, mask: u32) -> u32 {
        (0..32)
            .filter(|i| mask & (1 << i) != 0)
            .fold(0, |acc, i| acc ^ self.vectors[i])
    }
}

/// Serialized coefficient-mask blob for the probabilistic generator.
///
/// Layout (little-endian u32 words): `[L][N][masks: L*N words]`, where
/// `masks[l*N + j]` is [`Basis::decompose`] of variant `j`'s word at
/// chain position `l`.
pub fn build_mask_blob(basis: &Basis, variants: &[Vec<u32>]) -> Vec<u8> {
    let n = variants.len();
    let l = variants[0].len();
    assert!(
        variants.iter().all(|v| v.len() == l),
        "variants same length"
    );
    let mut out = Vec::with_capacity(4 * (2 + l * n));
    out.extend_from_slice(&(l as u32).to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    for pos in 0..l {
        for var in variants {
            out.extend_from_slice(&basis.decompose(var[pos]).to_le_bytes());
        }
    }
    out
}

/// Text-slot size of the xor generator. Each generator keeps the size of
/// the `-O0` IR function it replaced (the same for every function and
/// key), so no other symbol moves: shrinking a slot moves
/// `__plx_stdset` and the loader runtime, which changes the `call
/// __plx_chain_enter` displacement inside every stub's gadget window
/// (DESIGN.md §21).
const XOR_SLOT: usize = 242;
/// Text-slot size of the RC4 generator (see [`XOR_SLOT`]).
const RC4_SLOT: usize = 663;
/// Text-slot size of the probabilistic generator (see [`XOR_SLOT`]).
const PROBABILISTIC_SLOT: usize = 539;

/// Frame slot holding the plaintext buffer, the generator's result. The
/// epilogue reloads it from here rather than from a relocated
/// `mov eax, buf`, which would sit in the final `ret`'s gadget window.
const BUF: i32 = -12;

fn frame(off: i32) -> Mem {
    Mem::base_disp(Reg32::Ebp, off)
}

fn indexed(base: Reg32, index: Reg32, scale: u8, disp: i32) -> Mem {
    Mem {
        base: Some(base),
        index: Some((index, scale)),
        disp,
    }
}

/// `push ebp; mov ebp, esp`, saves `esi`/`edi` at `[ebp-4]`/`[ebp-8]`
/// and pushes the buffer address into [`BUF`]. Kernels use only `eax`,
/// `ecx`, `edx`, `esi` and `edi`: a register-direct ModRM naming `ebx`
/// encodes as a return byte (`mov ebx, eax` is `89 c3`).
fn prologue(a: &mut Asm, buf_sym: &str) {
    a.push_r(Reg32::Ebp);
    a.mov_rr(Reg32::Ebp, Reg32::Esp);
    a.push_r(Reg32::Esi);
    a.push_r(Reg32::Edi);
    a.push_i_sym(buf_sym, 0);
}

/// Returns the buffer in `eax`, restores `esi`/`edi` and `ebp`. Every
/// decode that lands on the final `ret` runs through `leave` with `ebp`
/// not derived from `esp`, which no gadget survives, and none of these
/// bytes is relocated or a `pop ebp` (`5d`).
fn epilogue(mut a: Asm) -> Assembled {
    a.mov_rm(Reg32::Eax, frame(BUF));
    a.mov_rm(Reg32::Edi, frame(-8));
    a.mov_rm(Reg32::Esi, frame(-4));
    a.leave();
    a.ret();
    a.finish().expect("generator kernel assembles")
}

/// One xorshift32 step of `x` in place, through the scratch register `t`.
fn xorshift(a: &mut Asm, x: Reg32, t: Reg32) {
    for (op, n) in [(ShiftOp::Shl, 13), (ShiftOp::Shr, 17), (ShiftOp::Shl, 5)] {
        a.mov_rr(t, x);
        a.shift_ri(op, t, n);
        a.alu_rr(AluOp::Xor, x, t);
    }
}

/// Splits `v` into `(a, b)` with `a ^ b == v` and no return-opcode byte
/// (`c3`, `cb`) in either, so a key immediate never roots a gadget walk.
fn split_imm(v: u32) -> (i32, i32) {
    let mask = (0..4)
        .filter(|i| matches!((v >> (8 * i)) as u8, 0xc3 | 0xcb))
        .fold(0u32, |m, i| m | 0x10 << (8 * i));
    ((v ^ mask) as i32, mask as i32)
}

/// Places `kernel` at the end of a `size`-byte slot: the entry is a
/// `jmp` over an `int3` head, and the kernel's `ret` is the slot's last
/// byte. Padding after the `ret` instead would open a second return
/// window. A near `jmp` whose displacement would hold a return byte is
/// preceded by `nop`s until it does not.
fn into_slot(kernel: Assembled, size: usize) -> Assembled {
    let start = size
        .checked_sub(kernel.bytes.len())
        .filter(|&s| s >= 2)
        .expect("generator kernel fits its slot");
    let mut bytes = if start - 2 <= 0x7f {
        vec![0xeb, (start - 2) as u8]
    } else {
        let mut b = Vec::new();
        loop {
            let rel = ((start - 5 - b.len()) as u32).to_le_bytes();
            if !rel.iter().any(|x| matches!(x, 0xc3 | 0xcb)) {
                b.push(0xe9);
                b.extend_from_slice(&rel);
                break b;
            }
            b.push(0x90);
        }
    };
    bytes.resize(start, 0xcc);
    bytes.extend_from_slice(&kernel.bytes);
    let relocs = kernel
        .relocs
        .into_iter()
        .map(|r| SymReloc {
            offset: r.offset + start,
            ..r
        })
        .collect();
    Assembled {
        bytes,
        relocs,
        markers: kernel.markers,
    }
}

/// xor mode: `ks = key | 1`; for each of the `[len]` words, one
/// xorshift32 step, then `buf[i] = enc[i] ^ ks`.
fn xor_kernel(enc_sym: &str, buf_sym: &str, len_sym: &str, key: u32) -> Assembled {
    let mut a = Asm::new();
    prologue(&mut a, buf_sym);
    a.mov_ri_sym(Reg32::Esi, enc_sym, 0);
    a.mov_rm(Reg32::Edi, frame(BUF));
    a.mov_ri_sym(Reg32::Ecx, len_sym, 0);
    a.mov_rm(Reg32::Ecx, Mem::base(Reg32::Ecx));
    let (k0, k1) = split_imm(key | 1);
    a.mov_ri(Reg32::Eax, k0);
    a.alu_ri32(AluOp::Xor, Reg32::Eax, k1);
    let done = a.label();
    a.test_rr(Reg32::Ecx, Reg32::Ecx);
    a.jcc_short(Cond::E, done);
    let top = a.here();
    xorshift(&mut a, Reg32::Eax, Reg32::Edx);
    a.mov_rm(Reg32::Edx, Mem::base(Reg32::Esi));
    a.alu_rr(AluOp::Xor, Reg32::Edx, Reg32::Eax);
    a.mov_mr(Mem::base(Reg32::Edi), Reg32::Edx);
    a.alu_ri(AluOp::Add, Reg32::Esi, 4);
    a.alu_ri(AluOp::Add, Reg32::Edi, 4);
    a.dec_r(Reg32::Ecx);
    a.jcc_short(Cond::Ne, top);
    a.bind(done);
    epilogue(a)
}

/// RC4 mode: the full KSA (256 swaps) and then the PRGA over all
/// `[len]` chain bytes, every call. `i` lives in `ecx`, `j` in `edx`
/// (only their low bytes change, so both index the S-box directly), the
/// swapped bytes in `al`/`ah`. The KSA is unrolled by the key length
/// and the PRGA by four: a chain is whole words.
fn rc4_kernel(
    enc_sym: &str,
    buf_sym: &str,
    len_sym: &str,
    key_sym: &str,
    sbox_sym: &str,
) -> Assembled {
    use Reg8::{Ah, Al, Cl, Dl};
    const COUNT: i32 = -16;
    const END: i32 = -20;
    let mut a = Asm::new();
    prologue(&mut a, buf_sym);
    a.mov_ri_sym(Reg32::Esi, sbox_sym, 0);
    // S[i] = i, four bytes a store.
    a.mov_ri(Reg32::Eax, 0x0302_0100);
    a.alu_rr(AluOp::Xor, Reg32::Ecx, Reg32::Ecx);
    let fill = a.here();
    a.mov_mr(indexed(Reg32::Esi, Reg32::Ecx, 4, 0), Reg32::Eax);
    a.alu_ri32(AluOp::Add, Reg32::Eax, 0x0404_0404);
    a.inc_r(Reg32::Ecx);
    a.alu_ri(AluOp::Cmp, Reg32::Ecx, 64);
    a.jcc_short(Cond::Ne, fill);
    // KSA: j += S[i] + key[i % 8]; swap S[i], S[j].
    a.mov_ri_sym(Reg32::Edi, key_sym, 0);
    a.alu_rr(AluOp::Xor, Reg32::Ecx, Reg32::Ecx);
    a.alu_rr(AluOp::Xor, Reg32::Edx, Reg32::Edx);
    let ksa = a.here();
    for m in 0..RC4_KEY_LEN as i32 {
        let si = indexed(Reg32::Esi, Reg32::Ecx, 1, m);
        let sj = indexed(Reg32::Esi, Reg32::Edx, 1, 0);
        a.mov_rm8(Al, si);
        a.alu_rr8(AluOp::Add, Dl, Al);
        a.alu_rm8(AluOp::Add, Dl, Mem::base_disp(Reg32::Edi, m));
        a.mov_rm8(Ah, sj);
        a.mov_mr8(sj, Al);
        a.mov_mr8(si, Ah);
    }
    a.alu_ri(AluOp::Add, Reg32::Ecx, RC4_KEY_LEN as i32);
    a.alu_ri(AluOp::Cmp, Reg32::Ecx, 256);
    a.jcc(Cond::Ne, ksa);
    // PRGA: the key stream goes into the buffer.
    a.mov_rm(Reg32::Edi, frame(BUF));
    a.mov_ri_sym(Reg32::Ecx, len_sym, 0);
    a.mov_rm(Reg32::Ecx, Mem::base(Reg32::Ecx));
    a.push_r(Reg32::Ecx); // COUNT: chain bytes
    a.alu_rr(AluOp::Add, Reg32::Ecx, Reg32::Edi);
    a.push_r(Reg32::Ecx); // END: buffer end
    a.alu_rr(AluOp::Xor, Reg32::Ecx, Reg32::Ecx);
    a.alu_rr(AluOp::Xor, Reg32::Edx, Reg32::Edx);
    let crypt = a.label();
    a.alu_rm(AluOp::Cmp, Reg32::Edi, frame(END));
    a.jcc_short(Cond::E, crypt);
    let prga = a.here();
    for m in 0..4 {
        let si = indexed(Reg32::Esi, Reg32::Ecx, 1, 0);
        let sj = indexed(Reg32::Esi, Reg32::Edx, 1, 0);
        a.inc_r8(Cl);
        a.mov_rm8(Al, si);
        a.alu_rr8(AluOp::Add, Dl, Al);
        a.mov_rm8(Ah, sj);
        a.mov_mr8(sj, Al);
        a.mov_mr8(si, Ah);
        a.alu_rr8(AluOp::Add, Al, Ah);
        a.movzx_rr8(Reg32::Eax, Al);
        a.mov_rm8(Al, indexed(Reg32::Esi, Reg32::Eax, 1, 0));
        a.mov_mr8(Mem::base_disp(Reg32::Edi, m), Al);
    }
    a.alu_ri(AluOp::Add, Reg32::Edi, 4);
    a.alu_rm(AluOp::Cmp, Reg32::Edi, frame(END));
    a.jcc(Cond::Ne, prga);
    // buf ^= enc, one word at a time, last word first.
    a.bind(crypt);
    a.mov_ri_sym(Reg32::Esi, enc_sym, 0);
    a.mov_rm(Reg32::Edi, frame(BUF));
    a.mov_rm(Reg32::Ecx, frame(COUNT));
    a.shift_ri(ShiftOp::Shr, Reg32::Ecx, 2);
    let done = a.label();
    a.test_rr(Reg32::Ecx, Reg32::Ecx);
    a.jcc_short(Cond::E, done);
    let top = a.here();
    a.mov_rm(Reg32::Eax, indexed(Reg32::Esi, Reg32::Ecx, 4, -4));
    a.alu_mr(
        AluOp::Xor,
        indexed(Reg32::Edi, Reg32::Ecx, 4, -4),
        Reg32::Eax,
    );
    a.dec_r(Reg32::Ecx);
    a.jcc_short(Cond::Ne, top);
    a.bind(done);
    epilogue(a)
}

/// Words of the probabilistic generator's nibble table: eight groups
/// of sixteen, one group per four basis vectors.
const TABLE_WORDS: i32 = 128;

/// Probabilistic mode over the [`build_mask_blob`] layout, for `n`
/// variants. One `random` syscall per call; then the nibble table
/// `T[16g + v] = ⊕{basis[4g + b] : bit b of v}` in the frame, each group
/// in Gray-code order (one XOR per entry); then per position `j = r % n`
/// (`and n−1` when `n` is a power of two, an unsigned `div` otherwise),
/// one xorshift32 step of `r`, and the XOR of eight table entries, one
/// per nibble of mask `(l, j)`.
fn probabilistic_kernel(blob_sym: &str, basis_sym: &str, buf_sym: &str, n: usize) -> Assembled {
    use Reg32::{Eax, Ecx, Edi, Edx, Esi, Esp};
    const R: i32 = -16;
    const END: i32 = -20;
    const N: i32 = -24;
    const ROW_STEP: i32 = -28;
    let table = |idx: Reg32, g: i32| indexed(Esp, idx, 4, 64 * g);
    // The `and` path also takes `4·n` as an immediate.
    let pow2 = n.is_power_of_two() && n < 1 << 29;
    let mut a = Asm::new();
    prologue(&mut a, buf_sym);
    // Four scalar slots, then the table at `esp`.
    a.alu_ri32(AluOp::Sub, Esp, 16 + 4 * TABLE_WORDS);
    a.mov_ri(Eax, sysno::RANDOM as i32);
    a.int(0x80);
    a.mov_mr(frame(R), Eax);
    // The table: basis vectors 0 and 1 of a group in `ecx`/`edx`, 2 and
    // 3 read from memory; `END` holds the basis end meanwhile.
    a.mov_ri_sym(Esi, basis_sym, 0);
    a.lea(Eax, Mem::base_disp(Esi, 128));
    a.mov_mr(frame(END), Eax);
    a.mov_rr(Edi, Esp);
    let group = a.here();
    a.mov_rm(Ecx, Mem::base(Esi));
    a.mov_rm(Edx, Mem::base_disp(Esi, 4));
    a.alu_rr(AluOp::Xor, Eax, Eax);
    a.mov_mr(Mem::base(Edi), Eax);
    for i in 1..16i32 {
        match i.trailing_zeros() {
            0 => a.alu_rr(AluOp::Xor, Eax, Ecx),
            1 => a.alu_rr(AluOp::Xor, Eax, Edx),
            b => a.alu_rm(AluOp::Xor, Eax, Mem::base_disp(Esi, 4 * b as i32)),
        }
        a.mov_mr(Mem::base_disp(Edi, 4 * (i ^ (i >> 1))), Eax);
    }
    a.alu_ri(AluOp::Add, Esi, 16);
    a.alu_ri(AluOp::Add, Edi, 64);
    a.alu_rm(AluOp::Cmp, Esi, frame(END));
    a.jcc_short(Cond::Ne, group);
    // Per-position state: masks of position 0 in `esi`, the output in
    // `edi`, `r` and the output end in the frame.
    a.mov_ri_sym(Ecx, blob_sym, 0);
    a.mov_rm(Edi, frame(BUF));
    a.mov_rm(Eax, Mem::base(Ecx));
    a.shift_ri(ShiftOp::Shl, Eax, 2);
    a.alu_rr(AluOp::Add, Eax, Edi);
    a.mov_mr(frame(END), Eax);
    if !pow2 {
        a.mov_rm(Eax, Mem::base_disp(Ecx, 4));
        a.mov_mr(frame(N), Eax);
        a.shift_ri(ShiftOp::Shl, Eax, 2);
        a.mov_mr(frame(ROW_STEP), Eax);
    }
    a.lea(Esi, Mem::base_disp(Ecx, 8));
    let done = a.label();
    a.alu_rm(AluOp::Cmp, Edi, frame(END));
    a.jcc(Cond::E, done);
    let outer = a.here();
    // `edx = r % n`, `r` one xorshift32 step on.
    a.mov_rm(Eax, frame(R));
    if pow2 {
        a.mov_rr(Edx, Eax);
        a.alu_ri(AluOp::And, Edx, n as i32 - 1);
        xorshift(&mut a, Eax, Ecx);
        a.mov_mr(frame(R), Eax);
    } else {
        a.mov_rr(Ecx, Eax);
        a.alu_rr(AluOp::Xor, Edx, Edx);
        a.div_m(frame(N));
        xorshift(&mut a, Ecx, Eax);
        a.mov_mr(frame(R), Ecx);
    }
    a.mov_rm(Edx, indexed(Esi, Edx, 4, 0));
    if pow2 {
        a.alu_ri(AluOp::Add, Esi, 4 * n as i32);
    } else {
        a.alu_rm(AluOp::Add, Esi, frame(ROW_STEP));
    }
    // Nibbles 0–3 from `dl`/`dh`, 4–7 from them after `shr edx, 16`.
    for half in 0..2 {
        for (g, byte) in [(0, Reg8::Dl), (2, Reg8::Dh)] {
            let g = 4 * half + g;
            a.movzx_rr8(Ecx, byte);
            a.alu_ri(AluOp::And, Ecx, 15);
            if g == 0 {
                a.mov_rm(Eax, table(Ecx, g));
            } else {
                a.alu_rm(AluOp::Xor, Eax, table(Ecx, g));
            }
            a.movzx_rr8(Ecx, byte);
            a.shift_ri(ShiftOp::Shr, Ecx, 4);
            a.alu_rm(AluOp::Xor, Eax, table(Ecx, g + 1));
        }
        if half == 0 {
            a.shift_ri(ShiftOp::Shr, Edx, 16);
        }
    }
    a.mov_mr(Mem::base(Edi), Eax);
    a.alu_ri(AluOp::Add, Edi, 4);
    a.alu_rm(AluOp::Cmp, Edi, frame(END));
    a.jcc(Cond::Ne, outer);
    a.bind(done);
    epilogue(a)
}

/// Installs the mode's generator and its data objects into `prog`;
/// returns the generator symbol, or `None` for cleartext. Data contents
/// are placeholders that `protect` fills in during the link fixpoint.
pub fn install_generator_binary(
    prog: &mut Program,
    func: &str,
    mode: &ChainMode,
) -> Option<String> {
    let gen_sym = format!("__plx_gen_{func}");
    let enc_sym = format!("__plx_enc_{func}");
    let buf_sym = format!("__plx_chain_{func}");
    let len_sym = format!("__plx_len_{func}");
    match mode {
        ChainMode::Cleartext => return None,
        ChainMode::XorEncrypted { key } => {
            let k = xor_kernel(&enc_sym, &buf_sym, &len_sym, *key);
            prog.add_func(&gen_sym, into_slot(k, XOR_SLOT));
            prog.add_data(&len_sym, vec![0; 4]);
            prog.add_data(&enc_sym, Vec::new());
            prog.add_bss(&buf_sym, 0);
        }
        ChainMode::Rc4Encrypted { key } => {
            let key_sym = format!("__plx_key_{func}");
            let sbox_sym = format!("__plx_sbox_{func}");
            let k = rc4_kernel(&enc_sym, &buf_sym, &len_sym, &key_sym, &sbox_sym);
            prog.add_func(&gen_sym, into_slot(k, RC4_SLOT));
            prog.add_data(&len_sym, vec![0; 4]);
            prog.add_data(&key_sym, key.to_vec());
            prog.add_data(&enc_sym, Vec::new());
            prog.add_bss(&buf_sym, 0);
            prog.add_bss(&sbox_sym, 256);
        }
        ChainMode::Probabilistic { .. } => {
            let blob_sym = format!("__plx_blob_{func}");
            let basis_sym = format!("__plx_basis_{func}");
            let n = mode.variant_count();
            let k = probabilistic_kernel(&blob_sym, &basis_sym, &buf_sym, n);
            prog.add_func(&gen_sym, into_slot(k, PROBABILISTIC_SLOT));
            prog.add_data(&blob_sym, Vec::new());
            prog.add_data(&basis_sym, vec![0; 128]);
            prog.add_bss(&buf_sym, 0);
        }
    }
    Some(gen_sym)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_roundtrip() {
        let mut words = vec![0xdead_beef, 0x1234_5678, 0, u32::MAX];
        let orig = words.clone();
        xor_crypt(&mut words, 42);
        assert_ne!(words, orig);
        xor_crypt(&mut words, 42);
        assert_eq!(words, orig);
    }

    #[test]
    fn rc4_roundtrip_and_vector() {
        // RFC 6229-style check: key "Key", plaintext "Plaintext".
        let mut data = b"Plaintext".to_vec();
        rc4_crypt(&mut data, b"Key");
        assert_eq!(
            data,
            vec![0xbb, 0xf3, 0x16, 0xe8, 0xd9, 0x40, 0xaf, 0x0a, 0xd3]
        );
        rc4_crypt(&mut data, b"Key");
        assert_eq!(data, b"Plaintext");
    }

    #[test]
    fn basis_decompose_combine() {
        let basis = Basis::random(7);
        for v in [0u32, 1, 0xdead_beef, u32::MAX, 0x8000_0000] {
            let mask = basis.decompose(v);
            assert_eq!(basis.combine(mask), v, "value {v:#x}");
        }
        // Distinct seeds give distinct bases (overwhelmingly likely).
        let b2 = Basis::random(8);
        assert_ne!(basis.vectors, b2.vectors);
    }

    #[test]
    fn every_mask_recombines_to_its_word() {
        let basis = Basis::random(3);
        let variants = vec![
            vec![5, 10, 0, u32::MAX],
            vec![5, 12, 0x0804_c353, 1],
            vec![9, 0xdead_beef, 7, 0x8000_0000],
        ];
        let blob = build_mask_blob(&basis, &variants);
        let w = |i: usize| u32::from_le_bytes(blob[4 * i..4 * i + 4].try_into().unwrap());
        assert_eq!(blob.len(), 4 * (2 + 4 * 3));
        assert_eq!((w(0), w(1)), (4, 3)); // L, N
        for (j, var) in variants.iter().enumerate() {
            for (l, &word) in var.iter().enumerate() {
                assert_eq!(basis.combine(w(2 + 3 * l + j)), word, "({l}, {j})");
            }
        }
    }

    #[test]
    fn key_bytes_never_plant_a_return() {
        for key in [0x5eed_0042, 0xc3cb_c3cb, 0xcbc3_00c2, u32::MAX] {
            let mut p = Program::new();
            let gen = install_generator_binary(&mut p, "f", &ChainMode::XorEncrypted { key });
            let bytes = &p.func(&gen.unwrap()).unwrap().bytes;
            let rets: Vec<usize> = (0..bytes.len())
                .filter(|&i| matches!(bytes[i], 0xc3 | 0xcb))
                .collect();
            assert_eq!(rets, vec![XOR_SLOT - 1], "key {key:#x}");
        }
    }

    #[test]
    fn probabilistic_kernels_plant_no_return_but_the_last() {
        for variants in [0, 2, 3, 6, 8, 16, 195, 203, 256] {
            let mut p = Program::new();
            let mode = ChainMode::Probabilistic { variants, seed: 1 };
            let gen = install_generator_binary(&mut p, "f", &mode);
            let bytes = &p.func(&gen.unwrap()).unwrap().bytes;
            let rets: Vec<usize> = (0..bytes.len())
                .filter(|&i| matches!(bytes[i], 0xc3 | 0xcb))
                .collect();
            assert_eq!(rets, vec![PROBABILISTIC_SLOT - 1], "N={variants}");
        }
    }

    #[test]
    fn mode_names() {
        assert_eq!(ChainMode::Cleartext.name(), "cleartext");
        assert_eq!(ChainMode::XorEncrypted { key: 1 }.name(), "xor");
        assert_eq!(ChainMode::Rc4Encrypted { key: [0; 8] }.name(), "rc4");
        assert_eq!(
            ChainMode::Probabilistic {
                variants: 4,
                seed: 1
            }
            .name(),
            "probabilistic"
        );
    }
}
