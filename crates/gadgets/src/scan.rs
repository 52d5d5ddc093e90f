//! The gadget scanner.
//!
//! Scans text-section bytes for return-terminated instruction
//! sequences, aligned or not: for every `ret`/`retf` opcode byte, every
//! decode that starts up to [`MAX_GADGET_BYTES`] earlier and lands
//! exactly on the return is a candidate. Following the paper (§VII-A),
//! candidates longer than six instructions are discarded, as are
//! sequences containing control flow before the final return.
//!
//! The scan is a **single forward pass**: every text offset is decoded
//! at most once into a memoized successor table (length, interior
//! eligibility, return kind), and the backward candidate enumeration
//! from each return byte is pure table lookups. A rescan of a text
//! that differs in a few bytes takes the previous table and decodes
//! only near the changes (DESIGN.md §17). The naive
//! decode-per-walk-step scanner is retained as
//! [`scan_reference`] — a differential oracle proving the memoized
//! scanner emits an identical candidate stream.

use parallax_x86::insn::{Insn, Mnemonic};
use parallax_x86::{decode, Operand};

/// Maximum gadget length in instructions, including the return
/// (the paper limits considered gadgets to six instructions).
pub const MAX_GADGET_INSNS: usize = 6;

/// Maximum distance (bytes) scanned back from a return opcode.
pub const MAX_GADGET_BYTES: usize = 24;

/// A raw candidate: decoded instructions ending in a return.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Virtual address of the first instruction.
    pub vaddr: u32,
    /// The instruction sequence; the last element is the return.
    pub insns: Vec<Insn>,
    /// Total byte length.
    pub len: u32,
    /// Terminates in `retf`.
    pub far: bool,
}

impl Candidate {
    /// Renders the candidate as `insn; insn; ...`.
    pub fn disasm(&self) -> String {
        self.insns
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// True if `insn` may appear *before* the final return of a gadget.
fn allowed_interior(insn: &Insn) -> bool {
    !matches!(
        insn.mnemonic,
        Mnemonic::Jmp
            | Mnemonic::JmpInd
            | Mnemonic::Jcc(_)
            | Mnemonic::Call
            | Mnemonic::CallInd
            | Mnemonic::Ret
            | Mnemonic::Retf
            | Mnemonic::Int3
            | Mnemonic::Hlt
    )
}

fn is_plain_ret(insn: &Insn) -> Option<bool> {
    match insn.mnemonic {
        // `ret imm16` releases caller stack; unusable for chains.
        Mnemonic::Ret if insn.ops.is_empty() => Some(false),
        Mnemonic::Retf if insn.ops.is_empty() => Some(true),
        _ => None,
    }
}

/// Statistics from one scan pass, exported as `scan.decode.*` trace
/// counters. `decoded + reused == offsets`: the memoized scanner
/// decodes each text offset at most once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Text offsets considered (one potential decode start per byte).
    pub offsets: u64,
    /// `decode()` invocations performed: at most one decode per offset;
    /// offsets reused from the previous pass are not decoded.
    pub decoded: u64,
    /// Offsets whose decode was carried over from the previous pass.
    pub reused: u64,
    /// Successor-table lookups served from the memo during candidate
    /// walks; under the naive scanner each would have been a decode.
    pub memo_hits: u64,
    /// `ret`/`retf` opcode bytes anchoring backward walks.
    pub rets: u64,
    /// Candidates emitted.
    pub candidates: u64,
}

/// Bytes a decode at one offset may read: x86 caps an instruction at
/// 15 bytes, so a change at byte `c` can only alter the decodes at
/// offsets `c - 14 ..= c`.
const DECODE_WINDOW: usize = 15;

/// One memoized decode: everything a candidate walk needs to know
/// about the instruction starting at this offset.
pub(crate) struct Slot {
    insn: Option<Insn>,
    len: u8,
    interior_ok: bool,
    /// `Some(far)` when this decode is a bare `ret`/`retf`.
    ret: Option<bool>,
}

/// Scans `text` (mapped at `base`) for gadget candidates.
///
/// Duplicate sequences at different addresses are all reported; the
/// classifier deduplicates by effect, not by bytes, since Parallax
/// cares about *where* a gadget lives (which instructions it overlaps).
pub fn scan(text: &[u8], base: u32) -> Vec<Candidate> {
    scan_with_stats(text, base).0
}

/// [`scan`], also returning the pass's [`ScanStats`].
pub fn scan_with_stats(text: &[u8], base: u32) -> (Vec<Candidate>, ScanStats) {
    let (cands, stats, _) = scan_reusing(text, base, None);
    (cands, stats)
}

fn decode_slot(text: &[u8], i: usize) -> Slot {
    match decode(&text[i..]) {
        Ok(insn) => Slot {
            len: insn.len,
            interior_ok: allowed_interior(&insn),
            ret: is_plain_ret(&insn),
            insn: Some(insn),
        },
        Err(_) => Slot {
            insn: None,
            len: 0,
            interior_ok: false,
            ret: None,
        },
    }
}

/// [`scan_with_stats`], also returning the pass's decode table. With
/// `prev` — the previous pass's text, of the same length, and its
/// decode table — only offsets whose [`DECODE_WINDOW`] holds a changed
/// byte are decoded again; every other slot moves over as is. A `prev`
/// of another length is ignored.
pub(crate) fn scan_reusing(
    text: &[u8],
    base: u32,
    prev: Option<(&[u8], Vec<Slot>)>,
) -> (Vec<Candidate>, ScanStats, Vec<Slot>) {
    let mut stats = ScanStats {
        offsets: text.len() as u64,
        ..ScanStats::default()
    };
    // Forward pass: decode once at every offset not carried over.
    let table: Vec<Slot> = match prev {
        Some((old, slots)) if old.len() == text.len() && slots.len() == text.len() => {
            let mut stale = vec![false; text.len()];
            for (c, _) in old
                .iter()
                .zip(text)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
            {
                stale[c.saturating_sub(DECODE_WINDOW - 1)..=c].fill(true);
            }
            slots
                .into_iter()
                .zip(stale)
                .enumerate()
                .map(|(i, (slot, stale))| {
                    if stale {
                        stats.decoded += 1;
                        decode_slot(text, i)
                    } else {
                        stats.reused += 1;
                        slot
                    }
                })
                .collect()
        }
        _ => {
            stats.decoded = text.len() as u64;
            (0..text.len()).map(|i| decode_slot(text, i)).collect()
        }
    };
    let mut out = Vec::new();
    for (i, &b) in text.iter().enumerate() {
        if b != 0xc3 && b != 0xcb {
            continue;
        }
        stats.rets += 1;
        // Candidate starts: walk back, resolving each step from the
        // memo table instead of re-decoding.
        for back in 1..=MAX_GADGET_BYTES.min(i) {
            let start = i - back;
            if let Some(c) = walk_table(&table, base, start, i, &mut stats) {
                out.push(c);
            }
        }
        // The bare return itself is also a (trivial) candidate, useful
        // as a chain NOP.
        if let Some(c) = walk_table(&table, base, i, i, &mut stats) {
            out.push(c);
        }
    }
    stats.candidates = out.len() as u64;
    (out, stats, table)
}

/// Table-driven equivalent of [`try_sequence`]: identical rejection
/// rules and candidate shape, but each step is a memo lookup. The walk
/// records slot offsets and clones instructions only once it has
/// landed on the return: most walks fail, and cloning at every step
/// would cost many times the decodes themselves.
fn walk_table(
    table: &[Slot],
    base: u32,
    start: usize,
    ret_at: usize,
    stats: &mut ScanStats,
) -> Option<Candidate> {
    let mut path = [0usize; MAX_GADGET_INSNS];
    let mut n = 0;
    let mut pos = start;
    while pos <= ret_at {
        stats.memo_hits += 1;
        let slot = &table[pos];
        slot.insn.as_ref()?;
        if n == MAX_GADGET_INSNS {
            return None;
        }
        path[n] = pos;
        n += 1;
        if pos == ret_at {
            let far = slot.ret?;
            return Some(Candidate {
                vaddr: base + start as u32,
                insns: path[..n]
                    .iter()
                    .filter_map(|&p| table[p].insn.clone())
                    .collect(),
                len: (ret_at + 1 - start) as u32,
                far,
            });
        }
        if !slot.interior_ok {
            return None;
        }
        // The sequence must land exactly on the return byte.
        let next = pos + slot.len as usize;
        if next > ret_at {
            return None;
        }
        pos = next;
    }
    None
}

/// The original decode-per-walk-step scanner, retained as the
/// differential oracle for [`scan_with_stats`].
#[doc(hidden)]
pub fn scan_reference(text: &[u8], base: u32) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (i, &b) in text.iter().enumerate() {
        if b != 0xc3 && b != 0xcb {
            continue;
        }
        for back in 1..=MAX_GADGET_BYTES.min(i) {
            let start = i - back;
            if let Some(c) = try_sequence(text, base, start, i) {
                out.push(c);
            }
        }
        if let Some(c) = try_sequence(text, base, i, i) {
            out.push(c);
        }
    }
    out
}

/// Attempts to decode a straight-line sequence covering
/// `[start..=ret_at]` whose final instruction is the return at
/// `ret_at`.
fn try_sequence(text: &[u8], base: u32, start: usize, ret_at: usize) -> Option<Candidate> {
    let mut insns = Vec::new();
    let mut pos = start;
    while pos <= ret_at {
        let insn = decode(&text[pos..]).ok()?;
        let next = pos + insn.len as usize;
        if pos == ret_at {
            let far = is_plain_ret(&insn)?;
            insns.push(insn);
            if insns.len() > MAX_GADGET_INSNS {
                return None;
            }
            return Some(Candidate {
                vaddr: base + start as u32,
                insns,
                len: (ret_at + 1 - start) as u32,
                far,
            });
        }
        if !allowed_interior(&insn) || insns.len() + 1 > MAX_GADGET_INSNS {
            return None;
        }
        // The sequence must land exactly on the return byte.
        if next > ret_at {
            return None;
        }
        insns.push(insn);
        pos = next;
    }
    None
}

/// Convenience: true if an instruction sequence contains an `int 0x80`.
pub fn has_syscall(insns: &[Insn]) -> bool {
    insns
        .iter()
        .any(|i| i.mnemonic == Mnemonic::Int && matches!(i.ops.first(), Some(Operand::Imm(0x80))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_aligned_and_unaligned() {
        // Bytes: b8 01 00 00 00 c3  = mov eax,1; ret
        // Unaligned suffixes: "00 00 00 c3" = add [eax],al; add bl,al?...
        let text = [0xb8, 0x01, 0x00, 0x00, 0x00, 0xc3];
        let cands = scan(&text, 0x1000);
        // The aligned whole-instruction gadget exists.
        assert!(cands
            .iter()
            .any(|c| c.vaddr == 0x1000 && c.disasm() == "mov eax,0x1; ret"));
        // An unaligned one starting inside the immediate exists too:
        // 00 00 = add [eax],al ; 00 c3 = add bl,al ; c3 = ret
        assert!(cands
            .iter()
            .any(|c| c.vaddr == 0x1001 && c.insns.len() == 3));
        // The bare ret.
        assert!(cands
            .iter()
            .any(|c| c.vaddr == 0x1005 && c.insns.len() == 1));
    }

    #[test]
    fn respects_instruction_limit() {
        // Seven pops then ret: the full sequence exceeds 6 insns, but
        // suffixes are fine.
        let mut text = vec![0x58u8; 7];
        text.push(0xc3);
        let cands = scan(&text, 0);
        assert!(cands.iter().all(|c| c.insns.len() <= MAX_GADGET_INSNS));
        assert!(cands.iter().any(|c| c.insns.len() == MAX_GADGET_INSNS));
    }

    #[test]
    fn rejects_interior_control_flow() {
        // e8 xx xx xx xx c3 : call rel32; ret — call may not appear inside.
        let text = [0xe8, 0x00, 0x00, 0x00, 0x00, 0xc3];
        let cands = scan(&text, 0);
        assert!(cands.iter().all(|c| c.disasm() != "call .+0x0; ret"));
    }

    #[test]
    fn rejects_ret_imm_but_accepts_retf() {
        let text = [0x58, 0xc2, 0x08, 0x00]; // pop eax; ret 8
        assert!(scan(&text, 0)
            .iter()
            .all(|c| !c.disasm().contains("ret 0x8")));
        let text2 = [0x58, 0xcb]; // pop eax; retf
        let cands = scan(&text2, 0);
        assert!(cands.iter().any(|c| c.far && c.insns.len() == 2));
    }

    /// The memoized scanner must emit the reference scanner's stream
    /// exactly — same candidates, same order.
    fn assert_equivalent(text: &[u8], base: u32) {
        let (memo, stats) = scan_with_stats(text, base);
        let naive = scan_reference(text, base);
        assert_eq!(memo.len(), naive.len());
        for (m, n) in memo.iter().zip(&naive) {
            assert_eq!(m.vaddr, n.vaddr);
            assert_eq!(m.len, n.len);
            assert_eq!(m.far, n.far);
            assert_eq!(m.insns, n.insns);
        }
        assert_eq!(stats.decoded, text.len() as u64, "one decode per offset");
        assert_eq!(stats.candidates, memo.len() as u64);
    }

    #[test]
    fn memoized_scan_matches_reference_on_synthetic_buffers() {
        assert_equivalent(&[0xb8, 0x01, 0x00, 0x00, 0x00, 0xc3], 0x1000);
        assert_equivalent(&[0x58, 0xc2, 0x08, 0x00, 0x58, 0xcb], 0);
        let mut pops = vec![0x58u8; 9];
        pops.push(0xc3);
        assert_equivalent(&pops, 0x8048000);
        // Deterministic pseudo-random byte soup: dense unaligned rets.
        let mut x = 0x1234_5678u32;
        let soup: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        assert_equivalent(&soup, 0x1000);
    }

    /// Byte soup dense in unaligned returns.
    fn soup(len: usize, mut x: u32) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn rescan_reuses_decodes_away_from_changed_bytes() {
        let old = soup(4096, 0x1234_5678);
        let (_, _, table) = scan_reusing(&old, 0x1000, None);
        let mut new = old.clone();
        for at in [0, 17, 2000, 2001, 4095] {
            new[at] ^= 0x5a;
        }
        let (cands, stats, _) = scan_reusing(&new, 0x1000, Some((&old, table)));
        let fresh = scan_reference(&new, 0x1000);
        assert_eq!(format!("{cands:?}"), format!("{fresh:?}"));
        // 1 + 15 + 15 + 1 + 15 offsets lie within 14 bytes before a change.
        assert_eq!(stats.decoded, 47);
        assert_eq!(stats.decoded + stats.reused, stats.offsets);
        // A table for another length is ignored.
        let (_, _, table) = scan_reusing(&old, 0x1000, None);
        let (_, stats, _) = scan_reusing(&new[1..], 0x1000, Some((&old, table)));
        assert_eq!((stats.decoded, stats.reused), (4095, 0));
    }

    #[test]
    fn sequences_must_land_exactly_on_ret() {
        // 83 c0 c3 : add eax, -0x3d — the c3 is *inside* the add, so
        // the only gadgets are ones decoding c3 directly.
        let text = [0x83, 0xc0, 0xc3];
        let cands = scan(&text, 0);
        for c in &cands {
            assert_eq!(c.vaddr, 2, "got {}", c.disasm());
        }
    }
}
