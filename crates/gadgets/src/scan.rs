//! The gadget scanner.
//!
//! Scans text-section bytes for return-terminated instruction
//! sequences, aligned or not: for every `ret`/`retf` opcode byte, every
//! decode that starts up to [`MAX_GADGET_BYTES`] earlier and lands
//! exactly on the return is a candidate. Following the paper (§VII-A),
//! candidates longer than six instructions are discarded, as are
//! sequences containing control flow before the final return.
//!
//! Walks read a [`DecodeTable`]: each text offset a walk reaches is
//! decoded once, and offsets more than [`MAX_GADGET_BYTES`] before
//! every return are never decoded. A rescan
//! of a text that differs in a few bytes takes the previous table and
//! decodes again only the slots whose own bytes changed (DESIGN.md §17,
//! §20). The naive decode-per-walk-step scanner is kept, behind the
//! `oracle` feature, as `scan_reference`: a differential oracle proving
//! the table-driven scanner emits an identical candidate stream.

use std::cell::{Cell, OnceCell};
use std::fmt;
use std::sync::LazyLock;

use parallax_x86::insn::{Insn, Mnemonic};
use parallax_x86::{decode_read, Operand};

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
        CandidateRef::from(self).disasm()
    }
}

/// A candidate whose instructions are borrowed: from the slots of the
/// [`DecodeTable`] its walk read, or from an owned [`Candidate`]. A
/// gadget pass classifies and probes these, so no candidate copies its
/// instructions.
#[derive(Clone, Copy)]
pub struct CandidateRef<'a> {
    /// Virtual address of the first instruction.
    pub vaddr: u32,
    /// Total byte length.
    pub len: u32,
    /// Terminates in `retf`.
    pub far: bool,
    /// The first `n` are the sequence; the rest repeat the return.
    insns: [&'a Insn; MAX_GADGET_INSNS],
    n: u8,
}

impl<'a> CandidateRef<'a> {
    /// The instruction sequence; the last element is the return.
    pub fn insns(&self) -> &[&'a Insn] {
        &self.insns[..usize::from(self.n)]
    }

    /// Renders the candidate as `insn; insn; ...`.
    pub fn disasm(&self) -> String {
        self.insns()
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// An owned copy, its instructions cloned.
    pub fn to_owned(&self) -> Candidate {
        Candidate {
            vaddr: self.vaddr,
            insns: self.insns().iter().map(|&i| i.clone()).collect(),
            len: self.len,
            far: self.far,
        }
    }
}

impl<'a> From<&'a Candidate> for CandidateRef<'a> {
    /// Borrows `cand`, which holds 1 to [`MAX_GADGET_INSNS`]
    /// instructions, as every scanner emits.
    fn from(cand: &'a Candidate) -> CandidateRef<'a> {
        let n = cand.insns.len();
        assert!(
            (1..=MAX_GADGET_INSNS).contains(&n),
            "a candidate holds 1 to {MAX_GADGET_INSNS} instructions, not {n}"
        );
        CandidateRef {
            vaddr: cand.vaddr,
            len: cand.len,
            far: cand.far,
            insns: std::array::from_fn(|k| &cand.insns[k.min(n - 1)]),
            n: n as u8,
        }
    }
}

impl fmt::Debug for CandidateRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CandidateRef")
            .field("vaddr", &self.vaddr)
            .field("insns", &self.insns())
            .field("len", &self.len)
            .field("far", &self.far)
            .finish()
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
/// counters. `decoded + reused + skipped == offsets`: the walks from a
/// return read every offset up to [`MAX_GADGET_BYTES`] before it, each
/// read slot is decoded at most once, and no other offset is decoded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Text offsets considered (one potential decode start per byte).
    pub offsets: u64,
    /// `decode()` invocations performed: one per offset a walk reached
    /// whose slot was still empty.
    pub decoded: u64,
    /// Offsets a walk reached whose decode was already in the table:
    /// carried over from the previous pass, or filled by an earlier
    /// read of the same table.
    pub reused: u64,
    /// Offsets no walk reached: more than [`MAX_GADGET_BYTES`] before
    /// every return. They are never decoded.
    pub skipped: u64,
    /// Successor-table lookups served from the memo during candidate
    /// walks; under the naive scanner each would have been a decode.
    pub memo_hits: u64,
    /// `ret`/`retf` opcode bytes anchoring backward walks.
    pub rets: u64,
    /// Candidates emitted.
    pub candidates: u64,
}

/// The most bytes a decode may read: x86 caps an instruction at 15
/// bytes, so a change at byte `c` can only alter a decode at offsets
/// `c - 14 ..= c`.
const DECODE_WINDOW: usize = 15;

/// One memoized decode: everything a candidate walk needs to know
/// about the instruction starting at this offset.
pub(crate) struct Slot {
    insn: Option<Insn>,
    /// The bytes the decode read ([`decode_read`]): the instruction's
    /// length, or for a failed decode the bytes read before the error.
    /// The decode depends on these bytes and no others.
    len: u8,
    interior_ok: bool,
    /// `Some(far)` when this decode is a bare `ret`/`retf`.
    ret: Option<bool>,
}

/// The slots of a [`DecodeTable`], kept between passes.
pub(crate) type Slots = Vec<OnceCell<Slot>>;

fn decode_slot(bytes: &[u8]) -> Slot {
    let (insn, read) = decode_read(bytes);
    Slot {
        len: read as u8,
        interior_ok: insn.as_ref().is_ok_and(allowed_interior),
        ret: insn.as_ref().ok().and_then(is_plain_ret),
        insn: insn.ok(),
    }
}

/// The slot a planted bare near `ret` decodes to.
static BARE_RET: LazyLock<Slot> = LazyLock::new(|| decode_slot(&[0xc3]));

/// The decodes of one text, filled lazily: a slot is decoded the first
/// time something reads it, and is read from the table ever after.
///
/// The x86 decoder reads an instruction's bytes in order and no
/// further, so a decode that succeeds at `i` depends only on the `len`
/// bytes `text[i..i + len]`, and one that fails only on the bytes it
/// read before the error, which its slot records. That read extent is
/// what lets a rescan keep every slot whose own bytes did not change,
/// and a planted-return walk use the decodes of the unmodified text
/// (DESIGN.md §20).
pub struct DecodeTable<'t> {
    text: &'t [u8],
    slots: Slots,
    decodes: Cell<u64>,
}

impl<'t> DecodeTable<'t> {
    /// An empty table over `text`: nothing is decoded yet.
    pub fn new(text: &'t [u8]) -> DecodeTable<'t> {
        DecodeTable {
            text,
            slots: (0..text.len()).map(|_| OnceCell::new()).collect(),
            decodes: Cell::new(0),
        }
    }

    /// A table over `text` that starts with the slots of `prev` — the
    /// previous pass's text, of the same length, and its table's slots
    /// — minus each slot whose decode read a changed byte. A `prev` of
    /// another length is ignored.
    pub(crate) fn reusing(text: &'t [u8], prev: Option<(&[u8], Slots)>) -> DecodeTable<'t> {
        let Some((old, mut slots)) =
            prev.filter(|(old, slots)| old.len() == text.len() && slots.len() == text.len())
        else {
            return DecodeTable::new(text);
        };
        for c in (0..text.len()).filter(|&c| old[c] != text[c]) {
            let lo = c.saturating_sub(DECODE_WINDOW - 1);
            for (i, slot) in (lo..).zip(&mut slots[lo..=c]) {
                if slot.get().is_some_and(|s| i + usize::from(s.len) > c) {
                    slot.take();
                }
            }
        }
        DecodeTable {
            text,
            slots,
            decodes: Cell::new(0),
        }
    }

    /// The table's slots, for a later [`DecodeTable::reusing`].
    pub(crate) fn into_slots(self) -> Slots {
        self.slots
    }

    fn slot(&self, i: usize) -> &Slot {
        self.slots[i].get_or_init(|| {
            self.decodes.set(self.decodes.get() + 1);
            decode_slot(&self.text[i..])
        })
    }

    /// The instruction at text offset `i`, decoded on first read;
    /// `None` when the bytes there do not decode.
    pub fn insn(&self, i: usize) -> Option<&Insn> {
        self.slot(i).insn.as_ref()
    }

    /// `decode()` calls this table has made so far.
    pub fn decodes(&self) -> u64 {
        self.decodes.get()
    }

    /// Scans the table's text, mapped at `base`, for gadget candidates:
    /// the stream [`scan`] returns, with the pass's [`ScanStats`].
    /// Slots filled before the call count as reused.
    pub fn scan(&self, base: u32) -> (Vec<Candidate>, ScanStats) {
        let (cands, stats) = self.candidates(base);
        (cands.iter().map(CandidateRef::to_owned).collect(), stats)
    }

    /// [`DecodeTable::scan`] with each candidate's instructions borrowed
    /// from the table.
    pub fn candidates(&self, base: u32) -> (Vec<CandidateRef<'_>>, ScanStats) {
        let before = self.decodes.get();
        let mut stats = ScanStats {
            offsets: self.text.len() as u64,
            ..ScanStats::default()
        };
        let rets = || {
            self.text
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b == 0xc3 || b == 0xcb)
                .map(|(i, _)| i)
        };
        // Every walk reads its start first, so the walks from a return
        // at `i` read exactly `i - MAX_GADGET_BYTES ..= i`. Those slots
        // are filled first, in one forward sweep apart from the walks:
        // decodes interleaved with walks measured slower on text dense
        // in returns.
        let (mut reached, mut reached_end) = (0, 0);
        for i in rets() {
            for k in i.saturating_sub(MAX_GADGET_BYTES).max(reached_end)..=i {
                self.slot(k);
                reached += 1;
            }
            reached_end = i + 1;
        }
        let at = |pos| self.slot(pos);
        let mut out = Vec::new();
        for i in rets() {
            stats.rets += 1;
            // Candidate starts: walk back, resolving each step from the
            // table instead of re-decoding.
            for back in 1..=MAX_GADGET_BYTES.min(i) {
                if let Some(c) = Self::walk(base, i - back, i, at, &mut stats.memo_hits) {
                    out.push(c);
                }
            }
            // The bare return itself is also a (trivial) candidate, useful
            // as a chain NOP.
            if let Some(c) = Self::walk(base, i, i, at, &mut stats.memo_hits) {
                out.push(c);
            }
        }
        stats.decoded = self.decodes.get() - before;
        stats.reused = reached - stats.decoded;
        stats.skipped = stats.offsets - reached;
        stats.candidates = out.len() as u64;
        (out, stats)
    }

    /// The candidate a walk from `start` (mapped at `base + start`)
    /// would form if a bare near `ret` were planted at `ret_at`, or
    /// `None` when the walk does not land on it. Only the planted byte
    /// differs from the table's text: a step that ends at or before it
    /// read none of it, and a step that would read it fails the walk
    /// with or without the plant (DESIGN.md §20).
    pub fn planted_candidate(
        &self,
        base: u32,
        start: usize,
        ret_at: usize,
    ) -> Option<CandidateRef<'_>> {
        let at = |pos| {
            if pos == ret_at {
                &*BARE_RET
            } else {
                self.slot(pos)
            }
        };
        Self::walk(base, start, ret_at, at, &mut 0)
    }

    /// One candidate walk from `start` to the return at `ret_at`, with
    /// the reference scanner's rejection rules and candidate shape,
    /// reading each step's slot from `at`. The candidate borrows its
    /// instructions from the slots the walk read.
    fn walk<'s>(
        base: u32,
        start: usize,
        ret_at: usize,
        at: impl Fn(usize) -> &'s Slot,
        steps: &mut u64,
    ) -> Option<CandidateRef<'s>> {
        let mut path: [Option<&'s Insn>; MAX_GADGET_INSNS] = [None; MAX_GADGET_INSNS];
        let mut n = 0;
        let mut pos = start;
        while pos <= ret_at {
            *steps += 1;
            let slot = at(pos);
            let insn = slot.insn.as_ref()?;
            if n == MAX_GADGET_INSNS {
                return None;
            }
            path[n] = Some(insn);
            n += 1;
            if pos == ret_at {
                let far = slot.ret?;
                return Some(CandidateRef {
                    vaddr: base + start as u32,
                    len: (ret_at + 1 - start) as u32,
                    far,
                    insns: path.map(|i| i.unwrap_or(insn)),
                    n: n as u8,
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
    DecodeTable::new(text).scan(base)
}

/// The original decode-per-walk-step scanner, kept as the differential
/// oracle for [`scan_with_stats`]. Test and bench builds only.
#[cfg(feature = "oracle")]
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
#[cfg(feature = "oracle")]
fn try_sequence(text: &[u8], base: u32, start: usize, ret_at: usize) -> Option<Candidate> {
    let mut insns = Vec::new();
    let mut pos = start;
    while pos <= ret_at {
        let insn = parallax_x86::decode(&text[pos..]).ok()?;
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

    /// [`scan_with_stats`] over a table that reuses `prev`, also
    /// returning the table's slots.
    fn scan_reusing(
        text: &[u8],
        base: u32,
        prev: Option<(&[u8], Slots)>,
    ) -> (Vec<Candidate>, ScanStats, Slots) {
        let table = DecodeTable::reusing(text, prev);
        let (cands, stats) = table.scan(base);
        (cands, stats, table.into_slots())
    }

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
    fn assert_equivalent(text: &[u8], base: u32, decoded: u64) {
        let (memo, stats) = scan_with_stats(text, base);
        let naive = scan_reference(text, base);
        assert_eq!(memo.len(), naive.len());
        for (m, n) in memo.iter().zip(&naive) {
            assert_eq!(m.vaddr, n.vaddr);
            assert_eq!(m.len, n.len);
            assert_eq!(m.far, n.far);
            assert_eq!(m.insns, n.insns);
        }
        assert_eq!(
            stats.decoded, decoded,
            "one decode per offset a walk reaches"
        );
        assert_eq!(decoded, reached(text));
        assert_eq!(
            (stats.reused, stats.skipped),
            (0, text.len() as u64 - decoded)
        );
        assert_eq!(stats.candidates, memo.len() as u64);
    }

    /// Offsets at most [`MAX_GADGET_BYTES`] before a return byte — the
    /// ones a walk reads — counted without a table.
    fn reached(text: &[u8]) -> u64 {
        (0..text.len())
            .filter(|&i| {
                text[i..]
                    .iter()
                    .take(MAX_GADGET_BYTES + 1)
                    .any(|&b| b == 0xc3 || b == 0xcb)
            })
            .count() as u64
    }

    #[test]
    fn memoized_scan_matches_reference_on_synthetic_buffers() {
        // Every offset of a short buffer ending in a return is reached.
        assert_equivalent(&[0xb8, 0x01, 0x00, 0x00, 0x00, 0xc3], 0x1000, 6);
        assert_equivalent(&[0x58, 0xc2, 0x08, 0x00, 0x58, 0xcb], 0, 6);
        let mut pops = vec![0x58u8; 9];
        pops.push(0xc3);
        assert_equivalent(&pops, 0x8048000, 10);
        // Deterministic pseudo-random byte soup: dense unaligned rets.
        let mut x = 0x1234_5678u32;
        let soup: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        // Its 20 returns lie more than 24 bytes apart: 20 * 25 offsets.
        assert_equivalent(&soup, 0x1000, 500);
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
        // Both passes reach the same 500 offsets: no change makes or
        // removes a return. 18 of them lie within 14 bytes before a
        // change (14..=17 and 1988..=2001), and 3 of those decodes read
        // a changed byte:
        // - 17 failed on its own opcode byte (`e2`), which changed;
        // - 2000 is the 5-byte `mov [0x22b40baf], eax`, which reads 2001;
        // - 2001 failed on its own opcode byte (`af`), which changed.
        // The decodes at 15, 1991, 1995, 1996 and 1998 failed too, but
        // each read only its own opcode byte, which did not change; the
        // 1-byte decode at 16 ends before byte 17, and the longest other
        // decode, 1992's 5-byte `call`, ends at 1996.
        assert_eq!((stats.decoded, stats.reused, stats.skipped), (3, 497, 3596));
        assert_eq!(stats.decoded + stats.reused + stats.skipped, stats.offsets);
        // A table for another length is ignored: every reached offset
        // of the shorter text is decoded afresh.
        let (_, _, table) = scan_reusing(&old, 0x1000, None);
        let (_, stats, _) = scan_reusing(&new[1..], 0x1000, Some((&old, table)));
        assert_eq!((stats.decoded, stats.reused, stats.skipped), (500, 0, 3595));
    }

    /// A slot is stale exactly when a changed byte lies inside the
    /// bytes its decode read, its last byte included.
    #[test]
    fn rescan_redecodes_slots_that_read_a_changed_byte() {
        // mov eax,1; ret — then the immediate's last byte changes.
        let old = [0xb8, 0x01, 0x00, 0x00, 0x00, 0xc3];
        let (_, _, table) = scan_reusing(&old, 0x1000, None);
        let mut new = old;
        new[4] = 0x01;
        let (cands, stats, _) = scan_reusing(&new, 0x1000, Some((&old, table)));
        assert_eq!(
            format!("{cands:?}"),
            format!("{:?}", scan_reference(&new, 0x1000))
        );
        // Stale: the 5-byte mov at 0 and the 2-byte adds at 3 and 4,
        // which read byte 4. The adds at 1 and 2 end before it.
        assert_eq!((stats.decoded, stats.reused, stats.skipped), (3, 3, 0));
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
