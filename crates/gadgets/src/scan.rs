//! The gadget scanner.
//!
//! Scans text-section bytes for return-terminated instruction
//! sequences, aligned or not: for every `ret`/`retf` opcode byte, every
//! decode that starts up to [`MAX_GADGET_BYTES`] earlier and lands
//! exactly on the return is a candidate. Following the paper (§VII-A),
//! candidates longer than six instructions are discarded, as are
//! sequences containing control flow before the final return.
//!
//! The scan reads a [`DecodeTable`]. Each text offset at most
//! [`MAX_GADGET_BYTES`] before a return gets one cheap shape decode
//! (the bytes it reads, whether it decodes, whether it may sit inside a
//! gadget, whether it is a plain return), and one right-to-left pass
//! links each of those offsets to the return its instruction chain
//! lands on. That yields every candidate as a [`Span`], grouped by
//! content (text bytes and return kind) in scan order, with nothing
//! decoded in full. [`DecodeTable::assemble`] materialises a span,
//! decoding in full each offset on its path the table does not hold
//! yet; a gadget pass assembles one representative per content, so a
//! full decode is paid once per content, not once per candidate.
//! Offsets farther from every return are never decoded. A rescan of a
//! text that differs in a few bytes takes the previous table and
//! decodes again only the slots whose own bytes changed (DESIGN.md §17,
//! §20). The naive decode-per-walk-step scanner is kept, behind the
//! `oracle` feature, as `scan_reference`: a differential oracle proving
//! the table-driven scanner emits an identical candidate stream.

use std::cell::{Cell, OnceCell};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::LazyLock;

use parallax_x86::insn::{Insn, Mnemonic};
use parallax_x86::{decode, decode_read, decode_shape, Operand};

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
/// [`DecodeTable`] its path runs through, or from an owned
/// [`Candidate`]. A gadget pass classifies and probes these, so no
/// candidate copies its instructions.
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

    /// The copy of this candidate's content that starts at `vaddr`. A
    /// decode reads only the bytes it decodes, so every copy of a
    /// content holds the same instructions.
    pub fn at(self, vaddr: u32) -> CandidateRef<'a> {
        CandidateRef { vaddr, ..self }
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

/// A candidate the scan found, none of its instructions decoded in full
/// yet: [`DecodeTable::assemble`] materialises it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Text offset of the first instruction. No two candidates of one
    /// text start at the same offset.
    pub start: u32,
    /// Total byte length, the return included.
    pub len: u8,
    /// Instructions, the return included.
    pub insns: u8,
    /// Terminates in `retf`.
    pub far: bool,
    /// Its content's index in [`Spans::reps`].
    pub content: u32,
}

/// A scan's candidates grouped by content: text bytes and return kind.
#[derive(Debug, Default)]
pub struct Spans {
    /// Every candidate, in the order [`scan`] emits them.
    pub all: Vec<Span>,
    /// Each content's first span in `all`, its representative, in the
    /// order they appear there.
    pub reps: Vec<Span>,
}

/// A candidate's content: its text bytes and return kind. Every copy of
/// a content decodes to the same instructions, so it classifies alike;
/// within one pass, a probe that stays inside the candidate's bytes
/// depends on nothing else, so every copy shares one verdict and one
/// record (DESIGN.md §18).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Content {
    /// The return kind (1 for `retf`), the length, then the bytes.
    key: [u8; MAX_GADGET_BYTES + 3],
}

impl Content {
    /// The content of `span`, a candidate of `text`.
    pub(crate) fn of(text: &[u8], span: Span) -> Content {
        let start = span.start as usize;
        let src = &text[start..start + usize::from(span.len)];
        let mut key = [0; MAX_GADGET_BYTES + 3];
        key[0] = u8::from(span.far);
        key[1] = span.len;
        key[2..2 + src.len()].copy_from_slice(src);
        Content { key }
    }
}

impl Hash for Content {
    /// One write of the whole key: the scan hashes a content per
    /// candidate, and a write per field made that several times as
    /// costly.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(&self.key);
    }
}

/// True if an instruction of mnemonic `mn` may appear *before* the
/// final return of a gadget.
fn allowed_interior(mn: Mnemonic) -> bool {
    !matches!(
        mn,
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

#[cfg(feature = "oracle")]
fn is_plain_ret(insn: &Insn) -> Option<bool> {
    match insn.mnemonic {
        // `ret imm16` releases caller stack; unusable for chains.
        Mnemonic::Ret if insn.ops.is_empty() => Some(false),
        Mnemonic::Retf if insn.ops.is_empty() => Some(true),
        _ => None,
    }
}

/// Statistics from one scan pass, exported as `scan.decode.*` trace
/// counters ([`DecodeTable::stats`]). `shapes + reused + skipped ==
/// offsets`: the scan reads the shape of every offset up to
/// [`MAX_GADGET_BYTES`] before a return, fills each shape slot at most
/// once, and reads no other offset. Full decodes are made only on the
/// paths of the candidates assembled, at most once per offset and
/// table, so `decoded <= shapes + reused`; a gadget pass assembles one
/// candidate per content, so it pays a full decode once per content,
/// not once per candidate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Text offsets considered (one potential decode start per byte).
    pub offsets: u64,
    /// Full decodes ([`decode_read`]) the table performed: one per
    /// offset on an assembled candidate's path whose instruction the
    /// table did not hold yet.
    pub decoded: u64,
    /// Shape decodes ([`decode_shape`]) performed: one per offset the
    /// scan reached whose shape slot was still empty.
    pub shapes: u64,
    /// Offsets the scan reached whose shape was already in the table:
    /// carried over from the previous pass, or filled by an earlier
    /// read of the same table.
    pub reused: u64,
    /// Offsets the scan did not reach: more than [`MAX_GADGET_BYTES`]
    /// before every return. They are never decoded.
    pub skipped: u64,
    /// Link and assembly steps served from the table: one per reached
    /// offset whose link is read off its successor's, and one per
    /// instruction of each candidate assembled.
    pub memo_hits: u64,
    /// `ret`/`retf` opcode bytes anchoring candidates.
    pub rets: u64,
    /// Candidates emitted.
    pub candidates: u64,
}

/// The most bytes a decode may read: x86 caps an instruction at 15
/// bytes, so a change at byte `c` can only alter a decode at offsets
/// `c - 14 ..= c`.
const DECODE_WINDOW: usize = 15;

/// The shape of the decode at one text offset, in one byte: the bytes
/// it read ([`decode_shape`]) in the low nibble, 0 while the slot is
/// empty, and above them whether it decodes, whether it may sit inside
/// a gadget, and whether it is a plain `ret` or `retf`. The decode
/// depends on the bytes it read and no others.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Shape(u8);

impl Shape {
    const EMPTY: Shape = Shape(0);
    const DECODES: u8 = 0x10;
    const INTERIOR: u8 = 0x20;
    const RET: u8 = 0x40;
    const FAR: u8 = 0x80;

    /// The shape of the decode of `bytes`, which are not empty.
    fn of(bytes: &[u8]) -> Shape {
        let (mnemonic, read) = decode_shape(bytes);
        debug_assert!((1..=DECODE_WINDOW).contains(&read));
        let mut bits = read as u8;
        if let Ok(mn) = mnemonic {
            bits |= Shape::DECODES;
            if allowed_interior(mn) {
                bits |= Shape::INTERIOR;
            }
        }
        // A plain return is its opcode byte alone: `c3` and `cb` always
        // decode, to a `ret` or `retf` without an immediate.
        match bytes[0] {
            0xc3 => bits |= Shape::RET,
            0xcb => bits |= Shape::RET | Shape::FAR,
            _ => {}
        }
        Shape(bits)
    }

    fn is_filled(self) -> bool {
        self != Shape::EMPTY
    }

    /// The bytes the decode read: the instruction's length, or for a
    /// failed decode the bytes read before the error.
    fn len(self) -> usize {
        usize::from(self.0 & 0xf)
    }

    fn decodes(self) -> bool {
        self.0 & Shape::DECODES != 0
    }

    /// Decodes to an instruction that may sit before a gadget's return.
    fn interior(self) -> bool {
        self.0 & Shape::INTERIOR != 0
    }

    /// `Some(far)` when this decode is a bare `ret`/`retf`.
    fn ret(self) -> Option<bool> {
        (self.0 & Shape::RET != 0).then_some(self.0 & Shape::FAR != 0)
    }
}

/// Where an offset's instruction chain lands, in one byte: the distance
/// to the plain return it reaches and the instructions on the way, the
/// return included, or none when the chain fails, meets another control
/// transfer first, or lands too far away to form a candidate.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Link(u8);

impl Link {
    const NONE: Link = Link(0);
    /// A plain return lands on itself in one instruction.
    const RET: Link = Link(1 << 5);

    /// The link of an interior instruction `len` bytes long whose
    /// successor has this link.
    fn behind(self, len: usize) -> Link {
        let (dist, count) = (self.dist() + len, self.count() + 1);
        if self == Link::NONE || dist > MAX_GADGET_BYTES || count > MAX_GADGET_INSNS {
            return Link::NONE;
        }
        Link(dist as u8 | (count as u8) << 5)
    }

    /// Bytes from the offset to its landing return.
    fn dist(self) -> usize {
        usize::from(self.0 & 0x1f)
    }

    /// Instructions from the offset to its landing return, inclusive.
    fn count(self) -> usize {
        usize::from(self.0 >> 5)
    }
}

/// Instructions per block of the [`Slots`] arena.
const BLOCK: usize = 256;

/// The slots of a [`DecodeTable`], kept between passes: a shape per
/// text offset, and beside it the full instructions materialised so
/// far. Those live in an append-only arena of fixed-size blocks, so an
/// instruction never moves while the table is borrowed, and an offset
/// without one costs its 4-byte index.
pub(crate) struct Slots {
    shapes: Vec<Cell<Shape>>,
    /// Per offset, 1 + the arena index of its instruction, or 0.
    index: Vec<Cell<u32>>,
    blocks: Vec<OnceCell<Box<[OnceCell<Insn>]>>>,
    /// Arena entries handed out so far.
    used: Cell<usize>,
}

impl Slots {
    fn new(len: usize) -> Slots {
        let mut slots = Slots {
            shapes: vec![Cell::new(Shape::EMPTY); len],
            index: vec![Cell::new(0); len],
            blocks: Vec::new(),
            used: Cell::new(0),
        };
        slots.reserve();
        slots
    }

    /// Makes room for one more instruction per text offset: a table
    /// materialises each offset's at most once.
    fn reserve(&mut self) {
        let entries = self.used.get() + self.shapes.len();
        self.blocks
            .resize_with(entries.div_ceil(BLOCK), OnceCell::new);
    }

    /// The instruction materialised for text offset `i`, if any.
    fn get(&self, i: usize) -> Option<&Insn> {
        let k = self.index[i].get().checked_sub(1)? as usize;
        self.blocks[k / BLOCK].get()?[k % BLOCK].get()
    }

    /// Stores `insn` as the instruction of text offset `i`, which has
    /// none.
    fn put(&self, i: usize, insn: Insn) -> &Insn {
        let k = self.used.get();
        self.used.set(k + 1);
        self.index[i].set(k as u32 + 1);
        let block =
            self.blocks[k / BLOCK].get_or_init(|| (0..BLOCK).map(|_| OnceCell::new()).collect());
        block[k % BLOCK].get_or_init(|| insn)
    }

    /// Empties the slot of text offset `i`: its shape, and its
    /// instruction if it has one.
    fn clear(&mut self, i: usize) {
        self.shapes[i].set(Shape::EMPTY);
        let Some(k) = self.index[i].replace(0).checked_sub(1) else {
            return;
        };
        let k = k as usize;
        if let Some(block) = self.blocks[k / BLOCK].get_mut() {
            block[k % BLOCK].take();
        }
    }
}

/// The instruction a planted bare near `ret` decodes to.
static BARE_RET: LazyLock<Insn> = LazyLock::new(|| decode(&[0xc3]).expect("`c3` decodes to `ret`"));

/// The decodes of one text, filled lazily at two levels: an offset's
/// shape the first time something reads it, and its full instruction
/// the first time an assembled candidate's path or
/// [`DecodeTable::insn`] needs it. Both are read from the table ever
/// after.
///
/// The x86 decoder reads an instruction's bytes in order and no
/// further, so a decode that succeeds at `i` depends only on the `len`
/// bytes `text[i..i + len]`, and one that fails only on the bytes it
/// read before the error, which its shape records. That read extent is
/// what lets a rescan keep every slot whose own bytes did not change,
/// and a planted-return walk use the decodes of the unmodified text
/// (DESIGN.md §20).
pub struct DecodeTable<'t> {
    text: &'t [u8],
    slots: Slots,
    shapes: Cell<u64>,
    decodes: Cell<u64>,
    /// Assembly steps: one per instruction of each candidate assembled.
    steps: Cell<u64>,
    /// The counters of the last [`DecodeTable::spans`].
    scanned: Cell<ScanStats>,
}

impl<'t> DecodeTable<'t> {
    /// An empty table over `text`: nothing is decoded yet.
    pub fn new(text: &'t [u8]) -> DecodeTable<'t> {
        DecodeTable::with_slots(text, Slots::new(text.len()))
    }

    fn with_slots(text: &'t [u8], slots: Slots) -> DecodeTable<'t> {
        DecodeTable {
            text,
            slots,
            shapes: Cell::new(0),
            decodes: Cell::new(0),
            steps: Cell::new(0),
            scanned: Cell::new(ScanStats::default()),
        }
    }

    /// A table over `text` that starts with the slots of `prev` — the
    /// previous pass's text, of the same length, and its table's slots
    /// — minus each slot whose decode read a changed byte. A `prev` of
    /// another length is ignored.
    pub(crate) fn reusing(text: &'t [u8], prev: Option<(&[u8], Slots)>) -> DecodeTable<'t> {
        let Some((old, mut slots)) =
            prev.filter(|(old, slots)| old.len() == text.len() && slots.shapes.len() == text.len())
        else {
            return DecodeTable::new(text);
        };
        for c in (0..text.len()).filter(|&c| old[c] != text[c]) {
            let lo = c.saturating_sub(DECODE_WINDOW - 1);
            for i in lo..=c {
                let shape = slots.shapes[i].get();
                if shape.is_filled() && i + shape.len() > c {
                    slots.clear(i);
                }
            }
        }
        slots.reserve();
        DecodeTable::with_slots(text, slots)
    }

    /// The table's slots, for a later [`DecodeTable::reusing`].
    pub(crate) fn into_slots(self) -> Slots {
        self.slots
    }

    /// The shape at text offset `i`, decoded on first read.
    fn shape(&self, i: usize) -> Shape {
        let cell = &self.slots.shapes[i];
        if !cell.get().is_filled() {
            self.shapes.set(self.shapes.get() + 1);
            cell.set(Shape::of(&self.text[i..]));
        }
        cell.get()
    }

    /// The full instruction at text offset `i`, whose shape decodes,
    /// decoded on first need.
    fn full(&self, i: usize) -> &Insn {
        if let Some(insn) = self.slots.get(i) {
            return insn;
        }
        self.decodes.set(self.decodes.get() + 1);
        let (insn, read) = decode_read(&self.text[i..]);
        debug_assert_eq!(read, self.shape(i).len());
        let insn = insn.expect("an offset whose shape decodes decodes");
        self.slots.put(i, insn)
    }

    /// The instruction at text offset `i`, decoded on first read;
    /// `None` when the bytes there do not decode.
    pub fn insn(&self, i: usize) -> Option<&Insn> {
        self.shape(i).decodes().then(|| self.full(i))
    }

    /// The table's counters: those of its last [`DecodeTable::spans`],
    /// with every full decode and assembly step it has made.
    pub fn stats(&self) -> ScanStats {
        let mut stats = self.scanned.get();
        stats.decoded = self.decodes.get();
        stats.memo_hits += self.steps.get();
        stats
    }

    /// Scans the table's text, mapped at `base`, for gadget candidates:
    /// the stream [`scan`] returns, every candidate assembled, with the
    /// table's [`ScanStats`]. Slots filled before the call count as
    /// reused.
    pub fn scan(&self, base: u32) -> (Vec<Candidate>, ScanStats) {
        let spans = self.spans();
        let cands = spans
            .all
            .iter()
            .map(|&span| self.assemble(base, span).to_owned())
            .collect();
        (cands, self.stats())
    }

    /// Finds every candidate of the table's text from the shapes and
    /// landing links alone, and groups them by content in scan order.
    /// Nothing is decoded in full.
    pub fn spans(&self) -> Spans {
        let shapes = self.shapes.get();
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
        // A candidate starts at most MAX_GADGET_BYTES before its return,
        // and every instruction on its path starts between the two, so
        // the scan reads the offsets `i - MAX_GADGET_BYTES ..= i` of each
        // return `i`: a few disjoint ranges, their shapes filled in one
        // forward sweep.
        let mut reached: Vec<Range<usize>> = Vec::new();
        for i in rets() {
            let lo = i.saturating_sub(MAX_GADGET_BYTES);
            match reached.last_mut() {
                Some(last) if last.end >= lo => last.end = i + 1,
                _ => reached.push(lo..i + 1),
            }
        }
        for i in reached.iter().cloned().flatten() {
            self.shape(i);
        }
        // Landing links, right to left: an offset lands where its
        // successor lands, one instruction and `len` bytes further back.
        // A walk from `start` to a return `i` succeeds exactly when
        // `start`'s chain lands on `i`: it fails at the first offset
        // that does not decode or is a control transfer, plain returns
        // included, and at one that would step over `i`.
        let mut links = vec![Link::NONE; self.text.len()];
        for i in reached.iter().rev().flat_map(|r| r.clone().rev()) {
            let shape = self.shape(i);
            links[i] = if shape.ret().is_some() {
                Link::RET
            } else if shape.interior() {
                stats.memo_hits += 1;
                links
                    .get(i + shape.len())
                    .map_or(Link::NONE, |next| next.behind(shape.len()))
            } else {
                Link::NONE
            };
        }
        let mut out = Spans::default();
        let mut contents: HashMap<Content, u32> = HashMap::new();
        for i in rets() {
            stats.rets += 1;
            let far = self.shape(i).ret() == Some(true);
            // Candidate starts in the walk order: 1 to MAX_GADGET_BYTES
            // bytes back, then the bare return itself (a trivial
            // candidate, useful as a chain NOP).
            let starts = (1..=MAX_GADGET_BYTES.min(i))
                .map(|back| (i - back, links[i - back]))
                .filter(|&(start, link)| link != Link::NONE && start + link.dist() == i)
                .chain([(i, Link::RET)]);
            for (start, link) in starts {
                let next = out.reps.len() as u32;
                let mut span = Span {
                    start: start as u32,
                    len: (i + 1 - start) as u8,
                    insns: link.count() as u8,
                    far,
                    content: next,
                };
                span.content = *contents.entry(Content::of(self.text, span)).or_insert(next);
                if span.content == next {
                    out.reps.push(span);
                }
                out.all.push(span);
            }
        }
        stats.shapes = self.shapes.get() - shapes;
        let reached: usize = reached.iter().map(ExactSizeIterator::len).sum();
        stats.reused = reached as u64 - stats.shapes;
        stats.skipped = stats.offsets - reached as u64;
        stats.candidates = out.all.len() as u64;
        self.scanned.set(stats);
        out
    }

    /// The candidate `span` of the table's text, mapped at `base`: its
    /// instructions are materialised from the table, decoded in full
    /// where the table does not hold them yet, and borrowed.
    pub fn assemble(&self, base: u32, span: Span) -> CandidateRef<'_> {
        let start = span.start as usize;
        let ret = self.full(start + usize::from(span.len) - 1);
        self.walk(base, start, usize::from(span.insns), ret, span.far)
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
        let (mut pos, mut n) = (start, 1);
        while pos < ret_at {
            let shape = self.shape(pos);
            if !shape.interior() || n == MAX_GADGET_INSNS {
                return None;
            }
            pos += shape.len();
            n += 1;
        }
        (pos == ret_at).then(|| self.walk(base, start, n, &BARE_RET, false))
    }

    /// The candidate of the `n` instructions from `start` whose last is
    /// `ret`, the return its chain lands on: the first `n - 1` are
    /// materialised from the table, and the candidate borrows them.
    fn walk<'a>(
        &'a self,
        base: u32,
        start: usize,
        n: usize,
        ret: &'a Insn,
        far: bool,
    ) -> CandidateRef<'a> {
        self.steps.set(self.steps.get() + n as u64);
        let mut insns = [ret; MAX_GADGET_INSNS];
        let mut pos = start;
        for insn in &mut insns[..n - 1] {
            *insn = self.full(pos);
            pos += self.shape(pos).len();
        }
        CandidateRef {
            vaddr: base + start as u32,
            len: (pos + 1 - start) as u32,
            far,
            insns,
            n: n as u8,
        }
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
        if !allowed_interior(insn.mnemonic) || insns.len() + 1 > MAX_GADGET_INSNS {
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
    use std::collections::BTreeSet;

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

    /// The distinct text offsets on the candidates' paths: each
    /// candidate's start and the start of every later instruction.
    fn path_offsets(cands: &[Candidate], base: u32) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for c in cands {
            let mut pos = (c.vaddr - base) as usize;
            for insn in &c.insns {
                out.insert(pos);
                pos += usize::from(insn.len);
            }
        }
        out
    }

    /// The full decodes a rescan of `new` over the table of a scan of
    /// `old` must make: the offsets on `new`'s candidate paths that were
    /// not on `old`'s, or whose decode read a byte that changed.
    fn stale_path_offsets(old: &[u8], new: &[u8], base: u32) -> u64 {
        let held = path_offsets(&scan_reference(old, base), base);
        let stale = |i: usize| {
            let read = decode_read(&old[i..]).1;
            old[i..i + read] != new[i..i + read]
        };
        path_offsets(&scan_reference(new, base), base)
            .into_iter()
            .filter(|&i| !held.contains(&i) || stale(i))
            .count() as u64
    }

    /// The memoized scanner must emit the reference scanner's stream
    /// exactly — same candidates, same order — with one shape decode per
    /// offset it reaches and one full decode per candidate-path offset.
    fn assert_equivalent(text: &[u8], base: u32, reached_offsets: u64) {
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
            stats.shapes, reached_offsets,
            "one shape decode per offset the scan reaches"
        );
        assert_eq!(reached_offsets, reached(text));
        assert_eq!(
            (stats.reused, stats.skipped),
            (0, text.len() as u64 - reached_offsets)
        );
        assert_eq!(
            stats.decoded,
            path_offsets(&memo, base).len() as u64,
            "one full decode per candidate-path offset"
        );
        assert_eq!(stats.candidates, memo.len() as u64);
    }

    /// Offsets at most [`MAX_GADGET_BYTES`] before a return byte — the
    /// ones the scan reads — counted without a table.
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
        assert_eq!(stats.decoded, stale_path_offsets(&old, &new, 0x1000));
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
        assert_eq!((stats.shapes, stats.reused, stats.skipped), (3, 497, 3596));
        assert_eq!(stats.shapes + stats.reused + stats.skipped, stats.offsets);
        // A table for another length is ignored: every reached offset
        // of the shorter text is decoded afresh.
        let (_, _, table) = scan_reusing(&old, 0x1000, None);
        let (cands, stats, _) = scan_reusing(&new[1..], 0x1000, Some((&old, table)));
        assert_eq!((stats.shapes, stats.reused, stats.skipped), (500, 0, 3595));
        assert_eq!(stats.decoded, path_offsets(&cands, 0x1000).len() as u64);
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
        assert_eq!((stats.shapes, stats.reused, stats.skipped), (3, 3, 0));
        // Both passes' candidate paths start at 0, 1, 3 and 5: only the
        // stale 0 and 3 are decoded in full again.
        assert_eq!(stats.decoded, 2);
        assert_eq!(stats.decoded, stale_path_offsets(&old, &new, 0x1000));
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
