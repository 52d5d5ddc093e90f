//! Flat binary serialization of gadget-scan results.
//!
//! The batch-protection engine caches gadget scans content-addressed by
//! the scanned image's bytes, with an optional on-disk layer. This
//! module round-trips a `Vec<Gadget>` through a minimal little-endian
//! container (same hand-rolled style as `parallax-image`'s `PLX`
//! format — no serde) that pays per content, not per copy, as a scan
//! does (DESIGN.md §18):
//!
//! * the magic `PGS\x02`;
//! * the distinct records, each once, in order of first appearance: a
//!   varint count, then per record its `len`, return kind, `slots`,
//!   `insn_count`, `disasm`, effects, clobbers and memory
//!   preconditions;
//! * the gadgets, in list order: a varint count, then per gadget its
//!   `u32` vaddr and the varint index of its record.
//!
//! Varints are unsigned LEB128 in at most five bytes, minimally
//! encoded. Reading builds one `Arc<GadgetRecord>` per record, so every
//! copy of a content a cache hit serves shares its record exactly as
//! the copies of a fresh scan do. Deserialization is total: any
//! malformed input — the `PGS\x01` per-gadget container of older
//! builds included — yields `None`, never a panic, so a corrupted or
//! outdated cache file degrades to a cache miss.

use std::collections::HashMap;
use std::sync::Arc;

use parallax_x86::{Reg32, Reg8, ShiftOp};

use crate::types::{Effect, GBinOp, Gadget, GadgetRecord};

const MAGIC: &[u8; 4] = b"PGS\x02";

/// The fewest bytes a record takes: five one-byte scalars (`len`,
/// return kind, `slots`, `insn_count`, the `disasm` length) and three
/// list counts.
const MIN_RECORD_BYTES: usize = 8;
/// The fewest bytes a gadget takes: its vaddr and a one-byte index.
const MIN_GADGET_BYTES: usize = 5;

/// Canonical order for [`GBinOp`] tags.
const BINOPS: [GBinOp; 6] = [
    GBinOp::Add,
    GBinOp::Sub,
    GBinOp::And,
    GBinOp::Or,
    GBinOp::Xor,
    GBinOp::Imul,
];

/// Canonical order for [`ShiftOp`] tags (serialization order, not the
/// hardware `/r` encoding).
const SHIFTS: [ShiftOp; 5] = [
    ShiftOp::Rol,
    ShiftOp::Ror,
    ShiftOp::Shl,
    ShiftOp::Shr,
    ShiftOp::Sar,
];

fn binop_tag(op: GBinOp) -> u8 {
    BINOPS.iter().position(|&o| o == op).unwrap_or(0) as u8
}

fn shift_tag(op: ShiftOp) -> u8 {
    SHIFTS.iter().position(|&o| o == op).unwrap_or(0) as u8
}

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn varint(&mut self, mut v: u32) {
        while v >= 0x80 {
            self.u8(v as u8 | 0x80);
            v >>= 7;
        }
        self.u8(v as u8);
    }
    fn str(&mut self, v: &str) {
        self.varint(v.len() as u32);
        self.out.extend_from_slice(v.as_bytes());
    }
    fn list<T>(&mut self, items: &[T], item: impl Fn(&mut Self, &T)) {
        self.u8(items.len() as u8);
        for t in items {
            item(self, t);
        }
    }
    fn record(&mut self, r: &GadgetRecord) {
        self.varint(r.len);
        self.u8(r.far as u8);
        self.varint(r.slots);
        self.varint(r.insn_count);
        self.str(&r.disasm);
        self.list(&r.effects, Self::effect);
        self.list(&r.clobbers, |w, r| w.u8(r.encoding()));
        self.list(&r.mem_preconditions, |w, r| w.u8(r.encoding()));
    }
    fn effect(&mut self, e: &Effect) {
        match *e {
            Effect::LoadConst { dst, slot } => {
                self.u8(0);
                self.u8(dst.encoding());
                self.u32(slot);
            }
            Effect::MovReg { dst, src } => {
                self.u8(1);
                self.u8(dst.encoding());
                self.u8(src.encoding());
            }
            Effect::Binary { op, dst, src } => {
                self.u8(2);
                self.u8(binop_tag(op));
                self.u8(dst.encoding());
                self.u8(src.encoding());
            }
            Effect::Neg { dst } => {
                self.u8(3);
                self.u8(dst.encoding());
            }
            Effect::Not { dst } => {
                self.u8(4);
                self.u8(dst.encoding());
            }
            Effect::LoadMem { dst, addr, off } => {
                self.u8(5);
                self.u8(dst.encoding());
                self.u8(addr.encoding());
                self.i32(off);
            }
            Effect::StoreMem { addr, off, src } => {
                self.u8(6);
                self.u8(addr.encoding());
                self.i32(off);
                self.u8(src.encoding());
            }
            Effect::AddMem { addr, off, src } => {
                self.u8(7);
                self.u8(addr.encoding());
                self.i32(off);
                self.u8(src.encoding());
            }
            Effect::PopEsp => self.u8(8),
            Effect::AddEsp { src } => {
                self.u8(9);
                self.u8(src.encoding());
            }
            Effect::Syscall => self.u8(10),
            Effect::ShiftCl { op, dst } => {
                self.u8(11);
                self.u8(shift_tag(op));
                self.u8(dst.encoding());
            }
            Effect::MovLow8 { dst, src } => {
                self.u8(12);
                self.u8(dst.encoding());
                self.u8(src.encoding());
            }
            Effect::Nop => self.u8(13),
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }
    fn u32(&mut self) -> Option<u32> {
        let mut v = 0u32;
        for i in 0..4 {
            v |= (self.u8()? as u32) << (8 * i);
        }
        Some(v)
    }
    fn i32(&mut self) -> Option<i32> {
        Some(self.u32()? as i32)
    }
    /// A minimally encoded varint of at most five bytes.
    fn varint(&mut self) -> Option<u32> {
        let mut v = 0u32;
        for i in 0..5 {
            let b = self.u8()?;
            // The fifth byte holds bits 28..32 only, and no more follow.
            if i == 4 && b > 0x0f {
                return None;
            }
            v |= u32::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                // A zero last byte after the first is a padded encoding.
                return (i == 0 || b != 0).then_some(v);
            }
        }
        None
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn str(&mut self) -> Option<String> {
        let len = self.varint()? as usize;
        let raw = self.buf.get(self.pos..self.pos.checked_add(len)?)?;
        let s = std::str::from_utf8(raw).ok()?;
        self.pos += len;
        Some(s.to_owned())
    }
    fn list<T>(&mut self, item: impl Fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.u8()?;
        (0..n).map(|_| item(self)).collect()
    }
    fn record(&mut self) -> Option<GadgetRecord> {
        Some(GadgetRecord {
            len: self.varint()?,
            far: match self.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            },
            slots: self.varint()?,
            insn_count: self.varint()?,
            disasm: self.str()?,
            effects: self.list(Self::effect)?,
            clobbers: self.list(Self::reg32)?,
            mem_preconditions: self.list(Self::reg32)?,
        })
    }
    fn reg32(&mut self) -> Option<Reg32> {
        let enc = self.u8()?;
        (enc < 8).then(|| Reg32::from_encoding(enc))
    }
    fn reg8(&mut self) -> Option<Reg8> {
        let enc = self.u8()?;
        (enc < 8).then(|| Reg8::from_encoding(enc))
    }
    fn effect(&mut self) -> Option<Effect> {
        Some(match self.u8()? {
            0 => Effect::LoadConst {
                dst: self.reg32()?,
                slot: self.u32()?,
            },
            1 => Effect::MovReg {
                dst: self.reg32()?,
                src: self.reg32()?,
            },
            2 => Effect::Binary {
                op: *BINOPS.get(self.u8()? as usize)?,
                dst: self.reg32()?,
                src: self.reg32()?,
            },
            3 => Effect::Neg { dst: self.reg32()? },
            4 => Effect::Not { dst: self.reg32()? },
            5 => Effect::LoadMem {
                dst: self.reg32()?,
                addr: self.reg32()?,
                off: self.i32()?,
            },
            6 => Effect::StoreMem {
                addr: self.reg32()?,
                off: self.i32()?,
                src: self.reg32()?,
            },
            7 => Effect::AddMem {
                addr: self.reg32()?,
                off: self.i32()?,
                src: self.reg32()?,
            },
            8 => Effect::PopEsp,
            9 => Effect::AddEsp { src: self.reg32()? },
            10 => Effect::Syscall,
            11 => Effect::ShiftCl {
                op: *SHIFTS.get(self.u8()? as usize)?,
                dst: self.reg32()?,
            },
            12 => Effect::MovLow8 {
                dst: self.reg8()?,
                src: self.reg8()?,
            },
            13 => Effect::Nop,
            _ => return None,
        })
    }
}

/// Serializes a gadget collection to the cache container format: each
/// distinct record once, then each gadget as its vaddr and its record's
/// index.
pub fn serialize_gadgets(gadgets: &[Gadget]) -> Vec<u8> {
    // Records by value, not by pointer: the bytes are a function of the
    // list's contents, whichever copies happen to share an `Arc`.
    let mut index: HashMap<&GadgetRecord, u32> = HashMap::new();
    let mut records = Vec::new();
    let refs: Vec<u32> = gadgets
        .iter()
        .map(|g| {
            let next = records.len() as u32;
            *index.entry(&*g.record).or_insert_with(|| {
                records.push(&*g.record);
                next
            })
        })
        .collect();
    let mut w = Writer {
        out: MAGIC.to_vec(),
    };
    w.varint(records.len() as u32);
    for r in records {
        w.record(r);
    }
    w.varint(gadgets.len() as u32);
    for (g, r) in gadgets.iter().zip(refs) {
        w.u32(g.vaddr);
        w.varint(r);
    }
    w.out
}

/// Deserializes a gadget collection, or `None` when the bytes are not
/// a well-formed container (wrong magic or version, truncation, bad
/// tags, a record index out of order or range, a record no gadget
/// uses, trailing bytes — any corruption degrades to a cache miss).
/// Every gadget of one record shares one `Arc`.
pub fn deserialize_gadgets(bytes: &[u8]) -> Option<Vec<Gadget>> {
    if bytes.len() < 4 || &bytes[..4] != MAGIC {
        return None;
    }
    let mut r = Reader { buf: bytes, pos: 4 };
    // Capacities are bounded by the bytes left, so a forged count
    // cannot reserve more than the payload could describe.
    let n_records = r.varint()? as usize;
    let mut records = Vec::with_capacity(n_records.min(r.remaining() / MIN_RECORD_BYTES));
    for _ in 0..n_records {
        records.push(Arc::new(r.record()?));
    }
    let count = r.varint()? as usize;
    let mut out = Vec::with_capacity(count.min(r.remaining() / MIN_GADGET_BYTES));
    // Records appear in order of first use: each gadget names a record
    // an earlier gadget used, or the next one.
    let mut used = 0;
    for _ in 0..count {
        let vaddr = r.u32()?;
        let k = r.varint()? as usize;
        if k > used {
            return None;
        }
        used += usize::from(k == used);
        out.push(Gadget {
            vaddr,
            record: Arc::clone(records.get(k)?),
        });
    }
    (r.pos == bytes.len() && used == records.len()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Gadget> {
        vec![
            Gadget::new(
                0x1000,
                GadgetRecord {
                    len: 3,
                    far: false,
                    slots: 1,
                    effects: vec![
                        Effect::LoadConst {
                            dst: Reg32::Eax,
                            slot: 0,
                        },
                        Effect::Binary {
                            op: GBinOp::Xor,
                            dst: Reg32::Esi,
                            src: Reg32::Eax,
                        },
                    ],
                    clobbers: vec![Reg32::Ecx],
                    mem_preconditions: vec![],
                    disasm: "pop eax; ret".into(),
                    insn_count: 2,
                },
            ),
            Gadget::new(
                0x2004,
                GadgetRecord {
                    len: 6,
                    far: true,
                    slots: 2,
                    effects: vec![
                        Effect::StoreMem {
                            addr: Reg32::Ebx,
                            off: -8,
                            src: Reg32::Edx,
                        },
                        Effect::ShiftCl {
                            op: ShiftOp::Shr,
                            dst: Reg32::Edx,
                        },
                        Effect::MovLow8 {
                            dst: Reg8::Al,
                            src: Reg8::Ch,
                        },
                    ],
                    clobbers: vec![],
                    mem_preconditions: vec![Reg32::Ebx],
                    disasm: "mov [ebx-8], edx; retf".into(),
                    insn_count: 2,
                },
            ),
        ]
    }

    /// The fields of each gadget, in order.
    fn fields(gadgets: &[Gadget]) -> Vec<(u32, GadgetRecord)> {
        gadgets
            .iter()
            .map(|g| (g.vaddr, (*g.record).clone()))
            .collect()
    }

    #[test]
    fn roundtrip() {
        let gadgets = sample();
        let bytes = serialize_gadgets(&gadgets);
        let back = deserialize_gadgets(&bytes).unwrap();
        assert_eq!(fields(&back), fields(&gadgets));
        // Serialization is canonical: a round-trip re-serializes to the
        // same bytes (the property the content-hash check relies on).
        assert_eq!(serialize_gadgets(&back), bytes);
    }

    /// Copies of one record, shared or merely equal, are written once
    /// and read back as one `Arc`; distinct records stay distinct.
    #[test]
    fn each_record_is_written_once_and_read_back_shared() {
        let mut gadgets = sample();
        let [first, second] = [gadgets[0].clone(), gadgets[1].clone()];
        gadgets.push(Gadget {
            vaddr: 0x3000,
            ..first.clone()
        });
        gadgets.push(Gadget::new(0x3008, (*first.record).clone()));
        gadgets.push(Gadget {
            vaddr: 0x3010,
            ..second
        });
        let bytes = serialize_gadgets(&gadgets);
        let mut two = sample();
        two.truncate(2);
        let per_copy = serialize_gadgets(&two).len();
        // Three more copies cost their vaddr and a one-byte index each,
        // plus one byte of the gadget count.
        assert_eq!(bytes.len(), per_copy + 3 * MIN_GADGET_BYTES);
        let back = deserialize_gadgets(&bytes).unwrap();
        assert_eq!(fields(&back), fields(&gadgets));
        for (i, a) in back.iter().enumerate() {
            for b in &back[i + 1..] {
                assert_eq!(Arc::ptr_eq(&a.record, &b.record), a.record == b.record);
            }
        }
        assert_eq!(serialize_gadgets(&back), bytes);
    }

    /// A scan of an image holding three copies of `pop ecx; pop edx;
    /// ret` and one of `xor eax, ebx; ret`.
    fn real_scan() -> Vec<Gadget> {
        use parallax_image::Program;
        use parallax_x86::{AluOp, Asm};
        let mut a = Asm::new();
        a.mov_ri(Reg32::Eax, 1);
        a.int(0x80);
        for _ in 0..3 {
            a.db(&[0xcc; 8]);
            a.pop_r(Reg32::Ecx);
            a.pop_r(Reg32::Edx);
            a.ret();
        }
        a.db(&[0xcc; 8]);
        a.alu_rr(AluOp::Xor, Reg32::Eax, Reg32::Ebx);
        a.ret();
        let mut p = Program::new();
        p.add_func("main", a.finish().unwrap());
        p.set_entry("main");
        let gadgets = crate::find_gadgets(&p.link().unwrap());
        assert!(gadgets.len() > 9, "{gadgets:?}");
        gadgets
    }

    /// The reader is total: no prefix of a real payload, and no payload
    /// with a bad index, an overlong varint or trailing bytes, reads.
    #[test]
    fn malformed_payloads_read_as_none() {
        let gadgets = real_scan();
        let bytes = serialize_gadgets(&gadgets);
        assert_eq!(
            fields(&deserialize_gadgets(&bytes).unwrap()),
            fields(&gadgets)
        );
        for n in 0..bytes.len() {
            assert!(deserialize_gadgets(&bytes[..n]).is_none(), "prefix {n}");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(deserialize_gadgets(&extra).is_none(), "trailing byte");

        // One record and one gadget, hand-built around `index`.
        let one = |index: &[u8]| {
            let mut w = Writer {
                out: MAGIC.to_vec(),
            };
            w.varint(1);
            w.record(&gadgets[0].record);
            w.varint(1);
            w.u32(0x1000);
            w.out.extend_from_slice(index);
            w.out
        };
        assert!(deserialize_gadgets(&one(&[0])).is_some());
        assert!(
            deserialize_gadgets(&one(&[1])).is_none(),
            "index past the end"
        );
        assert!(deserialize_gadgets(&one(&[0x80, 0x00])).is_none(), "padded");
        assert!(
            deserialize_gadgets(&one(&[0xff, 0xff, 0xff, 0xff, 0x1f])).is_none(),
            "over 32 bits"
        );
        assert!(
            deserialize_gadgets(&one(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x00])).is_none(),
            "six bytes"
        );
        // A record count over the bytes that follow reserves nothing
        // it cannot fill.
        let mut huge = MAGIC.to_vec();
        huge.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f]);
        assert!(deserialize_gadgets(&huge).is_none());

        // Two records: a gadget may not name the second before the
        // first, and each record must be used.
        let two = |indices: &[u8]| {
            let mut w = Writer {
                out: MAGIC.to_vec(),
            };
            w.varint(2);
            w.record(&gadgets[0].record);
            w.record(&gadgets[1].record);
            w.varint(indices.len() as u32);
            for &k in indices {
                w.u32(0x1000);
                w.u8(k);
            }
            w.out
        };
        assert!(deserialize_gadgets(&two(&[0, 1, 0])).is_some());
        assert!(deserialize_gadgets(&two(&[1, 0])).is_none(), "out of order");
        assert!(
            deserialize_gadgets(&two(&[0, 0])).is_none(),
            "unused record"
        );
    }

    #[test]
    fn corruption_degrades_to_none() {
        let bytes = serialize_gadgets(&sample());
        assert!(deserialize_gadgets(&[]).is_none());
        assert!(deserialize_gadgets(b"PLX\x7f1234").is_none());
        // The per-gadget container of older builds is not this one.
        let mut old = bytes.clone();
        old[3] = 1;
        assert!(deserialize_gadgets(&old).is_none());
        assert!(deserialize_gadgets(&bytes[..bytes.len() - 1]).is_none());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(deserialize_gadgets(&extra).is_none(), "trailing garbage");
    }
}
