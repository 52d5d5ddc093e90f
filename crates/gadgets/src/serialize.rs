//! Flat binary serialization of gadget-scan results.
//!
//! The batch-protection engine caches gadget scans content-addressed by
//! the scanned image's bytes, with an optional on-disk layer. This
//! module round-trips a `Vec<Gadget>` through a minimal little-endian
//! container (same hand-rolled style as `parallax-image`'s `PLX`
//! format — no serde). Deserialization is total: any malformed input
//! yields `None`, never a panic, so a corrupted cache file degrades to
//! a cache miss.

use parallax_x86::{Reg32, Reg8, ShiftOp};

use crate::types::{Effect, GBinOp, Gadget, GadgetRecord};

const MAGIC: &[u8; 4] = b"PGS\x01";

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
    fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.out.extend_from_slice(v.as_bytes());
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
    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        if self.pos + len > self.buf.len() {
            return None;
        }
        let s = std::str::from_utf8(&self.buf[self.pos..self.pos + len]).ok()?;
        self.pos += len;
        Some(s.to_owned())
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

/// Serializes a gadget collection to the cache container format.
pub fn serialize_gadgets(gadgets: &[Gadget]) -> Vec<u8> {
    let mut w = Writer { out: Vec::new() };
    w.out.extend_from_slice(MAGIC);
    w.u32(gadgets.len() as u32);
    for g in gadgets {
        w.u32(g.vaddr);
        w.u32(g.len);
        w.u8(g.far as u8);
        w.u32(g.slots);
        w.u32(g.insn_count);
        w.str(&g.disasm);
        w.u8(g.effects.len() as u8);
        for e in &g.effects {
            w.effect(e);
        }
        w.u8(g.clobbers.len() as u8);
        for r in &g.clobbers {
            w.u8(r.encoding());
        }
        w.u8(g.mem_preconditions.len() as u8);
        for r in &g.mem_preconditions {
            w.u8(r.encoding());
        }
    }
    w.out
}

/// Deserializes a gadget collection, or `None` when the bytes are not
/// a well-formed container (wrong magic, truncation, bad tags — any
/// corruption degrades to a cache miss).
pub fn deserialize_gadgets(bytes: &[u8]) -> Option<Vec<Gadget>> {
    if bytes.len() < 4 || &bytes[..4] != MAGIC {
        return None;
    }
    let mut r = Reader { buf: bytes, pos: 4 };
    let count = r.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(65_536));
    for _ in 0..count {
        let vaddr = r.u32()?;
        let len = r.u32()?;
        let far = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let slots = r.u32()?;
        let insn_count = r.u32()?;
        let disasm = r.str()?;
        let n_effects = r.u8()? as usize;
        let mut effects = Vec::with_capacity(n_effects);
        for _ in 0..n_effects {
            effects.push(r.effect()?);
        }
        let n_clobbers = r.u8()? as usize;
        let mut clobbers = Vec::with_capacity(n_clobbers);
        for _ in 0..n_clobbers {
            clobbers.push(r.reg32()?);
        }
        let n_pre = r.u8()? as usize;
        let mut mem_preconditions = Vec::with_capacity(n_pre);
        for _ in 0..n_pre {
            mem_preconditions.push(r.reg32()?);
        }
        out.push(Gadget::new(
            vaddr,
            GadgetRecord {
                len,
                far,
                slots,
                effects,
                clobbers,
                mem_preconditions,
                disasm,
                insn_count,
            },
        ));
    }
    // Trailing garbage means the container was not written by us.
    (r.pos == bytes.len()).then_some(out)
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

    #[test]
    fn roundtrip() {
        let gadgets = sample();
        let bytes = serialize_gadgets(&gadgets);
        let back = deserialize_gadgets(&bytes).unwrap();
        assert_eq!(back.len(), gadgets.len());
        for (a, b) in gadgets.iter().zip(&back) {
            assert_eq!(a.vaddr, b.vaddr);
            assert_eq!(a.len, b.len);
            assert_eq!(a.far, b.far);
            assert_eq!(a.slots, b.slots);
            assert_eq!(a.effects, b.effects);
            assert_eq!(a.clobbers, b.clobbers);
            assert_eq!(a.mem_preconditions, b.mem_preconditions);
            assert_eq!(a.disasm, b.disasm);
            assert_eq!(a.insn_count, b.insn_count);
        }
        // Serialization is canonical: a round-trip re-serializes to the
        // same bytes (the property the content-hash check relies on).
        assert_eq!(serialize_gadgets(&back), bytes);
    }

    #[test]
    fn corruption_degrades_to_none() {
        let bytes = serialize_gadgets(&sample());
        assert!(deserialize_gadgets(&[]).is_none());
        assert!(deserialize_gadgets(b"PLX\x7f1234").is_none());
        assert!(deserialize_gadgets(&bytes[..bytes.len() - 1]).is_none());
        let mut truncated = bytes.clone();
        truncated.truncate(10);
        assert!(deserialize_gadgets(&truncated).is_none());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(deserialize_gadgets(&extra).is_none(), "trailing garbage");
    }
}
