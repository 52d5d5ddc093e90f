//! A conservative x86-32 instruction decoder.
//!
//! The decoder is designed for *gadget scanning*: it must accept a byte
//! slice at any offset — including the middle of a legitimate
//! instruction — and either produce a faithful decoding or fail
//! cleanly. Any byte sequence it does not fully understand decodes to
//! an error, never to a guess, so that the gadget finder stays
//! conservative (an unknown opcode can never become a "usable" gadget).

use core::fmt;

use crate::insn::{AluOp, Cond, FieldLoc, Insn, Mem, Mnemonic, OpSize, Operand, ShiftOp};
use crate::reg::{Reg, Reg32, Reg8};

/// Errors produced while decoding a byte sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte slice ended before the instruction was complete.
    Truncated,
    /// The first opcode byte is not supported.
    InvalidOpcode(u8),
    /// A two-byte (`0f`-prefixed) opcode is not supported.
    InvalidOpcode2(u8),
    /// A group opcode selected an undefined `/r` slot.
    InvalidGroup {
        /// The group opcode byte.
        opcode: u8,
        /// The undefined `/r` extension value.
        ext: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "instruction truncated"),
            DecodeError::InvalidOpcode(b) => write!(f, "invalid opcode {b:#04x}"),
            DecodeError::InvalidOpcode2(b) => write!(f, "invalid opcode 0f {b:#04x}"),
            DecodeError::InvalidGroup { opcode, ext } => {
                write!(f, "invalid group extension {opcode:#04x} /{ext}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Result alias for decode operations.
pub type Result<T> = core::result::Result<T, DecodeError>;

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Whether the decode builds operands. A shape decode
    /// ([`decode_shape`]) reads the same bytes in the same order and
    /// leaves every [`Insn::ops`] empty.
    operands: bool,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], operands: bool) -> Cursor<'a> {
        Cursor {
            bytes,
            pos: 0,
            operands,
        }
    }

    /// The operand list of the instruction being decoded: `ops`, or an
    /// empty list, which allocates nothing, under a shape decode.
    fn ops<const N: usize>(&self, ops: [Operand; N]) -> Vec<Operand> {
        if self.operands {
            Vec::from(ops)
        } else {
            Vec::new()
        }
    }

    fn u8(&mut self) -> Result<u8> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn i8(&mut self) -> Result<i8> {
        Ok(self.u8()? as i8)
    }

    fn u16(&mut self) -> Result<u16> {
        let lo = self.u8()? as u16;
        let hi = self.u8()? as u16;
        Ok(lo | (hi << 8))
    }

    fn u32(&mut self) -> Result<u32> {
        let mut v = 0u32;
        for i in 0..4 {
            v |= (self.u8()? as u32) << (8 * i);
        }
        Ok(v)
    }

    fn i32(&mut self) -> Result<i32> {
        Ok(self.u32()? as i32)
    }
}

/// A decoded `r/m` operand plus the location of its displacement field.
struct RmOperand {
    op: Operand,
    disp_loc: Option<FieldLoc>,
    /// ModRM `reg` field, used for opcode extensions and `/r` operands.
    reg: u8,
}

fn decode_modrm(cur: &mut Cursor<'_>, size: OpSize) -> Result<RmOperand> {
    let modrm = cur.u8()?;
    let md = modrm >> 6;
    let reg = (modrm >> 3) & 7;
    let rm = modrm & 7;

    if md == 3 {
        let op = match size {
            OpSize::Dword => Operand::Reg(Reg::R32(Reg32::from_encoding(rm))),
            OpSize::Byte => Operand::Reg(Reg::R8(Reg8::from_encoding(rm))),
        };
        return Ok(RmOperand {
            op,
            disp_loc: None,
            reg,
        });
    }

    let mut mem = Mem::default();
    if rm == 4 {
        // SIB byte.
        let sib = cur.u8()?;
        let scale = 1u8 << (sib >> 6);
        let index = (sib >> 3) & 7;
        let base = sib & 7;
        if index != 4 {
            mem.index = Some((Reg32::from_encoding(index), scale));
        }
        if base == 5 && md == 0 {
            // disp32 with no base.
        } else {
            mem.base = Some(Reg32::from_encoding(base));
        }
        let disp_loc = match md {
            0 if base == 5 => {
                let off = cur.pos as u8;
                mem.disp = cur.i32()?;
                Some(FieldLoc {
                    offset: off,
                    width: 4,
                })
            }
            1 => {
                let off = cur.pos as u8;
                mem.disp = cur.i8()? as i32;
                Some(FieldLoc {
                    offset: off,
                    width: 1,
                })
            }
            2 => {
                let off = cur.pos as u8;
                mem.disp = cur.i32()?;
                Some(FieldLoc {
                    offset: off,
                    width: 4,
                })
            }
            _ => None,
        };
        return Ok(RmOperand {
            op: Operand::Mem(mem),
            disp_loc,
            reg,
        });
    }

    if md == 0 && rm == 5 {
        // Absolute disp32.
        let off = cur.pos as u8;
        mem.disp = cur.i32()?;
        return Ok(RmOperand {
            op: Operand::Mem(mem),
            disp_loc: Some(FieldLoc {
                offset: off,
                width: 4,
            }),
            reg,
        });
    }

    mem.base = Some(Reg32::from_encoding(rm));
    let disp_loc = match md {
        1 => {
            let off = cur.pos as u8;
            mem.disp = cur.i8()? as i32;
            Some(FieldLoc {
                offset: off,
                width: 1,
            })
        }
        2 => {
            let off = cur.pos as u8;
            mem.disp = cur.i32()?;
            Some(FieldLoc {
                offset: off,
                width: 4,
            })
        }
        _ => None,
    };
    Ok(RmOperand {
        op: Operand::Mem(mem),
        disp_loc,
        reg,
    })
}

fn reg_op(size: OpSize, enc: u8) -> Operand {
    match size {
        OpSize::Dword => Operand::Reg(Reg::R32(Reg32::from_encoding(enc))),
        OpSize::Byte => Operand::Reg(Reg::R8(Reg8::from_encoding(enc))),
    }
}

/// Decodes one instruction from the start of `bytes`.
///
/// On success the returned [`Insn`] records its encoded length and the
/// byte positions of any immediate / displacement / relative fields.
pub fn decode(bytes: &[u8]) -> Result<Insn> {
    decode_read(bytes).0
}

/// [`decode`], also returning how many bytes the decode read: the
/// instruction's length when it succeeds, and when it fails the bytes
/// read before the error (all of `bytes` for [`DecodeError::Truncated`]).
/// The decoder reads bytes in order through one cursor and looks at
/// nothing else, so the outcome depends on exactly those bytes.
pub fn decode_read(bytes: &[u8]) -> (Result<Insn>, usize) {
    let mut cur = Cursor::new(bytes, true);
    let insn = decode_insn(&mut cur);
    (insn, cur.pos)
}

/// The shape of the decode [`decode_read`] makes of `bytes`: its
/// mnemonic or error, and how many bytes it read, without building
/// operands. It runs the same decoder body, reading the same bytes in
/// the same order, so both always agree; only the operand list is
/// skipped, and with it every allocation.
pub fn decode_shape(bytes: &[u8]) -> (Result<Mnemonic>, usize) {
    let mut cur = Cursor::new(bytes, false);
    let mnemonic = decode_insn(&mut cur).map(|insn| insn.mnemonic);
    (mnemonic, cur.pos)
}

fn decode_insn(cur: &mut Cursor<'_>) -> Result<Insn> {
    let opcode = cur.u8()?;

    // Group-1 ALU opcodes follow a regular pattern:
    //   base+0: rm8, r8     base+1: rm32, r32
    //   base+2: r8, rm8     base+3: r32, rm32
    //   base+4: al, imm8    base+5: eax, imm32
    if opcode < 0x40 && (opcode & 7) < 6 && (opcode & 0x38) != 0x38
        || (0x38..0x3e).contains(&opcode)
    {
        let alu = AluOp::ALL[(opcode >> 3) as usize];
        return decode_alu_family(cur, Mnemonic::Alu(alu), opcode & 7);
    }

    match opcode {
        0x40..=0x47 => Ok(fixed(
            cur,
            Mnemonic::Inc,
            cur.ops([reg_op(OpSize::Dword, opcode - 0x40)]),
            OpSize::Dword,
        )),
        0x48..=0x4f => Ok(fixed(
            cur,
            Mnemonic::Dec,
            cur.ops([reg_op(OpSize::Dword, opcode - 0x48)]),
            OpSize::Dword,
        )),
        0x50..=0x57 => Ok(fixed(
            cur,
            Mnemonic::Push,
            cur.ops([reg_op(OpSize::Dword, opcode - 0x50)]),
            OpSize::Dword,
        )),
        0x58..=0x5f => Ok(fixed(
            cur,
            Mnemonic::Pop,
            cur.ops([reg_op(OpSize::Dword, opcode - 0x58)]),
            OpSize::Dword,
        )),
        0x60 => Ok(fixed(cur, Mnemonic::Pushad, vec![], OpSize::Dword)),
        0x61 => Ok(fixed(cur, Mnemonic::Popad, vec![], OpSize::Dword)),
        0x68 => {
            let off = cur.pos as u8;
            let imm = cur.i32()? as i64;
            let mut i = fixed(
                cur,
                Mnemonic::Push,
                cur.ops([Operand::Imm(imm)]),
                OpSize::Dword,
            );
            i.imm_loc = Some(FieldLoc {
                offset: off,
                width: 4,
            });
            Ok(i)
        }
        0x69 | 0x6b => {
            // imul r32, rm32, imm
            let rm = decode_modrm(cur, OpSize::Dword)?;
            let dst = reg_op(OpSize::Dword, rm.reg);
            let off = cur.pos as u8;
            let (imm, width) = if opcode == 0x69 {
                (cur.i32()? as i64, 4)
            } else {
                (cur.i8()? as i64, 1)
            };
            let mut i = fixed(
                cur,
                Mnemonic::Imul,
                cur.ops([dst, rm.op, Operand::Imm(imm)]),
                OpSize::Dword,
            );
            i.disp_loc = rm.disp_loc;
            i.imm_loc = Some(FieldLoc { offset: off, width });
            Ok(i)
        }
        0x6a => {
            let off = cur.pos as u8;
            let imm = cur.i8()? as i64;
            let mut i = fixed(
                cur,
                Mnemonic::Push,
                cur.ops([Operand::Imm(imm)]),
                OpSize::Dword,
            );
            i.imm_loc = Some(FieldLoc {
                offset: off,
                width: 1,
            });
            Ok(i)
        }
        0x70..=0x7f => {
            let cond = Cond::from_encoding(opcode & 0xf);
            let off = cur.pos as u8;
            let rel = cur.i8()? as i32;
            let mut i = fixed(
                cur,
                Mnemonic::Jcc(cond),
                cur.ops([Operand::Rel(rel)]),
                OpSize::Dword,
            );
            i.rel_loc = Some(FieldLoc {
                offset: off,
                width: 1,
            });
            Ok(i)
        }
        0x80 | 0x81 | 0x83 => {
            let size = if opcode == 0x80 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let rm = decode_modrm(cur, size)?;
            let alu = AluOp::ALL[rm.reg as usize];
            let off = cur.pos as u8;
            let (imm, width) = match opcode {
                0x80 => (cur.i8()? as i64, 1),
                0x81 => (cur.i32()? as i64, 4),
                _ => (cur.i8()? as i64, 1),
            };
            let mut i = fixed(
                cur,
                Mnemonic::Alu(alu),
                cur.ops([rm.op, Operand::Imm(imm)]),
                size,
            );
            i.disp_loc = rm.disp_loc;
            i.imm_loc = Some(FieldLoc { offset: off, width });
            Ok(i)
        }
        0x84 | 0x85 => {
            let size = if opcode == 0x84 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let rm = decode_modrm(cur, size)?;
            let reg = reg_op(size, rm.reg);
            let mut i = fixed(cur, Mnemonic::Test, cur.ops([rm.op, reg]), size);
            i.disp_loc = rm.disp_loc;
            Ok(i)
        }
        0x86 | 0x87 => {
            let size = if opcode == 0x86 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let rm = decode_modrm(cur, size)?;
            let reg = reg_op(size, rm.reg);
            let mut i = fixed(cur, Mnemonic::Xchg, cur.ops([rm.op, reg]), size);
            i.disp_loc = rm.disp_loc;
            Ok(i)
        }
        0x88..=0x8b => {
            let size = if opcode & 1 == 0 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let rm = decode_modrm(cur, size)?;
            let reg = reg_op(size, rm.reg);
            let ops = if opcode < 0x8a {
                cur.ops([rm.op, reg]) // mov rm, r
            } else {
                cur.ops([reg, rm.op]) // mov r, rm
            };
            let mut i = fixed(cur, Mnemonic::Mov, ops, size);
            i.disp_loc = rm.disp_loc;
            Ok(i)
        }
        0x8d => {
            let rm = decode_modrm(cur, OpSize::Dword)?;
            // LEA requires a memory operand.
            if !matches!(rm.op, Operand::Mem(_)) {
                return Err(DecodeError::InvalidOpcode(opcode));
            }
            let dst = reg_op(OpSize::Dword, rm.reg);
            let mut i = fixed(cur, Mnemonic::Lea, cur.ops([dst, rm.op]), OpSize::Dword);
            i.disp_loc = rm.disp_loc;
            Ok(i)
        }
        0x8f => {
            let rm = decode_modrm(cur, OpSize::Dword)?;
            if rm.reg != 0 {
                return Err(DecodeError::InvalidGroup {
                    opcode,
                    ext: rm.reg,
                });
            }
            let mut i = fixed(cur, Mnemonic::Pop, cur.ops([rm.op]), OpSize::Dword);
            i.disp_loc = rm.disp_loc;
            Ok(i)
        }
        0x90 => Ok(fixed(cur, Mnemonic::Nop, vec![], OpSize::Dword)),
        0x91..=0x97 => Ok(fixed(
            cur,
            Mnemonic::Xchg,
            cur.ops([
                reg_op(OpSize::Dword, 0),
                reg_op(OpSize::Dword, opcode - 0x90),
            ]),
            OpSize::Dword,
        )),
        0x98 => Ok(fixed(cur, Mnemonic::Cwde, vec![], OpSize::Dword)),
        0x99 => Ok(fixed(cur, Mnemonic::Cdq, vec![], OpSize::Dword)),
        0x9c => Ok(fixed(cur, Mnemonic::Pushfd, vec![], OpSize::Dword)),
        0x9d => Ok(fixed(cur, Mnemonic::Popfd, vec![], OpSize::Dword)),
        0xa0..=0xa3 => {
            let size = if opcode & 1 == 0 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let off = cur.pos as u8;
            let addr = cur.i32()?;
            let mem = Operand::Mem(Mem::abs(addr));
            let acc = reg_op(size, 0);
            let ops = if opcode < 0xa2 {
                cur.ops([acc, mem])
            } else {
                cur.ops([mem, acc])
            };
            let mut i = fixed(cur, Mnemonic::Mov, ops, size);
            i.disp_loc = Some(FieldLoc {
                offset: off,
                width: 4,
            });
            Ok(i)
        }
        0xa8 | 0xa9 => {
            let size = if opcode == 0xa8 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let off = cur.pos as u8;
            let (imm, width) = if size == OpSize::Byte {
                (cur.i8()? as i64, 1)
            } else {
                (cur.i32()? as i64, 4)
            };
            let mut i = fixed(
                cur,
                Mnemonic::Test,
                cur.ops([reg_op(size, 0), Operand::Imm(imm)]),
                size,
            );
            i.imm_loc = Some(FieldLoc { offset: off, width });
            Ok(i)
        }
        0xb0..=0xb7 => {
            let off = cur.pos as u8;
            let imm = cur.u8()? as i64;
            let mut i = fixed(
                cur,
                Mnemonic::Mov,
                cur.ops([reg_op(OpSize::Byte, opcode - 0xb0), Operand::Imm(imm)]),
                OpSize::Byte,
            );
            i.imm_loc = Some(FieldLoc {
                offset: off,
                width: 1,
            });
            Ok(i)
        }
        0xb8..=0xbf => {
            let off = cur.pos as u8;
            let imm = cur.u32()? as i64;
            let mut i = fixed(
                cur,
                Mnemonic::Mov,
                cur.ops([reg_op(OpSize::Dword, opcode - 0xb8), Operand::Imm(imm)]),
                OpSize::Dword,
            );
            i.imm_loc = Some(FieldLoc {
                offset: off,
                width: 4,
            });
            Ok(i)
        }
        0xc0 | 0xc1 => {
            let size = if opcode == 0xc0 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let rm = decode_modrm(cur, size)?;
            let op = ShiftOp::from_encoding(rm.reg).ok_or(DecodeError::InvalidGroup {
                opcode,
                ext: rm.reg,
            })?;
            let off = cur.pos as u8;
            let imm = cur.u8()? as i64;
            let mut i = fixed(
                cur,
                Mnemonic::Shift(op),
                cur.ops([rm.op, Operand::Imm(imm)]),
                size,
            );
            i.disp_loc = rm.disp_loc;
            i.imm_loc = Some(FieldLoc {
                offset: off,
                width: 1,
            });
            Ok(i)
        }
        0xc2 => {
            let off = cur.pos as u8;
            let n = cur.u16()? as i64;
            let mut i = fixed(
                cur,
                Mnemonic::Ret,
                cur.ops([Operand::Imm(n)]),
                OpSize::Dword,
            );
            i.imm_loc = Some(FieldLoc {
                offset: off,
                width: 2,
            });
            Ok(i)
        }
        0xc3 => Ok(fixed(cur, Mnemonic::Ret, vec![], OpSize::Dword)),
        0xc6 | 0xc7 => {
            let size = if opcode == 0xc6 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let rm = decode_modrm(cur, size)?;
            if rm.reg != 0 {
                return Err(DecodeError::InvalidGroup {
                    opcode,
                    ext: rm.reg,
                });
            }
            let off = cur.pos as u8;
            let (imm, width) = if size == OpSize::Byte {
                (cur.u8()? as i64, 1)
            } else {
                (cur.u32()? as i64, 4)
            };
            let mut i = fixed(
                cur,
                Mnemonic::Mov,
                cur.ops([rm.op, Operand::Imm(imm)]),
                size,
            );
            i.disp_loc = rm.disp_loc;
            i.imm_loc = Some(FieldLoc { offset: off, width });
            Ok(i)
        }
        0xc9 => Ok(fixed(cur, Mnemonic::Leave, vec![], OpSize::Dword)),
        0xca => {
            let off = cur.pos as u8;
            let n = cur.u16()? as i64;
            let mut i = fixed(
                cur,
                Mnemonic::Retf,
                cur.ops([Operand::Imm(n)]),
                OpSize::Dword,
            );
            i.imm_loc = Some(FieldLoc {
                offset: off,
                width: 2,
            });
            Ok(i)
        }
        0xcb => Ok(fixed(cur, Mnemonic::Retf, vec![], OpSize::Dword)),
        0xcc => Ok(fixed(cur, Mnemonic::Int3, vec![], OpSize::Dword)),
        0xcd => {
            let off = cur.pos as u8;
            let n = cur.u8()? as i64;
            let mut i = fixed(
                cur,
                Mnemonic::Int,
                cur.ops([Operand::Imm(n)]),
                OpSize::Dword,
            );
            i.imm_loc = Some(FieldLoc {
                offset: off,
                width: 1,
            });
            Ok(i)
        }
        0xd0..=0xd3 => {
            let size = if opcode & 1 == 0 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let rm = decode_modrm(cur, size)?;
            let op = ShiftOp::from_encoding(rm.reg).ok_or(DecodeError::InvalidGroup {
                opcode,
                ext: rm.reg,
            })?;
            let amount = if opcode < 0xd2 {
                Operand::Imm(1)
            } else {
                Operand::Reg(Reg::R8(Reg8::Cl))
            };
            let mut i = fixed(cur, Mnemonic::Shift(op), cur.ops([rm.op, amount]), size);
            i.disp_loc = rm.disp_loc;
            Ok(i)
        }
        0xe8 => {
            let off = cur.pos as u8;
            let rel = cur.i32()?;
            let mut i = fixed(
                cur,
                Mnemonic::Call,
                cur.ops([Operand::Rel(rel)]),
                OpSize::Dword,
            );
            i.rel_loc = Some(FieldLoc {
                offset: off,
                width: 4,
            });
            Ok(i)
        }
        0xe9 => {
            let off = cur.pos as u8;
            let rel = cur.i32()?;
            let mut i = fixed(
                cur,
                Mnemonic::Jmp,
                cur.ops([Operand::Rel(rel)]),
                OpSize::Dword,
            );
            i.rel_loc = Some(FieldLoc {
                offset: off,
                width: 4,
            });
            Ok(i)
        }
        0xeb => {
            let off = cur.pos as u8;
            let rel = cur.i8()? as i32;
            let mut i = fixed(
                cur,
                Mnemonic::Jmp,
                cur.ops([Operand::Rel(rel)]),
                OpSize::Dword,
            );
            i.rel_loc = Some(FieldLoc {
                offset: off,
                width: 1,
            });
            Ok(i)
        }
        0xf4 => Ok(fixed(cur, Mnemonic::Hlt, vec![], OpSize::Dword)),
        0xf5 => Ok(fixed(cur, Mnemonic::Cmc, vec![], OpSize::Dword)),
        0xf6 | 0xf7 => {
            let size = if opcode == 0xf6 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let rm = decode_modrm(cur, size)?;
            match rm.reg {
                0 | 1 => {
                    let off = cur.pos as u8;
                    let (imm, width) = if size == OpSize::Byte {
                        (cur.i8()? as i64, 1)
                    } else {
                        (cur.i32()? as i64, 4)
                    };
                    let mut i = fixed(
                        cur,
                        Mnemonic::Test,
                        cur.ops([rm.op, Operand::Imm(imm)]),
                        size,
                    );
                    i.disp_loc = rm.disp_loc;
                    i.imm_loc = Some(FieldLoc { offset: off, width });
                    Ok(i)
                }
                2 => group_un(cur, Mnemonic::Not, rm, size),
                3 => group_un(cur, Mnemonic::Neg, rm, size),
                4 => group_un(cur, Mnemonic::Mul, rm, size),
                5 => group_un(cur, Mnemonic::Imul, rm, size),
                6 => group_un(cur, Mnemonic::Div, rm, size),
                7 => group_un(cur, Mnemonic::Idiv, rm, size),
                _ => unreachable!(),
            }
        }
        0xf8 => Ok(fixed(cur, Mnemonic::Clc, vec![], OpSize::Dword)),
        0xf9 => Ok(fixed(cur, Mnemonic::Stc, vec![], OpSize::Dword)),
        0xfe => {
            let rm = decode_modrm(cur, OpSize::Byte)?;
            match rm.reg {
                0 => group_un(cur, Mnemonic::Inc, rm, OpSize::Byte),
                1 => group_un(cur, Mnemonic::Dec, rm, OpSize::Byte),
                ext => Err(DecodeError::InvalidGroup { opcode, ext }),
            }
        }
        0xff => {
            let rm = decode_modrm(cur, OpSize::Dword)?;
            match rm.reg {
                0 => group_un(cur, Mnemonic::Inc, rm, OpSize::Dword),
                1 => group_un(cur, Mnemonic::Dec, rm, OpSize::Dword),
                2 => group_un(cur, Mnemonic::CallInd, rm, OpSize::Dword),
                4 => group_un(cur, Mnemonic::JmpInd, rm, OpSize::Dword),
                6 => group_un(cur, Mnemonic::Push, rm, OpSize::Dword),
                ext => Err(DecodeError::InvalidGroup { opcode, ext }),
            }
        }
        0x0f => decode_0f(cur),
        other => Err(DecodeError::InvalidOpcode(other)),
    }
}

fn decode_0f(cur: &mut Cursor<'_>) -> Result<Insn> {
    let op2 = cur.u8()?;
    match op2 {
        0x40..=0x4f => {
            let cond = Cond::from_encoding(op2 & 0xf);
            let rm = decode_modrm(cur, OpSize::Dword)?;
            let dst = reg_op(OpSize::Dword, rm.reg);
            let mut i = fixed(
                cur,
                Mnemonic::Cmovcc(cond),
                cur.ops([dst, rm.op]),
                OpSize::Dword,
            );
            i.disp_loc = rm.disp_loc;
            Ok(i)
        }
        0x80..=0x8f => {
            let cond = Cond::from_encoding(op2 & 0xf);
            let off = cur.pos as u8;
            let rel = cur.i32()?;
            let mut i = fixed(
                cur,
                Mnemonic::Jcc(cond),
                cur.ops([Operand::Rel(rel)]),
                OpSize::Dword,
            );
            i.rel_loc = Some(FieldLoc {
                offset: off,
                width: 4,
            });
            Ok(i)
        }
        0x90..=0x9f => {
            let cond = Cond::from_encoding(op2 & 0xf);
            let rm = decode_modrm(cur, OpSize::Byte)?;
            if rm.reg != 0 {
                // setcc formally ignores /r but tools emit /0; accept any.
            }
            let mut i = fixed(cur, Mnemonic::Setcc(cond), cur.ops([rm.op]), OpSize::Byte);
            i.disp_loc = rm.disp_loc;
            Ok(i)
        }
        0xaf => {
            let rm = decode_modrm(cur, OpSize::Dword)?;
            let dst = reg_op(OpSize::Dword, rm.reg);
            let mut i = fixed(cur, Mnemonic::Imul, cur.ops([dst, rm.op]), OpSize::Dword);
            i.disp_loc = rm.disp_loc;
            Ok(i)
        }
        0xb6 | 0xbe => {
            // movzx/movsx r32, rm8
            let rm = decode_modrm(cur, OpSize::Byte)?;
            let dst = reg_op(OpSize::Dword, rm.reg);
            let mn = if op2 == 0xb6 {
                Mnemonic::Movzx
            } else {
                Mnemonic::Movsx
            };
            let mut i = fixed(cur, mn, cur.ops([dst, rm.op]), OpSize::Byte);
            i.disp_loc = rm.disp_loc;
            Ok(i)
        }
        other => Err(DecodeError::InvalidOpcode2(other)),
    }
}

fn decode_alu_family(cur: &mut Cursor<'_>, mn: Mnemonic, form: u8) -> Result<Insn> {
    match form {
        0..=3 => {
            let size = if form & 1 == 0 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let rm = decode_modrm(cur, size)?;
            let reg = reg_op(size, rm.reg);
            let ops = if form < 2 {
                cur.ops([rm.op, reg])
            } else {
                cur.ops([reg, rm.op])
            };
            let mut i = fixed(cur, mn, ops, size);
            i.disp_loc = rm.disp_loc;
            Ok(i)
        }
        4 => {
            let off = cur.pos as u8;
            let imm = cur.i8()? as i64;
            let mut i = fixed(
                cur,
                mn,
                cur.ops([reg_op(OpSize::Byte, 0), Operand::Imm(imm)]),
                OpSize::Byte,
            );
            i.imm_loc = Some(FieldLoc {
                offset: off,
                width: 1,
            });
            Ok(i)
        }
        5 => {
            let off = cur.pos as u8;
            let imm = cur.i32()? as i64;
            let mut i = fixed(
                cur,
                mn,
                cur.ops([reg_op(OpSize::Dword, 0), Operand::Imm(imm)]),
                OpSize::Dword,
            );
            i.imm_loc = Some(FieldLoc {
                offset: off,
                width: 4,
            });
            Ok(i)
        }
        _ => unreachable!(),
    }
}

fn group_un(cur: &Cursor<'_>, mn: Mnemonic, rm: RmOperand, size: OpSize) -> Result<Insn> {
    let mut i = fixed(cur, mn, cur.ops([rm.op]), size);
    i.disp_loc = rm.disp_loc;
    Ok(i)
}

fn fixed(cur: &Cursor<'_>, mn: Mnemonic, ops: Vec<Operand>, size: OpSize) -> Insn {
    Insn::new(mn, ops, size, cur.pos as u8)
}

/// Decodes a linear run of instructions starting at `bytes`, stopping
/// at the first decode failure or after `max` instructions.
pub fn decode_run(bytes: &[u8], max: usize) -> Vec<Insn> {
    let mut out = Vec::new();
    let mut pos = 0;
    while out.len() < max && pos < bytes.len() {
        match decode(&bytes[pos..]) {
            Ok(i) => {
                pos += i.len as usize;
                out.push(i);
            }
            Err(_) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(bytes: &[u8]) -> Insn {
        decode(bytes).expect("decodes")
    }

    #[test]
    fn decodes_listing1_gadget_bytes() {
        // The paper's existing gadget: and al,0; add [eax],al; add al,ch; retf
        let i = d(&[0x24, 0x00]);
        assert_eq!(i.to_string(), "and al,0x0");
        assert_eq!(i.len, 2);

        let i = d(&[0x00, 0x00]);
        assert_eq!(i.to_string(), "add byte [eax],al");

        let i = d(&[0x00, 0xe8]);
        assert_eq!(i.to_string(), "add al,ch");

        let i = d(&[0xcb]);
        assert_eq!(i.mnemonic, Mnemonic::Retf);

        // add bl,ch ; ret  (the jump-offset gadget)
        let i = d(&[0x00, 0xeb]);
        assert_eq!(i.to_string(), "add bl,ch");

        // sar byte [ecx+0x7],0x8b ; ret (the immediate-modification gadget)
        let i = d(&[0xc0, 0x79, 0x07, 0x8b]);
        assert_eq!(i.to_string(), "sar byte [ecx+0x7],0x8b");
        assert_eq!(
            i.imm_loc,
            Some(FieldLoc {
                offset: 3,
                width: 1
            })
        );
        assert_eq!(
            i.disp_loc,
            Some(FieldLoc {
                offset: 2,
                width: 1
            })
        );
    }

    #[test]
    fn decodes_frame_setup() {
        assert_eq!(d(&[0x55]).to_string(), "push ebp");
        assert_eq!(d(&[0x89, 0xe5]).to_string(), "mov ebp,esp");
        assert_eq!(d(&[0x83, 0xec, 0x18]).to_string(), "sub esp,0x18");
        assert_eq!(d(&[0xc9]).to_string(), "leave");
        assert_eq!(d(&[0xc3]).to_string(), "ret");
    }

    #[test]
    fn decodes_mov_imm() {
        let i = d(&[0xb8, 0x01, 0x00, 0x00, 0x00]);
        assert_eq!(i.to_string(), "mov eax,0x1");
        assert_eq!(
            i.imm_loc,
            Some(FieldLoc {
                offset: 1,
                width: 4
            })
        );
        assert_eq!(i.len, 5);
    }

    #[test]
    fn decodes_mov_mem_forms() {
        // mov [esp],eax => 89 04 24 (SIB: base esp)
        let i = d(&[0x89, 0x04, 0x24]);
        assert_eq!(i.to_string(), "mov [esp],eax");
        // mov eax,[ebp-4] => 8b 45 fc
        let i = d(&[0x8b, 0x45, 0xfc]);
        assert_eq!(i.to_string(), "mov eax,[ebp-0x4]");
        // mov dword [esp+4], imm32 => c7 44 24 04 xx
        let i = d(&[0xc7, 0x44, 0x24, 0x04, 0x2a, 0x00, 0x00, 0x00]);
        assert_eq!(i.to_string(), "mov [esp+0x4],0x2a");
        assert_eq!(
            i.imm_loc,
            Some(FieldLoc {
                offset: 4,
                width: 4
            })
        );
    }

    #[test]
    fn decodes_branches() {
        let i = d(&[0x79, 0x05]);
        assert_eq!(i.to_string(), "jns .+0x5");
        assert_eq!(
            i.rel_loc,
            Some(FieldLoc {
                offset: 1,
                width: 1
            })
        );

        let i = d(&[0xe8, 0x10, 0x00, 0x00, 0x00]);
        assert_eq!(i.mnemonic, Mnemonic::Call);
        assert_eq!(
            i.rel_loc,
            Some(FieldLoc {
                offset: 1,
                width: 4
            })
        );

        let i = d(&[0x0f, 0x84, 0x00, 0x01, 0x00, 0x00]);
        assert_eq!(i.to_string(), "je .+0x100");
        assert_eq!(i.len, 6);

        let i = d(&[0xeb, 0xc3]);
        assert_eq!(i.mnemonic, Mnemonic::Jmp);
        assert_eq!(i.ops[0], Operand::Rel(-0x3d));
    }

    #[test]
    fn decodes_sib_scaled_index() {
        // mov eax,[ebx+esi*4+8] => 8b 44 b3 08
        let i = d(&[0x8b, 0x44, 0xb3, 0x08]);
        assert_eq!(i.to_string(), "mov eax,[ebx+esi*4+0x8]");
    }

    #[test]
    fn decodes_abs_disp32() {
        // mov eax,[0x8049000] => a1 ...
        let i = d(&[0xa1, 0x00, 0x90, 0x04, 0x08]);
        assert_eq!(i.to_string(), "mov eax,[0x8049000]");
        // inc dword [0x8049000] => ff 05 ...
        let i = d(&[0xff, 0x05, 0x00, 0x90, 0x04, 0x08]);
        assert_eq!(i.to_string(), "inc [0x8049000]");
    }

    #[test]
    fn rejects_invalid() {
        assert!(decode(&[0x0f, 0x05]).is_err()); // syscall (64-bit only)
        assert!(decode(&[0xf0]).is_err()); // lock prefix unsupported
        assert!(decode(&[0x66, 0x90]).is_err()); // operand-size prefix unsupported
        assert!(decode(&[]).is_err());
        assert!(decode(&[0x81]).is_err()); // truncated
    }

    #[test]
    fn decodes_group3() {
        let i = d(&[0xf7, 0xd8]);
        assert_eq!(i.to_string(), "neg eax");
        let i = d(&[0xf7, 0xe3]);
        assert_eq!(i.to_string(), "mul ebx");
        let i = d(&[0xf7, 0xf9]);
        assert_eq!(i.to_string(), "idiv ecx");
        let i = d(&[0xf6, 0xd3]);
        assert_eq!(i.to_string(), "not bl");
    }

    #[test]
    fn decodes_ret_imm() {
        let i = d(&[0xc2, 0x08, 0x00]);
        assert_eq!(i.mnemonic, Mnemonic::Ret);
        assert_eq!(i.ops[0], Operand::Imm(8));
        assert_eq!(i.len, 3);
    }

    #[test]
    fn decodes_indirect_control() {
        let i = d(&[0xff, 0xd0]);
        assert_eq!(i.mnemonic, Mnemonic::CallInd);
        assert_eq!(i.ops[0], Operand::from(Reg32::Eax));
        let i = d(&[0xff, 0xe4]);
        assert_eq!(i.mnemonic, Mnemonic::JmpInd);
        assert_eq!(i.ops[0], Operand::from(Reg32::Esp));
    }

    #[test]
    fn decode_run_stops_at_invalid() {
        let code = [0x55, 0x89, 0xe5, 0xf0, 0x90];
        let run = decode_run(&code, 10);
        assert_eq!(run.len(), 2);
    }

    #[test]
    fn never_panics_on_arbitrary_bytes() {
        // Cheap deterministic fuzz; the proptest suite goes further.
        let mut state = 0x12345678u32;
        for _ in 0..20000 {
            let mut buf = [0u8; 16];
            for b in &mut buf {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                *b = (state >> 24) as u8;
            }
            let _ = decode(&buf);
        }
    }
}
