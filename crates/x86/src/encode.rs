//! An x86-32 assembler with labels and symbol fixups.
//!
//! [`Asm`] is a byte-buffer builder with one typed emitter method per
//! instruction form. Branch targets are expressed through [`Label`]s
//! resolved at [`Asm::finish`]; references to other functions or global
//! data are expressed through named symbols, which `finish` returns as
//! relocation requests for the image layer to resolve.

use std::collections::HashMap;
use std::fmt;

use crate::insn::{AluOp, Cond, Mem, ShiftOp};
use crate::reg::{Reg32, Reg8};

/// A forward- or backward-referenced position in the instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// The kind of relocation a symbol reference needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelocKind {
    /// 32-bit displacement relative to the end of the field.
    Rel32,
    /// 32-bit absolute virtual address.
    Abs32,
}

/// A symbol reference left unresolved by the assembler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymReloc {
    /// Byte offset of the 4-byte field within the emitted code.
    pub offset: usize,
    /// Symbol the field refers to.
    pub symbol: String,
    /// How the field is to be patched.
    pub kind: RelocKind,
    /// Constant added to the symbol address.
    pub addend: i32,
}

/// Errors produced when finishing an assembly buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound.
    UnboundLabel(Label),
    /// A short (rel8) branch target was out of range.
    ShortBranchOutOfRange {
        /// Offset of the branch's displacement field.
        at: usize,
        /// The out-of-range distance.
        distance: i64,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(l) => write!(f, "label {:?} was never bound", l),
            AsmError::ShortBranchOutOfRange { at, distance } => {
                write!(f, "short branch at {at:#x} out of range ({distance})")
            }
        }
    }
}

impl std::error::Error for AsmError {}

struct LabelFixup {
    /// Offset of the displacement field.
    at: usize,
    /// Width of the displacement field (1 or 4).
    width: u8,
    /// Offset the displacement is relative to (end of instruction).
    base: usize,
    label: Label,
}

/// The assembler buffer.
#[derive(Default)]
pub struct Asm {
    bytes: Vec<u8>,
    labels: Vec<Option<usize>>,
    label_fixups: Vec<LabelFixup>,
    sym_relocs: Vec<SymReloc>,
    /// Offsets at which each named local marker was placed.
    markers: HashMap<String, usize>,
}

/// Finished machine code plus its unresolved symbol references.
#[derive(Debug, Clone)]
pub struct Assembled {
    /// The machine-code bytes.
    pub bytes: Vec<u8>,
    /// Relocations for the image layer.
    pub relocs: Vec<SymReloc>,
    /// Named positions recorded with [`Asm::marker`].
    pub markers: HashMap<String, usize>,
}

impl Asm {
    /// Creates an empty assembler buffer.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Current offset in the emitted byte stream.
    pub fn pos(&self) -> usize {
        self.bytes.len()
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    pub fn bind(&mut self, label: Label) {
        self.labels[label.0] = Some(self.bytes.len());
    }

    /// Creates a label already bound to the current position.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Records a named marker at the current position (for tests and
    /// for tools that must locate a spot inside emitted code).
    pub fn marker(&mut self, name: impl Into<String>) {
        self.markers.insert(name.into(), self.bytes.len());
    }

    /// Emits raw bytes.
    pub fn db(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Emits a raw 32-bit little-endian value.
    pub fn dd(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn b(&mut self, byte: u8) {
        self.bytes.push(byte);
    }

    fn imm32(&mut self, v: i32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    // ---- ModRM helpers ------------------------------------------------

    fn modrm_reg(&mut self, reg_field: u8, rm: u8) {
        self.b(0xc0 | (reg_field << 3) | rm);
    }

    fn modrm_mem(&mut self, reg_field: u8, mem: Mem) {
        let need_sib = mem.index.is_some() || mem.base == Some(Reg32::Esp);
        match mem.base {
            None => {
                if need_sib {
                    // SIB with no base: mod=00, rm=100, base=101, disp32.
                    self.b((reg_field << 3) | 4);
                    let (idx, scale) = mem.index.expect("index present");
                    assert_ne!(idx, Reg32::Esp, "esp cannot be an index register");
                    self.b(sib_byte(scale, idx.encoding(), 5));
                    self.imm32(mem.disp);
                } else {
                    // mod=00 rm=101: disp32 absolute.
                    self.b((reg_field << 3) | 5);
                    self.imm32(mem.disp);
                }
            }
            Some(base) => {
                // ebp as base with no displacement still needs mod=01 disp8=0.
                let (md, disp8) = if mem.disp == 0 && base != Reg32::Ebp {
                    (0u8, false)
                } else if (-128..=127).contains(&mem.disp) {
                    (1u8, true)
                } else {
                    (2u8, false)
                };
                if need_sib {
                    self.b((md << 6) | (reg_field << 3) | 4);
                    match mem.index {
                        Some((idx, scale)) => {
                            assert_ne!(idx, Reg32::Esp, "esp cannot be an index register");
                            self.b(sib_byte(scale, idx.encoding(), base.encoding()));
                        }
                        None => self.b(sib_byte(1, 4, base.encoding())),
                    }
                } else {
                    self.b((md << 6) | (reg_field << 3) | base.encoding());
                }
                match md {
                    1 => {
                        debug_assert!(disp8 || mem.disp == 0);
                        self.b(mem.disp as i8 as u8);
                    }
                    2 => self.imm32(mem.disp),
                    _ => {}
                }
            }
        }
    }

    // ---- Moves ---------------------------------------------------------

    /// `mov dst, src` (32-bit register to register).
    pub fn mov_rr(&mut self, dst: Reg32, src: Reg32) {
        self.b(0x89);
        self.modrm_reg(src.encoding(), dst.encoding());
    }

    /// `mov dst, imm32`.
    pub fn mov_ri(&mut self, dst: Reg32, imm: i32) {
        self.b(0xb8 + dst.encoding());
        self.imm32(imm);
    }

    /// `mov dst, imm32` where the immediate is the absolute address of
    /// `symbol` plus `addend`.
    pub fn mov_ri_sym(&mut self, dst: Reg32, symbol: impl Into<String>, addend: i32) {
        self.b(0xb8 + dst.encoding());
        self.sym_relocs.push(SymReloc {
            offset: self.bytes.len(),
            symbol: symbol.into(),
            kind: RelocKind::Abs32,
            addend,
        });
        self.imm32(0);
    }

    /// `mov dst, [mem]`.
    pub fn mov_rm(&mut self, dst: Reg32, mem: Mem) {
        self.b(0x8b);
        self.modrm_mem(dst.encoding(), mem);
    }

    /// `mov [mem], src`.
    pub fn mov_mr(&mut self, mem: Mem, src: Reg32) {
        self.b(0x89);
        self.modrm_mem(src.encoding(), mem);
    }

    /// `mov dword [mem], imm32`.
    pub fn mov_mi(&mut self, mem: Mem, imm: i32) {
        self.b(0xc7);
        self.modrm_mem(0, mem);
        self.imm32(imm);
    }

    /// `mov dst, src` (8-bit).
    pub fn mov_rr8(&mut self, dst: Reg8, src: Reg8) {
        self.b(0x88);
        self.modrm_reg(src.encoding(), dst.encoding());
    }

    /// `mov dst, imm8`.
    pub fn mov_ri8(&mut self, dst: Reg8, imm: u8) {
        self.b(0xb0 + dst.encoding());
        self.b(imm);
    }

    /// `mov dst, byte [mem]`.
    pub fn mov_rm8(&mut self, dst: Reg8, mem: Mem) {
        self.b(0x8a);
        self.modrm_mem(dst.encoding(), mem);
    }

    /// `mov byte [mem], src`.
    pub fn mov_mr8(&mut self, mem: Mem, src: Reg8) {
        self.b(0x88);
        self.modrm_mem(src.encoding(), mem);
    }

    /// `mov byte [mem], imm8`.
    pub fn mov_mi8(&mut self, mem: Mem, imm: u8) {
        self.b(0xc6);
        self.modrm_mem(0, mem);
        self.b(imm);
    }

    /// `movzx dst, src8`.
    pub fn movzx_rr8(&mut self, dst: Reg32, src: Reg8) {
        self.b(0x0f);
        self.b(0xb6);
        self.modrm_reg(dst.encoding(), src.encoding());
    }

    /// `movzx dst, byte [mem]`.
    pub fn movzx_rm8(&mut self, dst: Reg32, mem: Mem) {
        self.b(0x0f);
        self.b(0xb6);
        self.modrm_mem(dst.encoding(), mem);
    }

    /// `movsx dst, byte [mem]`.
    pub fn movsx_rm8(&mut self, dst: Reg32, mem: Mem) {
        self.b(0x0f);
        self.b(0xbe);
        self.modrm_mem(dst.encoding(), mem);
    }

    /// `lea dst, [mem]`.
    pub fn lea(&mut self, dst: Reg32, mem: Mem) {
        self.b(0x8d);
        self.modrm_mem(dst.encoding(), mem);
    }

    /// `xchg dst, src`.
    pub fn xchg_rr(&mut self, dst: Reg32, src: Reg32) {
        self.b(0x87);
        self.modrm_reg(src.encoding(), dst.encoding());
    }

    // ---- ALU -----------------------------------------------------------

    /// `op dst, src` (32-bit register-register group-1 ALU operation).
    pub fn alu_rr(&mut self, op: AluOp, dst: Reg32, src: Reg32) {
        self.b(op.encoding() * 8 + 1);
        self.modrm_reg(src.encoding(), dst.encoding());
    }

    /// `op dst, src` (8-bit).
    pub fn alu_rr8(&mut self, op: AluOp, dst: Reg8, src: Reg8) {
        self.b(op.encoding() * 8);
        self.modrm_reg(src.encoding(), dst.encoding());
    }

    /// `op dst, imm` choosing the shortest encoding (`83 ib` or `81 id`).
    pub fn alu_ri(&mut self, op: AluOp, dst: Reg32, imm: i32) {
        if (-128..=127).contains(&imm) {
            self.b(0x83);
            self.modrm_reg(op.encoding(), dst.encoding());
            self.b(imm as i8 as u8);
        } else {
            self.alu_ri32(op, dst, imm);
        }
    }

    /// `op dst, imm32` forcing the 32-bit immediate form. The
    /// accumulator short form (`05 id` etc.) is used for `eax` to match
    /// compiler output.
    pub fn alu_ri32(&mut self, op: AluOp, dst: Reg32, imm: i32) {
        if dst == Reg32::Eax {
            self.b(op.encoding() * 8 + 5);
        } else {
            self.b(0x81);
            self.modrm_reg(op.encoding(), dst.encoding());
        }
        self.imm32(imm);
    }

    /// `op al, imm8`.
    pub fn alu_al_imm8(&mut self, op: AluOp, imm: u8) {
        self.b(op.encoding() * 8 + 4);
        self.b(imm);
    }

    /// `op dst, [mem]`.
    pub fn alu_rm(&mut self, op: AluOp, dst: Reg32, mem: Mem) {
        self.b(op.encoding() * 8 + 3);
        self.modrm_mem(dst.encoding(), mem);
    }

    /// `op dst, byte [mem]`.
    pub fn alu_rm8(&mut self, op: AluOp, dst: Reg8, mem: Mem) {
        self.b(op.encoding() * 8 + 2);
        self.modrm_mem(dst.encoding(), mem);
    }

    /// `op [mem], src`.
    pub fn alu_mr(&mut self, op: AluOp, mem: Mem, src: Reg32) {
        self.b(op.encoding() * 8 + 1);
        self.modrm_mem(src.encoding(), mem);
    }

    /// `op dword [mem], imm32`.
    pub fn alu_mi(&mut self, op: AluOp, mem: Mem, imm: i32) {
        if (-128..=127).contains(&imm) {
            self.b(0x83);
            self.modrm_mem(op.encoding(), mem);
            self.b(imm as i8 as u8);
        } else {
            self.b(0x81);
            self.modrm_mem(op.encoding(), mem);
            self.imm32(imm);
        }
    }

    /// `test dst, src` (32-bit).
    pub fn test_rr(&mut self, dst: Reg32, src: Reg32) {
        self.b(0x85);
        self.modrm_reg(src.encoding(), dst.encoding());
    }

    /// `test dst, imm32`.
    pub fn test_ri(&mut self, dst: Reg32, imm: i32) {
        if dst == Reg32::Eax {
            self.b(0xa9);
        } else {
            self.b(0xf7);
            self.modrm_reg(0, dst.encoding());
        }
        self.imm32(imm);
    }

    /// `inc dst`.
    pub fn inc_r(&mut self, dst: Reg32) {
        self.b(0x40 + dst.encoding());
    }

    /// `inc dst` (8-bit).
    pub fn inc_r8(&mut self, dst: Reg8) {
        self.b(0xfe);
        self.modrm_reg(0, dst.encoding());
    }

    /// `dec dst`.
    pub fn dec_r(&mut self, dst: Reg32) {
        self.b(0x48 + dst.encoding());
    }

    /// `inc dword [mem]`.
    pub fn inc_m(&mut self, mem: Mem) {
        self.b(0xff);
        self.modrm_mem(0, mem);
    }

    /// `dec dword [mem]`.
    pub fn dec_m(&mut self, mem: Mem) {
        self.b(0xff);
        self.modrm_mem(1, mem);
    }

    /// `neg dst`.
    pub fn neg_r(&mut self, dst: Reg32) {
        self.b(0xf7);
        self.modrm_reg(3, dst.encoding());
    }

    /// `not dst`.
    pub fn not_r(&mut self, dst: Reg32) {
        self.b(0xf7);
        self.modrm_reg(2, dst.encoding());
    }

    /// `mul src` (unsigned `edx:eax = eax * src`).
    pub fn mul_r(&mut self, src: Reg32) {
        self.b(0xf7);
        self.modrm_reg(4, src.encoding());
    }

    /// `imul dst, src`.
    pub fn imul_rr(&mut self, dst: Reg32, src: Reg32) {
        self.b(0x0f);
        self.b(0xaf);
        self.modrm_reg(dst.encoding(), src.encoding());
    }

    /// `imul dst, src, imm32`.
    pub fn imul_rri(&mut self, dst: Reg32, src: Reg32, imm: i32) {
        self.b(0x69);
        self.modrm_reg(dst.encoding(), src.encoding());
        self.imm32(imm);
    }

    /// `div src` (unsigned `eax = edx:eax / src`).
    pub fn div_r(&mut self, src: Reg32) {
        self.b(0xf7);
        self.modrm_reg(6, src.encoding());
    }

    /// `div dword [mem]`.
    pub fn div_m(&mut self, mem: Mem) {
        self.b(0xf7);
        self.modrm_mem(6, mem);
    }

    /// `idiv src`.
    pub fn idiv_r(&mut self, src: Reg32) {
        self.b(0xf7);
        self.modrm_reg(7, src.encoding());
    }

    /// `cdq`.
    pub fn cdq(&mut self) {
        self.b(0x99);
    }

    /// `shiftop dst, imm8`.
    pub fn shift_ri(&mut self, op: ShiftOp, dst: Reg32, imm: u8) {
        self.b(0xc1);
        self.modrm_reg(op.encoding(), dst.encoding());
        self.b(imm);
    }

    /// `shiftop dst, cl`.
    pub fn shift_r_cl(&mut self, op: ShiftOp, dst: Reg32) {
        self.b(0xd3);
        self.modrm_reg(op.encoding(), dst.encoding());
    }

    // ---- Stack ----------------------------------------------------------

    /// `push src`.
    pub fn push_r(&mut self, src: Reg32) {
        self.b(0x50 + src.encoding());
    }

    /// `pop dst`.
    pub fn pop_r(&mut self, dst: Reg32) {
        self.b(0x58 + dst.encoding());
    }

    /// `push imm32`.
    pub fn push_i(&mut self, imm: i32) {
        self.b(0x68);
        self.imm32(imm);
    }

    /// `push imm32` whose value is the absolute address of `symbol`.
    pub fn push_i_sym(&mut self, symbol: impl Into<String>, addend: i32) {
        self.b(0x68);
        self.sym_relocs.push(SymReloc {
            offset: self.bytes.len(),
            symbol: symbol.into(),
            kind: RelocKind::Abs32,
            addend,
        });
        self.imm32(0);
    }

    /// `push dword [mem]`.
    pub fn push_m(&mut self, mem: Mem) {
        self.b(0xff);
        self.modrm_mem(6, mem);
    }

    /// `pop dword [mem]`.
    pub fn pop_m(&mut self, mem: Mem) {
        self.b(0x8f);
        self.modrm_mem(0, mem);
    }

    /// `pushad`.
    pub fn pushad(&mut self) {
        self.b(0x60);
    }

    /// `popad`.
    pub fn popad(&mut self) {
        self.b(0x61);
    }

    /// `pushfd`.
    pub fn pushfd(&mut self) {
        self.b(0x9c);
    }

    /// `popfd`.
    pub fn popfd(&mut self) {
        self.b(0x9d);
    }

    // ---- Control flow ----------------------------------------------------

    /// `jmp label` (rel32 form).
    pub fn jmp(&mut self, label: Label) {
        self.b(0xe9);
        self.branch_fixup(label, 4);
    }

    /// `jmp label` (rel8 form; errors at `finish` if out of range).
    pub fn jmp_short(&mut self, label: Label) {
        self.b(0xeb);
        self.branch_fixup(label, 1);
    }

    /// `jcc label` (rel32 form).
    pub fn jcc(&mut self, cond: Cond, label: Label) {
        self.b(0x0f);
        self.b(0x80 + cond.encoding());
        self.branch_fixup(label, 4);
    }

    /// `jcc label` (rel8 form).
    pub fn jcc_short(&mut self, cond: Cond, label: Label) {
        self.b(0x70 + cond.encoding());
        self.branch_fixup(label, 1);
    }

    /// `setcc dst`.
    pub fn setcc(&mut self, cond: Cond, dst: Reg8) {
        self.b(0x0f);
        self.b(0x90 + cond.encoding());
        self.modrm_reg(0, dst.encoding());
    }

    /// `cmovcc dst, src`.
    pub fn cmovcc(&mut self, cond: Cond, dst: Reg32, src: Reg32) {
        self.b(0x0f);
        self.b(0x40 + cond.encoding());
        self.modrm_reg(dst.encoding(), src.encoding());
    }

    /// `call label` within the same assembly buffer.
    pub fn call_label(&mut self, label: Label) {
        self.b(0xe8);
        self.branch_fixup(label, 4);
    }

    /// `call symbol` (rel32, resolved by the image layer).
    pub fn call_sym(&mut self, symbol: impl Into<String>) {
        self.b(0xe8);
        self.sym_relocs.push(SymReloc {
            offset: self.bytes.len(),
            symbol: symbol.into(),
            kind: RelocKind::Rel32,
            addend: 0,
        });
        self.imm32(0);
    }

    /// `call reg`.
    pub fn call_r(&mut self, reg: Reg32) {
        self.b(0xff);
        self.modrm_reg(2, reg.encoding());
    }

    /// `jmp reg`.
    pub fn jmp_r(&mut self, reg: Reg32) {
        self.b(0xff);
        self.modrm_reg(4, reg.encoding());
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.b(0xc3);
    }

    /// `ret imm16`.
    pub fn ret_imm(&mut self, n: u16) {
        self.b(0xc2);
        self.bytes.extend_from_slice(&n.to_le_bytes());
    }

    /// `retf`.
    pub fn retf(&mut self) {
        self.b(0xcb);
    }

    /// `leave`.
    pub fn leave(&mut self) {
        self.b(0xc9);
    }

    /// `nop`.
    pub fn nop(&mut self) {
        self.b(0x90);
    }

    /// `int imm8`.
    pub fn int(&mut self, n: u8) {
        self.b(0xcd);
        self.b(n);
    }

    /// `hlt`.
    pub fn hlt(&mut self) {
        self.b(0xf4);
    }

    fn branch_fixup(&mut self, label: Label, width: u8) {
        let at = self.bytes.len();
        for _ in 0..width {
            self.b(0);
        }
        self.label_fixups.push(LabelFixup {
            at,
            width,
            base: self.bytes.len(),
            label,
        });
    }

    /// Resolves all label fixups and returns the final machine code
    /// plus outstanding symbol relocations.
    pub fn finish(mut self) -> Result<Assembled, AsmError> {
        for f in &self.label_fixups {
            let target = self.labels[f.label.0].ok_or(AsmError::UnboundLabel(f.label))?;
            let distance = target as i64 - f.base as i64;
            match f.width {
                1 => {
                    if !(-128..=127).contains(&distance) {
                        return Err(AsmError::ShortBranchOutOfRange { at: f.at, distance });
                    }
                    self.bytes[f.at] = distance as i8 as u8;
                }
                4 => {
                    let d = (distance as i32).to_le_bytes();
                    self.bytes[f.at..f.at + 4].copy_from_slice(&d);
                }
                _ => unreachable!("branch width is 1 or 4"),
            }
        }
        Ok(Assembled {
            bytes: self.bytes,
            relocs: self.sym_relocs,
            markers: self.markers,
        })
    }
}

fn sib_byte(scale: u8, index: u8, base: u8) -> u8 {
    let ss = match scale {
        1 => 0,
        2 => 1,
        4 => 2,
        8 => 3,
        _ => panic!("invalid SIB scale {scale}"),
    };
    (ss << 6) | (index << 3) | base
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;

    fn roundtrip(f: impl FnOnce(&mut Asm), expect: &str) {
        let mut a = Asm::new();
        f(&mut a);
        let out = a.finish().expect("assembles");
        let insn = decode(&out.bytes).expect("decodes");
        assert_eq!(insn.to_string(), expect);
        assert_eq!(insn.len as usize, out.bytes.len(), "full length consumed");
    }

    #[test]
    fn encodes_moves() {
        roundtrip(|a| a.mov_rr(Reg32::Ebp, Reg32::Esp), "mov ebp,esp");
        roundtrip(|a| a.mov_ri(Reg32::Eax, 1), "mov eax,0x1");
        roundtrip(
            |a| a.mov_rm(Reg32::Eax, Mem::base_disp(Reg32::Ebp, -4)),
            "mov eax,[ebp-0x4]",
        );
        roundtrip(
            |a| a.mov_mr(Mem::base(Reg32::Esp), Reg32::Eax),
            "mov [esp],eax",
        );
        roundtrip(
            |a| a.mov_mi(Mem::base_disp(Reg32::Esp, 4), 42),
            "mov [esp+0x4],0x2a",
        );
        roundtrip(|a| a.mov_rr8(Reg8::Al, Reg8::Ch), "mov al,ch");
        roundtrip(|a| a.mov_ri8(Reg8::Bl, 7), "mov bl,0x7");
        roundtrip(
            |a| a.mov_mi8(Mem::base_disp(Reg32::Ecx, 7), 0xc3),
            "mov byte [ecx+0x7],0xc3",
        );
    }

    #[test]
    fn encodes_alu() {
        roundtrip(
            |a| a.alu_rr(AluOp::Add, Reg32::Esi, Reg32::Eax),
            "add esi,eax",
        );
        roundtrip(|a| a.alu_ri(AluOp::Sub, Reg32::Esp, 24), "sub esp,0x18");
        roundtrip(
            |a| a.alu_ri(AluOp::Add, Reg32::Ecx, 0x1000),
            "add ecx,0x1000",
        );
        roundtrip(|a| a.alu_ri32(AluOp::Add, Reg32::Eax, 5), "add eax,0x5");
        roundtrip(|a| a.alu_ri32(AluOp::Xor, Reg32::Ebx, 3), "xor ebx,0x3");
        roundtrip(
            |a| a.alu_rm(AluOp::Xor, Reg32::Edx, Mem::base(Reg32::Eax)),
            "xor edx,[eax]",
        );
        roundtrip(
            |a| a.alu_mr(AluOp::Add, Mem::base(Reg32::Ecx), Reg32::Eax),
            "add [ecx],eax",
        );
        roundtrip(|a| a.alu_rr8(AluOp::Add, Reg8::Bl, Reg8::Ch), "add bl,ch");
        roundtrip(
            |a| a.alu_rm8(AluOp::Add, Reg8::Dl, Mem::base_disp(Reg32::Edi, 3)),
            "add dl,byte [edi+0x3]",
        );
        roundtrip(|a| a.inc_r8(Reg8::Cl), "inc cl");
        roundtrip(|a| a.alu_al_imm8(AluOp::And, 0), "and al,0x0");
        roundtrip(|a| a.test_rr(Reg32::Eax, Reg32::Eax), "test eax,eax");
        roundtrip(|a| a.neg_r(Reg32::Eax), "neg eax");
        roundtrip(|a| a.imul_rr(Reg32::Eax, Reg32::Ebx), "imul eax,ebx");
        roundtrip(
            |a| a.div_m(Mem::base_disp(Reg32::Ebp, -24)),
            "div [ebp-0x18]",
        );
        roundtrip(|a| a.shift_ri(ShiftOp::Sar, Reg32::Eax, 31), "sar eax,0x1f");
        roundtrip(|a| a.shift_r_cl(ShiftOp::Shl, Reg32::Edx), "shl edx,cl");
    }

    #[test]
    fn encodes_stack_and_misc() {
        roundtrip(|a| a.push_r(Reg32::Ebp), "push ebp");
        roundtrip(|a| a.pop_r(Reg32::Esp), "pop esp");
        roundtrip(|a| a.push_i(-1), "push 0xffffffffffffffff");
        roundtrip(|a| a.pushad(), "pushad");
        roundtrip(|a| a.leave(), "leave");
        roundtrip(|a| a.ret(), "ret");
        roundtrip(|a| a.retf(), "retf");
        roundtrip(|a| a.int(0x80), "int 0x80");
        roundtrip(|a| a.setcc(Cond::Ne, Reg8::Al), "setne al");
        roundtrip(
            |a| a.cmovcc(Cond::E, Reg32::Eax, Reg32::Ebx),
            "cmove eax,ebx",
        );
        roundtrip(
            |a| a.lea(Reg32::Eax, Mem::base_disp(Reg32::Esp, 8)),
            "lea eax,[esp+0x8]",
        );
        roundtrip(|a| a.call_r(Reg32::Eax), "call eax");
        roundtrip(|a| a.cdq(), "cdq");
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut a = Asm::new();
        let top = a.here();
        let end = a.label();
        a.jcc(Cond::E, end); // forward
        a.nop();
        a.jmp(top); // backward
        a.bind(end);
        a.ret();
        let out = a.finish().unwrap();
        // jcc e rel32: 0f 84 <rel>. Target = after jmp (offset 12), base = 6.
        assert_eq!(&out.bytes[..2], &[0x0f, 0x84]);
        let rel = i32::from_le_bytes(out.bytes[2..6].try_into().unwrap());
        assert_eq!(rel, 6); // 12 - 6
        let jmp_rel = i32::from_le_bytes(out.bytes[8..12].try_into().unwrap());
        assert_eq!(jmp_rel, -12);
    }

    #[test]
    fn short_branch_range_enforced() {
        let mut a = Asm::new();
        let end = a.label();
        a.jmp_short(end);
        for _ in 0..200 {
            a.nop();
        }
        a.bind(end);
        assert!(matches!(
            a.finish(),
            Err(AsmError::ShortBranchOutOfRange { .. })
        ));
    }

    #[test]
    fn unbound_label_rejected() {
        let mut a = Asm::new();
        let l = a.label();
        a.jmp(l);
        assert!(matches!(a.finish(), Err(AsmError::UnboundLabel(_))));
    }

    #[test]
    fn sym_relocs_recorded() {
        let mut a = Asm::new();
        a.call_sym("check_ptrace");
        a.mov_ri_sym(Reg32::Ebx, "globals", 8);
        let out = a.finish().unwrap();
        assert_eq!(out.relocs.len(), 2);
        assert_eq!(out.relocs[0].kind, RelocKind::Rel32);
        assert_eq!(out.relocs[0].offset, 1);
        assert_eq!(out.relocs[0].symbol, "check_ptrace");
        assert_eq!(out.relocs[1].kind, RelocKind::Abs32);
        assert_eq!(out.relocs[1].addend, 8);
    }

    #[test]
    fn ebp_base_gets_disp8_zero() {
        // [ebp] must encode as mod=01 disp8=0, not mod=00 (which means disp32).
        let mut a = Asm::new();
        a.mov_rm(Reg32::Eax, Mem::base(Reg32::Ebp));
        let out = a.finish().unwrap();
        assert_eq!(out.bytes, vec![0x8b, 0x45, 0x00]);
        let i = decode(&out.bytes).unwrap();
        assert_eq!(i.to_string(), "mov eax,[ebp]");
    }

    #[test]
    fn scaled_index_roundtrip() {
        roundtrip(
            |a| {
                a.mov_rm(
                    Reg32::Eax,
                    Mem {
                        base: Some(Reg32::Ebx),
                        index: Some((Reg32::Esi, 4)),
                        disp: 8,
                    },
                )
            },
            "mov eax,[ebx+esi*4+0x8]",
        );
    }

    #[test]
    fn markers_record_positions() {
        let mut a = Asm::new();
        a.nop();
        a.marker("spot");
        a.ret();
        let out = a.finish().unwrap();
        assert_eq!(out.markers["spot"], 1);
    }
}
