//! Symbolic classification of gadget candidates.
//!
//! Each candidate sequence is interpreted over a small abstract domain
//! that tracks how final register and memory state derives from the
//! initial state and from consumed stack slots. The resulting typed
//! effects are *proposals*; `validate` confirms them by concrete
//! execution before a gadget enters the mapping.

use std::collections::HashMap;

use parallax_x86::insn::{AluOp, Insn, Mem, Mnemonic, OpSize, Operand};
use parallax_x86::{Reg, Reg32, Reg8};

use parallax_vm::{STACK_SIZE, STACK_TOP};

use crate::scan::CandidateRef;
use crate::types::{Effect, GBinOp};
use crate::validate::{probe_registers, DRAW_BASE, DRAW_MASK, PROBE_SYSCALL};

/// Unary operations in the abstract domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnKind {
    /// Two's-complement negate.
    Neg,
    /// Bitwise NOT.
    Not,
}

/// Abstract 32-bit values.
#[derive(Debug, Clone, PartialEq)]
enum V {
    /// Initial value of a register.
    Init(Reg32),
    /// Value of consumed chain stack slot `k`.
    Slot(u32),
    /// A known constant.
    Const(u32),
    /// Initial `esp` plus a byte delta.
    Esp(i32),
    /// Initial memory content at `[base + off]`.
    MemAt(Box<V>, i32),
    /// Binary combination.
    Bin(GBinOp, Box<V>, Box<V>),
    /// 32-bit shift of a value by an 8-bit count.
    Shift(parallax_x86::ShiftOp, Box<V>, Box<V8>),
    /// Unary combination.
    Un(UnKind, Box<V>),
    /// 32-bit value with one byte replaced (bool = high byte).
    Patch8(Box<V>, bool, Box<V8>),
    /// Anything else.
    Unknown,
}

/// Abstract 8-bit values.
#[derive(Debug, Clone, PartialEq)]
enum V8 {
    /// Low byte of a 32-bit value.
    Low(Box<V>),
    /// Second byte of a 32-bit value.
    High(Box<V>),
    /// Known byte constant.
    Const8(u8),
    /// Binary combination of bytes.
    Bin8(GBinOp, Box<V8>, Box<V8>),
    /// Anything else.
    Unknown,
}

/// A recorded non-stack memory write.
#[derive(Debug, Clone)]
struct Write {
    base: Reg32,
    off: i32,
    val: V,
    byte: bool,
}

/// The classification result for one candidate.
#[derive(Debug, Clone)]
pub struct Proposal<'a> {
    /// The candidate this proposal describes.
    pub cand: CandidateRef<'a>,
    /// Stack slots consumed (excluding the return target).
    pub slots: u32,
    /// Proposed typed effects (to be validated concretely).
    pub effects: Vec<Effect>,
    /// Registers changed beyond effect destinations.
    pub clobbers: Vec<Reg32>,
    /// Register bases of incidental memory accesses; these must point
    /// into scratch memory when the gadget executes.
    pub mem_preconditions: Vec<Reg32>,
    /// Every explicit memory operand the classifier resolved, one per
    /// instruction, in instruction order.
    pub accesses: Vec<Access>,
    /// Set when an instruction has a memory operand the classifier does
    /// not resolve (an absolute or scaled `mul [m]`): no entry of
    /// `accesses` records where it lands.
    pub unresolved_access: bool,
    /// What eax holds at the gadget's `int 0x80` instructions.
    pub syscall_eax: SyscallEax,
}

/// The syscall number a gadget's `int 0x80` instructions pass in eax,
/// as far as the classifier can tell from the probe's registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallEax {
    /// The gadget has no `int 0x80`.
    NoInt,
    /// eax reaches every `int 0x80` unchanged from the gadget's start,
    /// where the probe pins it to `time` (13), a syscall that touches
    /// no memory.
    Pinned,
    /// The first `int 0x80` passes this number, computed from constants
    /// and the probe's pinned eax.
    Fixed(u32),
    /// Anything else: a chain slot, another register, memory.
    Unknown,
}

/// Largest `add|sub esp, imm` immediate a layout-independent proposal
/// may use. Six instructions then keep the probe's stack pointer within
/// a few pages of where it started, inside the stack region, whose
/// place never depends on the image.
const STACK_REACH: i64 = 0x1000;

impl Proposal<'_> {
    /// True when the probe's verdict cannot depend on where the image's
    /// text, data and heap sit (DESIGN.md §17): no instruction reaches
    /// VM state beyond memory, except an `int 0x80` the probe pins to
    /// `time`; esp moves only by bounded steps or by the final pivot
    /// the probe lands; and every memory access the classifier
    /// resolved, rooted at esp or at a scratch-precondition register,
    /// lands inside the stack region or wholly at or above `STACK_TOP`.
    /// The probe puts its stack window, its scratch regions and a
    /// pivot's landing in the stack region, which sits at the same
    /// place for every image. Such a verdict is a function of the
    /// candidate's bytes alone, so a relink may reuse it wherever those
    /// bytes now sit (§18).
    pub fn layout_independent(&self) -> bool {
        let regs = probe_registers(self);
        // A pivot's esp write is the instruction before the return
        // (nothing else may follow it), and the probe pins where it
        // lands: every chain slot holds the landing for `PopEsp`, the
        // source holds 64 for `AddEsp`.
        let insns = self.cand.insns();
        let pivot = self
            .effects
            .iter()
            .any(|e| matches!(e, Effect::PopEsp | Effect::AddEsp { .. }))
            .then(|| insns.len() - 2);
        let int_ok = self.syscall_eax == SyscallEax::Pinned;
        !self.unresolved_access
            && self.accesses.iter().all(|a| a.loc.relink_invariant(&regs))
            && insns
                .iter()
                .enumerate()
                .all(|(i, insn)| stack_confined(insn, pivot == Some(i), int_ok))
    }
}

/// The per-instruction half of the rule: no `leave` or `popad`, and an
/// `int` only when `int_ok`; no absolute or indexed memory operand
/// (`lea` touches no memory); esp written only by a push or pop of
/// another register, a return, `add|sub esp, imm`, or the pivot write
/// when `pivot`.
fn stack_confined(insn: &Insn, pivot: bool, int_ok: bool) -> bool {
    use Mnemonic as M;
    let is_esp = |op: &Operand| matches!(op, Operand::Reg(Reg::R32(Reg32::Esp)));
    let dst_esp = insn.ops.first().is_some_and(is_esp);
    let esp_ok = match insn.mnemonic {
        M::Int => int_ok,
        // `popad` pops into esp's slot, even if the value is dropped.
        M::Leave | M::Popad => false,
        _ if pivot => true,
        M::Alu(AluOp::Add | AluOp::Sub) if dst_esp => {
            matches!(insn.ops.get(1), Some(Operand::Imm(v)) if v.abs() <= STACK_REACH)
        }
        M::Alu(AluOp::Cmp) | M::Test => true,
        M::Xchg => !insn.ops.iter().any(is_esp),
        _ => !dst_esp,
    };
    esp_ok
        && (insn.mnemonic == M::Lea
            || insn.ops.iter().all(|op| match op {
                Operand::Mem(m) => m.base.is_some() && m.index.is_none(),
                _ => true,
            }))
}

struct St {
    regs: [V; 8],
    /// Stack contents written by the gadget itself, keyed by byte
    /// offset from the initial esp.
    shadow: HashMap<i32, V>,
    esp_delta: i32,
    /// Set once esp no longer equals `initial + delta`.
    esp_sym: Option<V>,
    max_slot: i32,
    writes: Vec<Write>,
    /// Bases of incidental (non-template) memory reads.
    read_bases: Vec<Reg32>,
    syscall: bool,
    /// eax at the first `int 0x80`.
    int_eax: Option<V>,
    /// Set while every `int 0x80` so far saw the initial eax.
    ints_see_initial_eax: bool,
    dead: bool,
    /// Set when the instruction being interpreted resolved an explicit
    /// memory operand.
    accessed: bool,
    /// The instruction being interpreted, by index in the candidate.
    insn: usize,
    /// The accesses resolved so far ([`Proposal::accesses`]), each with
    /// its root's value when that is a `Patch8`.
    accesses: Vec<(Access, Option<V>)>,
    /// See [`Proposal::unresolved_access`].
    unresolved_access: bool,
}

impl St {
    fn new() -> St {
        St {
            regs: [
                V::Init(Reg32::Eax),
                V::Init(Reg32::Ecx),
                V::Init(Reg32::Edx),
                V::Init(Reg32::Ebx),
                V::Esp(0),
                V::Init(Reg32::Ebp),
                V::Init(Reg32::Esi),
                V::Init(Reg32::Edi),
            ],
            shadow: HashMap::new(),
            esp_delta: 0,
            esp_sym: None,
            max_slot: 0,
            writes: Vec::new(),
            read_bases: Vec::new(),
            syscall: false,
            int_eax: None,
            ints_see_initial_eax: true,
            dead: false,
            accessed: false,
            insn: 0,
            accesses: Vec::new(),
            unresolved_access: false,
        }
    }

    fn reg(&self, r: Reg32) -> V {
        if r == Reg32::Esp {
            match &self.esp_sym {
                Some(v) => v.clone(),
                None => V::Esp(self.esp_delta),
            }
        } else {
            self.regs[r.encoding() as usize].clone()
        }
    }

    fn set_reg(&mut self, r: Reg32, v: V) {
        if r == Reg32::Esp {
            match v {
                V::Esp(d) => {
                    self.esp_delta = d;
                    self.esp_sym = None;
                }
                other => self.esp_sym = Some(other),
            }
        } else {
            self.regs[r.encoding() as usize] = v;
        }
    }

    fn reg8(&self, r: Reg8) -> V8 {
        let parent = self.reg(r.parent());
        byte_of(&parent, r.is_high())
    }

    fn set_reg8(&mut self, r: Reg8, v: V8) {
        let parent = r.parent();
        let old = self.reg(parent);
        // Re-patching the same byte replaces the previous patch, so the
        // representation stays rooted at the original value.
        let base = match old {
            V::Patch8(inner, h, _) if h == r.is_high() => *inner,
            other => other,
        };
        self.set_reg(parent, V::Patch8(Box::new(base), r.is_high(), Box::new(v)));
    }

    fn push(&mut self, v: V) {
        if self.esp_sym.is_some() {
            self.dead = true;
            return;
        }
        self.esp_delta -= 4;
        self.shadow.insert(self.esp_delta, v);
    }

    fn pop(&mut self) -> V {
        if self.esp_sym.is_some() {
            self.dead = true;
            return V::Unknown;
        }
        let off = self.esp_delta;
        self.esp_delta += 4;
        if let Some(v) = self.shadow.remove(&off) {
            return v;
        }
        if off >= 0 && off % 4 == 0 {
            let slot = (off / 4) as u32;
            self.max_slot = self.max_slot.max(off / 4 + 1);
            V::Slot(slot)
        } else {
            V::Unknown
        }
    }

    /// Resolves a memory operand to either a stack offset or a
    /// `(base, off)` pair, or kills the gadget (`None`). Records the
    /// access in [`Proposal::accesses`], once per instruction.
    fn resolve_mem(&mut self, m: &Mem) -> Option<MemLoc> {
        if m.index.is_some() {
            return None; // scaled accesses are not chain-controllable
        }
        let (loc, patch) = match m.base {
            Some(Reg32::Esp) if self.esp_sym.is_none() => {
                (MemLoc::Stack(self.esp_delta + m.disp), None)
            }
            Some(base) => match self.reg(base) {
                V::Esp(d) => (MemLoc::Stack(d + m.disp), None),
                v => {
                    let (r, exact) = root_init(&v)?;
                    (MemLoc::Reg(r, m.disp, exact), (!exact).then_some(v))
                }
            },
            None => return None, // absolute addresses not supported in gadgets
        };
        if !self.accessed {
            let access = Access {
                insn: self.insn,
                loc,
                patched: None,
            };
            self.accesses.push((access, patch));
        }
        self.accessed = true;
        Some(loc)
    }

    fn read_mem(&mut self, m: &Mem, byte: bool) -> Option<V> {
        match self.resolve_mem(m)? {
            MemLoc::Stack(off) => {
                if byte {
                    return Some(V::Unknown);
                }
                if let Some(v) = self.shadow.get(&off) {
                    Some(v.clone())
                } else if off >= 0 && off % 4 == 0 {
                    let slot = (off / 4) as u32;
                    // A read does not consume the slot, but the chain
                    // must still provide it.
                    self.max_slot = self.max_slot.max(off / 4 + 1);
                    Some(V::Slot(slot))
                } else {
                    Some(V::Unknown)
                }
            }
            MemLoc::Reg(base, off, exact) => {
                if !self.read_bases.contains(&base) {
                    self.read_bases.push(base);
                }
                if byte || !exact {
                    Some(V::Unknown)
                } else {
                    Some(V::MemAt(Box::new(V::Init(base)), off))
                }
            }
        }
    }

    fn write_mem(&mut self, m: &Mem, v: V, byte: bool) -> bool {
        match self.resolve_mem(m) {
            Some(MemLoc::Stack(off)) => {
                if byte {
                    return false; // byte-granular stack writes: give up
                }
                self.shadow.insert(off, v);
                true
            }
            Some(MemLoc::Reg(base, off, exact)) => {
                self.writes.push(Write {
                    base,
                    off,
                    val: if exact { v } else { V::Unknown },
                    byte,
                });
                true
            }
            None => false,
        }
    }
}

/// An explicit memory operand the classifier resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The instruction that makes it, by index in the candidate.
    pub insn: usize,
    /// Where it points.
    pub loc: MemLoc,
    /// For a `Patch8` root (`MemLoc::Reg` with `exact` false): the value
    /// the root holds at the access in every probe of the proposal, when
    /// the patched bytes are constants there (`mov al, 0x16`, or `add
    /// al, 8` on a register the probe pins); `None` otherwise.
    pub patched: Option<u32>,
}

impl Access {
    /// The one address this access starts at in every probe whose
    /// initial register file is `regs`: [`MemLoc::starts`]'s single
    /// address for an exact root, the patched value plus the
    /// displacement for a `Patch8` root whose bytes are constants
    /// there, and `None` for any other root.
    pub(crate) fn at(&self, regs: &[Option<u32>; 8]) -> Option<u32> {
        match (self.loc, self.patched) {
            (MemLoc::Reg(_, off, false), patched) => patched.map(|v| v.wrapping_add(off as u32)),
            (loc, _) => match loc.starts(regs) {
                (lo, hi) if lo == hi => Some(lo as u32),
                _ => None,
            },
        }
    }
}

/// Where an explicit memory operand points, in terms of the gadget's
/// initial state: the root (esp or a register), a displacement, and
/// whether the root's value reaches the operand unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLoc {
    /// `[esp + off]`, `off` bytes from the initial stack pointer.
    Stack(i32),
    /// `[reg + off]`; `exact` is false when the register's low bytes
    /// were modified first (address still rooted at the register, so a
    /// scratch precondition suffices, but no template effect applies).
    Reg(Reg32, i32, bool),
}

impl MemLoc {
    /// The addresses this access can start at in a probe whose initial
    /// register file is `regs` (see `validate::probe_registers`): one
    /// for an exact root; the root's whole 64 KiB block for a `Patch8`
    /// one, whose low two bytes the gadget may have replaced; the whole
    /// draw range for a root the probe fills at random. Returned as
    /// `(lo, hi)` with `lo` inside the 32-bit address space and `hi`
    /// past it when the interval wraps past the top, as the probe's
    /// address arithmetic does.
    pub(crate) fn starts(&self, regs: &[Option<u32>; 8]) -> (i64, i64) {
        let (root, off, exact) = match *self {
            MemLoc::Stack(off) => (Reg32::Esp, off, true),
            MemLoc::Reg(r, off, exact) => (r, off, exact),
        };
        let (lo, hi) = match regs[root.encoding() as usize] {
            Some(v) if exact => (i64::from(v), i64::from(v)),
            Some(v) => (i64::from(v & !0xffff), i64::from(v | 0xffff)),
            // Whole 64 KiB blocks: a patched draw stays inside.
            None => (i64::from(DRAW_BASE), i64::from(DRAW_BASE | DRAW_MASK)),
        };
        let lo_wrapped = (lo + i64::from(off)).rem_euclid(1 << 32);
        (lo_wrapped, lo_wrapped + hi - lo)
    }

    /// Whether the probe's access lands where no relink moves anything:
    /// every byte it can touch, up to a dword from each start address,
    /// lies inside the stack region or wholly at or above `STACK_TOP`,
    /// which no image maps. An interval that wraps past the top reaches
    /// address 0 and fails.
    fn relink_invariant(&self, regs: &[Option<u32>; 8]) -> bool {
        let (lo, hi) = self.starts(regs);
        let hi = hi + 3;
        let (bottom, top) = (i64::from(STACK_TOP - STACK_SIZE), i64::from(STACK_TOP));
        hi < 1 << 32 && (lo >= top || (lo >= bottom && hi < top))
    }
}

/// Looks through `Patch8` layers to the underlying initial register.
fn root_init(v: &V) -> Option<(Reg32, bool)> {
    match v {
        V::Init(r) => Some((*r, true)),
        V::Patch8(inner, _, _) => root_init(inner).map(|(r, _)| (r, false)),
        _ => None,
    }
}

fn byte_of(v: &V, high: bool) -> V8 {
    match v {
        V::Patch8(inner, h, b) if *h == high => (**b).clone(),
        V::Patch8(inner, _, _) => byte_of(inner, high),
        V::Const(c) => V8::Const8(if high { (*c >> 8) as u8 } else { *c as u8 }),
        other => {
            if high {
                V8::High(Box::new(other.clone()))
            } else {
                V8::Low(Box::new(other.clone()))
            }
        }
    }
}

fn alu_to_gbin(op: AluOp) -> Option<GBinOp> {
    match op {
        AluOp::Add => Some(GBinOp::Add),
        AluOp::Sub => Some(GBinOp::Sub),
        AluOp::And => Some(GBinOp::And),
        AluOp::Or => Some(GBinOp::Or),
        AluOp::Xor => Some(GBinOp::Xor),
        AluOp::Adc | AluOp::Sbb | AluOp::Cmp => None,
    }
}

fn const_fold(op: GBinOp, a: &V, b: &V) -> V {
    if let (V::Const(x), V::Const(y)) = (a, b) {
        let r = match op {
            GBinOp::Add => x.wrapping_add(*y),
            GBinOp::Sub => x.wrapping_sub(*y),
            GBinOp::And => x & y,
            GBinOp::Or => x | y,
            GBinOp::Xor => x ^ y,
            GBinOp::Imul => x.wrapping_mul(*y),
        };
        return V::Const(r);
    }
    if let (V::Esp(d), V::Const(c)) = (a, b) {
        match op {
            GBinOp::Add => return V::Esp(d + *c as i32),
            GBinOp::Sub => return V::Esp(d - *c as i32),
            _ => {}
        }
    }
    // x ^ x == 0, x - x == 0
    if a == b {
        match op {
            GBinOp::Xor | GBinOp::Sub => return V::Const(0),
            _ => {}
        }
    }
    V::Bin(op, Box::new(a.clone()), Box::new(b.clone()))
}

fn const_fold8(op: GBinOp, a: &V8, b: &V8) -> V8 {
    if let (V8::Const8(x), V8::Const8(y)) = (a, b) {
        let r = match op {
            GBinOp::Add => x.wrapping_add(*y),
            GBinOp::Sub => x.wrapping_sub(*y),
            GBinOp::And => x & y,
            GBinOp::Or => x | y,
            GBinOp::Xor => x ^ y,
            GBinOp::Imul => x.wrapping_mul(*y),
        };
        return V8::Const8(r);
    }
    // AND with 0 is 0 regardless of the other side — this is exactly
    // what makes the paper's `and al,0; ...; add al,ch` gadget a move.
    if op == GBinOp::And && (matches!(a, V8::Const8(0)) || matches!(b, V8::Const8(0))) {
        return V8::Const8(0);
    }
    if a == b {
        match op {
            GBinOp::Xor | GBinOp::Sub => return V8::Const8(0),
            _ => {}
        }
    }
    // 0 + x == x, x + 0 == x, x ^ 0 == x, etc.
    match op {
        GBinOp::Add | GBinOp::Or | GBinOp::Xor => {
            if matches!(a, V8::Const8(0)) {
                return b.clone();
            }
            if matches!(b, V8::Const8(0)) {
                return a.clone();
            }
        }
        _ => {}
    }
    V8::Bin8(op, Box::new(a.clone()), Box::new(b.clone()))
}

/// Interprets one instruction. Returns false if the gadget dies.
fn step(st: &mut St, insn: &Insn) -> bool {
    use Mnemonic as M;

    // After esp becomes symbolic, only the final return may follow.
    if st.esp_sym.is_some() && !insn.is_ret() {
        return false;
    }

    let read_v = |st: &mut St, op: &Operand, size: OpSize| -> Option<V> {
        match op {
            Operand::Reg(Reg::R32(r)) => Some(st.reg(*r)),
            Operand::Reg(Reg::R8(_)) => None, // handled by byte paths
            Operand::Imm(v) => Some(V::Const(*v as u32)),
            Operand::Mem(m) => st.read_mem(m, size == OpSize::Byte),
            Operand::Rel(_) => None,
        }
    };

    match insn.mnemonic {
        M::Nop | M::Clc | M::Stc | M::Cmc => {}
        M::Ret | M::Retf => {} // handled by caller
        M::Mov => {
            let dst = &insn.ops[0];
            let src = &insn.ops[1];
            match insn.size {
                OpSize::Dword => {
                    let v = match read_v(st, src, OpSize::Dword) {
                        Some(v) => v,
                        None => return false,
                    };
                    match dst {
                        Operand::Reg(Reg::R32(r)) => st.set_reg(*r, v),
                        Operand::Mem(m) => {
                            if !st.write_mem(m, v, false) {
                                return false;
                            }
                        }
                        _ => return false,
                    }
                }
                OpSize::Byte => {
                    let v8 = match src {
                        Operand::Reg(Reg::R8(r)) => st.reg8(*r),
                        Operand::Imm(v) => V8::Const8(*v as u8),
                        Operand::Mem(m) => {
                            if st.read_mem(m, true).is_none() {
                                return false;
                            }
                            V8::Unknown
                        }
                        _ => return false,
                    };
                    match dst {
                        Operand::Reg(Reg::R8(r)) => st.set_reg8(*r, v8),
                        Operand::Mem(m) => {
                            // Byte store: record as a write with unknown value
                            // (templates only use dword stores).
                            if !st.write_mem(m, V::Unknown, true) {
                                return false;
                            }
                        }
                        _ => return false,
                    }
                }
            }
        }
        M::Alu(op) => {
            let dst = &insn.ops[0];
            let src = &insn.ops[1];
            match insn.size {
                OpSize::Dword => {
                    let b = match read_v(st, src, OpSize::Dword) {
                        Some(v) => v,
                        None => return false,
                    };
                    match dst {
                        Operand::Reg(Reg::R32(r)) => {
                            if op == AluOp::Cmp {
                                return true;
                            }
                            let a = st.reg(*r);
                            match alu_to_gbin(op) {
                                Some(g) => {
                                    let v = const_fold(g, &a, &b);
                                    st.set_reg(*r, v);
                                }
                                None => st.set_reg(*r, V::Unknown), // adc/sbb
                            }
                        }
                        Operand::Mem(m) => {
                            if op == AluOp::Cmp {
                                // comparison reads memory
                                return st.read_mem(m, false).is_some();
                            }
                            let a = match st.read_mem(m, false) {
                                Some(v) => v,
                                None => return false,
                            };
                            let v = match alu_to_gbin(op) {
                                Some(g) => const_fold(g, &a, &b),
                                None => V::Unknown,
                            };
                            if !st.write_mem(m, v, false) {
                                return false;
                            }
                        }
                        _ => return false,
                    }
                }
                OpSize::Byte => {
                    let b8 = match src {
                        Operand::Reg(Reg::R8(r)) => st.reg8(*r),
                        Operand::Imm(v) => V8::Const8(*v as u8),
                        Operand::Mem(m) => {
                            if st.read_mem(m, true).is_none() {
                                return false;
                            }
                            V8::Unknown
                        }
                        _ => return false,
                    };
                    match dst {
                        Operand::Reg(Reg::R8(r)) => {
                            if op == AluOp::Cmp {
                                return true;
                            }
                            let a8 = st.reg8(*r);
                            let v = match alu_to_gbin(op) {
                                Some(g) => const_fold8(g, &a8, &b8),
                                None => V8::Unknown,
                            };
                            st.set_reg8(*r, v);
                        }
                        Operand::Mem(m) => {
                            if op == AluOp::Cmp {
                                return st.read_mem(m, true).is_some();
                            }
                            // read-modify-write byte in memory
                            if st.read_mem(m, true).is_none() {
                                return false;
                            }
                            if !st.write_mem(m, V::Unknown, true) {
                                return false;
                            }
                        }
                        _ => return false,
                    }
                }
            }
        }
        M::Test => {
            // flags only; memory operands still count as reads
            for op in &insn.ops {
                if let Operand::Mem(m) = op {
                    if st.read_mem(m, insn.size == OpSize::Byte).is_none() {
                        return false;
                    }
                }
            }
        }
        M::Push => {
            let v = match &insn.ops[0] {
                Operand::Reg(Reg::R32(r)) => st.reg(*r),
                Operand::Imm(v) => V::Const(*v as u32),
                Operand::Mem(m) => match st.read_mem(m, false) {
                    Some(v) => v,
                    None => return false,
                },
                _ => return false,
            };
            st.push(v);
        }
        M::Pop => {
            let v = st.pop();
            if st.dead {
                return false;
            }
            match &insn.ops[0] {
                Operand::Reg(Reg::R32(r)) => st.set_reg(*r, v),
                Operand::Mem(m) => {
                    if !st.write_mem(m, v, false) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        M::Inc | M::Dec => {
            let g = if insn.mnemonic == M::Inc {
                GBinOp::Add
            } else {
                GBinOp::Sub
            };
            match (&insn.ops[0], insn.size) {
                (Operand::Reg(Reg::R32(r)), OpSize::Dword) => {
                    let a = st.reg(*r);
                    let v = const_fold(g, &a, &V::Const(1));
                    st.set_reg(*r, v);
                }
                (Operand::Reg(Reg::R8(r)), OpSize::Byte) => {
                    let a = st.reg8(*r);
                    let v = const_fold8(g, &a, &V8::Const8(1));
                    st.set_reg8(*r, v);
                }
                (Operand::Mem(m), _) => {
                    let byte = insn.size == OpSize::Byte;
                    let a = match st.read_mem(m, byte) {
                        Some(v) => v,
                        None => return false,
                    };
                    let v = if byte {
                        V::Unknown
                    } else {
                        const_fold(g, &a, &V::Const(1))
                    };
                    if !st.write_mem(m, v, byte) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        M::Neg | M::Not => {
            let k = if insn.mnemonic == M::Neg {
                UnKind::Neg
            } else {
                UnKind::Not
            };
            match (&insn.ops[0], insn.size) {
                (Operand::Reg(Reg::R32(r)), OpSize::Dword) => {
                    let a = st.reg(*r);
                    st.set_reg(*r, V::Un(k, Box::new(a)));
                }
                (Operand::Reg(Reg::R8(r)), OpSize::Byte) => {
                    st.set_reg8(*r, V8::Unknown);
                }
                (Operand::Mem(m), _) => {
                    let byte = insn.size == OpSize::Byte;
                    if st.read_mem(m, byte).is_none() {
                        return false;
                    }
                    if !st.write_mem(m, V::Unknown, byte) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        M::Xchg => {
            match (&insn.ops[0], &insn.ops[1]) {
                (Operand::Reg(Reg::R32(a)), Operand::Reg(Reg::R32(b))) => {
                    let va = st.reg(*a);
                    let vb = st.reg(*b);
                    st.set_reg(*a, vb);
                    st.set_reg(*b, va);
                }
                _ => return false, // memory xchg: not chain-usable
            }
        }
        M::Imul => match insn.ops.len() {
            2 => {
                if let (Operand::Reg(Reg::R32(d)), src) = (&insn.ops[0], &insn.ops[1]) {
                    let b = match read_v(st, src, OpSize::Dword) {
                        Some(v) => v,
                        None => return false,
                    };
                    let a = st.reg(*d);
                    let v = const_fold(GBinOp::Imul, &a, &b);
                    st.set_reg(*d, v);
                } else {
                    return false;
                }
            }
            3 => {
                if let (Operand::Reg(Reg::R32(d)), src, Operand::Imm(c)) =
                    (&insn.ops[0], &insn.ops[1], &insn.ops[2])
                {
                    let b = match read_v(st, src, OpSize::Dword) {
                        Some(v) => v,
                        None => return false,
                    };
                    let v = const_fold(GBinOp::Imul, &b, &V::Const(*c as u32));
                    st.set_reg(*d, v);
                } else {
                    return false;
                }
            }
            _ => mul_edx_eax(st, insn),
        },
        M::Mul => mul_edx_eax(st, insn),
        M::Div | M::Idiv => return false, // can fault; never chain-usable
        M::Shift(op) => match (&insn.ops[0], insn.size) {
            (Operand::Reg(Reg::R32(r)), OpSize::Dword) => {
                let count = match insn.ops.get(1) {
                    Some(Operand::Imm(v)) => V8::Const8(*v as u8),
                    Some(Operand::Reg(Reg::R8(c))) => st.reg8(*c),
                    _ => V8::Unknown,
                };
                let old = st.reg(*r);
                st.set_reg(*r, V::Shift(op, Box::new(old), Box::new(count)));
            }
            (Operand::Reg(Reg::R8(r)), OpSize::Byte) => st.set_reg8(*r, V8::Unknown),
            (Operand::Mem(m), _) => {
                let byte = insn.size == OpSize::Byte;
                if st.read_mem(m, byte).is_none() {
                    return false;
                }
                if !st.write_mem(m, V::Unknown, byte) {
                    return false;
                }
            }
            _ => return false,
        },
        M::Lea => {
            if let (Operand::Reg(Reg::R32(d)), Operand::Mem(m)) = (&insn.ops[0], &insn.ops[1]) {
                let v = if m.index.is_none() {
                    match m.base {
                        Some(b) => match st.reg(b) {
                            V::Init(r) if m.disp == 0 => V::Init(r),
                            V::Esp(delta) => V::Esp(delta + m.disp),
                            V::Const(c) => V::Const(c.wrapping_add(m.disp as u32)),
                            _ => V::Unknown,
                        },
                        None => V::Const(m.disp as u32),
                    }
                } else {
                    V::Unknown
                };
                st.set_reg(*d, v);
            } else {
                return false;
            }
        }
        M::Movzx | M::Movsx => {
            if let Operand::Reg(Reg::R32(d)) = &insn.ops[0] {
                if let Operand::Mem(m) = &insn.ops[1] {
                    if st.read_mem(m, true).is_none() {
                        return false;
                    }
                }
                st.set_reg(*d, V::Unknown);
            } else {
                return false;
            }
        }
        M::Setcc(_) => match &insn.ops[0] {
            Operand::Reg(Reg::R8(r)) => st.set_reg8(*r, V8::Unknown),
            Operand::Mem(m) => {
                if !st.write_mem(m, V::Unknown, true) {
                    return false;
                }
            }
            _ => return false,
        },
        M::Cmovcc(_) => {
            if let Operand::Reg(Reg::R32(d)) = &insn.ops[0] {
                if let Operand::Mem(m) = &insn.ops[1] {
                    if st.read_mem(m, false).is_none() {
                        return false;
                    }
                }
                st.set_reg(*d, V::Unknown);
            } else {
                return false;
            }
        }
        M::Cwde => st.set_reg(Reg32::Eax, V::Unknown),
        M::Cdq => st.set_reg(Reg32::Edx, V::Unknown),
        M::Pushfd => st.push(V::Unknown),
        M::Popfd => {
            st.pop();
            if st.dead {
                return false;
            }
        }
        M::Pushad => {
            let esp0 = st.reg(Reg32::Esp);
            for r in [
                Reg32::Eax,
                Reg32::Ecx,
                Reg32::Edx,
                Reg32::Ebx,
                Reg32::Esp,
                Reg32::Ebp,
                Reg32::Esi,
                Reg32::Edi,
            ] {
                let v = if r == Reg32::Esp {
                    esp0.clone()
                } else {
                    st.reg(r)
                };
                st.push(v);
            }
        }
        M::Popad => {
            for r in [
                Reg32::Edi,
                Reg32::Esi,
                Reg32::Ebp,
                Reg32::Esp,
                Reg32::Ebx,
                Reg32::Edx,
                Reg32::Ecx,
                Reg32::Eax,
            ] {
                let v = st.pop();
                if st.dead {
                    return false;
                }
                if r != Reg32::Esp {
                    st.set_reg(r, v);
                }
            }
        }
        M::Leave => {
            let ebp = st.reg(Reg32::Ebp);
            st.set_reg(Reg32::Esp, ebp);
            if st.esp_sym.is_some() {
                return false; // esp now points at unknown memory
            }
            let v = st.pop();
            if st.dead {
                return false;
            }
            st.set_reg(Reg32::Ebp, v);
        }
        M::Int => {
            if !matches!(insn.ops.first(), Some(Operand::Imm(0x80))) {
                return false;
            }
            let eax = st.reg(Reg32::Eax);
            st.ints_see_initial_eax &= eax == V::Init(Reg32::Eax);
            st.int_eax.get_or_insert(eax);
            st.syscall = true;
            st.set_reg(Reg32::Eax, V::Unknown);
        }
        M::Int3 | M::Hlt | M::Jmp | M::JmpInd | M::Jcc(_) | M::Call | M::CallInd => return false,
    }
    !st.dead
}

/// The one-operand `mul`/`imul`, which writes edx:eax. Its memory
/// operand is recorded as an access where it resolves, but its root is
/// not a precondition: the probe's register file does not depend on it.
fn mul_edx_eax(st: &mut St, insn: &Insn) {
    if let Some(Operand::Mem(m)) = insn.ops.first() {
        st.resolve_mem(m);
    }
    st.set_reg(Reg32::Eax, V::Unknown);
    st.set_reg(Reg32::Edx, V::Unknown);
}

/// Classifies a candidate into a [`Proposal`], or `None` if it matches
/// no usable pattern. The proposal borrows the candidate's instructions,
/// which live in an owned [`Candidate`](crate::Candidate) or in a
/// decode table.
pub fn classify<'a>(cand: impl Into<CandidateRef<'a>>) -> Option<Proposal<'a>> {
    let cand = cand.into();
    let mut st = St::new();
    let insns = cand.insns();
    for (i, insn) in insns[..insns.len() - 1].iter().enumerate() {
        st.insn = i;
        st.accessed = false;
        if !step(&mut st, insn) {
            return None;
        }
        // A memory operand the interpreter does not resolve (`mul
        // [abs]`) reaches an address no access records.
        if !st.accessed
            && insn.mnemonic != Mnemonic::Lea
            && insn.ops.iter().any(|op| matches!(op, Operand::Mem(_)))
        {
            st.unresolved_access = true;
        }
    }

    let mut effects = Vec::new();
    let mut effect_dsts: Vec<Reg32> = Vec::new();

    // Pivot gadgets: esp replaced by a chain-controlled value.
    if let Some(sym) = &st.esp_sym {
        match sym {
            V::Slot(_) => {
                effects.push(Effect::PopEsp);
            }
            V::Bin(GBinOp::Add, a, b) => {
                let (x, y) = (a.as_ref(), b.as_ref());
                let src = match (x, y) {
                    (V::Esp(_), V::Init(s)) | (V::Init(s), V::Esp(_)) => Some(*s),
                    _ => None,
                };
                match src {
                    Some(s) => effects.push(Effect::AddEsp { src: s }),
                    None => return None,
                }
            }
            _ => return None,
        }
        let slots = st.max_slot.max(0) as u32;
        let clobbers = collect_clobbers(&st, &[]);
        return Some(with_accesses(
            Proposal {
                cand,
                slots,
                effects,
                clobbers,
                mem_preconditions: mem_preconds(&st),
                // No `Syscall` effect, so the probe draws eax.
                syscall_eax: syscall_eax(&st, None),
                accesses: Vec::new(),
                unresolved_access: st.unresolved_access,
            },
            st.accesses,
        ));
    }

    // Normal gadgets: esp must be at a non-negative, aligned delta, and
    // the return slot must not have been written by the gadget itself.
    if st.esp_delta < 0 || st.esp_delta % 4 != 0 || st.shadow.contains_key(&st.esp_delta) {
        return None;
    }
    let slots = (st.esp_delta / 4) as u32;
    if (st.max_slot as u32) > slots {
        // The gadget peeked at slots beyond those it consumes; the ret
        // target would overlap a data slot. Not chain-usable.
        return None;
    }

    if st.syscall {
        effects.push(Effect::Syscall);
        // The syscall's result register belongs to the effect.
        effect_dsts.push(Reg32::Eax);
    }

    // Register effects.
    for r in Reg32::ALL {
        if r == Reg32::Esp {
            continue;
        }
        let v = st.reg(r);
        match &v {
            V::Init(s) if *s == r => continue, // unchanged
            V::Slot(k) => {
                effects.push(Effect::LoadConst { dst: r, slot: *k });
                effect_dsts.push(r);
            }
            V::Init(s) => {
                effects.push(Effect::MovReg { dst: r, src: *s });
                effect_dsts.push(r);
            }
            V::Bin(op, a, b) => {
                let matched = match (a.as_ref(), b.as_ref()) {
                    (V::Init(x), V::Init(y)) if *x == r => Some((*op, *y)),
                    (V::Init(x), V::Init(y)) if *y == r && op.commutes() => Some((*op, *x)),
                    _ => None,
                };
                if let Some((op, src)) = matched {
                    if src != r {
                        effects.push(Effect::Binary { op, dst: r, src });
                        effect_dsts.push(r);
                    }
                }
            }
            V::Un(k, a) => {
                if let V::Init(x) = a.as_ref() {
                    if *x == r {
                        match k {
                            UnKind::Neg => effects.push(Effect::Neg { dst: r }),
                            UnKind::Not => effects.push(Effect::Not { dst: r }),
                        }
                        effect_dsts.push(r);
                    }
                }
            }
            V::Shift(op, a, count) => {
                if let (V::Init(x), V8::Low(c)) = (a.as_ref(), count.as_ref()) {
                    if *x == r {
                        if let V::Init(Reg32::Ecx) = c.as_ref() {
                            effects.push(Effect::ShiftCl { op: *op, dst: r });
                            effect_dsts.push(r);
                        }
                    }
                }
            }
            V::MemAt(base, off) => {
                // dst == addr is fine (e.g. `mov ecx,[ecx]`): the load
                // consumes the address register.
                if let V::Init(a) = base.as_ref() {
                    effects.push(Effect::LoadMem {
                        dst: r,
                        addr: *a,
                        off: *off,
                    });
                    effect_dsts.push(r);
                }
            }
            V::Patch8(inner, high, b8)
                // Only low-byte patches with the rest preserved.
                if !*high => {
                    if let V::Init(x) = inner.as_ref() {
                        if *x == r {
                            let dst8 = Reg8::from_encoding(r.encoding());
                            match b8.as_ref() {
                                V8::Low(src) => {
                                    if let V::Init(s) = src.as_ref() {
                                        effects.push(Effect::MovLow8 {
                                            dst: dst8,
                                            src: Reg8::from_encoding(s.encoding()),
                                        });
                                        effect_dsts.push(r);
                                    }
                                }
                                V8::High(src) => {
                                    if let V::Init(s) = src.as_ref() {
                                        effects.push(Effect::MovLow8 {
                                            dst: dst8,
                                            src: Reg8::from_encoding(s.encoding() + 4),
                                        });
                                        effect_dsts.push(r);
                                    }
                                }
                                _ => {}
                            }
                        }
                    }
                }
            _ => {}
        }
    }

    // Memory-write effects. A word holds at the return what the last
    // write to it put there, so a write that a later one through the
    // same base overlaps claims nothing. A proposal left without effects
    // that way is no `Nop` either: it never was one.
    let mut overwritten = false;
    let len = |w: &Write| if w.byte { 1 } else { 4 };
    for (i, w) in st.writes.iter().enumerate() {
        let Some(e) = write_effect(w) else {
            continue;
        };
        if st.writes[i + 1..]
            .iter()
            .any(|l| l.base == w.base && l.off < w.off + len(w) && w.off < l.off + len(l))
        {
            overwritten = true;
            continue;
        }
        effects.push(e);
    }

    if effects.is_empty() && !overwritten {
        // A gadget with no typed computation still *verifies its bytes*
        // when placed in a chain: classify it as a NOP. Its clobber
        // list tells the chain compiler which registers must be dead at
        // the point of use (incidental memory writes are covered by the
        // scratch preconditions). This is what makes ret-bytes crafted
        // by the jump-offset rule usable protection even when the
        // preceding fixed bytes decode to arbitrary harmless junk.
        effects.push(Effect::Nop);
    }

    let clobbers = collect_clobbers(&st, &effect_dsts);
    Some(with_accesses(
        Proposal {
            cand,
            slots,
            effects,
            clobbers,
            mem_preconditions: mem_preconds(&st),
            // Any `int 0x80` made a `Syscall` effect: the probe pins eax.
            syscall_eax: syscall_eax(&st, Some(PROBE_SYSCALL)),
            accesses: Vec::new(),
            unresolved_access: st.unresolved_access,
        },
        st.accesses,
    ))
}

/// `p` with its accesses, each `Patch8` root's value evaluated in the
/// register file every probe of `p` starts from ([`probe_registers`],
/// which does not read the accesses).
fn with_accesses<'a>(mut p: Proposal<'a>, accesses: Vec<(Access, Option<V>)>) -> Proposal<'a> {
    let regs = probe_registers(&p);
    p.accesses = accesses
        .into_iter()
        .map(|(a, patch)| Access {
            patched: patch.and_then(|v| eval(&v, &regs)),
            ..a
        })
        .collect();
    p
}

/// The effect a dword write claims: a store of an initial register, or
/// an add of one into the word.
fn write_effect(w: &Write) -> Option<Effect> {
    if w.byte {
        return None;
    }
    match &w.val {
        V::Init(s) => Some(Effect::StoreMem {
            addr: w.base,
            off: w.off,
            src: *s,
        }),
        V::Bin(GBinOp::Add, a, b) => {
            let m = V::MemAt(Box::new(V::Init(w.base)), w.off);
            let src = match (a.as_ref(), b.as_ref()) {
                (x, V::Init(s)) if *x == m => *s,
                (V::Init(s), y) if *y == m => *s,
                _ => return None,
            };
            Some(Effect::AddMem {
                addr: w.base,
                off: w.off,
                src,
            })
        }
        _ => None,
    }
}

/// [`Proposal::syscall_eax`] for a probe that starts eax at `eax0`
/// (`None` when it draws eax at random).
fn syscall_eax(st: &St, eax0: Option<u32>) -> SyscallEax {
    let mut regs = [None; 8];
    regs[Reg32::Eax.encoding() as usize] = eax0;
    match &st.int_eax {
        None => SyscallEax::NoInt,
        Some(_) if st.ints_see_initial_eax && eax0.is_some() => SyscallEax::Pinned,
        Some(v) => eval(v, &regs).map_or(SyscallEax::Unknown, SyscallEax::Fixed),
    }
}

/// The concrete value of `v` in a state whose registers start at
/// `regs` (by encoding; `None` where a register is not a constant),
/// when `v` depends on nothing else.
fn eval(v: &V, regs: &[Option<u32>; 8]) -> Option<u32> {
    match v {
        V::Init(r) => regs[r.encoding() as usize],
        V::Const(c) => Some(*c),
        // Two constants fold to a constant.
        V::Bin(op, a, b) => {
            match const_fold(*op, &V::Const(eval(a, regs)?), &V::Const(eval(b, regs)?)) {
                V::Const(c) => Some(c),
                _ => None,
            }
        }
        V::Un(UnKind::Neg, a) => eval(a, regs).map(u32::wrapping_neg),
        V::Un(UnKind::Not, a) => eval(a, regs).map(|x| !x),
        V::Patch8(inner, high, b) => {
            let shift = if *high { 8 } else { 0 };
            let byte = eval8(b, regs)?;
            Some(eval(inner, regs)? & !(0xff << shift) | u32::from(byte) << shift)
        }
        _ => None,
    }
}

/// [`eval`] for a byte.
fn eval8(v: &V8, regs: &[Option<u32>; 8]) -> Option<u8> {
    match v {
        V8::Const8(c) => Some(*c),
        V8::Low(a) => eval(a, regs).map(|x| x as u8),
        V8::High(a) => eval(a, regs).map(|x| (x >> 8) as u8),
        V8::Bin8(op, a, b) => {
            match const_fold8(
                *op,
                &V8::Const8(eval8(a, regs)?),
                &V8::Const8(eval8(b, regs)?),
            ) {
                V8::Const8(c) => Some(c),
                _ => None,
            }
        }
        V8::Unknown => None,
    }
}

fn collect_clobbers(st: &St, effect_dsts: &[Reg32]) -> Vec<Reg32> {
    let mut out = Vec::new();
    for r in Reg32::ALL {
        if r == Reg32::Esp || effect_dsts.contains(&r) {
            continue;
        }
        if st.reg(r) != V::Init(r) {
            out.push(r);
        }
    }
    out
}

fn mem_preconds(st: &St) -> Vec<Reg32> {
    let mut out: Vec<Reg32> = st.read_bases.clone();
    for w in &st.writes {
        if !out.contains(&w.base) {
            out.push(w.base);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{scan, Candidate};

    /// The proposals of every candidate in `bytes`. They borrow the
    /// candidates, which live to the end of the test run.
    fn classify_bytes(bytes: &[u8]) -> Vec<Proposal<'static>> {
        scan(bytes, 0x1000)
            .leak()
            .iter()
            .filter_map(classify)
            .collect()
    }

    fn find_effect(props: &[Proposal], pred: impl Fn(&Effect) -> bool) -> bool {
        props.iter().any(|p| p.effects.iter().any(&pred))
    }

    #[test]
    fn pop_ret_is_load_const() {
        let props = classify_bytes(&[0x58, 0xc3]); // pop eax; ret
        assert!(find_effect(&props, |e| matches!(
            e,
            Effect::LoadConst {
                dst: Reg32::Eax,
                slot: 0
            }
        )));
        let p = props
            .iter()
            .find(|p| p.cand.disasm() == "pop eax; ret")
            .unwrap();
        assert_eq!(p.slots, 1);
        assert!(p.clobbers.is_empty());
    }

    #[test]
    fn add_reg_ret_is_binary() {
        let props = classify_bytes(&[0x01, 0xc6, 0xc3]); // add esi,eax; ret
        assert!(find_effect(&props, |e| matches!(
            e,
            Effect::Binary {
                op: GBinOp::Add,
                dst: Reg32::Esi,
                src: Reg32::Eax
            }
        )));
    }

    #[test]
    fn mov_reg_ret() {
        let props = classify_bytes(&[0x89, 0xc8, 0xc3]); // mov eax,ecx; ret
        assert!(find_effect(&props, |e| matches!(
            e,
            Effect::MovReg {
                dst: Reg32::Eax,
                src: Reg32::Ecx
            }
        )));
    }

    #[test]
    fn load_store_mem() {
        // mov eax,[ecx]; ret
        let props = classify_bytes(&[0x8b, 0x01, 0xc3]);
        assert!(find_effect(&props, |e| matches!(
            e,
            Effect::LoadMem {
                dst: Reg32::Eax,
                addr: Reg32::Ecx,
                off: 0
            }
        )));
        // mov [ecx],eax; ret
        let props = classify_bytes(&[0x89, 0x01, 0xc3]);
        assert!(find_effect(&props, |e| matches!(
            e,
            Effect::StoreMem {
                addr: Reg32::Ecx,
                off: 0,
                src: Reg32::Eax
            }
        )));
        // add [ecx],eax; ret — store-through-add (§IV-B6)
        let props = classify_bytes(&[0x01, 0x01, 0xc3]);
        assert!(find_effect(&props, |e| matches!(
            e,
            Effect::AddMem {
                addr: Reg32::Ecx,
                off: 0,
                src: Reg32::Eax
            }
        )));
    }

    #[test]
    fn pop_esp_is_pivot() {
        let props = classify_bytes(&[0x5c, 0xc3]); // pop esp; ret
        assert!(find_effect(&props, |e| matches!(e, Effect::PopEsp)));
    }

    #[test]
    fn papers_retf_gadget_is_mov_low8() {
        // and al,0; add [eax],al; add al,ch; retf
        let bytes = [0x24, 0x00, 0x00, 0x00, 0x00, 0xe8, 0xcb];
        let props = classify_bytes(&bytes);
        let p = props
            .iter()
            .find(|p| p.cand.vaddr == 0x1000 && p.cand.far)
            .expect("full gadget classified");
        assert!(p.effects.iter().any(|e| matches!(
            e,
            Effect::MovLow8 {
                dst: Reg8::Al,
                src: Reg8::Ch
            }
        )));
        // The incidental [eax] write demands eax point at scratch.
        assert_eq!(p.mem_preconditions, vec![Reg32::Eax]);
    }

    #[test]
    fn papers_add_bl_ch_gadget() {
        // add bl,ch; ret (encoded 00 eb c3)
        let props = classify_bytes(&[0x00, 0xeb, 0xc3]);
        // bl = bl + ch: a byte-level binary op — kept as a patch the
        // 32-bit templates don't cover, so the only effect-bearing
        // proposal is from the bare ret; the full candidate is dropped.
        // It still counts as a *potential* gadget site for coverage
        // purposes (tested in the rewrite crate).
        assert!(props.iter().any(|p| p.cand.insns().len() == 1));
    }

    #[test]
    fn junk_pops_are_tracked_as_slots_and_clobbers() {
        // pop ecx; pop eax; ret: LoadConst eax from slot 1, ecx clobbered
        // (also LoadConst ecx from slot 0).
        let props = classify_bytes(&[0x59, 0x58, 0xc3]);
        let p = props
            .iter()
            .find(|p| p.cand.disasm() == "pop ecx; pop eax; ret")
            .unwrap();
        assert_eq!(p.slots, 2);
        assert!(p.effects.iter().any(|e| matches!(
            e,
            Effect::LoadConst {
                dst: Reg32::Eax,
                slot: 1
            }
        )));
        assert!(p.effects.iter().any(|e| matches!(
            e,
            Effect::LoadConst {
                dst: Reg32::Ecx,
                slot: 0
            }
        )));
    }

    #[test]
    fn xor_self_is_not_misclassified() {
        // xor eax,eax; ret — eax becomes Const(0), not Init: no 32-bit
        // template match, and eax is a clobber → unusable (except the
        // bare ret nop).
        let props = classify_bytes(&[0x31, 0xc0, 0xc3]);
        assert!(!find_effect(&props, |e| matches!(
            e,
            Effect::MovReg { .. } | Effect::Binary { .. }
        )));
    }

    #[test]
    fn push_then_ret_to_own_value_rejected() {
        // push eax; ret — returns to eax, not chain-controlled.
        let props = classify_bytes(&[0x50, 0xc3]);
        assert!(props.iter().all(|p| p.cand.disasm() != "push eax; ret"));
    }

    #[test]
    fn syscall_gadget() {
        let props = classify_bytes(&[0xcd, 0x80, 0xc3]); // int 0x80; ret
        assert!(find_effect(&props, |e| matches!(e, Effect::Syscall)));
    }

    #[test]
    fn bare_ret_is_nop() {
        let props = classify_bytes(&[0xc3]);
        assert!(find_effect(&props, |e| matches!(e, Effect::Nop)));
    }

    /// The proposal for the whole of `bytes` (which must end in a
    /// return). Sequences the classifier drops get a bare proposal with
    /// no preconditions and no resolved access, so the instruction rule
    /// is what gets judged.
    fn whole(bytes: &[u8]) -> Proposal<'static> {
        let cand = scan(bytes, 0x1000)
            .into_iter()
            .find(|c| c.vaddr == 0x1000 && c.len as usize == bytes.len())
            .expect("whole sequence is a candidate");
        let cand: &'static Candidate = Box::leak(Box::new(cand));
        classify(cand).unwrap_or(Proposal {
            cand: cand.into(),
            slots: 0,
            effects: Vec::new(),
            clobbers: Vec::new(),
            mem_preconditions: Vec::new(),
            accesses: Vec::new(),
            unresolved_access: false,
            syscall_eax: SyscallEax::NoInt,
        })
    }

    #[test]
    fn layout_dependent_proposals() {
        for (bytes, what) in [
            (&[0x5d, 0xc9, 0xc3][..], "pop ebp; leave; ret"),
            (&[0x89, 0xe5, 0xc9, 0xc3], "mov ebp, esp; leave; ret"),
            (
                &[0x8b, 0x81, 0x00, 0x00, 0x00, 0xfd, 0xc3],
                "mov eax, [ecx-0x03000000]; ret",
            ),
            (
                &[0x8b, 0x81, 0x00, 0x00, 0xfe, 0xff, 0xc3],
                "mov eax, [ecx-0x20000]; ret",
            ),
            (
                &[0x8b, 0x05, 0x00, 0xa0, 0x04, 0x08, 0xc3],
                "mov eax, [0x0804a000]; ret",
            ),
            (&[0x8b, 0x04, 0x88, 0xc3], "mov eax, [eax+ecx*4]; ret"),
            (
                &[0xf7, 0x25, 0x00, 0xa0, 0x04, 0x08, 0xc3],
                "mul [0x0804a000]; ret",
            ),
            // eax changes before the `int`, so the probe's pin does not
            // reach it.
            (&[0x58, 0xcd, 0x80, 0xc3], "pop eax; int 0x80; ret"),
            (
                &[0x83, 0xc0, 0x04, 0xcd, 0x80, 0xc3],
                "add eax, 4; int 0x80; ret",
            ),
            // A pivot has no `Syscall` effect: the probe draws eax.
            (&[0xcd, 0x80, 0x5c, 0xc3], "int 0x80; pop esp; ret"),
            // The pivot write is exempt, the absolute operand is not.
            (
                &[0xf7, 0x25, 0x00, 0xa0, 0x04, 0x08, 0x5c, 0xc3],
                "mul [0x0804a000]; pop esp; ret",
            ),
            (&[0x61, 0xc3], "popad; ret"),
            (
                &[0x8b, 0x84, 0x24, 0x00, 0x00, 0xfc, 0xff, 0xc3],
                "mov eax, [esp-0x40000]; ret",
            ),
        ] {
            assert!(!whole(bytes).layout_independent(), "{what}");
        }
    }

    #[test]
    fn layout_independent_proposals() {
        for (bytes, what) in [
            (&[0x58, 0xc3][..], "pop eax; ret"),
            (&[0x01, 0xd8, 0xc3], "add eax, ebx; ret"),
            (&[0x8b, 0x44, 0x24, 0x04, 0xc3], "mov eax, [esp+4]; ret"),
            (&[0x83, 0xc4, 0x08, 0xc3], "add esp, 8; ret"),
            (&[0x00, 0x00, 0xc3], "add [eax], al; ret"),
            (
                &[0x39, 0x81, 0x00, 0xd0, 0xff, 0xff, 0xc3],
                "cmp [ecx-0x3000], eax; ret",
            ),
            // The bytes before every `__plx_stdset` gadget decode as an
            // access far above the stack, which no image maps.
            (
                &[0x01, 0x83, 0x45, 0xfc, 0x50, 0xb8, 0x59, 0xc3],
                "add [ebx-0x47af03bb], eax; pop ecx; ret",
            ),
            // `mov ah` moves eax within its scratch block.
            (
                &[0xb4, 0x16, 0x00, 0x00, 0x83, 0xc4, 0x04, 0xc3],
                "mov ah, 0x16; add [eax], al; add esp, 4; ret",
            ),
            (
                &[0x8b, 0x84, 0x24, 0x00, 0x30, 0x00, 0x00, 0xc3],
                "mov eax, [esp+0x3000]; ret",
            ),
            // The probe pins eax to `time`, which touches no memory.
            (&[0xcd, 0x80, 0xc3], "int 0x80; ret"),
            (&[0xcd, 0x80, 0xcb], "int 0x80; retf"),
            // The probe pins where a pivot lands: every chain slot holds
            // the landing, an `add esp` source holds 64.
            (&[0x5c, 0xc3], "pop esp; ret"),
            (&[0x5c, 0xcb], "pop esp; retf"),
            (&[0x01, 0xc4, 0xc3], "add esp, eax; ret"),
            (
                &[0x8b, 0x44, 0x24, 0x24, 0x89, 0xc4, 0xc3],
                "mov eax, [esp+0x24]; mov esp, eax; ret",
            ),
            (&[0x58, 0x94, 0xc3], "pop eax; xchg eax, esp; ret"),
        ] {
            let p = whole(bytes);
            assert!(p.layout_independent(), "{what}: {}", p.cand.disasm());
        }
    }

    /// A store that a later write to the same word changes is not
    /// claimed, and its proposal does not turn into a `Nop`: `mov
    /// [ebx],ecx; adc dword [ebx],0` leaves `ecx + CF` there, which a
    /// probe whose carry was 0 in both trials would pass as `[ebx] = ecx`.
    #[test]
    fn an_overwritten_store_is_not_claimed() {
        use crate::validate::{legacy, validate};
        use parallax_image::Program;
        for imm in 0..256u32 {
            let mut bytes = vec![0xbe]; // mov esi, imm
            bytes.extend_from_slice(&imm.wrapping_mul(0x0101_0101).to_le_bytes());
            bytes.extend_from_slice(&[0x89, 0x0b, 0x83, 0x13, 0x00, 0xc3]);
            let mut a = parallax_x86::Asm::new();
            a.db(&bytes);
            let mut prog = Program::new();
            prog.add_func("main", a.finish().unwrap());
            prog.set_entry("main");
            let img = prog.link().unwrap();
            let cand = scan(&img.text, img.text_base)
                .into_iter()
                .find(|c| c.vaddr == img.entry && c.len as usize == bytes.len())
                .expect("main is one candidate");
            let p = classify(&cand).expect("classified");
            assert!(p.effects.is_empty(), "{}: {:?}", cand.disasm(), p.effects);
            assert!(validate(&img, &p).is_none() && legacy::validate(&img, &p).is_none());
        }
        // A write that does not overlap the stored word leaves it claimed.
        let p = whole(&[0x89, 0x0b, 0x83, 0x53, 0x04, 0x00, 0xc3]);
        assert!(p.effects.contains(&Effect::StoreMem {
            addr: Reg32::Ebx,
            off: 0,
            src: Reg32::Ecx
        }));
    }

    /// The number a syscall gadget's first `int 0x80` passes, from the
    /// probe's pinned eax of 13.
    #[test]
    fn syscall_numbers_follow_the_pinned_eax() {
        for (bytes, want) in [
            (&[0x90, 0xc3][..], SyscallEax::NoInt),
            (&[0xcd, 0x80, 0xc3], SyscallEax::Pinned),
            (&[0x83, 0xc0, 0x04, 0xcd, 0x80, 0xc3], SyscallEax::Fixed(17)),
            // add eax, 0xc3b85008
            (
                &[0x05, 0x08, 0x50, 0xb8, 0xc3, 0xcd, 0x80, 0xc3],
                SyscallEax::Fixed(0xc3b8_5015),
            ),
            (&[0x31, 0xc0, 0xcd, 0x80, 0xc3], SyscallEax::Fixed(0)),
            (&[0xb0, 0x04, 0xcd, 0x80, 0xc3], SyscallEax::Fixed(4)),
            (&[0x58, 0xcd, 0x80, 0xc3], SyscallEax::Unknown),
            (&[0x93, 0xcd, 0x80, 0xc3], SyscallEax::Unknown),
            (&[0xcd, 0x80, 0x5c, 0xc3], SyscallEax::Unknown),
        ] {
            let p = whole(bytes);
            assert_eq!(p.syscall_eax, want, "{}", p.cand.disasm());
        }
    }

    /// The rule reads the classifier's own address, not the operand:
    /// a copy of esp, or a register whose low byte was replaced, still
    /// roots the access.
    #[test]
    fn accesses_are_judged_by_their_root() {
        // mov ebp, esp; mov eax, [ebp+4]; ret
        let p = whole(&[0x89, 0xe5, 0x8b, 0x45, 0x04, 0xc3]);
        assert!(p.mem_preconditions.is_empty());
        assert!(p.layout_independent(), "{}", p.cand.disasm());
        // mov ah, 0x16; add [eax], al; add esp, 4; ret
        let p = whole(&[0xb4, 0x16, 0x00, 0x00, 0x83, 0xc4, 0x04, 0xc3]);
        assert_eq!(p.mem_preconditions, vec![Reg32::Eax]);
        assert!(p.effects.contains(&Effect::Nop));
        assert!(p.layout_independent());
        // The same displacement from an exact and from a patched root:
        // `[eax-0x10800]` stays in the stack region, but the patched
        // eax may sit anywhere in its 64 KiB block, and the block's
        // bottom minus 0x10800 lies below the region.
        let p = whole(&[0x8b, 0x80, 0x00, 0xf8, 0xfe, 0xff, 0xc3]);
        assert!(p.layout_independent(), "{}", p.cand.disasm());
        let p = whole(&[0xb0, 0x16, 0x8b, 0x80, 0x00, 0xf8, 0xfe, 0xff, 0xc3]);
        assert_eq!(p.mem_preconditions, vec![Reg32::Eax]);
        assert!(!p.layout_independent(), "{}", p.cand.disasm());
        // A patched block shifted to straddle address 0 wraps from the
        // top of the address space into the image's range.
        let p = whole(&[0xb0, 0x16, 0x8b, 0x80, 0x00, 0x80, 0x02, 0xf4, 0xc3]);
        assert!(!p.layout_independent(), "{}", p.cand.disasm());
    }
}
