//! Predecoded basic blocks and the block-translation cache.
//!
//! Instead of decoding (or probing a `HashMap` of decoded instructions)
//! once per retired instruction, the VM predecodes each straight-line
//! run — from an entry `eip` up to and including the next control
//! transfer — into a flat [`Block`] and caches it in a direct-mapped,
//! array-indexed [`BlockCache`]. Execution then walks the block's `Vec`
//! with no per-instruction map lookups or `Rc` clones.
//!
//! Invalidation is *range-based*: a code write (icache patch, debugger
//! patch, or an in-VM store to text with W⊕X disabled) evicts exactly
//! the blocks whose byte span overlaps the written range. Data writes
//! evict nothing. This preserves tamper semantics — a patched gadget
//! byte is observed on the next entry of any block covering it — while
//! leaving the rest of the cache hot.
//!
//! Each predecoded instruction also carries a [`FastOp`]: a
//! pre-extracted micro-op for the forms that dominate execution (`ret`,
//! `pop`/`push`, `mov`/ALU on dword registers, `movzx`, `setcc`,
//! direct branches and calls). These skip operand-`Vec` matching and
//! the memory-operand cost scan entirely; everything else takes the
//! full [`Insn`] interpreter, so semantics, cycle costs, and tracing
//! hooks stay bit-identical either way.
//!
//! A block also carries what lets the engine run it as one unit: an
//! upper bound on its cycle cost, so one check at entry can stand for
//! the per-instruction cycle-limit checks; each instruction's profile
//! slot, resolved once here, so a block inside one function is charged
//! with a single profile entry; and the fixed cycle costs of its fast
//! ops, summed once here, so the engine need not add them op by op
//! (DESIGN.md §10).

use std::rc::Rc;

use parallax_x86::insn::{AluOp, Cond, Insn, Mem, Mnemonic, OpSize, Operand, ShiftOp};
use parallax_x86::{decode, Reg, Reg32, Reg8};

use crate::cost::CostModel;
use crate::error::{Fault, FaultKind};
use crate::mem::Memory;
use crate::profile::{Profiler, NO_FUNC};

/// Maximum instructions predecoded into a single block. Bounds the
/// work wasted when a block is invalidated or its tail never runs.
pub const MAX_BLOCK_INSNS: usize = 64;

/// Slot count of the direct-mapped block cache (a power of two).
pub const BLOCK_CACHE_SLOTS: usize = 4096;

/// Counters for the block-translation cache, exposed through
/// `Vm::block_stats` and exported as `vm.block.*` trace counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Block lookups served from the cache.
    pub hits: u64,
    /// Lookups that predecoded a fresh block.
    pub misses: u64,
    /// Blocks evicted because a code write overlapped their span.
    pub invalidated: u64,
    /// Instructions predecoded into the blocks the misses built.
    pub decoded: u64,
    /// Generic blocks run on the per-instruction checked path: those
    /// that could reach the cycle limit, straddle two functions, or run
    /// with W⊕X off. Every other generic block runs at its precomputed
    /// cost.
    pub checked: u64,
}

/// Pre-extracted micro-op for the hottest instruction forms. `Slow`
/// routes through the full `Insn` interpreter.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FastOp {
    /// Plain near `ret` (no stack-release immediate).
    Ret,
    /// `pop r32`.
    PopR(Reg32),
    /// `push r32`.
    PushR(Reg32),
    /// `push imm32`.
    PushI(u32),
    /// `mov r32, imm32`.
    MovRI(Reg32, u32),
    /// `mov r32, r32`.
    MovRR(Reg32, Reg32),
    /// Dword group-1 ALU `op r32, r32`.
    AluRR(AluOp, Reg32, Reg32),
    /// Dword group-1 ALU `op r32, imm32`.
    AluRI(AluOp, Reg32, u32),
    /// `mov r32, [base + disp]` (dword load, no index register).
    LoadRM(Reg32, Option<Reg32>, i32),
    /// `mov [base + disp], r32` (dword store, no index register).
    StoreMR(Option<Reg32>, i32, Reg32),
    /// `mov [base + index*scale + disp], r32` (indexed dword store).
    StoreIdx(Mem, Reg32),
    /// `mov byte [mem], r8`.
    StoreB(Mem, Reg8),
    /// `lea r32, [mem]` — address arithmetic only, never touches
    /// memory (and pays no memory-cycle cost, matching `exec_insn`'s
    /// explicit `Lea` cost exemption).
    LeaRM(Reg32, Mem),
    /// `xchg r32, r32`.
    XchgRR(Reg32, Reg32),
    /// `test r32, r32` — flags only, no writeback.
    TestRR(Reg32, Reg32),
    /// `test r32, imm32` — flags only, no writeback.
    TestRI(Reg32, u32),
    /// `push dword [mem]`.
    PushM(Mem),
    /// `pop dword [mem]`.
    PopM(Mem),
    /// `movzx r32, r8`.
    MovzxRR(Reg32, Reg8),
    /// `movzx r32, byte [mem]`.
    MovzxRM(Reg32, Mem),
    /// `setcc r8`.
    SetccR(Cond, Reg8),
    /// Two-operand `imul r32, r32`.
    ImulRR(Reg32, Reg32),
    /// Dword shift or rotate `op r32, r8` (the count register).
    ShiftRR(ShiftOp, Reg32, Reg8),
    /// `leave`.
    Leave,
    /// `jmp rel` to its resolved target.
    Jmp(u32),
    /// `jcc rel`: the condition and the resolved taken target.
    Jcc(Cond, u32),
    /// `call rel`: the resolved target and the profile slot of the
    /// function entered there ([`NO_FUNC`] when none is, or when the
    /// VM is not profiling).
    Call(u32, u32),
    /// Everything else: execute via the full interpreter.
    Slow,
}

impl FastOp {
    /// True if the op can write memory — and therefore dirty code when
    /// W⊕X is disabled. `Slow` ops are assumed to.
    #[inline]
    pub(crate) fn may_write(self) -> bool {
        matches!(
            self,
            FastOp::StoreMR(..)
                | FastOp::StoreIdx(..)
                | FastOp::StoreB(..)
                | FastOp::PushR(_)
                | FastOp::PushI(_)
                | FastOp::PushM(_)
                | FastOp::PopM(_)
                | FastOp::Call(..)
                | FastOp::Slow
        )
    }

    /// The op's cycle cost when it does not depend on run-time state:
    /// the terms `Vm::exec_fast` charges it, as `Vm::exec_insn` charges
    /// the instruction (a unit test pins the three together). `None`
    /// for `Ret` (predicted or not) and `Jcc` (taken or not), whose
    /// costs are decided when they run, and for `Slow`, which
    /// `exec_insn` prices.
    #[inline]
    pub(crate) fn static_cost(self, c: &CostModel) -> Option<u64> {
        Some(match self {
            FastOp::Ret | FastOp::Jcc(..) | FastOp::Slow => return None,
            FastOp::Jmp(_) => c.branch_taken,
            FastOp::Call(..) => c.call,
            FastOp::MovRI(..)
            | FastOp::MovRR(..)
            | FastOp::AluRR(..)
            | FastOp::AluRI(..)
            | FastOp::LeaRM(..)
            | FastOp::XchgRR(..)
            | FastOp::TestRR(..)
            | FastOp::TestRI(..)
            | FastOp::MovzxRR(..)
            | FastOp::SetccR(..)
            | FastOp::ShiftRR(..) => c.alu,
            FastOp::PopR(_)
            | FastOp::PushR(_)
            | FastOp::PushI(_)
            | FastOp::LoadRM(..)
            | FastOp::StoreMR(..)
            | FastOp::StoreIdx(..)
            | FastOp::StoreB(..)
            | FastOp::MovzxRM(..)
            | FastOp::Leave => c.alu + c.mem,
            FastOp::PushM(_) | FastOp::PopM(_) => c.alu + c.mem + c.mem,
            FastOp::ImulRR(..) => c.alu + c.mul,
        })
    }
}

/// One predecoded instruction: its micro-op, its addresses, the
/// profile slot of the function containing it ([`NO_FUNC`] when no
/// function does, or when the VM is not profiling), and the fixed cost
/// of the block's ops before it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    /// Fast-path micro-op, or `Slow`.
    pub fast: FastOp,
    /// Address of the instruction.
    pub eip: u32,
    /// Address of the following instruction (`eip + len`).
    pub next: u32,
    /// Profile slot of the instruction's function.
    pub func: u32,
    /// Sum of [`FastOp::static_cost`] over the ops before this one in
    /// its block: the cycles they retire, less what their `Slow` ops
    /// cost, which is known only when they run.
    pub at: u32,
}

/// Maximum body micro-ops (before the trailing `ret`) a gadget block
/// may carry in its fused header. Gadgets scan up to 6 instructions;
/// 4 body ops + `ret` fuses every common shape while keeping the
/// header a small fixed-size copy.
pub const MAX_FUSED_OPS: usize = 4;

/// The fully-inlined form of an `op…; ret` gadget — the shape every
/// ROP dispatch takes, from the classic two-instruction `pop r; ret`
/// up to [`MAX_FUSED_OPS`]-instruction bodies. Stored in the
/// [`Block`] header so execution reads one allocation and never
/// touches the `ops` vector (or clones the `Rc`) on the hot path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedGadget {
    /// The leading micro-ops (never `Slow`); slots past `len` are
    /// `Slow` filler.
    pub ops: [Op; MAX_FUSED_OPS],
    /// Number of live body ops (1..=MAX_FUSED_OPS).
    pub len: u8,
    /// The trailing plain `ret`.
    pub ret: Op,
    /// Upper bound on the gadget's cycle cost.
    pub max_cost: u64,
}

/// How a block is executed: generically, instruction by instruction,
/// or via the fused gadget fast path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BlockKind {
    Generic,
    Fused(FusedGadget),
}

/// A predecoded straight-line run starting at `entry`.
#[derive(Debug)]
pub(crate) struct Block {
    /// Entry address — the cache key.
    pub entry: u32,
    /// Exclusive end of the byte span covered by the block: the
    /// fall-through `eip` after its last instruction.
    pub end: u32,
    /// Gadget fast-path classification.
    pub kind: BlockKind,
    /// The micro-ops, in address order. Never empty.
    pub ops: Vec<Op>,
    /// The decoded instructions (authoritative semantics), parallel to
    /// `ops`; `Slow` ops execute from here.
    pub insns: Vec<Insn>,
    /// Upper bound on the cycles the whole block can be charged:
    /// its length times [`CostModel::insn_bound`].
    pub max_cost: u64,
    /// Sum of [`FastOp::static_cost`] over the body: every op but a
    /// control-transfer terminator. The lean path adds it once.
    pub body_cost: u64,
    /// The one profile slot every op attributes to, or `None` when the
    /// block straddles two functions and is charged op by op.
    pub func: Option<u32>,
    /// True if the last instruction is a control transfer, which sets
    /// `eip` itself; otherwise the block falls through to `end`.
    pub transfers: bool,
}

/// True if `m` ends a straight-line run. Syscalls (`Int`) terminate
/// blocks too: they are rare, and ending the block keeps any memory
/// effect they have from racing a predecoded successor.
fn is_terminator(m: &Mnemonic) -> bool {
    matches!(
        m,
        Mnemonic::Jmp
            | Mnemonic::JmpInd
            | Mnemonic::Jcc(_)
            | Mnemonic::Call
            | Mnemonic::CallInd
            | Mnemonic::Ret
            | Mnemonic::Retf
            | Mnemonic::Int
            | Mnemonic::Int3
            | Mnemonic::Hlt
    )
}

fn reg32_of(op: &Operand) -> Option<Reg32> {
    match op {
        Operand::Reg(Reg::R32(r)) => Some(*r),
        _ => None,
    }
}

/// The taken target of a relative branch or call whose successor is
/// `next`.
fn rel_target(insn: &Insn, next: u32) -> Option<u32> {
    match insn.ops.first() {
        Some(Operand::Rel(r)) => Some(next.wrapping_add(*r as u32)),
        _ => None,
    }
}

/// Classifies `insn`, whose successor is `next`, into a [`FastOp`].
/// Only forms whose cost and semantics the fast arms reproduce exactly
/// may be promoted; anything else stays `Slow`.
fn fast_of(insn: &Insn, next: u32, prof: Option<&Profiler>) -> FastOp {
    match insn.mnemonic {
        Mnemonic::Ret if insn.ops.is_empty() => FastOp::Ret,
        Mnemonic::Pop => match insn.ops.first() {
            Some(Operand::Reg(Reg::R32(r))) => FastOp::PopR(*r),
            Some(Operand::Mem(m)) => FastOp::PopM(*m),
            _ => FastOp::Slow,
        },
        Mnemonic::Push => match insn.ops.first() {
            Some(Operand::Reg(Reg::R32(r))) => FastOp::PushR(*r),
            Some(Operand::Imm(v)) => FastOp::PushI(*v as u32),
            Some(Operand::Mem(m)) => FastOp::PushM(*m),
            _ => FastOp::Slow,
        },
        Mnemonic::Mov if insn.size == OpSize::Dword && insn.ops.len() == 2 => {
            match (&insn.ops[0], &insn.ops[1]) {
                (Operand::Reg(Reg::R32(d)), Operand::Imm(v)) => FastOp::MovRI(*d, *v as u32),
                (Operand::Reg(Reg::R32(d)), Operand::Reg(Reg::R32(s))) => FastOp::MovRR(*d, *s),
                (Operand::Reg(Reg::R32(d)), Operand::Mem(m)) if m.index.is_none() => {
                    FastOp::LoadRM(*d, m.base, m.disp)
                }
                (Operand::Mem(m), Operand::Reg(Reg::R32(s))) if m.index.is_none() => {
                    FastOp::StoreMR(m.base, m.disp, *s)
                }
                (Operand::Mem(m), Operand::Reg(Reg::R32(s))) => FastOp::StoreIdx(*m, *s),
                _ => FastOp::Slow,
            }
        }
        Mnemonic::Mov if insn.ops.len() == 2 => match (&insn.ops[0], &insn.ops[1]) {
            (Operand::Mem(m), Operand::Reg(Reg::R8(s))) => FastOp::StoreB(*m, *s),
            _ => FastOp::Slow,
        },
        Mnemonic::Alu(op) if insn.size == OpSize::Dword && insn.ops.len() == 2 => {
            match (reg32_of(&insn.ops[0]), &insn.ops[1]) {
                (Some(d), Operand::Reg(Reg::R32(s))) => FastOp::AluRR(op, d, *s),
                (Some(d), Operand::Imm(v)) => FastOp::AluRI(op, d, *v as u32),
                _ => FastOp::Slow,
            }
        }
        Mnemonic::Lea => match (insn.ops.first(), insn.ops.get(1).and_then(|o| o.mem())) {
            (Some(Operand::Reg(Reg::R32(d))), Some(m)) => FastOp::LeaRM(*d, m),
            _ => FastOp::Slow,
        },
        Mnemonic::Xchg if insn.size == OpSize::Dword && insn.ops.len() == 2 => {
            match (reg32_of(&insn.ops[0]), reg32_of(&insn.ops[1])) {
                (Some(a), Some(b)) => FastOp::XchgRR(a, b),
                _ => FastOp::Slow,
            }
        }
        Mnemonic::Test if insn.size == OpSize::Dword && insn.ops.len() == 2 => {
            match (reg32_of(&insn.ops[0]), &insn.ops[1]) {
                (Some(a), Operand::Reg(Reg::R32(b))) => FastOp::TestRR(a, *b),
                (Some(a), Operand::Imm(v)) => FastOp::TestRI(a, *v as u32),
                _ => FastOp::Slow,
            }
        }
        Mnemonic::Movzx if insn.ops.len() == 2 => match (reg32_of(&insn.ops[0]), &insn.ops[1]) {
            (Some(d), Operand::Reg(Reg::R8(s))) => FastOp::MovzxRR(d, *s),
            (Some(d), Operand::Mem(m)) => FastOp::MovzxRM(d, *m),
            _ => FastOp::Slow,
        },
        Mnemonic::Setcc(c) => match insn.ops.first() {
            Some(Operand::Reg(Reg::R8(r))) => FastOp::SetccR(c, *r),
            _ => FastOp::Slow,
        },
        Mnemonic::Imul if insn.ops.len() == 2 => {
            match (reg32_of(&insn.ops[0]), reg32_of(&insn.ops[1])) {
                (Some(d), Some(s)) => FastOp::ImulRR(d, s),
                _ => FastOp::Slow,
            }
        }
        Mnemonic::Shift(op) if insn.size == OpSize::Dword && insn.ops.len() == 2 => {
            match (reg32_of(&insn.ops[0]), &insn.ops[1]) {
                (Some(d), Operand::Reg(Reg::R8(c))) => FastOp::ShiftRR(op, d, *c),
                _ => FastOp::Slow,
            }
        }
        Mnemonic::Leave => FastOp::Leave,
        Mnemonic::Jmp => rel_target(insn, next).map_or(FastOp::Slow, FastOp::Jmp),
        Mnemonic::Jcc(c) => rel_target(insn, next).map_or(FastOp::Slow, |t| FastOp::Jcc(c, t)),
        Mnemonic::Call => rel_target(insn, next).map_or(FastOp::Slow, |t| {
            FastOp::Call(t, prof.map_or(NO_FUNC, |p| p.entry_slot(t)))
        }),
        _ => FastOp::Slow,
    }
}

/// Predecodes the straight-line run starting at `entry`.
///
/// An undecodable or unfetchable *first* instruction is a fault — the
/// same fault the stepping interpreter would raise. A decode problem
/// later in the run simply ends the block early: the next block lookup
/// at that address reports the fault at the precise `eip`, matching the
/// reference path. `cost` bounds the block's cycles and prices its fast
/// ops; `prof`, when profiling, resolves each op's profile slot. A block
/// also ends where the fixed cost of its ops would overflow the next
/// [`Op::at`], which only a cost model of billions of cycles an
/// instruction can reach.
pub(crate) fn build_block(
    mem: &Memory,
    entry: u32,
    max_insns: usize,
    cost: &CostModel,
    prof: Option<&Profiler>,
) -> Result<Block, Fault> {
    let mut ops = Vec::new();
    let mut insns = Vec::new();
    let mut pos = entry;
    let mut transfers = false;
    let mut at = 0u64;
    loop {
        let bytes = match mem.fetch(pos) {
            Ok(b) => b,
            Err(f) => {
                if ops.is_empty() {
                    return Err(f);
                }
                break;
            }
        };
        let insn = match decode(bytes) {
            Ok(i) => i,
            Err(_) => {
                if ops.is_empty() {
                    return Err(Fault::new(pos, FaultKind::InvalidInstruction));
                }
                break;
            }
        };
        let next = pos.wrapping_add(insn.len as u32);
        let fast = fast_of(&insn, next, prof);
        transfers = is_terminator(&insn.mnemonic);
        ops.push(Op {
            fast,
            eip: pos,
            next,
            func: prof.map_or(NO_FUNC, |p| p.slot_of(pos)),
            at: at as u32,
        });
        insns.push(insn);
        if !transfers {
            at += fast.static_cost(cost).unwrap_or(0);
        }
        pos = next;
        if transfers || ops.len() >= max_insns || at > u64::from(u32::MAX) {
            break;
        }
    }
    let max_cost = |n: usize| cost.insn_bound().saturating_mul(n as u64);
    let kind = match ops.as_slice() {
        [body @ .., ret]
            if !body.is_empty()
                && body.len() <= MAX_FUSED_OPS
                && matches!(ret.fast, FastOp::Ret)
                && body.iter().all(|p| !matches!(p.fast, FastOp::Slow)) =>
        {
            let mut fused = [Op {
                fast: FastOp::Slow,
                eip: 0,
                next: 0,
                func: NO_FUNC,
                at: 0,
            }; MAX_FUSED_OPS];
            fused[..body.len()].copy_from_slice(body);
            BlockKind::Fused(FusedGadget {
                ops: fused,
                len: body.len() as u8,
                ret: *ret,
                max_cost: max_cost(ops.len()),
            })
        }
        _ => BlockKind::Generic,
    };
    let func = Some(ops[0].func).filter(|&f| ops.iter().all(|op| op.func == f));
    Ok(Block {
        entry,
        end: pos,
        kind,
        max_cost: max_cost(ops.len()),
        body_cost: at,
        ops,
        insns,
        func,
        transfers,
    })
}

/// Direct-mapped cache of predecoded blocks, keyed by entry `eip`.
pub(crate) struct BlockCache {
    slots: Box<[Option<Rc<Block>>]>,
    mask: u32,
    /// Largest byte span of any block ever inserted. Bounds how far
    /// *before* a written range a block entry can lie and still
    /// overlap it, so invalidation can probe candidate entries instead
    /// of sweeping every slot.
    max_span: u32,
    /// Ring of entry addresses evicted most recently. Entries seen
    /// here are rebuilt as single-instruction blocks: self-modifying
    /// code that keeps patching the same region would otherwise pay a
    /// full predecode per iteration for instructions it invalidates
    /// before they ever run.
    recent_evicts: [u32; RECENT_EVICTS],
    evict_pos: usize,
    pub stats: BlockStats,
}

/// Depth of the recently-evicted-entry ring.
const RECENT_EVICTS: usize = 8;

impl BlockCache {
    pub fn new() -> BlockCache {
        BlockCache {
            slots: vec![None; BLOCK_CACHE_SLOTS].into_boxed_slice(),
            mask: BLOCK_CACHE_SLOTS as u32 - 1,
            max_span: 0,
            recent_evicts: [u32::MAX; RECENT_EVICTS],
            evict_pos: 0,
            stats: BlockStats::default(),
        }
    }

    /// True if a block entered at `eip` was evicted recently — a hint
    /// that predecoding a long run there is likely wasted work.
    #[inline]
    pub fn thrashing(&self, eip: u32) -> bool {
        self.recent_evicts.contains(&eip)
    }

    /// The block entered at `eip`, if cached, without counting a hit:
    /// an array index and one compare, no hashing. A caller that runs
    /// the block counts the hit with [`BlockCache::hit`].
    #[inline]
    pub fn peek(&self, eip: u32) -> Option<&Rc<Block>> {
        match &self.slots[(eip & self.mask) as usize] {
            Some(b) if b.entry == eip => Some(b),
            _ => None,
        }
    }

    /// Counts a lookup served from the cache.
    #[inline]
    pub fn hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Cache probe that counts a hit.
    #[inline]
    pub fn lookup(&mut self, eip: u32) -> Option<Rc<Block>> {
        let b = Rc::clone(self.peek(eip)?);
        self.hit();
        Some(b)
    }

    pub fn insert(&mut self, block: Rc<Block>) {
        self.stats.misses += 1;
        self.stats.decoded += block.ops.len() as u64;
        self.max_span = self.max_span.max(block.end.saturating_sub(block.entry));
        let slot = (block.entry & self.mask) as usize;
        self.slots[slot] = Some(block);
    }

    /// Evicts every block whose byte span overlaps `[start, end)`.
    ///
    /// A block overlapping the range has its entry in
    /// `(start - max_span, end)`, so for the typical small patch this
    /// probes a handful of slots; only a range rivaling the cache size
    /// falls back to the full sweep.
    pub fn invalidate_range(&mut self, start: u32, end: u32) {
        let reach = end.wrapping_sub(start) as u64 + self.max_span as u64;
        if reach >= BLOCK_CACHE_SLOTS as u64 {
            for i in 0..self.slots.len() {
                if let Some(b) = &self.slots[i] {
                    if b.entry < end && start < b.end {
                        self.evict(i);
                    }
                }
            }
            return;
        }
        for entry in start.saturating_sub(self.max_span)..end {
            let slot = (entry & self.mask) as usize;
            if let Some(b) = &self.slots[slot] {
                if b.entry == entry && b.end > start {
                    self.evict(slot);
                }
            }
        }
    }

    fn evict(&mut self, slot: usize) {
        if let Some(b) = self.slots[slot].take() {
            self.stats.invalidated += 1;
            self.recent_evicts[self.evict_pos] = b.entry;
            self.evict_pos = (self.evict_pos + 1) % RECENT_EVICTS;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(text: Vec<u8>) -> Memory {
        Memory::new(text, 0x1000, &[0; 16], 0x2000, 0)
    }

    fn build(m: &Memory, entry: u32) -> Result<Block, Fault> {
        build_block(m, entry, MAX_BLOCK_INSNS, &CostModel::default(), None)
    }

    #[test]
    fn block_ends_at_control_transfer() {
        // mov eax,1; pop ecx; ret; pop edx; ret
        let m = mem(vec![0xb8, 1, 0, 0, 0, 0x59, 0xc3, 0x5a, 0xc3]);
        let b = build(&m, 0x1000).unwrap();
        assert_eq!(b.insns.len(), 3);
        assert_eq!(b.entry, 0x1000);
        assert_eq!(b.end, 0x1007);
        assert_eq!(b.ops[2].eip, 0x1006);
    }

    #[test]
    fn decode_failure_mid_run_truncates_block() {
        // nop; then 0x0f 0xff (undecodable in this subset)
        let m = mem(vec![0x90, 0x0f, 0xff, 0x90]);
        let b = build(&m, 0x1000).unwrap();
        assert_eq!(b.insns.len(), 1);
        assert_eq!(b.end, 0x1001);
    }

    #[test]
    fn decode_failure_at_entry_faults() {
        let m = mem(vec![0x0f, 0xff]);
        let f = build(&m, 0x1000).unwrap_err();
        assert_eq!(f.kind, FaultKind::InvalidInstruction);
        assert_eq!(f.vaddr, 0x1000);
    }

    #[test]
    fn fetch_outside_text_faults() {
        let m = mem(vec![0x90]);
        let f = build(&m, 0x5000).unwrap_err();
        assert_eq!(f.kind, FaultKind::ExecOutsideText);
    }

    #[test]
    fn invalidate_range_is_overlap_based() {
        let m = mem(vec![0x90, 0xc3, 0x90, 0xc3]);
        let mut cache = BlockCache::new();
        let a = Rc::new(build(&m, 0x1000).unwrap()); // spans [0x1000, 0x1002)
        let b = Rc::new(build(&m, 0x1002).unwrap()); // spans [0x1002, 0x1004)
        cache.insert(a);
        cache.insert(b);
        cache.invalidate_range(0x1003, 0x1004);
        assert_eq!(cache.stats.invalidated, 1);
        assert!(cache.lookup(0x1000).is_some());
        assert!(cache.lookup(0x1002).is_none());
        // Disjoint range: nothing evicted.
        cache.invalidate_range(0x2000, 0x2004);
        assert_eq!(cache.stats.invalidated, 1);
    }

    #[test]
    fn fast_classification_covers_chain_ops() {
        let m = mem(vec![0x58, 0xc3]); // pop eax; ret
        let b = build(&m, 0x1000).unwrap();
        assert!(matches!(b.ops[0].fast, FastOp::PopR(Reg32::Eax)));
        assert!(matches!(b.ops[1].fast, FastOp::Ret));
    }

    #[test]
    fn ret_imm_is_not_fast() {
        let m = mem(vec![0xc2, 0x08, 0x00]); // ret 8
        let b = build(&m, 0x1000).unwrap();
        assert!(matches!(b.ops[0].fast, FastOp::Slow));
    }

    #[test]
    fn extended_fast_classification_covers_lea_xchg_test_pushpop_mem() {
        use parallax_x86::Asm;
        let mut a = Asm::new();
        a.lea(Reg32::Eax, Mem::base_disp(Reg32::Ebx, 4));
        a.xchg_rr(Reg32::Ecx, Reg32::Edx);
        a.test_rr(Reg32::Eax, Reg32::Ecx);
        a.test_ri(Reg32::Edx, 0x40);
        a.push_m(Mem::base(Reg32::Ebx));
        a.pop_m(Mem::base_disp(Reg32::Esi, 8));
        a.ret();
        let code = a.finish().unwrap().bytes;
        let m = mem(code);
        let b = build(&m, 0x1000).unwrap();
        assert!(matches!(b.ops[0].fast, FastOp::LeaRM(Reg32::Eax, _)));
        assert!(matches!(
            b.ops[1].fast,
            FastOp::XchgRR(Reg32::Ecx, Reg32::Edx)
        ));
        assert!(matches!(
            b.ops[2].fast,
            FastOp::TestRR(Reg32::Eax, Reg32::Ecx)
        ));
        assert!(matches!(b.ops[3].fast, FastOp::TestRI(Reg32::Edx, 0x40)));
        assert!(matches!(b.ops[4].fast, FastOp::PushM(_)));
        assert!(matches!(b.ops[5].fast, FastOp::PopM(_)));
    }

    #[test]
    fn compiled_code_forms_are_fast() {
        use parallax_x86::{Asm, ShiftOp};
        let mut a = Asm::new();
        let top = a.here();
        a.movzx_rr8(Reg32::Eax, Reg8::Bl);
        a.movzx_rm8(Reg32::Ecx, Mem::base_disp(Reg32::Esi, 2));
        a.setcc(Cond::L, Reg8::Dl);
        a.imul_rr(Reg32::Eax, Reg32::Ecx);
        a.mov_mr(
            Mem {
                base: Some(Reg32::Ebx),
                index: Some((Reg32::Ecx, 4)),
                disp: 8,
            },
            Reg32::Eax,
        );
        a.mov_mr8(Mem::base(Reg32::Edi), Reg8::Al);
        a.shift_r_cl(ShiftOp::Shr, Reg32::Edx);
        a.leave();
        a.jcc(Cond::Ne, top);
        let m = mem(a.finish().unwrap().bytes);
        let b = build(&m, 0x1000).unwrap();
        let ops: Vec<FastOp> = b.ops.iter().map(|o| o.fast).collect();
        assert!(matches!(ops[0], FastOp::MovzxRR(Reg32::Eax, Reg8::Bl)));
        assert!(matches!(ops[1], FastOp::MovzxRM(Reg32::Ecx, _)));
        assert!(matches!(ops[2], FastOp::SetccR(Cond::L, Reg8::Dl)));
        assert!(matches!(ops[3], FastOp::ImulRR(Reg32::Eax, Reg32::Ecx)));
        assert!(matches!(ops[4], FastOp::StoreIdx(_, Reg32::Eax)));
        assert!(matches!(ops[5], FastOp::StoreB(_, Reg8::Al)));
        assert!(matches!(
            ops[6],
            FastOp::ShiftRR(ShiftOp::Shr, Reg32::Edx, Reg8::Cl)
        ));
        assert!(matches!(ops[7], FastOp::Leave));
        assert!(matches!(ops[8], FastOp::Jcc(Cond::Ne, 0x1000)));
        assert!(b.transfers, "a jcc sets eip itself");
        assert_eq!(b.func, Some(NO_FUNC), "unprofiled blocks have one slot");
        assert_eq!(b.max_cost, 9 * CostModel::default().insn_bound());
        // The body is every op but the `jcc`; `at` is its running cost.
        let c = CostModel::default();
        let costs = [c.alu, c.alu + c.mem, c.alu, c.alu + c.mul];
        let ats: Vec<u64> = b.ops.iter().map(|o| u64::from(o.at)).collect();
        assert_eq!(ats[..5], [0, 1, 5, 6, 11]);
        assert_eq!(costs.iter().sum::<u64>(), ats[4]);
        let fixed: u64 = b.ops[..8]
            .iter()
            .map(|o| o.fast.static_cost(&c).unwrap())
            .sum();
        assert_eq!(b.body_cost, fixed);
        assert_eq!(u64::from(b.ops[8].at), fixed);
    }

    #[test]
    fn slow_ops_add_nothing_to_the_fixed_prefix() {
        use parallax_x86::Asm;
        // mov eax, 1; mul ecx; mov ecx, eax; ret
        let mut a = Asm::new();
        a.mov_ri(Reg32::Eax, 1);
        a.mul_r(Reg32::Ecx);
        a.mov_rr(Reg32::Ecx, Reg32::Eax);
        a.ret();
        let m = mem(a.finish().unwrap().bytes);
        let b = build(&m, 0x1000).unwrap();
        let ats: Vec<u32> = b.ops.iter().map(|o| o.at).collect();
        assert_eq!(ats, [0, 1, 1, 2]);
        assert_eq!(b.body_cost, 2);
    }

    #[test]
    fn two_insn_gadget_still_fuses() {
        let m = mem(vec![0x58, 0xc3]); // pop eax; ret
        let b = build(&m, 0x1000).unwrap();
        match b.kind {
            BlockKind::Fused(f) => {
                assert_eq!(f.len, 1);
                assert!(matches!(f.ops[0].fast, FastOp::PopR(Reg32::Eax)));
                assert_eq!(f.ret.eip, 0x1001);
            }
            BlockKind::Generic => panic!("pop r; ret must fuse"),
        }
    }

    #[test]
    fn three_insn_gadget_body_fuses() {
        use parallax_x86::Asm;
        // pop eax; add esi, eax; mov ecx, esi; ret — a 3-op body.
        let mut a = Asm::new();
        a.pop_r(Reg32::Eax);
        a.alu_rr(AluOp::Add, Reg32::Esi, Reg32::Eax);
        a.mov_rr(Reg32::Ecx, Reg32::Esi);
        a.ret();
        let m = mem(a.finish().unwrap().bytes);
        let b = build(&m, 0x1000).unwrap();
        match b.kind {
            BlockKind::Fused(f) => {
                assert_eq!(f.len, 3);
                assert!(matches!(f.ops[0].fast, FastOp::PopR(Reg32::Eax)));
                assert!(matches!(
                    f.ops[1].fast,
                    FastOp::AluRR(AluOp::Add, Reg32::Esi, Reg32::Eax)
                ));
                assert!(matches!(
                    f.ops[2].fast,
                    FastOp::MovRR(Reg32::Ecx, Reg32::Esi)
                ));
            }
            BlockKind::Generic => panic!("3-op gadget body must fuse"),
        }
    }

    #[test]
    fn slow_body_op_or_long_body_stays_generic() {
        use parallax_x86::Asm;
        // A body op the fast set cannot express (mul) blocks fusion.
        let mut a = Asm::new();
        a.pop_r(Reg32::Eax);
        a.mul_r(Reg32::Ecx);
        a.ret();
        let m = mem(a.finish().unwrap().bytes);
        let b = build(&m, 0x1000).unwrap();
        assert!(matches!(b.kind, BlockKind::Generic));
        // A body longer than MAX_FUSED_OPS stays generic too.
        let mut a = Asm::new();
        for _ in 0..(MAX_FUSED_OPS + 1) {
            a.pop_r(Reg32::Eax);
        }
        a.ret();
        let m = mem(a.finish().unwrap().bytes);
        let b = build(&m, 0x1000).unwrap();
        assert!(matches!(b.kind, BlockKind::Generic));
    }
}
