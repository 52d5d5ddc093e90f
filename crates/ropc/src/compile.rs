//! The verification-code compiler: IR functions → ROP chains.
//!
//! The translation mirrors `parallax-compiler`'s stack-machine codegen,
//! but every operation becomes a gadget invocation:
//!
//! * the accumulator is `eax`, the secondary operand / memory address
//!   register is `ecx`;
//! * parameters, locals, and expression temporaries live in a
//!   per-function *frame* in data memory (chains cannot use the native
//!   stack — `esp` is the chain program counter);
//! * control flow is branchless at the gadget level: a condition is
//!   materialized as 0/1, turned into a mask, ANDed with a byte delta,
//!   and added to `esp` (`add esp, eax ; ret`), skipping or rewinding
//!   chain words — the ROPC lineage's approach;
//! * calls to native functions go through the
//!   [`CALL_NATIVE`](crate::runtime::CALL_NATIVE) trampoline: the chain
//!   stores target/arguments/resume-point and pivots out;
//! * the epilogue pivots to [`CHAIN_EXIT`](crate::runtime::CHAIN_EXIT),
//!   which restores registers and returns the value the chain stored in
//!   the return cell.
//!
//! Gadget *choice* is pluggable ([`Policy`]): prefer gadgets overlapping
//! the protected ranges (§III step 4), pick uniformly at random among
//! equivalents (§V-B probabilistic chains), or take the first found.

use std::fmt;

use parallax_compiler::ir::{BinOp, CmpOp, Expr, Function, Stmt, UnOp};
use parallax_gadgets::{Effect, GBinOp, GadgetMap, RangeSet, TypeKey};
use parallax_image::LinkedImage;
use parallax_trace::Tracer;
use parallax_x86::{Reg32, ShiftOp};

use crate::chain::{Chain, ChainLabel, ChainLayoutError, Word};
use crate::runtime;

/// Expression-temporary slots reserved in every chain frame.
pub const TEMP_SLOTS: usize = 64;

/// Computes the frame size (bytes) a function's chain needs.
pub fn frame_size(func: &Function) -> u32 {
    ((func.params.len() + func.locals().len() + TEMP_SLOTS) * 4) as u32
}

/// Gadget-selection policy.
#[derive(Debug, Clone)]
pub enum Policy {
    /// Deterministically take the lowest-address candidate.
    First,
    /// Prefer gadgets overlapping the given vaddr ranges (the protected
    /// instructions); pick pseudo-randomly among the preferred set.
    PreferOverlapping {
        /// Protected vaddr ranges `(start, end)`.
        ranges: Vec<(u32, u32)>,
        /// PRNG seed.
        seed: u64,
    },
    /// §V-B probabilistic mode: among shape-identical candidates, pick
    /// pseudo-randomly. Two compilations with different seeds produce
    /// equal-length chains using (potentially) different gadgets.
    Grouped {
        /// PRNG seed.
        seed: u64,
    },
}

/// Errors from chain compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// No usable gadget implements a required type.
    MissingGadget(String),
    /// The IR uses an operation chains cannot express.
    Unsupported(String),
    /// Unknown local variable.
    UnknownLocal(String),
    /// Unknown global.
    UnknownGlobal(String),
    /// Unknown callee.
    UnknownFunction(String),
    /// `break`/`continue` outside a loop.
    NotInLoop,
    /// Expression nesting exceeded the frame's temporary slots.
    TooDeep,
    /// Too many arguments for the native-call trampoline.
    TooManyArgs,
    /// Label resolution failed.
    Layout(ChainLayoutError),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::MissingGadget(k) => write!(f, "no usable gadget for {k}"),
            ChainError::Unsupported(w) => write!(f, "unsupported in chains: {w}"),
            ChainError::UnknownLocal(n) => write!(f, "unknown local `{n}`"),
            ChainError::UnknownGlobal(n) => write!(f, "unknown global `{n}`"),
            ChainError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            ChainError::NotInLoop => write!(f, "break/continue outside loop"),
            ChainError::TooDeep => write!(f, "expression too deep for chain frame"),
            ChainError::TooManyArgs => write!(f, "too many native-call arguments"),
            ChainError::Layout(e) => write!(f, "chain layout: {e}"),
        }
    }
}

impl std::error::Error for ChainError {}

impl From<ChainLayoutError> for ChainError {
    fn from(e: ChainLayoutError) -> ChainError {
        ChainError::Layout(e)
    }
}

/// A compiled verification chain.
#[derive(Debug, Clone)]
pub struct CompiledChain {
    /// The chain words.
    pub chain: Chain,
    /// Distinct gadget addresses the chain verifies.
    pub used_gadgets: Vec<u32>,
    /// Gadget invocations emitted (chain "operations").
    pub ops: usize,
}

struct Ctx<'a> {
    map: &'a GadgetMap,
    img: &'a LinkedImage,
    policy: Policy,
    rng: u64,
    chain: Chain,
    pending_far: bool,
    func: &'a Function,
    frame_base: u32,
    scratch: u32,
    locals: Vec<String>,
    loops: Vec<(ChainLabel, ChainLabel)>,
    epilogue: ChainLabel,
    ops: usize,
    /// §IV-B gadget-preference tallies: selections satisfied from the
    /// overlapping-preferred pool vs. everywhere else (the appended
    /// standard set or incidental non-overlapping gadgets).
    picks_overlapping: u64,
    picks_other: u64,
    /// Interval index over [`Policy::PreferOverlapping`] ranges, built
    /// once per chain so the preference check is a binary search rather
    /// than an O(ranges) walk per candidate per pick.
    overlap_index: Option<RangeSet>,
}

const EAX: Reg32 = Reg32::Eax;
const ECX: Reg32 = Reg32::Ecx;

impl<'a> Ctx<'a> {
    fn rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// The register that holds a *chain-controlled pointer* when a
    /// gadget for `key` executes: only the address operand of the memory
    /// effects qualifies. A memory precondition on that register is
    /// satisfied by construction; a precondition on any other register
    /// (an arbitrary value, or a yet-unwritten destination) needs a
    /// preparatory scratch load first.
    fn pre_set_reg(key: TypeKey) -> Option<Reg32> {
        match key {
            TypeKey::LoadMem(_, a) | TypeKey::StoreMem(a, _) | TypeKey::AddMem(a, _) => Some(a),
            _ => None,
        }
    }

    /// Whether gadget `i` overlaps a range [`Policy::PreferOverlapping`]
    /// protects.
    fn overlaps_protected(&self, i: usize) -> bool {
        let g = self.map.get(i);
        (self.overlap_index.as_ref()).is_some_and(|set| set.overlaps(g.vaddr, g.end()))
    }

    /// The chain shape of gadget `i` used for `key`: its slot count,
    /// whether it is far, and the slot a `LoadConst` reads its value from.
    fn chain_shape(&self, i: usize, key: TypeKey) -> (u32, bool, u32) {
        let g = self.map.get(i);
        let slot = match self.map.effect_of(i, key) {
            Some(Effect::LoadConst { slot, .. }) => *slot,
            _ => 0,
        };
        (g.slots, g.far, slot)
    }

    /// Selects a gadget for `key` whose side effects are compatible
    /// with the currently-live registers.
    fn select(&mut self, key: TypeKey, live: &[Reg32]) -> Result<usize, ChainError> {
        self.select_inner(key, live, false)
    }

    /// Like [`Ctx::select`]; with `clean_only`, candidates needing any
    /// preparatory scratch load are rejected (used when emitting the
    /// preparation itself, to avoid recursion).
    fn select_inner(
        &mut self,
        key: TypeKey,
        live: &[Reg32],
        clean_only: bool,
    ) -> Result<usize, ChainError> {
        let operand_reg = Self::pre_set_reg(key);
        let shape_stable = matches!(self.policy, Policy::Grouped { .. });
        let eligible: Vec<usize> = self
            .map
            .lookup(key)
            .iter()
            .copied()
            .filter(|&i| {
                let g = self.map.get(i);
                if g.slots > 8 {
                    return false;
                }
                // Far gadgets are fine for data ops (the CS slot is
                // absorbed after the next gadget word) but not for
                // pivots, branches, or flush NOPs, whose successor word
                // positions must be exact.
                if g.far && matches!(key, TypeKey::PopEsp | TypeKey::AddEsp(_) | TypeKey::Nop) {
                    return false;
                }
                if g.clobbers.iter().any(|c| live.contains(c)) {
                    return false;
                }
                // Displacement-carrying memory effects need off == 0.
                if let Some(e) = self.map.effect_of(i, key) {
                    match e {
                        Effect::LoadMem { off, .. }
                        | Effect::StoreMem { off, .. }
                        | Effect::AddMem { off, .. }
                            if *off != 0 =>
                        {
                            return false;
                        }
                        _ => {}
                    }
                }
                // Preconditions outside the operand registers need prep
                // loads; those regs must be dead, and in shape-stable
                // mode we forbid prep entirely.
                let mut extra = g
                    .mem_preconditions
                    .iter()
                    .filter(|&&p| Some(p) != operand_reg);
                if shape_stable || clean_only {
                    return extra.next().is_none();
                }
                !extra.any(|p| live.contains(p))
            })
            .collect();
        if eligible.is_empty() {
            return Err(ChainError::MissingGadget(format!("{key:?}")));
        }

        let choice = match &self.policy {
            Policy::First => eligible[0],
            Policy::PreferOverlapping { .. } => {
                // The pool is the overlapping eligible gadgets, in
                // eligible order, or every eligible one when none
                // overlaps; the draw picks its n-th member.
                let preferred = eligible
                    .iter()
                    .filter(|&&i| self.overlaps_protected(i))
                    .count();
                if preferred == 0 {
                    self.picks_other += 1;
                    eligible[(self.rand() as usize) % eligible.len()]
                } else {
                    self.picks_overlapping += 1;
                    let n = (self.rand() as usize) % preferred;
                    let mut pool = eligible
                        .iter()
                        .copied()
                        .filter(|&i| self.overlaps_protected(i));
                    pool.nth(n).expect("n < preferred")
                }
            }
            Policy::Grouped { .. } => {
                // Group by chain shape; pick the largest group, the
                // smallest shape among the largest, then a random member
                // in eligible order.
                let mut groups: Vec<((u32, bool, u32), usize)> = Vec::new();
                for &i in &eligible {
                    let shape = self.chain_shape(i, key);
                    match groups.iter_mut().find(|(k, _)| *k == shape) {
                        Some((_, members)) => *members += 1,
                        None => groups.push((shape, 1)),
                    }
                }
                let (shape, members) = groups
                    .into_iter()
                    .reduce(|best, g| {
                        if g.1 > best.1 || (g.1 == best.1 && g.0 < best.0) {
                            g
                        } else {
                            best
                        }
                    })
                    .expect("eligible non-empty");
                let n = (self.rand() as usize) % members;
                let mut pool = eligible
                    .iter()
                    .copied()
                    .filter(|&i| self.chain_shape(i, key) == shape);
                pool.nth(n).expect("n < members")
            }
        };
        Ok(choice)
    }

    /// Emits one gadget invocation. `payload` fills a `LoadConst`
    /// gadget's value slot; all other slots get junk.
    fn emit(
        &mut self,
        key: TypeKey,
        payload: Option<Word>,
        live: &[Reg32],
    ) -> Result<(), ChainError> {
        let idx = self.select(key, live)?;
        let g = self.map.get(idx);

        // Preparatory scratch loads for preconditions on registers
        // whose pre-state the chain has not established. The prep
        // itself must use clean gadgets (no further preconditions).
        let pre_set = Self::pre_set_reg(key);
        let extra: Vec<Reg32> = g
            .mem_preconditions
            .iter()
            .copied()
            .filter(|&p| Some(p) != pre_set)
            .collect();
        for p in extra {
            let prep_live = live.to_vec();
            let prep_idx = self.select_inner(TypeKey::LoadConst(p), &prep_live, true)?;
            let pg = self.map.get(prep_idx);
            self.push_gadget_word(pg.vaddr);
            let vslot = match self.map.effect_of(prep_idx, TypeKey::LoadConst(p)) {
                Some(Effect::LoadConst { slot, .. }) => *slot,
                _ => 0,
            };
            for s in 0..pg.slots {
                if s == vslot {
                    self.chain.push(Word::Const(self.scratch + 0x100));
                } else {
                    self.chain.push(Word::Junk);
                }
            }
            if pg.far {
                self.pending_far = true;
            }
            self.ops += 1;
        }

        self.push_gadget_word(g.vaddr);
        let value_slot = match self.map.effect_of(idx, key) {
            Some(Effect::LoadConst { slot, .. }) => Some(*slot),
            _ => None,
        };
        for s in 0..g.slots {
            if Some(s) == value_slot {
                self.chain
                    .push(payload.expect("LoadConst emission carries a payload"));
            } else {
                self.chain.push(Word::Junk);
            }
        }
        if g.far {
            self.pending_far = true;
        }
        self.ops += 1;
        Ok(())
    }

    fn push_gadget_word(&mut self, vaddr: u32) {
        self.chain.push(Word::Gadget(vaddr));
        if self.pending_far {
            self.chain.push(Word::DummyCs);
            self.pending_far = false;
        }
    }

    /// Absorbs a pending far-return CS slot before label binds and
    /// branches (their word positions must be exact).
    fn flush_far(&mut self) -> Result<(), ChainError> {
        if self.pending_far {
            self.emit(TypeKey::Nop, None, &[EAX, ECX])?;
            // emit() pushed the Nop gadget word followed by the dummy CS.
            debug_assert!(!self.pending_far);
        }
        Ok(())
    }

    // ---- primitive sequences -------------------------------------------

    fn load_const(&mut self, dst: Reg32, w: Word, live: &[Reg32]) -> Result<(), ChainError> {
        self.emit(TypeKey::LoadConst(dst), Some(w), live)
    }

    /// eax ← [addr-const]; `live` lists registers (besides eax/ecx)
    /// that must survive.
    fn load_cell(&mut self, addr: u32, live: &[Reg32]) -> Result<(), ChainError> {
        self.load_const(ECX, Word::Const(addr), live)?;
        let mut l = live.to_vec();
        l.push(ECX);
        self.emit(TypeKey::LoadMem(EAX, ECX), None, &l)
    }

    /// [addr-const] ← eax
    fn store_cell(&mut self, addr: u32) -> Result<(), ChainError> {
        self.load_const(ECX, Word::Const(addr), &[EAX])?;
        self.emit(TypeKey::StoreMem(ECX, EAX), None, &[EAX, ECX])
    }

    /// ecx ← [addr-const] (leaves eax untouched)
    fn load_cell_into_ecx(&mut self, addr: u32) -> Result<(), ChainError> {
        self.load_const(ECX, Word::Const(addr), &[EAX])?;
        self.emit(TypeKey::LoadMem(ECX, ECX), None, &[EAX, ECX])
    }

    fn binary(&mut self, op: GBinOp) -> Result<(), ChainError> {
        self.emit(TypeKey::Binary(op, EAX, ECX), None, &[EAX, ECX])
    }

    fn shift(&mut self, op: ShiftOp) -> Result<(), ChainError> {
        self.emit(TypeKey::ShiftCl(op, EAX), None, &[EAX, ECX])
    }

    fn temp_addr(&self, depth: usize) -> Result<u32, ChainError> {
        if depth >= TEMP_SLOTS {
            return Err(ChainError::TooDeep);
        }
        let n = self.func.params.len() + self.locals.len();
        Ok(self.frame_base + 4 * (n + depth) as u32)
    }

    fn slot_addr(&self, name: &str) -> Result<u32, ChainError> {
        if let Some(i) = self.func.params.iter().position(|p| p == name) {
            return Ok(self.frame_base + 4 * i as u32);
        }
        if let Some(i) = self.locals.iter().position(|l| l == name) {
            return Ok(self.frame_base + 4 * (self.func.params.len() + i) as u32);
        }
        Err(ChainError::UnknownLocal(name.to_owned()))
    }

    // ---- expressions ------------------------------------------------------

    /// Evaluates `e`; the result ends up in `eax`.
    fn expr(&mut self, e: &Expr, depth: usize) -> Result<(), ChainError> {
        match e {
            Expr::Const(v) => self.load_const(EAX, Word::Const(*v as u32), &[]),
            Expr::Local(name) => {
                let addr = self.slot_addr(name)?;
                self.load_cell(addr, &[])
            }
            Expr::GlobalAddr(name) => {
                let sym = self
                    .img
                    .symbol(name)
                    .ok_or_else(|| ChainError::UnknownGlobal(name.clone()))?;
                self.load_const(EAX, Word::Const(sym.vaddr), &[])
            }
            Expr::Load(a) => {
                self.expr(a, depth)?;
                self.emit(TypeKey::MovReg(ECX, EAX), None, &[EAX])?;
                self.emit(TypeKey::LoadMem(EAX, ECX), None, &[ECX])
            }
            Expr::Load8(a) => {
                // Unaligned word load, masked to the low byte.
                self.expr(a, depth)?;
                self.emit(TypeKey::MovReg(ECX, EAX), None, &[EAX])?;
                self.emit(TypeKey::LoadMem(EAX, ECX), None, &[ECX])?;
                self.load_const(ECX, Word::Const(0xff), &[EAX])?;
                self.binary(GBinOp::And)
            }
            Expr::Unary(op, a) => {
                self.expr(a, depth)?;
                match op {
                    UnOp::Neg => self.emit(TypeKey::Neg(EAX), None, &[EAX]),
                    UnOp::Not => self.emit(TypeKey::Not(EAX), None, &[EAX]),
                }
            }
            Expr::Bin(op, a, b) => {
                // Fast path: constant or variable right operands load
                // straight into ecx after the left side is in eax.
                match b.as_ref() {
                    Expr::Const(k) => {
                        self.expr(a, depth)?;
                        self.load_const(ECX, Word::Const(*k as u32), &[EAX])?;
                    }
                    Expr::Local(name) => {
                        let addr = self.slot_addr(name)?;
                        self.expr(a, depth)?;
                        self.load_cell_into_ecx(addr)?;
                    }
                    Expr::GlobalAddr(name) => {
                        let sym = self
                            .img
                            .symbol(name)
                            .ok_or_else(|| ChainError::UnknownGlobal(name.clone()))?;
                        self.expr(a, depth)?;
                        self.load_const(ECX, Word::Const(sym.vaddr), &[EAX])?;
                    }
                    _ => {
                        self.expr(b, depth)?;
                        let t = self.temp_addr(depth)?;
                        self.store_cell(t)?;
                        self.expr(a, depth + 1)?;
                        self.load_cell_into_ecx(t)?;
                    }
                }
                match op {
                    BinOp::Add => self.binary(GBinOp::Add),
                    BinOp::Sub => self.binary(GBinOp::Sub),
                    BinOp::Mul => self.binary(GBinOp::Imul),
                    BinOp::And => self.binary(GBinOp::And),
                    BinOp::Or => self.binary(GBinOp::Or),
                    BinOp::Xor => self.binary(GBinOp::Xor),
                    BinOp::Shl => self.shift(ShiftOp::Shl),
                    BinOp::ShrL => self.shift(ShiftOp::Shr),
                    BinOp::ShrA => self.shift(ShiftOp::Sar),
                    BinOp::DivS | BinOp::DivU | BinOp::ModS | BinOp::ModU => {
                        Err(ChainError::Unsupported("division".into()))
                    }
                }
            }
            Expr::Cmp(op, a, b) => self.compare(*op, a, b, depth),
            Expr::Call(name, args) => self.native_call(name, args, depth),
            Expr::Syscall(nr, args) => self.syscall(*nr, args, depth),
        }
    }

    /// Branchless comparisons producing 0/1 in `eax`.
    fn compare(&mut self, op: CmpOp, a: &Expr, b: &Expr, depth: usize) -> Result<(), ChainError> {
        // Sign tests against zero collapse to a single shift.
        if matches!(b, Expr::Const(0)) {
            match op {
                CmpOp::LtS => {
                    self.expr(a, depth)?;
                    return self.shr31();
                }
                CmpOp::GeS => {
                    self.expr(a, depth)?;
                    self.shr31()?;
                    return self.xor_one();
                }
                CmpOp::Ne | CmpOp::Eq => {
                    // (a | -a) >> 31, optionally inverted.
                    let tx = self.temp_addr(depth)?;
                    self.expr(a, depth)?;
                    self.store_cell(tx)?;
                    self.emit(TypeKey::Neg(EAX), None, &[EAX])?;
                    self.load_cell_into_ecx(tx)?;
                    self.binary(GBinOp::Or)?;
                    self.shr31()?;
                    if op == CmpOp::Eq {
                        self.xor_one()?;
                    }
                    return Ok(());
                }
                _ => {}
            }
        }
        let ta = self.temp_addr(depth)?;
        let tb = self.temp_addr(depth + 1)?;
        self.expr(a, depth)?;
        self.store_cell(ta)?;
        self.expr(b, depth + 1)?;
        self.store_cell(tb)?;
        match op {
            CmpOp::Ne => self.ne_from_temps(ta, tb, depth),
            CmpOp::Eq => {
                self.ne_from_temps(ta, tb, depth)?;
                self.xor_one()
            }
            CmpOp::LtS => self.lt_s_from_temps(ta, tb, depth),
            CmpOp::GeS => {
                self.lt_s_from_temps(ta, tb, depth)?;
                self.xor_one()
            }
            CmpOp::GtS => self.lt_s_from_temps(tb, ta, depth),
            CmpOp::LeS => {
                self.lt_s_from_temps(tb, ta, depth)?;
                self.xor_one()
            }
            CmpOp::LtU => self.lt_u_from_temps(ta, tb, depth),
            CmpOp::GeU => {
                self.lt_u_from_temps(ta, tb, depth)?;
                self.xor_one()
            }
            CmpOp::GtU => self.lt_u_from_temps(tb, ta, depth),
            CmpOp::LeU => {
                self.lt_u_from_temps(tb, ta, depth)?;
                self.xor_one()
            }
        }
    }

    fn xor_one(&mut self) -> Result<(), ChainError> {
        self.load_const(ECX, Word::Const(1), &[EAX])?;
        self.binary(GBinOp::Xor)
    }

    fn shr31(&mut self) -> Result<(), ChainError> {
        self.load_const(ECX, Word::Const(31), &[EAX])?;
        self.shift(ShiftOp::Shr)
    }

    /// `eax = (a != b)` with a, b in cells: ((x | -x) >> 31), x = a - b.
    fn ne_from_temps(&mut self, ta: u32, tb: u32, depth: usize) -> Result<(), ChainError> {
        let tx = self.temp_addr(depth + 2)?;
        self.load_cell(ta, &[])?;
        self.load_cell_into_ecx(tb)?;
        self.binary(GBinOp::Sub)?; // eax = x
        self.store_cell(tx)?;
        self.emit(TypeKey::Neg(EAX), None, &[EAX])?; // eax = -x
        self.load_cell_into_ecx(tx)?;
        self.binary(GBinOp::Or)?; // eax = x | -x
        self.shr31()
    }

    /// Signed less-than: ((a-b) ^ ((a^b) & ((a-b)^a))) >> 31.
    fn lt_s_from_temps(&mut self, ta: u32, tb: u32, depth: usize) -> Result<(), ChainError> {
        let tc = self.temp_addr(depth + 2)?; // a-b
        let td = self.temp_addr(depth + 3)?; // a^b
        self.load_cell(ta, &[])?;
        self.load_cell_into_ecx(tb)?;
        self.binary(GBinOp::Sub)?;
        self.store_cell(tc)?;
        self.load_cell(ta, &[])?;
        self.load_cell_into_ecx(tb)?;
        self.binary(GBinOp::Xor)?;
        self.store_cell(td)?;
        self.load_cell(tc, &[])?;
        self.load_cell_into_ecx(ta)?;
        self.binary(GBinOp::Xor)?; // (a-b)^a
        self.load_cell_into_ecx(td)?;
        self.binary(GBinOp::And)?; // (a^b) & ((a-b)^a)
        self.load_cell_into_ecx(tc)?;
        self.binary(GBinOp::Xor)?; // ^(a-b)
        self.shr31()
    }

    /// Unsigned less-than: ((~a & b) | ((~a | b) & (a-b))) >> 31.
    fn lt_u_from_temps(&mut self, ta: u32, tb: u32, depth: usize) -> Result<(), ChainError> {
        let tc = self.temp_addr(depth + 2)?; // ~a
        let td = self.temp_addr(depth + 3)?; // ~a & b
        self.load_cell(ta, &[])?;
        self.emit(TypeKey::Not(EAX), None, &[EAX])?;
        self.store_cell(tc)?;
        self.load_cell_into_ecx(tb)?;
        self.binary(GBinOp::And)?; // eax = ~a & b (eax was ~a)
        self.store_cell(td)?;
        self.load_cell(tc, &[])?;
        self.load_cell_into_ecx(tb)?;
        self.binary(GBinOp::Or)?; // ~a | b
        self.store_cell(tc)?; // reuse tc
        self.load_cell(ta, &[])?;
        self.load_cell_into_ecx(tb)?;
        self.binary(GBinOp::Sub)?; // a-b
        self.load_cell_into_ecx(tc)?;
        self.binary(GBinOp::And)?;
        self.load_cell_into_ecx(td)?;
        self.binary(GBinOp::Or)?;
        self.shr31()
    }

    /// Calls a native function through the trampoline.
    fn native_call(&mut self, name: &str, args: &[Expr], depth: usize) -> Result<(), ChainError> {
        if args.len() > runtime::MAX_NATIVE_ARGS {
            return Err(ChainError::TooManyArgs);
        }
        let target = self
            .img
            .symbol(name)
            .ok_or_else(|| ChainError::UnknownFunction(name.to_owned()))?
            .vaddr;
        let cells = self.cells()?;
        // Evaluate and store arguments (1-based slots).
        for (i, a) in args.iter().enumerate() {
            self.expr(a, depth)?;
            self.store_cell(
                (cells as i64 + runtime::CELL_ARG_N as i64 + 4 * (i as i64 + 1)) as u32,
            )?;
        }
        self.load_const(EAX, Word::Const(target), &[])?;
        self.store_cell((cells as i64 + runtime::CELL_ARG_TARGET as i64) as u32)?;
        self.load_const(EAX, Word::Const(args.len() as u32), &[])?;
        self.store_cell((cells as i64 + runtime::CELL_ARG_N as i64) as u32)?;

        // Resume point: the chain slot right after the pivot.
        let resume = self.chain.label();
        self.load_const(EAX, Word::AbsSlot(resume), &[])?;
        self.store_cell((cells as i64 + runtime::CELL_RESUME as i64) as u32)?;

        // Pivot out to the trampoline.
        let callslot = self
            .img
            .symbol(runtime::CALLSLOT)
            .ok_or_else(|| ChainError::UnknownGlobal(runtime::CALLSLOT.into()))?
            .vaddr;
        self.pivot_to(callslot)?;
        self.flush_far()?;
        self.chain.bind(resume);

        // Fetch the result.
        self.load_cell((cells as i64 + runtime::CELL_RET_TMP as i64) as u32, &[])
    }

    fn syscall(&mut self, nr: u32, args: &[Expr], depth: usize) -> Result<(), ChainError> {
        if args.len() > 4 {
            return Err(ChainError::TooManyArgs);
        }
        // Evaluate args into temps first.
        let mut temps = Vec::new();
        for (i, a) in args.iter().enumerate() {
            self.expr(a, depth + i)?;
            let t = self.temp_addr(depth + i)?;
            self.store_cell(t)?;
            temps.push(t);
        }
        // ebx, edx, esi via eax; ecx last (it is the address register).
        let regs = [Reg32::Ebx, Reg32::Ecx, Reg32::Edx, Reg32::Esi];
        for (i, &t) in temps.iter().enumerate() {
            if regs[i] == Reg32::Ecx {
                continue;
            }
            let mut live = vec![];
            for (j, &r) in regs.iter().enumerate() {
                if j < i && r != Reg32::Ecx {
                    live.push(r);
                }
            }
            self.load_cell(t, &live)?;
            let mut live2 = live.clone();
            live2.push(EAX);
            self.emit(TypeKey::MovReg(regs[i], EAX), None, &live2)?;
        }
        let mut live: Vec<Reg32> = regs
            .iter()
            .copied()
            .take(temps.len())
            .filter(|r| *r != Reg32::Ecx)
            .collect();
        if temps.len() > 1 {
            // arg2 goes to ecx directly.
            self.load_cell_into_ecx(temps[1])?;
            live.push(ECX);
        }
        self.load_const(EAX, Word::Const(nr), &live)?;
        live.push(EAX);
        self.emit(TypeKey::Syscall, None, &live)
    }

    fn cells(&self) -> Result<u32, ChainError> {
        Ok(self
            .img
            .symbol(runtime::CELLS)
            .ok_or_else(|| ChainError::UnknownGlobal(runtime::CELLS.into()))?
            .vaddr)
    }

    /// Emits `pop esp ; ret` with the new stack pointer.
    fn pivot_to(&mut self, new_esp: u32) -> Result<(), ChainError> {
        // A pivot gadget's single slot carries the new esp; the pivot
        // must be clean (no scratch preconditions can be prepped here).
        let idx = self.select_inner(TypeKey::PopEsp, &[EAX, ECX], true)?;
        let g = self.map.get(idx);
        self.push_gadget_word(g.vaddr);
        // Pivot gadgets are pop esp; ret shaped: every slot must be the
        // new esp (only slot 0 is actually consumed for 1-slot pivots).
        for _ in 0..g.slots.max(1) {
            self.chain.push(Word::Const(new_esp));
        }
        self.ops += 1;
        Ok(())
    }

    /// Emits *guard* invocations: every designated gadget is executed
    /// once at chain start, so tampering with any of them disturbs the
    /// chain deterministically (the paper's §IV-A explicit protection
    /// of chosen critical code). All registers are dead here; memory-
    /// touching registers are pre-pointed at scratch.
    fn emit_guards(&mut self, guards: &[u32]) -> Result<(), ChainError> {
        for &va in guards {
            let Some(idx) = self.map.index_of_vaddr(va) else {
                continue;
            };
            let g = self.map.get(idx);
            // Pivots, esp arithmetic, and syscalls cannot run blindly.
            let unsafe_effect = g
                .effects
                .iter()
                .any(|e| matches!(e, Effect::PopEsp | Effect::AddEsp { .. } | Effect::Syscall));
            if unsafe_effect || g.slots > 8 {
                continue;
            }
            // Point every address-bearing register at scratch.
            let mut addr_regs: Vec<Reg32> = g.mem_preconditions.clone();
            for e in &g.effects {
                match e {
                    Effect::LoadMem { addr, .. }
                    | Effect::StoreMem { addr, .. }
                    | Effect::AddMem { addr, .. }
                        if !addr_regs.contains(addr) =>
                    {
                        addr_regs.push(*addr);
                    }
                    _ => {}
                }
            }
            for r in addr_regs {
                let prep_idx = self.select_inner(TypeKey::LoadConst(r), &[], true)?;
                let pg = self.map.get(prep_idx);
                self.push_gadget_word(pg.vaddr);
                let vslot = match self.map.effect_of(prep_idx, TypeKey::LoadConst(r)) {
                    Some(Effect::LoadConst { slot, .. }) => *slot,
                    _ => 0,
                };
                for sidx in 0..pg.slots {
                    if sidx == vslot {
                        self.chain.push(Word::Const(self.scratch + 0x200));
                    } else {
                        self.chain.push(Word::Junk);
                    }
                }
                if pg.far {
                    self.pending_far = true;
                }
                self.ops += 1;
            }
            self.push_gadget_word(g.vaddr);
            for _ in 0..g.slots {
                self.chain.push(Word::Junk);
            }
            if g.far {
                self.pending_far = true;
            }
            self.ops += 1;
        }
        self.flush_far()
    }

    // ---- control flow -------------------------------------------------------

    /// Unconditional chain jump to `label`.
    fn jump(&mut self, label: ChainLabel) -> Result<(), ChainError> {
        self.flush_far()?;
        let delta_slot = {
            let idx = self.select_inner(TypeKey::LoadConst(EAX), &[], true)?;
            let g = self.map.get(idx);
            self.push_gadget_word(g.vaddr);
            let value_slot = match self.map.effect_of(idx, TypeKey::LoadConst(EAX)) {
                Some(Effect::LoadConst { slot, .. }) => *slot,
                _ => 0,
            };
            let mut marker = None;
            for s in 0..g.slots {
                if s == value_slot {
                    marker = Some(self.chain.push(Word::Junk)); // patched below
                } else {
                    self.chain.push(Word::Junk);
                }
            }
            if g.far {
                self.pending_far = true;
                self.flush_far()?;
            }
            self.ops += 1;
            marker.expect("LoadConst has a value slot")
        };
        // add esp, eax
        let idx = self.select(TypeKey::AddEsp(EAX), &[EAX])?;
        let g = self.map.get(idx);
        self.push_gadget_word(g.vaddr);
        for _ in 0..g.slots {
            self.chain.push(Word::Junk);
        }
        let anchor = self.chain.len();
        self.chain.set(delta_slot, Word::DeltaTo { label, anchor });
        self.ops += 1;
        Ok(())
    }

    /// Jump to `label` when `eax` (0/1) is zero.
    fn branch_if_zero(&mut self, label: ChainLabel) -> Result<(), ChainError> {
        self.flush_far()?;
        // mask = cond - 1 (0 -> -1, 1 -> 0)
        self.load_const(ECX, Word::Const(0xffff_ffff), &[EAX])?;
        self.binary(GBinOp::Add)?;
        // eax = mask & delta
        let delta_slot = {
            let idx = self.select_inner(TypeKey::LoadConst(ECX), &[EAX], true)?;
            let g = self.map.get(idx);
            self.push_gadget_word(g.vaddr);
            let value_slot = match self.map.effect_of(idx, TypeKey::LoadConst(ECX)) {
                Some(Effect::LoadConst { slot, .. }) => *slot,
                _ => 0,
            };
            let mut marker = None;
            for s in 0..g.slots {
                if s == value_slot {
                    marker = Some(self.chain.push(Word::Junk));
                } else {
                    self.chain.push(Word::Junk);
                }
            }
            if g.far {
                self.pending_far = true;
                self.flush_far()?;
            }
            self.ops += 1;
            marker.expect("LoadConst has a value slot")
        };
        self.binary(GBinOp::And)?;
        self.flush_far()?;
        // add esp, eax
        let idx = self.select(TypeKey::AddEsp(EAX), &[EAX])?;
        let g = self.map.get(idx);
        self.push_gadget_word(g.vaddr);
        for _ in 0..g.slots {
            self.chain.push(Word::Junk);
        }
        let anchor = self.chain.len();
        self.chain.set(delta_slot, Word::DeltaTo { label, anchor });
        self.ops += 1;
        Ok(())
    }

    // ---- statements -----------------------------------------------------------

    fn stmts(&mut self, body: &[Stmt]) -> Result<(), ChainError> {
        for s in body {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), ChainError> {
        match s {
            Stmt::Let(name, e) => {
                self.expr(e, 0)?;
                let addr = self.slot_addr(name)?;
                self.store_cell(addr)
            }
            Stmt::Store(a, v) => {
                self.expr(a, 0)?;
                let t = self.temp_addr(0)?;
                self.store_cell(t)?;
                self.expr(v, 1)?;
                self.load_cell_into_ecx(t)?;
                self.emit(TypeKey::StoreMem(ECX, EAX), None, &[EAX, ECX])
            }
            Stmt::Store8(a, v) => {
                // w = ([a] & ~0xff) | (v & 0xff); word-store w at a.
                let t_addr = self.temp_addr(0)?;
                let t_val = self.temp_addr(1)?;
                self.expr(a, 0)?;
                self.store_cell(t_addr)?;
                self.expr(v, 2)?;
                self.load_const(ECX, Word::Const(0xff), &[EAX])?;
                self.binary(GBinOp::And)?;
                self.store_cell(t_val)?;
                self.load_cell_into_ecx(t_addr)?;
                self.emit(TypeKey::LoadMem(EAX, ECX), None, &[ECX])?; // old word
                self.load_const(ECX, Word::Const(0xffff_ff00), &[EAX])?;
                self.binary(GBinOp::And)?;
                self.load_cell_into_ecx(t_val)?;
                self.binary(GBinOp::Or)?; // eax = new word
                self.load_cell_into_ecx(t_addr)?;
                self.emit(TypeKey::StoreMem(ECX, EAX), None, &[EAX, ECX])
            }
            Stmt::Expr(e) => self.expr(e, 0),
            Stmt::If(cond, then, els) => {
                self.expr(cond, 0)?;
                let else_l = self.chain.label();
                self.branch_if_zero(else_l)?;
                self.stmts(then)?;
                if els.is_empty() {
                    self.flush_far()?;
                    self.chain.bind(else_l);
                } else {
                    let end_l = self.chain.label();
                    self.jump(end_l)?;
                    self.chain.bind(else_l);
                    self.stmts(els)?;
                    self.flush_far()?;
                    self.chain.bind(end_l);
                }
                Ok(())
            }
            Stmt::While(cond, body) => {
                self.flush_far()?;
                let top = self.chain.label();
                self.chain.bind(top);
                let end = self.chain.label();
                self.expr(cond, 0)?;
                self.branch_if_zero(end)?;
                self.loops.push((top, end));
                self.stmts(body)?;
                self.loops.pop();
                self.jump(top)?;
                self.chain.bind(end);
                Ok(())
            }
            Stmt::Break => {
                let (_, end) = *self.loops.last().ok_or(ChainError::NotInLoop)?;
                self.jump(end)
            }
            Stmt::Continue => {
                let (top, _) = *self.loops.last().ok_or(ChainError::NotInLoop)?;
                self.jump(top)
            }
            Stmt::Return(e) => {
                self.expr(e, 0)?;
                let cells = self.cells()?;
                self.store_cell((cells as i64 + runtime::CELL_RET as i64) as u32)?;
                self.jump(self.epilogue)
            }
        }
    }
}

/// Compiles `func` into a verification chain against the gadgets of
/// `img` (the preliminary protected image).
///
/// `frame_base` is the address of the function's chain frame
/// (size ≥ [`frame_size`]); `scratch` is a writable scratch address for
/// gadget memory preconditions.
pub fn compile_chain(
    func: &Function,
    map: &GadgetMap,
    img: &LinkedImage,
    frame_base: u32,
    scratch: u32,
    policy: Policy,
) -> Result<CompiledChain, ChainError> {
    compile_chain_with_guards(func, map, img, frame_base, scratch, policy, &[])
}

/// Like [`compile_chain`], additionally executing each gadget in
/// `guards` (by vaddr) once at chain start — deterministic coverage of
/// explicitly designated critical code (paper §IV-A).
#[allow(clippy::too_many_arguments)]
pub fn compile_chain_with_guards(
    func: &Function,
    map: &GadgetMap,
    img: &LinkedImage,
    frame_base: u32,
    scratch: u32,
    policy: Policy,
    guards: &[u32],
) -> Result<CompiledChain, ChainError> {
    compile_chain_traced(func, map, img, frame_base, scratch, policy, guards, None)
}

/// [`compile_chain_with_guards`] with optional tracing: a span per
/// chain (`chain:<func>` in the `ropc` lane) and gadget-preference
/// counters (`chain.pick.overlapping` vs `chain.pick.other` — the
/// paper's §IV-B metric), accumulated over every selection the
/// compiler makes.
#[allow(clippy::too_many_arguments)]
pub fn compile_chain_traced(
    func: &Function,
    map: &GadgetMap,
    img: &LinkedImage,
    frame_base: u32,
    scratch: u32,
    policy: Policy,
    guards: &[u32],
    trace: Option<&Tracer>,
) -> Result<CompiledChain, ChainError> {
    let span = trace.map(|t| t.span(&format!("chain:{}", func.name), "ropc"));
    let seed = match &policy {
        Policy::First => 0x1337,
        Policy::PreferOverlapping { seed, .. } | Policy::Grouped { seed } => *seed | 1,
    };
    let overlap_index = match &policy {
        Policy::PreferOverlapping { ranges, .. } => Some(RangeSet::new(ranges)),
        _ => None,
    };
    let mut ctx = Ctx {
        map,
        img,
        policy,
        rng: seed,
        chain: Chain::new(),
        pending_far: false,
        func,
        frame_base,
        scratch,
        locals: func.locals(),
        loops: Vec::new(),
        epilogue: ChainLabel(usize::MAX), // replaced below
        ops: 0,
        picks_overlapping: 0,
        picks_other: 0,
        overlap_index,
    };
    let epilogue = ctx.chain.label();
    ctx.epilogue = epilogue;

    ctx.emit_guards(guards)?;
    ctx.stmts(&func.body)?;
    // Fall-through returns 0.
    let cells = ctx.cells()?;
    ctx.load_const(EAX, Word::Const(0), &[])?;
    ctx.store_cell((cells as i64 + runtime::CELL_RET as i64) as u32)?;
    ctx.flush_far()?;
    ctx.chain.bind(epilogue);

    // Epilogue: pivot to the exit slot.
    let exitslot = img
        .symbol(runtime::EXITSLOT)
        .ok_or_else(|| ChainError::UnknownGlobal(runtime::EXITSLOT.into()))?
        .vaddr;
    ctx.pivot_to(exitslot)?;

    let used_gadgets = ctx.chain.gadget_addrs();
    if let Some(t) = trace {
        t.count("chain.pick.overlapping", ctx.picks_overlapping);
        t.count("chain.pick.other", ctx.picks_other);
    }
    drop(span);
    Ok(CompiledChain {
        chain: ctx.chain,
        used_gadgets,
        ops: ctx.ops,
    })
}
