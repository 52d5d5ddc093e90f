//! The cycle-cost model.
//!
//! Parallax's evaluation hinges on *relative* timing: a ROP gadget
//! chain is much slower than the equivalent native code because every
//! gadget ends in a `ret` whose target the return-stack buffer (RSB)
//! cannot predict, and because each operation costs extra stack
//! traffic. The model below charges per-instruction costs calibrated
//! to a generic out-of-order x86: simple ALU ops are cheap, memory
//! operations cost a cached load/store, and a `ret` that does not match
//! the RSB top pays a branch-mispredict penalty. Absolute numbers are
//! not meant to match any specific CPU; the paper's slowdown *shape*
//! (one to two orders of magnitude per translated function) emerges
//! from the predict/mispredict asymmetry.

/// Per-instruction-class cycle costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Simple register ALU operation, move, push/pop register work.
    pub alu: u64,
    /// Additional cost of a memory operand (load or store).
    pub mem: u64,
    /// Not-taken conditional branch.
    pub branch_not_taken: u64,
    /// Taken branch (correctly predicted direct jump).
    pub branch_taken: u64,
    /// `call` (pushes the return address, trains the RSB).
    pub call: u64,
    /// `ret` whose target matches the return-stack buffer.
    pub ret_predicted: u64,
    /// `ret` whose target was NOT predicted — the ROP case.
    pub ret_mispredict: u64,
    /// Multiply.
    pub mul: u64,
    /// Divide.
    pub div: u64,
    /// Syscall round trip.
    pub syscall: u64,
    /// `pushad`/`popad`.
    pub pushad: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            alu: 1,
            mem: 3,
            branch_not_taken: 1,
            branch_taken: 2,
            call: 3,
            ret_predicted: 2,
            ret_mispredict: 24,
            mul: 4,
            div: 20,
            syscall: 150,
            pushad: 9,
        }
    }
}

impl CostModel {
    /// An upper bound on the cycles any one instruction is charged:
    /// every class cost, summed. The block engine multiplies it by a
    /// block's length to decide, at block entry, that no instruction of
    /// the block can reach the cycle limit (DESIGN.md §10).
    pub(crate) fn insn_bound(&self) -> u64 {
        [
            self.alu,
            self.mem,
            self.mem,
            self.branch_not_taken,
            self.branch_taken,
            self.call,
            self.ret_predicted,
            self.ret_mispredict,
            self.mul,
            self.div,
            self.syscall,
            self.pushad,
        ]
        .into_iter()
        .fold(0, u64::saturating_add)
    }
}

/// Depth of the simulated return-stack buffer. Matches common
/// microarchitectures (16 entries).
pub const RSB_DEPTH: usize = 16;

/// A simulated return-stack buffer.
///
/// `call` pushes the return address; `ret` pops and reports whether the
/// actual target matched the prediction. Overflow overwrites the oldest
/// entry (circular), underflow always mispredicts.
#[derive(Debug, Clone)]
pub struct ReturnStackBuffer {
    ring: [u32; RSB_DEPTH],
    top: usize,
    len: usize,
}

impl Default for ReturnStackBuffer {
    fn default() -> ReturnStackBuffer {
        ReturnStackBuffer {
            ring: [0; RSB_DEPTH],
            top: 0,
            len: 0,
        }
    }
}

impl ReturnStackBuffer {
    /// Records a `call`'s return address.
    pub fn push(&mut self, ret_addr: u32) {
        self.ring[self.top] = ret_addr;
        self.top = (self.top + 1) % RSB_DEPTH;
        self.len = (self.len + 1).min(RSB_DEPTH);
    }

    /// Pops a prediction for a `ret`; returns true if `actual` matches.
    pub fn pop_and_check(&mut self, actual: u32) -> bool {
        if self.len == 0 {
            return false;
        }
        self.top = (self.top + RSB_DEPTH - 1) % RSB_DEPTH;
        self.len -= 1;
        self.ring[self.top] == actual
    }

    /// Clears all predictions.
    pub fn clear(&mut self) {
        self.len = 0;
        self.top = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_call_ret_predicts() {
        let mut rsb = ReturnStackBuffer::default();
        rsb.push(0x1000);
        rsb.push(0x2000);
        assert!(rsb.pop_and_check(0x2000));
        assert!(rsb.pop_and_check(0x1000));
        assert!(!rsb.pop_and_check(0x1000)); // underflow
    }

    #[test]
    fn rop_ret_mispredicts() {
        let mut rsb = ReturnStackBuffer::default();
        rsb.push(0x1000);
        // A ROP ret goes to a gadget, not the recorded return address.
        assert!(!rsb.pop_and_check(0x5555));
    }

    #[test]
    fn overflow_is_circular() {
        let mut rsb = ReturnStackBuffer::default();
        for i in 0..(RSB_DEPTH as u32 + 4) {
            rsb.push(i);
        }
        // The newest entries survive.
        for i in (4..RSB_DEPTH as u32 + 4).rev() {
            assert!(rsb.pop_and_check(i), "entry {i}");
        }
        assert!(!rsb.pop_and_check(3));
    }

    #[test]
    fn default_costs_penalize_rop() {
        let c = CostModel::default();
        assert!(c.ret_mispredict >= 10 * c.ret_predicted);
        assert!(c.mem > c.alu);
    }
}
