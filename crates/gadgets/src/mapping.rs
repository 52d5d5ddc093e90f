//! The gadget mapping: typed lookup over a gadget collection.
//!
//! This is Parallax's "gadget mapping" (§III): the verification-code
//! compiler asks for gadgets by type (operation + operand registers)
//! and receives all known implementations, so it can prefer gadgets
//! that overlap protected instructions (§III step 4) or choose
//! randomly among equivalents (§V-B probabilistic chains).

use std::collections::HashMap;

use parallax_x86::{Reg32, ShiftOp};

use crate::types::{Effect, GBinOp, Gadget};

/// A type key: an [`Effect`] with position details (slot indices,
/// displacements) erased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeKey {
    /// Constant load into a register.
    LoadConst(Reg32),
    /// Register move.
    MovReg(Reg32, Reg32),
    /// Binary operation.
    Binary(GBinOp, Reg32, Reg32),
    /// Negation.
    Neg(Reg32),
    /// Bitwise NOT.
    Not(Reg32),
    /// Memory load (dst, addr-base).
    LoadMem(Reg32, Reg32),
    /// Memory store (addr-base, src).
    StoreMem(Reg32, Reg32),
    /// Memory add-in-place (addr-base, src).
    AddMem(Reg32, Reg32),
    /// Stack pivot.
    PopEsp,
    /// `esp += src`.
    AddEsp(Reg32),
    /// `int 0x80`.
    Syscall,
    /// Shift by `cl`.
    ShiftCl(ShiftOp, Reg32),
    /// Chain NOP.
    Nop,
}

impl TypeKey {
    /// The key under which an effect is indexed.
    pub fn of(e: &Effect) -> Option<TypeKey> {
        Some(match *e {
            Effect::LoadConst { dst, .. } => TypeKey::LoadConst(dst),
            Effect::MovReg { dst, src } => TypeKey::MovReg(dst, src),
            Effect::Binary { op, dst, src } => TypeKey::Binary(op, dst, src),
            Effect::Neg { dst } => TypeKey::Neg(dst),
            Effect::Not { dst } => TypeKey::Not(dst),
            Effect::LoadMem { dst, addr, .. } => TypeKey::LoadMem(dst, addr),
            Effect::StoreMem { addr, src, .. } => TypeKey::StoreMem(addr, src),
            Effect::AddMem { addr, src, .. } => TypeKey::AddMem(addr, src),
            Effect::PopEsp => TypeKey::PopEsp,
            Effect::AddEsp { src } => TypeKey::AddEsp(src),
            Effect::Syscall => TypeKey::Syscall,
            Effect::ShiftCl { op, dst } => TypeKey::ShiftCl(op, dst),
            Effect::Nop => TypeKey::Nop,
            Effect::MovLow8 { .. } => return None, // not indexed for chains
        })
    }
}

/// A typed index over a gadget arena.
#[derive(Debug, Clone, Default)]
pub struct GadgetMap {
    gadgets: Vec<Gadget>,
    by_type: HashMap<TypeKey, Vec<usize>>,
    by_vaddr: HashMap<u32, usize>,
}

impl GadgetMap {
    /// Builds the mapping from a gadget collection.
    pub fn new(gadgets: Vec<Gadget>) -> GadgetMap {
        let mut by_type: HashMap<TypeKey, Vec<usize>> = HashMap::new();
        let mut by_vaddr: HashMap<u32, usize> = HashMap::new();
        for (i, g) in gadgets.iter().enumerate() {
            for e in &g.effects {
                if let Some(key) = TypeKey::of(e) {
                    by_type.entry(key).or_default().push(i);
                }
            }
            // First-match wins, matching the linear `find` this index
            // replaces: duplicate vaddrs keep the lowest arena index.
            by_vaddr.entry(g.vaddr).or_insert(i);
        }
        GadgetMap {
            gadgets,
            by_type,
            by_vaddr,
        }
    }

    /// Arena index of the first gadget whose `vaddr` equals `vaddr`,
    /// equivalent to `(0..gadgets.len()).find(|&i| get(i).vaddr == vaddr)`
    /// but O(1).
    pub fn index_of_vaddr(&self, vaddr: u32) -> Option<usize> {
        self.by_vaddr.get(&vaddr).copied()
    }

    /// All gadgets.
    pub fn gadgets(&self) -> &[Gadget] {
        &self.gadgets
    }

    /// The gadget at arena index `i`.
    pub fn get(&self, i: usize) -> &Gadget {
        &self.gadgets[i]
    }

    /// Arena indices of gadgets implementing `key`.
    pub fn lookup(&self, key: TypeKey) -> &[usize] {
        self.by_type.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct type keys available.
    pub fn type_count(&self) -> usize {
        self.by_type.len()
    }

    /// Iterates over `(key, implementing gadget count)` pairs.
    pub fn type_histogram(&self) -> impl Iterator<Item = (&TypeKey, usize)> {
        self.by_type.iter().map(|(k, v)| (k, v.len()))
    }

    /// Finds the effect of gadget `i` matching `key` (recovering slot
    /// indices and displacements the key erased).
    pub fn effect_of(&self, i: usize, key: TypeKey) -> Option<&Effect> {
        self.gadgets[i]
            .effects
            .iter()
            .find(|e| TypeKey::of(e) == Some(key))
    }
}

/// A sorted interval index over protected ranges, answering the §IV-B
/// overlap-preference query (`ranges.iter().any(|&(s, e)| g.overlaps(s, e))`)
/// with a binary search instead of an O(ranges) walk per candidate.
///
/// [`Gadget::overlaps`] expands to `s < gadget_end && gadget_start < e`,
/// which for an *empty* range (`s >= e`) still matches gadgets strictly
/// containing the point `s`. To stay answer-for-answer identical with
/// the linear scan, proper ranges (`s < e`) are sorted and merged for
/// binary search while degenerate ranges are kept on a linear side
/// list (they are rare to nonexistent in practice).
#[derive(Debug, Clone, Default)]
pub struct RangeSet {
    /// Proper ranges, sorted by start and merged (non-overlapping).
    merged: Vec<(u32, u32)>,
    /// Ranges with `start >= end`, checked with the raw predicate.
    degenerate: Vec<(u32, u32)>,
}

impl RangeSet {
    /// Builds the index from `(start, end)` half-open ranges.
    pub fn new(ranges: &[(u32, u32)]) -> RangeSet {
        let mut proper: Vec<(u32, u32)> = ranges.iter().copied().filter(|&(s, e)| s < e).collect();
        let degenerate = ranges.iter().copied().filter(|&(s, e)| s >= e).collect();
        proper.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(proper.len());
        for (s, e) in proper {
            match merged.last_mut() {
                // Merge touching ranges too: for the non-empty query
                // intervals gadgets produce (len >= 1), union-of-touching
                // preserves the existential overlap answer.
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        RangeSet { merged, degenerate }
    }

    /// Whether any range overlaps the interval `[start, end)`, exactly
    /// matching `ranges.iter().any(|&(s, e)| s < end && start < e)`.
    pub fn overlaps(&self, start: u32, end: u32) -> bool {
        let i = self.merged.partition_point(|&(s, _)| s < end);
        if i > 0 && self.merged[i - 1].1 > start {
            return true;
        }
        self.degenerate.iter().any(|&(s, e)| s < end && start < e)
    }

    /// Whether `point` lies inside any range (`s <= point < e`),
    /// matching `ranges.iter().any(|&(s, e)| point >= s && point < e)`.
    /// Degenerate ranges can never satisfy that predicate, so only the
    /// merged proper ranges are consulted.
    pub fn contains(&self, point: u32) -> bool {
        let i = self.merged.partition_point(|&(s, _)| s <= point);
        i > 0 && self.merged[i - 1].1 > point
    }

    /// True when no range (proper or degenerate) was supplied.
    pub fn is_empty(&self) -> bool {
        self.merged.is_empty() && self.degenerate.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::GadgetRecord;

    fn g(vaddr: u32, effects: Vec<Effect>) -> Gadget {
        Gadget::new(
            vaddr,
            GadgetRecord {
                len: 2,
                far: false,
                slots: 1,
                effects,
                clobbers: vec![],
                mem_preconditions: vec![],
                disasm: String::new(),
                insn_count: 2,
            },
        )
    }

    #[test]
    fn lookup_by_type() {
        let map = GadgetMap::new(vec![
            g(
                0x1000,
                vec![Effect::LoadConst {
                    dst: Reg32::Eax,
                    slot: 0,
                }],
            ),
            g(
                0x2000,
                vec![
                    Effect::LoadConst {
                        dst: Reg32::Eax,
                        slot: 1,
                    },
                    Effect::LoadConst {
                        dst: Reg32::Ecx,
                        slot: 0,
                    },
                ],
            ),
        ]);
        assert_eq!(map.lookup(TypeKey::LoadConst(Reg32::Eax)).len(), 2);
        assert_eq!(map.lookup(TypeKey::LoadConst(Reg32::Ecx)), &[1]);
        assert!(map.lookup(TypeKey::PopEsp).is_empty());
        let e = map.effect_of(1, TypeKey::LoadConst(Reg32::Ecx)).unwrap();
        assert!(matches!(e, Effect::LoadConst { slot: 0, .. }));
        assert_eq!(map.type_count(), 2);
    }

    /// Deterministic xorshift so the "randomized" arenas are stable.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    #[test]
    fn vaddr_index_matches_linear_scan_on_randomized_arena() {
        let mut rng = 0x5eed_0001u64;
        for _ in 0..32 {
            // Small vaddr space so duplicate vaddrs occur and the
            // first-match tie-break is actually exercised.
            let n = 1 + (xorshift(&mut rng) % 64) as usize;
            let gadgets: Vec<Gadget> = (0..n)
                .map(|_| g((xorshift(&mut rng) % 96) as u32, vec![Effect::Nop]))
                .collect();
            let map = GadgetMap::new(gadgets.clone());
            for va in 0..96u32 {
                let linear = (0..gadgets.len()).find(|&i| gadgets[i].vaddr == va);
                assert_eq!(map.index_of_vaddr(va), linear, "vaddr {va:#x}");
            }
        }
    }

    #[test]
    fn range_set_matches_linear_scan_on_randomized_ranges() {
        let mut rng = 0x5eed_0002u64;
        for _ in 0..64 {
            let n = (xorshift(&mut rng) % 12) as usize;
            let ranges: Vec<(u32, u32)> = (0..n)
                .map(|_| {
                    let s = (xorshift(&mut rng) % 128) as u32;
                    let e = (xorshift(&mut rng) % 128) as u32;
                    (s, e) // may be empty or inverted on purpose
                })
                .collect();
            let set = RangeSet::new(&ranges);
            assert_eq!(set.is_empty(), ranges.is_empty());
            for start in 0..128u32 {
                for len in [1u32, 2, 5, 17] {
                    let end = start.saturating_add(len);
                    let linear = ranges.iter().any(|&(s, e)| s < end && start < e);
                    assert_eq!(
                        set.overlaps(start, end),
                        linear,
                        "ranges {ranges:?} query [{start}, {end})"
                    );
                }
                let linear_pt = ranges.iter().any(|&(s, e)| start >= s && start < e);
                assert_eq!(
                    set.contains(start),
                    linear_pt,
                    "ranges {ranges:?} pt {start}"
                );
            }
        }
    }
}
