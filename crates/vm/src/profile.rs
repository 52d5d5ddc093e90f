//! Flat per-function cycle and call-count attribution.
//!
//! The verification-function selection algorithm of the paper (§VII-B)
//! needs two runtime facts per function: how often it is called, and
//! what fraction of total execution time it accounts for. The profiler
//! attributes each retired instruction's cycles to the function whose
//! range contains `eip` (flat profile, no call-graph accumulation).
//!
//! The block engine resolves each predecoded instruction's function
//! once, when it builds the block, and then charges a whole block's
//! cycles with one entry when all of its instructions fall in the same
//! function (DESIGN.md §10).

use std::collections::HashMap;

/// The profile slot of an address no known function covers.
pub(crate) const NO_FUNC: u32 = u32::MAX;

/// Per-function profile counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncProfile {
    /// Cycles retired while `eip` was inside the function.
    pub cycles: u64,
    /// Number of `call` instructions that targeted the function's
    /// entry point.
    pub calls: u64,
}

/// A flat execution profiler.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    /// Sorted (start, end, name-index) ranges.
    ranges: Vec<(u32, u32, usize)>,
    names: Vec<String>,
    entry_of: HashMap<u32, usize>,
    stats: Vec<FuncProfile>,
    /// Cycles attributed to no known function.
    pub other_cycles: u64,
    /// Total cycles observed.
    pub total_cycles: u64,
}

impl Profiler {
    /// Builds a profiler from `(name, start_vaddr, size)` triples.
    pub fn new(funcs: impl IntoIterator<Item = (String, u32, u32)>) -> Profiler {
        let mut p = Profiler::default();
        for (name, start, size) in funcs {
            let idx = p.names.len();
            p.names.push(name);
            p.ranges.push((start, start + size.max(1), idx));
            p.entry_of.insert(start, idx);
            p.stats.push(FuncProfile::default());
        }
        p.ranges.sort_unstable();
        p
    }

    /// The slot of the function containing `eip`, or [`NO_FUNC`]: the
    /// last range starting at or below `eip`, if it reaches `eip`.
    pub(crate) fn slot_of(&self, eip: u32) -> u32 {
        let pos = self.ranges.partition_point(|&(s, _, _)| s <= eip);
        match pos.checked_sub(1).map(|p| self.ranges[p]) {
            Some((_, e, idx)) if eip < e => idx as u32,
            _ => NO_FUNC,
        }
    }

    /// The slot of the function whose entry point is `entry`, or
    /// [`NO_FUNC`].
    pub(crate) fn entry_slot(&self, entry: u32) -> u32 {
        self.entry_of.get(&entry).map_or(NO_FUNC, |&idx| idx as u32)
    }

    /// Attributes `cycles` to a resolved slot.
    #[inline]
    pub(crate) fn add(&mut self, slot: u32, cycles: u64) {
        self.total_cycles += cycles;
        match self.stats.get_mut(slot as usize) {
            Some(f) => f.cycles += cycles,
            None => self.other_cycles += cycles,
        }
    }

    /// Counts a call into a resolved slot.
    #[inline]
    pub(crate) fn add_call(&mut self, slot: u32) {
        if let Some(f) = self.stats.get_mut(slot as usize) {
            f.calls += 1;
        }
    }

    /// Attributes `cycles` to the function containing `eip`.
    pub fn record(&mut self, eip: u32, cycles: u64) {
        self.add(self.slot_of(eip), cycles);
    }

    /// Records a call whose target is `entry`.
    pub fn record_call(&mut self, entry: u32) {
        self.add_call(self.entry_slot(entry));
    }

    /// Profile for a function by name.
    pub fn func(&self, name: &str) -> Option<&FuncProfile> {
        let idx = self.names.iter().position(|n| n == name)?;
        Some(&self.stats[idx])
    }

    /// Fraction of total cycles spent in `name` (0.0 if never seen).
    pub fn fraction(&self, name: &str) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        match self.func(name) {
            Some(f) => f.cycles as f64 / self.total_cycles as f64,
            None => 0.0,
        }
    }

    /// Iterates `(name, profile)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FuncProfile)> {
        self.names.iter().map(String::as_str).zip(self.stats.iter())
    }

    /// The profile ranked by cycle share, hottest first, dropping
    /// functions below `min_fraction` of total cycles. Each row is
    /// `(name, fraction, calls)` with `fraction` in `[0, 1]`.
    pub fn hotspots(&self, min_fraction: f64) -> Vec<(String, f64, u64)> {
        let mut rows: Vec<(String, f64, u64)> = self
            .iter()
            .map(|(n, fp)| (n.to_owned(), self.fraction(n), fp.calls))
            .filter(|&(_, f, _)| f > min_fraction)
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution() {
        let mut p = Profiler::new(vec![
            ("a".to_owned(), 0x1000, 0x10),
            ("b".to_owned(), 0x1010, 0x10),
        ]);
        p.record(0x1000, 5);
        p.record(0x100f, 5);
        p.record(0x1010, 7);
        p.record(0x2000, 3);
        assert_eq!(p.func("a").unwrap().cycles, 10);
        assert_eq!(p.func("b").unwrap().cycles, 7);
        assert_eq!(p.other_cycles, 3);
        assert_eq!(p.total_cycles, 20);
        assert!((p.fraction("a") - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hotspots_rank_by_cycle_share() {
        let mut p = Profiler::new(vec![
            ("cold".to_owned(), 0x1000, 0x10),
            ("hot".to_owned(), 0x1010, 0x10),
        ]);
        p.record(0x1000, 1);
        p.record(0x1010, 99);
        let rows = p.hotspots(0.005);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "hot");
        assert!((rows[0].1 - 0.99).abs() < 1e-9);
        assert_eq!(p.hotspots(0.5).len(), 1, "cold falls under the floor");
    }

    #[test]
    fn adjacent_ranges_attribute_exactly() {
        // b starts exactly where a ends: the shared boundary address
        // belongs to b, and bouncing between the two attributes
        // correctly.
        let mut p = Profiler::new(vec![
            ("a".to_owned(), 0x1000, 0x10),
            ("b".to_owned(), 0x1010, 0x10),
        ]);
        for _ in 0..3 {
            p.record(0x100f, 1); // last byte of a
            p.record(0x1010, 1); // first byte of b
        }
        assert_eq!(p.func("a").unwrap().cycles, 3);
        assert_eq!(p.func("b").unwrap().cycles, 3);
        assert_eq!(p.other_cycles, 0);
    }

    #[test]
    fn zero_size_function_occupies_one_byte() {
        // A zero-size symbol gets a 1-byte range (size.max(1)): its
        // entry address attributes to it, the next byte does not. The
        // ranges here are sorted differently from insertion order.
        let mut p = Profiler::new(vec![
            ("after".to_owned(), 0x2001, 0x10),
            ("empty".to_owned(), 0x2000, 0),
        ]);
        p.record(0x2000, 5);
        p.record(0x2000, 2);
        p.record(0x2001, 7); // adjacent range
        p.record(0x1fff, 1); // below every range
        assert_eq!(p.func("empty").unwrap().cycles, 7);
        assert_eq!(p.func("after").unwrap().cycles, 7);
        assert_eq!(p.other_cycles, 1);
        assert_eq!(p.total_cycles, 15);
    }

    #[test]
    fn call_counting() {
        let mut p = Profiler::new(vec![("f".to_owned(), 0x1000, 4)]);
        p.record_call(0x1000);
        p.record_call(0x1000);
        p.record_call(0x1002); // mid-function target is not an entry
        assert_eq!(p.func("f").unwrap().calls, 2);
    }
}
