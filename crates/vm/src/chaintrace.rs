//! Gadget-granular telemetry for verification-chain execution.
//!
//! A Parallax verification chain *is* a ROP payload: once a protected
//! function's loader stub pivots into it, control flow becomes a
//! sequence of `ret`-driven gadget dispatches. The flat profiler
//! cannot see inside that (every gadget lives inside some *other*
//! function's range) — so the [`ChainTracer`] watches the VM's
//! `ret`/`call` retirement directly:
//!
//! * a `call` into a registered **verification entry** opens an
//!   *episode* attributed to that protected function;
//! * every `ret` landing on a registered **gadget address** while an
//!   episode is open is one *dispatch*.
//!
//! The tracer runs on every `ret`, so a dispatch costs 8 bytes of log:
//! the gadget's vaddr and the cycles since the episode's previous
//! dispatch ([`Dispatch`]). Everything else is derived by
//! [`ChainTracer::events`]: each episode's dispatches are contiguous in
//! the log, so the episode follows from the [`Episode::dispatches`]
//! counts, the kind from the gadget's registration, and the cycle
//! stamp from the episode's start plus the running gaps.
//!
//! Episodes and dispatches are cycle-stamped, and VM cycles are
//! deterministic — so [`ChainTracer::export_to`] can lay the whole
//! chain execution out on a dedicated *cycle-denominated* trace lane
//! that is byte-identical across repeat runs: one span per episode
//! (`chain:<func>`), one instant per gadget dispatch, plus the
//! counters and histograms `plx report` aggregates (per-function
//! invocations/cycles/dispatches, dispatch-kind tallies, cycles per
//! verification invocation).

use std::collections::HashMap;

use parallax_trace::Tracer;

/// The [`Dispatch::gap`] of a dispatch whose gap does not fit in a
/// `u32`: the exact gap is the next entry of the tracer's side list.
const WIDE: u32 = u32::MAX;

/// One gadget dispatch as the log stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// The gadget's virtual address (the `ret` target).
    pub vaddr: u32,
    /// Cycles since the episode's previous dispatch (or its start), or
    /// [`WIDE`].
    gap: u32,
}

/// One gadget dispatch with its derived fields, as
/// [`ChainTracer::events`] reconstructs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchEvent {
    /// Episode index this dispatch belongs to (the open episode's is
    /// `episodes().len()`).
    pub episode: usize,
    /// The gadget's virtual address (the `ret` target).
    pub vaddr: u32,
    /// Index into [`ChainTracer::kinds`].
    pub kind: usize,
    /// VM cycle count at dispatch.
    pub at_cycles: u64,
    /// Cycles since the episode's previous dispatch (or its start).
    pub cycles: u64,
}

/// One verification-chain execution, attributed to a protected
/// function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Episode {
    /// The verification function invoked, as an index into the
    /// tracer's interned names ([`ChainTracer::func_name`]).
    pub func: usize,
    /// VM cycle count when the function was called.
    pub start_cycles: u64,
    /// VM cycle count at the last dispatch (== `start_cycles` when the
    /// episode saw none).
    pub end_cycles: u64,
    /// Gadget dispatches observed.
    pub dispatches: u64,
}

impl Episode {
    /// Cycles from entry to the last gadget dispatch.
    pub fn cycles(&self) -> u64 {
        self.end_cycles - self.start_cycles
    }
}

#[derive(Debug, Clone)]
struct OpenEpisode {
    func: usize,
    start_cycles: u64,
    last_cycles: u64,
    dispatches: u64,
}

/// Records per-gadget dispatch events during verification-chain
/// execution (see the module docs). Install on a VM with
/// [`crate::Vm::set_chain_tracer`] before running.
#[derive(Debug, Clone, Default)]
pub struct ChainTracer {
    gadget_kind: HashMap<u32, usize>,
    /// Interned gadget-kind names (e.g. `"LoadConst"`, `"StoreMem"`).
    pub kinds: Vec<String>,
    /// `(entry, index into funcs)`; a program has a few verification
    /// functions, so a scan beats hashing on every `call`.
    verify_entry: Vec<(u32, usize)>,
    funcs: Vec<String>,
    episodes: Vec<Episode>,
    dispatches: Vec<Dispatch>,
    /// The exact gaps of the [`WIDE`] dispatches, in log order.
    wide_gaps: Vec<u64>,
    open: Option<OpenEpisode>,
}

impl ChainTracer {
    /// Creates an empty tracer; register gadgets and verification
    /// entries before running the VM.
    pub fn new() -> ChainTracer {
        ChainTracer::default()
    }

    /// Registers a gadget address with a kind label (interned).
    pub fn register_gadget(&mut self, vaddr: u32, kind: &str) {
        let idx = match self.kinds.iter().position(|k| k == kind) {
            Some(i) => i,
            None => {
                self.kinds.push(kind.to_string());
                self.kinds.len() - 1
            }
        };
        self.gadget_kind.insert(vaddr, idx);
    }

    /// Registers a verification function's entry address.
    pub fn register_verify(&mut self, entry: u32, func: &str) {
        let idx = match self.funcs.iter().position(|f| f == func) {
            Some(i) => i,
            None => {
                self.funcs.push(func.to_string());
                self.funcs.len() - 1
            }
        };
        match self.verify_entry.iter_mut().find(|(e, _)| *e == entry) {
            Some(slot) => slot.1 = idx,
            None => self.verify_entry.push((entry, idx)),
        }
    }

    /// VM hook: a `call` retired with the given target.
    pub fn note_call(&mut self, target: u32, cycles: u64) {
        if let Some(&(_, func)) = self.verify_entry.iter().find(|(e, _)| *e == target) {
            self.close_open();
            self.open = Some(OpenEpisode {
                func,
                start_cycles: cycles,
                last_cycles: cycles,
                dispatches: 0,
            });
        }
    }

    /// VM hook: a `ret` (near or far) retired with the given target.
    pub fn note_ret(&mut self, target: u32, cycles: u64) {
        let Some(open) = self.open.as_mut() else {
            return;
        };
        if !self.gadget_kind.contains_key(&target) {
            return;
        }
        let gap = cycles.saturating_sub(open.last_cycles);
        let gap = match u32::try_from(gap) {
            Ok(g) if g != WIDE => g,
            _ => {
                self.wide_gaps.push(gap);
                WIDE
            }
        };
        self.dispatches.push(Dispatch { vaddr: target, gap });
        open.last_cycles = cycles;
        open.dispatches += 1;
    }

    fn close_open(&mut self) {
        if let Some(open) = self.open.take() {
            self.episodes.push(Episode {
                func: open.func,
                start_cycles: open.start_cycles,
                end_cycles: open.last_cycles,
                dispatches: open.dispatches,
            });
        }
    }

    /// Closes any episode still open and trims the log to its length
    /// (call after the VM exits).
    pub fn finish(&mut self) {
        self.close_open();
        self.dispatches.shrink_to_fit();
        self.wide_gaps.shrink_to_fit();
    }

    /// Completed episodes, in execution order.
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// The name of the verification function `episode` invoked.
    pub fn func_name(&self, episode: &Episode) -> &str {
        &self.funcs[episode.func]
    }

    /// All gadget dispatches, in execution order.
    pub fn dispatches(&self) -> &[Dispatch] {
        &self.dispatches
    }

    /// Heap bytes the dispatch log holds: its capacity, plus the side
    /// list of gaps too wide for a [`Dispatch`].
    pub fn log_bytes(&self) -> usize {
        self.dispatches.capacity() * std::mem::size_of::<Dispatch>()
            + self.wide_gaps.capacity() * std::mem::size_of::<u64>()
    }

    /// Every dispatch with its episode, kind and cycle stamp, in
    /// execution order.
    pub fn events(&self) -> impl Iterator<Item = DispatchEvent> + '_ {
        DispatchEvents {
            ct: self,
            next: 0,
            episodes: 0,
            left: 0,
            at_cycles: 0,
            wide: 0,
        }
    }

    /// Episode `i`'s function index, start cycle and dispatch count;
    /// `i == episodes().len()` is the open episode, if any.
    fn episode(&self, i: usize) -> Option<(usize, u64, u64)> {
        match self.episodes.get(i) {
            Some(e) => Some((e.func, e.start_cycles, e.dispatches)),
            None if i == self.episodes.len() => self
                .open
                .as_ref()
                .map(|o| (o.func, o.start_cycles, o.dispatches)),
            None => None,
        }
    }

    /// Total dispatches attributed to `func`.
    pub fn dispatches_for(&self, func: &str) -> u64 {
        let Some(idx) = self.funcs.iter().position(|f| f == func) else {
            return 0;
        };
        self.events()
            .filter(|d| self.episode(d.episode).is_some_and(|(f, ..)| f == idx))
            .count() as u64
    }

    /// Lays the recorded chain executions out on `tracer`:
    ///
    /// * a dedicated virtual lane (`vm-chain (cycles)`) whose
    ///   timestamps are VM cycles, with one `chain:<func>` span per
    ///   episode and one `gadget` instant per dispatch
    ///   (args: `vaddr`, `kind`, `cycles`, `func`);
    /// * counters `vm.dispatch.count`, `vm.dispatch.kind.<kind>`, and
    ///   per-function `vf.<func>.invocations` / `.cycles` /
    ///   `.dispatches`;
    /// * histograms `vm.verify.cycles` and `vm.verify.dispatches`
    ///   (per verification invocation).
    pub fn export_to(&self, tracer: &Tracer) {
        let lane = tracer.lane("vm-chain (cycles)");
        let mut events = self.events();
        let mut per_kind = vec![0u64; self.kinds.len()];
        for ep in &self.episodes {
            let func = self.func_name(ep);
            tracer.span_at(
                &format!("chain:{func}"),
                "vm",
                lane,
                ep.start_cycles,
                ep.cycles().max(1),
            );
            tracer.count(&format!("vf.{func}.invocations"), 1);
            tracer.count(&format!("vf.{func}.cycles"), ep.cycles());
            tracer.count(&format!("vf.{func}.dispatches"), ep.dispatches);
            tracer.record("vm.verify.cycles", ep.cycles());
            tracer.record("vm.verify.dispatches", ep.dispatches);
            for d in events.by_ref().take(ep.dispatches as usize) {
                per_kind[d.kind] += 1;
                tracer.instant_at(
                    "gadget",
                    "vm",
                    lane,
                    d.at_cycles,
                    vec![
                        ("vaddr".to_string(), u64::from(d.vaddr).into()),
                        ("kind".to_string(), self.kinds[d.kind].as_str().into()),
                        ("cycles".to_string(), d.cycles.into()),
                        ("func".to_string(), func.into()),
                    ],
                );
            }
        }
        // The open episode's dispatches, when exported mid-run.
        for d in events {
            per_kind[d.kind] += 1;
        }
        tracer.count("vm.dispatch.count", self.dispatches.len() as u64);
        for (kind, &n) in self.kinds.iter().zip(&per_kind) {
            if n > 0 {
                tracer.count(&format!("vm.dispatch.kind.{kind}"), n);
            }
        }
    }
}

/// The iterator [`ChainTracer::events`] returns.
struct DispatchEvents<'a> {
    ct: &'a ChainTracer,
    /// Log index of the next dispatch.
    next: usize,
    /// Episodes entered so far; the current one is `episodes - 1`.
    episodes: usize,
    /// Dispatches of the current episode not yet yielded.
    left: u64,
    /// Cycle stamp of the current episode's previous dispatch (or its
    /// start).
    at_cycles: u64,
    /// Index of the next entry of the wide-gap side list.
    wide: usize,
}

impl Iterator for DispatchEvents<'_> {
    type Item = DispatchEvent;

    fn next(&mut self) -> Option<DispatchEvent> {
        let d = *self.ct.dispatches.get(self.next)?;
        while self.left == 0 {
            let (_, start, n) = self.ct.episode(self.episodes)?;
            self.episodes += 1;
            self.at_cycles = start;
            self.left = n;
        }
        let cycles = if d.gap == WIDE {
            self.wide += 1;
            self.ct.wide_gaps[self.wide - 1]
        } else {
            u64::from(d.gap)
        };
        self.next += 1;
        self.left -= 1;
        self.at_cycles += cycles;
        Some(DispatchEvent {
            episode: self.episodes - 1,
            vaddr: d.vaddr,
            kind: self.ct.gadget_kind[&d.vaddr],
            at_cycles: self.at_cycles,
            cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episodes_attribute_dispatches() {
        let mut ct = ChainTracer::new();
        ct.register_gadget(0x100, "LoadConst");
        ct.register_gadget(0x200, "StoreMem");
        ct.register_verify(0x5000, "vf");

        ct.note_ret(0x100, 5); // no episode open: ignored
        ct.note_call(0x5000, 10);
        ct.note_ret(0x100, 14);
        ct.note_ret(0x200, 20);
        ct.note_ret(0x999, 25); // not a gadget
        ct.note_call(0x6000, 30); // not a verify entry
        ct.finish();

        assert_eq!(ct.episodes().len(), 1);
        let ep = &ct.episodes()[0];
        assert_eq!(ct.func_name(ep), "vf");
        assert_eq!(ep.dispatches, 2);
        assert_eq!(ep.cycles(), 10); // 10 → 20
        assert_eq!(ct.dispatches().len(), 2);
        let events: Vec<DispatchEvent> = ct.events().collect();
        assert_eq!(events[0].cycles, 4);
        assert_eq!(events[1].cycles, 6);
        assert_eq!(ct.dispatches_for("vf"), 2);
    }

    #[test]
    fn events_derive_episode_kind_and_stamp() {
        let mut ct = ChainTracer::new();
        ct.register_gadget(0x100, "LoadConst");
        ct.register_gadget(0x200, "StoreMem");
        ct.register_verify(0x5000, "vf");
        ct.register_verify(0x6000, "vg");
        ct.note_call(0x5000, 10);
        ct.note_ret(0x100, 14);
        ct.note_call(0x6000, 30); // an episode with no dispatches
        ct.note_call(0x5000, 40);
        ct.note_ret(0x200, 41);
        ct.note_ret(0x100, 50);
        ct.note_call(0x6000, 60);
        ct.note_ret(0x200, 70);
        // Mid-run, the tail of the log belongs to the open episode.
        let open: Vec<DispatchEvent> = ct.events().collect();
        assert_eq!(open.len(), 4);
        assert_eq!(open[3].episode, 3);
        assert_eq!(open[3].at_cycles, 70);
        assert_eq!(ct.dispatches_for("vg"), 1);
        ct.finish();
        let got: Vec<(usize, u32, &str, u64, u64)> = ct
            .events()
            .map(|d| {
                let kind = ct.kinds[d.kind].as_str();
                (d.episode, d.vaddr, kind, d.at_cycles, d.cycles)
            })
            .collect();
        assert_eq!(
            got,
            [
                (0, 0x100, "LoadConst", 14, 4),
                (2, 0x200, "StoreMem", 41, 1),
                (2, 0x100, "LoadConst", 50, 9),
                (3, 0x200, "StoreMem", 70, 10),
            ]
        );
        assert_eq!(ct.dispatches_for("vf"), 3);
        assert_eq!(ct.dispatches_for("vg"), 1);
    }

    #[test]
    fn gaps_past_u32_stay_exact() {
        let mut ct = ChainTracer::new();
        ct.register_gadget(0x100, "Nop");
        ct.register_verify(0x5000, "vf");
        let wide = u64::from(u32::MAX);
        ct.note_call(0x5000, 1);
        ct.note_ret(0x100, 1 + wide - 1); // fits
        ct.note_ret(0x100, 1 + 2 * wide - 1); // exactly u32::MAX
        ct.note_ret(0x100, u64::MAX - 1); // far past u32
        ct.note_ret(0x100, u64::MAX);
        ct.finish();
        assert_eq!(std::mem::size_of::<Dispatch>(), 8);
        let gaps: Vec<u64> = ct.events().map(|d| d.cycles).collect();
        assert_eq!(gaps, [wide - 1, wide, u64::MAX - 1 - 2 * wide, 1]);
        let last = ct.events().last().unwrap();
        assert_eq!(last.at_cycles, u64::MAX);
        assert_eq!(ct.episodes()[0].cycles(), u64::MAX - 1);
        assert_eq!(ct.log_bytes(), 4 * 8 + 2 * 8);
    }

    #[test]
    fn reentry_closes_previous_episode() {
        let mut ct = ChainTracer::new();
        ct.register_gadget(0x100, "Nop");
        ct.register_verify(0x5000, "vf");
        ct.note_call(0x5000, 0);
        ct.note_ret(0x100, 3);
        ct.note_call(0x5000, 10);
        ct.note_ret(0x100, 12);
        ct.finish();
        assert_eq!(ct.episodes().len(), 2);
        assert_eq!(ct.episodes()[0].dispatches, 1);
        assert_eq!(ct.episodes()[1].start_cycles, 10);
    }

    #[test]
    fn export_produces_cycle_lane() {
        let mut ct = ChainTracer::new();
        ct.register_gadget(0x100, "LoadConst");
        ct.register_verify(0x5000, "vf");
        ct.note_call(0x5000, 10);
        ct.note_ret(0x100, 14);
        ct.finish();

        let tracer = Tracer::new();
        ct.export_to(&tracer);
        let snap = tracer.snapshot();
        assert_eq!(snap.counters["vm.dispatch.count"], 1);
        assert_eq!(snap.counters["vm.dispatch.kind.LoadConst"], 1);
        assert_eq!(snap.counters["vf.vf.invocations"], 1);
        assert_eq!(snap.counters["vf.vf.cycles"], 4);
        assert_eq!(snap.hists["vm.verify.dispatches"].count, 1);
        let has_span = snap.events.iter().any(|e| {
            matches!(e, parallax_trace::Event::Span { name, start_us, .. }
                if name == "chain:vf" && *start_us == 10)
        });
        assert!(has_span, "cycle-stamped episode span missing");
        let has_instant = snap.events.iter().any(|e| {
            matches!(e, parallax_trace::Event::Instant { name, ts_us, .. }
                if name == "gadget" && *ts_us == 14)
        });
        assert!(has_instant, "cycle-stamped dispatch instant missing");
    }
}
