//! Determinism regression tests: the pipeline must be a pure function
//! of (module, config, seed). Byte-identical outputs are what make the
//! batch engine's content-addressed cache sound — and what the paper's
//! reproducibility claims rest on — so any hidden iteration-order or
//! ambient-state dependency fails here, not in a flaky cache hit.

use std::sync::Mutex;

use parallax_bench::fig5_modes;
use parallax_compiler::{compile_module, parse_module};
use parallax_core::{protect, protect_with, ArtifactStore, ChainMode, Ctx, ProtectConfig};
use parallax_gadgets::{serialize_gadgets, Gadget};
use parallax_image::{format, LinkedImage};
use parallax_trace::Tracer;

const SRC: &str = r#"
    global table = "abcdefgh";
    fn licensed() { return 0; }
    fn vf(x) { return ((x * 31) ^ (x >>> 3)) + 7; }
    fn helper(a, b) { return a * b + a - b; }
    fn main() {
        let s = 0;
        let i = 0;
        while i < 4 { s = s + vf(i) + helper(i, 3); i = i + 1; }
        if licensed() == 1 { return s; }
        return s & 0xff;
    }
"#;

fn configs() -> Vec<(String, ProtectConfig)> {
    let base = |mode: ChainMode, seed: u64| ProtectConfig {
        verify_funcs: vec!["vf".to_owned()],
        mode,
        seed,
        ..ProtectConfig::default()
    };
    vec![
        ("cleartext".into(), base(ChainMode::Cleartext, 1)),
        (
            "xor".into(),
            base(ChainMode::XorEncrypted { key: 0x1234_5679 }, 2),
        ),
        (
            "rc4".into(),
            base(ChainMode::Rc4Encrypted { key: *b"PLXKEY!!" }, 3),
        ),
        (
            "prob".into(),
            base(
                ChainMode::Probabilistic {
                    variants: 4,
                    seed: 77,
                },
                77,
            ),
        ),
        ("guarded".into(), {
            let mut cfg = base(ChainMode::Cleartext, 4);
            cfg.guard_funcs = vec!["licensed".to_owned()];
            cfg
        }),
        ("hardened".into(), {
            let mut cfg = base(ChainMode::XorEncrypted { key: 0xdead_beef }, 5);
            cfg.checksum_chains = true;
            cfg.wipe_chains = true;
            cfg
        }),
    ]
}

#[test]
fn repeated_runs_are_byte_identical() {
    let module = parse_module(SRC).expect("test module parses");
    for (name, cfg) in configs() {
        let a = protect(&module, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let b = protect(&module, &cfg).unwrap_or_else(|e| panic!("{name} (rerun): {e}"));
        assert_eq!(
            format::save(&a.image),
            format::save(&b.image),
            "{name}: two runs with identical inputs produced different images"
        );
        assert_eq!(
            a.report.gadget_count, b.report.gadget_count,
            "{name}: gadget counts diverged"
        );
    }
}

#[test]
fn job_count_never_changes_the_image() {
    // The tentpole invariant of the parallel pipeline: worker count is
    // a scheduling knob, not an input. Every corpus binary must protect
    // to byte-identical images — and report identical degradations —
    // whether the rewrite/chain fan-out runs on 1, 2, or 8 workers.
    // Probabilistic mode maximizes the fan-out (functions x variants).
    for w in parallax_corpus::all() {
        let module = (w.module)();
        let cfg = |jobs: usize| ProtectConfig {
            verify_funcs: vec![w.verify_func.to_owned()],
            mode: ChainMode::Probabilistic {
                variants: 4,
                seed: 0x5eed,
            },
            seed: 0x5eed,
            jobs,
            ..ProtectConfig::default()
        };
        let base = protect(&module, &cfg(1)).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for jobs in [2, 8] {
            let par = protect(&module, &cfg(jobs))
                .unwrap_or_else(|e| panic!("{} (jobs={jobs}): {e}", w.name));
            assert_eq!(
                format::save(&base.image),
                format::save(&par.image),
                "{}: image diverged at jobs={jobs}",
                w.name
            );
            assert_eq!(
                base.report.degradations, par.report.degradations,
                "{}: degradation reports diverged at jobs={jobs}",
                w.name
            );
        }
    }
}

/// Serializes every gadget list `protect()` scans, pass 1 then pass 2.
#[derive(Default)]
struct GadgetLists(Mutex<Vec<Vec<u8>>>);

impl ArtifactStore for GadgetLists {
    fn store_scan(&self, _img: &LinkedImage, gadgets: &[Gadget]) {
        self.0
            .lock()
            .expect("no scan panicked")
            .push(serialize_gadgets(gadgets));
    }
}

#[test]
fn probe_work_repeats_at_any_job_count() {
    // Each probe starts from a VM reset to its pristine pages, so the
    // copy-on-write pages it writes depend only on the proposal, never
    // on which worker probed it or what that worker probed before; and
    // which contents pass 2 serves from pass 1's memo depends only on
    // their bytes, so the probe runs it saves do not depend on the job
    // count either. Nor does which proposals are rejected without a
    // run: that reads only the proposal and the image's regions, nor
    // which need a second trial: that reads the proposal and trial 1.
    // Which candidate represents a content is chosen serially, in scan
    // order, before any worker starts: so the full decodes the pass
    // makes on the representatives' paths, and the copies their
    // verdicts serve, do not depend on the job count either. Both
    // passes' gadget lists serialize to the same bytes too: a content's
    // record, which its representative's probe builds, holds nothing of
    // that copy but its content.
    const COUNTERS: [&str; 7] = [
        "vm.mem.pages_copied",
        "vm.probe.runs",
        "vm.probe.second_trials",
        "vm.probe.reused",
        "vm.probe.prejudged",
        "vm.probe.shared",
        "scan.decode.once",
    ];
    // Second trials are rare enough that some programs take none: that
    // counter must be non-zero over the corpus, every other one on each
    // program and mode.
    let mut second_trials = 0;
    for w in parallax_corpus::all() {
        let module = (w.module)();
        for mode in fig5_modes() {
            let work = |jobs: usize| {
                let cfg = ProtectConfig {
                    verify_funcs: vec![w.verify_func.to_owned()],
                    mode: mode.clone(),
                    seed: 0x5eed,
                    jobs,
                    ..ProtectConfig::default()
                };
                let tracer = Tracer::new();
                let lists = GadgetLists::default();
                let ctx = Ctx {
                    store: &lists,
                    tracer: Some(&tracer),
                    ..Ctx::default()
                };
                let impls = cfg
                    .verify_impls(&module)
                    .expect("verification function exists");
                let prog = compile_module(&module).expect("corpus compiles");
                protect_with(prog, &impls, &cfg, &ctx)
                    .unwrap_or_else(|e| panic!("{} {mode:?} (jobs={jobs}): {e}", w.name));
                (
                    COUNTERS.map(|c| tracer.counter(c)),
                    lists.0.into_inner().expect("no scan panicked"),
                )
            };
            let (one, lists) = work(1);
            assert_eq!(lists.len(), 2, "{} {mode:?}: one list per pass", w.name);
            for (c, n) in COUNTERS.iter().zip(one) {
                if *c == "vm.probe.second_trials" {
                    second_trials += n;
                } else {
                    assert!(n > 0, "{} {mode:?}: {c} is 0", w.name);
                }
            }
            let (two, lists2) = work(2);
            assert_eq!(one, two, "{} {mode:?}: {COUNTERS:?} at jobs=2", w.name);
            assert!(
                lists == lists2,
                "{} {mode:?}: gadget lists differ at jobs=2",
                w.name
            );
        }
    }
    assert!(second_trials > 0, "no second trial in the corpus");
}

#[test]
fn seed_changes_dynamic_images() {
    // The converse check: the seed is *load-bearing* for the encrypted
    // modes (a pipeline that ignored it would trivially pass the test
    // above).
    let module = parse_module(SRC).expect("test module parses");
    let cfg = |seed: u64| ProtectConfig {
        verify_funcs: vec!["vf".to_owned()],
        mode: ChainMode::XorEncrypted {
            key: (seed as u32) | 1,
        },
        seed,
        ..ProtectConfig::default()
    };
    let a = protect(&module, &cfg(10)).expect("seed 10");
    let b = protect(&module, &cfg(12)).expect("seed 12");
    assert_ne!(
        format::save(&a.image),
        format::save(&b.image),
        "different xor keys must change the stored ciphertext"
    );
}
