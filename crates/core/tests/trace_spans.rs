//! The traced pipeline must produce a span for every stage, nested
//! under one root `protect` span, plus the chain-shape histograms and
//! §IV-B gadget-preference counters the evaluation report consumes.

use parallax_compiler::ir::build::*;
use parallax_compiler::{Function, Module};
use parallax_core::{protect_traced, ProtectConfig, Stage};
use parallax_trace::{chrome_json, ArgValue, Event, TraceFile, Tracer};

fn sample_module() -> Module {
    let mut m = Module::new();
    m.func(Function::new("vf", ["a"], vec![ret(add(l("a"), c(1)))]));
    m.func(Function::new(
        "main",
        [],
        vec![ret(call("vf", vec![c(41)]))],
    ));
    m.entry("main");
    m
}

#[test]
fn traced_protect_emits_all_eight_stages() {
    let tracer = Tracer::new();
    let cfg = ProtectConfig {
        verify_funcs: vec!["vf".into()],
        ..ProtectConfig::default()
    };
    protect_traced(&sample_module(), &cfg, &tracer).expect("protect succeeds");

    let snap = tracer.snapshot();
    let span_names: Vec<&str> = snap
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Span { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    for stage in Stage::ALL.map(|s| s.to_string()) {
        assert!(
            span_names.contains(&stage.as_str()),
            "missing stage span {stage:?} in {span_names:?}"
        );
    }
    // Layer sub-spans: rewrite passes and the per-chain compile.
    for sub in ["imm", "jump", "spurious", "chain:vf"] {
        assert!(
            span_names.contains(&sub),
            "missing sub-span {sub:?} in {span_names:?}"
        );
    }
    // Figure 6 is an analysis callers ask for, not a protect stage.
    assert!(
        !span_names.contains(&"coverage"),
        "protect ran the coverage analysis: {span_names:?}"
    );
    let coverage_counters: Vec<&String> = snap
        .counters
        .keys()
        .filter(|k| k.starts_with("rewrite.coverage."))
        .collect();
    assert!(
        coverage_counters.is_empty(),
        "protect counted coverage work: {coverage_counters:?}"
    );

    // Everything nests under the root protect span.
    let tf = TraceFile::parse(&chrome_json(&snap)).expect("exported trace parses");
    let root = tf
        .spans
        .iter()
        .find(|s| s.name == "protect")
        .expect("root span");
    assert_eq!(root.parent, None);
    for s in &tf.spans {
        if s.id != root.id {
            assert!(s.parent.is_some(), "span {} has no parent", s.name);
        }
    }
    // Stage spans are direct children of the root.
    for s in tf.spans.iter().filter(|s| s.cat == "stage") {
        assert_eq!(s.parent, Some(root.id), "stage {} not under root", s.name);
    }

    // Chain metrics for the report.
    assert!(tf.counters["chain.used.total"] >= 1);
    assert!(tf.counters.contains_key("chain.used.overlapping"));
    assert!(
        tf.counters["chain.pick.overlapping"] + tf.counters["chain.pick.other"] >= 1,
        "gadget-preference counters missing"
    );
    assert_eq!(tf.hists["chain.words"].count, 1);
    assert_eq!(tf.hists["chain.ops"].count, 1);
}

#[test]
fn vm_run_records_gadget_dispatches() {
    let tracer = Tracer::new();
    let cfg = ProtectConfig {
        verify_funcs: vec!["vf".into()],
        ..ProtectConfig::default()
    };
    let protected = protect_traced(&sample_module(), &cfg, &tracer).expect("protect succeeds");

    let mut vm = parallax_vm::Vm::new(&protected.image);
    vm.set_chain_tracer(parallax_core::chain_tracer_for(&protected));
    assert_eq!(vm.run(), parallax_vm::Exit::Exited(42));
    let ct = vm.take_chain_tracer().expect("tracer installed");
    assert!(
        !ct.episodes().is_empty(),
        "no verification episode observed"
    );
    assert!(ct.dispatches_for("vf") >= 1, "no gadget dispatches for vf");
    ct.export_to(&tracer);

    // The exported trace has the chain-execution span on the cycle
    // lane and per-gadget dispatch instants with vaddr/kind args.
    let tf = TraceFile::parse(&chrome_json(&tracer.snapshot())).expect("trace parses");
    let chain_span = tf
        .spans
        .iter()
        .find(|s| s.name == "chain:vf" && s.cat == "vm")
        .expect("chain execution span");
    let lane = tf
        .thread_names
        .get(&chain_span.tid)
        .expect("cycle lane named");
    assert_eq!(lane, "vm-chain (cycles)");
    let gadget_instants: Vec<_> = tf.instants.iter().filter(|i| i.name == "gadget").collect();
    assert!(!gadget_instants.is_empty(), "no dispatch instants");
    for gi in &gadget_instants {
        for key in ["vaddr", "kind", "cycles", "func"] {
            assert!(
                gi.args.iter().any(|(k, _)| k == key),
                "dispatch instant missing arg {key:?}"
            );
        }
    }
    assert!(tf.counters["vm.dispatch.count"] >= 1);
    assert_eq!(
        tf.hists["vm.verify.cycles"].count,
        ct.episodes().len() as u64
    );
}

#[test]
fn traced_and_untraced_protect_agree() {
    let cfg = ProtectConfig {
        verify_funcs: vec!["vf".into()],
        ..ProtectConfig::default()
    };
    let plain = parallax_core::protect(&sample_module(), &cfg).expect("plain protect");
    let tracer = Tracer::new();
    let traced = protect_traced(&sample_module(), &cfg, &tracer).expect("traced protect");
    assert_eq!(
        plain.image.text, traced.image.text,
        "tracing must not perturb the protected image"
    );
    assert_eq!(plain.image.data, traced.image.data);
}

#[test]
fn fresh_scans_count_decode_work() {
    let tracer = Tracer::new();
    let cfg = ProtectConfig {
        verify_funcs: vec!["vf".into()],
        ..ProtectConfig::default()
    };
    protect_traced(&sample_module(), &cfg, &tracer).expect("protect succeeds");
    let tf = TraceFile::parse(&chrome_json(&tracer.snapshot())).expect("trace parses");
    for name in [
        "scan.decode.offsets",
        "scan.decode.once",
        "scan.decode.shape",
        "scan.decode.skipped",
        "scan.decode.memo_hit",
    ] {
        assert!(tf.counters.contains_key(name), "missing counter {name:?}");
    }
    assert!(tf.counters["scan.decode.offsets"] >= 1);
    assert!(tf.counters["scan.decode.once"] >= 1);
    // Only candidate paths are decoded in full, and each of their
    // offsets is one the scan reached.
    assert!(tf.counters["scan.decode.once"] < tf.counters["scan.decode.shape"]);
}

/// Pass 2 rescans pass 1's text incrementally: most decodes and some
/// probe verdicts carry over, and the counters keep work performed
/// apart from work reused.
#[test]
fn second_pass_reuses_decodes_and_verdicts() {
    let tracer = Tracer::new();
    let cfg = ProtectConfig {
        verify_funcs: vec!["vf".into()],
        ..ProtectConfig::default()
    };
    protect_traced(&sample_module(), &cfg, &tracer).expect("protect succeeds");
    let tf = TraceFile::parse(&chrome_json(&tracer.snapshot())).expect("trace parses");
    let get = |k: &str| tf.counters.get(k).copied().unwrap_or(0);
    assert!(get("scan.decode.reused") > 0);
    assert!(get("vm.probe.reused") > 0);
    // Shape slots: each offset is read, carried over or skipped.
    assert_eq!(
        get("scan.decode.shape") + get("scan.decode.reused") + get("scan.decode.skipped"),
        get("scan.decode.offsets")
    );
    assert!(get("scan.decode.once") <= get("scan.decode.shape"));
    // Offsets count both passes: pass 2 reuses most of its half.
    assert!(get("scan.decode.reused") > get("scan.decode.offsets") / 4);
}

/// The starved configuration of the fault-injection suite: no gadget
/// crafting and no standard set, so the degradation ladder must fall
/// back at least once.
fn starved() -> (Module, ProtectConfig) {
    let mut m = Module::new();
    m.func(Function::new("licensed", [], vec![ret(c(0))]));
    m.func(Function::new(
        "dead",
        ["x"],
        vec![ret(mul(add(l("x"), c(7)), c(3)))],
    ));
    m.func(Function::new(
        "vf",
        ["x"],
        vec![ret(add(mul(l("x"), c(3)), c(1)))],
    ));
    m.func(Function::new(
        "main",
        [],
        vec![ret(add(
            call("vf", vec![c(5)]),
            mul(call("licensed", vec![]), c(100)),
        ))],
    ));
    m.entry("main");
    let mut cfg = ProtectConfig {
        verify_funcs: vec!["vf".into()],
        guard_funcs: vec!["licensed".into()],
        ..ProtectConfig::default()
    };
    cfg.rewrite.imm_rule = false;
    cfg.rewrite.jump_rule = false;
    cfg.rewrite.internal_jump_rule = false;
    cfg.rewrite.stdset = false;
    (m, cfg)
}

#[test]
fn every_degradation_is_one_instant_and_one_count() {
    let (m, cfg) = starved();
    let tracer = Tracer::new();
    let protected = protect_traced(&m, &cfg, &tracer).expect("ladder recovers");
    let degr = &protected.report.degradations;
    assert!(!degr.is_empty(), "starved build must degrade");

    let tf = TraceFile::parse(&chrome_json(&tracer.snapshot())).expect("trace parses");
    let instants: Vec<_> = tf
        .instants
        .iter()
        .filter(|i| i.name == "degraded")
        .collect();
    assert_eq!(instants.len(), degr.len());
    for (inst, d) in instants.iter().zip(degr) {
        let arg = |k: &str| {
            inst.args
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("degraded instant missing arg {k:?}"))
        };
        assert_eq!(arg("func"), ArgValue::from(d.func.as_str()));
        assert_eq!(arg("missing"), ArgValue::from(d.missing.as_str()));
        assert_eq!(arg("retry_rotation"), ArgValue::from(d.retry_rotation));
        assert_eq!(
            arg("stdset_forced"),
            ArgValue::from(u64::from(d.stdset_forced))
        );
    }
    assert_eq!(tf.counters["pipeline.degradations"], degr.len() as u64);
}

/// An FNV-1a digest of everything [`parallax_vm::ChainTracer::export_to`]
/// writes: the cycle lane's spans and `gadget` instants (with their
/// args), the `vf.*` and `vm.dispatch.*` counters and the `vm.verify.*`
/// histograms.
fn chain_lane_digest(snap: &parallax_trace::TraceSnapshot) -> u64 {
    let mut text = String::new();
    for e in &snap.events {
        match e {
            Event::Span {
                name,
                cat,
                tid,
                start_us,
                dur_us,
                ..
            } => {
                text += &format!(
                    "S {name} {cat} {} {start_us} {dur_us}\n",
                    snap.thread_names[*tid]
                )
            }
            Event::Instant {
                name,
                cat,
                tid,
                ts_us,
                args,
            } => {
                text += &format!("I {name} {cat} {} {ts_us}", snap.thread_names[*tid]);
                for (k, v) in args {
                    match v {
                        ArgValue::U64(n) => text += &format!(" {k}={n}"),
                        ArgValue::Str(s) => text += &format!(" {k}={s:?}"),
                    }
                }
                text += "\n";
            }
        }
    }
    for (k, v) in &snap.counters {
        if k.starts_with("vf.") || k.starts_with("vm.dispatch.") {
            text += &format!("C {k} {v}\n");
        }
    }
    for (k, h) in &snap.hists {
        if k.starts_with("vm.verify.") {
            text += &format!(
                "H {k} {} {} {} {} {:?}\n",
                h.count, h.sum, h.min, h.max, h.buckets
            );
        }
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The exported chain lane of gzip and gcc (40 episodes a run), in all
/// four Figure-5 modes, is pinned: a change to how the tracer stores
/// dispatches must not move a span, an instant, a counter or a
/// histogram.
#[test]
fn exported_chain_lane_is_pinned() {
    let pinned = [
        ("gzip", "cleartext", 0xce88_c7ac_8f13_550a),
        ("gzip", "xor", 0x49d4_cf0a_1463_03d2),
        ("gzip", "rc4", 0x6a73_e382_e61d_2702),
        ("gzip", "probabilistic", 0xcc90_d687_a8c7_0ff8),
        ("gcc", "cleartext", 0x8e41_baa6_058a_fd0b),
        ("gcc", "xor", 0xc031_2c5a_fa26_7398),
        ("gcc", "rc4", 0xf310_5466_ab43_3ad4),
        ("gcc", "probabilistic", 0x8d21_31b8_19d5_0a5b),
    ];
    assert_eq!(std::mem::size_of::<parallax_vm::Dispatch>(), 8);
    let mut seen = Vec::new();
    for name in ["gzip", "gcc"] {
        let w = parallax_corpus::by_name(name).expect("corpus program");
        for mode in parallax_bench::fig5_modes() {
            let mode_name = mode.name();
            let cfg = ProtectConfig {
                verify_funcs: vec![w.verify_func.to_owned()],
                mode,
                ..ProtectConfig::default()
            };
            let protected = parallax_core::protect(&(w.module)(), &cfg).expect("protect succeeds");
            let mut vm = parallax_vm::Vm::new(&protected.image);
            vm.set_input(&(w.input)());
            vm.set_chain_tracer(parallax_core::chain_tracer_for(&protected));
            assert!(
                matches!(vm.run(), parallax_vm::Exit::Exited(_)),
                "{name} {mode_name}"
            );
            let ct = vm.take_chain_tracer().expect("tracer installed");
            // A taken tracer's log holds no growth slack.
            assert_eq!(ct.log_bytes(), std::mem::size_of_val(ct.dispatches()));
            let tracer = Tracer::new();
            ct.export_to(&tracer);
            seen.push((name, mode_name, chain_lane_digest(&tracer.snapshot())));
        }
    }
    assert_eq!(seen, pinned);
}
