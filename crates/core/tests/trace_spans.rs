//! The traced pipeline must produce a span for every stage, nested
//! under one root `protect` span, plus the chain-shape histograms and
//! §IV-B gadget-preference counters the evaluation report consumes.

use parallax_compiler::ir::build::*;
use parallax_compiler::{Function, Module};
use parallax_core::{protect_traced, ProtectConfig};
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
fn traced_protect_emits_all_seven_stages() {
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
    for stage in [
        "select",
        "load",
        "rewrite",
        "gadget-scan",
        "chain-compile",
        "map",
        "link",
    ] {
        assert!(
            span_names.contains(&stage),
            "missing stage span {stage:?} in {span_names:?}"
        );
    }
    // Layer sub-spans: rewrite passes and the per-chain compile.
    for sub in ["imm", "jump", "spurious", "coverage", "chain:vf"] {
        assert!(
            span_names.contains(&sub),
            "missing sub-span {sub:?} in {span_names:?}"
        );
    }

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
        "scan.decode.memo_hit",
    ] {
        assert!(tf.counters.contains_key(name), "missing counter {name:?}");
    }
    assert!(tf.counters["scan.decode.offsets"] >= 1);
    assert!(tf.counters["scan.decode.once"] >= 1);
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
