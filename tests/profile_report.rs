//! Regression coverage for `plx profile` / `plx report` against traces
//! recorded *before* the bottleneck profiler existed.
//!
//! `tests/fixtures/pre_profiler_trace.json` is a checked-in trace in
//! the shape the toolchain emitted before the `pool.*` / `vm.probe.*`
//! namespaces were added: pipeline/stage spans plus the original
//! counter set, and nothing else. Every renderer must keep accepting
//! it — reports degrade section-by-section, never by erroring.

use parallax::profile::{bottlenecks, render_profile};
use parallax::report::{render_diff, render_report};
use parallax::trace::{chrome_json, TraceFile, Tracer};

fn fixture() -> TraceFile {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/pre_profiler_trace.json"
    );
    let text = std::fs::read_to_string(path).expect("fixture readable");
    TraceFile::parse(&text).expect("pre-profiler fixture parses")
}

/// A trace the *current* toolchain would emit: same shape, plus pool
/// and probe-VM telemetry.
fn current_trace() -> TraceFile {
    let t = Tracer::new();
    {
        let _root = t.span("protect", "pipeline");
        let _s = t.span("gadget-scan", "stage");
    }
    t.count("vm.run.cycles", 4000);
    t.count("pool.rewrite.runs", 1);
    t.count("pool.rewrite.items", 16);
    t.count("pool.rewrite.run_ns", 800_000);
    t.count("pool.rewrite.merge_ns", 300_000);
    t.record("pool.rewrite.workers", 4);
    for _ in 0..4 {
        t.record("pool.rewrite.worker_busy_us", 600);
    }
    t.count("vm.probe.builds", 4);
    t.count("vm.probe.build_ns", 9_000_000);
    TraceFile::parse(&chrome_json(&t.snapshot())).expect("current trace parses")
}

#[test]
fn report_accepts_pre_profiler_trace() {
    let report = render_report(&fixture());
    // The sections backed by recorded data still render...
    assert!(report.contains("pipeline stages"), "{report}");
    assert!(report.contains("verification overhead"), "{report}");
    // ...and the sections whose namespaces post-date the trace are
    // simply absent rather than rendered as zeros.
    assert!(!report.contains("pool"), "{report}");
}

#[test]
fn profile_accepts_pre_profiler_trace() {
    let text = render_profile(&fixture());
    assert!(text.contains("critical path"), "{text}");
    assert!(text.contains("amdahl ceiling"), "{text}");
    // Stage spans alone still yield serial-time attribution.
    assert!(text.contains("bottlenecks (top blockers):"), "{text}");
    assert!(text.contains("serial: "), "{text}");
    // No pool telemetry -> no pool table, no fabricated contention.
    assert!(!text.contains("pool sites:"), "{text}");
    assert!(!text.contains("pool contention"), "{text}");
}

#[test]
fn diff_marks_missing_baseline_sections_instead_of_zeroing() {
    let old = fixture();
    let new = current_trace();
    let diff = render_diff(&old, &new);
    // Sections both traces carry diff normally.
    assert!(diff.contains("pipeline stages"), "{diff}");
    assert!(diff.contains("parallel protection"), "{diff}");
    // The pool section appears because `new` records it, with the
    // baseline side explicitly marked rather than treated as zero.
    assert!(diff.contains("pool sites (b - a):"), "{diff}");
    assert!(diff.contains("not recorded"), "{diff}");
    assert!(
        diff.contains("1 runs, 16 items, 2.400 ms busy, 4 workers"),
        "{diff}"
    );
    // Swapped order degrades the same way.
    let rev = render_diff(&new, &old);
    assert!(rev.contains("not recorded"), "{rev}");
    // Two pre-profiler traces -> no pool section at all.
    let none = render_diff(&old, &fixture());
    assert!(!none.contains("pool sites"), "{none}");
}

#[test]
fn current_trace_attributes_all_three_required_costs() {
    let ranked = bottlenecks(&current_trace());
    let labels: Vec<&str> = ranked.iter().map(|b| b.label.as_str()).collect();
    assert!(labels.contains(&"probe-VM construction"), "{labels:?}");
    assert!(labels.contains(&"merge (rewrite)"), "{labels:?}");
    assert!(
        labels.iter().any(|l| l.starts_with("serial: ")),
        "{labels:?}"
    );
}

#[test]
fn profile_subcommand_dispatches() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/pre_profiler_trace.json"
    );
    let out = parallax::cli::dispatch("profile", &[path.to_string()]).expect("plx profile runs");
    assert!(out.contains("critical path"), "{out}");
    let err = parallax::cli::dispatch("profile", &["no-such.json".to_string()]).unwrap_err();
    assert!(err.0.contains("no-such.json"), "{}", err.0);
}
