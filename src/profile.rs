//! `plx profile`: bottleneck analysis of a `--trace-out` file.
//!
//! Built on `parallax-trace`'s critical-path analyzer ([`analyze`]),
//! this module answers the question ROADMAP item 1 opens with — *why*
//! is the parallel speedup flat? — from one traced run:
//!
//! * the **critical path** and measured serial fraction, with the
//!   Amdahl ceiling they imply for 2/4/8 workers;
//! * per-**stage** wall/serial splits (which pipeline stages are
//!   single-laned);
//! * a ranked **bottlenecks** list combining serial-span attribution
//!   with the `pool.*` serial merges and `vm.probe.*` probe-VM
//!   construction cost; and
//! * a per-site **pool** table (runs, workers, items, busy, merge).
//!
//! The bottlenecks section is shared with `plx report`.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use parallax_trace::{analyze, TraceFile};

/// One ranked bottleneck: a quantified reason the run did not scale.
#[derive(Debug, Clone)]
pub struct Bottleneck {
    /// Human-readable label, e.g. `"serial: gadget-scan"` or
    /// `"merge (chain)"`.
    pub label: String,
    /// Cost in microseconds (serial time, merge time, build time).
    pub us: u64,
    /// Supporting detail (counts, means).
    pub detail: String,
}

/// Pool sites (`pool.<site>.*` namespaces) present in a trace.
pub fn pool_sites(tf: &TraceFile) -> Vec<String> {
    let mut sites = BTreeSet::new();
    for key in tf.counters.keys() {
        if let Some(rest) = key.strip_prefix("pool.") {
            if let Some((site, _)) = rest.split_once('.') {
                sites.insert(site.to_string());
            }
        }
    }
    sites.into_iter().collect()
}

fn get(tf: &TraceFile, k: &str) -> u64 {
    tf.counters.get(k).copied().unwrap_or(0)
}

/// Most workers any `pool.<site>` run used (0 when none recorded).
pub fn pool_workers(tf: &TraceFile, site: &str) -> u64 {
    tf.hists
        .get(&format!("pool.{site}.workers"))
        .map_or(0, |h| h.max)
}

/// Closure-execution microseconds summed over every worker of every
/// `pool.<site>` run: the busy time against which `run_ns` is wall.
pub fn pool_busy_us(tf: &TraceFile, site: &str) -> u64 {
    tf.hists
        .get(&format!("pool.{site}.worker_busy_us"))
        .map_or(0, |h| h.sum)
}

/// Assembles the ranked bottleneck list for a trace: top serial spans
/// from the critical-path sweep, per-site pool serial merges, and
/// probe-VM construction. Sorted by cost, descending; entries costing
/// nothing are dropped.
pub fn bottlenecks(tf: &TraceFile) -> Vec<Bottleneck> {
    let prof = analyze(tf);
    let mut out: Vec<Bottleneck> = Vec::new();
    for s in prof.serial_spans.iter().take(5) {
        out.push(Bottleneck {
            label: format!("serial: {}", s.name),
            us: s.serial_us,
            detail: "single-lane execution".to_string(),
        });
    }
    for site in pool_sites(tf) {
        let merge_us = get(tf, &format!("pool.{site}.merge_ns")) / 1_000;
        if merge_us > 0 {
            out.push(Bottleneck {
                label: format!("merge ({site})"),
                us: merge_us,
                detail: "serial result merge".to_string(),
            });
        }
    }
    let builds = get(tf, "vm.probe.builds");
    let build_us = get(tf, "vm.probe.build_ns") / 1_000;
    if build_us > 0 {
        out.push(Bottleneck {
            label: "probe-VM construction".to_string(),
            us: build_us,
            detail: format!(
                "{builds} probe VMs, mean {:.3} ms",
                build_us as f64 / 1e3 / builds.max(1) as f64
            ),
        });
    }
    out.retain(|b| b.us > 0);
    out.sort_by(|x, y| y.us.cmp(&x.us).then(x.label.cmp(&y.label)));
    out
}

/// Writes the ranked `bottlenecks` section (shared between
/// `plx profile` and `plx report`). Writes nothing when the trace
/// yields no attributable cost.
pub fn bottlenecks_table(out: &mut String, tf: &TraceFile) {
    let ranked = bottlenecks(tf);
    if ranked.is_empty() {
        return;
    }
    let _ = writeln!(out, "bottlenecks (top blockers):");
    for (i, b) in ranked.iter().take(8).enumerate() {
        let _ = writeln!(
            out,
            "  {}. {:<28} {:>10.3} ms  ({})",
            i + 1,
            b.label,
            b.us as f64 / 1e3,
            b.detail
        );
    }
}

/// Writes the per-site pool table: runs, workers, items, summed worker
/// busy time and serial merge time for every `pool.<site>.*` namespace.
fn pool_table(out: &mut String, tf: &TraceFile) {
    let sites = pool_sites(tf);
    if sites.is_empty() {
        return;
    }
    let _ = writeln!(out, "pool sites:");
    let _ = writeln!(
        out,
        "  {:<9} {:>4} {:>7} {:>6} {:>11} {:>11}",
        "site", "runs", "workers", "items", "busy", "merge"
    );
    for site in sites {
        let p = |s: &str| get(tf, &format!("pool.{site}.{s}"));
        let _ = writeln!(
            out,
            "  {:<9} {:>4} {:>7} {:>6} {:>8.3} ms {:>8.3} ms",
            site,
            p("runs"),
            pool_workers(tf, &site),
            p("items"),
            pool_busy_us(tf, &site) as f64 / 1e3,
            p("merge_ns") as f64 / 1e6,
        );
    }
}

/// Renders the full `plx profile` view of one trace file.
pub fn render_profile(tf: &TraceFile) -> String {
    let prof = analyze(tf);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {:.3} ms wall, {:.3} ms critical path, {:.3} ms idle",
        prof.wall_us() as f64 / 1e3,
        prof.critical_us as f64 / 1e3,
        prof.idle_us as f64 / 1e3,
    );
    let _ = writeln!(
        out,
        "  serial {:.3} ms ({:.1}%)   parallel {:.3} ms   lanes {} (peak concurrency {})",
        prof.serial_us as f64 / 1e3,
        prof.serial_fraction() * 100.0,
        prof.parallel_us as f64 / 1e3,
        prof.lanes,
        prof.max_concurrency,
    );
    let _ = writeln!(
        out,
        "  amdahl ceiling: 2 workers {:.2}x, 4 workers {:.2}x, 8 workers {:.2}x  (measured serial fraction {:.3})",
        prof.amdahl_ceiling(2),
        prof.amdahl_ceiling(4),
        prof.amdahl_ceiling(8),
        prof.serial_fraction(),
    );
    if !prof.stages.is_empty() {
        out.push('\n');
        let _ = writeln!(out, "stage concurrency:");
        let _ = writeln!(
            out,
            "  {:<14} {:>12} {:>12} {:>8}",
            "stage", "wall", "serial", "serial%"
        );
        for st in &prof.stages {
            let _ = writeln!(
                out,
                "  {:<14} {:>9.3} ms {:>9.3} ms {:>7.1}%",
                st.name,
                st.wall_us as f64 / 1e3,
                st.serial_us as f64 / 1e3,
                st.serial_fraction() * 100.0,
            );
        }
    }
    out.push('\n');
    let before = out.len();
    bottlenecks_table(&mut out, tf);
    if out.len() == before {
        let _ = writeln!(
            out,
            "bottlenecks: none attributable (trace carries no spans?)"
        );
    }
    out.push('\n');
    pool_table(&mut out, tf);
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_trace::{chrome_json, Tracer};

    /// A trace shaped like a 4-job protect run: serial stages around a
    /// fanned-out scan, with pool and probe-VM counters.
    fn profiled_trace() -> TraceFile {
        let t = Tracer::new();
        {
            let _root = t.span("protect", "pipeline");
            {
                let _s = t.span("select", "stage");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let scan = t.enter("gadget-scan", "stage");
            let base = t.elapsed_us();
            for w in 0..4 {
                let lane = t.lane(&format!("pool.scan.w{w}"));
                t.span_at(&format!("scan#{w}"), "pool", lane, base, 1_000);
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.exit(scan);
        }
        t.count("pool.scan.runs", 1);
        t.count("pool.scan.items", 8);
        t.count("pool.scan.merge_ns", 800_000);
        t.count("pool.scan.run_ns", 4_000_000);
        t.record("pool.scan.workers", 4);
        for _ in 0..4 {
            t.record("pool.scan.worker_busy_us", 900);
        }
        t.count("vm.probe.builds", 8);
        t.count("vm.probe.build_ns", 12_000_000);
        TraceFile::parse(&chrome_json(&t.snapshot())).expect("trace parses")
    }

    #[test]
    fn bottlenecks_rank_contention_probe_and_merge() {
        let tf = profiled_trace();
        let ranked = bottlenecks(&tf);
        assert!(!ranked.is_empty());
        let labels: Vec<&str> = ranked.iter().map(|b| b.label.as_str()).collect();
        assert!(
            labels.contains(&"probe-VM construction"),
            "probe-VM construction must be attributable: {labels:?}"
        );
        assert!(
            labels.contains(&"merge (scan)"),
            "merge must be attributable: {labels:?}"
        );
        // Ranked by cost, descending.
        for pair in ranked.windows(2) {
            assert!(pair[0].us >= pair[1].us);
        }
        // Quantified: the merge entry carries its counter.
        let merge = ranked
            .iter()
            .find(|b| b.label == "merge (scan)")
            .expect("merge entry");
        assert_eq!(merge.us, 800);
    }

    #[test]
    fn render_profile_names_top_blockers() {
        let tf = profiled_trace();
        let text = render_profile(&tf);
        for needle in [
            "profile:",
            "critical path",
            "amdahl ceiling",
            "stage concurrency:",
            "gadget-scan",
            "bottlenecks (top blockers):",
            "probe-VM construction",
            "merge (scan)",
            "pool sites:",
            "busy",
            "   3.600 ms",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn spanless_trace_degrades() {
        let t = Tracer::new();
        t.count("something.else", 1);
        t.instant("x", "misc", Vec::new());
        let tf = TraceFile::parse(&chrome_json(&t.snapshot())).expect("parses");
        let text = render_profile(&tf);
        assert!(text.contains("none attributable"), "{text}");
    }
}
