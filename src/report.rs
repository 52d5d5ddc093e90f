//! `plx report`: paper-style evaluation tables from `--trace-out`
//! files.
//!
//! The report mirrors the tables of the source paper's evaluation
//! (§VII): per-function verification overhead (cycles per invocation
//! and share of total runtime), chain length distribution, and the
//! §IV-B overlapping-gadget fraction — all reconstructed from the
//! counters, histograms, and spans a single traced run emits, so
//! `plx protect --trace-out t.json` followed by `plx report t.json`
//! needs no other artifacts. `render_diff` compares two trace files
//! stage by stage for before/after measurements.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use parallax_core::Stage;
use parallax_serve::{render_service_report, Request};
use parallax_trace::{Histogram, TraceFile};

/// Per-function verification statistics pulled from `vf.*` counters.
#[derive(Debug, Clone, PartialEq)]
pub struct VfRow {
    /// Verification function name.
    pub func: String,
    /// Chain executions observed.
    pub invocations: u64,
    /// Gadget dispatches across all invocations.
    pub dispatches: u64,
    /// VM cycles across all invocations.
    pub cycles: u64,
}

impl VfRow {
    /// Mean cycles per invocation (0.0 when never invoked).
    pub fn cycles_per_invocation(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.cycles as f64 / self.invocations as f64
        }
    }

    /// Share of `total_cycles` spent verifying (0.0 when unknown).
    pub fn overhead(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.cycles as f64 / total_cycles as f64
        }
    }
}

/// Extracts the per-function verification rows from a trace's
/// `vf.<func>.{invocations,cycles,dispatches}` counters, name-sorted.
pub fn vf_rows(tf: &TraceFile) -> Vec<VfRow> {
    let mut funcs = BTreeSet::new();
    for key in tf.counters.keys() {
        if let Some(rest) = key.strip_prefix("vf.") {
            if let Some(func) = rest.strip_suffix(".invocations") {
                funcs.insert(func.to_string());
            }
        }
    }
    funcs
        .into_iter()
        .map(|func| {
            let get = |suffix: &str| {
                tf.counters
                    .get(&format!("vf.{func}.{suffix}"))
                    .copied()
                    .unwrap_or(0)
            };
            VfRow {
                invocations: get("invocations"),
                dispatches: get("dispatches"),
                cycles: get("cycles"),
                func,
            }
        })
        .collect()
}

/// Total VM cycles of the traced run, if the trace recorded them.
pub fn total_run_cycles(tf: &TraceFile) -> Option<u64> {
    tf.counters.get("vm.run.cycles").copied()
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 * 100.0 / den as f64
    }
}

/// Appends the per-stage wall-time table (one row per [`Stage::ALL`]
/// entry) when the trace holds any stage span; `plx batch
/// --trace-out` prints it too.
pub(crate) fn stage_table(out: &mut String, tf: &TraceFile) {
    let names = Stage::ALL.map(|s| s.to_string());
    if !names.iter().any(|s| tf.spans_named(s).next().is_some()) {
        return;
    }
    let _ = writeln!(out, "pipeline stages (wall time):");
    for stage in &names {
        let blocks = tf.spans_named(stage).count() as u64;
        let _ = writeln!(
            out,
            "  {:<14} {:>10.3} ms  ({blocks} blocks)",
            stage,
            tf.total_dur_us(stage) as f64 / 1e3
        );
    }
}

/// The pool site of the one fanned-out pass these tables report,
/// rewrite pass 1 (gadget validation's `scan` site is `plx profile`'s).
const PAR_SITE: &str = "rewrite";

/// Wall and summed worker-busy microseconds of a site's pool runs.
fn pool_wall_busy(tf: &TraceFile, site: &str) -> (u64, u64) {
    let run_ns = tf.counters.get(&format!("pool.{site}.run_ns"));
    (
        run_ns.copied().unwrap_or(0) / 1_000,
        crate::profile::pool_busy_us(tf, site),
    )
}

/// Busy over wall: the parallel speedup a pool run achieved.
fn speedup(busy: u64, wall: u64) -> f64 {
    if wall == 0 {
        0.0
    } else {
        busy as f64 / wall as f64
    }
}

/// Parallel/incremental protection telemetry: wall vs worker-busy time
/// of the fanned-out rewrite pool run, its worker count, and the
/// function-grained rewrite cache.
fn parallel_table(out: &mut String, tf: &TraceFile) {
    let get = |k: &str| tf.counters.get(k).copied().unwrap_or(0);
    let (wall, busy) = pool_wall_busy(tf, PAR_SITE);
    let (hits, misses) = (
        get("cache.func.rewritten.hit"),
        get("cache.func.rewritten.miss"),
    );
    if wall == 0 && hits + misses == 0 {
        return;
    }
    let _ = writeln!(out, "protection pipeline (parallel + incremental):");
    if wall > 0 {
        let workers = crate::profile::pool_workers(tf, PAR_SITE).max(1);
        let _ = writeln!(out, "  workers: {workers}");
        let _ = writeln!(
            out,
            "  {PAR_SITE:<14} {:>9.3} ms wall  {:>9.3} ms busy  ({:.2}x parallel speedup)",
            wall as f64 / 1e3,
            busy as f64 / 1e3,
            speedup(busy, wall)
        );
    }
    if hits + misses > 0 {
        let _ = writeln!(
            out,
            "  func cache: {hits} hits, {misses} misses ({:.1}% hit rate)",
            pct(hits, hits + misses)
        );
    }
}

fn vf_table(out: &mut String, tf: &TraceFile) {
    let rows = vf_rows(tf);
    if rows.is_empty() {
        return;
    }
    let total = total_run_cycles(tf);
    let _ = writeln!(out, "verification overhead (per function):");
    let _ = writeln!(
        out,
        "  {:<20} {:>7} {:>10} {:>12} {:>12}  {:>9}",
        "function", "invocs", "dispatches", "cycles", "cyc/invoc", "overhead"
    );
    for r in &rows {
        let overhead = match total {
            Some(t) => format!("{:8.2}%", r.overhead(t) * 100.0),
            None => "       ?".to_string(),
        };
        let _ = writeln!(
            out,
            "  {:<20} {:>7} {:>10} {:>12} {:>12.1}  {overhead}",
            r.func,
            r.invocations,
            r.dispatches,
            r.cycles,
            r.cycles_per_invocation()
        );
    }
    if let Some(t) = total {
        let _ = writeln!(out, "  total run cycles: {t}");
    }
}

fn chain_table(out: &mut String, tf: &TraceFile) {
    let Some(words) = tf.hists.get("chain.words") else {
        return;
    };
    let _ = writeln!(out, "chain length distribution (words):");
    let _ = writeln!(
        out,
        "  chains: {}   mean: {:.1}   min: {}   max: {}",
        words.count,
        words.mean(),
        words.min,
        words.max
    );
    let peak = words.buckets.iter().map(|&(_, n)| n).max().unwrap_or(1);
    for &(bits, n) in &words.buckets {
        let (lo, hi) = Histogram::bucket_range(bits);
        let bar = "#".repeat(((n * 24).div_ceil(peak.max(1))) as usize);
        let _ = writeln!(out, "  [{lo:>6}..{hi:>6}] {n:>5}  {bar}");
    }
    if let Some(ops) = tf.hists.get("chain.ops") {
        let _ = writeln!(
            out,
            "  gadget ops per chain: mean {:.1} (min {}, max {})",
            ops.mean(),
            ops.min,
            ops.max
        );
    }
}

fn gadget_table(out: &mut String, tf: &TraceFile) {
    let used = tf.counters.get("chain.used.total").copied().unwrap_or(0);
    let overl = tf
        .counters
        .get("chain.used.overlapping")
        .copied()
        .unwrap_or(0);
    let pick_o = tf
        .counters
        .get("chain.pick.overlapping")
        .copied()
        .unwrap_or(0);
    let pick_x = tf.counters.get("chain.pick.other").copied().unwrap_or(0);
    if used == 0 && pick_o + pick_x == 0 {
        return;
    }
    let _ = writeln!(out, "gadget provenance (paper SIV-B):");
    if used > 0 {
        let _ = writeln!(
            out,
            "  overlapping gadget fraction: {:.1}%  ({overl} of {used} used gadgets)",
            pct(overl, used)
        );
    }
    if pick_o + pick_x > 0 {
        let _ = writeln!(
            out,
            "  selections preferring overlap: {:.1}%  ({pick_o} of {} selections)",
            pct(pick_o, pick_o + pick_x),
            pick_o + pick_x
        );
    }
    let kinds: Vec<(&str, u64)> = tf
        .counters
        .iter()
        .filter_map(|(k, &v)| k.strip_prefix("vm.dispatch.kind.").map(|r| (r, v)))
        .collect();
    if !kinds.is_empty() {
        let total: u64 = kinds.iter().map(|&(_, n)| n).sum();
        let _ = writeln!(out, "  dispatches by gadget kind:");
        for (kind, n) in kinds {
            let _ = writeln!(out, "    {kind:<12} {n:>6}  ({:.1}%)", pct(n, total));
        }
    }
}

/// Block-translation cache and scanner-memoization behaviour: how the
/// execution engine served the traced runs.
fn engine_table(out: &mut String, tf: &TraceFile) {
    let get = |k: &str| tf.counters.get(k).copied().unwrap_or(0);
    let (hits, misses, inval, checked) = (
        get("vm.block.hit"),
        get("vm.block.miss"),
        get("vm.block.invalidate"),
        get("vm.block.checked"),
    );
    let (offsets, shapes, decoded, skipped, memo) = (
        get("scan.decode.offsets"),
        get("scan.decode.shape"),
        get("scan.decode.once"),
        get("scan.decode.skipped"),
        get("scan.decode.memo_hit"),
    );
    if hits + misses == 0 && shapes + decoded == 0 {
        return;
    }
    let _ = writeln!(out, "execution engine:");
    if hits + misses > 0 {
        let _ = writeln!(
            out,
            "  block cache: {hits} hits, {misses} misses ({:.1}% hit rate), {inval} invalidations",
            pct(hits, hits + misses)
        );
        let _ = writeln!(
            out,
            "  checked blocks: {checked} (run op by op: near the cycle limit, \
             across two functions, or with W⊕X off)"
        );
    }
    if shapes + decoded > 0 {
        let _ = writeln!(
            out,
            "  gadget scan: {shapes} shape decodes and {decoded} full decodes \
             (paid once per content) over {offsets} text offsets \
             ({skipped} reached by no candidate), {memo} link and assembly steps"
        );
        let _ = writeln!(
            out,
            "  shapes reused from the previous pass: {}",
            get("scan.decode.reused")
        );
    }
}

/// Shared-trial gadget-validation telemetry: probe executions per
/// proposal (one per trial, regardless of how many effects a proposal
/// carries), the per-(effect, trial) runs the shared path avoided, how
/// many runs were second trials, the proposals rejected and the
/// verdicts served without a probe, scratch-reseeding volume, and the
/// copy-on-write pages the probe VMs wrote.
fn validation_table(out: &mut String, tf: &TraceFile) {
    let get = |k: &str| tf.counters.get(k).copied().unwrap_or(0);
    let proposals = get("vm.probe.proposals");
    let runs = get("vm.probe.runs");
    let reused = get("vm.probe.reused");
    let shared = get("vm.probe.shared");
    if proposals + runs + reused + shared == 0 {
        return;
    }
    let per = if proposals == 0 {
        0.0
    } else {
        runs as f64 / proposals as f64
    };
    let saved = get("vm.probe.runs_saved");
    let _ = writeln!(out, "gadget validation (shared-trial probes):");
    let _ = writeln!(
        out,
        "  proposals: {proposals}   probe runs: {runs} ({per:.2} per proposal)   runs saved: {saved} ({:.1}%)   second trials: {}",
        pct(saved, runs + saved),
        get("vm.probe.second_trials")
    );
    let _ = writeln!(
        out,
        "  proposals prejudged (unmapped access, undefined syscall, no effect): {} (no probe run)",
        get("vm.probe.prejudged")
    );
    let _ = writeln!(
        out,
        "  verdicts reused from the previous pass: {reused} (no probe run)"
    );
    let _ = writeln!(
        out,
        "  verdicts shared by same-content copies: {shared} (no probe run)"
    );
    let _ = writeln!(
        out,
        "  scratch reseed: {} words   probe VMs: {} built ({:.3} ms)",
        get("vm.probe.reseed_words"),
        get("vm.probe.builds"),
        get("vm.probe.build_ns") as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "  probe VM pages copied on write: {}",
        get("vm.mem.pages_copied")
    );
}

/// Fail-closed loading telemetry: image verifications (pass/fail and
/// wall time) and cache entries refused by load-time verification.
fn verification_table(out: &mut String, tf: &TraceFile) {
    let get = |k: &str| tf.counters.get(k).copied().unwrap_or(0);
    let (pass, fail, ns) = (
        get("image.verify.pass"),
        get("image.verify.fail"),
        get("image.verify.ns"),
    );
    let cache_fail = get("cache.verify.fail");
    if pass + fail + cache_fail == 0 {
        return;
    }
    let _ = writeln!(out, "verification:");
    if pass + fail > 0 {
        let _ = writeln!(
            out,
            "  image loads:  {pass} verified, {fail} refused ({:.3} ms total)",
            ns as f64 / 1e6
        );
    }
    if cache_fail > 0 {
        let _ = writeln!(
            out,
            "  cache:        {cache_fail} entries refused by load-time verification"
        );
    }
}

/// Renders the full report for one trace file.
pub fn render_report(tf: &TraceFile) -> String {
    let mut out = String::new();
    stage_table(&mut out, tf);
    if !out.is_empty() {
        out.push('\n');
    }
    parallel_table(&mut out, tf);
    if !out.ends_with("\n\n") && !out.is_empty() {
        out.push('\n');
    }
    vf_table(&mut out, tf);
    if !out.ends_with("\n\n") && !out.is_empty() {
        out.push('\n');
    }
    chain_table(&mut out, tf);
    if !out.ends_with("\n\n") && !out.is_empty() {
        out.push('\n');
    }
    gadget_table(&mut out, tf);
    if !out.ends_with("\n\n") && !out.is_empty() {
        out.push('\n');
    }
    engine_table(&mut out, tf);
    if !out.ends_with("\n\n") && !out.is_empty() {
        out.push('\n');
    }
    validation_table(&mut out, tf);
    if !out.ends_with("\n\n") && !out.is_empty() {
        out.push('\n');
    }
    verification_table(&mut out, tf);
    if !out.ends_with("\n\n") && !out.is_empty() {
        out.push('\n');
    }
    out.push_str(&render_service_report(&tf.counters, &tf.hists));
    if !out.ends_with("\n\n") && !out.is_empty() {
        out.push('\n');
    }
    crate::profile::bottlenecks_table(&mut out, tf);
    let trimmed = out.trim_end().to_string();
    if trimmed.is_empty() {
        "trace contains no reportable metrics (was it produced with --trace-out?)".to_string()
    } else {
        trimmed
    }
}

fn signed_ms(delta_us: i64) -> String {
    format!("{:+.3} ms", delta_us as f64 / 1e3)
}

/// Renders a stage-by-stage and overhead comparison of two traces
/// (`b` relative to `a`).
pub fn render_diff(a: &TraceFile, b: &TraceFile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "pipeline stages (wall time, b - a):");
    let _ = writeln!(
        out,
        "  {:<14} {:>12} {:>12} {:>12}",
        "stage", "a", "b", "delta"
    );
    for stage in Stage::ALL.map(|s| s.to_string()) {
        let ta = a.total_dur_us(&stage);
        let tb = b.total_dur_us(&stage);
        let _ = writeln!(
            out,
            "  {:<14} {:>9.3} ms {:>9.3} ms {:>12}",
            stage,
            ta as f64 / 1e3,
            tb as f64 / 1e3,
            signed_ms(tb as i64 - ta as i64)
        );
    }

    // Parallel-vs-sequential comparison of the fanned-out pass: when
    // either trace carries its `pool.*` run (e.g. a --jobs 1 baseline
    // against a --jobs N run), show the wall-time delta and how the
    // parallel speedup moved.
    let par = |tf: &TraceFile, k: &str| tf.counters.get(k).copied().unwrap_or(0);
    let ((wa, ca), (wb, cb)) = (pool_wall_busy(a, PAR_SITE), pool_wall_busy(b, PAR_SITE));
    if wa + wb > 0 {
        let _ = writeln!(out, "\nparallel protection (wall time, b - a):");
        let _ = writeln!(
            out,
            "  {PAR_SITE:<14} {:>9.3} ms -> {:>9.3} ms ({})   speedup {:.2}x -> {:.2}x",
            wa as f64 / 1e3,
            wb as f64 / 1e3,
            signed_ms(wb as i64 - wa as i64),
            speedup(ca, wa),
            speedup(cb, wb)
        );
        let (fa, fb) = (
            (
                par(a, "cache.func.rewritten.hit"),
                par(a, "cache.func.rewritten.miss"),
            ),
            (
                par(b, "cache.func.rewritten.hit"),
                par(b, "cache.func.rewritten.miss"),
            ),
        );
        if fa.0 + fa.1 + fb.0 + fb.1 > 0 {
            let _ = writeln!(
                out,
                "  func cache     {:.1}% -> {:.1}% hit rate ({} -> {} hits)",
                pct(fa.0, fa.0 + fa.1),
                pct(fb.0, fb.0 + fb.1),
                fa.0,
                fb.0
            );
        }
    }

    // Gadget-pass work: decodes, probe runs (and how many were second
    // trials) and probe-VM page copies performed, the proposals
    // rejected without a run, and what the incremental second pass and
    // same-content copies reused instead. A full decode is paid once per
    // content, on its representative's path, not once per candidate.
    let work = [
        ("full decodes", "scan.decode.once"),
        ("shape decodes", "scan.decode.shape"),
        ("shapes reused", "scan.decode.reused"),
        ("shapes skipped", "scan.decode.skipped"),
        ("probe runs", "vm.probe.runs"),
        ("second trials", "vm.probe.second_trials"),
        ("prejudged", "vm.probe.prejudged"),
        ("verdicts reused", "vm.probe.reused"),
        ("verdicts shared", "vm.probe.shared"),
        ("pages copied", "vm.mem.pages_copied"),
    ];
    if work.iter().any(|(_, k)| par(a, k) + par(b, k) > 0) {
        let _ = writeln!(out, "\ngadget work (b - a):");
        for (name, k) in work {
            let (wa, wb) = (par(a, k), par(b, k));
            let _ = writeln!(
                out,
                "  {name:<16} {wa:>9} -> {wb:>9} ({:+})",
                wb as i64 - wa as i64
            );
        }
    }

    let (rows_a, rows_b) = (vf_rows(a), vf_rows(b));
    let (tot_a, tot_b) = (total_run_cycles(a), total_run_cycles(b));
    let mut funcs: BTreeSet<&str> = rows_a.iter().map(|r| r.func.as_str()).collect();
    funcs.extend(rows_b.iter().map(|r| r.func.as_str()));
    if !funcs.is_empty() {
        let _ = writeln!(out, "\nverification overhead (b - a):");
        for func in funcs {
            let find = |rows: &[VfRow]| rows.iter().find(|r| r.func == func).cloned();
            let (ra, rb) = (find(&rows_a), find(&rows_b));
            let cpi = |r: &Option<VfRow>| r.as_ref().map_or(0.0, VfRow::cycles_per_invocation);
            let ovh = |r: &Option<VfRow>, t: Option<u64>| match (r, t) {
                (Some(r), Some(t)) => r.overhead(t) * 100.0,
                _ => 0.0,
            };
            let _ = writeln!(
                out,
                "  {func:<20} cyc/invoc {:>10.1} -> {:>10.1} ({:+.1})   overhead {:>6.2}% -> {:>6.2}% ({:+.2}pp)",
                cpi(&ra),
                cpi(&rb),
                cpi(&rb) - cpi(&ra),
                ovh(&ra, tot_a),
                ovh(&rb, tot_b),
                ovh(&rb, tot_b) - ovh(&ra, tot_a)
            );
        }
    }

    if let (Some(wa), Some(wb)) = (a.hists.get("chain.words"), b.hists.get("chain.words")) {
        let _ = writeln!(
            out,
            "\nchain words: mean {:.1} -> {:.1} ({:+.1})",
            wa.mean(),
            wb.mean(),
            wb.mean() - wa.mean()
        );
    }

    // Fail-closed loading deltas (only when either trace verified
    // anything): pass/fail counts and cache refusals.
    let vc = |tf: &TraceFile, k: &str| tf.counters.get(k).copied().unwrap_or(0);
    let any_verify = [
        "image.verify.pass",
        "image.verify.fail",
        "cache.verify.fail",
    ]
    .iter()
    .any(|k| vc(a, k) + vc(b, k) > 0);
    if any_verify {
        let _ = writeln!(
            out,
            "\nverification (b - a):\n  image loads:  {} -> {} verified, {} -> {} refused\n  cache:        {} -> {} entries refused by load-time verification",
            vc(a, "image.verify.pass"),
            vc(b, "image.verify.pass"),
            vc(a, "image.verify.fail"),
            vc(b, "image.verify.fail"),
            vc(a, "cache.verify.fail"),
            vc(b, "cache.verify.fail"),
        );
    }

    // Service-side deltas (only when either trace carries `serve.*`
    // telemetry): request volume, admission outcomes, per-kind p99.
    let sv = |tf: &TraceFile, k: &str| tf.counters.get(k).copied().unwrap_or(0);
    let req_total = |tf: &TraceFile| -> u64 {
        Request::KINDS
            .iter()
            .map(|k| sv(tf, &format!("serve.requests.{k}")))
            .sum()
    };
    let shed_total = |tf: &TraceFile| -> u64 {
        tf.counters
            .iter()
            .filter(|(k, _)| k.starts_with("serve.shed."))
            .map(|(_, &v)| v)
            .sum()
    };
    if req_total(a) + req_total(b) + sv(a, "serve.admitted") + sv(b, "serve.admitted") > 0 {
        let _ = writeln!(
            out,
            "\nservice (b - a):\n  requests: {} -> {}   admitted: {} -> {}   shed: {} -> {}",
            req_total(a),
            req_total(b),
            sv(a, "serve.admitted"),
            sv(b, "serve.admitted"),
            shed_total(a),
            shed_total(b),
        );
        for kind in Request::KINDS {
            let key = format!("serve.latency.{kind}_us");
            let (ha, hb) = (a.hists.get(&key), b.hists.get(&key));
            if ha.is_none() && hb.is_none() {
                continue;
            }
            let p99 = |h: Option<&parallax_trace::HistRec>| {
                h.map_or(0, |h| h.percentile(0.99)) as f64 / 1e3
            };
            let _ = writeln!(
                out,
                "  p99       {kind:<9} {:>9.3} ms -> {:>9.3} ms ({})",
                p99(ha),
                p99(hb),
                signed_ms((p99(hb) * 1e3) as i64 - (p99(ha) * 1e3) as i64)
            );
        }
    }
    // Pool deltas (only when either trace carries `pool.*` telemetry).
    // Traces recorded before the pool namespace existed — e.g. a
    // pre-profiler baseline — degrade to a `not recorded` marker on
    // that side instead of being compared as zeros.
    let (sites_a, sites_b) = (crate::profile::pool_sites(a), crate::profile::pool_sites(b));
    if !sites_a.is_empty() || !sites_b.is_empty() {
        let _ = writeln!(out, "\npool sites (b - a):");
        let mut sites: BTreeSet<&String> = sites_a.iter().collect();
        sites.extend(sites_b.iter());
        let side = |tf: &TraceFile, recorded: bool, site: &str| -> String {
            if !recorded {
                return "not recorded".to_string();
            }
            let p = |s: &str| par(tf, &format!("pool.{site}.{s}"));
            format!(
                "{} runs, {} items, {:.3} ms busy, {} workers",
                p("runs"),
                p("items"),
                crate::profile::pool_busy_us(tf, site) as f64 / 1e3,
                crate::profile::pool_workers(tf, site)
            )
        };
        for site in sites {
            let _ = writeln!(
                out,
                "  {site:<9} {}  ->  {}",
                side(a, sites_a.contains(site), site),
                side(b, sites_b.contains(site), site)
            );
        }
    }

    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_trace::{chrome_json, Tracer};

    fn sample_trace(cycles: u64, words: u64) -> TraceFile {
        let t = Tracer::new();
        {
            let _root = t.span("protect", "pipeline");
            for s in Stage::ALL {
                let _g = t.span(&s.to_string(), "stage");
            }
        }
        t.count("vf.vf.invocations", 2);
        t.count("vf.vf.cycles", cycles);
        t.count("vf.vf.dispatches", 14);
        t.count("vm.run.cycles", cycles * 10);
        t.count("chain.used.total", 8);
        t.count("chain.used.overlapping", 6);
        t.count("chain.pick.overlapping", 5);
        t.count("chain.pick.other", 3);
        t.count("vm.dispatch.kind.LoadConst", 9);
        t.count("vm.block.hit", 900);
        t.count("vm.block.miss", 100);
        t.count("vm.block.invalidate", 3);
        t.count("vm.block.checked", 7);
        t.count("scan.decode.offsets", 9000);
        t.count("scan.decode.once", 1500);
        t.count("scan.decode.shape", 5000);
        t.count("scan.decode.reused", 3000);
        t.count("scan.decode.skipped", 1000);
        t.count("scan.decode.memo_hit", 20000);
        t.count("vm.probe.proposals", 486);
        t.count("vm.probe.runs", 941);
        t.count("vm.probe.second_trials", 455);
        t.count("vm.probe.prejudged", 40);
        t.count("vm.probe.reused", 120);
        t.count("vm.probe.shared", 4200);
        t.count("vm.probe.runs_saved", 59);
        t.count("vm.probe.reseed_words", 12800);
        t.count("vm.probe.builds", 2);
        t.count("vm.probe.build_ns", 1_500_000);
        t.count("vm.mem.pages_copied", 1900);
        t.count("pool.rewrite.run_ns", 500_000);
        t.count("pool.scan.run_ns", 1_000_000);
        for _ in 0..4 {
            t.record("pool.rewrite.worker_busy_us", 500);
            t.record("pool.scan.worker_busy_us", 750);
        }
        t.record("pool.rewrite.workers", 4);
        t.record("pool.scan.workers", 4);
        t.count("cache.func.rewritten.hit", 3);
        t.count("cache.func.rewritten.miss", 1);
        t.record("chain.words", words);
        t.record("chain.ops", 11);
        t.count("image.verify.pass", 5);
        t.count("image.verify.fail", 1);
        t.count("image.verify.ns", 2_000_000);
        t.count("cache.verify.fail", 2);
        TraceFile::parse(&chrome_json(&t.snapshot())).expect("sample trace parses")
    }

    #[test]
    fn report_renders_all_sections() {
        let tf = sample_trace(400, 96);
        let report = render_report(&tf);
        for needle in [
            "pipeline stages",
            "chain-compile",
            "verification overhead",
            "cyc/invoc",
            "10.00%", // 400 of 4000 cycles
            "chain length distribution",
            "overlapping gadget fraction: 75.0%",
            "selections preferring overlap: 62.5%",
            "LoadConst",
            "execution engine",
            "protection pipeline (parallel + incremental)",
            "workers: 4\n",
            "4.00x parallel speedup",
            "func cache: 3 hits, 1 misses (75.0% hit rate)",
            "block cache: 900 hits, 100 misses (90.0% hit rate), 3 invalidations",
            "checked blocks: 7 (run op by op: near the cycle limit, \
             across two functions, or with W⊕X off)",
            "5000 shape decodes and 1500 full decodes (paid once per content) \
             over 9000 text offsets (1000 reached by no candidate)",
            "20000 link and assembly steps",
            "shapes reused from the previous pass: 3000",
            "gadget validation (shared-trial probes):",
            "proposals: 486   probe runs: 941 (1.94 per proposal)   runs saved: 59 (5.9%)   second trials: 455",
            "proposals prejudged (unmapped access, undefined syscall, no effect): 40 (no probe run)",
            "verdicts reused from the previous pass: 120 (no probe run)",
            "verdicts shared by same-content copies: 4200 (no probe run)",
            "scratch reseed: 12800 words   probe VMs: 2 built (1.500 ms)",
            "probe VM pages copied on write: 1900",
            "verification:",
            "image loads:  5 verified, 1 refused (2.000 ms total)",
            "cache:        2 entries refused by load-time verification",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
        }
    }

    #[test]
    fn report_on_metricless_trace_degrades_gracefully() {
        let t = Tracer::new();
        t.instant("x", "misc", Vec::new());
        let tf = TraceFile::parse(&chrome_json(&t.snapshot())).expect("parses");
        let report = render_report(&tf);
        assert!(report.contains("no reportable metrics"), "{report}");
    }

    #[test]
    fn diff_shows_stage_and_overhead_deltas() {
        let a = sample_trace(400, 96);
        let b = sample_trace(800, 32);
        let diff = render_diff(&a, &b);
        assert!(diff.contains("pipeline stages"), "{diff}");
        assert!(diff.contains("delta"), "{diff}");
        // cycles/invocation doubled: 200 -> 400.
        assert!(diff.contains("200.0 ->      400.0 (+200.0)"), "{diff}");
        // Overhead share is cycles/run_cycles = 10% in both.
        assert!(diff.contains("(+0.00pp)"), "{diff}");
        assert!(
            diff.contains("chain words: mean 96.0 -> 32.0 (-64.0)"),
            "{diff}"
        );
        assert!(
            diff.contains("parallel protection (wall time, b - a)"),
            "{diff}"
        );
        assert!(diff.contains("speedup 4.00x -> 4.00x"), "{diff}");
        assert!(diff.contains("pool sites (b - a):"), "{diff}");
        assert!(
            diff.contains("scan      0 runs, 0 items, 3.000 ms busy, 4 workers"),
            "{diff}"
        );
        assert!(
            diff.contains("func cache     75.0% -> 75.0% hit rate (3 -> 3 hits)"),
            "{diff}"
        );
        assert!(diff.contains("gadget work (b - a):"), "{diff}");
        assert!(
            diff.contains("shapes reused         3000 ->      3000 (+0)"),
            "{diff}"
        );
        assert!(
            diff.contains("second trials          455 ->       455 (+0)"),
            "{diff}"
        );
        assert!(
            diff.contains("prejudged               40 ->        40 (+0)"),
            "{diff}"
        );
        assert!(
            diff.contains("verdicts reused        120 ->       120 (+0)"),
            "{diff}"
        );
        assert!(
            diff.contains("verdicts shared       4200 ->      4200 (+0)"),
            "{diff}"
        );
        assert!(
            diff.contains("pages copied          1900 ->      1900 (+0)"),
            "{diff}"
        );
        assert!(diff.contains("verification (b - a):"), "{diff}");
        assert!(
            diff.contains("image loads:  5 -> 5 verified, 1 -> 1 refused"),
            "{diff}"
        );
    }

    fn service_trace(protects: u64, shed: u64, latency_us: u64) -> TraceFile {
        let t = Tracer::new();
        t.count("serve.requests.protect", protects);
        t.count("serve.requests.status", 1);
        t.count("serve.admitted", protects);
        if shed > 0 {
            t.count("serve.shed.queue-full", shed);
        }
        for _ in 0..protects {
            t.record("serve.latency.protect_us", latency_us);
        }
        t.record("serve.queue.depth", 3);
        t.count("serve.conn.accepted", 4);
        t.count("serve.flight.recorded", protects + shed);
        if shed > 0 {
            t.count("serve.flight.snapshot.shed", shed);
        }
        TraceFile::parse(&chrome_json(&t.snapshot())).expect("service trace parses")
    }

    #[test]
    fn report_renders_service_section() {
        let report = render_report(&service_trace(8, 2, 2_000));
        for needle in [
            "service (plx serve):",
            "requests: 9  (protect 8, status 1)",
            "latency   protect",
            "p50",
            "p99",
            "(8 samples)",
            "queue depth max: 3",
            "admission: 8 admitted / 2 shed (20.0% shed rate)",
            "shed.queue-full  2",
            "connections: 4 accepted",
            "flight recorder: 10 requests recorded; snapshots: 2 shed, 0 slow-request, 0 verify-fail",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
        }
    }

    #[test]
    fn diff_shows_service_deltas() {
        let a = service_trace(8, 0, 1_000);
        let b = service_trace(16, 4, 4_000);
        let diff = render_diff(&a, &b);
        assert!(diff.contains("service (b - a):"), "{diff}");
        assert!(
            diff.contains("requests: 9 -> 17   admitted: 8 -> 16   shed: 0 -> 4"),
            "{diff}"
        );
        assert!(diff.contains("p99       protect"), "{diff}");
        // Traces without serve.* counters render no service section.
        let plain = render_diff(&sample_trace(400, 96), &sample_trace(400, 96));
        assert!(!plain.contains("service (b - a)"), "{plain}");
    }

    #[test]
    fn vf_rows_and_totals() {
        let tf = sample_trace(400, 96);
        let rows = vf_rows(&tf);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].func, "vf");
        assert_eq!(rows[0].invocations, 2);
        assert!((rows[0].cycles_per_invocation() - 200.0).abs() < 1e-9);
        assert_eq!(total_run_cycles(&tf), Some(4000));
        assert!((rows[0].overhead(4000) - 0.1).abs() < 1e-9);
        assert_eq!(rows[0].overhead(0), 0.0);
    }
}
