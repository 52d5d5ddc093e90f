//! The evaluation harness: reproduces every table and figure of the
//! paper's evaluation (§VII) against the six-program corpus.
//!
//! Each experiment is a pure function returning structured rows; the
//! `fig*`/`tbl*` binaries print them as text tables (recorded in
//! `EXPERIMENTS.md`), and Criterion benches cover toolchain throughput.
//!
//! Measurements use the VM's deterministic cycle model, so results are
//! exactly reproducible; *shapes* (orderings, rough factors) are the
//! comparison target against the paper, not absolute numbers.

#![warn(missing_docs)]

use parallax_compiler::compile_module;
use parallax_core::{protect, ChainMode, ProtectConfig, Protected};
use parallax_corpus::Workload;
use parallax_rewrite::analyze;
use parallax_vm::{Exit, Profiler, Vm, VmOptions};

/// One row of the Figure-6 reproduction (protectable code bytes).
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Program name.
    pub program: String,
    /// Total code bytes.
    pub code_bytes: usize,
    /// % protected by existing near-return gadgets.
    pub existing_near: f64,
    /// % protected by existing far-return gadgets.
    pub existing_far: f64,
    /// % protectable via the modified-immediates rule.
    pub immediate: f64,
    /// % protectable via the jump-offset rule.
    pub jump: f64,
    /// % protectable by any rule.
    pub any: f64,
}

/// Reproduces Figure 6: per-rule protectable-byte percentages.
pub fn fig6_protectability() -> Vec<Fig6Row> {
    parallax_corpus::all()
        .iter()
        .map(|w| {
            let img = compile_module(&(w.module)())
                .expect("corpus compiles")
                .link()
                .expect("corpus links");
            let cov = analyze(&img);
            Fig6Row {
                program: w.name.to_owned(),
                code_bytes: cov.code_bytes,
                existing_near: cov.existing_near_pct(),
                existing_far: cov.existing_far_pct(),
                immediate: cov.immediate_pct(),
                jump: cov.jump_pct(),
                any: cov.any_pct(),
            }
        })
        .collect()
}

/// One row of the Figure-5 reproduction (runtime overhead).
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Program name.
    pub program: String,
    /// Hardening mode name.
    pub mode: &'static str,
    /// Cycles of one native call of the verification function.
    pub native_per_call: f64,
    /// Cycles of one chain invocation (incl. loader + generation).
    pub chain_per_call: f64,
    /// Function-chain slowdown factor (Figure 5a).
    pub slowdown: f64,
    /// Whole-program overhead percentage (Figure 5b).
    pub overhead_pct: f64,
    /// Unprotected whole-program cycles.
    pub base_cycles: u64,
    /// Protected whole-program cycles.
    pub prot_cycles: u64,
    /// Dynamic calls of the verification function.
    pub calls: u64,
}

/// Runs a workload's image to completion and returns total cycles.
pub fn run_cycles(img: &parallax_image::LinkedImage, input: &[u8]) -> u64 {
    let mut vm = Vm::new(img);
    vm.set_input(input);
    match vm.run() {
        Exit::Exited(_) => vm.cycles(),
        other => panic!("run failed: {other}"),
    }
}

/// Functions consuming more than this runtime fraction are exempted
/// from the immediate-splitting rule (profile-guided placement; the
/// zero-overhead overlap rules still apply to them).
pub const HOT_FUNC_THRESHOLD: f64 = 0.10;

/// The hot functions of a profiled run: those at or above
/// [`HOT_FUNC_THRESHOLD`] of its cycles.
pub fn hot_functions_in(prof: &Profiler) -> Vec<String> {
    prof.iter()
        .filter(|(name, _)| prof.fraction(name) >= HOT_FUNC_THRESHOLD)
        .map(|(name, _)| name.to_owned())
        .collect()
}

/// Compiles `w` and runs it on its input with the flat profiler on;
/// returns the VM, its run finished.
fn profiled_base_run(w: &Workload) -> Vm {
    let img = compile_module(&(w.module)())
        .expect("compiles")
        .link()
        .expect("links");
    let mut vm = Vm::with_options(
        &img,
        VmOptions {
            profile: true,
            ..VmOptions::default()
        },
    );
    vm.set_input(&(w.input)());
    assert!(matches!(vm.run(), Exit::Exited(_)));
    vm
}

/// Profiles a workload and returns its hot functions.
pub fn hot_functions(w: &Workload) -> Vec<String> {
    hot_functions_in(profiled_base_run(w).profiler().expect("profiled"))
}

/// Protects `w` with the given mode using its designated §VII-B
/// verification function and profile-guided splitting placement.
pub fn protect_workload(w: &Workload, mode: ChainMode) -> Protected {
    protect_excluding(w, mode, hot_functions(w))
}

/// [`protect_workload`] with the hot functions already known.
fn protect_excluding(w: &Workload, mode: ChainMode, hot: Vec<String>) -> Protected {
    let rewrite = parallax_rewrite::RewriteConfig {
        imm_exclude: hot,
        ..Default::default()
    };
    protect(
        &(w.module)(),
        &ProtectConfig {
            verify_funcs: vec![w.verify_func.to_owned()],
            mode,
            rewrite,
            ..ProtectConfig::default()
        },
    )
    .unwrap_or_else(|e| panic!("{}: protect failed: {e}", w.name))
}

/// Reproduces Figures 5a and 5b for one workload and one mode.
pub fn fig5_row(w: &Workload, mode: ChainMode) -> Fig5Row {
    let input = (w.input)();

    // Unprotected run with a profile: per-call cost and call count of
    // the verification function, and the hot functions protection
    // leaves out of immediate splitting.
    let vm = profiled_base_run(w);
    let base_cycles = vm.cycles();
    let profile = vm.profiler().expect("profiled");
    let prof = profile.func(w.verify_func).unwrap();
    let calls = prof.calls.max(1);
    let native_per_call = prof.cycles as f64 / calls as f64;

    // Protected run.
    let mode_name = mode.name();
    let protected = protect_excluding(w, mode, hot_functions_in(profile));
    let prot_cycles = run_cycles(&protected.image, &input);

    // The chain's per-call cost is the whole-program delta spread over
    // the calls, plus the native work it replaced.
    let delta = prot_cycles as f64 - base_cycles as f64;
    let chain_per_call = native_per_call + delta / calls as f64;
    Fig5Row {
        program: w.name.to_owned(),
        mode: mode_name,
        native_per_call,
        chain_per_call,
        slowdown: chain_per_call / native_per_call,
        overhead_pct: 100.0 * delta / base_cycles as f64,
        base_cycles,
        prot_cycles,
        calls,
    }
}

/// The four hardening strategies of Figure 5.
pub fn fig5_modes() -> Vec<ChainMode> {
    vec![
        ChainMode::Cleartext,
        ChainMode::XorEncrypted { key: 0x5eed_0042 },
        ChainMode::Rc4Encrypted { key: *b"parallax" },
        ChainMode::Probabilistic {
            variants: 6,
            seed: 0xfeed,
        },
    ]
}

/// Full Figure-5 sweep: all programs × all modes.
pub fn fig5_all() -> Vec<Fig5Row> {
    let mut rows = Vec::new();
    for w in parallax_corpus::all() {
        for mode in fig5_modes() {
            rows.push(fig5_row(&w, mode));
        }
    }
    rows
}

/// Renders rows as a fixed-width text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        line.trim_end().to_owned() + "\n"
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push_str(&format!(
        "{}\n",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    ));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// The record for `workload` in a `BENCH_*.baseline.json` file: flat
/// hand-written JSON, one record per line. A full parser would be the
/// only use of one in the workspace.
fn baseline_record<'a>(baseline: &'a str, workload: &str) -> Option<&'a str> {
    baseline
        .lines()
        .find(|l| l.contains(&format!("\"workload\": \"{workload}\"")))
}

/// Pulls `"field": <integer>` out of the baseline record for
/// `workload`.
pub fn baseline_field(baseline: &str, workload: &str, field: &str) -> Option<u64> {
    let rec = baseline_record(baseline, workload)?;
    let tag = format!("\"{field}\": ");
    let at = rec.find(&tag)? + tag.len();
    let digits: String = rec[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Pulls `"field": "<string>"` out of the baseline record for
/// `workload`.
pub fn baseline_str<'a>(baseline: &'a str, workload: &str, field: &str) -> Option<&'a str> {
    let rec = baseline_record(baseline, workload)?;
    let tag = format!("\"{field}\": \"");
    let at = rec.find(&tag)? + tag.len();
    rec[at..].split('"').next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_shapes_match_paper() {
        let rows = fig6_protectability();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            // Existing gadgets are a small fraction; the rewriting
            // rules add the bulk — the paper's qualitative result.
            assert!(r.any >= r.existing_near, "{}: any < existing?", r.program);
            assert!(r.any <= 100.0);
            assert!(
                r.jump + r.immediate > r.existing_near + r.existing_far,
                "{}: rules must dominate existing gadgets",
                r.program
            );
        }
    }

    #[test]
    fn fig5_cleartext_shape() {
        // One representative row to keep test time reasonable; the full
        // sweep runs in the harness binaries.
        let w = parallax_corpus::by_name("lame").unwrap();
        let row = fig5_row(&w, ChainMode::Cleartext);
        assert!(
            row.slowdown > 2.0,
            "chains must be much slower than native ({:.1}x)",
            row.slowdown
        );
        assert!(
            row.overhead_pct < 4.0,
            "whole-program overhead must stay under the paper's 4% \
             ({:.2}%)",
            row.overhead_pct
        );
    }

    #[test]
    fn table_renders() {
        let t = table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        assert!(t.contains("bb"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn baseline_fields_come_from_the_named_record() {
        let baseline = "[\n\
            {\"workload\": \"gcc_jobs2\", \"gadgets\": 9},\n\
            {\"workload\": \"gcc\", \"gadgets\": 812, \"image_hash\": \"00ab\"},\n\
            {\"workload\": \"nginx\", \"gadgets\": 40, \"ratio\": -3}\n\
            ]\n";
        assert_eq!(baseline_field(baseline, "gcc", "gadgets"), Some(812));
        assert_eq!(baseline_field(baseline, "nginx", "gadgets"), Some(40));
        assert_eq!(baseline_str(baseline, "gcc", "image_hash"), Some("00ab"));
        // Absent workloads and fields, and non-integers, are `None`.
        assert_eq!(baseline_field(baseline, "wget", "gadgets"), None);
        assert_eq!(baseline_field(baseline, "gcc", "chains"), None);
        assert_eq!(baseline_field(baseline, "nginx", "ratio"), None);
        assert_eq!(baseline_str(baseline, "gcc", "gadgets"), None);
    }
}
