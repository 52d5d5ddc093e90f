//! Gadget-validation throughput benchmark: the shared-trial probe path
//! against the legacy per-(effect, trial) loop, on the images
//! `protect()` actually validates.
//!
//! Each corpus workload (`gcc`, `nginx`) is protected once and its
//! rewritten text is scanned and classified; the resulting proposal
//! stream is then validated cold two ways:
//!
//! * **shared** — a [`ProbeVm`] (dirty-page reset, one probe run per
//!   trial shared by every effect, a second trial only where the first
//!   cannot settle the verdict, lazy scratch seeding), the path
//!   `protect()` uses;
//! * **legacy** — the pre-restructuring loop (`validate::legacy`): one
//!   probe per (effect, trial), scratch redrawn every probe, full
//!   rollback between proposals.
//!
//! Verdicts must agree gadget-for-gadget. Results append to
//! `BENCH_validate.json`. `--smoke` is the CI gate: deterministic
//! fields (proposal/probe-run/prejudged/gadget counts) must match
//! `BENCH_validate.baseline.json` exactly, probe runs must equal one
//! first trial per proposal not prejudged plus the second trials, and
//! the in-process shared-vs-legacy speedup — a ratio of
//! two measurements on the same host, so machine-independent — must
//! clear a loose floor.

use std::process::ExitCode;
use std::time::Instant;

use parallax_bench::baseline_field;
use parallax_core::{protect, ChainMode, ProtectConfig};
use parallax_gadgets::scan::scan;
use parallax_gadgets::validate::legacy;
use parallax_gadgets::{classify, ProbeVm, Proposal};
use parallax_image::LinkedImage;
use parallax_vm::{Vm, VmOptions};

struct Row {
    workload: &'static str,
    proposals: u64,
    probe_runs: u64,
    /// Probe runs that were a proposal's second trial.
    second_trials: u64,
    /// Proposals the shared path rejected without a run.
    prejudged: u64,
    runs_saved: u64,
    gadgets: u64,
    shared_ms: f64,
    legacy_ms: f64,
    speedup_vs_legacy: f64,
    probes_per_sec: f64,
}

/// The image whose candidates `protect()` validates: the workload's
/// module protected under the bench config, i.e. rewritten text.
fn protected_image(name: &str) -> Result<LinkedImage, String> {
    let w = parallax_corpus::by_name(name).ok_or_else(|| format!("{name}: unknown corpus"))?;
    let cfg = ProtectConfig {
        verify_funcs: vec![w.verify_func.to_owned()],
        mode: ChainMode::Probabilistic {
            variants: 6,
            seed: 0x5eed,
        },
        seed: 0x5eed,
        jobs: 1,
        ..ProtectConfig::default()
    };
    protect(&(w.module)(), &cfg)
        .map(|p| p.image)
        .map_err(|e| format!("{name}: {e}"))
}

fn measure(name: &'static str, reps: u32) -> Result<Row, String> {
    let img = protected_image(name)?;
    let cands = scan(&img.text, img.text_base);
    let proposals: Vec<Proposal> = cands.iter().filter_map(classify).collect();
    if proposals.is_empty() {
        return Err(format!("{name}: no proposals to validate"));
    }

    // Shared-trial path, cold: probe-VM construction included.
    let mut shared_ms = f64::INFINITY;
    let mut shared_verdicts: Vec<String> = Vec::new();
    let mut stats = parallax_gadgets::ProbeStats::default();
    for rep in 0..reps {
        let t = Instant::now();
        let mut probe = ProbeVm::new(&img);
        let verdicts: Vec<Option<parallax_gadgets::Gadget>> =
            proposals.iter().map(|p| probe.validate(p)).collect();
        shared_ms = shared_ms.min(t.elapsed().as_secs_f64() * 1e3);
        if rep == 0 {
            stats = probe.stats();
            shared_verdicts = verdicts.iter().map(|v| format!("{v:?}")).collect();
        }
    }

    // Legacy path, cold: one reused VM rolled back in full between
    // proposals (the PR 9-era `ProbeVm` behavior), per-effect probes.
    let mut legacy_ms = f64::INFINITY;
    let mut legacy_verdicts: Vec<String> = Vec::new();
    for rep in 0..reps {
        let t = Instant::now();
        let mut vm = Vm::with_options(&img, VmOptions::default());
        let pristine = vm.mem().clone();
        let verdicts: Vec<Option<parallax_gadgets::Gadget>> = proposals
            .iter()
            .map(|p| {
                vm.reset_to(&pristine);
                legacy::validate_with(&mut vm, p)
            })
            .collect();
        legacy_ms = legacy_ms.min(t.elapsed().as_secs_f64() * 1e3);
        if rep == 0 {
            legacy_verdicts = verdicts.iter().map(|v| format!("{v:?}")).collect();
        }
    }

    if shared_verdicts != legacy_verdicts {
        return Err(format!(
            "{name}: shared-trial verdicts diverged from the legacy oracle"
        ));
    }
    let gadgets = shared_verdicts.iter().filter(|v| *v != "None").count() as u64;
    Ok(Row {
        workload: name,
        proposals: stats.proposals,
        probe_runs: stats.runs,
        second_trials: stats.second_trials,
        prejudged: stats.prejudged,
        runs_saved: stats.runs_saved,
        gadgets,
        shared_ms,
        legacy_ms,
        speedup_vs_legacy: legacy_ms / shared_ms.max(f64::MIN_POSITIVE),
        probes_per_sec: stats.runs as f64 / (shared_ms / 1e3).max(f64::MIN_POSITIVE),
    })
}

fn write_bench_json(rows: &[Row]) {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "  {{\"bench\": \"validate_throughput\", \"workload\": \"{}\", \
             \"proposals\": {}, \"probe_runs\": {}, \"second_trials\": {}, \
             \"prejudged\": {}, \"runs_saved\": {}, \
             \"gadgets\": {}, \"runs_per_proposal\": {:.2}, \
             \"shared_ms\": {:.3}, \"legacy_ms\": {:.3}, \
             \"speedup_vs_legacy\": {:.2}, \"probes_per_sec\": {:.0}}}{comma}\n",
            r.workload,
            r.proposals,
            r.probe_runs,
            r.second_trials,
            r.prejudged,
            r.runs_saved,
            r.gadgets,
            r.probe_runs as f64 / (r.proposals as f64).max(1.0),
            r.shared_ms,
            r.legacy_ms,
            r.speedup_vs_legacy,
            r.probes_per_sec,
        ));
    }
    out.push_str("]\n");
    if let Err(e) = std::fs::write("BENCH_validate.json", out) {
        eprintln!("warn: could not write BENCH_validate.json: {e}");
    }
}

fn run(reps: u32, gate: bool) -> ExitCode {
    let mut ok = true;
    let mut rows = Vec::new();
    for name in ["gcc", "nginx"] {
        match measure(name, reps) {
            Ok(r) => {
                println!(
                    "{:<8} {:>4} proposals  {:>4} probe runs ({:.2}/proposal, {} second trials, \
                     {} saved)  {} prejudged  shared {:>7.2} ms  legacy {:>7.2} ms  ({:.2}x)  \
                     {} gadgets",
                    r.workload,
                    r.proposals,
                    r.probe_runs,
                    r.probe_runs as f64 / (r.proposals as f64).max(1.0),
                    r.second_trials,
                    r.runs_saved,
                    r.prejudged,
                    r.shared_ms,
                    r.legacy_ms,
                    r.speedup_vs_legacy,
                    r.gadgets
                );
                rows.push(r);
            }
            Err(e) => {
                eprintln!("FAIL {e}");
                ok = false;
            }
        }
    }
    write_bench_json(&rows);
    if !gate {
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    match std::fs::read_to_string("BENCH_validate.baseline.json") {
        Ok(baseline) => {
            for r in &rows {
                for (field, got) in [
                    ("proposals", r.proposals),
                    ("probe_runs", r.probe_runs),
                    ("prejudged", r.prejudged),
                    ("runs_saved", r.runs_saved),
                    ("gadgets", r.gadgets),
                ] {
                    match baseline_field(&baseline, r.workload, field) {
                        Some(want) if want == got => {}
                        Some(want) => {
                            eprintln!("FAIL {}: {field} {got} != baseline {want}", r.workload);
                            ok = false;
                        }
                        None => {
                            eprintln!("FAIL {}: no baseline {field}", r.workload);
                            ok = false;
                        }
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("FAIL: cannot read BENCH_validate.baseline.json: {e}");
            ok = false;
        }
    }

    for r in &rows {
        // One probe execution per trial run, no matter how many effects
        // the proposals carry: a first trial for every proposal not
        // prejudged, and the second trials.
        let first_trials = r.proposals - r.prejudged;
        if r.probe_runs != first_trials + r.second_trials {
            eprintln!(
                "FAIL {}: {} probe runs != {first_trials} first trials + {} second trials",
                r.workload, r.probe_runs, r.second_trials
            );
            ok = false;
        }
        // In-process ratio of two same-host measurements, so no
        // core-count guard is needed; the floor is far below the
        // measured margin to absorb scheduler noise.
        if r.speedup_vs_legacy < 1.2 {
            eprintln!(
                "FAIL {}: shared-trial validation only {:.2}x over legacy (floor 1.2x)",
                r.workload, r.speedup_vs_legacy
            );
            ok = false;
        }
    }

    if ok {
        println!("smoke gates passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--smoke") {
        run(1, true)
    } else {
        println!("validation throughput — shared-trial probes vs the legacy per-effect loop\n");
        run(3, false)
    }
}
