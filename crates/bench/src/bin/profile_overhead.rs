//! Profiler-overhead honesty check: what does `--trace-out` cost?
//!
//! The bottleneck profiler is only trustworthy if observing a run does
//! not materially change it. This bench protects the same corpus
//! workload with the tracer off (`protect`) and on (`protect_traced`),
//! interleaved rep-by-rep so thermal/cache drift hits both sides
//! equally, and reports the relative wall-time overhead of tracing.
//!
//! Results go to `BENCH_profile.json`. `--smoke` is the CI gate: the
//! traced and untraced images must be byte-identical (tracing is
//! observation, never an input), the image hash must match
//! `BENCH_profile.baseline.json`, the traced run must actually have
//! produced spans and `pool.*`/`vm.probe.*` telemetry, and the
//! measured overhead must stay under [`MAX_OVERHEAD_PCT`].

use std::process::ExitCode;
use std::time::Instant;

use parallax_bench::baseline_str;
use parallax_core::{protect, protect_traced, ChainMode, ProtectConfig};
use parallax_engine::hash128;
use parallax_image::format;
use parallax_trace::Tracer;

/// The overhead budget, in percent. The tracer's hot-path cost is one
/// mutex acquisition plus one `Vec::push` per span — far below this —
/// so the margin is headroom for timer noise, not for regressions.
/// Probe-VM reuse cut the untraced wall time ~10x, so the same fixed
/// tracer cost is now a larger fraction of a much smaller denominator.
const MAX_OVERHEAD_PCT: f64 = 10.0;

fn cfg(verify: &str, jobs: usize) -> ProtectConfig {
    ProtectConfig {
        verify_funcs: vec![verify.to_owned()],
        mode: ChainMode::Probabilistic {
            variants: 6,
            seed: 0x5eed,
        },
        seed: 0x5eed,
        jobs,
        ..ProtectConfig::default()
    }
}

struct Row {
    workload: &'static str,
    image_hash: String,
    off_ms: f64,
    on_ms: f64,
    overhead_pct: f64,
    spans: usize,
    pool_counters: usize,
    probe_counters: usize,
}

fn measure(workload: &'static str, jobs: usize, reps: u32) -> Result<Row, String> {
    let w =
        parallax_corpus::by_name(workload).ok_or_else(|| format!("{workload}: unknown corpus"))?;
    let module = (w.module)();
    let cfg = cfg(w.verify_func, jobs);
    let mut off_ms = f64::INFINITY;
    let mut on_ms = f64::INFINITY;
    let mut off_image = Vec::new();
    let mut on_image = Vec::new();
    let mut telemetry = (0usize, 0usize, 0usize);
    for _ in 0..reps {
        let t = Instant::now();
        let p = protect(&module, &cfg).map_err(|e| format!("{workload} untraced: {e}"))?;
        off_ms = off_ms.min(t.elapsed().as_secs_f64() * 1e3);
        off_image = format::save(&p.image);

        let tracer = Tracer::new();
        let t = Instant::now();
        let p = protect_traced(&module, &cfg, &tracer)
            .map_err(|e| format!("{workload} traced: {e}"))?;
        on_ms = on_ms.min(t.elapsed().as_secs_f64() * 1e3);
        on_image = format::save(&p.image);
        let snap = tracer.snapshot();
        telemetry = (
            snap.events.len(),
            snap.counters
                .keys()
                .filter(|k| k.starts_with("pool."))
                .count(),
            snap.counters
                .keys()
                .filter(|k| k.starts_with("vm.probe."))
                .count(),
        );
    }
    if off_image != on_image {
        return Err(format!(
            "{workload}: traced image differs from untraced — tracing leaked into the output"
        ));
    }
    let (spans, pool_counters, probe_counters) = telemetry;
    Ok(Row {
        workload,
        image_hash: format!("{:032x}", hash128(&off_image)),
        off_ms,
        on_ms,
        overhead_pct: (on_ms - off_ms) / off_ms.max(f64::MIN_POSITIVE) * 100.0,
        spans,
        pool_counters,
        probe_counters,
    })
}

fn write_bench_json(rows: &[Row]) {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "  {{\"bench\": \"profile_overhead\", \"workload\": \"{}\", \
             \"image_hash\": \"{}\", \"off_ms\": {:.3}, \"on_ms\": {:.3}, \
             \"overhead_pct\": {:.2}, \"spans\": {}, \"pool_counters\": {}, \
             \"probe_counters\": {}}}{comma}\n",
            r.workload,
            r.image_hash,
            r.off_ms,
            r.on_ms,
            r.overhead_pct,
            r.spans,
            r.pool_counters,
            r.probe_counters
        ));
    }
    out.push_str("]\n");
    if let Err(e) = std::fs::write("BENCH_profile.json", out) {
        eprintln!("warn: could not write BENCH_profile.json: {e}");
    }
}

fn run(reps: u32, gate: bool) -> ExitCode {
    let mut ok = true;
    let mut rows = Vec::new();
    for (workload, jobs) in [("gcc", 4), ("nginx", 4)] {
        match measure(workload, jobs, reps) {
            Ok(r) => {
                println!(
                    "{:<8} tracer off {:>8.1} ms  on {:>8.1} ms  overhead {:>+6.2}%  \
                     ({} trace events, {} pool.* / {} vm.probe.* counters)",
                    r.workload,
                    r.off_ms,
                    r.on_ms,
                    r.overhead_pct,
                    r.spans,
                    r.pool_counters,
                    r.probe_counters
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

    let baseline = std::fs::read_to_string("BENCH_profile.baseline.json").unwrap_or_default();
    for r in &rows {
        match baseline_str(&baseline, r.workload, "image_hash") {
            Some(want) if want == r.image_hash => {}
            Some(want) => {
                eprintln!(
                    "FAIL {}: image_hash {} != baseline {want} — protection output drifted",
                    r.workload, r.image_hash
                );
                ok = false;
            }
            None => {
                eprintln!("FAIL {}: no baseline image_hash", r.workload);
                ok = false;
            }
        }
        // The traced run must be worth its cost: real telemetry...
        if r.spans == 0 || r.pool_counters == 0 || r.probe_counters == 0 {
            eprintln!(
                "FAIL {}: traced run produced no telemetry ({} events, {} pool.*, {} vm.probe.*)",
                r.workload, r.spans, r.pool_counters, r.probe_counters
            );
            ok = false;
        }
        // ...and the cost must stay inside the budget.
        if r.overhead_pct > MAX_OVERHEAD_PCT {
            eprintln!(
                "FAIL {}: tracing overhead {:.2}% exceeds the {MAX_OVERHEAD_PCT}% budget",
                r.workload, r.overhead_pct
            );
            ok = false;
        }
    }
    if ok {
        println!("profile_overhead: all gates passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--smoke") => run(3, true),
        None => run(5, false),
        Some(other) => {
            eprintln!("usage: profile_overhead [--smoke]   (got {other})");
            ExitCode::FAILURE
        }
    }
}
