//! Batch-protection throughput: jobs/sec of the `parallax-engine`
//! worker pool across worker counts, cold cache vs warm cache.
//!
//! Two modes:
//!
//! * default — the six corpus programs × two chain modes at 1/2/4/8
//!   workers; each worker count gets a fresh engine (cold batch) and
//!   then an immediate rerun against the same engine (warm batch).
//!   Parallel speedup is bounded by the host's core count; the warm
//!   speedup is core-count-independent because warm jobs are served
//!   from the content-addressed protected-result cache.
//! * `--smoke` — a tiny corpus at 2 workers, exiting nonzero if any
//!   job validates non-Clean or the warm batch sees a zero cache
//!   hit-rate. This is the CI gate: it checks the engine's correctness
//!   invariants (watchdog verdicts, cache reuse), not wall-clock.
//!
//! Both modes also append machine-readable results to
//! `BENCH_batch.json` (one record per measured batch:
//! `{bench, config, wall_ms, jobs_per_sec, cache_hit_rate}`), so the
//! performance trajectory is recorded across runs without changing the
//! human-readable output.

use std::process::ExitCode;

use parallax_core::{ChainMode, ProtectConfig, Verdict};
use parallax_engine::{BatchReport, Engine, EngineOptions, Job};

fn jobs(programs: &[&str], modes: &[(&str, ChainMode)], seed: u64) -> Vec<Job> {
    programs
        .iter()
        .flat_map(|prog| {
            modes.iter().map(move |(_, mode)| {
                Job::corpus(
                    prog,
                    ProtectConfig {
                        mode: mode.clone(),
                        seed,
                        ..ProtectConfig::default()
                    },
                )
            })
        })
        .collect()
}

fn run_batch(engine: &Engine, jobs: Vec<Job>) -> BatchReport {
    engine.run(jobs, |_| {}).expect("no log file in use")
}

fn describe(report: &BatchReport) -> String {
    let cached = report.results.iter().filter(|r| r.cached).count();
    format!(
        "{:>6.2} jobs/s  ({} jobs, {} cached, hit-rate {:>5.1}%)",
        report.metrics.jobs_per_sec,
        report.results.len(),
        cached,
        report.metrics.cache.hit_rate() * 100.0
    )
}

/// One measured batch for `BENCH_batch.json`.
struct BenchRec {
    config: String,
    wall_ms: f64,
    jobs_per_sec: f64,
    cache_hit_rate: f64,
}

fn record(records: &mut Vec<BenchRec>, config: &str, report: &BatchReport) {
    records.push(BenchRec {
        config: config.to_owned(),
        wall_ms: report.metrics.wall_micros as f64 / 1e3,
        jobs_per_sec: report.metrics.jobs_per_sec,
        cache_hit_rate: report.metrics.cache.hit_rate(),
    });
}

fn write_bench_json(records: &[BenchRec]) {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        out.push_str(&format!(
            "  {{\"bench\": \"batch_throughput\", \"config\": \"{}\", \"wall_ms\": {:.3}, \"jobs_per_sec\": {:.3}, \"cache_hit_rate\": {:.4}}}{comma}\n",
            r.config, r.wall_ms, r.jobs_per_sec, r.cache_hit_rate
        ));
    }
    out.push_str("]\n");
    if let Err(e) = std::fs::write("BENCH_batch.json", out) {
        eprintln!("warn: could not write BENCH_batch.json: {e}");
    }
}

fn gate(report: &BatchReport, label: &str) -> bool {
    let mut ok = true;
    for r in &report.results {
        if let Some(e) = &r.error {
            eprintln!("FAIL [{label}] {}: {e}", r.name);
            ok = false;
        } else if r.verdict != Some(Verdict::Clean) {
            eprintln!(
                "FAIL [{label}] {}: verdict {:?}, expected Clean",
                r.name, r.verdict
            );
            ok = false;
        }
    }
    ok
}

fn smoke() -> ExitCode {
    let modes = [
        ("cleartext", ChainMode::Cleartext),
        ("xor", ChainMode::XorEncrypted { key: 0x0f0f_0f01 }),
    ];
    let engine = Engine::new(EngineOptions {
        workers: 2,
        ..EngineOptions::default()
    });
    let cold = run_batch(&engine, jobs(&["wget", "gzip"], &modes, 7));
    println!("smoke cold: {}", describe(&cold));
    let warm = run_batch(&engine, jobs(&["wget", "gzip"], &modes, 7));
    println!("smoke warm: {}", describe(&warm));
    let mut records = Vec::new();
    record(&mut records, "smoke workers=2 cold", &cold);
    record(&mut records, "smoke workers=2 warm", &warm);
    write_bench_json(&records);

    let mut ok = gate(&cold, "cold") && gate(&warm, "warm");
    if warm.metrics.cache.hit_rate() <= 0.0 {
        eprintln!("FAIL [warm] cache hit-rate is 0 — protected results were not reused");
        ok = false;
    }
    for (c, w) in cold.results.iter().zip(&warm.results) {
        if c.image != w.image {
            eprintln!("FAIL [warm] {}: cached image differs from cold run", c.name);
            ok = false;
        }
    }
    if ok {
        println!("smoke OK: all verdicts clean, warm batch served from cache");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn full() -> ExitCode {
    let modes = [
        ("cleartext", ChainMode::Cleartext),
        ("xor", ChainMode::XorEncrypted { key: 0x0f0f_0f01 }),
    ];
    let programs = ["wget", "nginx", "bzip2", "gzip", "gcc", "lame"];

    println!(
        "batch-protection throughput — {} programs × {} modes",
        programs.len(),
        modes.len()
    );
    println!("(cold = fresh engine; warm = immediate rerun, protected-result cache hot)\n");
    let mut ok = true;
    let mut baseline_cold = 0.0f64;
    let mut records = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let engine = Engine::new(EngineOptions {
            workers,
            ..EngineOptions::default()
        });
        let cold = run_batch(&engine, jobs(&programs, &modes, 7));
        let warm = run_batch(&engine, jobs(&programs, &modes, 7));
        record(&mut records, &format!("workers={workers} cold"), &cold);
        record(&mut records, &format!("workers={workers} warm"), &warm);
        ok &= gate(&cold, "cold") && gate(&warm, "warm");
        if workers == 1 {
            baseline_cold = cold.metrics.jobs_per_sec;
        }
        let speedup = if baseline_cold > 0.0 {
            cold.metrics.jobs_per_sec / baseline_cold
        } else {
            0.0
        };
        println!(
            "{workers} worker(s)  cold: {}  [{speedup:.2}x vs 1-worker cold]",
            describe(&cold)
        );
        println!("            warm: {}", describe(&warm));
        println!(
            "            warm/cold speedup: {:.2}x\n",
            warm.metrics.jobs_per_sec / cold.metrics.jobs_per_sec.max(f64::MIN_POSITIVE)
        );
    }
    write_bench_json(&records);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--smoke") {
        smoke()
    } else {
        full()
    }
}
