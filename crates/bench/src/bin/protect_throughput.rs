//! Protection-pipeline throughput benchmark: cold `protect()` scaling
//! across worker counts, and warm incremental re-protection through the
//! function-grained artifact cache.
//!
//! Two workload families:
//!
//! * `gcc` / `nginx` — the two largest corpus binaries, protected under
//!   probabilistic chains (6 variants) so the chain-compile stage fans
//!   out across functions × variants. Each is protected cold at
//!   `jobs` ∈ {1, 2, 4, 8}; the resulting images must be byte-identical
//!   (worker count is a scheduling knob, not an input), and the 4-job
//!   wall time is reported as a speedup over 1 job.
//! * `incremental_edit` — a synthetic module of many small functions.
//!   It is protected cold through an [`ArtifactCache`], one function's
//!   imm32 constant is changed (same encoded length, so layout and all
//!   other functions are untouched), and the edit is re-protected warm.
//!   Exactly one rewrite artifact may miss; the warm wall time is
//!   compared against protecting the edited module from scratch.
//!
//! Results append to `BENCH_protect.json`. `--smoke` is the CI gate:
//! it checks the deterministic fields (image hashes, gadget/chain
//! counts, cache hit/miss counts) against `BENCH_protect.baseline.json`
//! exactly, and applies deliberately loose wall-clock floors — only
//! where the host has enough cores for the floor to be meaningful.

use std::process::ExitCode;
use std::time::Instant;

use parallax_compiler::{compile_module, parse_module, Module};
use parallax_core::{protect, protect_with, ChainMode, Ctx, ProtectConfig};
use parallax_engine::{hash128, ArtifactCache, CacheHooks};
use parallax_image::format;
use parallax_trace::Tracer;

/// Functions in the synthetic incremental workload (plus `vf`/`main`).
const SYNTH_FUNCS: usize = 24;

fn corpus_cfg(verify: &str, jobs: usize) -> ProtectConfig {
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

/// The synthetic many-function module; `edited` changes one imm32
/// constant inside `f0` without changing its encoded length.
fn synth_module(edited: bool) -> Module {
    let mut src = String::from("fn vf(x) { return ((x * 31) ^ (x >>> 3)) + 7; }\n");
    for i in 0..SYNTH_FUNCS {
        let k = if i == 0 && edited {
            0x1000_0001u32
        } else {
            0x1000_0000u32 + i as u32 * 0x1111
        };
        src.push_str(&format!(
            "fn f{i}(a) {{ return (a * {}) ^ {k}; }}\n",
            1_000_003 + i
        ));
    }
    src.push_str("fn main() {\n    let s = 0;\n");
    for i in 0..SYNTH_FUNCS {
        src.push_str(&format!("    s = s + f{i}({i});\n"));
    }
    src.push_str("    s = s + vf(3);\n    return s & 0xff;\n}\n");
    parse_module(&src).expect("synthetic module parses")
}

struct ScalingRow {
    workload: &'static str,
    image_hash: String,
    gadget_count: usize,
    chains: usize,
    degradations: usize,
    ms: [f64; 4], // jobs 1, 2, 4, 8
    speedup4: f64,
    /// jobs4-time over jobs8-time: ≥ 1.0 means adding workers past 4
    /// did not cost throughput (the old oversubscription regression).
    jobs8_over_jobs4: f64,
}

/// Protects `name` cold at jobs 1/2/4/8 (`reps` times each, keeping the
/// minimum wall time) and checks the images are byte-identical.
fn measure_scaling(name: &'static str, reps: u32) -> Result<ScalingRow, String> {
    let w = parallax_corpus::by_name(name).ok_or_else(|| format!("{name}: unknown corpus"))?;
    let module = (w.module)();
    let mut ms = [f64::INFINITY; 4];
    let mut first: Option<(Vec<u8>, usize, usize, usize)> = None;
    for (slot, jobs) in [1usize, 2, 4, 8].into_iter().enumerate() {
        let cfg = corpus_cfg(w.verify_func, jobs);
        for _ in 0..reps {
            let t = Instant::now();
            let p = protect(&module, &cfg).map_err(|e| format!("{name} jobs={jobs}: {e}"))?;
            ms[slot] = ms[slot].min(t.elapsed().as_secs_f64() * 1e3);
            let bytes = format::save(&p.image);
            let r = &p.report;
            match &first {
                None => first = Some((bytes, r.gadget_count, r.chains.len(), r.degradations.len())),
                Some((want, ..)) => {
                    if *want != bytes {
                        return Err(format!(
                            "{name}: image at jobs={jobs} differs from jobs=1 — \
                             worker count leaked into the output"
                        ));
                    }
                }
            }
        }
    }
    let (bytes, gadget_count, chains, degradations) =
        first.ok_or_else(|| format!("{name}: no runs"))?;
    Ok(ScalingRow {
        workload: name,
        image_hash: format!("{:032x}", hash128(&bytes)),
        gadget_count,
        chains,
        degradations,
        ms,
        speedup4: ms[0] / ms[2].max(f64::MIN_POSITIVE),
        jobs8_over_jobs4: ms[2] / ms[3].max(f64::MIN_POSITIVE),
    })
}

struct IncrementalRow {
    funcs: u64,
    rw_hit: u64,
    rw_miss: u64,
    cold_ms: f64,
    warm_ms: f64,
    speedup: f64,
}

/// Protects `module` through the instrumented cached pipeline
/// (`protect_with` + [`CacheHooks`] + a tracer): the machinery both the
/// populate and warm runs share, so timing either measures the cache's
/// effect and not the instrumentation's.
fn protect_cached(module: &Module, cache: &ArtifactCache) -> Result<(Vec<u8>, u64, u64), String> {
    let vf = module.get_func("vf").cloned().expect("vf exists");
    let prog = compile_module(module).map_err(|e| format!("compile: {e:?}"))?;
    let cfg = ProtectConfig {
        verify_funcs: vec!["vf".to_owned()],
        seed: 0x5eed,
        ..ProtectConfig::default()
    };
    let tracer = Tracer::new();
    let store = CacheHooks::new(0, cache, None);
    let ctx = Ctx {
        store: &store,
        tracer: Some(&tracer),
        ..Ctx::default()
    };
    let p = protect_with(prog, &[vf], &cfg, &ctx).map_err(|e| e.to_string())?;
    Ok((
        format::save(&p.image),
        tracer.counter("cache.func.rewritten.hit"),
        tracer.counter("cache.func.rewritten.miss"),
    ))
}

/// One rep of the incremental workload: populate a fresh cache from the
/// base module, then re-protect the edited module warm. Returns the
/// warm wall time, the warm hit/miss counters, and the cold rewrite
/// count (= number of rewrite units).
fn incremental_rep() -> Result<(f64, u64, u64, u64, Vec<u8>), String> {
    let cache = ArtifactCache::new(4096, None);
    let (_, _, cold_units) = protect_cached(&synth_module(false), &cache)?;
    let t = Instant::now();
    let (image, rw_hit, rw_miss) = protect_cached(&synth_module(true), &cache)?;
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((warm_ms, cold_units, rw_hit, rw_miss, image))
}

fn measure_incremental(reps: u32) -> Result<IncrementalRow, String> {
    let mut warm_ms = f64::INFINITY;
    let mut counts = None;
    let mut warm_image = Vec::new();
    for _ in 0..reps {
        let (ms, funcs, hit, miss, image) = incremental_rep()?;
        warm_ms = warm_ms.min(ms);
        counts.get_or_insert((funcs, hit, miss));
        warm_image = image;
    }
    let (funcs, rw_hit, rw_miss) = counts.ok_or("incremental: no runs")?;
    if rw_miss != 1 {
        return Err(format!(
            "incremental: one-function edit re-rewrote {rw_miss} functions (want 1)"
        ));
    }

    // Cold baseline: the edited module from scratch through the same
    // instrumented cached pipeline, with a fresh cache each rep so
    // nothing is served incrementally. Using identical machinery on
    // both sides makes the ratio measure cache hits, not hook overhead.
    let mut cold_ms = f64::INFINITY;
    let mut cold_image = Vec::new();
    for _ in 0..reps {
        let module = synth_module(true);
        let cache = ArtifactCache::new(4096, None);
        let t = Instant::now();
        let (image, _, _) = protect_cached(&module, &cache)?;
        cold_ms = cold_ms.min(t.elapsed().as_secs_f64() * 1e3);
        cold_image = image;
    }
    if warm_image != cold_image {
        return Err("incremental: warm image differs from cold image of the edited module".into());
    }
    Ok(IncrementalRow {
        funcs,
        rw_hit,
        rw_miss,
        cold_ms,
        warm_ms,
        speedup: cold_ms / warm_ms.max(f64::MIN_POSITIVE),
    })
}

fn write_bench_json(rows: &[ScalingRow], inc: Option<&IncrementalRow>) {
    let mut out = String::from("[\n");
    let n = rows.len() + usize::from(inc.is_some());
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        out.push_str(&format!(
            "  {{\"bench\": \"protect_throughput\", \"workload\": \"{}\", \
             \"image_hash\": \"{}\", \"gadget_count\": {}, \"chains\": {}, \
             \"degradations\": {}, \"jobs1_ms\": {:.3}, \"jobs2_ms\": {:.3}, \
             \"jobs4_ms\": {:.3}, \"jobs8_ms\": {:.3}, \"speedup4\": {:.2}, \
             \"jobs8_over_jobs4\": {:.2}}}{comma}\n",
            r.workload,
            r.image_hash,
            r.gadget_count,
            r.chains,
            r.degradations,
            r.ms[0],
            r.ms[1],
            r.ms[2],
            r.ms[3],
            r.speedup4,
            r.jobs8_over_jobs4
        ));
    }
    if let Some(r) = inc {
        out.push_str(&format!(
            "  {{\"bench\": \"protect_throughput\", \"workload\": \"incremental_edit\", \
             \"funcs\": {}, \"rw_hit\": {}, \"rw_miss\": {}, \"cold_ms\": {:.3}, \
             \"warm_ms\": {:.3}, \"speedup\": {:.2}}}\n",
            r.funcs, r.rw_hit, r.rw_miss, r.cold_ms, r.warm_ms, r.speedup
        ));
    }
    out.push_str("]\n");
    if let Err(e) = std::fs::write("BENCH_protect.json", out) {
        eprintln!("warn: could not write BENCH_protect.json: {e}");
    }
}

/// Pulls `"field": <integer>` out of the baseline record for
/// `workload` (flat hand-written JSON, one record per line).
fn baseline_field(baseline: &str, workload: &str, field: &str) -> Option<u64> {
    let rec = baseline
        .lines()
        .find(|l| l.contains(&format!("\"workload\": \"{workload}\"")))?;
    let tag = format!("\"{field}\": ");
    let at = rec.find(&tag)? + tag.len();
    let digits: String = rec[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Pulls `"field": "<string>"` out of the baseline record.
fn baseline_str<'a>(baseline: &'a str, workload: &str, field: &str) -> Option<&'a str> {
    let rec = baseline
        .lines()
        .find(|l| l.contains(&format!("\"workload\": \"{workload}\"")))?;
    let tag = format!("\"{field}\": \"");
    let at = rec.find(&tag)? + tag.len();
    rec[at..].split('"').next()
}

fn print_scaling(r: &ScalingRow) {
    println!(
        "{:<8} jobs 1/2/4/8: {:>8.1} / {:>8.1} / {:>8.1} / {:>8.1} ms  \
         speedup@4 {:>5.2}x  j8/j4 {:>4.2}  ({} gadgets, {} chains)",
        r.workload,
        r.ms[0],
        r.ms[1],
        r.ms[2],
        r.ms[3],
        r.speedup4,
        r.jobs8_over_jobs4,
        r.gadget_count,
        r.chains
    );
}

fn print_incremental(r: &IncrementalRow) {
    println!(
        "incremental_edit: cold {:>8.1} ms  warm {:>8.1} ms  speedup {:>5.2}x  \
         ({} units, warm {} hit / {} miss)",
        r.cold_ms, r.warm_ms, r.speedup, r.funcs, r.rw_hit, r.rw_miss
    );
}

fn run(reps: u32, gate: bool) -> ExitCode {
    let mut ok = true;
    let mut rows = Vec::new();
    for name in ["gcc", "nginx"] {
        match measure_scaling(name, reps) {
            Ok(r) => {
                print_scaling(&r);
                rows.push(r);
            }
            Err(e) => {
                eprintln!("FAIL {e}");
                ok = false;
            }
        }
    }
    let inc = match measure_incremental(reps) {
        Ok(r) => {
            print_incremental(&r);
            Some(r)
        }
        Err(e) => {
            eprintln!("FAIL {e}");
            ok = false;
            None
        }
    };
    write_bench_json(&rows, inc.as_ref());
    if !gate {
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    match std::fs::read_to_string("BENCH_protect.baseline.json") {
        Ok(baseline) => {
            for r in &rows {
                match baseline_str(&baseline, r.workload, "image_hash") {
                    Some(want) if want == r.image_hash => {}
                    Some(want) => {
                        eprintln!(
                            "FAIL {}: image_hash {} != baseline {want} — \
                             protection output drifted",
                            r.workload, r.image_hash
                        );
                        ok = false;
                    }
                    None => {
                        eprintln!("FAIL {}: no baseline image_hash", r.workload);
                        ok = false;
                    }
                }
                for (field, got) in [
                    ("gadget_count", r.gadget_count as u64),
                    ("chains", r.chains as u64),
                    ("degradations", r.degradations as u64),
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
            if let Some(r) = &inc {
                for (field, got) in [
                    ("funcs", r.funcs),
                    ("rw_hit", r.rw_hit),
                    ("rw_miss", r.rw_miss),
                ] {
                    match baseline_field(&baseline, "incremental_edit", field) {
                        Some(want) if want == got => {}
                        Some(want) => {
                            eprintln!("FAIL incremental_edit: {field} {got} != baseline {want}");
                            ok = false;
                        }
                        None => {
                            eprintln!("FAIL incremental_edit: no baseline {field}");
                            ok = false;
                        }
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("FAIL: cannot read BENCH_protect.baseline.json: {e}");
            ok = false;
        }
    }

    // Loose wall-clock floors. Parallel speedup is only gated where the
    // host actually has the cores to deliver it (shared CI runners are
    // frequently 1-2 vCPUs); the deterministic fields above are the
    // precise part of the contract.
    let cores = parallax_pool::auto_workers();
    for r in &rows {
        // A 4-worker run can only deliver on ≥4 cores; below that the
        // speedup gate is vacuous and skipped entirely.
        if cores >= 4 && r.speedup4 < 2.0 {
            eprintln!(
                "FAIL {}: speedup@4 {:.2}x below 2.0x floor on a {cores}-core host",
                r.workload, r.speedup4
            );
            ok = false;
        }
        // jobs8 must never cost throughput relative to jobs4 (the old
        // oversubscription regression); 0.8 allows scheduler noise.
        if cores >= 2 && r.jobs8_over_jobs4 < 0.8 {
            eprintln!(
                "FAIL {}: jobs8 {:.1} ms is slower than jobs4 {:.1} ms beyond noise \
                 (ratio {:.2}) — fan-out is oversubscribing again",
                r.workload, r.ms[3], r.ms[2], r.jobs8_over_jobs4
            );
            ok = false;
        }
    }
    if let Some(r) = &inc {
        // Shared-trial validation made the cold path cheap enough that
        // the warm/cold ratio the cache can deliver shrank again (the
        // stages the cache skips are a smaller share of the total);
        // 1.2x still proves the cache is doing real work while leaving
        // headroom for single-rep smoke runs on noisy shared runners.
        if r.speedup < 1.2 {
            eprintln!(
                "FAIL incremental_edit: warm speedup {:.2}x below 1.2x floor — \
                 the function cache is not paying for itself",
                r.speedup
            );
            ok = false;
        }
    }

    if ok {
        println!(
            "smoke OK: images identical across job counts, counts match baseline, \
             incremental cache effective"
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--smoke") {
        run(1, true)
    } else {
        println!("protect throughput — parallel scaling and incremental re-protection\n");
        run(3, false)
    }
}
