//! Fleet-scale load generator for the `plx serve` daemon.
//!
//! Two phases, mirroring the roadmap's service scenario:
//!
//! * `fleet` — a population of distinct programs is protected once to
//!   warm the daemon, then many concurrent clients issue protect
//!   requests whose program choice follows a zipf distribution (a few
//!   programs dominate, a long tail repeats rarely) — the
//!   re-protection traffic a build fleet actually generates. Every
//!   warm request must be served from the resident artifact cache;
//!   client-side latency percentiles and throughput are recorded.
//!   By default the daemon runs in-process on an ephemeral loopback
//!   port; `--addr host:port` points the fleet at an external
//!   `plx serve` instead (the CI smoke job does this).
//! * `overload` — always in-process: one worker, a one-slot admission
//!   queue, and a burst of concurrent distinct (uncacheable) requests.
//!   The daemon must shed the excess with typed `QueueFull` refusals
//!   and answer every admitted job — zero accepted-then-dropped.
//!
//! Results go to `BENCH_serve.json`. `--smoke` is the CI gate: the
//! deterministic fields (request counts, program population, the zipf
//! head's exact sample count, warm misses, dropped jobs) are checked
//! against `BENCH_serve.baseline.json` exactly; the wall-clock gate is
//! a deliberately generous absolute ceiling on warm p99.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parallax_bench::baseline_field;
use parallax_serve::{Client, JobSpec, Request, Response, ServeOptions, Server};

/// Distinct programs in the fleet population.
const PROGRAMS: usize = 20;
/// Concurrent fleet clients.
const CLIENTS: usize = 8;
/// Measured fleet requests (after the warmup pass over the population).
const FLEET_REQUESTS: usize = 1200;
/// Zipf exponent: rank r is weighted 1/(r+1)^s.
const ZIPF_S: f64 = 1.0;
/// Burst size of the overload phase.
const OVERLOAD_BURST: usize = 16;

/// The i-th program of the population: structurally identical, but a
/// distinct verification constant makes each a distinct cache key.
fn program(i: usize) -> String {
    format!(
        "fn vf(x) {{ return x * {} + {}; }}\nfn main() {{ return vf(7); }}\n",
        1009 + 97 * i,
        13 + i
    )
}

fn protect_req(i: usize) -> Request {
    Request::Protect {
        spec: JobSpec::Inline(program(i)),
        mode: String::new(),
        seed: 0x5eed,
        verify: vec!["vf".to_string()],
    }
}

/// Deterministic 64-bit LCG (Knuth MMIX constants); the bench must be
/// reproducible run to run, so there is no entropy anywhere.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative zipf weight table over `PROGRAMS` ranks.
fn zipf_cdf() -> Vec<f64> {
    let weights: Vec<f64> = (0..PROGRAMS)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn zipf_sample(cdf: &[f64], lcg: &mut Lcg) -> usize {
    let u = lcg.next_f64();
    cdf.iter().position(|&c| u < c).unwrap_or(PROGRAMS - 1)
}

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

struct FleetRow {
    requests: u64,
    programs: u64,
    clients: u64,
    warm_misses: u64,
    hits: u64,
    hit_rate: f64,
    head_requests: u64,
    p50_us: u64,
    p99_us: u64,
    jobs_per_sec: f64,
}

/// Runs the warmup + measured fleet phases against `addr`.
fn run_fleet(addr: &str) -> Result<FleetRow, String> {
    let connect =
        || Client::connect(addr, Duration::from_secs(60)).map_err(|e| format!("connect: {e}"));

    // Warmup: protect the whole population once, sequentially, so the
    // measured phase never races two cold computes for the same key.
    let mut warm = connect()?;
    for i in 0..PROGRAMS {
        match warm
            .call(&protect_req(i))
            .map_err(|e| format!("warm: {e}"))?
        {
            Response::Protected { .. } => {}
            other => return Err(format!("warm protect {i}: unexpected {other:?}")),
        }
    }

    let per_client = FLEET_REQUESTS / CLIENTS;
    let per_program: Vec<AtomicU64> = (0..PROGRAMS).map(|_| AtomicU64::new(0)).collect();
    let per_program = Arc::new(per_program);
    let hits = Arc::new(AtomicU64::new(0));
    let misses = Arc::new(AtomicU64::new(0));
    let latencies = Arc::new(Mutex::new(Vec::with_capacity(FLEET_REQUESTS)));
    let cdf = Arc::new(zipf_cdf());

    let wall = Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let addr = addr.to_string();
            let per_program = Arc::clone(&per_program);
            let hits = Arc::clone(&hits);
            let misses = Arc::clone(&misses);
            let latencies = Arc::clone(&latencies);
            let cdf = Arc::clone(&cdf);
            std::thread::spawn(move || -> Result<(), String> {
                let mut c = Client::connect(&addr, Duration::from_secs(60))
                    .map_err(|e| format!("client {t}: {e}"))?;
                let mut lcg = Lcg(0x9e3779b97f4a7c15u64.wrapping_mul(t as u64 + 1));
                let mut local = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let i = zipf_sample(&cdf, &mut lcg);
                    per_program[i].fetch_add(1, Ordering::Relaxed);
                    let start = Instant::now();
                    match c
                        .call(&protect_req(i))
                        .map_err(|e| format!("client {t}: {e}"))?
                    {
                        Response::Protected { cached, .. } => {
                            local.push(start.elapsed().as_micros() as u64);
                            if cached {
                                hits.fetch_add(1, Ordering::Relaxed);
                            } else {
                                misses.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        other => return Err(format!("client {t}: unexpected {other:?}")),
                    }
                }
                latencies
                    .lock()
                    .map_err(|_| "latency lock poisoned".to_string())?
                    .extend(local);
                Ok(())
            })
        })
        .collect();
    for th in threads {
        th.join().map_err(|_| "client thread panicked")??;
    }
    let wall = wall.elapsed().as_secs_f64();

    let mut lat = latencies.lock().map_err(|_| "latency lock poisoned")?;
    lat.sort_unstable();
    let (hits, misses) = (hits.load(Ordering::SeqCst), misses.load(Ordering::SeqCst));
    let measured = (per_client * CLIENTS) as u64;
    Ok(FleetRow {
        requests: PROGRAMS as u64 + measured,
        programs: PROGRAMS as u64,
        clients: CLIENTS as u64,
        warm_misses: misses,
        hits,
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        head_requests: per_program[0].load(Ordering::SeqCst),
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
        jobs_per_sec: measured as f64 / wall.max(f64::MIN_POSITIVE),
    })
}

struct OverloadRow {
    requests: u64,
    protected: u64,
    refused: u64,
    dropped: u64,
    shed_rate: f64,
}

/// Saturates a deliberately tiny in-process daemon with distinct
/// (uncacheable) requests and checks the shed accounting.
fn run_overload() -> Result<OverloadRow, String> {
    let server = Server::bind(ServeOptions {
        workers: 1,
        queue_capacity: 1,
        ..ServeOptions::default()
    })
    .map_err(|e| format!("overload bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let daemon = std::thread::spawn(move || server.run());

    let protected = Arc::new(AtomicU64::new(0));
    let refused = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..OVERLOAD_BURST)
        .map(|i| {
            let addr = addr.clone();
            let protected = Arc::clone(&protected);
            let refused = Arc::clone(&refused);
            std::thread::spawn(move || -> Result<(), String> {
                let mut c = Client::connect(&addr, Duration::from_secs(60))
                    .map_err(|e| format!("overload client {i}: {e}"))?;
                // Distinct seeds defeat the cache, keeping the single
                // worker busy long enough for the queue to fill.
                let req = Request::Protect {
                    spec: JobSpec::Inline(program(i % PROGRAMS)),
                    mode: String::new(),
                    seed: 0xbad + i as u64,
                    verify: vec!["vf".to_string()],
                };
                match c.call(&req).map_err(|e| format!("overload {i}: {e}"))? {
                    Response::Protected { .. } => protected.fetch_add(1, Ordering::SeqCst),
                    Response::Refused { .. } => refused.fetch_add(1, Ordering::SeqCst),
                    other => return Err(format!("overload {i}: unexpected {other:?}")),
                };
                Ok(())
            })
        })
        .collect();
    for th in threads {
        th.join().map_err(|_| "overload thread panicked")??;
    }
    handle.shutdown();
    let summary = daemon
        .join()
        .map_err(|_| "daemon panicked")?
        .map_err(|e| format!("daemon: {e}"))?;

    let protected = protected.load(Ordering::SeqCst);
    let refused = refused.load(Ordering::SeqCst);
    // Accounting cross-check: everything the daemon admitted came back
    // as a Protected answer — no admitted job was dropped on the floor.
    if summary.admitted != protected {
        return Err(format!(
            "overload: {} admitted but {protected} answered — accepted-then-dropped",
            summary.admitted
        ));
    }
    Ok(OverloadRow {
        requests: OVERLOAD_BURST as u64,
        protected,
        refused,
        dropped: OVERLOAD_BURST as u64 - protected - refused,
        shed_rate: refused as f64 / OVERLOAD_BURST as f64,
    })
}

fn write_bench_json(fleet: &FleetRow, over: &OverloadRow) {
    let out = format!(
        "[\n  {{\"bench\": \"serve_loadgen\", \"workload\": \"fleet\", \"requests\": {}, \
         \"programs\": {}, \"clients\": {}, \"warm_misses\": {}, \"hits\": {}, \
         \"hit_rate\": {:.4}, \"head_requests\": {}, \"p50_us\": {}, \"p99_us\": {}, \
         \"jobs_per_sec\": {:.1}}},\n  \
         {{\"bench\": \"serve_loadgen\", \"workload\": \"overload\", \"requests\": {}, \
         \"protected\": {}, \"refused\": {}, \"dropped\": {}, \"shed_rate\": {:.4}}}\n]\n",
        fleet.requests,
        fleet.programs,
        fleet.clients,
        fleet.warm_misses,
        fleet.hits,
        fleet.hit_rate,
        fleet.head_requests,
        fleet.p50_us,
        fleet.p99_us,
        fleet.jobs_per_sec,
        over.requests,
        over.protected,
        over.refused,
        over.dropped,
        over.shed_rate,
    );
    if let Err(e) = std::fs::write("BENCH_serve.json", out) {
        eprintln!("warn: could not write BENCH_serve.json: {e}");
    }
}

fn gate(fleet: &FleetRow, over: &OverloadRow) -> bool {
    let mut ok = true;
    match std::fs::read_to_string("BENCH_serve.baseline.json") {
        Ok(baseline) => {
            // Deterministic fields: the population, the request count,
            // the zipf head's exact sample count (the LCG is seeded),
            // warm misses, and overload drops are all reproducible.
            for (field, got) in [
                ("requests", fleet.requests),
                ("programs", fleet.programs),
                ("clients", fleet.clients),
                ("warm_misses", fleet.warm_misses),
                ("head_requests", fleet.head_requests),
            ] {
                match baseline_field(&baseline, "fleet", field) {
                    Some(want) if want == got => {}
                    Some(want) => {
                        eprintln!("FAIL fleet: {field} {got} != baseline {want}");
                        ok = false;
                    }
                    None => {
                        eprintln!("FAIL fleet: no baseline {field}");
                        ok = false;
                    }
                }
            }
            for (field, got) in [("requests", over.requests), ("dropped", over.dropped)] {
                match baseline_field(&baseline, "overload", field) {
                    Some(want) if want == got => {}
                    Some(want) => {
                        eprintln!("FAIL overload: {field} {got} != baseline {want}");
                        ok = false;
                    }
                    None => {
                        eprintln!("FAIL overload: no baseline {field}");
                        ok = false;
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("FAIL: cannot read BENCH_serve.baseline.json: {e}");
            ok = false;
        }
    }

    if fleet.hit_rate < 0.90 {
        eprintln!(
            "FAIL fleet: warm hit rate {:.1}% below the 90% floor — \
             the resident cache is not paying for itself",
            fleet.hit_rate * 100.0
        );
        ok = false;
    }
    // Generous absolute ceiling: a warm protect is a cache fetch plus
    // one round trip; even a heavily shared CI runner clears this.
    const P99_CEILING_US: u64 = 2_000_000;
    if fleet.p99_us > P99_CEILING_US {
        eprintln!(
            "FAIL fleet: warm p99 {} us above the {P99_CEILING_US} us ceiling",
            fleet.p99_us
        );
        ok = false;
    }
    if over.refused == 0 {
        eprintln!("FAIL overload: saturation shed nothing — admission control inert");
        ok = false;
    }
    if over.protected == 0 {
        eprintln!("FAIL overload: no admitted job completed");
        ok = false;
    }
    if over.dropped != 0 {
        eprintln!(
            "FAIL overload: {} requests vanished without a typed answer",
            over.dropped
        );
        ok = false;
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let addr = args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1))
        .cloned();

    // Fleet phase: external daemon when --addr is given, else an
    // in-process daemon on an ephemeral loopback port.
    let fleet = match &addr {
        Some(addr) => run_fleet(addr),
        None => {
            let server = match Server::bind(ServeOptions {
                workers: parallax_pool::auto_workers().clamp(2, 8),
                queue_capacity: 256,
                ..ServeOptions::default()
            }) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("FAIL: fleet bind: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let local = server.local_addr().to_string();
            let handle = server.handle();
            let daemon = std::thread::spawn(move || server.run());
            let row = run_fleet(&local);
            handle.shutdown();
            match daemon.join() {
                Ok(Ok(summary)) if row.is_ok() && summary.shed != 0 => {
                    Err(format!("fleet: daemon shed {} jobs", summary.shed))
                }
                Ok(Ok(_)) => row,
                Ok(Err(e)) => Err(format!("fleet daemon: {e}")),
                Err(_) => Err("fleet daemon panicked".to_string()),
            }
        }
    };
    let fleet = match fleet {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "fleet:    {} requests over {} programs from {} clients  \
         p50 {:.1} ms  p99 {:.1} ms  {:.0} jobs/s  hit rate {:.1}%",
        fleet.requests,
        fleet.programs,
        fleet.clients,
        fleet.p50_us as f64 / 1e3,
        fleet.p99_us as f64 / 1e3,
        fleet.jobs_per_sec,
        fleet.hit_rate * 100.0
    );

    let over = match run_overload() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "overload: {} burst -> {} protected, {} refused (typed), {} dropped  shed rate {:.1}%",
        over.requests,
        over.protected,
        over.refused,
        over.dropped,
        over.shed_rate * 100.0
    );

    write_bench_json(&fleet, &over);
    if !smoke {
        return ExitCode::SUCCESS;
    }
    if gate(&fleet, &over) {
        println!(
            "smoke OK: zipf fleet served warm, typed shedding under overload, \
             zero accepted-then-dropped"
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
