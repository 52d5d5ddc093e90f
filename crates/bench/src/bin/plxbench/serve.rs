//! serve-mixed: an in-process `parallax_serve::Server` on loopback with
//! 2 workers, driven in a closed loop by 2 client connections — build
//! fleet callers each wait for their image. Set-up warms a fixed
//! population of 24 keys, one per corpus program × chain mode. The mix,
//! seeded by `--seed`, is 85% protect hits (zipf over the population),
//! 10% protect misses (a corpus program under a never-used seed: a
//! protect plus a cache write) and 5% strict verifies, one in five of
//! them of a byte-flipped image that must be refused. The same `engine`
//! cache serves hits, which re-verify on fetch, beside the writes of
//! misses; hits skip the `gadgets`/`rewrite`/`ropc` layers. The
//! untraced run sends a fixed number of requests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parallax_compiler::{compile_module, Module};
use parallax_core::ProtectConfig;
use parallax_corpus::Workload;
use parallax_engine::{chain_mode_for, ALL_MODES};
use parallax_image::format;
use parallax_serve::{
    Client, JobSpec, Request, Response, ServeOptions, ServeSummary, Server, ServerHandle,
};
use parallax_trace::Tracer;

use crate::gen::{self, stream, Rng};
use crate::layers::{protect_replayed, LayerSums};
use crate::oracle::{self, dispatch_tracer, ImageCosts, ProtectWork, Reference, VmAgg};
use crate::screened;
use crate::stats::{frac, percentile, status_mb};
use crate::{measuring, Ctx, Outcome, Setup, WARMUP};

/// Client connections (and server workers): the box has 2 cores.
const CLIENTS: usize = 2;
/// Requests per client in the untraced run.
const REQUESTS: usize = 200;
/// Minimum requests per client of each timed loop of the traced run.
const MIN_REQUESTS: usize = 250;
/// Byte flips per population image: 192 trials in all.
const FLIPS_PER_IMAGE: usize = 8;
const TIMEOUT: Duration = Duration::from_secs(60);
/// Artifact-cache capacity, large enough that a run never evicts. At
/// the default capacity (4096) the per-candidate verdict entries every
/// protect stores evict the warmed population, about half the hits
/// recompute, and hit latency turns bimodal.
const CACHE_ENTRIES: usize = 1 << 17;
/// Population keys: one per corpus program × chain mode.
const KEYS: usize = 24;

/// A protect job of the serve universe (see [`gen::serve_job`]).
struct Job {
    program: usize,
    mode: &'static str,
    seed: u64,
}

impl Job {
    fn of(entry: usize) -> Job {
        let (program, mode, seed) = gen::serve_job(entry);
        Job {
            program,
            mode: ALL_MODES[mode],
            seed,
        }
    }

    fn request(&self, programs: &[Workload]) -> Request {
        Request::Protect {
            spec: JobSpec::Corpus(programs[self.program].name.to_string()),
            mode: self.mode.to_string(),
            seed: self.seed,
            verify: Vec::new(),
        }
    }

    /// The configuration the server protects this job with.
    fn cfg(&self, programs: &[Workload]) -> Result<ProtectConfig, String> {
        Ok(ProtectConfig {
            verify_funcs: vec![programs[self.program].verify_func.to_owned()],
            seed: self.seed,
            mode: chain_mode_for(self.mode, self.seed).ok_or("unknown chain mode")?,
            ..ProtectConfig::default()
        })
    }
}

/// The universe entries of one run: the population, the same on every
/// seed, where the key of program `p` in mode `m` is the first entry
/// in slot `p + 6m` (its zipf rank, so the head cycles through the
/// programs); and the other entries in the order `seed` picks, which
/// misses take in turn.
fn jobs(seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut population = vec![None; KEYS];
    let mut rest = Vec::new();
    for e in (0..gen::SERVE_UNIVERSE).filter(|e| !screened::SERVE.contains(e)) {
        match &mut population[e % KEYS] {
            slot @ None => *slot = Some(e),
            Some(_) => rest.push(e),
        }
    }
    let order = Rng::new(seed, stream::SERVE).permutation(rest.len());
    let misses = order.into_iter().map(|k| rest[k]).collect();
    (population.into_iter().flatten().collect(), misses)
}

/// One warmed population key and the image the server returned for it.
struct Key {
    job: Job,
    image: Vec<u8>,
}

/// A running server with its warmed population. Dropping it drains the
/// server and joins its thread.
struct Harness {
    handle: ServerHandle,
    daemon: Option<JoinHandle<std::io::Result<ServeSummary>>>,
    addr: String,
    tracer: Arc<Tracer>,
    keys: Vec<Key>,
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(d) = self.daemon.take() {
            let _ = d.join();
        }
    }
}

/// Starts a server and warms the population on it.
fn start(population: &[usize], programs: &[Workload]) -> Result<Harness, String> {
    let server = Server::bind(ServeOptions {
        workers: CLIENTS,
        cache_capacity: CACHE_ENTRIES,
        ..ServeOptions::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let mut h = Harness {
        handle: server.handle(),
        addr: server.local_addr().to_string(),
        tracer: server.tracer(),
        daemon: None,
        keys: Vec::new(),
    };
    h.daemon = Some(std::thread::spawn(move || server.run()));
    let mut client = Client::connect(&h.addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    for &entry in population {
        let job = Job::of(entry);
        match client.call(&job.request(programs)) {
            Ok(Response::Protected {
                image,
                cached: false,
                ..
            }) => h.keys.push(Key { job, image }),
            other => return Err(format!("warm entry {entry}: {other:?}")),
        }
    }
    Ok(h)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Verify,
}

/// One measured request.
struct Rec {
    kind: Kind,
    ms: f64,
    /// Server-side job time, for protect requests.
    server_ms: Option<f64>,
    cached: bool,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    recs: Vec<Rec>,
    out: Outcome,
}

/// Cumulative zipf(1) weights over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let w: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    w.iter()
        .map(|x| {
            acc += x / total;
            acc
        })
        .collect()
}

struct Load<'a> {
    h: &'a Harness,
    programs: &'a [Workload],
    cdf: Vec<f64>,
    misses: Vec<usize>,
    next_miss: AtomicUsize,
}

impl Load<'_> {
    /// One request drawn from `rng`; checks the response into `log`.
    fn request(
        &self,
        c: &mut Client,
        rng: &mut Rng,
        log: &mut ClientLog,
        verifies: &mut u64,
    ) -> Rec {
        let u = rng.unit();
        let key = {
            let z = rng.unit();
            &self.h.keys[self.cdf.iter().position(|&c| z < c).unwrap_or(0)]
        };
        let (kind, req, flipped) = if u < 0.85 {
            (Kind::Hit, key.job.request(self.programs), false)
        } else if u < 0.95 {
            let n = self.next_miss.fetch_add(1, Ordering::Relaxed);
            let job = Job::of(self.misses[n % self.misses.len()]);
            (Kind::Miss, job.request(self.programs), false)
        } else {
            *verifies += 1;
            let mut image = key.image.clone();
            let flipped = verifies.is_multiple_of(5);
            if flipped {
                let at = format::HEADER_LEN + rng.below(image.len() - format::HEADER_LEN);
                image[at] ^= 1 + rng.below(255) as u8;
            }
            let req = Request::Verify {
                image,
                strict: true,
            };
            (Kind::Verify, req, flipped)
        };
        let t0 = Instant::now();
        let resp = c.call(&req);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut rec = Rec {
            kind,
            ms,
            server_ms: None,
            cached: false,
        };
        let verdict = match (kind, resp) {
            (
                Kind::Hit | Kind::Miss,
                Ok(Response::Protected {
                    image,
                    cached,
                    micros,
                    ..
                }),
            ) => {
                rec.server_ms = Some(micros as f64 / 1e3);
                rec.cached = cached;
                if kind == Kind::Hit && image != key.image {
                    Err("hit returned an image that differs from the warmed one".to_string())
                } else if kind == Kind::Miss && cached {
                    Err("a never-used seed was served from the cache".to_string())
                } else {
                    parallax_core::load_verified_image(&image)
                        .map(|_| ())
                        .map_err(|e| format!("served image fails to load: {e}"))
                }
            }
            (Kind::Verify, Ok(Response::VerifyResult { ok, detail })) => match (flipped, ok) {
                (false, false) => Err(format!("genuine image refused: {detail}")),
                (true, true) => Err("byte-flipped image passed strict verify".to_string()),
                _ => Ok(()),
            },
            (_, other) => Err(format!("unexpected response {other:?}")),
        };
        log.out.check("request", verdict);
        rec
    }

    /// Runs the closed loop from `CLIENTS` connections, each sending at
    /// least `min` requests and for `seconds`; returns the per-client
    /// logs and the wall time in seconds.
    fn run(
        &self,
        seed: u64,
        round: u64,
        (seconds, min): (f64, usize),
        tracer: Option<&Tracer>,
    ) -> Result<(Vec<ClientLog>, f64), String> {
        let barrier = Barrier::new(CLIENTS);
        let start = Mutex::new(None::<Instant>);
        let logs = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..CLIENTS)
                .map(|t| {
                    let (barrier, start) = (&barrier, &start);
                    scope.spawn(move || -> Result<ClientLog, String> {
                        let mut c = Client::connect(&self.h.addr, TIMEOUT)
                            .map_err(|e| format!("client {t}: connect: {e}"))?;
                        let tag = stream::CLIENT ^ ((t as u64 + 1) << 32) ^ (round << 48);
                        let mut rng = Rng::new(seed, tag);
                        let mut log = ClientLog::default();
                        let mut verifies = 0;
                        for _ in 0..WARMUP {
                            self.request(
                                &mut c,
                                &mut rng,
                                &mut ClientLog::default(),
                                &mut verifies,
                            );
                        }
                        barrier.wait();
                        let t0 = Instant::now();
                        start
                            .lock()
                            .map_err(|_| "start lock poisoned")?
                            .get_or_insert(t0);
                        let mut n = 0;
                        while measuring(t0, seconds, n, min) {
                            let _root =
                                tracer.map(|tr| tr.span(&format!("request {t}.{n}"), "bench"));
                            let rec = self.request(&mut c, &mut rng, &mut log, &mut verifies);
                            log.recs.push(rec);
                            n += 1;
                        }
                        Ok(log)
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|th| {
                    th.join()
                        .map_err(|_| "client thread panicked".to_string())?
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let start = start
            .into_inner()
            .map_err(|_| "start lock poisoned")?
            .ok_or("no client started")?;
        Ok((logs, start.elapsed().as_secs_f64()))
    }
}

fn merge(out: &mut Outcome, logs: &mut [ClientLog]) -> Vec<Rec> {
    let mut recs = Vec::new();
    for log in logs {
        out.attempted += log.out.attempted;
        out.failed += log.out.failed;
        out.errors.append(&mut log.out.errors);
        recs.append(&mut log.recs);
    }
    recs
}

fn latencies(recs: &[Rec], kind: Option<Kind>) -> Vec<f64> {
    recs.iter()
        .filter(|r| kind.is_none_or(|k| r.kind == k))
        .map(|r| r.ms)
        .collect()
}

/// An unprotected corpus program: its reference behaviour and its
/// Figure-5 baseline.
struct Base {
    module: Module,
    input: Vec<u8>,
    bytes: usize,
    run: oracle::Run,
    reference: Reference,
}

fn base(w: &Workload) -> Result<Base, String> {
    let module = (w.module)();
    let input = (w.input)();
    let img = compile_module(&module)
        .map_err(|e| format!("{}: compile: {e}", w.name))?
        .link()
        .map_err(|e| format!("{}: link: {e}", w.name))?;
    let run = oracle::run(&img, &input, true, None);
    let reference = oracle::interp_reference(&module, &input)?;
    Ok(Base {
        bytes: format::save(&img).len(),
        module,
        input,
        run,
        reference,
    })
}

/// Runs one serve-mixed benchmark.
pub fn run(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let programs = parallax_corpus::all();
    let (population, misses) = jobs(ctx.seed);
    let (mut setup, h) = Setup::first(ctx, |_| start(&population, &programs))?;
    let load = Load {
        h: &h,
        programs: &programs,
        cdf: zipf_cdf(h.keys.len()),
        misses,
        next_miss: AtomicUsize::new(0),
    };
    let mut out = Outcome::default();

    let ((mut logs, wall), untraced) = match ctx.tracer {
        None => (load.run(ctx.seed, 0, (0.0, REQUESTS), None)?, None),
        Some(tracer) => {
            let timed = (ctx.seconds / 2.0, MIN_REQUESTS);
            let (mut logs, _) = load.run(ctx.seed, 0, timed, None)?;
            let untraced = merge(&mut out, &mut logs);
            (load.run(ctx.seed, 1, timed, Some(tracer))?, Some(untraced))
        }
    };
    let load_rss_mb = status_mb("VmRSS")?;
    let recs = merge(&mut out, &mut logs);

    // Served images must be what protect() makes of the same job, and
    // behave like their unprotected programs.
    let bases = programs.iter().map(base).collect::<Result<Vec<_>, _>>()?;
    for (b, w) in bases.iter().zip(&programs) {
        out.check(
            &format!("{} unprotected", w.name),
            b.run.matches(&b.reference),
        );
    }
    let mut vm = VmAgg::default();
    let mut costs = ImageCosts::default();
    let mut work = ProtectWork::default();
    let (mut trials, mut detected) = (0, 0);
    for (k, key) in h.keys.iter().enumerate() {
        let (b, w) = (&bases[key.job.program], &programs[key.job.program]);
        let what = format!("{} {} served", w.name, key.job.mode);
        let cfg = key.job.cfg(&programs)?;
        let local = work.protect(&b.module, &cfg)?;
        out.check(
            &format!("{what} = protect()"),
            if format::save(&local.image) == key.image {
                Ok(())
            } else {
                Err("the served image differs from protect() of the same job".into())
            },
        );
        let img = format::load(&key.image).map_err(|e| format!("{what}: {e}"))?;
        let run = oracle::run(
            &img,
            &b.input,
            ctx.tracer.is_some(),
            Some(dispatch_tracer(&local)),
        );
        out.check(&what, run.matches(&b.reference));
        costs.add(
            b.bytes,
            key.image.len(),
            &b.run,
            &[w.verify_func],
            run.cycles,
        );
        // Flips depend on the population key only.
        let flips = oracle::tamper_trials(
            &img,
            &b.input,
            &run,
            FLIPS_PER_IMAGE,
            &mut Rng::new(k as u64, stream::FLIPS),
        );
        trials += flips.len();
        detected += flips.iter().filter(|t| t.detected).count();
        vm.add(&cfg.mode, &run);
        setup.after(k, h.keys.len())?;
    }

    let Some(tracer) = ctx.tracer else {
        out.set("setup_s", setup.median());
        // Every first-time protect grows the server's cache, so the peak
        // during the load depends on how many misses the seed's mix
        // holds; the peak through one set-up is fixed work.
        out.set("peak_rss_mb", setup.first_peak_mb);
        work.fill(&mut out);
        costs.fill(&mut out);
        out.set_ratio("tamper_detect_frac", detected, trials);
        return Ok(out);
    };

    let protects: Vec<&Rec> = recs.iter().filter(|r| r.kind != Kind::Verify).collect();
    let cached = protects.iter().filter(|r| r.cached).count();
    out.set(
        "engine.cache_hit_frac",
        frac(cached as f64, protects.len() as f64),
    );
    let miss_job: Vec<f64> = protects
        .iter()
        .filter(|r| !r.cached)
        .filter_map(|r| r.server_ms)
        .collect();
    out.set("engine.miss_job_ms_p50", percentile(&miss_job, 0.5));
    out.set("serve.rss_growth_mb", load_rss_mb - setup.first_peak_mb);
    let all = latencies(&recs, None);
    out.set("serve.rps", frac(all.len() as f64, wall));
    out.set("serve.request_ms_p50", percentile(&all, 0.5));
    out.set("serve.request_ms_p99", percentile(&all, 0.99));
    for (name, kind) in [
        ("serve.hit_ms_p50", Kind::Hit),
        ("serve.miss_ms_p50", Kind::Miss),
        ("serve.verify_ms_p50", Kind::Verify),
    ] {
        out.set(name, percentile(&latencies(&recs, Some(kind)), 0.5));
    }
    let wait: Vec<f64> = protects
        .iter()
        .filter_map(|r| r.server_ms.map(|s| r.ms - s))
        .collect();
    out.set("serve.wait_ms_p50", percentile(&wait, 0.5));
    let snap = h.tracer.snapshot();
    out.set(
        "serve.queue_depth_max",
        snap.hists.get("serve.queue.depth").map_or(0, |d| d.max) as f64,
    );
    let shed: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("serve.shed."))
        .map(|(_, v)| v)
        .sum();
    out.set("serve.shed", shed as f64);
    vm.fill(&mut out);

    // Per-layer cost of the protect jobs the server runs: the population
    // keys, replayed from this side of each layer's API.
    let mut layers = LayerSums::default();
    for (k, key) in h.keys.iter().enumerate() {
        let w = &programs[key.job.program];
        let module = &bases[key.job.program].module;
        let _root = tracer.span(&format!("population protect {k}: {}", w.name), "bench");
        let (_, r) = protect_replayed(tracer, module, &key.job.cfg(&programs)?)
            .map_err(|e| format!("{}: {e}", w.name))?;
        layers.add(&r);
    }
    layers.fill(&mut out);
    let untraced = untraced.unwrap_or_default();
    out.set(
        "trace.overhead_pct",
        (percentile(&all, 0.5) / percentile(&latencies(&untraced, None), 0.5) - 1.0) * 100.0,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serve universe entries whose protected image does not
    /// reproduce its corpus program, or whose protect() fails.
    fn screen() -> Vec<usize> {
        let programs = parallax_corpus::all();
        let bases = programs
            .iter()
            .map(|w| base(w).expect("corpus programs build"))
            .collect::<Vec<_>>();
        screened::rejected(gen::SERVE_UNIVERSE, |entry| {
            let job = Job::of(entry);
            let b = &bases[job.program];
            let cfg = job.cfg(&programs).expect("known mode");
            let p = std::panic::catch_unwind(|| parallax_core::protect(&b.module, &cfg));
            !matches!(p, Ok(Ok(p))
                if oracle::run(&p.image, &b.input, false, None).matches(&b.reference).is_ok())
        })
    }

    /// Regenerates `screened::SERVE`: run with
    /// `cargo test --release -- --ignored --nocapture screen_`.
    #[test]
    #[ignore = "protects every universe entry (minutes)"]
    fn screen_serve_universe() {
        let rejected = screen();
        println!(
            "serve-mixed: {} of {} rejected: {rejected:?}",
            rejected.len(),
            gen::SERVE_UNIVERSE
        );
        assert_eq!(rejected, screened::SERVE, "screened.rs is stale");
    }

    #[test]
    fn every_run_gets_the_same_full_population() {
        let (population, misses) = jobs(3);
        assert_eq!(population.len(), KEYS);
        for (slot, &e) in population.iter().enumerate() {
            assert_eq!(e % KEYS, slot);
        }
        assert!(misses.len() > 5000);
        assert!(misses.iter().all(|m| !population.contains(m)));
        let (other, other_misses) = jobs(4);
        assert_eq!(population, other);
        assert_ne!(misses, other_misses);
    }
}
