//! The resident protection daemon.
//!
//! One [`Server`] owns one long-lived [`Engine`], so the in-memory LRU
//! and on-disk artifact caches stay warm across requests — the fleet
//! scenario: many clients re-protecting a small population of distinct
//! binaries hit the `Protected` artifact cache almost every time.
//!
//! Threading model (all `std`, no runtime):
//!
//! * the **accept loop** (the thread inside [`Server::run`]) blocks in
//!   `accept` and spawns one thread per connection;
//! * **connection threads** frame and decode requests, answer
//!   status/report inline, and push protect/verify work through the
//!   [`AdmissionQueue`] — refusals are answered immediately with a
//!   typed [`Response::Refused`];
//! * **worker threads** pop admitted jobs, execute them on the shared
//!   engine, and fill the per-request response slot the connection
//!   thread is waiting on.
//!
//! Graceful drain: a shutdown request (or [`ServerHandle::shutdown`])
//! stops the accept loop, waking its blocked `accept` with a connection
//! of its own that is neither served nor counted. It flips the queue
//! into draining — queued and in-flight jobs complete and are answered,
//! new submissions are refused with [`ShedReason::Shutdown`], also on
//! connections still in the listener's backlog — and `run` returns once
//! the queue is idle. Admitted work is never dropped.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use parallax_compiler::parse_module;
use parallax_core::{
    load_verified_image, load_verified_image_strict, FaultPlan, ProtectConfig, Verdict,
};
use parallax_engine::{chain_mode_for, Engine, EngineOptions, Job, JobSource, Metrics, ShedReason};
use parallax_trace::{HistRec, Tracer};

use crate::admission::AdmissionQueue;
use crate::flight::{Anomaly, FlightConfig, FlightRecorder, RequestTrace};
use crate::proto::{
    decode_request, encode_response, read_frame, Request, Response, WireError, DEFAULT_MAX_FRAME,
};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing admitted jobs.
    pub workers: usize,
    /// Admission-queue capacity (waiting jobs beyond the workers).
    pub queue_capacity: usize,
    /// In-memory artifact-cache capacity, in entries.
    pub cache_capacity: usize,
    /// On-disk cache directory (`None` for memory-only).
    pub cache_dir: Option<PathBuf>,
    /// Validate every protected image in the VM before answering.
    pub validate: bool,
    /// Per-connection read timeout (an idle client is disconnected).
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Cap on the frame body length a client may declare.
    pub max_frame: u32,
    /// Cap on a single job's payload (inline source or image bytes);
    /// larger jobs are shed with [`ShedReason::Oversize`].
    pub max_job_bytes: usize,
    /// Flight-recorder configuration (ring sizes, slow-request
    /// threshold, black-box dump directory).
    pub flight: FlightConfig,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 4096,
            cache_dir: None,
            validate: true,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_frame: DEFAULT_MAX_FRAME,
            max_job_bytes: 4 * 1024 * 1024,
            flight: FlightConfig::default(),
        }
    }
}

/// End-of-life summary returned by [`Server::run`].
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Total requests decoded, by any kind.
    pub requests: u64,
    /// Jobs admitted through the queue (the tracer's `serve.admitted`).
    pub admitted: u64,
    /// Jobs shed (the sum of the tracer's `serve.shed.<reason>`).
    pub shed: u64,
    /// Daemon uptime.
    pub uptime: Duration,
    /// The final engine metrics block followed by the service report.
    pub metrics_text: String,
}

/// One queued unit of work: the request plus the slot its connection
/// thread is waiting on.
struct WorkItem {
    id: u64,
    request: Request,
    slot: Arc<RespSlot>,
}

/// A single-use response mailbox (mutex + condvar).
struct RespSlot {
    value: std::sync::Mutex<Option<Response>>,
    ready: std::sync::Condvar,
}

impl RespSlot {
    fn new() -> Arc<RespSlot> {
        Arc::new(RespSlot {
            value: std::sync::Mutex::new(None),
            ready: std::sync::Condvar::new(),
        })
    }

    fn fill(&self, resp: Response) {
        if let Ok(mut v) = self.value.lock() {
            *v = Some(resp);
        }
        self.ready.notify_all();
    }

    fn wait(&self) -> Response {
        let mut v = match self.value.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        loop {
            if let Some(resp) = v.take() {
                return resp;
            }
            v = match self.ready.wait(v) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }
}

struct Shared {
    opts: ServeOptions,
    engine: Engine,
    queue: AdmissionQueue<WorkItem>,
    metrics: Metrics,
    tracer: Arc<Tracer>,
    flight: FlightRecorder,
    shutdown: AtomicBool,
    /// The listener's address, which a shutdown connects to.
    local_addr: SocketAddr,
    /// The local address of the connection that woke the accept loop
    /// for shutdown; locked from before the flag is set until it is
    /// known.
    waker: Mutex<Option<SocketAddr>>,
    started: Instant,
    next_id: AtomicU64,
    /// Connection threads still running, and their last one's signal.
    conns: Mutex<usize>,
    conns_idle: Condvar,
    requests: AtomicU64,
}

/// Locks `m`, also after a panic on another thread while holding it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Requests a graceful drain: stops the accept loop, and refuses
    /// new submissions while admitted work completes. The accept loop
    /// blocks in `accept`, so this wakes it with a connection of its own,
    /// whose address it records for the loop to drop the connection
    /// uncounted. A second request does nothing.
    fn request_shutdown(&self) {
        let mut waker = lock(&self.waker);
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.drain();
        let mut addr = self.local_addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Without the wake-up the loop leaves `accept` at its next
        // connection; a listener that is gone needs none.
        *waker = TcpStream::connect_timeout(&addr, Duration::from_secs(1))
            .and_then(|s| s.local_addr())
            .ok();
    }

    /// Whether the connection from `peer` is the shutdown's wake-up.
    fn is_waker(&self, peer: SocketAddr) -> bool {
        self.shutdown.load(Ordering::SeqCst) && *lock(&self.waker) == Some(peer)
    }

    /// Counts one refused job in the `serve.shed.<reason>` namespace.
    fn count_shed(&self, reason: ShedReason) {
        self.tracer.count(&format!("serve.shed.{reason}"), 1);
    }

    /// Jobs admitted and jobs shed so far, from the tracer's
    /// `serve.admitted` and `serve.shed.<reason>` counters.
    fn admission_totals(&self) -> (u64, u64) {
        let shed = ShedReason::ALL
            .iter()
            .map(|r| self.tracer.counter(&format!("serve.shed.{r}")))
            .sum();
        (self.tracer.counter("serve.admitted"), shed)
    }

    /// The engine's metrics block followed by the service block.
    fn metrics_text(&self) -> String {
        let mut text = self
            .metrics
            .snapshot(self.started.elapsed(), self.engine.cache().stats())
            .render();
        text.push('\n');
        text.push_str(&service_text(&self.tracer));
        text
    }

    fn status_response(&self) -> Response {
        let (admitted, shed) = self.admission_totals();
        Response::Status {
            uptime_us: self.started.elapsed().as_micros() as u64,
            admitted,
            shed,
            queue_depth: self.queue.depth() as u32,
            text: self.metrics_text(),
        }
    }

    fn report_response(&self) -> Response {
        let mut text = service_text(&self.tracer);
        text.push('\n');
        text.push_str(&self.flight.render());
        Response::Report { text }
    }

    /// Microseconds since the daemon started (flight-recorder clock).
    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Records a refused job in the flight recorder and trips a `shed`
    /// snapshot — an admission refusal is always anomalous from the
    /// client's point of view, and the ring explains what the daemon
    /// was busy with when it happened.
    fn flight_shed(&self, id: u64, kind: &str, detail: &str) {
        let ts_us = self.now_us();
        self.flight.record(RequestTrace {
            id,
            kind: kind.to_string(),
            ts_us,
            latency_us: 0,
            queue_depth: self.queue.depth() as u32,
            outcome: format!("shed: {detail}"),
        });
        self.flight.anomaly(Anomaly::Shed, detail, ts_us);
        self.tracer.count("serve.flight.recorded", 1);
        self.tracer.count("serve.flight.snapshot.shed", 1);
    }

    /// Records a completed job and trips slow-request / verify-fail
    /// snapshots as configured.
    fn flight_done(&self, id: u64, kind: &str, latency_us: u64, resp: &Response) {
        let ts_us = self.now_us();
        let outcome = match resp {
            Response::Protected { cached, .. } => {
                if *cached {
                    "ok (cached)".to_string()
                } else {
                    "ok".to_string()
                }
            }
            Response::VerifyResult { ok: true, .. } => "ok".to_string(),
            Response::VerifyResult { ok: false, detail } => format!("verify-fail: {detail}"),
            Response::Error { detail } => format!("error: {detail}"),
            Response::Refused { reason, .. } => format!("shed: {reason}"),
            _ => "ok".to_string(),
        };
        self.flight.record(RequestTrace {
            id,
            kind: kind.to_string(),
            ts_us,
            latency_us,
            queue_depth: self.queue.depth() as u32,
            outcome: outcome.clone(),
        });
        self.tracer.count("serve.flight.recorded", 1);
        if let Some(threshold) = self.flight.slow_request_us() {
            if latency_us >= threshold {
                self.flight.anomaly(
                    Anomaly::SlowRequest,
                    &format!("{kind} took {latency_us} us (threshold {threshold} us)"),
                    ts_us,
                );
                self.tracer.count("serve.flight.snapshot.slow-request", 1);
            }
        }
        let verify_fail = matches!(resp, Response::VerifyResult { ok: false, .. })
            || matches!(resp, Response::Error { detail } if detail.starts_with("verify:"));
        if verify_fail {
            self.flight.anomaly(Anomaly::VerifyFail, &outcome, ts_us);
            self.tracer.count("serve.flight.snapshot.verify-fail", 1);
        }
    }
}

/// Renders the service block from `serve.*` counters and histograms:
/// request mix, per-kind latency percentiles, the admission-queue
/// watermark, admission and the shed taxonomy, connections, and the
/// flight recorder. The live daemon renders its tracer's values for
/// status, report and its end-of-life summary; `plx report` renders the
/// same counters read back from a trace file. Empty when the counters
/// hold no request and no admission.
pub fn render_service_report(
    counters: &BTreeMap<String, u64>,
    hists: &BTreeMap<String, HistRec>,
) -> String {
    use std::fmt::Write as _;
    let get = |k: &str| counters.get(k).copied().unwrap_or(0);
    let requests: u64 = Request::KINDS
        .iter()
        .map(|k| get(&format!("serve.requests.{k}")))
        .sum();
    let admitted = get("serve.admitted");
    let shed: Vec<(&str, u64)> = counters
        .iter()
        .filter_map(|(k, &n)| Some((k.strip_prefix("serve.shed.")?, n)))
        .collect();
    let shed_total: u64 = shed.iter().map(|(_, n)| n).sum();
    if requests + admitted + shed_total == 0 {
        return String::new();
    }
    let mut out = String::from("service (plx serve):\n");
    let mix: Vec<String> = Request::KINDS
        .iter()
        .filter_map(|k| {
            let n = get(&format!("serve.requests.{k}"));
            (n > 0).then(|| format!("{k} {n}"))
        })
        .collect();
    let _ = writeln!(out, "  requests: {requests}  ({})", mix.join(", "));
    for kind in Request::KINDS {
        let Some(h) = hists.get(&format!("serve.latency.{kind}_us")) else {
            continue;
        };
        let _ = writeln!(
            out,
            "  latency   {kind:<9} p50 {:>9.3} ms   p99 {:>9.3} ms  ({} samples)",
            h.percentile(0.50) as f64 / 1e3,
            h.percentile(0.99) as f64 / 1e3,
            h.count
        );
    }
    if let Some(depth) = hists.get("serve.queue.depth") {
        let _ = writeln!(out, "  queue depth max: {}", depth.max);
    }
    let rate = if admitted + shed_total == 0 {
        0.0
    } else {
        100.0 * shed_total as f64 / (admitted + shed_total) as f64
    };
    let _ = writeln!(
        out,
        "  admission: {admitted} admitted / {shed_total} shed ({rate:.1}% shed rate)"
    );
    for (reason, n) in shed {
        let _ = writeln!(out, "    shed.{reason:<11} {n}");
    }
    let (conns, timeouts, proto) = (
        get("serve.conn.accepted"),
        get("serve.conn.timeout"),
        get("serve.proto.error"),
    );
    if conns + timeouts + proto > 0 {
        let _ = writeln!(
            out,
            "  connections: {conns} accepted, {timeouts} timed out, {proto} protocol errors"
        );
    }
    let (fl_rec, fl_shed, fl_slow, fl_vf) = (
        get("serve.flight.recorded"),
        get("serve.flight.snapshot.shed"),
        get("serve.flight.snapshot.slow-request"),
        get("serve.flight.snapshot.verify-fail"),
    );
    if fl_rec + fl_shed + fl_slow + fl_vf > 0 {
        let _ = writeln!(
            out,
            "  flight recorder: {fl_rec} requests recorded; snapshots: {fl_shed} shed, {fl_slow} slow-request, {fl_vf} verify-fail"
        );
    }
    out
}

/// The service block of `tracer`'s live `serve.*` counters.
fn service_text(tracer: &Tracer) -> String {
    let snap = tracer.snapshot();
    let hists = (snap.hists.iter())
        .map(|(k, h)| (k.clone(), HistRec::from(h)))
        .collect();
    render_service_report(&snap.counters, &hists)
}

/// A handle for stopping a running server from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Requests a graceful drain: stop accepting, finish admitted
    /// work, then return from [`Server::run`].
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

/// The resident protection service.
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
    local_addr: SocketAddr,
}

impl Server {
    /// Binds the listen socket and builds the engine. The server does
    /// not accept connections until [`Server::run`].
    pub fn bind(opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let local_addr = listener.local_addr()?;
        let engine = Engine::new(EngineOptions {
            workers: 1, // each request is one job; parallelism comes from the worker pool
            cache_capacity: opts.cache_capacity,
            cache_dir: opts.cache_dir.clone(),
            validate: opts.validate,
            ..EngineOptions::default()
        });
        let queue = AdmissionQueue::new(opts.queue_capacity);
        let shared = Arc::new(Shared {
            engine,
            queue,
            metrics: Metrics::default(),
            tracer: Arc::new(Tracer::new()),
            flight: FlightRecorder::new(opts.flight.clone()),
            shutdown: AtomicBool::new(false),
            local_addr,
            waker: Mutex::new(None),
            started: Instant::now(),
            next_id: AtomicU64::new(0),
            conns: Mutex::new(0),
            conns_idle: Condvar::new(),
            requests: AtomicU64::new(0),
            opts,
        });
        Ok(Server {
            shared,
            listener,
            local_addr,
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A clonable shutdown handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The server's tracer (the `serve.*` counter namespace); clone it
    /// to write a trace file after [`Server::run`] returns.
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.shared.tracer)
    }

    /// Serves until shutdown is requested, then drains and returns the
    /// end-of-life summary.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        let workers: Vec<_> = (0..self.shared.opts.workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("plx-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<_>>()?;

        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, peer)) => self.admit(stream, peer),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: admitted work completes, workers exit on empty queue.
        self.shared.queue.drain();
        // A client that connected before the shutdown but was not
        // accepted yet still gets an answer: accept the backlog once.
        // The queue is draining, so its jobs get the typed `Shutdown`
        // refusal rather than a reset socket.
        self.listener.set_nonblocking(true)?;
        while let Ok((stream, peer)) = self.listener.accept() {
            self.admit(stream, peer);
        }
        self.shared.queue.await_idle();
        for w in workers {
            let _ = w.join();
        }
        // Give connection threads a bounded window to flush their last
        // responses; they die with the process either way.
        let deadline = Instant::now() + self.shared.opts.read_timeout + Duration::from_secs(1);
        let mut conns = lock(&self.shared.conns);
        while *conns > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            conns = (self.shared.conns_idle.wait_timeout(conns, left))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        drop(conns);

        let (admitted, shed) = self.shared.admission_totals();
        Ok(ServeSummary {
            requests: self.shared.requests.load(Ordering::SeqCst),
            admitted,
            shed,
            uptime: self.shared.started.elapsed(),
            metrics_text: self.shared.metrics_text(),
        })
    }

    /// Serves one accepted connection from `peer` on its own thread,
    /// unless it is the shutdown's wake-up, which is dropped uncounted.
    fn admit(&self, stream: TcpStream, peer: SocketAddr) {
        if self.shared.is_waker(peer) {
            return;
        }
        self.shared.tracer.count("serve.conn.accepted", 1);
        *lock(&self.shared.conns) += 1;
        let shared = Arc::clone(&self.shared);
        let _ = std::thread::Builder::new()
            .name("plx-serve-conn".to_string())
            .spawn(move || {
                handle_conn(&shared, stream);
                let mut conns = lock(&shared.conns);
                *conns -= 1;
                if *conns == 0 {
                    shared.conns_idle.notify_all();
                }
            });
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(item) = shared.queue.pop() {
        shared
            .tracer
            .record("serve.queue.depth", shared.queue.depth() as u64);
        let kind = item.request.kind();
        let t0 = Instant::now();
        // A panicking job must not kill the worker or strand the
        // connection thread: answer with a typed error and move on.
        let resp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(shared, &item.request)
        }))
        .unwrap_or_else(|_| Response::Error {
            detail: "internal: job panicked".to_string(),
        });
        let latency_us = t0.elapsed().as_micros() as u64;
        shared
            .tracer
            .record(&format!("serve.latency.{kind}_us"), latency_us);
        shared.flight_done(item.id, kind, latency_us, &resp);
        item.slot.fill(resp);
        shared.queue.done();
    }
}

/// Executes one admitted protect/verify job on the shared engine.
fn execute(shared: &Shared, request: &Request) -> Response {
    match request {
        Request::Protect {
            spec,
            mode,
            seed,
            verify,
        } => {
            let mut cfg = ProtectConfig {
                verify_funcs: verify.clone(),
                seed: *seed,
                ..ProtectConfig::default()
            };
            if !mode.is_empty() {
                match chain_mode_for(mode, *seed) {
                    Some(m) => cfg.mode = m,
                    None => {
                        return Response::Error {
                            detail: format!("select: unknown chain mode '{mode}'"),
                        }
                    }
                }
            }
            let mode_tag = if mode.is_empty() { "default" } else { mode };
            let (name, source) = match spec {
                crate::proto::JobSpec::Corpus(prog) => (
                    format!("{prog}/{mode_tag}#{seed}"),
                    JobSource::Corpus(prog.clone()),
                ),
                crate::proto::JobSpec::Inline(src) => match parse_module(src) {
                    Ok(module) => (
                        format!("inline/{mode_tag}#{seed}"),
                        JobSource::Module(Box::new(module)),
                    ),
                    Err(e) => {
                        return Response::Error {
                            detail: format!("load: {e}"),
                        }
                    }
                },
            };
            let job = Job {
                name,
                source,
                cfg,
                input: None,
                plan: FaultPlan::default(),
            };
            let report = match shared.engine.run(vec![job], |ev| shared.metrics.absorb(ev)) {
                Ok(r) => r,
                Err(e) => {
                    return Response::Error {
                        detail: format!("engine: {e}"),
                    }
                }
            };
            let Some(result) = report.results.into_iter().next() else {
                return Response::Error {
                    detail: "engine: empty batch report".to_string(),
                };
            };
            if let Some(e) = result.error {
                return Response::Error { detail: e };
            }
            if let Some(v) = result.verdict {
                if v != Verdict::Clean {
                    return Response::Error {
                        detail: format!("verify: validation verdict {v}"),
                    };
                }
            }
            Response::Protected {
                image: result.image,
                gadget_count: result.gadget_count as u32,
                cached: result.cached,
                micros: result.micros,
            }
        }
        Request::Verify { image, strict } => {
            let outcome = if *strict {
                load_verified_image_strict(image)
            } else {
                load_verified_image(image)
            };
            match outcome {
                Ok(_) => Response::VerifyResult {
                    ok: true,
                    detail: if *strict {
                        "verified (strict)".to_string()
                    } else {
                        "verified".to_string()
                    },
                },
                Err(e) => Response::VerifyResult {
                    ok: false,
                    detail: e.to_string(),
                },
            }
        }
        // Status/report/shutdown are answered inline by the connection
        // thread and never admitted; this arm is unreachable in the
        // daemon but kept total for direct callers.
        other => Response::Error {
            detail: format!("internal: {} is not a worker request", other.kind()),
        },
    }
}

/// Size of the payload a job carries (what `max_job_bytes` caps).
fn job_payload_len(req: &Request) -> usize {
    match req {
        Request::Protect { spec, .. } => match spec {
            crate::proto::JobSpec::Corpus(name) => name.len(),
            crate::proto::JobSpec::Inline(src) => src.len(),
        },
        Request::Verify { image, .. } => image.len(),
        _ => 0,
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> bool {
    use std::io::Write as _;
    let frame = encode_response(resp);
    stream
        .write_all(&frame)
        .and_then(|()| stream.flush())
        .is_ok()
}

fn handle_conn(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.opts.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.opts.write_timeout));
    loop {
        let body = match read_frame(&mut stream, shared.opts.max_frame) {
            Ok(body) => body,
            Err(WireError::Closed) => return,
            Err(WireError::Io(e)) => {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    shared.tracer.count("serve.conn.timeout", 1);
                }
                return;
            }
            Err(WireError::Protocol(e)) => {
                // A framing-level violation (bad magic / oversize
                // header): answer typed, then hang up — the byte
                // stream can no longer be trusted to re-synchronise.
                shared.tracer.count("serve.proto.error", 1);
                let _ = write_response(
                    &mut stream,
                    &Response::Error {
                        detail: format!("protocol: {e}"),
                    },
                );
                return;
            }
        };
        let request = match decode_request(&body) {
            Ok(r) => r,
            Err(e) => {
                // The frame boundary was sound, only the body was
                // malformed: answer typed and keep the connection.
                shared.tracer.count("serve.proto.error", 1);
                if !write_response(
                    &mut stream,
                    &Response::Error {
                        detail: format!("protocol: {e}"),
                    },
                ) {
                    return;
                }
                continue;
            }
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        shared
            .tracer
            .count(&format!("serve.requests.{}", request.kind()), 1);

        let response = match &request {
            Request::Status => shared.status_response(),
            Request::Report => shared.report_response(),
            Request::Shutdown => {
                shared.request_shutdown();
                Response::ShuttingDown
            }
            Request::Protect { .. } | Request::Verify { .. } => {
                let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
                let payload = job_payload_len(&request);
                if payload > shared.opts.max_job_bytes {
                    shared.count_shed(ShedReason::Oversize);
                    let detail = format!(
                        "job payload {payload} bytes exceeds cap {}",
                        shared.opts.max_job_bytes
                    );
                    shared.flight_shed(id, request.kind(), &detail);
                    Response::Refused {
                        reason: ShedReason::Oversize,
                        detail,
                    }
                } else {
                    let slot = RespSlot::new();
                    let item = WorkItem {
                        id,
                        request,
                        slot: Arc::clone(&slot),
                    };
                    match shared.queue.submit(item) {
                        Ok(depth) => {
                            shared.tracer.count("serve.admitted", 1);
                            shared.tracer.record("serve.queue.depth", depth as u64);
                            slot.wait()
                        }
                        Err((item, refusal)) => {
                            shared.count_shed(refusal.reason);
                            shared.flight_shed(id, item.request.kind(), &refusal.to_string());
                            Response::Refused {
                                reason: refusal.reason,
                                detail: refusal.to_string(),
                            }
                        }
                    }
                }
            }
        };
        if !write_response(&mut stream, &response) {
            return;
        }
    }
}
