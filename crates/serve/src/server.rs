//! The HTTP server: accept loop, routing, and the `/generate` handler
//! wiring registry → route cache → context extraction → scheduler
//! together.
//!
//! Routing is versioned: every endpoint lives under `/v1/*` and answers
//! errors with the typed [`ErrorEnvelope`] of the workspace taxonomy;
//! the original unversioned paths remain as deprecated aliases that
//! keep the legacy `{"error": ...}` shape and carry a
//! `Deprecation: true` response header. Load-shed (429) and draining
//! (503) responses carry `Retry-After` on both surfaces.
//!
//! Threading model: one acceptor thread, one detached thread per
//! connection (`Connection: close`, so connections are short-lived), and
//! a configurable number of scheduler workers executing batched forward
//! passes. Shutdown is cooperative and graceful — `POST /shutdown` (or
//! [`ServerHandle::shutdown`]) raises a flag, wakes the acceptor with a
//! self-connection, stops accepting, lets workers flush every queued
//! batch, and waits for in-flight connections to finish. (Safe std
//! cannot install a SIGTERM handler, so process supervisors signal
//! drain through `POST /shutdown`; see DESIGN.md §10.)

use crate::api::{
    encode, parse_scenario, stream_reason, ErrorEnvelope, ErrorResponse, GenerateRequest,
    GenerateResponse, InfoResponse, ModelInfo, ModelsResponse, StreamChunk, StreamRequest,
    StreamTrailer,
};
use crate::batch::{GenJob, StreamPart};
use crate::cache::{Route, RouteCache, RouteKey};
use crate::http::{
    finish_chunked, read_request, write_chunk, write_chunked_head, write_json, write_json_extra,
    write_response_extra, Request,
};
use crate::metrics::ServeMetrics;
use crate::registry::{ModelEntry, Registry};
use crate::scheduler::{SchedCfg, Scheduler, SubmitError};
use crate::session::{Checkout, SessionTable, StreamSession};
use gendt::{generation_window_count, GenCursor};
use gendt_data::context::{extract_positions, ContextCfg, RunContext};
use gendt_faults::GendtError;
use gendt_geo::{trajectory, World, WorldCfg, XY};
use gendt_obs::{flightrec, traceid};
use gendt_radio::Deployment;
use gendt_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use gendt_sync::thread::{self, JoinHandle};
use gendt_sync::time::Instant;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Longest trajectory a request may ask for, seconds. Guards against a
/// single request occupying a worker for minutes.
const MAX_DURATION_S: f64 = 4.0 * 3600.0;

/// How long shutdown waits for in-flight connections to finish.
const DRAIN_WAIT: Duration = Duration::from_secs(10);

/// After `POST /shutdown` the listener stays open this long, answering
/// health checks with 503 and shedding new work, before the hard close
/// — so load balancers observe the drain instead of connection resets.
const DRAIN_GRACE: Duration = Duration::from_millis(400);

/// `Sunset` header (RFC 8594) announced on the legacy unversioned
/// routes (`/generate`, `/models`, `/reload`): the date after which the
/// unversioned surface may be removed. Removal is rehearsed today by
/// setting `GENDT_V1_ONLY=1`, which answers these routes with 410 Gone.
const LEGACY_SUNSET: &str = "Tue, 01 Jun 2027 00:00:00 GMT";

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerCfg {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 for tests).
    pub addr: String,
    /// Directory of model checkpoints.
    pub models_dir: PathBuf,
    /// Seed of the synthetic world served against.
    pub world_seed: u64,
    /// Micro-batching scheduler knobs.
    pub sched: SchedCfg,
    /// Route cache capacity (entries).
    pub cache_cap: usize,
    /// Scheduler worker threads.
    pub workers: usize,
    /// Default per-request deadline, milliseconds; `0` means none. A
    /// request's `Deadline-Ms` header overrides it.
    pub default_deadline_ms: u64,
    /// Most concurrent `/v1/stream` sessions held server-side; LRU
    /// eviction over idle sessions beyond this.
    pub session_cap: usize,
    /// Idle stream sessions expire after this many milliseconds.
    pub session_ttl_ms: u64,
    /// Default windows per streamed chunk (a request's `chunk_windows`
    /// overrides it).
    pub chunk_windows: usize,
    /// Remove the legacy unversioned surface: `/generate`, `/models`,
    /// and `/reload` answer 410 Gone. Defaults from `GENDT_V1_ONLY=1`.
    pub v1_only: bool,
}

impl ServerCfg {
    /// Defaults for a models directory: one worker, port picked by the
    /// OS, the paper's world seed.
    pub fn new(models_dir: PathBuf) -> ServerCfg {
        ServerCfg {
            addr: "127.0.0.1:0".to_string(),
            models_dir,
            world_seed: 1,
            sched: SchedCfg::default(),
            cache_cap: 128,
            workers: 1,
            default_deadline_ms: 0,
            session_cap: 4096,
            session_ttl_ms: 60_000,
            chunk_windows: 1,
            v1_only: std::env::var("GENDT_V1_ONLY")
                .map(|v| v == "1")
                .unwrap_or(false),
        }
    }

    /// Start a validated builder from [`ServerCfg::new`] defaults.
    pub fn builder(models_dir: PathBuf) -> ServerCfgBuilder {
        ServerCfgBuilder {
            cfg: ServerCfg::new(models_dir),
            default_deadline_ms: 0,
        }
    }

    /// Reject degenerate values with a descriptive [`GendtError`].
    pub fn validate(&self) -> Result<(), GendtError> {
        let bad = |msg: String| Err(GendtError::config(format!("ServerCfg: {msg}")));
        match self.addr.rsplit_once(':') {
            Some((host, port)) if !host.is_empty() => {
                if port.parse::<u16>().is_err() {
                    return bad(format!("bad port in addr {:?}", self.addr));
                }
            }
            _ => return bad(format!("addr {:?} is not host:port", self.addr)),
        }
        if self.workers == 0 {
            return bad("workers must be > 0 (nothing would execute batches)".into());
        }
        if self.cache_cap == 0 {
            return bad("cache_cap must be > 0".into());
        }
        if self.sched.max_batch == 0 {
            return bad("sched.max_batch must be > 0".into());
        }
        if self.sched.queue_cap == 0 {
            return bad("sched.queue_cap must be > 0 (every submit would shed)".into());
        }
        if self.session_cap == 0 {
            return bad("session_cap must be > 0 (every stream open would evict itself)".into());
        }
        if self.chunk_windows == 0 {
            return bad("chunk_windows must be > 0 (chunks would never advance)".into());
        }
        Ok(())
    }
}

/// Builder for [`ServerCfg`] whose `build()` validates instead of
/// letting a bad value bind nothing or shed every request.
#[derive(Clone, Debug)]
pub struct ServerCfgBuilder {
    cfg: ServerCfg,
    /// Signed so a caller-supplied negative timeout is caught in
    /// `build()` rather than silently wrapping.
    default_deadline_ms: i64,
}

impl ServerCfgBuilder {
    /// Bind address (`host:port`).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.addr = addr.into();
        self
    }

    /// Seed of the synthetic world served against.
    pub fn world_seed(mut self, seed: u64) -> Self {
        self.cfg.world_seed = seed;
        self
    }

    /// Most requests coalesced into one forward pass.
    pub fn max_batch(mut self, n: usize) -> Self {
        self.cfg.sched.max_batch = n;
        self
    }

    /// Bounded scheduler queue capacity.
    pub fn queue_cap(mut self, n: usize) -> Self {
        self.cfg.sched.queue_cap = n;
        self
    }

    /// Route cache capacity (entries).
    pub fn cache_cap(mut self, n: usize) -> Self {
        self.cfg.cache_cap = n;
        self
    }

    /// Scheduler worker threads.
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Default per-request deadline, milliseconds (`0` = none).
    pub fn default_deadline_ms(mut self, ms: i64) -> Self {
        self.default_deadline_ms = ms;
        self
    }

    /// Most concurrent `/v1/stream` sessions held server-side.
    pub fn session_cap(mut self, n: usize) -> Self {
        self.cfg.session_cap = n;
        self
    }

    /// Idle stream-session TTL, milliseconds.
    pub fn session_ttl_ms(mut self, ms: u64) -> Self {
        self.cfg.session_ttl_ms = ms;
        self
    }

    /// Default windows per streamed chunk.
    pub fn chunk_windows(mut self, n: usize) -> Self {
        self.cfg.chunk_windows = n;
        self
    }

    /// Remove the legacy unversioned surface (410 Gone).
    pub fn v1_only(mut self, on: bool) -> Self {
        self.cfg.v1_only = on;
        self
    }

    /// Validate and return the configuration.
    pub fn build(mut self) -> Result<ServerCfg, GendtError> {
        if self.default_deadline_ms < 0 {
            return Err(GendtError::config(format!(
                "ServerCfg: default_deadline_ms={} must not be negative",
                self.default_deadline_ms
            )));
        }
        self.cfg.default_deadline_ms = self.default_deadline_ms as u64;
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

struct ServerState {
    registry: Registry,
    world: World,
    deployment: Deployment,
    metrics: Arc<ServeMetrics>,
    scheduler: Arc<Scheduler>,
    cache: RouteCache,
    /// Drain requested: shed new work, report unhealthy, keep answering.
    draining: AtomicBool,
    /// Hard close: the acceptor exits as soon as it observes this.
    shutdown: AtomicBool,
    /// Connection handlers currently running; drain waits for zero.
    active: AtomicU64,
    default_deadline_ms: u64,
    /// Scheduler micro-batch capacity, advertised on `/v1/info`.
    max_batch: usize,
    /// Stream sessions held for `/v1/stream` continuations.
    sessions: SessionTable<StreamSession>,
    /// Default windows per streamed chunk.
    chunk_windows: usize,
    /// `GENDT_V1_ONLY=1`: the legacy unversioned surface answers 410.
    v1_only: bool,
    /// Mint source for locally assigned session ids.
    session_seq: AtomicU64,
}

impl ServerState {
    fn is_draining(&self) -> bool {
        // sync: pairs with the Release stores in shutdown paths so a
        // handler that sees the flag also sees everything staged before
        // the drain began.
        self.draining.load(Ordering::Acquire) || self.shutdown.load(Ordering::Acquire)
    }
}

/// Decrements the in-flight connection count when a handler exits,
/// panic or not.
struct ActiveGuard<'a>(&'a AtomicU64);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        // sync: AcqRel so the drain loop's Acquire load of zero also
        // observes every write the finished handler made.
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running server: its bound address and the means to stop it.
pub struct ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Shared metrics (for in-process inspection by tools and tests).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        self.state.metrics.clone()
    }

    /// Block until the acceptor exits (i.e. until `/shutdown`), then
    /// drain workers and in-flight connections.
    pub fn join(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        wait_for_drain(&self.state);
    }

    /// Stop the server gracefully: stop accepting, flush every queued
    /// batch, wait for in-flight connections, join everything.
    pub fn shutdown(mut self) {
        // sync: Release pairs with the Acquire loads in is_draining and
        // the accept loop.
        self.state.draining.store(true, Ordering::Release);
        self.state.shutdown.store(true, Ordering::Release);
        self.state.scheduler.stop();
        // The acceptor blocks in accept(); a throwaway connection wakes it.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        wait_for_drain(&self.state);
    }
}

/// Block (bounded) until every in-flight connection handler returned.
fn wait_for_drain(state: &Arc<ServerState>) {
    let deadline = Instant::now() + DRAIN_WAIT;
    // sync: Acquire pairs with ActiveGuard's AcqRel decrement.
    while state.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(2));
    }
}

/// Start serving. Returns once the listener is bound and workers are up.
pub fn serve(cfg: ServerCfg) -> Result<ServerHandle, GendtError> {
    cfg.validate()?;
    let registry = Registry::load(&cfg.models_dir)?;
    let world = World::generate(WorldCfg::city(cfg.world_seed));
    let deployment = Deployment::from_world(&world);
    let metrics = Arc::new(ServeMetrics::new(cfg.sched.max_batch));
    let scheduler = Arc::new(Scheduler::new(cfg.sched, metrics.clone()));
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| GendtError::from(e).wrap(format!("cannot bind {}", cfg.addr)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| GendtError::from(e).wrap("no local addr"))?;

    let metrics_for_sessions = metrics.clone();
    let state = Arc::new(ServerState {
        registry,
        world,
        deployment,
        metrics,
        scheduler: scheduler.clone(),
        cache: RouteCache::new(cfg.cache_cap),
        draining: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        active: AtomicU64::new(0),
        default_deadline_ms: cfg.default_deadline_ms,
        max_batch: cfg.sched.max_batch,
        sessions: SessionTable::new(
            cfg.session_cap,
            Duration::from_millis(cfg.session_ttl_ms),
            metrics_for_sessions,
        ),
        chunk_windows: cfg.chunk_windows,
        v1_only: cfg.v1_only,
        session_seq: AtomicU64::new(1),
    });

    let mut workers = Vec::with_capacity(cfg.workers.max(1));
    for _ in 0..cfg.workers.max(1) {
        let sched = scheduler.clone();
        workers.push(thread::spawn_named("sched-worker", move || {
            sched.run_worker()
        }));
    }

    let accept_state = state.clone();
    let acceptor = thread::spawn_named("acceptor", move || {
        for stream in listener.incoming() {
            // sync: pairs with the Release store in shutdown paths.
            if accept_state.shutdown.load(Ordering::Acquire) {
                break;
            }
            match stream {
                Ok(s) => {
                    // Chaos probe: drop accepted connections on the
                    // floor so clients exercise their retry paths.
                    if gendt_faults::should_drop("http.accept") {
                        drop(s);
                        continue;
                    }
                    let conn_state = accept_state.clone();
                    // sync: AcqRel, the counterpart of ActiveGuard's
                    // decrement watched by wait_for_drain.
                    conn_state.active.fetch_add(1, Ordering::AcqRel);
                    thread::spawn_named("conn", move || {
                        let _guard = ActiveGuard(&conn_state.active);
                        handle_conn(&conn_state, s);
                    });
                }
                Err(_) => continue,
            }
        }
        accept_state.scheduler.stop();
    });

    Ok(ServerHandle {
        addr,
        state,
        acceptor: Some(acceptor),
        workers,
    })
}

fn error_body(msg: &str) -> String {
    serde_json::to_string(&ErrorResponse {
        error: msg.to_string(),
    })
    .unwrap_or_else(|_| format!("{{\"error\":{msg:?}}}"))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        410 => "Gone",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    }
}

/// Extra headers for a successful response on the given API surface:
/// legacy routes announce their deprecation and sunset date.
fn surface_headers(v1: bool) -> &'static [(&'static str, &'static str)] {
    if v1 {
        &[]
    } else {
        &[("Deprecation", "true"), ("Sunset", LEGACY_SUNSET)]
    }
}

/// Write a taxonomy error on the right surface: typed envelope on
/// `/v1/*`, legacy `{"error"}` on unversioned routes, `Retry-After` on
/// load-shed and draining responses either way.
fn write_error(stream: &mut TcpStream, v1: bool, err: &GendtError) {
    let status = err.http_status();
    let mut extra: Vec<(&str, &str)> = Vec::new();
    if !v1 {
        extra.push(("Deprecation", "true"));
        extra.push(("Sunset", LEGACY_SUNSET));
    }
    if status == 429 || status == 503 {
        extra.push(("Retry-After", "1"));
    }
    let body = if v1 {
        encode(&ErrorEnvelope::from_error(err))
    } else {
        error_body(err.context())
    };
    let _ = write_json_extra(stream, status, reason(status), &extra, &body);
}

fn handle_conn(state: &Arc<ServerState>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let req = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            let _ = write_json(
                &mut stream,
                400,
                "Bad Request",
                &error_body(&format!("{e}")),
            );
            return;
        }
    };
    // sync: monotonic counter for /metrics only.
    state.metrics.http_requests.fetch_add(1, Ordering::Relaxed);

    // Distributed trace context: a `Gendt-Trace-Id` header (minted by
    // the fleet router) scopes this whole handler, so every span and
    // flight record it produces carries the request's id. The scope is
    // a thread-local set/restore — no effect on generated bytes.
    let trace_id = req
        .header(traceid::TRACE_HEADER)
        .and_then(traceid::parse_id)
        .unwrap_or(0);
    let _trace = gendt_trace::trace_scope(trace_id);

    // `/v1/<route>` and `<route>` dispatch identically; the flag decides
    // the error shape and deprecation headers.
    let (route, v1) = match req.path.strip_prefix("/v1") {
        Some("") => ("/".to_string(), true),
        Some(rest) if rest.starts_with('/') => (rest.to_string(), true),
        _ => (req.path.clone(), false),
    };

    // The unversioned API surface is sunsetting: count its traffic, and
    // under GENDT_V1_ONLY=1 rehearse the removal with 410 Gone.
    let legacy_api = !v1 && matches!(route.as_str(), "/generate" | "/models" | "/reload");
    if legacy_api {
        // sync: monotonic counter for /metrics only.
        state
            .metrics
            .legacy_requests
            .fetch_add(1, Ordering::Relaxed);
        if state.v1_only {
            let _ = write_json_extra(
                &mut stream,
                410,
                reason(410),
                surface_headers(false),
                &error_body(&format!("the unversioned API is removed; use /v1{route}")),
            );
            return;
        }
    }

    match (req.method.as_str(), route.as_str()) {
        ("POST", "/generate") => handle_generate(state, &mut stream, &req, v1),
        ("POST", "/stream") if v1 => handle_stream(state, &mut stream, &req),
        ("GET", "/models") => {
            let body = encode(&ModelsResponse {
                models: state.registry.names(),
            });
            let _ = write_json_extra(&mut stream, 200, "OK", surface_headers(v1), &body);
        }
        ("GET", "/info") => {
            // Fleet discovery: what this worker serves right now. The
            // router polls this alongside /healthz to learn shard
            // ownership instead of hardcoding it.
            let models = state
                .registry
                .entries()
                .iter()
                .map(|e| ModelInfo {
                    name: e.name.clone(),
                    version: e.version,
                    n_ch: e.model.cfg().n_ch,
                })
                .collect();
            let body = encode(&InfoResponse {
                models,
                // sync: gauge scrape; no cross-counter consistency needed.
                queue_depth: state.metrics.queue_depth.load(Ordering::Relaxed),
                max_batch: state.max_batch,
                draining: state.is_draining(),
            });
            let _ = write_json_extra(&mut stream, 200, "OK", surface_headers(v1), &body);
        }
        ("POST", "/reload") => match state.registry.reload() {
            Ok(_) => {
                let body = encode(&ModelsResponse {
                    models: state.registry.names(),
                });
                let _ = write_json_extra(&mut stream, 200, "OK", surface_headers(v1), &body);
            }
            Err(e) => write_error(&mut stream, v1, &e),
        },
        ("GET", "/metrics") => {
            let (hits, misses) = state.cache.stats();
            let text = state
                .metrics
                .render(state.registry.names().len(), hits, misses);
            let _ = write_response_extra(
                &mut stream,
                200,
                "OK",
                "text/plain; version=0.0.4",
                surface_headers(v1),
                text.as_bytes(),
            );
        }
        ("GET", "/healthz") => {
            // A draining server is not healthy for new work: report 503
            // so load balancers rotate it out while in-flight batches
            // finish.
            if state.is_draining() {
                let mut extra = surface_headers(v1).to_vec();
                extra.push(("Retry-After", "1"));
                let _ = write_response_extra(
                    &mut stream,
                    503,
                    "Service Unavailable",
                    "text/plain",
                    &extra,
                    b"draining\n",
                );
            } else {
                let _ = write_response_extra(
                    &mut stream,
                    200,
                    "OK",
                    "text/plain",
                    surface_headers(v1),
                    b"ok\n",
                );
            }
        }
        ("GET", "/debug/trace") => {
            // Non-destructive view of recent spans: `spans` is itself a
            // complete Chrome-trace document, so it can be saved as-is
            // and loaded into chrome://tracing or Perfetto. Per-op tape
            // events are excluded here — one request produces thousands
            // of them and they would evict the batch timelines; use
            // `export_chrome_trace` for the full op-level view.
            let (all, dropped) = gendt_trace::snapshot_spans(usize::MAX);
            let mut spans: Vec<_> = all.into_iter().filter(|e| e.cat == "span").collect();
            if spans.len() > 256 {
                spans.drain(..spans.len() - 256);
            }
            let mut body = format!(
                "{{\"enabled\":{},\"dropped\":{dropped},\"spans\":",
                gendt_trace::trace_enabled()
            );
            body.push_str(&gendt_trace::chrome_trace_json(&spans));
            body.push('}');
            let _ = write_json_extra(&mut stream, 200, "OK", surface_headers(v1), &body);
        }
        ("GET", "/debug/flightrec") => {
            let _ = write_json_extra(
                &mut stream,
                200,
                "OK",
                surface_headers(v1),
                &flightrec::dump_json(),
            );
        }
        ("POST", "/shutdown") => {
            // Graceful drain: stop taking generation work immediately
            // (queued batches still flush), keep the listener answering
            // 503s for a grace window, then hard-close the acceptor.
            // sync: Release pairs with is_draining's Acquire load.
            state.draining.store(true, Ordering::Release);
            state.scheduler.stop();
            // Idle stream sessions have no connection to flush a trailer
            // to; shed their state now. In-flight streams observe the
            // drain flag and close with a `drain` trailer themselves.
            state.sessions.shed_idle();
            // Crash-box dump: when GENDT_FLIGHTREC_DUMP names a file the
            // flight-recorder ring is written there before the process
            // winds down (best-effort, never blocks the drain).
            let _ = flightrec::dump_on_drain();
            let _ = write_response_extra(
                &mut stream,
                200,
                "OK",
                "text/plain",
                surface_headers(v1),
                b"draining\n",
            );
            let local = stream.local_addr().ok();
            let closer_state = state.clone();
            thread::spawn_named("drain-closer", move || {
                thread::sleep(DRAIN_GRACE);
                // sync: Release pairs with the accept loop's Acquire.
                closer_state.shutdown.store(true, Ordering::Release);
                // Wake the acceptor so it observes the flag.
                if let Some(local) = local {
                    let _ = TcpStream::connect(local);
                }
            });
        }
        _ => write_error(
            &mut stream,
            v1,
            &GendtError::not_found(format!("no such route {:?}", req.path)),
        ),
    }
}

/// Per-request deadline: the `Deadline-Ms` header wins, then the
/// server default; `None` means unbounded.
fn request_deadline(
    state: &ServerState,
    req: &Request,
    started: Instant,
) -> Result<Option<Instant>, GendtError> {
    let ms = match req.header("deadline-ms") {
        Some(raw) => {
            let ms: u64 = raw.parse().map_err(|_| {
                GendtError::invalid(format!(
                    "Deadline-Ms: {raw:?} is not a non-negative integer"
                ))
            })?;
            if ms == 0 {
                return Err(GendtError::invalid("Deadline-Ms must be > 0"));
            }
            Some(ms)
        }
        None if state.default_deadline_ms > 0 => Some(state.default_deadline_ms),
        None => None,
    };
    Ok(ms.map(|m| started + Duration::from_millis(m)))
}

fn handle_generate(state: &Arc<ServerState>, stream: &mut TcpStream, req: &Request, v1: bool) {
    let started = Instant::now();
    let mut rec = flightrec::FlightRecord {
        trace: gendt_trace::current_trace(),
        scenario: 255,
        outcome: flightrec::outcome::FAILED,
        worker: flightrec::self_worker(),
        queue_us: 0,
        batch_us: 0,
        forward_us: 0,
        total_us: 0,
    };
    let result = generate_response(state, req, started, &mut rec);
    rec.total_us = started.elapsed().as_micros().min(u32::MAX as u128) as u32;
    match result {
        Ok(body) => {
            rec.outcome = flightrec::outcome::OK;
            // sync: monotonic counter for /metrics only.
            state.metrics.generate_ok.fetch_add(1, Ordering::Relaxed);
            state
                .metrics
                .observe_latency_ms(started.elapsed().as_secs_f64() * 1000.0);
            // Echo the request's trace id and this process's clock: the
            // router pairs the clock reading with its own send/receive
            // timestamps to estimate this worker's clock offset.
            let trace_hdr = traceid::format_id(rec.trace);
            let clock_hdr = format!("{}", gendt_trace::now_ns());
            let mut extra: Vec<(&str, &str)> = surface_headers(v1).to_vec();
            if rec.trace != 0 {
                extra.push((traceid::TRACE_HEADER, &trace_hdr));
            }
            extra.push((traceid::WORKER_TIME_HEADER, &clock_hdr));
            let _ = write_json_extra(stream, 200, "OK", &extra, &body);
        }
        Err(e) => {
            let shed = e.kind() == gendt_faults::ErrorKind::Overloaded;
            rec.outcome = match e.kind() {
                gendt_faults::ErrorKind::Overloaded => flightrec::outcome::REJECTED,
                gendt_faults::ErrorKind::Timeout => flightrec::outcome::EXPIRED,
                _ => flightrec::outcome::FAILED,
            };
            let counter = if shed {
                &state.metrics.generate_rejected
            } else {
                &state.metrics.generate_failed
            };
            // sync: monotonic counter for /metrics only.
            counter.fetch_add(1, Ordering::Relaxed);
            write_error(stream, v1, &e);
        }
    }
    flightrec::record(rec);
}

/// Validate a generate/stream-open spec and resolve it to the pinned
/// model entry plus the route's shared (single-flight, cached) track
/// positions — the front half of `/v1/generate` and `/v1/stream` opens.
/// Waiting for another request's synthesis of the same route ends at
/// `deadline`.
fn resolve_spec(
    state: &Arc<ServerState>,
    parsed: &GenerateRequest,
    deadline: Option<Instant>,
) -> Result<(Arc<ModelEntry>, Route), GendtError> {
    let scenario = parse_scenario(&parsed.scenario)
        .ok_or_else(|| GendtError::invalid(format!("unknown scenario {:?}", parsed.scenario)))?;
    // A start outside the world's extent is refused: routes begin in the
    // world the server models.
    let extent = state.world.cfg.extent_m;
    if !(parsed.duration_s.is_finite()
        && parsed.duration_s > 0.0
        && parsed.duration_s <= MAX_DURATION_S
        && parsed.start_x.abs() <= extent
        && parsed.start_y.abs() <= extent)
    {
        return Err(GendtError::invalid(format!(
            "duration/start out of range (duration at most {MAX_DURATION_S} s, start within ±{extent} m)"
        )));
    }
    let entry = state
        .registry
        .get(&parsed.model)
        .ok_or_else(|| GendtError::not_found(format!("unknown model {:?}", parsed.model)))?;

    let traj_cfg = trajectory::TrajectoryCfg::new(
        scenario,
        parsed.duration_s,
        XY {
            x: parsed.start_x,
            y: parsed.start_y,
        },
        parsed.traj_seed,
    );
    let route = state
        .cache
        .resolve(RouteKey::new(&traj_cfg), deadline, || {
            let traj = trajectory::generate(&state.world, &traj_cfg);
            traj.points.iter().map(|p| p.pos).collect()
        })?;
    Ok((entry, route))
}

/// The context of generation windows `windows` of `route`, extracted
/// with `entry`'s settings: the steps those windows cover, and no other,
/// so window `w` of the route is window `w - windows.start` of the
/// result. Counted on `/metrics`.
fn extract_windows(
    state: &ServerState,
    entry: &ModelEntry,
    route: &[XY],
    windows: Range<usize>,
) -> Arc<RunContext> {
    let model_cfg = entry.model.cfg();
    // Generation windows tile the route back to back (stride = length).
    let len = model_cfg.generation_window().len;
    let steps = windows.start * len..windows.end * len;
    let cfg = ContextCfg {
        max_cells: model_cfg.window.max_cells,
        ..ContextCfg::default()
    };
    let ctx = extract_positions(&state.world, &state.deployment, &route[steps], &cfg);
    // sync: monotonic counter for /metrics only.
    state
        .metrics
        .context_steps_extracted
        .fetch_add(ctx.len() as u64, Ordering::Relaxed);
    Arc::new(ctx)
}

/// The generate pipeline: validate, resolve, extract, submit, await.
/// Every failure is a taxonomy error; the caller picks the wire shape.
fn generate_response(
    state: &Arc<ServerState>,
    req: &Request,
    started: Instant,
    rec: &mut flightrec::FlightRecord,
) -> Result<String, GendtError> {
    let body = String::from_utf8_lossy(&req.body);
    let parsed: GenerateRequest = serde_json::from_str(&body)
        .map_err(|e| GendtError::invalid(format!("bad request body: {e}")))?;
    rec.scenario = flightrec::scenario_code(&parsed.scenario);
    let deadline = request_deadline(state, req, started)?;
    let (entry, route) = resolve_spec(state, &parsed, deadline)?;
    let windows = generation_window_count(route.len(), &entry.model.cfg().generation_window());
    let ctx = extract_windows(state, &entry, &route, 0..windows);
    drop(route);

    let job = GenJob {
        entry: entry.clone(),
        ctx,
        sample_seed: parsed.sample_seed,
        stream: None,
    };
    let rx = state.scheduler.submit(job, deadline).map_err(|e| match e {
        SubmitError::QueueFull => GendtError::overloaded("generation queue is full, retry later"),
        SubmitError::ShuttingDown => GendtError::unavailable("server is shutting down"),
    })?;
    let done = rx
        .recv()
        .map_err(|_| GendtError::internal("worker dropped the request"))??;
    rec.queue_us = done.queue_us;
    rec.batch_us = done.batch_us;
    let resp = GenerateResponse {
        model: entry.name.clone(),
        series: done.series,
    };
    serde_json::to_string(&resp)
        .map_err(|e| GendtError::internal(format!("response encoding failed: {e}")))
}

/// Mint a worker-local session id (the fleet router sends its own via
/// the `Gendt-Session-Id` request header, which wins).
fn mint_session_id(state: &ServerState) -> String {
    // sync: unique-id mint only; no ordering requirement.
    let n = state.session_seq.fetch_add(1, Ordering::Relaxed);
    format!("s{:x}-{n:x}", gendt_trace::now_ns())
}

/// `POST /v1/stream`: open or continue a stateful generation session
/// and stream NDJSON chunks over chunked transfer encoding as the
/// scheduler produces them. Failures before the first byte are regular
/// typed-envelope responses; once streaming, failures surface in the
/// end-of-stream trailer.
fn handle_stream(state: &Arc<ServerState>, stream: &mut TcpStream, req: &Request) {
    let started = Instant::now();
    // Opportunistic TTL sweep: continuation traffic retires idle state.
    state.sessions.sweep();
    let fail = |stream: &mut TcpStream, state: &Arc<ServerState>, e: &GendtError| {
        // sync: monotonic counters for /metrics only.
        if e.kind() == gendt_faults::ErrorKind::Overloaded {
            state
                .metrics
                .generate_rejected
                .fetch_add(1, Ordering::Relaxed);
        } else {
            state
                .metrics
                .generate_failed
                .fetch_add(1, Ordering::Relaxed);
        }
        write_error(stream, true, e);
    };
    let body = String::from_utf8_lossy(&req.body);
    let parsed: StreamRequest = match serde_json::from_str(&body) {
        Ok(p) => p,
        Err(e) => {
            fail(
                stream,
                state,
                &GendtError::invalid(format!("bad request body: {e}")),
            );
            return;
        }
    };
    let deadline = match request_deadline(state, req, started) {
        Ok(d) => d,
        Err(e) => {
            fail(stream, state, &e);
            return;
        }
    };
    if state.is_draining() {
        fail(
            stream,
            state,
            &GendtError::unavailable("server is draining"),
        );
        return;
    }
    let budget = match parsed.max_windows {
        Some(n) if n > 0 => n,
        _ => usize::MAX,
    };

    let sess = match &parsed.session {
        // Continuation: take the session out of the table; the Busy
        // marker shields it from eviction while this response streams.
        Some(sid) => match state.sessions.checkout(sid) {
            Checkout::Session(s) => s,
            Checkout::Busy => {
                fail(
                    stream,
                    state,
                    &GendtError::overloaded(format!("session {sid:?} is busy, retry later")),
                );
                return;
            }
            Checkout::NotFound => {
                fail(
                    stream,
                    state,
                    &GendtError::not_found(format!("unknown session {sid:?}")),
                );
                return;
            }
        },
        // Open: resolve the spec, register the session, check it out.
        None => {
            let spec = match parsed.open_spec() {
                Ok(s) => s,
                Err(e) => {
                    fail(stream, state, &e);
                    return;
                }
            };
            let (entry, route) = match resolve_spec(state, &spec, deadline) {
                Ok(r) => r,
                Err(e) => {
                    fail(stream, state, &e);
                    return;
                }
            };
            let cfg = entry.model.cfg();
            let total_windows = generation_window_count(route.len(), &cfg.generation_window());
            let chunk_windows = match parsed.chunk_windows {
                Some(n) if n > 0 => n,
                _ => state.chunk_windows,
            };
            let id = req
                .header(crate::api::SESSION_HEADER)
                .map(str::to_string)
                .unwrap_or_else(|| mint_session_id(state));
            let cursor = GenCursor::fresh(cfg, spec.sample_seed);
            state.sessions.open(
                id.clone(),
                StreamSession {
                    id: id.clone(),
                    entry,
                    route,
                    cursor,
                    total_windows,
                    sample_seed: spec.sample_seed,
                    chunk_windows,
                    seq: 0,
                },
            );
            match state.sessions.checkout(&id) {
                Checkout::Session(s) => s,
                // Evicted between open and checkout (capacity storm) or
                // a duplicate open raced us on the same fleet-minted id.
                _ => {
                    fail(
                        stream,
                        state,
                        &GendtError::overloaded("session table is over capacity, retry later"),
                    );
                    return;
                }
            }
        }
    };
    stream_session(state, stream, sess, budget, deadline);
}

/// Write the final NDJSON trailer line and the terminal chunk, in one
/// write.
fn emit_trailer(
    stream: &mut TcpStream,
    sess: &StreamSession,
    reason: &'static str,
    done: bool,
    err: Option<&GendtError>,
) {
    let trailer = StreamTrailer {
        session: sess.id.clone(),
        done,
        reason: reason.to_string(),
        next_window: sess.cursor.next_window,
        total_windows: sess.total_windows,
        error: err.map(ErrorEnvelope::from_error),
    };
    let mut line = encode(&trailer);
    line.push('\n');
    let _ = finish_chunked(stream, line.as_bytes());
}

/// The streaming loop: extract the context of one chunk's windows here,
/// in the connection thread, then submit the chunk (so streaming
/// continuations coalesce into the same micro-batches as one-shot
/// requests), flush each span the moment the scheduler returns it, and
/// close with a typed trailer. The session returns to the table
/// (`paused`/`deadline`) or is removed (`complete`/`drain`).
///
/// The job sees only its chunk's context, so its cursor is rebased to
/// window 0 of that context and the session's absolute `next_window`
/// restored from the returned cursor.
fn stream_session(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    mut sess: StreamSession,
    mut budget: usize,
    deadline: Option<Instant>,
) {
    let window_len = sess.entry.model.cfg().generation_window().len;
    {
        let trace = gendt_trace::current_trace();
        let trace_hdr = traceid::format_id(trace);
        let mut extra: Vec<(&str, &str)> = vec![(crate::api::SESSION_HEADER, &sess.id)];
        if trace != 0 {
            extra.push((traceid::TRACE_HEADER, &trace_hdr));
        }
        if write_chunked_head(stream, 200, "OK", "application/x-ndjson", &extra).is_err() {
            // Client vanished before the first byte; park the session.
            let id = sess.id.clone();
            state.sessions.checkin(&id, sess);
            return;
        }
    }

    loop {
        if sess.cursor.next_window >= sess.total_windows {
            emit_trailer(stream, &sess, stream_reason::COMPLETE, true, None);
            state.sessions.remove(&sess.id);
            return;
        }
        if state.is_draining() {
            // Flush what streamed, close the session, and tell the
            // client exactly why instead of stranding it mid-series.
            emit_trailer(stream, &sess, stream_reason::DRAIN, false, None);
            state.sessions.remove(&sess.id);
            return;
        }
        if budget == 0 {
            emit_trailer(stream, &sess, stream_reason::PAUSED, false, None);
            let id = sess.id.clone();
            state.sessions.checkin(&id, sess);
            return;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // Mid-stream expiry keeps the session: the client already
            // holds every chunk up to `next_window` and can continue.
            emit_trailer(stream, &sess, stream_reason::DEADLINE, false, None);
            let id = sess.id.clone();
            state.sessions.checkin(&id, sess);
            return;
        }

        let start = sess.cursor.next_window;
        let end = start
            .saturating_add(sess.chunk_windows.min(budget))
            .min(sess.total_windows);
        let mut cursor = sess.cursor.clone();
        cursor.next_window = 0;
        let job = GenJob {
            entry: sess.entry.clone(),
            ctx: extract_windows(state, &sess.entry, &sess.route, start..end),
            sample_seed: sess.sample_seed,
            stream: Some(StreamPart {
                cursor,
                max_windows: end - start,
            }),
        };
        let outcome = state
            .scheduler
            .submit(job, deadline)
            .map_err(|e| match e {
                SubmitError::QueueFull => {
                    GendtError::overloaded("generation queue is full, retry later")
                }
                SubmitError::ShuttingDown => GendtError::unavailable("server is shutting down"),
            })
            .and_then(|rx| match rx.recv() {
                Ok(inner) => inner,
                Err(_) => Err(GendtError::internal("worker dropped the request")),
            });
        let done = match outcome {
            Ok(d) => d,
            Err(e) => {
                let id = sess.id.clone();
                match e.kind() {
                    // The job's deadline expired in the queue: same
                    // contract as the loop's own deadline check.
                    gendt_faults::ErrorKind::Timeout => {
                        emit_trailer(stream, &sess, stream_reason::DEADLINE, false, None);
                        state.sessions.checkin(&id, sess);
                    }
                    // Drain raced the submit: the drain trailer closes
                    // the session like the loop-top check would.
                    gendt_faults::ErrorKind::Unavailable => {
                        emit_trailer(stream, &sess, stream_reason::DRAIN, false, None);
                        state.sessions.remove(&id);
                    }
                    _ => {
                        emit_trailer(stream, &sess, stream_reason::ERROR, false, Some(&e));
                        state.sessions.checkin(&id, sess);
                    }
                }
                return;
            }
        };
        let Some(mut cursor) = done.cursor else {
            let e = GendtError::internal("stream job returned no cursor");
            emit_trailer(stream, &sess, stream_reason::ERROR, false, Some(&e));
            let id = sess.id.clone();
            state.sessions.checkin(&id, sess);
            return;
        };
        cursor.next_window += start;

        let advanced = cursor.next_window.saturating_sub(sess.cursor.next_window);
        let chunk = StreamChunk {
            session: sess.id.clone(),
            seq: sess.seq,
            start: sess.cursor.next_window * window_len,
            windows: advanced,
            series: done.series,
        };
        sess.cursor = cursor;
        sess.seq += 1;
        budget = budget.saturating_sub(advanced.max(1));
        // sync: monotonic counter for /metrics only.
        state.metrics.stream_chunks.fetch_add(1, Ordering::Relaxed);
        let mut line = encode(&chunk);
        line.push('\n');
        if write_chunk(stream, line.as_bytes()).is_err() {
            // Client went away mid-stream; the session stays resumable.
            let id = sess.id.clone();
            state.sessions.checkin(&id, sess);
            return;
        }
    }
}
