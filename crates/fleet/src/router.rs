//! The fleet router: a std-only HTTP front-end that consistent-hashes
//! `/v1/generate` by `(model, scenario)` onto the worker pool.
//!
//! Worker responses — including typed v1 error envelopes — are returned
//! to the client verbatim (status, `Retry-After`, body). Errors that
//! originate *in the router* (no healthy owner, deadline expired in
//! routing, every failover attempt failed) are answered with the same
//! typed envelope shape, so a fleet client sees exactly one error
//! contract. A request's `Deadline-Ms` is propagated minus the time
//! already spent routing; a forward attempt is additionally bounded by
//! the router's forward timeout, so a dead worker costs milliseconds,
//! not a client timeout.
//!
//! The core routing decision ([`dispatch_generate`]) is a free function
//! over the [`Membership`]/[`Forwarder`] seams: the audit sync-check
//! gate drives it with stub transports under the `interleave` model
//! checker to prove health flaps racing forwarding never strand an
//! accepted request.

use crate::forward::Forwarder;
use crate::membership::{Membership, Probe};
use crate::metrics::{FleetMetrics, RouteOutcome};
use gendt_faults::{ErrorKind, GendtError};
use gendt_obs::clock::ClockTable;
use gendt_obs::slo::{SloCfg, SloTracker};
use gendt_obs::{flightrec, promtext, traceid};
use gendt_serve::api::{
    ErrorEnvelope, GenerateRequest, ModelsResponse, StreamRequest, SESSION_HEADER,
    SESSION_OWNER_HEADER,
};
use gendt_serve::http::{
    read_request, request_message, write_json, write_json_extra, write_response_extra, Request,
};
use gendt_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use gendt_sync::mpsc::{self, RecvTimeoutError};
use gendt_sync::thread::{self, JoinHandle};
use gendt_sync::time::Instant;
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// How many distinct workers one request may try before giving up: the
/// ring owner plus one failover. More would trade tail latency for
/// availability the second attempt already provides.
const MAX_ATTEMPTS: usize = 2;

/// How long shutdown waits for in-flight connections to finish.
const DRAIN_WAIT: Duration = Duration::from_secs(10);

/// Grace window between `POST /shutdown` and the hard listener close.
const DRAIN_GRACE: Duration = Duration::from_millis(300);

/// Per-worker budget when the federated `/metrics` scrape fans out; a
/// slow worker must not stall the whole exposition for the full
/// forward timeout.
const SCRAPE_TIMEOUT: Duration = Duration::from_millis(2500);

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterCfg {
    /// Bind address (port 0 for tests).
    pub addr: String,
    /// Fleet placement seed (`GENDT_FLEET_SEED`).
    pub seed: u64,
    /// Health poll interval, milliseconds.
    pub health_interval_ms: u64,
    /// Per-attempt forward timeout, milliseconds (a propagated deadline
    /// can only shorten it).
    pub forward_timeout_ms: u64,
}

impl RouterCfg {
    /// Defaults: loopback with an OS-assigned port, seed 1, 200 ms
    /// health polls, 10 s forward budget.
    pub fn new() -> RouterCfg {
        RouterCfg {
            addr: "127.0.0.1:0".to_string(),
            seed: 1,
            health_interval_ms: 200,
            forward_timeout_ms: 10_000,
        }
    }

    /// Reject degenerate values.
    pub fn validate(&self) -> Result<(), GendtError> {
        if self
            .addr
            .rsplit_once(':')
            .is_none_or(|(host, port)| host.is_empty() || port.parse::<u16>().is_err())
        {
            return Err(GendtError::config(format!(
                "RouterCfg: addr {:?} is not host:port",
                self.addr
            )));
        }
        if self.health_interval_ms == 0 {
            return Err(GendtError::config(
                "RouterCfg: health_interval_ms must be > 0",
            ));
        }
        if self.forward_timeout_ms == 0 {
            return Err(GendtError::config(
                "RouterCfg: forward_timeout_ms must be > 0",
            ));
        }
        Ok(())
    }
}

impl Default for RouterCfg {
    fn default() -> Self {
        RouterCfg::new()
    }
}

struct RouterState {
    membership: Arc<Membership>,
    forwarder: Arc<dyn Forwarder>,
    metrics: Arc<FleetMetrics>,
    forward_timeout: Duration,
    draining: AtomicBool,
    shutdown: AtomicBool,
    active: AtomicU64,
    /// Counter folded into router-minted stream session ids.
    session_seq: AtomicU64,
    /// Per-worker clock-offset estimates fed by forward brackets,
    /// exported on `/debug/trace` for the timeline assembler.
    clock: ClockTable,
    /// Rolling-window SLO accounting over routed generate traffic.
    slo: SloTracker,
}

impl RouterState {
    fn is_draining(&self) -> bool {
        // sync: pairs with the Release stores in shutdown paths.
        self.draining.load(Ordering::Acquire) || self.shutdown.load(Ordering::Acquire)
    }
}

/// Decrements the in-flight connection count when a handler exits.
struct ActiveGuard<'a>(&'a AtomicU64);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        // sync: AcqRel so the drain loop's Acquire load of zero also
        // observes every write the finished handler made.
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running router: bound address plus the means to stop it.
pub struct RouterHandle {
    /// The address the router actually bound.
    pub addr: SocketAddr,
    state: Arc<RouterState>,
    acceptor: Option<JoinHandle<()>>,
    poller: Option<JoinHandle<()>>,
    /// Dropping this sender wakes the health poller out of its wait.
    stop_poller: Option<mpsc::Sender<()>>,
}

impl RouterHandle {
    /// Shared router metrics.
    pub fn metrics(&self) -> Arc<FleetMetrics> {
        self.state.metrics.clone()
    }

    /// Block until the acceptor exits (i.e. until `/shutdown`), then
    /// drain the poller and in-flight connections.
    pub fn join(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        self.finish();
    }

    /// Stop the router gracefully.
    pub fn shutdown(mut self) {
        // sync: Release pairs with the Acquire loads in is_draining and
        // the accept/poll loops.
        self.state.draining.store(true, Ordering::Release);
        self.state.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        self.finish();
    }

    fn finish(&mut self) {
        // sync: Release pairs with the poll loop's Acquire.
        self.state.shutdown.store(true, Ordering::Release);
        self.stop_poller = None;
        if let Some(p) = self.poller.take() {
            let _ = p.join();
        }
        let deadline = Instant::now() + DRAIN_WAIT;
        // sync: Acquire pairs with ActiveGuard's AcqRel decrement.
        while self.state.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Start the router over an existing membership. Returns once the
/// listener is bound and the health poller is up.
pub fn route_serve(
    cfg: RouterCfg,
    membership: Arc<Membership>,
    probe: Arc<dyn Probe>,
    forwarder: Arc<dyn Forwarder>,
    metrics: Arc<FleetMetrics>,
) -> Result<RouterHandle, GendtError> {
    cfg.validate()?;
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| GendtError::from(e).wrap(format!("cannot bind {}", cfg.addr)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| GendtError::from(e).wrap("no local addr"))?;

    let state = Arc::new(RouterState {
        membership: membership.clone(),
        forwarder,
        metrics,
        forward_timeout: Duration::from_millis(cfg.forward_timeout_ms),
        draining: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        active: AtomicU64::new(0),
        session_seq: AtomicU64::new(0),
        clock: ClockTable::new(),
        slo: SloTracker::new(SloCfg::default()),
    });

    // Discover the pool before taking traffic, then keep polling.
    membership.poll_once(probe.as_ref());
    let poll_state = state.clone();
    let interval = Duration::from_millis(cfg.health_interval_ms);
    let (stop_poller, stop) = mpsc::channel::<()>();
    let poller = thread::spawn_named("fleet-health", move || {
        // Wait one interval, or until the handle drops its sender.
        while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(interval) {
            // sync: pairs with the Release store in shutdown paths.
            if poll_state.shutdown.load(Ordering::Acquire) {
                break;
            }
            poll_state.membership.poll_once(probe.as_ref());
        }
    });

    let accept_state = state.clone();
    let acceptor = thread::spawn_named("fleet-acceptor", move || {
        for stream in listener.incoming() {
            // sync: pairs with the Release store in shutdown paths.
            if accept_state.shutdown.load(Ordering::Acquire) {
                break;
            }
            match stream {
                Ok(s) => {
                    let conn_state = accept_state.clone();
                    // sync: AcqRel, the counterpart of ActiveGuard's
                    // decrement watched by the drain loop.
                    conn_state.active.fetch_add(1, Ordering::AcqRel);
                    thread::spawn_named("fleet-conn", move || {
                        let _guard = ActiveGuard(&conn_state.active);
                        handle_conn(&conn_state, s);
                    });
                }
                Err(_) => continue,
            }
        }
    });

    Ok(RouterHandle {
        addr,
        state,
        acceptor: Some(acceptor),
        poller: Some(poller),
        stop_poller: Some(stop_poller),
    })
}

/// A fully-formed response: status, extra headers, JSON body, plus the
/// observability facts the connection handler feeds into the flight
/// recorder and clock table.
pub struct Routed {
    /// HTTP status to answer.
    pub status: u16,
    /// Extra headers (e.g. `Retry-After`) to include.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
    /// Flight-recorder outcome code
    /// ([`gendt_obs::flightrec::outcome`]).
    pub outcome: u8,
    /// Worker id that answered (empty when no worker was reached).
    pub worker: String,
    /// Scenario code of the parsed request (255 when unparsed).
    pub scenario: u8,
    /// Microseconds inside the winning forward attempt.
    pub forward_us: u32,
    /// Clock sample from the winning hop: router `now_ns` before and
    /// after the forward plus the worker's echoed
    /// `Gendt-Worker-Time-Ns` reading.
    pub clock_sample: Option<(u64, u64, u64)>,
}

impl Routed {
    fn plain(status: u16, headers: Vec<(String, String)>, body: String) -> Routed {
        Routed {
            status,
            headers,
            body,
            outcome: if status == 200 {
                flightrec::outcome::OK
            } else {
                flightrec::outcome::FAILED
            },
            worker: String::new(),
            scenario: 255,
            forward_us: 0,
            clock_sample: None,
        }
    }

    fn error(err: &GendtError) -> Routed {
        let status = err.http_status();
        let mut headers = Vec::new();
        if status == 429 || status == 503 {
            headers.push(("Retry-After".to_string(), "1".to_string()));
        }
        let body = serde_json::to_string(&ErrorEnvelope::from_error(err)).unwrap_or_else(|_| {
            format!("{{\"code\":\"internal\",\"message\":{:?}}}", err.context())
        });
        let outcome = match err.kind() {
            ErrorKind::Timeout => flightrec::outcome::EXPIRED,
            ErrorKind::Overloaded => flightrec::outcome::REJECTED,
            _ => flightrec::outcome::FAILED,
        };
        Routed {
            status,
            headers,
            body,
            outcome,
            worker: String::new(),
            scenario: 255,
            forward_us: 0,
            clock_sample: None,
        }
    }
}

/// Route and forward one generate request; always returns a definite
/// response. `deadline_ms` is the client's remaining budget at `started`.
///
/// The attempt loop is the availability story: a transport failure
/// evicts the worker from the ring ([`Membership::report_failure`]) and
/// retries the next owner, so a crashed worker degrades one request to
/// a fast failover instead of stranding it. Worker HTTP responses of
/// any status are final — they are the worker's answer, not a transport
/// failure — and pass through verbatim.
#[allow(clippy::too_many_arguments)] // the explicit seams are the point: sync-check injects each one
pub fn dispatch_generate(
    membership: &Membership,
    forwarder: &dyn Forwarder,
    metrics: &FleetMetrics,
    path: &str,
    body: &str,
    deadline_ms: Option<u64>,
    started: Instant,
    forward_timeout: Duration,
) -> Routed {
    let parsed: GenerateRequest = match serde_json::from_str(body) {
        Ok(p) => p,
        Err(e) => {
            return Routed::error(&GendtError::invalid(format!("bad request body: {e}")));
        }
    };
    let scenario = flightrec::scenario_code(&parsed.scenario);
    // The trace context entered by the connection handler (0 when the
    // caller runs outside one, e.g. the sync-check harness): stamped on
    // the forwarded hop so worker spans nest under the router's.
    let trace = gendt_trace::current_trace();

    let mut last_err: Option<GendtError> = None;
    for attempt in 0..MAX_ATTEMPTS {
        // Deadline minus elapsed routing time; expired means a 504
        // without burning a worker slot.
        let budget = match remaining_budget(deadline_ms, started.elapsed(), forward_timeout) {
            Ok(b) => b,
            Err(e) => {
                // sync: monotonic counter for /metrics only.
                metrics.deadline_expired.fetch_add(1, Ordering::Relaxed);
                let mut r = Routed::error(&e);
                r.scenario = scenario;
                return r;
            }
        };
        // Bounded-load consistent hashing: the key's owner unless it is
        // over the bounded-load limit (1.125× the fleet-mean in-flight), else the next
        // worker in the key's failover order. The grant holds one unit
        // of the target's load until this attempt resolves.
        let Some(grant) = membership.route_bounded(&parsed.model, &parsed.scenario) else {
            // sync: monotonic counter for /metrics only.
            metrics.no_owner.fetch_add(1, Ordering::Relaxed);
            let mut r = Routed::error(&GendtError::unavailable(format!(
                "no healthy worker owns ({}, {})",
                parsed.model, parsed.scenario
            )));
            r.outcome = flightrec::outcome::NO_OWNER;
            r.scenario = scenario;
            return r;
        };
        let (worker_id, addr) = (grant.id.clone(), grant.addr.clone());
        let mut headers: Vec<(String, String)> = Vec::new();
        if let Some(ms) = budget.propagate_ms {
            headers.push(("Deadline-Ms".to_string(), ms.to_string()));
        }
        if trace != 0 {
            headers.push((traceid::TRACE_HEADER.to_string(), traceid::format_id(trace)));
            headers.push((
                traceid::PARENT_HEADER.to_string(),
                traceid::format_id(traceid::mint()),
            ));
        }
        gendt_trace::span!("fleet_forward", "attempt" => attempt);
        let t0 = gendt_trace::now_ns();
        match forwarder.forward(&addr, "POST", path, &headers, Some(body), budget.timeout) {
            Ok(resp) => {
                let t1 = gendt_trace::now_ns();
                // sync: monotonic counter for /metrics only.
                metrics.forwarded.fetch_add(1, Ordering::Relaxed);
                let lane = if attempt > 0 {
                    RouteOutcome::Retry
                } else if grant.spilled {
                    RouteOutcome::Spill
                } else {
                    RouteOutcome::Owner
                };
                metrics.observe_routed_ms(lane, started.elapsed().as_secs_f64() * 1000.0);
                let outcome = match resp.status {
                    200 => match lane {
                        RouteOutcome::Owner => flightrec::outcome::OK,
                        RouteOutcome::Spill => flightrec::outcome::OK_SPILL,
                        RouteOutcome::Retry => flightrec::outcome::OK_RETRY,
                    },
                    429 => flightrec::outcome::REJECTED,
                    504 => flightrec::outcome::EXPIRED,
                    _ => flightrec::outcome::FAILED,
                };
                let clock_sample = resp
                    .header(traceid::WORKER_TIME_HEADER)
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .map(|worker_ns| (t0, t1, worker_ns));
                let mut out_headers = Vec::new();
                if let Some(ra) = resp.header("retry-after") {
                    out_headers.push(("Retry-After".to_string(), ra.to_string()));
                }
                // The legacy surface's deprecation contract survives the
                // hop: clients behind the router see the same Sunset
                // announcement a direct worker would send.
                if let Some(d) = resp.header("deprecation") {
                    out_headers.push(("Deprecation".to_string(), d.to_string()));
                }
                if let Some(s) = resp.header("sunset") {
                    out_headers.push(("Sunset".to_string(), s.to_string()));
                }
                return Routed {
                    status: resp.status,
                    headers: out_headers,
                    body: resp.body,
                    outcome,
                    worker: worker_id,
                    scenario,
                    forward_us: (t1.saturating_sub(t0) / 1000).min(u32::MAX as u64) as u32,
                    clock_sample,
                };
            }
            Err(e) => {
                // sync: monotonic counter for /metrics only.
                metrics.forward_errors.fetch_add(1, Ordering::Relaxed);
                membership.report_failure(&worker_id);
                last_err = Some(e.wrap(format!("worker {worker_id}")));
            }
        }
    }
    let err = last_err
        .unwrap_or_else(|| GendtError::unavailable("no forward attempt ran"))
        .wrap("fleet forwarding failed")
        .with_retryable(true);
    let mut r = Routed::error(&err);
    r.scenario = scenario;
    r
}

struct Budget {
    /// What to tell the worker (`Deadline-Ms`), if the client set one.
    propagate_ms: Option<u64>,
    /// Socket budget for this attempt.
    timeout: Duration,
}

/// The client's `deadline_ms` less the `elapsed` routing time, exactly.
/// The worker is told the whole milliseconds left, rounded down, so no
/// hop grows a deadline; under 1 ms left is expired (a timeout error,
/// which the caller answers with a 504).
fn remaining_budget(
    deadline_ms: Option<u64>,
    elapsed: Duration,
    forward_timeout: Duration,
) -> Result<Budget, GendtError> {
    let Some(total) = deadline_ms else {
        return Ok(Budget {
            propagate_ms: None,
            timeout: forward_timeout,
        });
    };
    let left = Duration::from_millis(total).saturating_sub(elapsed);
    // At most `total`, so it fits.
    let ms = left.as_millis() as u64;
    if ms == 0 {
        return Err(GendtError::timeout(format!(
            "deadline of {total} ms expired during routing"
        )));
    }
    Ok(Budget {
        propagate_ms: Some(ms),
        timeout: forward_timeout.min(left),
    })
}

/// Router-level fleet status (`GET /v1/fleet`).
#[derive(Debug, Serialize)]
struct FleetStatus {
    seed: u64,
    workers: usize,
    healthy: usize,
    models: Vec<String>,
    members: Vec<FleetWorker>,
}

#[derive(Debug, Serialize)]
struct FleetWorker {
    id: String,
    addr: String,
    healthy: bool,
    models: Vec<String>,
    versions: Vec<u64>,
    queue_depth: u64,
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

fn write_routed(stream: &mut TcpStream, routed: &Routed) {
    let extra: Vec<(&str, &str)> = routed
        .headers
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_str()))
        .collect();
    let _ = write_json_extra(
        stream,
        routed.status,
        reason(routed.status),
        &extra,
        &routed.body,
    );
}

fn handle_conn(state: &Arc<RouterState>, mut stream: TcpStream) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let req = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            write_routed(
                &mut stream,
                &Routed::error(&GendtError::invalid(format!("{e}"))),
            );
            return;
        }
    };
    // sync: monotonic counter for /metrics only.
    state.metrics.http_requests.fetch_add(1, Ordering::Relaxed);

    // Same surface split as the worker: `/v1/<route>` and `<route>`
    // dispatch identically; forwarding preserves the client's path so
    // the worker picks the response shape the client asked for.
    let route = match req.path.strip_prefix("/v1") {
        Some("") => "/".to_string(),
        Some(rest) if rest.starts_with('/') => rest.to_string(),
        _ => req.path.clone(),
    };

    match (req.method.as_str(), route.as_str()) {
        ("POST", "/generate") => {
            // Propagate the client's Gendt-Trace-Id or mint one: every
            // routed request has a trace context, and the chosen id is
            // echoed back so the client can find its spans later.
            let trace_id = req
                .header(traceid::TRACE_HEADER)
                .and_then(traceid::parse_id)
                .unwrap_or_else(traceid::mint);
            let _trace = gendt_trace::trace_scope(trace_id);
            if state.is_draining() {
                write_routed(
                    &mut stream,
                    &Routed::error(&GendtError::unavailable("router is draining")),
                );
                return;
            }
            let deadline_ms = match parse_deadline(req.header("deadline-ms")) {
                Ok(d) => d,
                Err(e) => {
                    write_routed(&mut stream, &Routed::error(&e));
                    return;
                }
            };
            let body = String::from_utf8_lossy(&req.body).into_owned();
            let mut routed = dispatch_generate(
                &state.membership,
                state.forwarder.as_ref(),
                state.metrics.as_ref(),
                &req.path,
                &body,
                deadline_ms,
                started,
                state.forward_timeout,
            );
            routed.headers.push((
                traceid::TRACE_HEADER.to_string(),
                traceid::format_id(trace_id),
            ));
            if let Some((t0, t1, worker_ns)) = routed.clock_sample {
                state.clock.update(&routed.worker, t0, t1, worker_ns);
            }
            let elapsed = started.elapsed();
            state.slo.record(
                gendt_trace::now_ns() / 1_000_000_000,
                routed.status < 500,
                elapsed.as_secs_f64() * 1000.0,
            );
            flightrec::record(flightrec::FlightRecord {
                trace: trace_id,
                scenario: routed.scenario,
                outcome: routed.outcome,
                worker: worker_index(&routed.worker),
                queue_us: 0,
                batch_us: 0,
                forward_us: routed.forward_us,
                total_us: elapsed.as_micros().min(u32::MAX as u128) as u32,
            });
            write_routed(&mut stream, &routed);
        }
        // Streams only exist on the v1 surface (the worker agrees); the
        // legacy path falls through to the 404 below.
        ("POST", "/stream") if req.path.starts_with("/v1") => {
            handle_stream(state, &mut stream, &req, started);
        }
        ("GET", "/models") => {
            let body = serde_json::to_string(&ModelsResponse {
                models: state.membership.model_names(),
            })
            .unwrap_or_else(|_| "{}".to_string());
            let _ = write_json(&mut stream, 200, "OK", &body);
        }
        ("GET", "/fleet") => {
            let members = state
                .membership
                .snapshot()
                .into_iter()
                .map(|w| FleetWorker {
                    id: w.id,
                    addr: w.addr,
                    healthy: w.healthy,
                    models: w.models,
                    versions: w.versions,
                    queue_depth: w.queue_depth,
                })
                .collect::<Vec<_>>();
            let body = serde_json::to_string(&FleetStatus {
                seed: state.membership.seed(),
                workers: members.len(),
                healthy: state.membership.healthy_count(),
                models: state.membership.model_names(),
                members,
            })
            .unwrap_or_else(|_| "{}".to_string());
            let _ = write_json(&mut stream, 200, "OK", &body);
        }
        ("GET", "/healthz") => {
            let healthy = !state.is_draining() && state.membership.healthy_count() > 0;
            if healthy {
                let _ = write_response_extra(&mut stream, 200, "OK", "text/plain", &[], b"ok\n");
            } else {
                let _ = write_response_extra(
                    &mut stream,
                    503,
                    "Service Unavailable",
                    "text/plain",
                    &[("Retry-After", "1")],
                    b"no healthy workers\n",
                );
            }
        }
        ("GET", "/metrics") => {
            let text = federated_metrics(state);
            let _ = write_response_extra(
                &mut stream,
                200,
                "OK",
                "text/plain; version=0.0.4",
                &[],
                text.as_bytes(),
            );
        }
        ("GET", "/debug/trace") => {
            // The router's own drain plus everything the assembler
            // needs to fetch and align the workers': their addresses
            // and the estimated clock offsets.
            let (all, dropped) = gendt_trace::snapshot_spans(usize::MAX);
            let mut spans: Vec<_> = all.into_iter().filter(|e| e.cat == "span").collect();
            if spans.len() > 256 {
                spans.drain(..spans.len() - 256);
            }
            let mut workers = String::from("{");
            for (i, w) in state.membership.snapshot().iter().enumerate() {
                if i > 0 {
                    workers.push(',');
                }
                workers.push_str(&format!("\"{}\":\"{}\"", w.id, w.addr));
            }
            workers.push('}');
            let body = format!(
                "{{\"enabled\":{},\"dropped\":{dropped},\"workers\":{workers},\"offsets\":{},\"spans\":{}}}",
                gendt_trace::trace_enabled(),
                state.clock.to_json(),
                gendt_trace::chrome_trace_json(&spans),
            );
            let _ = write_json(&mut stream, 200, "OK", &body);
        }
        ("GET", "/debug/flightrec") => {
            let _ = write_json(&mut stream, 200, "OK", &flightrec::dump_json());
        }
        ("POST", "/reload") => {
            let routed = broadcast_reload(state, &req.path);
            write_routed(&mut stream, &routed);
        }
        ("POST", "/shutdown") => {
            // sync: Release pairs with is_draining's Acquire load.
            state.draining.store(true, Ordering::Release);
            let _ = flightrec::dump_on_drain();
            let _ = write_response_extra(&mut stream, 200, "OK", "text/plain", &[], b"draining\n");
            let local = stream.local_addr().ok();
            let closer_state = state.clone();
            thread::spawn_named("fleet-drain-closer", move || {
                thread::sleep(DRAIN_GRACE);
                // sync: Release pairs with the accept loop's Acquire.
                closer_state.shutdown.store(true, Ordering::Release);
                if let Some(local) = local {
                    let _ = TcpStream::connect(local);
                }
            });
        }
        _ => write_routed(
            &mut stream,
            &Routed::error(&GendtError::not_found(format!(
                "no such route {:?}",
                req.path
            ))),
        ),
    }
}

/// `POST /v1/stream`: resolve the session's pinned owner and tunnel the
/// worker's chunked response to the client byte for byte.
///
/// Streaming cannot go through [`Forwarder`]/[`write_routed`] — both
/// reframe the exchange with a Content-Length, which would buffer the
/// whole stream and destroy the incremental delivery the route exists
/// for — so the router speaks raw TCP to the owner and relays. Affinity
/// comes from [`Membership::route_session`]: a session's carried
/// generator state lives on exactly one worker, so there is no
/// bounded-load spill and no failover retry here. When the pinned owner
/// is unreachable its state is gone with it; the router evicts the
/// worker and answers a typed retryable 503 naming the ring's new owner
/// (`Gendt-Session-Owner`) for the client to re-open against —
/// placement migrates, state cannot.
fn handle_stream(
    state: &Arc<RouterState>,
    stream: &mut TcpStream,
    req: &Request,
    started: Instant,
) {
    if state.is_draining() {
        write_routed(
            stream,
            &Routed::error(&GendtError::unavailable("router is draining")),
        );
        return;
    }
    let body = String::from_utf8_lossy(&req.body).into_owned();
    let parsed: StreamRequest = match serde_json::from_str(&body) {
        Ok(p) => p,
        Err(e) => {
            write_routed(
                stream,
                &Routed::error(&GendtError::invalid(format!("bad request body: {e}"))),
            );
            return;
        }
    };
    // A continuation routes by the session id that opened it; an open
    // mints the id here (sent down as `Gendt-Session-Id`, which the
    // worker honors) so the router, not the worker, decides placement —
    // the same id re-hashes to the same owner on every continuation.
    let (sid, model) = match (&parsed.session, &parsed.model) {
        (Some(sid), _) => (sid.clone(), None),
        (None, Some(model)) => (mint_session_id(state), Some(model.clone())),
        (None, None) => {
            write_routed(
                stream,
                &Routed::error(&GendtError::invalid("stream open: missing field \"model\"")),
            );
            return;
        }
    };
    let Some((worker_id, addr)) = state.membership.route_session(&sid, model.as_deref()) else {
        // sync: monotonic counter for /metrics only.
        state.metrics.no_owner.fetch_add(1, Ordering::Relaxed);
        write_routed(
            stream,
            &Routed::error(&GendtError::unavailable(format!(
                "no healthy worker can own stream session {sid:?}"
            ))),
        );
        return;
    };
    // The same deduction as a routed generate. Only the propagated value
    // is taken from it: the relay's socket timeouts stay the forward
    // timeout, since the worker ends an expired stream itself with a
    // `deadline` trailer.
    let budget = match parse_deadline(req.header("deadline-ms")).and_then(|deadline_ms| {
        remaining_budget(deadline_ms, started.elapsed(), state.forward_timeout)
    }) {
        Ok(b) => b,
        Err(e) => {
            if e.kind() == ErrorKind::Timeout {
                // sync: monotonic counter for /metrics only.
                state
                    .metrics
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
            }
            write_routed(stream, &Routed::error(&e));
            return;
        }
    };
    match tunnel_stream(
        stream,
        &addr,
        req,
        &body,
        &sid,
        budget.propagate_ms,
        state.forward_timeout,
    ) {
        Ok(()) => {
            // sync: monotonic counter for /metrics only.
            state.metrics.stream_tunnels.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            // sync: monotonic counters for /metrics only.
            state.metrics.forward_errors.fetch_add(1, Ordering::Relaxed);
            state
                .metrics
                .stream_migrations
                .fetch_add(1, Ordering::Relaxed);
            state.membership.report_failure(&worker_id);
            let next = state.membership.route_session(&sid, model.as_deref());
            write_routed(
                stream,
                &migration_notice(&sid, &worker_id, next.as_ref(), &e),
            );
        }
    }
}

/// Router-minted stream session id (`r`-prefixed to distinguish from a
/// worker-minted `s`-prefixed id in logs).
fn mint_session_id(state: &Arc<RouterState>) -> String {
    // sync: uniqueness counter only; ordering is irrelevant.
    let n = state.session_seq.fetch_add(1, Ordering::Relaxed);
    format!("r{:x}-{n:x}", gendt_trace::now_ns())
}

/// One raw streaming exchange with the session owner at `addr`: write
/// the rebuilt request, then relay response bytes to the client until
/// the worker closes. `Err` is returned only while the client socket is
/// still pristine (connect/write failed, or the worker died before
/// producing a byte), so the caller can still answer a typed migration
/// notice; once bytes have flowed the stream is the worker's to finish
/// and a mid-stream failure truncates it (the client sees a chunked
/// body with no terminating chunk and no trailer line).
///
/// `deadline_ms` is sent as the worker's `Deadline-Ms`: the client's
/// deadline less the routing time ([`remaining_budget`]).
fn tunnel_stream(
    client: &mut TcpStream,
    addr: &str,
    req: &Request,
    body: &str,
    sid: &str,
    deadline_ms: Option<u64>,
    timeout: Duration,
) -> Result<(), GendtError> {
    let sock: SocketAddr = addr
        .parse()
        .map_err(|e| GendtError::config(format!("bad worker addr {addr:?}: {e}")))?;
    let mut worker = TcpStream::connect_timeout(&sock, timeout)
        .map_err(|e| GendtError::unavailable(format!("connecting to worker {addr}: {e}")))?;
    worker
        .set_read_timeout(Some(timeout))
        .and_then(|()| worker.set_write_timeout(Some(timeout)))
        .map_err(|e| GendtError::unavailable(format!("configuring socket to {addr}: {e}")))?;

    let ms = deadline_ms.map(|ms| ms.to_string());
    let mut extra = vec![(SESSION_HEADER, sid)];
    extra.extend(ms.as_deref().map(|ms| ("Deadline-Ms", ms)));
    extra.extend(
        req.header(traceid::TRACE_HEADER)
            .map(|v| (traceid::TRACE_HEADER, v)),
    );
    let msg = request_message("POST", &req.path, addr, &extra, body.as_bytes());
    worker
        .write_all(&msg)
        .and_then(|()| worker.flush())
        .map_err(|e| GendtError::unavailable(format!("writing to worker {addr}: {e}")))?;

    let mut buf = [0u8; 16 * 1024];
    let mut relayed = false;
    loop {
        match worker.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if client
                    .write_all(&buf[..n])
                    .and_then(|()| client.flush())
                    .is_err()
                {
                    break; // client went away; nothing left to answer
                }
                relayed = true;
            }
            Err(e) if !relayed => {
                return Err(GendtError::unavailable(format!(
                    "reading from worker {addr}: {e}"
                )));
            }
            Err(_) => break,
        }
    }
    if !relayed {
        return Err(GendtError::unavailable(format!(
            "worker {addr} closed the stream before answering"
        )));
    }
    Ok(())
}

/// The typed answer when a pinned session owner is unreachable: a
/// retryable 503 naming the ring's new owner in both the message and
/// the `Gendt-Session-Owner` header. The carried state died with the
/// old owner, so the client re-opens there rather than continuing.
/// With no healthy worker left the notice is final (not retryable).
fn migration_notice(
    sid: &str,
    old: &str,
    next: Option<&(String, String)>,
    cause: &GendtError,
) -> Routed {
    let (msg, retryable) = match next {
        Some((id, _)) => (
            format!("stream session {sid:?}: owner {old} is gone; re-open against worker {id}"),
            true,
        ),
        None => (
            format!("stream session {sid:?}: owner {old} is gone and no healthy worker remains"),
            false,
        ),
    };
    let err = cause.clone().wrap(msg).with_retryable(retryable);
    let mut r = Routed::error(&err);
    r.worker = old.to_string();
    if let Some((id, _)) = next {
        r.headers
            .push((SESSION_OWNER_HEADER.to_string(), id.clone()));
    }
    r
}

/// The flight-recorder worker index of a `wN` worker id
/// (`u16::MAX` when unknown or the request never reached a worker).
fn worker_index(id: &str) -> u16 {
    id.strip_prefix('w')
        .and_then(|n| n.parse().ok())
        .unwrap_or(u16::MAX)
}

/// Build the federated `/metrics` exposition: the router's own series,
/// the SLO gauges, then every live worker's scrape — merged (counters
/// summed, histogram buckets step-merged) and additionally re-exported
/// per worker under a `worker=` label.
fn federated_metrics(state: &Arc<RouterState>) -> String {
    let snapshot = state.membership.snapshot();
    let healthy = snapshot.iter().filter(|w| w.healthy).count();
    let per_worker: Vec<(String, u64)> = snapshot
        .iter()
        .map(|w| (w.id.clone(), w.inflight))
        .collect();
    let mut text = state.metrics.render(snapshot.len(), healthy, &per_worker);
    text.push_str(&state.slo.render(gendt_trace::now_ns() / 1_000_000_000));
    let mut scrapes: Vec<(String, String)> = Vec::new();
    for w in snapshot.iter().filter(|w| w.healthy) {
        match state.forwarder.forward(
            &w.addr,
            "GET",
            "/v1/metrics",
            &[],
            None,
            state.forward_timeout.min(SCRAPE_TIMEOUT),
        ) {
            Ok(resp) if resp.status == 200 => scrapes.push((w.id.clone(), resp.body)),
            // An unscrapable worker degrades the federated view; the
            // health poller will sort out its ring membership.
            _ => {}
        }
    }
    if !scrapes.is_empty() {
        let texts: Vec<&str> = scrapes.iter().map(|(_, t)| t.as_str()).collect();
        text.push_str("# Federated worker series: counters summed, buckets merged.\n");
        text.push_str(&promtext::merge(&texts));
        text.push_str("# Per-worker series.\n");
        for (id, t) in &scrapes {
            text.push_str(&promtext::relabel(t, "worker", id));
        }
    }
    text
}

fn parse_deadline(raw: Option<&str>) -> Result<Option<u64>, GendtError> {
    match raw {
        None => Ok(None),
        Some(raw) => {
            let ms: u64 = raw.parse().map_err(|_| {
                GendtError::invalid(format!(
                    "Deadline-Ms: {raw:?} is not a non-negative integer"
                ))
            })?;
            if ms == 0 {
                return Err(GendtError::invalid("Deadline-Ms must be > 0"));
            }
            Ok(Some(ms))
        }
    }
}

/// Fan `/reload` out to every healthy worker; succeed only if all did.
fn broadcast_reload(state: &Arc<RouterState>, path: &str) -> Routed {
    let targets = state.membership.healthy_addrs();
    if targets.is_empty() {
        return Routed::error(&GendtError::unavailable("no healthy workers to reload"));
    }
    for (id, addr) in &targets {
        match state
            .forwarder
            .forward(addr, "POST", path, &[], None, state.forward_timeout)
        {
            Ok(resp) if resp.status == 200 => {}
            Ok(resp) => {
                return Routed::plain(resp.status, Vec::new(), resp.body);
            }
            Err(e) => {
                state.membership.report_failure(id);
                return Routed::error(&e.wrap(format!("reloading worker {id}")));
            }
        }
    }
    let body = serde_json::to_string(&ModelsResponse {
        models: state.membership.model_names(),
    })
    .unwrap_or_else(|_| "{}".to_string());
    Routed::plain(200, Vec::new(), body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendt_serve::http::HttpResponse;

    struct OkForwarder;
    impl Forwarder for OkForwarder {
        fn forward(
            &self,
            _addr: &str,
            _method: &str,
            _path: &str,
            headers: &[(String, String)],
            _body: Option<&str>,
            _timeout: Duration,
        ) -> Result<HttpResponse, GendtError> {
            let deadline = headers
                .iter()
                .find(|(n, _)| n == "Deadline-Ms")
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            Ok(HttpResponse {
                status: 200,
                headers: Vec::new(),
                body: format!("{{\"deadline\":\"{deadline}\"}}"),
            })
        }
    }

    struct DeadForwarder;
    impl Forwarder for DeadForwarder {
        fn forward(
            &self,
            _addr: &str,
            _method: &str,
            _path: &str,
            _headers: &[(String, String)],
            _body: Option<&str>,
            _timeout: Duration,
        ) -> Result<HttpResponse, GendtError> {
            Err(GendtError::unavailable("stub: connection refused"))
        }
    }

    fn body() -> String {
        "{\"model\":\"demo_a\",\"scenario\":\"walk\",\"duration_s\":10.0,\"start_x\":0.0,\
         \"start_y\":0.0,\"traj_seed\":1,\"sample_seed\":2}"
            .to_string()
    }

    fn fresh_membership() -> (Arc<Membership>, Arc<FleetMetrics>) {
        let metrics = Arc::new(FleetMetrics::new());
        let m = Arc::new(Membership::new(5, metrics.clone()));
        m.register("w0", "127.0.0.1:1000");
        m.register("w1", "127.0.0.1:1001");
        (m, metrics)
    }

    #[test]
    fn bad_body_is_a_typed_400() {
        let (m, metrics) = fresh_membership();
        let r = dispatch_generate(
            &m,
            &OkForwarder,
            &metrics,
            "/v1/generate",
            "not json",
            None,
            Instant::now(),
            Duration::from_secs(1),
        );
        assert_eq!(r.status, 400);
        assert!(r.body.contains("invalid_request"), "{}", r.body);
    }

    #[test]
    fn healthy_worker_response_passes_through() {
        let (m, metrics) = fresh_membership();
        let r = dispatch_generate(
            &m,
            &OkForwarder,
            &metrics,
            "/v1/generate",
            &body(),
            None,
            Instant::now(),
            Duration::from_secs(1),
        );
        assert_eq!(r.status, 200);
        // No client deadline: none propagated.
        assert!(r.body.contains("\"deadline\":\"\""), "{}", r.body);
    }

    #[test]
    fn deadline_propagates_minus_elapsed() {
        let (m, metrics) = fresh_membership();
        let r = dispatch_generate(
            &m,
            &OkForwarder,
            &metrics,
            "/v1/generate",
            &body(),
            Some(5_000),
            Instant::now(),
            Duration::from_secs(30),
        );
        assert_eq!(r.status, 200);
        // Propagated value is ≤ the original and > 0.
        let ms: u64 = r
            .body
            .trim_start_matches("{\"deadline\":\"")
            .trim_end_matches("\"}")
            .parse()
            .expect("deadline in stub body");
        assert!(ms > 0 && ms <= 5_000, "propagated {ms}");
    }

    #[test]
    fn expired_deadline_is_a_504_without_forwarding() {
        let (m, metrics) = fresh_membership();
        let started = Instant::now();
        thread::sleep(Duration::from_millis(15));
        let r = dispatch_generate(
            &m,
            &OkForwarder,
            &metrics,
            "/v1/generate",
            &body(),
            Some(5),
            started,
            Duration::from_secs(1),
        );
        assert_eq!(r.status, 504);
        assert!(r.body.contains("timeout"), "{}", r.body);
        assert_eq!(metrics.forwarded.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn budget_deducts_the_exact_elapsed_time() {
        let timeout = Duration::from_secs(30);
        // 600 µs of a 1 ms deadline leave 400 µs: expired, not a fresh 1 ms.
        let err = remaining_budget(Some(1), Duration::from_micros(600), timeout)
            .err()
            .expect("under 1 ms left is expired");
        assert_eq!(err.kind(), ErrorKind::Timeout);
        // 600 µs of 2 ms leave 1.4 ms: the worker is told 1.
        let b =
            remaining_budget(Some(2), Duration::from_micros(600), timeout).expect("1.4 ms left");
        assert_eq!(b.propagate_ms, Some(1));
        assert_eq!(b.timeout, Duration::from_micros(1_400));
        // No client deadline: nothing propagated, the forward timeout.
        let b = remaining_budget(None, Duration::from_secs(5), timeout).expect("no deadline");
        assert_eq!((b.propagate_ms, b.timeout), (None, timeout));
    }

    #[test]
    fn stream_tunnel_forwards_the_deducted_deadline() {
        // A stub worker that records the request head it receives.
        let worker = TcpListener::bind("127.0.0.1:0").expect("bind stub worker");
        let worker_addr = worker.local_addr().expect("stub addr").to_string();
        let seen = thread::spawn(move || {
            let (mut sock, _) = worker.accept().expect("accept tunnel");
            let req = read_request(&mut sock).expect("tunneled request");
            let _ = sock.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
            req
        });
        let front = TcpListener::bind("127.0.0.1:0").expect("bind front");
        let _client = TcpStream::connect(front.local_addr().expect("front addr")).expect("connect");
        let (mut relay, _) = front.accept().expect("accept client");
        let body = "{\"session\":\"s1\"}";
        let req = Request {
            method: "POST".to_string(),
            path: "/v1/stream".to_string(),
            headers: vec![("Deadline-Ms".to_string(), "2".to_string())],
            body: body.as_bytes().to_vec(),
        };
        let budget = remaining_budget(Some(2), Duration::from_micros(600), Duration::from_secs(5))
            .expect("1.4 ms left");
        tunnel_stream(
            &mut relay,
            &worker_addr,
            &req,
            body,
            "s1",
            budget.propagate_ms,
            Duration::from_secs(5),
        )
        .expect("tunnel relays the stub's answer");
        let got = seen.join().expect("stub worker");
        assert_eq!(got.header("deadline-ms"), Some("1"));
        assert_eq!(got.header(SESSION_HEADER), Some("s1"));
    }

    #[test]
    fn dead_pool_degrades_to_typed_retryable_503() {
        let (m, metrics) = fresh_membership();
        let r = dispatch_generate(
            &m,
            &DeadForwarder,
            &metrics,
            "/v1/generate",
            &body(),
            None,
            Instant::now(),
            Duration::from_secs(1),
        );
        assert_eq!(r.status, 503);
        assert!(r.body.contains("\"retryable\":true"), "{}", r.body);
        assert!(
            r.headers
                .iter()
                .any(|(n, v)| n == "Retry-After" && v == "1"),
            "{:?}",
            r.headers
        );
        // Both workers were evicted by the failed attempts.
        assert_eq!(m.healthy_count(), 0);
        assert_eq!(metrics.forward_errors.load(Ordering::Relaxed), 2);
    }

    /// Echoes the Gendt-Trace-Id request header into the body and a
    /// fixed worker clock reading into the response headers.
    struct TraceEchoForwarder;
    impl Forwarder for TraceEchoForwarder {
        fn forward(
            &self,
            _addr: &str,
            _method: &str,
            _path: &str,
            headers: &[(String, String)],
            _body: Option<&str>,
            _timeout: Duration,
        ) -> Result<HttpResponse, GendtError> {
            let trace = headers
                .iter()
                .find(|(n, _)| n == traceid::TRACE_HEADER)
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            Ok(HttpResponse {
                status: 200,
                headers: vec![(traceid::WORKER_TIME_HEADER.to_string(), "12345".to_string())],
                body: format!("{{\"trace\":\"{trace}\"}}"),
            })
        }
    }

    #[test]
    fn forward_carries_the_trace_context_and_clock_sample() {
        let (m, metrics) = fresh_membership();
        let _scope = gendt_trace::trace_scope(0xBEEF);
        let r = dispatch_generate(
            &m,
            &TraceEchoForwarder,
            &metrics,
            "/v1/generate",
            &body(),
            None,
            Instant::now(),
            Duration::from_secs(1),
        );
        assert_eq!(r.status, 200);
        assert!(
            r.body.contains("\"trace\":\"000000000000beef\""),
            "worker must see the router's trace id: {}",
            r.body
        );
        assert_eq!(r.outcome, flightrec::outcome::OK);
        assert!(r.worker == "w0" || r.worker == "w1");
        assert_eq!(r.scenario, flightrec::scenario_code("walk"));
        let (t0, t1, worker_ns) = r.clock_sample.expect("clock sample from echoed header");
        assert!(t1 >= t0);
        assert_eq!(worker_ns, 12345);
    }

    #[test]
    fn untraced_dispatch_sends_no_trace_header() {
        let (m, metrics) = fresh_membership();
        let r = dispatch_generate(
            &m,
            &TraceEchoForwarder,
            &metrics,
            "/v1/generate",
            &body(),
            None,
            Instant::now(),
            Duration::from_secs(1),
        );
        assert_eq!(r.status, 200);
        assert!(
            r.body.contains("\"trace\":\"\""),
            "no trace scope → no header: {}",
            r.body
        );
    }

    #[test]
    fn dead_pool_answer_reports_a_failed_outcome() {
        let (m, metrics) = fresh_membership();
        let r = dispatch_generate(
            &m,
            &DeadForwarder,
            &metrics,
            "/v1/generate",
            &body(),
            None,
            Instant::now(),
            Duration::from_secs(1),
        );
        assert_eq!(r.status, 503);
        assert_eq!(r.outcome, flightrec::outcome::FAILED);
        assert_eq!(r.scenario, flightrec::scenario_code("walk"));
    }

    #[test]
    fn empty_ring_reports_no_owner_outcome() {
        let metrics = Arc::new(FleetMetrics::new());
        let m = Membership::new(5, metrics.clone());
        let r = dispatch_generate(
            &m,
            &OkForwarder,
            &metrics,
            "/v1/generate",
            &body(),
            None,
            Instant::now(),
            Duration::from_secs(1),
        );
        assert_eq!(r.outcome, flightrec::outcome::NO_OWNER);
    }

    /// Answers like a worker's legacy surface: 200 plus the
    /// deprecation/sunset announcement headers.
    struct SunsetForwarder;
    impl Forwarder for SunsetForwarder {
        fn forward(
            &self,
            _addr: &str,
            _method: &str,
            _path: &str,
            _headers: &[(String, String)],
            _body: Option<&str>,
            _timeout: Duration,
        ) -> Result<HttpResponse, GendtError> {
            Ok(HttpResponse {
                status: 200,
                headers: vec![
                    ("Deprecation".to_string(), "true".to_string()),
                    (
                        "Sunset".to_string(),
                        "Tue, 01 Jun 2027 00:00:00 GMT".to_string(),
                    ),
                ],
                body: "{}".to_string(),
            })
        }
    }

    #[test]
    fn legacy_sunset_headers_pass_through_the_router() {
        let (m, metrics) = fresh_membership();
        let r = dispatch_generate(
            &m,
            &SunsetForwarder,
            &metrics,
            "/generate",
            &body(),
            None,
            Instant::now(),
            Duration::from_secs(1),
        );
        assert_eq!(r.status, 200);
        assert!(
            r.headers
                .iter()
                .any(|(n, v)| n == "Sunset" && v.contains("2027")),
            "worker Sunset must survive the hop: {:?}",
            r.headers
        );
        assert!(
            r.headers
                .iter()
                .any(|(n, v)| n == "Deprecation" && v == "true"),
            "{:?}",
            r.headers
        );
    }

    #[test]
    fn migration_notice_names_the_new_owner() {
        let cause = GendtError::unavailable("connecting to worker 127.0.0.1:1000: refused");
        let next = ("w1".to_string(), "127.0.0.1:1001".to_string());
        let r = migration_notice("s-1", "w0", Some(&next), &cause);
        assert_eq!(r.status, 503);
        assert!(r.body.contains("\"retryable\":true"), "{}", r.body);
        assert!(r.body.contains("re-open against worker w1"), "{}", r.body);
        assert!(
            r.headers
                .iter()
                .any(|(n, v)| n == SESSION_OWNER_HEADER && v == "w1"),
            "{:?}",
            r.headers
        );
        assert!(
            r.headers.iter().any(|(n, _)| n == "Retry-After"),
            "migration is retryable, so it must carry Retry-After: {:?}",
            r.headers
        );

        // Last worker gone: nothing to retry against.
        let r = migration_notice("s-1", "w0", None, &cause);
        assert_eq!(r.status, 503);
        assert!(r.body.contains("\"retryable\":false"), "{}", r.body);
        assert!(r.headers.iter().all(|(n, _)| n != SESSION_OWNER_HEADER));
    }

    #[test]
    fn empty_ring_is_a_typed_503() {
        let metrics = Arc::new(FleetMetrics::new());
        let m = Membership::new(5, metrics.clone());
        let r = dispatch_generate(
            &m,
            &OkForwarder,
            &metrics,
            "/v1/generate",
            &body(),
            None,
            Instant::now(),
            Duration::from_secs(1),
        );
        assert_eq!(r.status, 503);
        assert!(r.body.contains("unavailable"), "{}", r.body);
        assert_eq!(metrics.no_owner.load(Ordering::Relaxed), 1);
    }
}
