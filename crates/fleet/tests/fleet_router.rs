//! Router integration tests against real in-process workers: two
//! [`gendt_serve`] servers stand in for the pool (no process spawning,
//! so the test is fast and sandbox-friendly), and the router fronts
//! them over real loopback HTTP.

use gendt_fleet::{route_serve, FleetMetrics, HttpForwarder, HttpProbe, Membership, RouterCfg};
use gendt_serve::api::{StreamChunk, StreamTrailer};
use gendt_serve::http::{http_request, http_request_full};
use gendt_serve::{serve, ServerCfg, ServerHandle};
use std::path::PathBuf;
use std::sync::Arc;

fn models_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("gendt-fleet-itest-models");
    let ckpt = dir.join("demo_a.json");
    if !ckpt.exists() {
        gendt_serve::demo::write_demo_model(&ckpt, 1).expect("demo checkpoint");
    }
    dir
}

fn worker() -> ServerHandle {
    serve(ServerCfg::new(models_dir())).expect("worker up")
}

struct TestFleet {
    router: gendt_fleet::RouterHandle,
    membership: Arc<Membership>,
    workers: Vec<ServerHandle>,
}

impl TestFleet {
    fn start(n: usize) -> TestFleet {
        TestFleet::start_with(n, 50)
    }

    /// `health_interval_ms` is a knob so failover tests can park the
    /// poller and exercise the forward-path eviction deterministically.
    fn start_with(n: usize, health_interval_ms: u64) -> TestFleet {
        let workers: Vec<ServerHandle> = (0..n).map(|_| worker()).collect();
        let metrics = Arc::new(FleetMetrics::new());
        let membership = Arc::new(Membership::new(9, metrics.clone()));
        for (i, w) in workers.iter().enumerate() {
            membership.register(&format!("w{i}"), &w.addr.to_string());
        }
        let cfg = RouterCfg {
            health_interval_ms,
            ..RouterCfg::new()
        };
        let router = route_serve(
            cfg,
            membership.clone(),
            Arc::new(HttpProbe),
            Arc::new(HttpForwarder),
            metrics,
        )
        .expect("router up");
        TestFleet {
            router,
            membership,
            workers,
        }
    }

    fn addr(&self) -> String {
        self.router.addr.to_string()
    }

    fn stop(self) {
        self.router.shutdown();
        for w in self.workers {
            w.shutdown();
        }
    }
}

fn body(scenario: &str, sample_seed: u64) -> String {
    format!(
        "{{\"model\":\"demo_a\",\"scenario\":\"{scenario}\",\"duration_s\":20.0,\
         \"start_x\":0.0,\"start_y\":0.0,\"traj_seed\":2,\"sample_seed\":{sample_seed}}}"
    )
}

#[test]
fn routed_generate_matches_direct_worker_bitwise() {
    let fleet = TestFleet::start(2);
    for scenario in ["walk", "bus", "tram", "city_drive", "highway"] {
        let b = body(scenario, 5);
        let (rs, routed) =
            http_request(&fleet.addr(), "POST", "/v1/generate", Some(&b)).expect("routed");
        assert_eq!(rs, 200, "routed {scenario}: {routed}");
        // Any single worker gives the canonical answer: generation is
        // deterministic in the request, not in the serving process.
        let direct_addr = fleet.workers[0].addr.to_string();
        let (ds, direct) =
            http_request(&direct_addr, "POST", "/v1/generate", Some(&b)).expect("direct");
        assert_eq!(ds, 200);
        assert_eq!(routed, direct, "scenario {scenario} differs through router");
    }
    fleet.stop();
}

#[test]
fn models_and_fleet_endpoints_reflect_membership() {
    let fleet = TestFleet::start(2);
    let (s, models) = http_request(&fleet.addr(), "GET", "/v1/models", None).expect("models");
    assert_eq!(s, 200);
    assert!(models.contains("demo_a"), "{models}");

    let (s, status) = http_request(&fleet.addr(), "GET", "/v1/fleet", None).expect("fleet");
    assert_eq!(s, 200);
    assert!(status.contains("\"workers\":2"), "{status}");
    assert!(status.contains("\"healthy\":2"), "{status}");
    assert!(status.contains("\"seed\":9"), "{status}");

    let (s, _) = http_request(&fleet.addr(), "GET", "/v1/healthz", None).expect("healthz");
    assert_eq!(s, 200);
    fleet.stop();
}

#[test]
fn dead_worker_fails_over_without_stranding() {
    let fleet = TestFleet::start(2);
    // Hard-stop one worker out from under the router.
    let victim = fleet.workers[1].addr.to_string();
    let _ = http_request(&victim, "POST", "/v1/shutdown", None);
    // Give the two-phase drain a beat to close the listener.
    std::thread::sleep(std::time::Duration::from_millis(700));

    // Every request still gets a definite answer; at least one 200.
    let mut ok = 0;
    for i in 0..10u64 {
        let b = body(["walk", "bus", "tram"][i as usize % 3], i);
        let resp = http_request_full(&fleet.addr(), "POST", "/v1/generate", &[], Some(&b))
            .expect("request answered");
        match resp.status {
            200 => ok += 1,
            503 => assert!(
                resp.body.contains("\"retryable\":true"),
                "untyped 503: {}",
                resp.body
            ),
            other => panic!("unexpected status {other}: {}", resp.body),
        }
    }
    assert!(ok > 0, "no request succeeded after failover");

    // The health poller converges to 1 healthy member.
    let mut healthy = fleet.membership.healthy_count();
    for _ in 0..50 {
        if healthy == 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        healthy = fleet.membership.healthy_count();
    }
    assert_eq!(healthy, 1, "membership never converged");
    fleet.stop();
}

/// NDJSON stream body → (chunk lines, trailer line).
fn parse_stream(body: &str) -> (Vec<StreamChunk>, StreamTrailer) {
    let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "empty stream body");
    let trailer: StreamTrailer =
        serde_json::from_str(lines[lines.len() - 1]).expect("last line is the trailer");
    let chunks = lines[..lines.len() - 1]
        .iter()
        .map(|l| serde_json::from_str::<StreamChunk>(l).expect("chunk line"))
        .collect();
    (chunks, trailer)
}

#[test]
fn routed_stream_concatenates_to_direct_one_shot_bitwise() {
    let fleet = TestFleet::start(2);
    let open = "{\"model\":\"demo_a\",\"scenario\":\"walk\",\"duration_s\":20.0,\"start_x\":0.0,\
         \"start_y\":0.0,\"traj_seed\":2,\"sample_seed\":5,\"chunk_windows\":1}";
    let resp =
        http_request_full(&fleet.addr(), "POST", "/v1/stream", &[], Some(open)).expect("stream");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        resp.header("transfer-encoding"),
        Some("chunked"),
        "the tunnel must relay the worker's chunked framing verbatim"
    );
    let sid = resp
        .header("Gendt-Session-Id")
        .expect("session id header relayed from the worker")
        .to_string();
    assert!(sid.starts_with('r'), "router-minted id, got {sid:?}");
    let (chunks, trailer) = parse_stream(&resp.body);
    assert!(trailer.done, "{trailer:?}");
    assert!(chunks.len() >= 2);

    // Concatenated streamed windows == any worker's one-shot answer.
    let direct_addr = fleet.workers[0].addr.to_string();
    let (ds, direct) =
        http_request(&direct_addr, "POST", "/v1/generate", Some(&body("walk", 5))).expect("direct");
    assert_eq!(ds, 200);
    let direct: gendt_serve::GenerateResponse = serde_json::from_str(&direct).expect("one-shot");
    let mut cat: Vec<Vec<f64>> = vec![Vec::new(); direct.series.series.len()];
    for c in &chunks {
        for (dst, src) in cat.iter_mut().zip(c.series.series.iter()) {
            dst.extend_from_slice(src);
        }
    }
    assert_eq!(
        cat, direct.series.series,
        "routed stream differs from direct one-shot"
    );

    // A completed session's continuation 404s on the worker and the
    // tunnel passes that through verbatim.
    let cont = format!("{{\"session\":{sid:?}}}");
    let resp = http_request_full(&fleet.addr(), "POST", "/v1/stream", &[], Some(&cont))
        .expect("continuation");
    assert_eq!(resp.status, 404, "{}", resp.body);
    assert!(resp.body.contains("not_found"), "{}", resp.body);

    assert!(
        fleet
            .router
            .metrics()
            .stream_tunnels
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 2
    );
    fleet.stop();
}

#[test]
fn dead_session_owner_yields_migration_notice_naming_survivor() {
    // Health poller parked: the continuation must discover the dead
    // owner on the forward path itself.
    let fleet = TestFleet::start_with(2, 60_000);
    let open = "{\"model\":\"demo_a\",\"scenario\":\"walk\",\"duration_s\":20.0,\"start_x\":0.0,\
         \"start_y\":0.0,\"traj_seed\":2,\"sample_seed\":7,\"max_windows\":1}";
    let resp =
        http_request_full(&fleet.addr(), "POST", "/v1/stream", &[], Some(open)).expect("open");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let sid = resp
        .header("Gendt-Session-Id")
        .expect("session id")
        .to_string();
    let (_, trailer) = parse_stream(&resp.body);
    assert!(!trailer.done, "budgeted open must pause: {trailer:?}");

    // Kill the pinned owner out from under the router.
    let (owner, owner_addr) = fleet
        .membership
        .route_session(&sid, None)
        .expect("session owner");
    let _ = http_request(&owner_addr, "POST", "/v1/shutdown", None);
    std::thread::sleep(std::time::Duration::from_millis(700));

    let cont = format!("{{\"session\":{sid:?}}}");
    let resp = http_request_full(&fleet.addr(), "POST", "/v1/stream", &[], Some(&cont))
        .expect("continuation answered");
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(resp.body.contains("\"retryable\":true"), "{}", resp.body);
    let new_owner = resp
        .header("Gendt-Session-Owner")
        .expect("migration notice names the new owner");
    assert_ne!(new_owner, owner, "new owner must differ from the dead one");
    assert!(resp.body.contains(new_owner), "{}", resp.body);
    // The forward-path failure evicted the dead owner immediately.
    assert_eq!(fleet.membership.healthy_count(), 1);
    assert_eq!(
        fleet
            .router
            .metrics()
            .stream_migrations
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    fleet.stop();
}

#[test]
fn deadline_expired_in_routing_is_504() {
    let fleet = TestFleet::start(1);
    // Deadline-Ms: 1 on an hour-long route: the context extraction of
    // its 3,600 points alone outlasts the deadline, so no hop can serve
    // it in time.
    let hour_walk = body("walk", 1).replace("\"duration_s\":20.0", "\"duration_s\":3600.0");
    let resp = http_request_full(
        &fleet.addr(),
        "POST",
        "/v1/generate",
        &[("Deadline-Ms", "1")],
        Some(&hour_walk),
    )
    .expect("answered");
    // Either the router noticed (504) or the worker shed it (503) —
    // both are typed; what must not happen is a success or a hang.
    assert!(
        resp.status == 504 || resp.status == 503,
        "status {}: {}",
        resp.status,
        resp.body
    );
    assert!(resp.body.contains("\"code\""), "untyped: {}", resp.body);
    fleet.stop();
}

#[test]
fn draining_router_sheds_with_typed_envelope() {
    let fleet = TestFleet::start(1);
    let (s, b) = http_request(&fleet.addr(), "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(s, 200, "{b}");
    // Until the listener closes, new generates are shed typed.
    if let Ok(resp) = http_request_full(
        &fleet.addr(),
        "POST",
        "/v1/generate",
        &[],
        Some(&body("walk", 1)),
    ) {
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert!(resp.body.contains("unavailable"), "{}", resp.body);
    }
    // Router winds down on its own after the drain grace.
    fleet.router.join();
    for w in fleet.workers {
        w.shutdown();
    }
}

#[test]
fn shutdown_wakes_a_parked_health_poller() {
    // A 60 s health interval parks the poller in its wait; shutdown must
    // wake it instead of waiting the interval out.
    let fleet = TestFleet::start_with(1, 60_000);
    let t0 = std::time::Instant::now();
    fleet.router.shutdown();
    let took = t0.elapsed();
    for w in fleet.workers {
        w.shutdown();
    }
    assert!(
        took < std::time::Duration::from_secs(1),
        "router shutdown took {took:?} with a 60 s health interval"
    );
}
