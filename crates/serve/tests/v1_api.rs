//! The versioned `/v1/*` API surface: typed error envelopes, deprecated
//! legacy aliases, `Retry-After` headers, per-request deadlines, and
//! graceful drain. Pins both surfaces so neither can silently regress.

use gendt_serve::api::{ErrorEnvelope, GenerateRequest, GenerateResponse, ModelsResponse};
use gendt_serve::http::{http_request, http_request_full};
use gendt_serve::{serve, ServerCfg, ServerHandle};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Demo checkpoints are expensive to train in debug builds; train once
/// per test binary and copy the bytes into per-test dirs.
fn demo_ckpt_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = std::env::temp_dir().join("gendt-v1-test-demo.json");
        gendt_serve::demo::write_demo_model(&path, 1).expect("train demo model");
        std::fs::read(&path).expect("read demo checkpoint")
    })
}

fn fresh_model_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gendt-v1-test-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create model dir");
    std::fs::write(dir.join("demo.json"), demo_ckpt_bytes()).expect("write checkpoint");
    dir
}

fn start_server(test: &str) -> (ServerHandle, String) {
    let dir = fresh_model_dir(test);
    let cfg = ServerCfg::builder(dir)
        .workers(1)
        .build()
        .expect("valid server config");
    let handle = serve(cfg).expect("server starts");
    let addr = handle.addr.to_string();
    (handle, addr)
}

fn request_json(model: &str, sample_seed: u64) -> String {
    serde_json::to_string(&GenerateRequest {
        model: model.to_string(),
        scenario: "walk".to_string(),
        duration_s: 30.0,
        start_x: 0.0,
        start_y: 0.0,
        traj_seed: 3,
        sample_seed,
    })
    .expect("encode request")
}

#[test]
fn v1_routes_answer_and_legacy_aliases_are_deprecated() {
    let (handle, addr) = start_server("v1-routes");

    // Same request on both surfaces: bitwise-identical bodies.
    let body = request_json("demo", 11);
    let v1 =
        http_request_full(&addr, "POST", "/v1/generate", &[], Some(&body)).expect("v1 generate");
    assert_eq!(v1.status, 200, "v1 generate failed: {}", v1.body);
    assert_eq!(v1.header("deprecation"), None, "v1 must not be deprecated");
    let legacy =
        http_request_full(&addr, "POST", "/generate", &[], Some(&body)).expect("legacy generate");
    assert_eq!(
        legacy.status, 200,
        "legacy generate failed: {}",
        legacy.body
    );
    assert_eq!(
        legacy.header("deprecation"),
        Some("true"),
        "legacy routes must carry Deprecation: true"
    );
    assert_eq!(
        v1.body, legacy.body,
        "surfaces must serve identical results"
    );
    let parsed: GenerateResponse = serde_json::from_str(&v1.body).expect("decode response");
    assert_eq!(parsed.model, "demo");

    // The read-only routes answer on both surfaces too.
    for path in ["/v1/models", "/models"] {
        let (status, body) = http_request(&addr, "GET", path, None).expect(path);
        assert_eq!(status, 200, "{path} failed: {body}");
        let models: ModelsResponse = serde_json::from_str(&body).expect("models body");
        assert_eq!(models.models, vec!["demo".to_string()]);
    }
    for path in ["/v1/healthz", "/healthz"] {
        let (status, body) = http_request(&addr, "GET", path, None).expect(path);
        assert_eq!((status, body.as_str()), (200, "ok\n"), "{path}");
    }
    for path in ["/v1/metrics", "/metrics"] {
        let (status, body) = http_request(&addr, "GET", path, None).expect(path);
        assert_eq!(status, 200);
        assert!(body.contains("gendt_serve_http_requests_total"), "{path}");
    }
    for path in ["/v1/reload", "/reload"] {
        let (status, _) = http_request(&addr, "POST", path, None).expect(path);
        assert_eq!(status, 200, "{path}");
    }
    for path in ["/v1/debug/trace", "/debug/trace"] {
        let (status, body) = http_request(&addr, "GET", path, None).expect(path);
        assert_eq!(status, 200);
        assert!(body.contains("\"spans\""), "{path}: {body}");
    }

    handle.shutdown();
}

#[test]
fn v1_errors_are_typed_envelopes_and_legacy_errors_stay_flat() {
    let (handle, addr) = start_server("v1-errors");

    // Unknown model → 404 not_found, not retryable.
    let body = request_json("nope", 1);
    let v1 =
        http_request_full(&addr, "POST", "/v1/generate", &[], Some(&body)).expect("v1 generate");
    assert_eq!(v1.status, 404);
    let env: ErrorEnvelope = serde_json::from_str(&v1.body).expect("typed envelope");
    assert_eq!(env.code, "not_found");
    assert!(!env.retryable);
    assert!(env.message.contains("nope"), "{}", env.message);

    // Same failure on the legacy surface keeps the flat shape.
    let legacy =
        http_request_full(&addr, "POST", "/generate", &[], Some(&body)).expect("legacy generate");
    assert_eq!(legacy.status, 404);
    assert!(
        legacy.body.contains("\"error\""),
        "legacy error shape changed: {}",
        legacy.body
    );
    assert!(
        !legacy.body.contains("\"code\""),
        "legacy must not grow the envelope: {}",
        legacy.body
    );

    // Bad body → invalid_request; unknown route → not_found envelope.
    let v1 =
        http_request_full(&addr, "POST", "/v1/generate", &[], Some("not json")).expect("bad body");
    assert_eq!(v1.status, 400);
    let env: ErrorEnvelope = serde_json::from_str(&v1.body).expect("typed envelope");
    assert_eq!(env.code, "invalid_request");
    let v1 = http_request_full(&addr, "GET", "/v1/no-such-route", &[], None).expect("404");
    assert_eq!(v1.status, 404);

    handle.shutdown();
}

#[test]
fn start_outside_the_world_is_a_typed_400() {
    let (handle, addr) = start_server("v1-start");
    let generate = |x: f64, y: f64| {
        let body = serde_json::to_string(&GenerateRequest {
            model: "demo".to_string(),
            scenario: "walk".to_string(),
            duration_s: 30.0,
            start_x: x,
            start_y: y,
            traj_seed: 3,
            sample_seed: 1,
        })
        .expect("encode request");
        http_request_full(&addr, "POST", "/v1/generate", &[], Some(&body)).expect("generate")
    };
    // The served world is the 4 km city.
    for (x, y) in [
        (1e30, 0.0),
        (0.0, -1e30),
        (f64::MAX, -f64::MAX),
        (4000.5, 0.0),
    ] {
        let resp = generate(x, y);
        assert_eq!(resp.status, 400, "start ({x}, {y}): {}", resp.body);
        let env: ErrorEnvelope = serde_json::from_str(&resp.body).expect("typed envelope");
        assert_eq!(env.code, "invalid_request");
        assert!(!env.retryable);
    }
    // The extent's corner is still in the world.
    let resp = generate(-4000.0, 4000.0);
    assert_eq!(resp.status, 200, "{}", resp.body);
    handle.shutdown();
}

#[test]
fn expired_deadline_times_out_with_retryable_envelope() {
    let (handle, addr) = start_server("v1-deadline");

    // 1 ms deadline on an hour-long route: extracting its 3,600 points
    // outlasts the deadline, so the job has expired when the scheduler
    // pops it, and the scheduler answers Timeout → 504.
    let hour_walk = serde_json::to_string(&GenerateRequest {
        model: "demo".to_string(),
        scenario: "walk".to_string(),
        duration_s: 3600.0,
        start_x: 0.0,
        start_y: 0.0,
        traj_seed: 3,
        sample_seed: 5,
    })
    .expect("encode request");
    let resp = http_request_full(
        &addr,
        "POST",
        "/v1/generate",
        &[("Deadline-Ms", "1")],
        Some(&hour_walk),
    )
    .expect("deadline request");
    assert_eq!(resp.status, 504, "expected timeout, got: {}", resp.body);
    let env: ErrorEnvelope = serde_json::from_str(&resp.body).expect("typed envelope");
    assert_eq!(env.code, "timeout");
    assert!(env.retryable, "timeouts are retryable");

    // A malformed deadline header is an invalid_request, not a 500.
    let body = request_json("demo", 5);
    let resp = http_request_full(
        &addr,
        "POST",
        "/v1/generate",
        &[("Deadline-Ms", "soon")],
        Some(&body),
    )
    .expect("bad deadline header");
    assert_eq!(resp.status, 400);
    let env: ErrorEnvelope = serde_json::from_str(&resp.body).expect("typed envelope");
    assert_eq!(env.code, "invalid_request");

    // A generous deadline still succeeds.
    let resp = http_request_full(
        &addr,
        "POST",
        "/v1/generate",
        &[("Deadline-Ms", "60000")],
        Some(&body),
    )
    .expect("generous deadline");
    assert_eq!(resp.status, 200, "{}", resp.body);

    let expired = handle
        .metrics()
        .deadline_expired
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(expired >= 1, "deadline_expired metric never moved");
    handle.shutdown();
}

#[test]
fn draining_server_sheds_with_retry_after_and_unhealthy_healthz() {
    let (handle, addr) = start_server("v1-drain");

    // Begin the drain over HTTP, as a supervisor would.
    let (status, body) = http_request(&addr, "POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!((status, body.as_str()), (200, "draining\n"));

    // In-flight window: the acceptor may briefly keep answering; any
    // generate submitted now must be shed 503 + Retry-After with the
    // `unavailable` code, and healthz must report draining. The accept
    // loop closes for good shortly after, so tolerate refused connects.
    let body = request_json("demo", 9);
    if let Ok(resp) = http_request_full(&addr, "POST", "/v1/generate", &[], Some(&body)) {
        assert_eq!(resp.status, 503, "draining server must shed: {}", resp.body);
        assert_eq!(resp.header("retry-after"), Some("1"));
        let env: ErrorEnvelope = serde_json::from_str(&resp.body).expect("typed envelope");
        assert_eq!(env.code, "unavailable");
        assert!(env.retryable);
    }
    if let Ok(resp) = http_request_full(&addr, "GET", "/v1/healthz", &[], None) {
        assert_eq!(resp.status, 503);
        assert_eq!(resp.body, "draining\n");
        assert_eq!(resp.header("retry-after"), Some("1"));
    }

    // Graceful exit: join() returns once workers flushed and in-flight
    // connections finished.
    handle.join();
}

#[test]
fn server_config_builder_rejects_degenerate_values() {
    let dir = fresh_model_dir("v1-cfg");
    for bad in [
        ServerCfg::builder(dir.clone()).addr("localhost").build(),
        ServerCfg::builder(dir.clone())
            .addr("host:notaport")
            .build(),
        ServerCfg::builder(dir.clone()).workers(0).build(),
        ServerCfg::builder(dir.clone()).queue_cap(0).build(),
        ServerCfg::builder(dir.clone()).max_batch(0).build(),
        ServerCfg::builder(dir.clone()).cache_cap(0).build(),
        ServerCfg::builder(dir.clone())
            .default_deadline_ms(-5)
            .build(),
    ] {
        let err = bad.expect_err("degenerate server config must be rejected");
        assert_eq!(err.kind(), gendt_faults::ErrorKind::Config);
        assert!(err.context().contains("ServerCfg"), "{err}");
    }
    let cfg = ServerCfg::builder(dir)
        .addr("127.0.0.1:0")
        .workers(2)
        .default_deadline_ms(5_000)
        .build()
        .expect("valid config");
    assert_eq!(cfg.default_deadline_ms, 5_000);
}
