//! End-to-end tests of the serving path: a real server on port 0, real
//! TCP clients, and bitwise comparison against direct `generate_series`.

mod common;

use common::{demo_ckpt_bytes, direct_series, fresh_model_dir, request_json, WORLD_SEED};
use gendt_serve::api::GenerateResponse;
use gendt_serve::http::http_request;
use gendt_serve::scheduler::SchedCfg;
use gendt_serve::{serve, ServerCfg};

#[test]
fn debug_trace_endpoint_reports_serve_spans() {
    gendt_trace::set_trace(true);
    let dir = fresh_model_dir("trace", 1);
    let handle = serve(ServerCfg {
        world_seed: WORLD_SEED,
        ..ServerCfg::new(dir)
    })
    .expect("start server");
    let addr = handle.addr.to_string();

    let body = request_json(0, 7, 40.0);
    let (status, resp) =
        http_request(&addr, "POST", "/generate", Some(&body)).expect("request failed");
    assert_eq!(status, 200, "generate failed: {resp}");

    let (status, trace) = http_request(&addr, "GET", "/debug/trace", None).expect("trace failed");
    handle.shutdown();
    assert_eq!(status, 200, "debug endpoint failed: {trace}");
    assert!(trace.contains("\"enabled\":true"), "flag missing: {trace}");
    assert!(
        trace.contains("\"traceEvents\""),
        "not a Chrome-trace payload: {trace}"
    );
    // The worker records its batch span before replying to the handler,
    // so by the time /generate returned it must be visible.
    assert!(
        trace.contains("\"serve_batch\""),
        "serve batch span missing: {trace}"
    );
    assert!(
        trace.contains("\"serve_batch_assemble\""),
        "assembly span missing: {trace}"
    );
}

#[test]
fn full_queue_sheds_load_with_429() {
    let dir = fresh_model_dir("overload", 1);
    let handle = serve(ServerCfg {
        sched: SchedCfg {
            max_batch: 1,
            queue_cap: 1,
        },
        world_seed: WORLD_SEED,
        ..ServerCfg::new(dir)
    })
    .expect("start server");
    let addr = handle.addr.to_string();

    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..12u64)
            .map(|i| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let body = request_json(0, i, 120.0);
                    http_request(&addr, "POST", "/generate", Some(&body))
                        .expect("request failed")
                        .0
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    handle.shutdown();

    assert!(
        statuses.iter().all(|&s| s == 200 || s == 429),
        "unexpected statuses: {statuses:?}"
    );
    assert!(statuses.contains(&200), "nothing succeeded: {statuses:?}");
    assert!(
        statuses.contains(&429),
        "queue never filled — overload not exercised: {statuses:?}"
    );
}

#[test]
fn reload_mid_traffic_never_serves_a_half_swapped_model() {
    let dir = fresh_model_dir("reload", 1);
    // Precompute both model versions' direct outputs for every seed.
    let v1 = std::env::temp_dir().join("gendt-serve-test-reload-v1.json");
    let v2 = std::env::temp_dir().join("gendt-serve-test-reload-v2.json");
    std::fs::write(&v1, demo_ckpt_bytes(1)).expect("write v1");
    std::fs::write(&v2, demo_ckpt_bytes(2)).expect("write v2");
    let seeds: Vec<u64> = (0..10).collect();
    let want_v1: Vec<Vec<Vec<f64>>> = seeds
        .iter()
        .map(|&s| direct_series(&v1, 0, s, 40.0))
        .collect();
    let want_v2: Vec<Vec<Vec<f64>>> = seeds
        .iter()
        .map(|&s| direct_series(&v2, 0, s, 40.0))
        .collect();
    // The two versions must actually differ, or the test proves nothing.
    assert_ne!(want_v1[0], want_v2[0], "v1 and v2 models are identical");

    let handle = serve(ServerCfg {
        world_seed: WORLD_SEED,
        ..ServerCfg::new(dir.clone())
    })
    .expect("start server");
    let addr = handle.addr.to_string();

    let mut got: Vec<Vec<Vec<f64>>> = Vec::new();
    for (i, &s) in seeds.iter().enumerate() {
        if i == 4 {
            // Swap the checkpoint and hot-reload mid-traffic.
            std::fs::write(dir.join("demo.json"), demo_ckpt_bytes(2)).expect("swap checkpoint");
            let (status, body) =
                http_request(&addr, "POST", "/reload", None).expect("reload failed");
            assert_eq!(status, 200, "reload rejected: {body}");
        }
        let body = request_json(0, s, 40.0);
        let (status, resp) =
            http_request(&addr, "POST", "/generate", Some(&body)).expect("request failed");
        assert_eq!(status, 200, "generate failed: {resp}");
        let resp: GenerateResponse = serde_json::from_str(&resp).expect("decode response");
        got.push(resp.series.series);
    }
    handle.shutdown();

    // Every response must be exactly one model version's output — a mix
    // (or anything else) would mean a half-swapped model served.
    let mut swaps = 0;
    let mut last_was_v2 = false;
    for (i, series) in got.iter().enumerate() {
        let is_v1 = *series == want_v1[i];
        let is_v2 = *series == want_v2[i];
        assert!(
            is_v1 ^ is_v2,
            "response {i} matches neither (or both) model versions"
        );
        if is_v2 != last_was_v2 {
            swaps += 1;
            last_was_v2 = is_v2;
        }
    }
    assert!(swaps <= 1, "served versions interleaved: {swaps} swaps");
    assert!(last_was_v2, "reload never took effect");
}
