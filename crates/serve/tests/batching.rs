//! Micro-batching end to end: requests queued behind a busy worker run
//! as one batched forward pass, and every batched response is bitwise
//! equal to a direct `generate_series` call.
//!
//! A test binary of its own because it arms a process-wide fault plan
//! (`slow@serve.batch`) to hold the worker's first batch; in a binary
//! shared with other tests, their batches could take that delay.

mod common;

use common::{direct_series, fresh_model_dir, request_json, WORLD_SEED};
use gendt_serve::api::GenerateResponse;
use gendt_serve::http::http_request;
use gendt_serve::scheduler::SchedCfg;
use gendt_serve::{serve, ServerCfg};
use std::time::{Duration, Instant};

/// How long the injected fault holds the first batch. Only an upper
/// bound on how long the six requests may take to queue; the test waits
/// on the queue depth, never on this delay.
const HOLD_MS: u64 = 3_000;

/// Read one unlabeled counter or gauge from the server's `/metrics`.
fn metric(addr: &str, name: &str) -> f64 {
    let (status, text) = http_request(addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200, "metrics failed: {text}");
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

/// Poll `metric` until it reads `want`; fail after `patience`.
fn await_metric(addr: &str, name: &str, want: f64, patience: Duration) {
    let until = Instant::now() + patience;
    loop {
        let got = metric(addr, name);
        if got == want {
            return;
        }
        assert!(
            Instant::now() < until,
            "{name} stuck at {got}, waiting for {want}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn generate(addr: &str, traj_seed: u64, sample_seed: u64) -> GenerateResponse {
    let body = request_json(traj_seed, sample_seed, 40.0);
    let (status, resp) =
        http_request(addr, "POST", "/generate", Some(&body)).expect("request failed");
    assert_eq!(status, 200, "unexpected status: {resp}");
    serde_json::from_str(&resp).expect("decode response")
}

#[test]
fn concurrent_batched_responses_are_bitwise_equal_to_direct() {
    let dir = fresh_model_dir("bitwise", 1);
    let ckpt = dir.join("demo.json");
    gendt_faults::set_spec(&format!("slow@serve.batch:ms={HOLD_MS},n=1"), 0).expect("fault spec");
    let handle = serve(ServerCfg {
        sched: SchedCfg {
            max_batch: 6,
            queue_cap: 64,
        },
        world_seed: WORLD_SEED,
        ..ServerCfg::new(dir)
    })
    .expect("start server");
    let addr = handle.addr.to_string();

    // The holder runs alone on the idle worker, and the fault holds its
    // batch. Six concurrent requests then queue behind it: distinct
    // sample seeds, two distinct trajectories (so the coalesced batch
    // is heterogeneous).
    let holder_spec = (0u64, 99u64);
    let specs: Vec<(u64, u64)> = (0..6u64).map(|i| (i % 2, 100 + i)).collect();
    let (holder, responses) = std::thread::scope(|scope| {
        let holder = scope.spawn(|| generate(&addr, holder_spec.0, holder_spec.1));
        await_metric(
            &addr,
            "gendt_serve_faults_injected_total",
            1.0,
            Duration::from_secs(60),
        );
        let handles: Vec<_> = specs
            .iter()
            .map(|&(traj_seed, sample_seed)| {
                let addr = &addr;
                scope.spawn(move || generate(addr, traj_seed, sample_seed))
            })
            .collect();
        await_metric(
            &addr,
            "gendt_serve_queue_depth",
            6.0,
            Duration::from_millis(HOLD_MS),
        );
        let responses: Vec<GenerateResponse> = handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect();
        (holder.join().expect("join"), responses)
    });
    gendt_faults::clear_faults();

    // The six queued requests ran as one batch after the holder's.
    assert_eq!(metric(&addr, "gendt_serve_batches_total"), 2.0);
    assert_eq!(metric(&addr, "gendt_serve_batched_requests_total"), 7.0);
    handle.shutdown();

    let served = std::iter::once((&holder_spec, &holder)).chain(specs.iter().zip(&responses));
    for (&(traj_seed, sample_seed), resp) in served {
        let want = direct_series(&ckpt, traj_seed, sample_seed, 40.0);
        assert!(
            !want.is_empty() && !want[0].is_empty(),
            "empty direct series"
        );
        assert_eq!(
            resp.series.series, want,
            "batched response diverges from direct generate_series \
             (traj_seed {traj_seed}, sample_seed {sample_seed})"
        );
    }
}
