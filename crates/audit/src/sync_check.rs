//! `sync-check` gate: schedule exploration over the real concurrent
//! state machines in `gendt-serve`, driven by the vendored `interleave`
//! model checker through the `gendt-sync` facade (DESIGN.md §12).
//!
//! Two halves, both mandatory for a green gate:
//!
//! 1. **Invariant zoo** — the actual production types
//!    ([`Scheduler`], [`Registry`], [`RouteCache`], [`ServeMetrics`])
//!    are exercised under thousands of explored thread interleavings,
//!    asserting the invariants the serving path depends on: every
//!    accepted job is answered exactly once, a batch never mixes model
//!    versions across a `/reload`, jobs queued behind a running batch
//!    form the next batch, the idle Condvar wait survives spurious
//!    wakeups, shutdown drains without stranding a reply channel, the
//!    LRU route cache stays linearizable, and `/metrics` rendering races
//!    cleanly with writers. The forward pass is stubbed behind the
//!    [`BatchRunner`] seam so the exploration budget goes to
//!    interleavings, not inference.
//! 2. **Detector fixtures** — deliberately buggy miniatures (lost
//!    notify, name-keyed batching across a reload, ABBA lock inversion,
//!    non-atomic read-modify-write) that each detector must flag, and
//!    whose printed token must reproduce the failure in one replayed
//!    schedule. A gate that only ever says "ok" proves nothing; the
//!    fixtures prove the detectors actually fire.
//!
//! Failures print an `interleave` replay token (`rand:<seed>` /
//! `dfs:<choices>`); feed it back through [`interleave::replay`] with
//! the same config to step the identical schedule again.

use gendt::{GenDt, GenDtCfg, GeneratedSeries};
use gendt_data::context::RunContext;
use gendt_data::Kpi;
use gendt_faults::GendtError;
use gendt_geo::trajectory::{Scenario, TrajectoryCfg};
use gendt_geo::XY;
use gendt_serve::api::InfoResponse;
use gendt_serve::batch::{BatchOut, GenJob};
use gendt_serve::cache::{Route, RouteCache, RouteKey};
use gendt_serve::http::HttpResponse;
use gendt_serve::metrics::ServeMetrics;
use gendt_serve::registry::{ModelEntry, ModelMap, Registry};
use gendt_serve::scheduler::{BatchRunner, SchedCfg, Scheduler, SubmitError};
use gendt_serve::session::{Checkout, SessionTable};
use gendt_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use gendt_sync::{mpsc, thread, Condvar, Mutex};
use interleave::{Config, FailureKind, Report};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// An untrained but fully constructed model entry: real type, minimal
/// weights. The stub runner never executes it, so construction cost is
/// all that matters.
fn test_entry(name: &str, seed: u64) -> Arc<ModelEntry> {
    let mut cfg = GenDtCfg::fast(4, seed);
    cfg.hidden = 4;
    cfg.resgen_hidden = 4;
    cfg.disc_hidden = 4;
    cfg.window.len = 4;
    cfg.window.stride = 4;
    cfg.window.max_cells = 2;
    Arc::new(ModelEntry {
        name: name.to_string(),
        version: 0,
        model: GenDt::new(cfg),
        kpis: Kpi::DATASET_A.to_vec(),
    })
}

fn empty_ctx() -> Arc<RunContext> {
    Arc::new(RunContext::default())
}

/// Harness batch executor: asserts the scheduler's version-homogeneity
/// contract and answers each job with a marker series carrying its
/// sample seed, so submitters can verify they got *their* answer.
struct StubRunner;

impl BatchRunner for StubRunner {
    fn run(&self, jobs: Vec<GenJob>) -> Vec<BatchOut> {
        assert!(
            jobs.iter().all(|j| Arc::ptr_eq(&j.entry, &jobs[0].entry)),
            "mixed-version batch: jobs from different model instances coalesced"
        );
        jobs.iter()
            .map(|j| BatchOut {
                series: GeneratedSeries {
                    kpis: Vec::new(),
                    series: vec![vec![j.sample_seed as f64]],
                },
                cursor: None,
            })
            .collect()
    }
}

/// Settle every lazily-resolved global *before* exploration so harness
/// bodies are schedule-deterministic from the first schedule onward
/// (DFS enumeration and replay both require it).
fn prewarm() {
    gendt_trace::set_trace(false);
    gendt_trace::set_log_level(0);
    gendt_faults::clear_faults();
    gendt_faults::sleep_if_slow("sync-check.prewarm");
    let _ = gendt_faults::fail_io("sync-check.prewarm");
}

fn report_line(name: &str, r: &Report) -> bool {
    match &r.failure {
        None => {
            println!(
                "  [ok  ] {name:<24} {:>6} schedules, {:>8} steps",
                r.schedules, r.steps_total
            );
            true
        }
        Some(f) => {
            println!("  [FAIL] {name:<24} after {} schedules:", r.schedules);
            for line in f.to_string().lines() {
                println!("         {line}");
            }
            false
        }
    }
}

// ---------------------------------------------------------------------
// Invariant zoo: real production types, green on correct code
// ---------------------------------------------------------------------

fn sched_cfg(max_batch: usize, queue_cap: usize) -> SchedCfg {
    SchedCfg {
        max_batch,
        queue_cap,
    }
}

/// Every accepted job is answered exactly once with its own result.
fn model_sched_exactly_once(entry: &Arc<ModelEntry>, ctx: &Arc<RunContext>) -> Report {
    let cfg = Config::random(2_500, 0x5eed_0001);
    let (entry, ctx) = (entry.clone(), ctx.clone());
    interleave::explore(&cfg, move || {
        let metrics = Arc::new(ServeMetrics::new(4));
        let sched = Arc::new(Scheduler::with_runner(
            sched_cfg(2, 8),
            metrics.clone(),
            Box::new(StubRunner),
        ));
        let worker = {
            let s = sched.clone();
            thread::spawn(move || s.run_worker())
        };
        let subs: Vec<_> = (0..2u64)
            .map(|i| {
                let s = sched.clone();
                let (e, c) = (entry.clone(), ctx.clone());
                thread::spawn(move || {
                    let job = GenJob {
                        entry: e,
                        ctx: c,
                        sample_seed: i,
                        stream: None,
                    };
                    let rx = s
                        .submit(job, None)
                        .expect("queue has room, not shutting down");
                    let out = rx
                        .recv()
                        .expect("accepted job must be answered")
                        .expect("stub batch cannot fail");
                    assert_eq!(
                        out.series.series[0][0], i as f64,
                        "answer routed to wrong submitter"
                    );
                })
            })
            .collect();
        for h in subs {
            h.join().expect("submitter must not panic");
        }
        sched.stop();
        worker.join().expect("worker must exit cleanly");
        let answered = metrics.batched_requests.load(Ordering::Relaxed);
        assert_eq!(answered, 2, "each accepted job through exactly one batch");
    })
}

/// A batch never mixes model versions: jobs pinned to the pre-reload
/// entry and jobs pinned to the post-reload entry must not coalesce,
/// even though the entries share a registry name.
fn model_sched_mixed_version(
    v1: &Arc<ModelEntry>,
    v2: &Arc<ModelEntry>,
    ctx: &Arc<RunContext>,
) -> Report {
    let cfg = Config::random(2_500, 0x5eed_0002);
    let (v1, v2, ctx) = (v1.clone(), v2.clone(), ctx.clone());
    interleave::explore(&cfg, move || {
        let metrics = Arc::new(ServeMetrics::new(4));
        let sched = Arc::new(Scheduler::with_runner(
            sched_cfg(4, 8),
            metrics,
            Box::new(StubRunner), // asserts Arc::ptr_eq homogeneity
        ));
        let worker = {
            let s = sched.clone();
            thread::spawn(move || s.run_worker())
        };
        let entries = [v1.clone(), v1.clone(), v2.clone()];
        let subs: Vec<_> = entries
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let s = sched.clone();
                let c = ctx.clone();
                thread::spawn(move || {
                    let job = GenJob {
                        entry: e,
                        ctx: c,
                        sample_seed: i as u64,
                        stream: None,
                    };
                    let rx = s.submit(job, None).expect("queue has room");
                    rx.recv()
                        .expect("accepted job must be answered")
                        .expect("homogeneous batches cannot fail");
                })
            })
            .collect();
        for h in subs {
            h.join().expect("submitter must not panic");
        }
        sched.stop();
        worker.join().expect("worker must exit cleanly");
    })
}

/// The worker's one Condvar wait, the untimed idle block on an empty
/// queue, must tolerate spurious wakeups: extra injected wakeups change
/// timing, never outcomes.
fn model_sched_spurious(entry: &Arc<ModelEntry>, ctx: &Arc<RunContext>) -> Report {
    let mut cfg = Config::random(1_500, 0x5eed_0003);
    cfg.spurious = 4;
    let (entry, ctx) = (entry.clone(), ctx.clone());
    interleave::explore(&cfg, move || {
        let metrics = Arc::new(ServeMetrics::new(4));
        let sched = Arc::new(Scheduler::with_runner(
            sched_cfg(2, 8),
            metrics,
            Box::new(StubRunner),
        ));
        let worker = {
            let s = sched.clone();
            thread::spawn(move || s.run_worker())
        };
        let (e, c) = (entry.clone(), ctx.clone());
        let s = sched.clone();
        let sub = thread::spawn(move || {
            let job = GenJob {
                entry: e,
                ctx: c,
                sample_seed: 9,
                stream: None,
            };
            let rx = s.submit(job, None).expect("queue has room");
            let out = rx
                .recv()
                .expect("accepted job must be answered")
                .expect("stub batch cannot fail");
            assert_eq!(out.series.series[0][0], 9.0);
        });
        sub.join().expect("submitter must not panic");
        sched.stop();
        worker.join().expect("worker must exit cleanly");
    })
}

/// Stub runner that holds its first batch: from inside batch 1 it
/// signals `started`, then blocks until `release`. It records each
/// batch's sample seeds in run order and answers like [`StubRunner`].
struct GatedStub {
    started: Mutex<Option<mpsc::Sender<()>>>,
    release: Mutex<Option<mpsc::Receiver<()>>>,
    batches: Arc<Mutex<Vec<Vec<u64>>>>,
}

impl BatchRunner for GatedStub {
    fn run(&self, jobs: Vec<GenJob>) -> Vec<BatchOut> {
        self.batches
            .lock()
            .push(jobs.iter().map(|j| j.sample_seed).collect());
        let started = self.started.lock().take();
        if let Some(started) = started {
            let _ = started.send(());
            let release = self.release.lock().take();
            if let Some(release) = release {
                let _ = release.recv();
            }
        }
        StubRunner.run(jobs)
    }
}

/// Work conservation: a job submitted to an idle worker starts its
/// batch with no other submit, and the two jobs submitted while that
/// batch runs are taken together as the next batch, under every
/// explored schedule. Every job is answered exactly once (a second
/// `recv` finds its reply channel closed), and the stub asserts that
/// every batch is homogeneous.
fn model_sched_coalesce(entry: &Arc<ModelEntry>, ctx: &Arc<RunContext>) -> Report {
    let cfg = Config::random(1_500, 0x5eed_0009);
    let (entry, ctx) = (entry.clone(), ctx.clone());
    interleave::explore(&cfg, move || {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let batches = Arc::new(Mutex::new(Vec::new()));
        let metrics = Arc::new(ServeMetrics::new(4));
        let sched = Arc::new(Scheduler::with_runner(
            sched_cfg(4, 8),
            metrics,
            Box::new(GatedStub {
                started: Mutex::new(Some(started_tx)),
                release: Mutex::new(Some(release_rx)),
                batches: batches.clone(),
            }),
        ));
        let worker = {
            let s = sched.clone();
            thread::spawn(move || s.run_worker())
        };
        let submit = |sample_seed| {
            let job = GenJob {
                entry: entry.clone(),
                ctx: ctx.clone(),
                sample_seed,
                stream: None,
            };
            sched.submit(job, None).expect("queue has room")
        };
        let mut rxs = vec![submit(0)];
        started_rx
            .recv()
            .expect("a lone job on an idle worker must start its batch");
        rxs.push(submit(1));
        rxs.push(submit(2));
        release_tx.send(()).expect("batch 1 waits for its release");
        for (seed, rx) in rxs.iter().enumerate() {
            let out = rx
                .recv()
                .expect("accepted job must be answered")
                .expect("stub batch cannot fail");
            assert_eq!(
                out.series.series[0][0], seed as f64,
                "answer routed to wrong submitter"
            );
            assert!(rx.recv().is_err(), "job answered twice");
        }
        sched.stop();
        worker.join().expect("worker must exit cleanly");
        assert_eq!(
            *batches.lock(),
            vec![vec![0], vec![1, 2]],
            "jobs queued behind a running batch must run as one batch"
        );
    })
}

/// Shutdown racing live submitters: every submit either fails fast
/// (`ShuttingDown` / `QueueFull`) or its reply channel resolves — no
/// accepted job is ever stranded by a worker that already exited. This
/// is the exact race the under-lock shutdown check in
/// `Scheduler::submit` closes.
fn model_drain_flush(entry: &Arc<ModelEntry>, ctx: &Arc<RunContext>) -> Report {
    let cfg = Config::random(2_500, 0x5eed_0004);
    let (entry, ctx) = (entry.clone(), ctx.clone());
    interleave::explore(&cfg, move || {
        let metrics = Arc::new(ServeMetrics::new(4));
        let sched = Arc::new(Scheduler::with_runner(
            sched_cfg(2, 8),
            metrics,
            Box::new(StubRunner),
        ));
        let worker = {
            let s = sched.clone();
            thread::spawn(move || s.run_worker())
        };
        let stopper = {
            let s = sched.clone();
            thread::spawn(move || s.stop())
        };
        let subs: Vec<_> = (0..2u64)
            .map(|i| {
                let s = sched.clone();
                let (e, c) = (entry.clone(), ctx.clone());
                thread::spawn(move || {
                    let job = GenJob {
                        entry: e,
                        ctx: c,
                        sample_seed: i,
                        stream: None,
                    };
                    match s.submit(job, None) {
                        Ok(rx) => {
                            // The drain guarantee: accepted ⇒ answered.
                            rx.recv()
                                .expect("accepted job stranded by shutdown")
                                .expect("stub batch cannot fail");
                        }
                        Err(SubmitError::ShuttingDown) | Err(SubmitError::QueueFull) => {}
                    }
                })
            })
            .collect();
        for h in subs {
            h.join().expect("submitter must not panic");
        }
        stopper.join().expect("stopper must not panic");
        worker.join().expect("worker must exit cleanly");
    })
}

/// `/reload` swap racing readers: a name always resolves, and what it
/// resolves to is a complete version — never a torn map.
fn model_registry_swap(v1: &Arc<ModelEntry>, v2: &Arc<ModelEntry>) -> Report {
    let cfg = Config::random(800, 0x5eed_0005);
    let (v1, v2) = (v1.clone(), v2.clone());
    interleave::explore(&cfg, move || {
        let map_of = |e: &Arc<ModelEntry>| -> ModelMap {
            let mut m = ModelMap::new();
            m.insert(e.name.clone(), e.clone());
            m
        };
        let reg = Arc::new(Registry::preloaded(map_of(&v1)));
        let swapper = {
            let r = reg.clone();
            let next = map_of(&v2);
            thread::spawn(move || r.install(next))
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let r = reg.clone();
                let (a, b) = (v1.clone(), v2.clone());
                thread::spawn(move || {
                    let got = r.get("m").expect("name must resolve across the swap");
                    assert!(
                        Arc::ptr_eq(&got, &a) || Arc::ptr_eq(&got, &b),
                        "resolved a model that is neither version"
                    );
                    assert_eq!(r.names(), vec!["m".to_string()]);
                })
            })
            .collect();
        for h in readers {
            h.join().expect("reader must not panic");
        }
        swapper.join().expect("swapper must not panic");
        assert!(Arc::ptr_eq(&reg.get("m").expect("resolves"), &v2));
    })
}

/// A route whose length tells which key's synthesis built it.
fn route_of_len(n: usize) -> Route {
    vec![XY::new(0.0, 0.0); n].into()
}

/// A resolver thread for `k` whose synthesizer builds `route_of_len(n)`
/// and counts its runs in `runs`.
fn spawn_resolver(
    cache: &Arc<RouteCache>,
    k: RouteKey,
    n: usize,
    runs: &Arc<AtomicU64>,
) -> thread::JoinHandle<Route> {
    let (c, runs) = (cache.clone(), runs.clone());
    thread::spawn(move || {
        let got = c
            .resolve(k, None, || {
                // sync: SeqCst tally, read after every resolver joined.
                runs.fetch_add(1, Ordering::SeqCst);
                route_of_len(n)
            })
            .expect("no deadline, no timeout");
        assert_eq!(got.len(), n, "wrong route for key");
        got
    })
}

/// Single-flight LRU resolution of the route cache: concurrent
/// resolvers of one key share one synthesis and one `Arc`,
/// within-capacity entries are never lost, over-capacity keeps exactly
/// `cap` survivors, a waiter gets its flight's route even when eviction
/// races the publish, no flight is stranded, and the hit/miss counters
/// match the observed syntheses.
fn model_cache_linearizes() -> Report {
    let cfg = Config::random(1_500, 0x5eed_0006);
    interleave::explore(&cfg, move || {
        let walk = |seed| {
            let traj = TrajectoryCfg::new(Scenario::Walk, 60.0, XY::new(0.0, 0.0), seed);
            RouteKey::new(&traj)
        };
        let (k1, k2) = (walk(1), walk(2));
        let runs = |c: &Arc<AtomicU64>| c.load(Ordering::SeqCst);

        // Capacity 2, two resolvers of k1 and one of k2: nothing can be
        // evicted, so each key is synthesized exactly once.
        let roomy = Arc::new(RouteCache::new(2));
        let (r1, r2) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let hs = [
            spawn_resolver(&roomy, k1, 1, &r1),
            spawn_resolver(&roomy, k1, 1, &r1),
            spawn_resolver(&roomy, k2, 2, &r2),
        ];
        let got: Vec<_> = hs
            .into_iter()
            .map(|h| h.join().expect("resolver must not panic"))
            .collect();
        assert_eq!(
            (runs(&r1), runs(&r2)),
            (1, 1),
            "a key was synthesized twice"
        );
        assert!(Arc::ptr_eq(&got[0], &got[1]), "one key, two routes");
        assert_eq!(roomy.stats(), (1, 2), "hit/miss counters drifted");
        let probe = Arc::new(AtomicU64::new(0));
        for (k, want) in [(k1, &got[0]), (k2, &got[2])] {
            let again = spawn_resolver(&roomy, k, want.len(), &probe)
                .join()
                .expect("resolver must not panic");
            assert!(Arc::ptr_eq(&again, want), "within-capacity entry lost");
        }
        assert_eq!(runs(&probe), 0, "within-capacity entry synthesized again");

        // Capacity 1: an extractor and a same-key waiter on k1 race a
        // resolver of k2, whose publish can evict k1 before the waiter
        // wakes; the waiter must still get the synthesizer's route.
        let tight = Arc::new(RouteCache::new(1));
        let (r1, r2) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let hs = [
            spawn_resolver(&tight, k1, 1, &r1),
            spawn_resolver(&tight, k1, 1, &r1),
            spawn_resolver(&tight, k2, 2, &r2),
        ];
        let got: Vec<_> = hs
            .into_iter()
            .map(|h| h.join().expect("resolver must not panic"))
            .collect();
        // k1 is synthesized twice only when the second resolver arrived
        // after the first flight ended and k2 had evicted its entry.
        assert!(matches!(runs(&r1), 1 | 2) && runs(&r2) == 1);
        if runs(&r1) == 1 {
            assert!(
                Arc::ptr_eq(&got[0], &got[1]),
                "a waiter got a route other than its flight's"
            );
        }
        let (hits, misses) = tight.stats();
        assert_eq!(misses, runs(&r1) + runs(&r2), "a miss is one synthesis");
        assert_eq!(hits + misses, 3, "every resolve is a hit or a miss");
        assert_eq!(
            tight.resident(),
            1,
            "LRU at capacity 1 must keep exactly one entry"
        );
        // No flight is left behind: both keys resolve again.
        for (k, n) in [(k1, 1), (k2, 2)] {
            spawn_resolver(&tight, k, n, &probe)
                .join()
                .expect("resolver must not panic");
        }
    })
}

/// The stream session table under churn: a continuation checkout
/// racing a rival continuation on the same session and an open that
/// overflows capacity. Invariants of the `/v1/stream` session
/// lifecycle: a checked-out (Busy) session is never evicted out from
/// under its continuation, the carried state is never held by two
/// continuations at once, the freshly opened session always survives
/// its own eviction pass, and the occupancy gauge matches the table.
fn model_session_churn() -> Report {
    let cfg = Config::random(1_200, 0x5eed_0008);
    interleave::explore(&cfg, move || {
        let metrics = Arc::new(ServeMetrics::new(4));
        let table = Arc::new(SessionTable::new(
            2,
            Duration::from_secs(3600),
            metrics.clone(),
        ));
        table.open("s1".to_string(), 11u64);
        table.open("s2".to_string(), 22u64);

        // Two continuations race for s1; at most one may hold the
        // carried state at any instant (the other sees Busy, or gets
        // its turn only after the first checked back in).
        let holders = Arc::new(AtomicU64::new(0));
        let continuations: Vec<_> = (0..2)
            .map(|_| {
                let (t, holders) = (table.clone(), holders.clone());
                thread::spawn(move || match t.checkout("s1") {
                    Checkout::Session(v) => {
                        assert_eq!(v, 11, "carried state swapped under checkout");
                        // sync: SeqCst so the duplication check is a
                        // total order over holder transitions.
                        assert_eq!(
                            holders.fetch_add(1, Ordering::SeqCst),
                            0,
                            "two continuations hold one session's state"
                        );
                        holders.fetch_sub(1, Ordering::SeqCst);
                        assert!(
                            t.checkin("s1", v),
                            "busy session evicted out from under its continuation"
                        );
                    }
                    Checkout::Busy => {}     // rival holds it: legal
                    Checkout::NotFound => {} // evicted while idle: legal
                })
            })
            .collect();
        // ...racing an open that overflows capacity and must evict an
        // idle victim, never a busy slot.
        let opener = {
            let t = table.clone();
            thread::spawn(move || t.open("s3".to_string(), 33u64))
        };
        for h in continuations {
            h.join().expect("continuation must not panic");
        }
        opener.join().expect("opener must not panic");

        assert!(table.len() <= 2, "capacity violated once all slots idle");
        // sync: gauge read after every mutator joined.
        assert_eq!(
            metrics.stream_sessions.load(Ordering::Relaxed),
            table.len() as u64,
            "occupancy gauge drifted from the table"
        );
        match table.checkout("s3") {
            Checkout::Session(v) => assert_eq!(v, 33, "fresh session lost its state"),
            Checkout::Busy => panic!("nobody holds s3, yet checkout saw Busy"),
            Checkout::NotFound => {
                panic!("freshly opened session must survive its own eviction pass")
            }
        }
    })
}

/// `/metrics` rendering racing counter writers and histogram pushes:
/// poison-tolerant locks mean a scrape can never wedge, and the final
/// render reflects every completed observation.
fn model_metrics_scrape() -> Report {
    let cfg = Config::random(300, 0x5eed_0007);
    interleave::explore(&cfg, move || {
        let m = Arc::new(ServeMetrics::new(4));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let m = m.clone();
                thread::spawn(move || {
                    m.http_requests.fetch_add(1, Ordering::Relaxed);
                    m.observe_batch(2);
                    m.observe_latency_ms(1.5);
                })
            })
            .collect();
        let scraper = {
            let m = m.clone();
            thread::spawn(move || {
                // Mid-race scrape: must complete whatever the writers are
                // doing; content is schedule-dependent, liveness is not.
                let _ = m.render(1, 0, 0);
            })
        };
        for h in writers {
            h.join().expect("writer must not panic");
        }
        scraper.join().expect("scraper must not panic");
        let text = m.render(1, 0, 0);
        assert!(text.contains("gendt_serve_http_requests_total 2"));
        assert!(text.contains("gendt_serve_batches_total 2"));
        assert!(text.contains("gendt_serve_batched_requests_total 4"));
        assert!(text.contains("gendt_serve_batch_size_count 2"));
    })
}

/// Bounded-preemption DFS over the submit→batch→reply→stop cycle:
/// exhaustive for small preemption counts, complementing the random
/// models above with systematic coverage of the low-preemption space.
fn model_sched_dfs(entry: &Arc<ModelEntry>, ctx: &Arc<RunContext>) -> Report {
    let cfg = Config::dfs(1_500, 2);
    let (entry, ctx) = (entry.clone(), ctx.clone());
    interleave::explore(&cfg, move || {
        let metrics = Arc::new(ServeMetrics::new(4));
        let sched = Arc::new(Scheduler::with_runner(
            sched_cfg(2, 4),
            metrics,
            Box::new(StubRunner),
        ));
        let worker = {
            let s = sched.clone();
            thread::spawn(move || s.run_worker())
        };
        let job = GenJob {
            entry: entry.clone(),
            ctx: ctx.clone(),
            sample_seed: 3,
            stream: None,
        };
        let rx = sched.submit(job, None).expect("queue has room");
        let out = rx
            .recv()
            .expect("accepted job must be answered")
            .expect("stub batch cannot fail");
        assert_eq!(out.series.series[0][0], 3.0);
        sched.stop();
        worker.join().expect("worker must exit cleanly");
    })
}

// ---------------------------------------------------------------------
// Detector fixtures: seeded bugs every detector must flag and replay
// ---------------------------------------------------------------------

/// Runs a fixture expected to fail with `want`, then replays the printed
/// token and demands the same finding in exactly one schedule.
fn expect_detected<F: Fn() + Clone>(
    name: &str,
    cfg: &Config,
    want: &[FailureKind],
    body: F,
) -> (bool, u64) {
    let report = interleave::explore(cfg, body.clone());
    let explored = report.schedules;
    let Some(failure) = report.failure else {
        println!(
            "  [FAIL] {name:<24} seeded bug NOT detected in {} schedules",
            report.schedules
        );
        return (false, explored);
    };
    if !want.contains(&failure.kind) {
        println!(
            "  [FAIL] {name:<24} detected {:?}, expected one of {want:?}",
            failure.kind
        );
        return (false, explored);
    }
    let token = failure.replay_token();
    let replayed = interleave::replay(cfg, &token, body);
    let reproduced = replayed
        .failure
        .as_ref()
        .is_some_and(|f| f.kind == failure.kind);
    if !reproduced {
        println!(
            "  [FAIL] {name:<24} token {token} did not reproduce {:?}",
            failure.kind
        );
        return (false, explored + replayed.schedules);
    }
    println!(
        "  [ok  ] {name:<24} detected {:?} at schedule #{}, replayed via {token}",
        failure.kind, failure.schedule_index
    );
    (true, explored + replayed.schedules)
}

/// Seeded bug: the flag is set without `notify_one`. A waiter already
/// parked sleeps forever — the lost-wakeup deadlock detector must fire.
fn fixture_lost_notify() -> (bool, u64) {
    let cfg = Config::random(400, 0xbad_0001);
    expect_detected(
        "fixture_lost_notify",
        &cfg,
        &[FailureKind::Deadlock],
        || {
            let state = Arc::new((Mutex::new(false), Condvar::new()));
            let s1 = state.clone();
            let waiter = thread::spawn(move || {
                let (m, cv) = &*s1;
                let mut g = m.lock();
                while !*g {
                    g = cv.wait(g);
                }
            });
            let s2 = state.clone();
            let setter = thread::spawn(move || {
                let (m, _cv) = &*s2;
                *m.lock() = true; // bug: no notify
            });
            let _ = setter.join();
            let _ = waiter.join();
        },
    )
}

/// Seeded bug: a coalescer that groups by registry *name* instead of
/// `Arc` identity. When jobs pinned to both versions of "m" are queued
/// together, they coalesce into one batch and the homogeneity assert
/// fires — exactly the reload hazard the real scheduler avoids by
/// keying on `Arc::ptr_eq`.
fn fixture_mixed_version(v1: &Arc<ModelEntry>, v2: &Arc<ModelEntry>) -> (bool, u64) {
    let cfg = Config::random(400, 0xbad_0002);
    let (v1, v2) = (v1.clone(), v2.clone());
    expect_detected(
        "fixture_mixed_version",
        &cfg,
        &[FailureKind::Panic],
        move || {
            let queue = Arc::new(Mutex::new(VecDeque::<Arc<ModelEntry>>::new()));
            let producers: Vec<_> = [v1.clone(), v2.clone()]
                .into_iter()
                .map(|e| {
                    let q = queue.clone();
                    thread::spawn(move || q.lock().push_back(e))
                })
                .collect();
            let batcher = {
                let q = queue.clone();
                thread::spawn(move || {
                    let mut done = 0;
                    while done < 2 {
                        let mut q = q.lock();
                        let Some(head) = q.pop_front() else {
                            continue; // lock/unlock is a yield point
                        };
                        let mut batch = vec![head];
                        // Bug: same *name* coalesces — versions alias.
                        while q.front().is_some_and(|e| e.name == batch[0].name) {
                            batch.extend(q.pop_front());
                        }
                        drop(q);
                        assert!(
                            batch.iter().all(|e| Arc::ptr_eq(e, &batch[0])),
                            "mixed-version batch formed across a reload"
                        );
                        done += batch.len();
                    }
                })
            };
            for h in producers {
                let _ = h.join();
            }
            let _ = batcher.join();
        },
    )
}

/// Seeded bug: ABBA acquisition order across two threads. The
/// lock-order-graph detector must flag the cycle (or catch the fatal
/// interleaving as a deadlock outright).
fn fixture_lock_inversion() -> (bool, u64) {
    let cfg = Config::random(400, 0xbad_0003);
    expect_detected(
        "fixture_lock_inversion",
        &cfg,
        &[FailureKind::LockOrderCycle, FailureKind::Deadlock],
        || {
            let a = Arc::new(Mutex::new(0u32));
            let b = Arc::new(Mutex::new(0u32));
            let (a1, b1) = (a.clone(), b.clone());
            let h1 = thread::spawn(move || {
                let _ga = a1.lock();
                let _gb = b1.lock();
            });
            let (a2, b2) = (a.clone(), b.clone());
            let h2 = thread::spawn(move || {
                let _gb = b2.lock();
                let _ga = a2.lock();
            });
            let _ = h1.join();
            let _ = h2.join();
        },
    )
}

/// Seeded bug: non-atomic read-modify-write on a shared counter. The
/// vector-clock lost-update detector must flag the overwrite of a value
/// the storing thread never observed.
fn fixture_lost_update() -> (bool, u64) {
    let cfg = Config::random(400, 0xbad_0004);
    expect_detected(
        "fixture_lost_update",
        &cfg,
        &[FailureKind::LostUpdate],
        || {
            let counter = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let c = counter.clone();
                    thread::spawn(move || {
                        let v = c.load(Ordering::SeqCst);
                        c.store(v + 1, Ordering::SeqCst); // bug: not a RMW
                    })
                })
                .collect();
            for h in handles {
                let _ = h.join();
            }
        },
    )
}

// ---------------------------------------------------------------------
// Fleet models: health flaps racing the forwarding path
// ---------------------------------------------------------------------

/// Stub probe/forwarder pair sharing one health switch: worker `a0`
/// answers only while the switch says up; `a1` is always up. The same
/// switch feeds both so the checker can interleave a health transition
/// anywhere inside a forward attempt.
struct FlapNet {
    a0_down: AtomicBool,
}

impl gendt_fleet::Probe for FlapNet {
    fn healthz(&self, addr: &str) -> Result<bool, GendtError> {
        // sync: SeqCst switch read; pairs with the flapper's store and
        // is itself the raced state under exploration.
        Ok(!(addr == "a0" && self.a0_down.load(Ordering::SeqCst)))
    }

    fn info(&self, _addr: &str) -> Result<InfoResponse, GendtError> {
        Ok(InfoResponse {
            models: Vec::new(),
            queue_depth: 0,
            max_batch: 8,
            draining: false,
        })
    }
}

impl gendt_fleet::Forwarder for FlapNet {
    fn forward(
        &self,
        addr: &str,
        _method: &str,
        _path: &str,
        _headers: &[(String, String)],
        _body: Option<&str>,
        _timeout: Duration,
    ) -> Result<HttpResponse, GendtError> {
        // sync: SeqCst switch read; see healthz above.
        if addr == "a0" && self.a0_down.load(Ordering::SeqCst) {
            return Err(GendtError::unavailable("model: a0 is down"));
        }
        Ok(HttpResponse {
            status: 200,
            headers: Vec::new(),
            body: format!("{{\"worker\":\"{addr}\"}}"),
        })
    }
}

fn fleet_body() -> &'static str {
    "{\"model\":\"demo_a\",\"scenario\":\"walk\",\"duration_s\":10.0,\"start_x\":0.0,\
     \"start_y\":0.0,\"traj_seed\":1,\"sample_seed\":2}"
}

/// Health flaps racing request forwarding through the real
/// [`Membership`] + [`gendt_fleet::dispatch_generate`] path: every
/// accepted request gets a definite, typed answer — 200 from a live
/// worker or a retryable 503 envelope — never a strand, never an
/// untyped error, no matter where the flap lands inside the
/// route→forward→evict→retry window.
fn model_fleet_flap_vs_forward() -> Report {
    let cfg = Config::random(700, 0x5eed_0010);
    interleave::explore(&cfg, move || {
        let net = Arc::new(FlapNet {
            a0_down: AtomicBool::new(false),
        });
        let metrics = Arc::new(gendt_fleet::FleetMetrics::new());
        let membership = Arc::new(gendt_fleet::Membership::new(3, metrics.clone()));
        membership.register("w0", "a0");
        membership.register("w1", "a1");

        let flapper = {
            let (net, membership) = (net.clone(), membership.clone());
            thread::spawn(move || {
                // sync: SeqCst switch write; raced against forwards.
                net.a0_down.store(true, Ordering::SeqCst);
                membership.poll_once(net.as_ref());
                net.a0_down.store(false, Ordering::SeqCst);
                membership.poll_once(net.as_ref());
            })
        };
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let (net, membership, metrics) = (net.clone(), membership.clone(), metrics.clone());
                thread::spawn(move || {
                    let routed = gendt_fleet::dispatch_generate(
                        &membership,
                        net.as_ref(),
                        &metrics,
                        "/v1/generate",
                        fleet_body(),
                        None,
                        gendt_sync::time::Instant::now(),
                        Duration::from_millis(50),
                    );
                    match routed.status {
                        200 => assert!(
                            routed.body.contains("\"worker\":\"a"),
                            "200 without a worker body: {}",
                            routed.body
                        ),
                        503 => assert!(
                            routed.body.contains("\"retryable\":true"),
                            "untyped 503: {}",
                            routed.body
                        ),
                        other => panic!("stranded/untyped answer: {other} {}", routed.body),
                    }
                })
            })
            .collect();
        for h in clients {
            h.join().expect("client must not panic");
        }
        flapper.join().expect("flapper must not panic");

        // Quiesced with a0 back up: one more poll restores full
        // membership; eviction is memoryless.
        membership.poll_once(net.as_ref());
        assert_eq!(membership.healthy_count(), 2, "rejoin lost a worker");
        assert!(membership.route("demo_a", "walk").is_some());
    })
}

/// Forward-path eviction ([`Membership::report_failure`]) racing the
/// health poller and a routing reader: the ring never shows a member
/// that was not registered, routing stays definite (Some over a
/// non-empty healthy set, None only if everything is down), and the
/// final poll converges to the probe's truth.
fn model_fleet_evict_vs_poll() -> Report {
    let cfg = Config::random(700, 0x5eed_0011);
    interleave::explore(&cfg, move || {
        let net = Arc::new(FlapNet {
            a0_down: AtomicBool::new(false),
        });
        let metrics = Arc::new(gendt_fleet::FleetMetrics::new());
        let membership = Arc::new(gendt_fleet::Membership::new(5, metrics));
        membership.register("w0", "a0");
        membership.register("w1", "a1");

        let evictor = {
            let m = membership.clone();
            thread::spawn(move || {
                m.report_failure("w0");
            })
        };
        let poller = {
            let (net, m) = (net.clone(), membership.clone());
            thread::spawn(move || {
                m.poll_once(net.as_ref());
            })
        };
        let reader = {
            let m = membership.clone();
            thread::spawn(move || {
                let ring = m.ring();
                for member in ring.members() {
                    assert!(
                        member == "w0" || member == "w1",
                        "ring holds unregistered member {member}"
                    );
                }
                // w1 is never evicted, so routing must stay definite.
                let (_, addr) = m.route("demo_a", "walk").expect("route with w1 healthy");
                assert!(addr == "a0" || addr == "a1");
            })
        };
        for h in [evictor, poller, reader] {
            h.join().expect("fleet thread must not panic");
        }
        // Converge: with the probe reporting both up, one pass restores
        // both members regardless of who won the race above.
        membership.poll_once(net.as_ref());
        assert_eq!(membership.healthy_count(), 2);
        assert_eq!(membership.ring().len(), 2);
    })
}

// ---------------------------------------------------------------------
// Gate entry point
// ---------------------------------------------------------------------

/// Runs the invariant zoo and the detector fixtures; prints one line per
/// model and the explored-schedule totals. Returns `true` when every
/// real-code model is finding-free AND every seeded bug was detected and
/// replayed.
pub fn run() -> bool {
    println!("== sync-check: schedule exploration over serve's concurrent state machines ==");
    prewarm();
    let v1 = test_entry("m", 71);
    let v2 = test_entry("m", 72);
    let ctx = empty_ctx();

    let mut ok = true;
    let mut zoo_schedules = 0u64;
    let mut zoo_steps = 0u64;
    let models: [(&str, Report); 12] = [
        ("sched_exactly_once", model_sched_exactly_once(&v1, &ctx)),
        (
            "sched_mixed_version",
            model_sched_mixed_version(&v1, &v2, &ctx),
        ),
        ("sched_spurious_condvar", model_sched_spurious(&v1, &ctx)),
        ("sched_coalesce", model_sched_coalesce(&v1, &ctx)),
        ("drain_flush", model_drain_flush(&v1, &ctx)),
        ("registry_swap", model_registry_swap(&v1, &v2)),
        ("cache_linearizes", model_cache_linearizes()),
        ("session_churn", model_session_churn()),
        ("metrics_scrape", model_metrics_scrape()),
        ("sched_dfs_bounded", model_sched_dfs(&v1, &ctx)),
        ("fleet_flap_vs_forward", model_fleet_flap_vs_forward()),
        ("fleet_evict_vs_poll", model_fleet_evict_vs_poll()),
    ];
    for (name, report) in &models {
        ok &= report_line(name, report);
        zoo_schedules += report.schedules;
        zoo_steps += report.steps_total;
    }

    println!("  -- detector fixtures (each must be caught and replayed) --");
    let mut fixture_schedules = 0u64;
    for (detected, schedules) in [
        fixture_lost_notify(),
        fixture_mixed_version(&v1, &v2),
        fixture_lock_inversion(),
        fixture_lost_update(),
    ] {
        ok &= detected;
        fixture_schedules += schedules;
    }

    println!(
        "sync-check: {} ({zoo_schedules} schedules / {zoo_steps} steps over real code, \
         {fixture_schedules} over fixtures)",
        if ok { "clean" } else { "FAILED" }
    );
    ok
}
