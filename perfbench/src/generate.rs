//! `generate`: open-loop `POST /v1/generate` through the router, mixing
//! all five scenarios and one to a dozen windows, over a spec pool
//! larger than the worker's 128-entry context cache. Forward generation
//! over many windows dominates each request, so generation-compute and
//! batching changes show here while per-request overheads are a small
//! share.

use crate::client::{open_loop, request, saturate, Phase, Sample, Status};
use crate::serving::{Reference, Spec, Stack, MODEL};
use crate::stats::{median, percentile, poisson_schedule};
use crate::trace::Tracer;
use crate::{fail, nproc, out_dir, Args, Report};
use gendt::{generate_series_batch, GenBatchItem};
use gendt_data::Kpi;
use gendt_nn::Rng;
use gendt_obs::{flightrec, traceid};
use gendt_serve::GenerateResponse;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Frozen offered rates, requests per second: about 25% and 60% of
/// `saturated_rps` (24.5 req/s on 2 vCPUs) when the benchmark was
/// defined. Not 75%: with 10-25% of the CPU stolen by the host, a
/// 75% rate tips into overload and the busy p95 runs away.
pub const LIGHT_RPS: f64 = 6.0;
pub const BUSY_RPS: f64 = 15.0;
/// Distinct trajectory specs requests draw from; more than the worker's
/// 128 context-cache entries, so some requests extract on a miss.
const POOL: usize = 180;
/// Longest request, in generation windows.
const MAX_WINDOWS: usize = 12;
/// A busy phase holds at least this many requests, so ten or more lie
/// beyond its 95th percentile.
const BUSY_MIN: usize = 200;
/// Light-phase responses compared bitwise with in-process generation.
const CHECKED: usize = 8;
/// Shares of `--seconds` for the light, busy and saturation phases.
/// At 30 s the light phase of `generate` holds exactly one block of
/// sixty requests, so every run's light median covers the same work.
pub const SHARES: [f64; 3] = [1.0 / 3.0, 0.47, 0.2];

/// Light and busy Poisson schedules for a run of `seconds`.
pub fn schedules((light, busy): (f64, f64), seconds: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let light_n = ((light * seconds * SHARES[0]).round() as usize).max(20);
    let busy_n = ((busy * seconds * SHARES[1]).round() as usize).max(BUSY_MIN);
    (
        poisson_schedule(light, light_n, seed ^ 1),
        poisson_schedule(busy, busy_n, seed ^ 2),
    )
}

/// Request mix: a spec pool and per-request draws, all from the seed.
/// The work is stratified: spec `i` asks for `1 + i % 12` windows in
/// scenario `(i / 12) % 5`, and every run of sixty consecutive requests
/// asks for each (length, scenario) pair once, in a seeded order. What
/// the seed changes is the trajectories, samples and arrival times, not
/// how much work a run holds.
struct Mix {
    specs: Vec<Spec>,
    seed: u64,
}

/// (length, scenario) pairs; each appears `POOL / PAIRS` times in the pool.
const PAIRS: usize = MAX_WINDOWS * 5;

impl Mix {
    fn new(seed: u64) -> Mix {
        let mut rng = Rng::seed_from(seed ^ 0x6765_6e65_7261_7465);
        let specs = (0..POOL)
            .map(|i| Spec::draw(&mut rng, (i / MAX_WINDOWS) % 5, 1 + i % MAX_WINDOWS))
            .collect();
        Mix { specs, seed }
    }

    fn rng(&self, phase: u64, n: usize) -> Rng {
        Rng::seed_from(self.seed ^ (phase << 48) ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Spec index and sample seed of request `idx` in phase `phase`.
    fn request(&self, phase: u64, idx: usize) -> (usize, u64) {
        let mut order: Vec<usize> = (0..PAIRS).collect();
        let mut block = self.rng(phase | 1 << 15, idx / PAIRS);
        for k in (1..PAIRS).rev() {
            order.swap(k, block.gen_range(k + 1));
        }
        let mut rng = self.rng(phase, idx);
        let spec = order[idx % PAIRS] + PAIRS * rng.gen_range(POOL / PAIRS);
        (spec, rng.next_u64() % 1_000_000)
    }
}

/// Bodies kept for the output check, with the spec and seed sent.
type Kept = Mutex<Vec<(usize, u64, String)>>;

/// Send one request (spec index, sample seed); keep the body if asked.
fn send(
    stack: &Stack,
    mix: &Mix,
    (spec, sample_seed): (usize, u64),
    trace: Option<u64>,
    kept: Option<&Kept>,
) -> Status {
    let id = trace.map(traceid::format_id);
    let headers: Vec<(&str, &str)> = id
        .as_deref()
        .map(|v| vec![(traceid::TRACE_HEADER, v)])
        .unwrap_or_default();
    match request(
        &stack.front,
        "POST",
        "/v1/generate",
        &headers,
        &mix.specs[spec].generate_body(sample_seed),
    ) {
        Ok(reply) => {
            if let Some(kept) = kept {
                kept.lock()
                    .expect("body lock")
                    .push((spec, sample_seed, reply.body.clone()));
            }
            reply.class()
        }
        Err(_) => Status::Failed,
    }
}

fn phase_rows(report: &mut Report, phase: &Phase) {
    let n = phase.name;
    report.row(format!("{n}.sent"), phase.samples.len() as f64, "count");
    report.row(format!("{n}.ok"), phase.count(Status::Ok) as f64, "count");
    report.row(
        format!("{n}.refused"),
        phase.count(Status::Refused) as f64,
        "count",
    );
    report.row(
        format!("{n}.failed"),
        phase.count(Status::Failed) as f64,
        "count",
    );
    report.row(
        format!("{n}.send_lag_ms_p95"),
        percentile(&phase.send_lag_ms(), 0.95),
        "ms",
    );
    report.row(format!("{n}.cpu_s"), phase.cpu_s, "s");
    report.row(
        format!("{n}.steal_share"),
        phase.steal_s / (phase.wall * crate::nproc() as f64),
        "fraction",
    );
}

/// Account every phase's requests and print the workload's named rows.
pub fn account(report: &mut Report, light: &Phase, busy: &Phase, sat: Option<&Phase>) {
    let phases: Vec<&Phase> = [Some(light), Some(busy), sat]
        .into_iter()
        .flatten()
        .collect();
    let (mut sent, mut bad) = (0, 0);
    for p in &phases {
        phase_rows(report, p);
        sent += p.samples.len();
        bad += p.count(Status::Refused) + p.count(Status::Failed);
    }
    report.attempted += sent as u64;
    report.failed += bad as u64;
    report.row("error_ratio", bad as f64 / sent.max(1) as f64, "fraction");
    let (l, b) = (light.latencies_ms(), busy.latencies_ms());
    report.row("light_p50_ms", median(&l), "ms");
    report.row("busy_p50_ms", median(&b), "ms");
    report.row("busy_p95_ms", percentile(&b, 0.95), "ms");
    report.row(
        "busy_p95_supported",
        f64::from(u8::from(crate::stats::supports(b.len(), 0.95))),
        "bool",
    );
    if let Some(sat) = sat {
        report.row(
            "saturated_rps",
            sat.count(Status::Ok) as f64 / sat.wall,
            "req/s",
        );
    }
}

/// End-to-end metrics from the light, busy and saturation phases;
/// `windows[i]` is what phase `i`'s served requests generated.
pub fn end_to_end(report: &mut Report, phases: [&Phase; 3], windows: [f64; 3]) {
    let cpu: f64 = phases.iter().map(|p| p.cpu_s).sum();
    report.metric("peak_rss_mb", crate::peak_rss_mb());
    report.metric("cpu_ms_per_window", cpu * 1e3 / windows.iter().sum::<f64>());
    report.row(
        "saturated_windows_per_s",
        windows[2] / phases[2].wall,
        "windows/s",
    );
}

pub fn run(args: &Args, process_start: Instant, stamp: &str) -> Report {
    let mut report = Report::default();
    let mix = Mix::new(args.seed);
    let threads = nproc();
    let dir = out_dir().join(format!("run-{}", std::process::id()));

    // Set-up: checkpoint, worker, router, then one warm-up request per
    // scenario, outside every timed phase.
    let setup = || {
        let s = Stack::start(&dir).unwrap_or_else(|e| fail(&e));
        for i in 0..Spec::scenario_count() {
            send(&s, &mix, mix.request(100, i), None, None);
        }
        s
    };
    let stack = setup();
    let first = process_start.elapsed().as_secs_f64();

    let t = args.seconds;
    let (light_at, busy_at) = schedules((LIGHT_RPS, BUSY_RPS), t, args.seed);
    let checked: Vec<usize> = {
        let mut rng = Rng::seed_from(args.seed ^ 3);
        (0..CHECKED)
            .map(|_| rng.gen_range(light_at.len()))
            .collect()
    };
    let kept = Kept::default();
    let keep = |idx: usize| checked.contains(&idx).then_some(&kept);

    if args.trace {
        traced(
            args,
            &mut report,
            &stack,
            &mix,
            (&light_at, &busy_at),
            &keep,
            stamp,
        );
    } else {
        let light = open_loop("light", &light_at, threads, &|i| {
            send(&stack, &mix, mix.request(1, i), None, keep(i))
        });
        let busy = open_loop("busy", &busy_at, threads, &|i| {
            send(&stack, &mix, mix.request(2, i), None, None)
        });
        let sat = saturate("saturated", t * SHARES[2], threads, &|i| {
            send(&stack, &mix, mix.request(3, i), None, None)
        });
        account(&mut report, &light, &busy, Some(&sat));
        let served = |p: &Phase, phase: u64| -> f64 {
            p.samples
                .iter()
                .filter(|s| s.status == Status::Ok)
                .map(|s| mix.specs[mix.request(phase, s.idx).0].windows as f64)
                .sum()
        };
        let windows = [served(&light, 1), served(&busy, 2), served(&sat, 3)];
        end_to_end(&mut report, [&light, &busy, &sat], windows);
    }

    // Output check: each kept body is bitwise what in-process batched
    // generation returns for the same checkpoint, spec and seed.
    let reference = Reference::load(&stack.dir).unwrap_or_else(|e| fail(&e));
    let kept = kept.into_inner().expect("body lock");
    let mut equal = !kept.is_empty();
    for (spec, sample_seed, body) in &kept {
        let ctx = reference.context(&mix.specs[*spec]);
        let series = generate_series_batch(
            &reference.model,
            &Kpi::DATASET_A,
            &[GenBatchItem {
                ctx: &ctx,
                seed: *sample_seed,
            }],
        );
        let expected = serde_json::to_string(&GenerateResponse {
            model: MODEL.to_string(),
            series: series.into_iter().next().expect("one series per item"),
        })
        .expect("response encodes");
        equal &= *body == expected;
    }
    report.row("checked_bodies", kept.len() as f64, "count");
    report.check(
        "routed /v1/generate bodies equal in-process generation",
        equal,
    );
    stack.stop();
    report.metric("setup_s", crate::setup_median(first, setup, Stack::stop));
    report
}

/// Which light-phase bodies to keep for the output check.
type Keep<'a> = dyn Fn(usize) -> Option<&'a Kept> + Sync + 'a;

/// Flight records joined by trace id: (router, worker).
type Joined = HashMap<
    u64,
    (
        Option<flightrec::FlightRecord>,
        Option<flightrec::FlightRecord>,
    ),
>;

/// Snapshot the always-on flight recorder and file each record under
/// its trace id; router records are the ones with a forward hop.
fn collect(joined: &Mutex<Joined>) {
    let (records, _) = flightrec::snapshot();
    let mut j = joined.lock().expect("join lock");
    for r in records.into_iter().filter(|r| r.trace != 0) {
        let e = j.entry(r.trace).or_default();
        if r.forward_us > 0 {
            e.0 = Some(r);
        } else {
            e.1 = Some(r);
        }
    }
}

/// The traced run: light and busy phases with benchmark-minted trace
/// ids joined to the router's and worker's flight records, then the
/// in-process layer timings.
fn traced(
    args: &Args,
    report: &mut Report,
    stack: &Stack,
    mix: &Mix,
    (light_at, busy_at): (&[f64], &[f64]),
    keep: &Keep,
    stamp: &str,
) {
    let threads = nproc();
    let ids: Vec<u64> = (0..light_at.len() + busy_at.len())
        .map(|_| traceid::mint())
        .collect();
    let joined = Mutex::new(Joined::new());
    let done = std::sync::atomic::AtomicBool::new(false);
    let (hits0, miss0) = stack.cache_stats();
    let c0 = stack.counters();
    flightrec::clear();
    let (light, busy) = std::thread::scope(|scope| {
        // Poll often enough that the 1024-record ring never evicts a
        // record before it is read.
        scope.spawn(|| {
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                collect(&joined);
                std::thread::sleep(Duration::from_millis(200));
            }
        });
        // Light: requests go in pairs of one spec and seed, the first
        // with a trace id and the second without, so the pairs give the
        // tracing overhead.
        let light = open_loop("light", light_at, threads, &|i| {
            send(
                stack,
                mix,
                mix.request(1, i / 2),
                (i % 2 == 0).then(|| ids[i]),
                keep(i),
            )
        });
        let busy = open_loop("busy", busy_at, threads, &|i| {
            send(
                stack,
                mix,
                mix.request(2, i),
                Some(ids[light_at.len() + i]),
                None,
            )
        });
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        (light, busy)
    });
    collect(&joined);
    let (_, dropped) = flightrec::snapshot();
    let joined = joined.into_inner().expect("join lock");
    let (hits1, miss1) = stack.cache_stats();
    let c1 = stack.counters();
    account(report, &light, &busy, None);

    // One span tree per traced request: client (due → last byte) ⊃
    // router ⊃ forward hop ⊃ worker ⊃ {queue, batch}. The records carry
    // durations only, so each child is centred in its parent.
    let mut tracer = Tracer::new();
    let mut by_phase: [Vec<std::collections::BTreeMap<&'static str, f64>>; 2] = Default::default();
    let mut unjoined = 0;
    for (p, (phase, offset)) in [(&light, 0), (&busy, light_at.len())]
        .into_iter()
        .enumerate()
    {
        for s in phase.samples.iter().filter(|s| s.status == Status::Ok) {
            if p == 0 && s.idx % 2 == 1 {
                continue;
            }
            match joined.get(&ids[offset + s.idx]) {
                Some((Some(router), Some(worker))) => {
                    let root =
                        request_spans(&mut tracer, s, router, worker, (offset + s.idx) as u64);
                    by_phase[p].push(tracer.self_by_name(root));
                }
                _ => unjoined += 1,
            }
        }
    }
    let part = |p: usize, name: &str| -> Vec<f64> {
        by_phase[p]
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0) * 1e3)
            .collect()
    };
    let names = [
        ("client.wire_ms", "client.request"),
        ("fleet.router_ms", "fleet.router"),
        ("fleet.hop_ms", "fleet.forward"),
        ("serve.queue_ms_p50", "serve.queue"),
        ("serve.batch_ms", "serve.batch"),
        ("serve.handler_ms", "serve.request"),
    ];
    let mut sum = 0.0;
    for (metric, span) in names {
        let m = median(&part(0, span));
        sum += m;
        report.metric(metric, m);
    }
    report.metric(
        "serve.queue_ms_p95",
        percentile(&part(1, "serve.queue"), 0.95),
    );
    let lat: HashMap<usize, f64> = light
        .samples
        .iter()
        .map(|s| (s.idx, s.latency_ms()))
        .collect();
    let pair_ratio: Vec<f64> = (0..light_at.len() / 2)
        .filter_map(|k| Some(lat.get(&(2 * k))? / lat.get(&(2 * k + 1))?))
        .filter(|r| r.is_finite())
        .collect();
    let traced_light: Vec<f64> = light
        .samples
        .iter()
        .filter(|s| s.idx % 2 == 0)
        .map(Sample::latency_ms)
        .collect();
    report.metric("unattributed_ms", median(&traced_light) - sum);
    report.metric("trace_overhead_pct", (median(&pair_ratio) - 1.0) * 100.0);
    report.metric(
        "serve.batch_size_mean",
        (c1[1] - c0[1]) as f64 / (c1[0] - c0[0]).max(1) as f64,
    );
    report.row("serve.batches", (c1[0] - c0[0]) as f64, "count");
    report.metric(
        "serve.cache_hit_ratio",
        (hits1 - hits0) / ((hits1 - hits0) + (miss1 - miss0)).max(1.0),
    );
    report.metric("serve.sessions_lost", (c1[2] - c0[2]) as f64);
    report.row("traced_requests_unjoined", f64::from(unjoined), "count");
    report.row("flightrec_dropped", dropped as f64, "count");

    // In-process layer timings on the workload's own specs.
    let reference = Reference::load(&stack.dir).unwrap_or_else(|e| fail(&e));
    let mut distinct: Vec<usize> = (0..light_at.len())
        .map(|i| mix.request(1, i / 2).0)
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.truncate(48);
    let mut resolve_ms = Vec::new();
    let mut ctxs = Vec::new();
    for &i in &distinct {
        let t0 = tracer.now();
        ctxs.push(reference.context(&mix.specs[i]));
        let t1 = tracer.now();
        tracer.push("data.resolve", (t0, t1), None, 0);
        resolve_ms.push((t1 - t0) * 1e3);
    }
    report.metric("data.resolve_ms", median(&resolve_ms));
    // Per window-row: batched generation over the first specs at every
    // batch size up to nproc.
    let (mut secs, mut rows) = (0.0, 0usize);
    for b in 1..=threads {
        for group in ctxs.iter().take(8 * b).collect::<Vec<_>>().chunks(b) {
            let items: Vec<GenBatchItem> = group
                .iter()
                .enumerate()
                .map(|(k, ctx)| GenBatchItem {
                    ctx,
                    seed: k as u64,
                })
                .collect();
            let t = Instant::now();
            let out = tracer.time("core.generate_series_batch", None, 0, || {
                generate_series_batch(&reference.model, &Kpi::DATASET_A, &items)
            });
            secs += t.elapsed().as_secs_f64();
            rows += out.iter().map(|s| s.len() / 50).sum::<usize>();
        }
    }
    report.metric("core.window_ms", secs * 1e3 / rows.max(1) as f64);
    crate::write_trace(&args.workload, &tracer, stamp);
}

/// Lay out one request's spans from the client sample and its two
/// flight records; returns the root span.
fn request_spans(
    tracer: &mut Tracer,
    s: &Sample,
    router: &flightrec::FlightRecord,
    worker: &flightrec::FlightRecord,
    req: u64,
) -> usize {
    let us = |v: u32| f64::from(v) / 1e6;
    let centred = |outer: (f64, f64), len: f64| {
        let pad = ((outer.1 - outer.0) - len).max(0.0) / 2.0;
        (outer.0 + pad, outer.0 + pad + len)
    };
    let root = tracer.push("client.request", (s.due, s.done), None, req);
    let r = centred((s.sent, s.done), us(router.total_us));
    let router_id = tracer.push("fleet.router", r, Some(root), req);
    let f = centred(r, us(router.forward_us));
    let fwd = tracer.push("fleet.forward", f, Some(router_id), req);
    let w = centred(f, us(worker.total_us));
    let wid = tracer.push("serve.request", w, Some(fwd), req);
    let q = (w.0, w.0 + us(worker.queue_us));
    tracer.push("serve.queue", q, Some(wid), req);
    tracer.push(
        "serve.batch",
        (q.1, q.1 + us(worker.batch_us)),
        Some(wid),
        req,
    );
    root
}
