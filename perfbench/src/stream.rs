//! `stream`: a few hundred `/v1/stream` sessions opened during set-up,
//! then open-loop one-window continuations spread over the pool by
//! seeded choice. Same scheduler, batch runner and generator as
//! `generate`, but as many small resumable jobs against server-side
//! state, so per-request costs are a large share: router tunnel, HTTP,
//! session checkout/checkin, chunk encoding, the per-chunk window
//! rebuild and the scheduler's fill wait.

use crate::client::{open_loop, request, saturate, Phase, Status};
use crate::generate::{account, end_to_end, schedules, SHARES};
use crate::serving::{Reference, Spec, Stack, MAX_DURATION_S};
use crate::stats::{median, poisson_schedule};
use crate::trace::Tracer;
use crate::{fail, nproc, out_dir, Args, Report};
use gendt::{generate_series_chunk, generation_windows, GenChunkItem, GenCursor, GeneratedSeries};
use gendt_data::Kpi;
use gendt_nn::Rng;
use gendt_obs::traceid;
use gendt_serve::metrics::ServeMetrics;
use gendt_serve::{Checkout, SessionTable, StreamChunk, StreamTrailer};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Frozen offered rates, continuations per second: about 25% and 60% of
/// `saturated_rps` (85 req/s on 2 vCPUs) when the benchmark was defined,
/// for the same reason as `generate`'s.
pub const LIGHT_RPS: f64 = 22.0;
pub const BUSY_RPS: f64 = 50.0;
/// Sessions held open, in groups sharing one trajectory spec.
const SESSIONS: usize = 160;
const GROUP: usize = 4;
/// Session lengths spread log-uniformly from this to the 4 h cap.
const MIN_DURATION_S: f64 = 20.0 * 60.0;
/// Sessions whose every chunk is kept and compared with one-shot
/// generation.
const CHECKED: usize = 3;

#[derive(Clone, Debug)]
struct Session {
    id: String,
    spec: usize,
    sample_seed: u64,
    next_window: usize,
    total_windows: usize,
    /// Next expected chunk `seq`.
    seq: u64,
    leased: bool,
    kept: Option<Vec<GeneratedSeries>>,
}

struct Pool {
    specs: Vec<Spec>,
    sessions: Vec<Session>,
    rng: Rng,
    /// Every reply so far had contiguous `seq` and a consistent trailer.
    protocol_ok: bool,
}

/// One spec per session group. Stratified like `generate`'s mix: spec
/// `j` is in scenario `j % 5`, and its duration sits in its own slice of
/// the log-uniform range (slices spread over the scenarios by a fixed
/// stride), jittered by the seed within the slice.
fn specs(seed: u64) -> Vec<Spec> {
    let mut rng = Rng::seed_from(seed ^ 0x7374_7265_616d);
    let n = SESSIONS / GROUP;
    (0..n)
        .map(|j| {
            let slice = ((j * 17) % n) as f64 + rng.uniform01();
            let mut spec = Spec::draw(&mut rng, j % Spec::scenario_count(), 1);
            spec.duration_s =
                MIN_DURATION_S * (MAX_DURATION_S / MIN_DURATION_S).powf(slice / n as f64);
            spec
        })
        .collect()
}

/// Parse an NDJSON stream reply: its chunks and the closing trailer.
fn parse(body: &str) -> Option<(Vec<StreamChunk>, StreamTrailer)> {
    let mut lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
    let trailer = serde_json::from_str(lines.pop()?).ok()?;
    let chunks = lines
        .into_iter()
        .map(serde_json::from_str)
        .collect::<Result<Vec<StreamChunk>, _>>()
        .ok()?;
    Some((chunks, trailer))
}

/// Open every session through the router, `nproc` at a time.
fn open_all(stack: &Stack, specs: &[Spec], seed: u64) -> Result<Vec<Session>, String> {
    let checked: Vec<usize> = {
        let mut rng = Rng::seed_from(seed ^ 5);
        (0..CHECKED).map(|_| rng.gen_range(SESSIONS)).collect()
    };
    let slots: Mutex<Vec<Option<Session>>> = Mutex::new(vec![None; SESSIONS]);
    let errors = Mutex::new(Vec::new());
    let threads = nproc();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (slots, errors, checked) = (&slots, &errors, &checked);
            scope.spawn(move || {
                for i in (t..SESSIONS).step_by(threads) {
                    let spec = i / GROUP;
                    let sample_seed = seed.wrapping_mul(1000).wrapping_add(i as u64);
                    let opened = request(
                        &stack.front,
                        "POST",
                        "/v1/stream",
                        &[],
                        &specs[spec].open_body(sample_seed),
                    )
                    .and_then(|r| parse(&r.body).ok_or(format!("bad open reply {}", r.status)));
                    match opened {
                        Ok((chunks, tr)) if tr.reason == "paused" && chunks.len() == 1 => {
                            let kept = checked.contains(&i).then(|| vec![chunks[0].series.clone()]);
                            slots.lock().expect("slot lock")[i] = Some(Session {
                                id: tr.session,
                                spec,
                                sample_seed,
                                next_window: tr.next_window,
                                total_windows: tr.total_windows,
                                seq: 1,
                                leased: false,
                                kept,
                            });
                        }
                        Ok((_, tr)) => errors
                            .lock()
                            .expect("error lock")
                            .push(format!("open ended {:?}", tr.reason)),
                        Err(e) => errors.lock().expect("error lock").push(e),
                    }
                }
            });
        }
    });
    if let Some(e) = errors.into_inner().expect("error lock").first() {
        return Err(format!("opening sessions: {e}"));
    }
    Ok(slots
        .into_inner()
        .expect("slot lock")
        .into_iter()
        .flatten()
        .collect())
}

/// Lease a session for request `idx`: a seeded draw, moving on past
/// sessions already in flight or within one window of their end, so no
/// session completes during a timed phase.
fn lease(pool: &Mutex<Pool>) -> Option<usize> {
    let mut p = pool.lock().expect("pool lock");
    let n = p.sessions.len();
    let first = p.rng.gen_range(n);
    let pick = (0..n).map(|k| (first + k) % n).find(|&i| {
        !p.sessions[i].leased && p.sessions[i].next_window + 2 <= p.sessions[i].total_windows
    })?;
    p.sessions[pick].leased = true;
    Some(pick)
}

/// One one-window continuation of a leased session against `addr`.
fn continue_one(pool: &Mutex<Pool>, addr: &str, trace: Option<u64>) -> Status {
    let Some(i) = lease(pool) else {
        return Status::Failed;
    };
    let (id, seq) = {
        let p = pool.lock().expect("pool lock");
        (p.sessions[i].id.clone(), p.sessions[i].seq)
    };
    let hdr = trace.map(traceid::format_id);
    let headers: Vec<(&str, &str)> = hdr
        .as_deref()
        .map(|v| vec![(traceid::TRACE_HEADER, v)])
        .unwrap_or_default();
    let body = format!(
        "{{\"session\":{},\"max_windows\":1}}",
        serde_json::to_string(&id).expect("id encodes")
    );
    let reply = request(addr, "POST", "/v1/stream", &headers, &body);
    let mut p = pool.lock().expect("pool lock");
    let status = match reply {
        Ok(r) if r.status == 200 => match parse(&r.body) {
            Some((chunks, tr)) => {
                let s = &mut p.sessions[i];
                let ok = chunks.len() == 1
                    && chunks[0].seq == seq
                    && chunks[0].windows == 1
                    && tr.reason == "paused"
                    && tr.next_window == s.next_window + 1;
                if let (Some(kept), Some(c)) = (s.kept.as_mut(), chunks.into_iter().next()) {
                    kept.push(c.series);
                }
                s.next_window = tr.next_window;
                s.seq += 1;
                p.protocol_ok &= ok;
                if ok {
                    Status::Ok
                } else {
                    Status::Failed
                }
            }
            None => {
                p.protocol_ok = false;
                Status::Failed
            }
        },
        Ok(r) => r.class(),
        Err(_) => Status::Failed,
    };
    p.sessions[i].leased = false;
    status
}

pub fn run(args: &Args, process_start: Instant, stamp: &str) -> Report {
    let mut report = Report::default();
    let specs = specs(args.seed);
    let threads = nproc();
    let dir = out_dir().join(format!("run-{}", std::process::id()));

    // Set-up: checkpoint, worker, router, then every session opened.
    let setup = || {
        let stack = Stack::start(&dir).unwrap_or_else(|e| fail(&e));
        let sessions = open_all(&stack, &specs, args.seed).unwrap_or_else(|e| fail(&e));
        (stack, sessions)
    };
    let (stack, sessions) = setup();
    let first = process_start.elapsed().as_secs_f64();
    report.row("sessions", sessions.len() as f64, "count");
    report.row(
        "session_windows_mean",
        sessions.iter().map(|s| s.total_windows as f64).sum::<f64>() / sessions.len() as f64,
        "windows",
    );
    let pool = Mutex::new(Pool {
        specs: specs.clone(),
        sessions,
        rng: Rng::seed_from(args.seed ^ 6),
        protocol_ok: true,
    });

    let t = args.seconds;
    let c0 = stack.counters();
    if args.trace {
        traced(args, &mut report, &stack, &pool, stamp);
    } else {
        let (light_at, busy_at) = schedules((LIGHT_RPS, BUSY_RPS), t, args.seed);
        let light = open_loop("light", &light_at, threads, &|_| {
            continue_one(&pool, &stack.front, None)
        });
        let busy = open_loop("busy", &busy_at, threads, &|_| {
            continue_one(&pool, &stack.front, None)
        });
        let sat = saturate("saturated", t * SHARES[2], threads, &|_| {
            continue_one(&pool, &stack.front, None)
        });
        account(&mut report, &light, &busy, Some(&sat));
        // One window per continuation.
        let windows = [&light, &busy, &sat].map(|p| p.count(Status::Ok) as f64);
        end_to_end(&mut report, [&light, &busy, &sat], windows);
    }
    let c1 = stack.counters();
    let lost = c1[2] - c0[2];
    report.row("serve.sessions_lost", lost as f64, "count");
    report.check(
        "no session evicted or expired during the timed phases",
        lost == 0,
    );

    // Output checks: contiguous `seq` and consistent trailers on every
    // reply; for the kept sessions, the concatenated chunks equal
    // one-shot generation of the same windows from a fresh cursor.
    let pool = pool.into_inner().expect("pool lock");
    report.check(
        "every chunk seq contiguous and every trailer paused",
        pool.protocol_ok,
    );
    let reference = Reference::load(&stack.dir).unwrap_or_else(|e| fail(&e));
    let mut equal = true;
    let mut checked = 0;
    for s in pool.sessions.iter().filter(|s| s.kept.is_some()) {
        let ctx = reference.context(&pool.specs[s.spec]);
        let mut items = [GenChunkItem {
            ctx: &ctx,
            cursor: GenCursor::fresh(reference.model.cfg(), s.sample_seed),
            max_windows: s.next_window,
        }];
        let one_shot = generate_series_chunk(&reference.model, &Kpi::DATASET_A, &mut items);
        let kept = s.kept.as_ref().expect("filtered on kept");
        let joined: Vec<Vec<f64>> = (0..Kpi::DATASET_A.len())
            .map(|ch| {
                kept.iter()
                    .flat_map(|c| c.series[ch].iter().copied())
                    .collect()
            })
            .collect();
        equal &= one_shot[0].series == joined;
        checked += 1;
    }
    report.row("checked_sessions", f64::from(checked), "count");
    report.check(
        "concatenated stream chunks equal one-shot generation",
        equal && checked > 0,
    );
    stack.stop();
    let setup_s = crate::setup_median(first, setup, |(s, _): (Stack, Vec<Session>)| s.stop());
    report.metric("setup_s", setup_s);
    report
}

/// The traced run: continuations alternate between the router and the
/// worker over the same sessions (and, through the router, with and
/// without a trace id); then the in-process layer timings.
fn traced(args: &Args, report: &mut Report, stack: &Stack, pool: &Mutex<Pool>, stamp: &str) {
    let threads = nproc();
    let n = (LIGHT_RPS * args.seconds * 0.6).round() as usize;
    let at = poisson_schedule(LIGHT_RPS, n, args.seed ^ 1);
    let (hits0, miss0) = stack.cache_stats();
    let c0 = stack.counters();
    let phase: Phase = open_loop("light", &at, threads, &|i| match i % 4 {
        0 => continue_one(pool, &stack.front, Some(traceid::mint())),
        2 => continue_one(pool, &stack.front, None),
        _ => continue_one(pool, &stack.worker, None),
    });
    let (hits1, miss1) = stack.cache_stats();
    let c1 = stack.counters();
    report.attempted += phase.samples.len() as u64;
    report.failed += (phase.samples.len() - phase.count(Status::Ok)) as u64;
    let lat = |r: &[usize]| -> Vec<f64> {
        phase
            .samples
            .iter()
            .filter(|s| r.contains(&(s.idx % 4)))
            .map(|s| s.latency_ms())
            .collect()
    };
    let (routed, direct) = (median(&lat(&[0, 2])), median(&lat(&[1, 3])));
    report.row("routed_p50_ms", routed, "ms");
    report.row("direct_p50_ms", direct, "ms");
    report.metric("fleet.tunnel_ms", routed - direct);
    report.metric(
        "trace_overhead_pct",
        (median(&lat(&[0])) / median(&lat(&[2])) - 1.0) * 100.0,
    );
    report.metric(
        "serve.batch_size_mean",
        (c1[1] - c0[1]) as f64 / (c1[0] - c0[0]).max(1) as f64,
    );
    report.metric(
        "serve.cache_hit_ratio",
        (hits1 - hits0) / ((hits1 - hits0) + (miss1 - miss0)).max(1.0),
    );
    report.metric("serve.sessions_lost", (c1[2] - c0[2]) as f64);

    // In-process: one-window chunks on cursors like the pool's, at every
    // batch size up to nproc, and the per-chunk window rebuild.
    let reference = Reference::load(&stack.dir).unwrap_or_else(|e| fail(&e));
    let cfg = reference.model.cfg().clone();
    let p = pool.lock().expect("pool lock");
    let mut rng = Rng::seed_from(args.seed ^ 7);
    let picked: Vec<&Session> = (0..8)
        .map(|_| &p.sessions[rng.gen_range(p.sessions.len())])
        .collect();
    let mut tracer = Tracer::new();
    let ctxs: Vec<_> = picked
        .iter()
        .map(|s| reference.context(&p.specs[s.spec]))
        .collect();
    let mut rebuild_ms = Vec::new();
    for ctx in &ctxs {
        for _ in 0..3 {
            let t0 = tracer.now();
            std::hint::black_box(generation_windows(ctx, cfg.n_ch, &cfg.generation_window()));
            let t1 = tracer.now();
            tracer.push("core.generation_windows", (t0, t1), None, 0);
            rebuild_ms.push((t1 - t0) * 1e3);
        }
    }
    let mut chunk_ms = Vec::new();
    for b in 1..=threads {
        for start in 0..picked.len() {
            let mut items: Vec<GenChunkItem> = (0..b)
                .map(|k| {
                    let j = (start + k) % picked.len();
                    let mut cursor = GenCursor::fresh(&cfg, picked[j].sample_seed);
                    cursor.next_window = picked[j].next_window;
                    GenChunkItem {
                        ctx: &ctxs[j],
                        cursor,
                        max_windows: 1,
                    }
                })
                .collect();
            let t0 = tracer.now();
            std::hint::black_box(generate_series_chunk(
                &reference.model,
                &Kpi::DATASET_A,
                &mut items,
            ));
            let t1 = tracer.now();
            tracer.push("core.generate_series_chunk", (t0, t1), None, b as u64);
            chunk_ms.push((t1 - t0) * 1e3 / b as f64);
        }
    }
    let chunk = median(&chunk_ms);
    report.metric("core.chunk_ms", chunk);
    report.metric("core.generation_windows_ms", median(&rebuild_ms));
    report.metric("serve.stream_other_ms", direct - chunk);
    // Tunnel, chunk and other partition the routed median by definition,
    // so the remainder is 0; it is printed so the split is seen to close.
    report.metric("unattributed_ms", 0.0);
    report.metric("serve.session_us", session_cycle_us(p.sessions.len()));
    drop(p);
    crate::write_trace(&args.workload, &tracer, stamp);
}

/// Median microseconds of the session-table work one continuation does
/// (TTL sweep, checkout, checkin), at the pool's size.
fn session_cycle_us(n: usize) -> f64 {
    let table: SessionTable<u64> = SessionTable::new(
        4096,
        Duration::from_secs(60),
        Arc::new(ServeMetrics::new(8)),
    );
    let ids: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
    for (i, id) in ids.iter().enumerate() {
        table.open(id.clone(), i as u64);
    }
    let mut us = Vec::new();
    for k in 0..2000 {
        let id = &ids[(k * 7919) % n];
        let t = Instant::now();
        table.sweep();
        let Checkout::Session(v) = table.checkout(id) else {
            fail("session table lost a session");
        };
        table.checkin(id, v);
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}
