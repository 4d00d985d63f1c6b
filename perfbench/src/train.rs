//! `train`: a closed loop of `GenDt::train_step` at the paper's shapes on
//! Dataset A, with the default two shards and the interpreted tape. The
//! only workload with backward, Adam and the discriminator; the serving
//! layers are idle.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Args, Report};
use gendt::{ArMode, CarryState, GenDt, GenDtCfg, StepTrace};
use gendt_data::{dataset_a, extract, windows, BuildCfg, ContextCfg, Kpi, Window};
use gendt_nn::{Adam, Graph, Matrix, NodeId, Op, ParamStore, Rng};
use std::time::Instant;

/// Warm-up steps in each set-up.
const WARMUP: usize = 2;
/// Steps replayed at one thread to check the loss trace bitwise.
const REPLAY: usize = 4;
/// The MSE check averages the teacher-forced steps among timed steps
/// `CHECK_AT - TAIL .. CHECK_AT`: a fixed place in training, so the check
/// does not move with step speed. Free-running steps are reported, not
/// gated: at the paper's shapes some of them spike by orders of
/// magnitude before training recovers.
const CHECK_AT: usize = 100;
const TAIL: usize = 20;
/// Bound on that MSE: targets are normalized into [-1, 1], so outputs that
/// stay in the KPI range cannot do worse than 4; above it the model's
/// outputs have blown up. Most seeds read 0.05-0.3, but training at the
/// paper's shapes degrades on some (seed 9: 1.01, seed 204: 1.65), which
/// the rows report and this bound does not gate.
const MSE_BOUND: f32 = 4.0;
/// Steps whose allocations are counted at one thread.
const ALLOC_STEPS: usize = 4;

/// The paper's shapes: H = 100, L = 50, Δt = 5, λ = 0.1, at most 8 cells.
pub fn paper_cfg(seed: u64) -> GenDtCfg {
    let mut cfg = GenDtCfg::paper(Kpi::DATASET_A.len(), seed);
    cfg.window.max_cells = 8;
    cfg
}

fn build_pool(seed: u64, cfg: &GenDtCfg) -> Vec<Window> {
    let ds = dataset_a(&BuildCfg::quick(seed));
    let ctx_cfg = ContextCfg {
        max_cells: cfg.window.max_cells,
        ..ContextCfg::default()
    };
    let mut pool = Vec::new();
    for run in &ds.runs {
        let ctx = extract(&ds.world, &ds.deployment, &run.traj, &ctx_cfg);
        pool.extend(windows(run, &ctx, &Kpi::DATASET_A, &cfg.training_window()));
    }
    pool
}

fn bits(t: &StepTrace) -> [u32; 4] {
    [t.mse, t.gan_g, t.gan_d, t.sigma_mean].map(f32::to_bits)
}

pub fn run(args: &Args, process_start: Instant, stamp: &str) -> Report {
    let mut report = Report::default();
    let cfg = paper_cfg(args.seed);
    let threads = gendt_nn::num_threads();

    // Set-up: dataset, pool, model, warm-up steps. The first one, timed
    // from process start, is measured; it is repeated after the checks.
    let setup = || {
        let t = Instant::now();
        let pool = build_pool(args.seed, &cfg);
        let pool_build = t.elapsed().as_secs_f64();
        let mut model = GenDt::new(cfg.clone());
        for _ in 0..WARMUP {
            model.train_step(&pool);
        }
        (pool, model, pool_build)
    };
    let (pool, mut model, first_pool_build) = setup();
    let first = process_start.elapsed().as_secs_f64();
    let mut pool_build = vec![first_pool_build];

    // Timed phase: the real step, closed loop. Traced runs give it part
    // of the time and spend the rest re-composing steps from their calls.
    let real_share = if args.trace { 0.4 } else { 1.0 };
    let (cpu0, steal0) = (crate::cpu_seconds(), crate::steal_seconds());
    let (step_ms, wall) = timed_steps(&mut model, &pool, args.seconds * real_share);
    let trained = (cfg.batch_size * step_ms.len()) as f64;
    let cpu_ms_per_window = (crate::cpu_seconds() - cpu0) * 1e3 / trained;
    report.row(
        "steal_share",
        (crate::steal_seconds() - steal0) / (wall * crate::nproc() as f64),
        "fraction",
    );
    let real_median = median(&step_ms);
    let windows_per_s = trained / wall;

    if args.trace {
        let mut tracer = Tracer::new();
        let split = recompose(
            &mut model,
            &pool,
            args.seconds * (1.0 - real_share),
            &mut tracer,
        );
        let parts = split.gen_fwd + split.disc_fwd + split.backward + split.optimizer;
        report.metric("core.generator_forward_ms", split.gen_fwd);
        report.metric("core.discriminator_forward_ms", split.disc_fwd);
        report.metric("nn.backward_ms", split.backward);
        report.metric("nn.optimizer_ms", split.optimizer);
        report.metric("core.step_other_ms", real_median - parts);
        report.metric("nn.gflop_per_step", split.gflop);
        report.metric("nn.gflops", split.gflop / (real_median / 1e3));
        report.metric("unattributed_ms", split.unattributed);
        report.metric("trace_overhead_pct", split.overhead_pct);
        report.row("recomposed_step_ms", split.step, "ms");
        report.row("recomposed_steps", split.steps as f64, "count");

        // Allocations per real step, counted on this thread with the nn
        // pool at one thread so both shards run here.
        gendt_nn::set_num_threads(1);
        let (mut allocs, mut bytes) = (0u64, 0u64);
        for _ in 0..ALLOC_STEPS {
            let before = alloc_counter::snapshot();
            model.train_step(&pool);
            let d = alloc_counter::snapshot().since(before);
            allocs += d.allocs;
            bytes += d.bytes;
        }
        gendt_nn::set_num_threads(threads);
        report.metric("nn.allocs_per_step", allocs as f64 / ALLOC_STEPS as f64);
        report.metric(
            "nn.alloc_mb_per_step",
            bytes as f64 / ALLOC_STEPS as f64 / (1024.0 * 1024.0),
        );
        crate::write_trace(&args.workload, &tracer, stamp);
    } else {
        report.metric("peak_rss_mb", crate::peak_rss_mb());
        report.metric("cpu_ms_per_window", cpu_ms_per_window);
    }
    report.row("step_ms_p50", real_median, "ms");
    report.row("step_ms_p95", percentile(&step_ms, 0.95), "ms");
    report.row("windows_per_s", windows_per_s, "windows/s");
    report.row("steps", step_ms.len() as f64, "count");
    report.row(
        "p95_supported",
        f64::from(u8::from(crate::stats::supports(step_ms.len(), 0.95))),
        "bool",
    );
    report.row("threads", threads as f64, "count");
    report.attempted = step_ms.len() as u64;

    // Output checks, outside the timed phases.
    let finite = model
        .trace
        .iter()
        .all(|t| t.mse.is_finite() && t.gan_g.is_finite() && t.gan_d.is_finite());
    report.check("every loss is finite", finite);
    let end = WARMUP + step_ms.len().min(CHECK_AT);
    let tail: Vec<(usize, f32)> = (end.saturating_sub(TAIL)..end)
        .map(|i| (i, model.trace[i].mse))
        .collect();
    let teacher: Vec<f64> = tail
        .iter()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, m)| f64::from(*m))
        .collect();
    let free: Vec<f64> = tail
        .iter()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, m)| f64::from(*m))
        .collect();
    let tf_mse = (teacher.iter().sum::<f64>() / teacher.len().max(1) as f64) as f32;
    report.row("teacher_forced_mse", f64::from(tf_mse), "mse");
    report.row("free_running_mse_p50", median(&free), "mse");
    report.row(
        "free_running_mse_max",
        free.iter().copied().fold(0.0, f64::max),
        "mse",
    );
    report.check(
        format!(
            "teacher-forced MSE of timed steps {}..{CHECK_AT} at most {MSE_BOUND}",
            CHECK_AT - TAIL
        ),
        tf_mse <= MSE_BOUND,
    );
    // The same steps replayed at one thread: the loss trace must repeat
    // bitwise (training is thread-count invariant). Reported, not gated
    // on the step count, since the first steps are always replayed.
    gendt_nn::set_num_threads(1);
    let mut replay = GenDt::new(cfg.clone());
    let n = (WARMUP + REPLAY).min(model.trace.len());
    for _ in 0..n {
        replay.train_step(&pool);
    }
    gendt_nn::set_num_threads(threads);
    let bitwise = replay.trace[..n]
        .iter()
        .zip(&model.trace[..n])
        .all(|(a, b)| bits(a) == bits(b));
    report.row("loss_trace_bitwise", f64::from(u8::from(bitwise)), "bool");
    report.check("loss trace repeats bitwise at one thread", bitwise);

    let setup_s = crate::setup_median(first, setup, |(_, _, build)| pool_build.push(build));
    report.metric("setup_s", setup_s);
    report.metric("data.pool_build_s", median(&pool_build));
    report
}

/// Run real steps for `seconds`; per-step milliseconds and the wall time.
fn timed_steps(model: &mut GenDt, pool: &[Window], seconds: f64) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let mut ms = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        std::hint::black_box(model.train_step(pool));
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (ms, start.elapsed().as_secs_f64())
}

/// Per-step medians of the re-composed, traced steps.
struct Split {
    gen_fwd: f64,
    disc_fwd: f64,
    backward: f64,
    optimizer: f64,
    /// Step time outside the four calls (batch assembly, loss nodes,
    /// gradient reduction).
    unattributed: f64,
    step: f64,
    gflop: f64,
    overhead_pct: f64,
    steps: usize,
}

/// Re-compose `train_step` from the public calls it makes — one shard at
/// a time on this thread, with the same batch sampling, shard split,
/// shard RNG streams and teacher-forced/free-running cadence — for
/// `seconds`. Even steps are traced, odd steps run the same calls
/// untraced; the ratio of their medians is the tracing overhead.
fn recompose(model: &mut GenDt, pool: &[Window], seconds: f64, tracer: &mut Tracer) -> Split {
    let cfg = model.cfg().clone();
    let mut opt_g = Adam::new(cfg.lr_g);
    let mut opt_d = Adam::new(cfg.lr_d);
    let mut shard_grads: Vec<ParamStore> = Vec::new();
    let mut per_name: [Vec<f64>; 5] = Default::default();
    let (mut traced_ms, mut plain_ms, mut flops) = (Vec::new(), Vec::new(), Vec::new());
    // One untraced step first, so both optimizers hold their moments.
    recomposed_step(model, &mut opt_g, &mut opt_d, &mut shard_grads, pool, None);
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < seconds || traced_ms.len() < 2 {
        let t = Instant::now();
        if i.is_multiple_of(2) {
            let root = tracer.push("core.train_step", (tracer.now(), 0.0), None, i);
            let f = recomposed_step(
                model,
                &mut opt_g,
                &mut opt_d,
                &mut shard_grads,
                pool,
                Some((tracer, root, i)),
            );
            tracer.set_end(root, tracer.now());
            let by = tracer.self_by_name(root);
            for (slot, name) in per_name.iter_mut().zip([
                "core.generator_forward",
                "core.discriminator_forward",
                "nn.backward",
                "nn.optimizer",
                "core.train_step",
            ]) {
                slot.push(by.get(name).copied().unwrap_or(0.0) * 1e3);
            }
            flops.push(f);
            traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        } else {
            recomposed_step(model, &mut opt_g, &mut opt_d, &mut shard_grads, pool, None);
            plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        i += 1;
    }
    let [gen_fwd, disc_fwd, backward, optimizer, unattributed] = per_name.map(|v| median(&v));
    Split {
        gen_fwd,
        disc_fwd,
        backward,
        optimizer,
        unattributed,
        step: median(&traced_ms),
        gflop: flops.iter().sum::<f64>() / flops.len() as f64 / 1e9,
        overhead_pct: (median(&traced_ms) / median(&plain_ms) - 1.0) * 100.0,
        steps: traced_ms.len() + plain_ms.len(),
    }
}

/// Matrix-product FLOPs of a recorded graph: `2·m·k·n` per forward
/// product and the same again for each operand that takes a gradient.
fn matmul_flops(g: &Graph) -> f64 {
    let mut total = 0.0;
    for id in g.node_ids() {
        if let Op::MatMul(a, b) = g.op(id) {
            let (va, vb) = (g.value(*a), g.value(*b));
            let f = 2.0 * (va.rows * va.cols * vb.cols) as f64;
            let grads = [*a, *b].iter().filter(|&&n| g.node_needs_grad(n)).count();
            total += f * (1 + grads) as f64;
        }
    }
    total
}

/// When tracing: the tracer, the step's root span and the step number.
type Tracing<'a> = Option<(&'a mut Tracer, usize, u64)>;

/// Time `f` as a child span of the step when tracing.
fn timed<T>(tr: &mut Tracing, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some((tracer, root, req)) => tracer.time(name, Some(*root), *req, f),
        None => f(),
    }
}

/// One training step from public calls; returns its matmul FLOPs.
fn recomposed_step(
    model: &mut GenDt,
    opt_g: &mut Adam,
    opt_d: &mut Adam,
    shard_grads: &mut Vec<ParamStore>,
    pool: &[Window],
    mut tr: Tracing,
) -> f64 {
    let cfg = model.cfg().clone();
    let bsz = cfg.batch_size.min(pool.len());
    let picks: Vec<usize> = (0..bsz)
        .map(|_| model.rng_mut().gen_range(pool.len()))
        .collect();
    let batch: Vec<&Window> = picks.iter().map(|&i| &pool[i]).collect();
    let l = batch[0].env.len();
    let (n_ch, m) = (cfg.n_ch, cfg.window.ar_context);
    let real_steps: Vec<Matrix> = (0..l)
        .map(|t| {
            let mut mtx = Matrix::zeros(bsz, n_ch);
            for (bi, w) in batch.iter().enumerate() {
                for ch in 0..n_ch {
                    mtx.data[bi * n_ch + ch] = w.targets[ch][t];
                }
            }
            mtx
        })
        .collect();
    let n_shards = cfg.train_shards.clamp(1, bsz);
    let (base, rem) = (bsz / n_shards, bsz % n_shards);
    let mut ranges = Vec::with_capacity(n_shards);
    let mut start = 0;
    for s in 0..n_shards {
        let len = base + usize::from(s < rem);
        ranges.push(start..start + len);
        start += len;
    }
    let step_seed = model.rng_mut().next_u64();
    let ar_mode = if model.trace.len().is_multiple_of(2) {
        ArMode::TeacherForced
    } else {
        ArMode::FreeRunning
    };
    model.generator.store.zero_grad();
    model.discriminator.store.zero_grad();
    while shard_grads.len() < n_shards {
        shard_grads.push(model.generator.store.clone());
    }

    let mut flops = 0.0;
    let (mut mse, mut gan_g) = (0.0f32, 0.0f32);
    let mut fakes: Vec<Vec<Matrix>> = Vec::new();
    let mut ctxs: Vec<Vec<Matrix>> = Vec::new();
    for (s, range) in ranges.iter().enumerate() {
        let shard = &batch[range.clone()];
        let bs_s = shard.len();
        let w_s = bs_s as f32 / bsz as f32;
        let mut rng =
            Rng::seed_from(step_seed ^ (s as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut carry = CarryState::zeros(&model.generator.cfg, bs_s);
        for (bi, w) in shard.iter().enumerate() {
            for ch in 0..n_ch {
                for k in 0..m {
                    carry.ar_tail.data[bi * n_ch * m + ch * m + k] = w.ar_seed[ch][k];
                }
            }
        }
        let mut g = Graph::new();
        let fwd = timed(&mut tr, "core.generator_forward", || {
            model
                .generator
                .forward(&mut g, shard, &carry, ar_mode, true, &mut rng)
        });
        let mut terms: Vec<(NodeId, f32)> = Vec::with_capacity(l);
        for (t, &out) in fwd.outputs.iter().enumerate() {
            let rows = &real_steps[t].data[range.start * n_ch..range.end * n_ch];
            let target = g.input(Matrix::from_vec(bs_s, n_ch, rows.to_vec()));
            let mse_t = g.mse_loss(out, target);
            terms.push((mse_t, 1.0 / l as f32));
        }
        let mse_node = g.weighted_sum(terms);
        let loss = if cfg.ablation.gan_loss {
            let logit = timed(&mut tr, "core.discriminator_forward", || {
                model
                    .discriminator
                    .forward(&mut g, &fwd.outputs, &fwd.h_avg, true)
            });
            let rows = g.value(logit).rows;
            let gan = g.bce_with_logits(logit, Matrix::full(rows, 1, 1.0));
            gan_g += w_s * g.value(gan).data[0];
            g.weighted_sum(vec![(mse_node, w_s), (gan, cfg.lambda_gan * w_s)])
        } else {
            g.weighted_sum(vec![(mse_node, w_s)])
        };
        mse += w_s * g.value(mse_node).data[0];
        flops += matmul_flops(&g);
        let grads = &mut shard_grads[s];
        grads.zero_grad();
        timed(&mut tr, "nn.backward", || g.backward(loss, grads));
        fakes.push(fwd.outputs.iter().map(|&o| g.value(o).clone()).collect());
        ctxs.push(fwd.h_avg.iter().map(|&h| g.value(h).clone()).collect());
    }
    for grads in shard_grads.iter().take(n_shards) {
        model.generator.store.accumulate_grads_from(grads);
    }
    model.generator.store.scrub_non_finite_grads();
    timed(&mut tr, "nn.optimizer", || {
        model.generator.store.clip_grad_norm(cfg.grad_clip);
        opt_g.step(&mut model.generator.store);
    });

    let mut gan_d = 0.0;
    if cfg.ablation.gan_loss {
        let stack = |parts: &[Vec<Matrix>]| -> Vec<Matrix> {
            (0..l)
                .map(|t| {
                    let cols = parts[0][t].cols;
                    let mut full = Matrix::zeros(bsz, cols);
                    for (p, range) in parts.iter().zip(&ranges) {
                        full.data[range.start * cols..range.end * cols].copy_from_slice(&p[t].data);
                    }
                    full
                })
                .collect()
        };
        let (fake_steps, ctx_steps) = (stack(&fakes), stack(&ctxs));
        let mut gd = Graph::new();
        let real: Vec<NodeId> = real_steps.iter().map(|x| gd.input(x.clone())).collect();
        let fake: Vec<NodeId> = fake_steps.into_iter().map(|x| gd.input(x)).collect();
        let ctx: Vec<NodeId> = ctx_steps.into_iter().map(|x| gd.input(x)).collect();
        let disc = &model.discriminator;
        let (logit_r, logit_f) = timed(&mut tr, "core.discriminator_forward", || {
            let r = disc.forward(&mut gd, &real, &ctx, false);
            (r, disc.forward(&mut gd, &fake, &ctx, false))
        });
        let loss_r = gd.bce_with_logits(logit_r, Matrix::full(bsz, 1, 1.0));
        let loss_f = gd.bce_with_logits(logit_f, Matrix::full(bsz, 1, 0.0));
        let loss_d = gd.weighted_sum(vec![(loss_r, 0.5), (loss_f, 0.5)]);
        gan_d = gd.value(loss_d).data[0];
        flops += matmul_flops(&gd);
        let store = &mut model.discriminator.store;
        timed(&mut tr, "nn.backward", || gd.backward(loss_d, store));
        store.scrub_non_finite_grads();
        timed(&mut tr, "nn.optimizer", || {
            store.clip_grad_norm(cfg.grad_clip);
            opt_d.step(store);
        });
    }
    model.trace.push(StepTrace {
        mse,
        gan_g,
        gan_d,
        sigma_mean: 0.0,
    });
    flops
}
