//! `gendt-audit` CLI: run the verification layer from the command line
//! (and from `scripts/ci.sh`).
//!
//! ```text
//! cargo run --release -p gendt-audit -- gradcheck   # FD-check every Op backward
//! cargo run --release -p gendt-audit -- lint [ROOT] # repo-invariant source lint
//! cargo run --release -p gendt-audit -- verify      # tape-verify zoo + a real training graph
//! cargo run --release -p gendt-audit -- smoke       # sanitized train step + generation
//! cargo run --release -p gendt-audit -- trace-smoke # traced run: bitwise parity + Chrome-trace JSON
//! cargo run --release -p gendt-audit -- plan-parity # compiled plans vs sanitizer-forced tape, bitwise
//! cargo run --release -p gendt-audit -- chaos       # server + trainer under seeded fault schedules
//! cargo run --release -p gendt-audit -- sync-check  # schedule-explore serve's concurrency + detector fixtures
//! cargo run --release -p gendt-audit -- obs-smoke   # fleet trace propagation + federation + flight recorder
//! cargo run --release -p gendt-audit -- stream-smoke # /v1/stream parity, deadline, drain
//! cargo run --release -p gendt-audit -- all         # everything above
//! ```
//!
//! Exit status is nonzero when any check fails, so CI can gate on it.

#![forbid(unsafe_code)]

use gendt_audit::{chaos, gradcheck, lint, obs_smoke, stream_smoke, sync_check, tape, zoo};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Worker mode: obs-smoke spawns a fleet, whose supervisor re-execs
    // the current binary (this one) as its workers.
    if let Some(code) = gendt_fleet::supervisor::maybe_run_worker() {
        return ExitCode::from(code);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let ok = match cmd {
        "gradcheck" => run_gradcheck(),
        "lint" => run_lint(args.get(1).map(String::as_str).unwrap_or(".")),
        "verify" => run_verify(),
        "smoke" => run_smoke(),
        "trace-smoke" => run_trace_smoke(),
        "plan-parity" => run_plan_parity(),
        "chaos" => chaos::run(),
        "sync-check" => sync_check::run(),
        "obs-smoke" => obs_smoke::run(),
        "stream-smoke" => stream_smoke::run(),
        "all" => {
            // Non-short-circuiting: report every failing check at once.
            let l = run_lint(".");
            let g = run_gradcheck();
            let v = run_verify();
            let s = run_smoke();
            let t = run_trace_smoke();
            let p = run_plan_parity();
            let c = chaos::run();
            let y = sync_check::run();
            let o = obs_smoke::run();
            let m = stream_smoke::run();
            l && g && v && s && t && p && c && y && o && m
        }
        other => {
            eprintln!(
                "unknown subcommand `{other}` (expected gradcheck|lint|verify|smoke|trace-smoke|plan-parity|chaos|sync-check|obs-smoke|stream-smoke|all)"
            );
            false
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_gradcheck() -> bool {
    println!("== gradcheck: every Op backward vs central finite differences ==");
    let results = gradcheck::run_all();
    let mut ok = true;
    for r in &results {
        let status = if r.passed { "ok  " } else { "FAIL" };
        println!(
            "  [{status}] {:<24} max_rel_err {:>10.3e}",
            r.name, r.max_rel_err
        );
        if !r.passed {
            println!("         {}", r.detail);
            ok = false;
        }
    }
    // Cross-check: every Op variant recorded by the zoo must map to
    // cases that actually ran.
    let z = zoo::build();
    let ran: Vec<&str> = results.iter().map(|r| r.name).collect();
    for id in z.graph.node_ids() {
        for &case in gradcheck::cases_for(z.graph.op(id)) {
            if !ran.contains(&case) {
                println!(
                    "  [FAIL] case `{case}` (op {}) is not in the registry",
                    z.graph.op(id).name()
                );
                ok = false;
            }
        }
    }
    println!(
        "gradcheck: {} cases, {}",
        results.len(),
        if ok { "all passed" } else { "FAILED" }
    );
    ok
}

fn run_lint(root: &str) -> bool {
    println!("== lint: repo invariants under {root} ==");
    let violations = lint::run(Path::new(root));
    for v in &violations {
        println!("  {v}");
    }
    println!(
        "lint: {}",
        if violations.is_empty() {
            "clean".to_string()
        } else {
            format!("{} violation(s)", violations.len())
        }
    );
    violations.is_empty()
}

fn run_verify() -> bool {
    println!("== verify: tape verifier on the zoo and a real training graph ==");
    let mut ok = true;

    let z = zoo::build();
    let report = tape::verify(&z.graph, Some(z.loss));
    ok &= print_report("zoo graph", &report);

    // A real recorded graph: one generator forward + loss, exactly the
    // tape a training step walks.
    let (graph, loss) = record_training_graph();
    let report = tape::verify(&graph, Some(loss));
    ok &= print_report("generator training graph", &report);
    ok
}

fn print_report(what: &str, report: &tape::TapeReport) -> bool {
    let errors = report.errors().count();
    let warnings = report.warnings().count();
    println!(
        "  {what}: {} nodes, {errors} error(s), {warnings} warning(s)",
        report.nodes
    );
    // Warnings on a real training graph are expected: outputs the trainer
    // reads via `g.value` (sigma means, carry state) look dead to the
    // tape. Cap the listing so CI logs stay readable.
    const MAX_SHOWN: usize = 12;
    for issue in report.issues.iter().take(MAX_SHOWN) {
        let tag = match issue.severity {
            tape::Severity::Error => "ERROR",
            tape::Severity::Warning => "warn ",
        };
        println!(
            "    [{tag}] node {} ({}): {}",
            issue.node, issue.op, issue.message
        );
    }
    if report.issues.len() > MAX_SHOWN {
        println!("    ... and {} more", report.issues.len() - MAX_SHOWN);
    }
    report.is_consistent()
}

/// Record a small but real generator graph (forward + MSE loss) the way
/// `trainer.rs` does, so the verifier exercises production op patterns
/// (cell packing, LSTM unrolling, the Gaussian head), not just the zoo.
fn record_training_graph() -> (gendt_nn::Graph, gendt_nn::NodeId) {
    use gendt::{ArMode, CarryState, GenDtCfg};
    use gendt_data::{dataset_a, extract, windows, BuildCfg, ContextCfg, Kpi};
    use gendt_nn::{Graph, Matrix};

    let mut cfg = GenDtCfg::fast(4, 21);
    cfg.hidden = 8;
    cfg.resgen_hidden = 8;
    cfg.window.len = 8;
    cfg.window.stride = 8;
    cfg.window.max_cells = 2;
    let ds = dataset_a(&BuildCfg::quick(22));
    let run = &ds.runs[0];
    let ctx = extract(
        &ds.world,
        &ds.deployment,
        &run.traj,
        &ContextCfg {
            max_cells: 2,
            ..ContextCfg::default()
        },
    );
    let pool = windows(run, &ctx, &Kpi::DATASET_A, &cfg.window);
    assert!(
        !pool.is_empty(),
        "verify: synthetic dataset produced no windows"
    );
    let batch: Vec<&gendt_data::windows::Window> = pool.iter().take(2).collect();

    let mut rng = gendt_nn::Rng::seed_from(23);
    let model = gendt::GenDt::new(cfg.clone());
    let carry = CarryState::zeros(&cfg, batch.len());
    let mut g = Graph::new();
    let fwd = model.generator.forward(
        &mut g,
        &batch,
        &carry,
        ArMode::TeacherForced,
        true,
        &mut rng,
    );
    let mut terms = Vec::new();
    let n_ch = cfg.n_ch;
    for (t, &out) in fwd.outputs.iter().enumerate() {
        let mut target = Matrix::zeros(batch.len(), n_ch);
        for (bi, w) in batch.iter().enumerate() {
            for ch in 0..n_ch {
                target.data[bi * n_ch + ch] = w.targets[ch][t];
            }
        }
        let target = g.input(target);
        let mse = g.mse_loss(out, target);
        terms.push((mse, 1.0 / fwd.outputs.len() as f32));
    }
    let loss = g.weighted_sum(terms);
    (g, loss)
}

/// A CI-sized training workload: a tiny model config, one synthetic
/// run's context, and its window pool. `cfg_seed`/`data_seed` keep the
/// smoke and trace-smoke gates on independent inputs.
fn tiny_workload(
    cfg_seed: u64,
    data_seed: u64,
) -> Option<(
    gendt::GenDtCfg,
    gendt_data::RunContext,
    Vec<gendt_data::windows::Window>,
)> {
    use gendt::GenDtCfg;
    use gendt_data::{dataset_a, extract, windows, BuildCfg, ContextCfg, Kpi};

    let mut cfg = GenDtCfg::fast(4, cfg_seed);
    cfg.hidden = 8;
    cfg.resgen_hidden = 8;
    cfg.disc_hidden = 6;
    cfg.window.len = 8;
    cfg.window.stride = 8;
    cfg.window.max_cells = 2;
    cfg.batch_size = 4;
    let ds = dataset_a(&BuildCfg::quick(data_seed));
    let run = &ds.runs[0];
    let ctx = extract(
        &ds.world,
        &ds.deployment,
        &run.traj,
        &ContextCfg {
            max_cells: 2,
            ..ContextCfg::default()
        },
    );
    let pool = windows(run, &ctx, &Kpi::DATASET_A, &cfg.window);
    if pool.is_empty() {
        return None;
    }
    Some((cfg, ctx, pool))
}

fn run_smoke() -> bool {
    use gendt::{generate_series, GenDt};
    use gendt_data::Kpi;

    println!("== smoke: sanitized train step + generation ==");
    let Some((cfg, ctx, pool)) = tiny_workload(31, 32) else {
        println!("smoke: FAILED (no training windows)");
        return false;
    };
    gendt_nn::set_sanitize(true);
    let mut model = GenDt::new(cfg);
    let trace = model.train_step(&pool);
    let series = generate_series(&mut model, &ctx, &Kpi::DATASET_A, false, 3);
    gendt_nn::set_sanitize(false);
    let ok = trace.mse.is_finite() && !series.is_empty();
    println!(
        "smoke: {} (mse {:.4}, {} generated steps, every op checked for NaN/Inf/shape)",
        if ok { "clean" } else { "FAILED" },
        trace.mse,
        series.len()
    );
    ok
}

fn run_plan_parity() -> bool {
    use gendt::{
        generate_series, generate_series_batch, generate_series_chunk, generation_window_count,
        GenBatchItem, GenChunkItem, GenCursor, GenDt, GeneratedSeries,
    };
    use gendt_data::Kpi;

    println!("== plan-parity: compiled plans vs sanitizer-forced tape (bitwise) ==");
    let Some((mut cfg, ctx, pool)) = tiny_workload(51, 52) else {
        println!("plan-parity: FAILED (no training windows)");
        return false;
    };
    cfg.steps = 6;
    let mut ok = true;
    let mut check = |what: &str, eq: bool| {
        println!(
            "  {what}: {}",
            if eq { "bitwise-equal" } else { "DIVERGED" }
        );
        ok &= eq;
    };

    let series = |v: Vec<GeneratedSeries>| v.into_iter().map(|g| g.series).collect::<Vec<_>>();
    let batch = |seeds: &[u64]| -> Vec<GenBatchItem> {
        seeds
            .iter()
            .map(|&seed| GenBatchItem { ctx: &ctx, seed })
            .collect()
    };
    let items = batch(&[8, 9]);

    // Train the same seed twice: GENDT_SANITIZE forces record mode on
    // every step, otherwise every new shape is recorded once and replayed.
    // Several steps so later steps replay cached programs. The explicit
    // 2-thread budget runs the two shards at once on any runner: both
    // replay one shared program, each on its own pooled arena, and the
    // teacher-forced and free-running programs take turns on those
    // arenas. Each side first generates a batch from the untrained model
    // (generation reads the model, it does not change it): the plan side
    // records its batched generation program there, so its first replay
    // after training runs in an arena a training program last used.
    let threads = gendt_nn::num_threads();
    let train = |tape: bool| {
        gendt_nn::set_sanitize(tape);
        gendt_nn::set_num_threads(2);
        let mut model = GenDt::new(cfg.clone());
        let untrained = series(generate_series_batch(&model, &Kpi::DATASET_A, &items));
        model.train(&pool);
        gendt_nn::set_num_threads(threads);
        (model, untrained)
    };
    let (mut tape, b_untrained) = train(true);
    let (mut plan, b_recorded) = train(false);
    let weights = |m: &GenDt| -> Vec<Vec<f32>> {
        m.generator
            .store
            .iter()
            .chain(m.discriminator.store.iter())
            .map(|p| p.value.data.clone())
            .collect()
    };
    let mse = |m: &GenDt| m.trace.iter().map(|t| t.mse).collect::<Vec<_>>();
    check(
        "generate_series_batch (recorded)",
        b_untrained == b_recorded,
    );
    check("train weights", weights(&tape) == weights(&plan));
    check("train loss trace", mse(&tape) == mse(&plan));

    // Chunked generation: one window per call, cursor carried across.
    let windows = generation_window_count(ctx.len(), &cfg.generation_window());
    let chunked = |m: &GenDt| {
        let mut items = [GenChunkItem {
            ctx: &ctx,
            cursor: GenCursor::fresh(m.cfg(), 10),
            max_windows: 1,
        }];
        let mut cat = vec![Vec::new(); Kpi::DATASET_A.len()];
        for _ in 0..windows {
            let chunk = generate_series_chunk(m, &Kpi::DATASET_A, &mut items).remove(0);
            for (acc, s) in cat.iter_mut().zip(chunk.series) {
                acc.extend(s);
            }
        }
        cat
    };

    gendt_nn::set_sanitize(true);
    let base = generate_series(&mut tape, &ctx, &Kpi::DATASET_A, false, 7).series;
    let b_base = series(generate_series_batch(&tape, &Kpi::DATASET_A, &items));
    let c_base = chunked(&tape);
    gendt_nn::set_sanitize(false);

    check(
        "generate_series_batch (replay in an arena training last used)",
        b_base == series(generate_series_batch(&plan, &Kpi::DATASET_A, &items)),
    );

    // The single and chunked calls run twice: the first records their
    // programs, the second replays them from the cache.
    let first = generate_series(&mut plan, &ctx, &Kpi::DATASET_A, false, 7).series;
    let replay = generate_series(&mut plan, &ctx, &Kpi::DATASET_A, false, 7).series;
    check("generate (recorded)", base == first);
    check("generate (cached replay)", base == replay);
    let b_replay = series(generate_series_batch(&plan, &Kpi::DATASET_A, &items));
    check("generate_series_batch (cached replay)", b_base == b_replay);
    check("generate_series_chunk (recorded)", c_base == chunked(&plan));
    check(
        "generate_series_chunk (cached replay)",
        c_base == chunked(&plan),
    );

    // A new batch shape misses the cache, which drops the idle arenas;
    // the next replay fits a fresh one.
    let _ = generate_series_batch(&plan, &Kpi::DATASET_A, &batch(&[8, 9, 10]));
    let b_released = series(generate_series_batch(&plan, &Kpi::DATASET_A, &items));
    check(
        "generate_series_batch (replay after a miss dropped the idle arenas)",
        b_base == b_released,
    );

    println!("plan-parity: {}", if ok { "clean" } else { "FAILED" });
    ok
}

/// Chrome-trace validation: parse `json` and check that each expected
/// name appears with the given category, that op-level events exist for
/// both autodiff phases, and that every event carries the mandatory
/// Trace Event Format fields.
fn check_chrome_trace(json: &str) -> Result<(), String> {
    let doc: serde::Value =
        serde_json::from_str(json).map_err(|e| format!("exported trace is not valid JSON: {e}"))?;
    let top = doc
        .as_map_for("trace document")
        .map_err(|e| e.to_string())?;
    let events = serde::map_field(top, "traceEvents", "trace document")
        .and_then(|v| v.as_seq_for("traceEvents"))
        .map_err(|e| e.to_string())?;
    if events.is_empty() {
        return Err("traceEvents is empty".to_string());
    }
    let mut seen: Vec<(String, String)> = Vec::new();
    for ev in events {
        let m = ev.as_map_for("trace event").map_err(|e| e.to_string())?;
        let name = serde::map_field(m, "name", "trace event")
            .and_then(|v| v.as_str_for("name"))
            .map_err(|e| e.to_string())?;
        let cat = serde::map_field(m, "cat", "trace event")
            .and_then(|v| v.as_str_for("cat"))
            .map_err(|e| e.to_string())?;
        for field in ["ph", "ts", "dur", "pid", "tid"] {
            serde::map_field(m, field, "trace event").map_err(|e| e.to_string())?;
        }
        seen.push((name.to_string(), cat.to_string()));
    }
    for (name, cat) in [("train_step", "span"), ("generate_series", "span")] {
        if !seen.iter().any(|(n, c)| n == name && c == cat) {
            return Err(format!("no `{name}` event with cat `{cat}`"));
        }
    }
    for cat in ["op", "op.bwd"] {
        if !seen.iter().any(|(_, c)| c == cat) {
            return Err(format!("no per-op tape event with cat `{cat}`"));
        }
    }
    Ok(())
}

/// Telemetry validation: every line must be a JSON object with a `kind`
/// field, and at least one `train_step` record must carry the loss
/// decomposition and gradient diagnostics.
fn check_telemetry(lines: &[String]) -> Result<(), String> {
    if lines.is_empty() {
        return Err("no telemetry records were emitted".to_string());
    }
    let mut saw_train_step = false;
    for line in lines {
        let doc: serde::Value = serde_json::from_str(line)
            .map_err(|e| format!("telemetry line is not valid JSON: {e} ({line})"))?;
        let m = doc
            .as_map_for("telemetry record")
            .map_err(|e| e.to_string())?;
        let kind = serde::map_field(m, "kind", "telemetry record")
            .and_then(|v| v.as_str_for("kind"))
            .map_err(|e| e.to_string())?;
        if kind == "train_step" {
            for field in [
                "l_mse",
                "lambda_l_js",
                "grad_norm_g",
                "update_norm_g",
                "u_model",
            ] {
                serde::map_field(m, field, "train_step record")
                    .and_then(|v| v.as_f64_for(field))
                    .map_err(|e| e.to_string())?;
            }
            saw_train_step = true;
        }
    }
    if !saw_train_step {
        return Err("no `train_step` telemetry record".to_string());
    }
    Ok(())
}

fn run_trace_smoke() -> bool {
    use gendt::{generate_series, GenDt};
    use gendt_data::Kpi;

    println!("== trace-smoke: traced train + generation, bitwise vs untraced ==");
    let Some((cfg, ctx, pool)) = tiny_workload(41, 42) else {
        println!("trace-smoke: FAILED (no training windows)");
        return false;
    };

    // Baseline with tracing off.
    gendt_trace::set_trace(false);
    let mut base = GenDt::new(cfg.clone());
    let base_step = base.train_step(&pool);
    let base_series = generate_series(&mut base, &ctx, &Kpi::DATASET_A, false, 3);

    // Same seeds with tracing on; clear every sink so the checks see
    // only this run.
    gendt_trace::set_trace(true);
    gendt_trace::reset_ops();
    let _ = gendt_trace::drain_spans();
    let _ = gendt_trace::take_telemetry();
    let mut traced = GenDt::new(cfg);
    let traced_step = traced.train_step(&pool);
    // Drain in two stages: each thread ring holds 16k events and a full
    // step's op flood could otherwise evict the training spans before
    // generation finishes.
    let (mut events, _) = gendt_trace::drain_spans();
    let traced_series = generate_series(&mut traced, &ctx, &Kpi::DATASET_A, false, 3);
    let (gen_events, _) = gendt_trace::drain_spans();
    events.extend(gen_events);
    let (telemetry, _) = gendt_trace::take_telemetry();
    gendt_trace::set_trace(false);

    let mut ok = true;

    // (1) Tracing must not perturb the math: bitwise-identical results.
    if base_step.mse.to_bits() != traced_step.mse.to_bits() {
        println!(
            "  [FAIL] train_step mse differs under tracing: {} vs {}",
            base_step.mse, traced_step.mse
        );
        ok = false;
    }
    let same_series = base_series.series.len() == traced_series.series.len()
        && base_series
            .series
            .iter()
            .zip(traced_series.series.iter())
            .all(|(a, b)| {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            });
    if !same_series {
        println!("  [FAIL] generated series is not bitwise-identical under tracing");
        ok = false;
    }

    // (2) The exported Chrome trace parses and holds the expected spans.
    let json = gendt_trace::chrome_trace_json(&events);
    let out_path = std::env::temp_dir().join("gendt-trace-smoke.json");
    if let Err(e) = std::fs::write(&out_path, &json) {
        println!("  [FAIL] writing {}: {e}", out_path.display());
        ok = false;
    }
    match check_chrome_trace(&json) {
        Ok(()) => println!(
            "  chrome trace: {} events -> {}",
            events.len(),
            out_path.display()
        ),
        Err(e) => {
            println!("  [FAIL] chrome trace: {e}");
            ok = false;
        }
    }

    // (3) Per-step JSONL telemetry with the loss decomposition.
    match check_telemetry(&telemetry) {
        Ok(()) => println!("  telemetry: {} record(s)", telemetry.len()),
        Err(e) => {
            println!("  [FAIL] telemetry: {e}");
            ok = false;
        }
    }

    // (4) The hot-op table attributed time to real tape ops.
    let table = gendt_trace::op_table();
    if table.is_empty() {
        println!("  [FAIL] op profiler recorded nothing");
        ok = false;
    } else {
        print!("{}", gendt_trace::render_op_table(&table));
    }
    gendt_trace::reset_ops();

    println!("trace-smoke: {}", if ok { "clean" } else { "FAILED" });
    ok
}
