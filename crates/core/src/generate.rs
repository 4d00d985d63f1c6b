//! Generation: synthesize KPI time series for a (possibly unseen)
//! trajectory from its context, and the MC-dropout model-uncertainty
//! measure (paper §6.2.1).
//!
//! Long series are produced window-by-window with non-overlapping windows
//! (paper §4.3.3); the aggregation-LSTM state and the autoregressive tail
//! carry across windows so temporal correlation survives window borders.

use crate::cfg::GenDtCfg;
use crate::generator::{ArMode, CarryState};
use crate::trainer::GenDt;
use gendt_data::context::RunContext;
use gendt_data::kpi_types::Kpi;
use gendt_data::windows::{context_window, Window, WindowCfg};
use gendt_nn::{Graph, PlanKey};
use serde::{Deserialize, Serialize};

/// Build generation windows from context alone (no KPI targets — this is
/// what "generating for a new trajectory without field measurements"
/// means). Targets and AR seeds are zero-filled placeholders.
pub fn generation_windows(ctx: &RunContext, n_ch: usize, cfg: &WindowCfg) -> Vec<Window> {
    (0..generation_window_count(ctx.len(), cfg))
        .map(|i| build_generation_window(ctx, n_ch, cfg, i))
        .collect()
}

/// How many windows [`generation_windows`] builds for a route of `steps`
/// points, without its context: every `cfg.len`-step window starting at
/// a multiple of `cfg.stride` (positive in every validated config) that
/// fits.
pub fn generation_window_count(steps: usize, cfg: &WindowCfg) -> usize {
    match steps.checked_sub(cfg.len) {
        Some(room) => room / cfg.stride + 1,
        None => 0,
    }
}

/// Generation window `index` of `ctx`: the one starting at step
/// `index * cfg.stride`, which must fit in the trajectory.
fn build_generation_window(ctx: &RunContext, n_ch: usize, cfg: &WindowCfg, index: usize) -> Window {
    context_window(
        ctx,
        index * cfg.stride,
        cfg,
        vec![vec![0.0; cfg.len]; n_ch],
        vec![vec![0.0; cfg.ar_context]; n_ch],
    )
}

/// One generated multi-KPI series in physical units.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GeneratedSeries {
    /// KPI channels, aligned with the `kpis` list used at generation.
    pub kpis: Vec<Kpi>,
    /// Physical-unit series per KPI, `[n_ch][T']` where
    /// `T' = ⌊T/L⌋·L` (the paper's batch generation length).
    pub series: Vec<Vec<f64>>,
}

impl GeneratedSeries {
    /// Series for one KPI channel.
    pub fn channel(&self, kpi: Kpi) -> Option<&[f64]> {
        self.kpis
            .iter()
            .position(|&k| k == kpi)
            .map(|i| self.series[i].as_slice())
    }

    /// Length of the generated series.
    pub fn len(&self) -> usize {
        self.series.first().map(|s| s.len()).unwrap_or(0)
    }

    /// True when nothing was generated (trajectory shorter than one window).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Generate a multi-KPI series for a trajectory context.
///
/// * `mc_dropout` keeps ResGen's dropout active (used by the uncertainty
///   measure); normal generation passes `false`.
/// * `sample_seed` decorrelates repeated draws for the same trajectory.
pub fn generate_series(
    model: &mut GenDt,
    ctx: &RunContext,
    kpis: &[Kpi],
    mc_dropout: bool,
    sample_seed: u64,
) -> GeneratedSeries {
    gendt_trace::span!("generate_series");
    let cfg: GenDtCfg = model.cfg().clone();
    assert_eq!(
        kpis.len(),
        cfg.n_ch,
        "KPI list does not match model channels"
    );
    let wins = generation_windows(ctx, cfg.n_ch, &cfg.generation_window());
    let mut rng = gendt_nn::Rng::seed_from(sample_seed);
    let mut carry = CarryState::zeros(&cfg, 1);
    let mut norm: Vec<Vec<f32>> = vec![Vec::new(); cfg.n_ch];
    for w in &wins {
        let key = PlanKey::new(
            "gen",
            [
                1,
                w.env.len() as u64,
                crate::generator::batch_max_cells(&[w]) as u64,
                u64::from(mc_dropout),
                0,
                0,
            ],
        );
        carry = model.plans.run(key, |g| {
            let fwd =
                model
                    .generator
                    .forward(g, &[w], &carry, ArMode::FreeRunning, mc_dropout, &mut rng);
            for &out in &fwd.outputs {
                let v = g.value(out);
                for (n, &val) in norm.iter_mut().zip(v.data.iter().take(cfg.n_ch)) {
                    n.push(val);
                }
            }
            (fwd.carry, None)
        });
    }
    let series: Vec<Vec<f64>> = norm
        .into_iter()
        .enumerate()
        .map(|(ch, s)| s.into_iter().map(|v| kpis[ch].denormalize(v)).collect())
        .collect();
    // Under GENDT_SANITIZE the tape already vetted every intermediate op;
    // this guards the last unvetted hop, denormalization to physical units.
    if gendt_nn::sanitize_enabled() {
        for (ch, s) in series.iter().enumerate() {
            if let Some(t) = s.iter().position(|v| !v.is_finite()) {
                panic!(
                    "GENDT_SANITIZE: generated series for KPI {:?} is non-finite at step {t}",
                    kpis[ch]
                );
            }
        }
    }
    GeneratedSeries {
        kpis: kpis.to_vec(),
        series,
    }
}

/// One request in a batched generation call: a trajectory context plus
/// the explicit sample seed that makes its output reproducible.
pub struct GenBatchItem<'a> {
    /// Trajectory context to generate for.
    pub ctx: &'a RunContext,
    /// Sample seed, same meaning as `generate_series`'s `sample_seed`.
    pub seed: u64,
}

/// Resumable generation position for one stream: the carried LSTM state
/// and autoregressive tail (batch row of one), the RNG stream position,
/// and the index of the next window to generate. Holding a cursor across
/// calls makes chunk N+1 continue bitwise-exactly where chunk N stopped —
/// the contract the streaming API (`/v1/stream`) is built on.
#[derive(Clone, Debug)]
pub struct GenCursor {
    /// Carried aggregation-LSTM state and AR tail (`b = 1`).
    pub carry: CarryState,
    /// xoshiro256++ state of the per-request sample stream.
    pub rng_state: [u64; 4],
    /// Index of the next generation window to produce.
    pub next_window: usize,
}

impl GenCursor {
    /// Cursor at the start of a stream: zero carry, RNG freshly seeded
    /// from `sample_seed`, positioned before window 0. Generating from a
    /// fresh cursor with no window cap reproduces the one-shot series.
    pub fn fresh(cfg: &GenDtCfg, sample_seed: u64) -> Self {
        GenCursor {
            carry: CarryState::zeros(cfg, 1),
            rng_state: gendt_nn::Rng::seed_from(sample_seed).state(),
            next_window: 0,
        }
    }
}

/// One stream in a chunked generation call: the trajectory context, the
/// resume cursor (updated in place), and how many windows to produce at
/// most in this chunk (`usize::MAX` for "run to the end").
pub struct GenChunkItem<'a> {
    /// Trajectory context to generate for.
    pub ctx: &'a RunContext,
    /// Resume position; advanced past the produced windows on return.
    pub cursor: GenCursor,
    /// Window budget for this chunk.
    pub max_windows: usize,
}

/// Generate the next chunk of each stream in one batched forward pass per
/// window step, advancing every cursor in place.
///
/// Streams at different absolute window positions batch together safely:
/// all batched compute ops are row-local (see
/// `Generator::forward_gen_batch`), so each row's output depends only on
/// its own window, carry, and RNG stream. A stream whose chunk budget or
/// trajectory is exhausted simply drops out of the batch. Concatenating
/// the chunks of one stream is **bitwise-identical** to the one-shot
/// [`generate_series_batch`] output for the same seed — one-shot
/// generation is itself a single unbounded chunk.
pub fn generate_series_chunk(
    model: &GenDt,
    kpis: &[Kpi],
    items: &mut [GenChunkItem],
) -> Vec<GeneratedSeries> {
    gendt_trace::span!("generate_series_chunk", "items" => items.len());
    let cfg: GenDtCfg = model.cfg().clone();
    assert_eq!(
        kpis.len(),
        cfg.n_ch,
        "KPI list does not match model channels"
    );
    let n = items.len();
    let wcfg = cfg.generation_window();
    // Window range this chunk covers for stream i: [starts[i], ends[i]).
    let totals: Vec<usize> = items
        .iter()
        .map(|it| generation_window_count(it.ctx.len(), &wcfg))
        .collect();
    let starts: Vec<usize> = items
        .iter()
        .zip(&totals)
        .map(|(it, &t)| it.cursor.next_window.min(t))
        .collect();
    let ends: Vec<usize> = items
        .iter()
        .zip(&totals)
        .zip(&starts)
        .map(|((it, &t), &s)| s.saturating_add(it.max_windows).min(t))
        .collect();
    // Build only those windows: a continuation costs its own windows, not
    // the whole trajectory's.
    let wins: Vec<Vec<Window>> = items
        .iter()
        .enumerate()
        .map(|(i, it)| {
            (starts[i]..ends[i])
                .map(|w| build_generation_window(it.ctx, cfg.n_ch, &wcfg, w))
                .collect()
        })
        .collect();
    let mut rngs: Vec<gendt_nn::Rng> = items
        .iter()
        .map(|it| gendt_nn::Rng::from_state(it.cursor.rng_state))
        .collect();
    let mut carries: Vec<CarryState> = items.iter().map(|it| it.cursor.carry.clone()).collect();
    let mut norm: Vec<Vec<Vec<f32>>> = vec![vec![Vec::new(); cfg.n_ch]; n];

    let hid = cfg.hidden;
    let tail_w = cfg.n_ch * cfg.window.ar_context;
    let max_len = wins.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..max_len {
        // The streams whose chunk has a k-th window, and those windows.
        let (active, wrefs): (Vec<usize>, Vec<&Window>) = wins
            .iter()
            .enumerate()
            .filter_map(|(i, w)| Some((i, w.get(k)?)))
            .unzip();
        let bn = active.len();

        // Stack per-stream carry rows and RNG streams for the active set.
        let mut carry_b = CarryState::zeros(&cfg, bn);
        let mut rng_b: Vec<gendt_nn::Rng> = Vec::with_capacity(bn);
        for (r, &i) in active.iter().enumerate() {
            carry_b.agg_h.data[r * hid..(r + 1) * hid].copy_from_slice(&carries[i].agg_h.data);
            carry_b.agg_c.data[r * hid..(r + 1) * hid].copy_from_slice(&carries[i].agg_c.data);
            carry_b.ar_tail.data[r * tail_w..(r + 1) * tail_w]
                .copy_from_slice(&carries[i].ar_tail.data);
            rng_b.push(rngs[i].clone());
        }

        let key = PlanKey::new(
            "gen_batch",
            [
                bn as u64,
                cfg.generation_window().len as u64,
                crate::generator::batch_max_cells(&wrefs) as u64,
                0,
                0,
                0,
            ],
        );
        let carry_out = model.plans.run(key, |g| {
            let fwd = model
                .generator
                .forward_gen_batch(g, &wrefs, &carry_b, &mut rng_b);
            for &out in &fwd.outputs {
                let v = g.value(out);
                for (r, &i) in active.iter().enumerate() {
                    for (ch, acc) in norm[i].iter_mut().enumerate() {
                        acc.push(v.data[r * cfg.n_ch + ch]);
                    }
                }
            }
            (fwd.carry, None)
        });
        // Split the carry rows and advanced RNG streams back out.
        for (r, &i) in active.iter().enumerate() {
            carries[i]
                .agg_h
                .data
                .copy_from_slice(&carry_out.agg_h.data[r * hid..(r + 1) * hid]);
            carries[i]
                .agg_c
                .data
                .copy_from_slice(&carry_out.agg_c.data[r * hid..(r + 1) * hid]);
            carries[i]
                .ar_tail
                .data
                .copy_from_slice(&carry_out.ar_tail.data[r * tail_w..(r + 1) * tail_w]);
            rngs[i] = rng_b[r].clone();
        }
    }

    // Advance every cursor past the windows this chunk produced.
    for (i, (it, carry)) in items.iter_mut().zip(carries).enumerate() {
        it.cursor.carry = carry;
        it.cursor.rng_state = rngs[i].state();
        it.cursor.next_window = ends[i];
    }

    norm.into_iter()
        .map(|per_ch| {
            let series: Vec<Vec<f64>> = per_ch
                .into_iter()
                .enumerate()
                .map(|(ch, s)| s.into_iter().map(|v| kpis[ch].denormalize(v)).collect())
                .collect();
            if gendt_nn::sanitize_enabled() {
                for (ch, s) in series.iter().enumerate() {
                    if let Some(t) = s.iter().position(|v| !v.is_finite()) {
                        panic!(
                            "GENDT_SANITIZE: chunked series for KPI {:?} is non-finite at step {t}",
                            kpis[ch]
                        );
                    }
                }
            }
            GeneratedSeries {
                kpis: kpis.to_vec(),
                series,
            }
        })
        .collect()
}

/// Generate series for several independent requests in one batched
/// forward pass per window index.
///
/// Each result is **bitwise-identical** to what
/// [`generate_series`]`(model, item.ctx, kpis, false, item.seed)` returns
/// for that item alone: every request keeps its own RNG stream (seeded
/// from its own seed, advanced in single-request order), and all batched
/// compute ops are row-local — see `Generator::forward_gen_batch`. This
/// is the micro-batching entry point the serving layer coalesces
/// concurrent `/generate` requests onto.
///
/// Requests whose trajectories yield different window counts simply drop
/// out of the batch once exhausted; the batch shrinks over window index.
pub fn generate_series_batch(
    model: &GenDt,
    kpis: &[Kpi],
    items: &[GenBatchItem],
) -> Vec<GeneratedSeries> {
    gendt_trace::span!("generate_series_batch", "items" => items.len());
    // One-shot generation is a single unbounded chunk from a fresh
    // cursor, so chunk-concatenation parity holds by construction.
    let cfg = model.cfg();
    let mut chunk_items: Vec<GenChunkItem> = items
        .iter()
        .map(|it| GenChunkItem {
            ctx: it.ctx,
            cursor: GenCursor::fresh(cfg, it.seed),
            max_windows: usize::MAX,
        })
        .collect();
    generate_series_chunk(model, kpis, &mut chunk_items)
}

/// ResGen distribution-parameter statistics from repeated MC-dropout
/// passes — the inputs of the model-uncertainty measure.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UncertaintyReport {
    /// `U(G_θ) = mean_t [ std(σ_θ)_t + std(μ_θ)_t ]` over MC samples.
    pub model_uncertainty: f64,
    /// Mean σ over time and samples (data-uncertainty proxy).
    pub data_uncertainty: f64,
    /// Number of MC samples used.
    pub samples: usize,
}

/// Estimate model uncertainty on a trajectory context via MC dropout
/// (paper §6.2.1): run `n_samples` generations with dropout on, collect
/// the per-step `(μ, σ)` of ResGen, and average the across-sample standard
/// deviations over time.
///
/// Samples are independent (each seeds its own RNG stream), so they run
/// on worker threads when more than one is configured; results are
/// joined in sample order, keeping the report thread-count independent.
pub fn model_uncertainty(
    model: &mut GenDt,
    ctx: &RunContext,
    n_samples: usize,
    seed: u64,
) -> UncertaintyReport {
    gendt_trace::span!("model_uncertainty", "samples" => n_samples);
    assert!(n_samples >= 2, "need at least two MC samples");
    let cfg = model.cfg().clone();
    let wins = generation_windows(ctx, cfg.n_ch, &cfg.generation_window());
    let generator = &model.generator;
    // One MC pass: (mu_flat, sigma_flat) over all windows and steps.
    let run_sample = |s: usize| -> (Vec<f32>, Vec<f32>) {
        let mut rng = gendt_nn::Rng::seed_from(seed ^ ((s as u64 + 1) << 32));
        let mut carry = CarryState::zeros(&cfg, 1);
        let mut mu_flat = Vec::new();
        let mut sg_flat = Vec::new();
        for w in &wins {
            let mut g = Graph::new();
            let fwd = generator.forward(&mut g, &[w], &carry, ArMode::FreeRunning, true, &mut rng);
            for (&mu, &sg) in fwd.res_mu.iter().zip(fwd.res_sigma.iter()) {
                mu_flat.extend_from_slice(&g.value(mu).data);
                sg_flat.extend_from_slice(&g.value(sg).data);
            }
            carry = fwd.carry;
        }
        (mu_flat, sg_flat)
    };
    let mut samples: Vec<Option<(Vec<f32>, Vec<f32>)>> = (0..n_samples).map(|_| None).collect();
    if gendt_nn::num_threads() <= 1 {
        for (s, slot) in samples.iter_mut().enumerate() {
            *slot = Some(run_sample(s));
        }
    } else {
        let run_sample = &run_sample;
        rayon::scope(|sc| {
            for (s, slot) in samples.iter_mut().enumerate() {
                sc.spawn(move |_| *slot = Some(run_sample(s)));
            }
        });
    }
    // mus[sample][t][ch], sigmas likewise (flattened over windows).
    let mut mus: Vec<Vec<f32>> = Vec::with_capacity(n_samples);
    let mut sigmas: Vec<Vec<f32>> = Vec::with_capacity(n_samples);
    for pair in samples.into_iter().flatten() {
        mus.push(pair.0);
        sigmas.push(pair.1);
    }
    assert_eq!(mus.len(), n_samples, "an MC sample did not run");
    let t_len = mus[0].len();
    if t_len == 0 {
        // ResGen ablated or trajectory too short: no uncertainty signal.
        return UncertaintyReport {
            model_uncertainty: 0.0,
            data_uncertainty: 0.0,
            samples: n_samples,
        };
    }
    let mut acc = 0.0;
    let mut sigma_acc = 0.0;
    for t in 0..t_len {
        let mu_t: Vec<f64> = mus.iter().map(|s| s[t] as f64).collect();
        let sg_t: Vec<f64> = sigmas.iter().map(|s| s[t] as f64).collect();
        acc += gendt_metrics::std_dev(&mu_t) + gendt_metrics::std_dev(&sg_t);
        sigma_acc += gendt_metrics::mean(&sg_t);
    }
    UncertaintyReport {
        model_uncertainty: acc / t_len as f64,
        data_uncertainty: sigma_acc / t_len as f64,
        samples: n_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::GenDtCfg;
    use gendt_data::builders::{dataset_a, BuildCfg};
    use gendt_data::context::{extract, ContextCfg};

    fn tiny_model_and_ctx() -> (GenDt, RunContext) {
        let mut cfg = GenDtCfg::fast(4, 9);
        cfg.hidden = 8;
        cfg.resgen_hidden = 8;
        cfg.disc_hidden = 6;
        cfg.window.len = 10;
        cfg.window.stride = 5;
        cfg.window.max_cells = 3;
        cfg.steps = 3;
        cfg.batch_size = 4;
        let ds = dataset_a(&BuildCfg::quick(47));
        let run = &ds.runs[0];
        let ctx = extract(
            &ds.world,
            &ds.deployment,
            &run.traj,
            &ContextCfg {
                max_cells: 3,
                ..ContextCfg::default()
            },
        );
        let mut pool = Vec::new();
        pool.extend(gendt_data::windows::windows(
            run,
            &ctx,
            &Kpi::DATASET_A,
            &cfg.window,
        ));
        let mut model = GenDt::new(cfg);
        model.train(&pool);
        (model, ctx)
    }

    #[test]
    fn generated_series_has_expected_length_and_ranges() {
        let (mut model, ctx) = tiny_model_and_ctx();
        let out = generate_series(&mut model, &ctx, &Kpi::DATASET_A, false, 5);
        let expected = (ctx.len() / 10) * 10;
        assert_eq!(out.len(), expected);
        let rsrp = out.channel(Kpi::Rsrp).unwrap();
        assert!(rsrp.iter().all(|&v| (-140.0..=-44.0).contains(&v)));
        let cqi = out.channel(Kpi::Cqi).unwrap();
        assert!(cqi
            .iter()
            .all(|&v| (1.0..=15.0).contains(&v) && v.fract() == 0.0));
    }

    #[test]
    fn batched_generation_is_bitwise_equal_to_direct() {
        let (mut model, ctx) = tiny_model_and_ctx();
        assert!(ctx.len() >= 40, "fixture trajectory too short");
        // Different-length views of the trajectory give the requests
        // different window counts (the batch shrinks over window index)
        // and different visible-cell sets (padding inside the batch).
        let short = ctx.slice(0..20);
        let mid = ctx.slice(7..37);
        let items = [
            GenBatchItem {
                ctx: &short,
                seed: 101,
            },
            GenBatchItem {
                ctx: &ctx,
                seed: 202,
            },
            GenBatchItem {
                ctx: &mid,
                seed: 303,
            },
        ];
        let batched = generate_series_batch(&model, &Kpi::DATASET_A, &items);
        assert_eq!(batched.len(), items.len());
        for (it, got) in items.iter().zip(batched.iter()) {
            let direct = generate_series(&mut model, it.ctx, &Kpi::DATASET_A, false, it.seed);
            assert_eq!(direct.kpis, got.kpis);
            // Exact f64 equality: the batched pass must be
            // bitwise-identical to the single-request pass.
            assert_eq!(direct.series, got.series, "batched output diverges");
        }
    }

    #[test]
    fn plan_mode_generation_is_bitwise_equal_to_interpreted() {
        let (mut model, ctx) = tiny_model_and_ctx();
        let items = [
            GenBatchItem { ctx: &ctx, seed: 5 },
            GenBatchItem { ctx: &ctx, seed: 6 },
        ];
        let (base, b_base) = crate::with_tape(true, || {
            (
                generate_series(&mut model, &ctx, &Kpi::DATASET_A, false, 9),
                generate_series_batch(&model, &Kpi::DATASET_A, &items),
            )
        });
        // Run twice: the first compiles the plans, the second replays
        // them from the cache — both must match the recorded output.
        let (first, replay, b_first, b_replay) = crate::with_tape(false, || {
            (
                generate_series(&mut model, &ctx, &Kpi::DATASET_A, false, 9),
                generate_series(&mut model, &ctx, &Kpi::DATASET_A, false, 9),
                generate_series_batch(&model, &Kpi::DATASET_A, &items),
                generate_series_batch(&model, &Kpi::DATASET_A, &items),
            )
        });
        assert_eq!(base.series, first.series, "compiled pass diverges");
        assert_eq!(base.series, replay.series, "cached replay diverges");
        for k in 0..items.len() {
            assert_eq!(b_base[k].series, b_first[k].series, "batch plan diverges");
            assert_eq!(
                b_base[k].series, b_replay[k].series,
                "batch replay diverges"
            );
        }
    }

    #[test]
    fn chunked_generation_concatenates_to_one_shot() {
        let (model, ctx) = tiny_model_and_ctx();
        assert!(ctx.len() >= 40, "fixture trajectory too short");
        let short = ctx.slice(0..20);
        let cases: [(&RunContext, u64, usize); 3] = [(&ctx, 71, 1), (&short, 72, 2), (&ctx, 73, 3)];
        for tape in [true, false] {
            crate::with_tape(tape, || {
                for &(c, seed, step) in &cases {
                    let one_shot = {
                        let items = [GenBatchItem { ctx: c, seed }];
                        generate_series_batch(&model, &Kpi::DATASET_A, &items).remove(0)
                    };
                    // Re-generate the same series in chunks of `step` windows,
                    // carrying the cursor across calls; streams sitting at
                    // different absolute positions share each batch.
                    let mut items = vec![GenChunkItem {
                        ctx: c,
                        cursor: GenCursor::fresh(model.cfg(), seed),
                        max_windows: step,
                    }];
                    let total = generation_windows(c, 4, &model.cfg().generation_window()).len();
                    let mut cat: Vec<Vec<f64>> = vec![Vec::new(); 4];
                    while items[0].cursor.next_window < total {
                        let chunk = generate_series_chunk(&model, &Kpi::DATASET_A, &mut items);
                        for (acc, s) in cat.iter_mut().zip(chunk[0].series.iter()) {
                            acc.extend_from_slice(s);
                        }
                    }
                    // Exact f64 equality: chunk N+1 must continue bitwise
                    // where chunk N stopped, on the tape and on plans.
                    assert_eq!(
                        one_shot.series, cat,
                        "chunked concat diverges (tape={tape})"
                    );
                    // A further chunk past the end produces nothing and
                    // leaves the cursor parked.
                    let tail = generate_series_chunk(&model, &Kpi::DATASET_A, &mut items);
                    assert!(tail[0].is_empty());
                    assert_eq!(items[0].cursor.next_window, total);
                }
            });
        }
    }

    #[test]
    fn mixed_position_streams_batch_bitwise_equal() {
        let (model, ctx) = tiny_model_and_ctx();
        let short = ctx.slice(0..20);
        // Solo references: each stream chunked alone.
        let solo = |c: &RunContext, seed: u64, step: usize| -> Vec<Vec<f64>> {
            let mut items = vec![GenChunkItem {
                ctx: c,
                cursor: GenCursor::fresh(model.cfg(), seed),
                max_windows: step,
            }];
            let total = generation_windows(c, 4, &model.cfg().generation_window()).len();
            let mut cat: Vec<Vec<f64>> = vec![Vec::new(); 4];
            while items[0].cursor.next_window < total {
                let chunk = generate_series_chunk(&model, &Kpi::DATASET_A, &mut items);
                for (acc, s) in cat.iter_mut().zip(chunk[0].series.iter()) {
                    acc.extend_from_slice(s);
                }
            }
            cat
        };
        let a_ref = solo(&ctx, 11, 2);
        let b_ref = solo(&short, 12, 1);
        // Joint run: the two streams advance in lock-step batches while
        // sitting at different absolute window positions.
        let mut items = vec![
            GenChunkItem {
                ctx: &ctx,
                cursor: GenCursor::fresh(model.cfg(), 11),
                max_windows: 2,
            },
            GenChunkItem {
                ctx: &short,
                cursor: GenCursor::fresh(model.cfg(), 12),
                max_windows: 1,
            },
        ];
        let mut cats: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 4]; 2];
        for _ in 0..16 {
            let chunks = generate_series_chunk(&model, &Kpi::DATASET_A, &mut items);
            for (cat, chunk) in cats.iter_mut().zip(chunks.iter()) {
                for (acc, s) in cat.iter_mut().zip(chunk.series.iter()) {
                    acc.extend_from_slice(s);
                }
            }
        }
        assert_eq!(cats[0], a_ref, "joint stream A diverges from solo");
        assert_eq!(cats[1], b_ref, "joint stream B diverges from solo");
    }

    #[test]
    fn different_sample_seeds_differ() {
        let (mut model, ctx) = tiny_model_and_ctx();
        let a = generate_series(&mut model, &ctx, &Kpi::DATASET_A, false, 1);
        let b = generate_series(&mut model, &ctx, &Kpi::DATASET_A, false, 2);
        assert_ne!(a.series[0], b.series[0], "stochastic generation collapsed");
    }

    #[test]
    fn uncertainty_is_positive_with_resgen() {
        let (mut model, ctx) = tiny_model_and_ctx();
        let rep = model_uncertainty(&mut model, &ctx, 3, 11);
        assert!(rep.model_uncertainty > 0.0);
        assert!(rep.data_uncertainty > 0.0);
        assert_eq!(rep.samples, 3);
    }

    #[test]
    fn window_count_and_builder_agree_with_training_windows() {
        // gendt-data's training windows rank and gather cells the same way
        // in code of their own: generation windows must match them on
        // everything but the KPI targets and AR seeds.
        let ds = dataset_a(&BuildCfg::quick(47));
        let run = &ds.runs[0];
        let ctx_cfg = ContextCfg {
            max_cells: 3,
            ..ContextCfg::default()
        };
        let ctx = extract(&ds.world, &ds.deployment, &run.traj, &ctx_cfg);
        for stride in [10, 4] {
            let cfg = WindowCfg {
                len: 10,
                stride,
                max_cells: 3,
                ar_context: 4,
            };
            let l = cfg.len;
            assert!(ctx.len() >= 3 * l + 7, "fixture trajectory too short");
            for steps in [0, l - 1, l, l + 1, 3 * l + 7] {
                let sub = ctx.slice(0..steps);
                let mut sub_run = run.clone();
                sub_run.samples.truncate(steps);
                let want = gendt_data::windows::windows(&sub_run, &sub, &Kpi::DATASET_A, &cfg);
                let at = format!("{steps} steps, stride {stride}");
                assert_eq!(generation_window_count(sub.len(), &cfg), want.len(), "{at}");
                assert_eq!(generation_windows(&sub, 4, &cfg).len(), want.len(), "{at}");
                for (i, w) in want.iter().enumerate() {
                    let g = build_generation_window(&sub, 4, &cfg, i);
                    assert_eq!(
                        (g.start, &g.cell_ids, &g.cells, &g.env),
                        (w.start, &w.cell_ids, &w.cells, &w.env),
                        "window {i}, {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn generation_windows_capped_by_length() {
        let (_, ctx) = tiny_model_and_ctx();
        let cfg = WindowCfg {
            len: 10,
            stride: 10,
            max_cells: 3,
            ar_context: 4,
        };
        let wins = generation_windows(&ctx, 4, &cfg);
        assert_eq!(wins.len(), ctx.len() / 10);
        for w in &wins {
            assert!(w.cells.len() <= 3);
            assert_eq!(w.env.len(), 10);
        }
    }
}
