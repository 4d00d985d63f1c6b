//! GenDT training (paper §4.3.5): `L = L_MSE + λ·L_JS` with adversarial
//! training of a single LSTM discriminator.
//!
//! Each step runs two graphs:
//!
//! 1. **Generator step** — forward the generator, forward the
//!    discriminator on `(x', h_avg)`, and minimize
//!    `MSE(x', x) + λ·BCE(D(x'), 1)` (the non-saturating GAN form). The
//!    discriminator's gradients from this graph are discarded.
//! 2. **Discriminator step** — with the generated values as constants,
//!    minimize `BCE(D(x), 1) + BCE(D(x'), 0)`.
//!
//! The trainer also tracks the per-step statistics of ResGen's `(μ, σ)`
//! outputs — the raw material of the paper's model-uncertainty measure.

use crate::cfg::GenDtCfg;
use crate::discriminator::Discriminator;
use crate::generator::{ArMode, CarryState, ForwardOut, Generator};
use gendt_data::windows::Window;
use gendt_nn::{Adam, Graph, Matrix, NodeId, ParamStore, PlanCache, PlanKey, Rng};
use serde::{Deserialize, Serialize};

/// Loss trace of one training step.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StepTrace {
    /// Supervised MSE term.
    pub mse: f32,
    /// Adversarial generator term (before λ).
    pub gan_g: f32,
    /// Discriminator loss.
    pub gan_d: f32,
    /// Mean of ResGen σ over the batch (data-uncertainty proxy).
    pub sigma_mean: f32,
}

/// A trained (or in-training) GenDT model.
pub struct GenDt {
    /// Generator (owns its parameters).
    pub generator: Generator,
    /// Discriminator (owns its parameters).
    pub discriminator: Discriminator,
    /// Loss history, one entry per training step.
    pub trace: Vec<StepTrace>,
    // pub(crate) so `checkpoint` can snapshot/restore the full training
    // state (optimizer moments + RNG) for bitwise-identical resume.
    pub(crate) opt_g: Adam,
    pub(crate) opt_d: Adam,
    pub(crate) rng: Rng,
    /// Compiled execution plans keyed by graph shape: the train and
    /// generate hot paths record each new shape once, then replay it.
    pub(crate) plans: PlanCache,
    /// Per-shard gradient stores, cloned once and reused every step
    /// (re-cloning the full parameter store per shard per step serialized
    /// sharded training on the allocator).
    shard_grads: Vec<ParamStore>,
}

impl GenDt {
    /// Initialize an untrained model from a configuration.
    pub fn new(cfg: GenDtCfg) -> Self {
        let mut rng = Rng::seed_from(cfg.seed);
        let generator = Generator::new(cfg.clone(), &mut rng);
        let discriminator = Discriminator::new(&cfg, &mut rng);
        let opt_g = Adam::new(cfg.lr_g);
        let opt_d = Adam::new(cfg.lr_d);
        GenDt {
            generator,
            discriminator,
            trace: Vec::new(),
            opt_g,
            opt_d,
            rng,
            plans: PlanCache::new(),
            shard_grads: Vec::new(),
        }
    }

    /// Model configuration.
    pub fn cfg(&self) -> &GenDtCfg {
        &self.generator.cfg
    }

    /// Run `cfg.steps` training steps over a pool of training windows.
    /// Windows are sampled uniformly per step.
    pub fn train(&mut self, pool: &[Window]) {
        let steps = self.cfg().steps;
        for _ in 0..steps {
            self.train_step(pool);
        }
    }

    /// One training step (one generator update + one discriminator
    /// update) on a random mini-batch from `pool`.
    ///
    /// The generator's forward/backward is data-parallel: the batch is
    /// split into `cfg.train_shards` fixed contiguous row ranges, each
    /// shard runs on its own graph (on a worker thread when more than
    /// one is configured) with an RNG stream derived from a per-step
    /// seed and its shard index, and the shard gradients are reduced
    /// into the parameter store in shard order. Partitioning, RNG
    /// streams, and reduction order all depend only on the
    /// configuration — never on the thread count — so a step is
    /// bitwise reproducible for any `GENDT_THREADS`.
    ///
    /// # Panics
    /// Panics if `pool` is empty.
    pub fn train_step(&mut self, pool: &[Window]) -> StepTrace {
        gendt_trace::span!("train_step");
        assert!(!pool.is_empty(), "empty training pool");
        let bsz = self.cfg().batch_size.min(pool.len());
        let batch: Vec<&Window> = (0..bsz)
            .map(|_| &pool[self.rng.gen_range(pool.len())])
            .collect();
        let l = batch[0].env.len();
        let n_ch = self.cfg().n_ch;
        let m = self.cfg().window.ar_context;
        let lambda = self.cfg().lambda_gan;
        let use_gan = self.cfg().ablation.gan_loss;

        // Real targets per step as B x n_ch matrices.
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

        // Fixed contiguous shard ranges: shape-derived, thread-agnostic.
        let n_shards = self.cfg().train_shards.clamp(1, bsz);
        let (base, rem) = (bsz / n_shards, bsz % n_shards);
        let mut ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(n_shards);
        let mut start = 0usize;
        for s in 0..n_shards {
            let len = base + usize::from(s < rem);
            ranges.push(start..start + len);
            start += len;
        }
        // One sequential draw per step seeds every shard's private stream.
        let step_seed = self.rng.next_u64();

        // ---------------- Generator step -----------------------------
        self.generator.store.zero_grad();
        self.discriminator.store.zero_grad();
        // Scheduled sampling: alternate teacher forcing with free-running
        // steps so the autoregressive ResGen is trained in the regime it
        // generates in (otherwise the free-run distribution drifts).
        let ar_mode = if self.trace.len().is_multiple_of(2) {
            ArMode::TeacherForced
        } else {
            ArMode::FreeRunning
        };

        struct ShardOut {
            mse: f32,
            gan_g: f32,
            sigma_mean: f32,
            fake_steps: Vec<Matrix>,
            ctx_steps: Vec<Matrix>,
        }

        // Reuse the per-shard gradient stores across steps (cloning the
        // full parameter store per shard per step was the dominant
        // allocation of sharded training); zeroed inside each shard.
        while self.shard_grads.len() < n_shards {
            self.shard_grads.push(self.generator.store.clone());
        }
        let mut shard_grads = std::mem::take(&mut self.shard_grads);

        let plans = &self.plans;
        let generator = &self.generator;
        let discriminator = &self.discriminator;
        let run_shard = |s: usize, grads: &mut ParamStore| -> ShardOut {
            let range = ranges[s].clone();
            let shard: &[&Window] = &batch[range.clone()];
            let bs_s = shard.len();
            // Shard weight: shard losses are row means, so scaling by
            // bs_s/B makes the shard sum equal the full-batch mean loss
            // (and its gradient).
            let w_s = bs_s as f32 / bsz as f32;
            let mut rng =
                Rng::seed_from(step_seed ^ (s as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            // Carry state: windows are sampled independently, so carry
            // uses the windows' own AR seeds with zero LSTM state.
            let mut carry = CarryState::zeros(&generator.cfg, bs_s);
            for (bi, w) in shard.iter().enumerate() {
                for ch in 0..n_ch {
                    for k in 0..m {
                        carry.ar_tail.data[bi * n_ch * m + ch * m + k] = w.ar_seed[ch][k];
                    }
                }
            }
            // Replay the compiled plan for this shard shape, or record it.
            let key = PlanKey::new(
                "train_g",
                [
                    bs_s as u64,
                    l as u64,
                    crate::generator::batch_max_cells(shard) as u64,
                    u64::from(matches!(ar_mode, ArMode::FreeRunning)),
                    u64::from(use_gan),
                    0,
                ],
            );
            plans.run(key, |g| {
                let fwd: ForwardOut = generator.forward(g, shard, &carry, ar_mode, true, &mut rng);
                // MSE across steps, on this shard's target rows.
                let mut mse_terms: Vec<(NodeId, f32)> = Vec::with_capacity(l);
                for (t, &out) in fwd.outputs.iter().enumerate() {
                    let rows = &real_steps[t].data[range.start * n_ch..range.end * n_ch];
                    let target = g.input(Matrix::from_vec(bs_s, n_ch, rows.to_vec()));
                    let mse_t = g.mse_loss(out, target);
                    mse_terms.push((mse_t, 1.0 / l as f32));
                }
                let mse_node = g.weighted_sum(mse_terms);
                let sigma_mean = if fwd.res_sigma.is_empty() {
                    0.0
                } else {
                    fwd.res_sigma
                        .iter()
                        .map(|&sg| g.value(sg).mean())
                        .sum::<f32>()
                        / fwd.res_sigma.len() as f32
                };
                let (loss_node, gan_g_val) = if use_gan {
                    let logit = discriminator.forward(g, &fwd.outputs, &fwd.h_avg, true);
                    let rows = g.value(logit).rows;
                    let gan_g = g.bce_with_logits(logit, Matrix::full(rows, 1, 1.0));
                    let v = g.value(gan_g).data[0];
                    (
                        g.weighted_sum(vec![(mse_node, w_s), (gan_g, lambda * w_s)]),
                        v,
                    )
                } else {
                    (g.weighted_sum(vec![(mse_node, w_s)]), 0.0)
                };
                let mse_val = g.value(mse_node).data[0];
                // Backward into this shard's private store; the trainer
                // reduces the stores in shard order afterwards.
                grads.zero_grad();
                g.backward(loss_node, grads);
                let out = ShardOut {
                    mse: w_s * mse_val,
                    gan_g: w_s * gan_g_val,
                    sigma_mean: w_s * sigma_mean,
                    fake_steps: fwd.outputs.iter().map(|&o| g.value(o).clone()).collect(),
                    ctx_steps: fwd.h_avg.iter().map(|&hn| g.value(hn).clone()).collect(),
                };
                (out, Some(loss_node))
            })
        };

        let mut shard_outs: Vec<Option<ShardOut>> = (0..n_shards).map(|_| None).collect();
        if n_shards == 1 || gendt_nn::num_threads() <= 1 {
            for (s, (slot, grads)) in shard_outs
                .iter_mut()
                .zip(shard_grads.iter_mut())
                .enumerate()
            {
                *slot = Some(run_shard(s, grads));
            }
        } else {
            // Shard 0 runs on this thread, the others on spawned ones.
            // The allocator keeps a heap per thread, and a spawned thread
            // takes over the heap of an exited one in no fixed order:
            // running shard 0 here keeps its recordings and arenas in
            // one heap from step to step, so each reuses the memory the
            // last one freed instead of growing another heap.
            let run_shard = &run_shard;
            rayon::scope(|sc| {
                let mut shards = shard_outs.iter_mut().zip(shard_grads.iter_mut());
                let first = shards.next();
                for (s, (slot, grads)) in shards.enumerate() {
                    sc.spawn(move |_| *slot = Some(run_shard(s + 1, grads)));
                }
                if let Some((slot, grads)) = first {
                    *slot = Some(run_shard(0, grads));
                }
            });
        }
        let shard_outs: Vec<ShardOut> = shard_outs.into_iter().flatten().collect();
        assert_eq!(shard_outs.len(), n_shards, "a generator shard did not run");

        // Shard-order reduction: deterministic regardless of which worker
        // finished first.
        let mut mse_val = 0.0;
        let mut gan_g_val = 0.0;
        let mut sigma_mean = 0.0;
        for (out, grads) in shard_outs.iter().zip(shard_grads.iter()) {
            self.generator.store.accumulate_grads_from(grads);
            mse_val += out.mse;
            gan_g_val += out.gan_g;
            sigma_mean += out.sigma_mean;
        }
        self.shard_grads = shard_grads;
        // Under GENDT_SANITIZE the per-op checks inside each shard graph
        // already caught non-finite values at their birthplace; this
        // final check covers the cross-shard reduction itself and names
        // the offending parameter, before scrubbing can hide it.
        if gendt_nn::sanitize_enabled() {
            for p in self.generator.store.iter() {
                assert!(
                    !p.grad.has_non_finite(),
                    "GENDT_SANITIZE: non-finite reduced gradient for generator param {:?} \
                     (shape {}x{})",
                    p.name,
                    p.grad.rows,
                    p.grad.cols
                );
            }
        }
        self.generator.store.scrub_non_finite_grads();
        let grad_norm_g = self.generator.store.clip_grad_norm(self.cfg().grad_clip);
        // Telemetry-only parameter snapshot: the per-step update magnitude
        // is the L2 distance the optimizer moves the generator weights.
        let pre_step: Option<Vec<Vec<f32>>> = gendt_trace::trace_enabled().then(|| {
            self.generator
                .store
                .iter()
                .map(|p| p.value.data.clone())
                .collect()
        });
        self.opt_g.step(&mut self.generator.store);
        let update_norm_g = pre_step
            .map(|pre| {
                let mut acc = 0.0f64;
                for (p, old) in self.generator.store.iter().zip(pre.iter()) {
                    for (&w, &o) in p.value.data.iter().zip(old.iter()) {
                        let d = f64::from(w - o);
                        acc += d * d;
                    }
                }
                acc.sqrt()
            })
            .unwrap_or(0.0);

        // ---------------- Discriminator step -------------------------
        let (gan_d_val, grad_norm_d) = if use_gan {
            // Reassemble full-batch fakes/contexts from the contiguous
            // shard rows, in shard order.
            let stack = |pick: &dyn Fn(&ShardOut) -> &Vec<Matrix>| -> Vec<Matrix> {
                (0..l)
                    .map(|t| {
                        let cols = pick(&shard_outs[0])[t].cols;
                        let mut full = Matrix::zeros(bsz, cols);
                        for (out, range) in shard_outs.iter().zip(ranges.iter()) {
                            full.data[range.start * cols..range.end * cols]
                                .copy_from_slice(&pick(out)[t].data);
                        }
                        full
                    })
                    .collect()
            };
            let fake_steps = stack(&|o: &ShardOut| &o.fake_steps);
            let ctx_steps = stack(&|o: &ShardOut| &o.ctx_steps);
            let key = PlanKey::new("train_d", [bsz as u64, l as u64, 0, 0, 0, 0]);
            let v = self.plans.run(key, |gd| {
                let real_nodes: Vec<NodeId> =
                    real_steps.iter().map(|mtx| gd.input(mtx.clone())).collect();
                let fake_nodes: Vec<NodeId> =
                    fake_steps.iter().map(|mtx| gd.input(mtx.clone())).collect();
                let ctx_nodes: Vec<NodeId> =
                    ctx_steps.iter().map(|mtx| gd.input(mtx.clone())).collect();
                let logit_r = self
                    .discriminator
                    .forward(gd, &real_nodes, &ctx_nodes, false);
                let logit_f = self
                    .discriminator
                    .forward(gd, &fake_nodes, &ctx_nodes, false);
                let loss_r = gd.bce_with_logits(logit_r, Matrix::full(bsz, 1, 1.0));
                let loss_f = gd.bce_with_logits(logit_f, Matrix::full(bsz, 1, 0.0));
                let loss_d = gd.weighted_sum(vec![(loss_r, 0.5), (loss_f, 0.5)]);
                let v = gd.value(loss_d).data[0];
                gd.backward(loss_d, &mut self.discriminator.store);
                (v, Some(loss_d))
            });
            self.discriminator.store.scrub_non_finite_grads();
            let norm = self
                .discriminator
                .store
                .clip_grad_norm(self.cfg().grad_clip);
            self.opt_d.step(&mut self.discriminator.store);
            (v, norm)
        } else {
            (0.0, 0.0)
        };

        let trace = StepTrace {
            mse: mse_val,
            gan_g: gan_g_val,
            gan_d: gan_d_val,
            sigma_mean,
        };
        if gendt_trace::trace_enabled() {
            let u_model = self.mc_uncertainty_probe(batch[0], step_seed);
            gendt_trace::Record::new("train_step")
                .int("step", self.trace.len() as i64)
                .num("l_mse", f64::from(mse_val))
                .num("l_js", f64::from(gan_g_val))
                .num("lambda_l_js", f64::from(lambda * gan_g_val))
                .num("l_d", f64::from(gan_d_val))
                .num("sigma_mean", f64::from(sigma_mean))
                .num("grad_norm_g", f64::from(grad_norm_g))
                .num("grad_norm_d", f64::from(grad_norm_d))
                .num("update_norm_g", update_norm_g)
                .num("u_model", u_model)
                .emit();
        }
        self.trace.push(trace);
        trace
    }

    /// `U(G_θ)` estimated from two MC-dropout passes over one batch
    /// window (paper §6.2.1, restricted to a single window so the cost
    /// stays a small constant per traced step). The passes use their own
    /// RNG streams derived from `step_seed` — never the trainer RNG — so
    /// enabling telemetry cannot perturb the training trajectory.
    fn mc_uncertainty_probe(&self, w: &Window, step_seed: u64) -> f64 {
        let n_ch = self.cfg().n_ch;
        let m = self.cfg().window.ar_context;
        let run = |s: u64| -> (Vec<f32>, Vec<f32>) {
            let mut rng = Rng::seed_from(step_seed ^ ((s + 1) << 32));
            let mut carry = CarryState::zeros(self.cfg(), 1);
            for ch in 0..n_ch {
                for k in 0..m {
                    carry.ar_tail.data[ch * m + k] = w.ar_seed[ch][k];
                }
            }
            let mut g = Graph::new();
            let fwd =
                self.generator
                    .forward(&mut g, &[w], &carry, ArMode::FreeRunning, true, &mut rng);
            let mut mu = Vec::new();
            let mut sg = Vec::new();
            for (&mn, &sn) in fwd.res_mu.iter().zip(fwd.res_sigma.iter()) {
                mu.extend_from_slice(&g.value(mn).data);
                sg.extend_from_slice(&g.value(sn).data);
            }
            (mu, sg)
        };
        let (mu_a, sg_a) = run(0);
        let (mu_b, sg_b) = run(1);
        let t_len = mu_a.len().min(mu_b.len());
        if t_len == 0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for t in 0..t_len {
            acc += gendt_metrics::std_dev(&[f64::from(mu_a[t]), f64::from(mu_b[t])])
                + gendt_metrics::std_dev(&[f64::from(sg_a[t]), f64::from(sg_b[t])]);
        }
        acc / t_len as f64
    }

    /// Borrow the internal RNG (generation utilities need it).
    pub fn rng_mut(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendt_data::builders::{dataset_a, BuildCfg};
    use gendt_data::context::{extract, ContextCfg};
    use gendt_data::kpi_types::Kpi;
    use gendt_data::windows::windows as make_windows;

    fn tiny_cfg() -> GenDtCfg {
        let mut c = GenDtCfg::fast(4, 7);
        c.hidden = 8;
        c.resgen_hidden = 8;
        c.disc_hidden = 6;
        c.window.len = 10;
        c.window.stride = 5;
        c.window.max_cells = 3;
        c.batch_size = 4;
        c.steps = 5;
        c
    }

    fn training_pool(cfg: &GenDtCfg) -> Vec<Window> {
        let ds = dataset_a(&BuildCfg::quick(43));
        let mut pool = Vec::new();
        for run in ds.runs.iter().take(3) {
            let ctx = extract(
                &ds.world,
                &ds.deployment,
                &run.traj,
                &ContextCfg {
                    max_cells: cfg.window.max_cells,
                    ..ContextCfg::default()
                },
            );
            pool.extend(make_windows(run, &ctx, &Kpi::DATASET_A, &cfg.window));
        }
        pool
    }

    #[test]
    fn training_runs_and_traces() {
        let cfg = tiny_cfg();
        let pool = training_pool(&cfg);
        let mut model = GenDt::new(cfg);
        model.train(&pool);
        assert_eq!(model.trace.len(), 5);
        for t in &model.trace {
            assert!(t.mse.is_finite());
            assert!(t.gan_d.is_finite());
            assert!(t.sigma_mean > 0.0, "ResGen sigma should be positive");
        }
    }

    #[test]
    fn mse_decreases_over_training() {
        let mut cfg = tiny_cfg();
        cfg.steps = 60;
        let pool = training_pool(&cfg);
        let mut model = GenDt::new(cfg);
        model.train(&pool);
        let early: f32 = model.trace[..10].iter().map(|t| t.mse).sum::<f32>() / 10.0;
        let late: f32 = model.trace[model.trace.len() - 10..]
            .iter()
            .map(|t| t.mse)
            .sum::<f32>()
            / 10.0;
        assert!(
            late < early,
            "MSE did not improve: early {early}, late {late}"
        );
    }

    #[test]
    fn gan_ablation_skips_discriminator() {
        let mut cfg = tiny_cfg();
        cfg.ablation.gan_loss = false;
        let pool = training_pool(&cfg);
        let mut model = GenDt::new(cfg);
        let t = model.train_step(&pool);
        assert_eq!(t.gan_g, 0.0);
        assert_eq!(t.gan_d, 0.0);
    }

    #[test]
    fn sharded_training_is_thread_count_invariant() {
        let cfg = tiny_cfg(); // train_shards = 2, batch_size = 4
        assert!(cfg.train_shards > 1, "test must exercise the sharded path");
        let pool = training_pool(&cfg);
        let mut runs: Vec<Vec<Vec<f32>>> = Vec::new();
        for threads in [1, 4] {
            gendt_nn::set_num_threads(threads);
            let mut model = GenDt::new(cfg.clone());
            model.train(&pool);
            runs.push(
                model
                    .generator
                    .store
                    .iter()
                    .map(|p| p.value.data.clone())
                    .collect(),
            );
        }
        gendt_nn::set_num_threads(1);
        assert_eq!(
            runs[0], runs[1],
            "trained weights depend on the thread count"
        );
    }

    #[test]
    fn plan_mode_training_is_bitwise_equal_to_interpreted() {
        let mut cfg = tiny_cfg();
        cfg.steps = 8; // several steps so compiled plans replay from cache
        let pool = training_pool(&cfg);
        type RunSnapshot = (Vec<Vec<f32>>, Vec<Vec<f32>>, Vec<f32>);
        let mut runs: Vec<RunSnapshot> = Vec::new();
        for tape in [true, false] {
            let mut model = GenDt::new(cfg.clone());
            crate::with_tape(tape, || model.train(&pool));
            runs.push((
                model
                    .generator
                    .store
                    .iter()
                    .map(|p| p.value.data.clone())
                    .collect(),
                model
                    .discriminator
                    .store
                    .iter()
                    .map(|p| p.value.data.clone())
                    .collect(),
                model.trace.iter().map(|t| t.mse).collect(),
            ));
        }
        assert_eq!(
            runs[0].0, runs[1].0,
            "generator weights diverge under plans"
        );
        assert_eq!(
            runs[0].1, runs[1].1,
            "discriminator weights diverge under plans"
        );
        assert_eq!(runs[0].2, runs[1].2, "training trace diverges under plans");
    }

    #[test]
    fn warm_training_cache_holds_one_weight_copy_per_store() {
        let cfg = tiny_cfg();
        // Windows that all see `max_cells` cells give every shard one
        // batch shape: one teacher-forced and one free-running key.
        let pool: Vec<Window> = training_pool(&cfg)
            .into_iter()
            .filter(|w| w.cells.len() == cfg.window.max_cells)
            .collect();
        assert!(pool.len() >= cfg.batch_size, "too few full windows");
        let mut model = GenDt::new(cfg);
        for _ in 0..4 {
            model.train_step(&pool);
        }
        let stats = model.plans.stats();
        // Both shard keys, and the discriminator step's.
        assert_eq!(stats.programs, 3, "{stats:?}");
        // Shard programs read the generator's store, the discriminator
        // step's program the discriminator's.
        assert_eq!(stats.weight_copies, 2, "{stats:?}");
        // An arena per shard running at once, lent again by every step.
        assert!((1..=2).contains(&stats.arenas), "{stats:?}");
    }

    #[test]
    fn weights_stay_finite() {
        let cfg = tiny_cfg();
        let pool = training_pool(&cfg);
        let mut model = GenDt::new(cfg);
        model.train(&pool);
        for p in model.generator.store.iter() {
            assert!(
                !p.value.has_non_finite(),
                "param {} went non-finite",
                p.name
            );
        }
        for p in model.discriminator.store.iter() {
            assert!(
                !p.value.has_non_finite(),
                "param {} went non-finite",
                p.name
            );
        }
    }
}
