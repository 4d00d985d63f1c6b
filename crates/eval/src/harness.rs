//! Shared experiment harness: dataset builds, train/test splits, per-run
//! context extraction, and one trained instance of each method per
//! dataset. Every table/figure module draws from this bundle so the whole
//! evaluation uses consistent models and splits.

use gendt::cfg::GenDtCfg;
use gendt::generate::generate_series;
use gendt::trainer::GenDt;
use gendt_baselines::{DgCfg, DgMode, DoppelGanger, Fdas, LstmGnn, MlpBaseline};
use gendt_data::builders::{dataset_a, dataset_b, BuildCfg};
use gendt_data::context::{extract, ContextCfg, RunContext};
use gendt_data::kpi_types::Kpi;
use gendt_data::run::Dataset;
use gendt_data::windows::{windows as make_windows, Window};
use gendt_metrics::Fidelity;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Global evaluation configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EvalCfg {
    /// Quick mode: smaller datasets and fewer training steps. Used by
    /// tests and CI; full mode produces the EXPERIMENTS.md numbers.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Output directory for reports.
    pub out_dir: PathBuf,
}

impl EvalCfg {
    /// Quick-mode configuration.
    pub fn quick(seed: u64) -> Self {
        EvalCfg {
            quick: true,
            seed,
            out_dir: PathBuf::from("results"),
        }
    }

    /// Full-mode configuration.
    pub fn full(seed: u64) -> Self {
        EvalCfg {
            quick: false,
            seed,
            out_dir: PathBuf::from("results"),
        }
    }

    /// Dataset build config for this mode.
    pub fn build_cfg(&self) -> BuildCfg {
        let mut b = BuildCfg::full(self.seed);
        b.scale = if self.quick { 0.08 } else { 0.30 };
        b
    }

    /// GenDT model config for this mode.
    pub fn gendt_cfg(&self, n_ch: usize) -> GenDtCfg {
        let mut c = GenDtCfg::fast(n_ch, self.seed);
        if self.quick {
            c.hidden = 16;
            c.resgen_hidden = 16;
            c.disc_hidden = 8;
            c.window.len = 20;
            c.window.stride = 5;
            c.window.max_cells = 4;
            c.steps = 40;
            c.batch_size = 6;
        } else {
            c.hidden = 48;
            c.steps = 1200;
        }
        c
    }

    /// Context-extraction config matched to the model config.
    pub fn ctx_cfg(&self, model: &GenDtCfg) -> ContextCfg {
        ContextCfg {
            max_cells: model.window.max_cells,
            ..ContextCfg::default()
        }
    }
}

/// The method column of the fidelity tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Method {
    /// The full GenDT model.
    GenDt,
    /// Fit-distribution-and-sample.
    Fdas,
    /// Per-step MLP regression.
    Mlp,
    /// LSTM-GNN prediction model.
    LstmGnn,
    /// Original two-stage DoppelGANger.
    OrigDg,
    /// Real-context DoppelGANger.
    RealCtxDg,
}

impl Method {
    /// All methods in table order.
    pub const ALL: [Method; 6] = [
        Method::GenDt,
        Method::Fdas,
        Method::Mlp,
        Method::LstmGnn,
        Method::OrigDg,
        Method::RealCtxDg,
    ];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Method::GenDt => "GenDT",
            Method::Fdas => "FDaS",
            Method::Mlp => "MLP",
            Method::LstmGnn => "LSTM-GNN",
            Method::OrigDg => "Orig. DG",
            Method::RealCtxDg => "Real Cont. DG",
        }
    }
}

/// A dataset with split indices, per-run contexts, and trained models.
pub struct Bundle {
    /// The underlying dataset.
    pub ds: Dataset,
    /// Indices of training runs.
    pub train_idx: Vec<usize>,
    /// Indices of held-out test runs.
    pub test_idx: Vec<usize>,
    /// Context per run (aligned with `ds.runs`).
    pub contexts: Vec<RunContext>,
    /// Pooled training windows (training runs only).
    pub train_pool: Vec<Window>,
    /// KPI channels of this dataset.
    pub kpis: Vec<Kpi>,
    /// Trained GenDT.
    pub gendt: GenDt,
    /// Fitted FDaS.
    pub fdas: Fdas,
    /// Trained MLP baseline.
    pub mlp: MlpBaseline,
    /// Trained LSTM-GNN baseline.
    pub lstm_gnn: LstmGnn,
    /// Trained original DG.
    pub dg_orig: DoppelGanger,
    /// Trained real-context DG.
    pub dg_real: DoppelGanger,
    /// The GenDT config used.
    pub model_cfg: GenDtCfg,
}

impl Bundle {
    /// Build and train everything for one dataset.
    pub fn build(cfg: &EvalCfg, ds: Dataset) -> Bundle {
        let kpis = ds.kpis.clone();
        let model_cfg = cfg.gendt_cfg(kpis.len());
        let mut ctx_cfg = cfg.ctx_cfg(&model_cfg);
        ctx_cfg.coord_scale_m = ds.world.cfg.extent_m;

        // Geographic split: 25 % of runs held out, 800 m separation.
        let split = gendt_data::split::geographic_split(&ds.runs, 0.25, 800.0);
        // Convert references back to indices.
        let idx_of = |r: &gendt_data::run::Run| -> usize {
            ds.runs
                .iter()
                .position(|q| std::ptr::eq(q, r))
                .expect("run belongs to dataset")
        };
        let train_idx: Vec<usize> = split.train.iter().map(|r| idx_of(r)).collect();
        let test_idx: Vec<usize> = split.test.iter().map(|r| idx_of(r)).collect();

        let contexts: Vec<RunContext> = ds
            .runs
            .iter()
            .map(|r| extract(&ds.world, &ds.deployment, &r.traj, &ctx_cfg))
            .collect();

        let mut train_pool = Vec::new();
        for &i in &train_idx {
            train_pool.extend(make_windows(
                &ds.runs[i],
                &contexts[i],
                &kpis,
                &model_cfg.training_window(),
            ));
        }

        // --- GenDT ---
        let mut gendt = GenDt::new(model_cfg.clone());
        gendt.train(&train_pool);

        // --- FDaS ---
        let training_series: Vec<Vec<f64>> = kpis
            .iter()
            .map(|&k| {
                train_idx
                    .iter()
                    .flat_map(|&i| ds.runs[i].series(k))
                    .collect()
            })
            .collect();
        let fdas = Fdas::fit(&kpis, &training_series);

        // --- MLP ---
        let mut mlp = MlpBaseline::new(&kpis, if cfg.quick { 16 } else { 48 }, cfg.seed ^ 2);
        mlp.epochs = if cfg.quick { 4 } else { 20 };
        {
            let ctx_refs: Vec<&RunContext> = train_idx.iter().map(|&i| &contexts[i]).collect();
            let targets: Vec<Vec<Vec<f64>>> = train_idx
                .iter()
                .map(|&i| kpis.iter().map(|&k| ds.runs[i].series(k)).collect())
                .collect();
            mlp.fit(&ctx_refs, &targets);
        }

        // --- LSTM-GNN ---
        let mut lg_cfg = model_cfg.clone();
        lg_cfg.seed = cfg.seed ^ 3;
        let mut lstm_gnn = LstmGnn::new(&lg_cfg);
        // LSTM-GNN trains on non-overlapping windows (its own ablation
        // regenerates them internally via training_window()); reuse the
        // pool for simplicity — overlap only adds data, the model ignores
        // the stride.
        lstm_gnn.train(&train_pool);

        // --- DG (both modes) ---
        let mut dg_cfg = DgCfg::fast(DgMode::Original, kpis.len(), cfg.seed ^ 4);
        dg_cfg.window = model_cfg.window;
        dg_cfg.hidden = model_cfg.hidden;
        dg_cfg.steps = model_cfg.steps;
        dg_cfg.batch_size = model_cfg.batch_size;
        let mut dg_orig = DoppelGanger::new(dg_cfg.clone());
        dg_orig.train(&train_pool);
        let mut dg_real_cfg = dg_cfg.clone();
        dg_real_cfg.mode = DgMode::RealContext;
        dg_real_cfg.seed = cfg.seed ^ 5;
        let mut dg_real = DoppelGanger::new(dg_real_cfg);
        dg_real.train(&train_pool);

        Bundle {
            ds,
            train_idx,
            test_idx,
            contexts,
            train_pool,
            kpis,
            gendt,
            fdas,
            mlp,
            lstm_gnn,
            dg_orig,
            dg_real,
            model_cfg,
        }
    }

    /// Build the Dataset-A bundle.
    pub fn dataset_a(cfg: &EvalCfg) -> Bundle {
        Self::build(cfg, dataset_a(&cfg.build_cfg()))
    }

    /// Build the Dataset-B bundle.
    pub fn dataset_b(cfg: &EvalCfg) -> Bundle {
        Self::build(cfg, dataset_b(&cfg.build_cfg()))
    }

    /// Generate a method's series for a run context, in physical units,
    /// `[n_kpis][T']`. Series lengths differ per method (GenDT-family
    /// methods emit `⌊T/L⌋·L` samples); callers truncate to align.
    pub fn generate(&mut self, method: Method, ctx: &RunContext, seed: u64) -> Vec<Vec<f64>> {
        match method {
            Method::GenDt => generate_series(&mut self.gendt, ctx, &self.kpis, false, seed).series,
            Method::Fdas => self.fdas.generate(ctx.len(), seed),
            Method::Mlp => self.mlp.generate(ctx),
            Method::LstmGnn => self.lstm_gnn.generate(ctx, &self.kpis, seed).series,
            Method::OrigDg => self.dg_orig.generate(ctx, &self.kpis, seed),
            Method::RealCtxDg => self.dg_real.generate(ctx, &self.kpis, seed),
        }
    }

    /// Fidelity of a method on one test run and KPI.
    pub fn fidelity(
        &mut self,
        method: Method,
        run_idx: usize,
        kpi: Kpi,
        seed: u64,
    ) -> Option<Fidelity> {
        let ctx = self.contexts[run_idx].clone();
        let gen = self.generate(method, &ctx, seed);
        let ch = self.kpis.iter().position(|&k| k == kpi)?;
        let gen_series = &gen[ch];
        if gen_series.is_empty() {
            return None;
        }
        let real = self.ds.runs[run_idx].series(kpi);
        let n = real.len().min(gen_series.len());
        Some(Fidelity::compute(&real[..n], &gen_series[..n]))
    }

    /// Average fidelity of a method over a set of runs for one KPI.
    pub fn avg_fidelity(
        &mut self,
        method: Method,
        run_idxs: &[usize],
        kpi: Kpi,
        seed: u64,
    ) -> Fidelity {
        let items: Vec<Fidelity> = run_idxs
            .iter()
            .enumerate()
            .filter_map(|(k, &i)| self.fidelity(method, i, kpi, seed ^ ((k as u64 + 1) << 8)))
            .collect();
        Fidelity::average(&items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_eval_cfg() -> EvalCfg {
        let mut c = EvalCfg::quick(101);
        c.out_dir = std::env::temp_dir().join("gendt-harness-test");
        c
    }

    #[test]
    fn bundle_builds_and_generates_all_methods() {
        let cfg = tiny_eval_cfg();
        let mut b = Bundle::dataset_a(&cfg);
        assert!(!b.train_idx.is_empty());
        assert!(!b.test_idx.is_empty());
        assert!(!b.train_pool.is_empty());
        let test_run = b.test_idx[0];
        for m in Method::ALL {
            let f = b.fidelity(m, test_run, Kpi::Rsrp, 7);
            let f = f.expect("method produced output");
            assert!(f.mae.is_finite() && f.mae > 0.0, "{m:?} MAE {}", f.mae);
            assert!(f.hwd.is_finite());
        }
    }
}
