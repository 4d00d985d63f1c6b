//! # gendt — the GenDT conditional generative model
//!
//! Reproduction of the GenDT model from "GenDT: Mobile Network Drive
//! Testing Made Efficient with Generative Modeling" (CoNEXT 2022): a
//! conditional deep generative model that synthesizes multivariate radio
//! KPI time series (RSRP, RSRQ, SINR, CQI, serving cell) for a drive-test
//! trajectory, conditioned on network context (potential serving cells)
//! and environment context (land use / points of interest).
//!
//! Components:
//!
//! * [`cfg`] — model configuration and the Table-12 ablation switches.
//! * [`generator`] — GNN-node LSTM, aggregation network, and ResGen
//!   (paper §4.3.1–4.3.2), with SRNN stochastic layers (§4.3.4).
//! * [`discriminator`] — the LSTM density-ratio estimator (§4.3.5).
//! * [`trainer`] — combined `MSE + λ·GAN` training.
//! * [`generate`] — batch generation with cross-window state carry, and
//!   MC-dropout model uncertainty (§6.2.1).
//! * [`active`] — uncertainty-driven measurement selection (§6.2.2).
//! * [`checkpoint`] — save/load trained models (the §7.1 pretrained model).
//! * [`transfer`] — the §7.1 / Fig. 14 region-transfer retraining loop.
//!
//! ## Quickstart
//!
//! ```no_run
//! use gendt::{GenDt, GenDtCfg, generate_series};
//! use gendt_data::{dataset_a, extract, windows, BuildCfg, ContextCfg, Kpi};
//!
//! let ds = dataset_a(&BuildCfg::quick(42));
//! let cfg = GenDtCfg::fast(4, 42);
//! let ctx_cfg = ContextCfg { max_cells: cfg.window.max_cells, ..Default::default() };
//! let mut pool = Vec::new();
//! for run in &ds.runs {
//!     let ctx = extract(&ds.world, &ds.deployment, &run.traj, &ctx_cfg);
//!     pool.extend(windows(run, &ctx, &Kpi::DATASET_A, &cfg.window));
//! }
//! let mut model = GenDt::new(cfg);
//! model.train(&pool);
//! // Generate KPIs for a new, unseen trajectory:
//! let new_ctx = extract(&ds.world, &ds.deployment, &ds.runs[0].traj, &ctx_cfg);
//! let series = generate_series(&mut model, &new_ctx, &Kpi::DATASET_A, false, 7);
//! println!("generated {} RSRP samples", series.channel(Kpi::Rsrp).unwrap().len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod cfg;
pub mod checkpoint;
pub mod discriminator;
pub mod generate;
pub mod generator;
pub mod trainer;
pub mod transfer;

pub use active::{run_selection, ActiveConfig, SelectionPoint, SelectionPolicy};
pub use cfg::{Ablation, GenDtCfg, GenDtCfgBuilder};
pub use checkpoint::{
    load_model, load_model_from_file, load_train_checkpoint, parse_train_checkpoint, restore_train,
    resume_latest, save_model, save_model_to_file, save_train, save_train_checkpoint,
    ModelCheckpoint, TrainCheckpoint, LATEST_POINTER,
};
pub use discriminator::Discriminator;
pub use generate::{
    generate_series, generate_series_batch, generate_series_chunk, generation_window_count,
    generation_windows, model_uncertainty, GenBatchItem, GenChunkItem, GenCursor, GeneratedSeries,
    UncertaintyReport,
};
pub use generator::{ArMode, CarryState, ForwardOut, Generator};
pub use trainer::{GenDt, StepTrace};
pub use transfer::{pretrain, transfer_to_region, TransferCfg, TransferOutcome, TransferStep};

/// Runs `f` with `GENDT_SANITIZE` set to `tape` (`true` records every
/// step, the reference side of plan == record; `false` replays the
/// compiled plans). The switch is process-global, so callers hold
/// one lock for the whole run and never overlap.
#[cfg(test)]
pub(crate) fn with_tape<R>(tape: bool, f: impl FnOnce() -> R) -> R {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    gendt_nn::set_sanitize(tape);
    let out = f();
    gendt_nn::set_sanitize(false);
    out
}
