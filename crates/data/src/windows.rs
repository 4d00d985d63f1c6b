//! Batch windowing for training and generation (paper §4.3.3).
//!
//! The whole KPI series is cut into length-`L` windows: overlapping
//! (stride `Δt < L`) for training, non-overlapping (`Δt = L`) for
//! generation. Each window carries the normalized KPI targets, the window's
//! cell set with per-step features, the per-step environment context, and
//! the last few KPI values preceding the window (seed of the
//! autoregressive ResGen input).

use crate::context::{RunContext, CELL_FEATS};
use crate::kpi_types::Kpi;
use crate::run::Run;
use gendt_radio::cells::CellId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Windowing configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WindowCfg {
    /// Window (batch) length `L` — paper default 50.
    pub len: usize,
    /// Stride `Δt` between window starts — paper default 5 for training.
    pub stride: usize,
    /// Cap on cells per window (union over steps, ranked by presence).
    pub max_cells: usize,
    /// How many trailing KPI values before the window are carried as the
    /// autoregressive seed (`m` in the ResGen input).
    pub ar_context: usize,
}

impl WindowCfg {
    /// Paper-default training windowing: `L = 50`, `Δt = 5`.
    pub fn training() -> Self {
        WindowCfg {
            len: 50,
            stride: 5,
            max_cells: 10,
            ar_context: 4,
        }
    }

    /// Non-overlapping generation windowing: `Δt = L`.
    pub fn generation() -> Self {
        WindowCfg {
            len: 50,
            stride: 50,
            max_cells: 10,
            ar_context: 4,
        }
    }
}

/// One training/generation window.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Window {
    /// Normalized KPI targets, `[n_kpis][len]`.
    pub targets: Vec<Vec<f32>>,
    /// Window cell set: per cell, per-step features `[n_cells][len][5]`.
    pub cells: Vec<Vec<[f32; CELL_FEATS]>>,
    /// Ids of the window's cells, aligned with `cells`.
    pub cell_ids: Vec<CellId>,
    /// Environment context per step, `[len][N_g]`.
    pub env: Vec<Vec<f32>>,
    /// Normalized KPI values for the `ar_context` steps before the window
    /// (zeros at the very start of a run), `[n_kpis][ar_context]`.
    pub ar_seed: Vec<Vec<f32>>,
    /// Index of the window's first step within the run.
    pub start: usize,
}

/// Cut a run (with its extracted context) into windows.
///
/// Windows shorter than `cfg.len` at the tail are dropped, matching the
/// paper's `⌊T/L⌋` batches.
pub fn windows(run: &Run, ctx: &RunContext, kpis: &[Kpi], cfg: &WindowCfg) -> Vec<Window> {
    assert_eq!(run.samples.len(), ctx.len(), "run/context misaligned");
    assert!(cfg.len > 0 && cfg.stride > 0, "degenerate window config");
    let n = run.samples.len();
    if n < cfg.len {
        return Vec::new();
    }
    // Normalized series per KPI, computed once.
    let series: Vec<Vec<f32>> = kpis
        .iter()
        .map(|&k| run.series(k).iter().map(|&v| k.normalize(v)).collect())
        .collect();

    let mut out = Vec::new();
    let mut start = 0usize;
    while start + cfg.len <= n {
        let end = start + cfg.len;
        let targets: Vec<Vec<f32>> = series.iter().map(|s| s[start..end].to_vec()).collect();

        let ar_seed: Vec<Vec<f32>> = series
            .iter()
            .map(|s| {
                (0..cfg.ar_context)
                    .map(|k| {
                        let idx = start as i64 - cfg.ar_context as i64 + k as i64;
                        if idx >= 0 {
                            s[idx as usize]
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();

        out.push(context_window(ctx, start, cfg, targets, ar_seed));
        start += cfg.stride;
    }
    out
}

/// The window over steps `start..start + cfg.len` of `ctx`, carrying the
/// given KPI `targets` and `ar_seed`: the context half of every training
/// and generation window.
///
/// The window's cell set is the union of visible cells over its steps,
/// ranked by how many steps each is present (most persistent first, then
/// by id) and capped at `cfg.max_cells`. Each cell gets one feature row
/// per step; steps where it is out of range get a sentinel row (distance
/// 1.0 = edge of range, rest zero).
pub fn context_window(
    ctx: &RunContext,
    start: usize,
    cfg: &WindowCfg,
    targets: Vec<Vec<f32>>,
    ar_seed: Vec<Vec<f32>>,
) -> Window {
    let steps = start..start + cfg.len;
    let mut presence: BTreeMap<CellId, usize> = BTreeMap::new();
    for i in steps.clone() {
        for (id, _) in ctx.cells(i).iter() {
            *presence.entry(id).or_insert(0) += 1;
        }
    }
    let mut ranked: Vec<(CellId, usize)> = presence.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(cfg.max_cells);
    let cell_ids: Vec<CellId> = ranked.into_iter().map(|(id, _)| id).collect();

    let cells: Vec<Vec<[f32; CELL_FEATS]>> = cell_ids
        .iter()
        .map(|&id| {
            steps
                .clone()
                .map(|i| {
                    ctx.cells(i)
                        .iter()
                        .find(|&(cid, _)| cid == id)
                        .map(|(_, f)| f)
                        .unwrap_or([0.0, 0.0, 0.0, 0.0, 1.0])
                })
                .collect()
        })
        .collect();

    let env: Vec<Vec<f32>> = steps.map(|i| ctx.env(i).to_vec()).collect();

    Window {
        targets,
        cells,
        cell_ids,
        env,
        ar_seed,
        start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{dataset_a, BuildCfg};
    use crate::context::{extract, ContextCfg};

    fn first_run_windows(cfg: &WindowCfg) -> (Run, Vec<Window>) {
        let ds = dataset_a(&BuildCfg::quick(17));
        let run = ds.runs[0].clone();
        let ctx = extract(&ds.world, &ds.deployment, &run.traj, &ContextCfg::default());
        let w = windows(&run, &ctx, &Kpi::DATASET_A, cfg);
        (run, w)
    }

    #[test]
    fn overlapping_windows_cover_run() {
        let cfg = WindowCfg {
            len: 20,
            stride: 5,
            max_cells: 8,
            ar_context: 4,
        };
        let (run, w) = first_run_windows(&cfg);
        assert!(!w.is_empty());
        let expected = (run.len() - cfg.len) / cfg.stride + 1;
        assert_eq!(w.len(), expected);
        for win in &w {
            assert_eq!(win.targets.len(), 4);
            assert_eq!(win.targets[0].len(), 20);
            assert_eq!(win.env.len(), 20);
            assert!(!win.cells.is_empty());
            assert_eq!(win.cells.len(), win.cell_ids.len());
        }
    }

    #[test]
    fn generation_windows_do_not_overlap() {
        let cfg = WindowCfg {
            len: 25,
            stride: 25,
            max_cells: 8,
            ar_context: 4,
        };
        let (_, w) = first_run_windows(&cfg);
        for pair in w.windows(2) {
            assert_eq!(pair[1].start - pair[0].start, 25);
        }
    }

    #[test]
    fn targets_are_normalized() {
        let cfg = WindowCfg::training();
        let (_, w) = first_run_windows(&cfg);
        for win in &w {
            for ch in &win.targets {
                assert!(ch.iter().all(|v| v.abs() <= 1.5), "unnormalized target");
            }
        }
    }

    #[test]
    fn ar_seed_is_zero_at_run_start_then_filled() {
        let cfg = WindowCfg {
            len: 10,
            stride: 10,
            max_cells: 4,
            ar_context: 3,
        };
        let (run, w) = first_run_windows(&cfg);
        assert!(w[0].ar_seed[0].iter().all(|&v| v == 0.0));
        // Second window's seed equals the normalized tail of window 1.
        let rsrp: Vec<f32> = run
            .series(Kpi::Rsrp)
            .iter()
            .map(|&v| Kpi::Rsrp.normalize(v))
            .collect();
        assert_eq!(w[1].ar_seed[0], rsrp[7..10].to_vec());
    }

    #[test]
    fn stride_one_maximizes_overlap() {
        let cfg = WindowCfg {
            len: 10,
            stride: 1,
            max_cells: 2,
            ar_context: 2,
        };
        let (run, w) = first_run_windows(&cfg);
        assert_eq!(w.len(), run.len() - 10 + 1);
        // Consecutive windows shift by exactly one step.
        assert_eq!(w[1].start, w[0].start + 1);
    }

    #[test]
    fn window_cell_ids_are_unique() {
        let cfg = WindowCfg::training();
        let (_, w) = first_run_windows(&cfg);
        for win in &w {
            let mut ids = win.cell_ids.clone();
            ids.sort_unstable();
            let before = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), before, "duplicate cell in window");
        }
    }

    #[test]
    fn exact_length_run_yields_one_window() {
        let ds = dataset_a(&BuildCfg::quick(17));
        let mut run = ds.runs[0].clone();
        run.samples.truncate(12);
        run.traj.points.truncate(12);
        let ctx = extract(&ds.world, &ds.deployment, &run.traj, &ContextCfg::default());
        let cfg = WindowCfg {
            len: 12,
            stride: 12,
            max_cells: 4,
            ar_context: 2,
        };
        let w = windows(&run, &ctx, &Kpi::DATASET_A, &cfg);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].start, 0);
    }

    #[test]
    fn short_runs_yield_no_windows() {
        let ds = dataset_a(&BuildCfg::quick(17));
        let mut run = ds.runs[0].clone();
        run.samples.truncate(5);
        run.traj.points.truncate(5);
        let ctx = extract(&ds.world, &ds.deployment, &run.traj, &ContextCfg::default());
        let w = windows(&run, &ctx, &Kpi::DATASET_A, &WindowCfg::training());
        assert!(w.is_empty());
    }
}
