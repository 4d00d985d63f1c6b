//! Short-trajectory stitching baseline (paper Table 8 / Fig. 10).
//!
//! Generates data for a long trajectory by cutting it into short segments
//! (50 s / 100 s in the paper), generating each segment *independently*
//! (fresh carry state, fresh noise), and concatenating. The stitch points
//! break long-term temporal correlation and introduce the visible
//! artifacts the paper highlights, which is exactly what the comparison
//! against GenDT's carried-state generation measures.

use gendt::generate::{generate_series, GeneratedSeries};
use gendt::trainer::GenDt;
use gendt_data::context::RunContext;
use gendt_data::kpi_types::Kpi;

/// Generate a long series by independent short-segment generation.
///
/// `segment_steps` is the segment length in *samples* (the paper's 50 s /
/// 100 s at 1 Hz ≈ 50 / 100 samples). Each segment gets an independent
/// seed; within a segment GenDT still carries state normally.
pub fn generate_stitched(
    model: &mut GenDt,
    ctx: &RunContext,
    kpis: &[Kpi],
    segment_steps: usize,
    seed: u64,
) -> GeneratedSeries {
    assert!(segment_steps > 0, "segment length must be positive");
    let n = ctx.len();
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); kpis.len()];
    let mut start = 0usize;
    let mut k = 0u64;
    while start + segment_steps <= n {
        let sub = ctx.slice(start..start + segment_steps);
        let out = generate_series(model, &sub, kpis, false, seed ^ ((k + 1) << 24));
        for (ch, s) in out.series.into_iter().enumerate() {
            series[ch].extend(s);
        }
        start += segment_steps;
        k += 1;
    }
    GeneratedSeries {
        kpis: kpis.to_vec(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendt::cfg::GenDtCfg;
    use gendt_data::builders::{dataset_a, BuildCfg};
    use gendt_data::context::{extract, ContextCfg};
    use gendt_data::windows::windows as make_windows;

    #[test]
    fn stitched_series_covers_segments() {
        let mut cfg = GenDtCfg::fast(4, 5);
        cfg.hidden = 8;
        cfg.resgen_hidden = 8;
        cfg.disc_hidden = 4;
        cfg.window.len = 10;
        cfg.window.stride = 10;
        cfg.window.max_cells = 2;
        cfg.steps = 2;
        cfg.batch_size = 4;
        let ds = dataset_a(&BuildCfg::quick(73));
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
        let pool = make_windows(run, &ctx, &Kpi::DATASET_A, &cfg.window);
        let mut model = GenDt::new(cfg);
        model.train(&pool);
        let out = generate_stitched(&mut model, &ctx, &Kpi::DATASET_A, 20, 3);
        // 20-step segments, each yielding 2 windows of 10.
        let expected = (ctx.len() / 20) * 20;
        assert_eq!(out.len(), expected);
        assert!(out
            .channel(Kpi::Rsrp)
            .unwrap()
            .iter()
            .all(|v| v.is_finite()));
    }
}
