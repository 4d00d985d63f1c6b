//! Context extraction: the conditioning input of the GenDT model.
//!
//! For every trajectory step this produces:
//!
//! * **Network context** — for each potential serving cell within `d_s`,
//!   the paper's `N_c = 5` attributes `[lat, lon, p_max, direction,
//!   distance_t]`, normalized: absolute cell coordinates scaled by the
//!   world extent (the lat/lon of the paper), transmit power, boresight
//!   azimuth, and the time-varying distance to the device. Keeping the
//!   coordinates absolute is faithful to the paper and matters for the
//!   baseline comparison: per-step regressors latch onto the absolute
//!   positions and generalize poorly to held-out geography, while the
//!   GNN's weight sharing across cells regularizes GenDT.
//! * **Environment context** — the 26 land-use / PoI attributes within
//!   500 m of the device (paper §2.3.4), with PoI counts log-compressed.

use gendt_geo::coords::XY;
use gendt_geo::landuse::ENV_ATTRS;
use gendt_geo::trajectory::Trajectory;
use gendt_geo::world::World;
use gendt_radio::cells::{CellId, Deployment};
use serde::{Deserialize, Serialize};

/// Number of features per cell (`N_c` in the paper).
pub const CELL_FEATS: usize = 5;

/// Context-extraction configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ContextCfg {
    /// Serving-range `d_s` bounding the visible cell set, meters.
    pub d_s: f64,
    /// Environment-context radius, meters (paper: 500 m).
    pub env_radius_m: f64,
    /// Cap on cells fed to the model per step (nearest-first).
    pub max_cells: usize,
    /// Coordinate normalization scale, meters (usually the world
    /// half-extent); absolute cell positions are divided by this.
    pub coord_scale_m: f64,
}

impl Default for ContextCfg {
    fn default() -> Self {
        ContextCfg {
            d_s: 2000.0,
            env_radius_m: 500.0,
            max_cells: 10,
            coord_scale_m: 4000.0,
        }
    }
}

/// Context for a whole trajectory, aligned with its points.
///
/// Stored flat: every step's visible cells (nearest-first, capped) in one
/// vector with per-step end offsets, and every step's [`ENV_ATTRS`]
/// environment attributes in another. A long route is three allocations,
/// not two per point; read it through [`len`](Self::len),
/// [`cells`](Self::cells) and [`env`](Self::env).
#[derive(Clone, Debug, Default)]
pub struct RunContext {
    /// Every step's cells with their feature vectors, in step order.
    cells: Vec<(CellId, [f32; CELL_FEATS])>,
    /// End of each step's run in `cells`: step `i` holds
    /// `cells[cell_ends[i - 1]..cell_ends[i]]` (from 0 for step 0).
    cell_ends: Vec<usize>,
    /// Every step's environment attributes, `ENV_ATTRS` per step.
    env: Vec<f32>,
}

impl RunContext {
    /// Number of steps (trajectory points).
    pub fn len(&self) -> usize {
        self.cell_ends.len()
    }

    /// True when the context covers no step.
    pub fn is_empty(&self) -> bool {
        self.cell_ends.is_empty()
    }

    /// Visible cells at step `i`, nearest-first, with their features.
    pub fn cells(&self, i: usize) -> &[(CellId, [f32; CELL_FEATS])] {
        let start = if i == 0 { 0 } else { self.cell_ends[i - 1] };
        &self.cells[start..self.cell_ends[i]]
    }

    /// Environment attribute vector at step `i` (length [`ENV_ATTRS`]).
    pub fn env(&self, i: usize) -> &[f32] {
        &self.env[i * ENV_ATTRS..(i + 1) * ENV_ATTRS]
    }

    /// Append one step.
    ///
    /// # Panics
    /// Panics if `env` is not [`ENV_ATTRS`] long.
    pub fn push_step(
        &mut self,
        cells: impl IntoIterator<Item = (CellId, [f32; CELL_FEATS])>,
        env: &[f32],
    ) {
        assert_eq!(env.len(), ENV_ATTRS, "environment vector length");
        self.cells.extend(cells);
        self.cell_ends.push(self.cells.len());
        self.env.extend_from_slice(env);
    }

    /// A copy of steps `range`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> RunContext {
        let mut out = RunContext::default();
        for i in range {
            out.push_step(self.cells(i).iter().copied(), self.env(i));
        }
        out
    }
}

/// Compute the cell feature vector for one cell seen from `ue`.
pub fn cell_features(
    cfg: &ContextCfg,
    deployment: &Deployment,
    id: CellId,
    ue: XY,
) -> [f32; CELL_FEATS] {
    let cell = deployment.cell(id);
    // Paper attributes: [lat, lon, p_max, direction, distance_t].
    let cx = cell.pos.x / cfg.coord_scale_m;
    let cy = cell.pos.y / cfg.coord_scale_m;
    let p = (cell.p_max_dbm - 43.0) / 3.0;
    let dir = cell.azimuth_deg / 180.0 - 1.0;
    let dist = cell.pos.dist(&ue) / cfg.d_s;
    [cx as f32, cy as f32, p as f32, dir as f32, dist as f32]
}

/// Normalize an environment vector: land-use fractions pass through, PoI
/// counts are log-compressed (`ln(1 + n) / 4`).
pub fn normalize_env(raw: &[f64]) -> Vec<f32> {
    raw.iter()
        .enumerate()
        .map(|(i, &v)| {
            if i < gendt_geo::landuse::LandUse::COUNT {
                v as f32
            } else {
                ((1.0 + v).ln() / 4.0) as f32
            }
        })
        .collect()
}

/// Extract the full context series for a trajectory.
pub fn extract(
    world: &World,
    deployment: &Deployment,
    traj: &Trajectory,
    cfg: &ContextCfg,
) -> RunContext {
    let n = traj.points.len();
    let mut ctx = RunContext {
        cells: Vec::new(),
        cell_ends: Vec::with_capacity(n),
        env: Vec::with_capacity(n * ENV_ATTRS),
    };
    for pt in &traj.points {
        let cells = deployment
            .nearest_within(pt.pos, cfg.d_s, cfg.max_cells)
            .into_iter()
            .map(|id| (id, cell_features(cfg, deployment, id, pt.pos)));
        ctx.push_step(
            cells,
            &normalize_env(&world.env_context(pt.pos, cfg.env_radius_m)),
        );
    }
    // A served context stays resident for as long as its sessions live:
    // give back the growth slack of the one vector sized on the fly.
    ctx.cells.shrink_to_fit();
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendt_geo::trajectory::{generate, Scenario, TrajectoryCfg};
    use gendt_geo::world::WorldCfg;

    fn setup() -> (World, Deployment, Trajectory) {
        let w = World::generate(WorldCfg::city(31));
        let d = Deployment::from_world(&w);
        let t = generate(
            &w,
            &TrajectoryCfg::new(Scenario::Walk, 120.0, XY::new(0.0, 0.0), 2),
        );
        (w, d, t)
    }

    #[test]
    fn context_aligned_with_trajectory() {
        let (w, d, t) = setup();
        let ctx = extract(&w, &d, &t, &ContextCfg::default());
        assert_eq!(ctx.len(), t.points.len());
    }

    #[test]
    fn cells_capped_and_nearest_first() {
        let (w, d, t) = setup();
        let cfg = ContextCfg {
            max_cells: 4,
            ..ContextCfg::default()
        };
        let ctx = extract(&w, &d, &t, &cfg);
        for i in 0..ctx.len() {
            assert!(ctx.cells(i).len() <= 4);
            let dists: Vec<f32> = ctx.cells(i).iter().map(|(_, f)| f[4]).collect();
            for pair in dists.windows(2) {
                assert!(pair[1] >= pair[0] - 1e-6, "cells not nearest-first");
            }
        }
    }

    #[test]
    fn features_bounded() {
        let (w, d, t) = setup();
        let ctx = extract(&w, &d, &t, &ContextCfg::default());
        for i in 0..ctx.len() {
            for (_, f) in ctx.cells(i) {
                assert!(
                    f[0].abs() <= 1.01 && f[1].abs() <= 1.01,
                    "cell coords out of range"
                );
                assert!(f[2].abs() <= 2.0, "power feature out of range: {}", f[2]);
                assert!((-1.0..=1.0).contains(&f[3]), "direction out of range");
                assert!((0.0..=1.01).contains(&f[4]), "distance out of range");
            }
            assert_eq!(ctx.env(i).len(), ENV_ATTRS);
            assert!(ctx.env(i).iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn env_normalization_compresses_counts() {
        let mut raw = vec![0.0; ENV_ATTRS];
        raw[0] = 0.5; // land-use fraction passes through
        raw[12] = 50.0; // PoI count gets log-compressed
        let n = normalize_env(&raw);
        assert!((n[0] - 0.5).abs() < 1e-6);
        assert!(n[12] < 1.1, "compressed count {}", n[12]);
        assert!(n[12] > 0.5);
    }

    #[test]
    fn moving_away_changes_distance_feature() {
        let (w, d, _) = setup();
        let cfg = ContextCfg::default();
        let ids = d.cells_within(XY::new(0.0, 0.0), cfg.d_s);
        let id = ids[0];
        let near = cell_features(&cfg, &d, id, d.cell(id).pos);
        let far = cell_features(
            &cfg,
            &d,
            id,
            XY::new(d.cell(id).pos.x + 1500.0, d.cell(id).pos.y),
        );
        assert!(far[4] > near[4]);
        let _ = w;
    }
}
