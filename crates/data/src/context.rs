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
//!
//! A served context stays resident while its route's sessions live, so
//! [`RunContext`] stores each distinct cell's four position-independent
//! attributes once per route and, per step, only what varies.

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

/// Number of per-cell features that do not depend on where the device
/// is: `[lat, lon, p_max, direction]`, the first four of [`CELL_FEATS`].
const STATIC_FEATS: usize = CELL_FEATS - 1;

/// Context for a whole trajectory, aligned with its points.
///
/// Only a cell's distance feature `distance_t` depends on the device
/// position, so each distinct cell's four static features are stored
/// once, in a per-route table, and each step keeps per visible cell just
/// its table row and its distance: 8 bytes instead of 24. The steps'
/// cells (nearest-first, capped) share one vector with per-step end
/// offsets, and their [`ENV_ATTRS`] environment attributes share
/// another. Read it through [`len`](Self::len), [`cells`](Self::cells),
/// which decodes the full `N_c = 5` feature vectors, and
/// [`env`](Self::env).
#[derive(Clone, Debug, Default)]
pub struct RunContext {
    /// Each distinct cell once with its static features, in first-seen
    /// order. One id appears twice only when it was pushed with two
    /// different static rows.
    statics: Vec<(CellId, [f32; STATIC_FEATS])>,
    /// Every step's visible cells in step order: the cell's row in
    /// `statics` and its distance feature.
    cells: Vec<(u32, f32)>,
    /// End of each step's run in `cells`: step `i` holds
    /// `cells[cell_ends[i - 1]..cell_ends[i]]` (from 0 for step 0).
    cell_ends: Vec<u32>,
    /// Every step's environment attributes, `ENV_ATTRS` per step.
    env: Vec<f32>,
}

/// The visible cells of one step of a [`RunContext`], nearest-first,
/// each decoded on read to its id and full feature vector.
#[derive(Clone, Copy, Debug)]
pub struct StepCells<'a> {
    statics: &'a [(CellId, [f32; STATIC_FEATS])],
    entries: &'a [(u32, f32)],
}

impl<'a> StepCells<'a> {
    /// Number of visible cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no cell is visible.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `k`-th nearest visible cell, if there is one.
    pub fn get(&self, k: usize) -> Option<(CellId, [f32; CELL_FEATS])> {
        self.entries.get(k).map(|&e| decode(self.statics, e))
    }

    /// The visible cells, nearest-first.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, [f32; CELL_FEATS])> + 'a {
        let statics = self.statics;
        self.entries.iter().map(move |&e| decode(statics, e))
    }
}

fn decode(
    statics: &[(CellId, [f32; STATIC_FEATS])],
    (row, dist): (u32, f32),
) -> (CellId, [f32; CELL_FEATS]) {
    let (id, [lat, lon, p_max, dir]) = statics[row as usize];
    (id, [lat, lon, p_max, dir, dist])
}

/// `n` as a stored index or offset.
///
/// # Panics
/// Panics past `u32::MAX` cell entries, about 30,000 times the longest
/// route a server accepts (4 h at ten cells per step).
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("RunContext exceeds u32::MAX cell entries")
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

    /// Offset in `cells` of step `i`'s first entry; `len()` gives the end.
    fn step_start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.cell_ends[i - 1] as usize
        }
    }

    /// Visible cells at step `i`, nearest-first, with their features.
    pub fn cells(&self, i: usize) -> StepCells<'_> {
        StepCells {
            statics: &self.statics,
            entries: &self.cells[self.step_start(i)..self.cell_ends[i] as usize],
        }
    }

    /// Environment attribute vector at step `i` (length [`ENV_ATTRS`]).
    pub fn env(&self, i: usize) -> &[f32] {
        &self.env[i * ENV_ATTRS..(i + 1) * ENV_ATTRS]
    }

    /// Append one step. Each cell's static row is interned by its id and
    /// the exact bits of its four static features, so every feature
    /// vector reads back as it was pushed, even when one id is pushed
    /// with two different rows. Interning scans the table, which is
    /// linear in the distinct cells so far; [`extract`] fills its table
    /// directly instead.
    ///
    /// # Panics
    /// Panics if `env` is not [`ENV_ATTRS`] long.
    pub fn push_step(
        &mut self,
        cells: impl IntoIterator<Item = (CellId, [f32; CELL_FEATS])>,
        env: &[f32],
    ) {
        assert_eq!(env.len(), ENV_ATTRS, "environment vector length");
        for (id, [lat, lon, p_max, dir, dist]) in cells {
            let row = [lat, lon, p_max, dir];
            let bits = row.map(f32::to_bits);
            let k = match self
                .statics
                .iter()
                .position(|&(sid, s)| sid == id && s.map(f32::to_bits) == bits)
            {
                Some(k) => k,
                None => {
                    self.statics.push((id, row));
                    self.statics.len() - 1
                }
            };
            self.cells.push((index(k), dist));
        }
        self.cell_ends.push(index(self.cells.len()));
        self.env.extend_from_slice(env);
    }

    /// A copy of steps `range`. It shares this context's static table.
    pub fn slice(&self, range: std::ops::Range<usize>) -> RunContext {
        let (first, end) = (self.step_start(range.start), self.step_start(range.end));
        let base = index(first);
        RunContext {
            statics: self.statics.clone(),
            cells: self.cells[first..end].to_vec(),
            cell_ends: self.cell_ends[range.clone()]
                .iter()
                .map(|&e| e - base)
                .collect(),
            env: self.env[range.start * ENV_ATTRS..range.end * ENV_ATTRS].to_vec(),
        }
    }
}

/// The static features `[lat, lon, p_max, direction]` of a cell.
fn static_features(cfg: &ContextCfg, deployment: &Deployment, id: CellId) -> [f32; STATIC_FEATS] {
    let cell = deployment.cell(id);
    let cx = cell.pos.x / cfg.coord_scale_m;
    let cy = cell.pos.y / cfg.coord_scale_m;
    let p = (cell.p_max_dbm - 43.0) / 3.0;
    let dir = cell.azimuth_deg / 180.0 - 1.0;
    [cx as f32, cy as f32, p as f32, dir as f32]
}

/// The distance feature `distance_t` of a cell `dist_m` meters away.
fn distance_feature(cfg: &ContextCfg, dist_m: f64) -> f32 {
    (dist_m / cfg.d_s) as f32
}

/// Compute the cell feature vector for one cell seen from `ue`.
pub fn cell_features(
    cfg: &ContextCfg,
    deployment: &Deployment,
    id: CellId,
    ue: XY,
) -> [f32; CELL_FEATS] {
    // Paper attributes: [lat, lon, p_max, direction, distance_t].
    let [lat, lon, p_max, dir] = static_features(cfg, deployment, id);
    let dist = distance_feature(cfg, deployment.cell(id).pos.dist(&ue));
    [lat, lon, p_max, dir, dist]
}

/// Normalize an environment vector: land-use fractions pass through, PoI
/// counts are log-compressed (`ln(1 + n) / 4`).
pub fn normalize_env(raw: &[f64]) -> Vec<f32> {
    normalized_env(raw).collect()
}

/// [`normalize_env`] value by value, for writing straight into a context.
fn normalized_env(raw: &[f64]) -> impl Iterator<Item = f32> + '_ {
    raw.iter().enumerate().map(|(i, &v)| {
        if i < gendt_geo::landuse::LandUse::COUNT {
            v as f32
        } else {
            ((1.0 + v).ln() / 4.0) as f32
        }
    })
}

/// Extract the full context series for a trajectory.
///
/// The per-point queries write into buffers reused across the route, so
/// extraction allocates only the context's four vectors and one slot per
/// deployment cell. A cell's static features are computed once, when
/// the route first sees it, and its distance feature comes from the
/// distance the nearest-cells query already measured.
pub fn extract(
    world: &World,
    deployment: &Deployment,
    traj: &Trajectory,
    cfg: &ContextCfg,
) -> RunContext {
    let n = traj.points.len();
    let mut ctx = RunContext {
        statics: Vec::new(),
        cells: Vec::new(),
        cell_ends: Vec::with_capacity(n),
        env: Vec::with_capacity(n * ENV_ATTRS),
    };
    // Row in `ctx.statics` of each deployment cell the route has seen.
    let mut rows: Vec<Option<u32>> = vec![None; deployment.len()];
    let mut visible = Vec::new();
    let mut raw = [0.0; ENV_ATTRS];
    for pt in &traj.points {
        deployment.nearest_within_into(pt.pos, cfg.d_s, cfg.max_cells, &mut visible);
        for &(dist_m, id) in &visible {
            let row = *rows[id as usize].get_or_insert_with(|| {
                ctx.statics.push((id, static_features(cfg, deployment, id)));
                index(ctx.statics.len() - 1)
            });
            ctx.cells.push((row, distance_feature(cfg, dist_m)));
        }
        ctx.cell_ends.push(index(ctx.cells.len()));
        world.env_context_into(pt.pos, cfg.env_radius_m, &mut raw);
        ctx.env.extend(normalized_env(&raw));
    }
    // A served context stays resident for as long as its sessions live:
    // give back the growth slack of the vectors sized on the fly.
    ctx.statics.shrink_to_fit();
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
            for (_, f) in ctx.cells(i).iter() {
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

    /// One step's decoded cells, features as bits.
    type BitCells = Vec<(CellId, [u32; CELL_FEATS])>;

    /// Every step of `ctx` decodes, bit for bit, to a per-point
    /// recomputation: the capped nearest cells' `cell_features` and the
    /// normalized `env_context`.
    fn assert_decodes_to_recomputation(
        w: &World,
        d: &Deployment,
        t: &Trajectory,
        cfg: &ContextCfg,
        ctx: &RunContext,
    ) {
        assert_eq!(ctx.len(), t.points.len());
        let bits = |f: [f32; CELL_FEATS]| f.map(f32::to_bits);
        for (i, pt) in t.points.iter().enumerate() {
            let want: BitCells = d
                .nearest_within(pt.pos, cfg.d_s, cfg.max_cells)
                .into_iter()
                .map(|id| (id, bits(cell_features(cfg, d, id, pt.pos))))
                .collect();
            let got: BitCells = ctx.cells(i).iter().map(|(id, f)| (id, bits(f))).collect();
            assert_eq!(got, want, "cells at step {i}");
            let env: Vec<u32> = normalize_env(&w.env_context(pt.pos, cfg.env_radius_m))
                .into_iter()
                .map(f32::to_bits)
                .collect();
            let got_env: Vec<u32> = ctx.env(i).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_env, env, "env at step {i}");
        }
    }

    #[test]
    fn compact_layout_decodes_to_per_point_features_bit_for_bit() {
        use crate::builders::{dataset_a, dataset_b, BuildCfg};
        let cfg = ContextCfg {
            max_cells: 8,
            ..ContextCfg::default()
        };
        for ds in [
            dataset_a(&BuildCfg::quick(42)),
            dataset_b(&BuildCfg::quick(42)),
        ] {
            for run in &ds.runs {
                let ctx = extract(&ds.world, &ds.deployment, &run.traj, &cfg);
                assert_decodes_to_recomputation(&ds.world, &ds.deployment, &run.traj, &cfg, &ctx);
            }
        }
        // The longest route a server accepts: 4 h of city driving.
        let w = World::generate(WorldCfg::city(7));
        let d = Deployment::from_world(&w);
        let t = generate(
            &w,
            &TrajectoryCfg::new(Scenario::CityDrive, 4.0 * 3600.0, XY::new(0.0, 0.0), 5),
        );
        let ctx = extract(&w, &d, &t, &cfg);
        assert_decodes_to_recomputation(&w, &d, &t, &cfg, &ctx);
        // Each distinct cell's static row is stored once.
        assert!(ctx.statics.len() < d.len());
        let mut ids: Vec<CellId> = ctx.statics.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ctx.statics.len());
    }

    #[test]
    fn per_step_storage_is_at_most_8_bytes_per_cell_and_4_per_step_end() {
        let (w, d, t) = setup();
        let ctx = extract(&w, &d, &t, &ContextCfg::default());
        assert!(std::mem::size_of_val(&ctx.cells[0]) <= 8);
        assert!(std::mem::size_of_val(&ctx.cell_ends[0]) <= 4);
        // What is resident: no growth slack left in the cell entries.
        assert_eq!(ctx.cells.capacity(), ctx.cells.len());
        assert_eq!(ctx.cell_ends.capacity(), ctx.len());
    }

    #[test]
    fn push_step_keeps_two_static_rows_of_one_id_and_slice_matches_re_pushing() {
        let env = |v: f32| [v; ENV_ATTRS];
        let a = [0.5, -0.5, 1.0, 0.9, 0.1];
        let b = [0.25, -0.5, 1.0, 0.9, 0.3];
        let mut ctx = RunContext::default();
        ctx.push_step([(3, a), (3, b)], &env(1.0));
        ctx.push_step([], &env(2.0));
        ctx.push_step([(3, b), (4, a)], &env(3.0));
        ctx.push_step([(4, [0.5, -0.5, 1.0, 0.9, 0.7])], &env(4.0));
        let decoded = |c: &RunContext| -> Vec<(BitCells, Vec<f32>)> {
            (0..c.len())
                .map(|i| {
                    let cells = c.cells(i).iter().map(|(id, f)| (id, f.map(f32::to_bits)));
                    (cells.collect(), c.env(i).to_vec())
                })
                .collect()
        };
        let steps = decoded(&ctx);
        assert_eq!(
            steps[0].0,
            [(3, a.map(f32::to_bits)), (3, b.map(f32::to_bits))]
        );
        assert!(ctx.cells(1).is_empty() && ctx.cells(1).get(0).is_none());
        assert_eq!(ctx.cells(2).get(1), Some((4, a)));
        assert_eq!(
            ctx.statics.len(),
            3,
            "(3, a), (3, b) and (4, a) are interned once each"
        );
        for range in [0..4, 1..3, 2..2, 3..4] {
            let mut pushed = RunContext::default();
            for i in range.clone() {
                pushed.push_step(ctx.cells(i).iter(), ctx.env(i));
            }
            assert_eq!(
                decoded(&ctx.slice(range.clone())),
                decoded(&pushed),
                "{range:?}"
            );
        }
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
