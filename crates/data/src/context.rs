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
//! A training pool keeps its routes' contexts for the whole run, so
//! [`RunContext`] stores each distinct cell's four position-independent
//! attributes once per route and, per step, only what varies.
//!
//! Every step's context depends on that step's position alone, so any
//! slice of a route's positions extracts, step for step, to the decoded
//! features of the same steps of the whole route: [`extract_positions`]
//! is how the serving layer builds the context of just the windows it is
//! about to generate. A long slice is split into contiguous parts, one
//! per thread of the workspace's thread budget, merged in route order
//! into exactly the bytes one pass writes.

use gendt_geo::coords::XY;
use gendt_geo::landuse::{LandUse, ENV_ATTRS};
use gendt_geo::trajectory::Trajectory;
use gendt_geo::world::{EnvCounts, World};
use gendt_radio::cells::{CellId, Deployment};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

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
    raw.iter()
        .enumerate()
        .map(|(i, &v)| {
            if i < LandUse::COUNT {
                v as f32
            } else {
                ((1.0 + v).ln() / 4.0) as f32
            }
        })
        .collect()
}

/// PoI counts below this normalize by table lookup; larger ones, which a
/// 500 m disc does not reach in the generated worlds, by the expression.
const POI_TABLE_LEN: usize = 256;

/// The log-compressed PoI count `ln(1 + n) / 4` of [`normalize_env`], for
/// an integer count.
fn poi_feature(n: u32) -> f32 {
    ((1.0 + f64::from(n)).ln() / 4.0) as f32
}

/// [`poi_feature`] for every count below [`POI_TABLE_LEN`], built once.
fn poi_table() -> &'static [f32; POI_TABLE_LEN] {
    static TABLE: OnceLock<[f32; POI_TABLE_LEN]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|n| poi_feature(n as u32)))
}

/// `normalize_env` of `counts.to_vector()`, bit for bit, written into
/// `out`, with each PoI count's logarithm taken from `table`.
fn write_env(counts: &EnvCounts, table: &[f32; POI_TABLE_LEN], out: &mut [f32]) {
    let raw = counts.to_vector();
    let (land_use, poi) = out.split_at_mut(LandUse::COUNT);
    for (o, &v) in land_use.iter_mut().zip(&raw) {
        *o = v as f32;
    }
    for (o, &n) in poi.iter_mut().zip(&counts.poi) {
        *o = poi_lookup(table, n);
    }
}

/// [`poi_feature`] from `table` when `n` is in it.
fn poi_lookup(table: &[f32; POI_TABLE_LEN], n: u32) -> f32 {
    table
        .get(n as usize)
        .copied()
        .unwrap_or_else(|| poi_feature(n))
}

/// Route points per part below which a route is not split further: a
/// part costs a thread and a merge.
const MIN_PART_POINTS: usize = 1024;

/// Extract the full context series for a trajectory: its points'
/// [`extract_positions`].
pub fn extract(
    world: &World,
    deployment: &Deployment,
    traj: &Trajectory,
    cfg: &ContextCfg,
) -> RunContext {
    let positions: Vec<XY> = traj.points.iter().map(|p| p.pos).collect();
    extract_positions(world, deployment, &positions, cfg)
}

/// Extract the context of a run of route positions, one step each.
///
/// A long run is cut into contiguous parts, one per thread of the
/// workspace's thread budget ([`gendt_nn::num_threads`], which
/// `GENDT_THREADS` sets) but none shorter than [`MIN_PART_POINTS`], and
/// each part is extracted in a scoped thread, the first on the calling
/// one. The parts merge in route order, so the context is the one a
/// single pass writes, byte for byte, whatever the thread count.
pub fn extract_positions(
    world: &World,
    deployment: &Deployment,
    positions: &[XY],
    cfg: &ContextCfg,
) -> RunContext {
    let n = positions.len();
    let parts = (n / MIN_PART_POINTS).clamp(1, gendt_nn::num_threads());
    extract_in_parts(world, deployment, positions, cfg, n.div_ceil(parts))
}

/// [`extract_positions`] with parts of `part_len` points (the last one
/// shorter).
///
/// Each part interns its cells' static rows in a table of its own, in
/// first-seen order, and writes its environment rows in place into the
/// context's one vector. The parts run in contiguous groups, one group
/// per thread of the budget (one part each in [`extract`]), the first
/// group on the calling thread. The first part's table is the context's
/// own; each later part's rows then map through the route's dense slot
/// map (a row per deployment cell, once seen) onto the context's table,
/// new cells appended in that part's first-seen order: the order one
/// pass sees them in.
fn extract_in_parts(
    world: &World,
    deployment: &Deployment,
    points: &[XY],
    cfg: &ContextCfg,
    part_len: usize,
) -> RunContext {
    let n = points.len();
    if n == 0 {
        return RunContext::default();
    }
    let mut env = vec![0.0; n * ENV_ATTRS];
    let mut parts = points
        .chunks(part_len)
        .zip(env.chunks_mut(part_len * ENV_ATTRS))
        .collect::<Vec<_>>()
        .into_iter();
    let per_group = parts.len().div_ceil(gendt_nn::num_threads());
    let groups: Vec<Vec<_>> = (0..parts.len().div_ceil(per_group))
        .map(|_| parts.by_ref().take(per_group).collect())
        .collect();
    let extracted = std::thread::scope(|scope| {
        let mut groups = groups.into_iter();
        let first = groups.next().unwrap_or_default();
        let rest: Vec<_> = groups
            .map(|group| scope.spawn(move || extract_group(world, deployment, cfg, group)))
            .collect();
        let mut done = extract_group(world, deployment, cfg, first);
        for group in rest {
            done.extend(
                group
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        done
    });
    let mut extracted = extracted.into_iter();
    let mut ctx = extracted.next().unwrap_or_default();
    // Row in `ctx.statics` of each deployment cell the route has seen.
    let mut slots: Vec<Option<u32>> = vec![None; deployment.len()];
    for (row, &(id, _)) in ctx.statics.iter().enumerate() {
        slots[id as usize] = Some(index(row));
    }
    ctx.cell_ends.reserve_exact(n - ctx.len());
    for part in extracted {
        ctx.append(part, &mut slots);
    }
    ctx.env = env;
    // A training pool keeps its contexts for the whole run: give back
    // the growth slack of the vectors sized on the fly.
    ctx.statics.shrink_to_fit();
    ctx.cells.shrink_to_fit();
    ctx
}

/// Extract a group of consecutive parts, each against a static table of
/// its own.
fn extract_group(
    world: &World,
    deployment: &Deployment,
    cfg: &ContextCfg,
    parts: Vec<(&[XY], &mut [f32])>,
) -> Vec<RunContext> {
    let mut slots = vec![None; deployment.len()];
    parts
        .into_iter()
        .map(|(points, env)| {
            let part = extract_part(world, deployment, points, cfg, &mut slots, env);
            for &(id, _) in &part.statics {
                slots[id as usize] = None;
            }
            part
        })
        .collect()
}

/// One part of a route: its cells against its own static table (rows
/// interned through `slots`, a dense map from cell id to row), and its
/// environment rows written into `env`. The part's `env` stays empty.
///
/// The per-point queries write into buffers reused across the part, so
/// a part allocates only its vectors. A cell's static features are
/// computed when the part first sees it, and its distance feature comes
/// from the distance the nearest-cells query already measured.
fn extract_part(
    world: &World,
    deployment: &Deployment,
    points: &[XY],
    cfg: &ContextCfg,
    slots: &mut [Option<u32>],
    env: &mut [f32],
) -> RunContext {
    let mut part = RunContext {
        cell_ends: Vec::with_capacity(points.len()),
        ..RunContext::default()
    };
    let table = poi_table();
    let mut visible = Vec::new();
    for (&pos, env) in points.iter().zip(env.chunks_exact_mut(ENV_ATTRS)) {
        deployment.nearest_within_into(pos, cfg.d_s, cfg.max_cells, &mut visible);
        for &(dist_m, id) in &visible {
            let row = *slots[id as usize].get_or_insert_with(|| {
                part.statics
                    .push((id, static_features(cfg, deployment, id)));
                index(part.statics.len() - 1)
            });
            part.cells.push((row, distance_feature(cfg, dist_m)));
        }
        part.cell_ends.push(index(part.cells.len()));
        write_env(&world.env_counts(pos, cfg.env_radius_m), table, env);
    }
    part
}

impl RunContext {
    /// Append the steps of `part`, extracted after this context's last
    /// step with a static table of its own, through `slots`, this
    /// context's row for each deployment cell it has seen.
    fn append(&mut self, part: RunContext, slots: &mut [Option<u32>]) {
        let rows: Vec<u32> = part
            .statics
            .iter()
            .map(|&(id, feats)| {
                *slots[id as usize].get_or_insert_with(|| {
                    self.statics.push((id, feats));
                    index(self.statics.len() - 1)
                })
            })
            .collect();
        let base = index(self.cells.len());
        self.cells.extend(
            part.cells
                .iter()
                .map(|&(row, dist)| (rows[row as usize], dist)),
        );
        self.cell_ends
            .extend(part.cell_ends.iter().map(|&end| base + end));
    }
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

    /// A context's private vectors, floats as bits.
    type Raw = (Vec<(CellId, [u32; 4])>, Vec<(u32, u32)>, Vec<u32>, Vec<u32>);

    fn raw(ctx: &RunContext) -> Raw {
        (
            ctx.statics
                .iter()
                .map(|&(id, f)| (id, f.map(f32::to_bits)))
                .collect(),
            ctx.cells.iter().map(|&(r, d)| (r, d.to_bits())).collect(),
            ctx.cell_ends.clone(),
            ctx.env.iter().map(|v| v.to_bits()).collect(),
        )
    }

    /// A 4 h walk, then every Dataset A/B quick run, each group with
    /// its world and deployment.
    fn test_routes() -> Vec<(World, Deployment, Vec<Trajectory>)> {
        use crate::builders::{dataset_a, dataset_b, BuildCfg};
        let w = World::generate(WorldCfg::city(7));
        let d = Deployment::from_world(&w);
        let walk = generate(
            &w,
            &TrajectoryCfg::new(Scenario::Walk, 4.0 * 3600.0, XY::new(300.0, -200.0), 9),
        );
        let mut routes = vec![(w, d, vec![walk])];
        for ds in [
            dataset_a(&BuildCfg::quick(42)),
            dataset_b(&BuildCfg::quick(42)),
        ] {
            let trajs = ds.runs.iter().map(|run| run.traj.clone()).collect();
            routes.push((ds.world, ds.deployment, trajs));
        }
        routes
    }

    #[test]
    fn split_extraction_writes_the_vectors_of_one_pass() {
        let cfg = ContextCfg {
            max_cells: 8,
            ..ContextCfg::default()
        };
        for (w, d, trajs) in &test_routes() {
            for t in trajs {
                let n = t.points.len();
                let points = positions(t);
                let one = raw(&extract_in_parts(w, d, &points, &cfg, n));
                assert_eq!(raw(&extract(w, d, t, &cfg)), one, "extract, {n} points");
                for part_len in [1, 7, 2048] {
                    let split = extract_in_parts(w, d, &points, &cfg, part_len);
                    assert_eq!(raw(&split), one, "parts of {part_len}, {n} points");
                    assert_eq!(split.cell_ends.capacity(), n);
                }
            }
        }
    }

    fn positions(t: &Trajectory) -> Vec<XY> {
        t.points.iter().map(|p| p.pos).collect()
    }

    /// Steps `range` of `ctx`, decoded: each step's cells (ids and
    /// feature bits) and its environment bits.
    fn decoded_bits(ctx: &RunContext, range: std::ops::Range<usize>) -> Vec<(BitCells, Vec<u32>)> {
        range
            .map(|i| {
                let cells = ctx.cells(i).iter().map(|(id, f)| (id, f.map(f32::to_bits)));
                let env = ctx.env(i).iter().map(|v| v.to_bits());
                (cells.collect(), env.collect())
            })
            .collect()
    }

    /// What serving relies on to extract only the windows it generates:
    /// a window-aligned slice of a route's positions extracts to the
    /// decoded cells and environment of the same steps of the whole
    /// route, for every window of a 4 h walk and of every Dataset A/B
    /// quick run, and for runs of several windows.
    #[test]
    fn window_aligned_slices_extract_to_the_whole_routes_steps() {
        const WINDOW: usize = 50;
        let cfg = ContextCfg {
            max_cells: 8,
            ..ContextCfg::default()
        };
        for (w, d, trajs) in &test_routes() {
            for t in trajs {
                let points = positions(t);
                let whole = extract(w, d, t, &cfg);
                let windows = points.len() / WINDOW;
                let mut slices: Vec<_> =
                    (0..windows).map(|k| k * WINDOW..(k + 1) * WINDOW).collect();
                slices.extend([0..windows * WINDOW, windows / 2 * WINDOW..windows * WINDOW]);
                for steps in slices {
                    let part = extract_positions(w, d, &points[steps.clone()], &cfg);
                    assert_eq!(part.len(), steps.len());
                    assert_eq!(
                        decoded_bits(&part, 0..part.len()),
                        decoded_bits(&whole, steps.clone()),
                        "steps {steps:?} of {} points",
                        points.len()
                    );
                }
            }
        }
    }

    #[test]
    fn poi_table_equals_the_expression_up_to_its_bound_and_past_it() {
        let table = poi_table();
        for n in 0..=POI_TABLE_LEN as u32 {
            let want = ((1.0 + n as f64).ln() / 4.0) as f32;
            assert_eq!(poi_lookup(table, n).to_bits(), want.to_bits(), "n {n}");
            let mut raw = [0.0; ENV_ATTRS];
            raw[LandUse::COUNT] = f64::from(n);
            assert_eq!(
                normalize_env(&raw)[LandUse::COUNT].to_bits(),
                want.to_bits()
            );
        }
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
