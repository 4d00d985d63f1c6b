//! Cell deployment: sectorized LTE cells built from a world's site plan.
//!
//! Each planned site becomes three sectorized cells with 120°-spaced
//! azimuths (plus per-site jitter), district-dependent transmit power, and
//! the `[lat, lon, p_max, direction]` attribute schema the GenDT network
//! context uses (paper §2.3.3).
//!
//! Range queries run over 1-km buckets of sites: co-sited sectors share
//! a position, so [`Deployment::nearest_within_into`] measures each
//! site's distance once and expands the nearest sites to their cells in
//! the order the per-cell scan gave them.

use gendt_geo::coords::{LatLon, XY};
use gendt_geo::world::{DistrictKind, World};
use gendt_rng::Rng;
use serde::{Deserialize, Serialize};

/// Identifier of a cell within a deployment.
pub type CellId = u32;

/// One sectorized LTE cell.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Cell {
    /// Deployment-unique identifier.
    pub id: CellId,
    /// Site position in the world's local frame.
    pub pos: XY,
    /// Site position as lat/lon (the schema drive-test context uses).
    pub latlon: LatLon,
    /// Boresight azimuth in degrees clockwise from north.
    pub azimuth_deg: f64,
    /// Maximum transmit power (EIRP) in dBm.
    pub p_max_dbm: f64,
    /// District kind the site serves.
    pub district: DistrictKind,
}

/// A full cell deployment with a spatial index for range queries.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Deployment {
    /// All cells, indexed by [`CellId`].
    pub cells: Vec<Cell>,
    extent_m: f64,
    bucket_m: f64,
    side: usize,
    /// Cell ids bucket by bucket, buckets in row-major order and cells in
    /// insertion order within a bucket: a cell's position here is its
    /// rank in a row-major scan of the buckets.
    bucket_cells: Vec<CellId>,
    /// Sites in rank order. A site is a run of cells adjacent in
    /// `bucket_cells` at one position: the sectors of a site from
    /// [`Deployment::from_world`], and co-sited cells listed together in
    /// [`Deployment::from_cells`]. Site `s` sits at `site_pos[s]` and
    /// holds ranks `site_start[s]..site_start[s + 1]`.
    site_pos: Vec<XY>,
    site_start: Vec<u32>,
    /// Bucket `b` holds sites `bucket_sites[b]..bucket_sites[b + 1]`.
    bucket_sites: Vec<u32>,
}

/// Transmit EIRP by district: urban sites run lower power (smaller cells),
/// rural/highway sites higher power for coverage.
fn p_max_for(district: DistrictKind, rng: &mut Rng) -> f64 {
    let base = match district {
        DistrictKind::CityCenter => 41.0,
        DistrictKind::Urban => 42.0,
        DistrictKind::Suburban => 43.5,
        DistrictKind::Industrial => 42.0,
        DistrictKind::Park => 43.5,
        DistrictKind::Rural => 46.0,
    };
    base + rng.uniform(-1.5, 1.5)
}

impl Deployment {
    /// Sectorize a world's site plan into cells. Deterministic in
    /// `world.cfg.seed`.
    pub fn from_world(world: &World) -> Deployment {
        let mut rng = Rng::seed_from(world.cfg.seed ^ DEPLOY_SEED_SALT);
        let mut cells = Vec::with_capacity(world.sites.len() * 3);
        for site in &world.sites {
            let jitter = rng.uniform(0.0, 120.0);
            let p = p_max_for(site.district, &mut rng);
            for s in 0..3 {
                let az = (jitter + 120.0 * s as f64) % 360.0;
                let id = cells.len() as CellId;
                cells.push(Cell {
                    id,
                    pos: site.pos,
                    latlon: world.to_latlon(site.pos),
                    azimuth_deg: az,
                    p_max_dbm: p,
                    district: site.district,
                });
            }
        }
        Self::index(cells, world.cfg.extent_m)
    }

    /// Build a deployment from an explicit cell list (tests, what-if
    /// studies with hand-placed cells).
    pub fn from_cells(cells: Vec<Cell>, extent_m: f64) -> Deployment {
        Self::index(cells, extent_m)
    }

    fn index(cells: Vec<Cell>, extent_m: f64) -> Deployment {
        let bucket_m = 1000.0;
        let side = ((2.0 * extent_m / bucket_m).ceil() as usize).max(1);
        let mut buckets = vec![Vec::new(); side * side];
        for c in &cells {
            let gx = (((c.pos.x + extent_m) / bucket_m) as isize).clamp(0, side as isize - 1);
            let gy = (((c.pos.y + extent_m) / bucket_m) as isize).clamp(0, side as isize - 1);
            buckets[gy as usize * side + gx as usize].push(c.id);
        }
        let index = |n: usize| u32::try_from(n).expect("at most u32::MAX cells");
        let (mut site_pos, mut site_start, mut bucket_sites) = (Vec::new(), Vec::new(), vec![0]);
        let mut rank = 0;
        for b in &buckets {
            for (i, &id) in b.iter().enumerate() {
                let pos = cells[id as usize].pos;
                if i == 0 || site_pos.last() != Some(&pos) {
                    site_pos.push(pos);
                    site_start.push(index(rank));
                }
                rank += 1;
            }
            bucket_sites.push(index(site_pos.len()));
        }
        site_start.push(index(rank));
        Deployment {
            cells,
            extent_m,
            bucket_m,
            side,
            bucket_cells: buckets.concat(),
            site_pos,
            site_start,
            bucket_sites,
        }
    }

    /// The ranks of site `s`'s cells.
    fn site_ranks(&self, s: usize) -> std::ops::Range<usize> {
        self.site_start[s] as usize..self.site_start[s + 1] as usize
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the deployment has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cell by id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id as usize]
    }

    /// Ids of all cells within `radius_m` of `p` — the "visible region"
    /// of potential serving cells (paper Fig. 3).
    ///
    /// Order contract, which context extraction and the KPI simulator rely
    /// on: nearest first, and cells at equal distance (co-sited sectors)
    /// in row-major bucket-scan order — bucket rows south to north, buckets
    /// west to east within a row, insertion order within a bucket. This is
    /// [`Deployment::nearest_within`] with no cap.
    pub fn cells_within(&self, p: XY, radius_m: f64) -> Vec<CellId> {
        self.nearest_within(p, radius_m, usize::MAX)
    }

    /// The first `k` ids of [`Deployment::cells_within`]`(p, radius_m)`,
    /// bit for bit: nearest first, ties in row-major bucket-scan order.
    /// This is [`Deployment::nearest_within_into`] without the distances.
    pub fn nearest_within(&self, p: XY, radius_m: f64, k: usize) -> Vec<CellId> {
        let mut found = Vec::new();
        self.nearest_within_into(p, radius_m, k, &mut found);
        found.into_iter().map(|(_, id)| id).collect()
    }

    /// [`Deployment::nearest_within`] into `out`, each id paired with its
    /// cell's distance from `p` (`cell(id).pos.dist(&p)`, bit for bit).
    /// `out` is cleared first; a caller that keeps it across queries
    /// allocates nothing once it has grown. Any finite `p` is safe; it
    /// need not lie in the world.
    ///
    /// Candidates come from the 1-km buckets within
    /// `ceil(radius_m / 1 km) + 1` of `p`'s bucket, visited in square rings
    /// outward from it, and are sites, not cells: each site's distance is
    /// computed once for all its cells. After each ring the scan stops
    /// once the visited block's clearance from `p`, less 1 m for
    /// bucket-index rounding, exceeds the radius or the distance of the
    /// `k`-th cell found: every cell not yet visited lies at least that far
    /// away. Outside the world extent that bound does not hold — cells
    /// beyond the extent sit clamped in the edge buckets — so there every
    /// ring is scanned. The nearest sites then expand to their cells in
    /// rank order, up to `k` cells in all, the last site perhaps in part.
    pub fn nearest_within_into(
        &self,
        p: XY,
        radius_m: f64,
        k: usize,
        out: &mut Vec<(f64, CellId)>,
    ) {
        out.clear();
        if k == 0 {
            return;
        }
        // The window's buckets along one axis, clipped to the grid. It is
        // computed in floats, so no point or radius overflows it.
        let bucket = |v: f64| ((v + self.extent_m) / self.bucket_m).trunc();
        let reach = (radius_m / self.bucket_m).ceil() + 1.0;
        let last = (self.side - 1) as f64;
        let clip = |b: f64| ((b - reach).max(0.0), (b + reach).min(last));
        let ((x0, x1), (y0, y1)) = (clip(bucket(p.x)), clip(bucket(p.y)));
        if x0 > x1 || y0 > y1 {
            return;
        }
        let window = [x0, x1, y0, y1].map(|v| v as isize);
        // Rings centre on p's bucket, moved next to the grid when p is far
        // outside it: there the scan never stops early, so the order in
        // which the window's buckets are visited does not matter.
        let (bx, by) = (
            bucket(p.x).clamp(-1.0, last + 1.0) as isize,
            bucket(p.y).clamp(-1.0, last + 1.0) as isize,
        );
        let [x0, x1, y0, y1] = window;
        let rings = (bx - x0).max(x1 - bx).max(by - y0).max(y1 - by);
        let inside = p.x.abs() <= self.extent_m && p.y.abs() <= self.extent_m;
        let edge = |g: isize| -self.extent_m + g as f64 * self.bucket_m;
        // Candidates are (distance, site) until the end. Sites are stored
        // in rank order and a site's cells have consecutive ranks, so
        // this key orders them as their cells' (distance, rank) does.
        let key = |a: &(f64, CellId), b: &(f64, CellId)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        // The radius, then the k-th cell's distance once k are found: a
        // cell farther away cannot make the cut.
        let mut bound = radius_m;
        let mut found = 0;
        for t in 0..=rings {
            self.visit_ring(bx, by, t, window, |sites| {
                for s in sites {
                    let d = self.site_pos[s].dist(&p);
                    if d <= bound {
                        out.push((d, s as CellId));
                        found += self.site_ranks(s).len();
                    }
                }
            });
            if found >= k {
                // Keep the fewest nearest sites that hold k cells; a
                // dropped site's cells all rank behind theirs.
                out.sort_unstable_by(key);
                let (mut kept, mut cells) = (0, 0);
                while cells < k {
                    cells += self.site_ranks(out[kept].1 as usize).len();
                    kept += 1;
                }
                out.truncate(kept);
                found = cells;
                bound = out[kept - 1].0;
            }
            if inside {
                let clear = (p.x - edge(bx - t))
                    .min(edge(bx + t + 1) - p.x)
                    .min(p.y - edge(by - t))
                    .min(edge(by + t + 1) - p.y)
                    - 1.0;
                if clear > bound {
                    break;
                }
            }
        }
        out.sort_unstable_by(key);
        // Expand in place from the back: site j's cells start at or after
        // index j, so no site is overwritten before it is read.
        let n = found.min(k);
        let sites = out.len();
        out.resize(n, (0.0, 0));
        let mut end = found;
        for j in (0..sites).rev() {
            let (d, s) = out[j];
            let ranks = self.site_ranks(s as usize);
            end -= ranks.len();
            for (slot, rank) in (end..n).zip(ranks) {
                out[slot] = (d, self.bucket_cells[rank]);
            }
        }
        out.truncate(n);
    }

    /// Call `f` with the sites of every bucket of `window` (`[x0, x1, y0,
    /// y1]`, inclusive) at Chebyshev distance exactly `t` from bucket
    /// `(bx, by)`, as index ranges: the buckets of one row are adjacent,
    /// so their sites form one range.
    fn visit_ring(
        &self,
        bx: isize,
        by: isize,
        t: isize,
        [x0, x1, y0, y1]: [isize; 4],
        mut f: impl FnMut(std::ops::Range<usize>),
    ) {
        let (rx0, rx1) = ((bx - t).max(x0), (bx + t).min(x1));
        let (ry0, ry1) = ((by - t).max(y0), (by + t).min(y1));
        if rx0 > rx1 || ry0 > ry1 {
            return;
        }
        let sites = |from: isize, to: isize| {
            self.bucket_sites[from as usize] as usize..self.bucket_sites[to as usize + 1] as usize
        };
        let side = self.side as isize;
        for gy in ry0..=ry1 {
            let row = gy * side;
            if gy == by - t || gy == by + t {
                f(sites(row + rx0, row + rx1));
            } else {
                if bx - t >= x0 {
                    f(sites(row + bx - t, row + bx - t));
                }
                if bx + t <= x1 {
                    f(sites(row + bx + t, row + bx + t));
                }
            }
        }
    }
}

/// Seed salt separating deployment randomness from world generation.
const DEPLOY_SEED_SALT: u64 = 0xCE11_0DE9_107A_55A1;

#[cfg(test)]
mod tests {
    use super::*;
    use gendt_geo::world::WorldCfg;

    fn deployment() -> (World, Deployment) {
        let w = World::generate(WorldCfg::city(11));
        let d = Deployment::from_world(&w);
        (w, d)
    }

    #[test]
    fn three_sectors_per_site() {
        let (w, d) = deployment();
        assert_eq!(d.len(), w.sites.len() * 3);
    }

    #[test]
    fn sector_azimuths_are_spread() {
        let (_, d) = deployment();
        // The three sectors of one site are 120° apart.
        let a0 = d.cells[0].azimuth_deg;
        let a1 = d.cells[1].azimuth_deg;
        let a2 = d.cells[2].azimuth_deg;
        let mut diffs = [
            (a1 - a0).rem_euclid(360.0),
            (a2 - a1).rem_euclid(360.0),
            (a0 - a2).rem_euclid(360.0),
        ];
        diffs.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!(
            diffs.iter().all(|d| (d - 120.0).abs() < 1e-6),
            "azimuths {a0} {a1} {a2}"
        );
    }

    #[test]
    fn cells_within_sorted_and_bounded() {
        let (_, d) = deployment();
        let p = XY::new(0.0, 0.0);
        let ids = d.cells_within(p, 2000.0);
        assert!(!ids.is_empty(), "no cells near origin");
        let mut last = 0.0;
        for id in &ids {
            let dist = d.cell(*id).pos.dist(&p);
            assert!(dist <= 2000.0);
            assert!(dist >= last, "not sorted by distance");
            last = dist;
        }
    }

    /// The full-window scan and stable sort `cells_within` ran before the
    /// ring scan: the bitwise oracle for both queries.
    fn full_window_scan(d: &Deployment, p: XY, radius_m: f64) -> Vec<CellId> {
        let br = (radius_m / d.bucket_m).ceil() as isize + 1;
        let bx = ((p.x + d.extent_m) / d.bucket_m) as isize;
        let by = ((p.y + d.extent_m) / d.bucket_m) as isize;
        let mut out: Vec<(f64, CellId)> = Vec::new();
        for dy in -br..=br {
            for dx in -br..=br {
                let gx = bx + dx;
                let gy = by + dy;
                if gx < 0 || gy < 0 || gx >= d.side as isize || gy >= d.side as isize {
                    continue;
                }
                let b = gy as usize * d.side + gx as usize;
                let (first, end) = (d.bucket_sites[b] as usize, d.bucket_sites[b + 1] as usize);
                let ranks = d.site_start[first] as usize..d.site_start[end] as usize;
                for &id in &d.bucket_cells[ranks] {
                    let dist = d.cells[id as usize].pos.dist(&p);
                    if dist <= radius_m {
                        out.push((dist, id));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        out.into_iter().map(|(_, id)| id).collect()
    }

    const RADII: [f64; 5] = [250.0, 999.9, 1000.0, 2000.0, 4000.0];
    const CAPS: [usize; 6] = [0, 1, 3, 8, 48, usize::MAX];

    /// Query points for a deployment: random points up to `spread` times
    /// the extent from the origin, points on bucket edges (exactly, and
    /// nudged by less than the 1 m rounding margin), and the extent's
    /// corners and edge midpoints.
    fn probe_points(d: &Deployment, seed: u64, spread: f64) -> Vec<XY> {
        let mut rng = Rng::seed_from(seed);
        let e = d.extent_m;
        let mut pts: Vec<XY> = (0..120)
            .map(|_| {
                XY::new(
                    rng.uniform(-spread * e, spread * e),
                    rng.uniform(-spread * e, spread * e),
                )
            })
            .collect();
        let nudges = [0.0, 1e-7, -1e-7, 0.5, -0.5];
        for i in 0..60 {
            let on_edge = |rng: &mut Rng| -e + rng.gen_range(d.side + 1) as f64 * d.bucket_m;
            let x = on_edge(&mut rng) + nudges[i % nudges.len()];
            let y = if i % 3 == 0 {
                on_edge(&mut rng) + nudges[(i / 5) % nudges.len()]
            } else {
                rng.uniform(-e, e)
            };
            pts.push(if i % 2 == 0 {
                XY::new(x, y)
            } else {
                XY::new(y, x)
            });
        }
        for (x, y) in [
            (-1.0, -1.0),
            (-1.0, 1.0),
            (1.0, -1.0),
            (1.0, 1.0),
            (1.0, 0.0),
            (0.0, -1.0),
        ] {
            pts.push(XY::new(x * e, y * e));
        }
        pts
    }

    /// `nearest_within(p, r, k)` is the oracle truncated to `k` and
    /// `cells_within(p, r)` is the oracle, for every probe point, radius
    /// and cap.
    fn assert_matches_oracle(d: &Deployment, pts: &[XY]) {
        for &p in pts {
            for r in RADII {
                let want = full_window_scan(d, p, r);
                assert_eq!(d.cells_within(p, r), want, "cells_within at {p:?}, r {r}");
                for k in CAPS {
                    assert_eq!(
                        d.nearest_within(p, r, k),
                        want[..k.min(want.len())],
                        "nearest_within at {p:?}, r {r}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn nearest_within_is_the_truncated_full_scan_in_city_and_region() {
        for (d, seed) in [
            (deployment().1, 101),
            (
                Deployment::from_world(&World::generate(WorldCfg::region(13))),
                102,
            ),
        ] {
            assert_matches_oracle(&d, &probe_points(&d, seed, 1.15));
        }
    }

    #[test]
    fn nearest_within_is_the_truncated_full_scan_with_clamped_and_cosited_cells() {
        // Extent 2.5 km (5 x 5 buckets) of three-sector sites. Seen from
        // (0, -50), the first four sites tie at 500 m, the first in the
        // bucket row below p's, so the tie spans rings and buckets and the
        // row-major rank decides it. The next four tie at 500 m around the
        // origin; six lie outside the extent, clamped into edge buckets.
        let sites = [
            (0.0, -550.0),
            (0.0, 450.0),
            (-500.0, -50.0),
            (500.0, -50.0),
            (500.0, 0.0),
            (-500.0, 0.0),
            (0.0, 500.0),
            (0.0, -500.0),
            (3200.0, 100.0),
            (-4000.0, -4000.0),
            (0.0, 2600.0),
            (2600.0, 2600.0),
            (-2501.0, 0.0),
            (10_000.0, 0.0),
            (1200.0, -1800.0),
            (-2400.0, 2450.0),
        ];
        let mut cells = Vec::new();
        for (x, y) in sites {
            for s in 0..3 {
                cells.push(Cell {
                    id: cells.len() as CellId,
                    pos: XY::new(x, y),
                    latlon: LatLon::new(0.0, 0.0),
                    azimuth_deg: 120.0 * s as f64,
                    p_max_dbm: 43.0,
                    district: DistrictKind::Urban,
                });
            }
        }
        let d = Deployment::from_cells(cells, 2500.0);
        let mut pts = probe_points(&d, 103, 4.5);
        pts.extend(sites.iter().map(|&(x, y)| XY::new(x, y)));
        pts.extend([
            XY::new(0.0, -50.0),
            XY::new(0.0, 0.0),
            XY::new(2499.0, 0.0),
            XY::new(2500.0, 2500.0),
        ]);
        assert_matches_oracle(&d, &pts);
        // Three sectors at 450 m, then the tie's first site, found in the
        // second ring after p's own bucket had filled the cut.
        let near = d.nearest_within(XY::new(0.0, -50.0), 600.0, 8);
        assert_eq!(near, [21, 22, 23, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn rounding_margin_covers_a_cell_indexed_across_a_bucket_edge() {
        // In a 20 km extent, `x + extent` rounds cell A, 2^-39 m west of the
        // 15 km bucket edge, into the bucket east of it. From p, 3.6e-12 m
        // west of A, A is nearer than B in p's own bucket, yet without the
        // margin p's 5.5e-12 m clearance to that edge would end the scan at
        // B.
        let cell = |id, x, y| Cell {
            id,
            pos: XY::new(x, y),
            latlon: LatLon::new(0.0, 0.0),
            azimuth_deg: 0.0,
            p_max_dbm: 43.0,
            district: DistrictKind::Urban,
        };
        let edge = 15_000.0;
        let tick = 2f64.powi(-39);
        let p = XY::new(edge - 3.0 * tick, 500.0);
        let d = Deployment::from_cells(
            vec![cell(0, edge - tick, 500.0), cell(1, p.x, 500.0 + 4.5e-12)],
            20_000.0,
        );
        assert_matches_oracle(&d, &[p]);
        assert_eq!(d.nearest_within(p, 250.0, 1), [0]);
    }

    #[test]
    fn queries_are_safe_at_any_finite_point() {
        let (_, d) = deployment();
        let far = [0.0, 1e30, -1e30, f64::MAX, -f64::MAX];
        for x in far {
            for y in far {
                if x == 0.0 && y == 0.0 {
                    continue;
                }
                let p = XY::new(x, y);
                for r in [250.0, 2000.0] {
                    assert!(d.cells_within(p, r).is_empty(), "at {p:?}, r {r}");
                    assert!(d.nearest_within(p, r, 8).is_empty(), "at {p:?}, r {r}");
                }
                // A radius that reaches the world from anywhere: every
                // cell, nearest first.
                assert_eq!(d.cells_within(p, f64::INFINITY).len(), d.len(), "at {p:?}");
            }
        }
    }

    #[test]
    fn sectors_of_a_site_share_one_site_record() {
        let (w, d) = deployment();
        assert_eq!(d.site_pos.len(), w.sites.len());
        assert_eq!(*d.site_start.last().unwrap() as usize, d.len());
        for s in 0..d.site_pos.len() {
            let ranks = d.site_ranks(s);
            assert_eq!(ranks.len(), 3);
            for r in ranks {
                assert_eq!(d.cell(d.bucket_cells[r]).pos, d.site_pos[s]);
            }
        }
    }

    #[test]
    fn cells_within_matches_brute_force() {
        for (d, seed) in [
            (deployment().1, 101),
            (
                Deployment::from_world(&World::generate(WorldCfg::region(13))),
                102,
            ),
        ] {
            for p in probe_points(&d, seed, 1.15) {
                for r in RADII {
                    let mut fast = d.cells_within(p, r);
                    let mut brute: Vec<CellId> = d
                        .cells
                        .iter()
                        .filter(|c| c.pos.dist(&p) <= r)
                        .map(|c| c.id)
                        .collect();
                    fast.sort_unstable();
                    brute.sort_unstable();
                    assert_eq!(fast, brute, "at {p:?}, r {r}");
                }
            }
        }
    }

    #[test]
    fn deployment_is_deterministic() {
        let w = World::generate(WorldCfg::city(11));
        let d1 = Deployment::from_world(&w);
        let d2 = Deployment::from_world(&w);
        assert_eq!(d1.len(), d2.len());
        for (a, b) in d1.cells.iter().zip(d2.cells.iter()) {
            assert_eq!(a.azimuth_deg, b.azimuth_deg);
            assert_eq!(a.p_max_dbm, b.p_max_dbm);
        }
    }

    #[test]
    fn rural_cells_run_more_power() {
        let w = World::generate(WorldCfg::region(13));
        let d = Deployment::from_world(&w);
        let avg = |k: DistrictKind| {
            let v: Vec<f64> = d
                .cells
                .iter()
                .filter(|c| c.district == k)
                .map(|c| c.p_max_dbm)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        assert!(avg(DistrictKind::Rural) > avg(DistrictKind::CityCenter));
    }
}
