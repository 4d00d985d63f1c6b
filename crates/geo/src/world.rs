//! Procedural world generation.
//!
//! The paper's datasets come with real-world context: a cell database
//! (CellMapper), Urban Atlas land-use polygons, and OSM points of interest.
//! This module generates a synthetic but structurally equivalent world —
//! districts of different character, a land-use raster, PoI scatter, and a
//! cell-site plan whose density varies by district (paper Fig. 4) — from a
//! single seed, so the whole data pipeline downstream of "context lookup"
//! is exercised exactly as it would be with the real sources.
//!
//! The environment query ([`World::env_counts`]) runs for every
//! point of every route, so the world keeps an index for it, built once
//! in [`World::generate`]: running counts of each land use along each
//! raster row, and the PoIs sorted into raster-cell buckets with one
//! offset per bucket. A disc's land-use counts then cost a few exact
//! distance tests per raster row, and its PoIs one contiguous scan per
//! row, with distances compared squared against a threshold that
//! answers exactly as the square root would. For the 8 x 8 km city the
//! index holds 181 KB.

use crate::coords::{LatLon, Projection, XY};
use crate::landuse::{LandUse, PoiKind, ENV_ATTRS};
use gendt_rng::Rng;
use serde::{Deserialize, Serialize};

/// Character of a district; drives land use, PoI intensity, and cell
/// density.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DistrictKind {
    /// Dense city core: continuous urban fabric, many PoIs, dense cells.
    CityCenter,
    /// General urban fabric.
    Urban,
    /// Residential suburbs.
    Suburban,
    /// Industrial / commercial zones.
    Industrial,
    /// Parks and green areas.
    Park,
    /// Open rural land, crossed by highways.
    Rural,
}

impl DistrictKind {
    /// All district kinds.
    pub const ALL: [DistrictKind; 6] = [
        DistrictKind::CityCenter,
        DistrictKind::Urban,
        DistrictKind::Suburban,
        DistrictKind::Industrial,
        DistrictKind::Park,
        DistrictKind::Rural,
    ];

    /// Cell-site density in sites per km² (before sectorization).
    /// Calibrated so scenario-level cell densities match the shape of
    /// paper Fig. 4 (city center ~15-30/km², highway ~2-8/km²).
    pub fn site_density_per_km2(self) -> f64 {
        match self {
            DistrictKind::CityCenter => 9.0,
            DistrictKind::Urban => 5.0,
            DistrictKind::Suburban => 2.5,
            DistrictKind::Industrial => 3.5,
            DistrictKind::Park => 1.2,
            DistrictKind::Rural => 0.7,
        }
    }

    /// Land-use mixture for this district: `(class, weight)` pairs.
    fn land_use_mix(self) -> &'static [(LandUse, f64)] {
        match self {
            DistrictKind::CityCenter => &[
                (LandUse::ContinuousUrban, 0.55),
                (LandUse::HighDenseUrban, 0.25),
                (LandUse::IndustrialCommercial, 0.08),
                (LandUse::GreenUrban, 0.07),
                (LandUse::LeisureFacilities, 0.05),
            ],
            DistrictKind::Urban => &[
                (LandUse::HighDenseUrban, 0.35),
                (LandUse::MediumDenseUrban, 0.35),
                (LandUse::ContinuousUrban, 0.10),
                (LandUse::GreenUrban, 0.10),
                (LandUse::IndustrialCommercial, 0.10),
            ],
            DistrictKind::Suburban => &[
                (LandUse::MediumDenseUrban, 0.25),
                (LandUse::LowDenseUrban, 0.40),
                (LandUse::VeryLowDenseUrban, 0.20),
                (LandUse::GreenUrban, 0.10),
                (LandUse::LeisureFacilities, 0.05),
            ],
            DistrictKind::Industrial => &[
                (LandUse::IndustrialCommercial, 0.65),
                (LandUse::AirSeaPorts, 0.10),
                (LandUse::BarrenLands, 0.10),
                (LandUse::LowDenseUrban, 0.10),
                (LandUse::MediumDenseUrban, 0.05),
            ],
            DistrictKind::Park => &[
                (LandUse::GreenUrban, 0.60),
                (LandUse::LeisureFacilities, 0.15),
                (LandUse::Sea, 0.10),
                (LandUse::VeryLowDenseUrban, 0.10),
                (LandUse::IsolatedStructures, 0.05),
            ],
            DistrictKind::Rural => &[
                (LandUse::BarrenLands, 0.40),
                (LandUse::VeryLowDenseUrban, 0.20),
                (LandUse::IsolatedStructures, 0.20),
                (LandUse::GreenUrban, 0.15),
                (LandUse::LowDenseUrban, 0.05),
            ],
        }
    }

    /// PoI intensity per km² for each PoI kind.
    fn poi_intensity_per_km2(self, kind: PoiKind) -> f64 {
        use DistrictKind::*;
        use PoiKind::*;
        let base = match kind {
            Tourism => 3.0,
            Cafe => 8.0,
            Parking => 10.0,
            Restaurant => 12.0,
            PostPolice => 1.5,
            TrafficSignal => 15.0,
            Office => 10.0,
            PublicTransport => 12.0,
            Shop => 20.0,
            PrimaryRoads => 14.0,
            SecondaryRoads => 20.0,
            Motorways => 2.0,
            RailwayStations => 0.6,
            TramStops => 4.0,
        };
        let factor = match self {
            CityCenter => match kind {
                Motorways => 0.2,
                _ => 2.5,
            },
            Urban => 1.2,
            Suburban => match kind {
                Shop | Office | Cafe | Restaurant => 0.4,
                _ => 0.7,
            },
            Industrial => match kind {
                Office | Parking => 1.5,
                Shop | Cafe | Restaurant | Tourism => 0.3,
                _ => 0.6,
            },
            Park => match kind {
                Tourism => 1.0,
                _ => 0.2,
            },
            Rural => match kind {
                Motorways => 2.5,
                PrimaryRoads => 0.8,
                _ => 0.08,
            },
        };
        base * factor
    }
}

/// A point of interest.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Poi {
    /// Location in the local frame.
    pub pos: XY,
    /// What kind of PoI this is.
    pub kind: PoiKind,
}

/// A planned cell-site position (sectorization happens in `gendt-radio`).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SitePlan {
    /// Site location in the local frame.
    pub pos: XY,
    /// District the site serves (drives power/height defaults).
    pub district: DistrictKind,
}

/// A district seed: everything within the world is assigned to the nearest
/// seed (a Voronoi partition).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct District {
    /// Seed point of the Voronoi cell.
    pub center: XY,
    /// Character of the district.
    pub kind: DistrictKind,
}

/// World-generation configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorldCfg {
    /// World half-extent in meters; the world covers
    /// `[-extent, extent] x [-extent, extent]`.
    pub extent_m: f64,
    /// Land-use raster cell size in meters.
    pub grid_m: f64,
    /// Number of district seeds of each kind: `(kind, count)`.
    pub districts: Vec<(DistrictKind, usize)>,
    /// Geographic anchor of the local frame.
    pub origin: LatLon,
    /// Seed for all procedural generation in the world.
    pub seed: u64,
}

impl WorldCfg {
    /// A compact single-city world (used for Dataset A): ~8 x 8 km.
    pub fn city(seed: u64) -> Self {
        WorldCfg {
            extent_m: 4_000.0,
            grid_m: 100.0,
            districts: vec![
                (DistrictKind::CityCenter, 2),
                (DistrictKind::Urban, 4),
                (DistrictKind::Suburban, 4),
                (DistrictKind::Industrial, 1),
                (DistrictKind::Park, 2),
            ],
            origin: LatLon::new(55.95, -3.19), // Edinburgh-like anchor
            seed,
        }
    }

    /// A wide multi-city region (used for Dataset B): ~40 x 40 km with
    /// rural corridors between urban pockets.
    pub fn region(seed: u64) -> Self {
        WorldCfg {
            extent_m: 20_000.0,
            grid_m: 250.0,
            districts: vec![
                (DistrictKind::CityCenter, 3),
                (DistrictKind::Urban, 6),
                (DistrictKind::Suburban, 8),
                (DistrictKind::Industrial, 3),
                (DistrictKind::Park, 4),
                (DistrictKind::Rural, 14),
            ],
            origin: LatLon::new(51.51, 7.47), // Dortmund-like anchor
            seed,
        }
    }
}

/// A generated world: districts, land-use raster, PoIs, and cell-site plan.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct World {
    /// The configuration the world was generated from.
    pub cfg: WorldCfg,
    /// Projection anchoring the local frame to lat/lon.
    pub projection: Projection,
    /// District seeds.
    pub districts: Vec<District>,
    /// Points of interest, in the environment index's bucket order:
    /// raster cell by raster cell, row-major, generation order within a
    /// cell, then the PoIs outside the raster, which are not counted.
    pub pois: Vec<Poi>,
    /// Planned cell sites.
    pub sites: Vec<SitePlan>,
    grid_side: usize,
    land_use: Vec<LandUse>,
    env: EnvIndex,
}

/// The environment query's index, built once per world.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct EnvIndex {
    /// Running counts of each land use along each raster row: entry
    /// `gy * (side + 1) + gx` counts the cells of each class among
    /// columns `0..gx` of row `gy`.
    land_use_prefix: Vec<[u16; LandUse::COUNT]>,
    /// The PoIs of raster cell `b` (row-major) are
    /// `pois[poi_start[b]..poi_start[b + 1]]`.
    poi_start: Vec<u32>,
}

/// Integer counts behind an environment vector within a disc: the
/// raster cells of each land use whose centres lie in it, and the PoIs
/// of each kind in it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnvCounts {
    /// Raster cells per land use, in [`LandUse::index`] order.
    pub land_use: [u32; LandUse::COUNT],
    /// PoIs per kind, in [`PoiKind::index`] order.
    pub poi: [u32; PoiKind::COUNT],
}

impl EnvCounts {
    /// The environment vector [`World::env_context`] returns: the land-use
    /// counts as fractions of the disc's raster cells (all zero when it
    /// holds none), then the PoI counts.
    pub fn to_vector(&self) -> [f64; ENV_ATTRS] {
        let total: u32 = self.land_use.iter().sum();
        let mut out = [0.0; ENV_ATTRS];
        if total > 0 {
            for (o, &c) in out.iter_mut().zip(&self.land_use) {
                *o = f64::from(c) / f64::from(total);
            }
        }
        for (o, &c) in out[LandUse::COUNT..].iter_mut().zip(&self.poi) {
            *o = f64::from(c);
        }
        out
    }
}

impl World {
    /// Generate a world from a configuration. Deterministic in `cfg.seed`.
    pub fn generate(cfg: WorldCfg) -> World {
        let mut rng = Rng::seed_from(cfg.seed);
        let projection = Projection::new(cfg.origin);

        // District seeds: uniformly scattered; city centers biased to the
        // middle so "downtown" sits near the origin.
        let mut districts = Vec::new();
        for &(kind, count) in &cfg.districts {
            for _ in 0..count {
                let spread = match kind {
                    DistrictKind::CityCenter => 0.35,
                    DistrictKind::Urban => 0.6,
                    _ => 1.0,
                };
                let x = rng.uniform(-cfg.extent_m * spread, cfg.extent_m * spread);
                let y = rng.uniform(-cfg.extent_m * spread, cfg.extent_m * spread);
                districts.push(District {
                    center: XY::new(x, y),
                    kind,
                });
            }
        }
        if districts.is_empty() {
            districts.push(District {
                center: XY::new(0.0, 0.0),
                kind: DistrictKind::Urban,
            });
        }

        // Land-use raster: each cell takes the mix of its district.
        let grid_side = ((2.0 * cfg.extent_m / cfg.grid_m).ceil() as usize).max(1);
        let mut land_use = Vec::with_capacity(grid_side * grid_side);
        for gy in 0..grid_side {
            for gx in 0..grid_side {
                let x = -cfg.extent_m + (gx as f64 + 0.5) * cfg.grid_m;
                let y = -cfg.extent_m + (gy as f64 + 0.5) * cfg.grid_m;
                let kind = nearest_district(&districts, XY::new(x, y)).kind;
                land_use.push(sample_mix(kind.land_use_mix(), &mut rng));
            }
        }

        // PoIs: Poisson scatter per district kind intensity, evaluated per
        // raster cell (so intensity follows the Voronoi partition).
        let cell_km2 = (cfg.grid_m / 1000.0).powi(2);
        let mut pois = Vec::new();
        for gy in 0..grid_side {
            for gx in 0..grid_side {
                let x0 = -cfg.extent_m + gx as f64 * cfg.grid_m;
                let y0 = -cfg.extent_m + gy as f64 * cfg.grid_m;
                let kind = nearest_district(
                    &districts,
                    XY::new(x0 + cfg.grid_m / 2.0, y0 + cfg.grid_m / 2.0),
                )
                .kind;
                for pk in PoiKind::ALL {
                    let lambda = kind.poi_intensity_per_km2(pk) * cell_km2;
                    let n = poisson(lambda, &mut rng);
                    for _ in 0..n {
                        let pos = XY::new(
                            x0 + rng.uniform01() * cfg.grid_m,
                            y0 + rng.uniform01() * cfg.grid_m,
                        );
                        pois.push(Poi { pos, kind: pk });
                    }
                }
            }
        }

        // Cell sites: Poisson per raster cell with a minimum separation to
        // avoid stacked sites.
        let mut sites: Vec<SitePlan> = Vec::new();
        let min_sep = cfg.grid_m * 0.8;
        for gy in 0..grid_side {
            for gx in 0..grid_side {
                let x0 = -cfg.extent_m + gx as f64 * cfg.grid_m;
                let y0 = -cfg.extent_m + gy as f64 * cfg.grid_m;
                let kind = nearest_district(
                    &districts,
                    XY::new(x0 + cfg.grid_m / 2.0, y0 + cfg.grid_m / 2.0),
                )
                .kind;
                let lambda = kind.site_density_per_km2() * cell_km2;
                let n = poisson(lambda, &mut rng);
                for _ in 0..n {
                    let pos = XY::new(
                        x0 + rng.uniform01() * cfg.grid_m,
                        y0 + rng.uniform01() * cfg.grid_m,
                    );
                    let too_close = sites
                        .iter()
                        .rev()
                        .take(64)
                        .any(|s| s.pos.dist(&pos) < min_sep);
                    if !too_close {
                        sites.push(SitePlan {
                            pos,
                            district: kind,
                        });
                    }
                }
            }
        }

        let mut world = World {
            cfg,
            projection,
            districts,
            pois,
            sites,
            grid_side,
            land_use,
            env: EnvIndex::default(),
        };
        world.index_env();
        world
    }

    /// Build the environment index: the land-use running counts, and the
    /// PoIs sorted into raster-cell buckets by a stable counting sort.
    ///
    /// # Panics
    /// Panics if the raster is wider than 65,535 cells or the world holds
    /// more than `u32::MAX` PoIs.
    fn index_env(&mut self) {
        let side = self.grid_side;
        assert!(side <= usize::from(u16::MAX), "land-use raster too wide");
        let mut prefix = Vec::with_capacity(side * (side + 1));
        for row in self.land_use.chunks(side) {
            let mut run = [0u16; LandUse::COUNT];
            prefix.push(run);
            for lu in row {
                run[lu.index()] += 1;
                prefix.push(run);
            }
        }
        // Bucket `cells`, after all the others, takes the uncounted PoIs.
        let cells = side * side;
        let bucket: Vec<usize> = self
            .pois
            .iter()
            .map(|poi| self.raster_cell(poi.pos).unwrap_or(cells))
            .collect();
        let mut start = vec![0usize; cells + 2];
        for &b in &bucket {
            start[b + 1] += 1;
        }
        for b in 1..start.len() {
            start[b] += start[b - 1];
        }
        let mut next = start.clone();
        let mut sorted = self.pois.clone();
        for (poi, &b) in self.pois.iter().zip(&bucket) {
            sorted[next[b]] = *poi;
            next[b] += 1;
        }
        self.pois = sorted;
        self.env = EnvIndex {
            land_use_prefix: prefix,
            poi_start: start[..=cells]
                .iter()
                .map(|&i| u32::try_from(i).expect("at most u32::MAX PoIs"))
                .collect(),
        };
    }

    /// Row-major index of the raster cell holding `p`, if `p` lies in the
    /// raster. Every generated PoI does, except any whose position rounds
    /// onto the extent's east or north edge: those have never been
    /// counted.
    fn raster_cell(&self, p: XY) -> Option<usize> {
        let (e, g, side) = (self.cfg.extent_m, self.cfg.grid_m, self.grid_side as f64);
        let (u, v) = ((p.x + e) / g, (p.y + e) / g);
        ((0.0..side).contains(&u) && (0.0..side).contains(&v))
            .then(|| v as usize * self.grid_side + u as usize)
    }

    /// Land use at a point (clamped to the world bounds).
    pub fn land_use_at(&self, p: XY) -> LandUse {
        let gx = (((p.x + self.cfg.extent_m) / self.cfg.grid_m) as isize)
            .clamp(0, self.grid_side as isize - 1) as usize;
        let gy = (((p.y + self.cfg.extent_m) / self.cfg.grid_m) as isize)
            .clamp(0, self.grid_side as isize - 1) as usize;
        self.land_use[gy * self.grid_side + gx]
    }

    /// District kind at a point.
    pub fn district_kind_at(&self, p: XY) -> DistrictKind {
        nearest_district(&self.districts, p).kind
    }

    /// Environment-context vector at a point: 12 land-use area fractions
    /// followed by 14 PoI counts, all within `radius_m` (paper uses 500 m).
    pub fn env_context(&self, p: XY, radius_m: f64) -> Vec<f64> {
        self.env_counts(p, radius_m).to_vector().to_vec()
    }

    /// The counts behind [`World::env_context`]: the raster cells of each
    /// land use whose centres lie within `radius_m` of `p`, and the PoIs
    /// of each kind within it. Any finite `p` is safe; it need not lie in
    /// the world.
    ///
    /// "Within" is `q.dist(&p) <= radius_m`, tested as the squared
    /// distance against `sq_threshold(radius_m)`, which gives the same
    /// answer for every distance. On each raster row the disc's cells form
    /// one run of columns: the predicate is tested at the run's ends only,
    /// and the row's running counts give its land uses. The PoIs come
    /// from the buckets (raster cells) a disc row can reach, one
    /// contiguous range per row, each tested against the threshold.
    pub fn env_counts(&self, p: XY, radius_m: f64) -> EnvCounts {
        let mut out = EnvCounts::default();
        let t = sq_threshold(radius_m);
        let (e, g, side) = (self.cfg.extent_m, self.cfg.grid_m, self.grid_side);
        // In raster coordinates cell `i` spans [i, i + 1); `centre` is its
        // centre in meters. The coordinates only guess which cells to
        // test, so a multiplication stands in for the division.
        let per_cell = 1.0 / g;
        let coord = |v: f64| (v + e) * per_cell;
        let centre = |i: usize| -e + (i as f64 + 0.5) * g;

        // The rows whose centres lie within the radius of p, and a row
        // more on each side against rounding.
        let y0 = clamp_cell(coord(p.y - radius_m).floor() - 1.0, side);
        let y1 = clamp_cell(coord(p.y + radius_m).ceil() + 1.0, side);
        let mid = clamp_cell((coord(p.x) - 0.5).round(), side);
        for gy in y0..=y1 {
            let dy = p.y - centre(gy);
            let dy2 = dy * dy;
            if dy2 > t {
                continue;
            }
            let inside = |gx: usize| {
                let dx = p.x - centre(gx);
                dx * dx + dy2 <= t
            };
            // The run's ends are about `half` from p, its middle at p.
            let half = (t - dy2).sqrt();
            let guess = (
                clamp_cell((coord(p.x - half) - 0.5).ceil(), side),
                clamp_cell((coord(p.x + half) - 0.5).floor(), side),
            );
            if let Some((lo, hi)) = run_ends(side, mid, guess, inside) {
                let row = gy * (side + 1);
                let (from, to) = (
                    &self.env.land_use_prefix[row + lo],
                    &self.env.land_use_prefix[row + hi + 1],
                );
                for ((n, &a), &b) in out.land_use.iter_mut().zip(from).zip(to) {
                    *n += u32::from(b - a);
                }
            }
        }

        // A counted PoI lies in its bucket's cell, so a bucket farther
        // than the radius from p holds none of the disc; the 1 m margin
        // covers bucket-index rounding.
        let reach = radius_m + 1.0;
        let (y0, y1) = (
            clamp_cell(coord(p.y - reach).floor(), side),
            clamp_cell(coord(p.y + reach).floor(), side),
        );
        for gy in y0..=y1 {
            let lo = -e + gy as f64 * g;
            let gap = (lo - p.y).max(p.y - (lo + g)).max(0.0);
            if gap > reach {
                continue;
            }
            let half = (reach * reach - gap * gap).sqrt();
            let x0 = clamp_cell(coord(p.x - half).floor(), side);
            let x1 = clamp_cell(coord(p.x + half).floor(), side);
            let start = &self.env.poi_start[gy * side..];
            let range = start[x0] as usize..start[x1 + 1] as usize;
            for poi in &self.pois[range] {
                let (dx, dy) = (poi.pos.x - p.x, poi.pos.y - p.y);
                out.poi[poi.kind.index()] += u32::from(dx * dx + dy * dy <= t);
            }
        }
        out
    }

    /// Number of planned sites within `radius_m` of a point.
    pub fn sites_within(&self, p: XY, radius_m: f64) -> usize {
        self.sites
            .iter()
            .filter(|s| s.pos.dist(&p) <= radius_m)
            .count()
    }

    /// Cell-site density (sites/km²) within `radius_m` of a point.
    pub fn site_density_at(&self, p: XY, radius_m: f64) -> f64 {
        let n = self.sites_within(p, radius_m);
        let area_km2 = std::f64::consts::PI * (radius_m / 1000.0).powi(2);
        n as f64 / area_km2
    }

    /// Convert a local point to lat/lon.
    pub fn to_latlon(&self, p: XY) -> LatLon {
        self.projection.to_latlon(p)
    }
}

fn nearest_district(districts: &[District], p: XY) -> District {
    *districts
        .iter()
        .min_by(|a, b| {
            a.center
                .dist(&p)
                .partial_cmp(&b.center.dist(&p))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("world has at least one district")
}

fn sample_mix(mix: &[(LandUse, f64)], rng: &mut Rng) -> LandUse {
    let total: f64 = mix.iter().map(|&(_, w)| w).sum();
    let mut r = rng.uniform01() * total;
    for &(lu, w) in mix {
        if r < w {
            return lu;
        }
        r -= w;
    }
    mix.last()
        .map(|&(lu, _)| lu)
        .unwrap_or(LandUse::BarrenLands)
}

/// Knuth Poisson sampler (lambda is always small here: per-raster-cell).
fn poisson(lambda: f64, rng: &mut Rng) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.uniform01();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // safety valve; unreachable for our lambdas
        }
    }
}

/// The largest `s` with `s.sqrt() <= r` (`-inf` when there is none).
///
/// `sqrt` is correctly rounded, hence monotone, so for every `s`,
/// `s <= sq_threshold(r)` exactly when `s.sqrt() <= r`: a distance test
/// `p.dist(&q) <= r` can be made on the squared distance with no square
/// root, and still give the same answer bit for bit.
fn sq_threshold(r: f64) -> f64 {
    if r.is_nan() || r < 0.0 {
        return f64::NEG_INFINITY;
    }
    if r == f64::INFINITY {
        return r;
    }
    // Neighbouring floats of a finite t >= 0 (t > 0 for `down`).
    let up = |t: f64| f64::from_bits(t.to_bits() + 1);
    let down = |t: f64| f64::from_bits(t.to_bits() - 1);
    let mut t = (r * r).min(f64::MAX);
    while t > 0.0 && t.sqrt() > r {
        t = down(t);
    }
    while t < f64::MAX && up(t).sqrt() <= r {
        t = up(t);
    }
    t
}

/// A raster coordinate, already rounded to a whole number, as a cell
/// index clamped to `0..side`; NaN gives 0.
fn clamp_cell(v: f64, side: usize) -> usize {
    v.clamp(0.0, (side - 1) as f64) as usize
}

/// The ends `(lo, hi)` of the run of cells in `0..side` where `inside`
/// holds, or `None` if there are none, given that they form one run and
/// that it holds somewhere in `mid - 1..=mid + 1` if anywhere. `guess`
/// estimates the ends; only cells at the ends are tested, so a good guess
/// costs four tests.
fn run_ends(
    side: usize,
    mid: usize,
    guess: (usize, usize),
    inside: impl Fn(usize) -> bool,
) -> Option<(usize, usize)> {
    let seed = [
        guess.0,
        guess.1,
        mid,
        mid.saturating_sub(1),
        (mid + 1).min(side - 1),
    ]
    .into_iter()
    .find(|&i| inside(i))?;
    // From an end in the run, walk out while the next cell is in it too;
    // from one outside, walk in to the first cell in it (the seed at the
    // latest).
    let mut lo = guess.0.min(seed);
    if lo == seed || inside(lo) {
        while lo > 0 && inside(lo - 1) {
            lo -= 1;
        }
    } else {
        while !inside(lo) {
            lo += 1;
        }
    }
    let mut hi = guess.1.max(seed);
    if hi == seed || inside(hi) {
        while hi + 1 < side && inside(hi + 1) {
            hi += 1;
        }
    } else {
        while !inside(hi) {
            hi -= 1;
        }
    }
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(WorldCfg::city(7));
        let b = World::generate(WorldCfg::city(7));
        assert_eq!(a.sites.len(), b.sites.len());
        assert_eq!(a.pois.len(), b.pois.len());
        assert_eq!(
            a.land_use_at(XY::new(100.0, -250.0)),
            b.land_use_at(XY::new(100.0, -250.0))
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(WorldCfg::city(1));
        let b = World::generate(WorldCfg::city(2));
        assert_ne!(a.pois.len(), b.pois.len());
    }

    #[test]
    fn city_has_reasonable_site_count() {
        let w = World::generate(WorldCfg::city(42));
        // 8x8 km = 64 km², densities 0.7..9 per km² -> expect hundreds.
        assert!(w.sites.len() > 50, "only {} sites", w.sites.len());
        assert!(w.sites.len() < 3000, "too many sites: {}", w.sites.len());
    }

    #[test]
    fn env_context_shape_and_landuse_fractions_sum_to_one() {
        let w = World::generate(WorldCfg::city(42));
        let ctx = w.env_context(XY::new(0.0, 0.0), 500.0);
        assert_eq!(ctx.len(), 26);
        let lu_sum: f64 = ctx[..12].iter().sum();
        assert!(
            (lu_sum - 1.0).abs() < 1e-9,
            "land-use fractions sum to {lu_sum}"
        );
        assert!(
            ctx[12..].iter().all(|&c| c >= 0.0 && c.fract() == 0.0),
            "PoI counts are counts"
        );
    }

    #[test]
    fn city_center_denser_than_rural() {
        let w = World::generate(WorldCfg::region(42));
        // Find one district center of each kind and compare local density.
        let cc = w
            .districts
            .iter()
            .find(|d| d.kind == DistrictKind::CityCenter)
            .unwrap()
            .center;
        let ru = w
            .districts
            .iter()
            .find(|d| d.kind == DistrictKind::Rural)
            .unwrap()
            .center;
        let d_cc = w.site_density_at(cc, 1500.0);
        let d_ru = w.site_density_at(ru, 1500.0);
        assert!(
            d_cc > d_ru,
            "city-center density {d_cc} should exceed rural {d_ru}"
        );
    }

    #[test]
    fn poi_counts_increase_with_radius() {
        let w = World::generate(WorldCfg::city(42));
        let small = w.env_context(XY::new(0.0, 0.0), 250.0);
        let large = w.env_context(XY::new(0.0, 0.0), 1000.0);
        let n_small: f64 = small[12..].iter().sum();
        let n_large: f64 = large[12..].iter().sum();
        assert!(n_large >= n_small);
    }

    /// The 500 m PoI buckets the environment query used before the
    /// raster index: indices into `w.pois`, for the oracles below.
    struct PoiBuckets {
        side: usize,
        buckets: Vec<Vec<u32>>,
    }

    const BUCKET_M: f64 = 500.0;

    fn bucket_of(p: XY, extent: f64, side: usize) -> Option<usize> {
        let gx = ((p.x + extent) / BUCKET_M) as isize;
        let gy = ((p.y + extent) / BUCKET_M) as isize;
        if gx < 0 || gy < 0 || gx >= side as isize || gy >= side as isize {
            return None;
        }
        Some(gy as usize * side + gx as usize)
    }

    impl PoiBuckets {
        fn new(w: &World) -> PoiBuckets {
            let side = ((2.0 * w.cfg.extent_m / BUCKET_M).ceil() as usize).max(1);
            let mut buckets = vec![Vec::new(); side * side];
            for (i, poi) in w.pois.iter().enumerate() {
                if let Some(b) = bucket_of(poi.pos, w.cfg.extent_m, side) {
                    buckets[b].push(i as u32);
                }
            }
            PoiBuckets { side, buckets }
        }
    }

    /// The land-use loop `env_context` ran before the raster index: every
    /// raster cell of the window around p, distance-checked, its class
    /// counted in an `f64`, then divided by the total.
    fn land_use_oracle(w: &World, p: XY, radius_m: f64) -> Vec<f64> {
        let mut out = vec![0.0; LandUse::COUNT];
        let r_cells = (radius_m / w.cfg.grid_m).ceil() as isize + 1;
        let cgx = ((p.x + w.cfg.extent_m) / w.cfg.grid_m) as isize;
        let cgy = ((p.y + w.cfg.extent_m) / w.cfg.grid_m) as isize;
        let mut total = 0usize;
        for dy in -r_cells..=r_cells {
            for dx in -r_cells..=r_cells {
                let gx = cgx + dx;
                let gy = cgy + dy;
                if gx < 0 || gy < 0 || gx >= w.grid_side as isize || gy >= w.grid_side as isize {
                    continue;
                }
                let cx = -w.cfg.extent_m + (gx as f64 + 0.5) * w.cfg.grid_m;
                let cy = -w.cfg.extent_m + (gy as f64 + 0.5) * w.cfg.grid_m;
                if p.dist(&XY::new(cx, cy)) <= radius_m {
                    let lu = w.land_use[gy as usize * w.grid_side + gx as usize];
                    out[lu.index()] += 1.0;
                    total += 1;
                }
            }
        }
        if total > 0 {
            for v in out.iter_mut() {
                *v /= total as f64;
            }
        }
        out
    }

    /// The pruned PoI loop `env_context` ran before the raster index:
    /// the 500 m buckets of the window within reach of p.
    fn pruned_poi_oracle(w: &World, b: &PoiBuckets, p: XY, radius_m: f64) -> Vec<f64> {
        let mut out = vec![0.0; PoiKind::COUNT];
        let br = (radius_m / BUCKET_M).ceil() as isize + 1;
        let bx = ((p.x + w.cfg.extent_m) / BUCKET_M) as isize;
        let by = ((p.y + w.cfg.extent_m) / BUCKET_M) as isize;
        let gap = |q: f64, g: isize| {
            let lo = -w.cfg.extent_m + g as f64 * BUCKET_M;
            (lo - q).max(q - (lo + BUCKET_M)).max(0.0)
        };
        let reach = radius_m + 1.0;
        for dy in -br..=br {
            for dx in -br..=br {
                let gx = bx + dx;
                let gy = by + dy;
                if gx < 0
                    || gy < 0
                    || gx >= b.side as isize
                    || gy >= b.side as isize
                    || gap(p.x, gx).hypot(gap(p.y, gy)) > reach
                {
                    continue;
                }
                for &pi in &b.buckets[gy as usize * b.side + gx as usize] {
                    let poi = w.pois[pi as usize];
                    out[poi.kind.index()] += f64::from(u8::from(poi.pos.dist(&p) <= radius_m));
                }
            }
        }
        out
    }

    /// The unpruned PoI loop: every 500 m bucket of the window, every PoI
    /// distance-checked.
    fn unpruned_poi_counts(w: &World, b: &PoiBuckets, p: XY, radius_m: f64) -> Vec<f64> {
        let mut out = vec![0.0; PoiKind::COUNT];
        let br = (radius_m / BUCKET_M).ceil() as isize + 1;
        let bx = ((p.x + w.cfg.extent_m) / BUCKET_M) as isize;
        let by = ((p.y + w.cfg.extent_m) / BUCKET_M) as isize;
        for dy in -br..=br {
            for dx in -br..=br {
                let gx = bx + dx;
                let gy = by + dy;
                if gx < 0 || gy < 0 || gx >= b.side as isize || gy >= b.side as isize {
                    continue;
                }
                for &pi in &b.buckets[gy as usize * b.side + gx as usize] {
                    let poi = w.pois[pi as usize];
                    if poi.pos.dist(&p) <= radius_m {
                        out[poi.kind.index()] += 1.0;
                    }
                }
            }
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `env_context(p, r)` equals both oracles, all 26 attributes as bits.
    fn assert_env_matches_oracles(w: &World, b: &PoiBuckets, p: XY, r: f64) {
        let got = w.env_context(p, r);
        let mut want = land_use_oracle(w, p, r);
        want.extend(pruned_poi_oracle(w, b, p, r));
        assert_eq!(bits(&got), bits(&want), "at {p:?}, r {r}");
        let unpruned = unpruned_poi_counts(w, b, p, r);
        assert_eq!(
            bits(&got[LandUse::COUNT..]),
            bits(&unpruned),
            "at {p:?}, r {r}"
        );
    }

    fn next_up(r: f64) -> f64 {
        f64::from_bits(r.to_bits() + 1)
    }

    fn next_down(r: f64) -> f64 {
        f64::from_bits(r.to_bits() - 1)
    }

    #[test]
    fn pruned_poi_counts_are_bit_identical_to_the_full_window() {
        for (w, seed) in [
            (World::generate(WorldCfg::city(42)), 201),
            (World::generate(WorldCfg::region(13)), 202),
        ] {
            let b = PoiBuckets::new(&w);
            let mut rng = Rng::seed_from(seed);
            let (e, g) = (w.cfg.extent_m, w.cfg.grid_m);
            for i in 0..300 {
                // Random points up to 15% outside the extent; every fourth
                // on a 500 m bucket edge, every fourth on a raster edge.
                let mut p = XY::new(
                    rng.uniform(-1.15 * e, 1.15 * e),
                    rng.uniform(-1.15 * e, 1.15 * e),
                );
                match i % 4 {
                    0 => p.x = -e + rng.gen_range(b.side + 1) as f64 * BUCKET_M,
                    1 => p.y = -e + rng.gen_range(w.grid_side + 1) as f64 * g,
                    _ => {}
                }
                for r in [250.0, 500.0, 1000.0] {
                    assert_env_matches_oracles(&w, &b, p, r);
                }
            }
            // At a raster centre, the centres at lattice offsets such as
            // (300, 400) lie at exactly 500 m: the disc's boundary passes
            // through cells, at r and one ulp either side of it.
            for _ in 0..40 {
                let c = |rng: &mut Rng| -e + (rng.gen_range(w.grid_side) as f64 + 0.5) * g;
                let p = XY::new(c(&mut rng), c(&mut rng));
                for r in [250.0, 500.0, 1000.0] {
                    for r in [next_down(r), r, next_up(r)] {
                        assert_env_matches_oracles(&w, &b, p, r);
                    }
                }
            }
            // A PoI at exactly r: r is its measured distance from p.
            for _ in 0..60 {
                let p = XY::new(rng.uniform(-e, e), rng.uniform(-e, e));
                for r0 in [250.0, 500.0, 1000.0] {
                    let Some(r) = w
                        .pois
                        .iter()
                        .map(|q| q.pos.dist(&p))
                        .rfind(|d| (r0 * 0.9..r0 * 1.1).contains(d))
                    else {
                        continue;
                    };
                    for r in [next_down(r), r, next_up(r)] {
                        assert_env_matches_oracles(&w, &b, p, r);
                    }
                }
            }
            // The extent's corners and edges, and points beyond them.
            for (x, y) in [
                (-1.0, -1.0),
                (1.0, 1.0),
                (-1.0, 1.0),
                (1.0, 0.3),
                (0.2, -1.0),
            ] {
                for f in [1.0, 1.02, 1.2, 2.0] {
                    for r in [250.0, 500.0, 1000.0] {
                        assert_env_matches_oracles(&w, &b, XY::new(x * e * f, y * e * f), r);
                    }
                }
            }
        }
    }

    #[test]
    fn the_index_counts_the_pois_the_500_m_buckets_counted() {
        for w in [
            World::generate(WorldCfg::city(42)),
            World::generate(WorldCfg::city(1)),
            World::generate(WorldCfg::region(13)),
        ] {
            let b = PoiBuckets::new(&w);
            let key = |poi: &Poi| (poi.pos.x.to_bits(), poi.pos.y.to_bits(), poi.kind.index());
            let mut old: Vec<_> = b
                .buckets
                .iter()
                .flatten()
                .map(|&i| key(&w.pois[i as usize]))
                .collect();
            let end = w.env.poi_start[w.grid_side * w.grid_side] as usize;
            let mut new: Vec<_> = w.pois[..end].iter().map(key).collect();
            old.sort_unstable();
            new.sort_unstable();
            assert_eq!(old, new);
        }
    }

    #[test]
    fn squared_threshold_agrees_with_the_square_root_test() {
        let radii = [0.1, 500.0, 2000.0, 1e6];
        for r in radii
            .into_iter()
            .flat_map(|r| [next_down(r), r, next_up(r)])
        {
            let t = sq_threshold(r);
            assert!(t.sqrt() <= r, "r {r}: T itself must pass");
            assert!(next_up(t).sqrt() > r, "r {r}: T's next float up must fail");
            for s in [next_down(t), t, next_up(t), r * r, next_up(r * r)] {
                assert_eq!(s <= t, s.sqrt() <= r, "r {r}, s {s}");
            }
        }
        assert_eq!(sq_threshold(f64::INFINITY), f64::INFINITY);
        assert_eq!(sq_threshold(f64::MAX), f64::MAX);
        assert_eq!(sq_threshold(0.0), 0.0);
        assert_eq!(sq_threshold(-1.0), f64::NEG_INFINITY);
        assert_eq!(sq_threshold(f64::NAN), f64::NEG_INFINITY);
    }

    #[test]
    fn env_query_is_safe_at_any_finite_point() {
        let w = World::generate(WorldCfg::city(42));
        let far = [0.0, 1e30, -1e30, f64::MAX, -f64::MAX];
        for x in far {
            for y in far {
                if x == 0.0 && y == 0.0 {
                    continue;
                }
                for r in [500.0, 2000.0] {
                    assert_eq!(w.env_context(XY::new(x, y), r), vec![0.0; ENV_ATTRS]);
                }
            }
        }
    }

    #[test]
    fn poi_pruning_margin_covers_a_poi_indexed_across_a_bucket_edge() {
        let tiny = 2f64.powi(-42);
        for (poi, p) in [
            // In the 4 km city extent, `x + extent` rounds PoI A, 2^-42 m
            // west of the 1.5 km edge, into the bucket east of it. A lies
            // exactly 500 m from p, so it counts, but that bucket lies
            // 500 m + 2^-42 from p.
            (XY::new(1500.0 - tiny, 250.0), XY::new(1000.0 - tiny, 250.0)),
            // A PoI on a raster corner, measured exactly 500 m from p. The
            // disc's half-width over the PoI's row rounds to 2e-13 m short
            // of the corner, so the row's buckets would end one short.
            (
                XY::new(-2000.0, -200.0),
                XY::new(-2048.2623671874094, -697.6652930569578),
            ),
        ] {
            let mut w = World::generate(WorldCfg::city(42));
            w.pois = vec![Poi {
                pos: poi,
                kind: PoiKind::Cafe,
            }];
            w.index_env();
            assert_eq!(poi.dist(&p), 500.0);
            let got = w.env_context(p, 500.0);
            let b = PoiBuckets::new(&w);
            assert_eq!(
                got[LandUse::COUNT..],
                unpruned_poi_counts(&w, &b, p, 500.0)[..]
            );
            assert_eq!(got[LandUse::COUNT + PoiKind::Cafe.index()], 1.0, "{poi:?}");
        }
    }

    #[test]
    fn sites_respect_min_separation_locally() {
        let w = World::generate(WorldCfg::city(3));
        // Spot-check consecutive site pairs (separation enforced within a
        // sliding window during generation).
        for pair in w.sites.windows(2) {
            assert!(pair[0].pos.dist(&pair[1].pos) >= 1.0);
        }
    }

    #[test]
    fn latlon_conversion_is_consistent() {
        let w = World::generate(WorldCfg::city(5));
        let p = XY::new(1234.0, -987.0);
        let ll = w.to_latlon(p);
        let back = w.projection.to_xy(ll);
        assert!(back.dist(&p) < 0.01);
    }
}
