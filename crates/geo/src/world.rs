//! Procedural world generation.
//!
//! The paper's datasets come with real-world context: a cell database
//! (CellMapper), Urban Atlas land-use polygons, and OSM points of interest.
//! This module generates a synthetic but structurally equivalent world —
//! districts of different character, a land-use raster, PoI scatter, and a
//! cell-site plan whose density varies by district (paper Fig. 4) — from a
//! single seed, so the whole data pipeline downstream of "context lookup"
//! is exercised exactly as it would be with the real sources.

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
    /// Points of interest.
    pub pois: Vec<Poi>,
    /// Planned cell sites.
    pub sites: Vec<SitePlan>,
    grid_side: usize,
    land_use: Vec<LandUse>,
    poi_buckets: Vec<Vec<u32>>,
    bucket_m: f64,
    bucket_side: usize,
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

        // Spatial index for PoI counting.
        let bucket_m = 500.0;
        let bucket_side = ((2.0 * cfg.extent_m / bucket_m).ceil() as usize).max(1);
        let mut poi_buckets = vec![Vec::new(); bucket_side * bucket_side];
        for (i, poi) in pois.iter().enumerate() {
            if let Some(b) = bucket_of(poi.pos, cfg.extent_m, bucket_m, bucket_side) {
                poi_buckets[b].push(i as u32);
            }
        }

        World {
            cfg,
            projection,
            districts,
            pois,
            sites,
            grid_side,
            land_use,
            poi_buckets,
            bucket_m,
            bucket_side,
        }
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
        let mut out = [0.0; ENV_ATTRS];
        self.env_context_into(p, radius_m, &mut out);
        out.to_vec()
    }

    /// [`World::env_context`] written into `out`, which is overwritten:
    /// the form for callers that query many points.
    pub fn env_context_into(&self, p: XY, radius_m: f64, out: &mut [f64; ENV_ATTRS]) {
        out.fill(0.0);
        // Land-use fractions: sample raster cells whose centers fall in
        // the disc.
        let r_cells = (radius_m / self.cfg.grid_m).ceil() as isize + 1;
        let cgx = ((p.x + self.cfg.extent_m) / self.cfg.grid_m) as isize;
        let cgy = ((p.y + self.cfg.extent_m) / self.cfg.grid_m) as isize;
        let mut total = 0usize;
        for dy in -r_cells..=r_cells {
            for dx in -r_cells..=r_cells {
                let gx = cgx + dx;
                let gy = cgy + dy;
                if gx < 0
                    || gy < 0
                    || gx >= self.grid_side as isize
                    || gy >= self.grid_side as isize
                {
                    continue;
                }
                let cx = -self.cfg.extent_m + (gx as f64 + 0.5) * self.cfg.grid_m;
                let cy = -self.cfg.extent_m + (gy as f64 + 0.5) * self.cfg.grid_m;
                if p.dist(&XY::new(cx, cy)) <= radius_m {
                    let lu = self.land_use[gy as usize * self.grid_side + gx as usize];
                    out[lu.index()] += 1.0;
                    total += 1;
                }
            }
        }
        if total > 0 {
            for v in out.iter_mut().take(LandUse::COUNT) {
                *v /= total as f64;
            }
        }
        // PoI counts via the bucket index. A bucket's PoIs lie inside its
        // rectangle (PoIs outside the extent are not indexed), so a bucket
        // farther than the radius from p holds none of the disc; the 1 m
        // margin covers bucket-index rounding.
        let br = (radius_m / self.bucket_m).ceil() as isize + 1;
        let bx = ((p.x + self.cfg.extent_m) / self.bucket_m) as isize;
        let by = ((p.y + self.cfg.extent_m) / self.bucket_m) as isize;
        let gap = |q: f64, g: isize| {
            let lo = -self.cfg.extent_m + g as f64 * self.bucket_m;
            (lo - q).max(q - (lo + self.bucket_m)).max(0.0)
        };
        let reach = radius_m + 1.0;
        for dy in -br..=br {
            for dx in -br..=br {
                let gx = bx + dx;
                let gy = by + dy;
                if gx < 0
                    || gy < 0
                    || gx >= self.bucket_side as isize
                    || gy >= self.bucket_side as isize
                    || gap(p.x, gx).hypot(gap(p.y, gy)) > reach
                {
                    continue;
                }
                // Adding 0.0 for a PoI outside the disc leaves the count's
                // bits as they are, and spares a branch that a bucket's
                // PoIs, in no spatial order, would mispredict often.
                for &pi in &self.poi_buckets[gy as usize * self.bucket_side + gx as usize] {
                    let poi = self.pois[pi as usize];
                    out[LandUse::COUNT + poi.kind.index()] +=
                        f64::from(u8::from(poi.pos.dist(&p) <= radius_m));
                }
            }
        }
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

fn bucket_of(p: XY, extent: f64, bucket_m: f64, side: usize) -> Option<usize> {
    let gx = ((p.x + extent) / bucket_m) as isize;
    let gy = ((p.y + extent) / bucket_m) as isize;
    if gx < 0 || gy < 0 || gx >= side as isize || gy >= side as isize {
        return None;
    }
    Some(gy as usize * side + gx as usize)
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

    /// The unpruned PoI loop `env_context` ran before it skipped buckets
    /// out of reach: every bucket of the window, every PoI distance-checked.
    fn unpruned_poi_counts(w: &World, p: XY, radius_m: f64) -> Vec<f64> {
        let mut out = vec![0.0; PoiKind::COUNT];
        let br = (radius_m / w.bucket_m).ceil() as isize + 1;
        let bx = ((p.x + w.cfg.extent_m) / w.bucket_m) as isize;
        let by = ((p.y + w.cfg.extent_m) / w.bucket_m) as isize;
        for dy in -br..=br {
            for dx in -br..=br {
                let gx = bx + dx;
                let gy = by + dy;
                if gx < 0 || gy < 0 || gx >= w.bucket_side as isize || gy >= w.bucket_side as isize
                {
                    continue;
                }
                for &pi in &w.poi_buckets[gy as usize * w.bucket_side + gx as usize] {
                    let poi = w.pois[pi as usize];
                    if poi.pos.dist(&p) <= radius_m {
                        out[poi.kind.index()] += 1.0;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn pruned_poi_counts_are_bit_identical_to_the_full_window() {
        for (w, seed) in [
            (World::generate(WorldCfg::city(42)), 201),
            (World::generate(WorldCfg::region(13)), 202),
        ] {
            let mut rng = Rng::seed_from(seed);
            let e = w.cfg.extent_m;
            for i in 0..300 {
                // Random points up to 15% outside the extent, every fourth
                // on a PoI-bucket edge.
                let mut p = XY::new(
                    rng.uniform(-1.15 * e, 1.15 * e),
                    rng.uniform(-1.15 * e, 1.15 * e),
                );
                if i % 4 == 0 {
                    p.x = -e + rng.gen_range(w.bucket_side + 1) as f64 * w.bucket_m;
                }
                for r in [250.0, 500.0, 1000.0] {
                    let got = w.env_context(p, r);
                    let want = unpruned_poi_counts(&w, p, r);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got[LandUse::COUNT..]), bits(&want), "at {p:?}, r {r}");
                }
            }
        }
    }

    #[test]
    fn poi_pruning_margin_covers_a_poi_indexed_across_a_bucket_edge() {
        // In the 4 km city extent, `x + extent` rounds PoI A, 2^-42 m west
        // of the 1.5 km bucket edge, into the bucket east of it. A lies
        // exactly 500 m from p, so it counts, but that bucket's rectangle
        // lies 500 m + 2^-42 from p: without the margin it would be pruned.
        let mut w = World::generate(WorldCfg::city(42));
        let tiny = 2f64.powi(-42);
        w.pois = vec![Poi {
            pos: XY::new(1500.0 - tiny, 250.0),
            kind: PoiKind::Cafe,
        }];
        w.poi_buckets = vec![Vec::new(); w.bucket_side * w.bucket_side];
        let b = bucket_of(w.pois[0].pos, w.cfg.extent_m, w.bucket_m, w.bucket_side);
        w.poi_buckets[b.unwrap()].push(0);
        let p = XY::new(1000.0 - tiny, 250.0);
        let got = w.env_context(p, 500.0);
        assert_eq!(got[LandUse::COUNT..], unpruned_poi_counts(&w, p, 500.0)[..]);
        assert_eq!(got[LandUse::COUNT + PoiKind::Cafe.index()], 1.0);
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
