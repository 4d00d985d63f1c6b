//! # gendt-geo — geography, procedural world, and trajectories
//!
//! Geographic substrate for the GenDT reproduction:
//!
//! * [`coords`] — WGS-84 lat/lon, a local east-north planar frame, and an
//!   equirectangular [`coords::Projection`] between them.
//! * [`landuse`] — the 26 environment-context attributes of the paper
//!   (12 Urban-Atlas land-use classes + 14 OSM PoI kinds).
//! * [`world`] — procedural world generation: districts, a land-use
//!   raster, PoI scatter, and a cell-site plan with district-dependent
//!   density (the synthetic stand-in for CellMapper / Urban Atlas / OSM).
//! * [`trajectory`] — drive-test route synthesis per measurement scenario
//!   (walk, bus, tram, city driving, highway) with OU speed dynamics.
//!
//! Everything is deterministic in an explicit `u64` seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coords;
pub mod landuse;
pub mod trajectory;
pub mod world;

pub use coords::{bearing_diff_deg, LatLon, Projection, XY};
pub use landuse::{LandUse, PoiKind, ENV_ATTRS};
pub use trajectory::{generate, generate_complex, Scenario, TrackPoint, Trajectory, TrajectoryCfg};
pub use world::{District, DistrictKind, EnvCounts, Poi, SitePlan, World, WorldCfg};
