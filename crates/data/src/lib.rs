//! # gendt-data — drive-test dataset synthesis and model-input pipeline
//!
//! Builds the synthetic counterparts of the paper's two measurement
//! datasets and everything the model consumes:
//!
//! * [`kpi_types`] — KPI channels and fixed-range normalization.
//! * [`run`] — drive-test runs and datasets.
//! * [`builders`] — Dataset A (city walk/bus/tram, 1 s) and Dataset B
//!   (region city-driving/highway, coarse jittered sampling).
//! * [`context`] — network (per-cell) and environment (26-attribute)
//!   conditioning context per trajectory step.
//! * [`windows`] — overlapping/non-overlapping batch windowing
//!   (paper §4.3.3).
//! * [`split`] — geographic train/test splits and the disjoint regional
//!   subsets of the measurement-efficiency experiment.
//! * [`stats`] — Table 1/2 summary rows, Fig. 4 cell densities, Fig. 16
//!   serving-cell distance samples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod context;
pub mod kpi_types;
pub mod run;
pub mod split;
pub mod stats;
pub mod windows;

pub use builders::{dataset_a, dataset_b, dataset_b_subscenarios, BuildCfg};
pub use context::{cell_features, extract, extract_positions, ContextCfg, RunContext, CELL_FEATS};
pub use kpi_types::Kpi;
pub use run::{Dataset, Run};
pub use split::{geographic_split, regional_subsets, Split};
pub use stats::{
    cell_densities, dataset_a_stats, scenario_stats, serving_distances, ScenarioStats,
};
pub use windows::{windows, Window, WindowCfg};
