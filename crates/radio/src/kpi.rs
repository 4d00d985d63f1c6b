//! Radio-KPI measurement engine.
//!
//! Walks a trajectory through a deployment and produces, per sample, the
//! KPIs a drive-test tool reports (paper §2.2): RSRP, RSRQ, SINR, CQI, and
//! the serving cell id. Serving-cell selection uses the standard A3 event
//! (neighbor better than serving by a hysteresis, sustained for a
//! time-to-trigger), which produces the serving-cell churn the paper's
//! Figs. 1–2 highlight.

use crate::cells::{CellId, Deployment};
use crate::propagation::{mean_rx_power_dbm, Fading, PropagationCfg, ShadowField};
use gendt_geo::trajectory::Trajectory;
use gendt_geo::world::World;
use gendt_rng::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// dBm → milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Milliwatts → dBm.
pub fn mw_to_dbm(mw: f64) -> f64 {
    10.0 * mw.max(1e-30).log10()
}

/// Measurement-engine configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct KpiCfg {
    /// Number of LTE resource blocks (50 = 10 MHz).
    pub n_rb: usize,
    /// Receiver noise figure in dB.
    pub noise_figure_db: f64,
    /// A3 handover hysteresis in dB.
    pub a3_hysteresis_db: f64,
    /// A3 time-to-trigger in consecutive samples.
    pub a3_ttt_samples: usize,
    /// Maximum distance at which a cell can serve (`d_s`, paper §4.2:
    /// ~2 km in cities, ~4 km on highways — use the larger bound).
    pub serving_range_m: f64,
    /// Cap on the number of nearest cells evaluated per step; cells beyond
    /// this rank contribute negligible interference. Keeps dense-city
    /// measurement cost bounded.
    pub max_cells: usize,
    /// Mean cell load in `[0, 1]` (drives interference activity).
    pub mean_load: f64,
    /// Load OU time constant in seconds.
    pub load_tau_s: f64,
    /// Load OU standard deviation.
    pub load_sigma: f64,
}

impl Default for KpiCfg {
    fn default() -> Self {
        KpiCfg {
            n_rb: 50,
            noise_figure_db: 7.0,
            a3_hysteresis_db: 3.0,
            a3_ttt_samples: 2,
            serving_range_m: 4000.0,
            max_cells: 48,
            mean_load: 0.5,
            load_tau_s: 30.0,
            load_sigma: 0.2,
        }
    }
}

impl KpiCfg {
    /// Thermal-plus-receiver noise over the full carrier, in dBm.
    pub fn noise_floor_dbm(&self) -> f64 {
        // -174 dBm/Hz + 10 log10(n_rb * 180 kHz) + NF
        -174.0 + 10.0 * (self.n_rb as f64 * 180_000.0).log10() + self.noise_figure_db
    }
}

/// One drive-test measurement sample.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct KpiSample {
    /// Seconds since trajectory start.
    pub t: f64,
    /// Reference Signal Received Power of the serving cell, dBm.
    pub rsrp_dbm: f64,
    /// Reference Signal Received Quality, dB.
    pub rsrq_db: f64,
    /// Signal to interference-plus-noise ratio, dB.
    pub sinr_db: f64,
    /// Channel quality indicator, 1–15.
    pub cqi: u8,
    /// Total received wideband power, dBm.
    pub rssi_dbm: f64,
    /// Serving cell id.
    pub serving: CellId,
    /// Serving-cell load in `[0, 1]` at this instant.
    pub serving_load: f64,
    /// Number of cells visible within the serving range.
    pub visible_cells: usize,
    /// 2-D distance to the serving cell, meters.
    pub serving_dist_m: f64,
}

/// CQI from SINR using a 15-step MCS-style mapping: thresholds spaced
/// ~1.9 dB apart from -6.7 dB (CQI 1) to ~20 dB (CQI 15).
pub fn cqi_from_sinr(sinr_db: f64) -> u8 {
    let idx = ((sinr_db + 6.7) / 1.9).floor() as i64 + 1;
    idx.clamp(1, 15) as u8
}

/// Measures KPIs along trajectories over a fixed deployment; owns the
/// per-cell shadowing fields (spatial, pass-invariant) and spawns per-pass
/// fading and load processes.
pub struct KpiEngine<'a> {
    world: &'a World,
    deployment: &'a Deployment,
    prop: PropagationCfg,
    cfg: KpiCfg,
    shadows: Vec<ShadowField>,
}

impl<'a> KpiEngine<'a> {
    /// Build an engine over a world and deployment.
    pub fn new(
        world: &'a World,
        deployment: &'a Deployment,
        prop: PropagationCfg,
        cfg: KpiCfg,
    ) -> Self {
        let shadows = (0..deployment.len() as u32)
            .map(|id| ShadowField::new(world.cfg.seed, id, &prop))
            .collect();
        KpiEngine {
            world,
            deployment,
            prop,
            cfg,
            shadows,
        }
    }

    /// KPI configuration in use.
    pub fn cfg(&self) -> &KpiCfg {
        &self.cfg
    }

    /// Measure one pass over a trajectory. `pass_seed` controls the
    /// pass-specific randomness (fading, load); repeated passes with
    /// different seeds over the same trajectory reproduce the variability
    /// of paper Fig. 1.
    pub fn measure(&self, traj: &Trajectory, pass_seed: u64) -> Vec<KpiSample> {
        let mut rng = Rng::seed_from(pass_seed);
        let mut fadings: HashMap<CellId, Fading> = HashMap::new();
        let mut pass_shadows: HashMap<CellId, Fading> = HashMap::new();
        let mut loads: HashMap<CellId, (f64, Rng)> = HashMap::new();
        let noise_mw = dbm_to_mw(self.cfg.noise_floor_dbm());
        let rb_factor = 10.0 * (12.0 * self.cfg.n_rb as f64).log10();

        let mut serving: Option<CellId> = None;
        let mut a3_count: usize = 0;
        let mut a3_candidate: Option<CellId> = None;
        let mut out = Vec::with_capacity(traj.points.len());
        let mut last_t = traj.points.first().map(|p| p.t).unwrap_or(0.0);

        for pt in &traj.points {
            let dt = (pt.t - last_t).max(1e-3);
            last_t = pt.t;
            let visible = self.deployment.nearest_within(
                pt.pos,
                self.cfg.serving_range_m,
                self.cfg.max_cells,
            );
            if visible.is_empty() {
                // Out of coverage: emit a floor sample attached to the last
                // serving cell (or cell 0) so series stay dense.
                let sid = serving.unwrap_or(0);
                out.push(KpiSample {
                    t: pt.t,
                    rsrp_dbm: -140.0,
                    rsrq_db: -19.5,
                    sinr_db: -10.0,
                    cqi: 1,
                    rssi_dbm: self.cfg.noise_floor_dbm(),
                    serving: sid,
                    serving_load: self.cfg.mean_load,
                    visible_cells: 0,
                    serving_dist_m: f64::MAX,
                });
                continue;
            }

            // Per-cell instantaneous received power (dBm) and load.
            let mut powers: Vec<(CellId, f64, f64)> = Vec::with_capacity(visible.len());
            for &id in &visible {
                let cell = self.deployment.cell(id);
                let fading = fadings.entry(id).or_insert_with(|| {
                    Fading::new(pass_seed ^ ((id as u64 + 1) << 20), &self.prop)
                });
                let pass_shadow = pass_shadows.entry(id).or_insert_with(|| {
                    Fading::new_pass_shadow(
                        pass_seed ^ ((id as u64 + 1) << 21) ^ 0x5AD0,
                        &self.prop,
                    )
                });
                let (load, _) = {
                    let entry = loads.entry(id).or_insert_with(|| {
                        let mut r = Rng::seed_from(pass_seed ^ ((id as u64 + 1) << 40));
                        let init = (self.cfg.mean_load + self.cfg.load_sigma * r.normal())
                            .clamp(0.05, 0.95);
                        (init, r)
                    });
                    // OU load update.
                    let rho = (-dt / self.cfg.load_tau_s).exp();
                    let (l, r) = entry;
                    *l = (self.cfg.mean_load
                        + rho * (*l - self.cfg.mean_load)
                        + (1.0 - rho * rho).sqrt() * self.cfg.load_sigma * r.normal())
                    .clamp(0.05, 0.95);
                    (*l, ())
                };
                let mean = mean_rx_power_dbm(
                    &self.prop,
                    self.world,
                    cell,
                    pt.pos,
                    &self.shadows[id as usize],
                );
                let p = mean + fading.step(dt) + pass_shadow.step(dt);
                powers.push((id, p, load));
            }

            // Serving-cell selection with A3 hysteresis + TTT.
            powers.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let best = powers[0].0;
            let cur = match serving {
                Some(s) if powers.iter().any(|&(id, _, _)| id == s) => s,
                _ => {
                    serving = Some(best);
                    a3_count = 0;
                    a3_candidate = None;
                    best
                }
            };
            let cur_power = powers
                .iter()
                .find(|&&(id, _, _)| id == cur)
                .map(|&(_, p, _)| p)
                .unwrap();
            let serving_id = if best != cur && powers[0].1 > cur_power + self.cfg.a3_hysteresis_db {
                if a3_candidate == Some(best) {
                    a3_count += 1;
                } else {
                    a3_candidate = Some(best);
                    a3_count = 1;
                }
                if a3_count >= self.cfg.a3_ttt_samples {
                    serving = Some(best);
                    a3_count = 0;
                    a3_candidate = None;
                    best
                } else {
                    cur
                }
            } else {
                a3_count = 0;
                a3_candidate = None;
                cur
            };

            // Wideband powers: serving at full reference power; the
            // interference contribution of other cells scales with their
            // load (activity factor).
            let (serving_p, serving_load) = powers
                .iter()
                .find(|&&(id, _, _)| id == serving_id)
                .map(|&(_, p, l)| (p, l))
                .unwrap();
            let serving_mw = dbm_to_mw(serving_p);
            let mut interference_mw = 0.0;
            for &(id, p, load) in &powers {
                if id != serving_id {
                    interference_mw += dbm_to_mw(p) * load;
                }
            }
            let rssi_mw = serving_mw + interference_mw + noise_mw;
            let rssi_dbm = mw_to_dbm(rssi_mw);
            // RSRP: per-resource-element power of the serving cell
            // (paper: RSRP = RSSI - 10 log10(12 N_RB) when serving
            // dominates; we compute it from the serving power directly).
            let rsrp_dbm = (serving_p - rb_factor).clamp(-140.0, -44.0);
            // RSRQ = N_RB * RSRP / RSSI in linear terms, expressed in dB.
            let rsrq_db =
                (10.0 * (self.cfg.n_rb as f64).log10() + rsrp_dbm - rssi_dbm).clamp(-19.5, -3.0);
            let sinr_db = mw_to_dbm(serving_mw) - mw_to_dbm(interference_mw + noise_mw);
            let cqi = cqi_from_sinr(sinr_db + rng.uniform(-0.5, 0.5));

            out.push(KpiSample {
                t: pt.t,
                rsrp_dbm,
                rsrq_db,
                sinr_db,
                cqi,
                rssi_dbm,
                serving: serving_id,
                serving_load,
                visible_cells: powers.len(),
                serving_dist_m: self.deployment.cell(serving_id).pos.dist(&pt.pos),
            });
        }
        out
    }
}

/// Average time between serving-cell changes in a sample series, seconds.
/// Returns the full duration when no handover occurs.
pub fn avg_serving_dwell_s(samples: &[KpiSample]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mut changes = 0usize;
    for w in samples.windows(2) {
        if w[0].serving != w[1].serving {
            changes += 1;
        }
    }
    let duration = samples.last().unwrap().t - samples.first().unwrap().t;
    duration / (changes + 1) as f64
}

/// Times between consecutive handovers, seconds (paper §6.3.2).
pub fn inter_handover_times(samples: &[KpiSample]) -> Vec<f64> {
    let mut out = Vec::new();
    let mut last_ho: Option<f64> = None;
    for w in samples.windows(2) {
        if w[0].serving != w[1].serving {
            let t = w[1].t;
            if let Some(prev) = last_ho {
                out.push(t - prev);
            }
            last_ho = Some(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::Deployment;
    use gendt_geo::trajectory::{generate, Scenario, TrajectoryCfg};
    use gendt_geo::world::{World, WorldCfg};
    use gendt_geo::XY;

    fn setup() -> (World, Deployment) {
        let w = World::generate(WorldCfg::city(21));
        let d = Deployment::from_world(&w);
        (w, d)
    }

    #[test]
    fn noise_floor_magnitude() {
        let cfg = KpiCfg::default();
        let nf = cfg.noise_floor_dbm();
        assert!((-100.0..-90.0).contains(&nf), "noise floor {nf}");
    }

    #[test]
    fn kpis_in_valid_ranges() {
        let (w, d) = setup();
        let engine = KpiEngine::new(&w, &d, PropagationCfg::default(), KpiCfg::default());
        let traj = generate(
            &w,
            &TrajectoryCfg::new(Scenario::Walk, 300.0, XY::new(0.0, 0.0), 1),
        );
        let samples = engine.measure(&traj, 99);
        assert_eq!(samples.len(), traj.points.len());
        for s in &samples {
            assert!(
                (-140.0..=-44.0).contains(&s.rsrp_dbm),
                "RSRP {}",
                s.rsrp_dbm
            );
            assert!((-19.5..=-3.0).contains(&s.rsrq_db), "RSRQ {}", s.rsrq_db);
            assert!((1..=15).contains(&s.cqi), "CQI {}", s.cqi);
            assert!(s.sinr_db.is_finite());
            assert!((0.0..=1.0).contains(&s.serving_load));
        }
    }

    #[test]
    fn city_rsrp_is_plausible() {
        let (w, d) = setup();
        let engine = KpiEngine::new(&w, &d, PropagationCfg::default(), KpiCfg::default());
        let traj = generate(
            &w,
            &TrajectoryCfg::new(Scenario::Tram, 900.0, XY::new(0.0, 0.0), 2),
        );
        let samples = engine.measure(&traj, 3);
        let mean: f64 = samples.iter().map(|s| s.rsrp_dbm).sum::<f64>() / samples.len() as f64;
        assert!((-105.0..-65.0).contains(&mean), "mean RSRP {mean}");
    }

    #[test]
    fn repeated_passes_differ_but_correlate() {
        let (w, d) = setup();
        let engine = KpiEngine::new(&w, &d, PropagationCfg::default(), KpiCfg::default());
        let traj = generate(
            &w,
            &TrajectoryCfg::new(Scenario::Tram, 300.0, XY::new(0.0, 0.0), 2),
        );
        let a = engine.measure(&traj, 1);
        let b = engine.measure(&traj, 2);
        let diff: f64 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x.rsrp_dbm - y.rsrp_dbm).abs())
            .sum::<f64>()
            / a.len() as f64;
        // Passes differ (fading/load/serving churn) but share the spatial
        // structure, so the difference is bounded.
        assert!(diff > 0.3, "passes identical: diff {diff}");
        assert!(diff < 15.0, "passes unrelated: diff {diff}");
    }

    #[test]
    fn same_seed_is_deterministic() {
        let (w, d) = setup();
        let engine = KpiEngine::new(&w, &d, PropagationCfg::default(), KpiCfg::default());
        let traj = generate(
            &w,
            &TrajectoryCfg::new(Scenario::Bus, 200.0, XY::new(0.0, 0.0), 2),
        );
        let a = engine.measure(&traj, 5);
        let b = engine.measure(&traj, 5);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.rsrp_dbm, y.rsrp_dbm);
            assert_eq!(x.serving, y.serving);
        }
    }

    #[test]
    fn handovers_happen_on_moving_trajectories() {
        let (w, d) = setup();
        let engine = KpiEngine::new(&w, &d, PropagationCfg::default(), KpiCfg::default());
        let traj = generate(
            &w,
            &TrajectoryCfg::new(Scenario::Tram, 1200.0, XY::new(0.0, 0.0), 4),
        );
        let samples = engine.measure(&traj, 7);
        let changes = samples
            .windows(2)
            .filter(|wn| wn[0].serving != wn[1].serving)
            .count();
        assert!(changes >= 3, "expected handovers, got {changes}");
        let dwell = avg_serving_dwell_s(&samples);
        assert!((10.0..300.0).contains(&dwell), "dwell {dwell}");
    }

    #[test]
    fn faster_scenarios_have_shorter_dwell() {
        let (w, d) = setup();
        let engine = KpiEngine::new(&w, &d, PropagationCfg::default(), KpiCfg::default());
        let walk = generate(
            &w,
            &TrajectoryCfg::new(Scenario::Walk, 2000.0, XY::new(0.0, 0.0), 4),
        );
        let tram = generate(
            &w,
            &TrajectoryCfg::new(Scenario::Tram, 2000.0, XY::new(0.0, 0.0), 4),
        );
        let dwell_walk = avg_serving_dwell_s(&engine.measure(&walk, 1));
        let dwell_tram = avg_serving_dwell_s(&engine.measure(&tram, 1));
        assert!(
            dwell_walk > dwell_tram,
            "walk dwell {dwell_walk} should exceed tram dwell {dwell_tram}"
        );
    }

    #[test]
    fn cqi_mapping_monotone_and_clamped() {
        assert_eq!(cqi_from_sinr(-20.0), 1);
        assert_eq!(cqi_from_sinr(40.0), 15);
        let mut last = 0;
        for s in -10..=25 {
            let c = cqi_from_sinr(s as f64);
            assert!(c >= last, "CQI not monotone at {s}");
            last = c;
        }
    }

    #[test]
    fn inter_handover_times_positive() {
        let (w, d) = setup();
        let engine = KpiEngine::new(&w, &d, PropagationCfg::default(), KpiCfg::default());
        let traj = generate(
            &w,
            &TrajectoryCfg::new(Scenario::Tram, 1800.0, XY::new(0.0, 0.0), 8),
        );
        let times = inter_handover_times(&engine.measure(&traj, 2));
        assert!(times.iter().all(|&t| t > 0.0));
    }
}
