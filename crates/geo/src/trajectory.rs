//! Drive-test trajectories.
//!
//! A trajectory is a timestamped sequence of device locations — exactly the
//! "input" of the GenDT pipeline (paper Fig. 5). This module synthesizes
//! realistic routes per measurement scenario (walk / bus / tram / city
//! driving / highway) with speed dynamics modeled as an Ornstein–Uhlenbeck
//! process around the scenario's mean speed, plus stop-and-go behaviour for
//! street-bound modes.

use crate::coords::XY;
use crate::world::World;
use gendt_rng::Rng;
use serde::{Deserialize, Serialize};

/// Measurement scenario, matching the cases of paper Tables 1–2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// Pedestrian walk (Dataset A, ~1.4 m/s).
    Walk,
    /// Bus ride (Dataset A, ~5.6 m/s).
    Bus,
    /// Tram ride (Dataset A, ~11.5 m/s).
    Tram,
    /// Inner-city driving (Dataset B, ~9–10 m/s).
    CityDrive,
    /// Highway driving (Dataset B, ~27–31 m/s).
    Highway,
}

impl Scenario {
    /// All scenarios.
    pub const ALL: [Scenario; 5] = [
        Scenario::Walk,
        Scenario::Bus,
        Scenario::Tram,
        Scenario::CityDrive,
        Scenario::Highway,
    ];

    /// Mean speed in m/s (paper Tables 1–2).
    pub fn mean_speed(self) -> f64 {
        match self {
            Scenario::Walk => 1.4,
            Scenario::Bus => 5.6,
            Scenario::Tram => 11.5,
            Scenario::CityDrive => 9.5,
            Scenario::Highway => 29.0,
        }
    }

    /// Native measurement period in seconds. Dataset A tools sample at a
    /// consistent 1 s; Dataset B's Android Telephony API is coarser and
    /// varies by chipset (2.1–3.8 s in the paper).
    pub fn sample_period(self) -> f64 {
        match self {
            Scenario::Walk | Scenario::Bus | Scenario::Tram => 1.0,
            Scenario::CityDrive => 3.6,
            Scenario::Highway => 2.2,
        }
    }

    /// Probability per leg of a stop (traffic light / bus stop).
    fn stop_prob(self) -> f64 {
        match self {
            Scenario::Walk => 0.15,
            Scenario::Bus => 0.5,
            Scenario::Tram => 0.4,
            Scenario::CityDrive => 0.35,
            Scenario::Highway => 0.0,
        }
    }

    /// Typical leg length in meters between heading changes.
    fn leg_length(self) -> f64 {
        match self {
            Scenario::Walk => 120.0,
            Scenario::Bus => 300.0,
            Scenario::Tram => 500.0,
            Scenario::CityDrive => 250.0,
            Scenario::Highway => 2500.0,
        }
    }

    /// Maximum heading change per leg, degrees.
    fn turn_spread(self) -> f64 {
        match self {
            Scenario::Walk => 90.0,
            Scenario::Bus => 80.0,
            Scenario::Tram => 45.0,
            Scenario::CityDrive => 85.0,
            Scenario::Highway => 15.0,
        }
    }
}

/// A single trajectory point: time since trajectory start and location.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrackPoint {
    /// Seconds since the start of the trajectory.
    pub t: f64,
    /// Location in the world's local frame.
    pub pos: XY,
    /// Instantaneous speed in m/s.
    pub speed: f64,
}

/// A timestamped route through the world.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trajectory {
    /// The scenario the route was generated for.
    pub scenario: Scenario,
    /// Ordered track points at the scenario's sampling period.
    pub points: Vec<TrackPoint>,
}

impl Trajectory {
    /// Duration in seconds (0 for fewer than 2 points).
    pub fn duration(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) => b.t - a.t,
            _ => 0.0,
        }
    }

    /// Path length in meters.
    pub fn length_m(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].pos.dist(&w[1].pos))
            .sum()
    }

    /// Average speed over the trajectory, m/s.
    pub fn avg_speed(&self) -> f64 {
        let d = self.duration();
        if d <= 0.0 {
            0.0
        } else {
            self.length_m() / d
        }
    }

    /// Concatenate another trajectory after this one, shifting its
    /// timestamps to continue seamlessly. Used to build the paper's "long
    /// and complex" multi-scenario routes (§6.1.3).
    pub fn append(&mut self, other: &Trajectory) {
        let t0 = self.points.last().map(|p| p.t + 1.0).unwrap_or(0.0);
        let o0 = other.points.first().map(|p| p.t).unwrap_or(0.0);
        for p in &other.points {
            self.points.push(TrackPoint {
                t: t0 + (p.t - o0),
                pos: p.pos,
                speed: p.speed,
            });
        }
    }
}

/// Configuration for trajectory synthesis.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrajectoryCfg {
    /// Scenario to generate.
    pub scenario: Scenario,
    /// Target duration in seconds.
    pub duration_s: f64,
    /// Starting location.
    pub start: XY,
    /// Initial heading in degrees (clockwise from north); randomized if
    /// `None`.
    pub heading_deg: Option<f64>,
    /// Jitter the sampling period by up to this fraction (Dataset B's
    /// Telephony API timing is irregular).
    pub period_jitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TrajectoryCfg {
    /// Sensible defaults for a scenario starting at a point.
    pub fn new(scenario: Scenario, duration_s: f64, start: XY, seed: u64) -> Self {
        let period_jitter = match scenario {
            Scenario::CityDrive | Scenario::Highway => 0.2,
            _ => 0.0,
        };
        TrajectoryCfg {
            scenario,
            duration_s,
            start,
            heading_deg: None,
            period_jitter,
            seed,
        }
    }
}

/// Generate a trajectory inside `world` (soft-bounded: headings steer back
/// toward the interior when the route approaches the world edge).
pub fn generate(world: &World, cfg: &TrajectoryCfg) -> Trajectory {
    let mut rng = Rng::seed_from(cfg.seed);
    let sc = cfg.scenario;
    let mut heading = cfg.heading_deg.unwrap_or_else(|| rng.uniform(0.0, 360.0));
    let mut pos = cfg.start;
    let mut t = 0.0;
    let mut speed = sc.mean_speed();
    let mut leg_remaining = sc.leg_length() * (0.5 + rng.uniform01());
    let mut stop_remaining = 0.0f64;
    let mut points = Vec::new();
    let extent = world.cfg.extent_m;

    // OU speed process parameters: mean reversion over ~20 s, std ~15 % of
    // the mean speed.
    let theta = 0.05f64;
    let sigma = 0.15 * sc.mean_speed();

    while t <= cfg.duration_s {
        points.push(TrackPoint {
            t,
            pos,
            speed: if stop_remaining > 0.0 { 0.0 } else { speed },
        });

        let mut dt = sc.sample_period();
        if cfg.period_jitter > 0.0 {
            dt *= 1.0 + rng.uniform(-cfg.period_jitter, cfg.period_jitter);
        }

        if stop_remaining > 0.0 {
            stop_remaining -= dt;
            t += dt;
            continue;
        }

        // OU update on speed, floored at 10 % of mean speed.
        speed += theta * (sc.mean_speed() - speed) * dt + sigma * (dt.sqrt()) * rng.normal();
        speed = speed.clamp(0.1 * sc.mean_speed(), 1.5 * sc.mean_speed());

        // Advance along the heading.
        let dist = speed * dt;
        let rad = heading.to_radians();
        pos = XY::new(pos.x + dist * rad.sin(), pos.y + dist * rad.cos());
        leg_remaining -= dist;

        // Steer back toward the interior near the boundary.
        let margin = 0.92 * extent;
        if pos.x.abs() > margin || pos.y.abs() > margin {
            heading = pos.bearing_deg_to(&XY::new(0.0, 0.0)) + rng.uniform(-30.0, 30.0);
            leg_remaining = sc.leg_length();
        } else if leg_remaining <= 0.0 {
            // Turn at the end of a leg; street modes may stop.
            heading += rng.uniform(-sc.turn_spread(), sc.turn_spread());
            heading = heading.rem_euclid(360.0);
            leg_remaining = sc.leg_length() * (0.5 + rng.uniform01());
            if rng.bernoulli(sc.stop_prob()) {
                stop_remaining = rng.uniform(5.0, 30.0);
            }
        }

        t += dt;
    }

    Trajectory {
        scenario: sc,
        points,
    }
}

/// Generate a long route that chains several scenarios (city driving and
/// highway legs), reproducing the paper's §6.1.3 "long and complex"
/// trajectory spanning multiple cities.
pub fn generate_complex(
    world: &World,
    legs: &[(Scenario, f64)],
    start: XY,
    seed: u64,
) -> Trajectory {
    let mut rng = Rng::seed_from(seed);
    let mut out = Trajectory {
        scenario: legs.first().map(|l| l.0).unwrap_or(Scenario::CityDrive),
        points: Vec::new(),
    };
    let mut cur = start;
    for (i, &(sc, dur)) in legs.iter().enumerate() {
        let leg_seed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ rng.next_u64();
        let cfg = TrajectoryCfg::new(sc, dur, cur, leg_seed);
        let leg = generate(world, &cfg);
        cur = leg.points.last().map(|p| p.pos).unwrap_or(cur);
        if out.points.is_empty() {
            out = leg;
        } else {
            out.append(&leg);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldCfg};

    fn test_world() -> World {
        World::generate(WorldCfg::city(1))
    }

    #[test]
    fn walk_speed_matches_scenario() {
        let w = test_world();
        let cfg = TrajectoryCfg::new(Scenario::Walk, 600.0, XY::new(0.0, 0.0), 42);
        let tr = generate(&w, &cfg);
        let v = tr.avg_speed();
        // Stops drag the average below the instantaneous mean.
        assert!(v > 0.6 && v < 1.8, "walk avg speed {v}");
    }

    #[test]
    fn highway_is_much_faster_than_walk() {
        let w = test_world();
        let walk = generate(
            &w,
            &TrajectoryCfg::new(Scenario::Walk, 300.0, XY::new(0.0, 0.0), 1),
        );
        let hwy = generate(
            &w,
            &TrajectoryCfg::new(Scenario::Highway, 300.0, XY::new(0.0, 0.0), 1),
        );
        assert!(hwy.avg_speed() > 5.0 * walk.avg_speed());
    }

    #[test]
    fn sample_period_respected_for_dataset_a() {
        let w = test_world();
        let tr = generate(
            &w,
            &TrajectoryCfg::new(Scenario::Tram, 120.0, XY::new(0.0, 0.0), 3),
        );
        for pair in tr.points.windows(2) {
            let dt = pair[1].t - pair[0].t;
            assert!((dt - 1.0).abs() < 1e-9, "tram dt {dt}");
        }
    }

    #[test]
    fn dataset_b_periods_are_jittered() {
        let w = test_world();
        let tr = generate(
            &w,
            &TrajectoryCfg::new(Scenario::Highway, 300.0, XY::new(0.0, 0.0), 3),
        );
        let dts: Vec<f64> = tr.points.windows(2).map(|p| p[1].t - p[0].t).collect();
        let min = dts.iter().cloned().fold(f64::MAX, f64::min);
        let max = dts.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max - min > 0.05, "expected jitter, got {min}..{max}");
    }

    #[test]
    fn trajectory_stays_inside_world() {
        let w = test_world();
        let tr = generate(
            &w,
            &TrajectoryCfg::new(Scenario::Highway, 2000.0, XY::new(3000.0, 3000.0), 9),
        );
        for p in &tr.points {
            assert!(
                p.pos.x.abs() <= w.cfg.extent_m * 1.05,
                "x escaped: {}",
                p.pos.x
            );
            assert!(
                p.pos.y.abs() <= w.cfg.extent_m * 1.05,
                "y escaped: {}",
                p.pos.y
            );
        }
    }

    #[test]
    fn determinism_per_seed() {
        let w = test_world();
        let cfg = TrajectoryCfg::new(Scenario::Bus, 200.0, XY::new(10.0, 10.0), 77);
        let a = generate(&w, &cfg);
        let b = generate(&w, &cfg);
        assert_eq!(a.points.len(), b.points.len());
        for (pa, pb) in a.points.iter().zip(b.points.iter()) {
            assert_eq!(pa.pos, pb.pos);
        }
    }

    #[test]
    fn complex_route_is_continuous() {
        let w = test_world();
        let tr = generate_complex(
            &w,
            &[
                (Scenario::CityDrive, 200.0),
                (Scenario::Highway, 300.0),
                (Scenario::CityDrive, 200.0),
            ],
            XY::new(0.0, 0.0),
            5,
        );
        assert!(tr.duration() >= 690.0, "duration {}", tr.duration());
        // Time strictly increases and positions don't jump unreasonably.
        for pair in tr.points.windows(2) {
            assert!(pair[1].t > pair[0].t);
            let dt = pair[1].t - pair[0].t;
            let jump = pair[0].pos.dist(&pair[1].pos);
            assert!(jump <= 45.0 * dt + 1.0, "jump {jump} m in {dt} s");
        }
    }

    #[test]
    fn append_shifts_time() {
        let mut a = Trajectory {
            scenario: Scenario::Walk,
            points: vec![TrackPoint {
                t: 0.0,
                pos: XY::new(0.0, 0.0),
                speed: 1.0,
            }],
        };
        let b = Trajectory {
            scenario: Scenario::Walk,
            points: vec![
                TrackPoint {
                    t: 10.0,
                    pos: XY::new(5.0, 0.0),
                    speed: 1.0,
                },
                TrackPoint {
                    t: 11.0,
                    pos: XY::new(6.0, 0.0),
                    speed: 1.0,
                },
            ],
        };
        a.append(&b);
        assert_eq!(a.points.len(), 3);
        assert!((a.points[1].t - 1.0).abs() < 1e-9);
        assert!((a.points[2].t - 2.0).abs() < 1e-9);
    }
}
