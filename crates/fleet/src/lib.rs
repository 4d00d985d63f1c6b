//! gendt-fleet: sharded multi-process serving for GenDT.
//!
//! A std-only router consistent-hashes `/v1/generate` requests by
//! `(model, scenario)` onto N worker processes, each running today's
//! single-node micro-batch server ([`gendt_serve`]) unchanged. The
//! pieces, bottom-up:
//!
//! - [`ring`] — seeded consistent-hash ring with virtual nodes; the
//!   same `GENDT_FLEET_SEED` always produces the same placement.
//! - [`membership`] — health-gated worker set. A polling loop (and the
//!   forward path, on transport failure) evicts workers from the ring;
//!   a passing poll re-admits them. Keys redistribute minimally.
//! - [`forward`] — HTTP/1.1 transport with hard timeouts, behind
//!   traits so the audit sync-check gate can substitute stubs.
//! - [`router`] — the front-end: deadline propagation, one-failover
//!   retry, verbatim worker error envelopes, `/v1/fleet` introspection.
//! - [`supervisor`] — spawns, supervises, and drains the worker pool
//!   by re-exec'ing the `gendt-fleet` binary in worker mode, and starts
//!   a router in front of it ([`start_fleet`]).
//!
//! Determinism story: routing is a pure function of
//! `(seed, membership, model, scenario)`, and every worker serves the
//! same seeded world, so a fleet run is replayable end-to-end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forward;
pub mod membership;
pub mod metrics;
pub mod ring;
pub mod router;
pub mod supervisor;

pub use forward::{Forwarder, HttpForwarder, HttpProbe};
pub use membership::{Membership, PollStats, Probe, RouteGrant, WorkerView};
pub use metrics::FleetMetrics;
pub use ring::{key_hash, Ring, DEFAULT_VNODES};
pub use router::{dispatch_generate, route_serve, RouterCfg, RouterHandle};
pub use supervisor::{
    drain_pool, maybe_run_worker, spawn_pool, start_fleet, Fleet, WorkerProc, WorkerSpec,
};
