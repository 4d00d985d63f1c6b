//! Online generation service for GenDT models.
//!
//! The ROADMAP's north star is a system that serves drive-test KPIs to
//! live consumers, not just batch binaries. This crate stands up that
//! serving path with **no dependencies beyond the workspace** (the build
//! container is offline): a threaded HTTP/1.1 server over
//! `std::net::TcpListener` with
//!
//! * a work-conserving [micro-batching scheduler](scheduler): a free
//!   worker runs every request already queued for the same model as one
//!   batched forward pass over `gendt::generate_series_chunk`, never
//!   waiting for a batch to fill, with a bounded queue that sheds load
//!   (HTTP 429) instead of collapsing;
//! * a [checkpoint registry](registry) loading named models from a
//!   directory, hot-swappable via `/reload` without dropping in-flight
//!   requests;
//! * a [route cache](cache) so repeated trajectories skip trajectory
//!   synthesis, and concurrent requests for one route share a single
//!   synthesis; each request extracts the context of just the windows
//!   it generates;
//! * a [stream session table](session) behind `POST /v1/stream`:
//!   sessions hold carried LSTM state server-side so chunked responses
//!   stream windows as the scheduler produces them and continuations
//!   resume bitwise-exactly, with LRU + TTL eviction;
//! * a `/metrics` endpoint in Prometheus text format built on
//!   `gendt_metrics::Histogram`.
//!
//! Determinism is preserved end to end: a request carries an explicit
//! sample seed, and a batched response is bitwise-equal to a direct
//! `generate_series` call with the same seed (each request keeps its own
//! RNG stream inside the batch — see `Generator::forward_gen_batch`).
//!
//! The API is versioned: `/v1/*` routes answer errors with the typed
//! `{code, message, retryable}` envelope of the workspace taxonomy
//! (`gendt_faults::GendtError`); the original unversioned routes remain
//! as deprecated aliases (`Deprecation: true`). Requests may carry a
//! `Deadline-Ms` header propagated into the scheduler, and shutdown
//! drains gracefully — see DESIGN.md §10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod batch;
pub mod cache;
pub mod demo;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod scheduler;
pub mod server;
pub mod session;

pub use api::{
    ErrorEnvelope, ErrorResponse, GenerateRequest, GenerateResponse, InfoResponse, ModelInfo,
    ModelsResponse, StreamChunk, StreamRequest, StreamTrailer,
};
pub use registry::{ModelEntry, Registry};
pub use server::{serve, ServerCfg, ServerCfgBuilder, ServerHandle};
pub use session::{Checkout, SessionTable, StreamSession};
