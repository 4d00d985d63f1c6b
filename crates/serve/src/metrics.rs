//! Serving metrics and their Prometheus text rendering.
//!
//! Counters are lock-free atomics on the request path; the latency and
//! batch-size distributions stream into `gendt_metrics::Histogram`
//! behind short-lived mutexes and render as quantile summaries via
//! `gendt_metrics::Quantiles`.

use gendt_metrics::{Histogram, Quantiles};
use gendt_sync::atomic::{AtomicU64, Ordering};
use gendt_sync::Mutex;

/// Shared serving metrics.
pub struct ServeMetrics {
    /// Requests received, any endpoint.
    pub http_requests: AtomicU64,
    /// `/generate` requests answered 200.
    pub generate_ok: AtomicU64,
    /// `/generate` requests shed with 429 (queue full).
    pub generate_rejected: AtomicU64,
    /// `/generate` requests failed with 4xx/5xx other than 429.
    pub generate_failed: AtomicU64,
    /// Jobs whose per-request deadline expired while still queued.
    pub deadline_expired: AtomicU64,
    /// Jobs currently queued in the scheduler.
    pub queue_depth: AtomicU64,
    /// Total requests that went through a batched forward pass.
    pub batched_requests: AtomicU64,
    /// Total batched forward passes.
    pub batches: AtomicU64,
    /// Requests on the legacy unversioned surface (`/generate`,
    /// `/models`, `/reload`), counted toward its sunset.
    pub legacy_requests: AtomicU64,
    /// Stream sessions opened over `/v1/stream`.
    pub stream_sessions_opened: AtomicU64,
    /// Stream sessions evicted for capacity (LRU) pressure.
    pub stream_sessions_evicted: AtomicU64,
    /// Stream sessions expired by the idle TTL.
    pub stream_sessions_expired: AtomicU64,
    /// Chunks streamed over `/v1/stream` responses.
    pub stream_chunks: AtomicU64,
    /// Live sessions in the session table (gauge).
    pub stream_sessions: AtomicU64,
    /// Route steps whose context was extracted: a `/v1/generate`
    /// request's full windows, a `/v1/stream` chunk's own windows.
    pub context_steps_extracted: AtomicU64,
    latency_ms: Mutex<Histogram>,
    batch_size: Mutex<Histogram>,
}

impl ServeMetrics {
    /// Fresh metrics. `max_batch` sizes the batch-occupancy histogram.
    pub fn new(max_batch: usize) -> ServeMetrics {
        ServeMetrics {
            http_requests: AtomicU64::new(0),
            generate_ok: AtomicU64::new(0),
            generate_rejected: AtomicU64::new(0),
            generate_failed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            legacy_requests: AtomicU64::new(0),
            stream_sessions_opened: AtomicU64::new(0),
            stream_sessions_evicted: AtomicU64::new(0),
            stream_sessions_expired: AtomicU64::new(0),
            stream_chunks: AtomicU64::new(0),
            stream_sessions: AtomicU64::new(0),
            context_steps_extracted: AtomicU64::new(0),
            // 0..10s in 25ms bins: generation latencies land well inside.
            latency_ms: Mutex::new(Histogram::empty(0.0, 10_000.0, 400)),
            batch_size: Mutex::new(Histogram::empty(0.0, max_batch.max(1) as f64 + 1.0, {
                max_batch.max(1) + 1
            })),
        }
    }

    /// Record one `/generate` end-to-end latency, milliseconds.
    pub fn observe_latency_ms(&self, ms: f64) {
        self.latency_ms.lock().push(ms);
    }

    /// Record one executed batch of `n` coalesced requests.
    pub fn observe_batch(&self, n: usize) {
        // sync: monotonic counters scraped by /metrics; no ordering
        // requirement between them and other state.
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests.fetch_add(n as u64, Ordering::Relaxed);
        self.batch_size.lock().push(n as f64);
    }

    /// Render the Prometheus text exposition for `/metrics`.
    ///
    /// All loads are Relaxed on purpose: each series is an independent
    /// monotonic counter or gauge and a scrape needs no cross-counter
    /// consistency.
    pub fn render(&self, models_live: usize, cache_hits: u64, cache_misses: u64) -> String {
        let mut out = String::with_capacity(2048);
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        let gauge = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        // sync: every load below is a Relaxed scrape of an independent
        // monotonic counter or gauge; /metrics imposes no cross-counter
        // ordering.
        counter(
            &mut out,
            "gendt_serve_http_requests_total",
            "Requests received, any endpoint.",
            self.http_requests.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "gendt_serve_generate_ok_total",
            "Generate requests answered 200.",
            self.generate_ok.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "gendt_serve_generate_rejected_total",
            "Generate requests shed with 429.",
            self.generate_rejected.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "gendt_serve_generate_failed_total",
            "Generate requests failed (non-429 errors).",
            self.generate_failed.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "gendt_serve_deadline_expired_total",
            "Jobs whose deadline expired while still queued.",
            self.deadline_expired.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "gendt_serve_faults_injected_total",
            "Faults injected by the GENDT_FAULTS harness, process-wide.",
            gendt_faults::injected_count(),
        );
        gauge(
            &mut out,
            "gendt_serve_queue_depth",
            "Jobs currently queued in the scheduler.",
            self.queue_depth.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "gendt_serve_models_live",
            "Models currently loaded in the registry.",
            models_live as u64,
        );
        counter(
            &mut out,
            "gendt_serve_context_cache_hits_total",
            "Route cache hits, including requests handed another request's synthesis of the same route.",
            cache_hits,
        );
        counter(
            &mut out,
            "gendt_serve_context_cache_misses_total",
            "Route cache misses: a miss is one route synthesis.",
            cache_misses,
        );
        counter(
            &mut out,
            "gendt_serve_context_steps_extracted_total",
            "Route steps whose context was extracted, each when its window is generated.",
            self.context_steps_extracted.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "gendt_serve_batched_requests_total",
            "Requests that went through a batched forward pass.",
            self.batched_requests.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "gendt_serve_batches_total",
            "Batched forward passes executed.",
            self.batches.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "gendt_serve_legacy_requests_total",
            "Requests on the legacy unversioned surface (sunsetting).",
            self.legacy_requests.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "gendt_serve_stream_sessions_opened_total",
            "Stream sessions opened over /v1/stream.",
            self.stream_sessions_opened.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "gendt_serve_stream_sessions_evicted_total",
            "Stream sessions evicted under capacity pressure.",
            self.stream_sessions_evicted.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "gendt_serve_stream_sessions_expired_total",
            "Stream sessions expired by the idle TTL.",
            self.stream_sessions_expired.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "gendt_serve_stream_chunks_total",
            "Chunks streamed over /v1/stream responses.",
            self.stream_chunks.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "gendt_serve_stream_sessions",
            "Live sessions in the stream session table.",
            self.stream_sessions.load(Ordering::Relaxed),
        );
        {
            let lat = self.latency_ms.lock();
            render_summary(
                &mut out,
                "gendt_serve_latency_ms",
                "Generate end-to-end latency, milliseconds.",
                &lat,
            );
        }
        {
            let bs = self.batch_size.lock();
            render_summary(
                &mut out,
                "gendt_serve_batch_size",
                "Coalesced requests per batched forward pass.",
                &bs,
            );
        }
        out
    }
}

fn render_summary(out: &mut String, name: &str, help: &str, h: &Histogram) {
    let n = h.total();
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} summary\n"));
    if n > 0 {
        let q = Quantiles::from_histogram(h);
        out.push_str(&format!("{name}{{quantile=\"0.5\"}} {}\n", q.p50));
        out.push_str(&format!("{name}{{quantile=\"0.95\"}} {}\n", q.p95));
        out.push_str(&format!("{name}{{quantile=\"0.99\"}} {}\n", q.p99));
        out.push_str(&format!("{name}{{quantile=\"0.999\"}} {}\n", q.p999));
    }
    // Sparse cumulative buckets (only the bins where the cumulative
    // count steps, plus +Inf): the fleet router's federation merges
    // these exactly across workers, where quantile summaries cannot be
    // combined.
    let width = (h.hi - h.lo) / h.counts.len().max(1) as f64;
    let mut cum = 0u64;
    for (i, &c) in h.counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        let le = h.lo + width * (i as f64 + 1.0);
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {n}\n"));
    out.push_str(&format!("{name}_count {n}\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_core_series() {
        let m = ServeMetrics::new(8);
        m.http_requests.fetch_add(3, Ordering::Relaxed);
        m.context_steps_extracted.fetch_add(50, Ordering::Relaxed);
        m.observe_latency_ms(12.0);
        m.observe_batch(4);
        let text = m.render(2, 5, 7);
        for needle in [
            "gendt_serve_http_requests_total 3",
            "gendt_serve_models_live 2",
            "gendt_serve_context_cache_hits_total 5",
            "gendt_serve_context_steps_extracted_total 50",
            "gendt_serve_latency_ms_count 1",
            "gendt_serve_latency_ms_bucket{le=\"25\"} 1",
            "gendt_serve_latency_ms_bucket{le=\"+Inf\"} 1",
            "gendt_serve_batch_size_count 1",
            "gendt_serve_batched_requests_total 4",
            "gendt_serve_batches_total 1",
            "gendt_serve_deadline_expired_total",
            "gendt_serve_faults_injected_total",
            "gendt_serve_legacy_requests_total",
            "gendt_serve_stream_sessions_opened_total",
            "gendt_serve_stream_sessions 0",
            "gendt_serve_stream_chunks_total",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
