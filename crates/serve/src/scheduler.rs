//! Micro-batching scheduler.
//!
//! `/generate` handlers submit jobs into a bounded queue; a worker
//! thread pops the oldest job and coalesces every queued job for the
//! *same model instance* into one batched forward pass, waiting up to
//! `max_wait_ms` for the batch to fill. Batching keys on the
//! `Arc<ModelEntry>` identity rather than the model name, so jobs
//! resolved before and after a `/reload` never share a batch — each
//! request is served bitwise-exactly by the model version it resolved.
//!
//! When the queue is full, `submit` fails fast and the server answers
//! 429: shedding load beats collapsing under it. Jobs carry an optional
//! absolute deadline: one still queued when its deadline passes is
//! answered with a `Timeout` taxonomy error instead of wasting a
//! forward pass. The batch execution path hosts the `serve.batch`
//! `slow`/`io_err` chaos probes (DESIGN.md §10).
//!
//! All synchronization goes through the `gendt_sync` facade so the
//! queue/condvar state machine is explorable by `gendt-audit
//! sync-check` (DESIGN.md §12). The forward pass itself is behind the
//! [`BatchRunner`] seam: production runs [`run_batch`], harnesses swap
//! in a stub so schedule exploration spends its budget on the
//! interleavings, not on inference.

use crate::batch::{run_batch, BatchOut, GenJob};
use crate::metrics::ServeMetrics;
use gendt::{GenCursor, GeneratedSeries};
use gendt_faults::GendtError;
use gendt_sync::atomic::{AtomicBool, Ordering};
use gendt_sync::time::Instant;
use gendt_sync::{mpsc, Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Scheduler tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct SchedCfg {
    /// Most requests coalesced into one forward pass.
    pub max_batch: usize,
    /// How long the worker waits for a batch to fill, milliseconds.
    pub max_wait_ms: u64,
    /// Bounded queue capacity; submits beyond it are rejected.
    pub queue_cap: usize,
}

impl Default for SchedCfg {
    fn default() -> Self {
        SchedCfg {
            max_batch: 8,
            max_wait_ms: 5,
            queue_cap: 64,
        }
    }
}

/// Why a job was not accepted.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — answer 429.
    QueueFull,
    /// The scheduler is shutting down.
    ShuttingDown,
}

/// A finished generation plus its per-request timing split, delivered
/// back to the waiting handler so the server can cut one flight-recorder
/// record per request without a second channel.
#[derive(Debug)]
pub struct JobDone {
    /// The generated series (the chunk's span for streaming jobs).
    pub series: GeneratedSeries,
    /// Advanced resume cursor for streaming jobs; `None` for one-shot.
    pub cursor: Option<GenCursor>,
    /// Time spent queued before its batch executed, microseconds.
    pub queue_us: u32,
    /// Time inside the batched forward pass, microseconds.
    pub batch_us: u32,
}

/// A generation result delivered back to the waiting handler.
pub type JobResult = Result<JobDone, GendtError>;

/// Executes one coalesced batch. Production uses the real forward pass;
/// the concurrency-check harness substitutes a stub that only asserts
/// batch invariants, keeping schedule exploration cheap.
pub trait BatchRunner: Send + Sync {
    /// Run `jobs` (all pinned to the same model entry) and return one
    /// result per job, aligned with `jobs`.
    fn run(&self, jobs: &[GenJob]) -> Vec<BatchOut>;
}

/// Saturating microseconds for the compact flight-recorder fields.
fn clamp_us(d: Duration) -> u32 {
    d.as_micros().min(u32::MAX as u128) as u32
}

struct ProdRunner;

impl BatchRunner for ProdRunner {
    fn run(&self, jobs: &[GenJob]) -> Vec<BatchOut> {
        run_batch(&jobs[0].entry, jobs)
    }
}

struct Pending {
    job: GenJob,
    reply: mpsc::Sender<JobResult>,
    /// Absolute per-request deadline; a job still queued past it is
    /// answered with a `Timeout` error instead of being executed.
    deadline: Option<Instant>,
    /// Distributed trace context active when the job was submitted;
    /// the batch executes under the head job's context so worker spans
    /// nest beneath the router's spans for that request.
    trace: u64,
    /// When the job entered the queue (feeds the flight recorder's
    /// queue-time split).
    enqueued: Instant,
}

/// The shared scheduler state.
pub struct Scheduler {
    cfg: SchedCfg,
    queue: Mutex<VecDeque<Pending>>,
    cv: Condvar,
    shutdown: AtomicBool,
    metrics: Arc<ServeMetrics>,
    runner: Box<dyn BatchRunner>,
}

impl Scheduler {
    /// New scheduler publishing queue/batch stats into `metrics`.
    pub fn new(cfg: SchedCfg, metrics: Arc<ServeMetrics>) -> Scheduler {
        Scheduler::with_runner(cfg, metrics, Box::new(ProdRunner))
    }

    /// New scheduler with a custom batch executor (harness seam).
    pub fn with_runner(
        cfg: SchedCfg,
        metrics: Arc<ServeMetrics>,
        runner: Box<dyn BatchRunner>,
    ) -> Scheduler {
        Scheduler {
            cfg,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics,
            runner,
        }
    }

    /// Enqueue a job with an optional absolute deadline. Returns the
    /// receiver the caller blocks on, or an error when the queue is
    /// full (shed load) or shutting down.
    pub fn submit(
        &self,
        job: GenJob,
        deadline: Option<Instant>,
    ) -> Result<mpsc::Receiver<JobResult>, SubmitError> {
        let mut q = self.queue.lock();
        // Checked under the queue lock: a check before taking it races
        // with stop() — the job would be enqueued after the workers
        // decided to exit and its reply channel would never resolve.
        // sync: Acquire pairs with stop()'s Release store, itself made
        // under this same lock.
        if self.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        if q.len() >= self.cfg.queue_cap {
            return Err(SubmitError::QueueFull);
        }
        let (tx, rx) = mpsc::channel();
        q.push_back(Pending {
            job,
            reply: tx,
            deadline,
            trace: gendt_trace::current_trace(),
            enqueued: Instant::now(),
        });
        // sync: gauge only — published under the queue lock, read by
        // /metrics with no ordering requirement.
        self.metrics
            .queue_depth
            .store(q.len() as u64, Ordering::Relaxed);
        drop(q);
        self.cv.notify_one();
        Ok(rx)
    }

    /// Worker loop: pop, coalesce, execute, reply. Runs until
    /// [`Scheduler::stop`] and an empty queue.
    pub fn run_worker(&self) {
        loop {
            let batch = match self.next_batch() {
                Some(b) => b,
                None => return,
            };
            // Expired deadlines are answered without burning a forward
            // pass — the client already gave up or is about to.
            let now = Instant::now();
            let mut live = Vec::with_capacity(batch.len());
            for pending in batch {
                match pending.deadline {
                    Some(d) if now >= d => {
                        // sync: monotonic counter, rendered by /metrics;
                        // no synchronization piggybacks on it.
                        self.metrics
                            .deadline_expired
                            .fetch_add(1, Ordering::Relaxed);
                        let _ = pending.reply.send(Err(GendtError::timeout(
                            "deadline expired before the batch ran",
                        )));
                    }
                    _ => live.push(pending),
                }
            }
            if live.is_empty() {
                continue;
            }

            // Chaos probes: schedules can stall or fail whole batches
            // here to exercise client retries and drain behavior.
            gendt_faults::sleep_if_slow("serve.batch");
            if let Err(e) = gendt_faults::fail_io("serve.batch") {
                for pending in live {
                    let _ = pending
                        .reply
                        .send(Err(GendtError::unavailable(format!("batch aborted: {e}"))));
                }
                continue;
            }

            let n = live.len();
            let jobs: Vec<&GenJob> = live.iter().map(|p| &p.job).collect();
            let batch_started = Instant::now();
            // A panic inside generation (e.g. a sanitizer trip) must not
            // kill the worker: convert it into per-request errors.
            let result = {
                // The whole coalesced pass runs under the head job's
                // trace context, so its spans land on that request's
                // cross-process timeline.
                let _trace = gendt_trace::trace_scope(live[0].trace);
                gendt_trace::span!("serve_batch", "batch" => n);
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let owned: Vec<GenJob> = jobs.iter().map(|&j| j.clone()).collect();
                    self.runner.run(&owned)
                }))
            };
            let batch_us = clamp_us(batch_started.elapsed());
            self.metrics.observe_batch(n);
            match result {
                Ok(outs) => {
                    for (pending, out) in live.into_iter().zip(outs) {
                        let queue_us =
                            clamp_us(batch_started.saturating_duration_since(pending.enqueued));
                        let _ = pending.reply.send(Ok(JobDone {
                            series: out.series,
                            cursor: out.cursor,
                            queue_us,
                            batch_us,
                        }));
                    }
                }
                Err(_) => {
                    for pending in live {
                        let _ = pending.reply.send(Err(GendtError::internal(
                            "generation failed (internal panic)",
                        )));
                    }
                }
            }
        }
    }

    /// Block until at least one job is queued (or shutdown), then
    /// collect up to `max_batch` jobs for the head job's model, waiting
    /// up to `max_wait_ms` for stragglers.
    fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut q = self.queue.lock();
        loop {
            if let Some(head) = q.pop_front() {
                // Covers coalescing + the fill wait, not the idle block
                // above — the assembly timeline, not queue idleness.
                let _assembling = gendt_trace::span("serve_batch_assemble");
                let mut batch = vec![head];
                let deadline = Instant::now() + Duration::from_millis(self.cfg.max_wait_ms);
                loop {
                    // Collect queued jobs for the same model instance.
                    let mut rest = VecDeque::with_capacity(q.len());
                    while let Some(p) = q.pop_front() {
                        if batch.len() < self.cfg.max_batch
                            && Arc::ptr_eq(&p.job.entry, &batch[0].job.entry)
                        {
                            batch.push(p);
                        } else {
                            rest.push_back(p);
                        }
                    }
                    *q = rest;
                    let now = Instant::now();
                    if batch.len() >= self.cfg.max_batch || now >= deadline {
                        break;
                    }
                    let (guard, _timeout) = self
                        .cv
                        .wait_timeout(q, deadline.saturating_duration_since(now));
                    q = guard;
                    // sync: Acquire pairs with stop()'s Release store.
                    if self.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                }
                // sync: gauge only — published under the queue lock.
                self.metrics
                    .queue_depth
                    .store(q.len() as u64, Ordering::Relaxed);
                return Some(batch);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            q = self.cv.wait(q);
        }
    }

    /// Ask workers to exit once the queue drains, and wake them.
    pub fn stop(&self) {
        // sync: taking the queue lock orders this Release store against
        // submit's under-lock Acquire check: after stop() returns, no
        // new job can slip into the queue unobserved by exiting workers.
        {
            let _q = self.queue.lock();
            self.shutdown.store(true, Ordering::Release);
        }
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelEntry;
    use gendt::{GenDt, GenDtCfg};
    use gendt_data::context::RunContext;
    use gendt_data::kpi_types::Kpi;
    use gendt_sync::testing::inject_spurious_wakeups;
    use gendt_sync::thread;

    /// Answers each job with a marker series carrying its sample seed,
    /// so tests can verify reply routing without running inference.
    struct MarkerRunner;

    impl BatchRunner for MarkerRunner {
        fn run(&self, jobs: &[GenJob]) -> Vec<BatchOut> {
            jobs.iter()
                .map(|j| BatchOut {
                    series: GeneratedSeries {
                        kpis: Vec::new(),
                        series: vec![vec![j.sample_seed as f64]],
                    },
                    cursor: None,
                })
                .collect()
        }
    }

    fn test_entry() -> Arc<ModelEntry> {
        let mut cfg = GenDtCfg::fast(4, 71);
        cfg.hidden = 4;
        cfg.resgen_hidden = 4;
        cfg.disc_hidden = 4;
        cfg.window.len = 4;
        cfg.window.stride = 4;
        cfg.window.max_cells = 2;
        Arc::new(ModelEntry {
            name: "m".to_string(),
            version: 0,
            model: GenDt::new(cfg),
            kpis: Kpi::DATASET_A.to_vec(),
        })
    }

    fn job(entry: &Arc<ModelEntry>, sample_seed: u64) -> GenJob {
        GenJob {
            entry: Arc::clone(entry),
            ctx: Arc::new(RunContext::default()),
            sample_seed,
            stream: None,
        }
    }

    fn sched(cfg: SchedCfg) -> (Arc<Scheduler>, Arc<ServeMetrics>) {
        let metrics = Arc::new(ServeMetrics::new(cfg.max_batch));
        let s = Arc::new(Scheduler::with_runner(
            cfg,
            Arc::clone(&metrics),
            Box::new(MarkerRunner),
        ));
        (s, metrics)
    }

    /// Both Condvar sites — the idle block in `next_batch` and the
    /// batch-fill `wait_timeout` — must treat a spurious wakeup as a
    /// non-event: recheck state, re-arm with the remaining time, and
    /// keep serving. One test (not two) because the injected budget is
    /// process-wide and the harness runs tests concurrently.
    #[test]
    fn condvar_waits_absorb_spurious_wakeups() {
        // Idle wait: the worker burns the whole budget parked on an
        // empty queue, then must still answer real work and shut down.
        let (s, _) = sched(SchedCfg {
            max_batch: 1,
            max_wait_ms: 1,
            queue_cap: 8,
        });
        let entry = test_entry();
        inject_spurious_wakeups(3);
        let worker = {
            let s = Arc::clone(&s);
            thread::spawn(move || s.run_worker())
        };
        for seed in [7u64, 8] {
            let rx = s.submit(job(&entry, seed), None).expect("queue open");
            let out = rx
                .recv()
                .expect("worker exited instead of absorbing a spurious wakeup")
                .expect("marker batch cannot fail");
            assert_eq!(out.series.series, vec![vec![seed as f64]]);
        }
        s.stop();
        worker.join().expect("worker panicked");

        // Fill wait: spurious early returns from `wait_timeout` must not
        // be mistaken for the fill deadline — a straggler submitted
        // mid-window still joins the head job's batch.
        let (s, metrics) = sched(SchedCfg {
            max_batch: 4,
            max_wait_ms: 200,
            queue_cap: 8,
        });
        inject_spurious_wakeups(3);
        let worker = {
            let s = Arc::clone(&s);
            thread::spawn(move || s.run_worker())
        };
        let rx_a = s.submit(job(&entry, 1), None).expect("queue open");
        std::thread::sleep(Duration::from_millis(20));
        let rx_b = s.submit(job(&entry, 2), None).expect("queue open");
        let a = rx_a.recv().expect("reply dropped").expect("marker batch");
        let b = rx_b.recv().expect("reply dropped").expect("marker batch");
        assert_eq!(a.series.series, vec![vec![1.0]]);
        assert_eq!(b.series.series, vec![vec![2.0]]);
        assert_eq!(
            metrics.batches.load(Ordering::SeqCst),
            1,
            "straggler must coalesce into the head batch, not run alone"
        );
        assert_eq!(metrics.batched_requests.load(Ordering::SeqCst), 2);
        s.stop();
        worker.join().expect("worker panicked");
        inject_spurious_wakeups(0);
    }

    /// Echoes the trace context the batch executes under, proving the
    /// submitter's `trace_scope` travels queue → worker thread → runner.
    struct TraceRunner;

    impl BatchRunner for TraceRunner {
        fn run(&self, jobs: &[GenJob]) -> Vec<BatchOut> {
            let t = gendt_trace::current_trace() as f64;
            jobs.iter()
                .map(|_| BatchOut {
                    series: GeneratedSeries {
                        kpis: Vec::new(),
                        series: vec![vec![t]],
                    },
                    cursor: None,
                })
                .collect()
        }
    }

    #[test]
    fn batch_runs_under_the_submitters_trace_context() {
        let metrics = Arc::new(ServeMetrics::new(8));
        let s = Arc::new(Scheduler::with_runner(
            SchedCfg {
                max_batch: 8,
                max_wait_ms: 1,
                queue_cap: 8,
            },
            metrics,
            Box::new(TraceRunner),
        ));
        let entry = test_entry();
        let rx = {
            let _scope = gendt_trace::trace_scope(77);
            s.submit(job(&entry, 1), None).expect("queue open")
        };
        let worker = {
            let s = Arc::clone(&s);
            thread::spawn(move || s.run_worker())
        };
        let done = rx.recv().expect("reply dropped").expect("runner runs");
        assert_eq!(done.series.series, vec![vec![77.0]]);
        s.stop();
        worker.join().expect("worker panicked");
    }

    /// A job whose deadline has already passed when its batch is popped
    /// is answered with a `Timeout` taxonomy error and never executed;
    /// its batchmates still run.
    #[test]
    fn expired_deadline_is_answered_not_executed() {
        let (s, metrics) = sched(SchedCfg {
            max_batch: 8,
            max_wait_ms: 1,
            queue_cap: 8,
        });
        let entry = test_entry();
        // Enqueue both before the worker exists so they pop as one
        // batch deterministically; the second's deadline is already in
        // the past by the time the worker checks it.
        let rx_live = s.submit(job(&entry, 5), None).expect("queue open");
        let rx_dead = s
            .submit(job(&entry, 6), Some(Instant::now()))
            .expect("queue open");
        let worker = {
            let s = Arc::clone(&s);
            thread::spawn(move || s.run_worker())
        };
        let live = rx_live
            .recv()
            .expect("reply dropped")
            .expect("live job runs");
        assert_eq!(live.series.series, vec![vec![5.0]]);
        let dead = rx_dead
            .recv()
            .expect("expired job must still be answered")
            .expect_err("expired job must not execute");
        assert_eq!(dead.kind(), gendt_faults::ErrorKind::Timeout);
        assert_eq!(metrics.deadline_expired.load(Ordering::SeqCst), 1);
        assert_eq!(
            metrics.batched_requests.load(Ordering::SeqCst),
            1,
            "only the live job may reach the runner"
        );
        s.stop();
        worker.join().expect("worker panicked");
    }
}
