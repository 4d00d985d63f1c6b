//! Work-conserving micro-batching scheduler.
//!
//! `/generate` and `/v1/stream` handlers submit jobs into a bounded
//! queue. A free worker pops the oldest job, takes every job already
//! queued for the *same model instance* (up to `max_batch`, in queue
//! order), and runs them at once as one batched forward pass. It never
//! waits for a batch to fill: jobs that arrive while a batch runs queue
//! up and join the next batch, so batches grow with load while an idle
//! worker answers a lone job straight away. Jobs for other model
//! instances keep their place in the queue. Batching keys on the
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
//! sync-check` (DESIGN.md §12). The only wait is a worker's untimed
//! `Condvar::wait` on an empty queue. The forward pass itself is behind
//! the [`BatchRunner`] seam: production runs [`run_batch`], harnesses
//! swap in a stub so schedule exploration spends its budget on the
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
    /// Bounded queue capacity; submits beyond it are rejected.
    pub queue_cap: usize,
}

impl Default for SchedCfg {
    fn default() -> Self {
        SchedCfg {
            max_batch: 8,
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
    fn run(&self, jobs: Vec<GenJob>) -> Vec<BatchOut>;
}

/// Saturating microseconds for the compact flight-recorder fields.
fn clamp_us(d: Duration) -> u32 {
    d.as_micros().min(u32::MAX as u128) as u32
}

struct ProdRunner;

impl BatchRunner for ProdRunner {
    fn run(&self, jobs: Vec<GenJob>) -> Vec<BatchOut> {
        let entry = Arc::clone(&jobs[0].entry);
        run_batch(&entry, jobs)
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
        while let Some(batch) = self.next_batch() {
            // Expired deadlines are answered without burning a forward
            // pass — the client already gave up or is about to. The
            // live jobs move into the runner; their reply senders and
            // enqueue times stay here for the replies.
            let now = Instant::now();
            let mut jobs = Vec::with_capacity(batch.len());
            let mut replies = Vec::with_capacity(batch.len());
            let mut trace = 0;
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
                    _ => {
                        if jobs.is_empty() {
                            trace = pending.trace;
                        }
                        jobs.push(pending.job);
                        replies.push((pending.reply, pending.enqueued));
                    }
                }
            }
            if jobs.is_empty() {
                continue;
            }

            // Chaos probes: schedules can stall or fail whole batches
            // here to exercise client retries and drain behavior.
            gendt_faults::sleep_if_slow("serve.batch");
            if let Err(e) = gendt_faults::fail_io("serve.batch") {
                for (reply, _) in replies {
                    let _ = reply.send(Err(GendtError::unavailable(format!("batch aborted: {e}"))));
                }
                continue;
            }

            let n = jobs.len();
            let batch_started = Instant::now();
            // A panic inside generation (e.g. a sanitizer trip) must not
            // kill the worker: convert it into per-request errors.
            let result = {
                // The whole coalesced pass runs under the head job's
                // trace context, so its spans land on that request's
                // cross-process timeline.
                let _trace = gendt_trace::trace_scope(trace);
                gendt_trace::span!("serve_batch", "batch" => n);
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    self.runner.run(jobs)
                }))
            };
            let batch_us = clamp_us(batch_started.elapsed());
            self.metrics.observe_batch(n);
            match result {
                Ok(outs) => {
                    for ((reply, enqueued), out) in replies.into_iter().zip(outs) {
                        let queue_us = clamp_us(batch_started.saturating_duration_since(enqueued));
                        let _ = reply.send(Ok(JobDone {
                            series: out.series,
                            cursor: out.cursor,
                            queue_us,
                            batch_us,
                        }));
                    }
                }
                Err(_) => {
                    for (reply, _) in replies {
                        let _ = reply.send(Err(GendtError::internal(
                            "generation failed (internal panic)",
                        )));
                    }
                }
            }
        }
    }

    /// Block until at least one job is queued (or shutdown), then take
    /// the head job and every job queued behind it for the same model
    /// instance, up to `max_batch`. Other models' jobs stay queued in
    /// order. Never waits for more jobs to arrive.
    fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut q = self.queue.lock();
        loop {
            if let Some(head) = q.pop_front() {
                // Covers coalescing, not the idle block below — the
                // assembly timeline, not queue idleness.
                let _assembling = gendt_trace::span("serve_batch_assemble");
                let mut batch = vec![head];
                let mut i = 0;
                while batch.len() < self.cfg.max_batch && i < q.len() {
                    if Arc::ptr_eq(&q[i].job.entry, &batch[0].job.entry) {
                        batch.extend(q.remove(i));
                    } else {
                        i += 1;
                    }
                }
                // sync: gauge only — published under the queue lock.
                self.metrics
                    .queue_depth
                    .store(q.len() as u64, Ordering::Relaxed);
                return Some(batch);
            }
            // sync: Acquire pairs with stop()'s Release store.
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
    use gendt_sync::thread;

    /// Upper bound on any single wait in these tests: a failure bound,
    /// never a synchronization.
    const PATIENCE: Duration = Duration::from_secs(30);

    fn marker(seed: u64) -> BatchOut {
        BatchOut {
            series: GeneratedSeries {
                kpis: Vec::new(),
                series: vec![vec![seed as f64]],
            },
            cursor: None,
        }
    }

    /// Answers each job with a marker series carrying its sample seed,
    /// so tests can verify reply routing without running inference.
    struct MarkerRunner;

    impl BatchRunner for MarkerRunner {
        fn run(&self, jobs: Vec<GenJob>) -> Vec<BatchOut> {
            jobs.iter().map(|j| marker(j.sample_seed)).collect()
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

    fn spawn_worker(s: &Arc<Scheduler>) -> thread::JoinHandle<()> {
        let s = Arc::clone(s);
        thread::spawn(move || s.run_worker())
    }

    /// Block on a job's reply and check it carries the job's own marker.
    fn expect_marker(rx: &mpsc::Receiver<JobResult>, seed: u64) {
        let out = rx
            .recv_timeout(PATIENCE)
            .expect("job was never answered")
            .expect("marker batch cannot fail");
        assert_eq!(out.series.series, vec![vec![seed as f64]]);
    }

    /// The idle block in `next_batch`, the scheduler's only Condvar
    /// wait, must treat a spurious wakeup as a non-event: recheck the
    /// queue and the shutdown flag, park again, and keep serving.
    #[test]
    fn condvar_waits_absorb_spurious_wakeups() {
        // The worker burns the whole budget parked on an empty queue,
        // then must still answer real work and shut down.
        let (s, _) = sched(SchedCfg {
            max_batch: 1,
            queue_cap: 8,
        });
        let entry = test_entry();
        // Armed on this scheduler's condvar alone: the condvar waits of
        // tests running in parallel are untouched.
        s.cv.inject_spurious_wakeups(3);
        let worker = spawn_worker(&s);
        for seed in [7u64, 8] {
            let rx = s.submit(job(&entry, seed), None).expect("queue open");
            expect_marker(&rx, seed);
        }
        s.stop();
        worker.join().expect("worker panicked");
    }

    /// Holds the first batch until the test releases it, so the test
    /// can queue jobs behind a running batch. Records every batch's
    /// sample seeds in run order and answers with marker series.
    struct GatedRunner {
        started: Mutex<Option<mpsc::Sender<()>>>,
        release: Mutex<Option<mpsc::Receiver<()>>>,
        batches: Arc<Mutex<Vec<Vec<u64>>>>,
    }

    impl BatchRunner for GatedRunner {
        fn run(&self, jobs: Vec<GenJob>) -> Vec<BatchOut> {
            assert!(
                jobs.iter().all(|j| Arc::ptr_eq(&j.entry, &jobs[0].entry)),
                "a batch mixed model entries"
            );
            self.batches
                .lock()
                .push(jobs.iter().map(|j| j.sample_seed).collect());
            let started = self.started.lock().take();
            if let Some(started) = started {
                let _ = started.send(());
                let release = self.release.lock().take();
                if let Some(release) = release {
                    let _ = release.recv();
                }
            }
            jobs.iter().map(|j| marker(j.sample_seed)).collect()
        }
    }

    /// A scheduler whose worker is running a held first batch: job
    /// `seed 0` for `entry`, submitted alone to an idle worker.
    struct Held {
        sched: Arc<Scheduler>,
        worker: thread::JoinHandle<()>,
        first: mpsc::Receiver<JobResult>,
        release: mpsc::Sender<()>,
        batches: Arc<Mutex<Vec<Vec<u64>>>>,
    }

    impl Held {
        fn start(entry: &Arc<ModelEntry>, max_batch: usize) -> Held {
            let (started_tx, started_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel();
            let batches = Arc::new(Mutex::new(Vec::new()));
            let sched = Arc::new(Scheduler::with_runner(
                SchedCfg {
                    max_batch,
                    queue_cap: 64,
                },
                Arc::new(ServeMetrics::new(max_batch)),
                Box::new(GatedRunner {
                    started: Mutex::new(Some(started_tx)),
                    release: Mutex::new(Some(release_rx)),
                    batches: Arc::clone(&batches),
                }),
            ));
            let worker = spawn_worker(&sched);
            let first = sched.submit(job(entry, 0), None).expect("queue open");
            started_rx
                .recv_timeout(PATIENCE)
                .expect("a lone job on an idle worker must start its batch");
            Held {
                sched,
                worker,
                first,
                release: release_tx,
                batches,
            }
        }

        /// Release the first batch, check every reply, stop the worker
        /// and return the batches it ran.
        fn finish(self, queued: &[(u64, mpsc::Receiver<JobResult>)]) -> Vec<Vec<u64>> {
            self.release.send(()).expect("the first batch waits");
            expect_marker(&self.first, 0);
            for (seed, rx) in queued {
                expect_marker(rx, *seed);
            }
            self.sched.stop();
            self.worker.join().expect("worker panicked");
            let batches = self.batches.lock().clone();
            batches
        }
    }

    fn submit_all(
        s: &Scheduler,
        jobs: impl IntoIterator<Item = (Arc<ModelEntry>, u64)>,
    ) -> Vec<(u64, mpsc::Receiver<JobResult>)> {
        jobs.into_iter()
            .map(|(entry, seed)| {
                let rx = s.submit(job(&entry, seed), None).expect("queue open");
                (seed, rx)
            })
            .collect()
    }

    /// Jobs queued behind a running batch run together as the next
    /// batch: one batch when they fit in `max_batch`, otherwise
    /// ⌈k / max_batch⌉ full-first batches in queue order.
    #[test]
    fn jobs_queued_behind_a_running_batch_coalesce() {
        let entry = test_entry();
        for (max_batch, k) in [(4usize, 2u64), (4, 4), (4, 9), (3, 6)] {
            let held = Held::start(&entry, max_batch);
            let queued = submit_all(&held.sched, (1..=k).map(|s| (Arc::clone(&entry), s)));
            let seeds: Vec<u64> = (1..=k).collect();
            let mut want = vec![vec![0]];
            want.extend(seeds.chunks(max_batch).map(<[u64]>::to_vec));
            assert_eq!(
                held.finish(&queued),
                want,
                "max_batch {max_batch}, {k} jobs queued behind a running batch"
            );
        }
    }

    /// A job for another model entry, queued among them, keeps its
    /// place: the head's model takes its jobs from behind it, and the
    /// other job then runs in its own batch before later jobs.
    #[test]
    fn a_job_for_another_model_keeps_its_place() {
        let (a, b) = (test_entry(), test_entry());
        let held = Held::start(&a, 2);
        let queued = submit_all(
            &held.sched,
            [
                (Arc::clone(&a), 1),
                (Arc::clone(&b), 2),
                (Arc::clone(&a), 3),
                (Arc::clone(&a), 4),
            ],
        );
        assert_eq!(
            held.finish(&queued),
            vec![vec![0], vec![1, 3], vec![2], vec![4]]
        );
    }

    /// A lone job on an idle worker is answered without any other
    /// submit ever happening: no batch waits for company.
    #[test]
    fn a_lone_job_runs_without_waiting_for_company() {
        let (s, metrics) = sched(SchedCfg::default());
        let worker = spawn_worker(&s);
        let rx = s.submit(job(&test_entry(), 5), None).expect("queue open");
        expect_marker(&rx, 5);
        assert_eq!(metrics.batches.load(Ordering::SeqCst), 1);
        assert_eq!(metrics.batched_requests.load(Ordering::SeqCst), 1);
        s.stop();
        worker.join().expect("worker panicked");
    }

    /// Echoes the trace context the batch executes under, proving the
    /// submitter's `trace_scope` travels queue → worker thread → runner.
    struct TraceRunner;

    impl BatchRunner for TraceRunner {
        fn run(&self, jobs: Vec<GenJob>) -> Vec<BatchOut> {
            let t = gendt_trace::current_trace();
            jobs.iter().map(|_| marker(t)).collect()
        }
    }

    #[test]
    fn batch_runs_under_the_submitters_trace_context() {
        let metrics = Arc::new(ServeMetrics::new(8));
        let s = Arc::new(Scheduler::with_runner(
            SchedCfg::default(),
            metrics,
            Box::new(TraceRunner),
        ));
        let entry = test_entry();
        let rx = {
            let _scope = gendt_trace::trace_scope(77);
            s.submit(job(&entry, 1), None).expect("queue open")
        };
        let worker = spawn_worker(&s);
        expect_marker(&rx, 77);
        s.stop();
        worker.join().expect("worker panicked");
    }

    /// A job whose deadline has already passed when its batch is popped
    /// is answered with a `Timeout` taxonomy error and never executed;
    /// its batchmates still run.
    #[test]
    fn expired_deadline_is_answered_not_executed() {
        let (s, metrics) = sched(SchedCfg::default());
        let entry = test_entry();
        // Enqueue both before the worker exists so they pop as one
        // batch deterministically; the second's deadline is already in
        // the past by the time the worker checks it.
        let rx_live = s.submit(job(&entry, 5), None).expect("queue open");
        let rx_dead = s
            .submit(job(&entry, 6), Some(Instant::now()))
            .expect("queue open");
        let worker = spawn_worker(&s);
        expect_marker(&rx_live, 5);
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
