//! Batched generation execution: the pure compute step the scheduler
//! hands coalesced requests to.
//!
//! This module feeds generation and must stay deterministic: no clocks,
//! no ambient randomness — every output is a function of (model,
//! context, seed, cursor) alone, which is what makes a batched response
//! bitwise-equal to its single-request counterpart and a streamed chunk
//! bitwise-equal to the same span of the one-shot series.

use crate::registry::ModelEntry;
use gendt::{generate_series_chunk, GenChunkItem, GenCursor, GeneratedSeries};
use gendt_data::context::RunContext;
use std::sync::Arc;

/// Streaming continuation carried by a [`GenJob`]: resume generation
/// from `cursor`, producing at most `max_windows` windows this chunk.
#[derive(Clone)]
pub struct StreamPart {
    /// Resume position (carried LSTM state + RNG stream + next window).
    pub cursor: GenCursor,
    /// Window budget for this chunk.
    pub max_windows: usize,
}

/// One queued generation job: the model pinned at dispatch time, the
/// extracted context, and the request's explicit sample seed.
#[derive(Clone)]
pub struct GenJob {
    /// Model entry the request resolved; pinned so a `/reload` cannot
    /// swap the model out from under a queued request.
    pub entry: Arc<ModelEntry>,
    /// Extracted trajectory context (possibly shared via the cache).
    pub ctx: Arc<RunContext>,
    /// Generation sample seed from the request.
    pub sample_seed: u64,
    /// `Some` for a streaming chunk, `None` for a one-shot series.
    /// Streaming continuations coalesce into the same micro-batches as
    /// one-shot jobs — the chunk pass is row-local, so mixed cursor
    /// positions batch bitwise-safely.
    pub stream: Option<StreamPart>,
}

/// One executed job: the produced series (full series for one-shot jobs,
/// this chunk's span for streaming jobs) plus the advanced cursor for
/// streaming jobs.
pub struct BatchOut {
    /// Generated series, aligned with the job.
    pub series: GeneratedSeries,
    /// Advanced resume cursor; `None` for one-shot jobs.
    pub cursor: Option<GenCursor>,
}

/// Run one coalesced batch against a single model. Jobs must all carry
/// the same `entry` the caller grouped by; results align with `jobs`.
/// Streaming jobs hand their cursor over rather than copying it.
pub fn run_batch(entry: &ModelEntry, mut jobs: Vec<GenJob>) -> Vec<BatchOut> {
    let cfg = entry.model.cfg();
    let streamed: Vec<bool> = jobs.iter().map(|j| j.stream.is_some()).collect();
    let mut items: Vec<GenChunkItem> = jobs
        .iter_mut()
        .map(|j| {
            let (cursor, max_windows) = match j.stream.take() {
                Some(part) => (part.cursor, part.max_windows),
                None => (GenCursor::fresh(cfg, j.sample_seed), usize::MAX),
            };
            GenChunkItem {
                ctx: &j.ctx,
                cursor,
                max_windows,
            }
        })
        .collect();
    let series = generate_series_chunk(&entry.model, &entry.kpis, &mut items);
    series
        .into_iter()
        .zip(items)
        .zip(streamed)
        .map(|((series, item), streamed)| BatchOut {
            series,
            cursor: streamed.then_some(item.cursor),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::demo_model;
    use gendt_data::builders::{dataset_a, BuildCfg};
    use gendt_data::kpi_types::Kpi;

    fn demo_ctx() -> Arc<RunContext> {
        let ds = dataset_a(&BuildCfg::quick(9));
        Arc::new(gendt_data::context::extract(
            &ds.world,
            &ds.deployment,
            &ds.runs[0].traj,
            &gendt_data::context::ContextCfg {
                max_cells: 3,
                ..gendt_data::context::ContextCfg::default()
            },
        ))
    }

    /// The scheduler's compute step must produce the same bits whether
    /// the model records every step (forced by `GENDT_SANITIZE`) or
    /// replays compiled plans; each `ModelEntry` owns its plan cache, so a
    /// `/reload` (fresh entries) invalidates plans by construction.
    #[test]
    fn plan_mode_batches_match_interpreted() {
        let entry = || ModelEntry {
            name: "demo".to_string(),
            version: 0,
            model: demo_model(3),
            kpis: Kpi::DATASET_A.to_vec(),
        };
        let ctx = demo_ctx();
        let (tape, plan) = (entry(), entry());
        let jobs: Vec<GenJob> = [11u64, 12]
            .iter()
            .map(|&seed| GenJob {
                entry: Arc::new(entry()),
                ctx: Arc::clone(&ctx),
                sample_seed: seed,
                stream: None,
            })
            .collect();
        // The switch is process-global: hold a lock for both runs.
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        gendt_nn::set_sanitize(true);
        let base = run_batch(&tape, jobs.clone());
        gendt_nn::set_sanitize(false);
        let first = run_batch(&plan, jobs.clone());
        let replay = run_batch(&plan, jobs.clone());
        for k in 0..jobs.len() {
            assert_eq!(base[k].series.series, first[k].series.series);
            assert_eq!(base[k].series.series, replay[k].series.series);
        }
    }

    /// A streaming job chunked through `run_batch` — coalesced with an
    /// unrelated one-shot job in the same batch — must concatenate to
    /// the one-shot series for its own seed.
    #[test]
    fn streamed_chunks_concatenate_to_one_shot() {
        let entry = ModelEntry {
            name: "demo".to_string(),
            version: 0,
            model: demo_model(3),
            kpis: Kpi::DATASET_A.to_vec(),
        };
        let ctx = demo_ctx();
        let one_shot = run_batch(
            &entry,
            vec![GenJob {
                entry: Arc::new(ModelEntry {
                    name: "demo".to_string(),
                    version: 0,
                    model: demo_model(3),
                    kpis: Kpi::DATASET_A.to_vec(),
                }),
                ctx: Arc::clone(&ctx),
                sample_seed: 21,
                stream: None,
            }],
        )
        .remove(0);
        assert!(one_shot.cursor.is_none());

        let mut cursor = GenCursor::fresh(entry.model.cfg(), 21);
        let mut cat: Vec<Vec<f64>> = vec![Vec::new(); 4];
        loop {
            let out = run_batch(
                &entry,
                vec![
                    GenJob {
                        entry: Arc::new(ModelEntry {
                            name: "demo".to_string(),
                            version: 0,
                            model: demo_model(3),
                            kpis: Kpi::DATASET_A.to_vec(),
                        }),
                        ctx: Arc::clone(&ctx),
                        sample_seed: 21,
                        stream: Some(StreamPart {
                            cursor: cursor.clone(),
                            max_windows: 1,
                        }),
                    },
                    GenJob {
                        entry: Arc::new(ModelEntry {
                            name: "demo".to_string(),
                            version: 0,
                            model: demo_model(3),
                            kpis: Kpi::DATASET_A.to_vec(),
                        }),
                        ctx: Arc::clone(&ctx),
                        sample_seed: 99,
                        stream: None,
                    },
                ],
            );
            let chunk = &out[0];
            if chunk.series.is_empty() {
                break;
            }
            for (acc, s) in cat.iter_mut().zip(chunk.series.series.iter()) {
                acc.extend_from_slice(s);
            }
            cursor = chunk.cursor.clone().expect("stream job returns a cursor");
        }
        assert_eq!(one_shot.series.series, cat, "streamed concat diverges");
    }
}
