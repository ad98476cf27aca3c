//! The parallel evaluation engine behind every sweep and robust-SNN
//! evaluation.
//!
//! All accuracy numbers in this crate funnel through two entry points:
//!
//! * [`evaluate_network`] — one (network, coding, noise) point scored over a
//!   set of samples;
//! * [`run_grid`] — a full sweep grid of such points, flattened into one
//!   chunked `(point × sample-range)` task list so the pool load-balances
//!   across the whole grid instead of synchronising at point boundaries.
//!
//! ## Execution model
//!
//! Tasks are *chunks* of consecutive samples of one grid point.  Every
//! worker thread owns a single reusable [`SimWorkspace`] (created once per
//! worker via [`try_parallel_map_init`]) and simulates its chunks through
//! the batched [`SnnNetwork::simulate_batch`] API, so the steady-state hot
//! loop allocates nothing per sample.  A chunk holds at most [`TILE`]
//! samples, the engine's layer-major tile, so every chunk is one tile and
//! each dense weight is read once per chunk rather than once per sample.
//! The pool schedules one chunk per task.  A chunk reduces to the pair
//! `(correct, spikes)` of integer counts; per-point sums over chunks in
//! index order equal the old per-sample sums exactly.
//!
//! Determinism contract: sample `s` is always simulated with a fresh RNG
//! seeded `derive_seed(sweep_seed, s)` — a pure function of the sweep seed
//! and the sample index, independent of chunking and of which worker (and
//! therefore which workspace) runs the chunk.  Reductions are integer sums
//! folded in index order, so the produced [`SweepPoint`]s and
//! [`EvaluationSummary`]s are bit-identical for every thread count and
//! workspace reuse pattern, and a point evaluated alone equals the
//! same point inside a grid.  The `workspace_bit_identity` integration
//! tests additionally pin this engine byte-for-byte against a per-sample
//! loop over the allocating reference simulator.
//!
//! Using the *same* per-sample stream for every grid point is deliberate
//! beyond reproducibility: it applies common random numbers across points,
//! so accuracy differences between codings or noise levels are not inflated
//! by noise-realisation variance.

use std::ops::Range;

use nrsnn_data::LabelledSet;
use nrsnn_noise::WeightScaling;
use nrsnn_runtime::{derive_seed, try_parallel_map, try_parallel_map_init, ParallelConfig};
use nrsnn_snn::{
    BatchOutcome, CodingConfig, CodingKind, EvaluationSummary, NeuralCoding, SimWorkspace,
    SnnNetwork, SpikeTransform, TILE,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::experiment::SweepPoint;
use crate::{NrsnnError, Result, TrainedPipeline};

/// One point of a sweep grid before it has been measured.
pub(crate) struct GridPointSpec {
    /// Coding simulated at this point.
    pub coding: CodingKind,
    /// Noise level recorded in the resulting [`SweepPoint`].
    pub noise_level: f64,
    /// The sweep-level weight-scaling flag recorded in the result.
    pub weight_scaled: bool,
    /// Weight scaling folded into the converted network.
    pub scaling: WeightScaling,
    /// Noise model injected into every transmitted raster.
    pub noise: Box<dyn SpikeTransform>,
}

/// Per-worker scratch: one simulation workspace plus the outcome buffer the
/// batched API refills per chunk.  Carries no values that influence results.
#[derive(Default)]
struct WorkerScratch {
    ws: SimWorkspace,
    outcomes: Vec<BatchOutcome>,
}

/// A chunk of consecutive samples of one grid point.
#[derive(Debug, Clone)]
struct ChunkSpec {
    point: usize,
    samples: Range<usize>,
}

/// Splits `points × samples` into per-point chunks of at most [`TILE`]
/// samples: one simulation tile, and one unit of work for the pool.
fn chunk_grid(points: usize, samples: usize) -> Vec<ChunkSpec> {
    let mut chunks = Vec::with_capacity(points * samples.div_ceil(TILE));
    for point in 0..points {
        for start in (0..samples).step_by(TILE) {
            chunks.push(ChunkSpec {
                point,
                samples: start..(start + TILE).min(samples),
            });
        }
    }
    chunks
}

/// Integer reduction of one chunk: (correctly classified, spikes emitted).
type ChunkCounts = (usize, usize);

/// Simulates one chunk through the worker's workspace and reduces it to
/// integer counts.  Deterministic given the chunk: every sample derives its
/// own RNG from `seed`, and the workspace never carries state into results.
#[allow(clippy::too_many_arguments)]
fn simulate_chunk(
    network: &SnnNetwork,
    coding: &dyn NeuralCoding,
    cfg: &CodingConfig,
    noise: &dyn SpikeTransform,
    subset: &LabelledSet,
    samples: Range<usize>,
    seed: u64,
    scratch: &mut WorkerScratch,
) -> Result<ChunkCounts> {
    let start = samples.start;
    network.simulate_batch(
        &subset.inputs,
        samples,
        coding,
        cfg,
        noise,
        |sample| StdRng::seed_from_u64(derive_seed(seed, sample as u64)),
        &mut scratch.ws,
        &mut scratch.outcomes,
    )?;
    let mut correct = 0usize;
    let mut spikes = 0usize;
    for (offset, outcome) in scratch.outcomes.iter().enumerate() {
        if outcome.predicted == subset.labels[start + offset] {
            correct += 1;
        }
        spikes += outcome.total_spikes;
    }
    Ok((correct, spikes))
}

/// Scores one converted network under one coding and noise model.
///
/// This is the serial path and the parallel path in one: the per-chunk
/// tasks are identical, only the worker count from `parallel` differs.
pub(crate) fn evaluate_network(
    network: &SnnNetwork,
    coding: &dyn NeuralCoding,
    cfg: &CodingConfig,
    noise: &dyn SpikeTransform,
    subset: &LabelledSet,
    seed: u64,
    parallel: &ParallelConfig,
) -> Result<EvaluationSummary> {
    // Validate once per evaluation instead of once per sample.
    cfg.validate()?;
    let samples = subset.labels.len();
    let chunks = chunk_grid(1, samples);
    let counts = try_parallel_map_init(
        parallel,
        &chunks,
        WorkerScratch::default,
        |scratch, _, chunk| {
            simulate_chunk(
                network,
                coding,
                cfg,
                noise,
                subset,
                chunk.samples.clone(),
                seed,
                scratch,
            )
        },
    )?;
    let (correct, spikes) = counts
        .iter()
        .fold((0, 0), |(c, s), &(cc, cs)| (c + cc, s + cs));
    Ok(summary_from_counts(correct, spikes, samples))
}

/// Runs a full sweep grid: converts each distinct weight scaling once, fans
/// the chunked `(point × sample-range)` task list over the pool, reduces per
/// point, and returns the points sorted by `(noise level, coding)`.
pub(crate) fn run_grid(
    pipeline: &TrainedPipeline,
    specs: &[GridPointSpec],
    time_steps: u32,
    eval_samples: usize,
    seed: u64,
    parallel: &ParallelConfig,
) -> Result<Vec<SweepPoint>> {
    let subset = pipeline.test_subset(eval_samples)?;
    let samples = subset.labels.len();

    // The converted network depends only on the scaling factor, not on the
    // coding or noise model, so convert each distinct scaling exactly once
    // (the old serial path reconverted per point).  Conversion is itself
    // deterministic, hence safe to fan out too.
    let mut scalings: Vec<WeightScaling> = Vec::new();
    let mut network_of_spec: Vec<usize> = Vec::with_capacity(specs.len());
    for spec in specs {
        let slot = scalings
            .iter()
            .position(|&s| s == spec.scaling)
            .unwrap_or_else(|| {
                scalings.push(spec.scaling);
                scalings.len() - 1
            });
        network_of_spec.push(slot);
    }
    let networks = try_parallel_map(parallel, &scalings, |_, scaling| pipeline.to_snn(scaling))?;

    // Codings and their configs are cheap; build them per point up front so
    // the hot tasks only borrow.  Validating every coding kind and config
    // here (once per grid cell, hoisted out of the per-sample loop)
    // surfaces errors — including degenerate kinds like `Ttas(0)`, which
    // `build` would otherwise clamp — before any simulation work is
    // scheduled.
    for spec in specs {
        spec.coding.validate()?;
    }
    let codings: Vec<Box<dyn NeuralCoding>> = specs.iter().map(|s| s.coding.build()).collect();
    let cfgs: Vec<CodingConfig> = specs
        .iter()
        .map(|s| pipeline.coding_config(s.coding, time_steps))
        .collect();
    for cfg in &cfgs {
        cfg.validate()?;
    }

    // One task per (point, sample-range) chunk; every worker reuses one
    // workspace across all the chunks it runs.
    let chunks = chunk_grid(specs.len(), samples);
    let counts = try_parallel_map_init(
        parallel,
        &chunks,
        WorkerScratch::default,
        |scratch, _, chunk| {
            simulate_chunk(
                &networks[network_of_spec[chunk.point]],
                codings[chunk.point].as_ref(),
                &cfgs[chunk.point],
                specs[chunk.point].noise.as_ref(),
                &subset,
                chunk.samples.clone(),
                seed,
                scratch,
            )
        },
    )?;

    // Reduce chunk counts per point in chunk-index order (integer sums, so
    // identical to the old per-sample reduction).
    let mut correct_per_point = vec![0usize; specs.len()];
    let mut spikes_per_point = vec![0usize; specs.len()];
    for (chunk, &(correct, spikes)) in chunks.iter().zip(&counts) {
        correct_per_point[chunk.point] += correct;
        spikes_per_point[chunk.point] += spikes;
    }

    let mut points = Vec::with_capacity(specs.len());
    for (point, spec) in specs.iter().enumerate() {
        let summary =
            summary_from_counts(correct_per_point[point], spikes_per_point[point], samples);
        points.push(SweepPoint {
            coding: spec.coding,
            weight_scaled: spec.weight_scaled,
            noise_level: spec.noise_level,
            accuracy_percent: summary.accuracy_percent(),
            mean_spikes: summary.mean_spikes_per_sample,
        });
    }
    sort_sweep_points(&mut points);
    Ok(points)
}

/// Sorts sweep points by `(noise level, coding, weight scaling)` — the
/// canonical result order, independent of both grid declaration order and
/// task completion order.
pub(crate) fn sort_sweep_points(points: &mut [SweepPoint]) {
    points.sort_by(|a, b| {
        a.noise_level
            .partial_cmp(&b.noise_level)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.coding.order_index().cmp(&b.coding.order_index()))
            .then_with(|| a.weight_scaled.cmp(&b.weight_scaled))
    });
}

fn summary_from_counts(correct: usize, total_spikes: usize, samples: usize) -> EvaluationSummary {
    let denom = samples.max(1);
    EvaluationSummary {
        accuracy: correct as f32 / denom as f32,
        mean_spikes_per_sample: total_spikes as f32 / denom as f32,
        total_spikes,
        samples,
    }
}

// Compile-time guarantees that the types crossing the pool boundary may do
// so; a regression here (e.g. an Rc sneaking into a noise model) fails the
// build instead of the build of a downstream user.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<dyn SpikeTransform>();
    assert_send_sync::<dyn NeuralCoding>();
    assert_send_sync::<SnnNetwork>();
    assert_send_sync::<NrsnnError>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_covers_every_cell_exactly_once() {
        for (points, samples) in [(3, 10), (1, 1), (2, 7), (4, 5), (2, 17)] {
            let chunks = chunk_grid(points, samples);
            assert_eq!(chunks.len(), points * samples.div_ceil(TILE));
            let mut seen = vec![0usize; points * samples];
            for chunk in &chunks {
                assert!(chunk.samples.len() <= TILE);
                for s in chunk.samples.clone() {
                    seen[chunk.point * samples + s] += 1;
                }
            }
            assert!(
                seen.iter().all(|&n| n == 1),
                "points={points} samples={samples}"
            );
        }
        // A 24-sample evaluation is three whole tiles: three pool tasks.
        assert_eq!(chunk_grid(1, 24).len(), 3);
    }

    #[test]
    fn summary_from_counts_matches_old_reduction() {
        let summary = summary_from_counts(3, 120, 4);
        assert_eq!(summary.accuracy, 3.0 / 4.0);
        assert_eq!(summary.mean_spikes_per_sample, 30.0);
        assert_eq!(summary.total_spikes, 120);
        assert_eq!(summary.samples, 4);
        // Empty evaluations keep the old `max(1)` denominator convention.
        let empty = summary_from_counts(0, 0, 0);
        assert_eq!(empty.accuracy, 0.0);
        assert_eq!(empty.samples, 0);
    }
}
