//! The two sweep workloads: `mlp_deletion_sweep` and `cnn_jitter_sweep`.
//!
//! Both run the full coding × noise-level grid through the public sweep
//! builder, and replay the same grid through `SnnNetwork::simulate_with`
//! with the network, coding, noise and per-sample RNG the sweep builds.
//! The reference sweep runs on [`THREADS`] threads; one full serial replay
//! is its correctness check (its per-cell counts must equal the sweep's
//! points) and, traced, the per-layer profile.  In the end-to-end run the
//! timed sweeps run on [`TIMED_THREADS`] thread and must equal the
//! reference, and after each one every pair is replayed once more as a
//! latency probe.  The traced run times [`THREADS`]-thread sweeps for the
//! parallel speedup.

use std::io::Write;

use nrsnn::prelude::*;
use nrsnn_data::LabelledSet;
use nrsnn_obs::{Clock, MonotonicClock};
use nrsnn_runtime::derive_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{Profile, SetupTimes};
use crate::report::{EndToEnd, Metric, Outcome};
use crate::{
    median, peak_rss_mib, percentile_band, since, stream, Options, Result, Scale, Workload,
    CODINGS, THREADS,
};

/// Threads of the timed end-to-end sweeps.  On a host with two shared
/// cores, a sweep on both of them spread its samples/s by a quarter from
/// run to run, as both cores' neighbours came and went; one thread halves
/// that.  Sweeps are bit-identical at every thread count, so the timed
/// sweeps are still checked against the [`THREADS`]-thread reference.
const TIMED_THREADS: usize = 1;

/// Deletion probabilities of `mlp_deletion_sweep`.
const DELETION_LEVELS: [f64; 3] = [0.0, 0.5, 0.9];
/// Jitter σ of `cnn_jitter_sweep`.
const JITTER_SIGMAS: [f64; 3] = [0.0, 1.0, 4.0];
/// Timed sweeps per run, however short the window; in the end-to-end run
/// also the probes of each (cell, sample) pair.  A CNN run on a slow
/// stretch of the host fits only three rounds into the benchmark's window;
/// four gives it as many chances at a fast sweep as the other runs.
const MIN_ROUNDS: usize = 4;

/// One workload's sweep grid.
struct Grid {
    jitter: bool,
    levels: [f64; 3],
    sweep: SweepConfig,
}

impl Grid {
    fn new(options: &Options, scale: &Scale) -> Grid {
        let jitter = options.workload == Workload::CnnJitterSweep;
        Grid {
            jitter,
            levels: if jitter {
                JITTER_SIGMAS
            } else {
                DELETION_LEVELS
            },
            sweep: SweepConfig {
                time_steps: scale.time_steps,
                eval_samples: scale.test,
                seed: derive_seed(options.seed, stream::SWEEP),
            },
        }
    }

    fn pipeline_config(&self, scale: &Scale) -> PipelineConfig {
        if self.jitter {
            scale.cnn_config()
        } else {
            scale.mlp_config()
        }
    }

    /// Runs the whole grid through the public sweep builder on `threads`
    /// threads.
    fn run(&self, pipeline: &TrainedPipeline, threads: usize) -> Result<Vec<SweepPoint>> {
        let parallel = ParallelConfig::with_threads(threads);
        let points = if self.jitter {
            JitterSweep::new(&CODINGS, &self.levels)
                .config(self.sweep)
                .parallel(parallel)
                .run(pipeline)?
        } else {
            DeletionSweep::new(&CODINGS, &self.levels)
                .weight_scaling(true)
                .config(self.sweep)
                .parallel(parallel)
                .run(pipeline)?
        };
        Ok(points)
    }

    /// The weight scaling and noise model the sweep builds for one level.
    fn cell_model(&self, level: f64) -> Result<(WeightScaling, Box<dyn SpikeTransform>)> {
        if level == 0.0 {
            return Ok((WeightScaling::none(), Box::new(IdentityTransform)));
        }
        Ok(if self.jitter {
            (WeightScaling::none(), Box::new(JitterNoise::new(level)?))
        } else {
            (
                WeightScaling::for_deletion_probability(level)?,
                Box::new(DeletionNoise::new(level)?),
            )
        })
    }
}

/// One grid cell as the sweep builds it.
struct Cell {
    /// Index into [`CODINGS`].
    coding_index: usize,
    level: f64,
    coding: Box<dyn NeuralCoding>,
    cfg: CodingConfig,
    noise: Box<dyn SpikeTransform>,
    network: SnnNetwork,
}

/// Replay of the grid, one `simulate_with` call per (cell, sample) pair.
struct Replayer {
    cells: Vec<Cell>,
    subset: LabelledSet,
    seed: u64,
    /// Outcome of every (cell, sample) pair from the check pass.
    expected: Vec<BatchOutcome>,
    /// Every latency-probe timing of every pair.
    timings: Vec<Vec<u64>>,
}

impl Replayer {
    fn new(grid: &Grid, pipeline: &TrainedPipeline) -> Result<Replayer> {
        let mut cells = Vec::new();
        for (coding_index, &kind) in CODINGS.iter().enumerate() {
            for &level in &grid.levels {
                let (scaling, noise) = grid.cell_model(level)?;
                cells.push(Cell {
                    coding_index,
                    level,
                    coding: kind.build(),
                    cfg: pipeline.coding_config(kind, grid.sweep.time_steps),
                    noise,
                    network: pipeline.to_snn(&scaling)?,
                });
            }
        }
        Ok(Replayer {
            cells,
            subset: pipeline.test_subset(grid.sweep.eval_samples)?,
            seed: grid.sweep.seed,
            expected: Vec::new(),
            timings: Vec::new(),
        })
    }

    fn samples(&self) -> usize {
        self.subset.labels.len()
    }

    fn pairs(&self) -> usize {
        self.cells.len() * self.samples()
    }

    /// Simulates one (cell, sample) pair with the sweep's per-sample RNG;
    /// returns its outcome and the time of the call.
    fn simulate(
        &self,
        cell: usize,
        sample: usize,
        ws: &mut SimWorkspace,
        clock: &MonotonicClock,
    ) -> Result<(BatchOutcome, u64)> {
        let cell = &self.cells[cell];
        let row = self.subset.inputs.row_slice(sample)?;
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, sample as u64));
        let start = clock.now_ns();
        let run = cell.network.simulate_with(
            row,
            cell.coding.as_ref(),
            &cell.cfg,
            cell.noise.as_ref(),
            &mut rng,
            ws,
        )?;
        Ok((run, since(clock, start)))
    }

    /// Replays every pair, cell by cell, and checks each cell's correct
    /// count and spike total against the sweep's point.  Traced, the stage
    /// events go into the returned profile.
    fn check_pass(
        &mut self,
        reference: &[SweepPoint],
        trace: bool,
        clock: &MonotonicClock,
        outcome: &mut Outcome,
    ) -> Result<Profile> {
        let mut ws = SimWorkspace::new();
        ws.set_stage_tracing(trace);
        let mut profile = Profile::default();
        let samples = self.samples();
        self.expected.clear();
        self.timings = vec![Vec::new(); self.pairs()];
        for cell in 0..self.cells.len() {
            let (mut correct, mut spikes) = (0usize, 0usize);
            for sample in 0..samples {
                let (run, elapsed) = self.simulate(cell, sample, &mut ws, clock)?;
                if trace {
                    let coding = self.cells[cell].coding_index;
                    profile.record(coding, elapsed, ws.stage_events(), run.total_spikes);
                }
                correct += usize::from(run.predicted == self.subset.labels[sample]);
                spikes += run.total_spikes;
                self.expected.push(run);
            }
            outcome.attempted += samples as u64;
            // The sweep's reduction: counts over the sample count, as f32.
            let denom = samples.max(1) as f32;
            let accuracy = correct as f32 / denom * 100.0;
            let mean_spikes = spikes as f32 / denom;
            let Cell {
                coding_index,
                level,
                ..
            } = self.cells[cell];
            let kind = CODINGS[coding_index];
            let point = reference
                .iter()
                .find(|p| p.coding == kind && p.noise_level == level);
            let matches = point.is_some_and(|p| {
                p.accuracy_percent.to_bits() == accuracy.to_bits()
                    && p.mean_spikes.to_bits() == mean_spikes.to_bits()
            });
            if !matches {
                outcome.failed += samples as u64;
                outcome.problems.push(format!(
                    "{} at level {level}: serial replay gives {accuracy}% / {mean_spikes} \
                     spikes, the {THREADS}-thread sweep {:?}",
                    kind.label(),
                    point.map(|p| (p.accuracy_percent, p.mean_spikes))
                ));
            }
        }
        Ok(profile)
    }

    /// Probes every pair once, cell by cell, timing each call and checking
    /// its outcome against the check pass.
    fn probe_pass(
        &mut self,
        ws: &mut SimWorkspace,
        clock: &MonotonicClock,
        outcome: &mut Outcome,
    ) -> Result<()> {
        for pair in 0..self.pairs() {
            let (cell, sample) = (pair / self.samples(), pair % self.samples());
            let (run, ns) = self.simulate(cell, sample, ws, clock)?;
            outcome.attempted += 1;
            if self.expected.get(pair) != Some(&run) {
                outcome.failed += 1;
                outcome
                    .problems
                    .push(format!("latency probe of pair {pair} changed its outcome"));
            }
            self.timings[pair].push(ns);
        }
        Ok(())
    }

    /// The fastest timing of each pair, sorted.
    fn latencies(&self) -> Vec<u64> {
        let mut latencies: Vec<u64> = self
            .timings
            .iter()
            .map(|ns| ns.iter().copied().min().unwrap_or(0))
            .collect();
        latencies.sort_unstable();
        latencies
    }
}

/// Runs the sweep once on `threads` threads, checking it against the
/// reference; returns its samples/s.
fn timed_sweep(
    grid: &Grid,
    threads: usize,
    pipeline: &TrainedPipeline,
    reference: &[SweepPoint],
    clock: &MonotonicClock,
    outcome: &mut Outcome,
) -> Result<f64> {
    let samples = reference.len() as u64 * grid.sweep.eval_samples as u64;
    let start = clock.now_ns();
    let points = std::hint::black_box(grid.run(pipeline, threads)?);
    let elapsed = since(clock, start).max(1);
    outcome.attempted += samples;
    if points != reference {
        let bad = points
            .iter()
            .zip(reference)
            .filter(|(a, b)| a != b)
            .count()
            .max(1);
        outcome.failed += bad as u64 * grid.sweep.eval_samples as u64;
        outcome.problems.push(format!(
            "a timed sweep differs from the reference in {bad} cell(s)"
        ));
    }
    Ok(samples as f64 * 1e9 / elapsed as f64)
}

/// Builds the pipeline `scale.setups` times; returns the last one and the
/// median set-up timers.
fn setup(
    grid: &Grid,
    scale: &Scale,
    clock: &MonotonicClock,
) -> Result<(TrainedPipeline, SetupTimes)> {
    let config = grid.pipeline_config(scale);
    let (mut total, mut build, mut convert) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..scale.setups.max(1) {
        let t0 = clock.now_ns();
        let pipeline = TrainedPipeline::build(&config)?;
        let t1 = clock.now_ns();
        std::hint::black_box(pipeline.to_snn(&WeightScaling::none())?);
        let t2 = clock.now_ns();
        total.push((t2 - t0) as f64 / 1e9);
        build.push((t1 - t0) as f64 / 1e9);
        convert.push((t2 - t1) as f64 / 1e6);
        last = Some(pipeline);
    }
    let pipeline = last.ok_or("no set-up ran")?;
    Ok((
        pipeline,
        SetupTimes {
            setup_s: median(&total),
            pipeline_build_s: median(&build),
            convert_ms: median(&convert),
            server_start_ms: None,
        },
    ))
}

/// Runs one sweep workload.
pub(crate) fn run(options: &Options, scale: &Scale, out: &mut dyn Write) -> Result<Outcome> {
    let clock = MonotonicClock::new();
    let grid = Grid::new(options, scale);
    let mut outcome = Outcome::default();

    let (pipeline, setup) = setup(&grid, scale, &clock)?;
    writeln!(
        out,
        "set-up: {} pipeline(s), median {:.3} s (DNN test accuracy {:.1}%)",
        scale.setups,
        setup.setup_s,
        pipeline.dnn_test_accuracy() * 100.0
    )?;

    // Check before timing: the 2-thread reference against a serial replay.
    let reference = grid.run(&pipeline, THREADS)?;
    let mut replayer = Replayer::new(&grid, &pipeline)?;
    let profile = replayer.check_pass(&reference, options.trace, &clock, &mut outcome)?;
    outcome.notes.push(format!(
        "serial replay of {} cells x {} samples against the {THREADS}-thread sweep: {}",
        reference.len(),
        replayer.samples(),
        if outcome.failed == 0 {
            "identical"
        } else {
            "MISMATCH"
        }
    ));
    let peak_rss_mb = peak_rss_mib()?;

    let window_ns = (options.seconds * 1e9) as u64;
    let start = clock.now_ns();
    let mut rates = Vec::new();
    if options.trace {
        if let Err(message) = profile.check_coverage() {
            outcome.problems.push(message);
        }
        while rates.len() < MIN_ROUNDS || since(&clock, start) < window_ns / 2 {
            rates.push(timed_sweep(
                &grid,
                THREADS,
                &pipeline,
                &reference,
                &clock,
                &mut outcome,
            )?);
        }
        let serial = profile.serial_samples_per_s();
        let mut metrics = setup.metrics();
        metrics.extend(profile.metrics());
        metrics.push(Metric::new(
            "runtime.parallel_speedup",
            "x",
            (serial > 0.0).then(|| median(&rates) / serial),
        ));
        metrics.extend(crate::serve::absent_layer_metrics());
        outcome.metrics = metrics;
        return Ok(outcome);
    }

    // The window alternates one timed sweep with one probe of every pair,
    // both on one thread, so throughput and latency see the same host
    // conditions and every pair is probed as often as the sweep runs.
    // Both report the fastest of their repeats: the host's neighbours only
    // ever add time, in stretches of seconds, and the median of a run's
    // repeats moved with them by a fifth from run to run where the best
    // moved by a twentieth.
    let mut workspace = SimWorkspace::new();
    while rates.len() < MIN_ROUNDS || since(&clock, start) < window_ns {
        rates.push(timed_sweep(
            &grid,
            TIMED_THREADS,
            &pipeline,
            &reference,
            &clock,
            &mut outcome,
        )?);
        replayer.probe_pass(&mut workspace, &clock, &mut outcome)?;
    }
    let latencies = replayer.latencies();
    outcome.notes.push(format!(
        "samples/s: fastest of {} timed sweeps on {TIMED_THREADS} thread; latency: fastest \
         time of each of {} pairs ({} timings each), {} beyond p99",
        rates.len(),
        latencies.len(),
        rates.len(),
        latencies.len() - latencies.len() * 99 / 100
    ));
    let cells = reference.len().max(1) as f64;
    let mean =
        |f: fn(&SweepPoint) -> f32| reference.iter().map(|p| f64::from(f(p))).sum::<f64>() / cells;
    let e2e = EndToEnd {
        setup_s: setup.setup_s,
        samples_per_s: rates.iter().copied().fold(0.0, f64::max),
        // The grid's latencies are a mixture of 15 cells' clusters.
        latency_p50_us: percentile_band(&latencies, 0.50, 0.05) / 1e3,
        latency_p99_us: percentile_band(&latencies, 0.99, 0.005) / 1e3,
        accuracy_pct: mean(|p| p.accuracy_percent),
        spikes_per_inference: mean(|p| p.mean_spikes),
        peak_rss_mb,
    };
    outcome.metrics = e2e.metrics();
    Ok(outcome)
}
