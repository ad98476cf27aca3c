//! Steady-state allocation regression test for the batched simulation
//! engine.
//!
//! This binary installs a counting global allocator (per-thread counters,
//! toggled only around the measured region) and asserts that, after one
//! warm-up pass has grown the [`SimWorkspace`] buffers, re-simulating the
//! same batch performs **zero** heap allocations per sample.  Any new
//! allocation sneaking into the hot loop (an accidental `clone`, a fresh
//! `Vec`, a tensor temp) fails this test rather than silently eating the
//! workspace refactor's win.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nrsnn::prelude::*;
use nrsnn_runtime::derive_seed;
use nrsnn_snn::{SnnLayer, SnnNetwork};
use nrsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts allocations (alloc + realloc) on the current thread while enabled.
struct CountingAllocator;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: pure pass-through to `System` — every GlobalAlloc contract
// (layout validity, pointer provenance) is exactly the one `System`
// already upholds; the counter bump touches only thread-local Cells and
// never allocates or unwinds (`try_with`).
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards the caller's layout to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    // SAFETY: forwards ptr/layout, which the caller obtained from `alloc`
    // on this same allocator (i.e. from `System`), unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards ptr/layout/new_size from the caller's contract
    // straight to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

fn count_one() {
    // `try_with` so allocations during thread teardown never panic.
    let _ = ENABLED.try_with(|enabled| {
        if enabled.get() {
            let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        }
    });
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting enabled on this thread and returns the
/// number of allocations it performed.
fn allocations_during<F: FnOnce()>(f: F) -> u64 {
    ALLOCATIONS.with(|count| count.set(0));
    ENABLED.with(|enabled| enabled.set(true));
    f();
    ENABLED.with(|enabled| enabled.set(false));
    ALLOCATIONS.with(|count| count.get())
}

/// A deterministic hand-built MLP (no training needed, keeps this binary
/// fast and dependency-light).
fn build_network(inputs: usize, hidden: usize, outputs: usize) -> SnnNetwork {
    let fill = |rows: usize, cols: usize, scale: f32| -> Tensor {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 37 + 11) % 23) as f32 / 23.0 * scale - scale / 3.0)
            .collect();
        Tensor::from_vec(data, &[rows, cols]).unwrap()
    };
    SnnNetwork::new(vec![
        SnnLayer::Linear {
            weights: fill(hidden, inputs, 0.6),
            bias: Tensor::zeros(&[hidden]),
        },
        SnnLayer::Linear {
            weights: fill(outputs, hidden, 0.8),
            bias: Tensor::zeros(&[outputs]),
        },
    ])
    .unwrap()
}

fn build_inputs(samples: usize, width: usize) -> Tensor {
    let data: Vec<f32> = (0..samples * width)
        .map(|i| ((i * 13 + 5) % 29) as f32 / 29.0)
        .collect();
    Tensor::from_vec(data, &[samples, width]).unwrap()
}

#[test]
fn steady_state_simulate_batch_allocates_zero_per_sample() {
    let network = build_network(24, 18, 6);
    let inputs = build_inputs(32, 24);
    let cfg = CodingConfig::new(64, 1.0);
    let seed = 2468u64;

    // Cover the no-noise fast path, both random noise models and a
    // multi-stage composite: every combination must be allocation-free in
    // steady state (the composite applies stages after the first in place,
    // so it needs no scratch raster).
    let noises: Vec<(&str, Box<dyn SpikeTransform>)> = vec![
        ("identity", Box::new(IdentityTransform)),
        ("deletion", Box::new(DeletionNoise::new(0.3).unwrap())),
        ("jitter", Box::new(JitterNoise::new(1.2).unwrap())),
        (
            "composite",
            Box::new(
                CompositeNoise::new()
                    .then(DeletionNoise::new(0.2).unwrap())
                    .then(JitterNoise::new(1.0).unwrap()),
            ),
        ),
    ];
    let codings = [
        CodingKind::Rate,
        CodingKind::Phase,
        CodingKind::Ttfs,
        CodingKind::Ttas(5),
    ];
    for kind in codings {
        let coding = kind.build();
        for (noise_name, noise) in &noises {
            let mut ws = SimWorkspace::new();
            let mut outcomes: Vec<BatchOutcome> = Vec::new();
            let run = |ws: &mut SimWorkspace, out: &mut Vec<BatchOutcome>| {
                network
                    .simulate_batch(
                        &inputs,
                        0..32,
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        |sample| StdRng::seed_from_u64(derive_seed(seed, sample as u64)),
                        ws,
                        out,
                    )
                    .unwrap();
            };

            // Warm-up: grows every workspace buffer to its steady-state
            // size (identical samples and seeds, so later passes need no
            // growth).
            let warmup = allocations_during(|| run(&mut ws, &mut outcomes));
            assert!(
                warmup > 0,
                "{} under {noise_name}: warm-up should allocate (counter wired up?)",
                kind.label()
            );
            let reference = outcomes.clone();

            // Steady state: the same batch twice more, zero allocations.
            for pass in 0..2 {
                let steady = allocations_during(|| run(&mut ws, &mut outcomes));
                assert_eq!(
                    steady,
                    0,
                    "{} under {noise_name}: pass {pass} allocated {steady} times \
                     for 32 samples (expected zero)",
                    kind.label()
                );
                assert_eq!(
                    outcomes,
                    reference,
                    "{} under {noise_name}: steady-state results diverged",
                    kind.label()
                );
            }
        }
    }
}

/// The observability hot path must be equally allocation-free: stage-event
/// capture inside the simulation workspace, the sharded metric sinks, and
/// the flight recorder's ring push may not cost a single heap allocation
/// once their buffers are warm — otherwise "tracing on" silently taxes the
/// serving path the ≤ 2 % overhead budget is supposed to protect.
#[test]
fn steady_state_observability_hot_path_allocates_zero() {
    use nrsnn_obs::{
        FlightRecorder, KernelPath, RecorderConfig, ShardedCounter, ShardedHistogram, Span, Stage,
        TraceRecord,
    };

    // 1. Stage tracing in the workspace: same batch contract as above, but
    //    with per-stage event capture enabled.
    let network = build_network(24, 18, 6);
    let inputs = build_inputs(32, 24);
    let cfg = CodingConfig::new(64, 1.0);
    let coding = CodingKind::Ttas(5).build();
    let noise = DeletionNoise::new(0.3).unwrap();
    let mut ws = SimWorkspace::new();
    ws.set_stage_tracing(true);
    let mut outcomes: Vec<BatchOutcome> = Vec::new();
    let run = |ws: &mut SimWorkspace, out: &mut Vec<BatchOutcome>| {
        network
            .simulate_batch(
                &inputs,
                0..32,
                coding.as_ref(),
                &cfg,
                &noise,
                |sample| StdRng::seed_from_u64(derive_seed(97, sample as u64)),
                ws,
                out,
            )
            .unwrap();
        assert!(!ws.stage_events().is_empty(), "tracing captured no events");
    };
    let warmup = allocations_during(|| run(&mut ws, &mut outcomes));
    assert!(warmup > 0, "warm-up should allocate (counter wired up?)");
    for pass in 0..2 {
        let steady = allocations_during(|| run(&mut ws, &mut outcomes));
        assert_eq!(
            steady, 0,
            "stage tracing pass {pass} allocated {steady} times (expected zero)"
        );
    }

    // 2. Sharded sinks: counters and histograms are preallocated atomics —
    //    zero allocations from the very first record.
    let counter = ShardedCounter::new(4);
    let histogram = ShardedHistogram::new(4);
    let sink_allocs = allocations_during(|| {
        for i in 0..1000u64 {
            counter.incr((i % 4) as usize);
            histogram.record((i % 4) as usize, i * 31);
        }
    });
    assert_eq!(sink_allocs, 0, "sharded sinks allocated on the record path");

    // 3. The flight recorder: once every preallocated ring slot's span
    //    buffer has grown to the workload's span count, re-recording is a
    //    clear + extend_from_slice — no allocation.
    let recorder = FlightRecorder::new(RecorderConfig {
        shards: 1,
        recent_capacity: 4,
        outlier_capacity: 2,
        slow_threshold_ns: 0, // no slow outliers: the recent ring is the subject
    });
    let trace = TraceRecord {
        trace_id: 1,
        ok: true,
        backend: "scalar",
        start_ns: 0,
        end_ns: 5_000,
        spans: (0..8)
            .map(|i| Span {
                stage: Stage::Simulate,
                layer: Some(i),
                start_ns: u64::from(i) * 500,
                end_ns: (u64::from(i) + 1) * 500,
                kernel: KernelPath::Dense,
                density: 0.5,
            })
            .collect(),
        ..TraceRecord::default()
    };
    // Warm-up: one pass over every ring slot.
    for _ in 0..4 {
        recorder.record(0, &trace);
    }
    let record_allocs = allocations_during(|| {
        for _ in 0..100 {
            recorder.record(0, &trace);
        }
    });
    assert_eq!(
        record_allocs, 0,
        "flight-recorder record path allocated in steady state"
    );
}

/// The one-shot `simulate` wrapper must stay correct (it allocates by
/// design — one workspace per call); contrast documented here so the
/// steady-state guarantee above is clearly about the batched path.
#[test]
fn one_shot_simulate_allocates_but_matches_batch_results() {
    let network = build_network(16, 12, 4);
    let inputs = build_inputs(4, 16);
    let cfg = CodingConfig::new(48, 1.0);
    let coding = CodingKind::Ttas(4).build();
    let noise = DeletionNoise::new(0.25).unwrap();

    let mut ws = SimWorkspace::new();
    let mut outcomes = Vec::new();
    network
        .simulate_batch(
            &inputs,
            0..4,
            coding.as_ref(),
            &cfg,
            &noise,
            |sample| StdRng::seed_from_u64(derive_seed(1, sample as u64)),
            &mut ws,
            &mut outcomes,
        )
        .unwrap();

    for (sample, outcome) in outcomes.iter().enumerate() {
        let row = inputs.row(sample).unwrap();
        let mut rng = StdRng::seed_from_u64(derive_seed(1, sample as u64));
        let one_shot = network
            .simulate(row.as_slice(), coding.as_ref(), &cfg, &noise, &mut rng)
            .unwrap();
        assert_eq!(one_shot.predicted, outcome.predicted);
        assert_eq!(one_shot.total_spikes, outcome.total_spikes);
    }
}
