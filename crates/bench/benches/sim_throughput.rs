//! Simulation-engine throughput: allocating reference path vs the
//! allocation-free workspace path, on the Fig. 7 deletion-sweep workload
//! (CIFAR-10-like pipeline, TTAS(5) with weight scaling under 50 % spike
//! deletion) — plus the per-ISA SIMD backend comparison on the
//! kernel-bound clean MLP workload.
//!
//! Both paths simulate the same samples with the same per-sample derived
//! seeds and are asserted to produce identical predictions and spike counts
//! before any timing happens — the workspace path buys throughput, never
//! different results.  The SIMD section applies the same discipline along
//! the instruction-set axis: every available backend (scalar / SSE2 /
//! AVX2) must produce **byte-equal logits** for every sample before it is
//! timed.  On AVX2 hosts the dense forward pass AND the rate/phase
//! end-to-end simulations must clear a 1.5x speedup floor over the
//! forced-scalar kernels — the end-to-end floor became enforceable once
//! the coding layer itself went lane-blocked, removing the scalar
//! encode/decode term from Amdahl's denominator.  A third section times
//! the dense forward over tiles of 1, 4 and 8 samples per ISA (µs per
//! sample and weight bytes per sample), each gated byte-equal to the
//! per-sample forward.  A fourth times the coding layer in isolation:
//! per-coding, per-ISA encode-only and decode-only rows, equality-gated
//! train-for-train before timing.  A fifth times the mat-mul kernel that
//! DNN training and the convolution forward run, per ISA at the MLP
//! training shapes and the CNN's shapes, each gated bit for bit on a plain
//! `ikj` loop first.  A sixth times spike deletion alone, per ISA: ns per
//! presented spike at p = 0.5 and 0.9 on the MLP's rate- and TTAS-coded
//! input rasters, each gated on the per-spike draw rule (same survivors,
//! same RNG end state) first.
//!
//! ```text
//! cargo bench -p nrsnn-bench --bench sim_throughput
//! ```

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nrsnn::prelude::*;
use nrsnn_bench::{bench_sweep_config, cifar10_pipeline, mnist_pipeline, record_bench_summary};
use nrsnn_runtime::derive_seed;
use nrsnn_snn::{CodingScratch, SnnLayer, SpikeRaster};
use nrsnn_tensor::simd::{
    available_backends, matmul_slices_with, matmul_sparse_slices_with, set_backend, SimdBackend,
};
use nrsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const SAMPLES: usize = 24;
const SEED: u64 = 2021;
/// Minimum wall-clock per measurement window of the SIMD comparison, so
/// fast backends still accumulate a stable measurement.
const SIMD_MIN_TIME_S: f64 = 0.25;
/// Measurement windows per timed (workload x backend) cell; the best
/// window wins (see [`best_rates`]).
const SIMD_REPEATS: usize = 3;

/// Best-of-[`SIMD_REPEATS`] throughput per backend, with the measurement
/// windows interleaved round-robin across backends.  Each window runs `f`
/// repeatedly (under the window's backend) until [`SIMD_MIN_TIME_S`] of
/// wall clock has accumulated, and the highest observed rate per backend
/// is kept.  On a shared host, interference can only ever slow a window
/// down — never speed it up — so the max over several short windows
/// estimates the achievable rate far more robustly than one long window,
/// which averages the interference in.  Interleaving matters for the same
/// reason: a multi-second slow patch that lands while one backend owns
/// the clock would silently bias every ratio against it, whereas
/// round-robin windows spread any drift across all backends.  The speedup
/// floors below gate on ratios of these estimates.
fn best_rates(
    isas: &[SimdBackend],
    per_round: usize,
    mut f: impl FnMut(),
) -> Vec<(SimdBackend, f64)> {
    let mut best = vec![0.0f64; isas.len()];
    for _ in 0..SIMD_REPEATS {
        for (slot, &isa) in best.iter_mut().zip(isas) {
            assert_eq!(set_backend(isa), isa, "requested backend must stick");
            let start = Instant::now();
            let mut rounds = 0usize;
            while start.elapsed().as_secs_f64() < SIMD_MIN_TIME_S {
                f();
                rounds += 1;
            }
            let rate = (rounds * per_round) as f64 / start.elapsed().as_secs_f64();
            *slot = slot.max(rate);
        }
    }
    isas.iter().copied().zip(best).collect()
}

struct Workload {
    network: SnnNetwork,
    coding: Box<dyn NeuralCoding>,
    cfg: CodingConfig,
    noise: DeletionNoise,
}

fn workload() -> Workload {
    let pipeline = cifar10_pipeline();
    let scaling = WeightScaling::for_deletion_probability(0.5).expect("ws");
    let kind = CodingKind::Ttas(5);
    Workload {
        network: pipeline.to_snn(&scaling).expect("convert"),
        coding: kind.build(),
        cfg: pipeline.coding_config(kind, bench_sweep_config().time_steps),
        noise: DeletionNoise::new(0.5).expect("noise"),
    }
}

/// The seed engine's inner loop: allocate-per-call simulation, one fresh
/// RNG per sample.
fn run_allocating(w: &Workload) -> (usize, usize) {
    let inputs = &cifar10_pipeline().dataset().test.inputs;
    let mut correct_spikes = (0usize, 0usize);
    for sample in 0..SAMPLES {
        let row = inputs.row(sample).expect("row");
        let mut rng = StdRng::seed_from_u64(derive_seed(SEED, sample as u64));
        let outcome = w
            .network
            .simulate_unbuffered(
                row.as_slice(),
                w.coding.as_ref(),
                &w.cfg,
                &w.noise,
                &mut rng,
            )
            .expect("simulate");
        correct_spikes.0 += outcome.predicted;
        correct_spikes.1 += outcome.total_spikes;
    }
    correct_spikes
}

/// The workspace engine's inner loop: one reusable workspace, zero
/// steady-state allocations per sample.
fn run_workspace(
    w: &Workload,
    ws: &mut SimWorkspace,
    out: &mut Vec<BatchOutcome>,
) -> (usize, usize) {
    let inputs = &cifar10_pipeline().dataset().test.inputs;
    w.network
        .simulate_batch(
            inputs,
            0..SAMPLES,
            w.coding.as_ref(),
            &w.cfg,
            &w.noise,
            |sample| StdRng::seed_from_u64(derive_seed(SEED, sample as u64)),
            ws,
            out,
        )
        .expect("simulate_batch");
    out.iter()
        .fold((0, 0), |(p, s), o| (p + o.predicted, s + o.total_spikes))
}

fn throughput_report(w: &Workload) {
    let mut ws = SimWorkspace::for_network(&w.network, &w.cfg);
    let mut out = Vec::new();

    // Equality gate before timing: both paths must agree exactly.
    let reference = run_allocating(w);
    let workspace = run_workspace(w, &mut ws, &mut out);
    assert_eq!(
        reference, workspace,
        "workspace path diverged from the allocating reference"
    );

    let time = |mut f: Box<dyn FnMut() -> (usize, usize)>| -> f64 {
        let rounds = 5;
        let start = Instant::now();
        for _ in 0..rounds {
            black_box(f());
        }
        (rounds * SAMPLES) as f64 / start.elapsed().as_secs_f64()
    };
    let alloc_rate = time(Box::new(|| run_allocating(w)));
    let ws_rate = time(Box::new(|| run_workspace(w, &mut ws, &mut out)));

    println!("\n==== Simulation throughput (fig7 workload: TTAS(5)+WS, deletion p=0.5) ====");
    println!("{:<24}{:>16}", "path", "samples/s");
    println!("{:<24}{:>16.1}", "allocating (reference)", alloc_rate);
    println!("{:<24}{:>16.1}", "workspace (batched)", ws_rate);
    println!("workspace speedup: {:.2}x\n", ws_rate / alloc_rate);

    // Machine-readable perf trajectory, tracked across PRs.
    record_bench_summary(
        "sim_throughput",
        &[
            ("allocating_samples_per_s", alloc_rate),
            ("workspace_samples_per_s", ws_rate),
            ("workspace_speedup", ws_rate / alloc_rate),
        ],
    );
}

/// Per-ISA throughput of the SIMD dispatch on the rate/phase dense-path
/// workload: the MNIST-like MLP (784->256->128->10, pure `matvec`) under
/// the clean condition (`p = 0`, so decode feeds the layers dense
/// activation vectors and the dense kernel branch runs every layer).
///
/// Two measurements per backend, both behind byte-equality gates:
///
/// 1. **End-to-end simulation** (encode + decode + kernels + everything):
///    the scalar backend is simulated first as the reference, and every
///    other backend must reproduce its logits byte-for-byte on all
///    samples before it is timed.  Gated to >= 1.5x AVX2-over-scalar for
///    both codings: with the coding layer lane-blocked (counts, bit
///    patterns and ratios computed 8 neurons per block, only the
///    variable-length train materialisation left scalar), the end-to-end
///    path no longer hides behind Amdahl's law.
/// 2. **Dense kernel pass** ([`SnnNetwork::analog_forward`], the exact
///    matvec sequence the engine runs per layer, on the converted
///    weights): gated to >= 1.5x AVX2-over-scalar — this is the part the
///    dispatch machinery exists for, and a floor here fails loudly if a
///    future refactor quietly routes the hot path back through portable
///    code.
/// 3. **Coding microbenches**: encode-only (`encode_raster_into`) and
///    decode-only (`decode_into`) rows per coding and per ISA on
///    the 784-wide input rows, equality-gated train-for-train and
///    bit-for-bit against the scalar backend.  These isolate the coding
///    layer's own speedup from the kernel-dominated end-to-end number.
fn simd_throughput_report() {
    let pipeline = mnist_pipeline();
    let time_steps = bench_sweep_config().time_steps;
    let scaling = WeightScaling::for_deletion_probability(0.0).expect("ws");
    let noise = DeletionNoise::new(0.0).expect("noise");
    let isas = available_backends();
    let previous = nrsnn_tensor::simd::active_backend();
    let network = pipeline.to_snn(&scaling).expect("convert");
    let inputs = &pipeline.dataset().test.inputs;

    let mut entries: Vec<(String, f64)> = Vec::new();
    // Floor violations are collected and raised only after the whole report
    // (including the coding microbenches) has printed, so a regression
    // always comes with the numbers needed to diagnose it.
    let mut floor_failures: Vec<String> = Vec::new();
    println!("\n==== SIMD backend throughput (MLP dense path, clean, per ISA) ====");
    println!(
        "{:<16}{:<10}{:>14}{:>12}",
        "workload", "backend", "samples/s", "speedup"
    );
    for kind in [CodingKind::Rate, CodingKind::Phase] {
        let coding = kind.build();
        let cfg = pipeline.coding_config(kind, time_steps);
        let mut ws = SimWorkspace::for_network(&network, &cfg);

        // Byte-equality gate: one logits digest per sample, per backend.
        let digest = |ws: &mut SimWorkspace| -> Vec<Vec<u32>> {
            let mut seen = Vec::new();
            network
                .simulate_batch_each(
                    inputs,
                    0..SAMPLES,
                    coding.as_ref(),
                    &cfg,
                    &noise,
                    |sample| StdRng::seed_from_u64(derive_seed(SEED, sample as u64)),
                    ws,
                    |_, _, ws| seen.push(ws.logits().iter().map(|v| v.to_bits()).collect()),
                )
                .expect("simd equality gate");
            seen
        };
        assert_eq!(set_backend(SimdBackend::Scalar), SimdBackend::Scalar);
        let reference = digest(&mut ws);

        for &isa in &isas {
            assert_eq!(set_backend(isa), isa, "requested backend must stick");
            assert_eq!(
                digest(&mut ws),
                reference,
                "{}: {} logits diverged from the scalar reference",
                kind.label(),
                isa.name()
            );
        }
        let mut out = Vec::new();
        let rates = best_rates(&isas, SAMPLES, || {
            network
                .simulate_batch(
                    inputs,
                    0..SAMPLES,
                    coding.as_ref(),
                    &cfg,
                    &noise,
                    |sample| StdRng::seed_from_u64(derive_seed(SEED, sample as u64)),
                    &mut ws,
                    &mut out,
                )
                .expect("simd timing run");
            black_box(&out);
        });

        let label = kind.label().to_lowercase();
        let scalar_rate = rates[0].1;
        for &(isa, rate) in &rates {
            let speedup = rate / scalar_rate;
            println!(
                "{:<16}{:<10}{:>14.1}{:>11.2}x",
                format!("{label} e2e"),
                isa.name(),
                rate,
                speedup
            );
            entries.push((format!("{label}_{}_samples_per_s", isa.name()), rate));
            if isa != SimdBackend::Scalar {
                entries.push((format!("{label}_{}_speedup_vs_scalar", isa.name()), speedup));
            }
            if isa == SimdBackend::Avx2 && speedup < 1.5 {
                floor_failures.push(format!(
                    "{label} e2e: AVX2 speedup {speedup:.2}x < 1.5x floor"
                ));
            }
        }
    }

    // Dense kernel pass: the per-layer matvec sequence both codings run,
    // timed in isolation on the same samples.
    let forward_digest = || -> Vec<Vec<u32>> {
        (0..SAMPLES)
            .map(|sample| {
                let row = inputs.row(sample).expect("row");
                network
                    .analog_forward(row.as_slice())
                    .expect("analog forward")
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect()
    };
    assert_eq!(set_backend(SimdBackend::Scalar), SimdBackend::Scalar);
    let forward_reference = forward_digest();
    for &isa in &isas {
        assert_eq!(set_backend(isa), isa, "requested backend must stick");
        assert_eq!(
            forward_digest(),
            forward_reference,
            "{} dense forward diverged from the scalar reference",
            isa.name()
        );
    }
    let kernel_rates = best_rates(&isas, SAMPLES, || {
        for sample in 0..SAMPLES {
            let row = inputs.row(sample).expect("row");
            black_box(network.analog_forward(row.as_slice()).expect("timing"));
        }
    });
    let kernel_scalar = kernel_rates[0].1;
    for &(isa, rate) in &kernel_rates {
        let speedup = rate / kernel_scalar;
        println!(
            "{:<16}{:<10}{:>14.1}{:>11.2}x",
            "dense forward",
            isa.name(),
            rate,
            speedup
        );
        entries.push((format!("dense_forward_{}_samples_per_s", isa.name()), rate));
        if isa != SimdBackend::Scalar {
            entries.push((
                format!("dense_forward_{}_speedup_vs_scalar", isa.name()),
                speedup,
            ));
        }
        if isa == SimdBackend::Avx2 && speedup < 1.5 {
            floor_failures.push(format!(
                "dense forward: AVX2 speedup {speedup:.2}x < 1.5x floor"
            ));
        }
    }

    // Tiled dense forward: the same layers over tiles of samples.
    tiled_forward_report(&network, inputs, &isas, &mut entries);

    // Coding-layer microbenches: block encode and decode in isolation.
    coding_micro_report(pipeline, time_steps, &isas, &mut entries);
    assert_eq!(set_backend(previous), previous);

    let borrowed: Vec<(&str, f64)> = entries.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    record_bench_summary("simd_throughput", &borrowed);
    assert!(
        floor_failures.is_empty(),
        "SIMD speedup floors violated:\n  {}",
        floor_failures.join("\n  ")
    );
}

/// Tile sizes of the tiled dense-forward rows: one sample (every
/// `simulate_with` call), half a tile, and the engine's full tile of 8.
const FORWARD_TILES: [usize; 3] = [1, 4, 8];

/// The dense forward the engine runs per tile: every layer's tiled mat-vec
/// ([`nrsnn_tensor::matvec_bias_tile_slices`]) over `tile` consecutive
/// samples at a time, with ReLU between layers.  Returns the logits of the
/// first [`SAMPLES`] rows of `inputs`, row-major, in `out`; `scratch`
/// holds the layer-to-layer matrices.
fn tiled_forward(
    network: &SnnNetwork,
    inputs: &Tensor,
    tile: usize,
    (scratch, layer_out): &mut (Vec<f32>, Vec<f32>),
    out: &mut Vec<f32>,
) {
    let width = network.input_width();
    out.clear();
    for first in (0..SAMPLES).step_by(tile) {
        let x = &inputs.as_slice()[first * width..(first + tile) * width];
        scratch.clear();
        scratch.extend_from_slice(x);
        for (index, layer) in network.layers().iter().enumerate() {
            let SnnLayer::Linear { weights, bias } = layer else {
                panic!("the tiled forward rows time an all-dense MLP");
            };
            let (m, n) = (weights.dims()[0], weights.dims()[1]);
            layer_out.clear();
            layer_out.resize(tile * m, 0.0);
            nrsnn_tensor::matvec_bias_tile_slices(
                weights.as_slice(),
                m,
                n,
                scratch,
                tile,
                bias.as_slice(),
                layer_out,
            );
            if index + 1 < network.num_layers() {
                for v in layer_out.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(scratch, layer_out);
        }
        out.extend_from_slice(scratch);
    }
}

/// Per-ISA dense-forward rows at tiles of 1, 4 and 8 samples, in µs per
/// sample, next to the weight bytes each sample streams: a tile reads each
/// weight once, so a tile of 8 moves an eighth of a one-sample forward's
/// weights per sample.  Every (ISA, tile) cell is gated byte-equal to the
/// per-sample [`SnnNetwork::analog_forward`] logits before it is timed.
/// This is the forward the engine's traced one-sample replay cannot show.
fn tiled_forward_report(
    network: &SnnNetwork,
    inputs: &Tensor,
    isas: &[SimdBackend],
    entries: &mut Vec<(String, f64)>,
) {
    let weight_bytes: usize = network
        .layers()
        .iter()
        .map(|layer| match layer {
            SnnLayer::Linear { weights, .. } => weights.len() * std::mem::size_of::<f32>(),
            _ => 0,
        })
        .sum();
    let (mut scratch, mut out) = ((Vec::new(), Vec::new()), Vec::new());
    // Equality gate: every tile on every ISA against per-sample logits.
    assert_eq!(set_backend(SimdBackend::Scalar), SimdBackend::Scalar);
    let reference: Vec<u32> = (0..SAMPLES)
        .flat_map(|sample| {
            let row = inputs.row(sample).expect("row");
            network
                .analog_forward(row.as_slice())
                .expect("analog forward")
        })
        .map(f32::to_bits)
        .collect();
    for &isa in isas {
        assert_eq!(set_backend(isa), isa, "requested backend must stick");
        for tile in FORWARD_TILES {
            tiled_forward(network, inputs, tile, &mut scratch, &mut out);
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got,
                reference,
                "{} tiled forward (tile {tile}) diverged from per-sample analog_forward",
                isa.name()
            );
        }
    }

    println!("\n==== Tiled dense forward (MLP, weights read once per tile) ====");
    println!(
        "{:<16}{:<10}{:>14}{:>16}{:>12}",
        "workload", "backend", "us/sample", "weight KiB/s.", "vs tile 1"
    );
    let mut per_tile = Vec::new();
    for tile in FORWARD_TILES {
        let rates = best_rates(isas, SAMPLES, || {
            tiled_forward(network, inputs, tile, &mut scratch, &mut out);
            black_box(&out);
        });
        per_tile.push(rates);
    }
    let kib = |tile: usize| weight_bytes as f64 / tile as f64 / 1024.0;
    for (tile, rates) in FORWARD_TILES.iter().zip(&per_tile) {
        entries.push((
            format!("dense_forward_tile{tile}_weight_kib_per_sample"),
            kib(*tile),
        ));
        for (k, &(isa, rate)) in rates.iter().enumerate() {
            let us = 1e6 / rate;
            let vs_one = rate / per_tile[0][k].1;
            println!(
                "{:<16}{:<10}{:>14.2}{:>16.1}{:>11.2}x",
                format!("dense fwd t{tile}"),
                isa.name(),
                us,
                kib(*tile),
                vs_one
            );
            entries.push((
                format!("dense_forward_tile{tile}_{}_us_per_sample", isa.name()),
                us,
            ));
            if *tile > 1 {
                entries.push((
                    format!("dense_forward_tile{tile}_{}_speedup_vs_tile1", isa.name()),
                    vs_one,
                ));
            }
        }
    }
}

/// Encode-only and decode-only rows per coding, per ISA, on the MLP's
/// 784-wide input rows: `encode_raster_into` (block encode into a reused
/// raster + scratch) and `decode_into` (block decode of the encoded
/// rasters).  Every ISA is equality-gated — trains and decoded bits must
/// match the scalar backend exactly — before it is timed.  Keys land in
/// the same `simd_throughput` summary section as the end-to-end rows.
fn coding_micro_report(
    pipeline: &TrainedPipeline,
    time_steps: u32,
    isas: &[SimdBackend],
    entries: &mut Vec<(String, f64)>,
) {
    let inputs = &pipeline.dataset().test.inputs;
    println!("\n==== Coding-layer microbenches (784-wide rows, per ISA) ====");
    println!(
        "{:<16}{:<10}{:>14}{:>12}",
        "workload", "backend", "rows/s", "speedup"
    );
    let kinds = [
        CodingKind::Rate,
        CodingKind::Phase,
        CodingKind::Burst,
        CodingKind::Ttfs,
        CodingKind::Ttas(5),
    ];
    for kind in kinds {
        let coding = kind.build();
        let cfg = pipeline.coding_config(kind, time_steps);
        let key = kind.label().to_lowercase().replace(['(', ')'], "");
        let rows: Vec<&[f32]> = (0..SAMPLES)
            .map(|s| inputs.row_slice(s).expect("row"))
            .collect();
        let mut scratch = CodingScratch::new();
        let mut raster = SpikeRaster::new(0, 1);
        let mut decoded = vec![0.0f32; inputs.dims()[1]];

        // Scalar reference: encoded rasters and their decoded bits.
        assert_eq!(set_backend(SimdBackend::Scalar), SimdBackend::Scalar);
        let reference: Vec<SpikeRaster> = rows
            .iter()
            .map(|row| {
                coding.encode_raster_into(row, &cfg, &mut raster, &mut scratch);
                raster.clone()
            })
            .collect();
        let reference_bits: Vec<Vec<u32>> = reference
            .iter()
            .map(|r| {
                coding.decode_into(r, &cfg, &mut decoded, &mut scratch);
                decoded.iter().map(|v| v.to_bits()).collect()
            })
            .collect();

        for &isa in isas {
            assert_eq!(set_backend(isa), isa, "requested backend must stick");
            // Equality gates before timing.
            for (row, expected) in rows.iter().zip(&reference) {
                coding.encode_raster_into(row, &cfg, &mut raster, &mut scratch);
                assert_eq!(
                    &raster,
                    expected,
                    "{}: {} block encode diverged from scalar",
                    kind.label(),
                    isa.name()
                );
            }
            for (r, expected) in reference.iter().zip(&reference_bits) {
                coding.decode_into(r, &cfg, &mut decoded, &mut scratch);
                let got: Vec<u32> = decoded.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    &got,
                    expected,
                    "{}: {} block decode diverged from scalar",
                    kind.label(),
                    isa.name()
                );
            }
        }
        let encode_rates = best_rates(isas, SAMPLES, || {
            for row in &rows {
                coding.encode_raster_into(row, &cfg, &mut raster, &mut scratch);
                black_box(&raster);
            }
        });
        let decode_rates = best_rates(isas, SAMPLES, || {
            for r in &reference {
                coding.decode_into(r, &cfg, &mut decoded, &mut scratch);
                black_box(&decoded);
            }
        });
        for (op, rates) in [("encode", &encode_rates), ("decode", &decode_rates)] {
            let scalar_rate = rates[0].1;
            for &(isa, rate) in rates {
                let speedup = rate / scalar_rate;
                println!(
                    "{:<16}{:<10}{:>14.1}{:>11.2}x",
                    format!("{key} {op}"),
                    isa.name(),
                    rate,
                    speedup
                );
                entries.push((format!("{op}_{key}_{}_rows_per_s", isa.name()), rate));
                if isa != SimdBackend::Scalar {
                    entries.push((
                        format!("{op}_{key}_{}_speedup_vs_scalar", isa.name()),
                        speedup,
                    ));
                }
            }
        }
    }
}

/// Mat-mul shapes `(m, k, n, bias-seeded)` of the kernel rows: the MLP's
/// per-batch training products (first-layer forward `x·Wᵀ`, first-layer
/// weight gradient `gradᵀ·x`, second- and third-layer forwards) and the
/// CNN's (both bias-seeded convolution forwards, the first convolution's
/// weight gradient).
const MATMUL_SHAPES: [(usize, usize, usize, bool); 7] = [
    (32, 784, 256, false),
    (256, 32, 784, false),
    (32, 256, 128, false),
    (32, 128, 10, false),
    (256, 27, 12, true),
    (64, 108, 24, true),
    (12, 256, 27, false),
];

/// The operation order the kernel must reproduce, written out plainly:
/// seed `+0.0` or `bias + 0.0`, then `kk` ascending, skipping `a == 0`,
/// `o = o + a·b`.
fn ikj_matmul(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, bias: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let row = &mut out[i * n..(i + 1) * n];
        for (j, o) in row.iter_mut().enumerate() {
            *o = bias.get(j).map_or(0.0, |&v| v + 0.0);
        }
        for kk in 0..k {
            let aik = a[i * k + kk];
            if aik != 0.0 {
                for (j, o) in row.iter_mut().enumerate() {
                    *o += aik * b[kk * n + j];
                }
            }
        }
    }
    out
}

/// Per-ISA µs per mat-mul call at [`MATMUL_SHAPES`], for a dense `a` and
/// for a ReLU-like `a` (about half its entries zero, as the activations
/// and gradients training multiplies are).  Each (shape, operand, ISA)
/// cell is gated bit for bit on [`ikj_matmul`] before it is timed.
fn matmul_kernel_report(isas: &[SimdBackend]) {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    };
    let mut entries: Vec<(String, f64)> = Vec::new();
    println!("\n==== Mat-mul kernel (training and convolution shapes, per ISA) ====");
    println!(
        "{:<20}{:<8}{:<10}{:>12}",
        "m x k x n", "a", "backend", "us/call"
    );
    for (m, k, n, seeded) in MATMUL_SHAPES {
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let bias: Vec<f32> = if seeded {
            (0..n).map(|_| next()).collect()
        } else {
            Vec::new()
        };
        for operand in ["dense", "relu"] {
            let a: Vec<f32> = (0..m * k)
                .map(|_| match operand {
                    "dense" => next(),
                    _ => next().max(0.0),
                })
                .collect();
            let reference: Vec<u32> = ikj_matmul(&a, m, k, &b, n, &bias)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let mut out = vec![0.0f32; m * n];
            let run = |isa: SimdBackend, out: &mut [f32]| {
                if seeded {
                    matmul_sparse_slices_with(isa, &a, m, k, &b, n, &bias, out);
                } else {
                    matmul_slices_with(isa, &a, m, k, &b, n, out);
                }
            };
            for &isa in isas {
                out.fill(f32::NAN);
                run(isa, &mut out);
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    got,
                    reference,
                    "{} mat-mul {m}x{k}x{n} ({operand}) diverged from the ikj loop",
                    isa.name()
                );
            }
            let rates = best_rates(isas, 1, || {
                run(nrsnn_tensor::simd::active_backend(), &mut out);
                black_box(&out);
            });
            for (isa, rate) in rates {
                let us = 1e6 / rate;
                let shape = format!("{m}x{k}x{n}");
                println!("{:<20}{:<8}{:<10}{:>12.2}", shape, operand, isa.name(), us);
                entries.push((format!("matmul_{shape}_{operand}_{}_us", isa.name()), us));
            }
        }
    }
    let borrowed: Vec<(&str, f64)> = entries.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    record_bench_summary("matmul_kernel", &borrowed);
}

/// The per-spike deletion rule the raster-wide pass must reproduce: one
/// `gen::<f64>()` per spike in neuron then spike order, keep on `>= p`.
fn per_spike_deletion(p: f64, raster: &SpikeRaster, rng: &mut dyn RngCore) -> SpikeRaster {
    let trains = raster
        .iter()
        .map(|(_, train)| {
            train
                .iter()
                .copied()
                .filter(|_| rng.gen::<f64>() >= p)
                .collect()
        })
        .collect();
    SpikeRaster::from_trains(trains, raster.num_steps())
}

/// Per-ISA ns per presented spike of `DeletionNoise::apply` at p = 0.5 and
/// 0.9, on the MLP's input rasters (its first [`SAMPLES`] test rows) under
/// rate and TTAS(5) coding.  Every (coding, p, ISA) cell is gated on
/// [`per_spike_deletion`] first: the same survivors and the same RNG end
/// state for every raster.  A timed pass restores each clean raster with
/// `clone_from` before corrupting it; that copy is timed on its own and
/// subtracted.
fn deletion_kernel_report(isas: &[SimdBackend]) {
    let pipeline = mnist_pipeline();
    let time_steps = bench_sweep_config().time_steps;
    let inputs = &pipeline.dataset().test.inputs;
    let mut entries: Vec<(String, f64)> = Vec::new();
    println!("\n==== Deletion kernel (MLP input rasters, per ISA) ====");
    println!(
        "{:<12}{:<8}{:<10}{:>12}",
        "coding", "p", "backend", "ns/spike"
    );
    for kind in [CodingKind::Rate, CodingKind::Ttas(5)] {
        let coding = kind.build();
        let cfg = pipeline.coding_config(kind, time_steps);
        let key = kind.label().to_lowercase().replace(['(', ')'], "");
        let mut scratch = CodingScratch::new();
        let rasters: Vec<SpikeRaster> = (0..SAMPLES)
            .map(|s| {
                let mut raster = SpikeRaster::default();
                let row = inputs.row_slice(s).expect("row");
                coding.encode_raster_into(row, &cfg, &mut raster, &mut scratch);
                raster
            })
            .collect();
        let spikes: usize = rasters.iter().map(SpikeRaster::total_spikes).sum();
        let mut work = SpikeRaster::default();
        let copy = best_rates(isas, spikes, || {
            for raster in &rasters {
                work.clone_from(raster);
                black_box(&work);
            }
        });
        for p in [0.5, 0.9] {
            let noise = DeletionNoise::new(p).expect("noise");
            for &isa in isas {
                assert_eq!(set_backend(isa), isa, "requested backend must stick");
                for (s, raster) in rasters.iter().enumerate() {
                    let seed = derive_seed(SEED, s as u64);
                    let mut oracle_rng = StdRng::seed_from_u64(seed);
                    let expected = per_spike_deletion(p, raster, &mut oracle_rng);
                    let mut rng = StdRng::seed_from_u64(seed);
                    work.clone_from(raster);
                    noise.apply(&mut work, &mut rng);
                    assert_eq!(work, expected, "{key} p={p} {}: survivors", isa.name());
                    assert_eq!(rng, oracle_rng, "{key} p={p} {}: RNG end state", isa.name());
                }
            }
            let mut rng = StdRng::seed_from_u64(SEED);
            let rates = best_rates(isas, spikes, || {
                for raster in &rasters {
                    work.clone_from(raster);
                    noise.apply(&mut work, &mut rng);
                }
                black_box(&work);
            });
            for ((isa, rate), &(_, copy_rate)) in rates.into_iter().zip(&copy) {
                let ns = 1e9 / rate - 1e9 / copy_rate;
                println!("{:<12}{:<8}{:<10}{:>12.3}", key, p, isa.name(), ns);
                let level = (p * 10.0).round() as u32;
                entries.push((format!("{key}_p0{level}_{}_ns_per_spike", isa.name()), ns));
            }
        }
        entries.push((
            format!("{key}_spikes_per_raster"),
            (spikes / SAMPLES) as f64,
        ));
    }
    let borrowed: Vec<(&str, f64)> = entries.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    record_bench_summary("deletion_kernel", &borrowed);
}

fn bench(c: &mut Criterion) {
    let w = workload();
    throughput_report(&w);
    let previous = nrsnn_tensor::simd::active_backend();
    matmul_kernel_report(&available_backends());
    deletion_kernel_report(&available_backends());
    assert_eq!(set_backend(previous), previous);
    simd_throughput_report();

    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    group.bench_function("allocating_24_samples", |b| {
        b.iter(|| black_box(run_allocating(&w)))
    });
    group.bench_function("workspace_24_samples", |b| {
        let mut ws = SimWorkspace::for_network(&w.network, &w.cfg);
        let mut out = Vec::new();
        b.iter(|| black_box(run_workspace(&w, &mut ws, &mut out)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
