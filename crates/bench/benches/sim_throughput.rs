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
//! the coding layer in isolation: per-coding, per-ISA encode-only and
//! decode-only rows, equality-gated train-for-train before timing.
//!
//! ```text
//! cargo bench -p nrsnn-bench --bench sim_throughput
//! ```

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nrsnn::prelude::*;
use nrsnn_bench::{bench_sweep_config, cifar10_pipeline, mnist_pipeline, record_bench_summary};
use nrsnn_runtime::derive_seed;
use nrsnn_snn::{CodingScratch, SpikeRaster};
use nrsnn_tensor::simd::{available_backends, set_backend, SimdBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
        let mut decoded = Vec::new();
        let mut dscratch = Vec::new();

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
                coding.decode_into(r, &cfg, &mut decoded, &mut dscratch);
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
                coding.decode_into(r, &cfg, &mut decoded, &mut dscratch);
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
                coding.decode_into(r, &cfg, &mut decoded, &mut dscratch);
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

fn bench(c: &mut Criterion) {
    let w = workload();
    throughput_report(&w);
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
