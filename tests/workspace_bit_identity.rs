//! Bit-identity contract of the allocation-free simulation engine.
//!
//! The workspace path (`simulate_with` / `simulate_batch` and the chunked
//! sweep engine built on them) must produce **byte-for-byte** the same
//! results as the seed per-sample path, which is preserved verbatim as
//! [`SnnNetwork::simulate_unbuffered`].  These tests pin that contract at
//! three levels: single inference, batched inference with workspace reuse,
//! and full sweep grids (`SweepPoint`s) at 1 and 4 worker threads.

use nrsnn::prelude::*;
use nrsnn_data::DatasetSpec;
use nrsnn_runtime::{derive_seed, parallel_map, ParallelConfig};
use nrsnn_snn::{SimulationOutcome, SnnLayer};
use nrsnn_tensor::{Conv2dGeometry, Pool2dGeometry, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_pipeline() -> TrainedPipeline {
    let config = PipelineConfig {
        dataset: DatasetSpec::mnist_like().with_samples(90, 36),
        model: ModelKind::Mlp,
        dropout: 0.1,
        epochs: 6,
        batch_size: 18,
        learning_rate: 2e-3,
        percentile: 99.9,
        seed: 13,
    };
    TrainedPipeline::build(&config).expect("pipeline must build")
}

fn tiny_sweep() -> SweepConfig {
    SweepConfig {
        time_steps: 48,
        eval_samples: 20,
        seed: 77,
    }
}

fn all_codings() -> Vec<CodingKind> {
    vec![
        CodingKind::Rate,
        CodingKind::Phase,
        CodingKind::Burst,
        CodingKind::Ttfs,
        CodingKind::Ttas(5),
    ]
}

fn noise_models() -> Vec<(&'static str, Box<dyn SpikeTransform>)> {
    vec![
        ("identity", Box::new(IdentityTransform)),
        ("deletion0", Box::new(DeletionNoise::new(0.0).unwrap())),
        ("deletion", Box::new(DeletionNoise::new(0.35).unwrap())),
        ("jitter", Box::new(JitterNoise::new(1.5).unwrap())),
        (
            "composite",
            Box::new(
                CompositeNoise::new()
                    .then(DeletionNoise::new(0.2).unwrap())
                    .then(JitterNoise::new(1.0).unwrap()),
            ),
        ),
    ]
}

fn assert_outcomes_byte_identical(a: &SimulationOutcome, b: &SimulationOutcome, context: &str) {
    assert_eq!(a.predicted, b.predicted, "{context}: predicted");
    assert_eq!(a.total_spikes, b.total_spikes, "{context}: total spikes");
    assert_eq!(
        a.spikes_per_layer, b.spikes_per_layer,
        "{context}: spikes per layer"
    );
    let a_bits: Vec<u32> = a.logits.iter().map(|v| v.to_bits()).collect();
    let b_bits: Vec<u32> = b.logits.iter().map(|v| v.to_bits()).collect();
    assert_eq!(a_bits, b_bits, "{context}: logit bits");
}

/// Property-style sweep: for every (coding × noise × sample), the workspace
/// wrapper `simulate` must reproduce the reference `simulate_unbuffered`
/// byte for byte, including the RNG stream it leaves behind.
#[test]
fn simulate_matches_unbuffered_reference_bitwise() {
    let pipeline = tiny_pipeline();
    let network = pipeline.to_snn(&WeightScaling::none()).unwrap();
    let cfg = CodingConfig::new(48, 1.0);
    let inputs = &pipeline.dataset().test.inputs;

    for kind in all_codings() {
        let coding = kind.build();
        for (noise_name, noise) in noise_models() {
            for sample in 0..6 {
                let row = inputs.row(sample).unwrap();
                let seed = derive_seed(999, sample as u64);
                let mut rng_ref = StdRng::seed_from_u64(seed);
                let mut rng_ws = StdRng::seed_from_u64(seed);
                let reference = network
                    .simulate_unbuffered(
                        row.as_slice(),
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        &mut rng_ref,
                    )
                    .unwrap();
                let outcome = network
                    .simulate(
                        row.as_slice(),
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        &mut rng_ws,
                    )
                    .unwrap();
                let context = format!("{} under {noise_name} sample {sample}", kind.label());
                assert_outcomes_byte_identical(&reference, &outcome, &context);
                assert_eq!(rng_ref, rng_ws, "{context}: RNG stream diverged");
            }
        }
    }
}

/// A deterministic Conv → AvgPool → Linear network: exercises the
/// convolution (`im2col` + transpose + matmul scratch) and pooling arms of
/// `forward_analog_into`, which the MLP pipelines never touch.
fn conv_network() -> SnnNetwork {
    let fill = |rows: usize, cols: usize, scale: f32| -> Tensor {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 31 + 7) % 19) as f32 / 19.0 * scale - scale / 4.0)
            .collect();
        Tensor::from_vec(data, &[rows, cols]).unwrap()
    };
    // 1x6x6 input -> conv(2ch, k3, s1, p1) -> 2x6x6 -> avgpool(2x2) ->
    // 2x3x3 -> linear -> 4 logits.
    let conv_geom = Conv2dGeometry::new(1, 6, 6, 3, 1, 1).unwrap();
    let pool_geom = Pool2dGeometry::new(2, 6, 6, 2, 2).unwrap();
    SnnNetwork::new(vec![
        SnnLayer::Conv {
            weights: fill(2, conv_geom.patch_len(), 0.5),
            bias: Tensor::from_slice(&[0.05, -0.02]),
            geometry: conv_geom,
        },
        SnnLayer::AvgPool {
            geometry: pool_geom,
        },
        SnnLayer::Linear {
            weights: fill(4, pool_geom.out_len(), 0.7),
            bias: Tensor::zeros(&[4]),
        },
    ])
    .unwrap()
}

/// The convolution and pooling arms of the workspace path must match the
/// allocating reference byte for byte, one-shot and batched, across every
/// coding and noise model.
#[test]
fn conv_and_pool_layers_match_unbuffered_reference_bitwise() {
    let network = conv_network();
    let cfg = CodingConfig::new(40, 1.0);
    let samples = 5usize;
    let inputs = Tensor::from_vec(
        (0..samples * 36)
            .map(|i| ((i * 17 + 3) % 23) as f32 / 23.0)
            .collect(),
        &[samples, 36],
    )
    .unwrap();

    let mut ws = SimWorkspace::new();
    let mut outcomes: Vec<BatchOutcome> = Vec::new();
    for kind in all_codings() {
        let coding = kind.build();
        for (noise_name, noise) in noise_models() {
            // One-shot wrapper vs reference, byte for byte.
            for sample in 0..samples {
                let row = inputs.row(sample).unwrap();
                let seed = derive_seed(31, sample as u64);
                let mut rng_ref = StdRng::seed_from_u64(seed);
                let mut rng_ws = StdRng::seed_from_u64(seed);
                let reference = network
                    .simulate_unbuffered(
                        row.as_slice(),
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        &mut rng_ref,
                    )
                    .unwrap();
                let outcome = network
                    .simulate(
                        row.as_slice(),
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        &mut rng_ws,
                    )
                    .unwrap();
                let context = format!("conv {} under {noise_name} sample {sample}", kind.label());
                assert_outcomes_byte_identical(&reference, &outcome, &context);
                assert_eq!(rng_ref, rng_ws, "{context}: RNG stream diverged");
            }
            // Batched path with a workspace reused across everything.
            network
                .simulate_batch(
                    &inputs,
                    0..samples,
                    coding.as_ref(),
                    &cfg,
                    noise.as_ref(),
                    |sample| StdRng::seed_from_u64(derive_seed(31, sample as u64)),
                    &mut ws,
                    &mut outcomes,
                )
                .unwrap();
            for (sample, outcome) in outcomes.iter().enumerate() {
                let row = inputs.row(sample).unwrap();
                let mut rng = StdRng::seed_from_u64(derive_seed(31, sample as u64));
                let reference = network
                    .simulate_unbuffered(
                        row.as_slice(),
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        &mut rng,
                    )
                    .unwrap();
                assert_eq!(
                    (outcome.predicted, outcome.total_spikes),
                    (reference.predicted, reference.total_spikes),
                    "conv batch: {} under {noise_name} sample {sample}",
                    kind.label()
                );
            }
        }
    }
}

/// One workspace reused across a whole batch — and across codings and noise
/// models — must equal the reference path sample by sample.
#[test]
fn simulate_batch_with_reused_workspace_matches_reference() {
    let pipeline = tiny_pipeline();
    let network = pipeline.to_snn(&WeightScaling::none()).unwrap();
    let cfg = CodingConfig::new(48, 1.0);
    let inputs = &pipeline.dataset().test.inputs;
    let samples = 12usize;
    let base_seed = 4242u64;

    // Deliberately one workspace and one outcome buffer for everything.
    let mut ws = SimWorkspace::new();
    let mut outcomes: Vec<BatchOutcome> = Vec::new();

    for kind in all_codings() {
        let coding = kind.build();
        for (noise_name, noise) in noise_models() {
            network
                .simulate_batch(
                    inputs,
                    0..samples,
                    coding.as_ref(),
                    &cfg,
                    noise.as_ref(),
                    |sample| StdRng::seed_from_u64(derive_seed(base_seed, sample as u64)),
                    &mut ws,
                    &mut outcomes,
                )
                .unwrap();
            assert_eq!(outcomes.len(), samples);
            for (sample, outcome) in outcomes.iter().enumerate() {
                let row = inputs.row(sample).unwrap();
                let mut rng = StdRng::seed_from_u64(derive_seed(base_seed, sample as u64));
                let reference = network
                    .simulate_unbuffered(
                        row.as_slice(),
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        &mut rng,
                    )
                    .unwrap();
                assert_eq!(
                    outcome.predicted,
                    reference.predicted,
                    "{} under {noise_name} sample {sample}",
                    kind.label()
                );
                assert_eq!(
                    outcome.total_spikes,
                    reference.total_spikes,
                    "{} under {noise_name} sample {sample}",
                    kind.label()
                );
            }
        }
    }
}

/// A deterministic hand-built MLP for the batch and ISA matrices: small
/// enough that the full `(coding × noise × batch) × thread-count` grid runs
/// in seconds, with signed weights, a signed-zero bias entry and inputs
/// containing exact zeros, so silent neurons and the `-0.0` bias seed ride
/// through every combination.
fn matrix_network() -> SnnNetwork {
    let fill = |rows: usize, cols: usize, scale: f32| -> Tensor {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 37 + 11) % 23) as f32 / 23.0 * scale - scale / 3.0)
            .collect();
        Tensor::from_vec(data, &[rows, cols]).unwrap()
    };
    let mut bias0 = vec![0.01f32; 18];
    bias0[3] = -0.0; // the signed-zero corner rides through every combo
    SnnNetwork::new(vec![
        SnnLayer::Linear {
            weights: fill(18, 24, 0.6),
            bias: Tensor::from_vec(bias0, &[18]).unwrap(),
        },
        SnnLayer::Linear {
            weights: fill(6, 18, 0.8),
            bias: Tensor::zeros(&[6]),
        },
    ])
    .unwrap()
}

fn matrix_inputs(samples: usize, width: usize) -> Tensor {
    let data: Vec<f32> = (0..samples * width)
        .map(|i| match i % 5 {
            0 => 0.0, // exact zeros: silent input neurons
            r => ((i * 13 + 5) % 29) as f32 / 29.0 * (r as f32 / 4.0),
        })
        .collect();
    Tensor::from_vec(data, &[samples, width]).unwrap()
}

/// Batch-vs-reference matrix: 5 codings × {deletion, jitter, composite} ×
/// batch sizes 1..=16.  Every sample of every batch, simulated through one
/// `simulate_batch_each` call on a shared workspace, must equal
/// `simulate_unbuffered` byte for byte: its outcome, its logit bits and the
/// state of the RNG it leaves behind.  The whole matrix then re-runs fanned
/// over 1 and 4 worker threads and the two runs' digests must agree bit for
/// bit.
#[test]
fn batched_engine_matches_unbuffered_reference_across_the_matrix() {
    let network = matrix_network();
    let inputs = matrix_inputs(16, 24);
    let cfg = CodingConfig::new(48, 1.0);
    let noise_names = ["deletion", "jitter", "composite"];
    let build_noise = |name: &str| -> Box<dyn SpikeTransform> {
        match name {
            "deletion" => Box::new(DeletionNoise::new(0.5).unwrap()),
            "jitter" => Box::new(JitterNoise::new(1.5).unwrap()),
            "composite" => Box::new(
                CompositeNoise::new()
                    .then(DeletionNoise::new(0.3).unwrap())
                    .then(JitterNoise::new(1.0).unwrap()),
            ),
            other => panic!("unknown noise {other}"),
        }
    };
    let combos: Vec<(CodingKind, &str)> = all_codings()
        .into_iter()
        .flat_map(|kind| noise_names.iter().map(move |&n| (kind, n)))
        .collect();

    // One combo = one pool task; returns the digest of every logit bit the
    // combo produced for the cross-thread check.
    let run_combo = |&(kind, noise_name): &(CodingKind, &str)| -> Vec<u32> {
        let coding = kind.build();
        let noise = build_noise(noise_name);
        let mut ws = SimWorkspace::new();
        let mut digest = Vec::new();
        for batch in 1..=16usize {
            let seed = derive_seed(4096, batch as u64);
            let seeded = |sample: usize| StdRng::seed_from_u64(derive_seed(seed, sample as u64));
            // One RNG per sample, lent to the batch by reference so the
            // state each sample leaves behind stays inspectable.
            let mut rngs: Vec<StdRng> = (0..batch).map(seeded).collect();
            let mut lent = rngs.iter_mut();
            let mut seen = Vec::new();
            network
                .simulate_batch_each(
                    &inputs,
                    0..batch,
                    coding.as_ref(),
                    &cfg,
                    noise.as_ref(),
                    |_| lent.next().expect("one RNG per sample"),
                    &mut ws,
                    |_, outcome, ws| {
                        seen.push((
                            outcome,
                            ws.logits().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        ));
                    },
                )
                .unwrap_or_else(|e| panic!("{} {noise_name} batch {batch}: {e}", kind.label()));
            assert_eq!(seen.len(), batch);
            for (sample, ((outcome, bits), rng)) in seen.iter().zip(&rngs).enumerate() {
                let context = format!(
                    "{} under {noise_name}, batch {batch}, sample {sample}",
                    kind.label()
                );
                let mut rng_ref = seeded(sample);
                let reference = network
                    .simulate_unbuffered(
                        inputs.row_slice(sample).unwrap(),
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        &mut rng_ref,
                    )
                    .unwrap();
                assert_eq!(
                    (outcome.predicted, outcome.total_spikes),
                    (reference.predicted, reference.total_spikes),
                    "{context}: outcome"
                );
                let reference_bits: Vec<u32> =
                    reference.logits.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, &reference_bits, "{context}: logit bits");
                assert_eq!(rng, &rng_ref, "{context}: RNG stream diverged");
                digest.extend_from_slice(bits);
            }
        }
        digest
    };

    let serial = parallel_map(&ParallelConfig::with_threads(1), &combos, |_, combo| {
        run_combo(combo)
    });
    let threaded = parallel_map(&ParallelConfig::with_threads(4), &combos, |_, combo| {
        run_combo(combo)
    });
    assert_eq!(
        serial, threaded,
        "matrix digests differ across thread counts"
    );
    assert!(serial.iter().all(|digest| !digest.is_empty()));
}

/// Scalar-vs-SIMD matrix: 5 codings × {deletion, jitter, composite} ×
/// batch sizes 1..=16 × every ISA the host CPU supports.  The per-ISA
/// digests — outcomes and logit bits, a few draws from the
/// post-simulation RNG (so stream divergence is caught), and a conv → pool
/// → linear probe (so the `im2col`/pooling arms ride through the same
/// matrix) — must be identical to the scalar backend's digest.  Together
/// with the lane-blocked coding layer this covers the *entire* noisy
/// pipeline per ISA: block encode → noise → block decode → dense forward.
/// This is the end-to-end half of
/// the SIMD bit-identity contract; the kernel-level half lives in
/// `crates/tensor/tests/simd_kernel_proptest.rs` and the coding-layer half
/// in `crates/snn/tests/coding_simd_proptest.rs`.
#[test]
fn scalar_and_simd_backends_are_byte_identical_across_the_matrix() {
    use nrsnn_tensor::simd::{available_backends, set_backend, SimdBackend};
    use rand::Rng;

    let base = matrix_network();
    let inputs = matrix_inputs(16, 24);
    let conv_net = conv_network();
    let conv_inputs = matrix_inputs(2, 36);
    let conv_cfg = CodingConfig::new(40, 1.0);
    let cfg = CodingConfig::new(48, 1.0);
    let noise_names = ["deletion", "jitter", "composite"];
    let build_noise = |name: &str| -> Box<dyn SpikeTransform> {
        match name {
            "deletion" => Box::new(DeletionNoise::new(0.5).unwrap()),
            "jitter" => Box::new(JitterNoise::new(1.5).unwrap()),
            "composite" => Box::new(
                CompositeNoise::new()
                    .then(DeletionNoise::new(0.3).unwrap())
                    .then(JitterNoise::new(1.0).unwrap()),
            ),
            other => panic!("unknown noise {other}"),
        }
    };
    let combos: Vec<(CodingKind, &str)> = all_codings()
        .into_iter()
        .flat_map(|kind| noise_names.iter().map(move |&n| (kind, n)))
        .collect();

    // Runs the whole (coding × noise × batch) grid on the current backend;
    // returns one digest per combo of every outcome and logit bit plus the
    // RNG-stream and conv probes.
    let digest_all = |isa: SimdBackend| -> Vec<Vec<u32>> {
        combos
            .iter()
            .map(|&(kind, noise_name)| {
                let coding = kind.build();
                let noise = build_noise(noise_name);
                let mut digest = Vec::new();
                for batch in 1..=16usize {
                    let seed = derive_seed(8192, batch as u64);
                    let mut ws = SimWorkspace::new();
                    base.simulate_batch_each(
                        &inputs,
                        0..batch,
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        |sample| StdRng::seed_from_u64(derive_seed(seed, sample as u64)),
                        &mut ws,
                        |_, outcome, ws| {
                            digest.push(outcome.predicted as u32);
                            digest.push(outcome.total_spikes as u32);
                            digest.extend(ws.logits().iter().map(|v| v.to_bits()));
                        },
                    )
                    .unwrap_or_else(|e| {
                        panic!("{isa:?} {} {noise_name} batch {batch}: {e}", kind.label())
                    });
                }
                // RNG-stream probe: simulate one sample, then append a few
                // draws — if any backend consumed a different number of
                // random values, the cross-ISA digest comparison fails here.
                let row = inputs.row_slice(0).unwrap();
                let mut ws = SimWorkspace::new();
                let mut rng = StdRng::seed_from_u64(derive_seed(99, 1));
                base.simulate_with(
                    row,
                    coding.as_ref(),
                    &cfg,
                    noise.as_ref(),
                    &mut rng,
                    &mut ws,
                )
                .unwrap();
                digest.extend((0..4).map(|_| rng.gen::<u32>()));
                // Conv/pool probe: the `im2col` + kernel-transpose + matmul
                // and pooling arms under the same coding, noise and ISA.
                let mut conv_ws = SimWorkspace::new();
                for sample in 0..2 {
                    let row = conv_inputs.row_slice(sample).unwrap();
                    let mut rng = StdRng::seed_from_u64(derive_seed(123, sample as u64));
                    let outcome = conv_net
                        .simulate_with(
                            row,
                            coding.as_ref(),
                            &conv_cfg,
                            noise.as_ref(),
                            &mut rng,
                            &mut conv_ws,
                        )
                        .unwrap();
                    digest.push(outcome.total_spikes as u32);
                    digest.extend(conv_ws.logits().iter().map(|v| v.to_bits()));
                }
                digest
            })
            .collect()
    };

    let isas = available_backends();
    assert!(isas.contains(&SimdBackend::Scalar));
    let previous = set_backend(SimdBackend::Scalar);
    let reference = digest_all(SimdBackend::Scalar);
    assert!(reference.iter().all(|digest| !digest.is_empty()));
    for &isa in isas.iter().filter(|&&b| b != SimdBackend::Scalar) {
        assert_eq!(set_backend(isa), isa, "requested ISA must run unresolved");
        let digest = digest_all(isa);
        for ((combo_digest, scalar_digest), &(kind, noise_name)) in
            digest.iter().zip(&reference).zip(&combos)
        {
            assert_eq!(
                combo_digest,
                scalar_digest,
                "{isa:?} digest diverged from scalar for {} under {noise_name}",
                kind.label()
            );
        }
    }
    set_backend(previous);
}

/// Rebuilds a deletion sweep with a hand-rolled per-sample loop over the
/// allocating reference simulator — exactly the seed engine's algorithm —
/// and requires the production sweep to match it byte for byte at 1 and 4
/// worker threads and for sample-level batching.
#[test]
fn sweep_points_match_seed_per_sample_reference_at_1_and_4_threads() {
    let pipeline = tiny_pipeline();
    let sweep = tiny_sweep();
    let codings = [CodingKind::Rate, CodingKind::Ttfs, CodingKind::Ttas(3)];
    let levels = [0.0, 0.3, 0.6];

    // --- reference: the seed per-sample path ---------------------------
    let subset = pipeline.test_subset(sweep.eval_samples).unwrap();
    let samples = subset.labels.len();
    let mut reference: Vec<SweepPoint> = Vec::new();
    for &coding_kind in &codings {
        for &p in &levels {
            let scaling = if p > 0.0 && p < 1.0 {
                WeightScaling::for_deletion_probability(p).unwrap()
            } else {
                WeightScaling::none()
            };
            let network = pipeline.to_snn(&scaling).unwrap();
            let coding = coding_kind.build();
            let cfg = pipeline.coding_config(coding_kind, sweep.time_steps);
            let noise: Box<dyn SpikeTransform> = if p <= 0.0 {
                Box::new(IdentityTransform)
            } else {
                Box::new(DeletionNoise::new(p).unwrap())
            };
            let mut correct = 0usize;
            let mut total_spikes = 0usize;
            for sample in 0..samples {
                let row = subset.inputs.row(sample).unwrap();
                let mut rng = StdRng::seed_from_u64(derive_seed(sweep.seed, sample as u64));
                let outcome = network
                    .simulate_unbuffered(
                        row.as_slice(),
                        coding.as_ref(),
                        &cfg,
                        noise.as_ref(),
                        &mut rng,
                    )
                    .unwrap();
                if outcome.predicted == subset.labels[sample] {
                    correct += 1;
                }
                total_spikes += outcome.total_spikes;
            }
            let denom = samples.max(1) as f32;
            reference.push(SweepPoint {
                coding: coding_kind,
                weight_scaled: true,
                noise_level: p,
                accuracy_percent: (correct as f32 / denom) * 100.0,
                mean_spikes: total_spikes as f32 / denom,
            });
        }
    }
    // Canonical result order: (noise level, coding, weight scaling).
    reference.sort_by(|a, b| {
        a.noise_level
            .partial_cmp(&b.noise_level)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.coding.order_index().cmp(&b.coding.order_index()))
            .then_with(|| a.weight_scaled.cmp(&b.weight_scaled))
    });

    // --- production engine at several scheduling configurations --------
    let run = |parallel: ParallelConfig| {
        DeletionSweep::new(&codings, &levels)
            .weight_scaling(true)
            .config(sweep)
            .parallel(parallel)
            .run(&pipeline)
            .unwrap()
    };
    for (label, parallel) in [
        ("1 thread", ParallelConfig::with_threads(1)),
        ("4 threads", ParallelConfig::with_threads(4)),
        (
            "4 threads, sample-sized chunks",
            ParallelConfig::with_threads(4).with_batch_size(1),
        ),
    ] {
        let points = run(parallel);
        assert_eq!(points.len(), reference.len(), "{label}: point count");
        for (point, expected) in points.iter().zip(&reference) {
            assert_eq!(point.coding, expected.coding, "{label}");
            assert_eq!(point.weight_scaled, expected.weight_scaled, "{label}");
            assert_eq!(
                point.noise_level.to_bits(),
                expected.noise_level.to_bits(),
                "{label}"
            );
            assert_eq!(
                point.accuracy_percent.to_bits(),
                expected.accuracy_percent.to_bits(),
                "{label}: accuracy bits for {} @ {}",
                expected.coding.label(),
                expected.noise_level
            );
            assert_eq!(
                point.mean_spikes.to_bits(),
                expected.mean_spikes.to_bits(),
                "{label}: spike bits for {} @ {}",
                expected.coding.label(),
                expected.noise_level
            );
        }
    }
}
