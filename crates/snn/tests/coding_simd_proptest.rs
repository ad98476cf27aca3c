//! Property tests proving the lane-blocked coding paths bit-identical to the
//! per-value scalar reference, on every SIMD backend the host supports.
//!
//! The block encoders ([`NeuralCoding::encode_raster_into`]) compute spike
//! counts, phase bit patterns and first-spike ratios 8 neurons at a time;
//! these tests pin them train-for-train against the per-value
//! [`NeuralCoding::encode`] over adversarial widths (0, 1, lane−1, lane, lane+1,
//! non-multiples of 8) and adversarial activations (signed zeros,
//! subnormals, NaN, infinities, exact `0.0`/`1.0`, values a few ULP around
//! the clipping threshold).  The decode half pins block `decode_into`
//! against per-train `decode`, including the empty-train `+0.0` contract,
//! per coding and per ISA.  This file is the
//! coding-layer sibling of `crates/tensor/tests/simd_kernel_proptest.rs`
//! (kernel level) and `tests/workspace_bit_identity.rs` (whole pipelines).

use std::sync::Mutex;

use nrsnn_snn::{
    BurstCoding, CodingConfig, CodingScratch, NeuralCoding, PhaseCoding, RateCoding, SpikeRaster,
    TtasCoding, TtfsCoding,
};
use nrsnn_tensor::simd::{available_backends, set_backend, SimdBackend};
use proptest::{rng_for, TestRng, CASES};
use rand::Rng;

/// The active SIMD backend is process-global; tests that switch it hold
/// this lock so a failure in one test is attributable to the backend that
/// test selected (passing runs are unaffected either way — all backends
/// are bit-identical by contract).
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn backend_guard() -> std::sync::MutexGuard<'static, ()> {
    BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Width pool straddling the 8-lane block width.
const WIDTHS: &[usize] = &[0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 31, 33];

/// Window pool: tiny windows (spikes clipped away), the canonical phase
/// period and neighbours, and windows with a partial trailing period.
const TIME_STEPS: &[u32] = &[1, 3, 7, 8, 9, 16, 30, 48, 64, 100, 128];

/// Clipping thresholds, including a sub-unit and an above-unit one.
const THRESHOLDS: &[f32] = &[1.0, 0.4, 1.2];

/// Every coding under test, including structural-parameter variants (the
/// phase period changes the bit-pattern width, the burst cap changes the
/// count quantisation, TTAS(1) degenerates to TTFS).
fn codings() -> Vec<Box<dyn NeuralCoding>> {
    vec![
        Box::new(RateCoding::new()),
        Box::new(PhaseCoding::new()),
        Box::new(PhaseCoding::with_period(4).unwrap()),
        Box::new(BurstCoding::new()),
        Box::new(BurstCoding::with_max_spikes(4).unwrap()),
        Box::new(TtfsCoding::new()),
        Box::new(TtasCoding::new(1).unwrap()),
        Box::new(TtasCoding::new(5).unwrap()),
    ]
}

/// Draws an adversarial activation: IEEE corner cases, values a few ULP
/// around the clipping threshold (where the quantisers round), exact
/// `0.0`/`1.0`, and ordinary magnitudes spanning the clamp range.
fn draw_activation(rng: &mut TestRng, threshold: f32) -> f32 {
    const SPECIAL: &[f32] = &[
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -2.5,
        f32::MIN_POSITIVE, // smallest normal
        1.0e-41,           // subnormal
        -1.0e-41,          // negative subnormal
        1.0e-20,
        1.0e-6,
        2.5,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    match rng.gen_range(0u32..4) {
        0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
        // A few ULP either side of the threshold: exercises the clamp and
        // every rounding boundary of the count quantisers.
        1 => {
            let steps = rng.gen_range(-3i32..=3);
            let mut v = threshold;
            for _ in 0..steps.abs() {
                v = if steps > 0 {
                    f32::from_bits(v.to_bits() + 1)
                } else {
                    f32::from_bits(v.to_bits() - 1)
                };
            }
            v
        }
        _ => rng.gen_range(-0.5f32..1.5) * threshold,
    }
}

fn draw_values(rng: &mut TestRng, len: usize, threshold: f32) -> Vec<f32> {
    (0..len).map(|_| draw_activation(rng, threshold)).collect()
}

fn draw_cfg(rng: &mut TestRng) -> CodingConfig {
    CodingConfig::new(
        TIME_STEPS[rng.gen_range(0..TIME_STEPS.len())],
        THRESHOLDS[rng.gen_range(0..THRESHOLDS.len())],
    )
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Per-value reference raster: the `encode` path, which goes through the
/// same scalar helpers on every backend (it never dispatches).
fn reference_raster(coding: &dyn NeuralCoding, values: &[f32], cfg: &CodingConfig) -> SpikeRaster {
    let trains = values.iter().map(|&v| coding.encode(v, cfg)).collect();
    SpikeRaster::from_trains(trains, cfg.time_steps)
}

/// Block encode on every ISA must reproduce the per-value path train for
/// train, over adversarial widths and activations, with the raster and
/// scratch buffers deliberately reused dirty across cases.
#[test]
fn block_encode_every_isa_matches_per_value_path() {
    let _guard = backend_guard();
    let mut rng = rng_for("block_encode_every_isa_matches_per_value_path");
    let previous = set_backend(SimdBackend::Scalar);
    let all = codings();
    let isas = available_backends();
    // One dirty raster/scratch pair reused across every case and backend:
    // the block path must fully overwrite stale trains and lane buffers.
    let mut raster = SpikeRaster::new(0, 1);
    let mut scratch = CodingScratch::new();
    for _ in 0..CASES {
        let cfg = draw_cfg(&mut rng);
        let width = WIDTHS[rng.gen_range(0..WIDTHS.len())];
        let values = draw_values(&mut rng, width, cfg.threshold);
        for coding in &all {
            let reference = reference_raster(coding.as_ref(), &values, &cfg);
            for &isa in &isas {
                set_backend(isa);
                coding.encode_raster_into(&values, &cfg, &mut raster, &mut scratch);
                assert_eq!(raster.num_neurons(), width);
                for (n, value) in values.iter().enumerate() {
                    assert_eq!(
                        raster.train(n),
                        reference.train(n),
                        "{isa:?} {} T={} θ={} neuron {n} value {value:?}",
                        coding.name(),
                        cfg.time_steps,
                        cfg.threshold,
                    );
                }
            }
        }
    }
    set_backend(previous);
}

/// Mutilates an encoded raster the way the noise transforms would: random
/// spike deletions and ±1 jitter, renormalised through `set_train` — so the
/// decoders see trains that no encoder produces.
fn perturb(raster: &SpikeRaster, rng: &mut TestRng) -> SpikeRaster {
    let num_steps = raster.num_steps();
    let mut out = SpikeRaster::new(raster.num_neurons(), num_steps);
    for (n, train) in raster.iter() {
        let mut noisy = Vec::with_capacity(train.len());
        for &t in train {
            if rng.gen_range(0.0f32..1.0) <= 0.25 {
                continue;
            }
            let jittered = t as i64 + rng.gen_range(-1i64..=1);
            noisy.push(jittered.clamp(0, num_steps as i64 - 1) as u32);
        }
        out.set_train(n, noisy);
    }
    out
}

/// Block decode (`decode_into`) on every ISA must equal the per-train
/// `decode` bit for bit — including on noise-perturbed trains.
#[test]
fn block_decode_every_isa_matches_per_train_decode() {
    let _guard = backend_guard();
    let mut rng = rng_for("block_decode_every_isa_matches_per_train_decode");
    let previous = set_backend(SimdBackend::Scalar);
    let all = codings();
    let isas = available_backends();
    let mut scratch = CodingScratch::new();
    for case in 0..CASES {
        let cfg = draw_cfg(&mut rng);
        let width = WIDTHS[rng.gen_range(0..WIDTHS.len())];
        let values = draw_values(&mut rng, width, cfg.threshold);
        for coding in &all {
            let mut raster = SpikeRaster::new(0, 1);
            coding.encode_raster_into(&values, &cfg, &mut raster, &mut scratch);
            let raster = if case % 2 == 0 {
                perturb(&raster, &mut rng)
            } else {
                raster
            };
            let reference: Vec<f32> = (0..width)
                .map(|n| coding.decode(raster.train(n), &cfg))
                .collect();
            for &isa in &isas {
                set_backend(isa);
                let context = format!("{isa:?} {} T={}", coding.name(), cfg.time_steps);
                let mut decoded = vec![f32::NAN; width]; // dirty: must be overwritten
                coding.decode_into(&raster, &cfg, &mut decoded, &mut scratch);
                assert_eq!(bits(&decoded), bits(&reference), "{context}: decode_into");
            }
        }
    }
    set_backend(previous);
}

/// The empty-train `+0.0` contract per coding, per ISA: a silent neuron
/// decodes to bit pattern `0x0000_0000` through both decode entry points.
#[test]
fn empty_trains_decode_to_positive_zero_on_every_isa() {
    let _guard = backend_guard();
    let previous = set_backend(SimdBackend::Scalar);
    let mut scratch = CodingScratch::new();
    for coding in &codings() {
        for &t in TIME_STEPS {
            let cfg = CodingConfig::new(t, 1.0);
            // Nine silent neurons: one full block plus a scalar-tail lane.
            let raster = SpikeRaster::new(9, t);
            for isa in available_backends() {
                set_backend(isa);
                let context = format!("{isa:?} {} T={t}", coding.name());
                assert_eq!(
                    coding.decode(&[], &cfg).to_bits(),
                    0,
                    "{context}: decode(&[])"
                );
                let mut decoded = [f32::NAN; 9]; // dirty: must be overwritten
                coding.decode_into(&raster, &cfg, &mut decoded, &mut scratch);
                assert!(
                    decoded.iter().all(|v| v.to_bits() == 0),
                    "{context}: decode_into"
                );
            }
        }
    }
    set_backend(previous);
}

/// A fixed adversarial activation sweep — every special value through every
/// coding at every width 0..=17, on every ISA, against the per-value path.
/// Deterministic companion to the sampled property above: a regression here
/// names the exact value that diverged.
#[test]
fn adversarial_activation_sweep_is_isa_invariant() {
    let _guard = backend_guard();
    let previous = set_backend(SimdBackend::Scalar);
    let theta = 1.0f32;
    let pool: Vec<f32> = vec![
        0.0,
        -0.0,
        1.0e-41,
        -1.0e-41,
        f32::MIN_POSITIVE,
        1.0e-6,
        0.5,
        f32::from_bits(theta.to_bits() - 1),
        theta,
        f32::from_bits(theta.to_bits() + 1),
        1.0,
        2.5,
        -1.0,
        f32::NAN,
        f32::INFINITY,
    ];
    let cfg = CodingConfig::new(64, theta);
    let mut raster = SpikeRaster::new(0, 1);
    let mut scratch = CodingScratch::new();
    for coding in &codings() {
        for width in 0..=17usize {
            // Rotate the pool so every value visits every lane position.
            let values: Vec<f32> = (0..width).map(|i| pool[(i + width) % pool.len()]).collect();
            let reference = reference_raster(coding.as_ref(), &values, &cfg);
            for isa in available_backends() {
                set_backend(isa);
                coding.encode_raster_into(&values, &cfg, &mut raster, &mut scratch);
                for (n, value) in values.iter().enumerate() {
                    assert_eq!(
                        raster.train(n),
                        reference.train(n),
                        "{isa:?} {} width {width} neuron {n} value {value:?}",
                        coding.name(),
                    );
                }
            }
        }
    }
    set_backend(previous);
}
