//! Science digest: pins the paper-level numbers, not only the bits.
//!
//! The determinism suites prove that the engine's paths agree with one
//! another; they cannot catch a change that moves every path together.
//! Each test here trains a tiny pipeline, runs a deletion sweep with weight
//! scaling and a jitter sweep over all five codings, and compares every
//! point's accuracy and spike count with a committed golden under
//! `tests/golden/`: the MLP pipeline of `tests/end_to_end.rs` in
//! `science_digest.txt`, and a tiny CIFAR-10-like CNN (convolution
//! forwards and backwards, the widest rasters the engine corrupts) in
//! `science_digest_cnn.txt`.  The last line of each pins the training
//! itself: an FNV-1a digest of every trained parameter's bits and of the
//! activation scales, so a kernel change that moves one weight bit fails
//! here even when no sweep point moves.  Runs are deterministic, so the
//! comparison is exact.
//!
//! A mismatch means the science moved.  If that is intended, re-bless with
//!
//! ```text
//! NRSNN_SCIENCE_BLESS=1 cargo test --test science_digest
//! ```
//!
//! and add a CHANGES.md line that says why the numbers changed.  Without an
//! intended change, fix the engine; do not re-bless.

use std::fmt::Write as _;
use std::path::PathBuf;

use nrsnn::prelude::*;
use nrsnn::LayerDescriptor;

const CODINGS: [CodingKind; 5] = [
    CodingKind::Rate,
    CodingKind::Phase,
    CodingKind::Burst,
    CodingKind::Ttfs,
    CodingKind::Ttas(5),
];

fn tiny_pipeline() -> TrainedPipeline {
    let config = PipelineConfig {
        dataset: DatasetSpec::mnist_like().with_samples(100, 40),
        model: ModelKind::Mlp,
        dropout: 0.15,
        epochs: 8,
        batch_size: 20,
        learning_rate: 2e-3,
        percentile: 99.9,
        seed: 1,
    };
    TrainedPipeline::build(&config).expect("pipeline must build")
}

fn tiny_cnn_pipeline() -> TrainedPipeline {
    let config = PipelineConfig {
        dataset: DatasetSpec::cifar10_like().with_samples(48, 16),
        model: ModelKind::Cnn,
        dropout: 0.2,
        epochs: 2,
        batch_size: 16,
        learning_rate: 1e-3,
        percentile: 99.9,
        seed: 7,
    };
    TrainedPipeline::build(&config).expect("CNN pipeline must build")
}

fn sweep_config(time_steps: u32, eval_samples: usize) -> SweepConfig {
    SweepConfig {
        time_steps,
        eval_samples,
        seed: 99,
    }
}

/// One line per sweep point: sweep, method, level, accuracy %, mean spikes,
/// every number through `Display` (which round-trips `f32`/`f64` exactly).
fn digest(pipeline: &TrainedPipeline, config: SweepConfig) -> String {
    let deletion = DeletionSweep::new(&CODINGS, &[0.0, 0.5, 0.9])
        .weight_scaling(true)
        .config(config)
        .run(pipeline)
        .expect("deletion sweep");
    let jitter = JitterSweep::new(&CODINGS, &[0.0, 1.0, 4.0])
        .config(config)
        .run(pipeline)
        .expect("jitter sweep");
    let mut out = String::new();
    for (sweep, points) in [("deletion", &deletion), ("jitter", &jitter)] {
        for point in points {
            writeln!(
                out,
                "{sweep} {} level={} accuracy_percent={} mean_spikes={}",
                point.method_label(),
                point.noise_level,
                point.accuracy_percent,
                point.mean_spikes
            )
            .unwrap();
        }
    }
    writeln!(out, "{}", training_digest(pipeline)).unwrap();
    out
}

/// 64-bit FNV-1a over the little-endian bytes of `values`' bits, folded
/// into `hash`.
fn fnv1a(mut hash: u64, values: &[f32]) -> u64 {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// One line pinning the trained DNN bit for bit: the digest of every
/// trained parameter (each weighted layer's weights, then its bias, in
/// layer order) and of the threshold-balancing activation scales.
fn training_digest(pipeline: &TrainedPipeline) -> String {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let mut params = FNV_OFFSET;
    let mut count = 0usize;
    for descriptor in pipeline.descriptors() {
        if let LayerDescriptor::Linear { weights, bias }
        | LayerDescriptor::Conv { weights, bias, .. } = descriptor
        {
            params = fnv1a(params, weights.as_slice());
            params = fnv1a(params, bias.as_slice());
            count += weights.len() + bias.len();
        }
    }
    let scales = fnv1a(FNV_OFFSET, pipeline.activation_scales());
    format!(
        "training parameters={count} parameters_fnv1a={params:016x} \
         activation_scales_fnv1a={scales:016x}"
    )
}

/// Compares `actual` with the committed golden `tests/golden/{name}`, or
/// writes it there under `NRSNN_SCIENCE_BLESS=1`.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("NRSNN_SCIENCE_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing science digest {}: {e}\n\
             generate with NRSNN_SCIENCE_BLESS=1 cargo test --test science_digest",
            path.display()
        )
    });
    let moved: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(committed, now)| committed != now)
        .map(|(committed, now)| format!("  committed: {committed}\n  now:       {now}"))
        .collect();
    assert!(
        expected == actual,
        "the science moved (see the re-bless procedure in tests/science_digest.rs):\n{}",
        moved.join("\n")
    );
}

#[test]
fn science_digest_matches_the_committed_golden() {
    let actual = digest(&tiny_pipeline(), sweep_config(64, 24));
    check_golden("science_digest.txt", &actual);
}

#[test]
fn cnn_science_digest_matches_the_committed_golden() {
    let actual = digest(&tiny_cnn_pipeline(), sweep_config(32, 8));
    check_golden("science_digest_cnn.txt", &actual);
}
