//! Science digest: pins the paper-level numbers, not only the bits.
//!
//! The determinism suites prove that the engine's paths agree with one
//! another; they cannot catch a change that moves every path together.
//! This test trains the tiny MLP pipeline of `tests/end_to_end.rs`, runs a
//! deletion sweep with weight scaling and a jitter sweep over all five
//! codings, and compares every point's accuracy and spike count with the
//! committed `tests/golden/science_digest.txt`.  Runs are deterministic, so
//! the comparison is exact.
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

fn sweep_config() -> SweepConfig {
    SweepConfig {
        time_steps: 64,
        eval_samples: 24,
        seed: 99,
    }
}

/// One line per sweep point: sweep, method, level, accuracy %, mean spikes,
/// every number through `Display` (which round-trips `f32`/`f64` exactly).
fn digest(pipeline: &TrainedPipeline) -> String {
    let deletion = DeletionSweep::new(&CODINGS, &[0.0, 0.5, 0.9])
        .weight_scaling(true)
        .config(sweep_config())
        .run(pipeline)
        .expect("deletion sweep");
    let jitter = JitterSweep::new(&CODINGS, &[0.0, 1.0, 4.0])
        .config(sweep_config())
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
    out
}

#[test]
fn science_digest_matches_the_committed_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/science_digest.txt");
    let actual = digest(&tiny_pipeline());
    if std::env::var("NRSNN_SCIENCE_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
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
