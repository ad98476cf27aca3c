//! Golden-file suite: the byte-for-byte wire format is pinned by committed
//! fixtures under `tests/golden/`.  If any of these tests fail after an
//! intentional format change, the change is a **breaking** one:
//!
//! 1. Bump `WIRE_VERSION` (frames) or `MODEL_VERSION` (model files) in the
//!    crate — never re-bless fixtures under the same version number.
//! 2. Re-generate the fixtures with `NRSNN_WIRE_BLESS=1 cargo test -p
//!    nrsnn-wire --test golden` and commit them together with the bump.
//! 3. Note the incompatibility in ARCHITECTURE.md's wire-format section.
//!
//! A fixture mismatch *without* an intentional change means the encoder
//! regressed: fix the encoder, do not re-bless.

use std::path::PathBuf;

use nrsnn_dnn::NetworkWeights;
use nrsnn_snn::CodingKind;
use nrsnn_tensor::Tensor;
use nrsnn_wire::{
    decode_frame, decode_model, encode_frame, encode_model, Frame, LayerDesc, ModelRecord,
    NoiseDesc, StageLatencyBody, StatsBody, TraceBody, TraceSpanBody, TRACE_NO_LAYER,
};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `bytes` against the committed fixture, or rewrites the fixture
/// when `NRSNN_WIRE_BLESS=1` (the documented re-bless procedure above).
fn check_golden(name: &str, bytes: &[u8]) {
    let path = golden_dir().join(name);
    if std::env::var("NRSNN_WIRE_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, bytes).unwrap();
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             generate with NRSNN_WIRE_BLESS=1 cargo test -p nrsnn-wire --test golden",
            path.display()
        )
    });
    assert_eq!(
        expected, bytes,
        "{name}: encoding drifted from the committed fixture \
         (see the version-bump procedure in tests/golden.rs)"
    );
}

/// One fixture value per frame tag.  These are frozen: editing them
/// invalidates the fixtures just as surely as editing the encoder.
fn golden_frames() -> Vec<(&'static str, Frame)> {
    vec![
        (
            "frame_infer_request.bin",
            Frame::InferRequest {
                model: "mnist-mlp".to_string(),
                seed: 9_007_199_254_740_993, // 2^53 + 1: must survive intact
                input: vec![0.0, -0.0, 0.5, 1.5e-42, f32::MAX],
            },
        ),
        ("frame_stats_request.bin", Frame::StatsRequest),
        ("frame_list_models_request.bin", Frame::ListModelsRequest),
        ("frame_ping_request.bin", Frame::PingRequest),
        ("frame_trace_request.bin", Frame::TraceRequest { last: 16 }),
        (
            "frame_infer_reply.bin",
            Frame::InferReply {
                model: "mnist-mlp".to_string(),
                predicted: 7,
                logits: vec![-0.25, 3.5, 0.0],
                total_spikes: 12_345,
                latency_us: 678,
                trace_id: 9_007_199_254_740_995, // above 2^53: must survive
            },
        ),
        (
            "frame_stats_reply.bin",
            Frame::StatsReply(StatsBody {
                requests_received: 10,
                requests_served: 9,
                rejected_busy: 1,
                failed: 0,
                batches: 4,
                batch_size_histogram: vec![2, 1, 0, 1],
                mean_batch_size: 2.25,
                p50_latency_us: 120,
                p99_latency_us: 480,
                mean_latency_us: 150.5,
                total_spikes: 4096,
                spikes_per_inference: 455.1,
                batch_size_offset: 2,
                p999_latency_us: 495,
                stage_latency_ns: vec![
                    StageLatencyBody {
                        stage: "queue_wait".to_string(),
                        p50_ns: 11_000,
                        p99_ns: 72_000,
                    },
                    StageLatencyBody {
                        stage: "simulate".to_string(),
                        p50_ns: 95_000,
                        p99_ns: 410_000,
                    },
                ],
            }),
        ),
        (
            "frame_trace_reply.bin",
            Frame::TraceReply(vec![TraceBody {
                trace_id: 9_007_199_254_740_997, // above 2^53: must survive
                model: "mnist-mlp".to_string(),
                seed: u64::MAX - 5,
                worker: 2,
                start_ns: 1_000,
                end_ns: 250_000,
                ok: true,
                backend: "sse2".to_string(),
                spans: vec![
                    TraceSpanBody {
                        stage: 0, // queue_wait
                        layer: TRACE_NO_LAYER,
                        start_ns: 1_000,
                        end_ns: 12_000,
                        kernel: 0,
                        density: 0.0,
                    },
                    TraceSpanBody {
                        stage: 5, // simulate
                        layer: 1,
                        start_ns: 12_000,
                        end_ns: 250_000,
                        kernel: 2, // sparse
                        density: 0.0625,
                    },
                ],
                dropped_spans: 0,
            }]),
        ),
        (
            "frame_models_reply.bin",
            Frame::ModelsReply(vec!["mnist-mlp".to_string(), "mnist-conv".to_string()]),
        ),
        ("frame_pong_reply.bin", Frame::PongReply),
        (
            "frame_error_reply.bin",
            Frame::ErrorReply {
                code: "busy".to_string(),
                message: "queue full".to_string(),
            },
        ),
    ]
}

/// The frozen model fixture: exercises Linear/Conv/AvgPool descriptors, a
/// composite noise spec, special float values and a >2^53 seed.
fn golden_model() -> ModelRecord {
    ModelRecord {
        name: "golden-net".to_string(),
        coding: CodingKind::Ttas(3),
        time_steps: 96,
        threshold: 1.0,
        ttfs_tau_fraction: 4.0,
        scaling: 0.75,
        noise: NoiseDesc::Composite(vec![NoiseDesc::Deletion(0.2), NoiseDesc::Jitter(1.5)]),
        master_seed: u64::MAX - 1,
        layers: vec![
            LayerDesc::Conv {
                out_channels: 2,
                in_channels: 1,
                in_height: 4,
                in_width: 4,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            LayerDesc::AvgPool {
                channels: 2,
                in_height: 4,
                in_width: 4,
                window: 2,
                stride: 2,
            },
            LayerDesc::Linear { out: 3, input: 8 },
        ],
        weights: NetworkWeights {
            params: vec![
                Tensor::from_vec(
                    (0..18).map(|i| (i as f32 - 9.0) * 0.125).collect(),
                    &[2, 1, 3, 3],
                )
                .unwrap(),
                Tensor::from_vec(vec![0.0, -0.0], &[2]).unwrap(),
                Tensor::from_vec((0..24).map(|i| 1.0 / (i as f32 + 1.0)).collect(), &[3, 8])
                    .unwrap(),
                Tensor::from_vec(vec![f32::MIN_POSITIVE, 1.5e-42, -1.0], &[3]).unwrap(),
            ],
        },
    }
}

#[test]
fn frame_encodings_match_committed_fixtures() {
    for (name, frame) in golden_frames() {
        let bytes = encode_frame(&frame).unwrap();
        check_golden(name, &bytes);
        // The fixture must also still decode to the fixture value.
        assert_eq!(decode_frame(&bytes).unwrap(), frame, "{name}");
    }
}

#[test]
fn model_encoding_matches_committed_fixture() {
    let record = golden_model();
    let bytes = encode_model(&record).unwrap();
    check_golden("model_golden_net.nrsm", &bytes);
    let back = decode_model(&bytes).unwrap();
    assert_eq!(back, record);
    // Bitwise, not just PartialEq (which conflates 0.0 and -0.0).
    for (a, b) in record.weights.params.iter().zip(back.weights.params.iter()) {
        for (x, y) in a.as_slice().iter().zip(b.as_slice().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn fixture_count_is_complete() {
    // One fixture per frame tag plus the model file.  If a frame type is
    // added, add its fixture here so it becomes golden-pinned too.
    assert_eq!(golden_frames().len(), 11);
    if std::env::var("NRSNN_WIRE_BLESS").as_deref() == Ok("1") {
        // Fixtures are being rewritten concurrently by the other tests;
        // counting them here would race the writers.
        return;
    }
    let entries: Vec<_> = std::fs::read_dir(golden_dir())
        .expect("tests/golden/ missing — bless fixtures first")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        entries.len(),
        12,
        "unexpected fixture set {entries:?}: stale files hide format drift"
    );
}
