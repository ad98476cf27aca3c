//! Length-prefixed versioned framing for every serving-protocol message.
//!
//! ```text
//! frame   := magic:u8 (0xB5)  version:u8 (2)  payload_len:u32le  payload
//! payload := tag:u8  body
//!
//! tag  frame                body
//! 0x01 InferRequest         model:str  seed:u64  input_len:u32  input: f32 bits
//! 0x02 StatsRequest         (empty)
//! 0x03 ListModelsRequest    (empty)
//! 0x04 PingRequest          (empty)
//! 0x05 TraceRequest         last:u32
//! 0x11 InferReply           model:str  predicted:u64  logit_len:u32
//!                           logits: f32 bits  total_spikes:u64  latency_us:u64
//!                           trace_id:u64
//! 0x12 StatsReply           see `StatsBody`
//! 0x13 ModelsReply          count:u32  (name:str)*
//! 0x14 PongReply            (empty)
//! 0x15 ErrorReply           code:str  message:str
//! 0x16 TraceReply           count:u32  (trace: see `TraceBody`)*
//! 0x21 (unassigned)         was a spike-raster frame that no peer ever
//!                           sent; rejected as an unknown tag
//! ```
//!
//! The magic byte `0xB5` is deliberately distinct from `{` (`0x7B`), the
//! first byte of every JSON request — the TCP front-end sniffs the first
//! byte of a connection to pick the codec, so the two alphabets must not
//! overlap.  Payload lengths are validated against [`MAX_FRAME_LEN`]
//! before any buffer is sized from them.

use std::io::{Read, Write};

use crate::bytes::{ByteReader, ByteWriter};
use crate::{Result, WireError};

/// First byte of every binary frame.  Must never equal `b'{'` (0x7B): the
/// TCP front-end distinguishes binary from JSON by this byte alone.
pub const FRAME_MAGIC: u8 = 0xB5;

/// Wire format version this build encodes and accepts.
///
/// Version history:
/// * `1` — initial format.
/// * `2` — observability: `InferReply` gained a trailing `trace_id:u64`,
///   `StatsBody` gained `batch_size_offset`, `p999_latency_us` and the
///   per-stage latency table, and the `TraceRequest`/`TraceReply` frames
///   were added.
pub const WIRE_VERSION: u8 = 2;

/// Bytes in a frame header: magic + version + `u32` payload length.
pub const FRAME_HEADER_LEN: usize = 6;

/// Hard cap on a frame payload (16 MiB).  The largest legitimate payload —
/// an infer request for the MNIST-sized models served here — is a few KiB;
/// anything near the cap is hostile and is rejected before allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

const _MAGIC_IS_NOT_JSON: () = assert!(FRAME_MAGIC != b'{');

/// Parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Format version (currently always [`WIRE_VERSION`]).
    pub version: u8,
    /// Payload length in bytes, already validated against
    /// [`MAX_FRAME_LEN`].
    pub payload_len: u32,
}

impl FrameHeader {
    /// Parses and validates the [`FRAME_HEADER_LEN`] header bytes:
    /// magic first, then version, then the length cap.
    ///
    /// # Errors
    /// [`WireError::Truncated`], [`WireError::BadMagic`],
    /// [`WireError::UnsupportedVersion`] or [`WireError::FrameTooLarge`].
    pub fn parse(bytes: &[u8]) -> Result<FrameHeader> {
        if bytes.len() < FRAME_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: FRAME_HEADER_LEN,
                have: bytes.len(),
            });
        }
        if bytes[0] != FRAME_MAGIC {
            return Err(WireError::BadMagic { found: bytes[0] });
        }
        if bytes[1] != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { found: bytes[1] });
        }
        let payload_len = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]);
        if payload_len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge {
                len: u64::from(payload_len),
                max: u64::from(MAX_FRAME_LEN),
            });
        }
        Ok(FrameHeader {
            version: bytes[1],
            payload_len,
        })
    }
}

/// Server statistics snapshot — a field-for-field mirror of
/// `nrsnn-serve`'s `ServerStats` (kept here because the dependency points
/// the other way).  `nrsnn-serve` converts losslessly in both directions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsBody {
    /// Requests accepted into the queue.
    pub requests_received: u64,
    /// Requests answered successfully.
    pub requests_served: u64,
    /// Requests rejected because the queue was full.
    pub rejected_busy: u64,
    /// Requests that failed during processing.
    pub failed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Histogram of executed batch sizes (index `i` counts batches of size
    /// `batch_size_offset + i`).
    pub batch_size_histogram: Vec<u64>,
    /// Mean executed batch size.
    pub mean_batch_size: f64,
    /// p50 request latency in microseconds.
    pub p50_latency_us: u64,
    /// p99 request latency in microseconds.
    pub p99_latency_us: u64,
    /// Mean request latency in microseconds.
    pub mean_latency_us: f64,
    /// Total spikes across every inference.
    pub total_spikes: u64,
    /// Mean spikes per inference.
    pub spikes_per_inference: f64,
    /// Batch size counted by `batch_size_histogram[0]`.
    pub batch_size_offset: u64,
    /// p99.9 request latency in microseconds.
    pub p999_latency_us: u64,
    /// Per-stage latency percentiles, in nanoseconds.
    pub stage_latency_ns: Vec<StageLatencyBody>,
}

/// One per-stage latency entry of a [`StatsBody`] — mirrors `nrsnn-serve`'s
/// `StageLatency`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageLatencyBody {
    /// Stage name (`queue_wait`, `encode`, `simulate`, …).
    pub stage: String,
    /// p50 stage duration in nanoseconds.
    pub p50_ns: u64,
    /// p99 stage duration in nanoseconds.
    pub p99_ns: u64,
}

/// Sentinel for "no layer" in a [`TraceSpanBody`]'s `layer` field.
pub const TRACE_NO_LAYER: u32 = u32::MAX;

/// One stage of a recorded request timeline — mirrors `nrsnn-serve`'s
/// `TraceSpan`.
///
/// `stage` and `kernel` travel as small integer codes (the taxonomy of
/// `nrsnn-obs`): stages `0..=6` are `queue_wait`, `batch_assembly`,
/// `encode`, `noise`, `decode`, `simulate`, `reply_serialize`; kernels
/// `0..=2` are none, `dense`, `sparse`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSpanBody {
    /// Stage code (`0..=6`).
    pub stage: u8,
    /// Layer index, or [`TRACE_NO_LAYER`] when the stage is not per-layer.
    pub layer: u32,
    /// Start, nanoseconds since the server's monotonic epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the server's monotonic epoch.
    pub end_ns: u64,
    /// Kernel-path code (`0` none, `1` dense, `2` sparse).
    pub kernel: u8,
    /// Measured raster density for `simulate` spans, else `0`.
    pub density: f32,
}

/// One request's recorded timeline — mirrors `nrsnn-serve`'s
/// `RequestTrace`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBody {
    /// Server-unique trace id (echoed in the inference reply).
    pub trace_id: u64,
    /// Name of the model that served the request.
    pub model: String,
    /// The request's seed.
    pub seed: u64,
    /// Index of the batcher worker that ran the request.
    pub worker: u32,
    /// Admission time, nanoseconds since the server's monotonic epoch.
    pub start_ns: u64,
    /// Reply-ready time, nanoseconds since the server's monotonic epoch.
    pub end_ns: u64,
    /// Whether the request succeeded.
    pub ok: bool,
    /// SIMD backend active on the worker.
    pub backend: String,
    /// Per-stage breakdown tiling `start_ns..end_ns`.
    pub spans: Vec<TraceSpanBody>,
    /// Spans discarded for lack of buffer space.
    pub dropped_spans: u32,
}

/// Every message of the serving protocol.  Mirrors `nrsnn-serve`'s
/// `Request`/`Response` types; the serve crate owns the conversions.
/// Tag `0x21` (a spike-raster frame no peer ever sent) is unassigned and
/// decodes as [`WireError::UnknownTag`].
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Run one inference (`tag 0x01`).
    InferRequest {
        /// Model name in the registry.
        model: String,
        /// Per-request seed — full u64, values above 2^53 survive.
        seed: u64,
        /// Flattened input activations.
        input: Vec<f32>,
    },
    /// Ask for a statistics snapshot (`tag 0x02`).
    StatsRequest,
    /// Ask for the model list (`tag 0x03`).
    ListModelsRequest,
    /// Liveness probe (`tag 0x04`).
    PingRequest,
    /// Ask for the last `last` recorded request timelines (`tag 0x05`).
    TraceRequest {
        /// Maximum number of recent timelines to return.
        last: u32,
    },
    /// A completed inference (`tag 0x11`).
    InferReply {
        /// Model that served the request.
        model: String,
        /// Argmax class index.
        predicted: u64,
        /// Output-layer logits, bit-exact.
        logits: Vec<f32>,
        /// Spikes emitted during the simulation.
        total_spikes: u64,
        /// Server-side latency in microseconds.
        latency_us: u64,
        /// Flight-recorder trace id (`0` when tracing is off).
        trace_id: u64,
    },
    /// Statistics snapshot (`tag 0x12`).
    StatsReply(StatsBody),
    /// Registered model names (`tag 0x13`).
    ModelsReply(Vec<String>),
    /// Liveness answer (`tag 0x14`).
    PongReply,
    /// A typed failure (`tag 0x15`).
    ErrorReply {
        /// Stable machine-readable code (mirrors `ServeError::code`).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// Recorded request timelines, newest first (`tag 0x16`).
    TraceReply(Vec<TraceBody>),
}

const TAG_INFER_REQUEST: u8 = 0x01;
const TAG_STATS_REQUEST: u8 = 0x02;
const TAG_LIST_MODELS_REQUEST: u8 = 0x03;
const TAG_PING_REQUEST: u8 = 0x04;
const TAG_TRACE_REQUEST: u8 = 0x05;
const TAG_INFER_REPLY: u8 = 0x11;
const TAG_STATS_REPLY: u8 = 0x12;
const TAG_MODELS_REPLY: u8 = 0x13;
const TAG_PONG_REPLY: u8 = 0x14;
const TAG_ERROR_REPLY: u8 = 0x15;
const TAG_TRACE_REPLY: u8 = 0x16;

impl Frame {
    /// The payload tag byte of this frame type.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::InferRequest { .. } => TAG_INFER_REQUEST,
            Frame::StatsRequest => TAG_STATS_REQUEST,
            Frame::ListModelsRequest => TAG_LIST_MODELS_REQUEST,
            Frame::PingRequest => TAG_PING_REQUEST,
            Frame::TraceRequest { .. } => TAG_TRACE_REQUEST,
            Frame::InferReply { .. } => TAG_INFER_REPLY,
            Frame::StatsReply(_) => TAG_STATS_REPLY,
            Frame::ModelsReply(_) => TAG_MODELS_REPLY,
            Frame::PongReply => TAG_PONG_REPLY,
            Frame::ErrorReply { .. } => TAG_ERROR_REPLY,
            Frame::TraceReply(_) => TAG_TRACE_REPLY,
        }
    }
}

/// Encodes a frame payload (tag + body, no header).
///
/// # Errors
/// [`WireError::InvalidPayload`] if a length field overflows `u32`.
pub fn encode_payload(frame: &Frame) -> Result<Vec<u8>> {
    let mut w = ByteWriter::with_capacity(64);
    w.put_u8(frame.tag());
    match frame {
        Frame::InferRequest { model, seed, input } => {
            w.put_str(model)?;
            w.put_u64(*seed);
            w.put_len(input.len())?;
            for &v in input {
                w.put_f32(v);
            }
        }
        Frame::StatsRequest | Frame::ListModelsRequest | Frame::PingRequest | Frame::PongReply => {}
        Frame::TraceRequest { last } => {
            w.put_u32(*last);
        }
        Frame::InferReply {
            model,
            predicted,
            logits,
            total_spikes,
            latency_us,
            trace_id,
        } => {
            w.put_str(model)?;
            w.put_u64(*predicted);
            w.put_len(logits.len())?;
            for &v in logits {
                w.put_f32(v);
            }
            w.put_u64(*total_spikes);
            w.put_u64(*latency_us);
            w.put_u64(*trace_id);
        }
        Frame::StatsReply(stats) => {
            w.put_u64(stats.requests_received);
            w.put_u64(stats.requests_served);
            w.put_u64(stats.rejected_busy);
            w.put_u64(stats.failed);
            w.put_u64(stats.batches);
            w.put_len(stats.batch_size_histogram.len())?;
            for &bucket in &stats.batch_size_histogram {
                w.put_u64(bucket);
            }
            w.put_f64(stats.mean_batch_size);
            w.put_u64(stats.p50_latency_us);
            w.put_u64(stats.p99_latency_us);
            w.put_f64(stats.mean_latency_us);
            w.put_u64(stats.total_spikes);
            w.put_f64(stats.spikes_per_inference);
            w.put_u64(stats.batch_size_offset);
            w.put_u64(stats.p999_latency_us);
            w.put_len(stats.stage_latency_ns.len())?;
            for entry in &stats.stage_latency_ns {
                w.put_str(&entry.stage)?;
                w.put_u64(entry.p50_ns);
                w.put_u64(entry.p99_ns);
            }
        }
        Frame::TraceReply(traces) => {
            w.put_len(traces.len())?;
            for trace in traces {
                w.put_u64(trace.trace_id);
                w.put_str(&trace.model)?;
                w.put_u64(trace.seed);
                w.put_u32(trace.worker);
                w.put_u64(trace.start_ns);
                w.put_u64(trace.end_ns);
                w.put_u8(u8::from(trace.ok));
                w.put_str(&trace.backend)?;
                w.put_u32(trace.dropped_spans);
                w.put_len(trace.spans.len())?;
                for span in &trace.spans {
                    w.put_u8(span.stage);
                    w.put_u32(span.layer);
                    w.put_u64(span.start_ns);
                    w.put_u64(span.end_ns);
                    w.put_u8(span.kernel);
                    w.put_f32(span.density);
                }
            }
        }
        Frame::ModelsReply(names) => {
            w.put_len(names.len())?;
            for name in names {
                w.put_str(name)?;
            }
        }
        Frame::ErrorReply { code, message } => {
            w.put_str(code)?;
            w.put_str(message)?;
        }
    }
    Ok(w.into_bytes())
}

/// Decodes a frame payload (tag + body), requiring every byte to be
/// consumed.
///
/// # Errors
/// Any [`WireError`] except `BadMagic`/`FrameTooLarge` (those are header
/// properties).
pub fn decode_payload(payload: &[u8]) -> Result<Frame> {
    let mut r = ByteReader::new(payload);
    let tag = r.get_u8()?;
    let frame = match tag {
        TAG_INFER_REQUEST => {
            let model = r.get_str()?;
            let seed = r.get_u64()?;
            let len = r.get_len(4)?;
            let mut input = Vec::with_capacity(len);
            for _ in 0..len {
                input.push(r.get_f32()?);
            }
            Frame::InferRequest { model, seed, input }
        }
        TAG_STATS_REQUEST => Frame::StatsRequest,
        TAG_LIST_MODELS_REQUEST => Frame::ListModelsRequest,
        TAG_PING_REQUEST => Frame::PingRequest,
        TAG_TRACE_REQUEST => Frame::TraceRequest { last: r.get_u32()? },
        TAG_INFER_REPLY => {
            let model = r.get_str()?;
            let predicted = r.get_u64()?;
            let len = r.get_len(4)?;
            let mut logits = Vec::with_capacity(len);
            for _ in 0..len {
                logits.push(r.get_f32()?);
            }
            let total_spikes = r.get_u64()?;
            let latency_us = r.get_u64()?;
            let trace_id = r.get_u64()?;
            Frame::InferReply {
                model,
                predicted,
                logits,
                total_spikes,
                latency_us,
                trace_id,
            }
        }
        TAG_STATS_REPLY => {
            let requests_received = r.get_u64()?;
            let requests_served = r.get_u64()?;
            let rejected_busy = r.get_u64()?;
            let failed = r.get_u64()?;
            let batches = r.get_u64()?;
            let len = r.get_len(8)?;
            let mut batch_size_histogram = Vec::with_capacity(len);
            for _ in 0..len {
                batch_size_histogram.push(r.get_u64()?);
            }
            let mean_batch_size = r.get_f64()?;
            let p50_latency_us = r.get_u64()?;
            let p99_latency_us = r.get_u64()?;
            let mean_latency_us = r.get_f64()?;
            let total_spikes = r.get_u64()?;
            let spikes_per_inference = r.get_f64()?;
            let batch_size_offset = r.get_u64()?;
            let p999_latency_us = r.get_u64()?;
            // Each entry costs at least its stage-name length prefix plus
            // two u64 percentiles.
            let stage_len = r.get_len(20)?;
            let mut stage_latency_ns = Vec::with_capacity(stage_len);
            for _ in 0..stage_len {
                stage_latency_ns.push(StageLatencyBody {
                    stage: r.get_str()?,
                    p50_ns: r.get_u64()?,
                    p99_ns: r.get_u64()?,
                });
            }
            Frame::StatsReply(StatsBody {
                requests_received,
                requests_served,
                rejected_busy,
                failed,
                batches,
                batch_size_histogram,
                mean_batch_size,
                p50_latency_us,
                p99_latency_us,
                mean_latency_us,
                total_spikes,
                spikes_per_inference,
                batch_size_offset,
                p999_latency_us,
                stage_latency_ns,
            })
        }
        TAG_MODELS_REPLY => {
            // Each name costs at least its 4-byte length prefix.
            let len = r.get_len(4)?;
            let mut names = Vec::with_capacity(len);
            for _ in 0..len {
                names.push(r.get_str()?);
            }
            Frame::ModelsReply(names)
        }
        TAG_PONG_REPLY => Frame::PongReply,
        TAG_ERROR_REPLY => Frame::ErrorReply {
            code: r.get_str()?,
            message: r.get_str()?,
        },
        TAG_TRACE_REPLY => {
            // Each trace costs at least its fixed-width scalar fields.
            let count = r.get_len(45)?;
            let mut traces = Vec::with_capacity(count);
            for _ in 0..count {
                let trace_id = r.get_u64()?;
                let model = r.get_str()?;
                let seed = r.get_u64()?;
                let worker = r.get_u32()?;
                let start_ns = r.get_u64()?;
                let end_ns = r.get_u64()?;
                let ok = match r.get_u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(WireError::InvalidPayload(format!(
                            "trace ok flag must be 0 or 1, got {other}"
                        )))
                    }
                };
                let backend = r.get_str()?;
                let dropped_spans = r.get_u32()?;
                // Each span is 26 fixed bytes.
                let span_count = r.get_len(26)?;
                let mut spans = Vec::with_capacity(span_count);
                for _ in 0..span_count {
                    spans.push(TraceSpanBody {
                        stage: r.get_u8()?,
                        layer: r.get_u32()?,
                        start_ns: r.get_u64()?,
                        end_ns: r.get_u64()?,
                        kernel: r.get_u8()?,
                        density: r.get_f32()?,
                    });
                }
                traces.push(TraceBody {
                    trace_id,
                    model,
                    seed,
                    worker,
                    start_ns,
                    end_ns,
                    ok,
                    backend,
                    spans,
                    dropped_spans,
                });
            }
            Frame::TraceReply(traces)
        }
        other => return Err(WireError::UnknownTag { tag: other }),
    };
    r.expect_exhausted()?;
    Ok(frame)
}

/// Encodes a complete frame: header plus payload.
///
/// # Errors
/// [`WireError::InvalidPayload`] for overlong fields,
/// [`WireError::FrameTooLarge`] if the payload exceeds [`MAX_FRAME_LEN`].
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>> {
    let payload = encode_payload(frame)?;
    if payload.len() as u64 > u64::from(MAX_FRAME_LEN) {
        return Err(WireError::FrameTooLarge {
            len: payload.len() as u64,
            max: u64::from(MAX_FRAME_LEN),
        });
    }
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.push(FRAME_MAGIC);
    out.push(WIRE_VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Decodes exactly one frame from `bytes`, requiring every byte to be
/// consumed.
///
/// # Errors
/// Any [`WireError`]; trailing bytes after the frame are
/// [`WireError::TrailingBytes`].
pub fn decode_frame(bytes: &[u8]) -> Result<Frame> {
    let header = FrameHeader::parse(bytes)?;
    let rest = &bytes[FRAME_HEADER_LEN..];
    let payload_len = header.payload_len as usize;
    if rest.len() < payload_len {
        return Err(WireError::Truncated {
            needed: payload_len,
            have: rest.len(),
        });
    }
    if rest.len() > payload_len {
        return Err(WireError::TrailingBytes {
            count: rest.len() - payload_len,
        });
    }
    decode_payload(rest)
}

/// Writes one frame to a stream.
///
/// # Errors
/// Encoding errors as in [`encode_frame`]; I/O failures as
/// [`WireError::Io`].
pub fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> Result<()> {
    let bytes = encode_frame(frame)?;
    writer.write_all(&bytes)?;
    Ok(())
}

/// Reads one frame from a stream: the fixed-size header first, then
/// exactly the announced payload.  The payload buffer is sized only after
/// the header passes the [`MAX_FRAME_LEN`] check.
///
/// # Errors
/// Header/payload errors as in [`decode_frame`]; a stream that ends
/// mid-frame is [`WireError::Io`].
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Frame> {
    let mut header_bytes = [0u8; FRAME_HEADER_LEN];
    reader.read_exact(&mut header_bytes)?;
    let header = FrameHeader::parse(&header_bytes)?;
    let mut payload = vec![0u8; header.payload_len as usize];
    reader.read_exact(&mut payload)?;
    decode_payload(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::InferRequest {
                model: "mnist-ttas".to_string(),
                seed: (1u64 << 60) + 7, // above 2^53
                input: vec![0.0, -0.0, 1.5e-42, f32::MAX],
            },
            Frame::StatsRequest,
            Frame::ListModelsRequest,
            Frame::PingRequest,
            Frame::TraceRequest { last: 16 },
            Frame::InferReply {
                model: "mnist-ttas".to_string(),
                predicted: 7,
                logits: vec![-0.0, 3.25, f32::MIN_POSITIVE / 4.0],
                total_spikes: 421,
                latency_us: 1_553,
                trace_id: (1u64 << 57) + 3,
            },
            Frame::StatsReply(StatsBody {
                requests_received: 10,
                requests_served: 9,
                rejected_busy: 1,
                failed: 0,
                batches: 4,
                batch_size_histogram: vec![1, 0, 2, 1],
                mean_batch_size: 2.25,
                p50_latency_us: 900,
                p99_latency_us: 4_100,
                mean_latency_us: 1_250.5,
                total_spikes: 3_800,
                spikes_per_inference: 422.22,
                batch_size_offset: 2,
                p999_latency_us: 9_700,
                stage_latency_ns: vec![
                    StageLatencyBody {
                        stage: "queue_wait".to_string(),
                        p50_ns: 12_000,
                        p99_ns: 88_000,
                    },
                    StageLatencyBody {
                        stage: "simulate".to_string(),
                        p50_ns: 640_000,
                        p99_ns: 1_900_000,
                    },
                ],
            }),
            Frame::TraceReply(vec![TraceBody {
                trace_id: 11,
                model: "mnist-ttas".to_string(),
                seed: (1u64 << 61) + 5,
                worker: 1,
                start_ns: 5_000,
                end_ns: 905_000,
                ok: true,
                backend: "sse2".to_string(),
                spans: vec![
                    TraceSpanBody {
                        stage: 0, // queue_wait
                        layer: TRACE_NO_LAYER,
                        start_ns: 5_000,
                        end_ns: 45_000,
                        kernel: 0,
                        density: 0.0,
                    },
                    TraceSpanBody {
                        stage: 5, // simulate
                        layer: 1,
                        start_ns: 45_000,
                        end_ns: 905_000,
                        kernel: 2, // sparse
                        density: 0.0625,
                    },
                ],
                dropped_spans: 0,
            }]),
            Frame::ModelsReply(vec!["a".to_string(), "b-ttfs".to_string()]),
            Frame::PongReply,
            Frame::ErrorReply {
                code: "unknown_model".to_string(),
                message: "no model named 'x'".to_string(),
            },
        ]
    }

    #[test]
    fn every_frame_type_round_trips() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame).unwrap();
            assert_eq!(bytes[0], FRAME_MAGIC);
            assert_eq!(bytes[1], WIRE_VERSION);
            let back = decode_frame(&bytes).unwrap();
            // Structural equality plus re-encoded bytes, so -0.0 vs 0.0
            // cannot hide behind PartialEq.
            assert_eq!(back, frame);
            assert_eq!(encode_frame(&back).unwrap(), bytes);
        }
    }

    #[test]
    fn streaming_helpers_match_the_buffer_codec() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for frame in &frames {
            write_frame(&mut stream, frame).unwrap();
        }
        let mut cursor = std::io::Cursor::new(stream);
        for frame in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), frame);
        }
    }

    #[test]
    fn header_errors_are_ordered_and_typed() {
        assert_eq!(
            FrameHeader::parse(&[FRAME_MAGIC]),
            Err(WireError::Truncated { needed: 6, have: 1 })
        );
        assert_eq!(
            FrameHeader::parse(&[b'{', 1, 0, 0, 0, 0]),
            Err(WireError::BadMagic { found: b'{' })
        );
        assert_eq!(
            FrameHeader::parse(&[FRAME_MAGIC, 99, 0, 0, 0, 0]),
            Err(WireError::UnsupportedVersion { found: 99 })
        );
        let mut oversized = [FRAME_MAGIC, WIRE_VERSION, 0, 0, 0, 0];
        oversized[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            FrameHeader::parse(&oversized),
            Err(WireError::FrameTooLarge {
                len: u64::from(u32::MAX),
                max: u64::from(MAX_FRAME_LEN),
            })
        );
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_rejected() {
        // 0x21 once tagged a raster frame; it is as unassigned as 0x7F.
        for tag in [0x21, 0x7F] {
            assert_eq!(decode_payload(&[tag]), Err(WireError::UnknownTag { tag }));
        }
        let mut bytes = encode_frame(&Frame::PingRequest).unwrap();
        bytes.push(0);
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::TrailingBytes { count: 1 })
        );
        // Payload longer than its body: the tag decodes, the extra byte
        // inside the announced payload is trailing.
        let mut w = ByteWriter::default();
        w.put_u8(FRAME_MAGIC);
        w.put_u8(WIRE_VERSION);
        w.put_u32(2);
        w.put_u8(TAG_PING_REQUEST);
        w.put_u8(0xEE);
        assert_eq!(
            decode_frame(&w.into_bytes()),
            Err(WireError::TrailingBytes { count: 1 })
        );
    }
}
