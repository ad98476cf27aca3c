//! Binary on-disk model format.
//!
//! ```text
//! model  := "NRSM"  version:u8 (1)
//!           name:str
//!           coding:u8 (0 rate | 1 phase | 2 burst | 3 ttfs | 4 ttas) [t_a:u32 if ttas]
//!           time_steps:u32  threshold:f32bits  ttfs_tau_fraction:f32bits
//!           scaling:f32bits  noise  master_seed:u64
//!           layer_count:u32  layer*  tensor_count:u32  tensor*
//! noise  := 0 (clean)
//!         | 1 p:f64bits (deletion)
//!         | 2 sigma:f64bits (jitter)
//!         | 3 stage_count:u32 noise* (composite; stages must be primitive)
//! layer  := 0 out:u32 input:u32                                   (linear)
//!         | 1 out_channels:u32 in_channels:u32 in_height:u32
//!             in_width:u32 kernel:u32 stride:u32 padding:u32      (conv)
//!         | 2 channels:u32 in_height:u32 in_width:u32
//!             window:u32 stride:u32                               (avgpool)
//! tensor := rank:u32  dim:u32 x rank  len:u32  value:f64bits x len
//! ```
//!
//! Tensor data travels as **little-endian f64 bits** (shape header + flat
//! data, rten/kornia-style).  The in-memory tensors are `f32`; widening to
//! `f64` is exact for every finite value, `-0.0` and subnormals included,
//! so the round-trip is bit-exact.  The decoder requires every stored
//! `f64` to narrow back to `f32` losslessly — a value that does not (a
//! NaN, or a double that was never an `f32`) is a typed
//! [`WireError::InvalidPayload`], which also makes the encoding of a given
//! weight set unique.  Seeds are full `u64`s: a master seed above 2^53
//! survives, which JSON's IEEE-double numbers cannot guarantee.

use nrsnn_dnn::NetworkWeights;
use nrsnn_snn::CodingKind;
use nrsnn_tensor::Tensor;

use crate::bytes::{ByteReader, ByteWriter};
use crate::{Result, WireError};

/// Four-byte preamble of every binary model file.
pub const MODEL_MAGIC: [u8; 4] = *b"NRSM";

/// Model format version this build encodes and accepts.
pub const MODEL_VERSION: u8 = 1;

/// Hard cap on a tensor's rank; everything in this workspace is rank 1–2.
pub const MAX_TENSOR_RANK: usize = 8;

/// Architecture of one layer — a field-for-field mirror of `nrsnn-serve`'s
/// `LayerSpec` (kept here because the dependency points the other way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerDesc {
    /// Fully connected layer.
    Linear {
        /// Output width.
        out: usize,
        /// Input width.
        input: usize,
    },
    /// Convolution layer.
    Conv {
        /// Number of output channels.
        out_channels: usize,
        /// Number of input channels.
        in_channels: usize,
        /// Input height in pixels.
        in_height: usize,
        /// Input width in pixels.
        in_width: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride in both directions.
        stride: usize,
        /// Symmetric zero padding.
        padding: usize,
    },
    /// Average pooling (parameter-free).
    AvgPool {
        /// Number of channels.
        channels: usize,
        /// Input height in pixels.
        in_height: usize,
        /// Input width in pixels.
        in_width: usize,
        /// Square pooling window.
        window: usize,
        /// Stride.
        stride: usize,
    },
}

/// Deployment noise description — mirror of `nrsnn-serve`'s `NoiseSpec`.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseDesc {
    /// No noise.
    Clean,
    /// Per-spike deletion with the given probability.
    Deletion(f64),
    /// Gaussian spike-time jitter with the given standard deviation.
    Jitter(f64),
    /// A chain of primitive stages (nested composites are rejected by both
    /// encoder and decoder, matching the serve-side semantics).
    Composite(Vec<NoiseDesc>),
}

/// Everything a binary model file carries — a lossless mirror of
/// `nrsnn-serve`'s `ModelSpec` (the serve crate owns the conversions).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRecord {
    /// Registry name clients address the model by.
    pub name: String,
    /// Neural coding used for every layer.
    pub coding: CodingKind,
    /// Simulation window length per layer.
    pub time_steps: u32,
    /// Encoding ceiling θ.
    pub threshold: f32,
    /// TTFS/TTAS PSC time constant as a fraction of the window.
    pub ttfs_tau_fraction: f32,
    /// Weight-scaling factor already folded into the parameters.
    pub scaling: f32,
    /// Noise transform injected into every transmitted raster.
    pub noise: NoiseDesc,
    /// Master seed — full u64, values above 2^53 survive.
    pub master_seed: u64,
    /// Layer architecture, input layer first.
    pub layers: Vec<LayerDesc>,
    /// Flat parameter list in `nrsnn-dnn::NetworkWeights` layout
    /// (layer-major, weights before bias).
    pub weights: NetworkWeights,
}

const CODING_RATE: u8 = 0;
const CODING_PHASE: u8 = 1;
const CODING_BURST: u8 = 2;
const CODING_TTFS: u8 = 3;
const CODING_TTAS: u8 = 4;

const NOISE_CLEAN: u8 = 0;
const NOISE_DELETION: u8 = 1;
const NOISE_JITTER: u8 = 2;
const NOISE_COMPOSITE: u8 = 3;

const LAYER_LINEAR: u8 = 0;
const LAYER_CONV: u8 = 1;
const LAYER_AVGPOOL: u8 = 2;

fn put_usize(w: &mut ByteWriter, v: usize) -> Result<()> {
    u32::try_from(v)
        .map(|v| w.put_u32(v))
        .map_err(|_| WireError::InvalidPayload(format!("dimension {v} exceeds u32::MAX")))
}

fn write_coding(w: &mut ByteWriter, coding: CodingKind) {
    match coding {
        CodingKind::Rate => w.put_u8(CODING_RATE),
        CodingKind::Phase => w.put_u8(CODING_PHASE),
        CodingKind::Burst => w.put_u8(CODING_BURST),
        CodingKind::Ttfs => w.put_u8(CODING_TTFS),
        CodingKind::Ttas(t_a) => {
            w.put_u8(CODING_TTAS);
            w.put_u32(t_a);
        }
    }
}

fn read_coding(r: &mut ByteReader<'_>) -> Result<CodingKind> {
    match r.get_u8()? {
        CODING_RATE => Ok(CodingKind::Rate),
        CODING_PHASE => Ok(CodingKind::Phase),
        CODING_BURST => Ok(CodingKind::Burst),
        CODING_TTFS => Ok(CodingKind::Ttfs),
        CODING_TTAS => Ok(CodingKind::Ttas(r.get_u32()?)),
        tag => Err(WireError::UnknownTag { tag }),
    }
}

fn write_noise(w: &mut ByteWriter, noise: &NoiseDesc, top_level: bool) -> Result<()> {
    match noise {
        NoiseDesc::Clean => w.put_u8(NOISE_CLEAN),
        NoiseDesc::Deletion(p) => {
            w.put_u8(NOISE_DELETION);
            w.put_f64(*p);
        }
        NoiseDesc::Jitter(sigma) => {
            w.put_u8(NOISE_JITTER);
            w.put_f64(*sigma);
        }
        NoiseDesc::Composite(stages) => {
            if !top_level {
                return Err(WireError::InvalidPayload(
                    "composite noise stages must be primitive".to_string(),
                ));
            }
            w.put_u8(NOISE_COMPOSITE);
            w.put_len(stages.len())?;
            for stage in stages {
                write_noise(w, stage, false)?;
            }
        }
    }
    Ok(())
}

fn read_noise(r: &mut ByteReader<'_>, top_level: bool) -> Result<NoiseDesc> {
    match r.get_u8()? {
        NOISE_CLEAN => Ok(NoiseDesc::Clean),
        NOISE_DELETION => Ok(NoiseDesc::Deletion(r.get_f64()?)),
        NOISE_JITTER => Ok(NoiseDesc::Jitter(r.get_f64()?)),
        NOISE_COMPOSITE if top_level => {
            let count = r.get_len(1)?;
            let mut stages = Vec::with_capacity(count);
            for _ in 0..count {
                stages.push(read_noise(r, false)?);
            }
            Ok(NoiseDesc::Composite(stages))
        }
        NOISE_COMPOSITE => Err(WireError::InvalidPayload(
            "composite noise stages must be primitive".to_string(),
        )),
        tag => Err(WireError::UnknownTag { tag }),
    }
}

fn write_layer(w: &mut ByteWriter, layer: &LayerDesc) -> Result<()> {
    match *layer {
        LayerDesc::Linear { out, input } => {
            w.put_u8(LAYER_LINEAR);
            put_usize(w, out)?;
            put_usize(w, input)?;
        }
        LayerDesc::Conv {
            out_channels,
            in_channels,
            in_height,
            in_width,
            kernel,
            stride,
            padding,
        } => {
            w.put_u8(LAYER_CONV);
            for v in [
                out_channels,
                in_channels,
                in_height,
                in_width,
                kernel,
                stride,
                padding,
            ] {
                put_usize(w, v)?;
            }
        }
        LayerDesc::AvgPool {
            channels,
            in_height,
            in_width,
            window,
            stride,
        } => {
            w.put_u8(LAYER_AVGPOOL);
            for v in [channels, in_height, in_width, window, stride] {
                put_usize(w, v)?;
            }
        }
    }
    Ok(())
}

fn read_layer(r: &mut ByteReader<'_>) -> Result<LayerDesc> {
    match r.get_u8()? {
        LAYER_LINEAR => Ok(LayerDesc::Linear {
            out: r.get_u32()? as usize,
            input: r.get_u32()? as usize,
        }),
        LAYER_CONV => Ok(LayerDesc::Conv {
            out_channels: r.get_u32()? as usize,
            in_channels: r.get_u32()? as usize,
            in_height: r.get_u32()? as usize,
            in_width: r.get_u32()? as usize,
            kernel: r.get_u32()? as usize,
            stride: r.get_u32()? as usize,
            padding: r.get_u32()? as usize,
        }),
        LAYER_AVGPOOL => Ok(LayerDesc::AvgPool {
            channels: r.get_u32()? as usize,
            in_height: r.get_u32()? as usize,
            in_width: r.get_u32()? as usize,
            window: r.get_u32()? as usize,
            stride: r.get_u32()? as usize,
        }),
        tag => Err(WireError::UnknownTag { tag }),
    }
}

fn write_tensor(w: &mut ByteWriter, tensor: &Tensor) -> Result<()> {
    let dims = tensor.dims();
    if dims.len() > MAX_TENSOR_RANK {
        return Err(WireError::InvalidPayload(format!(
            "tensor rank {} exceeds the cap of {MAX_TENSOR_RANK}",
            dims.len()
        )));
    }
    put_usize(w, dims.len())?;
    for &d in dims {
        put_usize(w, d)?;
    }
    let data = tensor.as_slice();
    w.put_len(data.len())?;
    for &v in data {
        // Exact for every finite f32 (and ±inf); see the module docs.
        w.put_f64(f64::from(v));
    }
    Ok(())
}

fn read_tensor(r: &mut ByteReader<'_>) -> Result<Tensor> {
    let rank = r.get_u32()? as usize;
    if rank > MAX_TENSOR_RANK {
        return Err(WireError::InvalidPayload(format!(
            "tensor rank {rank} exceeds the cap of {MAX_TENSOR_RANK}"
        )));
    }
    let mut dims = Vec::with_capacity(rank);
    let mut product: u64 = 1;
    for _ in 0..rank {
        let d = r.get_u32()?;
        product = product.saturating_mul(u64::from(d));
        dims.push(d as usize);
    }
    let len = r.get_len(8)?;
    if product != len as u64 {
        return Err(WireError::InvalidPayload(format!(
            "tensor of shape {dims:?} needs {product} values but the file carries {len}"
        )));
    }
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        let wide = r.get_f64()?;
        let narrow = wide as f32;
        if f64::from(narrow).to_bits() != wide.to_bits() {
            return Err(WireError::InvalidPayload(format!(
                "stored f64 0x{:016X} is not an exact f32 widening",
                wide.to_bits()
            )));
        }
        data.push(narrow);
    }
    Tensor::from_vec(data, &dims).map_err(|e| WireError::InvalidPayload(e.to_string()))
}

/// Encodes a model record as a standalone binary file image.
///
/// # Errors
/// [`WireError::InvalidPayload`] for out-of-range dimensions, overlong
/// fields or nested composite noise.
pub fn encode_model(record: &ModelRecord) -> Result<Vec<u8>> {
    let mut w = ByteWriter::with_capacity(256);
    w.put_bytes(&MODEL_MAGIC);
    w.put_u8(MODEL_VERSION);
    w.put_str(&record.name)?;
    write_coding(&mut w, record.coding);
    w.put_u32(record.time_steps);
    w.put_f32(record.threshold);
    w.put_f32(record.ttfs_tau_fraction);
    w.put_f32(record.scaling);
    write_noise(&mut w, &record.noise, true)?;
    w.put_u64(record.master_seed);
    w.put_len(record.layers.len())?;
    for layer in &record.layers {
        write_layer(&mut w, layer)?;
    }
    w.put_len(record.weights.params.len())?;
    for tensor in &record.weights.params {
        write_tensor(&mut w, tensor)?;
    }
    Ok(w.into_bytes())
}

/// Decodes a binary model file image, requiring every byte to be consumed.
///
/// # Errors
/// [`WireError::BadMagic`] if the file does not start with `"NRSM"` (the
/// first differing byte is reported), [`WireError::UnsupportedVersion`]
/// for an unknown version byte, and the usual typed decode errors.
pub fn decode_model(bytes: &[u8]) -> Result<ModelRecord> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(MODEL_MAGIC.len())?;
    if magic != MODEL_MAGIC {
        let found = magic
            .iter()
            .zip(&MODEL_MAGIC)
            .find(|(a, b)| a != b)
            .map_or(magic[0], |(&a, _)| a);
        return Err(WireError::BadMagic { found });
    }
    let version = r.get_u8()?;
    if version != MODEL_VERSION {
        return Err(WireError::UnsupportedVersion { found: version });
    }
    let name = r.get_str()?;
    let coding = read_coding(&mut r)?;
    let time_steps = r.get_u32()?;
    let threshold = r.get_f32()?;
    let ttfs_tau_fraction = r.get_f32()?;
    let scaling = r.get_f32()?;
    let noise = read_noise(&mut r, true)?;
    let master_seed = r.get_u64()?;
    // Each layer costs at least its tag byte; each tensor at least 8 bytes
    // (rank + length words).
    let layer_count = r.get_len(1)?;
    let mut layers = Vec::with_capacity(layer_count);
    for _ in 0..layer_count {
        layers.push(read_layer(&mut r)?);
    }
    let tensor_count = r.get_len(8)?;
    let mut params = Vec::with_capacity(tensor_count);
    for _ in 0..tensor_count {
        params.push(read_tensor(&mut r)?);
    }
    r.expect_exhausted()?;
    Ok(ModelRecord {
        name,
        coding,
        time_steps,
        threshold,
        ttfs_tau_fraction,
        scaling,
        noise,
        master_seed,
        layers,
        weights: NetworkWeights { params },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> ModelRecord {
        ModelRecord {
            name: "mnist-ttas".to_string(),
            coding: CodingKind::Ttas(5),
            time_steps: 96,
            threshold: 1.0,
            ttfs_tau_fraction: 4.0,
            scaling: 0.5,
            noise: NoiseDesc::Composite(vec![NoiseDesc::Deletion(0.35), NoiseDesc::Jitter(1.5)]),
            master_seed: (1u64 << 60) + 424_242, // above 2^53
            layers: vec![
                LayerDesc::Conv {
                    out_channels: 4,
                    in_channels: 1,
                    in_height: 8,
                    in_width: 8,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                LayerDesc::AvgPool {
                    channels: 4,
                    in_height: 8,
                    in_width: 8,
                    window: 2,
                    stride: 2,
                },
                LayerDesc::Linear { out: 10, input: 64 },
            ],
            weights: NetworkWeights {
                params: vec![
                    Tensor::from_vec(
                        (0..36).map(|i| (i as f32 - 18.0) * 0.125).collect(),
                        &[4, 9],
                    )
                    .unwrap(),
                    Tensor::from_vec(vec![-0.0, 1.5e-42, f32::MAX, 0.25], &[4]).unwrap(),
                    Tensor::from_vec(vec![0.5; 640], &[10, 64]).unwrap(),
                    Tensor::from_vec(vec![0.0; 10], &[10]).unwrap(),
                ],
            },
        }
    }

    fn assert_bitwise_equal(a: &ModelRecord, b: &ModelRecord) {
        assert_eq!(a, b);
        for (ta, tb) in a.weights.params.iter().zip(&b.weights.params) {
            assert_eq!(ta.dims(), tb.dims());
            for (va, vb) in ta.as_slice().iter().zip(tb.as_slice()) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }

    #[test]
    fn model_round_trips_bit_exactly() {
        let record = sample_record();
        let bytes = encode_model(&record).unwrap();
        assert_eq!(&bytes[..4], b"NRSM");
        let back = decode_model(&bytes).unwrap();
        assert_bitwise_equal(&back, &record);
        assert_eq!(encode_model(&back).unwrap(), bytes);
    }

    #[test]
    fn empty_and_extreme_records_round_trip() {
        let mut record = sample_record();
        record.layers.clear();
        record.weights.params.clear();
        record.noise = NoiseDesc::Clean;
        record.master_seed = u64::MAX;
        let back = decode_model(&encode_model(&record).unwrap()).unwrap();
        assert_bitwise_equal(&back, &record);
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let record = sample_record();
        let good = encode_model(&record).unwrap();
        let mut bad_magic = good.clone();
        bad_magic[1] = b'X';
        assert_eq!(
            decode_model(&bad_magic),
            Err(WireError::BadMagic { found: b'X' })
        );
        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert_eq!(
            decode_model(&bad_version),
            Err(WireError::UnsupportedVersion { found: 9 })
        );
        assert!(matches!(
            decode_model(&good[..3]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn every_truncation_of_a_model_is_a_typed_error() {
        let bytes = encode_model(&sample_record()).unwrap();
        for cut in 0..bytes.len() {
            match decode_model(&bytes[..cut]) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("prefix of {cut} bytes: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn shape_data_mismatch_and_non_f32_doubles_are_rejected() {
        let mut record = sample_record();
        record.weights.params = vec![Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap()];
        record.layers.clear();
        let mut bytes = encode_model(&record).unwrap();
        // The last 16 bytes are the two f64 values; plant a double that is
        // not an exact f32 widening (1.0 + 2^-52).
        let hostile = (1.0f64 + f64::EPSILON).to_bits().to_le_bytes();
        let n = bytes.len();
        bytes[n - 16..n - 8].copy_from_slice(&hostile);
        assert!(matches!(
            decode_model(&bytes),
            Err(WireError::InvalidPayload(_))
        ));

        // Shape/length mismatch: dims say 2 but the length word says 1.
        let good = encode_model(&record).unwrap();
        let mut short = good.clone();
        let n = short.len();
        // length word sits just before the 16 data bytes
        short[n - 20..n - 16].copy_from_slice(&1u32.to_le_bytes());
        let shorter = short[..n - 8].to_vec();
        assert!(matches!(
            decode_model(&shorter),
            Err(WireError::InvalidPayload(_))
        ));
    }

    #[test]
    fn nested_composite_noise_is_rejected_both_ways() {
        let mut record = sample_record();
        record.noise = NoiseDesc::Composite(vec![NoiseDesc::Composite(vec![])]);
        assert!(matches!(
            encode_model(&record),
            Err(WireError::InvalidPayload(_))
        ));
    }
}
