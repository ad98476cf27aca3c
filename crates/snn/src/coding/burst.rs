//! Burst coding.

use nrsnn_tensor::simd::{active_backend, encode_quant_with, quantize_value};

use crate::coding::CodingScratch;
use crate::{CodingConfig, CodingKind, NeuralCoding, Result, SnnError, SpikeRaster};

/// Largest `max_spikes` the lane-blocked encode handles exactly (see the
/// same constant in the rate coding); larger bursts — far beyond any
/// realistic configuration — take the per-value path.
const MAX_LANE_SPIKES: u32 = 1 << 24;

/// Burst coding after Park et al. (DAC 2019): an activation is transmitted
/// as a short burst of consecutive spikes, and the decoder uses the
/// inter-spike interval (ISI) to recognise which spikes belong to the burst.
///
/// * Encoding: `a ∈ [0, θ]` becomes `n = round(a/θ · N_max)` spikes at
///   consecutive time steps starting at `t = 0`.
/// * Decoding: spikes whose ISI to the previously accepted spike is at most
///   `isi_tolerance` contribute a full quantum `θ/N_max`; spikes that arrive
///   after a larger gap are treated as stragglers outside the burst and only
///   contribute a quarter of a quantum (`θ/(4·N_max)`).
///
/// Deletion therefore removes quanta gradually (like rate coding), while
/// jitter corrupts the ISI structure and devalues displaced spikes — burst
/// coding sits between rate and phase in jitter robustness, matching Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstCoding {
    max_spikes: u32,
    isi_tolerance: u32,
}

impl BurstCoding {
    /// Creates a burst coding with the default maximum burst length of 8
    /// spikes and an ISI tolerance of 2 steps.
    pub fn new() -> Self {
        BurstCoding {
            max_spikes: 8,
            isi_tolerance: 2,
        }
    }

    /// Creates a burst coding with a custom maximum burst length.
    ///
    /// # Errors
    /// Returns [`SnnError::InvalidConfig`] for a zero burst length: a burst
    /// of at most 0 spikes cannot carry a value, and silently clamping it
    /// would change the quantum `θ/N_max` behind the caller's back.
    pub fn with_max_spikes(max_spikes: u32) -> Result<Self> {
        if max_spikes == 0 {
            return Err(SnnError::InvalidConfig(
                "burst coding max_spikes must be at least 1".to_string(),
            ));
        }
        Ok(BurstCoding {
            max_spikes,
            isi_tolerance: 2,
        })
    }

    /// The maximum number of spikes per burst.
    pub fn max_spikes(&self) -> u32 {
        self.max_spikes
    }

    /// The ISI tolerance used by the decoder.
    pub fn isi_tolerance(&self) -> u32 {
        self.isi_tolerance
    }
}

impl Default for BurstCoding {
    fn default() -> Self {
        BurstCoding::new()
    }
}

impl NeuralCoding for BurstCoding {
    fn name(&self) -> String {
        "burst".to_string()
    }

    fn kind(&self) -> CodingKind {
        CodingKind::Burst
    }

    fn encode(&self, activation: f32, cfg: &CodingConfig) -> Vec<u32> {
        let mut out = Vec::new();
        self.encode_into(activation, cfg, &mut out);
        out
    }

    fn encode_into(&self, activation: f32, cfg: &CodingConfig, out: &mut Vec<u32>) {
        out.clear();
        let n = quantize_value(activation, cfg.threshold, self.max_spikes as f32) as u32;
        out.extend(0..n.min(self.max_spikes).min(cfg.time_steps));
    }

    fn encode_raster_into(
        &self,
        values: &[f32],
        cfg: &CodingConfig,
        raster: &mut SpikeRaster,
        scratch: &mut CodingScratch,
    ) {
        if self.max_spikes > MAX_LANE_SPIKES {
            raster.fill_trains(values.len(), cfg.time_steps, |i, train| {
                self.encode_into(values[i], cfg, train);
            });
            return;
        }
        scratch.lanes.clear();
        scratch.lanes.resize(values.len(), 0.0);
        encode_quant_with(
            active_backend(),
            values,
            cfg.threshold,
            self.max_spikes as f32,
            &mut scratch.lanes,
        );
        let counts = &scratch.lanes;
        let cap = self.max_spikes.min(cfg.time_steps);
        raster.fill_trains_trusted(values.len(), cfg.time_steps, |i, train| {
            train.extend(0..(counts[i] as u32).min(cap));
        });
    }

    fn decode(&self, train: &[u32], cfg: &CodingConfig) -> f32 {
        if train.is_empty() {
            return 0.0;
        }
        let quantum = cfg.threshold / self.max_spikes as f32;
        let mut sum = 0.0f32;
        let mut prev: Option<u32> = None;
        for &t in train {
            let in_burst = match prev {
                // The first spike anchors the burst; it is accepted at full
                // weight if it arrives within the tolerance of the window
                // start (bursts are emitted from t = 0 in this scheme).
                None => t <= self.isi_tolerance,
                Some(p) => t.saturating_sub(p) <= self.isi_tolerance,
            };
            sum += if in_burst { quantum } else { quantum * 0.25 };
            prev = Some(t);
        }
        sum.min(cfg.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_within_quantisation() {
        let cfg = CodingConfig::new(64, 1.0);
        let coding = BurstCoding::new();
        for v in [0.125, 0.25, 0.5, 0.75, 1.0] {
            let decoded = coding.decode(&coding.encode(v, &cfg), &cfg);
            assert!(
                (decoded - v).abs() <= 0.51 / 8.0 + 1e-5,
                "v {v} decoded {decoded}"
            );
        }
    }

    #[test]
    fn burst_is_consecutive_from_zero() {
        let cfg = CodingConfig::new(64, 1.0);
        let coding = BurstCoding::new();
        assert_eq!(coding.encode(0.5, &cfg), vec![0, 1, 2, 3]);
        assert_eq!(coding.encode(1.0, &cfg).len(), 8);
    }

    #[test]
    fn deletion_is_graded() {
        let cfg = CodingConfig::new(64, 1.0);
        let coding = BurstCoding::new();
        let spikes = coding.encode(1.0, &cfg);
        // Drop every other spike: gaps of 2 are still within tolerance, so
        // the value halves (graded loss, like rate coding).
        let kept: Vec<u32> = spikes.iter().step_by(2).copied().collect();
        let decoded = coding.decode(&kept, &cfg);
        assert!((decoded - 0.5).abs() < 0.01, "decoded {decoded}");
    }

    #[test]
    fn jitter_devalues_displaced_spikes() {
        let cfg = CodingConfig::new(64, 1.0);
        let coding = BurstCoding::new();
        let spikes = coding.encode(1.0, &cfg);
        let clean = coding.decode(&spikes, &cfg);
        // Push the second half of the burst far away: the first displaced
        // spike arrives after a gap wider than the ISI tolerance and counts
        // only a quarter quantum (the spikes after it are within tolerance of
        // it again and keep full weight).
        let jittered: Vec<u32> = spikes
            .iter()
            .map(|&t| if t >= 4 { t + 10 } else { t })
            .collect();
        let noisy = coding.decode(&jittered, &cfg);
        assert!(noisy < clean);
        assert!(noisy >= clean * 0.5);
    }

    #[test]
    fn decode_saturates_at_threshold() {
        let cfg = CodingConfig::new(64, 1.0);
        let coding = BurstCoding::new();
        // More spikes than the burst length cannot exceed θ.
        let train: Vec<u32> = (0..20).collect();
        assert!(coding.decode(&train, &cfg) <= 1.0 + 1e-6);
    }

    #[test]
    fn custom_max_spikes() {
        let coding = BurstCoding::with_max_spikes(4).unwrap();
        let cfg = CodingConfig::new(64, 1.0);
        assert_eq!(coding.encode(1.0, &cfg).len(), 4);
        assert_eq!(coding.max_spikes(), 4);
    }

    #[test]
    fn zero_max_spikes_is_a_typed_error_not_a_silent_clamp() {
        assert!(matches!(
            BurstCoding::with_max_spikes(0),
            Err(SnnError::InvalidConfig(_))
        ));
    }

    #[test]
    fn burst_never_exceeds_window() {
        let coding = BurstCoding::new();
        let cfg = CodingConfig::new(4, 1.0);
        let spikes = coding.encode(1.0, &cfg);
        assert!(spikes.len() <= 4);
        assert!(spikes.iter().all(|&t| t < 4));
    }
}
