//! Time-to-first-spike (TTFS) coding.

use nrsnn_tensor::simd::{active_backend, clamp_ratio, encode_ratio_with};

use crate::coding::CodingScratch;
use crate::{CodingConfig, CodingKind, NeuralCoding, SpikeRaster};

/// TTFS coding after Park et al. ("T2FSNN", DAC 2020): a single spike whose
/// *time* carries the value through an exponentially decaying PSC kernel,
///
/// ```text
/// encode:  t_f = round(−τ · ln(a/θ))       (clamped to the window)
/// decode:  a   = θ · exp(−t_f/τ)
/// ```
///
/// One spike per activation makes TTFS the most efficient coding by far, but
/// also:
///
/// * **all-or-none under deletion** — losing the one spike deletes the whole
///   activation (decoded value 0 or `A`, never in between), which combined
///   with dropout-trained source DNNs makes TTFS the most deletion-robust
///   baseline (Fig. 2);
/// * **fragile under jitter** — a shift of Δ steps multiplies the decoded
///   value by `exp(−Δ/τ)` (Fig. 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TtfsCoding;

impl TtfsCoding {
    /// Creates a TTFS coding.
    pub fn new() -> Self {
        TtfsCoding
    }

    /// The spike time encoding a value `v ∈ (0, θ]`, or `None` for values too
    /// small to be represented within the window.
    pub fn spike_time(value: f32, cfg: &CodingConfig) -> Option<u32> {
        TtfsCoding::spike_time_of_ratio(clamp_ratio(value, cfg.threshold), cfg)
    }

    /// [`TtfsCoding::spike_time`] from a precomputed clamped activation
    /// ratio `min(max(v, 0), θ)/θ` — the quantity the lane-blocked encode
    /// computes 8 neurons at a time; only the logarithm below stays
    /// per-neuron scalar.
    pub(crate) fn spike_time_of_ratio(ratio: f32, cfg: &CodingConfig) -> Option<u32> {
        if ratio <= 0.0 {
            return None;
        }
        let tau = cfg.ttfs_tau();
        let t = (-tau * ratio.ln()).round();
        if t >= cfg.time_steps as f32 {
            // Too small to represent: the spike would fall outside the window.
            return None;
        }
        Some(t.max(0.0) as u32)
    }

    /// The value carried by a spike at time `t`.
    pub fn value_at(t: u32, cfg: &CodingConfig) -> f32 {
        cfg.threshold * (-(t as f32) / cfg.ttfs_tau()).exp()
    }
}

impl NeuralCoding for TtfsCoding {
    fn name(&self) -> String {
        "ttfs".to_string()
    }

    fn kind(&self) -> CodingKind {
        CodingKind::Ttfs
    }

    fn encode(&self, activation: f32, cfg: &CodingConfig) -> Vec<u32> {
        TtfsCoding::spike_time(activation, cfg)
            .into_iter()
            .collect()
    }

    fn encode_raster_into(
        &self,
        values: &[f32],
        cfg: &CodingConfig,
        raster: &mut SpikeRaster,
        scratch: &mut CodingScratch,
    ) {
        scratch.lanes.clear();
        scratch.lanes.resize(values.len(), 0.0);
        encode_ratio_with(active_backend(), values, cfg.threshold, &mut scratch.lanes);
        let ratios = &scratch.lanes;
        raster.fill_trains(values.len(), cfg.time_steps, |i, train| {
            if let Some(t) = TtfsCoding::spike_time_of_ratio(ratios[i], cfg) {
                train.push(t);
            }
        });
    }

    fn decode(&self, train: &[u32], cfg: &CodingConfig) -> f32 {
        // Only the first spike carries information in TTFS.
        match train.first() {
            Some(&t) => TtfsCoding::value_at(t, cfg),
            None => 0.0,
        }
    }

    fn decode_into(
        &self,
        raster: &SpikeRaster,
        cfg: &CodingConfig,
        out: &mut [f32],
        scratch: &mut CodingScratch,
    ) {
        assert_eq!(out.len(), raster.num_neurons(), "one slot per neuron");
        // With more active trains than time steps it is cheaper to tabulate
        // `value_at` once per step than to exp once per train; below that
        // the per-train evaluation wins.  Both read the same expression, so
        // the choice is invisible in the output bits.
        let tabulate = raster.total_spikes() > raster.num_steps() as usize;
        if tabulate {
            scratch.kernel.clear();
            scratch
                .kernel
                .extend((0..raster.num_steps()).map(|t| TtfsCoding::value_at(t, cfg)));
        }
        for (slot, (_, train)) in out.iter_mut().zip(raster.iter()) {
            *slot = match train.first() {
                Some(&t) if tabulate => scratch.kernel[t as usize],
                Some(&t) => TtfsCoding::value_at(t, cfg),
                None => 0.0,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_across_the_dynamic_range() {
        let cfg = CodingConfig::new(128, 1.0);
        let coding = TtfsCoding::new();
        for v in [1.0, 0.7, 0.5, 0.2, 0.05] {
            let decoded = coding.decode(&coding.encode(v, &cfg), &cfg);
            let rel = (decoded - v).abs() / v;
            assert!(rel < 0.1, "v {v} decoded {decoded}");
        }
    }

    #[test]
    fn exactly_one_spike_per_value() {
        let cfg = CodingConfig::new(128, 1.0);
        let coding = TtfsCoding::new();
        assert_eq!(coding.encode(0.9, &cfg).len(), 1);
        assert_eq!(coding.encode(0.02, &cfg).len(), 1);
        assert!(coding.encode(0.0, &cfg).is_empty());
    }

    #[test]
    fn larger_values_spike_earlier() {
        let cfg = CodingConfig::new(128, 1.0);
        let big = TtfsCoding::spike_time(0.9, &cfg).unwrap();
        let small = TtfsCoding::spike_time(0.1, &cfg).unwrap();
        assert!(big < small);
        assert_eq!(TtfsCoding::spike_time(1.0, &cfg).unwrap(), 0);
    }

    #[test]
    fn values_below_dynamic_range_are_silent() {
        let cfg = CodingConfig::new(32, 1.0);
        // Values far below exp(-(T-1)/τ) cannot be placed within the window.
        assert!(TtfsCoding::spike_time(1e-12, &cfg).is_none());
    }

    #[test]
    fn deletion_is_all_or_none() {
        let cfg = CodingConfig::new(128, 1.0);
        let coding = TtfsCoding::new();
        let spikes = coding.encode(0.6, &cfg);
        assert!((coding.decode(&spikes, &cfg) - 0.6).abs() < 0.06);
        assert_eq!(coding.decode(&[], &cfg), 0.0);
    }

    #[test]
    fn jitter_scales_value_exponentially() {
        let cfg = CodingConfig::new(128, 1.0);
        let coding = TtfsCoding::new();
        let t = TtfsCoding::spike_time(0.5, &cfg).unwrap();
        let clean = coding.decode(&[t], &cfg);
        let shifted = coding.decode(&[t + 5], &cfg);
        let expected_ratio = (-(5.0) / cfg.ttfs_tau()).exp();
        assert!(((shifted / clean) - expected_ratio).abs() < 1e-3);
        assert!(shifted < clean);
    }

    #[test]
    fn clipping_at_threshold() {
        let cfg = CodingConfig::new(128, 0.8);
        let coding = TtfsCoding::new();
        let decoded = coding.decode(&coding.encode(2.0, &cfg), &cfg);
        assert!((decoded - 0.8).abs() < 1e-5);
    }
}
