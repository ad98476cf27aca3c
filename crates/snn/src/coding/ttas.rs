//! Time-to-average-spike (TTAS) coding — the paper's proposed coding.

use std::ops::Range;

use nrsnn_tensor::simd::{active_backend, encode_ratio_with, sum8_by, sum_gather_rows_with};

use crate::coding::ttfs::TtfsCoding;
use crate::coding::CodingScratch;
use crate::{CodingConfig, CodingKind, IfbNeuron, NeuralCoding, Result, SnnError, SpikeRaster};

/// TTAS coding: the value is carried by a *phasic burst* of `t_a` spikes
/// whose first spike falls at the TTFS time `t₁`, generated by the
/// simplified integrate-and-fire-or-burst neuron of Eq. 4.
///
/// The decoder integrates the whole burst through the same exponentially
/// decaying PSC kernel as TTFS and rescales by
///
/// ```text
/// C_A = z(t₁)/Ẑ = 1 / Σ_{k=0}^{t_a-1} exp(−k/τ)          (Eq. 5)
/// ```
///
/// which the paper folds into the synaptic weights so the burst adds no
/// computational overhead.  The redundancy of the burst gives TTAS the best
/// of both worlds the paper argues for:
///
/// * under **deletion**, the activation degrades in `t_a` discrete levels
///   concentrated near 0 and `A` — close enough to all-or-none to profit
///   from dropout-style robustness, yet graded enough for weight scaling to
///   compensate effectively (Fig. 4);
/// * under **jitter**, independent shifts of the `t_a` spikes average out,
///   unlike the single TTFS spike (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TtasCoding {
    burst_duration: u32,
}

impl TtasCoding {
    /// Creates a TTAS coding with burst duration `t_a`.
    ///
    /// # Errors
    /// Returns [`SnnError::InvalidConfig`] for `t_a = 0`: a zero-length
    /// burst encodes nothing and silently clamping it to 1 would turn TTAS
    /// into TTFS behind the caller's back (degenerate parameters are typed
    /// errors everywhere else in the workspace — e.g. the sweep levels).
    pub fn new(burst_duration: u32) -> Result<Self> {
        if burst_duration == 0 {
            return Err(SnnError::InvalidConfig(
                "TTAS burst duration t_a must be at least 1 (a zero-length burst encodes nothing)"
                    .to_string(),
            ));
        }
        Ok(TtasCoding { burst_duration })
    }

    /// Creates a TTAS coding with burst duration `max(t_a, 1)` — the
    /// *explicit*, documented clamping constructor for infallible contexts
    /// such as [`CodingKind::build`].  Prefer [`TtasCoding::new`], which
    /// rejects the degenerate duration with a typed error instead.
    pub fn clamped(burst_duration: u32) -> Self {
        TtasCoding {
            burst_duration: burst_duration.max(1),
        }
    }

    /// The target burst duration `t_a`.
    pub fn burst_duration(&self) -> u32 {
        self.burst_duration
    }

    /// The TTAS scale factor `C_A = 1 / Σ_{k<t_a} exp(−k/τ)` (Eq. 5).
    ///
    /// The terms only shrink with `k`, so once one underflows to `+0.0`
    /// every later one does too: the sum stops there, with the same bits,
    /// after at most about `104·τ` terms whatever `t_a` is.
    pub fn scale_factor(&self, cfg: &CodingConfig) -> f32 {
        let tau = cfg.ttfs_tau();
        let sum: f32 = (0..self.burst_duration)
            .map(|k| (-(k as f32) / tau).exp())
            .take_while(|&term| term > 0.0)
            .sum();
        1.0 / sum
    }

    /// The burst that starts at the first-spike time `t1`: `t_a`
    /// consecutive steps, cut at the window's end.  Saturating, so a huge
    /// `t_a` costs nothing extra and cannot wrap past `u32::MAX`.
    fn burst(&self, t1: u32, cfg: &CodingConfig) -> Range<u32> {
        t1..t1.saturating_add(self.burst_duration).min(cfg.time_steps)
    }

    /// Encodes by explicitly driving the simplified IFB neuron of Eq. 4 with
    /// a constant current chosen so its first threshold crossing happens at
    /// the TTFS spike time.  This is the hardware-oriented view of the
    /// encoder; [`NeuralCoding::encode`] produces the same train analytically
    /// and the equivalence is checked in the tests.
    pub fn encode_with_neuron(&self, activation: f32, cfg: &CodingConfig) -> Vec<u32> {
        let Some(t1) = TtfsCoding::spike_time(activation, cfg) else {
            return Vec::new();
        };
        // Constant drive that crosses a unit threshold exactly at step t1.
        let drive = 1.0 / (t1 as f32 + 1.0);
        let mut neuron = IfbNeuron::new(1.0 - 1e-6, self.burst_duration);
        let mut spikes = Vec::new();
        for t in 0..cfg.time_steps {
            if neuron.step(drive) {
                spikes.push(t);
            }
        }
        spikes
    }
}

impl NeuralCoding for TtasCoding {
    fn name(&self) -> String {
        format!("ttas({})", self.burst_duration)
    }

    fn kind(&self) -> CodingKind {
        CodingKind::Ttas(self.burst_duration)
    }

    fn encode(&self, activation: f32, cfg: &CodingConfig) -> Vec<u32> {
        match TtfsCoding::spike_time(activation, cfg) {
            Some(t1) => self.burst(t1, cfg).collect(),
            None => Vec::new(),
        }
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
            if let Some(t1) = TtfsCoding::spike_time_of_ratio(ratios[i], cfg) {
                train.extend(self.burst(t1, cfg));
            }
        });
    }

    fn decode(&self, train: &[u32], cfg: &CodingConfig) -> f32 {
        if train.is_empty() {
            return 0.0;
        }
        // Canonical lane-blocked reduction (`sum8_by`) so this per-train
        // path stays bit-identical to the SIMD-gathered tabulated path in
        // `decode_into`, whichever backend runs it.
        let sum = sum8_by(train.len(), |i| TtfsCoding::value_at(train[i], cfg));
        (self.scale_factor(cfg) * sum).min(cfg.threshold)
    }

    fn decode_into(
        &self,
        raster: &SpikeRaster,
        cfg: &CodingConfig,
        out: &mut [f32],
        scratch: &mut CodingScratch,
    ) {
        assert_eq!(out.len(), raster.num_neurons(), "one slot per neuron");
        // Hoist the burst rescaling constant C_A out of the per-train loop:
        // it is a pure function of the configuration (t_a exponentials), so
        // computing it once per raster instead of once per train yields the
        // identical f32.
        let scale = self.scale_factor(cfg);
        // When the raster carries more spikes than the window has steps,
        // tabulating the PSC kernel `value_at(t) = θ·exp(−t/τ)` once (T
        // exps into the reusable scratch) beats one exp per spike; table
        // lookups are bit-identical to direct evaluation, and the
        // SIMD-gathered row sums (`sum_gather_rows_with`, one call for the
        // whole raster) reduce every train in the same canonical
        // lane-blocked order as the `sum8_by` used by the direct path and
        // `decode` — so all paths agree bitwise on every backend.  A silent
        // train sums to `+0.0`, and `C_A · +0.0` clamps to `+0.0`, the
        // empty-train contract.
        if raster.total_spikes() > raster.num_steps() as usize {
            scratch.kernel.clear();
            scratch
                .kernel
                .extend((0..raster.num_steps()).map(|t| TtfsCoding::value_at(t, cfg)));
            sum_gather_rows_with(
                active_backend(),
                &scratch.kernel,
                raster.times(),
                raster.offsets(),
                out,
            );
            for slot in out.iter_mut() {
                *slot = (scale * *slot).min(cfg.threshold);
            }
            return;
        }
        for (slot, (_, train)) in out.iter_mut().zip(raster.iter()) {
            *slot = if train.is_empty() {
                0.0
            } else {
                let sum = sum8_by(train.len(), |i| TtfsCoding::value_at(train[i], cfg));
                (scale * sum).min(cfg.threshold)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_burst_duration_is_a_typed_error_not_a_silent_clamp() {
        assert!(matches!(
            TtasCoding::new(0),
            Err(SnnError::InvalidConfig(_))
        ));
        // The explicit clamping constructor is the documented opt-in.
        assert_eq!(TtasCoding::clamped(0).burst_duration(), 1);
        assert_eq!(TtasCoding::clamped(7).burst_duration(), 7);
    }

    #[test]
    fn round_trip_matches_ttfs_accuracy() {
        let cfg = CodingConfig::new(128, 1.0);
        for duration in [1u32, 2, 3, 5, 10] {
            let coding = TtasCoding::new(duration).unwrap();
            for v in [0.9, 0.5, 0.2, 0.05] {
                let decoded = coding.decode(&coding.encode(v, &cfg), &cfg);
                let rel = (decoded - v).abs() / v;
                assert!(rel < 0.1, "ta {duration} v {v} decoded {decoded}");
            }
        }
    }

    #[test]
    fn burst_has_requested_length() {
        let cfg = CodingConfig::new(128, 1.0);
        let coding = TtasCoding::new(5).unwrap();
        assert_eq!(coding.encode(0.8, &cfg).len(), 5);
        // Bursts are consecutive starting at the TTFS time.
        let spikes = coding.encode(0.8, &cfg);
        for w in spikes.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn ttas_of_duration_one_equals_ttfs() {
        let cfg = CodingConfig::new(128, 1.0);
        let ttas = TtasCoding::new(1).unwrap();
        let ttfs = TtfsCoding::new();
        for v in [0.7, 0.3, 0.1] {
            assert_eq!(ttas.encode(v, &cfg), ttfs.encode(v, &cfg));
            let decoded_a = ttas.decode(&ttas.encode(v, &cfg), &cfg);
            let decoded_f = ttfs.decode(&ttfs.encode(v, &cfg), &cfg);
            assert!((decoded_a - decoded_f).abs() < 1e-5);
        }
    }

    #[test]
    fn neuron_encoder_matches_analytic_encoder() {
        let cfg = CodingConfig::new(64, 1.0);
        let coding = TtasCoding::new(4).unwrap();
        for v in [0.9, 0.5, 0.25, 0.1] {
            let analytic = coding.encode(v, &cfg);
            let neuron = coding.encode_with_neuron(v, &cfg);
            assert_eq!(analytic, neuron, "value {v}");
        }
    }

    #[test]
    fn scale_factor_follows_eq5() {
        let cfg = CodingConfig::new(100, 1.0);
        let tau = cfg.ttfs_tau();
        let coding = TtasCoding::new(3).unwrap();
        let expected = 1.0 / (1.0 + (-1.0 / tau).exp() + (-2.0 / tau).exp());
        assert!((coding.scale_factor(&cfg) - expected).abs() < 1e-6);
        // Duration 1 → no rescaling.
        assert!((TtasCoding::new(1).unwrap().scale_factor(&cfg) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn deletion_degrades_in_discrete_levels() {
        let cfg = CodingConfig::new(128, 1.0);
        let coding = TtasCoding::new(4).unwrap();
        let spikes = coding.encode(0.8, &cfg);
        let full = coding.decode(&spikes, &cfg);
        let three = coding.decode(&spikes[..3], &cfg);
        let one = coding.decode(&spikes[..1], &cfg);
        assert!(full > three && three > one && one > 0.0);
        // Losing one of four spikes keeps most of the value.
        assert!(three > 0.6 * full);
    }

    #[test]
    fn jitter_is_averaged_compared_to_ttfs() {
        let cfg = CodingConfig::new(128, 1.0);
        let ttas = TtasCoding::new(10).unwrap();
        let ttfs = TtfsCoding::new();
        let v = 0.6;
        let ttas_spikes = ttas.encode(v, &cfg);
        let ttfs_spikes = ttfs.encode(v, &cfg);
        // Shift half the TTAS spikes forward and half backward by 4 steps;
        // shift the single TTFS spike forward by 4.
        let jittered_ttas: Vec<u32> = ttas_spikes
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                if i % 2 == 0 {
                    t + 4
                } else {
                    t.saturating_sub(4)
                }
            })
            .collect();
        let jittered_ttfs: Vec<u32> = ttfs_spikes.iter().map(|&t| t + 4).collect();
        let ttas_err = (ttas.decode(&jittered_ttas, &cfg) - v).abs();
        let ttfs_err = (ttfs.decode(&jittered_ttfs, &cfg) - v).abs();
        assert!(
            ttas_err < ttfs_err,
            "ttas err {ttas_err} should be below ttfs err {ttfs_err}"
        );
    }

    /// The tabulated decode path (taken when a raster carries more spikes
    /// than window steps) must be bit-identical to per-train `decode`.
    #[test]
    fn tabulated_decode_matches_per_train_decode_bitwise() {
        let cfg = CodingConfig::new(32, 1.0);
        let coding = TtasCoding::new(5).unwrap();
        // 40 neurons x ~5 spikes >> 32 steps: forces the table path.
        let values: Vec<f32> = (0..40).map(|i| (i % 10) as f32 / 10.0).collect();
        let trains: Vec<Vec<u32>> = values.iter().map(|&v| coding.encode(v, &cfg)).collect();
        let raster = SpikeRaster::from_trains(trains, cfg.time_steps);
        assert!(raster.total_spikes() > raster.num_steps() as usize);

        let mut out = vec![0.0f32; raster.num_neurons()];
        let mut scratch = CodingScratch::new();
        scratch.kernel = vec![7.0f32; 2]; // dirty: must be rebuilt
        coding.decode_into(&raster, &cfg, &mut out, &mut scratch);
        let reference: Vec<u32> = (0..raster.num_neurons())
            .map(|n| coding.decode(raster.train(n), &cfg).to_bits())
            .collect();
        assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference
        );
        // A small raster takes the direct path and must agree too.
        let small = SpikeRaster::from_trains(vec![coding.encode(0.7, &cfg)], cfg.time_steps);
        coding.decode_into(&small, &cfg, &mut out[..1], &mut scratch);
        assert_eq!(
            out[0].to_bits(),
            coding.decode(small.train(0), &cfg).to_bits()
        );
    }

    /// A burst longer than the window is cut at the window's end, so
    /// `t_a = u32::MAX` encodes exactly what `t_a = T` does — through both
    /// encoders, in order, without counting to `u32::MAX` or wrapping past
    /// it — and its C_A stops summing once the terms underflow.
    #[test]
    fn huge_burst_duration_encodes_like_a_full_window_burst() {
        let cfg = CodingConfig::new(64, 1.0);
        let huge = TtasCoding::new(u32::MAX).unwrap();
        let window = TtasCoding::new(cfg.time_steps).unwrap();
        let values = [0.0f32, 0.05, 0.3, 0.5, 1.0, 2.0];
        let mut raster = SpikeRaster::new(0, 1);
        huge.encode_raster_into(&values, &cfg, &mut raster, &mut CodingScratch::new());
        for (n, &v) in values.iter().enumerate() {
            let expected = window.encode(v, &cfg);
            assert_eq!(huge.encode(v, &cfg), expected, "encode, value {v}");
            assert_eq!(raster.train(n), expected, "encode_raster_into, value {v}");
        }
        assert_eq!(
            huge.scale_factor(&cfg).to_bits(),
            TtasCoding::new(4096).unwrap().scale_factor(&cfg).to_bits()
        );
    }

    #[test]
    fn burst_truncated_at_window_end() {
        let cfg = CodingConfig::new(16, 1.0);
        let coding = TtasCoding::new(10).unwrap();
        // A tiny value spikes late; the burst must not leave the window.
        let spikes = coding.encode(0.12, &cfg);
        assert!(!spikes.is_empty());
        assert!(spikes.iter().all(|&t| t < 16));
    }
}
