//! Phase coding (weighted spikes).

use nrsnn_tensor::simd::{active_backend, phase_bits_value, phase_bits_with, phase_pow2_sum_with};

use crate::coding::CodingScratch;
use crate::{CodingConfig, CodingKind, NeuralCoding, Result, SnnError, SpikeRaster};

/// Largest period whose every phase can stay silent.  Phase `k` fires when
/// the remainder clears `2^-(k+1) − 1e-6`, and that threshold turns
/// negative from `k = 19` on (`2^-20 < 1e-6`): a period of 20 or more would
/// fire its trailing phases for every value, emitting spikes the value does
/// not contain.
const MAX_PERIOD: u32 = 19;

/// Bounds for the precomputed train table the block encode uses: with
/// `period ≤ 8` there are at most 256 distinct bit patterns, so every
/// canonical train for a fixed window is tabulated once (≤ 1 MiB at the
/// step cap, ~48 KiB at the paper's windows) and each neuron's train
/// becomes a single `extend_from_slice`.
const PHASE_TABLE_MAX_PERIOD: u32 = 8;
const PHASE_TABLE_MAX_STEPS: u32 = 2048;

/// Phase coding after Kim et al. ("Deep neural networks with weighted
/// spikes"): time is divided into periods of `period` steps driven by a
/// global oscillator, and a spike in phase `k` of a period carries the
/// binary weight `2^-(k+1)`.
///
/// An activation is encoded as its fixed-point binary expansion: the same
/// phase pattern is repeated in every period of the window, and the decoder
/// averages over periods.  Because the synaptic weight of a spike depends on
/// its phase, a one-step jitter changes the contribution of a spike by a
/// factor of two — phase coding is therefore efficient but fragile to jitter
/// (Fig. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCoding {
    period: u32,
}

impl PhaseCoding {
    /// Creates a phase coding with the canonical period of 8 phases.
    pub fn new() -> Self {
        PhaseCoding { period: 8 }
    }

    /// Creates a phase coding with a custom period (number of phases).
    ///
    /// # Errors
    /// Returns [`SnnError::InvalidConfig`] for a zero period — a period of
    /// 0 phases carries no bits, and silently clamping it would change the
    /// coding's resolution behind the caller's back — and for a period
    /// above 19, whose trailing phases would fire for every value (their
    /// firing threshold `2^-(k+1) − 1e-6` is negative).
    pub fn with_period(period: u32) -> Result<Self> {
        if period == 0 || period > MAX_PERIOD {
            return Err(SnnError::InvalidConfig(format!(
                "phase coding period must be in 1..={MAX_PERIOD} phases, got {period}"
            )));
        }
        Ok(PhaseCoding { period })
    }

    /// The number of phases per period.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// The weighted-spike sum of a train as an exact integer: spike at
    /// phase `k` contributes `2^(period-1-k)`, i.e. the float sum
    /// `Σ 2^-(k+1)` scaled by `2^period`.  Integer addition is exact and
    /// associative, so this is independent of spike order, accumulation
    /// strategy and ISA by construction — the decoded value rounds exactly
    /// once, in [`PhaseCoding::scale_exact`].  With at most 19 phases a
    /// spike adds at most `2^18`, so even a train with a spike on every
    /// step of the longest valid window (`2^24`) stays below `2^42`.
    /// Exactness also frees the accumulation *shape*: power-of-two periods
    /// (the canonical 8, and every `with_period` of 1/2/4/16) dispatch to
    /// the runtime-selected [`phase_pow2_sum_with`] kernel — per-lane
    /// variable shifts on AVX2, unrolled scalar otherwise — which returns
    /// the identical `u64` on every ISA without any canonical-order
    /// machinery.
    fn weighted_sum_exact(&self, train: &[u32]) -> u64 {
        if self.period.is_power_of_two() {
            phase_pow2_sum_with(active_backend(), train, self.period - 1)
        } else {
            let top = self.period - 1;
            train
                .iter()
                .fold(0u64, |s, &t| s + (1u64 << (top - (t % self.period))))
        }
    }

    /// Scales an exact integer spike sum to the decoded activation:
    /// `θ · (s / 2^period) / num_periods`, evaluated in f64 (both factors
    /// of the denominator are exact) and rounded to f32 once.
    fn scale_exact(&self, s: u64, cfg: &CodingConfig) -> f32 {
        let denom = ((1u64 << self.period) * u64::from(self.num_periods(cfg))) as f64;
        (f64::from(cfg.threshold) * (s as f64) / denom) as f32
    }

    fn num_periods(&self, cfg: &CodingConfig) -> u32 {
        (cfg.time_steps / self.period).max(1)
    }

    /// Fills the per-phase weight (`2^-(k+1)`) and firing-threshold
    /// (`w_k − 1e-6`) tables the bit-pattern kernel consumes.
    fn fill_weight_tables(&self, weights: &mut Vec<f32>, thresholds: &mut Vec<f32>) {
        weights.clear();
        thresholds.clear();
        for k in 0..self.period {
            let w = 0.5f32.powi(k as i32 + 1);
            weights.push(w);
            thresholds.push(w - 1e-6);
        }
    }

    /// Replays one period's bit pattern across every period of the window:
    /// bit `k` of `bits` fires at `p·period + k`, times emitted strictly
    /// ascending and filtered to the window.  The pattern is decomposed
    /// into its set phases once, then replayed per period through
    /// `chunks_exact_mut` — straight adds and stores with no per-spike
    /// bounds or capacity checks (train materialisation is the scalar tail
    /// of the lane-blocked encode, so this loop is the hot path).  A
    /// window of at least one period never clips (`base + k < T` holds for
    /// every complete period), so the `t < T` filter only guards windows
    /// shorter than a single period.
    fn emit_bits(&self, bits: u64, cfg: &CodingConfig, out: &mut Vec<u32>) {
        if bits == 0 {
            return;
        }
        let mut phases = [0u32; MAX_PERIOD as usize];
        let mut m = 0usize;
        let mut b = bits;
        while b != 0 {
            phases[m] = b.trailing_zeros();
            m += 1;
            b &= b - 1;
        }
        let phases = &phases[..m];
        let periods = self.num_periods(cfg);
        let full = if self.period <= cfg.time_steps {
            periods
        } else {
            0
        };
        let start = out.len();
        out.resize(start + full as usize * m, 0);
        for (p, chunk) in out[start..].chunks_exact_mut(m).enumerate() {
            let base = p as u32 * self.period;
            for (slot, &k) in chunk.iter_mut().zip(phases) {
                *slot = base + k;
            }
        }
        for p in full..periods {
            let base = p * self.period;
            for &k in phases {
                let t = base + k;
                if t < cfg.time_steps {
                    out.push(t);
                }
            }
        }
    }
}

impl Default for PhaseCoding {
    fn default() -> Self {
        PhaseCoding::new()
    }
}

impl NeuralCoding for PhaseCoding {
    fn name(&self) -> String {
        "phase".to_string()
    }

    fn kind(&self) -> CodingKind {
        CodingKind::Phase
    }

    fn encode(&self, activation: f32, cfg: &CodingConfig) -> Vec<u32> {
        let (mut weights, mut thresholds) = (Vec::new(), Vec::new());
        self.fill_weight_tables(&mut weights, &mut thresholds);
        let bits = phase_bits_value(activation, cfg.threshold, &weights, &thresholds);
        let mut out = Vec::new();
        self.emit_bits(bits, cfg, &mut out);
        out
    }

    fn encode_raster_into(
        &self,
        values: &[f32],
        cfg: &CodingConfig,
        raster: &mut SpikeRaster,
        scratch: &mut CodingScratch,
    ) {
        self.fill_weight_tables(&mut scratch.weights, &mut scratch.thresholds);
        scratch.bits.clear();
        scratch.bits.resize(values.len(), 0);
        phase_bits_with(
            active_backend(),
            values,
            cfg.threshold,
            &scratch.weights,
            &scratch.thresholds,
            &mut scratch.bits,
        );
        if self.period <= PHASE_TABLE_MAX_PERIOD && cfg.time_steps <= PHASE_TABLE_MAX_STEPS {
            let key = Some((CodingKind::Phase, cfg.time_steps, self.period));
            if scratch.train_key != key {
                scratch.train_table.clear();
                scratch.train_offsets.clear();
                scratch.train_offsets.push(0);
                for pattern in 0..(1u64 << self.period) {
                    self.emit_bits(pattern, cfg, &mut scratch.train_table);
                    scratch.train_offsets.push(scratch.train_table.len() as u32);
                }
                scratch.train_key = key;
            }
            let bits = &scratch.bits;
            let (table, offsets) = (&scratch.train_table, &scratch.train_offsets);
            raster.fill_trains(values.len(), cfg.time_steps, |i, train| {
                let b = bits[i] as usize;
                train.extend_from_slice(&table[offsets[b] as usize..offsets[b + 1] as usize]);
            });
            return;
        }
        let bits = &scratch.bits;
        raster.fill_trains(values.len(), cfg.time_steps, |i, train| {
            self.emit_bits(bits[i], cfg, train);
        });
    }

    fn decode(&self, train: &[u32], cfg: &CodingConfig) -> f32 {
        if train.is_empty() {
            // A silent neuron decodes to exactly +0.0 (the NeuralCoding
            // contract), with no kernel call.
            return 0.0;
        }
        self.scale_exact(self.weighted_sum_exact(train), cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_within_quantisation() {
        let cfg = CodingConfig::new(128, 1.0);
        let coding = PhaseCoding::new();
        for v in [0.1, 0.3, 0.5, 0.75, 0.99] {
            let decoded = coding.decode(&coding.encode(v, &cfg), &cfg);
            // 8-bit expansion: resolution 1/256.
            assert!((decoded - v).abs() < 0.01, "v {v} decoded {decoded}");
        }
    }

    #[test]
    fn half_is_a_single_spike_per_period() {
        let cfg = CodingConfig::new(16, 1.0);
        let coding = PhaseCoding::new();
        let spikes = coding.encode(0.5, &cfg);
        // 0.5 = MSB only; two periods of 8 in a 16-step window.
        assert_eq!(spikes, vec![0, 8]);
    }

    #[test]
    fn one_step_jitter_changes_decoded_value_substantially() {
        let cfg = CodingConfig::new(8, 1.0);
        let coding = PhaseCoding::new();
        let spikes = coding.encode(0.5, &cfg); // spike at phase 0
        let jittered: Vec<u32> = spikes.iter().map(|&t| t + 1).collect();
        let clean = coding.decode(&spikes, &cfg);
        let noisy = coding.decode(&jittered, &cfg);
        // Weight halves: 0.5 -> 0.25.
        assert!((clean - 0.5).abs() < 1e-5);
        assert!((noisy - 0.25).abs() < 1e-5);
    }

    #[test]
    fn deletion_is_graded() {
        let cfg = CodingConfig::new(64, 1.0);
        let coding = PhaseCoding::new();
        let spikes = coding.encode(0.9, &cfg);
        // Remove one period's worth of spikes: value drops by ~1/num_periods.
        let kept: Vec<u32> = spikes.iter().copied().filter(|&t| t >= 8).collect();
        let decoded = coding.decode(&kept, &cfg);
        let expected = 0.9 * 7.0 / 8.0;
        assert!((decoded - expected).abs() < 0.02, "decoded {decoded}");
    }

    #[test]
    fn custom_period_is_respected() {
        let coding = PhaseCoding::with_period(4).unwrap();
        assert_eq!(coding.period(), 4);
        let cfg = CodingConfig::new(16, 1.0);
        let spikes = coding.encode(0.5, &cfg);
        assert_eq!(spikes.len(), 4); // one MSB spike per 4-step period
    }

    #[test]
    fn zero_period_is_a_typed_error_not_a_silent_clamp() {
        assert!(matches!(
            PhaseCoding::with_period(0),
            Err(SnnError::InvalidConfig(_))
        ));
    }

    #[test]
    fn periods_are_capped_at_nineteen_phases() {
        // Period 19 is the longest whose every phase threshold is positive:
        // an exact 0.5 is the MSB alone, one spike per period, through both
        // encoders.
        let coding = PhaseCoding::with_period(19).unwrap();
        let cfg = CodingConfig::new(38, 1.0);
        assert_eq!(coding.encode(0.5, &cfg), vec![0, 19]);
        let mut raster = SpikeRaster::new(0, 1);
        coding.encode_raster_into(&[0.5, 0.0], &cfg, &mut raster, &mut CodingScratch::new());
        assert_eq!(raster.train(0), &[0, 19]);
        assert!(raster.train(1).is_empty());
        assert!((coding.decode(raster.train(0), &cfg) - 0.5).abs() < 1e-6);
        // From period 20 on, phase 19's threshold 2^-20 - 1e-6 is negative
        // and it would fire for every value: rejected.
        for period in [20, 64, 100] {
            assert!(matches!(
                PhaseCoding::with_period(period),
                Err(SnnError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn clipping_at_threshold() {
        let cfg = CodingConfig::new(64, 1.2);
        let coding = PhaseCoding::new();
        let decoded = coding.decode(&coding.encode(5.0, &cfg), &cfg);
        assert!(decoded <= 1.2 + 1e-5);
        assert!(decoded > 1.1);
    }
}
