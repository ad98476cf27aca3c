//! Rate coding.

use nrsnn_tensor::simd::{active_backend, encode_quant_with, quantize_value, scale_ratio_with};

use crate::coding::CodingScratch;
use crate::{CodingConfig, CodingKind, NeuralCoding, SpikeRaster};

/// Largest window for which the block encode precomputes all `T+1`
/// canonical trains (one per possible spike count) and materialises each
/// neuron's train as a single `extend_from_slice`.  The table holds
/// `T·(T+1)/2` spike times — ~2 MiB of `u32` at the cap, L1-resident at
/// the paper's windows — and amortises over every row encoded with the
/// same window.  Wider windows fall back to direct Bresenham emission.
const RATE_TABLE_MAX_STEPS: u32 = 1024;

/// Rate coding: an activation `a ∈ [0, θ]` is represented by
/// `n = round(a/θ · T)` spikes spread evenly over the window, and decoded as
/// `n·θ/T`.
///
/// The PSC kernel is constant, so the decoded value depends only on *how
/// many* spikes arrive, never on *when* — which is why rate coding is
/// insensitive to jitter but pays for it with the largest spike counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RateCoding;

impl RateCoding {
    /// Creates a rate coding.
    pub fn new() -> Self {
        RateCoding
    }
}

/// Emits `n` spikes at times `floor(k·t/n)` for `k = 0..n` — the canonical
/// evenly-spread rate train — without the per-spike 64-bit multiply/divide:
/// `floor((k+1)·t/n) − floor(k·t/n)` is `⌊t/n⌋` plus one carry whenever the
/// running remainder of `k·(t mod n)` wraps past `n` (Bresenham), so the
/// loop is two adds and a compare per spike.  The carry is applied
/// branchlessly (the carry pattern has an irregular period, so a branch
/// here mispredicts constantly) and the train is written through the
/// vector's spare capacity — no per-spike capacity/length bookkeeping and
/// no zero-fill pass (train materialisation is the scalar tail of the
/// lane-blocked encode, so this loop is the hot path).  Times are strictly
/// increasing (`n ≤ t` implies a step of at least 1) and below `t`.
fn emit_evenly(n: u32, t: u32, out: &mut Vec<u32>) {
    if n == 0 {
        return;
    }
    let step = t / n;
    let rem = u64::from(t % n);
    let den = u64::from(n);
    let mut time = 0u32;
    let mut err = 0u64;
    let start = out.len();
    out.reserve(n as usize);
    for slot in &mut out.spare_capacity_mut()[..n as usize] {
        slot.write(time);
        let carry = u32::from(err + rem >= den);
        err = (err + rem) - u64::from(carry) * den;
        time += step + carry;
    }
    // SAFETY: the `n` elements past `start` were just initialised above,
    // inside capacity guaranteed by the `reserve`.
    unsafe { out.set_len(start + n as usize) };
}

/// The per-value spike count: `min(round(min(max(a,0),θ)/θ · T), T)` via the
/// canonical [`quantize_value`] the lane kernel mirrors bit for bit.
fn spike_count(activation: f32, cfg: &CodingConfig) -> u32 {
    (quantize_value(activation, cfg.threshold, cfg.time_steps as f32) as u32).min(cfg.time_steps)
}

impl NeuralCoding for RateCoding {
    fn name(&self) -> String {
        "rate".to_string()
    }

    fn kind(&self) -> CodingKind {
        CodingKind::Rate
    }

    fn encode(&self, activation: f32, cfg: &CodingConfig) -> Vec<u32> {
        let mut out = Vec::new();
        emit_evenly(spike_count(activation, cfg), cfg.time_steps, &mut out);
        out
    }

    fn encode_raster_into(
        &self,
        values: &[f32],
        cfg: &CodingConfig,
        raster: &mut SpikeRaster,
        scratch: &mut CodingScratch,
    ) {
        let t = cfg.time_steps;
        scratch.lanes.clear();
        scratch.lanes.resize(values.len(), 0.0);
        encode_quant_with(
            active_backend(),
            values,
            cfg.threshold,
            t as f32,
            &mut scratch.lanes,
        );
        if t <= RATE_TABLE_MAX_STEPS {
            let key = Some((CodingKind::Rate, t, 0));
            if scratch.train_key != key {
                scratch.train_table.clear();
                scratch.train_offsets.clear();
                scratch.train_offsets.push(0);
                for n in 0..=t {
                    emit_evenly(n, t, &mut scratch.train_table);
                    scratch.train_offsets.push(scratch.train_table.len() as u32);
                }
                scratch.train_key = key;
            }
            let counts = &scratch.lanes;
            let (table, offsets) = (&scratch.train_table, &scratch.train_offsets);
            raster.fill_trains(values.len(), t, |i, train| {
                let n = (counts[i] as u32).min(t) as usize;
                train.extend_from_slice(&table[offsets[n] as usize..offsets[n + 1] as usize]);
            });
            return;
        }
        let counts = &scratch.lanes;
        raster.fill_trains(values.len(), t, |i, train| {
            emit_evenly((counts[i] as u32).min(t), t, train);
        });
    }

    fn decode(&self, train: &[u32], cfg: &CodingConfig) -> f32 {
        train.len() as f32 * cfg.threshold / cfg.time_steps as f32
    }

    fn decode_into(
        &self,
        raster: &SpikeRaster,
        cfg: &CodingConfig,
        out: &mut [f32],
        _scratch: &mut CodingScratch,
    ) {
        assert_eq!(out.len(), raster.num_neurons(), "one slot per neuron");
        for (slot, (_, train)) in out.iter_mut().zip(raster.iter()) {
            *slot = train.len() as f32;
        }
        scale_ratio_with(active_backend(), out, cfg.threshold, cfg.time_steps as f32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_values() {
        let cfg = CodingConfig::new(100, 1.0);
        let coding = RateCoding::new();
        for v in [0.0, 0.1, 0.25, 0.5, 0.73, 1.0] {
            let decoded = coding.decode(&coding.encode(v, &cfg), &cfg);
            assert!((decoded - v).abs() <= 0.01, "v {v} decoded {decoded}");
        }
    }

    #[test]
    fn values_above_threshold_are_clipped() {
        let cfg = CodingConfig::new(100, 0.4);
        let coding = RateCoding::new();
        let decoded = coding.decode(&coding.encode(0.9, &cfg), &cfg);
        assert!((decoded - 0.4).abs() < 1e-5);
    }

    #[test]
    fn spike_count_is_proportional_to_value() {
        let cfg = CodingConfig::new(200, 1.0);
        let coding = RateCoding::new();
        assert_eq!(coding.encode(0.5, &cfg).len(), 100);
        assert_eq!(coding.encode(1.0, &cfg).len(), 200);
        assert_eq!(coding.encode(0.0, &cfg).len(), 0);
    }

    #[test]
    fn spikes_are_within_window_and_unique() {
        let cfg = CodingConfig::new(64, 1.0);
        let coding = RateCoding::new();
        let spikes = coding.encode(0.8, &cfg);
        assert!(spikes.iter().all(|&t| t < 64));
        let mut dedup = spikes.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), spikes.len());
    }

    #[test]
    fn evenly_spread_emission_matches_direct_formula() {
        for (n, t) in [
            (1u32, 1u32),
            (3, 7),
            (7, 7),
            (13, 64),
            (100, 200),
            (200, 200),
        ] {
            let mut fast = Vec::new();
            emit_evenly(n, t, &mut fast);
            let direct: Vec<u32> = (0..n)
                .map(|k| (u64::from(k) * u64::from(t) / u64::from(n)) as u32)
                .collect();
            assert_eq!(fast, direct, "n={n} t={t}");
        }
    }

    #[test]
    fn decode_ignores_spike_timing() {
        // Shifting all spikes must not change the decoded value: this is the
        // mechanism behind rate coding's jitter robustness (Fig. 3).
        let cfg = CodingConfig::new(100, 1.0);
        let coding = RateCoding::new();
        let spikes = coding.encode(0.4, &cfg);
        let shifted: Vec<u32> = spikes.iter().map(|&t| (t + 7).min(99)).collect();
        assert_eq!(coding.decode(&spikes, &cfg), coding.decode(&shifted, &cfg));
    }

    #[test]
    fn deleting_half_the_spikes_halves_the_value() {
        let cfg = CodingConfig::new(100, 1.0);
        let coding = RateCoding::new();
        let spikes = coding.encode(0.8, &cfg);
        let kept: Vec<u32> = spikes.iter().step_by(2).copied().collect();
        let decoded = coding.decode(&kept, &cfg);
        assert!((decoded - 0.4).abs() < 0.02);
    }

    #[test]
    fn negative_activation_is_silent() {
        let cfg = CodingConfig::new(100, 1.0);
        assert!(RateCoding::new().encode(-0.3, &cfg).is_empty());
    }
}
