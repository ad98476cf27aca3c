//! Shared coding/simulation configuration.

use serde::{Deserialize, Serialize};

use crate::{Result, SnnError};

/// Largest spike count the lane-blocked quantisers count exactly: the
/// truncating lane conversion is exact only while every intermediate stays
/// in the f32-exact integer range `[0, 2^24]`.  It caps both the window
/// (rate coding counts up to `T` spikes) and the burst length.
pub(crate) const MAX_EXACT_COUNT: u32 = 1 << 24;

/// Parameters shared by all neural codings.
///
/// * `time_steps` — length `T` of the per-layer time window;
/// * `threshold` — the empirical encoding ceiling θ (the paper's per-coding
///   threshold from its §V threshold search): activations are clamped to
///   `[0, θ]` before encoding and the coding's full resolution is spent on
///   that range.  Smaller θ trades clipping of rare large activations for
///   finer resolution, exactly the trade-off of empirical threshold
///   balancing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodingConfig {
    /// Number of simulation time steps per layer window.
    pub time_steps: u32,
    /// Encoding ceiling θ (must be positive).
    pub threshold: f32,
    /// Time constant of the exponentially decaying PSC kernel used by TTFS
    /// and TTAS, expressed as a fraction of `time_steps`.  The default of
    /// `0.05` keeps the kernel steep (as in T2FSNN's per-layer phases): a
    /// one-step shift changes the carried value by ≈ `exp(1/τ)` ≈ 17 % for a
    /// 128-step window, which is what makes TTFS fragile to jitter while the
    /// dynamic range over the window stays far larger than needed.
    pub ttfs_tau_fraction: f32,
}

impl CodingConfig {
    /// Creates a configuration with the default TTFS kernel time constant.
    pub fn new(time_steps: u32, threshold: f32) -> Self {
        CodingConfig {
            time_steps,
            threshold,
            ttfs_tau_fraction: 0.05,
        }
    }

    /// Validates the configuration.
    ///
    /// Both real-valued fields must be finite as well as positive: at
    /// θ = +∞ the rate decode computes `0 · ∞ = NaN` for every silent
    /// neuron (breaking the "empty train decodes to `+0.0`" contract), and
    /// at an infinite τ fraction the TTFS/TTAS kernels decode every train
    /// to zero.
    ///
    /// # Errors
    /// Returns [`SnnError::InvalidConfig`] for a zero window, a window
    /// longer than `2^24` steps (the lane quantisers count spikes exactly
    /// only up to `2^24`), or a threshold or τ fraction that is not finite
    /// and positive (NaN included).
    pub fn validate(&self) -> Result<()> {
        if self.time_steps == 0 || self.time_steps > MAX_EXACT_COUNT {
            return Err(SnnError::InvalidConfig(format!(
                "time_steps must be in 1..=2^24, got {}",
                self.time_steps
            )));
        }
        let finite_positive = |v: f32| v.is_finite() && v > 0.0;
        if !finite_positive(self.threshold) {
            return Err(SnnError::InvalidConfig(format!(
                "threshold must be finite and positive, got {}",
                self.threshold
            )));
        }
        if !finite_positive(self.ttfs_tau_fraction) {
            return Err(SnnError::InvalidConfig(format!(
                "ttfs_tau_fraction must be finite and positive, got {}",
                self.ttfs_tau_fraction
            )));
        }
        Ok(())
    }

    /// The TTFS/TTAS kernel time constant in time steps.
    pub fn ttfs_tau(&self) -> f32 {
        (self.time_steps as f32 * self.ttfs_tau_fraction).max(1.0)
    }

    /// Clamps an activation to the representable range `[0, θ]`.
    pub fn clamp(&self, activation: f32) -> f32 {
        activation.clamp(0.0, self.threshold)
    }
}

impl Default for CodingConfig {
    fn default() -> Self {
        CodingConfig::new(128, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(CodingConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(CodingConfig::new(0, 1.0).validate().is_err());
        assert!(CodingConfig::new(10, 0.0).validate().is_err());
        assert!(CodingConfig::new(10, -1.0).validate().is_err());
        assert!(CodingConfig::new(10, f32::NAN).validate().is_err());
        assert!(CodingConfig::new(10, f32::INFINITY).validate().is_err());
        for tau in [0.0, f32::NAN, f32::INFINITY] {
            let mut c = CodingConfig::new(10, 1.0);
            c.ttfs_tau_fraction = tau;
            assert!(c.validate().is_err(), "tau fraction {tau}");
        }
    }

    #[test]
    fn windows_are_capped_at_two_to_the_24() {
        assert!(CodingConfig::new(1 << 24, 1.0).validate().is_ok());
        assert!(matches!(
            CodingConfig::new((1 << 24) + 1, 1.0).validate(),
            Err(SnnError::InvalidConfig(_))
        ));
    }

    #[test]
    fn clamp_limits_to_threshold() {
        let cfg = CodingConfig::new(100, 0.4);
        assert_eq!(cfg.clamp(0.2), 0.2);
        assert_eq!(cfg.clamp(0.9), 0.4);
        assert_eq!(cfg.clamp(-0.5), 0.0);
    }

    #[test]
    fn tau_scales_with_window() {
        let short = CodingConfig::new(50, 1.0);
        let long = CodingConfig::new(500, 1.0);
        assert!(long.ttfs_tau() > short.ttfs_tau());
        assert!(short.ttfs_tau() >= 1.0);
    }
}
