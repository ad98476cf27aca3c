//! Spike-deletion noise.

use rand::RngCore;

use nrsnn_snn::{SpikeRaster, SpikeTransform};

use crate::{NoiseError, Result};

/// Draws per random block: one `fill_bytes` call draws up to this many
/// `u64`s for one train.
const BLOCK: usize = 256;

/// Trains shorter than this draw spike by spike with `next_u64`: below
/// about this length one `fill_bytes` call costs more than the `next_u64`
/// calls it replaces.
const SHORT_TRAIN: usize = 8;

/// Independent per-spike deletion: every transmitted spike is dropped with
/// probability `p` (the paper's deletion model, §III).
///
/// Deletion destroys part of the post-synaptic-current sum; how much of the
/// carried *value* is destroyed depends entirely on the neural coding —
/// graded for rate/phase/burst, all-or-none for TTFS, near-all-or-none for
/// TTAS — which is the core observation of the paper.
///
/// **Draw contract.**  Every spike costs exactly one `u64` from the RNG, in
/// neuron order and then spike order; empty trains draw nothing, and
/// `p = 0` draws nothing at all.  A spike survives when its draw, read as a
/// uniform `f64` in `[0, 1)` the way `rng.gen::<f64>()` does (its top 53
/// bits), is at least `p`.  Long trains take their draws in blocks of up to
/// 256, one `fill_bytes` call each, read back as little-endian `u64`s.
/// `RngCore`'s default `fill_bytes`, which `StdRng` uses, writes exactly
/// the values consecutive `next_u64` calls return, so the kept spikes and
/// the RNG's end state are those of one `next_u64` per spike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeletionNoise {
    probability: f64,
}

impl DeletionNoise {
    /// Creates a deletion model with drop probability `probability`.
    ///
    /// # Errors
    /// Returns [`NoiseError::InvalidParameter`] unless `0.0 ≤ p ≤ 1.0`.
    pub fn new(probability: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&probability) || probability.is_nan() {
            return Err(NoiseError::InvalidParameter(format!(
                "deletion probability must be in [0, 1], got {probability}"
            )));
        }
        Ok(DeletionNoise { probability })
    }

    /// The configured deletion probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// The smallest 53-bit draw that keeps a spike: `ceil(p · 2^53)`.
    ///
    /// A draw `x` reads as the float `(x >> 11) · 2^-53`, so `>= p` holds
    /// exactly when `x >> 11 >= p · 2^53`.  For `p` in `[0, 1]` the product
    /// is exact (a power-of-two scaling) and at most `2^53`, so its ceiling
    /// converts to `u64` without rounding.
    fn keep_threshold(&self) -> u64 {
        (self.probability * (1u64 << 53) as f64).ceil() as u64
    }
}

/// Whether a spike whose draw is `draw` survives under `threshold`
/// ([`DeletionNoise::keep_threshold`]).
fn keeps(draw: u64, threshold: u64) -> bool {
    draw >> 11 >= threshold
}

/// The deletion kernel: draws one `u64` per spike of `train` and keeps the
/// survivors, in order, at its front, truncating the rest.
///
/// Survivors are compacted without a branch (`train[kept] = t` always, then
/// `kept` advances only on a keep), so the cost does not depend on how
/// predictable the coin flips are.  `block` is the caller's reusable draw
/// buffer, one per raster.
fn delete_spikes(
    train: &mut Vec<u32>,
    threshold: u64,
    block: &mut [u8; BLOCK * 8],
    rng: &mut dyn RngCore,
) {
    let len = train.len();
    let mut kept = 0;
    if len < SHORT_TRAIN {
        for i in 0..len {
            let t = train[i];
            train[kept] = t;
            kept += keeps(rng.next_u64(), threshold) as usize;
        }
    } else {
        for start in (0..len).step_by(BLOCK) {
            let draws = &mut block[..(len - start).min(BLOCK) * 8];
            rng.fill_bytes(draws);
            for (i, bytes) in (start..).zip(draws.chunks_exact(8)) {
                let mut word = [0u8; 8];
                word.copy_from_slice(bytes);
                let t = train[i];
                train[kept] = t;
                kept += keeps(u64::from_le_bytes(word), threshold) as usize;
            }
        }
    }
    train.truncate(kept);
}

impl SpikeTransform for DeletionNoise {
    fn apply(&self, raster: &mut SpikeRaster, rng: &mut dyn RngCore) {
        if self.probability == 0.0 {
            return;
        }
        let threshold = self.keep_threshold();
        let mut block = [0u8; BLOCK * 8];
        raster.update_trains(|_, train| delete_spikes(train, threshold, &mut block, rng));
    }

    fn is_identity(&self) -> bool {
        self.probability == 0.0
    }

    fn describe(&self) -> String {
        format!("deletion(p={})", self.probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corrupted;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dense_raster(neurons: usize, steps: u32) -> SpikeRaster {
        let trains = (0..neurons).map(|_| (0..steps).collect()).collect();
        SpikeRaster::from_trains(trains, steps)
    }

    #[test]
    fn invalid_probabilities_rejected() {
        assert!(DeletionNoise::new(-0.1).is_err());
        assert!(DeletionNoise::new(1.5).is_err());
        assert!(DeletionNoise::new(f64::NAN).is_err());
        assert!(DeletionNoise::new(0.0).is_ok());
        assert!(DeletionNoise::new(1.0).is_ok());
    }

    #[test]
    fn zero_probability_is_identity() {
        let raster = dense_raster(3, 50);
        let mut rng = StdRng::seed_from_u64(0);
        let out = corrupted(&DeletionNoise::new(0.0).unwrap(), &raster, &mut rng);
        assert_eq!(out, raster);
    }

    #[test]
    fn full_probability_deletes_everything() {
        let raster = dense_raster(3, 50);
        let mut rng = StdRng::seed_from_u64(0);
        let out = corrupted(&DeletionNoise::new(1.0).unwrap(), &raster, &mut rng);
        assert_eq!(out.total_spikes(), 0);
    }

    #[test]
    fn survival_fraction_is_close_to_one_minus_p() {
        let raster = dense_raster(100, 100); // 10_000 spikes
        let mut rng = StdRng::seed_from_u64(7);
        for p in [0.2, 0.5, 0.8] {
            let out = corrupted(&DeletionNoise::new(p).unwrap(), &raster, &mut rng);
            let survived = out.total_spikes() as f64 / 10_000.0;
            assert!(
                (survived - (1.0 - p)).abs() < 0.03,
                "p {p}: survived {survived}"
            );
        }
    }

    #[test]
    fn surviving_spike_times_are_a_subset() {
        let raster = SpikeRaster::from_trains(vec![vec![3, 7, 11, 19]], 32);
        let mut rng = StdRng::seed_from_u64(3);
        let out = corrupted(&DeletionNoise::new(0.5).unwrap(), &raster, &mut rng);
        for &t in out.train(0) {
            assert!(raster.train(0).contains(&t));
        }
    }

    #[test]
    fn describe_mentions_probability() {
        assert!(DeletionNoise::new(0.3).unwrap().describe().contains("0.3"));
    }

    /// The per-spike rule the kernel replaces, kept as its oracle: one
    /// `gen::<f64>()` per spike in neuron then spike order, keep on `>= p`.
    fn per_spike_oracle(p: f64, raster: &SpikeRaster, rng: &mut dyn RngCore) -> SpikeRaster {
        if p == 0.0 {
            return raster.clone();
        }
        let trains = raster
            .iter()
            .map(|(_, train)| {
                train
                    .iter()
                    .copied()
                    .filter(|_| rng.gen::<f64>() >= p)
                    .collect()
            })
            .collect();
        SpikeRaster::from_trains(trains, raster.num_steps())
    }

    /// Probabilities at the edges of the integer keep rule: the smallest
    /// subnormal (threshold 1), a tiny `p`, the sweep levels, the largest
    /// `p` below one (threshold `2^53 - 1`) and one (nothing survives).
    const EDGE_PROBABILITIES: [f64; 7] = [
        5e-324,
        1e-9,
        0.2,
        0.5,
        0.9,
        1.0 - 1.0 / (1u64 << 53) as f64,
        1.0,
    ];

    #[test]
    fn kernel_matches_per_spike_oracle_draw_for_draw() {
        // Empty trains between trains on both sides of the short-train
        // cutoff and of every block boundary.
        let lengths = [
            0,
            1,
            0,
            SHORT_TRAIN - 1,
            SHORT_TRAIN,
            0,
            7,
            8,
            255,
            0,
            256,
            257,
            3 * BLOCK + 5,
            0,
        ];
        let trains = lengths
            .iter()
            .map(|&len| (0..len as u32).map(|i| i * 1024 / len as u32).collect())
            .collect();
        let raster = SpikeRaster::from_trains(trains, 1024);
        for p in [0.0].into_iter().chain(EDGE_PROBABILITIES) {
            let noise = DeletionNoise::new(p).unwrap();
            for seed in [11, 12] {
                let mut rng_oracle = StdRng::seed_from_u64(seed);
                let expected = per_spike_oracle(p, &raster, &mut rng_oracle);

                let mut rng = StdRng::seed_from_u64(seed);
                assert_eq!(corrupted(&noise, &raster, &mut rng), expected, "p {p}");
                assert_eq!(rng, rng_oracle, "RNG p {p}");
            }
        }
    }

    /// An RNG that returns one fixed word, to read a single draw through
    /// the shim's own `gen::<f64>()`.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            (self.0 >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn integer_keep_rule_equals_the_float_rule() {
        let top = (1u64 << 53) - 1;
        for p in EDGE_PROBABILITIES {
            let threshold = DeletionNoise::new(p).unwrap().keep_threshold();
            assert!((1..=1u64 << 53).contains(&threshold), "p {p}");
            for x in [0, threshold - 1, threshold, threshold + 1, top] {
                let x = x.min(top);
                // The low 11 bits never reach the float: set them too.
                for draw in [x << 11, x << 11 | 0x7ff] {
                    let float_keeps = Fixed(draw).gen::<f64>() >= p;
                    assert_eq!(keeps(draw, threshold), float_keeps, "p {p} x {x}");
                }
            }
        }
    }

    #[test]
    fn is_identity_only_at_zero_probability() {
        assert!(DeletionNoise::new(0.0).unwrap().is_identity());
        assert!(!DeletionNoise::new(0.01).unwrap().is_identity());
    }
}
