//! Spike-deletion noise.

use rand::RngCore;

use nrsnn_snn::{SpikeRaster, SpikeTransform};
use nrsnn_tensor::simd::{active_backend, left_pack_with};

use crate::{NoiseError, Result};

/// Draws per block: one `fill_bytes` call draws one `u64` for each spike
/// of one [`SpikeRaster::retain_in_blocks`] block.
const BLOCK: usize = SpikeRaster::RETAIN_BLOCK;

/// Independent per-spike deletion: every transmitted spike is dropped with
/// probability `p` (the paper's deletion model, §III).
///
/// Deletion destroys part of the post-synaptic-current sum; how much of the
/// carried *value* is destroyed depends entirely on the neural coding —
/// graded for rate/phase/burst, all-or-none for TTFS, near-all-or-none for
/// TTAS — which is the core observation of the paper.
///
/// **Draw contract.**  Every spike costs exactly one `u64` from the RNG, in
/// neuron order and then spike order; silent neurons draw nothing, and
/// `p = 0` draws nothing at all.  A spike survives when its draw, read as a
/// uniform `f64` in `[0, 1)` the way `rng.gen::<f64>()` does (its top 53
/// bits), is at least `p`: as an integer rule, `draw >> 11 >=
/// ceil(p · 2^53)`.  The draws are taken for the whole raster in one pass,
/// in blocks of up to 256 that run across train boundaries (the last
/// block asks for exactly the spikes that remain), one `fill_bytes` call
/// each, read back as little-endian `u64`s.  `RngCore`'s default
/// `fill_bytes`, which `StdRng` uses, writes exactly the values
/// consecutive `next_u64` calls return, so the kept spikes and the RNG's
/// end state are those of one `next_u64` per spike.
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

/// Fills `draws` with one `fill_bytes` call, read back as little-endian
/// `u64`s: on a little-endian target the bytes land in place, so the block
/// is drawn straight into the words the left-pack reads.
fn fill_draws(rng: &mut dyn RngCore, draws: &mut [u64]) {
    let len = draws.len() * 8;
    // SAFETY: the byte view covers exactly `draws`' memory and lives only
    // for this call; `u8` has alignment 1, and `u64` has no padding and
    // accepts every bit pattern, so any bytes `fill_bytes` writes leave
    // valid words.
    let bytes = unsafe { std::slice::from_raw_parts_mut(draws.as_mut_ptr().cast::<u8>(), len) };
    rng.fill_bytes(bytes);
    for draw in draws.iter_mut() {
        // A no-op on little-endian targets.
        *draw = u64::from_le(*draw);
    }
}

impl SpikeTransform for DeletionNoise {
    /// One pass over the raster: each block of spikes draws its words, the
    /// SIMD left-pack keeps the spikes whose draws clear the threshold, and
    /// the raster rebases its train offsets from the keep masks.
    fn apply(&self, raster: &mut SpikeRaster, rng: &mut dyn RngCore) {
        if self.probability == 0.0 {
            return;
        }
        let threshold = self.keep_threshold();
        let backend = active_backend();
        let mut draws = [0u64; BLOCK];
        raster.retain_in_blocks(|window, read, masks| {
            let draws = &mut draws[..window.len() - read];
            fill_draws(rng, draws);
            left_pack_with(backend, window, read, draws, threshold, masks);
        });
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
    use nrsnn_tensor::simd::{available_backends, set_backend};
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

    /// A raster of trains with the given lengths, spread over a 1024-step
    /// window.
    fn raster_of(lengths: &[usize]) -> SpikeRaster {
        let trains = lengths
            .iter()
            .map(|&len| (0..len as u32).map(|i| i * 1024 / len as u32).collect())
            .collect();
        SpikeRaster::from_trains(trains, 1024)
    }

    #[test]
    fn kernel_matches_per_spike_oracle_draw_for_draw() {
        let mut rasters = vec![
            // Empty trains between trains of every length class, on both
            // sides of the 8-spike groups and of every block boundary.
            raster_of(&[0, 1, 0, 7, 8, 0, 7, 8, 255, 0, 256, 257, 3 * BLOCK + 5, 0]),
            // A block that ends between two trains, then inside one.
            raster_of(&[128, 128, 100, 300]),
            // Runs of 1–7-spike trains, which once drew spike by spike.
            raster_of(&(0..300).map(|i| 1 + i % 7).collect::<Vec<_>>()),
            // Spike totals around one and two blocks.
            raster_of(&[5; 51]),
            raster_of(&[255, 1]),
            raster_of(&[1, 0, 256]),
            raster_of(&[7; 73].iter().copied().chain([2]).collect::<Vec<_>>()),
            // No spikes at all: no neurons, or only silent ones.
            SpikeRaster::new(0, 16),
            raster_of(&[0; 5]),
        ];
        let totals: Vec<usize> = rasters.iter().map(SpikeRaster::total_spikes).collect();
        for total in [255, 256, 257, 513, 0] {
            assert!(totals.contains(&total), "no raster of {total} spikes");
        }
        // Pin the backend per pass: every ISA must draw and keep alike.
        let previous = active_backend();
        for backend in available_backends() {
            assert_eq!(set_backend(backend), backend);
            for raster in &mut rasters {
                for p in [0.0].into_iter().chain(EDGE_PROBABILITIES) {
                    let noise = DeletionNoise::new(p).unwrap();
                    for seed in [11, 12] {
                        let mut rng_oracle = StdRng::seed_from_u64(seed);
                        let expected = per_spike_oracle(p, raster, &mut rng_oracle);

                        let mut rng = StdRng::seed_from_u64(seed);
                        let got = corrupted(&noise, raster, &mut rng);
                        assert_eq!(got, expected, "{backend:?} p {p}");
                        assert_eq!(rng, rng_oracle, "{backend:?} RNG p {p}");
                    }
                }
            }
        }
        set_backend(previous);
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

    /// Whether the left-pack keeps a spike drawn `draw` under `threshold`,
    /// on every backend: eight such spikes fill one vector group.
    fn keeps(draw: u64, threshold: u64) -> bool {
        let kept: Vec<usize> = available_backends()
            .into_iter()
            .map(|backend| left_pack_with(backend, &mut [0; 8], 0, &[draw; 8], threshold, &mut [0]))
            .collect();
        assert!(kept.iter().all(|&k| k == kept[0]), "backends disagree");
        match kept[0] {
            8 => true,
            0 => false,
            k => panic!("{k} of 8 equal draws kept"),
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
