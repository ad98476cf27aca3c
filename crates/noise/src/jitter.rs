//! Spike-jitter noise.

use rand::{Rng, RngCore};

use nrsnn_snn::{SpikeRaster, SpikeTransform};

use crate::{NoiseError, Result};

/// Spike-time jitter: every spike time is shifted by a zero-mean Gaussian
/// with standard deviation `σ`, quantised to integer time steps and clamped
/// to the window (the paper's jitter model, §III).
///
/// Jitter corrupts *when* spikes arrive rather than destroying them, so
/// codings that read out timing (phase, TTFS) suffer while rate coding is
/// largely untouched.  Spikes are binary events, though: two spikes of one
/// neuron that collide on the same time step after shifting-and-clamping
/// merge into a single spike (enforced by the raster's normalisation), so
/// heavy jitter near the window edges can reduce the spike count — the
/// train, its count, and every decode stay mutually consistent.
///
/// **Draw contract.**  Every spike costs exactly two draws from the RNG, in
/// neuron order and then spike order: a uniform `u1` in
/// `[f64::EPSILON, 1)`, then a uniform `u2` in `[0, 1)`, turned into one
/// standard normal by Box–Muller (`√(−2 ln u1) · cos(2π u2)`).  Silent
/// neurons draw nothing, and `σ = 0` draws nothing at all.
///
/// ```
/// use nrsnn_noise::JitterNoise;
/// use nrsnn_snn::{SpikeRaster, SpikeTransform};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), nrsnn_noise::NoiseError> {
/// let noise = JitterNoise::new(2.0)?;
/// let mut raster = SpikeRaster::new(1, 64);
/// raster.set_train(0, vec![10, 20, 30]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// noise.apply(&mut raster, &mut rng);
/// // Spike count is preserved; only the timings move.
/// assert_eq!(raster.total_spikes(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterNoise {
    sigma: f64,
}

impl JitterNoise {
    /// Creates a jitter model with standard deviation `sigma` (in time
    /// steps).
    ///
    /// # Errors
    /// Returns [`NoiseError::InvalidParameter`] for negative or non-finite
    /// values.
    pub fn new(sigma: f64) -> Result<Self> {
        if !sigma.is_finite() || sigma < 0.0 {
            return Err(NoiseError::InvalidParameter(format!(
                "jitter sigma must be a non-negative finite number, got {sigma}"
            )));
        }
        Ok(JitterNoise { sigma })
    }

    /// The configured standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    fn gaussian(rng: &mut dyn RngCore) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Shifts `t` by one quantised Gaussian draw (two RNG draws) and clamps
    /// it to `[0, max_t]`.  A huge `σ` saturates the shift at `i64::MIN` /
    /// `i64::MAX`, and the saturating add keeps it pinned to the matching
    /// window edge instead of overflowing.
    fn jittered(&self, t: u32, max_t: i64, rng: &mut dyn RngCore) -> u32 {
        let shift = (Self::gaussian(rng) * self.sigma).round() as i64;
        (t as i64).saturating_add(shift).clamp(0, max_t) as u32
    }
}

impl SpikeTransform for JitterNoise {
    fn apply(&self, raster: &mut SpikeRaster, rng: &mut dyn RngCore) {
        if self.sigma == 0.0 {
            return;
        }
        let max_t = raster.num_steps().saturating_sub(1) as i64;
        // Two RNG draws per spike in neuron then spike order; a silent
        // neuron's empty train draws nothing.  `update_trains` re-normalises
        // each train like `set_train` does (sort + merge colliding spikes).
        raster.update_trains(|_, train| {
            for t in train.iter_mut() {
                *t = self.jittered(*t, max_t, rng);
            }
        });
    }

    fn is_identity(&self) -> bool {
        self.sigma == 0.0
    }

    fn describe(&self) -> String {
        format!("jitter(sigma={})", self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corrupted;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn invalid_sigma_rejected() {
        assert!(JitterNoise::new(-1.0).is_err());
        assert!(JitterNoise::new(f64::NAN).is_err());
        assert!(JitterNoise::new(f64::INFINITY).is_err());
        assert!(JitterNoise::new(0.0).is_ok());
    }

    #[test]
    fn zero_sigma_is_identity() {
        let raster = SpikeRaster::from_trains(vec![vec![1, 5, 9]], 16);
        let mut rng = StdRng::seed_from_u64(0);
        let out = corrupted(&JitterNoise::new(0.0).unwrap(), &raster, &mut rng);
        assert_eq!(out, raster);
    }

    #[test]
    fn jitter_never_creates_spikes_and_keeps_trains_binary() {
        let raster = SpikeRaster::from_trains(vec![(0..50).collect(), (10..30).collect()], 64);
        let mut rng = StdRng::seed_from_u64(1);
        let out = corrupted(&JitterNoise::new(3.0).unwrap(), &raster, &mut rng);
        // Jitter deletes nothing, but colliding spikes merge: the count can
        // only shrink, and every train stays strictly increasing.
        assert!(out.total_spikes() <= raster.total_spikes());
        assert!(out.total_spikes() > 0);
        for (_, train) in out.iter() {
            assert!(train.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// Regression for jitter collisions at the window edges: spikes pinned
    /// at the first and last steps get clamped onto each other under heavy
    /// jitter, and the resulting trains must stay duplicate-free so
    /// train-based counts, dense 0/1 views and PSC decodes all agree.
    #[test]
    fn clamped_collisions_at_window_edges_merge_instead_of_duplicating() {
        let steps = 16u32;
        let raster =
            SpikeRaster::from_trains(vec![vec![0, 1, 2], vec![13, 14, 15], vec![0, 15]], steps);
        let noise = JitterNoise::new(40.0).unwrap(); // almost every spike clamps
        let mut merged_somewhere = false;
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = corrupted(&noise, &raster, &mut rng);
            for (n, train) in out.iter() {
                // Strictly increasing == sorted and duplicate-free.
                assert!(
                    train.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed} neuron {n}: {train:?}"
                );
                assert!(train.iter().all(|&t| t < steps));
                // The per-train count is the train length by construction;
                // a dense 0/1 view over the window carries the same count.
                let dense_count = (0..steps).filter(|t| train.contains(t)).count();
                assert_eq!(dense_count, train.len(), "seed {seed} neuron {n}");
            }
            if out.total_spikes() < raster.total_spikes() {
                merged_somewhere = true;
            }
        }
        // With σ = 40 on a 16-step window, collisions are guaranteed to
        // have happened across 32 seeds.
        assert!(merged_somewhere, "expected at least one clamped collision");
    }

    #[test]
    fn jittered_times_stay_inside_window() {
        let raster = SpikeRaster::from_trains(vec![vec![0, 1, 62, 63]], 64);
        let mut rng = StdRng::seed_from_u64(2);
        let out = corrupted(&JitterNoise::new(10.0).unwrap(), &raster, &mut rng);
        assert!(out.train(0).iter().all(|&t| t < 64));
    }

    #[test]
    fn average_shift_is_roughly_zero_and_spread_grows_with_sigma() {
        // One spike per neuron (trains are binary: 4000 coincident spikes
        // on one neuron would merge), all at t = 500 far from the clamps.
        let trains: Vec<Vec<u32>> = (0..4000).map(|_| vec![500]).collect();
        let raster = SpikeRaster::from_trains(trains, 1000);
        let mut rng = StdRng::seed_from_u64(3);
        for sigma in [1.0f64, 3.0] {
            let out = corrupted(&JitterNoise::new(sigma).unwrap(), &raster, &mut rng);
            let shifts: Vec<f64> = out
                .iter()
                .flat_map(|(_, t)| t.iter())
                .map(|&t| t as f64 - 500.0)
                .collect();
            assert_eq!(shifts.len(), 4000);
            let mean = shifts.iter().sum::<f64>() / shifts.len() as f64;
            let var =
                shifts.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / shifts.len() as f64;
            assert!(mean.abs() < 0.2, "sigma {sigma}: mean {mean}");
            assert!(
                (var.sqrt() - sigma).abs() < 0.35,
                "sigma {sigma}: std {}",
                var.sqrt()
            );
        }
    }

    #[test]
    fn describe_mentions_sigma() {
        assert!(JitterNoise::new(2.5).unwrap().describe().contains("2.5"));
    }

    /// The draw contract written out spike by spike, independently of
    /// `JitterNoise::jittered`: per spike, in neuron then spike order, `u1`
    /// in `[EPSILON, 1)` then `u2` in `[0, 1)`, Box–Muller's cosine branch
    /// scaled by σ and rounded, the shifted time clamped to the window in
    /// floating point; silent neurons (and σ = 0) draw nothing, and spikes
    /// that collide merge.
    fn per_spike_oracle(sigma: f64, raster: &SpikeRaster, rng: &mut dyn RngCore) -> SpikeRaster {
        if sigma == 0.0 {
            return raster.clone();
        }
        let last = f64::from(raster.num_steps().saturating_sub(1));
        let trains = raster
            .iter()
            .map(|(_, train)| {
                let mut shifted: Vec<u32> = train
                    .iter()
                    .map(|&t| {
                        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let u2: f64 = rng.gen_range(0.0..1.0);
                        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                        (f64::from(t) + (z * sigma).round()).clamp(0.0, last) as u32
                    })
                    .collect();
                shifted.sort_unstable();
                shifted.dedup();
                shifted
            })
            .collect();
        SpikeRaster::from_trains(trains, raster.num_steps())
    }

    #[test]
    fn apply_matches_per_spike_oracle_draw_for_draw() {
        // Silent neurons between trains that touch both window edges, a
        // dense train and spikes in the middle of the window.
        let steps = 32;
        let raster = SpikeRaster::from_trains(
            vec![
                vec![],
                vec![0],
                vec![0, 1, 2],
                vec![],
                vec![],
                vec![steps - 1],
                vec![5, 9, 30],
                vec![0, steps - 1],
                (0..steps).collect(),
                vec![],
            ],
            steps,
        );
        for sigma in [0.0, 0.5, 3.0, 40.0, 1e300] {
            let noise = JitterNoise::new(sigma).unwrap();
            for seed in [21, 22, 23] {
                let mut rng_oracle = StdRng::seed_from_u64(seed);
                let expected = per_spike_oracle(sigma, &raster, &mut rng_oracle);
                let mut rng = StdRng::seed_from_u64(seed);
                let out = corrupted(&noise, &raster, &mut rng);
                assert_eq!(out, expected, "sigma {sigma} seed {seed}");
                assert_eq!(rng, rng_oracle, "RNG sigma {sigma} seed {seed}");
            }
        }
    }

    #[test]
    fn apply_matches_per_spike_oracle_on_random_rasters() {
        // Any shape: no neurons, a one-step window, silent, sparse and
        // saturated trains.
        let mut shapes = StdRng::seed_from_u64(41);
        for case in 0..48 {
            let neurons: usize = shapes.gen_range(0..6);
            let steps: u32 = shapes.gen_range(1..70);
            let trains = (0..neurons)
                .map(|_| {
                    let density = [0.0, 0.05, 0.5, 1.0][shapes.gen_range(0..4usize)];
                    (0..steps).filter(|_| shapes.gen_bool(density)).collect()
                })
                .collect();
            let raster = SpikeRaster::from_trains(trains, steps);
            let sigma = [0.5, 2.5, 7.0, 40.0][case % 4];
            let mut rng_oracle = StdRng::seed_from_u64(case as u64);
            let expected = per_spike_oracle(sigma, &raster, &mut rng_oracle);
            let mut rng = StdRng::seed_from_u64(case as u64);
            let out = corrupted(&JitterNoise::new(sigma).unwrap(), &raster, &mut rng);
            assert_eq!(out, expected, "case {case} sigma {sigma}");
            assert_eq!(rng, rng_oracle, "RNG case {case} sigma {sigma}");
        }
    }

    /// A σ so large that every shift saturates must pin each spike to a
    /// window edge, not overflow `t + shift`.
    #[test]
    fn huge_sigma_saturates_to_the_window_edges() {
        let raster = SpikeRaster::from_trains(vec![vec![3, 9, 14]], 16);
        let max_t = 15;
        let noise = JitterNoise::new(1e300).unwrap();
        let (mut hit_start, mut hit_end) = (false, false);
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = corrupted(&noise, &raster, &mut rng);
            for &t in out.train(0) {
                assert!(t == 0 || t == max_t, "seed {seed}: spike at {t}");
            }
            hit_start |= out.train(0).contains(&0);
            hit_end |= out.train(0).contains(&max_t);
        }
        assert!(hit_start && hit_end, "both window edges must be reached");
    }

    #[test]
    fn is_identity_only_at_zero_sigma() {
        assert!(JitterNoise::new(0.0).unwrap().is_identity());
        assert!(!JitterNoise::new(0.5).unwrap().is_identity());
    }
}
