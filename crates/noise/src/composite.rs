//! Composition of several noise models.

use rand::RngCore;

use nrsnn_snn::{SpikeRaster, SpikeTransform};

/// Applies a sequence of spike transforms one after another, e.g. deletion
/// followed by jitter, to model hardware that suffers from both effects.
#[derive(Default)]
pub struct CompositeNoise {
    // `SpikeTransform` itself requires `Send + Sync`, so a composite can
    // cross threads like any primitive noise model.
    stages: Vec<Box<dyn SpikeTransform>>,
}

impl CompositeNoise {
    /// Creates an empty composite (equivalent to the identity transform).
    pub fn new() -> Self {
        CompositeNoise { stages: Vec::new() }
    }

    /// Appends a stage (builder style).
    #[must_use]
    pub fn then<T: SpikeTransform + 'static>(mut self, stage: T) -> Self {
        self.stages.push(Box::new(stage));
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Returns `true` if no stages are configured.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl std::fmt::Debug for CompositeNoise {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CompositeNoise({})", self.describe())
    }
}

impl SpikeTransform for CompositeNoise {
    fn apply(&self, raster: &mut SpikeRaster, rng: &mut dyn RngCore) {
        for stage in &self.stages {
            stage.apply(raster, rng);
        }
    }

    fn is_identity(&self) -> bool {
        self.stages.iter().all(|stage| stage.is_identity())
    }

    fn describe(&self) -> String {
        if self.stages.is_empty() {
            return "clean".to_string();
        }
        self.stages
            .iter()
            .map(|s| s.describe())
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{corrupted, DeletionNoise, JitterNoise};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn raster() -> SpikeRaster {
        SpikeRaster::from_trains(vec![(0..100).collect(), (0..100).collect()], 128)
    }

    #[test]
    fn empty_composite_is_identity() {
        let noise = CompositeNoise::new();
        let mut rng = StdRng::seed_from_u64(0);
        let r = raster();
        assert_eq!(corrupted(&noise, &r, &mut rng), r);
        assert!(noise.is_empty());
        assert_eq!(noise.describe(), "clean");
    }

    #[test]
    fn deletion_then_jitter_reduces_count_and_moves_spikes() {
        let noise = CompositeNoise::new()
            .then(DeletionNoise::new(0.5).unwrap())
            .then(JitterNoise::new(2.0).unwrap());
        assert_eq!(noise.len(), 2);
        let mut rng = StdRng::seed_from_u64(1);
        let out = corrupted(&noise, &raster(), &mut rng);
        assert!(out.total_spikes() < 200);
        assert!(out.total_spikes() > 50);
    }

    #[test]
    fn apply_runs_every_stage_in_order_on_one_rng() {
        let r = raster();
        let jitter = JitterNoise::new(1.5).unwrap();
        let deletion = DeletionNoise::new(0.3).unwrap();
        let late_jitter = JitterNoise::new(0.5).unwrap();
        let stages: [&dyn SpikeTransform; 3] = [&jitter, &deletion, &late_jitter];
        let composites = [
            CompositeNoise::new(),
            CompositeNoise::new().then(jitter),
            CompositeNoise::new().then(jitter).then(deletion),
            CompositeNoise::new()
                .then(jitter)
                .then(deletion)
                .then(late_jitter),
        ];
        for (count, noise) in composites.iter().enumerate() {
            let mut rng_a = StdRng::seed_from_u64(8);
            let mut rng_b = StdRng::seed_from_u64(8);
            let mut expected = r.clone();
            for stage in &stages[..count] {
                stage.apply(&mut expected, &mut rng_a);
            }
            assert_eq!(corrupted(noise, &r, &mut rng_b), expected, "{count} stages");
            assert_eq!(rng_a, rng_b, "{count} stages");
        }
    }

    #[test]
    fn stage_chains_give_the_same_bits_however_they_are_nested() {
        // Nested composites and identity stages (which draw nothing) must
        // leave the raster and the RNG end state of the flat chain.
        let jitter = JitterNoise::new(1.5).unwrap();
        let deletion = DeletionNoise::new(0.3).unwrap();
        let late_jitter = JitterNoise::new(0.5).unwrap();
        let flat = CompositeNoise::new()
            .then(jitter)
            .then(deletion)
            .then(late_jitter);
        let chains = [
            CompositeNoise::new()
                .then(CompositeNoise::new().then(jitter).then(deletion))
                .then(late_jitter),
            CompositeNoise::new()
                .then(jitter)
                .then(CompositeNoise::new().then(deletion).then(late_jitter)),
            CompositeNoise::new()
                .then(DeletionNoise::new(0.0).unwrap())
                .then(jitter)
                .then(CompositeNoise::new())
                .then(deletion)
                .then(JitterNoise::new(0.0).unwrap())
                .then(late_jitter),
        ];
        let r = raster();
        for seed in [8, 9] {
            let mut rng_flat = StdRng::seed_from_u64(seed);
            let expected = corrupted(&flat, &r, &mut rng_flat);
            for (i, chain) in chains.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed);
                let out = corrupted(chain, &r, &mut rng);
                assert_eq!(out, expected, "chain {i} seed {seed}");
                assert_eq!(rng, rng_flat, "chain {i} seed {seed}");
            }
        }
    }

    #[test]
    fn is_identity_requires_every_stage_to_be_identity() {
        assert!(CompositeNoise::new().is_identity());
        assert!(CompositeNoise::new()
            .then(DeletionNoise::new(0.0).unwrap())
            .then(JitterNoise::new(0.0).unwrap())
            .is_identity());
        assert!(!CompositeNoise::new()
            .then(DeletionNoise::new(0.0).unwrap())
            .then(JitterNoise::new(1.0).unwrap())
            .is_identity());
    }

    #[test]
    fn describe_lists_all_stages() {
        let noise = CompositeNoise::new()
            .then(DeletionNoise::new(0.2).unwrap())
            .then(JitterNoise::new(1.0).unwrap());
        let d = noise.describe();
        assert!(d.contains("deletion"));
        assert!(d.contains("jitter"));
        assert!(format!("{noise:?}").contains("deletion"));
    }
}
