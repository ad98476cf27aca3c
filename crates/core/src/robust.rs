//! The paper's proposed noise-robust deep SNN: TTAS coding + weight scaling.

use nrsnn_noise::{DeletionNoise, JitterNoise, WeightScaling};
use nrsnn_runtime::ParallelConfig;
use nrsnn_snn::{
    CodingConfig, CodingKind, EvaluationSummary, SnnNetwork, SpikeTransform, TtasCoding,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{NrsnnError, Result, TrainedPipeline};

/// Builder for the noise-robust configuration proposed in §IV of the paper:
/// a converted deep SNN that uses TTAS coding with burst duration `t_a` and
/// weight scaling matched to the expected deletion probability.
///
/// ```no_run
/// use nrsnn::{PipelineConfig, RobustSnnBuilder, TrainedPipeline};
///
/// # fn main() -> Result<(), nrsnn::NrsnnError> {
/// let pipeline = TrainedPipeline::build(&PipelineConfig::mnist_small())?;
/// let robust = RobustSnnBuilder::new()
///     .burst_duration(5)
///     .expected_deletion(0.5)
///     .time_steps(128)
///     .build(&pipeline)?;
/// let summary = robust.evaluate_under_deletion(&pipeline, 0.5, 64, 0)?;
/// println!("{:.1}%", summary.accuracy_percent());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustSnnBuilder {
    burst_duration: u32,
    expected_deletion: f64,
    time_steps: u32,
}

impl RobustSnnBuilder {
    /// Creates a builder with the paper's defaults: `t_a = 5`, no expected
    /// deletion, 128 time steps.
    pub fn new() -> Self {
        RobustSnnBuilder {
            burst_duration: 5,
            expected_deletion: 0.0,
            time_steps: 128,
        }
    }

    /// Sets the TTAS burst duration `t_a`.  A degenerate `t_a = 0` is kept
    /// verbatim here and rejected with a typed error by
    /// [`RobustSnnBuilder::build`] (no silent clamping).
    #[must_use]
    pub fn burst_duration(mut self, burst_duration: u32) -> Self {
        self.burst_duration = burst_duration;
        self
    }

    /// Sets the deletion probability the deployment environment is expected
    /// to exhibit; the builder derives the weight-scaling factor
    /// `C = 1/(1−p)` from it.
    #[must_use]
    pub fn expected_deletion(mut self, probability: f64) -> Self {
        self.expected_deletion = probability;
        self
    }

    /// Sets the simulation window length.  Kept verbatim; a window outside
    /// `1..=2^24` is rejected by [`RobustSnnBuilder::build`].
    #[must_use]
    pub fn time_steps(mut self, time_steps: u32) -> Self {
        self.time_steps = time_steps;
        self
    }

    /// Converts the pipeline's trained DNN into the robust SNN.
    ///
    /// # Errors
    /// Returns [`NrsnnError`] if the expected deletion probability is not in
    /// `[0, 1)`, the burst duration is zero, the window is outside
    /// `1..=2^24` time steps, or conversion fails.
    pub fn build(&self, pipeline: &TrainedPipeline) -> Result<RobustSnn> {
        if !(0.0..1.0).contains(&self.expected_deletion) {
            return Err(NrsnnError::InvalidConfig(format!(
                "expected deletion probability must be in [0, 1), got {}",
                self.expected_deletion
            )));
        }
        let coding = TtasCoding::new(self.burst_duration)?;
        let config = CodingConfig::new(
            self.time_steps,
            CodingKind::Ttas(self.burst_duration).default_threshold(),
        );
        config.validate()?;
        let scaling = if self.expected_deletion > 0.0 {
            WeightScaling::for_deletion_probability(self.expected_deletion)?
        } else {
            WeightScaling::none()
        };
        let network = pipeline.to_snn(&scaling)?;
        Ok(RobustSnn {
            network,
            coding,
            config,
            scaling,
        })
    }
}

impl Default for RobustSnnBuilder {
    fn default() -> Self {
        RobustSnnBuilder::new()
    }
}

/// A converted SNN configured with the paper's proposed noise counter-measures.
#[derive(Debug, Clone)]
pub struct RobustSnn {
    /// The converted (and weight-scaled) spiking network.
    pub network: SnnNetwork,
    /// The TTAS coding used for all layers.
    pub coding: TtasCoding,
    /// The shared coding configuration (window length, threshold).
    pub config: CodingConfig,
    /// The weight scaling that was folded into the network.
    pub scaling: WeightScaling,
}

impl RobustSnn {
    /// Classifies a single input vector under an arbitrary noise model.
    ///
    /// # Errors
    /// Propagates simulation errors (e.g. wrong input width).
    pub fn classify(&self, input: &[f32], noise: &dyn SpikeTransform, seed: u64) -> Result<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = self
            .network
            .simulate(input, &self.coding, &self.config, noise, &mut rng)?;
        Ok(outcome.predicted)
    }

    /// Evaluates accuracy over `samples` held-out test samples of the
    /// pipeline under an arbitrary noise model, fanning the samples out over
    /// an auto-sized worker pool ([`ParallelConfig::auto`], honouring
    /// `NRSNN_THREADS`).
    ///
    /// Every sample draws from its own seed-derived RNG stream, so the
    /// result is bit-identical at every thread count.
    ///
    /// # Errors
    /// Propagates simulation errors.
    pub fn evaluate(
        &self,
        pipeline: &TrainedPipeline,
        noise: &dyn SpikeTransform,
        samples: usize,
        seed: u64,
    ) -> Result<EvaluationSummary> {
        self.evaluate_with(pipeline, noise, samples, seed, &ParallelConfig::auto())
    }

    /// [`RobustSnn::evaluate`] with an explicit parallel configuration
    /// (pass [`ParallelConfig::serial`] for the single-threaded reference
    /// path).
    ///
    /// # Errors
    /// Propagates simulation errors.
    pub fn evaluate_with(
        &self,
        pipeline: &TrainedPipeline,
        noise: &dyn SpikeTransform,
        samples: usize,
        seed: u64,
        parallel: &ParallelConfig,
    ) -> Result<EvaluationSummary> {
        let subset = pipeline.test_subset(samples)?;
        crate::exec::evaluate_network(
            &self.network,
            &self.coding,
            &self.config,
            noise,
            &subset,
            seed,
            parallel,
        )
    }

    /// Convenience wrapper: evaluation under pure deletion noise.
    ///
    /// # Errors
    /// Propagates noise-construction and simulation errors.
    pub fn evaluate_under_deletion(
        &self,
        pipeline: &TrainedPipeline,
        probability: f64,
        samples: usize,
        seed: u64,
    ) -> Result<EvaluationSummary> {
        let noise = DeletionNoise::new(probability)?;
        self.evaluate(pipeline, &noise, samples, seed)
    }

    /// Convenience wrapper: evaluation under pure jitter noise.
    ///
    /// # Errors
    /// Propagates noise-construction and simulation errors.
    pub fn evaluate_under_jitter(
        &self,
        pipeline: &TrainedPipeline,
        sigma: f64,
        samples: usize,
        seed: u64,
    ) -> Result<EvaluationSummary> {
        let noise = JitterNoise::new(sigma)?;
        self.evaluate(pipeline, &noise, samples, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelKind, PipelineConfig};
    use nrsnn_data::DatasetSpec;

    fn tiny_pipeline() -> TrainedPipeline {
        let config = PipelineConfig {
            dataset: DatasetSpec::mnist_like().with_samples(80, 40),
            model: ModelKind::Mlp,
            dropout: 0.1,
            epochs: 6,
            batch_size: 16,
            learning_rate: 2e-3,
            percentile: 99.9,
            seed: 21,
        };
        TrainedPipeline::build(&config).unwrap()
    }

    #[test]
    fn builder_validates_deletion_probability() {
        let pipeline = tiny_pipeline();
        assert!(RobustSnnBuilder::new()
            .expected_deletion(1.0)
            .build(&pipeline)
            .is_err());
        assert!(RobustSnnBuilder::new()
            .expected_deletion(-0.5)
            .build(&pipeline)
            .is_err());
        // Windows outside 1..=2^24: 0 used to be clamped to 1, and 2^24 + 1
        // built and failed only at the first evaluation.
        for time_steps in [0, (1 << 24) + 1] {
            assert!(RobustSnnBuilder::new()
                .time_steps(time_steps)
                .build(&pipeline)
                .is_err());
        }
    }

    #[test]
    fn builder_derives_weight_scaling_from_expected_deletion() {
        let pipeline = tiny_pipeline();
        let robust = RobustSnnBuilder::new()
            .expected_deletion(0.5)
            .build(&pipeline)
            .unwrap();
        assert!((robust.scaling.factor() - 2.0).abs() < 1e-6);
        let clean = RobustSnnBuilder::new().build(&pipeline).unwrap();
        assert!(clean.scaling.is_identity());
    }

    #[test]
    fn robust_snn_classifies_clean_inputs_correctly() {
        let pipeline = tiny_pipeline();
        let robust = RobustSnnBuilder::new()
            .burst_duration(4)
            .time_steps(96)
            .build(&pipeline)
            .unwrap();
        let summary = robust
            .evaluate(&pipeline, &nrsnn_snn::IdentityTransform, 32, 1)
            .unwrap();
        assert!(
            summary.accuracy >= pipeline.dnn_test_accuracy() - 0.3,
            "robust snn accuracy {} dnn {}",
            summary.accuracy,
            pipeline.dnn_test_accuracy()
        );
    }

    #[test]
    fn evaluate_is_thread_count_invariant() {
        let pipeline = tiny_pipeline();
        let robust = RobustSnnBuilder::new()
            .time_steps(64)
            .build(&pipeline)
            .unwrap();
        let noise = DeletionNoise::new(0.4).unwrap();
        let serial = robust
            .evaluate_with(&pipeline, &noise, 24, 5, &ParallelConfig::serial())
            .unwrap();
        let parallel = robust
            .evaluate_with(&pipeline, &noise, 24, 5, &ParallelConfig::with_threads(4))
            .unwrap();
        assert_eq!(serial, parallel);
        // And the auto-parallel default is the same summary again.
        assert_eq!(serial, robust.evaluate(&pipeline, &noise, 24, 5).unwrap());
    }

    #[test]
    fn classify_returns_a_valid_class() {
        let pipeline = tiny_pipeline();
        let robust = RobustSnnBuilder::new()
            .time_steps(64)
            .build(&pipeline)
            .unwrap();
        let row = pipeline.dataset().test.inputs.row(0).unwrap();
        let class = robust
            .classify(row.as_slice(), &nrsnn_snn::IdentityTransform, 0)
            .unwrap();
        assert!(class < 10);
    }
}
