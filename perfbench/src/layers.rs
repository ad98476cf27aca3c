//! Per-layer accounting: folds the engine's own stage events
//! (`SimWorkspace::stage_events`) and the benchmark's timers around public
//! calls into the per-layer metrics of `BENCHMARK.json`.

use nrsnn_snn::{SimStage, StageEvent};

use crate::report::Metric;
use crate::CODING_TAGS;

/// Stage events must tile at least this share of the timed
/// `simulate_with` calls, or the per-layer split is not trusted.
pub const MIN_COVERAGE_PCT: f64 = 95.0;

/// Selects one stage's time from the totals.
type StagePick = fn(&StageTotals) -> u64;

/// Summed stage time and counts of one coding's traced samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTotals {
    /// Traced `simulate_with` calls.
    pub samples: u64,
    /// Time inside those calls, measured around them.
    pub simulate_ns: u64,
    /// `Encode` events.
    pub encode_ns: u64,
    /// `Noise` events.
    pub noise_ns: u64,
    /// `Decode` events.
    pub decode_ns: u64,
    /// `Forward` events.
    pub forward_ns: u64,
    /// Number of `Noise` events.
    pub noise_events: u64,
    /// Transmitted spikes of the samples that ran a noise stage.
    pub noisy_spikes: u64,
    /// Number of `Forward` events.
    pub forward_events: u64,
    /// `Forward` events that took the sparse kernel.
    pub sparse_events: u64,
}

impl StageTotals {
    fn add(&mut self, other: &StageTotals) {
        self.samples += other.samples;
        self.simulate_ns += other.simulate_ns;
        self.encode_ns += other.encode_ns;
        self.noise_ns += other.noise_ns;
        self.decode_ns += other.decode_ns;
        self.forward_ns += other.forward_ns;
        self.noise_events += other.noise_events;
        self.noisy_spikes += other.noisy_spikes;
        self.forward_events += other.forward_events;
        self.sparse_events += other.sparse_events;
    }

    /// Sum of all stage events.
    pub fn staged_ns(&self) -> u64 {
        self.encode_ns + self.noise_ns + self.decode_ns + self.forward_ns
    }

    /// Stage events as a share of the timed calls, in percent.
    pub fn coverage_pct(&self) -> f64 {
        if self.simulate_ns == 0 {
            return 0.0;
        }
        self.staged_ns() as f64 * 100.0 / self.simulate_ns as f64
    }

    /// Mean of `ns` per sample, in microseconds; `None` without samples.
    fn per_sample_us(&self, ns: u64) -> Option<f64> {
        (self.samples > 0).then(|| ns as f64 / self.samples as f64 / 1_000.0)
    }
}

/// Traced samples split by coding (indexed like [`crate::CODINGS`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// One entry per coding.
    pub per_coding: [StageTotals; 5],
}

impl Profile {
    /// Folds one traced `simulate_with` call into the profile.
    ///
    /// `simulate_ns` is the time measured around the call, `events` the
    /// workspace's stage events after it, `spikes` its transmitted spikes.
    pub fn record(
        &mut self,
        coding: usize,
        simulate_ns: u64,
        events: &[StageEvent],
        spikes: usize,
    ) {
        let totals = &mut self.per_coding[coding];
        totals.samples += 1;
        totals.simulate_ns += simulate_ns;
        let mut noisy = false;
        for event in events {
            let ns = u64::try_from(event.end.saturating_duration_since(event.start).as_nanos())
                .unwrap_or(u64::MAX);
            match event.stage {
                SimStage::Encode => totals.encode_ns += ns,
                SimStage::Noise => {
                    totals.noise_ns += ns;
                    totals.noise_events += 1;
                    noisy = true;
                }
                SimStage::Decode => totals.decode_ns += ns,
                SimStage::Forward => {
                    totals.forward_ns += ns;
                    totals.forward_events += 1;
                    totals.sparse_events += u64::from(event.sparse);
                }
            }
        }
        if noisy {
            totals.noisy_spikes += spikes as u64;
        }
    }

    /// All codings together.
    pub fn total(&self) -> StageTotals {
        let mut total = StageTotals::default();
        for totals in &self.per_coding {
            total.add(totals);
        }
        total
    }

    /// Serial traced samples per second.
    pub fn serial_samples_per_s(&self) -> f64 {
        let total = self.total();
        if total.simulate_ns == 0 {
            return 0.0;
        }
        total.samples as f64 * 1e9 / total.simulate_ns as f64
    }

    /// The `snn.*`, `noise.*` and `tensor.*` metrics.  A metric is `None`
    /// where the layer did no work on this workload (no noise stage on a
    /// clean model, a coding the workload does not use).
    pub fn metrics(&self) -> Vec<Metric> {
        let total = self.total();
        let mut out = vec![Metric::new(
            "snn.simulate_us",
            "us",
            total.per_sample_us(total.simulate_ns),
        )];
        let staged: [(&str, StagePick); 4] = [
            ("snn.encode_us", |t| t.encode_ns),
            ("snn.decode_us", |t| t.decode_ns),
            ("noise.apply_us", |t| t.noise_ns),
            ("tensor.forward_us", |t| t.forward_ns),
        ];
        for (name, pick) in staged {
            let is_noise = name.starts_with("noise.");
            let value = |t: &StageTotals| {
                if is_noise && t.noise_events == 0 {
                    None
                } else {
                    t.per_sample_us(pick(t))
                }
            };
            out.push(Metric::new(name, "us", value(&total)));
            for (tag, totals) in CODING_TAGS.iter().zip(&self.per_coding) {
                out.push(Metric::new(&format!("{name}.{tag}"), "us", value(totals)));
            }
        }
        out.push(Metric::new(
            "noise.ns_per_spike",
            "ns",
            (total.noise_events > 0 && total.noisy_spikes > 0)
                .then(|| total.noise_ns as f64 / total.noisy_spikes as f64),
        ));
        out.push(Metric::new(
            "tensor.sparse_frac",
            "ratio",
            (total.forward_events > 0)
                .then(|| total.sparse_events as f64 / total.forward_events as f64),
        ));
        out.push(Metric::new(
            "snn.stage_coverage_pct",
            "%",
            (total.samples > 0).then(|| total.coverage_pct()),
        ));
        out
    }

    /// The validity check on the stage split.
    ///
    /// # Errors
    /// A message when the stage events cover less than
    /// [`MIN_COVERAGE_PCT`] of the timed calls.
    pub fn check_coverage(&self) -> std::result::Result<(), String> {
        let pct = self.total().coverage_pct();
        if pct >= MIN_COVERAGE_PCT {
            Ok(())
        } else {
            Err(format!(
                "stage events cover {pct:.1}% of timed simulate_with calls \
                 (< {MIN_COVERAGE_PCT}%): the per-layer split is not trusted"
            ))
        }
    }
}

/// Medians of the set-up timers around the public set-up calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Whole set-up: data generation and training through server start.
    pub setup_s: f64,
    /// `TrainedPipeline::build`.
    pub pipeline_build_s: f64,
    /// `TrainedPipeline::to_snn`.
    pub convert_ms: f64,
    /// `ModelRegistry::load_binary` + `Server::start` + `serve_tcp`;
    /// `None` on the sweeps.
    pub server_start_ms: Option<f64>,
}

impl SetupTimes {
    /// The `setup.*` metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup.pipeline_build_s", "s", Some(self.pipeline_build_s)),
            Metric::new("setup.convert_ms", "ms", Some(self.convert_ms)),
            Metric::new("setup.server_start_ms", "ms", self.server_start_ms),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(simulate_ns: u64, staged_ns: u64) -> StageTotals {
        StageTotals {
            samples: 1,
            simulate_ns,
            encode_ns: staged_ns,
            ..StageTotals::default()
        }
    }

    #[test]
    fn unused_layers_are_not_reported_as_measured() {
        let mut profile = Profile::default();
        profile.per_coding[4] = totals(1_000, 1_000);
        let metrics = profile.metrics();
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get("noise.apply_us"), None);
        assert_eq!(get("noise.ns_per_spike"), None);
        assert_eq!(get("snn.encode_us.rate"), None);
        assert_eq!(get("snn.encode_us.ttas5"), Some(1.0));
        assert_eq!(get("snn.stage_coverage_pct"), Some(100.0));
    }
}
