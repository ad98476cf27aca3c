//! Neural coding schemes.
//!
//! A neural coding defines how a non-negative activation value is
//! represented as a spike train and how a downstream synapse integrates that
//! train back into a post-synaptic-current (PSC) sum.  The paper studies
//! four existing codings — rate, phase, burst and time-to-first-spike — and
//! proposes time-to-average-spike (TTAS).
//!
//! | Coding | Spikes per value | Carrier of information | Deletion behaviour | Jitter behaviour |
//! |---|---|---|---|---|
//! | [`RateCoding`]  | up to `T`        | spike count              | graded `(1-p)·A` | unaffected |
//! | [`PhaseCoding`] | up to `T`        | spike phase (binary weight) | graded        | severe (weights change ×2 per step) |
//! | [`BurstCoding`] | up to `N_max`    | burst length / ISI       | graded           | moderate (ISI corrupted) |
//! | [`TtfsCoding`]  | 1                | first-spike time         | all-or-none      | severe (exp. kernel shift) |
//! | [`TtasCoding`]  | `t_a`            | average time of a phasic burst | near all-or-none, WS-friendly | averaged out |

mod burst;
mod phase;
mod rate;
mod ttas;
mod ttfs;

pub use burst::BurstCoding;
pub use phase::PhaseCoding;
pub use rate::RateCoding;
pub use ttas::TtasCoding;
pub use ttfs::TtfsCoding;

use serde::{Deserialize, Serialize};

use crate::{CodingConfig, SpikeRaster};

/// Reusable structure-of-arrays scratch for the lane-blocked encode paths.
///
/// The block encoders ([`NeuralCoding::encode_raster_into`]) split each
/// coding into a vectorisable head — one scalar quantity per neuron,
/// computed 8 lanes at a time — and a scalar tail that materialises the
/// variable-length spike trains from those quantities.  This scratch owns
/// the SoA buffers the head writes and the tail reads, so blocks touch
/// contiguous memory and the simulation workspace stays allocation-free in
/// steady state (the buffers grow to the widest layer seen and never
/// shrink).
#[derive(Debug, Clone, Default)]
pub struct CodingScratch {
    /// One f32 per neuron: quantised spike counts (rate/burst) or clamped
    /// activation ratios (TTFS/TTAS).
    pub(crate) lanes: Vec<f32>,
    /// One phase-coding bit pattern per neuron (bit `k` = phase `k` fires).
    pub(crate) bits: Vec<u64>,
    /// Per-phase weights `2^-(k+1)` for the active phase period.
    pub(crate) weights: Vec<f32>,
    /// Per-phase firing thresholds `weights[k] - 1e-6`.
    pub(crate) thresholds: Vec<f32>,
    /// Precomputed canonical trains, concatenated: for a fixed window the
    /// whole train is a function of the per-neuron scalar quantity alone
    /// (rate: one train per spike count `0..=T`; phase: one per bit
    /// pattern), so the scalar tail becomes a table lookup plus one
    /// `extend_from_slice` per neuron.
    pub(crate) train_table: Vec<u32>,
    /// `train_offsets[q]..train_offsets[q+1]` bounds quantity `q`'s train
    /// inside [`CodingScratch::train_table`].
    pub(crate) train_offsets: Vec<u32>,
    /// `(kind, time_steps, period)` the current table was built for; the
    /// table is rebuilt lazily whenever the coding or window changes.
    pub(crate) train_key: Option<(CodingKind, u32, u32)>,
}

impl CodingScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        CodingScratch::default()
    }
}

/// A neural coding: the pair of an encoder (activation → spike train) and a
/// decoder (spike train → PSC sum ≈ activation).
///
/// Implementations must satisfy `decode(encode(a)) ≈ clamp(a)` up to the
/// coding's quantisation resolution — this round-trip property is checked by
/// property-based tests for every coding.
pub trait NeuralCoding: Send + Sync {
    /// Human-readable name used in reports ("rate", "ttas(5)", …).
    fn name(&self) -> String;

    /// The coding kind tag.
    fn kind(&self) -> CodingKind;

    /// Encodes a non-negative activation into a sorted spike train within a
    /// window of `cfg.time_steps` steps.  Values are clamped to
    /// `[0, cfg.threshold]`.
    fn encode(&self, activation: f32, cfg: &CodingConfig) -> Vec<u32>;

    /// Encodes into a caller-provided buffer (cleared first, capacity kept).
    ///
    /// Must produce exactly the spikes of [`NeuralCoding::encode`]; every
    /// coding in this crate overrides the default with an allocation-free
    /// implementation, which is what makes the batched simulation workspace
    /// (`SimWorkspace`) allocation-free in steady state.
    fn encode_into(&self, activation: f32, cfg: &CodingConfig, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.encode(activation, cfg));
    }

    /// Encodes a whole activation vector into `raster` (one train per
    /// value) through the coding's lane-blocked block path.
    ///
    /// Must fill `raster` with exactly the trains
    /// [`NeuralCoding::encode_into`] would produce per value — the block
    /// path computes the per-neuron scalar quantities (spike counts, bit
    /// patterns, clamped ratios) 8 lanes at a time into `scratch`, then
    /// materialises the variable-length trains in a canonical scalar tail.
    /// The default falls back to the per-value path, so custom codings
    /// outside this crate keep working unchanged.
    fn encode_raster_into(
        &self,
        values: &[f32],
        cfg: &CodingConfig,
        raster: &mut SpikeRaster,
        scratch: &mut CodingScratch,
    ) {
        let _ = scratch;
        raster.fill_trains(values.len(), cfg.time_steps, |i, train| {
            self.encode_into(values[i], cfg, train);
        });
    }

    /// Integrates a spike train through the coding's PSC kernel, recovering
    /// an activation estimate.
    ///
    /// **Contract:** an empty train must decode to exactly `+0.0` (bit
    /// pattern `0x0000_0000`) — a silent neuron transmits nothing.  Every
    /// coding in this crate satisfies this, so a silent input contributes
    /// only `w · (+0.0)` terms to the next layer's bias-seeded forward pass,
    /// and block decodes may write the constant for empty trains without
    /// changing a bit.
    fn decode(&self, train: &[u32], cfg: &CodingConfig) -> f32;

    /// Decodes every train of `raster` into `out` (cleared first, capacity
    /// kept): `out[n] = decode(raster.train(n))` in neuron order, bit for
    /// bit.
    ///
    /// `scratch` is caller-owned reusable space (the simulation workspace
    /// passes one buffer per inference): codings with a per-raster-constant
    /// PSC structure hoist it in there — e.g. TTFS and TTAS tabulate their
    /// exponentially decaying kernel once per raster instead of calling
    /// `exp` once per spike.  The default runs the per-train loop and
    /// ignores it; it is already allocation-free because
    /// [`NeuralCoding::decode`] takes the train by reference.
    fn decode_into(
        &self,
        raster: &SpikeRaster,
        cfg: &CodingConfig,
        out: &mut Vec<f32>,
        scratch: &mut Vec<f32>,
    ) {
        let _ = scratch;
        out.clear();
        out.extend(raster.iter().map(|(_, train)| self.decode(train, cfg)));
    }
}

/// Tag identifying a coding scheme (with its structural parameter for TTAS).
///
/// ```
/// use nrsnn_snn::{CodingConfig, CodingKind};
///
/// // The four baseline codings of Figs. 2-3, plus the paper's TTAS.
/// let mut kinds = CodingKind::baselines();
/// kinds.push(CodingKind::Ttas(5));
/// assert_eq!(kinds.last().unwrap().label(), "TTAS(5)");
///
/// // Every kind round-trips an activation through encode/decode.
/// let cfg = CodingConfig::new(64, 1.0);
/// for kind in kinds {
///     let coding = kind.build();
///     let decoded = coding.decode(&coding.encode(0.5, &cfg), &cfg);
///     assert!((decoded - 0.5).abs() < 0.25, "{}: {decoded}", kind.label());
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CodingKind {
    /// Rate coding.
    Rate,
    /// Phase coding (weighted spikes).
    Phase,
    /// Burst coding.
    Burst,
    /// Time-to-first-spike coding.
    Ttfs,
    /// Time-to-average-spike coding with the given burst duration `t_a`.
    Ttas(u32),
}

impl CodingKind {
    /// The encoding threshold used by default in this reproduction.
    ///
    /// The paper finds its per-coding thresholds empirically (§V); we do the
    /// same for our substitute networks and datasets.  Because the synthetic
    /// activation distributions are far less heavy-tailed than VGG16's, the
    /// empirical search lands at θ = 1.0 for every coding (no clipping of
    /// the normalised activations); smaller ceilings trade accuracy for
    /// fewer spikes, which the `ablation_threshold` bench quantifies.
    pub fn default_threshold(&self) -> f32 {
        1.0
    }

    /// The thresholds the paper reports for its VGG16 setting (§V):
    /// θ = 0.4 (rate), 0.4 (burst), 1.2 (phase), 0.8 (TTFS); TTAS inherits
    /// the TTFS value.  Kept for reference and for the threshold-sensitivity
    /// ablation.
    pub fn paper_threshold(&self) -> f32 {
        match self {
            CodingKind::Rate | CodingKind::Burst => 0.4,
            CodingKind::Phase => 1.2,
            CodingKind::Ttfs | CodingKind::Ttas(_) => 0.8,
        }
    }

    /// Validates the kind's structural parameters.
    ///
    /// # Errors
    /// Returns [`crate::SnnError::InvalidConfig`] for `Ttas(0)` — a
    /// zero-length burst encodes nothing.  Grid builders and model loaders
    /// call this up front so a degenerate kind is a typed error instead of
    /// a silent coercion inside [`CodingKind::build`].
    pub fn validate(&self) -> crate::Result<()> {
        if let CodingKind::Ttas(duration) = self {
            TtasCoding::new(*duration)?;
        }
        Ok(())
    }

    /// Builds the coding with its default structural parameters.
    ///
    /// Infallible by design (it backs `Box<dyn NeuralCoding>` factories all
    /// over the workspace): a degenerate `Ttas(0)` builds via the explicit
    /// [`TtasCoding::clamped`] constructor.  Call [`CodingKind::validate`]
    /// first wherever a typed rejection is wanted.
    pub fn build(&self) -> Box<dyn NeuralCoding> {
        match self {
            CodingKind::Rate => Box::new(RateCoding::new()),
            CodingKind::Phase => Box::new(PhaseCoding::new()),
            CodingKind::Burst => Box::new(BurstCoding::new()),
            CodingKind::Ttfs => Box::new(TtfsCoding::new()),
            CodingKind::Ttas(duration) => Box::new(TtasCoding::clamped(*duration)),
        }
    }

    /// A total-order key over coding kinds: the paper's presentation order
    /// (rate, phase, burst, TTFS, then TTAS by burst duration).
    ///
    /// Sweep results are sorted with this key so their order is a function
    /// of the grid alone, never of task completion order.
    pub fn order_index(&self) -> (u8, u32) {
        match self {
            CodingKind::Rate => (0, 0),
            CodingKind::Phase => (1, 0),
            CodingKind::Burst => (2, 0),
            CodingKind::Ttfs => (3, 0),
            CodingKind::Ttas(d) => (4, *d),
        }
    }

    /// Short label for tables and figures.
    pub fn label(&self) -> String {
        match self {
            CodingKind::Rate => "Rate".to_string(),
            CodingKind::Phase => "Phase".to_string(),
            CodingKind::Burst => "Burst".to_string(),
            CodingKind::Ttfs => "TTFS".to_string(),
            CodingKind::Ttas(d) => format!("TTAS({d})"),
        }
    }

    /// All codings compared in the paper's Figs. 2–3 (the four baselines).
    pub fn baselines() -> Vec<CodingKind> {
        vec![
            CodingKind::Rate,
            CodingKind::Phase,
            CodingKind::Burst,
            CodingKind::Ttfs,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_thresholds_match_section_v() {
        assert_eq!(CodingKind::Rate.paper_threshold(), 0.4);
        assert_eq!(CodingKind::Burst.paper_threshold(), 0.4);
        assert_eq!(CodingKind::Phase.paper_threshold(), 1.2);
        assert_eq!(CodingKind::Ttfs.paper_threshold(), 0.8);
        assert_eq!(CodingKind::Ttas(5).paper_threshold(), 0.8);
    }

    #[test]
    fn default_thresholds_avoid_clipping() {
        for kind in CodingKind::baselines() {
            assert_eq!(kind.default_threshold(), 1.0);
        }
        assert_eq!(CodingKind::Ttas(5).default_threshold(), 1.0);
    }

    #[test]
    fn build_produces_matching_kind() {
        for kind in [
            CodingKind::Rate,
            CodingKind::Phase,
            CodingKind::Burst,
            CodingKind::Ttfs,
            CodingKind::Ttas(3),
        ] {
            assert_eq!(kind.build().kind(), kind);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = [
            CodingKind::Rate,
            CodingKind::Phase,
            CodingKind::Burst,
            CodingKind::Ttfs,
            CodingKind::Ttas(5),
            CodingKind::Ttas(10),
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn baselines_exclude_ttas() {
        let b = CodingKind::baselines();
        assert_eq!(b.len(), 4);
        assert!(!b.iter().any(|k| matches!(k, CodingKind::Ttas(_))));
    }

    /// All codings should round-trip a mid-range value reasonably well.
    #[test]
    fn all_codings_round_trip_mid_value() {
        let cfg = CodingConfig::new(128, 1.0);
        for kind in [
            CodingKind::Rate,
            CodingKind::Phase,
            CodingKind::Burst,
            CodingKind::Ttfs,
            CodingKind::Ttas(5),
        ] {
            let coding = kind.build();
            let spikes = coding.encode(0.5, &cfg);
            let decoded = coding.decode(&spikes, &cfg);
            assert!(
                (decoded - 0.5).abs() < 0.12,
                "{}: decoded {decoded} for 0.5",
                coding.name()
            );
        }
    }

    /// Zero activation must produce no spikes under every coding.
    #[test]
    fn zero_activation_is_silent() {
        let cfg = CodingConfig::new(64, 1.0);
        for kind in [
            CodingKind::Rate,
            CodingKind::Phase,
            CodingKind::Burst,
            CodingKind::Ttfs,
            CodingKind::Ttas(4),
        ] {
            let coding = kind.build();
            assert!(coding.encode(0.0, &cfg).is_empty(), "{}", coding.name());
            assert_eq!(coding.decode(&[], &cfg), 0.0);
        }
    }

    /// `encode_into` must reproduce `encode` exactly for every coding and a
    /// spread of values, and `decode_into` must match per-train `decode` —
    /// this is the contract the allocation-free simulation path relies on.
    #[test]
    fn into_variants_match_allocating_encode_decode() {
        for time_steps in [17, 64, 128] {
            let cfg = CodingConfig::new(time_steps, 1.0);
            for kind in [
                CodingKind::Rate,
                CodingKind::Phase,
                CodingKind::Burst,
                CodingKind::Ttfs,
                CodingKind::Ttas(5),
                CodingKind::Ttas(1),
            ] {
                let coding = kind.build();
                let mut buf = vec![77u32; 3]; // dirty: must be cleared
                let values = [-0.2f32, 0.0, 1e-6, 0.1, 0.33, 0.5, 0.73, 0.99, 1.0, 2.5];
                for &v in &values {
                    coding.encode_into(v, &cfg, &mut buf);
                    assert_eq!(buf, coding.encode(v, &cfg), "{} value {v}", coding.name());
                }
                let trains: Vec<Vec<u32>> =
                    values.iter().map(|&v| coding.encode(v, &cfg)).collect();
                let raster = SpikeRaster::from_trains(trains.clone(), cfg.time_steps);
                let mut decoded = vec![9.0f32; 2];
                coding.decode_into(&raster, &cfg, &mut decoded, &mut Vec::new());
                let reference: Vec<f32> = trains.iter().map(|t| coding.decode(t, &cfg)).collect();
                assert_eq!(
                    decoded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{}",
                    coding.name()
                );
            }
        }
    }

    #[test]
    fn validate_rejects_degenerate_ttas_only() {
        assert!(CodingKind::Ttas(0).validate().is_err());
        for kind in [
            CodingKind::Rate,
            CodingKind::Phase,
            CodingKind::Burst,
            CodingKind::Ttfs,
            CodingKind::Ttas(1),
            CodingKind::Ttas(10),
        ] {
            assert!(kind.validate().is_ok(), "{}", kind.label());
        }
        // The escape hatch stays explicit: building the degenerate kind
        // clamps through the documented constructor.
        assert_eq!(CodingKind::Ttas(0).build().kind(), CodingKind::Ttas(1));
    }

    /// The silent-neuron contract: an empty train decodes to exactly +0.0
    /// under every coding (not -0.0, not a denormal — bit pattern zero), so
    /// block decodes may write the constant instead of calling decode.
    #[test]
    fn empty_train_decodes_to_positive_zero_bits() {
        for time_steps in [1u32, 17, 128] {
            let cfg = CodingConfig::new(time_steps, 1.0);
            for kind in [
                CodingKind::Rate,
                CodingKind::Phase,
                CodingKind::Burst,
                CodingKind::Ttfs,
                CodingKind::Ttas(5),
            ] {
                let coding = kind.build();
                assert_eq!(
                    coding.decode(&[], &cfg).to_bits(),
                    0u32,
                    "{} T={time_steps}",
                    kind.label()
                );
            }
        }
    }

    /// Block decode of a raster with silent neurons, through dirty output
    /// and scratch buffers, must reproduce per-train `decode` bit for bit.
    #[test]
    fn block_decode_matches_per_train_decode_with_silent_neurons() {
        let cfg = CodingConfig::new(64, 1.0);
        for kind in [
            CodingKind::Rate,
            CodingKind::Phase,
            CodingKind::Burst,
            CodingKind::Ttfs,
            CodingKind::Ttas(5),
        ] {
            let coding = kind.build();
            let values = [0.0f32, 0.8, 0.0, 0.33, 1.0, 0.0, 1e-6, 0.51];
            let trains: Vec<Vec<u32>> = values.iter().map(|&v| coding.encode(v, &cfg)).collect();
            let raster = SpikeRaster::from_trains(trains, cfg.time_steps);

            let mut block = vec![-9.0f32; 100]; // dirty: must be reset
            let mut scratch = vec![7.0f32; 3]; // dirty: must be rebuilt
            coding.decode_into(&raster, &cfg, &mut block, &mut scratch);
            let reference: Vec<f32> = (0..raster.num_neurons())
                .map(|n| coding.decode(raster.train(n), &cfg))
                .collect();
            assert_eq!(
                block.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{}",
                kind.label()
            );
        }
    }

    /// Spike-count ordering from the paper: TTFS ≤ TTAS ≪ burst ≤ rate/phase.
    #[test]
    fn spike_count_ordering_matches_paper() {
        let cfg = CodingConfig::new(128, 1.0);
        let value = 0.9;
        let rate = CodingKind::Rate.build().encode(value, &cfg).len();
        let phase = CodingKind::Phase.build().encode(value, &cfg).len();
        let burst = CodingKind::Burst.build().encode(value, &cfg).len();
        let ttfs = CodingKind::Ttfs.build().encode(value, &cfg).len();
        let ttas = CodingKind::Ttas(5).build().encode(value, &cfg).len();
        assert_eq!(ttfs, 1);
        assert!((1..=5).contains(&ttas));
        assert!(burst <= 8);
        assert!(rate > burst, "rate {rate} burst {burst}");
        assert!(phase > burst);
    }
}
