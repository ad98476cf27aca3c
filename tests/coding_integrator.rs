//! The relay abstraction as a checked claim: each coding's block decode is
//! what an integrate-and-fire synapse would read out of the same train.
//!
//! The engine never simulates membrane potentials step by step; it decodes
//! each received raster with the coding's closed-form PSC sum
//! (`NeuralCoding::decode_into`).  This test states the equivalence the
//! paper's Eq. 1–3 rest on: an integrator written here, independently of
//! the codings, walks the window one step at a time and adds the
//! post-synaptic current of every spike that arrives at that step —
//!
//! * rate: `θ/T` per spike;
//! * phase: `2^-(k+1) · θ / periods` for a spike in phase `k`;
//! * TTFS: `θ · e^(−t/τ)`;
//! * TTAS: `C_A · θ · e^(−t/τ)` with `C_A = 1/Σ_{k<t_a} e^(−k/τ)` (Eq. 5),
//!   the total clamped at `θ` as the TTAS decoder clamps it.
//!
//! It is fed clean rasters from `encode_raster_into`, and the same rasters
//! after spike deletion and after jitter, and must match `decode_into` of
//! the same raster within `1e-5` relative (exactly for TTFS, whose one
//! spike's PSC is a single `f32` expression).

use nrsnn_noise::{DeletionNoise, JitterNoise};
use nrsnn_snn::{
    CodingConfig, CodingKind, CodingScratch, NeuralCoding, PhaseCoding, SpikeRaster, SpikeTransform,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Integrates `train` over a `steps`-step window: at every step, the
/// membrane adds the PSC of each spike arriving then.  Panics on a spike
/// outside the window.
fn integrate(train: &[u32], steps: u32, psc: impl Fn(u32) -> f64) -> f64 {
    let mut potential = 0.0f64;
    let mut arrivals = train.iter().copied().peekable();
    for t in 0..steps {
        while arrivals.next_if_eq(&t).is_some() {
            potential += psc(t);
        }
    }
    assert!(arrivals.next().is_none(), "spike outside the window");
    potential
}

/// The integrator's readout of `train` under `kind`.
fn integrator_readout(kind: CodingKind, train: &[u32], cfg: &CodingConfig) -> f64 {
    let theta = f64::from(cfg.threshold);
    let steps = cfg.time_steps;
    match kind {
        CodingKind::Rate => integrate(train, steps, |_| theta / f64::from(steps)),
        CodingKind::Phase => {
            let period = PhaseCoding::new().period();
            let periods = f64::from((steps / period).max(1));
            integrate(train, steps, |t| {
                theta * 0.5f64.powi((t % period) as i32 + 1) / periods
            })
        }
        CodingKind::Ttfs => {
            // One spike per neuron at most: its PSC, evaluated in `f32` as
            // the kernel `θ·e^(−t/τ)` is, is the whole readout.
            assert!(train.len() <= 1, "a TTFS train carries one spike");
            let tau = cfg.ttfs_tau();
            integrate(train, steps, |t| {
                f64::from(cfg.threshold * (-(t as f32) / tau).exp())
            })
        }
        CodingKind::Ttas(burst) => {
            let tau = f64::from(cfg.ttfs_tau());
            let c_a = 1.0 / (0..burst).map(|k| (-f64::from(k) / tau).exp()).sum::<f64>();
            let sum = integrate(train, steps, |t| c_a * theta * (-f64::from(t) / tau).exp());
            sum.min(theta)
        }
        CodingKind::Burst => unreachable!("burst decodes by inter-spike intervals"),
    }
}

/// Activations of one layer: a third silent, the rest spread over
/// `[0, 1.2]`, so some clip at `θ = 1`.
fn activations(width: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..width)
        .map(|_| {
            if rng.gen::<f32>() < 0.33 {
                0.0
            } else {
                rng.gen::<f32>() * 1.2
            }
        })
        .collect()
}

/// `raster` as received: clean, after 50 % deletion, and after σ = 2
/// jitter.
fn received(raster: &SpikeRaster, seed: u64) -> Vec<(&'static str, SpikeRaster)> {
    let mut deleted = raster.clone();
    DeletionNoise::new(0.5)
        .unwrap()
        .apply(&mut deleted, &mut StdRng::seed_from_u64(seed));
    let mut jittered = raster.clone();
    JitterNoise::new(2.0)
        .unwrap()
        .apply(&mut jittered, &mut StdRng::seed_from_u64(seed));
    vec![
        ("clean", raster.clone()),
        ("deletion", deleted),
        ("jitter", jittered),
    ]
}

#[test]
fn block_decode_matches_an_integrate_and_fire_readout() {
    let kinds = [
        CodingKind::Rate,
        CodingKind::Phase,
        CodingKind::Ttfs,
        CodingKind::Ttas(5),
    ];
    let mut scratch = CodingScratch::new();
    for (time_steps, width) in [(96u32, 300usize), (32, 40), (17, 5)] {
        let cfg = CodingConfig::new(time_steps, 1.0);
        for kind in kinds {
            let coding: Box<dyn NeuralCoding> = kind.build();
            let mut clean = SpikeRaster::default();
            let values = activations(width, u64::from(time_steps));
            coding.encode_raster_into(&values, &cfg, &mut clean, &mut scratch);
            assert!(clean.total_spikes() > 0, "{} T={time_steps}", kind.label());
            for (noise, raster) in received(&clean, 7) {
                let mut decoded = vec![f32::NAN; width];
                coding.decode_into(&raster, &cfg, &mut decoded, &mut scratch);
                for (n, train) in raster.iter() {
                    let expected = integrator_readout(kind, train, &cfg);
                    let got = f64::from(decoded[n]);
                    let case = format!(
                        "{} T={time_steps} {noise} neuron {n}: decode {got} vs integrator {expected}",
                        kind.label()
                    );
                    if kind == CodingKind::Ttfs {
                        assert_eq!(got.to_bits(), expected.to_bits(), "{case}");
                    } else {
                        assert!((got - expected).abs() <= 1e-5 * expected.abs(), "{case}");
                    }
                }
            }
        }
    }
}
