//! The spiking neuron model behind TTAS encoding.
//!
//! [`IfbNeuron`] is the *simplified integrate-and-fire-or-burst* neuron the
//! paper introduces for TTAS coding (Eq. 4): it behaves like an
//! integrate-and-fire neuron until its first spike at `t₁`, then emits a
//! phasic burst of spikes for the next `t_a` steps, and stays silent
//! afterwards.  The paper notes it can be realised with a counter and gate
//! operations, which is exactly what this implementation does.

use serde::{Deserialize, Serialize};

/// Simplified integrate-and-fire-or-burst neuron (Eq. 4).
///
/// The reset function is
///
/// ```text
/// η(t) = 0        if t < t₁
///      = θ(t)     if t₁ ≤ t < t₁ + t_a      (phasic burst)
///      = −∞       otherwise                  (silent)
/// ```
///
/// i.e. after the first threshold crossing the neuron fires on every step
/// for `t_a` steps and then never again within the window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IfbNeuron {
    membrane: f32,
    threshold: f32,
    burst_duration: u32,
    first_spike: Option<u32>,
    current_step: u32,
    spike_count: u32,
}

impl IfbNeuron {
    /// Creates an IFB neuron with threshold `threshold` and a phasic burst of
    /// `burst_duration` spikes (the paper's `t_a`).
    pub fn new(threshold: f32, burst_duration: u32) -> Self {
        IfbNeuron {
            membrane: 0.0,
            threshold,
            burst_duration: burst_duration.max(1),
            first_spike: None,
            current_step: 0,
            spike_count: 0,
        }
    }

    /// Time of the first spike, if the neuron has fired.
    pub fn first_spike(&self) -> Option<u32> {
        self.first_spike
    }

    /// Number of spikes emitted so far.
    pub fn spike_count(&self) -> u32 {
        self.spike_count
    }

    /// Integrates one time step of input current and returns `true` if the
    /// neuron fires at this step.
    pub fn step(&mut self, input_current: f32) -> bool {
        let t = self.current_step;
        self.current_step += 1;
        match self.first_spike {
            None => {
                self.membrane += input_current;
                if self.membrane >= self.threshold {
                    self.first_spike = Some(t);
                    self.spike_count += 1;
                    // η = θ(t): membrane pinned at threshold during the burst.
                    self.membrane = self.threshold;
                    true
                } else {
                    false
                }
            }
            Some(t1) if t < t1 + self.burst_duration => {
                self.spike_count += 1;
                true
            }
            Some(_) => {
                // η = −∞: the neuron can never reach threshold again.
                false
            }
        }
    }

    /// Resets all state for a new time window.
    pub fn reset_state(&mut self) {
        self.membrane = 0.0;
        self.first_spike = None;
        self.current_step = 0;
        self.spike_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ifb_neuron_bursts_for_duration_then_goes_silent() {
        let mut n = IfbNeuron::new(1.0, 3);
        let mut spikes = Vec::new();
        // Constant drive of 0.5: first crossing at step 1.
        for t in 0..10u32 {
            if n.step(0.5) {
                spikes.push(t);
            }
        }
        assert_eq!(spikes, vec![1, 2, 3]); // burst of t_a = 3 spikes
        assert_eq!(n.first_spike(), Some(1));
        assert_eq!(n.spike_count(), 3);
    }

    #[test]
    fn ifb_neuron_never_fires_without_enough_drive() {
        let mut n = IfbNeuron::new(1.0, 5);
        for _ in 0..20 {
            assert!(!n.step(0.01));
        }
        assert_eq!(n.first_spike(), None);
    }

    #[test]
    fn ifb_burst_duration_of_one_reduces_to_single_spike() {
        let mut n = IfbNeuron::new(1.0, 1);
        let spikes: Vec<bool> = (0..6).map(|_| n.step(0.6)).collect();
        assert_eq!(spikes.iter().filter(|&&s| s).count(), 1);
    }

    #[test]
    fn ifb_reset_state_allows_new_window() {
        let mut n = IfbNeuron::new(1.0, 2);
        for _ in 0..5 {
            n.step(1.0);
        }
        assert_eq!(n.spike_count(), 2);
        n.reset_state();
        assert_eq!(n.spike_count(), 0);
        assert!(n.step(1.0));
    }

    #[test]
    fn larger_input_fires_earlier() {
        let mut fast = IfbNeuron::new(1.0, 1);
        let mut slow = IfbNeuron::new(1.0, 1);
        let mut t_fast = None;
        let mut t_slow = None;
        for t in 0..100u32 {
            if fast.step(0.5) && t_fast.is_none() {
                t_fast = Some(t);
            }
            if slow.step(0.05) && t_slow.is_none() {
                t_slow = Some(t);
            }
        }
        assert!(t_fast.unwrap() < t_slow.unwrap());
    }
}
