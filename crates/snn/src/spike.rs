//! Spike-train storage.

use serde::{Deserialize, Serialize};

/// Spike trains of one layer over a fixed time window.
///
/// Spikes are **binary** events: a neuron either fires at a time step or it
/// does not, so a train is the sorted list of *distinct* time steps at which
/// the neuron fired.  Every public mutation path normalises its trains
/// (clamp to the window, sort, merge duplicates), which keeps train-based
/// spike counts, decoded values and any dense 0/1 view of the raster
/// consistent — e.g. two jittered spikes that collide on one step after
/// clamping merge into a single spike instead of double-counting.  All
/// value information is carried by *when* the spikes occur (and how many
/// there are), which is what makes the different neural codings differ in
/// their robustness to spike deletion and jitter.
///
/// A neuron with a non-empty train is *active*; the active fraction
/// ([`SpikeRaster::density`]) is reported per layer in the simulation's
/// stage trace.
///
/// ```
/// use nrsnn_snn::SpikeRaster;
///
/// let mut raster = SpikeRaster::new(3, 16);
/// raster.set_train(0, vec![1, 5, 9]);
/// raster.set_train(2, vec![0]);
/// assert_eq!(raster.total_spikes(), 4);
/// assert_eq!(raster.train(1), &[] as &[u32]);
/// assert!((raster.density() - 2.0 / 3.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpikeRaster {
    num_steps: u32,
    trains: Vec<Vec<u32>>,
}

impl SpikeRaster {
    /// Creates an empty raster for `num_neurons` neurons over `num_steps`
    /// time steps.
    pub fn new(num_neurons: usize, num_steps: u32) -> Self {
        SpikeRaster {
            num_steps,
            trains: vec![Vec::new(); num_neurons],
        }
    }

    /// Number of neurons in the raster.
    pub fn num_neurons(&self) -> usize {
        self.trains.len()
    }

    /// Length of the time window in steps.
    pub fn num_steps(&self) -> u32 {
        self.num_steps
    }

    /// The spike train (sorted time steps) of neuron `neuron`.
    ///
    /// # Panics
    /// Panics if `neuron` is out of range.
    pub fn train(&self, neuron: usize) -> &[u32] {
        &self.trains[neuron]
    }

    /// Replaces the spike train of neuron `neuron`.  Times are clamped to
    /// the window, sorted, and duplicates merged (spikes are binary events:
    /// firing "twice" at one step is one spike).
    ///
    /// # Panics
    /// Panics if `neuron` is out of range.
    pub fn set_train(&mut self, neuron: usize, mut times: Vec<u32>) {
        normalize_train(&mut times, self.num_steps);
        self.trains[neuron] = times;
    }

    /// Fraction of neurons that fire at least once — the per-layer activity
    /// the simulation's stage trace reports.  It is a measurement only: the
    /// engine runs one dense forward kernel whatever the density, because a
    /// density-selected sparse kernel ran at only 0.89–1.14x of the dense
    /// one across every coding and deletion level on AVX2.  An empty raster
    /// reports a density of `1.0`.
    pub fn density(&self) -> f32 {
        if self.trains.is_empty() {
            return 1.0;
        }
        let active = self.trains.iter().filter(|t| !t.is_empty()).count();
        active as f32 / self.trains.len() as f32
    }

    /// Iterates over `(neuron_index, spike_train)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.trains
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t.as_slice()))
    }

    /// Total number of spikes across all neurons.
    pub fn total_spikes(&self) -> usize {
        self.trains.iter().map(|t| t.len()).sum()
    }

    /// Builds a raster from per-neuron trains, clamping and sorting each.
    pub fn from_trains(trains: Vec<Vec<u32>>, num_steps: u32) -> Self {
        let mut raster = SpikeRaster::new(trains.len(), num_steps);
        for (i, t) in trains.into_iter().enumerate() {
            raster.set_train(i, t);
        }
        raster
    }

    /// Rebuilds the raster in place for `num_neurons` neurons over
    /// `num_steps` steps, filling every train through `f` while reusing the
    /// existing per-train buffers.
    ///
    /// `f` receives `(neuron, train_buffer)` with the buffer already
    /// cleared and **must** emit strictly increasing times below
    /// `num_steps` (debug-asserted), which every block encoder guarantees
    /// by construction.  Trains are not re-normalised: the encode tail is
    /// pure train materialisation, and re-validating what was just emitted
    /// in order would cost a second pass over every spike.
    pub(crate) fn fill_trains<F>(&mut self, num_neurons: usize, num_steps: u32, mut f: F)
    where
        F: FnMut(usize, &mut Vec<u32>),
    {
        self.num_steps = num_steps;
        self.trains.resize_with(num_neurons, Vec::new);
        for (i, train) in self.trains.iter_mut().enumerate() {
            train.clear();
            f(i, train);
            debug_assert!(
                !train.last().is_some_and(|&last| last >= num_steps)
                    && train.windows(2).all(|w| w[0] < w[1]),
                "fill_trains: neuron {i} emitted a non-canonical train"
            );
        }
    }

    /// Mutates every train in place through `f` (in neuron order), then
    /// re-normalises each like [`SpikeRaster::set_train`] (clamp to the
    /// window, sort, merge duplicates).  The allocation-free primitive
    /// behind the noise transforms: spike deletion compacts each train's
    /// survivors, jitter shifts its spikes in place.
    pub fn update_trains<F>(&mut self, mut f: F)
    where
        F: FnMut(usize, &mut Vec<u32>),
    {
        for (i, train) in self.trains.iter_mut().enumerate() {
            f(i, train);
            normalize_train(train, self.num_steps);
        }
    }
}

/// Clamps every time to the window, sorts, and merges duplicate times — the
/// shared normalisation of [`SpikeRaster::set_train`] and
/// [`SpikeRaster::update_trains`].
///
/// The dedup step *enforces* the raster's binary-spike semantics: clamping
/// (or jitter) can land two spikes on the same step, and keeping both would
/// make train lengths disagree with any dense 0/1 view of the raster and
/// double-count the spike in every PSC decode.  Empty trains — the common
/// case under sparse temporal codings — return immediately.
fn normalize_train(times: &mut Vec<u32>, num_steps: u32) {
    if times.is_empty() {
        return;
    }
    let max = num_steps.saturating_sub(1);
    // Fast path: every encoder (and spike deletion, which preserves order)
    // produces strictly increasing in-window trains, so one linear check
    // usually replaces the clamp-sort-dedup work entirely.
    if times.last().is_some_and(|&last| last <= max) && times.windows(2).all(|w| w[0] < w[1]) {
        return;
    }
    for t in times.iter_mut() {
        if *t > max {
            *t = max;
        }
    }
    times.sort_unstable();
    times.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_raster_is_empty() {
        let r = SpikeRaster::new(5, 10);
        assert_eq!(r.num_neurons(), 5);
        assert_eq!(r.num_steps(), 10);
        assert_eq!(r.total_spikes(), 0);
    }

    #[test]
    fn set_train_sorts_clamps_and_merges_duplicates() {
        let mut r = SpikeRaster::new(1, 8);
        // 9 and 20 both clamp onto step 7: binary semantics merge them.
        r.set_train(0, vec![9, 3, 20, 1]);
        assert_eq!(r.train(0), &[1, 3, 7]);
        // Explicit duplicates merge too.
        r.set_train(0, vec![2, 2, 2, 5]);
        assert_eq!(r.train(0), &[2, 5]);
        assert_eq!(r.total_spikes(), 2);
    }

    #[test]
    fn active_set_queries_reflect_non_empty_trains() {
        let mut r = SpikeRaster::new(4, 16);
        assert_eq!(r.density(), 0.0);
        r.set_train(0, vec![3]);
        r.set_train(2, vec![1, 2]);
        assert!((r.density() - 0.5).abs() < 1e-6);
        // Empty rasters report full density.
        assert_eq!(SpikeRaster::new(0, 16).density(), 1.0);
    }

    #[test]
    fn total_and_rate() {
        let mut r = SpikeRaster::new(2, 10);
        r.set_train(0, vec![0, 1, 2]);
        r.set_train(1, vec![5]);
        assert_eq!(r.total_spikes(), 4);
    }

    #[test]
    fn from_trains_round_trips() {
        let r = SpikeRaster::from_trains(vec![vec![1, 2], vec![], vec![3]], 5);
        assert_eq!(r.num_neurons(), 3);
        assert_eq!(r.train(2), &[3]);
    }

    #[test]
    fn fill_trains_matches_from_trains_and_reuses_buffers() {
        let trains = vec![vec![1u32, 5, 15], vec![], vec![2]];
        let reference = SpikeRaster::from_trains(trains.clone(), 16);
        let mut r = SpikeRaster::from_trains(vec![vec![1, 2, 3, 4]], 4);
        r.fill_trains(3, 16, |i, out| out.extend_from_slice(&trains[i]));
        assert_eq!(r, reference);
        // Refilling fewer neurons with fewer spikes keeps the raster
        // consistent: the surplus trains go, stale spikes do not survive.
        r.fill_trains(2, 16, |_, out| out.push(1));
        assert_eq!(r.num_neurons(), 2);
        assert_eq!(r.total_spikes(), 2);
        assert_eq!(r.train(0), &[1]);
    }

    #[test]
    fn iter_yields_all_neurons() {
        let r = SpikeRaster::from_trains(vec![vec![1], vec![2], vec![]], 4);
        assert_eq!(r.iter().count(), 3);
        let counts: Vec<usize> = r.iter().map(|(_, t)| t.len()).collect();
        assert_eq!(counts, vec![1, 1, 0]);
    }
}
