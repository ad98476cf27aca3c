//! Spike-train storage.

use std::ops::Range;

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
/// **Layout.**  Every train lives in one contiguous buffer of spike times,
/// in neuron-then-time order, and `offsets[i]..offsets[i + 1]` bounds
/// neuron `i`'s train inside it (one more offset than neurons, the first
/// always `0`).  A raster is therefore two buffers whatever its width:
/// they keep their capacity when a raster is refilled at another width,
/// [`SpikeRaster::total_spikes`] is O(1), and a noise model can sweep every
/// spike of a layer in one pass ([`SpikeRaster::retain_in_blocks`]).  The
/// buffer holds exactly the raster's spikes, so two rasters are equal
/// exactly when their windows and trains are.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpikeRaster {
    num_steps: u32,
    /// `offsets[i]..offsets[i + 1]` is neuron `i`'s train in `times`;
    /// `usize`, because neurons × window can pass `u32::MAX`.
    offsets: Vec<usize>,
    /// Every train's spike times, in neuron-then-time order.
    times: Vec<u32>,
}

impl Default for SpikeRaster {
    fn default() -> Self {
        SpikeRaster::new(0, 0)
    }
}

impl SpikeRaster {
    /// Spikes per block of [`SpikeRaster::retain_in_blocks`]: the most its
    /// closure is handed at once (a power of two, and whole 8-spike mask
    /// groups).
    pub const RETAIN_BLOCK: usize = 256;

    /// Creates an empty raster for `num_neurons` neurons over `num_steps`
    /// time steps.
    pub fn new(num_neurons: usize, num_steps: u32) -> Self {
        SpikeRaster {
            num_steps,
            offsets: vec![0; num_neurons + 1],
            times: Vec::new(),
        }
    }

    /// Number of neurons in the raster.
    pub fn num_neurons(&self) -> usize {
        self.offsets.len() - 1
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
        &self.times[self.offsets[neuron]..self.offsets[neuron + 1]]
    }

    /// Every train's spike times, concatenated in neuron order.
    pub(crate) fn times(&self) -> &[u32] {
        &self.times
    }

    /// The train bounds: neuron `i`'s train is
    /// `times()[offsets()[i]..offsets()[i + 1]]`.
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Replaces the spike train of neuron `neuron`.  Times are clamped to
    /// the window, sorted, and duplicates merged (spikes are binary events:
    /// firing "twice" at one step is one spike).
    ///
    /// # Panics
    /// Panics if `neuron` is out of range.
    pub fn set_train(&mut self, neuron: usize, mut times: Vec<u32>) {
        let (start, end) = (self.offsets[neuron], self.offsets[neuron + 1]);
        let len = times.len();
        let len = normalize_into(&mut times, 0..len, 0, self.num_steps);
        times.truncate(len);
        self.times.splice(start..end, times);
        for offset in &mut self.offsets[neuron + 1..] {
            *offset = *offset - (end - start) + len;
        }
    }

    /// Fraction of neurons that fire at least once — the per-layer activity
    /// the simulation's stage trace reports.  It is a measurement only: the
    /// engine runs one dense forward kernel whatever the density, because a
    /// density-selected sparse kernel ran at only 0.89–1.14x of the dense
    /// one across every coding and deletion level on AVX2.  An empty raster
    /// reports a density of `1.0`.
    pub fn density(&self) -> f32 {
        let neurons = self.num_neurons();
        if neurons == 0 {
            return 1.0;
        }
        let active = self.offsets.windows(2).filter(|w| w[0] < w[1]).count();
        active as f32 / neurons as f32
    }

    /// Iterates over `(neuron_index, spike_train)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.offsets
            .windows(2)
            .enumerate()
            .map(|(i, w)| (i, &self.times[w[0]..w[1]]))
    }

    /// Total number of spikes across all neurons.
    pub fn total_spikes(&self) -> usize {
        self.times.len()
    }

    /// Builds a raster from per-neuron trains, clamping, sorting and
    /// merging duplicates in each like [`SpikeRaster::set_train`].
    pub fn from_trains(trains: Vec<Vec<u32>>, num_steps: u32) -> Self {
        let mut offsets = Vec::with_capacity(trains.len() + 1);
        offsets.push(0);
        let mut raster = SpikeRaster {
            num_steps,
            offsets,
            times: Vec::new(),
        };
        for mut train in trains {
            let len = train.len();
            let len = normalize_into(&mut train, 0..len, 0, num_steps);
            raster.times.extend_from_slice(&train[..len]);
            raster.offsets.push(raster.times.len());
        }
        raster
    }

    /// Rebuilds the raster in place for `num_neurons` neurons over
    /// `num_steps` steps, each train appended by `f` to the shared spike
    /// buffer; both buffers keep their capacity, so a warm raster refills
    /// at any width without allocating.
    ///
    /// `f` receives `(neuron, buffer)`, where `buffer` already holds the
    /// trains of every earlier neuron.  It **must** only append, and must
    /// append strictly increasing times below `num_steps` (debug-asserted),
    /// which every block encoder guarantees by construction.  Trains are
    /// not re-normalised: the encode tail is pure train materialisation,
    /// and re-validating what was just emitted in order would cost a
    /// second pass over every spike.
    pub(crate) fn fill_trains<F>(&mut self, num_neurons: usize, num_steps: u32, mut f: F)
    where
        F: FnMut(usize, &mut Vec<u32>),
    {
        self.num_steps = num_steps;
        self.times.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for i in 0..num_neurons {
            let start = self.times.len();
            f(i, &mut self.times);
            debug_assert!(
                self.times.len() >= start && is_canonical(&self.times[start..], num_steps),
                "fill_trains: neuron {i} emitted a non-canonical train"
            );
            self.offsets.push(self.times.len());
        }
    }

    /// Mutates every train in place through `f` (in neuron order), then
    /// re-normalises each like [`SpikeRaster::set_train`] (clamp to the
    /// window, sort, merge duplicates) and closes the gaps merged spikes
    /// leave in the buffer.  The allocation-free primitive behind jitter,
    /// which shifts each train's spikes in place; `f` cannot change a
    /// train's length, only its times.
    pub fn update_trains<F>(&mut self, mut f: F)
    where
        F: FnMut(usize, &mut [u32]),
    {
        let num_steps = self.num_steps;
        let (mut read, mut write) = (0usize, 0usize);
        for i in 0..self.num_neurons() {
            let end = self.offsets[i + 1];
            f(i, &mut self.times[read..end]);
            write = normalize_into(&mut self.times, read..end, write, num_steps);
            self.offsets[i + 1] = write;
            read = end;
        }
        self.times.truncate(write);
    }

    /// Keeps a subsequence of the raster's spikes, in place, in one pass
    /// over the whole spike buffer: the allocation-free primitive behind
    /// spike deletion.  The buffer is walked in neuron-then-time order in
    /// blocks of at most [`SpikeRaster::RETAIN_BLOCK`] spikes that run
    /// across train boundaries.
    ///
    /// For each block, `compact(window, read, masks)` receives the buffer
    /// from the write cursor to the block's end — the block's spikes are
    /// `window[read..]`, in order, and everything before them is already
    /// consumed — and one mask byte per 8 spikes of the block (the last
    /// byte covers the partial group).  It must move the block's surviving
    /// spikes, in order, to `window[..kept]` and set bit `l` of `masks[g]`
    /// exactly when spike `8g + l` of the block survives; bits past the
    /// block's end are ignored.  The masks are the one record of what
    /// survived: the raster counts the survivors from them and rebases
    /// every train's offset once per block (the popcount of each mask
    /// prefix), so no train is re-scanned.  A subsequence of a canonical
    /// train is canonical, so nothing is re-normalised either.  `compact`
    /// is not called for a raster without spikes.
    ///
    /// The layout stays private to the raster and the survival rule to
    /// the caller: the noise crate's deletion model draws one random word
    /// per spike of the block and left-packs the survivors with a SIMD
    /// kernel.
    ///
    /// ```
    /// use nrsnn_snn::SpikeRaster;
    ///
    /// // Keep every spike at an even time step.
    /// let mut raster = SpikeRaster::from_trains(vec![vec![0, 1, 2], vec![], vec![3, 4]], 8);
    /// raster.retain_in_blocks(|window, read, masks| {
    ///     masks.fill(0);
    ///     let mut kept = 0;
    ///     for i in 0..window.len() - read {
    ///         let t = window[read + i];
    ///         if t % 2 == 0 {
    ///             window[kept] = t;
    ///             kept += 1;
    ///             masks[i / 8] |= 1 << (i % 8);
    ///         }
    ///     }
    /// });
    /// assert_eq!(raster, SpikeRaster::from_trains(vec![vec![0, 2], vec![], vec![4]], 8));
    /// ```
    pub fn retain_in_blocks<F>(&mut self, mut compact: F)
    where
        F: FnMut(&mut [u32], usize, &mut [u8]),
    {
        let total = self.times.len();
        let mut mask_block = [0u8; Self::RETAIN_BLOCK / 8];
        // `kept_before[g]`: the block's survivors ahead of group `g`.
        let mut kept_before = [0u16; Self::RETAIN_BLOCK / 8 + 1];
        let (mut read, mut write) = (0usize, 0usize);
        // `offsets[0]` stays 0; `next` is the first offset not yet rebased.
        let mut next = 1;
        while read < total {
            let len = (total - read).min(Self::RETAIN_BLOCK);
            let end = read + len;
            let masks = &mut mask_block[..len.div_ceil(8)];
            compact(&mut self.times[write..end], read - write, masks);
            if len % 8 != 0 {
                masks[len / 8] &= (1u8 << (len % 8)) - 1;
            }
            for (g, &mask) in masks.iter().enumerate() {
                kept_before[g + 1] = kept_before[g] + u16::from(KEPT[usize::from(mask)]);
            }
            let kept = usize::from(kept_before[masks.len()]);
            // A train that starts inside this block starts after the
            // survivors of every earlier block (`write`) and of this
            // block's spikes ahead of it.
            let mut rebased = 0;
            for offset in &mut self.offsets[next..] {
                if *offset >= end {
                    break;
                }
                // `rel < len <= RETAIN_BLOCK`; the mask keeps the indexing
                // below provably in bounds.
                let rel = (*offset - read) & (Self::RETAIN_BLOCK - 1);
                let ahead = mask_block[rel / 8] & ((1u8 << (rel % 8)) - 1);
                *offset = write
                    + usize::from(kept_before[rel / 8])
                    + usize::from(KEPT[usize::from(ahead)]);
                rebased += 1;
            }
            next += rebased;
            write += kept;
            read = end;
        }
        // Every remaining offset ends the buffer.
        for offset in &mut self.offsets[next..] {
            *offset = write;
        }
        self.times.truncate(write);
    }
}

/// `KEPT[m]`: the set bits of keep mask `m` (a table, because the default
/// x86-64 target has no `popcnt` instruction).
const KEPT: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut mask = 0;
    while mask < 256 {
        table[mask] = (mask as u8).count_ones() as u8;
        mask += 1;
    }
    table
};

/// Whether `train` is strictly increasing and inside a `num_steps` window.
fn is_canonical(train: &[u32], num_steps: u32) -> bool {
    train.last().map_or(true, |&last| last < num_steps) && train.windows(2).all(|w| w[0] < w[1])
}

/// Normalises the train `buffer[from]` — clamps every time to the window,
/// sorts, and merges duplicate times — while moving it down to start at
/// `buffer[to]` (`to <= from.start`), and returns where the normalised
/// train ends: the shared normalisation of [`SpikeRaster::set_train`],
/// [`SpikeRaster::from_trains`] and [`SpikeRaster::update_trains`], which
/// closes the gaps earlier trains' merged spikes left in the same pass.
///
/// The merge step *enforces* the raster's binary-spike semantics: clamping
/// (or jitter) can land two spikes on the same step, and keeping both would
/// make train lengths disagree with any dense 0/1 view of the raster and
/// double-count the spike in every PSC decode.  A window of zero steps
/// clamps to step 0.
fn normalize_into(buffer: &mut [u32], from: Range<usize>, to: usize, num_steps: u32) -> usize {
    debug_assert!(to <= from.start);
    let train = &mut buffer[from.clone()];
    // Fast path: every encoder produces strictly increasing in-window
    // trains, so one linear check usually replaces the clamp-sort-merge
    // work entirely.
    if is_canonical(train, num_steps.max(1)) {
        if to == from.start {
            return from.end;
        }
    } else {
        let max = num_steps.saturating_sub(1);
        for t in train.iter_mut() {
            *t = (*t).min(max);
        }
        train.sort_unstable();
    }
    // Every store lands at or behind the spike just read.
    let mut write = to;
    let mut prev = None;
    for read in from {
        let t = buffer[read];
        buffer[write] = t;
        write += usize::from(prev != Some(t));
        prev = Some(t);
    }
    write
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
        assert_eq!(SpikeRaster::default().num_neurons(), 0);
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
    fn set_train_mid_raster_shifts_only_later_trains() {
        let mut r = SpikeRaster::from_trains(vec![vec![0, 1], vec![2, 3, 4], vec![5]], 8);
        r.set_train(1, vec![6]);
        assert_eq!(
            r,
            SpikeRaster::from_trains(vec![vec![0, 1], vec![6], vec![5]], 8)
        );
        r.set_train(1, vec![7, 2, 4, 3]);
        assert_eq!(
            r,
            SpikeRaster::from_trains(vec![vec![0, 1], vec![2, 3, 4, 7], vec![5]], 8)
        );
        r.set_train(0, Vec::new());
        r.set_train(2, vec![1, 1]);
        assert_eq!(
            r,
            SpikeRaster::from_trains(vec![vec![], vec![2, 3, 4, 7], vec![1]], 8)
        );
        assert_eq!(r.total_spikes(), 5);
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
        let mut r = SpikeRaster::from_trains(vec![vec![1, 2, 3]; 40], 4);
        let capacity = (r.offsets.capacity(), r.times.capacity());
        r.fill_trains(3, 16, |i, out| out.extend_from_slice(&trains[i]));
        assert_eq!(r, reference);
        // Refilling fewer neurons with fewer spikes keeps the raster
        // consistent: the surplus trains go, stale spikes do not survive.
        r.fill_trains(2, 16, |_, out| out.push(1));
        assert_eq!(r.num_neurons(), 2);
        assert_eq!(r.total_spikes(), 2);
        assert_eq!(r.train(0), &[1]);
        // Wider again: both buffers keep the capacity they had.
        r.fill_trains(40, 4, |i, out| out.extend(0..(i % 4) as u32));
        assert_eq!(r.total_spikes(), 60);
        assert_eq!((r.offsets.capacity(), r.times.capacity()), capacity);
    }

    #[test]
    fn update_trains_merges_colliding_spikes_and_closes_the_gaps() {
        let mut r = SpikeRaster::from_trains(vec![vec![1, 2, 3], vec![], vec![4, 5], vec![6]], 8);
        // Shift every spike of neuron 0 onto one step and push neuron 2's
        // past the window: both trains shrink, the later ones move down.
        r.update_trains(|i, train| {
            for t in train.iter_mut() {
                match i {
                    0 => *t = 2,
                    2 => *t += 10,
                    _ => *t -= 6,
                }
            }
        });
        assert_eq!(
            r,
            SpikeRaster::from_trains(vec![vec![2], vec![], vec![7], vec![0]], 8)
        );
        assert_eq!(r.total_spikes(), 3);
        // Unsorted results are sorted.
        r.update_trains(|i, train| {
            if i == 0 {
                train[0] = 5;
            }
        });
        assert_eq!(r.train(0), &[5]);
    }

    #[test]
    fn retain_in_blocks_rebases_offsets_across_blocks() {
        // Trains that straddle every block boundary, with empty trains at
        // the boundaries and at both ends.
        let lengths = [0usize, 3, 250, 0, 9, 300, 0, 1, 256, 0];
        let trains: Vec<Vec<u32>> = lengths
            .iter()
            .map(|&len| (0..len as u32).collect())
            .collect();
        let mut r = SpikeRaster::from_trains(trains.clone(), 512);
        // Keep spike `i` of the buffer when `i % 3 != 1`.
        let mut index = 0usize;
        let mut blocks = Vec::new();
        r.retain_in_blocks(|window, read, masks| {
            let len = window.len() - read;
            blocks.push(len);
            masks.fill(0xff); // bits past the block's end must be ignored
            let mut kept = 0;
            for i in 0..len {
                let keep = (index + i) % 3 != 1;
                window[kept] = window[read + i];
                kept += keep as usize;
                if !keep {
                    masks[i / 8] &= !(1 << (i % 8));
                }
            }
            index += len;
        });
        assert_eq!(blocks, [256, 256, 256, 51]);
        let mut index = 0usize;
        let expected: Vec<Vec<u32>> = trains
            .iter()
            .map(|train| {
                let kept = train
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| (index + i) % 3 != 1)
                    .map(|(_, &t)| t)
                    .collect();
                index += train.len();
                kept
            })
            .collect();
        assert_eq!(r, SpikeRaster::from_trains(expected, 512));

        // No spikes: no call, offsets untouched.
        let mut silent = SpikeRaster::new(3, 8);
        silent.retain_in_blocks(|_, _, _| panic!("called without spikes"));
        assert_eq!(silent, SpikeRaster::new(3, 8));
    }

    #[test]
    fn equality_compares_window_and_trains() {
        let a = SpikeRaster::from_trains(vec![vec![1], vec![2]], 4);
        assert_eq!(a, SpikeRaster::from_trains(vec![vec![1], vec![2]], 4));
        // Same spike buffer, different train bounds.
        assert_ne!(a, SpikeRaster::from_trains(vec![vec![1, 2], vec![]], 4));
        assert_ne!(a, SpikeRaster::from_trains(vec![vec![1], vec![2]], 5));
        assert_ne!(
            a,
            SpikeRaster::from_trains(vec![vec![1], vec![2], vec![]], 4)
        );
        // A refilled raster equals a fresh one whatever it held before.
        let mut refilled = SpikeRaster::from_trains(vec![vec![0, 1, 2, 3]; 3], 4);
        refilled.fill_trains(2, 4, |i, out| out.push(i as u32 + 1));
        assert_eq!(refilled, a);
    }

    #[test]
    fn iter_yields_all_neurons() {
        let r = SpikeRaster::from_trains(vec![vec![1], vec![2], vec![]], 4);
        assert_eq!(r.iter().count(), 3);
        let counts: Vec<usize> = r.iter().map(|(_, t)| t.len()).collect();
        assert_eq!(counts, vec![1, 1, 0]);
    }
}
