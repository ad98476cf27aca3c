//! Thread-count configuration for the executor.

/// Environment variable consulted by [`ParallelConfig::auto`] (and any other
/// configuration with `threads = 0`) to fix the worker count.
///
/// Its sibling knob is `NRSNN_SIMD` (`nrsnn_tensor::simd::SIMD_ENV_VAR`),
/// which selects the kernel backend the same way this variable selects
/// parallelism; neither setting can change a single result bit, only
/// throughput. They differ in one deliberate way: an unparsable
/// `NRSNN_THREADS` falls through to hardware detection (a thread count is a
/// tuning hint), while an unknown `NRSNN_SIMD` value is a typed error (a
/// backend name is an enumerated contract, and a typo silently running
/// scalar would be a 2x performance bug nobody notices).
pub const THREADS_ENV_VAR: &str = "NRSNN_THREADS";

/// How a parallel map distributes its tasks.
///
/// `threads = 0` means "auto": the [`THREADS_ENV_VAR`] environment variable
/// if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`].  An explicit positive `threads`
/// always wins over the environment, which keeps tests and benches pinned to
/// the worker count they ask for.
///
/// The thread count never changes *what* is computed — the executor
/// reassembles results by task index and tasks derive their own seeds — only
/// how the work is spread over cores.
///
/// ```
/// use nrsnn_runtime::ParallelConfig;
///
/// assert_eq!(ParallelConfig::serial().effective_threads(), 1);
/// assert_eq!(ParallelConfig::with_threads(3).effective_threads(), 3);
/// assert!(ParallelConfig::auto().effective_threads() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    /// Number of worker threads; `0` resolves via `NRSNN_THREADS`, then
    /// the machine's available parallelism.
    pub threads: usize,
}

impl ParallelConfig {
    /// Auto-detected thread count (env var, then hardware).
    pub fn auto() -> Self {
        ParallelConfig { threads: 0 }
    }

    /// Single-threaded execution: the reference path every parallel run must
    /// reproduce bit for bit.
    pub fn serial() -> Self {
        ParallelConfig { threads: 1 }
    }

    /// An explicit worker count (ignores `NRSNN_THREADS`).
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig { threads }
    }

    /// The worker count this configuration resolves to right now.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Some(n) = env_threads() {
            return n;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::auto()
    }
}

fn env_threads() -> Option<usize> {
    let value = std::env::var(THREADS_ENV_VAR).ok()?;
    match value.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_threads_win_over_everything() {
        assert_eq!(ParallelConfig::with_threads(7).effective_threads(), 7);
        assert_eq!(ParallelConfig::serial().effective_threads(), 1);
    }

    #[test]
    fn auto_resolves_to_at_least_one_worker() {
        assert!(ParallelConfig::auto().effective_threads() >= 1);
        assert_eq!(ParallelConfig::default(), ParallelConfig::auto());
    }

    #[test]
    fn env_parsing_rejects_garbage() {
        // `env_threads` is exercised indirectly; garbage values must fall
        // through to hardware detection rather than panic.  We only check
        // the parser here to avoid mutating process-global state in tests.
        assert_eq!("4".trim().parse::<usize>().ok().filter(|&n| n > 0), Some(4));
        assert_eq!("zero".trim().parse::<usize>().ok().filter(|&n| n > 0), None);
        assert_eq!("0".trim().parse::<usize>().ok().filter(|&n| n > 0), None);
    }
}
