//! # nrsnn-perfbench
//!
//! One benchmark for the engine.  A run executes one workload, checks its
//! outputs, measures it from outside through public entry points only, and
//! prints one JSON object as the last line of standard output:
//!
//! * `--trace 0` — the end-to-end metrics, measured with all tracing off;
//! * `--trace 1` — a separate traced run giving the per-layer metrics
//!   (setup timers, `SimWorkspace` stage events, wire timers and the
//!   server's `stats` reply).
//!
//! Workloads.  The trained model and its test rows define a workload and
//! are fixed (the `nrsnn_bench` pipeline configurations, seeds included):
//! a different training seed moves the grid's mean accuracy by over 20
//! points and its speed with it, which would swamp any regression bound.
//! Everything a run feeds that model derives from `--seed`: the sweeps'
//! noise realisations, and the serve workload's row order and request
//! seeds.
//!
//! * `mlp_deletion_sweep` — the MNIST-like MLP through [`DeletionSweep`]
//!   over the five codings at p ∈ {0, 0.5, 0.9} with weight scaling: the
//!   paper's Fig. 7 / Table I experiment, and the only workload on which
//!   the sparse kernels run (the p = 0.9 cells);
//! * `cnn_jitter_sweep` — the CIFAR-10-like CNN through [`JitterSweep`] at
//!   σ ∈ {0, 1, 4}: the same noise layer used differently (one Gaussian per
//!   spike, no thinning), so rasters stay dense.  It runs like the others
//!   but is not listed in `BENCHMARK.json`: its large, memory-bound rasters
//!   follow the shared host's speed, and on a 2-vCPU VM its samples/s and
//!   p99 spread by 0.28 and 0.39 of their medians over ten runs, past any
//!   bound a regression check could use;
//! * `serve_mlp_clean` — the MLP under TTAS(5) with clean noise, exported
//!   as an NRSM file, served over binary TCP and driven by a closed loop of
//!   one client: the only workload with the wire codec, the TCP front end
//!   and the batcher on the critical path.
//!
//! Every run rewrites `results/<workload>.trace<0|1>.json` next to this
//! package's manifest, stamped with provenance (git rev, SIMD backend,
//! thread count, core count, date, seed); it never merges older output.
//!
//! [`DeletionSweep`]: nrsnn::prelude::DeletionSweep
//! [`JitterSweep`]: nrsnn::prelude::JitterSweep

use std::io::Write;
use std::path::{Path, PathBuf};

use nrsnn::prelude::*;
use nrsnn_obs::{Clock, MonotonicClock};

pub mod layers;
pub mod report;
mod serve;
mod sweep;

pub use report::{Metric, Outcome};

/// Boxed error of a run that could not complete (as opposed to a run that
/// completed with failed correctness checks, which is an [`Outcome`]).
pub type BenchError = Box<dyn std::error::Error + Send + Sync>;

/// Result alias for the benchmark.
pub type Result<T> = std::result::Result<T, BenchError>;

/// The codings every workload draws from, in table order.
pub const CODINGS: [CodingKind; 5] = [
    CodingKind::Rate,
    CodingKind::Phase,
    CodingKind::Burst,
    CodingKind::Ttfs,
    CodingKind::Ttas(5),
];

/// Metric-name suffix of each entry of [`CODINGS`].
pub const CODING_TAGS: [&str; 5] = ["rate", "phase", "burst", "ttfs", "ttas5"];

/// Worker threads of the sweeps and of the server.
pub const THREADS: usize = 2;

/// Task indices mixed into the workload seed with
/// [`nrsnn_runtime::derive_seed`], one per independent random stream.
mod stream {
    pub const SWEEP: u64 = 2;
    pub const MASTER: u64 = 3;
    pub const ORDER: u64 = 4;
    pub const REQUESTS: u64 = 5;
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Deletion sweep of the MLP (Fig. 7 / Table I).
    MlpDeletionSweep,
    /// Jitter sweep of the CNN (Fig. 8 / Table II).
    CnnJitterSweep,
    /// Clean TTAS(5) serving of the MLP over binary TCP.
    ServeMlpClean,
}

impl Workload {
    /// Every workload; `BENCHMARK.json` lists all but `cnn_jitter_sweep`.
    pub const ALL: [Workload; 3] = [
        Workload::MlpDeletionSweep,
        Workload::CnnJitterSweep,
        Workload::ServeMlpClean,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MlpDeletionSweep => "mlp_deletion_sweep",
            Workload::CnnJitterSweep => "cnn_jitter_sweep",
            Workload::ServeMlpClean => "serve_mlp_clean",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Command-line options of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed; every noise stream, request seed and request order
    /// derives from it.
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// `false`: end-to-end run (tracing off); `true`: per-layer run.
    pub trace: bool,
    /// Where the results file (and the exported model) is written.
    pub results_dir: PathBuf,
}

/// Usage line printed on a bad command line.
pub const USAGE: &str = "usage: nrsnn-perfbench --workload <mlp_deletion_sweep|cnn_jitter_sweep|\
serve_mlp_clean> --seed <n> --seconds <s> --trace <0|1>";

impl Options {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    /// A message naming the missing or malformed argument.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> std::result::Result<Options, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds must be in (0, 600], got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    });
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            results_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("results"),
        })
    }
}

/// Problem sizes.  [`Scale::full`] is the benchmark; [`Scale::tiny`] keeps
/// every code path but shrinks the work for the self-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Training samples of the MLP's dataset.
    pub mlp_train: usize,
    /// Training epochs of the MLP.
    pub mlp_epochs: usize,
    /// Training samples of the CNN's dataset.
    pub cnn_train: usize,
    /// Training epochs of the CNN.
    pub cnn_epochs: usize,
    /// Test samples: the sweeps' `eval_samples` and the served rows.
    pub test: usize,
    /// Simulation window.
    pub time_steps: u32,
    /// Set-ups per run; set-up metrics report their median.
    pub setups: usize,
    /// Passes over the served rows in the serial traced serve profile.
    pub serve_profile_passes: usize,
}

impl Scale {
    /// The benchmark's sizes (the `nrsnn_bench` pipelines, T = 96, all 96
    /// test samples).
    pub fn full() -> Scale {
        Scale {
            mlp_train: 384,
            mlp_epochs: 12,
            cnn_train: 320,
            cnn_epochs: 10,
            test: 96,
            time_steps: 96,
            setups: 5,
            serve_profile_passes: 10,
        }
    }

    /// Minimal sizes for the self-test.
    pub fn tiny() -> Scale {
        Scale {
            mlp_train: 48,
            mlp_epochs: 2,
            cnn_train: 32,
            cnn_epochs: 1,
            test: 12,
            time_steps: 24,
            setups: 2,
            serve_profile_passes: 1,
        }
    }

    /// The MLP pipeline, trained like `nrsnn_bench::mnist_pipeline()`.
    pub(crate) fn mlp_config(&self) -> PipelineConfig {
        let mut config = PipelineConfig::mnist_full();
        config.dataset = config.dataset.with_samples(self.mlp_train, self.test);
        config.epochs = self.mlp_epochs;
        config
    }

    /// The CNN pipeline, trained like `nrsnn_bench::cifar10_pipeline()`.
    pub(crate) fn cnn_config(&self) -> PipelineConfig {
        let mut config = PipelineConfig::cifar10_full();
        config.dataset = config.dataset.with_samples(self.cnn_train, self.test);
        config.epochs = self.cnn_epochs;
        config
    }
}

/// Runs one workload, writing the human-readable report and, as the last
/// line, the JSON result to `out`; also rewrites the results file.
///
/// # Errors
/// Set-up failures (training, conversion, model export, server start) and
/// I/O errors.  Failed correctness checks are not errors: they come back
/// as `correct: false` with the failures counted.
pub fn run(options: &Options, scale: &Scale, out: &mut dyn Write) -> Result<Outcome> {
    let provenance = report::Provenance::capture(options);
    writeln!(out, "{}", provenance.describe())?;
    let outcome = match options.workload {
        Workload::MlpDeletionSweep | Workload::CnnJitterSweep => sweep::run(options, scale, out)?,
        Workload::ServeMlpClean => serve::run(options, scale, out)?,
    };
    report::print_outcome(options, &outcome, out)?;
    report::write_results_file(options, &provenance, &outcome)?;
    writeln!(out, "{}", outcome.to_json())?;
    Ok(outcome)
}

/// Nanoseconds elapsed on `clock` since `start_ns`.
pub(crate) fn since(clock: &MonotonicClock, start_ns: u64) -> u64 {
    clock.now_ns().saturating_sub(start_ns)
}

/// Median of `values` (mean of the middle pair for even counts); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `q` ∈ (0, 1] of `sorted` (ascending); `0` when
/// empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile `q` of `sorted` (ascending) taken as the mean of the order
/// statistics between the nearest-rank percentiles `q - band` and
/// `q + band`.  On a mixture of well-separated clusters, such as the
/// latencies of a sweep grid's cells, a single order statistic jumps
/// between clusters when two of them trade ranks; the band mean moves
/// smoothly instead.  `0` when empty.
pub fn percentile_band(sorted: &[u64], q: f64, band: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps float noise in `p * len` from skipping a rank.
    let rank =
        |p: f64| ((p * sorted.len() as f64 - 1e-9).ceil() as usize).clamp(1, sorted.len()) - 1;
    let window = &sorted[rank(q - band)..=rank(q + band)];
    window.iter().map(|&v| v as f64).sum::<f64>() / window.len() as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// `true` if the two slices hold the same IEEE bit patterns.
pub(crate) fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let options = Options::parse(args(&[
            "--workload",
            "serve_mlp_clean",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(options.workload, Workload::ServeMlpClean);
        assert_eq!(options.seed, 7);
        assert_eq!(options.seconds, 10.0);
        assert!(options.trace);
        assert!(Options::parse(args(&["--workload", "nope"])).is_err());
        assert!(Options::parse(args(&["--workload", "cnn_jitter_sweep"])).is_err());
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        // Ranks 45..=55 around the median, 98..=100 around p99.
        assert_eq!(percentile_band(&sorted, 0.5, 0.05), 50.0);
        assert_eq!(percentile_band(&sorted, 0.99, 0.01), 99.0);
        assert_eq!(percentile_band(&sorted, 0.5, 0.0), 50.0);
    }
}
