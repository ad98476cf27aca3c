//! Metric records, provenance, the printed tables, the results file and
//! the final JSON line.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::{Options, Result, CODING_TAGS};

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value; `None` for a per-layer metric whose layer does no work on
    /// this workload (printed as `-`, and as `0` in the JSON line, which
    /// must carry every metric).
    pub value: Option<f64>,
}

impl Metric {
    /// A metric record.
    pub fn new(name: &str, unit: &'static str, value: Option<f64>) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// The end-to-end metrics of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndToEnd {
    /// Median set-up time: data generation, training, conversion and, on
    /// serve, model export and load and server start.
    pub setup_s: f64,
    /// Inferences completed per second: simulated samples per second of
    /// wall time of the fastest single-threaded sweep, or successful
    /// replies per second in the fastest quarter of the closed loop.
    pub samples_per_s: f64,
    /// Median time of one inference as its caller sees it: one
    /// `simulate_with` call of a grid pair on the sweeps (the fastest of
    /// its probes on one thread), one TCP round trip in the fastest quarter
    /// of the closed loop on serve.
    pub latency_p50_us: f64,
    /// 99th percentile of the same.
    pub latency_p99_us: f64,
    /// Mean accuracy over the grid cells (sweeps) or over the test rows as
    /// served (serve).
    pub accuracy_pct: f64,
    /// Mean transmitted spikes per inference.
    pub spikes_per_inference: f64,
    /// Peak resident memory (`VmHWM`) through set-up and the correctness
    /// checks, read before the timed window: allocator fragmentation from
    /// the window's thread churn would otherwise move it by a fifth from
    /// run to run.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// The metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        [
            ("setup_s", "s", self.setup_s),
            ("samples_per_s", "1/s", self.samples_per_s),
            ("latency_p50_us", "us", self.latency_p50_us),
            ("latency_p99_us", "us", self.latency_p99_us),
            ("accuracy_pct", "%", self.accuracy_pct),
            ("spikes_per_inference", "count", self.spikes_per_inference),
            ("peak_rss_mb", "MiB", self.peak_rss_mb),
        ]
        .into_iter()
        .map(|(name, unit, value)| Metric::new(name, unit, Some(value)))
        .collect()
    }
}

/// The result of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Operations attempted: simulated inferences or requests sent.
    pub attempted: u64,
    /// Operations that failed: errors, `Busy` refusals and outputs that
    /// failed the correctness check.
    pub failed: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Context lines for the report (sample counts, check summaries).
    pub notes: Vec<String>,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics as a JSON object `{name: {"value": v, "unit": u}}`.
    fn metrics_json(&self) -> String {
        let entries: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&m.name),
                    json_number(m.value.unwrap_or(0.0)),
                    json_string(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Shortest round-trip decimal of `value` (all its digits); non-finite
/// values, which JSON cannot carry, become `0`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Where and on what a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// SIMD backend the kernels dispatch to.
    pub simd_backend: &'static str,
    /// Worker threads of the sweeps and the server.
    pub threads: usize,
    /// Cores available to the process.
    pub nproc: usize,
    /// UTC date and time of the run.
    pub date: String,
    /// The run's options.
    pub options: Options,
}

impl Provenance {
    /// Captures the provenance of a run starting now.
    pub fn capture(options: &Options) -> Provenance {
        Provenance {
            git_rev: git_rev(&repo_root()).unwrap_or_else(|| "unknown".to_string()),
            simd_backend: nrsnn_tensor::simd::active_backend().name(),
            threads: crate::THREADS,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            date: utc_now(),
            options: options.clone(),
        }
    }

    /// One line for the report.
    pub fn describe(&self) -> String {
        format!(
            "# nrsnn-perfbench workload={} seed={} seconds={} trace={} | rev={} simd={} \
             threads={} nproc={} date={}",
            self.options.workload.name(),
            self.options.seed,
            self.options.seconds,
            u8::from(self.options.trace),
            self.git_rev,
            self.simd_backend,
            self.threads,
            self.nproc,
            self.date
        )
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\": {}, \"simd_backend\": {}, \"threads\": {}, \"nproc\": {}, \
             \"date\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
            json_string(&self.git_rev),
            json_string(self.simd_backend),
            self.threads,
            self.nproc,
            json_string(&self.date),
            json_string(self.options.workload.name()),
            self.options.seed,
            json_number(self.options.seconds),
            u8::from(self.options.trace)
        )
    }
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Reads the checked-out commit from `.git` without running git.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    // nrsnn-lint: allow(forbidden-api) -- the wall-clock date is provenance
    // stamped on the results, not a timer.
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = i64::try_from(secs / 86_400).unwrap_or(0);
    let rem = secs % 86_400;
    // Civil-from-days (proleptic Gregorian), after H. Hinnant.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

/// Prints the checks and the metric table of a finished run.
///
/// # Errors
/// Write errors.
pub fn print_outcome(options: &Options, outcome: &Outcome, out: &mut dyn Write) -> Result<()> {
    writeln!(
        out,
        "checks: {} | attempted {} | failed {} | failed_frac {} ratio",
        if outcome.correct() {
            "passed"
        } else {
            "FAILED"
        },
        outcome.attempted,
        outcome.failed,
        outcome.failed_frac()
    )?;
    for note in &outcome.notes {
        writeln!(out, "  {note}")?;
    }
    for problem in &outcome.problems {
        writeln!(out, "  FAILED: {problem}")?;
    }
    if options.trace {
        print_layer_table(options, &outcome.metrics, out)
    } else {
        writeln!(out, "end-to-end metrics ({}):", options.workload.name())?;
        for m in &outcome.metrics {
            writeln!(
                out,
                "  {:<24} {:>16.4} {}",
                m.name,
                m.value.unwrap_or(0.0),
                m.unit
            )?;
        }
        Ok(())
    }
}

/// The layer × metric table: one row per metric, with the per-coding
/// variants (`<metric>.<coding>`) as columns.  Rows of layers that do no
/// work on this workload are left out.
fn print_layer_table(options: &Options, metrics: &[Metric], out: &mut dyn Write) -> Result<()> {
    writeln!(out, "per-layer metrics ({}):", options.workload.name())?;
    write!(out, "  {:<8} {:<24} {:>11}", "layer", "metric", "all")?;
    for tag in CODING_TAGS {
        write!(out, " {tag:>11}")?;
    }
    writeln!(out, "  unit")?;
    let cell = |value: Option<f64>| value.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"));
    for m in metrics {
        let is_variant = CODING_TAGS
            .iter()
            .any(|tag| m.name.ends_with(&format!(".{tag}")));
        if is_variant || m.value.is_none() {
            continue;
        }
        let (layer, rest) = m.name.split_once('.').unwrap_or(("", &m.name));
        write!(out, "  {layer:<8} {rest:<24} {:>11}", cell(m.value))?;
        let has_variants = metrics
            .iter()
            .any(|v| v.name == format!("{}.{}", m.name, CODING_TAGS[0]));
        for tag in CODING_TAGS {
            let variant = format!("{}.{tag}", m.name);
            let value = metrics
                .iter()
                .find(|v| v.name == variant)
                .and_then(|v| v.value);
            let text = if has_variants {
                cell(value)
            } else {
                String::new()
            };
            write!(out, " {text:>11}")?;
        }
        writeln!(out, "  {}", m.unit)?;
    }
    Ok(())
}

/// Rewrites `results/<workload>.trace<0|1>.json` next to this package's
/// manifest: provenance, checks and every metric of this run only.
///
/// # Errors
/// I/O errors creating the directory or writing the file.
pub fn write_results_file(
    options: &Options,
    provenance: &Provenance,
    outcome: &Outcome,
) -> Result<PathBuf> {
    std::fs::create_dir_all(&options.results_dir)?;
    let path = options.results_dir.join(format!(
        "{}.trace{}.json",
        options.workload.name(),
        u8::from(options.trace)
    ));
    let list = |items: &[String]| {
        items
            .iter()
            .map(|s| json_string(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let text = format!(
        "{{\"provenance\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"failed_frac\": {}, \"problems\": [{}], \"notes\": [{}], \"metrics\": {}}}\n",
        provenance.to_json(),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        json_number(outcome.failed_frac()),
        list(&outcome.problems),
        list(&outcome.notes),
        outcome.metrics_json()
    );
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric::new("a.b", "us", Some(1.25)),
                Metric::new("c", "%", None),
            ],
            ..Outcome::default()
        };
        let value: serde_json::Value = serde_json::from_str(&outcome.to_json()).unwrap();
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = value.get("metrics").unwrap();
        let a = metrics.get("a.b").unwrap();
        assert_eq!(
            a.get("value").and_then(serde_json::Value::as_f64),
            Some(1.25)
        );
        assert_eq!(
            a.get("unit").and_then(serde_json::Value::as_str),
            Some("us")
        );
        let c = metrics.get("c").unwrap();
        assert_eq!(
            c.get("value").and_then(serde_json::Value::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn utc_dates_are_well_formed() {
        let date = utc_now();
        assert_eq!(date.len(), 20, "{date}");
        assert!(date.ends_with('Z'));
    }
}
