//! Command-line entry point: runs one workload of the engine benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mlp_deletion_sweep|cnn_jitter_sweep|serve_mlp_clean> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the JSON result.  A bad command
//! line exits with 2, a run that cannot complete with 1; both print no
//! result.

use std::io::Write;
use std::process::ExitCode;

use nrsnn_perfbench::{run, Options, Scale, USAGE};

fn main() -> ExitCode {
    let mut stderr = std::io::stderr();
    let options = match Options::parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            let _ = writeln!(stderr, "{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    match run(&options, &Scale::full(), &mut stdout) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            let _ = stdout.flush();
            let _ = writeln!(stderr, "benchmark could not complete: {e}");
            ExitCode::from(1)
        }
    }
}
