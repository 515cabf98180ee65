//! The vrio-rs benchmark: host cost of simulating a fixed simulated
//! horizon of vRIO traffic on four workloads (`net-rr`, `blk-rw`,
//! `blk-aes`, `chaos`), with per-layer attribution from a separate traced
//! run. See NOTES.md for the workloads, the metric → layer → workload map
//! and the known defects the benchmark accounts for.
//!
//! ```text
//! perfbench --workload <net-rr|blk-rw|blk-aes|chaos|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans-out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits 0
//! only when every correctness check passed.

mod alloc;
mod calib;
mod chaos;
mod flows;
mod layers;
mod plan;
mod report;
mod spans;
#[cfg(test)]
mod tests;

use std::process::ExitCode;

use plan::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload (`None` = all four, one after another).
    pub workload: Option<Workload>,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Directory the traced run writes its span log to.
    pub spans_out: String,
    /// Multiplies every simulated horizon (1.0 on the command line; the
    /// tests run shorter horizons).
    pub scale: f64,
}

const USAGE: &str = "usage: perfbench --workload <net-rr|blk-rw|blk-aes|chaos|all> --seed <n> \
--seconds <s> --trace <0|1> [--spans-out <dir>]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans_out: "perfbench/out".into(),
        scale: 1.0,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got '{value}'"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            "--spans-out" => args.spans_out = value.clone(),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" {
        args.workload = Some(
            Workload::parse(&workload).ok_or_else(|| format!("unknown workload '{workload}'"))?,
        );
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    alloc::settle_allocator();
    calib::prepare();
    let outcomes: Vec<(Workload, report::Outcome)> = match args.workload {
        Some(w) => vec![(w, report::run_guarded(w, &args))],
        None => Workload::ALL
            .iter()
            .map(|&w| (w, report::run_guarded(w, &args)))
            .collect(),
    };
    let prefixed = outcomes.len() > 1;
    let mut all = report::Outcome {
        correct: true,
        ..Default::default()
    };
    for (w, o) in &outcomes {
        o.print_human(*w);
        all.correct &= o.correct;
        all.attempted += o.attempted;
        all.failed += o.failed;
        for m in &o.metrics {
            let mut m = m.clone();
            if prefixed {
                m.name = format!("{}.{}", w.name(), m.name);
            }
            all.metrics.push(m);
        }
    }
    println!("{}", all.json_line());
    if all.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
