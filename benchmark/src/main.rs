//! The repository benchmark: four workloads through the public API of the
//! at-most-once crates, every output checked, end-to-end metrics with
//! `--trace 0` and a per-layer profile with `--trace 1`.
//!
//! ```text
//! amo-benchmark --workload <kk_batched|wa_recovery|kk_quorum|serve_claims>
//!               --seed <u64> --seconds <f64> --trace <0|1>
//! ```
//!
//! The last line of standard output is the JSON result. A failed check
//! prints the workload and the check to standard error and exits with 1.
//! See `README.md` beside this crate for why each workload and metric.

mod check;
mod report;
mod serve;
mod sim;
mod trace;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: amo-benchmark --workload <name> --seed <u64> --seconds <secs> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// splitmix64: derives the workload inputs from the seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(result) = sim::run(&args).or_else(|| serve::run(&args)) else {
        eprintln!(
            "unknown workload {:?}: expected kk_batched, wa_recovery, kk_quorum or serve_claims",
            args.workload
        );
        std::process::exit(2);
    };
    match result {
        Ok(outcome) => report::print(&outcome, args.trace),
        Err(failure) => {
            eprintln!("{failure}");
            std::process::exit(1);
        }
    }
}
