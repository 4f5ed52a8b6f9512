//! A seeded benchmark for the correlation miner, the durable
//! single-node server and the scatter-gather coordinator.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds its inputs from the seed, runs one workload, checks every
//! answer, and prints one JSON result line last. `--trace 0` reports
//! the end-to-end metrics of an untraced run; `--trace 1` reports the
//! per-layer metrics of a traced run. See `README.md` beside this crate
//! for the workloads, the metrics and the noise rationale.

pub mod check;
pub mod replay;
pub mod report;
pub mod seq;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

/// Command-line arguments of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Nominal measured seconds; sets the run's fixed op count.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Describes a missing, unknown or malformed flag.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}
