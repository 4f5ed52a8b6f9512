//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the metrics as a table with notes, then one JSON result line
//! last. Exits 0 when every answer checked out, 1 on a mismatch or a
//! failed op (after printing the result), 2 on a usage or set-up error.

use std::process::ExitCode;

use bmb_perfbench::report::{per_layer, END_TO_END};
use bmb_perfbench::{sys, workloads, Args};

fn main() -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = sys::pin_to_one_cpu();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match workloads::run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let layer = per_layer();
    let metrics: Vec<(&str, &str)> = if args.trace {
        layer.iter().map(|(n, u)| (n.as_str(), *u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let pinned = cpu.map_or("unpinned".to_string(), |c| format!("pinned to cpu {c}"));
    println!(
        "perfbench {} seed={} seconds={} trace={} cores={cores}, {pinned}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    print!("{}", report.table(&metrics));
    for note in &report.notes {
        println!("  note: {note}");
    }
    for mismatch in &report.mismatches {
        println!("  MISMATCH: {mismatch}");
    }
    println!("{}", report.json_line(&metrics));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
