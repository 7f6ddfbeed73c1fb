//! `svcbench --workload <lookup|scan|ingest> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report line and, as the last line, the result object. Exits
//! non-zero without a result when the run cannot be made.

use rx_svcbench::bench::{self, Settings};
use rx_svcbench::workload::{Scale, Workload};

fn usage() -> String {
    "usage: svcbench --workload <lookup|scan|ingest> --seed <n> --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(usage)?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(usage()),
        }
    }
    Ok(Settings {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match bench::run(&settings, &Scale::full(settings.workload)) {
        Ok(outcome) => bench::print(&outcome),
        Err(e) => {
            eprintln!("svcbench: {e}");
            std::process::exit(1);
        }
    }
}
