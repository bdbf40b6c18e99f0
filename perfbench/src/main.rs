//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.

use perfbench::{measure, report, result_json, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <polybench-medium|chain-serve> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2)
}

fn invalid<T>(flag: &str, value: &str) -> T {
    die(&format!("invalid {flag} '{value}'"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).unwrap_or_else(|| invalid(flag, value)))
            }
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| invalid(flag, value))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| invalid(flag, value)),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => invalid(flag, value),
                })
            }
            _ => die(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| die("--workload is required"));
    let seed = seed.unwrap_or_else(|| die("--seed is required"));
    let seconds = seconds.unwrap_or_else(|| die("--seconds is required"));
    let trace = trace.unwrap_or_else(|| die("--trace is required"));

    let m = measure(workload, Scale::Full, seed, seconds, trace);
    for line in report(workload, seed, &m) {
        println!("{line}");
    }
    println!("{}", result_json(&m, trace));
}
