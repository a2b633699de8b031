//! `pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--jobs <n>]`
//!
//! Prints log lines to stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when
//! a cell fails, a check does not hold or the environment is refused,
//! and 2 on bad usage. The traced run also writes its spans as JSON lines to
//! `pipebench/out/` under the working directory.

use gmt_pipebench::{default_jobs, run, Options};
use std::process::exit;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: pipebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--jobs <n>]",
        gmt_pipebench::cells::WORKLOADS.join("|")
    );
    exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value `{value}` for {flag}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut jobs = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(parse::<u64>(flag, value)),
            "--seconds" => seconds = Some(parse::<f64>(flag, value)),
            "--trace" => trace = Some(parse::<u8>(flag, value)),
            "--jobs" => jobs = Some(parse::<usize>(flag, value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let opts = Options {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds
            .filter(|s| *s >= 0.0)
            .unwrap_or_else(|| usage("--seconds must be given and >= 0")),
        trace: match trace {
            Some(0) => false,
            Some(1) => true,
            _ => usage("--trace must be 0 or 1"),
        },
        jobs: match jobs {
            Some(0) => usage("--jobs must be positive"),
            Some(j) => j,
            None => default_jobs(),
        },
    };
    if !gmt_pipebench::cells::WORKLOADS.contains(&opts.workload.as_str()) {
        usage(&format!("unknown workload `{}`", opts.workload));
    }
    let report = run(&opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1);
    });
    for line in &report.log {
        eprintln!("{line}");
    }
    for m in &report.metrics {
        eprintln!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if opts.trace {
        let dir = std::path::Path::new("pipebench/out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &report.spans_jsonl))
        {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
        }
    }
    println!("{}", report.json());
    if !report.correct {
        exit(1);
    }
}
