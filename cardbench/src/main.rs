//! `cardbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--nodes <N>]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Untraced
//! runs (`--trace 0`) print the end-to-end metrics, traced runs
//! (`--trace 1`) the per-layer ones and write their spans to
//! `.cardbench/trace-<workload>-seed<n>.jsonl`. Exits 1 when a check
//! failed and 2 on bad arguments.

use cardbench::workloads::Workload;
use cardbench::{commit_id, run, Options};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: cardbench --workload <paper-sweep|mobile-churn|hostile-query> \
                     --seed <n> --seconds <s> --trace <0|1> [--nodes <N>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut nodes = 10_000usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--nodes" => nodes = value.parse::<usize>().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if nodes < 2 {
        return Err("--nodes must be at least 2".to_string());
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {seconds}"
        ));
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        nodes,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cardbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&opts);
    let name = opts.workload.name();
    let mut trace_file = String::new();
    if opts.trace {
        let path = format!(".cardbench/trace-{name}-seed{}.jsonl", opts.seed);
        if let Err(e) = out.recorder.write_spans(Path::new(&path)) {
            eprintln!("cardbench: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        trace_file = path;
    }
    println!(
        "{{\"run\":{{\"workload\":\"{name}\",\"seed\":{},\"nodes\":{},\"pool_size\":{},\
         \"max_workers\":{},\"commit\":\"{}\",\"passes\":{},\"trace\":{},\"spans\":{},\
         \"trace_file\":\"{trace_file}\"}}}}",
        opts.seed,
        opts.nodes,
        sim_core::par::pool_size(),
        sim_core::par::max_workers(),
        commit_id(Path::new(".")),
        out.passes,
        opts.trace,
        out.recorder.span_count(),
    );
    for (m, v) in &out.metrics {
        println!("# {:<36} {:>16.6} {}", m.name, v, m.unit);
    }
    for msg in &out.messages {
        eprintln!("cardbench: check failed: {msg}");
    }
    let body: Vec<String> = out
        .metrics
        .iter()
        .map(|(m, v)| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, v, m.unit))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(",")
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
