//! `perfbench`: the xmlest end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <serve|ingest|mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints progress and diagnostics on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). Exits 1 when a correctness check fails and 2 on bad usage.
//! See `README.md` next to this crate for the workloads and metrics.

mod alloc;
mod common;
mod inputs;
mod stats;
mod trace;
mod workloads;

use common::{Env, Outcome};
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Serve,
    Ingest,
    Mixed,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "serve" => Workload::Serve,
                    "ingest" => Workload::Ingest,
                    "mixed" => Workload::Mixed,
                    _ => return Err(format!("unknown workload {value:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The result line: JSON by hand (the values are plain numbers and
/// fixed ASCII names, so no escaping is needed).
fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <serve|ingest|mixed> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let t = Instant::now();
    let env = Env::new(args.seed);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: {cores} cores; {} input bytes, {} twigs, {} strings, inputs in {:.2}s",
        env.input_bytes,
        env.pool.twigs.len(),
        env.pool.strings.len(),
        t.elapsed().as_secs_f64()
    );
    let mut out = Outcome::default();
    match (args.trace, args.workload) {
        (true, w) => trace::run(&env, w, args.seconds, args.seed, &mut out),
        (false, Workload::Serve) => workloads::serve(&env, args.seconds, &mut out),
        (false, Workload::Ingest) => workloads::ingest(&env, args.seconds, &mut out),
        (false, Workload::Mixed) => workloads::mixed(&env, args.seconds, &mut out),
    }
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.failures
                .push(format!("metric {} is not finite", m.name));
        }
    }
    eprintln!("perfbench: done in {:.2}s", t.elapsed().as_secs_f64());
    println!("{}", result_line(&out));
    std::process::exit(if out.correct() { 0 } else { 1 });
}
