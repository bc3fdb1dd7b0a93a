//! The repo benchmark: one process per workload.
//!
//! ```text
//! sisg-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, writes a full record (and,
//! traced, the spans) under `benchmark/out/`, and prints the result object
//! `{"correct", "attempted", "failed", "metrics"}` as the last line of
//! standard output. Exits 1 when an output check fails and 2 on a bad
//! command line. See `README.md` for the catalogue.

mod catalog;
mod hist;
mod host;
mod probes;
mod trace;
mod workloads;

use catalog::{END_TO_END, PER_LAYER, WINDOW_TIMINGS, WORKLOADS};
use host::HostInfo;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::serve::{ServeColdBrute, ServeColdQuant, ServeHot};
use workloads::stream_fresh::StreamFresh;
use workloads::train_dist::TrainDist;
use workloads::train_local::TrainLocal;
use workloads::{drive, RunConfig, RunResult, Window, Workload};

type Runner = fn(&RunConfig, Instant) -> RunResult;

/// Every workload with the function that runs it.
const RUNNERS: [(&str, Runner); 6] = [
    (TrainLocal::NAME, drive::<TrainLocal>),
    (TrainDist::NAME, drive::<TrainDist>),
    (ServeHot::NAME, drive::<ServeHot>),
    (ServeColdBrute::NAME, drive::<ServeColdBrute>),
    (ServeColdQuant::NAME, drive::<ServeColdQuant>),
    (StreamFresh::NAME, drive::<StreamFresh>),
];

const USAGE: &str =
    "usage: sisg-benchmark --workload <name> --seed <n> --seconds <1..=60> --trace <0|1>";

struct Args {
    workload: &'static str,
    run: Runner,
    config: RunConfig,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other} is neither 0 nor 1")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let (workload, run) = RUNNERS
        .into_iter()
        .find(|(name, _)| *name == workload)
        .ok_or_else(|| {
            format!(
                "unknown workload {workload}; one of {}",
                WORKLOADS.join(", ")
            )
        })?;
    Ok(Args {
        workload,
        run,
        config: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for the given metrics.
fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // A non-finite value would not be JSON; a metric that could not be
        // computed reads 0.
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    out.push('}');
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() -> ExitCode {
    let process_started = Instant::now();
    let ticks_started = host::cpu_ticks();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = args.config;
    let mut result = (args.run)(&cfg, process_started);
    let host = HostInfo::read();
    let steal_share = host::steal_share(ticks_started, host::cpu_ticks());
    result.layer.set("host.steal_share", steal_share);

    let window = &result.window;
    let end_to_end = [
        result.setup_s,
        result.verdict.quality_at_10,
        host::peak_rss_mb().unwrap_or(0.0),
    ];
    let e2e: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(end_to_end)
        .map(|((name, unit), value)| (*name, *unit, value))
        .collect();
    let layers: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, *unit, result.layer.get(name).unwrap_or(0.0)))
        .collect();
    let correct = result.verdict.failures.is_empty();

    println!(
        "workload {} seed {} seconds {} trace {} | commit {} nproc {} cpu {} | stolen {:.1} %",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        host.commit,
        host.nproc,
        host.cpu_model,
        steal_share * 100.0
    );
    // An untraced run shows the window's timings beside the end-to-end
    // metrics; it reports only the latter.
    let shown: Vec<_> = if cfg.trace {
        layers.clone()
    } else {
        let timings = layers.iter().filter(|(n, _, _)| WINDOW_TIMINGS.contains(n));
        e2e.iter().chain(timings).copied().collect()
    };
    for (name, unit, value) in shown {
        println!("{name:<34} {value:>18.6} {unit}");
    }
    for failure in &result.verdict.failures {
        println!("FAILED: {failure}");
    }

    let out_dir = host::out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": \"{}\", \
         \"nproc\": {}, \"cpu_model\": \"{}\", \"input_checksum\": \"{:016x}\", \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}, \"latency_samples\": {}, \"failures\": [{}], \
         \"end_to_end\": {}, \"per_layer\": {}, \"window\": {}, \"spans\": {}}}\n",
        args.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        escape(&host.commit),
        host.nproc,
        escape(&host.cpu_model),
        result.input_checksum,
        window.attempted,
        window.failed,
        window.latency_samples,
        result
            .verdict
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect::<Vec<_>>()
            .join(", "),
        metrics_json(&e2e),
        metrics_json(&layers),
        window_json(window),
        span_summary_json(&result),
    );
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), record))
        .and_then(|()| {
            if cfg.trace {
                result
                    .tracer
                    .write_jsonl(&out_dir.join(format!("{stem}.spans.jsonl")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        // The result line below is the contract; the record is a courtesy.
        eprintln!("could not write under {}: {e}", out_dir.display());
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        window.attempted,
        window.failed,
        metrics_json(if cfg.trace { &layers } else { &e2e })
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The last window's timings and every slice of it, so that another
/// estimator can be tried on a finished run.
fn window_json(window: &Window) -> String {
    let list = |values: &[f64]| {
        let items: Vec<String> = values.iter().map(f64::to_string).collect();
        format!("[{}]", items.join(", "))
    };
    format!(
        "{{\"ops_per_s\": {}, \"latency_p50_us\": {}, \"latency_p90_us\": {}, \
         \"slice_ops_per_s\": {}, \"slice_p50_us\": {}}}",
        window.ops_per_s,
        window.p50_us,
        window.p90_us,
        list(&window.slice_ops_per_s),
        list(&window.slice_p50_us),
    )
}

/// Per-name span totals: `{"name": {"count", "total_s", "self_s"}}`.
fn span_summary_json(result: &RunResult) -> String {
    let mut out = String::from("{");
    for (i, (name, s)) in trace::summarize(result.tracer.spans()).iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{name}\": {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
            s.count, s.total_s, s.self_s
        )
        .expect("write to String");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn runners_cover_the_catalogue_in_order() {
        let names: Vec<&str> = RUNNERS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn a_full_command_line_parses() {
        let a = args("--workload serve_hot --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, "serve_hot");
        assert_eq!(a.config.seed, 7);
        assert_eq!(a.config.seconds, 10.0);
        assert!(a.config.trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "",
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload serve_hot --seed -1 --seconds 10 --trace 0",
            "--workload serve_hot --seed 1 --seconds 0 --trace 0",
            "--workload serve_hot --seed 1 --seconds 61 --trace 0",
            "--workload serve_hot --seed 1 --seconds 10 --trace 2",
            "--workload serve_hot --seed 1 --seconds 10",
            "--workload serve_hot --seed 1 --seconds 10 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(args(line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn metrics_json_is_valid_and_keeps_every_digit() {
        let json = metrics_json(&[("a_s", "s", 0.1 + 0.2), ("b", "1/s", f64::NAN)]);
        assert_eq!(
            json,
            "{\"a_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \
             \"b\": {\"value\": 0, \"unit\": \"1/s\"}}"
        );
    }
}
