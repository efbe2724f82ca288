//! Benchmark of record for vcsql.
//!
//! ```text
//! vcsql-perfbench --workload tpch|tpcds|serve --seed N --seconds S --trace 0|1
//!                 [--sf F]
//! ```
//!
//! One process runs one workload. With `--trace 0` it prints every
//! end-to-end metric; with `--trace 1` it prints the per-layer metrics from
//! spans timed around calls into each layer, plus the tracing overhead.
//! Every result is checked against the row-hash baseline; the last line of
//! standard output is one JSON object. See `README.md` beside this crate.

mod common;
mod report;
mod serve;
mod stats;
mod suite;
mod trace;

use report::Report;
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Least time the measured phase runs; it runs on until every reported
    /// percentile has enough samples.
    pub seconds: f64,
    pub trace: bool,
    /// Scale-factor override (the self-tests run tiny instances).
    pub sf: Option<f64>,
}

const USAGE: &str = "usage: vcsql-perfbench --workload tpch|tpcds|serve --seed N \
                     --seconds S --trace 0|1 [--sf F]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options { workload: String::new(), seed: 0, seconds: 10.0, trace: false, sf: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => o.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err(bad("non-negative seconds"));
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--sf" => {
                let sf: f64 = value.parse().map_err(|_| bad("a scale factor"))?;
                if !(sf.is_finite() && sf > 0.0) {
                    return Err(bad("a positive scale factor"));
                }
                o.sf = Some(sf);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !matches!(o.workload.as_str(), "tpch" | "tpcds" | "serve") {
        return Err(format!("unknown workload {:?}", o.workload));
    }
    Ok(o)
}

/// The server layer on a workload that runs no server: nothing admitted,
/// nothing timed.
pub fn add_absent_server_layer(rep: &mut Report) {
    for (name, unit) in [
        ("server.start_ms", "ms"),
        ("server.prepare_ms", "ms"),
        ("server.plan_cache_hit_rate", "share"),
        ("server.run_sql_ms", "ms"),
        ("server.migrating_query_ms_p50", "ms"),
        ("server.plain_query_ms_p50", "ms"),
        ("server.adaptations", "count"),
        ("server.migration_steps", "count"),
        ("server.migrated_vertices", "count"),
        ("server.migration_mb", "MB"),
        ("server.admitted", "count"),
        ("server.peak_in_flight", "count"),
        ("server.panics", "count"),
        ("server.timeouts", "count"),
        ("server.retries", "count"),
    ] {
        rep.add_noted(name, 0.0, unit, "no server on this workload".into());
    }
}

/// The session and direct-executor probes on a workload that serves
/// through the server instead.
pub fn add_absent_session_layer(rep: &mut Report) {
    let mut names: Vec<String> =
        ["session.prepare_ms", "session.execute_ms", "session.self_ms", "core.execute_ms"]
            .map(String::from)
            .to_vec();
    names.extend(common::GROUPS.map(|g| format!("core.execute_ms.{g}")));
    for name in names {
        rep.add_noted(name, 0.0, "ms", "not called on this workload".into());
    }
}

/// Tracing overhead: the median per-unit time of the same work with
/// tracing on against tracing off, interleaved within the traced run.
pub fn add_trace_overhead(rep: &mut Report, segments: &[Vec<f64>; 2], spans: usize) {
    let (off, on) = (stats::median(&segments[0]), stats::median(&segments[1]));
    let pct = if off > 0.0 { (on - off) / off * 100.0 } else { 0.0 };
    let note = format!("median {on:.3} ms traced vs {off:.3} ms untraced");
    rep.add_noted("trace.overhead_pct", pct, "%", note);
    rep.add("trace.spans", spans as f64, "count");
}

/// Write the run's spans beside the crate, under `traces/`.
pub fn write_trace(tr: &Tracer, opts: &Options) {
    if !opts.trace {
        return;
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", opts.workload, opts.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} (engine threads {}, host parallelism {})",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        common::THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut rep = match opts.workload.as_str() {
        "tpch" => suite::run(&suite::TPCH, &opts),
        "tpcds" => suite::run(&suite::TPCDS, &opts),
        _ => serve::run(&opts),
    };
    let json = rep.json();
    print!("{}", rep.human());
    println!("{json}");
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_full_command_line() {
        let o = parse(&args("--workload tpcds --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!((o.workload.as_str(), o.seed, o.seconds, o.trace), ("tpcds", 7, 12.0, true));
        assert_eq!(o.sf, None);
        let o = parse(&args("--workload serve --sf 0.01")).unwrap();
        assert_eq!(o.sf, Some(0.01));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload tpch --trace 2",
            "--workload tpch --seed -1",
            "--workload tpch --seconds",
            "--workload tpch --sf 0",
            "--workload tpch --bogus 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} should be refused");
        }
    }
}
