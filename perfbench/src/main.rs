//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <warm_replay|adhoc_plan|served_churn> --seed N --seconds S --trace 0|1
//! perfbench spread --workload W --seeds A..B --seconds S [--trace 0|1]
//! ```
//!
//! Builds the Table 1 database at scale 1/10, runs one closed-loop
//! workload for `--seconds`, checks every answer against the greedy
//! plan and prints one JSON result as its last line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the same workload
//! with spans around the public calls of each crate and reports the
//! per-layer metrics. `spread` runs the benchmark once per seed and
//! prints each metric's median and interquartile spread.

mod calib;
mod check;
mod run;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One in-process caller replaying the Zipf pool against a primed
    /// plan cache.
    WarmReplay,
    /// One in-process caller whose every query misses the plan cache.
    AdhocPlan,
    /// Two loopback HTTP connections replaying the pool, one of them
    /// refreshing statistics every 25th operation, durability on.
    ServedChurn,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "warm_replay" => Ok(Workload::WarmReplay),
            "adhoc_plan" => Ok(Workload::AdhocPlan),
            "served_churn" => Ok(Workload::ServedChurn),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmReplay => "warm_replay",
            Workload::AdhocPlan => "adhoc_plan",
            Workload::ServedChurn => "served_churn",
        }
    }
}

/// Parsed command line of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
}

fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    if !args.len().is_multiple_of(2) {
        return Err("expected --flag value pairs".into());
    }
    args.chunks(2)
        .map(|p| match p[0].strip_prefix("--") {
            Some(k) => Ok((k, p[1].as_str())),
            None => Err(format!("unexpected argument {:?}", p[0])),
        })
        .collect()
}

fn number(k: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("--{k} needs a whole number, got {v:?}"))
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
        for (k, v) in flags(args)? {
            match k {
                "workload" => workload = Some(Workload::parse(v)?),
                "seed" => seed = Some(number(k, v)?),
                "seconds" => seconds = Some(number(k, v)?.max(1)),
                "trace" => trace = number(k, v)? != 0,
                other => return Err(format!("unknown flag --{other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// One reported metric.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
pub struct Report {
    /// Every answer, the WAL recovery and the span coverage checked out.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Host and run facts printed beside the result.
    pub manifest: Vec<(&'static str, String)>,
}

/// A JSON number: finite values with every digit Rust prints, anything
/// else as 0 (the run has already failed if that happens).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::new();
    oodb_server::json::push_escaped(&mut out, s);
    out
}

fn print_report(r: &Report) {
    let mut manifest = String::from("{\"manifest\": {");
    for (i, (k, v)) in r.manifest.iter().enumerate() {
        let _ = write!(manifest, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
    }
    manifest.push_str("}}");
    println!("{manifest}");
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        eprintln!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        let _ = write!(
            line,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            quote(&m.name),
            num(m.value),
            quote(m.unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
}

/// `spread`: runs this binary once per seed and prints, per metric, the
/// median and the interquartile range as a share of it.
fn spread(args: &[String]) -> Result<(), String> {
    let (mut workload, mut seeds, mut seconds, mut trace) = (None, (1, 10), "10", "0");
    for (k, v) in flags(args)? {
        match k {
            "workload" => workload = Some(v),
            "seconds" => seconds = v,
            "trace" => trace = v,
            "seeds" => {
                let (a, b) = v.split_once("..").ok_or("--seeds wants A..B")?;
                seeds = (number(k, a)?, number(k, b)?);
            }
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for seed in seeds.0..=seeds.1 {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", seconds, "--trace", trace])
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let v = oodb_server::json::parse(last).map_err(|e| format!("seed {seed}: {e}"))?;
        let Some(oodb_server::json::Json::Obj(metrics)) = v.get("metrics") else {
            return Err(format!("seed {seed}: no metrics in {last:?}"));
        };
        eprintln!(
            "seed {seed}: correct {:?}, status {}",
            v.get("correct").and_then(oodb_server::json::Json::as_bool),
            out.status
        );
        for (name, m) in metrics {
            let value = m.get("value").and_then(oodb_server::json::Json::as_f64);
            let slot = match series.iter().position(|(n, _)| n == name) {
                Some(i) => i,
                None => {
                    series.push((name.clone(), Vec::new()));
                    series.len() - 1
                }
            };
            series[slot].1.extend(value);
        }
    }
    for (name, values) in &series {
        let med = stats::median(values);
        let spread = if values.len() >= 2 && med != 0.0 {
            stats::relative_spread(values)
        } else {
            0.0
        };
        let each: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "{name:<40} median {med:>14.6}  spread {spread:>7.4}  n {}  [{}]",
            values.len(),
            each.join(" ")
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("spread") {
        return match spread(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench spread: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match Args::parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run::run(&args) {
        Ok(report) => {
            print_report(&report);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
