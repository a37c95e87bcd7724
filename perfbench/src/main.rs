//! `perfbench`: the DStore benchmark. See `perfbench/README.md` and the
//! repository's `BENCHMARK.json`.
//!
//! ```text
//! perfbench --workload <ycsb_a|ycsb_b|server_mixed|meta_churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--rev <rev>] [--out <dir>]
//! ```
//!
//! With `--trace 0` a run sets the store up several times, runs the
//! timed phase with the shipped `DStoreConfig::bench()` settings, checks
//! every object, then runs crash/recovery cycles and checks every object
//! again, and prints the end-to-end metrics. With `--trace 1` it runs an
//! untraced and a densely traced half-length phase and prints the
//! per-layer metrics; the benchmark's own spans go to
//! `<out>/spans-<workload>-<seed>.csv`.

mod bench;
mod gen;
mod harness;
mod inproc;
mod layers;
mod model;
mod report;
mod server;
mod stats;

use inproc::Shape;
use layers::LAYER_METRICS;
use report::{json_str, Report};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A run that has not printed its result by then prints a failed one.
const DEADLINE: Duration = Duration::from_secs(160);

/// Set by whichever of the run and the deadline prints the result first.
static PRINTED: AtomicBool = AtomicBool::new(false);

/// Prints `text` unless a result was printed already, then exits 0
/// (abandoned, stalled client threads must not keep the process alive).
fn print_result_and_exit(text: &str) -> ! {
    if !PRINTED.swap(true, Ordering::SeqCst) {
        print!("{text}");
        let _ = std::io::stdout().flush();
        std::process::exit(0);
    }
    // The other side is printing and will exit.
    loop {
        std::thread::park();
    }
}

/// Every end-to-end metric, in print order, with its unit.
const E2E_METRICS: &[(&str, &str)] = &[
    ("ops_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("ok_frac", "frac"),
    ("setup_s", "s"),
    ("recovery_s", "s"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
];

const USAGE: &str =
    "usage: perfbench --workload <ycsb_a|ycsb_b|server_mixed|meta_churn> --seed <n> --seconds <s> --trace <0|1> [--rev <rev>] [--out <dir>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
    out: PathBuf,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut rev, mut out) = ("unknown".to_string(), PathBuf::from("."));
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {v}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(val),
                "--seed" => seed = Some(num(&val)?),
                "--seconds" => seconds = Some(num(&val)?),
                "--trace" => trace = Some(num(&val)? != 0),
                "--rev" => rev = val,
                "--out" => out = PathBuf::from(val),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(1..=600).contains(&seconds) {
            return Err("--seconds must be within 1..=600".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds as f64,
            trace: trace.ok_or("--trace is required")?,
            rev,
            out,
        })
    }
}

fn shape(workload: &str) -> Option<Shape> {
    let ycsb = |keys, read_percent, zipfian, ssd_pages| Shape {
        keys,
        value_len: 4096,
        read_percent,
        zipfian,
        churn: false,
        ssd_pages,
    };
    match workload {
        "ycsb_a" => Some(ycsb(20_000, 50, true, 0)),
        // 200 k objects of 4 KB need a larger device than the default.
        "ycsb_b" => Some(ycsb(200_000, 95, false, 216 * 1024)),
        "meta_churn" => Some(Shape {
            keys: 20_000,
            value_len: 256,
            read_percent: 0,
            zipfian: false,
            churn: true,
            ssd_pages: 0,
        }),
        _ => None,
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("DSTORE_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: it would change the program under test",
            overrides.join(", ")
        );
        std::process::exit(2);
    }
    if args.workload != "server_mixed" && shape(&args.workload).is_none() {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        std::process::exit(2);
    }
    let _ = harness::now_ns();
    start_deadline(args.trace);
    // Store panics are caught and counted; keep their messages short.
    std::panic::set_hook(Box::new(|info| {
        let at = info
            .location()
            .map(|l| format!(" at {}:{}", l.file(), l.line()))
            .unwrap_or_default();
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_default();
        eprintln!("perfbench: caught panic{at}: {msg}");
    }));

    let steal_before = cpu_ticks();
    let mut report = Report::default();
    let mut info = Vec::new();
    let spans = args
        .out
        .join(format!("spans-{}-{}.csv", args.workload, args.seed));
    let (r, i) = (&mut report, &mut info);
    let result = match (shape(&args.workload), args.trace) {
        (None, false) => bench::run_e2e(
            |t| server::Env::setup(args.seed, server::config(t)),
            args.seconds,
            r,
            i,
        ),
        (None, true) => bench::run_traced(
            |t| server::Env::setup(args.seed, server::config(t)),
            args.seconds,
            &spans,
            r,
            i,
        ),
        (Some(sh), trace) => {
            let setup = |t| inproc::Env::setup(sh, args.seed, inproc::config(&sh, t));
            if trace {
                bench::run_traced(setup, args.seconds, &spans, r, i)
            } else {
                bench::run_e2e(setup, args.seconds, r, i)
            }
        }
    };
    if let Err(e) = result {
        report.check_failures.push(e);
    }
    // Time the hypervisor ran other guests on this VM's CPUs: context
    // for comparing runs taken at different times.
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, cpu_ticks()) {
        let frac = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        info.push(("host_steal_frac".into(), format!("{frac:.4}")));
    }
    // Whatever the run could not measure still gets its line.
    let want: &[(&str, &str)] = if args.trace {
        LAYER_METRICS
    } else {
        E2E_METRICS
    };
    for (name, unit) in want {
        if !report.metrics.iter().any(|m| m.name == *name) {
            report.push(name, 0.0, unit, "NOT MEASURED");
            report
                .check_failures
                .push(format!("{name} was not measured"));
        }
    }
    report
        .metrics
        .sort_by_key(|m| want.iter().position(|w| w.0 == m.name));

    let mut out = format!(
        "# perfbench {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rev\": {}, \"nproc\": {}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&args.rev),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (k, v) in &info {
        out.push_str(&format!(", {}: {}", json_str(k), v));
    }
    out.push_str("}\n");
    out.push_str(&report.render());
    print_result_and_exit(&out);
}

/// (steal, total) CPU ticks of the host's `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Prints a failed result and exits if the run overruns [`DEADLINE`]
/// (a store call that never returns).
fn start_deadline(trace: bool) {
    std::thread::spawn(move || {
        std::thread::sleep(DEADLINE);
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.faults.add(gen::Fault::Panic);
        r.check_failures
            .push(format!("run did not finish within {DEADLINE:?}"));
        for (name, unit) in if trace { LAYER_METRICS } else { E2E_METRICS } {
            r.push(name, 0.0, unit, "NOT MEASURED");
        }
        print_result_and_exit(&r.render());
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry in the `section` list of
    /// `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list ends")];
        let field = |entry: &str, key: &str| {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("string ends")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let own = |m: &[(&str, &str)]| -> Vec<(String, String)> {
            m.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(E2E_METRICS));
        assert_eq!(listed("per_layer"), own(LAYER_METRICS));
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload ycsb_a --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("ycsb_a", 3, 10.0, true)
        );
        assert!(parse("--workload ycsb_a --seed 3 --seconds 10").is_err());
        assert!(parse("--workload ycsb_a --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload ycsb_a --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--bogus 1").is_err());
        assert!(shape("ycsb_a").is_some() && shape("ycsb_b").is_some() && shape("nope").is_none());
    }
}
