//! `perfbench --workload <saturate|trickle|sharded|compile> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a readable report, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics in an untraced run, the per-layer metrics in a traced one.
//! Exits 1 on any wrong answer and 2 on a usage or set-up error.
//!
//! `--setup-once 1` times a single set-up of the workload in this
//! process and prints only that; a run starts itself this way once per
//! timed set-up.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::layers::PER_LAYER;
use perfbench::run::{provenance, run, Args, Outcome, Workload};
use perfbench::setup::{report_line, setup_once, setup_s};

/// Parses the command line; the flag says whether to time one set-up
/// only.
fn parse_args() -> Result<(Args, bool), String> {
    let mut args = Args {
        workload: Workload::Saturate,
        seed: 1,
        window: Duration::from_secs(10),
        trace: false,
        exe: std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?,
    };
    let mut setup_only = false;
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.window = Duration::from_secs(value.parse().map_err(bad)?),
            "--trace" | "--setup-once" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag} takes 0 or 1, not {value}")),
                };
                if flag == "--trace" {
                    args.trace = on;
                } else {
                    setup_only = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.window.is_zero() {
        return Err("--seconds must be at least 1".into());
    }
    Ok((args, setup_only))
}

fn json_number(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn json_line(out: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.ops.max(1),
        out.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    s.push_str("}}");
    s
}

fn report(args: &Args, out: &Outcome) -> String {
    let mut r = String::new();
    let mode = if args.trace { "traced" } else { "untraced" };
    let _ = writeln!(r, "== perfbench {} ({mode})", args.workload.name());
    let prov: Vec<String> = provenance(args)
        .into_iter()
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect();
    let _ = writeln!(r, "provenance {}", prov.join(" "));
    let lat = &out.latency;
    let unit = if args.workload == Workload::Compile {
        "compiles"
    } else {
        "requests"
    };
    let _ = writeln!(r, "throughput_per_s        {:.1} 1/s", out.throughput_per_s);
    let _ = writeln!(
        r,
        "latency_p50_us          {:.1} us  (quiet part; {} {unit} in the window)",
        out.latency_p50_us,
        lat.count()
    );
    for (name, q) in [("latency_p90_us", 0.90), ("latency_p99_us", 0.99)] {
        let v = lat.quantile(q);
        let _ = writeln!(
            r,
            "{name:<24}{:.1} us  ({} samples above; printed, not gated)",
            v / 1e3,
            lat.count_above(v)
        );
    }
    let setups: Vec<String> = out
        .setups
        .iter()
        .map(|s| format!("{:.4}@{:.2}", s.seconds, s.steal))
        .collect();
    let _ = writeln!(
        r,
        "setup_s                 {:.5} s  (median of the quiet set-ups, each in a fresh process; seconds@steal: {})",
        setup_s(&out.setups),
        setups.join(" ")
    );
    let _ = writeln!(
        r,
        "peak_rss_mb             {:.1} MB",
        perfbench::host::peak_rss_mb().unwrap_or(0.0)
    );
    let _ = writeln!(
        r,
        "ops {}  failed {}  wrong {}",
        out.ops, out.failed, out.wrong
    );
    let _ = writeln!(
        r,
        "host.steal_frac {:.4}  process.cpu_us_per_op {:.1}",
        out.noise.steal_frac, out.noise.cpu_us_per_op
    );
    let _ = writeln!(r, "simulated statistics (deterministic; not host time):");
    for (name, v, src) in &out.sim {
        let _ = writeln!(r, "  {name:<40}{v}  [{src}]");
    }
    if let Some(layers) = &out.layers {
        let _ = writeln!(r, "per-layer metrics:");
        for (name, unit) in PER_LAYER {
            let (v, src) = layers
                .get(name)
                .map_or((f64::NAN, "NOT MEASURED"), |(v, s)| (*v, s.as_str()));
            let _ = writeln!(r, "  {name:<32}{v:>14.3} {unit:<7}[{src}]");
        }
    }
    if let Some(b) = &out.budget {
        let total = b.latency_us();
        let _ = writeln!(
            r,
            "budget of the median request (mean of the middle tenth by latency, {} requests):",
            b.requests
        );
        for (stage, us) in b.stages_us() {
            let _ = writeln!(
                r,
                "  {stage:<10}{us:>10.1} us  {:>5.1}%",
                100.0 * us / total
            );
        }
        let _ = writeln!(
            r,
            "  = latency {total:.1} us; the residual is {:.1}% of it",
            100.0 * b.stages_us()[1].1 / total
        );
    }
    for n in &out.notes {
        let _ = writeln!(r, "{n}");
    }
    r
}

fn main() -> ExitCode {
    let (args, setup_only) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if setup_only {
        return match setup_once(args.workload, args.seed) {
            Ok((s, verified)) => {
                println!("{}", report_line(&s));
                if verified {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("perfbench: the set-up's compiled image failed verification");
                    ExitCode::from(1)
                }
            }
            Err(e) => {
                eprintln!("perfbench: {} set-up failed: {e}", args.workload.name());
                ExitCode::from(2)
            }
        };
    }
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    print!("{}", report(&args, &out));
    let metrics: Vec<(&str, f64, &str)> = match &out.layers {
        Some(layers) => PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, layers.get(name).map_or(f64::NAN, |(v, _)| *v), *unit))
            .collect(),
        None => vec![
            ("throughput_per_s", out.throughput_per_s, "1/s"),
            ("latency_p50_us", out.latency_p50_us, "us"),
            ("setup_s", setup_s(&out.setups), "s"),
            (
                "peak_rss_mb",
                perfbench::host::peak_rss_mb().unwrap_or(0.0),
                "MB",
            ),
        ],
    };
    println!("{}", json_line(&out, &metrics));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: wrong answers or failed cross-checks; see the notes above");
        ExitCode::from(1)
    }
}
