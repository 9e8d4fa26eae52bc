//! `imc-trace` — pretty-printer for distributed traces scraped from
//! the `imc-obs` flight recorder.
//!
//! ```text
//! imc-trace [--slowest N] [--failed] [--energy-over PJ] SOURCE [SOURCE ...]
//! ```
//!
//! Each `SOURCE` is either an obs HTTP endpoint (`HOST:PORT` or
//! `http://HOST:PORT`, scraped at `GET /traces`) or a file holding a
//! previously saved `/traces` document. Records from every source are
//! stitched by `trace_id` — scrape the router *and* every replica and
//! one request's hops line up into a single per-hop waterfall, router
//! span over shard spans, with the analytical energy stamp (`imc-cost`
//! closed forms) each trace carries.
//!
//! Filters compose: `--failed` keeps traces with a non-`ok` hop,
//! `--energy-over PJ` keeps energy outliers, `--cross-service` keeps
//! only traces stitched from more than one service (drops traces whose
//! far-side records were already evicted from another process's ring),
//! and `--slowest N` then prints only the N widest of what survived
//! (default: everything, slowest first).

use std::process::ExitCode;

use imc_bench::trace_view::{self, Trace};

struct Args {
    slowest: Option<usize>,
    failed_only: bool,
    cross_service_only: bool,
    energy_over_pj: Option<u64>,
    sources: Vec<String>,
}

fn usage() -> &'static str {
    "usage: imc-trace [--slowest N] [--failed] [--cross-service] [--energy-over PJ] SOURCE [SOURCE ...]\n\
     \n\
     SOURCE            obs endpoint (HOST:PORT, scraped at /traces) or a saved\n\
     \x20                /traces JSON file\n\
     --slowest N       print only the N longest traces (after filters)\n\
     --failed          keep only traces with a failed or shed hop\n\
     --cross-service   keep only traces stitched from more than one service\n\
     --energy-over PJ  keep only traces stamped with more than PJ picojoules"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        slowest: None,
        failed_only: false,
        cross_service_only: false,
        energy_over_pj: None,
        sources: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--slowest" => {
                let v = it.next().ok_or("--slowest needs a value")?;
                args.slowest = Some(v.parse().map_err(|e| format!("--slowest: {e}"))?);
            }
            "--failed" => args.failed_only = true,
            "--cross-service" => args.cross_service_only = true,
            "--energy-over" => {
                let v = it.next().ok_or("--energy-over needs a value")?;
                args.energy_over_pj = Some(v.parse().map_err(|e| format!("--energy-over: {e}"))?);
            }
            "--help" | "-h" => return Err(usage().to_owned()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`\n{}", usage()));
            }
            source => args.sources.push(source.to_owned()),
        }
    }
    if args.sources.is_empty() {
        return Err(format!("at least one SOURCE is required\n{}", usage()));
    }
    Ok(args)
}

/// Loads one source: a readable file wins, otherwise it is treated as
/// an obs endpoint to scrape.
fn load_source(source: &str) -> Result<Vec<Trace>, String> {
    let doc = if std::path::Path::new(source).is_file() {
        std::fs::read_to_string(source).map_err(|e| format!("{source}: {e}"))?
    } else {
        trace_view::fetch_traces(source).map_err(|e| format!("{source}: {e}"))?
    };
    trace_view::parse_doc(&doc).map_err(|e| format!("{source}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut docs = Vec::new();
    for source in &args.sources {
        match load_source(source) {
            Ok(traces) => {
                eprintln!("imc-trace: {source}: {} trace record(s)", traces.len());
                docs.push(traces);
            }
            Err(e) => {
                eprintln!("imc-trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut traces = trace_view::stitch(docs);
    let scraped = traces.len();
    if args.failed_only {
        traces.retain(Trace::has_trouble);
    }
    if args.cross_service_only {
        traces.retain(Trace::is_cross_service);
    }
    if let Some(pj) = args.energy_over_pj {
        traces.retain(|t| t.energy_pj() > pj);
    }
    // Slowest first; --slowest N keeps the head.
    traces.sort_by_key(|t| std::cmp::Reverse(t.dur_us()));
    if let Some(n) = args.slowest {
        traces.truncate(n);
    }

    if traces.is_empty() {
        println!("imc-trace: no traces matched ({scraped} stitched before filters)");
        return ExitCode::SUCCESS;
    }
    println!(
        "imc-trace: {} of {} stitched trace(s):\n",
        traces.len(),
        scraped
    );
    for t in &traces {
        print!("{}", trace_view::render_waterfall(t));
        println!();
    }
    ExitCode::SUCCESS
}
