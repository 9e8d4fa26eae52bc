//! `loadgen` — the bit-exact smoke client for `imc-serve` and `imc-fleet`.
//!
//! ```text
//! loadgen --addr HOST:PORT [--addr HOST:PORT ...] [--design curfe|chgfe]
//!         [--seed N] [--image PATH] [--stop-server]
//! ```
//!
//! Opens 4 connections, round-robin over the `--addr` targets, and sends
//! 100 traced `Infer` requests on each, one at a time. Every answer must
//! be the `Output` for its request's id, echo the request's `trace_id`,
//! and bit-match the oracle: the synthetic model rebuilt from
//! `(design, seed)`, or with `--image` the compiled chip image's
//! effective network. So any divergence — batching, scheduling, the
//! wire, a fleet's scatter/gather, or a server not serving the image —
//! fails the run. A connection error fails it too. A passing run prints
//! `smoke: OK (N responses, all bit-exact)`; any failure exits non-zero.
//! `--stop-server` then sends a `Shutdown` to every target.
//!
//! Throughput and latency are measured by `perfbench`, not here.

use std::process::ExitCode;

use imc_serve::model::{parse_design, ServeModel, DEFAULT_SEED};
use imc_serve::protocol::Response;
use imc_serve::{Client, ClientConfig};
use neural::imc_exec::ImcDesign;

/// Connections opened, round-robin over the targets.
const CONNS: usize = 4;
/// Requests sent on each connection, one at a time.
const REQUESTS_PER_CONN: u64 = 100;
/// Distinct inputs the requests cycle through.
const INPUT_POOL: usize = 64;

const USAGE: &str = "usage: loadgen --addr HOST:PORT [--addr HOST:PORT ...]\n\
                     \x20              [--design curfe|chgfe] [--seed N]\n\
                     \x20              [--image PATH] [--stop-server]";

struct Args {
    addrs: Vec<String>,
    design: Option<ImcDesign>,
    seed: Option<u64>,
    image: Option<String>,
    stop_server: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addrs: Vec::new(),
        design: None,
        seed: None,
        image: None,
        stop_server: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => args.addrs.push(value("--addr")?),
            "--design" => args.design = Some(parse_design(&value("--design")?)?),
            "--seed" => {
                let seed = value("--seed")?;
                args.seed = Some(seed.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--image" => args.image = Some(value("--image")?),
            "--stop-server" => args.stop_server = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if args.addrs.is_empty() {
        return Err(format!("--addr is required\n{USAGE}"));
    }
    if args.image.is_some() && (args.design.is_some() || args.seed.is_some()) {
        return Err("--image fixes the model; drop --design and --seed".to_owned());
    }
    Ok(args)
}

/// Deterministic input pool: `INPUT_POOL` flat vectors in [0, 1], varied
/// enough to touch different activation patterns.
fn build_inputs(features: usize) -> Vec<Vec<f32>> {
    (0..INPUT_POOL)
        .map(|k| {
            (0..features)
                .map(|i| {
                    let phase = (k * 31 + 7) as f32;
                    ((i as f32 * 0.37 + phase).sin() * 0.5 + 0.5).clamp(0.0, 1.0)
                })
                .collect()
        })
        .collect()
}

/// Checks that `resp` is the bit-exact answer to request `id` sent with
/// trace id `trace_id`.
fn verify(resp: &Response, id: u64, trace_id: u64, expect: &[f32]) -> Result<(), String> {
    let Response::Output(r) = resp else {
        return Err(format!("request {id}: expected Output, got {resp:?}"));
    };
    if r.id != id {
        return Err(format!("request {id}: answered as id {}", r.id));
    }
    if r.trace_id != trace_id {
        return Err(format!(
            "request {id}: trace id {:#x} echoed as {:#x}",
            trace_id, r.trace_id
        ));
    }
    let bit_exact = r.logits.len() == expect.len()
        && r.logits
            .iter()
            .zip(expect)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !bit_exact {
        return Err(format!(
            "request {id}: logits {:?} differ from the oracle's {expect:?}",
            r.logits
        ));
    }
    Ok(())
}

/// Connection `conn`'s run: its requests, one at a time, each checked
/// before the next is sent.
fn run_connection(
    addr: &str,
    conn: usize,
    inputs: &[Vec<f32>],
    expected: &[Vec<f32>],
) -> Result<(), String> {
    let mut client = Client::connect_with(addr, ClientConfig::default())
        .map_err(|e| format!("connect {addr}: {e}"))?;
    for k in 0..REQUESTS_PER_CONN {
        // Ids are unique across connections.
        let id = conn as u64 + k * CONNS as u64;
        let i = id as usize % INPUT_POOL;
        let ctx = imc_obs::TraceContext::new_root();
        let resp = client
            .infer_traced(id, inputs[i].clone(), Some(ctx))
            .map_err(|e| format!("{addr}: request {id}: {e}"))?;
        verify(&resp, id, ctx.trace_id, &expected[i]).map_err(|e| format!("{addr}: {e}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // The oracle: the exact model the targets serve (same design and
    // seed give identical weights and noise streams; with --image, the
    // same compiled effective network).
    let oracle = match &args.image {
        Some(path) => match ServeModel::from_image(path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("loadgen: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => ServeModel::synthetic(
            args.design.unwrap_or(ImcDesign::ChgFe),
            args.seed.unwrap_or(DEFAULT_SEED),
        ),
    };
    let inputs = build_inputs(oracle.input_features());
    let expected: Vec<Vec<f32>> = inputs.iter().map(|x| oracle.infer_one(x)).collect();

    let mut ok = true;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let addr = args.addrs[c % args.addrs.len()].as_str();
                let (inputs, expected) = (&inputs, &expected);
                s.spawn(move || run_connection(addr, c, inputs, expected))
            })
            .collect();
        for h in handles {
            if let Err(e) = h.join().expect("connection thread panicked") {
                eprintln!("loadgen: {e}");
                ok = false;
            }
        }
    });

    if args.stop_server {
        for a in &args.addrs {
            match Client::connect_with(a.as_str(), ClientConfig::default())
                .and_then(|mut c| c.shutdown())
            {
                Ok(()) => eprintln!("loadgen: {a} acknowledged shutdown"),
                Err(e) => {
                    eprintln!("loadgen: shutdown request to {a} failed: {e}");
                    ok = false;
                }
            }
        }
    }

    if ok {
        let answers = CONNS as u64 * REQUESTS_PER_CONN;
        println!("smoke: OK ({answers} responses, all bit-exact)");
        ExitCode::SUCCESS
    } else {
        eprintln!("smoke: FAILED");
        ExitCode::FAILURE
    }
}
