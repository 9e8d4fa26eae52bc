//! `imc-fleet` — front-door router for a fleet of `imc-serve` chip
//! replicas.
//!
//! ```text
//! imc-fleet --listen 127.0.0.1:7500 \
//!           --replica 127.0.0.1:7501 --replica 127.0.0.1:7502 \
//!           [--manifest fleet.json | --design chgfe --shards 2] \
//!           [--obs-addr 127.0.0.1:9901]
//! ```
//!
//! The plan comes either from a `fleet.json` written by `imc-compile
//! fleet` (image-backed replicas) or from `--design/--seed/--shards`
//! (synthetic replicas started with `imc-serve --shard-index I
//! --shard-count N`). Replicas are admitted once, at start, by
//! `Describe` digest check; stale image versions are quarantined with a
//! typed error.

use std::process::ExitCode;

use imc_fleet::{serve_fleet, FleetPlan, RouterConfig};
use imc_serve::{install_signal_handlers, parse_design};

fn usage() -> &'static str {
    "imc-fleet: fleet router over imc-serve replicas\n\
     \n\
     USAGE:\n\
       imc-fleet [--listen ADDR] --replica ADDR [--replica ADDR ...]\n\
                 (--manifest FLEET.json | [--design NAME] [--seed N] [--shards N])\n\
                 [--obs-addr ADDR]\n\
     \n\
     OPTIONS:\n\
       --listen ADDR          front-door bind address (default 127.0.0.1:7500)\n\
       --replica ADDR         one imc-serve replica; repeat per replica\n\
       --manifest PATH        fleet.json from `imc-compile fleet`\n\
       --design NAME          curfe|chgfe for a synthetic fleet (default chgfe)\n\
       --seed N               synthetic weight seed (default: imc-serve's)\n\
       --shards N             synthetic shard count (default 1 = replicated)\n\
       --obs-addr ADDR        serve GET /metrics for the router process\n"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen = "127.0.0.1:7500".to_owned();
    let mut replicas: Vec<String> = Vec::new();
    let mut manifest: Option<String> = None;
    let mut design = "chgfe".to_owned();
    // Must match `imc-serve`'s synthetic default, or a plain
    // `imc-serve` + `imc-fleet` pair quarantines every replica on
    // digest mismatch at admission.
    let mut seed = imc_serve::model::DEFAULT_SEED;
    let mut shards = 1usize;
    let mut obs_addr: Option<String> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let res: Result<(), String> = match flag.as_str() {
            "--listen" => val("--listen").map(|v| listen = v),
            "--replica" => val("--replica").map(|v| replicas.push(v)),
            "--manifest" => val("--manifest").map(|v| manifest = Some(v)),
            "--design" => val("--design").map(|v| design = v),
            "--seed" => val("--seed").and_then(|v| {
                v.parse()
                    .map(|p| seed = p)
                    .map_err(|e| format!("--seed: {e}"))
            }),
            "--shards" => val("--shards").and_then(|v| {
                v.parse()
                    .map(|p| shards = p)
                    .map_err(|e| format!("--shards: {e}"))
            }),
            "--obs-addr" => val("--obs-addr").map(|v| obs_addr = Some(v)),
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(e) = res {
            eprintln!("imc-fleet: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    }

    if replicas.is_empty() {
        eprintln!(
            "imc-fleet: at least one --replica is required\n\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    }

    let plan = match &manifest {
        Some(path) => imc_compile::fleet::FleetManifest::load(path)
            .map_err(|e| e.to_string())
            .and_then(|m| FleetPlan::from_manifest(&m)),
        None => parse_design(&design).and_then(|d| FleetPlan::synthetic(d, seed, shards)),
    };
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            eprintln!("imc-fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "imc-fleet: plan: {} shard(s), {} replica(s), model {}→{}, base digest {:#x}",
        plan.shard_count(),
        replicas.len(),
        plan.features,
        plan.classes,
        plan.base_digest
    );

    imc_obs::set_service_name("fleet");
    let _obs = match &obs_addr {
        Some(addr) => match imc_obs::serve_http(addr) {
            Ok(h) => {
                eprintln!("imc-fleet: obs on http://{}/metrics", h.addr());
                Some(h)
            }
            Err(e) => {
                eprintln!("imc-fleet: cannot bind obs endpoint {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    install_signal_handlers();
    let (handle, admission) =
        match serve_fleet(listen.as_str(), plan, &replicas, RouterConfig::default()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("imc-fleet: bind {listen}: {e}");
                return ExitCode::FAILURE;
            }
        };
    for e in &admission {
        eprintln!("imc-fleet: admission: {e}");
    }
    eprintln!("imc-fleet: listening on {}", handle.addr());

    // Parks until a Shutdown request or SIGINT/SIGTERM trips the flag,
    // then wakes the blocked accept and joins it.
    handle.wait();
    imc_obs::print_summary_if_env();
    eprintln!("imc-fleet: bye");
    ExitCode::SUCCESS
}
