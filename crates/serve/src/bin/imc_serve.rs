//! `imc-serve` — the batched FeFET-IMC inference server.
//!
//! ```text
//! imc-serve [--addr HOST:PORT] [--design curfe|chgfe] [--seed N]
//!           [--image PATH] [--max-batch N] [--max-wait-us N]
//!           [--queue-depth N] [--obs-addr HOST:PORT]
//!           [--max-conns N] [--frame-deadline-ms N] [--write-timeout-ms N]
//!           [--shard-index I --shard-count N]
//! ```
//!
//! Serves the MNIST-shaped MLP (784 → 64 → 10) on the chosen analog
//! macro design, with the deterministic synthetic weights derived from
//! `--seed`, which lets `loadgen` rebuild the identical model locally
//! and verify every response bit-for-bit. With `--image` the model
//! comes from a compiled `imc-compile` chip image instead (effective
//! post-fault weights; the image fixes the architecture and design, so
//! `--design` and `--seed` do not go with it). Trained weights are
//! served by compiling their checkpoint into an image first. Stop with
//! ctrl-c / SIGTERM or a `Shutdown` control request; either way the
//! server drains all admitted work before exiting and prints a final
//! metrics summary.
//!
//! One executor thread runs the batches, each fanned out over the
//! `par-exec` pool (`FEFET_IMC_THREADS` wide).
//!
//! `--obs-addr` additionally serves the process-wide `imc-obs` registry
//! over HTTP (`GET /metrics` Prometheus text, `GET /metrics.json`) for
//! scrapers — read-only and independent of the inference protocol.
//!
//! Resilience knobs (DESIGN.md §12): `--max-conns` caps concurrent
//! connections (excess get a typed `Busy` reply), `--frame-deadline-ms`
//! bounds how long a started request frame may stay incomplete before
//! the connection is dropped, and `--write-timeout-ms` bounds each
//! response write (0 disables either timeout; with no write timeout,
//! one client that stops reading halts every batch and shutdown).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use imc_serve::model::{parse_design, ServeModel, DEFAULT_SEED};
use imc_serve::{install_signal_handlers, serve, ServeConfig};
use neural::imc_exec::ImcDesign;

struct Args {
    addr: String,
    obs_addr: Option<String>,
    design: Option<ImcDesign>,
    image: Option<String>,
    seed: Option<u64>,
    shard_index: Option<usize>,
    shard_count: Option<usize>,
    cfg: ServeConfig,
}

fn usage() -> String {
    "usage: imc-serve [--addr HOST:PORT] [--design curfe|chgfe] [--seed N]\n\
     \x20                [--image PATH] [--max-batch N] [--max-wait-us N]\n\
     \x20                [--queue-depth N] [--obs-addr HOST:PORT]\n\
     \x20                [--max-conns N] [--frame-deadline-ms N] [--write-timeout-ms N]\n\
     \x20                [--shard-index I --shard-count N]"
        .to_owned()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7411".to_owned(),
        obs_addr: None,
        design: None,
        image: None,
        seed: None,
        shard_index: None,
        shard_count: None,
        cfg: ServeConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--obs-addr" => args.obs_addr = Some(value("--obs-addr")?),
            "--design" => args.design = Some(parse_design(&value("--design")?)?),
            "--image" => args.image = Some(value("--image")?),
            "--seed" => {
                let seed = value("--seed")?;
                args.seed = Some(seed.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--shard-index" => {
                args.shard_index = Some(
                    value("--shard-index")?
                        .parse()
                        .map_err(|e| format!("--shard-index: {e}"))?,
                );
            }
            "--shard-count" => {
                args.shard_count = Some(
                    value("--shard-count")?
                        .parse()
                        .map_err(|e| format!("--shard-count: {e}"))?,
                );
            }
            "--max-batch" => {
                args.cfg.max_batch = value("--max-batch")?
                    .parse()
                    .map_err(|e| format!("--max-batch: {e}"))?;
            }
            "--max-wait-us" => {
                let us: u64 = value("--max-wait-us")?
                    .parse()
                    .map_err(|e| format!("--max-wait-us: {e}"))?;
                args.cfg.max_wait = Duration::from_micros(us);
            }
            "--queue-depth" => {
                args.cfg.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--max-conns" => {
                args.cfg.limits.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--frame-deadline-ms" => {
                let ms: u64 = value("--frame-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--frame-deadline-ms: {e}"))?;
                args.cfg.limits.frame_deadline = Duration::from_millis(ms);
            }
            "--write-timeout-ms" => {
                let ms: u64 = value("--write-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--write-timeout-ms: {e}"))?;
                args.cfg.limits.write_timeout = Duration::from_millis(ms);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if args.cfg.max_batch == 0 || args.cfg.queue_depth == 0 || args.cfg.limits.max_conns == 0 {
        return Err("--max-batch, --queue-depth, and --max-conns must be positive".to_owned());
    }
    if args.shard_index.is_some() != args.shard_count.is_some() {
        return Err("--shard-index and --shard-count go together".to_owned());
    }
    if args.image.is_some() {
        // A compiled image fixes the design and weights, and a shard
        // image already carries its ShardSpec.
        if args.design.is_some() || args.seed.is_some() {
            return Err("--image fixes the model; drop --design and --seed".to_owned());
        }
        if args.shard_index.is_some() {
            return Err("--shard-index/--shard-count apply to synthetic models only".to_owned());
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let design = args.design.unwrap_or(ImcDesign::ChgFe);
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let model = match (&args.image, args.shard_index.zip(args.shard_count)) {
        (Some(path), _) => ServeModel::from_image(path),
        (None, Some((i, n))) => ServeModel::synthetic_shard(design, seed, i, n),
        (None, None) => Ok(ServeModel::synthetic(design, seed)),
    };
    let model = match model {
        Ok(m) => m,
        Err(e) => {
            eprintln!("imc-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = Arc::new(model);

    install_signal_handlers();
    imc_obs::set_service_name("serve");
    let _obs = match &args.obs_addr {
        Some(addr) => match imc_obs::serve_http(addr) {
            Ok(h) => {
                println!("imc-serve: obs endpoint on http://{}/metrics", h.addr());
                Some(h)
            }
            Err(e) => {
                eprintln!("imc-serve: cannot bind obs endpoint {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let handle = match serve(args.addr.as_str(), Arc::clone(&model), &args.cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("imc-serve: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "imc-serve listening on {} ({:?}, {}->{} features, one executor, batch<={} wait<={}us queue<={})",
        handle.addr(),
        model.design(),
        model.input_features(),
        model.classes(),
        args.cfg.max_batch,
        args.cfg.max_wait.as_micros(),
        args.cfg.queue_depth,
    );
    let pp = model.prepack();
    println!(
        "imc-serve: prepacked {} MAC layers ({} chunks, {} B of u64 bit-planes resident)",
        pp.mac_layers, pp.chunks, pp.bytes
    );

    // Park until the latch trips (signal or Shutdown control request).
    handle.shutdown_flag().park();
    println!("imc-serve: shutting down, draining admitted work...");
    let metrics = handle.metrics_handle();
    handle.join();
    let latency = metrics.request_latency.summary();
    println!(
        "imc-serve: done. admitted={} completed={} shed={} batches={} errors={} p50={}us p99={}us",
        metrics.admitted.get(),
        metrics.completed.get(),
        metrics.shed.get(),
        metrics.batches.get(),
        metrics.door.protocol_errors.get(),
        latency.p50,
        latency.p99,
    );
    imc_obs::print_summary_if_env();
    ExitCode::SUCCESS
}
