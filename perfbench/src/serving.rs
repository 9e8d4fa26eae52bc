//! Starting and stopping the serving stack in-process through its
//! public API, and driving it with the generators.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use imc_fleet::{serve_fleet, FleetHandle, FleetPlan, RouterConfig};
use imc_serve::model::DEFAULT_SEED;
use imc_serve::{serve, ClientConfig, Proto, ServeConfig, ServeModel, ServerHandle};

use crate::gen::{closed_conn, open_loop, Tally, Window, BUCKET};
use crate::host::{self, Noise};
use crate::inputs::{RequestPool, DESIGN};

/// Shards of the `sharded` workload's fleet.
pub const SHARDS: usize = 2;

/// One `imc-serve` with the default configuration serving the synthetic
/// model.
///
/// # Errors
///
/// Bind failures.
pub fn start_single() -> io::Result<ServerHandle> {
    let model = ServeModel::synthetic(DESIGN, DEFAULT_SEED);
    serve("127.0.0.1:0", Arc::new(model), &ServeConfig::default())
}

/// Stops a server and waits for its threads.
pub fn stop_single(h: ServerHandle) {
    h.shutdown_flag().trigger();
    h.join();
}

/// A sharded fleet: one `imc-serve` per shard behind the router, BIN1
/// on every hop.
pub struct Fleet {
    /// The router.
    pub router: FleetHandle,
    /// Shard replicas, in shard order.
    pub replicas: Vec<ServerHandle>,
    /// The plan the router was started with.
    pub plan: FleetPlan,
}

/// Builds the shard models, starts their replicas, and starts the router,
/// returning once it has admitted every replica.
///
/// # Errors
///
/// Bind failures, or a replica the router did not admit.
pub fn start_fleet() -> Result<Fleet, String> {
    let replicas = (0..SHARDS)
        .map(|i| {
            let m = ServeModel::synthetic_shard(DESIGN, DEFAULT_SEED, i, SHARDS)?;
            serve("127.0.0.1:0", Arc::new(m), &ServeConfig::default()).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let addrs: Vec<String> = replicas.iter().map(|h| h.addr().to_string()).collect();
    let plan = FleetPlan::synthetic(DESIGN, DEFAULT_SEED, SHARDS)?;
    let cfg = RouterConfig {
        client: ClientConfig {
            proto: Proto::Bin,
            ..ClientConfig::default()
        },
        ..RouterConfig::default()
    };
    let (router, admission) =
        serve_fleet("127.0.0.1:0", plan.clone(), &addrs, cfg).map_err(|e| e.to_string())?;
    if !admission.is_empty() {
        return Err(format!("fleet admission failed: {admission:?}"));
    }
    Ok(Fleet {
        router,
        replicas,
        plan,
    })
}

/// Stops the router, then the replicas.
pub fn stop_fleet(f: Fleet) {
    f.router.shutdown();
    for h in f.replicas {
        stop_single(h);
    }
}

/// Offered load.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// `conns` connections, each with `depth` requests in flight.
    Closed {
        /// Connections, one generator thread each.
        conns: usize,
        /// Requests in flight per connection.
        depth: usize,
    },
    /// One connection at a fixed rate (requests per second), with a
    /// sender and a receiver thread.
    Open {
        /// Requests per second.
        rate: f64,
    },
}

impl Load {
    /// Generator threads and connections this load uses.
    #[must_use]
    pub fn threads_and_conns(&self) -> (usize, usize) {
        match *self {
            Load::Closed { conns, .. } => (conns, conns),
            Load::Open { .. } => (2, 1),
        }
    }
}

/// Host noise over the measured window.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowNoise {
    /// Share of host CPU stolen.
    pub steal_frac: f64,
    /// Process CPU microseconds per verified completion in the window.
    pub cpu_us_per_op: f64,
}

/// What one driven window observed.
pub struct Driven {
    /// The generator streams' observations.
    pub tally: Tally,
    /// Host noise over the window.
    pub noise: WindowNoise,
    /// Share of host CPU stolen in each bucket of the window.
    pub bucket_steal: Vec<f64>,
}

/// Runs `load` against `addr` over window `w`. The calling thread only
/// reads host counters at the window's bucket edges; the generator
/// threads do the sending.
///
/// # Errors
///
/// A generator stream that could not connect.
pub fn drive(
    addr: SocketAddr,
    load: Load,
    pool: &RequestPool,
    w: &Window,
    epoch: Instant,
) -> io::Result<Driven> {
    std::thread::scope(|s| {
        let streams: Vec<_> = match load {
            Load::Closed { conns, depth } => (0..conns as u64)
                .map(|i| s.spawn(move || closed_conn(addr, i, depth, pool, w, epoch)))
                .collect(),
            Load::Open { rate } => {
                vec![s.spawn(move || open_loop(addr, rate, pool, w, epoch, None))]
            }
        };
        sleep_until(w.start);
        let noise = Noise::start();
        // Host steal per bucket, read at the same edges the generator
        // counts completions between.
        let buckets = (w.end - w.start).as_nanos().div_ceil(BUCKET.as_nanos()) as u32;
        let mut ticks = Vec::with_capacity(buckets as usize + 1);
        for b in 0..=buckets {
            sleep_until(w.start + BUCKET * b);
            ticks.push(host::cpu_ticks());
        }
        let bucket_steal = ticks
            .windows(2)
            .map(|p| host::steal_between(p[0], p[1]))
            .collect();
        let steal_frac = noise.steal_frac();
        let mut tally: Option<Tally> = None;
        let mut err = None;
        for h in streams {
            match h.join().expect("generator thread panicked") {
                Ok(t) => match tally.as_mut() {
                    Some(acc) => acc.merge(t),
                    None => tally = Some(t),
                },
                Err(e) => err = Some(e),
            }
        }
        if let Some(e) = err {
            return Err(e);
        }
        let tally = tally.expect("at least one generator stream");
        let done: u64 = tally.buckets.iter().sum();
        // CPU time is read after the drain, so it covers the window and
        // the few requests still in flight at its end.
        let cpu_us_per_op = noise.cpu_us_per_op(done);
        Ok(Driven {
            tally,
            noise: WindowNoise {
                steal_frac,
                cpu_us_per_op,
            },
            bucket_steal,
        })
    })
}

/// Sleeps until `t` (no-op if it has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Warm-up traffic before every serving window.
pub const WARMUP: Duration = Duration::from_secs(1);
