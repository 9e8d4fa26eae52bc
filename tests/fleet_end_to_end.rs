//! End-to-end tests of `imc-fleet` multi-chip serving: real replica
//! servers on ephemeral ports, a real router in front, and the fleet's
//! one load-bearing property — every routed answer is bit-identical to
//! single-node execution, through sharding, replication, failover, and
//! replica death.

use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::time::Duration;

use imc_compile::fleet::shard_image;
use imc_compile::image::MlpArch;
use imc_compile::pipeline::{compile, CompileOptions};
use imc_compile::wear::WearLedger;
use imc_fleet::{serve_fleet, FleetError, FleetPlan, ReplicaState, RouterConfig};
use imc_serve::model::{ServeModel, DEFAULT_SEED, MNIST_FEATURES};
use imc_serve::protocol::Response;
use imc_serve::{serve, wire, Client, ClientConfig, RetryPolicy, ServeConfig, ServerHandle};
use neural::imc_exec::ImcDesign;

/// Gracefully stops an in-process replica server.
fn stop(handle: ServerHandle) {
    handle.shutdown_flag().trigger();
    handle.join();
}

fn test_input(k: usize) -> Vec<f32> {
    (0..MNIST_FEATURES)
        .map(|i| ((i * (k + 3)) % 23) as f32 / 23.0)
        .collect()
}

/// Starts one in-process shard replica and returns its handle.
fn shard_replica(design: ImcDesign, index: usize, count: usize) -> ServerHandle {
    let model = ServeModel::synthetic_shard(design, DEFAULT_SEED, index, count)
        .expect("valid shard assignment");
    serve("127.0.0.1:0", Arc::new(model), &ServeConfig::default()).expect("bind replica")
}

fn fast_retry() -> RouterConfig {
    RouterConfig {
        retry: RetryPolicy {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(10),
            ..RetryPolicy::default()
        },
        ..RouterConfig::default()
    }
}

#[test]
fn sharded_fleet_is_bit_exact_vs_single_node() {
    let design = ImcDesign::ChgFe;
    let replicas: Vec<ServerHandle> = (0..2).map(|i| shard_replica(design, i, 2)).collect();
    let addrs: Vec<String> = replicas.iter().map(|r| r.addr().to_string()).collect();
    let plan = FleetPlan::synthetic(design, DEFAULT_SEED, 2).expect("plan");
    let (router, admission) =
        serve_fleet("127.0.0.1:0", plan, &addrs, fast_retry()).expect("bind router");
    assert!(admission.is_empty(), "clean admission: {admission:?}");

    // One opening of a big-endian length prefix and 10,000 nested `[`
    // gets the BIN1 nack and a close; the router keeps serving.
    let mut s = std::net::TcpStream::connect(router.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let mut nested = 10_000u32.to_be_bytes().to_vec();
    nested.resize(4 + 10_000, b'[');
    // The router may close before reading all of the opening.
    let _ = s.write_all(&nested);
    let mut nack = [0u8; 5];
    s.read_exact(&mut nack).expect("nack bytes");
    assert_eq!(&nack[..4], &wire::MAGIC);
    assert_eq!(nack[4], 0, "expected a nack");

    let oracle = ServeModel::synthetic(design, DEFAULT_SEED);
    let mut client = Client::connect(router.addr()).expect("connect");
    client.ping().expect("router answers ping");
    for k in 0..8usize {
        let input = test_input(k);
        let expect = oracle.infer_one(&input);
        match client.infer(k as u64, input).expect("infer") {
            Response::Output(r) => {
                assert_eq!(r.id, k as u64);
                assert_eq!(r.logits.len(), expect.len());
                for (i, (a, b)) in expect.iter().zip(&r.logits).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "request {k}: logit {i} diverged ({a} vs {b})"
                    );
                }
            }
            other => panic!("expected Output, got {other:?}"),
        }
    }

    // The scatter/gather traffic must show up under per-shard labels.
    let snap = imc_obs::registry().snapshot();
    let text = imc_obs::prometheus_text(&snap);
    assert!(
        text.contains("fleet.shard_requests{replica=") || text.contains("shard="),
        "per-shard families missing from scrape:\n{text}"
    );

    router.shutdown();
    for r in replicas {
        stop(r);
    }
}

#[test]
fn replicated_fleet_fails_over_when_a_replica_dies_mid_load() {
    let design = ImcDesign::ChgFe;
    let make = || {
        serve(
            "127.0.0.1:0",
            Arc::new(ServeModel::synthetic(design, DEFAULT_SEED)),
            &ServeConfig::default(),
        )
        .expect("bind replica")
    };
    let doomed = make();
    let survivor = make();
    let addrs = vec![doomed.addr().to_string(), survivor.addr().to_string()];
    let plan = FleetPlan::synthetic(design, DEFAULT_SEED, 1).expect("plan");
    let (router, admission) =
        serve_fleet("127.0.0.1:0", plan, &addrs, fast_retry()).expect("bind router");
    assert!(admission.is_empty(), "clean admission: {admission:?}");

    let oracle = ServeModel::synthetic(design, DEFAULT_SEED);
    let mut client = Client::connect(router.addr()).expect("connect");
    let check = |client: &mut Client, k: usize| {
        let input = test_input(k);
        let expect = oracle.infer_one(&input);
        match client.infer(k as u64, input).expect("infer") {
            Response::Output(r) => {
                for (a, b) in expect.iter().zip(&r.logits) {
                    assert_eq!(a.to_bits(), b.to_bits(), "request {k} diverged");
                }
            }
            other => panic!("request {k}: expected Output, got {other:?}"),
        }
    };
    // Warm traffic lands on both replicas (round-robin)...
    for k in 0..4 {
        check(&mut client, k);
    }
    // ...then one replica dies. Every subsequent answer must still be
    // bit-exact — failover may retry, never corrupt. The grace sleep
    // lets the replica's lingering connection threads notice shutdown
    // (200 ms poll) so the router sees hard I/O errors, not drain sheds.
    stop(doomed);
    std::thread::sleep(Duration::from_millis(450));
    for k in 4..12 {
        check(&mut client, k);
    }
    let states: Vec<ReplicaState> = router.replicas().iter().map(|r| r.state).collect();
    assert!(
        states.contains(&ReplicaState::Suspect),
        "dead replica should be suspect: {states:?}"
    );

    router.shutdown();
    stop(survivor);
}

#[test]
fn stale_image_version_is_quarantined_not_mixed() {
    let design = ImcDesign::ChgFe;
    // Shard 0 replica is honest; the "shard 1" replica serves a
    // different weight seed — the synthetic analogue of a stale image
    // version after a fleet recompile.
    let honest = shard_replica(design, 0, 2);
    let stale_model =
        ServeModel::synthetic_shard(design, DEFAULT_SEED + 1, 1, 2).expect("stale shard");
    let stale = serve(
        "127.0.0.1:0",
        Arc::new(stale_model),
        &ServeConfig::default(),
    )
    .expect("bind stale replica");
    let addrs = vec![honest.addr().to_string(), stale.addr().to_string()];
    let plan = FleetPlan::synthetic(design, DEFAULT_SEED, 2).expect("plan");
    let (router, admission) =
        serve_fleet("127.0.0.1:0", plan, &addrs, fast_retry()).expect("bind router");

    // Admission must surface exactly one typed StaleImage error.
    assert_eq!(admission.len(), 1, "one quarantine: {admission:?}");
    match &admission[0] {
        FleetError::StaleImage {
            shard, expect, got, ..
        } => {
            assert_eq!(*shard, 1);
            assert_ne!(expect, got);
        }
        other => panic!("expected StaleImage, got {other:?}"),
    }
    assert_eq!(
        router
            .replicas()
            .iter()
            .filter(|r| r.state == ReplicaState::Quarantined)
            .count(),
        1
    );

    // Shard 1 has no admissible replica, so inference fails with a
    // typed error — never silently computed from the stale weights.
    let mut client = Client::connect(router.addr()).expect("connect");
    match client.infer(1, test_input(1)).expect("infer") {
        Response::Failed(f) => {
            assert!(
                f.reason.contains("no admissible replica for shard 1"),
                "unexpected reason: {}",
                f.reason
            );
        }
        other => panic!("expected Failed, got {other:?}"),
    }

    router.shutdown();
    stop(honest);
    stop(stale);
}

#[test]
fn sharded_replica_rejects_whole_model_infer() {
    // Defense in depth below the router: a shard replica reached
    // directly must refuse whole-model work rather than answer from a
    // partial weight view.
    let replica = shard_replica(ImcDesign::ChgFe, 0, 2);
    let mut client = Client::connect(replica.addr()).expect("connect");
    match client.infer(7, test_input(0)).expect("infer") {
        Response::Error(why) => {
            assert!(why.contains("fleet router"), "unexpected error text: {why}")
        }
        other => panic!("expected typed Error, got {other:?}"),
    }
    stop(replica);
}

#[test]
fn four_replica_fleet_throughput_and_bit_exactness() {
    // A 4-replica whole-model fleet under load from two concurrent
    // clients: every response must bit-match the in-process oracle, and
    // every replica must show up in the metrics scrape (round-robin
    // really spreads the traffic). The test times nothing; perfbench's
    // `sharded` workload measures fleet throughput.
    let design = ImcDesign::ChgFe;
    let replicas: Vec<ServerHandle> = (0..4)
        .map(|_| {
            serve(
                "127.0.0.1:0",
                Arc::new(ServeModel::synthetic(design, DEFAULT_SEED)),
                &ServeConfig::default(),
            )
            .expect("bind replica")
        })
        .collect();
    let addrs: Vec<String> = replicas.iter().map(|r| r.addr().to_string()).collect();
    let plan = FleetPlan::synthetic(design, DEFAULT_SEED, 1).expect("plan");
    let (router, admission) =
        serve_fleet("127.0.0.1:0", plan, &addrs, fast_retry()).expect("bind router");
    assert!(admission.is_empty(), "clean admission: {admission:?}");

    let oracle = Arc::new(ServeModel::synthetic(design, DEFAULT_SEED));
    let router_addr = router.addr();
    let workers: Vec<_> = (0..2u64)
        .map(|w| {
            let oracle = Arc::clone(&oracle);
            std::thread::spawn(move || {
                let mut client = Client::connect(router_addr).expect("connect");
                for k in 0..6u64 {
                    let id = w * 100 + k;
                    let input = test_input(id as usize);
                    let expect = oracle.infer_one(&input);
                    match client.infer(id, input).expect("infer") {
                        Response::Output(r) => {
                            assert_eq!(r.id, id);
                            for (a, b) in expect.iter().zip(&r.logits) {
                                assert_eq!(a.to_bits(), b.to_bits(), "request {id} diverged");
                            }
                        }
                        other => panic!("request {id}: expected Output, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    // All four replicas took traffic (round-robin actually spreads).
    let snap = imc_obs::registry().snapshot();
    let text = imc_obs::prometheus_text(&snap);
    for addr in &addrs {
        assert!(
            text.contains(addr.as_str()),
            "replica {addr} absent from scrape"
        );
    }

    router.shutdown();
    for r in replicas {
        stop(r);
    }
}

/// A running router never asks its replicas for their digests again, so
/// a shard replica swapped behind it would add partial sums of the new
/// image to the other shards' sums of the old one: logits that match
/// neither image. Shard replicas refuse `SwapImage` and keep serving
/// the image they started with.
#[test]
fn shard_replicas_refuse_hot_swap() {
    let dir = std::env::temp_dir().join("fefet_imc_fleet_swap");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let shard_0_of = |seed: u64| {
        let arch = MlpArch {
            features: 48,
            hidden: 16,
            classes: 10,
        };
        let mut opts = CompileOptions::new(arch, ImcDesign::ChgFe);
        opts.weight_seed = seed;
        let mut ledger = WearLedger::fresh(opts.geometry.banks);
        let base = compile(&opts, &mut ledger).expect("compile").image;
        let (shards, _) = shard_image(&base, 2, "shard_").expect("cut in two");
        let path = dir.join(format!("seed_{seed}_shard_0.json"));
        let path = path.to_string_lossy().into_owned();
        shards[0].save(&path).expect("shard image saves");
        path
    };
    let (path_7, path_9) = (shard_0_of(7), shard_0_of(9));
    let oracle_7 = ServeModel::from_image(&path_7).expect("seed-7 shard");
    let oracle_9 = ServeModel::from_image(&path_9).expect("seed-9 shard");
    let [lo, hi] = oracle_7.shard().expect("a shard image").layer_chunks[0];
    let codes: Vec<f32> = (0..48).map(|i| (i % 16) as f32).collect();
    let sums_7 = oracle_7.partial(0, lo, hi, &codes).expect("seed-7 sums");
    assert_ne!(
        sums_7,
        oracle_9.partial(0, lo, hi, &codes).expect("seed-9 sums"),
        "the two images must disagree or a swap is unobservable"
    );

    let replica = serve(
        "127.0.0.1:0",
        Arc::new(ServeModel::from_image(&path_7).expect("serving shard")),
        &ServeConfig::default(),
    )
    .expect("bind replica");
    let mut client = Client::connect(replica.addr()).expect("connect");
    let err = client
        .swap_image(&path_9)
        .expect_err("a shard replica must refuse the swap");
    assert!(err.to_string().contains("shards do not hot-swap"), "{err}");
    let reply = client.partial(1, 0, lo, hi, codes).expect("partial");
    assert_eq!(reply.sums, sums_7, "the replica still serves seed 7");
    stop(replica);
}

/// The tracing tentpole, end to end: one traced request through a
/// 2-shard fleet must come back carrying its `trace_id`, and the
/// shared flight recorder (router and replicas are in-process, so they
/// offer to the same one) must hold a stitchable trace — a
/// `fleet.request` root, a `fleet.partial` hop per shard, and a
/// replica-side `serve.partial` span nested under each — stamped with
/// the `imc-cost` analytical energy for the whole inference.
#[test]
fn traced_request_stitches_across_router_and_both_shards() {
    let design = ImcDesign::ChgFe;
    let replicas: Vec<ServerHandle> = (0..2).map(|i| shard_replica(design, i, 2)).collect();
    let addrs: Vec<String> = replicas.iter().map(|r| r.addr().to_string()).collect();
    let plan = FleetPlan::synthetic(design, DEFAULT_SEED, 2).expect("plan");
    let (router, admission) =
        serve_fleet("127.0.0.1:0", plan, &addrs, fast_retry()).expect("bind router");
    assert!(admission.is_empty(), "clean admission: {admission:?}");

    let mut client = Client::connect_with(router.addr(), ClientConfig::default()).expect("connect");

    // A known root context.
    let ctx = imc_obs::TraceContext {
        trace_id: imc_obs::next_span_id(),
        parent_span: 0,
    };
    let input = test_input(1);
    match client
        .infer_traced(0x7ACE, input, Some(ctx))
        .expect("traced infer")
    {
        Response::Output(r) => {
            assert_eq!(r.id, 0x7ACE);
            assert_eq!(
                r.trace_id, ctx.trace_id,
                "reply must echo the request's trace id"
            );
        }
        other => panic!("expected Output, got {other:?}"),
    }

    // Everything this request touched ran in-process, so its records
    // are already in the global recorder (offered before each hop
    // replied). Other tests share the ring; filter by our trace id.
    let spans: Vec<imc_obs::SpanRec> = imc_obs::recorder()
        .snapshot()
        .into_iter()
        .filter(|t| t.trace_id == ctx.trace_id)
        .flat_map(|t| t.spans)
        .collect();

    let roots: Vec<&imc_obs::SpanRec> =
        spans.iter().filter(|s| s.name == "fleet.request").collect();
    assert_eq!(roots.len(), 1, "exactly one router root span: {spans:?}");
    let root = roots[0];
    assert_eq!(root.service, "fleet");
    assert_eq!(
        root.parent_span, 0,
        "client sent parent 0, the router must keep it"
    );

    // One fleet.partial per (shard, MAC layer), parented on the root,
    // covering both shards.
    let partials: Vec<&imc_obs::SpanRec> =
        spans.iter().filter(|s| s.name == "fleet.partial").collect();
    assert!(
        partials.len() >= 2,
        "at least one partial hop per shard: {partials:?}"
    );
    for p in &partials {
        assert_eq!(p.parent_span, root.span_id, "partials nest under the root");
    }
    for shard in 0..2 {
        assert!(
            partials
                .iter()
                .any(|p| p.detail.contains(&format!("shard={shard} "))),
            "shard {shard} missing from partial hops: {partials:?}"
        );
    }

    // Each replica recorded its own serve.partial nested under the
    // fleet.partial hop that called it — the cross-process stitch edge.
    let serve_spans: Vec<&imc_obs::SpanRec> =
        spans.iter().filter(|s| s.name == "serve.partial").collect();
    assert!(
        serve_spans.len() >= 2,
        "both shard replicas must record their hop: {serve_spans:?}"
    );
    let partial_ids: Vec<u64> = partials.iter().map(|p| p.span_id).collect();
    let mut parents: Vec<u64> = Vec::new();
    for s in &serve_spans {
        assert_eq!(s.service, "serve");
        assert!(
            partial_ids.contains(&s.parent_span),
            "serve.partial parents a fleet.partial span: {s:?}"
        );
        if !parents.contains(&s.parent_span) {
            parents.push(s.parent_span);
        }
    }
    assert!(
        parents.len() >= 2,
        "replica spans must hang off distinct router hops"
    );

    // The energy stamp: exactly one span (the root) is priced, and its
    // value is the imc-cost closed-form inference energy the plan (and
    // the single-node model) carries — within 1%.
    let expect_pj = ServeModel::synthetic(design, DEFAULT_SEED).energy_per_inference_pj();
    assert!(expect_pj > 0, "analytical energy model prices the net");
    let total_pj: u64 = spans.iter().map(|s| s.energy_pj).sum();
    let err = (total_pj as f64 - expect_pj as f64).abs() / expect_pj as f64;
    assert!(
        err < 0.01,
        "per-trace energy {total_pj} pJ vs imc-cost {expect_pj} pJ (rel err {err:.4})"
    );
    assert_eq!(
        root.energy_pj, total_pj,
        "the root carries the whole stamp; hops stay at 0"
    );

    router.shutdown();
    for r in replicas {
        stop(r);
    }
}
