//! The live lifecycle, end to end: serve a compiled chip image, hammer
//! it from client threads, hot-swap to a second image mid-load with a
//! `SwapImage` frame, and prove that (a) every response bit-matches one
//! of the two images' oracles — never a blend, never a failure; (b)
//! after the `SwapDone` reply, responses match only the new image; (c)
//! the obs HTTP endpoint (`/metrics`, `/traces`) can be scraped
//! *throughout* the swap without ever seeing an error or torn registry
//! state; and (d) a rejected swap (missing file, wrong shape, nesting
//! past the JSON parser's depth limit, a shard image) comes back as the
//! server's error text and leaves the old image serving untouched.
//!
//! Everything lives in one test body: `Metrics::new` registers its
//! handles into the process-global obs registry with replace
//! semantics, so parallel test fns spinning their own servers would
//! race on what the scrape threads observe.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use imc_compile::fleet::shard_image;
use imc_compile::image::{ChipImage, MlpArch};
use imc_compile::pipeline::{compile, probe_inputs, CompileOptions};
use imc_compile::wear::WearLedger;
use imc_serve::model::ServeModel;
use imc_serve::protocol::Response;
use imc_serve::{serve, Client, ServeConfig};
use neural::imc_exec::ImcDesign;

/// A small arch, every cell programmed.
fn small_opts(seed: u64) -> CompileOptions {
    let mut opts = CompileOptions::new(
        MlpArch {
            features: 48,
            hidden: 16,
            classes: 10,
        },
        ImcDesign::ChgFe,
    );
    opts.weight_seed = seed;
    opts.probe_count = 32;
    opts
}

fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("fefet_imc_lifecycle");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name).to_string_lossy().into_owned()
}

fn compile_to(seed: u64, name: &str) -> String {
    let opts = small_opts(seed);
    let mut ledger = WearLedger::fresh(opts.geometry.banks);
    let out = compile(&opts, &mut ledger).expect("compile succeeds");
    let path = temp_path(name);
    out.image.save(&path).expect("image saves");
    path
}

/// Minimal HTTP GET against the obs endpoint; any non-200 or I/O error
/// is a torn-scrape failure.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("write: {e}"))?;
    let mut body = String::new();
    s.read_to_string(&mut body)
        .map_err(|e| format!("read: {e}"))?;
    if !body.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "{path}: non-200 response: {}",
            body.lines().next().unwrap_or("<empty>")
        ));
    }
    Ok(body)
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn hot_swap_under_load_is_atomic_and_scrape_safe() {
    let path_a = compile_to(7, "image_a.json");
    let path_b = compile_to(9, "image_b.json");

    // Oracles: the exact effective networks both images serve.
    let oracle_a = ServeModel::from_image(&path_a).expect("oracle A");
    let oracle_b = ServeModel::from_image(&path_b).expect("oracle B");
    let digest_b = oracle_b.digest();
    let inputs: Vec<Vec<f32>> = probe_inputs(oracle_a.input_features(), 16, 0xA11CE);
    let expect_a: Vec<Vec<f32>> = inputs.iter().map(|x| oracle_a.infer_one(x)).collect();
    let expect_b: Vec<Vec<f32>> = inputs.iter().map(|x| oracle_b.infer_one(x)).collect();
    assert!(
        inputs
            .iter()
            .enumerate()
            .any(|(i, _)| !bits_equal(&expect_a[i], &expect_b[i])),
        "the two images must disagree somewhere or the swap is unobservable"
    );

    let model = ServeModel::from_image(&path_a).expect("serving model");
    let handle = serve("127.0.0.1:0", Arc::new(model), &ServeConfig::default())
        .expect("bind ephemeral server");
    assert_eq!(handle.image_version(), 1);
    let addr = handle.addr().to_string();

    let obs = imc_obs::serve_http("127.0.0.1:0").expect("bind obs endpoint");
    let obs_addr = obs.addr().to_string();

    let stop = Arc::new(AtomicBool::new(false));
    let matched_a = Arc::new(AtomicU64::new(0));
    let matched_b = Arc::new(AtomicU64::new(0));

    let (swap_done, scrapes, mismatches) = std::thread::scope(|s| {
        // Load threads: hammer Infer until told to stop; every answer
        // must bit-match oracle A or oracle B.
        let mut mismatches: Vec<_> = Vec::new();
        let loaders: Vec<_> = (0..2)
            .map(|t| {
                let addr = addr.clone();
                let stop = Arc::clone(&stop);
                let (inputs, expect_a, expect_b) = (&inputs, &expect_a, &expect_b);
                let (matched_a, matched_b) = (Arc::clone(&matched_a), Arc::clone(&matched_b));
                s.spawn(move || -> Result<(), String> {
                    let mut c = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
                    let mut k = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let id = t * 1_000_000 + k;
                        let i = (id as usize) % inputs.len();
                        match c.infer(id, inputs[i].clone()).map_err(|e| e.to_string())? {
                            Response::Output(r) => {
                                if bits_equal(&r.logits, &expect_a[i]) {
                                    matched_a.fetch_add(1, Ordering::Relaxed);
                                } else if bits_equal(&r.logits, &expect_b[i]) {
                                    matched_b.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    return Err(format!(
                                        "id {id}: logits match neither image's oracle"
                                    ));
                                }
                            }
                            other => return Err(format!("id {id}: unexpected {other:?}")),
                        }
                        k += 1;
                    }
                    Ok(())
                })
            })
            .collect();

        // Scrape threads: GET /metrics and /traces in a tight loop
        // while the swap lands. Any non-200, connection error, or
        // unparseable JSON is a torn exposition.
        let scrapers: Vec<_> = ["/metrics", "/traces"]
            .into_iter()
            .map(|path| {
                let obs_addr = obs_addr.clone();
                let stop = Arc::clone(&stop);
                s.spawn(move || -> Result<u64, String> {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let body = http_get(&obs_addr, path)?;
                        if path == "/traces" {
                            let json = body
                                .split("\r\n\r\n")
                                .nth(1)
                                .ok_or_else(|| "no body".to_owned())?;
                            serde_json::from_str::<serde_json::Value>(json)
                                .map_err(|e| format!("/traces body: {e}"))?;
                        }
                        n += 1;
                    }
                    Ok(n)
                })
            })
            .collect();

        // Let traffic and scrapes establish, then flip mid-load over the
        // wire, as an operator would.
        std::thread::sleep(Duration::from_millis(150));
        let swap_done = Client::connect(addr.as_str())
            .and_then(|mut c| c.swap_image(&path_b))
            .expect("swap succeeds");
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed);

        for l in loaders {
            if let Err(e) = l.join().expect("loader thread panicked") {
                mismatches.push(e);
            }
        }
        let scrapes: Vec<u64> = scrapers
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("scraper panicked")
                    .expect("scrape never errors")
            })
            .collect();
        (swap_done, scrapes, mismatches)
    });

    assert!(mismatches.is_empty(), "load errors: {mismatches:?}");
    assert_eq!(swap_done.version, 2);
    assert_eq!(swap_done.digest, digest_b);
    assert_eq!(handle.image_version(), 2);
    assert!(
        matched_a.load(Ordering::Relaxed) > 0,
        "some responses must predate the swap"
    );
    for (path, n) in ["/metrics", "/traces"].iter().zip(&scrapes) {
        assert!(*n > 0, "{path} scraper never completed a request");
    }

    // After the acknowledged swap, *only* image B answers.
    let mut c = Client::connect(addr.as_str()).expect("post-swap connect");
    for (i, input) in inputs.iter().enumerate() {
        match c
            .infer(9_000_000 + i as u64, input.clone())
            .expect("post-swap infer")
        {
            Response::Output(r) => assert!(
                bits_equal(&r.logits, &expect_b[i]),
                "post-swap response {i} does not match image B"
            ),
            other => panic!("post-swap infer answered {other:?}"),
        }
    }

    // The scrape view agrees: one swap, version 2, and the swap span
    // made it into the flight recorder.
    let snap = imc_obs::registry().snapshot();
    assert_eq!(snap.counter("serve.swaps_total"), Some(1));
    assert_eq!(snap.gauge("serve.image_version"), Some(2.0));
    let traces = http_get(&obs_addr, "/traces").expect("final trace scrape");
    assert!(
        traces.contains("serve.swap"),
        "the swap span reaches /traces"
    );

    // Rejected swaps leave the current image serving, and the server's
    // error text comes back as `InvalidData`.
    let mut rejected = |path: &str, what: &str| {
        let err = c.swap_image(path).expect_err("a rejected swap");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        let err = err.to_string();
        assert!(err.contains(what), "the error names {what:?}: {err}");
    };
    // A missing file...
    rejected(&temp_path("no_such_image.json"), "no_such_image");
    // ...a shape-mismatched image...
    let mut opts = small_opts(11);
    opts.arch.features = 32;
    opts.arch.hidden = 8;
    let mut ledger = WearLedger::fresh(opts.geometry.banks);
    let out = compile(&opts, &mut ledger).expect("mismatched compile");
    let path_c = temp_path("image_c.json");
    out.image.save(&path_c).expect("image saves");
    rejected(&path_c, "shape mismatch");
    // ...a file of 100,000 `[`, which the depth-limited parser refuses
    // instead of overflowing the stack...
    let path_d = temp_path("image_nested.json");
    std::fs::write(&path_d, "[".repeat(100_000)).expect("write nested file");
    rejected(&path_d, "nesting");
    // ...and shard 0 of image B, which a whole-model server must not
    // start answering `Infer` with.
    let image_b = ChipImage::load(&path_b).expect("image B loads");
    let (shards, _) = shard_image(&image_b, 2, "shard_").expect("image B cuts");
    let path_e = temp_path("image_b_shard_0.json");
    shards[0].save(&path_e).expect("shard image saves");
    rejected(&path_e, "shards do not hot-swap");
    assert_eq!(
        handle.image_version(),
        2,
        "failed swaps do not bump the version"
    );
    assert_eq!(
        imc_obs::registry().snapshot().counter("serve.swaps_total"),
        Some(1),
        "failed swaps do not count"
    );
    // Still serving image B, bit-for-bit.
    match c.infer(10_000_000, inputs[0].clone()).expect("final infer") {
        Response::Output(r) => assert!(bits_equal(&r.logits, &expect_b[0])),
        other => panic!("final infer answered {other:?}"),
    }

    handle.shutdown_flag().trigger();
    handle.join();
}
