//! The benchmark's own tests: its histogram, its open-loop timing, its
//! latency budget, a short run of every workload, agreement between
//! `BENCHMARK.json` and the metrics the runs print, and between its
//! release profile and the root workspace's.
//!
//! Every test that starts a server holds `SERIAL`: servers register
//! their counters in one process-wide registry, which the runs read.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use perfbench::gen::{open_loop, quiet, Stall, Window, MIN_QUIET};
use perfbench::hist::{LogHist, REL_ERROR};
use perfbench::inputs::{splitmix64, RequestPool};
use perfbench::layers::PER_LAYER;
use perfbench::run::{run, Args, Workload};
use perfbench::serving::{start_single, stop_single};
use perfbench::setup::{setup_s, SETUPS};
use perfbench::trace::{median_budget, StageRec};

static SERIAL: Mutex<()> = Mutex::new(());

/// Arguments of a test run; set-ups re-run the benchmark binary.
fn args(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Args {
    Args {
        workload,
        seed,
        window: Duration::from_secs(seconds),
        trace,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    }
}

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn histogram_quantiles_match_a_sorted_vector() {
    let shapes: [fn(u64) -> u64; 3] = [
        |r| r % 1_000,                                    // small, exact buckets
        |r| 2_000_000 + r % 500_000,                      // narrow band, ms scale
        |r| (1u64 << (r % 40)) | ((r >> 40) % 1_000_000), // wide, heavy tail
    ];
    for (k, shape) in shapes.iter().enumerate() {
        let mut h = LogHist::new();
        let mut v: Vec<u64> = (0..20_000u64)
            .map(|i| shape(splitmix64(i ^ (k as u64) << 32)))
            .collect();
        for &x in &v {
            h.record(x);
        }
        v.sort_unstable();
        assert_eq!(h.count(), v.len() as u64);
        assert_eq!(h.max(), *v.last().unwrap());
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
            let want = v[rank - 1] as f64;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() <= want * REL_ERROR + 1.0,
                "shape {k} q {q}: histogram {got}, sorted vector {want}"
            );
        }
    }
}

#[test]
fn the_quiet_part_is_the_least_stolen_tenth() {
    // More than a tenth steal-free: exactly those.
    let mut steal = vec![0.05; 100];
    for i in [3, 40, 41, 77, 90, 91, 92, 93, 94, 95, 96, 97] {
        steal[i] = 0.0;
    }
    assert_eq!(
        quiet(&steal),
        vec![3, 40, 41, 77, 90, 91, 92, 93, 94, 95, 96, 97]
    );
    // Steal everywhere: the least-stolen tenth, ties included.
    let steal: Vec<f64> = (0..100)
        .map(|i| f64::from((i * 37) % 100) / 100.0)
        .collect();
    let picked = quiet(&steal);
    assert_eq!(picked.len(), 10);
    assert!(picked.iter().all(|&i| steal[i] < 0.1));
    assert!(quiet(&[]).is_empty());
    // A short series keeps at least MIN_QUIET: the least stolen of them.
    let steal = [0.3, 0.0, 0.2, 0.1, 0.05, 0.4, 0.02, 0.6, 0.5, 0.07, 0.8];
    assert_eq!(quiet(&steal), vec![1, 3, 4, 6, 9]);
    assert_eq!(quiet(&steal).len(), MIN_QUIET);
    assert_eq!(quiet(&[0.1, 0.2, 0.0]), vec![0, 1, 2]);
}

#[test]
fn budget_stages_add_up_exactly_to_latency() {
    let recs: Vec<StageRec> = (0..1001u64)
        .map(|i| {
            let r = splitmix64(i);
            StageRec {
                latency_ns: 2_000_000 + r % 900_000,
                encode_ns: r % 3_000,
                decode_ns: (r >> 8) % 1_000,
                queue_ns: ((r >> 16) % 2_000) * 1_000,
                service_ns: ((r >> 24) % 600) * 1_000,
                batch: 1,
            }
        })
        .collect();
    let b = median_budget(&recs);
    assert_eq!(b.requests, 100);
    assert_eq!(
        b.encode_ns + b.residual_ns + b.queue_ns + b.service_ns + b.decode_ns,
        b.latency_ns
    );
}

#[test]
fn a_stalled_open_loop_generator_shows_as_latency() {
    let _g = serial();
    let pool = RequestPool::new(9, 16);
    let server = start_single().expect("server starts");
    let epoch = Instant::now();
    let w = Window::new(
        Duration::from_millis(200),
        Duration::from_millis(1200),
        false,
    );
    // At 200 req/s request 120 is due 0.4 s into the window; the sender
    // stalls 80 ms before it, so it and the requests queued behind it
    // are late, and latency timed from the due time must show it.
    let pause = Duration::from_millis(80);
    let stall = Stall { at: 120, pause };
    let t = open_loop(server.addr(), 200.0, &pool, &w, epoch, Some(stall)).expect("open loop runs");
    stop_single(server);
    assert_eq!(t.failed(), 0);
    assert_eq!(t.wrong, 0);
    assert!(
        t.late.max() >= pause.as_nanos() as u64,
        "lateness {} ns",
        t.late.max()
    );
    assert!(
        t.latency.max() >= pause.as_nanos() as u64,
        "max latency {} ns",
        t.latency.max()
    );
}

#[test]
fn every_workload_answers_correctly_in_a_short_run() {
    let _g = serial();
    for workload in Workload::ALL {
        let out = run(&args(workload, 5, 1, false)).expect("run completes");
        assert!(out.correct(), "{workload:?}: {:?}", out.notes);
        assert_eq!(out.failed, 0, "{workload:?}");
        assert!(out.throughput_per_s > 0.0, "{workload:?}");
        assert!(out.latency_p50_us > 0.0, "{workload:?}");
        assert_eq!(out.setups.len(), SETUPS);
        assert!(setup_s(&out.setups) > 0.0, "{workload:?}");
    }
}

#[test]
fn traced_runs_measure_every_layer_and_balance_the_budget() {
    let _g = serial();
    for (workload, largest) in [
        (Workload::Saturate, "service"),
        (Workload::Trickle, "queue"),
    ] {
        let out = run(&args(workload, 6, 2, true)).expect("traced run completes");
        assert!(out.correct(), "{workload:?}: {:?}", out.notes);
        let layers = out.layers.as_ref().expect("traced run reports layers");
        for (name, _) in PER_LAYER {
            let (v, _) = layers
                .get(name)
                .unwrap_or_else(|| panic!("{workload:?}: {name} not measured"));
            assert!(v.is_finite(), "{workload:?}: {name} = {v}");
        }
        let b = out.budget.expect("traced serving run has a budget");
        assert!(b.requests > 0);
        assert_eq!(
            b.encode_ns + b.residual_ns + b.queue_ns + b.service_ns + b.decode_ns,
            b.latency_ns
        );
        let top = b
            .stages_us()
            .into_iter()
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .expect("five stages")
            .0;
        assert_eq!(top, largest, "{workload:?}: {:?}", b.stages_us());
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_runs_print() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let per_layer = &text[text.find("\"per_layer\"").expect("per_layer list")..];
    assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        assert!(
            per_layer.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing"
        );
    }
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", w.name())),
            "workload {} missing",
            w.name()
        );
    }
    for (name, unit) in [
        ("throughput_per_s", "1/s"),
        ("latency_p50_us", "us"),
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
    ] {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} missing"
        );
    }
}

/// The `[profile.release]` table of a Cargo.toml, one setting per line,
/// comments and blank lines dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest readable");
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(str::to_owned)
        .collect()
}

#[test]
fn release_profile_matches_the_root_workspace() {
    let root = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
    let own = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
    assert!(!root.is_empty(), "the root workspace has a release profile");
    assert_eq!(
        own, root,
        "perfbench/Cargo.toml's [profile.release] must equal the root's, \
         so the benchmark measures the program as it ships"
    );
}
