//! `span!` through the public API, in a process of its own so every
//! span family in the registry is one this file made.

use std::thread;
use std::time::Duration;

fn count(name: &str) -> u64 {
    imc_obs::registry()
        .snapshot()
        .histogram_with("span_us", &[("span", name)])
        .map_or(0, |s| s.count)
}

#[test]
fn spans_record_every_close_on_any_thread() {
    fn close() {
        let _g = imc_obs::span!("test.close");
    }
    let threads: Vec<_> = (0..2)
        .map(|_| thread::spawn(|| (0..100).for_each(|_| close())))
        .collect();
    for t in threads {
        t.join().expect("span thread");
    }
    assert_eq!(count("test.close"), 200);

    let g = imc_obs::span!("test.finish");
    thread::sleep(Duration::from_millis(4));
    assert!(g.finish() >= Duration::from_millis(4));
    assert_eq!(count("test.finish"), 1, "finish records once");

    // One family: no self-time or other per-span histograms.
    let snap = imc_obs::registry().snapshot();
    let families: Vec<&str> = snap
        .entries
        .iter()
        .map(|e| e.name.as_str())
        .filter(|n| n.starts_with("span"))
        .collect();
    assert_eq!(families, ["span_us", "span_us"]);
}
