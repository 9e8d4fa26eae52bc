//! `setup_s`: set-up time, each sample taken in a fresh process.
//!
//! A set-up in a process that has already built the model would not
//! pay for packing: `neural` keeps packed weight planes in a
//! process-wide cache keyed on the stored codes, so a second build of
//! the same model is a cache hit. A real `imc-serve` start packs from
//! scratch, so the benchmark re-runs its own binary once per set-up
//! (`--setup-once 1`) and that process times exactly one set-up.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::compile_wl;
use crate::host;
use crate::run::Workload;
use crate::serving;

/// Set-ups per run; `setup_s` is the median of the quiet ones.
pub const SETUPS: usize = 21;

/// How long one set-up process may take before it is killed.
const CHILD_LIMIT: Duration = Duration::from_secs(60);

/// One timed set-up.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// Wall time.
    pub seconds: f64,
    /// Share of host CPU stolen meanwhile.
    pub steal: f64,
}

/// `setup_s`: the median set-up time over the quiet set-ups (see
/// [`crate::gen::quiet`]).
#[must_use]
pub fn setup_s(setups: &[Setup]) -> f64 {
    let steal: Vec<f64> = setups.iter().map(|s| s.steal).collect();
    crate::layers::median(
        crate::gen::quiet(&steal)
            .into_iter()
            .map(|i| setups[i].seconds)
            .collect(),
    )
}

/// Times one set-up of `workload` in this process, from before any
/// model is built until the program can serve, then tears it down.
/// For `compile` the set-up is the first, cold compile; the flag says
/// whether its image verified (always true for serving set-ups).
///
/// # Errors
///
/// A set-up failure.
pub fn setup_once(workload: Workload, seed: u64) -> Result<(Setup, bool), String> {
    let ticks = host::cpu_ticks();
    let t0 = Instant::now();
    let timed = || Setup {
        seconds: t0.elapsed().as_secs_f64(),
        steal: host::steal_between(ticks, host::cpu_ticks()),
    };
    match workload {
        Workload::Saturate | Workload::Trickle => {
            let h = serving::start_single().map_err(|e| e.to_string())?;
            let setup = timed();
            serving::stop_single(h);
            Ok((setup, true))
        }
        Workload::Sharded => {
            let f = serving::start_fleet()?;
            let setup = timed();
            serving::stop_fleet(f);
            Ok((setup, true))
        }
        Workload::Compile => {
            let opts = compile_wl::options(seed);
            let out = compile_wl::compile_fresh(&opts)?;
            let setup = timed();
            Ok((setup, compile_wl::verify(&opts, &out)))
        }
    }
}

/// The line a set-up process prints for its parent.
#[must_use]
pub fn report_line(s: &Setup) -> String {
    format!("setup {} {}", s.seconds, s.steal)
}

/// Runs `n` set-ups of `workload`, each in a fresh process of the
/// benchmark binary `exe`, one after another. Returns their times and
/// how many compiled an image that failed verification (such a process
/// exits 1, as a run with a wrong answer does).
///
/// # Errors
///
/// A set-up process that failed, timed out or printed no result.
pub fn fresh_setups(
    exe: &Path,
    workload: Workload,
    seed: u64,
    n: usize,
) -> Result<(Vec<Setup>, u64), String> {
    let mut setups = Vec::with_capacity(n);
    let mut wrong = 0;
    for _ in 0..n {
        let (setup, verified) = fresh_setup(exe, workload, seed)?;
        setups.push(setup);
        wrong += u64::from(!verified);
    }
    Ok((setups, wrong))
}

fn fresh_setup(exe: &Path, workload: Workload, seed: u64) -> Result<(Setup, bool), String> {
    let mut child = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--setup-once", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let deadline = Instant::now() + CHILD_LIMIT;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("a set-up process ran over {CHILD_LIMIT:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut stdout)
            .map_err(|e| e.to_string())?;
    }
    let verified = match status.code() {
        Some(0) => true,
        Some(1) => false,
        _ => return Err(format!("a set-up process exited with {status}")),
    };
    let parse = || {
        let line = stdout.lines().rev().find(|l| l.starts_with("setup "))?;
        let mut f = line.split_whitespace().skip(1).map(str::parse::<f64>);
        Some(Setup {
            seconds: f.next()?.ok()?,
            steal: f.next()?.ok()?,
        })
    };
    let setup = parse().ok_or_else(|| format!("a set-up process printed no result: {stdout:?}"))?;
    Ok((setup, verified))
}
