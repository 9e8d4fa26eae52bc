//! Structured timing spans with thread-local nesting and sampling.
//!
//! A span measures one named region of code. Spans nest per thread:
//! while a child runs, its wall time accumulates into the parent's
//! `child_us` so the parent can also report *self* time (time not
//! covered by instrumented children). On finish (explicit
//! [`SpanGuard::finish`] or `Drop`) the span records into two global
//! histograms:
//!
//! * `span_us{span="<name>"}` — wall time of the region, in µs;
//! * `span_self_us{span="<name>"}` — wall time minus instrumented
//!   children, in µs.
//!
//! Sampling: [`set_span_sampling`]`(n)` keeps 1-in-`n` spans (a cheap
//! per-thread counter, no RNG); the default is 1 (record everything).
//! Skipped spans cost two thread-local ops and never read the clock.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use crate::registry::{registry, Histogram};

/// Global 1-in-N sampling knob (1 = record every span).
static SAMPLE_EVERY: AtomicU32 = AtomicU32::new(1);

/// Environment variable read by [`init_span_sampling_from_env`]:
/// `FEFET_IMC_SPAN_SAMPLE=N` keeps 1-in-N spans.
pub const SPAN_SAMPLE_ENV: &str = "FEFET_IMC_SPAN_SAMPLE";

/// Keeps 1-in-`every` spans; `every = 1` records all (the default),
/// `every = 0` is treated as 1.
pub fn set_span_sampling(every: u32) {
    SAMPLE_EVERY.store(every.max(1), Ordering::Relaxed);
}

/// Applies the [`SPAN_SAMPLE_ENV`] override, if set: parses it as the
/// 1-in-N keep rate and calls [`set_span_sampling`]. Bins call this at
/// startup so operators can dial span overhead without a flag. Returns
/// the applied rate, or `None` when the variable is unset or
/// unparsable (the current setting is left untouched).
pub fn init_span_sampling_from_env() -> Option<u32> {
    let raw = std::env::var(SPAN_SAMPLE_ENV).ok()?;
    let every: u32 = raw.trim().parse().ok()?;
    set_span_sampling(every);
    Some(every.max(1))
}

/// Current 1-in-N sampling setting.
#[must_use]
pub fn span_sampling() -> u32 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

struct Frame {
    name: &'static str,
    started: Instant,
    child_us: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static SKIP_TICK: RefCell<u32> = const { RefCell::new(0) };
}

/// An active span; finishes (and records) when dropped or via
/// [`finish`](SpanGuard::finish). Created by [`enter`] or the
/// [`span!`](macro@crate::span) macro.
#[must_use = "a span measures the region it is alive for"]
pub struct SpanGuard {
    /// `false` when this span lost the sampling lottery.
    live: bool,
    done: bool,
}

/// Starts a span named `name`. Prefer the [`span!`](macro@crate::span) macro.
pub fn enter(name: &'static str) -> SpanGuard {
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every > 1 {
        let keep = SKIP_TICK.with(|t| {
            let mut t = t.borrow_mut();
            *t += 1;
            if *t >= every {
                *t = 0;
                true
            } else {
                false
            }
        });
        if !keep {
            return SpanGuard {
                live: false,
                done: false,
            };
        }
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            name,
            started: Instant::now(),
            child_us: 0,
        });
    });
    SpanGuard {
        live: true,
        done: false,
    }
}

fn span_hist(metric: &'static str, name: &'static str, help: &'static str) -> Histogram {
    registry().histogram_with(metric, &[("span", name)], help)
}

fn close(guard: &mut SpanGuard) -> Duration {
    if guard.done || !guard.live {
        guard.done = true;
        return Duration::ZERO;
    }
    guard.done = true;
    let (name, wall, self_time) = match STACK.with(|s| s.borrow_mut().pop()) {
        Some(f) => {
            let wall = f.started.elapsed();
            let wall_us = wall.as_micros() as u64;
            (f.name, wall, wall_us.saturating_sub(f.child_us))
        }
        // Unbalanced pop (span moved across threads); nothing to record.
        None => return Duration::ZERO,
    };
    let wall_us = wall.as_micros() as u64;
    // Credit our wall time to the parent's child accumulator, if any.
    STACK.with(|s| {
        if let Some(parent) = s.borrow_mut().last_mut() {
            parent.child_us += wall_us;
        }
    });
    span_hist("span_us", name, "Span wall time in microseconds").record(wall_us);
    span_hist(
        "span_self_us",
        name,
        "Span self time (wall minus instrumented children) in microseconds",
    )
    .record(self_time);
    wall
}

impl SpanGuard {
    /// Ends the span now, records it, and returns its wall time
    /// (`Duration::ZERO` when the span was sampled out).
    pub fn finish(mut self) -> Duration {
        close(&mut self)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        close(self);
    }
}

/// Opens a span named by a `'static` string literal; the returned
/// [`SpanGuard`] records on drop or [`SpanGuard::finish`].
///
/// ```
/// let _g = imc_obs::span!("pass.remap");
/// // ... region being timed ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;
    use std::thread;

    // Span tests share the global registry; run them in one test body
    // so counts are deterministic, on a dedicated thread so other
    // tests' spans (none today) can't interleave on this stack.
    #[test]
    fn spans_nest_and_record() {
        thread::spawn(|| {
            set_span_sampling(1);
            let before = registry()
                .snapshot()
                .histogram_with("span_us", &[("span", "test.outer")])
                .map_or(0, |s| s.count);
            {
                let outer = enter("test.outer");
                thread::sleep(Duration::from_millis(4));
                {
                    let inner = enter("test.inner");
                    thread::sleep(Duration::from_millis(4));
                    let d = inner.finish();
                    assert!(d >= Duration::from_millis(3));
                }
                drop(outer);
            }
            let snap = registry().snapshot();
            let outer = snap
                .histogram_with("span_us", &[("span", "test.outer")])
                .expect("outer recorded");
            assert_eq!(outer.count, before + 1);
            let outer_self = snap
                .histogram_with("span_self_us", &[("span", "test.outer")])
                .expect("outer self recorded");
            // Outer self time excludes the inner span's ~4 ms.
            assert!(
                outer_self.max < outer.max,
                "self {} !< wall {}",
                outer_self.max,
                outer.max
            );

            // Sampling: with 1-in-3, only one of three spans records.
            let base = snap
                .histogram_with("span_us", &[("span", "test.sampled")])
                .map_or(0, |s| s.count);
            set_span_sampling(3);
            for _ in 0..3 {
                let g = enter("test.sampled");
                g.finish();
            }
            set_span_sampling(1);
            let after = registry()
                .snapshot()
                .histogram_with("span_us", &[("span", "test.sampled")])
                .map_or(0, |s| s.count);
            assert_eq!(after, base + 1);
        })
        .join()
        .expect("span test thread");
    }

    #[test]
    fn env_override_parses_and_applies() {
        // Unset and garbage leave the setting untouched.
        std::env::remove_var(SPAN_SAMPLE_ENV);
        assert_eq!(init_span_sampling_from_env(), None);
        std::env::set_var(SPAN_SAMPLE_ENV, "not-a-number");
        assert_eq!(init_span_sampling_from_env(), None);
        std::env::set_var(SPAN_SAMPLE_ENV, "8");
        assert_eq!(init_span_sampling_from_env(), Some(8));
        assert_eq!(span_sampling(), 8);
        std::env::remove_var(SPAN_SAMPLE_ENV);
        set_span_sampling(1);
    }
}
