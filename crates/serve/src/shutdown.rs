//! Cooperative shutdown flag, optionally wired to SIGINT/SIGTERM.
//!
//! The flag trips either programmatically (a `Shutdown` control
//! request, [`ShutdownFlag::trigger`]) or — on Unix — from ctrl-c /
//! SIGTERM via [`install_signal_handlers`], which registers
//! async-signal-safe handlers that only store to a process-global atomic
//! (no libc crate needed: `signal(2)` is resolved from the libc Rust
//! already links). The flag is the stop flag of a server's door, so
//! [`trigger`](ShutdownFlag::trigger) wakes the door's blocked accept; a
//! signal cannot, so whoever waits for a signal does it in
//! [`park`](ShutdownFlag::park), which triggers once the flag is set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use imc_obs::Waker;

/// Set by the signal handler; merged into every flag's `is_set`.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// How often [`ShutdownFlag::park`] looks at the flag.
const PARK_POLL: Duration = Duration::from_millis(50);

/// A cheaply clonable shutdown latch over a server's door: triggering it
/// stops the door's listener. Clones share one latch.
#[derive(Debug, Clone)]
pub struct ShutdownFlag {
    accept: Waker,
}

impl ShutdownFlag {
    /// An untripped latch over the listener that `accept` stops.
    #[must_use]
    pub fn new(accept: Waker) -> Self {
        Self { accept }
    }

    /// Trips the flag, waking the door's blocked accept (idempotent).
    pub fn trigger(&self) {
        self.accept.wake();
    }

    /// Whether shutdown has been requested — programmatically or by a
    /// delivered SIGINT/SIGTERM.
    #[must_use]
    pub fn is_set(&self) -> bool {
        self.accept.is_woken() || SIGNALLED.load(Ordering::Acquire)
    }

    /// Sleeps until the flag is set, then triggers it, so a delivered
    /// signal (which only stores to an atomic) also wakes the door's
    /// blocked accept.
    pub fn park(&self) {
        while !self.is_set() {
            std::thread::sleep(PARK_POLL);
        }
        self.trigger();
    }
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // Only an atomic store: async-signal-safe.
    SIGNALLED.store(true, Ordering::Release);
}

/// Registers SIGINT (ctrl-c) and SIGTERM handlers that trip every
/// [`ShutdownFlag`] in the process. No-op on non-Unix targets.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            /// `signal(2)` from the platform libc.
            #[link_name = "signal"]
            fn libc_signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SAFETY: `on_signal` is async-signal-safe (single atomic store)
        // and has the exact `extern "C" fn(i32)` ABI signal expects.
        unsafe {
            libc_signal(SIGINT, on_signal);
            libc_signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: `SIGNALLED` is process-global and the
    // harness runs tests concurrently.
    #[test]
    fn flags_trip_on_trigger_and_on_the_signal_static() {
        let listener = imc_obs::Listener::bind("127.0.0.1:0", "test").expect("bind");
        let a = ShutdownFlag::new(listener.waker());
        let b = a.clone();
        assert!(!a.is_set());
        b.trigger();
        assert!(a.is_set(), "clones share the latch");

        // Call the handler directly (delivering a real signal would kill
        // the test harness); restore the static afterwards.
        #[cfg(unix)]
        {
            let other = imc_obs::Listener::bind("127.0.0.1:0", "test").expect("bind");
            let fresh = ShutdownFlag::new(other.waker());
            assert!(!fresh.is_set());
            on_signal(15);
            assert!(fresh.is_set(), "signal trips every flag");
            SIGNALLED.store(false, Ordering::Release);
        }
    }
}
