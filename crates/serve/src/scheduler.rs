//! Least-loaded, panic-isolated batch dispatch on the caller's thread.
//!
//! The paper's chip instantiates 16 banks (the 128×128 macro is 16 banks
//! × 8 bit-columns wide) that fire in the same cycle, and
//! `imc_cost::inference_cost` prices that parallelism in closed form. So
//! a bank here is accounting, not a thread: [`BankScheduler::dispatch`]
//! labels a batch with the **least-loaded** bank — the one with the
//! fewest outstanding requests, ties broken by lowest index — runs it on
//! the calling thread through the executor closure supplied at
//! construction, and releases the bank's count before it returns. The
//! counts are private: only the bank choice reads them. The
//! server builds one bank and dispatches from its batcher thread, which
//! makes that thread the server's one executor; the batch's rows fan out
//! over the shared `par-exec` pool inside the executor.
//!
//! Dispatch is **panic-isolated**: each batch executes under
//! `catch_unwind`, so a panicking executor (a malformed request tripping
//! a model assertion, say) loses only its own batch. The reply routes of
//! the lost batch — captured before execution — are handed to the
//! `on_panic` callback so the server can answer those requests with a
//! typed failure instead of leaving clients hanging, and the caller goes
//! on dispatching.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::batcher::Pending;

type Executor<R> = Box<dyn Fn(usize, Vec<Pending<R>>) + Send + Sync>;
type OnPanic<R> = Box<dyn Fn(usize, Vec<(u64, R)>) + Send + Sync>;

/// Runs batches on the dispatching thread, each labelled with the
/// least-loaded bank.
pub struct BankScheduler<R> {
    /// Requests executing per bank.
    outstanding: Box<[AtomicUsize]>,
    executor: Executor<R>,
    on_panic: OnPanic<R>,
}

impl<R: Clone + Send + 'static> BankScheduler<R> {
    /// A scheduler over `banks` banks. Each dispatched batch is handed to
    /// `executor(bank_index, batch)` on the dispatching thread. If the
    /// executor panics, the batch's reply routes (id + reply handle,
    /// captured before execution) are handed to `on_panic(bank_index,
    /// routes)` and the scheduler keeps serving later batches.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    #[must_use]
    pub fn new<F, P>(banks: usize, executor: F, on_panic: P) -> Self
    where
        F: Fn(usize, Vec<Pending<R>>) + Send + Sync + 'static,
        P: Fn(usize, Vec<(u64, R)>) + Send + Sync + 'static,
    {
        assert!(banks > 0, "need at least one bank");
        Self {
            outstanding: (0..banks).map(|_| AtomicUsize::new(0)).collect(),
            executor: Box::new(executor),
            on_panic: Box::new(on_panic),
        }
    }

    /// Runs `batch` to completion on the calling thread, labelled with
    /// the least-loaded bank, and returns that bank's index. The bank's
    /// outstanding count covers the batch while it runs and is released
    /// before this returns, also when the executor panics.
    pub fn dispatch(&self, batch: Vec<Pending<R>>) -> usize {
        let n = batch.len();
        let (bank, outstanding) = self
            .outstanding
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| b.load(Ordering::Acquire))
            .expect("at least one bank");
        outstanding.fetch_add(n, Ordering::AcqRel);
        // Captured up front so a panicking executor can still have its
        // requests answered.
        let routes: Vec<(u64, R)> = batch.iter().map(|p| (p.id, p.reply.clone())).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| (self.executor)(bank, batch)));
        outstanding.fetch_sub(n, Ordering::Release);
        if outcome.is_err() {
            // A panic in the panic handler itself must not escape to the
            // dispatching thread either.
            let _ = catch_unwind(AssertUnwindSafe(|| (self.on_panic)(bank, routes)));
        }
        bank
    }

    /// Ends the scheduler. Every dispatched batch has already run to
    /// completion inside [`dispatch`](Self::dispatch), so there is
    /// nothing left to drain.
    pub fn shutdown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{mpsc, Arc, Barrier, Mutex};
    use std::time::Instant;

    fn batch(ids: &[u64]) -> Vec<Pending<u64>> {
        ids.iter()
            .map(|&id| Pending {
                id,
                input: Vec::new(),
                enqueued: Instant::now(),
                reply: id,
                trace: None,
            })
            .collect()
    }

    #[test]
    fn every_dispatched_request_executes_exactly_once() {
        let total = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&total);
        let sched = BankScheduler::new(
            4,
            move |_bank, b: Vec<Pending<u64>>| {
                for req in &b {
                    t.fetch_add(req.id, Ordering::Relaxed);
                }
            },
            |_bank, _routes| {},
        );
        let mut expect = 0u64;
        for i in 0..50u64 {
            let ids = [i * 2 + 1, i * 2 + 2];
            expect += ids.iter().sum::<u64>();
            sched.dispatch(batch(&ids));
        }
        sched.shutdown();
        assert_eq!(total.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn dispatch_runs_the_batch_on_the_calling_thread() {
        let ran_on = Arc::new(Mutex::new(None));
        let r = Arc::clone(&ran_on);
        let sched = BankScheduler::new(
            16,
            move |_bank, _b: Vec<Pending<u64>>| {
                *r.lock().unwrap() = Some(std::thread::current().id());
            },
            |_bank, _routes| {},
        );
        assert_eq!(sched.dispatch(batch(&[1])), 0);
        assert_eq!(
            *ran_on.lock().unwrap(),
            Some(std::thread::current().id()),
            "the batch ran on another thread"
        );
    }

    #[test]
    fn concurrent_batches_take_the_least_loaded_banks() {
        // Each executor reports its start, then waits at the barrier with
        // the test thread, so all three batches are in flight at once.
        let hold = Arc::new(Barrier::new(4));
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let started_tx = Mutex::new(started_tx);
        let h = Arc::clone(&hold);
        let sched = BankScheduler::new(
            2,
            move |_bank, _b: Vec<Pending<u64>>| {
                started_tx.lock().unwrap().send(()).unwrap();
                h.wait();
            },
            |_bank, _routes| {},
        );
        std::thread::scope(|s| {
            // Dispatched one after another, each held once started: 3
            // requests hold bank 0, so [4] takes bank 1; with both banks
            // busy, [5] takes bank 1 again, the less loaded (1 < 3).
            let sched = &sched;
            let held = [&[1, 2, 3][..], &[4], &[5]].map(|ids| {
                let h = s.spawn(move || sched.dispatch(batch(ids)));
                started_rx.recv().unwrap();
                h
            });
            hold.wait();
            assert_eq!(held.map(|h| h.join().unwrap()), [0, 1, 1]);
        });
        sched.shutdown();
    }

    #[test]
    fn panicking_batch_is_isolated_and_its_routes_reported() {
        let executed = Arc::new(AtomicU64::new(0));
        let failed_ids = Arc::new(Mutex::new(Vec::<u64>::new()));
        let e = Arc::clone(&executed);
        let f = Arc::clone(&failed_ids);
        let sched = BankScheduler::new(
            2,
            move |_bank, b: Vec<Pending<u64>>| {
                if b.iter().any(|p| p.id == 666) {
                    panic!("injected executor fault");
                }
                e.fetch_add(b.len() as u64, Ordering::Relaxed);
            },
            move |_bank, routes| {
                f.lock().unwrap().extend(routes.iter().map(|(id, _)| *id));
            },
        );
        sched.dispatch(batch(&[1, 2]));
        // Panicked batches release their outstanding counts before
        // dispatch returns, or least-loaded dispatch would shun bank 0
        // for good: every batch here lands on it.
        for _ in 0..3 {
            assert_eq!(sched.dispatch(batch(&[666, 3])), 0);
        }
        assert_eq!(
            sched.dispatch(batch(&[4, 5])),
            0,
            "the scheduler keeps going"
        );
        assert_eq!(executed.load(Ordering::Relaxed), 4);
        assert_eq!(*failed_ids.lock().unwrap(), [666, 3].repeat(3));
    }
}
