//! Admission queue + dynamic batcher.
//!
//! Requests enter a **bounded** queue ([`AdmissionQueue::try_enqueue`]);
//! a full queue is an immediate, explicit rejection — the caller turns
//! that into a `Shed` response, so overload degrades into fast feedback
//! instead of unbounded memory growth or client timeouts.
//!
//! The batcher ([`AdmissionQueue::next_batch`]) drains the queue into
//! batches using the classic dynamic-batching rule: flush when the batch
//! reaches `max_batch` requests **or** when the oldest queued request has
//! waited `max_wait`, whichever comes first. The deadline is timed from
//! the oldest request's admission and the server's batcher thread runs
//! each batch itself, so a batch starts at once after one that ran for
//! at least `max_wait`; after a shorter one the executor idles on the
//! timer. No request waits on the timer more than `max_wait`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A request admitted to the queue, carrying everything the executor
/// needs to run it and route the response back.
#[derive(Debug)]
pub struct Pending<R> {
    /// Client correlation id.
    pub id: u64,
    /// Flat input features.
    pub input: Vec<f32>,
    /// When the request was admitted (start of the latency clock).
    pub enqueued: Instant,
    /// Opaque reply route (the server wires a connection handle here).
    pub reply: R,
    /// Distributed-tracing context the request arrived with, if any —
    /// rides through the batcher so the executor can record spans under
    /// the originating trace.
    pub trace: Option<imc_obs::TraceContext>,
}

/// Why an enqueue was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The queue is at capacity — classic backpressure.
    QueueFull,
    /// The service is draining for shutdown.
    ShuttingDown,
}

impl Rejected {
    /// The reason string used in `Shed` responses.
    #[must_use]
    pub fn reason(self) -> &'static str {
        match self {
            Self::QueueFull => "queue full",
            Self::ShuttingDown => "shutting down",
        }
    }
}

struct State<R> {
    queue: VecDeque<Pending<R>>,
    closed: bool,
}

/// Bounded MPSC admission queue with batch-draining consumption.
pub struct AdmissionQueue<R> {
    state: Mutex<State<R>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<R> AdmissionQueue<R> {
    /// Locks the state, recovering from a poisoned mutex.
    ///
    /// The queue only holds plain data (a `VecDeque` and a flag), every
    /// mutation is a single push/pop/drain with no intermediate invalid
    /// state, so a panic on some other thread while it held the lock
    /// cannot leave the queue inconsistent — recovering the guard is
    /// always sound here. Propagating the poison instead (the old
    /// `.expect("admission queue poisoned")`) turned one panicked
    /// producer into a panic in *every* connection thread and the
    /// batcher, cascading a single bad request into a dead service.
    fn lock(&self) -> MutexGuard<'_, State<R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates a queue admitting at most `capacity` requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission queue capacity must be positive");
        Self {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Admits a request, or rejects it immediately when the queue is full
    /// or closed. Never blocks.
    ///
    /// # Errors
    ///
    /// Returns the request back alongside the [`Rejected`] reason so the
    /// caller can shed it with the original id.
    pub fn try_enqueue(&self, req: Pending<R>) -> Result<(), (Pending<R>, Rejected)> {
        let mut st = self.lock();
        if st.closed {
            return Err((req, Rejected::ShuttingDown));
        }
        if st.queue.len() >= self.capacity {
            return Err((req, Rejected::QueueFull));
        }
        st.queue.push_back(req);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Current queue depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Closes the queue: subsequent enqueues are rejected with
    /// [`Rejected::ShuttingDown`], and once drained, `next_batch` returns
    /// `None`.
    pub fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
    }

    /// Blocks for the next batch.
    ///
    /// Returns up to `max_batch` requests: the batch flushes as soon as it
    /// is full, or when the **oldest** member has been queued for
    /// `max_wait`. After [`close`](Self::close), keeps returning the
    /// remaining queued requests (drain semantics) and only then `None`.
    pub fn next_batch(&self, max_batch: usize, max_wait: Duration) -> Option<Vec<Pending<R>>> {
        let mut st = self.lock();
        // Wait for the first request (or close + empty → done).
        loop {
            if !st.queue.is_empty() {
                break;
            }
            if st.closed {
                return None;
            }
            st = self
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        // The flush deadline runs from the oldest request's admission, so
        // queue latency is bounded by max_wait even under trickle load.
        // A huge `max_wait` can overflow `Instant + Duration`; saturate
        // to "no deadline" (flush only on size or close) instead of
        // panicking the batcher thread.
        let deadline = st
            .queue
            .front()
            .expect("non-empty")
            .enqueued
            .checked_add(max_wait);
        while st.queue.len() < max_batch && !st.closed {
            let Some(deadline) = deadline else {
                st = self
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let now = Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            let (guard, timeout) = self
                .not_empty
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            if timeout.timed_out() {
                break;
            }
        }
        let take = st.queue.len().min(max_batch);
        Some(st.queue.drain(..take).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pending(id: u64) -> Pending<()> {
        Pending {
            id,
            input: vec![0.0],
            enqueued: Instant::now(),
            reply: (),
            trace: None,
        }
    }

    #[test]
    fn full_queue_rejects_with_queue_full() {
        let q: AdmissionQueue<()> = AdmissionQueue::new(2);
        q.try_enqueue(pending(1)).unwrap();
        q.try_enqueue(pending(2)).unwrap();
        let (rejected, why) = q.try_enqueue(pending(3)).unwrap_err();
        assert_eq!(rejected.id, 3);
        assert_eq!(why, Rejected::QueueFull);
        assert_eq!(why.reason(), "queue full");
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn batch_flushes_on_max_size_without_waiting() {
        let q: AdmissionQueue<()> = AdmissionQueue::new(16);
        for i in 0..5 {
            q.try_enqueue(pending(i)).unwrap();
        }
        let t0 = Instant::now();
        let batch = q.next_batch(4, Duration::from_secs(10)).unwrap();
        assert_eq!(batch.len(), 4);
        assert!(t0.elapsed() < Duration::from_secs(1), "flushed early");
        let rest = q.next_batch(4, Duration::from_millis(1)).unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].id, 4);
    }

    #[test]
    fn batch_flushes_on_deadline_with_partial_fill() {
        let q: AdmissionQueue<()> = AdmissionQueue::new(16);
        q.try_enqueue(pending(9)).unwrap();
        let t0 = Instant::now();
        let batch = q.next_batch(64, Duration::from_millis(30)).unwrap();
        assert_eq!(batch.len(), 1);
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(20), "flushed too early");
        assert!(waited < Duration::from_secs(5), "deadline ignored");
    }

    #[test]
    fn close_drains_then_ends() {
        let q: Arc<AdmissionQueue<()>> = Arc::new(AdmissionQueue::new(16));
        q.try_enqueue(pending(1)).unwrap();
        q.try_enqueue(pending(2)).unwrap();
        q.close();
        let (req, why) = q.try_enqueue(pending(3)).unwrap_err();
        assert_eq!(req.id, 3);
        assert_eq!(why, Rejected::ShuttingDown);
        // Drain semantics: queued work still comes out...
        let batch = q.next_batch(64, Duration::from_secs(10)).unwrap();
        assert_eq!(batch.len(), 2);
        // ...then the stream ends rather than blocking forever.
        assert!(q.next_batch(64, Duration::from_secs(10)).is_none());
    }

    #[test]
    fn huge_max_wait_saturates_to_no_deadline_instead_of_panicking() {
        // `enqueued + Duration::MAX` would overflow `Instant` arithmetic
        // and panic the batcher; with checked_add it degrades to "flush
        // on size or close".
        let q: Arc<AdmissionQueue<()>> = Arc::new(AdmissionQueue::new(16));
        for i in 0..4 {
            q.try_enqueue(pending(i)).unwrap();
        }
        // Size flush still works with no deadline.
        let batch = q.next_batch(4, Duration::MAX).unwrap();
        assert_eq!(batch.len(), 4);

        // A partial batch under no deadline flushes on close, not never.
        q.try_enqueue(pending(9)).unwrap();
        let qc = Arc::clone(&q);
        let h = std::thread::spawn(move || qc.next_batch(64, Duration::MAX));
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        let drained = h.join().expect("consumer thread").unwrap();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].id, 9);
    }

    #[test]
    fn close_wakes_a_blocked_consumer() {
        let q: Arc<AdmissionQueue<()>> = Arc::new(AdmissionQueue::new(4));
        let qc = Arc::clone(&q);
        let h = std::thread::spawn(move || qc.next_batch(8, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert!(h.join().expect("consumer thread").is_none());
    }
}
