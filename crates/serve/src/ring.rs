//! Single-producer broadcast ring buffer — the snapshot fan-out core.
//!
//! One simulation job produces a bounded stream of snapshots; N
//! subscribers (HTTP stream connections) each consume at their own
//! pace. The design constraints, in order:
//!
//! 1. **The producer never blocks.** A slow, stalled or dead subscriber
//!    must not hold up the simulation step loop. Publishing into a full
//!    ring evicts the oldest entry; nothing ever waits on a consumer.
//! 2. **Slow subscribers lose the oldest data, not the newest.** A
//!    subscriber that falls more than `capacity` entries behind skips
//!    forward to the oldest retained entry and is told exactly how many
//!    snapshots it missed ([`Recv::dropped`]) — the drop policy is
//!    skip-forward with lag accounting, never disconnect-from-producer.
//! 3. **Joining mid-stream is consistent.** A new subscriber's cursor
//!    starts at the *latest* published entry (a watcher tuning in sees
//!    the current state of the universe first, then live updates), or
//!    at the oldest retained entry with [`Broadcast::subscribe_from`]
//!    when a consumer wants the full retained history (the benchmark
//!    and the CI client use `?from=0` for determinism).
//!
//! Entries are `Arc`-shared, so fan-out cost per subscriber is one
//! refcount bump regardless of snapshot size.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Shared state of one broadcast channel.
#[derive(Debug)]
pub struct Broadcast<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
    capacity: usize,
    /// Live [`Subscriber`] handles (metrics only).
    subscribers: AtomicUsize,
}

#[derive(Debug)]
struct State<T> {
    /// Retained entries; `buf[i]` has sequence `next_seq - buf.len() + i`.
    buf: VecDeque<Arc<T>>,
    /// Sequence number the next published entry will get.
    next_seq: u64,
    closed: bool,
}

/// One received entry: the payload plus its sequence number and how many
/// entries this subscriber skipped (lost to eviction) just before it.
#[derive(Debug)]
pub struct Recv<T> {
    pub seq: u64,
    /// Entries evicted between this subscriber's cursor and `seq`.
    pub dropped: u64,
    pub item: Arc<T>,
}

/// Why [`Subscriber::recv_timeout`] returned no entry, decided under the
/// ring's lock together with the look for one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing new arrived in time; the channel is still open.
    Timeout,
    /// The channel is closed and this subscriber has drained it.
    Closed,
}

/// A consumer cursor into a [`Broadcast`]. Dropping it never affects the
/// producer or other subscribers.
#[derive(Debug)]
pub struct Subscriber<T> {
    ring: Arc<Broadcast<T>>,
    cursor: u64,
    /// Total entries this subscriber has lost to eviction.
    dropped_total: u64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> Broadcast<T> {
    /// A channel retaining at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Broadcast {
            state: Mutex::new(State {
                buf: VecDeque::new(),
                next_seq: 0,
                closed: false,
            }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
            subscribers: AtomicUsize::new(0),
        })
    }

    /// Publish one entry. Never blocks: a full ring evicts its oldest
    /// entry. Returns the entry's sequence number.
    pub fn publish(&self, item: T) -> u64 {
        let mut st = lock(&self.state);
        if st.buf.len() == self.capacity {
            st.buf.pop_front();
        }
        let seq = st.next_seq;
        st.buf.push_back(Arc::new(item));
        st.next_seq += 1;
        drop(st);
        self.cond.notify_all();
        seq
    }

    /// Mark the stream finished; blocked subscribers wake and drain what
    /// remains, then receive `None`. Idempotent.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.cond.notify_all();
    }

    /// Entries published so far.
    pub fn published(&self) -> u64 {
        lock(&self.state).next_seq
    }

    /// Live subscriber handles right now.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.load(Ordering::Relaxed)
    }

    /// Subscribe starting at the **latest** retained entry (a mid-stream
    /// joiner immediately receives the most recent snapshot, then live
    /// updates). With nothing published yet, starts at the next entry.
    pub fn subscribe(self: &Arc<Self>) -> Subscriber<T> {
        let st = lock(&self.state);
        let cursor = st.next_seq.saturating_sub(u64::from(!st.buf.is_empty()));
        drop(st);
        self.make_subscriber(cursor)
    }

    /// Subscribe starting at sequence `from` (clamped into the retained
    /// window — requesting `0` replays the full retained history).
    pub fn subscribe_from(self: &Arc<Self>, from: u64) -> Subscriber<T> {
        let st = lock(&self.state);
        let oldest = st.next_seq - st.buf.len() as u64;
        let cursor = from.clamp(oldest, st.next_seq);
        drop(st);
        self.make_subscriber(cursor)
    }

    fn make_subscriber(self: &Arc<Self>, cursor: u64) -> Subscriber<T> {
        self.subscribers.fetch_add(1, Ordering::Relaxed);
        Subscriber {
            ring: Arc::clone(self),
            cursor,
            dropped_total: 0,
        }
    }
}

impl<T> Subscriber<T> {
    /// Block until the next entry is available (or the channel closes and
    /// is drained → `None`). Skips forward over evicted entries, counting
    /// them in [`Recv::dropped`].
    pub fn recv(&mut self) -> Option<Recv<T>> {
        self.recv_deadline(None).ok()
    }

    /// [`Subscriber::recv`] with a timeout. The error tells a timeout
    /// from the end of the stream; both are read under the lock the
    /// entry would be taken under, so an entry published just before
    /// the close is always delivered before [`RecvTimeoutError::Closed`].
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Recv<T>, RecvTimeoutError> {
        self.recv_deadline(Some(timeout))
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<Recv<T>> {
        let ring = Arc::clone(&self.ring);
        let mut st = lock(&ring.state);
        self.take(&mut st)
    }

    fn recv_deadline(&mut self, timeout: Option<Duration>) -> Result<Recv<T>, RecvTimeoutError> {
        let ring = Arc::clone(&self.ring);
        let mut st = lock(&ring.state);
        let mut timed_out = false;
        loop {
            if let Some(r) = self.take(&mut st) {
                return Ok(r);
            }
            if st.closed {
                return Err(RecvTimeoutError::Closed);
            }
            if timed_out {
                return Err(RecvTimeoutError::Timeout);
            }
            match timeout {
                None => st = ring.cond.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(t) => {
                    let (g, res) = ring
                        .cond
                        .wait_timeout(st, t)
                        .unwrap_or_else(PoisonError::into_inner);
                    st = g;
                    timed_out = res.timed_out();
                }
            }
        }
    }

    fn take(&mut self, st: &mut State<T>) -> Option<Recv<T>> {
        let oldest = st.next_seq - st.buf.len() as u64;
        let dropped = oldest.saturating_sub(self.cursor);
        if dropped > 0 {
            self.cursor = oldest; // skip-forward drop policy
            self.dropped_total += dropped;
        }
        if self.cursor >= st.next_seq {
            return None;
        }
        let idx = (self.cursor - oldest) as usize;
        let item = Arc::clone(&st.buf[idx]);
        let seq = self.cursor;
        self.cursor += 1;
        Some(Recv { seq, dropped, item })
    }

    /// Total entries this subscriber has lost to eviction so far.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total
    }
}

impl<T> Drop for Subscriber<T> {
    fn drop(&mut self) {
        self.ring.subscribers.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_delivery_and_close() {
        let ring = Broadcast::new(8);
        let mut sub = ring.subscribe();
        for i in 0..5 {
            ring.publish(i);
        }
        ring.close();
        let mut got = Vec::new();
        while let Some(r) = sub.recv() {
            assert_eq!(r.dropped, 0);
            got.push(*r.item);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(sub.dropped_total(), 0);
    }

    #[test]
    fn slow_subscriber_skips_forward_with_lag_accounting() {
        let ring = Broadcast::new(4);
        let mut sub = ring.subscribe(); // cursor at 0, nothing published yet
        for i in 0..10u64 {
            ring.publish(i);
        }
        // Entries 0..6 were evicted; the first recv reports the gap and
        // resumes at the oldest retained entry.
        let r = sub.recv().unwrap();
        assert_eq!(r.seq, 6);
        assert_eq!(r.dropped, 6);
        assert_eq!(*r.item, 6);
        // The rest arrive gap-free.
        for want in 7..10u64 {
            let r = sub.recv().unwrap();
            assert_eq!((r.seq, r.dropped), (want, 0));
        }
        assert_eq!(sub.dropped_total(), 6);
        assert_eq!(ring.published(), 10);
    }

    #[test]
    fn join_mid_stream_sees_latest_snapshot_first() {
        let ring = Broadcast::new(16);
        for i in 0..9u64 {
            ring.publish(i);
        }
        // Late joiner: latest-first, then live tail.
        let mut sub = ring.subscribe();
        let r = sub.recv().unwrap();
        assert_eq!((r.seq, *r.item), (8, 8));
        ring.publish(9);
        assert_eq!(*sub.recv().unwrap().item, 9);
        // Deterministic replay joiner: full retained history from 0.
        let mut replay = ring.subscribe_from(0);
        let first = replay.recv().unwrap();
        assert_eq!((first.seq, first.dropped), (0, 0));
        // subscribe_from clamps into the retained window after eviction.
        let tight = Broadcast::new(2);
        for i in 0..5u64 {
            tight.publish(i);
        }
        let mut s = tight.subscribe_from(0);
        let r = s.recv().unwrap();
        assert_eq!(
            (r.seq, r.dropped),
            (3, 0),
            "cursor clamped, not counted as drops"
        );
    }

    #[test]
    fn producer_never_blocks_on_dead_or_absent_subscribers() {
        let ring = Broadcast::new(2);
        // No subscribers at all.
        for i in 0..1000u64 {
            ring.publish(i);
        }
        // A dead subscriber: subscribed, never reads, then drops.
        let sub = ring.subscribe();
        drop(sub);
        let t0 = std::time::Instant::now();
        for i in 0..100_000u64 {
            ring.publish(i);
        }
        assert!(
            t0.elapsed().as_secs_f64() < 5.0,
            "publishing must be O(1) regardless of consumers"
        );
        assert_eq!(ring.subscriber_count(), 0);
    }

    #[test]
    fn blocked_subscriber_wakes_on_publish_and_close() {
        let ring = Broadcast::new(4);
        let mut sub = ring.subscribe();
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                ring.publish(41);
                ring.publish(42);
                ring.close();
            })
        };
        assert_eq!(*sub.recv().unwrap().item, 41);
        assert_eq!(*sub.recv().unwrap().item, 42);
        assert!(sub.recv().is_none(), "closed and drained");
        producer.join().unwrap();
    }

    #[test]
    fn fan_out_every_subscriber_accounts_for_every_entry() {
        const SUBS: usize = 8;
        const PUBLISHED: u64 = 5000;
        let ring = Broadcast::new(32);
        let consumers: Vec<_> = (0..SUBS)
            .map(|_| {
                let mut sub = ring.subscribe_from(0);
                std::thread::spawn(move || {
                    let mut received = 0u64;
                    let mut last_seq = None::<u64>;
                    while let Some(r) = sub.recv() {
                        // Sequence numbers are strictly increasing per
                        // subscriber even across drops.
                        if let Some(p) = last_seq {
                            assert!(r.seq > p);
                        }
                        last_seq = Some(r.seq);
                        received += 1;
                    }
                    (received, sub.dropped_total())
                })
            })
            .collect();
        for i in 0..PUBLISHED {
            ring.publish(i);
        }
        ring.close();
        for c in consumers {
            let (received, dropped) = c.join().unwrap();
            assert_eq!(
                received + dropped,
                PUBLISHED,
                "received + dropped must account for every published entry"
            );
            assert!(received >= 1, "the final entry is always delivered");
        }
    }

    #[test]
    fn try_recv_and_timeout() {
        let ring = Broadcast::new(4);
        let mut sub = ring.subscribe();
        assert!(sub.try_recv().is_none());
        let timeout = Duration::from_millis(5);
        assert_eq!(
            sub.recv_timeout(timeout).err(),
            Some(RecvTimeoutError::Timeout)
        );
        ring.publish(7u64);
        assert_eq!(*sub.try_recv().unwrap().item, 7);
    }

    /// A timed wait on an empty ring expires; then the producer
    /// publishes its last entry and closes. The subscriber's next wait
    /// must deliver that entry before it reports the end.
    #[test]
    fn last_entry_published_after_a_timeout_precedes_the_end() {
        let ring = Broadcast::new(4);
        let mut sub = ring.subscribe();
        let timeout = Duration::from_millis(5);
        assert_eq!(
            sub.recv_timeout(timeout).err(),
            Some(RecvTimeoutError::Timeout)
        );
        ring.publish(9u64);
        ring.close();
        let last = sub
            .recv_timeout(timeout)
            .expect("the last entry comes first");
        assert_eq!((last.seq, *last.item), (0, 9));
        assert_eq!(
            sub.recv_timeout(timeout).err(),
            Some(RecvTimeoutError::Closed)
        );
    }
}
