//! Span/event tracer with per-thread ring buffers and dual clocks.
//!
//! Every thread records into its own fixed-capacity ring buffer (newest
//! events win when full), so recording is lock-free apart from one
//! registration per thread. Each event carries:
//!
//! * a wall-clock timestamp (nanoseconds since a process-wide epoch), and
//! * the recording rank's *virtual* time when the thread is an `mpisim`
//!   rank (`NaN` otherwise) — `mpisim` keeps the thread-local copy in sync
//!   via [`set_vtime`] whenever `Ctx::vtime` advances.
//!
//! Recording is off by default behind a global [`enable`] flag, the only
//! switch: every build compiles the recorder in. A span opened while
//! recording is disabled costs one relaxed atomic load plus the clock read
//! of its start, and that clock read is also the stopwatch of the Table I
//! row it times ([`Span::close`], [`timed_phase`]).

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Maximum number of key/value args one event can carry (span `End` events
/// reserve one slot for the implicit `wall_ms` duration arg).
pub const MAX_ARGS: usize = 6;

/// Event kind, mirroring the Chrome-trace phases we emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Begin,
    End,
    Instant,
}

/// Fixed-capacity inline arg list; keys are static strings, values `f64`.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    len: u8,
    kv: [(&'static str, f64); MAX_ARGS],
}

impl Default for Args {
    fn default() -> Self {
        Self {
            len: 0,
            kv: [("", 0.0); MAX_ARGS],
        }
    }
}

impl Args {
    /// Add an arg; silently dropped when the inline capacity is exhausted.
    pub fn push(&mut self, key: &'static str, value: f64) {
        if (self.len as usize) < MAX_ARGS {
            self.kv[self.len as usize] = (key, value);
            self.len += 1;
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.kv[..self.len as usize].iter().copied()
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Global sequence number; total order across all threads.
    pub seq: u64,
    pub phase: Phase,
    /// Span/event name (e.g. `"pm.fft"`).
    pub name: &'static str,
    /// Category (e.g. `"comm"`, `"pm"`, `"step"`).
    pub cat: &'static str,
    /// Nanoseconds since the process-wide trace epoch.
    pub wall_ns: u64,
    /// Recording rank's virtual clock in seconds; `NaN` outside `mpisim`.
    pub vtime: f64,
    /// Simulated rank (0 outside `mpisim`).
    pub rank: u32,
    /// Process-unique recording-thread id.
    pub tid: u32,
    pub args: Args,
}

impl Event {
    /// True when the event carries a virtual-clock timestamp.
    pub fn has_vtime(&self) -> bool {
        !self.vtime.is_nan()
    }
}

/// Default per-thread ring buffer capacity (events). Phase-level spans
/// produce tens of events per step, so this covers thousands of steps;
/// overflow drops the oldest events and is counted (see
/// [`spans_dropped`]).
const RING_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Capacity applied to rings created after a [`set_ring_capacity`]
/// call (existing rings keep theirs — capacity is fixed at creation).
static RING_CAP: AtomicU64 = AtomicU64::new(RING_CAPACITY as u64);
/// Process-lifetime total of events lost to ring overflow, across
/// all threads. Monotonic: never reset by drains.
static DROPPED_TOTAL: AtomicU64 = AtomicU64::new(0);
/// All ring buffers ever registered (threads may exit before drain).
static BUFFERS: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());
/// Serializes [`capture`] sections so concurrent tests don't interleave.
static CAPTURE: Mutex<()> = Mutex::new(());

struct Ring {
    events: Vec<Event>,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    dropped: u64,
    capacity: usize,
}

impl Ring {
    fn push(&mut self, e: Event) {
        if self.events.len() < self.capacity {
            self.events.push(e);
        } else {
            self.events[self.head] = e;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
            DROPPED_TOTAL.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Override the ring capacity for threads that register *after* this
/// call (min 4; existing rings are unaffected). Tests use a tiny
/// capacity to exercise the overflow accounting.
pub fn set_ring_capacity(capacity: usize) {
    RING_CAP.store(capacity.max(4) as u64, Ordering::SeqCst);
}

/// Total events lost to ring-buffer overflow over the process
/// lifetime (all threads). Monotonic — exported as the
/// `obs_spans_dropped_total` registry counter and the
/// `spans_dropped` Chrome-trace metadata field.
pub fn spans_dropped() -> u64 {
    DROPPED_TOTAL.load(Ordering::Relaxed)
}

thread_local! {
    static RANK: Cell<u32> = const { Cell::new(0) };
    static VTIME: Cell<f64> = const { Cell::new(f64::NAN) };
    static RING: OnceCell<(u32, Arc<Mutex<Ring>>)> = const { OnceCell::new() };
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start recording. The epoch is pinned on first use.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Tag this thread as simulated rank `rank` for subsequent events.
pub fn set_rank(rank: usize) {
    RANK.with(|r| r.set(rank as u32));
}

/// Update this thread's copy of its rank's virtual clock (seconds).
#[inline]
pub fn set_vtime(vtime: f64) {
    VTIME.with(|v| v.set(vtime));
}

/// Clear the virtual clock (thread no longer acts as a rank).
pub fn clear_vtime() {
    VTIME.with(|v| v.set(f64::NAN));
}

/// A rank's tag, lent to the pool threads that do part of its work
/// ([`RankTag::scope`]) so that the spans they record are its own.
#[derive(Debug, Clone, Copy)]
pub struct RankTag(u32);

/// The calling thread's rank tag.
pub fn rank_tag() -> RankTag {
    RankTag(RANK.with(Cell::get))
}

impl RankTag {
    /// Run `f` with this thread's events tagged with the lent rank and
    /// no virtual time, then give the thread its own tags back, also
    /// when `f` panics. Work handed to the pool is not a step of the
    /// rank's simulated timeline: which thread runs which part, and in
    /// what order, is the pool's choice, so its events stay out of the
    /// per-rank virtual-time order that replays bit for bit.
    pub fn scope<R>(self, f: impl FnOnce() -> R) -> R {
        struct Restore(u32, f64);
        impl Drop for Restore {
            fn drop(&mut self) {
                RANK.with(|r| r.set(self.0));
                VTIME.with(|v| v.set(self.1));
            }
        }
        let _restore = Restore(RANK.with(Cell::get), VTIME.with(Cell::get));
        RANK.with(|r| r.set(self.0));
        VTIME.with(|v| v.set(f64::NAN));
        f()
    }
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Record one raw event. Cheap no-op while recording is disabled.
pub fn record(phase: Phase, cat: &'static str, name: &'static str, args: Args) {
    if !is_enabled() {
        return;
    }
    let e = Event {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        phase,
        name,
        cat,
        wall_ns: now_ns(),
        vtime: VTIME.with(|v| v.get()),
        rank: RANK.with(|r| r.get()),
        tid: 0, // filled in below from the ring registration
        args,
    };
    RING.with(|cell| {
        let (tid, ring) = cell.get_or_init(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let ring = Arc::new(Mutex::new(Ring {
                events: Vec::new(),
                head: 0,
                dropped: 0,
                capacity: RING_CAP.load(Ordering::SeqCst) as usize,
            }));
            lock(&BUFFERS).push(Arc::clone(&ring));
            (tid, ring)
        });
        let mut e = e;
        e.tid = *tid;
        lock(ring).push(e);
    });
}

/// Copy (without draining) up to `max` of the newest events in the
/// *current thread's* ring, oldest first. The flight recorder's
/// post-mortem bundle snapshots the rank thread it runs on; other
/// threads' rings are untouched so a concurrent [`capture`] still
/// sees everything.
pub fn recent(max: usize) -> Vec<Event> {
    RING.with(|cell| {
        let Some((_, ring)) = cell.get() else {
            return Vec::new();
        };
        let r = lock(ring);
        let mut all = Vec::with_capacity(r.events.len());
        all.extend_from_slice(&r.events[r.head..]);
        all.extend_from_slice(&r.events[..r.head]);
        let skip = all.len().saturating_sub(max);
        all.split_off(skip)
    })
}

/// Drain every thread's buffer, returning all events ordered by `seq`.
/// Also reports how many events were dropped to ring overflow.
pub fn drain_counted() -> (Vec<Event>, u64) {
    let mut out = Vec::new();
    let mut dropped = 0;
    for ring in lock(&BUFFERS).iter() {
        let mut r = lock(ring);
        let head = r.head;
        out.extend_from_slice(&r.events[head..]);
        out.extend_from_slice(&r.events[..head]);
        dropped += r.dropped;
        r.events.clear();
        r.head = 0;
        r.dropped = 0;
    }
    out.sort_by_key(|e| e.seq);
    (out, dropped)
}

pub fn drain() -> Vec<Event> {
    drain_counted().0
}

/// Run `f` with recording enabled and return its result plus every
/// event it produced. Captures are serialized by a global lock so
/// parallel tests cannot interleave their event streams; events
/// recorded outside the capture window are discarded.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    let (out, events, _) = capture_counted(f);
    (out, events)
}

/// [`capture`] that also reports how many events the window lost to
/// ring overflow (the per-window `spans_dropped` for trace exports).
pub fn capture_counted<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>, u64) {
    let _guard = lock(&CAPTURE);
    drain(); // discard stale events from before this window
    enable();
    let out = f();
    disable();
    let (events, dropped) = drain_counted();
    (out, events, dropped)
}

/// RAII span guard: records a `Begin` event on creation and the matching
/// `End` (with accumulated args plus a `wall_ms` duration arg) on drop or
/// [`Span::close`]. Records nothing when recording is disabled at
/// creation time, but still times its scope.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    live: bool,
    cat: &'static str,
    name: &'static str,
    args: Args,
    start: Instant,
}

/// Open a span of category `cat` named `name` on the current thread.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    let live = is_enabled();
    if live {
        record(Phase::Begin, cat, name, Args::default());
    }
    Span {
        live,
        cat,
        name,
        args: Args::default(),
        start: Instant::now(),
    }
}

impl Span {
    /// Attach a key/value arg, emitted with the span's `End` event.
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: f64) {
        if self.live {
            self.args.push(key, value);
        }
    }

    /// Close the span now and return the wall seconds it covered — one
    /// clock read serves the `End` event's `wall_ms` and the caller's row.
    pub fn close(mut self) -> f64 {
        self.end()
    }

    fn end(&mut self) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        if self.live {
            self.live = false;
            self.args.push("wall_ms", secs * 1e3);
            record(Phase::End, self.cat, self.name, self.args);
        }
        secs
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.live {
            self.end();
        }
    }
}

/// Run one phase under its span and add its wall seconds to `row`: the
/// one stopwatch of a Table I row and of its trace span.
pub fn timed_phase<T>(
    cat: &'static str,
    name: &'static str,
    row: &mut f64,
    phase: impl FnOnce() -> T,
) -> T {
    let span = span(cat, name);
    let out = phase();
    *row += span.close();
    out
}

/// Record a point event with args.
#[inline]
pub fn instant(cat: &'static str, name: &'static str, args: &[(&'static str, f64)]) {
    if is_enabled() {
        let mut a = Args::default();
        for &(k, v) in args {
            a.push(k, v);
        }
        record(Phase::Instant, cat, name, a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_collects_nested_spans_in_order() {
        let ((), events) = capture(|| {
            let mut outer = span("test", "outer");
            outer.arg("k", 7.0);
            {
                let _inner = span("test", "inner");
                instant("test", "tick", &[("x", 1.0)]);
            }
        });
        let names: Vec<_> = events.iter().map(|e| (e.phase, e.name)).collect();
        assert_eq!(
            names,
            vec![
                (Phase::Begin, "outer"),
                (Phase::Begin, "inner"),
                (Phase::Instant, "tick"),
                (Phase::End, "inner"),
                (Phase::End, "outer"),
            ]
        );
        // End events carry the user arg plus the implicit wall_ms.
        let end_outer = events.last().unwrap();
        let args: Vec<_> = end_outer.args.iter().collect();
        assert_eq!(args[0], ("k", 7.0));
        assert_eq!(args[1].0, "wall_ms");
        // Wall timestamps are nondecreasing in sequence order.
        assert!(events.windows(2).all(|w| w[0].wall_ns <= w[1].wall_ns));
        // Outside mpisim there is no virtual clock.
        assert!(!events[0].has_vtime());
    }

    #[test]
    fn close_returns_the_seconds_its_end_event_reports() {
        let (secs, events) = capture(|| {
            let s = span("test", "closed");
            std::thread::sleep(std::time::Duration::from_millis(2));
            s.close()
        });
        assert!(secs >= 2e-3, "{secs}");
        assert_eq!(events.len(), 2, "closing ends the span once");
        let wall_ms = events[1].args.iter().find(|(k, _)| *k == "wall_ms");
        assert_eq!(wall_ms, Some(("wall_ms", secs * 1e3)));
    }

    #[test]
    fn timed_phase_adds_its_seconds_to_the_row() {
        let ((out, row), events) = capture(|| {
            let mut row = 1.0;
            let out = timed_phase("test", "phase", &mut row, || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                7
            });
            (out, row)
        });
        assert_eq!(out, 7);
        assert!(row >= 1.0 + 1e-3, "{row}");
        let names: Vec<_> = events.iter().map(|e| (e.phase, e.name)).collect();
        assert_eq!(names, [(Phase::Begin, "phase"), (Phase::End, "phase")]);
    }

    #[test]
    fn disabled_recording_produces_nothing() {
        // Under the capture lock: another test's capture window must not
        // be open (recording on) while this span is taken.
        let guard = lock(&CAPTURE);
        let _s = span("test", "ignored");
        drop(_s);
        drop(guard);
        let ((), events) = capture(|| {});
        assert!(events.is_empty());
    }

    #[test]
    fn tiny_ring_overflow_is_counted_not_silent() {
        // A fresh thread registered under a tiny capacity overflows
        // after `cap` events; the overwrite is counted per-window
        // (capture_counted) and in the process-lifetime total.
        let before_total = spans_dropped();
        set_ring_capacity(8);
        let ((), events, dropped) = capture_counted(|| {
            std::thread::spawn(|| {
                for _ in 0..20 {
                    instant("test", "overflow", &[("x", 1.0)]);
                }
            })
            .join()
            .unwrap();
        });
        set_ring_capacity(1 << 16); // restore for later-registered threads
        assert_eq!(dropped, 12, "20 events into an 8-slot ring drop 12");
        assert_eq!(events.len(), 8, "the newest 8 survive");
        // Newest-wins: the retained events are the last 8 recorded.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(spans_dropped() >= before_total + 12);
    }

    #[test]
    fn recent_snapshot_is_non_destructive() {
        let ((), events) = capture(|| {
            for _ in 0..6 {
                instant("test", "tick", &[]);
            }
            let tail = recent(4);
            assert_eq!(tail.len(), 4, "recent caps at the requested max");
            assert!(tail.windows(2).all(|w| w[0].seq < w[1].seq));
            assert!(recent(100).len() >= 6, "max above fill returns all");
        });
        // The snapshot did not consume anything: the drain still sees
        // every recorded event.
        assert_eq!(events.len(), 6);
    }

    #[test]
    fn vtime_tag_follows_thread_local_clock() {
        let ((), events) = capture(|| {
            set_rank(3);
            set_vtime(1.25);
            instant("test", "v", &[]);
            clear_vtime();
            set_rank(0);
        });
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rank, 3);
        assert_eq!(events[0].vtime, 1.25);
    }

    #[test]
    fn a_lent_rank_tags_another_thread_until_the_scope_ends() {
        let ((), events) = capture(|| {
            set_rank(2);
            set_vtime(0.5);
            let tag = rank_tag();
            std::thread::scope(|s| {
                s.spawn(|| {
                    tag.scope(|| instant("test", "lent", &[]));
                    instant("test", "own", &[]);
                });
            });
            tag.scope(|| instant("test", "inline", &[]));
            instant("test", "after", &[]);
            clear_vtime();
            set_rank(0);
        });
        let tagged: Vec<_> = events.iter().map(|e| (e.name, e.rank, e.vtime)).collect();
        let names: Vec<_> = tagged.iter().map(|t| (t.0, t.1, t.2.is_nan())).collect();
        assert_eq!(
            names,
            [
                ("lent", 2, true),
                ("own", 0, true),
                ("inline", 2, true),
                ("after", 2, false)
            ]
        );
        assert_eq!(tagged[3].2, 0.5, "the lender's clock comes back");
    }
}
