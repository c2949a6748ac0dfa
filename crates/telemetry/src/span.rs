//! Span recording: RAII guards writing into per-thread buffers.
//!
//! Each thread lazily claims a **lane** (a small `tid`, dense from 0) the
//! first time it opens a span; spans it records carry that lane id, so a
//! merged trace renders one row per worker thread. Parent links come from
//! a per-thread stack of open spans — guards are strictly nested by RAII,
//! so the stack discipline holds without synchronisation. A lane's buffer
//! drains into the global sink when the thread exits (thread-local
//! destructor) or when the buffer reaches `FLUSH_AT`; [`take_spans`]
//! flushes the calling thread and takes the sink.
//!
//! The sink is capped at [`SPAN_CAP`] records so a long traced run stays
//! bounded; overflow is counted, never reallocated past the cap — and
//! surfaced: every drop also bumps the `telemetry.spans.dropped` registry
//! counter so a truncated trace is never mistaken for a complete one.
//!
//! Independent of the global flag, a thread can open a **capture window**
//! ([`Capture`]): spans recorded on that thread while the window is open
//! are copied into a per-thread buffer (capped at [`CAPTURE_CAP`]) and
//! returned by [`Capture::take`]. Capture forces recording for the
//! capturing thread even when global tracing is off, but captured-only
//! spans never reach the global sink — the serving layer's per-request
//! flight recorder uses this without polluting process-wide traces.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Monotonic time source shared by every span: nanoseconds since a
/// process-global epoch anchored on first use. One `Clock` per process —
/// all lanes read the same epoch, so cross-thread spans line up.
#[derive(Clone, Copy, Debug, Default)]
pub struct Clock;

static EPOCH: OnceLock<Instant> = OnceLock::new();

impl Clock {
    /// The process-global clock.
    pub fn global() -> Clock {
        Clock
    }

    /// Nanoseconds since the process epoch (first call anchors it).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// One completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique per process, dense from 1. 0 is reserved for "no span".
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for lane roots.
    pub parent: u64,
    /// Lane (worker/thread) the span was recorded on, dense from 0.
    pub tid: u64,
    pub label: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Hard cap on buffered spans per process; beyond it records are counted
/// as dropped instead of retained.
pub const SPAN_CAP: usize = 1 << 20;
/// Lane buffer size that triggers a drain into the sink.
const FLUSH_AT: usize = 4096;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

#[derive(Default)]
struct Sink {
    spans: Vec<SpanRec>,
    dropped: u64,
}

static SINK: Mutex<Sink> = Mutex::new(Sink {
    spans: Vec::new(),
    dropped: 0,
});

struct Lane {
    tid: u64,
    stack: Vec<u64>,
    buf: Vec<SpanRec>,
}

impl Lane {
    fn new() -> Lane {
        Lane {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            buf: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let dropped = {
            let mut sink = SINK.lock().unwrap();
            let room = SPAN_CAP.saturating_sub(sink.spans.len());
            let take = room.min(self.buf.len());
            let dropped = (self.buf.len() - take) as u64;
            sink.dropped += dropped;
            sink.spans.extend(self.buf.drain(..).take(take));
            self.buf.clear();
            dropped
        };
        // Surface silent truncation in the metrics registry (outside the
        // sink lock — the registry takes its own).
        if dropped > 0 {
            crate::registry()
                .counter("telemetry.spans.dropped")
                .add(dropped);
        }
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LANE: RefCell<Lane> = RefCell::new(Lane::new());
}

/// Hard cap on spans retained by one [`Capture`] window; spans past it
/// are silently discarded (a bounded per-request trace, not an archive).
pub const CAPTURE_CAP: usize = 2048;

thread_local! {
    static CAPTURE_ON: Cell<bool> = const { Cell::new(false) };
    static CAPTURE: RefCell<Vec<SpanRec>> = const { RefCell::new(Vec::new()) };
}

/// Is a capture window open on the calling thread?
#[inline]
pub fn capture_active() -> bool {
    CAPTURE_ON.try_with(|c| c.get()).unwrap_or(false)
}

/// True when spans should be recorded on this thread: the process-global
/// flag, or a thread-local capture window.
#[inline]
fn recording() -> bool {
    crate::enabled() || capture_active()
}

/// A per-thread capture window: spans recorded on the owning thread while
/// the window is open are copied into a private buffer, independent of the
/// global tracing flag. [`Capture::take`] drains the buffer; dropping the
/// guard closes the window. Windows do not nest — opening a second window
/// on the same thread continues the first buffer, and whichever guard
/// takes first gets the accumulated spans.
pub struct Capture {
    // !Send: the window is bound to the thread that opened it.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Capture {
    /// Open a capture window on the calling thread.
    pub fn begin() -> Capture {
        let _ = CAPTURE_ON.try_with(|c| c.set(true));
        Capture {
            _not_send: std::marker::PhantomData,
        }
    }

    /// Drain the spans captured so far, ordered by start tick.
    pub fn take(&mut self) -> Vec<SpanRec> {
        let mut spans = CAPTURE
            .try_with(|c| std::mem::take(&mut *c.borrow_mut()))
            .unwrap_or_default();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        let _ = CAPTURE_ON.try_with(|c| c.set(false));
        let _ = CAPTURE.try_with(|c| c.borrow_mut().clear());
    }
}

struct OpenSpan {
    id: u64,
    parent: u64,
    tid: u64,
    label: Cow<'static, str>,
    start_ns: u64,
}

/// RAII span guard: records the span into the current thread's lane when
/// dropped. Create and drop on the same thread.
pub struct Span {
    open: Option<OpenSpan>,
}

impl Span {
    /// A guard that records nothing (the disabled path).
    #[inline]
    pub fn disabled() -> Span {
        Span { open: None }
    }

    /// Id of the span being recorded, 0 when tracing is off.
    pub fn id(&self) -> u64 {
        self.open.as_ref().map_or(0, |o| o.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end_ns = Clock::global().now_ns();
        let rec = SpanRec {
            id: open.id,
            parent: open.parent,
            tid: open.tid,
            label: open.label,
            start_ns: open.start_ns,
            end_ns,
        };
        let _ = LANE.try_with(|lane| {
            let mut lane = lane.borrow_mut();
            // Pop back to this span: guards are LIFO, but be robust to a
            // missed pop (truncate to the frame below this id).
            if let Some(pos) = lane.stack.iter().rposition(|&id| id == rec.id) {
                lane.stack.truncate(pos);
            }
            if capture_active() {
                let _ = CAPTURE.try_with(|c| {
                    let mut c = c.borrow_mut();
                    if c.len() < CAPTURE_CAP {
                        c.push(rec.clone());
                    }
                });
            }
            // Capture-only spans stay out of the global sink: when tracing
            // is off process-wide, a serving capture must not make
            // `take_spans` non-empty for everyone else.
            if crate::enabled() {
                lane.buf.push(rec);
                if lane.buf.len() >= FLUSH_AT {
                    lane.flush();
                }
            }
        });
    }
}

/// Open a span with a static label. When tracing is disabled and no
/// capture window is open, this is one relaxed atomic load plus one
/// thread-local flag read and returns an inert guard — no allocation.
#[inline]
pub fn span(label: &'static str) -> Span {
    if !recording() {
        return Span::disabled();
    }
    open_span(Cow::Borrowed(label))
}

/// Open a span with a lazily-built label; the closure only runs when
/// recording (tracing or capture), so the disabled path stays
/// allocation-free.
#[inline]
pub fn span_with<F: FnOnce() -> String>(label: F) -> Span {
    if !recording() {
        return Span::disabled();
    }
    open_span(Cow::Owned(label()))
}

#[cold]
fn open_span(label: Cow<'static, str>) -> Span {
    let start_ns = Clock::global().now_ns();
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let open = LANE
        .try_with(|lane| {
            let mut lane = lane.borrow_mut();
            let parent = lane.stack.last().copied().unwrap_or(0);
            lane.stack.push(id);
            OpenSpan {
                id,
                parent,
                tid: lane.tid,
                label,
                start_ns,
            }
        })
        .ok();
    Span { open }
}

/// Drain the calling thread's lane buffer into the global sink. Worker
/// threads drain automatically on exit; the long-lived main thread calls
/// this (via [`take_spans`]) before export.
pub fn flush_thread() {
    let _ = LANE.try_with(|lane| lane.borrow_mut().flush());
}

/// Flush the calling thread, then take every buffered span, ordered by
/// start tick. Spans still buffered on *other live* threads are not
/// included — in this engine worker threads are scoped and have exited
/// (flushing) by the time a run returns.
pub fn take_spans() -> Vec<SpanRec> {
    flush_thread();
    let mut spans = std::mem::take(&mut SINK.lock().unwrap().spans);
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Discard all buffered spans and the drop counter.
pub fn clear_spans() {
    flush_thread();
    let mut sink = SINK.lock().unwrap();
    sink.spans.clear();
    sink.dropped = 0;
}

/// Spans currently buffered (sink + calling thread's lane).
pub fn span_count() -> usize {
    let local = LANE.try_with(|lane| lane.borrow().buf.len()).unwrap_or(0);
    SINK.lock().unwrap().spans.len() + local
}

/// Spans discarded because the process hit [`SPAN_CAP`].
pub fn dropped_spans() -> u64 {
    SINK.lock().unwrap().dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Tests toggle the process-global flag and sink; serialise them.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn clock_is_monotonic() {
        let c = Clock::global();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn spans_nest_and_record_parent_links() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        clear_spans();
        {
            let outer = span("outer");
            assert!(outer.id() != 0);
            {
                let _inner = span_with(|| format!("inner-{}", 1));
            }
        }
        let spans = take_spans();
        crate::set_enabled(false);
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.label == "inner-1").unwrap();
        let outer = spans.iter().find(|s| s.label == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::set_enabled(false);
        clear_spans();
        {
            let s = span("quiet");
            assert_eq!(s.id(), 0);
            let _t = span_with(|| unreachable!("label closure must not run"));
        }
        assert_eq!(span_count(), 0);
        assert!(take_spans().is_empty());
    }

    #[test]
    fn threads_get_distinct_lanes() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        clear_spans();
        {
            let _root = span("main");
        }
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    {
                        let _w = span("worker");
                    }
                    // Scoped threads can outlive the scope's join by the
                    // length of their TLS destructors; flush inside the
                    // closure so the sink is complete when scope returns.
                    flush_thread();
                });
            }
        });
        let spans = take_spans();
        crate::set_enabled(false);
        assert_eq!(spans.len(), 3);
        let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each thread has its own lane: {spans:?}");
    }

    #[test]
    fn sink_cap_counts_drops() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        clear_spans();
        let drop_counter = crate::registry().counter("telemetry.spans.dropped");
        let before = drop_counter.get();
        // Fill the sink directly to the cap, then record one more span.
        {
            let mut sink = SINK.lock().unwrap();
            let filler = SpanRec {
                id: u64::MAX,
                parent: 0,
                tid: 0,
                label: Cow::Borrowed("filler"),
                start_ns: 0,
                end_ns: 0,
            };
            sink.spans = vec![filler; SPAN_CAP];
        }
        drop(span("overflow"));
        flush_thread();
        assert_eq!(dropped_spans(), 1);
        // The silent truncation surfaces in the registry (cumulative: a
        // `clear_spans` resets the sink's counter but not the metric).
        assert_eq!(drop_counter.get(), before + 1);
        clear_spans();
        crate::set_enabled(false);
    }

    #[test]
    fn capture_window_records_without_global_tracing() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::set_enabled(false);
        clear_spans();
        let mut cap = Capture::begin();
        {
            let _outer = span("captured-outer");
            let _inner = span_with(|| format!("captured-{}", 1));
        }
        let got = cap.take();
        assert_eq!(got.len(), 2);
        let outer = got.iter().find(|s| s.label == "captured-outer").unwrap();
        let inner = got.iter().find(|s| s.label == "captured-1").unwrap();
        assert_eq!(inner.parent, outer.id, "capture keeps parent links");
        // Capture-only spans never reach the global sink.
        assert_eq!(span_count(), 0);
        assert!(take_spans().is_empty());
        drop(cap);
        // Window closed: back to the inert disabled path.
        let s = span("quiet");
        assert_eq!(s.id(), 0);
    }

    #[test]
    fn capture_alongside_global_tracing_feeds_both() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::set_enabled(true);
        clear_spans();
        let mut cap = Capture::begin();
        {
            let _s = span("both");
        }
        let got = cap.take();
        drop(cap);
        let sunk = take_spans();
        crate::set_enabled(false);
        assert_eq!(got.len(), 1);
        assert!(sunk.iter().any(|s| s.label == "both"));
    }
}
