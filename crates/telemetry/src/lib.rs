//! Hand-rolled observability substrate (no crates.io dependencies — same
//! spirit as `exec-parallel`).
//!
//! Four pieces:
//!
//! * **Span tracing** ([`span`](fn@span), [`span_with`], [`take_spans`]) — per-thread
//!   span buffers recording `(id, parent, tid, label, start, end)` against a
//!   process-global monotonic [`Clock`]. Buffers are thread-local (lock-free
//!   on the record path); a thread's buffer drains into a global sink when
//!   the thread exits or the buffer fills, and [`take_spans`] merges
//!   everything post-run. [`chrome_trace`] renders the merged spans as
//!   Chrome trace-event JSON (loadable in `chrome://tracing` / Perfetto),
//!   with the dropped-span count in its `otherData` metadata so a
//!   truncated trace is never mistaken for a complete one. A per-thread
//!   [`Capture`] window records the current thread's spans into a private
//!   bounded buffer ([`span::CAPTURE_CAP`]) even when global tracing is
//!   off — the mechanism behind per-request span capture in the query
//!   service's flight recorder.
//! * **Metrics registry** ([`registry`]) — typed [`Counter`]s, [`Gauge`]s
//!   and fixed-bucket latency [`Histogram`]s (p50/p95/p99 extraction)
//!   registered in a global name tree, snapshotted into a [`MetricSet`].
//! * **Prometheus exposition** ([`prometheus_text`]) — renders the
//!   registry in text exposition format 0.0.4: counters `_total`-suffixed,
//!   histograms as cumulative `le` buckets (nanosecond bounds) plus
//!   `_sum`/`_count`. [`expose::parse_exposition`] is a validating parser
//!   for tests and the bench harness.
//! * **Flight-recorder substrate** ([`recorder::Ring`]) — a fixed-capacity
//!   lock-light ring (atomic head + per-slot mutex) retaining the most
//!   recent records; memory is bounded at `capacity × record size` and
//!   pushes never contend except on full wrap-around.
//!
//! Tracing is gated by one process-wide flag, off until [`set_enabled`]
//! turns it on (nothing is read from the environment). The disabled
//! path is a single relaxed atomic load and performs no allocation, so
//! instrumentation can stay compiled into release kernels. Span recording
//! only *observes* — timing reads never feed back into computation — so
//! enabling it cannot perturb bit-for-bit oracles.

pub mod chrome;
pub mod expose;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use chrome::chrome_trace;
pub use expose::prometheus_text;
pub use metrics::{registry, Counter, Gauge, Histogram, MetricSet, MetricValue, Registry};
pub use span::{
    clear_spans, dropped_spans, flush_thread, span, span_count, span_with, take_spans, Capture,
    Clock, Span, SpanRec,
};

use std::sync::atomic::{AtomicBool, Ordering};

static TRACING: AtomicBool = AtomicBool::new(false);

/// Is span tracing on? One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turn span tracing on or off, process-wide.
pub fn set_enabled(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}
