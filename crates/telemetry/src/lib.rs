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
//! Tracing is gated by one process-wide flag seeded lazily from the
//! `ENGINE_TRACE` environment variable (or [`set_enabled`]). The disabled
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

pub use chrome::{chrome_trace, chrome_trace_with_drops};
pub use expose::prometheus_text;
pub use metrics::{registry, Counter, Gauge, Histogram, MetricSet, MetricValue, Registry};
pub use span::{
    capture_active, clear_spans, dropped_spans, flush_thread, span, span_count, span_with,
    take_spans, Capture, Clock, Span, SpanRec,
};

use std::sync::atomic::{AtomicU8, Ordering};

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// Tri-state so the flag self-initialises from the environment on first
/// touch; after that, [`enabled`] is a single relaxed load.
static TRACE_STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Is span tracing on? Steady state is one relaxed atomic load; the first
/// call per process consults `ENGINE_TRACE`.
#[inline]
pub fn enabled() -> bool {
    match TRACE_STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

/// Force tracing on or off, overriding `ENGINE_TRACE`.
pub fn set_enabled(on: bool) {
    TRACE_STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

#[cold]
fn init_from_env() -> bool {
    let on = env_trace_value().is_some();
    // A racing set_enabled wins: only replace UNINIT.
    let want = if on { STATE_ON } else { STATE_OFF };
    let _ = TRACE_STATE.compare_exchange(STATE_UNINIT, want, Ordering::Relaxed, Ordering::Relaxed);
    TRACE_STATE.load(Ordering::Relaxed) == STATE_ON
}

/// The raw `ENGINE_TRACE` setting when it asks for tracing: `None` when
/// unset or explicitly off (`0`, `off`, `false`, empty), otherwise the
/// verbatim value. A value that is not just `1`/`on`/`true` is treated by
/// the CLI as an output path for the Chrome trace.
pub fn env_trace_value() -> Option<String> {
    let v = std::env::var("ENGINE_TRACE").ok()?;
    let t = v.trim();
    if t.is_empty()
        || t.eq_ignore_ascii_case("0")
        || t.eq_ignore_ascii_case("off")
        || t.eq_ignore_ascii_case("false")
    {
        return None;
    }
    Some(t.to_string())
}

/// `ENGINE_TRACE` values that name a file (anything beyond a bare on
/// switch): where the CLI should write the Chrome trace.
pub fn env_trace_path() -> Option<String> {
    let v = env_trace_value()?;
    if v == "1" || v.eq_ignore_ascii_case("on") || v.eq_ignore_ascii_case("true") {
        return None;
    }
    Some(v)
}
