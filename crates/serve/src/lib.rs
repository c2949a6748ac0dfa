//! # serve — concurrent query serving over epoch snapshots
//!
//! A hand-rolled HTTP/1.1 + JSON query service over `std::net` (no
//! crates.io, like `exec-parallel` and `telemetry`): a listener feeds a
//! fixed worker pool; every worker takes snapshots of the shared
//! [`pdb::EpochStore`] and evaluates against immutable `Arc<ProbDb>`
//! snapshots while a single writer applies `DeltaBatch`es to the store's
//! second buffer — the previous epoch, caught up by delta-log replay —
//! and publishes it as the new epoch.
//!
//! ## Wire protocol
//!
//! HTTP/1.1 over TCP. Requests carry JSON bodies with `Content-Length`;
//! responses are JSON (`Content-Length`) except `watch`, which streams
//! one JSON document per chunk (`Transfer-Encoding: chunked`, one line
//! per published epoch). Connections are keep-alive by default;
//! `Connection: close` is honored. Request-side chunked encoding is
//! rejected. Errors are `{"error": "<message>"}` with a 4xx/5xx status.
//!
//! ## Endpoints
//!
//! | Method | Path      | Body                                              | Response |
//! |--------|-----------|---------------------------------------------------|----------|
//! | GET    | `/health` | —                                                 | `{ok, version, epoch}` |
//! | GET    | `/stats`  | —                                                 | versions, uptime, per-endpoint latency summaries, plan/result-cache counters (incl. contention), publish latency and recycled/cloned counts, recorder state |
//! | GET    | `/metrics` | —                                                | the telemetry registry in Prometheus text exposition (`text/plain; version=0.0.4`) |
//! | GET    | `/debug/requests` | —                                         | the flight recorder: per-endpoint window summaries + recent requests, newest first, with span captures for slow ones |
//! | POST   | `/eval`   | `{query, samples?, exact?, trace?}`               | `{probability, std_error, method, cache_hit, result_cache_hit, version, epoch, trace?}` |
//! | POST   | `/rank`   | `{query, head, top?, trace?}` (`head`: `"x0"` or `"x0 x1"`) | `{version, answers: [{tuple, probability, std_error, method}], trace?}` |
//! | POST   | `/apply`  | `{deltas}` (a delta script)                       | `{version, batches, ops, publish_ns}` |
//! | POST   | `/watch`  | `{query, updates?, timeout_ms?}`                  | chunked stream of `{version, probability, refreshed, method}` |
//!
//! `"trace": true` on `/eval`/`/rank` returns the serving thread's span
//! capture for that request inline (`trace: [{id, parent, label,
//! start_ns, end_ns}]`) — process-wide tracing can stay off.
//!
//! Queries naming relations or constants not present in the served
//! database are rejected with 400: fresh interning is deterministic, so
//! two different unknown names would otherwise collide in the plan and
//! result caches.
//!
//! ## Observability
//!
//! On by default (see [`service`] module docs): per-endpoint
//! counters/histograms + in-flight gauge in the global registry, a
//! bounded JSONL access log whose slow entries (≥ `slow_ms`) carry the
//! plan summary and operator counters, and a
//! fixed-capacity flight recorder of recent requests. All purely
//! observational: answers are bit-identical with observability off.
//!
//! Rejected `/apply` scripts report exactly which delta failed — the
//! parse error carries `line L (batch B, op O)` positions.
//!
//! ## Epoch discipline invariants
//!
//! 1. **Published epochs are immutable.** A snapshot handed to a reader
//!    never changes. The writer mutates only a buffer nobody else can
//!    reach — the previous epoch, once it holds the last reference to
//!    it, replayed up to date in O(delta), or failing that a deep clone —
//!    and swaps the published pointer to it. A reader that still holds
//!    the previous epoch when the next write starts keeps it intact and
//!    costs that write the clone (`publish.cloned` in `/stats`,
//!    `server.publish.cloned` in `/metrics`); handlers let go of their
//!    snapshot before writing the response, so a read costs no clone
//!    unless it outlasts a whole write interval.
//! 2. **Versions are monotone.** Each publish carries a strictly greater
//!    database version; a reader's successive snapshots never go
//!    backwards.
//! 3. **No torn reads.** Every response is computed against exactly one
//!    snapshot — bit-for-bit the result of *some* published epoch, never
//!    a mix of two.
//! 4. **Readers wait only for a pointer swap, never for an `/apply`.**
//!    Snapshot acquisition clones the current `Arc` under a small mutex
//!    the writer holds only to swap the pointer; `/apply` runs
//!    concurrently with in-flight reads, and every publish, whoever makes
//!    it, wakes every `/watch` stream.
//!
//! The result cache is keyed by `(db uid, version, seed, exec shape,
//! strategy, Query::cache_key())`, so hits are only possible within one
//! epoch and are bit-identical to cold evaluation; the plan cache is the
//! sharded-lock LRU shared by every worker.

pub mod client;
pub mod http;
pub mod service;

pub use client::{HttpClient, HttpResponse};
pub use service::{ApplySummary, ServeOptions, Server};
