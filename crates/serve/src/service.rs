//! The query service: a `TcpListener` feeding a fixed worker pool over
//! one shared [`pdb::EpochStore`]. Reads (`/eval`, `/rank`, `/watch`)
//! evaluate against immutable `Arc<ProbDb>` snapshots and never wait for
//! a write; `/apply` runs under the store's single-writer lock on the
//! store's second buffer — the previous epoch, caught up by replaying the
//! delta log — and publishes it as the new epoch, so a write costs
//! O(delta). That only works while nobody holds the previous epoch when
//! the next write starts: handlers keep a snapshot for one evaluation and
//! let go before they write the response, so neither a slow peer nor an
//! open `/watch` stream pins one (a held one forces that write to
//! deep-clone — counted in `server.publish.cloned`). The engine is shared
//! across workers — its plan cache is the sharded-lock LRU and its result
//! cache short-circuits repeated identical reads within an epoch.
//!
//! # Observability (on by default)
//!
//! Every request flows through three always-on, purely observational
//! layers — none of them touch the evaluation path, so served answers
//! stay bit-identical to a direct engine call:
//!
//! * **Metrics** — per-endpoint request/status-code counters, an
//!   in-flight gauge, and per-endpoint latency histograms, all in the
//!   process-global telemetry registry. `GET /metrics` renders the whole
//!   registry in Prometheus text exposition format.
//! * **Access log** — one JSONL line per request (timestamp, endpoint,
//!   status, latency, epoch version, canonical query key, cache
//!   outcomes), kept as a bounded in-memory tail
//!   ([`Server::access_log_tail`]) and optionally appended to a file.
//!   Requests at or above the slow threshold (`ServeOptions::slow_ms`,
//!   default 500 ms) additionally carry a `plan` object: method,
//!   dichotomy classification, and per-operator counters.
//! * **Flight recorder** — a fixed-capacity lock-light ring
//!   ([`telemetry::recorder::Ring`]) of per-request records, with the
//!   serving thread's span capture retained for slow requests. Served by
//!   `GET /debug/requests`; clients can also pass `"trace": true` on
//!   `/eval`/`/rank` to get that request's spans inline in the response.

use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use cq::{parse_query, Query, Term, Var, Vocabulary};
use dichotomy::engine::{Engine, ExecOptions, Strategy};
use dichotomy::ranking::{ranked_answers_captured, ranked_answers_counted};
use pdb::{EpochStore, ProbDb, PublishCounts};
use telemetry::json::{escape, parse, Json};
use telemetry::metrics::format_f64;
use telemetry::recorder::Ring;
use telemetry::{Counter, Gauge, Histogram, SpanRec};

use crate::http::{self, ChunkedResponse, Request};

/// Slow-query threshold when [`ServeOptions::slow_ms`] is `None`.
pub const DEFAULT_SLOW_MS: u64 = 500;

/// Flight-recorder capacity (requests retained) by default.
pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

/// Access-log lines retained in memory for [`Server::access_log_tail`].
const ACCESS_TAIL_CAP: usize = 1024;

/// Server configuration. `Default` matches the CLI's evaluation defaults
/// (100k Monte-Carlo budget, fixed seed) with 4 workers on an ephemeral
/// loopback port, observability on.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Fixed worker pool size.
    pub workers: usize,
    /// Monte-Carlo sample budget for `Strategy::Auto` hard queries.
    pub mc_samples: u64,
    /// RNG seed (kept fixed so identical requests are reproducible and
    /// result-cacheable).
    pub seed: u64,
    /// Executor options for the shared engine.
    pub exec: ExecOptions,
    /// How long a `/watch` stream waits for the next epoch before
    /// terminating the stream.
    pub watch_timeout: Duration,
    /// Interpose the result cache (on by default — it is the point of
    /// serving many identical reads per epoch).
    pub result_cache: bool,
    /// Slow-query threshold in milliseconds; `None` is
    /// [`DEFAULT_SLOW_MS`]. `0` means every request takes the slow-capture
    /// path (`tests/config_matrix.rs` pins that this never perturbs
    /// results).
    pub slow_ms: Option<u64>,
    /// Append the JSONL access log to this file (the bounded in-memory
    /// tail is kept either way).
    pub access_log_path: Option<String>,
    /// The access log + flight recorder. On by default; the bench harness
    /// turns it off to measure the PR-9 baseline.
    pub observability: bool,
    /// Flight-recorder ring capacity (requests retained).
    pub recorder_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            mc_samples: 100_000,
            seed: 0xDA151,
            exec: ExecOptions::default(),
            watch_timeout: Duration::from_secs(5),
            result_cache: true,
            slow_ms: None,
            access_log_path: None,
            observability: true,
            recorder_capacity: DEFAULT_RECORDER_CAPACITY,
        }
    }
}

/// The endpoints the service knows, as metric labels; `other` absorbs
/// unknown paths so scrape cardinality stays fixed.
const ENDPOINTS: [&str; 9] = [
    "eval", "rank", "apply", "watch", "health", "stats", "metrics", "debug", "other",
];

/// One endpoint's instruments.
struct EndpointMetrics {
    name: &'static str,
    requests: Arc<Counter>,
    latency: Arc<Histogram>,
    /// Lazily-registered per-status-code counters. The set of statuses an
    /// endpoint emits is tiny (200 plus a few 4xx/5xx), so a linear scan
    /// under a `Mutex` beats formatting a registry key on every request.
    status: Mutex<Vec<(u16, Arc<Counter>)>>,
}

impl EndpointMetrics {
    /// Bump `server.endpoint.<name>.status.<code>`, registering the
    /// counter on first sight of `code`.
    fn count_status(&self, code: u16) {
        let mut cached = self.status.lock().unwrap();
        if let Some((_, c)) = cached.iter().find(|(s, _)| *s == code) {
            c.incr();
            return;
        }
        let c =
            telemetry::registry().counter(&format!("server.endpoint.{}.status.{code}", self.name));
        c.incr();
        cached.push((code, c));
    }
}

/// Per-endpoint counters/histograms, registered once in the global
/// telemetry registry (`server.*` family) and cached as `Arc`s.
struct Metrics {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    inflight: Arc<Gauge>,
    publish_ns: Arc<Histogram>,
    /// Publishes by the buffer they started from (`cloned` is the
    /// O(database) slow case), fed from [`EpochStore::publish_counts`].
    publish_recycled: Arc<Counter>,
    publish_cloned: Arc<Counter>,
    /// What the two counters above have been fed so far.
    publish_fed: Mutex<PublishCounts>,
    watch_updates: Arc<Counter>,
    endpoints: Vec<EndpointMetrics>,
}

impl Metrics {
    fn new() -> Self {
        let r = telemetry::registry();
        Metrics {
            requests: r.counter("server.requests"),
            errors: r.counter("server.errors"),
            inflight: r.gauge("server.inflight"),
            publish_ns: r.histogram("server.publish_ns"),
            publish_recycled: r.counter("server.publish.recycled"),
            publish_cloned: r.counter("server.publish.cloned"),
            publish_fed: Mutex::new(PublishCounts::default()),
            watch_updates: r.counter("server.watch.updates"),
            endpoints: ENDPOINTS
                .iter()
                .map(|&name| EndpointMetrics {
                    name,
                    requests: r.counter(&format!("server.endpoint.{name}.requests")),
                    latency: r.histogram(&format!("server.latency_ns.{name}")),
                    status: Mutex::new(Vec::new()),
                })
                .collect(),
        }
    }

    /// Bring `server.publish.{recycled,cloned}` up to the store's counts
    /// (the store cannot reach the registry itself: `pdb` sits below
    /// `telemetry`). Called after every `/apply` and before every scrape.
    fn feed_publish_counts(&self, store: &EpochStore) {
        let mut fed = self.publish_fed.lock().expect("publish counts poisoned");
        let now = store.publish_counts();
        self.publish_recycled.add(now.recycled - fed.recycled);
        self.publish_cloned.add(now.cloned - fed.cloned);
        *fed = now;
    }

    /// The instruments for `name` (falls back to `other`).
    fn endpoint(&self, name: &str) -> &EndpointMetrics {
        self.endpoints
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| self.endpoints.last().expect("other endpoint"))
    }
}

/// Milliseconds since the Unix epoch (wall-clock timestamps for logs).
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// What a handler learned about its request, threaded back to the
/// observability layer (everything optional — error paths report what
/// they got to).
#[derive(Default)]
struct ReqInfo {
    /// Canonical query key (`Query::cache_key()`).
    query_key: Option<String>,
    /// Snapshot version the request evaluated against.
    version: Option<u64>,
    epoch: Option<u64>,
    cache_hit: Option<bool>,
    result_cache_hit: Option<bool>,
    /// Evaluation method (`Method` Display).
    method: Option<String>,
    /// Dichotomy classification (`Complexity` Display).
    classification: Option<String>,
    /// Per-operator counters of the extensional execution.
    ops: Option<safeplan::OpCounters>,
    /// The serving thread's span capture for this request.
    spans: Option<Arc<Vec<SpanRec>>>,
}

/// One flight-recorder entry.
#[derive(Clone)]
struct RequestRecord {
    ts_ms: u64,
    endpoint: &'static str,
    status: u16,
    latency_ns: u64,
    slow: bool,
    info: Arc<ReqInfo>,
}

/// The JSONL access log: a bounded in-memory tail plus an optional file
/// appender. Pushes format off the hot path's locks — the line is built
/// first, then appended under the tail/file mutexes.
struct AccessLog {
    tail: Mutex<VecDeque<String>>,
    file: Option<Mutex<io::BufWriter<std::fs::File>>>,
}

impl AccessLog {
    fn open(path: Option<&str>) -> io::Result<AccessLog> {
        let file = match path {
            Some(p) => Some(Mutex::new(io::BufWriter::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p)?,
            ))),
            None => None,
        };
        Ok(AccessLog {
            tail: Mutex::new(VecDeque::with_capacity(ACCESS_TAIL_CAP)),
            file,
        })
    }

    fn push(&self, line: String) {
        if let Some(f) = &self.file {
            let mut f = f.lock().expect("access log poisoned");
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        }
        let mut tail = self.tail.lock().expect("access tail poisoned");
        if tail.len() == ACCESS_TAIL_CAP {
            tail.pop_front();
        }
        tail.push_back(line);
    }

    fn lines(&self) -> Vec<String> {
        self.tail
            .lock()
            .expect("access tail poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

/// The always-on observability state: flight recorder + access log +
/// resolved slow threshold.
struct Obs {
    recorder: Ring<RequestRecord>,
    access: AccessLog,
    slow_ns: u64,
}

impl Obs {
    /// Record one finished request: an access-log line (slow entries gain
    /// the plan summary) and a flight-recorder entry (slow entries retain
    /// the span capture).
    fn observe(&self, endpoint: &'static str, status: u16, latency_ns: u64, mut info: ReqInfo) {
        let slow = latency_ns >= self.slow_ns;
        if !slow {
            info.spans = None; // retain span captures only for slow requests
        }
        let info = Arc::new(info);
        self.access.push(access_line(
            unix_ms(),
            endpoint,
            status,
            latency_ns,
            slow,
            &info,
        ));
        self.recorder.push(RequestRecord {
            ts_ms: unix_ms(),
            endpoint,
            status,
            latency_ns,
            slow,
            info,
        });
    }
}

struct Shared {
    store: EpochStore,
    engine: Engine,
    opts: ServeOptions,
    /// Accepted connections queued for the worker pool.
    conns: Mutex<VecDeque<TcpStream>>,
    conn_cv: Condvar,
    shutdown: AtomicBool,
    metrics: Metrics,
    started: Instant,
    /// Resolved slow threshold in milliseconds (for reporting).
    slow_ms: u64,
    /// `None` when `ServeOptions::observability` is off.
    obs: Option<Obs>,
}

/// Summary of a successful `/apply` (also returned by [`Server::apply`]).
#[derive(Clone, Copy, Debug)]
pub struct ApplySummary {
    pub version: u64,
    pub batches: usize,
    pub ops: usize,
    /// Snapshot-publication latency of this epoch: catching the writable
    /// buffer up (log replay, or a clone) + the pointer swap.
    pub publish_ns: u64,
}

/// A running query service. Dropping the server shuts it down and joins
/// all threads.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the acceptor and the fixed worker pool, and start
    /// serving `db`.
    pub fn start(db: ProbDb, opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let mut engine = Engine::with_options(opts.mc_samples, opts.seed, opts.exec);
        if opts.result_cache {
            engine = engine.with_result_cache();
        }
        let slow_ms = opts.slow_ms.unwrap_or(DEFAULT_SLOW_MS);
        let obs = if opts.observability {
            Some(Obs {
                recorder: Ring::new(opts.recorder_capacity),
                access: AccessLog::open(opts.access_log_path.as_deref())?,
                slow_ns: slow_ms.saturating_mul(1_000_000),
            })
        } else {
            None
        };
        let shared = Arc::new(Shared {
            store: EpochStore::new(db),
            engine,
            opts: opts.clone(),
            conns: Mutex::new(VecDeque::new()),
            conn_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: Metrics::new(),
            started: Instant::now(),
            slow_ms,
            obs,
        });

        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;

        let mut workers = Vec::with_capacity(opts.workers.max(1));
        for i in 0..opts.workers.max(1) {
            let worker_shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(worker_shared))?,
            );
        }
        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (use this to connect when the port was 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The epoch store behind the service (tests use this to observe
    /// versions/epochs and to drive out-of-band writes).
    pub fn store(&self) -> &EpochStore {
        &self.shared.store
    }

    /// Current published database version.
    pub fn version(&self) -> u64 {
        self.shared.store.version()
    }

    /// Apply a delta script server-side (same path as the `/apply`
    /// endpoint: parse, apply under the writer lock, publish, wake
    /// watchers).
    pub fn apply(&self, script: &str) -> Result<ApplySummary, String> {
        apply_script(&self.shared, script)
    }

    /// The retained tail of the JSONL access log (empty when
    /// observability is off). Tests and the bench harness read this
    /// instead of tailing a file.
    pub fn access_log_tail(&self) -> Vec<String> {
        match &self.shared.obs {
            Some(obs) => obs.access.lines(),
            None => Vec::new(),
        }
    }

    /// The resolved slow-query threshold in milliseconds.
    pub fn slow_ms(&self) -> u64 {
        self.shared.slow_ms
    }

    /// Stop accepting, drain the queue, and join every thread.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.shared.conn_cv.notify_all();
        self.shared.store.wake_waiters();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let mut q = shared.conns.lock().expect("conns poisoned");
                q.push_back(stream);
                drop(q);
                shared.conn_cv.notify_one();
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let conn = {
            let mut q = shared.conns.lock().expect("conns poisoned");
            loop {
                if let Some(c) = q.pop_front() {
                    break Some(c);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .conn_cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .expect("conns poisoned");
                q = guard;
            }
        };
        match conn {
            Some(stream) => {
                let _ = handle_connection(&shared, stream);
            }
            None => return,
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // Short read timeout so idle keep-alive connections notice shutdown;
    // `http::read_request` rides through the timeouts otherwise.
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .ok();
    let mut rd = BufReader::new(stream.try_clone()?);
    let mut wr = stream;
    loop {
        let req = match http::read_request(&mut rd, || shared.shutdown.load(Ordering::SeqCst)) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                shared.metrics.errors.incr();
                let _ = http::respond_error(&mut wr, 400, &e.to_string());
                return Ok(());
            }
            Err(_) => return Ok(()),
        };
        let keep_alive = req.keep_alive;
        dispatch(shared, &req, &mut wr)?;
        if !keep_alive || shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

/// Pairs an in-flight gauge increment with its decrement, so the gauge
/// balances even when a handler bails with an I/O error.
struct InflightGuard<'a>(&'a Gauge);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.decr();
    }
}

/// The metric label for a request path (query strings stripped).
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/eval" => "eval",
        "/rank" => "rank",
        "/apply" => "apply",
        "/watch" => "watch",
        "/health" => "health",
        "/stats" => "stats",
        "/metrics" => "metrics",
        "/debug/requests" => "debug",
        _ => "other",
    }
}

fn dispatch(shared: &Arc<Shared>, req: &Request, wr: &mut TcpStream) -> io::Result<()> {
    shared.metrics.requests.incr();
    let path = req.path.split('?').next().unwrap_or("");
    let ep = shared.metrics.endpoint(endpoint_label(path));
    ep.requests.incr();
    shared.metrics.inflight.incr();
    let _inflight = InflightGuard(&shared.metrics.inflight);
    let start = Instant::now();
    let mut info = ReqInfo::default();
    let status = match (req.method.as_str(), path) {
        ("GET", "/health") => handle_health(shared, wr)?,
        ("GET", "/stats") => handle_stats(shared, wr)?,
        ("GET", "/metrics") => handle_metrics(shared, wr)?,
        ("GET", "/debug/requests") => handle_debug_requests(shared, wr)?,
        ("POST", "/eval") => handle_eval(shared, &req.body, wr, &mut info)?,
        ("POST", "/rank") => handle_rank(shared, &req.body, wr, &mut info)?,
        ("POST", "/apply") => handle_apply(shared, &req.body, wr)?,
        ("POST", "/watch") => handle_watch(shared, &req.body, wr)?,
        (
            _,
            "/health" | "/stats" | "/metrics" | "/debug/requests" | "/eval" | "/rank" | "/apply"
            | "/watch",
        ) => {
            http::respond_error(wr, 405, "method not allowed")?;
            405
        }
        _ => {
            http::respond_error(wr, 404, "no such endpoint")?;
            404
        }
    };
    let latency_ns = start.elapsed().as_nanos() as u64;
    ep.latency.record_ns(latency_ns);
    ep.count_status(status);
    if status >= 400 {
        shared.metrics.errors.incr();
    }
    if let Some(obs) = &shared.obs {
        obs.observe(ep.name, status, latency_ns, info);
    }
    Ok(())
}

/// Parse the request body as a JSON object (empty body → empty object).
fn parse_body(body: &str) -> Result<Json, String> {
    if body.trim().is_empty() {
        return Ok(Json::Obj(Default::default()));
    }
    parse(body).map_err(|e| format!("bad JSON body: {e}"))
}

/// Parse `text` against a *clone* of the snapshot's vocabulary and reject
/// queries that intern anything new. Fresh interning is deterministic, so
/// two queries naming two *different* unknown relations would otherwise
/// collide in the plan/result caches (both would get the next free id);
/// rejecting up front keeps cache keys honest and gives the client a real
/// error instead of probability 0.
fn parse_known_query(snap: &ProbDb, text: &str) -> Result<(Query, Vocabulary), String> {
    let mut voc = snap.voc.clone();
    let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
    let known_rels = snap.voc.num_relations() as u32;
    for atom in &q.atoms {
        if atom.rel.0 >= known_rels {
            return Err(format!(
                "unknown relation '{}' (not in the served database)",
                voc.rel_name(atom.rel)
            ));
        }
        for t in &atom.args {
            if let Term::Const(v) = *t {
                if v.is_named() && snap.voc.value_name(v).starts_with('#') {
                    return Err(format!(
                        "unknown constant {} (not in the served database)",
                        voc.value_name(v)
                    ));
                }
            }
        }
    }
    Ok((q, voc))
}

fn handle_health(shared: &Arc<Shared>, wr: &mut TcpStream) -> io::Result<u16> {
    let body = format!(
        "{{\"ok\":true,\"version\":{},\"epoch\":{}}}",
        shared.store.version(),
        shared.store.epoch()
    );
    http::respond_json(wr, 200, &body)?;
    Ok(200)
}

fn handle_stats(shared: &Arc<Shared>, wr: &mut TcpStream) -> io::Result<u16> {
    let plans = shared.engine.cache_stats();
    let planner = shared.engine.planner();
    let (rc_hits, rc_misses, rc_len, rc_contended) = match shared.engine.result_cache() {
        Some(rc) => (rc.hits(), rc.misses(), rc.len(), rc.contended()),
        None => (0, 0, 0, 0),
    };
    let m = &shared.metrics;
    m.feed_publish_counts(&shared.store);
    let published = shared.store.publish_counts();
    // Per-endpoint latency summaries from the registry histograms (note:
    // the registry is process-global, so in a multi-server process these
    // aggregate across servers — same as every `server.*` counter).
    let endpoints: Vec<String> = m
        .endpoints
        .iter()
        .map(|e| {
            format!(
                "\"{}\":{{\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
                e.name,
                e.latency.count(),
                e.latency.p50_ns(),
                e.latency.p95_ns(),
                e.latency.p99_ns(),
            )
        })
        .collect();
    let (rec_enabled, rec_capacity, rec_recorded) = match &shared.obs {
        Some(obs) => (true, obs.recorder.capacity(), obs.recorder.pushed()),
        None => (false, 0, 0),
    };
    let body = format!(
        concat!(
            "{{\"version\":{},\"epoch\":{},\"uptime_ms\":{},",
            "\"requests\":{},\"errors\":{},\"inflight\":{},\"watch_updates\":{},",
            "\"spans_dropped\":{},",
            "\"plan_cache\":{{\"hits\":{},\"misses\":{},\"classifications\":{},",
            "\"contended\":{},\"ranked_contended\":{}}},",
            "\"result_cache\":{{\"enabled\":{},\"hits\":{},\"misses\":{},\"entries\":{},",
            "\"contended\":{}}},",
            "\"publish\":{{\"count\":{},\"last_ns\":{},\"p50_ns\":{},\"p99_ns\":{},",
            "\"recycled\":{},\"cloned\":{}}},",
            "\"endpoints\":{{{}}},",
            "\"recorder\":{{\"enabled\":{},\"capacity\":{},\"recorded\":{},\"slow_ms\":{}}}}}"
        ),
        shared.store.version(),
        shared.store.epoch(),
        shared.started.elapsed().as_millis(),
        m.requests.get(),
        m.errors.get(),
        m.inflight.get(),
        m.watch_updates.get(),
        telemetry::dropped_spans(),
        plans.hits,
        plans.misses,
        plans.classifications,
        planner.cache_contention(),
        planner.ranked_cache_contention(),
        shared.engine.result_cache().is_some(),
        rc_hits,
        rc_misses,
        rc_len,
        rc_contended,
        m.publish_ns.count(),
        shared.store.last_publish_ns(),
        m.publish_ns.quantile_ns(0.50),
        m.publish_ns.quantile_ns(0.99),
        published.recycled,
        published.cloned,
        endpoints.join(","),
        rec_enabled,
        rec_capacity,
        rec_recorded,
        shared.slow_ms,
    );
    http::respond_json(wr, 200, &body)?;
    Ok(200)
}

/// `GET /metrics` — the whole registry in Prometheus text exposition.
fn handle_metrics(shared: &Arc<Shared>, wr: &mut TcpStream) -> io::Result<u16> {
    shared.metrics.feed_publish_counts(&shared.store);
    let body = telemetry::prometheus_text(telemetry::registry());
    http::respond_text(wr, 200, "text/plain; version=0.0.4", &body)?;
    Ok(200)
}

/// `GET /debug/requests` — the flight recorder: per-endpoint window
/// summaries plus the retained records, newest first, with span captures
/// inline for the slow ones.
fn handle_debug_requests(shared: &Arc<Shared>, wr: &mut TcpStream) -> io::Result<u16> {
    let Some(obs) = &shared.obs else {
        http::respond_json(wr, 200, "{\"enabled\":false,\"requests\":[]}")?;
        return Ok(200);
    };
    let records = obs.recorder.snapshot();
    // Windowed per-endpoint summaries over exactly the retained records
    // (unlike /stats, whose histograms span the process lifetime).
    let mut window: Vec<String> = Vec::new();
    for name in ENDPOINTS {
        let mut lat: Vec<u64> = records
            .iter()
            .filter(|r| r.endpoint == name)
            .map(|r| r.latency_ns)
            .collect();
        if lat.is_empty() {
            continue;
        }
        lat.sort_unstable();
        let slow = records
            .iter()
            .filter(|r| r.endpoint == name && r.slow)
            .count();
        window.push(format!(
            "\"{name}\":{{\"count\":{},\"slow\":{slow},\"p50_ns\":{},\"max_ns\":{}}}",
            lat.len(),
            lat[(lat.len() - 1) / 2],
            lat[lat.len() - 1],
        ));
    }
    let rows: Vec<String> = records.iter().rev().map(record_json).collect();
    let body = format!(
        concat!(
            "{{\"enabled\":true,\"capacity\":{},\"recorded\":{},\"slow_ms\":{},",
            "\"window\":{{{}}},\"requests\":[{}]}}"
        ),
        obs.recorder.capacity(),
        obs.recorder.pushed(),
        shared.slow_ms,
        window.join(","),
        rows.join(","),
    );
    http::respond_json(wr, 200, &body)?;
    Ok(200)
}

/// One flight-recorder record as JSON.
fn record_json(r: &RequestRecord) -> String {
    let mut out = format!(
        "{{\"ts_ms\":{},\"endpoint\":\"{}\",\"status\":{},\"latency_ns\":{},\"slow\":{}",
        r.ts_ms, r.endpoint, r.status, r.latency_ns, r.slow
    );
    push_info_json(&mut out, &r.info);
    if let Some(spans) = &r.info.spans {
        out.push_str(&format!(",\"spans\":{}", spans_json(spans)));
    }
    out.push('}');
    out
}

/// Append the optional per-request fields shared by access-log lines and
/// recorder records (everything a handler filled into [`ReqInfo`]).
fn push_info_json(out: &mut String, info: &ReqInfo) {
    if let Some(v) = info.version {
        out.push_str(&format!(",\"version\":{v}"));
    }
    if let Some(e) = info.epoch {
        out.push_str(&format!(",\"epoch\":{e}"));
    }
    if let Some(k) = &info.query_key {
        out.push_str(&format!(",\"query_key\":\"{}\"", escape(k)));
    }
    if let Some(b) = info.cache_hit {
        out.push_str(&format!(",\"cache_hit\":{b}"));
    }
    if let Some(b) = info.result_cache_hit {
        out.push_str(&format!(",\"result_cache_hit\":{b}"));
    }
}

/// One JSONL access-log line. Slow entries additionally carry the plan
/// summary: method, dichotomy classification, and operator counters.
fn access_line(
    ts_ms: u64,
    endpoint: &str,
    status: u16,
    latency_ns: u64,
    slow: bool,
    info: &ReqInfo,
) -> String {
    let mut out = format!(
        "{{\"ts_ms\":{ts_ms},\"endpoint\":\"{endpoint}\",\"status\":{status},\"latency_ns\":{latency_ns}"
    );
    push_info_json(&mut out, info);
    if slow {
        out.push_str(",\"slow\":true");
        let mut plan = Vec::new();
        if let Some(m) = &info.method {
            plan.push(format!("\"method\":\"{}\"", escape(m)));
        }
        if let Some(c) = &info.classification {
            plan.push(format!("\"classification\":\"{}\"", escape(c)));
        }
        if let Some(ops) = &info.ops {
            plan.push(format!("\"ops\":{}", ops_json(ops)));
        }
        if !plan.is_empty() {
            out.push_str(&format!(",\"plan\":{{{}}}", plan.join(",")));
        }
    }
    out.push('}');
    out
}

/// The per-operator counters of one extensional execution, as JSON.
fn ops_json(ops: &safeplan::OpCounters) -> String {
    format!(
        concat!(
            "{{\"scans\":{},\"index_scans\":{},\"rows_scanned\":{},\"rows_pruned\":{},",
            "\"joins\":{},\"join_rows\":{},\"groups\":{},\"shard_fanout\":{}}}"
        ),
        ops.scans,
        ops.index_scans,
        ops.rows_scanned,
        ops.rows_pruned,
        ops.joins,
        ops.join_rows,
        ops.groups,
        ops.shard_fanout,
    )
}

/// A span capture as a JSON array (inline `"trace"` responses and
/// recorder records share this shape).
fn spans_json(spans: &[SpanRec]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"parent\":{},\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                escape(&s.label),
                s.start_ns,
                s.end_ns,
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

fn handle_eval(
    shared: &Arc<Shared>,
    body: &str,
    wr: &mut TcpStream,
    info: &mut ReqInfo,
) -> io::Result<u16> {
    let doc = match parse_body(body) {
        Ok(d) => d,
        Err(e) => return bad_request(wr, &e),
    };
    let Some(qtext) = doc.get("query").and_then(|j| j.as_str()) else {
        return bad_request(wr, "missing 'query'");
    };
    let trace = doc.get("trace").is_some_and(|j| j == &Json::Bool(true));
    let snap = shared.store.snapshot();
    let (q, _) = match parse_known_query(&snap, qtext) {
        Ok(x) => x,
        Err(e) => return bad_request(wr, &e),
    };
    info.query_key = Some(q.cache_key());
    info.version = Some(snap.version());
    info.epoch = Some(shared.store.epoch());
    let strategy = match doc.get("samples").and_then(|j| j.as_u64()) {
        Some(samples) => Strategy::MonteCarlo { samples },
        None if doc.get("exact").is_some_and(|j| j == &Json::Bool(true)) => Strategy::ExactLineage,
        None => Strategy::Auto,
    };
    // Capture the serving thread's spans whenever the recorder might keep
    // them (slow is only known at the end) or the client asked for the
    // trace inline. Capture is purely observational — the evaluation is
    // byte-identical either way.
    let capture = trace || shared.obs.is_some();
    let (ev, spans) = if capture {
        match shared.engine.evaluate_captured(&snap, &q, strategy) {
            Ok((ev, spans)) => (ev, Some(Arc::new(spans))),
            Err(e) => return bad_request(wr, &e.to_string()),
        }
    } else {
        match shared.engine.evaluate(&snap, &q, strategy) {
            Ok(ev) => (ev, None),
            Err(e) => return bad_request(wr, &e.to_string()),
        }
    };
    info.cache_hit = Some(ev.cache_hit);
    info.result_cache_hit = Some(ev.result_cache_hit);
    info.method = Some(ev.method.to_string());
    info.classification = ev.classification.as_ref().map(|c| c.complexity.to_string());
    info.ops = ev.extensional;
    info.spans = spans.clone();
    let trace_field = match (trace, &spans) {
        (true, Some(spans)) => format!(",\"trace\":{}", spans_json(spans)),
        _ => String::new(),
    };
    let out = format!(
        concat!(
            "{{\"probability\":{},\"std_error\":{},\"method\":\"{}\",",
            "\"cache_hit\":{},\"result_cache_hit\":{},\"version\":{},\"epoch\":{}{}}}"
        ),
        format_f64(ev.probability),
        format_f64(ev.std_error),
        escape(&ev.method.to_string()),
        ev.cache_hit,
        ev.result_cache_hit,
        snap.version(),
        shared.store.epoch(),
        trace_field,
    );
    // Not across the write: a slow peer must not pin the epoch.
    drop(snap);
    http::respond_json(wr, 200, &out)?;
    Ok(200)
}

fn handle_rank(
    shared: &Arc<Shared>,
    body: &str,
    wr: &mut TcpStream,
    info: &mut ReqInfo,
) -> io::Result<u16> {
    let doc = match parse_body(body) {
        Ok(d) => d,
        Err(e) => return bad_request(wr, &e),
    };
    let Some(qtext) = doc.get("query").and_then(|j| j.as_str()) else {
        return bad_request(wr, "missing 'query'");
    };
    let trace = doc.get("trace").is_some_and(|j| j == &Json::Bool(true));
    let Some(head_text) = doc.get("head").and_then(|j| j.as_str()) else {
        return bad_request(wr, "missing 'head' (e.g. \"x0\" or \"x0 x1\")");
    };
    let top = doc.get("top").and_then(|j| j.as_u64()).map(|t| t as usize);
    let snap = shared.store.snapshot();
    let (q, _) = match parse_known_query(&snap, qtext) {
        Ok(x) => x,
        Err(e) => return bad_request(wr, &e),
    };
    // Head variables use the CLI's convention: `xN` names `Var(N)`.
    let mut head = Vec::new();
    for name in head_text.split([' ', ',']).filter(|s| !s.is_empty()) {
        let Ok(idx) = name.trim_start_matches('x').parse::<u32>() else {
            return bad_request(wr, &format!("bad head variable '{name}'"));
        };
        let v = Var(idx);
        if !q.vars().contains(&v) {
            return bad_request(wr, &format!("head variable '{name}' not in query"));
        }
        head.push(v);
    }
    if head.is_empty() {
        return bad_request(wr, "empty 'head'");
    }
    info.query_key = Some(q.cache_key());
    info.version = Some(snap.version());
    info.epoch = Some(shared.store.epoch());
    let capture = trace || shared.obs.is_some();
    let (mut answers, run, spans) = if capture {
        match ranked_answers_captured(&shared.engine, &snap, &q, &head, Strategy::Auto) {
            Ok((answers, run, spans)) => (answers, run, Some(Arc::new(spans))),
            Err(e) => return bad_request(wr, &e.to_string()),
        }
    } else {
        match ranked_answers_counted(&shared.engine, &snap, &q, &head, Strategy::Auto) {
            Ok((answers, run)) => (answers, run, None),
            Err(e) => return bad_request(wr, &e.to_string()),
        }
    };
    info.method = answers.first().map(|a| a.method.to_string());
    info.ops = run.extensional;
    info.spans = spans.clone();
    if let Some(k) = top {
        answers.truncate(k);
    }
    let rows: Vec<String> = answers
        .iter()
        .map(|a| {
            let tuple: Vec<String> = a
                .tuple
                .iter()
                .map(|v| format!("\"{}\"", escape(&snap.voc.value_name(*v))))
                .collect();
            format!(
                "{{\"tuple\":[{}],\"probability\":{},\"std_error\":{},\"method\":\"{}\"}}",
                tuple.join(","),
                format_f64(a.probability),
                format_f64(a.std_error),
                escape(&a.method.to_string()),
            )
        })
        .collect();
    let trace_field = match (trace, &spans) {
        (true, Some(spans)) => format!(",\"trace\":{}", spans_json(spans)),
        _ => String::new(),
    };
    let out = format!(
        "{{\"version\":{},\"answers\":[{}]{}}}",
        snap.version(),
        rows.join(","),
        trace_field,
    );
    drop(snap);
    http::respond_json(wr, 200, &out)?;
    Ok(200)
}

/// The shared `/apply` path: parse the delta script against a clone of
/// the writable buffer's vocabulary (so a rejected script leaves nothing
/// behind), apply every batch under the writer lock, and publish (which
/// wakes watchers).
fn apply_script(shared: &Arc<Shared>, script: &str) -> Result<ApplySummary, String> {
    let applied = shared.store.with_writer(|db| {
        let mut voc = db.voc.clone();
        let batches =
            pdb::text::parse_delta_batches(&mut voc, script).map_err(|e| e.to_string())?;
        db.voc = voc;
        let mut ops = 0;
        let mut version = db.version();
        for b in &batches {
            ops += b.ops.len();
            version = db.apply(b);
        }
        Ok::<_, String>((batches.len(), ops, version))
    });
    let (batches, ops, version) = applied?;
    let publish_ns = shared.store.last_publish_ns();
    shared.metrics.publish_ns.record_ns(publish_ns);
    shared.metrics.feed_publish_counts(&shared.store);
    Ok(ApplySummary {
        version,
        batches,
        ops,
        publish_ns,
    })
}

fn handle_apply(shared: &Arc<Shared>, body: &str, wr: &mut TcpStream) -> io::Result<u16> {
    let doc = match parse_body(body) {
        Ok(d) => d,
        Err(e) => return bad_request(wr, &e),
    };
    let Some(script) = doc.get("deltas").and_then(|j| j.as_str()) else {
        return bad_request(wr, "missing 'deltas' (a delta script)");
    };
    match apply_script(shared, script) {
        Ok(s) => {
            let out = format!(
                "{{\"version\":{},\"batches\":{},\"ops\":{},\"publish_ns\":{}}}",
                s.version, s.batches, s.ops, s.publish_ns
            );
            http::respond_json(wr, 200, &out)?;
            Ok(200)
        }
        // The TextError Display carries "line L (batch B, op O): ..." so
        // the client learns exactly which delta was rejected.
        Err(e) => bad_request(wr, &e),
    }
}

fn handle_watch(shared: &Arc<Shared>, body: &str, wr: &mut TcpStream) -> io::Result<u16> {
    let doc = match parse_body(body) {
        Ok(d) => d,
        Err(e) => return bad_request(wr, &e),
    };
    let Some(qtext) = doc.get("query").and_then(|j| j.as_str()) else {
        return bad_request(wr, "missing 'query'");
    };
    let updates = doc
        .get("updates")
        .and_then(|j| j.as_u64())
        .unwrap_or(1)
        .clamp(1, 1000) as usize;
    let timeout = doc
        .get("timeout_ms")
        .and_then(|j| j.as_u64())
        .map(Duration::from_millis)
        .unwrap_or(shared.opts.watch_timeout);

    let snap = shared.store.snapshot();
    let (q, _) = match parse_known_query(&snap, qtext) {
        Ok(x) => x,
        Err(e) => return bad_request(wr, &e),
    };
    let view = match shared.engine.subscribe(&snap, &q) {
        Ok(v) => v,
        Err(e) => return bad_request(wr, &e.to_string()),
    };
    // First reading before committing to a chunked response, so plan or
    // read failures still get a proper error status.
    let first = match view.read(&snap) {
        Ok(r) => r,
        Err(e) => return bad_request(wr, &e.to_string()),
    };
    // Let the subscribe-time epoch go: held for the life of the stream it
    // could neither be freed nor recycled as the writer's next buffer.
    drop(snap);

    let mut resp = ChunkedResponse::begin(wr.try_clone()?, 200)?;
    let mut last_version = first.version;
    resp.chunk(&reading_json(&first))?;
    shared.metrics.watch_updates.incr();
    let mut delivered = 1;
    let deadline = Instant::now() + timeout;
    while delivered < updates {
        // Wait for the next published epoch; the deadline or a shutdown
        // terminates the stream. `Server::shutdown` wakes this wait, and
        // the slices bound a shutdown that lands between the check and
        // the wait.
        let snap = loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if shared.shutdown.load(Ordering::SeqCst) || remaining.is_zero() {
                break None;
            }
            let snap = shared
                .store
                .wait_newer(last_version, remaining.min(Duration::from_millis(50)));
            if snap.version() > last_version {
                break Some(snap);
            }
        };
        let Some(snap) = snap else { break };
        let reading = match view.read(&snap) {
            Ok(r) => r,
            Err(_) => break,
        };
        drop(snap);
        resp.chunk(&reading_json(&reading))?;
        shared.metrics.watch_updates.incr();
        last_version = reading.version;
        delivered += 1;
    }
    resp.finish()?;
    Ok(200)
}

fn reading_json(r: &dichotomy::ViewReading) -> String {
    format!(
        "{{\"version\":{},\"probability\":{},\"refreshed\":{},\"method\":\"{}\"}}\n",
        r.version,
        format_f64(r.evaluation.probability),
        r.refreshed,
        escape(&r.evaluation.method.to_string()),
    )
}

fn bad_request(wr: &mut TcpStream, message: &str) -> io::Result<u16> {
    http::respond_error(wr, 400, message)?;
    Ok(400)
}
