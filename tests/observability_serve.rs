//! End-to-end coverage of the serving observability surfaces: `/metrics`
//! as valid Prometheus text, the JSONL access log (every line parses;
//! slow entries carry the plan summary and operator counters), the
//! flight recorder behind `/debug/requests` (span retention for slow
//! requests), inline `"trace": true` captures, and the invariant that
//! all of it is purely observational — answers are bit-identical with
//! observability off.

use std::time::Duration;

use probdb::prelude::*;
use telemetry::expose::parse_exposition;
use telemetry::json::{parse, Json};

fn sensor_db() -> (ProbDb, Vocabulary) {
    let mut voc = Vocabulary::new();
    parse_query(&mut voc, "R(x), S(x, y)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let mut db = ProbDb::new(voc.clone());
    let mut batch = DeltaBatch::new();
    for i in 0..20u64 {
        batch.insert(r, vec![Value(i)], 0.4 + (i as f64) * 0.01);
        batch.insert(s, vec![Value(i), Value(i + 100)], 0.7);
    }
    db.apply(&batch);
    (db, voc)
}

fn start_server(opts: ServeOptions) -> Server {
    let (db, _) = sensor_db();
    Server::start(db, opts).expect("server starts")
}

fn default_opts() -> ServeOptions {
    ServeOptions {
        workers: 2,
        watch_timeout: Duration::from_secs(2),
        ..ServeOptions::default()
    }
}

const EVAL_BODY: &str = "{\"query\":\"R(x), S(x, y)\"}";

#[test]
fn metrics_endpoint_serves_valid_prometheus_text() {
    let server = start_server(default_opts());
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // Generate traffic across endpoints so the scrape has real samples.
    assert_eq!(client.post("/eval", EVAL_BODY).unwrap().status, 200);
    assert_eq!(client.post("/eval", EVAL_BODY).unwrap().status, 200);
    assert_eq!(client.get("/health").unwrap().status, 200);

    let scrape = client.get("/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    // The parser enforces the text-format invariants: samples belong to
    // declared families, histogram buckets are cumulative with strictly
    // increasing `le`, `+Inf` is last and equals `_count`, `_sum` exists.
    let families = parse_exposition(&scrape.body).expect("valid Prometheus exposition");
    assert!(!families.is_empty());

    let requests = families
        .iter()
        .find(|f| f.name == "server_requests_total")
        .expect("server_requests_total family");
    assert_eq!(requests.kind, "counter");
    assert!(requests.value("server_requests_total").unwrap() >= 3.0);

    let eval_latency = families
        .iter()
        .find(|f| f.name == "server_latency_ns_eval")
        .expect("per-endpoint latency histogram");
    assert_eq!(eval_latency.kind, "histogram");

    // A second scrape after more traffic must still be well-formed.
    assert_eq!(client.post("/eval", EVAL_BODY).unwrap().status, 200);
    let scrape = client.get("/metrics").unwrap();
    parse_exposition(&scrape.body).expect("second scrape still valid");
}

#[test]
fn slow_requests_capture_plan_counters_and_spans() {
    let log_path = std::env::temp_dir().join(format!(
        "probdb_access_{}_{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&log_path);
    // slow_ms = 0: every request crosses the slow threshold, so every
    // access-log entry carries the plan and the recorder retains spans.
    let server = start_server(ServeOptions {
        slow_ms: Some(0),
        access_log_path: Some(log_path.to_string_lossy().into_owned()),
        ..default_opts()
    });
    let mut client = HttpClient::connect(server.addr()).unwrap();

    assert_eq!(client.post("/eval", EVAL_BODY).unwrap().status, 200);
    assert_eq!(client.post("/eval", EVAL_BODY).unwrap().status, 200);
    let rank = client
        .post(
            "/rank",
            "{\"query\":\"R(x0), S(x0, x1)\",\"head\":\"x0\",\"top\":3}",
        )
        .unwrap();
    assert_eq!(rank.status, 200, "{}", rank.body);

    // Every access-log line is parseable JSON; slow eval entries carry
    // the plan summary (method + classification) and operator counters.
    // Records land just after the response bytes, so poll briefly.
    let mut tail = server.access_log_tail();
    for _ in 0..50 {
        if tail.len() >= 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        tail = server.access_log_tail();
    }
    assert!(tail.len() >= 3, "expected access-log entries: {tail:?}");
    let docs: Vec<Json> = tail
        .iter()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("unparseable access line {l:?}: {e}")))
        .collect();
    let slow_eval = docs
        .iter()
        .find(|d| {
            d.get("endpoint") == Some(&Json::Str("eval".into()))
                && d.get("slow") == Some(&Json::Bool(true))
        })
        .expect("a slow eval entry");
    let plan = slow_eval.get("plan").expect("slow entries carry the plan");
    assert!(plan.get("method").is_some(), "{slow_eval:?}");
    assert!(plan.get("classification").is_some(), "{slow_eval:?}");
    let ops = plan
        .get("ops")
        .expect("slow entries carry operator counters");
    assert!(ops.get("scans").and_then(|j| j.as_u64()).is_some());

    // The file sink holds the same lines.
    let file = std::fs::read_to_string(&log_path).expect("access log file");
    let file_lines: Vec<&str> = file.lines().collect();
    assert_eq!(file_lines.len(), tail.len());
    for line in &file_lines {
        parse(line).unwrap_or_else(|e| panic!("unparseable file line {line:?}: {e}"));
    }
    let _ = std::fs::remove_file(&log_path);

    // The flight recorder retains the span capture for slow requests.
    let dump = client.get("/debug/requests").unwrap();
    assert_eq!(dump.status, 200);
    let doc = parse(&dump.body).unwrap();
    assert_eq!(doc.get("enabled"), Some(&Json::Bool(true)));
    let requests = doc.get("requests").and_then(|j| j.as_arr()).unwrap();
    let eval_rec = requests
        .iter()
        .find(|r| r.get("endpoint") == Some(&Json::Str("eval".into())))
        .expect("an eval record in the recorder");
    assert!(eval_rec.get("query_key").is_some(), "{eval_rec:?}");
    let spans = eval_rec
        .get("spans")
        .and_then(|j| j.as_arr())
        .expect("slow records retain spans");
    assert!(
        spans
            .iter()
            .any(|s| s.get("label") == Some(&Json::Str("evaluate".into()))),
        "span capture must include the evaluate span: {spans:?}"
    );
}

#[test]
fn trace_flag_returns_inline_spans() {
    // Pin a threshold nothing here can cross, so no request is slow.
    let server = start_server(ServeOptions {
        slow_ms: Some(3_600_000),
        ..default_opts()
    });
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let traced = client
        .post("/eval", "{\"query\":\"R(x), S(x, y)\",\"trace\":true}")
        .unwrap();
    assert_eq!(traced.status, 200, "{}", traced.body);
    let doc = parse(&traced.body).unwrap();
    let spans = doc
        .get("trace")
        .and_then(|j| j.as_arr())
        .expect("trace:true returns inline spans");
    assert!(!spans.is_empty());
    assert!(
        spans
            .iter()
            .any(|s| s.get("label") == Some(&Json::Str("evaluate".into()))),
        "{spans:?}"
    );
    for s in spans {
        let start = s.get("start_ns").and_then(|j| j.as_u64()).unwrap();
        let end = s.get("end_ns").and_then(|j| j.as_u64()).unwrap();
        assert!(end >= start, "span interval must be well-formed: {s:?}");
    }

    // Without the flag the key is absent entirely.
    let plain = client.post("/eval", EVAL_BODY).unwrap();
    assert_eq!(plain.status, 200);
    assert!(parse(&plain.body).unwrap().get("trace").is_none());

    // rank honors the flag too.
    let ranked = client
        .post(
            "/rank",
            "{\"query\":\"R(x0), S(x0, x1)\",\"head\":\"x0\",\"top\":2,\"trace\":true}",
        )
        .unwrap();
    assert_eq!(ranked.status, 200, "{}", ranked.body);
    let rdoc = parse(&ranked.body).unwrap();
    assert!(
        !rdoc
            .get("trace")
            .and_then(|j| j.as_arr())
            .unwrap()
            .is_empty(),
        "{}",
        ranked.body
    );

    // Below the threshold nothing is slow, so the recorder keeps the
    // records but sheds their span captures.
    let dump = client.get("/debug/requests").unwrap();
    let ddoc = parse(&dump.body).unwrap();
    let requests = ddoc.get("requests").and_then(|j| j.as_arr()).unwrap();
    assert!(!requests.is_empty());
    for r in requests {
        assert!(
            r.get("spans").is_none(),
            "fast request retained spans: {r:?}"
        );
    }
}

#[test]
fn observability_is_purely_observational() {
    let on = start_server(default_opts());
    let off = start_server(ServeOptions {
        observability: false,
        ..default_opts()
    });
    let mut on_client = HttpClient::connect(on.addr()).unwrap();
    let mut off_client = HttpClient::connect(off.addr()).unwrap();

    for body in [
        EVAL_BODY,
        "{\"query\":\"R(x), S(x, y)\",\"trace\":true}",
        EVAL_BODY, // warm repeat: result-cache hit on both sides
    ] {
        let a = on_client.post("/eval", body).unwrap();
        let b = off_client.post("/eval", body).unwrap();
        assert_eq!(a.status, 200, "{}", a.body);
        assert_eq!(b.status, 200, "{}", b.body);
        let pa = parse(&a.body)
            .unwrap()
            .get("probability")
            .unwrap()
            .as_f64()
            .unwrap();
        let pb = parse(&b.body)
            .unwrap()
            .get("probability")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(
            pa.to_bits(),
            pb.to_bits(),
            "answers must be bit-identical with observability off"
        );
    }

    // With observability off the recorder reports itself disabled and the
    // access-log tail stays empty; /metrics still serves (the registry is
    // process-global).
    let dump = off_client.get("/debug/requests").unwrap();
    assert_eq!(dump.status, 200);
    let ddoc = parse(&dump.body).unwrap();
    assert_eq!(ddoc.get("enabled"), Some(&Json::Bool(false)));
    assert!(off.access_log_tail().is_empty());
    let scrape = off_client.get("/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    parse_exposition(&scrape.body).expect("valid exposition with obs off");

    // /stats reflects the recorder state on both sides.
    let stats = parse(&on_client.get("/stats").unwrap().body).unwrap();
    let rec = stats.get("recorder").expect("recorder stats");
    assert_eq!(rec.get("enabled"), Some(&Json::Bool(true)));
    assert!(rec.get("recorded").and_then(|j| j.as_u64()).unwrap() >= 1);
    let stats = parse(&off_client.get("/stats").unwrap().body).unwrap();
    let rec = stats.get("recorder").expect("recorder stats");
    assert_eq!(rec.get("enabled"), Some(&Json::Bool(false)));

    // Per-endpoint latency summaries appear in /stats.
    let stats = parse(&on_client.get("/stats").unwrap().body).unwrap();
    let eps = stats.get("endpoints").expect("per-endpoint summaries");
    let eval = eps.get("eval").expect("eval endpoint summary");
    assert!(eval.get("count").and_then(|j| j.as_u64()).unwrap() >= 1);
    assert!(eval.get("p95_ns").and_then(|j| j.as_u64()).is_some());
}
