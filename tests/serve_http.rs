//! End-to-end coverage of the query service: endpoint behavior over real
//! sockets, epoch visibility of `apply`, result-cache hits bit-identical
//! to cold evaluation, watch streams following published epochs, and the
//! rejection paths (unknown symbols, malformed deltas with batch/op
//! positions, bad routes).

use std::time::Duration;

use probdb::prelude::*;
use telemetry::json::{parse, Json};

fn sensor_db() -> (ProbDb, Vocabulary) {
    let mut voc = Vocabulary::new();
    // Intern the query shape once so relations/constants exist server-side.
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

fn start_server() -> Server {
    let (db, _) = sensor_db();
    let opts = ServeOptions {
        workers: 2,
        watch_timeout: Duration::from_secs(2),
        ..ServeOptions::default()
    };
    Server::start(db, opts).expect("server starts")
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(|j| j.as_f64()).unwrap()
}

#[test]
fn health_eval_and_stats_round_trip() {
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let health = client.get("/health").unwrap();
    assert_eq!(health.status, 200);
    let doc = parse(&health.body).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(num(&doc, "version") as u64, server.version());

    // Cold evaluation, then a repeat: the repeat must be a result-cache
    // hit with bit-identical probability.
    let body = "{\"query\":\"R(x), S(x, y)\"}";
    let first = client.post("/eval", body).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    let first_doc = parse(&first.body).unwrap();
    assert_eq!(first_doc.get("result_cache_hit"), Some(&Json::Bool(false)));

    let second = client.post("/eval", body).unwrap();
    let second_doc = parse(&second.body).unwrap();
    assert_eq!(second_doc.get("result_cache_hit"), Some(&Json::Bool(true)));
    assert_eq!(
        num(&first_doc, "probability").to_bits(),
        num(&second_doc, "probability").to_bits(),
        "result-cache hit must be bit-identical to the cold evaluation"
    );

    // The served probability matches a direct engine evaluation.
    let (db, mut voc) = sensor_db();
    let q = parse_query(&mut voc, "R(x), S(x, y)").unwrap();
    let direct = Engine::new().evaluate(&db, &q, Strategy::Auto).unwrap();
    assert_eq!(
        num(&first_doc, "probability").to_bits(),
        direct.probability.to_bits(),
        "served answer must be bit-identical to a direct evaluation"
    );

    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    let sdoc = parse(&stats.body).unwrap();
    let rc = sdoc.get("result_cache").unwrap();
    assert_eq!(rc.get("enabled"), Some(&Json::Bool(true)));
    assert!(rc.get("hits").and_then(|j| j.as_u64()).unwrap() >= 1);
}

#[test]
fn apply_publishes_a_new_epoch_visible_to_eval() {
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let v0 = server.version();

    let before = client
        .post("/eval", "{\"query\":\"R(x), S(x, y)\"}")
        .unwrap();
    let before_doc = parse(&before.body).unwrap();
    assert_eq!(num(&before_doc, "version") as u64, v0);

    let apply = client
        .post(
            "/apply",
            "{\"deltas\":\"+ R(500) @ 0.9\\n+ S(500, 501) @ 0.9\"}",
        )
        .unwrap();
    assert_eq!(apply.status, 200, "{}", apply.body);
    let apply_doc = parse(&apply.body).unwrap();
    let v1 = num(&apply_doc, "version") as u64;
    assert!(v1 > v0);
    assert_eq!(server.version(), v1);

    let after = client
        .post("/eval", "{\"query\":\"R(x), S(x, y)\"}")
        .unwrap();
    let after_doc = parse(&after.body).unwrap();
    assert_eq!(num(&after_doc, "version") as u64, v1);
    // New epoch → new result-cache key → cold evaluation with a changed
    // probability (the inserted pair raises it).
    assert_eq!(after_doc.get("result_cache_hit"), Some(&Json::Bool(false)));
    assert!(num(&after_doc, "probability") > num(&before_doc, "probability"));
}

#[test]
fn apply_rejections_name_the_failing_delta() {
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let v0 = server.version();

    let resp = client
        .post(
            "/apply",
            "{\"deltas\":\"+ R(1) @ 0.5\\n\\n+ R(2) @ 0.6\\n+ R(3) @ 7\"}",
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(
        resp.body.contains("(batch 2, op 2)"),
        "rejection must name the failing delta: {}",
        resp.body
    );
    // A rejected script must leave the database untouched (no partial
    // batch, no epoch).
    assert_eq!(server.version(), v0);
}

#[test]
fn unknown_symbols_and_bad_routes_are_rejected() {
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let resp = client.post("/eval", "{\"query\":\"Nope(x)\"}").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("unknown relation"), "{}", resp.body);

    let resp = client
        .post("/eval", "{\"query\":\"R(x), S(x, 'mystery')\"}")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("unknown constant"), "{}", resp.body);

    let resp = client.post("/eval", "{}").unwrap();
    assert_eq!(resp.status, 400);

    let resp = client.get("/nope").unwrap();
    assert_eq!(resp.status, 404);

    let resp = client.get("/eval").unwrap();
    assert_eq!(resp.status, 405);

    // The connection survives all those errors (keep-alive).
    let health = client.get("/health").unwrap();
    assert_eq!(health.status, 200);
}

#[test]
fn rank_returns_answers_ordered_by_probability() {
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let resp = client
        .post(
            "/rank",
            "{\"query\":\"R(x0), S(x0, x1)\",\"head\":\"x0\",\"top\":5}",
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = parse(&resp.body).unwrap();
    let answers = doc.get("answers").and_then(|j| j.as_arr()).unwrap();
    assert_eq!(answers.len(), 5);
    let probs: Vec<f64> = answers
        .iter()
        .map(|a| a.get("probability").and_then(|j| j.as_f64()).unwrap())
        .collect();
    for w in probs.windows(2) {
        assert!(w[0] >= w[1], "answers must be ranked: {probs:?}");
    }

    let resp = client
        .post("/rank", "{\"query\":\"R(x0)\",\"head\":\"x9\"}")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("not in query"), "{}", resp.body);
}

#[test]
fn watch_streams_follow_published_epochs() {
    let server = start_server();
    let addr = server.addr();

    let watcher = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        client
            .post("/watch", "{\"query\":\"R(x), S(x, y)\",\"updates\":3}")
            .unwrap()
    });

    // Give the watcher time to subscribe, then publish two epochs.
    std::thread::sleep(Duration::from_millis(200));
    server.apply("+ R(600) @ 0.8\n+ S(600, 601) @ 0.8").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    server.apply("~ R(600) @ 0.2").unwrap();

    let resp = watcher.join().unwrap();
    assert_eq!(resp.status, 200);
    let readings: Vec<Json> = resp
        .body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse(l).unwrap())
        .collect();
    assert_eq!(resp.body.lines().count(), readings.len());
    assert!(
        readings.len() >= 2,
        "watch must deliver the initial reading plus published epochs: {}",
        resp.body
    );
    let versions: Vec<u64> = readings
        .iter()
        .map(|r| r.get("version").and_then(|j| j.as_u64()).unwrap())
        .collect();
    for w in versions.windows(2) {
        assert!(w[0] < w[1], "watch versions must be monotone: {versions:?}");
    }
}

#[test]
fn publishes_are_counted_by_kind_in_stats_and_metrics() {
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    // Sequential writes, no snapshot held anywhere: the first has nothing
    // to recycle and clones; after that the two buffers leapfrog.
    for i in 0..4 {
        server.apply(&format!("~ R(3) @ 0.{}", i + 1)).unwrap();
    }
    let counts = server.store().publish_counts();
    assert_eq!((counts.cloned, counts.recycled), (1, 3));

    let stats = parse(&client.get("/stats").unwrap().body).unwrap();
    let publish = stats.get("publish").expect("publish object");
    assert_eq!(num(publish, "cloned") as u64, 1);
    assert_eq!(num(publish, "recycled") as u64, 3);

    // The registry is process-global (other tests' servers feed it too),
    // so the scrape can only be bounded from below.
    let scrape = client.get("/metrics").unwrap();
    let families = telemetry::expose::parse_exposition(&scrape.body).expect("valid exposition");
    for (name, at_least) in [
        ("server_publish_cloned_total", 1.0),
        ("server_publish_recycled_total", 3.0),
    ] {
        let family = families
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("{name} family"));
        assert!(family.value(name).unwrap() >= at_least, "{name}");
    }
}

/// A `/watch` stream spoken to by hand: `HttpClient` only returns once
/// the stream has ended, and these tests are about what holds while it is
/// open.
struct WatchStream {
    rd: std::io::BufReader<std::net::TcpStream>,
}

impl WatchStream {
    fn open(server: &Server, body: &str) -> WatchStream {
        use std::io::{BufRead, Write};
        let mut wr = std::net::TcpStream::connect(server.addr()).unwrap();
        write!(
            wr,
            "POST /watch HTTP/1.1\r\nHost: probdb\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut rd = std::io::BufReader::new(wr);
        let mut line = String::new();
        while rd.read_line(&mut line).unwrap() > 2 {
            line.clear(); // response head, up to the blank line
        }
        WatchStream { rd }
    }

    /// The next reading's version; `None` once the stream has ended.
    fn next_version(&mut self) -> Option<u64> {
        use std::io::{BufRead, Read};
        let mut line = String::new();
        self.rd.read_line(&mut line).unwrap();
        let size = usize::from_str_radix(line.trim(), 16).unwrap();
        let mut chunk = vec![0u8; size + 2]; // data + CRLF
        self.rd.read_exact(&mut chunk).unwrap();
        if size == 0 {
            return None;
        }
        let doc = parse(std::str::from_utf8(&chunk[..size]).unwrap()).unwrap();
        Some(num(&doc, "version") as u64)
    }
}

#[test]
fn an_open_watch_stream_does_not_pin_its_subscribe_time_epoch() {
    let server = start_server();
    let mut watch = WatchStream::open(&server, "{\"query\":\"R(x), S(x, y)\",\"updates\":3}");

    // The first reading has arrived, so the subscription is set up; the
    // epoch it was taken from is still the published one.
    let v0 = watch.next_version().unwrap();
    assert_eq!(v0, server.version());

    // One publish (a clone: nothing to recycle yet) retires that epoch.
    // With the stream still open nothing may be holding it: it is the
    // next write's buffer, so that write replays instead of cloning.
    let v1 = server.apply("~ R(3) @ 0.9").unwrap().version;
    assert_eq!(watch.next_version(), Some(v1));
    let v2 = server.apply("~ R(3) @ 0.8").unwrap().version;
    let counts = server.store().publish_counts();
    assert_eq!(
        (counts.cloned, counts.recycled),
        (1, 1),
        "the open /watch stream still holds its subscribe-time epoch"
    );
    assert_eq!(watch.next_version(), Some(v2));
}

#[test]
fn a_publish_through_the_store_wakes_an_open_watch() {
    let server = start_server();
    let mut watch = WatchStream::open(&server, "{\"query\":\"R(x), S(x, y)\",\"updates\":2}");
    let v0 = watch.next_version().unwrap();

    // Not through `/apply` or `Server::apply`: straight into the store.
    let r = server.store().snapshot().voc.find_relation("R").unwrap();
    let mut batch = DeltaBatch::new();
    batch.update(r, vec![Value(3)], 0.9);
    let v1 = server.store().apply(&batch);
    assert!(v1 > v0);
    assert_eq!(
        watch.next_version(),
        Some(v1),
        "the stream ended without the epoch the store published"
    );
}

#[test]
fn stats_answer_while_a_write_is_in_progress() {
    use std::sync::mpsc;

    let server = start_server();
    let (entered_tx, entered_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let finished = std::thread::scope(|scope| {
        let store = server.store();
        let writer = scope.spawn(move || {
            store.with_writer(|_db| {
                entered_tx.send(()).unwrap();
                // Hold the write open until `/stats` has answered; the
                // bound makes a `/stats` that waits for it fail, not hang.
                done_rx.recv_timeout(Duration::from_secs(10))
            })
        });
        entered_rx.recv().unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let stats = client.get("/stats").unwrap();
        let _ = done_tx.send(stats);
        writer.join().unwrap()
    });
    let stats = finished.expect("/stats waited for the write in progress");
    assert_eq!(stats.status, 200, "{}", stats.body);
    let doc = parse(&stats.body).unwrap();
    assert_eq!(num(&doc, "version") as u64, server.version());
}

#[test]
fn a_peer_that_stops_reading_its_response_does_not_pin_the_epoch() {
    use std::io::{Read, Write};

    // One relation of constants with 4 KiB names: ranking it is cheap and
    // the response (~12 MB) is more than the socket buffers take, so the
    // handler blocks in its write until the peer reads on.
    let mut voc = Vocabulary::new();
    let big = voc.relation("Big", 1).unwrap();
    let mut batch = DeltaBatch::new();
    for i in 0..3000 {
        let name = format!("c{i:04}{}", "x".repeat(4096));
        batch.insert(big, vec![voc.named_const(&name)], 0.5);
    }
    let mut db = ProbDb::new(voc);
    db.apply(&batch);
    let opts = ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    };
    let server = Server::start(db, opts).expect("server starts");

    let mut peer = std::net::TcpStream::connect(server.addr()).unwrap();
    let body = "{\"query\":\"Big(x)\",\"head\":\"x0\"}";
    write!(
        peer,
        "POST /rank HTTP/1.1\r\nHost: probdb\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    // The start of the response: the evaluation is over and the handler
    // is writing. Then the peer stops reading.
    let mut start = vec![0u8; 1 << 16];
    peer.read_exact(&mut start).unwrap();
    assert!(start.starts_with(b"HTTP/1.1 200"));

    // The epoch that request read retires at the first publish. Nobody
    // holds it, so the second write recycles it.
    let name = format!("c0000{}", "x".repeat(4096));
    server.apply(&format!("~ Big('{name}') @ 0.9")).unwrap();
    server.apply(&format!("~ Big('{name}') @ 0.8")).unwrap();
    let counts = server.store().publish_counts();
    assert_eq!(
        (counts.cloned, counts.recycled),
        (1, 1),
        "the stalled response still holds its epoch"
    );
}

#[test]
fn point_reads_after_applies_match_a_fresh_mirror_at_every_version() {
    // Each publish updates, deletes or inserts tuples the point query
    // `R(3), S(3, y)` reads — including a delete-then-reinsert that mints
    // a fresh id — so a recycled buffer whose probability column fell
    // behind the published epoch would answer with stale bits.
    let scripts = [
        "~ S(3, 103) @ 0.35\n~ R(3) @ 0.55",
        "- S(3, 103)\n+ S(3, 104) @ 0.6",
        "+ S(3, 103) @ 0.25\n~ S(3, 104) @ 0.9",
        "- R(3)\n+ S(3, 105) @ 0.45",
        "+ R(3) @ 0.65\n~ S(3, 105) @ 0.15",
    ];
    let server = start_server();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let opts = ServeOptions::default();
    let engine = Engine::with_options(opts.mc_samples, opts.seed, opts.exec);
    let qtext = "R(3), S(3, y)";
    for (step, script) in scripts.iter().enumerate() {
        let body = format!("{{\"deltas\":\"{}\"}}", script.replace('\n', "\\n"));
        let apply = client.post("/apply", &body).unwrap();
        assert_eq!(apply.status, 200, "{}", apply.body);

        // The mirror: the fixture loaded afresh, every script so far
        // applied directly.
        let (mut mirror, _) = sensor_db();
        for s in &scripts[..=step] {
            for batch in pdb::parse_delta_batches(&mut mirror.voc, s).unwrap() {
                mirror.apply(&batch);
            }
        }
        let q = parse_query(&mut mirror.voc, qtext).unwrap();

        let eval = client
            .post("/eval", &format!("{{\"query\":\"{qtext}\"}}"))
            .unwrap();
        assert_eq!(eval.status, 200, "{}", eval.body);
        let doc = parse(&eval.body).unwrap();
        assert_eq!(num(&doc, "version") as u64, mirror.version(), "step {step}");
        let direct = engine.evaluate(&mirror, &q, Strategy::Auto).unwrap();
        assert_eq!(
            num(&doc, "probability").to_bits(),
            direct.probability.to_bits(),
            "step {step}: served /eval vs direct"
        );

        let rank = client
            .post(
                "/rank",
                &format!("{{\"query\":\"{qtext}\",\"head\":\"x0\"}}"),
            )
            .unwrap();
        assert_eq!(rank.status, 200, "{}", rank.body);
        let doc = parse(&rank.body).unwrap();
        assert_eq!(num(&doc, "version") as u64, mirror.version(), "step {step}");
        let served: Vec<(String, u64)> = doc
            .get("answers")
            .and_then(|j| j.as_arr())
            .unwrap()
            .iter()
            .map(|a| {
                let tuple = a.get("tuple").and_then(|j| j.as_arr()).unwrap();
                let name = tuple[0].as_str().unwrap().to_string();
                (name, num(a, "probability").to_bits())
            })
            .collect();
        let want: Vec<(String, u64)> =
            ranked_answers(&engine, &mirror, &q, &[Var(0)], Strategy::Auto)
                .unwrap()
                .iter()
                .map(|a| (mirror.voc.value_name(a.tuple[0]), a.probability.to_bits()))
                .collect();
        assert_eq!(served, want, "step {step}: served /rank vs direct");
    }
    let stats = parse(&client.get("/stats").unwrap().body).unwrap();
    let publish = stats.get("publish").expect("publish object");
    assert!(
        num(publish, "recycled") >= 1.0,
        "some publish must have recycled a retired buffer: {stats:?}"
    );
}
