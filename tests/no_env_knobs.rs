//! The library reads no environment variable. The five `ENGINE_*` names
//! that once overrode the executor shape, span tracing, the result cache
//! and the slow-query threshold are set here to values that would change
//! each of them, and every default stays what the code says.
//!
//! One test in its own binary: it sets process-wide variables.

use probdb::prelude::*;
use serve::service::DEFAULT_SLOW_MS;

#[test]
fn engine_variables_change_nothing() {
    for (name, value) in [
        ("ENGINE_THREADS", "4"),
        ("ENGINE_SHARDS", "3"),
        ("ENGINE_TRACE", "1"),
        ("ENGINE_RESULT_CACHE", "1"),
        ("ENGINE_SLOW_MS", "0"),
    ] {
        std::env::set_var(name, value);
    }

    assert_eq!(ExecOptions::default(), ExecOptions::serial());
    assert_eq!(ServeOptions::default().exec, ExecOptions::serial());
    let engine = Engine::new();
    assert_eq!(engine.exec, ExecOptions::serial());
    assert!(engine.result_cache().is_none());

    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x, y)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let mut db = ProbDb::new(voc);
    db.insert(r, vec![Value(1)], 0.5);
    db.insert(s, vec![Value(1), Value(2)], 0.5);
    let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
    assert!(ev.parallel.is_none() && ev.scheduler.is_none(), "{ev:?}");
    assert!(!telemetry::enabled());
    assert!(telemetry::take_spans().is_empty());

    let server = Server::start(db, ServeOptions::default()).unwrap();
    assert_eq!(server.slow_ms(), DEFAULT_SLOW_MS);
}
