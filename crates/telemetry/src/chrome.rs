//! Chrome trace-event JSON export (the `chrome://tracing` / Perfetto
//! format): every [`SpanRec`] becomes a `"ph":"X"` complete event with
//! microsecond timestamps, plus one `"M"` metadata event per lane naming
//! the thread row. The document's top-level `otherData` carries the
//! process's dropped-span count so a truncated trace (sink past
//! [`crate::span::SPAN_CAP`]) is never mistaken for a complete one.

use crate::json::escape;
use crate::span::SpanRec;

/// Render `spans` as a Chrome trace-event JSON document, stamping the
/// current process-wide dropped-span count ([`crate::dropped_spans`]) into
/// the metadata. Timestamps are microseconds since the process clock
/// epoch; `pid` is fixed at 1 and `tid` is the recording lane, so each
/// worker renders as its own row.
pub fn chrome_trace(spans: &[SpanRec]) -> String {
    chrome_trace_with_drops(spans, crate::dropped_spans())
}

/// [`chrome_trace`] with an explicit dropped-span count (callers that
/// snapshot the counter themselves, and tests that need a pure function).
fn chrome_trace_with_drops(spans: &[SpanRec], dropped: u64) -> String {
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();

    let mut out = format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"spansDropped\":{dropped}}},\"traceEvents\":["
    );
    let mut first = true;
    for tid in &tids {
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"worker-{tid}\"}}}}"
            ),
        );
    }
    for s in spans {
        let ts = s.start_ns as f64 / 1000.0;
        let dur = s.duration_ns() as f64 / 1000.0;
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\
             \"dur\":{dur:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                escape(&s.label),
                s.tid,
                s.id,
                s.parent
            ),
        );
    }
    out.push_str("]}");
    out
}

fn push_event(out: &mut String, first: &mut bool, event: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn rec(id: u64, parent: u64, tid: u64, label: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            tid,
            label: Cow::Borrowed(label),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn trace_parses_and_carries_lanes_and_links() {
        let spans = vec![
            rec(1, 0, 0, "evaluate", 1_000, 9_000),
            rec(2, 1, 0, "scan \"R\"", 2_000, 4_000),
            rec(3, 0, 1, "morsel", 2_500, 3_500),
        ];
        let doc = chrome_trace(&spans);
        let v = crate::json::parse(&doc).expect("chrome trace parses");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 lanes -> 2 metadata events + 3 span events.
        assert_eq!(events.len(), 5);
        let meta: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2);
        let scan = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("scan \"R\""))
            .unwrap();
        assert_eq!(scan.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(scan.get("ts").unwrap().as_f64(), Some(2.0));
        assert_eq!(scan.get("dur").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            scan.get("args").unwrap().get("parent").unwrap().as_u64(),
            Some(1)
        );
        let morsel = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("morsel"))
            .unwrap();
        assert_eq!(morsel.get("tid").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn empty_trace_is_valid() {
        let doc = chrome_trace(&[]);
        let v = crate::json::parse(&doc).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn metadata_carries_dropped_span_count() {
        let doc = chrome_trace_with_drops(&[rec(1, 0, 0, "x", 0, 10)], 42);
        let v = crate::json::parse(&doc).unwrap();
        assert_eq!(
            v.get("otherData")
                .and_then(|o| o.get("spansDropped"))
                .and_then(|d| d.as_u64()),
            Some(42),
            "truncation must be visible in the trace: {doc}"
        );
        // The metadata is not a trace event — event counts are unchanged.
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
    }
}
