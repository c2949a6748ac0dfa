//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory and written out at the end as Chrome trace-event JSON;
//! plus the reduction to per-layer medians and the attribution table.
//!
//! Two kinds of span share the format. Client spans (`cycle` → one span
//! per socket op) come from a traced window. Replay spans come from
//! running a request's stages one public call at a time, in the order the
//! handler visits them: an op span (`replay:<class>`) whose children are
//! named after the per-layer metrics they feed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::median;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[derive(Clone, Debug)]
pub struct Span {
    /// A client op's class, `cycle`, a layer span's metric name — or, with
    /// `replayed_op` set, the class of a replayed request.
    pub name: &'static str,
    /// The span covering one replayed request (`replay:<class>`).
    pub replayed_op: bool,
    pub id: u64,
    /// 0 = top level.
    pub parent: u64,
    /// Identifier shared by the spans of one request.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Client spans kept per lane: enough for a readable trace, bounded so a
/// 40k op/s window does not write a 50 MB file.
const CLIENT_SPAN_CAP: usize = 20_000;

/// One lane (client thread, or the replay lane) of spans.
pub struct Recorder {
    pub lane: u32,
    pub spans: Vec<Span>,
    next_id: u64,
    next_op: u64,
    /// Ops recorded since the last `client_cycle`, to be parented to it.
    open_ops: Vec<usize>,
}

impl Recorder {
    pub fn new(lane: u32) -> Recorder {
        epoch();
        Recorder {
            lane,
            spans: Vec::new(),
            // Ids are unique across lanes: the lane is the high half.
            next_id: ((lane as u64) << 40) + 1,
            next_op: ((lane as u64) << 40) + 1,
            open_ops: Vec::new(),
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let base = epoch();
        self.spans.push(Span {
            name,
            replayed_op: false,
            id,
            parent,
            op,
            start_ns: (start - base).as_nanos() as u64,
            end_ns: (end - base).as_nanos() as u64,
        });
        id
    }

    pub fn client_op(&mut self, class: &'static str, start: Instant, end: Instant) {
        if self.spans.len() >= CLIENT_SPAN_CAP {
            return;
        }
        let op = self.next_op;
        self.next_op += 1;
        self.push(class, 0, op, start, end);
        self.open_ops.push(self.spans.len() - 1);
    }

    pub fn client_cycle(&mut self, start: Instant, end: Instant) {
        if self.open_ops.is_empty() {
            return;
        }
        let id = self.push("cycle", 0, 0, start, end);
        for at in self.open_ops.drain(..) {
            self.spans[at].parent = id;
        }
    }

    /// Replay one request: `stages` runs the layer calls through the
    /// [`Replay`] handle; the op span covers them all.
    pub fn replay<T>(
        &mut self,
        class: &'static str,
        stages: impl FnOnce(&mut Replay<'_>) -> T,
    ) -> T {
        let op = self.next_op;
        self.next_op += 1;
        let parent = self.next_id;
        self.next_id += 1;
        let at = self.spans.len();
        self.spans.push(Span {
            name: class,
            replayed_op: true,
            id: parent,
            parent: 0,
            op,
            start_ns: 0,
            end_ns: 0,
        });
        let start = Instant::now();
        let out = stages(&mut Replay {
            rec: self,
            op,
            parent,
        });
        let end = Instant::now();
        let base = epoch();
        self.spans[at].start_ns = (start - base).as_nanos() as u64;
        self.spans[at].end_ns = (end - base).as_nanos() as u64;
        out
    }
}

/// Handle for recording the stages of one replayed request.
pub struct Replay<'a> {
    rec: &'a mut Recorder,
    op: u64,
    parent: u64,
}

impl Replay<'_> {
    /// Time one call into a layer; the span is named after the per-layer
    /// metric it feeds. Returns the call's result and the span id.
    pub fn stage<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> (T, u64) {
        self.child(self.parent, name, call)
    }

    /// Record a stage whose call was timed by the caller (its name depends
    /// on what the call returned).
    pub fn stage_at(&mut self, name: &'static str, start: Instant, end: Instant) -> u64 {
        self.rec.push(name, self.parent, self.op, start, end)
    }

    /// As [`Replay::stage`], nested under an earlier stage: a call the
    /// parent stage makes internally, replayed on its own right after it
    /// (the table subtracts it from the parent's self time).
    pub fn child<T>(
        &mut self,
        parent: u64,
        name: &'static str,
        call: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = std::hint::black_box(call());
        let end = Instant::now();
        let id = self.rec.push(name, parent, self.op, start, end);
        (out, id)
    }
}

/// One row of the attribution table: a layer span within an op class.
pub struct LayerRow {
    pub class: &'static str,
    pub layer: &'static str,
    /// Median duration over the replayed ops, nanoseconds.
    pub total_ns: f64,
    /// Median of duration minus child spans, nanoseconds.
    pub self_ns: f64,
    /// Directly under the op span (as opposed to a call its parent makes).
    pub top: bool,
}

/// Every replayed layer span reduced to medians, per op class, in the
/// order the replay first visited them.
pub struct LayerTable {
    rows: Vec<LayerRow>,
}

impl LayerTable {
    pub fn from_spans(spans: &[Span]) -> LayerTable {
        // op id → (class, id of the op's own span).
        let mut ops: BTreeMap<u64, (&str, u64)> = BTreeMap::new();
        let mut child_ns: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans {
            if s.replayed_op {
                ops.insert(s.op, (s.name, s.id));
            }
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.nanos();
            }
        }
        let mut rows: Vec<LayerRow> = Vec::new();
        let mut samples: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
        for s in spans {
            let Some(&(class, root)) = ops.get(&s.op) else {
                continue;
            };
            if s.id == root {
                continue;
            }
            let at = match rows
                .iter()
                .position(|r| r.class == class && r.layer == s.name)
            {
                Some(at) => at,
                None => {
                    rows.push(LayerRow {
                        class,
                        layer: s.name,
                        total_ns: 0.0,
                        self_ns: 0.0,
                        top: s.parent == root,
                    });
                    samples.push((Vec::new(), Vec::new()));
                    rows.len() - 1
                }
            };
            samples[at].0.push(s.nanos());
            samples[at]
                .1
                .push((s.nanos() - child_ns.get(&s.id).copied().unwrap_or(0.0)).max(0.0));
        }
        for (row, (total, own)) in rows.iter_mut().zip(&samples) {
            row.total_ns = median(total);
            row.self_ns = median(own);
        }
        LayerTable { rows }
    }

    pub fn get(&self, class: &str, layer: &str) -> Option<&LayerRow> {
        self.rows
            .iter()
            .find(|r| r.class == class && r.layer == layer)
    }

    /// Sum of the top-level layer spans of `class`, nanoseconds.
    pub fn attributed(&self, class: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.class == class && r.top)
            .map(|r| r.total_ns)
            .sum()
    }

    /// The attribution table of one class against its measured round
    /// trip (`round_trip_ms` = the socket, or direct-call, median).
    pub fn render(&self, class: &str, round_trip_ms: f64) -> String {
        let mut out = String::new();
        let rt_ns = (round_trip_ms * 1e6).max(1.0);
        writeln!(
            out,
            "  {class}: round trip {round_trip_ms:.4} ms\n    {:<32} {:>12} {:>12} {:>8}",
            "layer span", "median us", "self us", "share"
        )
        .unwrap();
        for row in self.rows.iter().filter(|r| r.class == class) {
            let indent = if row.top { "" } else { "  " };
            writeln!(
                out,
                "    {:<32} {:>12.2} {:>12.2} {:>7.1}%",
                format!("{indent}{}", row.layer),
                row.total_ns / 1e3,
                row.self_ns / 1e3,
                100.0 * row.self_ns / rt_ns
            )
            .unwrap();
        }
        let rest = (rt_ns - self.attributed(class)).max(0.0);
        writeln!(
            out,
            "    {:<32} {:>12.2} {:>12} {:>7.1}%",
            "serve.unattributed_share",
            rest / 1e3,
            "",
            100.0 * rest / rt_ns
        )
        .unwrap();
        out
    }
}

/// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing): one
/// lane per client thread plus the replay lane; `args` carry the span's
/// id, parent and op id.
pub fn chrome_json(lanes: &[(&str, &Recorder)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (name, rec) in lanes {
        if !first {
            out.push(',');
        }
        first = false;
        write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{name}\"}}}}",
            rec.lane
        )
        .unwrap();
        for s in &rec.spans {
            let prefix = if s.replayed_op { "replay:" } else { "" };
            write!(
                out,
                ",{{\"name\":\"{prefix}{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                rec.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.op
            )
            .unwrap();
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Where traces land: `benchmark/out/` (git-ignored), next to the
/// manifest this binary was built from.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn write_trace(
    workload: &str,
    lanes: &[(&str, &Recorder)],
) -> std::io::Result<std::path::PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, chrome_json(lanes))?;
    Ok(path)
}
