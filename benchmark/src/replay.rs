//! Layer replay: a served request's stages, run one public call at a time
//! from outside the program, in the order the handler visits them. Each
//! stage is a span named after the per-layer metric it feeds.
//!
//! What cannot be reached through public functions — socket syscalls, the
//! accept queue, the access log and flight-recorder pushes, span capture
//! — is not replayed; it is what `serve.unattributed_share` measures.

use std::collections::BTreeMap;
use std::io::BufReader;

use cq::{parse_query, Var};
use dichotomy::classify::{Complexity, PTimeReason};
use dichotomy::planner::{Planner, RankedPlan};
use dichotomy::{ExecOutcome, Executor, Method, PhysicalPlan, ResultCache};
use pdb::ReaderHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::Server;

use crate::common::*;
use crate::http::{post_json, request, Conn};
use crate::stats::{median, rss_bytes, Samples};
use crate::trace::{LayerTable, Recorder};

/// Requests replayed per op class (fewer for the expensive classes).
pub const SAMPLES: usize = 200;

/// Which span the execution stage of a replayed `/eval` feeds.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum ExecKind {
    /// The full star: `safeplan.star_serial_ms`.
    StarSerial,
    /// A small extensional plan (point query, one family).
    Small,
    /// Inversion-free self-join: `core.selfjoin_eval_ms`.
    SelfJoin,
    /// #P-hard: lineage extraction + Karp–Luby.
    Hard,
}

/// Which caches the replayed request finds warm.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Plan hit, result hit (`serve_hot`).
    Hot,
    /// Plan hit, result miss (first read after a write).
    PlanOnly,
    /// First sight: both miss (`serve_adhoc`).
    Cold,
}

/// A private planner and result cache in front of the live server's
/// epoch store: the replay reads the same snapshot the workers do without
/// touching the server's own caches or counters.
pub struct ServeReplay {
    reader: ReaderHandle,
    planner: Planner,
    results: ResultCache,
    mc_samples: u64,
    sink: Vec<u8>,
    /// Makes result-cache keys unique when a miss is wanted.
    serial: u64,
}

impl ServeReplay {
    pub fn new(server: &Server, mc_samples: u64) -> ServeReplay {
        ServeReplay {
            reader: server.store().reader(),
            planner: Planner::new(mc_samples),
            results: ResultCache::new(),
            mc_samples,
            sink: Vec::with_capacity(1 << 16),
            serial: 0,
        }
    }

    fn result_key(&mut self, db: &pdb::ProbDb, query_key: &str, unique: bool) -> String {
        let tag = if unique {
            self.serial += 1;
            format!("auto:{}#{}", self.mc_samples, self.serial)
        } else {
            format!("auto:{}", self.mc_samples)
        };
        ResultCache::key(db, ENGINE_SEED, 1, 1, &tag, query_key)
    }

    /// Replay one `/eval` carrying `body`.
    pub fn eval(
        &mut self,
        rec: &mut Recorder,
        class: &'static str,
        body: &str,
        kind: ExecKind,
        mode: CacheMode,
    ) -> Result<(), Error> {
        let wire = post_json("/eval", body);
        if mode != CacheMode::Cold {
            // Warm the private caches the way earlier traffic would have.
            let snap = self.reader.snapshot();
            let q = parse(&snap, query_of(body)?)?;
            let (planned, _) = self.planner.plan_tracked(&q)?;
            if mode == CacheMode::Hot {
                let key = self.result_key(&snap, &q.cache_key(), false);
                if self.results.get(&key).is_none() {
                    let out =
                        Executor::with_tuning(ENGINE_SEED, 1, 1).execute(&snap, &planned.plan)?;
                    self.results.insert(key, out);
                }
            }
        }
        rec.replay(class, |r| -> Result<(), Error> {
            let (req, _) = r.stage("serve.http_read_us", || {
                serve::http::read_request(&mut BufReader::new(&wire[..]), || false)
            });
            let req = req?.ok_or("empty request")?;
            let (doc, _) = r.stage("telemetry.json_parse_us", || telemetry::json::parse(&req.body));
            let doc = doc?;
            let text = doc.get("query").and_then(|j| j.as_str()).ok_or("no query")?;
            let (snap, _) = r.stage("pdb.snapshot_ns", || self.reader.snapshot());
            let (q, _) = r.stage("cq.parse_us", || {
                let mut voc = snap.voc.clone();
                parse_query(&mut voc, text)
            });
            let q = q?;
            r.stage("cq.cache_key_us", || q.cache_key());

            let start = std::time::Instant::now();
            let (planned, hit) = self.planner.plan_tracked(&q)?;
            let end = std::time::Instant::now();
            let name = if hit { "core.plan_hit_us" } else { "core.plan_miss_us" };
            let plan_span = r.stage_at(name, start, end);
            if !hit {
                let classify_name = match kind {
                    ExecKind::StarSerial | ExecKind::Small => "core.classify_sjf_us",
                    ExecKind::SelfJoin => "core.classify_selfjoin_us",
                    ExecKind::Hard => "core.classify_hard_us",
                };
                let (c, _) = r.child(plan_span, classify_name, || dichotomy::classify(&q));
                let c = c?;
                if c.complexity == Complexity::PTime(PTimeReason::HierarchicalNoSelfJoin) {
                    r.child(plan_span, "safeplan.compile_us", || {
                        safeplan::build_plan(&c.minimized).map(|p| safeplan::optimize(&p)).is_ok()
                    });
                }
            }

            let unique = mode != CacheMode::Hot;
            let ((key, cached), _) = r.stage("core.result_get_us", || {
                // The engine builds the key (canonicalizing once more) on
                // every evaluation, hit or miss.
                let key = self.result_key(&snap, &q.cache_key(), unique);
                let cached = self.results.get(&key);
                (key, cached)
            });
            let outcome = match cached {
                Some(outcome) => outcome,
                None => {
                    let outcome = match (kind, &planned.plan) {
                        (ExecKind::Hard, PhysicalPlan::KarpLuby { query, samples }) => {
                            let (dnf, _) = r.stage("lineage.extract_us", || pdb::lineage_of(&snap, query));
                            let (est, _) = r.stage("lineage.kl_ms", || {
                                let mut rng = StdRng::seed_from_u64(ENGINE_SEED);
                                lineage::karp_luby(&dnf, &snap.prob_vector(), *samples, &mut rng)
                            });
                            ExecOutcome {
                                probability: est.estimate,
                                std_error: est.std_error,
                                method: Method::KarpLuby,
                                parallel: None,
                                extensional: None,
                                scheduler: None,
                                sharding: None,
                            }
                        }
                        (ExecKind::Hard, other) => {
                            return Err(format!("hard shape planned as {:?}", other.method()).into())
                        }
                        (kind, plan) => {
                            let name = match kind {
                                ExecKind::StarSerial => "safeplan.star_serial_ms",
                                ExecKind::SelfJoin => "core.selfjoin_eval_ms",
                                _ => "safeplan.small_exec_us",
                            };
                            let (out, _) = r.stage(name, || {
                                Executor::with_tuning(ENGINE_SEED, 1, 1).execute(&snap, plan)
                            });
                            out?
                        }
                    };
                    r.stage("core.result_put_us", || self.results.insert(key, outcome.clone()));
                    outcome
                }
            };
            let response = format!(
                "{{\"probability\":{:?},\"std_error\":{:?},\"method\":\"{}\",\"cache_hit\":{hit},\"result_cache_hit\":{},\"version\":{},\"epoch\":1}}",
                outcome.probability,
                outcome.std_error,
                outcome.method,
                !unique,
                snap.version()
            );
            self.sink.clear();
            r.stage("serve.http_write_us", || serve::http::respond_json(&mut self.sink, 200, &response))
                .0?;
            Ok(())
        })
    }

    /// Replay one `/rank` carrying `body` (head `x0`); `warm` = the ranked
    /// template is already in the plan cache, as after earlier traffic.
    pub fn rank(
        &mut self,
        rec: &mut Recorder,
        class: &'static str,
        body: &str,
        top: Option<usize>,
        warm: bool,
    ) -> Result<(), Error> {
        let wire = post_json("/rank", body);
        if warm {
            let snap = self.reader.snapshot();
            self.planner
                .plan_ranked(&parse(&snap, query_of(body)?)?, &[Var(0)])?;
        }
        rec.replay(class, |r| -> Result<(), Error> {
            let (req, _) = r.stage("serve.http_read_us", || {
                serve::http::read_request(&mut BufReader::new(&wire[..]), || false)
            });
            let req = req?.ok_or("empty request")?;
            let (doc, _) = r.stage("telemetry.json_parse_us", || telemetry::json::parse(&req.body));
            let doc = doc?;
            let text = doc.get("query").and_then(|j| j.as_str()).ok_or("no query")?;
            let (snap, _) = r.stage("pdb.snapshot_ns", || self.reader.snapshot());
            let (q, _) = r.stage("cq.parse_us", || {
                let mut voc = snap.voc.clone();
                parse_query(&mut voc, text)
            });
            let q = q?;
            let head = [Var(0)];

            let hits_before = self.planner.stats().hits;
            let start = std::time::Instant::now();
            let template = self.planner.plan_ranked(&q, &head)?;
            let end = std::time::Instant::now();
            let hit = self.planner.stats().hits > hits_before;
            let name = if hit { "core.plan_hit_us" } else { "core.plan_miss_us" };
            let plan_span = r.stage_at(name, start, end);
            if !hit {
                r.child(plan_span, "safeplan.compile_us", || {
                    safeplan::build_ranked_plan(&q, &head).map(|p| safeplan::optimize(&p)).is_ok()
                });
            }
            let RankedPlan::Batched { plan, head } = &*template else {
                return Err("ranked shape did not compile to a batched plan".into());
            };
            let (mut pairs, _) = r.stage("safeplan.ranked_ms", || {
                safeplan::ranked_probabilities(&snap, &snap.prob_vector(), plan, head)
            });
            // The handler's sort and JSON rendering are `core`/`serve`
            // code with no public entry: done here untimed, so the write
            // stage gets a body of the real size.
            pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then_with(|| a.0.cmp(&b.0)));
            pairs.truncate(top.unwrap_or(usize::MAX));
            let rows: Vec<String> = pairs
                .iter()
                .map(|(t, p)| {
                    format!(
                        "{{\"tuple\":[\"{}\"],\"probability\":{p:?},\"std_error\":0.0,\"method\":\"extensional-plan\"}}",
                        snap.voc.value_name(t[0])
                    )
                })
                .collect();
            let response = format!("{{\"version\":{},\"answers\":[{}]}}", snap.version(), rows.join(","));
            self.sink.clear();
            r.stage("serve.http_write_us", || serve::http::respond_json(&mut self.sink, 200, &response))
                .0?;
            Ok(())
        })
    }
}

fn query_of(body: &str) -> Result<&str, Error> {
    // Bodies are built by `eval_body`: {"query":"…"} with no escapes in
    // the query text the workloads generate.
    let rest = body
        .strip_prefix("{\"query\":\"")
        .ok_or("unexpected body")?;
    Ok(&rest[..rest.find('"').ok_or("unexpected body")?])
}

/// `GET /health` on a warm connection: the service's floor — socket,
/// HTTP parse, dispatch, observability, write — with no engine work.
pub fn health_floor_us(conn: &mut Conn) -> Result<f64, Error> {
    let req = request("GET", "/health", "");
    let mut samples = Vec::with_capacity(2000);
    for i in 0..2200 {
        let start = std::time::Instant::now();
        let (status, _) = conn.round_trip(&req)?;
        if status != 200 {
            return Err("/health failed".into());
        }
        if i >= 200 {
            samples.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    Ok(median(&samples))
}

/// `pdb.load_s`, `pdb.layout_s`, `pdb.bytes_per_tuple`: one more load of
/// the workload's databases (`(text, shard layout)` each), timed by stage.
/// Called before anything else allocates, so RSS growth across the loads
/// is the databases' footprint.
pub fn setup_layers(
    inputs: &[(&str, usize)],
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), Error> {
    let (mut load_s, mut layout_s, mut tuples) = (0.0, 0.0, 0.0);
    let before = rss_bytes();
    let mut keep = Vec::new();
    for (text, shards) in inputs {
        let start = std::time::Instant::now();
        let mut db = load(text)?;
        load_s += start.elapsed().as_secs_f64();
        tuples += db.num_tuples() as f64;
        if *shards > 1 {
            let start = std::time::Instant::now();
            db.set_shard_layout(*shards);
            layout_s += start.elapsed().as_secs_f64();
        }
        keep.push(db);
    }
    layers.insert(
        "pdb.bytes_per_tuple",
        (rss_bytes() - before).max(0.0) / tuples.max(1.0),
    );
    layers.insert("pdb.load_s", load_s);
    layers.insert("pdb.layout_s", layout_s);
    Ok(())
}

fn unit_nanos(name: &str) -> f64 {
    match name.rsplit('_').next() {
        Some("ns") => 1.0,
        Some("us") => 1e3,
        Some("ms") => 1e6,
        _ => 1e9,
    }
}

/// What every traced run reports once its windows and replay are done:
/// `client.trace_overhead` (traced legs' cycle median over the untraced
/// legs'), `client.op_tail_ms`, the span-fed metrics, the attribution
/// table of every class against its measured round trip, and the Chrome
/// trace under `benchmark/out/`.
///
/// Span name = metric name; each metric takes the median of the first
/// class in `classes` that recorded it, in its own unit, and stays 0
/// where the workload never visits the layer. `serve.unattributed_share`
/// is reported for the first class.
pub fn finish(
    workload: &str,
    recs: &[ClientRec],
    lane: &Recorder,
    classes: &[&'static str],
    layers: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) -> Result<(), Error> {
    let legs = |traced: bool| Merged::of(recs.iter().filter(move |r| r.spans.is_some() == traced));
    let overhead = legs(true).cycles.median_ms() / legs(false).cycles.median_ms().max(1e-9);
    layers.insert("client.trace_overhead", overhead);

    let mut m = Merged::of(recs);
    let mut all = Samples::new();
    for s in m.classes.values() {
        all.absorb(s);
    }
    let (pct, tail) = all.tail_ms();
    layers.insert("client.op_tail_ms", tail);
    notes.push(format!(
        "client.op_tail_ms {tail:.4} ms at p{pct:.4} of {} ops",
        all.len()
    ));

    let table = LayerTable::from_spans(&lane.spans);
    for (name, ..) in crate::LAYERS {
        if let Some(row) = classes.iter().find_map(|class| table.get(class, name)) {
            layers.insert(name, row.total_ns / unit_nanos(name));
        }
    }
    for (i, class) in classes.iter().enumerate() {
        let rt_ms = m.class(class).0;
        if i == 0 {
            let share = 1.0 - table.attributed(class) / (rt_ms * 1e6).max(1.0);
            layers.insert("serve.unattributed_share", share.max(0.0));
        }
        notes.push(table.render(class, rt_ms));
    }

    let names: Vec<String> = recs.iter().map(|r| format!("client-{}", r.lane)).collect();
    let mut lanes: Vec<(&str, &Recorder)> = recs
        .iter()
        .zip(&names)
        .filter_map(|(r, n)| r.spans.as_ref().map(|s| (n.as_str(), s)))
        .collect();
    lanes.push(("replay", lane));
    let path = crate::trace::write_trace(workload, &lanes)?;
    notes.push(format!("trace: {}", path.display()));
    Ok(())
}
