//! The traced run. A server phase (with pings) gives the server-side
//! numbers and the engine counters through `Stats`; then the same seeded
//! request sequence is replayed in process twice, untraced and traced,
//! calling each layer's public function the way the server's request
//! handler does and timing every call from here. Spans stay in memory and
//! are written out when the run ends.

use crate::bench::{self, Outcome, Settings};
use crate::drive::{self, Until};
use crate::fixture::{self, Churn, Fixture};
use crate::oracle::{self, Catalog};
use crate::report::{median, num, object, ratio, string, Metrics};
use crate::workload::{
    filter_path, point_path, price_text, scan_path, sku, Kind, Op, Role, Scale, Script, Workload,
    COLUMN, TABLE,
};
use rx_engine::access::{self, AccessPlan, AccessStats, Combine};
use rx_engine::pack::{NoObserver, PackedRecord, Packer};
use rx_engine::traverse::{IdEventSink, Traverser};
use rx_engine::{ColValue, Database, EngineError};
use rx_server::stats::ReqClass;
use rx_server::{Hit, Request, Response, StatsSnapshot};
use rx_storage::{LockMode, LockName, Txn};
use rx_xml::{Event, NodeId, Parser};
use rx_xpath::{QueryTree, XPathParser};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Insert/delete pairs the traced run adds on workloads without a writer,
/// so the write path's layers are measured on every workload.
const PROBE_PAIRS: usize = 100;

/// Where a span sits relative to its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanRole {
    /// The whole request, as the server would serve it.
    Request,
    /// A layer call inside the request.
    Layer,
    /// A measurement call made beside the request (not part of its time).
    Side,
}

impl SpanRole {
    fn name(self) -> &'static str {
        match self {
            SpanRole::Request => "request",
            SpanRole::Layer => "layer",
            SpanRole::Side => "side",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    req: u64,
    kind: Kind,
    role: SpanRole,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Untraced, it times only each whole request.
struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
    req: u64,
    kind: Kind,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            base: Instant::now(),
            spans: Vec::new(),
            req: 0,
            kind: Kind::Point,
        }
    }

    fn at(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn push(&mut self, role: SpanRole, name: &'static str, start_ns: u64) {
        let end_ns = self.at();
        self.spans.push(Span {
            req: self.req,
            kind: self.kind,
            role,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Time `f` as a layer (or side) span of the current request.
    fn span<T>(&mut self, role: SpanRole, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = self.at();
        let r = f();
        self.push(role, name, t0);
        r
    }

    fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(SpanRole::Layer, name, f)
    }

    fn side<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(SpanRole::Side, name, f)
    }
}

/// Sink that drops every event: a traversal replay with no evaluation.
struct Discard;

impl IdEventSink for Discard {
    fn id_event(&mut self, _id: &NodeId, _ev: Event<'_>) -> rx_engine::Result<()> {
        Ok(())
    }
}

/// Counts gathered during a replay.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    queries: u64,
    index_queries: u64,
    access: AccessStats,
    replay_docs: u64,
    records_fetched: u64,
    errors: u64,
    wrong: u64,
    rounds: usize,
}

/// One in-process replay of the workload's request sequence.
struct Replay<'a> {
    db: &'a Arc<Database>,
    table: &'a Arc<rx_engine::BaseTable>,
    cat: &'a Catalog,
    churn: &'a mut Churn,
    tr: Tracer,
    counts: Counts,
    messages: Vec<String>,
}

/// A request's own success; an oracle verdict rides inside where needed.
type Step<T> = Result<T, String>;

fn e(x: impl std::fmt::Display) -> String {
    x.to_string()
}

/// A request's input, built before its clock starts: the wire request,
/// and for inserts and deletes the churn product it concerns.
struct Input {
    req: Request,
    product: Option<usize>,
}

/// A request's reply, as the client decodes it.
enum Reply {
    Hits {
        hits: Vec<Hit>,
        docs: Vec<u64>,
        path: rx_xpath::Path,
    },
    Row(Option<rx_engine::Row>),
    Doc(u64),
    Deleted(bool),
}

impl Replay<'_> {
    /// Run rounds of fresh scripts (the sequence from its start) until
    /// `rounds` rounds or `budget` wall time, then `probe` insert/delete
    /// pairs.
    fn run(
        &mut self,
        mut scripts: Vec<Script>,
        rounds: Option<usize>,
        budget: Duration,
        probe: usize,
    ) {
        let started = Instant::now();
        loop {
            let done = match rounds {
                Some(n) => self.counts.rounds >= n,
                None => started.elapsed() >= budget,
            };
            if done {
                break;
            }
            for script in scripts.iter_mut() {
                let role = script.role();
                for op in script.round() {
                    self.request(role, op);
                }
            }
            self.counts.rounds += 1;
        }
        for _ in 0..probe {
            self.request(Role::Writer, Op::Insert);
            self.request(Role::Writer, Op::Delete);
        }
    }

    fn note(&mut self, msg: String) {
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    /// One request: prepare its input, time it as the server would serve
    /// it (plus the client's encode/decode), then take the side
    /// measurements and check the reply.
    fn request(&mut self, role: Role, op: Op) {
        self.tr.req += 1;
        self.tr.kind = op.kind();
        let spec = self.cat.spec();
        let query = |path: String| Request::Query {
            table: TABLE.into(),
            column: COLUMN.into(),
            path,
        };
        let input = match op {
            Op::Point(k) => Input {
                req: query(point_path(&price_text(spec, k))),
                product: None,
            },
            Op::Scan(k) => Input {
                req: query(scan_path(k)),
                product: None,
            },
            Op::Filter(level) => Input {
                req: query(filter_path(level)),
                product: None,
            },
            Op::Fetch(k) => Input {
                req: Request::FetchRow {
                    table: TABLE.into(),
                    doc: self.cat.docid(k),
                },
                product: None,
            },
            Op::Insert => {
                let i = self.churn.next_product;
                self.churn.next_product += 1;
                let text = rx_gen::product_doc(spec, i);
                if let Err(msg) = self.parse_and_pack(&text) {
                    self.counts.errors += 1;
                    return self.note(format!("{op:?}: {msg}"));
                }
                Input {
                    req: Request::InsertRow {
                        table: TABLE.into(),
                        values: vec![ColValue::Str(sku(i)), ColValue::Xml(text)],
                    },
                    product: Some(i),
                }
            }
            Op::Delete => match self.churn.live.pop_front() {
                Some((doc, i)) => Input {
                    req: Request::DeleteRow {
                        table: TABLE.into(),
                        doc,
                    },
                    product: Some(i),
                },
                None => {
                    self.counts.errors += 1;
                    return self.note("the churn pool is empty".into());
                }
            },
        };
        let t0 = self.tr.at();
        let reply = self.serve(&input.req);
        self.tr.push(SpanRole::Request, op.kind().name(), t0);
        let reply = match reply {
            Ok(r) => r,
            Err(msg) => {
                self.counts.errors += 1;
                return self.note(format!("{op:?}: {msg}"));
            }
        };
        let verdict = match (op, reply, input.product) {
            (_, Reply::Hits { hits, docs, path }, _) => {
                self.counts.queries += 1;
                self.beside_query(&path, &docs);
                match op {
                    Op::Point(k) if role == Role::Reader => {
                        oracle::check_churn_point(self.cat, k, &hits).map(|_| ())
                    }
                    Op::Point(k) => oracle::check_point(self.cat, k, &hits),
                    Op::Scan(k) => oracle::check_scan(self.cat, k, &hits),
                    Op::Filter(level) => oracle::check_filter(self.cat, level, &hits),
                    _ => Err(format!("{op:?}: answered with hits")),
                }
            }
            (Op::Fetch(k), Reply::Row(row), _) => oracle::check_fetch(self.cat, k, row.as_ref())
                .and_then(|()| self.stored_tree(k, self.cat.docid(k))),
            (Op::Insert, Reply::Doc(doc), Some(i)) => {
                self.churn.live.push_back((doc, i));
                self.churn.inserted.push((doc, i));
                Ok(())
            }
            (Op::Delete, Reply::Deleted(true), _) => Ok(()),
            (Op::Delete, Reply::Deleted(false), Some(i)) => Err(format!(
                "delete of a live churn document (product {i}) found no row"
            )),
            _ => Err(format!("{op:?}: reply of the wrong kind")),
        };
        if let Err(msg) = verdict {
            self.counts.wrong += 1;
            self.note(msg);
        }
    }

    /// The stored document, serialized, is the generated one as a tree.
    fn stored_tree(&self, k: usize, doc: u64) -> Result<(), String> {
        let text = self
            .db
            .serialize_document(self.table, COLUMN, doc)
            .map_err(e)?;
        match oracle::same_tree(&text, &rx_gen::product_doc(self.cat.spec(), k)) {
            Ok(true) => Ok(()),
            Ok(false) => Err(format!(
                "stored document {doc} differs from the generated one"
            )),
            Err(msg) => Err(format!("stored document {doc} does not read back: {msg}")),
        }
    }

    /// Beside an insert (traced only): parse alone, and pack the parsed
    /// tokens into a sink that drops the records.
    fn parse_and_pack(&mut self, text: &str) -> Step<()> {
        if !self.tr.on {
            return Ok(());
        }
        let dict = self.db.dict();
        let tokens = self
            .tr
            .side("xml.parse", || Parser::new(dict).parse_to_tokens(text))
            .map_err(e)?;
        self.tr
            .side("pack.pack", || -> rx_engine::Result<()> {
                let mut sink = |_r: PackedRecord| -> rx_engine::Result<()> { Ok(()) };
                let mut obs = NoObserver;
                let mut packer = Packer::new(&mut sink, &mut obs);
                tokens.replay(&mut packer)?;
                packer.finish().map(|_| ())
            })
            .map_err(e)
    }

    /// Beside a query (traced only): compile alone, and replay the
    /// candidates' records with no evaluation, the base QuickXScan's share
    /// is taken against.
    fn beside_query(&mut self, path: &rx_xpath::Path, docs: &[u64]) {
        if !self.tr.on {
            return;
        }
        let _ = self.tr.side("xpath.compile", || QueryTree::compile(path));
        let xml = match self.table.xml_column(COLUMN) {
            Ok(col) => col.xml_table(),
            Err(_) => return,
        };
        let (mut fetched, mut replayed) = (0, 0);
        self.tr.side("traverse.replay", || {
            for &doc in docs {
                let mut t = Traverser::new(xml, doc);
                if t.run(&mut Discard).is_ok() {
                    fetched += t.stats.records_fetched;
                    replayed += 1;
                }
            }
        });
        self.counts.records_fetched += fetched;
        self.counts.replay_docs += replayed;
    }

    /// Serve one request as the server's handler does, with the request
    /// and reply encode/decode of both ends.
    fn serve(&mut self, req: &Request) -> Step<Reply> {
        self.codec(req)?;
        match req {
            Request::Query { path, .. } => {
                let (hits, docs, path) = self.query(path)?;
                let hits = match self.codec_reply(Response::Hits(hits))? {
                    Response::Hits(h) => h,
                    other => return Err(format!("hits decoded as {other:?}")),
                };
                Ok(Reply::Hits { hits, docs, path })
            }
            Request::FetchRow { doc, .. } => {
                let row = self.fetch(*doc)?;
                match self.codec_reply(Response::Row(row))? {
                    Response::Row(row) => Ok(Reply::Row(row)),
                    other => Err(format!("row decoded as {other:?}")),
                }
            }
            Request::InsertRow { values, .. } => {
                let doc = self.insert(values)?;
                self.codec_reply(Response::Doc(doc))?;
                Ok(Reply::Doc(doc))
            }
            Request::DeleteRow { doc, .. } => {
                let ok = self.delete(*doc)?;
                self.codec_reply(Response::Deleted(ok))?;
                Ok(Reply::Deleted(ok))
            }
            other => Err(format!("the replay does not serve {other:?}")),
        }
    }

    fn codec(&mut self, req: &Request) -> Step<()> {
        self.tr
            .layer("proto.codec", || Request::decode(&req.encode()).map(|_| ()))
            .map_err(e)
    }

    fn codec_reply(&mut self, resp: Response) -> Step<Response> {
        self.tr
            .layer("proto.codec", || Response::decode(&resp.encode()))
            .map_err(e)
    }

    /// Run `body` in an autocommit transaction (begin, body, commit;
    /// rollback on error), as the server's sessions do.
    fn autocommit<T>(
        &mut self,
        commit: &'static str,
        body: impl FnOnce(&mut Self, &Txn) -> Step<T>,
    ) -> Step<T> {
        let db = self.db;
        let txn = self.tr.layer("txn.begin", || db.begin()).map_err(e)?;
        match body(self, &txn) {
            Ok(v) => {
                self.tr.layer(commit, || txn.commit()).map_err(e)?;
                Ok(v)
            }
            Err(msg) => {
                let _ = txn.rollback();
                Err(msg)
            }
        }
    }

    /// `Database::query_locked` taken apart: parse, IS lock, plan, gather
    /// candidates, S-lock each, evaluate each.
    fn query(&mut self, text: &str) -> Step<(Vec<Hit>, Vec<u64>, rx_xpath::Path)> {
        let path = self
            .tr
            .layer("xpath.parse", || XPathParser::new().parse(text))
            .map_err(e)?;
        let (db, table) = (self.db, self.table);
        let col = table.xml_column(COLUMN).map_err(e)?;
        let tid = table.def.id;
        let (hits, docs) = self.autocommit("txn.commit", |r, txn| {
            r.tr.layer("conc.lock", || {
                txn.lock(&LockName::Table(tid), LockMode::IS)
            })
            .map_err(e)?;
            let prepared =
                r.tr.layer("executor.plan", || {
                    access::prepare(Some(db.plan_cache()), table, col, &path, false)
                })
                .map_err(e)?;
            let mut stats = AccessStats::default();
            let docs: Vec<u64> = match prepared.plan.as_ref() {
                AccessPlan::FullScan => {
                    r.tr.layer("access.docids", || access::all_docids(table))
                        .map_err(e)?
                }
                AccessPlan::Index { terms, combine, .. } => {
                    r.counts.index_queries += 1;
                    r.tr.layer("validx.probe", || -> Step<Vec<u64>> {
                        let mut sets: Vec<BTreeSet<u64>> = Vec::new();
                        for t in terms {
                            let entries = t
                                .index
                                .range(
                                    t.range.lo.as_ref().map(|(k, i)| (k.as_slice(), *i)),
                                    t.range.hi.as_ref().map(|(k, i)| (k.as_slice(), *i)),
                                )
                                .map_err(e)?;
                            stats.index_entries += entries.len() as u64;
                            sets.push(entries.iter().map(|x| x.doc).collect());
                        }
                        Ok(combine_sets(sets, *combine).into_iter().collect())
                    })?
                }
            };
            stats.candidates = docs.len() as u64;
            r.tr.layer("conc.lock", || -> Step<()> {
                for &doc in &docs {
                    txn.lock(&LockName::Document { table: tid, doc }, LockMode::S)
                        .map_err(e)?;
                }
                Ok(())
            })?;
            let dict = db.dict();
            let hits = r.tr.layer("access.evaluate", || -> Step<Vec<Hit>> {
                let mut hits = Vec::new();
                for &doc in &docs {
                    match access::evaluate_document(col, dict, &prepared.tree, doc, &mut stats) {
                        Ok(h) => hits.extend(h.into_iter().map(|h| Hit {
                            doc: h.doc,
                            value: h.value,
                        })),
                        // The locked path skips candidates deleted between
                        // the probe and the lock.
                        Err(EngineError::NotFound { .. }) => continue,
                        Err(x) => return Err(e(x)),
                    }
                }
                Ok(hits)
            })?;
            r.counts.access.index_entries += stats.index_entries;
            r.counts.access.candidates += stats.candidates;
            r.counts.access.docs_evaluated += stats.docs_evaluated;
            Ok((hits, docs))
        })?;
        Ok((hits, docs, path))
    }

    /// The server's `FetchRow`: IS + S lock, then the base row.
    fn fetch(&mut self, doc: u64) -> Step<Option<rx_engine::Row>> {
        let (db, table) = (self.db, self.table);
        let tid = table.def.id;
        self.autocommit("txn.commit", |r, txn| {
            r.tr.layer("conc.lock", || -> Step<()> {
                txn.lock(&LockName::Table(tid), LockMode::IS).map_err(e)?;
                txn.lock(&LockName::Document { table: tid, doc }, LockMode::S)
                    .map_err(e)
            })?;
            r.tr.layer("db.fetch", || db.fetch_row(table, doc))
                .map_err(e)
        })
    }

    fn insert(&mut self, values: &[ColValue]) -> Step<u64> {
        let (db, table) = (self.db, self.table);
        self.autocommit("txn.commit_write", |r, txn| {
            r.tr.layer("db.insert", || db.insert_row_txn(txn, table, values))
                .map_err(e)
        })
    }

    fn delete(&mut self, doc: u64) -> Step<bool> {
        let (db, table) = (self.db, self.table);
        self.autocommit("txn.commit_write", |r, txn| {
            r.tr.layer("db.delete", || db.delete_row_txn(txn, table, doc))
                .map_err(e)
        })
    }
}

/// AND/OR of candidate DocID sets, as the access layer combines them.
fn combine_sets(mut sets: Vec<BTreeSet<u64>>, combine: Combine) -> BTreeSet<u64> {
    let Some(first) = sets.pop() else {
        return BTreeSet::new();
    };
    sets.into_iter().fold(first, |acc, s| match combine {
        Combine::And => acc.intersection(&s).copied().collect(),
        Combine::Or => acc.union(&s).copied().collect(),
    })
}

/// Per-kind totals of a replay: requests, summed request time, and summed
/// time of each layer inside them.
#[derive(Debug, Default)]
struct KindTotals {
    requests: u64,
    total_ns: u64,
    layers: BTreeMap<&'static str, u64>,
}

fn by_kind(spans: &[Span]) -> BTreeMap<Kind, KindTotals> {
    let mut out: BTreeMap<Kind, KindTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.kind).or_default();
        match s.role {
            SpanRole::Request => {
                t.requests += 1;
                t.total_ns += s.ns();
            }
            SpanRole::Layer => *t.layers.entry(s.name).or_default() += s.ns(),
            SpanRole::Side => {}
        }
    }
    out
}

/// Summed duration and count of spans named `name` over requests of `kinds`
/// (every kind when empty).
fn sum(spans: &[Span], name: &str, kinds: &[Kind]) -> (f64, u64) {
    let mut ns = 0u64;
    let mut n = 0u64;
    for s in spans {
        if s.name == name && (kinds.is_empty() || kinds.contains(&s.kind)) {
            ns += s.ns();
            n += 1;
        }
    }
    (ns as f64, n)
}

/// Mean microseconds per request of `kinds` spent in spans named `name`.
fn per_request_us(spans: &[Span], name: &str, kinds: &[Kind]) -> f64 {
    let (ns, _) = sum(spans, name, kinds);
    let requests = spans
        .iter()
        .filter(|s| s.role == SpanRole::Request && (kinds.is_empty() || kinds.contains(&s.kind)))
        .count();
    ratio(ns / 1e3, requests as f64)
}

/// Mean microseconds per span named `name`.
fn per_span_us(spans: &[Span], name: &str) -> f64 {
    let (ns, n) = sum(spans, name, &[]);
    ratio(ns / 1e3, n as f64)
}

const QUERY_KINDS: [Kind; 3] = [Kind::Point, Kind::Scan, Kind::Filter];
const READ_KINDS: [Kind; 4] = [Kind::Point, Kind::Scan, Kind::Filter, Kind::Fetch];

fn delta(a: u64, b: u64) -> f64 {
    b.saturating_sub(a) as f64
}

/// Mean server-side service time of a request class over a phase.
fn service_us(before: &StatsSnapshot, after: &StatsSnapshot, class: ReqClass) -> f64 {
    let (b, a) = (
        &before.latency[class as usize],
        &after.latency[class as usize],
    );
    ratio(delta(b.total_us, a.total_us), delta(b.count, a.count))
}

/// The traced run of one workload.
pub fn run(
    s: &Settings,
    scale: &Scale,
    fx: &mut Fixture,
    scripts: &mut [Script],
) -> Result<Outcome, String> {
    let secs = s.seconds;
    // Server phase: warm up, then the closed loop with one ping per round.
    let warm = drive::run(fx, scripts, bench::warmup(s, fx), false)?;
    let served = drive::run(
        fx,
        scripts,
        Until::Elapsed(Duration::from_secs_f64(secs * 0.4)),
        true,
    )?;
    let (b, a) = (&served.before.db, &served.after.db);
    // Requests of the phase, pings excluded: every one left a latency.
    let ops = Kind::ALL
        .iter()
        .map(|&k| served.lat.of(k).len())
        .sum::<usize>() as f64;
    // Write probe over the wire where the workload has no writer.
    let has_writer = s.workload == Workload::Ingest;
    let probe_pairs = if has_writer { 0 } else { PROBE_PAIRS };
    let write_service = if has_writer {
        service_us(&served.before, &served.after, ReqClass::Write)
    } else {
        let mut probe = [Script::writer()];
        let phase = drive::run(fx, &mut probe, Until::WriterRounds(probe_pairs), false)?;
        if phase.errors + phase.wrong > 0 {
            return Err(format!("write probe failed: {:?}", phase.messages));
        }
        service_us(&phase.before, &phase.after, ReqClass::Write)
    };

    // In-process replays of the same sequence: untraced for a time budget,
    // then traced for exactly as many rounds.
    let scale_sessions = || Script::sessions(s.workload, scale, s.seed);
    let budget = Duration::from_secs_f64(secs * 0.25);
    let (plain_spans, plain_counts, plain_msgs) =
        replay(fx, scale_sessions(), None, budget, probe_pairs, false);
    let (spans, counts, msgs) = replay(
        fx,
        scale_sessions(),
        Some(plain_counts.rounds),
        budget,
        probe_pairs,
        true,
    );
    let churn_hits: Vec<(u64, usize)> = warm
        .churn_hits
        .iter()
        .chain(&served.churn_hits)
        .copied()
        .collect();
    let end_failures = bench::end_state(fx, &churn_hits)?;

    let totals = by_kind(&spans);
    let plain_totals = by_kind(&plain_spans);
    let all_total: u64 = totals.values().map(|t| t.total_ns).sum();
    let plain_total: u64 = plain_totals.values().map(|t| t.total_ns).sum();
    let attributed: u64 = totals.values().flat_map(|t| t.layers.values()).sum();

    let evaluate_ns = sum(&spans, "access.evaluate", &[]).0;
    let replay_ns = sum(&spans, "traverse.replay", &[]).0;
    let docs_eval = counts.access.docs_evaluated as f64;
    let q = counts.queries as f64;
    let col = fx.table.xml_column(COLUMN).map_err(e)?;
    let live_docs = (fx.catalog.len() + fx.churn.live.len()) as f64;

    let mut m = Metrics::default();
    m.put("server.ping_rtt_us", "us", median(&us(&served.pings)));
    m.put(
        "server.read_service_us",
        "us",
        service_us(&served.before, &served.after, ReqClass::Read),
    );
    m.put("server.write_service_us", "us", write_service);
    m.put(
        "proto.codec_us",
        "us",
        per_request_us(&spans, "proto.codec", &[]),
    );
    m.put("xpath.parse_us", "us", per_span_us(&spans, "xpath.parse"));
    m.put(
        "xpath.compile_us",
        "us",
        per_span_us(&spans, "xpath.compile"),
    );
    m.put(
        "quickxscan.us_per_doc",
        "us",
        ratio((evaluate_ns - replay_ns) / 1e3, docs_eval),
    );
    m.put(
        "executor.plan_us",
        "us",
        per_span_us(&spans, "executor.plan"),
    );
    m.put(
        "executor.plan_cache_hit_ratio",
        "ratio",
        ratio(
            delta(b.plan_cache_hits, a.plan_cache_hits),
            delta(b.plan_cache_hits, a.plan_cache_hits)
                + delta(b.plan_cache_misses, a.plan_cache_misses),
        ),
    );
    m.put(
        "validx.probe_us",
        "us",
        ratio(
            sum(&spans, "validx.probe", &[]).0 / 1e3,
            counts.index_queries as f64,
        ),
    );
    m.put(
        "access.index_entries_per_query",
        "count",
        ratio(counts.access.index_entries as f64, q),
    );
    m.put(
        "access.candidates_per_query",
        "count",
        ratio(counts.access.candidates as f64, q),
    );
    m.put(
        "access.docs_evaluated_per_query",
        "count",
        ratio(docs_eval, q),
    );
    m.put(
        "conc.lock_us_per_query",
        "us",
        per_request_us(&spans, "conc.lock", &QUERY_KINDS),
    );
    m.put(
        "lock.waits_per_op",
        "count",
        ratio(delta(b.lock_waits, a.lock_waits), ops),
    );
    m.put(
        "traverse.replay_us_per_doc",
        "us",
        ratio(replay_ns / 1e3, counts.replay_docs as f64),
    );
    m.put(
        "traverse.records_fetched_per_doc",
        "count",
        ratio(counts.records_fetched as f64, counts.replay_docs as f64),
    );
    let dc_hits = delta(b.doc_cache_hits, a.doc_cache_hits);
    let dc_misses = delta(b.doc_cache_misses, a.doc_cache_misses);
    m.put(
        "doccache.hit_ratio",
        "ratio",
        ratio(dc_hits, dc_hits + dc_misses),
    );
    m.put(
        "doccache.evictions_per_op",
        "count",
        ratio(delta(b.doc_cache_evictions, a.doc_cache_evictions), ops),
    );
    m.put("doccache.resident_bytes", "bytes", a.doc_cache_bytes as f64);
    let bp_hits = delta(b.buffer_hits, a.buffer_hits);
    let bp_misses = delta(b.buffer_misses, a.buffer_misses);
    m.put(
        "buffer.hit_ratio",
        "ratio",
        ratio(bp_hits, bp_hits + bp_misses),
    );
    m.put("txn.begin_us", "us", per_span_us(&spans, "txn.begin"));
    m.put(
        "txn.commit_us",
        "us",
        per_request_us(&spans, "txn.commit", &READ_KINDS),
    );
    let fsyncs = delta(b.wal_fsyncs, a.wal_fsyncs);
    let records = delta(b.wal_records, a.wal_records);
    m.put("wal.fsyncs_per_op", "count", ratio(fsyncs, ops));
    m.put("wal.records_per_op", "count", ratio(records, ops));
    m.put("wal.records_per_fsync", "count", ratio(records, fsyncs));
    m.put("xml.parse_us", "us", per_span_us(&spans, "xml.parse"));
    m.put("pack.pack_us", "us", per_span_us(&spans, "pack.pack"));
    m.put("db.insert_us", "us", per_span_us(&spans, "db.insert"));
    m.put("db.delete_us", "us", per_span_us(&spans, "db.delete"));
    m.put(
        "xmltable.bytes_per_doc",
        "bytes",
        ratio(
            (fixture::xml_table_pages(col)? * rx_storage::PAGE_SIZE as u64) as f64,
            live_docs,
        ),
    );
    m.put(
        "trace.overhead_share",
        "ratio",
        ratio(all_total as f64 - plain_total as f64, plain_total as f64),
    );
    m.put(
        "trace.unattributed_share",
        "ratio",
        ratio(all_total as f64 - attributed as f64, all_total as f64),
    );

    let trace_file = write_spans(s, &spans);
    let kinds: Vec<(&str, String)> = totals
        .iter()
        .map(|(k, t)| {
            let parts: Vec<(&str, String)> = t
                .layers
                .iter()
                .map(|(name, ns)| (*name, num(ratio(*ns as f64 / 1e3, t.requests as f64))))
                .collect();
            let layered: u64 = t.layers.values().sum();
            let plain = plain_totals.get(k);
            (
                k.name(),
                object(&[
                    ("requests", t.requests.to_string()),
                    (
                        "traced_us",
                        num(ratio(t.total_ns as f64 / 1e3, t.requests as f64)),
                    ),
                    (
                        "untraced_us",
                        num(plain
                            .map_or(0.0, |p| ratio(p.total_ns as f64 / 1e3, p.requests as f64))),
                    ),
                    ("layers_us", object(&parts)),
                    (
                        "unattributed_us",
                        num(ratio(
                            (t.total_ns - layered) as f64 / 1e3,
                            t.requests as f64,
                        )),
                    ),
                ]),
            )
        })
        .collect();
    let mut messages: Vec<String> = warm.messages.clone();
    messages.extend(served.messages.iter().cloned());
    messages.extend(plain_msgs);
    messages.extend(msgs);
    messages.extend(end_failures.iter().cloned());
    let (ok, attempted, failed) = bench::tally(&[&warm, &served], &end_failures);
    let replay_failed = plain_counts.errors + plain_counts.wrong + counts.errors + counts.wrong;
    let replay_attempted = (plain_spans.iter().chain(&spans))
        .filter(|s| s.role == SpanRole::Request)
        .count() as u64;
    let report = object(&[
        ("workload", string(s.workload.name())),
        ("seed", s.seed.to_string()),
        ("seconds", num(secs)),
        ("trace", "true".into()),
        ("nproc", bench::nproc().to_string()),
        ("git_rev", string(&bench::git_rev())),
        ("replay_rounds", counts.rounds.to_string()),
        ("spans_file", string(&trace_file)),
        ("in_process", object(&kinds)),
        (
            "server_kinds",
            bench::kind_table(&served, s.workload.kinds()),
        ),
        ("failures", bench::string_list(&messages)),
    ]);
    Ok(Outcome {
        correct: ok && counts.wrong + plain_counts.wrong == 0,
        attempted: attempted + replay_attempted,
        failed: failed + replay_failed,
        metrics: m,
        report,
    })
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&v| v as f64 / 1e3).collect()
}

fn replay(
    fx: &mut Fixture,
    scripts: Vec<Script>,
    rounds: Option<usize>,
    budget: Duration,
    probe: usize,
    traced: bool,
) -> (Vec<Span>, Counts, Vec<String>) {
    let mut r = Replay {
        db: &fx.db,
        table: &fx.table,
        cat: &fx.catalog,
        churn: &mut fx.churn,
        tr: Tracer::new(traced),
        counts: Counts::default(),
        messages: Vec::new(),
    };
    r.run(scripts, rounds, budget, probe);
    (r.tr.spans, r.counts, r.messages)
}

/// Write the spans as tab-separated rows under the work directory;
/// returns the file name, or an empty string when it could not be written.
fn write_spans(s: &Settings, spans: &[Span]) -> String {
    let root = bench::work_dir();
    let path = root.join(format!("spans-{}-seed{}.tsv", s.workload.name(), s.seed));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&root)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "req\tkind\trole\tname\tstart_ns\tend_ns")?;
        for sp in spans {
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{}\t{}",
                sp.req,
                sp.kind.name(),
                sp.role.name(),
                sp.name,
                sp.start_ns,
                sp.end_ns
            )?;
        }
        f.flush()
    };
    match write() {
        Ok(()) => path.display().to_string(),
        Err(_) => String::new(),
    }
}
