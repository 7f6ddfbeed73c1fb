//! The closed loop: each session sends its next request only after the
//! previous reply arrived and was checked, as database callers do.

use crate::fixture::{Churn, Fixture};
use crate::oracle::{self, Catalog};
use crate::workload::{
    filter_path, point_path, price_text, scan_path, sku, Kind, Op, Role, Script, COLUMN, TABLE,
};
use rx_engine::ColValue;
use rx_server::{Session, StatsSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Oracle mismatches kept verbatim per run (the rest are only counted).
const KEEP_MESSAGES: usize = 8;

/// Client-observed latencies, one list per request kind, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies(pub [Vec<u64>; Kind::ALL.len()]);

impl Latencies {
    /// Samples of `kind`.
    pub fn of(&self, kind: Kind) -> &[u64] {
        &self.0[kind.index()]
    }

    fn merge(&mut self, other: Latencies) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            a.extend(b);
        }
    }
}

/// What one closed-loop phase did.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Latencies of completed requests.
    pub lat: Latencies,
    /// Ping round trips (only when pings were asked for), nanoseconds.
    pub pings: Vec<u64>,
    /// Requests issued, pings included.
    pub attempted: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Replies the oracle rejected.
    pub wrong: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
    /// Churn documents that point queries returned, as (DocID, product).
    pub churn_hits: Vec<(u64, usize)>,
    /// Wall time from the common start to the last session's end.
    pub wall: Duration,
    /// Process CPU time (user + system, every thread) over the phase.
    pub cpu: Duration,
    /// Server counters before and after the phase, through `Stats`.
    pub before: StatsSnapshot,
    /// See `before`.
    pub after: StatsSnapshot,
}

impl LoopResult {
    /// Requests that completed with a correct reply.
    pub fn completed(&self) -> u64 {
        self.attempted - self.errors - self.wrong
    }

    fn note(&mut self, msg: String) {
        if self.messages.len() < KEEP_MESSAGES {
            self.messages.push(msg);
        }
    }

    fn absorb(&mut self, o: LoopResult) {
        self.lat.merge(o.lat);
        self.pings.extend(o.pings);
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.wrong += o.wrong;
        for m in o.messages {
            self.note(m);
        }
        self.churn_hits.extend(o.churn_hits);
    }
}

/// Process CPU time (user + system) of every thread, from
/// `/proc/self/stat` (Linux reports it in 1/100 s ticks).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Duration::from_millis(10 * fields.iter().sum::<u64>())
}

fn stats(fx: &Fixture) -> Result<StatsSnapshot, String> {
    fx.conn.session().stats().map_err(|e| e.to_string())
}

/// When a closed-loop phase ends. Sessions always finish the round they
/// are in.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this much wall time.
    Elapsed(Duration),
    /// When the writer session has completed this many rounds (workloads
    /// with a writer only): a fixed amount of churn, whatever the speed.
    WriterRounds(usize),
}

/// Run every script's session concurrently on the fixture's connection,
/// whole rounds at a time, until `until`. With `pings`, each session also
/// sends one `Ping` after every round.
pub fn run(
    fx: &mut Fixture,
    scripts: &mut [Script],
    until: Until,
    pings: bool,
) -> Result<LoopResult, String> {
    let before = stats(fx)?;
    let barrier = Barrier::new(scripts.len());
    let stop = AtomicBool::new(false);
    let cat = &fx.catalog;
    let conn = &fx.conn;
    let mut churn = Some(&mut fx.churn);
    let cpu0 = process_cpu();
    let started = Instant::now();
    let parts: Vec<LoopResult> = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter_mut()
            .map(|script| {
                let churn = if script.role() == Role::Writer {
                    churn.take()
                } else {
                    None
                };
                let mut session = conn.session();
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || {
                    let mut out = LoopResult::default();
                    let mut churn = churn;
                    let mut rounds = 0;
                    barrier.wait();
                    let started = Instant::now();
                    while !stop.load(Ordering::Relaxed) {
                        match until {
                            Until::Elapsed(d) if started.elapsed() >= d => break,
                            Until::WriterRounds(n)
                                if script.role() == Role::Writer && rounds == n =>
                            {
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                            _ => rounds += 1,
                        }
                        for op in script.round() {
                            let role = script.role();
                            exec(&mut session, cat, churn.as_deref_mut(), role, op, &mut out);
                        }
                        if pings {
                            out.attempted += 1;
                            let t0 = Instant::now();
                            match session.ping() {
                                Ok(()) => out.pings.push(t0.elapsed().as_nanos() as u64),
                                Err(e) => {
                                    out.errors += 1;
                                    out.note(format!("ping: {e}"));
                                }
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    let after = stats(fx)?;
    let mut total = LoopResult {
        wall,
        cpu,
        before,
        after,
        ..LoopResult::default()
    };
    for p in parts {
        total.absorb(p);
    }
    Ok(total)
}

/// Issue one request, time it, and check the reply.
fn exec(
    session: &mut Session,
    cat: &Catalog,
    churn: Option<&mut Churn>,
    role: Role,
    op: Op,
    out: &mut LoopResult,
) {
    out.attempted += 1;
    let t0;
    let verdict: Result<(), String> = match op {
        Op::Point(k) => {
            let path = point_path(&price_text(cat.spec(), k));
            t0 = Instant::now();
            let r = session.query(TABLE, COLUMN, &path);
            out.record(op.kind(), t0);
            match r {
                Ok(hits) if role == Role::Reader => {
                    oracle::check_churn_point(cat, k, &hits).map(|c| out.churn_hits.extend(c))
                }
                Ok(hits) => oracle::check_point(cat, k, &hits),
                Err(e) => return out.error(op, e),
            }
        }
        Op::Fetch(k) => {
            t0 = Instant::now();
            let r = session.fetch_row(TABLE, cat.docid(k));
            out.record(op.kind(), t0);
            match r {
                Ok(row) => oracle::check_fetch(cat, k, row.as_ref()),
                Err(e) => return out.error(op, e),
            }
        }
        Op::Scan(k) => {
            let path = scan_path(k);
            t0 = Instant::now();
            let r = session.query(TABLE, COLUMN, &path);
            out.record(op.kind(), t0);
            match r {
                Ok(hits) => oracle::check_scan(cat, k, &hits),
                Err(e) => return out.error(op, e),
            }
        }
        Op::Filter(level) => {
            let path = filter_path(level);
            t0 = Instant::now();
            let r = session.query(TABLE, COLUMN, &path);
            out.record(op.kind(), t0);
            match r {
                Ok(hits) => oracle::check_filter(cat, level, &hits),
                Err(e) => return out.error(op, e),
            }
        }
        Op::Insert => {
            let churn = churn.expect("only the writer inserts");
            let i = churn.next_product;
            let values = vec![
                ColValue::Str(sku(i)),
                ColValue::Xml(rx_gen::product_doc(cat.spec(), i)),
            ];
            t0 = Instant::now();
            let r = session.insert_row(TABLE, values);
            out.record(op.kind(), t0);
            churn.next_product += 1;
            match r {
                Ok(doc) if churn.inserted.last().is_some_and(|&(d, _)| d >= doc) => {
                    Err(format!("insert of product {i} reused DocID {doc}"))
                }
                Ok(doc) => {
                    churn.live.push_back((doc, i));
                    churn.inserted.push((doc, i));
                    Ok(())
                }
                Err(e) => return out.error(op, e),
            }
        }
        Op::Delete => {
            let churn = churn.expect("only the writer deletes");
            let (doc, i) = churn
                .live
                .pop_front()
                .expect("the churn pool is never empty");
            t0 = Instant::now();
            let r = session.delete_row(TABLE, doc);
            out.record(op.kind(), t0);
            match r {
                Ok(true) => Ok(()),
                Ok(false) => Err(format!(
                    "delete of live DocID {doc} (product {i}) found no row"
                )),
                Err(e) => return out.error(op, e),
            }
        }
    };
    if let Err(msg) = verdict {
        out.wrong += 1;
        out.note(msg);
    }
}

impl LoopResult {
    fn record(&mut self, kind: Kind, t0: Instant) {
        self.lat.0[kind.index()].push(t0.elapsed().as_nanos() as u64);
    }

    fn error(&mut self, op: Op, e: rx_server::ClientError) {
        self.errors += 1;
        self.note(format!("{op:?}: {e}"));
    }
}
