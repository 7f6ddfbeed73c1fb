//! One benchmark run: set up (several times), warm up, measure, check the
//! end state, and turn the measurements into metrics.

use crate::drive::{self, LoopResult, Until};
use crate::fixture::{self, Fixture};
use crate::report::{self, geomean, median, num, object, quantile, ratio, string, Metrics};
use crate::trace;
use crate::workload::{Kind, Scale, Script, Workload};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// What a run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No reply or end state contradicted an oracle.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors, refusals, wrong replies).
    pub failed: u64,
    /// End-to-end or per-layer metrics.
    pub metrics: Metrics,
    /// Details: settings, host, per-kind latencies, failure messages.
    pub report: String,
}

/// Where traced runs write their spans, under the directory the benchmark
/// runs from.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".svcbench")
}

/// Warm-up before the measured window: fills the caches and finishes lazy
/// set-up (plan cache, query-worker threads) so they are not timed. With a
/// writer, it is two turnovers of the churn pool instead, so the storage
/// measured after it has seen the same churn however fast the host is.
pub fn warmup(s: &Settings, fx: &Fixture) -> Until {
    if s.workload == Workload::Ingest {
        Until::WriterRounds(2 * fx.churn.live.len())
    } else {
        Until::Elapsed(Duration::from_secs_f64((s.seconds / 5.0).clamp(0.2, 2.0)))
    }
}

/// Build the fixture `n` times (at least once) and keep the last; returns
/// it with every set-up's wall time.
pub fn set_up(s: &Settings, scale: &Scale, n: usize) -> Result<(Fixture, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let fx = Fixture::build(scale, s.seed)?;
        times.push(fx.setup.as_secs_f64());
        if times.len() >= n {
            return Ok((fx, times));
        }
        fx.close();
    }
}

/// Run one workload at `scale`.
pub fn run(s: &Settings, scale: &Scale) -> Result<Outcome, String> {
    // The traced run reports no set-up time, so it sets up once. The
    // end-to-end run sets up half its times before the measured window and
    // the rest after it, so the median of the set-up times samples the
    // host at both ends of the run.
    let first = if s.trace { 1 } else { scale.setups.div_ceil(2) };
    let (mut fx, setups) = set_up(s, scale, first)?;
    let mut scripts = Script::sessions(s.workload, scale, s.seed);
    let result = if s.trace {
        trace::run(s, scale, &mut fx, &mut scripts)
    } else {
        measure(s, scale, &mut fx, &mut scripts, setups)
    };
    fx.close();
    result
}

fn measure(
    s: &Settings,
    scale: &Scale,
    fx: &mut Fixture,
    scripts: &mut [Script],
    mut setups: Vec<f64>,
) -> Result<Outcome, String> {
    let warm = drive::run(fx, scripts, warmup(s, fx), false)?;
    let bytes = bytes_per_doc_byte(fx)?;
    let window = Until::Elapsed(Duration::from_secs_f64(s.seconds));
    let timed = drive::run(fx, scripts, window, false)?;
    let mut churn_hits = warm.churn_hits.clone();
    churn_hits.extend(timed.churn_hits.iter().copied());
    let end_failures = end_state(fx, &churn_hits)?;
    while setups.len() < scale.setups {
        let more = Fixture::build(scale, s.seed)?;
        setups.push(more.setup.as_secs_f64());
        more.close();
    }

    let completed = timed.completed() as f64;
    let kinds = s.workload.kinds();
    let p50s: Vec<f64> = kinds
        .iter()
        .map(|&k| quantile(timed.lat.of(k), 0.5) / 1e3)
        .collect();
    let mut m = Metrics::default();
    m.put("setup_s", "s", median(&setups));
    m.put(
        "cpu_us_per_op",
        "us",
        ratio(timed.cpu.as_secs_f64() * 1e6, completed),
    );
    m.put("lat_p50_us", "us", geomean(&p50s));
    m.put("bytes_per_doc_byte", "ratio", bytes);

    let (correct, attempted, failed) = tally(&[&warm, &timed], &end_failures);
    let mut messages: Vec<String> = warm.messages.clone();
    messages.extend(timed.messages.iter().cloned());
    messages.extend(end_failures);
    let report = object(&[
        ("workload", string(s.workload.name())),
        ("seed", s.seed.to_string()),
        ("seconds", num(s.seconds)),
        ("trace", "false".into()),
        ("nproc", nproc().to_string()),
        ("git_rev", string(&git_rev())),
        ("setup_s", list(&setups)),
        ("wall_s", num(timed.wall.as_secs_f64())),
        ("ops_per_s", num(completed / timed.wall.as_secs_f64())),
        ("cpu_s", num(timed.cpu.as_secs_f64())),
        ("kinds", kind_table(&timed, kinds)),
        ("failures", string_list(&messages)),
    ]);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
        report,
    })
}

/// Fold loop results and end-state failures into the three result fields.
/// The server's own `requests_errored` and `requests_rejected` deltas count
/// as failures too, in case a client error went unseen.
pub fn tally(loops: &[&LoopResult], end_failures: &[String]) -> (bool, u64, u64) {
    let mut attempted = 0;
    let mut client_errors = 0;
    let mut server_errors = 0;
    let mut wrong = 0;
    for l in loops {
        attempted += l.attempted;
        client_errors += l.errors;
        wrong += l.wrong;
        server_errors += (l.after.requests_errored - l.before.requests_errored)
            + (l.after.requests_rejected - l.before.requests_rejected);
    }
    let failed = client_errors.max(server_errors) + wrong + end_failures.len() as u64;
    (
        wrong == 0 && end_failures.is_empty(),
        attempted.max(1),
        failed,
    )
}

/// Check the end state against the benchmark's own model: the live DocIDs
/// are the stable documents plus the churn pool, every value index holds
/// one entry per live document, and every churn document a point query
/// returned was one the writer inserted.
pub fn end_state(fx: &Fixture, churn_hits: &[(u64, usize)]) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let mut model: Vec<u64> = fx.catalog.docids().to_vec();
    model.extend(fx.churn.live.iter().map(|&(d, _)| d));
    model.sort_unstable();
    let live = rx_engine::access::all_docids(&fx.table).map_err(|e| e.to_string())?;
    if live != model {
        failures.push(format!(
            "live DocIDs: {} in the table, {} in the model",
            live.len(),
            model.len()
        ));
    }
    for col in fx.table.xml_columns() {
        for idx in col.indexes() {
            let n = idx.len().map_err(|e| e.to_string())?;
            if n != model.len() as u64 {
                failures.push(format!(
                    "value index {} holds {n} entries for {} live documents",
                    idx.def.name,
                    model.len()
                ));
            }
        }
    }
    let inserted: HashSet<(u64, usize)> = fx.churn.inserted.iter().copied().collect();
    if let Some(h) = churn_hits.iter().find(|h| !inserted.contains(h)) {
        failures.push(format!(
            "a point query returned DocID {} as product {}, which the writer never inserted",
            h.0, h.1
        ));
    }
    Ok(failures)
}

/// Stored data and index bytes per byte of generated XML of the live
/// documents. Measured after the warm-up, so on `ingest` after two
/// turnovers of the churn pool.
pub fn bytes_per_doc_byte(fx: &Fixture) -> Result<f64, String> {
    let spec = fx.catalog.spec();
    let xml: usize = (0..fx.catalog.len())
        .chain(fx.churn.live.iter().map(|&(_, i)| i))
        .map(|i| rx_gen::product_doc(spec, i).len())
        .sum();
    Ok(ratio(fixture::stored_bytes(&fx.table)? as f64, xml as f64))
}

/// Per-kind sample counts and latency quantiles, as a JSON object: the
/// median, and each of p90 and p99 only when at least ten samples lie
/// beyond it.
pub fn kind_table(l: &LoopResult, kinds: &[Kind]) -> String {
    let rows: Vec<(&str, String)> = kinds
        .iter()
        .map(|&k| {
            let v = l.lat.of(k);
            let mut fields = vec![
                ("count", v.len().to_string()),
                ("p50_us", num(quantile(v, 0.5) / 1e3)),
            ];
            for (name, q) in [("p90_us", 0.9), ("p99_us", 0.99)] {
                if (v.len() as f64) * (1.0 - q) >= 10.0 {
                    fields.push((name, num(quantile(v, q) / 1e3)));
                }
            }
            (k.name(), object(&fields))
        })
        .collect();
    object(&rows)
}

/// A JSON list of numbers.
pub fn list(v: &[f64]) -> String {
    format!(
        "[{}]",
        v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ")
    )
}

/// A JSON list of strings.
pub fn string_list(v: &[String]) -> String {
    format!(
        "[{}]",
        v.iter().map(|x| string(x)).collect::<Vec<_>>().join(", ")
    )
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` when the benchmark runs inside
/// a git work tree, else `unknown`.
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

/// Print the report line and then the result line (the last line).
pub fn print(o: &Outcome) {
    println!("{}", object(&[("report", o.report.clone())]));
    println!(
        "{}",
        report::result_line(o.correct, o.attempted, o.failed, &o.metrics)
    );
}
