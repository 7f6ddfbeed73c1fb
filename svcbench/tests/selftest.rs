//! The benchmark's self-test: every workload runs end to end at a tiny
//! scale with zero failures, untraced and traced; the metrics it prints are
//! exactly the ones `BENCHMARK.json` declares; and the end-state oracle
//! catches a model that disagrees with the table.

use rx_svcbench::bench::{self, Settings};
use rx_svcbench::drive::{self, Until};
use rx_svcbench::fixture::Fixture;
use rx_svcbench::workload::{Scale, Script, Workload};

/// Metric names of one section of `BENCHMARK.json` (`end_to_end` or
/// `per_layer`), read without a JSON library: every `"name"` value between
/// the section's key and the next section.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark's directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let rest = &text[start..];
    let end = rest[1..].find("\n  \"").map_or(rest.len(), |i| i + 1);
    rest[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim_start()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap_or("")
                .to_string()
        })
        .collect()
}

fn settings(workload: Workload, trace: bool) -> Settings {
    Settings {
        workload,
        seed: 5,
        seconds: 0.6,
        trace,
    }
}

fn check_run(workload: Workload, trace: bool) {
    let outcome = bench::run(&settings(workload, trace), &Scale::tiny(workload))
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(
        outcome.correct && outcome.failed == 0,
        "{} (trace {trace}): {}",
        workload.name(),
        outcome.report
    );
    assert!(outcome.attempted > 0);
    let names: Vec<&str> = outcome.metrics.0.iter().map(|m| m.name.as_str()).collect();
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(
        names,
        want,
        "{} metrics differ from BENCHMARK.json",
        workload.name()
    );
    for m in &outcome.metrics.0 {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    if !trace {
        for m in &outcome.metrics.0 {
            assert!(
                m.value > 0.0,
                "{}: end-to-end {} reads 0",
                workload.name(),
                m.name
            );
        }
    }
}

#[test]
fn lookup_runs_clean() {
    check_run(Workload::Lookup, false);
}

#[test]
fn scan_runs_clean() {
    check_run(Workload::Scan, false);
}

#[test]
fn ingest_runs_clean() {
    check_run(Workload::Ingest, false);
}

#[test]
fn traced_runs_are_clean_and_print_every_layer() {
    for w in Workload::ALL {
        check_run(w, true);
    }
}

#[test]
fn end_state_oracle_catches_a_stale_model() {
    let scale = Scale::tiny(Workload::Ingest);
    let mut fx = Fixture::build(&scale, 9).expect("fixture");
    let mut scripts = Script::sessions(Workload::Ingest, &scale, 9);
    let run = drive::run(&mut fx, &mut scripts, Until::WriterRounds(20), false).expect("run");
    assert_eq!(run.errors + run.wrong, 0, "{:?}", run.messages);
    assert!(bench::end_state(&fx, &run.churn_hits)
        .expect("end state")
        .is_empty());
    // Forget one live churn document: the table now holds a row the model
    // does not, as if a delete had been lost.
    fx.churn.live.pop_front();
    assert!(!bench::end_state(&fx, &run.churn_hits)
        .expect("end state")
        .is_empty());
    // A point-query hit on a document the writer never inserted.
    fx.churn.live.clear();
    let forged = [(u64::MAX, 1usize)];
    assert!(bench::end_state(&fx, &forged)
        .expect("end state")
        .iter()
        .any(|f| f.contains("never inserted")));
    fx.close();
}
