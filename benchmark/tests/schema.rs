//! Holds `BENCHMARK.json`, `spec.rs` and what a run actually prints together,
//! on tiny groups so the whole file takes seconds.

use std::collections::BTreeSet;

use rekeybench::run::{run, RunConfig, RunResult};
use rekeybench::spec::{benchmark_json, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use rekeybench::trace::check_nesting;

fn tiny(workload: Workload, seed: u64, trace: bool) -> RunResult {
    run(&RunConfig {
        workload,
        sizing: workload.tiny_sizing(),
        seed,
        seconds: 0.1,
        trace,
    })
}

fn names(result: &RunResult) -> Vec<&'static str> {
    result.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn committed_benchmark_json_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with: bash benchmark/run.sh --print-benchmark-json > BENCHMARK.json"
    );
}

#[test]
fn names_units_and_counts_meet_the_contract() {
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));

    let mut seen = BTreeSet::new();
    for w in WORKLOADS {
        assert!(name_ok(w.name()) && seen.insert(w.name()), "{}", w.name());
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    for m in END_TO_END {
        assert!(
            name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name),
            "{}",
            m.name
        );
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    for (name, unit, _) in PER_LAYER {
        assert!(
            name_ok(name) && unit_ok(unit) && seen.insert(name),
            "{name}"
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!(setup.unit, "s");
    assert!(benchmark_json().len() <= 64 * 1024);
}

#[test]
fn untraced_runs_emit_exactly_the_end_to_end_metrics() {
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    for w in WORKLOADS {
        let r = tiny(w, 1, false);
        assert_eq!(names(&r), expected, "{}", w.name());
        assert!(
            r.correct() && r.attempted >= 1,
            "{}: {} failed",
            w.name(),
            r.failed
        );
        for m in &r.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        let line = r.to_json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(!line.contains('\n'));
    }
}

#[test]
fn traced_runs_emit_exactly_the_per_layer_metrics_and_nested_spans() {
    let expected: Vec<&str> = PER_LAYER.iter().map(|&(name, ..)| name).collect();
    for w in WORKLOADS {
        let r = tiny(w, 1, true);
        assert_eq!(names(&r), expected, "{}", w.name());
        // Includes the digest match between the product and the layered loop.
        assert!(r.correct(), "{}: {} failed", w.name(), r.failed);
        for m in &r.metrics {
            assert!(m.value.is_finite(), "{} {} = {}", w.name(), m.name, m.value);
        }
        assert!(!r.spans.is_empty());
        check_nesting(&r.spans).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let json = r
            .trace_json
            .as_deref()
            .expect("a traced run writes a trace");
        assert!(json.starts_with("{\"traceEvents\":[") && json.contains("\"nproc\""));

        // The budget sums to the interval: every layer row measured inside
        // the window, plus the loop's own time. The three steps of
        // `KeyServer::rekey` are inside the window on sim_figures only;
        // elsewhere they are replays that split `server.rekey.ms`.
        let replayed = [
            "keytree.mark.ms",
            "rekeymsg.build.ms",
            "rekeyproto.begin.ms",
        ];
        let rows: f64 = r
            .metrics
            .iter()
            .filter(|m| m.name.ends_with(".ms") && m.name != "trace.interval.ms")
            .filter(|m| w == Workload::SimFigures || !replayed.contains(&m.name))
            .map(|m| m.value)
            .sum();
        let interval = r.metric("trace.interval.ms").expect("trace.interval.ms");
        assert!(
            (rows - interval).abs() <= 1e-6 * interval,
            "{}: rows sum to {rows} ms, the interval is {interval} ms",
            w.name()
        );
    }
}

#[test]
fn layer_split_separates_the_workloads() {
    let zero_on = |w: Workload, metric: &str| {
        assert_eq!(
            tiny(w, 2, true).metric(metric),
            Some(0.0),
            "{} {metric}",
            w.name()
        );
    };
    zero_on(Workload::ServerScale, "rekeymsg.parse.calls");
    zero_on(Workload::SimFigures, "rekeymsg.parse.calls");
    zero_on(Workload::WireFec, "netsim.unicast.calls");
    let steady = tiny(Workload::WireSteady, 2, true);
    assert!(steady.metric("rekeymsg.parse.calls").expect("metric") > 0.0);
    assert!(steady.metric("agent.apply.calls").expect("metric") > 0.0);
}

#[test]
fn same_seed_same_digest_and_exact_metrics_other_seed_differs() {
    let exact = [
        "bandwidth_overhead",
        "rounds_to_key_mean",
        "on_time_users_pct",
        "wire_bytes_per_interval",
    ];
    let digest = |r: &RunResult| {
        r.info
            .iter()
            .find_map(|(k, v)| (*k == "run_digest").then(|| v.clone()))
            .expect("run_digest")
    };
    for w in WORKLOADS {
        let (a, b, c) = (tiny(w, 5, false), tiny(w, 5, false), tiny(w, 6, false));
        assert_eq!(digest(&a), digest(&b), "{}", w.name());
        assert_ne!(digest(&a), digest(&c), "{}", w.name());
        for m in exact {
            assert_eq!(a.metric(m), b.metric(m), "{} {m}", w.name());
        }
        assert!(c.correct(), "{}: another seed fails its checks", w.name());
    }
}
