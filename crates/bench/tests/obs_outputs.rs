//! The side outputs of a recorded scenario run — what `bench_churn
//! --trace-out` / `--series-out` write — checked for structure in-process
//! on a small mass-departure cell: the drained event log (balanced B/E
//! nesting, monotone per-track timestamps, every track labelled, the stages
//! of a real interval nested where they run) and the `obs_series/v1`
//! columns. The series needs no instrumentation; the trace needs
//! `--features obs`, and without it there is nothing to record.

use std::collections::{BTreeMap, BTreeSet};

use grouprekey::scenario::{ScenarioConfig, ScenarioEngine, ScenarioKind};
use grouprekey::ServerOptions;
use keytree::CompactionPolicy;
use obs::series::SeriesRecorder;
use obs::trace::{EventKind, Trace};

/// Mass departure, N = 256, d = 4, 24 intervals, compaction on.
fn cell() -> ScenarioConfig {
    ScenarioConfig {
        kind: ScenarioKind::MassDeparture,
        seed: 0xC4E2_0007 ^ 256 ^ (4 << 32),
        initial_users: 256,
        intervals: 24,
        options: ServerOptions {
            degree: 4,
            compaction: CompactionPolicy::DEFAULT_ON,
            ..ServerOptions::default()
        },
    }
}

/// Checks the trace structurally and returns every span name with the
/// name of the span it opened inside (`""` at the top of a track).
fn nesting(trace: &Trace) -> BTreeSet<(String, String)> {
    assert!(!trace.events.is_empty());
    assert_eq!(trace.dropped_total(), 0);
    // Per track: last timestamp and the stack of open spans.
    let mut tracks: BTreeMap<u32, (u64, Vec<&str>)> = BTreeMap::new();
    let mut nesting = BTreeSet::new();
    for e in &trace.events {
        let (last, open) = tracks.entry(e.track).or_default();
        assert!(e.t_ns >= *last, "t_ns not monotone on track {}", e.track);
        *last = e.t_ns;
        match e.kind {
            EventKind::Begin => {
                let parent = open.last().copied().unwrap_or_default();
                nesting.insert((e.name.clone(), parent.to_string()));
                open.push(&e.name);
            }
            EventKind::End => assert_eq!(
                open.pop(),
                Some(e.name.as_str()),
                "E closes the innermost B on track {}",
                e.track
            ),
            EventKind::Instant => {}
        }
    }
    for (track, (_, open)) in &tracks {
        assert!(open.is_empty(), "unclosed spans on track {track}: {open:?}");
        let info = trace.tracks.iter().find(|t| t.track == *track);
        assert!(
            info.is_some_and(|t| !t.label.is_empty()),
            "unlabelled track {track}"
        );
    }
    nesting
}

#[test]
fn recorded_trace_and_series_have_the_expected_structure() {
    obs::trace::clear();
    obs::trace::enable();
    let mut series = SeriesRecorder::new();
    ScenarioEngine::new(cell()).run_recorded(&mut series);
    obs::trace::disable();
    let trace = obs::trace::drain();

    assert_eq!(series.len(), 24);
    for required in [
        "users",
        "joins",
        "leaves",
        "enc_per_member",
        "bytes_on_wire",
        "max_depth",
        "mean_depth",
        "resident_bytes",
    ] {
        let column = series.column(required);
        assert_eq!(column.map(|c| c.len()), Some(24), "{required}");
    }
    assert!(obs::json::well_formed(&series.to_json()));
    assert!(obs::json::well_formed(&trace.to_chrome_json()));

    if !obs::enabled() {
        assert!(trace.events.is_empty());
        return;
    }
    // The rekey path is sequential: the recorded run is one track (the
    // caller's), every stage of a real interval closed and nested in the
    // span that runs it. Building the blocks encodes nothing (an ENC
    // packet is its FEC body; parities are minted when a round is sent),
    // so `fec.block_build` holds no stage.
    let nesting = nesting(&trace);
    assert_eq!(trace.tracks.len(), 1, "tracks: {:?}", trace.tracks);
    for (stage, parent) in [
        ("rekey.batch", "scenario.interval"),
        ("stage.mark", "keytree.mark_batch"),
        ("stage.mint", "keytree.mark_batch"),
        ("stage.seal", "uka.build"),
        ("fec.block_build", "rekey.batch"),
    ] {
        assert!(
            nesting.contains(&(stage.to_string(), parent.to_string())),
            "{stage} not nested under {parent}: {nesting:?}"
        );
    }
    let encode = ("stage.encode".to_string(), "fec.block_build".to_string());
    assert!(
        !nesting.contains(&encode),
        "block build encoded: {nesting:?}"
    );
}
